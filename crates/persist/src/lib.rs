//! `vc-persist` — durability for the orchestrator control plane.
//!
//! The paper's dispatcher is a long-lived process: Algorithm 1 sessions
//! WAIT/HOP continuously while conferences arrive and depart, so the
//! control-plane state (assignments, ledger reservations, counters) is
//! the product of an unbounded event history. This crate makes that
//! state survive a crash with two complementary artifacts:
//!
//! * a **write-ahead event journal** ([`journal`]) — every fleet
//!   mutation is appended as a CRC-checked, length-prefixed frame
//!   *before* the caller observes its effect as durable; appends are
//!   buffered and fsynced in batches (see [`journal::FsyncPolicy`]);
//! * periodic **snapshots** ([`snapshot`]) — the full control-plane
//!   state written atomically (temp file + rename), superseding the
//!   journal prefix so the log can be **compacted**.
//!
//! Both writers perform file I/O through an injectable storage layer
//! ([`vfs`]): the real filesystem by default, or a fault plane
//! (`vc-chaos`) that injects fsync errors, torn writes, and `ENOSPC`
//! at exact byte offsets. On a storage fault the journal retries with
//! capped backoff, then **degrades** instead of panicking — appends
//! keep buffering in memory and the condition surfaces through
//! telemetry until healed (see [`journal::Durability`]).
//!
//! Recovery loads the latest valid snapshot, replays the journal tail
//! (tolerating a torn final record — the expected artifact of a crash
//! mid-append), and hands the reconstructed state back for re-audit.
//!
//! Everything is serialized with a **hand-rolled, versioned binary
//! codec** ([`codec`]): the workspace builds offline with no
//! serialization dependency (see `vendor/README.md`), and the on-disk
//! format stays this crate's own. The codec is little-endian,
//! length-prefixed, and exact: `f64` round-trips through its bit
//! pattern, so a recovered objective equals the pre-crash objective to
//! the last bit. A record's wire form is written once, as a [`wire!`]
//! declaration of its fields (and an enum's tags) in wire order, from
//! which both directions derive; the declaration *is* the format — a
//! reordered or inserted field changes it, a retired tag is never
//! reused — and `tests/wire_golden.rs` pins the bytes.
//!
//! This crate only knows about `vc-model`/`vc-core` types plus its own
//! framing; the fleet-specific record types and the recovery path
//! (`Fleet::recover`) live in `vc-orchestrator::persist`, which builds
//! on the generic machinery here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod journal;
pub mod snapshot;
pub mod vfs;

pub use codec::{decode_exact, encode_to_vec, CodecError, Decode, Encode, Reader};
pub use crc::crc32;
pub use journal::{
    read_journal, Durability, FsyncPolicy, JournalError, JournalWriter, RetryPolicy, TailStatus,
    JOURNAL_MAGIC, JOURNAL_VERSION, SUPPORTED_JOURNAL_VERSIONS,
};
pub use snapshot::{
    compact, journal_files, journal_path, latest_snapshot, load_snapshot, snapshot_path,
    write_snapshot, write_snapshot_with, SnapshotError, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
    SUPPORTED_SNAPSHOT_VERSIONS,
};
pub use vfs::{real_vfs, FaultFile, RealVfs, Vfs};
