//! The write-ahead event journal: an append-only file of CRC-framed,
//! sequence-numbered records.
//!
//! ## File format
//!
//! ```text
//! ┌──────────────────────────────┐
//! │ header: "VCWJ" ver:u16 rsv:u16│  8 bytes, written at creation
//! ├──────────────────────────────┤
//! │ frame: len:u32 crc:u32 payload│  payload = seq:u64 ++ record
//! │ frame: …                      │  crc = crc32(payload)
//! │ …                             │
//! │ (possibly torn final frame)   │  ← tolerated by the reader
//! └──────────────────────────────┘
//! ```
//!
//! ## Durability semantics
//!
//! [`JournalWriter::append`] buffers the frame in memory;
//! [`JournalWriter::commit`] writes the buffer and `fsync`s. The
//! [`FsyncPolicy`] decides how often that happens automatically. A
//! crash loses exactly the appends since the last commit — never a
//! committed record, and never the file's integrity: the reader stops
//! at the first frame that is incomplete or fails its CRC (the torn
//! tail) and reports everything before it.
//!
//! Dropping a writer does **not** flush: an unclean exit is precisely
//! the crash this module exists to survive, so the drop path must not
//! quietly upgrade durability. Call [`JournalWriter::commit`] at
//! shutdown.
//!
//! ## Storage faults and degraded mode
//!
//! The writer performs all file I/O through a [`FaultFile`] handed out
//! by a [`Vfs`] (the real filesystem by default), so storage faults can
//! be injected deterministically. When a commit hits a fault the writer
//! does **not** panic and does **not** lose accepted appends while the
//! process lives:
//!
//! * a failed `fsync` is retried with capped exponential backoff
//!   ([`RetryPolicy`]); if the budget runs out the writer enters
//!   [`Durability::Degraded`];
//! * a failed or torn *write* degrades immediately (retrying an append
//!   after a partial write would bury valid frames behind garbage) and
//!   remembers the last known-good byte offset;
//! * in degraded mode the policy behaves as [`FsyncPolicy::Manual`]
//!   with commits disabled — appends keep buffering in memory and the
//!   caller is expected to surface the state (telemetry, watchdog) and
//!   eventually [`try_heal`](JournalWriter::try_heal): truncate any
//!   torn tail back to the known-good offset, rewrite the buffer, and
//!   re-sync. A process crash while degraded loses exactly the
//!   buffered tail — the same contract as uncommitted appends.

use crate::codec::{decode_exact, CodecError, Decode, Encode};
use crate::crc::crc32;
use crate::vfs::{FaultFile, RealVfs, Vfs};
use std::fs::File;
use std::io::{self, Read};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use vc_obs::{ObsPlane, Site};

/// Journal file magic.
pub const JOURNAL_MAGIC: [u8; 4] = *b"VCWJ";
/// Journal format version. v6: elastic-capacity records —
/// `RegisterAgent` definitions grow the agent pool mid-journal (with a
/// region name) and `DrainAgent` replays the planned evacuation of a
/// draining agent; the snapshot interleaves session and agent growth
/// in one log. v5: chaos-plane records — `ReadmitEnqueue`/
/// `ReadmitDrop` carry the self-healing re-admission queue (sessions
/// displaced by forced evacuations or refused under pressure, with
/// their decorrelated-jitter backoff state), so a mid-storm
/// crash/recover reconstructs queue and backoff bitwise; the snapshot
/// grows the matching queue, epoch, and displacement-counter fields.
/// v4: admission-parity records — `Admit` carries the chosen
/// placement's search tier and repair effort and `Reject` its typed
/// refusal reason (admission is search-dependent since the shared
/// engine landed, so replay installs rather than re-derives, and the
/// per-tier/per-reason counters must recover exactly), plus `Timers`
/// records carrying the worker pool's reconstructible WAIT-countdown
/// state. v3: open-world records — `RegisterSession` definitions grow
/// the universe mid-journal, and the snapshot carries the registered
/// definitions. v2: `FailAgent` replay re-derives the evacuation with
/// the sparse residual-based feasibility rule (PR 3's sharded fleet);
/// v1 stores replayed it through the dense whole-state check.
pub const JOURNAL_VERSION: u16 = 6;
/// The journal versions this build can replay. Decode is gated on this
/// explicit set — a version outside it fails up front with an error
/// naming both sides, instead of misreading bytes under the wrong
/// semantics.
pub const SUPPORTED_JOURNAL_VERSIONS: &[u16] = &[JOURNAL_VERSION];
/// Header length: magic + version + reserved.
pub const HEADER_LEN: usize = 8;
/// Frames longer than this are treated as garbage (a torn length
/// prefix), not as a real record.
pub const MAX_FRAME_LEN: u32 = 16 * 1024 * 1024;

/// How often appended records are made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` on every append — maximum durability, one syscall pair
    /// per event.
    Always,
    /// `fsync` once every `n` appends (and on explicit
    /// [`commit`](JournalWriter::commit)).
    Batch(usize),
    /// Only on explicit [`commit`](JournalWriter::commit) — the caller
    /// owns the durability boundary (e.g. once per telemetry period).
    Manual,
}

/// How a failed `fsync` is retried before the writer degrades.
///
/// The delays are deliberately small: a stalled disk is not going to
/// be argued with, and the whole point of degraded mode is to get off
/// the blocking path and surface the condition instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total sync attempts per commit (≥ 1; the first try included).
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff cap.
    pub max_delay: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// A zero-sleep retry policy for tests (same attempt count,
    /// no backoff delay).
    pub fn immediate(attempts: u32) -> Self {
        Self {
            attempts: attempts.max(1),
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
        }
    }
}

/// The writer's current durability mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// Appends are made durable per the [`FsyncPolicy`].
    Synchronous,
    /// A storage fault exhausted the retry budget: appends buffer in
    /// memory only (an enforced [`FsyncPolicy::Manual`] with commits
    /// parked) until [`JournalWriter::try_heal`] succeeds.
    Degraded,
}

/// Why reading a journal failed outright (torn tails are *not* errors;
/// see [`TailStatus`]).
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem error.
    Io(io::Error),
    /// The header exists but is not a journal, or a CRC-valid frame
    /// failed to decode (bit rot the CRC happened to miss, or a
    /// format/version bug).
    Corrupt {
        /// Byte offset of the problem.
        offset: u64,
        /// Human-readable cause.
        reason: String,
    },
    /// The journal was written by a format version outside
    /// [`SUPPORTED_JOURNAL_VERSIONS`].
    Version {
        /// The version found in the file header.
        found: u16,
        /// The versions this build can replay.
        supported: &'static [u16],
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "journal I/O error: {e}"),
            Self::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
            Self::Version { found, supported } => write!(
                f,
                "journal format version {found} unsupported (this build supports {supported:?})"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// What the reader found at the end of the file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailStatus {
    /// Whether the file ended in an incomplete or CRC-failing frame
    /// (the expected artifact of a crash mid-append).
    pub torn: bool,
    /// Bytes of the file covered by valid frames (header included);
    /// everything past this offset was ignored.
    pub valid_len: u64,
}

/// The append side of the journal. Generic over the record type so the
/// fleet-specific event enum lives with the fleet, not here.
#[derive(Debug)]
pub struct JournalWriter<T: Encode> {
    file: Box<dyn FaultFile>,
    path: PathBuf,
    /// Frames encoded but not yet written to the file.
    buf: Vec<u8>,
    /// Appends since the last fsync.
    pending: usize,
    next_seq: u64,
    policy: FsyncPolicy,
    retry: RetryPolicy,
    /// Bytes known to be fully written (header included). After a torn
    /// write the real file length is somewhere past this; healing
    /// truncates back to it.
    written_len: u64,
    durability: Durability,
    /// A write fault left an unknown tail past `written_len`; healing
    /// must truncate before rewriting.
    torn: bool,
    /// Cumulative fsync attempts that failed (retried or degraded).
    sync_retries: u64,
    /// Optional observability plane: when attached, `append` records a
    /// [`Site::JournalAppend`] span (encode + buffering + any
    /// policy-triggered commit) and `commit` a [`Site::JournalFsync`]
    /// span covering the write + `fsync` pair.
    obs: Option<Arc<ObsPlane>>,
    _record: PhantomData<fn(&T)>,
}

impl<T: Encode> JournalWriter<T> {
    /// Creates (truncating) a journal at `path` whose first record will
    /// carry sequence number `first_seq`. The header is written and
    /// synced immediately so even an empty journal is well-formed.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn create(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        first_seq: u64,
    ) -> io::Result<Self> {
        Self::create_with(path, policy, first_seq, &RealVfs, RetryPolicy::default())
    }

    /// [`create`](Self::create) through an explicit [`Vfs`] and fsync
    /// [`RetryPolicy`] — the fault-injection entry point.
    ///
    /// # Errors
    ///
    /// Any filesystem error. Creation does not degrade: a journal that
    /// cannot even write its header durably does not exist.
    pub fn create_with(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        first_seq: u64,
        vfs: &dyn Vfs,
        retry: RetryPolicy,
    ) -> io::Result<Self> {
        let path = path.into();
        let mut file = vfs.create(&path)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&JOURNAL_MAGIC);
        header.extend_from_slice(&JOURNAL_VERSION.to_le_bytes());
        header.extend_from_slice(&0u16.to_le_bytes());
        file.write_all(&header)?;
        file.sync_data()?;
        Ok(Self {
            file,
            path,
            buf: Vec::new(),
            pending: 0,
            next_seq: first_seq,
            policy,
            retry,
            written_len: HEADER_LEN as u64,
            durability: Durability::Synchronous,
            torn: false,
            sync_retries: 0,
            obs: None,
            _record: PhantomData,
        })
    }

    /// Attaches an observability plane. Journals are recreated on
    /// rotation (checkpoint, recovery), so callers re-attach at every
    /// creation point; the plane itself is shared and keeps history.
    pub fn set_obs(&mut self, obs: Arc<ObsPlane>) {
        self.obs = Some(obs);
    }

    /// Appends one record, assigning and returning its sequence number.
    /// Durability follows the writer's [`FsyncPolicy`].
    ///
    /// Storage faults in a policy-triggered commit do **not** surface
    /// here: the writer retries, then degrades (see
    /// [`durability`](Self::durability)) — the append itself is always
    /// accepted and buffered.
    ///
    /// # Errors
    ///
    /// None today; the `Result` is kept so callers stay fault-aware.
    pub fn append(&mut self, record: &T) -> io::Result<u64> {
        let t0 = self.obs.as_ref().and_then(|o| o.timer());
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut payload = Vec::with_capacity(32);
        seq.encode(&mut payload);
        record.encode(&mut payload);
        let len = u32::try_from(payload.len()).expect("record under 4 GiB");
        assert!(len <= MAX_FRAME_LEN, "record exceeds MAX_FRAME_LEN");
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.pending += 1;
        match self.policy {
            FsyncPolicy::Always => self.commit()?,
            FsyncPolicy::Batch(n) if self.pending >= n.max(1) => self.commit()?,
            _ => {}
        }
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.record_since(Site::JournalAppend, Some(t0));
        }
        Ok(seq)
    }

    /// Writes all buffered frames and `fsync`s: every append so far is
    /// durable when this returns with the writer still
    /// [`Durability::Synchronous`].
    ///
    /// A failed `fsync` is retried under the [`RetryPolicy`]; when the
    /// budget runs out — or a write faults — the writer flips to
    /// [`Durability::Degraded`] and returns `Ok(())`: the caller's data
    /// is buffered, not lost, and the degraded state is the signal
    /// (panicking here would turn an injectable disk fault into a
    /// control-plane outage). While degraded, `commit` is a no-op until
    /// [`try_heal`](Self::try_heal) succeeds.
    ///
    /// # Errors
    ///
    /// None today; the `Result` is kept so callers stay fault-aware.
    pub fn commit(&mut self) -> io::Result<()> {
        if self.durability == Durability::Degraded {
            return Ok(());
        }
        let t0 = if self.pending > 0 {
            self.obs.as_ref().and_then(|o| o.timer())
        } else {
            None
        };
        if !self.buf.is_empty() {
            if self.file.write_all(&self.buf).is_err() {
                // The file tail is now unknown (possibly a torn frame);
                // keep the buffer for healing and stop writing.
                self.torn = true;
                self.durability = Durability::Degraded;
                return Ok(());
            }
            self.written_len += self.buf.len() as u64;
            self.buf.clear();
        }
        if self.pending > 0 {
            if !self.sync_with_retry() {
                self.durability = Durability::Degraded;
                return Ok(());
            }
            self.pending = 0;
        }
        if let (Some(obs), Some(t0)) = (&self.obs, t0) {
            obs.record_since(Site::JournalFsync, Some(t0));
        }
        Ok(())
    }

    /// `sync_data` under the retry policy: capped exponential backoff
    /// between attempts, `true` on success.
    fn sync_with_retry(&mut self) -> bool {
        let mut delay = self.retry.base_delay;
        for attempt in 1..=self.retry.attempts.max(1) {
            if self.file.sync_data().is_ok() {
                return true;
            }
            self.sync_retries += 1;
            if attempt < self.retry.attempts.max(1) {
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
                delay = (delay * 2).min(self.retry.max_delay);
            }
        }
        false
    }

    /// One attempt to leave degraded mode: truncate any torn tail back
    /// to the last fully-written frame boundary, rewrite the buffered
    /// frames, and `fsync` (one shot — the caller owns the retry
    /// cadence here). Returns `true` when the writer is synchronous
    /// again, with every accepted append durable.
    ///
    /// No-op `true` when the writer was never degraded.
    pub fn try_heal(&mut self) -> bool {
        if self.durability == Durability::Synchronous {
            return true;
        }
        if self.torn {
            if self.file.truncate(self.written_len).is_err() {
                return false;
            }
            self.torn = false;
        }
        if !self.buf.is_empty() {
            if self.file.write_all(&self.buf).is_err() {
                self.torn = true;
                return false;
            }
            self.written_len += self.buf.len() as u64;
            self.buf.clear();
        }
        if self.pending > 0 {
            if self.file.sync_data().is_err() {
                self.sync_retries += 1;
                return false;
            }
            self.pending = 0;
        }
        self.durability = Durability::Synchronous;
        true
    }

    /// The writer's current durability mode.
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// `true` when a storage fault has parked commits (see
    /// [`Durability::Degraded`]).
    pub fn degraded(&self) -> bool {
        self.durability == Durability::Degraded
    }

    /// Cumulative failed `fsync` attempts (retried or degraded).
    pub fn sync_retries(&self) -> u64 {
        self.sync_retries
    }

    /// The sequence number the next append will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends not yet made durable.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Reads every valid record of a journal, in order, stopping cleanly at
/// a torn tail (incomplete frame, garbage length, or CRC mismatch).
///
/// # Errors
///
/// [`JournalError::Corrupt`] if the file is not a journal at all or a
/// CRC-valid frame fails to decode; [`JournalError::Version`] on a
/// format version mismatch; [`JournalError::Io`] on filesystem errors.
/// A missing-or-short header reads as an empty, torn journal rather
/// than an error, so recovery after a crash at creation time works.
pub fn read_journal<T: Decode>(path: &Path) -> Result<(Vec<(u64, T)>, TailStatus), JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < HEADER_LEN {
        return Ok((
            Vec::new(),
            TailStatus {
                torn: !bytes.is_empty(),
                valid_len: 0,
            },
        ));
    }
    if bytes[..4] != JOURNAL_MAGIC {
        return Err(JournalError::Corrupt {
            offset: 0,
            reason: "bad magic".into(),
        });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if !SUPPORTED_JOURNAL_VERSIONS.contains(&version) {
        return Err(JournalError::Version {
            found: version,
            supported: SUPPORTED_JOURNAL_VERSIONS,
        });
    }
    let mut records = Vec::new();
    let mut pos = HEADER_LEN;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok((
                records,
                TailStatus {
                    torn: false,
                    valid_len: pos as u64,
                },
            ));
        }
        if remaining < 8 {
            break; // torn length/crc prefix
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len as u64 > MAX_FRAME_LEN as u64 || remaining - 8 < len {
            break; // garbage or truncated payload
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // torn or bit-flipped frame
        }
        let (seq, record) =
            decode_exact::<(u64, T)>(payload).map_err(|e: CodecError| JournalError::Corrupt {
                offset: pos as u64,
                reason: format!("CRC-valid frame failed to decode: {e}"),
            })?;
        records.push((seq, record));
        pos += 8 + len;
    }
    Ok((
        records,
        TailStatus {
            torn: true,
            valid_len: pos as u64,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-persist")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn append_commit_read_round_trip() {
        let dir = tmp_dir("journal-round-trip");
        let path = dir.join("j.vcwal");
        let mut w = JournalWriter::<u64>::create(&path, FsyncPolicy::Manual, 1).expect("create");
        for v in [10u64, 20, 30] {
            w.append(&v).expect("append");
        }
        assert_eq!(w.pending(), 3);
        w.commit().expect("commit");
        assert_eq!(w.pending(), 0);
        let (records, tail) = read_journal::<u64>(&path).expect("read");
        assert_eq!(records, vec![(1, 10), (2, 20), (3, 30)]);
        assert!(!tail.torn);
    }

    #[test]
    fn uncommitted_appends_are_not_on_disk() {
        let dir = tmp_dir("journal-uncommitted");
        let path = dir.join("j.vcwal");
        let mut w = JournalWriter::<u64>::create(&path, FsyncPolicy::Manual, 0).expect("create");
        w.append(&7u64).expect("append");
        drop(w); // crash: no flush on drop
        let (records, tail) = read_journal::<u64>(&path).expect("read");
        assert!(records.is_empty());
        assert!(!tail.torn);
    }

    #[test]
    fn batch_policy_syncs_every_n() {
        let dir = tmp_dir("journal-batch");
        let path = dir.join("j.vcwal");
        let mut w = JournalWriter::<u64>::create(&path, FsyncPolicy::Batch(2), 0).expect("create");
        w.append(&1u64).expect("append");
        assert_eq!(w.pending(), 1);
        w.append(&2u64).expect("append"); // triggers the batch commit
        assert_eq!(w.pending(), 0);
        w.append(&3u64).expect("append");
        drop(w); // the third append dies with the crash
        let (records, _) = read_journal::<u64>(&path).expect("read");
        assert_eq!(records, vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn every_truncation_reads_a_clean_prefix() {
        let dir = tmp_dir("journal-truncate");
        let path = dir.join("j.vcwal");
        let mut w = JournalWriter::<u64>::create(&path, FsyncPolicy::Always, 0).expect("create");
        for v in 0..5u64 {
            w.append(&(v * 100)).expect("append");
        }
        let bytes = fs::read(&path).expect("read file");
        for cut in 0..=bytes.len() {
            let p = dir.join("cut.vcwal");
            fs::write(&p, &bytes[..cut]).expect("write prefix");
            let (records, tail) = read_journal::<u64>(&p).expect("prefix reads");
            // A prefix never yields an invalid record, and the record
            // values are exactly the longest whole-frame prefix.
            for (i, (seq, v)) in records.iter().enumerate() {
                assert_eq!(*seq, i as u64);
                assert_eq!(*v, i as u64 * 100);
            }
            assert!(tail.valid_len as usize <= cut.max(HEADER_LEN));
            if cut == bytes.len() {
                assert!(!tail.torn);
                assert_eq!(records.len(), 5);
            }
        }
    }

    #[test]
    fn crc_mismatch_is_a_torn_tail() {
        let dir = tmp_dir("journal-bitflip");
        let path = dir.join("j.vcwal");
        let mut w = JournalWriter::<u64>::create(&path, FsyncPolicy::Always, 0).expect("create");
        w.append(&1u64).expect("append");
        w.append(&2u64).expect("append");
        let mut bytes = fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a payload bit of the final frame
        fs::write(&path, &bytes).expect("write");
        let (records, tail) = read_journal::<u64>(&path).expect("read");
        assert_eq!(records, vec![(0, 1)]);
        assert!(tail.torn);
    }

    #[test]
    fn unsupported_version_names_found_and_supported() {
        let dir = tmp_dir("journal-version");
        let path = dir.join("j.vcwal");
        let mut w = JournalWriter::<u64>::create(&path, FsyncPolicy::Always, 0).expect("create");
        w.append(&1u64).expect("append");
        let mut bytes = fs::read(&path).expect("read");
        bytes[4] = 0x7F; // clobber the version field
        fs::write(&path, &bytes).expect("write");
        let err = read_journal::<u64>(&path).expect_err("version must be refused");
        assert!(matches!(err, JournalError::Version { found: 0x7F, .. }));
        let msg = err.to_string();
        assert!(
            msg.contains("127") && msg.contains(&format!("{SUPPORTED_JOURNAL_VERSIONS:?}")),
            "message must name found vs supported: {msg}"
        );
    }

    #[test]
    fn non_journal_file_is_corrupt() {
        let dir = tmp_dir("journal-corrupt");
        let path = dir.join("j.vcwal");
        fs::write(&path, b"definitely not a journal").expect("write");
        assert!(matches!(
            read_journal::<u64>(&path),
            Err(JournalError::Corrupt { .. })
        ));
    }
}
