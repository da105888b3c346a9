//! Snapshot files and the on-disk store layout.
//!
//! A persistence directory holds two kinds of files, both named by the
//! event sequence numbers they cover (zero-padded so lexicographic
//! order is numeric order):
//!
//! ```text
//! snapshot-00000000000000000042.vcsnap   state after applying seq ≤ 42
//! journal-00000000000000000043.vcwal     records with seq ≥ 43
//! ```
//!
//! ## Snapshot format
//!
//! ```text
//! "VCSN" ver:u16 rsv:u16 len:u32 crc:u32 payload
//! payload = seq:u64 ++ state
//! ```
//!
//! Snapshots are written **atomically**: the bytes go to a temporary
//! file which is `fsync`ed and then renamed into place (rename is
//! atomic on POSIX filesystems), and the directory is `fsync`ed so the
//! new name itself is durable. A crash mid-write leaves at worst a
//! stale `.tmp` file, never a half-visible snapshot.
//!
//! ## Compaction
//!
//! A snapshot at seq `N` supersedes every journal record with
//! seq ≤ `N` and every older snapshot. [`compact`] deletes those,
//! bounding the store at one snapshot plus the journal tail written
//! since it.

use crate::codec::{decode_exact, CodecError, Decode, Encode};
use crate::crc::crc32;
use crate::vfs::{RealVfs, Vfs};
use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

/// Snapshot file magic.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"VCSN";
/// Snapshot format version (kept in lock-step with the journal: a v6
/// snapshot's tail journal replays under v6 semantics). v6 snapshots
/// carry the interleaved session/agent growth log, the per-agent
/// drained flags, and the region table (elastic capacity); v5 added
/// the re-admission queue (entries, per-session backoff epochs) and
/// the displacement/readmission counters; v4 added the admission
/// tier/refusal counters and the worker pool's WAIT-timer state; v3
/// added the online-registered session definitions, which v2 lacked.
pub const SNAPSHOT_VERSION: u16 = 6;
/// The snapshot versions this build can load; decode is gated on this
/// explicit set (see the journal's twin constant).
pub const SUPPORTED_SNAPSHOT_VERSIONS: &[u16] = &[SNAPSHOT_VERSION];

/// Header length: magic + version + reserved + payload length + CRC.
const HEADER_LEN: usize = 16;
const SNAPSHOT_PREFIX: &str = "snapshot-";
const SNAPSHOT_SUFFIX: &str = ".vcsnap";
const JOURNAL_PREFIX: &str = "journal-";
const JOURNAL_SUFFIX: &str = ".vcwal";

/// Why a snapshot failed to load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem error.
    Io(io::Error),
    /// Not a snapshot, truncated, or failed its CRC.
    Corrupt(String),
    /// Written by a format version outside
    /// [`SUPPORTED_SNAPSHOT_VERSIONS`].
    Version {
        /// The version found in the file header.
        found: u16,
        /// The versions this build can load.
        supported: &'static [u16],
    },
    /// CRC-valid payload failed to decode.
    Codec(CodecError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "snapshot I/O error: {e}"),
            Self::Corrupt(reason) => write!(f, "snapshot corrupt: {reason}"),
            Self::Version { found, supported } => write!(
                f,
                "snapshot format version {found} unsupported (this build supports {supported:?})"
            ),
            Self::Codec(e) => write!(f, "snapshot payload undecodable: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// The canonical snapshot path for sequence number `seq`.
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("{SNAPSHOT_PREFIX}{seq:020}{SNAPSHOT_SUFFIX}"))
}

/// The canonical journal path for a journal starting at `first_seq`.
pub fn journal_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("{JOURNAL_PREFIX}{first_seq:020}{JOURNAL_SUFFIX}"))
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// Syncs the directory `dir`, making the names created or renamed in
/// it durable (a snapshot's rename, a new journal's creation).
///
/// # Errors
///
/// None today: some filesystems refuse to sync a directory handle,
/// which only weakens durability of the *names*, not file contents, so
/// that is ignored.
pub fn fsync_dir(dir: &Path) -> io::Result<()> {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Writes state covering all events with sequence number ≤ `seq`
/// atomically, returning the snapshot path.
///
/// # Errors
///
/// Any filesystem error.
pub fn write_snapshot<S: Encode>(dir: &Path, seq: u64, state: &S) -> io::Result<PathBuf> {
    write_snapshot_with(dir, seq, state, &RealVfs)
}

/// [`write_snapshot`] through an explicit [`Vfs`] so storage faults
/// (failed sync, torn write, refused rename) can be injected into the
/// snapshot path. A faulted write fails cleanly here — at worst a stale
/// `.tmp` is left behind, never a half-visible snapshot — and the
/// caller decides whether that degrades anything (the journal is the
/// durability path; snapshots only bound replay length).
///
/// # Errors
///
/// Any filesystem error.
pub fn write_snapshot_with<S: Encode>(
    dir: &Path,
    seq: u64,
    state: &S,
    vfs: &dyn Vfs,
) -> io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    // The payload is encoded behind its header's reserved bytes, and the
    // length and CRC patched in after: one buffer, no second copy.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&[0; 10]); // reserved u16, then len and crc
    (seq, StateRef(state)).encode(&mut bytes);
    let payload = &bytes[HEADER_LEN..];
    let len = u32::try_from(payload.len()).expect("snapshot under 4 GiB");
    let crc = crc32(payload);
    bytes[8..12].copy_from_slice(&len.to_le_bytes());
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    let tmp = dir.join(format!("{SNAPSHOT_PREFIX}{seq:020}.tmp"));
    let path = snapshot_path(dir, seq);
    let mut file = vfs.create(&tmp)?;
    file.write_all(&bytes)?;
    file.sync_all()?;
    drop(file);
    vfs.rename(&tmp, &path)?;
    fsync_dir(dir)?;
    Ok(path)
}

/// Loads one snapshot file, returning `(seq, state)`.
///
/// # Errors
///
/// See [`SnapshotError`].
pub fn load_snapshot<S: Decode>(path: &Path) -> Result<(u64, S), SnapshotError> {
    let bytes = fs::read(path)?;
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Corrupt("shorter than the header".into()));
    }
    if bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt("bad magic".into()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if !SUPPORTED_SNAPSHOT_VERSIONS.contains(&version) {
        return Err(SnapshotError::Version {
            found: version,
            supported: SUPPORTED_SNAPSHOT_VERSIONS,
        });
    }
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    let payload = bytes
        .get(HEADER_LEN..HEADER_LEN + len)
        .ok_or_else(|| SnapshotError::Corrupt("truncated payload".into()))?;
    if crc32(payload) != crc {
        return Err(SnapshotError::Corrupt("CRC mismatch".into()));
    }
    decode_exact::<(u64, S)>(payload).map_err(SnapshotError::Codec)
}

/// Finds and loads the newest snapshot that validates, skipping
/// corrupt ones (a crash can tear at most the in-flight `.tmp`, but
/// defense in depth costs one extra load attempt). Returns `None` for
/// an empty or snapshot-less directory.
///
/// # Errors
///
/// Only filesystem errors; corrupt snapshots are skipped, not fatal.
pub fn latest_snapshot<S: Decode>(dir: &Path) -> Result<Option<(u64, S)>, SnapshotError> {
    let mut seqs = list_seqs(dir, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX)?;
    seqs.sort_unstable_by(|a, b| b.cmp(a));
    for seq in seqs {
        if let Ok((file_seq, state)) = load_snapshot::<S>(&snapshot_path(dir, seq)) {
            return Ok(Some((file_seq, state)));
        }
    }
    Ok(None)
}

/// All journal files of `dir` as `(first_seq, path)`, ascending.
///
/// # Errors
///
/// Any filesystem error.
pub fn journal_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, io::Error> {
    let mut seqs = list_seqs(dir, JOURNAL_PREFIX, JOURNAL_SUFFIX).map_err(io_of)?;
    seqs.sort_unstable();
    Ok(seqs
        .into_iter()
        .map(|s| (s, journal_path(dir, s)))
        .collect())
}

fn io_of(e: SnapshotError) -> io::Error {
    match e {
        SnapshotError::Io(e) => e,
        other => io::Error::other(other.to_string()),
    }
}

fn list_seqs(dir: &Path, prefix: &str, suffix: &str) -> Result<Vec<u64>, SnapshotError> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e.into()),
    };
    for entry in entries {
        let entry = entry?;
        if let Some(seq) = entry
            .file_name()
            .to_str()
            .and_then(|n| parse_seq(n, prefix, suffix))
        {
            out.push(seq);
        }
    }
    Ok(out)
}

/// Deletes everything superseded by the snapshot at `snapshot_seq`:
/// older snapshots, journal files starting at or before `snapshot_seq`
/// (their records all have seq ≤ `snapshot_seq` under the
/// rotate-on-checkpoint discipline), and stale `.tmp` files. Returns
/// the number of files removed.
///
/// # Errors
///
/// Any filesystem error.
pub fn compact(dir: &Path, snapshot_seq: u64) -> io::Result<usize> {
    let mut removed = 0;
    for seq in list_seqs(dir, SNAPSHOT_PREFIX, SNAPSHOT_SUFFIX).map_err(io_of)? {
        if seq < snapshot_seq {
            fs::remove_file(snapshot_path(dir, seq))?;
            removed += 1;
        }
    }
    for seq in list_seqs(dir, JOURNAL_PREFIX, JOURNAL_SUFFIX).map_err(io_of)? {
        if seq <= snapshot_seq {
            fs::remove_file(journal_path(dir, seq))?;
            removed += 1;
        }
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry
            .file_name()
            .to_str()
            .is_some_and(|n| n.starts_with(SNAPSHOT_PREFIX) && n.ends_with(".tmp"))
        {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    fsync_dir(dir)?;
    Ok(removed)
}

/// Encode-by-reference adapter so `(seq, state)` can be encoded
/// without cloning the state.
struct StateRef<'a, S: Encode>(&'a S);

impl<S: Encode> Encode for StateRef<'_, S> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-persist")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn snapshot_round_trip() {
        let dir = tmp_dir("snap-round-trip");
        let state = vec![(3u32, 1.25f64), (9, -0.0)];
        write_snapshot(&dir, 42, &state).expect("write");
        let (seq, back): (u64, Vec<(u32, f64)>) =
            load_snapshot(&snapshot_path(&dir, 42)).expect("load");
        assert_eq!(seq, 42);
        assert_eq!(back, state);
    }

    /// The one-buffer writer lays down exactly the bytes of the
    /// header-then-payload construction it replaced.
    #[test]
    fn snapshot_file_is_header_then_payload() {
        let dir = tmp_dir("snap-bytes");
        let state = vec![(7u32, 2.5f64); 300];
        let path = write_snapshot(&dir, 9, &state).expect("write");
        let payload = crate::codec::encode_to_vec(&(9u64, state));
        let mut expected = Vec::new();
        expected.extend_from_slice(&SNAPSHOT_MAGIC);
        expected.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        expected.extend_from_slice(&0u16.to_le_bytes());
        expected.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        expected.extend_from_slice(&crc32(&payload).to_le_bytes());
        expected.extend_from_slice(&payload);
        assert_eq!(fs::read(path).expect("read"), expected);
    }

    #[test]
    fn latest_snapshot_skips_corrupt_files() {
        let dir = tmp_dir("snap-latest");
        write_snapshot(&dir, 5, &vec![1u32]).expect("write");
        write_snapshot(&dir, 9, &vec![2u32]).expect("write");
        // Corrupt the newest: recovery must fall back to seq 5.
        let newest = snapshot_path(&dir, 9);
        let mut bytes = fs::read(&newest).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&newest, &bytes).expect("write");
        let (seq, state): (u64, Vec<u32>) =
            latest_snapshot(&dir).expect("scan").expect("found one");
        assert_eq!(seq, 5);
        assert_eq!(state, vec![1]);
    }

    #[test]
    fn empty_dir_has_no_snapshot() {
        let dir = tmp_dir("snap-empty");
        assert!(latest_snapshot::<Vec<u32>>(&dir).expect("scan").is_none());
        let missing = dir.join("nowhere");
        assert!(latest_snapshot::<Vec<u32>>(&missing)
            .expect("missing dir is empty")
            .is_none());
    }

    #[test]
    fn compact_removes_superseded_files() {
        let dir = tmp_dir("snap-compact");
        write_snapshot(&dir, 3, &vec![1u32]).expect("write");
        write_snapshot(&dir, 8, &vec![2u32]).expect("write");
        fs::write(journal_path(&dir, 1), b"x").expect("write");
        fs::write(journal_path(&dir, 4), b"x").expect("write");
        fs::write(journal_path(&dir, 9), b"x").expect("write");
        fs::write(dir.join("snapshot-00000000000000000099.tmp"), b"x").expect("write");
        let removed = compact(&dir, 8).expect("compact");
        assert_eq!(removed, 4); // snapshot-3, journal-1, journal-4, tmp
        assert!(snapshot_path(&dir, 8).exists());
        assert!(journal_path(&dir, 9).exists());
        assert!(!journal_path(&dir, 4).exists());
    }

    #[test]
    fn version_mismatch_is_detected() {
        let dir = tmp_dir("snap-version");
        write_snapshot(&dir, 1, &vec![1u32]).expect("write");
        let path = snapshot_path(&dir, 1);
        let mut bytes = fs::read(&path).expect("read");
        bytes[4] = 0xFF; // clobber the version field
        fs::write(&path, &bytes).expect("write");
        let err = load_snapshot::<Vec<u32>>(&path).expect_err("version must be refused");
        assert!(matches!(err, SnapshotError::Version { found: 0xFF, .. }));
        // The message names both sides of the mismatch.
        let msg = err.to_string();
        assert!(msg.contains("255") && msg.contains(&format!("{SUPPORTED_SNAPSHOT_VERSIONS:?}")));
    }
}
