//! An injectable storage layer under the journal and snapshot writers.
//!
//! Durability code is exactly the code that must keep working when the
//! filesystem stops cooperating, and that is the one regime `cargo
//! test` never exercises by accident. This module splits the few file
//! operations the writers actually use into a pair of object-safe
//! traits so a fault plane (`vc-chaos`) can wrap the real filesystem
//! and inject `fsync` errors, short/torn writes, and `ENOSPC` at exact
//! byte offsets — deterministically, from a seed.
//!
//! * [`FaultFile`] — one writable file: `write_all`, `sync_data`,
//!   `sync_all`, `truncate`. `std::fs::File` implements it by
//!   delegation.
//! * [`Vfs`] — the namespace operations: create-or-truncate, reopening
//!   a file cut to a length (the journal a recovered fleet continues),
//!   and the atomic rename that publishes a snapshot. [`RealVfs`] is
//!   the passthrough implementation every production path defaults to.
//!
//! The traits deliberately cover only what [`crate::journal`] and
//! [`crate::snapshot`] call: appends, syncs, the snapshot temp-file
//! rename, and the truncates a degraded journal and a resumed one use
//! to cut a torn tail back to its last known-good offset. Reads stay
//! on `std::fs` — recovery wants the real bytes, faults and all.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// One writable file as the journal/snapshot writers see it.
///
/// Implementations may fail any call, and may apply *part* of a write
/// before failing (a torn write) — the writers are built to survive
/// both.
pub trait FaultFile: Send + fmt::Debug {
    /// Append `buf` in its entirety, or fail (possibly after writing a
    /// prefix — the caller treats any error as "file tail unknown").
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush file *data* to stable storage (`fdatasync`).
    fn sync_data(&mut self) -> io::Result<()>;
    /// Flush data and metadata to stable storage (`fsync`).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate to `len` bytes — the degraded journal's way of cutting
    /// a torn tail back to the last fully-written frame boundary.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

impl FaultFile for File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        File::sync_data(self)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        File::sync_all(self)
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // `set_len` does not move the write cursor; without the seek the
        // next append would land past the cut and leave a zero-filled
        // hole that reads back as a bogus frame.
        self.set_len(len)?;
        io::Seek::seek(self, io::SeekFrom::Start(len))?;
        Ok(())
    }
}

/// The filesystem namespace operations the writers use.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Create (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn FaultFile>>;
    /// Open an existing file for writing, cut to `len` bytes, with the
    /// next write landing at `len` — how a recovered journal drops its
    /// torn tail and continues.
    fn open_at(&self, path: &Path, len: u64) -> io::Result<Box<dyn FaultFile>>;
    /// Atomically rename `from` to `to` (the snapshot publish step).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
}

/// The passthrough [`Vfs`]: plain `std::fs`, no faults.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn FaultFile>> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Box::new(file))
    }
    fn open_at(&self, path: &Path, len: u64) -> io::Result<Box<dyn FaultFile>> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        FaultFile::truncate(&mut file, len)?;
        Ok(Box::new(file))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
}

/// A shared handle to the passthrough [`Vfs`] — the default everywhere
/// a `Vfs` is threaded through a config.
pub fn real_vfs() -> Arc<dyn Vfs> {
    Arc::new(RealVfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_vfs_round_trips_and_renames() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-persist")
            .join("vfs-real");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        let vfs = RealVfs;
        let tmp = dir.join("a.tmp");
        let dst = dir.join("a.bin");
        let mut f = vfs.create(&tmp).expect("create");
        f.write_all(b"hello world").expect("write");
        f.truncate(5).expect("truncate");
        f.sync_all().expect("sync");
        drop(f);
        vfs.rename(&tmp, &dst).expect("rename");
        assert_eq!(std::fs::read(&dst).expect("read"), b"hello");
        assert!(!tmp.exists());
        // Reopened at a cut: the tail past it is gone and the next
        // write continues there.
        let mut f = vfs.open_at(&dst, 4).expect("open at");
        f.write_all(b"!").expect("write");
        drop(f);
        assert_eq!(std::fs::read(&dst).expect("read"), b"hell!");
        assert!(vfs.open_at(&dir.join("missing.bin"), 0).is_err());
    }
}
