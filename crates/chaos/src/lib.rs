//! `vc-chaos` — the deterministic fault plane.
//!
//! The fleet only earns its cost/delay numbers if it survives the
//! cloud it runs on: agents flap, disks error, fsyncs stall. This
//! crate injects exactly those failures, **deterministically**:
//!
//! * [`FaultPlan`] — a seeded schedule of agent crash/flap/recover
//!   storms. Every draw comes from a generator seeded from
//!   `(seed, epoch, draw)` — the same reconstructible-randomness
//!   discipline as the orchestrator's WAIT timers — so a plan is a
//!   pure function of its config: journalable, replayable, and
//!   bitwise-identical between a crashed-and-recovered run and its
//!   uncrashed twin.
//! * [`FaultyVfs`] — a [`vc_persist::Vfs`] wrapping the real
//!   filesystem that injects storage faults at **exact byte offsets**:
//!   `fsync` errors ([`StorageFaultKind::FsyncErr`]), short/torn
//!   writes ([`StorageFaultKind::TornWrite`]), and `ENOSPC`
//!   ([`StorageFaultKind::NoSpace`]). The journal under it retries,
//!   then degrades instead of panicking (see
//!   [`vc_persist::journal::Durability`]).
//!
//! Neither half knows about the fleet: the plan emits raw agent
//! indices and virtual times, and the driver (an experiment, a test,
//! an example) maps them onto `fail_agent`/`restore_agent` calls. That
//! keeps the crate at the bottom of the dependency stack — it is the
//! *persistence* layer's fault model, reused by everything above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use vc_persist::vfs::{FaultFile, RealVfs, Vfs};

/// RNG stream selector for fault-plan draws (the orchestrator's WAIT
/// and HOP streams are 0 and 1; re-admission backoff is 2).
const STREAM_FAULT: u64 = 3;

/// The deterministic per-draw generator behind every plan decision:
/// everything identifying the draw is mixed into the seed, so the
/// stream is reconstructible from `(seed, epoch, draw)` alone — no
/// long-lived RNG whose hidden state a crash would lose.
pub fn fault_rng(seed: u64, epoch: u64, draw: u64) -> StdRng {
    let mut x = seed;
    x ^= 0xd1b5_4a32_d192_ed03u64.wrapping_mul(epoch.wrapping_add(1));
    x ^= 0x94d0_49bb_1331_11ebu64.wrapping_mul(draw.wrapping_add(1));
    x ^= 0xbf58_476d_1ce4_e5b9u64.wrapping_mul(STREAM_FAULT.wrapping_add(1));
    StdRng::seed_from_u64(x)
}

/// What a scheduled fault does to the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Crash the agent (driver maps to `Fleet::fail_agent`).
    FailAgent(u32),
    /// Bring the agent back (driver maps to `Fleet::restore_agent`).
    RestoreAgent(u32),
}

/// One scheduled fault at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual time of the fault, µs.
    pub t_us: u64,
    /// The storm epoch that drew this event.
    pub epoch: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// Parameters of an agent crash/flap/recover storm.
#[derive(Debug, Clone)]
pub struct StormConfig {
    /// Seed of every draw.
    pub seed: u64,
    /// Candidate victim agents (raw dense indices).
    pub agents: Vec<u32>,
    /// Virtual start of the storm (s).
    pub start_s: f64,
    /// Epoch length (s): each epoch crashes one victim and restores it
    /// before the epoch ends.
    pub period_s: f64,
    /// Number of epochs.
    pub epochs: u64,
}

/// A seeded, replay-exact schedule of agent faults, sorted by time.
///
/// Each epoch `e` draws (victim, crash offset, downtime) from
/// [`fault_rng`]`(seed, e, draw)` with one draw index per decision;
/// the same `(seed, config)` always yields the same storm. Repeated
/// victims across epochs are what makes a storm a *flap*.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self { events: Vec::new() }
    }

    /// Builds a crash/flap/recover storm from `cfg`.
    pub fn storm(cfg: &StormConfig) -> Self {
        let mut events = Vec::with_capacity(cfg.epochs as usize * 2);
        if cfg.agents.is_empty() {
            return Self { events };
        }
        let period_us = (cfg.period_s.max(1e-6) * 1e6) as u64;
        let start_us = (cfg.start_s.max(0.0) * 1e6) as u64;
        for epoch in 0..cfg.epochs {
            // Draw 0: victim; draw 1: crash offset inside the epoch's
            // first half; draw 2: downtime within the second half, so
            // restore always lands before the next epoch begins.
            let victim = cfg.agents[fault_rng(cfg.seed, epoch, 0).gen_range(0..cfg.agents.len())];
            let crash_frac: f64 = fault_rng(cfg.seed, epoch, 1).gen_range(0.0..0.5);
            let down_frac: f64 = fault_rng(cfg.seed, epoch, 2).gen_range(0.1..0.45);
            let epoch_start = start_us + epoch * period_us;
            let crash_us = epoch_start + (crash_frac * period_us as f64) as u64;
            let restore_us = crash_us + (down_frac * period_us as f64) as u64;
            events.push(FaultEvent {
                t_us: crash_us,
                epoch,
                kind: FaultKind::FailAgent(victim),
            });
            events.push(FaultEvent {
                t_us: restore_us,
                epoch,
                kind: FaultKind::RestoreAgent(victim),
            });
        }
        events.sort_by_key(|e| (e.t_us, e.epoch));
        Self { events }
    }

    /// Every scheduled event, ascending by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events due in the half-open virtual window `[from_us, to_us)`.
    pub fn window(&self, from_us: u64, to_us: u64) -> &[FaultEvent] {
        let lo = self.events.partition_point(|e| e.t_us < from_us);
        let hi = self.events.partition_point(|e| e.t_us < to_us);
        &self.events[lo..hi]
    }

    /// Virtual time of the last scheduled event, µs (0 for an empty plan).
    pub fn end_us(&self) -> u64 {
        self.events.last().map_or(0, |e| e.t_us)
    }
}

/// How an armed storage fault misbehaves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageFaultKind {
    /// `sync_data`/`sync_all` fails `times` consecutive calls (then the
    /// fault is spent). Error: `EIO`.
    FsyncErr {
        /// Consecutive failing sync calls.
        times: u32,
    },
    /// The write covering the armed byte offset tears: bytes up to the
    /// offset reach the file, the rest do not. Error: `EIO`.
    TornWrite,
    /// The write covering the armed byte offset is refused after the
    /// offset: a short write followed by `ENOSPC`.
    NoSpace,
}

/// One storage fault, armed at an exact byte offset of matching files.
#[derive(Debug, Clone)]
pub struct StorageFault {
    /// Substring the file path must contain (e.g. `".vcwal"` to target
    /// journals, a full file name to target one file).
    pub path_contains: String,
    /// The absolute file byte offset that arms the fault: a write
    /// crossing it tears/refuses there; a sync fault arms once the
    /// file has reached it.
    pub at_byte: u64,
    /// What goes wrong.
    pub kind: StorageFaultKind,
}

#[derive(Debug, Default)]
struct FaultLedger {
    pending: Mutex<Vec<StorageFault>>,
    fsync_errors: AtomicU64,
    write_faults: AtomicU64,
}

/// A [`Vfs`] over the real filesystem that injects the scheduled
/// [`StorageFault`]s, byte-exactly. Clone-cheap (shared schedule);
/// faults are consumed as they trigger, and the injection counters
/// tell a test exactly how many fired.
#[derive(Debug, Clone, Default)]
pub struct FaultyVfs {
    ledger: Arc<FaultLedger>,
}

impl FaultyVfs {
    /// A fault-free instance; arm faults with [`inject`](Self::inject).
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms one storage fault.
    pub fn inject(&self, fault: StorageFault) {
        self.ledger
            .pending
            .lock()
            .expect("fault ledger")
            .push(fault);
    }

    /// Faults armed but not yet (fully) triggered.
    pub fn pending(&self) -> usize {
        self.ledger.pending.lock().expect("fault ledger").len()
    }

    /// Injected `fsync` failures so far.
    pub fn fsync_errors(&self) -> u64 {
        self.ledger.fsync_errors.load(Ordering::Relaxed)
    }

    /// Injected write failures (torn writes + `ENOSPC`) so far.
    pub fn write_faults(&self) -> u64 {
        self.ledger.write_faults.load(Ordering::Relaxed)
    }

    /// Puts `inner`, whose next write lands at byte `offset`, under the
    /// schedule: faults keep arming at absolute file offsets.
    fn wrap(&self, inner: Box<dyn FaultFile>, path: &Path, offset: u64) -> Box<dyn FaultFile> {
        Box::new(FaultyFile {
            inner,
            path: path.to_string_lossy().into_owned(),
            offset,
            ledger: Arc::clone(&self.ledger),
        })
    }
}

impl Vfs for FaultyVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn FaultFile>> {
        Ok(self.wrap(RealVfs.create(path)?, path, 0))
    }

    fn open_at(&self, path: &Path, len: u64) -> io::Result<Box<dyn FaultFile>> {
        Ok(self.wrap(RealVfs.open_at(path, len)?, path, len))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        RealVfs.rename(from, to)
    }
}

#[derive(Debug)]
struct FaultyFile {
    inner: Box<dyn FaultFile>,
    path: String,
    /// Where the next write lands: the length the file was opened at
    /// (0 when created) plus every byte written since.
    offset: u64,
    ledger: Arc<FaultLedger>,
}

impl FaultyFile {
    /// Pops the first pending write fault whose armed offset falls
    /// inside `[offset, offset + len)` for this path.
    fn take_write_fault(&self, len: u64) -> Option<StorageFault> {
        let mut pending = self.ledger.pending.lock().expect("fault ledger");
        let idx = pending.iter().position(|f| {
            matches!(
                f.kind,
                StorageFaultKind::TornWrite | StorageFaultKind::NoSpace
            ) && self.path.contains(&f.path_contains)
                && f.at_byte >= self.offset
                && f.at_byte < self.offset + len
        })?;
        Some(pending.remove(idx))
    }

    /// Consumes one armed sync failure for this path, if any.
    fn take_sync_fault(&self) -> bool {
        let mut pending = self.ledger.pending.lock().expect("fault ledger");
        let idx = pending.iter().position(|f| {
            matches!(f.kind, StorageFaultKind::FsyncErr { .. })
                && self.path.contains(&f.path_contains)
                && self.offset >= f.at_byte
        });
        let Some(idx) = idx else { return false };
        if let StorageFaultKind::FsyncErr { times } = &mut pending[idx].kind {
            *times -= 1;
            if *times == 0 {
                pending.remove(idx);
            }
            true
        } else {
            false
        }
    }

    fn faulted_sync(&mut self, all: bool) -> io::Result<()> {
        if self.take_sync_fault() {
            self.ledger.fsync_errors.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::from_raw_os_error(5)); // EIO
        }
        if all {
            self.inner.sync_all()
        } else {
            self.inner.sync_data()
        }
    }
}

impl FaultFile for FaultyFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if let Some(fault) = self.take_write_fault(buf.len() as u64) {
            // Tear byte-exactly: the prefix up to the armed offset
            // reaches the file, the rest never does.
            let keep = (fault.at_byte - self.offset) as usize;
            self.inner.write_all(&buf[..keep])?;
            self.offset += keep as u64;
            self.ledger.write_faults.fetch_add(1, Ordering::Relaxed);
            let errno = match fault.kind {
                StorageFaultKind::NoSpace => 28, // ENOSPC
                _ => 5,                          // EIO
            };
            return Err(io::Error::from_raw_os_error(errno));
        }
        self.inner.write_all(buf)?;
        self.offset += buf.len() as u64;
        Ok(())
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.faulted_sync(false)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.faulted_sync(true)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)?;
        self.offset = self.offset.min(len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use vc_persist::journal::{read_journal, Durability, FsyncPolicy, JournalWriter, RetryPolicy};

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-chaos")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    #[test]
    fn storms_are_pure_functions_of_their_seed() {
        let cfg = StormConfig {
            seed: 7,
            agents: vec![0, 1, 2, 3],
            start_s: 1.0,
            period_s: 2.0,
            epochs: 16,
        };
        let a = FaultPlan::storm(&cfg);
        let b = FaultPlan::storm(&cfg);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 32);
        let c = FaultPlan::storm(&StormConfig { seed: 8, ..cfg });
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn every_crash_restores_before_the_next_epoch() {
        let cfg = StormConfig {
            seed: 42,
            agents: vec![5, 9],
            start_s: 0.0,
            period_s: 1.0,
            epochs: 8,
        };
        let plan = FaultPlan::storm(&cfg);
        for epoch in 0..cfg.epochs {
            let evs: Vec<_> = plan.events().iter().filter(|e| e.epoch == epoch).collect();
            assert_eq!(evs.len(), 2);
            let crash = evs
                .iter()
                .find(|e| matches!(e.kind, FaultKind::FailAgent(_)))
                .expect("crash");
            let restore = evs
                .iter()
                .find(|e| matches!(e.kind, FaultKind::RestoreAgent(_)))
                .expect("restore");
            assert!(crash.t_us < restore.t_us);
            assert!(restore.t_us < (epoch + 1) * 1_000_000);
        }
    }

    #[test]
    fn window_slices_by_virtual_time() {
        let plan = FaultPlan::storm(&StormConfig {
            seed: 1,
            agents: vec![0],
            start_s: 0.0,
            period_s: 1.0,
            epochs: 4,
        });
        let all = plan.events().len();
        assert_eq!(plan.window(0, u64::MAX).len(), all);
        let split = plan.events()[all / 2].t_us;
        assert_eq!(
            plan.window(0, split).len() + plan.window(split, u64::MAX).len(),
            all
        );
    }

    #[test]
    fn fsync_fault_degrades_journal_then_heals_without_loss() {
        let dir = tmp_dir("fsync-degrade");
        let path = dir.join("j.vcwal");
        let vfs = FaultyVfs::new();
        let mut w = JournalWriter::<u64>::create_with(
            &path,
            FsyncPolicy::Always,
            0,
            &vfs,
            RetryPolicy::immediate(3),
        )
        .expect("create");
        // Armed after creation so the header sync stays clean; more
        // consecutive failures than the retry budget: degrade.
        vfs.inject(StorageFault {
            path_contains: ".vcwal".into(),
            at_byte: 8,
            kind: StorageFaultKind::FsyncErr { times: 10 },
        });
        for v in 0..5u64 {
            w.append(&v).expect("append is always accepted");
        }
        assert_eq!(w.durability(), Durability::Degraded);
        assert!(vfs.fsync_errors() >= 3);
        // The fault burns out; healing re-syncs with nothing lost.
        while vfs.pending() > 0 {
            let _ = w.try_heal();
        }
        assert!(w.try_heal());
        assert_eq!(w.durability(), Durability::Synchronous);
        let (records, tail) = read_journal::<u64>(&path).expect("read");
        assert_eq!(records.len(), 5);
        assert!(!tail.torn);
    }

    #[test]
    fn torn_write_is_cut_back_and_rewritten_on_heal() {
        let dir = tmp_dir("torn-heal");
        let path = dir.join("j.vcwal");
        let vfs = FaultyVfs::new();
        // Tear inside the third frame's bytes (header 8 + 2 frames of
        // 24 + a few bytes into the next).
        vfs.inject(StorageFault {
            path_contains: ".vcwal".into(),
            at_byte: 8 + 2 * 24 + 5,
            kind: StorageFaultKind::TornWrite,
        });
        let mut w = JournalWriter::<u64>::create_with(
            &path,
            FsyncPolicy::Manual,
            0,
            &vfs,
            RetryPolicy::immediate(1),
        )
        .expect("create");
        for v in 0..4u64 {
            w.append(&v).expect("append");
        }
        w.commit().expect("commit degrades, not errors");
        assert_eq!(w.durability(), Durability::Degraded);
        assert_eq!(vfs.write_faults(), 1);
        // Crash now: the torn tail reads as a clean (empty) prefix.
        let (records, _) = read_journal::<u64>(&path).expect("read");
        assert!(records.len() < 4);
        // Heal: truncate the tear, rewrite, sync — all four records land.
        assert!(w.try_heal());
        assert_eq!(w.durability(), Durability::Synchronous);
        let (records, tail) = read_journal::<u64>(&path).expect("read");
        assert_eq!(records.len(), 4);
        assert!(!tail.torn);
    }

    #[test]
    fn a_reopened_file_arms_faults_at_absolute_offsets() {
        let dir = tmp_dir("open-at");
        let path = dir.join("f.bin");
        std::fs::write(&path, b"0123456789").expect("seed file");
        let vfs = FaultyVfs::new();
        vfs.inject(StorageFault {
            path_contains: "f.bin".into(),
            at_byte: 8,
            kind: StorageFaultKind::TornWrite,
        });
        // Cut at 6: the write starts at byte 6 and tears at byte 8.
        let mut f = vfs.open_at(&path, 6).expect("open at");
        f.write_all(b"abcd").expect_err("must tear");
        assert_eq!(std::fs::read(&path).expect("read"), b"012345ab");
        vfs.inject(StorageFault {
            path_contains: "f.bin".into(),
            at_byte: 8,
            kind: StorageFaultKind::FsyncErr { times: 1 },
        });
        assert!(f.sync_data().is_err(), "the sync fault armed at byte 8");
        assert_eq!(vfs.fsync_errors(), 1);
    }

    #[test]
    fn enospc_reports_the_right_errno() {
        let dir = tmp_dir("enospc");
        let path = dir.join("f.bin");
        let vfs = FaultyVfs::new();
        vfs.inject(StorageFault {
            path_contains: "f.bin".into(),
            at_byte: 3,
            kind: StorageFaultKind::NoSpace,
        });
        let mut f = vfs.create(&path).expect("create");
        let err = f.write_all(b"hello").expect_err("must refuse");
        assert_eq!(err.raw_os_error(), Some(28));
        assert_eq!(std::fs::read(&path).expect("read"), b"hel");
    }
}
