//! Fleet durability: the journaled event types, the durable snapshot
//! state, and the crash-recovery path — `vc-persist`'s generic codec,
//! WAL, and snapshot machinery specialized to the control plane.
//!
//! ## What is durable
//!
//! The control plane's entire mutable state is the live sessions'
//! slots (their placements; the slot map's keys are the live set) plus
//! the counters; [`DurableFleetState`] captures exactly that. A slot's
//! load is its ledger hold, so the snapshot's `holdings` are written
//! from the slots ([`SessionHold::from_load`], ascending by session),
//! and recovery books the ledger from the re-evaluated slots and
//! requires the decoded `holdings` to say the same. Between
//! snapshots, every state-changing mutation appends one [`FleetOp`] to
//! the write-ahead journal *while the mutated slot's lock (or the
//! FREEZE write lock) is held*, so per-session journal order equals
//! per-session commit order and the journal's sequence numbers are a
//! valid linearization: snapshot + journal tail ⇒ the pre-crash fleet,
//! bit for bit (assignments and holds are exact; objectives re-evaluate
//! to identical `f64`s).
//!
//! Counter-only stays are the one exception: they are batched into
//! periodic [`FleetOp::StayBatch`] counter-delta records (one durable
//! record per no-op hop dominated idle-fleet journal traffic). Batches
//! flush at the configured threshold and at every durability boundary
//! — [`Fleet::commit_journal`], [`Fleet::checkpoint`],
//! [`Fleet::durable_state`] — so captured counters always recover
//! exactly; only a *hard* crash between boundaries can lose up to
//! `stay_batch − 1` stay *counts* (never any state).
//!
//! ## Replay semantics
//!
//! Deterministic effects are re-derived, not logged: `FailAgent`
//! replays by re-running the (deterministic) evacuation. Admission is
//! the opposite: since format v4 the decision is **search-dependent**
//! (the engine searches against live residuals, and a recovered build
//! might be configured differently), so an `Admit` carries the chosen
//! placement *and* its search tier/repair effort — replay hands the
//! decoded record to the same `Fleet::install_admitted` the live path
//! calls once it has decided, which installs the journaled placement
//! bit-for-bit and counts it, never re-running the search. `Reject`
//! carries its typed refusal reason and replays through the live path's
//! `Fleet::count_refusal`, for the same counter-exactness. `Hop`
//! carries the decision plus its old assignment, letting replay detect
//! divergence (a mismatched old agent means the journal and snapshot
//! disagree — corruption, not a tolerable tail). `Timers` records (and
//! the v4 snapshot's timer field) carry the worker pool's
//! reconstructible WAIT-countdown state, so a recovered fleet resumes
//! its timers instead of re-drawing them.
//!
//! ## Recovery
//!
//! [`Fleet::recover`] loads the newest valid snapshot, replays journal
//! records with larger sequence numbers (tolerating a torn *final*
//! record — the expected crash artifact), re-audits ledger
//! conservation, and re-checkpoints so the torn tail is discarded and
//! the store is compact before the fleet goes live again.

pub use crate::fleet::CounterSnapshot;
use crate::fleet::{self, Accepted, AdmitPath, Fleet, FleetConfig, FleetCounters, GrowthRecord};
use crate::ledger::{AgentHold, SessionHold};
use crate::readmit::ReadmitEntry;
use crate::workers::{ReoptPool, TimerEntry};
use parking_lot::Mutex;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use vc_algo::admission::{AdmissionFailure, AdmissionTier};
use vc_core::neighborhood::Neighborhood;
use vc_core::{Decision, TaskId, UapProblem};
use vc_model::{AgentDef, AgentId, SessionDef, SessionId, UserId};
use vc_obs::{TraceKind, FLEET_SCOPE};
use vc_persist::journal::{read_journal, FsyncPolicy, JournalError, JournalWriter, RetryPolicy};
use vc_persist::snapshot::{
    compact, journal_files, journal_path, latest_snapshot, write_snapshot_with, SnapshotError,
};
use vc_persist::vfs::{real_vfs, Vfs};
use vc_persist::wire;

/// One journaled fleet mutation. Every variant is applied under the
/// FREEZE lock in both live operation and replay. Its wire form is the
/// `wire!` declaration below.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOp {
    /// A session was admitted with this exact placement. Admission is
    /// search-dependent (format v4): replay installs the journaled
    /// placement directly and re-increments the tier/repair counters —
    /// it never re-runs the search.
    Admit {
        /// The admitted session.
        session: SessionId,
        /// Chosen user placement (instance order).
        users: Vec<(UserId, AgentId)>,
        /// Chosen transcoding-task placement (instance order).
        tasks: Vec<(TaskId, AgentId)>,
        /// The search tier that produced the placement.
        tier: AdmissionTier,
        /// Violation-driven repair moves the search applied.
        repair_steps: u64,
    },
    /// An admission attempt was refused (counter-only; no state change).
    Reject {
        /// The refused session.
        session: SessionId,
        /// Why it was refused (drives the per-reason counters).
        reason: RefusalReason,
    },
    /// A live session departed.
    Depart {
        /// The departed session.
        session: SessionId,
    },
    /// An agent failed; replay re-runs the deterministic evacuation.
    FailAgent {
        /// The failed agent.
        agent: AgentId,
    },
    /// A failed agent came back.
    RestoreAgent {
        /// The restored agent.
        agent: AgentId,
    },
    /// An Alg. 1 HOP migrated one decision.
    Hop {
        /// The hopping session.
        session: SessionId,
        /// The applied decision (target = new assignment).
        decision: Decision,
        /// The decision target's assignment *before* the hop — lets
        /// replay detect journal/snapshot divergence.
        old_agent: AgentId,
    },
    /// `count` HOPs stayed put since the last flush (counter-delta; no
    /// state change). Order-independent under replay.
    StayBatch {
        /// Number of stays in the batch.
        count: u64,
    },
    /// A never-before-seen conference was registered online (format v3).
    /// Replay re-registers the definition and checks the assigned id —
    /// a mismatch means the journal and snapshot disagree.
    RegisterSession {
        /// The id the registration was assigned.
        session: SessionId,
        /// The full conference definition (users, demands, delay
        /// columns) — everything needed to regrow the universe.
        def: SessionDef,
    },
    /// The worker pool's WAIT-timer state at a durability boundary
    /// (format v4): one entry per live logical worker. Replay installs
    /// the newest record so recovery hands the caller exactly the
    /// countdowns the crashed pool had pending.
    Timers {
        /// Live worker timers, ascending by session.
        entries: Vec<TimerEntry>,
    },
    /// A displaced/refused session entered the re-admission queue
    /// (format v5). The record carries the entry's *entire* state —
    /// four integers — so replay installs it verbatim; the backoff
    /// schedule beyond `due_us` is re-derivable from
    /// [`crate::readmit::backoff_us`]'s pure recipe.
    ReadmitEnqueue {
        /// The queued session.
        session: SessionId,
        /// Displacement epoch (per-session backoff stream selector).
        epoch: u64,
        /// Attempts already spent in this epoch.
        attempt: u32,
        /// Virtual time (µs) of the next admission attempt.
        due_us: u64,
    },
    /// A session left the re-admission queue without being admitted —
    /// queue overflow or retry-budget exhaustion (format v5). Replay
    /// removes the entry (if present; overflow drops never installed
    /// one) and counts the drop.
    ReadmitDrop {
        /// The dropped session.
        session: SessionId,
    },
    /// A never-before-seen agent joined the fleet online (format v6).
    /// Replay re-registers the definition (growing the problem, every
    /// live slot's load vector, and the ledger) and checks the assigned id —
    /// a mismatch means the journal and snapshot disagree.
    RegisterAgent {
        /// The id the registration was assigned.
        agent: AgentId,
        /// The full agent definition (spec, delay row/column) —
        /// everything needed to regrow the agent pool.
        def: AgentDef,
        /// The ledger region the agent joined.
        region: String,
    },
    /// An agent was drained — planned evacuation (format v6). Replay
    /// re-runs the deterministic evacuation exactly like `FailAgent`
    /// and marks the agent permanently drained.
    DrainAgent {
        /// The drained agent.
        agent: AgentId,
    },
}

/// Why an admission attempt was refused — the journaled shape of
/// `AdmitError`, and the one place a refusal's counter and lifecycle-
/// trace code are decided (live and under replay alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The session was already live.
    AlreadyLive,
    /// No candidate agent could carry a user's last mile.
    UserFit,
    /// No agent with a free slot could take a transcoding group.
    TaskFit,
    /// The fully placed session failed the global check.
    GlobalCheck,
}

impl From<AdmissionFailure> for RefusalReason {
    fn from(stage: AdmissionFailure) -> Self {
        match stage {
            AdmissionFailure::UserFit => Self::UserFit,
            AdmissionFailure::TaskFit => Self::TaskFit,
            AdmissionFailure::GlobalCheck => Self::GlobalCheck,
        }
    }
}

impl RefusalReason {
    /// The per-stage counter this refusal moves, next to `rejected`
    /// (an already-live refusal ran no search and has none).
    pub(crate) fn counter(self, counters: &FleetCounters) -> Option<&AtomicUsize> {
        match self {
            Self::AlreadyLive => None,
            Self::UserFit => Some(&counters.refused_user_fit),
            Self::TaskFit => Some(&counters.refused_task_fit),
            Self::GlobalCheck => Some(&counters.refused_global),
        }
    }

    /// Payload of the `TraceKind::Refused` lifecycle event: the search
    /// stages are 0–2, already-live is 5 (3 and 4 belonged to the two
    /// retired reasons and stay unused).
    pub(crate) fn trace_code(self) -> u64 {
        match self {
            Self::UserFit => 0,
            Self::TaskFit => 1,
            Self::GlobalCheck => 2,
            Self::AlreadyLive => 5,
        }
    }
}

// Tags 4 and 5 were the ledger-refusal and delay-bound reasons of the
// retired ranked-walk admission mode: reserved, never reused.
wire! { enum RefusalReason {
    0 => AlreadyLive,
    1 => UserFit,
    2 => TaskFit,
    3 => GlobalCheck,
} }

// `AdmissionTier` is `vc-algo`'s and the codec traits are `vc-persist`'s,
// so its tag table is a module of functions and `Admit` carries it `via`.
wire! { mod tier_wire for enum AdmissionTier {
    0 => Enumeration,
    1 => Repair,
    2 => RankedFallback,
} }

// Tag 6 was the per-stay `Stay` record, never written by a format-v6
// fleet (stays ride `StayBatch`, also at `stay_batch = 1`): reserved,
// never reused.
wire! { enum FleetOp {
    0 => Admit { session, users, tasks, tier via tier_wire, repair_steps },
    1 => Reject { session, reason },
    2 => Depart { session },
    3 => FailAgent { agent },
    4 => RestoreAgent { agent },
    5 => Hop { session, decision, old_agent },
    7 => StayBatch { count },
    8 => RegisterSession { session, def },
    9 => Timers { entries },
    10 => ReadmitEnqueue { session, epoch, attempt, due_us },
    11 => ReadmitDrop { session },
    12 => RegisterAgent { agent, def, region },
    13 => DrainAgent { agent },
} }

wire! { struct TimerEntry { session, due_us, epoch, draws, active } }

wire! { enum GrowthRecord {
    0 => Session(def),
    1 => Agent(def, region),
} }

wire! { struct ReadmitEntry { session, epoch, attempt, due_us } }

wire! { struct AgentHold { agent, download_mbps, upload_mbps, transcode_units } }

wire! { struct SessionHold { holds } }

/// The fleet's complete control-plane state: everything a crashed
/// orchestrator needs to resume mid-fleet. Format v6: carries the
/// *interleaved* session/agent growth log (sessions and agents
/// registered online since construction), so recovery can regrow the
/// universe from the seed problem — in the original order, which
/// matters because a session's delay rows depend on the agent count at
/// its registration time — before installing placements.
#[derive(Debug, Clone, PartialEq)]
pub struct DurableFleetState {
    /// Sessions and agents registered online, in registration order
    /// (the universe beyond the seed problem). Applied first on
    /// restore.
    pub growth: Vec<GrowthRecord>,
    /// `λ`: user → agent, instance order. Entries of sessions that are
    /// not live read agent 0; a snapshot written by an older build may
    /// carry stale values there, which loading ignores.
    pub user_agents: Vec<AgentId>,
    /// `γ`: task → agent, instance order; entries of sessions that are
    /// not live as in `user_agents`.
    pub task_agents: Vec<AgentId>,
    /// Live-session mask, instance order: which sessions' entries of
    /// `user_agents`/`task_agents` are state.
    pub active: Vec<bool>,
    /// Agent availability, instance order.
    pub available: Vec<bool>,
    /// Agent drained flags, instance order (format v6). A drained
    /// agent is permanently out: restore refuses it.
    pub drained: Vec<bool>,
    /// Region name table, region-id order (format v6). Index 0 is the
    /// default region.
    pub regions: Vec<String>,
    /// Per-agent region ids, instance order (format v6). Indices into
    /// `regions`.
    pub agent_regions: Vec<u32>,
    /// Ledger holdings, ascending by session id: every live session's
    /// [`SessionHold::from_load`] of its slot's load. Recovery
    /// re-evaluates the loads and refuses a snapshot whose holdings
    /// differ from them.
    pub holdings: Vec<(SessionId, SessionHold)>,
    /// Control-plane counters.
    pub counters: CounterSnapshot,
    /// Worker-pool WAIT timers at the last durability boundary that
    /// recorded them (format v4; empty when the fleet runs without a
    /// pool or never journaled timers). Recovery hands these back so
    /// the pool resumes countdowns instead of re-drawing them.
    pub timers: Vec<TimerEntry>,
    /// Re-admission queue entries, ascending by session (format v5).
    pub readmit: Vec<ReadmitEntry>,
    /// Per-session displacement-epoch watermarks, ascending by session
    /// (format v5). Kept beyond the queued entries so a session's next
    /// displacement draws a fresh backoff stream even across a
    /// checkpoint.
    pub readmit_epochs: Vec<(SessionId, u64)>,
}

wire! { struct DurableFleetState {
    growth,
    user_agents,
    task_agents,
    active,
    available,
    drained,
    regions,
    agent_regions,
    holdings,
    counters,
    timers,
    readmit,
    readmit_epochs,
} }

/// Where and how durably the fleet persists.
#[derive(Debug, Clone)]
pub struct PersistConfig {
    /// The persistence directory (created if missing).
    pub dir: PathBuf,
    /// Journal fsync policy. `Always` never loses an acknowledged
    /// event; `Batch`/`Manual` trade the unsynced tail for throughput.
    pub fsync: FsyncPolicy,
    /// Counter-only stays accumulate and flush as one `StayBatch`
    /// record every `stay_batch` stays (and at every durability
    /// boundary). `1` writes one `StayBatch { count: 1 }` per stay;
    /// larger values cut idle-fleet journal traffic proportionally at
    /// the cost of up to `stay_batch − 1` stay *counts* (never state)
    /// on a hard crash between boundaries.
    pub stay_batch: usize,
}

/// Default stay-batch size (see [`PersistConfig::stay_batch`]).
pub const DEFAULT_STAY_BATCH: usize = 64;

impl PersistConfig {
    /// `Always`-fsync persistence in `dir` with the default stay batch.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            stay_batch: DEFAULT_STAY_BATCH,
        }
    }
}

/// The attached journal sink (one per persistent fleet). Locked
/// *after* the FREEZE/slot locks, never before — the same order
/// everywhere, so the set cannot deadlock.
#[derive(Debug)]
pub struct FleetPersistence {
    pub(crate) dir: PathBuf,
    pub(crate) fsync: FsyncPolicy,
    pub(crate) stay_batch: usize,
    /// The storage layer under every journal/snapshot write — the real
    /// filesystem in production, a `vc-chaos` fault plane under test.
    pub(crate) vfs: Arc<dyn Vfs>,
    /// Fsync retry/degrade policy handed to each rotated journal.
    pub(crate) retry: RetryPolicy,
    pub(crate) journal: Mutex<JournalWriter<FleetOp>>,
    /// Exclusive advisory lock on `dir/LOCK`, held for the fleet's
    /// lifetime so two processes cannot write the same store (the
    /// second `with_persistence` would otherwise wipe the first's
    /// files out from under it). The OS releases it on process death,
    /// so a crash never leaves the store unrecoverable.
    pub(crate) _lock: std::fs::File,
}

/// Takes the exclusive store lock, refusing if another live fleet
/// holds it.
fn acquire_store_lock(dir: &Path) -> Result<std::fs::File, PersistError> {
    let lock = std::fs::OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join("LOCK"))?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(std::fs::TryLockError::WouldBlock) => Err(PersistError::Locked(dir.to_path_buf())),
        Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
    }
}

/// Why persistence or recovery failed.
#[derive(Debug)]
pub enum PersistError {
    /// Filesystem error.
    Io(io::Error),
    /// Journal-level failure (corruption, version mismatch).
    Journal(JournalError),
    /// Snapshot-level failure.
    Snapshot(SnapshotError),
    /// The snapshot does not fit the given problem (wrong instance).
    Mismatch(String),
    /// Journal replay diverged from the snapshot (gap, refused
    /// admission, stale hop) — corruption beyond a torn tail.
    Replay(String),
    /// The recovered fleet failed the ledger-conservation audit.
    Audit(Vec<String>),
    /// The fleet has no persistence attached.
    NotAttached,
    /// The store directory holds no snapshot at all. Every valid store
    /// has one ([`Fleet::with_persistence`] writes the genesis snapshot
    /// before the first event), so this is a wrong path or lost data —
    /// going live on a silently-fresh fleet would drop every
    /// reservation the operator expected to recover.
    NoStore(PathBuf),
    /// Another live fleet holds the store's exclusive lock — a second
    /// writer would corrupt it.
    Locked(PathBuf),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "persistence I/O error: {e}"),
            Self::Journal(e) => write!(f, "{e}"),
            Self::Snapshot(e) => write!(f, "{e}"),
            Self::Mismatch(m) => write!(f, "snapshot/problem mismatch: {m}"),
            Self::Replay(m) => write!(f, "journal replay failed: {m}"),
            Self::Audit(problems) => {
                write!(f, "recovered fleet failed its audit: {problems:?}")
            }
            Self::NotAttached => write!(f, "fleet has no persistence attached"),
            Self::NoStore(dir) => {
                write!(f, "no snapshot found in {} — not a store", dir.display())
            }
            Self::Locked(dir) => {
                write!(f, "store {} is locked by another fleet", dir.display())
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<JournalError> for PersistError {
    fn from(e: JournalError) -> Self {
        Self::Journal(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// What [`Fleet::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Sequence number of the snapshot recovery started from (0 =
    /// genesis / no snapshot).
    pub snapshot_seq: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: usize,
    /// Whether the journal ended in a torn record (discarded).
    pub torn_tail: bool,
    /// The last event sequence number in the recovered state.
    pub last_seq: u64,
    /// The newest journaled worker-pool timer state (empty if none was
    /// ever recorded). Feed into `ReoptPool::restore_timers` so the
    /// recovered fleet's WAIT countdowns resume exactly.
    pub timers: Vec<TimerEntry>,
}

/// Captures the durable state from the slots. Caller holds the FREEZE
/// lock (passing its universe in) — write for a live fleet, read for a
/// freshly-built one no other thread can see.
fn capture(fleet: &Fleet, u: &fleet::Universe) -> DurableFleetState {
    let (user_agents, task_agents, active) = fleet.global_placements_locked(u);
    DurableFleetState {
        growth: u.growth.clone(),
        user_agents,
        task_agents,
        active,
        available: u.available.clone(),
        drained: u.drained.clone(),
        regions: fleet.ledger.region_names(),
        agent_regions: u
            .problem
            .instance()
            .agent_ids()
            .map(|l| fleet.ledger.region_of(l))
            .collect(),
        holdings: (u.slots.iter())
            .map(|(&s, slot)| (s, SessionHold::from_load(slot.lock().load())))
            .collect(),
        counters: CounterSnapshot::capture(&fleet.counters),
        timers: fleet.timers.lock().clone(),
        readmit: {
            let q = fleet.readmit.lock();
            q.entries.values().copied().collect()
        },
        readmit_epochs: {
            let q = fleet.readmit.lock();
            let mut epochs: Vec<(SessionId, u64)> =
                q.epochs.iter().map(|(&s, &e)| (s, e)).collect();
            epochs.sort_unstable_by_key(|&(s, _)| s);
            epochs
        },
    }
}

/// Removes every store file (snapshots, journals, temps) from `dir`.
fn wipe_store(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let entry = entry?;
        let keep = entry
            .file_name()
            .to_str()
            .is_none_or(|n| !(n.starts_with("snapshot-") || n.starts_with("journal-")));
        if !keep {
            fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

impl Fleet {
    /// Creates a fleet like [`Fleet::new`] that journals every mutation
    /// to `persist.dir`, starting from a **fresh** durable store: any
    /// store files already in the directory are removed, a genesis
    /// snapshot (empty fleet, seq 0) is written, and the journal opens
    /// at seq 1. Use [`Fleet::recover`] to *resume* an existing store.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn with_persistence(
        problem: Arc<UapProblem>,
        config: FleetConfig,
        persist: PersistConfig,
    ) -> Result<Self, PersistError> {
        Self::with_persistence_on(problem, config, persist, real_vfs(), RetryPolicy::default())
    }

    /// [`Fleet::with_persistence`] through an explicit storage layer:
    /// every journal append, fsync, snapshot write, and rename goes
    /// through `vfs`, and fsync failures follow `retry` (capped backoff,
    /// then buffered-degraded mode). This is the chaos plane's entry
    /// point — wrap the real filesystem in `vc-chaos`'s `FaultyVfs` and
    /// the fleet rides out injected storage faults exactly the way
    /// production would.
    ///
    /// # Errors
    ///
    /// Any filesystem error. Store *creation* errors always propagate —
    /// degraded mode exists for a store that was healthy once, not for
    /// one that never existed.
    pub fn with_persistence_on(
        problem: Arc<UapProblem>,
        config: FleetConfig,
        persist: PersistConfig,
        vfs: Arc<dyn Vfs>,
        retry: RetryPolicy,
    ) -> Result<Self, PersistError> {
        fs::create_dir_all(&persist.dir)?;
        let lock = acquire_store_lock(&persist.dir)?;
        wipe_store(&persist.dir)?;
        let mut fleet = Fleet::new(problem, config);
        let journal = fleet.cut_store(
            &fleet.freeze.read(),
            0,
            &persist.dir,
            persist.fsync,
            &*vfs,
            retry,
        )?;
        fleet.persist = Some(FleetPersistence {
            dir: persist.dir,
            fsync: persist.fsync,
            stay_batch: persist.stay_batch.max(1),
            vfs,
            retry,
            journal: Mutex::new(journal),
            _lock: lock,
        });
        Ok(fleet)
    }

    /// Cuts the store at `seq` — the step opening, checkpointing and
    /// recovering a store share: the fleet's captured state becomes the
    /// snapshot at `seq`, then a fresh journal wired to the fleet's obs
    /// plane opens at `seq + 1`. Snapshot first: a crash between the two
    /// writes leaves a valid snapshot beside the journal it supersedes
    /// (none, at genesis), never a journal without its base. The caller
    /// holds the FREEZE lock behind `u`; it installs the returned
    /// journal *before* it compacts, so a failed compaction leaves the
    /// fleet appending after the snapshot it just wrote.
    fn cut_store(
        &self,
        u: &fleet::Universe,
        seq: u64,
        dir: &Path,
        fsync: FsyncPolicy,
        vfs: &dyn Vfs,
        retry: RetryPolicy,
    ) -> Result<JournalWriter<FleetOp>, PersistError> {
        write_snapshot_with(dir, seq, &capture(self, u), vfs)?;
        let mut journal =
            JournalWriter::create_with(journal_path(dir, seq + 1), fsync, seq + 1, vfs, retry)?;
        journal.set_obs(Arc::clone(&self.obs));
        Ok(journal)
    }

    /// Whether the fleet journals its mutations.
    pub fn is_persistent(&self) -> bool {
        self.persist.is_some()
    }

    /// The persistence directory, if attached.
    pub fn persist_dir(&self) -> Option<&Path> {
        self.persist.as_ref().map(|p| p.dir.as_path())
    }

    /// Forces the journal's buffered tail to disk — the manual
    /// durability boundary for `FsyncPolicy::Batch`/`Manual` fleets
    /// (call it once per telemetry period, at shutdown, …). Flushes any
    /// pending stay batch first, so the synced journal accounts for
    /// every counter.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotAttached`] on an ephemeral fleet, or any
    /// filesystem error.
    pub fn commit_journal(&self) -> Result<(), PersistError> {
        let p = self.persist.as_ref().ok_or(PersistError::NotAttached)?;
        self.flush_stays();
        p.journal.lock().commit()?;
        Ok(())
    }

    /// Writes a snapshot of the current state, rotates the journal, and
    /// compacts the store (older snapshots and fully-covered journal
    /// files are deleted). Runs under the FREEZE lock: the snapshot is
    /// a consistent cut at the returned sequence number.
    ///
    /// # Errors
    ///
    /// [`PersistError::NotAttached`] on an ephemeral fleet, or any
    /// filesystem error.
    pub fn checkpoint(&self) -> Result<u64, PersistError> {
        let u = self.freeze_exclusive();
        let p = self.persist.as_ref().ok_or(PersistError::NotAttached)?;
        self.flush_stays();
        let mut journal = p.journal.lock();
        journal.commit()?;
        let last_seq = journal.next_seq() - 1;
        *journal = self.cut_store(&u, last_seq, &p.dir, p.fsync, &*p.vfs, p.retry)?;
        compact(&p.dir, last_seq)?;
        drop(journal);
        drop(u);
        self.obs
            .note_trace(TraceKind::Checkpoint, FLEET_SCOPE, last_seq);
        Ok(last_seq)
    }

    /// Reconstructs a fleet from the durable store in `persist.dir`:
    /// loads the newest valid snapshot, replays the journal tail
    /// (tolerating a torn final record), re-audits ledger conservation,
    /// and re-checkpoints so the recovered fleet continues journaling
    /// from a compact store.
    ///
    /// `problem` must be the same instance the store was written
    /// against (the control plane state is meaningless across
    /// instances); dimensions are checked and a mismatch is an error,
    /// not a panic.
    ///
    /// # Errors
    ///
    /// See [`PersistError`]. Notably, a torn record anywhere but the
    /// journal's end, a sequence gap, a hop whose old assignment
    /// disagrees with the replayed state, or a non-empty conservation
    /// audit are all hard errors: recovery refuses to go live on a
    /// state it cannot prove consistent. A directory with no snapshot
    /// at all is [`PersistError::NoStore`] — use
    /// [`Fleet::with_persistence`] to *start* a store.
    pub fn recover(
        persist: PersistConfig,
        problem: Arc<UapProblem>,
        config: FleetConfig,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        Self::recover_with(persist, problem, config, real_vfs(), RetryPolicy::default())
    }

    /// [`Fleet::recover`] through an explicit storage layer (see
    /// [`Fleet::with_persistence_on`]). Reads stay on the real
    /// filesystem — recovery wants the actual on-disk bytes, faults and
    /// all — but the recovery snapshot and the fresh journal the
    /// recovered fleet continues into go through `vfs`/`retry`.
    ///
    /// # Errors
    ///
    /// See [`Fleet::recover`].
    pub fn recover_with(
        persist: PersistConfig,
        problem: Arc<UapProblem>,
        config: FleetConfig,
        vfs: Arc<dyn Vfs>,
        retry: RetryPolicy,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let lock = acquire_store_lock(&persist.dir)?;
        let snapshot = latest_snapshot::<DurableFleetState>(&persist.dir)?
            .ok_or_else(|| PersistError::NoStore(persist.dir.clone()))?;
        let (snapshot_seq, mut fleet) = (
            snapshot.0,
            Fleet::from_durable(problem, config, snapshot.1)?,
        );
        let mut expected = snapshot_seq + 1;
        let mut replayed = 0usize;
        let mut torn_tail = false;
        // One evaluation scratch across the whole replay — per-op
        // allocation would dominate recovery on large fleets.
        let mut replay_scratch = vc_core::EvalScratch::new();
        let files = journal_files(&persist.dir)?;
        for (i, (_, path)) in files.iter().enumerate() {
            let (records, tail) = read_journal::<FleetOp>(path)?;
            if tail.torn {
                if i + 1 != files.len() {
                    return Err(PersistError::Replay(format!(
                        "torn record in non-final journal {}",
                        path.display()
                    )));
                }
                torn_tail = true;
            }
            for (seq, op) in records {
                if seq <= snapshot_seq {
                    continue; // superseded by the snapshot
                }
                if seq != expected {
                    return Err(PersistError::Replay(format!(
                        "sequence gap: expected {expected}, found {seq}"
                    )));
                }
                fleet.replay_op(&op, &mut replay_scratch)?;
                // Replay *installs* a journaled placement — it never
                // re-runs admission search, so the trace shows
                // `RecoveryInstalled`, not `AdmitAttempt`. Every other
                // replayed op that has an event emits it where the live
                // path does (`commit_hop`, `depart`, the agent ops), so
                // a post-recovery dump shows the journal's tail.
                if let FleetOp::Admit { session, .. } = &op {
                    fleet
                        .obs
                        .note_trace(TraceKind::RecoveryInstalled, session.index() as u32, seq);
                }
                expected += 1;
                replayed += 1;
            }
        }
        let audit = fleet.audit();
        if !audit.is_empty() {
            fleet.obs.post_mortem_once("audit_failure", &audit[0]);
            return Err(PersistError::Audit(audit));
        }
        let drift = fleet.load_drift();
        if drift > 1e-6 {
            let detail = format!("recovered loads drift from a from-scratch evaluation by {drift}");
            fleet.obs.post_mortem_once("recovery_divergence", &detail);
            return Err(PersistError::Replay(detail));
        }
        let last_seq = expected - 1;
        let journal = fleet.cut_store(
            &fleet.freeze.read(),
            last_seq,
            &persist.dir,
            persist.fsync,
            &*vfs,
            retry,
        )?;
        compact(&persist.dir, last_seq)?;
        fleet
            .obs
            .note_trace(TraceKind::RecoveryReplayed, FLEET_SCOPE, replayed as u64);
        fleet.persist = Some(FleetPersistence {
            dir: persist.dir,
            fsync: persist.fsync,
            stay_batch: persist.stay_batch.max(1),
            vfs,
            retry,
            journal: Mutex::new(journal),
            _lock: lock,
        });
        let timers = fleet.timers.lock().clone();
        Ok((
            fleet,
            RecoveryReport {
                snapshot_seq,
                replayed,
                torn_tail,
                last_seq,
                timers,
            },
        ))
    }

    /// Journals the worker pool's current WAIT-timer state (and caches
    /// it for the next snapshot). Call at durability boundaries — e.g.
    /// alongside [`commit_journal`](Fleet::commit_journal) or before
    /// [`checkpoint`](Fleet::checkpoint) — so a crash-recovered fleet
    /// resumes its countdowns instead of re-drawing them. Takes the
    /// FREEZE write lock for a consistent cut; no-op apart from the
    /// cache on ephemeral fleets.
    ///
    /// **Quiescence contract**: the cut is exact only while no wakeup
    /// is *in flight* — i.e. between [`ReoptPool::tick_until`] calls
    /// (the virtual-clock drive, which is synchronous) or after
    /// [`ReoptPool::run_wall`] has returned. A wall-clock worker that
    /// has popped its due entry but not yet rescheduled is invisible to
    /// [`ReoptPool::timer_state`]; journaling mid-flight records that
    /// wakeup as still pending even though its hop may journal right
    /// after, so a recovery from such a cut would re-fire it. The
    /// bitwise resume guarantee is therefore stated (and tested) for
    /// quiescent cuts.
    pub fn journal_timers(&self, pool: &ReoptPool) {
        let _frz = self.freeze_exclusive();
        let entries = pool.timer_state();
        *self.timers.lock() = entries.clone();
        self.log_op(|| FleetOp::Timers { entries });
    }

    /// Caches the pool's timer state for snapshot capture *without*
    /// journaling it (offline comparison helper — lets an ephemeral
    /// fleet's [`durable_state`](Fleet::durable_state) be compared
    /// field-for-field against a persistent twin).
    pub fn record_timers(&self, pool: &ReoptPool) {
        let _frz = self.freeze_exclusive();
        *self.timers.lock() = pool.timer_state();
    }

    /// Captures the durable state under the FREEZE write lock (exposed
    /// for tests and offline tooling; [`Fleet::checkpoint`] is the
    /// operational path). Flushes any pending stay batch first, so
    /// recovery from the journal reproduces the captured counters
    /// exactly.
    pub fn durable_state(&self) -> DurableFleetState {
        let u = self.freeze_exclusive();
        self.flush_stays();
        capture(self, &u)
    }

    fn from_durable(
        problem: Arc<UapProblem>,
        config: FleetConfig,
        durable: DurableFleetState,
    ) -> Result<Self, PersistError> {
        // Regrow the universe first: the snapshot's placements cover
        // the seed problem *plus* everything registered online. The
        // growth log is replayed in its original interleaved order —
        // a session's delay rows depend on how many agents existed
        // when it registered, so reordering would rebuild a different
        // universe.
        let problem = if durable.growth.is_empty() {
            problem
        } else {
            let mut grown = (*problem).clone();
            for (i, rec) in durable.growth.iter().enumerate() {
                match rec {
                    GrowthRecord::Session(def) => {
                        grown.register_session(def).map_err(|e| {
                            PersistError::Mismatch(format!(
                                "snapshot growth record #{i} (session) failed to re-register: {e}"
                            ))
                        })?;
                    }
                    GrowthRecord::Agent(def, _region) => {
                        grown.register_agent(def).map_err(|e| {
                            PersistError::Mismatch(format!(
                                "snapshot growth record #{i} (agent) failed to re-register: {e}"
                            ))
                        })?;
                    }
                }
            }
            Arc::new(grown)
        };
        let inst = problem.instance();
        let dims = [
            ("users", durable.user_agents.len(), inst.num_users()),
            ("tasks", durable.task_agents.len(), problem.tasks().len()),
            ("sessions", durable.active.len(), inst.num_sessions()),
            ("agents", durable.available.len(), inst.num_agents()),
            ("drained flags", durable.drained.len(), inst.num_agents()),
            (
                "agent regions",
                durable.agent_regions.len(),
                inst.num_agents(),
            ),
        ];
        for (what, got, want) in dims {
            if got != want {
                return Err(PersistError::Mismatch(format!(
                    "snapshot has {got} {what}, problem has {want}"
                )));
            }
        }
        // A drained agent is down for good: admissions and hops read
        // availability alone, so one that is up would take load again.
        let drained_up = |l: &usize| durable.drained[*l] && durable.available[*l];
        if let Some(l) = (0..inst.num_agents()).find(drained_up) {
            return Err(PersistError::Mismatch(format!(
                "snapshot has agent {} drained but available",
                AgentId::from(l)
            )));
        }
        // Placements and holdings index the agent pool; holdings and the
        // re-admission state name sessions the fleet will later admit.
        let held = durable.holdings.iter().flat_map(|(_, hold)| &hold.holds);
        if let Some(a) = durable
            .user_agents
            .iter()
            .chain(durable.task_agents.iter())
            .chain(held.map(|h| &h.agent))
            .find(|a| a.index() >= inst.num_agents())
        {
            return Err(PersistError::Mismatch(format!(
                "snapshot assigns to agent {a}, past the instance's {}",
                inst.num_agents()
            )));
        }
        if let Some(s) = (durable.holdings.iter().map(|&(s, _)| s))
            .chain(durable.readmit.iter().map(|e| e.session))
            .chain(durable.readmit_epochs.iter().map(|&(s, _)| s))
            .find(|s| s.index() >= inst.num_sessions())
        {
            return Err(PersistError::Mismatch(format!(
                "snapshot holds state for session {s}, past the instance's {}",
                inst.num_sessions()
            )));
        }
        if let Some(&r) = durable
            .agent_regions
            .iter()
            .find(|&&r| r as usize >= durable.regions.len())
        {
            return Err(PersistError::Mismatch(format!(
                "snapshot assigns an agent to region id {r}, past its {}-entry region table",
                durable.regions.len()
            )));
        }
        let fleet = Fleet::new(problem, config);
        // Install the region table before anything touches the ledger:
        // `ensure_region` re-creates the ids in captured order (index 0
        // is the default region both here and in a fresh ledger).
        for (i, name) in durable.regions.iter().enumerate() {
            let id = fleet.ledger.ensure_region(name);
            if id as usize != i {
                return Err(PersistError::Mismatch(format!(
                    "snapshot region table re-registered {name:?} as id {id}, expected {i}"
                )));
            }
        }
        for (i, &r) in durable.agent_regions.iter().enumerate() {
            fleet.ledger.assign_region(AgentId::from(i), r);
        }
        let mut scratch = vc_core::EvalScratch::new();
        {
            let mut u = fleet.freeze.write();
            u.growth = durable.growth;
            u.available = durable.available.clone();
            u.drained = durable.drained.clone();
            let fleet::Universe { problem, slots, .. } = &mut *u;
            let inst = problem.instance();
            // A slot per live session only; whatever the snapshot holds
            // at a non-live session's entries is not state. Each slot's
            // load is booked as it is built, ascending by session: the
            // slots are the holds, and the snapshot's `holdings` must
            // name the same sessions with the same loads, bit for bit.
            let mut holdings = durable.holdings.iter();
            for s in inst.session_ids().filter(|s| durable.active[s.index()]) {
                let users = inst.session(s).users().iter();
                let tasks = problem.tasks().of_session(s).iter();
                let slot = fleet::SessionSlot::new(
                    users.map(|w| durable.user_agents[w.index()]).collect(),
                    tasks.map(|t| durable.task_agents[t.index()]).collect(),
                );
                let load = fleet::evaluate_slot(problem, s, &slot, &mut scratch).clone();
                if holdings.next() != Some(&(s, SessionHold::from_load(&load))) {
                    return Err(PersistError::Mismatch(format!(
                        "snapshot holdings disagree with the re-evaluated load of live session {s}"
                    )));
                }
                fleet.ledger.book_unchecked(&load);
                slots.insert(s, Mutex::new(slot.loaded(load)));
            }
            if let Some((s, _)) = holdings.next() {
                return Err(PersistError::Mismatch(format!(
                    "snapshot holdings name session {s}, which is not live"
                )));
            }
        }
        // Availability flags were installed with the universe above;
        // mirror them into the ledger (a down agent — failed or drained
        // — holds no availability there either).
        for (i, &up) in durable.available.iter().enumerate() {
            if !up {
                fleet.ledger.fail_agent(AgentId::from(i));
            }
        }
        durable.counters.install(&fleet.counters);
        *fleet.timers.lock() = durable.timers;
        {
            let mut q = fleet.readmit.lock();
            for e in &durable.readmit {
                q.entries.insert(e.session, *e);
            }
            for &(s, epoch) in &durable.readmit_epochs {
                q.epochs.insert(s, epoch);
            }
        }
        Ok(fleet)
    }

    /// Replay guard, run before any arm: a CRC-valid but semantically
    /// corrupt frame may name sessions, agents, users or tasks outside
    /// the universe replayed so far, and every arm below indexes by
    /// them. The universe grows mid-journal (`RegisterSession`,
    /// `RegisterAgent`), so the bound is what the seed problem plus the
    /// records before this one produced: an id past it means recovery
    /// was handed the wrong (too small) seed problem or a foreign
    /// journal — a typed error naming the id, never an index panic.
    /// The two registrations carry the id replay is about to *assign*
    /// and compare it themselves; `Timers` entries are cached and handed
    /// back, never indexed by, so a stray one is harmless.
    fn replay_bounds(&self, op: &FleetOp) -> Result<(), PersistError> {
        let universe = self.freeze.read();
        let session = |s: SessionId, what: &str| {
            if universe.is_registered(s) {
                return Ok(());
            }
            Err(PersistError::Replay(format!(
                "{what} of unregistered session {s}"
            )))
        };
        let known = |kind: &str, id: &dyn std::fmt::Display, index, num, what: &str| {
            if index < num {
                return Ok(());
            }
            Err(PersistError::Replay(format!(
                "{what} unknown {kind} {id}: the replayed universe has only {num} {kind}s \
                 (wrong or stale seed problem?)"
            )))
        };
        let (inst, tasks) = (universe.problem.instance(), universe.problem.tasks());
        let agent = |a: AgentId, what| known("agent", &a, a.index(), inst.num_agents(), what);
        let user = |u: UserId, what| known("user", &u, u.index(), inst.num_users(), what);
        let task = |t: TaskId, what| known("task", &t, t.index(), tasks.len(), what);
        match op {
            FleetOp::Admit {
                session: s,
                users,
                tasks,
                ..
            } => {
                session(*s, "admit")?;
                for &(u, a) in users {
                    user(u, "admit of")?;
                    agent(a, "admit onto")?;
                }
                for &(t, a) in tasks {
                    task(t, "admit of")?;
                    agent(a, "admit onto")?;
                }
                Ok(())
            }
            FleetOp::Hop {
                session: s,
                decision,
                old_agent,
            } => {
                session(*s, "hop")?;
                match *decision {
                    Decision::User(u, _) => user(u, "hop of")?,
                    Decision::Task(t, _) => task(t, "hop of")?,
                }
                agent(decision.target(), "hop onto")?;
                agent(*old_agent, "hop from")
            }
            FleetOp::Reject { session: s, .. } => session(*s, "refusal"),
            FleetOp::Depart { session: s } => session(*s, "depart"),
            FleetOp::ReadmitEnqueue { session: s, .. } => session(*s, "readmit enqueue"),
            FleetOp::ReadmitDrop { session: s } => session(*s, "readmit drop"),
            FleetOp::FailAgent { agent: a } => agent(*a, "failure of"),
            FleetOp::RestoreAgent { agent: a } => agent(*a, "restore of"),
            FleetOp::DrainAgent { agent: a } => agent(*a, "drain of"),
            FleetOp::StayBatch { .. }
            | FleetOp::RegisterSession { .. }
            | FleetOp::RegisterAgent { .. }
            | FleetOp::Timers { .. } => Ok(()),
        }
    }

    /// Applies one journaled op to a recovering fleet. Every arm but
    /// the counter/cache-only `StayBatch`, `Timers` and `ReadmitDrop`
    /// re-enters the code the live path ran, so recovered counters equal
    /// pre-crash counters by construction.
    pub(crate) fn replay_op(
        &self,
        op: &FleetOp,
        scratch: &mut vc_core::EvalScratch,
    ) -> Result<(), PersistError> {
        self.replay_bounds(op)?;
        match op {
            FleetOp::Admit {
                session,
                users,
                tasks,
                tier,
                repair_steps,
            } => {
                // A recovering fleet is invisible to every other thread:
                // there is no wait or hold worth a histogram sample, so
                // replay's own arms take the raw lock.
                let mut universe = self.freeze.write();
                if universe.slots.contains_key(session) {
                    return Err(PersistError::Replay(format!(
                        "admit of already-live session {session}"
                    )));
                }
                let accepted = Accepted {
                    users,
                    tasks,
                    tier: *tier,
                    repair_steps: *repair_steps as usize,
                };
                // Installed, never re-judged: a re-check here could
                // refuse at an epsilon boundary (or on an agent that
                // failed later in the journal). Conservation is
                // re-established by the post-replay audit.
                let slot = self
                    .install_admitted(
                        &universe.problem,
                        *session,
                        &accepted,
                        scratch,
                        AdmitPath::Replay,
                    )
                    .map_err(PersistError::Replay)?;
                universe.slots.insert(*session, Mutex::new(slot));
            }
            FleetOp::Reject { reason, .. } => self.count_refusal(*reason),
            FleetOp::Depart { session } => {
                if self.depart(*session).is_none() {
                    return Err(PersistError::Replay(format!(
                        "depart of non-live session {session}"
                    )));
                }
                // depart() counted this replayed departure already.
            }
            FleetOp::FailAgent { agent } => {
                // Replay re-runs the deterministic evacuation but does
                // NOT re-enqueue displaced sessions: the journal carries
                // every enqueue as an explicit `ReadmitEnqueue` record
                // (queue mutations are never re-derived), so the live
                // path's enqueues arrive as the very next records.
                self.down_agent_inner(*agent, false, false);
            }
            FleetOp::RestoreAgent { agent } => {
                // Refused restores (drained agents) journal nothing, so
                // a journaled restore that the replayed state refuses
                // means journal and snapshot disagree.
                if !self.restore_agent(*agent) {
                    return Err(PersistError::Replay(format!(
                        "restore of drained agent {agent}"
                    )));
                }
            }
            FleetOp::Hop {
                session,
                decision,
                old_agent,
            } => {
                let universe = self.freeze.write();
                let problem = &universe.problem;
                let Some(slot) = universe.slots.get(session) else {
                    return Err(PersistError::Replay(format!(
                        "hop of non-live session {session}"
                    )));
                };
                let mut slot = slot.lock();
                let index = problem.local_index(*session, *decision).ok_or_else(|| {
                    PersistError::Replay(format!("hop {decision} targets a foreign session"))
                })?;
                let current = slot.agent(*decision, index);
                if current != *old_agent {
                    return Err(PersistError::Replay(format!(
                        "hop {decision} expected old assignment {old_agent}, state has {current}"
                    )));
                }
                // The journaled decision is weighed the way the live hop
                // weighed it and committed through the live hop's
                // commit; only the swap is forced, not checked — the
                // live `try_swap` already won this capacity. Replay
                // never searches.
                let mut hood = Neighborhood::begin(
                    scratch,
                    problem,
                    *session,
                    slot.users().iter().copied(),
                    slot.tasks().iter().copied(),
                );
                let (_, load) = hood.candidate(*decision);
                self.ledger.force_swap(slot.load(), load);
                self.commit_hop(*session, &mut slot, *decision, index, scratch.load_mut());
            }
            FleetOp::StayBatch { count } => {
                self.counters
                    .stays
                    .fetch_add(*count as usize, Ordering::Relaxed);
            }
            FleetOp::RegisterSession { session, def } => {
                let assigned = self.register_session(def).map_err(|e| {
                    PersistError::Replay(format!("journaled registration failed to replay: {e}"))
                })?;
                if assigned != *session {
                    return Err(PersistError::Replay(format!(
                        "journaled registration expected id {session}, replay assigned {assigned}"
                    )));
                }
            }
            FleetOp::Timers { entries } => {
                // Newest record wins: the caller gets the countdowns
                // pending at the last durability boundary.
                *self.timers.lock() = entries.clone();
            }
            FleetOp::ReadmitEnqueue {
                session,
                epoch,
                attempt,
                due_us,
            } => {
                self.readmit_install(ReadmitEntry {
                    session: *session,
                    epoch: *epoch,
                    attempt: *attempt,
                    due_us: *due_us,
                });
            }
            FleetOp::RegisterAgent { agent, def, region } => {
                // Replay runs with persistence detached, so the live
                // registration path journals nothing here.
                let assigned = self.register_agent(def, region).map_err(|e| {
                    PersistError::Replay(format!(
                        "journaled agent registration failed to replay: {e}"
                    ))
                })?;
                if assigned != *agent {
                    return Err(PersistError::Replay(format!(
                        "journaled agent registration expected id {agent}, replay assigned \
                         {assigned}"
                    )));
                }
            }
            FleetOp::DrainAgent { agent } => {
                // Like `FailAgent`: re-run the deterministic evacuation
                // but never re-enqueue — the journal carries every
                // enqueue as an explicit `ReadmitEnqueue` record.
                self.down_agent_inner(*agent, false, true);
            }
            FleetOp::ReadmitDrop { session } => {
                // Overflow drops never installed an entry; exhaustion
                // drops did. Remove if present, count either way — the
                // live path counted both shapes through the same
                // `readmit_dropped` counter.
                self.readmit.lock().entries.remove(session);
                self.counters
                    .readmit_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }
}
