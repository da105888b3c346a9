//! The fleet: admission, departure, failure handling, and hop execution
//! over the live sessions' slots + the sharded [`CapacityLedger`].
//!
//! ## The sharded FREEZE
//!
//! The seed design serialized *every* mutation — including each Alg. 1
//! HOP — behind one `Mutex<SystemState>` (the paper's FREEZE message,
//! literally). That lock is gone. The fleet now owns:
//!
//! * one `SessionSlot` per **live** session (its users'/tasks' agents
//!   and what their evaluation leaves live: the sparse [`SessionHold`],
//!   `Φ_s`, the traffic and the user delays — never a load over the
//!   whole agent pool) behind its own mutex, in a map
//!   ordered by session id whose key set *is* the live set, so every
//!   fleet walk is O(live) — a HOP touches exactly one slot;
//! * the sharded [`CapacityLedger`] as the *only* cross-session
//!   coordination point: a HOP commit is a checked
//!   [`try_swap`](CapacityLedger::try_swap), so two sessions racing for
//!   the same agent's capacity are arbitrated by the ledger's shard
//!   locks, not by freezing the world;
//! * a `freeze: RwLock<Universe>` — hops take it **shared**, so hops on
//!   different sessions run concurrently; the coarse paths (admit,
//!   depart, fail/restore, snapshot, audit, **universe growth**) take it
//!   **exclusively** and see a quiescent fleet.
//!
//! ## The open world
//!
//! The FREEZE lock guards more than quiescence: it owns the
//! `Universe` — the problem (instance + tasks) and the live sessions'
//! slots. The problem is **append-only extensible** while the fleet is
//! live: [`Fleet::register_session`] (exclusive FREEZE) registers a
//! never-before-seen conference, growing the instance and the task
//! table in one step. Registration grows the problem, not slot storage:
//! a registered conference has no slot and reserves nothing until it is
//! actually admitted. Because growth never renumbers an id
//! or moves an existing delay entry, every objective, delay and hold
//! of the pre-growth fleet is bitwise unchanged — a fleet
//! grown session-by-session is indistinguishable from one built over
//! the full universe up front.
//!
//! Journal total order: every journal append happens through the single
//! journal mutex, whose monotonically increasing sequence number is the
//! global sequence counter; a hop appends while still holding its slot
//! lock, so per-session journal order equals per-session commit order,
//! and ops of different sessions commute under replay (state-exactly
//! for slots, which are the holds; replay installs every journaled
//! decision, evacuations included, and searches nothing; a live
//! evacuation checks feasibility against totals summed from slot holds,
//! not the ledger's commit-order float sums, so a recovered fleet's
//! next evacuation picks what its uncrashed twin picks) — recovery
//! semantics are untouched.
//!
//! ## A hop is a sweep and a draw
//!
//! `vc_algo::markov` splits the Gibbs step in two and says why the
//! split is exact ((a)–(g) there; that argument is not repeated here).
//! The *sweep* — compile the conference, enumerate its neighbours,
//! fold the undecided — reads only the session's own placement and
//! load, toward every registered agent: up, down or drained. The
//! *draw* reads the residual capacities, which is all that other
//! sessions' hops move, and which agents are up. So a slot keeps
//! its last sweep's [`HopMemo`](vc_algo::markov::HopMemo), under the
//! slot mutex, and a hop of a session that stayed since — four in five
//! on a steady fleet — goes straight to the draw: the availability of
//! every stored candidate's target and `fits` of its demand against
//! the ledger's *current* snapshot, one `rng.gen::<f64>()`, and the
//! kernel compiled only if a bounded candidate must be weighed after
//! all or a migration was drawn (which still re-derives its load and
//! commits through the checked `try_swap`). Outcomes, RNG state and
//! journal bytes are those of a fleet that sweeps on every hop
//! (`tests::hop_memo`).
//!
//! The memo is dropped exactly when what the sweep read is written,
//! and that is arranged by construction rather than by call-site
//! discipline: a slot's placement and evaluation are private to
//! `crate::slot` and written through one function that forgets the
//! memo — a hop commit, live or replayed; an evacuation move — and
//! `register_agent` retires every live slot's memo under the exclusive
//! FREEZE without writing anything else (a hold names only the agents
//! it touches, so a new agent changes none), so the next sweep
//! enumerates the new agent.
//! `fail_agent`, `restore_agent` and `drain_agent` write no slot they
//! do not move: a drain is a failure that `restore_agent` refuses to
//! undo, and a memo kept across any of them is drawn under the new
//! availability (`vc_algo::markov`, (g)), so every session the
//! evacuation did not move keeps its memo. With observation noise
//! configured nothing is kept ([`Alg1Engine::keeps_memos`]). There is
//! no cap and no TTL: one memo per live slot, sized by the conference,
//! freed with the slot. It is derived state — never journaled, never
//! snapshotted, no part of `durable_state()` — and a recovered fleet
//! starts without any.
//!
//! ## One capacity view
//!
//! Reserved capacity travels in one shape, [`AgentTotals`], free
//! capacity is `capacity − reserved` (signed), and every capacity
//! decision asks `vc-core`'s one per-agent rule,
//! [`agent_fits`](vc_core::agent_fits), which the closed world asks too
//! — constraints (5)–(7) as `new − old ≤ capacity − reserved` at the
//! agents a candidate touches. An admission snapshots the ledger
//! ([`CapacityLedger::reserved_totals_into`]) and its engine's final
//! check asks the rule of `Residuals::fill_from_totals`; a hop asks
//! [`demand_fits`] of the same snapshot and the ledger's `try_swap` asks
//! again at commit, so a refused swap is a lost race; an evacuation asks
//! [`fits`] of its own slot totals. The fleet has no capacity predicate.

use crate::ledger::{CapacityLedger, Reservation, SessionHold};
use crate::persist::{EvacStep, FleetOp, RefusalReason};
use crate::readmit::{backoff_us, ReadmitConfig, ReadmitEntry, ReadmitState};
use crate::workers::TimerEntry;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use rand::Rng;
use std::borrow::{Borrow, Cow};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use vc_algo::admission::{
    AdmissionEngine, AdmissionFailure, AdmissionScratch, AdmissionStats, AdmissionTier,
};
use vc_algo::agrank::{AgRankConfig, Residuals};
use vc_algo::churn;
use vc_algo::markov::{Alg1Config, Alg1Engine, HopContext, HopOutcome, HopScratch};
use vc_core::neighborhood::Neighborhood;
use vc_core::{
    demand_fits, fits, AgentDemand, AgentTotals, Assignment, Decision, EvalScratch, Held,
    SessionLoad, SystemState, TaskId, UapProblem, CAPACITY_EPS,
};
use vc_model::{AgentDef, AgentId, ModelError, SessionDef, SessionId, UserId};
use vc_obs::{HopCounts, ObsPlane, Site, TraceKind, FLEET_SCOPE};

use crate::slot::Evaluated;
pub(crate) use crate::slot::SessionSlot;

/// The capacity ledger's shard count, clamped to the seed problem's
/// agent count ([`CapacityLedger::new`]); agents registered later share
/// those shards.
const LEDGER_SHARDS: usize = 8;

/// How arriving sessions are placed: `vc-algo`'s admission policy,
/// evaluated against the ledger's live residuals.
pub use vc_algo::admission::AdmissionPolicy as PlacementPolicy;

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Placement at admission.
    pub placement: PlacementPolicy,
    /// Alg. 1 parameters for the re-optimization workers.
    pub alg1: Alg1Config,
    /// Self-healing re-admission: `Some` queues sessions displaced by
    /// forced evacuations (and refusals routed through
    /// [`Fleet::admit_or_queue`]) for deterministic backoff retries;
    /// `None` keeps the historical force-move-and-overshoot behavior.
    pub readmit: Option<ReadmitConfig>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            placement: PlacementPolicy::AgRank(AgRankConfig::live()),
            alg1: Alg1Config::default(),
            readmit: None,
        }
    }
}

/// Why a session was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitError {
    /// The session is already live.
    AlreadyLive(SessionId),
    /// The admission engine exhausted its search; the stage is the
    /// furthest the search reached (user fit → task fit → global
    /// check), mirroring the offline `admit_all` diagnostics.
    Refused {
        /// The refused session.
        session: SessionId,
        /// The furthest search stage reached.
        stage: AdmissionFailure,
    },
}

/// What [`Fleet::admit_or_queue`] did with the session.
#[derive(Debug, Clone, PartialEq)]
pub enum AdmitOutcome {
    /// Admitted immediately.
    Admitted,
    /// Refused, but queued for deterministic-backoff re-admission.
    Queued {
        /// The refusal that sent it to the queue.
        error: AdmitError,
        /// Virtual time (µs) of the first retry.
        due_us: u64,
    },
    /// Refused with no queue entry (queue disabled, full, or the
    /// refusal is non-retryable).
    Refused(AdmitError),
}

/// Declares the fleet's counters once: the live [`FleetCounters`]
/// (atomics), their durable [`CounterSnapshot`] (plain integers),
/// `capture`/`install` between the two and the snapshot's codec all
/// derive from this one list — in declaration order, which is the wire
/// order, so a reordered list changes the format.
macro_rules! fleet_counters {
    ($( $(#[$doc:meta])* $name:ident, )*) => {
        /// Running totals of control-plane activity (all monotone counters).
        #[derive(Debug, Default)]
        pub struct FleetCounters {
            $( $(#[$doc])* pub $name: AtomicUsize, )*
        }

        /// The counters as plain integers (the atomics snapshot).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct CounterSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl CounterSnapshot {
            /// Reads the fleet's counters.
            pub fn capture(c: &FleetCounters) -> Self {
                Self { $( $name: c.$name.load(Ordering::Relaxed) as u64, )* }
            }

            /// Overwrites the fleet's counters (recovery).
            pub(crate) fn install(&self, c: &FleetCounters) {
                $( c.$name.store(self.$name as usize, Ordering::Relaxed); )*
            }
        }

        vc_persist::wire! { struct CounterSnapshot { $($name),* } }
    };
}

fleet_counters! {
    /// Sessions admitted.
    admitted,
    /// Admission attempts refused.
    rejected,
    /// Sessions departed.
    departed,
    /// Successful HOP migrations.
    migrations,
    /// HOPs that stayed put (including no-feasible-move and ledger-race
    /// refusals).
    stays,
    /// Evacuation moves applied on agent failures.
    evacuations,
    /// Evacuation moves that were *forced* (no feasible target existed —
    /// capacity may be overshot until re-optimization drains it).
    forced_moves,
    /// Admissions placed by the engine's enumeration tier.
    admitted_enumeration,
    /// Admissions placed by greedy + violation-driven repair.
    admitted_repair,
    /// Admissions placed by the ranked-fallback tier.
    admitted_fallback,
    /// Violation-driven repair moves applied across all admissions.
    repair_steps,
    /// Refusals at the user-placement stage.
    refused_user_fit,
    /// Refusals at the transcoding-placement stage.
    refused_task_fit,
    /// Refusals at the global feasibility check (capacity interplay or
    /// the delay bound).
    refused_global,
    /// Sessions displaced whole by an evacuation that found no feasible
    /// target (re-admission enabled; the session left the fleet and
    /// entered — or overflowed — the re-admission queue).
    displaced,
    /// Re-admission queue installs (first enqueues and backoff
    /// re-enqueues both count).
    readmit_enqueued,
    /// Queued sessions that were admitted back into the fleet.
    readmit_admitted,
    /// Queued sessions dropped (queue overflow or retry exhaustion).
    readmit_dropped,
}

impl FleetCounters {
    /// Admission success rate over all attempts so far (1.0 when idle).
    pub fn admission_success_rate(&self) -> f64 {
        let ok = self.admitted.load(Ordering::Relaxed);
        let no = self.rejected.load(Ordering::Relaxed);
        if ok + no == 0 {
            1.0
        } else {
            ok as f64 / (ok + no) as f64
        }
    }
}

/// Reusable per-worker buffers for the fleet hop path: the engine's
/// [`HopScratch`] plus the hop's snapshot of the ledger's reserved
/// totals. One per worker thread; steady-state hops allocate nothing
/// but the memo a sweep leaves in its slot.
#[derive(Debug, Default)]
pub struct FleetHopScratch {
    pub(crate) hop: HopScratch,
    pub(crate) reserved: AgentTotals,
    tally: HopTally,
}

impl FleetHopScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hands the plane the per-hop counts tallied since the last flush
    /// (also done every [`HopTally::FLUSH_EVERY`] hops and on drop).
    pub(crate) fn flush_counts(&mut self) {
        self.tally.flush();
    }
}

/// A worker's private tally of the plane's per-hop counters: a hop that
/// re-reads its memo is short enough for three shared-counter RMWs to
/// be a measurable share of it, so hops count here and reach the plane
/// in batches.
#[derive(Debug, Default)]
struct HopTally {
    /// The plane `counts` were gathered for.
    plane: Option<Arc<ObsPlane>>,
    hops: u32,
    counts: HopCounts,
}

impl HopTally {
    const FLUSH_EVERY: u32 = 64;

    /// The counts to add one more hop of a fleet observed by `plane`
    /// to, the earlier ones flushed if they are another plane's or
    /// [`FLUSH_EVERY`](Self::FLUSH_EVERY) already.
    fn of(&mut self, plane: &Arc<ObsPlane>) -> &mut HopCounts {
        if !(self.plane.as_ref()).is_some_and(|bound| Arc::ptr_eq(bound, plane)) {
            self.flush();
            self.plane = Some(plane.clone());
        }
        if self.hops >= Self::FLUSH_EVERY {
            self.flush();
        }
        self.hops += 1;
        &mut self.counts
    }

    fn flush(&mut self) {
        if let Some(plane) = (self.hops > 0).then_some(self.plane.as_ref()).flatten() {
            plane.add_hop_counts(&std::mem::take(&mut self.counts));
        }
        self.hops = 0;
    }
}

impl Drop for HopTally {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Everything one admission reuses from the last: the evaluation
/// buffers (the `L×L` flow matrix among them), the admission search's
/// own scratch, and the ledger snapshot the search runs against.
/// Admissions are FREEZE-exclusive, so the mutex around it is
/// uncontended; after warm-up an admit allocates only its decision.
#[derive(Debug)]
struct AdmitScratch {
    eval: EvalScratch,
    search: AdmissionScratch,
    totals: AgentTotals,
    residuals: Residuals,
    /// The admitted placement in instance order, as `Admit` journals
    /// it: filled per journaled admission, borrowed by the record.
    users: Vec<(UserId, AgentId)>,
    tasks: Vec<(TaskId, AgentId)>,
}

/// One-pass consistent-ish fleet metrics (see [`Fleet::metrics`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FleetMetrics {
    pub(crate) live: usize,
    /// Of those, how many are settled ([`SessionSlot::is_settled`]).
    pub(crate) settled: usize,
    pub(crate) objective: f64,
    pub(crate) traffic_mbps: f64,
    pub(crate) mean_delay_ms: f64,
}

/// Running sums behind [`FleetMetrics`], fed one live slot at a time in
/// ascending session order.
#[derive(Default)]
struct MetricsAcc {
    metrics: FleetMetrics,
    delay_sum: f64,
    users: usize,
}

impl MetricsAcc {
    fn add(&mut self, slot: &SessionSlot) {
        self.metrics.live += 1;
        self.metrics.settled += usize::from(slot.is_settled());
        self.metrics.objective += slot.phi();
        self.metrics.traffic_mbps += slot.ingress_mbps();
        for d in slot.user_delay() {
            self.delay_sum += d;
            self.users += 1;
        }
    }

    fn finish(mut self) -> FleetMetrics {
        if self.users > 0 {
            self.metrics.mean_delay_ms = self.delay_sum / self.users as f64;
        }
        self.metrics
    }
}

/// The registration order of the universe beyond the seed problem: all
/// a snapshot's growth log needs beside the problem and the ledger's
/// regions (`persist`'s "The growth log").
#[derive(Debug)]
pub(crate) struct Growth {
    /// The seed problem's session count: every session from this id
    /// on was registered online.
    pub(crate) seed_sessions: usize,
    /// The agents registered online, in registration order.
    pub(crate) agents: Vec<OnlineAgent>,
}

/// Where one online `register_agent` fell among the session
/// registrations.
#[derive(Debug)]
pub(crate) struct OnlineAgent {
    /// The problem's session count when the agent registered: it
    /// follows the online sessions below this id and precedes the rest.
    pub(crate) sessions: usize,
}

/// What the FREEZE lock owns: the growable universe — the problem
/// (instance + derived tables), the slot of every *live* session, and
/// the per-agent availability/drain masks. Hops read it shared; coarse
/// ops and [`Fleet::register_session`] / [`Fleet::register_agent`] hold
/// it exclusively.
#[derive(Debug)]
pub(crate) struct Universe {
    pub(crate) problem: Arc<UapProblem>,
    /// The live sessions' slots: the key set is the live set. Admission
    /// inserts; departure and displacement remove.
    pub(crate) slots: BTreeMap<SessionId, Mutex<SessionSlot>>,
    /// Universe growth since construction, in registration order —
    /// with `problem`, what a durable snapshot's growth log is read
    /// from, so recovery can regrow the universe from the seed problem.
    pub(crate) growth: Growth,
    /// Per-agent availability, the fleet's only copy. Mutated only
    /// under the FREEZE write lock; read under (at least) the shared lock.
    pub(crate) available: Vec<bool>,
    /// Per-agent drain flag: a drained agent is permanently out —
    /// unavailable, and [`Fleet::restore_agent`] refuses it.
    pub(crate) drained: Vec<bool>,
}

impl Universe {
    /// Every live slot in ascending session order (the map's), each
    /// locked in turn (a slot's guard drops before the next one is taken)
    /// — the one walk under every per-fleet sum, so they all see the same
    /// addends in the same order, O(live). Caller holds no slot lock.
    fn live_slots(&self) -> impl Iterator<Item = (SessionId, MutexGuard<'_, SessionSlot>)> {
        self.slots.iter().map(|(&s, slot)| (s, slot.lock()))
    }

    /// Whether `s` names a session of the (grown-so-far) instance —
    /// the precondition of an admission, live or replayed.
    pub(crate) fn is_registered(&self, s: SessionId) -> bool {
        s.index() < self.problem.instance().num_sessions()
    }
}

/// An exclusive FREEZE acquisition ([`Fleet::freeze_exclusive`]): the
/// write lock plus the two clock reads that time it. Ending the hold —
/// by drop or by [`release`](Self::release) — releases the lock *first*
/// and records `freeze_write_wait`/`freeze_write_hold` *after*:
/// observation never extends the hold it measures.
pub(crate) struct FreezeGuard<'a> {
    universe: Option<RwLockWriteGuard<'a, Universe>>,
    obs: &'a ObsPlane,
    /// `(before the acquisition, once acquired)`; `None` while the
    /// plane is disabled.
    stamps: Option<(Instant, Instant)>,
}

impl FreezeGuard<'_> {
    /// Ends the hold now and returns `(t0, t_end)` — the clock reads
    /// bracketing acquisition and release — for callers that record
    /// their own span over the same interval (`None` while the plane is
    /// disabled).
    pub(crate) fn release(mut self) -> Option<(Instant, Instant)> {
        self.finish()
    }

    fn finish(&mut self) -> Option<(Instant, Instant)> {
        drop(self.universe.take()?);
        let (t0, t_acq) = self.stamps?;
        let t_end = Instant::now();
        self.obs.record_span(Site::FreezeWriteWait, t0, t_acq);
        self.obs.record_span(Site::FreezeWriteHold, t_acq, t_end);
        Some((t0, t_end))
    }
}

impl Drop for FreezeGuard<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

impl std::ops::Deref for FreezeGuard<'_> {
    type Target = Universe;
    fn deref(&self) -> &Universe {
        self.universe.as_ref().expect("held until released")
    }
}

impl std::ops::DerefMut for FreezeGuard<'_> {
    fn deref_mut(&mut self) -> &mut Universe {
        self.universe.as_mut().expect("held until released")
    }
}

/// An accepted admission, as the live path has decided it and as an
/// `Admit` journal record carries it.
pub(crate) struct Accepted<'a> {
    pub(crate) users: &'a [(UserId, AgentId)],
    pub(crate) tasks: &'a [(TaskId, AgentId)],
    pub(crate) tier: AdmissionTier,
    pub(crate) repair_steps: usize,
}

/// Who hands [`Fleet::install_admitted`] its admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AdmitPath {
    /// `Fleet::admit`, straight after the search: the scratch already
    /// holds the accepted placement's load.
    Live,
    /// Journal replay: the decoded placement is evaluated here —
    /// recovery installs, it never re-judges.
    Replay,
}

/// The multi-session control plane. See the module docs.
#[derive(Debug)]
pub struct Fleet {
    /// The sharded FREEZE: hops shared, coarse ops exclusive. Owns the
    /// growable [`Universe`] (problem + live slots), so universe growth
    /// is just another exclusive path.
    pub(crate) freeze: RwLock<Universe>,
    pub(crate) ledger: CapacityLedger,
    pub(crate) engine: Alg1Engine,
    pub(crate) config: FleetConfig,
    pub(crate) counters: FleetCounters,
    /// Write-ahead journal sink; `None` runs the fleet ephemeral.
    /// Every state-changing hook below fires while the mutated slot's
    /// lock (or the FREEZE write lock) is held, so per-session journal
    /// order equals per-session commit order.
    pub(crate) persist: Option<crate::persist::FleetPersistence>,
    /// Stays observed but not yet flushed as a `StayBatch` record.
    pub(crate) pending_stays: AtomicU64,
    /// The last worker-pool timer state this fleet saw — journaled via
    /// [`journal_timers`](Fleet::journal_timers), restored by recovery,
    /// and carried by every durable snapshot so recovered fleets resume
    /// WAIT countdowns instead of re-drawing them.
    pub(crate) timers: Mutex<Vec<TimerEntry>>,
    /// The shared admission search (`vc-algo`'s defaults, the ones the
    /// offline `admit_all` runs with).
    admission_engine: AdmissionEngine,
    /// Reusable buffers for the admission path.
    admit_scratch: Mutex<AdmitScratch>,
    /// The observability plane: per-site latency histograms, per-shard
    /// swap contention counters, and the lifecycle event ring. Enabled by
    /// default; disabling reduces every probe to one relaxed load.
    pub(crate) obs: Arc<ObsPlane>,
    /// The bounded re-admission queue (empty and inert unless
    /// [`FleetConfig::readmit`] is set). Locked *after* the FREEZE/slot
    /// locks, never before.
    pub(crate) readmit: Mutex<ReadmitState>,
    /// Virtual-clock watermark (µs): the latest time any caller has
    /// advanced the fleet to. New re-admission due times are computed
    /// from it; it is *not* durable — replay takes due times from the
    /// journaled enqueue records, and a recovered fleet's driver
    /// re-advances the clock as it resumes.
    pub(crate) clock_us: AtomicU64,
}

impl Fleet {
    /// Creates a fleet over `problem` with **no** live sessions: every
    /// session of the instance is a *potential* conference that may
    /// arrive later (and more can be registered online afterwards via
    /// [`register_session`](Self::register_session)). The slot map
    /// starts empty whatever the universe's size.
    pub fn new(problem: Arc<UapProblem>, config: FleetConfig) -> Self {
        let nl = problem.instance().num_agents();
        let ledger = CapacityLedger::new(&problem, LEDGER_SHARDS);
        let universe = Universe {
            growth: Growth {
                seed_sessions: problem.instance().num_sessions(),
                agents: Vec::new(),
            },
            problem,
            slots: BTreeMap::new(),
            available: vec![true; nl],
            drained: vec![false; nl],
        };
        let obs = Arc::new(ObsPlane::new(ledger.num_shards()));
        Self {
            freeze: RwLock::new(universe),
            ledger,
            engine: Alg1Engine::new(config.alg1.clone()),
            config,
            counters: FleetCounters::default(),
            persist: None,
            pending_stays: AtomicU64::new(0),
            timers: Mutex::new(Vec::new()),
            admission_engine: AdmissionEngine::default(),
            admit_scratch: Mutex::new(AdmitScratch {
                eval: EvalScratch::new(),
                search: AdmissionScratch::default(),
                totals: AgentTotals::zero(nl),
                residuals: Residuals::default(),
                users: Vec::new(),
                tasks: Vec::new(),
            }),
            obs,
            readmit: Mutex::new(ReadmitState::default()),
            clock_us: AtomicU64::new(0),
        }
    }

    /// The fleet's observability plane ([`vc_obs::ObsPlane`]): latency
    /// histograms per instrumented site, swap contention counters, and
    /// the lifecycle event ring. Shareable; telemetry and benches read it.
    pub fn obs(&self) -> &Arc<ObsPlane> {
        &self.obs
    }

    /// Takes the FREEZE write lock — the one way a coarse op does, so
    /// every exclusive hold is timed (see [`FreezeGuard`]).
    pub(crate) fn freeze_exclusive(&self) -> FreezeGuard<'_> {
        let t0 = self.obs.timer();
        let universe = self.freeze.write();
        FreezeGuard {
            universe: Some(universe),
            obs: &self.obs,
            stamps: t0.map(|t0| (t0, Instant::now())),
        }
    }

    /// The current problem (a clone of the `Arc` under the shared
    /// FREEZE lock — the universe may have grown since, so callers get
    /// a consistent point-in-time view rather than a borrow).
    pub fn problem(&self) -> Arc<UapProblem> {
        self.freeze.read().problem.clone()
    }

    /// Current universe size: `(registered sessions, registered users)`.
    /// Live sessions are a subset; see [`live_count`](Self::live_count).
    pub fn universe_size(&self) -> (usize, usize) {
        let u = self.freeze.read();
        let inst = u.problem.instance();
        (inst.num_sessions(), inst.num_users())
    }

    /// Registers a never-before-seen conference online, returning its
    /// (always next-dense) session id. Exclusive FREEZE path: the
    /// instance and task table grow in one step; **slot storage and the
    /// ledger are untouched** — a registered conference has no slot and
    /// holds nothing until it is admitted. The grown problem is the only
    /// store of `def` in the fleet: the journal record encodes it from
    /// the caller's borrow, and a snapshot reads it back off the problem.
    /// On error the fleet is unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the instance-level validation.
    pub fn register_session(&self, def: &SessionDef) -> Result<SessionId, ModelError> {
        let mut u = self.freeze_exclusive();
        let s = self.register_session_locked(&mut u, def)?;
        self.log_op(|| FleetOp::RegisterSession {
            session: s,
            def: Cow::Borrowed(def),
        });
        if let Some((t0, t_end)) = u.release() {
            self.obs.record_span(Site::RegisterSession, t0, t_end);
            self.obs.note_trace_at(
                t_end,
                TraceKind::Registered,
                s.index() as u32,
                def.users.len() as u64,
            );
        }
        Ok(s)
    }

    /// Registers a never-before-seen agent online into `region`
    /// (elastic capacity), returning its (always next-dense) agent id.
    /// Exclusive FREEZE path: the instance's agent pool and delay
    /// matrices, the availability/drain masks, and the ledger all grow
    /// in one step — append-only, nothing renumbers, so every hold,
    /// objective and delay of the pre-growth fleet is bitwise unchanged
    /// (a slot names only the agents it touches). Every live slot's hop
    /// memo is retired, so the next sweep enumerates the new agent. The
    /// region is created if new; the ledger alone keeps it, and the
    /// problem `def`. On error the fleet is unchanged.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from the instance-level validation
    /// (delay-row lengths, finiteness).
    pub fn register_agent(&self, def: &AgentDef, region: &str) -> Result<AgentId, ModelError> {
        let mut u = self.freeze_exclusive();
        let l = self.register_agent_locked(&mut u, def, region)?;
        self.log_op(|| FleetOp::RegisterAgent {
            agent: l,
            def: Cow::Borrowed(def),
            region: Cow::Borrowed(region),
        });
        Ok(l)
    }

    /// [`register_session`](Self::register_session) under the caller's
    /// FREEZE write lock, journaling nothing: what it shares with
    /// snapshot regrowth.
    pub(crate) fn register_session_locked(
        &self,
        u: &mut Universe,
        def: &SessionDef,
    ) -> Result<SessionId, ModelError> {
        // `make_mut` mutates in place when the fleet is the sole owner
        // (the common case — `problem()` clones are short-lived), so a
        // burst of registrations does not deep-copy the whole problem
        // per arrival.
        Arc::make_mut(&mut u.problem).register_session(def)
    }

    /// [`register_agent`](Self::register_agent) under the caller's
    /// FREEZE write lock, journaling nothing: what it shares with
    /// snapshot regrowth.
    pub(crate) fn register_agent_locked(
        &self,
        u: &mut Universe,
        def: &AgentDef,
        region: &str,
    ) -> Result<AgentId, ModelError> {
        let l = Arc::make_mut(&mut u.problem).register_agent(def)?;
        // A slot holds nothing on the new agent, so no slot changes; but
        // every memo was swept without it, and names its candidates by
        // positions the new agent renumbers.
        for slot in u.slots.values_mut() {
            slot.get_mut().retire_memo();
        }
        u.available.push(true);
        u.drained.push(false);
        let region_id = self.ledger.ensure_region(region);
        let ledger_id = self.ledger.register_agent(def.spec.capacity(), region_id);
        debug_assert_eq!(l, ledger_id, "problem and ledger agree on the new id");
        let sessions = u.problem.instance().num_sessions();
        u.growth.agents.push(OnlineAgent { sessions });
        Ok(l)
    }

    /// Current agent-pool size (grows with
    /// [`register_agent`](Self::register_agent)).
    pub fn num_agents(&self) -> usize {
        self.freeze.read().problem.instance().num_agents()
    }

    /// Whether `agent` has been drained (permanently out); `false` for
    /// an id past the pool.
    pub fn is_agent_drained(&self, agent: AgentId) -> bool {
        self.freeze.read().drained.get(agent.index()) == Some(&true)
    }

    /// Whether `agent` is currently available; `false` for an id past
    /// the pool.
    pub fn is_agent_available(&self, agent: AgentId) -> bool {
        self.freeze.read().available.get(agent.index()) == Some(&true)
    }

    /// The shared capacity ledger.
    pub fn ledger(&self) -> &CapacityLedger {
        &self.ledger
    }

    /// Control-plane counters.
    pub fn counters(&self) -> &FleetCounters {
        &self.counters
    }

    /// The configured Alg. 1 engine (workers draw countdowns from it).
    pub fn engine(&self) -> &Alg1Engine {
        &self.engine
    }

    /// Admits session `s` through the shared [`AdmissionEngine`] — the
    /// same enumeration / violation-driven repair / ranked fallback the
    /// Fig. 9 `admit_all` runs — against **live** fleet state (ledger
    /// residuals + availability), then books the ledger hold and
    /// inserts the session's slot. The control plane therefore admits
    /// exactly the sessions the offline reproduction admits (proptested
    /// in `tests/admission_parity.rs`). On any refusal the fleet is left
    /// exactly as before. Coarse path: takes the FREEZE write lock.
    ///
    /// # Errors
    ///
    /// See [`AdmitError`].
    ///
    /// # Panics
    ///
    /// Panics on an unregistered `s` (past the universe as grown so far):
    /// there is no conference to place — a caller bug, fail-stop.
    pub fn admit(&self, s: SessionId) -> Result<(), AdmitError> {
        let mut u = self.freeze_exclusive();
        let result = self.admit_locked(&mut u, s);
        // All recording happens after the exclusive section is released:
        // observation must never extend the FREEZE hold it measures.
        if let Some((t0, t_end)) = u.release() {
            let session = s.index() as u32;
            match &result {
                Ok((stats, placement_hash)) => {
                    let site = match stats.tier {
                        AdmissionTier::Enumeration => Site::AdmitEnumeration,
                        AdmissionTier::Repair => Site::AdmitRepair,
                        AdmissionTier::RankedFallback => Site::AdmitFallback,
                    };
                    self.obs.record_span(site, t0, t_end);
                    self.obs.note_trace_at(
                        t_end,
                        TraceKind::AdmitAttempt,
                        session,
                        stats.tier as u64,
                    );
                    self.obs
                        .note_trace_at(t_end, TraceKind::Admitted, session, *placement_hash);
                }
                Err((_, reason)) => {
                    self.obs.record_span(Site::AdmitRefused, t0, t_end);
                    // An already-live refusal ran no search, so it gets
                    // no `AdmitAttempt` in its chain; every other refusal
                    // exhausted the engine down to its last tier.
                    if *reason != RefusalReason::AlreadyLive {
                        self.obs.note_trace_at(
                            t_end,
                            TraceKind::AdmitAttempt,
                            session,
                            AdmissionTier::RankedFallback as u64,
                        );
                    }
                    self.obs
                        .note_trace_at(t_end, TraceKind::Refused, session, reason.trace_code());
                }
            }
        }
        result.map(|_| ()).map_err(|(e, _)| e)
    }

    /// The admission proper, run under the caller's FREEZE write lock:
    /// the engine searches against capacity minus the booked reservation
    /// totals — derived through the same [`Residuals::fill_from_totals`]
    /// the offline world uses, so both worlds search identical spaces —
    /// with failed agents masked. Success carries the stats plus the
    /// FNV-1a hash of the committed placement (the `Admitted` lifecycle
    /// event's payload); a refusal carries its journaled reason.
    fn admit_locked(
        &self,
        u: &mut Universe,
        s: SessionId,
    ) -> Result<(AdmissionStats, u64), (AdmitError, RefusalReason)> {
        assert!(u.is_registered(s), "admit of unregistered session {s}");
        if u.slots.contains_key(&s) {
            self.refuse(s, RefusalReason::AlreadyLive);
            return Err((AdmitError::AlreadyLive(s), RefusalReason::AlreadyLive));
        }
        let problem = &u.problem;
        let mut scratch = self.admit_scratch.lock();
        let AdmitScratch {
            eval,
            search,
            totals,
            residuals,
            users,
            tasks,
        } = &mut *scratch;
        self.ledger.reserved_totals_into(totals);
        residuals.fill_from_totals(problem, totals);
        let decision = self
            .admission_engine
            .place_session_with(
                problem,
                s,
                &self.config.placement,
                residuals,
                &u.available,
                eval,
                search,
            )
            .map_err(|stage| {
                let reason = RefusalReason::from(stage);
                self.refuse(s, reason);
                (AdmitError::Refused { session: s, stage }, reason)
            })?;
        let stats = decision.stats;
        let accepted = Accepted {
            users: &decision.users,
            tasks: &decision.tasks,
            tier: stats.tier,
            repair_steps: stats.repair_steps,
        };
        let slot = self
            .install_admitted(problem, s, &accepted, eval, AdmitPath::Live)
            .expect("the engine places the session's own users and tasks, once");
        // Journaled strictly after the booking: a crash before the
        // append replays to pre-admission residuals in every region.
        let placed = &slot;
        self.log_op(move || {
            let session_users = problem.instance().session(s).users().iter().copied();
            users.clear();
            users.extend(session_users.zip(placed.users().iter().copied()));
            let session_tasks = problem.tasks().of_session(s).iter().copied();
            tasks.clear();
            tasks.extend(session_tasks.zip(placed.tasks().iter().copied()));
            FleetOp::Admit {
                session: s,
                users: Cow::Borrowed(users),
                tasks: Cow::Borrowed(tasks),
                tier: stats.tier,
                repair_steps: stats.repair_steps as u64,
            }
        });
        let hash = placement_hash(&slot);
        u.slots.insert(s, Mutex::new(slot));
        Ok((stats, hash))
    }

    /// Counts and journals one refusal (live, and `Reject` replay).
    pub(crate) fn refuse(&self, s: SessionId, reason: RefusalReason) {
        self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        if let Some(stage) = reason.counter(&self.counters) {
            stage.fetch_add(1, Ordering::Relaxed);
        }
        self.log_op(|| FleetOp::Reject { session: s, reason });
    }

    /// Builds the slot of an accepted admission of `s` and counts it:
    /// placement (agent 0, overwritten by the accepted pairs), evaluated
    /// load, booked on the ledger as it is (*unchecked* — the search
    /// already proved the fit, and the exclusive FREEZE lock excludes
    /// races), the admitted/tier/repair counters, and the retirement of
    /// any queued re-admission entry; the caller inserts the slot into
    /// the map. The one place a session goes live: [`admit`](Self::admit) calls it once
    /// the engine has decided and `Admit` replay once the record is
    /// decoded, so replay moves exactly the counters the live path moved.
    /// `path` names the one difference (see [`AdmitPath`]).
    ///
    /// # Errors
    ///
    /// A placement naming a user or task outside the session —
    /// impossible for an engine decision, a corrupt record under replay.
    pub(crate) fn install_admitted(
        &self,
        problem: &UapProblem,
        s: SessionId,
        accepted: &Accepted<'_>,
        eval: &mut EvalScratch,
        path: AdmitPath,
    ) -> Result<SessionSlot, String> {
        let mut users = vec![AgentId::new(0); problem.instance().session(s).len()];
        let mut tasks = vec![AgentId::new(0); problem.tasks().of_session(s).len()];
        for &(u, a) in accepted.users {
            let i = (problem.local_user(s, u))
                .ok_or_else(|| format!("admit of {s} places foreign user {u}"))?;
            users[i] = a;
        }
        for &(t, a) in accepted.tasks {
            let i = (problem.local_task(s, t))
                .ok_or_else(|| format!("admit of {s} places foreign task {t}"))?;
            tasks[i] = a;
        }
        let slot = SessionSlot::new(users, tasks);
        if path == AdmitPath::Replay {
            evaluate_slot(problem, s, &slot, eval);
        }
        let load = eval.load();
        self.ledger.book_unchecked(load);
        let slot = slot.loaded(load);
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        let tier_counter = match accepted.tier {
            AdmissionTier::Enumeration => &self.counters.admitted_enumeration,
            AdmissionTier::Repair => &self.counters.admitted_repair,
            AdmissionTier::RankedFallback => &self.counters.admitted_fallback,
        };
        tier_counter.fetch_add(1, Ordering::Relaxed);
        self.counters
            .repair_steps
            .fetch_add(accepted.repair_steps, Ordering::Relaxed);
        // A queued re-admission that lands here is healed; any other
        // admission of a queued session retires its entry too.
        self.readmit_note_admitted(s);
        Ok(slot)
    }

    /// Departs session `s`, releasing exactly what it reserved and dropping
    /// its slot. Returns the slot's hold — the reservation the ledger
    /// released; `None`, changing nothing, for any id that is not live
    /// — never admitted, departed, displaced or unregistered. Coarse
    /// path: takes the FREEZE write lock.
    pub fn depart(&self, s: SessionId) -> Option<SessionHold> {
        let mut u = self.freeze_exclusive();
        let hold = self.depart_locked(&mut u, s);
        drop(u);
        if hold.is_some() {
            self.obs
                .note_trace(TraceKind::Departed, s.index() as u32, 0);
        }
        hold
    }

    /// The departure proper, run under the caller's FREEZE write lock.
    fn depart_locked(&self, u: &mut Universe, s: SessionId) -> Option<SessionHold> {
        let slot = u.slots.remove(&s)?.into_inner();
        self.ledger.release(slot.hold());
        self.counters.departed.fetch_add(1, Ordering::Relaxed);
        self.log_op(|| FleetOp::Depart { session: s });
        Some(slot.into_hold())
    }

    /// Fails `agent`: it goes down, and every stranded user/task of a
    /// live session is evacuated immediately to its objective-minimizing feasible alternative
    /// (force-moved to the least-bad one when nothing is feasible).
    /// Returns `(moves, forced)` — `(0, 0)`, changing and journaling
    /// nothing, for an id past the pool. Coarse path: takes the FREEZE
    /// write lock, so the evacuation sees a quiescent fleet; its
    /// journal record carries every step it took, and replay installs
    /// them without searching. The exclusive hold costs one pass over
    /// the live sessions plus O(stranded × agents) hop candidates (see
    /// `evacuate_locked`): proportional to the load the agent carried
    /// — fleetbench's traced `storm_recover` reads it as
    /// `fleet.fail_agent.{p50_ms, max_ms}`.
    pub fn fail_agent(&self, agent: AgentId) -> (usize, usize) {
        self.down_agent_inner(agent, false)
    }

    /// Drains `agent`: a *planned* evacuation. The agent goes down
    /// first, then its load is evacuated through exactly the
    /// [`fail_agent`](Self::fail_agent) machinery, and the agent is
    /// marked permanently drained —
    /// [`restore_agent`](Self::restore_agent) refuses it. Returns
    /// `(moves, forced)`. Coarse path: takes the FREEZE write lock.
    pub fn drain_agent(&self, agent: AgentId) -> (usize, usize) {
        self.down_agent_inner(agent, true)
    }

    /// The shared fail/drain path of [`fail_agent`](Self::fail_agent)
    /// and [`drain_agent`](Self::drain_agent) — live only: the agent
    /// goes down ([`take_agent_down`](Self::take_agent_down)), its load
    /// is evacuated, and one `FailAgent` / `DrainAgent` record journals
    /// the evacuation's steps, followed by a `ReadmitEnqueue` (or
    /// `ReadmitDrop`) record per displaced session. Replay installs
    /// those records; it never comes here.
    fn down_agent_inner(&self, agent: AgentId, drain: bool) -> (usize, usize) {
        let mut u = self.freeze_exclusive();
        // An id past the pool (a trace cut for a larger universe) names
        // no agent: answered like a session op on an unknown id.
        if agent.index() >= u.available.len() {
            return (0, 0);
        }
        Self::take_agent_down(&mut u, agent, drain);
        let steps = self.evacuate_locked(&mut u, agent);
        let (moves, forced) = self.count_evacuation(&steps);
        // Journaled by reference: a storm failure's steps are tens of
        // kilobytes, and a copy of them raised the process's peak RSS.
        let record = if drain {
            FleetOp::DrainAgent { agent, steps }
        } else {
            FleetOp::FailAgent { agent, steps }
        };
        self.log_op(|| &record);
        let (FleetOp::FailAgent { steps, .. } | FleetOp::DrainAgent { steps, .. }) = record else {
            unreachable!("built as an evacuation record above");
        };
        // Queue installs journal *after* the evacuation's record, under
        // the same FREEZE hold, so replay sees the displacement before
        // the enqueues that depend on it.
        let mut queued = Vec::new();
        let mut overflowed = Vec::new();
        for step in &steps {
            if let EvacStep::Displaced { session } = *step {
                match self.readmit_enqueue_locked(session) {
                    Some(entry) => queued.push(entry),
                    None => overflowed.push(session),
                }
            }
        }
        drop(u);
        // Every record is emitted after the exclusive section releases
        // (same rule as every other coarse op's records).
        self.note_evacuation(agent, moves, &steps);
        for entry in queued {
            self.obs.note_trace(
                TraceKind::ReadmitQueued,
                entry.session.index() as u32,
                entry.due_us,
            );
        }
        for s in overflowed {
            self.obs
                .note_trace(TraceKind::ReadmitDropped, s.index() as u32, 0);
        }
        (moves, forced)
    }

    /// Takes `agent` out of service under the caller's FREEZE write
    /// lock — unavailable, drained too for a drain — before any session
    /// moves. A live evacuation and its replay both start here.
    pub(crate) fn take_agent_down(u: &mut Universe, agent: AgentId, drain: bool) {
        u.available[agent.index()] = false;
        if drain {
            u.drained[agent.index()] = true;
        }
    }

    /// Moves `evacuations`, `forced_moves` and `displaced` by what an
    /// evacuation's `steps` did — the live evacuation once it has run,
    /// its replay once the steps are installed — and returns
    /// `(moves, forced)`.
    pub(crate) fn count_evacuation(&self, steps: &[EvacStep]) -> (usize, usize) {
        let (mut moves, mut forced, mut displaced) = (0, 0, 0);
        for step in steps {
            match *step {
                EvacStep::Moved { forced: f, .. } => {
                    moves += 1;
                    forced += usize::from(f);
                }
                EvacStep::Displaced { .. } => displaced += 1,
                EvacStep::Stuck => forced += 1,
            }
        }
        let c = &self.counters;
        c.evacuations.fetch_add(moves, Ordering::Relaxed);
        c.forced_moves.fetch_add(forced, Ordering::Relaxed);
        c.displaced.fetch_add(displaced, Ordering::Relaxed);
        (moves, forced)
    }

    /// The lifecycle events of an evacuation, read off its steps (the
    /// caller holds no FREEZE lock): the cause, then one `Evacuated`
    /// event per moved decision, naming its target.
    pub(crate) fn note_evacuation(&self, agent: AgentId, moves: usize, steps: &[EvacStep]) {
        let moves_word = u32::try_from(moves).unwrap_or(u32::MAX);
        self.obs.note_trace(
            TraceKind::AgentDown,
            FLEET_SCOPE,
            (agent.index() as u64) << 32 | u64::from(moves_word),
        );
        for step in steps {
            if let EvacStep::Moved {
                session, decision, ..
            } = *step
            {
                self.obs.note_trace(
                    TraceKind::Evacuated,
                    session.index() as u32,
                    decision.target().index() as u64,
                );
            }
        }
    }

    /// The evacuation proper (FREEZE write lock held), returning its
    /// steps in commit order: for each stranded decision — sessions
    /// ascending, users before tasks — the target is what
    /// [`churn::pick_target`] picks, the rule the closed world's
    /// `evacuate_agent` runs too: the feasible alternative minimizing
    /// `Φ_s`. When no feasible target exists: with re-admission enabled
    /// the *whole session* is displaced (its hold released, its slot
    /// removed) instead of overshooting a surviving agent; without it,
    /// the least-bad move is forced, preserving the historical
    /// behavior. The counters are the caller's
    /// ([`count_evacuation`](Self::count_evacuation)).
    ///
    /// **Cost.** One pass over the live slots collects the stranded
    /// decisions and the per-agent totals together; after that each
    /// stranded session compiles its conference once
    /// ([`Neighborhood::begin`]), and each of its stranded decisions
    /// costs O(agents) candidates, each what a hop's candidate costs —
    /// the delays the move invalidates and one fold, no conference
    /// compile — and checked by [`fits`] against the totals as they
    /// stand; the winner is re-derived once, kept as the base the
    /// session's next decision is weighed around
    /// ([`Neighborhood::commit`]) and committed as a hop commits
    /// (`relocate`), and every committed move or
    /// displacement updates the totals by delta (`remove(old)` /
    /// `add(new)`, the closed-world [`SystemState`] idiom). So an agent
    /// loss is O(live + stranded × agents) under the exclusive hold —
    /// time proportional to the stranded load, not stranded × live.
    ///
    /// **Determinism.** The totals come from slot holds, NOT from the
    /// ledger's reserved sums: the latter accumulate in journal-append
    /// order, which for concurrent hops can differ between a fleet and
    /// its recovered copy by a ulp — and a recovered fleet's later
    /// evacuations must pick exactly what its uncrashed twin picks.
    /// The totals start from the ascending slot sum, which recovery
    /// reproduces bit for bit, and receive the same update sequence in
    /// both, so they are bit-equal by construction. (Replay itself
    /// installs the journaled steps and reads no totals.) Against a
    /// from-scratch re-sum they may drift by ulps; the closing
    /// `debug_assert!` bounds that by `CAPACITY_EPS`.
    fn evacuate_locked(&self, u: &mut Universe, agent: AgentId) -> Vec<EvacStep> {
        let problem = &u.problem;
        let inst = problem.instance();
        let mut stranded: Vec<(SessionId, Decision)> = Vec::new();
        let mut totals = live_totals_locked(u, |s, slot| {
            for (i, &a) in slot.users().iter().enumerate() {
                if a == agent {
                    stranded.push((s, Decision::User(inst.session(s).users()[i], agent)));
                }
            }
            for (i, &a) in slot.tasks().iter().enumerate() {
                if a == agent {
                    stranded.push((s, Decision::Task(problem.tasks().of_session(s)[i], agent)));
                }
            }
        });
        let readmit_on = self.config.readmit.is_some();
        let mut eval = EvalScratch::new();
        let mut steps = Vec::with_capacity(stranded.len());
        // Stranded decisions are grouped by session: one compile each.
        for run in stranded.chunk_by(|a, b| a.0 == b.0) {
            let s = run[0].0;
            // The hold is exclusive: no slot lock is needed.
            let slot = u.slots.get_mut(&s).expect("stranded, so live").get_mut();
            let (users, tasks) = (slot.users().iter().copied(), slot.tasks().iter().copied());
            let mut hood = Neighborhood::begin(&mut eval, problem, s, users, tasks);
            for &(_, d) in run {
                let targets = inst
                    .agent_ids()
                    .filter(|&l| l != agent && u.available[l.index()]);
                let picked = churn::pick_target(&mut hood, d, targets, |load| {
                    fits(s, load, slot.hold(), &totals, inst).is_ok()
                });
                let (decision, forced) = match picked {
                    Some((decision, true)) => (decision, false),
                    _ if readmit_on => {
                        // No feasible target: displace the whole session
                        // into the re-admission queue instead of forcing
                        // an overshoot; its remaining decisions are moot.
                        totals.remove(slot.hold().demand());
                        self.ledger.release(slot.hold());
                        u.slots.remove(&s);
                        steps.push(EvacStep::Displaced { session: s });
                        break;
                    }
                    Some((decision, false)) => (decision, true),
                    None => {
                        // No other agent exists at all; nothing we can do.
                        steps.push(EvacStep::Stuck);
                        continue;
                    }
                };
                // Committed as a hop commits its draw: the kernel
                // re-derives the winner's load, names its slot entry and
                // keeps the move as the base the session's next stranded
                // decision is weighed around.
                let (index, moved) = hood.commit(decision);
                totals.remove(slot.hold().demand());
                totals.add(moved.demand());
                self.ledger.force_swap(slot.hold(), moved);
                slot.relocate(decision, index, moved);
                steps.push(EvacStep::Moved {
                    session: s,
                    decision,
                    forced,
                });
            }
        }
        debug_assert!(
            totals_drift(&totals, &live_totals_locked(u, |_, _| {})) <= CAPACITY_EPS,
            "delta-maintained evacuation totals drifted from the slot re-sum"
        );
        steps
    }

    /// Brings a failed agent back; Alg. 1 hops will migrate load onto it
    /// again as the Gibbs weights dictate. Returns whether the agent was
    /// actually restored: an id past the pool is refused, and **drained
    /// agents are refused** (a drain is a permanent, planned departure)
    /// — nothing is journaled for a refused restore, so replay never
    /// sees one. Coarse path.
    pub fn restore_agent(&self, agent: AgentId) -> bool {
        let mut frz = self.freeze_exclusive();
        if frz.drained.get(agent.index()) != Some(&false) {
            return false;
        }
        frz.available[agent.index()] = true;
        self.log_op(|| FleetOp::RestoreAgent { agent });
        drop(frz);
        self.obs
            .note_trace(TraceKind::AgentRestored, FLEET_SCOPE, agent.index() as u64);
        true
    }

    /// Advances the fleet's virtual-clock watermark (monotone max).
    /// Drive it alongside the worker pool's virtual time: new
    /// re-admission due times are `now + backoff`.
    pub fn set_clock_us(&self, t_us: u64) {
        self.clock_us.fetch_max(t_us, Ordering::Relaxed);
    }

    /// The virtual-clock watermark (µs).
    pub fn now_us(&self) -> u64 {
        self.clock_us.load(Ordering::Relaxed)
    }

    /// [`admit`](Self::admit), but a capacity/feasibility refusal lands
    /// the session in the re-admission queue (when enabled) for a
    /// deterministic backoff retry instead of being dropped on the
    /// floor. An `AlreadyLive` refusal never queues — retrying it cannot
    /// succeed.
    pub fn admit_or_queue(&self, s: SessionId) -> AdmitOutcome {
        match self.admit(s) {
            Ok(()) => AdmitOutcome::Admitted,
            Err(e @ AdmitError::AlreadyLive(_)) => AdmitOutcome::Refused(e),
            Err(e) => {
                if self.config.readmit.is_none() {
                    return AdmitOutcome::Refused(e);
                }
                let u = self.freeze_exclusive();
                let entry = self.readmit_enqueue_locked(s);
                drop(u);
                match entry {
                    Some(entry) => {
                        self.obs.note_trace(
                            TraceKind::ReadmitQueued,
                            s.index() as u32,
                            entry.due_us,
                        );
                        AdmitOutcome::Queued {
                            error: e,
                            due_us: entry.due_us,
                        }
                    }
                    None => {
                        self.obs
                            .note_trace(TraceKind::ReadmitDropped, s.index() as u32, 0);
                        AdmitOutcome::Refused(e)
                    }
                }
            }
        }
    }

    /// Enqueues `s` for re-admission (caller holds the FREEZE write
    /// lock). Returns the installed entry, or `None` if the bounded
    /// queue overflowed (counted + journaled as a drop). The journaled
    /// `ReadmitEnqueue` record carries everything replay needs — epoch,
    /// attempt, due time — so recovery installs rather than recomputes.
    fn readmit_enqueue_locked(&self, s: SessionId) -> Option<ReadmitEntry> {
        let cfg = self.config.readmit?;
        let (overflow, epoch) = {
            let q = self.readmit.lock();
            (
                q.entries.len() >= cfg.capacity.max(1) && !q.entries.contains_key(&s),
                q.epochs.get(&s).copied().unwrap_or(0) + 1,
            )
        };
        if overflow {
            self.readmit_drop_locked(s);
            return None;
        }
        let due_us = self.now_us() + backoff_us(&cfg, s, epoch, 0);
        let entry = ReadmitEntry {
            session: s,
            epoch,
            attempt: 0,
            due_us,
        };
        self.readmit_install(entry);
        self.log_op(|| FleetOp::ReadmitEnqueue {
            session: s,
            epoch,
            attempt: 0,
            due_us,
        });
        Some(entry)
    }

    /// Installs one queue entry — the shared primitive of the live
    /// enqueue paths and `ReadmitEnqueue` replay, so counters and the
    /// epoch watermark move identically in both worlds.
    pub(crate) fn readmit_install(&self, e: ReadmitEntry) {
        let mut q = self.readmit.lock();
        let w = q.epochs.entry(e.session).or_insert(0);
        *w = (*w).max(e.epoch);
        q.entries.insert(e.session, e);
        drop(q);
        self.counters
            .readmit_enqueued
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Retires `s`'s queue entry after a successful admission (live
    /// path and `Admit` replay both come through here). Counts only if
    /// an entry was actually present.
    pub(crate) fn readmit_note_admitted(&self, s: SessionId) {
        if self.config.readmit.is_none() {
            return;
        }
        let removed = self.readmit.lock().entries.remove(&s).is_some();
        if removed {
            self.counters
                .readmit_admitted
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Drops `s` from the queue under the FREEZE write lock (retry
    /// exhaustion, overflow, `ReadmitDrop` replay), journaling the drop.
    pub(crate) fn readmit_drop_locked(&self, s: SessionId) {
        self.readmit.lock().entries.remove(&s);
        self.counters
            .readmit_dropped
            .fetch_add(1, Ordering::Relaxed);
        self.log_op(|| FleetOp::ReadmitDrop { session: s });
    }

    /// Attempts the earliest-due queued re-admission at virtual time
    /// `now_us` (single-threaded virtual drive — `ReoptPool::tick_until`
    /// interleaves this with WAIT wakeups in due order). Returns the
    /// session if it was admitted back, `None` if nothing was due or
    /// the attempt failed (failed attempts re-enqueue with the next
    /// backoff draw, or drop once the retry budget is spent).
    pub fn readmit_attempt_one(&self, now_us: u64) -> Option<SessionId> {
        let cfg = self.config.readmit?;
        let entry = self.readmit.lock().next_due()?;
        if entry.due_us > now_us {
            return None;
        }
        self.set_clock_us(now_us);
        match self.admit(entry.session) {
            Ok(()) => {
                // `admit_locked`'s success path already retired the
                // entry and counted the heal.
                self.obs.note_trace(
                    TraceKind::ReadmitAdmitted,
                    entry.session.index() as u32,
                    u64::from(entry.attempt),
                );
                Some(entry.session)
            }
            Err(_) => {
                // The admission journaled its own Reject record; now
                // journal what happens to the queue entry.
                let u = self.freeze_exclusive();
                let still_there = self.readmit.lock().entries.get(&entry.session) == Some(&entry);
                if still_there {
                    if entry.attempt + 1 >= cfg.max_attempts {
                        self.readmit_drop_locked(entry.session);
                        drop(u);
                        self.obs.note_trace(
                            TraceKind::ReadmitDropped,
                            entry.session.index() as u32,
                            u64::from(entry.attempt + 1),
                        );
                    } else {
                        let attempt = entry.attempt + 1;
                        let due_us =
                            entry.due_us + backoff_us(&cfg, entry.session, entry.epoch, attempt);
                        let next = ReadmitEntry {
                            session: entry.session,
                            epoch: entry.epoch,
                            attempt,
                            due_us,
                        };
                        self.readmit_install(next);
                        self.log_op(|| FleetOp::ReadmitEnqueue {
                            session: next.session,
                            epoch: next.epoch,
                            attempt: next.attempt,
                            due_us: next.due_us,
                        });
                        drop(u);
                        self.obs.note_trace(
                            TraceKind::ReadmitQueued,
                            entry.session.index() as u32,
                            due_us,
                        );
                    }
                }
                None
            }
        }
    }

    /// Earliest pending re-admission due time (µs), if any.
    pub fn next_readmit_due(&self) -> Option<u64> {
        self.config.readmit?;
        self.readmit.lock().next_due().map(|e| e.due_us)
    }

    /// Number of sessions waiting in the re-admission queue.
    pub fn readmit_queue_len(&self) -> usize {
        self.readmit.lock().entries.len()
    }

    /// The queued re-admission entries, ascending by session (durable
    /// capture + test introspection).
    pub fn readmit_entries(&self) -> Vec<ReadmitEntry> {
        self.readmit.lock().entries.values().copied().collect()
    }

    /// Whether the attached journal is running degraded (a storage
    /// fault exhausted its fsync retries; appends buffer in memory
    /// until healed). Always `false` for ephemeral fleets.
    pub fn durability_degraded(&self) -> bool {
        self.persist
            .as_ref()
            .is_some_and(|p| p.journal.lock().degraded())
    }

    /// Total fsync retries the attached journal has burned (0 when
    /// ephemeral) — the telemetry-facing wear indicator.
    pub fn journal_sync_retries(&self) -> u64 {
        self.persist
            .as_ref()
            .map_or(0, |p| p.journal.lock().sync_retries())
    }

    /// One heal attempt on a degraded journal: cut back any torn tail,
    /// rewrite the buffered suffix, and fsync. Returns whether the
    /// journal is fully durable again (trivially true when ephemeral or
    /// never degraded).
    pub fn heal_journal(&self) -> bool {
        match &self.persist {
            Some(p) => p.journal.lock().try_heal(),
            None => true,
        }
    }

    /// One Alg. 1 HOP for session `s` (convenience wrapper allocating a
    /// fresh scratch — worker pools use
    /// [`hop_session_with`](Self::hop_session_with), which also says what
    /// an id that is not live gets).
    pub fn hop_session<R: Rng + ?Sized>(&self, s: SessionId, rng: &mut R) -> HopOutcome {
        let mut scratch = FleetHopScratch::new();
        self.hop_session_with(s, rng, &mut scratch)
    }

    /// One Alg. 1 HOP for session `s` under the **shared** FREEZE lock:
    /// the session's candidates — swept now, or re-read from the memo
    /// its slot kept (module docs, "A hop is a sweep and a draw") — are
    /// checked against the ledger's residual snapshot and sampled
    /// (allocation-free via `scratch`), and a chosen migration commits
    /// through the ledger's checked
    /// [`try_swap`](CapacityLedger::try_swap) — losing a capacity race
    /// to a concurrent hop simply stays put. An id that is not live
    /// (registered or not) has no slot to hop: it answers
    /// [`HopOutcome::NoFeasibleMove`], nothing counted or journaled.
    pub fn hop_session_with<R: Rng + ?Sized>(
        &self,
        s: SessionId,
        rng: &mut R,
        scratch: &mut FleetHopScratch,
    ) -> HopOutcome {
        self.hop_live_with(s, rng, scratch)
            .unwrap_or(HopOutcome::NoFeasibleMove)
    }

    /// [`hop_session_with`](Self::hop_session_with), telling an id that
    /// is not live (`None`) from a live session with nowhere to go —
    /// what the worker pool re-arms its timers on.
    pub(crate) fn hop_live_with<R: Rng + ?Sized>(
        &self,
        s: SessionId,
        rng: &mut R,
        scratch: &mut FleetHopScratch,
    ) -> Option<HopOutcome> {
        // Spans are sampled 1-in-64 (`timer_sampled`): two clock reads
        // are a tenth of a hop that only draws, and percentiles over
        // 1/64 of the stream are statistically the same. The event ring
        // sees a hop only where it did something — a migration
        // (`commit_hop`) or a lost swap — stamped with the last sampled
        // time; a stay changes nothing and is counted, not recorded.
        let t0 = self.obs.timer_sampled();
        let live = self.hop_inner(s, rng, scratch);
        if let Some(t0) = t0 {
            self.obs.record_sampled(Site::Hop, t0);
        }
        live
    }

    /// The hop proper (see [`hop_session_with`](Self::hop_session_with));
    /// `None` when `s` has no slot.
    fn hop_inner<R: Rng + ?Sized>(
        &self,
        s: SessionId,
        rng: &mut R,
        scratch: &mut FleetHopScratch,
    ) -> Option<HopOutcome> {
        // FREEZE shared acquisition: the uncontended fast path is a
        // plain count (no clock read); only a contended wait — a
        // coarse op holds the lock exclusively — is worth a histogram.
        let (universe, fast) = match self.freeze.try_read() {
            Some(guard) => (guard, true),
            None => {
                let tw = self.obs.timer();
                let guard = self.freeze.read();
                self.obs.record_since(Site::FreezeRead, tw);
                (guard, false)
            }
        };
        let FleetHopScratch {
            hop,
            reserved,
            tally,
        } = scratch;
        let mut counts = self.obs.enabled().then(|| tally.of(&self.obs));
        if let Some(counts) = &mut counts {
            counts.freeze_read_fast += u64::from(fast);
        }
        let problem = &universe.problem;
        let mut slot = universe.slots.get(&s)?.lock();
        let HopScratch {
            eval,
            memo: swept,
            candidates,
        } = hop;
        self.ledger.reserved_totals_into(reserved);
        let (users, tasks, hold, phi_now, kept) = slot.hop_view();
        let hit = kept.is_some();
        let inst = problem.instance();
        let mut ctx = HopContext {
            beta: self.engine.config().beta,
            phi_now,
            d_max_ms: inst.d_max_ms(),
            allowed: |l: AgentId| universe.available[l.index()],
            fits: |demand: &[AgentDemand]| {
                demand_fits(demand.iter().copied(), hold, reserved, inst).is_ok()
            },
        };
        // A hit compiles nothing unless its draw has to weigh a
        // candidate after all.
        let mut hood = Neighborhood::deferred(eval, problem, s, users, tasks);
        let outcome = match kept {
            Some(kept) => {
                candidates.reset_counts();
                (self.engine).draw(&mut hood, &mut ctx, kept, candidates, rng)
            }
            None => (self.engine).gibbs_step(&mut hood, &mut ctx, swept, candidates, rng),
        };
        if let Some(counts) = counts {
            counts.memo_hits += u64::from(hit);
            counts.candidates_bounded += u64::from(candidates.bounded);
            counts.candidates_folded += u64::from(candidates.folded);
        }
        if let HopOutcome::Migrated(decision) = outcome {
            // The kernel derives the drawn candidate's load (the bits
            // its fold during the sweep gave, or would have given) and
            // names its slot, which serves both the journaled old
            // assignment and the commit below. Whatever the migration
            // was drawn from, the ledger's checked `try_swap` decides.
            let (index, moved) = hood.candidate(decision);
            let swap = self.ledger.try_swap(hold, moved);
            // Attempt/conflict counters keyed by session — no clock
            // reads; contention shows up as a conflict ratio, not a
            // latency. The plane masks the key onto its counter shards
            // itself.
            self.obs.note_swap(s.index(), swap.is_err());
            if swap.is_ok() {
                let old_agent = self.commit_hop(s, &mut slot, decision, index, eval.load());
                self.log_op(|| FleetOp::Hop {
                    session: s,
                    decision,
                    old_agent,
                });
                return Some(outcome);
            }
            // A concurrent hop consumed the capacity between the
            // residual snapshot and the commit — stay put.
            self.obs.note_trace_coarse(
                TraceKind::SwapConflict,
                s.index() as u32,
                (s.index() % self.ledger.num_shards()) as u64,
            );
        }
        // The session stays where it was swept: what a miss swept is
        // the next hop's memo, copied once.
        if !hit && self.engine.keeps_memos() {
            slot.keep_memo(swept);
        }
        self.counters.stays.fetch_add(1, Ordering::Relaxed);
        self.note_stay();
        Some(match outcome {
            HopOutcome::NoFeasibleMove => outcome,
            _ => HopOutcome::Stayed,
        })
    }

    /// Commits a weighed migration whose hold the ledger has already
    /// swapped in — the live hop after its checked `try_swap`, `Hop`
    /// replay after its `force_swap`: moves the slot by `decision`
    /// (`index` its [`UapProblem::local_index`]), copying `load` in
    /// ([`SessionSlot::relocate`] — the slot's memo goes with its old
    /// placement), counts the migration and emits its `HopCommitted`
    /// event, the ΔΦ read off the two `Φ` at hand (no clock read: a
    /// hop's events carry the last sampled time). Returns the agent
    /// moved from.
    pub(crate) fn commit_hop(
        &self,
        s: SessionId,
        slot: &mut SessionSlot,
        decision: Decision,
        index: usize,
        load: &SessionLoad,
    ) -> AgentId {
        self.counters.migrations.fetch_add(1, Ordering::Relaxed);
        self.obs.note_trace_coarse(
            TraceKind::HopCommitted,
            s.index() as u32,
            (load.phi - slot.phi()).to_bits(),
        );
        slot.relocate(decision, index, load)
    }

    /// Drops every live slot's hop memo, so the next hop of each
    /// session sweeps — what the retained ≡ forgotten twin tests call
    /// before every hop of the forgetful twin.
    #[cfg(test)]
    pub(crate) fn forget_hop_memos(&self) {
        for (_, mut slot) in self.freeze.read().live_slots() {
            slot.retire_memo();
        }
    }

    /// Whether session `s` is live (`false` for any other id, registered or not).
    pub fn is_live(&self, s: SessionId) -> bool {
        self.freeze.read().slots.contains_key(&s)
    }

    /// Number of live sessions (read under the shared FREEZE lock).
    pub fn live_count(&self) -> usize {
        self.freeze.read().slots.len()
    }

    /// The reservation session `s` holds — its slot's hold, as the
    /// ledger booked it; `None` for any id that is not live.
    pub fn hold_of(&self, s: SessionId) -> Option<SessionHold> {
        let u = self.freeze.read();
        let slot = u.slots.get(&s)?.lock();
        Some(slot.hold().clone())
    }

    /// One pass over the slots (under the shared FREEZE lock; per-slot
    /// consistency — the telemetry contract).
    pub(crate) fn metrics(&self) -> FleetMetrics {
        let u = self.freeze.read();
        let mut acc = MetricsAcc::default();
        for (_, slot) in u.live_slots() {
            acc.add(&slot);
        }
        acc.finish()
    }

    /// [`metrics`](Self::metrics) and [`audit`](Self::audit) from a
    /// single slot pass under one exclusive FREEZE acquisition — the
    /// telemetry sample, which would otherwise walk every live slot
    /// twice.
    pub(crate) fn metrics_and_audit(&self) -> (FleetMetrics, Vec<String>) {
        let u = self.freeze_exclusive();
        let mut acc = MetricsAcc::default();
        let totals = live_totals_locked(&u, |_, slot| acc.add(slot));
        (acc.finish(), self.ledger.audit_against_totals(&totals))
    }

    /// Global objective over live sessions (deterministic: summed from
    /// zero in ascending session order, so a recovered fleet reproduces
    /// it bitwise).
    pub fn objective(&self) -> f64 {
        self.metrics().objective
    }

    /// Mean objective per live session (0 when idle) — the fleet-level
    /// quality figure reported by telemetry.
    pub fn mean_session_objective(&self) -> f64 {
        let m = self.metrics();
        if m.live == 0 {
            0.0
        } else {
            m.objective / m.live as f64
        }
    }

    /// Total inter-agent traffic (Mbps).
    pub fn total_traffic_mbps(&self) -> f64 {
        self.metrics().traffic_mbps
    }

    /// Mean conferencing delay over live users (ms).
    pub fn mean_delay_ms(&self) -> f64 {
        self.metrics().mean_delay_ms
    }

    /// Ids of the currently live sessions, ascending.
    pub fn live_sessions(&self) -> Vec<SessionId> {
        let u = self.freeze.read();
        u.live_slots().map(|(s, _)| s).collect()
    }

    /// Materializes a full [`SystemState`] (assignment, active set,
    /// loads, availability) and runs `f` on it, under the FREEZE write
    /// lock. This re-evaluates every live session — an offline-analysis
    /// convenience, not a hot path.
    pub fn with_state<T>(&self, f: impl FnOnce(&SystemState) -> T) -> T {
        let u = self.freeze_exclusive();
        let state = self.materialize_locked(&u);
        f(&state)
    }

    /// Scatters the live slots into global instance-indexed vectors:
    /// `(λ: user → agent, γ: task → agent, active mask)`; a session that
    /// is not live reads agent 0. Allocating the dense vectors (the v6
    /// snapshot's shape) is the one per-universe cost left. Caller holds
    /// the FREEZE write lock (or exclusive ownership of a fresh fleet).
    /// Shared by state materialization and the durable snapshot capture.
    pub(crate) fn global_placements_locked(
        &self,
        u: &Universe,
    ) -> (Vec<AgentId>, Vec<AgentId>, Vec<bool>) {
        let inst = u.problem.instance();
        let mut user_agents = vec![AgentId::new(0); inst.num_users()];
        let mut task_agents = vec![AgentId::new(0); u.problem.tasks().len()];
        let mut active = vec![false; inst.num_sessions()];
        for (s, slot) in u.live_slots() {
            for (i, &w) in inst.session(s).users().iter().enumerate() {
                user_agents[w.index()] = slot.users()[i];
            }
            for (i, &t) in u.problem.tasks().of_session(s).iter().enumerate() {
                task_agents[t.index()] = slot.tasks()[i];
            }
            active[s.index()] = true;
        }
        (user_agents, task_agents, active)
    }

    fn materialize_locked(&self, u: &Universe) -> SystemState {
        let (user_agents, task_agents, active) = self.global_placements_locked(u);
        let assignment = Assignment::new(&u.problem, user_agents, task_agents);
        let mut state = SystemState::with_active(u.problem.clone(), assignment, active);
        for l in u.problem.instance().agent_ids() {
            if !u.available[l.index()] {
                state.set_agent_available(l, false);
            }
        }
        state
    }

    /// Re-evaluates every live slot from scratch and returns the largest
    /// absolute discrepancy against the stored holds and `Φ` (then
    /// installs the fresh values, swapping the ledger from each stored
    /// hold that differs to the fresh one, so the slots stay the
    /// holds). The standing self-check that the allocation-free scratch
    /// path and a cold evaluation agree. Without drift the ledger is
    /// untouched.
    pub fn load_drift(&self) -> f64 {
        let u = self.freeze_exclusive();
        let mut scratch = EvalScratch::new();
        let mut drift: f64 = 0.0;
        for (s, mut slot) in u.live_slots() {
            let fresh = evaluate_slot(&u.problem, s, &slot, &mut scratch);
            // Both sides' agents: stale load on an agent the fresh
            // evaluation does NOT touch must count as drift too
            // (duplicate visits are harmless for a max-of-abs).
            let stored = slot.hold();
            let fresh_side = fresh.demand().map(|d| (d, stored.held_at(d.agent)));
            let stored_side = stored.demand().map(|h| (fresh.demand_at(h.agent), h));
            for (f, h) in fresh_side.chain(stored_side) {
                drift = drift.max((f.download - h.download).abs());
                drift = drift.max((f.upload - h.upload).abs());
            }
            drift = drift.max((fresh.phi - slot.phi()).abs());
            if !fresh.agent_holds().eq(stored.holds.iter().copied()) {
                self.ledger.force_swap(stored, fresh);
            }
            slot.reload(fresh);
        }
        drift
    }

    /// Ledger-vs-state conservation audit (empty = conserved): per
    /// agent, the ledger's booked totals must equal the sum of the live
    /// slot holds. The slots are the holds, so there is no second set of
    /// holding sessions to compare. Coarse path.
    pub fn audit(&self) -> Vec<String> {
        let u = self.freeze_exclusive();
        self.ledger
            .audit_against_totals(&live_totals_locked(&u, |_, _| {}))
    }

    /// Appends one journal record, building it lazily so ephemeral
    /// fleets pay nothing (or borrowing one the caller keeps). Called
    /// with the mutated slot's lock (or the FREEZE write lock) held;
    /// all appends serialize on the journal mutex, whose sequence
    /// numbers are the fleet's global mutation order. A journal write
    /// failure is fail-stop: durability was promised and can no longer
    /// be provided.
    pub(crate) fn log_op<'r, O: Borrow<FleetOp<'r>>>(&self, op: impl FnOnce() -> O) {
        if let Some(p) = &self.persist {
            p.journal
                .lock()
                .append(op().borrow())
                .expect("write-ahead journal append failed");
        }
    }

    /// Records a counter-only stay for the journal's batched
    /// `StayBatch` stream (no-op on ephemeral fleets). Batches flush at
    /// the configured threshold and at every durability boundary
    /// ([`commit_journal`](Fleet::commit_journal),
    /// [`checkpoint`](Fleet::checkpoint),
    /// [`durable_state`](Fleet::durable_state)).
    pub(crate) fn note_stay(&self) {
        if let Some(p) = &self.persist {
            let pending = self.pending_stays.fetch_add(1, Ordering::Relaxed) + 1;
            if pending >= p.stay_batch as u64 {
                self.flush_stays();
            }
        }
    }

    /// Flushes pending stays as one `StayBatch` journal record.
    pub(crate) fn flush_stays(&self) {
        if let Some(p) = &self.persist {
            let count = self.pending_stays.swap(0, Ordering::Relaxed);
            if count > 0 {
                p.journal
                    .lock()
                    .append(&FleetOp::StayBatch { count })
                    .expect("write-ahead journal append failed");
            }
        }
    }
}

/// Sums the live slot holds in ascending session order — bit-
/// deterministic given the slots, unlike the ledger's reserved sums,
/// which accumulate in commit order — handing each live slot to `visit`
/// on the way. Caller holds the FREEZE write lock and no slot lock
/// (every slot is locked in turn).
fn live_totals_locked(u: &Universe, mut visit: impl FnMut(SessionId, &SessionSlot)) -> AgentTotals {
    let mut totals = AgentTotals::zero(u.problem.instance().num_agents());
    for (s, slot) in u.live_slots() {
        totals.add(slot.hold().demand());
        visit(s, &slot);
    }
    totals
}

/// Largest per-agent bandwidth gap between two totals (`+∞` when the
/// integer transcode counts disagree).
fn totals_drift(a: &AgentTotals, b: &AgentTotals) -> f64 {
    if a.transcode != b.transcode {
        return f64::INFINITY;
    }
    let gap = |x: &[f64], y: &[f64]| {
        x.iter()
            .zip(y)
            .map(|(p, q)| (p - q).abs())
            .fold(0.0, f64::max)
    };
    gap(&a.download, &b.download).max(gap(&a.upload, &b.upload))
}

/// FNV-1a over a slot's committed placement (user agents then task
/// agents, in slot order) — the `Admitted` lifecycle event's payload.
/// Two admissions that land the identical placement hash identically,
/// across processes and restarts.
pub(crate) fn placement_hash(slot: &SessionSlot) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &a in slot.users().iter().chain(slot.tasks()) {
        h = (h ^ a.index() as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

impl Evaluated for SessionLoad {
    fn phi(&self) -> f64 {
        self.phi
    }

    fn ingress_mbps(&self) -> f64 {
        self.total_ingress_mbps()
    }

    fn user_delay(&self) -> &[f64] {
        &self.user_delay
    }
}

/// Evaluates `slot`'s current placement for session `s` into `scratch`:
/// the slot's agents are already in session order, so the compiled
/// conference weighs them as they are.
pub(crate) fn evaluate_slot<'a>(
    problem: &UapProblem,
    s: SessionId,
    slot: &SessionSlot,
    scratch: &'a mut EvalScratch,
) -> &'a SessionLoad {
    scratch.compile(problem, s);
    scratch.weigh(
        problem,
        slot.users().iter().copied(),
        slot.tasks().iter().copied(),
    )
}
