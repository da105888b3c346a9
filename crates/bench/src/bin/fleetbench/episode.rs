//! One episode of one workload: set-up, the timed section (virtual
//! clock or wall clock), and the common crash/recover epilogue with its
//! correctness gate. Everything the product sees is generated here from
//! the workload's frozen constants and the seed.

use crate::spans::{Layer, Tracer};
use crate::spec::{self, Spec};
use crate::stats::{self, LiveIntegral, ThreadCpu};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_algo::markov::Alg1Config;
use vc_chaos::{FaultKind, FaultPlan, StormConfig};
use vc_core::UapProblem;
use vc_cost::CostModel;
use vc_model::{AgentDef, AgentId, Instance, SessionDef, SessionId, UserId};
use vc_obs::{HistSummary, Site};
use vc_orchestrator::{
    fleet_metrics_text, CounterSnapshot, DurableFleetState, Fleet, FleetConfig, FleetTelemetry,
    PersistConfig, PlacementPolicy, ReadmitConfig, ReoptPool,
};
use vc_persist::journal::FsyncPolicy;
use vc_workloads::{
    large_scale_instance, open_world_trace, LargeScaleConfig, OpenWorldConfig, OpenWorldEvent,
};

/// Recoveries timed per episode, each from its own byte copy of the
/// crashed store (recovery re-checkpoints, so a copy is single-use).
const RECOVERIES_PER_EPISODE: usize = 2;

/// A directory under `./.fleetbench-tmp` that is removed when dropped —
/// on success, on a failed gate and on a panic alike.
#[derive(Debug)]
pub struct TempDir(PathBuf);

impl TempDir {
    /// A fresh, uniquely named directory. The benchmark contract allows
    /// writes only inside the checkout it runs from, so stores live
    /// under the working directory rather than the OS temp dir.
    pub fn new(label: &str) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = PathBuf::from(".fleetbench-tmp").join(format!(
            "{}-{}-{label}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave nothing behind once the last run's directory is gone.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// One step of the merged timeline the driver replays.
#[derive(Debug, Clone)]
enum Action {
    /// Register the seed agents' clones online into region `west`.
    Grow,
    /// Crash the busiest available agent (storm epoch `.0`).
    Fail(u64),
    /// Bring back the agent that epoch's crash took out.
    Restore(u64),
    /// Drain the busiest available agent for good.
    Drain,
    Depart(SessionId),
    Arrive(SessionDef),
    Checkpoint,
    Sample,
}

impl Action {
    /// Order among actions due at the same microsecond.
    fn priority(&self) -> u8 {
        match self {
            Self::Grow => 0,
            Self::Fail(_) | Self::Restore(_) | Self::Drain => 1,
            Self::Depart(_) => 2,
            Self::Arrive(_) => 3,
            Self::Checkpoint => 4,
            Self::Sample => 5,
        }
    }
}

/// The generated inputs of one episode.
struct Inputs {
    /// Handed to the fleet, which then owns the only reference (so the
    /// product's copy-on-write growth mutates in place).
    problem: Arc<UapProblem>,
    /// An independent copy of the seed problem for the recoveries.
    recover_problem: Arc<UapProblem>,
    actions: Vec<(u64, Action)>,
    problem_build_s: f64,
    trace_gen_s: f64,
}

fn to_us(t_s: f64) -> u64 {
    (t_s * 1e6) as u64
}

fn instance_config(spec: &Spec, capacity_scale: f64) -> LargeScaleConfig {
    let sessions = spec.expected_sessions();
    LargeScaleConfig {
        num_users: spec.seed_users,
        max_session_size: 5,
        mean_bandwidth_mbps: Some(capacity_scale * spec::HOP_BENCH_MBPS_PER_SESSION * sessions),
        mean_transcode_slots: Some(capacity_scale * spec::HOP_BENCH_SLOTS_PER_SESSION * sessions),
        seed: spec::INSTANCE_SEED,
        ..LargeScaleConfig::default()
    }
}

/// The deployment `spec` runs on — the seven agents, their capacity
/// draws and the conferences live at t = 0 — with capacities scaled
/// from `hop_bench`'s sizing. It is a frozen constant of the workload,
/// like its sizes; `--seed` drives everything that happens to it.
pub fn build_problem(spec: &Spec, capacity_scale: f64) -> UapProblem {
    UapProblem::new(
        large_scale_instance(&instance_config(spec, capacity_scale)),
        CostModel::paper_default(),
    )
}

fn generate(spec: &Spec, seed: u64) -> Inputs {
    let t0 = Instant::now();
    let problem = build_problem(spec, spec.capacity_scale);
    let recover_problem = Arc::new(problem.clone());
    let problem = Arc::new(problem);
    let problem_build_s = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let seed_sessions = problem.instance().num_sessions();
    let seed_agents = problem.instance().num_agents();
    let horizon_us = to_us(spec.horizon_s);
    let agent_points: Vec<_> = vc_net::sites::ec2_seven()
        .iter()
        .map(|s| s.point())
        .collect();
    let trace = open_world_trace(
        &agent_points,
        seed_sessions,
        &OpenWorldConfig {
            horizon_s: spec.horizon_s,
            mean_interarrival_s: spec.holding_s / seed_sessions as f64,
            mean_holding_s: spec.holding_s,
            seed: seed ^ 0x6f70_656e, // "open"
            ..OpenWorldConfig::default()
        },
    );
    let grow_us = spec.storm.as_ref().map(|s| to_us(s.grow_at_s));
    let mut actions: Vec<(u64, Action)> = Vec::with_capacity(trace.events.len() * 2);
    for (t, event) in trace.events {
        let t_us = to_us(t);
        actions.push((
            t_us,
            match event {
                OpenWorldEvent::Arrive(mut def) => {
                    // Conferences arriving after the growth see the
                    // clones too, at their originals' delays.
                    if grow_us.is_some_and(|g| t_us >= g) {
                        for u in &mut def.users {
                            u.agent_delays_ms.extend_from_within(..seed_agents);
                        }
                    }
                    Action::Arrive(def)
                }
                OpenWorldEvent::Depart(s) => Action::Depart(s),
            },
        ));
    }
    // Seed conferences are mid-life at t = 0: exponential lifetimes are
    // memoryless, so their residual lifetimes are exponential too.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_6564); // "seed"
    for i in 0..seed_sessions {
        let life_us = to_us(-rng.gen::<f64>().max(1e-300).ln() * spec.holding_s);
        if life_us <= horizon_us {
            actions.push((life_us, Action::Depart(SessionId::from(i))));
        }
    }
    if let Some(storm) = &spec.storm {
        actions.extend(storm_actions(storm, seed_agents));
    }
    if !spec.wall {
        let period_us = to_us(spec::SAMPLE_PERIOD_S);
        let mut t = period_us;
        while t < horizon_us {
            actions.push((t, Action::Sample));
            t += period_us;
        }
        actions.push((horizon_us, Action::Sample));
        if spec.checkpoint_every_s > 0.0 {
            let period_us = to_us(spec.checkpoint_every_s);
            let mut t = period_us;
            while t < horizon_us {
                actions.push((t, Action::Checkpoint));
                t += period_us;
            }
        }
    }
    actions.retain(|(t, _)| *t <= horizon_us);
    actions.sort_by_key(|(t, a)| (*t, a.priority()));
    Inputs {
        problem,
        recover_problem,
        actions,
        problem_build_s,
        trace_gen_s: t0.elapsed().as_secs_f64(),
    }
}

/// Agents by how many live conferences hold capacity on them, busiest
/// first (ties to the lower id). Read from the durable state's
/// holdings, not from the ledger.
fn agents_by_load(state: &DurableFleetState) -> Vec<AgentId> {
    let mut sessions_on = vec![0usize; state.available.len()];
    for (_, hold) in &state.holdings {
        for h in &hold.holds {
            sessions_on[h.agent.index()] += 1;
        }
    }
    let mut agents: Vec<usize> = (0..sessions_on.len()).collect();
    agents.sort_by_key(|&l| (std::cmp::Reverse(sessions_on[l]), l));
    agents.into_iter().map(AgentId::from).collect()
}

/// The faults of `storm_recover`. `FaultPlan::storm` supplies the
/// schedule (epochs, crash instants, downtimes); the victim of each
/// crash is chosen when it happens — the busiest agent then available —
/// so every evacuation moves a real share of the fleet however the
/// placement policy spreads load.
fn storm_actions(storm: &spec::Storm, seed_agents: usize) -> Vec<(u64, Action)> {
    let plan = FaultPlan::storm(&StormConfig {
        // When agents fail is part of the deployment's story, fixed
        // like the deployment itself.
        seed: spec::INSTANCE_SEED,
        agents: (0..seed_agents as u32).collect(),
        start_s: storm.start_s,
        period_s: storm.period_s,
        epochs: storm.epochs,
    });
    let mut actions: Vec<(u64, Action)> = plan
        .events()
        .iter()
        .map(|e| {
            (
                e.t_us,
                match e.kind {
                    FaultKind::FailAgent(_) => Action::Fail(e.epoch),
                    FaultKind::RestoreAgent(_) => Action::Restore(e.epoch),
                },
            )
        })
        .collect();
    actions.push((to_us(storm.grow_at_s), Action::Grow));
    actions.push((to_us(storm.checkpoint_at_s), Action::Checkpoint));
    actions.push((to_us(storm.drain_at_s), Action::Drain));
    actions
}

fn fleet_config(spec: &Spec, seed: u64, seed_sessions: usize) -> FleetConfig {
    let default = FleetConfig::default();
    FleetConfig {
        placement: if spec.nearest {
            PlacementPolicy::Nearest
        } else {
            default.placement.clone()
        },
        alg1: Alg1Config {
            mean_countdown_s: spec.countdown_s,
            ..Alg1Config::paper(spec::BETA)
        },
        // Sized to the fleet: a whole agent's conferences may queue.
        readmit: spec.storm.as_ref().map(|_| ReadmitConfig {
            capacity: seed_sessions,
            seed,
            ..ReadmitConfig::default()
        }),
        ..default
    }
}

fn persist_config(dir: &Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Batch(spec::FSYNC_BATCH),
        stay_batch: spec::STAY_BATCH,
    }
}

/// What makes two runs of a virtual-clock workload "the same run".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub hops: u64,
    pub migrations: u64,
    pub admitted: u64,
    pub refused: u64,
    pub phi_bits: u64,
    /// FNV-1a of the encoded durable state.
    pub state_fnv: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "hops={} migrations={} admitted={} refused={} phi={:016x} state={:016x}",
            self.hops, self.migrations, self.admitted, self.refused, self.phi_bits, self.state_fnv
        )
    }
}

/// Program-reported numbers, read through `Fleet::obs()`.
#[derive(Debug, Clone, Default)]
pub struct ObsReadout {
    pub hop: HistSummary,
    pub wait_dispatch: HistSummary,
    pub freeze_read: HistSummary,
    pub freeze_write_wait: HistSummary,
    pub freeze_write_hold: HistSummary,
    pub journal_append: HistSummary,
    pub journal_fsync: HistSummary,
    pub sched_lock: HistSummary,
    pub freeze_read_fast: u64,
    pub swap_attempts: u64,
    pub swap_conflicts: u64,
}

/// The recovered fleet of an episode, kept for the post-run probes.
#[derive(Debug)]
pub struct Disposable {
    pub fleet: Fleet,
    /// Conferences live in it.
    pub live: Vec<SessionId>,
    /// The agent most of them hold capacity on.
    pub busiest: AgentId,
    /// The crashed store's journal files (on disk while `dir` lives).
    pub journals: Vec<PathBuf>,
    /// The episode's directory; probes may write scratch files into it.
    pub dir: TempDir,
}

/// Everything one episode measured.
#[derive(Debug)]
pub struct Episode {
    /// The set-up in pieces: the problem, the trace, the store, the warm
    /// admissions in batches, `register_batch`.
    pub setup_segment_s: Vec<f64>,
    pub problem_build_s: f64,
    pub trace_gen_s: f64,
    pub register_batch_s: f64,
    pub events: usize,
    pub timed_wall_s: f64,
    /// `timed_wall_s` cut at every telemetry sample: the same stretch of
    /// the same work in every episode of a run (one piece on the wall
    /// clock, where the budget is fixed).
    pub segment_s: Vec<f64>,
    /// CPU time (user + system) over the timed section, cut like
    /// `segment_s`: on the virtual clock the driving thread's, which is
    /// the only thread there is; on the wall clock the whole process's.
    pub segment_cpu_s: Vec<f64>,
    pub participant_minutes: f64,
    pub hops: u64,
    pub tick_calls: u64,
    pub joins: u64,
    pub refused: u64,
    pub departs: u64,
    pub agent_ops: u64,
    /// Join latencies (µs, in arrival order), refusals included.
    pub join_us: Vec<f64>,
    /// Open-loop generator lateness (µs, ascending); wall clock only.
    pub late_us: Vec<f64>,
    pub fail_moves: u64,
    pub fail_forced: u64,
    pub drain_moves: u64,
    pub recover_s: Vec<f64>,
    /// The process's `VmHWM` after the recoveries (MB).
    pub peak_rss_mb: f64,
    pub replayed: usize,
    /// Mean Φ_s per live conference and `Fleet::mean_delay_ms`, averaged
    /// over the telemetry samples (read once at the horizon where the
    /// workload takes no samples).
    pub objective_per_session: f64,
    pub mean_delay_ms: f64,
    pub counters: CounterSnapshot,
    pub fingerprint: Fingerprint,
    pub snapshot_encode_ms: f64,
    pub snapshot_bytes: usize,
    pub store_bytes: u64,
    pub journal_bytes: u64,
    pub journal_records: u64,
    pub sched_acquires: u64,
    pub sched_conflicts: u64,
    pub stale_reclaimed: u64,
    pub obs: ObsReadout,
    pub tracer: Tracer,
    /// `tracer`'s span durations (µs, ascending) by `Layer as usize`.
    pub layer_us: Vec<Vec<f64>>,
    pub disposable: Option<Disposable>,
}

impl Episode {
    pub fn ops(&self) -> u64 {
        self.hops + self.joins + self.departs + self.agent_ops
    }

    /// (refused joins + dropped re-admissions) / attempted joins.
    pub fn failed_fraction(&self) -> f64 {
        (self.refused + self.counters.readmit_dropped) as f64 / self.joins.max(1) as f64
    }
}

/// The driver's mutable state while it replays the timeline.
struct Driver<'a> {
    fleet: &'a Fleet,
    pool: &'a ReoptPool,
    instance: &'a Instance,
    tracer: Tracer,
    telemetry: FleetTelemetry,
    samples: usize,
    thread_cpu: ThreadCpu,
    /// When each sample began, and the thread's CPU time then.
    marks: Vec<(Instant, f64)>,
    /// Sums over the samples of Φ per live conference and mean delay.
    objective_sum: f64,
    delay_sum: f64,
    integral: LiveIntegral,
    /// Users of every conference registered so far, by session index,
    /// and whether it joined and has not left yet.
    users_of: Vec<u8>,
    joined: Vec<bool>,
    joined_count: usize,
    /// Arrivals registered so far (their delay rows size a new agent).
    arrived: Vec<&'a SessionDef>,
    hops: u64,
    tick_calls: u64,
    joins: u64,
    refused: u64,
    departs: u64,
    agent_ops: u64,
    join_us: Vec<f64>,
    fail_moves: u64,
    fail_forced: u64,
    drain_moves: u64,
    /// `(storm epoch, agent)` of every crash not yet restored.
    down: Vec<(u64, AgentId)>,
}

impl<'a> Driver<'a> {
    /// The agent most live conferences hold capacity on, among those
    /// that can still be taken out.
    fn busiest_available(&mut self) -> Option<AgentId> {
        let span = self.tracer.begin(Layer::DurableState);
        let state = self.fleet.durable_state();
        self.tracer.end(span);
        agents_by_load(&state)
            .into_iter()
            .find(|a| state.available[a.index()] && !state.drained[a.index()])
    }

    /// Applies one action at `t_s`. A join's latency runs from `due`
    /// when the loop is open (so a stall is charged to the arrivals it
    /// delayed), from the call otherwise.
    fn apply(&mut self, t_s: f64, action: &'a Action, due: Option<Instant>) -> Result<(), String> {
        self.integral.advance(t_s);
        match action {
            Action::Arrive(def) => {
                let t0 = due.unwrap_or_else(Instant::now);
                let join = self.tracer.begin(Layer::Join);
                let span = self.tracer.begin(Layer::RegisterSession);
                let registered = self.fleet.register_session(def);
                self.tracer.end(span);
                let s = registered.map_err(|e| format!("register_session failed: {e}"))?;
                let span = self.tracer.begin(Layer::Admit);
                let admitted = self.fleet.admit(s).is_ok();
                self.tracer.end(span);
                if admitted {
                    let span = self.tracer.begin(Layer::PoolRegister);
                    self.pool.register(self.fleet, s, t_s);
                    self.tracer.end(span);
                }
                self.tracer.end(join);
                self.join_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                self.joins += 1;
                debug_assert_eq!(s.index(), self.users_of.len(), "session ids are dense");
                self.users_of.push(def.users.len() as u8);
                self.joined.push(admitted);
                self.arrived.push(def);
                if admitted {
                    self.integral.add(def.users.len());
                    self.joined_count += 1;
                } else {
                    self.refused += 1;
                }
            }
            Action::Depart(s) => {
                let leave = self.tracer.begin(Layer::Leave);
                let span = self.tracer.begin(Layer::Depart);
                black_box(self.fleet.depart(*s));
                self.tracer.end(span);
                let span = self.tracer.begin(Layer::PoolDeregister);
                self.pool.deregister(*s);
                self.tracer.end(span);
                self.tracer.end(leave);
                self.departs += 1;
                if std::mem::take(&mut self.joined[s.index()]) {
                    self.integral.sub(usize::from(self.users_of[s.index()]));
                    self.joined_count -= 1;
                }
            }
            Action::Fail(_) | Action::Drain => {
                let Some(agent) = self.busiest_available() else {
                    return Err("no agent left to take out".into());
                };
                let drain = matches!(action, Action::Drain);
                let span = self.tracer.begin(if drain {
                    Layer::DrainAgent
                } else {
                    Layer::FailAgent
                });
                let (moves, forced) = if drain {
                    self.fleet.drain_agent(agent)
                } else {
                    self.fleet.fail_agent(agent)
                };
                self.tracer.end(span);
                if let Action::Fail(epoch) = action {
                    self.down.push((*epoch, agent));
                    self.fail_moves += moves as u64;
                    self.fail_forced += forced as u64;
                } else {
                    self.drain_moves += moves as u64;
                }
                self.agent_ops += 1;
            }
            Action::Restore(epoch) => {
                if let Some(i) = self.down.iter().position(|(e, _)| e == epoch) {
                    let (_, agent) = self.down.swap_remove(i);
                    let span = self.tracer.begin(Layer::RestoreAgent);
                    black_box(self.fleet.restore_agent(agent));
                    self.tracer.end(span);
                    self.agent_ops += 1;
                }
            }
            Action::Grow => self.grow()?,
            Action::Checkpoint => {
                let span = self.tracer.begin(Layer::JournalTimers);
                self.fleet.journal_timers(self.pool);
                self.tracer.end(span);
                let span = self.tracer.begin(Layer::Checkpoint);
                let done = self.fleet.checkpoint();
                self.tracer.end(span);
                done.map_err(|e| format!("checkpoint failed: {e}"))?;
            }
            Action::Sample => {
                self.marks.push((Instant::now(), self.thread_cpu.seconds()));
                let span = self.tracer.begin(Layer::Sample);
                let snapshot = self.telemetry.sample(self.fleet, t_s);
                self.tracer.end(span);
                if snapshot.conservation_violations != 0 {
                    return Err(format!(
                        "{} conservation violations at t = {t_s}",
                        snapshot.conservation_violations
                    ));
                }
                self.samples += 1;
                self.objective_sum += snapshot.mean_session_objective;
                self.delay_sum += snapshot.mean_delay_ms;
                if self.samples.is_multiple_of(spec::SCRAPE_EVERY) {
                    let span = self.tracer.begin(Layer::MetricsText);
                    black_box(fleet_metrics_text(self.fleet));
                    self.tracer.end(span);
                    self.commit()?;
                }
            }
        }
        // Conferences a crash displaced into the re-admission queue, or
        // that were dropped from it, are out of service until the fleet
        // counts them live again.
        self.integral
            .set_in_service(self.fleet.live_count(), self.joined_count);
        Ok(())
    }

    fn commit(&mut self) -> Result<(), String> {
        let span = self.tracer.begin(Layer::Commit);
        let done = self.fleet.commit_journal();
        self.tracer.end(span);
        done.map_err(|e| format!("commit_journal failed: {e}"))
    }

    /// Registers a clone of every seed agent into region `west`: same
    /// spec and delays as its original, plus a delay row covering the
    /// clones and conferences registered since.
    fn grow(&mut self) -> Result<(), String> {
        let inst = self.instance;
        let seed_agents = inst.num_agents();
        for l in 0..seed_agents {
            let original = AgentId::from(l);
            let to_agent = |k: usize| inst.d_ms(original, AgentId::from(k));
            let def = AgentDef {
                spec: inst.agent(original).clone(),
                inter_agent_ms: (0..seed_agents).chain(0..l).map(to_agent).collect(),
                user_delays_ms: (0..inst.num_users())
                    .map(|u| inst.h_ms(original, UserId::from(u)))
                    .chain(
                        self.arrived
                            .iter()
                            .flat_map(|def| def.users.iter().map(|u| u.agent_delays_ms[l])),
                    )
                    .collect(),
            };
            let span = self.tracer.begin(Layer::RegisterAgent);
            let registered = self.fleet.register_agent(&def, "west");
            self.tracer.end(span);
            registered.map_err(|e| format!("register_agent failed: {e}"))?;
            self.agent_ops += 1;
        }
        Ok(())
    }

    fn tick(&mut self, t_s: f64) {
        let span = self.tracer.begin(Layer::Tick);
        self.hops += self.pool.tick_until(self.fleet, t_s) as u64;
        self.tracer.end(span);
        self.tick_calls += 1;
    }

    /// Closed loop on the virtual clock: wakeups due before each action
    /// run first, then the action.
    fn run_virtual(&mut self, actions: &'a [(u64, Action)]) -> Result<(), String> {
        for (t_us, action) in actions {
            let t_s = *t_us as f64 / 1e6;
            self.tick(t_s);
            self.fleet.set_clock_us(*t_us);
            self.apply(t_s, action, None)?;
        }
        Ok(())
    }

    /// Open loop on the wall clock: one `run_wall` hop thread drains the
    /// wakeup queue as fast as it can while this thread applies each
    /// action at its due instant, however long the previous one took.
    /// Returns the generator's lateness samples (µs).
    fn run_wall(
        &mut self,
        actions: &'a [(u64, Action)],
        budget_s: f64,
    ) -> Result<Vec<f64>, String> {
        let budget = Duration::from_secs_f64(budget_s);
        let (fleet, pool) = (self.fleet, self.pool);
        let mut late_us = Vec::with_capacity(actions.len());
        let mut outcome = Ok(());
        let start = Instant::now();
        let hops = std::thread::scope(|scope| {
            let worker = scope.spawn(move || pool.run_wall(fleet, budget, 1));
            for (t_us, action) in actions {
                let due = start + Duration::from_micros(*t_us);
                if due >= start + budget {
                    break;
                }
                let idle = self.tracer.begin(Layer::Idle);
                wait_until(due);
                self.tracer.end(idle);
                late_us.push(due.elapsed().as_nanos() as f64 / 1e3);
                outcome = self.apply(*t_us as f64 / 1e6, action, Some(due));
                if outcome.is_err() {
                    break;
                }
            }
            worker.join()
        });
        self.hops += hops.map_err(|_| "run_wall worker panicked".to_string())? as u64;
        self.tick_calls += 1;
        outcome.map(|()| late_us)
    }
}

/// Sleeps most of the way to `due`, then spins: `sleep` alone overshoots
/// by a scheduler quantum, which would be charged to the product.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        match (due - now).checked_sub(SPIN) {
            Some(nap) if !nap.is_zero() => std::thread::sleep(nap),
            _ => std::hint::spin_loop(),
        }
    }
}

fn dir_bytes(dir: &Path, only_extension: Option<&str>) -> u64 {
    files_in(dir)
        .iter()
        .filter(|p| only_extension.is_none_or(|e| p.extension().is_some_and(|x| x == e)))
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

fn files_in(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
}

fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    for file in files_in(from) {
        let name = file.file_name().expect("listed files have names");
        std::fs::copy(&file, to.join(name)).map_err(|e| format!("copy {}: {e}", file.display()))?;
    }
    Ok(())
}

fn read_obs(fleet: &Fleet) -> ObsReadout {
    let obs = fleet.obs();
    let (swap_attempts, swap_conflicts) = obs
        .swap_counters()
        .iter()
        .fold((0, 0), |(a, c), (sa, sc)| (a + sa, c + sc));
    ObsReadout {
        hop: obs.summary(Site::Hop),
        wait_dispatch: obs.summary(Site::WaitDispatch),
        freeze_read: obs.summary(Site::FreezeRead),
        freeze_write_wait: obs.summary(Site::FreezeWriteWait),
        freeze_write_hold: obs.summary(Site::FreezeWriteHold),
        journal_append: obs.summary(Site::JournalAppend),
        journal_fsync: obs.summary(Site::JournalFsync),
        sched_lock: obs.summary(Site::SchedLock),
        freeze_read_fast: obs.freeze_read_fast(),
        swap_attempts,
        swap_conflicts,
    }
}

/// Runs one episode of `spec` from `seed`. `Err` is a failed correctness
/// gate (or an operation that must not fail).
pub fn run(spec: &Spec, seed: u64, traced: bool) -> Result<Episode, String> {
    // ---- set-up -------------------------------------------------------
    let inputs = generate(spec, seed);
    let Inputs {
        problem,
        recover_problem,
        actions,
        problem_build_s,
        trace_gen_s,
    } = inputs;
    let mut setup_cuts = vec![Instant::now()];
    let instance = recover_problem.instance();
    let seed_sessions = instance.num_sessions();
    let config = fleet_config(spec, seed, seed_sessions);
    let dir = TempDir::new(spec.name)?;
    let store = dir.path().join("store");
    let fleet = Fleet::with_persistence(problem, config.clone(), persist_config(&store))
        .map_err(|e| format!("store creation failed: {e}"))?;
    let pool = ReoptPool::new(seed);
    setup_cuts.push(Instant::now());
    let mut integral = LiveIntegral::default();
    let users_of: Vec<u8> = (0..seed_sessions)
        .map(|i| instance.session(SessionId::from(i)).len() as u8)
        .collect();
    let mut joined = vec![false; seed_sessions];
    let mut warm = Vec::with_capacity(seed_sessions);
    for i in 0..seed_sessions {
        let s = SessionId::from(i);
        if fleet.admit(s).is_ok() {
            warm.push(s);
            joined[i] = true;
            integral.add(usize::from(users_of[i]));
        }
        if i % 256 == 255 {
            setup_cuts.push(Instant::now());
        }
    }
    let t0 = Instant::now();
    setup_cuts.push(t0);
    pool.register_batch(&fleet, &warm, 0.0);
    let register_batch_s = t0.elapsed().as_secs_f64();
    setup_cuts.push(Instant::now());
    let setup_segment_s = [problem_build_s, trace_gen_s]
        .into_iter()
        .chain(setup_cuts.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()))
        .collect();

    // ---- timed section ------------------------------------------------
    let mut driver = Driver {
        fleet: &fleet,
        pool: &pool,
        instance,
        // Bound: ≤ 5 spans per action plus its tick, and the epilogue.
        tracer: Tracer::new(traced, actions.len() * 6 + 16),
        telemetry: FleetTelemetry::new(),
        samples: 0,
        thread_cpu: ThreadCpu::open(),
        marks: Vec::with_capacity((spec.horizon_s / spec::SAMPLE_PERIOD_S) as usize + 2),
        objective_sum: 0.0,
        delay_sum: 0.0,
        integral,
        users_of,
        joined_count: warm.len(),
        joined,
        arrived: Vec::new(),
        hops: 0,
        tick_calls: 0,
        joins: 0,
        refused: 0,
        departs: 0,
        agent_ops: 0,
        join_us: Vec::with_capacity(actions.len()),
        fail_moves: 0,
        fail_forced: 0,
        drain_moves: 0,
        down: Vec::new(),
    };
    let cpu0 = stats::cpu_seconds();
    let thread_cpu0 = driver.thread_cpu.seconds();
    let t_timed = Instant::now();
    let root = driver.tracer.begin(Layer::Timed);
    let mut late_us = if spec.wall {
        driver.run_wall(&actions, spec.horizon_s)?
    } else {
        driver.run_virtual(&actions)?;
        driver.tick(spec.horizon_s);
        Vec::new()
    };
    let wall_budget_s = t_timed.elapsed().as_secs_f64();
    driver.integral.advance(spec.horizon_s);
    // The last durability boundary: pending WAIT timers, then fsync.
    let span = driver.tracer.begin(Layer::JournalTimers);
    fleet.journal_timers(&pool);
    driver.tracer.end(span);
    driver.commit()?;
    driver.tracer.end(root);
    // The open loop is judged on its fixed budget; the closed loop on
    // everything up to and including that last boundary.
    let t_end = Instant::now();
    let timed_wall_s = if spec.wall {
        wall_budget_s
    } else {
        (t_end - t_timed).as_secs_f64()
    };
    let cpu_s = stats::cpu_seconds() - cpu0;
    let cuts: Vec<(Instant, f64)> = std::iter::once((t_timed, thread_cpu0))
        .chain(driver.marks.iter().copied())
        .chain(std::iter::once((t_end, driver.thread_cpu.seconds())))
        .collect();
    let (segment_s, segment_cpu_s) = if spec.wall {
        (vec![timed_wall_s], vec![cpu_s])
    } else {
        cuts.windows(2)
            .map(|w| ((w[1].0 - w[0].0).as_secs_f64(), w[1].1 - w[0].1))
            .unzip()
    };

    // ---- epilogue: capture, crash, recover, compare ---------------------
    let audit = fleet.audit();
    if !audit.is_empty() {
        return Err(format!("audit at the horizon: {audit:?}"));
    }
    let state: DurableFleetState = fleet.durable_state();
    let objective = fleet.objective();
    let (objective_per_session, mean_delay_ms) = match driver.samples {
        0 => (
            objective / fleet.live_count().max(1) as f64,
            fleet.mean_delay_ms(),
        ),
        n => (driver.objective_sum / n as f64, driver.delay_sum / n as f64),
    };
    let obs = read_obs(&fleet);
    let (sched_acquires, sched_conflicts) = pool
        .shard_lock_counters()
        .iter()
        .fold((0, 0), |(a, c), (sa, sc)| (a + sa, c + sc));
    let stale_reclaimed = pool.stale_reclaimed();
    let t0 = Instant::now();
    let encoded = vc_persist::codec::encode_to_vec(&state);
    let snapshot_encode_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fingerprint = Fingerprint {
        hops: driver.hops,
        migrations: state.counters.migrations,
        admitted: state.counters.admitted,
        refused: state.counters.rejected,
        phi_bits: objective.to_bits(),
        state_fnv: stats::fnv1a(&encoded),
    };
    let Driver {
        tracer,
        integral,
        hops,
        tick_calls,
        joins,
        refused,
        departs,
        agent_ops,
        join_us,
        fail_moves,
        fail_forced,
        drain_moves,
        ..
    } = driver;
    drop(pool);
    drop(fleet); // the crash: no shutdown, no checkpoint

    let store_bytes = dir_bytes(&store, None);
    let journal_bytes = dir_bytes(&store, Some("vcwal"));
    let mut recover_s = Vec::with_capacity(RECOVERIES_PER_EPISODE);
    let mut replayed = 0;
    let mut recovered = None;
    for k in 0..RECOVERIES_PER_EPISODE {
        let copy = dir.path().join(format!("copy{k}"));
        copy_store(&store, &copy)?;
        drop(recovered.take()); // one live fleet at a time
        let t0 = Instant::now();
        let (fleet, report) = Fleet::recover(
            persist_config(&copy),
            recover_problem.clone(),
            config.clone(),
        )
        .map_err(|e| format!("recovery failed: {e}"))?;
        recover_s.push(t0.elapsed().as_secs_f64());
        replayed = report.replayed;
        if fleet.durable_state() != state {
            return Err("recovered durable state differs from the pre-crash one".into());
        }
        if fleet.objective().to_bits() != objective.to_bits() {
            return Err("recovered objective is not bit-equal to the pre-crash one".into());
        }
        recovered = Some(fleet);
    }
    let journals: Vec<PathBuf> = files_in(&store)
        .into_iter()
        .filter(|p| p.extension().is_some_and(|x| x == "vcwal"))
        .collect();
    let live_ids = state
        .active
        .iter()
        .enumerate()
        .filter(|(_, on)| **on)
        .map(|(i, _)| SessionId::from(i))
        .collect();
    let busiest = agents_by_load(&state)[0];
    stats::sort(&mut late_us);
    let recovered = recovered.expect("at least one recovery ran");
    let peak_rss_mb = stats::peak_rss_mb();
    Ok(Episode {
        setup_segment_s,
        problem_build_s,
        trace_gen_s,
        register_batch_s,
        events: actions.len(),
        timed_wall_s,
        segment_s,
        segment_cpu_s,
        participant_minutes: integral.participant_minutes(),
        hops,
        tick_calls,
        joins,
        refused,
        departs,
        agent_ops,
        join_us,
        late_us,
        fail_moves,
        fail_forced,
        drain_moves,
        recover_s,
        peak_rss_mb,
        replayed,
        objective_per_session,
        mean_delay_ms,
        counters: state.counters,
        fingerprint,
        snapshot_encode_ms,
        snapshot_bytes: encoded.len(),
        store_bytes,
        journal_bytes,
        journal_records: replayed as u64,
        sched_acquires,
        sched_conflicts,
        stale_reclaimed,
        obs,
        layer_us: tracer.durations_us_by_layer(),
        tracer,
        disposable: Some(Disposable {
            fleet: recovered,
            live: live_ids,
            busiest,
            journals,
            dir,
        }),
    })
}
