//! Hop experiment (extension): what a hop weighs, what it allocates and
//! whether racing threads conserve, emitted as `BENCH_hop.json`. Its
//! gated outputs are the allocation bound and the conservation audits;
//! its clock readings are on file for the record (`check` prints them
//! against the committed ones, `fleetbench` is what gates hop speed).
//!
//! Two measurements per fleet size (1k / 10k / 100k sessions by
//! default):
//!
//! * **scratch** — the closed-world hop loop
//!   ([`Alg1Engine::hop_scratch`]): the neighbourhood kernel over a
//!   reused [`HopScratch`], the lazily exact Gibbs step, sparse
//!   touched-agent capacity checks, commit by buffer swap. Its
//!   steady-state allocation rate is gated:
//!   `scratch_allocs_within_bound` compares it with
//!   [`SCRATCH_ALLOCS_PER_HOP_BOUND`]; `candidates_per_hop` and
//!   `folds_per_hop` say how much of the neighbourhood the step had to
//!   weigh in full;
//! * **concurrent** — the orchestrator fleet under the sharded FREEZE:
//!   [`ReoptPool::run_wall`] racing 1 vs 4 OS threads, hops committing
//!   through the ledger's checked `try_swap`, followed by a
//!   conservation audit. `memo_hit_ratio` is the share of the 1-thread
//!   run's hops that re-read their slot's kept sweep (the closed-world
//!   loop above never keeps one). The 4-thread throughput and its ratio to the
//!   1-thread run are reported only on a machine with at least 4 CPUs
//!   (on fewer the ratio measures oversubscription, not scaling); the
//!   contention counters of that run are always reported.
//!
//! The concurrent section also profiles the sharded wakeup queue
//! itself: batched registration throughput (`register_per_s`), per-run
//! shard-lock acquire/conflict counters, the `sched_lock_wait` p99
//! under 4-thread contention, and how many superseded wakeups were
//! cancelled. The largest row (120k sessions) exercises wakeup dispatch
//! at the deepest queue on file.
//!
//! A third section, `conference_sizes`, re-runs the scratch loop alone
//! at one fleet size with conferences capped at 5, 8 and 16 users
//! (default) — the axis along which both the candidate count and the
//! cost of one fold grow.
//!
//! Allocations are counted by the `experiments` binary's counting
//! global allocator, surfaced through [`vc_obs::allocs_now`] (the
//! binary registers its counter with
//! [`vc_obs::register_alloc_counter`]; library tests, which have no
//! counting allocator, read 0 allocations). Per-hop latency
//! percentiles come from `vc-obs` histograms: the serial scratch loop
//! records into a local [`LatencyHist`], the concurrent fleet reads
//! its own plane's `hop` site.

use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_algo::markov::{Alg1Config, Alg1Engine, HopScratch};
use vc_core::{SystemState, UapProblem};
use vc_model::SessionId;
use vc_obs::{LatencyHist, Site};
use vc_orchestrator::{Fleet, FleetConfig, PlacementPolicy, ReoptPool};
use vc_workloads::{large_scale_instance, LargeScaleConfig};

/// Reads the process-wide allocation counter if the binary registered
/// one ([`vc_obs::register_alloc_counter`]); 0 otherwise, making every
/// allocs-per-hop figure 0 rather than garbage.
fn alloc_count() -> u64 {
    vc_obs::allocs_now().unwrap_or(0)
}

/// Ceiling on steady-state heap allocations per scratch-path hop. The
/// hop itself allocates nothing once its buffers are sized; what is
/// left is a committed migration swapping the scratch's load for a
/// session's first-evaluation load, whose exact-capacity `touched` and
/// `user_delay` vectors then grow once — at most one such pair per
/// session, so the rate falls as the loop revisits sessions (≈0.05 at
/// 1k sessions, ≈0.7 at 120k, where 20 000 hops visit each session at
/// most once). A kernel buffer re-sized per hop would add ≥ 1.
pub const SCRATCH_ALLOCS_PER_HOP_BOUND: f64 = 0.9;

/// One fleet-size measurement.
#[derive(Debug, Clone)]
pub struct HopBenchRow {
    /// Live sessions in the measured fleet.
    pub sessions: usize,
    /// Users across those sessions.
    pub users: usize,
    /// Agents in the universe.
    pub agents: usize,
    /// The scratch-path measurement.
    pub scratch: ScratchRun,
    /// Fleet hop throughput, 1 worker thread (sharded FREEZE).
    pub wall_1t_hops_per_s: f64,
    /// Share of that run's hops that drew from their slot's kept memo
    /// instead of sweeping. A wall-clock run does not repeat, so this
    /// is a reading, not a gated value (hence not `_fraction`).
    pub memo_hit_ratio: f64,
    /// Fleet hop throughput, 4 worker threads, and its ratio to the
    /// 1-thread run — `None` on a machine with fewer than 4 CPUs.
    pub wall_4t: Option<(f64, f64)>,
    /// Median fleet-hop latency (µs) under the sharded FREEZE,
    /// 1-thread run, from the fleet's own observability plane.
    pub wall_hop_p50_us: f64,
    /// 99th-percentile fleet-hop latency (µs), 1-thread run.
    pub wall_hop_p99_us: f64,
    /// Shards of the wakeup queue.
    pub sched_shards: usize,
    /// Batched registration throughput (sessions/s, 1-thread fleet).
    pub register_per_s: f64,
    /// Scheduler shard-lock acquisitions during the 4-thread run.
    pub sched_lock_acquires: u64,
    /// Scheduler shard-lock conflicts (try-lock misses) during the
    /// 4-thread run — with the old global heap every cross-thread
    /// acquire conflicted; sharding should keep this near 0.
    pub sched_lock_conflicts: u64,
    /// 99th-percentile wait to acquire a contended scheduler shard
    /// lock (µs), 4-thread run. 0 when no acquire ever conflicted.
    pub sched_lock_wait_p99_us: f64,
    /// Superseded wakeups cancelled during the 4-thread run (none
    /// unless sessions depart or re-register mid-run).
    pub sched_stale_reclaimed: u64,
    /// Conservation-audit discrepancies after the concurrent runs
    /// (must be 0).
    pub conservation_violations: usize,
}

/// The scratch loop at one conference-size cap.
#[derive(Debug, Clone)]
pub struct ConferenceSizeRow {
    /// `LargeScaleConfig::max_session_size` of the universe.
    pub max_session_size: usize,
    /// Sessions in it.
    pub sessions: usize,
    /// Users across those sessions.
    pub users: usize,
    /// The scratch-loop measurement.
    pub scratch: ScratchRun,
}

/// All rows of one run.
#[derive(Debug, Clone)]
pub struct HopBenchResult {
    /// One row per fleet size.
    pub rows: Vec<HopBenchRow>,
    /// One row per conference-size cap, at one fleet size.
    pub conference_sizes: Vec<ConferenceSizeRow>,
}

/// A universe of ≈`sessions · 6/5` conferences of 2..=`max_session_size`
/// users (sizes are uniform, so `sessions · 3` users at the default cap
/// of 3 is ≈1.2 conferences per target session).
fn build_problem(sessions: usize, max_session_size: usize, seed: u64) -> Arc<UapProblem> {
    // A conference's streams grow with the square of its size.
    let per_session = (max_session_size as f64 / 3.0).powi(2) * sessions as f64 / 1_000.0;
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: sessions * 3 * (2 + max_session_size) / 5,
        max_session_size,
        // Generous-but-finite capacities: every admission fits, yet the
        // ledger still has real numbers to arbitrate.
        mean_bandwidth_mbps: Some(40_000.0 * per_session),
        mean_transcode_slots: Some(3_000.0 * per_session),
        seed,
        ..LargeScaleConfig::default()
    });
    Arc::new(UapProblem::new(
        instance,
        vc_cost::CostModel::paper_default(),
    ))
}

/// The serial scratch-path measurement of one universe.
#[derive(Debug, Clone)]
pub struct ScratchRun {
    /// Single-thread hop throughput.
    pub hops_per_s: f64,
    /// Heap allocations per hop (steady state; ~0).
    pub allocs_per_hop: f64,
    /// Median / 99th-percentile hop latency (ns), `vc-obs` histogram.
    pub p50_ns: u64,
    /// See `p50_ns`.
    pub p99_ns: u64,
    /// Candidates enumerated per hop.
    pub candidates_per_hop: f64,
    /// Full folds per hop — the candidates the Gibbs step could not
    /// settle from their delays alone.
    pub folds_per_hop: f64,
}

impl ScratchRun {
    /// Whether the allocation rate stays within
    /// [`SCRATCH_ALLOCS_PER_HOP_BOUND`].
    pub fn allocs_within_bound(&self) -> bool {
        self.allocs_per_hop <= SCRATCH_ALLOCS_PER_HOP_BOUND
    }
}

/// The closed-world hop loop over one all-active `SystemState`.
fn run_scratch(problem: &Arc<UapProblem>, beta: f64, seed: u64) -> ScratchRun {
    // Long enough for a stable rate.
    let hops = 20_000;
    let num_sessions = problem.instance().num_sessions();
    let asg = vc_algo::nearest::nearest_assignment(problem);
    let mut state = SystemState::new(problem.clone(), asg);
    let engine = Alg1Engine::new(Alg1Config::paper(beta));
    let mut scratch = HopScratch::new();
    let mut rng = StdRng::seed_from_u64(seed);
    // Warm-up sizes every reusable buffer.
    for i in 0..32 {
        engine.hop_scratch(
            &mut state,
            SessionId::from(i % num_sessions),
            &mut rng,
            &mut scratch,
        );
    }
    let a0 = alloc_count();
    // Per-hop latency: reuse each hop's end timestamp as the next
    // start, so the histogram costs one clock read per hop on top of
    // the throughput measurement it shares timestamps with.
    let mut hist = LatencyHist::new();
    let (mut swept, mut folded) = (0u64, 0u64);
    let t0 = Instant::now();
    let mut t_prev = t0;
    for i in 0..hops {
        let s = SessionId::from(i % num_sessions);
        engine.hop_scratch(&mut state, s, &mut rng, &mut scratch);
        let t = Instant::now();
        hist.record((t - t_prev).as_nanos() as u64);
        t_prev = t;
        swept += u64::from(scratch.candidates.swept);
        folded += u64::from(scratch.candidates.folded);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let summary = hist.summary();
    ScratchRun {
        hops_per_s: hops as f64 / elapsed,
        allocs_per_hop: (alloc_count() - a0) as f64 / hops as f64,
        p50_ns: summary.p50_ns,
        p99_ns: summary.p99_ns,
        candidates_per_hop: swept as f64 / hops as f64,
        folds_per_hop: folded as f64 / hops as f64,
    }
}

/// One fleet size's row.
fn run_size(sessions_target: usize, wall_ms: u64, seed: u64) -> HopBenchRow {
    let problem = build_problem(sessions_target, 3, seed);
    let num_sessions = problem.instance().num_sessions();
    let beta = 400.0;
    let scratch = run_scratch(&problem, beta, seed);

    // --- Concurrent fleet under the sharded FREEZE. ---------------------
    let mut wall_rates = [0.0f64; 2];
    let mut memo_hit_ratio = 0.0f64;
    let mut violations = 0usize;
    let mut wall_summary = vc_obs::HistSummary::default();
    let mut sched_shards = 0usize;
    let mut register_per_s = 0.0f64;
    let mut lock_acquires = 0u64;
    let mut lock_conflicts = 0u64;
    let mut lock_wait_p99_us = 0.0f64;
    let mut stale_reclaimed = 0u64;
    for (slot, threads) in [(0usize, 1usize), (1, 4)] {
        let fleet = Fleet::new(
            problem.clone(),
            FleetConfig {
                placement: PlacementPolicy::Nearest,
                alg1: Alg1Config {
                    mean_countdown_s: 1.0,
                    ..Alg1Config::paper(beta)
                },
                ..FleetConfig::default()
            },
        );
        let pool = ReoptPool::new(seed);
        let admitted: Vec<SessionId> = (0..num_sessions)
            .map(SessionId::from)
            .filter(|&s| fleet.admit(s).is_ok())
            .collect();
        assert!(
            admitted.len() * 10 >= num_sessions * 9,
            "capacities too tight: only {}/{num_sessions} admitted",
            admitted.len()
        );
        // Batched registration: sessions grouped by shard, one lock
        // acquisition per shard — this is what lets 100k-session setup
        // fit a CI budget.
        let t_reg = Instant::now();
        pool.register_batch(&fleet, &admitted, 0.0);
        let reg_s = t_reg.elapsed().as_secs_f64();
        let budget = Duration::from_millis(wall_ms);
        let executed = pool.run_wall(&fleet, budget, threads);
        wall_rates[slot] = executed as f64 / budget.as_secs_f64();
        violations += fleet.audit().len();
        if threads == 1 {
            // The workers' tallies reached the plane when their threads
            // ended.
            memo_hit_ratio = fleet.obs().hop_memo_hits() as f64 / executed.max(1) as f64;
            wall_summary = fleet.obs().summary(Site::Hop);
            sched_shards = pool.num_shards();
            register_per_s = admitted.len() as f64 / reg_s.max(1e-9);
        } else {
            // Contention profile where contention is possible: the
            // 4-thread run races workers over the shard locks.
            let (acq, conf) = pool
                .shard_lock_counters()
                .iter()
                .fold((0u64, 0u64), |(a, c), &(x, y)| (a + x, c + y));
            lock_acquires = acq;
            lock_conflicts = conf;
            lock_wait_p99_us = fleet.obs().summary(Site::SchedLock).p99_ns as f64 / 1e3;
            stale_reclaimed = pool.stale_reclaimed();
        }
    }

    HopBenchRow {
        sessions: num_sessions,
        users: problem.instance().num_users(),
        agents: problem.instance().num_agents(),
        scratch,
        wall_1t_hops_per_s: wall_rates[0],
        memo_hit_ratio,
        wall_4t: (cpus() >= 4).then(|| (wall_rates[1], wall_rates[1] / wall_rates[0].max(1e-9))),
        wall_hop_p50_us: wall_summary.p50_ns as f64 / 1e3,
        wall_hop_p99_us: wall_summary.p99_ns as f64 / 1e3,
        sched_shards,
        register_per_s,
        sched_lock_acquires: lock_acquires,
        sched_lock_conflicts: lock_conflicts,
        sched_lock_wait_p99_us: lock_wait_p99_us,
        sched_stale_reclaimed: stale_reclaimed,
        conservation_violations: violations,
    }
}

/// Runs the hop benchmark across fleet sizes, then the scratch loop
/// alone across the conference-size caps `size_axis.1` at the fleet
/// size `size_axis.0`. Allocation counts come from the counter
/// registered via [`vc_obs::register_alloc_counter`] (the `experiments`
/// binary installs one; without it every allocs-per-hop figure reads 0).
pub fn run(
    sizes: &[usize],
    size_axis: (usize, &[usize]),
    wall_ms: u64,
    seed: u64,
) -> HopBenchResult {
    let rows = (sizes.iter())
        .map(|&target| run_size(target, wall_ms, seed))
        .collect();
    let (axis_sessions, caps) = size_axis;
    let conference_sizes = (caps.iter())
        .map(|&max_session_size| {
            let problem = build_problem(axis_sessions, max_session_size, seed);
            ConferenceSizeRow {
                max_session_size,
                sessions: problem.instance().num_sessions(),
                users: problem.instance().num_users(),
                scratch: run_scratch(&problem, 400.0, seed),
            }
        })
        .collect();
    HopBenchResult {
        rows,
        conference_sizes,
    }
}

/// CPUs available to this process (stamped into the document; the
/// 4-thread columns need at least 4).
fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Serializes the result as the `BENCH_hop.json` document.
pub fn to_json(result: &HopBenchResult) -> String {
    let mut out = format!(
        "{{\n  \"experiment\": \"hop_bench\",\n  \"cpus\": {},\n  \"rows\": [\n",
        cpus()
    );
    for (i, r) in result.rows.iter().enumerate() {
        let wall_4t = r.wall_4t.map_or(String::new(), |(rate, scaling)| {
            format!("\"wall_4t_hops_per_s\": {rate:.1}, \"scaling_4t\": {scaling:.2}, ")
        });
        out.push_str(&format!(
            concat!(
                "    {{\"sessions\": {}, \"users\": {}, \"agents\": {}, ",
                "\"scratch_hops_per_s\": {:.1}, \"scratch_allocs_per_hop\": {:.3}, ",
                "\"scratch_allocs_within_bound\": {}, ",
                "\"scratch_p50_ns\": {}, \"scratch_p99_ns\": {}, ",
                "\"candidates_per_hop\": {:.1}, \"folds_per_hop\": {:.1}, ",
                "\"wall_1t_hops_per_s\": {:.1}, \"memo_hit_ratio\": {:.3}, {}",
                "\"wall_hop_p50_us\": {:.1}, \"wall_hop_p99_us\": {:.1}, ",
                "\"sched_shards\": {}, \"register_per_s\": {:.1}, ",
                "\"sched_lock_acquires\": {}, \"sched_lock_conflicts\": {}, ",
                "\"sched_lock_wait_p99_us\": {:.1}, \"sched_stale_reclaimed\": {}, ",
                "\"conservation_violations\": {}}}{}\n"
            ),
            r.sessions,
            r.users,
            r.agents,
            r.scratch.hops_per_s,
            r.scratch.allocs_per_hop,
            r.scratch.allocs_within_bound(),
            r.scratch.p50_ns,
            r.scratch.p99_ns,
            r.scratch.candidates_per_hop,
            r.scratch.folds_per_hop,
            r.wall_1t_hops_per_s,
            r.memo_hit_ratio,
            wall_4t,
            r.wall_hop_p50_us,
            r.wall_hop_p99_us,
            r.sched_shards,
            r.register_per_s,
            r.sched_lock_acquires,
            r.sched_lock_conflicts,
            r.sched_lock_wait_p99_us,
            r.sched_stale_reclaimed,
            r.conservation_violations,
            if i + 1 == result.rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n  \"conference_sizes\": [\n");
    for (i, r) in result.conference_sizes.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"max_session_size\": {}, \"sessions\": {}, \"users\": {}, ",
                "\"scratch_hops_per_s\": {:.1}, \"scratch_p50_ns\": {}, ",
                "\"scratch_p99_ns\": {}, \"candidates_per_hop\": {:.1}, ",
                "\"folds_per_hop\": {:.1}}}{}\n"
            ),
            r.max_session_size,
            r.sessions,
            r.users,
            r.scratch.hops_per_s,
            r.scratch.p50_ns,
            r.scratch.p99_ns,
            r.scratch.candidates_per_hop,
            r.scratch.folds_per_hop,
            if i + 1 == result.conference_sizes.len() {
                ""
            } else {
                ","
            },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the rows and writes `BENCH_hop.json` into the working
/// directory.
pub fn print(result: &HopBenchResult) {
    println!("Hop throughput — closed-world scratch path (neighbourhood kernel)");
    println!(
        "{:>9} {:>8} {:>13} {:>12} {:>10} {:>10} {:>11} {:>10}",
        "sessions",
        "agents",
        "scratch hop/s",
        "alloc/hop",
        "p50 ns",
        "p99 ns",
        "cand/hop",
        "folds/hop"
    );
    for r in &result.rows {
        println!(
            "{:>9} {:>8} {:>13.0} {:>12.3} {:>10} {:>10} {:>11.1} {:>10.1}",
            r.sessions,
            r.agents,
            r.scratch.hops_per_s,
            r.scratch.allocs_per_hop,
            r.scratch.p50_ns,
            r.scratch.p99_ns,
            r.scratch.candidates_per_hop,
            r.scratch.folds_per_hop,
        );
    }
    println!("\nConference size — the scratch loop with conferences of 2..=cap users");
    println!(
        "{:>9} {:>9} {:>8} {:>13} {:>10} {:>10} {:>11} {:>10}",
        "cap", "sessions", "users", "scratch hop/s", "p50 ns", "p99 ns", "cand/hop", "folds/hop"
    );
    for r in &result.conference_sizes {
        println!(
            "{:>9} {:>9} {:>8} {:>13.0} {:>10} {:>10} {:>11.1} {:>10.1}",
            r.max_session_size,
            r.sessions,
            r.users,
            r.scratch.hops_per_s,
            r.scratch.p50_ns,
            r.scratch.p99_ns,
            r.scratch.candidates_per_hop,
            r.scratch.folds_per_hop,
        );
    }
    println!(
        "\nConcurrent fleet hops (sharded FREEZE, checked ledger swaps) — {} CPU(s) available",
        cpus()
    );
    println!(
        "{:>9} {:>15} {:>9} {:>15} {:>9} {:>10} {:>10} {:>11}",
        "sessions",
        "1-thread hop/s",
        "memo hit",
        "4-thread hop/s",
        "scaling",
        "p50 µs",
        "p99 µs",
        "violations"
    );
    for r in &result.rows {
        let (rate_4t, scaling) = r.wall_4t.map_or(("-".into(), "-".into()), |(rate, x)| {
            (format!("{rate:.0}"), format!("{x:.2}x"))
        });
        println!(
            "{:>9} {:>15.0} {:>9.3} {:>15} {:>9} {:>10.1} {:>10.1} {:>11}",
            r.sessions,
            r.wall_1t_hops_per_s,
            r.memo_hit_ratio,
            rate_4t,
            scaling,
            r.wall_hop_p50_us,
            r.wall_hop_p99_us,
            r.conservation_violations,
        );
    }
    println!("\nWakeup scheduler (sharded queue, batched registration)");
    println!(
        "{:>9} {:>7} {:>14} {:>13} {:>12} {:>13} {:>10}",
        "sessions", "shards", "register/s", "lock acq 4t", "conflicts", "wait p99 µs", "reclaimed"
    );
    for r in &result.rows {
        println!(
            "{:>9} {:>7} {:>14.0} {:>13} {:>12} {:>13.1} {:>10}",
            r.sessions,
            r.sched_shards,
            r.register_per_s,
            r.sched_lock_acquires,
            r.sched_lock_conflicts,
            r.sched_lock_wait_p99_us,
            r.sched_stale_reclaimed,
        );
    }
    let json = to_json(result);
    match std::fs::write("BENCH_hop.json", &json) {
        Ok(()) => println!("\nwrote BENCH_hop.json"),
        Err(e) => eprintln!("\ncould not write BENCH_hop.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_consistent_rows() {
        let result = run(&[40], (40, &[5]), 50, 11);
        assert_eq!(result.rows.len(), 1);
        // The Gibbs step settles some candidates from their delays, so
        // it folds fewer than it enumerates — more so, in absolute
        // terms, in larger conferences.
        let axis = &result.conference_sizes[0];
        assert_eq!(axis.max_session_size, 5);
        let r = &result.rows[0];
        assert!(r.scratch.folds_per_hop > 0.0);
        assert!(r.scratch.folds_per_hop < r.scratch.candidates_per_hop);
        assert!(axis.scratch.candidates_per_hop > r.scratch.candidates_per_hop);
        assert!(axis.scratch.folds_per_hop < axis.scratch.candidates_per_hop);
        assert!(r.sessions >= 30, "universe lost sessions: {}", r.sessions);
        assert!(r.scratch.hops_per_s > 0.0);
        assert_eq!(r.conservation_violations, 0);
        // No counting allocator in library tests: the rate reads 0.
        assert!(r.scratch.allocs_within_bound());
        // The vc-obs percentiles are populated and ordered.
        assert!(r.scratch.p50_ns > 0 && r.scratch.p99_ns >= r.scratch.p50_ns);
        assert!(r.wall_hop_p50_us > 0.0 && r.wall_hop_p99_us >= r.wall_hop_p50_us);
        // Every conference's first hop sweeps; how many more the 50 ms
        // fit is the machine's business.
        assert!((0.0..1.0).contains(&r.memo_hit_ratio));
        // Scheduler profile: shards present, registration timed, and
        // conflicts bounded by acquisitions.
        assert!(r.sched_shards > 0);
        assert!(r.register_per_s > 0.0);
        assert!(r.sched_lock_conflicts <= r.sched_lock_acquires);
        let json = to_json(&result);
        assert!(json.contains("\"hop_bench\""));
        assert!(json.contains("\"scratch_allocs_within_bound\": true"));
        assert!(json.contains("\"scratch_p50_ns\"") && json.contains("\"wall_hop_p99_us\""));
        assert!(json.contains("\"sched_shards\"") && json.contains("\"sched_lock_conflicts\""));
        assert!(json.contains("\"register_per_s\"") && json.contains("\"memo_hit_ratio\""));
        assert!(json.contains("\"folds_per_hop\"") && json.contains("\"max_session_size\": 5"));
        // The 4-thread columns exist exactly when there are 4 CPUs.
        assert_eq!(r.wall_4t.is_some(), cpus() >= 4);
        assert_eq!(json.contains("\"scaling_4t\""), cpus() >= 4);
        crate::check::parse(&json).expect("the document parses");
    }
}
