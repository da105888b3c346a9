//! Admission-parity experiment (extension): one admission engine for
//! the fleet and the Fig. 9 experiments — measured, and emitted as
//! `BENCH_admission.json`.
//!
//! For each fleet size (≈1k and ≈12k sessions by default) over a
//! capacity-contended Internet-scale universe, two admitters run over
//! the same arrival order:
//!
//! * **fleet engine** — `Fleet::admit` (the shared enumeration →
//!   repair → ranked-fallback search against live ledger residuals),
//!   timed per admission;
//! * **offline `admit_all`** — the Fig. 9 driver of the same engine
//!   over a closed-world state.
//!
//! A third pass measures what the search itself allocates:
//! `engine_allocs_per_admit` counts heap allocations inside
//! `AdmissionEngine::place_session_with` (one held `AdmissionScratch`)
//! over exactly the states the engine fleet passes through — the
//! search runs against the fleet's live residuals right before each
//! `Fleet::admit`. In steady state that is the returned decision's two
//! vectors and nothing else; `engine_allocs_within_bound` gates it at
//! [`ENGINE_ALLOCS_PER_ADMIT_BOUND`].
//!
//! The headline claim is **parity**: the fleet engine's admitted
//! session set equals the offline set exactly (the `parity` field must
//! read `true`). The conservation audit runs after the fleet, and must
//! be clean.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use vc_algo::admission::{admit_all, AdmissionEngine, AdmissionPolicy, AdmissionScratch};
use vc_algo::agrank::{AgRankConfig, Residuals};
use vc_algo::markov::Alg1Config;
use vc_core::{AgentTotals, EvalScratch, UapProblem};
use vc_model::SessionId;
use vc_obs::Site;
use vc_orchestrator::{Fleet, FleetConfig, PlacementPolicy};
use vc_workloads::{large_scale_instance, LargeScaleConfig};

/// One fleet-size measurement.
#[derive(Debug, Clone)]
pub struct AdmissionRow {
    /// Sessions in the universe.
    pub sessions: usize,
    /// Users across those sessions.
    pub users: usize,
    /// Agents.
    pub agents: usize,
    /// Sessions the fleet admitted.
    pub engine_admitted: usize,
    /// Fleet admitted fraction.
    pub engine_fraction: f64,
    /// Mean engine admit latency (µs, admissions and refusals alike).
    pub engine_mean_us: f64,
    /// Median engine admit latency (µs), from the fleet's `vc-obs`
    /// plane (all engine-tier sites plus refusals, merged).
    pub engine_p50_us: f64,
    /// p99 engine admit latency (µs), same source.
    pub engine_p99_us: f64,
    /// Enumeration-tier admissions.
    pub engine_enumeration: usize,
    /// Repair-tier admissions.
    pub engine_repair: usize,
    /// Ranked-fallback-tier admissions.
    pub engine_fallback: usize,
    /// Repair moves applied across all admissions.
    pub engine_repair_steps: usize,
    /// Heap allocations per engine search (admissions and refusals
    /// alike), from the counter registered with `vc-obs` — 0 when no
    /// counting allocator is installed (library tests).
    pub engine_allocs_per_admit: f64,
    /// Whether that stays within [`ENGINE_ALLOCS_PER_ADMIT_BOUND`].
    pub engine_allocs_within_bound: bool,
    /// Sessions the offline `admit_all` admitted.
    pub offline_admitted: usize,
    /// Offline admitted fraction.
    pub offline_fraction: f64,
    /// Whether the engine fleet's admitted set equals the offline set
    /// exactly (the PR's correctness claim; must be `true`).
    pub parity: bool,
    /// Conservation-audit discrepancies after the fleet run (must be
    /// 0).
    pub conservation_violations: usize,
}

/// All rows of one run.
#[derive(Debug, Clone)]
pub struct AdmissionParityResult {
    /// One row per fleet size.
    pub rows: Vec<AdmissionRow>,
}

/// The committed ceiling on `engine_allocs_per_admit`: an accepted
/// search returns two vectors (users, tasks) and a refused one nothing,
/// so the mean sits at or under 2; the slack covers buffer growth while
/// the scratch warms up on the first sessions.
pub const ENGINE_ALLOCS_PER_ADMIT_BOUND: f64 = 4.0;

/// A capacity-contended universe: tight enough that even the engine
/// refuses a meaningful share of arrivals (~7–8 %), so refusal
/// accounting and the parity claim are both exercised. Sessions here are small (≤ 3
/// users), so every accepted placement comes from the enumeration
/// tier; the repair/fallback tiers are exercised by the engine's unit
/// tests, which force a zero combo cap.
fn build_problem(target_sessions: usize, seed: u64) -> Arc<UapProblem> {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: target_sessions * 3,
        max_session_size: 3,
        // Scale capacity with the fleet but keep it scarce: the Fig. 9
        // transition regime, not the roomy hop-bench one.
        mean_bandwidth_mbps: Some(7_000.0 * target_sessions as f64 / 1_000.0),
        mean_transcode_slots: Some(450.0 * target_sessions as f64 / 1_000.0),
        seed,
        ..LargeScaleConfig::default()
    });
    Arc::new(UapProblem::new(
        instance,
        vc_cost::CostModel::paper_default(),
    ))
}

fn config() -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(3)),
        alg1: Alg1Config::paper(400.0),
        ledger_shards: 8,
        ..FleetConfig::default()
    }
}

/// Drives one fleet over all sessions in id order, timing each admit.
/// Returns `(admitted set, per-admit latencies µs)`.
fn drive(fleet: &Fleet) -> (BTreeSet<SessionId>, Vec<f64>) {
    let n = fleet.problem().instance().num_sessions();
    let mut admitted = BTreeSet::new();
    let mut latencies = Vec::with_capacity(n);
    for i in 0..n {
        let s = SessionId::new(i as u32);
        let t0 = Instant::now();
        let ok = fleet.admit(s).is_ok();
        latencies.push(t0.elapsed().as_nanos() as f64 / 1e3);
        if ok {
            admitted.insert(s);
        }
    }
    (admitted, latencies)
}

/// Heap allocations per engine search over the engine fleet's own
/// trajectory: before each `Fleet::admit`, the same search runs against
/// the fleet's live residuals with one held scratch, and only that call
/// is counted. A separate fleet from the timed one, so the probe does
/// not warm the caches of a timed admit.
fn engine_allocs_per_admit(problem: &Arc<UapProblem>) -> f64 {
    let fleet = Fleet::new(problem.clone(), config());
    let engine = AdmissionEngine::default();
    let policy = AdmissionPolicy::AgRank(AgRankConfig::paper(3));
    let available = vec![true; problem.instance().num_agents()];
    let mut eval = EvalScratch::new();
    let mut scratch = AdmissionScratch::default();
    let mut totals = AgentTotals::zero(0);
    let mut residuals = Residuals::default();
    let n = problem.instance().num_sessions();
    let mut allocs = 0u64;
    for i in 0..n {
        let s = SessionId::new(i as u32);
        fleet.ledger().reserved_totals_into(&mut totals);
        residuals.fill_from_totals(problem, &totals);
        let before = vc_obs::allocs_now().unwrap_or(0);
        let decision = engine.place_session_with(
            problem,
            s,
            &policy,
            &residuals,
            &available,
            &mut eval,
            &mut scratch,
        );
        allocs += vc_obs::allocs_now().unwrap_or(0) - before;
        black_box(&decision);
        let _ = fleet.admit(s);
    }
    allocs as f64 / n as f64
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The admit-latency histogram of one driven fleet: every engine tier
/// merged with the refusals, so the distribution covers each
/// `Fleet::admit` call exactly once.
fn admit_summary(fleet: &Fleet) -> vc_obs::HistSummary {
    fleet
        .obs()
        .merged(&[
            Site::AdmitEnumeration,
            Site::AdmitRepair,
            Site::AdmitFallback,
            Site::AdmitRefused,
        ])
        .summary()
}

fn run_size(target: usize, seed: u64) -> AdmissionRow {
    let problem = build_problem(target, seed);
    let inst = problem.instance();
    let n = inst.num_sessions();

    let engine_fleet = Fleet::new(problem.clone(), config());
    let (engine_set, engine_lat) = drive(&engine_fleet);
    let engine_summary = admit_summary(&engine_fleet);
    let engine_audit = engine_fleet.audit().len();

    let offline = admit_all(
        problem.clone(),
        &AdmissionPolicy::AgRank(AgRankConfig::paper(3)),
    );
    let offline_set: BTreeSet<SessionId> = offline.state.active_sessions().collect();

    let engine_allocs = engine_allocs_per_admit(&problem);

    use std::sync::atomic::Ordering::Relaxed;
    let c = engine_fleet.counters();
    AdmissionRow {
        sessions: n,
        users: inst.num_users(),
        agents: inst.num_agents(),
        engine_admitted: engine_set.len(),
        engine_fraction: engine_set.len() as f64 / n as f64,
        engine_mean_us: mean(&engine_lat),
        engine_p50_us: engine_summary.p50_ns as f64 / 1e3,
        engine_p99_us: engine_summary.p99_ns as f64 / 1e3,
        engine_enumeration: c.admitted_enumeration.load(Relaxed),
        engine_repair: c.admitted_repair.load(Relaxed),
        engine_fallback: c.admitted_fallback.load(Relaxed),
        engine_repair_steps: c.repair_steps.load(Relaxed),
        engine_allocs_per_admit: engine_allocs,
        engine_allocs_within_bound: engine_allocs <= ENGINE_ALLOCS_PER_ADMIT_BOUND,
        offline_admitted: offline_set.len(),
        offline_fraction: offline_set.len() as f64 / n as f64,
        parity: engine_set == offline_set,
        conservation_violations: engine_audit,
    }
}

/// Runs the experiment across fleet sizes (target session counts).
pub fn run(sizes: &[usize], seed: u64) -> AdmissionParityResult {
    AdmissionParityResult {
        rows: sizes.iter().map(|&t| run_size(t, seed)).collect(),
    }
}

/// Serializes the result as the `BENCH_admission.json` document
pub fn to_json(result: &AdmissionParityResult) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        "{{\n  \"experiment\": \"admission_parity\",\n  \"cpus\": {cpus},\n  \"rows\": [\n"
    );
    for (i, r) in result.rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"sessions\": {}, \"users\": {}, \"agents\": {}, ",
                "\"engine_admitted\": {}, \"engine_fraction\": {:.4}, ",
                "\"engine_mean_us\": {:.1}, \"engine_p50_us\": {:.1}, \"engine_p99_us\": {:.1}, ",
                "\"engine_enumeration\": {}, \"engine_repair\": {}, ",
                "\"engine_fallback\": {}, \"engine_repair_steps\": {}, ",
                "\"engine_allocs_per_admit\": {:.2}, \"engine_allocs_within_bound\": {}, ",
                "\"offline_admitted\": {}, \"offline_fraction\": {:.4}, ",
                "\"parity\": {}, \"conservation_violations\": {}}}{}\n"
            ),
            r.sessions,
            r.users,
            r.agents,
            r.engine_admitted,
            r.engine_fraction,
            r.engine_mean_us,
            r.engine_p50_us,
            r.engine_p99_us,
            r.engine_enumeration,
            r.engine_repair,
            r.engine_fallback,
            r.engine_repair_steps,
            r.engine_allocs_per_admit,
            r.engine_allocs_within_bound,
            r.offline_admitted,
            r.offline_fraction,
            r.parity,
            r.conservation_violations,
            if i + 1 == result.rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the rows and writes `BENCH_admission.json` into the working
/// directory.
pub fn print(result: &AdmissionParityResult) {
    println!("Admission parity — fleet engine vs offline admit_all");
    println!(
        "{:>9} {:>7} {:>8}/{:<8} {:>8}/{:<8} {:>7}",
        "sessions", "agents", "engine", "frac", "offline", "frac", "parity"
    );
    for r in &result.rows {
        println!(
            "{:>9} {:>7} {:>8}/{:<8.4} {:>8}/{:<8.4} {:>7}",
            r.sessions,
            r.agents,
            r.engine_admitted,
            r.engine_fraction,
            r.offline_admitted,
            r.offline_fraction,
            r.parity,
        );
    }
    println!("\nEngine admit latency (vc-obs percentiles) and search-tier mix");
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>12} {:>8} {:>9} {:>13} {:>13} {:>11}",
        "sessions",
        "mean µs",
        "p50 µs",
        "p99 µs",
        "enumeration",
        "repair",
        "fallback",
        "repair steps",
        "allocs/admit",
        "violations"
    );
    for r in &result.rows {
        println!(
            "{:>9} {:>10.1} {:>10.1} {:>10.1} {:>12} {:>8} {:>9} {:>13} {:>13.2} {:>11}",
            r.sessions,
            r.engine_mean_us,
            r.engine_p50_us,
            r.engine_p99_us,
            r.engine_enumeration,
            r.engine_repair,
            r.engine_fallback,
            r.engine_repair_steps,
            r.engine_allocs_per_admit,
            r.conservation_violations,
        );
    }
    let json = to_json(result);
    match std::fs::write("BENCH_admission.json", &json) {
        Ok(()) => println!("\nwrote BENCH_admission.json"),
        Err(e) => eprintln!("\ncould not write BENCH_admission.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_has_parity_and_clean_audits() {
        let result = run(&[60], 11);
        assert_eq!(result.rows.len(), 1);
        let r = &result.rows[0];
        assert!(r.sessions >= 40, "universe lost sessions: {}", r.sessions);
        assert!(r.parity, "engine fleet diverged from offline admit_all");
        assert_eq!(r.conservation_violations, 0);
        assert_eq!(
            r.engine_admitted,
            r.engine_enumeration + r.engine_repair + r.engine_fallback
        );
        // The vc-obs percentiles cover every admit call of the fleet.
        assert!(r.engine_p50_us > 0.0 && r.engine_p99_us >= r.engine_p50_us);
        let json = to_json(&result);
        assert!(json.contains("\"admission_parity\""));
        assert!(json.contains("\"parity\": true"));
        assert!(json.contains("\"engine_p50_us\"") && json.contains("\"offline_fraction\""));
        // No counting allocator in library tests: the column reads 0
        // and sits inside the bound.
        assert!(json.contains("\"engine_allocs_within_bound\": true"));
    }
}
