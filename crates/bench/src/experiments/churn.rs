//! Failure injection (extension): agent a0 fails mid-run on the fleet,
//! its users and tasks are evacuated immediately, Alg. 1's workers
//! re-optimize around the hole, and the agent's recovery lets them pull
//! sessions back.
//!
//! The run is the fleet's, not the closed world's: an `Orchestrator`
//! over the prototype problem plays a `dynamic_trace` in which every
//! session is warm at t = 0, nobody arrives or leaves, and
//! `FailAgent(a0)` / `RestoreAgent(a0)` fire at [`FAIL_AT_S`] and
//! [`RECOVER_AT_S`]. Sessions join by `Nearest` placement; the
//! workers hop at β = 400.

use super::prototype_problem;
use crate::util::print_series_table;
use std::sync::atomic::Ordering;
use vc_algo::markov::Alg1Config;
use vc_model::AgentId;
use vc_orchestrator::{
    FleetConfig, FleetReport, Orchestrator, OrchestratorConfig, PlacementPolicy,
};
use vc_workloads::{dynamic_trace, DynamicTraceConfig};

/// When the failure hits (s).
pub const FAIL_AT_S: f64 = 60.0;
/// When the agent recovers (s).
pub const RECOVER_AT_S: f64 = 140.0;
/// The agent that fails.
pub const FAILED: AgentId = AgentId::new(0);

/// The finished run: the orchestrator (its fleet holds the counters
/// and the final state) and what `run_trace` reported.
#[derive(Debug)]
pub struct ChurnRun {
    /// The control plane after the horizon.
    pub orchestrator: Orchestrator,
    /// Telemetry, final snapshot and hop count.
    pub report: FleetReport,
}

impl ChurnRun {
    /// Evacuation moves and, of those, forced ones, off the fleet's
    /// counters.
    pub fn evacuations(&self) -> (usize, usize) {
        let c = self.orchestrator.fleet().counters();
        (
            c.evacuations.load(Ordering::Relaxed),
            c.forced_moves.load(Ordering::Relaxed),
        )
    }
}

/// Runs the prototype fleet to `duration_s` with a0 failing and
/// recovering.
pub fn run(duration_s: f64, seed: u64) -> ChurnRun {
    let problem = prototype_problem(seed);
    let sessions = problem.instance().num_sessions();
    let trace = dynamic_trace(
        sessions,
        &DynamicTraceConfig {
            horizon_s: duration_s,
            warm_sessions: sessions,
            mean_interarrival_s: None,
            mean_holding_s: f64::INFINITY,
            failures: vec![(FAIL_AT_S, FAILED)],
            restores: vec![(RECOVER_AT_S, FAILED)],
            seed,
        },
    );
    let mut orchestrator = Orchestrator::new(
        problem,
        OrchestratorConfig {
            fleet: FleetConfig {
                placement: PlacementPolicy::Nearest,
                alg1: Alg1Config::paper(400.0),
                readmit: None,
            },
            seed,
        },
    );
    let report = orchestrator.run_trace(&trace, duration_s);
    ChurnRun {
        orchestrator,
        report,
    }
}

/// Prints the series and the evacuation summary.
pub fn print(run: &ChurnRun) {
    println!(
        "Failure injection on the fleet — agent {FAILED} fails at t = {FAIL_AT_S} s, \
         recovers at t = {RECOVER_AT_S} s"
    );
    let telemetry = &run.report.telemetry;
    print_series_table(
        &[
            ("traffic Mbps", &telemetry.series("traffic_mbps")),
            ("delay ms", &telemetry.series("mean_delay_ms")),
        ],
        10.0,
    );
    let (moves, forced) = run.evacuations();
    println!("\nevacuation off {FAILED}: {moves} moves ({forced} forced)");
    let last = &run.report.final_snapshot;
    println!(
        "admitted {} of {} | {} hops | audit clean: {}",
        last.admitted,
        last.universe_sessions,
        run.report.hops_executed,
        run.orchestrator.fleet().audit().is_empty()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_evacuates_the_failed_agent_and_takes_it_back() {
        let run = run(200.0, 2015);
        let last = &run.report.final_snapshot;
        assert_eq!((last.admitted, last.universe_sessions), (10, 10));
        let (moves, forced) = run.evacuations();
        assert!(moves > 0, "a0 held load under Nearest placement");
        assert_eq!(forced, 0);
        let fleet = run.orchestrator.fleet();
        assert_eq!(fleet.audit(), Vec::<String>::new());
        assert!(fleet.is_agent_available(FAILED));
    }
}
