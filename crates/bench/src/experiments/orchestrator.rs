//! Control-plane experiment (extension): replays a dynamic
//! arrival/departure trace through the `vc-orchestrator` fleet — AgRank
//! admission against the sharded capacity ledger plus background Alg. 1
//! re-optimization — against the nearest-admission baseline, and prints
//! the fleet time series.

use crate::util::print_series_table;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::UapProblem;
use vc_cost::CostModel;
use vc_model::AgentId;
use vc_orchestrator::{
    FleetConfig, FleetReport, Orchestrator, OrchestratorConfig, PlacementPolicy,
};
use vc_workloads::{dynamic_trace, large_scale_instance, DynamicTraceConfig, LargeScaleConfig};

/// Baseline + orchestrated runs over one trace.
#[derive(Debug)]
pub struct OrchestratorResult {
    /// Nearest admission, no re-optimization.
    pub baseline: FleetReport,
    /// AgRank admission + background workers.
    pub orchestrated: FleetReport,
    /// Virtual horizon (s).
    pub duration_s: f64,
}

/// Runs the fleet comparison for `duration_s` virtual seconds.
pub fn run(duration_s: f64, seed: u64) -> OrchestratorResult {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: 400,
        max_session_size: 4,
        mean_bandwidth_mbps: Some(2_500.0),
        mean_transcode_slots: Some(150.0),
        seed,
        ..LargeScaleConfig::default()
    });
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let trace = dynamic_trace(
        problem.instance().num_sessions(),
        &DynamicTraceConfig {
            horizon_s: duration_s,
            warm_sessions: problem.instance().num_sessions() * 4 / 5,
            mean_interarrival_s: Some(2.0),
            mean_holding_s: duration_s * 6.0,
            failures: vec![(duration_s * 0.5, AgentId::new(2))],
            restores: vec![],
            seed,
        },
    );
    let run_one = |placement: PlacementPolicy, reoptimize: bool| {
        Orchestrator::new(
            problem.clone(),
            OrchestratorConfig {
                fleet: FleetConfig {
                    placement,
                    alg1: Alg1Config {
                        mean_countdown_s: 5.0,
                        ..Alg1Config::paper(400.0)
                    },
                    ledger_shards: 4,
                    ..FleetConfig::default()
                },
                sample_period_s: 1.0,
                seed,
                reoptimize,
            },
        )
        .run_trace(&trace, duration_s)
    };
    OrchestratorResult {
        baseline: run_one(PlacementPolicy::Nearest, false),
        orchestrated: run_one(PlacementPolicy::AgRank(AgRankConfig::paper(3)), true),
        duration_s,
    }
}

/// Prints the fleet series and the final comparison.
pub fn print(result: &OrchestratorResult) {
    println!(
        "Orchestrator — dynamic fleet, agent a2 fails at t = {:.0} s",
        result.duration_s * 0.5
    );
    let (nrst, orch) = (&result.baseline.telemetry, &result.orchestrated.telemetry);
    print_series_table(
        &[
            ("live sessions", &orch.series("live_sessions")),
            ("phi/session nrst", &nrst.series("mean_session_objective")),
            ("phi/session orch", &orch.series("mean_session_objective")),
            ("traffic orch Mbps", &orch.series("traffic_mbps")),
            ("max util orch", &orch.series("max_utilization")),
        ],
        (result.duration_s / 12.0).max(1.0),
    );
    let b = &result.baseline.final_snapshot;
    let o = &result.orchestrated.final_snapshot;
    println!("\n{:<28} {:>12} {:>12}", "final", "nearest", "orchestrated");
    println!("{:<28} {:>12} {:>12}", "admitted", b.admitted, o.admitted);
    println!("{:<28} {:>12} {:>12}", "rejected", b.rejected, o.rejected);
    println!(
        "{:<28} {:>12.3} {:>12.3}",
        "admission success rate", b.admission_success_rate, o.admission_success_rate
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "migrations", b.migrations, o.migrations
    );
    println!(
        "{:<28} {:>12.2} {:>12.2}",
        "mean objective / session", b.mean_session_objective, o.mean_session_objective
    );
    println!(
        "{:<28} {:>12.1} {:>12.1}",
        "inter-agent traffic (Mbps)", b.traffic_mbps, o.traffic_mbps
    );
    println!(
        "{:<28} {:>12} {:>12}",
        "conservation violations",
        result.baseline.telemetry.total_conservation_violations(),
        result
            .orchestrated
            .telemetry
            .total_conservation_violations()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_improves_and_conserves() {
        let result = run(20.0, 3);
        assert!(result.orchestrated.final_snapshot.admitted > 50);
        assert_eq!(
            result
                .orchestrated
                .telemetry
                .total_conservation_violations(),
            0
        );
        assert!(
            result.orchestrated.final_snapshot.mean_session_objective
                <= result.baseline.final_snapshot.mean_session_objective
        );
    }
}
