//! Ablations of three design choices where the paper leaves room (the
//! damping one is argued in `vc_algo::agrank`'s interpretation notes):
//!
//! 1. **Transcoding placement rule** — the Sec. IV-B rule of thumb vs
//!    always-source vs always-destination (initial assignment quality);
//! 2. **AgRank resource awareness** — PageRank damping 0.85 (residuals in
//!    the fixed point) vs 1.0 (the paper's literal power iteration, which
//!    forgets the residual initialization);
//! 3. **β schedule** — constant β = 400 vs linear annealing 20 → 800 over
//!    the same hop budget.

use crate::util::{mean, par_map_seeds};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use vc_algo::admission::{admit_all, AdmissionPolicy};
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::{Alg1Config, Alg1Engine};
use vc_algo::nearest::nearest_assignment;
use vc_algo::placement;
use vc_core::{Assignment, SystemState, UapProblem};
use vc_cost::CostModel;
use vc_workloads::{large_scale_instance, LargeScaleConfig};

/// A labeled metric pair.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub label: String,
    /// Mean inter-agent traffic (Mbps).
    pub traffic: f64,
    /// Mean conferencing delay (ms).
    pub delay: f64,
}

/// Ablation 1: transcoding placement rules under Nrst user placement.
pub fn placement_rules(scenarios: usize, base_seed: u64) -> Vec<AblationRow> {
    let seeds: Vec<u64> = (0..scenarios as u64).map(|i| base_seed + i).collect();
    let rows = par_map_seeds(&seeds, |seed| {
        let instance = large_scale_instance(&LargeScaleConfig {
            seed,
            ..LargeScaleConfig::default()
        });
        let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
        let user_agent: Vec<_> = problem
            .instance()
            .user_ids()
            .map(|u| problem.instance().delays().nearest_agent(u))
            .collect();
        [
            placement::rule_of_thumb(&problem, &user_agent),
            placement::always_source(&problem, &user_agent),
            placement::always_destination(&problem, &user_agent),
        ]
        .map(|tasks| {
            let asg = Assignment::new(&problem, user_agent.clone(), tasks);
            let state = SystemState::new(problem.clone(), asg);
            (state.total_traffic_mbps(), state.mean_delay_ms())
        })
    });
    ["rule of thumb", "always source", "always destination"]
        .iter()
        .enumerate()
        .map(|(i, label)| AblationRow {
            label: (*label).into(),
            traffic: mean(&rows.iter().map(|r| r[i].0).collect::<Vec<_>>()),
            delay: mean(&rows.iter().map(|r| r[i].1).collect::<Vec<_>>()),
        })
        .collect()
}

/// Ablation 2: AgRank damping (resource-aware vs oblivious ranking),
/// measured as admission success under scarce bandwidth.
pub fn agrank_damping(scenarios: usize, base_seed: u64) -> Vec<(f64, f64)> {
    let seeds: Vec<u64> = (0..scenarios as u64).map(|i| base_seed + i).collect();
    let dampings = [0.85, 1.0];
    dampings
        .iter()
        .map(|&damping| {
            let successes = par_map_seeds(&seeds, |seed| {
                let instance = large_scale_instance(&LargeScaleConfig {
                    mean_bandwidth_mbps: Some(1000.0),
                    seed,
                    ..LargeScaleConfig::default()
                });
                let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
                let mut config = AgRankConfig::paper(2);
                config.damping = damping;
                admit_all(problem, &AdmissionPolicy::AgRank(config)).success
            });
            let pct =
                100.0 * successes.iter().filter(|s| **s).count() as f64 / scenarios.max(1) as f64;
            (damping, pct)
        })
        .collect()
}

/// Ablation 3: constant β vs annealed β over the same duration.
pub fn beta_schedule(scenarios: usize, duration_s: f64, base_seed: u64) -> Vec<AblationRow> {
    let seeds: Vec<u64> = (0..scenarios as u64).map(|i| base_seed + i).collect();
    let rows = par_map_seeds(&seeds, |seed| {
        let instance = large_scale_instance(&LargeScaleConfig {
            seed,
            ..LargeScaleConfig::default()
        });
        let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut constant = SystemState::new(problem.clone(), nearest_assignment(&problem));
        let mut rng = StdRng::seed_from_u64(seed);
        engine.run(&mut constant, duration_s, &mut rng);
        let mut annealed = SystemState::new(problem.clone(), nearest_assignment(&problem));
        let mut rng = StdRng::seed_from_u64(seed);
        engine.run_annealed(&mut annealed, duration_s, 20.0, 800.0, &mut rng);
        [
            (constant.total_traffic_mbps(), constant.mean_delay_ms()),
            (annealed.total_traffic_mbps(), annealed.mean_delay_ms()),
        ]
    });
    ["constant beta=400", "annealed beta 20→800"]
        .iter()
        .enumerate()
        .map(|(i, label)| AblationRow {
            label: (*label).into(),
            traffic: mean(&rows.iter().map(|r| r[i].0).collect::<Vec<_>>()),
            delay: mean(&rows.iter().map(|r| r[i].1).collect::<Vec<_>>()),
        })
        .collect()
}

/// Runs and prints all three ablations.
pub fn print_all(scenarios: usize, duration_s: f64, base_seed: u64) {
    println!("Ablation 1 — transcoding placement rule (Nrst users, initial assignment)");
    println!("{:<24} {:>14} {:>12}", "rule", "traffic Mbps", "delay ms");
    for row in placement_rules(scenarios, base_seed) {
        println!(
            "{:<24} {:>14.0} {:>12.1}",
            row.label, row.traffic, row.delay
        );
    }

    println!("\nAblation 2 — AgRank damping (1000 Mbps mean bandwidth, admission success)");
    println!("{:<24} {:>14}", "damping", "success %");
    for (damping, pct) in agrank_damping(scenarios, base_seed) {
        println!("{:<24} {:>13.0}%", damping, pct);
    }

    println!("\nAblation 3 — β schedule over {duration_s} simulated seconds");
    println!(
        "{:<24} {:>14} {:>12}",
        "schedule", "traffic Mbps", "delay ms"
    );
    for row in beta_schedule(scenarios, duration_s, base_seed) {
        println!(
            "{:<24} {:>14.0} {:>12.1}",
            row.label, row.traffic, row.delay
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_rules_produce_three_distinct_rows() {
        let rows = placement_rules(2, 500);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.traffic > 0.0);
            assert!(r.delay > 0.0);
        }
    }

    #[test]
    fn resource_aware_damping_admits_at_least_as_many() {
        let results = agrank_damping(4, 510);
        let aware = results[0].1;
        let oblivious = results[1].1;
        assert!(
            aware >= oblivious - 1e-9,
            "resource-aware {aware}% vs oblivious {oblivious}%"
        );
    }

    #[test]
    fn beta_schedules_both_converge() {
        let rows = beta_schedule(1, 60.0, 520);
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(r.traffic.is_finite());
        }
    }
}
