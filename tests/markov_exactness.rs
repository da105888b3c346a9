//! Integration of Alg. 1 with the exact Markov-approximation theory:
//! on an enumerable instance the hopping chain's long-run occupancy must
//! track the Gibbs target (Proposition 1 / Eq. 9), and the measured
//! optimality gaps must respect Eqs. (10)/(12).

use cloud_vc::algo::brute_force;
use cloud_vc::algo::markov::{Alg1Config, Alg1Engine, HopOutcome, HopScratch};
use cloud_vc::markov::mixing::total_variation;
use cloud_vc::markov::{expected_energy, gap_bound, gibbs, Ctmc};
use cloud_vc::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;

/// 2 users, 1 task, 2 agents → the 8-state cube of Fig. 3.
fn fig3_problem() -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let r360 = ladder.by_name("360p").unwrap().id();
    let r480 = ladder.by_name("480p").unwrap().id();
    let r720 = ladder.by_name("720p").unwrap().id();
    let mut b = InstanceBuilder::new(ladder);
    b.add_agent(AgentSpec::builder("l1").build());
    b.add_agent(AgentSpec::builder("l2").speed_factor(1.6).build());
    let s = b.add_session();
    b.add_user(s, r720, r360);
    b.add_user(s, r360, r480);
    b.symmetric_delays(|_, _| 35.0, |l, u| 12.0 + 9.0 * ((l + u) % 2) as f64);
    Arc::new(UapProblem::new(
        b.build().unwrap(),
        CostModel::paper_default(),
    ))
}

#[test]
fn exact_chain_stationary_is_gibbs_on_uap_graph() {
    let problem = fig3_problem();
    let (graph, _) = brute_force::feasible_graph(&problem, 1_000).unwrap();
    for beta in [0.005, 0.05] {
        let ctmc = Ctmc::new(graph.clone(), beta, 0.1);
        assert!(ctmc.detailed_balance_residual() < 1e-12);
        let tv = total_variation(&ctmc.stationary_exact(), &ctmc.target());
        assert!(tv < 1e-9, "β={beta}: TV {tv}");
    }
}

#[test]
fn alg1_occupancy_matches_kernel_stationary_and_tracks_gibbs() {
    // Run Alg. 1's own hop kernel (not the idealized CTMC). Its jump
    // probabilities are p(f→g) = w_g / Z_f with w_g = exp(½β(Φ_f−Φ_g))
    // and Z_f = 1 + Σ_g w_g (the "1" is the stay option), so detailed
    // balance gives the *exact* kernel stationary
    //     π_kernel(f) ∝ Z_f · exp(−βΦ_f),
    // a Z_f-distorted Gibbs law. We verify the empirical occupancy
    // against π_kernel tightly, and against the pure Gibbs target
    // loosely (the distortion is real but moderate).
    let problem = fig3_problem();
    let (graph, nodes) = brute_force::feasible_graph(&problem, 1_000).unwrap();
    // β scaled to the energy spread of this instance so the target is
    // non-degenerate (energies span ~400 units).
    let beta = 0.01;
    let engine = Alg1Engine::new(Alg1Config {
        beta,
        mean_countdown_s: 1.0,
        noise: None,
    });
    let mut state = SystemState::new(problem.clone(), nodes[0].clone());
    let mut rng = StdRng::seed_from_u64(77);
    let mut visits = vec![0.0; graph.len()];
    let mut scratch = HopScratch::new();
    let session = SessionId::new(0);
    let hops = 120_000;
    for _ in 0..hops {
        engine.hop_scratch(&mut state, session, &mut rng, &mut scratch);
        let idx = nodes
            .iter()
            .position(|a| a == state.assignment())
            .expect("state stays within the enumerated feasible set");
        visits[idx] += 1.0;
    }
    for v in &mut visits {
        *v /= hops as f64;
    }

    // Predicted kernel stationary (π ∝ Z_f·exp(−βΦ_f), see vc-markov::kernel).
    let kernel = cloud_vc::markov::hop_kernel_stationary(&graph, beta);
    let tv_kernel = total_variation(&visits, &kernel);
    assert!(
        tv_kernel < 0.02,
        "occupancy diverged from the predicted kernel stationary: TV = {tv_kernel:.4}"
    );

    // The kernel stationary is a bounded distortion of the Gibbs target;
    // a broken weight formula (e.g. uniform hopping) would give TV ≈ 0.5.
    let target = gibbs(graph.energies(), beta);
    let tv_gibbs = total_variation(&visits, &target);
    assert!(
        tv_gibbs < 0.25,
        "occupancy far from Gibbs: TV = {tv_gibbs:.4}"
    );
}

#[test]
fn measured_gap_respects_eq12_on_uap_graph() {
    let problem = fig3_problem();
    let (graph, _) = brute_force::feasible_graph(&problem, 1_000).unwrap();
    let (_, phi_min) = graph.min_energy();
    for beta in [0.001, 0.01, 0.1, 1.0] {
        let p = gibbs(graph.energies(), beta);
        let gap = expected_energy(&p, graph.energies()) - phi_min;
        assert!(gap >= -1e-9);
        // Eq. (12) with the paper's (U+θsum)·logL bound on log|F|.
        let bound = problem.log_state_space() / beta;
        assert!(gap <= bound + 1e-9, "β={beta}: gap {gap} > bound {bound}");
        // And the tighter ln|F| version from the framework.
        assert!(gap <= gap_bound(graph.len(), beta) + 1e-9);
    }
}

#[test]
fn hops_only_step_to_adjacent_states() {
    let problem = fig3_problem();
    let (_, nodes) = brute_force::feasible_graph(&problem, 1_000).unwrap();
    let engine = Alg1Engine::new(Alg1Config::paper(10.0));
    let mut state = SystemState::new(problem.clone(), nodes[0].clone());
    let mut rng = StdRng::seed_from_u64(9);
    let mut scratch = HopScratch::new();
    let mut prev = state.assignment().clone();
    for _ in 0..500 {
        match engine.hop_scratch(&mut state, SessionId::new(0), &mut rng, &mut scratch) {
            HopOutcome::Migrated(_) => {
                assert_eq!(
                    prev.hamming_distance(state.assignment()),
                    1,
                    "hop changed more than one decision"
                );
            }
            HopOutcome::Stayed => {
                assert_eq!(prev.hamming_distance(state.assignment()), 0);
            }
            HopOutcome::NoFeasibleMove => panic!("cube always has neighbors"),
        }
        prev = state.assignment().clone();
    }
}
