//! Agent churn: evacuating a failed or drained agent.
//!
//! The paper's system leases agents "in advance", but VMs fail and cloud
//! sites drain for maintenance. When an agent goes down, every user and
//! transcoding task assigned to it must move *immediately* — Alg. 1's
//! eventual re-optimization is too slow for service continuity. The
//! evacuation picks, for each stranded user/task, the feasible
//! alternative minimizing the session's local objective; when no
//! alternative is feasible it still force-moves to the least-bad agent
//! (service continuity over constraint purity) and reports it.
//!
//! An evacuation is a hop's neighbourhood restricted to the stranded
//! entry, with an argmin where the hop has a Gibbs draw. The rule that
//! picks a target lives here once, [`pick_target`], over the
//! [`Neighborhood`] kernel: the conference is compiled once per stranded
//! decision and each surviving agent costs what a hop's candidate costs
//! (the delays the move invalidates, one fold), its load bit-equal to a
//! from-scratch evaluation. "Feasible" is one rule asked by both
//! worlds, [`vc_core::fits`]: [`evacuate_agent`] asks it through
//! [`SystemState::fits`] against the state's totals, the orchestrator's
//! fleet against totals summed from its live slots — and both commit
//! the winner the way their hops commit one.
//!
//! Agents fail at runtime only on `vc-orchestrator`'s fleet, whose
//! `fail_agent` and `drain_agent` pick through [`pick_target`].
//! [`evacuate_agent`] stays as the closed-world reference that
//! evacuation is checked against (`tests/evacuation.rs`).

use vc_core::neighborhood::Neighborhood;
use vc_core::{Decision, EvalScratch, SessionLoad, SystemState};
use vc_model::AgentId;

/// What an evacuation did.
#[derive(Debug, Clone, PartialEq)]
pub struct EvacuationReport {
    /// Applied decisions, in order.
    pub moves: Vec<Decision>,
    /// How many of them were *forced* (no feasible alternative existed;
    /// the least-objective target was used unchecked).
    pub forced: usize,
}

impl EvacuationReport {
    /// Number of migrations performed.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether nothing had to move.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// The evacuation's target rule: weighs `stranded` (a decision of
/// `hood`'s session, its agent being the one lost) moved to each of
/// `targets` in turn and returns the winner with whether it `fits` — a
/// feasible candidate beats any infeasible one, then the lower `Φ_s`
/// wins, then the earlier target. `None` when `targets` is empty.
/// Committing the winner (re-derive its load through
/// [`Neighborhood::candidate`]) is the caller's, as after a Gibbs draw.
pub fn pick_target(
    hood: &mut Neighborhood<'_>,
    stranded: Decision,
    targets: impl IntoIterator<Item = AgentId>,
    mut fits: impl FnMut(&SessionLoad) -> bool,
) -> Option<(Decision, bool)> {
    let mut winner: Option<(Decision, f64, bool)> = None;
    for l in targets {
        let decision = stranded.retarget(l);
        let (_, load) = hood.candidate(decision);
        let (phi, feasible) = (load.phi, fits(load));
        if winner.is_none_or(|(_, best_phi, best_feasible)| {
            (feasible && !best_feasible) || (feasible == best_feasible && phi < best_phi)
        }) {
            winner = Some((decision, phi, feasible));
        }
    }
    winner.map(|(decision, _, feasible)| (decision, feasible))
}

/// Marks `agent` unavailable and moves all its users and tasks elsewhere.
///
/// Users and tasks of *active* sessions are relocated; inactive sessions
/// keep their (inert) assignments and are repaired by their own
/// bootstrap when they arrive.
pub fn evacuate_agent(state: &mut SystemState, agent: AgentId) -> EvacuationReport {
    state.set_agent_available(agent, false);
    let problem = state.problem().clone();
    let inst = problem.instance();

    // Collect stranded decisions first (iteration order: users then tasks,
    // session by session) — the state mutates as we go.
    let mut stranded = Vec::new();
    for s in state.active_sessions() {
        for &u in inst.session(s).users() {
            if state.assignment().agent_of_user(u) == agent {
                stranded.push((s, Decision::User(u, agent)));
            }
        }
        for &t in problem.tasks().of_session(s) {
            if state.assignment().agent_of_task(t) == agent {
                stranded.push((s, Decision::Task(t, agent)));
            }
        }
    }

    let mut eval = EvalScratch::new();
    let mut moves = Vec::new();
    let mut forced = 0;
    for (s, d) in stranded {
        let mut hood = Neighborhood::of_state(state, s, &mut eval);
        let targets = inst
            .agent_ids()
            .filter(|&l| l != agent && state.is_agent_available(l));
        let picked = pick_target(&mut hood, d, targets, |load| state.fits(s, load).is_ok());
        // No other agent exists at all: nothing we can do.
        let Some((decision, feasible)) = picked else {
            forced += 1;
            continue;
        };
        hood.candidate(decision);
        state.commit_scratch(decision, &mut eval);
        moves.push(decision);
        forced += usize::from(!feasible);
    }
    EvacuationReport { moves, forced }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nearest::nearest_assignment;
    use crate::test_fixtures::{fig2_like_problem, scarce_capacity_problem};
    use std::sync::Arc;
    use vc_core::{SystemState, Violation};
    use vc_model::UserId;

    #[test]
    fn evacuation_clears_the_failed_agent() {
        let p = Arc::new(fig2_like_problem());
        let mut st = SystemState::new(p.clone(), nearest_assignment(&p));
        // Singapore (agent 2) hosts user 4 under Nrst.
        let sg = AgentId::new(2);
        assert!(p
            .instance()
            .user_ids()
            .any(|u| st.assignment().agent_of_user(u) == sg));
        let report = evacuate_agent(&mut st, sg);
        assert!(!report.is_empty());
        assert_eq!(report.forced, 0, "unlimited-capacity evacuation is clean");
        for u in p.instance().user_ids() {
            assert_ne!(st.assignment().agent_of_user(u), sg);
        }
        for (t, _) in p.tasks().iter() {
            assert_ne!(st.assignment().agent_of_task(t), sg);
        }
        assert!(st.is_feasible(), "violations: {:?}", st.violations());
    }

    #[test]
    fn evacuation_picks_objective_minimizing_targets() {
        let p = Arc::new(fig2_like_problem());
        let mut st = SystemState::new(p.clone(), nearest_assignment(&p));
        let before = st.objective();
        let report = evacuate_agent(&mut st, AgentId::new(2));
        // Each move chose the best feasible alternative, so the objective
        // should not explode (it may even improve — Nrst was suboptimal).
        assert!(
            st.objective() < before * 1.5 + 100.0,
            "objective exploded: {before} → {}",
            st.objective()
        );
        assert!(!report.moves.is_empty());
    }

    #[test]
    fn forced_moves_are_reported_under_scarcity() {
        let p = Arc::new(scarce_capacity_problem());
        // All six users piled on agent a (capacity 11 Mbps: infeasible,
        // but that is Nrst's problem). Fail agent a: everyone must leave
        // even though b and c cannot legally hold them all.
        let mut st = SystemState::new(p.clone(), nearest_assignment(&p));
        let report = evacuate_agent(&mut st, AgentId::new(0));
        for u in p.instance().user_ids() {
            assert_ne!(st.assignment().agent_of_user(u), AgentId::new(0));
        }
        assert!(report.forced > 0, "scarcity must force some moves");
        // The unavailable-agent violation is gone even if capacity ones remain.
        assert!(!st
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::Unavailable { .. })));
    }

    #[test]
    fn alg1_keeps_avoiding_the_failed_agent() {
        use crate::markov::{Alg1Config, Alg1Engine, HopScratch};
        use rand::{rngs::StdRng, SeedableRng};
        let p = Arc::new(fig2_like_problem());
        let mut st = SystemState::new(p.clone(), nearest_assignment(&p));
        let sg = AgentId::new(2);
        evacuate_agent(&mut st, sg);
        let engine = Alg1Engine::new(Alg1Config::paper(50.0));
        let mut rng = StdRng::seed_from_u64(4);
        let mut scratch = HopScratch::new();
        let s = p.instance().user(UserId::new(0)).session();
        for _ in 0..300 {
            engine.hop_scratch(&mut st, s, &mut rng, &mut scratch);
            for u in p.instance().user_ids() {
                assert_ne!(
                    st.assignment().agent_of_user(u),
                    sg,
                    "hop used a down agent"
                );
            }
        }
    }
}
