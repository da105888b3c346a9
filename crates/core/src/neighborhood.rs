//! Single-decision-change neighborhoods.
//!
//! Alg. 1 only hops between assignments differing in exactly one decision
//! variable — one user's agent or one task's agent. This module
//! enumerates those neighbors and their feasibility, which is also what
//! the complexity analysis of the paper counts: `O(|U(s)|²·L)` work per
//! HOP.
//!
//! ## The neighbourhood kernel
//!
//! All `(|U(s)| + |T(s)|)·(L − 1)` candidates of one HOP share the
//! conference and differ from the committed placement in one decision,
//! so a HOP compiles its conference **once** ([`Neighborhood::begin`]):
//! user and task positions, `θ` as a flow → task table, every `κ`, the
//! demanded Mbps, the placement itself and every flow's delay, all in
//! session-local dense indices. A candidate
//! ([`Neighborhood::candidate`], or each step of
//! [`Neighborhood::sweep`]) then applies its decision to that local
//! placement, re-derives only the delays the decision invalidates — a
//! task move: the one flow it relays; a user move: the `2(n−1)` flows
//! through that user — re-weighs, and reverts. Re-weighing re-emits the
//! streams from the local tables (a few comparisons each) and folds
//! them through the same code [`EvalScratch::evaluate`] runs, so every
//! float sum sees the same addends in the same order and the load is
//! bit-equal to a from-scratch evaluation of the moved assignment
//! (`tests/hop_equivalence.rs`). Per HOP that is one compilation of
//! `O(n² + |T|)` lookups plus, per candidate, `O(n² + |T| log |T|)`
//! arithmetic on local arrays with no id resolution at all. Nothing
//! outlives the HOP: the kernel's buffers are the worker's
//! [`EvalScratch`].

use crate::evaluate::{EvalScratch, SessionLoad};
use crate::{Decision, SystemState, UapProblem};
use vc_model::{AgentId, SessionId};

/// The single-decision neighbourhood of one session around one base
/// placement — see the [module docs](self).
#[derive(Debug)]
pub struct Neighborhood<'a> {
    eval: &'a mut EvalScratch,
    problem: &'a UapProblem,
    s: SessionId,
}

impl<'a> Neighborhood<'a> {
    /// Compiles session `s` around the base placement `(users, tasks)`:
    /// agents in `session.users()` / `tasks.of_session(s)` order.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range or the placement does not cover
    /// the session.
    pub fn begin(
        eval: &'a mut EvalScratch,
        problem: &'a UapProblem,
        s: SessionId,
        users: impl IntoIterator<Item = AgentId>,
        tasks: impl IntoIterator<Item = AgentId>,
    ) -> Self {
        eval.compile(problem, s, users.into_iter(), tasks.into_iter());
        Self { eval, problem, s }
    }

    /// [`begin`](Self::begin) around `state`'s committed assignment.
    pub fn of_state(state: &'a SystemState, s: SessionId, eval: &'a mut EvalScratch) -> Self {
        let problem = state.problem();
        let asg = state.assignment();
        let users = problem.instance().session(s).users();
        let tasks = problem.tasks().of_session(s);
        Self::begin(
            eval,
            problem,
            s,
            users.iter().map(|&u| asg.agent_of_user(u)),
            tasks.iter().map(|&t| asg.agent_of_task(t)),
        )
    }

    /// Weighs the base placement with `decision` applied. Returns the
    /// decision's slot — the position of its user in `session.users()`
    /// or of its task in `tasks.of_session(s)` — and the load, which
    /// stays in the [`EvalScratch`] (for a commit to swap out) until
    /// the next candidate.
    ///
    /// # Panics
    ///
    /// Panics if the decision's user or task is not the session's.
    pub fn candidate(&mut self, decision: Decision) -> (usize, &SessionLoad) {
        let slot = match decision {
            Decision::User(u, _) => (self.problem.instance().session(self.s).users().iter())
                .position(|&w| w == u)
                .expect("moved user belongs to the session"),
            Decision::Task(t, _) => (self.problem.tasks().of_session(self.s).iter())
                .position(|&w| w == t)
                .expect("moved task belongs to the session"),
        };
        let load = match decision {
            Decision::User(_, a) => self.eval.weigh_user_at(self.problem, self.s, slot, a),
            Decision::Task(_, a) => self.eval.weigh_task_at(self.problem, self.s, slot, a),
        };
        (slot, load)
    }

    /// The candidate enumerator: each user to each other agent, then
    /// each task to each other agent — ascending agents, targets
    /// `allowed` refuses skipped — handing every weighed candidate to
    /// `visit` in that order.
    pub fn sweep(
        &mut self,
        allowed: impl Fn(AgentId) -> bool,
        mut visit: impl FnMut(Decision, &SessionLoad),
    ) {
        let inst = self.problem.instance();
        let targets = || inst.agent_ids().filter(|&l| allowed(l));
        for (i, &u) in inst.session(self.s).users().iter().enumerate() {
            let current = self.eval.placement().0[i];
            for l in targets().filter(|&l| l != current) {
                let load = self.eval.weigh_user_at(self.problem, self.s, i, l);
                visit(Decision::User(u, l), load);
            }
        }
        for (k, &t) in self.problem.tasks().of_session(self.s).iter().enumerate() {
            let current = self.eval.placement().1[k];
            for l in targets().filter(|&l| l != current) {
                let load = self.eval.weigh_task_at(self.problem, self.s, k, l);
                visit(Decision::Task(t, l), load);
            }
        }
    }
}

/// A feasible single-decision move and the session objective it yields.
#[derive(Debug, Clone)]
pub struct Move {
    /// The decision to apply.
    pub decision: Decision,
    /// The session's local objective `Φ_s` after the move.
    pub new_phi: f64,
    /// The full evaluated load after the move (reusable on commit).
    pub new_load: SessionLoad,
}

/// Weighs every single-decision neighbour of session `s` at `state` and
/// hands the feasible ones — target agent available, constraints
/// (5)–(8) kept — to `visit`, in enumeration order. Returns the
/// neighbourhood, so the caller can re-derive the move it picks.
pub fn sweep_feasible<'a>(
    state: &'a SystemState,
    s: SessionId,
    eval: &'a mut EvalScratch,
    mut visit: impl FnMut(Decision, &SessionLoad),
) -> Neighborhood<'a> {
    let mut hood = Neighborhood::of_state(state, s, eval);
    hood.sweep(
        |l| state.is_agent_available(l),
        |decision, load| {
            if state.fits(s, load).is_ok() {
                visit(decision, load);
            }
        },
    );
    hood
}

/// Enumerates all feasible single-decision moves of session `s`: each
/// user to each other agent, each transcoding task to each other agent.
/// Moves that would violate constraints (5)–(8) are filtered out.
pub fn feasible_moves(state: &SystemState, s: SessionId) -> Vec<Move> {
    let mut out = Vec::new();
    collect_feasible(state, s, &mut EvalScratch::new(), &mut out);
    out
}

/// Enumerates feasible moves across **all active** sessions (used by
/// centralized baselines; Alg. 1 proper works per session).
pub fn all_feasible_moves(state: &SystemState) -> Vec<Move> {
    let mut eval = EvalScratch::new();
    let mut out = Vec::new();
    for s in state.active_sessions() {
        collect_feasible(state, s, &mut eval, &mut out);
    }
    out
}

fn collect_feasible(
    state: &SystemState,
    s: SessionId,
    eval: &mut EvalScratch,
    out: &mut Vec<Move>,
) {
    sweep_feasible(state, s, eval, |decision, load| {
        out.push(Move {
            decision,
            new_phi: load.phi,
            new_load: load.clone(),
        })
    });
}

/// The number of *potential* (not necessarily feasible) neighbors of
/// session `s`: `(|U(s)| + |T(s)|) · (L − 1)`.
pub fn neighborhood_size(state: &SystemState, s: SessionId) -> usize {
    let problem = state.problem();
    let users = problem.instance().session(s).len();
    let tasks = problem.tasks().of_session(s).len();
    (users + tasks) * (problem.instance().num_agents() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{capacity_limited_problem, two_agent_problem};
    use crate::{Assignment, UapProblem};
    use std::sync::Arc;
    use vc_model::AgentId;

    #[test]
    fn full_neighborhood_when_unconstrained() {
        let p = Arc::new(two_agent_problem());
        let asg = Assignment::all_to_agent(&p, AgentId::new(0));
        let st = SystemState::new(p, asg);
        let s = SessionId::new(0);
        let moves = feasible_moves(&st, s);
        // 2 users + 1 task, each with 1 alternative agent.
        assert_eq!(moves.len(), 3);
        assert_eq!(moves.len(), neighborhood_size(&st, s));
    }

    #[test]
    fn moves_report_correct_phi() {
        let p = Arc::new(two_agent_problem());
        let asg = Assignment::all_to_agent(&p, AgentId::new(0));
        let st = SystemState::new(p.clone(), asg);
        for m in feasible_moves(&st, SessionId::new(0)) {
            let mut probe = st.clone();
            probe.apply_unchecked(m.decision);
            assert!(
                (probe.session_objective(SessionId::new(0)) - m.new_phi).abs() < 1e-9,
                "phi mismatch for {}",
                m.decision
            );
        }
    }

    #[test]
    fn infeasible_moves_are_filtered() {
        let p = Arc::new(capacity_limited_problem());
        let asg = Assignment::all_to_agent(&p, AgentId::new(0));
        let st = SystemState::new(p.clone(), asg);
        for m in all_feasible_moves(&st) {
            // No feasible move may target agent c's transcoder (0 slots).
            if let Decision::Task(_, a) = m.decision {
                assert_ne!(a, AgentId::new(2), "task moved to zero-slot agent");
            }
        }
    }

    #[test]
    fn delay_bound_prunes_far_agents() {
        use vc_cost::CostModel;
        use vc_model::{AgentSpec, InstanceBuilder, ReprLadder};
        // Agent b is so remote that any flow routed through it exceeds
        // Dmax = 400 ms: moving either user there must be pruned.
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("near").build());
        b.add_agent(AgentSpec::builder("far").build());
        let s = b.add_session();
        b.add_user(s, r, r);
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 150.0, |l, _| if l == 0 { 10.0 } else { 300.0 });
        let problem = Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ));
        let asg = Assignment::all_to_agent(&problem, AgentId::new(0));
        let st = SystemState::new(problem, asg);
        let moves = feasible_moves(&st, SessionId::new(0));
        // Candidate "user → far": 300 (last mile) + 150 (inter-agent) +
        // 10 (other last mile) = 460 > 400 — pruned. Both users: none left.
        assert!(
            moves.is_empty(),
            "far agent should be unreachable: {:?}",
            moves.iter().map(|m| m.decision).collect::<Vec<_>>()
        );
    }

    #[test]
    fn relaxing_dmax_unprunes_the_far_agent() {
        use vc_cost::CostModel;
        use vc_model::{AgentSpec, InstanceBuilder, ReprLadder};
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("near").build());
        b.add_agent(AgentSpec::builder("far").build());
        let s = b.add_session();
        b.add_user(s, r, r);
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 150.0, |l, _| if l == 0 { 10.0 } else { 300.0 });
        b.d_max_ms(1_000.0);
        let problem = Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ));
        let asg = Assignment::all_to_agent(&problem, AgentId::new(0));
        let st = SystemState::new(problem, asg);
        assert_eq!(feasible_moves(&st, SessionId::new(0)).len(), 2);
    }

    #[test]
    fn all_moves_cover_active_sessions_only() {
        let p = Arc::new(capacity_limited_problem());
        let asg = Assignment::all_to_agent(&p, AgentId::new(0));
        let mut st = SystemState::new(p, asg);
        st.deactivate(SessionId::new(1));
        for m in all_feasible_moves(&st) {
            assert_eq!(st.session_of(m.decision), SessionId::new(0));
        }
    }
}
