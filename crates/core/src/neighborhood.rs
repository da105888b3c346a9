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
//! the placement-independent tables of [`EvalScratch::compile`] (`θ` as
//! a flow → task table, each source's un-transcoded destinations and
//! representation groups, each task's reference transcode latency,
//! each agent's prices and speed), then the placement itself and every
//! flow's delay, all in session-local dense indices. A candidate then
//! applies its decision to that local placement, re-derives only the
//! delays the decision invalidates — a task move: the one flow it
//! relays; a user move: the `2(n−1)` flows through that user — folds
//! the *delay half* (per-user delays, their maximum, `F`), and is
//! handed to the caller as a [`Probe`] **between** the two halves of
//! the fold: [`Probe::max_flow_delay`] and [`Probe::phi_floor`]
//! (`α1·F ≤ Φ`) are already exact, [`Probe::traffic_floor`]
//! (`α1·F + α2·G_floor ≤ Φ`) re-emits the streams into per-agent
//! ingress only, and [`Probe::fold`] runs the rest — re-emit the
//! streams from the compiled tables, fold them, occupancy, costs —
//! only if the caller asks. Then the move is reverted, or, through
//! [`commit`](Neighborhood::commit), kept as the new base.
//! [`sweep_lazy`](Neighborhood::sweep_lazy) enumerates probes;
//! [`sweep`](Neighborhood::sweep) and
//! [`candidate`](Neighborhood::candidate) fold every one. Both halves
//! are the code [`EvalScratch::evaluate`] runs, so every float sum sees
//! the same addends in the same order and a folded load is bit-equal to
//! a from-scratch evaluation of the moved assignment
//! (`tests/hop_equivalence.rs`, which also holds both to a dense
//! transcription of the paper's formulas over global ids), whichever of
//! its neighbours were folded before it.
//!
//! Cost per *sweep*: one compilation of `O(n² + |T| + L)` lookups; per
//! candidate one delay derivation (a user move `2(n−1)` flows, a task
//! move one; each flow two `H` and one or two `D` lookups into the
//! instance's delay matrices, its `σ` one multiply off the tables) and
//! an `O(n²)` delay half; per candidate the caller could not settle on
//! those, one `O(n² + |T|)` re-emission into per-agent ingress for the
//! traffic floor, reading each source's destinations and groups
//! straight off the tables; per candidate not settled by that either,
//! one rest-fold, which emits the same streams, sorts the `O(n²)`
//! flow cells it wrote and does the rest. The only id resolution after
//! the compile is the delay lookups' (agent, user) and (agent, agent)
//! indexing.
//! The kernel's buffers are the worker's [`EvalScratch`]; what a caller
//! keeps of a sweep — `vc-algo`'s `HopMemo`, the Gibbs step's — is a
//! candidate's position in the enumeration, which
//! [`decision_at`](Neighborhood::decision_at) turns back into its
//! decision, and the sparse [`demand`](SessionLoad::demand) of its
//! load. A HOP that re-reads
//! such a memo needs no kernel at all unless it must weigh one
//! candidate after all, so a neighbourhood can also be
//! [`deferred`](Neighborhood::deferred): it compiles when — and if —
//! its first candidate is asked for.

use crate::evaluate::{EvalScratch, SessionLoad, Slot};
use crate::{Decision, SystemState, UapProblem};
use vc_model::{AgentId, SessionId};

/// The single-decision neighbourhood of one session around one base
/// placement — see the [module docs](self).
#[derive(Debug)]
pub struct Neighborhood<'a> {
    eval: &'a mut EvalScratch,
    problem: &'a UapProblem,
    s: SessionId,
    /// The base placement of a [`deferred`](Self::deferred)
    /// neighbourhood, until its first use compiles it.
    pending: Option<(&'a [AgentId], &'a [AgentId])>,
}

/// One candidate of a [`Neighborhood`], applied to the local placement
/// with its delays derived and the delay half of its fold done; the
/// rest of the fold is the holder's call. Three lower bounds of its
/// `Φ_s` come at rising cost, each at least the one before:
/// [`phi_floor`](Self::phi_floor) (`α1·F`, free),
/// [`traffic_floor`](Self::traffic_floor) (`α1·F + α2·G_floor`, the
/// streams re-emitted) and [`fold`](Self::fold)'s exact `Φ_s`.
#[derive(Debug)]
pub struct Probe<'e> {
    eval: &'e mut EvalScratch,
    problem: &'e UapProblem,
}

impl<'e> Probe<'e> {
    /// `max_{u,v} d_uv` of the candidate — the left side of the delay
    /// constraint (8).
    pub fn max_flow_delay(&self) -> f64 {
        self.eval.load().max_flow_delay
    }

    /// `α1·F(d_s)` of the candidate: the leading addend of its `Φ_s`
    /// and, the other two being non-negative, a lower bound of it that
    /// holds in floating point
    /// ([`ObjectiveWeights::combine`](vc_cost::ObjectiveWeights::combine)).
    pub fn phi_floor(&self) -> f64 {
        let cost = self.problem.cost();
        cost.weights.delay_floor(self.eval.load().delay_cost)
    }

    /// `α1·F + α2·G_floor` of the candidate, where `G_floor` prices
    /// each agent's inter-agent ingress shaded by 10⁻⁹: a lower bound
    /// of its `Φ_s` that holds in floating point and is never below
    /// [`phi_floor`](Self::phi_floor). It runs the stream emission a
    /// fold starts with, into a per-agent sink, and nothing more; what a
    /// later [`fold`](Self::fold) computes is left untouched.
    pub fn traffic_floor(&mut self) -> f64 {
        self.eval.traffic_floor(self.problem)
    }

    /// Folds the rest and returns the candidate's complete load, which
    /// stays in the [`EvalScratch`] until the next fold.
    pub fn fold(self) -> &'e SessionLoad {
        self.eval.fold_rest(self.problem)
    }
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
        eval.compile(problem, s);
        eval.install(problem, users, tasks);
        Self {
            eval,
            problem,
            s,
            pending: None,
        }
    }

    /// [`begin`](Self::begin), compiling only when the first candidate
    /// is asked for ([`candidate`](Self::candidate) or a sweep) — for a
    /// HOP that usually needs none.
    pub fn deferred(
        eval: &'a mut EvalScratch,
        problem: &'a UapProblem,
        s: SessionId,
        users: &'a [AgentId],
        tasks: &'a [AgentId],
    ) -> Self {
        Self {
            eval,
            problem,
            s,
            pending: Some((users, tasks)),
        }
    }

    /// Compiles a [`deferred`](Self::deferred) base placement, once.
    fn ensure_compiled(&mut self) {
        if let Some((users, tasks)) = self.pending.take() {
            self.eval.compile(self.problem, self.s);
            let (users, tasks) = (users.iter().copied(), tasks.iter().copied());
            self.eval.install(self.problem, users, tasks);
        }
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

    /// Applies `slot → a`, shows the candidate to `visit`, reverts.
    fn probe<R>(&mut self, slot: Slot, a: AgentId, visit: impl FnOnce(Probe<'_>) -> R) -> R {
        let base = self.eval.apply(self.problem, slot, a);
        let seen = visit(Probe {
            eval: &mut *self.eval,
            problem: self.problem,
        });
        self.eval.revert(slot, base);
        seen
    }

    /// Weighs the base placement with `decision` applied. Returns the
    /// decision's slot — the position of its user in `session.users()`
    /// or of its task in `tasks.of_session(s)` — and the load, which
    /// stays in the [`EvalScratch`] (for a commit to swap out) until
    /// the next fold.
    ///
    /// # Panics
    ///
    /// Panics if the decision's user or task is not the session's.
    pub fn candidate(&mut self, decision: Decision) -> (usize, &SessionLoad) {
        let (index, slot, a) = self.slot_of(decision);
        self.probe(slot, a, |probe| {
            probe.fold();
        });
        (index, self.eval.load())
    }

    /// [`candidate`](Self::candidate), kept: `decision` becomes the
    /// base placement — the moved delays the base delays, bit-equal to
    /// a fresh [`begin`](Self::begin) around the moved placement — so
    /// one compile serves a run of committed moves (an evacuation's
    /// stranded decisions of one session).
    ///
    /// # Panics
    ///
    /// Panics if the decision's user or task is not the session's.
    pub fn commit(&mut self, decision: Decision) -> (usize, &SessionLoad) {
        let (index, slot, a) = self.slot_of(decision);
        self.eval.apply(self.problem, slot, a);
        self.eval.fold_rest(self.problem);
        self.eval.keep();
        (index, self.eval.load())
    }

    /// Compiles a deferred base, and resolves `decision` to its index
    /// (as [`candidate`](Self::candidate) returns it), placement entry
    /// and target.
    fn slot_of(&mut self, decision: Decision) -> (usize, Slot, AgentId) {
        self.ensure_compiled();
        let index = (self.problem.local_index(self.s, decision))
            .expect("moved user or task belongs to the session");
        match decision {
            Decision::User(_, a) => (index, Slot::User(index), a),
            Decision::Task(_, a) => (index, Slot::Task(index), a),
        }
    }

    /// The base placement: users' agents, tasks' agents.
    fn base(&self) -> (&[AgentId], &[AgentId]) {
        match self.pending {
            Some(base) => base,
            None => self.eval.placement(),
        }
    }

    /// How many candidates a sweep toward every agent enumerates:
    /// `(|U(s)| + |T(s)|)·(L − 1)`, the positions
    /// [`decision_at`](Self::decision_at) names. Compiles nothing.
    pub fn positions(&self) -> usize {
        let (users, tasks) = self.base();
        (users.len() + tasks.len()) * (self.problem.instance().num_agents() - 1)
    }

    /// The decision at `position` of a sweep toward every agent
    /// ([`sweep_lazy`](Self::sweep_lazy) with nothing refused), counted
    /// from 0 in its order: placement entry `position / (L − 1)` (the
    /// session's users, then its tasks, counted through), moved to the
    /// agent of rank `position % (L − 1)` among the `L − 1` it does not
    /// sit on in the base placement. Compiles nothing.
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no such position.
    pub fn decision_at(&self, position: usize) -> Decision {
        let others = self.problem.instance().num_agents() - 1;
        let (slot, rank) = (position / others, position % others);
        let (users, tasks) = self.base();
        // The agents below the current one keep their rank; the rest
        // are one past it.
        let target = |current: AgentId| AgentId::from(rank + usize::from(rank >= current.index()));
        match slot.checked_sub(users.len()) {
            None => {
                let user = self.problem.instance().session(self.s).users()[slot];
                Decision::User(user, target(users[slot]))
            }
            Some(k) => Decision::Task(self.problem.tasks().of_session(self.s)[k], target(tasks[k])),
        }
    }

    /// The candidate enumerator: each user to each other agent, then
    /// each task to each other agent — ascending agents, targets
    /// `allowed` refuses skipped — handing every candidate to `visit`
    /// in that order as a [`Probe`], unfolded.
    pub fn sweep_lazy(
        &mut self,
        allowed: impl Fn(AgentId) -> bool,
        mut visit: impl FnMut(Decision, Probe<'_>),
    ) {
        self.ensure_compiled();
        let inst = self.problem.instance();
        let targets = || inst.agent_ids().filter(|&l| allowed(l));
        for (i, &u) in inst.session(self.s).users().iter().enumerate() {
            let current = self.eval.placement().0[i];
            for l in targets().filter(|&l| l != current) {
                self.probe(Slot::User(i), l, |probe| visit(Decision::User(u, l), probe));
            }
        }
        for (k, &t) in self.problem.tasks().of_session(self.s).iter().enumerate() {
            let current = self.eval.placement().1[k];
            for l in targets().filter(|&l| l != current) {
                self.probe(Slot::Task(k), l, |probe| visit(Decision::Task(t, l), probe));
            }
        }
    }

    /// [`sweep_lazy`](Self::sweep_lazy) folding every candidate: `visit`
    /// sees each complete load.
    pub fn sweep(
        &mut self,
        allowed: impl Fn(AgentId) -> bool,
        mut visit: impl FnMut(Decision, &SessionLoad),
    ) {
        self.sweep_lazy(allowed, |decision, probe| visit(decision, probe.fold()));
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

/// Enumerates all feasible single-decision moves of session `s`: each
/// user to each other agent, each transcoding task to each other agent.
/// Moves that would violate constraints (5)–(8) are filtered out.
pub fn feasible_moves(state: &SystemState, s: SessionId) -> Vec<Move> {
    let mut out = Vec::new();
    Neighborhood::of_state(state, s, &mut EvalScratch::new()).sweep(
        |l| state.is_agent_available(l),
        |decision, load| {
            if state.fits(s, load).is_ok() {
                out.push(Move {
                    decision,
                    new_phi: load.phi,
                    new_load: load.clone(),
                })
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{capacity_limited_problem, named_shapes, two_agent_problem};
    use crate::{Assignment, UapProblem};
    use std::sync::Arc;
    use vc_cost::{BandwidthCost, CostModel};
    use vc_model::AgentId;

    #[test]
    fn full_neighborhood_when_unconstrained() {
        let p = Arc::new(two_agent_problem());
        let asg = Assignment::all_to_agent(&p, AgentId::new(0));
        let st = SystemState::new(p.clone(), asg);
        let s = SessionId::new(0);
        let moves = feasible_moves(&st, s);
        // 2 users + 1 task, each with 1 alternative agent.
        assert_eq!(moves.len(), 3);
        let inst = p.instance();
        let size =
            (inst.session(s).len() + p.tasks().of_session(s).len()) * (inst.num_agents() - 1);
        assert_eq!(moves.len(), size);
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
        for m in st.active_sessions().flat_map(|s| feasible_moves(&st, s)) {
            // No feasible move may target agent c's transcoder (0 slots).
            if let Decision::Task(_, a) = m.decision {
                assert_ne!(a, AgentId::new(2), "task moved to zero-slot agent");
            }
        }
    }

    #[test]
    fn delay_bound_prunes_far_agents() {
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
        let active: Vec<_> = st.active_sessions().collect();
        assert_eq!(active, [SessionId::new(0)]);
        for s in active {
            for m in feasible_moves(&st, s) {
                assert_eq!(st.session_of(m.decision), s);
            }
        }
    }

    /// `delay half + rest ≡ fold`: on every candidate of every fixture,
    /// what a [`Probe`] reports before the rest-fold is already the
    /// finished load's, bit for bit, and a load folded after any mix of
    /// folded and skipped neighbours is the from-scratch evaluation of
    /// the moved assignment — `touched` included. A skipped candidate
    /// leaves its delay half over the previous fold's traffic half;
    /// neither may leak into the next fold. The floors are ordered,
    /// delay floor ≤ traffic floor ≤ `Φ`, under every bandwidth shape,
    /// and the traffic floor leaks nothing either: asked twice it
    /// answers the same bits, and the fold after it is still fresh.
    #[test]
    fn delay_half_plus_rest_is_the_fold_whatever_was_skipped() {
        use crate::evaluate::evaluate_session;
        let mut worlds: Vec<_> = [
            BandwidthCost::linear(),
            BandwidthCost::quadratic(0.5, 0.05),
            BandwidthCost::piecewise(vec![2.5, 5.0], vec![0.5, 1.0, 3.0]),
        ]
        .into_iter()
        .map(named_shapes)
        .collect();
        for p in [two_agent_problem(), capacity_limited_problem()] {
            let p = Arc::new(p);
            let asg = Assignment::all_to_agent(&p, AgentId::new(1));
            worlds.push((p, asg));
        }
        let mut eval = EvalScratch::new();
        let (mut probed, mut folded) = (0, 0);
        for (problem, asg) in &worlds {
            let state = SystemState::new(problem.clone(), asg.clone());
            // Fold every candidate, every 2nd, every 3rd, and none.
            for stride in [1, 2, 3, usize::MAX] {
                for s in problem.instance().session_ids() {
                    let weights = problem.cost().weights;
                    Neighborhood::of_state(&state, s, &mut eval).sweep_lazy(
                        |_| true,
                        |d, mut probe| {
                            let mut moved = asg.clone();
                            moved.apply(d);
                            let fresh = evaluate_session(problem, &moved, s);
                            let bits = f64::to_bits;
                            assert_eq!(
                                bits(probe.max_flow_delay()),
                                bits(fresh.max_flow_delay),
                                "{d}"
                            );
                            assert_eq!(
                                bits(probe.phi_floor()),
                                bits(weights.delay_floor(fresh.delay_cost)),
                                "{d}"
                            );
                            let floor = probe.traffic_floor();
                            assert_eq!(bits(floor), bits(probe.traffic_floor()), "{d}");
                            assert!(probe.phi_floor() <= floor, "{d}: floors out of order");
                            assert!(floor <= fresh.phi, "{d}: traffic floor above Φ");
                            probed += 1;
                            if probed % stride == 0 {
                                let load = probe.fold();
                                assert_eq!(load, &fresh, "{d}");
                                assert_eq!(bits(load.phi), bits(fresh.phi), "{d}");
                                assert_eq!(load.touched, fresh.touched, "{d}");
                                folded += 1;
                            }
                        },
                    );
                }
            }
        }
        assert!(
            probed > 600 && folded > 250 && folded < probed,
            "{probed} {folded}"
        );
    }

    /// A memo's candidate names: position `p` of a sweep toward every
    /// agent decodes to the `p`-th candidate `sweep_lazy` hands out,
    /// from a compiled and from a deferred neighbourhood alike, and
    /// `positions` counts them.
    #[test]
    fn decision_at_decodes_the_sweep_order() {
        let (problem, asg) = named_shapes(BandwidthCost::linear());
        let state = SystemState::new(problem.clone(), asg.clone());
        let (mut eval, mut other) = (EvalScratch::new(), EvalScratch::new());
        for s in problem.instance().session_ids() {
            let mut hood = Neighborhood::of_state(&state, s, &mut eval);
            let mut swept = Vec::new();
            hood.sweep_lazy(|_| true, |d, _| swept.push(d));
            let users: Vec<AgentId> = (problem.instance().session(s).users().iter())
                .map(|&u| asg.agent_of_user(u))
                .collect();
            let tasks: Vec<AgentId> = (problem.tasks().of_session(s).iter())
                .map(|&t| asg.agent_of_task(t))
                .collect();
            let deferred = Neighborhood::deferred(&mut other, &problem, s, &users, &tasks);
            assert_eq!(
                (hood.positions(), deferred.positions()),
                (swept.len(), swept.len())
            );
            for (p, &d) in swept.iter().enumerate() {
                assert_eq!(
                    (hood.decision_at(p), deferred.decision_at(p)),
                    (d, d),
                    "{s} at {p}"
                );
            }
        }
    }

    /// `commit ≡ begin` around the moved placement: a run of committed
    /// moves through one compile leaves each committed load, and every
    /// candidate weighed after it, bit-equal — `touched` included — to
    /// a from-scratch evaluation of the placement moved so far.
    #[test]
    fn commit_is_a_fresh_begin_around_the_moved_placement() {
        use crate::evaluate::evaluate_session;
        let (problem, mut asg) = named_shapes(BandwidthCost::quadratic(0.5, 0.05));
        let state = SystemState::new(problem.clone(), asg.clone());
        let inst = problem.instance();
        let mut eval = EvalScratch::new();
        let mut committed = 0;
        for s in inst.session_ids() {
            let mut hood = Neighborhood::of_state(&state, s, &mut eval);
            let users = inst.session(s).users().iter().map(|&u| (u, 3));
            for (k, (u, l)) in users.enumerate() {
                // Each user to agent 3, then one probe after the commit.
                let d = Decision::User(u, AgentId::new(l));
                asg.apply(d);
                let (index, load) = hood.commit(d);
                assert_eq!(index, k);
                let fresh = evaluate_session(&problem, &asg, s);
                assert_eq!(load, &fresh, "{d}");
                assert_eq!(load.touched, fresh.touched, "{d}");
                let probe = Decision::User(u, AgentId::from(k % 3));
                let mut moved = asg.clone();
                moved.apply(probe);
                let fresh = evaluate_session(&problem, &moved, s);
                let (_, load) = hood.candidate(probe);
                assert_eq!(load, &fresh, "{d} then {probe}");
                assert_eq!(load.phi.to_bits(), fresh.phi.to_bits(), "{probe}");
                committed += 1;
            }
        }
        assert_eq!(committed, inst.num_users());
    }
}
