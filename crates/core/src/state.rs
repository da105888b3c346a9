//! Incrementally-maintained global system state.
//!
//! [`SystemState`] caches one [`SessionLoad`] per session plus per-agent
//! load totals. Because a [`Decision`] touches exactly one session, a
//! candidate move re-evaluates only that session and asks [`fits`] — at
//! the agents the candidate touches, `new − old ≤ capacity − totals` —
//! the same information Alg. 1's HOP step fetches as "the updated list of
//! residual capacities of agents". The orchestrator's fleet asks the same
//! [`fits`] against its own reserved totals.

use crate::evaluate::{evaluate_session, AgentDemand, EvalScratch, OverlayView, SessionLoad};
use crate::{Assignment, Decision, UapProblem, Violation};
use std::sync::{Arc, Mutex};
use vc_model::{AgentId, Instance, SessionId};

/// Aggregate per-agent loads across all *active* sessions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AgentTotals {
    /// Download load per agent (Mbps), constraint (5) LHS.
    pub download: Vec<f64>,
    /// Upload load per agent (Mbps), constraint (6) LHS.
    pub upload: Vec<f64>,
    /// Transcoding units per agent, constraint (7) LHS.
    pub transcode: Vec<u32>,
}

impl AgentTotals {
    /// All-zero totals over `num_agents` agents.
    pub fn zero(num_agents: usize) -> Self {
        Self {
            download: vec![0.0; num_agents],
            upload: vec![0.0; num_agents],
            transcode: vec![0; num_agents],
        }
    }

    /// Adds one session's load — sparse, touching only the agents the
    /// load touches.
    pub fn add(&mut self, load: &SessionLoad) {
        for &a in &load.touched {
            let l = a as usize;
            self.download[l] += load.download[l];
            self.upload[l] += load.upload[l];
            self.transcode[l] += load.transcode_units[l];
        }
    }

    /// Removes one session's load (the exact inverse of [`add`](Self::add)).
    pub fn remove(&mut self, load: &SessionLoad) {
        for &a in &load.touched {
            let l = a as usize;
            self.download[l] -= load.download[l];
            self.upload[l] -= load.upload[l];
            self.transcode[l] -= load.transcode_units[l];
        }
    }
}

/// The global state of the conferencing system under one assignment:
/// cached per-session loads, per-agent totals, and the set of active
/// sessions.
#[derive(Debug)]
pub struct SystemState {
    problem: Arc<UapProblem>,
    assignment: Assignment,
    active: Vec<bool>,
    loads: Vec<SessionLoad>,
    totals: AgentTotals,
    /// Per-agent availability: failed or drained agents accept no new
    /// users/tasks and are reported as violations while still loaded.
    available: Vec<bool>,
    /// Internal evaluation scratch so the convenience paths
    /// ([`candidate`](Self::candidate), [`try_apply`](Self::try_apply))
    /// stay clone-free; hot loops pass their own scratch to
    /// [`candidate_into`](Self::candidate_into) instead.
    scratch: Mutex<EvalScratch>,
}

impl Clone for SystemState {
    fn clone(&self) -> Self {
        Self {
            problem: self.problem.clone(),
            assignment: self.assignment.clone(),
            active: self.active.clone(),
            loads: self.loads.clone(),
            totals: self.totals.clone(),
            available: self.available.clone(),
            scratch: Mutex::new(EvalScratch::new()),
        }
    }
}

/// Numerical slack for capacity and delay comparisons, guarding against
/// float drift in the incrementally-maintained totals: the one slack of
/// [`fits`], which both worlds' hops and evacuations ask, and of the
/// orchestrator's ledger and admission checks.
pub const CAPACITY_EPS: f64 = 1e-6;

/// The feasibility rule of hops and evacuations, in both worlds — the
/// paper's constraints (5)–(8) for session `s`'s candidate `load`
/// replacing its committed `old`, against `reserved` (what every active
/// session holds, `old` included): the delay bound first, then
/// [`demand_fits`].
///
/// # Errors
///
/// The delay violation, else the first capacity violation.
#[inline]
pub fn fits(
    s: SessionId,
    load: &SessionLoad,
    old: &SessionLoad,
    reserved: &AgentTotals,
    inst: &Instance,
) -> Result<(), Violation> {
    if load.max_flow_delay > inst.d_max_ms() + CAPACITY_EPS {
        return Err(Violation::Delay {
            session: s,
            delay_ms: load.max_flow_delay,
            bound_ms: inst.d_max_ms(),
        });
    }
    demand_fits(load.demand(), old, reserved, inst)
}

/// The capacity half of [`fits`], constraints (5)–(7), on a candidate's
/// sparse [demand](SessionLoad::demand) — all a hop keeps of a
/// candidate between sweeps: per agent the candidate *touches* only,
/// `new − old ≤ capacity − reserved`. An agent the candidate does not
/// touch vetoes nothing, even when overshot; an agent that
/// advertises unlimited transcoding never refuses; and the free capacity
/// is signed — an agent a forced evacuation overshot takes only
/// candidates that lower its load by at least the overshoot.
///
/// # Errors
///
/// The first capacity violation, its load `reserved − old + new`.
#[inline]
pub fn demand_fits(
    demand: impl IntoIterator<Item = AgentDemand>,
    old: &SessionLoad,
    reserved: &AgentTotals,
    inst: &Instance,
) -> Result<(), Violation> {
    for new in demand {
        let i = new.agent as usize;
        let agent = AgentId::from(i);
        let cap = inst.agent(agent).capacity();
        let free_download = cap.download_mbps - reserved.download[i];
        if new.download - old.download[i] > free_download + CAPACITY_EPS {
            return Err(Violation::Download {
                agent,
                load_mbps: reserved.download[i] - old.download[i] + new.download,
                capacity_mbps: cap.download_mbps,
            });
        }
        let free_upload = cap.upload_mbps - reserved.upload[i];
        if new.upload - old.upload[i] > free_upload + CAPACITY_EPS {
            return Err(Violation::Upload {
                agent,
                load_mbps: reserved.upload[i] - old.upload[i] + new.upload,
                capacity_mbps: cap.upload_mbps,
            });
        }
        if cap.transcode_slots != u32::MAX
            && f64::from(new.transcode_units) - f64::from(old.transcode_units[i])
                > f64::from(cap.transcode_slots) - f64::from(reserved.transcode[i])
        {
            return Err(Violation::Transcode {
                agent,
                units: reserved.transcode[i] - old.transcode_units[i] + new.transcode_units,
                capacity: cap.transcode_slots,
            });
        }
    }
    Ok(())
}

impl SystemState {
    /// Creates a state with **all** sessions active.
    pub fn new(problem: Arc<UapProblem>, assignment: Assignment) -> Self {
        let n = problem.instance().num_sessions();
        Self::with_active(problem, assignment, vec![true; n])
    }

    /// Creates a state with an explicit active-session mask (dynamic
    /// scenarios start some sessions later).
    ///
    /// # Panics
    ///
    /// Panics if `active.len()` differs from the session count.
    pub fn with_active(
        problem: Arc<UapProblem>,
        assignment: Assignment,
        active: Vec<bool>,
    ) -> Self {
        assert_eq!(
            active.len(),
            problem.instance().num_sessions(),
            "active mask must cover all sessions"
        );
        let nl = problem.instance().num_agents();
        let mut loads = Vec::with_capacity(active.len());
        let mut totals = AgentTotals::zero(nl);
        let mut scratch = EvalScratch::new();
        for s in problem.instance().session_ids() {
            if active[s.index()] {
                let load = scratch.evaluate(&problem, &assignment, s).clone();
                totals.add(&load);
                loads.push(load);
            } else {
                loads.push(SessionLoad::empty(nl));
            }
        }
        let available = vec![true; nl];
        Self {
            problem,
            assignment,
            active,
            loads,
            totals,
            available,
            scratch: Mutex::new(scratch),
        }
    }

    /// Marks an agent available/unavailable (failure injection or
    /// drain-for-maintenance). Unavailable agents reject all new moves;
    /// load still assigned there is reported by [`violations`](Self::violations).
    pub fn set_agent_available(&mut self, l: AgentId, available: bool) {
        self.available[l.index()] = available;
    }

    /// Whether agent `l` currently accepts load.
    pub fn is_agent_available(&self, l: AgentId) -> bool {
        self.available[l.index()]
    }

    /// The underlying problem.
    pub fn problem(&self) -> &Arc<UapProblem> {
        &self.problem
    }

    /// The current assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// Whether session `s` is active.
    pub fn is_active(&self, s: SessionId) -> bool {
        self.active[s.index()]
    }

    /// Ids of the currently active sessions.
    pub fn active_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.problem
            .instance()
            .session_ids()
            .filter(move |s| self.active[s.index()])
    }

    /// Cached load of session `s` (zeroed if inactive).
    pub fn session_load(&self, s: SessionId) -> &SessionLoad {
        &self.loads[s.index()]
    }

    /// Per-agent load totals over active sessions.
    pub fn totals(&self) -> &AgentTotals {
        &self.totals
    }

    /// Global objective `Φ = Σ_s Φ_s` over active sessions.
    pub fn objective(&self) -> f64 {
        self.active_sessions()
            .map(|s| self.loads[s.index()].phi)
            .sum()
    }

    /// Local objective `Φ_s` of one session.
    pub fn session_objective(&self, s: SessionId) -> f64 {
        self.loads[s.index()].phi
    }

    /// Total inter-agent traffic in Mbps (the paper's headline cost metric).
    pub fn total_traffic_mbps(&self) -> f64 {
        self.active_sessions()
            .map(|s| self.loads[s.index()].total_ingress_mbps())
            .sum()
    }

    /// Average conferencing delay over all active users (the paper's
    /// headline experience metric): mean of `d_u`.
    pub fn mean_delay_ms(&self) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for s in self.active_sessions() {
            for d in &self.loads[s.index()].user_delay {
                sum += d;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// All constraint violations of the current state.
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let inst = self.problem.instance();
        for l in inst.agent_ids() {
            let cap = inst.agent(l).capacity();
            let dl = self.totals.download[l.index()];
            if dl > cap.download_mbps + CAPACITY_EPS {
                out.push(Violation::Download {
                    agent: l,
                    load_mbps: dl,
                    capacity_mbps: cap.download_mbps,
                });
            }
            let ul = self.totals.upload[l.index()];
            if ul > cap.upload_mbps + CAPACITY_EPS {
                out.push(Violation::Upload {
                    agent: l,
                    load_mbps: ul,
                    capacity_mbps: cap.upload_mbps,
                });
            }
            let tl = self.totals.transcode[l.index()];
            if tl > cap.transcode_slots {
                out.push(Violation::Transcode {
                    agent: l,
                    units: tl,
                    capacity: cap.transcode_slots,
                });
            }
        }
        for s in self.active_sessions() {
            let load = &self.loads[s.index()];
            if load.max_flow_delay > inst.d_max_ms() + CAPACITY_EPS {
                out.push(Violation::Delay {
                    session: s,
                    delay_ms: load.max_flow_delay,
                    bound_ms: inst.d_max_ms(),
                });
            }
        }
        // Unavailable agents still carrying users or tasks.
        for l in inst.agent_ids() {
            if self.available[l.index()] {
                continue;
            }
            let hosts_load = self.active_sessions().any(|s| {
                inst.session(s)
                    .users()
                    .iter()
                    .any(|&u| self.assignment.agent_of_user(u) == l)
                    || self
                        .problem
                        .tasks()
                        .of_session(s)
                        .iter()
                        .any(|&t| self.assignment.agent_of_task(t) == l)
            });
            if hosts_load {
                out.push(Violation::Unavailable { agent: l });
            }
        }
        out
    }

    /// Whether the current state satisfies constraints (5)–(8).
    pub fn is_feasible(&self) -> bool {
        self.violations().is_empty()
    }

    /// The session a decision belongs to.
    pub fn session_of(&self, decision: Decision) -> SessionId {
        match decision {
            Decision::User(u, _) => self.problem.instance().user(u).session(),
            Decision::Task(t, _) => {
                let task = self.problem.tasks().task(t);
                self.problem.instance().user(task.src).session()
            }
        }
    }

    /// Evaluates a candidate decision without committing: returns the new
    /// session load and the first violation it would introduce, if any.
    ///
    /// Feasibility is [`fits`] against the cached totals.
    /// Convenience wrapper over [`candidate_into`](Self::candidate_into)
    /// (which is what the hop hot path calls with its own scratch).
    pub fn candidate(&self, decision: Decision) -> (SessionLoad, Result<(), Violation>) {
        let mut scratch = self.scratch.lock().expect("scratch lock");
        let verdict = self.candidate_into(decision, &mut scratch);
        (scratch.load().clone(), verdict)
    }

    /// Evaluates a candidate decision into `scratch` — the allocation-free
    /// primitive of the HOP path. The evaluated load is left in the
    /// scratch (read it with [`EvalScratch::load`]); no global state is
    /// cloned: the candidate is an [`OverlayView`] over the committed
    /// assignment.
    pub fn candidate_into(
        &self,
        decision: Decision,
        scratch: &mut EvalScratch,
    ) -> Result<(), Violation> {
        let s = self.session_of(decision);
        let target = decision.target();
        let view = OverlayView::new(&self.assignment, decision);
        scratch.evaluate(&self.problem, &view, s);
        if !self.available[target.index()] {
            Err(Violation::Unavailable { agent: target })
        } else {
            self.fits(s, scratch.load())
        }
    }

    /// [`fits`] for session `s`'s committed load against the totals —
    /// the feasibility half of [`candidate_into`](Self::candidate_into),
    /// for callers that weigh candidates themselves. An inactive session
    /// holds nothing and fits anywhere.
    ///
    /// # Errors
    ///
    /// The first violation the swap would introduce.
    pub fn fits(&self, s: SessionId, new_load: &SessionLoad) -> Result<(), Violation> {
        if !self.active[s.index()] {
            return Ok(());
        }
        let old = &self.loads[s.index()];
        fits(s, new_load, old, &self.totals, self.problem.instance())
    }

    /// [`demand_fits`] for session `s`'s committed load against the
    /// totals — what a caller that kept only a candidate's sparse
    /// [`demand`](SessionLoad::demand) can still ask. An inactive
    /// session holds nothing and fits anywhere.
    ///
    /// # Errors
    ///
    /// The first capacity violation the swap would introduce.
    pub fn demand_fits(
        &self,
        s: SessionId,
        demand: impl IntoIterator<Item = AgentDemand>,
    ) -> Result<(), Violation> {
        if !self.active[s.index()] {
            return Ok(());
        }
        let old = &self.loads[s.index()];
        demand_fits(demand, old, &self.totals, self.problem.instance())
    }

    /// Applies a decision if it keeps the system feasible.
    ///
    /// # Errors
    ///
    /// Returns the violation the move would introduce; the state is
    /// unchanged on error.
    pub fn try_apply(&mut self, decision: Decision) -> Result<(), Violation> {
        let mut scratch = std::mem::take(self.scratch.get_mut().expect("scratch lock"));
        let result = self.candidate_into(decision, &mut scratch);
        if result.is_ok() {
            self.commit_scratch(decision, &mut scratch);
        }
        *self.scratch.get_mut().expect("scratch lock") = scratch;
        result
    }

    /// Applies a decision unconditionally (the state may become
    /// infeasible; `violations()` will report it).
    pub fn apply_unchecked(&mut self, decision: Decision) {
        let mut scratch = std::mem::take(self.scratch.get_mut().expect("scratch lock"));
        let _ = self.candidate_into(decision, &mut scratch);
        self.commit_scratch(decision, &mut scratch);
        *self.scratch.get_mut().expect("scratch lock") = scratch;
    }

    /// Commits the decision whose candidate load `scratch` currently
    /// holds (from [`candidate_into`](Self::candidate_into) for the same
    /// decision): applies the assignment change, swaps the evaluated
    /// load into the session's slot, and updates the per-agent totals
    /// sparsely. No allocation.
    pub fn commit_scratch(&mut self, decision: Decision, scratch: &mut EvalScratch) {
        let s = self.session_of(decision);
        self.assignment.apply(decision);
        if self.active[s.index()] {
            self.totals.remove(&self.loads[s.index()]);
            self.totals.add(scratch.load());
        }
        std::mem::swap(&mut self.loads[s.index()], scratch.load_mut());
    }

    /// Activates session `s` (a session arrival), adding its load under
    /// the current assignment.
    pub fn activate(&mut self, s: SessionId) {
        if self.active[s.index()] {
            return;
        }
        let load = evaluate_session(&self.problem, &self.assignment, s);
        self.totals.add(&load);
        self.loads[s.index()] = load;
        self.active[s.index()] = true;
    }

    /// Deactivates session `s` (a session departure), releasing its
    /// resources.
    pub fn deactivate(&mut self, s: SessionId) {
        if !self.active[s.index()] {
            return;
        }
        self.totals.remove(&self.loads[s.index()]);
        self.loads[s.index()] = SessionLoad::empty(self.problem.instance().num_agents());
        self.active[s.index()] = false;
    }

    /// Replaces the assignment of one session wholesale (bootstrap /
    /// repair), re-evaluating it. Other sessions are untouched.
    pub fn reassign_session(
        &mut self,
        s: SessionId,
        user_agents: &[(vc_model::UserId, AgentId)],
        task_agents: &[(crate::TaskId, AgentId)],
    ) {
        for &(u, a) in user_agents {
            debug_assert_eq!(self.problem.instance().user(u).session(), s);
            self.assignment.set_user(u, a);
        }
        for &(t, a) in task_agents {
            self.assignment.set_task(t, a);
        }
        if self.active[s.index()] {
            let new_load = evaluate_session(&self.problem, &self.assignment, s);
            self.totals.remove(&self.loads[s.index()]);
            self.totals.add(&new_load);
            self.loads[s.index()] = new_load;
        } else {
            // Inactive sessions carry no load (the deactivate convention);
            // activation evaluates the new assignment exactly once. This
            // keeps reassign+activate — the admission hot path — at one
            // evaluation instead of two.
            self.loads[s.index()] = SessionLoad::empty(self.problem.instance().num_agents());
        }
    }

    /// Rebuilds all cached loads and totals from scratch, squashing any
    /// accumulated floating-point drift. Returns the largest absolute
    /// total-load correction applied (useful for drift monitoring).
    /// Agent availability is preserved.
    pub fn rebuild(&mut self) -> f64 {
        let mut fresh = SystemState::with_active(
            self.problem.clone(),
            self.assignment.clone(),
            self.active.clone(),
        );
        fresh.available = self.available.clone();
        let mut drift: f64 = 0.0;
        for l in 0..self.totals.download.len() {
            drift = drift.max((self.totals.download[l] - fresh.totals.download[l]).abs());
            drift = drift.max((self.totals.upload[l] - fresh.totals.upload[l]).abs());
        }
        self.loads = fresh.loads;
        self.totals = fresh.totals;
        drift
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{capacity_limited_problem, two_agent_problem};
    use crate::TaskId;
    use vc_model::UserId;

    const A: AgentId = AgentId::new(0);
    const B: AgentId = AgentId::new(1);

    fn state() -> SystemState {
        let p = Arc::new(two_agent_problem());
        let asg = Assignment::all_to_agent(&p, A);
        SystemState::new(p, asg)
    }

    #[test]
    fn objective_matches_session_sum() {
        let st = state();
        let s = SessionId::new(0);
        assert!((st.objective() - st.session_objective(s)).abs() < 1e-12);
        assert!(st.objective() > 0.0);
    }

    #[test]
    fn apply_updates_incrementally_and_consistently() {
        let mut st = state();
        st.apply_unchecked(Decision::User(UserId::new(1), B));
        st.apply_unchecked(Decision::Task(TaskId::new(0), B));
        let incremental = (st.objective(), st.total_traffic_mbps(), st.totals().clone());
        let drift = st.rebuild();
        assert!(drift < 1e-9, "drift {drift}");
        assert!((st.objective() - incremental.0).abs() < 1e-9);
        assert!((st.total_traffic_mbps() - incremental.1).abs() < 1e-9);
        assert_eq!(st.totals(), &incremental.2);
    }

    #[test]
    fn try_apply_rejects_capacity_violation() {
        let p = Arc::new(capacity_limited_problem());
        let asg = Assignment::all_to_agent(&p, A);
        let mut st = SystemState::new(p, asg);
        // Agent c has zero transcoding slots: moving any task there must fail.
        let err = st.try_apply(Decision::Task(TaskId::new(0), AgentId::new(2)));
        assert!(matches!(err, Err(Violation::Transcode { .. })));
        // State unchanged.
        assert_eq!(st.assignment().agent_of_task(TaskId::new(0)), A);
    }

    #[test]
    fn deactivate_releases_resources() {
        let mut st = state();
        let s = SessionId::new(0);
        let before = st.totals().download[A.index()];
        assert!(before > 0.0);
        st.deactivate(s);
        assert_eq!(st.totals().download[A.index()], 0.0);
        assert_eq!(st.objective(), 0.0);
        assert_eq!(st.mean_delay_ms(), 0.0);
        st.activate(s);
        assert!((st.totals().download[A.index()] - before).abs() < 1e-12);
    }

    #[test]
    fn activate_is_idempotent() {
        let mut st = state();
        let s = SessionId::new(0);
        let obj = st.objective();
        st.activate(s);
        st.activate(s);
        assert!((st.objective() - obj).abs() < 1e-12);
    }

    #[test]
    fn mean_delay_averages_users() {
        let mut st = state();
        st.apply_unchecked(Decision::User(UserId::new(1), B));
        let load = st.session_load(SessionId::new(0));
        let expected = (load.user_delay[0] + load.user_delay[1]) / 2.0;
        assert!((st.mean_delay_ms() - expected).abs() < 1e-12);
    }

    #[test]
    fn candidate_does_not_mutate() {
        let st = state();
        let before = st.assignment().clone();
        let (_, verdict) = st.candidate(Decision::User(UserId::new(0), B));
        assert!(verdict.is_ok());
        assert_eq!(st.assignment(), &before);
    }

    #[test]
    fn unlimited_capacity_state_is_feasible() {
        let st = state();
        assert!(st.is_feasible(), "violations: {:?}", st.violations());
    }

    #[test]
    fn unavailable_agents_reject_moves_and_report_load() {
        let mut st = state();
        st.set_agent_available(B, false);
        let err = st.try_apply(Decision::User(UserId::new(0), B));
        assert!(matches!(err, Err(Violation::Unavailable { agent }) if agent == B));
        // Nothing on B yet: no violation reported.
        assert!(st.is_feasible());
        // Force a user onto B, then mark B down: the violation appears.
        st.set_agent_available(B, true);
        st.try_apply(Decision::User(UserId::new(0), B)).unwrap();
        st.set_agent_available(B, false);
        assert!(st
            .violations()
            .iter()
            .any(|v| matches!(v, Violation::Unavailable { agent } if *agent == B)));
        // Moving the user back to A repairs it.
        st.try_apply(Decision::User(UserId::new(0), A)).unwrap();
        // The task may still sit on A; B carries nothing.
        assert!(st.is_feasible(), "violations: {:?}", st.violations());
        // Rebuild preserves availability.
        st.rebuild();
        assert!(!st.is_agent_available(B));
    }

    /// Pins the PR 3 semantic change in `check_swap`: feasibility of a
    /// move scans only the agents whose load changes (the union of the
    /// old and new touched sets). A **pre-existing** capacity overshoot
    /// on an agent the move does not touch — the artifact of a forced
    /// evacuation — must therefore NOT veto the unrelated move. (The
    /// seed's dense scan re-checked every agent, so a single overshot
    /// agent froze every session in place; the overshoot itself is
    /// still reported by `violations()` and drained by moves that do
    /// touch the agent.)
    #[test]
    fn untouched_agent_overshoot_does_not_veto_unrelated_moves() {
        let p = Arc::new(capacity_limited_problem());
        let mut asg = Assignment::all_to_agent(&p, A);
        // Session 0 alone would overshoot A's 2 transcode slots with all
        // three of its tasks there; park one on B so the agents of the
        // unrelated move below are themselves clean.
        let spill = p
            .tasks()
            .find(UserId::new(1), UserId::new(2))
            .expect("u1→u2 needs transcoding");
        asg.set_task(spill, B);
        let mut st = SystemState::new(p.clone(), asg);
        let c = AgentId::new(2);
        // Force session 1 wholesale onto agent c (8 Mbps, 0 slots): a
        // deliberate overshoot, as a forced evacuation would leave.
        let s1 = SessionId::new(1);
        for &u in p.instance().session(s1).users() {
            st.apply_unchecked(Decision::User(u, c));
        }
        for &t in p.tasks().of_session(s1) {
            st.apply_unchecked(Decision::Task(t, c));
        }
        assert!(
            st.violations()
                .iter()
                .any(|v| matches!(v, Violation::Download { agent, .. } if *agent == c)),
            "fixture no longer overshoots agent c: {:?}",
            st.violations()
        );
        // An unrelated session-0 move between a and b touches only
        // {a, b}; the overshoot on c must not veto it.
        let verdict = st.try_apply(Decision::User(UserId::new(1), B));
        assert_eq!(verdict, Ok(()), "untouched overshoot vetoed the move");
        // Sanity: a move that DOES touch c and adds load there is still
        // refused by the same sparse check.
        let err = st.try_apply(Decision::User(UserId::new(0), c));
        let refused_on_c = match err {
            Err(Violation::Download { agent, .. }) | Err(Violation::Upload { agent, .. }) => {
                agent == c
            }
            _ => false,
        };
        assert!(
            refused_on_c,
            "move onto the overshot agent was not refused: {err:?}"
        );
    }

    /// Three agents of `cap_mbps` both ways and `slots` transcoding
    /// slots each, one session.
    fn universe(cap_mbps: f64, slots: u32) -> UapProblem {
        use vc_cost::CostModel;
        use vc_model::{AgentSpec, Capacity, InstanceBuilder, ReprLadder};
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        for name in ["a", "b", "c"] {
            let capacity = Capacity::new(cap_mbps, cap_mbps, slots);
            b.add_agent(AgentSpec::builder(name).capacity(capacity).build());
        }
        let s = b.add_session();
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 25.0, |_, _| 8.0);
        b.d_max_ms(10_000.0);
        UapProblem::new(b.build().unwrap(), CostModel::paper_default())
    }

    /// The one capacity predicate of hops and evacuations, case by case.
    /// Everything happens on agent 0 of a 100 Mbps universe: `reserved`
    /// is booked there (the session's committed `old` share included)
    /// and the session proposes `new`. Then the closed world asks it
    /// through [`SystemState::try_apply`].
    #[test]
    fn fits_is_the_signed_sparse_capacity_rule() {
        #[derive(Debug, Clone, Copy)]
        enum Res {
            Down,
            Up,
            Units,
        }
        use Res::*;
        const S: SessionId = SessionId::new(0);
        // `x` of one resource on agent 0, nothing of the other two.
        let share = |res, x: f64| match res {
            Down => (x, 0.0, 0),
            Up => (0.0, x, 0),
            Units => (0.0, 0.0, x as u32),
        };
        let load_of = |(download, upload, units): (f64, f64, u32), touched: &[u32]| {
            let mut load = SessionLoad::empty(3);
            (load.download[0], load.upload[0], load.transcode_units[0]) = (download, upload, units);
            load.touched = touched.to_vec();
            load
        };
        let ulp_above = |x: f64| f64::from_bits(x.to_bits() + 1);
        // 60 of 100 Mbps reserved: exactly `edge` more still fits.
        let edge = (100.0 - 60.0) + CAPACITY_EPS;
        let over = ulp_above(edge);
        const ANY: u32 = u32::MAX; // unlimited transcoding
        let cases: [(&str, Res, u32, f64, f64, f64, bool); 12] = [
            // (what, resource, agent 0's slots, reserved, old, new, fits)
            ("residual + eps", Down, 4, 60.0, 0.0, edge, true),
            ("one ulp above it", Down, 4, 60.0, 0.0, over, false),
            ("residual + eps", Up, 4, 60.0, 0.0, edge, true),
            ("one ulp above it", Up, 4, 60.0, 0.0, over, false),
            ("last free slot", Units, 4, 3.0, 1.0, 2.0, true),
            ("one slot too many", Units, 4, 3.0, 1.0, 3.0, false),
            ("never refuses", Units, ANY, 4e6, 0.0, 4e9, true),
            // A forced evacuation left agent 0 overshot by 30 Mbps / 2 slots.
            ("lowered by the overshoot", Down, 4, 130.0, 50.0, 20.0, true),
            ("lowered by less", Down, 4, 130.0, 50.0, 21.0, false),
            ("lowered by less", Up, 4, 130.0, 50.0, 21.0, false),
            ("overshot slots freed", Units, 4, 6.0, 3.0, 1.0, true),
            ("one too few freed", Units, 4, 6.0, 3.0, 2.0, false),
        ];
        for (what, res, slots, reserved, old, new, expected) in cases {
            let problem = universe(100.0, slots);
            let mut totals = AgentTotals::zero(3);
            (totals.download[0], totals.upload[0], totals.transcode[0]) = share(res, reserved);
            let (old, new) = (
                load_of(share(res, old), &[0]),
                load_of(share(res, new), &[0]),
            );
            let verdict = fits(S, &new, &old, &totals, problem.instance()).is_ok();
            assert_eq!(verdict, expected, "{res:?}: {what}");
        }

        // An overshot agent the candidate does not touch vetoes nothing.
        let problem = universe(100.0, 4);
        let inst = problem.instance();
        let mut totals = AgentTotals::zero(3);
        (totals.download[2], totals.upload[2], totals.transcode[2]) = (130.0, 130.0, 9);
        let old = load_of((0.0, 0.0, 0), &[0]);
        let mut new = load_of((10.0, 10.0, 1), &[0]);
        assert_eq!(fits(S, &new, &old, &totals, inst), Ok(()));

        // The delay bound has the same slack and is checked first: over it,
        // no agent is looked at (`late` touches one that does not exist).
        new.max_flow_delay = inst.d_max_ms() + CAPACITY_EPS;
        assert_eq!(fits(S, &new, &old, &totals, inst), Ok(()));
        let mut late = load_of((0.0, 0.0, 0), &[99]);
        late.max_flow_delay = ulp_above(new.max_flow_delay);
        assert!(matches!(
            fits(S, &late, &old, &totals, inst),
            Err(Violation::Delay { session: S, .. })
        ));

        // The closed world asks the same rule: a user leaves agent c,
        // which session 1's forced overshoot keeps over capacity, for a
        // roomy agent — the move touches c no more, so c vetoes nothing.
        let p = Arc::new(capacity_limited_problem());
        let mut asg = Assignment::all_to_agent(&p, A);
        let spill = (p.tasks().find(UserId::new(1), UserId::new(2))).expect("a transcoded flow");
        asg.set_task(spill, B);
        let mut st = SystemState::new(p.clone(), asg);
        let c = AgentId::new(2);
        let s1 = SessionId::new(1);
        for &u in p.instance().session(s1).users() {
            st.apply_unchecked(Decision::User(u, c));
        }
        for &t in p.tasks().of_session(s1) {
            st.apply_unchecked(Decision::Task(t, c));
        }
        st.apply_unchecked(Decision::User(UserId::new(0), c));
        let overshot = |st: &SystemState| {
            (st.violations().iter())
                .any(|v| matches!(v, Violation::Download { agent, .. } if *agent == c))
        };
        assert!(overshot(&st), "{:?}", st.violations());
        assert_eq!(st.try_apply(Decision::User(UserId::new(0), A)), Ok(()));
        assert!(overshot(&st), "{:?}", st.violations());
    }

    #[test]
    fn reassign_session_wholesale() {
        let mut st = state();
        st.reassign_session(
            SessionId::new(0),
            &[(UserId::new(0), B), (UserId::new(1), B)],
            &[(TaskId::new(0), B)],
        );
        assert_eq!(st.assignment().agent_of_user(UserId::new(0)), B);
        assert_eq!(st.total_traffic_mbps(), 0.0); // everyone co-located on B
        let drift = st.rebuild();
        assert!(drift < 1e-9);
    }
}
