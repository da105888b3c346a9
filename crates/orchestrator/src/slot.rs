//! One live session's slot: its placement, its evaluated load, and the
//! memo of its last hop's sweep.
//!
//! The fields are private to this module so that the memo's
//! invalidation rule (`vc_algo::markov`, (f)) holds by construction:
//! placement and load are written through [`SessionSlot::write`] alone,
//! and that is the one place a memo is retired — a hop commit, an
//! evacuation move, a reload, and an agent's registration, which
//! extends the load's agent axis. Availability is no part of it: an
//! agent's failure, return or drain retires nothing (`vc_algo::markov`,
//! (g)).

use vc_algo::markov::HopMemo;
use vc_core::{Decision, SessionLoad};
use vc_model::AgentId;

/// One live session's share of the assignment: its users' and tasks'
/// agents (parallel to `instance.session(s).users()` and
/// `tasks.of_session(s)`) and the evaluated load under that placement.
/// Built by `Fleet::install_admitted`, dropped when the session departs
/// or is displaced: a session that is not live has no slot.
///
/// It also keeps the session's [`HopMemo`] between hops. The memo is
/// derived state — never journaled or snapshotted, no part of
/// `durable_state()`, absent after recovery — and a hop that finds none
/// sweeps.
#[derive(Debug)]
pub(crate) struct SessionSlot {
    users: Vec<AgentId>,
    tasks: Vec<AgentId>,
    load: SessionLoad,
    /// The last sweep kept here, current or retired: a retired memo
    /// only lends its buffers to the next one. Boxed: every fleet walk
    /// strides over the slots, and the memo's three buffer headers are
    /// a third of one.
    memo: Option<Box<HopMemo>>,
    /// Whether `memo` was swept over the placement and load as they
    /// are: cleared by every write.
    current: bool,
    /// [`HopMemo::is_settled`] of `memo` as it was kept — all a fleet
    /// walk reads of it. (What a draw stores later is on the clamp,
    /// above `Φ_now`, and cannot unsettle it.)
    settled: bool,
}

impl SessionSlot {
    /// A slot over the placement `(users, tasks)` whose evaluated load
    /// is still to come ([`loaded`](Self::loaded)).
    pub(crate) fn new(users: Vec<AgentId>, tasks: Vec<AgentId>) -> Self {
        Self {
            users,
            tasks,
            load: SessionLoad::default(),
            memo: None,
            current: false,
            settled: false,
        }
    }

    /// The slot with `load`, its placement's evaluation, installed —
    /// construction's second half (the placement has to exist to be
    /// evaluated); a live slot is written through `write`.
    pub(crate) fn loaded(mut self, load: SessionLoad) -> Self {
        self.load = load;
        self
    }

    /// The users' agents, in `session.users()` order.
    pub(crate) fn users(&self) -> &[AgentId] {
        &self.users
    }

    /// The tasks' agents, in `tasks.of_session(s)` order.
    pub(crate) fn tasks(&self) -> &[AgentId] {
        &self.tasks
    }

    /// The evaluated load under the placement.
    pub(crate) fn load(&self) -> &SessionLoad {
        &self.load
    }

    /// The evaluated load, the slot consumed (what a departure hands
    /// back).
    pub(crate) fn into_load(self) -> SessionLoad {
        self.load
    }

    /// The placement entry `decision` rewrites, `index` being its
    /// `UapProblem::local_index`.
    pub(crate) fn agent(&self, decision: Decision, index: usize) -> AgentId {
        match decision {
            Decision::User(..) => self.users[index],
            Decision::Task(..) => self.tasks[index],
        }
    }

    /// The one way a live slot's placement or load is written: hands
    /// both out and retires the memo, which was a function of them.
    fn write(&mut self) -> (&mut [AgentId], &mut [AgentId], &mut SessionLoad) {
        self.current = false;
        (&mut self.users, &mut self.tasks, &mut self.load)
    }

    /// Moves the session by `decision` (`index` its
    /// `UapProblem::local_index`): writes the target into the placement
    /// and swaps the new placement's `load` in — the old load is left
    /// in `load`'s place, for an [`EvalScratch`](vc_core::EvalScratch)
    /// to clear. Returns the agent moved from.
    pub(crate) fn relocate(
        &mut self,
        decision: Decision,
        index: usize,
        load: &mut SessionLoad,
    ) -> AgentId {
        let (users, tasks, slot_load) = self.write();
        std::mem::swap(slot_load, load);
        let entry = match decision {
            Decision::User(..) => &mut users[index],
            Decision::Task(..) => &mut tasks[index],
        };
        std::mem::replace(entry, decision.target())
    }

    /// Overwrites the load with a fresh evaluation of the same
    /// placement (`Fleet::load_drift`).
    pub(crate) fn reload(&mut self, fresh: &SessionLoad) {
        self.write().2.clone_from(fresh);
    }

    /// Extends the load's agent axis to `num_agents` with zeros
    /// (append-only agent growth — the same load over more agents, and
    /// a sweep that enumerates one agent more).
    pub(crate) fn grow_agents(&mut self, num_agents: usize) {
        self.write().2.grow(num_agents);
    }

    /// What a hop reads, and the memo it may draw from:
    /// `(users, tasks, load, memo)` — the memo only if it was swept
    /// over this placement and load, whichever agents are up now.
    pub(crate) fn hop_view(
        &mut self,
    ) -> (&[AgentId], &[AgentId], &SessionLoad, Option<&mut HopMemo>) {
        let memo = self.memo.as_deref_mut().filter(|_| self.current);
        (&self.users, &self.tasks, &self.load, memo)
    }

    /// Keeps `swept` — a sweep over this placement and load — for the
    /// next hop: one copy, into the retired memo's buffers when there
    /// is one (a session's sweeps are much of a size).
    pub(crate) fn keep_memo(&mut self, swept: &HopMemo) {
        let memo: &mut HopMemo = self.memo.get_or_insert_with(Box::default);
        memo.clone_from(swept);
        self.current = true;
        self.settled = swept.is_settled();
    }

    /// Whether the session is *settled*: its last sweep is still valid
    /// and found no neighbour with a lower `Φ`
    /// ([`HopMemo::is_settled`]). A session that has not hopped since
    /// its placement or load was written is still searching — and so
    /// is one whose sweep stored a lower-`Φ` move toward an agent that
    /// is down, which it may take once the agent is back, or drained.
    /// An agent's failure, restore or drain leaves every unmoved
    /// session as it was.
    pub(crate) fn is_settled(&self) -> bool {
        self.settled && self.current
    }

    /// Forgets the memo (the retained ≡ forgotten twin tests).
    #[cfg(test)]
    pub(crate) fn forget_memo(&mut self) {
        self.write();
    }
}
