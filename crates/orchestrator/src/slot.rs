//! One live session's slot: its placement, what its evaluated load
//! leaves live — the sparse hold, `Φ_s`, the inter-agent traffic and
//! the per-user delays — and the memo of its last hop's sweep.
//!
//! The slot keeps what the session touches, not a load over the whole
//! agent pool: the kernel's dense evaluation is read through
//! [`Evaluated`] and copied into the slot's own buffers at every write,
//! which reuse their room, so a hop commit allocates nothing in steady
//! state and a slot's size follows its conference, not the pool. An
//! agent's registration leaves every slot's bits as they are.
//!
//! The fields are private to this module so that the memo's
//! invalidation rule (`vc_algo::markov`, (f)) holds by construction:
//! placement and evaluation are written through [`SessionSlot::write`]
//! alone — a hop commit, an evacuation move, a reload — which retires
//! the memo through [`retire_memo`](SessionSlot::retire_memo), the one
//! place that does; an agent's registration, which writes nothing but
//! renumbers every memo's enumeration positions, calls that too.
//! Availability is no part of it: an agent's failure, return or drain
//! retires nothing (`vc_algo::markov`, (g)).

use crate::ledger::{Reservation, SessionHold};
use vc_algo::markov::HopMemo;
use vc_core::Decision;
use vc_model::AgentId;

/// An evaluation of a slot's placement, as the slot copies it in: the
/// reservation it implies ([`Reservation`], the non-zero agents
/// ascending), its `Φ_s`, its total inter-agent traffic and its
/// per-user delays.
pub(crate) trait Evaluated: Reservation {
    /// `Φ_s`.
    fn phi(&self) -> f64;
    /// Total inter-agent traffic (Mbps).
    fn ingress_mbps(&self) -> f64;
    /// Per-user delays, in `session.users()` order.
    fn user_delay(&self) -> &[f64];
}

/// One live session's share of the assignment: its users' and tasks'
/// agents (parallel to `instance.session(s).users()` and
/// `tasks.of_session(s)`) and what the evaluation of that placement
/// leaves live. Built by `Fleet::install_admitted`, dropped when the
/// session departs or is displaced: a session that is not live has no
/// slot.
///
/// It also keeps the session's [`HopMemo`] between hops. The memo is
/// derived state — never journaled or snapshotted, no part of
/// `durable_state()`, absent after recovery — and a hop that finds none
/// sweeps.
#[derive(Debug)]
pub(crate) struct SessionSlot {
    users: Vec<AgentId>,
    tasks: Vec<AgentId>,
    /// The evaluated load's reservation: what the ledger books for the
    /// session, and the `old` side of every capacity check.
    hold: SessionHold,
    /// The evaluated `Φ_s`.
    phi: f64,
    /// The evaluated total inter-agent traffic (Mbps).
    ingress_mbps: f64,
    /// The evaluated per-user delays, in `session.users()` order.
    user_delay: Vec<f64>,
    /// The last sweep kept here, current or retired: a retired memo
    /// only lends its buffers to the next one. Boxed: every fleet walk
    /// strides over the slots, and most of a memo is buffer headers.
    memo: Option<Box<HopMemo>>,
    /// Whether `memo` was swept over the placement and evaluation as
    /// they are: cleared by every write.
    current: bool,
    /// [`HopMemo::is_settled`] of `memo` as it was kept — all a fleet
    /// walk reads of it. (What a draw stores later is on the clamp,
    /// above `Φ_now`, and cannot unsettle it.)
    settled: bool,
}

impl SessionSlot {
    /// A slot over the placement `(users, tasks)` whose evaluation is
    /// still to come ([`loaded`](Self::loaded)).
    pub(crate) fn new(users: Vec<AgentId>, tasks: Vec<AgentId>) -> Self {
        Self {
            users,
            tasks,
            hold: SessionHold::default(),
            phi: 0.0,
            ingress_mbps: 0.0,
            user_delay: Vec::new(),
            memo: None,
            current: false,
            settled: false,
        }
    }

    /// The slot with `load`, its placement's evaluation, copied in —
    /// construction's second half (the placement has to exist to be
    /// evaluated); a live slot is written through `write`.
    pub(crate) fn loaded(mut self, load: &impl Evaluated) -> Self {
        self.write(load);
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

    /// The session's reservation, ascending by agent:
    /// [`SessionHold::from_load`] of its evaluation.
    pub(crate) fn hold(&self) -> &SessionHold {
        &self.hold
    }

    /// The evaluated `Φ_s`.
    pub(crate) fn phi(&self) -> f64 {
        self.phi
    }

    /// The evaluated total inter-agent traffic (Mbps).
    pub(crate) fn ingress_mbps(&self) -> f64 {
        self.ingress_mbps
    }

    /// The evaluated per-user delays, in `session.users()` order.
    pub(crate) fn user_delay(&self) -> &[f64] {
        &self.user_delay
    }

    /// The reservation, the slot consumed (what a departure hands
    /// back).
    pub(crate) fn into_hold(self) -> SessionHold {
        self.hold
    }

    /// The placement entry `decision` rewrites, `index` being its
    /// `UapProblem::local_index`.
    pub(crate) fn agent(&self, decision: Decision, index: usize) -> AgentId {
        match decision {
            Decision::User(..) => self.users[index],
            Decision::Task(..) => self.tasks[index],
        }
    }

    /// The one way a live slot's evaluation is written: retires the
    /// memo, which was a function of it, and copies `load` into the
    /// slot's buffers. Hands out the placement for the caller to write.
    fn write(&mut self, load: &impl Evaluated) -> (&mut [AgentId], &mut [AgentId]) {
        self.retire_memo();
        // Each buffer grows to what this session has needed, exactly:
        // a slot's few entries would otherwise round up to four.
        let (holds, delays) = (load.agent_holds(), load.user_delay());
        self.hold.holds.clear();
        self.hold.holds.reserve_exact(holds.clone().count());
        self.hold.holds.extend(holds);
        self.user_delay.clear();
        self.user_delay.reserve_exact(delays.len());
        self.user_delay.extend_from_slice(delays);
        self.phi = load.phi();
        self.ingress_mbps = load.ingress_mbps();
        (&mut self.users, &mut self.tasks)
    }

    /// Moves the session by `decision` (`index` its
    /// `UapProblem::local_index`): writes the target into the placement
    /// and copies in `load`, the new placement's evaluation. Returns
    /// the agent moved from.
    pub(crate) fn relocate(
        &mut self,
        decision: Decision,
        index: usize,
        load: &impl Evaluated,
    ) -> AgentId {
        let (users, tasks) = self.write(load);
        let entry = match decision {
            Decision::User(..) => &mut users[index],
            Decision::Task(..) => &mut tasks[index],
        };
        std::mem::replace(entry, decision.target())
    }

    /// Overwrites the evaluation with a fresh one of the same placement
    /// (`Fleet::load_drift`).
    pub(crate) fn reload(&mut self, fresh: &impl Evaluated) {
        self.write(fresh);
    }

    /// Retires the memo — the one place that does: every
    /// [`write`](Self::write), and an agent's registration, which
    /// renumbers the memo's enumeration positions and adds a candidate
    /// per placement entry while the hold, `Φ` and delays stay as they
    /// are (also the retained ≡ forgotten twin tests).
    pub(crate) fn retire_memo(&mut self) {
        self.current = false;
    }

    /// What a hop reads, and the memo it may draw from:
    /// `(users, tasks, hold, Φ, memo)` — the memo only if it was swept
    /// over this placement and evaluation, whichever agents are up now.
    pub(crate) fn hop_view(
        &mut self,
    ) -> (
        &[AgentId],
        &[AgentId],
        &SessionHold,
        f64,
        Option<&mut HopMemo>,
    ) {
        let memo = self.memo.as_deref_mut().filter(|_| self.current);
        (&self.users, &self.tasks, &self.hold, self.phi, memo)
    }

    /// Keeps `swept` — a sweep over this placement and evaluation — for
    /// the next hop: one copy, into the retired memo's buffers when
    /// there is one (a session's sweeps are much of a size).
    pub(crate) fn keep_memo(&mut self, swept: &HopMemo) {
        let memo: &mut HopMemo = self.memo.get_or_insert_with(Box::default);
        memo.clone_from(swept);
        self.current = true;
        self.settled = swept.is_settled();
    }

    /// Whether the session is *settled*: its last sweep is still valid
    /// and found no neighbour with a lower `Φ`
    /// ([`HopMemo::is_settled`]). A session that has not hopped since
    /// its placement or evaluation was written is still searching — and
    /// so is one whose sweep stored a lower-`Φ` move toward an agent
    /// that is down, which it may take once the agent is back, or
    /// drained. An agent's failure, restore or drain leaves every
    /// unmoved session as it was.
    pub(crate) fn is_settled(&self) -> bool {
        self.settled && self.current
    }

    /// The heap bytes the slot's buffers hold (their capacities), memo
    /// included — what the footprint guard bounds.
    #[cfg(test)]
    pub(crate) fn buffer_bytes(&self) -> usize {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let memo =
            (self.memo.as_deref()).map_or(0, |m| std::mem::size_of::<HopMemo>() + m.heap_bytes());
        heap(&self.users)
            + heap(&self.tasks)
            + heap(&self.hold.holds)
            + heap(&self.user_delay)
            + memo
    }
}
