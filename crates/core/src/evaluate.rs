//! Per-session evaluation: traffic accounting `μ_klu`, transcoding
//! occupancy `ν_lru`, end-to-end delays `d_uv`, and the local objective
//! `Φ_s`.
//!
//! This module is a line-by-line transcription of Sec. III-B/III-C:
//!
//! * **`μ_klu`** (download traffic at agent `l` receiving via agent `k`
//!   the stream originated by `u`) has three terms: (1) the raw upstream
//!   shipped from `u`'s agent to every agent transcoding `u`'s stream;
//!   (2) the raw upstream shipped to agents hosting destinations that
//!   want it un-transcoded (skipped when the agent already receives the
//!   stream for transcoding — the paper's `(1−ν′_lu)` factor); (3) each
//!   transcoded representation shipped from its transcoder(s) to the
//!   agents hosting destinations demanding it (skipped when the
//!   destination agent is `u`'s own agent — the paper's `(1−λ_lu)`
//!   factor).
//! * **`ν_lru`** occupies one transcoding unit per *distinct* `(u, r)`
//!   pair at an agent regardless of the number of destinations.
//! * **`d_uv`** sums the two last-mile hops, the inter-agent hop(s) —
//!   through the transcoding agent when `θ_uv = 1` — and the transcoding
//!   latency `σ_l` (counted once; the paper's printed formula nests σ
//!   inside the `Σ_k`, an evident typo).
//!
//! ## Evaluate = compile + fold
//!
//! The formulas above are transcribed once, over **session-local dense
//! indices**. [`EvalScratch::evaluate`] first *compiles* the conference
//! (private `Conference`): user and task positions, `θ` as a flow → task
//! table, every `κ` and demanded Mbps — everything the formulas read
//! that does not depend on the assignment — then reads the placement
//! through the [`AssignmentView`] into two local arrays, derives every
//! flow's delay, and *folds*, in two halves that share nothing but the
//! output load:
//!
//! * the **delay half** — the per-user delays (column maxima of the
//!   flow-delay matrix), their maximum and `F(d_s)`. It reads the flow
//!   delays only, never the flow matrix;
//! * **the rest** — each stream's `μ_klu` terms are emitted in source
//!   order into an `L×L` flow matrix, which is folded row-major into
//!   the per-agent loads, followed by occupancy, the costs `G`, `H` and
//!   `Φ_s = α1·F + α2·G + α3·H`.
//!
//! One evaluation touches only the agents the session actually uses
//! (tracked in [`SessionLoad::touched`]) and clears only what it wrote,
//! so steady-state evaluation is allocation-free.
//!
//! ## The hop hot path
//!
//! Alg. 1 weighs `(|U(s)| + |T(s)|)·(L − 1)` candidate placements per
//! HOP, all of one conference and each one decision away from the
//! committed placement. The [neighbourhood kernel](crate::neighborhood)
//! therefore compiles once per HOP and, per candidate, moves one entry
//! of the local placement, re-derives only the flow delays that entry
//! invalidates, folds the delay half, hands the candidate to its caller
//! — who folds the rest only if `(max delay, F)`, or the traffic floor
//! (the streams re-emitted into per-agent ingress alone), did not
//! already settle it — and reverts. Both halves being this module's,
//! the emitted addends and their order are those of a from-scratch
//! [`evaluate`](EvalScratch::evaluate) of the moved assignment, so the
//! two are bit-equal. [`OverlayView`] remains the one-decision diff for
//! callers that evaluate a single candidate from global ids.

use crate::{Assignment, Decision, TaskId, UapProblem};
use vc_model::{AgentId, Instance, ReprId, SessionId, UserId};

/// Read access to the decision variables `λ` (user → agent) and `γ`
/// (task → agent). [`Assignment`] is the committed store; overlays and
/// the orchestrator's per-session slots provide cheap alternative views
/// so candidate evaluation never clones the global assignment.
pub trait AssignmentView {
    /// `λ(u)`: the agent user `u` subscribes to.
    fn agent_of_user(&self, u: UserId) -> AgentId;
    /// `γ(t)`: the agent running task `t`.
    fn agent_of_task(&self, t: TaskId) -> AgentId;
}

impl AssignmentView for Assignment {
    #[inline]
    fn agent_of_user(&self, u: UserId) -> AgentId {
        Assignment::agent_of_user(self, u)
    }
    #[inline]
    fn agent_of_task(&self, t: TaskId) -> AgentId {
        Assignment::agent_of_task(self, t)
    }
}

impl<V: AssignmentView + ?Sized> AssignmentView for &V {
    #[inline]
    fn agent_of_user(&self, u: UserId) -> AgentId {
        (**self).agent_of_user(u)
    }
    #[inline]
    fn agent_of_task(&self, t: TaskId) -> AgentId {
        (**self).agent_of_task(t)
    }
}

/// A base view with exactly one decision changed — the shape of every
/// Alg. 1 candidate. Evaluating through an overlay replaces the old
/// clone-the-whole-`Assignment` candidate path.
#[derive(Debug, Clone, Copy)]
pub struct OverlayView<'a, V: AssignmentView> {
    base: &'a V,
    decision: Decision,
}

impl<'a, V: AssignmentView> OverlayView<'a, V> {
    /// Views `base` with `decision` applied.
    pub fn new(base: &'a V, decision: Decision) -> Self {
        Self { base, decision }
    }
}

impl<V: AssignmentView> AssignmentView for OverlayView<'_, V> {
    #[inline]
    fn agent_of_user(&self, u: UserId) -> AgentId {
        if let Decision::User(w, a) = self.decision {
            if w == u {
                return a;
            }
        }
        self.base.agent_of_user(u)
    }
    #[inline]
    fn agent_of_task(&self, t: TaskId) -> AgentId {
        if let Decision::Task(w, a) = self.decision {
            if w == t {
                return a;
            }
        }
        self.base.agent_of_task(t)
    }
}

/// Everything the optimizer needs to know about one session under one
/// assignment: per-agent resource loads, inter-agent ingress `x_ls`,
/// transcoding occupancy `y_ls`, per-user delays `d_u`, and the weighted
/// local objective `Φ_s`.
///
/// Equality compares the semantic fields only — the
/// [`touched`](Self::touched) index is bookkeeping for sparse iteration.
#[derive(Debug, Clone, Default)]
pub struct SessionLoad {
    /// Per-agent download load (Mbps): last-mile upstreams + inter-agent ingress.
    pub download: Vec<f64>,
    /// Per-agent upload load (Mbps): last-mile downstreams + inter-agent egress.
    pub upload: Vec<f64>,
    /// `x_ls`: inter-agent ingress per agent (Mbps), the argument of `g_l`.
    pub ingress: Vec<f64>,
    /// `y_ls`: transcoding units occupied per agent (distinct `(u, r)` pairs).
    pub transcode_units: Vec<u32>,
    /// Indices of agents this session's load touches, ascending. Every
    /// nonzero entry of the dense vectors above is covered (a touched
    /// agent may still carry an all-zero load, e.g. a one-user session's
    /// empty downstream); consumers doing sparse scans — totals
    /// maintenance, `check_swap`, ledger holds — iterate this instead of
    /// all `L` agents.
    pub touched: Vec<u32>,
    /// `d_u` per session participant (same order as `session.users()`):
    /// the worst delay `u` experiences *receiving* from the others.
    pub user_delay: Vec<f64>,
    /// `max_{u,v} d_uv` over all flows of the session (constraint (8) check).
    pub max_flow_delay: f64,
    /// `F(d_s)`.
    pub delay_cost: f64,
    /// `G(x_s) = Σ_l price_l · g(x_ls)`.
    pub traffic_cost: f64,
    /// `H(y_s) = Σ_l price_l · h(y_ls)`.
    pub transcode_cost: f64,
    /// `Φ_s = α1·F + α2·G + α3·H`.
    pub phi: f64,
}

impl PartialEq for SessionLoad {
    fn eq(&self, other: &Self) -> bool {
        // `touched` deliberately excluded: it may be a superset of the
        // nonzero agents and two equal loads may differ in it.
        self.download == other.download
            && self.upload == other.upload
            && self.ingress == other.ingress
            && self.transcode_units == other.transcode_units
            && self.user_delay == other.user_delay
            && self.max_flow_delay == other.max_flow_delay
            && self.delay_cost == other.delay_cost
            && self.traffic_cost == other.traffic_cost
            && self.transcode_cost == other.transcode_cost
            && self.phi == other.phi
    }
}

/// One touched agent's share of a [`SessionLoad`]: the three quantities
/// the capacity constraints (5)–(7) read there, copied out of the dense
/// vectors. A load's [`demand`](SessionLoad::demand) is all a
/// feasibility check needs of it, so a candidate can be kept — and
/// re-checked against capacities that have moved since — without its
/// dense vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgentDemand {
    /// The agent's index.
    pub agent: u32,
    /// `y_ls`: transcoding units the session occupies there.
    pub transcode_units: u32,
    /// Download load there (Mbps).
    pub download: f64,
    /// Upload load there (Mbps).
    pub upload: f64,
}

impl SessionLoad {
    /// The sparse demand view: one [`AgentDemand`] per
    /// [`touched`](Self::touched) agent, ascending.
    pub fn demand(&self) -> impl Iterator<Item = AgentDemand> + '_ {
        self.touched.iter().map(|&agent| {
            let i = agent as usize;
            AgentDemand {
                agent,
                transcode_units: self.transcode_units[i],
                download: self.download[i],
                upload: self.upload[i],
            }
        })
    }

    /// A zeroed load (used for inactive sessions).
    pub fn empty(num_agents: usize) -> Self {
        Self {
            download: vec![0.0; num_agents],
            upload: vec![0.0; num_agents],
            ingress: vec![0.0; num_agents],
            transcode_units: vec![0; num_agents],
            touched: Vec::new(),
            user_delay: Vec::new(),
            max_flow_delay: 0.0,
            delay_cost: 0.0,
            traffic_cost: 0.0,
            transcode_cost: 0.0,
            phi: 0.0,
        }
    }

    /// Zeroes the per-agent vectors at the agents
    /// [`touched`](Self::touched) names, and empties that index.
    fn clear_agents(&mut self) {
        for &a in &self.touched {
            let i = a as usize;
            self.download[i] = 0.0;
            self.upload[i] = 0.0;
            self.ingress[i] = 0.0;
            self.transcode_units[i] = 0;
        }
        self.touched.clear();
    }

    /// Total inter-agent traffic of the session (Σ_l x_ls, Mbps) — the
    /// quantity the paper reports as "inter-agent traffic".
    pub fn total_ingress_mbps(&self) -> f64 {
        self.ingress.iter().sum()
    }

    /// Extends the per-agent vectors to `num_agents` (append-only agent
    /// growth; no-op when already that large). New agents carry exactly
    /// zero load, which is what re-evaluating the same placement under
    /// the grown universe produces — so grown state stays bitwise
    /// identical to up-front construction.
    pub fn grow(&mut self, num_agents: usize) {
        if self.download.len() >= num_agents {
            return;
        }
        self.download.resize(num_agents, 0.0);
        self.upload.resize(num_agents, 0.0);
        self.ingress.resize(num_agents, 0.0);
        self.transcode_units.resize(num_agents, 0);
    }
}

/// Evaluates session `s` under `view`, computing all loads, delays
/// and costs from scratch. Convenience wrapper over [`EvalScratch`] —
/// hot paths hold a scratch and call [`EvalScratch::evaluate`] directly.
///
/// # Panics
///
/// Panics if `s` is out of range for the problem's instance.
pub fn evaluate_session<V: AssignmentView>(
    problem: &UapProblem,
    view: &V,
    s: SessionId,
) -> SessionLoad {
    let mut scratch = EvalScratch::new();
    scratch.evaluate(problem, view, s).clone()
}

/// `Conference::flow_task` entry of an un-transcoded flow (`θ_uv = 0`).
const NO_TASK: u32 = u32::MAX;

/// One transcoding task in session-local terms.
#[derive(Debug, Clone, Copy)]
struct LocalTask {
    /// Position of the source user in the session.
    src: u32,
    /// Position of the destination user in the session.
    dst: u32,
    target: ReprId,
    /// `κ(target)`.
    kappa: f64,
}

/// One session compiled to session-local dense indices: everything the
/// traffic and delay formulas read that does **not** depend on the
/// assignment, resolved from global ids once so that weighing a
/// placement touches no `position()` scan, no [`TaskTable`](crate::TaskTable)
/// search and no `θ` test. Users are indexed by their position in
/// `session.users()`, tasks by their position in `tasks.of_session(s)`
/// (which groups them by source, sources in session order).
#[derive(Debug, Default)]
struct Conference {
    /// Per user: upstream representation, its `κ`, and `Σ_v κ(r^d_uv)`.
    upstream: Vec<ReprId>,
    k_up: Vec<f64>,
    demanded: Vec<f64>,
    tasks: Vec<LocalTask>,
    /// `tasks[first_task[i]..first_task[i + 1]]` have source user `i`.
    first_task: Vec<u32>,
    /// `n×n`, row = source: the task transcoding flow `i → j`, or
    /// [`NO_TASK`] (`θ_ij = 0`).
    flow_task: Vec<u32>,
}

impl Conference {
    fn compile(&mut self, problem: &UapProblem, s: SessionId) {
        let inst = problem.instance();
        let table = problem.tasks();
        let users = inst.session(s).users();
        let session_tasks = table.of_session(s);
        let n = users.len();
        self.upstream.clear();
        self.k_up.clear();
        self.demanded.clear();
        self.tasks.clear();
        self.first_task.clear();
        self.flow_task.clear();
        self.flow_task.resize(n * n, NO_TASK);
        for (i, &u) in users.iter().enumerate() {
            let upstream = inst.user(u).upstream();
            self.upstream.push(upstream);
            self.k_up.push(inst.kappa(upstream));
            self.demanded.push(problem.demanded_mbps(u));
            self.first_task.push(self.tasks.len() as u32);
            for &t in table.of_source(u) {
                let k = self.tasks.len();
                assert!(
                    session_tasks.get(k) == Some(&t),
                    "a session's tasks are its sources' tasks, in session order"
                );
                let task = table.task(t);
                let dst = users
                    .iter()
                    .position(|&w| w == task.dst)
                    .expect("task destination is a session member");
                self.flow_task[i * n + dst] = k as u32;
                self.tasks.push(LocalTask {
                    src: i as u32,
                    dst: dst as u32,
                    target: task.target,
                    kappa: inst.kappa(task.target),
                });
            }
        }
        self.first_task.push(self.tasks.len() as u32);
    }

    fn num_users(&self) -> usize {
        self.k_up.len()
    }

    /// Emits the three `μ_klu` terms of user `i`'s stream under the
    /// placement `(ua, ta)` as `(from, to, Mbps)` contributions, in the
    /// order the flow matrix must accumulate them.
    fn emit_stream(
        &self,
        i: usize,
        ua: &[AgentId],
        ta: &[AgentId],
        sets: &mut StreamSets,
        mut emit: impl FnMut(AgentId, AgentId, f64),
    ) {
        let n = self.num_users();
        let a_u = ua[i];
        let k_up = self.k_up[i];
        let range = self.first_task[i] as usize..self.first_task[i + 1] as usize;
        let tasks_u = &self.tasks[range.clone()];
        let agents_u = &ta[range];

        // T_u: agents transcoding u's stream (ν′_lu = 1).
        sets.transcoders.clear();
        for &a in agents_u {
            if !sets.transcoders.contains(&a) {
                sets.transcoders.push(a);
            }
        }

        // Term 1: raw upstream from u's agent to every transcoding agent.
        for &l in &sets.transcoders {
            if l != a_u {
                emit(a_u, l, k_up);
            }
        }

        // Term 2: raw upstream to agents hosting un-transcoded destinations
        // (θ_uv = 0), unless the agent already receives it for transcoding.
        sets.raw_dests.clear();
        for (j, &a_v) in ua.iter().enumerate() {
            if j != i
                && self.flow_task[i * n + j] == NO_TASK
                && a_v != a_u
                && !sets.transcoders.contains(&a_v)
                && !sets.raw_dests.contains(&a_v)
            {
                sets.raw_dests.push(a_v);
            }
        }
        for &l in &sets.raw_dests {
            emit(a_u, l, k_up);
        }

        // Term 3: transcoded streams from their transcoder(s) to the agents
        // hosting destinations that demand them. The paper's (1−λ_lu) factor
        // skips deliveries back to u's own agent.
        sets.reps.clear();
        for task in tasks_u {
            if !sets.reps.iter().any(|&(r, _)| r == task.target) {
                sets.reps.push((task.target, task.kappa));
            }
        }
        for &(r, k_r) in &sets.reps {
            sets.transcoders_r.clear();
            sets.dest_agents_r.clear();
            for (task, &ta) in tasks_u.iter().zip(agents_u) {
                if task.target != r {
                    continue;
                }
                if !sets.transcoders_r.contains(&ta) {
                    sets.transcoders_r.push(ta);
                }
                let da = ua[task.dst as usize];
                if da != a_u && !sets.dest_agents_r.contains(&da) {
                    sets.dest_agents_r.push(da);
                }
            }
            for &l in &sets.dest_agents_r {
                for &k in &sets.transcoders_r {
                    if k != l {
                        emit(k, l, k_r);
                    }
                }
            }
        }
    }

    /// End-to-end delay `d_ij` of the flow from user `i` to user `j`
    /// (`users` is the session's user list) under `(ua, ta)`.
    fn flow_delay(
        &self,
        inst: &Instance,
        users: &[UserId],
        ua: &[AgentId],
        ta: &[AgentId],
        i: usize,
        j: usize,
    ) -> f64 {
        let relay = match self.flow_task[i * self.num_users() + j] {
            NO_TASK => None,
            k => Some((
                ta[k as usize],
                self.upstream[i],
                self.tasks[k as usize].target,
            )),
        };
        delay_breakdown_at(inst, (users[i], ua[i]), (users[j], ua[j]), relay).total()
    }
}

/// One entry of a compiled placement: the user or the task (local
/// index) a single decision moves.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    User(usize),
    Task(usize),
}

/// The small per-stream agent and representation sets of
/// [`Conference::emit_stream`].
#[derive(Debug, Default)]
struct StreamSets {
    transcoders: Vec<AgentId>,
    raw_dests: Vec<AgentId>,
    reps: Vec<(ReprId, f64)>,
    transcoders_r: Vec<AgentId>,
    dest_agents_r: Vec<AgentId>,
}

/// Reusable per-worker evaluation buffers: the compiled conference and
/// its placement in session-local indices, the `L×L` flow matrix (with
/// a touched-cell list so clearing is proportional to what was written,
/// not `L²`), the output [`SessionLoad`], the transcode-triple dedup
/// buffer, and the small per-stream agent sets. After warm-up an
/// evaluation performs no heap allocation.
#[derive(Debug, Default)]
pub struct EvalScratch {
    nl: usize,
    /// Dense `L×L` inter-agent flows (`flows[k·L + l]` = Mbps k→l).
    flows: Vec<f64>,
    /// Cells of `flows` written since the last clear.
    flow_cells: Vec<(u32, u32)>,
    /// The output load; dense vectors sized `L`, cleared via `touched`.
    load: SessionLoad,
    /// Membership mask for `load.touched`, true only mid-evaluation.
    mark: Vec<bool>,
    /// Transcode-triple dedup buffer (sort + dedup, not O(n²) scans):
    /// `(agent, source position, target)`.
    triples: Vec<(AgentId, u32, ReprId)>,
    sets: StreamSets,
    /// The session most recently [`compile`](Self::compile)d and the
    /// placement being weighed: user and task agents by local index,
    /// and the `n×n` per-flow delays (row = source) under it.
    conf: Conference,
    ua: Vec<AgentId>,
    ta: Vec<AgentId>,
    delays: Vec<f64>,
    /// `delays` as compiled, which a one-decision move is undone from.
    base_delays: Vec<f64>,
    /// The [traffic floor](Self::traffic_floor)'s per-agent ingress
    /// sink, sized `L` and all zero between calls, and the agents it
    /// wrote.
    floor_ingress: Vec<f64>,
    floor_agents: Vec<u32>,
}

/// The factor the [traffic floor](EvalScratch::traffic_floor) shades an
/// agent's ingress by. Two float sums of the same `m` non-negative
/// addends, taken in different orders, differ by at most about
/// `2(m−1)·2⁻⁵³` relative, so the shaded sum stays below the fold's
/// for any agent that receives fewer than a million addends.
const FLOOR_SHADE: f64 = 1.0 - 1e-9;

impl EvalScratch {
    /// An empty scratch; buffers are sized on first use and re-sized if
    /// the agent count changes.
    pub fn new() -> Self {
        Self::default()
    }

    /// The load produced by the most recent [`evaluate`](Self::evaluate).
    pub fn load(&self) -> &SessionLoad {
        &self.load
    }

    /// Mutable access for commit paths that swap the evaluated load into
    /// caller-owned storage (the next `evaluate` clears whatever load is
    /// swapped in, using its `touched` index).
    pub fn load_mut(&mut self) -> &mut SessionLoad {
        &mut self.load
    }

    fn ensure(&mut self, nl: usize) {
        if self.nl != nl {
            self.nl = nl;
            self.flows = vec![0.0; nl * nl];
            self.flow_cells.clear();
            self.load = SessionLoad::empty(nl);
            self.mark = vec![false; nl];
            self.floor_ingress = vec![0.0; nl];
        }
    }

    /// Zeroes exactly what the previous fold (or a swapped-in load)
    /// left in the per-agent vectors and the flow matrix.
    fn clear_traffic(&mut self) {
        self.load.clear_agents();
        for &(k, l) in &self.flow_cells {
            self.flows[k as usize * self.nl + l as usize] = 0.0;
        }
        self.flow_cells.clear();
    }

    /// Evaluates session `s` under `view` into the scratch's load,
    /// returning it: compile the conference, read the placement, derive
    /// every flow's delay, fold (the delay half, then the rest). Results
    /// are bitwise identical to a fresh [`evaluate_session`]: sparse
    /// accumulation visits agents and flow cells in the same ascending
    /// order the dense scan would.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range for the problem's instance.
    pub fn evaluate<V: AssignmentView>(
        &mut self,
        problem: &UapProblem,
        view: &V,
        s: SessionId,
    ) -> &SessionLoad {
        let users = problem.instance().session(s).users();
        let tasks = problem.tasks().of_session(s);
        self.compile(
            problem,
            s,
            users.iter().map(|&u| view.agent_of_user(u)),
            tasks.iter().map(|&t| view.agent_of_task(t)),
        );
        self.fold(problem)
    }

    /// Compiles session `s` to local indices, installs `(users, tasks)`
    /// — agents in `session.users()` / `tasks.of_session(s)` order — as
    /// the placement to weigh, and derives every flow's delay under it.
    /// [`fold`](Self::fold) then weighs that placement;
    /// [`apply`](Self::apply) moves it one decision away.
    pub(crate) fn compile(
        &mut self,
        problem: &UapProblem,
        s: SessionId,
        users: impl Iterator<Item = AgentId>,
        tasks: impl Iterator<Item = AgentId>,
    ) {
        let inst = problem.instance();
        self.ensure(inst.num_agents());
        self.conf.compile(problem, s);
        self.ua.clear();
        self.ua.extend(users);
        self.ta.clear();
        self.ta.extend(tasks);
        let n = self.conf.num_users();
        assert!(
            self.ua.len() == n && self.ta.len() == self.conf.tasks.len(),
            "placement does not cover the session"
        );
        let ids = inst.session(s).users();
        self.delays.clear();
        self.delays.resize(n * n, 0.0);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.delays[i * n + j] =
                        self.conf.flow_delay(inst, ids, &self.ua, &self.ta, i, j);
                }
            }
        }
        self.base_delays.clone_from(&self.delays);
    }

    /// Moves entry `slot` of the compiled placement of session `s` to
    /// `a`, re-derives the flow delays that invalidates — a user: the
    /// `2(n−1)` flows through it; a task: the one flow it relays — and
    /// folds the [delay half](Self::fold_delays). Returns the agent
    /// moved from, for [`revert`](Self::revert).
    pub(crate) fn apply(
        &mut self,
        problem: &UapProblem,
        s: SessionId,
        slot: Slot,
        a: AgentId,
    ) -> AgentId {
        let inst = problem.instance();
        let ids = inst.session(s).users();
        let n = ids.len();
        let base = match slot {
            Slot::User(i) => {
                let base = std::mem::replace(&mut self.ua[i], a);
                for j in 0..n {
                    if j != i {
                        self.delays[i * n + j] =
                            self.conf.flow_delay(inst, ids, &self.ua, &self.ta, i, j);
                        self.delays[j * n + i] =
                            self.conf.flow_delay(inst, ids, &self.ua, &self.ta, j, i);
                    }
                }
                base
            }
            Slot::Task(k) => {
                let task = self.conf.tasks[k];
                let (i, j) = (task.src as usize, task.dst as usize);
                let base = std::mem::replace(&mut self.ta[k], a);
                self.delays[i * n + j] = self.conf.flow_delay(inst, ids, &self.ua, &self.ta, i, j);
                base
            }
        };
        self.fold_delays(problem);
        base
    }

    /// Undoes [`apply`](Self::apply): entry `slot` back on `base`, the
    /// delays as compiled. The load keeps whatever was folded.
    pub(crate) fn revert(&mut self, slot: Slot, base: AgentId) {
        match slot {
            Slot::User(i) => {
                self.ua[i] = base;
                self.delays.copy_from_slice(&self.base_delays);
            }
            Slot::Task(k) => {
                let task = self.conf.tasks[k];
                let cell = task.src as usize * self.conf.num_users() + task.dst as usize;
                self.ta[k] = base;
                self.delays[cell] = self.base_delays[cell];
            }
        }
    }

    /// The compiled placement's agents: `(users, tasks)` by local index.
    pub(crate) fn placement(&self) -> (&[AgentId], &[AgentId]) {
        (&self.ua, &self.ta)
    }

    /// Weighs the compiled placement: the [delay half](Self::fold_delays),
    /// then [the rest](Self::fold_rest).
    fn fold(&mut self, problem: &UapProblem) -> &SessionLoad {
        self.fold_delays(problem);
        self.fold_rest(problem)
    }

    /// The delay half of the fold — constraint (8) and `F(d_s)`: the
    /// per-user delays, their maximum and the delay cost, from the flow
    /// delays alone. It reads nothing the traffic half writes, so a
    /// caller that can settle a candidate on these three may stop here.
    ///
    /// `d_v = max` over incoming flows `u→v`: a column maximum of the
    /// delay matrix, whose diagonal is 0 and so never wins. Row by row
    /// the `n` running maxima are independent of each other.
    ///
    /// Inlined into both callers: as a call of its own it costs a plain
    /// `evaluate` ≈1.5 % (measured), which joins and evacuations pay.
    #[inline]
    pub(crate) fn fold_delays(&mut self, problem: &UapProblem) {
        let n = self.conf.num_users();
        self.load.user_delay.clear();
        self.load.user_delay.resize(n, 0.0);
        if n > 0 {
            for row in self.delays.chunks_exact(n) {
                for (d_v, &d) in self.load.user_delay.iter_mut().zip(row) {
                    *d_v = d_v.max(d);
                }
            }
        }
        self.load.max_flow_delay = self.load.user_delay.iter().copied().fold(0.0, f64::max);
        self.load.delay_cost = problem.cost().delay.cost(&self.load.user_delay);
    }

    /// The rest of the fold, completing the load whose
    /// [delay half](Self::fold_delays) is in place: every stream's
    /// `μ_klu` terms are emitted in source order into the flow matrix,
    /// which is then folded row-major into the per-agent loads,
    /// followed by the transcoding occupancy, the costs and `Φ_s`.
    pub(crate) fn fold_rest(&mut self, problem: &UapProblem) -> &SessionLoad {
        let inst = problem.instance();
        let nl = self.nl;
        self.clear_traffic();
        let n = self.conf.num_users();

        // --- Traffic accounting (constraints (5)/(6) and x_ls). ---------
        for i in 0..n {
            let a_u = self.ua[i].index();
            touch(&mut self.load.touched, &mut self.mark, a_u);
            // Last-mile upstream: u pushes its stream into its agent.
            self.load.download[a_u] += self.conf.k_up[i];
            // Last-mile downstream: u's agent pushes to u every stream u
            // demands (assignment-independent, precomputed).
            self.load.upload[a_u] += self.conf.demanded[i];

            let (flows, cells) = (&mut self.flows, &mut self.flow_cells);
            self.conf
                .emit_stream(i, &self.ua, &self.ta, &mut self.sets, |from, to, mbps| {
                    flow_add(flows, cells, nl, from, to, mbps)
                });
        }

        // Row-major cell order reproduces the dense `for k { for l }`
        // scan bitwise (each slot accumulates its terms in the same
        // order). Cells are recorded on first write, which can repeat
        // when that first write added exactly 0.0 Mbps (a zero-bitrate
        // ladder rung is legal) — dedup so no cell is folded twice.
        self.flow_cells.sort_unstable();
        self.flow_cells.dedup();
        for &(k, l) in &self.flow_cells {
            let f = self.flows[k as usize * self.nl + l as usize];
            if f > 0.0 {
                touch(&mut self.load.touched, &mut self.mark, l as usize);
                touch(&mut self.load.touched, &mut self.mark, k as usize);
                self.load.download[l as usize] += f;
                self.load.upload[k as usize] += f;
                self.load.ingress[l as usize] += f;
            }
        }

        // --- Transcoding occupancy ν_lru (constraint (7) and y_ls). -----
        // One unit per distinct (agent, src-user, target-rep) triple;
        // sort + dedup instead of the quadratic `seen.contains` scan.
        self.triples.clear();
        self.triples.extend(
            self.conf
                .tasks
                .iter()
                .zip(&self.ta)
                .map(|(task, &a)| (a, task.src, task.target)),
        );
        self.triples.sort_unstable();
        self.triples.dedup();
        for &(a, _, _) in &self.triples {
            touch(&mut self.load.touched, &mut self.mark, a.index());
            self.load.transcode_units[a.index()] += 1;
        }

        // --- Costs (sparse: untouched agents contribute price·g(0) = 0,
        // and adding +0.0 leaves the ascending-order sum bitwise equal
        // to the dense one). ---------------------------------------------
        self.load.touched.sort_unstable();
        for &a in &self.load.touched {
            self.mark[a as usize] = false;
        }
        let cost = problem.cost();
        self.load.traffic_cost = self
            .load
            .touched
            .iter()
            .map(|&l| {
                inst.agent(AgentId::from(l as usize)).price_per_mbps()
                    * cost.bandwidth.cost(self.load.ingress[l as usize])
            })
            .sum();
        self.load.transcode_cost = self
            .load
            .touched
            .iter()
            .map(|&l| {
                inst.agent(AgentId::from(l as usize)).price_per_task()
                    * cost
                        .transcode
                        .cost(f64::from(self.load.transcode_units[l as usize]))
            })
            .sum();
        self.load.phi = cost.weights.combine(
            self.load.delay_cost,
            self.load.traffic_cost,
            self.load.transcode_cost,
        );
        &self.load
    }

    /// A lower bound of the `Φ_s` [the rest](Self::fold_rest) would
    /// complete the current delay half to, from the streams alone:
    /// every stream's `μ_klu` terms re-emitted into a per-agent ingress
    /// sink — no flow matrix, cell sort, occupancy or download/upload —
    /// each agent's sum shaded by [`FLOOR_SHADE`], priced through `g`
    /// in ascending agent order, and combined as `α1·F + α2·G_floor`.
    /// It is below the fold's `Φ_s` in floating point, not within a
    /// tolerance:
    ///
    /// * an agent's shaded emission-order sum is below the fold's
    ///   cell-order sum of the same non-negative addends (the two
    ///   orders differ by ~10⁻¹⁴ relative, the shade is 10⁻⁹);
    /// * every `g` shape is monotone as written — linear, quadratic,
    ///   piecewise-linear — and so is `price·g`;
    /// * the ascending sum over agents and `combine` are monotone in
    ///   each addend; the fold's further agents add `≥ 0`, and `H ≥ 0`.
    ///
    /// Writes nothing the fold reads.
    pub(crate) fn traffic_floor(&mut self, problem: &UapProblem) -> f64 {
        let (sink, agents) = (&mut self.floor_ingress, &mut self.floor_agents);
        for i in 0..self.conf.num_users() {
            self.conf
                .emit_stream(i, &self.ua, &self.ta, &mut self.sets, |_, to, mbps| {
                    let l = to.index();
                    if sink[l] == 0.0 {
                        agents.push(l as u32);
                    }
                    sink[l] += mbps;
                });
        }
        // As flow cells are: recorded again after a 0.0 Mbps first write.
        agents.sort_unstable();
        agents.dedup();
        let (inst, cost) = (problem.instance(), problem.cost());
        let traffic: f64 = agents
            .drain(..)
            .map(|l| {
                let x = std::mem::take(&mut sink[l as usize]) * FLOOR_SHADE;
                inst.agent(AgentId::from(l as usize)).price_per_mbps() * cost.bandwidth.cost(x)
            })
            .sum();
        cost.weights.combine(self.load.delay_cost, traffic, 0.0)
    }
}

/// Marks agent `i` as touched (idempotent).
#[inline]
fn touch(touched: &mut Vec<u32>, mark: &mut [bool], i: usize) {
    if !mark[i] {
        mark[i] = true;
        touched.push(i as u32);
    }
}

/// Adds `mbps` to the flow cell `from → to`, recording the cell on its
/// first (zero → nonzero) write.
#[inline]
fn flow_add(
    flows: &mut [f64],
    cells: &mut Vec<(u32, u32)>,
    nl: usize,
    from: AgentId,
    to: AgentId,
    mbps: f64,
) {
    let idx = from.index() * nl + to.index();
    if flows[idx] == 0.0 {
        cells.push((from.index() as u32, to.index() as u32));
    }
    flows[idx] += mbps;
}

/// End-to-end delay of the flow `u → v` (Sec. III-C):
/// `H_{a(u),u} + H_{a(v),v}` plus either the direct hop `D_{a(u),a(v)}`
/// (no transcoding) or the relay through the transcoder `l` with its
/// latency: `D_{l,a(u)} + D_{l,a(v)} + σ_l(r^u_u, r^d_{vu})`.
pub fn flow_delay<V: AssignmentView>(
    problem: &UapProblem,
    assignment: &V,
    u: UserId,
    v: UserId,
) -> f64 {
    flow_delay_breakdown(problem, assignment, u, v).total()
}

/// The additive components of one flow's end-to-end delay — useful for
/// diagnosing *where* an assignment loses its delay budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayBreakdown {
    /// `H_{a(u),u}`: source last mile (ms).
    pub source_last_mile_ms: f64,
    /// `H_{a(v),v}`: destination last mile (ms).
    pub destination_last_mile_ms: f64,
    /// Inter-agent propagation: `D_{a(u),a(v)}` directly, or
    /// `D_{l,a(u)} + D_{l,a(v)}` through the transcoder (ms).
    pub inter_agent_ms: f64,
    /// `σ_l(r^u_u, r^d_{vu})` when the flow is transcoded, else 0 (ms).
    pub transcode_ms: f64,
}

impl DelayBreakdown {
    /// The flow's total end-to-end delay `d_uv` (ms).
    pub fn total(&self) -> f64 {
        self.source_last_mile_ms
            + self.destination_last_mile_ms
            + self.inter_agent_ms
            + self.transcode_ms
    }
}

/// Computes the delay components of the flow `u → v`.
pub fn flow_delay_breakdown<V: AssignmentView>(
    problem: &UapProblem,
    assignment: &V,
    u: UserId,
    v: UserId,
) -> DelayBreakdown {
    let inst = problem.instance();
    let relay = problem.tasks().find(u, v).map(|t| {
        (
            assignment.agent_of_task(t),
            inst.user(u).upstream(),
            problem.tasks().task(t).target,
        )
    });
    delay_breakdown_at(
        inst,
        (u, assignment.agent_of_user(u)),
        (v, assignment.agent_of_user(v)),
        relay,
    )
}

/// The delay components of the flow from `u` on agent `a_u` to `v` on
/// agent `a_v`, relayed — when it is transcoded — through
/// `(transcoding agent, upstream representation, target representation)`.
fn delay_breakdown_at(
    inst: &Instance,
    (u, a_u): (UserId, AgentId),
    (v, a_v): (UserId, AgentId),
    relay: Option<(AgentId, ReprId, ReprId)>,
) -> DelayBreakdown {
    let (inter_agent_ms, transcode_ms) = match relay {
        Some((l, upstream, target)) => (
            inst.d_ms(l, a_u) + inst.d_ms(l, a_v),
            inst.sigma_ms(l, upstream, target),
        ),
        None => (inst.d_ms(a_u, a_v), 0.0),
    };
    DelayBreakdown {
        source_last_mile_ms: inst.h_ms(a_u, u),
        destination_last_mile_ms: inst.h_ms(a_v, v),
        inter_agent_ms,
        transcode_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{three_agent_problem, two_agent_problem};
    use crate::{Assignment, TaskId};
    use vc_model::AgentId;

    const A: AgentId = AgentId::new(0);
    const B: AgentId = AgentId::new(1);
    const C: AgentId = AgentId::new(2);
    const S0: SessionId = SessionId::new(0);

    /// Hand-computed reference for the two-agent fixture:
    /// u0 (720p up, wants 360p of all) on A; u1 (360p up, wants 360p) on B;
    /// the single task (u0→u1, 360p) on A.
    #[test]
    fn two_agent_source_transcoding_numbers() {
        let p = two_agent_problem();
        let mut asg = Assignment::all_to_agent(&p, A);
        asg.set_user(UserId::new(1), B);
        // Task stays on A (source agent).
        let load = evaluate_session(&p, &asg, S0);

        // Flows: A→B carries transcoded 360p (1 Mbps); B→A carries u1's raw
        // 360p for u0 (1 Mbps).
        assert!((load.ingress[A.index()] - 1.0).abs() < 1e-12);
        assert!((load.ingress[B.index()] - 1.0).abs() < 1e-12);
        assert!((load.total_ingress_mbps() - 2.0).abs() < 1e-12);

        // Download: A gets u0's 5 Mbps upstream + 1 Mbps from B = 6.
        //           B gets u1's 1 Mbps upstream + 1 Mbps from A = 2.
        assert!((load.download[A.index()] - 6.0).abs() < 1e-12);
        assert!((load.download[B.index()] - 2.0).abs() < 1e-12);

        // Upload: A pushes 1 Mbps (last-mile to u0) + 1 Mbps egress = 2.
        //         B pushes 1 Mbps (last-mile to u1) + 1 Mbps egress = 2.
        assert!((load.upload[A.index()] - 2.0).abs() < 1e-12);
        assert!((load.upload[B.index()] - 2.0).abs() < 1e-12);

        // One transcoding unit, on A.
        assert_eq!(load.transcode_units, vec![1, 0]);

        // Delays: u0→u1 via transcoder A: 10 + 5 + 0 + 40 + σ_A(5,1)=22 → 77.
        //         u1→u0 direct: 5 + 10 + 40 = 55.
        assert!((load.max_flow_delay - 77.0).abs() < 1e-9);
        assert!((load.user_delay[0] - 55.0).abs() < 1e-9); // u0 receives
        assert!((load.user_delay[1] - 77.0).abs() < 1e-9); // u1 receives
        assert!((load.delay_cost - 66.0).abs() < 1e-9);

        // Linear unit-price costs: traffic 2, transcode 1.
        assert!((load.traffic_cost - 2.0).abs() < 1e-12);
        assert!((load.transcode_cost - 1.0).abs() < 1e-12);
    }

    /// The traffic floor of the placement above, by hand: both agents'
    /// 1 Mbps ingress shaded and priced in ascending order, combined
    /// with `F` and no transcoding — below `Φ` by `α3·H` and the shade,
    /// and above the delay floor by `α2·G` less the shade.
    #[test]
    fn traffic_floor_prices_the_shaded_ingress() {
        let p = two_agent_problem();
        let mut asg = Assignment::all_to_agent(&p, A);
        asg.set_user(UserId::new(1), B);
        let mut scratch = EvalScratch::new();
        let load = scratch.evaluate(&p, &asg, S0).clone();
        let floor = scratch.traffic_floor(&p);
        let weights = p.cost().weights;
        let shaded = 1.0 * FLOOR_SHADE;
        let want = weights.combine(load.delay_cost, shaded + shaded, 0.0);
        assert_eq!(floor.to_bits(), want.to_bits());
        assert!(weights.delay_floor(load.delay_cost) < floor && floor < load.phi);
        // The sink is empty again and the fold's load untouched.
        assert_eq!(scratch.traffic_floor(&p).to_bits(), floor.to_bits());
        assert_eq!(scratch.load(), &load);
    }

    /// Moving the task to the destination agent ships the raw 5 Mbps
    /// instead of the transcoded 1 Mbps.
    #[test]
    fn destination_transcoding_ships_raw_stream() {
        let p = two_agent_problem();
        let mut asg = Assignment::all_to_agent(&p, A);
        asg.set_user(UserId::new(1), B);
        asg.set_task(TaskId::new(0), B);
        let load = evaluate_session(&p, &asg, S0);
        // A→B: raw 720p (5 Mbps) for transcoding at B; no transcoded
        // delivery needed (destination is local to B).
        assert!((load.ingress[B.index()] - 5.0).abs() < 1e-12);
        assert!((load.ingress[A.index()] - 1.0).abs() < 1e-12);
        assert_eq!(load.transcode_units, vec![0, 1]);
        // Delay u0→u1 via B: 10 + 5 + D[B,A]=40 + D[B,B]=0 + σ_B(5,1).
        // B's speed factor is 2.0 → σ = 44; total 99.
        assert!((load.max_flow_delay - 99.0).abs() < 1e-9);
    }

    /// With both users on one agent and the task there too, no inter-agent
    /// traffic exists at all.
    #[test]
    fn colocated_session_has_zero_traffic() {
        let p = two_agent_problem();
        let asg = Assignment::all_to_agent(&p, A);
        let load = evaluate_session(&p, &asg, S0);
        assert_eq!(load.total_ingress_mbps(), 0.0);
        assert!((load.download[A.index()] - 6.0).abs() < 1e-12); // 5 + 1 upstreams
        assert_eq!(load.transcode_units, vec![1, 0]);
        // Delays: u0→u1: 10 + 25 + 0 + 0 + 22 = 57; u1→u0: 25 + 10 = 35.
        assert!((load.max_flow_delay - 57.0).abs() < 1e-9);
    }

    /// Tertiary-agent transcoding: stream relays via the transcoder, and
    /// both legs of traffic exist.
    #[test]
    fn tertiary_transcoding_relays_via_agent() {
        let p = three_agent_problem();
        let mut asg = Assignment::all_to_agent(&p, A);
        asg.set_user(UserId::new(1), B);
        asg.set_task(TaskId::new(0), C);
        let load = evaluate_session(&p, &asg, S0);
        // A→C raw 5 Mbps; C→B transcoded 1 Mbps; B→A raw 1 Mbps (u1's stream).
        assert!((load.ingress[C.index()] - 5.0).abs() < 1e-12);
        assert!((load.ingress[B.index()] - 1.0).abs() < 1e-12);
        assert!((load.ingress[A.index()] - 1.0).abs() < 1e-12);
        assert_eq!(load.transcode_units, vec![0, 0, 1]);
        // Delay u0→u1 via C: H[A,u0]=10 + H[B,u1]=5 + D[C,A]=30 + D[C,B]=20 + σ_C(5,1)=22 → 87.
        assert!((load.max_flow_delay - 87.0).abs() < 1e-9);
    }

    /// Two destinations demanding the same representation hosted on the
    /// same agent receive one shared transcoded stream (the max-, not
    /// sum-, semantics of the paper's μ formula).
    #[test]
    fn shared_transcoded_delivery_counted_once() {
        let p = three_agent_problem_with_two_destinations();
        let mut asg = Assignment::all_to_agent(&p, A);
        asg.set_user(UserId::new(1), B);
        asg.set_user(UserId::new(2), B);
        // Both tasks (u0→u1, u0→u2, target 360p) transcoded at A.
        let load = evaluate_session(&p, &asg, S0);
        // A→B: one transcoded 360p stream, shared: 1 Mbps (not 2).
        assert!((load.ingress[B.index()] - 1.0).abs() < 1e-12);
        // B→A: u1's and u2's raw 360p streams for u0: 2 Mbps.
        assert!((load.ingress[A.index()] - 2.0).abs() < 1e-12);
        // One transcoding unit at A: same (u0, 360p) pair for both dests.
        assert_eq!(load.transcode_units, vec![1, 0, 0]);
    }

    /// u0 produces 720p and demands 360p; u1/u2 produce 360p and demand
    /// 360p. Tasks: (u0→u1, 360p) and (u0→u2, 360p) only.
    fn three_agent_problem_with_two_destinations() -> UapProblem {
        use vc_cost::CostModel;
        use vc_model::{AgentSpec, InstanceBuilder, ReprLadder};
        let ladder = ReprLadder::standard_four();
        let r360 = ladder.by_name("360p").unwrap().id();
        let r720 = ladder.by_name("720p").unwrap().id();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        b.add_agent(AgentSpec::builder("b").build());
        b.add_agent(AgentSpec::builder("c").build());
        let s = b.add_session();
        b.add_user(s, r720, r360); // u0: source of the transcoded flows
        b.add_user(s, r360, r360); // u1: wants 360p of u0 → task
        b.add_user(s, r360, r360); // u2: wants 360p of u0 → task
        b.symmetric_delays(|_, _| 10.0, |_, _| 5.0);
        UapProblem::new(b.build().unwrap(), CostModel::paper_default())
    }

    #[test]
    fn delay_breakdown_components_sum_to_flow_delay() {
        let p = two_agent_problem();
        let mut asg = Assignment::all_to_agent(&p, A);
        asg.set_user(UserId::new(1), B);
        let bd = flow_delay_breakdown(&p, &asg, UserId::new(0), UserId::new(1));
        // Transcoded flow via A: last miles 10 + 5, relay 0 + 40, σ 22.
        assert_eq!(bd.source_last_mile_ms, 10.0);
        assert_eq!(bd.destination_last_mile_ms, 5.0);
        assert_eq!(bd.inter_agent_ms, 40.0);
        assert!((bd.transcode_ms - 22.0).abs() < 1e-9);
        assert!((bd.total() - flow_delay(&p, &asg, UserId::new(0), UserId::new(1))).abs() < 1e-12);
        // Raw reverse flow: no transcode component.
        let raw = flow_delay_breakdown(&p, &asg, UserId::new(1), UserId::new(0));
        assert_eq!(raw.transcode_ms, 0.0);
        assert_eq!(raw.inter_agent_ms, 40.0);
    }

    /// The μ formula's (1−λ_lu) factor: a transcoded stream is not shipped
    /// back to the source's own agent even if a destination lives there.
    #[test]
    fn no_transcoded_delivery_back_to_source_agent() {
        let p = three_agent_problem_with_two_destinations();
        let mut asg = Assignment::all_to_agent(&p, A);
        // u0 and u1 stay on A (a destination co-located with the source);
        // u2 on B; both tasks transcoded at B.
        asg.set_user(UserId::new(2), B);
        asg.set_task(TaskId::new(0), B);
        asg.set_task(TaskId::new(1), B);
        let load = evaluate_session(&p, &asg, S0);
        // Into B: raw 5 Mbps (u0's stream for transcoding at B)
        //       + 1 Mbps (u1's raw stream for u2) = 6.
        // Into A: u2's raw stream shared by u0 and u1 = 1 Mbps. The
        // transcoded 360p of u0 is NOT shipped back to A for u1 — the
        // (1−λ_lu) factor in the paper's μ definition excludes it.
        assert!((load.ingress[B.index()] - 6.0).abs() < 1e-12);
        assert!((load.ingress[A.index()] - 1.0).abs() < 1e-12);
        // Both tasks share one (u0, 360p) unit at B.
        assert_eq!(load.transcode_units, vec![0, 1, 0]);
    }
}
