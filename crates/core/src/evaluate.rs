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
//! ## Evaluate = compile + install + fold
//!
//! The formulas above are transcribed once, over **session-local dense
//! indices**. [`EvalScratch::compile`] resolves, once per conference,
//! everything the formulas read that no placement changes (private
//! `Conference`): user positions and `θ` as a flow → task table; per
//! source user its upstream `κ`, its demanded Mbps, its un-transcoded
//! destinations and its *representation groups* — each distinct target
//! its destinations demand, with `κ` and the tasks producing it, in
//! first-appearance order; per task its reference transcode latency,
//! so that `σ_l` is `speed_l · ref` exactly as [`Instance::sigma_ms`]
//! computes it; per agent its two prices and its speed factor. A
//! placement is then *installed* — its agents copied into two local
//! arrays and every flow's delay derived (`n(n−1)` flows, each two `H`
//! and one or two `D` lookups) — and *folded*, in two halves that share
//! nothing but the output load:
//!
//! * the **delay half** — the per-user delays (column maxima of the
//!   flow-delay matrix), their maximum and `F(d_s)`. It reads the flow
//!   delays only, never the flow matrix;
//! * **the rest** — each stream's `μ_klu` terms are emitted in source
//!   order, straight off its destination and group tables, into an
//!   `L×L` flow matrix, which is folded row-major into the per-agent
//!   loads, followed by occupancy (one unit per group and distinct
//!   transcoder), the costs `G`, `H` and `Φ_s = α1·F + α2·G + α3·H`.
//!
//! [`EvalScratch::evaluate`] is all three for one placement;
//! [`EvalScratch::weigh`] installs and folds another placement of the
//! compiled session, which is how an admission search weighs its
//! combinations. One evaluation touches only the agents the session
//! actually uses (tracked in [`SessionLoad::touched`]) and clears only
//! what it wrote, so steady-state evaluation is allocation-free.
//!
//! ## The hop hot path
//!
//! Alg. 1 weighs `(|U(s)| + |T(s)|)·(L − 1)` candidate placements per
//! HOP, all of one conference and each one decision away from the
//! committed placement. The [neighbourhood kernel](crate::neighborhood)
//! therefore compiles and installs once per HOP and, per candidate,
//! moves one entry of the local placement, re-derives only the flow
//! delays that entry invalidates, folds the delay half, hands the
//! candidate to its caller — who folds the rest only if `(max delay,
//! F)`, or the traffic floor (the streams re-emitted into per-agent
//! ingress alone), did not already settle it — and reverts. Both halves
//! being this module's, the emitted addends and their order are those
//! of a from-scratch [`evaluate`](EvalScratch::evaluate) of the moved
//! assignment, so the two are bit-equal.
//!
//! ## Bounds from the streams
//!
//! Two callers settle most placements without the fold, each from the
//! streams re-emitted straight into per-agent sums and shaded by
//! `1 ∓ 10⁻⁹` — no delay, flow matrix or cell sort:
//!
//! * the hop's [traffic
//!   floor](crate::neighborhood::Probe::traffic_floor) bounds a
//!   candidate's `Φ_s` from below by its ingress alone;
//! * admission's [demand bounds](EvalScratch::demand_bounds) bracket
//!   the download and upload the fold would put on each agent it
//!   touches, with its exact transcoding units, so a capacity check
//!   that refuses both ends of a bracket has refused the fold.
//!
//! Both are exact in floating point, not within a tolerance. A sum in
//! emission order has the fold's non-negative addends in another order
//! (the fold adds them through its cells, row-major), so the two differ
//! by at most `2(m−1)·2⁻⁵³` relative for `m` addends — far inside the
//! shade. A cell's sum is positive exactly when one of its terms is,
//! and every term runs between a user's agent and a transcoder, which
//! the fold always touches, so the bounds' agents are the fold's.
//!
//! ## Floors from the users' streams
//!
//! Where the users sit decides most of what a placement puts on their
//! agents; where the tasks sit decides only the rest.
//! [`EvalScratch::stream_floors`] reads the users' agents alone — no
//! task placed, no delay derived, nothing folded — and returns, per
//! user's agent, the least download and upload that *any* task
//! placement leaves there, shaded by `1 − 10⁻⁹`:
//!
//! * download: the last miles of its users, plus, per source and per
//!   destination agent off the source's agent, the largest of `k_up`
//!   (a raw destination there) and `min(k_up, κ)` (a transcoded one);
//! * upload: the last miles of its users, plus, per source on it, one
//!   `k_up` per distinct raw-destination agent off its agent, or
//!   `min(k_up, κ)` when the source has only transcoded destinations
//!   off its agent.
//!
//! The floor is below the fold at every user's agent, in floating
//! point:
//!
//! * **(a)** each floor addend is at most one distinct addend the fold
//!   puts on that agent. A raw destination's agent receives `k_up`
//!   once — for the raw stream, or as a transcoder of the source. An
//!   agent with transcoded destinations only either transcodes the
//!   source's stream there (`k_up`) or receives the representation
//!   from a transcoder elsewhere (`κ`). A source sends one raw term per
//!   distinct raw-destination agent; without one, a transcoded
//!   destination off its agent is fed either by a transcoder elsewhere
//!   (`k_up` out) or by one on the source's agent (`κ` out);
//! * **(b)** both sides are sums of non-negative addends taken in
//!   another order, so the shade argument of the bounds above carries
//!   over;
//! * **(c)** a user's agent is always one the fold touches, with at
//!   least 0 transcoding units, and a capacity rule monotone in each
//!   load that refuses the floor there refuses the fold — there, or at
//!   an agent the fold checks first.

use crate::{Assignment, UapProblem};
use vc_model::{AgentId, Instance, ReprId, SessionId, UserId};

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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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
        self.touched.iter().map(|&agent| self.demand_at(agent))
    }

    /// The load's share of `agent`, touched or not (zero if not).
    pub fn demand_at(&self, agent: u32) -> AgentDemand {
        let i = agent as usize;
        AgentDemand {
            agent,
            transcode_units: self.transcode_units[i],
            download: self.download[i],
            upload: self.upload[i],
        }
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
}

/// Evaluates session `s` under `assignment`, computing all loads,
/// delays and costs from scratch. Convenience wrapper over
/// [`EvalScratch`] — hot paths hold a scratch and call
/// [`EvalScratch::evaluate`] directly.
///
/// # Panics
///
/// Panics if `s` is out of range for the problem's instance.
pub fn evaluate_session(
    problem: &UapProblem,
    assignment: &Assignment,
    s: SessionId,
) -> SessionLoad {
    let mut scratch = EvalScratch::new();
    scratch.evaluate(problem, assignment, s).clone()
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
    /// The latency of transcoding the source's upstream into the
    /// target at speed factor 1: `σ_l = speed_l · ref_ms`, the product
    /// [`Instance::sigma_ms`] computes.
    ref_ms: f64,
}

/// One representation of a source's stream that some of its
/// destinations demand transcoded: its target, `κ` and the tasks producing it,
/// `Conference::group_tasks[start..end]`, in task order.
#[derive(Debug, Clone, Copy)]
struct RepGroup {
    target: ReprId,
    kappa: f64,
    start: u32,
    end: u32,
}

/// One session compiled to session-local dense indices: everything the
/// traffic and delay formulas read that does **not** depend on the
/// assignment, resolved from global ids once so that weighing a
/// placement touches no `position()` scan, no [`TaskTable`](crate::TaskTable)
/// search, no `θ` test and no per-call grouping. Users are indexed by
/// their position in `session.users()`, tasks by their position in
/// `tasks.of_session(s)` (which groups them by source, sources in
/// session order).
#[derive(Debug, Default)]
struct Conference {
    /// Per user: global id (the `H` lookups' column), upstream `κ` and
    /// `Σ_v κ(r^d_uv)`.
    users: Vec<UserId>,
    k_up: Vec<f64>,
    demanded: Vec<f64>,
    tasks: Vec<LocalTask>,
    /// Per task, `κ` of its target representation (kept out of
    /// [`LocalTask`], which the delay derivation reads per flow).
    task_kappa: Vec<f64>,
    /// `tasks[first_task[i]..first_task[i + 1]]` have source user `i`.
    first_task: Vec<u32>,
    /// `n×n`, row = source: the task transcoding flow `i → j`, or
    /// [`NO_TASK`] (`θ_ij = 0`).
    flow_task: Vec<u32>,
    /// `raw[first_raw[i]..first_raw[i + 1]]`: the destinations that
    /// receive user `i`'s stream un-transcoded, ascending.
    raw: Vec<u32>,
    first_raw: Vec<u32>,
    /// `groups[first_group[i]..first_group[i + 1]]`: user `i`'s
    /// representation groups, in the order their targets first appear
    /// among its tasks.
    groups: Vec<RepGroup>,
    first_group: Vec<u32>,
    /// Task indices, grouped per [`RepGroup`].
    group_tasks: Vec<u32>,
    /// Per agent: price per Mbps, price per task, speed factor.
    price_mbps: Vec<f64>,
    price_task: Vec<f64>,
    speed: Vec<f64>,
}

impl Conference {
    fn compile(&mut self, problem: &UapProblem, s: SessionId) {
        let inst = problem.instance();
        let table = problem.tasks();
        let latency = inst.transcode_latency();
        let users = inst.session(s).users();
        let session_tasks = table.of_session(s);
        let n = users.len();
        self.users.clear();
        self.users.extend_from_slice(users);
        self.k_up.clear();
        self.demanded.clear();
        self.tasks.clear();
        self.task_kappa.clear();
        self.first_task.clear();
        self.flow_task.clear();
        self.flow_task.resize(n * n, NO_TASK);
        self.groups.clear();
        self.first_group.clear();
        self.group_tasks.clear();
        for (i, &u) in users.iter().enumerate() {
            let upstream = inst.user(u).upstream();
            let k_up = inst.kappa(upstream);
            self.k_up.push(k_up);
            self.demanded.push(problem.demanded_mbps(u));
            self.first_task.push(self.tasks.len() as u32);
            let first_group = self.groups.len();
            self.first_group.push(first_group as u32);
            for &t in table.of_source(u) {
                let k = self.tasks.len();
                assert!(
                    session_tasks.get(k) == Some(&t),
                    "a session's tasks are its sources' tasks, in session order"
                );
                let task = table.task(t);
                let kappa = inst.kappa(task.target);
                let dst = users
                    .iter()
                    .position(|&w| w == task.dst)
                    .expect("task destination is a session member");
                self.flow_task[i * n + dst] = k as u32;
                self.tasks.push(LocalTask {
                    src: i as u32,
                    dst: dst as u32,
                    ref_ms: latency.reference_latency_ms(k_up, kappa),
                });
                self.task_kappa.push(kappa);
                if !self.groups[first_group..]
                    .iter()
                    .any(|g| g.target == task.target)
                {
                    self.groups.push(RepGroup {
                        target: task.target,
                        kappa,
                        start: 0,
                        end: 0,
                    });
                }
            }
            let own = self.first_task[i] as usize..self.tasks.len();
            for group in &mut self.groups[first_group..] {
                group.start = self.group_tasks.len() as u32;
                self.group_tasks.extend(
                    (own.clone())
                        .filter(|&k| table.task(session_tasks[k]).target == group.target)
                        .map(|k| k as u32),
                );
                group.end = self.group_tasks.len() as u32;
            }
        }
        self.first_task.push(self.tasks.len() as u32);
        self.first_group.push(self.groups.len() as u32);
        self.raw.clear();
        self.first_raw.clear();
        for i in 0..n {
            self.first_raw.push(self.raw.len() as u32);
            let row = &self.flow_task[i * n..(i + 1) * n];
            self.raw.extend(
                (0..n)
                    .filter(|&j| j != i && row[j] == NO_TASK)
                    .map(|j| j as u32),
            );
        }
        self.first_raw.push(self.raw.len() as u32);
        let agents = inst.agents();
        self.price_mbps.clear();
        self.price_mbps
            .extend(agents.iter().map(|a| a.price_per_mbps()));
        self.price_task.clear();
        self.price_task
            .extend(agents.iter().map(|a| a.price_per_task()));
        self.speed.clear();
        self.speed.extend(agents.iter().map(|a| a.speed_factor()));
    }

    fn num_users(&self) -> usize {
        self.k_up.len()
    }

    /// User `i`'s representation groups.
    fn groups_of(&self, i: usize) -> &[RepGroup] {
        &self.groups[self.first_group[i] as usize..self.first_group[i + 1] as usize]
    }

    /// The tasks producing `group`.
    fn tasks_of(&self, group: &RepGroup) -> &[u32] {
        &self.group_tasks[group.start as usize..group.end as usize]
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
        let a_u = ua[i];
        let k_up = self.k_up[i];

        // T_u: agents transcoding u's stream (ν′_lu = 1).
        sets.transcoders.clear();
        for &a in &ta[self.first_task[i] as usize..self.first_task[i + 1] as usize] {
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
        for &j in &self.raw[self.first_raw[i] as usize..self.first_raw[i + 1] as usize] {
            let a_v = ua[j as usize];
            if a_v != a_u && !sets.transcoders.contains(&a_v) && !sets.raw_dests.contains(&a_v) {
                sets.raw_dests.push(a_v);
            }
        }
        for &l in &sets.raw_dests {
            emit(a_u, l, k_up);
        }

        // Term 3: transcoded streams from their transcoder(s) to the agents
        // hosting destinations that demand them. The paper's (1−λ_lu) factor
        // skips deliveries back to u's own agent.
        for group in self.groups_of(i) {
            if let [k] = *self.tasks_of(group) {
                // One task: one transcoder, at most one destination agent.
                let transcoder = ta[k as usize];
                let da = ua[self.tasks[k as usize].dst as usize];
                if da != a_u && transcoder != da {
                    emit(transcoder, da, group.kappa);
                }
                continue;
            }
            sets.transcoders_r.clear();
            sets.dest_agents_r.clear();
            for &k in self.tasks_of(group) {
                let transcoder = ta[k as usize];
                if !sets.transcoders_r.contains(&transcoder) {
                    sets.transcoders_r.push(transcoder);
                }
                let da = ua[self.tasks[k as usize].dst as usize];
                if da != a_u && !sets.dest_agents_r.contains(&da) {
                    sets.dest_agents_r.push(da);
                }
            }
            for &l in &sets.dest_agents_r {
                for &k in &sets.transcoders_r {
                    if k != l {
                        emit(k, l, group.kappa);
                    }
                }
            }
        }
    }

    /// Calls `unit(l)` once per transcoding unit `ν_lru` the task
    /// placement `ta` occupies: one per distinct `(agent, source,
    /// target)` — per representation group, per distinct agent among
    /// its tasks'.
    fn emit_units(
        &self,
        ta: &[AgentId],
        transcoders: &mut Vec<AgentId>,
        mut unit: impl FnMut(usize),
    ) {
        for group in &self.groups {
            transcoders.clear();
            for &k in self.tasks_of(group) {
                let a = ta[k as usize];
                if !transcoders.contains(&a) {
                    transcoders.push(a);
                    unit(a.index());
                }
            }
        }
    }

    /// End-to-end delay `d_ij` of the flow from user `i` to user `j`
    /// under `(ua, ta)`: the [`DelayBreakdown::total`] of the flow, its
    /// `σ` from the compiled tables.
    fn flow_delay(
        &self,
        inst: &Instance,
        ua: &[AgentId],
        ta: &[AgentId],
        i: usize,
        j: usize,
    ) -> f64 {
        let (a_u, a_v) = (ua[i], ua[j]);
        let (inter_agent_ms, transcode_ms) = match self.flow_task[i * self.num_users() + j] {
            NO_TASK => (inst.d_ms(a_u, a_v), 0.0),
            k => {
                let l = ta[k as usize];
                (
                    inst.d_ms(l, a_u) + inst.d_ms(l, a_v),
                    self.speed[l.index()] * self.tasks[k as usize].ref_ms,
                )
            }
        };
        inst.h_ms(a_u, self.users[i])
            + inst.h_ms(a_v, self.users[j])
            + inter_agent_ms
            + transcode_ms
    }
}

/// One entry of a compiled placement: the user or the task (local
/// index) a single decision moves.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    User(usize),
    Task(usize),
}

/// The small per-stream agent sets of [`Conference::emit_stream`]
/// (and, for one representation group, of the occupancy count).
#[derive(Debug, Default)]
struct StreamSets {
    transcoders: Vec<AgentId>,
    raw_dests: Vec<AgentId>,
    transcoders_r: Vec<AgentId>,
    dest_agents_r: Vec<AgentId>,
}

/// Reusable per-worker evaluation buffers: the compiled conference and
/// its placement in session-local indices, the `L×L` flow matrix (with
/// a touched-cell list so clearing is proportional to what was written,
/// not `L²`), the output [`SessionLoad`] and the small per-stream agent
/// sets. After warm-up an evaluation performs no heap allocation.
#[derive(Debug, Default)]
pub struct EvalScratch {
    nl: usize,
    /// Dense `L×L` inter-agent flows (`flows[k·L + l]` = Mbps k→l).
    flows: Vec<f64>,
    /// Cells of `flows` written since the last clear.
    flow_cells: Vec<(u32, u32)>,
    /// The output load; dense vectors sized `L`, cleared via `touched`.
    load: SessionLoad,
    /// Membership mask for `load.touched` and the demand bounds'
    /// agents, true only mid-call.
    mark: Vec<bool>,
    sets: StreamSets,
    /// The session most recently [`compile`](Self::compile)d and the
    /// placement being weighed: user and task agents by local index,
    /// and the `n×n` per-flow delays (row = source) under it.
    conf: Conference,
    ua: Vec<AgentId>,
    ta: Vec<AgentId>,
    delays: Vec<f64>,
    /// `delays` as installed, which a one-decision move is undone from.
    base_delays: Vec<f64>,
    /// The [traffic floor](Self::traffic_floor)'s per-agent ingress
    /// sink, sized `L` and all zero between calls, and the agents it
    /// wrote.
    floor_ingress: Vec<f64>,
    floor_agents: Vec<u32>,
    bounds: BoundSinks,
}

/// The [demand bounds](EvalScratch::demand_bounds)' and the [stream
/// floors](EvalScratch::stream_floors)' buffers: the placement they
/// read, by local index; per-agent download and upload sums and unit
/// counts, sized `L` and all zero between calls; the agents those
/// touch; and the brackets and floors handed out.
#[derive(Debug, Default)]
struct BoundSinks {
    ua: Vec<AgentId>,
    ta: Vec<AgentId>,
    download: Vec<f64>,
    upload: Vec<f64>,
    units: Vec<u32>,
    touched: Vec<u32>,
    out: Vec<[AgentDemand; 2]>,
    /// One source's destination agents off its own agent, each with its
    /// largest floor addend and whether a raw destination sits there.
    floor_dests: Vec<(AgentId, f64, bool)>,
    floors: Vec<AgentDemand>,
}

/// The relative margin by which the [traffic
/// floor](EvalScratch::traffic_floor) and the [demand
/// bounds](EvalScratch::demand_bounds) shade an agent's sum, taken in
/// emission order, to one side of the fold's: `×(1 − SHADE)` below,
/// `×(1 + SHADE)` above. Two float sums of the same `m` non-negative
/// addends, taken in different orders, differ by at most about
/// `2(m−1)·2⁻⁵³` relative, so a shaded sum stays on its side of the
/// fold's for any agent that receives fewer than a million addends.
const SHADE: f64 = 1e-9;

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
            self.bounds.download = vec![0.0; nl];
            self.bounds.upload = vec![0.0; nl];
            self.bounds.units = vec![0; nl];
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

    /// Evaluates session `s` under `assignment` into the scratch's
    /// load, returning it: [compile](Self::compile) the conference and
    /// [weigh](Self::weigh) the placement `assignment` gives it.
    /// Results are bitwise identical to a fresh [`evaluate_session`]:
    /// sparse accumulation visits agents and flow cells in the same
    /// ascending order the dense scan would.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range for the problem's instance.
    pub fn evaluate(
        &mut self,
        problem: &UapProblem,
        assignment: &Assignment,
        s: SessionId,
    ) -> &SessionLoad {
        self.compile(problem, s);
        let users = problem.instance().session(s).users();
        let tasks = problem.tasks().of_session(s);
        self.weigh(
            problem,
            users.iter().map(|&u| assignment.agent_of_user(u)),
            tasks.iter().map(|&t| assignment.agent_of_task(t)),
        )
    }

    /// Compiles session `s` to local indices: per source user its
    /// un-transcoded destinations and its representation groups (`κ`
    /// and tasks, in first-appearance order), per task the reference
    /// latency its `σ` scales, per agent the prices and speed factor —
    /// everything the formulas read that no placement changes.
    /// [`weigh`](Self::weigh) then folds placements of it, each for the
    /// price of installing its agents and deriving its delays; so does
    /// the [neighbourhood kernel](crate::neighborhood).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range for the problem's instance.
    pub fn compile(&mut self, problem: &UapProblem, s: SessionId) {
        self.ensure(problem.instance().num_agents());
        self.conf.compile(problem, s);
    }

    /// Weighs a placement of the session last [compiled](Self::compile)
    /// under `problem` — agents in `session.users()` /
    /// `tasks.of_session(s)` order — into the scratch's load, returning
    /// it: bit-equal to [`evaluate`](Self::evaluate) of that placement.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not cover the compiled session.
    pub fn weigh(
        &mut self,
        problem: &UapProblem,
        users: impl IntoIterator<Item = AgentId>,
        tasks: impl IntoIterator<Item = AgentId>,
    ) -> &SessionLoad {
        self.install(problem, users, tasks);
        self.fold(problem)
    }

    /// Installs `(users, tasks)` as the compiled session's placement to
    /// weigh and derives every flow's delay under it.
    /// [`fold`](Self::fold) then weighs that placement;
    /// [`apply`](Self::apply) moves it one decision away.
    pub(crate) fn install(
        &mut self,
        problem: &UapProblem,
        users: impl IntoIterator<Item = AgentId>,
        tasks: impl IntoIterator<Item = AgentId>,
    ) {
        self.ua.clear();
        self.ua.extend(users);
        self.ta.clear();
        self.ta.extend(tasks);
        let inst = problem.instance();
        let n = self.conf.num_users();
        assert!(
            self.ua.len() == n && self.ta.len() == self.conf.tasks.len(),
            "placement does not cover the session"
        );
        self.delays.clear();
        self.delays.resize(n * n, 0.0);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.delays[i * n + j] = self.conf.flow_delay(inst, &self.ua, &self.ta, i, j);
                }
            }
        }
        self.base_delays.clone_from(&self.delays);
    }

    /// Moves entry `slot` of the installed placement to `a`, re-derives
    /// the flow delays that invalidates — a user: the `2(n−1)` flows
    /// through it; a task: the one flow it relays — and folds the
    /// [delay half](Self::fold_delays). Returns the agent moved from,
    /// for [`revert`](Self::revert).
    pub(crate) fn apply(&mut self, problem: &UapProblem, slot: Slot, a: AgentId) -> AgentId {
        let inst = problem.instance();
        let n = self.conf.num_users();
        let base = match slot {
            Slot::User(i) => {
                let base = std::mem::replace(&mut self.ua[i], a);
                for j in 0..n {
                    if j != i {
                        self.delays[i * n + j] =
                            self.conf.flow_delay(inst, &self.ua, &self.ta, i, j);
                        self.delays[j * n + i] =
                            self.conf.flow_delay(inst, &self.ua, &self.ta, j, i);
                    }
                }
                base
            }
            Slot::Task(k) => {
                let task = self.conf.tasks[k];
                let (i, j) = (task.src as usize, task.dst as usize);
                let base = std::mem::replace(&mut self.ta[k], a);
                self.delays[i * n + j] = self.conf.flow_delay(inst, &self.ua, &self.ta, i, j);
                base
            }
        };
        self.fold_delays(problem);
        base
    }

    /// Undoes [`apply`](Self::apply): entry `slot` back on `base`, the
    /// delays as installed. The load keeps whatever was folded.
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

    /// Keeps what [`apply`](Self::apply) moved instead of reverting
    /// it: the moved placement and its delays become the installed
    /// ones — the delays a fresh [`install`](Self::install) of the
    /// moved placement would derive, bit for bit, since each is the
    /// same function of the same agents.
    pub(crate) fn keep(&mut self) {
        self.base_delays.copy_from_slice(&self.delays);
    }

    /// The installed placement's agents: `(users, tasks)` by local index.
    pub(crate) fn placement(&self) -> (&[AgentId], &[AgentId]) {
        (&self.ua, &self.ta)
    }

    /// Weighs the installed placement: the [delay half](Self::fold_delays),
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
        // A cell's ends touch nothing new: each is a user's agent,
        // touched above, or a task's, touched by the unit count below,
        // and `touched` is sorted before anything reads it.
        self.flow_cells.sort_unstable();
        self.flow_cells.dedup();
        for &(k, l) in &self.flow_cells {
            let f = self.flows[k as usize * self.nl + l as usize];
            if f > 0.0 {
                self.load.download[l as usize] += f;
                self.load.upload[k as usize] += f;
                self.load.ingress[l as usize] += f;
            }
        }

        // --- Transcoding occupancy ν_lru (constraint (7) and y_ls). -----
        let (touched, mark) = (&mut self.load.touched, &mut self.mark);
        let units = &mut self.load.transcode_units;
        self.conf
            .emit_units(&self.ta, &mut self.sets.transcoders_r, |a| {
                touch(touched, mark, a);
                units[a] += 1;
            });

        // --- Costs (sparse: untouched agents contribute price·g(0) = 0,
        // and adding +0.0 leaves the ascending-order sum bitwise equal
        // to the dense one). ---------------------------------------------
        self.load.touched.sort_unstable();
        for &a in &self.load.touched {
            self.mark[a as usize] = false;
        }
        let cost = problem.cost();
        let conf = &self.conf;
        self.load.traffic_cost = self
            .load
            .touched
            .iter()
            .map(|&l| {
                conf.price_mbps[l as usize] * cost.bandwidth.cost(self.load.ingress[l as usize])
            })
            .sum();
        self.load.transcode_cost = self
            .load
            .touched
            .iter()
            .map(|&l| {
                conf.price_task[l as usize]
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
    /// each agent's sum shaded by `1 −` [`SHADE`], priced through `g`
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
        let (conf, cost) = (&self.conf, problem.cost());
        let traffic: f64 = agents
            .drain(..)
            .map(|l| {
                let x = std::mem::take(&mut sink[l as usize]) * (1.0 - SHADE);
                conf.price_mbps[l as usize] * cost.bandwidth.cost(x)
            })
            .sum();
        cost.weights.combine(self.load.delay_cost, traffic, 0.0)
    }

    /// Brackets the per-agent demand that [weighing](Self::weigh) the
    /// placement `(users, tasks)` of the compiled session would fold,
    /// from its streams alone: no delay derived, no flow matrix, no
    /// cost. Returns `[lo, hi]` per agent the fold would touch,
    /// ascending, with the fold's transcoding units and
    /// `lo ≤ fold ≤ hi` for download and for upload, in floating point:
    ///
    /// * every user's last mile and every `μ_klu` term the fold emits
    ///   is added straight into its agent's download or upload sum, so
    ///   each sum has the fold's non-negative addends in another order,
    ///   and shading it by `1 ∓ 10⁻⁹` puts it on either side of the
    ///   fold's;
    /// * units are counted by the fold's own code;
    /// * the agents are the fold's: every user's agent and every
    ///   transcoder, which are the ends of every term — a cell the fold
    ///   skips as 0 Mbps adds no agent it does not already touch.
    ///
    /// A capacity rule monotone in each load that refuses `lo` and `hi`
    /// alike at an agent therefore refuses the fold there too, and one
    /// that passes `hi` passes the fold. Writes nothing the fold reads.
    ///
    /// # Panics
    ///
    /// Panics if the placement does not cover the compiled session.
    pub fn demand_bounds(
        &mut self,
        users: impl IntoIterator<Item = AgentId>,
        tasks: impl IntoIterator<Item = AgentId>,
    ) -> &[[AgentDemand; 2]] {
        let (conf, sets, mark) = (&self.conf, &mut self.sets, &mut self.mark);
        let BoundSinks {
            ua,
            ta,
            download,
            upload,
            units,
            touched,
            out,
            ..
        } = &mut self.bounds;
        ua.clear();
        ua.extend(users);
        ta.clear();
        ta.extend(tasks);
        assert!(
            ua.len() == conf.num_users() && ta.len() == conf.tasks.len(),
            "placement does not cover the session"
        );
        for i in 0..conf.num_users() {
            let a_u = ua[i].index();
            touch(touched, mark, a_u);
            download[a_u] += conf.k_up[i];
            upload[a_u] += conf.demanded[i];
            conf.emit_stream(i, ua, ta, sets, |from, to, mbps| {
                upload[from.index()] += mbps;
                download[to.index()] += mbps;
            });
        }
        conf.emit_units(ta, &mut sets.transcoders_r, |a| {
            touch(touched, mark, a);
            units[a] += 1;
        });
        touched.sort_unstable();
        out.clear();
        for &agent in touched.iter() {
            let i = agent as usize;
            mark[i] = false;
            let (down, up) = (
                std::mem::take(&mut download[i]),
                std::mem::take(&mut upload[i]),
            );
            let transcode_units = std::mem::take(&mut units[i]);
            let shaded = |factor: f64| AgentDemand {
                agent,
                transcode_units,
                download: down * factor,
                upload: up * factor,
            };
            out.push([shaded(1.0 - SHADE), shaded(1.0 + SHADE)]);
        }
        touched.clear();
        out
    }

    /// The least demand any task placement leaves on the agents of the
    /// users' placement `users` of the compiled session, from the users'
    /// streams alone ("Floors from the users' streams" in the module
    /// docs): per user's agent, ascending, its download and upload
    /// floor shaded by `1 − 10⁻⁹`, with 0 transcoding units. No
    /// task is placed, no delay derived and nothing folded: every addend
    /// is read off the compiled conference.
    ///
    /// For every task placement, the fold's download and upload at each
    /// of these agents is at least the floor, in floating point. A
    /// capacity rule monotone in each load that refuses a floor
    /// therefore refuses every placement of the tasks. Writes nothing
    /// the fold or the demand bounds read.
    ///
    /// # Panics
    ///
    /// Panics if `users` does not cover the compiled session's users.
    pub fn stream_floors(&mut self, users: impl IntoIterator<Item = AgentId>) -> &[AgentDemand] {
        let (conf, mark) = (&self.conf, &mut self.mark);
        let BoundSinks {
            ua,
            download,
            upload,
            touched,
            floor_dests,
            floors,
            ..
        } = &mut self.bounds;
        ua.clear();
        ua.extend(users);
        let n = conf.num_users();
        assert!(ua.len() == n, "placement does not cover the session");
        // Last miles first: every destination agent is a user's agent,
        // touched here.
        for (i, a_u) in ua.iter().enumerate() {
            let a_u = a_u.index();
            touch(touched, mark, a_u);
            download[a_u] += conf.k_up[i];
            upload[a_u] += conf.demanded[i];
        }
        for (i, &a_u) in ua.iter().enumerate() {
            let k_up = conf.k_up[i];
            floor_dests.clear();
            for (j, &a_v) in ua.iter().enumerate() {
                if a_v == a_u {
                    continue;
                }
                // A transcoded destination's agent receives `k_up` when
                // it transcodes the stream itself, `κ` when it does not.
                let (addend, raw) = match conf.flow_task[i * n + j] {
                    NO_TASK => (k_up, true),
                    k => (k_up.min(conf.task_kappa[k as usize]), false),
                };
                match floor_dests.iter_mut().find(|d| d.0 == a_v) {
                    Some(dest) => {
                        dest.1 = dest.1.max(addend);
                        dest.2 |= raw;
                    }
                    None => floor_dests.push((a_v, addend, raw)),
                }
            }
            let (mut raw_agents, mut transcoded) = (false, 0.0f64);
            for &(a_v, addend, raw) in floor_dests.iter() {
                download[a_v.index()] += addend;
                if raw {
                    upload[a_u.index()] += k_up;
                    raw_agents = true;
                } else {
                    transcoded = transcoded.max(addend);
                }
            }
            if !raw_agents {
                upload[a_u.index()] += transcoded;
            }
        }
        touched.sort_unstable();
        floors.clear();
        for &agent in touched.iter() {
            let i = agent as usize;
            mark[i] = false;
            floors.push(AgentDemand {
                agent,
                transcode_units: 0,
                download: std::mem::take(&mut download[i]) * (1.0 - SHADE),
                upload: std::mem::take(&mut upload[i]) * (1.0 - SHADE),
            });
        }
        touched.clear();
        floors
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

/// Computes the delay components of the flow `u → v` (Sec. III-C):
/// `H_{a(u),u} + H_{a(v),v}` plus either the direct hop `D_{a(u),a(v)}`
/// (no transcoding) or the relay through the transcoder `l` with its
/// latency: `D_{l,a(u)} + D_{l,a(v)} + σ_l(r^u_u, r^d_{vu})`.
pub fn flow_delay_breakdown(
    problem: &UapProblem,
    assignment: &Assignment,
    u: UserId,
    v: UserId,
) -> DelayBreakdown {
    let inst = problem.instance();
    let (a_u, a_v) = (assignment.agent_of_user(u), assignment.agent_of_user(v));
    let (inter_agent_ms, transcode_ms) = match problem.tasks().find(u, v) {
        Some(t) => {
            let l = assignment.agent_of_task(t);
            (
                inst.d_ms(l, a_u) + inst.d_ms(l, a_v),
                inst.sigma_ms(l, inst.user(u).upstream(), problem.tasks().task(t).target),
            )
        }
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
        let shaded = 1.0 * (1.0 - SHADE);
        let want = weights.combine(load.delay_cost, shaded + shaded, 0.0);
        assert_eq!(floor.to_bits(), want.to_bits());
        assert!(weights.delay_floor(load.delay_cost) < floor && floor < load.phi);
        // The sink is empty again and the fold's load untouched.
        assert_eq!(scratch.traffic_floor(&p).to_bits(), floor.to_bits());
        assert_eq!(scratch.load(), &load);
    }

    /// One random conference: per user its upstream and default
    /// downstream rung and its overrides `(peer position, rung)`.
    type RandomUsers = Vec<(usize, usize, Vec<(usize, usize)>)>;

    /// `agents` agents and one conference over a ladder of rungs `steps`
    /// kbps apart — the first rung 0 Mbps when `mute` — with bitrates
    /// that sum differently in different orders.
    fn random_universe(
        agents: usize,
        steps: &[u32],
        mute: bool,
        users: &RandomUsers,
    ) -> UapProblem {
        use vc_cost::CostModel;
        use vc_model::{AgentSpec, DownstreamDemand, InstanceBuilder, ReprLadder};
        let mut kbps = 0;
        let rungs = steps.iter().enumerate().map(|(i, &step)| {
            kbps += if i == 0 && mute { 0 } else { step };
            (format!("r{i}"), 100 * (i as u32 + 1), kbps)
        });
        let ladder = ReprLadder::from_steps(rungs).unwrap();
        let repr = |i: usize| ReprId::from(i % steps.len());
        let mut b = InstanceBuilder::new(ladder);
        for i in 0..agents {
            b.add_agent(AgentSpec::builder(format!("a{i}")).build());
        }
        let s = b.add_session();
        for &(up, down, ref overrides) in users {
            let demand = (overrides.iter())
                .fold(DownstreamDemand::uniform(repr(down)), |d, &(peer, r)| {
                    d.with_override(UserId::from(peer % users.len()), repr(r))
                });
            b.add_user_with_demand(s, repr(up), demand);
        }
        b.symmetric_delays(|_, _| 10.0, |_, _| 5.0);
        UapProblem::new(b.build().unwrap(), CostModel::paper_default())
    }

    /// Draws a placement of `s` from `pick` and asserts that its demand
    /// bounds bracket its fold: the fold's agents, `lo ≤ fold ≤ hi`
    /// for download and upload, and the fold's units — which are one
    /// per distinct `(agent, source, target)` of the task table.
    fn assert_bounds_bracket_the_fold(
        problem: &UapProblem,
        s: SessionId,
        eval: &mut EvalScratch,
        mut pick: impl FnMut() -> usize,
    ) {
        let nl = problem.instance().num_agents();
        let session_tasks = problem.tasks().of_session(s);
        let users: Vec<AgentId> = (problem.instance().session(s).users().iter())
            .map(|_| AgentId::from(pick() % nl))
            .collect();
        let tasks: Vec<AgentId> = session_tasks
            .iter()
            .map(|_| AgentId::from(pick() % nl))
            .collect();
        let mut units = vec![0; nl];
        let mut distinct = std::collections::BTreeSet::new();
        for (&t, &a) in session_tasks.iter().zip(&tasks) {
            let task = problem.tasks().task(t);
            if distinct.insert((a, task.src, task.target)) {
                units[a.index()] += 1;
            }
        }
        eval.compile(problem, s);
        let bounds = eval.demand_bounds(users.clone(), tasks.clone()).to_vec();
        let load = eval.weigh(problem, users.clone(), tasks.clone());
        let placed = format!("{s} on {users:?} / {tasks:?}");
        let agents: Vec<u32> = bounds.iter().map(|[lo, _]| lo.agent).collect();
        assert_eq!(agents, load.touched, "{placed}");
        for (&[lo, hi], fold) in bounds.iter().zip(load.demand()) {
            assert!(
                lo.download <= fold.download && fold.download <= hi.download,
                "{placed}: download {} outside [{}, {}]",
                fold.download,
                lo.download,
                hi.download
            );
            assert!(
                lo.upload <= fold.upload && fold.upload <= hi.upload,
                "{placed}: upload {} outside [{}, {}]",
                fold.upload,
                lo.upload,
                hi.upload
            );
            let want = units[fold.agent as usize];
            assert_eq!(
                (lo.transcode_units, fold.transcode_units, hi.transcode_units),
                (want, want, want),
                "{placed}: units at a{}",
                fold.agent
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The demand bounds bracket the fold, on random placements of
        /// random conferences — a zero-bitrate rung, representations
        /// several destinations share, tasks on the source's, the
        /// destination's or a third agent — and of the named shapes,
        /// through one scratch.
        #[test]
        fn demand_bounds_bracket_the_fold(
            agents in 2usize..=5,
            steps in proptest::prop::collection::vec(1u32..3_000, 1..=4),
            mute in proptest::prelude::any::<bool>(),
            users in proptest::prop::collection::vec(
                (0usize..4, 0usize..4, proptest::prop::collection::vec((0usize..6, 0usize..4), 0..3)),
                1..=6,
            ),
            picks in proptest::prop::collection::vec(0usize..60, 64),
        ) {
            let mut picks = picks.into_iter().cycle();
            let mut eval = EvalScratch::new();
            let random = random_universe(agents, &steps, mute, &users);
            for _ in 0..4 {
                assert_bounds_bracket_the_fold(&random, S0, &mut eval, || picks.next().unwrap());
            }
            let (shapes, _) = crate::test_fixtures::named_shapes(vc_cost::BandwidthCost::linear());
            for s in shapes.instance().session_ids() {
                assert_bounds_bracket_the_fold(&shapes, s, &mut eval, || picks.next().unwrap());
            }
        }
    }

    /// Draws a users' placement of `s` from `pick` and asserts that its
    /// stream floors are below the fold of every task placement it
    /// weighs: one drawn from `pick`, every task on its source's agent,
    /// every task on its destination's agent, and all tasks on one
    /// drawn agent. A floor names exactly the users' agents, ascending,
    /// with no transcoding unit.
    fn assert_floors_below_every_fold(
        problem: &UapProblem,
        s: SessionId,
        eval: &mut EvalScratch,
        mut pick: impl FnMut() -> usize,
    ) {
        let nl = problem.instance().num_agents();
        let members = problem.instance().session(s).users();
        let session_tasks = problem.tasks().of_session(s);
        let users: Vec<AgentId> = members.iter().map(|_| AgentId::from(pick() % nl)).collect();
        let agent_of = |u: UserId| users[members.iter().position(|&v| v == u).unwrap()];
        let one = AgentId::from(pick() % nl);
        let placements: [Vec<AgentId>; 4] = [
            session_tasks
                .iter()
                .map(|_| AgentId::from(pick() % nl))
                .collect(),
            (session_tasks.iter())
                .map(|&t| agent_of(problem.tasks().task(t).src))
                .collect(),
            (session_tasks.iter())
                .map(|&t| agent_of(problem.tasks().task(t).dst))
                .collect(),
            vec![one; session_tasks.len()],
        ];
        let mut agents: Vec<u32> = users.iter().map(|a| a.index() as u32).collect();
        agents.sort_unstable();
        agents.dedup();
        eval.compile(problem, s);
        for tasks in placements {
            let floors = eval.stream_floors(users.clone()).to_vec();
            let load = eval.weigh(problem, users.clone(), tasks.clone());
            let placed = format!("{s} on {users:?} / {tasks:?}");
            let named: Vec<u32> = floors.iter().map(|floor| floor.agent).collect();
            assert_eq!(named, agents, "{placed}");
            for floor in &floors {
                let fold = load.demand_at(floor.agent);
                assert!(
                    floor.download <= fold.download && floor.upload <= fold.upload,
                    "{placed}: floor {floor:?} above the fold {fold:?}"
                );
                assert_eq!(floor.transcode_units, 0, "{placed}");
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The stream floors are below every fold, on random users'
        /// placements of random conferences — a zero-bitrate rung,
        /// representations several destinations share, groups of
        /// several tasks — and of the named shapes, each weighed under
        /// several task placements, through one scratch.
        #[test]
        fn stream_floors_are_below_every_fold(
            agents in 2usize..=5,
            steps in proptest::prop::collection::vec(1u32..3_000, 1..=4),
            mute in proptest::prelude::any::<bool>(),
            users in proptest::prop::collection::vec(
                (0usize..4, 0usize..4, proptest::prop::collection::vec((0usize..6, 0usize..4), 0..3)),
                1..=6,
            ),
            picks in proptest::prop::collection::vec(0usize..60, 64),
        ) {
            let mut picks = picks.into_iter().cycle();
            let mut eval = EvalScratch::new();
            let random = random_universe(agents, &steps, mute, &users);
            for _ in 0..4 {
                assert_floors_below_every_fold(&random, S0, &mut eval, || picks.next().unwrap());
            }
            let (shapes, _) = crate::test_fixtures::named_shapes(vc_cost::BandwidthCost::linear());
            for s in shapes.instance().session_ids() {
                assert_floors_below_every_fold(&shapes, s, &mut eval, || picks.next().unwrap());
            }
        }
    }

    /// The floors of the two-agent fixture by hand, users split: a
    /// downloads u0's 5 Mbps and u1's raw 1 Mbps, and uploads u0's
    /// 1 Mbps last mile and at least the transcoded 1 Mbps; b the same
    /// with u1's 1 Mbps upstream. Both placements of the task fold to
    /// at least that, and the source-side one to exactly that.
    #[test]
    fn stream_floors_by_hand() {
        let p = two_agent_problem();
        let mut scratch = EvalScratch::new();
        scratch.compile(&p, S0);
        let floors = scratch.stream_floors([A, B]).to_vec();
        let shade = 1.0 - SHADE;
        let want = |agent: u32, download: f64, upload: f64| AgentDemand {
            agent,
            transcode_units: 0,
            download: download * shade,
            upload: upload * shade,
        };
        assert_eq!(floors, [want(0, 6.0, 2.0), want(1, 2.0, 2.0)]);
        for task in [A, B] {
            let load = scratch.weigh(&p, [A, B], [task]);
            for floor in &floors {
                let fold = load.demand_at(floor.agent);
                assert!(floor.download < fold.download && floor.upload < fold.upload);
            }
        }
        let colocated = scratch.stream_floors([A, A]).to_vec();
        assert_eq!(colocated, [want(0, 6.0, 2.0)]);
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
        // The total is the flow delay the evaluation derives (u1 receives it).
        let load = evaluate_session(&p, &asg, S0);
        assert_eq!(bd.total().to_bits(), load.user_delay[1].to_bits());
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
