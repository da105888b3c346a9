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
//! ## The hop hot path
//!
//! Alg. 1 weighs `(|U(s)| + |T(s)|)·(L − 1)` candidate placements per
//! HOP, so this module is written around a reusable [`EvalScratch`]:
//! one evaluation touches only the agents the session actually uses
//! (tracked in [`SessionLoad::touched`]) and clears only what it wrote,
//! making steady-state candidate weighing allocation-free. Candidates
//! are expressed as an [`OverlayView`] over the committed assignment —
//! a one-decision diff — instead of cloning the whole assignment.

use crate::{Assignment, Decision, TaskId, UapProblem};
use vc_model::{AgentId, ReprId, SessionId, UserId};

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
/// Equality compares the semantic fields only — the [`touched`]
/// (Self::touched) index is bookkeeping for sparse iteration.
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

impl SessionLoad {
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

    /// Resets the load to [`empty`](Self::empty) in place, keeping the
    /// dense vectors' allocations and zeroing only the agents
    /// [`touched`](Self::touched) names (which covers every nonzero
    /// entry).
    pub fn clear(&mut self) {
        for &a in &self.touched {
            let i = a as usize;
            self.download[i] = 0.0;
            self.upload[i] = 0.0;
            self.ingress[i] = 0.0;
            self.transcode_units[i] = 0;
        }
        self.touched.clear();
        self.user_delay.clear();
        self.max_flow_delay = 0.0;
        self.delay_cost = 0.0;
        self.traffic_cost = 0.0;
        self.transcode_cost = 0.0;
        self.phi = 0.0;
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

/// Reusable per-worker evaluation buffers: the `L×L` flow matrix (with
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
    /// Transcode-triple dedup buffer (sort + dedup, not O(n²) scans).
    triples: Vec<(AgentId, UserId, ReprId)>,
    transcoders: Vec<AgentId>,
    raw_dests: Vec<AgentId>,
    reps: Vec<ReprId>,
    transcoders_r: Vec<AgentId>,
    dest_agents_r: Vec<AgentId>,
}

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
        }
    }

    /// Zeroes exactly what the previous evaluation (or a swapped-in
    /// load) left behind.
    fn clear(&mut self) {
        self.load.clear();
        for &(k, l) in &self.flow_cells {
            self.flows[k as usize * self.nl + l as usize] = 0.0;
        }
        self.flow_cells.clear();
    }

    /// Evaluates session `s` under `view` into the scratch's load,
    /// returning it. Results are bitwise identical to a fresh
    /// [`evaluate_session`]: sparse accumulation visits agents and flow
    /// cells in the same ascending order the dense scan would.
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
        let inst = problem.instance();
        let nl = inst.num_agents();
        self.ensure(nl);
        self.clear();
        let session = inst.session(s);

        // --- Traffic accounting (constraints (5)/(6) and x_ls). ---------
        for &u in session.users() {
            let a_u = view.agent_of_user(u);
            let upstream = inst.user(u).upstream();
            let k_up = inst.kappa(upstream);

            touch(&mut self.load.touched, &mut self.mark, a_u.index());
            // Last-mile upstream: u pushes its stream into its agent.
            self.load.download[a_u.index()] += k_up;
            // Last-mile downstream: u's agent pushes to u every stream u
            // demands (assignment-independent, precomputed).
            self.load.upload[a_u.index()] += problem.demanded_mbps(u);

            self.accumulate_stream_flows(problem, view, u, a_u, k_up);
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
        for &t in problem.tasks().of_session(s) {
            let task = problem.tasks().task(t);
            self.triples
                .push((view.agent_of_task(t), task.src, task.target));
        }
        self.triples.sort_unstable();
        self.triples.dedup();
        for i in 0..self.triples.len() {
            let a = self.triples[i].0;
            touch(&mut self.load.touched, &mut self.mark, a.index());
            self.load.transcode_units[a.index()] += 1;
        }

        // --- End-to-end delays d_uv (constraint (8) and F(d_s)). --------
        self.load.user_delay.resize(session.len(), 0.0);
        for (u, v) in session.flows() {
            let d = flow_delay(problem, view, u, v);
            self.load.max_flow_delay = self.load.max_flow_delay.max(d);
            // d_v = max over incoming flows u→v.
            let pos = session
                .users()
                .iter()
                .position(|&w| w == v)
                .expect("flow destination is a session member");
            self.load.user_delay[pos] = self.load.user_delay[pos].max(d);
        }

        // --- Costs (sparse: untouched agents contribute price·g(0) = 0,
        // and adding +0.0 leaves the ascending-order sum bitwise equal
        // to the dense one). ---------------------------------------------
        self.load.touched.sort_unstable();
        for &a in &self.load.touched {
            self.mark[a as usize] = false;
        }
        let cost = problem.cost();
        self.load.delay_cost = cost.delay.cost(&self.load.user_delay);
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

    /// Accumulates the three `μ_klu` terms for user `u`'s stream.
    fn accumulate_stream_flows<V: AssignmentView>(
        &mut self,
        problem: &UapProblem,
        view: &V,
        u: UserId,
        a_u: AgentId,
        k_up: f64,
    ) {
        let inst = problem.instance();
        let tasks_u = problem.tasks().of_source(u);
        let nl = self.nl;
        let flows = &mut self.flows;
        let flow_cells = &mut self.flow_cells;

        // T_u: agents transcoding u's stream (ν′_lu = 1).
        self.transcoders.clear();
        for &t in tasks_u {
            let a = view.agent_of_task(t);
            if !self.transcoders.contains(&a) {
                self.transcoders.push(a);
            }
        }

        // Term 1: raw upstream from u's agent to every transcoding agent.
        for &l in &self.transcoders {
            if l != a_u {
                flow_add(flows, flow_cells, nl, a_u, l, k_up);
            }
        }

        // Term 2: raw upstream to agents hosting un-transcoded destinations
        // (θ_uv = 0), unless the agent already receives it for transcoding.
        self.raw_dests.clear();
        for v in inst.participants(u) {
            if !inst.theta(u, v) {
                let a_v = view.agent_of_user(v);
                if a_v != a_u && !self.transcoders.contains(&a_v) && !self.raw_dests.contains(&a_v)
                {
                    self.raw_dests.push(a_v);
                }
            }
        }
        for &l in &self.raw_dests {
            flow_add(flows, flow_cells, nl, a_u, l, k_up);
        }

        // Term 3: transcoded streams from their transcoder(s) to the agents
        // hosting destinations that demand them. The paper's (1−λ_lu) factor
        // skips deliveries back to u's own agent.
        self.reps.clear();
        for &t in tasks_u {
            let r = problem.tasks().task(t).target;
            if !self.reps.contains(&r) {
                self.reps.push(r);
            }
        }
        for i in 0..self.reps.len() {
            let r = self.reps[i];
            let k_r = inst.kappa(r);
            self.transcoders_r.clear();
            self.dest_agents_r.clear();
            for &t in tasks_u {
                let task = problem.tasks().task(t);
                if task.target != r {
                    continue;
                }
                let ta = view.agent_of_task(t);
                if !self.transcoders_r.contains(&ta) {
                    self.transcoders_r.push(ta);
                }
                let da = view.agent_of_user(task.dst);
                if da != a_u && !self.dest_agents_r.contains(&da) {
                    self.dest_agents_r.push(da);
                }
            }
            for &l in &self.dest_agents_r {
                for &k in &self.transcoders_r {
                    if k != l {
                        flow_add(flows, flow_cells, nl, k, l, k_r);
                    }
                }
            }
        }
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
    let a_u = assignment.agent_of_user(u);
    let a_v = assignment.agent_of_user(v);
    let (inter_agent_ms, transcode_ms) = match problem.tasks().find(u, v) {
        Some(t) => {
            let l = assignment.agent_of_task(t);
            let task = problem.tasks().task(t);
            (
                inst.d_ms(l, a_u) + inst.d_ms(l, a_v),
                inst.sigma_ms(l, inst.user(u).upstream(), task.target),
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
