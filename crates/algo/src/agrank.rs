//! AgRank (Alg. 2): proximity- and resource-aware agent ranking.
//!
//! Upon session start, a potential-agent set `N(s)` is formed from each
//! user's `n_ngbr` nearest agents. Agents are then ranked by a random
//! walk over the normalized inter-agent delay matrix
//! `D̂_lk = min(D)/D_lk`, with the walk's *personalization* given by each
//! agent's normalized residual quadruple `(û, d̂, t̂, σ̂)` — this is what
//! makes the ranking resource-aware. Each user subscribes to the
//! highest-ranked agent among its own `N(u)`; transcoding tasks follow
//! the rule of thumb of [`crate::placement`].
//!
//! ## Interpretation notes
//!
//! The paper's pseudocode iterates `πᵀ[t+1] = πᵀ[t]·D̂` from the
//! residual-quadruple initialization. A pure power iteration converges to
//! the principal eigenvector *regardless of initialization*, which would
//! discard resource-awareness; since the design is "motivated by the idea
//! of Google's PageRank", we keep the residual quadruple in the fixed
//! point the way PageRank does — as a teleport (personalization) vector
//! with damping `α` (default 0.85). Setting `damping = 1.0` recovers the
//! paper's literal iteration.

use crate::placement;
use vc_core::{TaskId, UapProblem};
use vc_model::{AgentId, SessionId, UserId};

/// Convergence threshold ε on `‖π[t+1] − π[t]‖₁`.
const EPSILON: f64 = 1e-10;

/// Power-iteration cap (the scheme converges in `O(−log ε)` rounds).
const MAX_ITERS: usize = 500;

/// Tuning knobs of AgRank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgRankConfig {
    /// `n_ngbr ∈ [1, L]`: nearest agents per user considered as candidates.
    /// 1 reproduces Nrst; `L` subscribes the session to one agent.
    pub n_ngbr: usize,
    /// PageRank damping `α ∈ [0, 1]`; `1.0` is the paper's literal
    /// resource-oblivious power iteration.
    pub damping: f64,
}

impl AgRankConfig {
    /// The paper's configuration with the given `n_ngbr`.
    ///
    /// **Footgun under elastic capacity**: a fixed `n_ngbr` smaller than
    /// the live agent count silently hides every farther agent from the
    /// candidate set — including agents registered *after* the config
    /// was chosen, which tend to be exactly the free ones. Growing
    /// fleets should use [`live`](Self::live) (the default), or check
    /// [`excludes_agents`](Self::excludes_agents) when a paper-faithful
    /// fixed neighborhood is intended.
    pub fn paper(n_ngbr: usize) -> Self {
        assert!(n_ngbr >= 1, "n_ngbr must be at least 1");
        Self {
            n_ngbr,
            damping: 0.85,
        }
    }

    /// The paper's configuration with the neighborhood following the
    /// *live* agent count: `n_ngbr` is the `usize::MAX` sentinel, which
    /// the ranking clamps to the instance's current agent count at every
    /// call — agents registered online are candidates immediately.
    pub fn live() -> Self {
        Self::paper(usize::MAX)
    }

    /// Whether this config's fixed neighborhood hides registered agents:
    /// true iff `n_ngbr < num_agents`. [`live`](Self::live) configs
    /// never exclude.
    pub fn excludes_agents(&self, num_agents: usize) -> bool {
        self.n_ngbr < num_agents
    }
}

impl Default for AgRankConfig {
    fn default() -> Self {
        Self::live()
    }
}

/// Residual agent capacities, the `(û, d̂, t̂)` part of the ranking
/// quadruple: `capacity − reserved`, signed like
/// [`FreeCapacity`](vc_core::FreeCapacity). The ranking floors it at 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Residuals {
    /// Remaining upload capacity per agent (Mbps).
    pub upload: Vec<f64>,
    /// Remaining download capacity per agent (Mbps).
    pub download: Vec<f64>,
    /// Remaining transcoding slots per agent.
    pub transcode: Vec<f64>,
}

impl Residuals {
    /// Full capacities (nothing consumed yet).
    pub fn full(problem: &UapProblem) -> Self {
        let none = vc_core::AgentTotals::zero(problem.instance().num_agents());
        Self::from_totals(problem, &none)
    }

    /// Capacities minus explicit per-agent load totals —
    /// the **shared** residual derivation of the admission engine. The
    /// offline world (`SystemState::totals`) and the fleet's
    /// ledger-backed admission both route through here, so two worlds
    /// whose live loads are bitwise equal see bitwise-equal residuals
    /// (and hence make identical admission decisions).
    pub fn from_totals(problem: &UapProblem, totals: &vc_core::AgentTotals) -> Self {
        let mut r = Self::default();
        r.fill_from_totals(problem, totals);
        r
    }

    /// [`from_totals`](Self::from_totals) into `self`, reusing its
    /// vectors — what per-admit callers hold across admissions.
    pub fn fill_from_totals(&mut self, problem: &UapProblem, totals: &vc_core::AgentTotals) {
        let agents = problem.instance().agents();
        self.upload.clear();
        self.download.clear();
        self.transcode.clear();
        for (i, a) in agents.iter().enumerate() {
            let cap = a.capacity();
            self.upload.push(cap.upload_mbps - totals.upload[i]);
            self.download.push(cap.download_mbps - totals.download[i]);
            self.transcode
                .push(f64::from(cap.transcode_slots) - f64::from(totals.transcode[i]));
        }
    }
}

/// The outcome of ranking a session's potential agents.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentRanking {
    /// `N(s)`: the session's potential agents (ascending id order).
    pub candidates: Vec<AgentId>,
    /// Rank scores `π_l`, parallel to `candidates`, summing to 1.
    pub scores: Vec<f64>,
    /// `N(u)` per session user, each sorted by descending rank score.
    pub user_candidates: Vec<(UserId, Vec<AgentId>)>,
    /// Power-iteration rounds until `‖Δπ‖₁ < ε`.
    pub iterations: usize,
}

impl AgentRanking {
    /// The rank score of agent `l`, if it is a candidate.
    pub fn score_of(&self, l: AgentId) -> Option<f64> {
        self.candidates
            .iter()
            .position(|&c| c == l)
            .map(|i| self.scores[i])
    }

    /// The ranked candidate list of user `u` (best first).
    ///
    /// # Panics
    ///
    /// Panics if `u` is not a member of the ranked session.
    pub fn candidates_of(&self, u: UserId) -> &[AgentId] {
        &self
            .user_candidates
            .iter()
            .find(|(w, _)| *w == u)
            .expect("user belongs to the ranked session")
            .1
    }
}

/// Adds one component of the residual quadruple to `acc`, normalized
/// to `[0, 1]` by its finite maximum: infinite entries score 1
/// (abundant resource), negative ones 0 (an overshot agent scores like
/// a full one) and an all-zero component stays zero. The first
/// component is assigned rather than added, so the four-term sum
/// associates as `((û + d̂) + t̂) + σ̂`.
fn add_normalized(acc: &mut [f64], values: impl Iterator<Item = f64> + Clone, first: bool) {
    let values = values.map(|v| v.max(0.0));
    let max_finite = values
        .clone()
        .filter(|v| v.is_finite())
        .fold(0.0f64, f64::max);
    for (a, v) in acc.iter_mut().zip(values) {
        let x = if !v.is_finite() {
            1.0
        } else if max_finite > 0.0 {
            v / max_finite
        } else {
            0.0
        };
        if first {
            *a = x;
        } else {
            *a += x;
        }
    }
}

/// One ranking's outputs plus every buffer computing it needs, reused
/// across calls: after warm-up `rank_agents_into` allocates nothing.
/// Per-user candidate lists are stored flat — every user of a session
/// has the same number of candidates (`n_ngbr` clamped to the agent
/// count).
#[derive(Debug, Default)]
pub(crate) struct RankScratch {
    /// `N(s)`, ascending by id.
    candidates: Vec<AgentId>,
    /// `π_l`, parallel to `candidates`; ping-pongs with `next` inside
    /// the power iteration.
    scores: Vec<f64>,
    /// `π_l` indexed by agent id (0 for non-candidates): what the sort
    /// comparators read.
    score_by_agent: Vec<f64>,
    /// `N(s)` by descending score.
    ranked: Vec<AgentId>,
    /// `N(u)` of every session user back to back, `per_user` each, best
    /// rank first.
    user_candidates: Vec<AgentId>,
    per_user: usize,
    iterations: usize,
    /// Candidate membership by agent id while `N(s)` is collected, and
    /// one user's agents by proximity (both only when `n_ngbr < L`).
    member: Vec<bool>,
    proximity: Vec<AgentId>,
    pi0: Vec<f64>,
    next: Vec<f64>,
    /// The row-normalized `n×n` walk matrix `D̂`, row-major.
    walk: Vec<f64>,
}

impl RankScratch {
    /// `N(s)` in the ranking's order: higher score first, lower id on
    /// equal scores.
    pub(crate) fn ranked(&self) -> &[AgentId] {
        &self.ranked
    }

    /// `N(u)` of every session user back to back (session order),
    /// [`per_user`](Self::per_user) agents each, best rank first.
    pub(crate) fn user_candidates(&self) -> &[AgentId] {
        &self.user_candidates
    }

    /// Candidates per user (`n_ngbr` clamped to the agent count).
    pub(crate) fn per_user(&self) -> usize {
        self.per_user
    }
}

/// Ranks the potential agents of session `s` (Lines 1–14 of Alg. 2).
/// Owns its result; the admission path runs the same code into a reused
/// scratch, once per `place_session`.
///
/// Cost with `n = |N(s)|` candidates out of `L` agents and `m` users:
/// `O(n²)` for the walk matrix, `O(n²)` per power-iteration round
/// (`O(−log ε)` rounds; each round is a row-by-row `axpy` the compiler
/// vectorizes), and `O(n log n)` to rank `N(s)`. A neighbourhood that
/// holds every agent (`n_ngbr ≥ L`, the [`AgRankConfig::live`] default)
/// needs no proximity order, and each `N(u)` is a copy of the ranked
/// `N(s)`; only `n_ngbr < L` pays `O(m·L log L)` for the proximity
/// lists and `O(m·n log n)` to order them. Every ordering here is a
/// total order over distinct agents (ties broken by id) and every
/// floating-point sum keeps one fixed association, so the result is a
/// function of `(problem, s, residuals, config)` alone — which the
/// admission search, and hence journals and replay twins, rely on.
pub fn rank_agents(
    problem: &UapProblem,
    s: SessionId,
    residuals: &Residuals,
    config: &AgRankConfig,
) -> AgentRanking {
    let mut scratch = RankScratch::default();
    rank_agents_into(problem, s, residuals, config, &mut scratch);
    let users = problem.instance().session(s).users();
    AgentRanking {
        user_candidates: users
            .iter()
            .zip(scratch.user_candidates.chunks(scratch.per_user))
            .map(|(&u, near)| (u, near.to_vec()))
            .collect(),
        candidates: scratch.candidates,
        scores: scratch.scores,
        iterations: scratch.iterations,
    }
}

/// [`rank_agents`] into `scratch` — the admission path's entry point:
/// one call per `place_session`, no allocation once the buffers have
/// grown to the agent count.
pub(crate) fn rank_agents_into(
    problem: &UapProblem,
    s: SessionId,
    residuals: &Residuals,
    config: &AgRankConfig,
    scratch: &mut RankScratch,
) {
    let inst = problem.instance();
    let session = inst.session(s);
    let nl = inst.num_agents();
    let n_ngbr = config.n_ngbr.min(nl).max(1);
    // When N(u) holds every agent, proximity decides nothing: N(s) is
    // all agents, and every N(u) is the same list in rank order.
    let everyone = n_ngbr == nl;

    // N(u): top n_ngbr nearest agents per user; N(s): their union.
    scratch.per_user = n_ngbr;
    scratch.user_candidates.clear();
    scratch.candidates.clear();
    if everyone {
        scratch.candidates.extend((0..nl).map(AgentId::from));
    } else {
        scratch.member.clear();
        scratch.member.resize(nl, false);
        for &u in session.users() {
            inst.delays()
                .agents_by_proximity_into(u, &mut scratch.proximity);
            for &l in &scratch.proximity[..n_ngbr] {
                scratch.member[l.index()] = true;
            }
            scratch
                .user_candidates
                .extend_from_slice(&scratch.proximity[..n_ngbr]);
        }
        scratch
            .candidates
            .extend((0..nl).filter(|&i| scratch.member[i]).map(AgentId::from));
    }
    let candidates = &scratch.candidates;
    let n = candidates.len();

    // Personalization π₀: normalized residual quadruple (û + d̂ + t̂ + σ̂).
    let pi0 = &mut scratch.pi0;
    pi0.clear();
    pi0.resize(n, 0.0);
    add_normalized(
        pi0,
        candidates.iter().map(|l| residuals.upload[l.index()]),
        true,
    );
    add_normalized(
        pi0,
        candidates.iter().map(|l| residuals.download[l.index()]),
        false,
    );
    add_normalized(
        pi0,
        candidates.iter().map(|l| residuals.transcode[l.index()]),
        false,
    );
    // σ̂: transcoding speed score — inverse of the agent's latency factor.
    add_normalized(
        pi0,
        candidates
            .iter()
            .map(|l| 1.0 / inst.agent(*l).speed_factor()),
        false,
    );
    let z: f64 = pi0.iter().sum();
    if z > 0.0 {
        for x in pi0.iter_mut() {
            *x /= z;
        }
    } else {
        pi0.fill(1.0 / n as f64);
    }

    if n == 1 {
        scratch.scores.clear();
        scratch.scores.push(1.0);
        scratch.iterations = 0;
    } else {
        power_iterate(inst, config, scratch);
    }

    // Order N(s) and each user's candidates by descending rank (ties:
    // lower id first) — a total order, so the unstable sort is
    // deterministic.
    let RankScratch {
        candidates,
        scores,
        score_by_agent,
        ranked,
        user_candidates,
        ..
    } = scratch;
    score_by_agent.clear();
    score_by_agent.resize(nl, 0.0);
    for (l, &score) in candidates.iter().zip(scores.iter()) {
        score_by_agent[l.index()] = score;
    }
    ranked.clear();
    ranked.extend_from_slice(candidates);
    ranked.sort_unstable_by(|a, b| descending_score(score_by_agent, *a, *b));
    if everyone {
        for _ in session.users() {
            user_candidates.extend_from_slice(ranked);
        }
    } else {
        for near in user_candidates.chunks_mut(n_ngbr) {
            near.sort_unstable_by(|a, b| descending_score(score_by_agent, *a, *b));
        }
    }
}

/// Higher score first, lower id on equal scores.
fn descending_score(score: &[f64], a: AgentId, b: AgentId) -> std::cmp::Ordering {
    score[b.index()]
        .partial_cmp(&score[a.index()])
        .expect("scores are finite")
        .then(a.cmp(&b))
}

/// The damped random walk over the normalized delay matrix, from
/// `scratch.pi0` over `scratch.candidates` (at least two) into
/// `scratch.scores`. The walk matrix and the two iterate vectors live in
/// the scratch; a round writes `next` from `scores` and swaps them.
///
/// A round adds `π_i · D̂_i` into `next` one row at a time, `i`
/// ascending: each element takes one multiply and one add per row in
/// that fixed order, so the iterate's bits do not depend on how the
/// compiler vectorizes the row.
fn power_iterate(inst: &vc_model::Instance, config: &AgRankConfig, scratch: &mut RankScratch) {
    let RankScratch {
        candidates,
        scores: pi,
        pi0,
        next,
        walk: w,
        iterations,
        ..
    } = scratch;
    let n = candidates.len();
    // D̂_lk = min positive delay / D_lk; diagonal handled as self-affinity 1.
    let mut min_pos = f64::INFINITY;
    for (i, &l) in candidates.iter().enumerate() {
        for &k in &candidates[i + 1..] {
            let d = inst.d_ms(l, k);
            if d > 0.0 {
                min_pos = min_pos.min(d);
            }
        }
    }
    if !min_pos.is_finite() {
        min_pos = 1.0; // all candidate pairs have zero delay: uniform affinity
    }
    w.clear();
    w.resize(n * n, 0.0);
    for (row, &l) in w.chunks_exact_mut(n).zip(candidates.iter()) {
        let mut row_sum = 0.0;
        for (x, &k) in row.iter_mut().zip(candidates.iter()) {
            *x = if l == k {
                1.0
            } else {
                let d = inst.d_ms(l, k);
                if d > 0.0 {
                    min_pos / d
                } else {
                    1.0
                }
            };
            row_sum += *x;
        }
        for x in row.iter_mut() {
            *x /= row_sum;
        }
    }

    let alpha = config.damping;
    pi.clear();
    pi.extend_from_slice(pi0);
    next.clear();
    next.resize(n, 0.0);
    *iterations = 0;
    for _ in 0..MAX_ITERS {
        *iterations += 1;
        next.fill(0.0);
        for (&p, row) in pi.iter().zip(w.chunks_exact(n)) {
            for (x, &wij) in next.iter_mut().zip(row) {
                *x += p * wij;
            }
        }
        for (x, &p0) in next.iter_mut().zip(pi0.iter()) {
            *x = alpha * *x + (1.0 - alpha) * p0;
        }
        // Renormalize (guards drift; walk is stochastic so sum is ~1).
        let z: f64 = next.iter().sum();
        for x in next.iter_mut() {
            *x /= z;
        }
        let delta: f64 = pi.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(pi, next);
        if delta < EPSILON {
            break;
        }
    }
}

/// Complete AgRank output for one session: user and task placements
/// (Lines 15–17 of Alg. 2 plus the transcoding rule of thumb).
#[derive(Debug, Clone)]
pub struct SessionAssignment {
    /// Chosen agent per session user.
    pub users: Vec<(UserId, AgentId)>,
    /// Chosen agent per session task.
    pub tasks: Vec<(TaskId, AgentId)>,
    /// The ranking that produced the placement.
    pub ranking: AgentRanking,
}

/// Runs AgRank for one session against the given residuals.
pub fn assign_session(
    problem: &UapProblem,
    s: SessionId,
    residuals: &Residuals,
    config: &AgRankConfig,
) -> SessionAssignment {
    let ranking = rank_agents(problem, s, residuals, config);
    let users: Vec<(UserId, AgentId)> = ranking
        .user_candidates
        .iter()
        .map(|(u, cands)| (*u, cands[0]))
        .collect();
    let tasks = placement::rule_of_thumb_session(problem, s, &users);
    SessionAssignment {
        users,
        tasks,
        ranking,
    }
}

/// Builds a complete initial assignment by running AgRank on every
/// session independently against full capacities (the static bootstrap
/// used by the Table II experiments; capacity-aware sequential admission
/// lives in [`crate::admission`]).
pub fn agrank_assignment(problem: &UapProblem, config: &AgRankConfig) -> vc_core::Assignment {
    let residuals = Residuals::full(problem);
    let mut user_agent = vec![AgentId::new(0); problem.instance().num_users()];
    let mut task_agent = vec![AgentId::new(0); problem.tasks().len()];
    for s in problem.instance().session_ids() {
        let sa = assign_session(problem, s, &residuals, config);
        for (u, a) in sa.users {
            user_agent[u.index()] = a;
        }
        for (t, a) in sa.tasks {
            task_agent[t.index()] = a;
        }
    }
    vc_core::Assignment::new(problem, user_agent, task_agent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nearest::nearest_assignment;
    use crate::test_fixtures::fig2_like_problem;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use vc_cost::CostModel;
    use vc_model::{AgentDef, AgentSpec, Instance, InstanceBuilder, ReprLadder};

    /// What [`rank_reference`] computes: the ranking plus the order the
    /// admission search falls back through (`N(s)` by descending score).
    struct Reference {
        candidates: Vec<AgentId>,
        scores: Vec<f64>,
        iterations: usize,
        per_user: usize,
        user_candidates: Vec<AgentId>,
        fallback: Vec<AgentId>,
    }

    /// The ranking written the plain way: every user's `N(u)` from its
    /// own proximity sort, whatever `n_ngbr` is, index loops over the
    /// walk matrix, and the fallback order sorted on its own.
    /// `rank_agents_into` must reproduce it bit for bit.
    fn rank_reference(
        problem: &UapProblem,
        s: SessionId,
        residuals: &Residuals,
        config: &AgRankConfig,
    ) -> Reference {
        let inst = problem.instance();
        let nl = inst.num_agents();
        let n_ngbr = config.n_ngbr.min(nl).max(1);
        let mut member = vec![false; nl];
        let mut user_candidates = Vec::new();
        for &u in inst.session(s).users() {
            let proximity = inst.delays().agents_by_proximity(u);
            for &l in &proximity[..n_ngbr] {
                member[l.index()] = true;
            }
            user_candidates.extend_from_slice(&proximity[..n_ngbr]);
        }
        let candidates: Vec<AgentId> = (0..nl).filter(|&i| member[i]).map(AgentId::from).collect();
        let n = candidates.len();

        let mut pi0 = vec![0.0; n];
        let component = |f: fn(&Residuals, usize) -> f64| {
            candidates.iter().map(move |l| f(residuals, l.index()))
        };
        add_normalized(&mut pi0, component(|r, i| r.upload[i]), true);
        add_normalized(&mut pi0, component(|r, i| r.download[i]), false);
        add_normalized(&mut pi0, component(|r, i| r.transcode[i]), false);
        add_normalized(
            &mut pi0,
            candidates
                .iter()
                .map(|l| 1.0 / inst.agent(*l).speed_factor()),
            false,
        );
        let z: f64 = pi0.iter().sum();
        if z > 0.0 {
            for x in pi0.iter_mut() {
                *x /= z;
            }
        } else {
            pi0.fill(1.0 / n as f64);
        }

        let (scores, iterations) = if n == 1 {
            (vec![1.0], 0)
        } else {
            power_iterate_reference(inst, config, &candidates, &pi0)
        };

        let mut score = vec![0.0; nl];
        for (l, &x) in candidates.iter().zip(&scores) {
            score[l.index()] = x;
        }
        for near in user_candidates.chunks_mut(n_ngbr) {
            near.sort_unstable_by(|a, b| descending_score(&score, *a, *b));
        }
        let mut fallback = candidates.clone();
        fallback.sort_unstable_by(|a, b| descending_score(&score, *a, *b));
        Reference {
            candidates,
            scores,
            iterations,
            per_user: n_ngbr,
            user_candidates,
            fallback,
        }
    }

    /// The index-loop power iteration `rank_reference` runs.
    fn power_iterate_reference(
        inst: &Instance,
        config: &AgRankConfig,
        candidates: &[AgentId],
        pi0: &[f64],
    ) -> (Vec<f64>, usize) {
        let n = candidates.len();
        let mut min_pos = f64::INFINITY;
        for (i, &l) in candidates.iter().enumerate() {
            for &k in &candidates[i + 1..] {
                let d = inst.d_ms(l, k);
                if d > 0.0 {
                    min_pos = min_pos.min(d);
                }
            }
        }
        if !min_pos.is_finite() {
            min_pos = 1.0;
        }
        let mut w = vec![0.0; n * n];
        for i in 0..n {
            let mut row_sum = 0.0;
            for j in 0..n {
                let affinity = if i == j {
                    1.0
                } else {
                    let d = inst.d_ms(candidates[i], candidates[j]);
                    if d > 0.0 {
                        min_pos / d
                    } else {
                        1.0
                    }
                };
                w[i * n + j] = affinity;
                row_sum += affinity;
            }
            for j in 0..n {
                w[i * n + j] /= row_sum;
            }
        }

        let alpha = config.damping;
        let mut pi = pi0.to_vec();
        let mut next = vec![0.0; n];
        let mut iterations = 0;
        for _ in 0..MAX_ITERS {
            iterations += 1;
            next.fill(0.0);
            for i in 0..n {
                for j in 0..n {
                    next[j] += pi[i] * w[i * n + j];
                }
            }
            for j in 0..n {
                next[j] = alpha * next[j] + (1.0 - alpha) * pi0[j];
            }
            let z: f64 = next.iter().sum();
            for x in next.iter_mut() {
                *x /= z;
            }
            let delta: f64 = pi.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pi, &mut next);
            if delta < EPSILON {
                break;
            }
        }
        (pi, iterations)
    }

    /// A delay drawn from a few values, zero included, so that
    /// proximity and affinity ties are common.
    fn delay(rng: &mut StdRng) -> f64 {
        [0.0, 5.0, 5.0, 12.5, 40.0][rng.gen_range(0..5usize)]
    }

    fn speed(rng: &mut StdRng) -> f64 {
        [1.0, 1.0, 1.5, 2.0][rng.gen_range(0..4usize)]
    }

    /// `agents` agents and 1–3 sessions of 1–6 users (720p or 360p up
    /// and down, so some sessions transcode).
    fn random_instance(rng: &mut StdRng, agents: usize) -> Instance {
        let ladder = ReprLadder::standard_four();
        let reprs = [
            ladder.by_name("720p").unwrap().id(),
            ladder.by_name("360p").unwrap().id(),
        ];
        let mut b = InstanceBuilder::new(ladder);
        for i in 0..agents {
            b.add_agent(
                AgentSpec::builder(format!("a{i}"))
                    .speed_factor(speed(rng))
                    .build(),
            );
        }
        let mut users = 0;
        for _ in 0..rng.gen_range(1..=3usize) {
            let s = b.add_session();
            for _ in 0..rng.gen_range(1..=6usize) {
                b.add_user(
                    s,
                    reprs[rng.gen_range(0..2usize)],
                    reprs[rng.gen_range(0..2usize)],
                );
                users += 1;
            }
        }
        let mut inter = vec![0.0; agents * agents];
        for l in 0..agents {
            for k in l + 1..agents {
                let d = delay(rng);
                inter[l * agents + k] = d;
                inter[k * agents + l] = d;
            }
        }
        let near: Vec<f64> = (0..agents * users).map(|_| delay(rng)).collect();
        b.symmetric_delays(|l, k| inter[l * agents + k], |l, u| near[l * users + u]);
        b.build().unwrap()
    }

    /// Residuals with zeros, infinities and ties.
    fn random_residuals(rng: &mut StdRng, agents: usize) -> Residuals {
        let mut draw = || {
            (0..agents)
                .map(|_| match rng.gen_range(0..4usize) {
                    0 => 0.0,
                    1 => f64::INFINITY,
                    2 => 7.5,
                    _ => rng.gen_range(0.0..100.0),
                })
                .collect()
        };
        Residuals {
            upload: draw(),
            download: draw(),
            transcode: draw(),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every session of a random instance ranked under `n_ngbr` ∈
        /// {1, 2, L − 1, L, live} and three dampings, then again after
        /// the instance grows by 1–3 agents online, all through one
        /// reused scratch: candidates, score bits, round counts, per-user
        /// lists and the fallback order equal the reference's.
        #[test]
        fn ranking_matches_the_reference_bit_for_bit(
            agents in 2usize..=13,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut inst = random_instance(&mut rng, agents);
            let mut scratch = RankScratch::default();
            for grown in [false, true] {
                if grown {
                    for i in 0..rng.gen_range(1..=3usize) {
                        let def = AgentDef {
                            spec: AgentSpec::builder(format!("g{i}"))
                                .speed_factor(speed(&mut rng))
                                .build(),
                            inter_agent_ms: (0..inst.num_agents()).map(|_| delay(&mut rng)).collect(),
                            user_delays_ms: (0..inst.num_users()).map(|_| delay(&mut rng)).collect(),
                        };
                        inst.register_agent(&def).unwrap();
                    }
                }
                let nl = inst.num_agents();
                let p = UapProblem::new(inst.clone(), CostModel::paper_default());
                let residuals = random_residuals(&mut rng, nl);
                for n_ngbr in [1, 2, nl - 1, nl, usize::MAX] {
                    for damping in [0.85, 1.0, 0.5] {
                        let config = AgRankConfig { damping, ..AgRankConfig::paper(n_ngbr) };
                        for s in p.instance().session_ids() {
                            rank_agents_into(&p, s, &residuals, &config, &mut scratch);
                            let want = rank_reference(&p, s, &residuals, &config);
                            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                            prop_assert_eq!(&scratch.candidates, &want.candidates);
                            prop_assert_eq!(bits(&scratch.scores), bits(&want.scores));
                            prop_assert_eq!(scratch.iterations, want.iterations);
                            prop_assert_eq!(scratch.per_user, want.per_user);
                            prop_assert_eq!(&scratch.user_candidates, &want.user_candidates);
                            prop_assert_eq!(&scratch.ranked, &want.fallback);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn nngbr_one_reproduces_nearest_assignment() {
        let p = fig2_like_problem();
        let cfg = AgRankConfig::paper(1);
        let ours = agrank_assignment(&p, &cfg);
        let nrst = nearest_assignment(&p);
        assert_eq!(ours.user_agents(), nrst.user_agents());
    }

    #[test]
    fn nngbr_l_collapses_session_to_one_agent() {
        let p = fig2_like_problem();
        let cfg = AgRankConfig::paper(p.instance().num_agents());
        let asg = agrank_assignment(&p, &cfg);
        let first = asg.agent_of_user(UserId::new(0));
        for u in p.instance().user_ids() {
            assert_eq!(asg.agent_of_user(u), first);
        }
    }

    #[test]
    fn scores_form_a_distribution() {
        let p = fig2_like_problem();
        let r = Residuals::full(&p);
        let ranking = rank_agents(&p, SessionId::new(0), &r, &AgRankConfig::paper(3));
        let sum: f64 = ranking.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(ranking.scores.iter().all(|s| *s >= 0.0));
        assert!(ranking.iterations >= 1);
    }

    #[test]
    fn well_connected_agents_rank_higher() {
        // With nngbr = L every agent is a candidate; Tokyo (well connected
        // to OR and SG in the fig2 matrix) should outrank São Paulo
        // (distant from everyone).
        let p = fig2_like_problem();
        let r = Residuals::full(&p);
        let ranking = rank_agents(
            &p,
            SessionId::new(0),
            &r,
            &AgRankConfig::paper(p.instance().num_agents()),
        );
        let to = ranking.score_of(AgentId::new(1)).unwrap();
        let sp = ranking.score_of(AgentId::new(3)).unwrap();
        assert!(to > sp, "tokyo {to} vs sao paulo {sp}");
    }

    #[test]
    fn depleted_agents_rank_lower() {
        let p = fig2_like_problem();
        let mut r = Residuals::full(&p);
        let full = rank_agents(&p, SessionId::new(0), &r, &AgRankConfig::paper(4));
        // Deplete Tokyo entirely.
        r.upload[1] = 0.0;
        r.download[1] = 0.0;
        r.transcode[1] = 0.0;
        let depleted = rank_agents(&p, SessionId::new(0), &r, &AgRankConfig::paper(4));
        assert!(
            depleted.score_of(AgentId::new(1)).unwrap() < full.score_of(AgentId::new(1)).unwrap(),
            "depletion must reduce the rank"
        );
    }

    #[test]
    fn damping_one_ignores_resources() {
        // The paper's literal power iteration: residuals must not matter.
        let p = fig2_like_problem();
        let mut cfg = AgRankConfig::paper(4);
        cfg.damping = 1.0;
        let full = rank_agents(&p, SessionId::new(0), &Residuals::full(&p), &cfg);
        let mut r = Residuals::full(&p);
        r.upload[1] = 0.0;
        r.transcode[1] = 0.0;
        let depleted = rank_agents(&p, SessionId::new(0), &r, &cfg);
        for (a, b) in full.scores.iter().zip(&depleted.scores) {
            assert!((a - b).abs() < 1e-6, "pure power iteration forgot init");
        }
    }

    #[test]
    fn live_config_follows_the_agent_count() {
        let p = fig2_like_problem();
        let nl = p.instance().num_agents();
        let live = AgRankConfig::live();
        assert!(!live.excludes_agents(nl));
        assert!(!live.excludes_agents(nl + 1000));
        assert!(AgRankConfig::paper(2).excludes_agents(nl));
        // The sentinel clamps to "all agents": every agent is a candidate
        // for every user.
        let ranking = rank_agents(&p, SessionId::new(0), &Residuals::full(&p), &live);
        for (_, cands) in &ranking.user_candidates {
            assert_eq!(cands.len(), nl, "live neighborhood must cover all agents");
        }
    }

    #[test]
    fn user_candidates_sorted_by_rank() {
        let p = fig2_like_problem();
        let r = Residuals::full(&p);
        let ranking = rank_agents(&p, SessionId::new(0), &r, &AgRankConfig::paper(3));
        for (_, cands) in &ranking.user_candidates {
            let scores: Vec<f64> = cands
                .iter()
                .map(|l| ranking.score_of(*l).unwrap_or(0.0))
                .collect();
            for w in scores.windows(2) {
                assert!(w[0] >= w[1] - 1e-12, "candidates not rank-sorted");
            }
        }
    }
}
