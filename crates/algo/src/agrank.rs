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
//! ## Interpretation notes (see DESIGN.md)
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
use vc_core::{SystemState, TaskId, UapProblem};
use vc_model::{AgentId, SessionId, UserId};

/// Tuning knobs of AgRank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgRankConfig {
    /// `n_ngbr ∈ [1, L]`: nearest agents per user considered as candidates.
    /// 1 reproduces Nrst; `L` subscribes the session to one agent.
    pub n_ngbr: usize,
    /// PageRank damping `α ∈ [0, 1]`; `1.0` is the paper's literal
    /// resource-oblivious power iteration.
    pub damping: f64,
    /// Convergence threshold ε on `‖π[t+1] − π[t]‖₁`.
    pub epsilon: f64,
    /// Iteration cap (the scheme converges in `O(−log ε)` iterations).
    pub max_iters: usize,
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
            epsilon: 1e-10,
            max_iters: 500,
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
/// quadruple.
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
        let inst = problem.instance();
        Self {
            upload: inst
                .agents()
                .iter()
                .map(|a| a.capacity().upload_mbps)
                .collect(),
            download: inst
                .agents()
                .iter()
                .map(|a| a.capacity().download_mbps)
                .collect(),
            transcode: inst
                .agents()
                .iter()
                .map(|a| f64::from(a.capacity().transcode_slots))
                .collect(),
        }
    }

    /// Capacities minus the loads of a live system state (clamped at 0).
    pub fn from_state(state: &SystemState) -> Self {
        Self::from_totals(state.problem(), state.totals())
    }

    /// Capacities minus explicit per-agent load totals (clamped at 0) —
    /// the **shared** residual derivation of the admission engine. The
    /// offline [`from_state`](Self::from_state) and the fleet's
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
            self.upload
                .push((cap.upload_mbps - totals.upload[i]).max(0.0));
            self.download
                .push((cap.download_mbps - totals.download[i]).max(0.0));
            self.transcode
                .push((f64::from(cap.transcode_slots) - f64::from(totals.transcode[i])).max(0.0));
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
/// (abundant resource) and an all-zero component stays zero. The first
/// component is assigned rather than added, so the four-term sum
/// associates as `((û + d̂) + t̂) + σ̂`.
fn add_normalized(acc: &mut [f64], values: impl Iterator<Item = f64> + Clone, first: bool) {
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
    /// `N(u)` of every session user back to back, `per_user` each, best
    /// rank first.
    user_candidates: Vec<AgentId>,
    per_user: usize,
    iterations: usize,
    /// Candidate membership by agent id while `N(s)` is collected.
    member: Vec<bool>,
    proximity: Vec<AgentId>,
    pi0: Vec<f64>,
    next: Vec<f64>,
    /// The row-normalized `n×n` walk matrix `D̂`.
    walk: Vec<f64>,
}

impl RankScratch {
    /// `N(s)`: the ranked session's potential agents, ascending by id.
    pub(crate) fn candidates(&self) -> &[AgentId] {
        &self.candidates
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

    /// The ranking's order over agents: higher score first, lower id on
    /// equal scores (non-candidates score 0).
    pub(crate) fn by_descending_score(&self, a: AgentId, b: AgentId) -> std::cmp::Ordering {
        descending_score(&self.score_by_agent, a, b)
    }
}

/// Ranks the potential agents of session `s` (Lines 1–14 of Alg. 2).
/// Owns its result; the admission path runs the same code into a reused
/// scratch, once per `place_session`.
///
/// Cost with `n = |N(s)|` candidates out of `L` agents and `m` users:
/// `O(m·L log L)` for the proximity lists, `O(n²)` for the walk matrix,
/// `O(n²)` per power-iteration round (`O(−log ε)` rounds), and
/// `O(m·n log n)` to order the per-user lists. Every ordering here is a
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

    // N(u): top n_ngbr nearest agents per user; N(s): their union.
    scratch.per_user = n_ngbr;
    scratch.user_candidates.clear();
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
    scratch.candidates.clear();
    scratch
        .candidates
        .extend((0..nl).filter(|&i| scratch.member[i]).map(AgentId::from));
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

    // Order each user's candidates by descending rank (ties: lower id
    // first) — a total order, so the unstable sort is deterministic.
    scratch.score_by_agent.clear();
    scratch.score_by_agent.resize(nl, 0.0);
    for (l, &score) in scratch.candidates.iter().zip(&scratch.scores) {
        scratch.score_by_agent[l.index()] = score;
    }
    let score = &scratch.score_by_agent;
    for near in scratch.user_candidates.chunks_mut(n_ngbr) {
        near.sort_unstable_by(|a, b| descending_score(score, *a, *b));
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
/// `scratch.pi0` over `scratch.candidates` into `scratch.scores`. The
/// walk matrix and the two iterate vectors live in the scratch; a round
/// writes `next` from `scores` and swaps them.
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
    pi.clear();
    pi.extend_from_slice(pi0);
    next.clear();
    next.resize(n, 0.0);
    *iterations = 0;
    for _ in 0..config.max_iters {
        *iterations += 1;
        next.fill(0.0);
        for i in 0..n {
            for j in 0..n {
                next[j] += pi[i] * w[i * n + j];
            }
        }
        for j in 0..n {
            next[j] = alpha * next[j] + (1.0 - alpha) * pi0[j];
        }
        // Renormalize (guards drift; walk is stochastic so sum is ~1).
        let z: f64 = next.iter().sum();
        for x in next.iter_mut() {
            *x /= z;
        }
        let delta: f64 = pi.iter().zip(next.iter()).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(pi, next);
        if delta < config.epsilon {
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
