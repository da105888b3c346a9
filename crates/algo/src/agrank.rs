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
//!
//! ## Reading the order
//!
//! The ranking is the order of the power iterate `π_T`, the first round
//! whose step `‖π_T − π_{T−1}‖₁` falls below ε = 10⁻¹⁰; [`rank_agents`]
//! reports its scores and round count. The admission path mostly reads
//! that order without running the rounds. The damped map
//! `π ↦ αŴᵀπ + (1−α)π₀` is an α-contraction in L1 (`Ŵ` is
//! row-stochastic), so the iterate it stops on lies within `α/(1−α)·ε`
//! of its fixed point `π* = (1−α)(I − αŴᵀ)⁻¹π₀` — 5.7·10⁻¹⁰ at α = 0.85
//! — plus a floating-point slack of `64·(n+1)` ulps over `1−α`. The
//! ranking solves for `π̃ ≈ π*` with LU factors of `I − αŴᵀ`, and when
//! every adjacent gap of the sorted `π̃` exceeds twice that bound, `π_T`
//! has the same strict order, so `N(s)`, every `N(u)` and the fallback
//! order are read off `π̃`. Otherwise the rounds run as they always did.
//!
//! * The factors are kept in the scratch across calls, keyed on the bits
//!   of the delays `Ŵ` is built from and on α, and checked against both
//!   on every call. Under the live neighbourhood `N(s)` is every agent,
//!   so they are refactored (`O(L³)`) only when an agent registers, and
//!   a ranking costs one pair of triangular solves (`O(L²)`) instead of
//!   ≈28 rounds. A fixed neighbourhood refactors whenever `N(s)`'s delays
//!   change, at `n³/3` multiply-adds against the rounds' ≈`28·n²`.
//! * It applies only where the iteration provably stops on its ε test
//!   before its 500-round cap, `2α⁴⁹⁹ < ε/2` (α ≲ 0.95). The paper's
//!   literal walk, damping 1.0, always iterates.

use crate::placement;
use vc_core::{TaskId, UapProblem};
use vc_model::{AgentId, Instance, SessionId, UserId};

/// Convergence threshold ε on `‖π[t+1] − π[t]‖₁`.
const EPSILON: f64 = 1e-10;

/// Power-iteration cap (the scheme converges in `O(−log ε)` rounds).
const MAX_ITERS: usize = 500;

/// Whether the iteration at damping `alpha` provably stops on its ε test
/// before [`MAX_ITERS`]: round `t`'s step is at most `2α^{t−1}`, so it
/// does when `2α^{MAX_ITERS−1}` clears ε with room for rounding.
fn certifiable(alpha: f64) -> bool {
    (0.0..1.0).contains(&alpha) && 2.0 * alpha.powi(MAX_ITERS as i32 - 1) < EPSILON / 2.0
}

/// A bound on `‖π̃ − π_T‖₁` over `n` candidates at a
/// [certifiable](certifiable) damping: `α/(1−α)·ε` for the iterate's
/// distance from the fixed point, plus `64·(n+1)` ulps over `1−α` for
/// the rounding of the rounds and of the solve (the solved system's
/// condition number is at most `(1+α)/(1−α)`).
fn error_bound(alpha: f64, n: usize) -> f64 {
    (alpha * EPSILON + 64.0 * (n + 1) as f64 * f64::EPSILON) / (1.0 - alpha)
}

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
    /// The scores the order was read from, parallel to `candidates`:
    /// the power iterate `π_T`, or `π̃` when the order was certified.
    /// Ping-pongs with `next` inside the power iteration.
    scores: Vec<f64>,
    /// `scores` indexed by agent id (0 for non-candidates): what the
    /// sort comparators read.
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
    /// The walk over the last `N(s)` ranked and its fixed-point
    /// operator, kept across calls.
    walk: Walk,
    /// Rankings of two or more candidates whose order the power
    /// iteration decided.
    iterated: usize,
    /// Rankings whose order was read off the fixed point.
    #[cfg(test)]
    certified: usize,
}

/// The walk matrix over the last `N(s)` ranked and the LU factors of
/// its fixed-point operator: a function of the candidates' delays and
/// the damping, and checked against both before every use (see "Reading
/// the order").
#[derive(Debug, Default)]
struct Walk {
    /// The delays among `N(s)` that `matrix` was built from, row-major
    /// `n×n`: the cache key.
    delays: Vec<f64>,
    /// The row-normalized `n×n` walk matrix `Ŵ`, row-major.
    matrix: Vec<f64>,
    /// `I − αŴᵀ` factored in place, row-major: the unit lower factor
    /// below the diagonal, the upper one on and above it.
    lu: Vec<f64>,
    /// The bits of the damping `lu` was factored at; `None` once
    /// `matrix` has been rebuilt since.
    alpha: Option<u64>,
}

impl Walk {
    /// Makes `matrix` the walk over `candidates`: rebuilt, and the
    /// factors dropped, unless the delays among them equal in every bit
    /// the ones it was built from.
    fn refresh(&mut self, inst: &Instance, candidates: &[AgentId]) {
        let n = candidates.len();
        let kept = self.delays.len() == n * n
            && self
                .delays
                .chunks_exact(n)
                .zip(candidates)
                .all(|(row, &l)| {
                    row.iter()
                        .zip(candidates)
                        .all(|(d, &k)| d.to_bits() == inst.d_ms(l, k).to_bits())
                });
        if kept {
            return;
        }
        self.alpha = None;
        self.delays.clear();
        for &l in candidates {
            self.delays
                .extend(candidates.iter().map(|&k| inst.d_ms(l, k)));
        }
        // D̂_lk = min positive delay / D_lk; diagonal handled as
        // self-affinity 1.
        let mut min_pos = f64::INFINITY;
        for (i, row) in self.delays.chunks_exact(n).enumerate() {
            for &d in &row[i + 1..] {
                if d > 0.0 {
                    min_pos = min_pos.min(d);
                }
            }
        }
        if !min_pos.is_finite() {
            min_pos = 1.0; // all candidate pairs have zero delay: uniform affinity
        }
        self.matrix.clear();
        self.matrix.resize(n * n, 0.0);
        let rows = self
            .matrix
            .chunks_exact_mut(n)
            .zip(self.delays.chunks_exact(n));
        for (i, (row, delays)) in rows.enumerate() {
            let mut row_sum = 0.0;
            for (j, (x, &d)) in row.iter_mut().zip(delays).enumerate() {
                *x = if i == j {
                    1.0
                } else if d > 0.0 {
                    min_pos / d
                } else {
                    1.0
                };
                row_sum += *x;
            }
            for x in row.iter_mut() {
                *x /= row_sum;
            }
        }
    }

    /// Factors `I − αŴᵀ` into `lu`, unless it already holds that
    /// factorization. No pivoting: each column of `αŴᵀ` sums to α < 1,
    /// so the matrix is strictly diagonally dominant by columns, every
    /// pivot is positive and elimination without pivoting is stable.
    fn factor(&mut self, n: usize, alpha: f64) {
        if self.alpha == Some(alpha.to_bits()) {
            return;
        }
        let (w, lu) = (&self.matrix, &mut self.lu);
        lu.clear();
        lu.extend((0..n * n).map(|ij| {
            let (i, j) = (ij / n, ij % n);
            f64::from(u8::from(i == j)) - alpha * w[j * n + i]
        }));
        for k in 0..n {
            let (done, below) = lu.split_at_mut((k + 1) * n);
            let pivot = &done[k * n..];
            for row in below.chunks_exact_mut(n) {
                let f = row[k] / pivot[k];
                row[k] = f;
                for (x, &u) in row[k + 1..].iter_mut().zip(&pivot[k + 1..]) {
                    *x -= f * u;
                }
            }
        }
        self.alpha = Some(alpha.to_bits());
    }

    /// `π̃ = (1−α)(I − αŴᵀ)⁻¹π₀` into `x`, by the factors of
    /// [`factor`](Self::factor).
    fn solve(&self, alpha: f64, pi0: &[f64], x: &mut Vec<f64>) {
        let n = pi0.len();
        let dot = |a: &[f64], b: &[f64]| -> f64 { a.iter().zip(b).map(|(a, b)| a * b).sum() };
        x.clear();
        x.extend(pi0.iter().map(|&p| (1.0 - alpha) * p));
        for i in 1..n {
            let s = dot(&self.lu[i * n..i * n + i], &x[..i]);
            x[i] -= s;
        }
        for i in (0..n).rev() {
            let row = &self.lu[i * n..(i + 1) * n];
            let s = dot(&row[i + 1..], &x[i + 1..]);
            x[i] = (x[i] - s) / row[i];
        }
    }
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

    /// Rankings of two or more candidates this scratch ran the power
    /// iteration for, over its lifetime.
    pub(crate) fn rankings_iterated(&self) -> usize {
        self.iterated
    }

    /// Rankings this scratch read off the fixed point, over its
    /// lifetime.
    #[cfg(test)]
    pub(crate) fn rankings_certified(&self) -> usize {
        self.certified
    }

    /// Ranks `N(s)` into `ranked` by `scores`: higher first, lower id on
    /// equal scores — a total order, so the unstable sort is
    /// deterministic.
    fn sort_ranked(&mut self, nl: usize) {
        let Self {
            candidates,
            scores,
            score_by_agent,
            ranked,
            ..
        } = self;
        score_by_agent.clear();
        score_by_agent.resize(nl, 0.0);
        for (l, &score) in candidates.iter().zip(scores.iter()) {
            score_by_agent[l.index()] = score;
        }
        ranked.clear();
        ranked.extend_from_slice(candidates);
        ranked.sort_unstable_by(|a, b| descending_score(score_by_agent, *a, *b));
    }

    /// Reads the order off the fixed point (see "Reading the order"):
    /// `π̃` into `scores`, `N(s)` ranked by it, and whether every
    /// adjacent gap clears twice the iterate's error bound — in which
    /// case the power iterate has this strict order. When it does not,
    /// `scores` and `ranked` are the iteration's to overwrite.
    fn read_fixed_point(&mut self, alpha: f64, nl: usize) -> bool {
        if !certifiable(alpha) {
            return false;
        }
        let n = self.candidates.len();
        self.walk.factor(n, alpha);
        self.walk.solve(alpha, &self.pi0, &mut self.scores);
        self.sort_ranked(nl);
        let margin = 2.0 * error_bound(alpha, n);
        let score = &self.score_by_agent;
        let separated = self
            .ranked
            .windows(2)
            .all(|w| score[w[0].index()] - score[w[1].index()] > margin);
        #[cfg(test)]
        {
            self.certified += usize::from(separated);
        }
        separated
    }
}

/// Ranks the potential agents of session `s` (Lines 1–14 of Alg. 2).
/// Owns its result and always runs the power iteration: `scores` and
/// `iterations` are the iterate's. The admission path ranks into a
/// reused scratch instead (`rank_agents_into`), once per
/// `place_session`, with the same order.
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
    rank(problem, s, residuals, config, &mut scratch, false);
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

/// [`rank_agents`]' order into `scratch` — the admission path's entry
/// point: one call per `place_session`, no allocation once the buffers
/// have grown to the agent count. The order is read off the fixed point
/// where its error bound separates every pair of scores, and off the
/// power iteration elsewhere (see "Reading the order"), so the order,
/// `N(u)` lists and fallback order equal [`rank_agents`]' while
/// `scores` may hold `π̃`.
pub(crate) fn rank_agents_into(
    problem: &UapProblem,
    s: SessionId,
    residuals: &Residuals,
    config: &AgRankConfig,
    scratch: &mut RankScratch,
) {
    rank(problem, s, residuals, config, scratch, true);
}

/// The ranking behind both entry points; `certify` lets the order be
/// read off the fixed point.
fn rank(
    problem: &UapProblem,
    s: SessionId,
    residuals: &Residuals,
    config: &AgRankConfig,
    scratch: &mut RankScratch,
    certify: bool,
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

    // Order N(s) by descending rank (ties: lower id first).
    if n == 1 {
        scratch.scores.clear();
        scratch.scores.push(1.0);
        scratch.iterations = 0;
        scratch.sort_ranked(nl);
    } else {
        scratch.walk.refresh(inst, &scratch.candidates);
        if !(certify && scratch.read_fixed_point(config.damping, nl)) {
            power_iterate(config.damping, scratch);
            scratch.iterated += 1;
            scratch.sort_ranked(nl);
        }
    }

    // Each user's candidates in the same order.
    let RankScratch {
        score_by_agent,
        ranked,
        user_candidates,
        ..
    } = scratch;
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

/// The damped random walk over the walk matrix `scratch.walk` (built
/// for `scratch.candidates`, at least two), from `scratch.pi0` into
/// `scratch.scores`. A round writes `next` from `scores` and swaps them.
///
/// A round adds `π_i · D̂_i` into `next` one row at a time, `i`
/// ascending: each element takes one multiply and one add per row in
/// that fixed order, so the iterate's bits do not depend on how the
/// compiler vectorizes the row.
fn power_iterate(alpha: f64, scratch: &mut RankScratch) {
    let RankScratch {
        candidates,
        scores: pi,
        pi0,
        next,
        walk,
        iterations,
        ..
    } = scratch;
    let n = candidates.len();
    let w = &walk.matrix;
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

    /// A delay drawn from a continuum: no two agents sit alike.
    fn spread_delay(rng: &mut StdRng) -> f64 {
        rng.gen_range(1.0..80.0)
    }

    fn speed(rng: &mut StdRng) -> f64 {
        [1.0, 1.0, 1.5, 2.0][rng.gen_range(0..4usize)]
    }

    /// `agents` agents and 1–3 sessions of 1–6 users (720p or 360p up
    /// and down, so some sessions transcode).
    fn random_instance(rng: &mut StdRng, agents: usize) -> Instance {
        build_instance(rng, agents, delay, false)
    }

    /// [`random_instance`] with delays from `draw`; with `twins`, agent
    /// 1 copies agent 0's speed and every delay of its row, so the two
    /// agents' fixed-point scores tie exactly under equal residuals.
    fn build_instance(
        rng: &mut StdRng,
        agents: usize,
        draw: fn(&mut StdRng) -> f64,
        twins: bool,
    ) -> Instance {
        let ladder = ReprLadder::standard_four();
        let reprs = [
            ladder.by_name("720p").unwrap().id(),
            ladder.by_name("360p").unwrap().id(),
        ];
        let mut b = InstanceBuilder::new(ladder);
        let mut speeds: Vec<f64> = (0..agents).map(|_| speed(rng)).collect();
        if twins {
            speeds[1] = speeds[0];
        }
        for (i, &speed) in speeds.iter().enumerate() {
            b.add_agent(
                AgentSpec::builder(format!("a{i}"))
                    .speed_factor(speed)
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
                let d = draw(rng);
                inter[l * agents + k] = d;
                inter[k * agents + l] = d;
            }
        }
        let mut near: Vec<f64> = (0..agents * users).map(|_| draw(rng)).collect();
        if twins {
            for k in 2..agents {
                inter[agents + k] = inter[k];
                inter[k * agents + 1] = inter[k * agents];
            }
            near.copy_within(0..users, users);
        }
        b.symmetric_delays(|l, k| inter[l * agents + k], |l, u| near[l * users + u]);
        b.build().unwrap()
    }

    /// Registers 1–3 agents at delays from `draw`.
    fn grow(rng: &mut StdRng, inst: &mut Instance, draw: fn(&mut StdRng) -> f64) {
        for i in 0..rng.gen_range(1..=3usize) {
            let def = AgentDef {
                spec: AgentSpec::builder(format!("g{i}"))
                    .speed_factor(speed(rng))
                    .build(),
                inter_agent_ms: (0..inst.num_agents()).map(|_| draw(rng)).collect(),
                user_delays_ms: (0..inst.num_users()).map(|_| draw(rng)).collect(),
            };
            inst.register_agent(&def).unwrap();
        }
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

    /// Residuals drawn from a continuum.
    fn spread_residuals(rng: &mut StdRng, agents: usize) -> Residuals {
        let mut draw = || (0..agents).map(|_| rng.gen_range(0.0..100.0)).collect();
        Residuals {
            upload: draw(),
            download: draw(),
            transcode: draw(),
        }
    }

    /// `π̃`, the solved fixed point of session `s`'s walk, over its
    /// candidates.
    fn fixed_point(
        p: &UapProblem,
        s: SessionId,
        residuals: &Residuals,
        config: &AgRankConfig,
    ) -> Vec<f64> {
        let mut scratch = RankScratch::default();
        rank_agents_into(p, s, residuals, config, &mut scratch);
        let n = scratch.candidates.len();
        scratch.walk.factor(n, config.damping);
        let mut x = Vec::new();
        scratch.walk.solve(config.damping, &scratch.pi0, &mut x);
        x
    }

    /// Ranks `s` into `scratch` and holds the order to the reference's
    /// power iterate: candidates, per-user lists and the fallback order
    /// equal it, and a certified call's `π̃` lies within the error bound
    /// of the iterate. Returns `Some(certified)` where the fixed point
    /// was tried, `None` where the iteration had to run.
    fn order_matches_the_iterate(
        p: &UapProblem,
        s: SessionId,
        residuals: &Residuals,
        config: &AgRankConfig,
        scratch: &mut RankScratch,
    ) -> Option<bool> {
        let before = scratch.rankings_certified();
        rank_agents_into(p, s, residuals, config, scratch);
        let want = rank_reference(p, s, residuals, config);
        prop_assert_eq!(&scratch.candidates, &want.candidates);
        prop_assert_eq!(scratch.per_user, want.per_user);
        prop_assert_eq!(&scratch.user_candidates, &want.user_candidates);
        prop_assert_eq!(&scratch.ranked, &want.fallback);
        let n = want.candidates.len();
        if n < 2 || !certifiable(config.damping) {
            prop_assert_eq!(scratch.rankings_certified(), before);
            return None;
        }
        let certified = scratch.rankings_certified() > before;
        if certified {
            let l1: f64 = scratch
                .scores
                .iter()
                .zip(&want.scores)
                .map(|(a, b)| (a - b).abs())
                .sum();
            let bound = error_bound(config.damping, n);
            prop_assert!(l1 < bound, "|π̃ − π_T|₁ = {l1:e} against {bound:e}");
        }
        Some(certified)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every session of a random instance ranked under `n_ngbr` ∈
        /// {1, 2, L − 1, L, live} and three dampings, then again after
        /// the instance grows by 1–3 agents online. Through one reused
        /// scratch, certified or not: candidates, per-user lists and the
        /// fallback order equal the reference's. Through `rank_agents`:
        /// score bits and round counts too.
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
                    grow(&mut rng, &mut inst, delay);
                }
                let nl = inst.num_agents();
                let p = UapProblem::new(inst.clone(), CostModel::paper_default());
                let residuals = random_residuals(&mut rng, nl);
                for n_ngbr in [1, 2, nl - 1, nl, usize::MAX] {
                    for damping in [0.85, 1.0, 0.5] {
                        let config = AgRankConfig { damping, ..AgRankConfig::paper(n_ngbr) };
                        for s in p.instance().session_ids() {
                            order_matches_the_iterate(&p, s, &residuals, &config, &mut scratch);
                            let want = rank_reference(&p, s, &residuals, &config);
                            let got = rank_agents(&p, s, &residuals, &config);
                            let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                            prop_assert_eq!(&got.candidates, &want.candidates);
                            prop_assert_eq!(bits(&got.scores), bits(&want.scores));
                            prop_assert_eq!(got.iterations, want.iterations);
                            let flat: Vec<AgentId> = got
                                .user_candidates
                                .iter()
                                .flat_map(|(_, near)| near.iter().copied())
                                .collect();
                            prop_assert_eq!(&flat, &want.user_candidates);
                        }
                    }
                }
            }
        }

        /// The order read off the fixed point is the power iterate's, on
        /// every call through one reused scratch: two instances with the
        /// same agent count ranked in turn, the first again after it
        /// grows, under a fixed and the live neighbourhood and three
        /// dampings; then twin agents whose scores tie exactly, and a
        /// pair whose fixed-point gap is bisected below 10⁻¹². Both
        /// branches run: some calls are certified, and the ties fall
        /// back to the iteration.
        #[test]
        fn certified_order_is_the_power_iterates(
            agents in 3usize..=12,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut scratch = RankScratch::default();
            // [fell back, certified]
            let mut outcomes = [0usize; 2];
            let mut first = build_instance(&mut rng, agents, spread_delay, false);
            let second = build_instance(&mut rng, agents, spread_delay, false);
            for grown in [false, true] {
                if grown {
                    grow(&mut rng, &mut first, spread_delay);
                }
                let mut problems = vec![UapProblem::new(first.clone(), CostModel::paper_default())];
                if !grown {
                    problems.push(UapProblem::new(second.clone(), CostModel::paper_default()));
                }
                let residuals = spread_residuals(&mut rng, first.num_agents());
                for n_ngbr in [2, usize::MAX] {
                    for p in &problems {
                        for damping in [0.85, 1.0, 0.5] {
                            let config = AgRankConfig { damping, ..AgRankConfig::paper(n_ngbr) };
                            for s in p.instance().session_ids() {
                                let outcome = order_matches_the_iterate(p, s, &residuals, &config, &mut scratch);
                                if let Some(certified) = outcome {
                                    outcomes[usize::from(certified)] += 1;
                                }
                            }
                        }
                    }
                }
            }

            // Twins: an exact tie, which no bound separates.
            let twins = UapProblem::new(
                build_instance(&mut rng, agents, spread_delay, true),
                CostModel::paper_default(),
            );
            let mut residuals = spread_residuals(&mut rng, agents);
            residuals.upload[1] = residuals.upload[0];
            residuals.download[1] = residuals.download[0];
            residuals.transcode[1] = residuals.transcode[0];
            for damping in [0.85, 0.5] {
                let config = AgRankConfig { damping, ..AgRankConfig::live() };
                for s in twins.instance().session_ids() {
                    let outcome = order_matches_the_iterate(&twins, s, &residuals, &config, &mut scratch);
                    prop_assert_eq!(outcome, Some(false), "twins tie");
                    outcomes[0] += 1;
                }
            }

            // A near-tie that is no tie: one agent's upload residual
            // bisected until its fixed-point gap to a partner it
            // overtakes falls below 10⁻¹².
            let p = UapProblem::new(first, CostModel::paper_default());
            let (s, live) = (SessionId::new(0), AgRankConfig::live());
            let mut residuals = spread_residuals(&mut rng, p.instance().num_agents());
            let at = |residuals: &mut Residuals, a: usize, r: f64| {
                residuals.upload[a] = r;
                fixed_point(&p, s, residuals, &live)
            };
            let pair = (0..residuals.upload.len()).find_map(|a| {
                let (low, high) = (at(&mut residuals.clone(), a, 0.0), at(&mut residuals.clone(), a, 1e4));
                (0..low.len()).find(|&b| low[a] < low[b] && high[a] > high[b]).map(|b| (a, b))
            });
            if let Some((a, b)) = pair {
                let (mut lo, mut hi) = (0.0, 1e4);
                let mut gap = f64::INFINITY;
                for _ in 0..200 {
                    let mid = 0.5 * (lo + hi);
                    let x = at(&mut residuals, a, mid);
                    gap = x[a] - x[b];
                    if gap.abs() < 1e-12 {
                        break;
                    }
                    if gap < 0.0 { lo = mid } else { hi = mid }
                }
                prop_assert!(gap.abs() < 1e-12, "bisection stalled at a gap of {gap:e}");
                let outcome = order_matches_the_iterate(&p, s, &residuals, &live, &mut scratch);
                prop_assert_eq!(outcome, Some(false), "a gap below 1e-12 is no certificate");
            }
            prop_assert!(outcomes[1] > 0, "no ranking was certified");
            prop_assert!(outcomes[0] > 0, "no ranking fell back");
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
