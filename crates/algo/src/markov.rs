//! Alg. 1: the Markov approximation-based parallel assignment algorithm.
//!
//! Each session runs an independent WAIT/HOP loop at its initiator's
//! agent:
//!
//! * **WAIT** — draw an exponentially distributed countdown with mean
//!   `1/τ` (10 s in the prototype); FREEZE/UNFREEZE messages pause the
//!   countdown while another session migrates, serializing hops;
//! * **HOP** — fetch residual capacities, enumerate the feasible
//!   assignments differing in exactly one decision, and migrate to `f'`
//!   with probability proportional to `exp(½β(Φ_{s,f} − Φ_{s,f'}))`
//!   (the current assignment keeps weight `exp(0) = 1`).
//!
//! Only the session's *local* objective enters the transition weight, so
//! the algorithm parallelizes across sessions (the paper's key design
//! point). With noisy objective measurements the weights use perturbed
//! values `Φ + ε`, ε drawn from the Theorem-1 quantized noise model.
//!
//! ## The lazily exact Gibbs step: sweep, then draw
//!
//! Exponents are clamped to `±MAX_EXPONENT` (600), and at the paper's
//! β = 400 almost every neighbour of a settled conference sits on the
//! lower clamp: its weight is the constant `e⁻⁶⁰⁰` whatever its `Φ`
//! exactly is. [`Alg1Engine::gibbs_step`] — the one step behind both the
//! closed-world [`hop_scratch`](Alg1Engine::hop_scratch) and the
//! orchestrator's fleet hop — is two halves joined by a [`HopMemo`].
//!
//! The **sweep** ([`Alg1Engine::sweep`]) reads only what belongs to the
//! session: it takes each candidate toward every agent of the problem
//! from the [neighbourhood kernel](vc_core::neighborhood) *between* the
//! two halves of its fold, when only its delays are known, and
//!
//! * drops it if it is over the delay bound, as the feasibility check
//!   would after the fold;
//! * keeps it as **bounded** — clamped exponent, membership in the
//!   feasible set unresolved, fold skipped — if
//!   `½β(Φ_now − Φ_floor) ≤ −MAX_EXPONENT` for a floor `Φ_floor ≤ Φ`:
//!   first the free delay floor `α1·F`, then the traffic floor
//!   `α1·F + α2·G_floor` ([`Probe::traffic_floor`](vc_core::neighborhood::Probe::traffic_floor)),
//!   which re-emits the candidate's streams into per-agent ingress and
//!   skips the rest of the fold;
//! * otherwise folds the rest. A candidate whose *exact* exponent is
//!   above the clamp is **stored**: its `Φ` and the sparse per-agent
//!   [demand](vc_core::SessionLoad::demand) of its load. One whose exact
//!   exponent is on the clamp after all is kept as bounded too — except
//!   the first such that is allowed and fits, which is stored as the
//!   **witness**. Most clamped candidates never reach the fold, so a
//!   sweep usually leaves no witness, and the fold that finds a fitting
//!   one moves to the first draw that needs it (rule (d)).
//!
//! The **draw** ([`Alg1Engine::draw`]) reads what other sessions move
//! and which agents are up: it asks `allowed` of every stored
//! candidate's target and `fits` of its demand against the *current*
//! reserved capacity, applies rule (d), observes, and samples over
//! {stay} ∪ the stored candidates that are allowed and fit ∪ the
//! bounded ones — resolving a bounded one (refuse it if its target is
//! not allowed; else compile if need be, fold, store it in place of its
//! placeholder) only where (c) or (d) asks.
//!
//! Cost per HOP: a sweep is one conference compilation (the tables
//! every candidate then reads: each source's destinations and
//! representation groups, each task's reference `σ`, each agent's
//! prices and speed), one delay derivation per candidate, one stream
//! re-emission per candidate the delay floor leaves undecided and one
//! full fold per candidate the traffic floor leaves undecided too —
//! neither regroups a stream nor resolves an id beyond the delay
//! matrices' lookups (`vc_core::neighborhood`); a draw is one
//! availability read and one capacity check per stored candidate, one
//! fold per bounded candidate rule (d) or (c) must resolve, and one
//! `rng.gen::<f64>()`.
//! The result is the eager one's bit for bit, by construction rather
//! than by tolerance:
//!
//! * **(a) a bounded weight is the clamped weight.** `Φ = α1·F + α2·G +
//!   α3·H` with every weight, price and cost shape `≥ 0`, so
//!   `Φ ≥ α1·F` holds in floating point (IEEE addition is monotone).
//!   So does `Φ ≥ α1·F + α2·G_floor`, the traffic floor:
//!   - `G_floor` sums, per agent, the same non-negative ingress addends
//!     as the fold, in emission order rather than flow-cell order, and
//!     shades the sum by `1 − 10⁻⁹`. The two orders differ by
//!     ~10⁻¹⁴ relative, far less than the shade, so each shaded
//!     ingress is below the fold's;
//!   - every bandwidth shape `g` is monotone as the code writes it
//!     (linear, quadratic with `a, b ≥ 0`, piecewise-linear with
//!     non-negative slopes, continuous at its knots), and so is
//!     `price·g` with `price ≥ 0`;
//!   - the ascending sum over agents is monotone in each addend (the
//!     fold's agents without floor ingress add `≥ 0`), and so is
//!     `combine`: `combine(F, G_floor, 0) ≤ combine(F, G, H)`.
//!
//!   Subtraction from `Φ_now` and scaling by `½β ≥ 0` are monotone
//!   too, so the exact exponent is `≤` the bound's `≤ −MAX_EXPONENT`
//!   and clamps to exactly `−MAX_EXPONENT`. A candidate bounded after
//!   its fold was tested on its exact exponent, by the sampler's own
//!   expression.
//! * **(b) `total` needs no fold.** Stay (exponent 0) is summed first,
//!   so every partial sum is `≥ e^(−max_e)`, while a bounded weight is
//!   `e^(−600−max_e)`, 865 binades below: adding it returns the partial
//!   sum unchanged, member or not. A *stored* candidate on the clamp —
//!   the witness, or one resolved earlier — goes through the sampler
//!   like any folded one, where its weight computes to exactly that
//!   `e^(−600−max_e)`: the eager sampler's treatment, unchanged.
//! * **(c) the walk checks instead of assuming.** In the subtractive
//!   walk a bounded weight `w` can matter only if `x < w` (it is drawn)
//!   or `x − w ≠ x` (it moves the residue). Both are tested at run
//!   time, on the walk's own `x`; only when one holds is the
//!   candidate's membership resolved — by folding it then.
//! * **(d) "nothing feasible" is decided as before.** If no stored
//!   candidate fits, bounded ones are resolved in order until one fits;
//!   `NoFeasibleMove` (no draw consumed) vs `Stayed` (one
//!   `rng.gen::<f64>()`) is therefore the eager outcome. This is the
//!   common case of a settled conference, not a corner: every move
//!   that fits is on the clamp. The witness is why it stays cheap — a
//!   capacity check of one stored demand instead of a fold.
//! * **(e) noise disables the bound.** With `noise: Some(_)` every
//!   candidate's observed `Φ` is random and each feasible one consumes
//!   a draw, so no floor is computed and every candidate is folded and
//!   stored, in enumeration order, which is then the order of the noise
//!   draws.
//! * **(f) a memoized sweep is the sweep.** Everything a sweep reads —
//!   the session's placement and committed load (so `Φ_now` and the
//!   `old` side of every capacity check), the problem's agents (so the
//!   enumeration and its order), β, `d_max` and the problem's delays,
//!   prices and bitrates — is either constant for the engine and the
//!   session or changes only through a write to that placement or
//!   load: the agent pool only grows, and growth extends every load's
//!   agent axis, which is a write. So while neither is written, a
//!   second sweep would rebuild the same memo, and a caller may keep it
//!   and go straight to the draw ([`Alg1Engine::keeps_memos`]: without
//!   noise only — under (e) nothing about a candidate's weight is
//!   constant). The invalidation rule is exactly that: **drop the memo
//!   when the session's placement or load is written.** Capacities and
//!   availability are no part of it: residual capacity is what the draw
//!   fetches afresh on every HOP, as Alg. 1 says, and a failed or
//!   drained agent is one with none (g).
//! * **(g) availability is read at the draw.** The sweep asks nothing
//!   of availability but to pick the witness; the draw asks `allowed`
//!   wherever it asks `fits` — of every stored candidate, and in
//!   `resolve` before any fold. A candidate toward an agent `allowed`
//!   refuses therefore gets no exponent, adds nothing to `total` (b),
//!   takes no step of the subtractive walk ((c): `resolve` refuses it
//!   and the walk goes on with its `x` unchanged), is never the fitting
//!   one (d) and consumes no noise draw (e): exactly what a candidate
//!   the sweep never enumerated does. So a sweep toward every agent,
//!   drawn under any availability, gives the outcome and the RNG state
//!   of a sweep toward the allowed agents alone, and a memo outlives an
//!   agent's failure, its return and its drain — a drained agent is
//!   one `allowed` refuses at every draw from then on.

use rand::Rng;
use vc_core::neighborhood::Neighborhood;
use vc_core::{AgentDemand, Decision, EvalScratch, SessionLoad, SystemState, CAPACITY_EPS};
use vc_markov::perturb::NoiseSpec;
use vc_model::{AgentId, SessionId};

/// Exponent clamp for the Gibbs weights (β·ΔΦ can overflow `exp`) —
/// and so the pruning threshold of the [lazy step](self): a candidate
/// whose exponent provably reaches `−MAX_EXPONENT` is not folded.
const MAX_EXPONENT: f64 = 600.0;

/// [`Candidates`] weight entry of a candidate the draw has no `Φ` for:
/// bounded — on the lower clamp, membership in the feasible set not yet
/// resolved — or stored and found not to fit. No member's entry equals
/// it — `Φ_s` is finite (delays, prices and cost shapes are validated
/// finite), and so is every weight derived from it.
const BOUNDED: f64 = f64::INFINITY;

/// The Gibbs exponent of a candidate weighing `phi` against `phi_now`,
/// before the clamp — the one expression the sweep's bounds and the
/// sampler share.
#[inline]
fn exponent(beta: f64, phi_now: f64, phi: f64) -> f64 {
    0.5 * beta * (phi_now - phi)
}

/// Configuration of Alg. 1.
#[derive(Debug, Clone)]
pub struct Alg1Config {
    /// Inverse temperature β. The paper uses 400, "proportional to the
    /// logarithm of the problem state space".
    pub beta: f64,
    /// Mean countdown (seconds) between HOPs of one session; τ = 1/mean.
    pub mean_countdown_s: f64,
    /// Optional measurement noise applied to every observed `Φ_s` value.
    pub noise: Option<NoiseSpec>,
}

impl Alg1Config {
    /// The prototype configuration: β as given, 10-second mean countdown,
    /// no measurement noise.
    pub fn paper(beta: f64) -> Self {
        Self {
            beta,
            mean_countdown_s: 10.0,
            noise: None,
        }
    }
}

impl Default for Alg1Config {
    fn default() -> Self {
        Self::paper(400.0)
    }
}

/// The outcome of one HOP invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HopOutcome {
    /// The session migrated by one decision.
    Migrated(Decision),
    /// The session kept its current assignment (self-transition).
    Stayed,
    /// No feasible alternative assignment existed.
    NoFeasibleMove,
}

/// One kept candidate in session-local terms: the placement entry it
/// moves ([`Probe::slot`](vc_core::neighborhood::Probe::slot)) and
/// where to — 8 bytes, against a [`Decision`]'s 12.
#[derive(Debug, Clone, Copy)]
struct Move {
    slot: u32,
    agent: AgentId,
}

/// What a [`HopMemo`] keeps of a folded candidate.
#[derive(Debug, Clone, Copy)]
struct Stored {
    /// Its index among the kept candidates.
    candidate: u32,
    /// Its move's target, copied here so that the draw's availability
    /// check reads no buffer but this one and the demand.
    agent: AgentId,
    /// End of its entries in [`HopMemo::demand`]; they start where the
    /// previous stored candidate's end.
    demand_end: u32,
    /// Its `Φ_s`.
    phi: f64,
}

/// The result of one [sweep](Alg1Engine::sweep), which a
/// [draw](Alg1Engine::draw) samples from: the candidates within the
/// delay bound in enumeration order, and of those that were folded and
/// can carry weight — plus the witness, plus any the draw had to
/// resolve since — their `Φ` and sparse demand. See the
/// [module docs](self), in particular (f) for how long one stays true.
/// Derived state: rebuilt by a sweep whenever it is missing.
#[derive(Debug, Default)]
pub struct HopMemo {
    /// The β and committed `Φ_s` it was swept under.
    beta: f64,
    phi_now: f64,
    moves: Vec<Move>,
    /// Ascending by candidate as the sweep leaves it; a candidate the
    /// draw resolves later is appended. (Under noise nothing is ever
    /// resolved later, so there storage order is enumeration order.)
    stored: Vec<Stored>,
    demand: Vec<AgentDemand>,
}

impl Clone for HopMemo {
    /// A copy at its exact size.
    fn clone(&self) -> Self {
        Self {
            beta: self.beta,
            phi_now: self.phi_now,
            moves: self.moves.clone(),
            stored: self.stored.clone(),
            demand: self.demand.clone(),
        }
    }

    /// A copy into `self`'s buffers, which grow only if they must.
    fn clone_from(&mut self, source: &Self) {
        (self.beta, self.phi_now) = (source.beta, source.phi_now);
        self.moves.clone_from(&source.moves);
        self.stored.clone_from(&source.stored);
        self.demand.clone_from(&source.demand);
    }
}

/// A [`HopMemo`] index as it is stored.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a hop memo indexes fewer than 2³² entries")
}

impl HopMemo {
    fn reset(&mut self, beta: f64, phi_now: f64) {
        (self.beta, self.phi_now) = (beta, phi_now);
        self.moves.clear();
        self.stored.clear();
        self.demand.clear();
    }

    /// Stores kept candidate `candidate`'s `Φ` and demand; returns its
    /// index in `stored`.
    fn store(&mut self, candidate: usize, load: &SessionLoad) -> usize {
        self.demand.extend(load.demand());
        self.stored.push(Stored {
            candidate: index(candidate),
            agent: self.moves[candidate].agent,
            demand_end: index(self.demand.len()),
            phi: load.phi,
        });
        self.stored.len() - 1
    }

    /// Undoes the last [`store`](Self::store).
    fn unstore(&mut self) {
        self.stored.pop();
        let end = self.stored.last().map_or(0, |e| e.demand_end);
        self.demand.truncate(end as usize);
    }

    fn demand_of(&self, k: usize) -> &[AgentDemand] {
        let start = k.checked_sub(1).map_or(0, |j| self.stored[j].demand_end);
        &self.demand[start as usize..self.stored[k].demand_end as usize]
    }

    fn stored_at(&self, candidate: usize) -> Option<usize> {
        (self.stored.iter()).position(|e| e.candidate as usize == candidate)
    }

    /// Whether no stored candidate would lower the session's `Φ`: the
    /// session has nowhere better to go that it knows of, and its HOPs
    /// stay except by a draw from the clamp.
    pub fn is_settled(&self) -> bool {
        self.stored.iter().all(|e| e.phi >= self.phi_now)
    }
}

/// The buffer one [draw](Alg1Engine::draw) samples in, reused across
/// steps, and the step's fold accounting.
#[derive(Debug, Default)]
pub struct Candidates {
    /// Per kept candidate: its `Φ_s`, then in place its observed `Φ_s`,
    /// its exponent and its Gibbs weight — or [`BOUNDED`] throughout.
    weights: Vec<f64>,
    /// Candidates the last sweep enumerated (0 when the step drew from
    /// a kept memo).
    pub swept: u32,
    /// Of those, how many were settled without a fold: over the delay
    /// bound, or weight proven on the clamp by the delay floor or the
    /// traffic floor.
    pub bounded: u32,
    /// Full folds the last step ran, sweep and draw together (a
    /// bounded candidate resolved after all counts here as well).
    pub folded: u32,
}

impl Candidates {
    /// Zeroes the accounting, as a [sweep](Alg1Engine::sweep) does —
    /// for a step that starts at the [draw](Alg1Engine::draw).
    pub fn reset_counts(&mut self) {
        (self.swept, self.bounded, self.folded) = (0, 0, 0);
    }
}

/// Reusable per-worker buffers for the allocation-free HOP path: the
/// evaluation scratch, the memo a sweep fills and the draw's buffer.
/// One per worker thread; steady-state hops allocate nothing.
#[derive(Debug, Default)]
pub struct HopScratch {
    /// The neighbourhood kernel's buffers.
    pub eval: EvalScratch,
    /// The memo between a step's sweep and its draw.
    pub memo: HopMemo,
    /// The draw's buffer and the step's accounting.
    pub candidates: Candidates,
}

impl HopScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// What one [Gibbs step](Alg1Engine::gibbs_step) is told about the
/// session it moves.
#[derive(Debug)]
pub struct HopContext<A, F> {
    /// Inverse temperature β `≥ 0` of this step.
    pub beta: f64,
    /// The committed `Φ_s`, before observation noise.
    pub phi_now: f64,
    /// The delay bound of constraint (8), in ms (`+∞` waives it).
    pub d_max_ms: f64,
    /// Whether a decision may target an agent *now* — up, and not
    /// drained. The only agent filter: the sweep enumerates every
    /// agent and asks it only to pick the witness; the draw asks it
    /// beside `fits` ([module docs](self), (g)).
    pub allowed: A,
    /// Whether the session may swap its load for one of this demand —
    /// constraints (5)–(7) against the capacity reserved *now*; the
    /// delay bound is the sweep's own check.
    pub fits: F,
}

/// The per-session Markov hopping engine.
#[derive(Debug, Clone)]
pub struct Alg1Engine {
    config: Alg1Config,
}

impl Alg1Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `β < 0` or the mean countdown is not positive.
    pub fn new(config: Alg1Config) -> Self {
        assert!(config.beta >= 0.0, "beta must be non-negative");
        assert!(
            config.mean_countdown_s > 0.0,
            "mean countdown must be positive"
        );
        Self { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Alg1Config {
        &self.config
    }

    /// Draws the next WAIT countdown (exponential, mean `1/τ`).
    pub fn next_countdown<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -rng.gen::<f64>().max(1e-300).ln() * self.config.mean_countdown_s
    }

    /// Executes one HOP for session `s` (Lines 9–15 of Alg. 1) at the
    /// configured β: samples a target assignment among the feasible
    /// single-decision neighbors (plus staying put) with Gibbs weights on
    /// the session's local objective, and applies it. `scratch` is the
    /// caller's, held across hops: steady-state hops allocate nothing.
    pub fn hop_scratch<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        s: SessionId,
        rng: &mut R,
        scratch: &mut HopScratch,
    ) -> HopOutcome {
        self.hop_with_beta_scratch(state, s, self.config.beta, rng, scratch)
    }

    /// [`hop_scratch`](Self::hop_scratch) with an explicit β — the
    /// primitive behind annealed schedules, where β grows over time to
    /// tighten the optimality gap (Eq. 12) after the chain has explored.
    /// One [Gibbs step](Self::gibbs_step) over the session's
    /// single-decision neighbourhood through `scratch` (one
    /// conference compilation, no assignment clone, no per-candidate
    /// allocation), the drawn move committed by swapping its re-derived
    /// load into the state.
    pub fn hop_with_beta_scratch<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        s: SessionId,
        beta: f64,
        rng: &mut R,
        scratch: &mut HopScratch,
    ) -> HopOutcome {
        let HopScratch {
            eval,
            memo,
            candidates,
        } = scratch;
        let mut ctx = HopContext {
            beta,
            phi_now: state.session_objective(s),
            // An inactive session holds nothing and fits anywhere.
            d_max_ms: if state.is_active(s) {
                state.problem().instance().d_max_ms()
            } else {
                f64::INFINITY
            },
            allowed: |l| state.is_agent_available(l),
            fits: |demand: &[AgentDemand]| state.demand_fits(s, demand.iter().copied()).is_ok(),
        };
        let mut hood = Neighborhood::of_state(state, s, eval);
        let outcome = self.gibbs_step(&mut hood, &mut ctx, memo, candidates, rng);
        if let HopOutcome::Migrated(decision) = outcome {
            hood.candidate(decision);
            state.commit_scratch(decision, eval);
        }
        outcome
    }

    /// One lazily exact Gibbs step over `hood`: a [sweep](Self::sweep)
    /// into `memo`, then a [draw](Self::draw) from it — see the
    /// [module docs](self) for the argument. It samples over {stay} ∪
    /// feasible neighbours exactly as folding every one would.
    /// [`HopOutcome::Migrated`] names the drawn decision; committing it
    /// (re-derive through [`Neighborhood::candidate`]) is the caller's.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.beta < 0`.
    pub fn gibbs_step<R, A, F>(
        &self,
        hood: &mut Neighborhood<'_>,
        ctx: &mut HopContext<A, F>,
        memo: &mut HopMemo,
        candidates: &mut Candidates,
        rng: &mut R,
    ) -> HopOutcome
    where
        R: Rng + ?Sized,
        A: Fn(AgentId) -> bool,
        F: FnMut(&[AgentDemand]) -> bool,
    {
        self.sweep(hood, ctx, memo, candidates);
        self.draw(hood, ctx, memo, candidates, rng)
    }

    /// Whether a [`HopMemo`] may outlive its step ([module docs](self),
    /// (f)): not under observation noise, where every candidate draws.
    pub fn keeps_memos(&self) -> bool {
        self.config.noise.is_none()
    }

    /// The sweep half of a [Gibbs step](Self::gibbs_step): enumerates
    /// `hood`'s candidates toward every agent, settles what their
    /// delay half or traffic floor settles, folds the rest, and leaves
    /// the result in `memo` (whatever it held before). Touches no RNG; asks
    /// `ctx.allowed` and `ctx.fits` only to pick the witness.
    ///
    /// # Panics
    ///
    /// Panics if `ctx.beta < 0`.
    pub fn sweep<A, F>(
        &self,
        hood: &mut Neighborhood<'_>,
        ctx: &mut HopContext<A, F>,
        memo: &mut HopMemo,
        candidates: &mut Candidates,
    ) where
        A: Fn(AgentId) -> bool,
        F: FnMut(&[AgentDemand]) -> bool,
    {
        let (beta, phi_now, d_max_ms) = (ctx.beta, ctx.phi_now, ctx.d_max_ms);
        assert!(beta >= 0.0, "beta must be non-negative");
        memo.reset(beta, phi_now);
        candidates.reset_counts();
        let prune = self.config.noise.is_none();
        let clamped = |phi: f64| prune && exponent(beta, phi_now, phi) <= -MAX_EXPONENT;
        let mut witnessed = false;
        // Every agent: availability is the draw's question ((g)).
        let every_agent = |_| true;
        hood.sweep_lazy(every_agent, |decision, mut probe| {
            candidates.swept += 1;
            if probe.max_flow_delay() > d_max_ms + CAPACITY_EPS {
                candidates.bounded += 1;
                return;
            }
            let candidate = memo.moves.len();
            memo.moves.push(Move {
                slot: index(probe.slot()),
                agent: decision.target(),
            });
            // The free delay floor first, then the traffic floor — not
            // computed at all under noise, where nothing is bounded.
            if clamped(probe.phi_floor()) || (prune && clamped(probe.traffic_floor())) {
                candidates.bounded += 1;
                return;
            }
            candidates.folded += 1;
            let load = probe.fold();
            if !clamped(load.phi) {
                memo.store(candidate, load);
            } else if !witnessed && (ctx.allowed)(decision.target()) {
                let k = memo.store(candidate, load);
                witnessed = (ctx.fits)(memo.demand_of(k));
                if !witnessed {
                    memo.unstore();
                }
            }
        });
    }

    /// The draw half of a [Gibbs step](Self::gibbs_step): checks every
    /// stored candidate of `memo` against current availability and
    /// capacity through `ctx.allowed` and `ctx.fits`, and samples.
    /// `hood` is the neighbourhood `memo` was swept from — possibly
    /// [deferred](Neighborhood::deferred): it is asked for a candidate
    /// only when a bounded one toward an allowed agent must be
    /// resolved, which `memo` then remembers. `ctx.allowed` may differ
    /// from what it was at the sweep ([module docs](self), (g)). RNG
    /// use: nothing on `NoFeasibleMove`; otherwise the noise draws, if
    /// configured, then one `rng.gen::<f64>()`.
    ///
    /// # Panics
    ///
    /// Panics if `memo` was swept under another β or `Φ_now` than
    /// `ctx`'s.
    pub fn draw<R, A, F>(
        &self,
        hood: &mut Neighborhood<'_>,
        ctx: &mut HopContext<A, F>,
        memo: &mut HopMemo,
        candidates: &mut Candidates,
        rng: &mut R,
    ) -> HopOutcome
    where
        R: Rng + ?Sized,
        A: Fn(AgentId) -> bool,
        F: FnMut(&[AgentDemand]) -> bool,
    {
        let (beta, phi_now) = (ctx.beta, ctx.phi_now);
        assert!(
            (memo.beta.to_bits(), memo.phi_now.to_bits()) == (beta.to_bits(), phi_now.to_bits()),
            "a memo is drawn from under the β and Φ_now it was swept under"
        );
        let Candidates {
            weights, folded, ..
        } = candidates;
        weights.clear();
        weights.resize(memo.moves.len(), BOUNDED);
        let mut any_fits = false;
        for (k, entry) in memo.stored.iter().enumerate() {
            if (ctx.allowed)(entry.agent) && (ctx.fits)(memo.demand_of(k)) {
                weights[entry.candidate as usize] = entry.phi;
                any_fits = true;
            }
        }
        // Membership of a candidate the loop above gave no weight: one
        // toward an agent that is down is refused unfolded, a stored one
        // is asked again (it said no; (d) and (c) are rare enough not to
        // remember that), a bounded one is folded now and stored in
        // place of its placeholder.
        let mut resolve = |i: usize| {
            let Move { slot, agent } = memo.moves[i];
            if !(ctx.allowed)(agent) {
                return false;
            }
            let k = memo.stored_at(i).unwrap_or_else(|| {
                *folded += 1;
                let decision = hood.decision_of(slot as usize, agent);
                memo.store(i, hood.candidate(decision).1)
            });
            (ctx.fits)(memo.demand_of(k))
        };
        if !any_fits && !(0..weights.len()).any(&mut resolve) {
            return HopOutcome::NoFeasibleMove;
        }
        let phi_now = self.observe(phi_now, rng);
        for phi in weights.iter_mut().filter(|phi| **phi != BOUNDED) {
            *phi = self.observe(*phi, rng);
        }
        match sample(beta, phi_now, weights, resolve, rng) {
            0 => HopOutcome::Stayed,
            i => {
                let Move { slot, agent } = memo.moves[i - 1];
                HopOutcome::Migrated(hood.decision_of(slot as usize, agent))
            }
        }
    }

    /// Applies the configured measurement-noise model to one observed
    /// `Φ` value (identity — and no RNG consumption — without noise).
    pub fn observe<R: Rng + ?Sized>(&self, phi: f64, rng: &mut R) -> f64 {
        match &self.config.noise {
            Some(noise) => phi + noise.sample_offset(rng),
            None => phi,
        }
    }

    /// Runs the full asynchronous algorithm over all active sessions for
    /// `duration_s` simulated seconds: every session waits an exponential
    /// countdown and hops, hops being serialized (the FREEZE semantics).
    /// Returns the hop log as `(time, session, outcome)`.
    pub fn run<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        duration_s: f64,
        rng: &mut R,
    ) -> Vec<(f64, SessionId, HopOutcome)> {
        self.run_with_schedule(state, duration_s, rng, |_| self.config.beta)
    }

    /// [`run`](Self::run) with a linearly annealed β: starts exploratory
    /// at `beta_from` and tightens to `beta_to` by the end of the run —
    /// the simulated-annealing-style schedule the Markov approximation
    /// literature suggests for faster convergence at the same final gap.
    pub fn run_annealed<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        duration_s: f64,
        beta_from: f64,
        beta_to: f64,
        rng: &mut R,
    ) -> Vec<(f64, SessionId, HopOutcome)> {
        self.run_with_schedule(state, duration_s, rng, |t| {
            beta_from + (beta_to - beta_from) * (t / duration_s).clamp(0.0, 1.0)
        })
    }

    fn run_with_schedule<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        duration_s: f64,
        rng: &mut R,
        beta_at: impl Fn(f64) -> f64,
    ) -> Vec<(f64, SessionId, HopOutcome)> {
        let sessions: Vec<SessionId> = state.active_sessions().collect();
        let mut wakes: Vec<(f64, SessionId)> = sessions
            .iter()
            .map(|&s| (self.next_countdown(rng), s))
            .collect();
        let mut log = Vec::new();
        let mut scratch = HopScratch::new();
        while let Some((idx, &(t, s))) = wakes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite times"))
        {
            if t > duration_s {
                break;
            }
            let outcome = self.hop_with_beta_scratch(state, s, beta_at(t), rng, &mut scratch);
            log.push((t, s, outcome));
            wakes[idx] = (t + self.next_countdown(rng), s);
        }
        log
    }
}

/// The Gibbs draw over {stay} ∪ `weights`, whose entries arrive as
/// observed `Φ` values (or [`BOUNDED`]) and are turned into exponents,
/// then weights, in place. Returns 0 for stay, `i + 1` for entry `i`.
/// `resolve(i)` settles a bounded entry's membership in the feasible
/// set; it is asked only where the answer can change the draw
/// ([module docs](self), (b) and (c)).
fn sample<R: Rng + ?Sized>(
    beta: f64,
    phi_now: f64,
    weights: &mut [f64],
    mut resolve: impl FnMut(usize) -> bool,
    rng: &mut R,
) -> usize {
    // Stay's exponent 0 opens the maximum; a bounded entry's −600
    // cannot raise it.
    let mut max_e = 0.0f64;
    for e in weights.iter_mut().filter(|e| **e != BOUNDED) {
        *e = exponent(beta, phi_now, *e).clamp(-MAX_EXPONENT, MAX_EXPONENT);
        max_e = max_e.max(*e);
    }
    // One `exp` per folded candidate; stay is summed first.
    let w_stay = (0.0 - max_e).exp();
    let w_bounded = (-MAX_EXPONENT - max_e).exp();
    let mut total = 0.0 + w_stay;
    for w in weights.iter_mut().filter(|w| **w != BOUNDED) {
        *w = (*w - max_e).exp();
        total += *w;
    }
    let mut x = rng.gen::<f64>() * total;
    if x < w_stay {
        return 0;
    }
    x -= w_stay;
    for (i, &w) in weights.iter().enumerate() {
        let w = if w != BOUNDED {
            w
        } else if (x < w_bounded || x - w_bounded != x) && resolve(i) {
            w_bounded
        } else {
            continue;
        };
        if x < w {
            return i + 1;
        }
        x -= w;
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{fig2_like_problem, single_task_problem};
    use rand::{rngs::StdRng, SeedableRng};
    use std::sync::Arc;
    use vc_core::Assignment;
    use vc_model::AgentId;

    fn fig2_state() -> SystemState {
        let p = Arc::new(fig2_like_problem());
        let asg = crate::nearest::nearest_assignment(&p);
        SystemState::new(p, asg)
    }

    #[test]
    fn hop_preserves_feasibility() {
        let mut st = fig2_state();
        let engine = Alg1Engine::new(Alg1Config::paper(50.0));
        let mut rng = StdRng::seed_from_u64(3);
        let mut scratch = HopScratch::new();
        for _ in 0..200 {
            engine.hop_scratch(&mut st, SessionId::new(0), &mut rng, &mut scratch);
            assert!(st.is_feasible());
        }
    }

    #[test]
    fn high_beta_descends_objective() {
        let mut st = fig2_state();
        let start = st.objective();
        let engine = Alg1Engine::new(Alg1Config::paper(2000.0));
        let mut rng = StdRng::seed_from_u64(7);
        let mut scratch = HopScratch::new();
        for _ in 0..300 {
            engine.hop_scratch(&mut st, SessionId::new(0), &mut rng, &mut scratch);
        }
        assert!(
            st.objective() < start,
            "objective did not improve: {start} → {}",
            st.objective()
        );
    }

    #[test]
    fn beta_zero_hops_uniformly() {
        // With β = 0 every neighbor (and staying) has equal weight; the
        // chain must migrate sometimes and stay sometimes.
        let p = Arc::new(single_task_problem());
        let asg = Assignment::all_to_agent(&p, AgentId::new(0));
        let mut st = SystemState::new(p, asg);
        let engine = Alg1Engine::new(Alg1Config {
            beta: 0.0,
            mean_countdown_s: 1.0,
            noise: None,
        });
        let mut rng = StdRng::seed_from_u64(11);
        let mut scratch = HopScratch::new();
        let mut migrated = 0;
        let mut stayed = 0;
        for _ in 0..300 {
            match engine.hop_scratch(&mut st, SessionId::new(0), &mut rng, &mut scratch) {
                HopOutcome::Migrated(_) => migrated += 1,
                HopOutcome::Stayed => stayed += 1,
                HopOutcome::NoFeasibleMove => {}
            }
        }
        assert!(migrated > 50, "migrated only {migrated}");
        assert!(stayed > 20, "stayed only {stayed}");
    }

    #[test]
    fn countdowns_are_exponential_with_requested_mean() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut rng = StdRng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| engine.next_countdown(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.3, "mean countdown {mean}");
    }

    #[test]
    fn run_serializes_hops_in_time_order() {
        let mut st = fig2_state();
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut rng = StdRng::seed_from_u64(13);
        let log = engine.run(&mut st, 120.0, &mut rng);
        assert!(!log.is_empty());
        for w in log.windows(2) {
            assert!(w[0].0 <= w[1].0, "log out of order");
        }
        assert!(log.iter().all(|(t, _, _)| *t <= 120.0));
        assert!(st.is_feasible());
    }

    #[test]
    fn annealed_run_reaches_low_objective() {
        let mut st = fig2_state();
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut rng = StdRng::seed_from_u64(21);
        let start = st.objective();
        let log = engine.run_annealed(&mut st, 300.0, 10.0, 2000.0, &mut rng);
        assert!(!log.is_empty());
        assert!(st.objective() < start);
        assert!(st.is_feasible());
    }

    #[test]
    fn hop_with_beta_zero_equals_uniform_weights() {
        // hop_scratch() at the config β must equal
        // hop_with_beta_scratch(config.beta), each holding its scratch.
        let engine = Alg1Engine::new(Alg1Config::paper(700.0));
        let mut a = fig2_state();
        let mut b = fig2_state();
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        let (mut scratch_a, mut scratch_b) = (HopScratch::new(), HopScratch::new());
        for _ in 0..50 {
            let s = SessionId::new(0);
            let oa = engine.hop_scratch(&mut a, s, &mut rng_a, &mut scratch_a);
            let ob = engine.hop_with_beta_scratch(&mut b, s, 700.0, &mut rng_b, &mut scratch_b);
            assert_eq!(oa, ob);
        }
        assert_eq!(a.assignment(), b.assignment());
    }

    #[test]
    fn noisy_hops_still_converge_reasonably() {
        let mut st = fig2_state();
        let start = st.objective();
        let engine = Alg1Engine::new(Alg1Config {
            beta: 2000.0,
            mean_countdown_s: 10.0,
            noise: Some(NoiseSpec::uniform(0.5, 2)),
        });
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = HopScratch::new();
        for _ in 0..300 {
            engine.hop_scratch(&mut st, SessionId::new(0), &mut rng, &mut scratch);
        }
        assert!(st.objective() < start);
    }

    // ---- The lazy step against its eager reference. ---------------------

    use proptest::prelude::*;
    use rand::RngCore;
    use vc_core::evaluate::evaluate_session;
    use vc_core::UapProblem;
    use vc_cost::CostModel;
    use vc_model::{AgentSpec, Capacity, InstanceBuilder, ReprLadder, UserId};

    /// The sampler as it was before the lazy step, verbatim: every
    /// candidate a resolved member, every weight summed and walked.
    fn eager_gibbs_select<R: Rng + ?Sized>(
        beta: f64,
        phi_now: f64,
        phis: &[f64],
        rng: &mut R,
    ) -> usize {
        let mut exponents = vec![0.0];
        for &phi_m in phis {
            exponents.push((0.5 * beta * (phi_now - phi_m)).clamp(-MAX_EXPONENT, MAX_EXPONENT));
        }
        let max_e = exponents.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut total = 0.0;
        for e in exponents.iter_mut() {
            *e = (*e - max_e).exp();
            total += *e;
        }
        let mut x = rng.gen::<f64>() * total;
        for (i, w) in exponents.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        0
    }

    /// The hop as it was before the lazy step: fold every candidate,
    /// keep the feasible, observe, draw, commit.
    fn eager_hop<R: Rng + ?Sized>(
        engine: &Alg1Engine,
        state: &mut SystemState,
        s: SessionId,
        beta: f64,
        rng: &mut R,
    ) -> HopOutcome {
        let mut eval = EvalScratch::new();
        let (mut decisions, mut phis) = (Vec::new(), Vec::new());
        let mut hood = Neighborhood::of_state(state, s, &mut eval);
        hood.sweep(
            |l| state.is_agent_available(l),
            |decision, load| {
                if state.fits(s, load).is_ok() {
                    decisions.push(decision);
                    phis.push(load.phi);
                }
            },
        );
        if decisions.is_empty() {
            return HopOutcome::NoFeasibleMove;
        }
        let phi_now = engine.observe(state.session_objective(s), rng);
        for phi in phis.iter_mut() {
            *phi = engine.observe(*phi, rng);
        }
        let chosen = eager_gibbs_select(beta, phi_now, &phis, rng);
        if chosen == 0 {
            return HopOutcome::Stayed;
        }
        let decision = decisions[chosen - 1];
        hood.candidate(decision);
        state.commit_scratch(decision, &mut eval);
        HopOutcome::Migrated(decision)
    }

    /// A random closed world: capacities tight enough to refuse some
    /// moves, delays spread enough that at β = 400 most neighbours are
    /// bounded and a few are not, and a delay bound that bites.
    #[derive(Debug, Clone)]
    struct World {
        agents: Vec<(f64, u32)>,
        sessions: Vec<Vec<(u8, u8)>>,
        delay_seed: u64,
        /// Whether agent 0 is (nearly) everyone's nearest: conferences
        /// then sit together, `G ≈ 0`, and `α1·F` is most of `Φ` — the
        /// production shape, where the bound fires. Otherwise users
        /// scatter and traffic dominates.
        clustered: bool,
        d_max_ms: f64,
        down: Option<usize>,
        inactive: Option<usize>,
    }

    fn world_strategy() -> impl Strategy<Value = World> {
        (
            prop::collection::vec((15.0f64..90.0, 0u32..6), 2..=5),
            prop::collection::vec(prop::collection::vec((0u8..4, 0u8..4), 2..=5), 1..=4),
            any::<u64>(),
            (any::<bool>(), any::<bool>(), 120.0f64..260.0),
            (0usize..10, 0usize..8),
        )
            .prop_map(
                |(agents, sessions, delay_seed, (clustered, tight, d_max_ms), (down, inactive))| {
                    World {
                        agents,
                        sessions,
                        delay_seed,
                        clustered,
                        d_max_ms: if tight { d_max_ms } else { 10_000.0 },
                        // Half the worlds lose an agent, half idle a session.
                        down: (down < 5).then_some(down),
                        inactive: (inactive < 4).then_some(inactive),
                    }
                },
            )
    }

    fn build_world(w: &World) -> SystemState {
        let ladder = ReprLadder::standard_four();
        let reprs: Vec<_> = ladder.ids().collect();
        let mut b = InstanceBuilder::new(ladder);
        for (i, &(mbps, slots)) in w.agents.iter().enumerate() {
            b.add_agent(
                AgentSpec::builder(format!("a{i}"))
                    .capacity(Capacity::new(mbps, mbps, slots))
                    .price_per_mbps(0.25 * (1 + i % 3) as f64)
                    .build(),
            );
        }
        for session in &w.sessions {
            let sid = b.add_session();
            for &(up, down) in session {
                b.add_user(sid, reprs[up as usize % 4], reprs[down as usize % 4]);
            }
        }
        let (seed, step) = (w.delay_seed, if w.clustered { 12.0 } else { 0.0 });
        let mix = move |a: usize, b: usize| {
            seed.wrapping_mul(6364136223846793005)
                .wrapping_add((a * 131 + b * 31) as u64)
                >> 7
        };
        b.symmetric_delays(
            move |l, k| 8.0 + (mix(l.min(k) + 977, l.max(k)) % 900) as f64 / 10.0,
            // Last miles in 0.5 ms steps over a narrow band: near-ties
            // (|ΔΦ| below the clamp's reach) are common.
            move |l, u| 5.0 + step * l as f64 + (mix(l, u) % 40) as f64 / 2.0,
        );
        b.d_max_ms(w.d_max_ms);
        let problem = Arc::new(UapProblem::new(
            b.build().expect("valid world"),
            CostModel::paper_default(),
        ));
        let asg = crate::nearest::nearest_assignment(&problem);
        let mut state = SystemState::new(problem, asg);
        if let Some(l) = w.down {
            state.set_agent_available(AgentId::from(l % w.agents.len()), false);
        }
        if let Some(s) = w.inactive {
            state.deactivate(SessionId::from(s % w.sessions.len()));
        }
        state
    }

    /// The hop as a caller that keeps memos runs it — the fleet's shape:
    /// a [deferred](Neighborhood::deferred) neighbourhood over the
    /// session's placement, a sweep toward every agent (the closed world
    /// drains none), a draw from `kept` when there is one, a full step
    /// (kept afterwards, if the engine keeps memos) when not. The caller
    /// drops `kept` when the hop migrated.
    fn memo_hop<R: Rng + ?Sized>(
        engine: &Alg1Engine,
        state: &mut SystemState,
        s: SessionId,
        rng: &mut R,
        scratch: &mut HopScratch,
        kept: &mut Option<HopMemo>,
    ) -> HopOutcome {
        let HopScratch {
            eval,
            memo,
            candidates,
        } = scratch;
        let problem = state.problem().clone();
        let (users, tasks) = {
            let asg = state.assignment();
            let users = problem.instance().session(s).users().iter();
            let tasks = problem.tasks().of_session(s).iter();
            (
                users.map(|&u| asg.agent_of_user(u)).collect::<Vec<_>>(),
                tasks.map(|&t| asg.agent_of_task(t)).collect::<Vec<_>>(),
            )
        };
        let mut ctx = HopContext {
            beta: engine.config().beta,
            phi_now: state.session_objective(s),
            d_max_ms: if state.is_active(s) {
                problem.instance().d_max_ms()
            } else {
                f64::INFINITY
            },
            allowed: |l| state.is_agent_available(l),
            fits: |demand: &[AgentDemand]| state.demand_fits(s, demand.iter().copied()).is_ok(),
        };
        let mut hood = Neighborhood::deferred(eval, &problem, s, &users, &tasks);
        let outcome = match kept {
            Some(kept) => {
                candidates.reset_counts();
                engine.draw(&mut hood, &mut ctx, kept, candidates, rng)
            }
            None => {
                let outcome = engine.gibbs_step(&mut hood, &mut ctx, memo, candidates, rng);
                *kept = engine.keeps_memos().then(|| memo.clone());
                outcome
            }
        };
        if let HopOutcome::Migrated(decision) = outcome {
            hood.candidate(decision);
            state.commit_scratch(decision, eval);
        }
        outcome
    }

    /// The decisions `memo` holds no `Φ` for: the candidates (a) is
    /// about.
    fn bounded_decisions(memo: &HopMemo, problem: &UapProblem, s: SessionId) -> Vec<Decision> {
        let users = problem.instance().session(s).users();
        let tasks = problem.tasks().of_session(s);
        (memo.moves.iter().enumerate())
            .filter(|&(i, _)| memo.stored_at(i).is_none())
            .map(|(_, m)| match (m.slot as usize).checked_sub(users.len()) {
                None => Decision::User(users[m.slot as usize], m.agent),
                Some(k) => Decision::Task(tasks[k], m.agent),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Lazy ≡ eager and retained ≡ forgotten, hop after hop: same
        /// outcome, same committed state, and the RNG left in the same
        /// state — for β where the bound never fires, sometimes fires
        /// and mostly fires, with and without observation noise. The
        /// lazy side keeps one memo per session across hops, dropped
        /// only when that session migrates, while the other sessions'
        /// hops move the totals under it and an agent's availability
        /// flips under it twice: memos swept before a flip are drawn
        /// after it ((g)).
        #[test]
        fn lazy_step_equals_eager_reference(
            world in world_strategy(),
            beta in 0usize..3,
            noisy in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let beta = [1.0, 40.0, 400.0][beta];
            let engine = Alg1Engine::new(Alg1Config {
                noise: noisy.then(|| NoiseSpec::uniform(0.5, 2)),
                ..Alg1Config::paper(beta)
            });
            let (mut lazy, mut eager) = (build_world(&world), build_world(&world));
            let (mut rng_lazy, mut rng_eager) =
                (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let mut scratch = HopScratch::new();
            let mut kept: Vec<Option<HopMemo>> = vec![None; world.sessions.len()];
            let flipped = AgentId::from(seed as usize % world.agents.len());
            for hop in 0..40 {
                if hop == 14 || hop == 27 {
                    // Availability flips; every kept memo stays.
                    let up = lazy.is_agent_available(flipped);
                    lazy.set_agent_available(flipped, !up);
                    eager.set_agent_available(flipped, !up);
                }
                let s = SessionId::from(hop % world.sessions.len());
                let hit = kept[s.index()].is_some();
                prop_assert!(!(hit && noisy), "noise: no memo is kept");
                let got = memo_hop(&engine, &mut lazy, s, &mut rng_lazy, &mut scratch, &mut kept[s.index()]);
                // (a), checked rather than argued: `eager` still holds
                // the placement of `s` that `lazy` hopped from, and
                // there every bounded candidate's exact exponent clamps
                // to −MAX_EXPONENT.
                let memo = kept[s.index()].as_ref().unwrap_or(&scratch.memo);
                for d in bounded_decisions(memo, eager.problem(), s) {
                    let mut moved = eager.assignment().clone();
                    moved.apply(d);
                    let phi = evaluate_session(eager.problem(), &moved, s).phi;
                    let exact = 0.5 * beta * (eager.session_objective(s) - phi);
                    prop_assert_eq!(exact.clamp(-MAX_EXPONENT, MAX_EXPONENT), -MAX_EXPONENT, "{}", d);
                }
                if matches!(got, HopOutcome::Migrated(_)) {
                    kept[s.index()] = None;
                }
                let want = eager_hop(&engine, &mut eager, s, beta, &mut rng_eager);
                prop_assert_eq!(got, want, "hop {} of {} (hit: {})", hop, s, hit);
                prop_assert_eq!(rng_lazy.next_u64(), rng_eager.next_u64(), "rng after hop {}", hop);
                let c = &scratch.candidates;
                // Every candidate is settled by its delays or folded;
                // only a bounded one resolved after all is both. A hit
                // sweeps nothing.
                prop_assert!(c.swept <= c.bounded + c.folded);
                prop_assert!(!noisy || c.swept == c.bounded + c.folded, "noise: no bound, no refold");
                prop_assert!(!hit || (c.swept, c.bounded) == (0, 0));
            }
            prop_assert_eq!(lazy.assignment(), eager.assignment());
            prop_assert_eq!(lazy.objective().to_bits(), eager.objective().to_bits());
        }
    }

    /// The bound does fire on the proptest's worlds — the equivalence
    /// above is not vacuous: in a clustered conference every user move
    /// (a third of the candidates here) is settled by its delays.
    #[test]
    fn clustered_conference_at_paper_beta_bounds_its_user_moves() {
        let world = World {
            agents: vec![(80.0, 5); 5],
            sessions: vec![vec![(2, 1), (1, 2), (3, 0), (0, 2)]],
            delay_seed: 42,
            clustered: true,
            d_max_ms: 10_000.0,
            down: None,
            inactive: None,
        };
        let mut state = build_world(&world);
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut rng = StdRng::seed_from_u64(9);
        let mut scratch = HopScratch::new();
        let (mut bounded, mut swept) = (0, 0);
        for _ in 0..60 {
            engine.hop_scratch(&mut state, SessionId::new(0), &mut rng, &mut scratch);
            bounded += scratch.candidates.bounded;
            swept += scratch.candidates.swept;
        }
        assert!(bounded * 3 >= swept, "only {bounded} of {swept} bounded");
    }

    /// An RNG whose `gen::<f64>()` returns scripted values (the
    /// vendored `Standard` maps `next_u64() >> 11` onto `[0, 1)`), and
    /// panics when asked for more.
    struct Scripted(Vec<f64>);

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let u = self.0.remove(0);
            ((u * (1u64 << 53) as f64) as u64) << 11
        }
        fn fill_bytes(&mut self, _: &mut [u8]) {
            unimplemented!("the Gibbs step draws f64s only")
        }
    }

    /// Branch (c): `u·total == w_stay` leaves the walk's residue at
    /// exactly 0 on the first candidate, a bounded one — the one place
    /// its `e⁻⁶⁰⁰` decides the draw. The sampler must ask, and then
    /// agree with the eager sampler over whichever list is true.
    #[test]
    fn zero_residue_at_a_bounded_candidate_resolves_it() {
        // Stay and the folded tie weigh 1 each: total = 2 (the bounded
        // weight is absorbed), u = ½ ⇒ x = 1 = w_stay ⇒ residue 0.
        let (beta, phi_now, far) = (400.0, 100.0, 1e6);
        for member in [true, false] {
            let mut asked = Vec::new();
            let mut weights = [BOUNDED, phi_now];
            let got = sample(
                beta,
                phi_now,
                &mut weights,
                |i| {
                    asked.push(i);
                    member
                },
                &mut Scripted(vec![0.5]),
            );
            assert_eq!(asked, [0], "membership decides this draw");
            let resolved: &[f64] = if member { &[far, phi_now] } else { &[phi_now] };
            let want = eager_gibbs_select(beta, phi_now, resolved, &mut Scripted(vec![0.5]));
            // Index 1 is the bounded candidate itself; without it the
            // tie (eager index 1) is entry 2 of the lazy list.
            assert_eq!(got, if member { want } else { want + 1 });
            assert_eq!(got, if member { 1 } else { 2 });
        }
        // Away from the zero residue the bounded weight cannot matter
        // and nobody is asked.
        let mut weights = [BOUNDED, phi_now];
        let got = sample(
            beta,
            phi_now,
            &mut weights,
            |_| unreachable!("residue 0.2 dwarfs e^-600"),
            &mut Scripted(vec![0.6]),
        );
        assert_eq!(got, 2);
    }

    /// Two agents; the session sits on the near one, and both moves to
    /// the far one cost ≈ +90 ms of mean delay: bounded at β = 400.
    fn far_agent_state(far_capacity_mbps: f64) -> SystemState {
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("near").build());
        b.add_agent(
            AgentSpec::builder("far")
                .capacity(Capacity::new(far_capacity_mbps, far_capacity_mbps, 0))
                .build(),
        );
        let s = b.add_session();
        b.add_user(s, r, r);
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 60.0, |l, _| if l == 0 { 10.0 } else { 100.0 });
        let problem = Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ));
        let asg = Assignment::all_to_agent(&problem, AgentId::new(0));
        SystemState::new(problem, asg)
    }

    /// Branch (d), feasible side: every candidate is bounded, so none
    /// was folded during the sweep; the step folds bounded ones until
    /// one fits, finds the first does, and draws — `Stayed`, one
    /// `gen::<f64>()` consumed — as the eager hop does.
    #[test]
    fn all_bounded_but_feasible_draws_and_stays() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut state = far_agent_state(1_000.0);
        let mut scratch = HopScratch::new();
        let mut rng = Scripted(vec![0.999]);
        let got = engine.hop_scratch(&mut state, SessionId::new(0), &mut rng, &mut scratch);
        assert_eq!(got, HopOutcome::Stayed);
        assert!(rng.0.is_empty(), "exactly one draw");
        let c = &scratch.candidates;
        assert_eq!((c.swept, c.bounded, c.folded), (2, 2, 1));
        let want = eager_hop(
            &engine,
            &mut far_agent_state(1_000.0),
            SessionId::new(0),
            400.0,
            &mut Scripted(vec![0.999]),
        );
        assert_eq!(got, want);
    }

    /// Branch (d), infeasible side: every candidate is bounded and none
    /// fits (the far agent has no bandwidth), so every one is folded in
    /// turn and the step reports `NoFeasibleMove` without touching the
    /// RNG — as the eager hop does.
    #[test]
    fn all_bounded_and_none_fits_is_no_feasible_move() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut state = far_agent_state(0.0);
        let mut scratch = HopScratch::new();
        let mut rng = Scripted(Vec::new());
        let got = engine.hop_scratch(&mut state, SessionId::new(0), &mut rng, &mut scratch);
        assert_eq!(got, HopOutcome::NoFeasibleMove);
        let c = &scratch.candidates;
        assert_eq!((c.swept, c.bounded, c.folded), (2, 2, 2));
        let want = eager_hop(
            &engine,
            &mut far_agent_state(0.0),
            SessionId::new(0),
            400.0,
            &mut Scripted(Vec::new()),
        );
        assert_eq!(got, want);
    }

    /// A hit costs a capacity check and a draw: the first hop of an
    /// all-bounded session resolves one candidate (rule (d)) and the
    /// memo remembers it, so the second folds nothing, compiles nothing
    /// and still draws `Stayed` with one `gen::<f64>()` — the eager
    /// outcome.
    #[test]
    fn second_hop_of_an_all_bounded_session_folds_nothing() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut state = far_agent_state(1_000.0);
        let (mut scratch, mut kept) = (HopScratch::new(), None);
        let s = SessionId::new(0);
        for hop in 0..3 {
            let mut rng = Scripted(vec![0.999]);
            let got = memo_hop(&engine, &mut state, s, &mut rng, &mut scratch, &mut kept);
            assert_eq!(got, HopOutcome::Stayed);
            assert!(rng.0.is_empty(), "exactly one draw");
            let c = &scratch.candidates;
            let counts = (c.swept, c.bounded, c.folded);
            assert_eq!(counts, if hop == 0 { (2, 2, 1) } else { (0, 0, 0) });
            let memo = kept.as_ref().expect("kept: no noise, no migration");
            assert_eq!((memo.moves.len(), memo.stored.len()), (2, 1));
            assert!(memo.is_settled());
            let want = eager_hop(&engine, &mut state, s, 400.0, &mut Scripted(vec![0.999]));
            assert_eq!(got, want);
        }
    }

    /// Two agents at zero distance with equal last miles: moving either
    /// user of the co-located pair leaves every delay — so `α1·F`, all
    /// of `Φ_now` — as it is, and adds 2 Mbps of inter-agent traffic,
    /// `+16` at α2 = 8: on the clamp at β = 400, which only the traffic
    /// floor can tell.
    fn co_located_pair_state() -> SystemState {
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        b.add_agent(AgentSpec::builder("a").build());
        b.add_agent(AgentSpec::builder("b").build());
        let s = b.add_session();
        b.add_user(s, r, r);
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 0.0, |_, _| 10.0);
        let problem = Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ));
        let asg = Assignment::all_to_agent(&problem, AgentId::new(0));
        SystemState::new(problem, asg)
    }

    /// (a) with the traffic floor: both candidates are bounded without a
    /// fold although their delay floor is `Φ_now` itself, no witness is
    /// folded during the sweep, and rule (d) folds the first in the
    /// draw — one fold where folding every candidate took two — and the
    /// hop is the eager one's.
    #[test]
    fn the_traffic_floor_bounds_what_the_delay_floor_cannot() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let mut state = co_located_pair_state();
        let mut scratch = HopScratch::new();
        let mut rng = Scripted(vec![0.999]);
        let got = engine.hop_scratch(&mut state, SessionId::new(0), &mut rng, &mut scratch);
        assert_eq!(got, HopOutcome::Stayed);
        let c = &scratch.candidates;
        assert_eq!((c.swept, c.bounded, c.folded), (2, 2, 1));
        let want = eager_hop(
            &engine,
            &mut co_located_pair_state(),
            SessionId::new(0),
            400.0,
            &mut Scripted(vec![0.999]),
        );
        assert_eq!(got, want);
    }

    /// Session 0 sits on agent 1 and weighs moves to agents 0 and 2,
    /// 90 ms further out: all bounded at β = 400. Session 1's one user
    /// sits on agent 1 too; its 5 Mbps upstream is what agent 0
    /// (6 Mbps down) has room for once.
    fn two_far_agents_state() -> SystemState {
        let ladder = ReprLadder::standard_four();
        let (low, high) = (ladder.lowest(), ladder.by_name("720p").unwrap().id());
        let mut b = InstanceBuilder::new(ladder);
        let tight = Capacity::new(1_000.0, 6.0, 0);
        b.add_agent(AgentSpec::builder("far0").capacity(tight).build());
        b.add_agent(AgentSpec::builder("near").build());
        b.add_agent(AgentSpec::builder("far2").build());
        let s0 = b.add_session();
        b.add_user(s0, low, low);
        b.add_user(s0, low, low);
        let s1 = b.add_session();
        b.add_user(s1, high, high);
        b.symmetric_delays(|_, _| 60.0, |l, _| if l == 1 { 10.0 } else { 100.0 });
        let problem = Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ));
        let asg = Assignment::all_to_agent(&problem, AgentId::new(1));
        SystemState::new(problem, asg)
    }

    /// The witness is re-checked on every hit: when another session
    /// books the capacity it stood on, it stops counting, and rule (d)
    /// resolves the next bounded candidate — one fold, remembered in
    /// turn — exactly where the eager hop finds its first feasible
    /// neighbour.
    #[test]
    fn a_witness_that_stops_fitting_yields_to_the_next_bounded_candidate() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let (mut state, mut twin) = (two_far_agents_state(), two_far_agents_state());
        let (mut scratch, mut kept) = (HopScratch::new(), None);
        let s = SessionId::new(0);
        let mut hop = |state: &mut SystemState, twin: &mut SystemState, kept: &mut _| {
            let mut rng = Scripted(vec![0.999]);
            let got = memo_hop(&engine, state, s, &mut rng, &mut scratch, kept);
            assert_eq!(got, HopOutcome::Stayed);
            assert!(rng.0.is_empty(), "exactly one draw");
            let want = eager_hop(&engine, twin, s, 400.0, &mut Scripted(vec![0.999]));
            assert_eq!(got, want);
            scratch.candidates.folded
        };
        // Miss: candidate 0 (user 0 → agent 0) is resolved, fits, and
        // is the witness.
        assert_eq!(hop(&mut state, &mut twin, &mut kept), 1);
        assert_eq!(kept.as_ref().unwrap().stored.len(), 1);
        assert_eq!(hop(&mut state, &mut twin, &mut kept), 0);
        // Session 1 takes agent 0's download capacity.
        let grab = Decision::User(UserId::new(2), AgentId::new(0));
        state.try_apply(grab).expect("5 of 6 Mbps");
        twin.try_apply(grab).expect("5 of 6 Mbps");
        // Hit: the witness no longer fits; candidate 1 (user 0 →
        // agent 2) is folded, fits, and is stored beside it.
        assert_eq!(hop(&mut state, &mut twin, &mut kept), 1);
        let memo = kept.as_ref().unwrap();
        let stored: Vec<u32> = memo.stored.iter().map(|e| e.candidate).collect();
        assert_eq!(stored, [0, 1]);
        assert_eq!(hop(&mut state, &mut twin, &mut kept), 0);
    }

    /// Availability is read at the draw ((g)): a kept memo whose
    /// witness targets an agent that has failed since is drawn without
    /// it — the witness is refused unfolded and rule (d) resolves the
    /// next bounded candidate — and every hop equals the eager one over
    /// the agents still up, outcome and RNG word after it.
    #[test]
    fn a_witness_toward_a_failed_agent_yields_to_the_next_bounded_candidate() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let (mut state, mut twin) = (two_far_agents_state(), two_far_agents_state());
        let (mut scratch, mut kept) = (HopScratch::new(), None);
        let s = SessionId::new(0);
        // Miss: candidate 0 (user 0 → agent 0) is resolved, fits, and
        // is the witness.
        let mut rng = Scripted(vec![0.999]);
        memo_hop(&engine, &mut state, s, &mut rng, &mut scratch, &mut kept);
        eager_hop(&engine, &mut twin, s, 400.0, &mut Scripted(vec![0.999]));
        assert_eq!(kept.as_ref().unwrap().stored.len(), 1);
        state.set_agent_available(AgentId::new(0), false);
        twin.set_agent_available(AgentId::new(0), false);
        for seed in 0..3 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut rng_eager = StdRng::seed_from_u64(seed);
            let got = memo_hop(&engine, &mut state, s, &mut rng, &mut scratch, &mut kept);
            let want = eager_hop(&engine, &mut twin, s, 400.0, &mut rng_eager);
            assert_eq!((got, rng.next_u64()), (want, rng_eager.next_u64()));
            assert_eq!(got, HopOutcome::Stayed);
            // Hits: the first folds candidate 1 (user 0 → agent 2),
            // which is remembered beside the witness.
            let c = &scratch.candidates;
            assert_eq!((c.swept, c.bounded, c.folded), (0, 0, u32::from(seed == 0)));
        }
        let memo = kept.as_ref().expect("kept: no noise, no migration");
        let stored: Vec<u32> = memo.stored.iter().map(|e| e.candidate).collect();
        assert_eq!(stored, [0, 1]);
    }

    /// Agents 1 and 2 are twins at zero distance and nothing is priced,
    /// so moving a user between them is an exact tie with staying
    /// (weight 1); agent 0 is far (bounded at β = 400). The session's
    /// two users sit on agent 1. Candidates: [user 0 → 0, user 0 → 2,
    /// user 1 → 0, user 1 → 2].
    fn tied_twins_state() -> SystemState {
        let ladder = ReprLadder::standard_four();
        let r = ladder.lowest();
        let mut b = InstanceBuilder::new(ladder);
        for name in ["far", "near", "twin"] {
            b.add_agent(AgentSpec::builder(name).price_per_mbps(0.0).build());
        }
        let s = b.add_session();
        b.add_user(s, r, r);
        b.add_user(s, r, r);
        b.symmetric_delays(
            |l, k| if l.min(k) == 0 { 60.0 } else { 0.0 },
            |l, _| if l == 0 { 100.0 } else { 10.0 },
        );
        let problem = Arc::new(UapProblem::new(
            b.build().unwrap(),
            CostModel::paper_default(),
        ));
        let asg = Assignment::all_to_agent(&problem, AgentId::new(1));
        SystemState::new(problem, asg)
    }

    /// A kept memo outlives an agent's failure and return ((g)): swept
    /// with agent 2 up (its two ties stored), drawn while it is down
    /// (the ties refused; rule (d) resolves user 0 → agent 0), and drawn
    /// again once it is back, where `u = 0.4` takes the first tie — the
    /// move onto the restored agent, as the eager hop does.
    #[test]
    fn a_kept_memo_draws_the_move_onto_a_restored_agent() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let (mut state, mut twin) = (tied_twins_state(), tied_twins_state());
        let (mut scratch, mut kept) = (HopScratch::new(), None);
        let (s, back) = (SessionId::new(0), AgentId::new(2));
        let mut hop = |state: &mut SystemState, twin: &mut SystemState, kept: &mut _, u| {
            let mut rng = Scripted(vec![u]);
            let got = memo_hop(&engine, state, s, &mut rng, &mut scratch, kept);
            assert!(rng.0.is_empty(), "exactly one draw");
            let want = eager_hop(&engine, twin, s, 400.0, &mut Scripted(vec![u]));
            assert_eq!(got, want);
            let c = &scratch.candidates;
            (got, (c.swept, c.bounded, c.folded))
        };
        assert_eq!(
            hop(&mut state, &mut twin, &mut kept, 0.1),
            (HopOutcome::Stayed, (4, 2, 2))
        );
        state.set_agent_available(back, false);
        twin.set_agent_available(back, false);
        assert_eq!(
            hop(&mut state, &mut twin, &mut kept, 0.4),
            (HopOutcome::Stayed, (0, 0, 1))
        );
        state.set_agent_available(back, true);
        twin.set_agent_available(back, true);
        let onto = HopOutcome::Migrated(Decision::User(UserId::new(0), back));
        assert_eq!(
            hop(&mut state, &mut twin, &mut kept, 0.4),
            (onto, (0, 0, 0))
        );
        assert_eq!(state.assignment(), twin.assignment());
        assert_eq!(state.objective().to_bits(), twin.objective().to_bits());
    }

    /// Rule (c) on a hit, and a migration drawn from one, on
    /// [`tied_twins_state`]: `total = 3`, and `u = ⌈2⁵³/3⌉/2⁵³` makes
    /// `u·total` round to exactly `w_stay`: the walk reaches the first,
    /// bounded, candidate with residue 0, must ask, compiles the
    /// deferred neighbourhood for that one fold, and migrates there —
    /// as the eager hop does.
    #[test]
    fn zero_residue_on_a_hit_resolves_the_bounded_candidate_and_migrates() {
        let engine = Alg1Engine::new(Alg1Config::paper(400.0));
        let (mut state, mut twin) = (tied_twins_state(), tied_twins_state());
        let (mut scratch, mut kept) = (HopScratch::new(), None);
        let s = SessionId::new(0);
        // Miss, staying: the two ties are stored, the far moves bounded.
        let got = memo_hop(
            &engine,
            &mut state,
            s,
            &mut Scripted(vec![0.1]),
            &mut scratch,
            &mut kept,
        );
        assert_eq!(got, HopOutcome::Stayed);
        let c = &scratch.candidates;
        assert_eq!((c.swept, c.bounded, c.folded), (4, 2, 2));
        let memo = kept.as_ref().unwrap();
        assert_eq!(
            memo.stored.iter().map(|e| e.candidate).collect::<Vec<_>>(),
            [1, 3]
        );
        assert!(memo
            .stored
            .iter()
            .all(|e| e.phi.to_bits() == memo.phi_now.to_bits()));
        eager_hop(&engine, &mut twin, s, 400.0, &mut Scripted(vec![0.1]));
        // Hit, on the zero residue.
        let u = (((1u64 << 53) / 3 + 1) as f64) / (1u64 << 53) as f64;
        assert_eq!(u * 3.0, 1.0);
        let got = memo_hop(
            &engine,
            &mut state,
            s,
            &mut Scripted(vec![u]),
            &mut scratch,
            &mut kept,
        );
        assert_eq!(
            got,
            HopOutcome::Migrated(Decision::User(UserId::new(0), AgentId::new(0)))
        );
        let c = &scratch.candidates;
        assert_eq!((c.swept, c.bounded, c.folded), (0, 0, 1));
        let want = eager_hop(&engine, &mut twin, s, 400.0, &mut Scripted(vec![u]));
        assert_eq!(got, want);
        assert_eq!(state.assignment(), twin.assignment());
        assert_eq!(state.objective().to_bits(), twin.objective().to_bits());
        // Away from the zero residue the same memo asks nobody.
        let (mut state, mut kept) = (tied_twins_state(), None);
        memo_hop(
            &engine,
            &mut state,
            s,
            &mut Scripted(vec![0.1]),
            &mut scratch,
            &mut kept,
        );
        let got = memo_hop(
            &engine,
            &mut state,
            s,
            &mut Scripted(vec![0.4]),
            &mut scratch,
            &mut kept,
        );
        assert_eq!(
            got,
            HopOutcome::Migrated(Decision::User(UserId::new(0), AgentId::new(2)))
        );
        assert_eq!(scratch.candidates.folded, 0);
    }

    /// The step's sampler over a fully resolved list matches the eager
    /// sampler draw for draw.
    #[test]
    fn gibbs_select_matches_the_eager_sampler() {
        let phis = [100.0, 99.999, 100.004, 250.0, 98.5, 1e12];
        for beta in [0.0, 1.0, 400.0] {
            for k in 0..64 {
                let u = k as f64 / 64.0;
                let mut weights = phis.to_vec();
                let got = sample(beta, 100.0, &mut weights, |_| true, &mut Scripted(vec![u]));
                let want = eager_gibbs_select(beta, 100.0, &phis, &mut Scripted(vec![u]));
                assert_eq!(got, want, "β = {beta}, u = {u}");
            }
        }
    }
}
