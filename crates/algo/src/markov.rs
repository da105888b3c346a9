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

use rand::Rng;
use vc_core::{neighborhood, Decision, EvalScratch, SystemState};
use vc_markov::perturb::NoiseSpec;
use vc_model::SessionId;

/// Exponent clamp for the Gibbs weights (β·ΔΦ can overflow `exp`).
const MAX_EXPONENT: f64 = 600.0;

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

    /// Chooses β "proportional to the logarithm of the problem state
    /// space" — `scale · (U+θ_sum)·log L` — as the paper prescribes.
    pub fn beta_for_state_space(problem: &vc_core::UapProblem, scale: f64) -> f64 {
        scale * problem.log_state_space().max(1.0)
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

/// Reusable per-worker buffers for the allocation-free HOP path: the
/// evaluation scratch plus the feasible-candidate and Gibbs-weight
/// vectors. One per worker thread; steady-state hops allocate nothing.
#[derive(Debug, Default)]
pub struct HopScratch {
    /// The neighbourhood kernel's buffers (the orchestrator's
    /// slot-based hop drives its own kernel over the same ones).
    pub eval: EvalScratch,
    /// Feasible decisions of the current neighborhood, in enumeration
    /// order.
    pub decisions: Vec<Decision>,
    /// The (possibly noise-observed) `Φ_s` of each feasible decision.
    pub phis: Vec<f64>,
    /// Gibbs exponents (`exponents[0]` is the stay option).
    pub exponents: Vec<f64>,
}

impl HopScratch {
    /// An empty scratch; buffers size themselves on first use.
    pub fn new() -> Self {
        Self::default()
    }
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

    /// Executes one HOP for session `s` (Lines 9–15 of Alg. 1): samples a
    /// target assignment among the feasible single-decision neighbors
    /// (plus staying put) with Gibbs weights on the session's local
    /// objective, and applies it.
    pub fn hop<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        s: SessionId,
        rng: &mut R,
    ) -> HopOutcome {
        self.hop_with_beta(state, s, self.config.beta, rng)
    }

    /// [`hop`](Self::hop) with an explicit β — the primitive behind
    /// annealed schedules, where β grows over time to tighten the
    /// optimality gap (Eq. 12) after the chain has explored.
    pub fn hop_with_beta<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        s: SessionId,
        beta: f64,
        rng: &mut R,
    ) -> HopOutcome {
        let mut scratch = HopScratch::new();
        self.hop_with_beta_scratch(state, s, beta, rng, &mut scratch)
    }

    /// [`hop`](Self::hop) reusing caller-owned buffers — the
    /// allocation-free form worker pools drive.
    pub fn hop_scratch<R: Rng + ?Sized>(
        &self,
        state: &mut SystemState,
        s: SessionId,
        rng: &mut R,
        scratch: &mut HopScratch,
    ) -> HopOutcome {
        self.hop_with_beta_scratch(state, s, self.config.beta, rng, scratch)
    }

    /// The HOP primitive: weighs the single-decision neighbourhood
    /// through `scratch` (one conference compilation, no assignment
    /// clone, no per-candidate allocation), Gibbs-samples over
    /// {stay} ∪ feasible neighbors, and commits the chosen move by
    /// swapping its re-derived load into the state.
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
            decisions,
            phis,
            exponents,
        } = scratch;
        decisions.clear();
        phis.clear();
        let mut hood = neighborhood::sweep_feasible(state, s, eval, |decision, load| {
            decisions.push(decision);
            phis.push(load.phi);
        });
        if decisions.is_empty() {
            return HopOutcome::NoFeasibleMove;
        }
        let phi_now = self.observe(state.session_objective(s), rng);
        for phi in phis.iter_mut() {
            *phi = self.observe(*phi, rng);
        }
        let chosen = self.gibbs_select(beta, phi_now, phis, exponents, rng);
        if chosen == 0 {
            return HopOutcome::Stayed;
        }
        let decision = decisions[chosen - 1];
        hood.candidate(decision);
        state.commit_scratch(decision, eval);
        HopOutcome::Migrated(decision)
    }

    /// Applies the configured measurement-noise model to one observed
    /// `Φ` value (identity — and no RNG consumption — without noise).
    pub fn observe<R: Rng + ?Sized>(&self, phi: f64, rng: &mut R) -> f64 {
        match &self.config.noise {
            Some(noise) => phi + noise.sample_offset(rng),
            None => phi,
        }
    }

    /// Stable Gibbs sampling over {stay} ∪ candidates: exponent_i =
    /// ½β(Φ_now − Φ_i), stay has exponent 0. Returns the chosen index
    /// (0 = stay, `i > 0` = `phis[i − 1]`). `exponents` is a reusable
    /// buffer; one `rng.gen::<f64>()` is consumed.
    pub fn gibbs_select<R: Rng + ?Sized>(
        &self,
        beta: f64,
        phi_now: f64,
        phis: &[f64],
        exponents: &mut Vec<f64>,
        rng: &mut R,
    ) -> usize {
        exponents.clear();
        exponents.push(0.0);
        for &phi_m in phis {
            exponents.push((0.5 * beta * (phi_now - phi_m)).clamp(-MAX_EXPONENT, MAX_EXPONENT));
        }
        let max_e = exponents.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Exponents become weights in place: one `exp` per candidate.
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
        for _ in 0..200 {
            engine.hop(&mut st, SessionId::new(0), &mut rng);
            assert!(st.is_feasible());
        }
    }

    #[test]
    fn high_beta_descends_objective() {
        let mut st = fig2_state();
        let start = st.objective();
        let engine = Alg1Engine::new(Alg1Config::paper(2000.0));
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..300 {
            engine.hop(&mut st, SessionId::new(0), &mut rng);
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
        let mut migrated = 0;
        let mut stayed = 0;
        for _ in 0..300 {
            match engine.hop(&mut st, SessionId::new(0), &mut rng) {
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
        // hop() with config β must equal hop_with_beta(config.beta).
        let engine = Alg1Engine::new(Alg1Config::paper(700.0));
        let mut a = fig2_state();
        let mut b = fig2_state();
        let mut rng_a = StdRng::seed_from_u64(33);
        let mut rng_b = StdRng::seed_from_u64(33);
        for _ in 0..50 {
            let oa = engine.hop(&mut a, SessionId::new(0), &mut rng_a);
            let ob = engine.hop_with_beta(&mut b, SessionId::new(0), 700.0, &mut rng_b);
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
        for _ in 0..300 {
            engine.hop(&mut st, SessionId::new(0), &mut rng);
        }
        assert!(st.objective() < start);
    }
}
