//! Theorem 1: the perturbed assignment-hopping chain.
//!
//! When the algorithm only observes noisy objective values, the paper
//! models the perturbed `Φ_f` as quantized: it takes value
//! `Φ_f + j·Δ_f/n_f` with probability `η_{j,f}`, `j ∈ {−n_f, …, n_f}`.
//! Theorem 1 shows the perturbed chain's stationary law is
//!
//! ```text
//! p̄_f ∝ δ_f · exp(−βΦ_f),   δ_f = Σ_j η_{j,f} · exp(β·jΔ_f/n_f)   (Eq. 11)
//! ```
//!
//! with optimality gaps (Eqs. 12/13)
//!
//! ```text
//! 0 ≤ Φavg − Φmin ≤ log|F|/β
//! 0 ≤ Φ̄avg − Φmin ≤ log|F|/β + Δmax .
//! ```

use crate::{expected_energy, gap_bound, gibbs, StateGraph};
use rand::Rng;

/// Per-state quantized noise: bound `Δ_f`, levels `n_f`, probabilities
/// `η_{j,f}` over `j = −n..=n`.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseSpec {
    delta: f64,
    levels: i32,
    probs: Vec<f64>,
}

impl NoiseSpec {
    /// Creates a noise spec.
    ///
    /// # Panics
    ///
    /// Panics if `delta < 0`, `levels < 1`, `probs` has length other than
    /// `2·levels+1`, or the probabilities are negative / do not sum to 1.
    pub fn new(delta: f64, levels: i32, probs: Vec<f64>) -> Self {
        assert!(delta >= 0.0, "delta must be non-negative");
        assert!(levels >= 1, "need at least one level");
        assert_eq!(probs.len(), (2 * levels + 1) as usize, "probs cover -n..=n");
        assert!(probs.iter().all(|p| *p >= 0.0), "negative probability");
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "probabilities must sum to 1");
        Self {
            delta,
            levels,
            probs,
        }
    }

    /// Uniform η over the quantization levels.
    pub fn uniform(delta: f64, levels: i32) -> Self {
        let m = (2 * levels + 1) as usize;
        Self::new(delta, levels, vec![1.0 / m as f64; m])
    }

    /// No noise at all (`Δ = 0`).
    pub fn noiseless() -> Self {
        Self::uniform(0.0, 1)
    }

    /// Error bound `Δ_f`.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// `log δ_f(β)`, the log of Eq. (11)'s distortion factor
    /// `δ_f(β) = Σ_j η_j · exp(β·jΔ/n)`, computed stably (log-sum-exp
    /// with max shift), so very large `β·Δ` products stay finite.
    pub fn log_delta_factor(&self, beta: f64) -> f64 {
        let terms: Vec<(f64, f64)> = (-self.levels..=self.levels)
            .filter_map(|j| {
                let p = self.probs[(j + self.levels) as usize];
                if p > 0.0 {
                    let offset = f64::from(j) * self.delta / f64::from(self.levels);
                    Some((p.ln(), beta * offset))
                } else {
                    None
                }
            })
            .collect();
        let max_e = terms
            .iter()
            .map(|(lp, e)| lp + e)
            .fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = terms.iter().map(|(lp, e)| (lp + e - max_e).exp()).sum();
        max_e + sum.ln()
    }

    /// Samples a perturbation offset `j·Δ/n` with probability `η_j` —
    /// what a noisy objective measurement adds to the true `Φ_f`.
    pub fn sample_offset<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let mut x = rng.gen::<f64>();
        for j in -self.levels..=self.levels {
            let p = self.probs[(j + self.levels) as usize];
            if x < p {
                return f64::from(j) * self.delta / f64::from(self.levels);
            }
            x -= p;
        }
        self.delta // numerical fallback: the top level
    }
}

/// The perturbed stationary distribution `p̄` of Eq. (11), computed in
/// log space so huge `β` and `Δ` values cannot overflow.
///
/// # Panics
///
/// Panics if `noise.len() != graph.len()`.
pub fn perturbed_stationary(graph: &StateGraph, beta: f64, noise: &[NoiseSpec]) -> Vec<f64> {
    assert_eq!(noise.len(), graph.len(), "one noise spec per state");
    let log_weights: Vec<f64> = graph
        .energies()
        .iter()
        .zip(noise)
        .map(|(phi, n)| -beta * phi + n.log_delta_factor(beta))
        .collect();
    let max_lw = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = log_weights.iter().map(|lw| (lw - max_lw).exp()).collect();
    let z: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / z).collect()
}

/// The perturbed-chain optimality-gap bound of Eq. (13):
/// `log|F|/β + Δmax`.
pub fn perturbed_gap_bound(num_states: usize, beta: f64, noise: &[NoiseSpec]) -> f64 {
    let delta_max = noise.iter().map(NoiseSpec::delta).fold(0.0f64, f64::max);
    gap_bound(num_states, beta) + delta_max
}

/// Measured optimality gaps `(Φavg − Φmin, Φ̄avg − Φmin)` for a graph under
/// clean and perturbed stationary laws — the quantities bounded by
/// Eqs. (12) and (13).
pub fn measured_gaps(graph: &StateGraph, beta: f64, noise: &[NoiseSpec]) -> (f64, f64) {
    let (_, phi_min) = graph.min_energy();
    let clean = gibbs(graph.energies(), beta);
    let perturbed = perturbed_stationary(graph, beta, noise);
    (
        expected_energy(&clean, graph.energies()) - phi_min,
        expected_energy(&perturbed, graph.energies()) - phi_min,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> StateGraph {
        StateGraph::complete(vec![1.0, 1.8, 2.6, 3.1, 1.2])
    }

    #[test]
    fn noiseless_perturbation_is_gibbs() {
        let g = graph();
        let noise = vec![NoiseSpec::noiseless(); g.len()];
        let p = perturbed_stationary(&g, 2.0, &noise);
        let target = gibbs(g.energies(), 2.0);
        for (a, b) in p.iter().zip(&target) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn theorem1_gap_bounds_hold() {
        let g = graph();
        for beta in [0.5, 2.0, 8.0] {
            for delta in [0.0, 0.3, 1.0] {
                let noise = vec![NoiseSpec::uniform(delta, 3); g.len()];
                let (clean_gap, perturbed_gap) = measured_gaps(&g, beta, &noise);
                assert!(clean_gap >= -1e-12);
                assert!(perturbed_gap >= -1e-12);
                assert!(
                    clean_gap <= gap_bound(g.len(), beta) + 1e-9,
                    "eq 12 violated: {clean_gap}"
                );
                assert!(
                    perturbed_gap <= perturbed_gap_bound(g.len(), beta, &noise) + 1e-9,
                    "eq 13 violated: beta {beta} delta {delta}: {perturbed_gap}"
                );
            }
        }
    }

    #[test]
    fn gap_shrinks_as_beta_grows() {
        let g = graph();
        let noise = vec![NoiseSpec::uniform(0.2, 2); g.len()];
        let (g1, p1) = measured_gaps(&g, 1.0, &noise);
        let (g2, p2) = measured_gaps(&g, 10.0, &noise);
        assert!(g2 < g1);
        assert!(p2 < p1 + 1e-12);
    }

    #[test]
    fn biased_noise_distorts_distribution() {
        let g = StateGraph::complete(vec![1.0, 1.1]);
        // State 0's objective is always over-reported by Δ (mass on +n),
        // making it look worse; state 1 is clean.
        let noise = vec![
            NoiseSpec::new(0.5, 1, vec![0.0, 0.0, 1.0]),
            NoiseSpec::noiseless(),
        ];
        let beta = 5.0;
        let clean = gibbs(g.energies(), beta);
        let perturbed = perturbed_stationary(&g, beta, &noise);
        // δ_0 > 1 actually *increases* p̄_0 relative to clean per Eq. (11):
        // the chain dwells longer in states whose objective fluctuates
        // upward (they are harder to leave when over-reported... the exact
        // direction follows Eq. (11)).
        assert!(perturbed[0] > clean[0]);
        let z: f64 = perturbed.iter().sum();
        assert!((z - 1.0).abs() < 1e-12);
    }

    #[test]
    fn log_delta_factor_matches_direct_and_survives_huge_beta() {
        let n = NoiseSpec::uniform(0.7, 3);
        for beta in [0.0, 1.0, 10.0] {
            let direct: f64 = (-3..=3i32)
                .map(|j| (1.0 / 7.0) * (beta * f64::from(j) * 0.7 / 3.0).exp())
                .sum();
            assert!((n.log_delta_factor(beta) - direct.ln()).abs() < 1e-12);
        }
        // exp(400·10) overflows f64; the log form must stay finite and the
        // perturbed distribution NaN-free.
        let big = NoiseSpec::uniform(10.0, 3);
        assert!(big.log_delta_factor(400.0).is_finite());
        let g = StateGraph::complete(vec![100.0, 500.0, 1200.0]);
        let p = perturbed_stationary(&g, 400.0, &vec![big; 3]);
        assert!(p.iter().all(|x| x.is_finite()));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "one noise spec per state")]
    fn wrong_noise_len_panics() {
        let g = graph();
        let _ = perturbed_stationary(&g, 1.0, &[NoiseSpec::noiseless()]);
    }

    #[test]
    fn sampled_offsets_match_quantization() {
        use rand::{rngs::StdRng, SeedableRng};
        let n = NoiseSpec::uniform(1.0, 2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut mean = 0.0;
        for _ in 0..4000 {
            let o = n.sample_offset(&mut rng);
            assert!(o.abs() <= 1.0 + 1e-12);
            // Offsets land on the grid {-1, -0.5, 0, 0.5, 1}.
            let grid = (o * 2.0).round() / 2.0;
            assert!((o - grid).abs() < 1e-12, "off-grid offset {o}");
            mean += o;
        }
        mean /= 4000.0;
        assert!(
            mean.abs() < 0.05,
            "symmetric noise should average ~0: {mean}"
        );
    }
}
