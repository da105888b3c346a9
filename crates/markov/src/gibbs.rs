//! The log-sum-exp approximation and its Gibbs target distribution.
//!
//! Solving the KKT conditions of problem UAP-β gives the optimal
//! time-sharing weights `p*_f = exp(−βΦ_f) / Σ_{f'} exp(−βΦ_{f'})`
//! (Eq. 9), with the approximation sandwich (Eq. 10):
//!
//! ```text
//! min Φ_f − log|F|/β  ≤  Φ̂  ≤  min Φ_f .
//! ```

/// The Gibbs distribution `p*_f ∝ exp(−βΦ_f)`, computed stably
/// (energies are shifted by their minimum before exponentiation).
///
/// # Panics
///
/// Panics if `energies` is empty, any energy is non-finite, or `β < 0`.
pub fn gibbs(energies: &[f64], beta: f64) -> Vec<f64> {
    assert!(!energies.is_empty(), "need at least one state");
    assert!(beta >= 0.0, "beta must be non-negative");
    assert!(
        energies.iter().all(|e| e.is_finite()),
        "energies must be finite"
    );
    let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
    let weights: Vec<f64> = energies.iter().map(|e| (-beta * (e - min)).exp()).collect();
    let z: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / z).collect()
}

/// Expected energy `Σ_f p_f Φ_f` under a distribution.
///
/// # Panics
///
/// Panics if lengths disagree.
pub fn expected_energy(probs: &[f64], energies: &[f64]) -> f64 {
    assert_eq!(probs.len(), energies.len(), "length mismatch");
    probs.iter().zip(energies).map(|(p, e)| p * e).sum()
}

/// The optimality-gap bound of Eqs. (10)/(12): `log|F| / β` (natural log).
/// With `|F| ≤ L^(U+θ_sum)` this specializes to the paper's
/// `(U+θ_sum)·log L / β`.
///
/// # Panics
///
/// Panics if `β ≤ 0` or `num_states == 0`.
pub fn gap_bound(num_states: usize, beta: f64) -> f64 {
    assert!(beta > 0.0, "beta must be positive");
    assert!(num_states > 0, "need at least one state");
    (num_states as f64).ln() / beta
}

/// The optimal objective `Φ̂` of the smoothed problem UAP-β:
/// `Φ̂ = −(1/β)·log Σ_f exp(−βΦ_f)` (computed stably).
///
/// # Panics
///
/// Panics if `energies` is empty or `β ≤ 0`.
pub fn log_sum_exp_optimum(energies: &[f64], beta: f64) -> f64 {
    assert!(!energies.is_empty(), "need at least one state");
    assert!(beta > 0.0, "beta must be positive");
    let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
    let sum: f64 = energies.iter().map(|e| (-beta * (e - min)).exp()).sum();
    min - sum.ln() / beta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gibbs_sums_to_one_and_prefers_low_energy() {
        let p = gibbs(&[1.0, 2.0, 3.0], 2.0);
        let total: f64 = p.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1] && p[1] > p[2]);
    }

    #[test]
    fn beta_zero_is_uniform() {
        let p = gibbs(&[1.0, 5.0, 100.0], 0.0);
        for x in &p {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn large_beta_concentrates_on_minimum() {
        let p = gibbs(&[1.0, 2.0, 3.0], 100.0);
        assert!(p[0] > 0.999999);
    }

    #[test]
    fn gibbs_is_stable_for_huge_energies() {
        // Naive exp(-β·1e6) underflows; the shifted computation must not.
        let p = gibbs(&[1e6, 1e6 + 1.0], 5.0);
        assert!(p[0] > 0.99);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn expected_energy_interpolates() {
        let e = [10.0, 20.0];
        let avg = expected_energy(&gibbs(&e, 0.0), &e);
        assert!((avg - 15.0).abs() < 1e-12);
    }

    #[test]
    fn gap_bound_matches_eq_10() {
        // For every β the Gibbs expected energy is within log|F|/β of the min.
        let energies = [3.0, 5.0, 9.0, 4.0, 3.5];
        for beta in [0.5, 1.0, 4.0, 20.0] {
            let p = gibbs(&energies, beta);
            let gap = expected_energy(&p, &energies) - 3.0;
            assert!(gap >= -1e-12);
            assert!(
                gap <= gap_bound(energies.len(), beta) + 1e-12,
                "beta {beta}: gap {gap} exceeds bound {}",
                gap_bound(energies.len(), beta)
            );
        }
    }

    #[test]
    fn log_sum_exp_optimum_sandwich() {
        // Eq. (10): Φmin − log|F|/β ≤ Φ̂ ≤ Φmin.
        let energies = [3.0, 5.0, 9.0, 4.0];
        for beta in [0.1, 1.0, 10.0] {
            let opt = log_sum_exp_optimum(&energies, beta);
            assert!(opt <= 3.0 + 1e-12);
            assert!(opt >= 3.0 - gap_bound(energies.len(), beta) - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "beta must be non-negative")]
    fn negative_beta_panics() {
        let _ = gibbs(&[1.0], -1.0);
    }
}
