//! Measurement-noise models for delay matrices.
//!
//! RTT measurements of `D` and `H` are imperfect; [`DelayJitter`] models
//! that with multiplicative uniform noise. (The *objective-value* noise
//! model of Theorem 1 lives in `vc-markov::perturb`, next to the theory
//! that consumes it.)

use rand::Rng;
use vc_model::{DelayMatrices, Matrix};

/// Multiplicative uniform measurement noise for delay matrices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayJitter {
    frac: f64,
}

impl DelayJitter {
    /// Noise amplitude as a fraction: each entry is scaled by a factor drawn
    /// uniformly from `[1−frac, 1+frac]`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ frac < 1`.
    pub fn new(frac: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&frac),
            "noise fraction must be in [0, 1)"
        );
        Self { frac }
    }

    /// Noise amplitude.
    pub fn frac(&self) -> f64 {
        self.frac
    }

    /// Returns a perturbed copy of the delay matrices (inter-agent matrix
    /// stays symmetric with a zero diagonal).
    pub fn perturb<R: Rng + ?Sized>(&self, delays: &DelayMatrices, rng: &mut R) -> DelayMatrices {
        let nl = delays.num_agents();
        let nu = delays.num_users();
        let mut d = Matrix::filled(nl, nl, 0.0);
        for l in 0..nl {
            for k in (l + 1)..nl {
                let factor = 1.0 + self.frac * (2.0 * rng.gen::<f64>() - 1.0);
                let v = delays.inter_agent().at(l, k) * factor;
                d.set(l, k, v);
                d.set(k, l, v);
            }
        }
        let mut h = Matrix::filled(nl, nu, 0.0);
        for l in 0..nl {
            for u in 0..nu {
                let factor = 1.0 + self.frac * (2.0 * rng.gen::<f64>() - 1.0);
                h.set(l, u, delays.agent_user().at(l, u) * factor);
            }
        }
        DelayMatrices::new(d, h).expect("perturbed delays remain valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn matrices() -> DelayMatrices {
        let d = Matrix::from_rows(2, 2, vec![0.0, 100.0, 100.0, 0.0]).unwrap();
        let h = Matrix::from_rows(2, 2, vec![10.0, 20.0, 30.0, 40.0]).unwrap();
        DelayMatrices::new(d, h).unwrap()
    }

    #[test]
    fn jitter_preserves_matrix_invariants() {
        let dm = matrices();
        let jitter = DelayJitter::new(0.2);
        let mut rng = StdRng::seed_from_u64(5);
        let p = jitter.perturb(&dm, &mut rng);
        assert_eq!(p.inter_agent().at(0, 0), 0.0);
        let v01 = p.inter_agent().at(0, 1);
        assert_eq!(v01, p.inter_agent().at(1, 0));
        assert!((80.0..=120.0).contains(&v01), "jittered {v01}");
    }

    #[test]
    fn zero_jitter_is_identity() {
        let dm = matrices();
        let jitter = DelayJitter::new(0.0);
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(jitter.perturb(&dm, &mut rng), dm);
    }

    #[test]
    fn jitter_bounds_hold_over_many_draws() {
        let dm = matrices();
        let jitter = DelayJitter::new(0.1);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..200 {
            let p = jitter.perturb(&dm, &mut rng);
            for u in 0..2 {
                for l in 0..2 {
                    let orig = dm.agent_user().at(l, u);
                    let new = p.agent_user().at(l, u);
                    assert!(new >= orig * 0.9 - 1e-12 && new <= orig * 1.1 + 1e-12);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "noise fraction")]
    fn out_of_range_fraction_panics() {
        let _ = DelayJitter::new(1.0);
    }
}
