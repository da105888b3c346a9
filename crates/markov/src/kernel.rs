//! The *implemented* hop kernel vs. the idealized CTMC.
//!
//! Alg. 1's HOP step is a discrete-time jump chain: in state `f` it picks
//! the next state among `{f} ∪ N(f)` with probability proportional to
//! `w(f→g) = exp(½β(Φ_f − Φ_g))` (and weight 1 for staying). Because the
//! normalization `Z_f = 1 + Σ_g w(f→g)` varies across states, the jump
//! chain's stationary law is *not* exactly the Gibbs target of the
//! idealized CTMC but the `Z_f`-distorted
//!
//! ```text
//! π_kernel(f) ∝ Z_f · exp(−βΦ_f) ,
//! ```
//!
//! which still satisfies detailed balance and converges to the Gibbs law
//! as neighborhoods homogenize (regular graphs at low β) or as β grows
//! (both concentrate on the optimum). This module computes the kernel
//! stationary exactly; its tests measure the distortion.

use crate::StateGraph;

/// Exponent clamp consistent with the engine implementations.
const MAX_EXPONENT: f64 = 600.0;

/// The exact stationary distribution of the hop kernel
/// `π_kernel(f) ∝ Z_f·exp(−βΦ_f)`, computed stably in log space.
///
/// # Panics
///
/// Panics if `β < 0`.
pub fn hop_kernel_stationary(graph: &StateGraph, beta: f64) -> Vec<f64> {
    assert!(beta >= 0.0, "beta must be non-negative");
    let min_e = graph.min_energy().1;
    let log_weights: Vec<f64> = (0..graph.len())
        .map(|f| {
            let z_f: f64 = 1.0
                + graph
                    .neighbors(f)
                    .iter()
                    .map(|&g| {
                        (0.5 * beta * (graph.energy(f) - graph.energy(g)))
                            .clamp(-MAX_EXPONENT, MAX_EXPONENT)
                            .exp()
                    })
                    .sum::<f64>();
            z_f.ln() - beta * (graph.energy(f) - min_e)
        })
        .collect();
    let max_lw = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = log_weights.iter().map(|lw| (lw - max_lw).exp()).collect();
    let z: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / z).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gibbs, mixing::total_variation};

    /// Total-variation distance between the hop kernel's stationary law
    /// and the Gibbs target: the price of the jump chain's `Z_f`.
    fn distortion(graph: &StateGraph, beta: f64) -> f64 {
        total_variation(
            &hop_kernel_stationary(graph, beta),
            &gibbs(graph.energies(), beta),
        )
    }

    fn cube() -> StateGraph {
        // A 3-cube with energies spread over [0, 4].
        let energies = vec![0.0, 1.0, 2.0, 1.5, 0.5, 2.5, 3.0, 4.0];
        let adjacency = (0..8usize)
            .map(|i| (0..3).map(|b| i ^ (1 << b)).collect())
            .collect();
        StateGraph::new(energies, adjacency).unwrap()
    }

    #[test]
    fn kernel_stationary_is_a_distribution() {
        let g = cube();
        for beta in [0.0, 0.5, 5.0, 500.0] {
            let p = hop_kernel_stationary(&g, beta);
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(p.iter().all(|x| *x >= 0.0 && x.is_finite()));
        }
    }

    #[test]
    fn beta_zero_on_regular_graph_is_uniform() {
        // All Z_f equal on a regular graph at β = 0 → uniform stationary.
        let g = cube();
        let p = hop_kernel_stationary(&g, 0.0);
        for x in &p {
            assert!((x - 0.125).abs() < 1e-12);
        }
        assert!(distortion(&g, 0.0) < 1e-12);
    }

    #[test]
    fn distortion_vanishes_at_high_beta() {
        // Both laws concentrate on the optimum.
        let g = cube();
        let low = distortion(&g, 0.5);
        let high = distortion(&g, 50.0);
        // The residual scales like exp(−β·Δmin/2) from the Z_f of the
        // optimum's neighbors — ~4e-6 here.
        assert!(high < 1e-4, "high-β distortion {high}");
        assert!(high <= low + 1e-12);
    }

    #[test]
    fn kernel_satisfies_its_own_detailed_balance() {
        // π(f)·w(f→g)/Z_f symmetric in (f, g).
        let g = cube();
        let beta = 1.3;
        let p = hop_kernel_stationary(&g, beta);
        let z = |f: usize| -> f64 {
            1.0 + g
                .neighbors(f)
                .iter()
                .map(|&h| (0.5 * beta * (g.energy(f) - g.energy(h))).exp())
                .sum::<f64>()
        };
        for f in 0..g.len() {
            for &h in g.neighbors(f) {
                let flow_fh = p[f] * (0.5 * beta * (g.energy(f) - g.energy(h))).exp() / z(f);
                let flow_hf = p[h] * (0.5 * beta * (g.energy(h) - g.energy(f))).exp() / z(h);
                assert!(
                    (flow_fh - flow_hf).abs() < 1e-12,
                    "detailed balance broken on {f}–{h}"
                );
            }
        }
    }

    #[test]
    fn distortion_bounded_by_degree_spread() {
        // An irregular graph (star) has maximal Z_f spread; the distortion
        // is visible but bounded well below total variation 1.
        let energies = vec![1.0, 1.0, 1.0, 1.0, 1.0];
        let adjacency = vec![vec![1, 2, 3, 4], vec![0], vec![0], vec![0], vec![0]];
        let g = StateGraph::new(energies, adjacency).unwrap();
        let d = distortion(&g, 0.0);
        // Equal energies, unequal degrees: kernel favors the hub.
        assert!(d > 0.05 && d < 0.5, "distortion {d}");
    }
}
