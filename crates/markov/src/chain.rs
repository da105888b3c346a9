//! The assignment-hopping continuous-time Markov chain.
//!
//! Between adjacent solutions `f` and `f'` the paper sets the transition
//! rate `q_{f→f'} = τ·exp(½β(Φ_f − Φ_{f'}))`. Together with the Gibbs
//! target `p*_f ∝ exp(−βΦ_f)` this satisfies detailed balance:
//!
//! ```text
//! p*_f·q_{f→f'} = τ·exp(−½β(Φ_f + Φ_{f'})) = p*_{f'}·q_{f'→f} ,
//! ```
//!
//! so the chain converges to `p*` (Proposition 1). This module provides
//! the exact generator and an exact stationary solve (for verification
//! on enumerable spaces).

use crate::{gibbs, StateGraph};

/// Exponent clamp guarding `exp(½β·ΔΦ)` against overflow for large β.
const MAX_EXPONENT: f64 = 600.0;

/// The continuous-time assignment-hopping chain over a [`StateGraph`].
#[derive(Debug, Clone)]
pub struct Ctmc {
    graph: StateGraph,
    beta: f64,
    tau: f64,
}

impl Ctmc {
    /// Creates the chain with inverse temperature `β` and clock rate `τ`.
    ///
    /// # Panics
    ///
    /// Panics if `β < 0` or `τ ≤ 0`.
    pub fn new(graph: StateGraph, beta: f64, tau: f64) -> Self {
        assert!(beta >= 0.0, "beta must be non-negative");
        assert!(tau > 0.0, "tau must be positive");
        Self { graph, beta, tau }
    }

    /// The underlying state graph.
    pub fn graph(&self) -> &StateGraph {
        &self.graph
    }

    /// Inverse temperature β.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Transition rate `q_{f→f'}`; zero for non-adjacent pairs.
    pub fn rate(&self, from: usize, to: usize) -> f64 {
        if !self.graph.neighbors(from).contains(&to) {
            return 0.0;
        }
        let exponent = (0.5 * self.beta * (self.graph.energy(from) - self.graph.energy(to)))
            .clamp(-MAX_EXPONENT, MAX_EXPONENT);
        self.tau * exponent.exp()
    }

    /// Dense generator matrix `Q` (row sums zero).
    pub fn generator(&self) -> Vec<Vec<f64>> {
        let n = self.graph.len();
        let mut q = vec![vec![0.0; n]; n];
        for (i, row) in q.iter_mut().enumerate() {
            let mut total = 0.0;
            for &j in self.graph.neighbors(i) {
                let r = self.rate(i, j);
                row[j] = r;
                total += r;
            }
            row[i] = -total;
        }
        q
    }

    /// The Gibbs target `p*` (Eq. 9) for this chain's β.
    pub fn target(&self) -> Vec<f64> {
        gibbs(self.graph.energies(), self.beta)
    }

    /// Maximum detailed-balance residual
    /// `max_{f~f'} |p*_f·q_{f→f'} − p*_{f'}·q_{f'→f}|` — analytically zero,
    /// near machine precision numerically.
    pub fn detailed_balance_residual(&self) -> f64 {
        let p = self.target();
        let mut worst: f64 = 0.0;
        for i in 0..self.graph.len() {
            for &j in self.graph.neighbors(i) {
                worst = worst.max((p[i] * self.rate(i, j) - p[j] * self.rate(j, i)).abs());
            }
        }
        worst
    }

    /// Exact stationary distribution.
    ///
    /// Primary method: solve the balance equations `πQ = 0`, `Σπ = 1`
    /// directly (Gaussian elimination with partial pivoting on the
    /// max-rate-normalized generator) — an *independent* verification of
    /// the Gibbs form. When the rate spread of a very large β makes that
    /// system numerically singular, falls back to the log-space
    /// spanning-tree construction for reversible chains, validating the
    /// Kolmogorov criterion on every non-tree edge.
    ///
    /// # Panics
    ///
    /// Panics if the graph is not connected (no unique stationary law),
    /// or if the fallback detects a violation of reversibility.
    pub fn stationary_exact(&self) -> Vec<f64> {
        assert!(
            self.graph.is_connected(),
            "stationary distribution requires a connected graph"
        );
        match self.solve_balance_equations() {
            Some(pi) => pi,
            None => self.stationary_reversible_log(),
        }
    }

    /// Gaussian elimination on `Qᵀx = 0` with the normalization row;
    /// `None` when the normalized system is too ill-conditioned.
    fn solve_balance_equations(&self) -> Option<Vec<f64>> {
        let n = self.graph.len();
        let q = self.generator();
        // Normalize by the largest rate: the stationary law is invariant
        // under scaling Q, and entries in [-1, 1] condition the solve.
        let max_rate = q
            .iter()
            .flat_map(|row| row.iter().map(|v| v.abs()))
            .fold(0.0f64, f64::max)
            .max(1e-300);
        let mut a = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                a[j][i] = q[i][j] / max_rate;
            }
        }
        a[n - 1].fill(1.0);
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        for col in 0..n {
            let pivot = (col..n).max_by(|&r1, &r2| {
                a[r1][col]
                    .abs()
                    .partial_cmp(&a[r2][col].abs())
                    .expect("finite entries")
            })?;
            if a[pivot][col].abs() < 1e-13 {
                return None; // numerically singular: extreme rate spread
            }
            a.swap(col, pivot);
            b.swap(col, pivot);
            let diag = a[col][col];
            for row in (col + 1)..n {
                let factor = a[row][col] / diag;
                if factor != 0.0 {
                    let (upper, lower) = a.split_at_mut(row);
                    let pivot_row = &upper[col];
                    for (k, entry) in lower[0].iter_mut().enumerate().skip(col) {
                        *entry -= factor * pivot_row[k];
                    }
                    b[row] -= factor * b[col];
                }
            }
        }
        let mut x = vec![0.0; n];
        for row in (0..n).rev() {
            let mut acc = b[row];
            for k in (row + 1)..n {
                acc -= a[row][k] * x[k];
            }
            x[row] = acc / a[row][row];
        }
        for v in &mut x {
            if !v.is_finite() {
                return None;
            }
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        let z: f64 = x.iter().sum();
        if z <= 0.0 {
            return None;
        }
        Some(x.iter().map(|v| v / z).collect())
    }

    /// Log of the transition rate, computed without the overflow clamp —
    /// valid for the fallback's log-space arithmetic only.
    fn log_rate(&self, from: usize, to: usize) -> f64 {
        self.tau.ln() + 0.5 * self.beta * (self.graph.energy(from) - self.graph.energy(to))
    }

    /// Spanning-tree stationary construction for reversible chains:
    /// `log π_v − log π_u = log q(u→v) − log q(v→u)` along tree edges,
    /// with every non-tree edge checked for consistency (Kolmogorov
    /// criterion).
    fn stationary_reversible_log(&self) -> Vec<f64> {
        let n = self.graph.len();
        let mut log_w = vec![f64::NAN; n];
        log_w[0] = 0.0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for &v in self.graph.neighbors(u) {
                let via_u = log_w[u] + self.log_rate(u, v) - self.log_rate(v, u);
                if log_w[v].is_nan() {
                    log_w[v] = via_u;
                    queue.push_back(v);
                } else {
                    let scale = 1.0 + log_w[v].abs().max(via_u.abs());
                    assert!(
                        (log_w[v] - via_u).abs() < 1e-6 * scale,
                        "Kolmogorov criterion violated on edge {u}–{v}: chain not reversible"
                    );
                }
            }
        }
        let max_lw = log_w.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = log_w.iter().map(|lw| (lw - max_lw).exp()).collect();
        let z: f64 = weights.iter().sum();
        weights.into_iter().map(|w| w / z).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mixing::total_variation;

    fn small_chain(beta: f64) -> Ctmc {
        // A 4-cycle with distinct energies.
        let g = StateGraph::new(
            vec![1.0, 2.0, 3.0, 2.5],
            vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![2, 0]],
        )
        .unwrap();
        Ctmc::new(g, beta, 1.0)
    }

    #[test]
    fn detailed_balance_holds() {
        let c = small_chain(2.0);
        assert!(c.detailed_balance_residual() < 1e-14);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let c = small_chain(1.5);
        for row in c.generator() {
            let s: f64 = row.iter().sum();
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn exact_stationary_matches_gibbs() {
        for beta in [0.0, 0.7, 3.0] {
            let c = small_chain(beta);
            let pi = c.stationary_exact();
            let target = c.target();
            assert!(
                total_variation(&pi, &target) < 1e-9,
                "beta {beta}: tv {}",
                total_variation(&pi, &target)
            );
        }
    }

    #[test]
    fn rates_respect_energy_differences() {
        let c = small_chain(2.0);
        // Downhill rate exceeds uphill rate.
        assert!(c.rate(1, 0) > c.rate(0, 1));
        // Non-adjacent pairs have zero rate.
        assert_eq!(c.rate(0, 2), 0.0);
    }

    #[test]
    fn extreme_beta_does_not_overflow() {
        let c = small_chain(1e6);
        assert!(c.rate(2, 1).is_finite());
        assert!(c.rate(1, 2).is_finite());
        assert!(c.rate(1, 2) >= 0.0);
    }
}
