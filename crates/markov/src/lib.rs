//! Markov approximation framework (Chen et al., IEEE Trans. Inf. Theory
//! 2013 — reference 7 of the paper), independent of the conferencing
//! domain.
//!
//! The framework approximates a combinatorial minimization
//! `min_{f∈F} Φ_f` by the log-sum-exp-smoothed problem **UAP-β**, whose
//! optimum is the Gibbs distribution `p*_f ∝ exp(−βΦ_f)` (Eq. 9 of the
//! paper), and realizes that distribution as the stationary law of a
//! continuous-time Markov chain over `F` whose transitions connect
//! "adjacent" solutions:
//!
//! * [`StateGraph`] — an explicit, enumerable solution space with
//!   energies `Φ_f` and a symmetric adjacency relation;
//! * [`gibbs`] — the target distribution, its expected energy, the
//!   smoothed optimum and the optimality-gap bound `log|F|/β`
//!   (Eqs. 10/12);
//! * [`Ctmc`] — the hopping chain with rates
//!   `q_{f→f'} = τ·exp(½β(Φ_f − Φ_f'))`, exact stationary solution and
//!   detailed-balance verification;
//! * [`perturb`] — Theorem 1's quantized measurement-noise model: the
//!   perturbed stationary distribution (Eq. 11) and the degraded gap
//!   bound (Eq. 13);
//! * [`mixing`] — total-variation distance and mixing-time estimation;
//! * [`kernel`] — the *implemented* hop kernel's exact stationary law
//!   (`∝ Z_f·exp(−βΦ_f)`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod gibbs;
mod graph;
pub mod kernel;
pub mod mixing;
pub mod perturb;

pub use chain::Ctmc;
pub use gibbs::{expected_energy, gap_bound, gibbs, log_sum_exp_optimum};
pub use graph::{GraphError, StateGraph};
pub use kernel::hop_kernel_stationary;
