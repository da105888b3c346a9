//! UAP — the User-to-agent Assignment Problem (Sec. III of the paper).
//!
//! This crate turns a [`vc_model::Instance`] into an optimizable problem:
//!
//! * [`TaskTable`] enumerates the transcoding tasks implied by the
//!   transcoding matrix `θ` (one per directed flow `u→v` whose upstream
//!   and demanded representations differ);
//! * [`Assignment`] holds the decision variables — `λ_lu` as a
//!   user→agent map and `γ_lruv` as a task→agent map;
//! * [`evaluate::SessionLoad`] computes, per session, the exact traffic
//!   accounting `μ_klu` of the paper's capacity constraints (5)–(6), the
//!   transcoding occupancy `ν_lru` of (7), the end-to-end flow delays
//!   `d_uv` of (8), and the local objective
//!   `Φ_s = α1·F(d_s) + α2·G(x_s) + α3·H(y_s)`;
//! * [`SystemState`] maintains the global picture incrementally: apply a
//!   single-decision change and only the affected session is re-evaluated,
//!   with global capacity checks against cached per-agent totals;
//! * [`neighborhood`] enumerates the feasible single-decision-change moves
//!   that both Alg. 1 (Markov hopping) and the local-search baselines use.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vc_core::{Assignment, SystemState, UapProblem};
//! use vc_cost::CostModel;
//!
//! let instance = vc_net_free_example();
//! let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
//! // Assign everyone to agent 0, tasks to agent 0.
//! let assignment = Assignment::all_to_agent(&problem, 0u32.into());
//! let state = SystemState::new(problem, assignment);
//! assert!(state.objective() > 0.0);
//!
//! # use vc_model::{AgentSpec, Instance, InstanceBuilder, ReprLadder};
//! # fn vc_net_free_example() -> Instance {
//! #     let ladder = ReprLadder::standard_four();
//! #     let hi = ladder.highest();
//! #     let lo = ladder.lowest();
//! #     let mut b = InstanceBuilder::new(ladder);
//! #     b.add_agent(AgentSpec::builder("a").build());
//! #     b.add_agent(AgentSpec::builder("b").build());
//! #     let s = b.add_session();
//! #     b.add_user(s, hi, lo);
//! #     b.add_user(s, lo, lo);
//! #     b.symmetric_delays(|_, _| 30.0, |l, u| 10.0 + (l as f64) * 5.0 + (u as f64));
//! #     b.build().unwrap()
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod assignment;
pub mod evaluate;
pub mod neighborhood;
mod problem;
mod state;
mod tasks;
#[cfg(test)]
pub(crate) mod test_fixtures;
mod violation;

pub use assignment::{Assignment, Decision};
pub use evaluate::{AgentDemand, EvalScratch, SessionLoad};
pub use problem::UapProblem;
pub use state::{
    agent_fits, demand_fits, fits, AgentTotals, FreeCapacity, Held, SystemState, CAPACITY_EPS,
};
pub use tasks::{TaskId, TaskTable, TranscodeTask};
pub use violation::Violation;
