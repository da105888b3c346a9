//! Assignment algorithms of the paper, plus exact baselines.
//!
//! * [`nearest`] — the **Nrst** policy (users to their lowest-latency
//!   agent), the user-placement rule of Airlift and vSkyConf and the
//!   paper's comparison baseline;
//! * [`placement`] — the transcoding-task rule of thumb of Sec. IV-B
//!   (shared-target groups at the source agent, singletons at the
//!   destination agent);
//! * [`agrank`] — **Alg. 2, AgRank**: proximity- and resource-aware agent
//!   ranking by random walk over the normalized inter-agent delay matrix;
//! * [`admission`] — sequential session admission under capacity limits
//!   (the success-rate experiments of Fig. 9);
//! * [`markov`] — **Alg. 1**: the Markov-approximation assignment
//!   algorithm (per-session WAIT/HOP with Gibbs-weighted migration);
//! * [`churn`] — agent-failure evacuation: the target rule the fleet's
//!   evacuations pick through ([`churn::pick_target`]), feasibility-aware
//!   with forced fallback, and the closed-world reference
//!   ([`churn::evacuate_agent`]) they are checked against;
//! * [`brute_force`] — exact enumeration of the feasible set `F`, the true
//!   optimum, and a bridge to `vc-markov`'s exact chain analysis;
//! * [`local_search`] — greedy steepest-descent baseline.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod agrank;
pub mod brute_force;
pub mod churn;
pub mod local_search;
pub mod markov;
pub mod nearest;
pub mod placement;

pub use admission::{
    admit_all, AdmissionConfig, AdmissionDecision, AdmissionDiagnostics, AdmissionEngine,
    AdmissionFailure, AdmissionOutcome, AdmissionPolicy, AdmissionStats, AdmissionTier,
};
pub use agrank::{AgRankConfig, AgentRanking};
pub use brute_force::Enumeration;
pub use markov::{Alg1Config, Alg1Engine};

#[cfg(test)]
pub(crate) mod test_fixtures;
