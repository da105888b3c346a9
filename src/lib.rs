//! # cloud-vc — Cost-Effective Low-Delay Cloud Video Conferencing
//!
//! A complete implementation of Hajiesmaili et al., *"Cost-Effective
//! Low-Delay Cloud Video Conferencing"* (IEEE ICDCS 2015): the
//! user-to-agent assignment problem (UAP), the Markov
//! approximation-based distributed assignment algorithm (Alg. 1), the
//! AgRank bootstrap (Alg. 2), the nearest-assignment baseline, and the
//! full evaluation substrate (geography-driven latency model, cost
//! model, discrete-event conferencing simulator, workload generators).
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! namespace.
//!
//! ## Quick start
//!
//! ```
//! use cloud_vc::prelude::*;
//! use std::sync::Arc;
//!
//! // The paper's Fig. 2 scenario with measured latencies.
//! let instance = cloud_vc::net::fig2::instance();
//! let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
//!
//! // Nearest assignment (the Airlift/vSkyConf policy)…
//! let nrst = cloud_vc::algo::nearest::nearest_assignment(&problem);
//! let mut state = SystemState::new(problem.clone(), nrst);
//! let before = state.objective();
//!
//! // …improved by the Markov approximation algorithm.
//! let engine = Alg1Engine::new(Alg1Config::paper(400.0));
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! use rand::SeedableRng;
//! engine.run(&mut state, 600.0, &mut rng);
//! assert!(state.objective() <= before);
//! ```
//!
//! ## Crate map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`model`] | `vc-model` | users, sessions, representations, agents, delay matrices |
//! | [`net`] | `vc-net` | geography, latency synthesis, Fig. 2 data |
//! | [`cost`] | `vc-cost` | bandwidth/transcoding/delay cost shapes, α weights |
//! | [`core`] | `vc-core` | UAP: assignment state, constraints, objective, neighborhoods |
//! | [`markov`] | `vc-markov` | Markov approximation theory: Gibbs, CTMC, Theorem 1 |
//! | [`algo`] | `vc-algo` | Alg. 1, AgRank, Nrst, admission, exact solvers |
//! | [`sim`] | `vc-sim` | discrete-event conferencing simulator, metrics, streaming |
//! | [`workloads`] | `vc-workloads` | prototype, Internet-scale & dynamic-fleet generators |
//! | [`orchestrator`] | `vc-orchestrator` | online multi-session control plane: sharded capacity ledger, admission, re-optimization workers |
//! | [`persist`] | `vc-persist` | durability: hand-rolled binary codec, CRC-framed write-ahead journal, snapshots, crash recovery |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vc_algo as algo;
pub use vc_core as core;
pub use vc_cost as cost;
pub use vc_markov as markov;
pub use vc_model as model;
pub use vc_net as net;
pub use vc_orchestrator as orchestrator;
pub use vc_persist as persist;
pub use vc_sim as sim;
pub use vc_workloads as workloads;

/// The most commonly used types, importable in one line.
pub mod prelude {
    pub use vc_algo::admission::{
        admit_all, AdmissionEngine, AdmissionOutcome, AdmissionPolicy, AdmissionTier,
    };
    pub use vc_algo::agrank::{agrank_assignment, AgRankConfig};
    pub use vc_algo::churn::evacuate_agent;
    pub use vc_algo::markov::{Alg1Config, Alg1Engine, HopOutcome};
    pub use vc_algo::nearest::nearest_assignment;
    pub use vc_core::{Assignment, Decision, SystemState, UapProblem};
    pub use vc_cost::{CostModel, ObjectiveWeights};
    pub use vc_model::{
        AgentDef, AgentId, AgentSpec, Capacity, Instance, InstanceBuilder, ReprId, ReprLadder,
        SessionDef, SessionId, UserDef, UserId,
    };
    pub use vc_orchestrator::{
        Fleet, FleetConfig, FleetSnapshot, Orchestrator, OrchestratorConfig, PersistConfig,
        PlacementPolicy, RecoveryReport, TimerEntry,
    };
    pub use vc_persist::FsyncPolicy;
    pub use vc_sim::{ConferenceSim, DynamicsEvent, SimConfig, SimReport};
    pub use vc_workloads::{
        dynamic_trace, large_scale_instance, open_world_trace, prototype_instance,
        DynamicTraceConfig, FleetEvent, FleetTrace, LargeScaleConfig, OpenWorldConfig,
        OpenWorldEvent, OpenWorldTrace, PrototypeConfig,
    };
}
