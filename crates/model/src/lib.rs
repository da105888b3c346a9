//! Domain model for cloud-assisted video conferencing.
//!
//! This crate defines the *problem data* of the ICDCS 2015 paper
//! "Cost-Effective Low-Delay Cloud Video Conferencing": conferencing
//! sessions and their users, video representations (format/bitrate
//! ladder), heterogeneous cloud agents, inter-agent and agent-to-user
//! delay matrices, and the transcoding-latency model `σ_l(r1, r2)`.
//!
//! Everything here is plain data with validation; the optimization
//! problem built on top of it (assignment variables, constraints,
//! objective) lives in `vc-core`.
//!
//! # Example
//!
//! ```
//! use vc_model::{InstanceBuilder, ReprLadder, AgentSpec, TranscodeLatencyModel};
//!
//! let ladder = ReprLadder::standard_four();
//! let r360 = ladder.by_name("360p").unwrap().id();
//! let r720 = ladder.by_name("720p").unwrap().id();
//!
//! let mut b = InstanceBuilder::new(ladder);
//! let a0 = b.add_agent(AgentSpec::builder("tokyo").upload_mbps(500.0).build());
//! let a1 = b.add_agent(AgentSpec::builder("oregon").build());
//! let s = b.add_session();
//! b.add_user(s, r720, r360);
//! b.add_user(s, r720, r720);
//! b.symmetric_delays(|_, _| 50.0, |_, _| 10.0);
//! let instance = b.build().unwrap();
//! assert_eq!(instance.num_users(), 2);
//! assert_eq!(instance.num_agents(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agent;
mod delay;
mod error;
mod fleet_trace;
mod ids;
mod instance;
mod repr;
mod series;
mod session;
mod transcode;
mod user;

pub use agent::{AgentBuilder, AgentSpec, Capacity};
pub use delay::{DelayMatrices, Matrix};
pub use error::ModelError;
pub use fleet_trace::{FleetEvent, FleetTrace};
pub use ids::{AgentId, ReprId, SessionId, UserId};
pub use instance::{AgentDef, Instance, InstanceBuilder, SessionDef, UserDef};
pub use repr::{ReprLadder, Representation};
pub use series::TimeSeries;
pub use session::SessionSpec;
pub use transcode::TranscodeLatencyModel;
pub use user::{DownstreamDemand, UserSpec};

/// Maximum acceptable end-to-end conferencing delay in milliseconds,
/// per ITU-T Recommendation G.114 (the paper's `Dmax`).
pub const DEFAULT_D_MAX_MS: f64 = 400.0;
