//! Discrete-event conferencing simulator.
//!
//! Replaces the paper's C++/OpenCV prototype testbed (Sec. V-A): it runs
//! Alg. 1's per-session WAIT/HOP loops in simulated continuous time with
//! FREEZE-serialized migrations, injects session arrivals/departures,
//! and samples the two reported metrics — total inter-agent traffic and
//! mean conferencing delay — once per simulated second, producing
//! exactly the time series plotted in Figs. 4–7.
//!
//! A frame-level streaming simulator ([`streaming`]) reproduces the
//! migration-interruption micro-experiment and prices a migration: 2–3
//! frozen frames at 30 fps without dual-feed, zero with it, at ~13 Kb
//! of redundant traffic per switch.
//!
//! The runtime is the deterministic discrete-event [`ConferenceSim`]
//! over a closed world: it injects no agent failures — failures,
//! drains and restores run on `vc-orchestrator`'s fleet, whose
//! evacuations are journaled and replayed. Alg. 1 on real threads is
//! `vc-orchestrator`'s `ReoptPool::run_wall`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
pub mod metrics;
mod runtime;
pub mod streaming;

pub use metrics::BoxStats;
pub use runtime::{ArrivalPolicy, ConferenceSim, DynamicsEvent, HopRecord, SimConfig, SimReport};
