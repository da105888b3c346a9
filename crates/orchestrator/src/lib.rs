//! `vc-orchestrator` — an online multi-session control plane.
//!
//! The paper's Alg. 1 is explicitly *distributed and online*: sessions
//! arrive, optimize themselves through WAIT/HOP loops, and depart, all
//! against shared agent capacity. The rest of this workspace exercises
//! that algorithm through closed-world drivers (a fixed instance, all
//! sessions known up front); this crate supplies the long-running
//! control plane that owns a *fleet* of concurrent sessions:
//!
//! * [`ledger`] — the **sharded capacity ledger**: per-agent bandwidth
//!   and transcoding-slot totals, moved atomically by the demands
//!   sessions take and give up (a live session's slot is its record),
//!   sharded so concurrent admissions contend only on the agents they
//!   actually touch;
//! * [`fleet`] — the [`Fleet`] API: `admit` (AgRank-bootstrapped
//!   placement against live residuals), `depart` (releases exactly what
//!   was reserved), `fail_agent` (immediate deterministic evacuation,
//!   ledger re-synced), `hop_session` (one Alg. 1 HOP under the
//!   **sharded FREEZE**: hops take a shared lock + their session's
//!   slot, and commit capacity through the ledger's checked
//!   `try_swap`, so hops on different sessions run concurrently; the
//!   slot keeps the hop's *sweep* so that a session that stayed only
//!   *draws* next time — [`fleet`]'s "A hop is a sweep and a draw"), and
//!   `register_session` (**open-world growth**: a never-before-seen
//!   conference joins the universe online — the FREEZE lock owns the
//!   growable problem and the map of *live* sessions' slots; slot
//!   storage and the ledger are untouched until the conference is
//!   admitted), and `register_agent`/`drain_agent`
//!   (**elastic capacity**: agents join named regions online and leave
//!   via planned drains — refuse new holds first, then evacuate);
//! * [`workers`] — the **re-optimization worker pool**: one logical
//!   WAIT/HOP worker per live session, multiplexed over either a
//!   deterministic virtual clock ([`ReoptPool::tick_until`]) or N OS
//!   threads ([`ReoptPool::run_wall`]) racing hops concurrently, each
//!   thread reusing an allocation-free hop scratch;
//! * [`sched`] — the **sharded wakeup queue** under the pool:
//!   sessions map to independent shards, each one ordered set of
//!   pending wakeups behind its own short-held lock with a cached
//!   earliest-due atomic, so waiting sessions dispatch in
//!   deterministic `(due_us, session, epoch)` order with no global
//!   lock (`hop_bench` drives it to 120k sessions);
//! * [`telemetry`] — periodic [`FleetSnapshot`]s (objective, per-agent
//!   utilization, migration counts, admission success rate), each gauge
//!   readable back as a [`vc_model::TimeSeries`];
//! * [`orchestrator`] — the trace-driven [`Orchestrator`] consuming
//!   `vc-workloads`' dynamic arrival/departure traces.
//!
//! # Regions
//!
//! Agents group into named **regions** (one per agent, default
//! `"default"`), served per region on `/metrics`
//! ([`CapacityLedger::region_residuals`]). A placement that spans
//! regions books like any other, with no two-phase protocol: the
//! ledger locks every shard a hold touches before it writes, so a
//! spanning booking is all or nothing ([`CapacityLedger::try_reserve`]),
//! and the fleet journals `FleetOp::Admit` only after booking, so a
//! crash before the append recovers to pre-admission residuals in
//! every region. Agent growth journals `FleetOp::RegisterAgent`
//! (definition + region name), drains `FleetOp::DrainAgent`; the
//! snapshot carries the interleaved session/agent growth log, the
//! drained flags, and the region table (format v6).
//!
//! # Invariants
//!
//! The live sessions' slots are authoritative — a session has a slot
//! exactly while it is live, so the slot map's keys *are* the live set,
//! and a slot's load *is* the session's hold — and the ledger's
//! per-agent totals are moved by exactly the loads the slots take and
//! give up. After *any* sequence of admits, departs, failures and hops
//! — including hops racing on OS threads — [`Fleet::audit`] must return
//! empty: per-agent booked capacity equals the sum of the slot loads.
//! `tests/orchestrator_invariants.rs` and `tests/hop_equivalence.rs`
//! property-test exactly this.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use vc_core::UapProblem;
//! use vc_cost::CostModel;
//! use vc_orchestrator::{Orchestrator, OrchestratorConfig};
//! use vc_workloads::{dynamic_trace, DynamicTraceConfig, large_scale_instance, LargeScaleConfig};
//!
//! let instance = large_scale_instance(&LargeScaleConfig {
//!     num_users: 30,
//!     ..LargeScaleConfig::default()
//! });
//! let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
//! let trace = dynamic_trace(
//!     problem.instance().num_sessions(),
//!     &DynamicTraceConfig {
//!         horizon_s: 20.0,
//!         warm_sessions: 4,
//!         ..DynamicTraceConfig::default()
//!     },
//! );
//! let mut orchestrator = Orchestrator::new(problem, OrchestratorConfig::default());
//! let report = orchestrator.run_trace(&trace, 20.0);
//! assert_eq!(report.final_snapshot.conservation_violations, 0);
//! assert!(report.final_snapshot.admitted >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
pub mod ledger;
pub mod orchestrator;
pub mod persist;
pub mod readmit;
pub mod sched;
mod slot;
pub mod telemetry;
#[cfg(test)]
mod tests;
pub mod workers;

pub use fleet::{
    AdmitError, AdmitOutcome, Fleet, FleetConfig, FleetCounters, FleetHopScratch, GrowthRecord,
    PlacementPolicy,
};
pub use ledger::{
    AgentHold, AgentUtilization, CapacityLedger, LedgerError, RegionResiduals, Reservation,
    SessionHold, DEFAULT_REGION,
};
pub use orchestrator::{FleetReport, Orchestrator, OrchestratorConfig};
pub use persist::{
    CounterSnapshot, DurableFleetState, FleetOp, PersistConfig, PersistError, RecoveryReport,
    RefusalReason,
};
pub use readmit::{backoff_us, ReadmitConfig, ReadmitEntry};
pub use sched::{CompleteOutcome, PoppedTimer, ShardedQueue};
pub use telemetry::{fleet_metrics_text, sched_metrics_text, FleetSnapshot, FleetTelemetry};
pub use workers::{ReoptPool, TimerEntry};
