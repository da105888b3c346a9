//! The trace-driven orchestrator: consumes a [`FleetTrace`], drives the
//! fleet and its re-optimization workers through virtual time, and
//! samples telemetry once per period.

use crate::fleet::{AdmitError, Fleet, FleetConfig};
use crate::telemetry::{FleetSnapshot, FleetTelemetry};
use crate::workers::ReoptPool;
use std::sync::Arc;
use vc_core::UapProblem;
use vc_model::{FleetEvent, FleetTrace};

/// Orchestrator-level configuration.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Fleet (placement + Alg. 1 + ledger) parameters.
    pub fleet: FleetConfig,
    /// Telemetry sampling period (virtual seconds).
    pub sample_period_s: f64,
    /// Worker-pool seed.
    pub seed: u64,
    /// When `false`, the worker pool never runs — sessions keep their
    /// bootstrap placement (the baseline every re-optimization result is
    /// measured against).
    pub reoptimize: bool,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        Self {
            fleet: FleetConfig::default(),
            sample_period_s: 1.0,
            seed: 2015,
            reoptimize: true,
        }
    }
}

/// Outcome of one trace-driven run.
#[derive(Debug)]
pub struct FleetReport {
    /// All periodic samples (and derived series).
    pub telemetry: FleetTelemetry,
    /// The final snapshot (taken at the horizon, after all events).
    pub final_snapshot: FleetSnapshot,
    /// Total hops the worker pool executed.
    pub hops_executed: usize,
    /// Admission refusals with their reasons, in event order.
    pub rejections: Vec<(f64, AdmitError)>,
}

/// The control plane: fleet + workers + telemetry, driven by traces.
#[derive(Debug)]
pub struct Orchestrator {
    fleet: Arc<Fleet>,
    pool: Arc<ReoptPool>,
    config: OrchestratorConfig,
}

impl Orchestrator {
    /// Builds the control plane over `problem`.
    pub fn new(problem: Arc<UapProblem>, config: OrchestratorConfig) -> Self {
        Self {
            fleet: Arc::new(Fleet::new(problem, config.fleet.clone())),
            pool: Arc::new(ReoptPool::new(config.seed)),
            config,
        }
    }

    /// The fleet (shared with any threads the caller spawns).
    pub fn fleet(&self) -> &Arc<Fleet> {
        &self.fleet
    }

    /// The worker pool (shared with any threads the caller spawns,
    /// e.g. a `/metrics` closure scraping scheduler gauges).
    pub fn pool(&self) -> &Arc<ReoptPool> {
        &self.pool
    }

    /// Applies one event at virtual time `t_s`. Admission failures are
    /// returned (the fleet stays consistent); other events cannot fail.
    pub fn apply_event(&self, t_s: f64, event: FleetEvent) -> Result<(), AdmitError> {
        match event {
            FleetEvent::Arrive(s) => {
                self.fleet.admit(s)?;
                if self.config.reoptimize {
                    self.pool.register(&self.fleet, s, t_s);
                }
                Ok(())
            }
            FleetEvent::Depart(s) => {
                self.fleet.depart(s);
                self.pool.deregister(s);
                Ok(())
            }
            FleetEvent::FailAgent(a) => {
                self.fleet.fail_agent(a);
                Ok(())
            }
            FleetEvent::RestoreAgent(a) => {
                self.fleet.restore_agent(a);
                Ok(())
            }
        }
    }

    /// Runs the trace to `horizon_s`: events in time order, worker
    /// wakeups interleaved at their due times, telemetry sampled every
    /// period. Returns the full report.
    ///
    /// # Panics
    ///
    /// Panics if the trace extends past `horizon_s` (generate the trace
    /// with the same horizon) or if telemetry ever observes a
    /// conservation violation — the control plane treats a ledger/state
    /// split as corruption, not a metric.
    pub fn run_trace(&mut self, trace: &FleetTrace, horizon_s: f64) -> FleetReport {
        let mut telemetry = FleetTelemetry::new();
        let mut rejections = Vec::new();
        let mut next_sample = 0.0f64;
        // One catch-up step: tick to `t`, sample there, require conservation.
        let mut sample_at = |t: f64| {
            if self.config.reoptimize {
                self.pool.tick_until(&self.fleet, t);
            }
            let snap = telemetry.sample(&self.fleet, t);
            assert_eq!(
                snap.conservation_violations,
                0,
                "ledger/state split at t={t}: {:?}",
                self.fleet.audit()
            );
            snap
        };
        for &(t, event) in &trace.events {
            assert!(t <= horizon_s + 1e-9, "trace event past the horizon");
            // Samples due strictly before t.
            while next_sample < t {
                sample_at(next_sample);
                next_sample += self.config.sample_period_s;
            }
            if self.config.reoptimize {
                self.pool.tick_until(&self.fleet, t);
            }
            if let Err(e) = self.apply_event(t, event) {
                rejections.push((t, e));
            }
        }
        // Drain to (but not onto) the horizon — the final snapshot
        // samples t = horizon exactly once.
        while next_sample < horizon_s - 1e-9 {
            sample_at(next_sample);
            next_sample += self.config.sample_period_s;
        }
        let final_snapshot = sample_at(horizon_s);
        FleetReport {
            final_snapshot,
            hops_executed: self.pool.hops_executed(),
            rejections,
            telemetry,
        }
    }
}
