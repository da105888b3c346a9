//! Fleet telemetry: periodic snapshots and time series.
//!
//! Series use `vc-sim`'s [`TimeSeries`] so fleet runs drop into the
//! existing experiment plumbing (`vc-bench`'s table printers, figure
//! regeneration) unchanged.

use crate::fleet::Fleet;
use crate::workers::ReoptPool;
use std::sync::atomic::Ordering;
use vc_obs::{Watchdog, WatchdogFire};
use vc_sim::metrics::TimeSeries;

/// Fleet-level gauges in Prometheus text exposition format — the
/// `extra` closure for [`vc_obs::ObsServer`], so `/metrics` serves the
/// control-plane state next to the plane's own latency series.
pub fn fleet_metrics_text(fleet: &Fleet) -> String {
    let m = fleet.metrics();
    let c = fleet.counters();
    let load = |a: &std::sync::atomic::AtomicUsize| a.load(Ordering::Relaxed);
    let mut out = String::with_capacity(512);
    out.push_str("# TYPE vc_fleet_live_sessions gauge\n");
    out.push_str(&format!("vc_fleet_live_sessions {}\n", m.live));
    out.push_str("# TYPE vc_fleet_objective gauge\n");
    out.push_str(&format!("vc_fleet_objective {:.6}\n", m.objective));
    out.push_str("# TYPE vc_fleet_traffic_mbps gauge\n");
    out.push_str(&format!("vc_fleet_traffic_mbps {:.6}\n", m.traffic_mbps));
    out.push_str("# TYPE vc_fleet_mean_delay_ms gauge\n");
    out.push_str(&format!("vc_fleet_mean_delay_ms {:.6}\n", m.mean_delay_ms));
    out.push_str("# TYPE vc_fleet_admitted counter\n");
    out.push_str(&format!("vc_fleet_admitted {}\n", load(&c.admitted)));
    out.push_str("# TYPE vc_fleet_rejected counter\n");
    out.push_str(&format!("vc_fleet_rejected {}\n", load(&c.rejected)));
    out.push_str("# TYPE vc_fleet_departed counter\n");
    out.push_str(&format!("vc_fleet_departed {}\n", load(&c.departed)));
    out.push_str("# TYPE vc_fleet_migrations counter\n");
    out.push_str(&format!("vc_fleet_migrations {}\n", load(&c.migrations)));
    out.push_str("# TYPE vc_fleet_admission_success_rate gauge\n");
    out.push_str(&format!(
        "vc_fleet_admission_success_rate {:.6}\n",
        c.admission_success_rate()
    ));
    out.push_str("# TYPE vc_fleet_overshoot_fraction gauge\n");
    out.push_str(&format!(
        "vc_fleet_overshoot_fraction {:.6}\n",
        fleet.ledger().max_overshoot_fraction()
    ));
    out.push_str("# TYPE vc_fleet_displaced counter\n");
    out.push_str(&format!("vc_fleet_displaced {}\n", load(&c.displaced)));
    out.push_str("# TYPE vc_fleet_readmit_queued gauge\n");
    out.push_str(&format!(
        "vc_fleet_readmit_queued {}\n",
        fleet.readmit_queue_len()
    ));
    out.push_str("# TYPE vc_fleet_durability_degraded gauge\n");
    out.push_str(&format!(
        "vc_fleet_durability_degraded {}\n",
        u8::from(fleet.durability_degraded())
    ));
    // Per-region residual/occupancy gauges (elastic capacity). Inf is
    // Prometheus' `+Inf` — unlimited agents sum to an infinite residual.
    let prom = |v: f64| {
        if v == f64::INFINITY {
            "+Inf".to_string()
        } else {
            format!("{v:.6}")
        }
    };
    let regions = fleet.ledger().region_residuals();
    out.push_str("# TYPE vc_region_agents gauge\n");
    for r in &regions {
        out.push_str(&format!(
            "vc_region_agents{{region=\"{}\"}} {}\n",
            r.name, r.agents
        ));
    }
    out.push_str("# TYPE vc_region_available_agents gauge\n");
    for r in &regions {
        out.push_str(&format!(
            "vc_region_available_agents{{region=\"{}\"}} {}\n",
            r.name, r.available_agents
        ));
    }
    out.push_str("# TYPE vc_region_residual_download_mbps gauge\n");
    for r in &regions {
        out.push_str(&format!(
            "vc_region_residual_download_mbps{{region=\"{}\"}} {}\n",
            r.name,
            prom(r.download_mbps)
        ));
    }
    out.push_str("# TYPE vc_region_residual_upload_mbps gauge\n");
    for r in &regions {
        out.push_str(&format!(
            "vc_region_residual_upload_mbps{{region=\"{}\"}} {}\n",
            r.name,
            prom(r.upload_mbps)
        ));
    }
    out.push_str("# TYPE vc_region_reserved_download_mbps gauge\n");
    for r in &regions {
        out.push_str(&format!(
            "vc_region_reserved_download_mbps{{region=\"{}\"}} {}\n",
            r.name,
            prom(r.reserved_download_mbps)
        ));
    }
    out.push_str("# TYPE vc_region_reserved_upload_mbps gauge\n");
    for r in &regions {
        out.push_str(&format!(
            "vc_region_reserved_upload_mbps{{region=\"{}\"}} {}\n",
            r.name,
            prom(r.reserved_upload_mbps)
        ));
    }
    let (prepares, commits, aborts) = fleet.ledger().cross_region_counters();
    out.push_str("# TYPE vc_region_cross_prepares counter\n");
    out.push_str(&format!("vc_region_cross_prepares {prepares}\n"));
    out.push_str("# TYPE vc_region_cross_commits counter\n");
    out.push_str(&format!("vc_region_cross_commits {commits}\n"));
    out.push_str("# TYPE vc_region_cross_aborts counter\n");
    out.push_str(&format!("vc_region_cross_aborts {aborts}\n"));
    out
}

/// Wakeup-scheduler gauges in Prometheus text exposition format —
/// append to [`fleet_metrics_text`]'s output in a `/metrics` closure
/// so the sharded wheel's health (stale backlog, per-shard depth, lock
/// contention) is scrapeable next to the fleet state.
pub fn sched_metrics_text(pool: &ReoptPool) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("# TYPE vc_sched_shards gauge\n");
    out.push_str(&format!("vc_sched_shards {}\n", pool.num_shards()));
    out.push_str("# TYPE vc_sched_stale_entries gauge\n");
    out.push_str(&format!(
        "vc_sched_stale_entries {}\n",
        pool.stale_entries()
    ));
    out.push_str("# TYPE vc_sched_stale_reclaimed counter\n");
    out.push_str(&format!(
        "vc_sched_stale_reclaimed {}\n",
        pool.stale_reclaimed()
    ));
    out.push_str("# TYPE vc_sched_depth gauge\n");
    for (i, depth) in pool.shard_depths().into_iter().enumerate() {
        out.push_str(&format!("vc_sched_depth{{shard=\"{i}\"}} {depth}\n"));
    }
    let counters = pool.shard_lock_counters();
    out.push_str("# TYPE vc_sched_lock_acquires counter\n");
    out.push_str(&format!(
        "vc_sched_lock_acquires {}\n",
        counters.iter().map(|&(a, _)| a).sum::<u64>()
    ));
    out.push_str("# TYPE vc_sched_lock_conflicts counter\n");
    out.push_str(&format!(
        "vc_sched_lock_conflicts {}\n",
        counters.iter().map(|&(_, c)| c).sum::<u64>()
    ));
    out
}

/// One periodic observation of the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSnapshot {
    /// Virtual time of the sample (s).
    pub time_s: f64,
    /// Registered sessions in the universe (seed + online-registered;
    /// live sessions are a subset).
    pub universe_sessions: usize,
    /// Registered users in the universe.
    pub universe_users: usize,
    /// Live session count.
    pub live_sessions: usize,
    /// Global objective `Σ_s Φ_s`.
    pub objective: f64,
    /// Mean objective per live session.
    pub mean_session_objective: f64,
    /// Total inter-agent traffic (Mbps).
    pub traffic_mbps: f64,
    /// Mean conferencing delay over live users (ms).
    pub mean_delay_ms: f64,
    /// Mean of per-agent max-fraction utilizations (capacity-limited
    /// agents only contribute meaningfully; unlimited ones read 0).
    pub mean_utilization: f64,
    /// Largest per-agent utilization fraction.
    pub max_utilization: f64,
    /// Sessions admitted so far.
    pub admitted: usize,
    /// Admissions refused so far.
    pub rejected: usize,
    /// Sessions departed so far.
    pub departed: usize,
    /// HOP migrations so far.
    pub migrations: usize,
    /// Admission success rate so far.
    pub admission_success_rate: f64,
    /// Total admission attempts so far (admitted + rejected).
    pub admission_attempts: usize,
    /// Admissions the engine's enumeration tier placed.
    pub admitted_enumeration: usize,
    /// Admissions greedy + violation-driven repair placed.
    pub admitted_repair: usize,
    /// Admissions the ranked-fallback tier placed (every legacy-mode
    /// admission counts here).
    pub admitted_fallback: usize,
    /// Violation-driven repair moves applied across all admissions.
    pub admission_repair_steps: usize,
    /// Refusals at the user-placement stage.
    pub refused_user_fit: usize,
    /// Refusals at the transcoding-placement stage.
    pub refused_task_fit: usize,
    /// Refusals at the global feasibility check (legacy capacity/delay
    /// refusals included).
    pub refused_global: usize,
    /// Ledger-conservation discrepancies at sample time (must be 0).
    pub conservation_violations: usize,
    /// Worst per-agent capacity overshoot past 1.0 (0 when every agent
    /// is within capacity) — the un-healed displacement debt gauge.
    pub overshoot_fraction: f64,
    /// Sessions displaced by forced evacuations so far.
    pub displaced: usize,
    /// Sessions currently waiting in the re-admission queue.
    pub readmit_queued: usize,
    /// Whether the journal is running buffered-degraded (fsync retries
    /// exhausted; events held in memory until healed).
    pub durability_degraded: bool,
}

/// Accumulates snapshots and the derived time series — one series per
/// [`FleetSnapshot`] field, so any fleet metric (including a
/// recovered-vs-original diff) drops into the existing table printers,
/// and a [CSV export](FleetTelemetry::to_csv) for offline analysis.
#[derive(Debug, Default)]
pub struct FleetTelemetry {
    snapshots: Vec<FleetSnapshot>,
    universe_sessions: TimeSeries,
    universe_users: TimeSeries,
    objective: TimeSeries,
    mean_session_objective: TimeSeries,
    traffic: TimeSeries,
    mean_delay: TimeSeries,
    live_sessions: TimeSeries,
    mean_utilization: TimeSeries,
    max_utilization: TimeSeries,
    admitted: TimeSeries,
    rejected: TimeSeries,
    departed: TimeSeries,
    migrations: TimeSeries,
    admission_success_rate: TimeSeries,
    admission_attempts: TimeSeries,
    admitted_enumeration: TimeSeries,
    admitted_repair: TimeSeries,
    admitted_fallback: TimeSeries,
    admission_repair_steps: TimeSeries,
    refused_user_fit: TimeSeries,
    refused_task_fit: TimeSeries,
    refused_global: TimeSeries,
    conservation_violations: TimeSeries,
    overshoot_fraction: TimeSeries,
    displaced: TimeSeries,
    readmit_queued: TimeSeries,
    durability_degraded: TimeSeries,
}

impl FleetTelemetry {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Samples the fleet at virtual time `t_s`, recording and returning
    /// the snapshot. Runs the conservation audit — the control plane's
    /// standing self-check — in the same slot pass as the gauges.
    pub fn sample(&mut self, fleet: &Fleet, t_s: f64) -> FleetSnapshot {
        let (m, audit) = fleet.metrics_and_audit();
        let (live, objective, traffic, delay) =
            (m.live, m.objective, m.traffic_mbps, m.mean_delay_ms);
        let util = fleet.ledger().utilization();
        let fractions: Vec<f64> = util.iter().map(|u| u.max_fraction).collect();
        let mean_util = if fractions.is_empty() {
            0.0
        } else {
            fractions.iter().sum::<f64>() / fractions.len() as f64
        };
        let max_util = fractions.iter().copied().fold(0.0f64, f64::max);
        let (universe_sessions, universe_users) = fleet.universe_size();
        if !audit.is_empty() {
            // Conservation violated: dump the flight-recorder post-mortem
            // (once per plane) before anyone asserts on the snapshot.
            fleet
                .obs()
                .post_mortem_once("conservation_violation", &audit[0]);
        }
        let c = fleet.counters();
        let load = |a: &std::sync::atomic::AtomicUsize| a.load(Ordering::Relaxed);
        let snapshot = FleetSnapshot {
            time_s: t_s,
            universe_sessions,
            universe_users,
            live_sessions: live,
            objective,
            mean_session_objective: if live == 0 {
                0.0
            } else {
                objective / live as f64
            },
            traffic_mbps: traffic,
            mean_delay_ms: delay,
            mean_utilization: mean_util,
            max_utilization: max_util,
            admitted: load(&c.admitted),
            rejected: load(&c.rejected),
            departed: load(&c.departed),
            migrations: load(&c.migrations),
            admission_success_rate: c.admission_success_rate(),
            admission_attempts: load(&c.admitted) + load(&c.rejected),
            admitted_enumeration: load(&c.admitted_enumeration),
            admitted_repair: load(&c.admitted_repair),
            admitted_fallback: load(&c.admitted_fallback),
            admission_repair_steps: load(&c.repair_steps),
            refused_user_fit: load(&c.refused_user_fit),
            refused_task_fit: load(&c.refused_task_fit),
            refused_global: load(&c.refused_global),
            conservation_violations: audit.len(),
            overshoot_fraction: fractions
                .iter()
                .map(|f| (f - 1.0).max(0.0))
                .fold(0.0, f64::max),
            displaced: load(&c.displaced),
            readmit_queued: fleet.readmit_queue_len(),
            durability_degraded: fleet.durability_degraded(),
        };
        self.universe_sessions
            .push(t_s, snapshot.universe_sessions as f64);
        self.universe_users
            .push(t_s, snapshot.universe_users as f64);
        self.objective.push(t_s, snapshot.objective);
        self.mean_session_objective
            .push(t_s, snapshot.mean_session_objective);
        self.traffic.push(t_s, snapshot.traffic_mbps);
        self.mean_delay.push(t_s, snapshot.mean_delay_ms);
        self.live_sessions.push(t_s, live as f64);
        self.mean_utilization.push(t_s, snapshot.mean_utilization);
        self.max_utilization.push(t_s, snapshot.max_utilization);
        self.admitted.push(t_s, snapshot.admitted as f64);
        self.rejected.push(t_s, snapshot.rejected as f64);
        self.departed.push(t_s, snapshot.departed as f64);
        self.migrations.push(t_s, snapshot.migrations as f64);
        self.admission_success_rate
            .push(t_s, snapshot.admission_success_rate);
        self.admission_attempts
            .push(t_s, snapshot.admission_attempts as f64);
        self.admitted_enumeration
            .push(t_s, snapshot.admitted_enumeration as f64);
        self.admitted_repair
            .push(t_s, snapshot.admitted_repair as f64);
        self.admitted_fallback
            .push(t_s, snapshot.admitted_fallback as f64);
        self.admission_repair_steps
            .push(t_s, snapshot.admission_repair_steps as f64);
        self.refused_user_fit
            .push(t_s, snapshot.refused_user_fit as f64);
        self.refused_task_fit
            .push(t_s, snapshot.refused_task_fit as f64);
        self.refused_global
            .push(t_s, snapshot.refused_global as f64);
        self.conservation_violations
            .push(t_s, snapshot.conservation_violations as f64);
        self.overshoot_fraction
            .push(t_s, snapshot.overshoot_fraction);
        self.displaced.push(t_s, snapshot.displaced as f64);
        self.readmit_queued
            .push(t_s, snapshot.readmit_queued as f64);
        self.durability_degraded
            .push(t_s, f64::from(u8::from(snapshot.durability_degraded)));
        self.snapshots.push(snapshot.clone());
        snapshot
    }

    /// [`sample`](Self::sample) plus one SLO-watchdog observation: the
    /// watchdog windows the plane's histograms and the snapshot's
    /// admission success rate, and fires (once per watchdog) when a
    /// budget burns — the returned [`WatchdogFire`] carries the
    /// post-mortem and the Perfetto trace dump. The admission signal is
    /// withheld until any admission has been attempted, so an idle
    /// warm-up can't trip the floor. The snapshot's durability-degraded
    /// flag feeds the watchdog's fifth detector, so a journal riding
    /// out storage faults in memory pages even while every latency
    /// budget is healthy.
    pub fn sample_with_watchdog(
        &mut self,
        fleet: &Fleet,
        t_s: f64,
        watchdog: &Watchdog,
    ) -> (FleetSnapshot, Option<WatchdogFire>) {
        let snapshot = self.sample(fleet, t_s);
        let admission =
            (snapshot.admission_attempts > 0).then_some(snapshot.admission_success_rate);
        let fire = watchdog.observe_full(fleet.obs(), admission, snapshot.durability_degraded);
        (snapshot, fire)
    }

    /// All snapshots, in time order.
    pub fn snapshots(&self) -> &[FleetSnapshot] {
        &self.snapshots
    }

    /// The most recent snapshot.
    pub fn last(&self) -> Option<&FleetSnapshot> {
        self.snapshots.last()
    }

    /// Universe-size series (registered sessions).
    pub fn universe_sessions_series(&self) -> &TimeSeries {
        &self.universe_sessions
    }

    /// Universe-size series (registered users).
    pub fn universe_users_series(&self) -> &TimeSeries {
        &self.universe_users
    }

    /// Global-objective series.
    pub fn objective_series(&self) -> &TimeSeries {
        &self.objective
    }

    /// Mean per-session objective series.
    pub fn mean_session_objective_series(&self) -> &TimeSeries {
        &self.mean_session_objective
    }

    /// Inter-agent-traffic series (Mbps).
    pub fn traffic_series(&self) -> &TimeSeries {
        &self.traffic
    }

    /// Mean-delay series (ms).
    pub fn mean_delay_series(&self) -> &TimeSeries {
        &self.mean_delay
    }

    /// Live-session-count series.
    pub fn live_sessions_series(&self) -> &TimeSeries {
        &self.live_sessions
    }

    /// Mean-utilization series (mean of per-agent max fractions).
    pub fn mean_utilization_series(&self) -> &TimeSeries {
        &self.mean_utilization
    }

    /// Max-utilization series.
    pub fn max_utilization_series(&self) -> &TimeSeries {
        &self.max_utilization
    }

    /// Cumulative-admissions series.
    pub fn admitted_series(&self) -> &TimeSeries {
        &self.admitted
    }

    /// Cumulative-rejections series.
    pub fn rejected_series(&self) -> &TimeSeries {
        &self.rejected
    }

    /// Cumulative-departures series.
    pub fn departed_series(&self) -> &TimeSeries {
        &self.departed
    }

    /// Cumulative-migrations series.
    pub fn migrations_series(&self) -> &TimeSeries {
        &self.migrations
    }

    /// Admission-success-rate series.
    pub fn admission_success_rate_series(&self) -> &TimeSeries {
        &self.admission_success_rate
    }

    /// Cumulative-admission-attempts series (admitted + rejected).
    pub fn admission_attempts_series(&self) -> &TimeSeries {
        &self.admission_attempts
    }

    /// Enumeration-tier-admissions series.
    pub fn admitted_enumeration_series(&self) -> &TimeSeries {
        &self.admitted_enumeration
    }

    /// Repair-tier-admissions series.
    pub fn admitted_repair_series(&self) -> &TimeSeries {
        &self.admitted_repair
    }

    /// Ranked-fallback-admissions series.
    pub fn admitted_fallback_series(&self) -> &TimeSeries {
        &self.admitted_fallback
    }

    /// Cumulative-repair-steps series.
    pub fn admission_repair_steps_series(&self) -> &TimeSeries {
        &self.admission_repair_steps
    }

    /// User-fit-refusals series.
    pub fn refused_user_fit_series(&self) -> &TimeSeries {
        &self.refused_user_fit
    }

    /// Task-fit-refusals series.
    pub fn refused_task_fit_series(&self) -> &TimeSeries {
        &self.refused_task_fit
    }

    /// Global-check-refusals series.
    pub fn refused_global_series(&self) -> &TimeSeries {
        &self.refused_global
    }

    /// Conservation-violations series (must be identically zero).
    pub fn conservation_violations_series(&self) -> &TimeSeries {
        &self.conservation_violations
    }

    /// Overshoot-fraction series (worst per-agent debt past capacity).
    pub fn overshoot_fraction_series(&self) -> &TimeSeries {
        &self.overshoot_fraction
    }

    /// Cumulative-displacements series.
    pub fn displaced_series(&self) -> &TimeSeries {
        &self.displaced
    }

    /// Re-admission queue-depth series.
    pub fn readmit_queued_series(&self) -> &TimeSeries {
        &self.readmit_queued
    }

    /// Durability-degraded series (0/1 per sample).
    pub fn durability_degraded_series(&self) -> &TimeSeries {
        &self.durability_degraded
    }

    /// Total conservation violations observed across all samples.
    pub fn total_conservation_violations(&self) -> usize {
        self.snapshots
            .iter()
            .map(|s| s.conservation_violations)
            .sum()
    }

    /// Column names of [`to_csv`](Self::to_csv), in order.
    pub const CSV_HEADER: &'static str = "time_s,universe_sessions,universe_users,\
        live_sessions,objective,\
        mean_session_objective,traffic_mbps,mean_delay_ms,mean_utilization,\
        max_utilization,admitted,rejected,departed,migrations,\
        admission_success_rate,admission_attempts,admitted_enumeration,\
        admitted_repair,admitted_fallback,admission_repair_steps,\
        refused_user_fit,refused_task_fit,refused_global,\
        conservation_violations,overshoot_fraction,displaced,\
        readmit_queued,durability_degraded";

    /// Every snapshot as CSV (header + one row per sample), precise
    /// enough to round-trip `f64`s — two runs can be diffed offline
    /// (e.g. a recovered fleet against the original).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for s in &self.snapshots {
            out.push_str(&format!(
                "{},{},{},{},{:.17e},{:.17e},{:.17e},{:.17e},{:.17e},{:.17e},{},{},{},{},{:.17e},{},{},{},{},{},{},{},{},{},{:.17e},{},{},{}\n",
                s.time_s,
                s.universe_sessions,
                s.universe_users,
                s.live_sessions,
                s.objective,
                s.mean_session_objective,
                s.traffic_mbps,
                s.mean_delay_ms,
                s.mean_utilization,
                s.max_utilization,
                s.admitted,
                s.rejected,
                s.departed,
                s.migrations,
                s.admission_success_rate,
                s.admission_attempts,
                s.admitted_enumeration,
                s.admitted_repair,
                s.admitted_fallback,
                s.admission_repair_steps,
                s.refused_user_fit,
                s.refused_task_fit,
                s.refused_global,
                s.conservation_violations,
                s.overshoot_fraction,
                s.displaced,
                s.readmit_queued,
                u8::from(s.durability_degraded),
            ));
        }
        out
    }

    /// Writes [`to_csv`](Self::to_csv) to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_csv(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_csv())
    }

    /// One snapshot as a JSON object (fields mirror the CSV columns).
    fn snapshot_json(s: &FleetSnapshot) -> String {
        format!(
            "{{\"time_s\": {}, \"universe_sessions\": {}, \"universe_users\": {}, \
             \"live_sessions\": {}, \"objective\": {:.17e}, \
             \"mean_session_objective\": {:.17e}, \"traffic_mbps\": {:.17e}, \
             \"mean_delay_ms\": {:.17e}, \"mean_utilization\": {:.17e}, \
             \"max_utilization\": {:.17e}, \"admitted\": {}, \"rejected\": {}, \
             \"departed\": {}, \"migrations\": {}, \"admission_success_rate\": {:.17e}, \
             \"admission_attempts\": {}, \"admitted_enumeration\": {}, \
             \"admitted_repair\": {}, \"admitted_fallback\": {}, \
             \"admission_repair_steps\": {}, \"refused_user_fit\": {}, \
             \"refused_task_fit\": {}, \"refused_global\": {}, \
             \"conservation_violations\": {}, \"overshoot_fraction\": {:.17e}, \
             \"displaced\": {}, \"readmit_queued\": {}, \
             \"durability_degraded\": {}}}",
            s.time_s,
            s.universe_sessions,
            s.universe_users,
            s.live_sessions,
            s.objective,
            s.mean_session_objective,
            s.traffic_mbps,
            s.mean_delay_ms,
            s.mean_utilization,
            s.max_utilization,
            s.admitted,
            s.rejected,
            s.departed,
            s.migrations,
            s.admission_success_rate,
            s.admission_attempts,
            s.admitted_enumeration,
            s.admitted_repair,
            s.admitted_fallback,
            s.admission_repair_steps,
            s.refused_user_fit,
            s.refused_task_fit,
            s.refused_global,
            s.conservation_violations,
            s.overshoot_fraction,
            s.displaced,
            s.readmit_queued,
            s.durability_degraded,
        )
    }

    /// The structured JSON export alongside the CSV: every snapshot,
    /// plus the fleet's observability-plane summaries — per-site
    /// latency percentiles, swap contention per shard, flight-recorder
    /// op count, and the process alloc counter when registered.
    pub fn to_json(&self, fleet: &Fleet) -> String {
        let rows: Vec<String> = self.snapshots.iter().map(Self::snapshot_json).collect();
        format!(
            "{{\n  \"snapshots\": [\n    {}\n  ],\n  \"obs\": {}\n}}\n",
            rows.join(",\n    "),
            fleet.obs().summary_json()
        )
    }

    /// Writes [`to_json`](Self::to_json) to `path`.
    ///
    /// # Errors
    ///
    /// Any filesystem error.
    pub fn write_json(
        &self,
        path: impl AsRef<std::path::Path>,
        fleet: &Fleet,
    ) -> std::io::Result<()> {
        std::fs::write(path, self.to_json(fleet))
    }
}
