//! Fleet telemetry: periodic snapshots and time series.
//!
//! Series are [`TimeSeries`] — the shape the simulator reports in — so
//! fleet runs drop into the existing experiment plumbing (`vc-bench`'s
//! table printers, figure regeneration) unchanged.

use crate::fleet::{Fleet, FleetMetrics};
use crate::ledger::RegionResiduals;
use crate::workers::ReoptPool;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use vc_model::TimeSeries;
use vc_obs::{Watchdog, WatchdogFire};

/// Fleet-level gauges in Prometheus text exposition format — the
/// `extra` closure for [`vc_obs::ObsServer`], so `/metrics` serves the
/// control-plane state next to the plane's own latency series. Every
/// [`FleetSnapshot`] gauge is there as `vc_fleet_<gauge>` except
/// `conservation_violations`: the audit needs the exclusive FREEZE,
/// and a scrape takes the shared lock only.
pub fn fleet_metrics_text(fleet: &Fleet) -> String {
    let mut out = String::with_capacity(2048);
    FleetSnapshot::observe(fleet, 0.0, fleet.metrics(), 0).write_prometheus(&mut out);
    // Per-region residual/occupancy gauges (elastic capacity); unlimited
    // agents sum to an infinite residual.
    fn prom(v: f64) -> String {
        let mut text = String::new();
        v.write_prom(&mut text);
        text
    }
    type RegionGauge = fn(&RegionResiduals) -> String;
    let families: [(&str, RegionGauge); 7] = [
        ("agents", |r| r.agents.to_string()),
        ("available_agents", |r| r.available_agents.to_string()),
        ("residual_download_mbps", |r| prom(r.download_mbps)),
        ("residual_upload_mbps", |r| prom(r.upload_mbps)),
        ("residual_transcode_units", |r| prom(r.transcode_units)),
        ("reserved_download_mbps", |r| prom(r.reserved_download_mbps)),
        ("reserved_upload_mbps", |r| prom(r.reserved_upload_mbps)),
    ];
    // Which agents are up is the universe's to say, not the ledger's.
    let regions = fleet
        .ledger()
        .region_residuals(&fleet.freeze.read().available);
    // Region names come from outside (callers, journals, snapshots).
    let labels: Vec<String> = regions.iter().map(|r| label_value(&r.name)).collect();
    for (family, value) in families {
        let _ = writeln!(out, "# TYPE vc_region_{family} gauge");
        for (r, region) in regions.iter().zip(&labels) {
            let _ = writeln!(
                out,
                "vc_region_{family}{{region=\"{region}\"}} {}",
                value(r)
            );
        }
    }
    out
}

/// `raw` as a Prometheus label value: `\`, `"` and newline escaped.
fn label_value(raw: &str) -> String {
    raw.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Wakeup-scheduler gauges in Prometheus text exposition format —
/// append to [`fleet_metrics_text`]'s output in a `/metrics` closure
/// so the wakeup queue's health (per-shard depth, cancelled wakeups,
/// lock contention) is scrapeable next to the fleet state.
pub fn sched_metrics_text(pool: &ReoptPool) -> String {
    let mut out = String::with_capacity(512);
    out.push_str("# TYPE vc_sched_shards gauge\n");
    out.push_str(&format!("vc_sched_shards {}\n", pool.num_shards()));
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

/// How one [`FleetSnapshot`] gauge type reads as a series value and
/// prints in the JSON and Prometheus exports.
trait Gauge: Copy {
    fn as_f64(self) -> f64;
    fn write_json(self, out: &mut String);
    fn write_prom(self, out: &mut String) {
        self.write_json(out);
    }
}

impl Gauge for usize {
    fn as_f64(self) -> f64 {
        self as f64
    }
    fn write_json(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl Gauge for f64 {
    fn as_f64(self) -> f64 {
        self
    }
    /// 17 significant digits: enough to round-trip the `f64`.
    fn write_json(self, out: &mut String) {
        let _ = write!(out, "{self:.17e}");
    }
    /// Six decimals; infinity is Prometheus' `+Inf`.
    fn write_prom(self, out: &mut String) {
        if self == f64::INFINITY {
            out.push_str("+Inf");
        } else {
            let _ = write!(out, "{self:.6}");
        }
    }
}

impl Gauge for bool {
    fn as_f64(self) -> f64 {
        f64::from(u8::from(self))
    }
    fn write_json(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
    fn write_prom(self, out: &mut String) {
        let _ = write!(out, "{}", u8::from(self));
    }
}

/// Declares [`FleetSnapshot`]: each gauge's Prometheus kind, name, type
/// and doc are written once here, and the struct field, the JSON key,
/// the [`FleetTelemetry::series`] name and the `/metrics` series
/// `vc_fleet_<name>` all derive from that one line — in declaration
/// order, so a new gauge is a one-line edit that cannot shift a column.
/// The kind is `counter` or `gauge`; `unscraped` keeps a gauge off
/// `/metrics`.
macro_rules! fleet_snapshot {
    (@prom unscraped $name:ident $self:ident $out:ident) => {};
    (@prom $kind:ident $name:ident $self:ident $out:ident) => {
        $out.push_str(concat!(
            "# TYPE vc_fleet_", stringify!($name), " ", stringify!($kind),
            "\nvc_fleet_", stringify!($name), " "
        ));
        $self.$name.write_prom($out);
        $out.push('\n');
    };
    ($( $(#[$doc:meta])* $kind:ident $name:ident: $ty:ty, )*) => {
        /// One periodic observation of the fleet.
        #[derive(Debug, Clone, PartialEq)]
        pub struct FleetSnapshot {
            /// Virtual time of the sample (s).
            pub time_s: f64,
            $( $(#[$doc])* pub $name: $ty, )*
        }

        impl FleetSnapshot {
            /// The gauge names, in declaration (= JSON key) order;
            /// `time_s` is the axis, not a gauge.
            pub const GAUGES: &'static [&'static str] = &[$( stringify!($name) ),*];

            /// Gauge `name`'s value as a series point (counts as
            /// floats, flags as 0/1); `None` for an unknown name.
            fn gauge(&self, name: &str) -> Option<f64> {
                match name {
                    $( stringify!($name) => Some(self.$name.as_f64()), )*
                    _ => None,
                }
            }

            /// `# TYPE` and value line of every scraped gauge.
            fn write_prometheus(&self, out: &mut String) {
                $( fleet_snapshot!(@prom $kind $name self out); )*
            }

            fn write_json_object(&self, out: &mut String) {
                let _ = write!(out, "{{\"time_s\": {}", self.time_s);
                $(
                    out.push_str(concat!(", \"", stringify!($name), "\": "));
                    self.$name.write_json(out);
                )*
                out.push('}');
            }
        }
    };
}

fleet_snapshot! {
    /// Registered sessions in the universe (seed + online-registered;
    /// live sessions are a subset).
    gauge universe_sessions: usize,
    /// Registered users in the universe.
    gauge universe_users: usize,
    /// Live session count.
    gauge live_sessions: usize,
    /// Live sessions whose last sweep is still valid and found no
    /// neighbour with a lower `Φ`; the rest are still searching,
    /// including a session whose sweep stored a lower-`Φ` move toward an
    /// agent that is down (it may take it once the agent is back).
    gauge sessions_settled: usize,
    /// Global objective `Σ_s Φ_s`.
    gauge objective: f64,
    /// Mean objective per live session.
    gauge mean_session_objective: f64,
    /// Total inter-agent traffic (Mbps).
    gauge traffic_mbps: f64,
    /// Mean conferencing delay over live users (ms).
    gauge mean_delay_ms: f64,
    /// Mean of per-agent max-fraction utilizations (capacity-limited
    /// agents only contribute meaningfully; unlimited ones read 0).
    gauge mean_utilization: f64,
    /// Largest per-agent utilization fraction.
    gauge max_utilization: f64,
    /// Sessions admitted so far.
    counter admitted: usize,
    /// Admissions refused so far.
    counter rejected: usize,
    /// Sessions departed so far.
    counter departed: usize,
    /// HOP migrations so far.
    counter migrations: usize,
    /// Admission success rate so far.
    gauge admission_success_rate: f64,
    /// Total admission attempts so far (admitted + rejected).
    counter admission_attempts: usize,
    /// Admissions the engine's enumeration tier placed.
    counter admitted_enumeration: usize,
    /// Admissions greedy + violation-driven repair placed.
    counter admitted_repair: usize,
    /// Admissions the ranked-fallback tier placed.
    counter admitted_fallback: usize,
    /// Violation-driven repair moves applied across all admissions.
    counter admission_repair_steps: usize,
    /// Refusals at the user-placement stage.
    counter refused_user_fit: usize,
    /// Refusals at the transcoding-placement stage.
    counter refused_task_fit: usize,
    /// Refusals at the global feasibility check.
    counter refused_global: usize,
    /// Ledger-conservation discrepancies at sample time (must be 0).
    unscraped conservation_violations: usize,
    /// Worst per-agent capacity overshoot past 1.0 (0 when every agent
    /// is within capacity) — the un-healed displacement debt gauge.
    gauge overshoot_fraction: f64,
    /// Sessions displaced by forced evacuations so far.
    counter displaced: usize,
    /// Sessions currently waiting in the re-admission queue.
    gauge readmit_queued: usize,
    /// Whether the journal is running buffered-degraded (fsync retries
    /// exhausted; events held in memory until healed).
    gauge durability_degraded: bool,
    /// Hop candidates settled without a fold so far: over the delay
    /// bound, or Gibbs weight proven on the clamp by the delay floor or
    /// the traffic floor.
    counter hop_candidates_bounded: usize,
    /// Hop candidates folded in full so far.
    counter hop_candidates_folded: usize,
    /// Hops that drew from their slot's kept sweep instead of sweeping.
    counter hop_memo_hits: usize,
}

impl FleetSnapshot {
    /// Reads every gauge, given the caller's slot pass `m` and audit
    /// count — [`FleetTelemetry::sample`] makes both under one exclusive
    /// FREEZE, [`fleet_metrics_text`] makes the pass under the shared
    /// lock and skips the audit.
    fn observe(fleet: &Fleet, time_s: f64, m: FleetMetrics, violations: usize) -> Self {
        let util = fleet.ledger().utilization();
        let fractions = || util.iter().map(|u| u.max_fraction);
        let max_utilization = fractions().fold(0.0f64, f64::max);
        let (universe_sessions, universe_users) = fleet.universe_size();
        let c = fleet.counters();
        let load = |a: &std::sync::atomic::AtomicUsize| a.load(Ordering::Relaxed);
        let (bounded, folded) = fleet.obs().hop_candidates();
        Self {
            time_s,
            universe_sessions,
            universe_users,
            live_sessions: m.live,
            sessions_settled: m.settled,
            objective: m.objective,
            // An idle fleet's objective is 0, and so is its mean.
            mean_session_objective: m.objective / m.live.max(1) as f64,
            traffic_mbps: m.traffic_mbps,
            mean_delay_ms: m.mean_delay_ms,
            mean_utilization: fractions().sum::<f64>() / util.len().max(1) as f64,
            max_utilization,
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
            conservation_violations: violations,
            overshoot_fraction: (max_utilization - 1.0).max(0.0),
            displaced: load(&c.displaced),
            readmit_queued: fleet.readmit_queue_len(),
            durability_degraded: fleet.durability_degraded(),
            hop_candidates_bounded: bounded as usize,
            hop_candidates_folded: folded as usize,
            hop_memo_hits: fleet.obs().hop_memo_hits() as usize,
        }
    }
}

/// Accumulates snapshots; any gauge reads back as a time
/// [`series`](FleetTelemetry::series), so a fleet metric (including a
/// recovered-vs-original diff) drops into the existing table printers,
/// and the whole run exports as [JSON](FleetTelemetry::to_json) for
/// offline analysis.
#[derive(Debug, Default)]
pub struct FleetTelemetry {
    snapshots: Vec<FleetSnapshot>,
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
        if !audit.is_empty() {
            // Conservation violated: dump the plane's post-mortem (once
            // per plane) before anyone asserts on the snapshot.
            fleet
                .obs()
                .post_mortem_once("conservation_violation", &audit[0]);
        }
        let snapshot = FleetSnapshot::observe(fleet, t_s, m, audit.len());
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

    /// Gauge `name` (one of [`FleetSnapshot::GAUGES`]) over every
    /// sample so far, as a time series.
    ///
    /// # Panics
    ///
    /// Panics on a name that is not a gauge.
    pub fn series(&self, name: &str) -> TimeSeries {
        let mut series = TimeSeries::new();
        for s in &self.snapshots {
            let value = s
                .gauge(name)
                .unwrap_or_else(|| panic!("`{name}` is not a FleetSnapshot gauge"));
            series.push(s.time_s, value);
        }
        series
    }

    /// Total conservation violations observed across all samples.
    pub fn total_conservation_violations(&self) -> usize {
        self.snapshots
            .iter()
            .map(|s| s.conservation_violations)
            .sum()
    }

    /// The structured JSON export: every snapshot (one object a line,
    /// keys in [`FleetSnapshot::GAUGES`] order, floats precise enough to
    /// round-trip — two runs can be diffed offline, e.g. a recovered
    /// fleet against the original), plus the fleet's observability-
    /// plane summaries — per-site latency percentiles, swap contention
    /// per shard, the event ring's lifetime count, and the process alloc
    /// counter when registered.
    pub fn to_json(&self, fleet: &Fleet) -> String {
        let mut out = String::from("{\n  \"snapshots\": [\n    ");
        for (i, s) in self.snapshots.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n    ");
            }
            s.write_json_object(&mut out);
        }
        let _ = write!(
            out,
            "\n  ],\n  \"obs\": {}\n}}\n",
            fleet.obs().summary_json()
        );
        out
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
