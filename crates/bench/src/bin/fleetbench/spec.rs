//! The workloads and their frozen constants. Everything a workload
//! feeds the product is generated from these and `--seed`.
//!
//! One *episode* of a workload is: set up (build the problem, generate
//! the trace, create the store, admit the seed conferences), run the
//! timed section to the horizon, then the common epilogue (journal the
//! timers, commit, capture the durable state, crash, recover from byte
//! copies of the store). A run repeats identical episodes for
//! `--seconds` and reports each timing as a floor over them, piece by
//! piece (the episodes do identical work, so a piece's fastest instance
//! is the least disturbed; see `report.rs`), which is what keeps the
//! numbers steady inside the driver's time cap;
//! the sizes below are calibrated so an episode lasts 1.5–2.5 s on the
//! 2-core reference box.

/// Seed of the deployment every workload runs on (`large_scale_instance`:
/// agent speeds and capacity draws, node sites, the conferences live at
/// t = 0). Fixed, so that runs on different `--seed`s differ in traffic
/// and not in infrastructure.
pub const INSTANCE_SEED: u64 = 2015;
/// Journal fsync batch (`FsyncPolicy::Batch`). The operation that
/// appends a batch's last record pays its fsync (≈0.45 ms on the
/// reference VM's disk, whose latency drifts 5× over an hour). With
/// `Batch(64)` that was a third of `flash_crowd`'s wall time; with
/// `Batch(256)` 0.7 % of the joins still paid it, which put `join_p99_us`
/// on the edge of that cliff (44 µs or 270 µs on `migrate_churn`,
/// depending on the seed). At 512 it is 0.35 % of them: the p99 reads
/// the admission path, and the stall is read from `obs.journal_fsync.*`.
pub const FSYNC_BATCH: usize = 512;
/// Counter-only stays per `StayBatch` journal record.
pub const STAY_BATCH: usize = 64;
/// Telemetry sample period (virtual seconds).
pub const SAMPLE_PERIOD_S: f64 = 1.0;
/// One `fleet_metrics_text` scrape and one `commit_journal` per this
/// many telemetry samples. An episode packs ≈100 virtual seconds into
/// ≈2 wall seconds, so a commit per virtual second would fsync 50× as
/// often per operation as a deployment committing once a wall second
/// does, and the run would mostly measure the disk it happens to be on.
pub const SCRAPE_EVERY: usize = 10;
/// Inverse temperature β of every workload's Alg. 1.
pub const BETA: f64 = 400.0;
/// `hop_bench`'s capacity sizing per conference (Mbps, transcode
/// slots); each workload scales it by its `capacity_scale`.
pub const HOP_BENCH_MBPS_PER_SESSION: f64 = 40.0;
pub const HOP_BENCH_SLOTS_PER_SESSION: f64 = 3.0;
/// Mean conference size for sizes drawn uniformly from 2..=5.
pub const MEAN_SESSION_SIZE: f64 = 3.5;
/// Timed direct calls of each post-epilogue probe (traced pass).
pub const PROBE_CALLS: usize = 20_000;

/// The agent storm, online growth and planned drain of `storm_recover`.
#[derive(Debug, Clone)]
pub struct Storm {
    /// Crash/restore epochs of `FaultPlan::storm`.
    pub epochs: u64,
    pub start_s: f64,
    pub period_s: f64,
    /// When the seed agents' clones register online into region `west`.
    pub grow_at_s: f64,
    /// The mid-run checkpoint.
    pub checkpoint_at_s: f64,
    /// When the then-busiest agent is drained for good.
    pub drain_at_s: f64,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// `true`: an open loop replaying the trace on the wall clock while
    /// one `run_wall` hop thread races the driver. `false`: a closed
    /// loop on the virtual clock in one thread.
    pub wall: bool,
    /// Users of the seed instance (conference sizes 2..=5).
    pub seed_users: usize,
    /// Capacity relative to `hop_bench`'s roomy sizing.
    pub capacity_scale: f64,
    /// `PlacementPolicy::Nearest` (the paper's Nrst bootstrap, under
    /// which hops actually migrate) instead of the AgRank-live default.
    pub nearest: bool,
    /// Mean WAIT countdown between a conference's hops.
    pub countdown_s: f64,
    /// Mean conference lifetime; arrivals come at `seed conferences /
    /// holding_s`, so the live set is stationary. (`wall_race`: ≈5 100
    /// conferences / 10 s ≈ 510 arrivals/s plus as many departures, the
    /// fixed ≈1 000 events/s of its open loop.)
    pub holding_s: f64,
    /// Virtual horizon (wall budget on the wall clock).
    pub horizon_s: f64,
    /// `journal_timers` + `checkpoint` period (0 = never).
    pub checkpoint_every_s: f64,
    pub storm: Option<Storm>,
}

pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "churn_steady",
            wall: false,
            seed_users: 18_000,
            capacity_scale: 0.5,
            nearest: false,
            countdown_s: 10.0,
            holding_s: 120.0,
            horizon_s: 90.0,
            checkpoint_every_s: 30.0,
            storm: None,
        },
        // `wall_race`'s fleet (Nearest bootstrap, roomy capacity, so
        // nearly half the hops migrate) on `churn_steady`'s closed loop:
        // the hop write path without the threads.
        Spec {
            name: "migrate_churn",
            wall: false,
            seed_users: 18_000,
            capacity_scale: 2.0,
            nearest: true,
            countdown_s: 10.0,
            holding_s: 120.0,
            horizon_s: 90.0,
            checkpoint_every_s: 30.0,
            storm: None,
        },
        Spec {
            name: "wall_race",
            wall: true,
            seed_users: 27_000,
            capacity_scale: 2.0,
            nearest: true,
            countdown_s: 10.0,
            holding_s: 15.0,
            horizon_s: 2.0,
            checkpoint_every_s: 0.0,
            storm: None,
        },
        Spec {
            name: "flash_crowd",
            wall: false,
            seed_users: 6_000,
            capacity_scale: 0.5,
            nearest: false,
            countdown_s: 60.0,
            holding_s: 10.0,
            horizon_s: 100.0,
            checkpoint_every_s: 50.0,
            storm: None,
        },
        Spec {
            name: "storm_recover",
            wall: false,
            seed_users: 6_000,
            capacity_scale: 0.3,
            nearest: false,
            countdown_s: 10.0,
            holding_s: 60.0,
            horizon_s: 60.0,
            checkpoint_every_s: 0.0,
            storm: Some(Storm {
                epochs: 8,
                start_s: 4.0,
                period_s: 6.0,
                grow_at_s: 20.0,
                checkpoint_at_s: 30.0,
                drain_at_s: 40.0,
            }),
        },
    ]
}

impl Spec {
    /// The `--smoke` variant: sizes ÷ 20 and short horizons, so the
    /// whole matrix finishes in seconds (and in debug-build tests).
    pub fn smoke(&self) -> Self {
        Self {
            seed_users: self.seed_users / 20,
            // The wall-clock loop keeps its event rate: 20× fewer
            // conferences living 20× shorter, for a tenth of the budget.
            holding_s: if self.wall {
                self.holding_s / 20.0
            } else {
                self.holding_s
            },
            horizon_s: if self.wall {
                self.horizon_s / 10.0
            } else {
                self.horizon_s.min(60.0)
            },
            ..self.clone()
        }
    }

    /// Expected seed conferences (exact count comes from the instance).
    pub fn expected_sessions(&self) -> f64 {
        self.seed_users as f64 / MEAN_SESSION_SIZE
    }

    /// The frozen constants as a JSON object, recorded in every output.
    pub fn constants_json(&self) -> String {
        let storm = self.storm.as_ref().map_or("null".to_string(), |s| {
            format!(
                "{{\"epochs\": {}, \"start_s\": {}, \"period_s\": {}, \"grow_at_s\": {}, \"checkpoint_at_s\": {}, \"drain_at_s\": {}}}",
                s.epochs, s.start_s, s.period_s, s.grow_at_s, s.checkpoint_at_s, s.drain_at_s
            )
        });
        format!(
            "{{\"wall\": {}, \"seed_users\": {}, \"capacity_scale\": {}, \"nearest\": {}, \"countdown_s\": {}, \"holding_s\": {}, \"horizon_s\": {}, \"checkpoint_every_s\": {}, \"fsync_batch\": {}, \"stay_batch\": {}, \"sample_period_s\": {}, \"commit_every_samples\": {}, \"beta\": {}, \"instance_seed\": {}, \"storm\": {}}}",
            self.wall,
            self.seed_users,
            self.capacity_scale,
            self.nearest,
            self.countdown_s,
            self.holding_s,
            self.horizon_s,
            self.checkpoint_every_s,
            FSYNC_BATCH,
            STAY_BATCH,
            SAMPLE_PERIOD_S,
            SCRAPE_EVERY,
            BETA,
            INSTANCE_SEED,
            storm
        )
    }
}
