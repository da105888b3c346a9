//! Chaos experiment (extension): deterministic fault storms against
//! the persistent fleet, a mid-storm crash/recovery, and injected
//! `fsync` faults. Emits `BENCH_chaos.json`.
//!
//! Each row drives one fleet scale through the same gauntlet:
//!
//! 1. a fault-free twin establishes the baseline admitted fraction;
//! 2. a persistent fleet (journal on a fault-injecting VFS) rides a
//!    seeded agent-flap storm that forces whole-session displacements
//!    into the self-healing re-admission queue;
//! 3. `fsync` starts failing mid-storm — the journal must degrade to
//!    buffered appends (no control-plane error) and heal once the
//!    fault clears;
//! 4. the process "crashes" mid-storm and recovers from the format-v5
//!    store; an uncrashed control twin drives the identical plan and
//!    the two must finish **bitwise** equal (placements, Φ, counters,
//!    queue entries and their backoff schedule);
//! 5. after the storm the queue must drain and every displaced session
//!    must be live again — the recovered admitted fraction may trail
//!    the fault-free baseline by at most one point.
//!
//! Every quantity here is virtual-clock deterministic given the seed,
//! so `experiments -- check chaos` requires the fractions and the
//! `parity`/`healed` booleans to reproduce exactly.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_chaos::{FaultKind, FaultPlan, FaultyVfs, StorageFault, StorageFaultKind, StormConfig};
use vc_core::UapProblem;
use vc_cost::CostModel;
use vc_model::{AgentId, AgentSpec, Capacity, InstanceBuilder, ReprLadder, SessionId};
use vc_orchestrator::persist::PersistConfig;
use vc_orchestrator::{
    AdmitOutcome, Fleet, FleetConfig, PlacementPolicy, ReadmitConfig, ReoptPool,
};
use vc_persist::journal::{FsyncPolicy, RetryPolicy};

/// One fleet-scale measurement.
#[derive(Debug, Clone)]
pub struct ChaosRow {
    /// Sessions in the universe (the row key).
    pub sessions: usize,
    /// Agents in the universe (one transcode slot each — the scarce
    /// resource that forces displacement when a task holder dies).
    pub agents: usize,
    /// Storm events applied (fail + restore).
    pub storm_events: usize,
    /// Whole-session displacements into the re-admission queue.
    pub displaced: usize,
    /// Sessions the queue re-admitted.
    pub readmitted: usize,
    /// Sessions dropped after exhausting their retry budget (must be 0
    /// for `healed`).
    pub dropped: usize,
    /// Single-decision evacuation moves that found a feasible target.
    pub evacuations: usize,
    /// Live fraction of the fault-free twin at the horizon.
    pub baseline_admitted_fraction: f64,
    /// Live fraction of the crashed/recovered storm fleet at the
    /// horizon.
    pub recovered_admitted_fraction: f64,
    /// `recovered ≥ baseline − 0.01` (the acceptance bound).
    pub within_one_point: bool,
    /// Crashed/recovered run finished bitwise equal to the uncrashed
    /// control twin (state, queue, Φ bits).
    pub parity: bool,
    /// Queue drained, nothing dropped, and every pre-storm session is
    /// live again at the horizon.
    pub healed: bool,
    /// Virtual seconds from the last storm event until the queue
    /// emptied (0.1 s resolution).
    pub queue_drain_s: f64,
    /// Journal records replayed by the mid-storm recovery.
    pub replayed: usize,
    /// The injected fsync fault drove the journal into buffered mode.
    pub degraded_observed: bool,
    /// Virtual seconds the journal dwelt in degraded (buffered) mode
    /// before healing restored synchronous durability.
    pub degraded_dwell_s: f64,
    /// Healing restored synchronous durability before the crash.
    pub durability_healed: bool,
    /// fsync errors the fault injector actually delivered.
    pub fsync_errors: u64,
    /// Conservation-audit discrepancies at the horizon (must be 0).
    pub conservation_violations: usize,
}

/// The whole run.
#[derive(Debug, Clone)]
pub struct ChaosResult {
    /// Every row finished bitwise equal to its uncrashed twin.
    pub parity: bool,
    /// Every row drained its queue and re-admitted everything.
    pub healed: bool,
    /// Every row degraded under the fsync fault and healed back.
    pub durability_healed: bool,
    /// Session-weighted baseline admitted fraction across rows.
    pub baseline_admitted_fraction: f64,
    /// Session-weighted recovered admitted fraction across rows.
    pub recovered_admitted_fraction: f64,
    /// Aggregate recovered fraction within one point of baseline.
    pub within_one_point: bool,
    /// Total audit discrepancies across rows (must be 0).
    pub conservation_violations: usize,
    /// One row per fleet scale.
    pub rows: Vec<ChaosRow>,
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/chaos-bench")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `n` agents with one transcode slot each; `2n` sessions, half of
/// them transcoding (hi→lo). Transcode slots — not bandwidth — are the
/// scarce resource, so killing a task-holding agent strands a decision
/// with no feasible alternative and displaces the whole session, while
/// the restore frees the slot again for healing.
fn chaos_universe(n: usize) -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for a in 0..n {
        b.add_agent(
            AgentSpec::builder(format!("agent-{a}"))
                .capacity(Capacity::new(200.0, 200.0, 1))
                .build(),
        );
    }
    for i in 0..2 * n {
        let s = b.add_session();
        if i % 2 == 0 {
            b.add_user(s, hi, lo);
            b.add_user(s, lo, lo);
        } else {
            b.add_user(s, hi, hi);
            b.add_user(s, hi, hi);
        }
    }
    b.symmetric_delays(
        |l, k| 25.0 + 20.0 * ((l as f64) - (k as f64)).abs(),
        |l, u| 8.0 + ((l * 13 + u * 7) % 23) as f64,
    );
    b.d_max_ms(10_000.0);
    Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ))
}

fn fleet_config(seed: u64, n_agents: usize) -> FleetConfig {
    FleetConfig {
        // Neighborhood = the whole fleet: with one transcode slot per
        // agent the tasks form a bijection, and a narrower AgRank
        // window can hide the one agent whose slot is still free.
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(n_agents)),
        alg1: Alg1Config::paper(400.0),
        ledger_shards: 2,
        readmit: Some(ReadmitConfig {
            seed,
            // Dense retries with a deep budget: the storm flaps agents
            // every few seconds and the drain bound wants the queue to
            // resolve within the virtual horizon.
            cap_backoff_s: 4.0,
            max_attempts: 32,
            ..ReadmitConfig::default()
        }),
    }
}

fn persist_config(dir: &std::path::Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        stay_batch: 1,
    }
}

/// Admits every session (queueing capacity refusals) and registers a
/// WAIT worker for each admitted one.
fn warm_up(fleet: &Fleet, pool: &ReoptPool, sessions: usize) {
    for i in 0..sessions {
        if matches!(
            fleet.admit_or_queue(SessionId::from(i)),
            AdmitOutcome::Admitted
        ) {
            pool.register(fleet, SessionId::from(i), 0.0);
        }
    }
}

/// Applies the plan's events in `[from_us, to_us)`, interleaving WAIT
/// hops and due re-admission retries through `ReoptPool::tick_until`.
fn drive_window(fleet: &Fleet, pool: &ReoptPool, plan: &FaultPlan, from_us: u64, to_us: u64) {
    for ev in plan.window(from_us, to_us) {
        pool.tick_until(fleet, ev.t_us as f64 / 1e6);
        fleet.set_clock_us(ev.t_us);
        match ev.kind {
            FaultKind::FailAgent(a) => {
                fleet.fail_agent(AgentId::new(a));
            }
            FaultKind::RestoreAgent(a) => {
                fleet.restore_agent(AgentId::new(a));
            }
        }
    }
    pool.tick_until(fleet, to_us as f64 / 1e6);
    fleet.set_clock_us(to_us);
}

fn run_scale(n_agents: usize, seed: u64) -> ChaosRow {
    let problem = chaos_universe(n_agents);
    let sessions = problem.instance().num_sessions();
    let pool_seed = seed;
    let config = || fleet_config(pool_seed, n_agents);
    let plan = FaultPlan::storm(&StormConfig {
        seed: seed.wrapping_add(n_agents as u64),
        agents: (0..n_agents as u32).collect(),
        start_s: 2.0,
        period_s: 6.0,
        epochs: 4,
    });
    // One past the last event: `FaultPlan::window` is half-open, and
    // the storm's final restore must actually fire.
    let end_us = plan.end_us() + 1;
    let horizon_us = end_us + 180_000_000;
    // Crash in the middle of the storm, 100 ms past an event, so the
    // recovery replays a history with live displacements in flight.
    let cut_us = plan.events()[plan.events().len() / 2].t_us + 100_000;

    // Fault-free twin: the baseline admitted fraction.
    let baseline = Fleet::new(problem.clone(), config());
    let baseline_pool = ReoptPool::new(pool_seed);
    warm_up(&baseline, &baseline_pool, sessions);
    baseline_pool.tick_until(&baseline, horizon_us as f64 / 1e6);
    let baseline_fraction = baseline.live_count() as f64 / sessions as f64;

    // Storm fleet on a fault-injecting VFS, plus an uncrashed control
    // twin driven in lockstep over the identical plan.
    let dir = scratch_dir(&format!("store-{n_agents}"));
    let vfs = FaultyVfs::new();
    let fleet = Fleet::with_persistence_on(
        problem.clone(),
        config(),
        persist_config(&dir),
        Arc::new(vfs.clone()),
        RetryPolicy::immediate(3),
    )
    .expect("persistent fleet");
    // Armed past the warm-up's appends so the fault trips mid-storm;
    // more consecutive failures than the per-append retry budget, so
    // the journal must degrade rather than ride out the fault.
    vfs.inject(StorageFault {
        path_contains: ".vcwal".into(),
        at_byte: 1024,
        kind: StorageFaultKind::FsyncErr { times: 6 },
    });
    let pool = ReoptPool::new(pool_seed);
    let control = Fleet::new(problem.clone(), config());
    let control_pool = ReoptPool::new(pool_seed);
    for (f, p) in [(&fleet, &pool), (&control, &control_pool)] {
        warm_up(f, p, sessions);
    }
    // Drive to the crash point one storm event at a time, sampling for
    // the moment the fsync fault pushes the journal into buffered mode
    // (both twins step the identical schedule).
    let mut degraded_at_us = None;
    let mut prev = 0u64;
    for ev in plan.window(0, cut_us) {
        for (f, p) in [(&fleet, &pool), (&control, &control_pool)] {
            drive_window(f, p, &plan, prev, ev.t_us + 1);
        }
        prev = ev.t_us + 1;
        if degraded_at_us.is_none() && fleet.durability_degraded() {
            degraded_at_us = Some(ev.t_us);
        }
    }
    for (f, p) in [(&fleet, &pool), (&control, &control_pool)] {
        drive_window(f, p, &plan, prev, cut_us);
    }
    if degraded_at_us.is_none() && fleet.durability_degraded() {
        degraded_at_us = Some(cut_us);
    }
    let degraded_observed = fleet.durability_degraded();
    // The armed fault burns out against heal probes; once clear, the
    // journal must return to synchronous durability.
    while vfs.pending() > 0 {
        let _ = fleet.heal_journal();
    }
    let durability_healed = fleet.heal_journal() && !fleet.durability_degraded();
    let fsync_errors = vfs.fsync_errors();

    fleet.journal_timers(&pool); // durability boundary
    let pre_crash = fleet.durable_state();
    drop(fleet); // crash mid-storm

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, config()).expect("recovery");
    let mut parity = recovered.durable_state() == pre_crash;
    let restored = ReoptPool::new(pool_seed);
    restored.restore_timers(&recovered, &report.timers);
    recovered.set_clock_us(cut_us);

    // Finish the storm on both twins, then step past its end in 100 ms
    // increments to time the queue drain (identical schedules keep the
    // twins bitwise comparable).
    for (f, p) in [(&recovered, &restored), (&control, &control_pool)] {
        drive_window(f, p, &plan, cut_us, end_us);
    }
    let mut drained_at_us = if recovered.readmit_queue_len() == 0 {
        Some(end_us)
    } else {
        None
    };
    let mut t = end_us;
    while t < horizon_us {
        t = (t + 100_000).min(horizon_us);
        restored.tick_until(&recovered, t as f64 / 1e6);
        recovered.set_clock_us(t);
        control_pool.tick_until(&control, t as f64 / 1e6);
        control.set_clock_us(t);
        if drained_at_us.is_none() && recovered.readmit_queue_len() == 0 {
            drained_at_us = Some(t);
        }
    }
    recovered.record_timers(&restored);
    control.record_timers(&control_pool);
    parity = parity
        && recovered.durable_state() == control.durable_state()
        && recovered.readmit_entries() == control.readmit_entries()
        && recovered.objective().to_bits() == control.objective().to_bits();

    let c = recovered.counters();
    let displaced = c.displaced.load(Ordering::Relaxed);
    let readmitted = c.readmit_admitted.load(Ordering::Relaxed);
    let dropped = c.readmit_dropped.load(Ordering::Relaxed);
    let evacuations = c.evacuations.load(Ordering::Relaxed);
    let pre_storm = baseline.live_sessions();
    let post = recovered.live_sessions();
    let healed = dropped == 0
        && recovered.readmit_queue_len() == 0
        && displaced >= 1
        && readmitted >= 1
        && pre_storm.iter().all(|s| post.contains(s))
        && recovered.live_count() >= baseline.live_count();
    let recovered_fraction = recovered.live_count() as f64 / sessions as f64;
    ChaosRow {
        sessions,
        agents: n_agents,
        storm_events: plan.events().len(),
        displaced,
        readmitted,
        dropped,
        evacuations,
        baseline_admitted_fraction: baseline_fraction,
        recovered_admitted_fraction: recovered_fraction,
        within_one_point: recovered_fraction >= baseline_fraction - 0.01,
        parity,
        healed,
        queue_drain_s: (drained_at_us.unwrap_or(horizon_us) - end_us) as f64 / 1e6,
        replayed: report.replayed,
        degraded_observed,
        degraded_dwell_s: degraded_at_us.map_or(0.0, |t| (cut_us - t) as f64 / 1e6),
        durability_healed,
        fsync_errors,
        conservation_violations: recovered.audit().len() + control.audit().len(),
    }
}

/// Runs the gauntlet at each agent scale (sessions = 2 × agents).
pub fn run(scales: &[usize], seed: u64) -> ChaosResult {
    let rows: Vec<ChaosRow> = scales.iter().map(|&n| run_scale(n, seed)).collect();
    let total_sessions: usize = rows.iter().map(|r| r.sessions).sum();
    let weighted = |f: fn(&ChaosRow) -> f64| {
        rows.iter().map(|r| f(r) * r.sessions as f64).sum::<f64>() / total_sessions.max(1) as f64
    };
    let baseline = weighted(|r| r.baseline_admitted_fraction);
    let recovered = weighted(|r| r.recovered_admitted_fraction);
    ChaosResult {
        parity: rows.iter().all(|r| r.parity),
        healed: rows.iter().all(|r| r.healed),
        durability_healed: rows
            .iter()
            .all(|r| r.degraded_observed && r.durability_healed),
        baseline_admitted_fraction: baseline,
        recovered_admitted_fraction: recovered,
        within_one_point: recovered >= baseline - 0.01,
        conservation_violations: rows.iter().map(|r| r.conservation_violations).sum(),
        rows,
    }
}

/// Serializes the result as the `BENCH_chaos.json` document
pub fn to_json(result: &ChaosResult) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        concat!(
            "{{\n  \"experiment\": \"chaos\",\n  \"cpus\": {},\n",
            "  \"parity\": {},\n  \"healed\": {},\n",
            "  \"durability_healed\": {},\n  \"within_one_point\": {},\n",
            "  \"baseline_admitted_fraction\": {:.4},\n",
            "  \"recovered_admitted_fraction\": {:.4},\n",
            "  \"conservation_violations\": {},\n",
            "  \"rows\": [\n"
        ),
        cpus,
        result.parity,
        result.healed,
        result.durability_healed,
        result.within_one_point,
        result.baseline_admitted_fraction,
        result.recovered_admitted_fraction,
        result.conservation_violations,
    );
    for (i, r) in result.rows.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"sessions\": {}, \"agents\": {}, \"storm_events\": {}, ",
                "\"displaced\": {}, \"readmitted\": {}, \"dropped\": {}, ",
                "\"evacuations\": {}, ",
                "\"baseline_admitted_fraction\": {:.4}, ",
                "\"recovered_admitted_fraction\": {:.4}, ",
                "\"within_one_point\": {}, \"parity\": {}, \"healed\": {}, ",
                "\"queue_drain_s\": {:.1}, \"replayed\": {}, ",
                "\"degraded_observed\": {}, \"degraded_dwell_s\": {:.1}, ",
                "\"durability_healed\": {}, ",
                "\"fsync_errors\": {}, \"conservation_violations\": {}}}{}\n"
            ),
            r.sessions,
            r.agents,
            r.storm_events,
            r.displaced,
            r.readmitted,
            r.dropped,
            r.evacuations,
            r.baseline_admitted_fraction,
            r.recovered_admitted_fraction,
            r.within_one_point,
            r.parity,
            r.healed,
            r.queue_drain_s,
            r.replayed,
            r.degraded_observed,
            r.degraded_dwell_s,
            r.durability_healed,
            r.fsync_errors,
            r.conservation_violations,
            if i + 1 == result.rows.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the rows and writes `BENCH_chaos.json` into the working
/// directory.
pub fn print(result: &ChaosResult) {
    println!("Chaos plane — storm / crash / recover / heal at each fleet scale");
    println!(
        "{:>9} {:>7} {:>7} {:>10} {:>8} {:>8} {:>8} {:>9} {:>7} {:>7} {:>8}",
        "sessions",
        "agents",
        "events",
        "displaced",
        "readmit",
        "dropped",
        "base",
        "recovered",
        "parity",
        "healed",
        "drain s"
    );
    for r in &result.rows {
        println!(
            "{:>9} {:>7} {:>7} {:>10} {:>8} {:>8} {:>8.3} {:>9.3} {:>7} {:>7} {:>8.1}",
            r.sessions,
            r.agents,
            r.storm_events,
            r.displaced,
            r.readmitted,
            r.dropped,
            r.baseline_admitted_fraction,
            r.recovered_admitted_fraction,
            r.parity,
            r.healed,
            r.queue_drain_s,
        );
    }
    println!(
        "\naggregate: parity {}, healed {}, durability healed {}, \
         admitted fraction {:.4} (baseline {:.4}, within one point: {})",
        result.parity,
        result.healed,
        result.durability_healed,
        result.recovered_admitted_fraction,
        result.baseline_admitted_fraction,
        result.within_one_point,
    );
    let json = to_json(result);
    match std::fs::write("BENCH_chaos.json", &json) {
        Ok(()) => println!("\nwrote BENCH_chaos.json"),
        Err(e) => eprintln!("\ncould not write BENCH_chaos.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smallest_scale_survives_the_gauntlet() {
        let result = run(&[3], 2015);
        assert_eq!(result.rows.len(), 1);
        let r = &result.rows[0];
        assert!(r.parity, "crashed/recovered twin diverged");
        assert!(r.healed, "queue failed to heal: {r:?}");
        assert!(r.degraded_observed && r.durability_healed);
        assert!(r.within_one_point);
        assert_eq!(result.conservation_violations, 0);
        let json = to_json(&result);
        assert!(json.contains("\"experiment\": \"chaos\""));
        assert!(json.contains("\"parity\": true"));
        assert!(json.contains("\"healed\": true"));
    }
}
