//! Persistence experiment (extension): journal-append cost, snapshot /
//! checkpoint cost, and crash-recovery latency as the fleet grows.
//!
//! For each fleet size the run admits that many live sessions through
//! the real control plane with a write-ahead journal attached, then
//! measures (a) the buffered append path in isolation (the per-event
//! cost every fleet mutation pays), (b) one fsync'd commit of the
//! batch, (c) a full checkpoint (snapshot + journal rotation +
//! compaction), and (d) `Fleet::recover` over the resulting store —
//! snapshot load plus journal-tail replay plus the conservation
//! re-audit.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::UapProblem;
use vc_cost::CostModel;
use vc_model::SessionId;
use vc_orchestrator::persist::{FleetOp, PersistConfig};
use vc_orchestrator::{Fleet, FleetConfig, PlacementPolicy};
use vc_persist::journal::{FsyncPolicy, JournalWriter};
use vc_workloads::{large_scale_instance, LargeScaleConfig};

/// One fleet-size measurement.
#[derive(Debug, Clone)]
pub struct PersistRow {
    /// Live sessions when the store was measured.
    pub live_sessions: usize,
    /// Mean buffered journal-append latency (ns/event).
    pub append_ns: f64,
    /// Appends measured for `append_ns`.
    pub append_events: usize,
    /// One fsync'd commit of the whole append batch (ms).
    pub commit_ms: f64,
    /// Full checkpoint: snapshot write + journal rotation + compaction (ms).
    pub checkpoint_ms: f64,
    /// Snapshot file size after the checkpoint (bytes).
    pub snapshot_bytes: u64,
    /// `Fleet::recover`: snapshot load + tail replay + re-audit (ms).
    pub recover_ms: f64,
    /// Journal records replayed by the recovery.
    pub replayed: usize,
    /// Recovered-vs-crashed objective difference (must be 0.0).
    pub objective_delta: f64,
}

/// All rows of one run.
#[derive(Debug, Clone)]
pub struct PersistResult {
    /// One row per fleet size.
    pub rows: Vec<PersistRow>,
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/persist-bench")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

fn run_size(target: usize, seed: u64) -> PersistRow {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: target * 3,
        max_session_size: 3,
        seed,
        ..LargeScaleConfig::default()
    });
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let num_sessions = problem.instance().num_sessions();
    let store = scratch_dir(&format!("store-{target}"));
    let fleet = Fleet::with_persistence(
        problem.clone(),
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(3)),
            alg1: Alg1Config::paper(400.0),
            ledger_shards: 8,
            ..FleetConfig::default()
        },
        PersistConfig {
            dir: store.clone(),
            fsync: FsyncPolicy::Batch(1024),
            stay_batch: 64,
        },
    )
    .expect("persistent fleet");
    let mut live = 0usize;
    for i in 0..num_sessions {
        if live >= target {
            break;
        }
        if fleet.admit(SessionId::from(i)).is_ok() {
            live += 1;
        }
    }
    assert_eq!(live, target, "universe too small for the target fleet");

    // (a) The buffered append path in isolation, on a standalone
    // journal over records shaped like this fleet's real events.
    // One state materialization for all sample placements (`with_state`
    // re-evaluates every live session, so it must not sit in a loop).
    let placements: Vec<(SessionId, vc_orchestrator::fleet::Placement)> = fleet.with_state(|st| {
        (0..16.min(target))
            .map(|i| {
                let s = SessionId::from(i);
                (s, vc_orchestrator::fleet::placement_of(st, s))
            })
            .collect()
    });
    let mut sample_ops: Vec<FleetOp> = Vec::new();
    for (s, (users, tasks)) in placements {
        sample_ops.push(FleetOp::Admit {
            session: s,
            users,
            tasks,
            tier: vc_algo::admission::AdmissionTier::Enumeration,
            repair_steps: 0,
        });
        sample_ops.push(FleetOp::StayBatch { count: 1 });
    }
    let append_events = 20_000usize;
    let mut writer = JournalWriter::<FleetOp>::create(
        store.join("append-bench.scratch"),
        FsyncPolicy::Manual,
        1,
    )
    .expect("scratch journal");
    let t0 = Instant::now();
    for i in 0..append_events {
        writer
            .append(&sample_ops[i % sample_ops.len()])
            .expect("buffered append");
    }
    let append_ns = t0.elapsed().as_nanos() as f64 / append_events as f64;
    // (b) One fsync'd commit of everything appended above.
    let t0 = Instant::now();
    writer.commit().expect("commit");
    let commit_ms = t0.elapsed().as_secs_f64() * 1e3;
    drop(writer);
    let _ = std::fs::remove_file(store.join("append-bench.scratch"));

    // (c) A real checkpoint of the live fleet.
    let t0 = Instant::now();
    let seq = fleet.checkpoint().expect("checkpoint");
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snapshot_bytes = std::fs::metadata(vc_persist::snapshot_path(&store, seq))
        .map(|m| m.len())
        .unwrap_or(0);

    // Post-checkpoint activity so recovery has a journal tail to
    // replay: a depart/re-admit churn across 10% of the fleet.
    for i in 0..(target / 10).max(1) {
        let s = SessionId::from(i);
        fleet.depart(s);
        fleet.admit(s).expect("re-admit");
    }
    fleet.commit_journal().expect("commit tail");
    let objective_before = fleet.objective();
    drop(fleet); // crash

    // (d) Recovery over the store: snapshot + tail + audit.
    let t0 = Instant::now();
    let (recovered, report) = Fleet::recover(
        PersistConfig {
            dir: store,
            fsync: FsyncPolicy::Batch(1024),
            stay_batch: 64,
        },
        problem,
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(3)),
            alg1: Alg1Config::paper(400.0),
            ledger_shards: 8,
            ..FleetConfig::default()
        },
    )
    .expect("recover");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(recovered.audit().is_empty(), "recovered fleet failed audit");
    PersistRow {
        live_sessions: recovered.live_count(),
        append_ns,
        append_events,
        commit_ms,
        checkpoint_ms,
        snapshot_bytes,
        recover_ms,
        replayed: report.replayed,
        objective_delta: (recovered.objective() - objective_before).abs(),
    }
}

/// Runs the persistence measurements across fleet sizes.
pub fn run(seed: u64) -> PersistResult {
    PersistResult {
        rows: [100usize, 300, 1000]
            .iter()
            .map(|&target| run_size(target, seed))
            .collect(),
    }
}

/// Prints the measurement table.
pub fn print(result: &PersistResult) {
    println!("Persistence — journal append, checkpoint, and crash recovery vs fleet size");
    println!(
        "{:>8} {:>12} {:>11} {:>13} {:>14} {:>11} {:>9} {:>10}",
        "live",
        "append ns",
        "commit ms",
        "checkpoint ms",
        "snapshot KiB",
        "recover ms",
        "replayed",
        "|Δφ|"
    );
    for r in &result.rows {
        println!(
            "{:>8} {:>12.0} {:>11.2} {:>13.2} {:>14.1} {:>11.2} {:>9} {:>10.1e}",
            r.live_sessions,
            r.append_ns,
            r.commit_ms,
            r.checkpoint_ms,
            r.snapshot_bytes as f64 / 1024.0,
            r.recover_ms,
            r.replayed,
            r.objective_delta,
        );
    }
    let worst = result
        .rows
        .iter()
        .map(|r| r.append_ns)
        .fold(0.0f64, f64::max);
    println!(
        "\nbuffered journal append worst case: {:.2} µs/event (target ≤ 10 µs)",
        worst / 1e3
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_fleet_round_trips_through_the_store() {
        let row = run_size(40, 7);
        assert_eq!(row.live_sessions, 40);
        assert!(row.replayed > 0, "no journal tail was replayed");
        assert_eq!(row.objective_delta, 0.0, "recovered objective differs");
    }
}
