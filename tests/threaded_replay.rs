//! The journal is the serialization order — under threads.
//!
//! Every other crash/recover proof drives the fleet on the virtual
//! clock, one op at a time. Here two `run_wall` hop threads race the
//! test thread's departures, re-admissions and one online registration
//! on a persistent fleet; the fleet is then dropped without a
//! checkpoint and its journal replayed into a fresh one, which must
//! equal the raced fleet bit for bit — whatever interleaving the host
//! produced, the order the journal recorded explains it. (The gate
//! `fleetbench`'s `wall_race` episode applies, at tier-1 size.) The
//! same race runs the wakeup queue's `pop_due`/`complete` against
//! `deregister`/`register` on real threads.

use cloud_vc::prelude::*;
use std::sync::Arc;
use std::time::Duration;
use vc_orchestrator::persist::FleetOp;
use vc_orchestrator::ReoptPool;
use vc_persist::{journal_files, read_journal};

#[test]
fn a_threaded_run_replays_to_the_same_fleet() {
    // The Nearest bootstrap on roomy agents: hops really migrate, so
    // the journal carries `Hop` records and not only stay counts.
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: 320,
        max_session_size: 5,
        mean_bandwidth_mbps: Some(1000.0),
        mean_transcode_slots: Some(30.0),
        seed: 41,
        ..LargeScaleConfig::default()
    });
    let sessions = instance.num_sessions();
    let online = SessionDef::of_instance(&instance, SessionId::new(0));
    let seed_problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let config = FleetConfig {
        placement: PlacementPolicy::Nearest,
        alg1: Alg1Config {
            mean_countdown_s: 2.0,
            ..Alg1Config::paper(400.0)
        },
        ..FleetConfig::default()
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/tmp-threaded-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let persist = PersistConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Batch(512),
        stay_batch: 4,
    };
    let fleet = Fleet::with_persistence(seed_problem.clone(), config.clone(), persist.clone())
        .expect("persistent fleet");
    let pool = ReoptPool::new(97);
    let admit = |s: SessionId| {
        if fleet.admit(s).is_ok() {
            pool.register(&fleet, s, 0.0);
        }
    };
    (0..sessions).map(SessionId::from).for_each(admit);

    std::thread::scope(|scope| {
        let hoppers = scope.spawn(|| pool.run_wall(&fleet, Duration::from_millis(250), 2));
        let mut turn = 0;
        while !hoppers.is_finished() {
            let s = SessionId::from(turn * 7 % sessions);
            fleet.depart(s);
            pool.deregister(s);
            admit(s);
            if turn == 5 {
                admit(fleet.register_session(&online).expect("online conference"));
            }
            turn += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        let hops = hoppers.join().expect("a hop thread panicked");
        assert!(hops > 0 && turn > 5, "{hops} hops raced {turn} churn turns");
    });

    assert!(fleet.audit().is_empty(), "audit: {:?}", fleet.audit());
    assert_eq!(
        pool.shard_depths().iter().sum::<u64>(),
        fleet.live_count() as u64,
        "each live session has exactly one queued wakeup"
    );
    fleet.journal_timers(&pool);
    let state = fleet.durable_state();
    let objective = fleet.objective();
    fleet.commit_journal().expect("commit");
    drop(fleet); // the crash: no shutdown, no checkpoint

    let ops: Vec<FleetOp> = journal_files(&dir)
        .expect("store lists its journals")
        .iter()
        .flat_map(|(_, path)| read_journal::<FleetOp>(path).expect("journal reads").0)
        .map(|(_, op)| op)
        .collect();
    let count = |is: fn(&FleetOp) -> bool| ops.iter().filter(|op| is(op)).count();
    let migrations = count(|op| matches!(op, FleetOp::Hop { .. }));
    let departs = count(|op| matches!(op, FleetOp::Depart { .. }));
    assert!(
        migrations > 0 && departs > 0,
        "the run proved nothing: its journal holds {migrations} Hop and {departs} Depart records"
    );

    let (recovered, report) = Fleet::recover(persist, seed_problem, config).expect("recovery");
    assert_eq!(report.replayed, ops.len(), "recovery replays every record");
    assert!(recovered.audit().is_empty(), "{:?}", recovered.audit());
    assert!(
        recovered.durable_state() == state,
        "replaying the journal did not rebuild the raced fleet"
    );
    assert_eq!(recovered.objective().to_bits(), objective.to_bits());
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}
