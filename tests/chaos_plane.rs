//! Chaos-plane acceptance: deterministic fault storms and injected
//! storage faults against the persistent fleet.
//!
//! * a mid-storm crash/recovery is **bitwise** the uncrashed twin —
//!   placements, Φ, counters, and the re-admission queue (entries,
//!   epochs, backoff schedule) all ride the format-v5 journal;
//! * the journal of a storm-laden, displacement-heavy history is cut
//!   at every byte offset and every prefix recovers
//!   conservation-clean;
//! * injected `fsync` faults degrade the journal to buffered mode
//!   instead of failing fleet operations, and healing restores full
//!   durability with no record loss;
//! * after the storm passes, the self-healing queue drains and the
//!   fleet returns to its fault-free size;
//! * `backoff_us` is a pure, bounded function of
//!   `(seed, session, epoch, attempt)`.

use cloud_vc::persist::FsyncPolicy;
use cloud_vc::prelude::*;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_chaos::{FaultKind, FaultPlan, FaultyVfs, StorageFault, StorageFaultKind, StormConfig};
use vc_core::UapProblem;
use vc_orchestrator::{backoff_us, AdmitOutcome, ReadmitConfig, ReoptPool, BASE_BACKOFF_US};
use vc_persist::journal::RetryPolicy;

const POOL_SEED: u64 = 2015;

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-chaos-plane")
        .join(format!("it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three agents sized so the fleet fits comfortably at full strength
/// but **cannot** absorb a failed agent's load on the survivors:
/// evacuations run out of feasible targets and displace whole sessions
/// into the re-admission queue.
fn chaos_universe() -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for name in ["a", "b", "c"] {
        b.add_agent(
            AgentSpec::builder(name)
                .capacity(Capacity::new(60.0, 60.0, 1))
                .build(),
        );
    }
    for i in 0..6 {
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

fn fleet_config() -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
        alg1: Alg1Config::paper(400.0),
        readmit: Some(ReadmitConfig {
            seed: POOL_SEED,
            // Dense retries with a deep budget: storms in these tests
            // flap agents every few seconds, and the drain assertions
            // want the queue to resolve (heal or drop) within the
            // virtual horizon.
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

/// A four-epoch crash/flap/recover storm over all three agents.
fn storm() -> FaultPlan {
    FaultPlan::storm(&StormConfig {
        seed: 11,
        agents: vec![0, 1, 2],
        start_s: 2.0,
        period_s: 6.0,
        epochs: 4,
    })
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

/// The chaos-relevant counter slice (the full counter set rides
/// `durable_state`; this is the human-readable failure message).
fn chaos_counters(fleet: &Fleet) -> [usize; 6] {
    let c = fleet.counters();
    [
        c.evacuations.load(Ordering::Relaxed),
        c.forced_moves.load(Ordering::Relaxed),
        c.displaced.load(Ordering::Relaxed),
        c.readmit_enqueued.load(Ordering::Relaxed),
        c.readmit_admitted.load(Ordering::Relaxed),
        c.readmit_dropped.load(Ordering::Relaxed),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Backoff draws are pure in their coordinates and always land in
    /// `[base, cap]` — the property that lets replay reconstruct a
    /// retry schedule without journaling a single draw.
    #[test]
    fn backoff_is_pure_and_bounded(
        seed in any::<u64>(),
        s in 0u32..10_000,
        epoch in 0u64..1_000,
        attempt in 0u32..12,
    ) {
        let cfg = ReadmitConfig { seed, ..ReadmitConfig::default() };
        let a = backoff_us(&cfg, SessionId::new(s), epoch, attempt);
        let b = backoff_us(&cfg, SessionId::new(s), epoch, attempt);
        prop_assert_eq!(a, b, "backoff is not deterministic");
        let base = BASE_BACKOFF_US;
        let cap = (cfg.cap_backoff_s * 1e6) as u64;
        prop_assert!(a >= base && a <= cap, "draw {} outside [{}, {}]", a, base, cap);
        // Attempt 0 waits exactly the floor: the first retry's timing
        // is load-independent.
        if attempt == 0 {
            prop_assert_eq!(a, base);
        }
    }
}

/// The tentpole acceptance: kill the persistent fleet in the middle of
/// a displacement-heavy storm — with sessions *in* the re-admission
/// queue — recover, and finish the storm. The result must be bitwise
/// identical (placements, Φ, counters, queue entries and their backoff
/// schedule) to an uncrashed twin driven over the same plan.
#[test]
fn mid_storm_crash_recovery_matches_uncrashed_twin() {
    let problem = chaos_universe();
    let sessions = problem.instance().num_sessions();
    let plan = storm();
    let end_us = plan.end_us() + 60_000_000;

    // Probe an ephemeral twin for a cut right after a *displacing*
    // crash, before the first retry (base backoff 0.5 s) can drain the
    // queue: the crash/recover cut must catch displaced sessions
    // mid-flight.
    let probe = Fleet::new(problem.clone(), fleet_config());
    let probe_pool = ReoptPool::new(POOL_SEED);
    warm_up(&probe, &probe_pool, sessions);
    let mut cut_us = None;
    let mut prev = 0;
    for ev in plan.events() {
        drive_window(&probe, &probe_pool, &plan, prev, ev.t_us + 1);
        prev = ev.t_us + 1;
        if probe.counters().displaced.load(Ordering::Relaxed) >= 1 && probe.readmit_queue_len() > 0
        {
            cut_us = Some(ev.t_us + 100_000);
            break;
        }
    }
    let cut_us = cut_us.expect("storm never displaced into the queue — universe not tight enough");

    let dir = store_dir("twin");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let pool = ReoptPool::new(POOL_SEED);
    let control = Fleet::new(problem.clone(), fleet_config());
    let control_pool = ReoptPool::new(POOL_SEED);
    for (f, p) in [(&fleet, &pool), (&control, &control_pool)] {
        warm_up(f, p, sessions);
        drive_window(f, p, &plan, 0, cut_us);
    }
    assert!(
        fleet.counters().displaced.load(Ordering::Relaxed) >= 1,
        "no displacement before the cut"
    );
    assert!(fleet.readmit_queue_len() >= 1, "queue empty at the cut");
    fleet.journal_timers(&pool); // durability boundary
    let pre_crash = fleet.durable_state();
    drop(fleet); // crash mid-storm

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.replayed > 0);
    assert_eq!(
        recovered.durable_state(),
        pre_crash,
        "recovery is not the pre-crash fleet"
    );
    let restored = ReoptPool::new(POOL_SEED);
    restored.restore_timers(&recovered, &report.timers);
    recovered.set_clock_us(cut_us);
    assert_eq!(
        recovered.readmit_entries(),
        control.readmit_entries(),
        "the re-admission queue did not survive the crash"
    );

    for (f, p) in [(&recovered, &restored), (&control, &control_pool)] {
        drive_window(f, p, &plan, cut_us, end_us);
    }
    recovered.record_timers(&restored);
    control.record_timers(&control_pool);
    assert_eq!(chaos_counters(&recovered), chaos_counters(&control));
    assert_eq!(
        recovered.readmit_entries(),
        control.readmit_entries(),
        "retry schedules diverged after recovery"
    );
    assert_eq!(
        recovered.durable_state(),
        control.durable_state(),
        "crashed/recovered run diverged from the uncrashed twin"
    );
    assert_eq!(
        recovered.objective().to_bits(),
        control.objective().to_bits(),
        "Φ differs beyond bitwise"
    );
    assert!(recovered.audit().is_empty());
    assert!(control.audit().is_empty());
}

/// The byte-offset crash sweep over a *chaos* history: the journal
/// carries `FailAgent` displacements, `ReadmitEnqueue` installs,
/// backoff re-enqueues, re-admission `Admit`s and drops — and every
/// prefix must recover conservation-clean, with the full journal
/// reproducing the final fleet exactly (queue included).
#[test]
fn storm_journal_cut_at_every_byte_offset_recovers_conserved() {
    let problem = chaos_universe();
    let sessions = problem.instance().num_sessions();
    let plan = storm();
    let src = store_dir("sweep-src");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&src))
        .expect("persistent fleet");
    let pool = ReoptPool::new(POOL_SEED);
    warm_up(&fleet, &pool, sessions);
    drive_window(&fleet, &pool, &plan, 0, plan.end_us() + 20_000_000);
    fleet.journal_timers(&pool);
    let counters = chaos_counters(&fleet);
    assert!(
        counters[2] >= 1,
        "history has no displacement: {counters:?}"
    );
    assert!(
        counters[4] >= 1,
        "history has no healed re-admission: {counters:?}"
    );
    let final_state = fleet.durable_state();
    let final_queue = fleet.readmit_entries();
    drop(fleet);

    let snapshot_bytes =
        std::fs::read(cloud_vc::persist::snapshot_path(&src, 0)).expect("genesis snapshot");
    let (start_seq, journal) = cloud_vc::persist::journal_files(&src)
        .expect("scan")
        .pop()
        .expect("one journal");
    assert_eq!(start_seq, 1);
    let journal_bytes = std::fs::read(journal).expect("journal bytes");
    assert!(
        journal_bytes.len() > 400,
        "history too small to be a meaningful sweep"
    );

    let work = store_dir("sweep-work");
    let mut max_queue = 0usize;
    for cut in 0..=journal_bytes.len() {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("work dir");
        std::fs::write(cloud_vc::persist::snapshot_path(&work, 0), &snapshot_bytes)
            .expect("copy snapshot");
        std::fs::write(
            cloud_vc::persist::journal_path(&work, 1),
            &journal_bytes[..cut],
        )
        .expect("cut journal");
        let (recovered, _) = Fleet::recover(persist_config(&work), problem.clone(), fleet_config())
            .unwrap_or_else(|e| panic!("recovery failed at byte offset {cut}: {e}"));
        assert!(
            recovered.audit().is_empty(),
            "conservation violated at byte offset {cut}"
        );
        max_queue = max_queue.max(recovered.readmit_queue_len());
        if cut == journal_bytes.len() {
            assert_eq!(recovered.durable_state(), final_state);
            assert_eq!(recovered.readmit_entries(), final_queue);
        }
    }
    assert!(
        max_queue >= 1,
        "no recovery prefix ever saw a queued session"
    );
}

/// Storage chaos: `fsync` starts failing mid-storm. The journal burns
/// its capped retries, degrades to buffered appends — no fleet
/// operation ever errors — and once the fault clears, healing restores
/// synchronous durability with every record intact.
#[test]
fn fsync_faults_degrade_then_heal_with_no_record_loss() {
    let problem = chaos_universe();
    let sessions = problem.instance().num_sessions();
    let dir = store_dir("fsync-storm");
    let vfs = FaultyVfs::new();
    let fleet = Fleet::with_persistence_on(
        problem.clone(),
        fleet_config(),
        persist_config(&dir),
        Arc::new(vfs.clone()),
        RetryPolicy::immediate(3),
    )
    .expect("persistent fleet");
    // Armed after creation so the header sync stays clean; more
    // consecutive failures than the per-append retry budget.
    vfs.inject(StorageFault {
        path_contains: ".vcwal".into(),
        at_byte: 8,
        kind: StorageFaultKind::FsyncErr { times: 6 },
    });
    let pool = ReoptPool::new(POOL_SEED);
    warm_up(&fleet, &pool, sessions);
    let plan = storm();
    drive_window(&fleet, &pool, &plan, 0, plan.end_us() + 30_000_000);
    // Every append above was accepted; the journal degraded instead of
    // surfacing the storage fault to the control plane.
    assert!(fleet.durability_degraded(), "journal never degraded");
    assert!(fleet.journal_sync_retries() >= 2);
    assert!(vfs.fsync_errors() >= 3);
    // The armed fault burns out; healing restores full durability.
    while vfs.pending() > 0 {
        let _ = fleet.heal_journal();
    }
    assert!(fleet.heal_journal(), "journal refused to heal");
    assert!(!fleet.durability_degraded());
    fleet.journal_timers(&pool);
    let before = fleet.durable_state();
    drop(fleet);

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.replayed > 0);
    assert_eq!(
        recovered.durable_state(),
        before,
        "healed journal lost records"
    );
    assert!(recovered.audit().is_empty());
}

/// Self-healing end state: once the storm passes and every agent is
/// back, the queue drains to empty and the fleet carries exactly the
/// live set of a twin that never saw a fault.
#[test]
fn queue_drains_and_the_fleet_heals_to_its_fault_free_size() {
    let problem = chaos_universe();
    let sessions = problem.instance().num_sessions();
    let plan = storm();
    let horizon_us = plan.end_us() + 180_000_000;

    let baseline = Fleet::new(problem.clone(), fleet_config());
    let baseline_pool = ReoptPool::new(POOL_SEED);
    warm_up(&baseline, &baseline_pool, sessions);
    baseline_pool.tick_until(&baseline, horizon_us as f64 / 1e6);

    let fleet = Fleet::new(problem.clone(), fleet_config());
    let pool = ReoptPool::new(POOL_SEED);
    warm_up(&fleet, &pool, sessions);
    let pre_storm: Vec<SessionId> = fleet.live_sessions();
    drive_window(&fleet, &pool, &plan, 0, horizon_us);

    let counters = chaos_counters(&fleet);
    assert!(counters[2] >= 1, "storm displaced nothing: {counters:?}");
    assert!(
        counters[4] >= 1,
        "self-healing never re-admitted a displaced session: {counters:?}"
    );
    assert_eq!(
        counters[5], 0,
        "a displaced session was dropped: {counters:?}"
    );
    assert_eq!(
        fleet.readmit_queue_len(),
        0,
        "queue failed to drain after the storm"
    );
    // Nothing the storm displaced stays lost...
    let post: Vec<SessionId> = fleet.live_sessions();
    for s in &pre_storm {
        assert!(
            post.contains(s),
            "session {s:?} never re-admitted after the storm"
        );
    }
    // ...and the healed fleet carries at least the fault-free twin's
    // load (the storm's shuffling may even unlock a session the static
    // baseline could not place).
    assert!(
        fleet.live_count() >= baseline.live_count(),
        "healed fleet ({}) smaller than its fault-free twin ({})",
        fleet.live_count(),
        baseline.live_count()
    );
    assert!(fleet.audit().is_empty());
}
