//! Admission parity: the control plane and the Fig. 9 experiments run
//! **one** admission engine.
//!
//! Three claims, property-tested over random capacity-limited
//! universes:
//!
//! 1. **Offline/online parity** (the acceptance criterion): a fleet
//!    admitting sessions in id order through `Fleet::admit` admits
//!    exactly the set the offline `admit_all` admits —
//!    `Fleet::admit` refuses no session the paper's algorithm would
//!    place — with the conservation audit clean after every admit and
//!    every refusal.
//! 2. **Engine dominance over the one-step ranked walk**: state for
//!    state, whenever the control plane's historical search (first
//!    choice, then each user one step down its ranked candidate list —
//!    kept below as a test-local reference, no longer in the product)
//!    finds a placement, the engine finds one too (its candidate space
//!    is a superset: enumeration exhausts every user→candidate combo
//!    the walk samples).
//! 3. **Install-don't-re-search replay** (journal v4): recovery
//!    installs the journaled `Admit` placements bit-for-bit even when
//!    the recovering build is configured so a re-run of the search
//!    would choose differently (perturbed placement policy).
//!
//! Plus the countdown-journaling bugfix: a crash/recover cycle
//! mid-trace — WAIT timers journaled at the durability boundary and
//! restored via `ReoptPool::restore_timers` — yields a fleet whose
//! remaining trajectory is **bitwise identical** (placements, counters,
//! Φ, and next WAIT countdowns) to a twin run that never crashed.

use cloud_vc::prelude::*;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use vc_algo::admission::{AdmissionEngine, AdmissionPolicy};
use vc_algo::agrank::{self, Residuals};
use vc_algo::markov::Alg1Config;
use vc_algo::placement::rule_of_thumb_session;
use vc_core::{AgentTotals, EvalScratch, SessionLoad, TaskId, CAPACITY_EPS};
use vc_orchestrator::{Fleet, ReoptPool};
use vc_persist::FsyncPolicy;

/// A small capacity-limited universe: 3 agents, 5 sessions of 2–3
/// users, capacities tight enough that refusals actually happen.
#[derive(Debug, Clone)]
struct RandomUniverse {
    /// Per-agent (bandwidth Mbps, transcode slots).
    agents: Vec<(f64, u32)>,
    /// Per-session user demands as (upstream idx, downstream idx).
    sessions: Vec<Vec<(u8, u8)>>,
    delay_seed: u64,
}

fn universe_strategy() -> impl Strategy<Value = RandomUniverse> {
    (
        prop::collection::vec((15.0f64..80.0, 1u32..6), 3),
        prop::collection::vec(prop::collection::vec((0u8..4, 0u8..4), 2..=3), 5),
        any::<u64>(),
    )
        .prop_map(|(agents, sessions, delay_seed)| RandomUniverse {
            agents,
            sessions,
            delay_seed,
        })
}

fn build_problem(spec: &RandomUniverse) -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let reprs: Vec<ReprId> = ladder.ids().collect();
    let mut b = InstanceBuilder::new(ladder);
    for (i, &(mbps, slots)) in spec.agents.iter().enumerate() {
        b.add_agent(
            AgentSpec::builder(format!("a{i}"))
                .capacity(Capacity::new(mbps, mbps, slots))
                .build(),
        );
    }
    for session in &spec.sessions {
        let sid = b.add_session();
        for &(up, down) in session {
            b.add_user(sid, reprs[up as usize % 4], reprs[down as usize % 4]);
        }
    }
    let seed = spec.delay_seed;
    b.symmetric_delays(
        |l, k| 20.0 + 12.0 * ((l as f64) - (k as f64)).abs(),
        move |l, u| {
            let x = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add((l * 131 + u * 31) as u64);
            5.0 + (x % 900) as f64 / 10.0
        },
    );
    b.d_max_ms(10_000.0);
    Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ))
}

fn policy() -> AdmissionPolicy {
    AdmissionPolicy::AgRank(AgRankConfig::paper(2))
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
        alg1: Alg1Config::paper(400.0),
        ..FleetConfig::default()
    }
}

/// Admits every session in id order, returning the admitted set; the
/// conservation audit must be clean after every admit AND every
/// refusal.
fn drive_fleet(fleet: &Fleet) -> BTreeSet<SessionId> {
    let mut admitted = BTreeSet::new();
    let n = fleet.problem().instance().num_sessions();
    for i in 0..n {
        let s = SessionId::new(i as u32);
        if fleet.admit(s).is_ok() {
            admitted.insert(s);
        }
        assert!(
            fleet.audit().is_empty(),
            "conservation audit dirty after session {s}: {:?}",
            fleet.audit()
        );
    }
    admitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1 — the acceptance criterion: the fleet and the offline
    /// `admit_all` admit **identical** session sets.
    #[test]
    fn fleet_engine_admits_exactly_the_offline_set(spec in universe_strategy()) {
        let problem = build_problem(&spec);

        let offline = admit_all(problem.clone(), &policy());
        let offline_set: BTreeSet<SessionId> = offline.state.active_sessions().collect();

        let fleet = Fleet::new(problem.clone(), fleet_config());
        let fleet_set = drive_fleet(&fleet);

        prop_assert_eq!(
            &fleet_set, &offline_set,
            "fleet admitted {:?}, offline admitted {:?}",
            fleet_set, offline_set
        );
        prop_assert_eq!(fleet.live_count(), offline_set.len());
        // Tier counters account for every admission; refusal counters
        // for every rejection.
        let c = fleet.counters();
        use std::sync::atomic::Ordering::Relaxed;
        prop_assert_eq!(
            c.admitted.load(Relaxed),
            c.admitted_enumeration.load(Relaxed)
                + c.admitted_repair.load(Relaxed)
                + c.admitted_fallback.load(Relaxed)
        );
        prop_assert_eq!(
            c.rejected.load(Relaxed),
            c.refused_user_fit.load(Relaxed)
                + c.refused_task_fit.load(Relaxed)
                + c.refused_global.load(Relaxed)
        );
    }

    /// Claim 2 — engine dominance, state for state: admit sessions
    /// with the reference ranked walk; before each admission, ask the
    /// shared engine for a placement against the *same* residuals.
    /// Whenever the walk fits, the engine must have found a placement
    /// too (its search space contains the walk).
    #[test]
    fn engine_dominates_ranked_walk_state_for_state(spec in universe_strategy()) {
        let problem = build_problem(&spec);
        let engine = AdmissionEngine::default();
        let mut scratch = EvalScratch::new();
        let available = vec![true; problem.instance().num_agents()];
        let mut totals = AgentTotals::zero(problem.instance().num_agents());
        for s in problem.instance().session_ids() {
            let residuals = Residuals::from_totals(&problem, &totals);
            let engine_found = engine
                .place_session(&problem, s, &policy(), &residuals, &available, &mut scratch)
                .is_ok();
            let walked = ranked_walk(&problem, s, &totals, &residuals, &mut scratch);
            prop_assert!(
                engine_found || walked.is_none(),
                "the ranked walk fits {s} but the engine found no placement"
            );
            if let Some(load) = walked {
                totals.add(load.demand());
            }
        }
    }
}

/// The agent a proposed placement gives user or task `k`.
fn placed<K: PartialEq + Copy + std::fmt::Debug>(placement: &[(K, AgentId)], k: K) -> AgentId {
    let found = placement.iter().find(|(w, _)| *w == k);
    found.unwrap_or_else(|| panic!("{k:?} is not placed")).1
}

/// The control plane's historical admission search, kept as the
/// reference claim 2 compares the engine with: the AgRank bootstrap's
/// first choice, then each user in turn walked one step at a time down
/// its ranked candidate list (everyone else on their first choice,
/// tasks by the rule of thumb). Returns the evaluated load of the first
/// placement that meets the delay bound and fits on top of `totals`.
fn ranked_walk(
    problem: &UapProblem,
    s: SessionId,
    totals: &AgentTotals,
    residuals: &Residuals,
    scratch: &mut EvalScratch,
) -> Option<SessionLoad> {
    let inst = problem.instance();
    scratch.compile(problem, s);
    let mut fits = |users: &[(UserId, AgentId)], tasks: &[(TaskId, AgentId)]| {
        let load = scratch.weigh(
            problem,
            inst.session(s).users().iter().map(|&u| placed(users, u)),
            problem
                .tasks()
                .of_session(s)
                .iter()
                .map(|&t| placed(tasks, t)),
        );
        let ok = load.max_flow_delay <= inst.d_max_ms() + CAPACITY_EPS
            && load.touched.iter().all(|&a| {
                let i = a as usize;
                let cap = inst.agents()[i].capacity();
                totals.download[i] + load.download[i] <= cap.download_mbps + CAPACITY_EPS
                    && totals.upload[i] + load.upload[i] <= cap.upload_mbps + CAPACITY_EPS
                    && totals.transcode[i] + load.transcode_units[i] <= cap.transcode_slots
            });
        ok.then(|| load.clone())
    };
    let sa = agrank::assign_session(problem, s, residuals, &AgRankConfig::paper(2));
    if let Some(load) = fits(&sa.users, &sa.tasks) {
        return Some(load);
    }
    for (i, &(u, _)) in sa.users.iter().enumerate() {
        for &alt in sa.ranking.candidates_of(u).iter().skip(1) {
            let mut users = sa.users.clone();
            users[i] = (u, alt);
            let tasks = rule_of_thumb_session(problem, s, &users);
            if let Some(load) = fits(&users, &tasks) {
                return Some(load);
            }
        }
    }
    None
}

fn store_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join(format!("parity-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn persist_config(dir: &std::path::Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        stay_batch: 4,
    }
}

/// A fixed tight universe for the durability tests.
fn tight_universe() -> Arc<UapProblem> {
    build_problem(&RandomUniverse {
        agents: vec![(60.0, 4), (45.0, 3), (30.0, 2)],
        sessions: vec![
            vec![(3, 0), (0, 0)],
            vec![(3, 3), (3, 3), (2, 1)],
            vec![(1, 0), (2, 0)],
            vec![(3, 2), (3, 2)],
            vec![(0, 0), (1, 1), (2, 2)],
        ],
        delay_seed: 2015,
    })
}

/// Claim 3: v4 `Admit` replay installs the journaled placement even
/// when the recovering build would search differently — recovery is
/// handed a *perturbed* config (the resource-oblivious nearest-agent
/// policy, or AgRank over a wider neighbourhood) and must still
/// reproduce the original fleet bit-for-bit.
#[test]
fn replay_installs_journaled_placements_without_re_searching() {
    let problem = tight_universe();
    let perturbations = [
        ("nearest", PlacementPolicy::Nearest),
        ("paper3", PlacementPolicy::AgRank(AgRankConfig::paper(3))),
    ];
    for (name, placement) in perturbations {
        let dir = store_dir(&format!("install-not-search-{name}"));
        let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
            .expect("persistent fleet");
        let admitted = drive_fleet(&fleet);
        assert!(!admitted.is_empty(), "universe admits nothing");
        let before = fleet.durable_state();
        let objective = fleet.objective();
        drop(fleet); // crash

        // A re-run of the admission search under this config could
        // pick different placements — replay must not care.
        let perturbed = FleetConfig {
            placement,
            ..fleet_config()
        };
        let (recovered, report) =
            Fleet::recover(persist_config(&dir), problem.clone(), perturbed.clone())
                .expect("recovery");
        assert!(report.replayed > 0);
        assert_eq!(
            recovered.durable_state(),
            before,
            "replay under {name} re-derived placements instead of installing the journaled ones"
        );
        assert_eq!(recovered.objective().to_bits(), objective.to_bits());
        assert!(recovered.audit().is_empty());

        // Sanity: a fresh run under the perturbed config genuinely
        // disagrees with the original somewhere on this universe
        // (otherwise the test proves nothing).
        let original = Fleet::new(problem.clone(), fleet_config());
        let original_set = drive_fleet(&original);
        let fresh = Fleet::new(problem.clone(), perturbed);
        let same_placements = original_set == drive_fleet(&fresh)
            && original.with_state(|a| {
                fresh.with_state(|b| {
                    problem
                        .instance()
                        .user_ids()
                        .all(|u| a.assignment().agent_of_user(u) == b.assignment().agent_of_user(u))
                })
            });
        assert!(
            !same_placements,
            "{name} agrees with the original everywhere — pick a tighter universe"
        );
    }
}

/// A session admitted *after* the last journaled `Timers` record must
/// not be left worker-less after recovery:
/// `ReoptPool::ensure_registered` re-registers every live session the
/// restored timer set misses, so it keeps re-optimizing.
#[test]
fn late_admissions_regain_workers_after_recovery() {
    let problem = tight_universe();
    let dir = store_dir("late-admission-worker");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let pool = ReoptPool::new(3);
    fleet.admit(SessionId::new(0)).expect("admits");
    pool.register(&fleet, SessionId::new(0), 0.0);
    fleet.journal_timers(&pool); // durability boundary
    fleet.admit(SessionId::new(2)).expect("admits"); // after the cut
    drop(fleet); // crash: session 2 is live but has no journaled timer

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(recovered.is_live(SessionId::new(2)));
    let restored = ReoptPool::new(3);
    restored.restore_timers(&recovered, &report.timers);
    assert_eq!(
        report.timers.iter().map(|t| t.session).collect::<Vec<_>>(),
        vec![SessionId::new(0)],
        "only the journaled timer is restored"
    );
    let late = restored.ensure_registered(&recovered, 10.0);
    assert_eq!(
        late,
        vec![SessionId::new(2)],
        "late admission regains a worker"
    );
    // Both sessions now hop.
    let hops = restored.tick_until(&recovered, 500.0);
    assert!(
        hops > 20,
        "restored + late workers must both run, got {hops}"
    );
    assert!(recovered.audit().is_empty());
}

/// A departed session's epoch watermark must survive recovery: worker
/// randomness is seeded from `(seed, session, epoch, draw)`, so a
/// re-admission after the crash must continue the same epoch sequence
/// as the uncrashed run — inactive timer entries are journaled too.
#[test]
fn readmission_after_recovery_continues_the_epoch_sequence() {
    const POOL_SEED: u64 = 5;
    let problem = tight_universe();
    let dir = store_dir("epoch-watermark");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let pool = ReoptPool::new(POOL_SEED);
    let control = Fleet::new(problem.clone(), fleet_config());
    let control_pool = ReoptPool::new(POOL_SEED);
    let s = SessionId::new(0);
    for (f, p) in [(&fleet, &pool), (&control, &control_pool)] {
        f.admit(s).expect("admits");
        p.register(f, s, 0.0);
        p.tick_until(f, 40.0);
        f.depart(s);
        p.deregister(s); // epoch 1 retired; next registration must be 2
    }
    fleet.journal_timers(&pool);
    fleet.commit_journal().expect("commit");
    drop(fleet); // crash with the session departed

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    let restored = ReoptPool::new(POOL_SEED);
    restored.restore_timers(&recovered, &report.timers);
    // Both runs now re-admit the session; the drawn countdown (and all
    // later randomness) must match — i.e. both must use epoch 2.
    for (f, p) in [(&recovered, &restored), (&control, &control_pool)] {
        f.admit(s).expect("re-admits");
        p.register(f, s, 50.0);
    }
    assert_eq!(
        restored.timer_state(),
        control_pool.timer_state(),
        "re-admission after recovery drew from a different epoch"
    );
    restored.tick_until(&recovered, 300.0);
    control_pool.tick_until(&control, 300.0);
    recovered.record_timers(&restored);
    control.record_timers(&control_pool);
    assert_eq!(recovered.durable_state(), control.durable_state());
}

/// The countdown-journaling acceptance criterion: a crash/recover
/// cycle mid-trace yields a bitwise-identical fleet — placements,
/// counters, Φ, and the next WAIT countdowns — versus an uncrashed
/// twin driven over the same trace.
#[test]
fn crash_recovery_resumes_wait_timers_bitwise() {
    const POOL_SEED: u64 = 7;
    const CUT_S: f64 = 60.0;
    const HORIZON_S: f64 = 140.0;
    let problem = tight_universe();
    let trace = dynamic_trace(
        problem.instance().num_sessions(),
        &DynamicTraceConfig {
            horizon_s: HORIZON_S,
            warm_sessions: 3,
            mean_interarrival_s: Some(15.0),
            mean_holding_s: 90.0,
            ..DynamicTraceConfig::default()
        },
    );
    let dir = store_dir("timer-resume");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let pool = ReoptPool::new(POOL_SEED);
    let control = Fleet::new(problem.clone(), fleet_config());
    let control_pool = ReoptPool::new(POOL_SEED);

    let apply = |fleet: &Fleet, pool: &ReoptPool, t: f64, event: FleetEvent| match event {
        FleetEvent::Arrive(s) => {
            if fleet.admit(s).is_ok() {
                pool.register(fleet, s, t);
            }
        }
        FleetEvent::Depart(s) => {
            fleet.depart(s);
            pool.deregister(s);
        }
        FleetEvent::FailAgent(a) => {
            fleet.fail_agent(a);
        }
        FleetEvent::RestoreAgent(a) => {
            fleet.restore_agent(a);
        }
    };

    for &(t, event) in &trace.events {
        if t > CUT_S {
            break;
        }
        pool.tick_until(&fleet, t);
        apply(&fleet, &pool, t, event);
        control_pool.tick_until(&control, t);
        apply(&control, &control_pool, t, event);
    }
    pool.tick_until(&fleet, CUT_S);
    control_pool.tick_until(&control, CUT_S);
    assert!(
        pool.hops_executed() > 0,
        "trace never hopped before the cut"
    );
    // The durability boundary: flush the pending stay batch and journal
    // the WAIT timers (what a production fleet does once per telemetry
    // period).
    fleet.journal_timers(&pool);
    fleet.commit_journal().expect("commit at the cut");
    drop(fleet); // crash — no checkpoint, no shutdown

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem.clone(), fleet_config()).expect("recovery");
    assert!(!report.timers.is_empty(), "no timers journaled");
    let restored_pool = ReoptPool::new(POOL_SEED);
    restored_pool.restore_timers(&recovered, &report.timers);
    // The pending countdowns are the uncrashed run's, exactly.
    assert_eq!(restored_pool.timer_state(), control_pool.timer_state());
    assert_eq!(restored_pool.next_due(), control_pool.next_due());

    // Finish the trace on both; every subsequent hop draws the same
    // reconstructible randomness, so the trajectories stay bitwise
    // identical to the end.
    for &(t, event) in &trace.events {
        if t <= CUT_S {
            continue;
        }
        restored_pool.tick_until(&recovered, t);
        apply(&recovered, &restored_pool, t, event);
        control_pool.tick_until(&control, t);
        apply(&control, &control_pool, t, event);
    }
    restored_pool.tick_until(&recovered, HORIZON_S);
    control_pool.tick_until(&control, HORIZON_S);
    recovered.record_timers(&restored_pool);
    control.record_timers(&control_pool);
    assert_eq!(
        recovered.durable_state(),
        control.durable_state(),
        "post-recovery trajectory diverged from the uncrashed twin"
    );
    assert_eq!(
        recovered.objective().to_bits(),
        control.objective().to_bits()
    );
    assert_eq!(restored_pool.timer_state(), control_pool.timer_state());
    assert!(recovered.audit().is_empty());
    assert!(control.audit().is_empty());
}
