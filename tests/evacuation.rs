//! Evacuation acceptance: `fail_agent` / `drain_agent` keep one
//! delta-maintained residual plane per evacuation, so
//!
//! * **universe independence** — the result of an evacuation depends on
//!   the live set only: appending ten times as many inert registered
//!   sessions changes no move, no target, no displacement and no bit of
//!   Φ;
//! * **delta totals and replay** — across a displacement-heavy
//!   `fail_agent` + `drain_agent` (sessions holding several users and
//!   tasks on the victim, so the displaced-skip and multi-decision
//!   paths run) the ledger stays conserved, and a crash/recover replays
//!   both evacuations to the identical fleet. The delta-maintained
//!   totals themselves are checked against a from-scratch ascending
//!   re-sum by the `debug_assert!` that closes `evacuate_locked`, which
//!   these tests trip live and under replay;
//! * **one evacuation** — the fleet and the closed world's
//!   `churn::evacuate_agent` pick through one rule on one kernel, so the
//!   same loss ends in the same moves, assignment and Φ bits.

use cloud_vc::persist::FsyncPolicy;
use cloud_vc::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vc_algo::markov::Alg1Config;
use vc_core::UapProblem;
use vc_model::SessionDef;
use vc_obs::TraceKind;
use vc_orchestrator::ReadmitConfig;

const AGENTS: usize = 4;
const SESSIONS: usize = 24;
const USERS_PER_SESSION: usize = 3;

/// Four agents, 24 three-user sessions. Every user of a session is
/// nearest to the same agent (delays depend on the *session*), and one
/// member produces the high representation the others demand low, so a
/// session keeps several users and a transcoding task on one agent.
/// Capacities fit the whole universe at full strength but not on three
/// agents: losing one strands more than the survivors can absorb.
fn universe() -> Arc<UapProblem> {
    universe_with(Capacity::new(70.0, 70.0, 8))
}

/// [`universe`] with every agent's capacity set to `capacity`.
fn universe_with(capacity: Capacity) -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for name in ["a", "b", "c", "d"] {
        b.add_agent(AgentSpec::builder(name).capacity(capacity).build());
    }
    for _ in 0..SESSIONS {
        let s = b.add_session();
        b.add_user(s, hi, lo);
        b.add_user(s, lo, lo);
        b.add_user(s, lo, lo);
    }
    b.symmetric_delays(
        |l, k| 25.0 + 20.0 * ((l as f64) - (k as f64)).abs(),
        |l, u| 8.0 + 15.0 * ((l + u / USERS_PER_SESSION) % AGENTS) as f64 + (u % 5) as f64,
    );
    b.d_max_ms(10_000.0);
    Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ))
}

fn fleet_config(readmit: bool) -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::Nearest,
        alg1: Alg1Config::paper(400.0),
        ledger_shards: 2,
        readmit: readmit.then(ReadmitConfig::default),
    }
}

fn admit_all(fleet: &Fleet) -> usize {
    (0..SESSIONS)
        .filter(|&i| fleet.admit(SessionId::from(i)).is_ok())
        .count()
}

fn busiest_agent(fleet: &Fleet) -> AgentId {
    fleet
        .ledger()
        .utilization()
        .into_iter()
        .max_by(|a, b| a.max_fraction.total_cmp(&b.max_fraction))
        .expect("agents exist")
        .agent
}

/// The `(session, target)` sequence of the fleet's `Evacuated` events.
fn evacuation_sequence(fleet: &Fleet) -> Vec<(u32, u64)> {
    fleet
        .obs()
        .trace()
        .dump()
        .into_iter()
        .filter(|e| e.kind == TraceKind::Evacuated)
        .map(|e| (e.session, e.payload))
        .collect()
}

fn evacuation_counters(fleet: &Fleet) -> [usize; 3] {
    let c = fleet.counters();
    [
        c.evacuations.load(Ordering::Relaxed),
        c.forced_moves.load(Ordering::Relaxed),
        c.displaced.load(Ordering::Relaxed),
    ]
}

/// Evacuation results never depend on inert slots: same `(moves,
/// forced)`, same `(session, target)` sequence, same displaced set and
/// a bit-equal Φ with ten times the universe appended after the live
/// set — with displacement (re-admission on) and with forced overshoot
/// (re-admission off).
#[test]
fn evacuation_is_independent_of_inert_universe() {
    for readmit in [true, false] {
        let problem = universe();
        let small = Fleet::new(problem.clone(), fleet_config(readmit));
        let large = Fleet::new(problem.clone(), fleet_config(readmit));
        let inst = problem.instance();
        for i in 0..10 * SESSIONS {
            let def = SessionDef::of_instance(inst, SessionId::from(i % SESSIONS));
            large.register_session(&def).expect("inert registration");
        }
        assert_eq!(large.universe_size().0, 11 * SESSIONS);

        let admitted = admit_all(&small);
        assert_eq!(admit_all(&large), admitted);
        assert!(admitted >= SESSIONS / 2, "only {admitted} sessions fit");
        let victim = busiest_agent(&small);
        assert_eq!(busiest_agent(&large), victim);

        let outcome = small.fail_agent(victim);
        assert_eq!(large.fail_agent(victim), outcome, "readmit={readmit}");
        let (moves, forced) = outcome;
        assert!(
            moves >= USERS_PER_SESSION,
            "victim held too little: {outcome:?}"
        );
        if readmit {
            assert_eq!(forced, 0);
            assert!(
                small.counters().displaced.load(Ordering::Relaxed) >= 1,
                "universe not tight enough to displace"
            );
        } else {
            assert!(forced >= 1, "universe not tight enough to force a move");
        }
        assert_eq!(evacuation_sequence(&small).len(), moves);
        assert_eq!(evacuation_sequence(&large), evacuation_sequence(&small));
        assert_eq!(evacuation_counters(&large), evacuation_counters(&small));
        assert_eq!(large.live_sessions(), small.live_sessions());
        assert_eq!(
            large.objective().to_bits(),
            small.objective().to_bits(),
            "Φ depends on inert slots (readmit={readmit})"
        );
        assert!(small.audit().is_empty(), "{:?}", small.audit());
        assert!(large.audit().is_empty(), "{:?}", large.audit());
    }
}

/// `fail_agent` then `drain_agent` on a persistent fleet with
/// re-admission on and tight capacity: conservation holds after each,
/// and replaying both records from the journal (no checkpoint) rebuilds
/// the identical fleet — state, Φ bits, queue and evacuation counters.
#[test]
fn displacing_evacuations_replay_to_the_identical_fleet() {
    let problem = universe();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join("it-evacuation-replay");
    let _ = std::fs::remove_dir_all(&dir);
    let persist = PersistConfig {
        dir,
        fsync: FsyncPolicy::Always,
        stay_batch: 1,
    };
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(true), persist.clone())
        .expect("persistent fleet");
    admit_all(&fleet);

    let failed = busiest_agent(&fleet);
    let (fail_moves, _) = fleet.fail_agent(failed);
    assert!(fleet.audit().is_empty(), "{:?}", fleet.audit());
    let after_fail = evacuation_counters(&fleet);
    assert!(after_fail[2] >= 1, "fail_agent displaced nothing");
    // Fewer `Evacuated` sessions than moves: some session moved several
    // decisions off the victim (the multi-decision path ran).
    let mut moved: Vec<u32> = evacuation_sequence(&fleet).iter().map(|e| e.0).collect();
    moved.dedup();
    assert!(
        moved.len() < fail_moves,
        "no session held several decisions"
    );

    // A few departures leave the survivors some headroom, so the drain
    // both moves sessions and displaces the ones that no longer fit.
    for s in fleet.live_sessions().into_iter().take(3) {
        fleet.depart(s).expect("live session departs");
    }
    let drained = busiest_agent(&fleet);
    assert_ne!(drained, failed);
    let (drain_moves, _) = fleet.drain_agent(drained);
    assert!(fleet.audit().is_empty(), "{:?}", fleet.audit());
    let counters = evacuation_counters(&fleet);
    assert!(drain_moves >= 1, "drain_agent moved nothing");
    assert!(counters[2] > after_fail[2], "drain_agent displaced nothing");

    // Slots hold the kernel's loads: cold-evaluation bits, exactly.
    assert_eq!(fleet.load_drift(), 0.0);
    fleet.commit_journal().expect("durability boundary");
    let state = fleet.durable_state();
    let phi = fleet.objective();
    let queue = fleet.readmit_entries();
    assert_eq!(queue.len(), counters[2], "every displaced session queues");
    drop(fleet); // crash: no checkpoint, both evacuations replay

    let (recovered, report) =
        Fleet::recover(persist, problem, fleet_config(true)).expect("recovery");
    assert!(report.replayed > 0);
    assert_eq!(recovered.durable_state(), state);
    assert_eq!(recovered.objective().to_bits(), phi.to_bits());
    assert_eq!(recovered.readmit_entries(), queue);
    assert_eq!(evacuation_counters(&recovered), counters);
    assert!(recovered.audit().is_empty(), "{:?}", recovered.audit());
    assert_eq!(recovered.load_drift(), 0.0);
}

/// Fails `victim` on `fleet` and, through `churn::evacuate_agent`, on
/// the closed-world state materialized from it just before; both worlds
/// must end alike — same moves in the same order, same `forced`, same
/// assignment, every live session's Φ bit-equal. Returns `(moves,
/// forced)`.
fn evacuate_both_worlds(fleet: &Fleet, victim: AgentId) -> (usize, usize) {
    let mut closed = fleet.with_state(|state| state.clone());
    let report = vc_algo::churn::evacuate_agent(&mut closed, victim);
    let earlier = evacuation_sequence(fleet).len();
    let (moves, forced) = fleet.fail_agent(victim);
    assert_eq!((report.len(), report.forced), (moves, forced));
    let closed_sequence: Vec<(u32, u64)> = (report.moves.iter())
        .map(|&d| {
            (
                closed.session_of(d).index() as u32,
                d.target().index() as u64,
            )
        })
        .collect();
    assert_eq!(evacuation_sequence(fleet)[earlier..], closed_sequence);

    // The fleet's slots hold cold-evaluation bits, so its
    // materialized state is what it holds.
    assert_eq!(fleet.load_drift(), 0.0);
    let open = fleet.with_state(|state| state.clone());
    assert_eq!(open.assignment(), closed.assignment());
    for s in fleet.live_sessions() {
        assert_eq!(
            open.session_objective(s).to_bits(),
            closed.session_objective(s).to_bits(),
            "Φ of {s}"
        );
    }
    assert_eq!(open.objective().to_bits(), closed.objective().to_bits());
    (moves, forced)
}

/// One evacuation, both worlds: a fleet without re-admission that
/// loses its busiest agent ends where `churn::evacuate_agent` ends on
/// the closed-world state materialized from it, on the scarce universe
/// (forced overshoots) and on a roomy one — and again where an earlier
/// forced evacuation left the victim over capacity, so a move off it
/// leaves it overshot: both worlds ask one rule, and neither refuses
/// such a move.
#[test]
fn one_evacuation_both_worlds() {
    for (problem, scarce) in [
        (universe(), true),
        (
            universe_with(Capacity::new(10_000.0, 10_000.0, 1_000)),
            false,
        ),
    ] {
        let fleet = Fleet::new(problem.clone(), fleet_config(false));
        let admitted = admit_all(&fleet);
        let victim = busiest_agent(&fleet);
        let (moves, forced) = evacuate_both_worlds(&fleet, victim);
        assert!(moves >= USERS_PER_SESSION, "victim held too little");
        assert_eq!(forced >= 1, scarce, "{forced} forced of {moves}");
        let live = fleet.live_sessions();
        assert_eq!(live.len(), admitted, "nothing is displaced without a queue");
    }

    let fleet = Fleet::new(universe(), fleet_config(false));
    admit_all(&fleet);
    let first = busiest_agent(&fleet);
    fleet.fail_agent(first);
    assert!(fleet.restore_agent(first));
    let victim = busiest_agent(&fleet);
    let overshoot = fleet.ledger().utilization()[victim.index()].max_fraction;
    assert!(
        overshoot > 1.0,
        "{victim} is not over capacity: {overshoot}"
    );
    let (moves, forced) = evacuate_both_worlds(&fleet, victim);
    assert!(forced >= 1 && moves > forced, "{forced} forced of {moves}");
}
