//! Property tests of the causal lifecycle trace (`vc_obs::TraceRing`
//! as wired through the fleet): after *any* admit/hop/depart/fail
//! interleaving the Perfetto export must be well-formed JSON, every
//! per-session event chain must be causally ordered (global `seq` and
//! per-session `chain` both strictly increasing, no lifecycle activity
//! between a `Departed` and the session's next admission), and a
//! crash/recover twin must re-install journaled placements as
//! `RecoveryInstalled` — never by re-running admission search — while
//! matching the uncrashed twin's live counters.

use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::UapProblem;
use vc_obs::{TraceEvent, TraceKind};
use vc_orchestrator::ReoptPool;

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join(format!("trace-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three capacity-limited agents, six 2-user sessions — contended
/// enough that admissions refuse and failures force evacuations, so
/// the trace exercises every event kind.
fn small_universe() -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for name in ["a", "b", "c"] {
        b.add_agent(
            AgentSpec::builder(name)
                .capacity(Capacity::new(90.0, 90.0, 5))
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
        ..FleetConfig::default()
    }
}

/// One random fleet action. Departs deregister the WAIT timer like
/// production callers do, so no stale wakeup dispatches after the
/// session's `Departed` event.
#[derive(Debug, Clone, Copy)]
enum Action {
    Admit(u8),
    Depart(u8),
    Hop(u8),
    Fail(u8),
    Restore(u8),
    Tick,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    (0u8..6, 0u8..6).prop_map(|(which, i)| match which {
        0 => Action::Admit(i),
        1 => Action::Depart(i),
        2 => Action::Hop(i),
        3 => Action::Fail(i % 3),
        4 => Action::Restore(i % 3),
        _ => Action::Tick,
    })
}

fn drive(fleet: &Fleet, pool: &ReoptPool, actions: &[Action], rng_seed: u64) {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut t = 0.0f64;
    for &a in actions {
        match a {
            Action::Admit(i) => {
                let s = SessionId::from(i as usize);
                if fleet.admit(s).is_ok() {
                    pool.register(fleet, s, t);
                }
            }
            Action::Depart(i) => {
                let s = SessionId::from(i as usize);
                fleet.depart(s);
                pool.deregister(s);
            }
            Action::Hop(i) => {
                let _ = fleet.hop_session(SessionId::from(i as usize), &mut rng);
            }
            Action::Fail(a) => {
                fleet.fail_agent(AgentId::new(a as u32));
            }
            Action::Restore(a) => {
                fleet.restore_agent(AgentId::new(a as u32));
            }
            Action::Tick => {
                t += 1.0;
                pool.tick_until(fleet, t);
            }
        }
    }
}

/// A minimal JSON well-formedness scanner (the workspace has no JSON
/// dependency, so validation is hand-rolled like the export itself):
/// balanced braces/brackets outside strings, proper string/escape
/// state, non-empty, and the nesting closes back to zero.
fn assert_well_formed_json(s: &str) {
    let mut depth: i64 = 0;
    let mut in_string = false;
    let mut escaped = false;
    for c in s.chars() {
        if in_string {
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' | '[' => depth += 1,
            '}' | ']' => {
                depth -= 1;
                assert!(depth >= 0, "unbalanced close in JSON export");
            }
            _ => {}
        }
    }
    assert!(!in_string, "unterminated string in JSON export");
    assert_eq!(depth, 0, "unbalanced JSON export");
}

/// `Departed` ends a lifecycle: the next event for that session must
/// open a new one (an admission attempt or a recovery install) — never
/// a hop, wakeup, or WAIT re-arm of the dead registration.
fn assert_chains_causal(events: &[TraceEvent]) {
    let mut last_seq = None;
    let mut per_session: HashMap<u32, Vec<&TraceEvent>> = HashMap::new();
    for e in events {
        if let Some(prev) = last_seq {
            assert!(e.seq > prev, "dump not strictly ordered by global seq");
        }
        last_seq = Some(e.seq);
        per_session.entry(e.session).or_default().push(e);
    }
    for (session, chain) in per_session {
        let mut departed = false;
        let mut last_chain = None;
        for e in chain {
            if let Some(prev) = last_chain {
                assert!(
                    e.chain > prev,
                    "session {session}: per-session chain counter not increasing"
                );
            }
            last_chain = Some(e.chain);
            if departed {
                assert!(
                    matches!(
                        e.kind,
                        TraceKind::AdmitAttempt | TraceKind::Refused | TraceKind::RecoveryInstalled
                    ),
                    "session {session}: {:?} after Departed without re-admission",
                    e.kind
                );
            }
            departed = match e.kind {
                TraceKind::Departed => true,
                TraceKind::Refused => departed,
                _ => false,
            };
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn perfetto_export_is_well_formed_and_chains_are_causal(
        actions in prop::collection::vec(action_strategy(), 10..60),
        seed in any::<u64>(),
    ) {
        let fleet = Fleet::new(small_universe(), fleet_config());
        let pool = ReoptPool::new(seed);
        drive(&fleet, &pool, &actions, seed);

        let json = fleet.obs().trace_chrome_json();
        assert_well_formed_json(&json);
        prop_assert!(json.contains("\"traceEvents\""));
        prop_assert!(json.contains("\"displayTimeUnit\""));

        let events = fleet.obs().trace().dump();
        assert_chains_causal(&events);
        // Something happened: the driver always admits at least
        // attempts, so a non-trivial action list leaves a trace.
        if actions.iter().any(|a| matches!(a, Action::Admit(_))) {
            prop_assert!(!events.is_empty());
        }
    }
}

/// Crash/recover twin: replay must *install* the journaled placements
/// (`RecoveryInstalled` per admitted session in the journal) and must
/// never re-run admission search (`AdmitAttempt`/`Admitted` absent
/// from the recovered plane's trace), while the recovered fleet's live
/// counters match an uncrashed twin bitwise. The recovered plane's dump
/// is the journal's tail retold — an install per journaled admission,
/// every journaled migration with the ΔΦ the live hop realized — closed
/// by the one fleet-scoped `RecoveryReplayed` row.
#[test]
fn recovery_installs_without_re_searching() {
    let problem = small_universe();
    let dir = store_dir("recover-twin");
    let persist = PersistConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        stay_batch: 1,
    };
    let mut rng = StdRng::seed_from_u64(7);

    let churn = |fleet: &Fleet, rng: &mut StdRng| {
        for i in 0..6usize {
            let _ = fleet.admit(SessionId::from(i));
        }
        for i in 0..6usize {
            let _ = fleet.hop_session(SessionId::from(i), rng);
        }
        fleet.fail_agent(AgentId::new(1));
        fleet.depart(SessionId::new(1));
        let _ = fleet.admit(SessionId::new(1));
    };

    let crashed = Fleet::with_persistence(problem.clone(), fleet_config(), persist.clone())
        .expect("persistent fleet");
    churn(&crashed, &mut rng);
    let before = crashed.durable_state();
    let lived = crashed.obs().trace().dump();
    drop(crashed); // no shutdown, no checkpoint

    let mut twin_rng = StdRng::seed_from_u64(7);
    let uncrashed = Fleet::new(problem.clone(), fleet_config());
    churn(&uncrashed, &mut twin_rng);

    let (recovered, report) =
        Fleet::recover(persist, problem, fleet_config()).expect("recovery succeeds");
    assert!(report.replayed > 0);
    assert_eq!(recovered.durable_state(), before);
    assert_eq!(recovered.live_count(), uncrashed.live_count());

    let events = recovered.obs().trace().dump();
    let installed = events
        .iter()
        .filter(|e| e.kind == TraceKind::RecoveryInstalled)
        .count();
    assert!(
        installed > 0,
        "replayed admissions must appear as RecoveryInstalled"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.kind, TraceKind::AdmitAttempt | TraceKind::Admitted)),
        "recovery must install journaled placements, never re-run admission search"
    );
    assert_chains_causal(&events);

    let rows_of = |events: &[TraceEvent], kind: TraceKind| -> Vec<(u32, u64)> {
        (events.iter())
            .filter(|e| e.kind == kind)
            .map(|e| (e.session, e.payload))
            .collect()
    };
    assert_eq!(installed, rows_of(&lived, TraceKind::Admitted).len());
    let migrations = rows_of(&lived, TraceKind::HopCommitted);
    assert!(!migrations.is_empty(), "the churn must migrate something");
    assert_eq!(rows_of(&events, TraceKind::HopCommitted), migrations);
    assert_eq!(
        rows_of(&events, TraceKind::RecoveryReplayed),
        [(vc_obs::FLEET_SCOPE, report.replayed as u64)]
    );
    assert_eq!(events.last().unwrap().kind, TraceKind::RecoveryReplayed);
    let _ = std::fs::remove_dir_all(&dir);
}
