//! Elastic capacity: online agent join/drain, named regions, and
//! atomic admissions that span regions.
//!
//! The acceptance properties of the elastic-capacity refactor:
//!
//! * **agent-axis twin of `tests/open_world.rs`** — a fleet whose agent
//!   pool is grown online (`agent_prefix` seed + `Fleet::register_agent`
//!   of extracted [`AgentDef`]s) and then driven through the same
//!   admit/hop/depart script is bitwise identical to a fleet built over
//!   the full agent pool up front;
//! * **drain semantics** — `drain_agent` refuses new holds first, then
//!   evacuates; a drained agent never comes back via `restore_agent`;
//! * **cross-region atomicity** — a spanning reservation books like any
//!   other: one that a region refuses leaves every region's residuals
//!   bitwise intact;
//! * **crash sweep** — the journal of a history containing
//!   `RegisterAgent`/`DrainAgent`/cross-region admits is cut at every
//!   byte offset and recovery comes back conservation-clean from each
//!   prefix;
//! * **typed recovery errors** — replaying a journal that references an
//!   agent the seed universe never produced fails with an error naming
//!   the missing agent, never an index panic.

use cloud_vc::persist::FsyncPolicy;
use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;
use vc_algo::markov::Alg1Config;
use vc_model::ModelError;
use vc_orchestrator::persist::FleetOp;
use vc_orchestrator::{AgentHold, CapacityLedger, LedgerError, SessionHold, DEFAULT_REGION};

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join(format!("it-elastic-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        alg1: Alg1Config::paper(400.0),
        ..FleetConfig::default()
    }
}

fn persist_config(dir: &std::path::Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        // One journal record per hop, so every byte-offset cut in the
        // sweep below is meaningful.
        stay_batch: 1,
    }
}

/// Three capacity-limited agents, six 2-user sessions — the same shape
/// as `tests/persist_recovery.rs`'s sweep universe: small enough for a
/// byte-offset sweep, contended enough that admissions spill across
/// whatever agents (and regions) exist.
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

/// A registrable agent definition over a universe with `num_agents`
/// existing agents and `num_users` users (the small universe has 12).
fn late_agent(name: &str, num_agents: usize, num_users: usize, capacity: Capacity) -> AgentDef {
    AgentDef {
        spec: AgentSpec::builder(name).capacity(capacity).build(),
        inter_agent_ms: (0..num_agents).map(|k| 30.0 + 4.0 * k as f64).collect(),
        user_delays_ms: (0..num_users)
            .map(|u| 9.0 + ((u * 11) % 17) as f64)
            .collect(),
    }
}

fn hold(agent: u32, download: f64, upload: f64, units: u32) -> AgentHold {
    AgentHold {
        agent: AgentId::new(agent),
        download_mbps: download,
        upload_mbps: upload,
        transcode_units: units,
    }
}

/// Raw-bit images of the ledger's residual download/upload, reserved
/// download/upload, and reserved transcode vectors, in that order.
type ResidualBits = (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>, Vec<u32>);

/// Every reserved/residual f64 of the ledger as raw bits — the "bitwise
/// intact" comparisons below must not tolerate even a ±0.0 flip.
fn residual_bits(ledger: &CapacityLedger, problem: &UapProblem) -> ResidualBits {
    let t = ledger.reserved_totals();
    let r = vc_algo::agrank::Residuals::from_totals(problem, &t);
    (
        r.download.iter().map(|x| x.to_bits()).collect(),
        r.upload.iter().map(|x| x.to_bits()).collect(),
        t.download.iter().map(|x| x.to_bits()).collect(),
        t.upload.iter().map(|x| x.to_bits()).collect(),
        t.transcode.clone(),
    )
}

// ------------------------------------------------- agent-axis twin

/// Randomized universe: 4 agents, 4–6 sessions of 2–3 users, an agent
/// split point, and a drive seed — the agent-axis twin of
/// `tests/open_world.rs`'s `Spec`.
#[derive(Debug, Clone)]
struct Spec {
    agents: Vec<(f64, u32)>,
    sessions: Vec<Vec<(u8, u8)>>,
    delay_seed: u64,
    /// How many agents the seed (closed-world prefix) keeps.
    split: usize,
    drive_seed: u64,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec((25.0f64..120.0, 2u32..8), 4),
        prop::collection::vec(prop::collection::vec((0u8..4, 0u8..4), 2..=3), 4..=6),
        any::<u64>(),
        any::<u64>(),
        1usize..4,
    )
        .prop_map(|(agents, sessions, delay_seed, drive_seed, split)| Spec {
            split,
            agents,
            sessions,
            delay_seed,
            drive_seed,
        })
}

fn full_instance(spec: &Spec) -> Instance {
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
    b.build().expect("valid universe")
}

fn make_fleet(instance: Instance) -> Fleet {
    Fleet::new(
        Arc::new(UapProblem::new(instance, CostModel::paper_default())),
        fleet_config(),
    )
}

/// The shared admit/hop/depart script — identical on both fleets, so
/// any divergence is the growth path's fault. (Unlike the session twin,
/// registration happens *before* the script: the agent pool shapes
/// every admission's candidate set, so both fleets must see the same
/// pool at every step.)
fn drive(fleet: &Fleet, n: usize, drive_seed: u64) {
    let mut rng = StdRng::seed_from_u64(drive_seed);
    for s in 0..n {
        let _ = fleet.admit(SessionId::from(s));
        for i in 0..=s {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
    }
    fleet.depart(SessionId::new(0));
    let _ = fleet.admit(SessionId::new(0));
    for i in 0..n {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grow-the-agent-pool-then-admit ≡ build-up-front, bitwise. Grown
    /// agents join alternating regions, so the open-world fleet's
    /// admissions span regions while the closed-world fleet's all sit
    /// in one — regions must be unobservable in placements, holdings,
    /// counters and Φ.
    #[test]
    fn grown_agent_pool_is_bitwise_identical_to_up_front_fleet(spec in spec_strategy()) {
        let full = full_instance(&spec);
        let num_agents = full.num_agents();
        let n = full.num_sessions();
        let seed = full.agent_prefix(spec.split).expect("agent prefix");
        let defs: Vec<AgentDef> = (spec.split..num_agents)
            .map(|l| AgentDef::of_instance(&full, AgentId::from(l)))
            .collect();

        // Closed world: the whole agent pool up front.
        let closed = make_fleet(full);
        drive(&closed, n, spec.drive_seed);

        // Open world: seed prefix, the rest registered online into
        // alternating regions before the same script runs.
        let open = make_fleet(seed);
        for (i, def) in defs.iter().enumerate() {
            let region = if i % 2 == 0 { "east" } else { DEFAULT_REGION };
            let assigned = open.register_agent(def, region).expect("extracted def re-registers");
            prop_assert_eq!(assigned, AgentId::from(spec.split + i), "ids must stay dense");
        }
        prop_assert_eq!(open.num_agents(), num_agents);
        drive(&open, n, spec.drive_seed);

        prop_assert_eq!(
            open.objective().to_bits(),
            closed.objective().to_bits(),
            "objectives diverged: {} vs {}",
            open.objective(),
            closed.objective()
        );
        // Complete control-plane state. The grown fleet's durable state
        // additionally records its registrations and region membership
        // — bookkeeping, not capacity — the only allowed differences.
        let a = closed.durable_state();
        let mut b = open.durable_state();
        prop_assert_eq!(b.growth.len(), num_agents - spec.split);
        b.growth.clear();
        prop_assert!(b.regions.len() <= 2);
        b.regions = a.regions.clone();
        b.agent_regions = a.agent_regions.clone();
        prop_assert_eq!(a, b);
        prop_assert!(closed.audit().is_empty(), "closed-world audit: {:?}", closed.audit());
        prop_assert!(open.audit().is_empty(), "open-world audit: {:?}", open.audit());
        prop_assert!(open.load_drift() < 1e-9);
    }
}

// ------------------------------------------------- drain semantics

/// `drain_agent` = refuse new holds, then evacuate: after the drain no
/// live session holds anything on the agent, later admissions avoid
/// it, and `restore_agent` refuses to bring it back.
#[test]
fn drain_refuses_new_holds_then_evacuates() {
    let fleet = Fleet::new(small_universe(), fleet_config());
    for i in 0..4usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    let victim = AgentId::new(0);
    fleet.drain_agent(victim);
    assert!(fleet.is_agent_drained(victim));
    assert!(!fleet.is_agent_available(victim));

    let assert_victim_empty = |fleet: &Fleet| {
        for s in fleet.live_sessions() {
            let hold = fleet
                .hold_of(s)
                .expect("a live session holds its slot's load");
            assert!(
                hold.holds.iter().all(|h| h.agent != victim),
                "session {s} still holds capacity on drained {victim}"
            );
        }
    };
    assert_victim_empty(&fleet);

    // New admissions land on the survivors only.
    let _ = fleet.admit(SessionId::new(4));
    let _ = fleet.admit(SessionId::new(5));
    assert_victim_empty(&fleet);

    // A drain is permanent: restore is refused and changes nothing.
    assert!(!fleet.restore_agent(victim), "drained agent restored");
    assert!(fleet.is_agent_drained(victim));
    assert!(!fleet.is_agent_available(victim));

    assert!(fleet.audit().is_empty(), "audit: {:?}", fleet.audit());
    assert!(fleet.load_drift() < 1e-9);
}

// ------------------------------------------- cross-region atomicity

/// A spanning reservation that one region refuses books nothing in any
/// region, and a fitting one round-trips through reserve and release —
/// bitwise, in every region.
#[test]
fn a_refused_spanning_reserve_leaves_both_regions_bitwise_intact() {
    let problem = small_universe();
    let ledger = CapacityLedger::new(&problem, 2);
    let east = ledger.ensure_region("east");
    assert_eq!(east, 1);
    assert_eq!(
        ledger.region_names(),
        vec!["default".to_string(), "east".to_string()]
    );
    let l3 = ledger.register_agent(Capacity::new(40.0, 40.0, 2), east);
    assert_eq!(l3, AgentId::new(3));
    assert_eq!(ledger.region_of(l3), east);

    // A live single-region booking so the baseline is non-trivial.
    ledger
        .try_reserve(&SessionHold {
            holds: vec![hold(0, 30.0, 30.0, 1)],
        })
        .expect("fits");
    let before = residual_bits(&ledger, &problem);

    // Refusal: agent 1 (default) has room, agent 3 (east) does not —
    // its upload exceeds the 40 Mbps capacity — so nothing is booked.
    let spanning_too_big = SessionHold {
        holds: vec![hold(1, 20.0, 20.0, 1), hold(3, 10.0, 90.0, 1)],
    };
    match ledger.try_reserve(&spanning_too_big) {
        Err(LedgerError::Insufficient { agent, .. }) => assert_eq!(agent, l3),
        other => panic!("expected a refusal naming agent 3, got {other:?}"),
    }
    assert_eq!(
        residual_bits(&ledger, &problem),
        before,
        "refusal left a debit behind"
    );

    // Reserve + release of a fitting spanning hold: the debits stand,
    // then releasing the hold undoes them.
    let ok = SessionHold {
        holds: vec![hold(1, 20.0, 20.0, 1), hold(3, 25.0, 25.0, 1)],
    };
    ledger.try_reserve(&ok).expect("fits");
    assert_ne!(
        residual_bits(&ledger, &problem),
        before,
        "reserve kept nothing"
    );
    ledger.release(&ok);
    assert_eq!(residual_bits(&ledger, &problem), before);
}

// ------------------------------------------------- crash recovery

/// The elastic seed: ONE default agent with bandwidth but **zero
/// transcode slots**. Sessions that need a transcoding task must place
/// it on a later-registered agent — with east and west each holding one
/// agent, those admissions are forced to span regions.
fn tight_universe() -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    b.add_agent(
        AgentSpec::builder("a0")
            .capacity(Capacity::new(30.0, 30.0, 0))
            .build(),
    );
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

/// The admit/register/drain history both the persistent fleet and its
/// never-crashed twin run below. Even-numbered sessions carry a
/// transcoding task the seed agent cannot host (zero slots) — their
/// post-registration admissions place users on the default agent and
/// the task in east/west, i.e. genuinely cross-region.
fn elastic_history(fleet: &Fleet) {
    let mut rng = StdRng::seed_from_u64(77);
    let _ = fleet.admit(SessionId::new(1));
    let _ = fleet.hop_session(SessionId::new(1), &mut rng);
    let l1 = fleet
        .register_agent(
            &late_agent("d", 1, 12, Capacity::new(12.0, 12.0, 2)),
            "east",
        )
        .expect("registers");
    assert_eq!(l1, AgentId::new(1));
    let l2 = fleet
        .register_agent(
            &late_agent("e", 2, 12, Capacity::new(12.0, 12.0, 2)),
            "west",
        )
        .expect("registers");
    assert_eq!(l2, AgentId::new(2));
    // A mix of admissions: the even ones span regions, some of the rest
    // are refused outright — the journal records both shapes.
    for i in [0usize, 2, 4, 3, 5] {
        let _ = fleet.admit(SessionId::from(i));
    }
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    // Capacity leaves mid-history: the drain evacuates the seed agent's
    // load into east/west (forced, overshooting their small capacity).
    fleet.drain_agent(AgentId::new(0));
    // Post-drain churn the recovery must replay on top.
    fleet.depart(SessionId::new(1));
    let _ = fleet.admit(SessionId::new(1));
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
}

/// A fleet crashed after a mid-history drain recovers bitwise identical
/// both to its own pre-crash state and to a twin that ran the same
/// history without ever crashing.
#[test]
fn mid_drain_crash_recovery_matches_uncrashed_twin() {
    let problem = tight_universe();
    let dir = store_dir("mid-drain");
    let durable = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let twin = Fleet::new(problem.clone(), fleet_config());
    elastic_history(&durable);
    elastic_history(&twin);
    let before = durable.durable_state();
    drop(durable); // crash: the drain is in the journal, no checkpoint

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.replayed > 0);
    assert_eq!(recovered.durable_state(), before, "recovery lost state");
    assert_eq!(
        recovered.durable_state(),
        twin.durable_state(),
        "recovered fleet differs from the uncrashed twin"
    );
    assert_eq!(recovered.objective().to_bits(), twin.objective().to_bits());
    assert_eq!(recovered.num_agents(), 3);
    assert!(recovered.is_agent_drained(AgentId::new(0)));
    assert!(!recovered.restore_agent(AgentId::new(0)));
    assert_eq!(
        recovered.ledger().region_names(),
        vec![
            "default".to_string(),
            "east".to_string(),
            "west".to_string()
        ]
    );
    assert_eq!(recovered.ledger().region_of(AgentId::new(1)), 1);
    assert_eq!(recovered.ledger().region_of(AgentId::new(2)), 2);
    assert!(recovered.audit().is_empty());
    assert!(twin.audit().is_empty());
}

/// Cut the journal of the elastic history at **every byte offset**:
/// recovery from each prefix — including cuts inside a `RegisterAgent`
/// definition, between a registration and the admission that lands on
/// the new agent, and mid-drain — must come back conservation-clean
/// from the 3-agent seed problem alone.
#[test]
fn elastic_crash_sweep_recovers_conserved() {
    let problem = tight_universe();
    let src = store_dir("sweep-src");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&src))
        .expect("persistent fleet");
    elastic_history(&fleet);
    let final_state = fleet.durable_state();
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
        journal_bytes.len() > 200,
        "history too small to be a meaningful sweep"
    );

    let work = store_dir("sweep-work");
    let (mut agent_counts, mut spanning_cuts) = (Vec::new(), 0);
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
        agent_counts.push(recovered.num_agents());
        spanning_cuts += usize::from(holds_a_spanning_session(&recovered));
        if cut == journal_bytes.len() {
            assert_eq!(recovered.durable_state(), final_state);
            assert!(recovered.is_agent_drained(AgentId::new(0)));
        }
    }
    // The sweep saw the agent pool grow: the seed's lone agent at the
    // first cut, 3 by the last.
    assert_eq!(*agent_counts.first().expect("sweep ran"), 1);
    assert_eq!(*agent_counts.last().expect("sweep ran"), 3);
    // The drain leaves every session inside east or west, so the
    // spanning admissions show only in the prefixes recovered before it.
    assert!(
        spanning_cuts > 0,
        "no recovered prefix holds a spanning admission — the sweep never replayed one"
    );
}

/// Whether some live session of `fleet` holds capacity in two regions.
fn holds_a_spanning_session(fleet: &Fleet) -> bool {
    fleet.live_sessions().into_iter().any(|s| {
        let hold = fleet
            .hold_of(s)
            .expect("a live session holds its slot's load");
        let mut regions = hold.holds.iter().map(|h| fleet.ledger().region_of(h.agent));
        let first = regions.next();
        regions.any(|r| Some(r) != first)
    })
}

// ------------------------------------------------- typed errors

/// Registering a mis-sized agent definition is refused with a typed
/// error and changes nothing.
#[test]
fn mis_sized_agent_def_is_refused() {
    let fleet = Fleet::new(small_universe(), fleet_config());
    let mut bad = late_agent("d", 3, 12, Capacity::new(60.0, 60.0, 4));
    bad.user_delays_ms.pop(); // 11 entries over a 12-user universe
    let err = fleet.register_agent(&bad, "east").expect_err("mis-sized");
    assert!(
        matches!(err, ModelError::InvalidDelays(_)),
        "expected a typed delay-shape refusal, got {err:?}"
    );
    assert_eq!(fleet.num_agents(), 3);
    // The region table is untouched — no half-registered agent.
    assert_eq!(fleet.ledger().region_names(), vec!["default".to_string()]);
}

/// Recovery handed a journal that references an agent the seed problem
/// (plus the replayed growth log) never produced fails with a typed
/// error naming the missing agent — never an index panic.
#[test]
fn recovery_names_the_missing_agent() {
    let problem = small_universe();
    let dir = store_dir("missing-agent");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let _ = fleet.admit(SessionId::new(0));
    drop(fleet);

    // Overwrite the journal with one produced by a "bigger" deployment:
    // it fails an agent the 3-agent seed universe has never heard of.
    let mut w = cloud_vc::persist::JournalWriter::<FleetOp>::create(
        cloud_vc::persist::journal_path(&dir, 1),
        FsyncPolicy::Always,
        1,
    )
    .expect("journal");
    w.append(&FleetOp::FailAgent {
        agent: AgentId::new(7),
        steps: Vec::new(),
    })
    .expect("append");
    w.commit().expect("commit");
    drop(w);

    let err = Fleet::recover(persist_config(&dir), problem, fleet_config())
        .expect_err("stale seed problem must be refused");
    let msg = err.to_string();
    assert!(msg.contains("unknown agent a7"), "untyped error: {msg}");
    assert!(msg.contains("only 3 agents"), "bound not named: {msg}");
}
