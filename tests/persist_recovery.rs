//! Durability properties of `vc-persist` + the fleet recovery path:
//!
//! * codec round-trips — `decode ∘ encode = id` for random
//!   `SessionHold`s and journal records (`FleetOp`), with every strict
//!   truncation rejected;
//! * a **crash-point sweep** — the write-ahead journal of a real fleet
//!   run is cut at *every byte offset* and recovery must come back
//!   clean (audit empty) from each prefix;
//! * mid-trace crash recovery — a fleet killed between trace events
//!   recovers to the exact live-session set, ledger holdings, counters
//!   and (bitwise) objective;
//! * **hostile input** — no journaled or snapshotted id past the
//!   universe, and no mutation of a store's files, makes recovery or a
//!   reader unwind: each is a typed error or a clean result;
//! * the **continued journal** — a recovered fleet writes no snapshot
//!   and appends to the journal it replayed, cut back past any torn
//!   tail and synced first, so a second crash recovers its history.

mod common;

use cloud_vc::persist::{decode_exact, encode_to_vec, FsyncPolicy};
use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::{TaskId, UapProblem};
use vc_orchestrator::persist::FleetOp;
use vc_orchestrator::{AgentHold, DurableFleetState, EvacStep, SessionHold};

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join(format!("it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Three agents with real capacity limits, six 2-user sessions — small
/// enough that a byte-offset sweep stays fast, contended enough that
/// admissions get refused and failures force evacuations.
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

fn persist_config(dir: &std::path::Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        fsync: FsyncPolicy::Always,
        // Per-stay records (no batching): the byte-offset sweep below
        // wants one journal record per hop so every cut point is
        // meaningful.
        stay_batch: 1,
    }
}

/// A busy, failure-laden history over the small universe.
fn churn(fleet: &Fleet) {
    let mut rng = StdRng::seed_from_u64(23);
    for i in 0..6usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    fleet.fail_agent(AgentId::new(1));
    fleet.depart(SessionId::new(1));
    let _ = fleet.admit(SessionId::new(1));
    fleet.restore_agent(AgentId::new(1));
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    fleet.depart(SessionId::new(4));
}

// ---------------------------------------------------------------- codec

fn agent_hold_strategy() -> impl Strategy<Value = AgentHold> {
    (0u32..8, 0.0f64..500.0, 0.0f64..500.0, 0u32..10).prop_map(|(a, d, u, t)| AgentHold {
        agent: AgentId::new(a),
        download_mbps: d,
        upload_mbps: u,
        transcode_units: t,
    })
}

fn session_hold_strategy() -> impl Strategy<Value = SessionHold> {
    prop::collection::vec(agent_hold_strategy(), 0..5).prop_map(|holds| SessionHold { holds })
}

fn placement_strategy() -> impl Strategy<Value = vc_orchestrator::fleet::Placement> {
    (
        prop::collection::vec((0u32..128, 0u32..8), 0..5),
        prop::collection::vec((0u32..64, 0u32..8), 0..4),
    )
        .prop_map(|(users, tasks)| {
            (
                users
                    .into_iter()
                    .map(|(u, a)| (UserId::new(u), AgentId::new(a)))
                    .collect(),
                tasks
                    .into_iter()
                    .map(|(t, a)| (TaskId::new(t), AgentId::new(a)))
                    .collect(),
            )
        })
}

fn user_def_strategy() -> impl Strategy<Value = vc_model::UserDef> {
    (
        0u32..4,
        0u32..4,
        prop::collection::vec((0u32..64, 0u32..4), 0..3),
        prop::collection::vec(0.1f64..200.0, 1..5),
        (any::<bool>(), 0usize..64),
    )
        .prop_map(|(up, down, overrides, delays, (has_site, site))| {
            let site = has_site.then_some(site);
            let mut demand = vc_model::DownstreamDemand::uniform(ReprId::new(down));
            for (u, r) in overrides {
                demand = demand.with_override(UserId::new(u), ReprId::new(r));
            }
            vc_model::UserDef {
                upstream: ReprId::new(up),
                downstream: demand,
                agent_delays_ms: delays,
                site_index: site,
            }
        })
}

fn session_def_strategy() -> impl Strategy<Value = vc_model::SessionDef> {
    prop::collection::vec(user_def_strategy(), 1..4)
        .prop_map(|users| vc_model::SessionDef { users })
}

fn agent_def_strategy() -> impl Strategy<Value = vc_model::AgentDef> {
    (
        0u32..64,
        (1.0f64..500.0, 1.0f64..500.0, 0u32..16),
        0.1f64..4.0,
        (0.0f64..2.0, 0.0f64..5.0),
        prop::collection::vec(0.5f64..200.0, 0..4),
        prop::collection::vec(0.5f64..200.0, 0..6),
    )
        .prop_map(|(name, (up, down, slots), speed, (pm, pt), inter, user)| {
            vc_model::AgentDef {
                spec: AgentSpec::builder(format!("site-{name}"))
                    .capacity(Capacity::new(up, down, slots))
                    .speed_factor(speed)
                    .price_per_mbps(pm)
                    .price_per_task(pt)
                    .build(),
                inter_agent_ms: inter,
                user_delays_ms: user,
            }
        })
}

fn timer_entry_strategy() -> impl Strategy<Value = vc_orchestrator::TimerEntry> {
    (0u32..64, any::<u64>(), 1u64..8, 0u64..1024, any::<bool>()).prop_map(
        |(s, due_us, epoch, draws, active)| vc_orchestrator::TimerEntry {
            session: SessionId::new(s),
            due_us,
            epoch,
            draws,
            active,
        },
    )
}

/// One evacuation step of each kind in turn (`kind` 0–2).
fn evac_step_strategy() -> impl Strategy<Value = EvacStep> {
    (0u8..3, 0u32..64, any::<bool>(), 0u32..8, any::<bool>()).prop_map(
        |(kind, s, user_move, a, forced)| match kind {
            0 => EvacStep::Moved {
                session: SessionId::new(s),
                decision: if user_move {
                    Decision::User(UserId::new(s), AgentId::new(a))
                } else {
                    Decision::Task(TaskId::new(s), AgentId::new(a))
                },
                forced,
            },
            1 => EvacStep::Displaced {
                session: SessionId::new(s),
            },
            _ => EvacStep::Stuck,
        },
    )
}

fn fleet_op_strategy() -> impl Strategy<Value = FleetOp<'static>> {
    (
        0u8..14,
        0u32..64,
        0u32..8,
        placement_strategy(),
        any::<bool>(),
        session_def_strategy(),
        prop::collection::vec(timer_entry_strategy(), 0..6),
        (
            (0u8..3, 0u8..6, 0u64..64),
            agent_def_strategy(),
            prop::collection::vec(evac_step_strategy(), 1..8),
        ),
    )
        .prop_map(
            |(
                tag,
                s,
                a,
                (users, tasks),
                user_move,
                def,
                timers,
                ((tier, reason, repair_steps), agent_def, steps),
            )| {
                let session = SessionId::new(s);
                let agent = AgentId::new(a);
                match tag {
                    0 => FleetOp::Admit {
                        session,
                        users: Cow::Owned(users),
                        tasks: Cow::Owned(tasks),
                        tier: match tier {
                            0 => vc_algo::admission::AdmissionTier::Enumeration,
                            1 => vc_algo::admission::AdmissionTier::Repair,
                            _ => vc_algo::admission::AdmissionTier::RankedFallback,
                        },
                        repair_steps,
                    },
                    1 => FleetOp::Reject {
                        session,
                        reason: match reason {
                            0 => vc_orchestrator::RefusalReason::AlreadyLive,
                            1 => vc_orchestrator::RefusalReason::UserFit,
                            2 => vc_orchestrator::RefusalReason::TaskFit,
                            _ => vc_orchestrator::RefusalReason::GlobalCheck,
                        },
                    },
                    2 => FleetOp::Depart { session },
                    3 => FleetOp::FailAgent { agent, steps },
                    4 => FleetOp::RestoreAgent { agent },
                    5 => FleetOp::Hop {
                        session,
                        decision: if user_move {
                            Decision::User(UserId::new(s), agent)
                        } else {
                            Decision::Task(TaskId::new(s), agent)
                        },
                        old_agent: AgentId::new((a + 1) % 8),
                    },
                    7 => FleetOp::StayBatch {
                        count: repair_steps + 1,
                    },
                    8 => FleetOp::Timers { entries: timers },
                    9 => FleetOp::RegisterSession {
                        session,
                        def: Cow::Owned(def),
                    },
                    10 => FleetOp::ReadmitEnqueue {
                        session,
                        epoch: u64::from(a) + 1,
                        attempt: tier.into(),
                        due_us: repair_steps * 500_000,
                    },
                    11 => FleetOp::ReadmitDrop { session },
                    12 => FleetOp::RegisterAgent {
                        agent,
                        def: Cow::Owned(agent_def),
                        region: Cow::Owned(format!("r{}", a % 3)),
                    },
                    _ => FleetOp::DrainAgent { agent, steps },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decode ∘ encode = id` for ledger holds, and every strict
    /// truncation of the encoding is rejected.
    #[test]
    fn session_hold_codec_round_trips(hold in session_hold_strategy()) {
        let bytes = encode_to_vec(&hold);
        prop_assert_eq!(decode_exact::<SessionHold>(&bytes).expect("decodes"), hold);
        for cut in 0..bytes.len() {
            prop_assert!(
                decode_exact::<SessionHold>(&bytes[..cut]).is_err(),
                "truncation at {} decoded", cut
            );
        }
    }

    /// Journal records round-trip individually and as a batch.
    #[test]
    fn fleet_op_codec_round_trips(ops in prop::collection::vec(fleet_op_strategy(), 1..16)) {
        for op in &ops {
            let bytes = encode_to_vec(op);
            prop_assert_eq!(&decode_exact::<FleetOp>(&bytes).expect("decodes"), op);
        }
        let bytes = encode_to_vec(&ops);
        prop_assert_eq!(decode_exact::<Vec<FleetOp>>(&bytes).expect("decodes"), ops);
        for cut in 0..bytes.len() {
            prop_assert!(decode_exact::<Vec<FleetOp>>(&bytes[..cut]).is_err());
        }
    }
}

/// The wire tags of the records retired with the ranked-walk admission
/// mode and the per-stay record stay reserved: decoding one is a typed
/// error naming the tag — never a panic, never a silent remap onto a
/// live variant.
#[test]
fn retired_tags_decode_to_typed_errors() {
    use cloud_vc::persist::{CodecError, Encode};
    use vc_orchestrator::RefusalReason;
    let session = SessionId::new(3);
    // `FleetOp` tag 6 was `Stay { session }`.
    let mut stay = vec![6u8];
    session.encode(&mut stay);
    assert_eq!(
        decode_exact::<FleetOp>(&stay).unwrap_err(),
        CodecError::BadTag {
            what: "FleetOp",
            tag: 6
        }
    );
    // `RefusalReason` tags 4 and 5 were the ledger and delay-bound
    // refusals — alone and as the payload of a `Reject` record.
    let reject = encode_to_vec(&FleetOp::Reject {
        session,
        reason: RefusalReason::GlobalCheck,
    });
    for tag in [4u8, 5] {
        let retired = CodecError::BadTag {
            what: "RefusalReason",
            tag,
        };
        assert_eq!(decode_exact::<RefusalReason>(&[tag]).unwrap_err(), retired);
        let mut record = reject.clone();
        *record.last_mut().expect("non-empty") = tag;
        assert_eq!(decode_exact::<FleetOp>(&record).unwrap_err(), retired);
    }
}

// ------------------------------------------------------- crash recovery

/// Cut the journal at **every byte offset**; recovery from each prefix
/// must succeed with an empty conservation audit (the internal
/// recovery path re-audits and errors otherwise, so `expect` is the
/// assertion).
#[test]
fn crash_at_every_byte_offset_recovers_conserved() {
    let problem = small_universe();
    let src = store_dir("sweep-src");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&src))
        .expect("persistent fleet");
    churn(&fleet);
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
    let mut live_counts = Vec::new();
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
        let (recovered, report) =
            Fleet::recover(persist_config(&work), problem.clone(), fleet_config())
                .unwrap_or_else(|e| panic!("recovery failed at byte offset {cut}: {e}"));
        assert!(
            recovered.audit().is_empty(),
            "conservation violated at byte offset {cut}"
        );
        live_counts.push((report.replayed, recovered.live_count()));
    }
    // The sweep actually exercised progressively longer histories.
    let (last_replayed, _) = *live_counts.last().expect("sweep ran");
    assert!(
        last_replayed > 10,
        "full journal replayed only {last_replayed} records"
    );
    assert!(live_counts.first().expect("sweep ran").0 == 0);
}

/// A registrable two-user conference over the 3-agent sweep universe.
fn late_conference(delay_base: f64) -> vc_model::SessionDef {
    let ladder = ReprLadder::standard_four();
    vc_model::SessionDef {
        users: vec![
            vc_model::UserDef {
                upstream: ladder.highest(),
                downstream: vc_model::DownstreamDemand::uniform(ladder.lowest()),
                agent_delays_ms: vec![delay_base, delay_base + 5.0, delay_base + 9.0],
                site_index: None,
            },
            vc_model::UserDef {
                upstream: ladder.lowest(),
                downstream: vc_model::DownstreamDemand::uniform(ladder.lowest()),
                agent_delays_ms: vec![delay_base + 7.0, delay_base + 3.0, delay_base + 11.0],
                site_index: None,
            },
        ],
    }
}

/// A journaled join — `register_session`, `admit`, `depart` — requests
/// no more bytes than the same calls on an ephemeral fleet: the
/// registration is journaled from the caller's definition, the
/// admission from placement buffers the fleet keeps, and every frame is
/// built in the journal's own buffer, so journaling a join allocates
/// nothing once those buffers have grown.
#[test]
fn journaling_a_join_allocates_nothing() {
    let dir = store_dir("join-allocations");
    let journaled = Fleet::with_persistence(small_universe(), fleet_config(), persist_config(&dir))
        .expect("store");
    let ephemeral = Fleet::new(small_universe(), fleet_config());
    let def = late_conference(8.0);
    let join = |fleet: &Fleet| {
        let s = fleet.register_session(&def).expect("registers");
        fleet.admit(s).expect("admits");
        fleet.depart(s).expect("was live");
    };
    // The first join grows every buffer a join reuses, in both fleets.
    join(&journaled);
    join(&ephemeral);
    journaled.commit_journal().expect("commit");
    let ((), ephemeral_bytes) = common::requested_by(|| join(&ephemeral));
    let ((), journaled_bytes) = common::requested_by(|| join(&journaled));
    assert!(
        journaled_bytes <= ephemeral_bytes,
        "journaling a join requested {} bytes ({journaled_bytes} against {ephemeral_bytes})",
        journaled_bytes - ephemeral_bytes
    );
}

/// The byte-offset sweep over a fleet that **grew its universe
/// online**: `RegisterSession` definition records interleave with
/// admits/hops/failures in the journal, and every prefix — including
/// cuts that land *inside* a definition record, or between a
/// registration and the admission that uses it — must recover
/// conservation-clean from the seed problem alone.
#[test]
fn grown_universe_crash_sweep_recovers_conserved() {
    let problem = small_universe();
    let src = store_dir("sweep-grown-src");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&src))
        .expect("persistent fleet");
    let mut rng = StdRng::seed_from_u64(29);
    for i in 0..6usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    let s6 = fleet
        .register_session(&late_conference(8.0))
        .expect("registers");
    let _ = fleet.admit(s6);
    for i in 0..7usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    fleet.fail_agent(AgentId::new(2));
    let s7 = fleet
        .register_session(&late_conference(13.0))
        .expect("registers");
    let _ = fleet.admit(s7);
    fleet.depart(SessionId::new(3));
    fleet.restore_agent(AgentId::new(2));
    for i in 0..8usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
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

    let work = store_dir("sweep-grown-work");
    let mut universe_sizes = Vec::new();
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
        universe_sizes.push(recovered.universe_size().0);
        if cut == journal_bytes.len() {
            assert_eq!(recovered.durable_state(), final_state);
        }
    }
    // The sweep saw the universe grow: early prefixes have the seed's 6
    // sessions, the full journal ends at 8.
    assert_eq!(*universe_sizes.first().expect("sweep ran"), 6);
    assert_eq!(*universe_sizes.last().expect("sweep ran"), 8);
}

/// Kill a trace-driven fleet between events; the recovered fleet is
/// the pre-crash fleet, exactly.
#[test]
fn mid_trace_crash_recovery_is_exact() {
    let problem = small_universe();
    let trace = dynamic_trace(
        6,
        &DynamicTraceConfig {
            horizon_s: 40.0,
            warm_sessions: 4,
            mean_interarrival_s: Some(4.0),
            mean_holding_s: 25.0,
            failures: vec![(12.0, AgentId::new(0))],
            restores: vec![(22.0, AgentId::new(0))],
            seed: 5,
        },
    );
    let crash_at = 20.0;
    let dir = store_dir("mid-trace");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let mut rng = StdRng::seed_from_u64(40);
    for &(t, event) in &trace.events {
        if t > crash_at {
            break;
        }
        match event {
            FleetEvent::Arrive(s) => {
                let _ = fleet.admit(s);
            }
            FleetEvent::Depart(s) => {
                fleet.depart(s);
            }
            FleetEvent::FailAgent(a) => {
                fleet.fail_agent(a);
            }
            FleetEvent::RestoreAgent(a) => {
                fleet.restore_agent(a);
            }
        }
        // Interleave re-optimization like the worker pool would.
        for i in 0..6usize {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
    }
    let before = fleet.durable_state();
    let objective = fleet.objective();
    let live: Vec<SessionId> = fleet.live_sessions();
    assert!(fleet.audit().is_empty());
    drop(fleet); // crash

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.replayed > 0);
    assert_eq!(recovered.durable_state(), before);
    assert_eq!(recovered.live_sessions(), live, "live-session set differs");
    assert_eq!(
        recovered.objective().to_bits(),
        objective.to_bits(),
        "objective differs beyond f64 round-trip"
    );
    assert!(recovered.audit().is_empty());
}

/// A half-written final record (the classic torn write) is discarded;
/// everything before it recovers.
#[test]
fn torn_final_record_is_tolerated() {
    let problem = small_universe();
    let dir = store_dir("torn");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    let before = fleet.durable_state();
    drop(fleet);
    let (_, journal) = cloud_vc::persist::journal_files(&dir)
        .expect("scan")
        .pop()
        .expect("one journal");
    let mut bytes = std::fs::read(&journal).expect("read");
    // A plausible frame start (small length prefix) that never finished.
    bytes.extend_from_slice(&[0x30, 0x00, 0x00, 0x00, 0x11, 0x22]);
    std::fs::write(&journal, &bytes).expect("write");

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.torn_tail, "tear not reported");
    assert_eq!(recovered.durable_state(), before);
}

/// A store written before slots followed the live set holds whatever
/// placement a session last had at its `user_agents`/`task_agents`
/// entries, live or not. Loading ignores the entries of sessions that
/// are not live: the recovered state is the canonical one (agent 0
/// there), and the objective is the same to the bit.
#[test]
fn stale_placements_of_non_live_sessions_are_ignored_on_load() {
    let problem = small_universe();
    let dir = store_dir("stale-placements");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    let seq = fleet.checkpoint().expect("checkpoint");
    let canonical = fleet.durable_state();
    let objective = fleet.objective();
    drop(fleet);

    let mut stale = canonical.clone();
    let inst = problem.instance();
    let not_live: Vec<SessionId> = (inst.session_ids())
        .filter(|s| !canonical.active[s.index()])
        .collect();
    assert!(!not_live.is_empty(), "the churn leaves a session not live");
    for &s in &not_live {
        for &u in inst.session(s).users() {
            assert_eq!(canonical.user_agents[u.index()], AgentId::new(0));
            stale.user_agents[u.index()] = AgentId::new(2);
        }
        for &t in problem.tasks().of_session(s) {
            assert_eq!(canonical.task_agents[t.index()], AgentId::new(0));
            stale.task_agents[t.index()] = AgentId::new(1);
        }
    }
    assert_ne!(stale, canonical);
    cloud_vc::persist::write_snapshot(&dir, seq, &stale).expect("overwrite the snapshot");

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert_eq!((report.snapshot_seq, report.replayed), (seq, 0));
    assert_eq!(recovered.durable_state(), canonical);
    assert_eq!(recovered.objective().to_bits(), objective.to_bits());
}

// -------------------------------------------------------- hostile input

/// CRC-valid records whose ids point past the universe: for every
/// `FleetOp` variant and every id-typed field in it one journal row,
/// and one snapshot row for every id-keyed `DurableFleetState` list,
/// plus one whose agent is drained and yet available. `Fleet::recover`
/// must *return* from each — a typed error naming the id, or `Ok` where
/// the stray id is only ever cached (worker timers).
#[test]
fn no_out_of_universe_id_unwinds_recovery() {
    use cloud_vc::persist::{journal_path, write_snapshot, JournalWriter};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use vc_orchestrator::{PersistError, ReadmitEntry};

    let problem = small_universe();
    let fleet = Fleet::new(problem.clone(), fleet_config());
    churn(&fleet);
    let state = fleet.durable_state();
    let live = fleet.live_sessions()[0];
    drop(fleet);
    // Any cut point will do: the snapshot at `seq`, the journal after it.
    let seq = 40;

    // The churn leaves session 4 registered but departed: admissible.
    let (inst, task_table) = (problem.instance(), problem.tasks());
    let idle = SessionId::new(4);
    assert!(!state.active[idle.index()] && state.active[live.index()]);
    let near = AgentId::new(0);
    let place = |s: SessionId| {
        let users = inst.session(s).users().iter().map(|&u| (u, near));
        let tasks = task_table.of_session(s).iter().map(|&t| (t, near));
        (users.collect::<Vec<_>>(), tasks.collect::<Vec<_>>())
    };
    let (far_s, far_a) = (SessionId::new(99), AgentId::new(99));
    let (far_u, far_t) = (UserId::new(999), TaskId::new(999));
    let admit = |session, (users, tasks)| FleetOp::Admit {
        session,
        users: Cow::Owned(users),
        tasks: Cow::Owned(tasks),
        tier: vc_algo::admission::AdmissionTier::Repair,
        repair_steps: 0,
    };
    let hop = |session, decision, old_agent| FleetOp::Hop {
        session,
        decision,
        old_agent,
    };
    let own_user = inst.session(live).users()[0];
    let timer = |session| TimerEntry {
        session,
        due_us: 1,
        epoch: 1,
        draws: 0,
        active: true,
    };
    let readmit = |session| ReadmitEntry {
        session,
        epoch: 1,
        attempt: 0,
        due_us: 1,
    };

    // (row, the corrupt record, the id a refusal must name — `None`
    // where recovery must succeed).
    let journal_rows: Vec<(&str, FleetOp, Option<&str>)> = vec![
        ("Admit.session", admit(far_s, place(idle)), Some("s99")),
        (
            "Admit.users.user",
            admit(idle, (vec![(far_u, near)], place(idle).1)),
            Some("u999"),
        ),
        (
            "Admit.users.agent",
            admit(idle, {
                let (mut users, tasks) = place(idle);
                users[0].1 = far_a;
                (users, tasks)
            }),
            Some("a99"),
        ),
        (
            "Admit.tasks.task",
            admit(idle, (place(idle).0, vec![(far_t, near)])),
            Some("t999"),
        ),
        (
            "Admit.tasks.agent",
            admit(idle, {
                let (users, mut tasks) = place(idle);
                tasks[0].1 = far_a;
                (users, tasks)
            }),
            Some("a99"),
        ),
        (
            "Reject.session",
            FleetOp::Reject {
                session: far_s,
                reason: vc_orchestrator::RefusalReason::UserFit,
            },
            Some("s99"),
        ),
        (
            "Depart.session",
            FleetOp::Depart { session: far_s },
            Some("s99"),
        ),
        (
            "FailAgent.agent",
            FleetOp::FailAgent {
                agent: far_a,
                steps: Vec::new(),
            },
            Some("a99"),
        ),
        (
            "RestoreAgent.agent",
            FleetOp::RestoreAgent { agent: far_a },
            Some("a99"),
        ),
        (
            "Hop.session",
            hop(far_s, Decision::User(own_user, near), near),
            Some("s99"),
        ),
        (
            "Hop.decision.user",
            hop(live, Decision::User(far_u, near), near),
            Some("u999"),
        ),
        (
            "Hop.decision.task",
            hop(live, Decision::Task(far_t, near), near),
            Some("t999"),
        ),
        (
            "Hop.decision.agent",
            hop(live, Decision::User(own_user, far_a), near),
            Some("a99"),
        ),
        (
            "Hop.old_agent",
            hop(live, Decision::User(own_user, near), far_a),
            Some("a99"),
        ),
        (
            "RegisterSession.session",
            FleetOp::RegisterSession {
                session: far_s,
                def: Cow::Owned(late_conference(8.0)),
            },
            Some("s99"),
        ),
        (
            "Timers.entries.session",
            FleetOp::Timers {
                entries: vec![timer(far_s)],
            },
            None,
        ),
        (
            "ReadmitEnqueue.session",
            FleetOp::ReadmitEnqueue {
                session: far_s,
                epoch: 1,
                attempt: 0,
                due_us: 1,
            },
            Some("s99"),
        ),
        (
            "ReadmitDrop.session",
            FleetOp::ReadmitDrop { session: far_s },
            Some("s99"),
        ),
        (
            "RegisterAgent.agent",
            FleetOp::RegisterAgent {
                agent: far_a,
                def: Cow::Owned(vc_model::AgentDef {
                    spec: AgentSpec::builder("d").build(),
                    inter_agent_ms: vec![30.0; 3],
                    user_delays_ms: vec![20.0; inst.num_users()],
                }),
                region: Cow::Owned("default".to_string()),
            },
            Some("a99"),
        ),
        (
            "DrainAgent.agent",
            FleetOp::DrainAgent {
                agent: far_a,
                steps: Vec::new(),
            },
            Some("a99"),
        ),
    ];
    // Every id inside an evacuation's steps, for both records.
    let moved = |session, decision| EvacStep::Moved {
        session,
        decision,
        forced: false,
    };
    let step_rows = [
        (
            "Moved.session",
            moved(far_s, Decision::User(own_user, near)),
            "s99",
        ),
        (
            "Moved.decision.user",
            moved(live, Decision::User(far_u, near)),
            "u999",
        ),
        (
            "Moved.decision.task",
            moved(live, Decision::Task(far_t, near)),
            "t999",
        ),
        (
            "Moved.decision.agent",
            moved(live, Decision::User(own_user, far_a)),
            "a99",
        ),
        (
            "Displaced.session",
            EvacStep::Displaced { session: far_s },
            "s99",
        ),
    ];
    let lost = AgentId::new(1);
    let journal_rows: Vec<(String, FleetOp, Option<&str>)> = (journal_rows.into_iter())
        .map(|(row, op, id)| (row.to_string(), op, id))
        .chain(step_rows.iter().flat_map(|&(row, step, id)| {
            let steps = vec![step];
            [
                (
                    format!("FailAgent.steps.{row}"),
                    FleetOp::FailAgent {
                        agent: lost,
                        steps: steps.clone(),
                    },
                    Some(id),
                ),
                (
                    format!("DrainAgent.steps.{row}"),
                    FleetOp::DrainAgent { agent: lost, steps },
                    Some(id),
                ),
            ]
        }))
        .collect();
    let up = (state.available.iter().position(|&a| a)).expect("an agent is up");
    let up_name = AgentId::from(up).to_string();
    let snapshot_rows: Vec<(&str, DurableFleetState, Option<&str>)> = {
        let edited = |edit: &dyn Fn(&mut DurableFleetState)| {
            let mut state = state.clone();
            edit(&mut state);
            state
        };
        vec![
            (
                "holdings.agent",
                edited(&|d| d.holdings[0].1.holds[0].agent = far_a),
                Some("a99"),
            ),
            (
                "holdings.session",
                edited(&|d| d.holdings[0].0 = far_s),
                Some("s99"),
            ),
            (
                "readmit.session",
                edited(&|d| d.readmit.push(readmit(far_s))),
                Some("s99"),
            ),
            (
                "readmit_epochs.session",
                edited(&|d| d.readmit_epochs.push((far_s, 1))),
                Some("s99"),
            ),
            (
                "timers.session",
                edited(&|d| d.timers.push(timer(far_s))),
                None,
            ),
            // An agent drained but up: admissions and hops would use
            // what `restore_agent` treats as gone.
            (
                "drained.available",
                edited(&|d| d.drained[up] = true),
                Some(&up_name),
            ),
            // A seed agent registers into the default region and never
            // leaves it: a table that moves one elsewhere disagrees
            // with the registrations it claims to record.
            (
                "agent_regions.moved",
                edited(&|d| {
                    d.regions.push("elsewhere".into());
                    d.agent_regions[2] = 1;
                }),
                Some("a2"),
            ),
        ]
    };

    // Every row recovers from a store of its own: the churned state as
    // the snapshot at `seq` (edited, for a snapshot row) and a journal
    // holding at most the one corrupt record.
    let work = store_dir("id-table-work");
    let recover = |state: &DurableFleetState, record: Option<&FleetOp>| {
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).expect("work dir");
        write_snapshot(&work, seq, state).expect("snapshot");
        let mut journal = JournalWriter::<FleetOp>::create(
            journal_path(&work, seq + 1),
            FsyncPolicy::Always,
            seq + 1,
        )
        .expect("journal");
        if let Some(record) = record {
            journal.append(record).expect("append");
            journal.commit().expect("commit");
        }
        drop(journal);
        catch_unwind(AssertUnwindSafe(|| {
            Fleet::recover(persist_config(&work), problem.clone(), fleet_config()).map(drop)
        }))
    };
    assert!(
        matches!(recover(&state, None), Ok(Ok(()))),
        "the store itself recovers"
    );

    let journal = journal_rows
        .iter()
        .map(|(row, op, names)| (row.as_str(), recover(&state, Some(op)), *names));
    let snapshot = snapshot_rows
        .iter()
        .map(|(row, edited, names)| (*row, recover(edited, None), *names));
    let mut failures = Vec::new();
    for (row, outcome, names) in journal.chain(snapshot).collect::<Vec<_>>() {
        match (outcome, names) {
            (Err(_), _) => failures.push(format!("{row}: recovery unwound")),
            (Ok(Ok(())), None) => {}
            (Ok(Err(PersistError::Replay(m) | PersistError::Mismatch(m))), Some(id))
                if m.contains(id) => {}
            (Ok(other), _) => failures.push(format!("{row}: expected {names:?}, got {other:?}")),
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// A real store's files, corrupted every way `common::Mutation` knows:
/// `read_journal` and `load_snapshot` answer every mutant with records
/// or a typed error, allocating in proportion to the file.
#[test]
fn no_mutation_of_a_store_file_unwinds_its_reader() {
    use cloud_vc::persist::{journal_files, load_snapshot, read_journal, snapshot_path};

    let dir = store_dir("mutated-files");
    let fleet = Fleet::with_persistence(small_universe(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    // The whole history as one journal, then the state it led to as
    // one snapshot (the checkpoint compacts the journal away).
    let (_, journal) = journal_files(&dir).expect("scan").pop().expect("a journal");
    let journal_bytes = std::fs::read(journal).expect("journal bytes");
    let seq = fleet.checkpoint().expect("checkpoint");
    let snapshot_bytes = std::fs::read(snapshot_path(&dir, seq)).expect("snapshot bytes");
    drop(fleet);

    let scratch = dir.join("mutant");
    std::fs::write(&scratch, &journal_bytes).expect("write");
    let (records, tail) = read_journal::<FleetOp>(&scratch).expect("the journal itself reads");
    assert!(records.len() > 10 && !tail.torn);
    let journal = common::sweep("journal", &journal_bytes, |mutant| {
        std::fs::write(&scratch, mutant).expect("write");
        read_journal::<FleetOp>(&scratch).map(drop)
    });
    // A frame is CRC-guarded: most mutants read as a torn tail (`Ok`,
    // fewer records), the header's as typed errors.
    assert!(journal.decoded > 0 && journal.refused > 0, "{journal:?}");

    let snapshot = common::sweep("snapshot", &snapshot_bytes, |mutant| {
        std::fs::write(&scratch, mutant).expect("write");
        load_snapshot::<DurableFleetState>(&scratch).map(drop)
    });
    // One frame, one CRC: the only mutants that still load are the 16
    // flips of the header's reserved (unread) half-word.
    assert_eq!(snapshot.decoded, 16, "{snapshot:?}");
}

// ---------------------------------------------- installed, not searched

/// A store over the small universe holding a genesis snapshot and a
/// journal of exactly `records`, from seq 1.
fn hand_built_store(name: &str, records: &[FleetOp]) -> PersistConfig {
    use cloud_vc::persist::{journal_path, JournalWriter};
    let dir = store_dir(name);
    drop(
        Fleet::with_persistence(small_universe(), fleet_config(), persist_config(&dir))
            .expect("store"),
    );
    let mut journal =
        JournalWriter::<FleetOp>::create(journal_path(&dir, 1), FsyncPolicy::Always, 1)
            .expect("journal");
    for record in records {
        journal.append(record).expect("append");
    }
    journal.commit().expect("commit");
    persist_config(&dir)
}

/// `[evacuations, forced_moves, displaced]`.
fn evacuation_counters(fleet: &Fleet) -> [usize; 3] {
    use std::sync::atomic::Ordering;
    let c = fleet.counters();
    [
        c.evacuations.load(Ordering::Relaxed),
        c.forced_moves.load(Ordering::Relaxed),
        c.displaced.load(Ordering::Relaxed),
    ]
}

/// The `(session, target)` of every `Evacuated` event the fleet emitted.
fn evacuated_events(fleet: &Fleet) -> Vec<(u32, u64)> {
    (fleet.obs().trace().dump().into_iter())
        .filter(|e| e.kind == vc_obs::TraceKind::Evacuated)
        .map(|e| (e.session, e.payload))
        .collect()
}

/// Replay installs an evacuation; it does not search for one. Session 0
/// sits wholly on agent 0 when agent 0 fails. A twin that fails it live
/// shows where the search sends each stranded decision; the journal
/// under test sends the first of them to the other surviving agent
/// instead — feasible, but not the search's pick — and calls that move
/// forced. The recovered slot, the `evacuations` / `forced_moves` /
/// `displaced` counters and the `Evacuated` events all follow the
/// record.
#[test]
fn replay_installs_the_journaled_evacuation_and_does_not_search() {
    use cloud_vc::persist::{journal_files, read_journal};
    let problem = small_universe();
    let (s, lost) = (SessionId::new(0), AgentId::new(0));
    let admit = FleetOp::Admit {
        session: s,
        users: (problem.instance().session(s).users().iter())
            .map(|&u| (u, lost))
            .collect(),
        tasks: (problem.tasks().of_session(s).iter())
            .map(|&t| (t, lost))
            .collect(),
        tier: vc_algo::admission::AdmissionTier::Repair,
        repair_steps: 0,
    };

    // The search: the twin recovers the admission and fails agent 0.
    let twin_store = hand_built_store("install-twin", std::slice::from_ref(&admit));
    let (twin, _) = Fleet::recover(twin_store.clone(), problem.clone(), fleet_config())
        .expect("the admission recovers");
    twin.fail_agent(lost);
    twin.commit_journal().expect("commit");
    let (_, journal) = journal_files(&twin_store.dir)
        .expect("scan")
        .pop()
        .expect("a journal");
    let searched = match read_journal::<FleetOp>(&journal).expect("read").0.pop() {
        Some((_, FleetOp::FailAgent { steps, .. })) => steps,
        other => panic!("the twin's last record is not its failure: {other:?}"),
    };
    // Both survivors are roomy: every stranded decision moved feasibly.
    assert!(searched.len() >= 2, "{searched:?}");
    assert!(
        (searched.iter()).all(|step| matches!(step, EvacStep::Moved { forced: false, .. })),
        "{searched:?}"
    );

    // The record: the first decision goes where the search did not send
    // it, as a forced move.
    let mut steps = searched.clone();
    let EvacStep::Moved {
        decision, forced, ..
    } = &mut steps[0]
    else {
        unreachable!("every step moved");
    };
    let passed_over = AgentId::from(3 - decision.target().index());
    *decision = decision.retarget(passed_over);
    *forced = true;
    let failure = FleetOp::FailAgent {
        agent: lost,
        steps: steps.clone(),
    };
    let (recovered, report) = Fleet::recover(
        hand_built_store("install", &[admit, failure]),
        problem.clone(),
        fleet_config(),
    )
    .expect("recovery installs the record");
    assert_eq!(report.replayed, 2);

    let (state, twin_state) = (recovered.durable_state(), twin.durable_state());
    for step in &steps {
        let EvacStep::Moved { decision, .. } = *step else {
            unreachable!("every step moved");
        };
        let placed = match decision {
            Decision::User(u, _) => state.user_agents[u.index()],
            Decision::Task(t, _) => state.task_agents[t.index()],
        };
        assert_eq!(placed, decision.target(), "{decision}");
    }
    assert_ne!(state.user_agents, twin_state.user_agents);
    assert_eq!(evacuation_counters(&recovered), [steps.len(), 1, 0]);
    assert_eq!(evacuation_counters(&twin), [steps.len(), 0, 0]);
    let events = |steps: &[EvacStep]| -> Vec<(u32, u64)> {
        (steps.iter())
            .map(|step| match *step {
                EvacStep::Moved {
                    session, decision, ..
                } => (session.index() as u32, decision.target().index() as u64),
                _ => unreachable!("every step moved"),
            })
            .collect()
    };
    assert_eq!(evacuated_events(&recovered), events(&steps));
    assert_eq!(evacuated_events(&twin), events(&searched));
    assert!(recovered.audit().is_empty(), "{:?}", recovered.audit());
    assert_eq!(recovered.load_drift(), 0.0);
}

/// A CRC-valid `Hop` onto an agent that is down at that point of the
/// journal is a move no live hop can make — a live hop draws an
/// available target under the shared FREEZE, which `fail_agent`
/// excludes — so recovery refuses it as corruption instead of
/// installing it.
#[test]
fn replay_refuses_a_hop_onto_a_failed_agent() {
    use cloud_vc::persist::{journal_path, read_journal, JournalWriter};
    use vc_orchestrator::PersistError;
    let problem = small_universe();
    let dir = store_dir("hop-onto-failed");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    let lost = AgentId::new(2);
    fleet.fail_agent(lost);
    let s = fleet.live_sessions()[0];
    let u = problem.instance().session(s).users()[0];
    let from = fleet.durable_state().user_agents[u.index()];
    assert_ne!(from, lost);
    drop(fleet);

    // The history as written, then the hop onto the failed agent.
    let path = journal_path(&dir, 1);
    let (records, _) = read_journal::<FleetOp>(&path).expect("read");
    let mut journal =
        JournalWriter::<FleetOp>::create(&path, FsyncPolicy::Always, 1).expect("journal");
    for (_, op) in &records {
        journal.append(op).expect("append");
    }
    let hop = FleetOp::Hop {
        session: s,
        decision: Decision::User(u, lost),
        old_agent: from,
    };
    journal.append(&hop).expect("append");
    journal.commit().expect("commit");
    drop(journal);

    let err = Fleet::recover(persist_config(&dir), problem, fleet_config())
        .map(drop)
        .expect_err("a hop onto a failed agent must be refused");
    assert!(
        matches!(&err, PersistError::Replay(m) if m.contains("onto down agent a2")),
        "{err:?}"
    );
}

// ---------------------------------------------------- continued journal

/// The store's snapshot files, name and bytes.
fn snapshot_files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<_> = (std::fs::read_dir(dir).expect("store directory"))
        .map(|entry| entry.expect("directory entry"))
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("snapshot-"))
        .map(|entry| {
            let bytes = std::fs::read(entry.path()).expect("snapshot bytes");
            (entry.file_name().to_string_lossy().into_owned(), bytes)
        })
        .collect();
    files.sort();
    files
}

/// The final journal of a store.
fn final_journal(dir: &std::path::Path) -> PathBuf {
    cloud_vc::persist::journal_files(dir)
        .expect("scan")
        .pop()
        .expect("a journal")
        .1
}

/// Admits, departs and hops on a recovered fleet.
fn more_history(fleet: &Fleet) {
    let mut rng = StdRng::seed_from_u64(31);
    fleet.depart(fleet.live_sessions()[0]);
    let _ = fleet.admit(SessionId::new(4));
    for i in 0..6usize {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
    fleet.commit_journal().expect("commit");
}

/// A recovered fleet continues a journal that ended in a half-frame:
/// the tear is cut away before the first new record, so what the fleet
/// journals after recovery survives the next crash, and the second
/// recovery finds no tear.
#[test]
fn recovery_cuts_a_torn_tail_and_continues_the_journal() {
    let problem = small_universe();
    let dir = store_dir("continue-torn");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    drop(fleet);
    let journal = final_journal(&dir);
    let mut bytes = std::fs::read(&journal).expect("read");
    bytes.extend_from_slice(&[0x30, 0x00, 0x00, 0x00, 0x11, 0x22]);
    std::fs::write(&journal, &bytes).expect("write");

    let (recovered, first) =
        Fleet::recover(persist_config(&dir), problem.clone(), fleet_config()).expect("recovery");
    assert!(first.torn_tail, "tear not reported");
    more_history(&recovered);
    let before = recovered.durable_state();
    drop(recovered); // the second crash

    let (again, second) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("second recovery");
    assert!(!second.torn_tail, "the tear outlived the first recovery");
    assert_eq!(second.snapshot_seq, first.snapshot_seq);
    assert!(second.replayed > first.replayed);
    assert_eq!(again.durable_state(), before);
    assert!(again.audit().is_empty());
    assert_eq!(final_journal(&dir), journal, "one journal, continued");
}

/// Recovery writes no snapshot: the store's snapshot files are the
/// same bytes after it, and the journal it continues keeps every byte
/// it replayed.
#[test]
fn recovery_writes_no_snapshot_and_keeps_the_replayed_bytes() {
    use cloud_vc::persist::read_journal;
    let problem = small_universe();
    let dir = store_dir("no-snapshot");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    fleet.checkpoint().expect("checkpoint");
    more_history(&fleet);
    drop(fleet);
    let snapshots = snapshot_files(&dir);
    let journal = final_journal(&dir);
    let (_, tail) = read_journal::<FleetOp>(&journal).expect("read");
    let replayed_bytes = std::fs::read(&journal).expect("journal bytes");

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("recovery");
    assert!(report.snapshot_seq > 0 && report.replayed > 0);
    assert_eq!(snapshot_files(&dir), snapshots, "recovery wrote a snapshot");
    more_history(&recovered);
    assert_eq!(snapshot_files(&dir), snapshots);
    assert_eq!(final_journal(&dir), journal, "recovery rotated the journal");
    let continued = std::fs::read(&journal).expect("journal bytes");
    let valid = tail.valid_len as usize;
    assert!(
        continued.len() > valid,
        "the recovered fleet journaled nothing"
    );
    assert_eq!(continued[..valid], replayed_bytes[..valid]);
}

/// The sync that makes the replayed records durable can fail: recovery
/// then returns the error instead of going live, and the store stays
/// recoverable — a retry on the real filesystem gives the crashed
/// fleet's state.
#[test]
fn a_failed_resume_sync_fails_recovery_and_leaves_the_store_recoverable() {
    use vc_chaos::{FaultyVfs, StorageFault, StorageFaultKind};
    use vc_persist::journal::RetryPolicy;
    let problem = small_universe();
    let dir = store_dir("resume-sync");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    let before = fleet.durable_state();
    drop(fleet);

    let vfs = FaultyVfs::new();
    vfs.inject(StorageFault {
        path_contains: ".vcwal".into(),
        at_byte: 0,
        kind: StorageFaultKind::FsyncErr { times: 1 },
    });
    let outcome = Fleet::recover_with(
        persist_config(&dir),
        problem.clone(),
        fleet_config(),
        Arc::new(vfs.clone()),
        RetryPolicy::immediate(3),
    );
    assert!(
        matches!(outcome, Err(vc_orchestrator::PersistError::Io(_))),
        "a failed sync must fail recovery: {:?}",
        outcome.map(|(_, report)| report)
    );
    assert_eq!(vfs.fsync_errors(), 1);

    let (recovered, _) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("retried recovery");
    assert_eq!(recovered.durable_state(), before);
    assert!(recovered.audit().is_empty());
}

/// Two recoveries with nothing in between replay the same records from
/// the same snapshot, to the same state.
#[test]
fn recovering_twice_replays_the_same_tail() {
    let problem = small_universe();
    let dir = store_dir("recover-twice");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    fleet.checkpoint().expect("checkpoint");
    more_history(&fleet);
    drop(fleet);

    let (first, report) =
        Fleet::recover(persist_config(&dir), problem.clone(), fleet_config()).expect("recovery");
    let state = first.durable_state();
    drop(first);
    let (second, again) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("second recovery");
    assert!(report.snapshot_seq > 0 && report.replayed > 0);
    assert_eq!(
        (again.snapshot_seq, again.replayed, again.last_seq),
        (report.snapshot_seq, report.replayed, report.last_seq)
    );
    assert_eq!(second.durable_state(), state);
}

/// A crash between a checkpoint's snapshot and its new journal leaves
/// no journal after the snapshot, and the old one may end in a tear (a
/// degraded journal's torn write). Recovery opens the journal the
/// checkpoint would have; the old one's tear, which the snapshot
/// covers, does not stop the recovery after it.
#[test]
fn a_journal_the_snapshot_covers_may_stay_torn() {
    use cloud_vc::persist::{journal_path, read_journal, write_snapshot};
    let problem = small_universe();
    let dir = store_dir("covered-tear");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    let state = fleet.durable_state();
    drop(fleet);
    let old = final_journal(&dir);
    let (records, _) = read_journal::<FleetOp>(&old).expect("read");
    let seq = records.last().expect("history").0;
    let mut bytes = std::fs::read(&old).expect("read");
    bytes.extend_from_slice(&[0x30, 0x00, 0x00, 0x00, 0x11, 0x22]);
    std::fs::write(&old, &bytes).expect("write");
    write_snapshot(&dir, seq, &state).expect("the checkpoint's snapshot");

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem.clone(), fleet_config()).expect("recovery");
    assert_eq!((report.snapshot_seq, report.replayed), (seq, 0));
    assert!(report.torn_tail);
    assert_eq!(final_journal(&dir), journal_path(&dir, seq + 1));
    more_history(&recovered);
    let before = recovered.durable_state();
    drop(recovered);

    let (again, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("second recovery");
    assert!(report.replayed > 0 && !report.torn_tail);
    assert_eq!(again.durable_state(), before);
}

// ------------------------------------------------ growth, read back

/// A conference over `agents` agents whose second user demands 720p of
/// `earlier`, a user of an *earlier* session: validation accepts the
/// override, and `SessionDef::of_instance` would drop it.
fn conference_naming(earlier: UserId, agents: usize, site: usize) -> vc_model::SessionDef {
    let ladder = ReprLadder::standard_four();
    let r720 = ladder.by_name("720p").expect("720p").id();
    let column = |base: f64| (0..agents).map(|l| base + 3.5 * l as f64).collect();
    vc_model::SessionDef {
        users: vec![
            vc_model::UserDef {
                upstream: ladder.highest(),
                downstream: vc_model::DownstreamDemand::uniform(ladder.lowest()),
                agent_delays_ms: column(9.25),
                site_index: Some(site),
            },
            vc_model::UserDef {
                upstream: ladder.lowest(),
                downstream: vc_model::DownstreamDemand::uniform(ladder.lowest())
                    .with_override(earlier, r720),
                agent_delays_ms: column(4.0),
                site_index: None,
            },
        ],
    }
}

/// An agent registered when the fleet has `agents` agents and `users`
/// users.
fn online_agent(name: &str, agents: usize, users: usize) -> vc_model::AgentDef {
    vc_model::AgentDef {
        spec: AgentSpec::builder(name)
            .capacity(Capacity::new(90.0, 90.0, 5))
            .build(),
        inter_agent_ms: (0..agents).map(|l| 30.0 + l as f64).collect(),
        user_delays_ms: (0..users).map(|u| 6.0 + (u % 7) as f64).collect(),
    }
}

/// A snapshot's growth log is read back off the grown problem, and its
/// bytes are those of the registered inputs: each session's `H` columns
/// cut to the agents that existed when it registered, and a downstream
/// override naming an earlier session's user kept verbatim — on the
/// live fleet, after recovering from a snapshot plus a journal tail,
/// and after recovering from a snapshot that holds all of it.
#[test]
fn the_growth_log_reads_back_the_registered_bytes() {
    use vc_orchestrator::GrowthRecord;
    let problem = small_universe();
    let dir = store_dir("growth-read-back");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    let first = conference_naming(UserId::new(0), 3, 4);
    let west = online_agent("west-1", 3, 14);
    let second = conference_naming(UserId::new(12), 4, 7);
    let east = online_agent("east-1", 4, 16);
    let third = conference_naming(UserId::new(15), 5, 2);
    let expected = vec![
        GrowthRecord::Session(first.clone()),
        GrowthRecord::Agent(west.clone(), "west".into()),
        GrowthRecord::Session(second.clone()),
        GrowthRecord::Agent(east.clone(), "east".into()),
        GrowthRecord::Session(third.clone()),
    ];
    let s6 = fleet.register_session(&first).expect("registers");
    let _ = fleet.admit(s6);
    fleet.register_agent(&west, "west").expect("registers");
    fleet.checkpoint().expect("checkpoint");
    let s7 = fleet.register_session(&second).expect("registers");
    fleet.register_agent(&east, "east").expect("registers");
    fleet.register_session(&third).expect("registers");
    let _ = fleet.admit(s7);
    let grown = fleet.problem();
    assert_ne!(
        vc_model::SessionDef::of_instance(grown.instance(), s6).users[1].downstream,
        first.users[1].downstream,
        "the override is one of_instance drops"
    );
    let want = encode_to_vec(&expected);
    assert_eq!(encode_to_vec(&fleet.durable_state().growth), want);
    drop(fleet);

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem.clone(), fleet_config()).expect("recovery");
    assert!(report.snapshot_seq > 0 && report.replayed > 0);
    assert_eq!(encode_to_vec(&recovered.durable_state().growth), want);
    recovered.checkpoint().expect("checkpoint");
    drop(recovered);

    let (again, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("second recovery");
    assert_eq!(report.replayed, 0);
    assert_eq!(encode_to_vec(&again.durable_state().growth), want);
}

// -------------------------------------------------- streamed replay

/// Replay reads the journal a record at a time, so the records before a
/// CRC-valid frame that fails to decode are replayed before the frame is
/// read. Recovery still refuses the store as corrupt, like a reader
/// that decodes the whole file first, and leaves every file as it was.
#[test]
fn streamed_replay_refuses_an_undecodable_final_frame() {
    use cloud_vc::persist::{crc32, JournalError};
    use vc_orchestrator::PersistError;
    let problem = small_universe();
    let dir = store_dir("undecodable-frame");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    churn(&fleet);
    drop(fleet);
    let journal = final_journal(&dir);
    let (records, tail) = cloud_vc::persist::read_journal::<FleetOp>(&journal).expect("read");
    assert!(records.len() > 10 && !tail.torn);
    // The next sequence number, then `FleetOp` tag 6 (retired): the
    // frame's CRC holds and its payload does not decode.
    let next = records.last().expect("history").0 + 1;
    let mut payload = next.to_le_bytes().to_vec();
    payload.push(6);
    let mut bytes = std::fs::read(&journal).expect("read");
    bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    std::fs::write(&journal, &bytes).expect("write");
    let store = |dir: &std::path::Path| {
        let mut files: Vec<(String, Vec<u8>)> = (std::fs::read_dir(dir).expect("store"))
            .map(|entry| entry.expect("entry").path())
            .map(|path| {
                let name = path
                    .file_name()
                    .expect("name")
                    .to_string_lossy()
                    .into_owned();
                (name, std::fs::read(&path).expect("bytes"))
            })
            .collect();
        files.sort();
        files
    };
    let before = store(&dir);

    let outcome = Fleet::recover(persist_config(&dir), problem, fleet_config());
    assert!(
        matches!(
            outcome,
            Err(PersistError::Journal(JournalError::Corrupt { offset, .. }))
                if offset == tail.valid_len
        ),
        "an undecodable frame must refuse recovery: {:?}",
        outcome.map(|(_, report)| report)
    );
    assert_eq!(store(&dir), before, "a refused recovery changed the store");
}

/// Regions round-trip through the ledger, their one record: two online
/// agents in one region, a third in a region of its own, and a region
/// with no agent come back from a snapshot plus a journal tail, and
/// again from a snapshot that holds all of it, with the live fleet's
/// region table, agent regions, growth log and ledger shards.
#[test]
fn regions_round_trip_through_the_ledger() {
    let problem = small_universe();
    let dir = store_dir("regions-round-trip");
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&dir))
        .expect("persistent fleet");
    fleet
        .register_agent(&online_agent("west-1", 3, 12), "west")
        .expect("registers");
    fleet.ledger().ensure_region("spare");
    fleet.checkpoint().expect("checkpoint");
    fleet
        .register_agent(&online_agent("west-2", 4, 12), "west")
        .expect("registers");
    let s6 = (fleet.register_session(&conference_naming(UserId::new(3), 5, 1))).expect("registers");
    fleet
        .register_agent(&online_agent("east-1", 5, 14), "east")
        .expect("registers");
    let _ = fleet.admit(s6);
    let _ = fleet.admit(SessionId::new(0));
    let regions_of = |fleet: &Fleet| {
        let state = fleet.durable_state();
        let shards = fleet.ledger().num_shards();
        (
            state.regions,
            state.agent_regions,
            encode_to_vec(&state.growth),
            shards,
        )
    };
    let live = regions_of(&fleet);
    let names: Vec<String> = ["default", "west", "spare", "east"]
        .map(String::from)
        .into();
    assert_eq!(live.0, names);
    assert_eq!(live.1, vec![0, 0, 0, 1, 1, 3]);
    drop(fleet);

    let (recovered, report) =
        Fleet::recover(persist_config(&dir), problem.clone(), fleet_config()).expect("recovery");
    assert!(report.snapshot_seq > 0 && report.replayed > 0);
    assert_eq!(regions_of(&recovered), live);
    recovered.checkpoint().expect("checkpoint");
    drop(recovered);

    let (again, report) =
        Fleet::recover(persist_config(&dir), problem, fleet_config()).expect("second recovery");
    assert_eq!(report.replayed, 0);
    assert_eq!(regions_of(&again), live);
    assert!(again.audit().is_empty());
}
