//! Unit tests over a small capacity-limited universe.

use crate::fleet::{AdmitError, Fleet, FleetConfig, PlacementPolicy};
use crate::ledger::{AgentHold, CapacityLedger, LedgerError, SessionHold};
use crate::orchestrator::{Orchestrator, OrchestratorConfig};
use crate::readmit::{ReadmitConfig, ReadmitEntry};
use crate::workers::ReoptPool;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::{Alg1Config, HopOutcome};
use vc_core::UapProblem;
use vc_cost::CostModel;
use vc_model::{
    AgentId, AgentSpec, Capacity, DownstreamDemand, InstanceBuilder, ReprLadder, SessionDef,
    SessionId, UserDef,
};
use vc_obs::{Site, TraceKind};
use vc_workloads::{dynamic_trace, DynamicTraceConfig, FleetEvent};

/// Three agents, six 2-user sessions, moderate capacities: enough for
/// most of the fleet, tight enough to refuse pile-ups.
fn universe(cap_mbps: f64, slots: u32) -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for name in ["a", "b", "c"] {
        b.add_agent(
            AgentSpec::builder(name)
                .capacity(Capacity::new(cap_mbps, cap_mbps, slots))
                .build(),
        );
    }
    for i in 0..6 {
        let s = b.add_session();
        // Alternate transcoding demand so some sessions occupy slots.
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
        b.build().unwrap(),
        CostModel::paper_default(),
    ))
}

fn fleet(cap_mbps: f64, slots: u32) -> Fleet {
    Fleet::new(
        universe(cap_mbps, slots),
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(400.0),
            ..FleetConfig::default()
        },
    )
}

/// One agent's share of a hand-built reservation.
fn agent_hold(agent: usize, download_mbps: f64, upload_mbps: f64, units: u32) -> AgentHold {
    AgentHold {
        agent: AgentId::from(agent),
        download_mbps,
        upload_mbps,
        transcode_units: units,
    }
}

/// The bits of every booked total, agent by agent.
fn total_bits(ledger: &CapacityLedger) -> Vec<(u64, u64, u32)> {
    let t = ledger.reserved_totals();
    (0..t.download.len())
        .map(|i| {
            (
                t.download[i].to_bits(),
                t.upload[i].to_bits(),
                t.transcode[i],
            )
        })
        .collect()
}

#[test]
fn ledger_reserves_and_releases_atomically() {
    let p = universe(100.0, 4);
    let ledger = CapacityLedger::new(&p, 2);
    let empty = total_bits(&ledger);
    let hold = SessionHold {
        holds: vec![agent_hold(0, 60.0, 10.0, 2), agent_hold(2, 50.0, 0.0, 0)],
    };
    ledger.try_reserve(&hold).unwrap();
    let booked = total_bits(&ledger);
    // A second reservation asking for 60 more on agent 0 must be
    // refused whole — including its (fitting) share on agent 2.
    let err = ledger.try_reserve(&hold).unwrap_err();
    assert_eq!(
        err,
        LedgerError::Insufficient {
            agent: AgentId::new(0),
            resource: "download"
        }
    );
    assert_eq!(total_bits(&ledger), booked, "partial booking leaked");
    // Releasing what was booked frees exactly that.
    ledger.release(&hold);
    assert_eq!(total_bits(&ledger), empty);
    ledger.try_reserve(&hold).unwrap();
    assert_eq!(total_bits(&ledger), booked);
}

/// A `try_swap` the capacity refuses writes nothing: every total keeps
/// its bits — also where releasing the old share and booking it back
/// would not have (on agent 0 below, `(t − 10.9) + 10.9 ≠ t`). One the
/// capacity admits releases the old share and books the new one.
#[test]
fn ledger_refused_swap_leaves_every_total_bitwise() {
    let p = universe(100.0, 4);
    let ledger = CapacityLedger::new(&p, 2);
    let old = SessionHold {
        holds: vec![agent_hold(0, 10.9, 10.9, 1)],
    };
    let other = SessionHold {
        holds: vec![agent_hold(0, 31.3, 0.0, 0)],
    };
    let crowd = SessionHold {
        holds: vec![agent_hold(0, 17.3, 0.0, 0), agent_hold(2, 95.0, 0.0, 0)],
    };
    for booked in [&old, &other, &crowd] {
        ledger.try_reserve(booked).unwrap();
    }
    ledger.release(&other);
    let t = ledger.reserved_totals().download[0];
    assert_ne!(((t - 10.9).max(0.0) + 10.9).to_bits(), t.to_bits());
    let before = total_bits(&ledger);

    let onto_crowd = SessionHold {
        holds: vec![agent_hold(2, 10.9, 10.9, 1)],
    };
    assert_eq!(
        ledger.try_swap(&old, &onto_crowd),
        Err(LedgerError::Insufficient {
            agent: AgentId::new(2),
            resource: "download"
        })
    );
    assert_eq!(total_bits(&ledger), before, "a refused swap wrote");

    let onto_free = SessionHold {
        holds: vec![agent_hold(1, 10.9, 10.9, 1)],
    };
    ledger.try_swap(&old, &onto_free).unwrap();
    let after = ledger.reserved_totals();
    assert_eq!(after.download[0].to_bits(), (t - 10.9).max(0.0).to_bits());
    assert_eq!((after.download[1], after.transcode[1]), (10.9, 1));
    assert_eq!(after.transcode[0], 0);
}

#[test]
fn admit_depart_round_trip_conserves() {
    let f = fleet(10_000.0, 100);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
        assert!(
            f.audit().is_empty(),
            "audit after admit {i}: {:?}",
            f.audit()
        );
    }
    assert_eq!(f.live_count(), 6);
    assert!(f.objective() > 0.0);
    for i in 0..6 {
        // A departure is an exclusive FREEZE acquisition like an admit:
        // it shows up in both freeze-write histograms, exactly once.
        let holds = |site| f.obs().summary(site).count;
        let before = (holds(Site::FreezeWriteWait), holds(Site::FreezeWriteHold));
        let load = f.depart(SessionId::new(i)).expect("was live");
        assert_eq!(
            (holds(Site::FreezeWriteWait), holds(Site::FreezeWriteHold)),
            (before.0 + 1, before.1 + 1)
        );
        // Ledger gave back a non-trivial reservation.
        assert!(!SessionHold::from_load(&load).is_empty());
        assert!(f.audit().is_empty(), "audit after depart {i}");
    }
    assert!(f.depart(SessionId::new(0)).is_none(), "already departed");
    assert_eq!(f.live_count(), 0);
    assert_eq!(f.objective(), 0.0);
}

#[test]
fn admission_refuses_when_capacity_runs_out() {
    // ~11 Mbps per agent: roughly one session's worth each.
    let f = fleet(11.0, 1);
    let mut admitted = 0;
    let mut rejected = 0;
    for i in 0..6 {
        match f.admit(SessionId::new(i)) {
            Ok(()) => admitted += 1,
            Err(AdmitError::Refused { session, .. }) => {
                assert_eq!(session, SessionId::new(i));
                rejected += 1;
            }
            Err(e) => panic!("unexpected rejection: {e:?}"),
        }
        assert!(f.audit().is_empty());
    }
    assert!(admitted >= 1, "nothing fit");
    assert!(rejected >= 1, "scarcity never refused");
    let rate = f.counters().admission_success_rate();
    assert!((0.0..1.0).contains(&rate));
}

#[test]
fn double_admit_is_rejected() {
    let f = fleet(10_000.0, 100);
    f.admit(SessionId::new(0)).unwrap();
    let booked = total_bits(f.ledger());
    assert_eq!(
        f.admit(SessionId::new(0)),
        Err(AdmitError::AlreadyLive(SessionId::new(0)))
    );
    // The slot map refuses a second booking before the ledger sees one.
    assert_eq!(total_bits(f.ledger()), booked);
    assert!(f.audit().is_empty());
}

#[test]
fn hops_keep_ledger_in_sync() {
    let f = fleet(10_000.0, 100);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
    }
    let before = f.objective();
    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..200 {
        let s = SessionId::new(round % 6);
        f.hop_session(s, &mut rng);
        assert!(f.audit().is_empty(), "audit broke at hop {round}");
    }
    assert!(f.objective() <= before, "hops made things worse on average");
    assert!(
        f.counters()
            .migrations
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0
    );
    // The lazy Gibbs step's accounting reaches the plane, the snapshot
    // and `/metrics`: every candidate of every hop was either settled
    // by its delays or folded, and at β = 400 both happen.
    let (bounded, folded) = f.obs().hop_candidates();
    assert!(
        bounded > 0 && folded > 0,
        "{bounded} bounded, {folded} folded"
    );
    let snapshot = crate::telemetry::FleetTelemetry::new().sample(&f, 0.0);
    assert_eq!(
        (
            snapshot.hop_candidates_bounded,
            snapshot.hop_candidates_folded
        ),
        (bounded as usize, folded as usize)
    );
    let metrics = vc_obs::prometheus_text(f.obs());
    assert!(metrics.contains(&format!("vc_obs_hop_candidates_bounded {bounded}\n")));
    assert!(metrics.contains(&format!("vc_obs_hop_candidates_folded {folded}\n")));
}

#[test]
fn failure_evacuates_and_conserves() {
    let f = fleet(10_000.0, 100);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
    }
    let failed = AgentId::new(0);
    // An evacuation is the longest exclusive FREEZE hold there is; it
    // shows up in both freeze-write histograms, exactly once.
    let holds = |site| f.obs().summary(site).count;
    let before = (holds(Site::FreezeWriteWait), holds(Site::FreezeWriteHold));
    let (moves, forced) = f.fail_agent(failed);
    assert_eq!(
        (holds(Site::FreezeWriteWait), holds(Site::FreezeWriteHold)),
        (before.0 + 1, before.1 + 1)
    );
    assert!(moves > 0, "nothing was evacuated");
    assert_eq!(forced, 0, "roomy universe needs no forced moves");
    assert!(f.audit().is_empty(), "audit after failure: {:?}", f.audit());
    f.with_state(|state| {
        for u in state.problem().instance().user_ids() {
            assert_ne!(state.assignment().agent_of_user(u), failed);
        }
    });
    // New admissions avoid the failed agent too (all six already live,
    // so depart one and re-admit it).
    f.depart(SessionId::new(0));
    f.admit(SessionId::new(0)).unwrap();
    f.with_state(|state| {
        for &u in state
            .problem()
            .instance()
            .session(SessionId::new(0))
            .users()
        {
            assert_ne!(state.assignment().agent_of_user(u), failed);
        }
    });
    f.restore_agent(failed);
    assert!(f.audit().is_empty());
}

#[test]
fn worker_pool_virtual_ticks_hop_live_sessions() {
    let f = fleet(10_000.0, 100);
    let pool = ReoptPool::new(11);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
        pool.register(&f, SessionId::new(i), 0.0);
    }
    let before = f.objective();
    let hops = pool.tick_until(&f, 120.0);
    assert!(hops >= 30, "expected ~72 wakeups in 120 s, got {hops}");
    assert!(f.objective() <= before);
    assert!(f.audit().is_empty());
    // Departed sessions stop hopping.
    f.depart(SessionId::new(0));
    pool.deregister(SessionId::new(0));
    let hops2 = pool.tick_until(&f, 240.0);
    assert!(hops2 > 0);
    assert!(f.audit().is_empty());
}

#[test]
fn readmitted_session_keeps_exactly_one_worker() {
    // Depart + re-admit must not leave the old heap entry resurrectable:
    // the session would otherwise hop at a multiple of the configured
    // rate forever.
    let f = fleet(10_000.0, 100);
    let pool = ReoptPool::new(11);
    f.admit(SessionId::new(0)).unwrap();
    pool.register(&f, SessionId::new(0), 0.0);
    for cycle in 0..3 {
        f.depart(SessionId::new(0));
        pool.deregister(SessionId::new(0));
        f.admit(SessionId::new(0)).unwrap();
        pool.register(&f, SessionId::new(0), 0.0);
        assert!(f.audit().is_empty(), "audit after cycle {cycle}");
    }
    // With a 10 s mean countdown, one worker executes ~horizon/10 hops;
    // duplicated workers would multiply that several-fold.
    let hops = pool.tick_until(&f, 1_000.0);
    assert!(
        (50..=200).contains(&hops),
        "expected ~100 hops from a single worker, got {hops}"
    );
}

#[test]
fn worker_pool_threads_race_hops_concurrently() {
    let f = Arc::new(fleet(10_000.0, 100));
    let pool = ReoptPool::new(3);
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
        pool.register(&f, SessionId::new(i), 0.0);
    }
    let before = f.objective();
    let hops = pool.run_wall(&f, std::time::Duration::from_millis(150), 4);
    assert!(hops > 0, "threaded pool never hopped");
    assert!(
        f.audit().is_empty(),
        "threads corrupted the ledger: {:?}",
        f.audit()
    );
    assert!(f.objective() <= before);
    assert!(
        f.load_drift() < 1e-6,
        "slot loads drifted from fresh evaluation under threads"
    );
}

/// `tick_until` runs a re-admission before a worker wakeup due at the
/// same microsecond — also at 0, where nothing can be "strictly
/// before" the re-admission.
#[test]
fn readmission_wins_a_due_time_tie_with_a_worker_wakeup() {
    for tie_at_zero in [false, true] {
        let f = Fleet::new(
            universe(10_000.0, 100),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                readmit: Some(ReadmitConfig::default()),
            },
        );
        let pool = ReoptPool::new(11);
        let (worker, waiting) = (SessionId::new(0), SessionId::new(1));
        f.admit(worker).unwrap();
        pool.register(&f, worker, 0.0);
        if tie_at_zero {
            let mut timers = pool.timer_state();
            timers[0].due_us = 0;
            pool.restore_timers(&f, &timers);
        }
        let (due_us, _) = pool.next_due().unwrap();
        assert_eq!(due_us == 0, tie_at_zero);
        f.readmit_install(ReadmitEntry {
            session: waiting,
            epoch: 1,
            attempt: 0,
            due_us,
        });
        // Half a microsecond on: seconds → µs truncates.
        let hops = pool.tick_until(&f, (due_us as f64 + 0.5) / 1e6);
        assert_eq!(hops, 1);
        let order: Vec<(TraceKind, u32)> = f
            .obs()
            .trace()
            .dump()
            .into_iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceKind::ReadmitAdmitted | TraceKind::WakeupDispatched
                )
            })
            .map(|e| (e.kind, e.session))
            .collect();
        assert_eq!(
            order,
            vec![
                (TraceKind::ReadmitAdmitted, 1),
                (TraceKind::WakeupDispatched, 0)
            ]
        );
    }
}

/// A registrable two-user conference over the 3-agent test universe
/// (one 720p→360p transcode, like the even seed sessions).
fn late_conference(problem: &UapProblem, delay_base: f64) -> SessionDef {
    let ladder = problem.instance().ladder();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    SessionDef {
        users: vec![
            UserDef {
                upstream: hi,
                downstream: DownstreamDemand::uniform(lo),
                agent_delays_ms: vec![delay_base, delay_base + 4.0, delay_base + 8.0],
                site_index: None,
            },
            UserDef {
                upstream: lo,
                downstream: DownstreamDemand::uniform(lo),
                agent_delays_ms: vec![delay_base + 6.0, delay_base + 2.0, delay_base + 10.0],
                site_index: None,
            },
        ],
    }
}

#[test]
fn registered_conference_lives_like_a_seed_one() {
    let f = fleet(10_000.0, 100);
    assert_eq!(f.universe_size(), (6, 12));
    for i in 0..6 {
        f.admit(SessionId::new(i)).unwrap();
    }
    let before = f.objective();
    let booked = total_bits(f.ledger());
    // Register two never-before-seen conferences while the fleet is live.
    let s6 = f
        .register_session(&late_conference(&f.problem(), 9.0))
        .expect("registers");
    let s7 = f
        .register_session(&late_conference(&f.problem(), 14.0))
        .expect("registers");
    assert_eq!((s6, s7), (SessionId::new(6), SessionId::new(7)));
    assert_eq!(f.universe_size(), (8, 16));
    // Registration alone reserves nothing and changes no live state.
    assert_eq!(f.objective().to_bits(), before.to_bits());
    assert_eq!(f.live_count(), 6);
    assert_eq!(total_bits(f.ledger()), booked);
    assert!(f.audit().is_empty());
    assert!(!f.is_live(s6));
    // The new conferences admit, hop, and depart like seed sessions.
    f.admit(s6).unwrap();
    f.admit(s7).unwrap();
    assert_eq!(f.live_count(), 8);
    let mut rng = StdRng::seed_from_u64(3);
    for round in 0..40 {
        f.hop_session(if round % 2 == 0 { s6 } else { s7 }, &mut rng);
        assert!(f.audit().is_empty(), "audit broke at hop {round}");
    }
    assert!(f.load_drift() < 1e-9);
    f.depart(s6).expect("live");
    assert!(f.audit().is_empty());
    // Growth registered while sessions hop: workers keep running.
    let pool = ReoptPool::new(5);
    pool.register(&f, s7, 0.0);
    assert!(pool.tick_until(&f, 100.0) > 0);
    assert!(f.audit().is_empty());
}

#[test]
fn register_session_validates_atomically() {
    let f = fleet(10_000.0, 100);
    let mut def = late_conference(&f.problem(), 9.0);
    def.users[0].agent_delays_ms.pop(); // wrong agent count
    assert!(f.register_session(&def).is_err());
    assert_eq!(f.universe_size(), (6, 12));
    assert!(f.audit().is_empty());
}

/// The region label of one `vc_region_<family>{region="…"} <value>`
/// sample, unescaped; `None` unless the label closes the braces.
fn region_label(line: &str) -> Option<String> {
    let mut chars = line.split_once("{region=\"")?.1.chars();
    let mut label = String::new();
    loop {
        match chars.next()? {
            '"' => break,
            '\\' => label.push(match chars.next()? {
                'n' => '\n',
                c => c,
            }),
            c => label.push(c),
        }
    }
    (chars.next()? == '}').then_some(label)
}

/// A region name from outside cannot break the exposition format: every
/// `vc_region_*` sample of a region named `we"st\` plus a newline parses
/// back to that name, and the residual transcode units are served —
/// `+Inf` for a region with an unlimited agent.
#[test]
fn region_names_are_escaped_on_metrics() {
    let f = fleet(120.0, 6);
    let name = "we\"st\\\n";
    let late = |f: &Fleet, capacity| {
        let (agents, (_, users)) = (f.num_agents(), f.universe_size());
        vc_model::AgentDef {
            spec: AgentSpec::builder(format!("late{agents}"))
                .capacity(capacity)
                .build(),
            inter_agent_ms: (0..agents).map(|k| 30.0 + 4.0 * k as f64).collect(),
            user_delays_ms: (0..users).map(|u| 9.0 + ((u * 11) % 17) as f64).collect(),
        }
    };
    f.register_agent(&late(&f, Capacity::new(50.0, 50.0, 3)), name)
        .unwrap();
    f.register_agent(&late(&f, Capacity::UNLIMITED), "unlimited")
        .unwrap();
    let text = crate::telemetry::fleet_metrics_text(&f);
    assert!(
        text.lines()
            .all(|l| l.starts_with("# TYPE ") || l.starts_with("vc_")),
        "a region name broke a line:\n{text}"
    );
    let samples: Vec<(&str, String)> = (text.lines())
        .filter(|l| l.starts_with("vc_region_"))
        .map(|l| (l, region_label(l).expect("a well-formed region label")))
        .collect();
    assert_eq!(samples.len(), 7 * 3, "seven families over three regions");
    assert_eq!(samples.iter().filter(|(_, r)| r == name).count(), 7);
    let transcode = |region: &str| {
        let (line, _) = (samples.iter())
            .find(|(l, r)| l.starts_with("vc_region_residual_transcode_units{") && r == region)
            .expect("one residual_transcode_units sample per region");
        line.rsplit_once(' ').unwrap().1.to_string()
    };
    assert_eq!(transcode("default"), "18.000000");
    assert_eq!(transcode(name), "3.000000");
    assert_eq!(transcode("unlimited"), "+Inf");
}

/// The region gauges read which agents are up off the universe, the
/// fleet's one record of it: after a failure, a restore, a drain and a
/// region's last agent going down, `/metrics` serves per region the
/// agents `Fleet::is_agent_available` calls up and the residuals summed
/// over exactly those.
#[test]
fn region_gauges_follow_the_universe() {
    let f = fleet(120.0, 6);
    for region in ["west", "west", "east"] {
        let (agents, (_, users)) = (f.num_agents(), f.universe_size());
        let def = vc_model::AgentDef {
            spec: AgentSpec::builder(format!("late{agents}"))
                .capacity(Capacity::new(80.0, 70.0, 4))
                .build(),
            inter_agent_ms: (0..agents).map(|k| 30.0 + 4.0 * k as f64).collect(),
            user_delays_ms: (0..users).map(|u| 9.0 + ((u * 11) % 17) as f64).collect(),
        };
        f.register_agent(&def, region).unwrap();
    }
    for i in 0..6 {
        let _ = f.admit(SessionId::new(i));
    }
    const FAMILIES: [&str; 4] = [
        "available_agents",
        "residual_download_mbps",
        "residual_upload_mbps",
        "residual_transcode_units",
    ];
    let served = |f: &Fleet| -> Vec<String> {
        let text = crate::telemetry::fleet_metrics_text(f);
        (text.lines())
            .filter(|l| {
                FAMILIES
                    .iter()
                    .any(|g| l.starts_with(&format!("vc_region_{g}{{")))
            })
            .map(String::from)
            .collect()
    };
    let from_the_universe = |f: &Fleet| -> Vec<String> {
        let (problem, ledger) = (f.problem(), f.ledger());
        let reserved = ledger.reserved_totals();
        let names = ledger.region_names();
        let mut lines = Vec::new();
        for family in FAMILIES {
            for (r, name) in names.iter().enumerate() {
                let up: Vec<AgentId> = (problem.instance().agent_ids())
                    .filter(|&l| ledger.region_of(l) as usize == r && f.is_agent_available(l))
                    .collect();
                let residual = |free: &dyn Fn(AgentId) -> f64| {
                    let sum = up.iter().fold(0.0, |sum, &l| sum + free(l));
                    if sum == f64::INFINITY {
                        "+Inf".to_string()
                    } else {
                        format!("{sum:.6}")
                    }
                };
                let cap = |l: AgentId| problem.instance().agent(l).capacity();
                let value = match family {
                    "available_agents" => up.len().to_string(),
                    "residual_download_mbps" => residual(&|l| {
                        (cap(l).download_mbps - reserved.download[l.index()]).max(0.0)
                    }),
                    "residual_upload_mbps" => {
                        residual(&|l| (cap(l).upload_mbps - reserved.upload[l.index()]).max(0.0))
                    }
                    _ => residual(&|l| {
                        f64::from(
                            cap(l)
                                .transcode_slots
                                .saturating_sub(reserved.transcode[l.index()]),
                        )
                    }),
                };
                lines.push(format!("vc_region_{family}{{region=\"{name}\"}} {value}"));
            }
        }
        lines
    };
    let (west, east) = (AgentId::new(4), AgentId::new(5));
    let mut seen = vec![served(&f)];
    assert_eq!(seen[0], from_the_universe(&f), "before any failure");
    f.fail_agent(AgentId::new(1));
    seen.push(served(&f));
    assert_eq!(seen[1], from_the_universe(&f), "after a failure");
    assert!(f.restore_agent(AgentId::new(1)));
    seen.push(served(&f));
    assert_eq!(seen[2], from_the_universe(&f), "after the restore");
    f.drain_agent(west);
    seen.push(served(&f));
    assert_eq!(seen[3], from_the_universe(&f), "after a drain");
    f.fail_agent(east);
    seen.push(served(&f));
    assert_eq!(seen[4], from_the_universe(&f), "with a region all down");
    assert!(
        seen.windows(2).all(|w| w[0] != w[1]),
        "every step moves a gauge"
    );
    assert!(seen[4].contains(&"vc_region_available_agents{region=\"east\"} 0".to_string()));
}

/// The slot map's key set is the live set: a seeded admit / hop / fail
/// / depart / re-admit churn and 1 000 online registrations leave a slot
/// for every live session and for nothing else.
#[test]
fn slot_map_holds_exactly_the_live_sessions() {
    // Tight enough that losing an agent displaces whole sessions.
    let f = Fleet::new(
        universe(25.0, 6),
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(400.0),
            readmit: Some(ReadmitConfig::default()),
        },
    );
    let check = |when: &str| {
        let keys: Vec<SessionId> = f.freeze.read().slots.keys().copied().collect();
        assert_eq!(keys, f.live_sessions(), "{when}");
        assert_eq!(keys.len(), f.live_count(), "{when}");
        assert!(f.audit().is_empty(), "{when}");
        keys.len()
    };
    assert_eq!(check("at construction"), 0);
    let mut rng = StdRng::seed_from_u64(11);
    for i in 0..6 {
        let _ = f.admit(SessionId::new(i));
    }
    let admitted = check("after the admissions");
    assert!(admitted >= 4);
    for i in 0..6 {
        f.hop_session(SessionId::new(i), &mut rng);
    }
    f.fail_agent(AgentId::new(1));
    let displaced = f.counters().displaced.load(Ordering::Relaxed);
    assert!(displaced > 0, "the failure displaces whole sessions");
    assert_eq!(check("after the failure"), admitted - displaced);
    let departing = f.live_sessions()[0];
    f.depart(departing).expect("live");
    assert_eq!(check("after a departure"), admitted - displaced - 1);
    f.restore_agent(AgentId::new(1));
    while let Some(due_us) = f.next_readmit_due() {
        f.readmit_attempt_one(due_us);
    }
    let healed = f.counters().readmit_admitted.load(Ordering::Relaxed);
    assert!(
        healed > 0,
        "the restored agent takes displaced sessions back"
    );
    assert_eq!(
        check("after re-admission"),
        admitted - displaced - 1 + healed
    );
    let live = f.live_sessions();
    for _ in 0..1_000 {
        let def = late_conference(&f.problem(), 9.0);
        f.register_session(&def).expect("registers");
    }
    assert_eq!(f.universe_size().0, 1_006);
    check("after 1 000 registrations");
    assert_eq!(f.live_sessions(), live);
}

/// What the by-id entry points do with an id that is not live: never
/// admitted, departed, or past the universe altogether.
#[test]
fn by_id_entry_points_answer_for_ids_that_are_not_live() {
    let f = fleet(10_000.0, 100);
    let (never, departed, live) = (SessionId::new(0), SessionId::new(1), SessionId::new(2));
    f.admit(departed).unwrap();
    f.depart(departed).expect("live");
    f.admit(live).unwrap();
    let before = crate::persist::CounterSnapshot::capture(f.counters());
    let mut rng = StdRng::seed_from_u64(5);
    for s in [never, departed, SessionId::new(6), SessionId::new(u32::MAX)] {
        assert!(!f.is_live(s), "{s}");
        assert_eq!(f.depart(s), None, "{s}");
        assert_eq!(
            f.hop_session(s, &mut rng),
            HopOutcome::NoFeasibleMove,
            "{s}"
        );
    }
    assert_eq!(
        before,
        crate::persist::CounterSnapshot::capture(f.counters())
    );
    assert_eq!(f.live_sessions(), vec![live]);
    assert!(f.audit().is_empty());
}

#[test]
#[should_panic(expected = "admit of unregistered session")]
fn admit_of_an_unregistered_id_is_fail_stop() {
    let _ = fleet(10_000.0, 100).admit(SessionId::new(6));
}

#[test]
fn trace_run_reoptimization_beats_nearest_bootstrap() {
    let problem = universe(10_000.0, 100);
    let trace = dynamic_trace(
        6,
        &DynamicTraceConfig {
            horizon_s: 120.0,
            warm_sessions: 6,
            mean_interarrival_s: None,
            mean_holding_s: 1e9, // nobody leaves: clean A/B comparison
            ..DynamicTraceConfig::default()
        },
    );
    let run = |placement: PlacementPolicy, mean_countdown_s: f64| {
        let mut orch = Orchestrator::new(
            problem.clone(),
            OrchestratorConfig {
                fleet: FleetConfig {
                    placement,
                    alg1: Alg1Config {
                        mean_countdown_s,
                        ..Alg1Config::default()
                    },
                    ..FleetConfig::default()
                },
                ..OrchestratorConfig::default()
            },
        );
        orch.run_trace(&trace, 120.0)
    };
    // The bootstrap-only baseline: a countdown that never ends.
    let baseline = run(PlacementPolicy::Nearest, 1e9);
    let optimized = run(
        PlacementPolicy::AgRank(AgRankConfig::paper(3)),
        Alg1Config::default().mean_countdown_s,
    );
    assert_eq!(baseline.hops_executed, 0);
    assert_eq!(baseline.final_snapshot.admitted, 6);
    assert_eq!(optimized.final_snapshot.admitted, 6);
    assert!(optimized.hops_executed > 0);
    assert_eq!(optimized.final_snapshot.conservation_violations, 0);
    assert!(
        optimized.final_snapshot.mean_session_objective
            < baseline.final_snapshot.mean_session_objective,
        "re-optimized {} !< bootstrap-only {}",
        optimized.final_snapshot.mean_session_objective,
        baseline.final_snapshot.mean_session_objective
    );
}

#[test]
fn trace_run_handles_churn_events() {
    let problem = universe(10_000.0, 100);
    let trace = dynamic_trace(
        6,
        &DynamicTraceConfig {
            horizon_s: 60.0,
            warm_sessions: 4,
            mean_interarrival_s: Some(10.0),
            mean_holding_s: 30.0,
            failures: vec![(20.0, AgentId::new(1))],
            restores: vec![(40.0, AgentId::new(1))],
            ..DynamicTraceConfig::default()
        },
    );
    assert!(trace.count(|e| matches!(e, FleetEvent::FailAgent(_))) == 1);
    let mut orch = Orchestrator::new(problem, OrchestratorConfig::default());
    let report = orch.run_trace(&trace, 60.0);
    assert_eq!(report.final_snapshot.conservation_violations, 0);
    assert_eq!(report.telemetry.total_conservation_violations(), 0);
    assert!(report.final_snapshot.admitted >= 4);
    // Series cover the whole horizon at 1 Hz plus the final sample.
    assert!(report.telemetry.series("objective").len() >= 61);
}

mod persistence {
    //! Crash-recovery round trips over the small universe.

    use super::*;
    use crate::persist::{CounterSnapshot, PersistConfig, PersistError};
    use std::path::PathBuf;
    use vc_persist::journal::FsyncPolicy;

    fn store_dir(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-persist")
            .join(format!("orch-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persistent_fleet(name: &str) -> (Fleet, PathBuf) {
        let dir = store_dir(name);
        let fleet = Fleet::with_persistence(
            universe(120.0, 6),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ..FleetConfig::default()
            },
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
        )
        .expect("persistent fleet");
        (fleet, dir)
    }

    fn recover(dir: &std::path::Path) -> (Fleet, crate::persist::RecoveryReport) {
        Fleet::recover(
            PersistConfig {
                dir: dir.to_path_buf(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ..FleetConfig::default()
            },
        )
        .expect("recovery")
    }

    /// A busy history: admits, hops, a failure, a departure.
    fn churn(fleet: &Fleet) {
        let mut rng = StdRng::seed_from_u64(11);
        for i in 0..6usize {
            let _ = fleet.admit(SessionId::from(i));
        }
        for i in 0..6usize {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
        fleet.fail_agent(AgentId::new(1));
        fleet.depart(SessionId::new(0));
        let _ = fleet.admit(SessionId::new(0));
        fleet.restore_agent(AgentId::new(1));
        for i in 0..6usize {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
    }

    /// An `Admit` of each tier and a `Reject` of each reason, once the
    /// way the live path applies them and once through replay: the two
    /// fleets must end with equal counters and equal durable state.
    #[test]
    fn admission_outcomes_count_the_same_live_and_on_replay() {
        use crate::fleet::{evaluate_slot, Accepted, AdmitPath, SessionSlot};
        use crate::persist::{FleetOp, RefusalReason};
        use vc_algo::admission::AdmissionTier;
        let (live, replayed) = (fleet(10_000.0, 100), fleet(10_000.0, 100));
        let problem = live.problem();
        let mut eval = vc_core::EvalScratch::new();
        let tiers = [
            AdmissionTier::Enumeration,
            AdmissionTier::Repair,
            AdmissionTier::RankedFallback,
        ];
        for (i, tier) in tiers.into_iter().enumerate() {
            let s = SessionId::from(i);
            let on = AgentId::from(i);
            let users: Vec<_> = problem
                .instance()
                .session(s)
                .users()
                .iter()
                .map(|&u| (u, on))
                .collect();
            let tasks: Vec<_> = problem
                .tasks()
                .of_session(s)
                .iter()
                .map(|&t| (t, on))
                .collect();
            {
                // What `admit_locked` does once the engine has decided:
                // the scratch holds the accepted placement's load.
                let mut u = live.freeze_exclusive();
                let placed = SessionSlot::new(vec![on; users.len()], vec![on; tasks.len()]);
                evaluate_slot(&problem, s, &placed, &mut eval);
                let accepted = Accepted {
                    users: &users,
                    tasks: &tasks,
                    tier,
                    repair_steps: i,
                };
                let slot = live
                    .install_admitted(&problem, s, &accepted, &mut eval, AdmitPath::Live)
                    .expect("own users and tasks");
                u.slots.insert(s, parking_lot::Mutex::new(slot));
            }
            let op = FleetOp::Admit {
                session: s,
                users,
                tasks,
                tier,
                repair_steps: i as u64,
            };
            replayed.replay_op(&op, &mut eval).expect("replays");
        }
        let reasons = [
            RefusalReason::AlreadyLive,
            RefusalReason::UserFit,
            RefusalReason::TaskFit,
            RefusalReason::GlobalCheck,
        ];
        for reason in reasons {
            let session = SessionId::new(5);
            live.refuse(session, reason);
            replayed
                .replay_op(&FleetOp::Reject { session, reason }, &mut eval)
                .expect("replays");
        }
        let counters = CounterSnapshot::capture(live.counters());
        assert_eq!(counters, CounterSnapshot::capture(replayed.counters()));
        assert_eq!(
            counters,
            CounterSnapshot {
                admitted: 3,
                admitted_enumeration: 1,
                admitted_repair: 1,
                admitted_fallback: 1,
                repair_steps: 3,
                rejected: 4,
                refused_user_fit: 1,
                refused_task_fit: 1,
                refused_global: 1,
                ..CounterSnapshot::default()
            }
        );
        assert_eq!(live.durable_state(), replayed.durable_state());
        assert_eq!(live.objective().to_bits(), replayed.objective().to_bits());
        assert!(live.audit().is_empty() && replayed.audit().is_empty());
    }

    #[test]
    fn crash_and_recover_reproduces_the_fleet_exactly() {
        let (fleet, dir) = persistent_fleet("crash-exact");
        churn(&fleet);
        let before = fleet.durable_state();
        let objective = fleet.objective();
        assert!(fleet.audit().is_empty());
        drop(fleet); // crash: Always policy ⇒ every event is durable

        let (recovered, report) = recover(&dir);
        assert!(report.replayed > 0, "nothing replayed");
        assert!(!report.torn_tail);
        assert_eq!(recovered.durable_state(), before);
        assert_eq!(recovered.objective().to_bits(), objective.to_bits());
        assert!(recovered.audit().is_empty());
        assert!(recovered.is_persistent(), "recovered fleet must journal");
    }

    /// One `"flight"` row of a post-mortem: `(seq, event, session, payload)`.
    fn flight_rows(post_mortem: &str) -> Vec<(u64, String, u32, u64)> {
        let (_, flight) = post_mortem.split_once("\"flight\": [").expect("flight key");
        let field = |row: &str, key: &str| -> String {
            let (_, rest) = row.split_once(&format!("\"{key}\": ")).expect("row field");
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim_matches('"').to_string()
        };
        flight
            .split("}, {")
            .map(|row| {
                (
                    field(row, "seq").parse().expect("seq"),
                    field(row, "event"),
                    field(row, "session").parse().expect("session"),
                    field(row, "payload").parse().expect("payload"),
                )
            })
            .collect()
    }

    /// A post-mortem tells the fleet's recent story in seq order: one
    /// row per thing that happened — the fleet-scoped causes among them,
    /// with their documented payloads — and none for a hop that stayed.
    #[test]
    fn post_mortem_tells_the_story_without_the_stays() {
        // The story opens with a recovery, so the dump has that row too.
        let (crashed, dir) = persistent_fleet("post-mortem-story");
        for i in 1..4 {
            crashed.admit(SessionId::new(i)).expect("admits");
        }
        drop(crashed);
        let (fleet, report) = recover(&dir);

        let late = fleet
            .register_session(&late_conference(&fleet.problem(), 9.0))
            .expect("registers");
        fleet.admit(late).expect("admits");
        assert!(fleet.admit(late).is_err(), "already live");
        let mut rng = StdRng::seed_from_u64(5);
        let mut hops = 0;
        while fleet.counters().migrations.load(Ordering::Relaxed) == 0 {
            fleet.hop_session(SessionId::new(1 + hops % 3), &mut rng);
            hops += 1;
            assert!(hops < 10_000, "no hop ever migrated");
        }
        let (failed, drained) = (AgentId::new(1), AgentId::new(2));
        let (fail_moves, _) = fleet.fail_agent(failed);
        assert!(fleet.restore_agent(failed));
        let (drain_moves, _) = fleet.drain_agent(drained);
        let checkpoint_seq = fleet.checkpoint().expect("checkpoint");
        fleet.depart(late).expect("live");

        let rows = flight_rows(&fleet.obs().post_mortem("test", "scripted"));
        assert!(rows.len() <= vc_obs::POST_MORTEM_EVENTS);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0), "seq order");
        let payloads_of = |event: &str, session: u32| -> Vec<u64> {
            (rows.iter())
                .filter(|row| row.1 == event && row.2 == session)
                .map(|row| row.3)
                .collect()
        };
        for event in [
            "recovery_installed",
            "registered",
            "admit_attempt",
            "admitted",
            "refused",
            "departed",
        ] {
            assert!(rows.iter().any(|row| row.1 == event), "no {event} row");
        }
        assert_eq!(payloads_of("refused", late.index() as u32), [5]);
        let fleet_scoped = |event| payloads_of(event, vc_obs::FLEET_SCOPE);
        assert_eq!(fleet_scoped("recovery_replayed"), [report.replayed as u64]);
        let down = |agent: AgentId, moves: usize| (agent.index() as u64) << 32 | moves as u64;
        assert_eq!(
            fleet_scoped("agent_down"),
            [down(failed, fail_moves), down(drained, drain_moves)]
        );
        assert_eq!(fleet_scoped("agent_restored"), [failed.index() as u64]);
        assert_eq!(fleet_scoped("checkpoint"), [checkpoint_seq]);
        // A hop is a row only when it moved its session (a lost swap
        // needs a second thread): the stays are counted, not recorded.
        let counters = fleet.counters();
        assert!(counters.stays.load(Ordering::Relaxed) > 0);
        let migrated = rows.iter().filter(|row| row.1 == "hop_committed").count();
        assert_eq!(migrated, counters.migrations.load(Ordering::Relaxed));
        assert!(!rows.iter().any(|row| row.1.contains("stay")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_compacts_and_recovery_prefers_the_snapshot() {
        let (fleet, dir) = persistent_fleet("checkpoint");
        churn(&fleet);
        let seq = fleet.checkpoint().expect("checkpoint");
        assert!(seq > 0);
        // Post-checkpoint tail.
        fleet.depart(SessionId::new(2));
        let before = fleet.durable_state();
        drop(fleet);

        let (recovered, report) = recover(&dir);
        assert_eq!(report.snapshot_seq, seq);
        assert_eq!(report.replayed, 1, "only the tail replays");
        assert_eq!(recovered.durable_state(), before);
        // Compaction kept exactly one snapshot + one (fresh) journal.
        let snaps = std::fs::read_dir(&dir)
            .expect("dir")
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("snapshot-")
            })
            .count();
        assert_eq!(snaps, 1);
    }

    #[test]
    fn recovery_tolerates_a_torn_final_record() {
        let (fleet, dir) = persistent_fleet("torn-tail");
        churn(&fleet);
        let before = fleet.durable_state();
        drop(fleet);
        // Simulate a crash mid-append: garbage half-frame at the end.
        let journal = vc_persist::journal_files(&dir)
            .expect("journal files")
            .pop()
            .expect("one journal")
            .1;
        let mut bytes = std::fs::read(&journal).expect("read journal");
        bytes.extend_from_slice(&[0x42, 0x00, 0x00, 0x00, 0xDE, 0xAD]);
        std::fs::write(&journal, &bytes).expect("write torn journal");

        let (recovered, report) = recover(&dir);
        assert!(report.torn_tail, "tail tear not detected");
        assert_eq!(recovered.durable_state(), before);
        assert!(recovered.audit().is_empty());
    }

    #[test]
    fn recovery_rejects_a_mismatched_problem() {
        let (fleet, dir) = persistent_fleet("mismatch");
        churn(&fleet);
        let mut durable = fleet.durable_state();
        drop(fleet);
        durable.user_agents.pop(); // snapshot for a smaller instance
        let last = vc_persist::latest_snapshot::<crate::persist::DurableFleetState>(&dir)
            .expect("scan")
            .expect("snapshot")
            .0;
        vc_persist::write_snapshot(&dir, last + 1000, &durable).expect("write");
        let err = Fleet::recover(
            PersistConfig {
                dir,
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig::default(),
        )
        .expect_err("dimension mismatch must refuse");
        assert!(matches!(err, PersistError::Mismatch(_)), "got {err:?}");
    }

    /// Recovery books the ledger from the re-evaluated slots and holds
    /// the snapshot's `holdings` to them: one hold one ulp off is a
    /// typed refusal naming its session — no panic, and no ledger that
    /// silently differs from the slots.
    #[test]
    fn recovery_refuses_a_snapshot_hold_one_ulp_off() {
        let (fleet, dir) = persistent_fleet("hold-ulp");
        churn(&fleet);
        let mut durable = fleet.durable_state();
        drop(fleet);
        let (session, hold) = &mut durable.holdings[0];
        let session = *session;
        let share = &mut hold.holds[0].download_mbps;
        *share = f64::from_bits(share.to_bits() + 1);
        let last = vc_persist::latest_snapshot::<crate::persist::DurableFleetState>(&dir)
            .expect("scan")
            .expect("snapshot")
            .0;
        vc_persist::write_snapshot(&dir, last + 1000, &durable).expect("write");
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Fleet::recover(
                PersistConfig {
                    dir: dir.clone(),
                    fsync: FsyncPolicy::Always,
                    stay_batch: 4,
                },
                universe(120.0, 6),
                FleetConfig::default(),
            )
            .map(drop)
        }));
        match outcome {
            Ok(Err(PersistError::Mismatch(m))) => {
                assert!(m.contains(&session.to_string()), "{m}");
            }
            other => panic!("expected a typed holdings mismatch, got {other:?}"),
        }
    }

    #[test]
    fn counters_round_trip_in_declaration_order() {
        // Name → value here, wire position → value below: a reordered
        // `fleet_counters!` list changes the bytes and fails.
        let distinct = CounterSnapshot {
            admitted: 1,
            rejected: 2,
            departed: 3,
            migrations: 4,
            stays: 5,
            evacuations: 6,
            forced_moves: 7,
            admitted_enumeration: 8,
            admitted_repair: 9,
            admitted_fallback: 10,
            repair_steps: 11,
            refused_user_fit: 12,
            refused_task_fit: 13,
            refused_global: 14,
            displaced: 15,
            readmit_enqueued: 16,
            readmit_admitted: 17,
            readmit_dropped: 18,
        };
        let live = crate::FleetCounters::default();
        distinct.install(&live);
        let bytes = vc_persist::codec::encode_to_vec(&CounterSnapshot::capture(&live));
        let wire: Vec<u8> = (1u64..=18).flat_map(u64::to_le_bytes).collect();
        assert_eq!(bytes, wire);
        let decoded: CounterSnapshot = vc_persist::codec::decode_exact(&bytes).expect("decodes");
        let fresh = crate::FleetCounters::default();
        decoded.install(&fresh);
        assert_eq!(CounterSnapshot::capture(&fresh), distinct);
    }

    #[test]
    fn recovered_counters_match_including_stays() {
        let (fleet, dir) = persistent_fleet("counters");
        churn(&fleet);
        let _ = fleet.admit(SessionId::new(0)); // duplicate ⇒ rejected
                                                // Stays are batched; `commit_journal` is a durability boundary
                                                // that flushes the pending batch, making the captured counters
                                                // recoverable exactly.
        fleet.commit_journal().expect("commit");
        let before = CounterSnapshot::capture(fleet.counters());
        drop(fleet);
        let (recovered, _) = recover(&dir);
        assert_eq!(CounterSnapshot::capture(recovered.counters()), before);
        assert!(before.rejected > 0, "history had no rejection");
    }

    #[test]
    fn refused_admission_leaves_no_trace_in_the_durable_state() {
        // A contended universe: capacity for only some of the fleet, so
        // at least one admission is refused. A refusal must not leak
        // the attempted placement into the (inert) assignment — journal
        // replay only sees the Reject record, so any leak would make
        // recovery diverge from the pre-crash state.
        let dir = store_dir("refused-admit");
        let fleet = Fleet::with_persistence(
            universe(30.0, 2),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ..FleetConfig::default()
            },
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
        )
        .expect("persistent fleet");
        let mut refused = 0usize;
        for i in 0..6usize {
            if fleet.admit(SessionId::from(i)).is_err() {
                refused += 1;
            }
        }
        assert!(refused > 0, "universe not contended enough to refuse");
        let before = fleet.durable_state();
        drop(fleet);
        let (recovered, _) = Fleet::recover(
            PersistConfig {
                dir,
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(30.0, 2),
            FleetConfig {
                placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
                alg1: Alg1Config::paper(400.0),
                ..FleetConfig::default()
            },
        )
        .expect("recovery");
        assert_eq!(
            recovered.durable_state(),
            before,
            "a refused admission left state that replay cannot reproduce"
        );
    }

    /// What the by-agent entry points do with an id past the pool — a
    /// `FleetEvent::FailAgent` from a trace cut for a larger universe:
    /// they answer as the session side answers an unknown id, and
    /// nothing is counted, traced or journaled (a journaled one would
    /// fail the recovery below with `replay_bounds`' typed error).
    #[test]
    fn agent_entry_points_answer_for_ids_past_the_pool() {
        let (fleet, dir) = persistent_fleet("agent-bounds");
        churn(&fleet);
        let before = fleet.durable_state();
        let traced = fleet.obs().trace().total();
        for agent in [AgentId::from(fleet.num_agents()), AgentId::new(u32::MAX)] {
            assert_eq!(fleet.fail_agent(agent), (0, 0), "{agent}");
            assert_eq!(fleet.drain_agent(agent), (0, 0), "{agent}");
            assert!(!fleet.restore_agent(agent), "{agent}");
            assert!(!fleet.is_agent_available(agent), "{agent}");
            assert!(!fleet.is_agent_drained(agent), "{agent}");
        }
        assert_eq!(fleet.obs().trace().total(), traced);
        assert_eq!(fleet.durable_state(), before);
        assert!(fleet.audit().is_empty());
        drop(fleet);
        let (recovered, _) = recover(&dir);
        assert_eq!(recovered.durable_state(), before);
    }

    /// A fleet that grew its universe online recovers exactly — via
    /// journal replay of the `RegisterSession` records (pre-checkpoint
    /// crash) AND via the snapshot's registered definitions
    /// (post-checkpoint crash). `recover` is handed only the seed
    /// problem both times.
    #[test]
    fn grown_universe_recovers_from_journal_and_snapshot() {
        let (fleet, dir) = persistent_fleet("open-world");
        churn(&fleet);
        let def_a = super::late_conference(&fleet.problem(), 9.0);
        let def_b = super::late_conference(&fleet.problem(), 14.0);
        let s6 = fleet.register_session(&def_a).expect("registers");
        fleet.admit(s6).expect("admits");
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..4 {
            let _ = fleet.hop_session(s6, &mut rng);
        }
        fleet.commit_journal().expect("commit");
        let before = fleet.durable_state();
        let objective = fleet.objective();
        drop(fleet); // crash before any checkpoint: defs live in the journal

        let (recovered, report) = recover(&dir);
        assert!(report.replayed > 0);
        assert_eq!(recovered.universe_size(), (7, 14));
        assert_eq!(recovered.durable_state(), before);
        assert_eq!(recovered.objective().to_bits(), objective.to_bits());
        assert!(recovered.is_live(s6));

        // Grow again, checkpoint (snapshot now carries both defs), more
        // history, crash: recovery starts from the snapshot.
        let s7 = recovered.register_session(&def_b).expect("registers");
        recovered.admit(s7).expect("admits");
        let seq = recovered.checkpoint().expect("checkpoint");
        assert!(seq > 0);
        recovered.depart(SessionId::new(2));
        let before = recovered.durable_state();
        drop(recovered);

        let (again, report) = recover(&dir);
        assert_eq!(report.snapshot_seq, seq);
        assert_eq!(again.universe_size(), (8, 16));
        assert_eq!(again.durable_state(), before);
        assert!(again.audit().is_empty());
        assert!(again.is_live(s7));
    }

    /// A CRC-valid journal frame can still carry ids outside the
    /// (replayed-so-far) universe — semantic corruption the checksum
    /// cannot catch. Recovery must refuse with a typed `Replay` error,
    /// never index-panic.
    #[test]
    fn replay_refuses_out_of_range_ids_without_panicking() {
        use crate::persist::FleetOp;
        use vc_core::Decision;
        use vc_persist::Encode;
        let hop = |session, user, onto| FleetOp::Hop {
            session,
            decision: Decision::User(user, AgentId::new(onto)),
            old_agent: AgentId::new(0),
        };
        // The first user of the `k`-th live session.
        let user_of = |fleet: &Fleet, k: usize| {
            let s = fleet.live_sessions()[k];
            (s, fleet.problem().instance().session(s).users()[0])
        };
        type Corrupt<'a> = &'a dyn Fn(&Fleet) -> FleetOp;
        let inputs: [(&str, Corrupt<'_>, &str); 3] = [
            // Hop of a session the universe never registered.
            (
                "oob-replay",
                &|_| hop(SessionId::new(99), vc_model::UserId::new(0), 0),
                "unregistered session",
            ),
            // Hop of a live session, moving a user of another live one.
            (
                "foreign-replay",
                &|fleet| hop(user_of(fleet, 0).0, user_of(fleet, 1).1, 0),
                "foreign session",
            ),
            // Hop of a live session's own user onto an agent nobody
            // registered.
            (
                "oob-agent-replay",
                &|fleet| hop(user_of(fleet, 0).0, user_of(fleet, 0).1, 99),
                "unknown agent",
            ),
        ];
        for (name, corrupt, refusal) in inputs {
            let (fleet, dir) = persistent_fleet(name);
            churn(&fleet);
            let op = corrupt(&fleet);
            drop(fleet);
            let journal = vc_persist::journal_files(&dir)
                .expect("scan")
                .pop()
                .expect("one journal")
                .1;
            let (records, _) = vc_persist::read_journal::<FleetOp>(&journal).expect("read");
            let next_seq = records.last().expect("history").0 + 1;
            let mut payload = Vec::new();
            next_seq.encode(&mut payload);
            op.encode(&mut payload);
            let mut bytes = std::fs::read(&journal).expect("journal bytes");
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&vc_persist::crc32(&payload).to_le_bytes());
            bytes.extend_from_slice(&payload);
            std::fs::write(&journal, &bytes).expect("write");
            let err = Fleet::recover(
                PersistConfig {
                    dir,
                    fsync: FsyncPolicy::Always,
                    stay_batch: 4,
                },
                universe(120.0, 6),
                FleetConfig::default(),
            )
            .expect_err("a corrupt id must refuse");
            assert!(
                matches!(&err, PersistError::Replay(m) if m.contains(refusal)),
                "{name}: got {err:?}"
            );
        }
    }

    #[test]
    fn recovering_an_empty_directory_is_a_hard_error() {
        // Every valid store has a genesis snapshot; a snapshot-less
        // directory is a wrong path or lost data, and going live on a
        // silently-fresh fleet would drop every reservation.
        let dir = store_dir("no-store");
        std::fs::create_dir_all(&dir).expect("empty dir");
        let err = Fleet::recover(
            PersistConfig {
                dir,
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig::default(),
        )
        .expect_err("empty store must refuse");
        assert!(matches!(err, PersistError::NoStore(_)), "got {err:?}");
    }

    #[test]
    fn a_live_store_refuses_a_second_writer() {
        let (fleet, dir) = persistent_fleet("store-lock");
        // A second fleet on the same directory must be refused — it
        // would wipe the live store. Same for a concurrent recovery.
        let again = Fleet::with_persistence(
            universe(120.0, 6),
            FleetConfig::default(),
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
        );
        assert!(
            matches!(again, Err(PersistError::Locked(_))),
            "second writer was not refused"
        );
        let concurrent = Fleet::recover(
            PersistConfig {
                dir: dir.clone(),
                fsync: FsyncPolicy::Always,
                stay_batch: 4,
            },
            universe(120.0, 6),
            FleetConfig::default(),
        );
        assert!(matches!(concurrent, Err(PersistError::Locked(_))));
        // Once the holder is gone (crash or shutdown), the store opens.
        churn(&fleet);
        drop(fleet);
        let (recovered, _) = recover(&dir);
        assert!(recovered.audit().is_empty());
    }

    #[test]
    fn ephemeral_fleet_refuses_persistence_calls() {
        let fleet = fleet(120.0, 6);
        assert!(!fleet.is_persistent());
        assert!(matches!(fleet.checkpoint(), Err(PersistError::NotAttached)));
        assert!(matches!(
            fleet.commit_journal(),
            Err(PersistError::NotAttached)
        ));
    }

    #[test]
    fn telemetry_exports_every_field() {
        let problem = universe(10_000.0, 100);
        let trace = dynamic_trace(
            6,
            &DynamicTraceConfig {
                horizon_s: 10.0,
                warm_sessions: 4,
                ..DynamicTraceConfig::default()
            },
        );
        let mut orch = Orchestrator::new(problem, OrchestratorConfig::default());
        let report = orch.run_trace(&trace, 10.0);
        let t = &report.telemetry;
        let n = t.snapshots().len();
        let gauges = crate::telemetry::FleetSnapshot::GAUGES;
        assert_eq!(gauges.len(), 31);
        for name in gauges {
            assert_eq!(t.series(name).len(), n, "series {name} is missing samples");
        }
        // One JSON object a sample, its keys the axis then every gauge
        // in declaration order.
        let json = t.to_json(orch.fleet());
        let rows: Vec<&str> = (json.lines())
            .filter_map(|l| l.trim_start().strip_prefix("{\"time_s\": "))
            .collect();
        assert_eq!(rows.len(), n);
        for row in rows {
            let keys: Vec<&str> = row.split(", \"").skip(1).collect();
            assert_eq!(keys.len(), gauges.len());
            for (key, name) in keys.iter().zip(gauges) {
                assert!(key.starts_with(&format!("{name}\": ")), "{key} vs {name}");
            }
        }
        assert_eq!(
            gauges[28..],
            [
                "hop_candidates_bounded",
                "hop_candidates_folded",
                "hop_memo_hits"
            ]
        );
        // Admissions are cumulative and should end ≥ warm pool.
        assert!(t.series("admitted").last_value().expect("samples") >= 4.0);
        // The closed-world trace never grows the universe: the size
        // series is the constant instance size.
        assert_eq!(t.series("universe_sessions").last_value(), Some(6.0));
    }
}

mod hop_memo {
    //! A slot's kept [`HopMemo`](vc_algo::markov::HopMemo): when the
    //! next hop may re-read it, and that re-reading it changes nothing
    //! a fleet records.

    use super::*;
    use crate::persist::PersistConfig;
    use proptest::prelude::*;
    use rand::RngCore;
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use vc_model::AgentDef;
    use vc_persist::journal::FsyncPolicy;

    fn config(beta: f64) -> FleetConfig {
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(beta),
            ..FleetConfig::default()
        }
    }

    /// A fourth (fifth, …) agent for the small universe, a little
    /// further out than the seed three.
    fn late_agent(fleet: &Fleet) -> AgentDef {
        let (agents, (_, users)) = (fleet.num_agents(), fleet.universe_size());
        AgentDef {
            spec: AgentSpec::builder(format!("late{agents}"))
                .capacity(Capacity::new(120.0, 120.0, 6))
                .build(),
            inter_agent_ms: (0..agents).map(|k| 30.0 + 4.0 * k as f64).collect(),
            user_delays_ms: (0..users).map(|u| 9.0 + ((u * 11) % 17) as f64).collect(),
        }
    }

    /// Hops `s` once; whether the hop drew from the slot's kept memo.
    fn hop_hits(fleet: &Fleet, s: SessionId, seed: u64) -> (HopOutcome, bool) {
        let before = fleet.obs().hop_memo_hits();
        let outcome = fleet.hop_session(s, &mut StdRng::seed_from_u64(seed));
        (outcome, fleet.obs().hop_memo_hits() > before)
    }

    /// Hops `s` until a hop is a hit that stays (its slot then holds a
    /// memo).
    fn settle(fleet: &Fleet, s: SessionId) {
        let kept = (0..64).any(|seed| match hop_hits(fleet, s, seed) {
            (HopOutcome::Migrated(_), _) => false,
            (_, hit) => hit,
        });
        assert!(kept, "{s} never stayed twice in a row");
    }

    /// Whether each of `sessions` has a user or a task on `agent`.
    fn on_agent(fleet: &Fleet, sessions: &[SessionId], agent: AgentId) -> Vec<bool> {
        fleet.with_state(|state| {
            let (problem, asg) = (state.problem(), state.assignment());
            let users = |s| problem.instance().session(s).users().iter();
            let tasks = |s| problem.tasks().of_session(s).iter();
            (sessions.iter())
                .map(|&s| {
                    users(s).any(|&u| asg.agent_of_user(u) == agent)
                        || tasks(s).any(|&t| asg.agent_of_task(t) == agent)
                })
                .collect()
        })
    }

    /// Every cause of the invalidation rule, one at a time — a write of
    /// the slots' loads (`load_drift` rewrites every one; a hop commit
    /// and an evacuation move are the tests below), and an agent's
    /// registration, which extends every load by the new agent: after
    /// it, the next hop of every live session sweeps again — and the
    /// one after that re-reads, unless the sweep's own hop migrated.
    #[test]
    fn a_write_or_a_registration_makes_the_next_hop_a_miss() {
        let f = Fleet::new(universe(120.0, 6), config(400.0));
        let live: Vec<SessionId> = (0..6).map(SessionId::new).collect();
        for &s in &live {
            f.admit(s).unwrap();
            // A fresh slot has nothing to re-read.
            assert!(!hop_hits(&f, s, 1).1);
        }
        let late = late_agent(&f);
        type Cause<'a> = (&'a str, Box<dyn Fn(&Fleet) + 'a>);
        let causes: Vec<Cause<'_>> = vec![
            ("load_drift", Box::new(|f| assert_eq!(f.load_drift(), 0.0))),
            // The sweep enumerates one agent more.
            (
                "register_agent",
                Box::new(|f| _ = f.register_agent(&late, "default").unwrap()),
            ),
        ];
        for (name, cause) in causes {
            for &s in &live {
                settle(&f, s);
            }
            let settled = f.metrics().settled;
            assert!(settled > 0, "before {name}: nobody settled at β = 400");
            cause(&f);
            assert_eq!(f.metrics().settled, 0, "after {name}: a memo survived");
            for &s in &live {
                assert!(
                    !hop_hits(&f, s, 3).1,
                    "after {name}: {s} re-read a stale sweep"
                );
            }
            assert!(f.audit().is_empty(), "after {name}");
        }
        // A departure takes the slot, memo and all; a re-admission
        // starts without one.
        let s = live[0];
        settle(&f, s);
        f.depart(s).unwrap();
        f.admit(s).unwrap();
        assert!(!hop_hits(&f, s, 7).1);
    }

    /// An agent's failure, return and drain change only what the draw
    /// reads: after `fail_agent` or `drain_agent` the next hop of every
    /// session the evacuation did not move re-reads its memo (a moved
    /// one sweeps: its slot was written), after a `restore_agent` —
    /// granted, or refused for the drained agent — every session's
    /// does, and the settled count loses at most the moved sessions and
    /// nothing to the restore.
    #[test]
    fn a_failure_and_a_restore_keep_every_unmoved_sessions_memo() {
        for drain in [false, true] {
            let cause = if drain { "drain_agent" } else { "fail_agent" };
            let f = Fleet::new(universe(120.0, 6), config(400.0));
            let live: Vec<SessionId> = (0..6).map(SessionId::new).collect();
            for &s in &live {
                f.admit(s).unwrap();
                settle(&f, s);
            }
            let a = AgentId::new(1);
            let moved = on_agent(&f, &live, a);
            let moves = moved.iter().filter(|&&m| m).count();
            assert!((1..6).contains(&moves), "agent 1 carries {moves} of 6");
            let settled = f.metrics().settled;
            _ = if drain {
                f.drain_agent(a)
            } else {
                f.fail_agent(a)
            };
            let kept = f.metrics().settled;
            assert!(
                kept + moves >= settled && kept > 0,
                "{cause}: {settled}, then {kept}"
            );
            for (&s, &m) in live.iter().zip(&moved) {
                assert_eq!(hop_hits(&f, s, 3).1, !m, "after {cause}: {s}");
            }
            for &s in &live {
                settle(&f, s);
            }
            let settled = f.metrics().settled;
            assert_eq!(f.restore_agent(a), !drain, "{cause}");
            assert_eq!(f.metrics().settled, settled, "restore_agent retired a memo");
            for &s in &live {
                assert!(
                    hop_hits(&f, s, 5).1,
                    "{cause}, restore_agent: {s} swept again"
                );
            }
            assert!(f.audit().is_empty());
        }
    }

    /// At β = 0.05, where every candidate is stored and hits migrate,
    /// availability is the draw's: no hit while an agent is down draws
    /// it, hits after its restore — from memos swept while it was
    /// down, or before it failed — move onto it, and no hit after a
    /// drain, which a refused restore leaves in force, ever draws the
    /// drained agent.
    #[test]
    fn a_hit_draws_by_the_availability_at_the_draw() {
        /// Hops the six sessions round-robin for `rounds` rounds; the
        /// targets of the migrations drawn from kept memos.
        fn hit_migrations(f: &Fleet, rounds: u64, seed: u64) -> Vec<AgentId> {
            (0..rounds * 6)
                .filter_map(|k| {
                    let s = SessionId::from(k as usize % 6);
                    match hop_hits(f, s, seed + k) {
                        (HopOutcome::Migrated(d), true) => Some(d.target()),
                        _ => None,
                    }
                })
                .collect()
        }
        let (a, drained) = (AgentId::new(1), AgentId::new(2));
        let (mut down_hits, mut onto_restored, mut drained_hits) = (0, 0, 0);
        for seed in 0..8u64 {
            let f = Fleet::new(universe(120.0, 6), config(0.05));
            for s in 0..6 {
                f.admit(SessionId::new(s)).unwrap();
            }
            hit_migrations(&f, 4, seed << 16);
            f.fail_agent(a);
            for target in hit_migrations(&f, 4, seed << 16 | 1 << 8) {
                assert_ne!(target, a, "seed {seed}: a hit drew the failed agent");
                down_hits += 1;
            }
            assert!(f.restore_agent(a));
            let after = hit_migrations(&f, 1, seed << 16 | 2 << 8);
            onto_restored += after.iter().filter(|&&t| t == a).count();
            f.drain_agent(drained);
            assert!(!f.restore_agent(drained));
            for target in hit_migrations(&f, 4, seed << 16 | 3 << 8) {
                assert_ne!(target, drained, "seed {seed}: a hit drew the drained agent");
                drained_hits += 1;
            }
            assert!(f.audit().is_empty());
        }
        assert!(down_hits > 0, "no hit migrated while the agent was down");
        assert!(
            onto_restored > 0,
            "no hit after a restore moved onto the agent"
        );
        assert!(drained_hits > 0, "no hit migrated after the drain");
    }

    /// The commit cause, at β = 0.05 where hops migrate freely and every
    /// candidate is stored: a hit may draw a migration, it commits
    /// through `try_swap` like any other, and the slot it moved keeps
    /// no memo of the placement it left.
    #[test]
    fn a_committed_hop_drops_the_memo_it_was_drawn_from() {
        let f = Fleet::new(universe(120.0, 6), config(0.05));
        let s = SessionId::new(0);
        f.admit(s).unwrap();
        let (mut hit_migrations, mut seed) = (0, 0);
        while hit_migrations < 3 {
            seed += 1;
            assert!(seed < 500, "β = 0.05 and nothing migrates from a hit");
            let attempts = f.obs().swap_counters().iter().map(|c| c.0).sum::<u64>();
            let (outcome, hit) = hop_hits(&f, s, seed);
            if let HopOutcome::Migrated(_) = outcome {
                let swaps = f.obs().swap_counters().iter().map(|c| c.0).sum::<u64>();
                assert_eq!(swaps, attempts + 1, "a drawn migration is a checked swap");
                hit_migrations += usize::from(hit);
                assert!(!hop_hits(&f, s, seed).1, "the hop after a migration sweeps");
            }
            assert!(f.audit().is_empty());
        }
    }

    /// `sessions_settled` beside `live_sessions`, from the scrape's own
    /// slot walk; `vc_obs_hop_memo_hits` beside the candidate counters.
    #[test]
    fn settled_sessions_and_memo_hits_are_scrapeable() {
        let f = Fleet::new(universe(120.0, 6), config(400.0));
        for i in 0..6 {
            f.admit(SessionId::new(i)).unwrap();
        }
        let text = crate::telemetry::fleet_metrics_text(&f);
        assert!(text.contains("vc_fleet_live_sessions 6\n"));
        assert!(
            text.contains("vc_fleet_sessions_settled 0\n"),
            "nobody has hopped"
        );
        for i in 0..6 {
            settle(&f, SessionId::new(i));
        }
        let settled = f.metrics().settled;
        assert!((1..=6).contains(&settled));
        let text = crate::telemetry::fleet_metrics_text(&f);
        assert!(text.contains(&format!("vc_fleet_sessions_settled {settled}\n")));
        let hits = f.obs().hop_memo_hits();
        assert!(hits >= 6);
        let text = vc_obs::prometheus_text(f.obs());
        assert!(text.contains(&format!("vc_obs_hop_memo_hits {hits}\n")));
    }

    /// A worker's tally reaches the plane at every `tick_until` return,
    /// so between drives the per-hop counters are exact.
    #[test]
    fn pool_drives_leave_the_hop_counters_exact() {
        let f = Fleet::new(universe(120.0, 6), config(400.0));
        let pool = ReoptPool::new(5);
        for i in 0..6 {
            f.admit(SessionId::new(i)).unwrap();
            pool.register(&f, SessionId::new(i), 0.0);
        }
        let mut hops = 0;
        for t in 1..=20 {
            hops += pool.tick_until(&f, 7.0 * t as f64);
            assert_eq!(f.obs().freeze_read_fast(), hops as u64);
        }
        assert!(hops > 6 * 5);
        let hits = f.obs().hop_memo_hits();
        assert!(hits > 0 && hits < hops as u64, "{hits} hits in {hops} hops");
    }

    fn store_dir(name: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-persist")
            .join(format!("memo-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn persist(dir: &Path) -> PersistConfig {
        PersistConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Manual,
            stay_batch: 4,
        }
    }

    /// Every journal and snapshot file of a store, by name.
    fn store_files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        let mut files = BTreeMap::new();
        for entry in std::fs::read_dir(dir).expect("store directory") {
            let entry = entry.expect("directory entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != "LOCK" {
                files.insert(name, std::fs::read(entry.path()).expect("store file"));
            }
        }
        files
    }

    /// One twin of the retained ≡ forgotten pair.
    struct Twin {
        fleet: Fleet,
        dir: PathBuf,
        forgets: bool,
    }

    impl Twin {
        fn new(name: &str, beta: f64, forgets: bool) -> Self {
            let dir = store_dir(name);
            let fleet = Fleet::with_persistence(universe(120.0, 6), config(beta), persist(&dir))
                .expect("persistent fleet");
            Self {
                fleet,
                dir,
                forgets,
            }
        }

        /// One hop: its outcome and the RNG's next word after it.
        fn hop(&self, s: SessionId, seed: u64) -> (HopOutcome, u64) {
            if self.forgets {
                self.fleet.forget_hop_memos();
            }
            let mut rng = StdRng::seed_from_u64(seed);
            (self.fleet.hop_session(s, &mut rng), rng.next_u64())
        }

        /// Kills the fleet at a durability boundary and recovers it.
        fn crash_and_recover(self, beta: f64) -> Self {
            let Self {
                fleet,
                dir,
                forgets,
            } = self;
            fleet.commit_journal().expect("commit");
            drop(fleet);
            let (fleet, _) =
                Fleet::recover(persist(&dir), universe(120.0, 6), config(beta)).expect("recovery");
            Self {
                fleet,
                dir,
                forgets,
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Retained ≡ forgotten over random histories: two journaled
        /// fleets run the same registrations, admissions, departures,
        /// hops, failures, restores, drains and agent registrations,
        /// crash and recover half way (a recovered fleet holds no
        /// memo); one forgets every memo before every hop. The keeping
        /// twin's memos outlive failures and restores, so its hits draw
        /// from sweeps made under another availability. Hop outcomes,
        /// the RNG after each hop, `durable_state()`, Φ bits and every
        /// byte of the stores are equal — at β = 400, where memos are
        /// mostly placeholders, and at β = 0.05, where every candidate
        /// is stored and hits migrate.
        #[test]
        fn a_fleet_that_keeps_memos_equals_one_that_forgets_them(
            ops in prop::collection::vec((0u8..14, 0usize..64), 30..90),
            low_beta in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let beta = if low_beta { 0.05 } else { 400.0 };
            let case = format!("{seed:016x}");
            let mut twins = [
                Twin::new(&format!("keep-{case}"), beta, false),
                Twin::new(&format!("forget-{case}"), beta, true),
            ];
            let crash_at = ops.len() / 2;
            for (step, &(op, arg)) in ops.iter().enumerate() {
                if step == crash_at {
                    twins = twins.map(|t| t.crash_and_recover(beta));
                }
                let sessions = twins[0].fleet.universe_size().0;
                let agents = twins[0].fleet.num_agents();
                let (s, a) = (SessionId::from(arg % sessions), AgentId::from(arg % agents));
                let up = |f: &Fleet| (0..agents).filter(|&l| f.is_agent_available(AgentId::from(l))).count();
                let mut hops = Vec::new();
                for twin in &twins {
                    let f = &twin.fleet;
                    match op {
                        0 | 1 => _ = f.admit(s),
                        2 => _ = f.depart(s),
                        3 if f.is_agent_available(a) && up(f) > 1 => _ = f.fail_agent(a),
                        3 => _ = f.restore_agent(a),
                        4 if arg % 5 == 0 && f.is_agent_available(a) && up(f) > 2 => {
                            _ = f.drain_agent(a)
                        }
                        5 if arg % 4 == 0 && agents < 5 => {
                            _ = f.register_agent(&late_agent(f), "default").expect("registers")
                        }
                        6 if arg % 3 == 0 && sessions < 9 && agents == 3 => {
                            let def = late_conference(&f.problem(), 9.0 + arg as f64);
                            _ = f.register_session(&def).expect("registers")
                        }
                        _ => hops.push(twin.hop(s, seed ^ step as u64)),
                    }
                }
                if let [kept, forgotten] = hops[..] {
                    prop_assert_eq!(kept, forgotten, "step {}: hop of {}", step, s);
                }
            }
            let [kept, forgotten] = twins;
            for twin in [&kept, &forgotten] {
                twin.fleet.commit_journal().expect("commit");
                prop_assert!(twin.fleet.audit().is_empty());
            }
            prop_assert_eq!(kept.fleet.durable_state(), forgotten.fleet.durable_state());
            prop_assert_eq!(
                kept.fleet.objective().to_bits(),
                forgotten.fleet.objective().to_bits()
            );
            prop_assert_eq!(forgotten.fleet.obs().hop_memo_hits(), 0);
            prop_assert!(store_files(&kept.dir) == store_files(&forgotten.dir), "stores differ");
            for dir in [&kept.dir, &forgotten.dir] {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }

    /// The proptest above is not vacuous: on its universe a fleet that
    /// keeps memos does re-read them, at both β — memos kept across an
    /// agent's failure and restore, and across a drain, among them, so
    /// the twins compare draws from memos swept under another
    /// availability.
    #[test]
    fn the_twin_universe_does_hit() {
        for beta in [0.05, 400.0] {
            let f = Fleet::new(universe(120.0, 6), config(beta));
            for i in 0..6 {
                f.admit(SessionId::new(i)).unwrap();
            }
            let hop_round = |from: u64| {
                for round in from..from + 6 {
                    f.hop_session(
                        SessionId::from(round as usize % 6),
                        &mut StdRng::seed_from_u64(round),
                    );
                }
            };
            (0..10).for_each(|k| hop_round(6 * k));
            let hits = f.obs().hop_memo_hits();
            assert!(hits > 10, "β = {beta}: {hits} hits in 60 hops");
            // One round with agent 1 down, then the first hop of every
            // session after its return: each of those draws from a memo
            // swept before the restore.
            let mut across = 0;
            for cycle in 0..4 {
                f.fail_agent(AgentId::new(1));
                hop_round(100 + 12 * cycle);
                assert!(f.restore_agent(AgentId::new(1)));
                let before = f.obs().hop_memo_hits();
                hop_round(106 + 12 * cycle);
                across += f.obs().hop_memo_hits() - before;
            }
            assert!(
                across > 0,
                "β = {beta}: no hit across a failure and a restore"
            );
            // The first hop of every session after a drain: each hit
            // draws from a memo swept while the agent was up.
            f.drain_agent(AgentId::new(2));
            let before = f.obs().hop_memo_hits();
            hop_round(200);
            let across = f.obs().hop_memo_hits() - before;
            assert!(across > 0, "β = {beta}: no hit across a drain");
        }
    }
}

/// The ledger's checked bookings ask the capacity rule a hop's draw
/// asks. On a ledger booked to `reserved` — the session's `old` share
/// plus everyone else's — `try_reserve(new)` refuses exactly when
/// `vc_core::demand_fits` of `new` against nothing held and the
/// ledger's own totals does, and `try_swap(old, new)` exactly when it
/// does against `old`. The cases cover overshot agents, unlimited
/// bandwidth and transcoding, and demands within 3 ulps of the
/// boundary.
mod ledger_rule {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;
    use vc_core::{demand_fits, SessionLoad, CAPACITY_EPS};

    const AGENTS: usize = 2;

    /// One share per agent: download, upload, transcoding units.
    type Shares = [(f64, f64, u32); AGENTS];

    /// Agents with the given capacities, and the one session an
    /// instance needs.
    fn problem(caps: &[Capacity]) -> UapProblem {
        let ladder = ReprLadder::standard_four();
        let r = ladder.highest();
        let mut b = InstanceBuilder::new(ladder);
        for (i, &cap) in caps.iter().enumerate() {
            b.add_agent(AgentSpec::builder(format!("a{i}")).capacity(cap).build());
        }
        let s = b.add_session();
        b.add_user(s, r, r);
        b.symmetric_delays(|_, _| 20.0, |_, _| 5.0);
        UapProblem::new(b.build().unwrap(), CostModel::paper_default())
    }

    /// A load holding `shares[i]` on agent `i`, touching every agent it
    /// holds anything on (an all-zero share is no hold).
    fn load(shares: &Shares) -> SessionLoad {
        let mut load = SessionLoad::empty(AGENTS);
        for (i, &(d, u, t)) in shares.iter().enumerate() {
            (load.download[i], load.upload[i], load.transcode_units[i]) = (d, u, t);
            if d > 0.0 || u > 0.0 || t > 0 {
                load.touched.push(i as u32);
            }
        }
        load
    }

    /// A bandwidth in `[lo·cap, hi·cap)`, or in `[0, 300)` when
    /// unlimited.
    fn bandwidth(rng: &mut StdRng, cap: f64, (lo, hi): (f64, f64)) -> f64 {
        if cap.is_finite() {
            rng.gen_range(lo * cap..hi * cap)
        } else {
            rng.gen_range(0.0..300.0)
        }
    }

    /// `x` moved by `k` ulps, floored at 0 (a demand is never negative).
    fn ulps(x: f64, k: i64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            f64::from_bits((x.to_bits() as i64 + k).max(0) as u64)
        }
    }

    /// A new demand of one resource given what exactly fits there,
    /// `edge = old + free` (+ ε for bandwidth): `k` ulps from `edge`
    /// when the case puts this resource on the boundary, else zero or
    /// clear of it.
    fn new_share(rng: &mut StdRng, edge: f64, on_edge: bool, k: i64) -> f64 {
        if on_edge {
            ulps(edge, k)
        } else if rng.gen_bool(0.3) || edge <= 0.0 {
            0.0
        } else {
            rng.gen_range(0.0..0.9 * edge.min(1e3))
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ledger_refuses_exactly_when_the_rule_does(seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let caps: Vec<Capacity> = (0..AGENTS)
                .map(|_| {
                    let mut bw = || {
                        if rng.gen_bool(0.1) { f64::INFINITY } else { rng.gen_range(1.0..200.0) }
                    };
                    let (up, down) = (bw(), bw());
                    let slots = if rng.gen_bool(0.25) { u32::MAX } else { rng.gen_range(0..6) };
                    Capacity::new(up, down, slots)
                })
                .collect();
            let p = problem(&caps);
            let (mut others, mut old): (Shares, Shares) = Default::default();
            for (i, cap) in caps.iter().enumerate() {
                // Everyone else's share overshoots one resource in twelve.
                let mut share = || if rng.gen_bool(1.0 / 12.0) { (1.0, 1.3) } else { (0.0, 0.6) };
                let (down, up, units) = (share(), share(), share());
                let slots = f64::from(cap.transcode_slots.min(6));
                others[i] = (
                    bandwidth(&mut rng, cap.download_mbps, down),
                    bandwidth(&mut rng, cap.upload_mbps, up),
                    rng.gen_range(units.0 * slots..=units.1 * slots + 1.0) as u32,
                );
                if rng.gen_bool(2.0 / 3.0) {
                    old[i] = (
                        bandwidth(&mut rng, cap.download_mbps, (0.0, 0.3)),
                        bandwidth(&mut rng, cap.upload_mbps, (0.0, 0.3)),
                        rng.gen_range(0..=2),
                    );
                }
            }
            let old = load(&old);
            let booked = || {
                let ledger = CapacityLedger::new(&p, 1);
                ledger.force_swap(&SessionHold::default(), &load(&others));
                ledger.force_swap(&SessionHold::default(), &old);
                ledger
            };
            let (reserving, swapping) = (booked(), booked());
            let reserved = swapping.reserved_totals();
            // One (agent, resource) goes to its boundary: 3 ulps either
            // side for bandwidth, one unit for transcoding.
            let (edge_agent, edge_resource) = (rng.gen_range(0..AGENTS), rng.gen_range(0..3));
            let mut new = Shares::default();
            for (i, cap) in caps.iter().enumerate() {
                let on_edge = |r: usize| i == edge_agent && r == edge_resource;
                let mut bw = |r, cap: f64, reserved: f64, old: f64| {
                    let edge = old + ((cap - reserved) + CAPACITY_EPS);
                    let k = rng.gen_range(-3..=3);
                    new_share(&mut rng, edge, on_edge(r) && cap.is_finite(), k)
                };
                let download = bw(0, cap.download_mbps, reserved.download[i], old.download[i]);
                let upload = bw(1, cap.upload_mbps, reserved.upload[i], old.upload[i]);
                let units = if cap.transcode_slots == u32::MAX {
                    rng.gen_range(0..8)
                } else {
                    let edge = f64::from(old.transcode_units[i])
                        + (f64::from(cap.transcode_slots) - f64::from(reserved.transcode[i]));
                    let k = if on_edge(2) { rng.gen_range(-1..=1) } else { 0 };
                    new_share(&mut rng, edge + f64::from(k), on_edge(2), 0) as u32
                };
                new[i] = (download, upload, units);
            }
            let new = load(&new);
            let inst = p.instance();
            let nothing = SessionLoad::empty(AGENTS);
            prop_assert_eq!(
                reserving.try_reserve(&new).is_ok(),
                demand_fits(new.demand(), &nothing, &reserved, inst).is_ok(),
                "try_reserve on {:?}: reserved {:?}, new {:?}", caps, reserved, new
            );
            prop_assert_eq!(
                swapping.try_swap(&old, &new).is_ok(),
                demand_fits(new.demand(), &old, &reserved, inst).is_ok(),
                "try_swap on {:?}: reserved {:?}, old {:?}, new {:?}", caps, reserved, old, new
            );
        }
    }
}
