//! Property tests of the orchestrator's conservation invariants: after
//! *any* sequence of admits, departs, agent failures/recoveries and
//! hops, the sharded ledger and the authoritative state agree exactly —
//! per-agent booked capacity equals the sum of live sessions' loads,
//! departures release exactly what was reserved, and capacity is never
//! exceeded unless a failure forced an evacuation overshoot.

use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_orchestrator::{Fleet, PlacementPolicy, SessionHold};

/// A small capacity-limited universe: 3 agents, 5 sessions of 2–3 users.
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

fn build_fleet(spec: &RandomUniverse) -> Fleet {
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
    let problem = Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ));
    Fleet::new(
        problem,
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(400.0),
            ledger_shards: 2,
            ..FleetConfig::default()
        },
    )
}

/// The bits of every total the ledger has booked, agent by agent.
fn total_bits(fleet: &Fleet) -> Vec<(u64, u64, u32)> {
    let t = fleet.ledger().reserved_totals();
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

/// Event alphabet, decoded from a byte pair.
fn run_events(fleet: &Fleet, events: &[(u8, u8)]) -> usize {
    let num_sessions = 5usize;
    let num_agents = 3usize;
    let mut rng = StdRng::seed_from_u64(99);
    let mut forced_total = 0;
    for &(op, arg) in events {
        match op % 5 {
            0 => {
                // Admit (errors — already live, no capacity — are fine).
                let _ = fleet.admit(SessionId::from(arg as usize % num_sessions));
            }
            1 => {
                let s = SessionId::from(arg as usize % num_sessions);
                let held_before = fleet.hold_of(s);
                let released = fleet.depart(s).as_ref().map(SessionHold::from_load);
                // Departure returns exactly what the slot held.
                assert_eq!(held_before, released, "depart released a different hold");
            }
            2 => {
                let (_, forced) = fleet.fail_agent(AgentId::from(arg as usize % num_agents));
                forced_total += forced;
            }
            3 => {
                let _ = fleet.restore_agent(AgentId::from(arg as usize % num_agents));
            }
            _ => {
                let _ = fleet.hop_session(SessionId::from(arg as usize % num_sessions), &mut rng);
            }
        }
        let audit = fleet.audit();
        assert!(
            audit.is_empty(),
            "conservation broke after {op}/{arg}: {audit:?}"
        );
    }
    forced_total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ledger reservations equal live session loads after any sequence.
    #[test]
    fn ledger_conserves_under_any_event_sequence(
        spec in universe_strategy(),
        events in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=40),
    ) {
        let fleet = build_fleet(&spec);
        let forced = run_events(&fleet, &events);
        // Capacity is respected exactly unless a failure forced an
        // evacuation overshoot (service continuity over purity).
        if forced == 0 {
            for util in fleet.ledger().utilization() {
                prop_assert!(
                    util.max_fraction <= 1.0 + 1e-6,
                    "agent {} over capacity ({:.3}) without forced moves",
                    util.agent,
                    util.max_fraction
                );
            }
        }
        // Slot loads agree with a from-scratch evaluation (the standing
        // check that the allocation-free scratch path stays exact), and a
        // re-evaluation that finds no drift leaves the ledger's totals
        // as they were, bit for bit.
        let booked = total_bits(&fleet);
        let drift = fleet.load_drift();
        prop_assert!(drift < 1e-6, "state drifted by {drift}");
        if drift == 0.0 {
            prop_assert_eq!(total_bits(&fleet), booked);
        }
        let booked = total_bits(&fleet);
        prop_assert_eq!(fleet.load_drift(), 0.0);
        prop_assert_eq!(total_bits(&fleet), booked);
        prop_assert!(fleet.audit().is_empty());
    }

    /// Departing everything empties the ledger completely.
    #[test]
    fn departing_all_sessions_zeroes_the_ledger(
        spec in universe_strategy(),
        events in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=30),
    ) {
        let fleet = build_fleet(&spec);
        run_events(&fleet, &events);
        for i in 0..5usize {
            fleet.depart(SessionId::from(i));
        }
        prop_assert_eq!(fleet.live_count(), 0);
        for util in fleet.ledger().utilization() {
            prop_assert!(util.download_mbps.abs() < 1e-6, "download leaked");
            prop_assert!(util.upload_mbps.abs() < 1e-6, "upload leaked");
            prop_assert_eq!(util.transcode_units, 0, "slots leaked");
        }
        prop_assert!(fleet.audit().is_empty());
    }

    /// Admit → depart with no interference is a perfect round trip.
    #[test]
    fn admit_depart_round_trip_is_exact(
        spec in universe_strategy(),
        order in prop::collection::vec(0usize..5, 1..=5),
    ) {
        let fleet = build_fleet(&spec);
        let mut admitted = Vec::new();
        for &i in &order {
            if fleet.admit(SessionId::from(i)).is_ok() {
                admitted.push(SessionId::from(i));
            }
        }
        for &s in &admitted {
            let load = fleet.depart(s).expect("admitted session is live");
            prop_assert!(
                !SessionHold::from_load(&load).is_empty(),
                "live session reserved nothing"
            );
        }
        prop_assert_eq!(fleet.live_count(), 0);
        prop_assert!(fleet.audit().is_empty());
    }
}
