//! Closed-world equivalence of the open-world growth path.
//!
//! The acceptance property of the open-world refactor: a fleet whose
//! universe is **grown online session-by-session** (seed prefix +
//! `Fleet::register_session` of extracted [`SessionDef`]s) and then
//! driven through the same admit/hop/depart sequence is **bitwise
//! identical** — placements, ledger holdings, counters, objective `Φ`
//! — to a fleet built over the full instance up front, and both pass
//! the conservation audit. Growth must be unobservable to everything
//! but the universe size.

use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_model::SessionDef;
use vc_orchestrator::Fleet;

/// Randomized small universe: 3 agents, 4–7 sessions of 2–3 users.
#[derive(Debug, Clone)]
struct Spec {
    agents: Vec<(f64, u32)>,
    sessions: Vec<Vec<(u8, u8)>>,
    delay_seed: u64,
    /// How many sessions the seed (closed-world prefix) keeps.
    split: usize,
    /// Hop/churn script seed.
    drive_seed: u64,
}

fn spec_strategy() -> impl Strategy<Value = Spec> {
    (
        prop::collection::vec((25.0f64..120.0, 2u32..8), 3),
        prop::collection::vec(prop::collection::vec((0u8..4, 0u8..4), 2..=3), 4..=7),
        any::<u64>(),
        any::<u64>(),
        1usize..4,
    )
        .prop_map(|(agents, sessions, delay_seed, drive_seed, split)| Spec {
            split: split.min(sessions.len() - 1),
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
        FleetConfig {
            placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
            alg1: Alg1Config::paper(400.0),
            ..FleetConfig::default()
        },
    )
}

/// The shared admit/hop/depart script. `register` is called right
/// before a session is first admitted — a no-op for the closed-world
/// fleet, a `register_session` for the grown one.
fn drive(fleet: &Fleet, n: usize, drive_seed: u64, mut register: impl FnMut(&Fleet, usize)) {
    let mut rng = StdRng::seed_from_u64(drive_seed);
    for s in 0..n {
        register(fleet, s);
        let _ = fleet.admit(SessionId::from(s));
        // Interleave hops over everything admitted so far, so later
        // registrations happen against a genuinely-busy fleet.
        for i in 0..=s {
            let _ = fleet.hop_session(SessionId::from(i), &mut rng);
        }
    }
    // A little churn at the end: depart + readmit + more hops.
    fleet.depart(SessionId::new(0));
    let _ = fleet.admit(SessionId::new(0));
    for i in 0..n {
        let _ = fleet.hop_session(SessionId::from(i), &mut rng);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grow-then-admit ≡ build-up-front, bitwise.
    #[test]
    fn grown_fleet_is_bitwise_identical_to_up_front_fleet(spec in spec_strategy()) {
        let full = full_instance(&spec);
        let n = full.num_sessions();
        let seed = full.prefix(spec.split).expect("contiguous prefix");
        let defs: Vec<SessionDef> = (spec.split..n)
            .map(|s| SessionDef::of_instance(&full, SessionId::from(s)))
            .collect();

        // Closed world: the whole universe up front.
        let closed = make_fleet(full);
        drive(&closed, n, spec.drive_seed, |_, _| {});

        // Open world: seed prefix, conferences registered online just
        // before their first admission.
        let open = make_fleet(seed);
        drive(&open, n, spec.drive_seed, |fleet, s| {
            if s >= spec.split {
                let assigned = fleet
                    .register_session(&defs[s - spec.split])
                    .expect("extracted def re-registers");
                assert_eq!(assigned, SessionId::from(s), "ids must stay dense");
            }
        });

        prop_assert_eq!(open.universe_size(), closed.universe_size());
        // Objective Φ: bitwise.
        prop_assert_eq!(
            open.objective().to_bits(),
            closed.objective().to_bits(),
            "objectives diverged: {} vs {}",
            open.objective(),
            closed.objective()
        );
        // Complete control-plane state: placements, active set, agent
        // availability, ledger holdings, counters. The grown fleet's
        // durable state additionally records its registrations — the
        // only allowed difference.
        let a = closed.durable_state();
        let mut b = open.durable_state();
        prop_assert_eq!(b.growth.len(), n - spec.split);
        b.growth.clear();
        prop_assert_eq!(a, b);
        // Conservation audit: clean on both sides.
        prop_assert!(closed.audit().is_empty(), "closed-world audit: {:?}", closed.audit());
        prop_assert!(open.audit().is_empty(), "open-world audit: {:?}", open.audit());
        prop_assert!(open.load_drift() < 1e-9);
    }
}
