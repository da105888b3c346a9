//! Hop golden pin: which candidate a HOP weighs feasible, what `Φ_s` it
//! weighs it at, and therefore which decision the Gibbs sampler lands
//! on, are a determinism contract — journals replay the chosen moves
//! and crash/recover twins compare them bitwise. This test pins one
//! fixed virtual span of WAIT/HOP on a small persisted fleet to values
//! computed once (at the commit *before* the hop path moved onto the
//! neighbourhood kernel), so any change to candidate enumeration order,
//! the per-candidate arithmetic or the feasibility rule shows up as a
//! changed count or hash rather than as a silently different fleet.
//!
//! The fleet is built to exercise every branch of the weighing: the
//! Nearest bootstrap (so hops really migrate), capacity tight enough
//! that the `new − old ≤ residual` rule prunes candidates, and one
//! failed agent (so the availability filter and an evacuation's forced
//! placements are part of the base the hops start from).

use cloud_vc::prelude::*;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use vc_orchestrator::ReoptPool;
use vc_persist::codec::encode_to_vec;

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the fixed span leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct HopOutcomePins {
    sessions: usize,
    admitted: usize,
    hops: usize,
    migrations: usize,
    stays: usize,
    phi_bits: u64,
    durable_fnv: u64,
}

fn run_span(store: &str) -> HopOutcomePins {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: 320,
        max_session_size: 5,
        mean_bandwidth_mbps: Some(1000.0),
        mean_transcode_slots: Some(30.0),
        seed: 41,
        ..LargeScaleConfig::default()
    });
    let sessions = instance.num_sessions();
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join(format!("hop-golden-{store}"));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = Fleet::with_persistence(
        problem,
        FleetConfig {
            placement: PlacementPolicy::Nearest,
            alg1: Alg1Config {
                mean_countdown_s: 2.0,
                ..Alg1Config::paper(400.0)
            },
            ..FleetConfig::default()
        },
        PersistConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Batch(512),
            stay_batch: 4,
        },
    )
    .expect("persistent fleet");

    let pool = ReoptPool::new(97);
    let mut admitted = 0;
    for i in 0..sessions {
        let s = SessionId::from(i);
        if fleet.admit(s).is_ok() {
            pool.register(&fleet, s, 0.0);
            admitted += 1;
        }
    }
    // Half the span with every agent up, then one agent fails and the
    // rest of the span hops around the hole it left.
    let mut hops = pool.tick_until(&fleet, 30.0);
    fleet.fail_agent(AgentId::new(3));
    hops += pool.tick_until(&fleet, 60.0);

    assert!(fleet.audit().is_empty(), "audit: {:?}", fleet.audit());
    fleet.commit_journal().expect("commit");
    let c = fleet.counters();
    let pins = HopOutcomePins {
        sessions,
        admitted,
        hops,
        migrations: c.migrations.load(Relaxed),
        stays: c.stays.load(Relaxed),
        phi_bits: fleet.objective().to_bits(),
        durable_fnv: fnv1a(&encode_to_vec(&fleet.durable_state())),
    };
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    pins
}

#[test]
fn hop_decisions_are_pinned() {
    let pins = run_span("span");
    // The span only pins the *whole* hop path if hops both moved and
    // stayed, and if the fleet was full enough to refuse somebody.
    assert!(pins.migrations > 0 && pins.stays > 0, "{pins:?}");
    assert!(pins.admitted < pins.sessions, "{pins:?}");
    assert_eq!(pins.hops, pins.migrations + pins.stays, "{pins:?}");
    assert_eq!(
        pins,
        HopOutcomePins {
            sessions: 94,
            admitted: 66,
            hops: 2006,
            migrations: 192,
            stays: 1814,
            phi_bits: 0x40bf_b821_19b8_6cc8,
            durable_fnv: 0xae88_dfd8_66a1_2ede,
        },
        "hop decisions moved (got {:#x?})",
        pins
    );
}
