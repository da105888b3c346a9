//! Property tests of the observability exports' mutual consistency:
//! after *any* admit/depart/hop/sample interleaving, the three views a
//! [`FleetTelemetry`] collector offers — the snapshot vector, the
//! per-field [`TimeSeries`], and the JSON export — must describe the
//! same history, row for row and field for field. A companion suite
//! checks that `vc-obs` histogram merging is exactly bucket-wise (a
//! merged histogram reports the same summary as one histogram fed the
//! concatenated stream).

use cloud_vc::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::Arc;
use vc_algo::markov::Alg1Config;
use vc_obs::LatencyHist;
use vc_orchestrator::{Fleet, FleetConfig, FleetSnapshot, FleetTelemetry, PlacementPolicy};

/// A small capacity-limited universe: 3 agents, 5 sessions of 2–3 users.
#[derive(Debug, Clone)]
struct RandomUniverse {
    agents: Vec<(f64, u32)>,
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
            placement: PlacementPolicy::Nearest,
            alg1: Alg1Config::paper(400.0),
            ledger_shards: 2,
            ..FleetConfig::default()
        },
    )
}

/// Drives a random event sequence, sampling telemetry after every
/// event, and returns the collector.
fn drive(fleet: &Fleet, events: &[(u8, u8)]) -> FleetTelemetry {
    let mut rng = StdRng::seed_from_u64(7);
    let mut telemetry = FleetTelemetry::new();
    for (i, &(op, arg)) in events.iter().enumerate() {
        match op % 3 {
            0 => {
                let _ = fleet.admit(SessionId::from(arg as usize % 5));
            }
            1 => {
                fleet.depart(SessionId::from(arg as usize % 5));
            }
            _ => {
                let _ = fleet.hop_session(SessionId::from(arg as usize % 5), &mut rng);
            }
        }
        telemetry.sample(fleet, i as f64 * 0.5);
    }
    telemetry
}

/// One fixed instance of the random universe with a little history:
/// everything admitted that fits, a few hops, one departure.
fn busy_fleet() -> Fleet {
    let fleet = build_fleet(&RandomUniverse {
        agents: vec![(70.0, 4), (55.0, 3), (40.0, 5)],
        sessions: vec![
            vec![(3, 0), (1, 1)],
            vec![(2, 2), (3, 1), (0, 0)],
            vec![(3, 3), (3, 3)],
            vec![(1, 0), (2, 1), (3, 2)],
            vec![(0, 1), (3, 0)],
        ],
        delay_seed: 17,
    });
    let mut rng = StdRng::seed_from_u64(3);
    for i in 0..5usize {
        let _ = fleet.admit(SessionId::from(i));
    }
    for i in 0..20usize {
        let _ = fleet.hop_session(SessionId::from(i % 5), &mut rng);
    }
    fleet.depart(fleet.live_sessions()[0]);
    assert!(fleet.live_count() >= 2, "the fixed universe admits");
    fleet
}

/// Registered-but-never-admitted conferences cost a sample nothing and
/// change nothing in it: after the universe grows tenfold, every gauge
/// but the two universe sizes reads the same, Φ to the bit.
#[test]
fn gauges_follow_the_live_set_not_the_universe() {
    let fleet = busy_fleet();
    let mut telemetry = FleetTelemetry::new();
    telemetry.sample(&fleet, 0.0);
    let (sessions, users) = fleet.universe_size();
    let seed = fleet.problem();
    for i in 0..sessions * 9 {
        let def = vc_model::SessionDef::of_instance(seed.instance(), SessionId::from(i % sessions));
        fleet.register_session(&def).expect("registers");
    }
    let after = telemetry.sample(&fleet, 1.0);
    assert_eq!(
        (after.universe_sessions, after.universe_users),
        (sessions * 10, users * 10)
    );
    for &name in FleetSnapshot::GAUGES {
        if name == "universe_sessions" || name == "universe_users" {
            continue;
        }
        let values = telemetry.series(name).values();
        assert_eq!(
            values[0].to_bits(),
            values[1].to_bits(),
            "gauge {name} moved with the universe"
        );
    }
}

/// `/metrics` prints the declare-once table: every gauge of a sample
/// but the audit's is a `vc_fleet_<name>` series with its `# TYPE` line
/// and the sample's value (six decimals).
#[test]
fn every_scraped_gauge_is_a_metrics_series() {
    let fleet = busy_fleet();
    let mut telemetry = FleetTelemetry::new();
    telemetry.sample(&fleet, 0.0);
    let text = vc_orchestrator::fleet_metrics_text(&fleet);
    for &name in FleetSnapshot::GAUGES {
        let series = format!("vc_fleet_{name} ");
        let value = text.lines().find_map(|l| l.strip_prefix(&series));
        if name == "conservation_violations" {
            assert_eq!(value, None, "a scrape runs no audit");
            continue;
        }
        let value: f64 = value
            .unwrap_or_else(|| panic!("{name} is not on /metrics"))
            .parse()
            .expect("a number");
        let sampled = telemetry.series(name).values()[0];
        assert!(
            (value - sampled).abs() <= 1e-6,
            "{name}: {value} vs {sampled}"
        );
        let kinds = ["gauge", "counter"].map(|kind| format!("# TYPE vc_fleet_{name} {kind}"));
        assert!(text.lines().any(|l| kinds.iter().any(|k| l == k)), "{name}");
    }
}

/// One mirrored telemetry field: name, series values, and the
/// extractor pulling the same figure out of a snapshot.
type FieldView = (&'static str, Vec<f64>, fn(&FleetSnapshot) -> f64);

/// The per-field series views, paired with the snapshot field each one
/// mirrors.
fn field_views(t: &FleetTelemetry) -> Vec<FieldView> {
    vec![
        (
            "universe_sessions",
            t.series("universe_sessions").values(),
            |s| s.universe_sessions as f64,
        ),
        ("universe_users", t.series("universe_users").values(), |s| {
            s.universe_users as f64
        }),
        ("live_sessions", t.series("live_sessions").values(), |s| {
            s.live_sessions as f64
        }),
        ("objective", t.series("objective").values(), |s| s.objective),
        (
            "mean_session_objective",
            t.series("mean_session_objective").values(),
            |s| s.mean_session_objective,
        ),
        ("traffic", t.series("traffic_mbps").values(), |s| {
            s.traffic_mbps
        }),
        ("mean_delay", t.series("mean_delay_ms").values(), |s| {
            s.mean_delay_ms
        }),
        (
            "mean_utilization",
            t.series("mean_utilization").values(),
            |s| s.mean_utilization,
        ),
        (
            "max_utilization",
            t.series("max_utilization").values(),
            |s| s.max_utilization,
        ),
        ("admitted", t.series("admitted").values(), |s| {
            s.admitted as f64
        }),
        ("rejected", t.series("rejected").values(), |s| {
            s.rejected as f64
        }),
        ("departed", t.series("departed").values(), |s| {
            s.departed as f64
        }),
        ("migrations", t.series("migrations").values(), |s| {
            s.migrations as f64
        }),
        (
            "admission_success_rate",
            t.series("admission_success_rate").values(),
            |s| s.admission_success_rate,
        ),
        (
            "admission_attempts",
            t.series("admission_attempts").values(),
            |s| s.admission_attempts as f64,
        ),
        (
            "admitted_enumeration",
            t.series("admitted_enumeration").values(),
            |s| s.admitted_enumeration as f64,
        ),
        (
            "admitted_repair",
            t.series("admitted_repair").values(),
            |s| s.admitted_repair as f64,
        ),
        (
            "admitted_fallback",
            t.series("admitted_fallback").values(),
            |s| s.admitted_fallback as f64,
        ),
        (
            "admission_repair_steps",
            t.series("admission_repair_steps").values(),
            |s| s.admission_repair_steps as f64,
        ),
        (
            "refused_user_fit",
            t.series("refused_user_fit").values(),
            |s| s.refused_user_fit as f64,
        ),
        (
            "refused_task_fit",
            t.series("refused_task_fit").values(),
            |s| s.refused_task_fit as f64,
        ),
        ("refused_global", t.series("refused_global").values(), |s| {
            s.refused_global as f64
        }),
        (
            "conservation_violations",
            t.series("conservation_violations").values(),
            |s| s.conservation_violations as f64,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot vector and every derived series agree in length, time
    /// axis, and value, sample by sample.
    #[test]
    fn series_mirror_snapshots(
        spec in universe_strategy(),
        events in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=30),
    ) {
        let fleet = build_fleet(&spec);
        let telemetry = drive(&fleet, &events);
        let snaps = telemetry.snapshots();
        prop_assert_eq!(snaps.len(), events.len(), "one snapshot per sample");
        for (name, values, field) in field_views(&telemetry) {
            prop_assert_eq!(values.len(), snaps.len(), "series {} length", name);
            for (i, snap) in snaps.iter().enumerate() {
                prop_assert_eq!(
                    values[i], field(snap),
                    "series {} diverges from snapshot {} ", name, i
                );
            }
        }
        // Every series shares the snapshot time axis.
        for (i, snap) in snaps.iter().enumerate() {
            prop_assert_eq!(telemetry.series("objective").points()[i].0, snap.time_s);
            prop_assert_eq!(telemetry.series("admitted").points()[i].0, snap.time_s);
        }
    }

    /// The JSON export is a faithful, parseable rendering of the
    /// snapshot vector: one object per sample, its keys the time axis
    /// then every gauge in [`FleetSnapshot::GAUGES`] order, every value
    /// round-tripping back to the snapshot field.
    #[test]
    fn json_round_trips_snapshots(
        spec in universe_strategy(),
        events in prop::collection::vec((any::<u8>(), any::<u8>()), 1..=30),
    ) {
        let fleet = build_fleet(&spec);
        let telemetry = drive(&fleet, &events);
        let snaps = telemetry.snapshots();
        let json = telemetry.to_json(&fleet);
        let rows: Vec<&str> = json
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"time_s\": "))
            .collect();
        prop_assert_eq!(rows.len(), snaps.len(), "one object per sample");
        for (snap, row) in snaps.iter().zip(rows) {
            let fields: Vec<(&str, &str)> = row
                .trim_matches(|c| c == '{' || c == '}')
                .split(", ")
                .map(|kv| kv.split_once(": ").expect("key: value"))
                .collect();
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.trim_matches('"')).collect();
            prop_assert_eq!(keys[0], "time_s");
            prop_assert_eq!(&keys[1..], FleetSnapshot::GAUGES);
            // Floats are written as {:.17e}, which round-trips f64
            // exactly; counters parse back as integers, flags as bools.
            prop_assert_eq!(fields[0].1.parse::<f64>().unwrap(), snap.time_s);
            let value = |name: &str| fields[keys.iter().position(|&k| k == name).unwrap()].1;
            let count = |name: &str| value(name).parse::<usize>().unwrap();
            prop_assert_eq!(count("universe_sessions"), snap.universe_sessions);
            prop_assert_eq!(count("universe_users"), snap.universe_users);
            prop_assert_eq!(count("live_sessions"), snap.live_sessions);
            prop_assert_eq!(value("objective").parse::<f64>().unwrap(), snap.objective);
            prop_assert_eq!(count("admitted"), snap.admitted);
            prop_assert_eq!(count("rejected"), snap.rejected);
            prop_assert_eq!(count("departed"), snap.departed);
            prop_assert_eq!(count("migrations"), snap.migrations);
            prop_assert_eq!(
                value("admission_success_rate").parse::<f64>().unwrap(),
                snap.admission_success_rate
            );
            prop_assert_eq!(count("conservation_violations"), snap.conservation_violations);
            prop_assert_eq!(count("hop_candidates_folded"), snap.hop_candidates_folded);
            prop_assert_eq!(
                value("durability_degraded").parse::<bool>().unwrap(),
                snap.durability_degraded
            );
        }
    }

    /// Merging histograms is exactly bucket-wise: two histograms fed a
    /// split of a stream, merged, report the same summary as one
    /// histogram fed the whole stream — and merging an empty histogram
    /// is the identity.
    #[test]
    fn histogram_merge_matches_single_stream(
        values in prop::collection::vec(0u64..2_000_000_000, 0..200),
        split in 0usize..200,
    ) {
        let split = split.min(values.len());
        let mut whole = LatencyHist::new();
        let mut left = LatencyHist::new();
        let mut right = LatencyHist::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i < split { left.record(v) } else { right.record(v) }
        }
        let mut merged = left.clone();
        merged.merge(&right);
        prop_assert_eq!(merged.summary(), whole.summary());
        // Merging an empty histogram changes nothing.
        merged.merge(&LatencyHist::new());
        prop_assert_eq!(merged.summary(), whole.summary());
        // And an empty histogram stays all-zero after absorbing one.
        let mut empty = LatencyHist::new();
        empty.merge(&LatencyHist::new());
        prop_assert_eq!(empty.summary(), LatencyHist::new().summary());
        prop_assert_eq!(empty.summary().count, 0);
    }
}
