//! The v6 wire format, pinned byte for byte.
//!
//! Round-trip tests pass a *symmetric* codec mistake (two fields swapped
//! in both directions); these do not. One hand-built value of every
//! journal record variant, a populated snapshot state, one telemetry
//! snapshot and one counter block are each compared with committed
//! bytes and decoded back. A failure here is a format change: either
//! undo it, or bump `JOURNAL_VERSION` / `SNAPSHOT_VERSION` and commit
//! the bytes the failure message prints.
//!
//! The same encodings are then corrupted every way `common::Mutation`
//! knows, and each decoder must answer every mutant with a value or a
//! typed error — no unwind, no allocation a length prefix talked it
//! into.

mod common;

use cloud_vc::persist::{decode_exact, encode_to_vec, CodecError, Decode, Encode};
use cloud_vc::prelude::*;
use std::fmt::{Debug, Write as _};
use vc_algo::admission::AdmissionTier;
use vc_core::TaskId;
use vc_model::DownstreamDemand;
use vc_orchestrator::{
    AgentHold, CounterSnapshot, DurableFleetState, FleetOp, GrowthRecord, ReadmitEntry,
    RefusalReason, SessionHold,
};

/// `bytes` as the literals below are laid out: 32 bytes a line.
fn hex(bytes: &[u8]) -> String {
    let mut out = String::new();
    for line in bytes.chunks(32) {
        out.push_str("\n        ");
        for b in line {
            let _ = write!(out, "{b:02x}");
        }
    }
    out
}

/// The bytes a golden literal spells.
fn unhex(golden: &str) -> Vec<u8> {
    let digits: String = golden.split_ascii_whitespace().collect();
    (0..digits.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&digits[i..i + 2], 16).expect("golden is hex"))
        .collect()
}

/// Compares `value`'s encoding with `golden` (hex, whitespace ignored)
/// and decodes the golden bytes back to `value`. Returns a description
/// of the mismatch instead of panicking, so one run reports every row.
fn check<T: Encode + Decode + PartialEq + Debug>(
    name: &str,
    value: &T,
    golden: &str,
) -> Option<String> {
    let want = unhex(golden);
    let got = encode_to_vec(value);
    if got != want {
        return Some(format!("{name}: encoding changed; it is now{}", hex(&got)));
    }
    match decode_exact::<T>(&want) {
        Ok(back) if back == *value => None,
        other => Some(format!("{name}: golden bytes decoded to {other:?}")),
    }
}

fn assert_all(mismatches: Vec<Option<String>>) {
    let mismatches: Vec<String> = mismatches.into_iter().flatten().collect();
    assert!(mismatches.is_empty(), "\n{}", mismatches.join("\n"));
}

/// A two-user conference: the first user overrides what it demands of
/// user 9 and carries a site index, the second does neither.
fn conference() -> SessionDef {
    SessionDef {
        users: vec![
            UserDef {
                upstream: ReprId::new(3),
                downstream: DownstreamDemand::uniform(ReprId::new(1))
                    .with_override(UserId::new(9), ReprId::new(2)),
                agent_delays_ms: vec![12.5, 40.0, 7.25],
                site_index: Some(17),
            },
            UserDef {
                upstream: ReprId::new(0),
                downstream: DownstreamDemand::uniform(ReprId::new(0)),
                agent_delays_ms: vec![30.0, 8.0, 21.0],
                site_index: None,
            },
        ],
    }
}

fn agent() -> AgentDef {
    AgentDef {
        spec: AgentSpec::builder("osaka")
            .capacity(Capacity::new(120.0, 80.5, 6))
            .speed_factor(1.25)
            .price_per_mbps(0.5)
            .price_per_task(2.0)
            .build(),
        inter_agent_ms: vec![25.0, 45.0, 65.0],
        user_delays_ms: vec![9.0, 10.5],
    }
}

fn timers() -> Vec<TimerEntry> {
    vec![
        TimerEntry {
            session: SessionId::new(2),
            due_us: 1_500_000,
            epoch: 3,
            draws: 41,
            active: true,
        },
        TimerEntry {
            session: SessionId::new(5),
            due_us: 0x0102_0304_0506_0708,
            epoch: 1,
            draws: 0,
            active: false,
        },
    ]
}

fn admit(tier: AdmissionTier) -> FleetOp {
    FleetOp::Admit {
        session: SessionId::new(4),
        users: vec![
            (UserId::new(8), AgentId::new(1)),
            (UserId::new(9), AgentId::new(2)),
        ],
        tasks: vec![(TaskId::new(6), AgentId::new(0))],
        tier,
        repair_steps: 3,
    }
}

fn reject(reason: RefusalReason) -> FleetOp {
    FleetOp::Reject {
        session: SessionId::new(7),
        reason,
    }
}

/// One row per `FleetOp` variant (and per arm of the enums inside it):
/// name, value, v6 bytes.
fn journal_rows() -> Vec<(&'static str, FleetOp, &'static str)> {
    let session = SessionId::new(0x0A0B_0C0D);
    let agent_id = AgentId::new(2);
    vec![
        (
            "Admit/Enumeration",
            admit(AdmissionTier::Enumeration),
            "0004000000020000000800000001000000090000000200000001000000060000\
             0000000000000300000000000000",
        ),
        (
            "Admit/Repair",
            admit(AdmissionTier::Repair),
            "0004000000020000000800000001000000090000000200000001000000060000\
             0000000000010300000000000000",
        ),
        (
            "Admit/RankedFallback",
            admit(AdmissionTier::RankedFallback),
            "0004000000020000000800000001000000090000000200000001000000060000\
             0000000000020300000000000000",
        ),
        (
            "Reject/AlreadyLive",
            reject(RefusalReason::AlreadyLive),
            "010700000000",
        ),
        (
            "Reject/UserFit",
            reject(RefusalReason::UserFit),
            "010700000001",
        ),
        (
            "Reject/TaskFit",
            reject(RefusalReason::TaskFit),
            "010700000002",
        ),
        (
            "Reject/GlobalCheck",
            reject(RefusalReason::GlobalCheck),
            "010700000003",
        ),
        ("Depart", FleetOp::Depart { session }, "020d0c0b0a"),
        (
            "FailAgent",
            FleetOp::FailAgent { agent: agent_id },
            "0302000000",
        ),
        (
            "RestoreAgent",
            FleetOp::RestoreAgent { agent: agent_id },
            "0402000000",
        ),
        (
            "Hop/User",
            FleetOp::Hop {
                session,
                decision: Decision::User(UserId::new(11), AgentId::new(1)),
                old_agent: AgentId::new(0),
            },
            "050d0c0b0a000b0000000100000000000000",
        ),
        (
            "Hop/Task",
            FleetOp::Hop {
                session,
                decision: Decision::Task(TaskId::new(13), AgentId::new(0)),
                old_agent: AgentId::new(2),
            },
            "050d0c0b0a010d0000000000000002000000",
        ),
        (
            "StayBatch",
            FleetOp::StayBatch { count: 64 },
            "074000000000000000",
        ),
        (
            "RegisterSession",
            FleetOp::RegisterSession {
                session: SessionId::new(6),
                def: conference(),
            },
            "0806000000020000000300000001000000010000000900000002000000030000\
             00000000000000294000000000000044400000000000001d4001110000000000\
             0000000000000000000000000000030000000000000000003e40000000000000\
             2040000000000000354000",
        ),
        (
            "Timers",
            FleetOp::Timers { entries: timers() },
            "09020000000200000060e3160000000000030000000000000029000000000000\
             00010500000008070605040302010100000000000000000000000000000000",
        ),
        (
            "ReadmitEnqueue",
            FleetOp::ReadmitEnqueue {
                session,
                epoch: 2,
                attempt: 5,
                due_us: 2_750_000,
            },
            "0a0d0c0b0a02000000000000000500000030f6290000000000",
        ),
        (
            "ReadmitDrop",
            FleetOp::ReadmitDrop { session },
            "0b0d0c0b0a",
        ),
        (
            "RegisterAgent",
            FleetOp::RegisterAgent {
                agent: AgentId::new(3),
                def: agent(),
                region: "ap-northeast".to_string(),
            },
            "0c03000000050000006f73616b610000000000005e4000000000002054400600\
             0000000000000000f43f000000000000e03f0000000000000040030000000000\
             0000000039400000000000804640000000000040504002000000000000000000\
             224000000000000025400c00000061702d6e6f72746865617374",
        ),
        (
            "DrainAgent",
            FleetOp::DrainAgent { agent: agent_id },
            "0d02000000",
        ),
    ]
}

#[test]
fn every_journal_record_variant_encodes_to_its_v6_bytes() {
    let rows = journal_rows();
    // Every variant is there, told apart by its leading tag byte: 13
    // distinct tags, none of them the retired 6.
    let mut tags: Vec<u8> = rows.iter().map(|(_, op, _)| encode_to_vec(op)[0]).collect();
    tags.dedup();
    assert_eq!(tags, [0, 1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13]);
    assert_all(
        rows.iter()
            .map(|(name, op, golden)| check(name, op, golden))
            .collect(),
    );
}

fn counters() -> CounterSnapshot {
    CounterSnapshot {
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
        readmit_dropped: 0x1122_3344_5566_7788,
    }
}

const COUNTERS_V6: &str = "\
    0100000000000000020000000000000003000000000000000400000000000000\
    0500000000000000060000000000000007000000000000000800000000000000\
    09000000000000000a000000000000000b000000000000000c00000000000000\
    0d000000000000000e000000000000000f000000000000001000000000000000\
    11000000000000008877665544332211";

#[test]
fn counter_snapshot_encodes_to_its_v6_bytes() {
    assert_all(vec![check("CounterSnapshot", &counters(), COUNTERS_V6)]);
}

fn durable_state() -> DurableFleetState {
    DurableFleetState {
        growth: vec![
            GrowthRecord::Session(conference()),
            GrowthRecord::Agent(agent(), "ap-northeast".to_string()),
        ],
        user_agents: vec![AgentId::new(1), AgentId::new(0), AgentId::new(3)],
        task_agents: vec![AgentId::new(2)],
        active: vec![true, false],
        available: vec![true, false, true, true],
        drained: vec![false, false, true, false],
        regions: vec!["default".to_string(), "ap-northeast".to_string()],
        agent_regions: vec![0, 0, 0, 1],
        holdings: vec![(
            SessionId::new(0),
            SessionHold {
                holds: vec![
                    AgentHold {
                        agent: AgentId::new(1),
                        download_mbps: 4.5,
                        upload_mbps: 1.75,
                        transcode_units: 0,
                    },
                    AgentHold {
                        agent: AgentId::new(3),
                        download_mbps: 0.0,
                        upload_mbps: 2.5,
                        transcode_units: 2,
                    },
                ],
            },
        )],
        counters: counters(),
        timers: timers(),
        readmit: vec![ReadmitEntry {
            session: SessionId::new(1),
            epoch: 2,
            attempt: 1,
            due_us: 900_000,
        }],
        readmit_epochs: vec![(SessionId::new(0), 1), (SessionId::new(1), 2)],
    }
}

const DURABLE_STATE_V6: &str = "\
    0200000000020000000300000001000000010000000900000002000000030000\
    00000000000000294000000000000044400000000000001d4001110000000000\
    0000000000000000000000000000030000000000000000003e40000000000000\
    204000000000000035400001050000006f73616b610000000000005e40000000\
    000020544006000000000000000000f43f000000000000e03f00000000000000\
    4003000000000000000000394000000000008046400000000000405040020000\
    00000000000000224000000000000025400c00000061702d6e6f727468656173\
    7403000000010000000000000003000000010000000200000002000000010004\
    000000010001010400000000000100020000000700000064656661756c740c00\
    000061702d6e6f72746865617374040000000000000000000000000000000100\
    0000010000000000000002000000010000000000000000001240000000000000\
    fc3f000000000300000000000000000000000000000000000440020000000100\
    0000000000000200000000000000030000000000000004000000000000000500\
    0000000000000600000000000000070000000000000008000000000000000900\
    0000000000000a000000000000000b000000000000000c000000000000000d00\
    0000000000000e000000000000000f0000000000000010000000000000001100\
    0000000000008877665544332211020000000200000060e31600000000000300\
    0000000000002900000000000000010500000008070605040302010100000000\
    0000000000000000000000000100000001000000020000000000000001000000\
    a0bb0d0000000000020000000000000001000000000000000100000002000000\
    00000000";

#[test]
fn durable_fleet_state_encodes_to_its_v6_bytes() {
    assert_all(vec![check(
        "DurableFleetState",
        &durable_state(),
        DURABLE_STATE_V6,
    )]);
}

fn fleet_snapshot() -> FleetSnapshot {
    FleetSnapshot {
        time_s: 12.5,
        universe_sessions: 1,
        universe_users: 2,
        live_sessions: 3,
        objective: -4.25,
        mean_session_objective: 5.5,
        traffic_mbps: 6.75,
        mean_delay_ms: 7.125,
        mean_utilization: 0.5,
        max_utilization: 1.5,
        admitted: 10,
        rejected: 11,
        departed: 12,
        migrations: 13,
        admission_success_rate: 0.25,
        admission_attempts: 15,
        admitted_enumeration: 16,
        admitted_repair: 17,
        admitted_fallback: 18,
        admission_repair_steps: 19,
        refused_user_fit: 20,
        refused_task_fit: 21,
        refused_global: 22,
        conservation_violations: 23,
        overshoot_fraction: 0.125,
        displaced: 25,
        readmit_queued: 26,
        durability_degraded: true,
        hop_candidates_bounded: 28,
        hop_candidates_folded: 0x0102_0304_0506_0708,
    }
}

const FLEET_SNAPSHOT_V6: &str = "\
    0000000000002940010000000000000002000000000000000300000000000000\
    00000000000011c000000000000016400000000000001b400000000000801c40\
    000000000000e03f000000000000f83f0a000000000000000b00000000000000\
    0c000000000000000d00000000000000000000000000d03f0f00000000000000\
    1000000000000000110000000000000012000000000000001300000000000000\
    1400000000000000150000000000000016000000000000001700000000000000\
    000000000000c03f19000000000000001a00000000000000011c000000000000\
    000807060504030201";

#[test]
fn fleet_snapshot_encodes_to_its_v6_bytes() {
    assert_all(vec![check(
        "FleetSnapshot",
        &fleet_snapshot(),
        FLEET_SNAPSHOT_V6,
    )]);
}

/// Every golden encoding, mutated: bit flips, truncations and inflated
/// `u32`s. The decoders are total — each mutant decodes or is refused
/// with a `CodecError` — and allocate in proportion to their input.
#[test]
fn no_mutation_of_a_golden_encoding_unwinds_or_over_allocates() {
    fn swept<T: Decode>(name: &str, golden: &str) -> common::Swept {
        common::sweep(name, &unhex(golden), |b| decode_exact::<T>(b).map(drop))
    }
    // Both outcomes occur in every sweep (a flipped payload bit is still
    // a value, a truncation never is), and wherever a record holds a
    // sequence its length prefix was caught by `Vec::decode`'s guard.
    // The two flat blocks have no prefix to inflate.
    let both = |swept: common::Swept| {
        assert!(swept.decoded > 0 && swept.refused > 0, "{swept:?}");
        swept.oversize
    };
    let journal: usize = (journal_rows().iter())
        .map(|(name, _, golden)| both(swept::<FleetOp>(name, golden)))
        .sum();
    let state = both(swept::<DurableFleetState>(
        "DurableFleetState",
        DURABLE_STATE_V6,
    ));
    let counters = both(swept::<CounterSnapshot>("CounterSnapshot", COUNTERS_V6));
    let gauges = both(swept::<FleetSnapshot>("FleetSnapshot", FLEET_SNAPSHOT_V6));
    assert!(journal > 0 && state > 0);
    assert_eq!((counters, gauges), (0, 0));
    // The guard itself, once, by name: the state opens with its growth
    // log's length.
    let mut inflated = unhex(DURABLE_STATE_V6);
    inflated[..4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        decode_exact::<DurableFleetState>(&inflated).unwrap_err(),
        CodecError::Oversize {
            what: "Vec",
            len: u64::from(u32::MAX)
        }
    );
}
