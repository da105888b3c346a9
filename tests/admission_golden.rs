//! Admission golden pins: the admission search's **decisions** — which
//! sessions are admitted, where every user and task lands, which tier
//! found the placement, which stage refused — are a determinism
//! contract (journals replay them, twins compare them bitwise). These
//! tests pin them to values computed once, so any change to the search
//! order, the ranking arithmetic or the residual derivation shows up as
//! a changed hash rather than as a silently different fleet.
//!
//! Two pins:
//!
//! 1. a fixed-seed, tight-capacity **open-world trace** through a
//!    persistent [`Fleet`] (register → admit → depart, default config:
//!    AgRank over the live agent set, shared engine) that provably hits
//!    all three tiers and all three refusal stages — the FNV-1a of the
//!    journal bytes, of the admitted set, and the final Φ bits;
//! 2. the offline [`admit_all`] on a Fig. 9 instance under `Nearest`,
//!    `AgRank::paper(2)` and `AgRank::live()` — admitted set, final
//!    assignment and Φ bits.

use cloud_vc::prelude::*;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use vc_orchestrator::Fleet;
use vc_persist::snapshot::journal_files;
use vc_persist::FsyncPolicy;
use vc_workloads::{
    large_scale_instance, open_world_trace, LargeScaleConfig, OpenWorldConfig, OpenWorldEvent,
};

/// FNV-1a (64-bit) over a byte stream.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Every journal file of the store, oldest first, hashed as one stream.
fn journal_fnv(dir: &std::path::Path) -> (u64, usize) {
    let mut fnv = Fnv::new();
    let mut len = 0usize;
    for (_, path) in journal_files(dir).expect("store lists its journals") {
        let bytes = std::fs::read(&path).expect("journal readable");
        len += bytes.len();
        fnv.bytes(&bytes);
    }
    (fnv.0, len)
}

/// What one run of the open-world trace leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct TraceOutcome {
    /// `[enumeration, repair, fallback]` admissions.
    tiers: [usize; 3],
    /// `[user fit, task fit, global check]` refusals.
    refusals: [usize; 3],
    journal_fnv: u64,
    journal_len: usize,
    admitted_fnv: u64,
    phi_bits: u64,
    live: usize,
}

/// A 7-agent deployment sized for roughly half its offered load
/// (bandwidth) and far fewer transcoding slots than conferences want,
/// under a trace whose conferences outlive the arrival burst: the fleet
/// fills up, first running out of slots (task-fit refusals), then of
/// last-mile bandwidth (user-fit refusals), with inter-agent traffic
/// (global-check refusals) in between.
fn run_open_world_trace(store: &str) -> TraceOutcome {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: 70,
        max_session_size: 5,
        mean_bandwidth_mbps: Some(600.0),
        mean_transcode_slots: Some(12.0),
        seed: 25,
        ..LargeScaleConfig::default()
    });
    let seed_sessions = instance.num_sessions();
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-persist")
        .join(format!("golden-{store}"));
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = Fleet::with_persistence(
        problem,
        FleetConfig::default(),
        PersistConfig {
            dir: dir.clone(),
            fsync: FsyncPolicy::Batch(512),
            stay_batch: 4,
        },
    )
    .expect("persistent fleet");

    let mut admitted = Fnv::new();
    let mut admit = |s: SessionId| {
        if fleet.admit(s).is_ok() {
            admitted.u32(s.index() as u32);
        }
    };
    for i in 0..seed_sessions {
        admit(SessionId::from(i));
    }
    let agents: Vec<_> = vc_net::sites::ec2_seven()
        .iter()
        .map(|s| s.point())
        .collect();
    let trace = open_world_trace(
        &agents,
        seed_sessions,
        &OpenWorldConfig {
            horizon_s: 1e9,
            mean_interarrival_s: 1.0,
            mean_holding_s: 12.0 * seed_sessions as f64,
            max_arrivals: Some(1200),
            seed: 76,
            ..OpenWorldConfig::default()
        },
    );
    for (_, event) in &trace.events {
        match event {
            OpenWorldEvent::Arrive(def) => {
                let s = fleet.register_session(def).expect("valid definition");
                admit(s);
            }
            OpenWorldEvent::Depart(s) => {
                fleet.depart(*s);
            }
        }
    }
    assert!(fleet.audit().is_empty(), "audit: {:?}", fleet.audit());
    fleet.commit_journal().expect("commit");
    let c = fleet.counters();
    let (journal_fnv, journal_len) = journal_fnv(&dir);
    let outcome = TraceOutcome {
        tiers: [
            c.admitted_enumeration.load(Relaxed),
            c.admitted_repair.load(Relaxed),
            c.admitted_fallback.load(Relaxed),
        ],
        refusals: [
            c.refused_user_fit.load(Relaxed),
            c.refused_task_fit.load(Relaxed),
            c.refused_global.load(Relaxed),
        ],
        journal_fnv,
        journal_len,
        admitted_fnv: admitted.0,
        phi_bits: fleet.objective().to_bits(),
        live: fleet.live_count(),
    };
    drop(fleet);
    let _ = std::fs::remove_dir_all(&dir);
    outcome
}

#[test]
fn open_world_trace_decisions_are_pinned() {
    let outcome = run_open_world_trace("open-world");
    // The trace is only a pin of the *whole* search if every tier and
    // every refusal stage actually ran.
    assert!(
        outcome.tiers.iter().all(|&n| n > 0),
        "a tier never placed anything: {:?}",
        outcome.tiers
    );
    assert!(
        outcome.refusals.iter().all(|&n| n > 0),
        "a refusal stage never fired: {:?}",
        outcome.refusals
    );
    assert_eq!(
        outcome,
        TraceOutcome {
            tiers: [479, 105, 2],
            refusals: [45, 284, 307],
            journal_fnv: 0x889b_7a16_9ea0_563a,
            journal_len: 400_142,
            admitted_fnv: 0x72c5_59d7_a849_9e74,
            phi_bits: 0x40a6_c05a_0d22_c60b,
            live: 22,
        },
        "admission decisions moved (got {:#x?})",
        outcome
    );
}

/// What `admit_all` leaves behind under one policy.
#[derive(Debug, PartialEq, Eq)]
struct OfflineOutcome {
    admitted: usize,
    first_failure: Option<u32>,
    /// `[user fit, task fit, global check]` refusals.
    refusals: [usize; 3],
    admitted_fnv: u64,
    /// Every admitted session's user and task agents, session order.
    placement_fnv: u64,
    phi_bits: u64,
}

fn run_offline(policy: &AdmissionPolicy) -> OfflineOutcome {
    // Fig. 9's mid-transition regime: 200 users on 7 agents, bandwidth
    // and transcoding slots both scarce enough that every policy
    // refuses somebody.
    let instance = large_scale_instance(&LargeScaleConfig {
        mean_bandwidth_mbps: Some(900.0),
        mean_transcode_slots: Some(18.0),
        seed: 50,
        ..LargeScaleConfig::default()
    });
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let out = admit_all(problem.clone(), policy);
    let mut admitted_fnv = Fnv::new();
    let mut placement_fnv = Fnv::new();
    for s in out.state.active_sessions() {
        admitted_fnv.u32(s.index() as u32);
        for &u in problem.instance().session(s).users() {
            placement_fnv.u32(out.state.assignment().agent_of_user(u).index() as u32);
        }
        for &t in problem.tasks().of_session(s) {
            placement_fnv.u32(out.state.assignment().agent_of_task(t).index() as u32);
        }
    }
    assert!(out.state.is_feasible());
    OfflineOutcome {
        admitted: out.admitted,
        first_failure: out.first_failure.map(|s| s.index() as u32),
        refusals: [
            out.diagnostics.user_fit,
            out.diagnostics.task_fit,
            out.diagnostics.global_check,
        ],
        admitted_fnv: admitted_fnv.0,
        placement_fnv: placement_fnv.0,
        phi_bits: out.state.objective().to_bits(),
    }
}

#[test]
fn offline_admit_all_decisions_are_pinned() {
    let nearest = run_offline(&AdmissionPolicy::Nearest);
    let paper2 = run_offline(&AdmissionPolicy::AgRank(AgRankConfig::paper(2)));
    let live = run_offline(&AdmissionPolicy::AgRank(AgRankConfig::live()));
    assert_eq!(
        nearest,
        OfflineOutcome {
            admitted: 48,
            first_failure: Some(39),
            refusals: [5, 3, 2],
            admitted_fnv: 0x087a_bbe7_56f0_cf5d,
            placement_fnv: 0xad1b_ba3c_1a83_62d5,
            phi_bits: 0x40d0_ac23_9e43_ba2d,
        }
    );
    assert_eq!(
        paper2,
        OfflineOutcome {
            admitted: 57,
            first_failure: Some(57),
            refusals: [0, 1, 0],
            admitted_fnv: 0xcdd0_a674_a612_212d,
            placement_fnv: 0x726b_65ac_74fb_9656,
            phi_bits: 0x40cf_845b_f0af_6cd0,
        }
    );
    assert_eq!(
        live,
        OfflineOutcome {
            admitted: 57,
            first_failure: Some(40),
            refusals: [0, 0, 1],
            admitted_fnv: 0x2574_f5fb_835f_dcac,
            placement_fnv: 0xafc2_a3a1_ed33_6850,
            phi_bits: 0x40c0_7803_f035_0e88,
        }
    );
}
