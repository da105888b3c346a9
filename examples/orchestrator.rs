//! The online control plane end to end: a 60-virtual-second fleet of
//! 100+ concurrent sessions under churn — Poisson arrivals, exponential
//! departures, one agent failure mid-run — admitted against the sharded
//! capacity ledger and continuously re-optimized by the per-session
//! WAIT/HOP workers.
//!
//! Two runs over the *same* trace:
//!
//! * baseline — nearest-agent admission, no re-optimization (the
//!   Airlift/vSkyConf shape);
//! * orchestrated — AgRank bootstrap + background Alg. 1 workers.
//!
//! ```text
//! cargo run --release --example orchestrator
//! ```
//!
//! With `--crash-at <T> [--resume]` the example instead demonstrates
//! the `vc-persist` durability path: it runs the orchestrated fleet
//! with an always-fsync write-ahead journal, kills it dead at virtual
//! time `T` (no shutdown, no checkpoint), recovers via
//! `Fleet::recover`, proves the recovered fleet is *identical* (live
//! set, ledger holdings, counters, objective), and — with `--resume` —
//! finishes the remaining trace on the recovered fleet:
//!
//! ```text
//! cargo run --release --example orchestrator -- --crash-at 30 --resume
//! ```
//!
//! With `--serve <addr>` (e.g. `--serve 127.0.0.1:0`) the orchestrated
//! run additionally exposes the live scrape endpoint — `/metrics`
//! (Prometheus text), `/trace` (Perfetto JSON), `/postmortem` — and
//! self-probes all three routes mid-run, writing the lifecycle trace
//! to `trace_perfetto.json` (archived by CI; load it in
//! <https://ui.perfetto.dev>).

use cloud_vc::prelude::*;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_model::AgentId;
use vc_obs::{http_get, ObsServer};
use vc_orchestrator::{fleet_metrics_text, sched_metrics_text, FleetReport, ReoptPool};

const HORIZON_S: f64 = 60.0;

fn main() {
    let mut crash_at: Option<f64> = None;
    let mut resume = false;
    let mut serve: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--crash-at" => {
                crash_at = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--crash-at needs a virtual time in seconds"),
                );
            }
            "--resume" => resume = true,
            "--serve" => {
                serve = Some(
                    args.next()
                        .expect("--serve needs a bind address, e.g. 127.0.0.1:9184"),
                );
            }
            other => panic!(
                "unknown argument '{other}' (try --crash-at <T> [--resume] or --serve <addr>)"
            ),
        }
    }
    if let Some(t) = crash_at {
        crash_demo(t, resume);
        return;
    }
    comparison_demo(serve.as_deref());
}

fn comparison_demo(serve: Option<&str>) {
    // ~135 potential sessions over the 7 EC2 agents, with real capacity
    // limits so the ledger has something to arbitrate.
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: 400,
        max_session_size: 4,
        mean_bandwidth_mbps: Some(2_500.0),
        mean_transcode_slots: Some(150.0),
        seed: 42,
        ..LargeScaleConfig::default()
    });
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let num_sessions = problem.instance().num_sessions();

    let trace = dynamic_trace(
        num_sessions,
        &DynamicTraceConfig {
            horizon_s: HORIZON_S,
            warm_sessions: 110,
            mean_interarrival_s: Some(2.0),
            mean_holding_s: 400.0,
            failures: vec![(30.0, AgentId::new(2))],
            restores: vec![],
            seed: 7,
        },
    );
    println!(
        "universe: {} agents, {} potential sessions; trace: {} events ({} arrivals, {} departures, {} failures)\n",
        problem.instance().num_agents(),
        num_sessions,
        trace.len(),
        trace.count(|e| matches!(e, FleetEvent::Arrive(_))),
        trace.count(|e| matches!(e, FleetEvent::Depart(_))),
        trace.count(|e| matches!(e, FleetEvent::FailAgent(_))),
    );

    let run = |label: &str, placement: PlacementPolicy, reoptimize: bool| -> FleetReport {
        let mut orchestrator = cloud_vc::orchestrator::Orchestrator::new(
            problem.clone(),
            OrchestratorConfig {
                fleet: FleetConfig {
                    placement,
                    alg1: Alg1Config {
                        mean_countdown_s: 5.0,
                        ..Alg1Config::paper(400.0)
                    },
                    ..FleetConfig::default()
                },
                sample_period_s: 1.0,
                seed: 2015,
                reoptimize,
            },
        );
        // The scrape endpoint serves the *orchestrated* fleet (the one
        // that records), live for the duration of the run.
        let server = if reoptimize {
            serve.map(|addr| {
                let fleet = Arc::clone(orchestrator.fleet());
                let pool = Arc::clone(orchestrator.pool());
                let plane = Arc::clone(fleet.obs());
                let server = ObsServer::bind(
                    addr,
                    plane,
                    Some(Box::new(move || {
                        let mut text = fleet_metrics_text(&fleet);
                        text.push_str(&sched_metrics_text(&pool));
                        text
                    })),
                )
                .expect("bind scrape endpoint");
                println!(
                    "  serving /metrics /trace /postmortem on http://{}\n",
                    server.local_addr()
                );
                server
            })
        } else {
            None
        };
        let report = orchestrator.run_trace(&trace, HORIZON_S);
        // Self-probe while the fleet is still live: every route must
        // answer, and /metrics must carry both the plane's and the
        // fleet's series.
        if let Some(server) = &server {
            let addr = server.local_addr();
            let (status, metrics) = http_get(addr, "/metrics").expect("GET /metrics");
            assert_eq!(status, 200);
            assert!(metrics.contains("vc_obs_ops_recorded"));
            assert!(metrics.contains("vc_fleet_live_sessions"));
            assert!(metrics.contains("# TYPE vc_sched_depth gauge"));
            assert!(metrics.contains("vc_sched_depth{shard=\"0\"}"));
            assert!(metrics.contains("vc_region_agents{region=\"default\"}"));
            assert!(metrics.contains("vc_region_residual_transcode_units{region=\"default\"}"));
            let (status, trace_json) = http_get(addr, "/trace").expect("GET /trace");
            assert_eq!(status, 200);
            assert!(trace_json.contains("\"traceEvents\""));
            let (status, _) = http_get(addr, "/postmortem").expect("GET /postmortem");
            assert_eq!(status, 200);
            match std::fs::write("trace_perfetto.json", &trace_json) {
                Ok(()) => println!("  scrape endpoint OK; wrote trace_perfetto.json\n"),
                Err(e) => eprintln!("  could not write trace_perfetto.json: {e}\n"),
            }
        }
        let s = &report.final_snapshot;
        println!("== {label} ==");
        println!("  live sessions            {:>10}", s.live_sessions);
        println!(
            "  admitted / rejected      {:>6} / {:<6}",
            s.admitted, s.rejected
        );
        println!(
            "  admission success rate   {:>10.3}",
            s.admission_success_rate
        );
        println!(
            "  migrations (hops run)    {:>6} ({})",
            s.migrations, report.hops_executed
        );
        println!(
            "  mean objective / session {:>10.2}",
            s.mean_session_objective
        );
        println!("  inter-agent traffic Mbps {:>10.1}", s.traffic_mbps);
        println!("  mean delay ms            {:>10.1}", s.mean_delay_ms);
        println!(
            "  agent utilization        {:>9.1}% mean, {:.1}% max",
            100.0 * s.mean_utilization,
            100.0 * s.max_utilization
        );
        println!(
            "  conservation violations  {:>10}\n",
            s.conservation_violations
        );
        if reoptimize {
            // Snapshot stream + per-site latency percentiles + alloc
            // counters, for offline analysis (archived by CI).
            match report
                .telemetry
                .write_json("telemetry_obs.json", orchestrator.fleet())
            {
                Ok(()) => println!("  wrote telemetry_obs.json\n"),
                Err(e) => eprintln!("  could not write telemetry_obs.json: {e}\n"),
            }
        }
        report
    };

    let baseline = run(
        "nearest admission, no re-optimization",
        PlacementPolicy::Nearest,
        false,
    );
    let orchestrated = run(
        "AgRank admission + background re-optimization",
        PlacementPolicy::AgRank(AgRankConfig::paper(3)),
        true,
    );

    let b = &baseline.final_snapshot;
    let o = &orchestrated.final_snapshot;
    let peak_live = orchestrated
        .telemetry
        .series("live_sessions")
        .values()
        .into_iter()
        .fold(0.0f64, f64::max) as usize;
    println!("== verdict ==");
    println!("  peak concurrent sessions  {peak_live}");
    println!(
        "  mean objective / session  {:.2} → {:.2} ({:+.1}%)",
        b.mean_session_objective,
        o.mean_session_objective,
        100.0 * (o.mean_session_objective / b.mean_session_objective - 1.0)
    );
    println!(
        "  conservation violations   {} + {}",
        baseline.telemetry.total_conservation_violations(),
        orchestrated.telemetry.total_conservation_violations()
    );

    assert!(
        peak_live >= 100,
        "expected ≥100 concurrent sessions, saw {peak_live}"
    );
    assert!(
        o.mean_session_objective < b.mean_session_objective,
        "orchestrated fleet did not beat nearest admission"
    );
    assert_eq!(baseline.telemetry.total_conservation_violations(), 0);
    assert_eq!(orchestrated.telemetry.total_conservation_violations(), 0);
    println!(
        "\nOK: ≥100 concurrent sessions, churn survived, objective improved, ledger conserved."
    );
}

/// Kill the fleet mid-run, recover it from the durable store, prove
/// the recovered control plane is identical — including the worker
/// pool's pending WAIT countdowns, which are journaled at the
/// durability boundary and restored so the first post-recovery hop
/// fires at exactly the time the uncrashed run's would — and
/// optionally finish the trace on it, bit-for-bit against an
/// uncrashed control run.
fn crash_demo(crash_at: f64, resume: bool) {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: 400,
        max_session_size: 4,
        mean_bandwidth_mbps: Some(2_500.0),
        mean_transcode_slots: Some(150.0),
        seed: 42,
        ..LargeScaleConfig::default()
    });
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let trace = dynamic_trace(
        problem.instance().num_sessions(),
        &DynamicTraceConfig {
            horizon_s: HORIZON_S,
            warm_sessions: 110,
            mean_interarrival_s: Some(2.0),
            mean_holding_s: 400.0,
            failures: vec![(crash_at * 0.66, AgentId::new(2))],
            restores: vec![],
            seed: 7,
        },
    );
    let fleet_config = || FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(3)),
        alg1: Alg1Config {
            mean_countdown_s: 5.0,
            ..Alg1Config::paper(400.0)
        },
        ..FleetConfig::default()
    };
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/persist-demo");
    let persist = || PersistConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        // Stays are batched 64-to-a-record; `durable_state()` below is a
        // durability boundary, so the recovery comparison stays bitwise.
        stay_batch: 64,
    };

    let apply = |fleet: &Fleet, pool: &ReoptPool, t: f64, event: FleetEvent| match event {
        FleetEvent::Arrive(s) => {
            if fleet.admit(s).is_ok() {
                pool.register(fleet, s, t);
            }
        }
        FleetEvent::Depart(s) => {
            fleet.depart(s);
            pool.deregister(s);
        }
        FleetEvent::FailAgent(a) => {
            fleet.fail_agent(a);
        }
        FleetEvent::RestoreAgent(a) => {
            fleet.restore_agent(a);
        }
    };

    println!(
        "== durability demo: journaled fleet, killed at t = {crash_at} s ==\n   store: {}",
        dir.display()
    );
    // Twin runs over the same trace: `fleet` journals and dies at the
    // cut; `control` is the uncrashed reference the recovered fleet is
    // compared against — timers, counters, placements, Φ, all bitwise.
    const POOL_SEED: u64 = 2015;
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist())
        .expect("persistent fleet");
    let pool = ReoptPool::new(POOL_SEED);
    let control = Fleet::new(problem.clone(), fleet_config());
    let control_pool = ReoptPool::new(POOL_SEED);
    for &(t, event) in &trace.events {
        if t > crash_at {
            break;
        }
        pool.tick_until(&fleet, t);
        apply(&fleet, &pool, t, event);
        control_pool.tick_until(&control, t);
        apply(&control, &control_pool, t, event);
    }
    pool.tick_until(&fleet, crash_at);
    control_pool.tick_until(&control, crash_at);
    // Durability boundary at the cut: journal the pending WAIT
    // countdowns so recovery can resume them.
    fleet.journal_timers(&pool);
    let before = fleet.durable_state();
    let objective_before = fleet.objective();
    let live_before = fleet.live_count();
    assert!(fleet.audit().is_empty(), "pre-crash fleet failed audit");
    println!(
        "   pre-crash:  {live_before} live sessions, objective {objective_before:.3}, \
         {} pending timers journaled, audit clean",
        pool.timer_state().len()
    );
    drop(fleet); // kill -9: no shutdown, no checkpoint

    let (recovered, report) =
        Fleet::recover(persist(), problem.clone(), fleet_config()).expect("recovery");
    println!(
        "   recovered:  snapshot seq {}, {} journal records replayed{}",
        report.snapshot_seq,
        report.replayed,
        if report.torn_tail {
            ", torn tail discarded"
        } else {
            ""
        },
    );
    let after = recovered.durable_state();
    let objective_after = recovered.objective();
    println!(
        "   post-crash: {} live sessions, objective {objective_after:.3}, audit {}",
        recovered.live_count(),
        if recovered.audit().is_empty() {
            "clean"
        } else {
            "DIRTY"
        },
    );
    assert_eq!(after, before, "recovered control-plane state differs");
    assert_eq!(
        objective_after.to_bits(),
        objective_before.to_bits(),
        "recovered objective differs"
    );
    assert!(recovered.audit().is_empty(), "recovered fleet failed audit");

    // Resume the WAIT timers from the journal and prove the schedule
    // matches the uncrashed run exactly: same pending countdowns, and
    // in particular the same first post-recovery hop time.
    let restored_pool = ReoptPool::new(POOL_SEED);
    restored_pool.restore_timers(&recovered, &report.timers);
    // Cover any session admitted after the last Timers record (none
    // here — the demo journals timers right at the cut — but this is
    // the production recovery pattern).
    let late = restored_pool.ensure_registered(&recovered, crash_at);
    assert!(late.is_empty(), "demo cut journaled every timer");
    assert_eq!(
        restored_pool.timer_state(),
        control_pool.timer_state(),
        "restored WAIT timers differ from the uncrashed run"
    );
    let (due_us, s) = restored_pool.next_due().expect("live fleet has timers");
    assert_eq!(
        restored_pool.next_due(),
        control_pool.next_due(),
        "first post-recovery hop differs from the uncrashed run"
    );
    println!(
        "   identical:  live set, holdings, counters, objective (bitwise); \
         next hop {s} at t = {:.3} s matches the uncrashed run\n",
        due_us as f64 / 1e6
    );

    if resume {
        for &(t, event) in &trace.events {
            if t <= crash_at {
                continue;
            }
            restored_pool.tick_until(&recovered, t);
            apply(&recovered, &restored_pool, t, event);
            control_pool.tick_until(&control, t);
            apply(&control, &control_pool, t, event);
        }
        restored_pool.tick_until(&recovered, HORIZON_S);
        control_pool.tick_until(&control, HORIZON_S);
        recovered.commit_journal().expect("final commit");
        // The whole post-crash trajectory must be bitwise identical to
        // the run that never crashed: placements, counters, Φ, and the
        // next WAIT countdowns.
        recovered.record_timers(&restored_pool);
        control.record_timers(&control_pool);
        assert_eq!(
            recovered.durable_state(),
            control.durable_state(),
            "resumed trajectory diverged from the uncrashed run"
        );
        assert_eq!(
            recovered.objective().to_bits(),
            control.objective().to_bits(),
            "resumed objective diverged from the uncrashed run"
        );
        let c = recovered.counters();
        use std::sync::atomic::Ordering;
        println!("== resumed to t = {HORIZON_S} s on the recovered fleet ==");
        println!("   live sessions            {:>8}", recovered.live_count());
        println!(
            "   admitted / departed      {:>5} / {:<5}",
            c.admitted.load(Ordering::Relaxed),
            c.departed.load(Ordering::Relaxed)
        );
        println!(
            "   migrations               {:>8}",
            c.migrations.load(Ordering::Relaxed)
        );
        println!(
            "   mean objective / session {:>8.2}",
            recovered.mean_session_objective()
        );
        assert!(recovered.audit().is_empty(), "resumed fleet failed audit");
        println!(
            "\nOK: crash at t = {crash_at} s survived; resumed trajectory bitwise-identical \
             to the uncrashed run (placements, counters, objective, WAIT timers)."
        );
    } else {
        println!("OK: crash at t = {crash_at} s survived; recovery is exact.");
    }
}
