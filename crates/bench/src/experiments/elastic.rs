//! Elastic-capacity experiment (extension): online agent growth,
//! region drain, and crash/recovery parity over a journaled fleet.
//! Emits `BENCH_elastic.json`.
//!
//! A persistent fleet starts from the 7-agent `large_scale_instance`
//! seed with every seed session admitted, then **doubles its agent
//! pool per tier** online (`Fleet::register_agent` into alternating
//! `east`/`west` regions) while a depart/re-admit churn keeps the
//! ledger hot between tiers. Per tier the run records registration
//! throughput and latency percentiles; across tiers it derives the
//! headline boolean:
//!
//! * `register_cost_sublinear` — the median per-register cost of the
//!   last tier must stay under half of what a pool-proportional
//!   (linear) scaling of the first tier's cost would predict. This is
//!   what the ledger's append-only extension and the FREEZE problem's
//!   amortized copy-on-extend buy: registering into a 16× pool must
//!   not cost 16× per agent.
//! * `drain_completed` — every `east` agent drains to zero reserved
//!   capacity, stays refused by `restore_agent`, and the fleet audits
//!   clean afterwards.
//! * `parity` — after a post-drain crash, `Fleet::recover` rebuilds a
//!   durable state bitwise equal to the pre-crash capture (the v6
//!   journal replays the grown agent universe, regions and drains).

use std::sync::Arc;
use std::time::{Duration, Instant};
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_core::UapProblem;
use vc_model::{AgentDef, AgentId, AgentSpec, Capacity, SessionId};
use vc_obs::LatencyHist;
use vc_orchestrator::persist::PersistConfig;
use vc_orchestrator::{Fleet, FleetConfig, PlacementPolicy};
use vc_persist::journal::FsyncPolicy;
use vc_workloads::{large_scale_instance, LargeScaleConfig};

/// One growth-tier measurement (the pool doubles per tier).
#[derive(Debug, Clone)]
pub struct ElasticTier {
    /// Agent-pool size at the end of the tier.
    pub agents: usize,
    /// Mean pool size the tier's registrations ran against.
    pub mean_pool: f64,
    /// Agents registered in this tier.
    pub registered: usize,
    /// Registrations per second.
    pub registers_per_s: f64,
    /// Mean per-register latency (µs).
    pub mean_register_us: f64,
    /// Median per-register latency (µs).
    pub register_p50_us: f64,
    /// p99 per-register latency (µs).
    pub register_p99_us: f64,
    /// Live sessions after the tier's churn.
    pub live_sessions: usize,
    /// Conservation-audit discrepancies at the tier boundary (must
    /// be 0).
    pub conservation_violations: usize,
}

/// The whole run.
#[derive(Debug, Clone)]
pub struct ElasticResult {
    /// Sessions in the closed-world seed (all admitted up front).
    pub seed_sessions: usize,
    /// Users in the seed.
    pub seed_users: usize,
    /// Agents in the seed (the `large_scale_instance` seven).
    pub seed_agents: usize,
    /// Agents after the last tier.
    pub final_agents: usize,
    /// Mean-pool ratio between the last and first tiers.
    pub pool_growth: f64,
    /// Whole-run registration throughput (every register over the sum
    /// of all per-tier register time).
    pub registers_per_s: f64,
    /// Last-tier median register cost over first-tier median register
    /// cost (medians, not means: a single scheduler blip in the
    /// 7-register first tier must not decide the boolean below).
    pub register_cost_ratio: f64,
    /// `register_cost_ratio <= pool_growth / 2` — per-register cost
    /// grows clearly slower than the pool.
    pub register_cost_sublinear: bool,
    /// Agents drained (every `east` registration).
    pub drained_agents: usize,
    /// User/task moves the drains forced.
    pub drain_moves: usize,
    /// Every drained agent at zero reserved capacity, `restore_agent`
    /// refused, audit clean.
    pub drain_completed: bool,
    /// `Fleet::recover` wall time (ms).
    pub recover_ms: f64,
    /// Journal records replayed by the recovery.
    pub replayed: usize,
    /// Recovered durable state bitwise equal to the pre-crash capture.
    pub parity: bool,
    /// Total audit discrepancies across every checkpoint of the run.
    pub conservation_violations: usize,
    /// One entry per growth tier.
    pub tiers: Vec<ElasticTier>,
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/persist-bench")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(3)),
        alg1: Alg1Config::paper(400.0),
        ledger_shards: 8,
        ..FleetConfig::default()
    }
}

fn persist_config(dir: &std::path::Path) -> PersistConfig {
    PersistConfig {
        dir: dir.to_path_buf(),
        // Buffered appends: the experiment measures registration cost,
        // not fsync latency (the persist experiment measures that).
        fsync: FsyncPolicy::Batch(1024),
        stay_batch: 64,
    }
}

/// A registrable definition against a pool of `num_agents` agents and
/// `num_users` users, deterministically varied by `(tier, i)`.
fn late_def(tier: usize, i: usize, num_agents: usize, num_users: usize) -> AgentDef {
    let bw = 150.0 + (i % 5) as f64 * 25.0;
    AgentDef {
        spec: AgentSpec::builder(format!("el-{tier}-{i}"))
            .capacity(Capacity::new(bw, bw, 4 + (i % 4) as u32))
            .build(),
        inter_agent_ms: (0..num_agents)
            .map(|k| 20.0 + ((k * 7 + i * 3 + tier * 11) % 40) as f64)
            .collect(),
        user_delays_ms: (0..num_users)
            .map(|u| 6.0 + ((u * 5 + i) % 29) as f64)
            .collect(),
    }
}

/// Runs the experiment: the seed's 7-agent pool doubles `tiers` times
/// online (7 → 7·2^tiers agents), then region `east` drains and the
/// fleet crash-recovers.
pub fn run(seed_users: usize, tiers: usize, seed: u64) -> ElasticResult {
    let instance = large_scale_instance(&LargeScaleConfig {
        num_users: seed_users,
        max_session_size: 5,
        // Generous but finite seed capacity: growth and drain, not
        // admission feasibility, are what the experiment measures.
        mean_bandwidth_mbps: Some(10_000.0),
        mean_transcode_slots: Some(500.0),
        seed,
        ..LargeScaleConfig::default()
    });
    let seed_sessions = instance.num_sessions();
    let seed_user_count = instance.num_users();
    let seed_agents = instance.num_agents();
    let problem = Arc::new(UapProblem::new(
        instance,
        vc_cost::CostModel::paper_default(),
    ));
    // Warm the registration path on a throwaway fleet so the first
    // timed tier (only 7 registers) isn't paying one-time lazy-init
    // costs — check mode runs this after memory-heavy experiments.
    {
        let warm = Fleet::new(problem.clone(), fleet_config());
        for i in 0..8 {
            let def = late_def(999, i, warm.num_agents(), seed_user_count);
            warm.register_agent(&def, "warmup")
                .expect("warmup register");
        }
    }
    let store = scratch_dir(&format!("elastic-{seed_users}-{tiers}"));
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist_config(&store))
        .expect("persistent fleet");
    for i in 0..seed_sessions {
        fleet
            .admit(SessionId::from(i))
            .expect("seed capacities are generous");
    }

    let mut conservation_violations = 0usize;
    let mut east: Vec<AgentId> = Vec::new();
    let mut tier_rows = Vec::new();
    let mut total_register_time = Duration::ZERO;
    let mut total_registered = 0usize;
    for t in 0..tiers {
        let pool_start = fleet.num_agents();
        let batch = pool_start; // doubling ladder
        let mut tier_time = Duration::ZERO;
        let mut hist = LatencyHist::new();
        for i in 0..batch {
            let def = late_def(t, i, fleet.num_agents(), seed_user_count);
            let region = if (total_registered + i).is_multiple_of(2) {
                "east"
            } else {
                "west"
            };
            let t0 = Instant::now();
            let a = fleet
                .register_agent(&def, region)
                .expect("well-formed definition");
            let dt = t0.elapsed();
            tier_time += dt;
            hist.record(dt.as_nanos() as u64);
            if region == "east" {
                east.push(a);
            }
        }
        total_register_time += tier_time;
        total_registered += batch;
        // Depart/re-admit churn: the next tier registers against a
        // ledger whose holds were re-placed over the grown pool.
        for k in 0..8.min(seed_sessions) {
            let s = SessionId::from((t * 8 + k) % seed_sessions);
            fleet.depart(s);
            fleet.admit(s).expect("re-admit against a bigger pool");
        }
        let violations = fleet.audit().len();
        conservation_violations += violations;
        let n = batch as f64;
        let summary = hist.summary();
        tier_rows.push(ElasticTier {
            agents: fleet.num_agents(),
            mean_pool: (pool_start + fleet.num_agents()) as f64 / 2.0,
            registered: batch,
            registers_per_s: n / tier_time.as_secs_f64().max(1e-12),
            mean_register_us: tier_time.as_secs_f64() * 1e6 / n,
            register_p50_us: summary.p50_ns as f64 / 1e3,
            register_p99_us: summary.p99_ns as f64 / 1e3,
            live_sessions: fleet.live_count(),
            conservation_violations: violations,
        });
    }
    let final_agents = fleet.num_agents();
    let (pool_growth, register_cost_ratio) = match (tier_rows.first(), tier_rows.last()) {
        (Some(first), Some(last)) if tier_rows.len() >= 2 => (
            last.mean_pool / first.mean_pool,
            last.register_p50_us / first.register_p50_us.max(1e-9),
        ),
        _ => (1.0, 1.0),
    };
    let register_cost_sublinear = register_cost_ratio <= pool_growth / 2.0;

    // Drain every `east` agent: refuse-new-holds-then-evacuate.
    let mut drain_moves = 0usize;
    for &a in &east {
        let (moves, forced) = fleet.drain_agent(a);
        drain_moves += moves + forced;
    }
    let totals = fleet.ledger().reserved_totals();
    let mut drain_completed = true;
    for &a in &east {
        let idle = totals.download[a.index()] == 0.0
            && totals.upload[a.index()] == 0.0
            && totals.transcode[a.index()] == 0;
        drain_completed &= idle && fleet.is_agent_drained(a) && !fleet.restore_agent(a);
    }
    let post_drain_violations = fleet.audit().len();
    conservation_violations += post_drain_violations;
    drain_completed &= post_drain_violations == 0;

    // Crash after the drains; recovery must replay the grown universe.
    fleet.commit_journal().expect("commit tail");
    let before = fleet.durable_state();
    drop(fleet); // crash
    let t0 = Instant::now();
    let (recovered, report) = Fleet::recover(persist_config(&store), problem, fleet_config())
        .expect("recover the elastic store");
    let recover_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered_violations = recovered.audit().len();
    conservation_violations += recovered_violations;
    let parity = recovered.durable_state() == before
        && recovered.num_agents() == final_agents
        && recovered_violations == 0;

    ElasticResult {
        seed_sessions,
        seed_users: seed_user_count,
        seed_agents,
        final_agents,
        pool_growth,
        registers_per_s: total_registered as f64 / total_register_time.as_secs_f64().max(1e-12),
        register_cost_ratio,
        register_cost_sublinear,
        drained_agents: east.len(),
        drain_moves,
        drain_completed,
        recover_ms,
        replayed: report.replayed,
        parity,
        conservation_violations,
        tiers: tier_rows,
    }
}

/// Serializes the result as the `BENCH_elastic.json` document.
pub fn to_json(result: &ElasticResult) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = format!(
        concat!(
            "{{\n  \"experiment\": \"elastic\",\n  \"cpus\": {},\n",
            "  \"seed_sessions\": {},\n  \"seed_users\": {},\n",
            "  \"seed_agents\": {},\n  \"final_agents\": {},\n",
            "  \"pool_growth\": {:.2},\n",
            "  \"registers_per_s\": {:.1},\n",
            "  \"register_cost_ratio\": {:.3},\n",
            "  \"register_cost_sublinear\": {},\n",
            "  \"drained_agents\": {},\n  \"drain_moves\": {},\n",
            "  \"drain_completed\": {},\n",
            "  \"recover_ms\": {:.2},\n  \"replayed\": {},\n",
            "  \"parity\": {},\n",
            "  \"conservation_violations\": {},\n",
            "  \"tiers\": [\n"
        ),
        cpus,
        result.seed_sessions,
        result.seed_users,
        result.seed_agents,
        result.final_agents,
        result.pool_growth,
        result.registers_per_s,
        result.register_cost_ratio,
        result.register_cost_sublinear,
        result.drained_agents,
        result.drain_moves,
        result.drain_completed,
        result.recover_ms,
        result.replayed,
        result.parity,
        result.conservation_violations,
    );
    for (i, r) in result.tiers.iter().enumerate() {
        out.push_str(&format!(
            concat!(
                "    {{\"agents\": {}, \"mean_pool\": {:.1}, \"registered\": {}, ",
                "\"registers_per_s\": {:.1}, \"mean_register_us\": {:.2}, ",
                "\"register_p50_us\": {:.2}, \"register_p99_us\": {:.2}, ",
                "\"live_sessions\": {}, \"conservation_violations\": {}}}{}\n"
            ),
            r.agents,
            r.mean_pool,
            r.registered,
            r.registers_per_s,
            r.mean_register_us,
            r.register_p50_us,
            r.register_p99_us,
            r.live_sessions,
            r.conservation_violations,
            if i + 1 == result.tiers.len() { "" } else { "," },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Prints the tiers and writes `BENCH_elastic.json` into the working
/// directory.
pub fn print(result: &ElasticResult) {
    println!(
        "Elastic capacity — {} seed agents grown to {} ({}× mean pool), {} sessions live",
        result.seed_agents, result.final_agents, result.pool_growth, result.seed_sessions
    );
    println!(
        "{:>8} {:>10} {:>12} {:>13} {:>12} {:>12} {:>6} {:>11}",
        "agents",
        "registered",
        "register/s",
        "register µs",
        "p50 µs",
        "p99 µs",
        "live",
        "violations"
    );
    for r in &result.tiers {
        println!(
            "{:>8} {:>10} {:>12.0} {:>13.2} {:>12.2} {:>12.2} {:>6} {:>11}",
            r.agents,
            r.registered,
            r.registers_per_s,
            r.mean_register_us,
            r.register_p50_us,
            r.register_p99_us,
            r.live_sessions,
            r.conservation_violations,
        );
    }
    println!(
        concat!(
            "\naggregate {:.0} register/s; last/first cost ratio {:.2} over a {:.1}× pool ",
            "(sublinear: {})\ndrained {} agents ({} moves, completed: {}); ",
            "recovered {} records in {:.1} ms (parity: {})"
        ),
        result.registers_per_s,
        result.register_cost_ratio,
        result.pool_growth,
        result.register_cost_sublinear,
        result.drained_agents,
        result.drain_moves,
        result.drain_completed,
        result.replayed,
        result.recover_ms,
        result.parity,
    );
    let json = to_json(result);
    match std::fs::write("BENCH_elastic.json", &json) {
        Ok(()) => println!("\nwrote BENCH_elastic.json"),
        Err(e) => eprintln!("\ncould not write BENCH_elastic.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_grows_drains_and_recovers() {
        let result = run(40, 3, 7);
        assert_eq!(result.seed_agents, 7);
        assert_eq!(result.final_agents, 7 * 8, "three doublings of 7");
        assert_eq!(result.tiers.len(), 3);
        assert_eq!(result.conservation_violations, 0);
        assert!(result.drain_completed, "east region failed to drain");
        assert!(result.parity, "recovered durable state diverged");
        assert!(result.drained_agents > 0);
        assert!(result.registers_per_s > 0.0);
        for t in &result.tiers {
            assert!(t.registers_per_s > 0.0);
            assert!(t.register_p99_us >= t.register_p50_us);
            assert_eq!(t.conservation_violations, 0);
        }
        let json = to_json(&result);
        assert!(json.contains("\"elastic\""));
        assert!(json.contains("\"register_cost_sublinear\""));
        assert!(json.contains("\"parity\""));
    }
}
