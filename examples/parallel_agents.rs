//! The distributed deployment shape of Alg. 1 on real threads: worker
//! threads race WAIT/HOP steps of the prototype's sessions over a
//! fleet. Hops of different sessions run concurrently under the shared
//! FREEZE; each is serialized only by its session slot and the ledger
//! shards it touches (the paper's Sec. IV-A design without a global
//! lock).
//!
//! Countdowns are drain priorities here, not wall-clock sleeps: the
//! threads hop as fast as the ledger lets them for 500 ms.
//!
//! Run with: `cargo run --release --example parallel_agents`

use cloud_vc::orchestrator::ReoptPool;
use cloud_vc::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let instance = prototype_instance(&PrototypeConfig::default());
    let problem = Arc::new(UapProblem::new(instance, CostModel::paper_default()));
    let fleet = Fleet::new(
        problem.clone(),
        FleetConfig {
            placement: PlacementPolicy::Nearest,
            alg1: Alg1Config::paper(400.0),
            ..FleetConfig::default()
        },
    );
    let pool = ReoptPool::new(7);
    for i in 0..problem.instance().num_sessions() {
        let s = SessionId::from(i);
        fleet.admit(s).expect("the prototype fits its agents");
        pool.register(&fleet, s, 0.0);
    }
    let threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    println!(
        "start: {:.1} Mbps inter-agent traffic, {:.1} ms mean delay, {} sessions on {threads} threads",
        fleet.total_traffic_mbps(),
        fleet.mean_delay_ms(),
        fleet.live_count()
    );

    let hops = pool.run_wall(&fleet, Duration::from_millis(500), threads);

    println!(
        "ran {hops} hops ({} migrations) across threads in 500 ms wall time",
        fleet.counters().migrations.load(Ordering::Relaxed)
    );
    println!(
        "end:   {:.1} Mbps inter-agent traffic, {:.1} ms mean delay (ledger audit clean: {})",
        fleet.total_traffic_mbps(),
        fleet.mean_delay_ms(),
        fleet.audit().is_empty()
    );
}
