//! The traced pass's post-run probes on the last episode's disposable
//! recovered fleet: direct timed calls into single layers — fleet hops,
//! the algorithm floor the fleet wraps, and the journal on its own.

use crate::episode::{build_problem, Disposable};
use crate::spec::{self, Spec};
use crate::stats;
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use vc_algo::admission::{AdmissionEngine, AdmissionPolicy};
use vc_algo::agrank::{AgRankConfig, Residuals};
use vc_algo::markov::{Alg1Config, Alg1Engine, HopScratch};
use vc_core::{EvalScratch, SystemState};
use vc_model::SessionId;
use vc_orchestrator::{FleetHopScratch, FleetOp};
use vc_persist::journal::{read_journal, FsyncPolicy, JournalWriter};

/// What the traced pass measures outside the episodes.
#[derive(Debug, Default)]
pub struct LayerProbes {
    /// `Fleet::hop_session_with` call times (µs, ascending).
    pub hop_direct_us: Vec<f64>,
    /// `Alg1Engine::hop_scratch` call times (µs, ascending).
    pub algo_hop_us: Vec<f64>,
    /// `AdmissionEngine::place_session` call times (µs, ascending).
    pub algo_place_us: Vec<f64>,
    pub journal_append_ns: f64,
    pub journal_read_records_per_s: f64,
    /// One `Fleet::fail_agent` of the busiest agent (ms).
    pub fail_agent_direct_ms: f64,
}

fn timed_us(calls: usize, mut call: impl FnMut(usize)) -> Vec<f64> {
    let mut us = Vec::with_capacity(calls);
    for i in 0..calls {
        let t0 = Instant::now();
        call(i);
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    stats::sort(&mut us);
    us
}

pub fn layers(spec: &Spec, seed: u64, calls: usize, d: &Disposable) -> Result<LayerProbes, String> {
    let mut out = LayerProbes::default();
    let mut rng = StdRng::seed_from_u64(seed);

    // Fleet-wrapped hops, round-robin over the live conferences.
    if !d.live.is_empty() {
        let mut scratch = FleetHopScratch::new();
        out.hop_direct_us = timed_us(calls, |i| {
            black_box(
                d.fleet
                    .hop_session_with(d.live[i % d.live.len()], &mut rng, &mut scratch),
            );
        });
    }

    // The algorithm floor: the same seed conferences as one closed-world
    // state on `hop_bench`'s roomy capacities (every session active,
    // nearest bootstrap), hopped and placed with no fleet around them.
    let problem = std::sync::Arc::new(build_problem(spec, 1.0));
    let sessions = problem.instance().num_sessions();
    let mut state = SystemState::new(
        problem.clone(),
        vc_algo::nearest::nearest_assignment(&problem),
    );
    let engine = Alg1Engine::new(Alg1Config::paper(spec::BETA));
    let mut scratch = HopScratch::new();
    let mut hop = |i: usize| {
        black_box(engine.hop_scratch(
            &mut state,
            SessionId::from(i % sessions),
            &mut rng,
            &mut scratch,
        ));
    };
    (0..32).for_each(&mut hop); // sizes the reusable buffers
    out.algo_hop_us = timed_us(calls, hop);

    let admission = AdmissionEngine::default();
    let policy = if spec.nearest {
        AdmissionPolicy::Nearest
    } else {
        AdmissionPolicy::AgRank(AgRankConfig::live())
    };
    let residuals = Residuals::full(&problem);
    let available = vec![true; problem.instance().num_agents()];
    let mut eval = EvalScratch::new();
    out.algo_place_us = timed_us(calls.min(sessions), |i| {
        black_box(
            admission
                .place_session(
                    &problem,
                    SessionId::from(i),
                    &policy,
                    &residuals,
                    &available,
                    &mut eval,
                )
                .is_ok(),
        );
    });

    // The journal alone: read the run's own records back, then append
    // them to a standalone writer that never fsyncs inside the loop.
    let mut records: Vec<FleetOp> = Vec::new();
    let t0 = Instant::now();
    for path in &d.journals {
        let (batch, _) = read_journal::<FleetOp>(path).map_err(|e| format!("read_journal: {e}"))?;
        records.extend(batch.into_iter().map(|(_, op)| op));
    }
    let read_s = t0.elapsed().as_secs_f64();
    if !records.is_empty() {
        out.journal_read_records_per_s = records.len() as f64 / read_s;
        let path = d.dir.path().join("probe.vcwal");
        let mut writer = JournalWriter::<FleetOp>::create(&path, FsyncPolicy::Manual, 1)
            .map_err(|e| format!("journal probe: {e}"))?;
        let appends = calls.max(records.len());
        let t0 = Instant::now();
        for record in records.iter().cycle().take(appends) {
            writer
                .append(record)
                .map_err(|e| format!("journal probe: {e}"))?;
        }
        out.journal_append_ns = t0.elapsed().as_nanos() as f64 / appends as f64;
        writer.commit().map_err(|e| format!("journal probe: {e}"))?;
    }

    // Last, because it rearranges the fleet: how long the worst single
    // agent failure right now would freeze every other conference out.
    let t0 = Instant::now();
    black_box(d.fleet.fail_agent(d.busiest));
    out.fail_agent_direct_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(out)
}
