//! One run of one workload: identical episodes repeated for the
//! measuring budget, the fingerprint gate across them, the post-run
//! probes, and the reduction of all of it to named metrics.

use crate::episode::{self, Episode, Fingerprint};
use crate::json::quote;
use crate::probes::{self, LayerProbes};
use crate::spans::{Layer, Tracer};
use crate::spec::{self, Spec};
use crate::stats::{median, quantile, tail};
use std::time::Instant;

/// One named number. `runs` holds the values it was estimated from: per
/// episode for a layer metric, per half of the run for an end-to-end one
/// (empty for a metric measured once per run).
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub runs: Vec<f64>,
}

/// The outcome of one run (one workload, one seed, one pass).
#[derive(Debug)]
pub struct RunResult {
    pub workload: &'static str,
    pub constants: String,
    pub traced: bool,
    pub episodes: usize,
    /// Operations attempted over all episodes.
    pub attempted: u64,
    pub join_samples: usize,
    /// `None` on the wall clock, where no two runs interleave alike.
    pub fingerprint: Option<Fingerprint>,
    pub metrics: Vec<Metric>,
    /// The last traced episode's spans (traced pass only).
    pub tracer: Option<Tracer>,
}

/// Episodes per run at least: a run reports the fastest of several
/// set-ups and timed sections, and the traced pass needs an untraced
/// twin for each traced episode.
fn min_episodes(traced: bool, smoke: bool) -> usize {
    match (traced, smoke) {
        (false, true) => 1,
        (false, false) | (true, true) => 2,
        (true, false) => 4,
    }
}

/// Runs `spec` from `seed` for about `seconds`. The traced pass
/// alternates untraced and traced episodes, so the tracing overhead is
/// measured inside the run and the two fingerprints can be compared.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut episodes: Vec<(bool, Episode)> = Vec::new();
    loop {
        // Only the last episode's recovered fleet is probed; an earlier
        // one must not sit in memory through the next episode.
        if let Some((_, previous)) = episodes.last_mut() {
            previous.disposable = None;
        }
        let with_spans = traced && episodes.len() % 2 == 1;
        let ep = episode::run(spec, seed, with_spans)?;
        if ep.tracer.dropped > 0 {
            return Err(format!("span buffer overflowed by {}", ep.tracer.dropped));
        }
        if let Some((_, first)) = episodes.first() {
            if !spec.wall && first.fingerprint != ep.fingerprint {
                return Err(format!(
                    "episode {} diverged from episode 0 (traced: {with_spans}):\n  {}\n  {}",
                    episodes.len(),
                    first.fingerprint,
                    ep.fingerprint
                ));
            }
        }
        episodes.push((with_spans, ep));
        let paired = !traced || episodes.len().is_multiple_of(2);
        if paired
            && episodes.len() >= min_episodes(traced, smoke)
            && started.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
    }

    let layer_probes = if traced {
        let disposable = episodes
            .last()
            .and_then(|(_, ep)| ep.disposable.as_ref())
            .expect("the last episode keeps its recovered fleet");
        let calls = if smoke {
            spec::PROBE_CALLS / 20
        } else {
            spec::PROBE_CALLS
        };
        Some(probes::layers(spec, seed, calls, disposable)?)
    } else {
        None
    };
    let of_kind = |with_spans: bool| -> Vec<&Episode> {
        episodes
            .iter()
            .filter(|(t, _)| *t == with_spans)
            .map(|(_, e)| e)
            .collect()
    };
    let metrics = match &layer_probes {
        None => end_to_end(spec, &of_kind(false)),
        Some(p) => per_layer(spec, &of_kind(false), &of_kind(true), p),
    };
    let first = &episodes[0].1;
    Ok(RunResult {
        workload: spec.name,
        constants: spec.constants_json(),
        traced,
        episodes: episodes.len(),
        attempted: episodes.iter().map(|(_, e)| e.ops()).sum(),
        join_samples: first.join_us.len(),
        fingerprint: (!spec.wall).then_some(first.fingerprint),
        metrics,
        tracer: episodes
            .into_iter()
            .rev()
            .find(|(t, _)| *t)
            .map(|(_, e)| e.tracer),
    })
}

fn per_episode(
    name: &'static str,
    unit: &'static str,
    episodes: &[&Episode],
    f: impl Fn(&Episode) -> f64,
) -> Metric {
    let runs: Vec<f64> = episodes.iter().map(|e| f(e)).collect();
    Metric {
        name,
        unit,
        value: median(&runs),
        runs,
    }
}

fn once(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        runs: Vec::new(),
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    crate::stats::sort(&mut v);
    v
}

/// The element-wise minimum of one series per episode. On the virtual
/// clock every episode of a run replays the same operations in the same
/// order (the fingerprint gate checks it), so the i-th entry is the same
/// piece of work each time and its minimum is that piece undisturbed —
/// `fastest` applied piece by piece, which needs one quiet moment per
/// piece instead of one quiet episode: over ten runs in a noisy hour the
/// fastest episodes spread 18–26 % and the median episodes 18–21 %
/// where these floors spread 4–7 %.
fn floor<'a>(mut series: impl Iterator<Item = &'a [f64]>) -> Vec<f64> {
    let mut out = series.next().unwrap_or_default().to_vec();
    for other in series {
        debug_assert_eq!(other.len(), out.len(), "episodes replay the same work");
        for (least, x) in out.iter_mut().zip(other) {
            *least = least.min(*x);
        }
    }
    out
}

/// What a user of the control plane would see, from the episodes `eps`
/// of a run. Measured with the span recorder off. On the virtual clock
/// the set-up, the timed wall, its CPU time and the join latencies are
/// floors over the episodes (see `floor`). What cannot be cut into pieces
/// — a recovery, and everything on the wall clock, where no two episodes
/// interleave alike — is the fastest episode's: a neighbour on a shared
/// machine can only slow one down. Everything else is the median over
/// episodes (identical on the virtual clock).
fn estimate(spec: &Spec, eps: &[&Episode]) -> Vec<Metric> {
    let floor_sum = |series: fn(&Episode) -> &[f64]| -> f64 {
        floor(eps.iter().map(|e| series(e))).iter().sum()
    };
    let least =
        |f: &dyn Fn(&Episode) -> f64| eps.iter().map(|e| f(e)).fold(f64::INFINITY, f64::min);
    let mid = |f: fn(&Episode) -> f64| median(&eps.iter().map(|e| f(e)).collect::<Vec<_>>());
    let first = eps.first().expect("a run has an episode");
    let join_floor = sorted(&floor(eps.iter().map(|e| e.join_us.as_slice())));
    let join = |pick: fn(&[f64]) -> f64| {
        if spec.wall {
            least(&|e| pick(&sorted(&e.join_us)))
        } else {
            pick(&join_floor)
        }
    };
    vec![
        once("setup_s", "s", floor_sum(|e| &e.setup_segment_s)),
        once(
            "ops_per_s",
            "1/s",
            if spec.wall {
                1.0 / least(&|e| e.timed_wall_s / e.ops() as f64)
            } else {
                first.ops() as f64 / floor_sum(|e| &e.segment_s)
            },
        ),
        once("join_p50_us", "us", join(|us| quantile(us, 500))),
        once("join_p99_us", "us", join(|us| tail(us, 990))),
        once(
            "cpu_us_per_participant_minute",
            "us",
            floor_sum(|e| &e.segment_cpu_s) * 1e6 / first.participant_minutes,
        ),
        once(
            "recover_s",
            "s",
            least(&|e| e.recover_s.iter().copied().fold(f64::INFINITY, f64::min)),
        ),
        // The high-water mark never falls and later episodes only add
        // allocator noise to it: one episode's footprint is the first's.
        once("peak_rss_mb", "MB", first.peak_rss_mb),
        once(
            "admitted_fraction",
            "ratio",
            mid(|e| 1.0 - e.failed_fraction()),
        ),
        once(
            "objective_per_session",
            "phi",
            mid(|e| e.objective_per_session),
        ),
        once("mean_delay_ms", "ms", mid(|e| e.mean_delay_ms)),
    ]
}

/// The end-to-end metrics of a run. Each carries in `runs` the same
/// estimate made from the even and from the odd episodes alone: how far
/// the run's own halves disagree is the spread `compare` judges it by.
fn end_to_end(spec: &Spec, eps: &[&Episode]) -> Vec<Metric> {
    let mut metrics = estimate(spec, eps);
    if eps.len() >= 2 {
        let halves = [0, 1].map(|parity| {
            let half: Vec<&Episode> = eps.iter().copied().skip(parity).step_by(2).collect();
            estimate(spec, &half)
        });
        for (i, metric) in metrics.iter_mut().enumerate() {
            metric.runs = halves.iter().map(|half| half[i].value).collect();
        }
    }
    metrics
}

/// Count, busy time and call times (µs, ascending) of one layer's spans.
struct Calls<'a> {
    count: f64,
    busy_s: f64,
    us: &'a [f64],
}

fn calls(e: &Episode, layer: Layer) -> Calls<'_> {
    let us = &e.layer_us[layer as usize];
    Calls {
        count: us.len() as f64,
        busy_s: us.iter().fold(0.0, |sum, x| sum + x) / 1e6,
        us,
    }
}

/// Appends the median over `eps` of `f`.
fn add(
    out: &mut Vec<Metric>,
    eps: &[&Episode],
    name: &'static str,
    unit: &'static str,
    f: impl Fn(&Episode) -> f64,
) {
    out.push(per_episode(name, unit, eps, f));
}

/// Single layers, from the traced episodes (`spans`), their untraced
/// twins (`plain`, for the overhead) and the post-run probes.
fn per_layer(
    spec: &Spec,
    plain: &[&Episode],
    spans: &[&Episode],
    probes: &LayerProbes,
) -> Vec<Metric> {
    let mut out = Vec::with_capacity(100);
    let ns_us = |ns: u64| ns as f64 / 1e3;

    add(&mut out, spans, "workloads.trace_gen_s", "s", |e| {
        e.trace_gen_s
    });
    add(&mut out, spans, "workloads.events", "count", |e| {
        e.events as f64
    });
    add(&mut out, spans, "workloads.joins", "count", |e| {
        e.joins as f64
    });
    add(&mut out, spans, "workloads.departs", "count", |e| {
        e.departs as f64
    });
    add(&mut out, spans, "core.problem_build_s", "s", |e| {
        e.problem_build_s
    });

    for (layer, count, busy, p50, p99) in [
        (
            Layer::RegisterSession,
            "fleet.register_session.count",
            "fleet.register_session.busy_s",
            "fleet.register_session.p50_us",
            "fleet.register_session.p99_us",
        ),
        (
            Layer::Admit,
            "fleet.admit.count",
            "fleet.admit.busy_s",
            "fleet.admit.p50_us",
            "fleet.admit.p99_us",
        ),
        (
            Layer::Depart,
            "fleet.depart.count",
            "fleet.depart.busy_s",
            "fleet.depart.p50_us",
            "fleet.depart.p99_us",
        ),
    ] {
        add(&mut out, spans, count, "count", |e| calls(e, layer).count);
        add(&mut out, spans, busy, "s", |e| calls(e, layer).busy_s);
        add(&mut out, spans, p50, "us", |e| {
            quantile(calls(e, layer).us, 500)
        });
        add(&mut out, spans, p99, "us", |e| {
            tail(calls(e, layer).us, 990)
        });
        if layer == Layer::Admit {
            add(&mut out, spans, "fleet.admit.refused", "count", |e| {
                e.refused as f64
            });
            add(
                &mut out,
                spans,
                "fleet.admit.tier_enumeration",
                "count",
                |e| e.counters.admitted_enumeration as f64,
            );
            add(&mut out, spans, "fleet.admit.tier_repair", "count", |e| {
                e.counters.admitted_repair as f64
            });
            add(&mut out, spans, "fleet.admit.tier_fallback", "count", |e| {
                e.counters.admitted_fallback as f64
            });
        }
    }

    add(&mut out, spans, "fleet.fail_agent.count", "count", |e| {
        calls(e, Layer::FailAgent).count
    });
    add(&mut out, spans, "fleet.fail_agent.busy_s", "s", |e| {
        calls(e, Layer::FailAgent).busy_s
    });
    add(&mut out, spans, "fleet.fail_agent.p50_ms", "ms", |e| {
        quantile(calls(e, Layer::FailAgent).us, 500) / 1e3
    });
    add(&mut out, spans, "fleet.fail_agent.max_ms", "ms", |e| {
        calls(e, Layer::FailAgent).us.last().copied().unwrap_or(0.0) / 1e3
    });
    add(&mut out, spans, "fleet.fail_agent.moves", "count", |e| {
        e.fail_moves as f64
    });
    add(&mut out, spans, "fleet.fail_agent.forced", "count", |e| {
        e.fail_forced as f64
    });
    out.push(once(
        "fleet.fail_agent_direct.ms",
        "ms",
        probes.fail_agent_direct_ms,
    ));
    add(&mut out, spans, "fleet.drain_agent.busy_s", "s", |e| {
        calls(e, Layer::DrainAgent).busy_s
    });
    add(&mut out, spans, "fleet.drain_agent.moves", "count", |e| {
        e.drain_moves as f64
    });
    add(
        &mut out,
        spans,
        "fleet.register_agent.count",
        "count",
        |e| calls(e, Layer::RegisterAgent).count,
    );
    add(&mut out, spans, "fleet.register_agent.p50_us", "us", |e| {
        quantile(calls(e, Layer::RegisterAgent).us, 500)
    });
    add(&mut out, spans, "fleet.readmit.displaced", "count", |e| {
        e.counters.displaced as f64
    });
    add(&mut out, spans, "fleet.readmit.admitted", "count", |e| {
        e.counters.readmit_admitted as f64
    });
    add(&mut out, spans, "fleet.readmit.dropped", "count", |e| {
        e.counters.readmit_dropped as f64
    });

    add(&mut out, spans, "fleet.hop.count", "count", |e| {
        e.hops as f64
    });
    add(
        &mut out,
        spans,
        "fleet.hop.migrated_fraction",
        "ratio",
        |e| e.counters.migrations as f64 / e.hops.max(1) as f64,
    );
    out.push(once(
        "fleet.hop_direct.p50_us",
        "us",
        quantile(&probes.hop_direct_us, 500),
    ));
    out.push(once(
        "fleet.hop_direct.p99_us",
        "us",
        tail(&probes.hop_direct_us, 990),
    ));
    out.push(once(
        "algo.hop_scratch.p50_us",
        "us",
        quantile(&probes.algo_hop_us, 500),
    ));
    out.push(once(
        "algo.hop_scratch.p99_us",
        "us",
        tail(&probes.algo_hop_us, 990),
    ));
    out.push(once(
        "algo.place_session.p50_us",
        "us",
        quantile(&probes.algo_place_us, 500),
    ));
    out.push(once(
        "algo.place_session.p99_us",
        "us",
        tail(&probes.algo_place_us, 990),
    ));

    // On the wall clock the one "tick" is the whole `run_wall` budget.
    let tick_busy_s = |e: &Episode| {
        if spec.wall {
            e.timed_wall_s
        } else {
            calls(e, Layer::Tick).busy_s
        }
    };
    add(&mut out, spans, "workers.tick.calls", "count", |e| {
        e.tick_calls as f64
    });
    add(&mut out, spans, "workers.tick.busy_s", "s", tick_busy_s);
    add(&mut out, spans, "workers.tick.hops", "count", |e| {
        e.hops as f64
    });
    add(&mut out, spans, "workers.tick.hop_mean_us", "us", |e| {
        tick_busy_s(e) * 1e6 / e.hops.max(1) as f64
    });
    add(&mut out, spans, "workers.register.count", "count", |e| {
        calls(e, Layer::PoolRegister).count
    });
    add(&mut out, spans, "workers.register.busy_s", "s", |e| {
        calls(e, Layer::PoolRegister).busy_s
    });
    add(&mut out, spans, "workers.deregister.busy_s", "s", |e| {
        calls(e, Layer::PoolDeregister).busy_s
    });
    add(&mut out, spans, "workers.register_batch_s", "s", |e| {
        e.register_batch_s
    });
    add(&mut out, spans, "sched.lock.acquires", "count", |e| {
        e.sched_acquires as f64
    });
    add(&mut out, spans, "sched.lock.conflicts", "count", |e| {
        e.sched_conflicts as f64
    });
    add(&mut out, spans, "sched.stale_reclaimed", "count", |e| {
        e.stale_reclaimed as f64
    });

    add(&mut out, spans, "telemetry.sample.count", "count", |e| {
        calls(e, Layer::Sample).count
    });
    add(&mut out, spans, "telemetry.sample.busy_s", "s", |e| {
        calls(e, Layer::Sample).busy_s
    });
    add(&mut out, spans, "telemetry.sample.p50_us", "us", |e| {
        quantile(calls(e, Layer::Sample).us, 500)
    });
    add(&mut out, spans, "telemetry.sample.p99_us", "us", |e| {
        tail(calls(e, Layer::Sample).us, 990)
    });
    add(
        &mut out,
        spans,
        "telemetry.metrics_text.p50_us",
        "us",
        |e| quantile(calls(e, Layer::MetricsText).us, 500),
    );

    add(&mut out, spans, "persist.commit.count", "count", |e| {
        calls(e, Layer::Commit).count
    });
    add(&mut out, spans, "persist.commit.busy_s", "s", |e| {
        calls(e, Layer::Commit).busy_s
    });
    add(&mut out, spans, "persist.commit.p50_us", "us", |e| {
        quantile(calls(e, Layer::Commit).us, 500)
    });
    add(&mut out, spans, "persist.commit.p99_us", "us", |e| {
        tail(calls(e, Layer::Commit).us, 990)
    });
    add(&mut out, spans, "persist.checkpoint.count", "count", |e| {
        calls(e, Layer::Checkpoint).count
    });
    add(&mut out, spans, "persist.checkpoint.busy_s", "s", |e| {
        calls(e, Layer::Checkpoint).busy_s
    });
    add(&mut out, spans, "persist.checkpoint.p50_ms", "ms", |e| {
        quantile(calls(e, Layer::Checkpoint).us, 500) / 1e3
    });
    add(&mut out, spans, "persist.journal_timers.busy_s", "s", |e| {
        calls(e, Layer::JournalTimers).busy_s
    });
    add(&mut out, spans, "persist.store_bytes", "bytes", |e| {
        e.store_bytes as f64
    });
    add(
        &mut out,
        spans,
        "persist.journal_bytes_per_op",
        "bytes",
        |e| e.journal_bytes as f64 / e.journal_records.max(1) as f64,
    );
    add(&mut out, spans, "persist.recover.replayed", "count", |e| {
        e.replayed as f64
    });
    add(
        &mut out,
        spans,
        "persist.recover.records_per_s",
        "1/s",
        |e| e.replayed as f64 / median(&e.recover_s),
    );
    out.push(once("journal.append_ns", "ns", probes.journal_append_ns));
    out.push(once(
        "journal.read_records_per_s",
        "1/s",
        probes.journal_read_records_per_s,
    ));

    add(&mut out, spans, "snapshot.encode_ms", "ms", |e| {
        e.snapshot_encode_ms
    });
    add(&mut out, spans, "snapshot.bytes", "bytes", |e| {
        e.snapshot_bytes as f64
    });

    add(
        &mut out,
        spans,
        "driver.unattributed_fraction",
        "ratio",
        |e| e.tracer.unattributed_fraction(),
    );
    // Closed loop: how much longer the same work took with spans on,
    // floor against floor (episodes of one kind differ by more than the
    // spans cost). Open loop (fixed wall budget): how much less work the
    // busiest episode got done.
    let fastest = |eps: &[&Episode]| {
        if spec.wall {
            eps.iter()
                .map(|e| 1.0 / e.ops().max(1) as f64)
                .fold(f64::INFINITY, f64::min)
        } else {
            floor(eps.iter().map(|e| e.segment_s.as_slice()))
                .iter()
                .sum()
        }
    };
    out.push(once(
        "driver.tracing_overhead_fraction",
        "ratio",
        fastest(spans) / fastest(plain) - 1.0,
    ));
    add(&mut out, spans, "driver.join_p999_us", "us", |e| {
        tail(&sorted(&e.join_us), 999)
    });
    add(&mut out, spans, "driver.join_p99_us", "us", |e| {
        tail(&sorted(&e.join_us), 990)
    });
    add(&mut out, spans, "driver.late_p99_us", "us", |e| {
        tail(&e.late_us, 990)
    });
    add(&mut out, spans, "driver.late_max_us", "us", |e| {
        e.late_us.last().copied().unwrap_or(0.0)
    });

    // Program-reported: counted by the product, read through
    // `Fleet::obs()`, never by the benchmark.
    add(&mut out, spans, "obs.hop.p50_us", "us", |e| {
        ns_us(e.obs.hop.p50_ns)
    });
    add(&mut out, spans, "obs.hop.p99_us", "us", |e| {
        ns_us(e.obs.hop.p99_ns)
    });
    add(&mut out, spans, "obs.wait_dispatch.p99_us", "us", |e| {
        ns_us(e.obs.wait_dispatch.p99_ns)
    });
    add(&mut out, spans, "obs.freeze_read.count", "count", |e| {
        e.obs.freeze_read.count as f64
    });
    add(&mut out, spans, "obs.freeze_read.p99_us", "us", |e| {
        ns_us(e.obs.freeze_read.p99_ns)
    });
    add(&mut out, spans, "obs.freeze_read_fast", "count", |e| {
        e.obs.freeze_read_fast as f64
    });
    add(&mut out, spans, "obs.freeze_write_wait.p50_us", "us", |e| {
        ns_us(e.obs.freeze_write_wait.p50_ns)
    });
    add(&mut out, spans, "obs.freeze_write_wait.p99_us", "us", |e| {
        ns_us(e.obs.freeze_write_wait.p99_ns)
    });
    add(&mut out, spans, "obs.freeze_write_hold.p50_us", "us", |e| {
        ns_us(e.obs.freeze_write_hold.p50_ns)
    });
    add(&mut out, spans, "obs.freeze_write_hold.p99_us", "us", |e| {
        ns_us(e.obs.freeze_write_hold.p99_ns)
    });
    add(&mut out, spans, "obs.journal_append.p50_us", "us", |e| {
        ns_us(e.obs.journal_append.p50_ns)
    });
    add(&mut out, spans, "obs.journal_append.p99_us", "us", |e| {
        ns_us(e.obs.journal_append.p99_ns)
    });
    add(&mut out, spans, "obs.journal_fsync.count", "count", |e| {
        e.obs.journal_fsync.count as f64
    });
    add(&mut out, spans, "obs.journal_fsync.p50_us", "us", |e| {
        ns_us(e.obs.journal_fsync.p50_ns)
    });
    add(&mut out, spans, "obs.journal_fsync.p99_us", "us", |e| {
        ns_us(e.obs.journal_fsync.p99_ns)
    });
    add(&mut out, spans, "obs.sched_lock.p99_us", "us", |e| {
        ns_us(e.obs.sched_lock.p99_ns)
    });
    add(&mut out, spans, "obs.swap.attempts", "count", |e| {
        e.obs.swap_attempts as f64
    });
    add(&mut out, spans, "obs.swap.conflicts", "count", |e| {
        e.obs.swap_conflicts as f64
    });
    out
}

/// A metric value as JSON: every digit as measured, never NaN/inf.
fn number(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "0".into()
    }
}

impl RunResult {
    /// The last line of a contract run: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. `failed` counts operations that errored,
    /// and a run in which one did prints no line at all. Refused joins
    /// are admission control working, not errors: they are counted in
    /// `admitted_fraction` and in the join percentiles.
    pub fn contract_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
            self.attempted,
            metrics.join(", ")
        )
    }

    /// The metrics as a JSON object with per-episode values, for result
    /// files (`compare` reads the `runs` to judge the spread).
    pub fn metrics_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let runs: Vec<String> = m.runs.iter().map(|v| number(*v)).collect();
                format!(
                    "      {}: {{\"value\": {}, \"unit\": {}, \"runs\": [{}]}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit),
                    runs.join(", ")
                )
            })
            .collect();
        format!("{{\n{}\n    }}", metrics.join(",\n"))
    }

    /// Every metric by name with its unit, one per line.
    pub fn print(&self) {
        println!(
            "== {} ({}) — {} episodes, {} joins per episode{}",
            self.workload,
            if self.traced {
                "traced pass"
            } else {
                "end to end"
            },
            self.episodes,
            self.join_samples,
            self.fingerprint
                .map_or(String::new(), |f| format!("\n   fingerprint {f}"))
        );
        for m in &self.metrics {
            println!(
                "{:<12} {:<40} {:>18.4} {}",
                self.workload, m.name, m.value, m.unit
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floor_takes_each_piece_from_its_quietest_episode() {
        let episodes = [
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.5],
            vec![9.0, 1.5, 4.0],
        ];
        assert_eq!(
            floor(episodes.iter().map(Vec::as_slice)),
            vec![2.0, 1.0, 4.0]
        );
        assert!(floor(std::iter::empty()).is_empty());
    }
}
