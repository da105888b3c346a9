//! `fleetbench` — one end-to-end benchmark of the fleet control plane:
//! five workloads (register → admit → WAIT/HOP → depart with the
//! journal and the observability plane on, then crash and recover; four
//! on the virtual clock behind `BENCHMARK.json`, one racing real
//! threads), ten end-to-end metrics, and a traced pass that wraps every
//! call into a layer in a span recorded by the benchmark itself. See
//! `README.md` next to this file for the workloads, the metrics and how
//! they are expected to interact; `BENCHMARK.json` at the repository
//! root is the machine-readable contract (names, units, directions,
//! regression bounds).
//!
//! ```text
//! fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one run, JSON on the last line
//! fleetbench [--seed <n>] [--seconds <s>] [--smoke] [--out <dir>]       # every workload, both passes
//! fleetbench compare A.json B.json                                      # judge B against A
//! fleetbench calibrate [--runs <n>] [--seed <n>] [--seconds <s>] [--workload <name>]  # spread of each metric over seeds
//! ```
//!
//! # API surface
//!
//! Later PRs are judged with this benchmark, so it must keep compiling
//! while they simplify the product. It therefore calls only
//! `Fleet::{with_persistence, recover, register_session, admit, depart,
//! fail_agent, restore_agent, drain_agent, register_agent,
//! hop_session_with, set_clock_us, commit_journal, checkpoint,
//! journal_timers, durable_state, audit, objective, mean_delay_ms,
//! live_count, obs}`, `ReoptPool::{new, register,
//! register_batch, deregister, tick_until, run_wall,
//! shard_lock_counters, stale_reclaimed}`, `FleetTelemetry::sample`,
//! `fleet_metrics_text`, `ObsPlane::{summary, freeze_read_fast,
//! swap_counters}`, `AdmissionEngine::place_session` and
//! `Alg1Engine::hop_scratch` over a `SystemState::new` of
//! `nearest_assignment` with `Residuals::full`,
//! `vc_persist::journal::{JournalWriter, read_journal}` with
//! `encode_to_vec`, the `vc-workloads` generators
//! and `FaultPlan::storm`. It uses nothing ROADMAP item 2 deletes
//! (`AdmissionMode::LegacyRanked`, `Fleet::admit_legacy`,
//! `Site::AdmitLegacy`, `Alg1Engine::hop`/`hop_with_beta`,
//! `FleetOp::Stay`, `vc_sim::metrics::TimeSeries`), reads no
//! `CapacityLedger` residual directly (item 3 collapses them), and no
//! `vc_bench::` library item.

mod episode;
mod json;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;

use report::RunResult;
use spec::Spec;
use std::path::{Path, PathBuf};

/// The contract this benchmark is written to; `compare` and `calibrate`
/// take their bounds from it, so they are stated once.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    runs: usize,
}

fn usage() -> String {
    "usage: fleetbench [--workload <name> --trace <0|1>] [--seed <n>] [--seconds <s>] [--smoke] [--out <dir>]\n       fleetbench compare <A.json> <B.json>\n       fleetbench calibrate [--runs <n>] [--seed <n>] [--seconds <s>] [--workload <name>] [--smoke]"
        .into()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        files: Vec::new(),
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out: None,
        runs: 5,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}\n{}", usage()))
        };
        let bad = |what: &str, v: &str| format!("{arg}: '{v}' is not {what}\n{}", usage());
        match arg.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v.parse().map_err(|_| bad("a whole number", &v))?;
            }
            "--seconds" => {
                let v = value("a number of seconds")?;
                let s: f64 = v.parse().map_err(|_| bad("a number", &v))?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad("between 0 and 3600", &v));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                let v = value("0 or 1")?;
                args.trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1", &v)),
                });
            }
            "--runs" => {
                let v = value("a count")?;
                args.runs = v.parse().map_err(|_| bad("a count", &v))?;
                if args.runs < 2 {
                    return Err(bad("at least 2", &v));
                }
            }
            "--out" => args.out = Some(PathBuf::from(value("a directory")?)),
            "--smoke" => args.smoke = true,
            "run" | "compare" | "calibrate" if args.command.is_none() => {
                args.command = Some(arg.clone());
            }
            file if args.command.as_deref() == Some("compare") && !file.starts_with('-') => {
                args.files.push(file.to_string());
            }
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    Ok(args)
}

fn workloads(smoke: bool) -> Vec<Spec> {
    spec::specs()
        .iter()
        .map(|s| if smoke { s.smoke() } else { s.clone() })
        .collect()
}

/// `run_seconds` of the contract (0 under `--smoke`: the minimum number
/// of episodes and nothing more).
fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        return 0.0;
    }
    json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|b| b.get("run_seconds").as_f64())
        .unwrap_or(10.0)
}

/// The checked-out commit, read from `.git` by hand (a benchmark
/// starts no processes); `unknown` outside a git checkout.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().into();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Why `spec` cannot run on this machine, if it cannot: the wall-clock
/// workload races two busy threads, and on one CPU it would time the
/// scheduler's time slices instead of the product's locks.
fn skip_reason(spec: &Spec) -> Option<String> {
    (spec.wall && cpus() < 2).then(|| format!("needs 2 cpus, this machine has {}", cpus()))
}

fn meta_json(args: &Args, seconds: f64) -> String {
    format!(
        "{{\"cpus\": {}, \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"commit\": {}}}",
        cpus(),
        args.seed,
        seconds,
        args.smoke,
        json::quote(&git_commit())
    )
}

fn write(dir: &Path, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))
}

/// One workload, one pass — the benchmark contract's invocation.
fn run_one(args: &Args, name: &str) -> Result<(), String> {
    let spec = workloads(args.smoke)
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("unknown workload '{name}'"))?;
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.smoke));
    let traced = args.trace.unwrap_or(false);
    if let Some(reason) = skip_reason(&spec) {
        println!("== {name} skipped: {reason}");
        return match &args.out {
            Some(dir) => write_outputs(dir, args, seconds, &[]),
            None => Ok(()),
        };
    }
    let result = report::run(&spec, args.seed, seconds, traced, args.smoke)?;
    result.print();
    if let Some(dir) = &args.out {
        write_outputs(dir, args, seconds, std::slice::from_ref(&result))?;
    }
    println!("{}", result.contract_line());
    Ok(())
}

/// Every workload, end to end and then traced.
fn run_matrix(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.smoke));
    println!(
        "fleetbench: seed {}, {} s per run, {} cpus, commit {}",
        args.seed,
        seconds,
        cpus(),
        git_commit()
    );
    let mut results = Vec::new();
    for spec in workloads(args.smoke) {
        if let Some(reason) = skip_reason(&spec) {
            println!("== {} skipped: {reason}", spec.name);
            continue;
        }
        for traced in [false, true] {
            stats::reset_peak_rss();
            let result = report::run(&spec, args.seed, seconds, traced, args.smoke)?;
            result.print();
            results.push(result);
        }
        // The traced pass replays the same virtual-clock run.
        let [.., plain, traced] = results.as_slice() else {
            unreachable!("two passes were just pushed");
        };
        if plain.fingerprint != traced.fingerprint {
            return Err(format!(
                "{}: traced pass diverged from the untraced one",
                spec.name
            ));
        }
    }
    if let Some(dir) = &args.out {
        write_outputs(dir, args, seconds, &results)?;
    }
    Ok(())
}

/// `results.json` (every metric, per-episode values, fingerprints, the
/// frozen constants; a `skipped` record for a workload this machine
/// cannot run) and one `spans-<workload>.json` per traced pass.
fn write_outputs(
    dir: &Path,
    args: &Args,
    seconds: f64,
    results: &[RunResult],
) -> Result<(), String> {
    let mut workloads: Vec<String> = Vec::new();
    for spec in spec::specs() {
        let passes: Vec<&RunResult> = results.iter().filter(|r| r.workload == spec.name).collect();
        let Some(first) = passes.first() else {
            if let Some(reason) = skip_reason(&spec) {
                workloads.push(format!(
                    "    {}: {{\"skipped\": {}}}",
                    json::quote(spec.name),
                    json::quote(&reason)
                ));
            }
            continue;
        };
        let mut members = vec![
            format!("\"constants\": {}", first.constants),
            format!(
                "\"fingerprint\": {}",
                first
                    .fingerprint
                    .map_or("null".into(), |f| json::quote(&f.to_string()))
            ),
            format!("\"join_samples\": {}", first.join_samples),
        ];
        for pass in passes {
            members.push(format!(
                "\"{}\": {}",
                if pass.traced {
                    "per_layer"
                } else {
                    "end_to_end"
                },
                pass.metrics_json()
            ));
            if let Some(tracer) = &pass.tracer {
                write(
                    dir,
                    &format!("spans-{}.json", spec.name),
                    &tracer.chrome_json(),
                )?;
            }
        }
        workloads.push(format!(
            "    {}: {{\n    {}\n    }}",
            json::quote(spec.name),
            members.join(",\n    ")
        ));
    }
    write(
        dir,
        "results.json",
        &format!(
            "{{\n  \"meta\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            meta_json(args, seconds),
            workloads.join(",\n")
        ),
    )
}

/// The `end_to_end` table of `BENCHMARK.json`: `(name, higher is
/// better, bound)`.
fn contract_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let contract = json::parse(BENCHMARK_JSON)?;
    contract
        .get("end_to_end")
        .as_array()
        .iter()
        .map(|m| {
            Some((
                m.get("name").as_str()?.to_string(),
                m.get("better").as_str()? == "higher",
                m.get("bound").as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(|| "BENCHMARK.json: malformed end_to_end entry".to_string())
}

/// The workloads `BENCHMARK.json` names: the ones with bounds.
fn contract_workloads() -> Result<Vec<String>, String> {
    let contract = json::parse(BENCHMARK_JSON)?;
    Ok(contract
        .get("workloads")
        .as_array()
        .iter()
        .filter_map(|w| w.get("name").as_str().map(String::from))
        .collect())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

/// One side of a comparison: the value a run reported for a metric
/// and the per-episode values it was picked from.
struct Side {
    value: f64,
    runs: Vec<f64>,
}

/// Judges a change `b` against its parent `a` for one metric:
/// `regressed` when the reported value got worse by more than `bound`;
/// otherwise `unresolved` when either side's episodes spread (quartile
/// range over median) wider than the bound, unless every episode of the
/// change beats every episode of the parent; otherwise `ok`. Returns
/// the verdict and the signed worsening as a share of the parent's value.
fn judge(a: &Side, b: &Side, higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let worse_by = if a.value == 0.0 {
        0.0
    } else {
        sign * (b.value - a.value) / a.value.abs()
    };
    let spread = stats::relative_iqr(&a.runs).max(stats::relative_iqr(&b.runs));
    let all_better = a
        .runs
        .iter()
        .all(|x| b.runs.iter().all(|y| sign * (y - x) < 0.0));
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse_by)
}

/// A metric of a results file (`None` when it is missing).
fn side_of(metric: &json::Value) -> Option<Side> {
    let value = metric.get("value").as_f64()?;
    let runs: Vec<f64> = metric
        .get("runs")
        .as_array()
        .iter()
        .filter_map(json::Value::as_f64)
        .collect();
    Some(Side {
        value,
        runs: if runs.is_empty() { vec![value] } else { runs },
    })
}

fn compare(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err(format!("compare needs two result files\n{}", usage()));
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|text| json::parse(&text))
    };
    compare_docs(&load(a)?, &load(b)?)
}

/// `true` when no end-to-end metric of a contract workload regressed
/// from `a` to `b` (a metric `b` no longer reports has).
fn compare_docs(a: &json::Value, b: &json::Value) -> Result<bool, String> {
    let bounds = contract_bounds()?;
    let mut regressed = false;
    println!(
        "{:<14} {:<32} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for workload in contract_workloads()? {
        let e2e = |doc: &json::Value, metric: &str| {
            side_of(
                doc.get("workloads")
                    .get(&workload)
                    .get("end_to_end")
                    .get(metric),
            )
        };
        for (metric, higher, bound) in &bounds {
            let (sa, sb) = match (e2e(a, metric), e2e(b, metric)) {
                (Some(sa), Some(sb)) => (sa, sb),
                // A change that stopped reporting a number has not kept it.
                (Some(_), None) => {
                    regressed = true;
                    println!("{workload:<14} {metric:<32} missing from B  regressed");
                    continue;
                }
                (None, _) => {
                    println!("{workload:<14} {metric:<32} missing from A  unresolved");
                    continue;
                }
            };
            let (verdict, worse_by) = judge(&sa, &sb, *higher, *bound);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<14} {:<32} {:>14.4} {:>14.4} {:>+8.2}% {:>6.1}%  {}",
                workload,
                metric,
                sa.value,
                sb.value,
                100.0 * worse_by,
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "regressed",
                }
            );
        }
    }
    Ok(!regressed)
}

/// Runs every workload of the contract (or the one `--workload` names)
/// `--runs` times, each on another seed as the benchmark driver does,
/// and prints each end-to-end metric's quartile spread as a share of
/// its median next to its bound. The bounds in `BENCHMARK.json` were
/// set from this: at least three times the spread seen, at most the
/// contract's 25 %.
fn calibrate(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or_else(|| default_seconds(args.smoke));
    let bounds = contract_bounds()?;
    println!(
        "{:<14} {:<32} {:>14} {:>9} {:>7}  steady",
        "workload", "metric", "median", "rel IQR", "bound"
    );
    let names = match &args.workload {
        Some(name) => vec![name.clone()],
        None => contract_workloads()?,
    };
    for spec in workloads(args.smoke) {
        if !names.iter().any(|n| n == spec.name) {
            continue;
        }
        if let Some(reason) = skip_reason(&spec) {
            println!("== {} skipped: {reason}", spec.name);
            continue;
        }
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        for k in 0..args.runs {
            stats::reset_peak_rss();
            let result = report::run(&spec, args.seed + k as u64, seconds, false, args.smoke)?;
            for (slot, (name, ..)) in values.iter_mut().zip(&bounds) {
                let metric = result.metrics.iter().find(|m| m.name == name);
                slot.push(metric.map_or(0.0, |m| m.value));
            }
        }
        for (v, (name, _, bound)) in values.iter().zip(&bounds) {
            let spread = stats::relative_iqr(v);
            println!(
                "{:<14} {:<32} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                spec.name,
                name,
                stats::median(v),
                100.0 * spread,
                100.0 * bound,
                if spread * 3.0 <= *bound {
                    "yes"
                } else {
                    "NO: spread above a third of the bound"
                }
            );
        }
    }
    Ok(())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    match args.command.as_deref() {
        Some("compare") => compare(&args.files),
        Some("calibrate") => calibrate(&args).map(|()| true),
        _ => match &args.workload {
            Some(name) => run_one(&args, name).map(|()| true),
            None => run_matrix(&args).map(|()| true),
        },
    }
}

fn main() {
    // Every store lives in a `TempDir` owned by a value on this stack,
    // so by the time the exit code is chosen they are all removed.
    match real_main() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("fleetbench: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(name: &str) -> Spec {
        workloads(true)
            .into_iter()
            .find(|s| s.name == name)
            .expect("known workload")
    }

    #[test]
    fn same_seed_same_fingerprint_other_seed_another() {
        let spec = smoke("flash_crowd");
        let a = episode::run(&spec, 7, false).expect("episode passes its gate");
        let b = episode::run(&spec, 7, true).expect("episode passes its gate");
        let c = episode::run(&spec, 8, false).expect("episode passes its gate");
        assert_eq!(
            a.fingerprint, b.fingerprint,
            "tracing must not change the run"
        );
        assert_ne!(a.fingerprint, c.fingerprint);
        assert!(a.joins > 0 && a.hops > 0 && a.participant_minutes > 0.0);
        assert!(b.tracer.unattributed_fraction() < 0.5);
    }

    /// Every workload, both passes, emits exactly the metrics
    /// `BENCHMARK.json` names, with its units.
    #[test]
    fn runs_emit_the_contract_metrics() {
        let contract = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let named = |key: &str| -> Vec<(String, String)> {
            contract
                .get(key)
                .as_array()
                .iter()
                .map(|m| {
                    (
                        m.get("name").as_str().expect("name").to_string(),
                        m.get("unit").as_str().expect("unit").to_string(),
                    )
                })
                .collect()
        };
        let listed: Vec<&str> = contract
            .get("workloads")
            .as_array()
            .iter()
            .filter_map(|w| w.get("name").as_str())
            .collect();
        // The contract gates on every workload but the wall-clock one
        // (README: its numbers follow the host's wake-up latency).
        let specs = workloads(true);
        let gated: Vec<&str> = specs.iter().filter(|s| !s.wall).map(|s| s.name).collect();
        assert_eq!(listed, gated);
        for spec in specs
            .iter()
            .filter(|s| s.name == "storm_recover" || s.wall)
            .filter(|s| skip_reason(s).is_none())
        {
            for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
                let result = report::run(spec, 3, 0.0, traced, true).expect("run passes its gate");
                let emitted: Vec<(String, String)> = result
                    .metrics
                    .iter()
                    .map(|m| (m.name.to_string(), m.unit.to_string()))
                    .collect();
                assert_eq!(emitted, named(key), "{} {key}", spec.name);
                let line = json::parse(&result.contract_line()).expect("contract line parses");
                assert_eq!(line.get("correct"), &json::Value::Bool(true));
                assert!(line.get("attempted").as_f64().is_some_and(|n| n >= 1.0));
                assert_eq!(line.get("failed").as_f64(), Some(0.0));
            }
        }
    }

    #[test]
    fn judge_marks_regressed_unresolved_ok() {
        let side = |runs: &[f64]| Side {
            value: stats::median(runs),
            runs: runs.to_vec(),
        };
        let steady = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let slower = side(&[120.0, 121.0, 119.0, 120.5, 119.5]);
        let noisy = side(&[100.0, 140.0, 70.0, 125.0, 80.0]);
        let clearly_better = side(&[50.0, 60.0, 40.0, 65.0, 45.0]);
        assert_eq!(judge(&steady, &slower, false, 0.1).0, Verdict::Regressed);
        assert_eq!(
            judge(&steady, &slower, true, 0.1).0,
            Verdict::Ok,
            "higher is better"
        );
        assert_eq!(judge(&steady, &steady, false, 0.1).0, Verdict::Ok);
        assert_eq!(judge(&steady, &noisy, false, 0.1).0, Verdict::Unresolved);
        assert_eq!(judge(&steady, &clearly_better, false, 0.1).0, Verdict::Ok);
        let (_, worse_by) = judge(&steady, &slower, false, 0.1);
        assert!((worse_by - 0.2).abs() < 1e-9);
    }

    #[test]
    fn compare_fails_a_side_that_lost_a_metric() {
        let doc = |drop: Option<(&str, &str)>| {
            let workloads: Vec<String> = contract_workloads()
                .expect("contract parses")
                .iter()
                .map(|w| {
                    let metrics: Vec<String> = contract_bounds()
                        .expect("contract parses")
                        .iter()
                        .filter(|(m, ..)| drop != Some((w.as_str(), m.as_str())))
                        .map(|(m, ..)| format!("\"{m}\": {{\"value\": 1.5, \"runs\": [1.5]}}"))
                        .collect();
                    format!("\"{w}\": {{\"end_to_end\": {{{}}}}}", metrics.join(", "))
                })
                .collect();
            json::parse(&format!("{{\"workloads\": {{{}}}}}", workloads.join(", ")))
                .expect("test document parses")
        };
        let (full, partial) = (doc(None), doc(Some(("flash_crowd", "recover_s"))));
        assert_eq!(compare_docs(&full, &full), Ok(true));
        assert_eq!(compare_docs(&full, &partial), Ok(false));
        assert_eq!(compare_docs(&partial, &full), Ok(true), "a new metric");
        let empty = json::parse("{\"workloads\": {}}").expect("parses");
        assert_eq!(compare_docs(&full, &empty), Ok(false), "a partial run");
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload wall_race --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("wall_race"), 9, Some(3.0), Some(true))
        );
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
        assert_eq!(
            parse("compare a.json b.json").expect("valid").files.len(),
            2
        );
    }
}
