//! Experiment runner: regenerates every table and figure of the paper.
//!
//! ```text
//! cargo run -p vc-bench --release --bin experiments -- <id>... [--scenarios N] [--duration S]
//! ids: fig2 fig4 fig5 fig6 fig7 table2 fig8 fig9 fig10 theorem1 robust migration
//!      ablation churn hop_bench admission_parity obs_overhead chaos elastic all
//!
//! cargo run -p vc-bench --release --bin experiments -- check <id>...
//! ```
//!
//! This binary proves; it does not time. Its experiments establish what
//! only they establish — the paper's figures, admission parity,
//! conservation, allocation bounds, healing, the observability overhead
//! budget — and `check` re-runs each id that emits a `BENCH_*.json` in
//! memory and diffs it against the committed file: a gated value
//! (flag, admitted fraction, violation count) that differs in *either*
//! direction exits non-zero, every clock reading is printed with its
//! ratio to the committed one and never fails (see `vc_bench::check`).
//! Wall-clock numbers are gated by `fleetbench` alone.
//! An unknown experiment id prints the valid ids and exits with
//! status 2 (asserted in CI), so a typo in an automation script fails
//! the job instead of silently running nothing.
//!
//! The binary installs a counting global allocator so `hop_bench` and
//! `admission_parity` can report heap allocations per hop / engine
//! search (the overhead is one relaxed atomic increment per allocation
//! — irrelevant to every other experiment).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use vc_bench::experiments::table2::Table2Config;
use vc_bench::experiments::*;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper counting every allocation (including
/// `realloc`, which may move).
struct CountingAllocator;

// SAFETY: delegates every operation to `System` unchanged; the counter
// is a relaxed atomic with no effect on allocation semantics.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[derive(Debug, Clone)]
struct Options {
    ids: Vec<String>,
    /// `--scenarios`: how many random scenarios a paper sweep averages
    /// (default 100). One documented override: `admission_parity` reads
    /// it as the size of its large fleet.
    scenarios: Option<usize>,
    duration_s: f64,
    seed: u64,
    /// `check` mode: diff fresh runs against committed baselines
    /// instead of printing/overwriting them.
    check: bool,
}

impl Options {
    /// `--duration` if given, else the experiment's own default.
    fn duration_or(&self, default_s: f64) -> f64 {
        if self.duration_s > 0.0 {
            self.duration_s
        } else {
            default_s
        }
    }

    /// Random scenarios per paper sweep.
    fn paper_scenarios(&self) -> usize {
        self.scenarios.unwrap_or(100)
    }
}

/// One finished experiment: how to print it and — for the experiments
/// that emit a `BENCH_*.json` — the document `check` diffs.
struct Output {
    print: Box<dyn FnOnce()>,
    json: Option<String>,
}

/// A paper table/figure: printed, no baseline document.
fn shown<R: 'static>(result: R, print: impl FnOnce(&R) + 'static) -> Output {
    Output {
        print: Box::new(move || print(&result)),
        json: None,
    }
}

/// A benchmark: `print` also writes the document `to_json` renders.
fn measured<R: 'static>(result: R, to_json: fn(&R) -> String, print: fn(&R)) -> Output {
    Output {
        json: Some(to_json(&result)),
        print: Box::new(move || print(&result)),
    }
}

/// One row of the registry: every place that needs the id list, the
/// `check` set or an experiment's parameters reads it from here.
struct Experiment {
    id: &'static str,
    /// The committed baseline `check` diffs a fresh run against.
    baseline: Option<&'static str>,
    /// Runs the experiment with its parameters derived from `Options`.
    run: fn(&Options) -> Output,
}

const fn table(id: &'static str, run: fn(&Options) -> Output) -> Experiment {
    Experiment {
        id,
        baseline: None,
        run,
    }
}

const fn bench(
    id: &'static str,
    baseline: &'static str,
    run: fn(&Options) -> Output,
) -> Experiment {
    Experiment {
        id,
        baseline: Some(baseline),
        run,
    }
}

/// `table2` and `fig8` print two views of one result; it is computed
/// once per process however many of the two ids are asked for.
fn table2_result(opts: &Options) -> &'static table2::Table2Result {
    static RESULT: OnceLock<table2::Table2Result> = OnceLock::new();
    RESULT.get_or_init(|| {
        table2::run(&Table2Config {
            scenarios: opts.paper_scenarios(),
            duration_s: opts.duration_or(400.0),
            ..Table2Config::default()
        })
    })
}

/// Fig. 9's two sweeps. The paper sweeps 400–900 Mbps; our synthetic
/// workload's feasibility transition sits higher (users are placed
/// farther from agents, so last-mile + inter-agent loads are heavier)
/// — the grid brackets *our* transition.
fn fig9_output(o: &Options) -> Output {
    let bandwidth = [800.0, 1000.0, 1200.0, 1400.0, 1600.0];
    let slots = [20.0, 30.0, 40.0, 50.0, 60.0];
    let sweeps = (
        fig9::run_bandwidth(&bandwidth, o.paper_scenarios(), o.seed),
        fig9::run_transcode(&slots, o.paper_scenarios(), o.seed),
    );
    shown(sweeps, |(a, b)| {
        fig9::print(
            "Fig. 9(a) — successful initializations vs mean bandwidth capacity",
            "mean bandwidth (Mbps)",
            a,
        );
        fig9::print(
            "\nFig. 9(b) — successful initializations vs mean transcoding capacity",
            "mean slots (#)",
            b,
        );
    })
}

const EXPERIMENTS: [Experiment; 19] = [
    table("fig2", |_| shown(fig2::run(), fig2::print)),
    table("fig4", |o| {
        shown(fig4::run(o.duration_or(200.0), o.seed), fig4::print)
    }),
    table("fig5", |o| {
        shown(fig5::run(o.duration_or(120.0), o.seed), fig5::print)
    }),
    table("fig6", |o| {
        shown(fig6::run(o.duration_or(100.0), o.seed), fig6::print)
    }),
    table("fig7", |o| {
        shown(fig7::run(o.duration_or(200.0), o.seed), fig7::print)
    }),
    table("table2", |o| shown(table2_result(o), |r| table2::print(r))),
    table("fig8", |o| {
        shown(fig8::from_table2(table2_result(o)), |b| fig8::print(b))
    }),
    table("fig9", fig9_output),
    table("fig10", |o| {
        let points = fig10::run(&[1, 2, 3, 4, 5, 6, 7], o.paper_scenarios().min(30), o.seed);
        shown(points, |p| fig10::print(p))
    }),
    // Objective values of the Fig. 3 instance are O(100–1000), so the
    // informative β range starts well below 1.
    table("theorem1", |_| {
        let rows = theorem1::run(&[0.001, 0.01, 0.1, 1.0, 100.0, 400.0], &[0.0, 2.0, 10.0]);
        shown(rows, |r| theorem1::print(r))
    }),
    table("robust", |o| {
        let points = robust::run(&[0.0, 1.0, 5.0, 20.0, 80.0], o.duration_or(300.0), 5);
        shown(points, |p| robust::print(p))
    }),
    table("migration", |_| {
        shown(migration::run(&[20.0, 30.0, 50.0, 80.0, 110.0]), |p| {
            migration::print(p)
        })
    }),
    table("ablation", |o| {
        let params = (o.paper_scenarios().min(30), o.duration_or(300.0), o.seed);
        shown(params, |&(scenarios, d, seed)| {
            ablation::print_all(scenarios, d, seed)
        })
    }),
    table("churn", |o| {
        shown(churn::run(o.duration_or(200.0), o.seed), churn::print)
    }),
    // `--duration` (seconds) sets the per-config wall budget of the
    // concurrent runs; default 2 s each.
    bench("hop_bench", "BENCH_hop.json", |o| {
        let wall_ms = (o.duration_or(2.0) * 1e3) as u64;
        let result = hop_bench::run(
            &[1_000, 10_000, 100_000],
            (10_000, &[5, 8, 16]),
            wall_ms,
            o.seed,
        );
        measured(result, hop_bench::to_json, hop_bench::print)
    }),
    // `--scenarios` sets the large fleet's size in sessions (default
    // ≈1k and ≈12k sessions, the hop-bench scale; at least 100).
    bench("admission_parity", "BENCH_admission.json", |o| {
        let large = o.scenarios.map_or(12_000, |n| n.max(100));
        let result = admission_parity::run(&[1_000, large], o.seed);
        measured(result, admission_parity::to_json, admission_parity::print)
    }),
    // `--duration` sets the virtual horizon. Windows of a few tens of
    // milliseconds, so machine-noise bursts span several consecutive
    // windows and cancel in the per-window ratio — 16 virtual seconds:
    // this no-churn fleet re-reads its sweeps on nearly every hop, at
    // well under a microsecond each, and ≈38k hops fill the ≈20 ms
    // that ≈4.8k took when every hop swept (the enabled twin's one
    // watchdog observation per window is ≈80 µs whatever the window
    // holds); 256 pairs so the median's own sampling error shrinks to
    // a fraction of the budget (see the obs_overhead module docs).
    bench("obs_overhead", "BENCH_obs_overhead.json", |o| {
        let result = obs_overhead::run(2_000, o.duration_or(16.0), 256, o.seed);
        measured(result, obs_overhead::to_json, obs_overhead::print)
    }),
    // Agent scales (sessions = 2 × agents).
    bench("chaos", "BENCH_chaos.json", |o| {
        measured(chaos::run(&[3, 6, 9], o.seed), chaos::to_json, chaos::print)
    }),
    // A 200-user seed; the pool doubles once per tier (7 → 7·2⁴ agents).
    bench("elastic", "BENCH_elastic.json", |o| {
        let result = elastic::run(200, 4, o.seed);
        measured(result, elastic::to_json, elastic::print)
    }),
];

fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

fn ids_where(keep: impl Fn(&Experiment) -> bool) -> Vec<&'static str> {
    EXPERIMENTS
        .iter()
        .filter(|e| keep(e))
        .map(|e| e.id)
        .collect()
}

fn usage() -> ! {
    eprintln!("usage: experiments [check] <id>... [--scenarios N] [--duration S] [--seed K]");
    eprintln!("ids: {} all", ids_where(|_| true).join(" "));
    eprintln!(
        "check ids: {}",
        ids_where(|e| e.baseline.is_some()).join(" ")
    );
    std::process::exit(2)
}

fn parse_args() -> Options {
    let mut opts = Options {
        ids: Vec::new(),
        scenarios: None,
        duration_s: 0.0, // 0 = per-experiment default
        seed: 2015,
        check: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenarios" => {
                opts.scenarios = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--duration" => {
                opts.duration_s = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "check" if opts.ids.is_empty() && !opts.check => opts.check = true,
            "all" => opts
                .ids
                .extend(EXPERIMENTS.iter().map(|e| e.id.to_string())),
            id if experiment(id).is_some() => opts.ids.push(id.to_string()),
            unknown if unknown.starts_with("--") => {
                eprintln!("unknown option '{unknown}'");
                usage()
            }
            unknown => {
                eprintln!("unknown experiment id '{unknown}'; valid ids are:");
                for e in &EXPERIMENTS {
                    eprintln!("  {}", e.id);
                }
                eprintln!("  all");
                std::process::exit(2)
            }
        }
    }
    if opts.ids.is_empty() {
        if opts.check {
            // Bare `check` (what CI invokes) means "check everything
            // that has a committed baseline".
            let checkable = ids_where(|e| e.baseline.is_some());
            opts.ids.extend(checkable.iter().map(|id| id.to_string()));
        } else {
            usage();
        }
    }
    opts
}

/// The `check` mode: baseline first (before anything could overwrite
/// it), then the fresh in-memory run, then the diff. Returns the
/// number of failed ids.
fn run_checks(opts: &Options) -> usize {
    let mut failed = 0usize;
    for id in &opts.ids {
        let exp = experiment(id).expect("ids validated in parse_args");
        let Some(baseline_file) = exp.baseline else {
            eprintln!("'{id}' has no committed baseline; check ids are:");
            for e in &EXPERIMENTS {
                if let Some(file) = e.baseline {
                    eprintln!("  {} ({file})", e.id);
                }
            }
            std::process::exit(2)
        };
        let baseline = match std::fs::read_to_string(baseline_file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("check {id}: cannot read committed {baseline_file}: {e}");
                failed += 1;
                continue;
            }
        };
        println!("check {id}: re-running against {baseline_file} ...");
        let started = std::time::Instant::now();
        let current = (exp.run)(opts)
            .json
            .expect("an experiment with a baseline renders its document");
        match vc_bench::check::compare(id, &baseline, &current) {
            Ok(report) => {
                for note in &report.notes {
                    println!("  note: {note}");
                }
                for moved in &report.ungated {
                    println!("  not gated: {moved}");
                }
                for failure in &report.failures {
                    eprintln!("  FAIL: {failure}");
                }
                if report.failures.is_empty() {
                    println!(
                        "  ok: {} gated value(s) reproduced exactly [{:.1}s]",
                        report.compared,
                        started.elapsed().as_secs_f64()
                    );
                } else {
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("  FAIL: {e}");
                failed += 1;
            }
        }
    }
    failed
}

fn main() {
    // Surface the counting allocator through vc-obs so every consumer
    // (hop_bench, admission_parity, obs JSON exports) reads the same
    // counter.
    vc_obs::register_alloc_counter(alloc_count);
    let opts = parse_args();
    if opts.check {
        let failed = run_checks(&opts);
        if failed > 0 {
            eprintln!("\n{failed} check(s) failed");
            std::process::exit(1);
        }
        println!("\nall checks passed");
        return;
    }
    for id in &opts.ids {
        let started = std::time::Instant::now();
        println!("\n================================================================");
        let exp = experiment(id).expect("ids validated in parse_args");
        ((exp.run)(&opts).print)();
        eprintln!("[{id} finished in {:.1}s]", started.elapsed().as_secs_f64());
    }
}
