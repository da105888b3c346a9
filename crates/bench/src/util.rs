//! Shared harness utilities: scenario parallelism and table printing.

use vc_model::TimeSeries;

/// Runs `f(seed)` for `seeds`, in parallel across worker threads, and
/// returns results in seed order. Used to evaluate the paper's "100
/// random scenarios" sweeps.
pub fn par_map_seeds<T, F>(seeds: &[u64], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(u64) -> T + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(seeds.len().max(1));
    let mut results: Vec<Option<T>> = (0..seeds.len()).map(|_| None).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results_mutex = std::sync::Mutex::new(&mut results);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                if i >= seeds.len() {
                    break;
                }
                let value = f(seeds[i]);
                let mut guard = results_mutex.lock().expect("no poisoned workers");
                guard[i] = Some(value);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("all seeds ran"))
        .collect()
}

/// Prints labeled time series side by side, sampled every `step` seconds.
pub fn print_series_table(series: &[(&str, &TimeSeries)], step: f64) {
    print!("{:>8}", "time_s");
    for (label, _) in series {
        print!(" {label:>16}");
    }
    println!();
    let max_t = series
        .iter()
        .filter_map(|(_, s)| s.points().last().map(|&(t, _)| t))
        .fold(0.0f64, f64::max);
    let mut t = 0.0;
    while t <= max_t + 1e-9 {
        print!("{t:>8.0}");
        for (_, s) in series {
            match s.value_at(t) {
                Some(v) => print!(" {v:>16.2}"),
                None => print!(" {:>16}", "-"),
            }
        }
        println!();
        t += step;
    }
}

/// Mean of a slice (NaN on empty input is fine for reporting).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_seed_order() {
        let seeds: Vec<u64> = (0..32).collect();
        let out = par_map_seeds(&seeds, |s| s * 2);
        assert_eq!(out, seeds.iter().map(|s| s * 2).collect::<Vec<_>>());
    }

    #[test]
    fn mean_of_values() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }
}
