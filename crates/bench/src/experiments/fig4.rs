//! Fig. 4 — evolution of traffic and delay over 200 s under Alg. 1 with
//! β ∈ {200, 400}, initialized by Nrst.

use super::prototype_nrst_state;
use crate::util::print_series_table;
use vc_algo::markov::Alg1Config;
use vc_sim::{ConferenceSim, SimConfig, SimReport};

/// The experiment output: one report per β.
#[derive(Debug)]
pub struct Fig4Result {
    /// `(β, report)` pairs.
    pub runs: Vec<(f64, SimReport)>,
}

/// Runs both β settings over the same workload and seed.
pub fn run(duration_s: f64, seed: u64) -> Fig4Result {
    let runs = [200.0, 400.0]
        .into_iter()
        .map(|beta| {
            let state = prototype_nrst_state(seed);
            let mut config = SimConfig::paper_default(duration_s, seed);
            config.alg1 = Alg1Config::paper(beta);
            (beta, ConferenceSim::new(state, config).run())
        })
        .collect();
    Fig4Result { runs }
}

/// Prints the two series side by side (10-second grid).
pub fn print(result: &Fig4Result) {
    println!("Fig. 4 — Alg. 1 from the Nrst initial assignment (prototype scale)");
    println!("\n(a) inter-agent traffic (Mbps)");
    let traffic: Vec<(String, &vc_model::TimeSeries)> = result
        .runs
        .iter()
        .map(|(b, r)| (format!("beta={b}"), &r.traffic))
        .collect();
    let traffic_refs: Vec<(&str, &vc_model::TimeSeries)> =
        traffic.iter().map(|(l, s)| (l.as_str(), *s)).collect();
    print_series_table(&traffic_refs, 10.0);
    println!("\n(b) conferencing delay (ms)");
    let delay: Vec<(String, &vc_model::TimeSeries)> = result
        .runs
        .iter()
        .map(|(b, r)| (format!("beta={b}"), &r.delay))
        .collect();
    let delay_refs: Vec<(&str, &vc_model::TimeSeries)> =
        delay.iter().map(|(l, s)| (l.as_str(), *s)).collect();
    print_series_table(&delay_refs, 10.0);
    for (beta, r) in &result.runs {
        println!(
            "beta={beta}: traffic {:.1} → {:.1} Mbps, delay {:.1} → {:.1} ms, {} hops",
            r.traffic.first_value().unwrap_or(0.0),
            r.traffic.last_value().unwrap_or(0.0),
            r.delay.first_value().unwrap_or(0.0),
            r.delay.last_value().unwrap_or(0.0),
            r.hops.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alg1_reduces_traffic_from_nrst() {
        let r = run(120.0, 4);
        for (beta, report) in &r.runs {
            let first = report.traffic.first_value().unwrap();
            let last = report.traffic.last_value().unwrap();
            assert!(
                last < first,
                "beta {beta}: traffic did not fall ({first} → {last})"
            );
        }
    }

    #[test]
    fn both_betas_start_identically() {
        let r = run(30.0, 4);
        assert_eq!(
            r.runs[0].1.traffic.first_value(),
            r.runs[1].1.traffic.first_value()
        );
    }
}
