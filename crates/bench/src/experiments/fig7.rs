//! Fig. 7 — per-session traces: three sample sessions with 5, 4 and 3
//! users, from the same prototype run.

use super::prototype_nrst_state;
use crate::util::print_series_table;
use vc_model::SessionId;
use vc_sim::{ConferenceSim, SimConfig, SimReport};

/// The experiment output.
#[derive(Debug)]
pub struct Fig7Result {
    /// The underlying run.
    pub report: SimReport,
    /// The chosen sample sessions and their sizes.
    pub samples: Vec<(SessionId, usize)>,
}

/// Runs the prototype and picks one session of each size 5, 4, 3.
pub fn run(duration_s: f64, seed: u64) -> Fig7Result {
    let state = prototype_nrst_state(seed);
    let problem = state.problem().clone();
    let mut samples = Vec::new();
    for want in [5usize, 4, 3] {
        if let Some(s) = problem
            .instance()
            .sessions()
            .iter()
            .find(|s| s.len() == want && !samples.iter().any(|&(id, _)| id == s.id()))
        {
            samples.push((s.id(), want));
        }
    }
    let report = ConferenceSim::new(state, SimConfig::paper_default(duration_s, seed)).run();
    Fig7Result { report, samples }
}

/// Prints per-session traffic and delay series.
pub fn print(result: &Fig7Result) {
    println!("Fig. 7 — per-session evolution under Alg. 1 (β = 400)");
    println!("\n(a) inter-agent traffic (Mbps)");
    let labels: Vec<String> = result
        .samples
        .iter()
        .map(|(id, n)| format!("s{} ({n} users)", id.index()))
        .collect();
    let traffic: Vec<(&str, &vc_model::TimeSeries)> = result
        .samples
        .iter()
        .zip(&labels)
        .map(|(&(id, _), l)| (l.as_str(), &result.report.per_session_traffic[id.index()]))
        .collect();
    print_series_table(&traffic, 10.0);
    println!("\n(b) conferencing delay (ms)");
    let delay: Vec<(&str, &vc_model::TimeSeries)> = result
        .samples
        .iter()
        .zip(&labels)
        .map(|(&(id, _), l)| (l.as_str(), &result.report.per_session_delay[id.index()]))
        .collect();
    print_series_table(&delay, 10.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_sessions_of_each_size() {
        let r = run(10.0, 2015);
        // The default prototype seed has sessions of all three sizes.
        assert_eq!(r.samples.len(), 3);
        let sizes: Vec<usize> = r.samples.iter().map(|&(_, n)| n).collect();
        assert_eq!(sizes, vec![5, 4, 3]);
    }

    #[test]
    fn per_session_series_are_recorded() {
        let r = run(15.0, 2015);
        for &(id, _) in &r.samples {
            assert!(!r.report.per_session_traffic[id.index()].is_empty());
        }
    }
}
