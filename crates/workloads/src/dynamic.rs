//! Dynamic fleet traces: session arrivals/departures and agent churn
//! over virtual time, feeding the `vc-orchestrator` control plane.
//!
//! The paper's evaluation injects "dynamics of conferencing sessions" by
//! starting and ending sessions mid-run (Fig. 6/7); this module
//! generalizes that into an open-world arrival process: a warm pool of
//! sessions live at `t = 0`, Poisson arrivals afterwards, exponential
//! holding times, plus scripted agent failures/recoveries.
//!
//! Traces are deterministic given their config (seed included).

use rand::{rngs::StdRng, Rng, SeedableRng};
use vc_model::{AgentId, SessionId};

pub use vc_model::{FleetEvent, FleetTrace};

/// Configuration of the arrival/departure process.
#[derive(Debug, Clone)]
pub struct DynamicTraceConfig {
    /// Virtual-time horizon (s); no event is generated past it.
    pub horizon_s: f64,
    /// Sessions already live at `t = 0` (admitted in id order).
    pub warm_sessions: usize,
    /// Mean inter-arrival gap of later sessions (s); `None` disables
    /// arrivals after the warm pool.
    pub mean_interarrival_s: Option<f64>,
    /// Mean session lifetime (s); exponential. Sessions whose drawn
    /// departure lands past the horizon simply stay live to the end.
    pub mean_holding_s: f64,
    /// Scripted agent failures `(time_s, agent)`.
    pub failures: Vec<(f64, AgentId)>,
    /// Scripted agent recoveries `(time_s, agent)`.
    pub restores: Vec<(f64, AgentId)>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DynamicTraceConfig {
    fn default() -> Self {
        Self {
            horizon_s: 60.0,
            warm_sessions: 0,
            mean_interarrival_s: Some(2.0),
            mean_holding_s: 120.0,
            failures: Vec::new(),
            restores: Vec::new(),
            seed: 1,
        }
    }
}

/// Generates a trace over `num_sessions` potential sessions (the
/// instance's session count): the first `warm_sessions` arrive at
/// `t = 0`, the rest arrive by the Poisson process until the horizon or
/// the session pool is exhausted; each arrival draws an exponential
/// holding time.
///
/// # Panics
///
/// Panics on a non-positive horizon or holding time, or when
/// `warm_sessions > num_sessions`.
pub fn dynamic_trace(num_sessions: usize, config: &DynamicTraceConfig) -> FleetTrace {
    assert!(config.horizon_s > 0.0, "horizon must be positive");
    assert!(config.mean_holding_s > 0.0, "holding time must be positive");
    assert!(
        config.warm_sessions <= num_sessions,
        "warm pool exceeds the session universe"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut exp = |mean: f64| -> f64 { -rng.gen::<f64>().max(1e-300).ln() * mean };

    let mut events: Vec<(f64, FleetEvent)> = Vec::new();
    let mut schedule = |arrive_at: f64, s: SessionId, exp: &mut dyn FnMut(f64) -> f64| {
        events.push((arrive_at, FleetEvent::Arrive(s)));
        let depart_at = arrive_at + exp(config.mean_holding_s);
        if depart_at <= config.horizon_s {
            events.push((depart_at, FleetEvent::Depart(s)));
        }
    };

    for i in 0..config.warm_sessions {
        schedule(0.0, SessionId::from(i), &mut exp);
    }
    if let Some(gap) = config.mean_interarrival_s {
        assert!(gap > 0.0, "inter-arrival gap must be positive");
        let mut t = 0.0;
        for i in config.warm_sessions..num_sessions {
            t += exp(gap);
            if t > config.horizon_s {
                break;
            }
            schedule(t, SessionId::from(i), &mut exp);
        }
    }
    for &(t, a) in &config.failures {
        if t <= config.horizon_s {
            events.push((t, FleetEvent::FailAgent(a)));
        }
    }
    for &(t, a) in &config.restores {
        if t <= config.horizon_s {
            events.push((t, FleetEvent::RestoreAgent(a)));
        }
    }
    // Stable sort keeps arrive-before-depart for equal timestamps.
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite event times"));
    FleetTrace { events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arrivals(trace: &FleetTrace) -> usize {
        trace.count(|e| matches!(e, FleetEvent::Arrive(_)))
    }

    #[test]
    fn warm_pool_arrives_at_zero() {
        let trace = dynamic_trace(
            50,
            &DynamicTraceConfig {
                warm_sessions: 10,
                mean_interarrival_s: None,
                ..DynamicTraceConfig::default()
            },
        );
        assert_eq!(arrivals(&trace), 10);
        for (t, e) in &trace.events {
            if matches!(e, FleetEvent::Arrive(_)) {
                assert_eq!(*t, 0.0);
            }
        }
    }

    #[test]
    fn events_are_time_ordered_and_bounded() {
        let trace = dynamic_trace(
            200,
            &DynamicTraceConfig {
                warm_sessions: 20,
                mean_interarrival_s: Some(0.5),
                mean_holding_s: 20.0,
                failures: vec![(30.0, AgentId::new(1))],
                restores: vec![(45.0, AgentId::new(1))],
                ..DynamicTraceConfig::default()
            },
        );
        for w in trace.events.windows(2) {
            assert!(w[0].0 <= w[1].0, "out of order: {w:?}");
        }
        assert!(trace.events.iter().all(|(t, _)| *t <= 60.0));
        assert!(arrivals(&trace) > 20, "Poisson arrivals missing");
    }

    #[test]
    fn each_session_departs_at_most_once_after_arriving() {
        let trace = dynamic_trace(
            100,
            &DynamicTraceConfig {
                warm_sessions: 30,
                mean_interarrival_s: Some(1.0),
                mean_holding_s: 10.0,
                ..DynamicTraceConfig::default()
            },
        );
        let mut arrived = std::collections::HashSet::new();
        let mut departed = std::collections::HashSet::new();
        for (_, e) in &trace.events {
            match e {
                FleetEvent::Arrive(s) => assert!(arrived.insert(*s), "double arrival {s}"),
                FleetEvent::Depart(s) => {
                    assert!(arrived.contains(s), "departure before arrival {s}");
                    assert!(departed.insert(*s), "double departure {s}");
                }
                _ => {}
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let config = DynamicTraceConfig {
            warm_sessions: 5,
            ..DynamicTraceConfig::default()
        };
        assert_eq!(dynamic_trace(40, &config), dynamic_trace(40, &config));
        let reference = dynamic_trace(40, &config);
        let other = dynamic_trace(40, &DynamicTraceConfig { seed: 2, ..config });
        assert_ne!(reference, other);
    }
}
