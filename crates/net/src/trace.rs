//! Synthetic RTT measurement traces.
//!
//! The paper's Internet-scale experiments use RTTs "measured for 5 weeks
//! at a granularity of one ping per second". We synthesize statistically
//! similar streams: a mean-reverting AR(1) process around the
//! geography-derived base delay, plus occasional congestion spikes with
//! exponential decay.

use rand::Rng;

/// Configuration of the AR(1)-plus-spikes trace generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Mean-reversion coefficient ρ ∈ [0, 1): higher is smoother.
    pub ar_coeff: f64,
    /// Standard deviation of the AR(1) innovations, as a fraction of the base delay.
    pub noise_frac: f64,
    /// Per-sample probability of a congestion spike.
    pub spike_prob: f64,
    /// Spike magnitude as a multiple of the base delay.
    pub spike_scale: f64,
    /// Per-sample exponential decay of an active spike.
    pub spike_decay: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            ar_coeff: 0.95,
            noise_frac: 0.03,
            spike_prob: 0.002,
            spike_scale: 0.8,
            spike_decay: 0.7,
        }
    }
}

/// A stateful generator of one-way-delay samples for a single node pair.
#[derive(Debug, Clone)]
pub struct RttTrace {
    base_ms: f64,
    config: TraceConfig,
    deviation: f64,
    spike: f64,
}

impl RttTrace {
    /// Creates a trace fluctuating around `base_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `base_ms` is negative or `ar_coeff` outside `[0, 1)`.
    pub fn new(base_ms: f64, config: TraceConfig) -> Self {
        assert!(base_ms >= 0.0, "base delay must be non-negative");
        assert!(
            (0.0..1.0).contains(&config.ar_coeff),
            "AR coefficient must be in [0, 1)"
        );
        Self {
            base_ms,
            config,
            deviation: 0.0,
            spike: 0.0,
        }
    }

    /// The base (long-run mean) delay in ms.
    pub fn base_ms(&self) -> f64 {
        self.base_ms
    }

    /// Draws the next sample (ms). Samples are serially correlated.
    pub fn next_sample<R: Rng + ?Sized>(&mut self, rng: &mut R) -> f64 {
        // Gaussian innovation via Box–Muller (rand_distr is not available offline).
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen::<f64>();
        let gauss = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.deviation =
            self.config.ar_coeff * self.deviation + self.config.noise_frac * self.base_ms * gauss;
        if rng.gen::<f64>() < self.config.spike_prob {
            self.spike += self.config.spike_scale * self.base_ms * rng.gen::<f64>();
        }
        self.spike *= self.config.spike_decay;
        (self.base_ms + self.deviation + self.spike).max(0.0)
    }

    /// Generates `n` consecutive samples.
    pub fn generate<R: Rng + ?Sized>(&mut self, n: usize, rng: &mut R) -> Vec<f64> {
        (0..n).map(|_| self.next_sample(rng)).collect()
    }
}

/// Time-varying delay matrices: one [`RttTrace`] per matrix entry,
/// advanced in lockstep — the "one ping per second" measurement stream
/// the paper's trace-driven experiments consume, synthesized.
#[derive(Debug, Clone)]
pub struct DelayTraceSet {
    base: vc_model::DelayMatrices,
    inter_traces: Vec<RttTrace>, // upper triangle, row-major
    user_traces: Vec<RttTrace>,  // full L×U, row-major
}

impl DelayTraceSet {
    /// Creates a trace set fluctuating around `base` delays.
    pub fn new(base: vc_model::DelayMatrices, config: TraceConfig) -> Self {
        let nl = base.num_agents();
        let nu = base.num_users();
        let mut inter_traces = Vec::new();
        for l in 0..nl {
            for k in (l + 1)..nl {
                inter_traces.push(RttTrace::new(base.inter_agent().at(l, k), config));
            }
        }
        let mut user_traces = Vec::with_capacity(nl * nu);
        for l in 0..nl {
            for u in 0..nu {
                user_traces.push(RttTrace::new(base.agent_user().at(l, u), config));
            }
        }
        Self {
            base,
            inter_traces,
            user_traces,
        }
    }

    /// The long-run mean matrices.
    pub fn base(&self) -> &vc_model::DelayMatrices {
        &self.base
    }

    /// Advances every trace by one sample period and returns the measured
    /// matrices (inter-agent kept symmetric, diagonal zero).
    pub fn advance<R: Rng + ?Sized>(&mut self, rng: &mut R) -> vc_model::DelayMatrices {
        let nl = self.base.num_agents();
        let nu = self.base.num_users();
        let mut d = vc_model::Matrix::filled(nl, nl, 0.0);
        let mut idx = 0;
        for l in 0..nl {
            for k in (l + 1)..nl {
                let v = self.inter_traces[idx].next_sample(rng);
                d.set(l, k, v);
                d.set(k, l, v);
                idx += 1;
            }
        }
        let mut h = vc_model::Matrix::filled(nl, nu, 0.0);
        for l in 0..nl {
            for u in 0..nu {
                h.set(l, u, self.user_traces[l * nu + u].next_sample(rng));
            }
        }
        vc_model::DelayMatrices::new(d, h).expect("traced delays remain valid")
    }
}

/// Summary statistics of a trace, for calibration tests and reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceStats {
    /// Arithmetic mean in ms.
    pub mean_ms: f64,
    /// Standard deviation in ms.
    pub std_ms: f64,
    /// Minimum sample in ms.
    pub min_ms: f64,
    /// Maximum sample in ms.
    pub max_ms: f64,
}

/// Computes summary statistics of a sample slice.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn trace_stats(samples: &[f64]) -> TraceStats {
    assert!(!samples.is_empty(), "cannot summarize an empty trace");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    TraceStats {
        mean_ms: mean,
        std_ms: var.sqrt(),
        min_ms: samples.iter().copied().fold(f64::INFINITY, f64::min),
        max_ms: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn trace_hovers_around_base() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut t = RttTrace::new(80.0, TraceConfig::default());
        let samples = t.generate(20_000, &mut rng);
        let stats = trace_stats(&samples);
        assert!(
            (stats.mean_ms - 80.0).abs() < 8.0,
            "mean drifted: {}",
            stats.mean_ms
        );
        assert!(stats.min_ms >= 0.0);
    }

    #[test]
    fn spikes_produce_heavy_upper_tail() {
        let mut rng = StdRng::seed_from_u64(7);
        let config = TraceConfig {
            spike_prob: 0.05,
            spike_scale: 2.0,
            ..TraceConfig::default()
        };
        let mut t = RttTrace::new(50.0, config);
        let samples = t.generate(10_000, &mut rng);
        let stats = trace_stats(&samples);
        assert!(
            stats.max_ms > 75.0,
            "expected spikes above 1.5× base, max {}",
            stats.max_ms
        );
    }

    #[test]
    fn samples_are_serially_correlated() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut t = RttTrace::new(100.0, TraceConfig::default());
        let xs = t.generate(5_000, &mut rng);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let num: f64 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let den: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum();
        let lag1 = num / den;
        assert!(
            lag1 > 0.7,
            "expected strong lag-1 autocorrelation, got {lag1}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = RttTrace::new(60.0, TraceConfig::default());
        let mut b = RttTrace::new(60.0, TraceConfig::default());
        let xs = a.generate(100, &mut StdRng::seed_from_u64(5));
        let ys = b.generate(100, &mut StdRng::seed_from_u64(5));
        assert_eq!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn stats_of_empty_panics() {
        let _ = trace_stats(&[]);
    }

    #[test]
    fn delay_trace_set_preserves_matrix_invariants() {
        use vc_model::{DelayMatrices, Matrix};
        let d = Matrix::from_rows(
            3,
            3,
            vec![0.0, 60.0, 90.0, 60.0, 0.0, 40.0, 90.0, 40.0, 0.0],
        )
        .unwrap();
        let h = Matrix::from_rows(3, 2, vec![10.0, 20.0, 30.0, 40.0, 50.0, 60.0]).unwrap();
        let base = DelayMatrices::new(d, h).unwrap();
        let mut set = DelayTraceSet::new(base, TraceConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            let m = set.advance(&mut rng);
            assert_eq!(m.num_agents(), 3);
            for l in 0..3 {
                assert_eq!(m.inter_agent().at(l, l), 0.0);
                for k in 0..3 {
                    assert_eq!(m.inter_agent().at(l, k), m.inter_agent().at(k, l));
                    assert!(m.inter_agent().at(l, k) >= 0.0);
                }
            }
        }
    }

    #[test]
    fn delay_traces_average_to_base() {
        use vc_model::{DelayMatrices, Matrix};
        let d = Matrix::from_rows(2, 2, vec![0.0, 80.0, 80.0, 0.0]).unwrap();
        let h = Matrix::from_rows(2, 1, vec![25.0, 35.0]).unwrap();
        let base = DelayMatrices::new(d, h).unwrap();
        let mut set = DelayTraceSet::new(base, TraceConfig::default());
        let mut rng = StdRng::seed_from_u64(12);
        let n = 20_000;
        let mut sum_inter = 0.0;
        let mut sum_user = 0.0;
        for _ in 0..n {
            let m = set.advance(&mut rng);
            sum_inter += m.inter_agent().at(0, 1);
            sum_user += m.agent_user().at(0, 0);
        }
        let mean_inter = sum_inter / n as f64;
        let mean_user = sum_user / n as f64;
        assert!((mean_inter - 80.0).abs() < 8.0, "inter mean {mean_inter}");
        assert!((mean_user - 25.0).abs() < 3.0, "user mean {mean_user}");
    }
}
