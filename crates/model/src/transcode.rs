//! Transcoding latency model `σ_l(r1, r2)`.
//!
//! The paper requires `σ_l` to be "an increasing function of the bit-rates
//! of both the input (r1) and output (r2) representations", with measured
//! prototype values in `[30, 60]` ms depending on agent processing power.
//! We model the reference latency as an affine function of the two bitrates
//! and scale it by the per-agent speed factor:
//!
//! ```text
//! σ_l(r1, r2) = speed_factor_l × (base + c_in·κ(r1) + c_out·κ(r2))
//! ```

/// Affine-in-bitrate transcoding latency model shared by all agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TranscodeLatencyModel {
    base_ms: f64,
    per_input_mbps_ms: f64,
    per_output_mbps_ms: f64,
}

impl TranscodeLatencyModel {
    /// Creates a latency model.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is negative or non-finite.
    pub fn new(base_ms: f64, per_input_mbps_ms: f64, per_output_mbps_ms: f64) -> Self {
        assert!(
            base_ms.is_finite() && base_ms >= 0.0,
            "base latency must be finite and non-negative"
        );
        assert!(
            per_input_mbps_ms.is_finite() && per_input_mbps_ms >= 0.0,
            "input coefficient must be finite and non-negative"
        );
        assert!(
            per_output_mbps_ms.is_finite() && per_output_mbps_ms >= 0.0,
            "output coefficient must be finite and non-negative"
        );
        Self {
            base_ms,
            per_input_mbps_ms,
            per_output_mbps_ms,
        }
    }

    /// Calibrated so a reference agent transcoding 720p (5 Mbps) down to
    /// 480p (2.5 Mbps) takes 25 ms; with the paper's speed factors in
    /// `[1.2, 2.4]` this lands in the measured `[30, 60]` ms band.
    pub fn paper_default() -> Self {
        Self::new(10.0, 2.0, 2.0)
    }

    /// Fixed-latency model (useful in tests): `σ = c` regardless of bitrates.
    pub fn constant(latency_ms: f64) -> Self {
        Self::new(latency_ms, 0.0, 0.0)
    }

    /// Reference (speed factor 1.0) latency for transcoding a stream of
    /// `input_mbps` into `output_mbps`.
    pub fn reference_latency_ms(&self, input_mbps: f64, output_mbps: f64) -> f64 {
        self.base_ms + self.per_input_mbps_ms * input_mbps + self.per_output_mbps_ms * output_mbps
    }

    /// `σ_l(r1, r2)` for an agent with the given speed factor.
    pub fn latency_ms(&self, speed_factor: f64, input_mbps: f64, output_mbps: f64) -> f64 {
        speed_factor * self.reference_latency_ms(input_mbps, output_mbps)
    }

    /// Base latency coefficient in ms.
    pub fn base_ms(&self) -> f64 {
        self.base_ms
    }

    /// Latency per input Mbit/s, in ms.
    pub fn per_input_mbps_ms(&self) -> f64 {
        self.per_input_mbps_ms
    }

    /// Latency per output Mbit/s, in ms.
    pub fn per_output_mbps_ms(&self) -> f64 {
        self.per_output_mbps_ms
    }
}

impl Default for TranscodeLatencyModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_calibration() {
        let m = TranscodeLatencyModel::paper_default();
        // 720p (5 Mbps) -> 480p (2.5 Mbps) on the reference agent: 25 ms.
        assert!((m.reference_latency_ms(5.0, 2.5) - 25.0).abs() < 1e-12);
        // Speed factors 1.2 and 2.4 span the paper's [30, 60] ms band.
        assert!((m.latency_ms(1.2, 5.0, 2.5) - 30.0).abs() < 1e-9);
        assert!((m.latency_ms(2.4, 5.0, 2.5) - 60.0).abs() < 1e-9);
    }

    #[test]
    fn increasing_in_both_bitrates() {
        let m = TranscodeLatencyModel::paper_default();
        let base = m.reference_latency_ms(2.0, 1.0);
        assert!(m.reference_latency_ms(3.0, 1.0) > base);
        assert!(m.reference_latency_ms(2.0, 2.0) > base);
    }

    #[test]
    fn constant_model_ignores_bitrates() {
        let m = TranscodeLatencyModel::constant(42.0);
        assert_eq!(m.latency_ms(1.0, 0.5, 8.0), 42.0);
        assert_eq!(m.latency_ms(1.0, 8.0, 0.5), 42.0);
        assert_eq!(m.latency_ms(2.0, 1.0, 1.0), 84.0);
    }

    #[test]
    #[should_panic(expected = "must be finite and non-negative")]
    fn negative_coefficient_panics() {
        let _ = TranscodeLatencyModel::new(10.0, -1.0, 0.0);
    }
}
