//! Objective weights `(α1, α2, α3)` and the paper's three configurations.
//!
//! The paper evaluates three weightings (Table II): *delay only*
//! (`α2 = 0`), *balanced* (`α1 = α2`) and *traffic only* (`α1 = 0`).
//! Because our delay unit (ms) and traffic unit (Mbps) differ in
//! magnitude, the balanced preset scales traffic by 8 cost-units/Mbps —
//! chosen so a 1 Mbps traffic saving is worth an 8 ms mean-delay
//! increase, which reproduces the paper's qualitative trade-off (large
//! traffic cuts at roughly unchanged delay) — and prices a transcoding
//! task at 2 units. Raw constructors allow arbitrary sweeps.

/// Non-negative weights of the three objective terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObjectiveWeights {
    alpha_delay: f64,
    alpha_traffic: f64,
    alpha_transcode: f64,
}

impl ObjectiveWeights {
    /// Creates weights `(α1, α2, α3)` for (delay, traffic, transcoding).
    ///
    /// # Panics
    ///
    /// Panics if any weight is negative or non-finite.
    pub fn new(alpha_delay: f64, alpha_traffic: f64, alpha_transcode: f64) -> Self {
        for (name, v) in [
            ("alpha_delay", alpha_delay),
            ("alpha_traffic", alpha_traffic),
            ("alpha_transcode", alpha_transcode),
        ] {
            assert!(
                v.is_finite() && v >= 0.0,
                "{name} must be finite and ≥ 0, got {v}"
            );
        }
        Self {
            alpha_delay,
            alpha_traffic,
            alpha_transcode,
        }
    }

    /// `α2 = 0`: optimize conferencing delay only.
    pub fn delay_only() -> Self {
        Self::new(1.0, 0.0, 0.0)
    }

    /// `α1 = α2`: the balanced configuration (see module docs for the
    /// unit calibration).
    pub fn balanced() -> Self {
        Self::new(1.0, 8.0, 2.0)
    }

    /// `α1 = 0`: optimize operational cost (traffic + transcoding) only.
    pub fn traffic_only() -> Self {
        Self::new(0.0, 8.0, 2.0)
    }

    /// Weight `α1` of the delay cost.
    pub fn alpha_delay(&self) -> f64 {
        self.alpha_delay
    }

    /// Weight `α2` of the bandwidth cost.
    pub fn alpha_traffic(&self) -> f64 {
        self.alpha_traffic
    }

    /// Weight `α3` of the transcoding cost.
    pub fn alpha_transcode(&self) -> f64 {
        self.alpha_transcode
    }

    /// Combines the three cost terms into the session objective
    /// `α1·F + α2·G + α3·H`.
    ///
    /// **Invariant: `G, H ≥ 0`.** Agent prices are validated finite and
    /// non-negative (`vc_model::AgentSpec`), and every `g`/`h` shape is
    /// non-negative on its clamped argument, so with the weights `≥ 0`
    /// the two trailing addends are `≥ 0`; IEEE addition is monotone,
    /// hence `combine(F, G, H) ≥ delay_floor(F)` holds in floating
    /// point, not just in the reals. Alg. 1's Gibbs step prunes on it.
    #[inline]
    pub fn combine(&self, delay_cost: f64, traffic_cost: f64, transcode_cost: f64) -> f64 {
        self.delay_floor(delay_cost)
            + self.alpha_traffic * traffic_cost
            + self.alpha_transcode * transcode_cost
    }

    /// `α1·F`: the objective's delay term — its leading addend in
    /// [`combine`](Self::combine) and, by the invariant there, a lower
    /// bound of the objective known from the delays alone.
    #[inline]
    pub fn delay_floor(&self, delay_cost: f64) -> f64 {
        self.alpha_delay * delay_cost
    }
}

impl Default for ObjectiveWeights {
    fn default() -> Self {
        Self::balanced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_configurations() {
        assert_eq!(ObjectiveWeights::delay_only().alpha_traffic(), 0.0);
        assert!(ObjectiveWeights::delay_only().alpha_delay() > 0.0);
        assert_eq!(ObjectiveWeights::traffic_only().alpha_delay(), 0.0);
        assert!(ObjectiveWeights::traffic_only().alpha_traffic() > 0.0);
        let b = ObjectiveWeights::balanced();
        assert!(b.alpha_delay() > 0.0 && b.alpha_traffic() > 0.0);
    }

    #[test]
    fn combine_is_weighted_sum() {
        let w = ObjectiveWeights::new(2.0, 3.0, 4.0);
        assert_eq!(w.combine(10.0, 5.0, 1.0), 20.0 + 15.0 + 4.0);
    }

    #[test]
    fn combine_with_zero_weight_ignores_term() {
        let w = ObjectiveWeights::delay_only();
        assert_eq!(w.combine(100.0, 999.0, 999.0), 100.0);
    }

    /// The floor holds in floating point, awkward magnitudes included:
    /// addends far below one ULP of `α1·F` round away, never down.
    #[test]
    fn combine_never_undercuts_the_delay_floor() {
        let w = ObjectiveWeights::new(0.1, 8.0, 2.0);
        for f in [0.0, 1e-300, 0.3, 123.456_789, 1e15, f64::MAX / 4.0] {
            for g in [0.0, 5e-324, 1e-20, 0.7, 1e9] {
                for h in [0.0, 5e-324, 1.0, 3e12] {
                    assert!(w.combine(f, g, h) >= w.delay_floor(f), "F={f} G={g} H={h}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn negative_weight_panics() {
        let _ = ObjectiveWeights::new(-1.0, 0.0, 0.0);
    }
}
