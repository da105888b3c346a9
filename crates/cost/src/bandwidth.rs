//! Convex increasing bandwidth cost shapes `g_l(·)`.

/// Shape of a convex, increasing bandwidth cost function evaluated on
/// inter-agent ingress traffic `x` (Mbit/s). The per-agent unit price is
/// applied multiplicatively by the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum BandwidthCost {
    /// `g(x) = x` — cost units equal Mbps, the paper's reporting choice.
    Linear,
    /// `g(x) = a·x + b·x²` with `a, b ≥ 0` — congestion-sensitive pricing.
    Quadratic {
        /// Linear coefficient `a`.
        linear: f64,
        /// Quadratic coefficient `b`.
        quadratic: f64,
    },
    /// Piecewise-linear convex: slope `slopes[i]` applies on
    /// `[knots[i], knots[i+1])` where `knots[0] = 0` is implicit and the
    /// last slope extends to infinity. Slopes must be non-decreasing
    /// (convexity) and non-negative (monotonicity). Mirrors tiered
    /// cloud-egress price sheets.
    PiecewiseLinear {
        /// Interior knots (strictly increasing, all positive).
        knots: Vec<f64>,
        /// One more slope than knots.
        slopes: Vec<f64>,
    },
}

impl BandwidthCost {
    /// Unit-slope linear cost.
    pub fn linear() -> Self {
        BandwidthCost::Linear
    }

    /// Creates a validated quadratic cost.
    ///
    /// # Panics
    ///
    /// Panics if either coefficient is negative or non-finite.
    pub fn quadratic(linear: f64, quadratic: f64) -> Self {
        assert!(
            linear.is_finite() && linear >= 0.0,
            "linear coefficient invalid"
        );
        assert!(
            quadratic.is_finite() && quadratic >= 0.0,
            "quadratic coefficient invalid"
        );
        BandwidthCost::Quadratic { linear, quadratic }
    }

    /// Creates a validated piecewise-linear convex cost.
    ///
    /// # Panics
    ///
    /// Panics if `slopes.len() != knots.len() + 1`, knots are not strictly
    /// increasing positives, or slopes are negative or decreasing.
    pub fn piecewise(knots: Vec<f64>, slopes: Vec<f64>) -> Self {
        assert_eq!(
            slopes.len(),
            knots.len() + 1,
            "need one more slope than knots"
        );
        assert!(
            knots.windows(2).all(|w| w[0] < w[1]) && knots.iter().all(|k| *k > 0.0),
            "knots must be strictly increasing positives"
        );
        assert!(
            slopes.iter().all(|s| *s >= 0.0),
            "slopes must be non-negative (increasing cost)"
        );
        assert!(
            slopes.windows(2).all(|w| w[0] <= w[1]),
            "slopes must be non-decreasing (convexity)"
        );
        BandwidthCost::PiecewiseLinear { knots, slopes }
    }

    /// Evaluates the cost shape at traffic `x ≥ 0` Mbps.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` is negative.
    pub fn cost(&self, x: f64) -> f64 {
        debug_assert!(x >= -1e-9, "traffic must be non-negative, got {x}");
        let x = x.max(0.0);
        match self {
            BandwidthCost::Linear => x,
            BandwidthCost::Quadratic { linear, quadratic } => linear * x + quadratic * x * x,
            BandwidthCost::PiecewiseLinear { knots, slopes } => {
                let mut cost = 0.0;
                let mut prev = 0.0;
                for (i, &k) in knots.iter().enumerate() {
                    if x <= k {
                        return cost + slopes[i] * (x - prev);
                    }
                    cost += slopes[i] * (k - prev);
                    prev = k;
                }
                cost + slopes[knots.len()] * (x - prev)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_identity() {
        let g = BandwidthCost::linear();
        assert_eq!(g.cost(0.0), 0.0);
        assert_eq!(g.cost(12.5), 12.5);
    }

    #[test]
    fn quadratic_evaluates() {
        let g = BandwidthCost::quadratic(2.0, 0.5);
        assert!((g.cost(4.0) - (8.0 + 8.0)).abs() < 1e-12);
    }

    #[test]
    fn piecewise_accumulates_segments() {
        // slope 1 on [0,10), slope 2 on [10,20), slope 4 beyond.
        let g = BandwidthCost::piecewise(vec![10.0, 20.0], vec![1.0, 2.0, 4.0]);
        assert_eq!(g.cost(5.0), 5.0);
        assert_eq!(g.cost(10.0), 10.0);
        assert_eq!(g.cost(15.0), 10.0 + 10.0);
        assert_eq!(g.cost(25.0), 10.0 + 20.0 + 20.0);
    }

    #[test]
    fn shapes_are_convex_and_increasing() {
        let shapes = [
            BandwidthCost::linear(),
            BandwidthCost::quadratic(1.0, 0.3),
            BandwidthCost::piecewise(vec![5.0], vec![1.0, 3.0]),
        ];
        for g in &shapes {
            let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
            for w in xs.windows(3) {
                let (a, b, c) = (g.cost(w[0]), g.cost(w[1]), g.cost(w[2]));
                assert!(b <= c + 1e-12, "not increasing");
                // Midpoint convexity: g(mid) ≤ (g(lo)+g(hi))/2.
                assert!(b <= (a + c) / 2.0 + 1e-9, "not convex");
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_slopes_panic() {
        let _ = BandwidthCost::piecewise(vec![5.0], vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "one more slope")]
    fn wrong_slope_count_panics() {
        let _ = BandwidthCost::piecewise(vec![5.0], vec![1.0]);
    }
}
