//! Convex transcoding cost shapes `h_l(·)`.

/// Shape of a convex transcoding cost function evaluated on the number of
/// concurrent transcoding tasks `y` at an agent. The per-agent unit price
/// is applied multiplicatively by the caller.
#[derive(Debug, Clone, PartialEq)]
pub enum TranscodeCost {
    /// `h(y) = y` — each task costs one price unit.
    Linear,
    /// `h(y) = a·y + b·y²` — load-sensitive pricing (`a, b ≥ 0`).
    Quadratic {
        /// Linear coefficient `a`.
        linear: f64,
        /// Quadratic coefficient `b`.
        quadratic: f64,
    },
}

impl TranscodeCost {
    /// Unit-slope linear cost.
    pub fn linear() -> Self {
        TranscodeCost::Linear
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
        TranscodeCost::Quadratic { linear, quadratic }
    }

    /// Evaluates the cost shape at task count `y ≥ 0`.
    pub fn cost(&self, y: f64) -> f64 {
        debug_assert!(y >= -1e-9, "task count must be non-negative, got {y}");
        let y = y.max(0.0);
        match self {
            TranscodeCost::Linear => y,
            TranscodeCost::Quadratic { linear, quadratic } => linear * y + quadratic * y * y,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_counts_tasks() {
        assert_eq!(TranscodeCost::linear().cost(3.0), 3.0);
        assert_eq!(TranscodeCost::linear().cost(0.0), 0.0);
    }

    #[test]
    fn quadratic_penalizes_load() {
        let h = TranscodeCost::quadratic(1.0, 1.0);
        assert_eq!(h.cost(3.0), 3.0 + 9.0);
        // Convexity: marginal cost of task 4 exceeds that of task 1.
        assert!(h.cost(4.0) - h.cost(3.0) > h.cost(1.0) - h.cost(0.0));
    }

    #[test]
    #[should_panic(expected = "quadratic coefficient invalid")]
    fn negative_coefficient_panics() {
        let _ = TranscodeCost::quadratic(1.0, -0.1);
    }
}
