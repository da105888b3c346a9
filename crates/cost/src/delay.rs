//! Delay cost `F(d_s)` over a session's per-user worst receive delays.

/// Convex increasing delay cost over the vector `d_s = [d_u]` of per-user
/// worst receive delays (ms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayCost {
    /// `F(d_s) = (Σ_u d_u)/|U(s)|` — the paper's example choice.
    #[default]
    Mean,
    /// `F(d_s) = max_u d_u` — worst-participant experience.
    Max,
}

impl DelayCost {
    /// Evaluates the delay cost on a session's per-user delays.
    ///
    /// Returns 0 for an empty slice (a departed session contributes no
    /// delay cost).
    pub fn cost(&self, per_user_delay_ms: &[f64]) -> f64 {
        if per_user_delay_ms.is_empty() {
            return 0.0;
        }
        match self {
            DelayCost::Mean => {
                per_user_delay_ms.iter().sum::<f64>() / per_user_delay_ms.len() as f64
            }
            DelayCost::Max => per_user_delay_ms
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_matches_paper_example() {
        let d = [100.0, 200.0, 300.0];
        assert!((DelayCost::Mean.cost(&d) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn max_takes_worst_user() {
        let d = [100.0, 350.0, 220.0];
        assert_eq!(DelayCost::Max.cost(&d), 350.0);
    }

    #[test]
    fn empty_session_costs_nothing() {
        assert_eq!(DelayCost::Mean.cost(&[]), 0.0);
        assert_eq!(DelayCost::Max.cost(&[]), 0.0);
    }

    #[test]
    fn monotone_in_each_coordinate() {
        let base = [120.0, 180.0];
        let worse = [130.0, 180.0];
        for f in [DelayCost::Mean, DelayCost::Max] {
            assert!(f.cost(&worse) >= f.cost(&base));
        }
    }
}
