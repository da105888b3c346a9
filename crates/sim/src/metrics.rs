//! Distribution summaries of the sampled metrics (the series
//! themselves are [`vc_model::TimeSeries`]).

/// Five-number summary (the paper's Fig. 8 box plots).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    /// Minimum.
    pub min: f64,
    /// First quartile (25th percentile).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile (75th percentile).
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean (not drawn in a box plot but handy in tables).
    pub mean: f64,
}

impl BoxStats {
    /// Computes the summary of a sample.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    pub fn from_values(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarize an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("values must not contain NaN"));
        Self {
            min: sorted[0],
            q1: percentile_sorted(&sorted, 25.0),
            median: percentile_sorted(&sorted, 50.0),
            q3: percentile_sorted(&sorted, 75.0),
            max: sorted[sorted.len() - 1],
            mean: values.iter().sum::<f64>() / values.len() as f64,
        }
    }
}

/// Linear-interpolation percentile of an ascending-sorted slice.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile out of range");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 4.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 2.5);
    }

    #[test]
    fn box_stats_five_numbers() {
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = BoxStats::from_values(&values);
        assert_eq!(b.min, 1.0);
        assert_eq!(b.median, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.q1, 2.0);
        assert_eq!(b.q3, 4.0);
        assert_eq!(b.mean, 3.0);
    }

    #[test]
    fn box_stats_single_value() {
        let b = BoxStats::from_values(&[7.0]);
        assert_eq!(b.min, 7.0);
        assert_eq!(b.q1, 7.0);
        assert_eq!(b.max, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_box_stats_panics() {
        let _ = BoxStats::from_values(&[]);
    }
}
