//! A time-stamped metric series — the one telemetry shape the
//! simulator's experiment plumbing and the control plane's fleet
//! telemetry share.

/// A time-stamped metric series (simulated seconds → value).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    points: Vec<(f64, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a sample; times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last sample.
    pub fn push(&mut self, time: f64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "samples must be time-ordered");
        }
        self.points.push((time, value));
    }

    /// All samples.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The first sample's value.
    pub fn first_value(&self) -> Option<f64> {
        self.points.first().map(|&(_, v)| v)
    }

    /// The last sample's value.
    pub fn last_value(&self) -> Option<f64> {
        self.points.last().map(|&(_, v)| v)
    }

    /// The value at the sample nearest to `time`.
    pub fn value_at(&self, time: f64) -> Option<f64> {
        self.points
            .iter()
            .min_by(|a, b| {
                (a.0 - time)
                    .abs()
                    .partial_cmp(&(b.0 - time).abs())
                    .expect("finite times")
            })
            .map(|&(_, v)| v)
    }

    /// Mean value over samples with `time ∈ [from, to]`.
    pub fn mean_between(&self, from: f64, to: f64) -> Option<f64> {
        let vals: Vec<f64> = self
            .points
            .iter()
            .filter(|(t, _)| *t >= from && *t <= to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Values only (dropping timestamps).
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_accessors() {
        let mut ts = TimeSeries::new();
        ts.push(0.0, 10.0);
        ts.push(1.0, 20.0);
        ts.push(2.0, 30.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.first_value(), Some(10.0));
        assert_eq!(ts.last_value(), Some(30.0));
        assert_eq!(ts.value_at(1.2), Some(20.0));
        assert_eq!(ts.mean_between(0.5, 2.5), Some(25.0));
        assert_eq!(ts.mean_between(5.0, 6.0), None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_push_panics() {
        let mut ts = TimeSeries::new();
        ts.push(2.0, 1.0);
        ts.push(1.0, 1.0);
    }
}
