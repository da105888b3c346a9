//! Log-linear latency histograms.
//!
//! The bucket scheme is HDR-style log-linear (hand-rolled; the vendored-deps
//! constraint rules out `hdrhistogram`):
//!
//! * values `0..16` ns land in 16 **exact** linear buckets;
//! * every value `v >= 16` belongs to octave `o = floor(log2 v)`
//!   (`4 <= o <= 42`), and each octave is split into 16 linear
//!   sub-buckets indexed by the four bits below the leading bit:
//!   `sub = (v >> (o - 4)) & 0xF`;
//! * octaves above 42 (values beyond ~2.4 hours in ns) clamp into the
//!   last bucket.
//!
//! That gives `16 + 39 * 16 = 640` buckets of `u32` — a fixed ~2.6 kB
//! footprint — with relative quantization error bounded by `1/16`
//! (`2^-SUB_BITS`). A bucket's representative value is its midpoint, so
//! percentiles computed offline from an exported bucket dump reproduce
//! the in-process numbers exactly. Histograms merge by bucket-wise
//! saturating addition, so per-thread recorders can be drained into one
//! summary without locks.

/// Linear/exact region: values below this are their own bucket.
pub const LINEAR_CUTOFF: u64 = 16;
/// Sub-bucket resolution: each octave splits into `2^SUB_BITS` buckets.
pub const SUB_BITS: u32 = 4;
/// First octave covered by the log-linear region (`2^4 = LINEAR_CUTOFF`).
pub const FIRST_OCTAVE: u32 = 4;
/// Last octave before clamping (`2^43` ns ≈ 2.4 h — far beyond any span).
pub const LAST_OCTAVE: u32 = 42;
const SUBBUCKETS: usize = 1 << SUB_BITS;
const BUCKETS: usize =
    LINEAR_CUTOFF as usize + (LAST_OCTAVE - FIRST_OCTAVE + 1) as usize * SUBBUCKETS;

/// Total bucket count: 16 exact + 39 octaves × 16 sub-buckets = 640.
pub const NUM_BUCKETS: usize = BUCKETS;

/// Map a nanosecond value to its bucket index. Total order preserving.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        let o = 63 - v.leading_zeros();
        if o > LAST_OCTAVE {
            return BUCKETS - 1;
        }
        let sub = ((v >> (o - SUB_BITS)) & (SUBBUCKETS as u64 - 1)) as usize;
        LINEAR_CUTOFF as usize + (o - FIRST_OCTAVE) as usize * SUBBUCKETS + sub
    }
}

/// The representative (midpoint) value of a bucket, in nanoseconds.
#[inline]
pub fn bucket_value(idx: usize) -> u64 {
    if idx < LINEAR_CUTOFF as usize {
        idx as u64
    } else {
        let rel = idx - LINEAR_CUTOFF as usize;
        let o = FIRST_OCTAVE + (rel / SUBBUCKETS) as u32;
        let sub = (rel % SUBBUCKETS) as u64;
        let low = (LINEAR_CUTOFF + sub) << (o - SUB_BITS);
        let width = 1u64 << (o - SUB_BITS);
        low + width / 2
    }
}

/// A mergeable log-linear latency histogram with a fixed ~2.6 kB footprint.
///
/// Tracks exact `count`, `sum` and `max` alongside the buckets, so the
/// mean is exact and reported percentiles never exceed the observed
/// maximum.
#[derive(Clone)]
pub struct LatencyHist {
    buckets: Box<[u32; BUCKETS]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Box::new([0u32; BUCKETS]),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one nanosecond sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = bucket_index(v);
        self.buckets[idx] = self.buckets[idx].saturating_add(1);
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v > self.max {
            self.max = v;
        }
    }

    /// Fold `other` into `self` (bucket-wise saturating add).
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Raw bucket ingestion — the shared (atomic) recorder drains through this.
    #[inline]
    pub fn add_bucket(&mut self, idx: usize, n: u32) {
        self.buckets[idx] = self.buckets[idx].saturating_add(n);
        self.count += n as u64;
    }

    /// Fold an exact (sum, max) pair in, for recorders that track them aside.
    pub fn add_sum_max(&mut self, sum: u64, max: u64) {
        self.sum = self.sum.saturating_add(sum);
        if max > self.max {
            self.max = max;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum recorded value (ns); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Exact mean (ns); 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value (ns) at quantile `q` in `[0, 1]`; 0 when empty.
    ///
    /// Walks the cumulative bucket counts to the first bucket covering
    /// rank `ceil(q * count)` and returns its midpoint representative,
    /// capped at the exact observed maximum.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cum += n as u64;
            if cum >= target {
                return bucket_value(idx).min(self.max);
            }
        }
        self.max
    }

    /// The window between two cumulative snapshots: bucket-wise
    /// saturating subtraction of `prev` (an earlier snapshot of the
    /// same recorder) from `self`.
    ///
    /// `count` and the percentile walk are exact for the window. `sum`
    /// is the exact difference, so the window mean is exact too. `max`
    /// carries the *cumulative* maximum — an upper bound for the
    /// window, since per-window maxima are not recoverable from
    /// cumulative state. Burn-rate detectors quantile on windows, where
    /// the percentile cap at a too-large max is harmless.
    pub fn delta(&self, prev: &LatencyHist) -> LatencyHist {
        let mut out = LatencyHist::new();
        for (idx, (a, b)) in self.buckets.iter().zip(prev.buckets.iter()).enumerate() {
            let n = a.saturating_sub(*b);
            if n > 0 {
                out.add_bucket(idx, n);
            }
        }
        out.add_sum_max(self.sum.saturating_sub(prev.sum), self.max);
        out
    }

    /// The standard summary used everywhere this workspace exports latency.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean_ns: self.mean(),
            p50_ns: self.percentile(0.50),
            p90_ns: self.percentile(0.90),
            p99_ns: self.percentile(0.99),
            p999_ns: self.percentile(0.999),
            max_ns: self.max,
        }
    }
}

/// A fixed percentile summary of a [`LatencyHist`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Number of samples.
    pub count: u64,
    /// Exact mean, ns.
    pub mean_ns: f64,
    /// Median, ns.
    pub p50_ns: u64,
    /// 90th percentile, ns.
    pub p90_ns: u64,
    /// 99th percentile, ns.
    pub p99_ns: u64,
    /// 99.9th percentile, ns.
    pub p999_ns: u64,
    /// Exact maximum, ns.
    pub max_ns: u64,
}

impl HistSummary {
    /// The summary as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\": {}, \"mean_ns\": {:.1}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}, \"max_ns\": {}}}",
            self.count, self.mean_ns, self.p50_ns, self.p90_ns, self.p99_ns, self.p999_ns, self.max_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_count_is_640_and_2_6_kb() {
        assert_eq!(BUCKETS, 640);
        assert!(std::mem::size_of::<[u32; BUCKETS]>() <= 2600);
    }

    #[test]
    fn linear_region_is_exact() {
        for v in 0..LINEAR_CUTOFF {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_value(v as usize), v);
        }
        // Octave 4 (16..32) is also exact: sub-bucket width is 1.
        for v in 16..32 {
            assert_eq!(bucket_value(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_index_is_monotone_and_in_range() {
        let mut last = 0usize;
        let mut v = 0u64;
        while v < 1 << 50 {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS, "v={v} idx={idx}");
            assert!(idx >= last, "v={v}");
            last = idx;
            v = v * 2 + 1;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn representative_stays_in_bucket() {
        for idx in 0..BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_value(idx)), idx, "idx={idx}");
        }
    }

    #[test]
    fn relative_error_is_bounded_by_one_sixteenth() {
        let mut v = 1u64;
        while v < 1 << 42 {
            let rep = bucket_value(bucket_index(v));
            let err = (rep as f64 - v as f64).abs() / v as f64;
            assert!(err <= 1.0 / 16.0, "v={v} rep={rep} err={err}");
            v = v.wrapping_mul(3).wrapping_add(7);
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 0);
        }
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99_ns, 0);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut h = LatencyHist::new();
        h.record(1234);
        let rep = bucket_value(bucket_index(1234));
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), rep.min(1234));
        }
        assert_eq!(h.max(), 1234);
    }

    #[test]
    fn percentiles_match_exact_ranks_in_linear_region() {
        // 100 samples of 0..10 ns (all exact buckets): percentiles are exact.
        let mut h = LatencyHist::new();
        for i in 0..100u64 {
            h.record(i % 10);
        }
        assert_eq!(h.percentile(0.5), 4);
        assert_eq!(h.percentile(0.99), 9);
        assert_eq!(h.percentile(1.0), 9);
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 9);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut both = LatencyHist::new();
        let mut v = 3u64;
        for i in 0..10_000u64 {
            v = v.wrapping_mul(2862933555777941757).wrapping_add(3037000493) % 50_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            assert_eq!(a.percentile(q), both.percentile(q), "q={q}");
        }
        assert_eq!(a.summary(), both.summary());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyHist::new();
        for v in [5u64, 900, 12_345, 7_000_000] {
            a.record(v);
        }
        let before = a.summary();
        a.merge(&LatencyHist::new());
        assert_eq!(a.summary(), before);
        let mut e = LatencyHist::new();
        e.merge(&a);
        assert_eq!(e.summary(), before);
    }

    #[test]
    fn delta_between_snapshots_is_the_window() {
        let mut early = LatencyHist::new();
        for v in [100u64, 200, 300] {
            early.record(v);
        }
        let mut late = early.clone();
        for v in [50_000u64, 60_000, 70_000, 80_000] {
            late.record(v);
        }
        let window = late.delta(&early);
        assert_eq!(window.count(), 4);
        // All window samples are in the 50–80 µs range; the cumulative
        // p50 would sit far lower.
        assert!(window.percentile(0.5) >= 50_000);
        let mean = window.mean();
        assert!((mean - 65_000.0).abs() < 1.0, "mean={mean}");
        // Delta against itself is empty.
        let none = late.delta(&late);
        assert_eq!(none.count(), 0);
    }

    #[test]
    fn percentile_never_exceeds_max() {
        let mut h = LatencyHist::new();
        h.record(1_000_000);
        h.record(1_000_001);
        assert!(h.percentile(1.0) <= h.max());
        assert!(h.percentile(0.999) <= h.max());
    }
}
