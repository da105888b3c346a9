//! Small statistics and process-accounting helpers: the percentile
//! rule, medians and quartile spreads, the participant-minute
//! integral, FNV-1a, and `/proc` readers for CPU time and peak RSS.

/// Sorts ascending (all benchmark samples are finite).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// Nearest rank of the `permille`-th quantile among `n` samples
/// (integer arithmetic: 999 ‰ of 10 000 is rank 9 990 exactly).
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// Nearest-rank quantile of an ascending slice, in per-mille (0 for an
/// empty slice).
pub fn quantile(sorted: &[f64], permille: usize) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), permille) - 1]
}

/// The percentiles a timing may be reported at, in per-mille.
const LADDER: [usize; 4] = [500, 900, 990, 999];

/// The percentile rule: the highest ladder percentile that still has
/// at least ten samples beyond it (the median when none has).
fn highest_supported(n: usize) -> usize {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| n >= rank(n, q) + 10)
        .unwrap_or(500)
}

/// Quantile `permille`, lowered to the highest supported percentile
/// when the sample is too small to resolve it.
pub fn tail(sorted: &[f64], permille: usize) -> f64 {
    quantile(sorted, permille.min(highest_supported(sorted.len())))
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `(q1, q3)` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) returns them, so the spreads printed
/// here are the ones the benchmark driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    sort(&mut v);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile range as a share of the median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// ∫ users in service d(t), accumulated piecewise-constant between
/// events, reported in participant-minutes. The driver counts users
/// from admission to departure; `set_in_service` scales that count by
/// the share of those conferences the fleet itself reports live, so
/// users of a conference waiting in the re-admission queue, or dropped
/// from it, are not counted as served.
#[derive(Debug)]
pub struct LiveIntegral {
    last_t_s: f64,
    users: u64,
    in_service: f64,
    user_seconds: f64,
}

impl Default for LiveIntegral {
    fn default() -> Self {
        Self {
            last_t_s: 0.0,
            users: 0,
            in_service: 1.0,
            user_seconds: 0.0,
        }
    }
}

impl LiveIntegral {
    /// Accounts the current population up to `t_s` (monotone).
    pub fn advance(&mut self, t_s: f64) {
        if t_s > self.last_t_s {
            self.user_seconds += self.users as f64 * self.in_service * (t_s - self.last_t_s);
            self.last_t_s = t_s;
        }
    }

    pub fn add(&mut self, users: usize) {
        self.users += users as u64;
    }

    pub fn sub(&mut self, users: usize) {
        self.users -= users as u64;
    }

    /// From now on `live` of the `joined` conferences counted here are
    /// in service (all of them when nothing has joined).
    pub fn set_in_service(&mut self, live: usize, joined: usize) {
        self.in_service = if joined == 0 {
            1.0
        } else {
            (live as f64 / joined as f64).min(1.0)
        };
    }

    pub fn participant_minutes(&self) -> f64 {
        self.user_seconds / 60.0
    }
}

/// FNV-1a, 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Process user+system CPU seconds from `/proc/self/stat` (covers
/// threads that already exited; 10 ms ticks). 0 where `/proc` is absent.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let ticks: f64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// The calling thread's on-CPU time, user and kernel, to the nanosecond
/// (`/proc/thread-self/schedstat`), where `cpu_seconds` counts the whole
/// process in 10 ms ticks: fine enough to cut a single-threaded timed
/// section into pieces. The kernel brings the counter up to date when
/// the thread passes through the scheduler (otherwise at its 4 ms
/// tick), so a read yields first. Reads 0 where the file is absent.
#[derive(Debug)]
pub struct ThreadCpu(Option<std::fs::File>);

impl ThreadCpu {
    /// Opens the calling thread's counter; read it on the same thread.
    pub fn open() -> Self {
        Self(std::fs::File::open("/proc/thread-self/schedstat").ok())
    }

    pub fn seconds(&self) -> f64 {
        use std::os::unix::fs::FileExt;
        std::thread::yield_now();
        let mut buf = [0u8; 64];
        let n = self
            .0
            .as_ref()
            .and_then(|f| f.read_at(&mut buf, 0).ok())
            .unwrap_or(0);
        std::str::from_utf8(&buf[..n])
            .ok()
            .and_then(|text| text.split_whitespace().next()?.parse::<f64>().ok())
            .map_or(0.0, |ns| ns / 1e9)
    }
}

/// Peak resident set (`VmHWM`) in MB. 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets the process's peak-RSS watermark, so that a process making
/// several runs reports each run's own peak. Best effort: where the
/// kernel refuses, later runs report the process-wide peak.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), 500);
        assert_eq!(highest_supported(19), 500);
        assert_eq!(highest_supported(100), 900);
        assert_eq!(highest_supported(999), 900);
        assert_eq!(highest_supported(1_000), 990);
        assert_eq!(highest_supported(9_999), 990);
        assert_eq!(highest_supported(10_000), 999);
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&v, 500), 100.0);
        assert_eq!(quantile(&v, 990), 198.0);
        // 200 samples cannot resolve p99: the rule reports p90 instead.
        assert_eq!(tail(&v, 990), 180.0);
        assert_eq!(tail(&v, 500), 100.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((relative_iqr(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn participant_minutes_integrate_piecewise() {
        let mut i = LiveIntegral::default();
        i.add(6); // 6 users over [0, 30)
        i.advance(30.0);
        i.add(4); // 10 users over [30, 60)
        i.advance(60.0);
        i.sub(10); // nobody over [60, 120)
        i.advance(120.0);
        i.advance(90.0); // time never runs backwards
        assert!((i.participant_minutes() - (6.0 * 0.5 + 10.0 * 0.5)).abs() < 1e-12);
        // Half the conferences displaced over [120, 180): half the users.
        i.add(8);
        i.set_in_service(1, 2);
        i.advance(180.0);
        assert!((i.participant_minutes() - (8.0 + 4.0)).abs() < 1e-12);
    }

    #[test]
    fn thread_cpu_advances_with_work() {
        let cpu = ThreadCpu::open();
        let before = cpu.seconds();
        let mut x = 1u64;
        while cpu.seconds() == before && x < 1 << 32 {
            x = std::hint::black_box(x + 1);
        }
        // Where the kernel keeps no such counter both read 0.
        assert!(cpu.seconds() >= before);
        assert!(before == 0.0 || cpu.seconds() > before);
    }

    #[test]
    fn fnv1a_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
