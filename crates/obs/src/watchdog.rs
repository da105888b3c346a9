//! SLO burn watchdogs: rolling-window burn-rate detectors over plane
//! snapshots that fire a post-mortem (the event ring's newest rows
//! among it) **plus** the whole ring as a Perfetto dump *proactively* —
//! when a budget is burning — not only after a conservation/audit
//! invariant already broke.
//!
//! Five budgets are watched, one detector each:
//!
//! * **p99 hop latency** — windowed p99 of [`Site::Hop`];
//! * **admission fraction floor** — the caller feeds the fleet's
//!   cumulative admission success rate per tick;
//! * **swap-conflict ratio** — windowed `conflicts / attempts` over
//!   the ledger shards;
//! * **journal fsync p99** — windowed p99 of [`Site::JournalFsync`];
//! * **durability degraded** — the caller feeds the journal's
//!   buffered-degraded flag per tick
//!   ([`Watchdog::observe_full`]) — a fleet riding out storage faults
//!   in memory is burning its crash-safety budget even while every
//!   latency budget looks healthy.
//!
//! "Windowed" means the delta between consecutive cumulative
//! histogram snapshots ([`LatencyHist::delta`]), so a detector sees
//! the *current* burn rate, not the lifetime average. A budget must
//! breach in at least `burn` of the last `window` observation ticks to
//! fire — a single noisy window is not an incident. The watchdog fires
//! **exactly once per incident**: a fire latches, triggers
//! [`ObsPlane::post_mortem_once`] and captures the Perfetto trace
//! export in the returned [`WatchdogFire`]; the latch re-arms only
//! after a *fully clean* window (every detector breach-free for
//! `window` consecutive ticks), so one incident produces one page no
//! matter how long it burns, and a genuinely new incident after
//! recovery pages again ([`Watchdog::fired`] stays true once any
//! incident has fired).
//!
//! The watchdog lives entirely off the hot path: one `observe` per
//! telemetry tick walks the histograms under a plain mutex. Nothing
//! here runs per hop.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::hist::LatencyHist;
use crate::plane::{ObsPlane, Site};

/// The SLO budgets a [`Watchdog`] enforces, plus the burn window.
#[derive(Clone, Copy, Debug)]
pub struct SloSpec {
    /// Max windowed p99 hop latency, µs.
    pub hop_p99_us_max: f64,
    /// Min cumulative admission success fraction.
    pub admission_floor: f64,
    /// Max windowed ledger `try_swap` conflict ratio.
    pub swap_conflict_ratio_max: f64,
    /// Max windowed p99 journal fsync latency, µs.
    pub fsync_p99_us_max: f64,
    /// Rolling window length, in observation ticks.
    pub window: usize,
    /// How many breaching ticks within the window trigger a fire.
    pub burn: usize,
}

impl Default for SloSpec {
    fn default() -> Self {
        Self {
            hop_p99_us_max: 1_000.0,
            admission_floor: 0.25,
            swap_conflict_ratio_max: 0.5,
            fsync_p99_us_max: 50_000.0,
            window: 5,
            burn: 3,
        }
    }
}

/// A latency window with fewer samples than this is too thin to
/// quantile — the detector treats it as healthy.
const MIN_WINDOW_SAMPLES: u64 = 8;
/// A swap window with fewer attempts than this has no meaningful ratio.
const MIN_SWAP_ATTEMPTS: u64 = 16;

/// What a fired watchdog hands back: which budget burned, the observed
/// value, and the two dumps.
#[derive(Debug)]
pub struct WatchdogFire {
    /// Which budget burned (`hop_p99`, `admission_fraction`,
    /// `swap_conflict_ratio`, `fsync_p99`, `durability_degraded`).
    pub budget: &'static str,
    /// The windowed value that breached.
    pub value: f64,
    /// The budget it breached.
    pub threshold: f64,
    /// The post-mortem JSON, when this fire was the plane's first dump
    /// (`None` if an invariant break already consumed the one-shot).
    pub post_mortem: Option<String>,
    /// The Perfetto/Chrome-trace export captured at fire time.
    pub trace_json: String,
}

/// One budget's rolling breach history (ring of the last `window`
/// tick outcomes).
struct Detector {
    history: Vec<bool>,
    pos: usize,
}

impl Detector {
    fn new(window: usize) -> Self {
        Self {
            history: vec![false; window.max(1)],
            pos: 0,
        }
    }

    /// Push one tick outcome; true when ≥ `burn` of the window breached.
    fn push(&mut self, breach: bool, burn: usize) -> bool {
        self.history[self.pos] = breach;
        self.pos = (self.pos + 1) % self.history.len();
        self.history.iter().filter(|&&b| b).count() >= burn.max(1)
    }

    /// Whether the whole window is breach-free.
    fn is_clean(&self) -> bool {
        self.history.iter().all(|&b| !b)
    }
}

struct WatchState {
    hop_prev: LatencyHist,
    fsync_prev: LatencyHist,
    swap_prev: (u64, u64),
    detectors: [Detector; 5],
    /// In-incident latch: set on fire, cleared only once every
    /// detector's window is fully clean (the incident ended).
    latched: bool,
}

/// The burn watchdog. One per fleet, observed once per telemetry tick.
pub struct Watchdog {
    spec: SloSpec,
    state: Mutex<WatchState>,
    fired: AtomicBool,
}

impl std::fmt::Debug for Watchdog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Watchdog")
            .field("spec", &self.spec)
            .field("fired", &self.fired())
            .finish()
    }
}

impl Watchdog {
    /// A watchdog over the given budgets.
    pub fn new(spec: SloSpec) -> Self {
        let w = spec.window;
        Self {
            spec,
            state: Mutex::new(WatchState {
                hop_prev: LatencyHist::new(),
                fsync_prev: LatencyHist::new(),
                swap_prev: (0, 0),
                detectors: [
                    Detector::new(w),
                    Detector::new(w),
                    Detector::new(w),
                    Detector::new(w),
                    Detector::new(w),
                ],
                latched: false,
            }),
            fired: AtomicBool::new(false),
        }
    }

    /// The budgets this watchdog enforces.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Has this watchdog ever fired? (At most once per *incident*; a
    /// new incident after a fully clean window fires again, but this
    /// flag latches on the first fire and stays set.)
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }

    /// [`observe_full`](Self::observe_full) with a healthy durability
    /// signal — for callers that don't persist (or predate the chaos
    /// plane).
    pub fn observe(
        &self,
        plane: &ObsPlane,
        admission_success: Option<f64>,
    ) -> Option<WatchdogFire> {
        self.observe_full(plane, admission_success, false)
    }

    /// Feed one observation tick: diff the plane's cumulative
    /// histograms into the current window, update every burn detector,
    /// and fire (once per incident) when one crosses its burn
    /// threshold.
    ///
    /// `admission_success` is the fleet's cumulative admission success
    /// fraction (the caller owns fleet counters; the plane does not) —
    /// pass `None` before any admission has been attempted.
    /// `durability_degraded` is the journal's buffered-degraded flag
    /// (`Fleet::durability_degraded()` on the orchestrator side).
    pub fn observe_full(
        &self,
        plane: &ObsPlane,
        admission_success: Option<f64>,
        durability_degraded: bool,
    ) -> Option<WatchdogFire> {
        let mut st = self.state.lock().ok()?;

        let hop_now = plane.snapshot(Site::Hop);
        let hop_window = hop_now.delta(&st.hop_prev);
        let hop_p99_us = hop_window.percentile(0.99) as f64 / 1_000.0;
        let hop_breach =
            hop_window.count() >= MIN_WINDOW_SAMPLES && hop_p99_us > self.spec.hop_p99_us_max;
        st.hop_prev = hop_now;

        let fsync_now = plane.snapshot(Site::JournalFsync);
        let fsync_window = fsync_now.delta(&st.fsync_prev);
        let fsync_p99_us = fsync_window.percentile(0.99) as f64 / 1_000.0;
        let fsync_breach =
            fsync_window.count() >= MIN_WINDOW_SAMPLES && fsync_p99_us > self.spec.fsync_p99_us_max;
        st.fsync_prev = fsync_now;

        let (attempts, conflicts) = plane
            .swap_counters()
            .iter()
            .fold((0u64, 0u64), |(a, c), (sa, sc)| (a + sa, c + sc));
        let (d_attempts, d_conflicts) = (
            attempts.saturating_sub(st.swap_prev.0),
            conflicts.saturating_sub(st.swap_prev.1),
        );
        let swap_ratio = if d_attempts > 0 {
            d_conflicts as f64 / d_attempts as f64
        } else {
            0.0
        };
        let swap_breach =
            d_attempts >= MIN_SWAP_ATTEMPTS && swap_ratio > self.spec.swap_conflict_ratio_max;
        st.swap_prev = (attempts, conflicts);

        let adm = admission_success.unwrap_or(1.0);
        let adm_breach = admission_success.is_some() && adm < self.spec.admission_floor;

        let burn = self.spec.burn;
        let ticks: [(bool, &'static str, f64, f64); 5] = [
            (hop_breach, "hop_p99", hop_p99_us, self.spec.hop_p99_us_max),
            (
                adm_breach,
                "admission_fraction",
                adm,
                self.spec.admission_floor,
            ),
            (
                swap_breach,
                "swap_conflict_ratio",
                swap_ratio,
                self.spec.swap_conflict_ratio_max,
            ),
            (
                fsync_breach,
                "fsync_p99",
                fsync_p99_us,
                self.spec.fsync_p99_us_max,
            ),
            (
                durability_degraded,
                "durability_degraded",
                f64::from(u8::from(durability_degraded)),
                0.0,
            ),
        ];
        let mut tripped: Option<(&'static str, f64, f64)> = None;
        for (i, &(breach, budget, value, threshold)) in ticks.iter().enumerate() {
            // Every detector advances every tick, even after one trips —
            // the histories stay aligned and a later inspection sees
            // the full picture.
            if st.detectors[i].push(breach, burn) && tripped.is_none() {
                tripped = Some((budget, value, threshold));
            }
        }
        if tripped.is_none() {
            // The incident is over only when *every* detector's window
            // is fully clean — a still-breaching-but-below-burn tail
            // keeps the latch held, so flapping at the threshold can't
            // page repeatedly.
            if st.latched && st.detectors.iter().all(Detector::is_clean) {
                st.latched = false;
            }
            return None;
        }
        if st.latched {
            return None; // same incident — already paged
        }
        st.latched = true;
        drop(st);

        let (budget, value, threshold) = tripped?;
        self.fired.store(true, Ordering::Relaxed);
        let detail = format!(
            "{budget} burned: windowed value {value:.3} vs budget {threshold:.3} \
             ({burn}-of-{} window)",
            self.spec.window
        );
        let post_mortem = plane.post_mortem_once(&format!("slo_burn:{budget}"), &detail);
        Some(WatchdogFire {
            budget,
            value,
            threshold,
            post_mortem,
            trace_json: plane.trace_chrome_json(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_spec() -> SloSpec {
        SloSpec {
            hop_p99_us_max: 10.0,
            window: 4,
            burn: 2,
            ..SloSpec::default()
        }
    }

    fn feed_hops(plane: &ObsPlane, n: u64, ns: u64) {
        for _ in 0..n {
            plane.record_ns(Site::Hop, ns);
        }
    }

    #[test]
    fn sustained_breach_fires_exactly_once() {
        let plane = ObsPlane::new(1);
        let wd = Watchdog::new(tight_spec());
        plane.note_trace(crate::trace::TraceKind::Registered, 1, 0);
        // Two consecutive windows of 1 ms hops against a 10 µs budget.
        feed_hops(&plane, 32, 1_000_000);
        assert!(
            wd.observe(&plane, Some(0.9)).is_none(),
            "burn=2 needs 2 ticks"
        );
        feed_hops(&plane, 32, 1_000_000);
        let fire = wd.observe(&plane, Some(0.9)).expect("second breach fires");
        assert_eq!(fire.budget, "hop_p99");
        assert!(fire.value > 10.0);
        assert!(wd.fired());
        let pm = fire.post_mortem.expect("first plane dump");
        assert!(pm.contains("slo_burn:hop_p99"));
        assert!(fire.trace_json.contains("\"traceEvents\""));
        // Keep burning: still the same incident, no second page.
        feed_hops(&plane, 32, 1_000_000);
        assert!(wd.observe(&plane, Some(0.9)).is_none());
    }

    #[test]
    fn watchdog_rearms_after_clean_window() {
        let plane = ObsPlane::new(1);
        let wd = Watchdog::new(tight_spec()); // window 4, burn 2
        feed_hops(&plane, 32, 1_000_000);
        assert!(wd.observe(&plane, Some(0.9)).is_none());
        feed_hops(&plane, 32, 1_000_000);
        assert!(wd.observe(&plane, Some(0.9)).is_some(), "incident 1 pages");
        // Recovery: enough healthy ticks to flush the whole window.
        for _ in 0..6 {
            feed_hops(&plane, 32, 1_000);
            assert!(wd.observe(&plane, Some(0.9)).is_none());
        }
        // A genuinely new incident pages again.
        feed_hops(&plane, 32, 1_000_000);
        assert!(wd.observe(&plane, Some(0.9)).is_none());
        feed_hops(&plane, 32, 1_000_000);
        let fire = wd.observe(&plane, Some(0.9)).expect("incident 2 pages");
        assert_eq!(fire.budget, "hop_p99");
        // The one-shot post-mortem went to incident 1; incident 2 still
        // carries the trace dump.
        assert!(fire.post_mortem.is_none());
        assert!(fire.trace_json.contains("\"traceEvents\""));
        assert!(wd.fired(), "ever-fired flag latches across incidents");
    }

    #[test]
    fn durability_degraded_burns() {
        let plane = ObsPlane::new(1);
        let wd = Watchdog::new(SloSpec {
            window: 3,
            burn: 2,
            ..SloSpec::default()
        });
        assert!(wd.observe_full(&plane, None, true).is_none());
        let fire = wd.observe_full(&plane, None, true).expect("fires");
        assert_eq!(fire.budget, "durability_degraded");
        // Healing clears the incident after a clean window…
        for _ in 0..4 {
            assert!(wd.observe_full(&plane, None, false).is_none());
        }
        // …and a relapse pages again.
        assert!(wd.observe_full(&plane, None, true).is_none());
        assert!(wd.observe_full(&plane, None, true).is_some());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config { cases: 64, ..Default::default() })]
        /// Exactly-once-per-incident, against an independent reference
        /// model: a fire happens iff the admission detector crosses its
        /// burn threshold while un-latched, and the latch releases only
        /// after a fully clean window.
        fn fires_exactly_once_per_incident(
            breaches in proptest::prop::collection::vec(proptest::arbitrary::any::<bool>(), 1..64),
        ) {
            const WINDOW: usize = 3;
            const BURN: usize = 2;
            let plane = ObsPlane::new(1);
            let wd = Watchdog::new(SloSpec {
                admission_floor: 0.5,
                window: WINDOW,
                burn: BURN,
                ..SloSpec::default()
            });
            let mut ring = [false; WINDOW];
            let mut pos = 0usize;
            let mut latched = false;
            let mut expected_fires = 0usize;
            let mut observed_fires = 0usize;
            for &breach in &breaches {
                let signal = if breach { 0.0 } else { 1.0 };
                let fire = wd.observe_full(&plane, Some(signal), false);
                ring[pos] = breach;
                pos = (pos + 1) % WINDOW;
                let count = ring.iter().filter(|&&b| b).count();
                if count >= BURN {
                    if !latched {
                        latched = true;
                        expected_fires += 1;
                        proptest::prop_assert!(fire.is_some(), "model fires, watchdog must too");
                    } else {
                        proptest::prop_assert!(fire.is_none(), "latched: same incident");
                    }
                } else {
                    proptest::prop_assert!(fire.is_none(), "below burn: never fires");
                    if count == 0 {
                        latched = false;
                    }
                }
                observed_fires += usize::from(fire.is_some());
            }
            proptest::prop_assert_eq!(observed_fires, expected_fires);
            proptest::prop_assert_eq!(wd.fired(), expected_fires > 0);
        }
    }

    #[test]
    fn transient_breach_does_not_fire() {
        let plane = ObsPlane::new(1);
        let wd = Watchdog::new(tight_spec());
        feed_hops(&plane, 32, 1_000_000); // one bad window…
        assert!(wd.observe(&plane, None).is_none());
        for _ in 0..6 {
            feed_hops(&plane, 32, 1_000); // …then healthy 1 µs windows
            assert!(wd.observe(&plane, None).is_none());
        }
        assert!(!wd.fired());
    }

    #[test]
    fn admission_floor_burns() {
        let plane = ObsPlane::new(1);
        let wd = Watchdog::new(SloSpec {
            admission_floor: 0.5,
            window: 3,
            burn: 2,
            ..SloSpec::default()
        });
        assert!(wd.observe(&plane, Some(0.2)).is_none());
        let fire = wd.observe(&plane, Some(0.2)).expect("fires");
        assert_eq!(fire.budget, "admission_fraction");
        assert_eq!(fire.threshold, 0.5);
    }

    #[test]
    fn thin_windows_are_healthy() {
        let plane = ObsPlane::new(1);
        let wd = Watchdog::new(SloSpec {
            hop_p99_us_max: 1.0,
            window: 2,
            burn: 1,
            ..SloSpec::default()
        });
        // 4 samples < MIN_WINDOW_SAMPLES: no quantile, no breach.
        feed_hops(&plane, 4, 1_000_000);
        assert!(wd.observe(&plane, None).is_none());
        assert!(!wd.fired());
    }

    #[test]
    fn no_admission_signal_means_no_admission_breach() {
        let plane = ObsPlane::new(1);
        let wd = Watchdog::new(SloSpec {
            admission_floor: 0.99,
            window: 2,
            burn: 1,
            ..SloSpec::default()
        });
        assert!(wd.observe(&plane, None).is_none());
        assert!(!wd.fired());
    }
}
