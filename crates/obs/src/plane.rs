//! The observability plane: one [`ObsPlane`] per fleet, holding a
//! lock-free shared histogram per instrumented [`Site`], per-shard swap
//! contention counters, and the lifecycle event ring.
//!
//! Recording is wait-free per thread: each thread hashes onto one of a
//! small set of histogram *stripes* and does relaxed `fetch_add`s on
//! that stripe's atomic buckets; the sampler drains every stripe into a
//! plain [`LatencyHist`] with [`ObsPlane::snapshot`]. When the plane is
//! disabled ([`ObsPlane::set_enabled`]) hot paths pay exactly one
//! relaxed load (the [`ObsPlane::timer`] gate returns `None`).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::hist::{HistSummary, LatencyHist, NUM_BUCKETS};
use crate::trace::{TraceKind, TraceRing};

/// An instrumented code site. Each gets its own shared histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Site {
    /// `Fleet::admit`, engine enumeration tier (span: exclusive section).
    AdmitEnumeration = 0,
    /// `Fleet::admit`, engine greedy+repair tier.
    AdmitRepair,
    /// `Fleet::admit`, engine ranked-fallback tier.
    AdmitFallback,
    /// `Fleet::admit` that ended in a refusal.
    AdmitRefused,
    /// `Fleet::register_session` (open-world universe growth).
    RegisterSession,
    /// One fleet HOP (`hop_session_with`: FREEZE read + candidate scan +
    /// `hop_with_beta_scratch` weighing + ledger commit).
    Hop,
    /// WAIT-wakeup dispatch: scheduler pop until the hop starts
    /// (sampled 1-in-128 to stay inside the overhead budget).
    WaitDispatch,
    /// FREEZE shared-read acquisition wait — contended path only; the
    /// uncontended `try_read` fast path just counts
    /// ([`ObsPlane::freeze_read_fast`]).
    FreezeRead,
    /// FREEZE exclusive acquisition wait (recorded after release).
    FreezeWriteWait,
    /// FREEZE exclusive hold time (recorded after release).
    FreezeWriteHold,
    /// `vc-persist` journal append (encode + buffer + policy commit).
    JournalAppend,
    /// `vc-persist` journal fsync (`commit`: write + `sync_data`).
    JournalFsync,
    /// Sharded wakeup-scheduler shard-lock acquisition wait —
    /// contended path only; the uncontended `try_lock` fast path just
    /// counts into the scheduler's per-shard acquire counters.
    SchedLock,
}

/// Every site, in index order. `Site::ALL.len()` sizes the plane.
impl Site {
    /// All sites in index order.
    pub const ALL: [Site; 13] = [
        Site::AdmitEnumeration,
        Site::AdmitRepair,
        Site::AdmitFallback,
        Site::AdmitRefused,
        Site::RegisterSession,
        Site::Hop,
        Site::WaitDispatch,
        Site::FreezeRead,
        Site::FreezeWriteWait,
        Site::FreezeWriteHold,
        Site::JournalAppend,
        Site::JournalFsync,
        Site::SchedLock,
    ];

    /// Stable snake-case name used in JSON exports.
    pub fn name(self) -> &'static str {
        match self {
            Site::AdmitEnumeration => "admit_enumeration",
            Site::AdmitRepair => "admit_repair",
            Site::AdmitFallback => "admit_fallback",
            Site::AdmitRefused => "admit_refused",
            Site::RegisterSession => "register_session",
            Site::Hop => "hop",
            Site::WaitDispatch => "wait_dispatch",
            Site::FreezeRead => "freeze_read_wait",
            Site::FreezeWriteWait => "freeze_write_wait",
            Site::FreezeWriteHold => "freeze_write_hold",
            Site::JournalAppend => "journal_append",
            Site::JournalFsync => "journal_fsync",
            Site::SchedLock => "sched_lock_wait",
        }
    }
}

const NUM_STRIPES: usize = 4;

/// One lock-free recorder stripe: atomic buckets + aside sum/max.
struct Stripe {
    buckets: Vec<AtomicU32>,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Stripe {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, || AtomicU32::new(0));
        Self {
            buckets,
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    #[inline]
    fn record(&self, v: u64) {
        let idx = crate::hist::bucket_index(v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn drain_into(&self, out: &mut LatencyHist) {
        for (idx, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                out.add_bucket(idx, n);
            }
        }
        out.add_sum_max(
            self.sum.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        );
    }
}

/// A striped, lock-free shared histogram (per-thread recorders drained
/// by the sampler). Threads spread across `NUM_STRIPES` (4) stripes so
/// concurrent recorders rarely touch the same cache lines.
pub struct SharedHist {
    stripes: Vec<Stripe>,
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % NUM_STRIPES;
}

impl SharedHist {
    fn new() -> Self {
        let mut stripes = Vec::with_capacity(NUM_STRIPES);
        stripes.resize_with(NUM_STRIPES, Stripe::new);
        Self { stripes }
    }

    /// Record one nanosecond sample on this thread's stripe.
    #[inline]
    pub fn record(&self, v: u64) {
        let stripe = MY_STRIPE.with(|s| *s);
        self.stripes[stripe].record(v);
    }

    /// Merge every stripe into one cumulative snapshot.
    pub fn snapshot(&self) -> LatencyHist {
        let mut out = LatencyHist::new();
        for stripe in &self.stripes {
            stripe.drain_into(&mut out);
        }
        out
    }
}

impl Default for SharedHist {
    fn default() -> Self {
        Self::new()
    }
}

/// Trace-ring capacity (events across all shards).
pub const TRACE_CAPACITY: usize = 4096;

/// How many of the ring's newest events a post-mortem prints.
pub const POST_MORTEM_EVENTS: usize = 256;

/// Session shards of the trace ring.
const TRACE_SHARDS: usize = 4;

/// Per-hop counts a worker tallies privately and hands over in batches
/// ([`ObsPlane::add_hop_counts`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HopCounts {
    /// Uncontended FREEZE `try_read` successes.
    pub freeze_read_fast: u64,
    /// Candidates settled without a fold: over the delay bound, or
    /// proven on the Gibbs clamp by the delay floor or the traffic
    /// floor.
    pub candidates_bounded: u64,
    /// Candidates folded in full.
    pub candidates_folded: u64,
    /// Hops that drew from a kept memo.
    pub memo_hits: u64,
}

/// The per-fleet observability plane. Cheap to share (`Arc`), enabled
/// by default; disabling reduces every probe to one relaxed load.
pub struct ObsPlane {
    enabled: AtomicBool,
    epoch: Instant,
    hists: Vec<SharedHist>,
    swap_attempts: Vec<AtomicU64>,
    swap_conflicts: Vec<AtomicU64>,
    freeze_read_fast: AtomicU64,
    /// Hop candidates settled without a fold (by the delay bound or a
    /// floor) / folded in full, summed over hops.
    hop_candidates_bounded: AtomicU64,
    hop_candidates_folded: AtomicU64,
    /// Hops that drew from their session's kept memo (no sweep).
    hop_memo_hits: AtomicU64,
    trace: TraceRing,
    dumped: AtomicBool,
    /// The JSON of the post-mortem that fired (served by `/postmortem`).
    last_post_mortem: Mutex<Option<String>>,
    /// Round-robin tick for [`ObsPlane::timer_sampled`].
    sample_tick: AtomicU64,
    /// Plane-epoch µs of the last probe that read the clock
    /// ([`ObsPlane::note_trace_at`], [`ObsPlane::record_sampled`]) —
    /// the coarse timestamp [`ObsPlane::note_trace_coarse`] reuses
    /// instead of reading it again.
    last_t_us: AtomicU64,
}

impl std::fmt::Debug for ObsPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsPlane")
            .field("enabled", &self.enabled())
            .field("ops_recorded", &self.trace.total())
            .finish_non_exhaustive()
    }
}

impl ObsPlane {
    /// A plane sized for `num_shards` ledger shards.
    pub fn new(num_shards: usize) -> Self {
        let num_shards = num_shards.max(1);
        let mut hists = Vec::with_capacity(Site::ALL.len());
        hists.resize_with(Site::ALL.len(), SharedHist::new);
        let mut swap_attempts = Vec::with_capacity(num_shards);
        swap_attempts.resize_with(num_shards, || AtomicU64::new(0));
        let mut swap_conflicts = Vec::with_capacity(num_shards);
        swap_conflicts.resize_with(num_shards, || AtomicU64::new(0));
        Self {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            hists,
            swap_attempts,
            swap_conflicts,
            freeze_read_fast: AtomicU64::new(0),
            hop_candidates_bounded: AtomicU64::new(0),
            hop_candidates_folded: AtomicU64::new(0),
            hop_memo_hits: AtomicU64::new(0),
            trace: TraceRing::new(TRACE_SHARDS, TRACE_CAPACITY),
            dumped: AtomicBool::new(false),
            last_post_mortem: Mutex::new(None),
            sample_tick: AtomicU64::new(0),
            last_t_us: AtomicU64::new(0),
        }
    }

    /// Is recording on? One relaxed load.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on/off. Off, every probe is a single relaxed load.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Start a span: `Some(now)` when enabled, `None` when disabled.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// The 1-in-N hop-span sampling rate of
    /// [`timer_sampled`](Self::timer_sampled). A power of two, so the
    /// hot-path check is a mask, never a division. A sampled span costs
    /// two clock reads and a handful of RMWs, ≈100 ns; against a hop
    /// that re-reads its kept sweep in a fraction of a microsecond that
    /// fits the overhead budget at 1-in-64 (it was 1-in-16 while every
    /// hop swept, at several microseconds).
    pub const SAMPLE_EVERY: u64 = 64;

    /// The 1-in-N WAIT-dispatch span sampling rate: the worker pool
    /// samples its dispatch span when `ops & (N - 1) == 0`. A power of
    /// two, like [`SAMPLE_EVERY`](Self::SAMPLE_EVERY).
    pub const WAIT_SAMPLE_EVERY: u64 = 128;

    /// Like [`ObsPlane::timer`], but sampled
    /// 1-in-[`SAMPLE_EVERY`](Self::SAMPLE_EVERY): the very hottest paths
    /// (the fleet hop) sample their span so the steady-state cost is a
    /// fraction of a clock read per op. Percentiles from a fixed
    /// fraction of millions of hops are statistically the same; an
    /// unsampled hop that migrates or loses its swap still reaches the
    /// event ring via [`ObsPlane::note_trace_coarse`].
    #[inline]
    pub fn timer_sampled(&self) -> Option<Instant> {
        if !self.enabled() {
            return None;
        }
        // Racy load + store, not `fetch_add`: losing a tick to a
        // concurrent caller only shifts the sampling phase, and a plain
        // store is measurably cheaper than a locked RMW on the hop path.
        let tick = self.sample_tick.load(Ordering::Relaxed);
        self.sample_tick
            .store(tick.wrapping_add(1), Ordering::Relaxed);
        if tick & (Self::SAMPLE_EVERY - 1) == 0 {
            Some(Self::clock_now())
        } else {
            None
        }
    }

    /// The clock read of the sampled 1-in-[`SAMPLE_EVERY`](Self::SAMPLE_EVERY)
    /// arm, outlined so the unsampled hot path stays compact —
    /// keeping the vDSO call inline measurably bloats the caller (the
    /// codegen cost shows up in the overhead benchmark even when the
    /// arm never runs).
    #[cold]
    #[inline(never)]
    fn clock_now() -> Instant {
        Instant::now()
    }

    /// Close a sampled hot-path span: one clock read both finishes the
    /// span histogram sample and refreshes the coarse timestamp — on a
    /// fleet that only hops, this is what keeps
    /// [`note_trace_coarse`](Self::note_trace_coarse) rows at most
    /// [`SAMPLE_EVERY`](Self::SAMPLE_EVERY) hops stale. Outlined and
    /// cold for the same reason as the sampled arm's clock read
    /// (`clock_now`) — this runs on 1-in-`SAMPLE_EVERY` ops, and the
    /// common path must not carry its code.
    #[cold]
    #[inline(never)]
    pub fn record_sampled(&self, site: Site, t0: Instant) {
        let t_end = Instant::now();
        self.record_span(site, t0, t_end);
        self.stamp(t_end);
    }

    /// `now` in plane-epoch µs, kept as the coarse timestamp.
    #[inline]
    fn stamp(&self, now: Instant) -> u64 {
        let t_us = now.duration_since(self.epoch).as_micros() as u64;
        self.last_t_us.store(t_us, Ordering::Relaxed);
        t_us
    }

    /// Finish a span started with [`ObsPlane::timer`].
    #[inline]
    pub fn record_since(&self, site: Site, start: Option<Instant>) {
        if let Some(t0) = start {
            self.record_ns(site, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Record a raw nanosecond sample at `site`.
    #[inline]
    pub fn record_ns(&self, site: Site, ns: u64) {
        self.hists[site as usize].record(ns);
    }

    /// Record the span between two already-taken clock readings.
    #[inline]
    pub fn record_span(&self, site: Site, t0: Instant, t1: Instant) {
        self.record_ns(site, t1.duration_since(t0).as_nanos() as u64);
    }

    /// Count one ledger `try_swap` (`conflicted` = lost the race),
    /// attributed to the counter shard `key` maps onto.
    #[inline]
    pub fn note_swap(&self, key: usize, conflicted: bool) {
        if !self.enabled() {
            return;
        }
        let n = self.swap_attempts.len();
        // Every real fleet shards by a power of two, so the mapping is
        // a mask; the modulo fallback keeps odd counts correct without
        // putting an integer division on the hop path.
        let shard = if n.is_power_of_two() {
            key & (n - 1)
        } else {
            key % n
        };
        self.swap_attempts[shard].fetch_add(1, Ordering::Relaxed);
        if conflicted {
            self.swap_conflicts[shard].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Uncontended FREEZE read acquisitions so far.
    pub fn freeze_read_fast(&self) -> u64 {
        self.freeze_read_fast.load(Ordering::Relaxed)
    }

    /// `(bounded, folded)` hop candidates so far — the pruning rate of
    /// the lazy Gibbs step's sweeps is `bounded / (bounded + folded)`.
    /// A hop that drew from a kept memo ([`hop_memo_hits`](Self::hop_memo_hits))
    /// swept nothing and adds only what its draw had to fold.
    pub fn hop_candidates(&self) -> (u64, u64) {
        (
            self.hop_candidates_bounded.load(Ordering::Relaxed),
            self.hop_candidates_folded.load(Ordering::Relaxed),
        )
    }

    /// Adds a worker's privately tallied per-hop counts — batched,
    /// because a hop is short enough that a shared RMW per counter per
    /// hop would show. Unconditional: the worker tallied only while the
    /// plane was enabled.
    pub fn add_hop_counts(&self, counts: &HopCounts) {
        let add = |to: &AtomicU64, n: u64| to.fetch_add(n, Ordering::Relaxed);
        add(&self.freeze_read_fast, counts.freeze_read_fast);
        add(&self.hop_candidates_bounded, counts.candidates_bounded);
        add(&self.hop_candidates_folded, counts.candidates_folded);
        add(&self.hop_memo_hits, counts.memo_hits);
    }

    /// Hops so far that drew from a kept memo instead of sweeping.
    pub fn hop_memo_hits(&self) -> u64 {
        self.hop_memo_hits.load(Ordering::Relaxed)
    }

    /// Per-shard `(attempts, conflicts)` swap counters.
    pub fn swap_counters(&self) -> Vec<(u64, u64)> {
        self.swap_attempts
            .iter()
            .zip(self.swap_conflicts.iter())
            .map(|(a, c)| (a.load(Ordering::Relaxed), c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Cumulative snapshot of one site's histogram.
    pub fn snapshot(&self, site: Site) -> LatencyHist {
        self.hists[site as usize].snapshot()
    }

    /// Cumulative summary of one site.
    pub fn summary(&self, site: Site) -> HistSummary {
        self.snapshot(site).summary()
    }

    /// Merge several sites into one histogram (e.g. all admit tiers).
    pub fn merged(&self, sites: &[Site]) -> LatencyHist {
        let mut out = LatencyHist::new();
        for &site in sites {
            let snap = self.snapshot(site);
            out.merge(&snap);
        }
        out
    }

    /// Record one lifecycle event, reading the clock. Coarse paths
    /// (departure, agent loss, re-admission, recovery) use this; hot
    /// paths use [`ObsPlane::note_trace_coarse`]. No-op when disabled.
    #[inline]
    pub fn note_trace(&self, kind: TraceKind, session: u32, payload: u64) {
        if self.enabled() {
            let t_us = self.stamp(Instant::now());
            self.trace.record(t_us, kind, session, payload);
        }
    }

    /// Record one lifecycle event reusing an already-taken clock
    /// reading (paths that just closed a span share its `Instant`).
    #[inline]
    pub fn note_trace_at(&self, now: Instant, kind: TraceKind, session: u32, payload: u64) {
        if self.enabled() {
            self.trace.record(self.stamp(now), kind, session, payload);
        }
    }

    /// Record one lifecycle event with **no clock read**, stamped with
    /// the time of the last probe that did read it: sequence numbers
    /// keep the ring causally ordered; the timestamp is diagnostic and
    /// at most a few ops stale.
    #[inline]
    pub fn note_trace_coarse(&self, kind: TraceKind, session: u32, payload: u64) {
        if self.enabled() {
            let t_us = self.last_t_us.load(Ordering::Relaxed);
            self.trace.record(t_us, kind, session, payload);
        }
    }

    /// The lifecycle trace ring (for direct dumps).
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// The lifecycle trace as a Chrome-trace / Perfetto JSON document.
    pub fn trace_chrome_json(&self) -> String {
        self.trace.chrome_json()
    }

    /// Build the structured post-mortem JSON: the trigger, per-site
    /// summaries, contention counters and — under the key `"flight"` —
    /// the event ring's newest [`POST_MORTEM_EVENTS`] rows in seq order.
    pub fn post_mortem(&self, reason: &str, detail: &str) -> String {
        let mut sites = Vec::with_capacity(Site::ALL.len());
        for site in Site::ALL {
            let s = self.summary(site);
            if s.count > 0 {
                sites.push(format!("\"{}\": {}", site.name(), s.to_json()));
            }
        }
        let swaps: Vec<String> = self
            .swap_counters()
            .iter()
            .map(|(a, c)| format!("{{\"attempts\": {a}, \"conflicts\": {c}}}"))
            .collect();
        format!(
            "{{\"post_mortem\": \"{}\", \"detail\": \"{}\", \"ops_recorded\": {}, \"freeze_read_fast\": {}, \"swap_shards\": [{}], \"sites\": {{{}}}, \"flight\": {}}}",
            reason,
            detail.replace('"', "'"),
            self.trace.total(),
            self.freeze_read_fast(),
            swaps.join(", "),
            sites.join(", "),
            self.trace.dump_json(POST_MORTEM_EVENTS)
        )
    }

    /// Dump a post-mortem to stderr at most once per plane (violations
    /// tend to repeat every telemetry tick; one dump is the useful one).
    /// Returns the JSON when this call was the one that dumped.
    pub fn post_mortem_once(&self, reason: &str, detail: &str) -> Option<String> {
        if self.dumped.swap(true, Ordering::Relaxed) {
            return None;
        }
        let json = self.post_mortem(reason, detail);
        eprintln!("vc-obs post-mortem ({reason}): {json}");
        if let Ok(mut last) = self.last_post_mortem.lock() {
            *last = Some(json.clone());
        }
        Some(json)
    }

    /// The JSON of the post-mortem that fired, if any (what the scrape
    /// endpoint serves at `/postmortem`).
    pub fn last_post_mortem(&self) -> Option<String> {
        self.last_post_mortem.lock().ok().and_then(|g| g.clone())
    }

    /// Full-plane summary JSON: every non-empty site, swap counters,
    /// the fast-read count, total ops, and the process alloc counter
    /// when one is registered.
    pub fn summary_json(&self) -> String {
        let mut sites = Vec::new();
        for site in Site::ALL {
            let s = self.summary(site);
            if s.count > 0 {
                sites.push(format!("\"{}\": {}", site.name(), s.to_json()));
            }
        }
        let swaps: Vec<String> = self
            .swap_counters()
            .iter()
            .map(|(a, c)| format!("{{\"attempts\": {a}, \"conflicts\": {c}}}"))
            .collect();
        let allocs = match crate::allocs_now() {
            Some(n) => n.to_string(),
            None => "null".to_string(),
        };
        format!(
            "{{\"enabled\": {}, \"ops_recorded\": {}, \"freeze_read_fast\": {}, \"allocs\": {}, \"swap_shards\": [{}], \"sites\": {{{}}}}}",
            self.enabled(),
            self.trace.total(),
            self.freeze_read_fast(),
            allocs,
            swaps.join(", "),
            sites.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plane_records_nothing() {
        let plane = ObsPlane::new(4);
        plane.set_enabled(false);
        assert!(plane.timer().is_none());
        assert!(plane.timer_sampled().is_none());
        plane.note_swap(0, true);
        plane.note_trace(TraceKind::Registered, 1, 0);
        plane.note_trace_at(Instant::now(), TraceKind::Admitted, 1, 0);
        plane.note_trace_coarse(TraceKind::HopCommitted, 1, 0);
        assert_eq!(plane.swap_counters()[0], (0, 0));
        assert_eq!(plane.trace().total(), 0);
        assert!(plane.summary_json().contains("\"ops_recorded\": 0"));
    }

    #[test]
    fn hop_counts_arrive_in_batches() {
        // Workers tally only while the plane is enabled, so the batched
        // add itself is unconditional.
        let plane = ObsPlane::new(1);
        let batch = HopCounts {
            freeze_read_fast: 3,
            candidates_bounded: 40,
            candidates_folded: 12,
            memo_hits: 2,
        };
        plane.add_hop_counts(&batch);
        plane.add_hop_counts(&HopCounts {
            candidates_bounded: 1,
            ..HopCounts::default()
        });
        assert_eq!(plane.freeze_read_fast(), 3);
        assert_eq!(plane.hop_candidates(), (41, 12));
        assert_eq!(plane.hop_memo_hits(), 2);
    }

    #[test]
    fn trace_notes_flow_into_the_ring_and_export() {
        let plane = ObsPlane::new(1);
        plane.note_trace(TraceKind::Registered, 5, 3);
        plane.note_trace_at(Instant::now(), TraceKind::Admitted, 5, 0xABCD);
        plane.note_trace_coarse(TraceKind::HopCommitted, 5, 7);
        let events = plane.trace().dump();
        assert_eq!(events.len(), 3);
        // The coarse note reuses the last clock-reading probe's timestamp.
        assert_eq!(events[1].t_us, events[2].t_us);
        let chains: Vec<u32> = events.iter().map(|e| e.chain).collect();
        assert!(chains.windows(2).all(|w| w[0] < w[1]));
        assert!(plane.trace_chrome_json().contains("\"tid\": 5"));
        assert!(plane.summary_json().contains("\"ops_recorded\": 3"));
    }

    #[test]
    fn post_mortem_is_retrievable_after_firing() {
        let plane = ObsPlane::new(1);
        assert!(plane.last_post_mortem().is_none());
        plane.post_mortem_once("test", "detail");
        let stored = plane.last_post_mortem().expect("stored");
        assert!(stored.contains("\"post_mortem\": \"test\""));
        // A second fire is suppressed and does not overwrite.
        assert!(plane.post_mortem_once("other", "x").is_none());
        assert!(plane
            .last_post_mortem()
            .unwrap()
            .contains("\"post_mortem\": \"test\""));
    }

    #[test]
    fn spans_land_in_the_right_site() {
        let plane = ObsPlane::new(2);
        plane.record_ns(Site::Hop, 1_000);
        plane.record_ns(Site::Hop, 2_000);
        plane.record_ns(Site::JournalFsync, 5_000_000);
        assert_eq!(plane.summary(Site::Hop).count, 2);
        assert_eq!(plane.summary(Site::JournalFsync).count, 1);
        assert_eq!(plane.summary(Site::WaitDispatch).count, 0);
        let merged = plane.merged(&[Site::Hop, Site::JournalFsync]);
        assert_eq!(merged.count(), 3);
        assert_eq!(merged.max(), 5_000_000);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let plane = std::sync::Arc::new(ObsPlane::new(4));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let plane = plane.clone();
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        plane.record_ns(Site::Hop, i % 100_000);
                        plane.note_swap((i % 4) as usize, i % 7 == 0);
                    }
                });
            }
        });
        assert_eq!(plane.snapshot(Site::Hop).count(), 40_000);
        let swaps = plane.swap_counters();
        assert_eq!(swaps.iter().map(|(a, _)| a).sum::<u64>(), 40_000);
    }

    #[test]
    fn sampled_timer_fires_at_the_sample_rate_and_coarse_notes_reuse_time() {
        let plane = ObsPlane::new(1);
        let calls = 4 * ObsPlane::SAMPLE_EVERY as usize;
        let fired: usize = (0..calls)
            .filter(|_| plane.timer_sampled().is_some())
            .count();
        assert_eq!(fired, 4);
        plane.set_enabled(false);
        assert!(plane.timer_sampled().is_none());
        plane.set_enabled(true);
        // Closing a sampled span stamps the shared coarse timestamp…
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        plane.record_sampled(Site::Hop, t0);
        assert_eq!(plane.summary(Site::Hop).count, 1);
        // …which a coarse note then reuses without reading the clock.
        plane.note_trace_coarse(TraceKind::SwapConflict, 3, 0);
        let events = plane.trace().dump();
        assert_eq!(events.len(), 1);
        assert!(events[0].t_us >= 2_000);
        assert_eq!(events[0].kind, TraceKind::SwapConflict);
    }

    #[test]
    fn post_mortem_once_fires_once() {
        let plane = ObsPlane::new(1);
        // More events than a post-mortem prints: only the newest show.
        let noted = POST_MORTEM_EVENTS as u32 + 44;
        for session in 0..noted {
            plane.note_trace(TraceKind::Admitted, session, 0);
        }
        let first = plane.post_mortem_once("test", "detail \"quoted\"");
        assert!(first.is_some());
        let json = first.unwrap();
        assert!(json.contains("\"post_mortem\": \"test\""));
        assert!(json.contains(&format!("\"ops_recorded\": {noted}")));
        let rows = json.matches("\"event\": \"admitted\"").count();
        assert_eq!(rows, POST_MORTEM_EVENTS);
        assert!(json.contains("\"flight\": [{\"seq\": 45,"));
        assert!(json.contains(&format!("{{\"seq\": {noted},")));
        assert!(!json.contains("\\\"quoted\\\""));
        assert!(plane.post_mortem_once("test", "again").is_none());
    }

    #[test]
    fn summary_json_is_well_formed_enough() {
        let plane = ObsPlane::new(2);
        plane.record_ns(Site::AdmitRepair, 10_000);
        let json = plane.summary_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"admit_repair\""));
        assert!(json.contains("\"swap_shards\""));
    }
}
