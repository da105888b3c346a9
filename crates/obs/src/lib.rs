//! `vc-obs` — a lock-free latency/contention observability plane.
//!
//! The paper's whole argument is about *delay and cost distributions*,
//! so the reproduction must be able to measure itself the same way:
//! tails, not means. This crate is hand-rolled under the vendored-deps
//! constraint (no `tracing`, no `hdrhistogram`) and provides:
//!
//! * [`hist::LatencyHist`] — log-linear histograms with a fixed
//!   ~2.6 kB footprint, mergeable, exposing p50/p90/p99/p999/max (see
//!   `crates/obs/README.md` for the bucket scheme, reproducible
//!   offline);
//! * [`plane::ObsPlane`] — per-fleet plane of striped lock-free
//!   recorders (relaxed atomic buckets, per-thread stripes, drained by
//!   the sampler), span timers gated on one relaxed load when
//!   disabled, and per-shard swap contention counters;
//! * [`trace::TraceRing`] — the one event ring: causal lifecycle
//!   tracing (registered → admit → WAIT → hop → depart, plus the
//!   fleet-scoped causes around them; global seq + per-session chain),
//!   exportable as Chrome-trace/Perfetto JSON, and whose newest rows a
//!   structured post-mortem prints on conservation violation, audit
//!   failure, or recovery divergence;
//! * [`serve::ObsServer`] — a hand-rolled HTTP/1.0 scrape endpoint
//!   (`/metrics` Prometheus text, `/trace` Perfetto, `/postmortem`);
//! * [`watchdog::Watchdog`] — rolling-window SLO burn detectors that
//!   fire a post-mortem + trace dump proactively when a budget burns;
//! * a process-wide allocation-counter hook
//!   ([`register_alloc_counter`]) so the experiments binary's counting
//!   global allocator surfaces as allocs-per-op in JSON exports.
//!
//! The plane deliberately depends on nothing (the endpoint is plain
//! `std::net`), so every crate in the workspace can instrument itself
//! without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod plane;
pub mod serve;
pub mod trace;
pub mod watchdog;

pub use hist::{HistSummary, LatencyHist};
pub use plane::{HopCounts, ObsPlane, SharedHist, Site, POST_MORTEM_EVENTS, TRACE_CAPACITY};
pub use serve::{http_get, prometheus_text, ObsServer};
pub use trace::{TraceEvent, TraceKind, TraceRing, FLEET_SCOPE};
pub use watchdog::{SloSpec, Watchdog, WatchdogFire};

use std::sync::OnceLock;

static ALLOC_HOOK: OnceLock<fn() -> u64> = OnceLock::new();

/// Register the process allocation counter (the experiments binary's
/// counting global allocator). First registration wins; later calls
/// are no-ops, so tests and the binary can both call this safely.
pub fn register_alloc_counter(f: fn() -> u64) {
    let _ = ALLOC_HOOK.set(f);
}

/// The current process allocation count, if a counter was registered.
pub fn allocs_now() -> Option<u64> {
    ALLOC_HOOK.get().map(|f| f())
}

#[cfg(test)]
mod tests {
    #[test]
    fn alloc_hook_roundtrips() {
        fn fake() -> u64 {
            42
        }
        super::register_alloc_counter(fake);
        assert_eq!(super::allocs_now(), Some(42));
        // Second registration is a no-op.
        fn other() -> u64 {
            7
        }
        super::register_alloc_counter(other);
        assert_eq!(super::allocs_now(), Some(42));
    }
}
