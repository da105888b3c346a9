//! Self-healing re-admission: the bounded queue of sessions the fleet
//! displaced (a forced evacuation found no feasible target) or refused
//! under pressure, retried with deterministic decorrelated-jitter
//! backoff until capacity returns.
//!
//! ## Determinism contract
//!
//! Every backoff interval is a **pure function** of
//! `(seed, session, epoch, attempt)`, seeded by the WAIT timers' own
//! per-draw generator (`workers::draw_rng`) on its own RNG stream. There
//! is no hidden RNG state: a queue entry is four integers, so the
//! persistence layer journals enqueues/drops as explicit ops and a
//! crash-recovered queue resumes bit-for-bit — same due times, same
//! retry schedule — as the uncrashed twin (proptested in
//! `tests/chaos_plane.rs`).
//!
//! ## Degradation ladder
//!
//! The queue is *bounded* ([`ReadmitConfig::capacity`]) and each entry
//! retries at most [`ReadmitConfig::max_attempts`] times; overflow and
//! exhaustion both **drop** the session (counted, journaled, traced) —
//! self-healing must never become an unbounded retry storm against a
//! fleet that is already refusing work.

use crate::workers::draw_rng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use vc_model::SessionId;

/// The backoff floor (µs): every retry waits at least half a second.
pub const BASE_BACKOFF_US: u64 = 500_000;

/// Re-admission queue tuning. `None` in [`crate::FleetConfig::readmit`]
/// disables the queue entirely (displacement falls back to forced
/// overshoot moves, the pre-chaos-plane behavior).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadmitConfig {
    /// Maximum queued sessions; an enqueue past this drops the session.
    pub capacity: usize,
    /// Backoff ceiling (virtual seconds); never below
    /// [`BASE_BACKOFF_US`].
    pub cap_backoff_s: f64,
    /// Retry budget per epoch: an entry failing its
    /// `max_attempts`-th admission attempt is dropped.
    pub max_attempts: u32,
    /// Seed of the backoff streams. Use the worker-pool seed so one
    /// number reproduces the whole control plane's randomness.
    pub seed: u64,
}

impl Default for ReadmitConfig {
    fn default() -> Self {
        Self {
            capacity: 256,
            cap_backoff_s: 30.0,
            max_attempts: 8,
            seed: 2015,
        }
    }
}

/// One queued re-admission: four integers, the entry's *entire* state
/// (the next due time is stored, every later one is re-derivable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadmitEntry {
    /// The displaced/refused session.
    pub session: SessionId,
    /// Displacement epoch — bumped each time the session (re-)enters
    /// the queue, so distinct displacements draw distinct backoff
    /// streams.
    pub epoch: u64,
    /// Retry attempts already made in this epoch.
    pub attempt: u32,
    /// Virtual time (µs) of the next admission attempt.
    pub due_us: u64,
}

/// RNG stream selector for re-admission backoff draws — disjoint from
/// the WAIT (0) and HOP (1) streams of `workers::draw_rng` and the
/// fault stream (3) of `vc-chaos`.
const STREAM_READMIT: u64 = 2;

/// The decorrelated-jitter backoff before attempt `attempt` of
/// `(session, epoch)`: uniform in `[base, min(cap, base·3^attempt)]`
/// with `base` = [`BASE_BACKOFF_US`],
/// in integer microseconds. Pure in `(seed, session, epoch, attempt)` —
/// no call-order or wall-clock dependence — which is exactly what lets
/// replay reconstruct the schedule without journaling each draw.
pub fn backoff_us(cfg: &ReadmitConfig, session: SessionId, epoch: u64, attempt: u32) -> u64 {
    let base = BASE_BACKOFF_US;
    let cap = ((cfg.cap_backoff_s.max(0.0) * 1e6) as u64).max(base);
    // Saturating 3^attempt keeps deep retries pinned at the cap instead
    // of wrapping back to short waits.
    let mut ceil = base;
    for _ in 0..attempt {
        ceil = ceil.saturating_mul(3);
        if ceil >= cap {
            ceil = cap;
            break;
        }
    }
    let ceil = ceil.clamp(base, cap);
    let mut rng = draw_rng(cfg.seed, session, epoch, u64::from(attempt), STREAM_READMIT);
    if ceil == base {
        base
    } else {
        rng.gen_range(base..=ceil)
    }
}

/// The queue proper. Keyed by session (a session is queued at most
/// once); iteration order is ascending session id, so the earliest-due
/// scan is deterministic under ties.
#[derive(Debug, Default)]
pub(crate) struct ReadmitState {
    /// Queued entries, ascending by session.
    pub(crate) entries: BTreeMap<SessionId, ReadmitEntry>,
    /// Per-session epoch watermark: the highest epoch ever used, kept
    /// across admissions and drops so the next displacement draws a
    /// fresh backoff stream.
    pub(crate) epochs: HashMap<SessionId, u64>,
}

impl ReadmitState {
    /// The earliest-due entry, ties broken by ascending session id.
    pub(crate) fn next_due(&self) -> Option<ReadmitEntry> {
        self.entries
            .values()
            .copied()
            .min_by_key(|e| (e.due_us, e.session))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_pure_and_bounded() {
        let cfg = ReadmitConfig::default();
        let s = SessionId::from(7usize);
        let a = backoff_us(&cfg, s, 3, 2);
        let b = backoff_us(&cfg, s, 3, 2);
        assert_eq!(a, b, "same inputs, same backoff");
        let base = BASE_BACKOFF_US;
        let cap = (cfg.cap_backoff_s * 1e6) as u64;
        for attempt in 0..12 {
            let d = backoff_us(&cfg, s, 3, attempt);
            assert!(d >= base && d <= cap, "attempt {attempt}: {d} out of range");
        }
    }

    #[test]
    fn backoff_streams_differ_by_identity() {
        let cfg = ReadmitConfig::default();
        let a = backoff_us(&cfg, SessionId::from(1usize), 1, 3);
        let b = backoff_us(&cfg, SessionId::from(2usize), 1, 3);
        let c = backoff_us(&cfg, SessionId::from(1usize), 2, 3);
        assert!(a != b || a != c, "identity must steer the jitter");
    }

    #[test]
    fn next_due_breaks_ties_by_session() {
        let mut st = ReadmitState::default();
        for i in [5usize, 2, 9] {
            let s = SessionId::from(i);
            st.entries.insert(
                s,
                ReadmitEntry {
                    session: s,
                    epoch: 1,
                    attempt: 0,
                    due_us: 100,
                },
            );
        }
        assert_eq!(st.next_due().unwrap().session, SessionId::from(2usize));
    }
}
