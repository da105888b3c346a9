//! Causal lifecycle tracing: the fleet's one event ring — bounded,
//! lock-free, sharded — answering "what happened to *this* session?"
//! and, in a post-mortem, "what did the fleet do last?".
//!
//! The ring records structured **lifecycle events** — registered, admit
//! attempt/outcome, WAIT scheduling and dispatch, hop commits, swap
//! conflicts, evacuation, departure, recovery installs, and the
//! fleet-scoped causes around them (an agent going down or coming back,
//! a checkpoint, a finished recovery) — each stamped with a **global
//! monotonic sequence** (total order across the fleet) plus a
//! **per-session chain** counter (strictly increasing along one
//! session's events), so the causal path of any session is
//! reconstructible from a dump even after concurrent interleaving. A
//! hop that *stays* is not an event: it changes nothing, and
//! `FleetCounters::stays`, `vc_obs_hop_memo_hits` and the journal's
//! `StayBatch` already count it.
//!
//! **Publication protocol.** The ring is sharded by session so
//! concurrent emitters on different sessions land on different slot
//! regions. A writer zeroes the slot's sequence word, writes the data
//! words relaxed, and publishes the sequence *last* with `Release` — a
//! reader that observes it also observes the data. Reads are
//! best-effort: a slot being overwritten concurrently decodes to a zero
//! seq or an unknown kind and is skipped at dump time, and dumps sort
//! and de-duplicate by sequence. The ring is diagnostic, never
//! authoritative — the journal owns the serialization order.
//!
//! Dumps export as Chrome-trace / Perfetto JSON
//! ([`TraceRing::chrome_json`]): one track (`tid`) per session, instant
//! events carrying `seq`/`chain`/`payload` args, loadable directly in
//! `ui.perfetto.dev` or `chrome://tracing`.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The `session` of a fleet-scoped event (one about an agent, the
/// journal or the store rather than a conference).
pub const FLEET_SCOPE: u32 = u32::MAX;

/// Declares [`TraceKind`] once — `tag => Variant "name"` per kind — so
/// the discriminant a slot stores, the snake-case name exports print
/// and the dump-time decoder cannot drift apart.
macro_rules! trace_kinds {
    ($($(#[$doc:meta])* $tag:literal => $variant:ident $name:literal,)+) => {
        /// A lifecycle event kind.
        ///
        /// The `payload` word of a [`TraceEvent`] is kind-specific; the
        /// encoding is documented per variant. Fleet-scoped kinds carry
        /// [`FLEET_SCOPE`] as their `session`.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(u8)]
        pub enum TraceKind {
            $($(#[$doc])* $variant = $tag,)+
        }

        impl TraceKind {
            /// Stable snake-case name used in exports.
            pub fn name(self) -> &'static str {
                match self {
                    $(TraceKind::$variant => $name,)+
                }
            }

            fn from_u8(v: u8) -> Option<Self> {
                Some(match v {
                    $($tag => TraceKind::$variant,)+
                    _ => return None,
                })
            }
        }
    };
}

trace_kinds! {
    /// The conference joined the universe (`Fleet::register_session`).
    /// `payload` = number of users in the session.
    1 => Registered "registered",
    /// An admission search ran (`payload` = deepest engine tier
    /// reached: 0 enumeration, 1 greedy+repair, 2 ranked fallback;
    /// code 3 is retired). Emitted just before its outcome event so
    /// the per-session chain reads attempt → `Admitted`/`Refused`.
    2 => AdmitAttempt "admit_attempt",
    /// The session went live. `payload` = FNV-1a hash of the committed
    /// placement (user/task → agent pairs), so two admissions landing
    /// identical placements are recognizable across restarts.
    3 => Admitted "admitted",
    /// The admission was refused. `payload` = stage: 0 user-fit,
    /// 1 task-fit, 2 global check, 5 already live (3 and 4 are
    /// retired).
    4 => Refused "refused",
    /// A WAIT countdown was armed. `payload` = virtual-clock deadline
    /// in µs.
    5 => WaitScheduled "wait_scheduled",
    /// The scheduler popped the timer and dispatched the hop.
    /// `payload` = the deadline (µs) that fired.
    6 => WakeupDispatched "wakeup_dispatched",
    /// A HOP migrated the session (live, or replayed from the
    /// journal). `payload` = `f64::to_bits` of the per-session
    /// potential delta (`delta_phi`) the move realized.
    7 => HopCommitted "hop_committed",
    /// A HOP lost its ledger `try_swap` race. `payload` = the capacity
    /// shard the conflict was attributed to.
    8 => SwapConflict "swap_conflict",
    /// The session was force-moved off a failed agent.
    /// `payload` = the agent it evacuated onto.
    9 => Evacuated "evacuated",
    /// The session departed and released capacity. `payload` = 0.
    10 => Departed "departed",
    /// Recovery replayed the journaled placement — installed, never
    /// re-searched. `payload` = the journal sequence replayed.
    11 => RecoveryInstalled "recovery_installed",
    /// The session entered (or re-entered) the re-admission queue.
    /// `payload` = virtual due time (µs) of the next attempt.
    12 => ReadmitQueued "readmit_queued",
    /// A queued session was admitted back. `payload` = the attempt
    /// index that succeeded.
    13 => ReadmitAdmitted "readmit_admitted",
    /// A queued session was dropped (queue overflow or retry
    /// exhaustion). `payload` = attempts spent (0 for overflow).
    14 => ReadmitDropped "readmit_dropped",
    /// The write-ahead journal degraded: a storage fault exhausted its
    /// fsync retries and appends now buffer in memory. Fleet-scoped.
    /// `payload` = sync retries burned so far.
    15 => DurabilityDegraded "durability_degraded",
    /// An agent failed or was drained; emitted before the `Evacuated`
    /// rows it caused. Fleet-scoped. `payload` = `agent << 32 |
    /// evacuation moves` (saturating at `u32::MAX`).
    16 => AgentDown "agent_down",
    /// A failed agent came back. Fleet-scoped. `payload` = the agent.
    17 => AgentRestored "agent_restored",
    /// A snapshot checkpoint was cut. Fleet-scoped. `payload` = the
    /// last journal sequence the snapshot covers.
    18 => Checkpoint "checkpoint",
    /// Recovery finished replaying the journal tail (after the
    /// `RecoveryInstalled` / `HopCommitted` rows of the records it
    /// replayed). Fleet-scoped. `payload` = records replayed.
    19 => RecoveryReplayed "recovery_replayed",
}

/// One decoded lifecycle event.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Global monotonic sequence (1-based; gaps mean overwritten slots).
    pub seq: u64,
    /// Microseconds since the observability plane was created.
    pub t_us: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// The session the event belongs to.
    pub session: u32,
    /// Per-session chain ordinal: strictly increasing along one
    /// session's events (allocated from a striped counter, so values
    /// are monotone per session but not dense).
    pub chain: u32,
    /// Kind-specific payload (see [`TraceKind`]).
    pub payload: u64,
}

impl TraceEvent {
    /// One JSON object for raw dumps.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"seq\": {}, \"t_us\": {}, \"event\": \"{}\", \"session\": {}, \"chain\": {}, \"payload\": {}}}",
            self.seq,
            self.t_us,
            self.kind.name(),
            self.session,
            self.chain,
            self.payload
        )
    }

    /// One Chrome-trace instant event (`ph: "i"`), one track per
    /// session (`tid` = session index).
    pub fn to_chrome_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"cat\": \"session\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{\"seq\": {}, \"chain\": {}, \"payload\": {}}}}}",
            self.kind.name(),
            self.t_us,
            self.session,
            self.seq,
            self.chain,
            self.payload
        )
    }
}

struct Slot {
    // 0 = empty; otherwise the global 1-based sequence, stored *last*
    // with Release (module docs, "Publication protocol").
    seq: AtomicU64,
    // t_us << 8 | kind
    time_kind: AtomicU64,
    // session << 32 | chain
    ids: AtomicU64,
    payload: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Self {
            seq: AtomicU64::new(0),
            time_kind: AtomicU64::new(0),
            ids: AtomicU64::new(0),
            payload: AtomicU64::new(0),
        }
    }
}

struct Shard {
    slots: Vec<Slot>,
    /// `slots.len() - 1` (power-of-two capacity → mask, no division).
    mask: u64,
    cursor: AtomicU64,
}

/// How many striped per-session chain counters a ring keeps. Sessions
/// map onto stripes by index mask; a stripe shared between sessions
/// still hands each of them strictly increasing chain values (the
/// counter only grows), which is all causal reconstruction needs.
const CHAIN_STRIPES: usize = 1024;

/// The sharded lifecycle event ring. See module docs for the
/// concurrency model and export formats.
pub struct TraceRing {
    shards: Vec<Shard>,
    shard_mask: u64,
    next_seq: AtomicU64,
    chains: Vec<AtomicU32>,
}

impl TraceRing {
    /// A ring holding roughly the last `capacity` events, spread over
    /// `shards` session-sharded regions (both rounded up to powers of
    /// two; minimum one slot per shard).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = (capacity.max(1) / shards).max(1).next_power_of_two();
        let mut v = Vec::with_capacity(shards);
        for _ in 0..shards {
            let mut slots = Vec::with_capacity(per_shard);
            slots.resize_with(per_shard, Slot::empty);
            v.push(Shard {
                slots,
                mask: per_shard as u64 - 1,
                cursor: AtomicU64::new(0),
            });
        }
        let mut chains = Vec::with_capacity(CHAIN_STRIPES);
        chains.resize_with(CHAIN_STRIPES, || AtomicU32::new(0));
        Self {
            shards: v,
            shard_mask: shards as u64 - 1,
            next_seq: AtomicU64::new(0),
            chains,
        }
    }

    /// Total slots across all shards (the bound).
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.slots.len()).sum()
    }

    /// Record one lifecycle event. Lock-free: two `fetch_add`s (global
    /// seq + chain stripe) and four stores on the session's shard.
    ///
    /// A hop emits under its session's slot lock, but coarse ops
    /// (admission, registration, departure, agent loss) emit only after
    /// their exclusive FREEZE section is released — observation never
    /// extends the hold it measures. Emitters racing on the *same*
    /// session in that narrow window may publish chain values out of
    /// seq order; the ring is diagnostic and dumps sort by seq, so a
    /// rare inversion is visible, not corrupting. Under the fleet's
    /// per-session serialization both counters are monotone along a
    /// session's chain.
    #[inline]
    pub fn record(&self, t_us: u64, kind: TraceKind, session: u32, payload: u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let chain = self.chains[(session as usize) & (CHAIN_STRIPES - 1)]
            .fetch_add(1, Ordering::Relaxed)
            .wrapping_add(1);
        let shard = &self.shards[(session as u64 & self.shard_mask) as usize];
        let idx = (shard.cursor.fetch_add(1, Ordering::Relaxed) & shard.mask) as usize;
        let slot = &shard.slots[idx];
        slot.seq.store(0, Ordering::Relaxed);
        slot.time_kind
            .store((t_us << 8) | kind as u64, Ordering::Relaxed);
        slot.ids
            .store(((session as u64) << 32) | chain as u64, Ordering::Relaxed);
        slot.payload.store(payload, Ordering::Relaxed);
        slot.seq.store(seq, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn total(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Best-effort decoded snapshot across all shards, sorted by global
    /// sequence (oldest first), torn slots skipped.
    pub fn dump(&self) -> Vec<TraceEvent> {
        let mut out = Vec::with_capacity(self.capacity());
        for shard in &self.shards {
            for slot in &shard.slots {
                let seq = slot.seq.load(Ordering::Acquire);
                if seq == 0 {
                    continue;
                }
                let tk = slot.time_kind.load(Ordering::Relaxed);
                let ids = slot.ids.load(Ordering::Relaxed);
                let payload = slot.payload.load(Ordering::Relaxed);
                let Some(kind) = TraceKind::from_u8((tk & 0xFF) as u8) else {
                    continue; // torn slot — skip
                };
                out.push(TraceEvent {
                    seq,
                    t_us: tk >> 8,
                    kind,
                    session: (ids >> 32) as u32,
                    chain: (ids & 0xFFFF_FFFF) as u32,
                    payload,
                });
            }
        }
        out.sort_by_key(|e| e.seq);
        out.dedup_by_key(|e| e.seq);
        out
    }

    /// The newest `last` events of the dump as a raw JSON array.
    pub fn dump_json(&self, last: usize) -> String {
        let events = self.dump();
        let tail = &events[events.len().saturating_sub(last)..];
        let rows: Vec<String> = tail.iter().map(TraceEvent::to_json).collect();
        format!("[{}]", rows.join(", "))
    }

    /// The dump as a Chrome-trace / Perfetto JSON document: one
    /// instant-event track per session, loadable in `ui.perfetto.dev`.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self.dump().iter().map(TraceEvent::to_chrome_json).collect();
        format!(
            "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [{}]}}",
            events.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_seq_sorted() {
        let ring = TraceRing::new(4, 32);
        for i in 0..500u32 {
            ring.record(i as u64, TraceKind::HopCommitted, i % 16, i as u64);
        }
        let events = ring.dump();
        // Every shard overflowed: each keeps its newest slots' worth.
        assert_eq!(events.len(), ring.capacity());
        assert_eq!(events.last().unwrap().seq, 500);
        assert_eq!(ring.total(), 500);
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }

    #[test]
    fn per_session_chain_is_strictly_increasing() {
        let ring = TraceRing::new(2, 256);
        for i in 0..100u64 {
            ring.record(i, TraceKind::WaitScheduled, 7, i);
            ring.record(i, TraceKind::WakeupDispatched, 9, i);
        }
        let events = ring.dump();
        for sid in [7u32, 9u32] {
            let chains: Vec<u32> = events
                .iter()
                .filter(|e| e.session == sid)
                .map(|e| e.chain)
                .collect();
            assert!(!chains.is_empty());
            for w in chains.windows(2) {
                assert!(w[0] < w[1], "session {sid} chain not monotone: {chains:?}");
            }
        }
    }

    #[test]
    fn payload_and_ids_round_trip() {
        let ring = TraceRing::new(1, 8);
        let phi = f64::to_bits(-3.25);
        ring.record(42, TraceKind::HopCommitted, 0xDEAD, phi);
        let e = ring.dump()[0];
        assert_eq!(e.t_us, 42);
        assert_eq!(e.session, 0xDEAD);
        assert_eq!(e.chain, 1);
        assert_eq!(f64::from_bits(e.payload), -3.25);
        assert_eq!(e.kind, TraceKind::HopCommitted);
    }

    #[test]
    fn chrome_export_has_one_track_per_session() {
        let ring = TraceRing::new(2, 64);
        ring.record(1, TraceKind::Registered, 3, 5);
        ring.record(2, TraceKind::Admitted, 3, 99);
        ring.record(3, TraceKind::Registered, 4, 2);
        let json = ring.chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"tid\": 3"));
        assert!(json.contains("\"tid\": 4"));
        assert!(json.contains("\"name\": \"admitted\""));
        assert!(json.contains("\"ph\": \"i\""));
    }

    #[test]
    fn concurrent_records_stay_bounded_and_ordered() {
        let ring = std::sync::Arc::new(TraceRing::new(4, 64));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let ring = ring.clone();
                s.spawn(move || {
                    for i in 0..1000u32 {
                        ring.record(i as u64, TraceKind::HopCommitted, t * 100 + (i % 3), 0);
                    }
                });
            }
        });
        assert_eq!(ring.total(), 4000);
        let events = ring.dump();
        assert!(events.len() <= ring.capacity());
        for w in events.windows(2) {
            assert!(w[0].seq < w[1].seq);
        }
    }
}
