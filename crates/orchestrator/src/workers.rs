//! Background re-optimization workers.
//!
//! One *logical* worker per live session runs the paper's WAIT/HOP
//! loop: draw an exponential countdown, then HOP under the fleet's
//! **sharded FREEZE** — hops on different sessions run concurrently,
//! serialized only by their session slot and the ledger shards they
//! touch. Logical workers are multiplexed so a fleet of thousands of
//! sessions doesn't need thousands of threads.
//!
//! ## Sharded wakeup scheduling
//!
//! Pending wakeups live in a [`ShardedQueue`](crate::sched): sessions
//! map to independent shards, each one ordered set of pending wakeups
//! behind its own short-held lock, with a cached earliest-due atomic
//! per shard so dispatch finds the next event by reading N atomics —
//! no global mutex on the hop path. Dispatch order is globally
//! ascending `(due_us, session, epoch)`; see the `sched` module docs
//! for the determinism argument and `tests/scheduler_equivalence.rs`
//! for the proptest against a reference heap.
//!
//! ## Reconstructible timers
//!
//! Every random draw a worker makes comes from a generator seeded
//! *deterministically* from `(pool seed, session, registration epoch,
//! wakeup index, stream)` — there is no long-lived RNG whose hidden
//! state a crash would lose. A worker's entire scheduling state is
//! therefore four integers (a [`TimerEntry`]), which the persistence
//! layer journals at durability boundaries and
//! [`restore_timers`](ReoptPool::restore_timers) reinstalls after
//! recovery: the first post-recovery wakeup fires at exactly the time,
//! and with exactly the randomness, the uncrashed run would have used.
//!
//! Two drive modes:
//!
//! * [`ReoptPool::tick_until`] — deterministic virtual time, used by the
//!   orchestrator's trace-driven runs and by tests;
//! * [`ReoptPool::run_wall`] — N OS threads racing over the due-session
//!   queue for a wall-clock budget, the deployment shape (and the bench
//!   target).

use crate::fleet::{Fleet, FleetHopScratch};
use crate::sched::{CompleteOutcome, ShardedQueue};
use parking_lot::Mutex;
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::AtomicBool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use vc_model::SessionId;
use vc_obs::{ObsPlane, Site, TraceKind};

pub use crate::sched::TimerEntry;

/// Virtual due-times are kept in integer microseconds so they order
/// totally (no NaN) inside the scheduler.
fn to_us(t_s: f64) -> u64 {
    (t_s.max(0.0) * 1e6) as u64
}

/// RNG stream selectors: the countdown and the hop of one wakeup use
/// disjoint deterministic streams.
const STREAM_WAIT: u64 = 0;
const STREAM_HOP: u64 = 1;

/// The deterministic per-draw generator: everything that identifies
/// the draw is mixed into the seed, so the stream is reconstructible
/// from a [`TimerEntry`] alone.
fn draw_rng(seed: u64, s: SessionId, epoch: u64, draws: u64, stream: u64) -> StdRng {
    let mut x = seed;
    x ^= 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(s.index() as u64 + 1);
    x ^= 0xd1b5_4a32_d192_ed03u64.wrapping_mul(epoch.wrapping_add(1));
    x ^= 0x94d0_49bb_1331_11ebu64.wrapping_mul(draws.wrapping_add(1));
    x ^= 0xbf58_476d_1ce4_e5b9u64.wrapping_mul(stream.wrapping_add(1));
    StdRng::seed_from_u64(x)
}

/// The worker pool. Sessions are registered on admission and taken
/// off the schedule when they depart.
#[derive(Debug)]
pub struct ReoptPool {
    queue: ShardedQueue,
    seed: u64,
    hops_executed: AtomicUsize,
    /// The virtual-clock drive's hop buffers. A trace-driven run calls
    /// [`tick_until`](Self::tick_until) once per event, so they are
    /// kept across calls; one driver at a time, hence uncontended.
    /// [`run_wall`](Self::run_wall) threads own theirs.
    tick_scratch: Mutex<FleetHopScratch>,
}

impl ReoptPool {
    /// An empty pool with the default shard count; `seed` derives
    /// every per-wakeup RNG.
    pub fn new(seed: u64) -> Self {
        Self::over(ShardedQueue::new(), seed)
    }

    /// An empty pool over `shards` scheduler shards (a contention
    /// knob only — dispatch order, and therefore every journaled
    /// record, is independent of it).
    pub fn with_shards(seed: u64, shards: usize) -> Self {
        Self::over(ShardedQueue::with_shards(shards), seed)
    }

    fn over(queue: ShardedQueue, seed: u64) -> Self {
        Self {
            queue,
            seed,
            hops_executed: AtomicUsize::new(0),
            tick_scratch: Mutex::new(FleetHopScratch::new()),
        }
    }

    /// Registers a logical worker for `s`, first wake drawn from the
    /// fleet's countdown distribution after `now_s`.
    pub fn register(&self, fleet: &Fleet, s: SessionId, now_s: f64) {
        let obs = fleet.obs();
        let (_, due_us) = self.queue.register_with(
            s,
            |epoch| {
                let mut rng = draw_rng(self.seed, s, epoch, 0, STREAM_WAIT);
                to_us(now_s + fleet.engine().next_countdown(&mut rng))
            },
            Some(obs),
        );
        obs.note_trace(TraceKind::WaitScheduled, s.index() as u32, due_us);
    }

    /// Registers a worker for every session in `sessions`, grouping by
    /// scheduler shard so each shard lock is taken once per batch —
    /// the setup path for large fleets. Produces exactly the
    /// timers per-session [`register`](Self::register) calls would.
    pub fn register_batch(&self, fleet: &Fleet, sessions: &[SessionId], now_s: f64) {
        let obs = fleet.obs();
        self.queue.register_batch(
            sessions,
            |s, epoch| {
                let mut rng = draw_rng(self.seed, s, epoch, 0, STREAM_WAIT);
                to_us(now_s + fleet.engine().next_countdown(&mut rng))
            },
            |s, due_us| {
                obs.note_trace(TraceKind::WaitScheduled, s.index() as u32, due_us);
            },
            Some(obs),
        );
    }

    /// Deactivates the session's worker (departures) and removes its
    /// pending wakeup, if one is queued.
    pub fn deregister(&self, s: SessionId) {
        self.queue.deregister(s);
    }

    /// Total HOPs executed (migrated + stayed) since construction.
    pub fn hops_executed(&self) -> usize {
        self.hops_executed.load(Ordering::Relaxed)
    }

    /// The scheduler shard count.
    pub fn num_shards(&self) -> usize {
        self.queue.num_shards()
    }

    /// Pending wakeups removed so far because a departure or a
    /// re-registration superseded them.
    pub fn stale_reclaimed(&self) -> u64 {
        self.queue.stale_reclaimed()
    }

    /// Pending wakeups per scheduler shard.
    pub fn shard_depths(&self) -> Vec<u64> {
        self.queue.shard_depths()
    }

    /// Per-shard `(lock acquisitions, contended acquisitions)` — the
    /// contention-profile evidence the hop bench archives.
    pub fn shard_lock_counters(&self) -> Vec<(u64, u64)> {
        self.queue.shard_lock_counters()
    }

    /// Every worker's scheduling state (inactive epoch watermarks
    /// included), ascending by session — what a durability boundary
    /// journals so recovery can resume the WAIT timers instead of
    /// re-drawing them.
    pub fn timer_state(&self) -> Vec<TimerEntry> {
        self.queue.timer_state()
    }

    /// Reinstalls journaled timer state (crash recovery): each entry
    /// whose session is still live in the **recovered fleet** resumes
    /// its pending wakeup at its recorded virtual time with its
    /// recorded randomness — bit-for-bit the schedule the crashed pool
    /// would have run. Entries for sessions that are *not* live (they
    /// departed after the timers were journaled; replay applied the
    /// `Depart`) install as inactive epoch watermarks only — never
    /// scheduled, but a later re-admission still continues the same
    /// epoch sequence. Call on a freshly built pool with the same
    /// seed, then [`ensure_registered`](Self::ensure_registered) for
    /// the opposite gap (sessions admitted after the journaled cut).
    pub fn restore_timers(&self, fleet: &Fleet, entries: &[TimerEntry]) {
        self.queue.restore(entries, |s| fleet.is_live(s));
    }

    /// Registers a fresh worker for every live session of `fleet` that
    /// has no active timer, first wakes drawn after `now_s`. Call after
    /// [`restore_timers`](Self::restore_timers): sessions admitted
    /// *after* the last journaled `Timers` record replay into the
    /// recovered fleet without a timer entry, and without this step
    /// they would silently never be re-optimized again. Returns the
    /// sessions that were (re-)registered.
    pub fn ensure_registered(&self, fleet: &Fleet, now_s: f64) -> Vec<SessionId> {
        let mut registered = Vec::new();
        for s in fleet.live_sessions() {
            if !self.queue.has_active(s) {
                self.register(fleet, s, now_s);
                registered.push(s);
            }
        }
        registered
    }

    /// The earliest pending wakeup `(due_us, session)` among live
    /// workers, if any (telemetry / test introspection).
    pub fn next_due(&self) -> Option<(u64, SessionId)> {
        self.queue.peek(None)
    }

    /// Pops the next due worker at or before `horizon_us`, hops it
    /// (reusing the caller's scratch), and reschedules. Returns `false`
    /// when nothing is due.
    fn step_one(&self, fleet: &Fleet, horizon_us: u64, scratch: &mut FleetHopScratch) -> bool {
        // WAIT-wakeup dispatch span (scheduler pop, including shard
        // lock waits), sampled 1-in-128 so the extra clock reads stay
        // inside the observability overhead budget (the dispatch rate
        // is the hop rate — even 1/128 is thousands of samples/s);
        // `WakeupDispatched` trace events piggyback on the same sampled
        // ticks, so tracing adds no clock reads here.
        let obs = fleet.obs();
        let sampled = self.hops_executed.load(Ordering::Relaxed) as u64
            & (ObsPlane::WAIT_SAMPLE_EVERY - 1)
            == 0;
        let t0 = if obs.enabled() && sampled {
            Some(Instant::now())
        } else {
            None
        };
        // Take the worker off the queue under its shard lock, hop
        // *outside* it so parallel callers only serialize on their
        // session slot and the ledger shards.
        let Some(popped) = self.queue.pop_due(horizon_us, Some(obs)) else {
            return false;
        };
        let (due_us, s, epoch, draws) = (popped.due_us, popped.session, popped.epoch, popped.draws);
        obs.record_since(Site::WaitDispatch, t0);
        if sampled {
            obs.note_trace(TraceKind::WakeupDispatched, s.index() as u32, due_us);
        }
        let mut hop_rng = draw_rng(self.seed, s, epoch, draws, STREAM_HOP);
        let hopped = fleet.hop_live_with(s, &mut hop_rng, scratch);
        self.hops_executed.fetch_add(1, Ordering::Relaxed);
        let next_draws = draws + 1;
        let mut wait_rng = draw_rng(self.seed, s, epoch, next_draws, STREAM_WAIT);
        let wait = fleet.engine().next_countdown(&mut wait_rng);
        // The session may have departed (or been re-registered) while
        // we hopped; `complete` re-arms only the current registration,
        // and retires the worker if the session died fleet-side
        // without a deregister — which the hop itself reports: it
        // found a slot or it did not. On the virtual clock nothing
        // runs between the hop and here, so that is what a second
        // look at the fleet would say; under threads a session
        // displaced in between is re-armed once more and retires at
        // its next wakeup, whose hop finds no slot.
        let next = hopped.map(|_| (due_us + to_us(wait), next_draws));
        let outcome = self.queue.complete(s, epoch, next, Some(obs));
        // Re-arm events ride the same sampled ticks as the dispatch
        // span, so a sampled wakeup traces as dispatch → next deadline.
        if sampled {
            if let CompleteOutcome::Rescheduled(next_due) = outcome {
                obs.note_trace(TraceKind::WaitScheduled, s.index() as u32, next_due);
            }
        }
        true
    }

    /// Deterministically executes every wakeup due at or before `t_s`
    /// (virtual seconds), in due order — WAIT/HOP worker wakeups *and*
    /// re-admission attempts from the fleet's self-healing queue,
    /// merged into one timeline (re-admission wins due-time ties, so a
    /// session re-admitted at `t` can be hopped at `t` by a worker
    /// wakeup later in the same drive). Each turn runs one worker due
    /// strictly before the next re-admission or, when there is none,
    /// that re-admission. A successful re-admission registers a fresh
    /// worker at its admission time. Returns the number of hops run
    /// (re-admission attempts are not hops).
    pub fn tick_until(&self, fleet: &Fleet, t_s: f64) -> usize {
        let horizon = to_us(t_s);
        let mut scratch = self.tick_scratch.lock();
        let mut n = 0;
        loop {
            let readmit = fleet.next_readmit_due().filter(|&d| d <= horizon);
            let worker_bound = match readmit {
                None => Some(horizon),
                // Nothing runs before a re-admission due at 0.
                Some(r) => r.checked_sub(1),
            };
            if worker_bound.is_some_and(|b| self.step_one(fleet, b, &mut scratch)) {
                n += 1;
            } else if let Some(r) = readmit {
                if let Some(s) = fleet.readmit_attempt_one(r) {
                    self.register(fleet, s, r as f64 / 1e6);
                }
            } else {
                break;
            }
        }
        // The plane's per-hop counters are exact between drives.
        scratch.flush_counts();
        n
    }

    /// Races `threads` OS threads over the due queue for `budget` wall
    /// time. Hops on different sessions run **concurrently** under the
    /// shared FREEZE lock (each serialized only by its session slot and
    /// the ledger shards it touches); each thread owns its hop scratch,
    /// so steady-state hops allocate nothing. Virtual due-times are
    /// treated as *priorities* (drain order), not paced to the wall
    /// clock — the mode exists to exercise and measure the contention
    /// structure. Returns the number of hops run.
    pub fn run_wall(&self, fleet: &Fleet, budget: Duration, threads: usize) -> usize {
        let stop = AtomicBool::new(false);
        let executed = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| {
                    let mut scratch = FleetHopScratch::new();
                    while !stop.load(Ordering::Relaxed) {
                        if self.step_one(fleet, u64::MAX, &mut scratch) {
                            executed.fetch_add(1, Ordering::Relaxed);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let started = Instant::now();
            while started.elapsed() < budget {
                std::thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
        });
        executed.load(Ordering::Relaxed)
    }
}
