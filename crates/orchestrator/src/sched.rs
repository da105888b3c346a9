//! Sharded wakeup queue: which WAIT countdown expires next.
//!
//! Alg. 1's WAIT is one exponential countdown per live session, so the
//! scheduler under [`ReoptPool`](crate::ReoptPool) answers one
//! question — which countdown expires next, in
//! `(due_us, session, epoch)` order. Sessions hash onto `N`
//! independent **shards**, each the per-session timer map plus one
//! ordered set of pending wakeups behind its own short-held lock, with
//! a per-shard **cached earliest-due atomic** so finding the globally
//! next event reads `N` atomics and locks only the shards that could
//! hold it.
//!
//! ## Determinism
//!
//! Dispatch order is globally ascending `(due_us, session, epoch)`.
//! Within a shard that is the set's own order; across shards, the pop
//! path looks at every shard whose cached earliest due could still win
//! and takes the lexicographic minimum. A session maps to one fixed
//! shard, so cross-shard due ties are always between distinct
//! sessions. The order — and therefore the journaled `Timers` records
//! and the `(seed, session, epoch, draw)` randomness derivation — is
//! independent of the shard count (proptested against a reference heap
//! in `tests/scheduler_equivalence.rs`).
//!
//! ## Eager cancellation
//!
//! A shard's set holds pending wakeups of *current* registrations
//! only. A departure, a re-registration and a restore each remove the
//! wakeup they supersede at once — its key is in the session's timer
//! record — so the first element is always dispatchable, a shard's
//! depth is its number of waiting workers, and the cached earliest due
//! is exact, not a lower bound. A wakeup that is *in flight* (popped,
//! not yet completed) is in no set; superseding its worker removes
//! nothing, and its late [`ShardedQueue::complete`] is a no-op.
//! Removals are counted ([`ShardedQueue::stale_reclaimed`]) and
//! exported with the per-shard depths on `/metrics` (`vc_sched_*`).
//!
//! ## Contention observability
//!
//! Shard locks are taken with `try_lock` first; contended acquisitions
//! count into per-shard conflict counters and (when a plane is passed)
//! record their wait into the [`Site::SchedLock`] histogram — the
//! "schedule lock off the contention profile" evidence the hop bench
//! archives.

use parking_lot::{Mutex, MutexGuard};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use vc_model::SessionId;
use vc_obs::{ObsPlane, Site};

/// Default shard count ([`ShardedQueue::new`]); any power of two in
/// `1..=64` is accepted via [`ShardedQueue::with_shards`].
pub const DEFAULT_SHARDS: usize = 8;

/// One logical worker's complete scheduling state — everything needed
/// to resume its WAIT/HOP loop bit-for-bit after a crash.
///
/// Inactive entries (departed sessions) are part of the state too:
/// their epoch must survive recovery, because a later re-admission
/// draws its randomness from `epoch + 1` — dropping them would make a
/// departed-then-readmitted session diverge from the uncrashed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerEntry {
    /// The session the worker re-optimizes.
    pub session: SessionId,
    /// Virtual time of the pending wakeup (µs); stale for inactive
    /// entries (no wakeup is scheduled from it).
    pub due_us: u64,
    /// Registration epoch (bumped on every re-registration, so an
    /// in-flight wakeup of a departed-then-readmitted session's earlier
    /// registration completes as a no-op).
    pub epoch: u64,
    /// Wakeups executed in this epoch — the index that seeds the next
    /// wakeup's hop and countdown generators.
    pub draws: u64,
    /// Whether the worker is live (scheduled). Inactive entries carry
    /// only the epoch watermark.
    pub active: bool,
}

/// One wakeup taken off the queue by [`ShardedQueue::pop_due`] — the
/// four integers that seed the hop and next-countdown generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoppedTimer {
    /// Virtual due time (µs) the wakeup fired at.
    pub due_us: u64,
    /// The session to re-optimize.
    pub session: SessionId,
    /// Its registration epoch at pop time.
    pub epoch: u64,
    /// Draws already executed in this epoch.
    pub draws: u64,
}

/// What [`ShardedQueue::complete`] did with a finished wakeup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompleteOutcome {
    /// The worker re-armed at the returned due time.
    Rescheduled(u64),
    /// The session is gone fleet-side; the worker retired (inactive
    /// epoch watermark kept).
    Retired,
    /// A concurrent deregister/re-register superseded this epoch; the
    /// completion was a no-op.
    Superseded,
}

/// Per-session timer record (the authoritative state; a queue entry
/// is just its scheduling index).
#[derive(Debug, Clone, Copy)]
struct WorkerTimer {
    epoch: u64,
    draws: u64,
    /// Due time of the registration's latest wakeup: the one queued,
    /// or, between pop and completion, the one in flight.
    due_us: u64,
    /// False once the session deregisters (or retires).
    active: bool,
}

/// One shard's locked state: the authoritative per-session timers,
/// the pending wakeups of their current registrations in dispatch
/// order, and the count of wakeups removed because their registration
/// was superseded.
#[derive(Debug, Default)]
struct Inner {
    timers: HashMap<SessionId, WorkerTimer>,
    due: BTreeSet<(u64, SessionId, u64)>,
    reclaimed: u64,
}

impl Inner {
    /// Removes the pending wakeup of `s`'s current registration, if
    /// one is queued (an in-flight wakeup is not).
    fn cancel(&mut self, s: SessionId) {
        if let Some(t) = self.timers.get(&s) {
            if t.active && self.due.remove(&(t.due_us, s, t.epoch)) {
                self.reclaimed += 1;
            }
        }
    }

    /// Removes the shard's first wakeup **iff** it is exactly
    /// `(due, s)`; `None` means a concurrent mutation won the race and
    /// the caller must rescan.
    fn pop_exact(&mut self, due: u64, s: SessionId) -> Option<PoppedTimer> {
        let &(first_due, first_s, epoch) = self.due.first()?;
        if (first_due, first_s) != (due, s) {
            return None;
        }
        self.due.pop_first();
        Some(PoppedTimer {
            due_us: due,
            session: s,
            epoch,
            draws: self.timers[&s].draws,
        })
    }

    fn register_with(&mut self, s: SessionId, draw: impl FnOnce(u64) -> u64) -> (u64, u64) {
        self.cancel(s);
        let epoch = self.timers.get(&s).map_or(0, |t| t.epoch) + 1;
        let due = draw(epoch);
        self.timers.insert(
            s,
            WorkerTimer {
                epoch,
                draws: 0,
                due_us: due,
                active: true,
            },
        );
        self.due.insert((due, s, epoch));
        (epoch, due)
    }

    fn deregister(&mut self, s: SessionId) {
        self.cancel(s);
        if let Some(t) = self.timers.get_mut(&s) {
            t.active = false;
        }
    }

    fn complete(&mut self, s: SessionId, epoch: u64, next: Option<(u64, u64)>) -> CompleteOutcome {
        let Some(t) = self.timers.get_mut(&s) else {
            return CompleteOutcome::Superseded;
        };
        if !t.active || t.epoch != epoch {
            return CompleteOutcome::Superseded;
        }
        match next {
            Some((due, draws)) => {
                t.draws = draws;
                t.due_us = due;
                self.due.insert((due, s, epoch));
                CompleteOutcome::Rescheduled(due)
            }
            None => {
                // The session died without a deregister (a caller that
                // departs fleet-side only): retire the worker so the
                // timer cannot linger active-but-unscheduled, which
                // would make a future re-admission skip re-registration
                // forever.
                t.active = false;
                CompleteOutcome::Retired
            }
        }
    }

    fn restore(&mut self, e: &TimerEntry, live: bool) {
        self.cancel(e.session);
        let active = e.active && live;
        self.timers.insert(
            e.session,
            WorkerTimer {
                epoch: e.epoch,
                draws: e.draws,
                due_us: e.due_us,
                active,
            },
        );
        if active {
            self.due.insert((e.due_us, e.session, e.epoch));
        }
    }
}

/// One scheduler shard: its locked state plus lock-free mirrors the
/// dispatch scan and the gauges read without taking the lock.
#[derive(Debug)]
struct Shard {
    inner: Mutex<Inner>,
    /// The shard's earliest pending due time (µs); `u64::MAX` when
    /// empty.
    earliest: AtomicU64,
    depth: AtomicU64,
    reclaimed: AtomicU64,
    acquires: AtomicU64,
    conflicts: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            earliest: AtomicU64::new(u64::MAX),
            depth: AtomicU64::new(0),
            reclaimed: AtomicU64::new(0),
            acquires: AtomicU64::new(0),
            conflicts: AtomicU64::new(0),
        }
    }

    /// Locks the shard, counting contended acquisitions and (when a
    /// plane is given) recording the contended wait into
    /// [`Site::SchedLock`]. The uncontended fast path costs one
    /// `try_lock` and one relaxed increment — no clock read.
    fn lock(&self, obs: Option<&ObsPlane>) -> MutexGuard<'_, Inner> {
        self.acquires.fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.inner.try_lock() {
            return g;
        }
        self.conflicts.fetch_add(1, Ordering::Relaxed);
        match obs.filter(|p| p.enabled()) {
            Some(plane) => {
                let t0 = Instant::now();
                let g = self.inner.lock();
                plane.record_since(Site::SchedLock, Some(t0));
                g
            }
            None => self.inner.lock(),
        }
    }

    /// Mirrors the locked state's gauges into the lock-free atomics;
    /// call before dropping a guard that mutated.
    fn sync(&self, g: &Inner) {
        let earliest = g.due.first().map_or(u64::MAX, |&(due, _, _)| due);
        self.earliest.store(earliest, Ordering::Relaxed);
        self.depth.store(g.due.len() as u64, Ordering::Relaxed);
        self.reclaimed.store(g.reclaimed, Ordering::Relaxed);
    }
}

/// The sharded wakeup queue. All operations are keyed by session; a
/// session's shard is fixed (`index & mask`), so per-session ordering
/// needs no cross-shard coordination.
#[derive(Debug)]
pub struct ShardedQueue {
    shards: Box<[Shard]>,
    mask: usize,
}

impl ShardedQueue {
    /// A scheduler with [`DEFAULT_SHARDS`] shards.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A scheduler with `shards` shards (rounded up to a power of two,
    /// clamped to `1..=64`). Dispatch order is independent of the
    /// count — it is purely a contention knob.
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.clamp(1, 64).next_power_of_two();
        let mut v = Vec::with_capacity(n);
        v.resize_with(n, Shard::new);
        Self {
            shards: v.into_boxed_slice(),
            mask: n - 1,
        }
    }

    /// The shard count.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, s: SessionId) -> &Shard {
        // Session ids are dense, so masking round-robins them evenly.
        &self.shards[s.index() & self.mask]
    }

    /// Registers (or re-registers) a worker for `s`. The closure maps
    /// the fresh epoch to the first due time (it runs under the shard
    /// lock, so the epoch it sees is the one installed). Returns
    /// `(epoch, due_us)`.
    pub fn register_with(
        &self,
        s: SessionId,
        draw: impl FnOnce(u64) -> u64,
        obs: Option<&ObsPlane>,
    ) -> (u64, u64) {
        let shard = self.shard_of(s);
        let mut g = shard.lock(obs);
        let out = g.register_with(s, draw);
        shard.sync(&g);
        out
    }

    /// Registers a batch, grouping sessions by shard so each shard
    /// lock is taken once per batch instead of once per session. The
    /// per-session `(epoch, due)` results are passed to `scheduled` in
    /// shard-grouped order.
    pub fn register_batch(
        &self,
        sessions: &[SessionId],
        mut draw: impl FnMut(SessionId, u64) -> u64,
        mut scheduled: impl FnMut(SessionId, u64),
        obs: Option<&ObsPlane>,
    ) {
        let n = self.shards.len();
        let mut groups: Vec<Vec<SessionId>> = vec![Vec::new(); n];
        for &s in sessions {
            groups[s.index() & self.mask].push(s);
        }
        for (i, group) in groups.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &self.shards[i];
            let mut g = shard.lock(obs);
            for s in group {
                let (_, due) = g.register_with(s, |epoch| draw(s, epoch));
                scheduled(s, due);
            }
            shard.sync(&g);
        }
    }

    /// Deactivates the session's worker (departures) and removes its
    /// pending wakeup.
    pub fn deregister(&self, s: SessionId) {
        let shard = self.shard_of(s);
        let mut g = shard.lock(None);
        g.deregister(s);
        shard.sync(&g);
    }

    /// Whether `s` currently has an active (scheduled or in-flight)
    /// worker.
    pub fn has_active(&self, s: SessionId) -> bool {
        self.shard_of(s)
            .lock(None)
            .timers
            .get(&s)
            .is_some_and(|t| t.active)
    }

    /// The globally earliest pending wakeup `(due_us, session)`, in
    /// exact dispatch order.
    pub fn peek(&self, obs: Option<&ObsPlane>) -> Option<(u64, SessionId)> {
        self.scan(u64::MAX, obs).map(|(due, s, _)| (due, s))
    }

    /// One pass over the shards: look at the first wakeup of every
    /// shard whose cached earliest due could still beat the best
    /// candidate, returning the global minimum by `(due, session)` at
    /// or before `horizon_us` and the shard holding it.
    fn scan(&self, horizon_us: u64, obs: Option<&ObsPlane>) -> Option<(u64, SessionId, usize)> {
        let n = self.shards.len();
        debug_assert!(n <= 64);
        let mut order = [(u64::MAX, 0u8); 64];
        for (i, shard) in self.shards.iter().enumerate() {
            order[i] = (shard.earliest.load(Ordering::Relaxed), i as u8);
        }
        let order = &mut order[..n];
        order.sort_unstable();
        let mut best: Option<(u64, SessionId, usize)> = None;
        for &(hint, i) in order.iter() {
            if hint > horizon_us || best.is_some_and(|(bd, _, _)| hint > bd) {
                break;
            }
            let first = self.shards[i as usize].lock(obs).due.first().copied();
            if let Some((due, s, _)) = first {
                if due <= horizon_us && best.is_none_or(|(bd, bs, _)| (due, s) < (bd, bs)) {
                    best = Some((due, s, i as usize));
                }
            }
        }
        best
    }

    /// Pops the globally earliest wakeup due at or before `horizon_us`
    /// — exact `(due, session, epoch)` order. Under concurrent callers
    /// a lost race rescans, so each returned wakeup is popped exactly
    /// once.
    pub fn pop_due(&self, horizon_us: u64, obs: Option<&ObsPlane>) -> Option<PoppedTimer> {
        loop {
            let (due, s, i) = self.scan(horizon_us, obs)?;
            let shard = &self.shards[i];
            let mut g = shard.lock(obs);
            let popped = g.pop_exact(due, s);
            shard.sync(&g);
            drop(g);
            match popped {
                Some(p) => return Some(p),
                None => continue,
            }
        }
    }

    /// Finishes a popped wakeup: re-arms at `next = Some((due, draws))`
    /// or retires the worker (`None`), unless a concurrent
    /// deregister/re-register superseded the epoch.
    pub fn complete(
        &self,
        s: SessionId,
        epoch: u64,
        next: Option<(u64, u64)>,
        obs: Option<&ObsPlane>,
    ) -> CompleteOutcome {
        let shard = self.shard_of(s);
        let mut g = shard.lock(obs);
        let out = g.complete(s, epoch, next);
        shard.sync(&g);
        out
    }

    /// Every worker's scheduling state (inactive epoch watermarks
    /// included), ascending by session — what a durability boundary
    /// journals.
    pub fn timer_state(&self) -> Vec<TimerEntry> {
        let mut out: Vec<TimerEntry> = Vec::new();
        for shard in self.shards.iter() {
            let g = shard.lock(None);
            out.extend(g.timers.iter().map(|(&session, t)| TimerEntry {
                session,
                due_us: t.due_us,
                epoch: t.epoch,
                draws: t.draws,
                active: t.active,
            }));
        }
        out.sort_unstable_by_key(|e| e.session);
        out
    }

    /// Reinstalls journaled timer state; `live(session)` gates which
    /// entries resume as scheduled wakeups (the rest install as
    /// inactive epoch watermarks).
    pub fn restore(&self, entries: &[TimerEntry], live: impl Fn(SessionId) -> bool) {
        for e in entries {
            let shard = self.shard_of(e.session);
            let mut g = shard.lock(None);
            g.restore(e, live(e.session));
            shard.sync(&g);
        }
    }

    /// Pending wakeups removed so far because a deregister,
    /// re-register or restore superseded their registration.
    pub fn stale_reclaimed(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.reclaimed.load(Ordering::Relaxed))
            .sum()
    }

    /// Pending wakeups per shard (the `vc_sched_depth` gauge).
    pub fn shard_depths(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-shard `(lock acquisitions, contended acquisitions)`.
    pub fn shard_lock_counters(&self) -> Vec<(u64, u64)> {
        self.shards
            .iter()
            .map(|s| {
                (
                    s.acquires.load(Ordering::Relaxed),
                    s.conflicts.load(Ordering::Relaxed),
                )
            })
            .collect()
    }
}

impl Default for ShardedQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(i: usize) -> SessionId {
        SessionId::from(i)
    }

    /// Drains everything due at or before `horizon`, re-arming nothing.
    fn drain(w: &ShardedQueue, horizon: u64) -> Vec<(u64, SessionId)> {
        let mut out = Vec::new();
        while let Some(p) = w.pop_due(horizon, None) {
            w.complete(p.session, p.epoch, None, None);
            out.push((p.due_us, p.session));
        }
        out
    }

    #[test]
    fn dispatch_is_in_due_then_session_order() {
        let w = ShardedQueue::with_shards(4);
        for (i, due) in [(0usize, 500u64), (1, 100), (2, 100), (3, 90_000), (4, 7)] {
            w.register_with(sid(i), |_| due, None);
        }
        let order = drain(&w, u64::MAX);
        assert_eq!(
            order,
            vec![
                (7, sid(4)),
                (100, sid(1)),
                (100, sid(2)),
                (500, sid(0)),
                (90_000, sid(3)),
            ]
        );
        assert_eq!(w.peek(None), None);
    }

    #[test]
    fn horizon_bounds_pops_and_peek_is_exact() {
        let w = ShardedQueue::with_shards(2);
        w.register_with(sid(0), |_| 10, None);
        w.register_with(sid(1), |_| 20, None);
        assert_eq!(w.peek(None), Some((10, sid(0))));
        assert!(w.pop_due(5, None).is_none());
        let p = w.pop_due(10, None).unwrap();
        assert_eq!((p.due_us, p.session), (10, sid(0)));
        // Re-arm past the horizon; only session 1 remains due.
        assert_eq!(
            w.complete(p.session, p.epoch, Some((1_000, 1)), None),
            CompleteOutcome::Rescheduled(1_000)
        );
        let p = w.pop_due(20, None).unwrap();
        assert_eq!((p.due_us, p.session), (20, sid(1)));
    }

    #[test]
    fn deregistered_entries_are_reclaimed_not_dispatched() {
        let w = ShardedQueue::with_shards(1);
        // All three in one shard; two are cancelled.
        w.register_with(sid(0), |_| 100, None);
        w.register_with(sid(1), |_| 200, None);
        w.register_with(sid(2), |_| 300, None);
        w.deregister(sid(0));
        w.deregister(sid(2));
        assert_eq!(w.shard_depths(), vec![1], "cancelled at once");
        assert_eq!(w.stale_reclaimed(), 2);
        let order = drain(&w, u64::MAX);
        assert_eq!(order, vec![(200, sid(1))]);
        assert_eq!(w.stale_reclaimed(), 2);
        assert_eq!(w.shard_depths(), vec![0]);
    }

    #[test]
    fn re_registration_supersedes_and_bumps_epoch() {
        let w = ShardedQueue::with_shards(1);
        let (e1, _) = w.register_with(sid(0), |_| 100, None);
        assert_eq!(e1, 1);
        let (e2, _) = w.register_with(sid(0), |_| 50, None);
        assert_eq!(e2, 2);
        assert_eq!(w.shard_depths(), vec![1], "epoch-1 entry is gone");
        assert_eq!(w.stale_reclaimed(), 1);
        let order = drain(&w, u64::MAX);
        assert_eq!(order, vec![(50, sid(0))], "only the epoch-2 entry fires");
    }

    /// Superseding a worker whose wakeup is in flight (popped, not
    /// completed) finds nothing queued to remove, and the late
    /// completion is a no-op — for each of the three superseding ops.
    #[test]
    fn superseding_an_in_flight_worker_removes_nothing() {
        let w = ShardedQueue::with_shards(1);
        w.register_with(sid(0), |_| 100, None);
        let p = w.pop_due(u64::MAX, None).unwrap();
        w.deregister(sid(0));
        assert_eq!(
            w.complete(p.session, p.epoch, Some((200, 1)), None),
            CompleteOutcome::Superseded
        );
        assert_eq!(w.shard_depths(), vec![0]);

        w.register_with(sid(0), |_| 300, None);
        let p = w.pop_due(u64::MAX, None).unwrap();
        let (epoch, _) = w.register_with(sid(0), |_| 400, None);
        assert_eq!((p.epoch, epoch), (2, 3));
        assert_eq!(
            w.complete(p.session, p.epoch, Some((350, 1)), None),
            CompleteOutcome::Superseded
        );
        assert_eq!(w.shard_depths(), vec![1], "only the epoch-3 wakeup");

        let p = w.pop_due(u64::MAX, None).unwrap();
        let restored = TimerEntry {
            session: sid(0),
            due_us: 500,
            epoch: 9,
            draws: 4,
            active: true,
        };
        w.restore(&[restored], |_| true);
        assert_eq!(
            w.complete(p.session, p.epoch, Some((450, 1)), None),
            CompleteOutcome::Superseded
        );
        assert_eq!(w.stale_reclaimed(), 0, "nothing was queued to remove");
        assert_eq!(w.timer_state(), vec![restored]);
        assert_eq!(drain(&w, u64::MAX), vec![(500, sid(0))]);
    }

    /// Far-future dues (the name is from the side pool they once
    /// waited in) dispatch in order like any other.
    #[test]
    fn overflow_entries_promote_when_the_clock_reaches_their_block() {
        let w = ShardedQueue::with_shards(1);
        let far = (2 << 36) + 123;
        w.register_with(sid(0), |_| far, None);
        w.register_with(sid(1), |_| 10, None);
        let order = drain(&w, u64::MAX);
        assert_eq!(order, vec![(10, sid(1)), (far, sid(0))]);
    }

    /// A due below the last dispatched one — a sub-µs countdown drawn
    /// during a drive — still fires, ahead of everything later.
    #[test]
    fn late_registration_below_the_shard_clock_still_fires_in_order() {
        let w = ShardedQueue::with_shards(1);
        w.register_with(sid(0), |_| 1_000, None);
        let p = w.pop_due(u64::MAX, None).unwrap();
        assert_eq!(p.due_us, 1_000);
        w.complete(p.session, p.epoch, Some((2_000, 1)), None);
        // 1000 has been dispatched; register dues below it.
        w.register_with(sid(1), |_| 40, None);
        w.register_with(sid(2), |_| 30, None);
        let order = drain(&w, u64::MAX);
        assert_eq!(order, vec![(30, sid(2)), (40, sid(1)), (2_000, sid(0))]);
    }

    #[test]
    fn timer_state_round_trips_through_restore() {
        let w = ShardedQueue::with_shards(4);
        w.register_with(sid(3), |_| 300, None);
        w.register_with(sid(7), |_| 700, None);
        w.deregister(sid(7));
        let state = w.timer_state();
        let w2 = ShardedQueue::with_shards(8);
        w2.restore(&state, |_| true);
        assert_eq!(w2.timer_state(), state);
        assert_eq!(w2.peek(None), Some((300, sid(3))));
        // A not-live session restores as a watermark only.
        let w3 = ShardedQueue::with_shards(2);
        w3.restore(&state, |s| s != sid(3));
        assert_eq!(w3.peek(None), None);
        let e3 = w3
            .timer_state()
            .into_iter()
            .find(|e| e.session == sid(3))
            .unwrap();
        assert!(!e3.active, "non-live session restores inactive");
        assert_eq!(e3.epoch, 1, "epoch watermark survives");
    }

    #[test]
    fn shard_count_does_not_change_dispatch_order() {
        let dues = [
            (0usize, 5_000u64),
            (1, 64),
            (2, 64),
            (3, 4_096),
            (4, 1),
            (5, (1 << 36) + 9),
            (6, 262_144),
            (7, 63),
        ];
        let mut orders = Vec::new();
        for shards in [1usize, 4, 64] {
            let w = ShardedQueue::with_shards(shards);
            for (i, due) in dues {
                w.register_with(sid(i), |_| due, None);
            }
            orders.push(drain(&w, u64::MAX));
        }
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[1], orders[2]);
    }
}
