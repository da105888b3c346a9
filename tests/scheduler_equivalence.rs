//! Sharded timer-wheel scheduler equivalence.
//!
//! The wheel replaced the global `Mutex<BinaryHeap>` schedule; these
//! tests pin down that the replacement is *behaviorally invisible*:
//!
//! * **wheel ≡ reference heap** — under random
//!   register/depart/re-register/pop interleavings (dues spanning
//!   collision-dense ranges, wheel-span boundaries, and multi-block
//!   horizons), a [`ShardedQueue`] dispatches the exact
//!   `(due_us, session, epoch, draws)` sequence of a reference model
//!   that replicates the old heap semantics — at several shard counts;
//! * **shard count is invisible** — twin fleets driven through the
//!   same displacement-heavy fault storm by a 1-shard and a
//!   many-shard pool end bitwise identical (placements, Φ, counters,
//!   re-admission schedule, timer state, hop count);
//! * **crash/recover parity holds with timers and readmit backoffs in
//!   flight** — a mid-storm crash with sessions waiting in the
//!   re-admission queue recovers onto a pool with a *different* shard
//!   count and still finishes bitwise identical to the uncrashed twin.

use cloud_vc::persist::FsyncPolicy;
use cloud_vc::prelude::*;
use proptest::prelude::*;
use std::collections::{BinaryHeap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use vc_algo::agrank::AgRankConfig;
use vc_algo::markov::Alg1Config;
use vc_chaos::{FaultKind, FaultPlan, StormConfig};
use vc_core::UapProblem;
use vc_model::SessionId;
use vc_orchestrator::{AdmitOutcome, ReadmitConfig, ReoptPool, ShardedQueue, TimerEntry};

const POOL_SEED: u64 = 2015;

/// The boundary `pick_due`'s generator straddles: dues just below, at
/// and up to three times 2^36 µs (≈ 19 h, the span of the timer wheel
/// this contract was first proptested against).
const SPAN_US: u64 = 1 << 36;

// ---------------------------------------------------------------------
// Part 1: wheel vs. reference heap under random interleavings.
// ---------------------------------------------------------------------

/// The old scheduler, verbatim in miniature: one min-heap of
/// `(due, session, epoch)` with lazy discard of stale entries, plus
/// the per-session timer map.
#[derive(Default)]
struct ReferenceHeap {
    due: BinaryHeap<std::cmp::Reverse<(u64, SessionId, u64)>>,
    timers: HashMap<SessionId, (u64, u64, u64, bool)>, // epoch, draws, due, active
}

impl ReferenceHeap {
    fn register(&mut self, s: SessionId, due: u64) -> u64 {
        let epoch = self.timers.get(&s).map_or(0, |t| t.0) + 1;
        self.timers.insert(s, (epoch, 0, due, true));
        self.due.push(std::cmp::Reverse((due, s, epoch)));
        epoch
    }

    fn deregister(&mut self, s: SessionId) {
        if let Some(t) = self.timers.get_mut(&s) {
            t.3 = false;
        }
    }

    fn pop(&mut self, horizon: u64) -> Option<(u64, SessionId, u64, u64)> {
        loop {
            let &std::cmp::Reverse((due, s, epoch)) = self.due.peek()?;
            if due > horizon {
                return None;
            }
            self.due.pop();
            match self.timers.get(&s) {
                Some(&(e, draws, _, true)) if e == epoch => return Some((due, s, epoch, draws)),
                _ => continue,
            }
        }
    }

    fn complete(&mut self, s: SessionId, epoch: u64, next: Option<(u64, u64)>) {
        let Some(t) = self.timers.get_mut(&s) else {
            return;
        };
        if !t.3 || t.0 != epoch {
            return;
        }
        match next {
            Some((due, draws)) => {
                t.1 = draws;
                t.2 = due;
                self.due.push(std::cmp::Reverse((due, s, epoch)));
            }
            None => t.3 = false,
        }
    }

    fn timer_state(&self) -> Vec<TimerEntry> {
        let mut out: Vec<TimerEntry> = self
            .timers
            .iter()
            .map(|(&session, &(epoch, draws, due_us, active))| TimerEntry {
                session,
                due_us,
                epoch,
                draws,
                active,
            })
            .collect();
        out.sort_unstable_by_key(|e| e.session);
        out
    }
}

#[derive(Debug, Clone)]
enum Op {
    Register { s: usize, due: u64 },
    Deregister { s: usize },
    PopReschedule { horizon: u64, wait: u64 },
    PopRetire { horizon: u64 },
}

/// Dues that stress every structure: dense collisions (level-0 slot
/// sharing), mid-wheel values, the wheel-span boundary (overflow
/// promotion + block jumps), and multi-block far futures.
fn pick_due(mode: u8, raw: u64) -> u64 {
    match mode {
        0 => raw % 200,
        1 => raw % 100_000,
        2 => SPAN_US - 128 + raw % 256,
        _ => raw % (3 * SPAN_US),
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0usize..24, 0u8..4, any::<u64>(), 0u64..100_000).prop_map(
        |(kind, s, mode, raw, wait)| match kind {
            0 => Op::Register {
                s,
                due: pick_due(mode, raw),
            },
            1 => Op::Deregister { s },
            2 => Op::PopReschedule {
                horizon: pick_due(mode, raw),
                wait,
            },
            _ => Op::PopRetire {
                horizon: pick_due(mode, raw),
            },
        },
    )
}

/// Runs one op sequence against a wheel with `shards` shards and the
/// reference heap in lockstep, asserting every pop and the final state
/// agree.
fn check_against_reference(ops: &[Op], shards: usize) {
    let wheel = ShardedQueue::with_shards(shards);
    let mut heap = ReferenceHeap::default();
    for op in ops {
        match *op {
            Op::Register { s, due } => {
                let s = SessionId::from(s);
                let (we, _) = wheel.register_with(s, |_| due, None);
                let he = heap.register(s, due);
                assert_eq!(we, he, "epoch sequence diverged for {s:?}");
            }
            Op::Deregister { s } => {
                let s = SessionId::from(s);
                wheel.deregister(s);
                heap.deregister(s);
            }
            Op::PopReschedule { horizon, wait } => {
                let w = wheel.pop_due(horizon, None);
                let h = heap.pop(horizon);
                assert_eq!(
                    w.map(|p| (p.due_us, p.session, p.epoch, p.draws)),
                    h,
                    "pop(horizon={horizon}) diverged"
                );
                if let Some(p) = w {
                    let next = Some((p.due_us + wait, p.draws + 1));
                    wheel.complete(p.session, p.epoch, next, None);
                    heap.complete(p.session, p.epoch, next);
                }
            }
            Op::PopRetire { horizon } => {
                let w = wheel.pop_due(horizon, None);
                let h = heap.pop(horizon);
                assert_eq!(
                    w.map(|p| (p.due_us, p.session, p.epoch, p.draws)),
                    h,
                    "pop(horizon={horizon}) diverged"
                );
                if let Some(p) = w {
                    wheel.complete(p.session, p.epoch, None, None);
                    heap.complete(p.session, p.epoch, None);
                }
            }
        }
        assert_eq!(
            wheel.peek(None),
            heap.clone_peek(),
            "peek diverged after {op:?}"
        );
        assert_eq!(
            wheel.shard_depths().iter().sum::<u64>(),
            heap.current_entries(),
            "a superseded wakeup is still queued after {op:?}"
        );
    }
    // Drain whatever is left, in full, and compare the tails.
    loop {
        let w = wheel.pop_due(u64::MAX, None);
        let h = heap.pop(u64::MAX);
        assert_eq!(
            w.map(|p| (p.due_us, p.session, p.epoch, p.draws)),
            h,
            "drain diverged"
        );
        let Some(p) = w else { break };
        wheel.complete(p.session, p.epoch, None, None);
        heap.complete(p.session, p.epoch, None);
    }
    assert_eq!(wheel.timer_state(), heap.timer_state());
    assert_eq!(wheel.shard_depths().iter().sum::<u64>(), 0);
}

impl ReferenceHeap {
    /// Non-destructive earliest valid `(due, session)` — the heap
    /// analogue of `ShardedQueue::peek` (full filter; it's a test).
    fn clone_peek(&self) -> Option<(u64, SessionId)> {
        self.due
            .iter()
            .filter(|std::cmp::Reverse((_, s, epoch))| {
                self.timers.get(s).is_some_and(|t| t.3 && t.0 == *epoch)
            })
            .map(|std::cmp::Reverse((due, s, _))| (*due, *s))
            .min()
    }

    /// Heap entries whose `(session, epoch)` is current and active —
    /// all an eagerly cancelling queue may hold.
    fn current_entries(&self) -> u64 {
        self.due
            .iter()
            .filter(|std::cmp::Reverse((_, s, epoch))| {
                self.timers.get(s).is_some_and(|t| t.3 && t.0 == *epoch)
            })
            .count() as u64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The tentpole equivalence: dispatch order, epochs, draws, final
    /// timer state, and peeks all match the reference heap under
    /// random interleavings — with 1, 4, and 64 shards.
    #[test]
    fn wheel_dispatch_matches_reference_heap(
        ops in prop::collection::vec(op_strategy(), 1..120)
    ) {
        for shards in [1usize, 4, 64] {
            check_against_reference(&ops, shards);
        }
    }
}

// ---------------------------------------------------------------------
// Part 2: pool-level shard invariance and crash/recover parity,
// with re-admission backoffs in flight.
// ---------------------------------------------------------------------

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-sched-equiv")
        .join(format!("it-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Agents sized so the fleet fits at full strength but a failed
/// agent's load displaces sessions into the re-admission queue.
fn storm_universe() -> Arc<UapProblem> {
    let ladder = ReprLadder::standard_four();
    let hi = ladder.highest();
    let lo = ladder.lowest();
    let mut b = InstanceBuilder::new(ladder);
    for name in ["a", "b", "c"] {
        b.add_agent(
            AgentSpec::builder(name)
                .capacity(Capacity::new(60.0, 60.0, 1))
                .build(),
        );
    }
    for i in 0..6 {
        let s = b.add_session();
        if i % 2 == 0 {
            b.add_user(s, hi, lo);
            b.add_user(s, lo, lo);
        } else {
            b.add_user(s, hi, hi);
            b.add_user(s, hi, hi);
        }
    }
    b.symmetric_delays(
        |l, k| 25.0 + 20.0 * ((l as f64) - (k as f64)).abs(),
        |l, u| 8.0 + ((l * 13 + u * 7) % 23) as f64,
    );
    b.d_max_ms(10_000.0);
    Arc::new(UapProblem::new(
        b.build().expect("valid universe"),
        CostModel::paper_default(),
    ))
}

fn fleet_config() -> FleetConfig {
    FleetConfig {
        placement: PlacementPolicy::AgRank(AgRankConfig::paper(2)),
        alg1: Alg1Config::paper(400.0),
        readmit: Some(ReadmitConfig {
            seed: POOL_SEED,
            cap_backoff_s: 4.0,
            max_attempts: 32,
            ..ReadmitConfig::default()
        }),
    }
}

fn storm() -> FaultPlan {
    FaultPlan::storm(&StormConfig {
        seed: 11,
        agents: vec![0, 1, 2],
        start_s: 2.0,
        period_s: 6.0,
        epochs: 4,
    })
}

fn warm_up(fleet: &Fleet, pool: &ReoptPool, sessions: usize) {
    for i in 0..sessions {
        if matches!(
            fleet.admit_or_queue(SessionId::from(i)),
            AdmitOutcome::Admitted
        ) {
            pool.register(fleet, SessionId::from(i), 0.0);
        }
    }
}

fn drive_window(fleet: &Fleet, pool: &ReoptPool, plan: &FaultPlan, from_us: u64, to_us: u64) {
    for ev in plan.window(from_us, to_us) {
        pool.tick_until(fleet, ev.t_us as f64 / 1e6);
        fleet.set_clock_us(ev.t_us);
        match ev.kind {
            FaultKind::FailAgent(a) => {
                fleet.fail_agent(AgentId::new(a));
            }
            FaultKind::RestoreAgent(a) => {
                fleet.restore_agent(AgentId::new(a));
            }
        }
    }
    pool.tick_until(fleet, to_us as f64 / 1e6);
    fleet.set_clock_us(to_us);
}

/// The shard count is a pure contention knob: twin fleets driven
/// through the same displacement storm by a 1-shard and a 16-shard
/// pool end bitwise identical — state, Φ, re-admission schedule, timer
/// state, and hop count.
#[test]
fn shard_count_is_invisible_to_a_storm_drive() {
    let problem = storm_universe();
    let sessions = problem.instance().num_sessions();
    let plan = storm();
    let end_us = plan.end_us() + 60_000_000;

    let run = |shards: usize| {
        let fleet = Fleet::new(problem.clone(), fleet_config());
        let pool = ReoptPool::with_shards(POOL_SEED, shards);
        warm_up(&fleet, &pool, sessions);
        drive_window(&fleet, &pool, &plan, 0, end_us);
        assert!(fleet.audit().is_empty());
        (
            fleet.durable_state(),
            fleet.readmit_entries(),
            pool.timer_state(),
            pool.hops_executed(),
            fleet.objective().to_bits(),
        )
    };

    let narrow = run(1);
    let wide = run(16);
    assert_eq!(narrow.0, wide.0, "fleet state diverged across shard counts");
    assert_eq!(narrow.1, wide.1, "re-admission schedule diverged");
    assert_eq!(narrow.2, wide.2, "timer state diverged");
    assert_eq!(narrow.3, wide.3, "hop count diverged");
    assert_eq!(narrow.4, wide.4, "Φ diverged beyond bitwise");
}

/// Crash mid-storm — WAIT timers pending *and* sessions waiting in the
/// re-admission queue — recover onto a pool with a different shard
/// count, finish the storm: bitwise identical to the uncrashed twin.
#[test]
fn crash_recovery_with_readmits_in_flight_is_shard_count_independent() {
    let problem = storm_universe();
    let sessions = problem.instance().num_sessions();
    let plan = storm();
    let end_us = plan.end_us() + 60_000_000;

    // Find a cut that catches displaced sessions mid-backoff.
    let probe = Fleet::new(problem.clone(), fleet_config());
    let probe_pool = ReoptPool::new(POOL_SEED);
    warm_up(&probe, &probe_pool, sessions);
    let mut cut_us = None;
    let mut prev = 0;
    for ev in plan.events() {
        drive_window(&probe, &probe_pool, &plan, prev, ev.t_us + 1);
        prev = ev.t_us + 1;
        if probe.counters().displaced.load(Ordering::Relaxed) >= 1 && probe.readmit_queue_len() > 0
        {
            cut_us = Some(ev.t_us + 100_000);
            break;
        }
    }
    let cut_us = cut_us.expect("storm never displaced into the queue");

    let dir = store_dir("shard-twin");
    let persist = PersistConfig {
        dir: dir.clone(),
        fsync: FsyncPolicy::Always,
        stay_batch: 1,
    };
    let fleet = Fleet::with_persistence(problem.clone(), fleet_config(), persist.clone())
        .expect("persistent fleet");
    let pool = ReoptPool::with_shards(POOL_SEED, 4);
    let control = Fleet::new(problem.clone(), fleet_config());
    let control_pool = ReoptPool::with_shards(POOL_SEED, 1);
    for (f, p) in [(&fleet, &pool), (&control, &control_pool)] {
        warm_up(f, p, sessions);
        drive_window(f, p, &plan, 0, cut_us);
    }
    assert!(fleet.readmit_queue_len() >= 1, "queue empty at the cut");
    fleet.journal_timers(&pool); // durability boundary
    drop(fleet); // crash mid-storm

    let (recovered, report) = Fleet::recover(persist, problem, fleet_config()).expect("recovery");
    // Recover onto yet another shard count: the journaled TimerEntry
    // records are scheduler-shape-agnostic.
    let restored = ReoptPool::with_shards(POOL_SEED, 16);
    restored.restore_timers(&recovered, &report.timers);
    restored.ensure_registered(&recovered, cut_us as f64 / 1e6);
    recovered.set_clock_us(cut_us);
    // Displaced sessions sit in the queue with their worker retirement
    // pending: the uncrashed pool retires the timer lazily at its next
    // wakeup, while restore gates on liveness up front. Normalize that
    // one flag; every scheduling field must already be bitwise equal.
    let lazily_retired = |entries: Vec<TimerEntry>| -> Vec<TimerEntry> {
        entries
            .into_iter()
            .map(|mut e| {
                e.active = e.active && control.is_live(e.session);
                e
            })
            .collect()
    };
    assert_eq!(
        restored.timer_state(),
        lazily_retired(control_pool.timer_state()),
        "restored timers are not the uncrashed twin's"
    );

    for (f, p) in [(&recovered, &restored), (&control, &control_pool)] {
        drive_window(f, p, &plan, cut_us, end_us);
    }
    recovered.record_timers(&restored);
    control.record_timers(&control_pool);
    assert_eq!(
        restored.timer_state(),
        control_pool.timer_state(),
        "timer state diverged after recovery"
    );
    assert_eq!(
        recovered.readmit_entries(),
        control.readmit_entries(),
        "retry schedules diverged after recovery"
    );
    assert_eq!(
        recovered.durable_state(),
        control.durable_state(),
        "crashed/recovered run diverged from the uncrashed twin"
    );
    assert_eq!(
        recovered.objective().to_bits(),
        control.objective().to_bits()
    );
    assert!(recovered.audit().is_empty());
    assert!(control.audit().is_empty());
}
