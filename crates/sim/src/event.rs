//! The discrete-event queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use vc_model::SessionId;

/// Events driving the conferencing simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A session's WAIT countdown expired; run HOP. The `u32` is the
    /// session's registration epoch when the countdown was drawn: a
    /// wake from an earlier registration is stale and dropped, so a
    /// session runs one countdown chain however often it arrives.
    Wake(SessionId, u32),
    /// A session joins the system.
    Arrive(SessionId),
    /// A session leaves the system.
    Depart(SessionId),
    /// Sample the reported metrics.
    Sample,
}

#[derive(Debug, Clone, Copy)]
struct Scheduled {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties broken by insertion order so the
        // simulation is deterministic.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-priority event queue over simulated time.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute simulated time `time` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `time` is not finite.
    pub fn schedule(&mut self, time: f64, event: Event) {
        assert!(time.is_finite(), "event time must be finite");
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Pops the earliest event, if any.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, Event::Sample);
        q.schedule(1.0, Event::Wake(SessionId::new(0), 0));
        q.schedule(2.0, Event::Depart(SessionId::new(1)));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5.0, Event::Arrive(SessionId::new(0)));
        q.schedule(5.0, Event::Arrive(SessionId::new(1)));
        q.schedule(5.0, Event::Arrive(SessionId::new(2)));
        let ids: Vec<_> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Arrive(s) => s.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.heap.is_empty());
        q.schedule(1.0, Event::Sample);
        q.schedule(2.0, Event::Sample);
        assert_eq!(q.heap.len(), 2);
        q.pop();
        assert_eq!(q.heap.len(), 1);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_time_panics() {
        let mut q = EventQueue::new();
        q.schedule(f64::INFINITY, Event::Sample);
    }
}
