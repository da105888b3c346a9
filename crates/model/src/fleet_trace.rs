//! The control plane's input: a time-ordered trace of session
//! arrivals/departures and agent churn. It names only ids, so the
//! generators (`vc-workloads`) and the consumer (`vc-orchestrator`)
//! meet here without depending on each other.

use crate::{AgentId, SessionId};

/// One control-plane event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// A session arrives and asks for admission.
    Arrive(SessionId),
    /// A live session ends.
    Depart(SessionId),
    /// An agent fails.
    FailAgent(AgentId),
    /// A failed agent recovers.
    RestoreAgent(AgentId),
}

/// A time-ordered event trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetTrace {
    /// `(time_s, event)`, ascending by time.
    pub events: Vec<(f64, FleetEvent)>,
}

impl FleetTrace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Count of events matching `pred`.
    pub fn count(&self, pred: impl Fn(&FleetEvent) -> bool) -> usize {
        self.events.iter().filter(|(_, e)| pred(e)).count()
    }
}
