//! The benchmark's own span recorder: one span around every call into
//! a layer, kept in a preallocated in-memory buffer and written out
//! (Chrome-trace format) once at the end. Spans inside the product are
//! a later issue; this measures the layers from outside.

use std::time::Instant;

/// What a span wraps. `Timed`, `Join` and `Leave` belong to the driver
/// (their self time is what no layer accounts for), `Idle` is the
/// open-loop driver waiting for the next event's due instant; every
/// other variant is one public function of one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Timed,
    Join,
    Leave,
    Idle,
    RegisterSession,
    Admit,
    PoolRegister,
    Depart,
    PoolDeregister,
    Tick,
    Sample,
    MetricsText,
    Commit,
    Checkpoint,
    JournalTimers,
    DurableState,
    FailAgent,
    DrainAgent,
    RestoreAgent,
    /// Keep last: it sizes the per-layer tables.
    RegisterAgent,
}

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Self::Timed => "driver.timed",
            Self::Join => "driver.join",
            Self::Leave => "driver.leave",
            Self::Idle => "driver.idle",
            Self::RegisterSession => "fleet.register_session",
            Self::Admit => "fleet.admit",
            Self::PoolRegister => "workers.register",
            Self::Depart => "fleet.depart",
            Self::PoolDeregister => "workers.deregister",
            Self::Tick => "workers.tick",
            Self::Sample => "telemetry.sample",
            Self::MetricsText => "telemetry.metrics_text",
            Self::Commit => "persist.commit",
            Self::Checkpoint => "persist.checkpoint",
            Self::JournalTimers => "persist.journal_timers",
            Self::DurableState => "persist.durable_state",
            Self::FailAgent => "fleet.fail_agent",
            Self::DrainAgent => "fleet.drain_agent",
            Self::RestoreAgent => "fleet.restore_agent",
            Self::RegisterAgent => "fleet.register_agent",
        }
    }

    fn is_driver(self) -> bool {
        matches!(self, Self::Timed | Self::Join | Self::Leave)
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `request` is shared by every span of one
/// top-level driver step (one arrival, one departure, one tick, …).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: Layer,
    pub parent: u32,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to
/// [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Token(u32);

/// The recorder. When off, `begin`/`end` are a branch each and nothing
/// is stored, so the untraced pass pays nothing measurable.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    requests: u32,
    /// Spans refused because the preallocated buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A recorder holding at most `capacity` spans (never reallocates).
    pub fn new(on: bool, capacity: usize) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            requests: 0,
            dropped: 0,
        }
    }

    pub fn begin(&mut self, layer: Layer) -> Token {
        if !self.on {
            return Token(NO_PARENT);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Token(NO_PARENT);
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        // A span directly under the root starts a new request.
        let request = match self.open.len() {
            0 => 0,
            1 => {
                self.requests += 1;
                self.requests
            }
            _ => self.spans[parent as usize].request,
        };
        let index = self.spans.len() as u32;
        self.open.push(index);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            layer,
            parent,
            request,
            start_ns,
            end_ns: start_ns,
        });
        Token(index)
    }

    pub fn end(&mut self, token: Token) {
        if token.0 == NO_PARENT {
            return;
        }
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(token.0), "spans close in LIFO order");
        self.spans[token.0 as usize].end_ns = end_ns;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Span durations (µs, ascending) per layer, indexed by
    /// `Layer as usize`: one pass over the buffer for all layers.
    pub fn durations_us_by_layer(&self) -> Vec<Vec<f64>> {
        let mut by_layer = vec![Vec::new(); Layer::RegisterAgent as usize + 1];
        for s in &self.spans {
            by_layer[s.layer as usize].push(s.duration_ns() as f64 / 1e3);
        }
        by_layer.iter_mut().for_each(|v| crate::stats::sort(v));
        by_layer
    }

    /// Share of the root span's wall time that no layer span accounts
    /// for: the driver spans' self time over the root's duration.
    pub fn unattributed_fraction(&self) -> f64 {
        let own = self_times_ns(&self.spans);
        let root_ns = self
            .spans
            .iter()
            .find(|s| s.parent == NO_PARENT)
            .map_or(0, Span::duration_ns);
        if root_ns == 0 {
            return 0.0;
        }
        let driver_ns: u64 = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.layer.is_driver())
            .map(|(_, ns)| *ns)
            .sum();
        driver_ns as f64 / root_ns as f64
    }

    /// Chrome-trace (`chrome://tracing`, Perfetto) JSON of the buffer.
    pub fn chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"request\":{}}}}}",
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.request
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's self time: its duration minus the part of its interval its
/// child spans cover (overlapping children count once; a child reaching
/// past its parent is clipped).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    // Children are recorded after their parent in start order, so one
    // forward pass with a per-parent "covered until" cursor is enough.
    let mut covered_until: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let from = s.start_ns.max(covered_until[p]);
        let to = s.end_ns.min(spans[p].end_ns);
        if to > from {
            own[p] -= to - from;
            covered_until[p] = to;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(Layer::Timed, NO_PARENT, 0, 100),
            span(Layer::Join, 0, 10, 60),
            span(Layer::RegisterSession, 1, 10, 20),
            span(Layer::Admit, 1, 15, 50), // overlaps its sibling by 5
            span(Layer::Tick, 0, 70, 120), // runs past its parent
        ];
        let own = self_times_ns(&spans);
        assert_eq!(
            own[0],
            100 - 50 - 30,
            "root: minus join, minus clipped tick"
        );
        assert_eq!(own[1], 50 - 40, "join: children cover [10, 50) once");
        assert_eq!(own[2], 10);
        assert_eq!(own[3], 35);
        assert_eq!(own[4], 50);
    }

    #[test]
    fn tracer_nests_assigns_requests_and_never_reallocates() {
        let mut t = Tracer::new(true, 4);
        let root = t.begin(Layer::Timed);
        let join = t.begin(Layer::Join);
        let admit = t.begin(Layer::Admit);
        t.end(admit);
        t.end(join);
        let tick = t.begin(Layer::Tick);
        t.end(tick);
        let refused = t.begin(Layer::Tick); // buffer full
        t.end(refused);
        t.end(root);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(t.dropped, 1);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 1, 0));
        assert_eq!(s[1].request, s[2].request, "a request's spans share its id");
        assert_ne!(s[1].request, s[3].request);
        assert!(t.unattributed_fraction() >= 0.0 && t.unattributed_fraction() <= 1.0);
        assert!(t.chrome_json().contains("\"name\":\"fleet.admit\""));

        let mut off = Tracer::new(false, 4);
        let tok = off.begin(Layer::Timed);
        off.end(tok);
        assert!(off.spans().is_empty());
    }
}
