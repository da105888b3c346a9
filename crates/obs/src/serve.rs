//! A live scrape endpoint: hand-rolled HTTP/1.0 over
//! `std::net::TcpListener` (the vendored-deps constraint rules out
//! hyper — not the design). Three routes:
//!
//! * `GET /metrics` — Prometheus text exposition
//!   ([`prometheus_text`] over the plane, plus whatever extra series
//!   the embedding process appends — fleet telemetry, typically);
//! * `GET /trace` — the lifecycle trace as Chrome-trace/Perfetto JSON
//!   ([`ObsPlane::trace_chrome_json`]);
//! * `GET /postmortem` — the last post-mortem (trigger, site
//!   summaries, the event ring's newest rows), or
//!   `{"post_mortem": null}` when none has fired.
//!
//! A request is answered from its request line alone, and only once
//! its header terminator has arrived: one cut short — by the peer
//! closing, going silent, trickling past the deadline or overrunning
//! the buffer — gets `400` or `408` and never reaches a route
//! (`respond`).
//!
//! The server is one background thread over a non-blocking accept
//! loop; requests are served synchronously (scrapes are rare and the
//! bodies are built from lock-free snapshots, so a slow scraper never
//! back-pressures the fleet). [`ObsServer`] shuts the thread down on
//! drop.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::plane::{ObsPlane, Site};

/// Extra `/metrics` series appended after the plane's own — the
/// embedding process renders its own gauges (fleet telemetry) here.
pub type ExtraMetrics = Box<dyn Fn() -> String + Send + Sync>;

/// Render the plane as Prometheus text exposition format (v0.0.4).
///
/// Always emits `vc_obs_ops_recorded` (the CI smoke test greps it);
/// site series are emitted only for sites that recorded samples.
pub fn prometheus_text(plane: &ObsPlane) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("# TYPE vc_obs_ops_recorded counter\n");
    out.push_str(&format!("vc_obs_ops_recorded {}\n", plane.trace().total()));
    out.push_str("# TYPE vc_obs_freeze_read_fast counter\n");
    out.push_str(&format!(
        "vc_obs_freeze_read_fast {}\n",
        plane.freeze_read_fast()
    ));
    let (bounded, folded) = plane.hop_candidates();
    out.push_str("# TYPE vc_obs_hop_candidates_bounded counter\n");
    out.push_str(&format!("vc_obs_hop_candidates_bounded {bounded}\n"));
    out.push_str("# TYPE vc_obs_hop_candidates_folded counter\n");
    out.push_str(&format!("vc_obs_hop_candidates_folded {folded}\n"));
    out.push_str("# TYPE vc_obs_hop_memo_hits counter\n");
    out.push_str(&format!("vc_obs_hop_memo_hits {}\n", plane.hop_memo_hits()));
    out.push_str("# TYPE vc_obs_swap_attempts counter\n");
    out.push_str("# TYPE vc_obs_swap_conflicts counter\n");
    for (shard, (attempts, conflicts)) in plane.swap_counters().iter().enumerate() {
        out.push_str(&format!(
            "vc_obs_swap_attempts{{shard=\"{shard}\"}} {attempts}\n"
        ));
        out.push_str(&format!(
            "vc_obs_swap_conflicts{{shard=\"{shard}\"}} {conflicts}\n"
        ));
    }
    out.push_str("# TYPE vc_obs_site_count counter\n");
    out.push_str("# TYPE vc_obs_site_ns summary\n");
    for site in Site::ALL {
        let s = plane.summary(site);
        if s.count == 0 {
            continue;
        }
        let name = site.name();
        out.push_str(&format!(
            "vc_obs_site_count{{site=\"{name}\"}} {}\n",
            s.count
        ));
        out.push_str(&format!(
            "vc_obs_site_mean_ns{{site=\"{name}\"}} {:.1}\n",
            s.mean_ns
        ));
        for (q, v) in [
            ("0.5", s.p50_ns),
            ("0.9", s.p90_ns),
            ("0.99", s.p99_ns),
            ("0.999", s.p999_ns),
        ] {
            out.push_str(&format!(
                "vc_obs_site_ns{{site=\"{name}\",quantile=\"{q}\"}} {v}\n"
            ));
        }
        out.push_str(&format!(
            "vc_obs_site_max_ns{{site=\"{name}\"}} {}\n",
            s.max_ns
        ));
    }
    out
}

/// A running scrape endpoint. Dropping it stops the accept loop and
/// joins the serving thread.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ObsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl ObsServer {
    /// Bind `addr` (e.g. `"127.0.0.1:9184"`, port 0 for ephemeral) and
    /// start serving the plane. `extra` appends process-level series
    /// to `/metrics`.
    pub fn bind(
        addr: &str,
        plane: Arc<ObsPlane>,
        extra: Option<ExtraMetrics>,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("vc-obs-serve".into())
            .spawn(move || accept_loop(listener, plane, extra, stop_flag))?;
        Ok(Self {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    plane: Arc<ObsPlane>,
    extra: Option<ExtraMetrics>,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => handle_conn(stream, &plane, extra.as_deref()),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Total time one connection may spend delivering its request. The
/// per-read timeout alone is not enough: requests are served
/// synchronously on one thread, so a client trickling a byte per
/// (sub-timeout) interval would hold the endpoint hostage for as long
/// as it cares to drip — each read succeeds, the deadline never
/// triggers. The elapsed budget cuts such a connection regardless of
/// per-read progress.
const READ_DEADLINE: Duration = Duration::from_secs(2);

/// The extra-series hook as `handle_conn` and [`respond`] borrow it.
type Extra<'a> = Option<&'a (dyn Fn() -> String + Send + Sync)>;

/// How reading a request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReadEnd {
    /// The header terminator arrived.
    Complete,
    /// The peer went silent for one read timeout, or trickled past
    /// [`READ_DEADLINE`].
    TimedOut,
    /// The peer closed (or half-closed) first, or filled the buffer
    /// without a terminator.
    Cut,
}

fn handle_conn(mut stream: TcpStream, plane: &ObsPlane, extra: Extra<'_>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let started = Instant::now();
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    // Read until the header terminator (we only need the request line),
    // bounded by the buffer and the total deadline.
    let end = loop {
        if len == buf.len() {
            break ReadEnd::Cut;
        }
        if started.elapsed() >= READ_DEADLINE {
            break ReadEnd::TimedOut;
        }
        match stream.read(&mut buf[len..]) {
            Ok(0) => break ReadEnd::Cut,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    break ReadEnd::Complete;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                break ReadEnd::TimedOut
            }
            Err(_) => break ReadEnd::Cut,
        }
    };
    let (status, content_type, body) = respond(&buf[..len], end, plane, extra);
    let _ = stream.write_all(
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

/// Decides the answer to `request` — the bytes read before `end` — as
/// `(status, content type, body)`. Pure but for reading the plane, and
/// bytes in, not text: the request line is `GET <route> <version>`
/// split on single spaces, compared byte for byte (no query parsing —
/// `/metrics?x=1` is an unknown route).
fn respond(
    request: &[u8],
    end: ReadEnd,
    plane: &ObsPlane,
    extra: Extra<'_>,
) -> (&'static str, &'static str, String) {
    let plain = |status, body: &str| (status, "text/plain", body.to_string());
    match end {
        ReadEnd::Complete => {}
        ReadEnd::TimedOut => return plain("408 Request Timeout", "request incomplete\n"),
        ReadEnd::Cut => return plain("400 Bad Request", "request incomplete\n"),
    }
    let line = request.split(|&b| b == b'\r').next().unwrap_or_default();
    let mut parts = line.splitn(3, |&b| b == b' ');
    let (Some(method), Some(path), Some(_version)) = (parts.next(), parts.next(), parts.next())
    else {
        return plain("400 Bad Request", "malformed request line\n");
    };
    if method != b"GET" {
        return plain("405 Method Not Allowed", "GET only\n");
    }
    match path {
        b"/metrics" => {
            let mut body = prometheus_text(plane);
            if let Some(extra) = extra {
                body.push_str(&extra());
            }
            ("200 OK", "text/plain; version=0.0.4", body)
        }
        b"/trace" => ("200 OK", "application/json", plane.trace_chrome_json()),
        b"/postmortem" => (
            "200 OK",
            "application/json",
            plane
                .last_post_mortem()
                .unwrap_or_else(|| "{\"post_mortem\": null}".to_string()),
        ),
        _ => plain("404 Not Found", "unknown route\n"),
    }
}

/// Minimal HTTP/1.0 GET against a served endpoint — the example's
/// self-probe and the CI smoke test use this instead of shelling out
/// to curl. Returns `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: vc\r\n\r\n").as_bytes())?;
    read_response(&mut stream)
}

/// Reads a whole HTTP/1.0 response off `stream` as `(status_code, body)`.
fn read_response(stream: &mut TcpStream) -> std::io::Result<(u16, String)> {
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "bad status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;

    fn served_plane() -> (ObsServer, Arc<ObsPlane>) {
        let plane = Arc::new(ObsPlane::new(2));
        plane.record_ns(Site::Hop, 12_345);
        plane.note_trace(TraceKind::Registered, 1, 2);
        plane.note_trace(TraceKind::Admitted, 1, 99);
        let server = ObsServer::bind(
            "127.0.0.1:0",
            Arc::clone(&plane),
            Some(Box::new(|| "vc_fleet_live_sessions 7\n".to_string())),
        )
        .expect("bind");
        (server, plane)
    }

    #[test]
    fn metrics_route_serves_plane_and_extra_series() {
        let (server, _plane) = served_plane();
        let (status, body) = http_get(server.local_addr(), "/metrics").expect("get");
        assert_eq!(status, 200);
        assert!(body.contains("vc_obs_ops_recorded 2"));
        assert!(body.contains("vc_obs_site_ns{site=\"hop\",quantile=\"0.99\"}"));
        assert!(body.contains("vc_fleet_live_sessions 7"));
    }

    #[test]
    fn trace_route_streams_perfetto_json() {
        let (server, _plane) = served_plane();
        let (status, body) = http_get(server.local_addr(), "/trace").expect("get");
        assert_eq!(status, 200);
        assert!(body.contains("\"traceEvents\""));
        assert!(body.contains("\"name\": \"admitted\""));
    }

    #[test]
    fn postmortem_route_serves_null_then_the_dump() {
        let (server, plane) = served_plane();
        let (status, body) = http_get(server.local_addr(), "/postmortem").expect("get");
        assert_eq!(status, 200);
        assert!(body.contains("\"post_mortem\": null"));
        plane.post_mortem_once("test_reason", "detail");
        let (status, body) = http_get(server.local_addr(), "/postmortem").expect("get");
        assert_eq!(status, 200);
        assert!(body.contains("\"post_mortem\": \"test_reason\""));
    }

    #[test]
    fn scrapes_stay_responsive_despite_a_stalled_client() {
        let (server, _plane) = served_plane();
        let addr = server.local_addr();
        // A slow-loris client: opens the connection and trickles header
        // bytes, never completing the request. Each per-read timeout is
        // dodged; only the total deadline cuts it.
        let stop = Arc::new(AtomicBool::new(false));
        let stop_trickle = Arc::clone(&stop);
        let loris = std::thread::spawn(move || {
            if let Ok(mut s) = TcpStream::connect(addr) {
                while !stop_trickle.load(Ordering::Relaxed) {
                    if s.write_all(b"G").is_err() {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            }
        });
        // Let the loris get accepted first.
        std::thread::sleep(Duration::from_millis(150));
        let t0 = std::time::Instant::now();
        let (status, body) = http_get(addr, "/metrics").expect("scrape while stalled");
        assert_eq!(status, 200);
        assert!(body.contains("vc_obs_ops_recorded"));
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "total read deadline must cut the stalled connection, took {:?}",
            t0.elapsed()
        );
        stop.store(true, Ordering::Relaxed);
        loris.join().expect("loris thread");
    }

    /// Writes `sent`, optionally half-closes, and returns the status
    /// the endpoint answers with.
    fn raw_status(addr: SocketAddr, sent: &[u8], half_close: bool) -> u16 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(sent).expect("send");
        if half_close {
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
        }
        read_response(&mut stream).expect("response").0
    }

    #[test]
    fn unfinished_requests_are_refused_not_routed() {
        let (server, _plane) = served_plane();
        let addr = server.local_addr();
        // Half-closed before the terminator, and a full buffer without
        // one: the request can no longer complete.
        assert_eq!(raw_status(addr, b"GET /metrics", true), 400);
        assert_eq!(raw_status(addr, b"POST /metrics HTTP/1.0\r\n", true), 400);
        assert_eq!(raw_status(addr, &[b'A'; 2048], false), 400);
        // Silent for one read timeout: still open, so a timeout — and
        // not the 405 its non-GET method would get once complete.
        assert_eq!(raw_status(addr, b"POST /metrics HTTP/1.0\r\n", false), 408);
        assert_eq!(
            raw_status(addr, b"GET /metrics HTTP/1.0\r\n\r\n", false),
            200
        );
    }

    /// The sweep over [`respond`]: whatever the bytes and however the
    /// read ended, the answer is one of five statuses, a `200` only for
    /// a complete request opening with a byte-exact `GET <route> `, and
    /// an unfinished request never reaches a route. `respond` is private
    /// and this crate forbids `unsafe`, so the counting allocator of
    /// `tests/common` is out of reach; what bounds allocation instead is
    /// that every non-200 body is a short constant, whatever the input.
    #[test]
    fn respond_sweep_over_mangled_requests() {
        const ROUTES: [&str; 3] = ["/metrics", "/trace", "/postmortem"];
        let plane = ObsPlane::new(1);
        plane.note_trace(TraceKind::Registered, 1, 2);
        let check = |request: &[u8]| {
            for end in [ReadEnd::Complete, ReadEnd::TimedOut, ReadEnd::Cut] {
                let (status, _, body) = respond(request, end, &plane, None);
                let exact = (ROUTES.iter())
                    .any(|route| request.starts_with(format!("GET {route} ").as_bytes()));
                match (&status[..3], end) {
                    ("200", ReadEnd::Complete) => assert!(exact, "200 for {request:?}"),
                    ("400" | "404" | "405", ReadEnd::Complete) => assert!(!exact),
                    ("408", ReadEnd::TimedOut) | ("400", ReadEnd::Cut) => {}
                    other => panic!("{other:?} for {request:?}"),
                }
                assert!(status.starts_with("200") || body.len() <= 32);
            }
        };
        for route in ROUTES {
            let valid = format!("GET {route} HTTP/1.0\r\nHost: vc\r\n\r\n").into_bytes();
            assert_eq!(respond(&valid, ReadEnd::Complete, &plane, None).0, "200 OK");
            for cut in 0..=valid.len() {
                check(&valid[..cut]);
            }
            for bit in 0..valid.len() * 8 {
                let mut flipped = valid.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(&flipped);
            }
            for junk in [&b"\0"[..], b"\xff\xfe", b"\xc3\x28", &[b'A'; 4096]] {
                // Before the method, inside the path, after it, and in
                // place of the version.
                for at in [0, 4, 4 + route.len(), 5 + route.len()] {
                    let mut mangled = valid.clone();
                    mangled.splice(at..at, junk.iter().copied());
                    check(&mangled);
                }
            }
        }
        check(&[b'A'; 4096]);
        check(&[0; 64]);
    }

    #[test]
    fn unknown_route_is_404_and_shutdown_joins() {
        let (server, _plane) = served_plane();
        let (status, _) = http_get(server.local_addr(), "/nope").expect("get");
        assert_eq!(status, 404);
        // Drop joins the accept thread; hanging here would fail the
        // test by timeout.
        drop(server);
    }
}
