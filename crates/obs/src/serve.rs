//! A live scrape endpoint: hand-rolled HTTP/1.0 over
//! `std::net::TcpListener` (the vendored-deps constraint rules out
//! hyper — not the design). Three routes:
//!
//! * `GET /metrics` — Prometheus text exposition
//!   ([`prometheus_text`] over the plane, plus whatever extra series
//!   the embedding process appends — fleet telemetry, typically);
//! * `GET /trace` — the lifecycle trace as Chrome-trace/Perfetto JSON
//!   ([`ObsPlane::trace_chrome_json`]);
//! * `GET /postmortem` — the last flight-recorder post-mortem, or
//!   `{"post_mortem": null}` when none has fired.
//!
//! The server is one background thread over a non-blocking accept
//! loop; requests are served synchronously (scrapes are rare and the
//! bodies are built from lock-free snapshots, so a slow scraper never
//! back-pressures the fleet). [`ObsServer`] shuts the thread down on
//! drop.

use std::io::{Read, Write};
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
    out.push_str(&format!("vc_obs_ops_recorded {}\n", plane.flight().total()));
    out.push_str("# TYPE vc_obs_trace_events counter\n");
    out.push_str(&format!("vc_obs_trace_events {}\n", plane.trace().total()));
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
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
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

fn handle_conn(
    mut stream: TcpStream,
    plane: &ObsPlane,
    extra: Option<&(dyn Fn() -> String + Send + Sync)>,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let started = Instant::now();
    let mut buf = [0u8; 2048];
    let mut len = 0usize;
    let mut complete = false;
    // Read until the header terminator (we only need the request line),
    // bounded by the total deadline.
    while len < buf.len() && started.elapsed() < READ_DEADLINE {
        match stream.read(&mut buf[len..]) {
            Ok(0) => break,
            Ok(n) => {
                len += n;
                if buf[..len].windows(4).any(|w| w == b"\r\n\r\n") {
                    complete = true;
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if !complete && started.elapsed() >= READ_DEADLINE {
        let _ = stream.write_all(
            b"HTTP/1.0 408 Request Timeout\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        return;
    }
    let request = String::from_utf8_lossy(&buf[..len]);
    let mut parts = request.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => {
                let mut body = prometheus_text(plane);
                if let Some(extra) = extra {
                    body.push_str(&extra());
                }
                ("200 OK", "text/plain; version=0.0.4", body)
            }
            "/trace" => ("200 OK", "application/json", plane.trace_chrome_json()),
            "/postmortem" => (
                "200 OK",
                "application/json",
                plane
                    .last_post_mortem()
                    .unwrap_or_else(|| "{\"post_mortem\": null}".to_string()),
            ),
            _ => ("404 Not Found", "text/plain", "unknown route\n".to_string()),
        }
    };
    let _ = stream.write_all(
        format!(
            "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
}

/// Minimal HTTP/1.0 GET against a served endpoint — the example's
/// self-probe and the CI smoke test use this instead of shelling out
/// to curl. Returns `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(format!("GET {path} HTTP/1.0\r\nHost: vc\r\n\r\n").as_bytes())?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "bad status line"))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::OpKind;
    use crate::trace::TraceKind;

    fn served_plane() -> (ObsServer, Arc<ObsPlane>) {
        let plane = Arc::new(ObsPlane::new(2));
        plane.record_ns(Site::Hop, 12_345);
        plane.note_op(OpKind::Hop, 1, 0);
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
        assert!(body.contains("vc_obs_ops_recorded 1"));
        assert!(body.contains("vc_obs_trace_events 2"));
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
