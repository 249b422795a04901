//! A minimal HTTP/1.0 `GET /metrics` endpoint as a reactor protocol.
//!
//! The third [`Protocol`] on the shared reactor (alongside the frame
//! protocol and pgwire): a Prometheus scraper connects, sends one request,
//! and receives the whole registry snapshot in the [text exposition
//! format](hydra_obs::MetricsSnapshot::render_prometheus).  The
//! implementation is deliberately tiny — request-line parsing only, no
//! keep-alive, no chunking — because a scrape is one bounded
//! request/response exchange:
//!
//! * the connection handler accumulates bytes until the header terminator
//!   (`\r\n\r\n`, or a bare `\n\n` for hand-typed probes) and parses just
//!   the request line on the event loop;
//! * rendering the snapshot (which walks every registered family) happens
//!   in a worker-pool task, so a scrape during a connection storm never
//!   blocks the reactor thread;
//! * the response carries `Content-Length` and `Connection: close`, and
//!   the task finishes with `DoneClose` — the reactor flushes the queued
//!   bytes, then closes.
//!
//! Anything that is not `GET /metrics` gets a correct-but-terse `404` or
//! `405`; a header longer than [`MAX_HEADER_BYTES`] closes the connection
//! (scrapers do not send 16 KiB of headers; slow-loris peers do).

use hydra_obs::MetricsRegistry;
use hydra_reactor::{ConnHandle, ConnHandler, ConnTask, HandlerOutcome, Protocol, TaskPoll};
use std::sync::Arc;

/// Hard cap on the request header block; longer headers close the
/// connection without a response.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Content type of the Prometheus text exposition format, version 0.0.4.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// The metrics endpoint's listener-level factory.
pub struct MetricsProtocol {
    metrics: Arc<MetricsRegistry>,
}

impl MetricsProtocol {
    /// A protocol exposing `metrics` at `GET /metrics`.
    pub fn new(metrics: Arc<MetricsRegistry>) -> MetricsProtocol {
        MetricsProtocol { metrics }
    }
}

impl Protocol for MetricsProtocol {
    fn connect(&self) -> Box<dyn ConnHandler> {
        Box::new(HttpHandler {
            metrics: Arc::clone(&self.metrics),
        })
    }
}

/// Per-connection handler: waits for one complete header block, parses
/// the request line, and hands the route to a worker task.
struct HttpHandler {
    metrics: Arc<MetricsRegistry>,
}

/// Where one parsed request goes.
enum Route {
    /// `GET /metrics` — render and serve the snapshot.
    Metrics,
    /// A well-formed request for anything else.
    NotFound,
    /// A well-formed non-GET request.
    MethodNotAllowed,
    /// Not parseable as an HTTP request line.
    BadRequest,
}

impl ConnHandler for HttpHandler {
    fn on_bytes(&mut self, buf: &[u8], _out: &mut Vec<u8>) -> (usize, HandlerOutcome) {
        let Some(end) = header_end(buf) else {
            if buf.len() > MAX_HEADER_BYTES {
                return (buf.len(), HandlerOutcome::Close);
            }
            return (0, HandlerOutcome::Continue);
        };
        let route = parse_route(&buf[..end]);
        (
            end,
            HandlerOutcome::Task(Box::new(MetricsTask {
                metrics: Arc::clone(&self.metrics),
                route: Some(route),
            })),
        )
    }
}

/// Renders and serves one response, then closes.
struct MetricsTask {
    metrics: Arc<MetricsRegistry>,
    route: Option<Route>,
}

impl ConnTask for MetricsTask {
    fn poll(&mut self, conn: &ConnHandle) -> TaskPoll {
        if conn.is_dead() {
            return TaskPoll::Done;
        }
        let Some(route) = self.route.take() else {
            return TaskPoll::Done;
        };
        let response = match route {
            Route::Metrics => {
                let mut span = self.metrics.span("http.metrics");
                span.set_kind("GET /metrics");
                // Render before the span drops so the scrape's own latency
                // lands in hydra_request_seconds{op="http.metrics"}.
                let body = self.metrics.snapshot().render_prometheus();
                http_response("200 OK", EXPOSITION_CONTENT_TYPE, &body)
            }
            Route::NotFound => {
                let mut span = self.metrics.span("http.metrics");
                span.set_error();
                http_response("404 Not Found", "text/plain; charset=utf-8", "not found\n")
            }
            Route::MethodNotAllowed => {
                let mut span = self.metrics.span("http.metrics");
                span.set_error();
                http_response(
                    "405 Method Not Allowed",
                    "text/plain; charset=utf-8",
                    "only GET is supported\n",
                )
            }
            Route::BadRequest => {
                let mut span = self.metrics.span("http.metrics");
                span.set_error();
                http_response(
                    "400 Bad Request",
                    "text/plain; charset=utf-8",
                    "malformed request line\n",
                )
            }
        };
        conn.push(response);
        TaskPoll::DoneClose
    }
}

/// Index one past the header terminator (`\r\n\r\n` or `\n\n`), if the
/// buffer holds a complete header block.
fn header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 4)
        .or_else(|| buf.windows(2).position(|w| w == b"\n\n").map(|i| i + 2))
}

/// Parses the request line of a complete header block into a route.
fn parse_route(head: &[u8]) -> Route {
    let Ok(text) = std::str::from_utf8(head) else {
        return Route::BadRequest;
    };
    let request_line = text.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Route::BadRequest;
    };
    if method != "GET" {
        return Route::MethodNotAllowed;
    }
    let path = target.split('?').next().unwrap_or(target);
    if path == "/metrics" || path == "/metrics/" {
        Route::Metrics
    } else {
        Route::NotFound
    }
}

/// Builds one complete HTTP/1.0 response with `Content-Length` and
/// `Connection: close`.
fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_reactor::{ReactorBuilder, ShutdownSignal};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    #[test]
    fn header_end_handles_both_terminators() {
        assert_eq!(header_end(b"GET / HTTP/1.0\r\n\r\nrest"), Some(18));
        assert_eq!(header_end(b"GET /metrics\n\n"), Some(14));
        assert_eq!(header_end(b"GET /metrics HTTP/1.0\r\n"), None);
        assert_eq!(header_end(b""), None);
    }

    #[test]
    fn routing() {
        assert!(matches!(
            parse_route(b"GET /metrics HTTP/1.0\r\n"),
            Route::Metrics
        ));
        assert!(matches!(
            parse_route(b"GET /metrics?x=1 HTTP/1.1\r\n"),
            Route::Metrics
        ));
        assert!(matches!(
            parse_route(b"GET / HTTP/1.0\r\n"),
            Route::NotFound
        ));
        assert!(matches!(
            parse_route(b"POST /metrics HTTP/1.0\r\n"),
            Route::MethodNotAllowed
        ));
        assert!(matches!(parse_route(b"\xff\xfe\n"), Route::BadRequest));
        assert!(matches!(parse_route(b"\n"), Route::BadRequest));
    }

    fn scrape(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    #[test]
    fn serves_prometheus_exposition_over_http() {
        let metrics = MetricsRegistry::new();
        metrics.counter("hydra_reactor_accepts_total").add(3);
        let mut builder = ReactorBuilder::new(Arc::clone(&metrics));
        let addr = builder
            .listen(
                "127.0.0.1:0",
                Arc::new(MetricsProtocol::new(Arc::clone(&metrics))),
            )
            .expect("listen");
        let signal = ShutdownSignal::new();
        let reactor = builder.start(signal.clone()).expect("start");

        let response = scrape(addr, "GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
        let body = response
            .split("\r\n\r\n")
            .nth(1)
            .expect("response has a body");
        assert!(
            body.contains("hydra_reactor_accepts_total"),
            "scrape misses the accepts counter:\n{body}"
        );
        // Content-Length is exact.
        let declared: usize = response
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("Content-Length header")
            .trim()
            .parse()
            .expect("numeric length");
        assert_eq!(declared, body.len());

        let missing = scrape(addr, "GET /other HTTP/1.0\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
        let post = scrape(addr, "POST /metrics HTTP/1.0\r\n\r\n");
        assert!(post.starts_with("HTTP/1.0 405"), "{post}");

        signal.trigger();
        reactor.join();
    }
}
