//! A deliberately small HTTP/1.1 layer for the REST services.
//!
//! The paper: "These services are implemented as REST-style web-services:
//! transport is HTTP, requests are HTTP GET whose parameters are embedded
//! in the requested URI. Answers to requests are JSON formatted
//! documents." That surface — query parameters, JSON bodies — is all this
//! module implements. GET carries every read-side query; POST (same
//! URI-parameter encoding, no request body) is admitted for the
//! state-changing control endpoints (`/pilgrim/link_event`). Other
//! methods get 405, and the shed fallback hook below is offered GETs
//! only — a shed control mutation must fail loudly.
//!
//! ## One front end
//!
//! Every connection is driven by one poller thread through an epoll
//! readiness loop (see the sibling `sys` module for the FFI and `poller`
//! for the state machines): nonblocking sockets, buffered partial reads
//! and writes, HTTP/1.1 keep-alive (a client connection amortizes its
//! accept across many requests), and a timer wheel that turns the header
//! deadline, idle timeout and write timeout into `epoll_wait` timeouts.
//! The poller is the only owner of server-side sockets and the only
//! caller of `parse_head`, the one function that turns received bytes
//! into a [`Request`]. A handler has two stages ([`Handle`]): the poller
//! runs the *probe* stage of every parsed request on its own thread and
//! writes what that answers at once; what the probe defers is handed to
//! an `exec::WorkerPool`, and the finished response comes back over an
//! `exec::Handback` plus wake pipe. This module holds what surrounds
//! that loop: the request/response types and their grammar, the
//! configuration, the counters, the [`Server`] handle and the client.
//!
//! ## Admission control and overload semantics
//!
//! The service sits on a grid scheduler's critical path, so overload has
//! a *defined* behavior instead of an unbounded queue:
//!
//! * **Bounded pending queue.** At most [`ServerConfig::queue_limit`]
//!   parsed requests may wait for a worker. Beyond that the server
//!   *sheds*: a new connection is answered `503 Service Unavailable`
//!   with a `Retry-After` header without reading its request, and a
//!   request that needs a worker and finds the queue full once parsed
//!   (keep-alive, or a race with the accept-time check) gets the same
//!   answer. A request the handler's probe stage answers needs no worker
//!   and is served regardless.
//! * **Shed fallback hook.** When a shed fallback handler is installed
//!   ([`Server::start_with`]), the poller reads an overloaded
//!   connection's head as usual and hands the *parsed* GET to a
//!   dedicated thread that offers it to the fallback instead of a plain
//!   503. The fallback path has its own small queue; past it, plain 503s
//!   resume. No program code installs one (only tests do): the Pilgrim
//!   service answers cached forecasts inline under any overload and
//!   never answers with an out-of-date one. The hook stays because the
//!   standalone benchmark package passes this parameter (as `None`);
//!   it goes once that package stops passing it.
//! * **Per-request deadlines.** A request admitted at time `t` with
//!   deadline `d` (client header `X-Pilgrim-Deadline-Ms`, capped by
//!   [`ServerConfig::max_deadline`], or the server-side
//!   [`ServerConfig::default_deadline`]) is answered `504 Gateway
//!   Timeout` if `t + d` passes before the handler *starts*. The check
//!   runs before the probe stage and again when a worker dequeues the
//!   deferred rest — queued-then-expired work is never executed, so a
//!   backlog drains at write speed instead of simulating for clients
//!   that already gave up.
//! * **Slowloris guard.** The request line and headers must arrive
//!   within [`ServerConfig::header_deadline`] *in total*, however the
//!   bytes are spread over reads — separate from the keep-alive
//!   [`ServerConfig::idle_timeout`], which only runs between requests.
//!   Violations get `408 Request Timeout`.
//! * **Graceful drain.** [`Server::stop`] stops accepting, lets queued
//!   and in-flight requests finish, and joins every worker before
//!   returning; connections arriving after the listener closes are
//!   refused by the OS.
//!
//! Handler panics are caught per request in either stage (`500`; the
//! poller, or the worker, survives), and
//! write-side errors (client hung up mid-response) are counted, never
//! panicked on. [`ServerStats`] exposes the counters.
//!
//! ## Telemetry
//!
//! Every server owns a [`telemetry::MetricsRegistry`] (pass a shared one
//! via [`Server::start_with_registry`] to merge with application
//! metrics). The layer records, always-on:
//!
//! * `http_accepted_total`, `http_shed_total`, `http_stale_served_total`,
//!   `http_expired_total`, `http_handler_panics_total`,
//!   `http_write_errors_total` — the [`ServerStats`] counters, adopted
//!   onto the registry (same cells, two views).
//! * `http_request_latency_ns{endpoint,status}` — latency histograms
//!   from the start of the answering stage (probe, or worker dequeue)
//!   to the response written, keyed by the first two path segments (bounded
//!   cardinality: past 64 series new endpoints fold into `other`).
//! * `http_queue_wait_ns` — one sample per request: arrival (accept, or
//!   first byte on a recycled connection) until the stage that answers
//!   it starts — the probe for an inline answer, the worker's dequeue
//!   for a deferred one, so the admission queue's latency is in it.
//! * `http_request_header_bytes_total` / `http_response_body_bytes_total`
//!   — wire volume in and out.
//! * `http_connections_open` — currently open client connections.
//! * `http_keepalive_reuse_total` — responses after which a connection
//!   was recycled for another request.
//! * `epoll_wakeups_total` — `epoll_wait` returns in the poller loop;
//!   `http_socket_reads_total`, `http_socket_writes_total`,
//!   `epoll_ctl_total`, `wake_pipe_writes_total` — the poller's other
//!   syscalls, counted where they are made (an inline answer is one
//!   read and one write; a deferred one adds two `epoll_ctl`s and a
//!   wake).
//! * `pool_queue_depth`, `pool_job_service_ns`,
//!   `pool_panics_caught_total` — the worker pool the poller hands
//!   deferred requests to (one job each; an inline answer makes none).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use jsonlite::Value;
use telemetry::{Counter, Histogram, MetricsRegistry};

/// A parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// HTTP method (GET and POST are served).
    pub method: String,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Query parameters in order of appearance (keys may repeat:
    /// `transfer=…&transfer=…`).
    pub params: Vec<(String, String)>,
    /// Header fields in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// A synthetic request (tests, in-process routing): GET `path` with
    /// `query` parsed, no headers.
    pub fn synthetic(path: &str, query: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            params: parse_query(query),
            headers: Vec::new(),
        }
    }

    /// A synthetic POST (tests, in-process routing): same URI-parameter
    /// encoding as [`Request::synthetic`], POST method.
    pub fn synthetic_post(path: &str, query: &str) -> Request {
        Request { method: "POST".into(), ..Request::synthetic(path, query) }
    }

    /// First value of a parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// All values of a repeatable parameter.
    pub fn params_named(&self, key: &str) -> Vec<&str> {
        self.params
            .iter()
            .filter(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// First value of a header (lookup name must be lowercase).
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A response about to be serialized.
#[derive(Clone, Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body (JSON for every Pilgrim endpoint).
    pub body: String,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// Extra response headers (`Retry-After`, …).
    pub headers: Vec<(String, String)>,
}

impl Response {
    /// 200 with a JSON body.
    pub fn json(v: &Value) -> Response {
        Response {
            status: 200,
            body: v.to_string(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// An error status with a `{"error": …}` JSON body.
    pub fn error(status: u16, message: &str) -> Response {
        let v = Value::object(vec![("error", Value::from(message))]);
        Response {
            status,
            body: v.to_string(),
            content_type: "application/json",
            headers: Vec::new(),
        }
    }

    /// The load-shed refusal: 503 with a `Retry-After` hint.
    pub fn overloaded(retry_after_secs: u32) -> Response {
        Response::error(503, "server overloaded, retry later")
            .with_header("Retry-After", &retry_after_secs.to_string())
    }

    /// The deadline-expiry answer.
    pub fn deadline_expired() -> Response {
        Response::error(504, "deadline expired before the request could be served")
    }

    /// Adds a response header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Internal Server Error",
        }
    }

    /// Serializes the whole response (head + body) into one buffer with
    /// the requested connection framing.
    pub(crate) fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (k, v) in &self.headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// Percent-decodes a URI component (`%XX` and `+` → space).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).ok();
                match hex.and_then(|h| u8::from_str_radix(h, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(bytes[i]);
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Parses `a=1&b=2` into decoded pairs, preserving order and repeats.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Server tuning: admission, deadlines and socket timeouts.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads serving parsed requests (clamped to ≥ 1).
    pub workers: usize,
    /// Parsed requests allowed to wait for a worker before new arrivals
    /// are shed with 503s. In-service requests do not count.
    pub queue_limit: usize,
    /// Total wall-clock budget for receiving the request line + headers
    /// (slowloris guard); violations get 408.
    pub header_deadline: Duration,
    /// Keep-alive idle timeout: a recycled connection that stays silent
    /// past it is closed.
    pub idle_timeout: Duration,
    /// Write timeout: a client that stops reading its response is
    /// abandoned (and counted in `write_errors`) after this.
    pub write_timeout: Duration,
    /// Server-side default end-to-end deadline, measured from accept.
    /// `None` disables deadline checks unless the client asks for one.
    pub default_deadline: Option<Duration>,
    /// Upper bound on client-requested deadlines
    /// (`X-Pilgrim-Deadline-Ms`).
    pub max_deadline: Duration,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u32,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_limit: 1024,
            header_deadline: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            default_deadline: None,
            max_deadline: Duration::from_secs(300),
            retry_after_secs: 1,
        }
    }
}

/// Lifetime counters of one server (observability / tests).
///
/// Fields are shared-handle [`telemetry::Counter`]s: the server bumps
/// the same atomic cells `/pilgrim/metrics` renders — the struct is a
/// *view* over the registry-adopted instruments, not a second ledger.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: Counter,
    /// Connections refused by admission control (503 or fallback path).
    pub shed: Counter,
    /// Shed connections answered 200 by the shed fallback handler.
    pub stale_served: Counter,
    /// Requests answered 504 (deadline expired before the handler ran).
    pub expired: Counter,
    /// Handler panics converted into 500s.
    pub handler_panics: Counter,
    /// Response writes that failed (client hung up mid-response).
    pub write_errors: Counter,
}

impl ServerStats {
    /// Adopts every counter into `registry` as the `http_*` family.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter(
            "http_accepted_total",
            "Connections accepted by the listener",
            &[],
            &self.accepted,
        );
        registry.adopt_counter(
            "http_shed_total",
            "Connections refused by admission control (503 or fallback path)",
            &[],
            &self.shed,
        );
        registry.adopt_counter(
            "http_stale_served_total",
            "Shed connections answered 200 by the shed fallback handler",
            &[],
            &self.stale_served,
        );
        registry.adopt_counter(
            "http_expired_total",
            "Requests answered 504 (deadline passed before the handler ran)",
            &[],
            &self.expired,
        );
        registry.adopt_counter(
            "http_handler_panics_total",
            "Handler panics converted into 500s",
            &[],
            &self.handler_panics,
        );
        registry.adopt_counter(
            "http_write_errors_total",
            "Response writes that failed (client hung up mid-response)",
            &[],
            &self.write_errors,
        );
    }
}

/// Distinct `(endpoint, status)` latency series the server will create
/// before folding further requests into `endpoint="other"` — bounds the
/// exposition's cardinality against hostile or misdirected paths.
const MAX_LATENCY_SERIES: usize = 64;

/// Request-path instruments beyond the plain [`ServerStats`] counters:
/// queue-wait and per-endpoint latency histograms plus wire byte
/// counters, all registered on the server's [`MetricsRegistry`].
pub struct HttpMetrics {
    pub(crate) registry: Arc<MetricsRegistry>,
    /// Request arrival (accept, or first byte on a recycled connection)
    /// → start of the stage that answers it.
    pub(crate) queue_wait_ns: Histogram,
    /// Request-line + header bytes read off sockets.
    pub(crate) header_bytes: Counter,
    /// Response body bytes successfully written.
    pub(crate) body_bytes: Counter,
    /// Currently open client connections.
    pub(crate) connections_open: telemetry::Gauge,
    /// Responses after which the connection was recycled for another
    /// request.
    pub(crate) keepalive_reuse: Counter,
    /// `epoll_wait` returns in the poller loop.
    pub(crate) epoll_wakeups: Counter,
    /// `read` calls on client sockets.
    pub(crate) socket_reads: Counter,
    /// `write` calls on client sockets.
    pub(crate) socket_writes: Counter,
    /// Handle cache for `http_request_latency_ns{endpoint,status}` —
    /// avoids a registry lookup per request and enforces
    /// [`MAX_LATENCY_SERIES`].
    latency: Mutex<HashMap<(String, u16), Histogram>>,
}

impl HttpMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> HttpMetrics {
        let queue_wait_ns = registry.histogram(
            "http_queue_wait_ns",
            "Arrival-to-start wait before the stage that answered the request ran",
            &[],
        );
        let header_bytes = registry.counter(
            "http_request_header_bytes_total",
            "Request-line and header bytes read from clients",
            &[],
        );
        let body_bytes = registry.counter(
            "http_response_body_bytes_total",
            "Response body bytes successfully written to clients",
            &[],
        );
        let connections_open = registry.gauge(
            "http_connections_open",
            "Currently open client connections",
            &[],
        );
        let keepalive_reuse = registry.counter(
            "http_keepalive_reuse_total",
            "Responses after which the connection was kept alive for another request",
            &[],
        );
        let epoll_wakeups = registry.counter(
            "epoll_wakeups_total",
            "Returns from epoll_wait in the poller loop",
            &[],
        );
        let socket_reads = registry.counter(
            "http_socket_reads_total",
            "read calls the poller made on client sockets",
            &[],
        );
        let socket_writes = registry.counter(
            "http_socket_writes_total",
            "write calls the poller made on client sockets",
            &[],
        );
        HttpMetrics {
            registry,
            queue_wait_ns,
            header_bytes,
            body_bytes,
            connections_open,
            keepalive_reuse,
            epoll_wakeups,
            socket_reads,
            socket_writes,
            latency: Mutex::new(HashMap::new()),
        }
    }

    /// Records one served request under its normalized endpoint and
    /// response status. Past [`MAX_LATENCY_SERIES`] a new endpoint is
    /// recorded as `other` and leaves no entry of its own: the table is
    /// bounded whatever paths clients invent.
    pub(crate) fn observe(&self, endpoint: &str, status: u16, elapsed: Duration) {
        let mut table = self.latency.lock().unwrap_or_else(PoisonError::into_inner);
        let mut key = (endpoint.to_string(), status);
        if table.len() >= MAX_LATENCY_SERIES && !table.contains_key(&key) {
            key.0 = "other".to_string();
        }
        let hist = table
            .entry(key)
            .or_insert_with_key(|(endpoint, status)| {
                self.registry.histogram(
                    "http_request_latency_ns",
                    "Dequeue-to-response-written request latency",
                    &[("endpoint", endpoint), ("status", &status.to_string())],
                )
            })
            .clone();
        drop(table);
        hist.record(dur_ns(elapsed));
    }

    /// Entries in the latency handle table.
    #[cfg(test)]
    pub(crate) fn latency_series(&self) -> usize {
        self.latency.lock().unwrap_or_else(PoisonError::into_inner).len()
    }
}

/// First two path segments (`/pilgrim/rrd/a/b.rrd` → `/pilgrim/rrd`):
/// the bounded endpoint label the latency series are keyed by.
pub(crate) fn normalize_endpoint(path: &str) -> &str {
    let mut end = path.len();
    for (n, (i, _)) in path.match_indices('/').enumerate() {
        // n == 0 is the leading slash; the third slash closes segment 2
        if n == 2 {
            end = i;
            break;
        }
    }
    &path[..end]
}

/// A `Duration` as saturating nanoseconds.
pub(crate) fn dur_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Parses one request head — the request line, then header lines up to
/// the first blank line or the end of `head` — into a [`Request`]: the
/// one place received bytes become a request. Lines end in `\n` or
/// `\r\n`; anything that is not HTTP/1.x is rejected; a header line
/// without a `:` is skipped; the target is split at the first `?`
/// *before* the path is percent-decoded, so an encoded `?` stays part of
/// the path.
pub(crate) fn parse_head(head: &str) -> Result<Request, String> {
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
    let mut parts = lines.next().unwrap_or("").split_whitespace();
    let method = parts.next().ok_or("missing method")?;
    let target = parts.next().ok_or("missing target")?;
    let version = parts.next().ok_or("missing version")?;
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version {version}"));
    }
    let headers = lines
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path),
        params: parse_query(query),
        headers,
    })
}

/// What a handler's probe stage made of a request.
pub enum Probe {
    /// Answered on the calling thread.
    Ready(Response),
    /// Not answerable without real work: the compute stage, to be run
    /// once (on a pool worker, when the caller is the poller) with the
    /// same request.
    Deferred(Box<dyn FnOnce(&Request) -> Response + Send>),
}

/// A request handler in two stages. The poller calls [`Handle::probe`]
/// on its own thread for every parsed request, so a probe must be short
/// and must never block on work of unbounded length: whatever it cannot
/// answer at once it returns as [`Probe::Deferred`], and the poller
/// hands that — subject to admission control — to the worker pool. A
/// probe that panics costs its request a 500, exactly like a compute
/// stage that does.
///
/// Every `Fn(&Request) -> Response` closure is a handler whose probe
/// defers everything, i.e. one that runs whole on a worker thread.
pub trait Handle: Send + Sync {
    /// The probe stage of one request.
    fn probe(self: Arc<Self>, req: &Request) -> Probe;
}

impl<F> Handle for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn probe(self: Arc<Self>, _req: &Request) -> Probe {
        Probe::Deferred(Box::new(move |req| self(req)))
    }
}

/// The request handler shared by the poller and all workers.
pub type Handler = Arc<dyn Handle>;

/// Both stages of `handler` back to back on the calling thread.
pub(crate) fn handle_whole(handler: &Handler, req: &Request) -> Response {
    match Arc::clone(handler).probe(req) {
        Probe::Ready(response) => response,
        Probe::Deferred(compute) => compute(req),
    }
}

/// The deadline a request runs under: the client's
/// `X-Pilgrim-Deadline-Ms` (capped by `max_deadline`) or the server-side
/// default.
pub(crate) fn effective_deadline(req: &Request, config: &ServerConfig) -> Option<Duration> {
    req.header("x-pilgrim-deadline-ms")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(|ms| Duration::from_millis(ms).min(config.max_deadline))
        .or(config.default_deadline)
}

/// A running HTTP server.
pub struct Server {
    addr: SocketAddr,
    front: crate::poller::EventFront,
    stats: Arc<ServerStats>,
    registry: Arc<MetricsRegistry>,
}

impl Server {
    /// Binds `addr` (use `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `handler` on `workers` threads until [`Server::stop`],
    /// with default admission tuning (queue of 1024, no deadlines).
    pub fn start(addr: &str, workers: usize, handler: Handler) -> std::io::Result<Server> {
        Server::start_with(addr, ServerConfig { workers, ..ServerConfig::default() }, handler, None)
    }

    /// Binds `addr` with explicit admission/deadline tuning. When
    /// `shed_fallback` is set, shed GET requests are offered to it
    /// instead of being refused outright (no in-tree caller sets it; see
    /// the module docs). The server gets a private [`MetricsRegistry`].
    pub fn start_with(
        addr: &str,
        config: ServerConfig,
        handler: Handler,
        shed_fallback: Option<Handler>,
    ) -> std::io::Result<Server> {
        Server::start_with_registry(
            addr,
            config,
            handler,
            shed_fallback,
            Arc::new(MetricsRegistry::new()),
        )
    }

    /// Like [`Server::start_with`], but adopting the server's instruments
    /// into a caller-provided registry — the Pilgrim service passes its
    /// own so `/pilgrim/metrics` exposes the `http_*` family and the
    /// worker pool's `pool_*` family alongside the forecast/kernel
    /// families.
    pub fn start_with_registry(
        addr: &str,
        config: ServerConfig,
        handler: Handler,
        shed_fallback: Option<Handler>,
        registry: Arc<MetricsRegistry>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(ServerStats::default());
        stats.register_metrics(&registry);
        let metrics = Arc::new(HttpMetrics::new(Arc::clone(&registry)));
        let front = crate::poller::start(
            listener,
            config,
            handler,
            shed_fallback,
            Arc::clone(&stats),
            metrics,
        )?;
        Ok(Server { addr: local, front, stats, registry })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// The registry holding this server's instruments (shared with the
    /// caller if it was started via [`Server::start_with_registry`]).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Stops accepting and drains gracefully: queued and in-flight
    /// requests finish, every worker is joined, new connections are
    /// refused once the listener closes. Idempotent.
    pub fn stop(&mut self) {
        self.front.stop();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A one-shot HTTP GET, returning `(status, body)`. `path_and_query` must
/// start with `/`.
pub fn http_get(addr: SocketAddr, path_and_query: &str) -> std::io::Result<(u16, String)> {
    let (status, _, body) = http_get_with_headers(addr, path_and_query, &[])?;
    Ok((status, body))
}

/// What the one-call client returns: status, response headers (names
/// lowercased), body.
pub type ClientAnswer = (u16, Vec<(String, String)>, String);

/// A one-shot HTTP GET with request headers, returning `(status,
/// response-headers, body)`. Response header names are lowercased.
pub fn http_get_with_headers(
    addr: SocketAddr,
    path_and_query: &str,
    headers: &[(&str, &str)],
) -> std::io::Result<ClientAnswer> {
    let mut all = vec![("Connection", "close")];
    all.extend_from_slice(headers);
    HttpClient::new(addr).request("GET", path_and_query, &all)
}

/// A one-shot HTTP POST (URI-encoded parameters, empty body), returning
/// `(status, body)`.
pub fn http_post(addr: SocketAddr, path_and_query: &str) -> std::io::Result<(u16, String)> {
    let (status, _, body) =
        HttpClient::new(addr).request("POST", path_and_query, &[("Connection", "close")])?;
    Ok((status, body))
}

/// A keep-alive HTTP/1.1 client: one TCP connection reused across
/// requests, responses framed by `Content-Length` — the one place a
/// response is parsed (the one-shot helpers above are this client with
/// `Connection: close`). A response that says `Connection: close` drops
/// the connection, and the next request reconnects.
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl HttpClient {
    /// A client for `addr`; no connection is opened until first use.
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient { addr, stream: None }
    }

    /// GET returning `(status, body)`.
    pub fn get(&mut self, path_and_query: &str) -> std::io::Result<(u16, String)> {
        let (status, _, body) = self.request("GET", path_and_query, &[])?;
        Ok((status, body))
    }

    /// Issues one request, reusing the live connection when possible.
    /// A failure on a *reused* connection (the server may have closed it
    /// between requests — an inherent keep-alive race) is retried once
    /// on a fresh connection.
    pub fn request(
        &mut self,
        method: &str,
        path_and_query: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientAnswer> {
        let reused = self.stream.is_some();
        match self.try_request(method, path_and_query, headers) {
            Err(_) if reused => {
                self.stream = None;
                self.try_request(method, path_and_query, headers)
            }
            r => r,
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path_and_query: &str,
        headers: &[(&str, &str)],
    ) -> std::io::Result<ClientAnswer> {
        use std::io::{Error, ErrorKind};
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            s.set_nodelay(true)?;
            self.stream = Some(BufReader::new(s));
        }
        let reader = self.stream.as_mut().expect("connected above");
        let mut req = format!("{method} {path_and_query} HTTP/1.1\r\nHost: {}\r\n", self.addr);
        for (k, v) in headers {
            req.push_str(&format!("{k}: {v}\r\n"));
        }
        req.push_str("\r\n");
        reader.get_mut().write_all(req.as_bytes())?;
        let mut status_line = String::new();
        if reader.read_line(&mut status_line)? == 0 {
            return Err(Error::new(ErrorKind::UnexpectedEof, "connection closed"));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "bad status line"))?;
        let mut resp_headers: Vec<(String, String)> = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line)? == 0 {
                return Err(Error::new(ErrorKind::UnexpectedEof, "eof in headers"));
            }
            let line = line.trim_end_matches(['\r', '\n']);
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                resp_headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
            }
        }
        let content_length: usize = resp_headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| Error::new(ErrorKind::InvalidData, "missing content-length"))?;
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        let close = resp_headers
            .iter()
            .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));
        if close {
            self.stream = None;
        }
        Ok((status, resp_headers, String::from_utf8_lossy(&body).into_owned()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_decoding() {
        assert_eq!(percent_decode("2012-05-04%2008:00:00"), "2012-05-04 08:00:00");
        assert_eq!(percent_decode("a+b"), "a b");
        assert_eq!(percent_decode("%zz"), "%zz"); // invalid escapes pass through
        assert_eq!(percent_decode("caf%C3%A9"), "café");
    }

    #[test]
    fn query_parsing_keeps_repeats_in_order() {
        let q = parse_query("transfer=a,b,5e8&transfer=c,d,1e6&x");
        assert_eq!(q.len(), 3);
        assert_eq!(q[0], ("transfer".into(), "a,b,5e8".into()));
        assert_eq!(q[1], ("transfer".into(), "c,d,1e6".into()));
        assert_eq!(q[2], ("x".into(), String::new()));
    }

    #[test]
    fn latency_handle_table_is_bounded() {
        let metrics = HttpMetrics::new(Arc::new(MetricsRegistry::new()));
        let statuses = [200u16, 400, 404];
        for n in 0..10_000 {
            metrics.observe(&format!("/a{n}/x"), statuses[n % statuses.len()], Duration::ZERO);
        }
        // one `other` handle per status beside the capped endpoints
        assert!(
            metrics.latency_series() <= MAX_LATENCY_SERIES + statuses.len(),
            "{} handles",
            metrics.latency_series()
        );
    }

    #[test]
    fn request_param_helpers() {
        let r = Request::synthetic("/x", "a=1&b=2&a=3");
        assert_eq!(r.param("a"), Some("1"));
        assert_eq!(r.params_named("a"), vec!["1", "3"]);
        assert_eq!(r.param("zz"), None);
    }

    #[test]
    fn parse_head_accepts_the_grammar() {
        type Pairs = &'static [(&'static str, &'static str)];
        // (head, method, path, params, headers)
        let cases: &[(&str, &str, &str, Pairs, Pairs)] = &[
            // CRLF head with its blank line
            ("GET /a HTTP/1.1\r\nHost: x\r\n\r\n", "GET", "/a", &[], &[("host", "x")]),
            // bare-LF head
            ("GET /a HTTP/1.0\nHost: x\n\n", "GET", "/a", &[], &[("host", "x")]),
            // EOF-terminated head: no blank line, last line unterminated
            ("POST /a?k=v HTTP/1.1\r\nHost: x", "POST", "/a", &[("k", "v")], &[("host", "x")]),
            // request line only
            ("GET / HTTP/1.1", "GET", "/", &[], &[]),
            // a header line without ':' is skipped, its neighbours kept
            ("GET / HTTP/1.1\r\nnot a header\r\nA: 1\r\n\r\n", "GET", "/", &[], &[("a", "1")]),
            // names lower-cased, values trimmed, only the first ':' splits
            (
                "GET / HTTP/1.1\r\nX-MiXed-Case:   padded value \r\nT:a:b\r\n\r\n",
                "GET",
                "/",
                &[],
                &[("x-mixed-case", "padded value"), ("t", "a:b")],
            ),
            // repeated headers keep arrival order
            (
                "GET / HTTP/1.1\r\nVia: 1\r\nHost: x\r\nVia: 2\r\n\r\n",
                "GET",
                "/",
                &[],
                &[("via", "1"), ("host", "x"), ("via", "2")],
            ),
            // nothing after the blank line belongs to this head
            ("GET / HTTP/1.1\r\nA: 1\r\n\r\nB: 2\r\n", "GET", "/", &[], &[("a", "1")]),
            // the query is split off first, then each side is decoded:
            // an encoded '?' stays in the path, an encoded '&' in a value
            (
                "GET /p%3Fq%20r?a=1%262&b=x+y HTTP/1.1\r\n\r\n",
                "GET",
                "/p?q r",
                &[("a", "1&2"), ("b", "x y")],
                &[],
            ),
            // only the first '?' splits
            ("GET /p?a=b?c HTTP/1.1\r\n\r\n", "GET", "/p", &[("a", "b?c")], &[]),
        ];
        let owned = |pairs: Pairs| -> Vec<(String, String)> {
            pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
        };
        for (head, method, path, params, headers) in cases {
            let req = parse_head(head).unwrap_or_else(|e| panic!("{head:?} rejected: {e}"));
            assert_eq!(req.method, *method, "{head:?}");
            assert_eq!(req.path, *path, "{head:?}");
            assert_eq!(req.params, owned(params), "{head:?}");
            assert_eq!(req.headers, owned(headers), "{head:?}");
        }
    }

    #[test]
    fn parse_head_rejects_what_is_not_http_1() {
        for (head, why) in [
            ("", "missing method"),
            ("\r\n", "missing method"),
            ("GET", "missing target"),
            ("GET\r\nHost: x\r\n\r\n", "missing target"),
            ("GET /x", "missing version"),
            ("GET /x\r\nHTTP/1.1\r\n\r\n", "missing version"),
            ("GET /x HTTP/2.0\r\n\r\n", "unsupported version HTTP/2.0"),
            ("GET /x HTTP/9.9\r\n\r\n", "unsupported version HTTP/9.9"),
            ("GET /x http/1.1\r\n\r\n", "unsupported version http/1.1"),
        ] {
            assert_eq!(parse_head(head).unwrap_err(), why, "{head:?}");
        }
    }

    #[test]
    fn server_round_trip() {
        let handler: Handler = Arc::new(|req: &Request| {
            let v = Value::object(vec![
                ("path", Value::from(req.path.as_str())),
                ("begin", Value::from(req.param("begin").unwrap_or(""))),
            ]);
            Response::json(&v)
        });
        let mut server = Server::start("127.0.0.1:0", 2, handler).unwrap();
        let (status, body) =
            http_get(server.addr(), "/pilgrim/rrd/x.rrd?begin=2012-05-04%2008:00:00").unwrap();
        assert_eq!(status, 200);
        let v = Value::parse(&body).unwrap();
        assert_eq!(v["path"].as_str(), Some("/pilgrim/rrd/x.rrd"));
        assert_eq!(v["begin"].as_str(), Some("2012-05-04 08:00:00"));
        server.stop();
    }

    #[test]
    fn request_headers_are_parsed() {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::json(&Value::from(req.header("x-check").unwrap_or("none")))
        });
        let server = Server::start("127.0.0.1:0", 1, handler).unwrap();
        let (status, _, body) =
            http_get_with_headers(server.addr(), "/", &[("X-Check", "yes")]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "\"yes\"");
    }

    #[test]
    fn response_extra_headers_round_trip() {
        let handler: Handler = Arc::new(|_req: &Request| {
            Response::json(&Value::Null).with_header("X-Pilgrim-Stale", "3")
        });
        let server = Server::start("127.0.0.1:0", 1, handler).unwrap();
        let (status, headers, _) = http_get_with_headers(server.addr(), "/", &[]).unwrap();
        assert_eq!(status, 200);
        assert_eq!(
            headers.iter().find(|(k, _)| k == "x-pilgrim-stale").map(|(_, v)| v.as_str()),
            Some("3")
        );
    }

    #[test]
    fn unsupported_method_is_rejected() {
        let handler: Handler = Arc::new(|_req: &Request| Response::json(&Value::Null));
        let mut server = Server::start("127.0.0.1:0", 1, handler).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(b"PUT / HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(raw.starts_with("HTTP/1.1 405"), "{raw}");
        server.stop();
    }

    #[test]
    fn post_round_trip_reaches_the_handler() {
        let handler: Handler = Arc::new(|req: &Request| {
            Response::json(&Value::object(vec![
                ("method", Value::from(req.method.as_str())),
                ("link", Value::from(req.param("link").unwrap_or(""))),
            ]))
        });
        let mut server = Server::start("127.0.0.1:0", 1, handler).unwrap();
        let (status, body) = http_post(server.addr(), "/pilgrim/link_event/p?link=bb").unwrap();
        assert_eq!(status, 200);
        let v = Value::parse(&body).unwrap();
        assert_eq!(v["method"].as_str(), Some("POST"));
        assert_eq!(v["link"].as_str(), Some("bb"));
        server.stop();
    }

    #[test]
    fn concurrent_requests_are_served() {
        let handler: Handler = Arc::new(|_req: &Request| {
            std::thread::sleep(Duration::from_millis(20));
            Response::json(&Value::from(1i64))
        });
        let server = Server::start("127.0.0.1:0", 4, handler).unwrap();
        let addr = server.addr();
        let t0 = std::time::Instant::now();
        let threads: Vec<_> = (0..4)
            .map(|_| std::thread::spawn(move || http_get(addr, "/").unwrap().0))
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 200);
        }
        // 4 × 20 ms served in parallel, not 80 ms serially
        assert!(t0.elapsed() < Duration::from_millis(70));
    }

    #[test]
    fn stop_is_idempotent() {
        let handler: Handler = Arc::new(|_req: &Request| Response::json(&Value::Null));
        let mut server = Server::start("127.0.0.1:0", 1, handler).unwrap();
        server.stop();
        server.stop();
    }
}
