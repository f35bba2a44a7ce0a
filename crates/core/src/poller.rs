//! The HTTP front end: one poller thread, epoll readiness,
//! per-connection state machines, and a heap of deadlines.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──▶ listener ─┐
//!                        ▼              answered ──▶ written at once
//!                epoll_wait loop ── parse ── probe ┤
//!                ▲   │  ▲                deferred ─┴▶ exec::WorkerPool
//!                │   │  │                             (compute stage)
//!                │   │  └── wake pipe ◀── exec::Handback ◀──┘
//!                │   └── deadline heap (header / idle / write)
//!                └── nonblocking reads & writes, keep-alive recycle
//! ```
//!
//! The poller owns every socket. A connection in `Reading` buffers a
//! head (bounded by the 64 KiB caps); once it is parsed the poller runs
//! the handler's *probe* stage ([`crate::http::Handle`]) itself, under
//! the per-request deadline check and `catch_unwind`. What the probe
//! answers — a cached forecast, a 4xx — is serialized and written right
//! there: the connection goes `Reading` → `Writing` → `Reading` without
//! an `epoll_ctl`, a pool job, a completion or a wake, and bytes already
//! buffered behind the head are served the same way in a loop
//! (`serve_buffered`), never by recursion. What the probe defers — a
//! forecast that must be simulated, every write, every plain-closure
//! handler — goes `InFlight`: the worker job decrements the admission
//! counter, re-checks the deadline, runs the compute stage under
//! `catch_unwind`, and pushes the response through the [`Handback`];
//! the poller, woken through the pipe, writes it (`EPOLLOUT` registered
//! only while a partial write is outstanding) and recycles the
//! connection to `Reading` when HTTP/1.1 keep-alive applies, else
//! closes it.
//!
//! The cost of answering inline is that all such answers share the
//! poller's one core; the probe contract (short, bounded, no route
//! computation, no simulation) is what keeps a slow request from ever
//! sitting between `epoll_wait` calls.
//!
//! ## Timers
//!
//! A min-heap of `(deadline, token)` entries drives every deadline off
//! `epoll_wait`'s timeout, the earliest entry's wait rounded up to the
//! next millisecond: the slowloris header deadline while a head is
//! arriving, the keep-alive idle timeout while a recycled connection is
//! silent, and the write timeout while a response is blocked on a
//! non-reading peer. Entries are never removed early. As in the kernel's
//! completion calendar, a stale one is told apart when it comes out: by
//! the token's generation once the slot is reused, and by [`ConnTimer`]
//! otherwise. A connection has one armed deadline at a time and keeps it
//! itself; the heap holds about one entry per connection, not two per
//! request — a filed entry that expires early is refiled at the deadline
//! the connection has moved on to.
//!
//! ## Admission, shedding and drain
//!
//! One rule: work that would join a full worker queue is refused with a
//! 503 + `Retry-After` and `Connection: close`. Admission counts
//! submitted-but-not-started jobs and is checked where work would join
//! that queue: at accept time, without reading a byte, and at the
//! hand-off, once the probe stage has deferred a parsed request (a
//! keep-alive request, or one that raced the first check). A request the
//! probe answers never enters the queue and is never shed: with the
//! queue full, a kept-alive client still gets its cached forecasts while
//! its uncached ones are refused.
//! Per-request deadline 504s and handler-panic 500s happen wherever the
//! stage in question runs, here or in the worker job; a graceful drain
//! lets in-flight and writing connections finish and closes reading and
//! idle ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use exec::{Handback, WorkerPool};

use crate::http::{
    dur_ns, effective_deadline, parse_head, Handler, HttpMetrics, Probe, Request, Response,
    ServerConfig, ServerStats,
};
use crate::sys::{Epoll, EpollEvent, WakeHandle, WakePipe, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Epoll token of the wake pipe's read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Upper bound on the request line (method + URI + version). Generous —
/// legitimate Pilgrim queries embed whole transfer lists in the URI —
/// but finite, so a hostile client cannot grow server memory without
/// bound by never sending a newline.
const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;
/// Upper bound on the total header bytes after the request line.
const MAX_HEADER_BYTES: usize = 64 * 1024;

fn token_of(idx: usize, gen: u32) -> u64 {
    (idx as u64) | (u64::from(gen) << 32)
}

fn split_token(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

/// What a worker job sends back through the [`Handback`].
struct Completion {
    token: u64,
    response: Response,
}

/// Handles to the running front end, owned by `http::Server`.
pub(crate) struct EventFront {
    poller_thread: Option<std::thread::JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    wake: Arc<WakeHandle>,
}

impl EventFront {
    /// Tells the poller to drain, wakes it, and joins it. Idempotent.
    pub(crate) fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wake.wake();
        if let Some(t) = self.poller_thread.take() {
            let _ = t.join();
        }
    }
}

/// Starts the poller thread and its worker pool. Called by
/// `Server::start_with_registry`.
pub(crate) fn start(
    listener: TcpListener,
    config: ServerConfig,
    handler: Handler,
    stats: Arc<ServerStats>,
    metrics: Arc<HttpMetrics>,
) -> std::io::Result<EventFront> {
    listener.set_nonblocking(true)?;
    let epoll = Epoll::new()?;
    let (wake_pipe, wake_handle) = WakePipe::new()?;
    let wake = Arc::new(wake_handle);
    // The hand-off's own syscalls, counted where they are made.
    metrics.registry.adopt_counter(
        "epoll_ctl_total",
        "epoll_ctl calls (add, modify, delete) made by the poller",
        &[],
        epoll.ctl_calls(),
    );
    metrics.registry.adopt_counter(
        "wake_pipe_writes_total",
        "Wake-pipe writes pulling the poller out of epoll_wait",
        &[],
        wake.writes(),
    );
    epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(wake_pipe.read_fd(), EPOLLIN, TOKEN_WAKE)?;

    let handback: Arc<Handback<Completion>> = {
        let wake = Arc::clone(&wake);
        Arc::new(Handback::new(move || wake.wake()))
    };

    // The threads that run every request: `pool_*` describes them.
    let pool = WorkerPool::new(config.workers.max(1));
    pool.register_metrics(&metrics.registry);

    let stop = Arc::new(AtomicBool::new(false));
    let poller = Poller {
        epoll,
        wake_pipe,
        listener: Some(listener),
        conns: Vec::new(),
        free: Vec::new(),
        gens: Vec::new(),
        open_count: 0,
        inflight: 0,
        pending: Arc::new(AtomicUsize::new(0)),
        handback,
        pool: Some(pool),
        timers: TimerHeap::default(),
        config,
        handler,
        stats,
        metrics,
        stop: Arc::clone(&stop),
        draining: false,
    };
    let poller_thread = std::thread::Builder::new()
        .name("http-poller".into())
        .spawn(move || poller.run())?;
    Ok(EventFront { poller_thread: Some(poller_thread), stop, wake })
}

/// Which deadline a connection's (single) active timer enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TimerKind {
    /// Slowloris guard: the request head must complete by the deadline
    /// (→ 408).
    Header,
    /// Keep-alive idle timeout: a silent recycled connection is closed.
    Idle,
    /// Write timeout: a response blocked on a non-reading peer is
    /// abandoned (→ `write_errors`).
    Write,
}

/// A connection's one deadline, and the heap entry that will look at
/// it. Re-arming and cancelling only rewrite `armed`; an entry is filed
/// when none is, or when the new deadline is earlier than the filed one
/// (a header deadline armed under a later idle entry must still fire on
/// time). An entry that expires before the armed deadline — the common
/// case on a busy keep-alive connection, whose deadline moves later with
/// every request — is refiled at it, so the heap holds one entry per
/// connection, plus a superseded one or two until they expire, however
/// many requests the connection serves.
#[derive(Default)]
struct ConnTimer {
    armed: Option<(Instant, TimerKind)>,
    /// Deadline of the filed entry that acts for this connection; an
    /// entry with any other deadline was superseded by an earlier one.
    filed: Option<Instant>,
}

impl ConnTimer {
    fn arm(&mut self, timers: &mut TimerHeap, token: u64, kind: TimerKind, deadline: Instant) {
        self.armed = Some((deadline, kind));
        if self.filed.is_none_or(|filed| deadline < filed) {
            self.filed = Some(deadline);
            timers.insert(deadline, token);
        }
    }

    fn cancel(&mut self) {
        self.armed = None;
    }

    /// This connection's entry `(filed, token)` expired at `now`: the
    /// kind to fire, if the armed deadline is due.
    fn expired(
        &mut self,
        timers: &mut TimerHeap,
        (filed, token): (Instant, u64),
        now: Instant,
    ) -> Option<TimerKind> {
        if self.filed != Some(filed) {
            return None; // superseded
        }
        self.filed = None;
        let (deadline, kind) = self.armed?;
        if deadline > now {
            // moved later since the entry was filed: follow it
            self.filed = Some(deadline);
            timers.insert(deadline, token);
            return None;
        }
        self.armed = None;
        Some(kind)
    }
}

/// Every filed `(deadline, token)` entry, earliest first.
#[derive(Default)]
struct TimerHeap(BinaryHeap<Reverse<(Instant, u64)>>);

impl TimerHeap {
    fn insert(&mut self, deadline: Instant, token: u64) {
        self.0.push(Reverse((deadline, token)));
    }

    /// Moves every entry due by `now` into `expired`, earliest first.
    fn advance(&mut self, now: Instant, expired: &mut Vec<(Instant, u64)>) {
        while self.0.peek().is_some_and(|Reverse((deadline, _))| *deadline <= now) {
            let Reverse(entry) = self.0.pop().expect("peeked above");
            expired.push(entry);
        }
    }

    /// Milliseconds until the earliest entry is due, rounded up — a
    /// deadline 0.3 ms away is a 1 ms wait, never a 0 ms `epoll_wait`
    /// spin; 0 only when one is due already. `None` when none is filed.
    fn next_timeout_ms(&self, now: Instant) -> Option<u64> {
        let Reverse((deadline, _)) = self.0.peek()?;
        let wait = deadline.saturating_duration_since(now).as_nanos().div_ceil(1_000_000);
        Some(u64::try_from(wait).unwrap_or(u64::MAX))
    }
}

/// Checks the request-line / header-size caps against the buffered
/// (incomplete) head; returns the 400 message on violation.
fn head_cap_violation(buf: &[u8]) -> Option<String> {
    match buf.iter().position(|&b| b == b'\n') {
        None if buf.len() > MAX_REQUEST_LINE_BYTES => {
            Some(format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"))
        }
        Some(line_end) if buf.len() - line_end > MAX_HEADER_BYTES => {
            Some(format!("headers exceed {MAX_HEADER_BYTES} bytes"))
        }
        _ => None,
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Reading,
    InFlight,
    Writing,
}

struct PConn {
    stream: TcpStream,
    fd: RawFd,
    gen: u32,
    state: State,
    /// Read accumulation; may hold pipelined bytes past the current head.
    buf: Vec<u8>,
    /// Position up to which `buf` has been scanned for the head end.
    scan_pos: usize,
    /// Queued response bytes and write progress.
    out: Vec<u8>,
    out_pos: usize,
    /// Body length of the queued response (for `body_bytes` on success).
    body_len: usize,
    /// When the current request started arriving (accept time for the
    /// first request, first-byte time after a keep-alive recycle).
    request_t0: Instant,
    /// Keep-alive decision for the response being written.
    keep_alive: bool,
    read_closed: bool,
    peer_dead: bool,
    /// Whether the fd is still registered with epoll.
    in_epoll: bool,
    interest: u32,
    timer: ConnTimer,
}

struct Poller {
    epoll: Epoll,
    wake_pipe: WakePipe,
    listener: Option<TcpListener>,
    conns: Vec<Option<PConn>>,
    free: Vec<usize>,
    /// Per-slot generation counters (outlive the conns so stale epoll
    /// events and timers can be told apart after slot reuse).
    gens: Vec<u32>,
    open_count: usize,
    /// Jobs submitted to the pool whose completions are undelivered.
    inflight: usize,
    /// Admission counter: jobs submitted but not yet started.
    pending: Arc<AtomicUsize>,
    handback: Arc<Handback<Completion>>,
    pool: Option<WorkerPool>,
    timers: TimerHeap,
    config: ServerConfig,
    handler: Handler,
    stats: Arc<ServerStats>,
    metrics: Arc<HttpMetrics>,
    stop: Arc<AtomicBool>,
    draining: bool,
}

impl Poller {
    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 256];
        let mut expired = Vec::new();
        loop {
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining
                && self.open_count == 0
                && self.inflight == 0
                && self.handback.is_empty()
            {
                break;
            }
            let now = Instant::now();
            let timeout = if self.draining {
                // bounded heartbeat while waiting for in-flight work
                Some(self.timers.next_timeout_ms(now).map_or(50, |t| t.min(50)))
            } else {
                self.timers.next_timeout_ms(now)
            };
            let n = self.epoll.wait(&mut events, timeout).unwrap_or(0);
            self.metrics.epoll_wakeups.inc();
            for ev in events.iter().take(n) {
                let (mask, data) = ev.parts();
                match data {
                    TOKEN_WAKE => self.wake_pipe.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, mask),
                }
            }
            self.deliver_completions();
            let now = Instant::now();
            self.timers.advance(now, &mut expired);
            for e in expired.drain(..) {
                self.timer_fired(e, now);
            }
        }
        // Join the workers before returning (queue is empty: inflight == 0).
        self.pool.take();
    }

    /// Closes the listener and every connection still reading (idle
    /// keep-alive or mid-head); in-flight and writing connections finish.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.listener = None; // closing the fd deregisters it
        let reading: Vec<usize> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(i, c)| match c {
                Some(conn) if conn.state == State::Reading => Some(i),
                _ => None,
            })
            .collect();
        for idx in reading {
            self.close_conn(idx);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => self.on_accept(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                // transient per-connection failures (ECONNABORTED …):
                // level-triggered epoll re-reports anything still pending
                Err(_) => return,
            }
        }
    }

    fn on_accept(&mut self, stream: TcpStream) {
        self.stats.accepted.inc();
        self.metrics.connections_open.inc();
        let accepted = Instant::now();
        if stream.set_nonblocking(true).is_err() {
            self.metrics.connections_open.dec();
            return;
        }
        // Overloaded at accept time: refuse inline without reading the
        // request.
        if self.pending.load(Ordering::SeqCst) >= self.config.queue_limit {
            if let Some(idx) = self.install(stream, accepted, 0) {
                self.refuse(idx);
            }
            return;
        }
        let _ = stream.set_nodelay(true);
        if let Some(idx) = self.install(stream, accepted, EPOLLIN | EPOLLRDHUP) {
            self.arm_timer(idx, TimerKind::Header, accepted + self.config.header_deadline);
        }
    }

    /// Places a connection in the slab and registers it with epoll.
    /// Returns `None` (closing the stream) if registration fails.
    fn install(&mut self, stream: TcpStream, accepted: Instant, interest: u32) -> Option<usize> {
        let fd = stream.as_raw_fd();
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        let gen = self.gens[idx];
        if self.epoll.add(fd, interest, token_of(idx, gen)).is_err() {
            self.free.push(idx);
            self.metrics.connections_open.dec();
            return None;
        }
        self.conns[idx] = Some(PConn {
            stream,
            fd,
            gen,
            state: State::Reading,
            buf: Vec::new(),
            scan_pos: 0,
            out: Vec::new(),
            out_pos: 0,
            body_len: 0,
            request_t0: accepted,
            keep_alive: false,
            read_closed: false,
            peer_dead: false,
            in_epoll: true,
            interest,
            timer: ConnTimer::default(),
        });
        self.open_count += 1;
        Some(idx)
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            if conn.in_epoll {
                let _ = self.epoll.delete(conn.fd);
            }
            let _ = conn.stream.shutdown(std::net::Shutdown::Both);
            self.free.push(idx);
            self.open_count -= 1;
            self.metrics.connections_open.dec();
        }
    }

    fn update_interest(&mut self, idx: usize, interest: u32) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        if !conn.in_epoll || conn.interest == interest {
            return;
        }
        if self.epoll.modify(conn.fd, interest, token_of(idx, conn.gen)).is_ok() {
            conn.interest = interest;
        }
    }

    /// Arms (or re-arms) the connection's single timer.
    fn arm_timer(&mut self, idx: usize, kind: TimerKind, deadline: Instant) {
        let Some(conn) = self.conns[idx].as_mut() else { return };
        conn.timer.arm(&mut self.timers, token_of(idx, conn.gen), kind, deadline);
    }

    fn timer_fired(&mut self, entry: (Instant, u64), now: Instant) {
        let (idx, gen) = split_token(entry.1);
        let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
        if conn.gen != gen {
            return; // slot reused since the entry was filed
        }
        let Some(kind) = conn.timer.expired(&mut self.timers, entry, now) else { return };
        match kind {
            TimerKind::Header => {
                if conn.state == State::Reading {
                    // slowloris: the head did not complete in time
                    let resp = Response::error(408, "request header read exceeded its deadline");
                    self.queue_response(idx, &resp, false);
                }
            }
            TimerKind::Idle => {
                if conn.state == State::Reading && conn.buf.is_empty() {
                    self.close_conn(idx); // silent: no request in progress
                }
            }
            TimerKind::Write => {
                if conn.state == State::Writing && conn.out_pos < conn.out.len() {
                    self.write_failed(idx);
                }
            }
        }
    }

    fn conn_ready(&mut self, token: u64, mask: u32) {
        let (idx, gen) = split_token(token);
        let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
        if conn.gen != gen {
            return; // slot reused since this event was queued
        }
        if mask & (EPOLLHUP | EPOLLERR) != 0 {
            conn.peer_dead = true;
            match conn.state {
                State::InFlight => {
                    // The response is still being computed: deregister so
                    // the level-triggered HUP stops waking us, keep the
                    // slab entry until the completion arrives (the write
                    // attempt will fail and count a write error).
                    if conn.in_epoll {
                        let _ = self.epoll.delete(conn.fd);
                        conn.in_epoll = false;
                    }
                }
                State::Writing => self.write_failed(idx),
                State::Reading => self.close_conn(idx), // rude disconnect
            }
            return;
        }
        let state = conn.state;
        if mask & EPOLLOUT != 0 && state == State::Writing {
            self.try_write(idx);
            self.serve_buffered(idx);
            return;
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 && state == State::Reading {
            self.try_read(idx);
        }
    }

    fn try_read(&mut self, idx: usize) {
        let mut chunk = [0u8; 4096];
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
            if conn.state != State::Reading {
                return; // a request went to the pool or its answer is blocked
            }
            self.metrics.socket_reads.inc();
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    let was_empty = conn.buf.is_empty();
                    conn.buf.extend_from_slice(&chunk[..n]);
                    let cap_err = head_cap_violation(&conn.buf);
                    if was_empty {
                        // A recycled connection's idle timer becomes a
                        // header deadline the moment the next request
                        // starts arriving.
                        let now = Instant::now();
                        conn.request_t0 = now;
                        self.arm_timer(idx, TimerKind::Header, now + self.config.header_deadline);
                    }
                    if let Some(cap_err) = cap_err {
                        let resp = Response::error(400, &format!("bad request: {cap_err}"));
                        self.queue_response(idx, &resp, false);
                        return;
                    }
                    self.serve_buffered(idx);
                    if n < chunk.len() {
                        // The socket is drained for now: level-triggered
                        // epoll reports whatever arrives next, EOF too.
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    // reset mid-request: nothing useful to answer
                    self.close_conn(idx);
                    return;
                }
            }
        }
        // EOF: a half-closed client (shutdown(WR)) may have a complete
        // or EOF-terminated head buffered; a clean close has nothing.
        // Either way the connection never stays in Reading (which would
        // busy-loop on level-triggered EOF).
        let empty = match self.conns.get(idx).and_then(|c| c.as_ref()) {
            Some(conn) => conn.buf.iter().all(|&b| b == b'\r' || b == b'\n'),
            None => return,
        };
        if empty || !self.try_process_head(idx, true) {
            self.close_conn(idx);
        }
    }

    /// Serves complete heads off the connection's buffer, one after
    /// another, for as long as each is answered inline and its response
    /// written out whole — a loop, so a burst of pipelined cache hits
    /// costs no stack. It stops when the buffer needs more bytes, a
    /// request went to the pool, or a write blocked.
    fn serve_buffered(&mut self, idx: usize) {
        loop {
            match self.conns.get(idx).and_then(|c| c.as_ref()) {
                Some(conn) if conn.state == State::Reading && !conn.buf.is_empty() => {}
                _ => return,
            }
            if !self.try_process_head(idx, false) {
                return;
            }
        }
    }

    /// Index just past the head terminator (`\n\n` or `\n\r\n`), if the
    /// buffered bytes contain a complete head.
    fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
        let start = from.saturating_sub(2);
        let mut i = start;
        while i < buf.len() {
            if buf[i] == b'\n' {
                if buf.get(i + 1) == Some(&b'\n') {
                    return Some(i + 2);
                }
                if buf.get(i + 1) == Some(&b'\r') && buf.get(i + 2) == Some(&b'\n') {
                    return Some(i + 3);
                }
            }
            i += 1;
        }
        None
    }

    /// Parses and dispatches the buffered head if complete (or, `at_eof`,
    /// whatever arrived before the half-close: EOF ends the head like a
    /// blank line would). Returns true when a head was taken off the
    /// buffer and dispatched.
    fn try_process_head(&mut self, idx: usize, at_eof: bool) -> bool {
        let (head, head_len) = {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else {
                return true;
            };
            let end = match Self::find_head_end(&conn.buf, conn.scan_pos) {
                Some(e) => e,
                None if at_eof => conn.buf.len(),
                None => {
                    conn.scan_pos = conn.buf.len();
                    return false;
                }
            };
            let head = String::from_utf8_lossy(&conn.buf[..end]).into_owned();
            conn.buf.drain(..end);
            conn.scan_pos = 0;
            (head, end)
        };
        self.metrics.header_bytes.add(head_len as u64);
        match parse_head(&head) {
            Ok(req) => self.dispatch_request(idx, req),
            Err(e) => {
                let resp = Response::error(400, &format!("bad request: {e}"));
                self.queue_response(idx, &resp, false);
            }
        }
        true
    }

    /// One parsed request: the handler's probe stage runs here, under
    /// the deadline check and `catch_unwind` a worker job runs under,
    /// and what it answers is queued for write at once; what it defers
    /// passes admission control and goes to the worker pool.
    fn dispatch_request(&mut self, idx: usize, req: Request) {
        let (want_keep_alive, request_t0, token) = {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
            // Keep-alive: HTTP/1.1 default unless the client said close.
            // Requests carrying a body would desync the framing (bodies
            // are never read), so they close too — as does a half-closed
            // peer, where the recycle could only ever see EOF.
            let close_requested =
                req.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"));
            let has_body = req.header("content-length").is_some_and(|v| v.trim() != "0")
                || req.header("transfer-encoding").is_some();
            let want = !close_requested && !has_body && !conn.read_closed;
            (want, conn.request_t0, token_of(idx, conn.gen))
        };
        if req.method != "GET" && req.method != "POST" {
            let resp = Response::error(405, &format!("method {} not allowed", req.method));
            self.queue_response(idx, &resp, false);
            return;
        }
        let waited = request_t0.elapsed();
        let deadline = effective_deadline(&req, &self.config);
        let probe = if deadline.is_some_and(|d| waited >= d) {
            self.stats.expired.inc();
            Probe::Ready(Response::deadline_expired())
        } else {
            let handler = Arc::clone(&self.handler);
            catch_unwind(AssertUnwindSafe(|| handler.probe(&req))).unwrap_or_else(|_| {
                self.stats.handler_panics.inc();
                Probe::Ready(Response::error(500, "handler panicked"))
            })
        };
        let compute = match probe {
            Probe::Ready(response) => {
                // Answered here: no interest change, no pool job, no
                // completion, no wake.
                self.metrics.queue_wait_ns.record(dur_ns(waited));
                let keep_alive = want_keep_alive && !self.draining;
                self.queue_response(idx, &response, keep_alive);
                return;
            }
            Probe::Deferred(compute) => compute,
        };
        if self.pending.load(Ordering::SeqCst) >= self.config.queue_limit {
            self.refuse(idx);
            return;
        }
        // Admit: cancel the header timer, quiesce epoll interest (flow
        // control: nothing is read while the request is in flight), and
        // hand the compute stage to the pool.
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
            conn.state = State::InFlight;
            conn.keep_alive = want_keep_alive;
            conn.timer.cancel();
        }
        self.update_interest(idx, 0);
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.inflight += 1;
        let stats = Arc::clone(&self.stats);
        let metrics = Arc::clone(&self.metrics);
        let handback = Arc::clone(&self.handback);
        let pending = Arc::clone(&self.pending);
        let pool = self.pool.as_ref().expect("pool alive while accepting");
        pool.submit(move || {
            pending.fetch_sub(1, Ordering::SeqCst);
            metrics.queue_wait_ns.record(dur_ns(request_t0.elapsed()));
            let response = match deadline {
                // the deadline is re-checked at execution start: queued-
                // then-expired work never runs the compute stage
                Some(d) if request_t0.elapsed() >= d => {
                    stats.expired.inc();
                    Response::deadline_expired()
                }
                _ => match catch_unwind(AssertUnwindSafe(|| compute(&req))) {
                    Ok(r) => r,
                    Err(_) => {
                        stats.handler_panics.inc();
                        Response::error(500, "handler panicked")
                    }
                },
            };
            handback.push(Completion { token, response });
        });
    }

    fn deliver_completions(&mut self) {
        for c in self.handback.drain() {
            self.inflight -= 1;
            let (idx, gen) = split_token(c.token);
            let keep_alive = match self.conns.get_mut(idx).and_then(|x| x.as_mut()) {
                Some(conn) if conn.gen == gen && conn.state == State::InFlight => {
                    conn.keep_alive && !conn.read_closed && !conn.peer_dead && !self.draining
                }
                // the connection can only have vanished through close
                // paths that never apply to InFlight conns; be safe
                _ => continue,
            };
            self.queue_response(idx, &c.response, keep_alive);
            self.serve_buffered(idx);
        }
    }

    /// Serializes `response` onto the connection and starts draining it.
    fn queue_response(&mut self, idx: usize, response: &Response, keep_alive: bool) {
        {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
            conn.out = response.to_bytes(keep_alive);
            conn.out_pos = 0;
            conn.body_len = response.body.len();
            conn.keep_alive = keep_alive;
            conn.state = State::Writing;
            conn.timer.cancel(); // any reading-phase timer
        }
        self.try_write(idx);
    }

    fn try_write(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
            if conn.out_pos >= conn.out.len() {
                self.finish_write(idx);
                return;
            }
            self.metrics.socket_writes.inc();
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.write_failed(idx);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    // one write deadline per response, from its first block
                    let arm = !matches!(conn.timer.armed, Some((_, TimerKind::Write)));
                    self.update_interest(idx, EPOLLOUT);
                    if arm {
                        let deadline = Instant::now() + self.config.write_timeout;
                        self.arm_timer(idx, TimerKind::Write, deadline);
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.write_failed(idx);
                    return;
                }
            }
        }
    }

    /// The one overload answer, to every request admission turns away:
    /// 503 + `Retry-After`, and the connection closes once it is written.
    fn refuse(&mut self, idx: usize) {
        self.stats.shed.inc();
        let refusal = Response::overloaded(self.config.retry_after_secs);
        self.queue_response(idx, &refusal, false);
    }

    /// A response could not be fully delivered (peer gone or write
    /// timeout): count it and close.
    fn write_failed(&mut self, idx: usize) {
        self.stats.write_errors.inc();
        self.close_conn(idx);
    }

    /// The response was fully written: account for it, then close or
    /// recycle the connection for its next keep-alive request. Bytes
    /// already buffered stay for the caller's `serve_buffered`.
    fn finish_write(&mut self, idx: usize) {
        let recycle = {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
            self.metrics.body_bytes.add(conn.body_len as u64);
            conn.keep_alive && !conn.read_closed && !conn.peer_dead && !self.draining
        };
        if !recycle {
            self.close_conn(idx);
            return;
        }
        self.metrics.keepalive_reuse.inc();
        let now = Instant::now();
        let pipelined = {
            let Some(conn) = self.conns.get_mut(idx).and_then(|c| c.as_mut()) else { return };
            conn.state = State::Reading;
            conn.out = Vec::new();
            conn.out_pos = 0;
            conn.body_len = 0;
            conn.request_t0 = now;
            conn.scan_pos = 0;
            !conn.buf.is_empty()
        };
        self.update_interest(idx, EPOLLIN | EPOLLRDHUP);
        if pipelined {
            // the next request (or part of it) was already buffered
            self.arm_timer(idx, TimerKind::Header, now + self.config.header_deadline);
        } else {
            self.arm_timer(idx, TimerKind::Idle, now + self.config.idle_timeout);
        }
    }
}

/// The deadline heap and the head caps, socket-free; end-to-end poller
/// behavior is exercised by the HTTP test suites.
#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn head_caps_sit_exactly_at_64_kib() {
        // request line: the cap counts bytes buffered with no newline yet
        assert_eq!(head_cap_violation(&[b'G'; MAX_REQUEST_LINE_BYTES]), None);
        let msg = head_cap_violation(&[b'G'; MAX_REQUEST_LINE_BYTES + 1]);
        assert_eq!(msg.as_deref(), Some("request line exceeds 65536 bytes"));
        // a terminated line of any length is the header cap's business
        let mut line = vec![b'G'; MAX_REQUEST_LINE_BYTES + 1];
        line.push(b'\n');
        assert_eq!(head_cap_violation(&line), None);

        // headers: the cap counts from the request line's newline on
        let mut head = b"GET / HTTP/1.1\r\n".to_vec();
        head.resize(head.len() - 1 + MAX_HEADER_BYTES, b'h');
        assert_eq!(head_cap_violation(&head), None);
        head.push(b'h');
        assert_eq!(head_cap_violation(&head).as_deref(), Some("headers exceed 65536 bytes"));
    }

    #[test]
    fn deadlines_come_out_in_order_and_the_timeout_rounds_up() {
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        let mut timers = TimerHeap::default();
        assert_eq!(timers.next_timeout_ms(t0), None);
        // a deadline under 1 ms away is a 1 ms wait, not a 0 ms spin
        timers.insert(t0 + Duration::from_micros(300), 1);
        assert_eq!(timers.next_timeout_ms(t0), Some(1));
        assert_eq!(timers.next_timeout_ms(t0 + Duration::from_micros(299)), Some(1));
        // 0 only once it is due
        assert_eq!(timers.next_timeout_ms(t0 + Duration::from_micros(300)), Some(0));
        assert_eq!(timers.next_timeout_ms(t0 + ms(5)), Some(0));

        // filed out of order, they come out earliest first, and an entry
        // due exactly at `now` is due
        for (deadline, token) in [(ms(40), 4), (ms(7), 3), (Duration::from_secs(60), 6), (ms(2), 2)] {
            timers.insert(t0 + deadline, token);
        }
        assert_eq!(timers.next_timeout_ms(t0 + ms(1)), Some(0));
        let mut expired = Vec::new();
        timers.advance(t0 + ms(7), &mut expired);
        let tokens: Vec<u64> = expired.iter().map(|&(_, token)| token).collect();
        assert_eq!(tokens, [1, 2, 3]);
        assert_eq!(timers.next_timeout_ms(t0 + ms(7)), Some(33));

        expired.clear();
        timers.advance(t0 + Duration::from_secs(61), &mut expired);
        let tokens: Vec<u64> = expired.iter().map(|&(_, token)| token).collect();
        assert_eq!(tokens, [4, 6]);
        assert_eq!(timers.next_timeout_ms(t0 + Duration::from_secs(61)), None);
    }

    /// Expires the heap's entries due by `now` and returns what fires for
    /// the one connection `timer` belongs to.
    fn fire(timers: &mut TimerHeap, timer: &mut ConnTimer, now: Instant) -> Vec<TimerKind> {
        let mut expired = Vec::new();
        timers.advance(now, &mut expired);
        expired.into_iter().filter_map(|e| timer.expired(timers, e, now)).collect()
    }

    #[test]
    fn a_connection_files_an_entry_or_two_however_often_it_rearms() {
        let t0 = Instant::now();
        let mut timers = TimerHeap::default();
        let mut timer = ConnTimer::default();
        let (header, idle) = (Duration::from_secs(5), Duration::from_secs(10));
        // a keep-alive connection serving 10 000 requests, 1 ms apart:
        // header deadline at the first byte, cancelled at dispatch, idle
        // deadline after the answer
        let mut now = t0;
        for _ in 0..10_000 {
            timer.arm(&mut timers, 7, TimerKind::Header, now + header);
            timer.cancel();
            timer.arm(&mut timers, 7, TimerKind::Idle, now + idle);
            now += Duration::from_millis(1);
            assert!(fire(&mut timers, &mut timer, now).is_empty(), "a live connection never fires");
            assert!(timers.0.len() <= 2, "{} entries filed for one connection", timers.0.len());
        }
        // left alone, it fires its last idle deadline, once, when due
        let last_idle = now - Duration::from_millis(1) + idle;
        assert!(fire(&mut timers, &mut timer, last_idle - Duration::from_micros(1)).is_empty());
        assert_eq!(fire(&mut timers, &mut timer, last_idle), [TimerKind::Idle]);
        assert!(fire(&mut timers, &mut timer, last_idle + idle).is_empty());
        assert!(timers.0.is_empty());
    }

    #[test]
    fn an_earlier_deadline_armed_under_a_later_entry_fires_on_time() {
        let t0 = Instant::now();
        let mut timers = TimerHeap::default();
        let mut timer = ConnTimer::default();
        // an idle connection: the filed entry is the 10 s idle deadline
        timer.arm(&mut timers, 7, TimerKind::Idle, t0 + Duration::from_secs(10));
        // a request starts arriving at 1 s and then stalls: its header
        // deadline (6 s) must not wait for the idle entry
        let t1 = t0 + Duration::from_secs(1);
        timer.arm(&mut timers, 7, TimerKind::Header, t1 + Duration::from_secs(5));
        assert_eq!(timers.0.len(), 2);
        assert!(fire(&mut timers, &mut timer, t0 + Duration::from_millis(5_999)).is_empty());
        assert_eq!(
            fire(&mut timers, &mut timer, t0 + Duration::from_secs(6)),
            [TimerKind::Header]
        );
        // the superseded idle entry expires without effect
        assert!(fire(&mut timers, &mut timer, t0 + Duration::from_secs(11)).is_empty());
        assert!(timers.0.is_empty());
    }
}
