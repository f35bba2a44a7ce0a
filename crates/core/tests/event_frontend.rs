//! Poller-specific tests of the front end: partial-write resumption
//! under `EPOLLOUT`, HTTP/1.1 keep-alive request sequencing (including
//! pipelined bytes), and the poller's telemetry cells
//! (`http_connections_open`, `http_keepalive_reuse_total`,
//! `epoll_wakeups_total`). The overload and robustness contract lives in
//! `http_robustness.rs` and `overload_chaos.rs`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pilgrim_core::http::{
    http_get, Handler, HttpClient, Request, Response, Server, ServerConfig,
};

fn event_server(config: ServerConfig) -> Server {
    let handler: Handler = Arc::new(|req: &Request| {
        if let Some(n) = req.path.strip_prefix("/bytes/").and_then(|s| s.parse::<usize>().ok()) {
            Response::json(&jsonlite::Value::from("x".repeat(n)))
        } else {
            Response::json(&jsonlite::Value::from(req.path.as_str()))
        }
    });
    Server::start_with("127.0.0.1:0", config, handler).expect("bind")
}

/// Polls `cond` for up to two seconds — poller-side effects (closes,
/// gauge decrements) land asynchronously after the client-side syscall.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(2) {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    cond()
}

#[test]
fn partial_writes_resume_until_the_full_body_is_delivered() {
    // An 8 MB body cannot fit any socket buffer: the poller must park
    // the connection on EPOLLOUT and resume the write each time the
    // slow-reading client frees space — without wedging a worker and
    // without corrupting or truncating the stream.
    let server = event_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    const N: usize = 8_000_000;

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
        .write_all(format!("GET /bytes/{N} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes())
        .unwrap();

    // Read deliberately slowly in small chunks for the first stretch so
    // the server's send buffer fills and drains repeatedly.
    let mut body = Vec::new();
    let mut chunk = [0u8; 4096];
    for _ in 0..64 {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "premature EOF during slow-read phase");
        body.extend_from_slice(&chunk[..n]);
        std::thread::sleep(Duration::from_millis(5));
    }
    // then drain the rest at full speed
    stream.read_to_end(&mut body).unwrap();
    let text = String::from_utf8(body).expect("response must be valid UTF-8");

    assert!(text.starts_with("HTTP/1.1 200"), "{:?}", &text[..text.len().min(64)]);
    let payload = text.split("\r\n\r\n").nth(1).expect("header/body split");
    assert_eq!(payload.len(), N + 2, "quoted 8 MB JSON string, nothing truncated");
    assert!(payload[1..payload.len() - 1].bytes().all(|b| b == b'x'), "body corrupted");
    assert_eq!(server.stats().write_errors.get(), 0, "a slow reader is not a write error");

    // meanwhile other requests were never blocked behind the big write
    let (status, _) = http_get(server.addr(), "/ok").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn keepalive_serves_sequential_requests_on_one_connection() {
    let server = event_server(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let registry = Arc::clone(server.registry());
    let reuse = registry.counter("http_keepalive_reuse_total", "", &[]);
    let open = registry.gauge("http_connections_open", "", &[]);

    let mut client = HttpClient::new(server.addr());
    for i in 0..10 {
        let (status, body) = client.get(&format!("/seq/{i}")).expect("keep-alive request");
        assert_eq!(status, 200);
        assert!(body.contains(&format!("/seq/{i}")), "answers must arrive in request order");
    }
    assert_eq!(
        server.stats().accepted.get(),
        1,
        "10 keep-alive requests ride one accepted connection"
    );
    assert!(
        reuse.get() >= 9,
        "each recycled request counts a keep-alive reuse, got {}",
        reuse.get()
    );
    assert_eq!(open.get(), 1, "the client connection is the only one open");

    drop(client);
    assert!(
        eventually(|| open.get() == 0),
        "closing the client must bring http_connections_open back to 0, got {}",
        open.get()
    );
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    // Two requests in one TCP segment: the poller must answer the first,
    // recycle the connection, and immediately process the buffered
    // second request — no extra read needed, no reordering.
    let server = event_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream
        .write_all(
            b"GET /first HTTP/1.1\r\nHost: x\r\n\r\n\
              GET /second HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
        )
        .unwrap();

    let mut reader = BufReader::new(stream);
    let mut bodies = Vec::new();
    for _ in 0..2 {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("HTTP/1.1 200"), "{line:?}");
        let mut content_length = 0usize;
        loop {
            let mut h = String::new();
            reader.read_line(&mut h).unwrap();
            if h.trim_end().is_empty() {
                break;
            }
            if let Some(v) = h.to_ascii_lowercase().strip_prefix("content-length:") {
                content_length = v.trim().parse().unwrap();
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        bodies.push(String::from_utf8(body).unwrap());
    }
    assert!(bodies[0].contains("/first"), "{:?}", bodies[0]);
    assert!(bodies[1].contains("/second"), "{:?}", bodies[1]);
    // Connection: close on the second request ends the stream.
    let mut rest = String::new();
    reader.read_to_string(&mut rest).unwrap();
    assert!(rest.is_empty(), "nothing after the closed exchange: {rest:?}");
    assert_eq!(server.stats().accepted.get(), 1);
}

#[test]
fn idle_keepalive_connections_are_closed_by_the_idle_timer() {
    // A recycled connection that goes silent must be reaped by the idle
    // timer (idle_timeout), not held open forever.
    let server = event_server(ServerConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let registry = Arc::clone(server.registry());
    let open = registry.gauge("http_connections_open", "", &[]);

    let mut client = HttpClient::new(server.addr());
    let (status, _) = client.get("/prime").unwrap();
    assert_eq!(status, 200);
    assert_eq!(open.get(), 1);

    // go silent past the idle timeout: the server closes its side
    assert!(
        eventually(|| open.get() == 0),
        "idle keep-alive connection must be reaped, gauge still {}",
        open.get()
    );
    // the client transparently reconnects for the next request
    let (status, _) = client.get("/after-idle").unwrap();
    assert_eq!(status, 200);
    assert_eq!(server.stats().accepted.get(), 2, "reaped + reconnected = two accepts");
}

#[test]
fn event_telemetry_cells_are_live() {
    let server = event_server(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let registry = Arc::clone(server.registry());

    let mut client = HttpClient::new(server.addr());
    for _ in 0..3 {
        let (status, _) = client.get("/tick").unwrap();
        assert_eq!(status, 200);
    }
    assert!(
        registry.counter("epoll_wakeups_total", "", &[]).get() >= 1,
        "serving requests must register poller wakeups"
    );
    assert!(registry.counter("http_keepalive_reuse_total", "", &[]).get() >= 2);
    assert_eq!(registry.gauge("http_connections_open", "", &[]).get(), 1);
}
