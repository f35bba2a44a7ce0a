//! Adversarial-input tests of the HTTP layer: a service exposed to a whole
//! grid of clients must shrug off malformed requests without dying.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pilgrim_core::http::{
    http_get, http_get_with_headers, Handler, Request, Response, Server, ServerConfig,
};

fn echo_server() -> Server {
    let handler: Handler = Arc::new(|req: &Request| {
        Response::json(&jsonlite::Value::from(req.path.as_str()))
    });
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    Server::start_with("127.0.0.1:0", config, handler).expect("bind")
}

/// Sends raw bytes, returns whatever comes back (possibly nothing).
fn raw_exchange(server: &Server, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let _ = stream.write_all(payload);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

#[test]
fn garbage_bytes_get_an_error_not_a_crash() {
    let server = echo_server();
    for payload in [
        &b"\x00\x01\x02\x03\x04"[..],
        b"GARBAGE NOISE\r\n\r\n",
        b"GET\r\n\r\n",
        b"GET /x HTTP/9.9\r\n\r\n",
        b"",
    ] {
        let resp = raw_exchange(&server, payload);
        assert!(
            resp.is_empty() || resp.starts_with("HTTP/1.1 400"),
            "unexpected response to garbage: {resp:?}"
        );
    }
    // and the server still works afterwards
    let (status, _) = http_get(server.addr(), "/still/alive").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn very_long_urls_are_handled() {
    let server = echo_server();
    let long = format!("/{}", "x".repeat(60_000));
    let (status, body) = http_get(server.addr(), &long).unwrap();
    assert_eq!(status, 200);
    assert!(body.contains(&"x".repeat(100)));
}

#[test]
fn oversized_request_line_gets_400_not_unbounded_memory() {
    // Beyond the 64 KiB request-line cap the server must answer 400 and
    // hang up instead of buffering forever (a hostile client could
    // otherwise stream an endless URI and grow memory without bound).
    let server = echo_server();
    let huge = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(80_000));
    let resp = raw_exchange(&server, huge.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 400"), "{:?}", &resp[..resp.len().min(80)]);
    // the pool keeps serving normal requests afterwards
    let (status, _) = http_get(server.addr(), "/ok").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn header_flood_gets_400() {
    // Many legitimate-looking header lines whose total exceeds the
    // 64 KiB header budget must be rejected, not accumulated.
    let server = echo_server();
    let mut payload = String::from("GET /ok HTTP/1.1\r\n");
    for i in 0..2_000 {
        payload.push_str(&format!("X-Flood-{i}: {}\r\n", "y".repeat(64)));
    }
    payload.push_str("\r\n");
    let resp = raw_exchange(&server, payload.as_bytes());
    assert!(resp.starts_with("HTTP/1.1 400"), "{:?}", &resp[..resp.len().min(80)]);
    let (status, _) = http_get(server.addr(), "/ok").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn never_ending_request_line_is_cut_off() {
    // A request line with no newline at all must be bounded by the cap,
    // not by the 10 s read timeout times the attacker's patience.
    let server = echo_server();
    let resp = raw_exchange(&server, &b"G".repeat(100_000));
    assert!(
        resp.is_empty() || resp.starts_with("HTTP/1.1 400"),
        "{:?}",
        &resp[..resp.len().min(80)]
    );
}

#[test]
fn weird_percent_escapes_do_not_crash() {
    let server = echo_server();
    for q in ["/p?%", "/p?a=%2", "/p?a=%zz%", "/p?a=%00%ff", "/p?%f0%9f%98%80=1"] {
        let (status, _) = http_get(server.addr(), q).unwrap();
        assert_eq!(status, 200, "query {q}");
    }
}

#[test]
fn slow_client_cannot_wedge_the_pool() {
    let server = echo_server();
    // open a connection and send nothing: the poller's readiness model
    // must keep the workers free; meanwhile requests keep being served
    let _idle = TcpStream::connect(server.addr()).unwrap();
    for _ in 0..4 {
        let (status, _) = http_get(server.addr(), "/ok").unwrap();
        assert_eq!(status, 200);
    }
}

#[test]
fn handler_panics_do_not_kill_the_server() {
    let handler: Handler = Arc::new(|req: &Request| {
        if req.path == "/boom" {
            panic!("handler exploded");
        }
        Response::json(&jsonlite::Value::Null)
    });
    let config = ServerConfig { workers: 3, ..ServerConfig::default() };
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    // a panicking request kills one worker thread at worst…
    let _ = http_get(server.addr(), "/boom");
    // …but the pool keeps answering
    let (status, _) = http_get(server.addr(), "/fine").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn slowloris_header_drip_gets_408_within_the_header_deadline() {
    // A client feeding the request line one byte at a time must be cut
    // off by the *total* header deadline, not granted a fresh 10 s read
    // timeout per byte.
    let handler: Handler =
        Arc::new(|_req: &Request| Response::json(&jsonlite::Value::Null));
    let config = ServerConfig {
        workers: 2,
        header_deadline: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let t0 = Instant::now();
    stream.write_all(b"GET /drip HTT").unwrap();
    for _ in 0..40 {
        std::thread::sleep(Duration::from_millis(50));
        if stream.write_all(b"P").is_err() {
            break; // server already hung up on us — expected
        }
    }
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    assert!(
        out.starts_with("HTTP/1.1 408"),
        "slow drip should get 408, got: {:?}",
        &out[..out.len().min(80)]
    );
    assert!(
        t0.elapsed() < Duration::from_secs(3),
        "408 must arrive near the 300 ms deadline, took {:?}",
        t0.elapsed()
    );
    // the pool keeps serving normal requests afterwards
    let (status, _) = http_get(server.addr(), "/ok").unwrap();
    assert_eq!(status, 200);
}

#[test]
fn unread_response_hits_the_write_timeout_not_a_wedged_worker() {
    // A client that sends a request and then never reads the (large)
    // response must trip the write timeout; the worker survives and the
    // failure is counted, not panicked on.
    let handler: Handler = Arc::new(|req: &Request| {
        if req.path == "/big" {
            Response::json(&jsonlite::Value::from("x".repeat(8_000_000)))
        } else {
            Response::json(&jsonlite::Value::Null)
        }
    });
    let config = ServerConfig {
        workers: 2,
        write_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream
        .write_all(b"GET /big HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
        .unwrap();
    // never read; give the server time to block on the full socket
    // buffer and bail out via the write timeout
    std::thread::sleep(Duration::from_millis(800));
    drop(stream);

    let (status, _) = http_get(server.addr(), "/after").unwrap();
    assert_eq!(status, 200, "worker must survive the failed write");
    assert!(
        server.stats().write_errors.get() >= 1,
        "the failed response write must be counted"
    );
}

#[test]
fn stop_drains_in_flight_requests_before_returning() {
    let handler: Handler = Arc::new(|req: &Request| {
        if req.path == "/slow" {
            std::thread::sleep(Duration::from_millis(300));
        }
        Response::json(&jsonlite::Value::from("done"))
    });
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let mut server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();

    let client = std::thread::spawn(move || http_get(addr, "/slow").unwrap());
    // let the request reach the worker, then stop mid-flight
    std::thread::sleep(Duration::from_millis(100));
    server.stop();

    let (status, body) = client.join().expect("client thread");
    assert_eq!(status, 200, "in-flight request must finish during drain: {body}");
    assert!(body.contains("done"));
    assert!(
        http_get(addr, "/late").is_err(),
        "connections after stop() must be refused"
    );
}

#[test]
fn queued_past_the_default_deadline_gets_504() {
    let handler: Handler = Arc::new(|req: &Request| {
        if req.path == "/slow" {
            std::thread::sleep(Duration::from_millis(500));
        }
        Response::json(&jsonlite::Value::from("ok"))
    });
    let config = ServerConfig {
        workers: 1,
        default_deadline: Some(Duration::from_millis(150)),
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();

    // occupy the only worker for 500 ms…
    let slow = std::thread::spawn(move || http_get(addr, "/slow").unwrap());
    std::thread::sleep(Duration::from_millis(100));
    // …so this one queues past its 150 ms deadline and must be dropped
    // before its handler ever runs
    let (status, body) = http_get(addr, "/fast").unwrap();
    assert_eq!(status, 504, "queued-then-expired request must 504: {body}");

    let (slow_status, _) = slow.join().expect("slow client");
    assert_eq!(slow_status, 200, "the admitted-in-time request still completes");
    assert!(server.stats().expired.get() >= 1);
}

#[test]
fn client_requested_deadline_is_honored_without_a_server_default() {
    let handler: Handler = Arc::new(|req: &Request| {
        if req.path == "/slow" {
            std::thread::sleep(Duration::from_millis(400));
        }
        Response::json(&jsonlite::Value::from("ok"))
    });
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();

    let slow = std::thread::spawn(move || http_get(addr, "/slow").unwrap());
    std::thread::sleep(Duration::from_millis(100));
    let (status, _, _) =
        http_get_with_headers(addr, "/fast", &[("X-Pilgrim-Deadline-Ms", "100")]).unwrap();
    assert_eq!(status, 504, "client-declared deadline must be enforced");
    // the same queued wait without a deadline header succeeds
    let (status, _) = http_get(addr, "/fast").unwrap();
    assert_eq!(status, 200);
    let (slow_status, _) = slow.join().expect("slow client");
    assert_eq!(slow_status, 200);
}

#[test]
fn tiny_admission_queue_sheds_surplus_with_retry_after() {
    let handler: Handler = Arc::new(|_req: &Request| {
        std::thread::sleep(Duration::from_millis(300));
        Response::json(&jsonlite::Value::from("served"))
    });
    let config = ServerConfig {
        workers: 1,
        queue_limit: 1,
        retry_after_secs: 7,
        ..ServerConfig::default()
    };
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();

    let clients: Vec<_> = (0..8)
        .map(|_| std::thread::spawn(move || http_get_with_headers(addr, "/q", &[]).unwrap()))
        .collect();
    let (mut served, mut shed) = (0u64, 0u64);
    for c in clients {
        let (status, headers, body) = c.join().expect("client thread");
        match status {
            200 => served += 1,
            503 => {
                shed += 1;
                assert_eq!(
                    headers.iter().find(|(k, _)| k == "retry-after").map(|(_, v)| v.as_str()),
                    Some("7"),
                    "503 must carry the configured Retry-After"
                );
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(served >= 1, "at least the first arrival must be served");
    assert!(shed >= 1, "8 clients vs 1 worker + queue of 1 must shed");
    assert_eq!(server.stats().shed.get(), shed);

    // the server is healthy once the burst passes
    let (status, _) = http_get(addr, "/calm").unwrap();
    assert_eq!(status, 200);
}
