//! The two-stage request path: a cached forecast is answered by the
//! poller thread itself, everything else goes to the worker pool.
//!
//! What is pinned here: pipelined inline answers (in order, byte-equal
//! to one-at-a-time answers, no connection leaked), the hand-off's cost
//! in counted syscalls and pool jobs, every guarantee the worker path
//! gave that the inline path must still give (panic → 500, deadlines,
//! admission, invalidation, stage accounting, hit/miss accounting), that
//! the probe stage never computes a route, and that it keys every
//! forecast query itself, so a query's second ask is answered inline.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use forecast::{lend, FaultInjector, FaultPlan, Probed};
use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::http::{
    http_get_with_headers, http_post, Handle, Handler, HttpClient, Probe, Request, Response,
    Server, ServerConfig,
};
use pilgrim_core::{Metrology, PilgrimService, Pnfs, TransferRequest};
use simflow::NetworkConfig;

fn service() -> Arc<PilgrimService> {
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    Arc::new(PilgrimService::new(Metrology::new(), pnfs))
}

/// A server over `svc` sharing its registry, as `/pilgrim/metrics` needs.
fn serve(svc: &Arc<PilgrimService>, config: ServerConfig) -> Server {
    Server::start_with_registry(
        "127.0.0.1:0",
        config,
        PilgrimService::handler_from(Arc::clone(svc)),
        None,
        Arc::clone(svc.registry()),
    )
    .expect("bind")
}

/// The `i`-th of a family of distinct two-transfer predict queries.
fn predict_query(i: usize) -> String {
    format!(
        "/pilgrim/predict_transfers/g5k_test\
         ?transfer=sagittaire-{}.lyon.grid5000.fr,sagittaire-{}.lyon.grid5000.fr,{}\
         &transfer=graphene-{}.nancy.grid5000.fr,graphene-{}.nancy.grid5000.fr,2e8",
        i + 1,
        i + 20,
        1e8 * (i + 1) as f64,
        i + 1,
        i + 30,
    )
}

/// Polls `cond` for up to five seconds: poller- and worker-side effects
/// land asynchronously after the client has its answer.
fn eventually(cond: impl Fn() -> bool) -> bool {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_secs(5) {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    cond()
}

/// Writes `targets` as one burst of pipelined keep-alive GETs and reads
/// the same number of `Content-Length`-framed answers back, concurrently
/// (a client that only starts reading once everything is written can
/// deadlock against full socket buffers). Returns `(status, body)` in
/// arrival order.
fn pipeline(addr: std::net::SocketAddr, targets: &[&str]) -> Vec<(u16, String)> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let n = targets.len();
    let answers = std::thread::spawn(move || {
        let mut answers = Vec::with_capacity(n);
        for _ in 0..n {
            let mut line = String::new();
            reader.read_line(&mut line).expect("status line");
            let status: u16 =
                line.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status");
            let mut len = 0usize;
            loop {
                line.clear();
                reader.read_line(&mut line).expect("header line");
                let header = line.trim_end();
                if header.is_empty() {
                    break;
                }
                if let Some(v) = header.strip_prefix("Content-Length: ") {
                    len = v.parse().expect("content length");
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).expect("body");
            answers.push((status, String::from_utf8(body).expect("utf-8 body")));
        }
        answers
    });
    let burst: String =
        targets.iter().map(|t| format!("GET {t} HTTP/1.1\r\nHost: x\r\n\r\n")).collect();
    stream.write_all(burst.as_bytes()).expect("one write of the whole burst");
    answers.join().expect("reader thread")
}

#[test]
fn a_thousand_pipelined_hits_are_answered_in_order_byte_for_byte() {
    let svc = service();
    let server = serve(&svc, ServerConfig { workers: 2, ..ServerConfig::default() });
    let open = svc.registry().gauge("http_connections_open", "", &[]);

    // the one-at-a-time answers, which also warm the cache
    let queries: Vec<String> = (0..16).map(predict_query).collect();
    let mut client = HttpClient::new(server.addr());
    let alone: Vec<String> = queries
        .iter()
        .map(|q| {
            let (status, body) = client.get(q).expect("warm-up");
            assert_eq!(status, 200, "{body}");
            body
        })
        .collect();
    drop(client);

    let simulations = svc.pnfs.engine().simulations();
    let targets: Vec<&str> = (0..1000).map(|k| queries[(k * 7) % 16].as_str()).collect();
    let answers = pipeline(server.addr(), &targets);
    assert_eq!(answers.len(), 1000);
    for (k, (status, body)) in answers.iter().enumerate() {
        assert_eq!(*status, 200, "pipelined answer {k}: {body}");
        assert_eq!(body, &alone[(k * 7) % 16], "pipelined answer {k} is out of order or differs");
    }
    assert_eq!(svc.pnfs.engine().simulations(), simulations, "every pipelined request was a hit");
    assert!(
        eventually(|| open.get() == 0),
        "every connection closed: http_connections_open = {}",
        open.get()
    );
}

#[test]
fn a_hit_miss_hit_pipeline_keeps_its_order() {
    let svc = service();
    let server = serve(&svc, ServerConfig { workers: 2, ..ServerConfig::default() });
    let open = svc.registry().gauge("http_connections_open", "", &[]);
    let (hot, cold) = (predict_query(0), predict_query(1));
    let (_, _, hot_body) = http_get_with_headers(server.addr(), &hot, &[]).expect("warm-up");

    let answers = pipeline(server.addr(), &[&hot, &cold, &hot]);
    let (_, _, cold_body) = http_get_with_headers(server.addr(), &cold, &[]).expect("cold again");
    assert_ne!(hot_body, cold_body);
    let bodies: Vec<&str> = answers.iter().map(|(_, b)| b.as_str()).collect();
    assert_eq!(bodies, [hot_body.as_str(), cold_body.as_str(), hot_body.as_str()]);
    assert!(answers.iter().all(|(status, _)| *status == 200));
    assert_eq!(svc.pnfs.engine().simulations(), 2, "the hot query once, the cold one once");
    assert!(eventually(|| open.get() == 0), "http_connections_open = {}", open.get());
}

/// The hand-off, counted: on one warm keep-alive connection a hit is one
/// `read` and one `write` and nothing else — no `epoll_ctl`, no pool
/// job, no wake-pipe write — while a miss is one job and one wake.
#[test]
fn a_hit_costs_one_read_and_one_write_a_miss_one_job_and_one_wake() {
    let svc = service();
    let server = serve(&svc, ServerConfig { workers: 1, ..ServerConfig::default() });
    let registry = svc.registry();
    let counter = |name: &str| registry.counter(name, "", &[]);
    let (reads, writes) = (counter("http_socket_reads_total"), counter("http_socket_writes_total"));
    let (ctls, wakes) = (counter("epoll_ctl_total"), counter("wake_pipe_writes_total"));
    let jobs = registry.histogram("pool_job_service_ns", "", &[]);
    let snapshot = || (reads.get(), writes.get(), ctls.get(), wakes.get(), jobs.count());

    let mut client = HttpClient::new(server.addr());
    let hot = predict_query(0);
    assert_eq!(client.get(&hot).expect("simulated").0, 200);
    // the first repeat is already the probe's to answer
    assert_eq!(client.get(&hot).expect("cached, inline").0, 200);
    assert_eq!(client.get(&hot).expect("cached, inline").0, 200);
    // a job is timed when it returns, which is after its answer is out
    assert!(eventually(|| jobs.count() == 1), "the simulated request's job: {}", jobs.count());

    let before = snapshot();
    for _ in 0..5 {
        assert_eq!(client.get(&hot).expect("hit").0, 200);
    }
    let after = snapshot();
    assert_eq!(after.0 - before.0, 5, "one read per hit");
    assert_eq!(after.1 - before.1, 5, "one write per hit");
    assert_eq!(after.2 - before.2, 0, "a hit changes no epoll interest");
    assert_eq!(after.3 - before.3, 0, "a hit wakes nobody");
    assert_eq!(after.4 - before.4, 0, "a hit makes no pool job");

    assert_eq!(client.get(&predict_query(1)).expect("miss").0, 200);
    // the job is timed, and the connection's read interest restored,
    // just after the answer went out
    assert!(eventually(|| jobs.count() == 2), "the miss's job: {}", jobs.count());
    assert!(eventually(|| ctls.get() >= after.2 + 2), "interest restored: {}", ctls.get());
    let miss = snapshot();
    assert_eq!(miss.0 - after.0, 1, "one read per miss");
    assert_eq!(miss.1 - after.1, 1, "one write per miss");
    assert_eq!(miss.2 - after.2, 2, "interest dropped while in flight, restored after");
    assert_eq!(miss.3 - after.3, 1, "the worker's completion wakes the poller once");
    assert_eq!(server.stats().accepted.get(), 1, "all of it on one connection");
}

/// A workflow takes the predict's path: its first ask is one pool job,
/// and every repeat is the probe's to answer, with no pool job.
#[test]
fn a_repeated_workflow_makes_no_pool_job() {
    let svc = service();
    let server = serve(&svc, ServerConfig { workers: 1, ..ServerConfig::default() });
    let jobs = svc.registry().histogram("pool_job_service_ns", "", &[]);
    let mut client = HttpClient::new(server.addr());
    let workflow = "/pilgrim/forecast_workflow/g5k_test?task=ship,transfer,\
                    sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,1e9\
                    &task=solve,compute,graphene-1.nancy.grid5000.fr,1e10&dep=1,0";
    let (status, first) = client.get(workflow).expect("simulated");
    assert_eq!(status, 200, "{first}");
    assert!(eventually(|| jobs.count() == 1), "the simulated request's job: {}", jobs.count());
    for _ in 0..5 {
        assert_eq!(client.get(workflow).expect("cached, inline"), (200, first.clone()));
    }
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(jobs.count(), 1, "a repeated workflow makes no pool job");
    assert_eq!((svc.pnfs.engine().simulations(), svc.pnfs.engine().cache_hits()), (1, 5));
}

/// A handler whose probe stage answers `/inline`, panics on `/boom` and
/// defers the rest.
struct Probing;

impl Handle for Probing {
    fn probe(self: Arc<Self>, req: &Request) -> Probe {
        match req.path.as_str() {
            "/boom" => panic!("probe exploded"),
            "/inline" => Probe::Ready(Response::json(&jsonlite::Value::from("inline"))),
            _ => Probe::Deferred(Box::new(|_req| Response::json(&jsonlite::Value::from("worker")))),
        }
    }
}

#[test]
fn a_probe_panic_is_a_500_and_the_poller_keeps_serving() {
    let handler: Handler = Arc::new(Probing);
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");

    let mut same = HttpClient::new(server.addr());
    assert_eq!(same.get("/inline").expect("inline"), (200, "\"inline\"".to_string()));
    assert_eq!(same.get("/boom").expect("boom").0, 500);
    assert_eq!(server.stats().handler_panics.get(), 1);
    // the same connection, the poller thread that caught the panic
    assert_eq!(same.get("/inline").expect("inline after"), (200, "\"inline\"".to_string()));
    assert_eq!(same.get("/other").expect("deferred after"), (200, "\"worker\"".to_string()));
    assert_eq!(server.stats().accepted.get(), 1, "the 500 did not cost the connection");
    // and another connection
    let mut other = HttpClient::new(server.addr());
    assert_eq!(other.get("/inline").expect("other connection").0, 200);
    assert_eq!(server.stats().handler_panics.get(), 1);
}

#[test]
fn an_expired_deadline_on_a_cached_query_is_still_a_504() {
    let svc = service();
    let server = serve(&svc, ServerConfig { workers: 1, ..ServerConfig::default() });
    let q = predict_query(0);
    assert_eq!(http_get_with_headers(server.addr(), &q, &[]).expect("warm-up").0, 200);
    let (status, _, body) =
        http_get_with_headers(server.addr(), &q, &[("X-Pilgrim-Deadline-Ms", "0")])
            .expect("expired");
    assert_eq!(status, 504, "{body}");
    assert_eq!(server.stats().expired.get(), 1);
    assert_eq!(svc.pnfs.engine().cache_hits(), 0, "an expired request is not even probed");
}

/// The one intended behaviour change: admission control guards the
/// worker queue, so with the queue full an uncached query is shed while
/// a cached one — which never enters the queue — is still answered.
#[test]
fn a_full_worker_queue_sheds_uncached_queries_and_still_answers_cached_ones() {
    let svc = service();
    let config = ServerConfig { workers: 1, queue_limit: 1, ..ServerConfig::default() };
    let server = serve(&svc, config);
    let addr = server.addr();

    // Two kept-alive connections from before the overload (a connection
    // arriving during it is refused unread), one cached query.
    let open = server.registry().gauge("http_connections_open", "", &[]);
    let hot = predict_query(0);
    let mut cached = HttpClient::new(addr);
    let mut uncached = HttpClient::new(addr);
    let (_, hot_body) = cached.get(&hot).expect("warm-up");
    let before = open.get();
    assert_eq!(before, 1, "the cached connection");
    assert_eq!(uncached.get(&hot).expect("second connection").0, 200);

    // Wedge the single worker and its queue of one with slow, distinct
    // simulations, staggered so the first is in service (off the queue)
    // before the second arrives.
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new(3).with_delays(1000, Duration::from_millis(600)),
    ));
    svc.pnfs.engine().set_fault_injector(Some(injector));
    let mut occupiers = Vec::new();
    for i in 0..2 {
        occupiers.push(std::thread::spawn(move || {
            http_get_with_headers(addr, &predict_query(10 + i), &[]).expect("occupier").0
        }));
        std::thread::sleep(Duration::from_millis(100));
    }

    let (status, headers, _) =
        uncached.request("GET", &predict_query(5), &[]).expect("uncached under overload");
    assert_eq!(status, 503, "an uncached query needs the full queue");
    assert!(headers.iter().any(|(k, _)| k == "retry-after"));
    // the one overload answer: the refused keep-alive connection is closed
    let connection = headers.iter().find(|(k, _)| k == "connection").map(|(_, v)| v.as_str());
    assert_eq!(connection, Some("close"), "{headers:?}");
    assert_eq!(cached.get(&hot).expect("cached under overload"), (200, hot_body));
    assert_eq!(server.stats().shed.get(), 1);

    for o in occupiers {
        assert_eq!(o.join().expect("occupier thread"), 200);
    }
    // The poller closed the refused connection (and the occupiers'):
    // only the cached one stays open, as before `uncached` connected.
    assert!(eventually(|| open.get() == before), "{} connections open", open.get());
}

#[test]
fn a_link_event_between_two_identical_predicts_is_never_answered_from_the_old_entry() {
    let svc = service();
    let server = serve(&svc, ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = HttpClient::new(server.addr());
    let q = predict_query(0);
    let (_, quiet) = client.get(&q).expect("simulated");
    assert_eq!(client.get(&q).expect("cached").1, quiet);

    let event = "/pilgrim/link_event/g5k_test?link=sagittaire-1.lyon.grid5000.fr-nic&factor=0.5";
    assert_eq!(http_post(server.addr(), event).expect("link event").0, 200);

    let (status, degraded) = client.get(&q).expect("after the event");
    assert_eq!(status, 200);
    assert_ne!(degraded, quiet, "the pre-event answer must not be served");
    // the oracle that never cached anything, with the same event applied
    let mut reference = Pnfs::sequential_reference(NetworkConfig::default());
    reference.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    let reference = PilgrimService::new(Metrology::new(), reference);
    reference
        .pnfs
        .link_event(
            "g5k_test",
            "sagittaire-1.lyon.grid5000.fr-nic",
            simflow::PlatformEventKind::Capacity(0.5),
        )
        .unwrap();
    let (path, query) = q.split_once('?').unwrap();
    assert_eq!(degraded, reference.handle(&Request::synthetic(path, query)).body);
    assert_eq!(svc.pnfs.engine().simulations(), 2);
}

/// Stage and request accounting when the stages of one request run on
/// two threads: admission + cache_lookup on the poller, simulate +
/// render on a worker.
#[test]
fn stages_still_sum_below_end_to_end_and_every_request_is_counted_once() {
    let svc = service();
    let server = serve(&svc, ServerConfig { workers: 2, ..ServerConfig::default() });
    let engine = svc.pnfs.engine();
    let mut client = HttpClient::new(server.addr());

    // a miss, then its repeat, a hit inline; a miss on the same host
    // pairs with another size, counted by the probe and simulated on a
    // worker; then inline hits; one select miss and hit
    let resized = predict_query(0).replace("2e8", "3e8");
    let select = "/pilgrim/select_fastest/g5k_test\
                  ?hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8\
                  &hypothesis=sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,5e8";
    let requests =
        [&predict_query(0), &predict_query(0), &resized, &predict_query(0), &resized, select, select];
    for (k, q) in requests.iter().enumerate() {
        assert_eq!(client.get(q).expect("request").0, 200);
        assert_eq!(
            engine.cache_hits() + engine.cache_misses(),
            k as u64 + 1,
            "hits + misses advance by exactly one per forecast request"
        );
    }
    assert_eq!((engine.cache_hits(), engine.cache_misses()), (4, 3));
    assert_eq!(engine.simulations(), 3);

    let queue_wait = svc.registry().histogram("http_queue_wait_ns", "", &[]);
    assert_eq!(queue_wait.count(), 7, "inline or deferred, every request waited once");

    let m = engine.metrics();
    let stage_sum = m.stage_admission.sum()
        + m.stage_cache_lookup.sum()
        + m.stage_coalesce_wait.sum()
        + m.stage_simulate.sum()
        + m.stage_render.sum();
    let e2e = |endpoint: &str| {
        svc.registry().histogram("pilgrim_request_latency_ns", "", &[("endpoint", endpoint)])
    };
    let (predicts, selects) = (e2e("predict_transfers"), e2e("select_fastest"));
    assert_eq!((predicts.count(), selects.count()), (5, 2));
    assert_eq!(m.stage_admission.count(), 7);
    assert_eq!(m.stage_cache_lookup.count(), 7, "one lookup per request, all by the probe");
    assert_eq!(m.stage_render.count(), 7);
    assert_eq!(m.stage_simulate.count(), 3);
    let e2e_sum = predicts.sum() + selects.sum();
    assert!(
        stage_sum <= e2e_sum,
        "stages are disjoint sub-intervals of the request: {stage_sum} > {e2e_sum}"
    );
}

/// The probe stage is bounded: on a 20 000-host platform a cold query —
/// and an unknown host, and a bad size — is handed on or answered
/// without a single route computation on the probing thread, and so is
/// its repeat, which the probe answers. A compute stage handed a query
/// answered meanwhile resolves no route either.
#[test]
fn the_probe_stage_never_computes_a_route() {
    let platform = Arc::new(to_simflow(&synth::synthetic(20_000), Flavor::G5kTest));
    let hosts: Vec<String> =
        platform.hosts().map(|h| platform.host_name(h).to_string()).collect();
    assert_eq!(hosts.len(), 20_000);
    let pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.engine().register_platform_shared("synth_20k", Arc::clone(&platform));
    let svc = Arc::new(PilgrimService::new(Metrology::new(), pnfs));
    let engine = svc.pnfs.engine();
    let work_done = || {
        let memo = platform.route_memo_stats();
        (memo.hits, memo.entries, memo.links, engine.simulations())
    };

    // 30 transfers between far-apart hosts: nothing about them is cached
    let transfer = |src: &str, dst: &str, size: f64| TransferRequest {
        src: src.to_string(),
        dst: dst.to_string(),
        size,
    };
    let specs: Vec<TransferRequest> =
        (0..30).map(|i| transfer(&hosts[i * 601], &hosts[19_999 - i * 577], 1e8)).collect();
    let cold = work_done();
    assert_eq!(cold, (0, 0, 0, 0));
    let Probed::Pending(pending) = engine.probe("synth_20k", &lend(&[&specs])).unwrap() else {
        panic!("a cold query cannot be answered by the probe")
    };
    // an error ahead of the cold transfers is the probe's to report
    let mut bad = specs.clone();
    bad.insert(0, transfer(&hosts[0], "nowhere", 1e8));
    assert!(matches!(
        engine.probe("synth_20k", &lend(&[&bad])),
        Err(forecast::ForecastError::UnknownHost(_))
    ));
    bad[0] = transfer(&hosts[0], &hosts[1], -1.0);
    assert!(matches!(
        engine.probe("synth_20k", &lend(&[&bad])),
        Err(forecast::ForecastError::BadSize(_))
    ));
    assert_eq!(work_done(), cold, "the engine's probe resolved or simulated something");

    // the same query through the service's handler
    let query: String = specs
        .iter()
        .map(|t| format!("transfer={},{},{}", t.src, t.dst, t.size))
        .collect::<Vec<_>>()
        .join("&");
    let handler = PilgrimService::handler_from(Arc::clone(&svc));
    let req = Request::synthetic("/pilgrim/predict_transfers/synth_20k", &query);
    let Probe::Deferred(compute) = Arc::clone(&handler).probe(&req) else {
        panic!("a cold query must be deferred")
    };
    assert_eq!(work_done(), cold, "the service's probe resolved or simulated something");

    // the compute stages resolve and simulate, once, and leave the probe
    // a hit
    assert_eq!(compute(&req).status, 200);
    let after_one = work_done();
    assert_eq!(after_one.3, 1, "one simulation");
    assert_eq!(engine.compute(&pending).unwrap().durations.len(), 30);
    assert_eq!(work_done(), after_one, "the second compute stage resolved or simulated something");
    let after_two = work_done();
    let Probe::Ready(hit) = Arc::clone(&handler).probe(&req) else {
        panic!("a query asked before is a hit")
    };
    assert_eq!(hit.status, 200);
    assert_eq!(work_done(), after_two, "the hit resolved or simulated something");
}

/// Cold traffic keeps no per-pair state, and a query asked again keeps
/// its own answer: 50 distinct queries asked once are 50 simulations,
/// and the second ask of any of them is a hit the probe answers.
#[test]
fn one_off_queries_keep_no_route_and_a_repeat_keeps_its_own() {
    let svc = service();
    let handler = PilgrimService::handler_from(Arc::clone(&svc));
    let engine = svc.pnfs.engine();
    let request = |i: usize| {
        let q = predict_query(i);
        let (path, query) = q.split_once('?').unwrap();
        Request::synthetic(path, query)
    };

    let mut bodies = Vec::new();
    for i in 0..50 {
        let req = request(i);
        let Probe::Deferred(compute) = Arc::clone(&handler).probe(&req) else {
            panic!("query {i} was never answered: deferred")
        };
        let answer = compute(&req);
        assert_eq!(answer.status, 200, "query {i}: {}", answer.body);
        bodies.push(answer.body);
    }
    assert_eq!((engine.simulations(), engine.cache_len()), (50, 50));

    let req = request(7);
    let hits = engine.cache_hits();
    let Probe::Ready(hit) = Arc::clone(&handler).probe(&req) else {
        panic!("asked before and cached: inline")
    };
    assert_eq!(hit.body, bodies[7]);
    assert_eq!(engine.cache_hits(), hits + 1, "the repeat is a hit");
    assert_eq!(engine.simulations(), 50, "and simulates nothing");
}

/// A cold query is parsed once, by the probe: the compute stage it hands
/// on continues from the parsed query and re-parses nothing, and every
/// later ask is parsed and answered by the probe alone.
#[test]
fn a_cold_query_is_parsed_once_by_the_probe() {
    let svc = service();
    let handler = PilgrimService::handler_from(Arc::clone(&svc));
    let parsed = svc.pnfs.engine().metrics().stage_admission.clone();
    let q = predict_query(0);
    let (path, query) = q.split_once('?').unwrap();
    let req = Request::synthetic(path, query);

    let Probe::Deferred(compute) = Arc::clone(&handler).probe(&req) else {
        panic!("never answered: deferred")
    };
    assert_eq!(parsed.count(), 1, "the probe parses every forecast query");
    let body = compute(&req).body;
    assert_eq!(parsed.count(), 1, "the worker re-parsed the query");
    assert_eq!(svc.pnfs.engine().simulations(), 1);
    for ask in 2..=3 {
        let Probe::Ready(hit) = Arc::clone(&handler).probe(&req) else {
            panic!("answered before and cached: inline")
        };
        assert_eq!(parsed.count(), ask);
        assert_eq!(hit.body, body);
    }

    // new metrology data changes no forecast and evicts nothing
    let archive = rrd::ArchiveSpec { cf: rrd::Cf::Average, steps_per_row: 1, rows: 240 };
    svc.metrology.insert("pdu.rrd", rrd::Database::new(15, rrd::DsKind::Gauge, 120, &[archive]));
    let update = svc.handle(&Request::synthetic("/pilgrim/rrd_update/pdu.rrd", "ts=15&value=1"));
    assert_eq!((update.status, update.body.as_str()), (200, r#"{"ok":true}"#));
    let Probe::Ready(hit) = Arc::clone(&handler).probe(&req) else {
        panic!("an rrd_update evicts nothing: inline")
    };
    assert_eq!((parsed.count(), hit.body), (4, body));
    assert_eq!(svc.pnfs.engine().simulations(), 1);
}
