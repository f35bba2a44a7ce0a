//! Overload and chaos tests of the full stack: a real Pilgrim service
//! behind a real `Server` with a tiny admission queue, hammered by 10×
//! more clients than its admission capacity, with deterministic fault
//! injection (latency spikes, simulated panics) and rude clients that
//! hang up mid-exchange. The invariants under all of it: no request
//! hangs, every answer is a defined status, admitted 200 bodies are
//! bit-identical to the sequential reference, and the engine recovers
//! completely once the chaos stops. The flapping-link test adds platform
//! dynamics to the mix: links degrade, fail and recover *while* being
//! simulated, and the answers must converge to the post-event reference
//! the moment the flapping settles.

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use forecast::{Fault, FaultInjector, FaultPlan};
use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::http::{http_get, http_get_with_headers, Request, Server, ServerConfig};
use pilgrim_core::{Metrology, PilgrimService, Pnfs};
use simflow::NetworkConfig;

fn pooled_service() -> Arc<PilgrimService> {
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    Arc::new(PilgrimService::new(Metrology::new(), pnfs))
}

fn reference_service() -> PilgrimService {
    let mut pnfs = Pnfs::sequential_reference(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    PilgrimService::new(Metrology::new(), pnfs)
}

/// Renders the reference answer for `path_and_query` in-process.
fn reference_body(svc: &PilgrimService, path_and_query: &str) -> String {
    let (path, query) = path_and_query.split_once('?').unwrap();
    svc.handle(&Request::synthetic(path, query)).body
}

/// A small mixed scenario set (predicts and selections) on g5k_test.
fn scenarios() -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..4 {
        out.push(format!(
            "/pilgrim/predict_transfers/g5k_test\
             ?transfer=sagittaire-{}.lyon.grid5000.fr,sagittaire-{}.lyon.grid5000.fr,{}\
             &transfer=graphene-{}.nancy.grid5000.fr,graphene-{}.nancy.grid5000.fr,2e8",
            i + 1,
            i + 10,
            1e8 * (i + 1) as f64,
            i + 1,
            i + 20,
        ));
        out.push(format!(
            "/pilgrim/select_fastest/g5k_test\
             ?hypothesis=sagittaire-{0}.lyon.grid5000.fr,sagittaire-{1}.lyon.grid5000.fr,5e8\
             &hypothesis=sagittaire-{0}.lyon.grid5000.fr,graphene-{0}.nancy.grid5000.fr,5e8",
            i + 1,
            i + 2,
        ));
    }
    out
}

#[test]
fn ten_x_overload_sheds_cleanly_and_admitted_answers_match_reference() {
    let svc = pooled_service();
    // 64 clients vs 4 workers + an admission queue of 8 — well past 10×
    // the queue capacity.
    let config = ServerConfig {
        workers: 4,
        queue_limit: 8,
        default_deadline: Some(Duration::from_secs(8)),
        ..ServerConfig::default()
    };
    let handler = PilgrimService::handler_from(Arc::clone(&svc));
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();
    // Only uncached work queues — the poller answers a cached query
    // itself — so the burst overloads the server for as long as the
    // eight distinct simulations are still running: hold each for 50 ms.
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new(1).with_delays(1000, Duration::from_millis(50)),
    ));
    svc.pnfs.engine().set_fault_injector(Some(injector));

    let reference = reference_service();
    let scenario_set = scenarios();
    let expected: Vec<String> =
        scenario_set.iter().map(|q| reference_body(&reference, q)).collect();
    let scenario_set = Arc::new(scenario_set);
    let expected = Arc::new(expected);

    // All 64 fire at once: spawned one by one on a busy machine they
    // arrive spread out, the queue never fills and nothing is shed.
    let start = Arc::new(std::sync::Barrier::new(64));
    let clients: Vec<_> = (0..64)
        .map(|c| {
            let scenario_set = Arc::clone(&scenario_set);
            let expected = Arc::clone(&expected);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut tally = [0u32; 3]; // 200 / 503 / 504
                start.wait();
                for k in 0..2 {
                    let i = (c * 3 + k * 5) % scenario_set.len();
                    let (status, headers, body) =
                        http_get_with_headers(addr, &scenario_set[i], &[]).expect("request");
                    match status {
                        200 => {
                            assert_eq!(
                                body, expected[i],
                                "client {c} query {i}: admitted answer diverged"
                            );
                            tally[0] += 1;
                        }
                        503 => {
                            assert!(
                                headers.iter().any(|(k, _)| k == "retry-after"),
                                "client {c}: 503 without Retry-After"
                            );
                            tally[1] += 1;
                        }
                        504 => tally[2] += 1,
                        other => panic!("client {c}: unexpected status {other}: {body}"),
                    }
                }
                tally
            })
        })
        .collect();

    let mut total = [0u32; 3];
    for c in clients {
        let t = c.join().expect("client thread must terminate — no hangs");
        for (sum, n) in total.iter_mut().zip(t) {
            *sum += n;
        }
    }
    assert_eq!(total.iter().sum::<u32>(), 128, "every request got exactly one answer");
    assert!(total[0] >= 1, "some requests must be admitted and served: {total:?}");
    assert!(total[1] >= 1, "64 clients vs a queue of 8 must shed: {total:?}");
    assert!(
        server.stats().shed.get() >= total[1] as u64,
        "every 503 received corresponds to a counted shed"
    );
    // Counter balance: one accept per client request, nothing double-
    // counted and nothing lost — the shed and expired counters are
    // subsets of the accepted count, and the client-visible tallies
    // never exceed their server-side counterparts.
    let stats = server.stats();
    assert_eq!(stats.accepted.get(), 128, "one accepted connection per client request");
    assert!(
        stats.shed.get() + stats.expired.get() <= stats.accepted.get(),
        "shed ({}) + expired ({}) cannot exceed accepted ({})",
        stats.shed.get(),
        stats.expired.get(),
        stats.accepted.get()
    );
    assert!(stats.expired.get() >= total[2] as u64, "every 504 received was counted");

    // the burst over, the server is healthy
    let (status, _) = http_get(addr, &scenario_set[0]).unwrap();
    assert_eq!(status, 200);
}

#[test]
fn identical_concurrent_queries_coalesce_to_one_simulation_over_http() {
    let svc = pooled_service();
    let config = ServerConfig { workers: 8, ..ServerConfig::default() };
    let handler = PilgrimService::handler_from(Arc::clone(&svc));
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();

    // Slow the one leader down so the identical followers genuinely
    // arrive while its simulation is in flight.
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new(7).force(0, Fault::Delay(Duration::from_millis(250))),
    ));
    svc.pnfs.engine().set_fault_injector(Some(Arc::clone(&injector)));

    let query = "/pilgrim/select_fastest/g5k_test\
                 ?hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8\
                 &hypothesis=sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,5e8";
    let clients: Vec<_> = (0..12)
        .map(|_| std::thread::spawn(move || http_get(addr, query).expect("request")))
        .collect();
    let mut bodies = Vec::new();
    for c in clients {
        let (status, body) = c.join().expect("client thread");
        assert_eq!(status, 200, "{body}");
        bodies.push(body);
    }
    svc.pnfs.engine().set_fault_injector(None);

    assert!(
        bodies.windows(2).all(|w| w[0] == w[1]),
        "coalesced and cached answers must be bit-identical"
    );
    assert_eq!(
        svc.pnfs.engine().simulations(),
        1,
        "12 identical concurrent queries must run exactly one simulation"
    );
    assert!(
        svc.pnfs.engine().coalesced() >= 1,
        "with a 250 ms leader at least one request must coalesce"
    );
}

#[test]
fn chaos_faults_and_rude_clients_do_not_hang_or_poison_the_engine() {
    let svc = pooled_service();
    let config = ServerConfig { workers: 4, queue_limit: 4, ..ServerConfig::default() };
    let handler = PilgrimService::handler_from(Arc::clone(&svc));
    let mut server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();

    let reference = reference_service();
    let scenario_set = scenarios();
    let expected: Vec<String> =
        scenario_set.iter().map(|q| reference_body(&reference, q)).collect();
    let scenario_set = Arc::new(scenario_set);
    let expected = Arc::new(expected);

    // Deterministic chaos: ~25% of simulations get a 20 ms latency
    // spike, ~15% panic mid-flight.
    let injector = Arc::new(FaultInjector::new(
        FaultPlan::new(0xC4A05)
            .with_delays(250, Duration::from_millis(20))
            .with_panics(150, Duration::from_millis(5)),
    ));
    svc.pnfs.engine().set_fault_injector(Some(Arc::clone(&injector)));

    // Rude clients: send a valid request, then vanish without reading.
    let rude: Vec<_> = (0..8)
        .map(|c| {
            let q = scenario_set[c % scenario_set.len()].clone();
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = s.write_all(
                    format!("GET {q} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
                );
                // drop without reading the response
            })
        })
        .collect();

    let clients: Vec<_> = (0..24)
        .map(|c| {
            let scenario_set = Arc::clone(&scenario_set);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let i = c % scenario_set.len();
                let (status, body) = http_get(addr, &scenario_set[i]).expect("request");
                match status {
                    // Admitted answers stay bit-identical even when other
                    // simulations are being delayed and panicked around them.
                    200 => assert_eq!(body, expected[i], "client {c} query {i} diverged"),
                    500 | 503 | 504 => {} // injected panic, shed, or expired
                    other => panic!("client {c}: unexpected status {other}: {body}"),
                }
            })
        })
        .collect();
    for r in rude {
        r.join().expect("rude client thread");
    }
    for c in clients {
        c.join().expect("client thread must terminate — no hangs");
    }

    // Drain: the rude clients' server-side requests may still be in
    // flight; a graceful stop joins every worker, settling the counters.
    server.stop();

    // Every injected panic surfaced as a counted handler panic (worker
    // alive, 500 sent) — none escaped, none double-counted.
    assert_eq!(
        server.stats().handler_panics.get(),
        injector.panics_injected(),
        "injected panics must be absorbed per-request"
    );
    // Counter balance under chaos: 8 rude + 24 polite connections were
    // accepted, exactly once each, with the drained counters consistent.
    let stats = server.stats();
    assert_eq!(stats.accepted.get(), 32, "8 rude + 24 polite connections accepted");
    assert!(
        stats.shed.get() + stats.expired.get() + stats.handler_panics.get()
            <= stats.accepted.get(),
        "failure counters are disjoint subsets of accepted connections"
    );

    // Chaos off: the engine must be fully recovered — no poisoned lock,
    // no stuck flight — and still give reference answers.
    svc.pnfs.engine().set_fault_injector(None);
    for (i, q) in scenario_set.iter().enumerate() {
        let (path, query) = q.split_once('?').unwrap();
        let resp = svc.handle(&Request::synthetic(path, query));
        assert_eq!(resp.status, 200, "post-chaos query {i} failed: {}", resp.body);
        assert_eq!(resp.body, expected[i], "post-chaos query {i} diverged");
    }
}

#[test]
fn flapping_links_mid_serving_converge_to_the_post_event_reference() {
    let svc = pooled_service();
    let config = ServerConfig { workers: 4, ..ServerConfig::default() };
    let handler = PilgrimService::handler_from(Arc::clone(&svc));
    let server = Server::start_with("127.0.0.1:0", config, handler).expect("bind");
    let addr = server.addr();

    // Link A flaps from *inside* the engine: a Fault::Flap point fires
    // the hook mid-serving, toggling its capacity while other
    // simulations of routes crossing it are in flight.
    let flap_link = "sagittaire-2.lyon.grid5000.fr-nic";
    let hook_svc = Arc::clone(&svc);
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(0xF1A9).with_flaps(400)));
    injector.set_flap_hook(Some(Box::new(move |ordinal| {
        let factor = if ordinal % 2 == 0 { 0.5 } else { 1.0 };
        hook_svc
            .pnfs
            .link_event("g5k_test", flap_link, simflow::PlatformEventKind::Capacity(factor))
            .expect("flap hook link_event");
    })));
    svc.pnfs.engine().set_fault_injector(Some(Arc::clone(&injector)));

    // Link B flaps over the wire: POSTs to the control endpoint race the
    // forecast GETs through the same server.
    let down_link = "graphene-1.nancy.grid5000.fr-nic";
    let scenario_set = Arc::new(scenarios());
    let togglers: Vec<_> = (0..6)
        .map(|t| {
            std::thread::spawn(move || {
                let state = if t % 2 == 0 { "down" } else { "up" };
                let (status, body) = pilgrim_core::http::http_post(
                    addr,
                    &format!("/pilgrim/link_event/g5k_test?link={down_link}&state={state}"),
                )
                .expect("toggle");
                assert_eq!(status, 200, "{body}");
            })
        })
        .collect();
    let clients: Vec<_> = (0..24)
        .map(|c| {
            let scenario_set = Arc::clone(&scenario_set);
            std::thread::spawn(move || {
                let (status, body) =
                    http_get(addr, &scenario_set[c % scenario_set.len()]).expect("request");
                // Mid-flap bodies reflect whichever overlay state their
                // simulation ran under; the invariant here is that every
                // request is answered, defined, and nothing hangs.
                assert_eq!(status, 200, "client {c}: {body}");
            })
        })
        .collect();
    for t in togglers {
        t.join().expect("toggler thread");
    }
    for c in clients {
        c.join().expect("client thread must terminate — no hangs");
    }
    assert!(injector.flaps_injected() >= 1, "the flap rate must actually fire");
    svc.pnfs.engine().set_fault_injector(None);

    // Pin the platform to a known final state through the control
    // endpoint: A degraded to 0.5, B fully restored (whatever parity the
    // chaos ended on).
    for pin in [
        format!("/pilgrim/link_event/g5k_test?link={flap_link}&factor=0.5"),
        format!("/pilgrim/link_event/g5k_test?link={down_link}&state=up"),
        format!("/pilgrim/link_event/g5k_test?link={down_link}&factor=1"),
    ] {
        let (status, body) = pilgrim_core::http::http_post(addr, &pin).expect("pin");
        assert_eq!(status, 200, "{body}");
    }

    // Reference: the sequential oracle, which never saw the chaos, with
    // the same final event applied once. Every admitted answer after the
    // flapping settles must be bit-identical to it — stale pre-event
    // cache entries crossing the links must not leak through.
    let reference = reference_service();
    reference
        .pnfs
        .link_event("g5k_test", flap_link, simflow::PlatformEventKind::Capacity(0.5))
        .unwrap();
    for (i, q) in scenario_set.iter().enumerate() {
        let want = reference_body(&reference, q);
        let (status, body) = http_get(addr, q).expect("post-chaos request");
        assert_eq!(status, 200, "post-chaos query {i}: {body}");
        assert_eq!(body, want, "post-chaos query {i} diverged from the post-event reference");
    }
    assert!(
        svc.pnfs.engine().invalidated_targeted() >= 1,
        "flapping in-use links must evict crossing entries"
    );
}
