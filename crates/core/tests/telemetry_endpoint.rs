//! Integration tests of the unified telemetry layer: the
//! `/pilgrim/metrics` exposition endpoint, the backward-compatible
//! `/pilgrim/stats` JSON view, and the decomposition invariant that the
//! per-stage forecast histograms sum (within span granularity) to the
//! end-to-end request histogram on a sequential workload.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use g5k::{synth, to_simflow, Flavor};
use jsonlite::Value;
use pilgrim_core::http::{http_get_with_headers, HttpClient, Request, Server, ServerConfig};
use pilgrim_core::{Metrology, PilgrimService, Pnfs};
use simflow::NetworkConfig;

/// Held by every test here for its whole run, so the tests of this file
/// run one at a time: the stage-sum test compares wall-clock intervals
/// of a sequential workload, and a sibling's HTTP server threads would
/// otherwise preempt it on a small machine, stretching the end-to-end
/// time it measures between two stages.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    // a failed sibling poisons the lock; its failure is reported there
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn pooled_service() -> Arc<PilgrimService> {
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    Arc::new(PilgrimService::new(Metrology::new(), pnfs))
}

/// `svc` behind a server on its registry. One worker, so a scrape's job
/// starts only after every earlier job has finished and been timed.
fn serve(svc: &Arc<PilgrimService>) -> Server {
    Server::start_with_registry(
        "127.0.0.1:0",
        ServerConfig { workers: 1, ..ServerConfig::default() },
        PilgrimService::handler_from(Arc::clone(svc)),
        None,
        Arc::clone(svc.registry()),
    )
    .expect("bind")
}

fn get(svc: &PilgrimService, path: &str, query: &str) -> (u16, String) {
    let resp = svc.handle(&Request::synthetic(path, query));
    (resp.status, resp.body)
}

/// `/pilgrim/stats` is now a thin view over the metrics registry, but
/// its JSON contract is frozen: exactly these keys, in this order, all
/// integers. Dashboards parse this shape.
#[test]
fn stats_json_shape_is_frozen() {
    let _serial = one_at_a_time();
    let svc = pooled_service();
    let q = "transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8";
    get(&svc, "/pilgrim/predict_transfers/g5k_test", q);
    get(&svc, "/pilgrim/predict_transfers/g5k_test", q);

    let (status, body) = get(&svc, "/pilgrim/stats", "");
    assert_eq!(status, 200, "{body}");
    let v = Value::parse(&body).expect("stats is JSON");
    let Value::Object(pairs) = &v else { panic!("stats must be a JSON object: {v}") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "cache_hits",
            "cache_misses",
            "cache_len",
            "coalesced",
            "simulations",
            "invalidated_targeted",
        ],
        "the stats JSON shape is a frozen contract"
    );
    for (k, val) in pairs {
        assert!(val.as_i64().is_some(), "stats field '{k}' must be an integer: {val}");
    }
    assert_eq!(v["simulations"].as_i64(), Some(1));
    assert_eq!(v["cache_hits"].as_i64(), Some(1));
    assert_eq!(v["cache_misses"].as_i64(), Some(1));
}

/// End-to-end through a real server sharing its registry with the
/// service: `/pilgrim/metrics` must render every instrument family of
/// every layer — http, service, forecast, cache, kernel, pool — in
/// valid Prometheus text exposition format.
#[test]
fn metrics_endpoint_renders_every_layer_over_http() {
    let _serial = one_at_a_time();
    let svc = pooled_service();
    let server = serve(&svc);
    let addr = server.addr();

    // Work every layer once: a simulated predict, two cached repeats
    // answered inline, a 404.
    let q = "/pilgrim/predict_transfers/g5k_test\
             ?transfer=sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,5e8";
    for path in [q, q, q, "/pilgrim/nope"] {
        http_get_with_headers(addr, path, &[]).expect("request");
    }

    let (status, headers, body) =
        http_get_with_headers(addr, "/pilgrim/metrics", &[]).expect("metrics");
    assert_eq!(status, 200, "{body}");
    assert_eq!(
        headers.iter().find(|(k, _)| k == "content-type").map(|(_, v)| v.as_str()),
        Some("text/plain; version=0.0.4"),
    );

    // Every layer's family is present.
    for family in [
        "http_accepted_total",
        "http_queue_wait_ns",
        "http_request_header_bytes_total",
        "http_response_body_bytes_total",
        "http_connections_open",
        "http_keepalive_reuse_total",
        "epoll_wakeups_total",
        "pilgrim_request_latency_ns",
        "forecast_stage_latency_ns",
        "forecast_cache_hits_total",
        "forecast_cache_misses_total",
        "forecast_simulations_total",
        "kernel_reshares_total",
        "kernel_calendar_pops_total",
        "kernel_component_size",
        "kernel_calendar_peak",
        "kernel_warm_cache_bytes",
        "kernel_route_memo_hits_total",
        "kernel_route_memo_entries",
        "pool_queue_depth",
        "pool_job_service_ns",
    ] {
        assert!(body.contains(&format!("# TYPE {family}")), "missing family {family}");
    }
    // The worked endpoints appear with their labels and real counts.
    assert!(body.contains(r#"pilgrim_request_latency_ns_count{endpoint="predict_transfers"} 3"#), "{body}");
    assert!(body.contains("forecast_simulations_total 1"), "{body}");
    assert!(body.contains(r#"pilgrim_request_latency_ns_count{endpoint="unknown"} 1"#), "{body}");
    assert!(body.contains("kernel_components_solved_total"), "{body}");
    // Nothing serves out-of-date answers or sheds in the forecast layer,
    // so it exports no family for either.
    for gone in ["forecast_stale_served_total", "forecast_shed_total"] {
        assert!(!body.contains(gone), "{gone} must not be exported");
    }
    // `pool_*` is the pool that runs what the poller cannot answer
    // itself: the simulated predict and the 404 made one job each and
    // were timed before this scrape's job started; both repeats were
    // answered on the poller thread and made none.
    let jobs = body
        .lines()
        .find_map(|l| l.strip_prefix("pool_job_service_ns_count "))
        .expect("pool_job_service_ns_count sample");
    assert_eq!(jobs, "2", "request jobs timed so far");
    // The connection gauge renders as a gauge and reflects the one live
    // connection doing this very scrape.
    assert!(body.contains("# TYPE http_connections_open gauge"), "{body}");
    assert!(body.contains("http_connections_open 1"), "{body}");
    // The poller loop has demonstrably turned at least once by now.
    assert!(body.contains("epoll_wakeups_total"), "{body}");

    // Exposition syntax: every non-comment, non-empty line is
    // `name{labels} value` with a parseable numeric value.
    for line in body.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let (_, value) = line.rsplit_once(' ').expect("sample line has a value");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable sample value in line: {line}"
        );
    }
}

/// Paths nobody serves must not grow the exposition: the end-to-end
/// family has one series per served endpoint, and every invented path
/// is counted under `unknown`.
#[test]
fn invented_paths_fold_into_other() {
    let _serial = one_at_a_time();
    let svc = pooled_service();
    let server = serve(&svc);
    let mut client = HttpClient::new(server.addr());
    for n in 0..10_000 {
        let (status, _) = client.get(&format!("/a{n}/x")).expect("request");
        assert_eq!(status, 404);
    }
    let (status, body) = client.get("/pilgrim/metrics").expect("metrics");
    assert_eq!(status, 200, "{body}");
    let counts: std::collections::BTreeMap<&str, &str> = body
        .lines()
        .filter_map(|l| l.strip_prefix("pilgrim_request_latency_ns_count{endpoint=\""))
        .filter_map(|l| l.split_once("\"} "))
        .collect();
    assert!(counts.len() <= 11, "{} endpoint series: {counts:?}", counts.len());
    assert_eq!(counts.get("unknown"), Some(&"10000"), "{counts:?}");
}

/// The stage histograms decompose the end-to-end request histogram: on a
/// strictly sequential workload the summed stage time is bounded by the
/// summed end-to-end time, and accounts for most of it (the stages cover
/// admission, lookup, simulation and rendering; only routing glue falls
/// outside them).
#[test]
fn stage_histograms_sum_to_end_to_end_on_sequential_workload() {
    let _serial = one_at_a_time();
    let svc = pooled_service();
    // Distinct cache-missing queries, served one at a time.
    for i in 0..6 {
        let q = format!(
            "transfer=sagittaire-{}.lyon.grid5000.fr,sagittaire-{}.lyon.grid5000.fr,{}\
             &transfer=graphene-{}.nancy.grid5000.fr,graphene-{}.nancy.grid5000.fr,3e8\
             &transfer=sagittaire-{}.lyon.grid5000.fr,graphene-{}.nancy.grid5000.fr,2e8",
            i + 1,
            i + 10,
            1e8 * (i + 1) as f64,
            i + 1,
            i + 20,
            i + 2,
            i + 3,
        );
        let (status, body) = get(&svc, "/pilgrim/predict_transfers/g5k_test", &q);
        assert_eq!(status, 200, "{body}");
    }

    let m = svc.pnfs.engine().metrics();
    let stage_sum = m.stage_admission.sum()
        + m.stage_cache_lookup.sum()
        + m.stage_coalesce_wait.sum()
        + m.stage_simulate.sum()
        + m.stage_render.sum();
    // Same cells the registry renders: read e2e through the registry to
    // prove the exposition and the handles agree.
    let e2e = svc.registry().histogram(
        "pilgrim_request_latency_ns",
        "End-to-end service-handler latency per endpoint",
        &[("endpoint", "predict_transfers")],
    );
    assert_eq!(e2e.count(), 6, "six sequential requests recorded end-to-end");
    assert_eq!(m.stage_simulate.count(), 6, "every request simulated (no cache hits)");

    let e2e_sum = e2e.sum();
    assert!(
        stage_sum <= e2e_sum,
        "stages are disjoint sub-intervals of the request: {stage_sum} > {e2e_sum}"
    );
    assert!(
        stage_sum * 2 >= e2e_sum,
        "stages must account for most of the request (simulation dominates): \
         stages {stage_sum} ns vs end-to-end {e2e_sum} ns"
    );
}
