//! The bytes the forecast endpoints serve, pinned.
//!
//! A seeded stream of predicts (1–30 transfers) and selects (1–8
//! hypotheses, one-hypothesis selects included), each asked twice so
//! that cache hits render too, with a capacity halving and a link failure
//! mid-stream (so `null` durations render) and malformed, unknown-host
//! and unknown-platform queries, goes through `PilgrimService::handle`.
//! The FNV-1a digest of every forecast answer's `(status, body)` must
//! equal a recorded constant, on the served service and on the
//! sequential reference. The two share the renderer, so "served ==
//! reference" alone could not catch a change in what is rendered; the
//! constant does. They share the probe's keying too (the reference
//! simulates the transfers the key names), so every answered predict is
//! also checked against the transfers its query text asked.
//!
//! A predict and the select of its one hypothesis are one simulation,
//! so they share one cache entry and render the same 4-uples.
//!
//! An answer's first cache hit files its body, and later hits copy the
//! filed text: asking every query a third time, and a select after its
//! predict's hit, must serve the bytes the first render served.

use g5k::{synth, to_simflow, Flavor};
use jsonlite::Value;
use pilgrim_core::http::Request;
use pilgrim_core::{Metrology, PilgrimService, Pnfs};
use seeded::SmallRng;
use simflow::NetworkConfig;

/// The stream's seed.
const SEED: u64 = 0x5EED_B17E5;

/// The digest of the stream's forecast answers, recorded when predicts
/// and selects still took separate paths through the service.
const SERVED_DIGEST: u64 = 0x42ed_6742_b21b_62a1;

fn service(sequential: bool) -> PilgrimService {
    let config = NetworkConfig::default();
    let mut pnfs = if sequential { Pnfs::sequential_reference(config) } else { Pnfs::new(config) };
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    PilgrimService::new(Metrology::new(), pnfs)
}

/// The hosts the stream's transfers run between: two Lyon clusters and
/// two Nancy ones, so routes share NICs and cross the backbone.
fn hosts() -> Vec<String> {
    let cluster = |name: &str, site: &str, n: usize| {
        (1..=n).map(move |i| format!("{name}-{i}.{site}.grid5000.fr")).collect::<Vec<_>>()
    };
    let mut hosts = cluster("sagittaire", "lyon", 12);
    hosts.extend(cluster("capricorne", "lyon", 6));
    hosts.extend(cluster("graphene", "nancy", 6));
    hosts.extend(cluster("griffon", "nancy", 4));
    hosts
}

/// One request of the stream: POST or GET, path and query.
type Ask = (bool, String, String);

/// `n` transfers between pool hosts, as `src,dst,size` texts.
fn transfers(rng: &mut SmallRng, hosts: &[String], n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let src = &hosts[rng.gen_range(0..hosts.len())];
            let dst = &hosts[rng.gen_range(0..hosts.len())];
            format!("{src},{dst},{}e6", 1 + rng.gen_range(0..900))
        })
        .collect()
}

fn predict(platform: &str, transfers: &[String]) -> (String, String) {
    let query = transfers.iter().map(|t| format!("transfer={t}")).collect::<Vec<_>>();
    (format!("/pilgrim/predict_transfers/{platform}"), query.join("&"))
}

fn select(platform: &str, hypotheses: &[Vec<String>]) -> (String, String) {
    let query = hypotheses.iter().map(|h| format!("hypothesis={}", h.join(";")));
    (format!("/pilgrim/select_fastest/{platform}"), query.collect::<Vec<_>>().join("&"))
}

/// A query the service must refuse: malformed (400), or naming an
/// unknown host or platform (404).
fn refused(rng: &mut SmallRng, hosts: &[String]) -> (String, String) {
    let n = 1 + rng.gen_range(0..3);
    let good = transfers(rng, hosts, n);
    let (src, dst) = (&hosts[0], &hosts[hosts.len() - 1]);
    let at = rng.gen_range(0..good.len() + 1);
    let one = |bad: String| {
        let mut ts = good.clone();
        ts.insert(at, bad);
        ts
    };
    match rng.gen_range(0..10) {
        0 => predict("g5k_test", &one(format!("{src},{dst}"))),
        1 => predict("g5k_test", &one(format!("{src},{dst},abc"))),
        2 => predict("g5k_test", &one(format!("{src},{dst},-1e6"))),
        3 => predict("g5k_test", &one(format!("nowhere.grid5000.fr,{dst},1e6"))),
        4 => predict("nope", &good),
        5 => (String::from("/pilgrim/predict_transfers/g5k_test"), String::new()),
        6 => select("g5k_test", &[good, vec![format!("{src},{dst},1,2")]]),
        7 => select("g5k_test", &[good, Vec::new()]),
        8 => select("g5k_test", &[vec![format!("{src},nowhere.grid5000.fr,1e6")], good]),
        _ => select("nope", &[good]),
    }
}

/// The seeded stream: 160 queries, each asked twice, with a capacity
/// halving after the 50th and a NIC failure after the 100th.
fn stream() -> Vec<Ask> {
    let hosts = hosts();
    let mut rng = SmallRng::seed_from_u64(SEED);
    let mut asks = Vec::new();
    for i in 0..160 {
        let event = match i {
            50 => Some("link=sagittaire-2.lyon.grid5000.fr-nic&factor=0.5"),
            100 => Some("link=sagittaire-1.lyon.grid5000.fr-nic&state=down"),
            _ => None,
        };
        if let Some(event) = event {
            asks.push((true, String::from("/pilgrim/link_event/g5k_test"), event.to_string()));
        }
        let (path, query) = match rng.gen_range(0..10) {
            0..=4 => {
                let n = 1 + rng.gen_range(0..30);
                predict("g5k_test", &transfers(&mut rng, &hosts, n))
            }
            5..=8 => {
                let hypotheses: Vec<Vec<String>> = (0..1 + rng.gen_range(0..8))
                    .map(|_| {
                        let n = 1 + rng.gen_range(0..4);
                        transfers(&mut rng, &hosts, n)
                    })
                    .collect();
                select("g5k_test", &hypotheses)
            }
            _ => refused(&mut rng, &hosts),
        };
        asks.push((false, path.clone(), query.clone()));
        asks.push((false, path, query));
    }
    asks
}

fn answer(svc: &PilgrimService, (post, path, query): &Ask) -> (u16, String) {
    let req =
        if *post { Request::synthetic_post(path, query) } else { Request::synthetic(path, query) };
    let resp = svc.handle(&req);
    (resp.status, resp.body)
}

/// A predict's answer lists the transfers its query asked, in order:
/// read from the query text here, not through the service's keying, so a
/// key that swapped or misread a host or a size fails on both services.
fn assert_names_the_asked_transfers(query: &str, body: &str) {
    let asked = query.split('&').map(|part| {
        let t: Vec<&str> = part.strip_prefix("transfer=").unwrap().split(',').collect();
        (t[0].to_string(), t[1].to_string(), t[2].parse::<f64>().unwrap())
    });
    let answered = Value::parse(body).unwrap();
    let answered = answered.as_array().unwrap().iter().map(|p| {
        let name = |field: &str| p[field].as_str().unwrap().to_string();
        (name("src"), name("dst"), p["size"].as_f64().unwrap())
    });
    assert!(asked.eq(answered), "{query} answered {body}");
}

/// FNV-1a over every answer's status, body length and body.
fn digest(answers: &[(u16, String)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (status, body) in answers {
        let head = status.to_le_bytes().into_iter().chain((body.len() as u64).to_le_bytes());
        for b in head.chain(body.bytes()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn a_seeded_stream_serves_the_recorded_bytes() {
    let asks = stream();
    assert!(asks.len() >= 300, "{} requests", asks.len());
    for sequential in [false, true] {
        let svc = service(sequential);
        let answers: Vec<(u16, String)> = asks.iter().map(|ask| answer(&svc, ask)).collect();

        // the stream reaches every kind of answer it is meant to pin
        let count = |status| answers.iter().filter(|(s, _)| *s == status).count();
        assert!(count(200) > 200 && count(400) > 5 && count(404) > 5, "{sequential}");
        let one_hypothesis = asks.iter().zip(&answers).filter(|((_, path, query), (s, _))| {
            path.contains("select_fastest") && !query.contains('&') && *s == 200
        });
        assert!(one_hypothesis.count() >= 2, "{sequential}: no one-hypothesis select");
        assert!(answers.iter().any(|(_, body)| body.contains(r#""duration":null"#)));
        for (i, twice) in asks.windows(2).enumerate().filter(|(_, w)| w[0] == w[1]) {
            assert_eq!(answers[i], answers[i + 1], "{sequential}: {twice:?} answered twice");
        }
        let predicts = asks.iter().zip(&answers).filter(|((_, path, _), (status, _))| {
            path.contains("predict_transfers") && *status == 200
        });
        for ((_, _, query), (_, body)) in predicts {
            assert_names_the_asked_transfers(query, body);
        }

        // a link event's answer counts the entries it evicted, which the
        // reference, caching nothing, does not have: only forecasts digest
        let (events, forecasts): (Vec<_>, Vec<_>) =
            asks.iter().zip(answers).partition(|((post, _, _), _)| *post);
        assert!(events.iter().all(|(_, (status, _))| *status == 200), "{events:?}");
        let forecasts: Vec<(u16, String)> = forecasts.into_iter().map(|(_, a)| a).collect();
        let which = if sequential { "sequential reference" } else { "served" };
        let got = digest(&forecasts);
        assert_eq!(got, SERVED_DIGEST, "{which}: digest {got:#x}");
    }
}

/// The stream with every query asked a third time, right after its
/// second ask: the first ask simulates, the second is the cache hit that
/// files the body, the third copies the filed body.
#[test]
fn a_filed_body_serves_the_bytes_its_first_render_did() {
    let asks = stream();
    let mut thrice = Vec::with_capacity(asks.len() * 3 / 2);
    for (i, ask) in asks.iter().enumerate() {
        thrice.push(ask.clone());
        if i > 0 && !ask.0 && asks[i - 1] == *ask {
            thrice.push(ask.clone());
        }
    }
    assert!(thrice.len() > asks.len() + 150, "{} of {} asks", thrice.len(), asks.len());
    for sequential in [false, true] {
        let svc = service(sequential);
        let answers: Vec<(u16, String)> = thrice.iter().map(|ask| answer(&svc, ask)).collect();
        let mut third_hits = 0;
        let asked_thrice = |(_, w): &(usize, &[Ask])| w[0] == w[1] && w[1] == w[2];
        for (i, three) in thrice.windows(3).enumerate().filter(asked_thrice) {
            assert_eq!(answers[i + 2], answers[i + 1], "{sequential}: third ask of {three:?}");
            assert_eq!(answers[i + 2], answers[i], "{sequential}: third ask of {three:?}");
            third_hits += usize::from(answers[i].0 == 200);
        }
        assert!(third_hits > 100, "{sequential}: {third_hits} answered third asks");
    }
}

/// The 3-transfer query both share-one-entry tests ask, as a predict and
/// as the select of its one hypothesis.
fn predict_and_select_of_one_query() -> (Ask, Ask) {
    let t: Vec<String> = [
        "sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8",
        "sagittaire-3.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,1e9",
        "capricorne-2.lyon.grid5000.fr,sagittaire-1.lyon.grid5000.fr,2e8",
    ]
    .map(String::from)
    .to_vec();
    let (path, query) = predict("g5k_test", &t);
    let predict_t = (false, path, query);
    let (path, query) = select("g5k_test", &[t]);
    (predict_t, (false, path, query))
}

/// `selected` is `{"best":0,"makespan":…,"predictions":<predicted>,"pruned":[]}`,
/// its makespan the longest of the predicted durations.
fn assert_wraps(selected: &str, predicted: &str, case: &str) {
    let (makespan, predictions) = selected
        .strip_prefix(r#"{"best":0,"makespan":"#)
        .and_then(|rest| rest.strip_suffix(r#","pruned":[]}"#))
        .and_then(|rest| rest.split_once(r#","predictions":"#))
        .unwrap_or_else(|| panic!("{case}: {selected}"));
    assert_eq!(predictions, predicted, "{case}: the winner's 4-uples are the predict's");
    let durations = Value::parse(predicted).unwrap();
    let longest = durations.as_array().unwrap().iter().map(|p| p["duration"].as_f64().unwrap());
    assert_eq!(makespan.parse::<f64>().ok(), longest.reduce(f64::max), "{case}");
}

/// `(simulations, cache_hits, cache_len)` as `/pilgrim/stats` reads them.
fn stats(svc: &PilgrimService) -> (Option<i64>, Option<i64>, Option<i64>) {
    let (_, stats) = answer(svc, &(false, "/pilgrim/stats".into(), String::new()));
    let stats = Value::parse(&stats).unwrap();
    let read = |name: &str| stats[name].as_i64();
    (read("simulations"), read("cache_hits"), read("cache_len"))
}

#[test]
fn a_predict_and_its_one_hypothesis_select_share_one_entry() {
    let (predict_t, select_t) = predict_and_select_of_one_query();
    for sequential in [false, true] {
        let svc = service(sequential);
        let (status, predicted) = answer(&svc, &predict_t);
        assert_eq!(status, 200, "{predicted}");
        let (status, selected) = answer(&svc, &select_t);
        assert_eq!(status, 200, "{selected}");
        assert_wraps(&selected, &predicted, &format!("sequential {sequential}"));
        if !sequential {
            assert_eq!(stats(&svc), (Some(1), Some(1), Some(1)), "one forecast, one entry");
        }
    }
}

/// A predict asked twice files its body on the second ask; the select of
/// its one hypothesis then hits the same entry and wraps the filed text.
#[test]
fn a_select_wraps_the_text_its_predict_filed() {
    let (predict_t, select_t) = predict_and_select_of_one_query();
    for sequential in [false, true] {
        let svc = service(sequential);
        let (status, predicted) = answer(&svc, &predict_t);
        assert_eq!(status, 200, "{predicted}");
        assert_eq!(answer(&svc, &predict_t), (200, predicted.clone()), "{sequential}: the hit");
        let (status, selected) = answer(&svc, &select_t);
        assert_eq!(status, 200, "{selected}");
        assert_wraps(&selected, &predicted, &format!("sequential {sequential}"));
        if !sequential {
            assert_eq!(stats(&svc), (Some(1), Some(2), Some(1)), "one forecast, two hits");
        }
    }
}

/// A predict whose names are padded and percent-encoded, then the same
/// predict in plain text, then again. On the served service the first
/// answer is computed and renders its names from the platform, by the
/// host ids in its key; the second is the probe's first hit, which files
/// the names the request spelled; the third copies the filed text. Host
/// lookup is exact, so all three are the same bytes, and the sequential
/// reference (which never fills its cache) serves them too.
#[test]
fn a_miss_renders_the_names_its_key_was_looked_up_by() {
    let ask = |transfers: [&str; 2]| {
        let (path, query) = predict("g5k_test", &transfers.map(String::from));
        (false, path, query)
    };
    let encoded = ask([
        "+sagittaire%2D1.lyon.grid5000.fr+,graphene%2d2.nancy.grid5000.fr+,5e8",
        "%20capricorne-3.lyon.grid5000%2Efr,++sagittaire-4.lyon.grid5000.fr,+1e9+",
    ]);
    let plain = ask([
        "sagittaire-1.lyon.grid5000.fr,graphene-2.nancy.grid5000.fr,5e8",
        "capricorne-3.lyon.grid5000.fr,sagittaire-4.lyon.grid5000.fr,1e9",
    ]);
    let mut first = Vec::new();
    for sequential in [false, true] {
        let svc = service(sequential);
        let answers = [answer(&svc, &encoded), answer(&svc, &plain), answer(&svc, &plain)];
        assert_eq!(answers[0].0, 200, "{sequential}: {}", answers[0].1);
        assert_eq!(answers[1], answers[0], "{sequential}: the plain ask");
        assert_eq!(answers[2], answers[0], "{sequential}: the plain ask again");
        if !sequential {
            assert_eq!(stats(&svc), (Some(1), Some(2), Some(1)), "one forecast, two hits");
        }
        first.push(answers[0].1.clone());
    }
    assert_eq!(first[0], first[1], "served and sequential");
    let names = r#"[{"src":"sagittaire-1.lyon.grid5000.fr","dst":"graphene-2.nancy.grid5000.fr""#;
    assert!(first[0].starts_with(names), "{}", first[0]);
}

/// The workflow stream's seed.
const WORKFLOW_SEED: u64 = 0x05EE_DDA6;

/// The digest of the workflow stream's answers, recorded when a workflow
/// still took a path of its own through the service, with no cache.
const WORKFLOW_DIGEST: u64 = 0xe194_7fb7_8994_e303;

/// Task labels, as query text: plain ones, one the decoder turns into a
/// space and ones JSON must escape or carries as UTF-8.
const LABELS: &[&str] =
    &["upload", "solve", "download", "stage%20in", "q%22uote", "back%5Cslash", "t%C3%A4sk", ""];

/// One `task=` text: a transfer between pool hosts or, one time in three,
/// a computation on one.
fn task(rng: &mut SmallRng, hosts: &[String]) -> String {
    let label = LABELS[rng.gen_range(0..LABELS.len())];
    let host = |rng: &mut SmallRng| hosts[rng.gen_range(0..hosts.len())].as_str();
    if rng.gen_range(0..3) == 0 {
        let on = host(rng);
        format!("{label},compute,{on},{}e8", 1 + rng.gen_range(0..200))
    } else {
        let (src, dst) = (host(rng), host(rng));
        format!("{label},transfer,{src},{dst},{}e6", 1 + rng.gen_range(0..900))
    }
}

/// The `dep=` texts of `n` tasks shaped as a chain, a fan-out, a fan-in,
/// a random DAG (each task on some earlier ones) or no edges at all.
fn deps(rng: &mut SmallRng, n: usize) -> Vec<String> {
    let edges: Vec<(usize, usize)> = match rng.gen_range(0..5) {
        0 => (1..n).map(|i| (i, i - 1)).collect(),
        1 => (1..n).map(|i| (i, 0)).collect(),
        2 => (1..n).map(|i| (n - 1, i - 1)).collect(),
        3 => {
            let all = (1..n).flat_map(|i| (0..i).map(move |j| (i, j)));
            all.filter(|_| rng.gen_range(0..3) == 0).collect()
        }
        _ => Vec::new(),
    };
    edges.into_iter().map(|(task, on)| format!("dep={task},{on}")).collect()
}

fn workflow(platform: &str, tasks: &[String], deps: &[String]) -> (String, String) {
    let query = tasks.iter().map(|t| format!("task={t}")).chain(deps.iter().cloned());
    (format!("/pilgrim/forecast_workflow/{platform}"), query.collect::<Vec<_>>().join("&"))
}

/// A workflow the service must refuse: malformed (400), with an amount
/// the kernel would assert on (400), or naming an unknown host or
/// platform (404). No cycle: its refusal text is not pinned.
fn refused_workflow(rng: &mut SmallRng, hosts: &[String]) -> (String, String) {
    let n = 1 + rng.gen_range(0..3);
    let mut tasks: Vec<String> = (0..n).map(|_| task(rng, hosts)).collect();
    let mut edges = deps(rng, n);
    let (src, dst) = (&hosts[0], &hosts[hosts.len() - 1]);
    let bad = match rng.gen_range(0..12) {
        0 => String::from("bad,kind"),
        1 => format!("c,compute,{src}"),
        2 => format!("t,transfer,{src},{dst},abc"),
        3 => format!("c,compute,{src},NaN"),
        4 => format!("t,transfer,{src},{dst},-1e6"),
        5 => format!("c,compute,{src},inf"),
        6 => format!("t,transfer,nowhere.grid5000.fr,{dst},1e6"),
        7 => String::from("c,compute,nowhere.grid5000.fr,1e9"),
        8 => return workflow("nope", &tasks, &edges),
        9 => return workflow("g5k_test", &[], &edges),
        10 => {
            edges.insert(0, format!("dep=0,{}", n + 5));
            return workflow("g5k_test", &tasks, &edges);
        }
        _ => {
            edges.push(String::from("dep=1"));
            return workflow("g5k_test", &tasks, &edges);
        }
    };
    tasks.push(bad);
    workflow("g5k_test", &tasks, &edges)
}

/// The seeded workflow stream: 120 workflows of 1–30 tasks, each asked
/// three times (the miss, the hit that files the body, the hit that
/// copies it), with a tenth of a NIC's capacity after the 40th and
/// another NIC's failure after the 80th.
fn workflow_stream() -> Vec<Ask> {
    let hosts = hosts();
    let mut rng = SmallRng::seed_from_u64(WORKFLOW_SEED);
    let mut asks = Vec::new();
    for i in 0..120 {
        let event = match i {
            40 => Some("link=sagittaire-2.lyon.grid5000.fr-nic&factor=0.1"),
            80 => Some("link=sagittaire-1.lyon.grid5000.fr-nic&state=down"),
            _ => None,
        };
        if let Some(event) = event {
            asks.push((true, String::from("/pilgrim/link_event/g5k_test"), event.to_string()));
        }
        let (path, query) = if rng.gen_range(0..8) == 0 {
            refused_workflow(&mut rng, &hosts)
        } else {
            let n = 1 + rng.gen_range(0..30);
            let tasks: Vec<String> = (0..n).map(|_| task(&mut rng, &hosts)).collect();
            workflow("g5k_test", &tasks, &deps(&mut rng, n))
        };
        for _ in 0..3 {
            asks.push((false, path.clone(), query.clone()));
        }
    }
    asks
}

#[test]
fn a_seeded_workflow_stream_serves_the_recorded_bytes() {
    let asks = workflow_stream();
    for sequential in [false, true] {
        let svc = service(sequential);
        let answers: Vec<(u16, String)> = asks.iter().map(|ask| answer(&svc, ask)).collect();

        let count = |status| answers.iter().filter(|(s, _)| *s == status).count();
        assert!(count(200) > 250 && count(400) > 10 && count(404) > 5, "{sequential}");
        let bodies = || answers.iter().map(|(_, body)| body);
        assert!(bodies().any(|body| body.contains(r#""finish":null"#)), "{sequential}");
        assert!(bodies().any(|body| body.contains(r#""name":"q\"uote""#)), "{sequential}");
        let asked_thrice = |(_, w): &(usize, &[Ask])| w[0] == w[1] && w[1] == w[2];
        for (i, three) in asks.windows(3).enumerate().filter(asked_thrice) {
            assert_eq!(answers[i + 1], answers[i], "{sequential}: second ask of {three:?}");
            assert_eq!(answers[i + 2], answers[i], "{sequential}: third ask of {three:?}");
        }
        for ((post, _, query), (status, body)) in asks.iter().zip(&answers) {
            if !post && *status == 200 {
                let tasks = Value::parse(body).unwrap()["tasks"].as_array().unwrap().len();
                assert_eq!(tasks, query.matches("task=").count(), "{query} answered {body}");
            }
        }

        let forecasts: Vec<(u16, String)> =
            asks.iter().zip(answers).filter(|((post, _, _), _)| !post).map(|(_, a)| a).collect();
        let which = if sequential { "sequential reference" } else { "served" };
        let got = digest(&forecasts);
        assert_eq!(got, WORKFLOW_DIGEST, "{which}: digest {got:#x}");
    }
}

/// A workflow on the sagittaire-1 NIC: ship, then crunch what came.
fn shipped_and_crunched(label: &str) -> Ask {
    let query = format!(
        "task={label},transfer,sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e9\
         &task=crunch,compute,sagittaire-2.lyon.grid5000.fr,1e9&dep=1,0"
    );
    (false, String::from("/pilgrim/forecast_workflow/g5k_test"), query)
}

/// A workflow is one forecast: asked twice, one simulation, one hit and
/// one entry; a link event on its route evicts it, and the next ask
/// simulates the degraded platform.
#[test]
fn a_workflow_is_a_cached_forecast_a_link_event_evicts() {
    let svc = service(false);
    let ship = shipped_and_crunched("ship");
    let (status, quiet) = answer(&svc, &ship);
    assert_eq!(status, 200, "{quiet}");
    assert_eq!(answer(&svc, &ship), (200, quiet.clone()), "the hit");
    assert_eq!(stats(&svc), (Some(1), Some(1), Some(1)), "one forecast, one hit, one entry");

    let event = "link=sagittaire-1.lyon.grid5000.fr-nic&factor=0.5".to_string();
    let (_, evicted) = answer(&svc, &(true, String::from("/pilgrim/link_event/g5k_test"), event));
    assert_eq!(Value::parse(&evicted).unwrap()["invalidated"].as_i64(), Some(1), "{evicted}");
    assert_eq!(stats(&svc), (Some(1), Some(1), Some(0)));
    let (status, slow) = answer(&svc, &ship);
    assert_eq!(status, 200, "{slow}");
    assert_ne!(slow, quiet, "the degraded link slows the transfer");
    assert_eq!(stats(&svc), (Some(2), Some(1), Some(1)));
}

/// Labels are part of a workflow's key: two workflows that differ in a
/// label alone are two answers, each naming its own tasks.
#[test]
fn workflows_that_differ_in_a_label_answer_their_own() {
    for sequential in [false, true] {
        let svc = service(sequential);
        let ship = answer(&svc, &shipped_and_crunched("ship"));
        assert_eq!(answer(&svc, &shipped_and_crunched("ship")), ship, "{sequential}: the hit");
        let (status, moved) = answer(&svc, &shipped_and_crunched("move"));
        assert_eq!(status, 200, "{moved}");
        assert!(ship.1.contains(r#"{"name":"ship""#), "{sequential}: {}", ship.1);
        assert_eq!(moved, ship.1.replace(r#""ship""#, r#""move""#), "{sequential}");
    }
}
