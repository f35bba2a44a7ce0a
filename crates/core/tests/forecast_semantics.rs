//! Semantics of the pooled forecast path against the sequential
//! reference: identical winners on randomized hypothesis sets,
//! bit-identical JSON on cache hits, and epoch-driven invalidation when
//! metrology data arrives.

use forecast::EngineConfig;
use g5k::{synth, to_simflow, Flavor};
use jsonlite::Value;
use pilgrim_core::http::Request;
use pilgrim_core::{Metrology, PilgrimService, Pnfs, TransferRequest};
use rrd::{ArchiveSpec, Cf, Database, DsKind};
use simflow::NetworkConfig;

fn pooled_pnfs(workers: usize) -> Pnfs {
    let mut pnfs = Pnfs::with_engine_config(
        NetworkConfig::default(),
        EngineConfig { workers, cache_capacity: 256, ..EngineConfig::default() },
    );
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    pnfs
}

/// Deterministic LCG so the "randomized" sets are reproducible.
struct Lcg(u64);
impl Lcg {
    fn next(&mut self, m: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % m
    }
}

fn random_hypotheses(rng: &mut Lcg, n_hyp: usize) -> Vec<Vec<TransferRequest>> {
    let clusters = ["sagittaire", "capricorne", "graphene", "griffon"];
    let sites = ["lyon", "lyon", "nancy", "nancy"];
    (0..n_hyp)
        .map(|_| {
            (0..1 + rng.next(5))
                .map(|_| {
                    let cs = rng.next(4);
                    let cd = rng.next(4);
                    TransferRequest {
                        src: format!(
                            "{}-{}.{}.grid5000.fr",
                            clusters[cs],
                            1 + rng.next(30),
                            sites[cs]
                        ),
                        dst: format!(
                            "{}-{}.{}.grid5000.fr",
                            clusters[cd],
                            1 + rng.next(30),
                            sites[cd]
                        ),
                        size: 1e7 * (1 + rng.next(200)) as f64,
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn pooled_select_matches_reference_on_randomized_sets() {
    let pnfs = pooled_pnfs(4);
    let mut rng = Lcg(0xC0FFEE);
    for round in 0..6 {
        // ≥ 8 hypotheses exercises multi-wave evaluation on 4 workers
        let n_hyp = 8 + rng.next(5);
        let hypotheses = random_hypotheses(&mut rng, n_hyp);
        let pooled = pnfs.select_fastest("g5k_test", &hypotheses).unwrap();
        let reference = pnfs.select_fastest_reference("g5k_test", &hypotheses).unwrap();
        assert_eq!(pooled.best, reference.best, "round {round}: winner diverged");
        assert_eq!(
            pooled.best_makespan.to_bits(),
            reference.best_makespan.to_bits(),
            "round {round}: makespan diverged"
        );
        assert_eq!(pooled.pruned, reference.pruned, "round {round}: pruned set diverged");
        for (p, r) in pooled.predictions.iter().zip(&reference.predictions) {
            assert_eq!(p.duration.to_bits(), r.duration.to_bits(), "round {round}");
        }
    }
}

#[test]
fn pooled_predict_matches_reference_on_randomized_batches() {
    let pnfs = pooled_pnfs(4);
    let mut rng = Lcg(0xBEEF);
    for round in 0..6 {
        let batch = random_hypotheses(&mut rng, 1).pop().unwrap();
        let pooled = pnfs.predict("g5k_test", &batch).unwrap();
        let reference = pnfs.predict_reference("g5k_test", &batch).unwrap();
        for (p, r) in pooled.iter().zip(&reference) {
            assert_eq!(p.duration.to_bits(), r.duration.to_bits(), "round {round}");
        }
    }
}

fn service() -> PilgrimService {
    let metrology = Metrology::new();
    let mut db = Database::new(
        15,
        DsKind::Gauge,
        120,
        &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 240 }],
    );
    db.update(1_336_111_200, 168.92).unwrap();
    metrology.insert("ganglia/Lyon/net.rrd", db);
    PilgrimService::new(metrology, pooled_pnfs(2))
}

fn get(svc: &PilgrimService, path: &str, query: &str) -> (u16, String) {
    let req = Request::synthetic(path, query);
    let resp = svc.handle(&req);
    (resp.status, resp.body)
}

#[test]
fn sequential_reference_and_pooled_service_agree_after_link_events() {
    // The oracle has to stay one once the platform moves: after every
    // kind of event both services render the same bytes, for predicts
    // and selections whose routes cross the touched link.
    let pooled = service();
    let mut seq = Pnfs::sequential_reference(NetworkConfig::default());
    seq.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    let sequential = PilgrimService::new(Metrology::new(), seq);

    let nic = "sagittaire-1.lyon.grid5000.fr-nic";
    let queries = [
        (
            "/pilgrim/predict_transfers/g5k_test",
            "transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e9\
             &transfer=sagittaire-3.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,5e8",
        ),
        (
            "/pilgrim/select_fastest/g5k_test",
            "hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8\
             &hypothesis=sagittaire-3.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,5e8\
             &hypothesis=sagittaire-1.lyon.grid5000.fr,graphene-2.nancy.grid5000.fr,1e8;\
             sagittaire-4.lyon.grid5000.fr,sagittaire-5.lyon.grid5000.fr,1e8",
        ),
    ];
    let mut bodies = Vec::new();
    let mut compare = |after: &str| {
        for (path, query) in queries {
            let (status, want) = get(&sequential, path, query);
            assert_eq!(status, 200, "after {after}: {want}");
            assert_eq!(get(&pooled, path, query), (200, want.clone()), "after {after} on {path}");
            bodies.push(want);
        }
    };
    compare("no event");
    for event in ["factor=0.1", "state=down", "state=up", "factor=1"] {
        for svc in [&pooled, &sequential] {
            let req = Request::synthetic_post(
                "/pilgrim/link_event/g5k_test",
                &format!("link={nic}&{event}"),
            );
            assert_eq!(svc.handle(&req).status, 200, "{event}");
        }
        compare(event);
    }
    // the events did move the answers, and the restore put them back
    assert_ne!(bodies[0], bodies[2], "factor=0.1 must slow the predict");
    assert!(bodies[4].contains("null"), "a transfer over the dead nic never completes");
    assert_eq!(bodies[8..], bodies[..2]);
}

#[test]
fn cache_hit_returns_bit_identical_json_and_epoch_bump_invalidates() {
    let svc = service();
    let query = "hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8\
                 &hypothesis=sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,5e8";
    let (s1, body1) = get(&svc, "/pilgrim/select_fastest/g5k_test", query);
    assert_eq!(s1, 200, "{body1}");
    assert_eq!(svc.pnfs.engine().cache_hits(), 0);

    // identical query: served from the cache, bit-identical JSON
    let (s2, body2) = get(&svc, "/pilgrim/select_fastest/g5k_test", query);
    assert_eq!(s2, 200);
    assert_eq!(svc.pnfs.engine().cache_hits(), 1, "second query must hit the cache");
    assert_eq!(body1, body2, "cache hit must render bit-identical JSON");

    // pushing new metrology data bumps the epoch → fresh simulation
    let epoch_before = svc.pnfs.engine().epoch();
    let (s3, body3) =
        get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "ts=1336111230&value=170.0");
    assert_eq!(s3, 200, "{body3}");
    let v = Value::parse(&body3).unwrap();
    assert_eq!(v["ok"].as_bool(), Some(true));
    assert_eq!(svc.pnfs.engine().epoch(), epoch_before + 1);
    assert_eq!(svc.pnfs.engine().cache_len(), 0, "stale results purged");

    let (s4, body4) = get(&svc, "/pilgrim/select_fastest/g5k_test", query);
    assert_eq!(s4, 200);
    assert_eq!(
        svc.pnfs.engine().cache_hits(),
        1,
        "post-bump query must re-simulate, not hit"
    );
    // no background changed, so the *answer* is still the same — only
    // the cache entry had to be recomputed
    assert_eq!(body1, body4);
}

#[test]
fn rrd_update_error_paths() {
    let svc = service();
    // unknown RRD: 404, and the epoch must NOT advance
    let before = svc.pnfs.engine().epoch();
    let (s, _) = get(&svc, "/pilgrim/rrd_update/ghost.rrd", "ts=1&value=2");
    assert_eq!(s, 404);
    assert_eq!(svc.pnfs.engine().epoch(), before, "failed update must not bump");
    // malformed parameters: 400
    assert_eq!(get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "value=2").0, 400);
    assert_eq!(get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "ts=1").0, 400);
    assert_eq!(
        get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "ts=1&value=nope").0,
        400
    );
}
