//! Semantics of the served forecast path (warm session, cache) against
//! the sequential reference: identical winners on randomized hypothesis
//! sets, exactly the simulations the prune loop needs, bit-identical
//! JSON on cache hits, and a cache that new metrology data leaves whole
//! (no forecast reads it).

use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::http::Request;
use pilgrim_core::{Metrology, PilgrimService, Pnfs, TransferRequest};
use rrd::{ArchiveSpec, Cf, Database, DsKind};
use seeded::SmallRng;
use simflow::{NetworkConfig, PlatformEventKind, SimTime, Simulation};

fn served_pnfs() -> Pnfs {
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    pnfs
}

fn random_hypotheses(rng: &mut SmallRng, n_hyp: usize) -> Vec<Vec<TransferRequest>> {
    let clusters = ["sagittaire", "capricorne", "graphene", "griffon"];
    let sites = ["lyon", "lyon", "nancy", "nancy"];
    (0..n_hyp)
        .map(|_| {
            (0..1 + rng.gen_range(0..5))
                .map(|_| {
                    let cs = rng.gen_range(0..4);
                    let cd = rng.gen_range(0..4);
                    TransferRequest {
                        src: format!(
                            "{}-{}.{}.grid5000.fr",
                            clusters[cs],
                            1 + rng.gen_range(0..30),
                            sites[cs]
                        ),
                        dst: format!(
                            "{}-{}.{}.grid5000.fr",
                            clusters[cd],
                            1 + rng.gen_range(0..30),
                            sites[cd]
                        ),
                        size: 1e7 * (1 + rng.gen_range(0..200)) as f64,
                    }
                })
                .collect()
        })
        .collect()
}

#[test]
fn pooled_select_matches_reference_on_randomized_sets() {
    let pnfs = served_pnfs();
    let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
    for round in 0..6 {
        let n_hyp = 8 + rng.gen_range(0..5);
        let hypotheses = random_hypotheses(&mut rng, n_hyp);
        let served = pnfs.select_fastest("g5k_test", &hypotheses).unwrap();
        let reference = pnfs.select_fastest_reference("g5k_test", &hypotheses).unwrap();
        assert_eq!(served.best, reference.best, "round {round}: winner diverged");
        assert_eq!(
            served.best_makespan.to_bits(),
            reference.best_makespan.to_bits(),
            "round {round}: makespan diverged"
        );
        assert_eq!(served.pruned, reference.pruned, "round {round}: pruned set diverged");
        for (p, r) in served.predictions.iter().zip(&reference.predictions) {
            assert_eq!(p.duration.to_bits(), r.duration.to_bits(), "round {round}");
        }
    }
}

fn sagittaire(i: usize) -> String {
    format!("sagittaire-{i}.lyon.grid5000.fr")
}

fn transfer(src: usize, dst: usize, size: f64) -> TransferRequest {
    TransferRequest { src: sagittaire(src), dst: sagittaire(dst), size }
}

#[test]
fn select_simulates_exactly_the_hypotheses_the_prune_loop_needs() {
    // Eight hypotheses, listed out of lower-bound order. In that order:
    // `fan4` and `fan3` share a source NIC, so their bounds (one transfer
    // alone) are low and their makespans high — both are simulated, and
    // so is `spread`, whose makespan ≈ its bound becomes the best. Every
    // lone transfer after it has a bound above that makespan: pruned,
    // the cheapest of them (`lone[0]`) included, which a look-ahead of
    // even one hypothesis would have simulated.
    let fan4: Vec<_> = (2..6).map(|d| transfer(1, d, 4e8)).collect();
    let fan3: Vec<_> = (7..10).map(|d| transfer(6, d, 4.5e8)).collect();
    let spread = vec![transfer(10, 11, 5e8), transfer(12, 13, 5e8)];
    let lone: Vec<Vec<_>> =
        (0..5).map(|k| vec![transfer(14 + 2 * k, 15 + 2 * k, 5.5e8 + 1e8 * k as f64)]).collect();
    let mut hypotheses = vec![lone[4].clone(), lone[0].clone(), fan3, lone[2].clone()];
    hypotheses.extend([spread, lone[1].clone(), fan4, lone[3].clone()]);

    let pnfs = served_pnfs();
    let session = pnfs.engine().session("g5k_test").unwrap();
    let k = session.kernel_metrics();
    let work = || (k.reshares.get(), k.calendar_pops.get(), k.components_solved.get());
    assert_eq!(work(), (0, 0, 0));

    let served = pnfs.select_fastest("g5k_test", &hypotheses).unwrap();
    let counted = work();

    // Bit-identical to the oracle (which folds nothing into the session).
    let reference = pnfs.select_fastest_reference("g5k_test", &hypotheses).unwrap();
    assert_eq!(work(), counted);
    assert_eq!(served.best, 4, "spread wins");
    assert_eq!(served.best, reference.best);
    assert_eq!(served.best_makespan.to_bits(), reference.best_makespan.to_bits());
    assert_eq!(served.predictions, reference.predictions);
    assert_eq!(served.pruned, [0, 1, 3, 5, 7], "every lone transfer is pruned");
    assert_eq!(served.pruned, reference.pruned);

    // The session's kernel did the work of the three simulated
    // hypotheses' from-scratch runs and not one reshare more.
    let p = session.platform();
    let mut want = (0, 0, 0);
    for (i, h) in hypotheses.iter().enumerate() {
        if served.pruned.contains(&i) {
            continue;
        }
        let mut sim = Simulation::new(p, NetworkConfig::default());
        for t in h {
            let (src, dst) = (p.host_by_name(&t.src).unwrap(), p.host_by_name(&t.dst).unwrap());
            sim.add_transfer_at(src, dst, t.size, SimTime::ZERO).unwrap();
        }
        let stats = sim.run().unwrap().stats;
        want.0 += stats.reshares;
        want.1 += stats.calendar_pops;
        want.2 += stats.solver.components_solved;
    }
    assert_eq!(counted, want);
}

#[test]
fn raised_capacity_does_not_prune_the_true_winner() {
    // `link_event` accepts factors above 1. With both of A's NICs at 4×,
    // A finishes long before B, although A's *nominal* bound (5e8 B over
    // a 1 Gb/s NIC) is above B's simulated makespan: a bound that
    // ignored the overlay would simulate B first and prune A unseen.
    let a = vec![transfer(1, 2, 5e8)];
    let b = vec![transfer(3, 4, 4.5e8)];
    let mut reference = Pnfs::sequential_reference(NetworkConfig::default());
    reference.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    for (which, pnfs) in [("served", served_pnfs()), ("reference", reference)] {
        for host in [1, 2] {
            let nic = format!("{}-nic", sagittaire(host));
            pnfs.link_event("g5k_test", &nic, PlatformEventKind::Capacity(4.0)).unwrap();
        }
        let alone_a = pnfs.predict("g5k_test", &a).unwrap()[0].duration;
        let alone_b = pnfs.predict("g5k_test", &b).unwrap()[0].duration;
        assert!(alone_a < 0.5 * alone_b, "4x NICs make A the clear winner: {alone_a} vs {alone_b}");

        let sel = pnfs.select_fastest("g5k_test", &[a.clone(), b.clone()]).unwrap();
        assert_eq!(sel.best, 0, "{which}: the faster hypothesis wins");
        assert_eq!(sel.best_makespan.to_bits(), alone_a.to_bits(), "{which}");
        assert_eq!(sel.pruned, [1], "{which}: B's bound is above A's makespan");
    }
}

#[test]
fn pooled_predict_matches_reference_on_randomized_batches() {
    let pnfs = served_pnfs();
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for round in 0..6 {
        let batch = random_hypotheses(&mut rng, 1).pop().unwrap();
        let served = pnfs.predict("g5k_test", &batch).unwrap();
        let reference = pnfs.predict_reference("g5k_test", &batch).unwrap();
        for (p, r) in served.iter().zip(&reference) {
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
    PilgrimService::new(metrology, served_pnfs())
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
    let served = service();
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
            assert_eq!(get(&served, path, query), (200, want.clone()), "after {after} on {path}");
            bodies.push(want);
        }
    };
    compare("no event");
    for event in ["factor=0.1", "state=down", "state=up", "factor=1"] {
        for svc in [&served, &sequential] {
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
fn cache_hit_returns_bit_identical_json_and_an_rrd_update_evicts_nothing() {
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

    // new metrology data is stored; no forecast reads it, so nothing is
    // evicted
    let (s3, body3) =
        get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "ts=1336111230&value=170.0");
    assert_eq!(s3, 200, "{body3}");
    assert_eq!(body3, r#"{"ok":true}"#);
    assert_eq!(svc.pnfs.engine().cache_len(), 1, "the update evicts nothing");

    let (s4, body4) = get(&svc, "/pilgrim/select_fastest/g5k_test", query);
    assert_eq!(s4, 200);
    assert_eq!(svc.pnfs.engine().cache_hits(), 2, "the query after the update is a hit");
    assert_eq!(svc.pnfs.engine().simulations(), 1, "and simulates nothing");
    assert_eq!(body1, body4);
}

#[test]
fn rrd_update_error_paths() {
    let svc = service();
    // unknown RRD: 404, and the cache is left as it was
    let q = "transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8";
    assert_eq!(get(&svc, "/pilgrim/predict_transfers/g5k_test", q).0, 200);
    let (s, _) = get(&svc, "/pilgrim/rrd_update/ghost.rrd", "ts=1&value=2");
    assert_eq!(s, 404);
    assert_eq!(svc.pnfs.engine().cache_len(), 1, "a failed update evicts nothing");
    // malformed parameters: 400
    assert_eq!(get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "value=2").0, 400);
    assert_eq!(get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "ts=1").0, 400);
    assert_eq!(
        get(&svc, "/pilgrim/rrd_update/ganglia/Lyon/net.rrd", "ts=1&value=nope").0,
        400
    );
}
