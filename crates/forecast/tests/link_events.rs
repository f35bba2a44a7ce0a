//! Serving-time platform dynamics: `link_event` must degrade every
//! later forecast of routes the event can touch, invalidate exactly the
//! crossing cache entries (disjoint routes keep hitting), and round-trip
//! restores back to bit-identical pre-event answers.

use forecast::{ForecastEngine, ForecastError, TransferSpec};
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::platform::SharingPolicy;
use simflow::{NetworkConfig, Platform, PlatformEventKind, SimTime, Simulation};

/// Two 8-host clusters behind per-host access links and one shared
/// backbone (same topology as the engine integration tests).
fn two_clusters() -> Platform {
    let mut b = PlatformBuilder::new("root", RoutingKind::Full);
    let root = b.root_zone();
    let bb = b.add_link("bb", 1.25e9, 2e-3, SharingPolicy::Shared);
    let mut zones = Vec::new();
    for cluster in ["alpha", "beta"] {
        let zone = b.add_zone(root, cluster, RoutingKind::Full);
        let gw = b.add_router(zone, &format!("{cluster}-gw"));
        b.set_gateway(zone, gw);
        let mut hosts = Vec::new();
        let mut eths = Vec::new();
        for h in 0..8 {
            let host = b.add_host(zone, &format!("{cluster}-{h}"), 1e9);
            let l = b.add_link(
                &format!("{cluster}-{h}-eth"),
                1.25e8,
                1e-4,
                SharingPolicy::Shared,
            );
            b.add_route(zone, Element::Point(host.netpoint()), Element::Point(gw), vec![l], true);
            hosts.push(host);
            eths.push(l);
        }
        for i in 0..hosts.len() {
            for j in (i + 1)..hosts.len() {
                b.add_route(
                    zone,
                    Element::Point(hosts[i].netpoint()),
                    Element::Point(hosts[j].netpoint()),
                    vec![eths[i], eths[j]],
                    true,
                );
            }
        }
        zones.push(zone);
    }
    b.add_route(root, Element::Zone(zones[0]), Element::Zone(zones[1]), vec![bb], true);
    b.build().unwrap()
}

fn spec(src: &str, dst: &str, size: f64) -> TransferSpec {
    TransferSpec { src: src.into(), dst: dst.into(), size }
}

fn engine() -> ForecastEngine {
    let e = ForecastEngine::new(NetworkConfig::default());
    e.register_platform("twoc", two_clusters());
    e
}

/// Reference: a from-scratch simulation on a platform whose capacity
/// vector has the event applied by hand.
fn reference(events: &[(&str, f64)], specs: &[TransferSpec]) -> Vec<f64> {
    let p = two_clusters();
    let cfg = NetworkConfig::default();
    let mut caps = Simulation::shared_capacities(&p, &cfg);
    for (link, factor) in events {
        caps[p.link_by_name(link).unwrap().index()] *= factor;
    }
    let mut sim = Simulation::with_capacities(&p, cfg, caps);
    let ids: Vec<_> = specs
        .iter()
        .map(|s| {
            sim.add_transfer_at(
                p.host_by_name(&s.src).unwrap(),
                p.host_by_name(&s.dst).unwrap(),
                s.size,
                SimTime::ZERO,
            )
            .unwrap()
        })
        .collect();
    let report = sim.run().unwrap();
    ids.iter().map(|id| report.duration(*id).as_secs()).collect()
}

#[test]
fn link_event_invalidates_crossing_entries_only() {
    let e = engine();
    let on_alpha = vec![spec("alpha-0", "alpha-1", 5e8)];
    let on_beta = vec![spec("beta-0", "beta-1", 5e8)];
    let quiet_alpha = e.predict("twoc", &on_alpha).unwrap().durations[0];
    let quiet_beta = e.predict("twoc", &on_beta).unwrap().durations[0];
    assert_eq!(e.simulations(), 2);

    // Halve alpha-0's access link: exactly the alpha entry is evicted.
    let evicted = e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Capacity(0.5)).unwrap();
    assert_eq!(evicted, 1, "one crossing entry");
    assert_eq!(e.invalidated_targeted(), 1);

    // The disjoint beta query still hits its pre-event entry: the event
    // evicted only entries whose routes cross the link.
    let hits_before = e.cache_hits();
    let beta_again = e.predict("twoc", &on_beta).unwrap().durations[0];
    assert_eq!(beta_again.to_bits(), quiet_beta.to_bits());
    assert_eq!(e.cache_hits(), hits_before + 1, "disjoint route must still hit");
    assert_eq!(e.simulations(), 2, "no re-simulation for the disjoint route");

    // The crossing query re-simulates and matches the from-scratch
    // reference on the degraded platform, bit for bit.
    let degraded = e.predict("twoc", &on_alpha).unwrap().durations[0];
    assert_eq!(e.simulations(), 3);
    let want = reference(&[("alpha-0-eth", 0.5)], &on_alpha)[0];
    assert_eq!(degraded.to_bits(), want.to_bits(), "degraded forecast diverged");
    assert!(degraded > quiet_alpha, "half capacity must slow the transfer");

    // Restore: the overlay entry disappears, the platform is pristine
    // again, and the forecast is bit-identical to quiet.
    let evicted = e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Capacity(1.0)).unwrap();
    assert_eq!(evicted, 1, "the degraded entry crosses the link too");
    let session = e.session("twoc").unwrap();
    assert_eq!(session.overlay_len(), 0, "identity entries are removed");
    let restored = e.predict("twoc", &on_alpha).unwrap().durations[0];
    assert_eq!(restored.to_bits(), quiet_alpha.to_bits());
}

#[test]
fn down_fails_crossing_transfers_and_up_restores_exactly() {
    let e = engine();
    let on_alpha = vec![spec("alpha-0", "alpha-1", 5e8)];
    let quiet = e.predict("twoc", &on_alpha).unwrap().durations[0];

    e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Down).unwrap();
    let dead = e.predict("twoc", &on_alpha).unwrap().durations[0];
    assert!(dead.is_infinite(), "a transfer over a dead link cannot complete: {dead}");

    // Selection routes around the outage: the dead hypothesis loses to a
    // live one whatever its size advantage.
    let hypotheses = vec![
        vec![spec("alpha-0", "alpha-1", 1e6)], // tiny but dead
        vec![spec("alpha-2", "alpha-3", 5e8)],
    ];
    let sel = e.select_fastest("twoc", &hypotheses).unwrap();
    assert_eq!(sel.best, 1, "the live hypothesis must win");
    assert!(sel.best_makespan.is_finite());

    e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Up).unwrap();
    let restored = e.predict("twoc", &on_alpha).unwrap().durations[0];
    assert_eq!(restored.to_bits(), quiet.to_bits(), "recovery must be exact");
}

#[test]
fn link_event_error_surface() {
    let e = engine();
    assert!(matches!(
        e.link_event("nope", "bb", PlatformEventKind::Down),
        Err(ForecastError::UnknownPlatform(_))
    ));
    assert!(matches!(
        e.link_event("twoc", "ghost-link", PlatformEventKind::Down),
        Err(ForecastError::UnknownLink(_))
    ));
    assert!(matches!(
        e.link_event("twoc", "bb", PlatformEventKind::Capacity(-1.0)),
        Err(ForecastError::BadFactor(_))
    ));
    assert!(matches!(
        e.link_event("twoc", "bb", PlatformEventKind::Capacity(f64::NAN)),
        Err(ForecastError::BadFactor(_))
    ));
    // A factor of zero would stall every later forecast over the link;
    // `Down` is the way to take a link out.
    assert!(matches!(
        e.link_event("twoc", "bb", PlatformEventKind::Capacity(0.0)),
        Err(ForecastError::BadFactor(_))
    ));
    // So would a subnormal one: a transfer's finish time overflows.
    assert!(matches!(
        e.link_event("twoc", "bb", PlatformEventKind::Capacity(1e-320)),
        Err(ForecastError::BadFactor(_))
    ));
    assert!(e.link_event("twoc", "bb", PlatformEventKind::Capacity(1.0)).is_ok());
}

#[test]
fn warm_session_applies_events_without_rebuild() {
    // The same session object keeps serving across a whole
    // degrade/restore cycle, its overlay back to pristine at the end.
    let e = engine();
    let q = vec![spec("alpha-0", "beta-3", 5e8)];
    let quiet = e.predict("twoc", &q).unwrap().durations[0];
    // asked again: a cache hit
    assert_eq!(e.predict("twoc", &q).unwrap().durations[0].to_bits(), quiet.to_bits());
    assert_eq!(e.simulations(), 1);
    let session = e.session("twoc").unwrap();

    // 0.05 × 1.25e9 = 6.25e7 B/s — below the 1.25e8 access links, so
    // the backbone genuinely binds.
    e.link_event("twoc", "bb", PlatformEventKind::Capacity(0.05)).unwrap();
    let degraded = e.predict("twoc", &q).unwrap().durations[0];
    let want = reference(&[("bb", 0.05)], &q)[0];
    assert_eq!(degraded.to_bits(), want.to_bits());
    assert!(degraded > quiet);

    e.link_event("twoc", "bb", PlatformEventKind::Capacity(1.0)).unwrap();
    let restored = e.predict("twoc", &q).unwrap().durations[0];
    assert_eq!(restored.to_bits(), quiet.to_bits());

    let same_session = e.session("twoc").unwrap();
    assert!(std::sync::Arc::ptr_eq(&session, &same_session), "no session rebuild");
    assert_eq!(same_session.overlay_len(), 0, "a restored link leaves no overlay entry");
    assert_eq!(e.simulations(), 3, "each event evicted the answer, which re-simulated once");
}
