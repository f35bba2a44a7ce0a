//! Integration tests of the forecast engine against a synthetic
//! multi-cluster platform: answers must equal from-scratch kernel runs,
//! sessions must actually stay warm, and a repeated query must hit the
//! cache.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use forecast::{
    Fault, FaultInjector, FaultPlan, ForecastEngine, ForecastError, Session, TransferSpec,
};
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::platform::SharingPolicy;
use simflow::{KernelStats, NetworkConfig, Platform, PlatformEventKind, SimTime, Simulation};

/// Two 8-host clusters behind per-host access links and one shared
/// backbone — enough structure for multi-component batches.
fn two_clusters() -> Platform {
    two_clusters_with_backbone(1.25e9)
}

/// [`two_clusters`] with a backbone of `bandwidth` bytes/s: the same
/// hosts, links and ids, one capacity apart.
fn two_clusters_with_backbone(bandwidth: f64) -> Platform {
    let mut b = PlatformBuilder::new("root", RoutingKind::Full);
    let root = b.root_zone();
    let bb = b.add_link("bb", bandwidth, 2e-3, SharingPolicy::Shared);
    let mut gws = Vec::new();
    for (c, cluster) in ["alpha", "beta"].iter().enumerate() {
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
        // full intra-cluster routing: both access links per pair
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
        gws.push(zone);
        let _ = c;
    }
    b.add_route(root, Element::Zone(gws[0]), Element::Zone(gws[1]), vec![bb], true);
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

/// The engine's reference: one from-scratch simulation of the same
/// batch — durations in request order, plus the kernel work it took.
fn from_scratch(specs: &[TransferSpec]) -> (Vec<f64>, KernelStats) {
    let p = two_clusters();
    let mut sim = Simulation::new(&p, NetworkConfig::default());
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
    (ids.iter().map(|id| report.duration(*id).as_secs()).collect(), report.stats)
}

fn monolithic(specs: &[TransferSpec]) -> Vec<f64> {
    from_scratch(specs).0
}

#[test]
fn predict_is_bit_identical_to_a_from_scratch_kernel_run() {
    // 10 transfers forming several link-disjoint components: intra-alpha
    // pairs, intra-beta pairs, inter-cluster flows (coupled through the
    // backbone) and a same-host no-op.
    let specs = vec![
        spec("alpha-0", "alpha-1", 5e8),
        spec("alpha-2", "alpha-3", 2e8),
        spec("beta-0", "beta-1", 7e8),
        spec("alpha-4", "beta-4", 3e8),
        spec("alpha-5", "beta-5", 3e8),
        spec("beta-2", "beta-3", 1e8),
        spec("alpha-0", "alpha-1", 1e7),
        spec("beta-6", "beta-7", 9e8),
        spec("alpha-6", "alpha-7", 4e8),
        spec("alpha-6", "alpha-6", 1e9), // same host: unconstrained
    ];
    let want = monolithic(&specs);
    let got = engine().predict("twoc", &specs).unwrap();
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert_eq!(g.to_bits(), w.to_bits(), "{g} vs {w}");
    }
}

#[test]
fn predict_runs_one_kernel_on_the_calling_thread() {
    // Five link-disjoint components. One leader computation must be one
    // kernel run: the session's counters advance by exactly the work of
    // a from-scratch simulation of the batch (a kernel per component
    // would pop and reshare differently).
    let specs = vec![
        spec("alpha-0", "alpha-1", 5e8),
        spec("alpha-2", "alpha-3", 2e8),
        spec("beta-0", "beta-1", 7e8),
        spec("beta-2", "beta-3", 1e8),
        spec("alpha-4", "beta-4", 3e8),
        spec("alpha-0", "alpha-1", 1e7),
    ];
    let e = engine();
    let session = e.session("twoc").unwrap();
    let k = session.kernel_metrics();
    let work = || (k.reshares.get(), k.calendar_pops.get(), k.components_solved.get());
    assert_eq!(work(), (0, 0, 0));

    e.predict("twoc", &specs).unwrap();

    let stats = from_scratch(&specs).1;
    assert_eq!(work(), (stats.reshares, stats.calendar_pops, stats.solver.components_solved));
}

#[test]
fn select_fastest_winner_is_worker_count_invariant() {
    // Randomized hypothesis sets (deterministic LCG). There is one
    // selection loop and no worker count left to vary, so the answer is
    // held to the specification instead: against from-scratch runs of
    // *every* hypothesis, pruned ones included, the winner's makespan is
    // the minimum and its durations are its own run's.
    let mut state = 0x2545F4914F6CDD1Du64;
    let mut next = move |m: usize| {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    for round in 0..5 {
        let n_hyp = 4 + next(5); // 4..8 hypotheses
        let hypotheses: Vec<Vec<TransferSpec>> = (0..n_hyp)
            .map(|_| {
                (0..1 + next(4))
                    .map(|_| {
                        let cs = ["alpha", "beta"][next(2)];
                        let cd = ["alpha", "beta"][next(2)];
                        spec(
                            &format!("{cs}-{}", next(8)),
                            &format!("{cd}-{}", next(8)),
                            1e7 * (1 + next(100)) as f64,
                        )
                    })
                    .collect()
            })
            .collect();
        let sel = engine().select_fastest("twoc", &hypotheses).unwrap();
        let runs: Vec<Vec<f64>> = hypotheses.iter().map(|h| monolithic(h)).collect();
        let makespans: Vec<f64> =
            runs.iter().map(|d| d.iter().copied().fold(0.0, f64::max)).collect();
        let fastest = makespans.iter().copied().fold(f64::INFINITY, f64::min);
        assert_eq!(makespans[sel.best].to_bits(), fastest.to_bits(), "round {round}: winner");
        assert_eq!(sel.best_makespan.to_bits(), fastest.to_bits(), "round {round}: makespan");
        assert_eq!(sel.durations, runs[sel.best], "round {round}");
        assert!(!sel.pruned.contains(&sel.best), "round {round}: winner pruned");
    }
}

#[test]
fn session_stays_warm_across_queries() {
    let e = engine();
    let q = vec![spec("alpha-0", "beta-3", 5e8), spec("alpha-1", "alpha-2", 5e8)];
    e.predict("twoc", &q).unwrap();
    let platform = e.platform("twoc").unwrap();
    let cold = platform.route_memo_stats();
    assert!(cold.entries > 0, "the cross-cluster route filled the platform's memo");
    // asked again: a hit, which resolves no route and simulates nothing
    e.predict("twoc", &q).unwrap();
    assert_eq!((e.cache_hits(), e.simulations()), (1, 1));
    assert_eq!(platform.route_memo_stats(), cold, "a hit resolves no route");
    // same endpoints, different sizes: simulated, on memoized routes
    let q2 = vec![spec("alpha-0", "beta-3", 1e6), spec("alpha-1", "alpha-2", 2e6)];
    e.predict("twoc", &q2).unwrap();
    let warm = platform.route_memo_stats();
    assert_eq!((warm.entries, warm.links), (cold.entries, cold.links), "no new memo entry");
    assert!(warm.hits > cold.hits, "the cross-cluster route came from the memo");
    assert_eq!(e.simulations(), 2);
}

/// What `Pnfs::predict_reference` computes: the batch, in order, on a
/// `Session::simulation()` — a fresh scratch of the platform as the link
/// events so far left it — with a failed transfer reported as infinite.
fn reference(session: &Session, specs: &[TransferSpec]) -> Vec<f64> {
    let mut sim = session.simulation();
    let ids: Vec<_> = specs
        .iter()
        .map(|s| {
            let (src, dst) = (session.host(&s.src).unwrap(), session.host(&s.dst).unwrap());
            sim.add_transfer_at(src, dst, s.size, SimTime::ZERO).unwrap()
        })
        .collect();
    let report = sim.run().unwrap();
    ids.iter()
        .map(|id| {
            let c = report.completion(*id);
            if c.failed() {
                f64::INFINITY
            } else {
                c.duration().as_secs()
            }
        })
        .collect()
}

#[test]
fn served_answers_equal_the_reference_across_link_events() {
    // Every forecast after the first runs on the scratch the previous
    // one left behind, reset; the reference always starts fresh. Events
    // change which resources a reset has to restore: a degraded access
    // link, a dead backbone (Fail), and both restored.
    let e = engine();
    let session = e.session("twoc").unwrap();
    let across = vec![spec("alpha-0", "beta-0", 4e8), spec("alpha-1", "beta-1", 2e8)];
    let local = vec![spec("alpha-0", "alpha-2", 3e8), spec("beta-4", "beta-5", 1e8)];
    let check = |specs: &[TransferSpec], label: &str| {
        let got = e.predict("twoc", specs).unwrap();
        let want = reference(&session, specs);
        let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{label}: {got:?} vs {want:?}");
        got
    };
    let quiet = check(&across, "quiet");
    check(&local, "quiet, recycled");
    e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Capacity(0.5)).unwrap();
    let degraded = check(&across, "alpha-0-eth halved");
    assert!(degraded[0] > quiet[0]);
    check(&local, "alpha-0-eth halved, local");
    e.link_event("twoc", "bb", PlatformEventKind::Down).unwrap();
    assert!(check(&across, "bb down").iter().all(|d| d.is_infinite()));
    check(&local, "bb down, local");
    e.link_event("twoc", "bb", PlatformEventKind::Up).unwrap();
    e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Capacity(1.0)).unwrap();
    assert_eq!(check(&across, "restored"), quiet);
}

#[test]
fn identical_and_textually_equal_queries_hit_the_cache() {
    let e = engine();
    let q = vec![spec("alpha-0", "alpha-1", 5e8)];
    let first = e.predict("twoc", &q).unwrap();
    assert_eq!(e.cache_hits(), 0);
    let second = e.predict("twoc", &q).unwrap();
    assert_eq!(e.cache_hits(), 1, "second identical query must hit");
    assert_eq!(first, second);
    // textual variants of the same query share the entry
    let q_canonical = vec![spec("alpha-0", "alpha-1", 500_000_000.0)];
    e.predict("twoc", &q_canonical).unwrap();
    assert_eq!(e.cache_hits(), 2);
    assert_eq!((e.cache_len(), e.simulations()), (1, 1));
}

#[test]
fn re_registering_a_platform_name_serves_the_new_platform() {
    let e = engine();
    let q = vec![spec("alpha-0", "beta-0", 5e8), spec("alpha-1", "beta-1", 5e8)];
    let old = e.predict("twoc", &q).unwrap();
    // a tenth of the backbone: now the bottleneck of both transfers
    e.register_platform("twoc", two_clusters_with_backbone(1.25e8));
    let new = e.predict("twoc", &q).unwrap();

    let fresh = ForecastEngine::new(NetworkConfig::default());
    fresh.register_platform("twoc", two_clusters_with_backbone(1.25e8));
    assert_eq!(*new, *fresh.predict("twoc", &q).unwrap(), "answers as a fresh engine does");
    assert_ne!(new, old, "the slower backbone shows in the forecast");
    assert_eq!((e.simulations(), e.cache_hits()), (2, 0));
    assert_eq!(e.cache_len(), 1, "the replaced platform's forecast was dropped");
}

#[test]
fn a_forecast_of_a_replaced_platform_is_never_filed() {
    let e = Arc::new(engine());
    // The first leader computation re-registers its platform from
    // inside, after its key was built and before it simulates.
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(0).force(0, Fault::Flap)));
    let weak = Arc::downgrade(&e);
    injector.set_flap_hook(Some(Box::new(move |_| {
        let e = weak.upgrade().expect("the engine outlives its computations");
        e.register_platform("twoc", two_clusters());
    })));
    e.set_fault_injector(Some(injector));
    let q = vec![spec("alpha-0", "alpha-1", 5e8)];
    let answer = e.predict("twoc", &q).unwrap();
    assert_eq!(e.cache_len(), 0, "a result of a replaced session must not be filed");

    let again = e.predict("twoc", &q).unwrap();
    assert_eq!(e.simulations(), 2, "the next identical predict simulates again");
    assert_eq!(e.cache_len(), 1, "and the current session's result is filed");
    assert_eq!(again, answer, "the same platform, the same answer");
}

#[test]
fn a_forecast_computed_across_a_link_event_is_never_filed() {
    let e = Arc::new(engine());
    // The first leader computation halves alpha-0's access link from
    // inside, after its overlay version was read and before it simulates.
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(0).force(0, Fault::Flap)));
    let weak = Arc::downgrade(&e);
    injector.set_flap_hook(Some(Box::new(move |_| {
        let e = weak.upgrade().expect("the engine outlives its computations");
        e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Capacity(0.5)).unwrap();
    })));
    e.set_fault_injector(Some(injector));
    let q = vec![spec("alpha-0", "alpha-1", 5e8)];
    e.predict("twoc", &q).unwrap();
    assert_eq!(e.cache_len(), 0, "a result computed across a link event must not be filed");

    let again = e.predict("twoc", &q).unwrap();
    assert_eq!(e.simulations(), 2, "the next identical predict simulates again");
    assert_eq!(e.cache_len(), 1, "and its result is filed");
    let want = reference(&e.session("twoc").unwrap(), &q);
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&again), bits(&want), "the degraded platform's answer, bit for bit");
    assert!(again[0] > monolithic(&q)[0], "half capacity slows the transfer");
}

#[test]
fn answers_filed_while_a_link_flaps_are_those_of_the_current_overlay() {
    let e = Arc::new(engine());
    let q = vec![spec("alpha-0", "alpha-1", 5e8)];
    let session = e.session("twoc").unwrap();
    let bits = |v: &[f64]| v.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
    let stop = Arc::new(AtomicBool::new(false));
    let askers: Vec<_> = (0..3)
        .map(|_| {
            let (e, q, stop) = (Arc::clone(&e), q.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    e.predict("twoc", &q).unwrap();
                }
            })
        })
        .collect();
    for flip in 0..200 {
        // Two events back to back: the first empties the cache, so the
        // askers are computing while the second one lands.
        for factor in [0.5, 0.25] {
            e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Capacity(factor)).unwrap();
        }
        // Only this thread sends events, so the overlay holds still until
        // the next flip: whatever the cache serves now must be its answer.
        let want = bits(&reference(&session, &q));
        for _ in 0..3 {
            assert_eq!(bits(&e.predict("twoc", &q).unwrap()), want, "flip {flip}");
        }
    }
    stop.store(true, Ordering::Relaxed);
    for asker in askers {
        asker.join().unwrap();
    }
}

#[test]
fn a_request_that_saw_a_link_event_joins_no_flight_from_before_it() {
    let e = Arc::new(engine());
    let q = vec![spec("alpha-0", "alpha-1", 5e8)];
    // The first leader computation halves alpha-0's access link, then
    // lets the same query arrive from another thread and waits (bounded)
    // for its answer. That request read the new overlay version, so it
    // must compute on its own rather than wait for this leader.
    let injector = Arc::new(FaultInjector::new(FaultPlan::new(0).force(0, Fault::Flap)));
    let late = Arc::new(std::sync::Mutex::new(None));
    let (weak, late_hook, q_hook) = (Arc::downgrade(&e), Arc::clone(&late), q.clone());
    injector.set_flap_hook(Some(Box::new(move |_| {
        let e = weak.upgrade().expect("the engine outlives its computations");
        e.link_event("twoc", "alpha-0-eth", PlatformEventKind::Capacity(0.5)).unwrap();
        let q = q_hook.clone();
        let request = std::thread::spawn(move || e.predict("twoc", &q).unwrap());
        for _ in 0..200 {
            if request.is_finished() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        *late_hook.lock().unwrap() = Some(request);
    })));
    e.set_fault_injector(Some(injector));
    e.predict("twoc", &q).unwrap();
    let request = late.lock().unwrap().take().expect("the hook ran");
    assert!(request.is_finished(), "the later request waited for the earlier leader");
    let answer = request.join().unwrap();
    assert_eq!((e.simulations(), e.coalesced()), (2, 0), "two leaders, no follower");
    assert_eq!(e.cache_len(), 1, "only the later request's result is filed");
    let want = reference(&e.session("twoc").unwrap(), &q);
    assert_eq!(answer[0].to_bits(), want[0].to_bits(), "it answers for the halved link");
}

#[test]
fn error_surface_matches_inputs() {
    let e = engine();
    assert!(matches!(
        e.predict("nope", &[spec("a", "b", 1.0)]),
        Err(ForecastError::UnknownPlatform(_))
    ));
    assert!(matches!(
        e.predict("twoc", &[spec("ghost", "alpha-0", 1.0)]),
        Err(ForecastError::UnknownHost(_))
    ));
    assert!(matches!(
        e.predict("twoc", &[spec("alpha-0", "alpha-1", -5.0)]),
        Err(ForecastError::BadSize(_))
    ));
    assert!(matches!(
        e.select_fastest("twoc", &[]),
        Err(ForecastError::NoHypotheses)
    ));
    // an empty hypothesis would win with makespan 0: refused, by index
    assert_eq!(
        e.select_fastest("twoc", &[vec![spec("alpha-0", "alpha-1", 1e8)], vec![]]),
        Err(ForecastError::EmptyHypothesis(1))
    );
    // errors are not cached
    assert_eq!(e.cache_len(), 0);
}

fn hypotheses() -> Vec<Vec<TransferSpec>> {
    vec![
        vec![spec("alpha-0", "alpha-1", 5e8), spec("alpha-2", "alpha-3", 2e8)],
        vec![spec("beta-0", "beta-1", 7e8)],
        vec![spec("alpha-4", "beta-4", 3e8)],
    ]
}

#[test]
fn concurrent_identical_selects_coalesce_to_one_simulation() {
    let e = Arc::new(engine());
    // Slow the leader computation down so every follower is parked on
    // the flight before it completes: deterministic coalescing counts.
    e.set_fault_injector(Some(Arc::new(FaultInjector::new(
        FaultPlan::new(0)
            .force(0, Fault::Delay(Duration::from_millis(500)))
            .force(1, Fault::Delay(Duration::from_millis(500))),
    ))));
    let n = 6;
    let barrier = Arc::new(Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|_| {
            let e = Arc::clone(&e);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                e.select_fastest("twoc", &hypotheses()).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(e.simulations(), 1, "exactly one leader computation");
    assert_eq!(e.coalesced(), (n - 1) as u64, "everyone else joined the flight");
    for r in &results[1..] {
        assert!(Arc::ptr_eq(r, &results[0]), "followers share the leader's Arc");
        assert_eq!(**r, *results[0]);
    }
    // same for predict: one more simulation, N-1 more coalesces
    let batch = vec![spec("alpha-0", "beta-3", 5e8)];
    let barrier = Arc::new(Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|_| {
            let e = Arc::clone(&e);
            let batch = batch.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                e.predict("twoc", &batch).unwrap()
            })
        })
        .collect();
    let durations: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    assert_eq!(e.simulations(), 2);
    assert_eq!(e.coalesced(), 2 * (n - 1) as u64);
    for d in &durations[1..] {
        assert_eq!(**d, *durations[0]);
    }
}

#[test]
fn leader_panic_fails_followers_cleanly_and_engine_recovers() {
    let e = Arc::new(engine());
    // The first leader computation panics after 300 ms — long enough for
    // every follower to be waiting on the flight when it dies.
    e.set_fault_injector(Some(Arc::new(FaultInjector::new(
        FaultPlan::new(0).force(0, Fault::Panic { after: Duration::from_millis(300) }),
    ))));
    let n = 5;
    let barrier = Arc::new(Barrier::new(n));
    let clients: Vec<_> = (0..n)
        .map(|_| {
            let e = Arc::clone(&e);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    e.select_fastest("twoc", &hypotheses())
                }))
            })
        })
        .collect();
    let outcomes: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
    // Exactly one caller (the leader) observed the panic itself; every
    // follower got a clean Internal error — nobody hung.
    let panicked = outcomes.iter().filter(|o| o.is_err()).count();
    assert_eq!(panicked, 1, "only the leader's caller sees the panic");
    for result in outcomes.iter().flatten() {
        assert!(
            matches!(result, Err(ForecastError::Internal(_))),
            "followers of a dead flight get Internal, got {result:?}"
        );
    }
    assert_eq!(e.simulations(), 1);
    assert_eq!(e.coalesced(), (n - 1) as u64);
    assert_eq!(e.cache_len(), 0, "a panicked computation caches nothing");

    // No poisoned locks, no wedged flight table: the retry recomputes
    // (injection point 1 carries no fault) and succeeds.
    let retry = e.select_fastest("twoc", &hypotheses()).unwrap();
    assert_eq!(e.simulations(), 2, "retry re-simulates after the panic");
    let reference = engine().select_fastest("twoc", &hypotheses()).unwrap();
    assert_eq!(retry.best, reference.best);
    assert_eq!(retry.best_makespan.to_bits(), reference.best_makespan.to_bits());
}

/// Routes are resolved only by the compute stage, after the probe has
/// checked every transfer's size and hosts: a bad host anywhere in a
/// request is reported before a routing error in an earlier transfer.
#[test]
fn a_bad_host_is_reported_before_an_earlier_transfer_without_a_route() {
    let mut b = PlatformBuilder::new("root", RoutingKind::Full);
    let root = b.root_zone();
    let (a, c) = (b.add_host(root, "a", 1e9), b.add_host(root, "c", 1e9));
    b.add_host(root, "lone", 1e9);
    let l = b.add_link("l", 1.25e8, 1e-4, SharingPolicy::Shared);
    b.add_route(root, Element::Point(a.netpoint()), Element::Point(c.netpoint()), vec![l], true);
    let e = ForecastEngine::new(NetworkConfig::default());
    e.register_platform("islands", b.build().unwrap());

    let unroutable = spec("a", "lone", 1e8);
    let alone = e.predict("islands", std::slice::from_ref(&unroutable));
    assert!(matches!(alone, Err(ForecastError::Sim(_))), "{alone:?}");
    for (second, want) in [
        (spec("a", "ghost", 1e8), ForecastError::UnknownHost("ghost".into())),
        (spec("a", "c", -1.0), ForecastError::BadSize(-1.0)),
    ] {
        assert_eq!(e.predict("islands", &[unroutable.clone(), second]), Err(want));
    }
    assert_eq!((e.simulations(), e.cache_len()), (0, 0));
}
