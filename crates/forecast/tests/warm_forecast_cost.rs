//! A warm forecast costs in proportion to its request, not to the
//! platform: once a session has served a few forecasts, the next
//! 30-transfer `Session::simulate` allocates a few kilobytes and touches
//! no new page, on a 20 000-host platform as on a 2 000-host one. Building
//! a simulation's scratch from nothing costs ≈ 110 bytes per platform
//! resource (≈ 4.5 MB at 20 000 hosts); the session recycles it instead.
//!
//! Counted, not timed: bytes requested from the allocator by the calling
//! thread (a counting `#[global_allocator]`, this binary only) and the
//! thread's minor page faults. Checked on a pristine session and on one
//! whose overlay halves a link of the request's routes, which is what
//! a `link_event` with `Capacity(0.5)` leaves behind.
//!
//! The same allocator also counts allocation calls and the thread's live
//! bytes, which pins what the engine's cache costs: a cached 30-transfer
//! forecast is keyed by host ids + size bits, so a hit allocates a few
//! times (not once per host name) and filing an answer keeps about a
//! kilobyte and a half. A forecast keeps that and none of its routes,
//! however often it is asked.
#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use forecast::{lend, ForecastEngine, Probed, ResolvedSpec, Session, TransferSpec};
use g5k::{synth, to_simflow, Flavor};
use simflow::{NetworkConfig, PlatformEventKind};

/// Passes every call to the system allocator and keeps three tallies
/// for the calling thread: the bytes each allocation or reallocation
/// asks for, the number of such calls, and the bytes live (allocated
/// minus freed).
struct Counting;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Tallies one allocation call that asks for `bytes` and grows the live
/// total by `grown` (negative for a shrink or a free).
fn note(bytes: usize, grown: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    note_live(grown);
}

fn note_live(grown: i64) {
    let _ = LIVE.try_with(|l| l.set(l.get() + grown));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tallies have no effect
// on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
}

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// Minor page faults taken by the calling thread so far (`minflt`, the
/// tenth field of `/proc/thread-self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
    let after_name = stat.rsplit_once(')').expect("command name in parentheses").1;
    after_name.split_whitespace().nth(7).expect("minflt").parse().expect("a count")
}

/// What one warm forecast costs: `(bytes requested, minor faults)` of
/// the fourth 30-transfer `simulate` on a session for a `hosts`-host
/// platform, with or without a halved link in the overlay.
fn warm_forecast_cost(hosts: usize, halved_link: bool) -> (u64, u64) {
    let platform = Arc::new(to_simflow(&synth::synthetic(hosts), Flavor::G5kTest));
    let ids: Vec<_> = platform.hosts().collect();
    let n = ids.len();
    let session = Session::new(Arc::clone(&platform), NetworkConfig::default());
    let specs: Vec<ResolvedSpec> = (0..30)
        .map(|i| {
            let (src, dst) = (ids[(i * 7919) % n], ids[(i * 104_729 + n / 2) % n]);
            let path = session.resolve(src, dst).expect("routable");
            ResolvedSpec { src, dst, size: 1e8 + 1e6 * i as f64, path }
        })
        .collect();
    if halved_link {
        let shared = specs[0].path.resources[0] as usize;
        let route = platform.route_hosts(specs[0].src, specs[0].dst).expect("routable");
        let link = route.links.into_iter().find(|l| l.index() == shared).expect("on the route");
        session.apply_link_event(link, PlatformEventKind::Capacity(0.5));
    }
    // On a thread of its own, so that the tallies are the forecast's.
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..3 {
                session.simulate(&specs).expect("forecast");
            }
            let (bytes, faults) = (requested(), minor_faults());
            let durations = session.simulate(&specs).expect("forecast");
            let cost = (requested() - bytes, minor_faults() - faults);
            assert!(durations.iter().all(|d| d.is_finite() && *d > 0.0), "{durations:?}");
            cost
        })
        .join()
        .expect("forecast thread")
    })
}

#[test]
fn a_warm_forecast_costs_per_request_not_per_platform() {
    for halved_link in [false, true] {
        let (small, small_faults) = warm_forecast_cost(2_000, halved_link);
        let (wide, wide_faults) = warm_forecast_cost(20_000, halved_link);
        let case = if halved_link { "with a halved link" } else { "pristine" };
        assert!(wide < 64 << 10, "{case}: {wide} bytes for one warm forecast on 20 000 hosts");
        assert!(
            wide < 2 * small,
            "{case}: {wide} bytes on 20 000 hosts against {small} on 2 000: grows with the platform"
        );
        assert!(small_faults < 5 && wide_faults < 5, "{case}: {small_faults} / {wide_faults} faults");
    }
}

/// An engine serving the paper's `g5k_test` platform, and a 30-transfer
/// request over it whose transfers all have size `size`.
fn g5k_test_engine() -> (ForecastEngine, impl Fn(f64) -> Vec<TransferSpec>) {
    let platform = to_simflow(&synth::standard(), Flavor::G5kTest);
    let names: Vec<String> = platform.hosts().map(|h| platform.host_name(h).to_string()).collect();
    let n = names.len();
    let engine = ForecastEngine::new(NetworkConfig::default());
    engine.register_platform("g5k_test", platform);
    let request = move |size| {
        (0..30)
            .map(|i| TransferSpec {
                src: names[(i * 7919) % n].clone(),
                dst: names[(i * 104_729 + n / 2) % n].clone(),
                size,
            })
            .collect()
    };
    (engine, request)
}

#[test]
fn a_cached_forecast_costs_its_transfers_not_its_host_names() {
    let (engine, request) = g5k_test_engine();

    // A hit: the key is built from the platform's host ids, so the
    // request's names are looked up, never copied.
    let hot = request(1e8);
    let answer = engine.predict("g5k_test", &hot).expect("forecast");
    engine.predict("g5k_test", &hot).expect("hit");
    let before = calls();
    let hit = engine.predict("g5k_test", &hot).expect("hit");
    let hit_calls = calls() - before;
    assert!(Arc::ptr_eq(&hit, &answer), "the third predict is answered from the cache");
    assert!(hit_calls <= 5, "a warm 30-transfer hit made {hit_calls} allocations");

    // Filing: the routes are resolved already, and the cache's tables
    // have room for one more entry (the sixth fits the map's and the
    // slab's current capacity), so what stays live is the entry itself.
    for size in [2e8, 3e8, 4e8, 5e8] {
        engine.predict("g5k_test", &request(size)).expect("forecast");
    }
    let fresh = request(6e8);
    let before = live();
    drop(engine.predict("g5k_test", &fresh).expect("forecast"));
    let retained = live() - before;
    assert_eq!((engine.cache_len(), engine.simulations()), (6, 6));
    assert!(retained <= 2 << 10, "filing one 30-transfer forecast kept {retained} bytes");
}

#[test]
fn a_one_off_forecast_keeps_its_answer_not_its_routes() {
    let (engine, request) = g5k_test_engine();
    let platform = engine.platform("g5k_test").expect("registered");
    let names: Vec<String> = platform.hosts().map(|h| platform.host_name(h).to_string()).collect();
    let n = names.len();
    // 30 host pairs `request` never names: one host further on each side
    let one_off: Vec<TransferSpec> = (0..30)
        .map(|i| TransferSpec {
            src: names[(i * 7919 + 1) % n].clone(),
            dst: names[(i * 104_729 + n / 2 + 1) % n].clone(),
            size: 1e8,
        })
        .collect();
    let pairs = |specs: &[TransferSpec]| -> std::collections::HashSet<(String, String)> {
        specs.iter().map(|t| (t.src.clone(), t.dst.clone())).collect()
    };
    assert!(pairs(&one_off).is_disjoint(&pairs(&request(1e8))));

    // Five answers, the first asked twice: the cache's tables have room
    // for one more entry, as in the test above.
    engine.predict("g5k_test", &request(1e8)).expect("forecast");
    for size in [1e8, 2e8, 3e8, 4e8, 5e8] {
        engine.predict("g5k_test", &request(size)).expect("forecast");
    }

    // Asked once: the answer is filed, its 30 routes are not.
    let before = live();
    let answer = engine.predict("g5k_test", &one_off).expect("forecast");
    let retained = live() - before;
    assert_eq!((engine.cache_len(), engine.simulations()), (6, 6));
    assert!(retained <= 2 << 10, "a one-off 30-transfer forecast kept {retained} bytes");

    // Asked again: the probe has the answer, and keeping it costs nothing.
    let (hits, before) = (engine.cache_hits(), live());
    let Probed::Ready(repeat) = engine.probe("g5k_test", &lend(&[&one_off])).expect("probe") else {
        panic!("a forecast asked before is the probe's to answer")
    };
    assert!(Arc::ptr_eq(&repeat, &answer), "the repeat is answered from the cache");
    assert_eq!(live() - before, 0, "the repeat kept something");
    assert_eq!((engine.cache_hits(), engine.simulations()), (hits + 1, 6));
}
