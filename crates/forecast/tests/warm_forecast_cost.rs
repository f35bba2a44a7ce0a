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
#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use forecast::{ResolvedSpec, Session};
use g5k::{synth, to_simflow, Flavor};
use simflow::{NetworkConfig, PlatformEventKind};

/// Passes every call to the system allocator and adds the bytes each
/// allocation or reallocation asks for to the calling thread's tally.
struct Counting;

thread_local! {
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = REQUESTED.try_with(|r| r.set(r.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the tally has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn requested() -> u64 {
    REQUESTED.with(Cell::get)
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
                session.simulate(&[], &specs).expect("forecast");
            }
            let (bytes, faults) = (requested(), minor_faults());
            let durations = session.simulate(&[], &specs).expect("forecast");
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
