//! What a cached forecast costs through `PilgrimService::handle`, counted
//! and not timed: allocation calls and live bytes on the calling thread
//! (a counting `#[global_allocator]`, this binary only), on the paper's
//! `g5k_test` platform.
//!
//! A forecast's first cache hit files its answer's JSON on the cached
//! selection, and every later hit copies that text: it builds no JSON
//! tree and prints nothing, so what is left is parsing the query and
//! keying it. The query is decoded into one buffer and keyed from
//! slices of it, so neither costs a `String` per transfer: a filed
//! 30-transfer predict hit makes 5 allocation calls (72 when each
//! parameter and host name was a `String`), an 8×4 select hit 13 (82),
//! a request of 30 transfers 4 (66), and a one-off 30-transfer predict,
//! simulation included, 152 (469). A one-off forecast, asked once,
//! files no body: the body costs memory only for answers that are asked
//! again.
#![cfg(target_os = "linux")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::http::Request;
use pilgrim_core::{Metrology, PilgrimService, Pnfs};
use simflow::NetworkConfig;

/// Passes every call to the system allocator and keeps two tallies for
/// the calling thread: the number of allocation calls, and the bytes
/// live (allocated minus freed).
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Tallies one allocation call that grows the live total by `grown`.
fn note(grown: i64) {
    // `try_with`: the allocator also runs while a thread is torn down.
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
        note(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn calls() -> u64 {
    CALLS.with(Cell::get)
}

fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// A service with `g5k_test` registered, and its host names.
fn g5k_test_service() -> (PilgrimService, Vec<String>) {
    let platform = to_simflow(&synth::standard(), Flavor::G5kTest);
    let names = platform.hosts().map(|h| platform.host_name(h).to_string()).collect();
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", platform);
    (PilgrimService::new(Metrology::new(), pnfs), names)
}

/// `n` transfers as `src,dst,size` texts: host pairs spread over the
/// platform, moved along by `shift` hosts, every size `size`.
fn transfers(names: &[String], n: usize, shift: usize, size: f64) -> Vec<String> {
    let hosts = names.len();
    (0..n)
        .map(|i| {
            let src = &names[(i * 7919 + shift) % hosts];
            let dst = &names[(i * 104_729 + hosts / 2 + shift) % hosts];
            format!("{src},{dst},{size:e}")
        })
        .collect()
}

const PREDICT: &str = "/pilgrim/predict_transfers/g5k_test";

fn predict_query(transfers: &[String]) -> String {
    let query: Vec<String> = transfers.iter().map(|t| format!("transfer={t}")).collect();
    query.join("&")
}

fn predict(transfers: &[String]) -> Request {
    Request::synthetic(PREDICT, &predict_query(transfers))
}

fn select(hypotheses: &[Vec<String>]) -> Request {
    let query: Vec<String> =
        hypotheses.iter().map(|h| format!("hypothesis={}", h.join(";"))).collect();
    Request::synthetic("/pilgrim/select_fastest/g5k_test", &query.join("&"))
}

/// `handle(req)`'s allocation calls, and its body.
fn counted(svc: &PilgrimService, req: &Request) -> (u64, String) {
    let before = calls();
    let response = svc.handle(req);
    let made = calls() - before;
    assert_eq!(response.status, 200, "{}", response.body);
    (made, response.body)
}

#[test]
fn a_filed_hit_is_a_lookup_and_a_copy() {
    let (svc, names) = g5k_test_service();

    // 30 transfers: the first ask simulates, the second files the body
    let hot = predict(&transfers(&names, 30, 0, 1e8));
    let (_, computed) = counted(&svc, &hot);
    let (_, filed) = counted(&svc, &hot);
    let (hit_calls, copied) = counted(&svc, &hot);
    assert_eq!((&filed, &copied), (&computed, &computed), "every ask serves the same bytes");
    assert!(hit_calls <= 16, "a filed 30-transfer predict hit made {hit_calls} allocations");

    // 8 hypotheses of 4 transfers, of growing sizes
    let hypotheses: Vec<Vec<String>> =
        (0..8).map(|k| transfers(&names, 4, 4 * k + 1, 1e8 * (k + 1) as f64)).collect();
    let hot = select(&hypotheses);
    let (_, computed) = counted(&svc, &hot);
    let (_, filed) = counted(&svc, &hot);
    let (hit_calls, copied) = counted(&svc, &hot);
    assert_eq!((&filed, &copied), (&computed, &computed), "every ask serves the same bytes");
    assert!(hit_calls <= 24, "a filed 8x4 select hit made {hit_calls} allocations");
}

/// Warms the session and the cache's tables: five answers, the first
/// asked twice, so the cache has room for one more entry (as in
/// `forecast/tests/warm_forecast_cost.rs`).
fn warm_up(svc: &PilgrimService, names: &[String]) {
    svc.handle(&predict(&transfers(names, 30, 0, 1e8)));
    for size in [1e8, 2e8, 3e8, 4e8, 5e8] {
        svc.handle(&predict(&transfers(names, 30, 0, size)));
    }
}

#[test]
fn a_one_off_forecast_costs_its_simulation() {
    let (svc, names) = g5k_test_service();
    warm_up(&svc, &names);

    // The query is decoded into one buffer: a request is at most its
    // method, path, query text and parameter ranges.
    let query = predict_query(&transfers(&names, 30, 1, 1e8));
    let before = calls();
    let req = Request::synthetic(PREDICT, &query);
    let parse_calls = calls() - before;
    let (handle_calls, _) = counted(&svc, &req);
    assert!(parse_calls <= 4, "parsing a 30-transfer predict made {parse_calls} allocations");
    assert!(handle_calls <= 200, "a one-off 30-transfer predict made {handle_calls} allocations");
}

#[test]
fn a_one_off_forecast_files_no_body() {
    let (svc, names) = g5k_test_service();
    warm_up(&svc, &names);

    // Asked once: the answer is filed, its body is not.
    let one_off = predict(&transfers(&names, 30, 1, 1e8));
    let before = live();
    let (_, body) = counted(&svc, &one_off);
    let asked_once = live() - before - body.capacity() as i64;
    assert!(asked_once <= 2 << 10, "a one-off 30-transfer predict kept {asked_once} bytes");
    drop(body);

    // Asked again: the hit files the body, and keeps no more than it.
    let (_, again) = counted(&svc, &one_off);
    let kept = live() - before - again.capacity() as i64;
    let bound = (2 << 10) + again.len() as i64 + 64;
    assert!(kept <= bound, "after its first hit it kept {kept} bytes, bound {bound}");
}
