//! Once a session exists for a large platform, blocks allocated and freed
//! together the way a simulation's scratch is — a dozen vectors with one
//! element per resource — are recycled by the allocator instead of being
//! handed back to the kernel and faulted in again (`forecast::malloc`).
//! Counted in page faults, not timed; a test binary of its own because
//! the thresholds are process-wide.
#![cfg(all(target_os = "linux", target_env = "gnu"))]

use std::sync::Arc;

use forecast::Session;
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::RoutingKind;
use simflow::NetworkConfig;

/// Minor page faults taken by the calling thread so far (`minflt`, the
/// tenth field of `/proc/thread-self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("procfs");
    let after_name = stat.rsplit_once(')').expect("command name in parentheses").1;
    after_name.split_whitespace().nth(7).expect("minflt").parse().expect("a count")
}

#[test]
fn simulation_sized_scratch_is_recycled_without_page_faults() {
    const HOSTS: usize = 20_000;
    let mut b = PlatformBuilder::new("root", RoutingKind::Full);
    let root = b.root_zone();
    for h in 0..HOSTS {
        b.add_host(root, &format!("h{h}"), 1e9);
    }
    let platform = Arc::new(b.build().expect("a flat platform"));
    let resources = platform.link_count() + platform.host_count();
    let _session = Session::new(platform, NetworkConfig::default());

    // On a thread of its own, so that nothing longer-lived sits above
    // the scratch in the heap: the case in which glibc's self-adjusting
    // thresholds trim it away after every round (≈ 470 faults each).
    let per_round = std::thread::spawn(move || {
        let round = || {
            let mut scratch: Vec<Vec<u64>> = Vec::with_capacity(12);
            scratch.extend((0..12).map(|_| vec![1u64; resources]));
            std::hint::black_box(&scratch);
        };
        (0..3).for_each(|_| round());
        let before = minor_faults();
        (0..20).for_each(|_| round());
        (minor_faults() - before) / 20
    })
    .join()
    .expect("scratch thread");
    assert!(per_round < 5, "{per_round} page faults per round: the scratch is not being recycled");
}
