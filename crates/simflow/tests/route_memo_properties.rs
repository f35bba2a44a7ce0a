//! Kernel-level equivalence of the hierarchical route memo: simulations
//! whose transfers resolve through the memoized [`Platform::route`] fast
//! path must produce bit-identical reports — completion times, outcomes,
//! rate-derived finish instants, and solver event counts — to simulations
//! fed paths pre-resolved from the reference [`Platform::route_uncached`]
//! recursion. The property is exercised with warm start on and off and
//! under dead-link overlays (both a link dead from t = 0 and a mid-run
//! down/up pair), because each of those routes the same `ResolvedPath`
//! data through a different solver path and any latency or link-order
//! divergence would surface as a different completion instant.

use seeded::{self as proptest, prelude::*};
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::{
    HostId, NetworkConfig, Platform, Report, ResolvedPath, SharingPolicy, SimTime, SimTuning,
    Simulation,
};

/// The same two-level grid as `routing_properties.rs`: `n_sites` site
/// zones under a full-routing root, one cluster of `hosts_per_cluster`
/// hosts per site, pairwise backbone links. Cluster zones are leaf zones
/// whose gateway (the cluster switch) lives inside them, so the route
/// memo engages for every cross-site pair.
fn build_grid(n_sites: usize, hosts_per_cluster: usize) -> Platform {
    let mut b = PlatformBuilder::new("grid", RoutingKind::Full);
    let root = b.root_zone();
    let mut sites = Vec::new();
    for s in 0..n_sites {
        let site = b.add_zone(root, &format!("site{s}"), RoutingKind::Floyd);
        let gw = b.add_router(site, &format!("gw{s}"));
        b.set_gateway(site, gw);
        let cl = b.add_zone(site, &format!("cluster{s}"), RoutingKind::Cluster);
        let sw = b.add_router(cl, &format!("sw{s}"));
        b.set_cluster_router(cl, sw);
        let bb = b.add_link(&format!("clbb{s}"), 1.25e9, 1e-5, SharingPolicy::Shared);
        b.set_cluster_backbone(cl, bb);
        for h in 0..hosts_per_cluster {
            let host = b.add_host(cl, &format!("h{s}-{h}"), 1e9);
            let nic = b.add_link(&format!("nic{s}-{h}"), 1.25e8, 5e-5, SharingPolicy::Shared);
            b.attach_cluster_host(cl, host, nic, nic);
        }
        let uplink = b.add_link(&format!("up{s}"), 1.25e9, 1e-4, SharingPolicy::Shared);
        b.add_route(site, Element::Zone(cl), Element::Point(gw), vec![uplink], true);
        sites.push(site);
    }
    for i in 0..n_sites {
        for j in (i + 1)..n_sites {
            let l = b.add_link(&format!("bb{i}-{j}"), 1.25e9, 2.25e-3, SharingPolicy::Shared);
            b.add_route(root, Element::Zone(sites[i]), Element::Zone(sites[j]), vec![l], true);
        }
    }
    b.build().expect("generated platform is valid")
}

/// [`ResolvedPath::resolve`] replicated over the *uncached* route — the
/// reference the memoized fast path must match bit-for-bit. Kept in the
/// test (not the crate) so the reference cannot silently share code with
/// the path under test.
fn resolve_uncached(
    p: &Platform,
    config: &NetworkConfig,
    src: HostId,
    dst: HostId,
) -> ResolvedPath {
    let route = p.route_uncached(src.netpoint(), dst.netpoint()).expect("route exists");
    let mut resources = Vec::with_capacity(route.links.len());
    let mut cap = f64::INFINITY;
    let mut bottleneck = f64::INFINITY;
    let mut weight = route.latency;
    for l in &route.links {
        let link = p.link(*l);
        let eff_bw = link.bandwidth * config.bandwidth_factor;
        weight += config.weight_s / eff_bw;
        bottleneck = bottleneck.min(eff_bw);
        match link.policy {
            SharingPolicy::Shared => resources.push(l.index() as u32),
            SharingPolicy::FatPipe => cap = cap.min(eff_bw),
        }
    }
    if route.latency > 0.0 {
        cap = cap.min(config.tcp_gamma / (2.0 * route.latency));
    }
    ResolvedPath {
        resources,
        weight: weight.max(1e-9),
        cap,
        latency: route.latency,
        delay: config.latency_factor * route.latency,
        bottleneck,
    }
}

/// Dead-link overlay applied identically to both simulations of a pair.
#[derive(Clone, Copy, Debug)]
struct Overlay {
    /// Mark `nic0-0` dead before the run starts (t = 0 degradation).
    pre_dead_nic: bool,
    /// Take the `bb0-1` backbone down mid-run, back up later.
    flap_backbone: bool,
}

fn run_sim(
    p: &Platform,
    transfers: &[(HostId, HostId, f64, SimTime)],
    warm: bool,
    overlay: Overlay,
    memoized: bool,
) -> Report {
    let config = NetworkConfig::default();
    let tuning = SimTuning { warm_start: warm, ..SimTuning::default() };
    let mut sim =
        Simulation::with_tuning(p, config, Simulation::shared_capacities(p, &config), tuning);
    if overlay.pre_dead_nic {
        let nic = p.link_by_name("nic0-0").expect("nic exists");
        sim.mark_resource_down(nic.index() as u32);
    }
    if overlay.flap_backbone {
        let bb = p.link_by_name("bb0-1").expect("backbone exists");
        sim.add_link_down(bb, SimTime::from_secs(0.05));
        sim.add_link_up(bb, SimTime::from_secs(0.4));
    }
    for &(src, dst, bytes, start) in transfers {
        if memoized {
            sim.add_transfer_at(src, dst, bytes, start).expect("transfer resolves");
        } else {
            let path = resolve_uncached(p, &config, src, dst);
            sim.add_transfer_resolved(src, dst, bytes, start, &path);
        }
    }
    sim.run().expect("run succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random workloads, warm start on and off, optional
    /// dead-link overlays: the memoized and reference runs agree on
    /// every completion record and every solver event count.
    #[test]
    fn memoized_kernel_runs_match_uncached_reference(
        n_sites in 2usize..4,
        hosts in 2usize..4,
        raw in proptest::collection::vec(
            (0usize..64, 0usize..64, 1e6f64..5e8, 0u8..4),
            1..20,
        ),
        pre_dead_nic in any::<bool>(),
        flap_backbone in any::<bool>(),
    ) {
        let p = build_grid(n_sites, hosts);
        let transfers: Vec<(HostId, HostId, f64, SimTime)> = raw
            .iter()
            .map(|&(x, y, bytes, slot)| {
                let a = p
                    .host_by_name(&format!("h{}-{}", x % n_sites, x / n_sites % hosts))
                    .unwrap();
                let b = p
                    .host_by_name(&format!("h{}-{}", y % n_sites, y / n_sites % hosts))
                    .unwrap();
                (a, b, bytes, SimTime::from_secs(slot as f64 * 0.1))
            })
            .collect();
        let overlay = Overlay { pre_dead_nic, flap_backbone };
        for warm in [false, true] {
            let fast = run_sim(&p, &transfers, warm, overlay, true);
            let reference = run_sim(&p, &transfers, warm, overlay, false);
            prop_assert_eq!(&fast.completions, &reference.completions, "warm={}", warm);
            prop_assert_eq!(&fast.stats, &reference.stats, "warm={}", warm);
        }
    }
}

/// A two-site grid shaped for warm replay: a fat (never-binding) trunk
/// couples 140 cross-site flows into one ≥128-flow component, while each
/// flow binds its *own* NIC pair — NIC bandwidths ascend so every flow
/// binds at a distinct bisection level. When the fastest flow completes,
/// only its own NICs and the (non-binding) trunk go dirty, so the
/// remaining levels replay verbatim instead of invalidating.
fn build_warm_grid(hosts_per_cluster: usize) -> Platform {
    let mut b = PlatformBuilder::new("grid", RoutingKind::Full);
    let root = b.root_zone();
    let mut sites = Vec::new();
    for s in 0..2 {
        let site = b.add_zone(root, &format!("site{s}"), RoutingKind::Floyd);
        let gw = b.add_router(site, &format!("gw{s}"));
        b.set_gateway(site, gw);
        let cl = b.add_zone(site, &format!("cluster{s}"), RoutingKind::Cluster);
        let sw = b.add_router(cl, &format!("sw{s}"));
        b.set_cluster_router(cl, sw);
        let bb = b.add_link(&format!("clbb{s}"), 1e12, 1e-5, SharingPolicy::Shared);
        b.set_cluster_backbone(cl, bb);
        for h in 0..hosts_per_cluster {
            let host = b.add_host(cl, &format!("h{s}-{h}"), 1e9);
            let bw = 1.25e8 * (1.0 + 0.01 * h as f64);
            let nic = b.add_link(&format!("nic{s}-{h}"), bw, 5e-5, SharingPolicy::Shared);
            b.attach_cluster_host(cl, host, nic, nic);
        }
        let uplink = b.add_link(&format!("up{s}"), 1e12, 1e-4, SharingPolicy::Shared);
        b.add_route(site, Element::Zone(cl), Element::Point(gw), vec![uplink], true);
        sites.push(site);
    }
    let l = b.add_link("bb0-1", 1e12, 2.25e-3, SharingPolicy::Shared);
    b.add_route(root, Element::Zone(sites[0]), Element::Zone(sites[1]), vec![l], true);
    b.build().expect("generated platform is valid")
}

/// Directed warm-replay coverage: the random workloads above stay below
/// the 128-flow warm threshold, so this pins the warm replay path
/// explicitly — one 140-flow component whose completions leave most
/// recorded levels clean (see [`build_warm_grid`]). Memoized and
/// reference runs must still agree exactly.
#[test]
fn warm_replayed_component_matches_uncached_reference() {
    let n = 140;
    let p = build_warm_grid(n);
    let transfers: Vec<(HostId, HostId, f64, SimTime)> = (0..n)
        .map(|i| {
            let a = p.host_by_name(&format!("h0-{i}")).unwrap();
            let b = p.host_by_name(&format!("h1-{i}")).unwrap();
            (a, b, 5e8, SimTime::ZERO)
        })
        .collect();
    let overlay = Overlay { pre_dead_nic: false, flap_backbone: false };
    let fast = run_sim(&p, &transfers, true, overlay, true);
    let reference = run_sim(&p, &transfers, true, overlay, false);
    assert_eq!(fast.completions, reference.completions);
    assert_eq!(fast.stats, reference.stats);
    assert!(
        fast.stats.solver.warm.levels_replayed > 0,
        "the directed workload must exercise warm replay: {:?}",
        fast.stats.solver.warm
    );
    // The memoized run resolved every transfer through the same single
    // (cluster, cluster) middle segment.
    let memo = p.route_memo_stats();
    assert_eq!(memo.entries, 1);
    assert!(
        memo.hits >= n as u64 - 1,
        "memo replays all but the first resolution: {memo:?}"
    );
}
