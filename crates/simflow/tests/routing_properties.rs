//! Property tests of hierarchical route resolution on randomly generated
//! cluster-of-clusters platforms (the shape of the Grid'5000 model).

use seeded::{self as proptest, prelude::*};
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::{Platform, SharingPolicy};

/// Builds a two-level platform: `n_sites` site zones under a full-routing
/// root, each site holding one cluster zone of `hosts_per_cluster` hosts
/// behind a router, sites pairwise connected by backbone links.
fn build_grid(n_sites: usize, hosts_per_cluster: usize) -> Platform {
    build_grid_with(RoutingKind::Floyd, n_sites, hosts_per_cluster)
}

/// [`build_grid`] with a chosen intra-site routing strategy, so the
/// memo-equivalence property runs against every [`RoutingKind`] the
/// middle segment can be resolved through.
fn build_grid_with(site_kind: RoutingKind, n_sites: usize, hosts_per_cluster: usize) -> Platform {
    let mut b = PlatformBuilder::new("grid", RoutingKind::Full);
    let root = b.root_zone();
    let mut sites = Vec::new();
    for s in 0..n_sites {
        let site = b.add_zone(root, &format!("site{s}"), site_kind);
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
        // cluster joins its site's routing graph
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any host pair resolves, with a symmetric (mirrored) reverse path and
    /// positive latency, and the path length matches the hierarchy level.
    #[test]
    fn routes_resolve_and_mirror(
        n_sites in 2usize..4,
        hosts in 2usize..6,
        a_site in 0usize..4,
        a_host in 0usize..6,
        b_site in 0usize..4,
        b_host in 0usize..6,
    ) {
        let p = build_grid(n_sites, hosts);
        let a_site = a_site % n_sites;
        let b_site = b_site % n_sites;
        let a_host = a_host % hosts;
        let b_host = b_host % hosts;
        let a = p.host_by_name(&format!("h{a_site}-{a_host}")).unwrap();
        let c = p.host_by_name(&format!("h{b_site}-{b_host}")).unwrap();

        let fwd = p.route_hosts(a, c).unwrap();
        let bwd = p.route_hosts(c, a).unwrap();

        let mut mirrored = bwd.links.clone();
        mirrored.reverse();
        prop_assert_eq!(&fwd.links, &mirrored, "reverse route must mirror");

        if a == c {
            prop_assert!(fwd.links.is_empty());
        } else if a_site == b_site {
            // nic + cluster backbone + nic
            prop_assert_eq!(fwd.links.len(), 3);
        } else {
            // nic + clbb + up + bb + up + clbb + nic
            prop_assert_eq!(fwd.links.len(), 7);
            prop_assert!(fwd.latency > 2.25e-3);
        }
    }

    /// Route latency equals the sum of its links' latencies.
    #[test]
    fn latency_is_sum_of_links(
        n_sites in 2usize..4,
        hosts in 2usize..5,
    ) {
        let p = build_grid(n_sites, hosts);
        let a = p.host_by_name("h0-0").unwrap();
        let c = p.host_by_name(&format!("h{}-1", n_sites - 1)).unwrap();
        let r = p.route_hosts(a, c).unwrap();
        let sum: f64 = r.links.iter().map(|l| p.link(*l).latency).sum();
        prop_assert!((r.latency - sum).abs() < 1e-15);
    }

    /// The memoized fast path ([`Platform::route`]) is bitwise the plain
    /// recursion ([`Platform::route_uncached`]): identical link sequences
    /// and bit-identical f64 latency, under every intra-site routing
    /// strategy, in both directions, on first resolution (memo fill) and
    /// on repeat queries (memo replay) alike.
    #[test]
    fn memoized_route_is_bitwise_uncached(
        kind_idx in 0usize..3,
        n_sites in 2usize..4,
        hosts in 2usize..5,
        queries in proptest::collection::vec((0usize..64, 0usize..64), 2..10),
    ) {
        let kind = [RoutingKind::Full, RoutingKind::Floyd, RoutingKind::Dijkstra][kind_idx];
        let p = build_grid_with(kind, n_sites, hosts);
        for (x, y) in queries {
            let a = p.host_by_name(&format!("h{}-{}", x % n_sites, x / n_sites % hosts)).unwrap();
            let b = p.host_by_name(&format!("h{}-{}", y % n_sites, y / n_sites % hosts)).unwrap();
            for (s, d) in [(a, b), (b, a)] {
                let slow = p.route_uncached(s.netpoint(), d.netpoint()).unwrap();
                // First call resolves and fills the memo, second replays
                // the stored middle segment: both must match the
                // reference exactly.
                for _ in 0..2 {
                    let fast = p.route_hosts(s, d).unwrap();
                    prop_assert_eq!(&fast.links, &slow.links);
                    prop_assert_eq!(fast.latency.to_bits(), slow.latency.to_bits());
                }
            }
        }
        // The memo stores (zone, zone) middle segments, never host pairs.
        let stats = p.route_memo_stats();
        prop_assert!((stats.entries as usize) <= n_sites * n_sites);
    }

    /// Hierarchical storage stays linear in hosts: the memory proxy of the
    /// whole platform is far below the host-pair count.
    #[test]
    fn hierarchical_storage_is_compact(
        n_sites in 2usize..4,
        hosts in 3usize..8,
    ) {
        let p = build_grid(n_sites, hosts);
        let n = p.host_count();
        prop_assert!(p.stored_route_entries() < n * n / 2 + 64);
    }
}
