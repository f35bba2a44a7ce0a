//! Property tests of the simulation kernel's physical invariants.

use seeded::{self as proptest, prelude::*};
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::{NetworkConfig, Platform, SharingPolicy, SimTime, Simulation};

/// A star platform: `n` hosts, each with its own access link to a hub
/// router, all pairs routable.
fn star(n: usize, bw: f64, lat: f64) -> Platform {
    let mut b = PlatformBuilder::new("star", RoutingKind::Floyd);
    let root = b.root_zone();
    let hub = b.add_router(root, "hub");
    for i in 0..n {
        let h = b.add_host(root, &format!("h{i}"), 1e9);
        let l = b.add_link(&format!("l{i}"), bw, lat, SharingPolicy::Shared);
        b.add_route(root, Element::Point(h.netpoint()), Element::Point(hub), vec![l], true);
    }
    b.build().expect("valid star")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every transfer takes at least its physics lower bound
    /// (latency·factor + size / bottleneck) and the simulation terminates.
    #[test]
    fn durations_respect_lower_bounds(
        n_flows in 1usize..12,
        sizes in proptest::collection::vec(1e4f64..1e9, 12),
        bw in 1e7f64..1e9,
        lat in 1e-6f64..1e-2,
    ) {
        let p = star(6, bw, lat);
        let cfg = NetworkConfig::default();
        let hosts: Vec<_> = p.hosts().collect();
        let mut sim = Simulation::new(&p, cfg);
        let mut ids = Vec::new();
        for i in 0..n_flows {
            let src = hosts[i % hosts.len()];
            let dst = hosts[(i + 1) % hosts.len()];
            ids.push((sim.add_transfer(src, dst, sizes[i]).unwrap(), sizes[i]));
        }
        let report = sim.run().unwrap();
        for (id, size) in ids {
            let d = report.duration(id).as_secs();
            let route_lat = 2.0 * lat; // two access links
            let cap = (bw * cfg.bandwidth_factor)
                .min(cfg.tcp_gamma / (2.0 * route_lat));
            let bound = cfg.latency_factor * route_lat + size / cap;
            prop_assert!(
                d >= bound * (1.0 - 1e-9),
                "flow of {size}B took {d}, below the physics bound {bound}"
            );
        }
    }

    /// Adding a competing flow never makes existing flows finish earlier.
    #[test]
    fn contention_is_monotone(
        base_sizes in proptest::collection::vec(1e6f64..1e8, 1..6),
        extra_size in 1e6f64..1e8,
    ) {
        let p = star(4, 1e8, 1e-4);
        let cfg = NetworkConfig::default();
        let hosts: Vec<_> = p.hosts().collect();

        let run = |with_extra: bool| -> Vec<f64> {
            let mut sim = Simulation::new(&p, cfg);
            let mut ids = Vec::new();
            for (i, s) in base_sizes.iter().enumerate() {
                // all flows share the h0 uplink
                ids.push(sim.add_transfer(hosts[0], hosts[1 + i % 3], *s).unwrap());
            }
            if with_extra {
                sim.add_transfer(hosts[0], hosts[1], extra_size).unwrap();
            }
            let r = sim.run().unwrap();
            ids.iter().map(|id| r.duration(*id).as_secs()).collect()
        };

        let alone = run(false);
        let crowded = run(true);
        for (a, c) in alone.iter().zip(&crowded) {
            prop_assert!(
                *c >= *a * (1.0 - 1e-9),
                "a competing flow sped someone up: {a} → {c}"
            );
        }
    }

    /// Start-time shift invariance: delaying every flow by Δ shifts every
    /// completion by exactly Δ.
    #[test]
    fn time_shift_invariance(
        sizes in proptest::collection::vec(1e5f64..1e8, 1..6),
        shift in 0.1f64..100.0,
    ) {
        let p = star(4, 1e8, 1e-4);
        let cfg = NetworkConfig::default();
        let hosts: Vec<_> = p.hosts().collect();
        let run = |offset: f64| -> Vec<f64> {
            let mut sim = Simulation::new(&p, cfg);
            let ids: Vec<_> = sizes
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    sim.add_transfer_at(
                        hosts[i % 4],
                        hosts[(i + 1) % 4],
                        *s,
                        SimTime::from_secs(offset),
                    )
                    .unwrap()
                })
                .collect();
            let r = sim.run().unwrap();
            ids.iter().map(|id| r.completion(*id).finish.as_secs()).collect()
        };
        let base = run(0.0);
        let shifted = run(shift);
        for (b, s) in base.iter().zip(&shifted) {
            prop_assert!(
                (s - b - shift).abs() < 1e-6 * (1.0 + b.abs()),
                "shift broke: {b} + {shift} != {s}"
            );
        }
    }

    /// Doubling a lone flow's size on a zero-latency link exactly doubles
    /// its duration (pure bandwidth regime).
    #[test]
    fn size_linearity_without_latency(size in 1e5f64..1e9) {
        let p = star(2, 1e8, 0.0);
        let hosts: Vec<_> = p.hosts().collect();
        let run = |s: f64| {
            let mut sim = Simulation::new(&p, NetworkConfig::ideal());
            let id = sim.add_transfer(hosts[0], hosts[1], s).unwrap();
            sim.run().unwrap().duration(id).as_secs()
        };
        let d1 = run(size);
        let d2 = run(2.0 * size);
        prop_assert!((d2 / d1 - 2.0).abs() < 1e-6, "{d1} vs {d2}");
    }

    /// The kernel conserves work: a flow's duration times its average
    /// rate equals its size — verified via makespan on equal flows.
    #[test]
    fn equal_flows_complete_together(
        n in 2usize..8,
        size in 1e6f64..1e8,
    ) {
        let p = star(2, 1e8, 1e-4);
        let hosts: Vec<_> = p.hosts().collect();
        let mut sim = Simulation::new(&p, NetworkConfig::default());
        let ids: Vec<_> = (0..n)
            .map(|_| sim.add_transfer(hosts[0], hosts[1], size).unwrap())
            .collect();
        let r = sim.run().unwrap();
        let first = r.duration(ids[0]).as_secs();
        for id in &ids {
            let d = r.duration(*id).as_secs();
            prop_assert!((d - first).abs() < 1e-6 * first, "{d} vs {first}");
        }
        // n equal flows sharing one link: n × the lone duration (minus the
        // shared latency phase), within float slack
        let mut solo_sim = Simulation::new(&p, NetworkConfig::default());
        let solo_id = solo_sim.add_transfer(hosts[0], hosts[1], size).unwrap();
        let solo = solo_sim.run().unwrap().duration(solo_id).as_secs();
        let cfg = NetworkConfig::default();
        let lat_phase = cfg.latency_factor * 2e-4;
        let expect = lat_phase + (solo - lat_phase) * n as f64;
        prop_assert!(
            (first - expect).abs() < 1e-6 * expect,
            "{first} vs expected {expect}"
        );
    }
}
