//! Property tests of the packet engine's physical invariants on random
//! star topologies and workloads.

use packetsim::net::{Network, NetworkBuilder, NodeId};
use packetsim::{FlowSpec, FluidSim, PacketSim, TcpConfig};
use seeded::prelude::*;

fn star(n_hosts: usize, rate: f64, delay: f64, queue: f64) -> (Network, Vec<NodeId>) {
    let mut b = NetworkBuilder::new();
    let sw = b.add_switch("sw");
    for i in 0..n_hosts {
        let h = b.add_host(&format!("h{i}"));
        b.duplex_link(h, sw, rate, delay, queue);
    }
    let net = b.build();
    let hosts = (0..n_hosts)
        .map(|i| net.node_by_name(&format!("h{i}")).unwrap())
        .collect();
    (net, hosts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every flow completes, never beats the line rate, and the engine is
    /// deterministic.
    #[test]
    fn flows_complete_within_physics(
        n_flows in 1usize..5,
        bytes in 1e5f64..5e6,
        rate in 5e7f64..2.5e8,
        delay in 1e-6f64..1e-4,
    ) {
        let (net, hosts) = star(6, rate, delay, 5e5);
        let cfg = TcpConfig::default();
        let sim = PacketSim::new(&net, cfg);
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|i| FlowSpec {
                src: hosts[i % 3],
                dst: hosts[3 + i % 3],
                bytes,
                start: 0.0,
            })
            .collect();
        let res = sim.run(&flows);
        for (r, f) in res.iter().zip(&flows) {
            let d = r.duration(f).expect("completed");
            // wire-rate lower bound: payload + headers over the line rate
            let segs = (bytes / cfg.mss).ceil();
            let wire = bytes + segs * cfg.header_overhead;
            prop_assert!(
                d > wire / rate,
                "{d}s beats the line rate ({}s)",
                wire / rate
            );
            prop_assert!(d < 60.0, "{d}s is unreasonably slow");
        }
        // determinism
        let again = sim.run(&flows);
        for (a, b) in res.iter().zip(&again) {
            prop_assert_eq!(a.completion, b.completion);
        }
    }

    /// More payload never finishes sooner — up to tail-loss RTO slack:
    /// a transfer whose *last* slow-start burst is tail-dropped stalls a
    /// full RTO (≥ 200 ms) because nothing behind the loss can generate
    /// duplicate ACKs, while a slightly larger transfer recovers via fast
    /// retransmit. Period-accurate for the paper's Linux 2.6.32 (tail
    /// loss probes only landed in Linux 3.10).
    #[test]
    fn monotone_in_size_up_to_tail_rto(
        small in 1e5f64..1e6,
        factor in 1.5f64..8.0,
    ) {
        let (net, hosts) = star(2, 1.25e8, 2e-5, 5e5);
        let sim = PacketSim::new(&net, TcpConfig::default());
        let run = |bytes: f64| {
            let f = FlowSpec { src: hosts[0], dst: hosts[1], bytes, start: 0.0 };
            sim.run(&[f])[0].duration(&f).unwrap()
        };
        let d_small = run(small);
        let d_big = run(small * factor);
        prop_assert!(
            d_big > d_small - 0.45,
            "{d_big} vs {d_small}: exceeds two tail-RTO episodes"
        );
    }

    /// The fluid engine tracks the packet engine within a factor 2 on
    /// random single-bottleneck scenarios.
    #[test]
    fn fluid_tracks_packet(
        n_flows in 1usize..4,
        bytes in 2e5f64..4e6,
    ) {
        let (net, hosts) = star(5, 1.25e8, 2e-5, 5e5);
        let flows: Vec<FlowSpec> = (0..n_flows)
            .map(|i| FlowSpec { src: hosts[i], dst: hosts[4], bytes, start: 0.0 })
            .collect();
        let packet = PacketSim::new(&net, TcpConfig::default()).run(&flows);
        let fluid = FluidSim::new(
            &net,
            TcpConfig::default(),
            packetsim::fluid::FluidParams { noise_sigma: 0.0, ..Default::default() },
        )
        .run(&flows, 1);
        for ((p, fl), f) in packet.iter().zip(&fluid).zip(&flows) {
            let dp = p.duration(f).unwrap();
            let df = fl.duration(f);
            let ratio = df / dp;
            // incast tail losses can cost the packet engine whole RTO
            // episodes (min 200 ms) that the fluid model does not
            // represent — allow a couple of them as absolute slack
            let rto_slack = (dp - df).abs() < 0.62;
            prop_assert!(
                (0.4..=2.2).contains(&ratio) || rto_slack,
                "fluid {df} vs packet {dp} (ratio {ratio})"
            );
        }
    }

    /// Queues bound memory: tiny buffers still deliver everything
    /// (retransmissions recover every loss).
    #[test]
    fn lossy_paths_still_deliver(
        queue in 1.6e4f64..6e4,
        bytes in 1e6f64..4e6,
    ) {
        let (net, hosts) = star(3, 1.25e8, 2e-5, queue);
        let sim = PacketSim::new(&net, TcpConfig::default());
        let flows = [
            FlowSpec { src: hosts[0], dst: hosts[2], bytes, start: 0.0 },
            FlowSpec { src: hosts[1], dst: hosts[2], bytes, start: 0.0 },
        ];
        let res = sim.run(&flows);
        for r in &res {
            prop_assert!(r.completion.is_some(), "flow starved: {r:?}");
        }
    }
}
