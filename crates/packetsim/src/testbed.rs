//! Measurement conditions: what separates "a TCP transfer" from "a number
//! recorded by an experiment script".
//!
//! The paper's measured completion times come from iperf processes started
//! remotely on Grid'5000 nodes. For small transfers these measurements are
//! dominated by costs that have nothing to do with the network: process
//! startup, connection setup scheduling, and the age of the node. The
//! figures make this visible — on the 2004-era sagittaire nodes, measured
//! 100 KB "transfers" take ~1 s while the model predicts ~4 ms (error −8),
//! while the 2010-era graphene nodes show no such floor.
//!
//! [`Testbed`] reproduces those conditions on top of the simulation
//! engines: a per-host application startup overhead (with jitter) added to
//! every measured duration, and the fluid engine's seeded throughput noise
//! standing in for residual cross-traffic.

use seeded::SmallRng;

use crate::engine::{FlowSpec, PacketSim};
use crate::fluid::{FluidParams, FluidSim};
use crate::net::{Network, NodeId};
use crate::tcp::TcpConfig;

/// Testbed-level configuration.
#[derive(Clone, Debug)]
pub struct TestbedConfig {
    /// TCP endpoint parameters (the paper's tuned squeeze stack).
    pub tcp: TcpConfig,
    /// Fluid-engine parameters.
    pub fluid: FluidParams,
    /// Relative jitter applied to per-host overheads (uniform
    /// `±overhead_jitter`, e.g. `0.15` for ±15 %).
    pub overhead_jitter: f64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            tcp: TcpConfig::default(),
            fluid: FluidParams::default(),
            overhead_jitter: 0.15,
        }
    }
}

/// A simulated experimental testbed: a true network plus measurement
/// overheads.
pub struct Testbed<'n> {
    net: &'n Network,
    cfg: TestbedConfig,
    /// Application startup overhead per node, seconds.
    overheads: Vec<f64>,
}

/// One measured transfer.
#[derive(Clone, Copy, Debug)]
pub struct Measurement {
    /// Measured completion duration in seconds (network time + overheads).
    pub duration: f64,
    /// Whether the transfer saw a saturated resource.
    pub contended: bool,
}

impl<'n> Testbed<'n> {
    /// Wraps `net` with default (zero) overheads.
    pub fn new(net: &'n Network, cfg: TestbedConfig) -> Self {
        let overheads = vec![0.0; net.node_count()];
        Testbed { net, cfg, overheads }
    }

    /// Sets the application startup overhead of one node.
    pub fn set_overhead(&mut self, node: NodeId, seconds: f64) {
        assert!(seconds >= 0.0 && seconds.is_finite());
        self.overheads[node.index()] = seconds;
    }

    /// The configured overhead of a node.
    pub fn overhead(&self, node: NodeId) -> f64 {
        self.overheads[node.index()]
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        self.net
    }

    /// Runs the flows on the fluid engine and returns *measured* durations:
    /// engine duration plus the source host's jittered startup overhead.
    /// `seed` controls both throughput noise and overhead jitter, so a
    /// repetition index maps directly to a seed.
    pub fn measure(&self, flows: &[FlowSpec], seed: u64) -> Vec<Measurement> {
        let engine = FluidSim::new(self.net, self.cfg.tcp, self.cfg.fluid);
        let results = engine.run(flows, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        flows
            .iter()
            .zip(results)
            .map(|(f, r)| {
                let base = self.overheads[f.src.index()];
                let jitter = if self.cfg.overhead_jitter > 0.0 && base > 0.0 {
                    1.0 + rng.gen_range(-self.cfg.overhead_jitter..self.cfg.overhead_jitter)
                } else {
                    1.0
                };
                Measurement {
                    duration: r.duration(f) + base * jitter,
                    contended: r.was_contended,
                }
            })
            .collect()
    }

    /// Same measurement through the per-segment engine (no throughput
    /// noise; used for validation at small scales).
    pub fn measure_packet_level(&self, flows: &[FlowSpec], seed: u64) -> Vec<Measurement> {
        let engine = PacketSim::new(self.net, self.cfg.tcp);
        let results = engine.run(flows);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        flows
            .iter()
            .zip(results)
            .map(|(f, r)| {
                let base = self.overheads[f.src.index()];
                let jitter = if self.cfg.overhead_jitter > 0.0 && base > 0.0 {
                    1.0 + rng.gen_range(-self.cfg.overhead_jitter..self.cfg.overhead_jitter)
                } else {
                    1.0
                };
                Measurement {
                    duration: r
                        .duration(f)
                        .expect("packet-level run exhausted its event budget")
                        + base * jitter,
                    contended: r.retransmits > 0,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkBuilder;

    fn line() -> Network {
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host("h1");
        let sw = b.add_switch("sw");
        let h2 = b.add_host("h2");
        b.duplex_link(h1, sw, 1.25e8, 2e-5, 5e5);
        b.duplex_link(sw, h2, 1.25e8, 2e-5, 5e5);
        b.build()
    }

    #[test]
    fn overhead_dominates_small_transfers() {
        let n = line();
        let (h1, h2) = (n.node_by_name("h1").unwrap(), n.node_by_name("h2").unwrap());
        let mut tb = Testbed::new(&n, TestbedConfig::default());
        tb.set_overhead(h1, 0.9); // sagittaire-style old node
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e5, start: 0.0 };
        let m = tb.measure(&[spec], 1);
        assert!(m[0].duration > 0.7, "overhead must dominate: {}", m[0].duration);
        // the same transfer without overhead is orders of magnitude faster
        let tb2 = Testbed::new(&n, TestbedConfig::default());
        let m2 = tb2.measure(&[spec], 1);
        assert!(m2[0].duration < 0.01, "{}", m2[0].duration);
    }

    #[test]
    fn overhead_negligible_for_large_transfers() {
        let n = line();
        let (h1, h2) = (n.node_by_name("h1").unwrap(), n.node_by_name("h2").unwrap());
        let mut tb = Testbed::new(&n, TestbedConfig::default());
        tb.set_overhead(h1, 0.9);
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e10, start: 0.0 };
        let with = tb.measure(&[spec], 1)[0].duration;
        let tb2 = Testbed::new(&n, TestbedConfig::default());
        let without = tb2.measure(&[spec], 1)[0].duration;
        assert!((with - without) / without < 0.02, "{with} vs {without}");
    }

    #[test]
    fn jitter_varies_with_seed_but_is_reproducible() {
        let n = line();
        let (h1, h2) = (n.node_by_name("h1").unwrap(), n.node_by_name("h2").unwrap());
        let mut tb = Testbed::new(&n, TestbedConfig::default());
        tb.set_overhead(h1, 0.5);
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e6, start: 0.0 };
        let a = tb.measure(&[spec], 1)[0].duration;
        let b = tb.measure(&[spec], 1)[0].duration;
        let c = tb.measure(&[spec], 2)[0].duration;
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn packet_level_measurement_works() {
        let n = line();
        let (h1, h2) = (n.node_by_name("h1").unwrap(), n.node_by_name("h2").unwrap());
        let tb = Testbed::new(&n, TestbedConfig::default());
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e6, start: 0.0 };
        let m = tb.measure_packet_level(&[spec], 1);
        assert!(m[0].duration > 0.0 && m[0].duration < 0.1);
    }
}
