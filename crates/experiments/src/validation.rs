//! Engine cross-validation "figure": packet-level vs fluid ground truth.
//!
//! The paper's measured side is real hardware; ours is a simulator, so the
//! reproduction owes the reader evidence that the *fast* ground-truth
//! engine (fluid) agrees with the *faithful* one (per-segment packet DES)
//! where both can run. This module produces that table, which
//! `experiments --figure figV` prints.

use packetsim::FlowSpec;

use crate::figures::Lab;
use crate::workload::{draw_pairs, Topology};

/// One row of the validation table.
#[derive(Clone, Debug)]
pub struct ValidationPoint {
    /// Transfer size in bytes.
    pub size: f64,
    /// Median duration from the per-segment engine, seconds.
    pub packet_s: f64,
    /// Median duration from the fluid engine, seconds.
    pub fluid_s: f64,
    /// fluid / packet ratio.
    pub ratio: f64,
}

/// Runs sagittaire 1→10 through both engines over the small/medium sizes
/// (per-segment simulation of the 10 GB points would take hours — the
/// exact trade-off the paper describes for packet-level simulators).
pub fn run_validation(lab: &Lab, seed: u64) -> Vec<ValidationPoint> {
    let sizes = [1e5, 3.59e5, 1.29e6, 4.64e6, 1.67e7];
    let pairs = draw_pairs(&lab.api, &Topology::Cluster("sagittaire".into()), 1, 10, seed);
    let tb = lab.tnet.testbed(lab.testbed_config.clone());
    sizes
        .iter()
        .map(|&size| {
            let flows: Vec<FlowSpec> = pairs
                .iter()
                .map(|p| FlowSpec {
                    src: lab.tnet.network.node_by_name(&p.src).expect("host"),
                    dst: lab.tnet.network.node_by_name(&p.dst).expect("host"),
                    bytes: size,
                    start: 0.0,
                })
                .collect();
            let packet: Vec<f64> =
                tb.measure_packet_level(&flows, seed).iter().map(|m| m.duration).collect();
            let fluid: Vec<f64> = tb.measure(&flows, seed).iter().map(|m| m.duration).collect();
            let packet_s = crate::stats::median(&packet).expect("samples");
            let fluid_s = crate::stats::median(&fluid).expect("samples");
            ValidationPoint { size, packet_s, fluid_s, ratio: fluid_s / packet_s }
        })
        .collect()
}

/// ASCII rendering of the validation table.
pub fn render_validation(points: &[ValidationPoint]) -> String {
    let mut out = String::from(
        "figV — ground-truth engine agreement (sagittaire CLUSTER 1→10)\n\
         per-segment TCP DES vs RTT-round fluid TCP, median durations\n\n",
    );
    out.push_str(&format!(
        "{:>10} | {:>12} {:>12} {:>8}\n",
        "size(B)", "packet(s)", "fluid(s)", "ratio"
    ));
    out.push_str(&"-".repeat(50));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:>10.2e} | {:>12.5} {:>12.5} {:>8.3}\n",
            p.size, p.packet_s, p.fluid_s, p.ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engines_agree_within_factor_two() {
        let lab = Lab::new();
        let points = run_validation(&lab, 1);
        assert_eq!(points.len(), 5);
        for p in &points {
            assert!(
                (0.5..=2.0).contains(&p.ratio),
                "size {}: fluid/packet ratio {} out of bounds",
                p.size,
                p.ratio
            );
        }
        let text = render_validation(&points);
        assert!(text.contains("figV"));
    }
}
