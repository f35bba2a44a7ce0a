//! The per-figure experiment runner (§V).
//!
//! Each figure of the paper is a (topology, n_sources, n_destinations)
//! triple swept over ten transfer sizes, ten repetitions per point. Every
//! repetition draws fresh endpoint sets, runs the *measured* side on the
//! ground-truth testbed (fluid TCP over the true topology, with host
//! overheads and noise) and the *predicted* side through PNFS over the
//! `g5k_test` platform model, and records the per-transfer error
//! `log2(prediction) − log2(measure)`.

use std::sync::Arc;

use g5k::packetsim_conv::TestbedNet;
use g5k::{synth, to_packetsim, to_simflow, Flavor, RefApi};
use packetsim::testbed::TestbedConfig;
use packetsim::FlowSpec;
use pilgrim_core::{Pnfs, TransferRequest};
use simflow::{NetworkConfig, Platform};

use crate::stats::{box_stats, log2_error, median, BoxStats};
use crate::workload::{draw_pairs, sizes, FlowPair, Topology};

/// Everything the experiments share: the reference description, the
/// predictor service and the ground-truth testbed.
pub struct Lab {
    /// The synthetic Grid'5000 slice.
    pub api: RefApi,
    /// The `g5k_test` predictor platform (kept for direct access).
    pub platform: Arc<Platform>,
    /// PNFS with `g5k_test` and `g5k_cabinets` registered.
    pub pnfs: Pnfs,
    /// The ground-truth network + overheads.
    pub tnet: TestbedNet,
    /// Testbed configuration (TCP + fluid parameters).
    pub testbed_config: TestbedConfig,
}

impl Lab {
    /// Builds the standard lab used by every figure.
    pub fn new() -> Self {
        let api = synth::standard();
        let platform = Arc::new(to_simflow(&api, Flavor::G5kTest));
        let mut pnfs = Pnfs::new(NetworkConfig::default());
        pnfs.register_platform("g5k_test", to_simflow(&api, Flavor::G5kTest));
        pnfs.register_platform("g5k_cabinets", to_simflow(&api, Flavor::G5kCabinets));
        let tnet = to_packetsim(&api);
        Lab { api, platform, pnfs, tnet, testbed_config: TestbedConfig::default() }
    }

    /// Measured durations of simultaneously-started transfers (seconds).
    pub fn measure(&self, pairs: &[FlowPair], size: f64, seed: u64) -> Vec<f64> {
        let tb = self.tnet.testbed(self.testbed_config.clone());
        let flows: Vec<FlowSpec> = pairs
            .iter()
            .map(|p| FlowSpec {
                src: self.tnet.network.node_by_name(&p.src).expect("host in testbed"),
                dst: self.tnet.network.node_by_name(&p.dst).expect("host in testbed"),
                bytes: size,
                start: 0.0,
            })
            .collect();
        tb.measure(&flows, seed).iter().map(|m| m.duration).collect()
    }

    /// PNFS predictions for the same transfers (seconds).
    pub fn predict(&self, pairs: &[FlowPair], size: f64, platform: &str) -> Vec<f64> {
        let reqs: Vec<TransferRequest> = pairs
            .iter()
            .map(|p| TransferRequest { src: p.src.clone(), dst: p.dst.clone(), size })
            .collect();
        self.pnfs
            .predict(platform, &reqs)
            .expect("prediction over generated platform")
            .into_iter()
            .map(|p| p.duration)
            .collect()
    }
}

impl Default for Lab {
    fn default() -> Self {
        Self::new()
    }
}

/// Declaration of one figure of the paper.
#[derive(Clone, Debug)]
pub struct FigureSpec {
    /// Identifier (`"fig3"` …).
    pub id: &'static str,
    /// Human title, mirroring the paper's captions.
    pub title: &'static str,
    /// Workload topology.
    pub topology: Topology,
    /// Number of distinct sources.
    pub n_src: usize,
    /// Number of distinct destinations.
    pub n_dst: usize,
}

/// The nine evaluation figures (3–11) of the paper.
pub fn figures() -> Vec<FigureSpec> {
    vec![
        FigureSpec {
            id: "fig3",
            title: "sagittaire / topology CLUSTER / 1 source / 10 destinations",
            topology: Topology::Cluster("sagittaire".into()),
            n_src: 1,
            n_dst: 10,
        },
        FigureSpec {
            id: "fig4",
            title: "sagittaire / topology CLUSTER / 10 sources / 10 destinations",
            topology: Topology::Cluster("sagittaire".into()),
            n_src: 10,
            n_dst: 10,
        },
        FigureSpec {
            id: "fig5",
            title: "sagittaire / topology CLUSTER / 30 sources / 30 destinations",
            topology: Topology::Cluster("sagittaire".into()),
            n_src: 30,
            n_dst: 30,
        },
        FigureSpec {
            id: "fig6",
            title: "graphene / topology CLUSTER / 1 source / 10 destinations",
            topology: Topology::Cluster("graphene".into()),
            n_src: 1,
            n_dst: 10,
        },
        FigureSpec {
            id: "fig7",
            title: "graphene / topology CLUSTER / 10 sources / 10 destinations",
            topology: Topology::Cluster("graphene".into()),
            n_src: 10,
            n_dst: 10,
        },
        FigureSpec {
            id: "fig8",
            title: "graphene / topology CLUSTER / 30 sources / 30 destinations",
            topology: Topology::Cluster("graphene".into()),
            n_src: 30,
            n_dst: 30,
        },
        FigureSpec {
            id: "fig9",
            title: "graphene / topology CLUSTER / 50 sources / 50 destinations",
            topology: Topology::Cluster("graphene".into()),
            n_src: 50,
            n_dst: 50,
        },
        FigureSpec {
            id: "fig10",
            title: "topology GRID_MULTI / 10 sources / 30 destinations",
            topology: Topology::GridMulti,
            n_src: 10,
            n_dst: 30,
        },
        FigureSpec {
            id: "fig11",
            title: "topology GRID_MULTI / 60 sources / 60 destinations",
            topology: Topology::GridMulti,
            n_src: 60,
            n_dst: 60,
        },
    ]
}

/// Looks a figure spec up by id.
pub fn figure(id: &str) -> Option<FigureSpec> {
    figures().into_iter().find(|f| f.id == id)
}

/// One size point of a figure.
#[derive(Clone, Debug)]
pub struct SizePoint {
    /// Transfer size in bytes.
    pub size: f64,
    /// Box summary of the per-transfer errors.
    pub err: BoxStats,
    /// Median measured duration (the right axis of the paper's plots).
    pub median_measured: f64,
    /// Median predicted duration.
    pub median_predicted: f64,
    /// Number of error samples.
    pub n: usize,
}

/// Results of one figure.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// The figure declaration.
    pub spec: FigureSpec,
    /// One point per transfer size.
    pub points: Vec<SizePoint>,
    /// Every raw `(size, error)` sample, for the pooled summary.
    pub all_errors: Vec<(f64, f64)>,
}

/// Runs one figure: `reps` repetitions per size, fresh endpoint draws and
/// noise seeds each repetition. Repetitions run in parallel.
pub fn run_figure(lab: &Lab, spec: &FigureSpec, reps: usize, base_seed: u64) -> FigureData {
    let all_sizes = sizes();
    let mut points = Vec::with_capacity(all_sizes.len());
    let mut all_errors = Vec::new();

    for (si, &size) in all_sizes.iter().enumerate() {
        // one task per repetition, joined below
        let samples: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..reps)
                .map(|rep| {
                    let spec = spec.clone();
                    scope.spawn(move || {
                        let seed = base_seed
                            ^ (si as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (rep as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                        let pairs =
                            draw_pairs(&lab.api, &spec.topology, spec.n_src, spec.n_dst, seed);
                        let measured = lab.measure(&pairs, size, seed);
                        let predicted = lab.predict(&pairs, size, "g5k_test");
                        (measured, predicted)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("repetition")).collect()
        });

        let mut errors = Vec::new();
        let mut measured_all = Vec::new();
        let mut predicted_all = Vec::new();
        for (measured, predicted) in samples {
            for (m, p) in measured.iter().zip(&predicted) {
                errors.push(log2_error(*p, *m));
            }
            measured_all.extend(measured);
            predicted_all.extend(predicted);
        }
        all_errors.extend(errors.iter().map(|e| (size, *e)));
        points.push(SizePoint {
            size,
            err: box_stats(&errors).expect("≥1 sample"),
            median_measured: median(&measured_all).expect("≥1 sample"),
            median_predicted: median(&predicted_all).expect("≥1 sample"),
            n: errors.len(),
        });
    }

    FigureData { spec: spec.clone(), points, all_errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_cover_the_paper() {
        let figs = figures();
        assert_eq!(figs.len(), 9);
        assert!(figure("fig3").is_some());
        assert!(figure("fig11").is_some());
        assert!(figure("fig99").is_none());
        // graphene 50×50 is the biggest cluster experiment
        let f9 = figure("fig9").unwrap();
        assert_eq!((f9.n_src, f9.n_dst), (50, 50));
    }

    #[test]
    fn lab_predicts_and_measures_consistently() {
        let lab = Lab::new();
        let pairs = draw_pairs(
            &lab.api,
            &Topology::Cluster("sagittaire".into()),
            2,
            2,
            1,
        );
        let m = lab.measure(&pairs, 1e8, 1);
        let p = lab.predict(&pairs, 1e8, "g5k_test");
        assert_eq!(m.len(), 2);
        assert_eq!(p.len(), 2);
        for (mm, pp) in m.iter().zip(&p) {
            assert!(*mm > 0.0 && *pp > 0.0);
            // at 100 MB both sides are within a factor 4 on sagittaire
            assert!((pp / mm).log2().abs() < 2.0, "m={mm} p={pp}");
        }
    }
}
