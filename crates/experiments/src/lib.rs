//! # experiments — the paper's evaluation, regenerated
//!
//! This crate reruns §V of the paper end to end: for every figure it
//! draws the paper's workloads, *measures* them on the ground-truth
//! testbed (fluid TCP over the true topology, per-segment DES for
//! validation) and *predicts* them through PNFS over the `g5k_test`
//! platform model, then reports the error
//! `log2(prediction) − log2(measure)` per transfer size exactly like the
//! paper's plots, plus the pooled accuracy summary.
//!
//! Run it with the `experiments` binary:
//!
//! ```text
//! experiments --all --reps 10 --out results/
//! experiments --figure fig8
//! experiments --summary
//! ```
//!
//! Modules: [`workload`] (sizes, CLUSTER/GRID_MULTI draws), [`figures`](mod@figures)
//! (the nine figure specs and the runner), [`stats`] (boxes, medians, the
//! error metric), [`render`] (tables, ASCII plots, CSV, the Fig 1–2
//! inventories), [`summary`] (the pooled §V-B numbers), [`validation`]
//! (packet-vs-fluid ground-truth agreement).

#![forbid(unsafe_code)]

pub mod ablation;
pub mod background;
pub mod figures;
pub mod render;
pub mod stats;
pub mod summary;
pub mod validation;
pub mod workload;

pub use ablation::{run_calibration_ablation, run_flavor_ablation, run_model_ablation, CalibrationPoint, FlavorPoint, ModelPoint};
pub use background::{run_background_ablation, BackgroundPoint, BackgroundSpec};
pub use figures::{figure, figures, run_figure, FigureData, FigureSpec, Lab, SizePoint};
pub use stats::{box_stats, log2_error, BoxStats};
pub use summary::{summarize, Summary};
pub use workload::{draw_pairs, sizes, FlowPair, Topology, ACCURACY_THRESHOLD};
