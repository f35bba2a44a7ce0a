//! # g5k — the Grid'5000 platform substrate
//!
//! The paper's predictions are only as good as its platform description,
//! which it derives from the Grid'5000 Reference API. This crate is the
//! reproduction's stand-in for that API and for the conversion scripts:
//!
//! * [`refapi`] — the data model (sites, clusters, node hardware,
//!   aggregation wiring, routers, backbone);
//! * [`synth`] — the synthetic three-site slice (Lille, Lyon, Nancy) with
//!   the clusters the paper describes: sagittaire's 79 directly-wired
//!   nodes, graphene's 144 nodes behind four 10G-uplinked switches
//!   (Figure 2), plus the sibling clusters named in the paper's examples;
//! * [`simflow_conv`] — generation of the predictor's platform model in
//!   the paper's `g5k_test` and `g5k_cabinets` flavors, plus the flat
//!   full-routing variant for the hierarchical-routing ablation;
//! * [`packetsim_conv`] — generation of the *true* network for the
//!   ground-truth engines, carrying exactly the details the platform
//!   model lacks (real LAN latencies, router backplane limits, host
//!   overheads).
//!
//! ```
//! use g5k::{synth, simflow_conv::{to_simflow, Flavor}};
//!
//! let api = synth::standard();
//! let platform = to_simflow(&api, Flavor::G5kTest);
//! assert_eq!(platform.host_count(), api.node_count());
//! ```

#![forbid(unsafe_code)]

pub mod latencies;
pub mod packetsim_conv;
pub mod refapi;
pub mod simflow_conv;
pub mod synth;

pub use packetsim_conv::{to_packetsim, TestbedNet};
pub use refapi::{Aggregation, BackboneLink, Cluster, GroupSpec, NodeModel, RefApi, Router, Site};
pub use latencies::Latencies;
pub use simflow_conv::{to_simflow, to_simflow_calibrated, Flavor};
