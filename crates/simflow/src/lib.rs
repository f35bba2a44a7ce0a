//! # simflow — a flow-level network discrete-event simulator
//!
//! `simflow` reimplements, from scratch, the simulation engine the Pilgrim
//! paper ("Dynamic Network Forecasting using SimGrid Simulations",
//! CLUSTER 2012) obtains from SimGrid: TCP transfers are modeled at the
//! *flow* level — no packets, no protocol state machine — with bandwidth
//! shared among concurrent flows by an RTT-aware weighted max-min
//! allocation, recalibrated constants from the LV08 model (Velho & Legrand
//! 2009), and hierarchical routing zones that keep whole-platform routing
//! tractable (Bobelin et al. 2011).
//!
//! The result is a simulator fast enough to answer *online* forecasting
//! queries — the paper reports a 30-flow prediction on the full Grid'5000
//! model in under 0.1 s. `pnfs::tests::thirty_concurrent_transfers_are_fast_to_predict`
//! times that request, and the `paper_30_transfers` row of
//! `tests/kernel_counts.rs` pins the kernel work it costs.
//!
//! ## Quick tour
//!
//! ```
//! use simflow::platform::builder::PlatformBuilder;
//! use simflow::platform::routing::{Element, RoutingKind};
//! use simflow::platform::SharingPolicy;
//! use simflow::{NetworkConfig, Simulation};
//!
//! // a -- 1 Gbit/s, 100 µs -- b
//! let mut b = PlatformBuilder::new("root", RoutingKind::Full);
//! let root = b.root_zone();
//! let a = b.add_host(root, "a", 1e9);
//! let c = b.add_host(root, "b", 1e9);
//! let l = b.add_link("l", 1.25e8, 1e-4, SharingPolicy::Shared);
//! b.add_route(root, Element::Point(a.netpoint()), Element::Point(c.netpoint()),
//!             vec![l], true);
//! let platform = b.build().unwrap();
//!
//! let mut sim = Simulation::new(&platform, NetworkConfig::default());
//! let (a, c) = (platform.host_by_name("a").unwrap(), platform.host_by_name("b").unwrap());
//! let t = sim.add_transfer(a, c, 5e8).unwrap();
//! let report = sim.run().unwrap();
//! assert!(report.duration(t).as_secs() > 4.0); // ≈ 500 MB over ≈ 121 MB/s
//! ```
//!
//! ## Modules
//!
//! * [`platform`] — hosts, links, routing zones, route resolution;
//! * [`model`] — the weighted max-min solver;
//! * [`kernel`] — the event-driven engine;
//! * [`config`] — CM02/LV08 model constants;
//! * [`units`] — typed time/bytes/rate scalars.

#![forbid(unsafe_code)]

pub mod config;
pub mod connect;
pub mod kernel;
pub mod model;
pub mod platform;
pub mod trace;
pub mod units;

pub use config::{NetworkConfig, SimTuning};
pub use connect::Connectivity;
pub use kernel::{
    Completion, CompletionOutcome, DeadRoutePolicy, KernelStats, PlatformEventKind, Report,
    ResolvedPath, SimError, SimScratch, Simulation, WorkId, WorkKind,
};
pub use model::{SolverStats, WarmReplayStats, COMP_SIZE_BUCKETS};
pub use platform::builder::{BuildError, PlatformBuilder};
pub use platform::routing::{Element, RoutingKind};
pub use platform::{
    HostId, LinkId, NetPointId, Platform, Route, RouteError, RouteMemoStats, SharingPolicy, ZoneId,
};
pub use trace::{Trace, TraceEvent};
pub use units::{Bytes, Duration, Rate, SimTime};
