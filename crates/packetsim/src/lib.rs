//! # packetsim — the "real testbed" substitute
//!
//! The CLUSTER 2012 Pilgrim paper validates its flow-level forecasts
//! against iperf transfers executed on the physical Grid'5000 platform.
//! This reproduction has no Grid'5000, so `packetsim` provides the ground
//! truth instead, at two fidelity levels sharing one topology description:
//!
//! * [`engine::PacketSim`] — a per-segment TCP discrete-event simulator
//!   (handshake, slow start, CUBIC/Reno, delayed ACKs, fast retransmit,
//!   RTO, drop-tail queues, switch backplane limits). Faithful but slow —
//!   exactly the trade-off the paper describes for packet-level
//!   simulators.
//! * [`fluid::FluidSim`] — an RTT-round fluid TCP model with the same
//!   connection lifecycle (handshake, slow-start ramp, steady sharing),
//!   scalable to the paper's full parameter sweeps. Its steady-state
//!   shares come from the same weighted max-min principle real TCP
//!   approximates, *computed on the true topology including equipment
//!   capacity limits that the predictor's platform model lacks* — the
//!   paper points at precisely this gap ("the generated SimGrid platform
//!   description does not yet contain network equipments bandwidth
//!   limits").
//! * [`testbed`] — the measurement-condition wrapper: per-host application
//!   startup overhead (dominant for small transfers on the 2004-era
//!   sagittaire nodes) and seeded run-to-run noise standing in for
//!   residual cross-traffic.
//!
//! `fluid` is cross-validated against `engine` in `tests/agreement.rs`.

#![forbid(unsafe_code)]

pub mod engine;
pub mod fluid;
pub mod net;
pub mod tcp;
pub mod testbed;

pub use engine::{ChannelStats, FlowResult, FlowSpec, PacketSim, RunReport};
pub use fluid::FluidSim;
pub use net::{ChannelId, Network, NetworkBuilder, NodeId};
pub use tcp::{CongestionControl, TcpConfig};
pub use testbed::{Testbed, TestbedConfig};
