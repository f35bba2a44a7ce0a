//! # pilgrim-core — the Pilgrim metrology and forecasting framework
//!
//! This crate is the reproduction of the paper's contribution proper: the
//! **Pilgrim** framework and its two REST services.
//!
//! * [`metrology`] — the remote RRD access API (§IV-C.1): bounded fetches
//!   that stitch the most accurate data from each file's round-robin
//!   archives, answered as JSON;
//! * [`pnfs`] — the Pilgrim Network Forecast Service (§IV-C.2): given
//!   `(src, dst, size)` tuples, instantiate a flow-level simulation of the
//!   platform per request and answer with predicted completion times —
//!   fast enough (< 0.1 s for 30 transfers) to sit inside a scheduler's
//!   decision loop;
//! * [`service`] + [`http`] — the REST surface: GET with URI-embedded
//!   parameters, JSON answers, exactly the examples printed in the paper.
//!   Its three forecasts — a predict, a selection among hypotheses and a
//!   §VI workflow of dependent compute and transfer tasks — take one path:
//!   a probe that keys the query and looks the engine's cache up, then,
//!   on a miss, one compute stage.
//!
//! The HTTP server is built on Linux `epoll` (bound directly, see the
//! `sys` module), so this crate — and every test, bench, benchmark and
//! example that starts a [`http::Server`] — builds on Linux only.
//!
//! ```no_run
//! use pilgrim_core::http::Server;
//! use pilgrim_core::{Metrology, PilgrimService, Pnfs};
//! use simflow::NetworkConfig;
//!
//! let mut pnfs = Pnfs::new(NetworkConfig::default());
//! pnfs.register_platform(
//!     "g5k_test",
//!     g5k::to_simflow(&g5k::synth::standard(), g5k::Flavor::G5kTest),
//! );
//! let service = PilgrimService::new(Metrology::new(), pnfs);
//! let server = Server::start("127.0.0.1:0", 4, service.into_handler()).unwrap();
//! println!("Pilgrim listening on {}", server.addr());
//! ```

#[cfg(not(target_os = "linux"))]
compile_error!("pilgrim-core's HTTP server needs Linux epoll; no other target is supported");

pub mod calibration;
pub mod http;
pub mod metrology;
pub mod pnfs;
mod poller;
pub mod service;
mod sys;
mod workflow;

pub use calibration::calibrate;
pub use metrology::{Metrology, MetrologyError};
pub use pnfs::{FastestSelection, Pnfs, PnfsError, Prediction, TransferRequest};
pub use service::PilgrimService;
