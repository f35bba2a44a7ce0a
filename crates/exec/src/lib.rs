//! # exec — the workspace's shared execution layer
//!
//! The bottom-most concurrency crate. Its one [`WorkerPool`] runs the
//! requests the HTTP poller defers (`pilgrim-core`); nothing below a
//! request fans out — a forecast, its simulation and the solver's
//! component solves all run on the worker that dequeued the request, so
//! a serving process has exactly the threads its `ServerConfig` asks for.
//!
//! ## Panics
//!
//! A panicking job never takes a worker thread down. [`WorkerPool::submit`]
//! jobs are fire-and-forget: the panic is counted and swallowed (there is
//! no caller left to inform), and the worker goes on to the next job.
//!
//! ## Observability
//!
//! The pool is always instrumented (see [`pool::PoolMetrics`]): a queue
//! depth gauge, a per-job service-time histogram, and the
//! `panics_caught` counter. Handles are shared atomics from the
//! `telemetry` crate — [`WorkerPool::register_metrics`] adopts them
//! into a `MetricsRegistry` for `/pilgrim/metrics` exposition.
//!
//! ## Completion hand-back
//!
//! Event-loop consumers (the `pilgrim-core` HTTP poller) receive worker
//! results through [`handback::Handback`]: workers push finished items
//! and fire a pluggable wake callback (a pipe write, for epoll), the
//! consumer drains the batch in O(1) lock time.

#![forbid(unsafe_code)]

pub mod handback;
pub mod pool;

pub use handback::Handback;
pub use pool::{PoolMetrics, WorkerPool};
