//! # forecast — the concurrent forecast engine
//!
//! The paper's PNFS answers one query by building a fresh flow-level
//! simulation and running it on the calling thread. That is fine for a
//! demo and hopeless for a service: under concurrent traffic every HTTP
//! worker burns CPU rebuilding identical scaffolding and re-simulating
//! identical questions. This crate is the serving layer that fixes that
//! without adding a thread: a forecast still runs on the thread that
//! asked (an HTTP worker), but it starts from warm scaffolding and runs
//! only when nobody has asked the same question already — which a
//! bounded *probe* stage finds out before any work is done, cheaply
//! enough for the HTTP poller to ask it inline ([`engine`] module docs).
//! Two pieces:
//!
//! ## Warm sessions ([`session`])
//!
//! Per-platform scaffolding that queries should not rebuild: the solver
//! capacity vector (built once per platform), the link-state overlay
//! that serving-time link events leave, and the scratch of finished
//! simulations — a dozen platform-sized arrays that
//! each forecast resets by visiting only what the previous one touched,
//! so a warm forecast costs in proportion to its request, not to the
//! platform. Sessions are `Arc`-shared across HTTP workers; the backing
//! [`simflow::Platform`] is immutable.
//!
//! ## A cache keyed by the query
//!
//! A forecast is a pure function of `(session, overlay, query)`. The
//! cache keys it by the session's registration id and the query as host
//! ids + size bits, which the probe builds from host names alone, with
//! no route; a repeated query returns the memoized result, which
//! renders to bit-identical JSON upstream. The overlay stays out of the
//! key because no entry outlives it: a serving-time link event (a link
//! degrading, failing or recovering — [`ForecastEngine::link_event`])
//! evicts exactly the entries whose routes cross the link, while
//! disjoint queries keep hitting. A result computed across an event is
//! not filed (the `cache` module docs have the full contract). The
//! cache is the one record of what was asked before: nothing else
//! remembers a query. Every entry is a [`Selection`], and a predict and
//! the one-hypothesis select of it key alike, so they share one entry.
//!
//! ## Determinism
//!
//! Every forecast is the paper's §VI loop — lower-bound the hypotheses,
//! simulate them one at a time cheapest bound first, prune against the
//! running best — pinned to its independent reference implementation
//! (`pilgrim_core::Pnfs::select_fastest_reference`): same winner,
//! makespan and pruned set. A predict, the selection of one hypothesis,
//! adds its requests in order to one simulation of the degraded platform
//! ([`Session::simulate`], on recycled scratch), which is what a
//! from-scratch kernel run of the batch does — the bit-identity tests
//! compare the two. Background traffic is not modelled, as in the
//! paper's PNFS.
//!
//! ## Singleflight
//!
//! Concurrent duplicate requests are *coalesced* ([`engine`] module
//! docs): one leader simulates, followers that read the same overlay
//! version share its `Arc`'d result — panic-safe, counted, and
//! bit-identical by the determinism contract.
//! A leader's result is filed only if the overlay it read is still
//! current, so the cache never answers with a forecast the engine has
//! declared out of date. [`faults`] provides the seed-deterministic
//! fault injection the chaos tests drive all of this with.

#![forbid(unsafe_code)]

mod cache;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod session;

pub use engine::{
    check_hypotheses, lend, ForecastEngine, ForecastError, Pending, Probed, Selection, Transfer,
    TransferSpec,
};
pub use metrics::{ForecastMetrics, KernelCounters};
pub use faults::{Fault, FaultInjector, FaultPlan};
pub use session::{LinkState, ResolvedSpec, Session};
