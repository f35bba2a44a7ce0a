//! Bottom-layer telemetry: the workspace's single definition of a
//! metric.
//!
//! Every runtime crate (`exec`, `simflow`, `forecast`, `pilgrim-core`)
//! records into the instruments defined here; `pilgrim-core` renders
//! them at `GET /pilgrim/metrics` in Prometheus text exposition format
//! and folds the legacy `/pilgrim/stats` JSON onto the same handles, so
//! a counter exists exactly once no matter how many views read it.
//!
//! Design constraints, in order:
//!
//! 1. **Always-on and provably cheap.** Instruments are lock-free on
//!    the record path: a [`Counter`] is one relaxed `fetch_add`, a
//!    [`Histogram`] record is four (bucket, count, sum, max). There is
//!    no sampling, no feature flag, and no `if enabled` branch. The
//!    kernel pays nothing for it because the *kernel* never reads a
//!    clock or touches an atomic inside the solve: it counts events
//!    with plain integers and sessions aggregate the totals into
//!    registry instruments after each solve. `simflow`'s
//!    `tests/solve_structure.rs` enforces that rule on the solve's
//!    source.
//! 2. **Handles are cheap and shared.** Every instrument is an `Arc`
//!    around its atomics; `clone()` is the intended way to hand one to
//!    a worker thread, a cache, or a registry. The registry *adopts*
//!    externally created instruments (see
//!    [`MetricsRegistry::adopt_counter`]) so a subsystem can own its
//!    counters from construction and surface them later.
//! 3. **No dependencies beyond std**, mirroring `exec`: this crate is
//!    below everything else in the workspace graph.
//!
//! The [`Histogram`] is log-linear (HdrHistogram-style): 8 exact unit
//! buckets, then 8 linear sub-buckets per power-of-two octave, ~500
//! buckets covering all of `u64` in ~4 KiB, worst-case relative error
//! 12.5%. Histograms merge bucket-wise ([`Histogram::merge_from`],
//! property-tested for associativity/commutativity) and extract
//! p50/p90/p99/max exactly by rank walk over the atomic bucket counts.
//!
//! [`Span`] is the record-on-drop timer: `Span::start(&stage_hist)` at
//! a stage boundary, drop at the end, and the elapsed nanoseconds land
//! in that stage's histogram.

#![forbid(unsafe_code)]

mod histogram;
mod instruments;
mod registry;
mod span;

pub use histogram::Histogram;
pub use instruments::{Counter, Gauge};
pub use registry::MetricsRegistry;
pub use span::Span;
