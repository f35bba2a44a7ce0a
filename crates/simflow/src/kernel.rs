//! The discrete-event simulation kernel.
//!
//! As in SimGrid, the kernel is event-driven at the granularity of
//! *resource-sharing changes*: whenever a piece of work starts, finishes
//! its latency phase, or completes, bandwidth/CPU shares are recomputed
//! with the max-min solver and simulated time fast-forwards directly to
//! the next event. Between two events all rates are constant.
//!
//! Two structures keep the event loop incremental (SimGrid calls the
//! equivalent machinery *lazy action management*, arXiv:1309.1630):
//!
//! * a **lazy completion calendar** — a min-heap of predicted finish
//!   times keyed by a per-work generation counter. When a reshare changes
//!   a work's rate, its generation is bumped and a fresh prediction
//!   pushed; entries whose generation no longer matches are skipped on
//!   pop. Each work's `remaining` amount is settled lazily (only when its
//!   rate changes or it completes), so an event costs `O(log n)` plus the
//!   size of the affected component instead of a scan of every work.
//!   Events settling at one simulated instant — completions, starts,
//!   and any chain of dependents that become ready and finish instantly
//!   (zero-size transfers) — batch into a *single* merged-seed reshare
//!   ([`Report::reshares`] counts them), not a solver round-trip per
//!   event (the one exception: an instant completion only a reshare can
//!   reveal, i.e. an infinite-rate unconstrained work, settles in a
//!   second pass at the same instant);
//!
//! * an **incremental sharing solver** — flows are registered with the
//!   persistent [`MaxMinSolver`] once at `add_transfer`/`add_compute`,
//!   starts and finishes toggle per-resource membership (and a
//!   persistent connectivity index, so a reshare resolves its components
//!   from standing labels instead of a per-event graph search — see
//!   [`crate::connect`]), and a reshare re-solves only the components of
//!   flows transitively sharing a resource with a changed flow. Disjoint clusters keep their rates,
//!   and the produced rates match re-solving the whole problem from
//!   scratch (exactly for one-shot solves, within ulps across long
//!   activate/deactivate histories — see `model.rs`). Components are
//!   solved one after another on the calling thread; warm-start filling
//!   (on by default, see [`crate::SimTuning`]) resumes each component's
//!   progressive filling from the first freeze level its seeds
//!   invalidate, without changing any output bit.
//!
//! Transfers have two phases, mirroring the CM02/LV08 action model:
//! a *latency phase* of `latency_factor × route latency` during which no
//! bandwidth is consumed, then a *bandwidth phase* during which the flow
//! takes part in max-min sharing. Compute tasks share their host's CPU
//! through the same solver (the paper's §VI extension to full workflows).
//!
//! ## Platform events and the dead-route policy
//!
//! Platforms need not be static: [`Simulation::add_platform_event`] (and
//! the link-level wrappers [`Simulation::add_capacity_change`],
//! [`Simulation::add_link_down`] / [`Simulation::add_link_up`]) schedule
//! trace-driven changes of a resource's capacity into the same event
//! calendar, mirroring SimGrid's availability/state trace inputs. A
//! capacity change is just a reshare seeded with the resource's active
//! flows; down/up events additionally flip a per-resource dead flag.
//! What happens to a flow whose route dies is the [`DeadRoutePolicy`]:
//!
//! * [`DeadRoutePolicy::Fail`] (the default) — the flow completes
//!   immediately with [`CompletionOutcome::Failed`], and so do,
//!   transitively, all works depending on it; a work that would *start*
//!   onto a dead route fails at its start instant instead of joining the
//!   competition.
//! * [`DeadRoutePolicy::Stall`] — the flow stays active at rate zero
//!   (the zero-capacity resource pins its share) and resumes when the
//!   resource comes back up; if nothing can ever wake it the run ends
//!   with [`SimError::Stalled`].
//!
//! Platform events fold into the same-instant batched reshare like every
//! other event, and the post-event rates are exactly what a from-scratch
//! rebuild of the sharing problem under the new capacities would produce
//! (`tests/platform_events.rs` pins the equivalence with warm start on
//! and off).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::config::{NetworkConfig, SimTuning};
use crate::model::{MaxMinSolver, SolverStats};
use crate::platform::{HostId, LinkId, Platform, RouteError, SharingPolicy};
use crate::trace::{Trace, TraceEvent};
use crate::units::{Duration, SimTime};

/// Identifier of a scheduled piece of work within one [`Simulation`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct WorkId(pub u32);

/// What a piece of work is.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkKind {
    /// A TCP transfer of `size` bytes.
    Transfer {
        /// Source host.
        src: HostId,
        /// Destination host.
        dst: HostId,
        /// Payload size in bytes.
        size: f64,
    },
    /// A computation of `flops` floating-point operations.
    Compute {
        /// Executing host.
        host: HostId,
        /// Amount of computation.
        flops: f64,
    },
}

/// What happens to a flow whose route loses a resource to a
/// [`PlatformEventKind::Down`] event (or that would start onto one).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum DeadRoutePolicy {
    /// The flow ends immediately with [`CompletionOutcome::Failed`];
    /// works depending on it fail transitively at the same instant.
    #[default]
    Fail,
    /// The flow stays active at rate zero until the resource comes back
    /// up ([`PlatformEventKind::Up`]); if it never does, the run ends
    /// with [`SimError::Stalled`].
    Stall,
}

/// How a piece of work ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CompletionOutcome {
    /// Ran to completion; `finish` is when the work's amount reached
    /// zero.
    #[default]
    Completed,
    /// Killed by a dead route under [`DeadRoutePolicy::Fail`] (directly
    /// or through a failed dependency); `finish` is the failure instant.
    Failed,
}

/// A scheduled change of the platform mid-run, in the style of SimGrid's
/// availability/state traces. See the module docs for how each kind
/// folds into the same-instant batched reshare.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum PlatformEventKind {
    /// Rescale the resource's capacity to `factor ×` its nominal value
    /// (`0.0` is legal: the resource still exists but serves nothing).
    Capacity(f64),
    /// The resource goes dead: capacity zero plus the
    /// [`DeadRoutePolicy`] applied to flows crossing it.
    Down,
    /// The resource recovers, restoring the last scheduled capacity
    /// factor (nominal if none was scheduled).
    Up,
}

/// The completion record of one piece of work.
#[derive(Clone, Debug, PartialEq)]
pub struct Completion {
    /// The work this record describes.
    pub id: WorkId,
    /// What it was.
    pub kind: WorkKind,
    /// When it was scheduled to start.
    pub start: SimTime,
    /// When it completed.
    pub finish: SimTime,
    /// How it ended (all-`Completed` on a static platform).
    pub outcome: CompletionOutcome,
}

impl Completion {
    /// Wall-clock duration from scheduled start to completion.
    pub fn duration(&self) -> Duration {
        self.finish.duration_since(self.start)
    }

    /// Whether the work was killed by a dead route rather than running
    /// to completion.
    pub fn failed(&self) -> bool {
        self.outcome == CompletionOutcome::Failed
    }
}

/// Event counts of one simulation run (observability). Everything here
/// is a plain integer tally — the kernel and solver never read
/// wall-clock, so the bit-identical cold/warm solve paths are
/// untouched by instrumentation. Sessions aggregate these
/// into the process-wide metrics registry *after* `run` returns.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Solver reshares (same value as [`Report::reshares`]).
    pub reshares: u64,
    /// Completion-calendar heap pops, including stale entries discarded
    /// by peeks (the lazy-deletion overhead the calendar trades for
    /// O(log) updates).
    pub calendar_pops: u64,
    /// Peak completion-calendar length over the run, stale entries
    /// included — the calendar's memory high-water mark (entries are 16
    /// bytes each). Compaction (see `run`) bounds it to a small multiple
    /// of the live work count.
    pub calendar_peak: u64,
    /// Approximate heap bytes held by the solver's warm-start cache when
    /// the run finished (see [`crate::model::MaxMinSolver::warm_bytes`]).
    /// The one field that is not an event count: it reads buffer
    /// capacities, which a recycled [`SimScratch`] keeps, so it may
    /// differ between a recycled and a fresh run of the same simulation.
    pub warm_bytes: u64,
    /// Solver component dispatch counts, size histogram and warm-replay
    /// outcomes.
    pub solver: SolverStats,
}

/// Results of a simulation run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// One record per scheduled work, sorted by [`WorkId`].
    pub completions: Vec<Completion>,
    /// How many solver reshares the run performed (observability: all
    /// same-instant events *known before rates are needed* —
    /// completions, starts, chained ready dependents, and zero-size
    /// works completing instantly — batch into one; only works whose
    /// instant completion is discovered *by* a reshare, i.e.
    /// infinite-rate unconstrained transfers, need a second one).
    pub reshares: u64,
    /// Full event-count breakdown of the run (reshares, calendar pops,
    /// component sizes, warm-replay outcomes).
    pub stats: KernelStats,
}

impl Report {
    /// The completion record of `id`.
    pub fn completion(&self, id: WorkId) -> &Completion {
        &self.completions[id.0 as usize]
    }

    /// The duration of `id`.
    pub fn duration(&self, id: WorkId) -> Duration {
        self.completion(id).duration()
    }

    /// The time the whole schedule finished (zero if nothing ran).
    pub fn makespan(&self) -> SimTime {
        self.completions
            .iter()
            .map(|c| c.finish)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

/// Errors raised by the kernel.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A transfer endpoint pair has no route.
    Route(RouteError),
    /// Running work can make no progress (all rates zero) and no event is
    /// pending — the simulation would never terminate.
    Stalled {
        /// Simulated time at which progress stopped.
        at: f64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Route(e) => write!(f, "routing error: {e}"),
            SimError::Stalled { at } => write!(f, "simulation stalled at t={at}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<RouteError> for SimError {
    fn from(e: RouteError) -> Self {
        SimError::Route(e)
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Waiting for its start event.
    Scheduled,
    /// Transfer in its latency phase.
    Delaying,
    /// Consuming resources.
    Running,
    /// Finished.
    Done,
}

#[derive(Clone, Debug)]
struct WorkState {
    kind: WorkKind,
    status: Status,
    start: SimTime,
    /// Modeled latency phase duration (transfers).
    delay: f64,
    /// Remaining amount (bytes or flops) *as of `last_update`* — settled
    /// lazily when the rate changes or the work completes.
    remaining: f64,
    /// Completion tolerance (size-relative, see `done_tol`).
    tol: f64,
    /// Current allocated rate.
    rate: f64,
    /// Simulated seconds at which `remaining` was last settled.
    last_update: f64,
    /// Invalidates stale calendar entries: bumped whenever a fresh
    /// completion prediction is pushed.
    generation: u32,
    finish: SimTime,
    /// Unfinished predecessors; the work starts `start` seconds after the
    /// last one completes (treating `start` as a relative offset).
    deps_remaining: u32,
    /// Works waiting on this one.
    dependents: Vec<WorkId>,
    /// Killed by a dead route (see [`DeadRoutePolicy::Fail`]).
    failed: bool,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Event {
    Start(WorkId),
    LatencyDone(WorkId),
    /// Index into `Simulation::platform_events` — the side table keeps
    /// the event's `f64` payload out of this `Ord`-derived queue key.
    Platform(u32),
}

/// Mutable platform state of a dynamic simulation: pristine capacities,
/// the current per-resource capacity factor, and the down flags.
/// Allocated lazily on the first platform event or down-mark so static
/// simulations pay nothing for the feature.
#[derive(Clone, Debug)]
struct Dynamics {
    base: Vec<f64>,
    factor: Vec<f64>,
    down: Vec<bool>,
}

/// A route resolved into the model quantities a transfer needs, decoupled
/// from any particular [`Simulation`] so callers (e.g. a warm forecast
/// session) can resolve once and replay the result across many
/// simulations of the same platform. Feeding a `ResolvedPath` back through
/// [`Simulation::add_transfer_resolved`] produces bit-identical behavior
/// to [`Simulation::add_transfer_at`] on the same endpoints.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedPath {
    /// Solver resource ids of the *shared* links along the route.
    pub resources: Vec<u32>,
    /// Max-min weight of a flow on this route (RTT + Σ weight_s / C_l).
    pub weight: f64,
    /// Per-flow rate cap: fat-pipe bandwidths and the TCP window bound.
    pub cap: f64,
    /// End-to-end one-way latency of the route, in seconds.
    pub latency: f64,
    /// Modeled startup delay (`latency_factor × latency`).
    pub delay: f64,
    /// Minimum effective bandwidth over *all* links of the route (shared
    /// and fat-pipe alike), before the TCP window bound. Infinite for
    /// empty routes. A cheap lower-bound ingredient for schedulers.
    pub bottleneck: f64,
}

impl ResolvedPath {
    /// Resolves the route between two hosts under `config`, computing the
    /// exact quantities [`Simulation::add_transfer_at`] would derive.
    pub fn resolve(
        platform: &Platform,
        config: &NetworkConfig,
        src: HostId,
        dst: HostId,
    ) -> Result<ResolvedPath, SimError> {
        let route = platform.route_hosts(src, dst)?;
        let mut resources = Vec::with_capacity(route.links.len());
        let mut cap = f64::INFINITY;
        let mut bottleneck = f64::INFINITY;
        let mut weight = route.latency;
        for l in &route.links {
            let link = platform.link(*l);
            let eff_bw = link.bandwidth * config.bandwidth_factor;
            weight += config.weight_s / eff_bw;
            bottleneck = bottleneck.min(eff_bw);
            match link.policy {
                SharingPolicy::Shared => resources.push(l.index() as u32),
                SharingPolicy::FatPipe => cap = cap.min(eff_bw),
            }
        }
        // TCP window bound: γ / (2 · end-to-end latency).
        if route.latency > 0.0 {
            cap = cap.min(config.tcp_gamma / (2.0 * route.latency));
        }
        Ok(ResolvedPath {
            resources,
            weight: weight.max(1e-9),
            cap,
            latency: route.latency,
            delay: config.latency_factor * route.latency,
            bottleneck,
        })
    }
}

/// A single simulation over a shared [`Platform`].
pub struct Simulation<'p> {
    platform: &'p Platform,
    config: NetworkConfig,
    scratch: SimScratch,
}

/// Everything a [`Simulation`] owns besides its platform and model
/// configuration: the solver (with its per-resource arrays, member
/// lists, component labels and warm cache), the work table, the event
/// queue, the completion calendar and the platform events. Several of
/// those hold one entry per platform resource, so building one costs
/// `O(resources)` however small the simulation.
///
/// A scratch borrows nothing, so it outlives the simulation that used
/// it: [`Simulation::run_recycling`] hands it back, [`SimScratch::reset`]
/// restores what [`SimScratch::new`] would build, visiting only what the
/// last run touched, and [`Simulation::from_scratch`] starts the next
/// simulation of the same platform from it. A run from a reset scratch
/// is bit-identical to a run from a fresh one.
pub struct SimScratch {
    works: Vec<WorkState>,
    /// Event queue ordered by time, then insertion order (determinism).
    events: BinaryHeap<Reverse<(SimTime, u64, Event)>>,
    seq: u64,
    /// Persistent sharing solver; work `i` is solver flow `i`.
    solver: MaxMinSolver,
    /// Lazy completion calendar: `(predicted finish, work, generation)`.
    /// Ties resolve by ascending work id, matching the reference kernel's
    /// completion scan order.
    calendar: BinaryHeap<Reverse<(SimTime, u32, u32)>>,
    /// Set once the run loop starts; guards late `add_dependencies`.
    started: bool,
    /// Calendar heap pops, stale discards included (pure count — see
    /// [`KernelStats`]).
    calendar_pops: u64,
    /// Calendar length high-water mark (see [`KernelStats`]).
    calendar_peak: u64,
    /// Scheduled platform events, indexed by [`Event::Platform`].
    platform_events: Vec<(u32, PlatformEventKind)>,
    /// Dynamic-platform state; `None` until the first platform event.
    dynamics: Option<Box<Dynamics>>,
    policy: DeadRoutePolicy,
}

impl SimScratch {
    /// A fresh scratch over a capacity vector (the value of
    /// [`Simulation::shared_capacities`] for the platform it will serve),
    /// with warm-start filling on.
    pub fn new(capacities: Vec<f64>) -> SimScratch {
        SimScratch {
            works: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            solver: MaxMinSolver::new(capacities),
            calendar: BinaryHeap::new(),
            started: false,
            calendar_pops: 0,
            calendar_peak: 0,
            platform_events: Vec::new(),
            dynamics: None,
            policy: DeadRoutePolicy::default(),
        }
    }

    /// Makes a scratch handed back by [`Simulation::run_recycling`] —
    /// after `Ok` or `Err` — equal to `SimScratch::new(base_capacities)`
    /// (keeping its warm-start setting), at a cost proportional to what
    /// the last simulation touched: its works and events, the resources
    /// on their routes and the resources whose capacity it changed.
    /// Buffers keep their capacity, so the next simulation of a similar
    /// size allocates almost nothing. `base_capacities` must be the
    /// vector the scratch was built from.
    pub fn reset(&mut self, base_capacities: &[f64]) {
        self.works.clear();
        self.events.clear();
        self.seq = 0;
        self.solver.reset(base_capacities);
        self.calendar.clear();
        self.started = false;
        self.calendar_pops = 0;
        self.calendar_peak = 0;
        self.platform_events.clear();
        self.dynamics = None;
        self.policy = DeadRoutePolicy::default();
    }

    /// Whether the scratch is indistinguishable from
    /// `SimScratch::new(base_capacities)` to any simulation: every
    /// per-resource array is compared in full, so this costs
    /// `O(resources)`. A test oracle for [`SimScratch::reset`].
    #[doc(hidden)]
    pub fn is_pristine(&self, base_capacities: &[f64]) -> bool {
        self.works.is_empty()
            && self.events.is_empty()
            && self.seq == 0
            && self.solver.is_pristine(base_capacities)
            && self.calendar.is_empty()
            && !self.started
            && self.calendar_pops == 0
            && self.calendar_peak == 0
            && self.platform_events.is_empty()
            && self.dynamics.is_none()
            && self.policy == DeadRoutePolicy::default()
    }
}

impl<'p> Simulation<'p> {
    /// Creates a simulation over `platform` with the given model
    /// configuration.
    pub fn new(platform: &'p Platform, config: NetworkConfig) -> Self {
        let capacities = Self::shared_capacities(platform, &config);
        Self::with_capacities(platform, config, capacities)
    }

    /// The solver capacity vector `new` would build for `platform`: one
    /// entry per link (its effective shared bandwidth; infinite for fat
    /// pipes, which only cap individual flows) followed by one entry per
    /// host (its compute speed). Building this is `O(links + hosts)`;
    /// warm forecast sessions compute it once per platform and hand
    /// clones to [`Simulation::with_capacities`].
    pub fn shared_capacities(platform: &Platform, config: &NetworkConfig) -> Vec<f64> {
        let mut capacities = Vec::with_capacity(platform.link_count() + platform.host_count());
        for i in 0..platform.link_count() {
            let link = &platform.links[i];
            // Fat pipes never saturate collectively; they only cap
            // individual flows, which is folded into per-flow caps.
            let c = match link.policy {
                SharingPolicy::Shared => link.bandwidth * config.bandwidth_factor,
                SharingPolicy::FatPipe => f64::INFINITY,
            };
            capacities.push(c);
        }
        for h in &platform.hosts {
            capacities.push(h.speed);
        }
        capacities
    }

    /// Creates a simulation from a prebuilt capacity vector (the value of
    /// [`Simulation::shared_capacities`] for this platform/config pair).
    /// Behavior is identical to [`Simulation::new`]; this constructor just
    /// skips rebuilding the vector.
    pub fn with_capacities(
        platform: &'p Platform,
        config: NetworkConfig,
        capacities: Vec<f64>,
    ) -> Self {
        Self::with_tuning(platform, config, capacities, SimTuning::default())
    }

    /// Creates a simulation with explicit execution tuning: the
    /// warm-start toggle. Tuning never changes results (solver output is
    /// bit-identical with warm start on or off).
    pub fn with_tuning(
        platform: &'p Platform,
        config: NetworkConfig,
        capacities: Vec<f64>,
        tuning: SimTuning,
    ) -> Self {
        let mut scratch = SimScratch::new(capacities);
        scratch.solver.set_warm_start(tuning.warm_start);
        Self::from_scratch(platform, config, scratch)
    }

    /// Creates a simulation from a fresh [`SimScratch`] or one that
    /// [`SimScratch::reset`] restored, built for this platform's
    /// [`Simulation::shared_capacities`] under `config`. Behaviour is
    /// that of [`Simulation::with_capacities`] on the same vector.
    ///
    /// # Panics
    /// Panics if the scratch ran a simulation and was not reset since.
    pub fn from_scratch(platform: &'p Platform, config: NetworkConfig, scratch: SimScratch) -> Self {
        assert!(!scratch.started, "SimScratch reused without a reset");
        debug_assert_eq!(
            scratch.solver.resource_count(),
            platform.link_count() + platform.host_count(),
            "capacity vector does not match the platform"
        );
        Simulation { platform, config, scratch }
    }

    /// Selects what happens to flows whose route dies (see
    /// [`DeadRoutePolicy`]). Default: [`DeadRoutePolicy::Fail`].
    pub fn set_dead_route_policy(&mut self, policy: DeadRoutePolicy) {
        self.scratch.policy = policy;
    }

    fn resource_count(&self) -> usize {
        self.platform.link_count() + self.platform.host_count()
    }

    fn ensure_dynamics(&mut self) {
        if self.scratch.dynamics.is_none() {
            let solver = &self.scratch.solver;
            let base: Vec<f64> =
                (0..self.resource_count() as u32).map(|r| solver.capacity(r)).collect();
            self.scratch.dynamics = Some(Box::new(Dynamics {
                factor: vec![1.0; base.len()],
                down: vec![false; base.len()],
                base,
            }));
        }
    }

    /// Schedules a platform event on a raw solver resource id — links
    /// are `0..link_count` in [`LinkId`] order, host CPUs follow in host
    /// order (the link-level wrappers below cover the common case).
    /// Events at one instant batch into the same merged-seed reshare as
    /// every other kernel event.
    ///
    /// # Panics
    /// Panics on out-of-range resources and non-finite or negative
    /// capacity factors.
    pub fn add_platform_event(&mut self, resource: u32, kind: PlatformEventKind, at: SimTime) {
        assert!((resource as usize) < self.resource_count(), "unknown resource");
        if let PlatformEventKind::Capacity(f) = kind {
            assert!(f.is_finite() && f >= 0.0, "invalid capacity factor");
        }
        self.ensure_dynamics();
        let idx = self.scratch.platform_events.len() as u32;
        self.scratch.platform_events.push((resource, kind));
        self.scratch.push_event(at, Event::Platform(idx));
    }

    /// Schedules a rescale of `link`'s capacity to `factor ×` nominal at
    /// `at` (degradation below 1.0, recovery back to 1.0, …).
    pub fn add_capacity_change(&mut self, link: LinkId, factor: f64, at: SimTime) {
        self.add_platform_event(link.index() as u32, PlatformEventKind::Capacity(factor), at);
    }

    /// Schedules `link` going down at `at`.
    pub fn add_link_down(&mut self, link: LinkId, at: SimTime) {
        self.add_platform_event(link.index() as u32, PlatformEventKind::Down, at);
    }

    /// Schedules `link` coming back up at `at`.
    pub fn add_link_up(&mut self, link: LinkId, at: SimTime) {
        self.add_platform_event(link.index() as u32, PlatformEventKind::Up, at);
    }

    /// Marks a resource dead before the run starts — a platform already
    /// degraded at t = 0 (e.g. a forecast session that witnessed a link
    /// failure). Under [`DeadRoutePolicy::Fail`] every work routed over
    /// the resource fails at its start instant; under
    /// [`DeadRoutePolicy::Stall`] it waits for a scheduled
    /// [`PlatformEventKind::Up`].
    ///
    /// # Panics
    /// Panics if called after [`Simulation::run`] started or on
    /// out-of-range resources.
    pub fn mark_resource_down(&mut self, resource: u32) {
        assert!(!self.scratch.started, "mark_resource_down after the run started");
        assert!((resource as usize) < self.resource_count(), "unknown resource");
        self.ensure_dynamics();
        let d = self.scratch.dynamics.as_mut().expect("just ensured");
        d.down[resource as usize] = true;
        self.scratch.solver.set_capacity(resource, 0.0);
    }

    /// Scales a resource's capacity by `factor` before the run starts —
    /// a platform already degraded (or upgraded) at t = 0, such as a
    /// forecast session's link-state overlay. The product is exactly the
    /// one scaling the vector handed to [`Simulation::with_capacities`]
    /// would give. Scale before marking resources down or scheduling
    /// platform events: the first of those records the capacities that
    /// recoveries and capacity factors start from.
    ///
    /// # Panics
    /// Panics if called after [`Simulation::run`] started, on
    /// out-of-range resources and on non-finite or negative factors.
    pub fn scale_capacity(&mut self, resource: u32, factor: f64) {
        assert!(!self.scratch.started, "scale_capacity after the run started");
        assert!((resource as usize) < self.resource_count(), "unknown resource");
        assert!(factor.is_finite() && factor >= 0.0, "invalid capacity factor");
        let solver = &mut self.scratch.solver;
        solver.set_capacity(resource, solver.capacity(resource) * factor);
    }

    /// Schedules a transfer starting at `start`. The route is resolved
    /// immediately; routing failures surface here rather than mid-run.
    pub fn add_transfer_at(
        &mut self,
        src: HostId,
        dst: HostId,
        size_bytes: f64,
        start: SimTime,
    ) -> Result<WorkId, SimError> {
        let path = ResolvedPath::resolve(self.platform, &self.config, src, dst)?;
        let (weight, cap, delay) = (path.weight, path.cap, path.delay);
        Ok(self.push_transfer(src, dst, size_bytes, start, path.resources, weight, cap, delay))
    }

    /// Schedules a transfer along an already-resolved path (obtained from
    /// [`ResolvedPath::resolve`] on the same platform/config, possibly
    /// cached across simulations). Equivalent to
    /// [`Simulation::add_transfer_at`] minus the route resolution.
    pub fn add_transfer_resolved(
        &mut self,
        src: HostId,
        dst: HostId,
        size_bytes: f64,
        start: SimTime,
        path: &ResolvedPath,
    ) -> WorkId {
        self.push_transfer(
            src,
            dst,
            size_bytes,
            start,
            path.resources.clone(),
            path.weight,
            path.cap,
            path.delay,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn push_transfer(
        &mut self,
        src: HostId,
        dst: HostId,
        size_bytes: f64,
        start: SimTime,
        resources: Vec<u32>,
        weight: f64,
        cap: f64,
        delay: f64,
    ) -> WorkId {
        assert!(size_bytes.is_finite() && size_bytes >= 0.0, "invalid size");
        let s = &mut self.scratch;
        let id = WorkId(s.works.len() as u32);
        s.solver.register(resources, weight, cap);
        s.works.push(WorkState {
            kind: WorkKind::Transfer { src, dst, size: size_bytes },
            status: Status::Scheduled,
            start,
            delay,
            remaining: size_bytes,
            tol: Self::done_tol(size_bytes),
            rate: 0.0,
            last_update: 0.0,
            generation: 0,
            finish: SimTime::ZERO,
            deps_remaining: 0,
            dependents: Vec::new(),
            failed: false,
        });
        s.push_event(start, Event::Start(id));
        id
    }

    /// Declares that `work` cannot start before every id in `deps` has
    /// completed (workflow edges, the paper's §VI extension). The work's
    /// own `start` time then acts as an extra delay after the last
    /// dependency finishes.
    ///
    /// # Panics
    /// Panics if called after [`Simulation::run`] started, on self-deps,
    /// on unknown ids, or on dependencies that already completed.
    pub fn add_dependencies(&mut self, work: WorkId, deps: &[WorkId]) {
        let s = &mut self.scratch;
        assert!(
            !s.started,
            "add_dependencies called after the run started"
        );
        assert!((work.0 as usize) < s.works.len(), "unknown work");
        for d in deps {
            assert_ne!(*d, work, "work cannot depend on itself");
            assert!((d.0 as usize) < s.works.len(), "unknown dependency");
            assert!(
                s.works[d.0 as usize].status != Status::Done,
                "dependency already completed"
            );
            s.works[d.0 as usize].dependents.push(work);
            s.works[work.0 as usize].deps_remaining += 1;
        }
    }

    /// Schedules a transfer starting at time zero.
    pub fn add_transfer(
        &mut self,
        src: HostId,
        dst: HostId,
        size_bytes: f64,
    ) -> Result<WorkId, SimError> {
        self.add_transfer_at(src, dst, size_bytes, SimTime::ZERO)
    }

    /// Schedules a computation of `flops` on `host` starting at `start`.
    pub fn add_compute_at(&mut self, host: HostId, flops: f64, start: SimTime) -> WorkId {
        assert!(flops.is_finite() && flops >= 0.0, "invalid flops");
        let resource = (self.platform.link_count() + self.platform.host_index(host)) as u32;
        let s = &mut self.scratch;
        let id = WorkId(s.works.len() as u32);
        s.solver.register(vec![resource], 1.0, f64::INFINITY);
        s.works.push(WorkState {
            kind: WorkKind::Compute { host, flops },
            status: Status::Scheduled,
            start,
            delay: 0.0,
            remaining: flops,
            tol: Self::done_tol(flops),
            rate: 0.0,
            last_update: 0.0,
            generation: 0,
            finish: SimTime::ZERO,
            deps_remaining: 0,
            dependents: Vec::new(),
            failed: false,
        });
        s.push_event(start, Event::Start(id));
        id
    }

    /// Schedules a computation starting at time zero.
    pub fn add_compute(&mut self, host: HostId, flops: f64) -> WorkId {
        self.add_compute_at(host, flops, SimTime::ZERO)
    }

    /// Work is complete when its residue is negligible *relative to its
    /// size*: integrating `rate × Δt` leaves an error of a few ulps of the
    /// total amount, so an absolute cutoff would never trigger for 10 GB
    /// transfers (the residue alone exceeds it) and the loop would stall
    /// on `now + ε == now`.
    fn done_tol(total: f64) -> f64 {
        1e-9 * total.max(1.0) + 1e-6
    }

    /// Runs the simulation to completion, consuming it.
    pub fn run(self) -> Result<Report, SimError> {
        Ok(self.run_consuming(false)?.0)
    }

    /// Runs the simulation while recording a [`Trace`] of every start,
    /// rate change and completion.
    pub fn run_traced(self) -> Result<(Report, Trace), SimError> {
        self.run_consuming(true)
    }

    fn run_consuming(mut self, traced: bool) -> Result<(Report, Trace), SimError> {
        let (mut report, trace) = self.scratch.run_inner(traced)?;
        // Consuming the works lets the completions take over their buffer.
        report.completions =
            self.scratch.works.into_iter().enumerate().map(|(i, w)| completion(i, &w)).collect();
        Ok((report, trace))
    }

    /// [`Simulation::run`], handing the scratch back — whatever the
    /// outcome — so that, once [`SimScratch::reset`], it can start the
    /// next simulation of the platform without rebuilding its
    /// platform-sized arrays.
    pub fn run_recycling(mut self) -> (Result<Report, SimError>, SimScratch) {
        let result = self.scratch.run_inner(false).map(|(mut report, _)| {
            report.completions =
                self.scratch.works.iter().enumerate().map(|(i, w)| completion(i, w)).collect();
            report
        });
        (result, self.scratch)
    }
}

impl SimScratch {
    fn push_event(&mut self, t: SimTime, e: Event) {
        self.events.push(Reverse((t, self.seq, e)));
        self.seq += 1;
    }

    /// Transitions `id` into the running state: joins the sharing
    /// competition and, for works that need no resource time (zero-sized
    /// or already within tolerance), books an immediate completion.
    /// Under [`DeadRoutePolicy::Fail`] a work starting onto a route with
    /// a dead resource fails here instead of joining the competition.
    fn start_running(
        &mut self,
        id: WorkId,
        now: SimTime,
        seeds: &mut Vec<u32>,
        n_remaining: &mut usize,
        traced: bool,
        trace: &mut Trace,
    ) {
        if self.policy == DeadRoutePolicy::Fail {
            if let Some(d) = self.dynamics.as_deref() {
                if self.solver.flow_resources(id.0).iter().any(|&r| d.down[r as usize]) {
                    self.fail_work(id, now, seeds, n_remaining, traced, trace);
                    return;
                }
            }
        }
        let w = &mut self.works[id.0 as usize];
        w.status = Status::Running;
        w.last_update = now.as_secs();
        self.solver.activate(id.0);
        seeds.push(id.0);
        if w.remaining <= w.tol {
            w.generation += 1;
            self.calendar.push(Reverse((now, id.0, w.generation)));
        }
    }

    /// Fails `root` (dead route under [`DeadRoutePolicy::Fail`]) and,
    /// transitively, every work depending on it: each becomes a
    /// [`CompletionOutcome::Failed`] completion at `now`. Running flows
    /// leave the sharing competition, and their departure seeds the
    /// batch's reshare — composing with the connectivity split machinery
    /// exactly like an ordinary completion.
    fn fail_work(
        &mut self,
        root: WorkId,
        now: SimTime,
        seeds: &mut Vec<u32>,
        n_remaining: &mut usize,
        traced: bool,
        trace: &mut Trace,
    ) {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            let wi = id.0 as usize;
            if self.works[wi].status == Status::Done {
                continue;
            }
            if self.works[wi].status == Status::Running {
                self.solver.deactivate(id.0);
                seeds.push(id.0);
            }
            let w = &mut self.works[wi];
            w.status = Status::Done;
            w.failed = true;
            w.finish = now;
            *n_remaining -= 1;
            if traced {
                trace.events.push(TraceEvent::Finished { id, at: now });
            }
            stack.extend(std::mem::take(&mut self.works[wi].dependents));
        }
    }

    /// Applies one scheduled platform event inside the same-instant
    /// batch: updates the resource's effective capacity and folds its
    /// active flows into the batch's reshare seeds (a `Down` under
    /// [`DeadRoutePolicy::Fail`] fails them instead). Down-while-down
    /// and up-while-up are no-ops; a capacity change while down only
    /// records the factor for the eventual recovery.
    #[allow(clippy::too_many_arguments)]
    fn apply_platform_event(
        &mut self,
        r: u32,
        kind: PlatformEventKind,
        now: SimTime,
        seeds: &mut Vec<u32>,
        n_remaining: &mut usize,
        traced: bool,
        trace: &mut Trace,
    ) {
        let ri = r as usize;
        let d = self.dynamics.as_mut().expect("platform event without dynamics");
        let (new_cap, kill) = match kind {
            PlatformEventKind::Capacity(factor) => {
                d.factor[ri] = factor;
                if d.down[ri] {
                    (None, false)
                } else {
                    (Some(d.base[ri] * factor), false)
                }
            }
            PlatformEventKind::Down => {
                if d.down[ri] {
                    (None, false)
                } else {
                    d.down[ri] = true;
                    (Some(0.0), self.policy == DeadRoutePolicy::Fail)
                }
            }
            PlatformEventKind::Up => {
                if d.down[ri] {
                    d.down[ri] = false;
                    (Some(d.base[ri] * d.factor[ri]), false)
                } else {
                    (None, false)
                }
            }
        };
        let Some(cap) = new_cap else { return };
        self.solver.set_capacity(r, cap);
        if traced {
            trace.events.push(TraceEvent::PlatformChanged { resource: r, at: now, capacity: cap });
        }
        if kill {
            let members: Vec<u32> = self.solver.active_members(r).to_vec();
            for f in members {
                self.fail_work(WorkId(f), now, seeds, n_remaining, traced, trace);
            }
        } else {
            let members: Vec<u32> = self.solver.active_members(r).to_vec();
            seeds.extend_from_slice(&members);
        }
    }

    /// The earliest valid completion prediction, discarding stale
    /// calendar entries (finished works, outdated generations) on the way.
    fn peek_calendar(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((t, id, gen))) = self.calendar.peek() {
            let w = &self.works[id as usize];
            if w.status == Status::Running && w.generation == gen {
                return Some(t);
            }
            self.calendar.pop();
            self.calendar_pops += 1;
        }
        None
    }

    /// The run loop. The report it returns has the counts but no
    /// completions yet: those stay in `works` for the caller to collect,
    /// by value or by copy, and the scratch stays as the run left it.
    fn run_inner(&mut self, traced: bool) -> Result<(Report, Trace), SimError> {
        self.started = true;
        let mut trace = Trace::default();

        let mut now = SimTime::ZERO;
        let mut n_remaining = self.works.len();
        // Reused buffers: flows whose state changed this instant (solver
        // seeds), works unblocked by completions, and the solver's
        // changed-rate output (copied out to release the solver borrow).
        let mut seeds: Vec<u32> = Vec::new();
        let mut newly_unblocked: Vec<WorkId> = Vec::new();
        let mut rate_changed: Vec<u32> = Vec::new();

        while n_remaining > 0 {
            let next_event = self.events.peek().map(|Reverse((t, _, _))| *t);
            let next_completion = self.peek_calendar();

            let t = match (next_event, next_completion) {
                (Some(e), Some(c)) => e.min(c),
                (Some(e), None) => e,
                (None, Some(c)) => c,
                (None, None) => {
                    return Err(SimError::Stalled { at: now.as_secs() });
                }
            };
            now = t;

            seeds.clear();

            // Same-instant fixpoint: a work that enters Running already
            // within tolerance (a zero-size transfer) books its completion
            // at `now` itself — and completing it may unblock dependents
            // that start, finish, and unblock more, all at this instant.
            // Looping here folds the whole chain into ONE merged-seed
            // reshare instead of a solver round-trip per link; completion
            // times are unchanged (no simulated time passes, so the
            // intermediate rate blips the per-event loop would compute
            // transfer zero bytes). Only instant completions a reshare
            // itself discovers — infinite-rate unconstrained works — still
            // need a second pass at this instant, since their rate does
            // not exist before the solver runs.
            loop {

            // Completions due now, in ascending work order (heap ties
            // resolve by id). `remaining` needs no settling: the predicted
            // instant is exactly when it reaches zero at the current rate.
            while let Some(&Reverse((te, id, gen))) = self.calendar.peek() {
                let wi = id as usize;
                if self.works[wi].status != Status::Running || self.works[wi].generation != gen
                {
                    self.calendar.pop();
                    self.calendar_pops += 1;
                    continue;
                }
                if te > now {
                    break;
                }
                self.calendar.pop();
                self.calendar_pops += 1;
                let w = &mut self.works[wi];
                w.status = Status::Done;
                w.remaining = 0.0;
                w.finish = now;
                n_remaining -= 1;
                self.solver.deactivate(id);
                seeds.push(id);
                if traced {
                    trace.events.push(TraceEvent::Finished { id: WorkId(id), at: now });
                }
                let dependents = std::mem::take(&mut self.works[wi].dependents);
                for d in dependents {
                    let dep = &mut self.works[d.0 as usize];
                    dep.deps_remaining -= 1;
                    if dep.deps_remaining == 0 {
                        newly_unblocked.push(d);
                    }
                }
            }
            for d in newly_unblocked.drain(..) {
                // the dependent's own `start` acts as a relative delay
                let offset = self.works[d.0 as usize].start.as_secs();
                let t_start = now + Duration::from_secs(offset);
                self.works[d.0 as usize].start = t_start;
                self.push_event(t_start, Event::Start(d));
            }

            // Scheduled events at `now`.
            while let Some(Reverse((te, _, _))) = self.events.peek() {
                if *te > now {
                    break;
                }
                let Reverse((_, _, ev)) = self.events.pop().expect("peeked");
                match ev {
                    Event::Start(id) => {
                        if self.works[id.0 as usize].deps_remaining > 0
                            || now < self.works[id.0 as usize].start
                        {
                            // stale initial event of a dependent work;
                            // dependency completion (re)schedules the real
                            // start at `works[id].start`
                            continue;
                        }
                        if self.works[id.0 as usize].status != Status::Scheduled {
                            continue;
                        }
                        if traced {
                            trace.events.push(TraceEvent::Started { id, at: now });
                        }
                        let delay = self.works[id.0 as usize].delay;
                        if delay > 0.0 {
                            self.works[id.0 as usize].status = Status::Delaying;
                            self.push_event(
                                now + Duration::from_secs(delay),
                                Event::LatencyDone(id),
                            );
                        } else {
                            self.start_running(
                                id, now, &mut seeds, &mut n_remaining, traced, &mut trace,
                            );
                        }
                    }
                    Event::LatencyDone(id) => {
                        if self.works[id.0 as usize].status != Status::Delaying {
                            // failed (dead route, failed dependency)
                            // while in its latency phase
                            continue;
                        }
                        self.start_running(
                            id, now, &mut seeds, &mut n_remaining, traced, &mut trace,
                        );
                    }
                    Event::Platform(idx) => {
                        let (r, kind) = self.platform_events[idx as usize];
                        self.apply_platform_event(
                            r, kind, now, &mut seeds, &mut n_remaining, traced, &mut trace,
                        );
                    }
                }
            }

            // Anything newly due at `now` (an instant completion booked by
            // a start above) joins this batch; otherwise the instant is
            // fully drained.
            if self.peek_calendar().is_none_or(|tc| tc > now) {
                break;
            }

            } // same-instant fixpoint

            // Reshare the affected component and reschedule predictions
            // for every flow whose rate moved.
            if !seeds.is_empty() {
                rate_changed.clear();
                rate_changed.extend_from_slice(self.solver.reshare(&seeds));
                for &f in &rate_changed {
                    let wi = f as usize;
                    let new_rate = self.solver.rate(f);
                    let w = &mut self.works[wi];
                    debug_assert_eq!(w.status, Status::Running);
                    // Settle the amount done at the old rate before it
                    // changes; from here the new prediction is exact.
                    let dt = now.as_secs() - w.last_update;
                    if dt > 0.0 && w.rate > 0.0 {
                        if w.rate.is_infinite() {
                            w.remaining = 0.0;
                        } else {
                            w.remaining = (w.remaining - w.rate * dt).max(0.0);
                        }
                    }
                    w.last_update = now.as_secs();
                    w.rate = new_rate;
                    w.generation += 1;
                    if w.remaining <= w.tol || new_rate.is_infinite() {
                        self.calendar.push(Reverse((now, f, w.generation)));
                    } else if new_rate > 0.0 {
                        // A finish beyond the largest finite time is never
                        // reached: as for a zero rate, no entry is booked
                        // and the run ends in `SimError::Stalled`.
                        let tf = now.as_secs() + w.remaining / new_rate;
                        if tf.is_finite() {
                            let tf = SimTime::from_secs(tf);
                            self.calendar.push(Reverse((tf, f, w.generation)));
                        }
                    }
                    if traced {
                        trace.events.push(TraceEvent::RateChanged {
                            id: WorkId(f),
                            at: now,
                            rate: new_rate,
                        });
                    }
                }
            }

            // Calendar hygiene for large N. Lazy deletion leaves one
            // stale entry behind per rate change, so a long run over many
            // flows can grow the heap far past the live work count. Track
            // the high-water mark (`KernelStats::calendar_peak`) and, once
            // stale entries dominate, rebuild the heap from the valid
            // ones — O(len) per compaction, amortized free since it only
            // fires after the heap doubled past the bound.
            let cal_len = self.calendar.len();
            if cal_len as u64 > self.calendar_peak {
                self.calendar_peak = cal_len as u64;
            }
            if cal_len > 4 * n_remaining + 1024 {
                let mut entries = std::mem::take(&mut self.calendar).into_vec();
                entries.retain(|&Reverse((_, id, gen))| {
                    let w = &self.works[id as usize];
                    w.status == Status::Running && w.generation == gen
                });
                self.calendar = BinaryHeap::from(entries);
            }
        }

        let reshares = self.solver.reshares();
        let stats = KernelStats {
            reshares,
            calendar_pops: self.calendar_pops,
            calendar_peak: self.calendar_peak,
            warm_bytes: self.solver.warm_bytes(),
            solver: self.solver.stats().clone(),
        };
        Ok((Report { completions: Vec::new(), reshares, stats }, trace))
    }
}

/// The completion record of work `i` after the run.
fn completion(i: usize, w: &WorkState) -> Completion {
    Completion {
        id: WorkId(i as u32),
        kind: w.kind.clone(),
        start: w.start,
        finish: w.finish,
        outcome: if w.failed {
            CompletionOutcome::Failed
        } else {
            CompletionOutcome::Completed
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkConfig;
    use crate::model::SharingProblem;
    use crate::platform::builder::PlatformBuilder;
    use crate::platform::routing::{Element, RoutingKind};
    use crate::platform::SharingPolicy;

    /// a --l(bw,lat)-- b
    fn pair(bw: f64, lat: f64) -> crate::platform::Platform {
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let a = b.add_host(root, "a", 1e9);
        let c = b.add_host(root, "b", 1e9);
        let l = b.add_link("l", bw, lat, SharingPolicy::Shared);
        b.add_route(root, Element::Point(a.netpoint()), Element::Point(c.netpoint()), vec![l], true);
        b.build().unwrap()
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn lone_transfer_ideal_model() {
        let p = pair(1e8, 1e-3);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t = sim.add_transfer(a, b, 1e8).unwrap();
        let r = sim.run().unwrap();
        // T = lat + size/bw = 1e-3 + 1.0
        assert!(close(r.duration(t).as_secs(), 1.001), "{}", r.duration(t));
    }

    #[test]
    fn lone_transfer_lv08_model() {
        let p = pair(1.25e8, 1e-4);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let cfg = NetworkConfig::default();
        let mut sim = Simulation::new(&p, cfg);
        let t = sim.add_transfer(a, b, 1e9).unwrap();
        let r = sim.run().unwrap();
        let cap = cfg.tcp_gamma / (2.0 * 1e-4);
        let eff = (1.25e8 * cfg.bandwidth_factor).min(cap);
        let expect = cfg.latency_factor * 1e-4 + 1e9 / eff;
        assert!(close(r.duration(t).as_secs(), expect), "{} vs {expect}", r.duration(t));
    }

    #[test]
    fn window_cap_binds_on_long_fat_path() {
        // 10 Gbit/s but 50 ms latency: γ/(2·lat) = 4194304/0.1 ≈ 41.9 MB/s
        // far below the 1.25 GB/s link rate.
        let p = pair(1.25e9, 0.05);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let cfg = NetworkConfig::default();
        let mut sim = Simulation::new(&p, cfg);
        let t = sim.add_transfer(a, b, 4.194304e8).unwrap();
        let r = sim.run().unwrap();
        let cap = cfg.tcp_gamma / (2.0 * 0.05);
        let expect = cfg.latency_factor * 0.05 + 4.194304e8 / cap;
        assert!(close(r.duration(t).as_secs(), expect), "{} vs {expect}", r.duration(t));
    }

    #[test]
    fn concurrent_transfers_share_fairly() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t1 = sim.add_transfer(a, b, 1e8).unwrap();
        let t2 = sim.add_transfer(a, b, 1e8).unwrap();
        let r = sim.run().unwrap();
        // both share 1e8/2 the whole way: 2 s each
        assert!(close(r.duration(t1).as_secs(), 2.0), "{}", r.duration(t1));
        assert!(close(r.duration(t2).as_secs(), 2.0));
    }

    #[test]
    fn staggered_start_releases_bandwidth() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        // t1 runs alone 1 s (100 MB at 100 MB/s needs 1 s if alone).
        // t2 arrives at t=0.5: from then on each gets 50 MB/s.
        // t1: 50 MB left at 0.5 → +1 s → finishes 1.5; t2 has 100 MB,
        // gets 50 MB/s until 1.5 (50 MB done), then 100 MB/s → finishes 2.0.
        let t1 = sim.add_transfer_at(a, b, 1e8, SimTime::ZERO).unwrap();
        let t2 = sim.add_transfer_at(a, b, 1e8, SimTime::from_secs(0.5)).unwrap();
        let r = sim.run().unwrap();
        assert!(close(r.completion(t1).finish.as_secs(), 1.5), "{:?}", r);
        assert!(close(r.completion(t2).finish.as_secs(), 2.0), "{:?}", r);
    }

    #[test]
    fn same_host_transfer_takes_latency_only() {
        let p = pair(1e8, 1e-4);
        let a = p.host_by_name("a").unwrap();
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t = sim.add_transfer(a, a, 1e9).unwrap();
        let r = sim.run().unwrap();
        assert!(close(r.duration(t).as_secs(), 0.0), "{}", r.duration(t));
    }

    #[test]
    fn zero_sized_transfer_costs_latency() {
        let p = pair(1e8, 1e-3);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t = sim.add_transfer(a, b, 0.0).unwrap();
        let r = sim.run().unwrap();
        assert!(close(r.duration(t).as_secs(), 1e-3), "{}", r.duration(t));
    }

    #[test]
    fn compute_tasks_share_cpu() {
        let p = pair(1e8, 0.0);
        let a = p.host_by_name("a").unwrap();
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let c1 = sim.add_compute(a, 1e9); // 1 Gflop on 1 Gflop/s host
        let c2 = sim.add_compute(a, 1e9);
        let r = sim.run().unwrap();
        assert!(close(r.duration(c1).as_secs(), 2.0), "{}", r.duration(c1));
        assert!(close(r.duration(c2).as_secs(), 2.0));
    }

    #[test]
    fn transfer_and_compute_are_independent_resources() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t = sim.add_transfer(a, b, 1e8).unwrap();
        let c = sim.add_compute(a, 1e9);
        let r = sim.run().unwrap();
        assert!(close(r.duration(t).as_secs(), 1.0));
        assert!(close(r.duration(c).as_secs(), 1.0));
    }

    #[test]
    fn fatpipe_caps_but_does_not_share() {
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let a = b.add_host(root, "a", 1e9);
        let c = b.add_host(root, "b", 1e9);
        let l = b.add_link("bb", 1e8, 0.0, SharingPolicy::FatPipe);
        b.add_route(root, Element::Point(a.netpoint()), Element::Point(c.netpoint()), vec![l], true);
        let p = b.build().unwrap();
        let (a, c) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t1 = sim.add_transfer(a, c, 1e8).unwrap();
        let t2 = sim.add_transfer(a, c, 1e8).unwrap();
        let r = sim.run().unwrap();
        // both flows get the full 1e8 individually
        assert!(close(r.duration(t1).as_secs(), 1.0), "{}", r.duration(t1));
        assert!(close(r.duration(t2).as_secs(), 1.0));
    }

    #[test]
    fn rtt_unfair_sharing_prefers_short_flow() {
        // Two flows share a middle link; one also crosses a high-latency
        // access link. With LV08 weights the short-RTT flow finishes
        // noticeably earlier even though sizes are equal.
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let s1 = b.add_host(root, "s1", 1e9);
        let s2 = b.add_host(root, "s2", 1e9);
        let d = b.add_host(root, "d", 1e9);
        let mid = b.add_link("mid", 1.25e8, 1e-4, SharingPolicy::Shared);
        let far = b.add_link("far", 1.25e9, 5e-2, SharingPolicy::Shared);
        b.add_route(root, Element::Point(s1.netpoint()), Element::Point(d.netpoint()), vec![mid], true);
        b.add_route(root, Element::Point(s2.netpoint()), Element::Point(d.netpoint()), vec![far, mid], true);
        let p = b.build().unwrap();
        let (s1, s2, d) = (
            p.host_by_name("s1").unwrap(),
            p.host_by_name("s2").unwrap(),
            p.host_by_name("d").unwrap(),
        );
        let mut sim = Simulation::new(&p, NetworkConfig::default());
        let t_short = sim.add_transfer(s1, d, 5e8).unwrap();
        let t_long = sim.add_transfer(s2, d, 5e8).unwrap();
        let r = sim.run().unwrap();
        assert!(
            r.completion(t_short).finish < r.completion(t_long).finish,
            "short-RTT flow should finish first: {:?}",
            r
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let p = pair(1e8, 1e-4);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let run = || {
            let mut sim = Simulation::new(&p, NetworkConfig::default());
            for i in 0..20 {
                sim.add_transfer_at(a, b, 1e7 * (i + 1) as f64, SimTime::from_secs(0.01 * i as f64))
                    .unwrap();
            }
            sim.run()
                .unwrap()
                .completions
                .iter()
                .map(|c| c.finish.as_secs())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn makespan_is_last_finish() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        sim.add_transfer(a, b, 1e8).unwrap();
        sim.add_transfer(a, b, 3e8).unwrap();
        let r = sim.run().unwrap();
        assert!(close(r.makespan().as_secs(), 4.0), "{:?}", r.makespan());
    }

    #[test]
    fn dependency_chains_serialize_work() {
        // transfer → compute → transfer, a minimal workflow (paper §VI)
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t1 = sim.add_transfer(a, b, 1e8).unwrap(); // 1 s
        let c = sim.add_compute(b, 2e9); // 2 s on the 1 Gflop/s host
        let t2 = sim.add_transfer(b, a, 1e8).unwrap(); // 1 s
        sim.add_dependencies(c, &[t1]);
        sim.add_dependencies(t2, &[c]);
        let r = sim.run().unwrap();
        assert!(close(r.completion(t1).finish.as_secs(), 1.0), "{r:?}");
        assert!(close(r.completion(c).start.as_secs(), 1.0), "{r:?}");
        assert!(close(r.completion(c).finish.as_secs(), 3.0), "{r:?}");
        assert!(close(r.completion(t2).finish.as_secs(), 4.0), "{r:?}");
    }

    #[test]
    fn dependent_start_offset_is_a_delay() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t1 = sim.add_transfer(a, b, 1e8).unwrap(); // finishes at 1 s
        // offset 0.5 s after the dependency completes
        let t2 = sim.add_transfer_at(a, b, 1e8, SimTime::from_secs(0.5)).unwrap();
        sim.add_dependencies(t2, &[t1]);
        let r = sim.run().unwrap();
        assert!(close(r.completion(t2).start.as_secs(), 1.5), "{r:?}");
        assert!(close(r.completion(t2).finish.as_secs(), 2.5), "{r:?}");
    }

    #[test]
    fn fan_in_waits_for_all_dependencies() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let quick = sim.add_transfer(a, b, 1e7).unwrap(); // 0.1 s alone
        let slow = sim.add_compute(a, 5e9); // 5 s
        let join = sim.add_transfer(b, a, 1e8).unwrap();
        sim.add_dependencies(join, &[quick, slow]);
        let r = sim.run().unwrap();
        assert!(r.completion(join).start.as_secs() >= 5.0, "{r:?}");
    }

    #[test]
    fn dependency_cycle_stalls_with_error() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t1 = sim.add_transfer(a, b, 1e8).unwrap();
        let t2 = sim.add_transfer(a, b, 1e8).unwrap();
        sim.add_dependencies(t1, &[t2]);
        sim.add_dependencies(t2, &[t1]);
        assert!(matches!(sim.run(), Err(SimError::Stalled { .. })));
    }

    #[test]
    fn empty_simulation_completes() {
        let p = pair(1e8, 0.0);
        let sim = Simulation::new(&p, NetworkConfig::ideal());
        let r = sim.run().unwrap();
        assert!(r.completions.is_empty());
        assert_eq!(r.makespan(), SimTime::ZERO);
    }

    #[test]
    fn resolved_path_replays_identically() {
        // A cached ResolvedPath fed back through add_transfer_resolved must
        // reproduce add_transfer_at bit for bit (warm forecast sessions
        // rely on this to reuse route resolution across simulations).
        let p = pair(1.25e8, 1e-4);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let cfg = NetworkConfig::default();
        let path = ResolvedPath::resolve(&p, &cfg, a, b).unwrap();
        assert_eq!(path.resources, vec![0]);
        assert!(path.bottleneck.is_finite());

        let mut direct = Simulation::new(&p, cfg);
        let mut replayed =
            Simulation::with_capacities(&p, cfg, Simulation::shared_capacities(&p, &cfg));
        for i in 0..8 {
            let size = 1e7 * (i + 1) as f64;
            let at = SimTime::from_secs(0.05 * i as f64);
            direct.add_transfer_at(a, b, size, at).unwrap();
            replayed.add_transfer_resolved(a, b, size, at, &path);
        }
        let rd = direct.run().unwrap();
        let rr = replayed.run().unwrap();
        for (cd, cr) in rd.completions.iter().zip(&rr.completions) {
            assert_eq!(cd.finish.as_secs().to_bits(), cr.finish.as_secs().to_bits());
        }
    }

    // -- add_dependencies guards ------------------------------------------

    #[test]
    #[should_panic(expected = "unknown work")]
    fn add_dependencies_rejects_unknown_work() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t = sim.add_transfer(a, b, 1e8).unwrap();
        sim.add_dependencies(WorkId(99), &[t]);
    }

    #[test]
    #[should_panic(expected = "unknown dependency")]
    fn add_dependencies_rejects_unknown_dependency() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t = sim.add_transfer(a, b, 1e8).unwrap();
        sim.add_dependencies(t, &[WorkId(99)]);
    }

    #[test]
    #[should_panic(expected = "after the run started")]
    fn add_dependencies_rejects_late_calls() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t1 = sim.add_transfer(a, b, 1e8).unwrap();
        let t2 = sim.add_transfer(a, b, 1e8).unwrap();
        // `run` consumes the simulation, so user code cannot reach this
        // state through the public API; the guard protects against future
        // refactors that would run the loop behind `&mut self`.
        sim.scratch.started = true;
        sim.add_dependencies(t2, &[t1]);
    }

    #[test]
    #[should_panic(expected = "dependency already completed")]
    fn add_dependencies_rejects_done_dependency() {
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t1 = sim.add_transfer(a, b, 1e8).unwrap();
        let t2 = sim.add_transfer(a, b, 1e8).unwrap();
        sim.scratch.works[t1.0 as usize].status = Status::Done;
        sim.add_dependencies(t2, &[t1]);
    }

    // -- lazy-calendar edge cases -----------------------------------------

    #[test]
    fn zero_rate_stalls_with_error() {
        // A dead host (0 flop/s) gives its compute task a permanent zero
        // rate: no calendar entry is ever booked and the kernel must
        // report the stall instead of spinning.
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        b.add_host(root, "dead", 0.0);
        let p = b.build().unwrap();
        let dead = p.host_by_name("dead").unwrap();
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        sim.add_compute(dead, 1e9);
        assert!(matches!(sim.run(), Err(SimError::Stalled { at }) if at == 0.0));
    }

    #[test]
    fn an_unrepresentable_finish_time_stalls_with_error() {
        // 1e10 bytes over a 1e-300 B/s link finish after 1e310 s, past
        // the largest finite time: the kernel books no completion and
        // reports the stall, as for a zero rate, instead of panicking.
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let a = b.add_host(root, "a", 1e9);
        let c = b.add_host(root, "c", 1e9);
        let l = b.add_link("crawl", 1e-300, 0.0, SharingPolicy::Shared);
        let (pa, pc) = (Element::Point(a.netpoint()), Element::Point(c.netpoint()));
        b.add_route(root, pa, pc, vec![l], true);
        let p = b.build().unwrap();
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        sim.add_transfer_at(a, c, 1e10, SimTime::ZERO).unwrap();
        assert!(matches!(sim.run(), Err(SimError::Stalled { at }) if at == 0.0));
    }

    #[test]
    fn zero_rate_stall_reports_progress_time() {
        // One compute finishes fine; the dead host's task then stalls at
        // the time progress stopped, not at zero.
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        b.add_host(root, "ok", 1e9);
        b.add_host(root, "dead", 0.0);
        let p = b.build().unwrap();
        let (ok, dead) = (p.host_by_name("ok").unwrap(), p.host_by_name("dead").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        sim.add_compute(ok, 1e9); // 1 s
        sim.add_compute(dead, 1e9); // never
        assert!(matches!(sim.run(), Err(SimError::Stalled { at }) if at == 1.0));
    }

    #[test]
    fn infinite_rate_completes_immediately() {
        // An unconstrained work (same-host transfer: no shared resources,
        // no cap) gets an infinite rate and must complete at its start
        // instant regardless of size.
        let p = pair(1e8, 0.0);
        let a = p.host_by_name("a").unwrap();
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let huge = sim.add_transfer_at(a, a, 1e18, SimTime::from_secs(2.5)).unwrap();
        let r = sim.run().unwrap();
        assert_eq!(r.completion(huge).start.as_secs(), 2.5);
        assert_eq!(r.completion(huge).finish.as_secs(), 2.5);
    }

    #[test]
    fn infinite_bandwidth_fatpipe_completes_after_latency() {
        // An (effectively) unbounded fat pipe caps the flow so high that
        // only the latency phase costs measurable time — the transfer
        // phase must still be booked through the calendar, not skipped.
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let a = b.add_host(root, "a", 1e9);
        let c = b.add_host(root, "b", 1e9);
        let l = b.add_link("wormhole", 1e30, 1e-3, SharingPolicy::FatPipe);
        b.add_route(root, Element::Point(a.netpoint()), Element::Point(c.netpoint()), vec![l], true);
        let p = b.build().unwrap();
        let (a, c) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t = sim.add_transfer(a, c, 1e15).unwrap();
        let r = sim.run().unwrap();
        assert!(close(r.duration(t).as_secs(), 1e-3), "{}", r.duration(t));
    }

    #[test]
    fn fanout_and_instant_chain_cost_one_reshare() {
        // A completes → unblocks B, C, D (zero offset, same instant) and
        // a chain of zero-size works z1 → z2 → z3 that start *and*
        // finish at that instant. The same-instant batch must fold the
        // whole cascade — completions, dependent starts, chained instant
        // completions — into ONE merged-seed reshare.
        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let t_a = sim.add_transfer(a, b, 1e8).unwrap(); // 1 s alone
        let deps: Vec<WorkId> =
            (0..3).map(|_| sim.add_transfer(a, b, 1e8).unwrap()).collect();
        for &d in &deps {
            sim.add_dependencies(d, &[t_a]);
        }
        let z: Vec<WorkId> = (0..3).map(|_| sim.add_transfer(a, b, 0.0).unwrap()).collect();
        sim.add_dependencies(z[0], &[t_a]);
        sim.add_dependencies(z[1], &[z[0]]);
        sim.add_dependencies(z[2], &[z[1]]);
        let (r, trace) = sim.run_traced().unwrap();

        // Completion order and times: the zero-size chain finishes at
        // A's completion instant; B, C, D share the link and finish
        // together 3 s later.
        for &zi in &z {
            assert!(close(r.completion(zi).finish.as_secs(), 1.0), "{r:?}");
        }
        for &d in &deps {
            assert!(close(r.completion(d).finish.as_secs(), 4.0), "{r:?}");
        }
        let finish_order: Vec<WorkId> = trace
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Finished { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        assert_eq!(finish_order, vec![t_a, z[0], z[1], z[2], deps[0], deps[1], deps[2]]);

        // Exactly three reshares: A's start; A's completion batch (B, C,
        // D starting plus the whole z-chain starting and finishing); the
        // B/C/D completion batch. Per-event dispatch would pay one per
        // chain link instead.
        assert_eq!(r.reshares, 3, "{r:?}");
    }

    /// A from-scratch event loop in the style of the original kernel
    /// (full rescans, one-shot [`SharingProblem`] per reshare) used to
    /// check trace equivalence of the lazy calendar.
    fn reference_trace(
        capacity: f64,
        jobs: &[(f64, f64)], // (start, size), all on the shared link
    ) -> Vec<(u8, u32, f64, f64)> {
        const W: f64 = 1e-9; // ideal-config weight of a zero-latency route
        #[derive(PartialEq)]
        enum St {
            Sched,
            Run,
            Done,
        }
        let tol: Vec<f64> = jobs.iter().map(|(_, s)| Simulation::done_tol(*s)).collect();
        let mut remaining: Vec<f64> = jobs.iter().map(|(_, s)| *s).collect();
        let mut rate = vec![0.0f64; jobs.len()];
        let mut st: Vec<St> = jobs.iter().map(|_| St::Sched).collect();
        let mut events = Vec::new();
        let mut now = 0.0f64;
        let mut left = jobs.len();
        while left > 0 {
            let next_start = jobs
                .iter()
                .enumerate()
                .filter(|(i, _)| st[*i] == St::Sched)
                .map(|(_, (s, _))| *s)
                .fold(f64::INFINITY, f64::min);
            let mut next_done = f64::INFINITY;
            for i in 0..jobs.len() {
                if st[i] == St::Run {
                    if remaining[i] <= tol[i] || rate[i].is_infinite() {
                        next_done = now;
                        break;
                    }
                    if rate[i] > 0.0 {
                        next_done = next_done.min(now + remaining[i] / rate[i]);
                    }
                }
            }
            let t = next_start.min(next_done);
            assert!(t.is_finite(), "reference stalled");
            let dt = t - now;
            if dt > 0.0 {
                for i in 0..jobs.len() {
                    if st[i] == St::Run && rate[i] > 0.0 {
                        remaining[i] = (remaining[i] - rate[i] * dt).max(0.0);
                    }
                }
            }
            now = t;
            let mut changed = false;
            for i in 0..jobs.len() {
                if st[i] == St::Run && (remaining[i] <= tol[i] || rate[i].is_infinite()) {
                    st[i] = St::Done;
                    events.push((2u8, i as u32, now, 0.0));
                    left -= 1;
                    changed = true;
                }
            }
            for i in 0..jobs.len() {
                if st[i] == St::Sched && jobs[i].0 <= now {
                    st[i] = St::Run;
                    events.push((0u8, i as u32, now, 0.0));
                    changed = true;
                }
            }
            if changed {
                let mut problem = SharingProblem::with_capacities(vec![capacity]);
                let mut running = Vec::new();
                for (i, s) in st.iter().enumerate() {
                    if *s == St::Run {
                        problem.add_flow(vec![0], W, f64::INFINITY);
                        running.push(i);
                    }
                }
                let rates = problem.solve();
                for (slot, &i) in running.iter().enumerate() {
                    if rate[i] != rates[slot] {
                        rate[i] = rates[slot];
                        events.push((1u8, i as u32, now, rate[i]));
                    }
                }
            }
        }
        events
    }

    #[test]
    fn traced_rate_changes_match_reference_kernel() {
        let jobs: [(f64, f64); 6] =
            [(0.0, 8e7), (0.2, 5e7), (0.2, 3e7), (0.9, 6e7), (1.4, 1e7), (1.4, 9e7)];

        let p = pair(1e8, 0.0);
        let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        for (start, size) in jobs {
            sim.add_transfer_at(a, b, size, SimTime::from_secs(start)).unwrap();
        }
        let (_, trace) = sim.run_traced().unwrap();

        let got: Vec<(u8, u32, f64, f64)> = trace
            .events
            .iter()
            .map(|e| match e {
                TraceEvent::Started { id, at } => (0u8, id.0, at.as_secs(), 0.0),
                TraceEvent::RateChanged { id, at, rate } => (1u8, id.0, at.as_secs(), *rate),
                TraceEvent::Finished { id, at } => (2u8, id.0, at.as_secs(), 0.0),
                TraceEvent::PlatformChanged { .. } => {
                    unreachable!("static platform emits no platform events")
                }
            })
            .collect();
        let want = reference_trace(1e8, &jobs);

        assert_eq!(got.len(), want.len(), "\ngot:  {got:?}\nwant: {want:?}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!((g.0, g.1), (w.0, w.1), "\ngot:  {got:?}\nwant: {want:?}");
            assert!(close(g.2, w.2), "timestamps diverge: {g:?} vs {w:?}");
            assert!(close(g.3, w.3), "rates diverge: {g:?} vs {w:?}");
        }
    }
}
