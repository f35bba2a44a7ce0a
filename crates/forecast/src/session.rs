//! Warm per-platform simulation sessions.
//!
//! Building a [`Simulation`] involves two per-request costs the serving
//! path should not pay twice: constructing the solver capacity vector
//! (`O(links + hosts)`) and building the simulation's scratch — a dozen
//! arrays with one entry per resource. A [`Session`] amortizes both
//! across queries against the same platform: the capacity vector is
//! built once, and [`Session::simulate`] recycles the scratch of
//! finished simulations ([`SimScratch`]). A session keeps no per-pair
//! state: [`Session::resolve`] is the platform's own resolution, whose
//! (zone, zone) memo makes a route `O(route length)`, and a forecast
//! asked again is answered from the engine's cache, which needs no
//! route to find it.
//!
//! A session also holds the platform's **link-state overlay**: capacity
//! factors and down markers applied by [`Session::apply_link_event`]
//! when the platform degrades at serving time. Every simulation built
//! afterwards sees the degraded capacities (and dead resources) without
//! any session rebuild. The overlay version, bumped under the overlay's
//! write lock before every change, lets the engine refuse to file a
//! result computed across an event (see `crate::cache` for the
//! invalidation contract).
//!
//! A simulation holds the requested transfers only, as the paper's PNFS
//! does: background traffic is not modelled.
//!
//! Sessions are shared (`Arc`) between the HTTP workers, each of which
//! runs its request's simulation itself; interior state is
//! lock-protected and all of it is rebuildable, so a session is never
//! invalidated — only its overlay changes.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use simflow::{
    Connectivity, HostId, LinkId, NetworkConfig, Platform, PlatformEventKind, Report,
    ResolvedPath, SimScratch, Simulation,
};

use crate::metrics::KernelCounters;

use crate::engine::{ForecastError, Transfer};

/// The overlay state of one degraded resource (identity — factor 1,
/// not down — is never stored; such entries are removed eagerly so an
/// empty overlay means a pristine platform).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkState {
    /// Capacity multiplier applied to the nominal capacity.
    pub factor: f64,
    /// Whether the resource is down (capacity zero, routes dead).
    pub down: bool,
}

/// Warm scaffolding for one platform.
pub struct Session {
    platform: Arc<Platform>,
    config: NetworkConfig,
    /// Prebuilt solver capacity vector (see
    /// [`Simulation::shared_capacities`]): what every scratch is built
    /// from and reset to.
    capacities: Vec<f64>,
    /// Reset scratch of finished [`Session::simulate`] runs. It holds at
    /// most as many as ran at once: each call takes one (or builds one
    /// when the list is empty) and gives one back.
    scratch: Mutex<Vec<SimScratch>>,
    /// Link-state overlay: solver resource id → degraded state, in
    /// ascending resource order.
    overlay: RwLock<BTreeMap<u32, LinkState>>,
    /// Bumped under the overlay's write lock before every overlay
    /// mutation, and when the session is retired; lets the engine detect
    /// that a result it computed under one overlay (or on a replaced
    /// session) is being cached under another (see
    /// `ForecastCache::insert_if`).
    overlay_version: AtomicU64,
    /// Shared kernel counters the session folds each finished run's
    /// [`simflow::KernelStats`] into — after `run()` returns, never
    /// inside the solve (the kernel counts plain integers and the
    /// determinism contract forbids clocks/atomics there).
    kernel: KernelCounters,
    /// The platform's route-memo hit total at this session's last fold;
    /// only the delta since then lands on the shared counter.
    memo_hits_seen: AtomicU64,
}

impl Session {
    /// Warms up a session for `platform`.
    pub fn new(platform: Arc<Platform>, config: NetworkConfig) -> Session {
        Session::with_instruments(platform, config, KernelCounters::default())
    }

    /// [`Session::new`] with caller-shared kernel counters: the engine
    /// hands every session clones of one process-wide
    /// [`KernelCounters`], so all platforms aggregate into the same
    /// `kernel_*` metric family.
    pub fn with_instruments(
        platform: Arc<Platform>,
        config: NetworkConfig,
        kernel: KernelCounters,
    ) -> Session {
        let capacities = Simulation::shared_capacities(&platform, &config);
        Session {
            platform,
            config,
            capacities,
            scratch: Mutex::new(Vec::new()),
            overlay: RwLock::new(BTreeMap::new()),
            overlay_version: AtomicU64::new(0),
            kernel,
            memo_hits_seen: AtomicU64::new(0),
        }
    }

    /// The kernel counters this session aggregates into.
    pub fn kernel_metrics(&self) -> &KernelCounters {
        &self.kernel
    }

    /// The platform this session simulates.
    pub fn platform(&self) -> &Arc<Platform> {
        &self.platform
    }

    /// Always 0: a session keeps no routes. Inert; it stays only
    /// because the standalone `benchmark/` package's `layers.rs` reads
    /// it for the `forecast.session.routes_cached_end` row.
    pub fn routes_cached(&self) -> usize {
        0
    }

    /// Labels `requests` (route resource lists) with dense component
    /// ids: exactly [`Connectivity::label_batch`] over the platform's
    /// resources. The unit first element keeps the ladder's
    /// `let (_, labels) = …` compiling.
    ///
    /// Nothing in the program calls this any more: the engine stopped
    /// sharding a forecast by component. It stays only because the
    /// standalone `benchmark/` package's ladder (depth 3) still restates
    /// the sharded engine through it; delete it in the `[benchmark]` PR
    /// that restates depth 3 as one simulation.
    pub fn label_batch(&self, requests: &[&[u32]]) -> ((), Vec<usize>) {
        ((), Connectivity::label_batch(self.capacities.len(), requests))
    }

    /// Applies a serving-time platform event to the overlay and returns
    /// the solver resource id it landed on. `Capacity(f)` sets the
    /// factor, `Down`/`Up` toggle the down marker; an entry restored to
    /// identity is removed, so an empty overlay means a pristine
    /// platform. The version counter is bumped under the overlay's
    /// write lock, before the overlay changes: a computation that read
    /// the new version waits for the change before it reads the
    /// overlay, and one that read the old version fails its insert
    /// validity check or is filed before the event's eviction runs.
    pub fn apply_link_event(&self, link: LinkId, kind: PlatformEventKind) -> u32 {
        let resource = link.index() as u32;
        let mut overlay = self.overlay.write().unwrap_or_else(PoisonError::into_inner);
        self.overlay_version.fetch_add(1, Ordering::SeqCst);
        let e = overlay.entry(resource).or_insert(LinkState { factor: 1.0, down: false });
        match kind {
            PlatformEventKind::Capacity(f) => e.factor = f,
            PlatformEventKind::Down => e.down = true,
            PlatformEventKind::Up => e.down = false,
        }
        if e.factor == 1.0 && !e.down {
            overlay.remove(&resource);
        }
        resource
    }

    /// The overlay mutation counter (see [`Session::apply_link_event`]).
    pub fn overlay_version(&self) -> u64 {
        self.overlay_version.load(Ordering::SeqCst)
    }

    /// Marks the session replaced: bumps the overlay version, so a result
    /// still computing on it fails the cache's insert check, as after a
    /// link event.
    pub(crate) fn retire(&self) {
        self.overlay_version.fetch_add(1, Ordering::SeqCst);
    }

    /// Number of degraded resources in the overlay (observability).
    pub fn overlay_len(&self) -> usize {
        self.overlay.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// How far link events may have *raised* capacity along `resources`
    /// (a route's shared links): the largest overlay factor on them, at
    /// least 1. A route's bottleneck under the overlay is at most its
    /// nominal bottleneck times this — what keeps `select_fastest`'s
    /// lower bound a lower bound after a `link_event` with `factor > 1`.
    /// It reads only overlay entries *on* the route, so an event that
    /// changes it also evicts every cached answer pruned with the old
    /// gain.
    pub fn capacity_gain(&self, resources: &[u32]) -> f64 {
        let overlay = self.overlay.read().unwrap_or_else(PoisonError::into_inner);
        resources.iter().filter_map(|r| overlay.get(r)).fold(1.0, |g, ls| g.max(ls.factor))
    }

    /// Looks a host up by name.
    pub fn host(&self, name: &str) -> Result<HostId, ForecastError> {
        self.platform
            .host_by_name(name)
            .ok_or_else(|| ForecastError::UnknownHost(name.to_string()))
    }

    /// The route between two hosts, resolved through the platform (whose
    /// cluster-pair route memo makes that `O(route length)`).
    pub fn resolve(&self, src: HostId, dst: HostId) -> Result<Arc<ResolvedPath>, ForecastError> {
        ResolvedPath::resolve(&self.platform, &self.config, src, dst)
            .map(Arc::new)
            .map_err(ForecastError::Sim)
    }

    /// Validates a transfer's size and looks its hosts up.
    pub(crate) fn endpoints(
        &self,
        (src, dst, size): Transfer<'_>,
    ) -> Result<(HostId, HostId), ForecastError> {
        if !size.is_finite() || size < 0.0 {
            return Err(ForecastError::BadSize(size));
        }
        Ok((self.host(src)?, self.host(dst)?))
    }

    /// A simulation of the platform as the link events so far left it,
    /// built from a fresh scratch: the prewarmed capacity vector with the
    /// link-state overlay applied. Degraded factors scale capacities and
    /// down resources are marked dead under the default
    /// [`simflow::DeadRoutePolicy::Fail`] — a transfer routed over a dead
    /// link completes as failed rather than stalling the simulation.
    ///
    /// This is the oracles' constructor (`Pnfs::predict_reference`, the
    /// sequential service's workflows and the benchmark's ladder build
    /// here), so it never recycles: a reference that shared scratch with
    /// [`Session::simulate`] could not catch a reset that leaks state
    /// from one forecast into the next. It pays `O(resources)` per call.
    pub fn simulation(&self) -> Simulation<'_> {
        self.degraded(SimScratch::new(self.capacities.clone()))
    }

    /// Starts a simulation from a fresh or reset scratch and applies the
    /// link-state overlay to it.
    fn degraded(&self, scratch: SimScratch) -> Simulation<'_> {
        let mut sim = Simulation::from_scratch(&self.platform, self.config, scratch);
        let overlay = self.overlay.read().unwrap_or_else(PoisonError::into_inner);
        let mut downs = Vec::new();
        for (&r, ls) in overlay.iter() {
            sim.scale_capacity(r, ls.factor);
            if ls.down {
                downs.push(r);
            }
        }
        drop(overlay);
        for r in downs {
            sim.mark_resource_down(r);
        }
        sim
    }

    /// Runs one simulation of the platform as the link events left it,
    /// with the works and dependencies `add` puts in (every served
    /// forecast adds them in request order — the insertion order of the
    /// from-scratch references the bit-identity tests compare against),
    /// and returns its report.
    ///
    /// The simulation is that of [`Session::simulation`], but started
    /// from the scratch of an earlier run, reset to the pristine
    /// platform, so a warm forecast costs in proportion to its request
    /// rather than to the platform. The scratch goes back to the session
    /// only after an `Ok` run.
    pub fn simulate(&self, add: impl FnOnce(&mut Simulation<'_>)) -> Result<Report, ForecastError> {
        let recycled = self.scratch.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let scratch = recycled.unwrap_or_else(|| SimScratch::new(self.capacities.clone()));
        let mut sim = self.degraded(scratch);
        add(&mut sim);
        let (report, mut scratch) = sim.run_recycling();
        let report = report.map_err(ForecastError::Sim)?;
        scratch.reset(&self.capacities);
        self.scratch.lock().unwrap_or_else(PoisonError::into_inner).push(scratch);
        self.kernel.observe(&report.stats);
        // Fold the platform's route-memo counters (delta since this
        // session's last fold; `fetch_max` keeps racing folders from
        // double-counting). Resolution runs at add-transfer time, so this
        // is off the solve path like every other fold here.
        let memo = self.platform.route_memo_stats();
        let prev = self.memo_hits_seen.fetch_max(memo.hits, Ordering::Relaxed);
        self.kernel.observe_route_memo(memo, prev);
        Ok(report)
    }
}

/// A fully resolved transfer request, ready to drop into a simulation.
#[derive(Clone, Debug)]
pub struct ResolvedSpec {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Transfer size in bytes.
    pub size: f64,
    /// Resolved route.
    pub path: Arc<ResolvedPath>,
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use simflow::platform::builder::PlatformBuilder;
    use simflow::platform::routing::{Element, RoutingKind};
    use simflow::platform::SharingPolicy;

    use super::*;

    #[test]
    fn a_link_event_bumps_the_version_only_once_no_simulation_reads_the_overlay() {
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let (src, dst) = (b.add_host(root, "a", 1e9), b.add_host(root, "b", 1e9));
        let link = b.add_link("l", 1.25e8, 1e-4, SharingPolicy::Shared);
        let (src, dst) = (Element::Point(src.netpoint()), Element::Point(dst.netpoint()));
        b.add_route(root, src, dst, vec![link], true);
        let session =
            Arc::new(Session::new(Arc::new(b.build().unwrap()), NetworkConfig::default()));

        // A simulation is reading the pristine overlay. Were the event to
        // bump the version now, a computation reading the new version
        // could still simulate the old overlay and be filed as current.
        let reading = session.overlay.read().unwrap();
        let writer = Arc::clone(&session);
        let event = std::thread::spawn(move || {
            writer.apply_link_event(link, PlatformEventKind::Capacity(0.5))
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(session.overlay_version(), 0, "the event waits for the overlay's readers");
        drop(reading);
        event.join().unwrap();
        assert_eq!((session.overlay_version(), session.overlay_len()), (1, 1));
    }
}
