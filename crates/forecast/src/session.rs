//! Warm per-platform simulation sessions.
//!
//! Building a [`Simulation`] involves three per-request costs the
//! serving path should not pay twice: constructing the solver capacity
//! vector (`O(links + hosts)`), building the simulation's scratch — a
//! dozen arrays with one entry per resource — and resolving routes
//! (`O(zone depth)` per endpoint pair). A [`Session`] amortizes all
//! three across queries against the same platform: the capacity vector
//! is built once, [`Session::simulate`] recycles the scratch of finished
//! simulations ([`SimScratch`]), and every resolved `(src, dst)` path is
//! memoized. Sessions also carry the
//! *background traffic* of the current metrology epoch — flows injected
//! into every simulation to model load the forecast must coexist with —
//! resolved once when the epoch's data arrives, not per query.
//!
//! Two dynamic-platform pieces live here too:
//!
//! * a persistent [`Connectivity`] primed with the background flows: it
//!   answers one question, "which overlay entries share a component
//!   with this route set?", for [`Session::footprint`]. Simulations do
//!   not consult it — a forecast is one simulation and the solver keeps
//!   its own component labels;
//! * a **link-state overlay**: capacity factors and down markers applied
//!   by [`Session::apply_link_event`] when the platform degrades at
//!   serving time. Every simulation built afterwards sees the degraded
//!   capacities (and dead resources) without any session rebuild, and
//!   [`Session::footprint`] digests the overlay *as seen from a route
//!   set* so the cache can key results by exactly the events that could
//!   affect them (see `crate::cache` for the invalidation contract).
//!
//! Sessions are shared (`Arc`) between the HTTP workers, each of which
//! runs its request's simulation itself; interior state is
//! lock-protected and all of it is rebuildable, so a session is never
//! invalidated — only its background set and overlay change.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use simflow::{
    Connectivity, HostId, LinkId, NetworkConfig, Platform, PlatformEventKind, ResolvedPath,
    SimScratch, Simulation,
};

use crate::metrics::KernelCounters;

use crate::engine::{ForecastError, TransferSpec};

/// Upper bound on memoized `(src, dst)` route resolutions per session
/// (see [`Session::resolve`]).
const ROUTE_CACHE_CAP: usize = 1 << 16;

/// A background flow: a resolved path plus the bytes in flight, injected
/// into every simulation of the session's platform.
#[derive(Clone, Debug)]
pub struct BackgroundFlow {
    /// Source host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Bytes outstanding.
    pub size: f64,
    /// The resolved route.
    pub path: Arc<ResolvedPath>,
}

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

/// Background flows and the connectivity primed with them, swapped
/// atomically as one unit so a batch never pairs the flows of one epoch
/// with the components of another.
struct BackgroundState {
    flows: Arc<Vec<BackgroundFlow>>,
    conn: Connectivity,
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
    /// Memoized route resolutions, keyed by endpoint pair.
    routes: RwLock<HashMap<(HostId, HostId), Arc<ResolvedPath>>>,
    /// Background flows of the current epoch plus the connectivity
    /// structure primed with them.
    background: RwLock<Arc<BackgroundState>>,
    /// Link-state overlay: solver resource id → degraded state. A
    /// `BTreeMap` so digest folds iterate in a canonical order.
    overlay: RwLock<BTreeMap<u32, LinkState>>,
    /// Bumped before every overlay mutation and when the session is
    /// retired; lets the engine detect that a result it computed under
    /// one overlay (or on a replaced session) is being cached under
    /// another (see `ForecastCache::insert_if`).
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
        let conn = Connectivity::new(capacities.len());
        Session {
            platform,
            config,
            capacities,
            scratch: Mutex::new(Vec::new()),
            routes: RwLock::new(HashMap::new()),
            background: RwLock::new(Arc::new(BackgroundState {
                flows: Arc::new(Vec::new()),
                conn,
            })),
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

    /// The model configuration.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Number of memoized routes (observability / tests).
    pub fn routes_cached(&self) -> usize {
        self.routes.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// The current background flows.
    pub fn background(&self) -> Arc<Vec<BackgroundFlow>> {
        Arc::clone(&self.background.read().unwrap_or_else(PoisonError::into_inner).flows)
    }

    /// Replaces the background flows (new metrology epoch) and re-primes
    /// the footprint connectivity with them. The caller (the engine) is
    /// responsible for bumping the epoch so cached results keyed to the
    /// old background become unreachable.
    pub fn set_background(&self, flows: Vec<BackgroundFlow>) {
        let mut conn = Connectivity::new(self.capacities.len());
        conn.ensure_flows(flows.len());
        for (i, f) in flows.iter().enumerate() {
            if !f.path.resources.is_empty() {
                conn.attach(i as u32, &f.path.resources);
            }
        }
        *self.background.write().unwrap_or_else(PoisonError::into_inner) =
            Arc::new(BackgroundState { flows: Arc::new(flows), conn });
    }

    /// Labels the current background flows plus `requests` with dense
    /// component ids (exactly [`Connectivity::label_batch`] over the
    /// combined `background ++ requests` list), cloning the primed
    /// connectivity instead of re-attaching every background flow.
    /// Returns the background snapshot the labels were computed against
    /// — labels index into `flows ++ requests` in that order.
    ///
    /// Nothing in the program calls this any more: the engine stopped
    /// sharding a forecast by component. It stays only because the
    /// standalone `benchmark/` package's ladder (depth 3) still restates
    /// the sharded engine through it; delete it in the `[benchmark]` PR
    /// that restates depth 3 as one simulation.
    pub fn label_batch(&self, requests: &[&[u32]]) -> (Arc<Vec<BackgroundFlow>>, Vec<usize>) {
        let state = Arc::clone(&*self.background.read().unwrap_or_else(PoisonError::into_inner));
        let mut items: Vec<&[u32]> = Vec::with_capacity(state.flows.len() + requests.len());
        items.extend(state.flows.iter().map(|f| f.path.resources.as_slice()));
        items.extend_from_slice(requests);
        let labels = state.conn.clone().label_items(state.flows.len(), &items);
        (Arc::clone(&state.flows), labels)
    }

    /// Applies a serving-time platform event to the overlay and returns
    /// the solver resource id it landed on. `Capacity(f)` sets the
    /// factor, `Down`/`Up` toggle the down marker; an entry restored to
    /// identity is removed, so digests return to their pre-event values
    /// and previously cached entries become reachable again. The version
    /// counter is bumped *before* the overlay changes — any in-flight
    /// computation that snapshotted the old version fails its insert
    /// validity check rather than caching a result under the wrong key.
    pub fn apply_link_event(&self, link: LinkId, kind: PlatformEventKind) -> u32 {
        let resource = link.index() as u32;
        self.overlay_version.fetch_add(1, Ordering::SeqCst);
        let mut overlay = self.overlay.write().unwrap_or_else(PoisonError::into_inner);
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
    /// It reads only overlay entries *on* the route, all of which
    /// [`Session::footprint`] digests, so answers cached under one key
    /// were all pruned with the same gain.
    pub fn capacity_gain(&self, resources: &[u32]) -> f64 {
        let overlay = self.overlay.read().unwrap_or_else(PoisonError::into_inner);
        resources.iter().filter_map(|r| overlay.get(r)).fold(1.0, |g, ls| g.max(ls.factor))
    }

    /// Digest of the overlay *as seen from* `resources` (a query's route
    /// union): folds every overlay entry whose resource shares a
    /// background-connectivity component with the query routes, in
    /// canonical (ascending resource) order. Two properties the cache
    /// key relies on:
    ///
    /// * **0 when nothing relevant is degraded** — an empty overlay, or
    ///   one whose entries are all component-disjoint from the query
    ///   (directly *and* through background coupling), digests to 0, so
    ///   entries cached before any event stay reachable for unaffected
    ///   routes.
    /// * **Restores round-trip** — identity entries are removed by
    ///   [`Session::apply_link_event`], so after a full restore the
    ///   digest returns to its pre-event value and the original cached
    ///   entries validly hit again.
    pub fn footprint(&self, resources: &[u32]) -> u64 {
        let overlay = self.overlay.read().unwrap_or_else(PoisonError::into_inner);
        if overlay.is_empty() {
            return 0;
        }
        let state = Arc::clone(&*self.background.read().unwrap_or_else(PoisonError::into_inner));
        let mut roots: Vec<u32> = resources.iter().map(|&r| state.conn.root(r)).collect();
        roots.sort_unstable();
        roots.dedup();
        let mut h = 0u64;
        for (&r, ls) in overlay.iter() {
            if roots.binary_search(&state.conn.root(r)).is_err() {
                continue;
            }
            h = splitmix(h ^ splitmix(r as u64 + 1));
            h = splitmix(h ^ ls.factor.to_bits());
            h = splitmix(h ^ ls.down as u64);
        }
        h
    }

    /// Looks a host up by name.
    pub fn host(&self, name: &str) -> Result<HostId, ForecastError> {
        self.platform
            .host_by_name(name)
            .ok_or_else(|| ForecastError::UnknownHost(name.to_string()))
    }

    /// The memoized route resolution between two hosts. The per-pair map
    /// is capped at [`ROUTE_CACHE_CAP`] entries — on a 100k-host platform
    /// the pair space is ~10¹⁰, so an uncapped map under adversarial or
    /// merely broad traffic would grow without bound; past the cap,
    /// resolutions still succeed (and still benefit from the platform's
    /// own cluster-pair route memo) but are not retained here.
    pub fn resolve(&self, src: HostId, dst: HostId) -> Result<Arc<ResolvedPath>, ForecastError> {
        if let Some(p) =
            self.routes.read().unwrap_or_else(PoisonError::into_inner).get(&(src, dst))
        {
            return Ok(Arc::clone(p));
        }
        let path = Arc::new(
            ResolvedPath::resolve(&self.platform, &self.config, src, dst)
                .map_err(ForecastError::Sim)?,
        );
        let mut w = self.routes.write().unwrap_or_else(PoisonError::into_inner);
        if w.len() >= ROUTE_CACHE_CAP {
            return Ok(w.get(&(src, dst)).map(Arc::clone).unwrap_or(path));
        }
        // A racing resolver may have inserted meanwhile; keep the first
        // entry so every caller shares one allocation.
        Ok(Arc::clone(w.entry((src, dst)).or_insert(path)))
    }

    /// Validates a request tuple's size and looks its hosts up.
    fn endpoints(&self, spec: &TransferSpec) -> Result<(HostId, HostId), ForecastError> {
        if !spec.size.is_finite() || spec.size < 0.0 {
            return Err(ForecastError::BadSize(spec.size));
        }
        Ok((self.host(&spec.src)?, self.host(&spec.dst)?))
    }

    /// Resolves a request tuple: host names, size validity, route.
    pub fn resolve_spec(&self, spec: &TransferSpec) -> Result<ResolvedSpec, ForecastError> {
        let (src, dst) = self.endpoints(spec)?;
        let path = self.resolve(src, dst)?;
        Ok(ResolvedSpec { src, dst, size: spec.size, path })
    }

    /// [`Session::resolve_spec`] over a whole request, from the route
    /// map only: `Ok(None)` at the first host pair the map does not
    /// hold, and no route is ever computed — this is what the engine's
    /// probe stage may run on a thread that must not stall. Specs are
    /// validated in order up to that pair, so an error returned here is
    /// the one resolving everything would have returned first.
    pub fn resolve_cached<'a>(
        &self,
        specs: impl IntoIterator<Item = &'a TransferSpec>,
    ) -> Result<Option<Vec<ResolvedSpec>>, ForecastError> {
        let routes = self.routes.read().unwrap_or_else(PoisonError::into_inner);
        let mut resolved = Vec::new();
        for spec in specs {
            let (src, dst) = self.endpoints(spec)?;
            let Some(path) = routes.get(&(src, dst)) else { return Ok(None) };
            resolved.push(ResolvedSpec { src, dst, size: spec.size, path: Arc::clone(path) });
        }
        Ok(Some(resolved))
    }

    /// A simulation of the platform as the link events so far left it,
    /// built from a fresh scratch: the prewarmed capacity vector with the
    /// link-state overlay applied. Degraded factors scale capacities and
    /// down resources are marked dead under the default
    /// [`simflow::DeadRoutePolicy::Fail`] — a transfer routed over a dead
    /// link completes as failed rather than stalling the simulation.
    ///
    /// This is the oracle's constructor (`Pnfs::predict_reference`, the
    /// workflow endpoint and the benchmark's ladder build here), so it
    /// never recycles: a reference that shared scratch with
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

    /// Runs one simulation of `background` and `specs` (all starting at
    /// t=0) and returns the durations of `specs`, in order. Background
    /// flows are added first, then requests — the insertion order of the
    /// from-scratch references the bit-identity tests compare against. A
    /// spec that fails (its route crosses a dead resource) reports an
    /// infinite duration.
    ///
    /// The simulation is that of [`Session::simulation`], but started
    /// from the scratch of an earlier run, reset to the pristine
    /// platform, so a warm forecast costs in proportion to its request
    /// rather than to the platform. The scratch goes back to the session
    /// only after an `Ok` run.
    pub fn simulate(
        &self,
        background: &[BackgroundFlow],
        specs: &[ResolvedSpec],
    ) -> Result<Vec<f64>, ForecastError> {
        let recycled = self.scratch.lock().unwrap_or_else(PoisonError::into_inner).pop();
        let scratch = recycled.unwrap_or_else(|| SimScratch::new(self.capacities.clone()));
        let mut sim = self.degraded(scratch);
        for b in background {
            sim.add_transfer_resolved(b.src, b.dst, b.size, simflow::SimTime::ZERO, &b.path);
        }
        let ids: Vec<_> = specs
            .iter()
            .map(|s| {
                sim.add_transfer_resolved(s.src, s.dst, s.size, simflow::SimTime::ZERO, &s.path)
            })
            .collect();
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
        Ok(ids
            .iter()
            .map(|id| {
                let c = report.completion(*id);
                if c.failed() {
                    f64::INFINITY
                } else {
                    c.duration().as_secs()
                }
            })
            .collect())
    }
}

/// SplitMix64 finalizer — the overlay digest's mixing function.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
