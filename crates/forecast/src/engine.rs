//! The concurrent forecast engine.
//!
//! [`ForecastEngine`] is the serving core that turns the paper's
//! per-request "build a simulation, run it, throw it away" loop into
//! something that can take heavy concurrent traffic:
//!
//! * a `predict` is **one** flow-level simulation of the whole request,
//!   as in the paper, and a `select_fastest` is the paper's §VI loop —
//!   simulate a hypothesis, prune the ones that can no longer win —
//!   both run start to finish on the thread that calls the compute
//!   stage (an HTTP worker): the engine owns no threads, and
//!   concurrency is one request per worker;
//! * per-platform scaffolding (capacity vectors, recycled simulation
//!   scratch, the link-state overlay) lives in warm [`Session`]s
//!   (`crate::session`);
//! * results are memoized in a cache (`crate::cache`) keyed by the
//!   query alone — session id, host ids and size bits. A link event
//!   evicts the entries whose routes cross the link, and a result is
//!   filed only if no link event came while it was computed, so no
//!   out-of-date forecast is ever answered from the cache.
//!
//! ## Two stages: probe, then compute
//!
//! Every forecast is split at the one point where it either has its
//! answer or must work for it:
//!
//! * the **probe** ([`ForecastEngine::probe_predict`],
//!   [`ForecastEngine::probe_select`]) validates the query, looks its
//!   host names up, builds the key from host ids and size bits and looks
//!   the cache up. It never resolves a route, never touches the flight
//!   table and never simulates, so the HTTP front end runs it on its
//!   poller thread and answers a hit from there — a query's second ask
//!   included;
//! * the **compute** stage ([`ForecastEngine::compute_predict`],
//!   [`ForecastEngine::compute_select`]) takes the [`Pending`] the probe
//!   returned — session and key — reads the overlay version, resolves
//!   the key's routes, coalesces, simulates. It repeats none of the
//!   probe's work, and its cache re-check does not count, so hits +
//!   misses advance by one per forecast.
//!
//! [`ForecastEngine::predict`] and [`ForecastEngine::select_fastest`] are
//! the two stages back to back on the caller.
//!
//! ## Determinism
//!
//! A forecast is a pure function of `(session, overlay, resolved
//! query)` — the query as host ids + size bits:
//!
//! * `predict` adds the requests, in request order, to one simulation
//!   of the degraded platform ([`Session::simulate`]) — exactly what a
//!   from-scratch kernel run of the batch does, so there is nothing to
//!   merge. Link-disjoint groups of transfers are kept apart *inside*
//!   the max-min solver ([`simflow::Connectivity`]), which re-solves
//!   only the component an event touches.
//! * `select_fastest` orders the hypotheses by a makespan lower bound,
//!   simulates them one at a time, cheapest bound first, and skips a
//!   hypothesis once its bound reaches the best makespan simulated so
//!   far. The bound holds under the session's link overlay (see
//!   [`Session::capacity_gain`]), so pruning never discards the winner.
//!
//! The overlay is not in the key: an entry lives only as long as the
//! overlay on its routes is the one it was computed under, because a
//! link event evicts every entry whose routes cross the link.
//!
//! ## Singleflight coalescing
//!
//! Concurrent requests for the same cache key (predict *and* select) are
//! **coalesced**: one request — the *leader* — computes; the others
//! block on the in-flight computation and receive the same result. The
//! determinism contract makes this sound: a follower joins only a
//! flight whose leader keyed the same query on the same session and
//! read the same overlay version (`FlightKey`), so the
//! leader's answer *is* every follower's answer, bit for bit —
//! followers return the identical `Arc`, and upstream JSON rendering is
//! byte-identical to what each would have computed alone.
//!
//! The handoff is panic-safe: if the leader's computation panics, a drop
//! guard publishes an [`ForecastError::Internal`] outcome to the waiting
//! followers (no hang, no poisoned lock) while the panic keeps
//! propagating to the leader's caller. Error outcomes are shared with
//! the followers of the same flight but never cached, so the next
//! request retries the computation. Successful leaders insert into the
//! cache *before* retiring the flight, so a key absent from both the
//! cache and the flight table is uncomputed, or was computed across a
//! link event — the double-check in `coalesce` relies on exactly that
//! ordering.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
// Every lock recovers from poisoning: a handler panic is one 500 under
// the server's `catch_unwind`, and each guarded update is a single
// insert, remove or store, so the data is valid at every step.
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, RwLock};

use exec::WorkerPool;
use simflow::{NetworkConfig, Platform, PlatformEventKind, SimError};
use telemetry::{MetricsRegistry, Span};

use crate::cache::{CacheKey, CachedResult, CanonicalTransfer, ForecastCache};
use crate::faults::FaultInjector;
use crate::metrics::ForecastMetrics;
use crate::session::{ResolvedSpec, Session};

/// One requested transfer: the 3-uple of the paper's API.
#[derive(Clone, Debug, PartialEq)]
pub struct TransferSpec {
    /// Source host name.
    pub src: String,
    /// Destination host name.
    pub dst: String,
    /// Transfer size in bytes.
    pub size: f64,
}

/// Engine errors (mirrors the service-level error surface).
#[derive(Debug, Clone, PartialEq)]
pub enum ForecastError {
    /// No platform registered under this name.
    UnknownPlatform(String),
    /// A request references a host absent from the platform.
    UnknownHost(String),
    /// A request carries a negative or non-finite size.
    BadSize(f64),
    /// A link event references a link absent from the platform.
    UnknownLink(String),
    /// A link event carries a capacity factor that is not a positive
    /// normal number. A zero or subnormal factor is refused too: it would
    /// stall every later forecast over the link; `Down` is how a link is
    /// taken out.
    BadFactor(f64),
    /// The simulation kernel failed.
    Sim(SimError),
    /// `select_fastest` needs at least one hypothesis.
    NoHypotheses,
    /// The hypothesis at this index has no transfer.
    EmptyHypothesis(usize),
    /// An engine-internal failure (e.g. a coalesced leader computation
    /// panicked); followers of a dead flight receive this instead of
    /// hanging.
    Internal(String),
}

impl fmt::Display for ForecastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForecastError::UnknownPlatform(p) => write!(f, "unknown platform '{p}'"),
            ForecastError::UnknownHost(h) => write!(f, "unknown host '{h}'"),
            ForecastError::BadSize(s) => write!(f, "invalid transfer size {s}"),
            ForecastError::UnknownLink(l) => write!(f, "unknown link '{l}'"),
            ForecastError::BadFactor(x) => write!(f, "invalid capacity factor {x}"),
            ForecastError::Sim(e) => write!(f, "simulation error: {e}"),
            ForecastError::NoHypotheses => write!(f, "no hypotheses given"),
            ForecastError::EmptyHypothesis(i) => write!(f, "hypothesis {i} has no transfer"),
            ForecastError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for ForecastError {}

impl From<SimError> for ForecastError {
    fn from(e: SimError) -> Self {
        ForecastError::Sim(e)
    }
}

/// What every `select_fastest` refuses: no hypothesis at all, or one
/// with no transfer, whose makespan of 0 would win the selection and
/// prune every real hypothesis.
pub fn check_hypotheses<T>(hypotheses: &[Vec<T>]) -> Result<(), ForecastError> {
    if hypotheses.is_empty() {
        return Err(ForecastError::NoHypotheses);
    }
    match hypotheses.iter().position(Vec::is_empty) {
        Some(i) => Err(ForecastError::EmptyHypothesis(i)),
        None => Ok(()),
    }
}

/// Outcome of hypothesis selection.
#[derive(Clone, Debug, PartialEq)]
pub struct Selection {
    /// Index of the winning hypothesis.
    pub best: usize,
    /// Makespan of the winning hypothesis, seconds.
    pub best_makespan: f64,
    /// Per-transfer durations of the winning hypothesis, in request order.
    pub durations: Vec<f64>,
    /// Indices of hypotheses skipped by the pruning heuristic, ascending.
    pub pruned: Vec<usize>,
}

/// Forecast results the engine's cache holds (LRU beyond that).
const CACHE_CAPACITY: usize = 4096;

/// What a forecast's probe stage found.
pub enum Probed<T> {
    /// The answer was cached.
    Ready(T),
    /// It was not: what the compute stage continues from.
    Pending(Pending),
}

impl<T> Probed<T> {
    /// Maps a ready answer; a pending forecast passes through.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Probed<U> {
        match self {
            Probed::Ready(t) => Probed::Ready(f(t)),
            Probed::Pending(p) => Probed::Pending(p),
        }
    }
}

/// A forecast its probe stage could not answer, keyed against one
/// session, so the compute stage repeats none of the probe's work. It
/// travels with the request (the HTTP front end moves it to a worker
/// thread); the request's own specs stay with the caller.
pub struct Pending {
    platform: String,
    session: Arc<Session>,
    key: CacheKey,
}

impl Pending {
    /// The platform the forecast is for.
    pub fn platform(&self) -> &str {
        &self.platform
    }
}

/// A flight's key: the cache key plus the overlay version its leader
/// read. A request that read another — a link event came between —
/// joins no such flight, so no follower is handed an answer computed
/// under an overlay older than the one it saw.
type FlightKey = (CacheKey, u64);

/// One in-flight coalesced computation: followers block on the condvar
/// until the leader (or its panic guard) publishes an outcome.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Result<CachedResult, ForecastError>>>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> Result<CachedResult, ForecastError> {
        let mut guard = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn complete(&self, outcome: Result<CachedResult, ForecastError>) {
        let mut guard = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        if guard.is_none() {
            *guard = Some(outcome);
        }
        drop(guard);
        self.cv.notify_all();
    }
}

/// The concurrent forecast engine: platforms, sessions and cache. It
/// owns no threads — every computation runs on its caller's.
pub struct ForecastEngine {
    config: NetworkConfig,
    /// See [`ForecastEngine::pool`]: built on first call, fed by nothing.
    pool: OnceLock<WorkerPool>,
    /// Platform name → the registration id its cache keys carry, and its
    /// warm session.
    sessions: RwLock<HashMap<String, (u64, Arc<Session>)>>,
    /// The next registration id [`ForecastEngine::register_platform_shared`]
    /// hands out.
    next_session: AtomicU64,
    cache: ForecastCache,
    /// Singleflight table: flight key → the in-flight computation
    /// concurrent duplicates should join.
    flights: Mutex<HashMap<FlightKey, Arc<Flight>>>,
    /// Instrument bundle: per-stage latency histograms, the simulations
    /// counter, and the kernel work counters every session feeds.
    metrics: ForecastMetrics,
    /// Optional chaos hook applied at the start of each leader
    /// computation.
    faults: RwLock<Option<Arc<FaultInjector>>>,
}

impl ForecastEngine {
    /// An engine over the given model configuration, with no platform
    /// registered yet.
    pub fn new(config: NetworkConfig) -> ForecastEngine {
        ForecastEngine {
            config,
            pool: OnceLock::new(),
            sessions: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(0),
            cache: ForecastCache::new(CACHE_CAPACITY),
            flights: Mutex::new(HashMap::new()),
            metrics: ForecastMetrics::default(),
            faults: RwLock::new(None),
        }
    }

    /// The engine's instrument bundle (stage histograms, simulations
    /// counter, kernel counters). Handles are cheap clones of shared
    /// atomics; the service layer records its `admission`/`render`
    /// stages through this.
    pub fn metrics(&self) -> &ForecastMetrics {
        &self.metrics
    }

    /// Adopts every engine-owned instrument into `registry`: the stage
    /// histograms and kernel counters, and the cache's serving counters.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        self.metrics.register(registry);
        self.cache.register_metrics(registry);
    }

    /// The model configuration in use.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// An idle one-thread pool, built on first call: the engine feeds it
    /// nothing and no serving path touches it. It is here only because
    /// `benchmark/src/layers.rs` reads its job histogram for the
    /// `exec.pool.*` rows (which therefore read 0); the `[benchmark]` PR
    /// that retires those rows deletes this and the `exec` dependency.
    pub fn pool(&self) -> &WorkerPool {
        self.pool.get_or_init(|| WorkerPool::new(1))
    }

    /// Registers a platform under `name`, warming a session for it.
    pub fn register_platform(&self, name: &str, platform: Platform) {
        self.register_platform_shared(name, Arc::new(platform));
    }

    /// Registers an already-shared platform under `name`, with a new
    /// session id. A platform the name held before is replaced: its
    /// cached forecasts are dropped, and one of its forecasts still
    /// computing is not filed.
    pub fn register_platform_shared(&self, name: &str, platform: Arc<Platform>) {
        let session =
            Arc::new(Session::with_instruments(platform, self.config, self.metrics.kernel.clone()));
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let old = self
            .sessions
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(name.to_string(), (id, session));
        if let Some((old_id, old_session)) = old {
            // Retire first: a racing insert then either fails its version
            // check or lands before the sweep, which removes it.
            old_session.retire();
            self.cache.retire_session(old_id);
        }
    }

    /// Names of the registered platforms, sorted.
    pub fn platform_names(&self) -> Vec<String> {
        let sessions = self.sessions.read().unwrap_or_else(PoisonError::into_inner);
        let mut names: Vec<String> = sessions.keys().cloned().collect();
        names.sort();
        names
    }

    /// Shared handle to a registered platform.
    pub fn platform(&self, name: &str) -> Option<Arc<Platform>> {
        let sessions = self.sessions.read().unwrap_or_else(PoisonError::into_inner);
        sessions.get(name).map(|(_, s)| Arc::clone(s.platform()))
    }

    /// The warm session of a platform (observability / tests).
    pub fn session(&self, name: &str) -> Result<Arc<Session>, ForecastError> {
        self.registered(name).map(|(_, session)| session)
    }

    /// The registration id and warm session of a platform.
    fn registered(&self, name: &str) -> Result<(u64, Arc<Session>), ForecastError> {
        self.sessions
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(name)
            .cloned()
            .ok_or_else(|| ForecastError::UnknownPlatform(name.to_string()))
    }

    /// Cache hits so far (tests / observability).
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Cache misses so far (tests / observability).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }

    /// Live cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Requests that joined an in-flight computation instead of
    /// re-simulating.
    pub fn coalesced(&self) -> u64 {
        self.cache.coalesced()
    }

    /// Leader computations started so far: each cache miss that actually
    /// reached simulation counts once, however many followers coalesced
    /// onto it.
    pub fn simulations(&self) -> u64 {
        self.metrics.simulations.get()
    }

    /// Installs (or clears) the chaos hook applied at the start of every
    /// leader computation. Testing only; serving runs with `None`.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.faults.write().unwrap_or_else(PoisonError::into_inner) = injector;
    }

    /// Marks the start of a leader computation: counts it and applies
    /// the installed fault, if any (which may sleep or panic here).
    fn begin_simulation(&self) {
        self.metrics.simulations.inc();
        let injector = self.faults.read().unwrap_or_else(PoisonError::into_inner).clone();
        if let Some(inj) = injector {
            inj.step();
        }
    }

    /// Runs `compute` under singleflight: the first request for `flight`
    /// becomes the leader and computes; concurrent duplicates block and
    /// share its outcome. See the module docs for the panic-handoff and
    /// cache-ordering invariants. `routes` and `valid` flow into
    /// [`ForecastCache::insert_if`]: the leader's result is filed with
    /// the query's route union for targeted invalidation, and only if
    /// `valid` still holds under the cache lock — the overlay-version
    /// check closing the race between a computation and a concurrent
    /// `link_event`.
    fn coalesce(
        &self,
        flight: FlightKey,
        routes: Arc<[u32]>,
        valid: impl FnOnce() -> bool,
        compute: impl FnOnce() -> Result<CachedResult, ForecastError>,
    ) -> Result<CachedResult, ForecastError> {
        let existing = {
            let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
            // Double-check under the flights lock: a finishing leader
            // inserts into the cache *before* retiring its flight, so a
            // key absent from both is genuinely uncomputed.
            if let Some(cached) = self.cache.peek(&flight.0) {
                return Ok(cached);
            }
            match flights.entry(flight.clone()) {
                MapEntry::Occupied(e) => Some(Arc::clone(e.get())),
                MapEntry::Vacant(v) => {
                    v.insert(Arc::new(Flight::default()));
                    None
                }
            }
        };
        if let Some(leader) = existing {
            self.cache.note_coalesced();
            let _wait = Span::start(&self.metrics.stage_coalesce_wait);
            return leader.wait();
        }

        // Leader. The guard keeps followers safe against a panicking
        // computation: its Drop publishes an Internal outcome and retires
        // the flight while the panic continues to the leader's caller.
        struct LeaderGuard<'a> {
            engine: &'a ForecastEngine,
            key: &'a FlightKey,
            done: bool,
        }
        impl Drop for LeaderGuard<'_> {
            fn drop(&mut self) {
                if !self.done {
                    self.engine.finish_flight(
                        self.key,
                        Err(ForecastError::Internal(
                            "coalesced forecast computation panicked".into(),
                        )),
                    );
                }
            }
        }
        let mut guard = LeaderGuard { engine: self, key: &flight, done: false };
        // The simulate stage covers the whole leader computation (every
        // simulation of a selection); a panicking compute still records
        // — the span drops during unwinding.
        let simulate = Span::start(&self.metrics.stage_simulate);
        let result = compute();
        drop(simulate);
        guard.done = true;
        drop(guard);
        if let Ok(value) = &result {
            // Cache before retiring the flight (the double-check above
            // depends on this order). Errors are shared with this
            // flight's followers but never cached: the next request
            // retries.
            self.cache.insert_if(flight.0.clone(), value.clone(), routes, valid);
        }
        self.finish_flight(&flight, result.clone());
        result
    }

    /// Retires a flight, waking its followers with `outcome`.
    fn finish_flight(&self, key: &FlightKey, outcome: Result<CachedResult, ForecastError>) {
        let flight = {
            let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
            flights.remove(key)
        };
        if let Some(f) = flight {
            f.complete(outcome);
        }
    }

    /// The probe stage of any forecast (see the module docs): validate,
    /// look every host up, key the query by host ids and size bits, and
    /// look the cache up — counted as this request's one hit or miss. It
    /// resolves no route, takes no flight and runs no simulation.
    /// `hypotheses` is `None` for a predict batch, else a selection's
    /// hypothesis lengths.
    fn probe<'a, T>(
        &self,
        platform: &str,
        specs: impl IntoIterator<Item = &'a TransferSpec>,
        hypotheses: Option<Arc<[usize]>>,
        answer: fn(CachedResult) -> Result<T, ForecastError>,
    ) -> Result<Probed<T>, ForecastError> {
        let (id, session) = self.registered(platform)?;
        // The cache_lookup stage covers key construction (host lookups)
        // plus the lookup itself — everything between admission and the
        // simulate/coalesce decision.
        let _lookup = Span::start(&self.metrics.stage_cache_lookup);
        let transfers = specs
            .into_iter()
            .map(|spec| {
                let (src, dst) = session.endpoints(spec)?;
                Ok((src, dst, spec.size.to_bits()))
            })
            .collect::<Result<Arc<[CanonicalTransfer]>, ForecastError>>()?;
        let key = CacheKey::new(id, transfers, hypotheses);
        Ok(match self.cache.get(&key) {
            Some(hit) => Probed::Ready(answer(hit)?),
            None => Probed::Pending(Pending { platform: platform.to_string(), session, key }),
        })
    }

    /// The compute stage of any forecast: resolve the routes of the
    /// key's transfers, then coalesce and run `simulate` as the leader
    /// on them, in request order. The route union files the result for
    /// targeted invalidation.
    fn compute(
        &self,
        pending: Pending,
        simulate: impl FnOnce(&Session, &[ResolvedSpec]) -> Result<CachedResult, ForecastError>,
    ) -> Result<CachedResult, ForecastError> {
        let Pending { session, key, .. } = pending;
        // Read before any simulation reads the overlay, and no earlier:
        // an event while the request waited for a worker changes nothing
        // here. A `link_event` bumps the version under the overlay's
        // write lock, so a computation that read the new version
        // simulates the new overlay, and one that read the old version
        // fails the later insert check or is filed before the event's
        // eviction.
        let v0 = session.overlay_version();
        let resolved = key
            .transfers()
            .iter()
            .map(|&(src, dst, size)| {
                let path = session.resolve(src, dst)?;
                Ok(ResolvedSpec { src, dst, size: f64::from_bits(size), path })
            })
            .collect::<Result<Vec<_>, ForecastError>>()?;
        let routes = route_union(&resolved);
        let valid_session = Arc::clone(&session);
        self.coalesce(
            (key, v0),
            routes,
            move || valid_session.overlay_version() == v0,
            || {
                self.begin_simulation();
                simulate(&session, &resolved)
            },
        )
    }

    /// Probe stage of [`ForecastEngine::predict`]: the cached durations,
    /// or what [`ForecastEngine::compute_predict`] needs to produce them.
    pub fn probe_predict(
        &self,
        platform: &str,
        specs: &[TransferSpec],
    ) -> Result<Probed<Arc<Vec<f64>>>, ForecastError> {
        self.probe(platform, specs, None, predict_result)
    }

    /// Compute stage of [`ForecastEngine::predict`] for the batch its
    /// probe keyed: one simulation of the whole batch, unless a
    /// concurrent identical request is already running it.
    pub fn compute_predict(&self, pending: Pending) -> Result<Arc<Vec<f64>>, ForecastError> {
        let outcome = self.compute(pending, |session, resolved| {
            let durations = session.simulate(resolved)?;
            Ok(CachedResult::Predict(Arc::new(durations)))
        })?;
        predict_result(outcome)
    }

    /// Predicted completion times (seconds) of a set of concurrent
    /// transfers, in request order. Cached; probe and compute stage back
    /// to back on the calling thread.
    pub fn predict(
        &self,
        platform: &str,
        specs: &[TransferSpec],
    ) -> Result<Arc<Vec<f64>>, ForecastError> {
        match self.probe_predict(platform, specs)? {
            Probed::Ready(d) => Ok(d),
            Probed::Pending(pending) => self.compute_predict(pending),
        }
    }

    /// A hypothesis' makespan lower bound: each transfer alone needs at
    /// least `latency·factor + size / bottleneck`, the bottleneck taken
    /// as raised as far as the session's link overlay can have raised it
    /// (same float operations as `Pnfs::select_fastest_reference`).
    fn lower_bound(&self, session: &Session, specs: &[ResolvedSpec]) -> f64 {
        let mut bound = 0.0f64;
        for r in specs {
            let path = &r.path;
            let mut bw = path.bottleneck * session.capacity_gain(&path.resources);
            if path.latency > 0.0 {
                bw = bw.min(self.config.tcp_gamma / (2.0 * path.latency));
            }
            let t = path.delay + if bw.is_finite() { r.size / bw } else { 0.0 };
            bound = bound.max(t);
        }
        bound
    }

    /// Probe stage of [`ForecastEngine::select_fastest`].
    pub fn probe_select(
        &self,
        platform: &str,
        hypotheses: &[Vec<TransferSpec>],
    ) -> Result<Probed<Arc<Selection>>, ForecastError> {
        check_hypotheses(hypotheses)?;
        let lengths = hypotheses.iter().map(Vec::len).collect();
        self.probe(platform, hypotheses.iter().flatten(), Some(lengths), select_result)
    }

    /// Compute stage of [`ForecastEngine::select_fastest`] for the
    /// hypotheses its probe keyed: simulates the hypotheses the lower
    /// bound cannot rule out, one after another on the calling thread.
    pub fn compute_select(&self, pending: Pending) -> Result<Arc<Selection>, ForecastError> {
        let Some(lengths) = pending.key.hypotheses().cloned() else {
            return Err(ForecastError::Internal("a predict handed to compute_select".into()));
        };
        let outcome = self.compute(pending, |session, resolved| {
            let selection = self.compute_selection(session, &lengths, resolved)?;
            Ok(CachedResult::Select(Arc::new(selection)))
        })?;
        select_result(outcome)
    }

    /// Evaluates `hypotheses` and returns the fastest, with pruning (the
    /// paper's §VI service). Cached; probe and compute stage back to
    /// back on the calling thread.
    pub fn select_fastest(
        &self,
        platform: &str,
        hypotheses: &[Vec<TransferSpec>],
    ) -> Result<Arc<Selection>, ForecastError> {
        match self.probe_select(platform, hypotheses)? {
            Probed::Ready(s) => Ok(s),
            Probed::Pending(pending) => self.compute_select(pending),
        }
    }

    /// The selection loop (one leader computation): simulate in
    /// lower-bound order, pruning against the running best. `resolved`
    /// holds every hypothesis' specs, flattened in order, and `lengths`
    /// how many of them each hypothesis has.
    fn compute_selection(
        &self,
        session: &Session,
        lengths: &[usize],
        mut resolved: &[ResolvedSpec],
    ) -> Result<Selection, ForecastError> {
        let hypotheses: Vec<&[ResolvedSpec]> = lengths
            .iter()
            .map(|&len| {
                let (specs, rest) = resolved.split_at(len);
                resolved = rest;
                specs
            })
            .collect();
        let mut order: Vec<(usize, f64)> = hypotheses
            .iter()
            .enumerate()
            .map(|(i, h)| (i, self.lower_bound(session, h)))
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut best: Option<(usize, f64, Vec<f64>)> = None;
        let mut pruned = Vec::new();
        for (i, lower) in order {
            if best.as_ref().is_some_and(|(_, mk, _)| lower >= *mk) {
                pruned.push(i);
                continue;
            }
            let durations = session.simulate(hypotheses[i])?;
            let mk = durations.iter().copied().fold(0.0, f64::max);
            if best.as_ref().is_none_or(|(_, b, _)| mk < *b) {
                best = Some((i, mk, durations));
            }
        }
        let (best, best_makespan, durations) = best.expect("≥1 hypothesis simulated");
        pruned.sort_unstable();
        Ok(Selection { best, best_makespan, durations, pruned })
    }

    /// Applies a serving-time platform event to `platform`'s session
    /// and cache: the session's link-state overlay records it (every
    /// later simulation sees the degraded capacities) and the cache
    /// drops exactly the entries whose routes cross the link —
    /// returning how many were evicted. Forecasts for routes the event
    /// cannot touch keep hitting their cached answers.
    pub fn link_event(
        &self,
        platform: &str,
        link: &str,
        kind: PlatformEventKind,
    ) -> Result<u64, ForecastError> {
        let (id, session) = self.registered(platform)?;
        if let PlatformEventKind::Capacity(f) = kind {
            if !f.is_normal() || f < 0.0 {
                return Err(ForecastError::BadFactor(f));
            }
        }
        let link_id = session
            .platform()
            .link_by_name(link)
            .ok_or_else(|| ForecastError::UnknownLink(link.to_string()))?;
        let resource = session.apply_link_event(link_id, kind);
        Ok(self.cache.invalidate_link(id, resource))
    }

    /// Cache entries evicted by route-targeted link invalidation.
    pub fn invalidated_targeted(&self) -> u64 {
        self.cache.invalidated_targeted()
    }

    /// Always 0: nothing empties the cache wholesale. Inert; it stays
    /// only because the standalone `benchmark/` package's `layers.rs`
    /// reads it for the `forecast.cache.invalidated_epoch_total` row.
    pub fn invalidated_epoch(&self) -> u64 {
        0
    }
}

fn predict_result(outcome: CachedResult) -> Result<Arc<Vec<f64>>, ForecastError> {
    match outcome {
        CachedResult::Predict(d) => Ok(d),
        CachedResult::Select(_) => {
            Err(ForecastError::Internal("predict key yielded a selection".into()))
        }
    }
}

fn select_result(outcome: CachedResult) -> Result<Arc<Selection>, ForecastError> {
    match outcome {
        CachedResult::Select(s) => Ok(s),
        CachedResult::Predict(_) => {
            Err(ForecastError::Internal("select key yielded a prediction".into()))
        }
    }
}

/// Sorted, deduplicated union of the solver resources crossed by a set
/// of resolved specs — the targeted-invalidation route set.
fn route_union(resolved: &[ResolvedSpec]) -> Arc<[u32]> {
    let mut v: Vec<u32> =
        resolved.iter().flat_map(|r| r.path.resources.iter().copied()).collect();
    v.sort_unstable();
    v.dedup();
    v.into()
}
