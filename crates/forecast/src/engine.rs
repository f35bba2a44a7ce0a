//! The concurrent forecast engine.
//!
//! [`ForecastEngine`] is the serving core that turns the paper's
//! per-request "build a simulation, run it, throw it away" loop into
//! something that can take heavy concurrent traffic:
//!
//! * every forecast is the paper's §VI loop over its hypotheses —
//!   simulate a hypothesis, prune the ones that can no longer win — and
//!   a `predict` is the selection of its one hypothesis: **one**
//!   flow-level simulation of the whole request, as in the paper. It
//!   runs start to finish on the thread that calls the compute stage
//!   (an HTTP worker): the engine owns no threads, and concurrency is
//!   one request per worker;
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
//! * the **probe** ([`ForecastEngine::probe`]) validates the query,
//!   looks its host names up, builds the key from host ids and size bits
//!   and looks the cache up. Its transfers are borrowed [`Transfer`]
//!   3-uples — the HTTP service lends slices of the request text,
//!   [`lend`] a [`TransferSpec`]'s fields — so keying copies no name. It
//!   never resolves a route, never touches the flight table and never
//!   simulates, so the HTTP front end runs it on its poller thread and
//!   answers a hit from there — a query's second ask included;
//! * the **compute** stage ([`ForecastEngine::compute`]) takes the
//!   [`Pending`] the probe returned — session and key — reads the overlay
//!   version and coalesces; only the leader resolves the key's routes and
//!   runs the selection loop. It repeats none of the probe's work, and
//!   its cache re-check does not count, so hits + misses advance by one
//!   per forecast. The [`Pending`] stays the caller's: it says what was
//!   asked — the key's transfers named by the platform, in hypotheses —
//!   which is all a caller needs to render the answer.
//!
//! Both answer a [`Selection`]. [`ForecastEngine::select_fastest`] is the
//! two stages back to back on the caller, and
//! [`ForecastEngine::predict`] is `select_fastest` of one hypothesis.
//!
//! ## Determinism
//!
//! A forecast is a pure function of `(session, overlay, resolved
//! query)` — the query as host ids + size bits:
//!
//! * a hypothesis is simulated by adding its requests, in request
//!   order, to one simulation of the degraded platform
//!   ([`Session::simulate`]) — exactly what a from-scratch kernel run of
//!   the batch does, so there is nothing to merge. Link-disjoint groups
//!   of transfers are kept apart *inside* the max-min solver
//!   ([`simflow::Connectivity`]), which re-solves only the component an
//!   event touches.
//! * a selection orders the hypotheses by a makespan lower bound,
//!   simulates them one at a time, cheapest bound first, and skips a
//!   hypothesis once its bound reaches the best makespan simulated so
//!   far. The bound holds under the session's link overlay (see
//!   [`Session::capacity_gain`]), so pruning never discards the winner.
//! * a predict is the selection of its one hypothesis: no bound is
//!   computed, since nothing can be pruned, so it is one simulation —
//!   `best` 0, `pruned` empty, the makespan its largest duration.
//!
//! The overlay is not in the key: an entry lives only as long as the
//! overlay on its routes is the one it was computed under, because a
//! link event evicts every entry whose routes cross the link.
//!
//! ## Singleflight coalescing
//!
//! Concurrent requests for the same cache key are **coalesced**: one
//! request — the *leader* — computes; the others block on the in-flight
//! computation and receive the same result. The determinism contract
//! makes this sound: a follower joins only a flight whose leader keyed
//! the same query on the same session and read the same overlay version
//! (`FlightKey`), so the leader's answer *is* every follower's answer,
//! bit for bit — followers return the identical `Arc`, and upstream JSON
//! rendering is byte-identical to what each would have computed alone.
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

use crate::cache::{CacheKey, ForecastCache};
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

/// One transfer as a query asks it, borrowed: source host name,
/// destination host name and size in bytes. It is what
/// [`ForecastEngine::probe`] keys, so a query parsed from request text
/// is keyed from slices of that text; [`lend`] lends a [`TransferSpec`]'s.
pub type Transfer<'a> = (&'a str, &'a str, f64);

/// Every hypothesis' transfers, lent as [`Transfer`]s.
pub fn lend<H: AsRef<[TransferSpec]>>(hypotheses: &[H]) -> Vec<Vec<Transfer<'_>>> {
    hypotheses
        .iter()
        .map(|h| h.as_ref().iter().map(|t| (&*t.src, &*t.dst, t.size)).collect())
        .collect()
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

/// What every forecast refuses: no hypothesis at all, or one with no
/// transfer, whose makespan of 0 would win the selection and prune every
/// real hypothesis. An empty predict is `EmptyHypothesis(0)`.
pub fn check_hypotheses<T, H: AsRef<[T]>>(hypotheses: &[H]) -> Result<(), ForecastError> {
    if hypotheses.is_empty() {
        return Err(ForecastError::NoHypotheses);
    }
    match hypotheses.iter().position(|h| h.as_ref().is_empty()) {
        Some(i) => Err(ForecastError::EmptyHypothesis(i)),
        None => Ok(()),
    }
}

/// Outcome of a forecast: the fastest of its hypotheses. A predict is
/// the selection of its one hypothesis — `best` 0, `pruned` empty, and
/// `best_makespan` the largest of its `durations`.
///
/// It also has one write-once slot for the answer as the client reads
/// it: the winner's predictions array as JSON text, which the HTTP
/// service files the first time the cache answers this selection
/// ([`Selection::file`]) and copies on every later hit
/// ([`Selection::filed`]). The engine never reads or writes it. A body is
/// a function of the cache key (names are looked up exactly, sizes are
/// keyed by their bits), so the text stays right as long as the entry
/// lives, and the eviction that drops the entry drops its text. The slot
/// is not part of equality.
#[derive(Clone, Debug)]
pub struct Selection {
    /// Index of the winning hypothesis.
    pub best: usize,
    /// Makespan of the winning hypothesis, seconds.
    pub best_makespan: f64,
    /// Per-transfer durations of the winning hypothesis, in request order.
    pub durations: Vec<f64>,
    /// Indices of hypotheses skipped by the pruning heuristic, ascending.
    pub pruned: Vec<usize>,
    /// The filed predictions array; empty until its first hit.
    body: OnceLock<Box<str>>,
}

impl Selection {
    /// A selection with nothing filed.
    pub fn new(best: usize, best_makespan: f64, durations: Vec<f64>, pruned: Vec<usize>) -> Self {
        Selection { best, best_makespan, durations, pruned, body: OnceLock::new() }
    }

    /// The filed predictions text, if any.
    pub fn filed(&self) -> Option<&str> {
        self.body.get().map(|text| &**text)
    }

    /// Files `render()`'s text unless some is filed already, and returns
    /// the filed text.
    pub fn file(&self, render: impl FnOnce() -> String) -> &str {
        self.body.get_or_init(|| render().into_boxed_str())
    }
}

impl PartialEq for Selection {
    fn eq(&self, other: &Self) -> bool {
        self.best == other.best
            && self.best_makespan == other.best_makespan
            && self.durations == other.durations
            && self.pruned == other.pruned
    }
}

/// Forecast results the engine's cache holds (LRU beyond that).
const CACHE_CAPACITY: usize = 4096;

/// What a forecast's probe stage found.
pub enum Probed {
    /// The answer was cached.
    Ready(Arc<Selection>),
    /// It was not: what the compute stage continues from.
    Pending(Pending),
}

/// A forecast its probe stage could not answer, keyed against one
/// session, so the compute stage repeats none of the probe's work. It
/// travels with the request (the HTTP front end moves it to a worker
/// thread) and says what was asked — per hypothesis, the host ids and
/// size bits of its transfers, on one platform — so nothing of the
/// request's text has to travel with it.
pub struct Pending {
    session: Arc<Session>,
    key: CacheKey,
}

impl Pending {
    /// The hypotheses as keyed, in request order (a predict is one),
    /// each transfer read back from the key: its names are the
    /// platform's names of the key's host ids and its size is the key's
    /// bits. Host lookup is exact, so these are the names the query
    /// asked, and no text of the request is needed to render an answer.
    pub fn hypotheses(&self) -> impl Iterator<Item = impl Iterator<Item = Transfer<'_>> + Clone> {
        let platform = self.session.platform();
        let mut rest = self.key.transfers();
        let lengths = self.key.hypotheses();
        let whole = lengths.is_none().then_some(rest.len());
        lengths.into_iter().flatten().copied().chain(whole).map(move |len| {
            let (hypothesis, after) = rest.split_at(len);
            rest = after;
            hypothesis.iter().map(move |&(src, dst, size)| {
                (platform.host_name(src), platform.host_name(dst), f64::from_bits(size))
            })
        })
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
    outcome: Mutex<Option<Result<Arc<Selection>, ForecastError>>>,
    cv: Condvar,
}

impl Flight {
    fn wait(&self) -> Result<Arc<Selection>, ForecastError> {
        let mut guard = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(outcome) = guard.as_ref() {
                return outcome.clone();
            }
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn complete(&self, outcome: Result<Arc<Selection>, ForecastError>) {
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
    /// cache-ordering invariants. `compute` gets the flight's key and
    /// returns the result with the query's route union, and both flow into
    /// [`ForecastCache::insert_if`] with `valid`: the result is filed
    /// under its routes for targeted invalidation, and only if `valid`
    /// still holds under the cache lock — the overlay-version check
    /// closing the race between a computation and a concurrent
    /// `link_event`.
    fn coalesce(
        &self,
        flight: FlightKey,
        valid: impl FnOnce() -> bool,
        compute: impl FnOnce(&CacheKey) -> Result<(Arc<Selection>, Arc<[u32]>), ForecastError>,
    ) -> Result<Arc<Selection>, ForecastError> {
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
        // The simulate stage covers the whole leader computation (route
        // resolution and every simulation of a selection); a panicking
        // compute still records — the span drops during unwinding.
        let simulate = Span::start(&self.metrics.stage_simulate);
        let result = compute(&flight.0);
        drop(simulate);
        guard.done = true;
        drop(guard);
        let result = result.map(|(value, routes)| {
            // Cache before retiring the flight (the double-check above
            // depends on this order). Errors are shared with this
            // flight's followers but never cached: the next request
            // retries.
            self.cache.insert_if(flight.0.clone(), value.clone(), routes, valid);
            value
        });
        self.finish_flight(&flight, result.clone());
        result
    }

    /// Retires a flight, waking its followers with `outcome`.
    fn finish_flight(&self, key: &FlightKey, outcome: Result<Arc<Selection>, ForecastError>) {
        let flight = {
            let mut flights = self.flights.lock().unwrap_or_else(PoisonError::into_inner);
            flights.remove(key)
        };
        if let Some(f) = flight {
            f.complete(outcome);
        }
    }

    /// The probe stage of a forecast over `hypotheses` — a predict is
    /// one (see the module docs): validate, look every host up, key the
    /// query by host ids and size bits, and look the cache up — counted
    /// as this request's one hit or miss. The transfers are borrowed
    /// (names as the query spelled them), and the key is built in one
    /// pre-sized buffer. It resolves no route, takes no flight and runs
    /// no simulation.
    pub fn probe<'t, H: AsRef<[Transfer<'t>]>>(
        &self,
        platform: &str,
        hypotheses: &[H],
    ) -> Result<Probed, ForecastError> {
        check_hypotheses(hypotheses)?;
        let (id, session) = self.registered(platform)?;
        // The cache_lookup stage covers key construction (host lookups)
        // plus the lookup itself — everything between admission and the
        // simulate/coalesce decision.
        let _lookup = Span::start(&self.metrics.stage_cache_lookup);
        let mut transfers = Vec::with_capacity(hypotheses.iter().map(|h| h.as_ref().len()).sum());
        for &transfer in hypotheses.iter().flat_map(AsRef::as_ref) {
            let (src, dst) = session.endpoints(transfer)?;
            transfers.push((src, dst, transfer.2.to_bits()));
        }
        // One hypothesis keys as a predict does: the same simulation.
        let lengths =
            (hypotheses.len() > 1).then(|| hypotheses.iter().map(|h| h.as_ref().len()).collect());
        let key = CacheKey::new(id, transfers.into(), lengths);
        Ok(match self.cache.get(&key) {
            Some(hit) => Probed::Ready(hit),
            None => Probed::Pending(Pending { session, key }),
        })
    }

    /// The compute stage of the forecast `pending` describes: coalesce,
    /// and as the leader resolve the routes of the key's transfers and
    /// run the selection loop on them, in request order — a request that
    /// finds the answer filed or in flight resolves nothing. The route
    /// union files the result for targeted invalidation. `pending` stays
    /// the caller's, to render the answer from.
    pub fn compute(&self, pending: &Pending) -> Result<Arc<Selection>, ForecastError> {
        let Pending { session, key } = pending;
        // Read before any simulation reads the overlay, and no earlier:
        // an event while the request waited for a worker changes nothing
        // here. A `link_event` bumps the version under the overlay's
        // write lock, so a computation that read the new version
        // simulates the new overlay, and one that read the old version
        // fails the later insert check or is filed before the event's
        // eviction.
        let v0 = session.overlay_version();
        self.coalesce(
            (key.clone(), v0),
            || session.overlay_version() == v0,
            |key| {
                let resolved = key
                    .transfers()
                    .iter()
                    .map(|&(src, dst, size)| {
                        let path = session.resolve(src, dst)?;
                        Ok(ResolvedSpec { src, dst, size: f64::from_bits(size), path })
                    })
                    .collect::<Result<Vec<_>, ForecastError>>()?;
                self.begin_simulation();
                let one = [resolved.len()];
                let lengths = key.hypotheses().unwrap_or(&one);
                let selection = self.compute_selection(session, lengths, &resolved)?;
                Ok((Arc::new(selection), route_union(&resolved)))
            },
        )
    }

    /// Predicted completion times (seconds) of a set of concurrent
    /// transfers: the forecast of one hypothesis, whose `durations` are
    /// in request order. Cached; probe and compute stage back to back on
    /// the calling thread.
    pub fn predict(
        &self,
        platform: &str,
        specs: &[TransferSpec],
    ) -> Result<Arc<Selection>, ForecastError> {
        self.select_fastest(platform, &[specs])
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

    /// Evaluates `hypotheses` and returns the fastest, with pruning (the
    /// paper's §VI service). Cached; probe and compute stage back to
    /// back on the calling thread.
    pub fn select_fastest<H: AsRef<[TransferSpec]>>(
        &self,
        platform: &str,
        hypotheses: &[H],
    ) -> Result<Arc<Selection>, ForecastError> {
        match self.probe(platform, &lend(hypotheses))? {
            Probed::Ready(selection) => Ok(selection),
            Probed::Pending(pending) => self.compute(&pending),
        }
    }

    /// The selection loop (one leader computation): simulate in
    /// lower-bound order, pruning against the running best. `resolved`
    /// holds every hypothesis' specs, flattened in order, and `lengths`
    /// how many of them each hypothesis has. One hypothesis is simulated
    /// without a bound: nothing can prune it.
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
            .map(|(i, h)| (i, if lengths.len() > 1 { self.lower_bound(session, h) } else { 0.0 }))
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
        Ok(Selection::new(best, best_makespan, durations, pruned))
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

/// Sorted, deduplicated union of the solver resources crossed by a set
/// of resolved specs — the targeted-invalidation route set.
fn route_union(resolved: &[ResolvedSpec]) -> Arc<[u32]> {
    let mut v: Vec<u32> =
        resolved.iter().flat_map(|r| r.path.resources.iter().copied()).collect();
    v.sort_unstable();
    v.dedup();
    v.into()
}
