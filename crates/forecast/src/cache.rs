//! The epoch-keyed forecast result cache.
//!
//! Forecasts are pure functions of `(session, background-traffic epoch,
//! query)`: a session's platform model is immutable, and everything
//! time-varying (background flows derived from metrology) is folded into
//! a monotonically increasing *epoch* counter that the engine bumps
//! whenever new measurement data is ingested. Keying cache entries by
//! epoch makes invalidation free — a bump makes every old entry
//! unreachable, and [`ForecastCache::purge_stale`] reclaims the memory.
//!
//! The cache has one rule for what it files: a result is filed only if
//! its key is still current when the cache lock is taken — its epoch not
//! below the last purge's, its session's overlay version the one the key
//! was built from ([`ForecastCache::insert_if`]). A result that finishes
//! after the epoch moved on is handed to its caller and dropped, never
//! filed to be purged later, so no entry of an old epoch outlives the
//! bump that retired it.
//!
//! Queries are keyed by what the probe has already resolved: the
//! session's registration id, then host ids + size bit patterns, so two
//! textually different requests for the same forecast (`5e8` vs
//! `500000000`, reordered query parameters upstream) share an entry,
//! while `-0.0`/`0.0`-style float subtleties cannot collide. A platform
//! name registered again gets a new session id, so the old platform's
//! answers can never hit; [`ForecastCache::retire_session`] drops them.
//! The resolved transfers are one shared allocation per key: the map,
//! the LRU slab and the engine's flight table hold the same `Arc`.
//!
//! Eviction is LRU: a hit promotes its entry to most-recently-used, so a
//! small working set of hot queries (the realistic serving mix — a few
//! dashboards asking the same questions) survives a long tail of one-off
//! queries that would have flushed it under FIFO.
//!
//! ## Route-aware invalidation
//!
//! Serving-time platform events (a link degrading, failing, or
//! recovering — `ForecastEngine::link_event`) must invalidate exactly
//! the entries whose answers the event can change, without the epoch
//! hammer that evicts everything. Two mechanisms split that job:
//!
//! * **Correctness** is carried by the key: every key embeds a
//!   *footprint* — `Session::footprint`'s digest of the link-state
//!   overlay as seen from the query's route union (through background
//!   coupling). A query whose routes are component-disjoint from every
//!   degraded link digests to 0, exactly as before any event, so its
//!   pre-event entries still hit; a query the event can touch digests
//!   differently and misses. Because identity overlay entries are
//!   removed on restore, footprints are **not** monotonic — a restore
//!   returns the digest to its old value, soundly re-validating the old
//!   entries (the platform really is back in that state).
//! * **Memory and observability** are carried by targeted eviction:
//!   [`ForecastCache::invalidate_link`] walks the entries of the event's
//!   session and drops those whose recorded route set crosses the
//!   resource, counting them as `invalidated_targeted` (the epoch
//!   hammer's removals count as `invalidated_epoch`). Entries orphaned
//!   only through background coupling keep their memory until LRU
//!   reclaims them — they are unreachable by key, never wrong.
//!
//! Because footprints are not monotonic, a result computed under one
//! overlay must not be filed under a key computed from another:
//! [`ForecastCache::insert_if`] re-checks the session's overlay version
//! under the cache lock and drops the result on mismatch (the racing
//! `link_event`'s eviction serializes on the same lock).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use simflow::HostId;
use telemetry::{Counter, MetricsRegistry};

use crate::engine::Selection;
use crate::session::ResolvedSpec;

/// Canonical form of one transfer tuple: the host ids the session
/// resolved its names to, plus the exact bit pattern of the size (f64
/// equality is the wrong notion for keys).
type CanonicalTransfer = (HostId, HostId, u64);

/// Cache key: session + epoch + overlay footprint + the resolved query
/// (host ids + size bits). Cloning it shares the transfer list.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CacheKey {
    /// Registration id of the session the query was resolved against
    /// (`ForecastEngine::register_platform_shared` hands out a new one
    /// per registration, so a replaced platform's entries never hit).
    session: u64,
    /// Background-traffic epoch the result was computed under.
    epoch: u64,
    /// Digest of the link-state overlay as seen from the query's routes
    /// (0 when no relevant resource is degraded) — see the module docs.
    footprint: u64,
    /// Canonicalized transfers, in request order (order matters: answers
    /// are positional); a selection's hypotheses are concatenated.
    transfers: Arc<[CanonicalTransfer]>,
    /// `None` for a `predict_transfers` batch; for a `select_fastest`
    /// query, the number of transfers in each hypothesis (order matters:
    /// the winner is an index into the hypotheses).
    hypotheses: Option<Arc<[usize]>>,
}

fn canonicalize(resolved: &[ResolvedSpec]) -> Arc<[CanonicalTransfer]> {
    resolved.iter().map(|r| (r.src, r.dst, r.size.to_bits())).collect()
}

impl CacheKey {
    /// Key for a predict batch resolved against session `session`.
    pub(crate) fn predict(
        session: u64,
        epoch: u64,
        footprint: u64,
        resolved: &[ResolvedSpec],
    ) -> CacheKey {
        CacheKey { session, epoch, footprint, transfers: canonicalize(resolved), hypotheses: None }
    }

    /// Key for a hypothesis-selection query: `resolved` holds every
    /// hypothesis' specs, flattened in order, and `lengths` how many of
    /// them each hypothesis has.
    pub(crate) fn select(
        session: u64,
        epoch: u64,
        footprint: u64,
        resolved: &[ResolvedSpec],
        lengths: impl IntoIterator<Item = usize>,
    ) -> CacheKey {
        CacheKey {
            session,
            epoch,
            footprint,
            transfers: canonicalize(resolved),
            hypotheses: Some(lengths.into_iter().collect()),
        }
    }
}

/// A cached forecast result.
#[derive(Clone, Debug)]
pub enum CachedResult {
    /// Durations of a predict batch, in request order.
    Predict(Arc<Vec<f64>>),
    /// Outcome of a selection.
    Select(Arc<Selection>),
}

/// Slab slot sentinel: "no neighbor".
const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    /// `None` only while the slot sits on the free list.
    value: Option<CachedResult>,
    /// Sorted, deduplicated solver resource ids of the query's route
    /// union — what [`ForecastCache::invalidate_link`] matches against.
    routes: Arc<[u32]>,
    prev: usize,
    next: usize,
}

/// Slab-backed intrusive LRU list + key index. The list is threaded
/// through slab indices (`head` = most recent, `tail` = next eviction
/// victim), so a hit promotes in O(1) with no allocation.
struct Inner {
    map: HashMap<CacheKey, usize>,
    entries: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    /// The epoch of the last purge: keys below it are never filed.
    latest_epoch: u64,
}

impl Inner {
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.entries[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.entries[next].prev = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Removes a linked entry entirely (index structures and slab slot).
    fn remove(&mut self, idx: usize) {
        self.unlink(idx);
        self.map.remove(&self.entries[idx].key);
        self.entries[idx].value = None;
        self.free.push(idx);
    }

    /// Removes every entry `doomed` selects, given its key and route
    /// union; returns how many went.
    fn remove_where(&mut self, doomed: impl Fn(&CacheKey, &[u32]) -> bool) -> u64 {
        let victims: Vec<usize> = self
            .map
            .iter()
            .filter(|(k, &idx)| doomed(k, &self.entries[idx].routes))
            .map(|(_, &idx)| idx)
            .collect();
        for &idx in &victims {
            self.remove(idx);
        }
        victims.len() as u64
    }
}

/// A bounded, thread-safe forecast cache with LRU eviction.
pub struct ForecastCache {
    inner: Mutex<Inner>,
    capacity: usize,
    // Serving statistics are shared-handle `telemetry` counters so a
    // `MetricsRegistry` can adopt the very cells the hot path bumps
    // (`register_metrics`) — no snapshot copying, no second source of
    // truth.
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    /// Entries evicted by route-targeted link invalidation.
    invalidated_targeted: Counter,
    /// Entries reclaimed by epoch purges (the blanket hammer).
    invalidated_epoch: Counter,
}

impl ForecastCache {
    /// A cache holding at most `capacity` entries (LRU eviction).
    pub fn new(capacity: usize) -> ForecastCache {
        ForecastCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                entries: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                latest_epoch: 0,
            }),
            capacity: capacity.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            coalesced: Counter::new(),
            invalidated_targeted: Counter::new(),
            invalidated_epoch: Counter::new(),
        }
    }

    /// Adopts the cache's serving counters into `registry` — the
    /// exposition reads the same atomic cells the hot path increments.
    pub fn register_metrics(&self, registry: &MetricsRegistry) {
        registry.adopt_counter(
            "forecast_cache_hits_total",
            "Forecast cache lookups answered from a fresh entry",
            &[],
            &self.hits,
        );
        registry.adopt_counter(
            "forecast_cache_misses_total",
            "Forecast cache lookups that found no fresh entry",
            &[],
            &self.misses,
        );
        registry.adopt_counter(
            "forecast_coalesced_total",
            "Requests that joined an in-flight identical computation",
            &[],
            &self.coalesced,
        );
        registry.adopt_counter(
            "forecast_cache_invalidated_total",
            "Cache entries dropped by invalidation, by mechanism",
            &[("kind", "targeted")],
            &self.invalidated_targeted,
        );
        registry.adopt_counter(
            "forecast_cache_invalidated_total",
            "Cache entries dropped by invalidation, by mechanism",
            &[("kind", "epoch")],
            &self.invalidated_epoch,
        );
    }

    /// Looks a key up, counting the hit/miss. A hit promotes the entry to
    /// most-recently-used.
    pub fn get(&self, key: &CacheKey) -> Option<CachedResult> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match inner.map.get(key).copied() {
            Some(idx) => {
                self.hits.inc();
                inner.unlink(idx);
                inner.push_front(idx);
                inner.entries[idx].value.clone()
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Looks a key up without counting or promoting. The singleflight
    /// double-check uses this: it must not skew hit/miss statistics or
    /// recency for a lookup the caller already accounted.
    pub fn peek(&self, key: &CacheKey) -> Option<CachedResult> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.get(key).and_then(|&idx| inner.entries[idx].value.clone())
    }

    /// Files a result if it is still current, evicting the
    /// least-recently-used entry when full. Under the cache lock, a key
    /// whose epoch is below the last [`ForecastCache::purge_stale`]'s is
    /// refused, and so is any for which `valid` returns `false`. The
    /// engine passes a closure comparing the session's overlay version
    /// against the snapshot its key was computed from — any `link_event`
    /// racing the computation bumps the version first and evicts under
    /// this same lock, so a result keyed by a dead footprint can never
    /// land after the eviction swept past it (see the module docs). A
    /// result that outlived a `bump_epoch` is refused the same way.
    /// `routes` (sorted, deduplicated resource ids) is what
    /// [`ForecastCache::invalidate_link`] matches the entry by.
    pub fn insert_if(
        &self,
        key: CacheKey,
        value: CachedResult,
        routes: Arc<[u32]>,
        valid: impl FnOnce() -> bool,
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if key.epoch < inner.latest_epoch || !valid() {
            return;
        }
        if inner.map.contains_key(&key) {
            // A racing query computed the same forecast; results are
            // deterministic, keep the existing entry.
            return;
        }
        while inner.map.len() >= self.capacity {
            let victim = inner.tail;
            if victim == NIL {
                break;
            }
            inner.remove(victim);
        }
        let entry = Entry { key: key.clone(), value: Some(value), routes, prev: NIL, next: NIL };
        let idx = match inner.free.pop() {
            Some(idx) => {
                inner.entries[idx] = entry;
                idx
            }
            None => {
                inner.entries.push(entry);
                inner.entries.len() - 1
            }
        };
        inner.map.insert(key, idx);
        inner.push_front(idx);
    }

    /// Route-targeted invalidation: drops every entry of session
    /// `session` whose recorded route union crosses solver resource
    /// `resource`, returning how many were evicted (also accumulated into
    /// [`ForecastCache::invalidated_targeted`]).
    pub fn invalidate_link(&self, session: u64, resource: u32) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let n = inner.remove_where(|k, routes| {
            k.session == session && routes.binary_search(&resource).is_ok()
        });
        self.invalidated_targeted.add(n);
        n
    }

    /// Drops every entry of session `session`, which the engine has
    /// replaced: its keys can no longer be built, so the entries are
    /// unreachable and only their memory is reclaimed here.
    pub(crate) fn retire_session(&self, session: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.remove_where(|k, _| k.session == session);
    }

    /// Drops every entry of an epoch below `current` and refuses such
    /// keys from now on. Fresh lookups already miss old entries (the
    /// epoch is part of the key); this reclaims their memory.
    pub fn purge_stale(&self, current: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.latest_epoch = inner.latest_epoch.max(current);
        let n = inner.remove_where(|k, _| k.epoch < current);
        self.invalidated_epoch.add(n);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).map.len()
    }

    /// Lifetime hit count.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lifetime miss count.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Records a request that joined an in-flight computation instead of
    /// re-simulating (singleflight).
    pub fn note_coalesced(&self) {
        self.coalesced.inc();
    }

    /// Requests coalesced onto in-flight computations so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.get()
    }

    /// Entries evicted by route-targeted link invalidation so far.
    pub fn invalidated_targeted(&self) -> u64 {
        self.invalidated_targeted.get()
    }

    /// Entries reclaimed by epoch purges so far.
    pub fn invalidated_epoch(&self) -> u64 {
        self.invalidated_epoch.get()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use simflow::platform::builder::PlatformBuilder;
    use simflow::platform::routing::{Element, RoutingKind};
    use simflow::platform::SharingPolicy;
    use simflow::{NetworkConfig, Platform, ResolvedPath};

    use super::*;

    /// A transfer as a request names it: `(src, dst, size)`.
    type Spec<'a> = (&'a str, &'a str, f64);

    /// Four hosts `a`–`d`, each behind a link of its own, every pair
    /// routed over both hosts' links.
    fn four_hosts() -> &'static Platform {
        static PLATFORM: OnceLock<Platform> = OnceLock::new();
        PLATFORM.get_or_init(|| {
            let mut b = PlatformBuilder::new("root", RoutingKind::Full);
            let root = b.root_zone();
            let hosts: Vec<_> = ["a", "b", "c", "d"]
                .into_iter()
                .map(|name| {
                    let host = b.add_host(root, name, 1e9);
                    let eth =
                        b.add_link(&format!("{name}-eth"), 1.25e8, 1e-4, SharingPolicy::Shared);
                    (host, eth)
                })
                .collect();
            for (i, &(src, src_eth)) in hosts.iter().enumerate() {
                for &(dst, dst_eth) in &hosts[i + 1..] {
                    let (src, dst) =
                        (Element::Point(src.netpoint()), Element::Point(dst.netpoint()));
                    b.add_route(root, src, dst, vec![src_eth, dst_eth], true);
                }
            }
            b.build().unwrap()
        })
    }

    /// Resolves named transfers to host ids and routes, as the engine's
    /// probe does before it builds a key.
    fn resolved(specs: &[Spec]) -> Vec<ResolvedSpec> {
        let platform = four_hosts();
        specs
            .iter()
            .map(|&(src, dst, size)| {
                let src = platform.host_by_name(src).unwrap();
                let dst = platform.host_by_name(dst).unwrap();
                let path = ResolvedPath::resolve(platform, &NetworkConfig::default(), src, dst);
                ResolvedSpec { src, dst, size, path: Arc::new(path.unwrap()) }
            })
            .collect()
    }

    /// Key of a predict batch on session `session`.
    fn predict(session: u64, epoch: u64, footprint: u64, specs: &[Spec]) -> CacheKey {
        CacheKey::predict(session, epoch, footprint, &resolved(specs))
    }

    /// Key of a selection over `hypotheses` on session 1.
    fn select(hypotheses: &[&[Spec]]) -> CacheKey {
        let lengths = hypotheses.iter().map(|h| h.len());
        CacheKey::select(1, 0, 0, &resolved(&hypotheses.concat()), lengths)
    }

    /// Files `key` with no routes and no validity check.
    fn insert(cache: &ForecastCache, key: CacheKey, value: CachedResult) {
        cache.insert_if(key, value, Arc::from([]), || true);
    }

    #[test]
    fn canonical_keys_ignore_text_form_but_not_order() {
        let a = predict(1, 0, 0, &[("a", "b", 5e8)]);
        let b = predict(1, 0, 0, &[("a", "b", 500_000_000.0)]);
        assert_eq!(a, b, "5e8 and 500000000 are the same query");
        let swapped = predict(1, 0, 0, &[("b", "a", 5e8)]);
        assert_ne!(a, swapped);
        let two = predict(1, 0, 0, &[("a", "b", 1.0), ("c", "d", 1.0)]);
        let two_rev = predict(1, 0, 0, &[("c", "d", 1.0), ("a", "b", 1.0)]);
        assert_ne!(two, two_rev, "answers are positional; order is part of the key");
    }

    #[test]
    fn a_predict_batch_never_collides_with_a_selection_of_it() {
        let (t1, t2) = (("a", "b", 1.0), ("c", "d", 2.0));
        assert_ne!(predict(1, 0, 0, &[t1, t2]), select(&[&[t1, t2]]));
    }

    #[test]
    fn hypothesis_boundaries_are_part_of_the_key() {
        let (t1, t2) = (("a", "b", 1.0), ("c", "d", 2.0));
        assert_ne!(select(&[&[t1, t2]]), select(&[&[t1], &[t2]]));
        assert_eq!(select(&[&[t1], &[t2]]), select(&[&[t1], &[t2]]));
    }

    #[test]
    fn session_id_is_part_of_the_key() {
        let cache = ForecastCache::new(8);
        let spec = [("a", "b", 1.0)];
        let old = predict(1, 0, 0, &spec);
        let new = predict(2, 0, 0, &spec);
        assert_ne!(old, new, "the same host ids under two sessions are two queries");
        insert(&cache, old.clone(), CachedResult::Predict(Arc::new(vec![1.0])));
        assert!(cache.get(&new).is_none());
        cache.retire_session(1);
        assert!(cache.peek(&old).is_none(), "a retired session's entries are dropped");
        assert_eq!(
            (cache.len(), cache.invalidated_targeted(), cache.invalidated_epoch()),
            (0, 0, 0)
        );
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let cache = ForecastCache::new(16);
        let k0 = predict(1, 0, 0, &[("a", "b", 1.0)]);
        let k1 = predict(1, 1, 0, &[("a", "b", 1.0)]);
        insert(&cache, k0.clone(), CachedResult::Predict(Arc::new(vec![1.0])));
        assert!(cache.get(&k0).is_some());
        assert!(cache.get(&k1).is_none(), "new epoch must miss");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn purge_drops_old_epochs() {
        let cache = ForecastCache::new(16);
        for e in 0..4u64 {
            insert(
                &cache,
                predict(1, e, 0, &[("a", "b", e as f64)]),
                CachedResult::Predict(Arc::new(vec![0.0])),
            );
        }
        assert_eq!(cache.len(), 4);
        cache.purge_stale(3);
        assert_eq!(cache.len(), 1);
        // list structure stays consistent after the purge
        let survivor = predict(1, 3, 0, &[("a", "b", 3.0)]);
        assert!(cache.get(&survivor).is_some());
        insert(
            &cache,
            predict(1, 3, 0, &[("a", "b", 99.0)]),
            CachedResult::Predict(Arc::new(vec![9.0])),
        );
        assert_eq!(cache.len(), 2);
        // a result of an epoch behind the purge is refused, not filed
        let late = predict(1, 2, 0, &[("a", "b", 2.0)]);
        insert(&cache, late.clone(), CachedResult::Predict(Arc::new(vec![2.0])));
        assert!(cache.peek(&late).is_none());
        assert_eq!((cache.len(), cache.invalidated_epoch()), (2, 3));
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let cache = ForecastCache::new(3);
        for i in 0..10 {
            insert(
                &cache,
                predict(1, 0, 0, &[("a", "b", i as f64)]),
                CachedResult::Predict(Arc::new(vec![i as f64])),
            );
        }
        assert_eq!(cache.len(), 3);
        // with no intervening hits, the newest entries survive
        let newest = predict(1, 0, 0, &[("a", "b", 9.0)]);
        assert!(cache.get(&newest).is_some());
        let oldest = predict(1, 0, 0, &[("a", "b", 0.0)]);
        assert!(cache.get(&oldest).is_none());
    }

    #[test]
    fn hot_key_survives_eviction_pressure() {
        // The hot key is inserted FIRST and then hit between every
        // insertion. Under FIFO it would be the first eviction victim
        // (insertion order alone decides); under LRU the promotions keep
        // it resident through 20 one-off insertions into a 3-entry cache.
        let cache = ForecastCache::new(3);
        let hot = predict(1, 0, 0, &[("d", "c", 1.0)]);
        insert(&cache, hot.clone(), CachedResult::Predict(Arc::new(vec![42.0])));
        for i in 0..20 {
            insert(
                &cache,
                predict(1, 0, 0, &[("a", "b", i as f64)]),
                CachedResult::Predict(Arc::new(vec![i as f64])),
            );
            assert!(
                cache.get(&hot).is_some(),
                "hot key evicted after {} one-off insertions",
                i + 1
            );
        }
        assert_eq!(cache.len(), 3);
        match cache.get(&hot) {
            Some(CachedResult::Predict(v)) => assert_eq!(*v, vec![42.0]),
            other => panic!("hot key lost: {:?}", other.is_some()),
        }
    }

    #[test]
    fn peek_neither_counts_nor_promotes() {
        let cache = ForecastCache::new(2);
        let a = predict(1, 0, 0, &[("a", "b", 1.0)]);
        let b = predict(1, 0, 0, &[("c", "d", 1.0)]);
        insert(&cache, a.clone(), CachedResult::Predict(Arc::new(vec![1.0])));
        insert(&cache, b.clone(), CachedResult::Predict(Arc::new(vec![2.0])));
        assert!(cache.peek(&a).is_some());
        assert!(cache.peek(&predict(1, 9, 0, &[])).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "peek is statistics-free");
        // `a` was peeked, not promoted: the next insert still evicts it
        insert(
            &cache,
            predict(1, 0, 0, &[("b", "a", 1.0)]),
            CachedResult::Predict(Arc::new(vec![3.0])),
        );
        assert!(cache.peek(&a).is_none(), "peek must not refresh recency");
        assert!(cache.peek(&b).is_some());
    }

    #[test]
    fn insert_if_drops_invalid_results() {
        let cache = ForecastCache::new(8);
        let k = predict(1, 0, 7, &[("a", "b", 1.0)]);
        let v = || CachedResult::Predict(Arc::new(vec![1.0]));
        cache.insert_if(k.clone(), v(), Arc::from([]), || false);
        assert!(cache.peek(&k).is_none(), "invalid insert must be dropped");
        cache.insert_if(k.clone(), v(), Arc::from([]), || true);
        assert!(cache.peek(&k).is_some());
    }

    #[test]
    fn footprint_is_part_of_the_key() {
        let cache = ForecastCache::new(8);
        let plain = predict(1, 1, 0, &[("a", "b", 1.0)]);
        let degraded = predict(1, 1, 99, &[("a", "b", 1.0)]);
        assert_ne!(plain, degraded);
        insert(&cache, plain.clone(), CachedResult::Predict(Arc::new(vec![1.0])));
        // an answer computed under a different overlay is a miss
        assert!(cache.get(&degraded).is_none());
        assert!(cache.get(&plain).is_some());
    }

    #[test]
    fn invalidate_link_evicts_only_crossing_entries_of_the_platform() {
        let cache = ForecastCache::new(8);
        let crossing = predict(1, 0, 0, &[("a", "b", 1.0)]);
        let disjoint = predict(1, 0, 0, &[("c", "d", 1.0)]);
        let other_session = predict(2, 0, 0, &[("a", "b", 1.0)]);
        let v = || CachedResult::Predict(Arc::new(vec![0.0]));
        cache.insert_if(crossing.clone(), v(), Arc::from([2, 5, 9]), || true);
        cache.insert_if(disjoint.clone(), v(), Arc::from([1, 3]), || true);
        cache.insert_if(other_session.clone(), v(), Arc::from([2, 5]), || true);

        assert_eq!(cache.invalidate_link(1, 5), 1, "only the crossing entry");
        assert!(cache.peek(&crossing).is_none());
        assert!(cache.peek(&disjoint).is_some());
        assert!(cache.peek(&other_session).is_some(), "sessions are independent");
        assert_eq!(cache.invalidated_targeted(), 1);
        assert_eq!(cache.invalidate_link(1, 999), 0);
        // epoch purges count on the other counter
        cache.purge_stale(1);
        assert_eq!(cache.invalidated_epoch(), 2);
    }

    #[test]
    fn coalesced_counter_accumulates() {
        let cache = ForecastCache::new(4);
        cache.note_coalesced();
        cache.note_coalesced();
        assert_eq!(cache.coalesced(), 2);
    }
}
