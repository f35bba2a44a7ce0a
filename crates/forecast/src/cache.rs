//! The forecast result cache.
//!
//! A forecast is a pure function of its session, the session's
//! link-state overlay and the query. The cache keys it by the query
//! alone: the session's registration id, then host ids + size bit
//! patterns, which the probe builds from the request's host names
//! without resolving a route. Two textually different requests for the
//! same forecast (`5e8` vs `500000000`, reordered query parameters
//! upstream) share an entry, while `-0.0`/`0.0`-style float subtleties
//! cannot collide. A platform name registered again gets a new session
//! id, so the old platform's answers can never hit. The transfers are
//! one shared allocation per key: the map, the LRU slab and the engine's
//! flight table hold the same `Arc`.
//!
//! Every entry is a [`Selection`]. A selection's key adds its hypothesis
//! boundaries, except for a one-hypothesis query: a predict and the
//! one-hypothesis select of the same transfers are the same simulation,
//! so they key alike and share one entry.
//!
//! The overlay is kept out of the key because an entry never outlives
//! the overlay it was computed under. One rule files, and an entry goes
//! only when its answer can change or can no longer be asked for:
//!
//! * **Filing** ([`ForecastCache::insert_if`]): a result is filed only
//!   if the engine's `valid` check still holds under the cache lock —
//!   the session's overlay version is the one read before the
//!   computation began. A result computed across a link event is handed
//!   to its caller and dropped.
//! * **Link events** ([`ForecastCache::invalidate_link`]): every entry of
//!   the event's session whose recorded route union crosses the event's
//!   resource is dropped, counted as `invalidated_targeted`. Only a
//!   resource on a query's routes can change its answer, so every other
//!   entry keeps hitting.
//! * **Re-registration** ([`ForecastCache::retire_session`]): the
//!   replaced session's entries are dropped, uncounted.
//!
//! An event bumps the overlay version under the overlay's write lock,
//! before it changes the overlay, and then evicts under the cache lock.
//! A computation reads the version before it reads the overlay, so one
//! that read the new version waits for the change and simulates the new
//! overlay, and one that read the old version either fails the insert
//! check or is filed before the eviction sweeps it away.
//!
//! Eviction is LRU: a hit promotes its entry to most-recently-used, so a
//! small working set of hot queries (the realistic serving mix — a few
//! dashboards asking the same questions) survives a long tail of one-off
//! queries that would have flushed it under FIFO.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use simflow::HostId;
use telemetry::{Counter, MetricsRegistry};

use crate::engine::Selection;

/// Canonical form of one transfer tuple: the host ids the session
/// looked its names up as, plus the exact bit pattern of the size (f64
/// equality is the wrong notion for keys).
pub(crate) type CanonicalTransfer = (HostId, HostId, u64);

/// Cache key: session + the query as host ids + size bits. Cloning it
/// shares the transfer list.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct CacheKey {
    /// Registration id of the session the query was keyed against
    /// (`ForecastEngine::register_platform_shared` hands out a new one
    /// per registration, so a replaced platform's entries never hit).
    session: u64,
    /// Canonicalized transfers, in request order (order matters: answers
    /// are positional); a selection's hypotheses are concatenated.
    transfers: Arc<[CanonicalTransfer]>,
    /// `None` for a one-hypothesis query — a predict, or a select of one
    /// hypothesis; else the number of transfers in each hypothesis
    /// (order matters: the winner is an index into the hypotheses).
    hypotheses: Option<Arc<[usize]>>,
}

impl CacheKey {
    /// Key of a query on session `session`: one hypothesis of all of
    /// `transfers` when `hypotheses` is `None`, else a selection whose
    /// `transfers` hold every hypothesis' transfers, flattened in order,
    /// and `hypotheses` how many of them each hypothesis has.
    pub(crate) fn new(
        session: u64,
        transfers: Arc<[CanonicalTransfer]>,
        hypotheses: Option<Arc<[usize]>>,
    ) -> CacheKey {
        CacheKey { session, transfers, hypotheses }
    }

    /// The query's transfers, in request order.
    pub(crate) fn transfers(&self) -> &[CanonicalTransfer] {
        &self.transfers
    }

    /// A selection's hypothesis lengths; `None` for one hypothesis.
    pub(crate) fn hypotheses(&self) -> Option<&[usize]> {
        self.hypotheses.as_deref()
    }
}

/// Slab slot sentinel: "no neighbor".
const NIL: usize = usize::MAX;

struct Entry {
    key: CacheKey,
    /// `None` only while the slot sits on the free list.
    value: Option<Arc<Selection>>,
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
            }),
            capacity: capacity.max(1),
            hits: Counter::new(),
            misses: Counter::new(),
            coalesced: Counter::new(),
            invalidated_targeted: Counter::new(),
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
    }

    /// Looks a key up, counting the hit/miss. A hit promotes the entry to
    /// most-recently-used.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Selection>> {
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
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<Selection>> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.get(key).and_then(|&idx| inner.entries[idx].value.clone())
    }

    /// Files a result if `valid` still returns `true` under the cache
    /// lock, evicting the least-recently-used entry when full. The
    /// engine passes a closure comparing the session's overlay version
    /// against what it read before computing — a `link_event` racing
    /// the computation changes it first and then evicts under this same
    /// lock, so a result computed across it can never land after the
    /// eviction swept past (see the module docs). `routes` (sorted,
    /// deduplicated resource ids) is what
    /// [`ForecastCache::invalidate_link`] matches the entry by.
    pub fn insert_if(
        &self,
        key: CacheKey,
        value: Arc<Selection>,
        routes: Arc<[u32]>,
        valid: impl FnOnce() -> bool,
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !valid() {
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
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use simflow::platform::builder::PlatformBuilder;
    use simflow::platform::routing::{Element, RoutingKind};
    use simflow::platform::SharingPolicy;
    use simflow::Platform;

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

    /// Looks named transfers' hosts up, as the engine's probe does
    /// before it builds a key.
    fn transfers(specs: &[Spec]) -> Arc<[CanonicalTransfer]> {
        let platform = four_hosts();
        specs
            .iter()
            .map(|&(src, dst, size)| {
                let src = platform.host_by_name(src).unwrap();
                let dst = platform.host_by_name(dst).unwrap();
                (src, dst, size.to_bits())
            })
            .collect()
    }

    /// Key of a predict batch on session `session`.
    fn predict(session: u64, specs: &[Spec]) -> CacheKey {
        CacheKey::new(session, transfers(specs), None)
    }

    /// Key of a selection over `hypotheses` on session 1, as the
    /// engine's probe builds it.
    fn select(hypotheses: &[&[Spec]]) -> CacheKey {
        let lengths = (hypotheses.len() > 1).then(|| hypotheses.iter().map(|h| h.len()).collect());
        CacheKey::new(1, transfers(&hypotheses.concat()), lengths)
    }

    /// The answer to a one-transfer predict that takes `duration`.
    fn answer(duration: f64) -> Arc<Selection> {
        Arc::new(Selection::new(0, duration, vec![duration], Vec::new()))
    }

    /// Files `key` with no routes and no validity check.
    fn insert(cache: &ForecastCache, key: CacheKey, value: Arc<Selection>) {
        cache.insert_if(key, value, Arc::from([]), || true);
    }

    #[test]
    fn canonical_keys_ignore_text_form_but_not_order() {
        let a = predict(1, &[("a", "b", 5e8)]);
        let b = predict(1, &[("a", "b", 500_000_000.0)]);
        assert_eq!(a, b, "5e8 and 500000000 are the same query");
        let swapped = predict(1, &[("b", "a", 5e8)]);
        assert_ne!(a, swapped);
        let two = predict(1, &[("a", "b", 1.0), ("c", "d", 1.0)]);
        let two_rev = predict(1, &[("c", "d", 1.0), ("a", "b", 1.0)]);
        assert_ne!(two, two_rev, "answers are positional; order is part of the key");
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
        let old = predict(1, &spec);
        let new = predict(2, &spec);
        assert_ne!(old, new, "the same host ids under two sessions are two queries");
        insert(&cache, old.clone(), answer(1.0));
        assert!(cache.get(&new).is_none());
        cache.retire_session(1);
        assert!(cache.peek(&old).is_none(), "a retired session's entries are dropped");
        assert_eq!((cache.len(), cache.invalidated_targeted()), (0, 0));
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let cache = ForecastCache::new(3);
        for i in 0..10 {
            insert(
                &cache,
                predict(1, &[("a", "b", i as f64)]),
                answer(i as f64),
            );
        }
        assert_eq!(cache.len(), 3);
        // with no intervening hits, the newest entries survive
        let newest = predict(1, &[("a", "b", 9.0)]);
        assert!(cache.get(&newest).is_some());
        let oldest = predict(1, &[("a", "b", 0.0)]);
        assert!(cache.get(&oldest).is_none());
    }

    #[test]
    fn hot_key_survives_eviction_pressure() {
        // The hot key is inserted FIRST and then hit between every
        // insertion. Under FIFO it would be the first eviction victim
        // (insertion order alone decides); under LRU the promotions keep
        // it resident through 20 one-off insertions into a 3-entry cache.
        let cache = ForecastCache::new(3);
        let hot = predict(1, &[("d", "c", 1.0)]);
        insert(&cache, hot.clone(), answer(42.0));
        for i in 0..20 {
            insert(
                &cache,
                predict(1, &[("a", "b", i as f64)]),
                answer(i as f64),
            );
            assert!(
                cache.get(&hot).is_some(),
                "hot key evicted after {} one-off insertions",
                i + 1
            );
        }
        assert_eq!(cache.len(), 3);
        match cache.get(&hot) {
            Some(v) => assert_eq!(v.durations, vec![42.0]),
            other => panic!("hot key lost: {:?}", other.is_some()),
        }
    }

    #[test]
    fn peek_neither_counts_nor_promotes() {
        let cache = ForecastCache::new(2);
        let a = predict(1, &[("a", "b", 1.0)]);
        let b = predict(1, &[("c", "d", 1.0)]);
        insert(&cache, a.clone(), answer(1.0));
        insert(&cache, b.clone(), answer(2.0));
        assert!(cache.peek(&a).is_some());
        assert!(cache.peek(&predict(1, &[])).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "peek is statistics-free");
        // `a` was peeked, not promoted: the next insert still evicts it
        insert(
            &cache,
            predict(1, &[("b", "a", 1.0)]),
            answer(3.0),
        );
        assert!(cache.peek(&a).is_none(), "peek must not refresh recency");
        assert!(cache.peek(&b).is_some());
    }

    #[test]
    fn insert_if_drops_invalid_results() {
        let cache = ForecastCache::new(8);
        let k = predict(1, &[("a", "b", 1.0)]);
        let v = || answer(1.0);
        cache.insert_if(k.clone(), v(), Arc::from([]), || false);
        assert!(cache.peek(&k).is_none(), "invalid insert must be dropped");
        cache.insert_if(k.clone(), v(), Arc::from([]), || true);
        assert!(cache.peek(&k).is_some());
    }

    #[test]
    fn invalidate_link_evicts_only_crossing_entries_of_the_platform() {
        let cache = ForecastCache::new(8);
        let crossing = predict(1, &[("a", "b", 1.0)]);
        let disjoint = predict(1, &[("c", "d", 1.0)]);
        let other_session = predict(2, &[("a", "b", 1.0)]);
        let v = || answer(0.0);
        cache.insert_if(crossing.clone(), v(), Arc::from([2, 5, 9]), || true);
        cache.insert_if(disjoint.clone(), v(), Arc::from([1, 3]), || true);
        cache.insert_if(other_session.clone(), v(), Arc::from([2, 5]), || true);

        assert_eq!(cache.invalidate_link(1, 5), 1, "only the crossing entry");
        assert!(cache.peek(&crossing).is_none());
        assert!(cache.peek(&disjoint).is_some());
        assert!(cache.peek(&other_session).is_some(), "sessions are independent");
        assert_eq!(cache.invalidated_targeted(), 1);
        assert_eq!(cache.invalidate_link(1, 999), 0);
    }

    #[test]
    fn coalesced_counter_accumulates() {
        let cache = ForecastCache::new(4);
        cache.note_coalesced();
        cache.note_coalesced();
        assert_eq!(cache.coalesced(), 2);
    }
}
