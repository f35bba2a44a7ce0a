//! The epoch-keyed forecast result cache.
//!
//! Forecasts are pure functions of `(platform, background-traffic epoch,
//! query)`: the platform model is immutable, and everything time-varying
//! (background flows derived from metrology) is folded into a
//! monotonically increasing *epoch* counter that the engine bumps
//! whenever new measurement data is ingested. Keying cache entries by
//! epoch makes invalidation free — a bump makes every old entry
//! unreachable, and [`ForecastCache::purge_stale`] reclaims the memory.
//!
//! Queries are canonicalized structurally (host names + size bit
//! patterns), so two textually different requests for the same forecast
//! (`5e8` vs `500000000`, reordered query parameters upstream) share an
//! entry, while `-0.0`/`0.0`-style float subtleties cannot collide.
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
//!   platform and drops those whose recorded route set crosses the
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

use telemetry::{Counter, MetricsRegistry};

use crate::engine::{Selection, TransferSpec};

/// Canonical form of one transfer tuple: names plus the exact bit
/// pattern of the size (f64 equality is the wrong notion for keys).
type CanonicalTransfer = (String, String, u64);

/// Cache key: platform + epoch + overlay footprint + canonicalized
/// query.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CacheKey {
    /// A `predict_transfers` batch.
    Predict {
        /// Platform name.
        platform: String,
        /// Background-traffic epoch the result was computed under.
        epoch: u64,
        /// Digest of the link-state overlay as seen from the query's
        /// routes (0 when no relevant resource is degraded) — see the
        /// module docs.
        footprint: u64,
        /// Canonicalized transfer list, in request order (order matters:
        /// answers are positional).
        transfers: Vec<CanonicalTransfer>,
    },
    /// A `select_fastest` hypothesis set.
    Select {
        /// Platform name.
        platform: String,
        /// Background-traffic epoch the result was computed under.
        epoch: u64,
        /// Digest of the link-state overlay as seen from the query's
        /// routes (0 when no relevant resource is degraded).
        footprint: u64,
        /// Canonicalized hypotheses (order matters: the winner is an
        /// index into this list).
        hypotheses: Vec<Vec<CanonicalTransfer>>,
    },
}

fn canonicalize(specs: &[TransferSpec]) -> Vec<CanonicalTransfer> {
    specs
        .iter()
        .map(|s| (s.src.clone(), s.dst.clone(), s.size.to_bits()))
        .collect()
}

impl CacheKey {
    /// Key for a predict batch.
    pub fn predict(
        platform: &str,
        epoch: u64,
        footprint: u64,
        specs: &[TransferSpec],
    ) -> CacheKey {
        CacheKey::Predict {
            platform: platform.to_string(),
            epoch,
            footprint,
            transfers: canonicalize(specs),
        }
    }

    /// Key for a hypothesis-selection query.
    pub fn select(
        platform: &str,
        epoch: u64,
        footprint: u64,
        hypotheses: &[Vec<TransferSpec>],
    ) -> CacheKey {
        CacheKey::Select {
            platform: platform.to_string(),
            epoch,
            footprint,
            hypotheses: hypotheses.iter().map(|h| canonicalize(h)).collect(),
        }
    }

    fn epoch(&self) -> u64 {
        match self {
            CacheKey::Predict { epoch, .. } | CacheKey::Select { epoch, .. } => *epoch,
        }
    }

    fn platform(&self) -> &str {
        match self {
            CacheKey::Predict { platform, .. } | CacheKey::Select { platform, .. } => platform,
        }
    }

    /// Whether `other` asks the same question (same variant, platform,
    /// overlay footprint and canonical payload) at a possibly different
    /// epoch — the matching notion behind degraded-mode stale serving.
    /// Footprints must match: an answer computed under a different
    /// link-state overlay is the wrong answer, not a stale one.
    fn same_query(&self, other: &CacheKey) -> bool {
        match (self, other) {
            (
                CacheKey::Predict { platform: p1, footprint: f1, transfers: t1, .. },
                CacheKey::Predict { platform: p2, footprint: f2, transfers: t2, .. },
            ) => p1 == p2 && f1 == f2 && t1 == t2,
            (
                CacheKey::Select { platform: p1, footprint: f1, hypotheses: h1, .. },
                CacheKey::Select { platform: p2, footprint: f2, hypotheses: h2, .. },
            ) => p1 == p2 && f1 == f2 && h1 == h2,
            _ => false,
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
    /// `None` for entries inserted without route information.
    routes: Option<Arc<[u32]>>,
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
    /// Insertions since the last periodic purge.
    inserts_since_purge: usize,
    /// Highest epoch seen on any inserted key: the "current" epoch the
    /// periodic purge measures staleness against.
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

    /// Drops every entry whose epoch is more than `retention` behind
    /// `current`, returning how many were removed.
    fn purge(&mut self, current: u64, retention: u64) -> u64 {
        let stale: Vec<usize> = self
            .map
            .iter()
            .filter(|(k, _)| k.epoch().saturating_add(retention) < current)
            .map(|(_, &idx)| idx)
            .collect();
        let n = stale.len() as u64;
        for idx in stale {
            self.remove(idx);
        }
        n
    }
}

/// Insertions between periodic purges: frequent enough that stale
/// entries cannot pile up between epoch bumps under a steady insert
/// stream, rare enough that the O(n) scan is amortized away.
const PURGE_EVERY_INSERTS: usize = 64;

/// A bounded, thread-safe forecast cache with LRU eviction.
pub struct ForecastCache {
    inner: Mutex<Inner>,
    capacity: usize,
    /// Epochs of slack before a stale entry is purged: `0` (the
    /// default) purges everything but the current epoch; degraded-mode
    /// serving keeps a few old epochs around to answer from when
    /// shedding.
    retention: u64,
    // Serving statistics are shared-handle `telemetry` counters so a
    // `MetricsRegistry` can adopt the very cells the hot path bumps
    // (`register_metrics`) — no snapshot copying, no second source of
    // truth.
    hits: Counter,
    misses: Counter,
    coalesced: Counter,
    stale_served: Counter,
    shed: Counter,
    /// Entries evicted by route-targeted link invalidation.
    invalidated_targeted: Counter,
    /// Entries reclaimed by epoch purges (the blanket hammer).
    invalidated_epoch: Counter,
}

impl ForecastCache {
    /// A cache holding at most `capacity` entries (LRU eviction), with
    /// no stale retention.
    pub fn new(capacity: usize) -> ForecastCache {
        ForecastCache::with_retention(capacity, 0)
    }

    /// A cache keeping entries up to `retention` epochs behind the
    /// current one across purges (degraded-mode stale serving).
    pub fn with_retention(capacity: usize, retention: u64) -> ForecastCache {
        ForecastCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                entries: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                inserts_since_purge: 0,
                latest_epoch: 0,
            }),
            capacity: capacity.max(1),
            retention,
            hits: Counter::new(),
            misses: Counter::new(),
            coalesced: Counter::new(),
            stale_served: Counter::new(),
            shed: Counter::new(),
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
            "forecast_stale_served_total",
            "Degraded-mode answers served from a stale epoch",
            &[],
            &self.stale_served,
        );
        registry.adopt_counter(
            "forecast_shed_total",
            "Requests shed by admission control",
            &[],
            &self.shed,
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

    /// Degraded-mode lookup: the freshest retained entry answering the
    /// *same query* as `fresh` at an older epoch, with its epoch lag.
    /// Counts a stale serve (not a hit) and promotes the entry.
    pub fn get_stale(&self, fresh: &CacheKey) -> Option<(CachedResult, u64)> {
        let fresh_epoch = fresh.epoch();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut best: Option<(usize, u64)> = None;
        for (k, &idx) in inner.map.iter() {
            let e = k.epoch();
            if e < fresh_epoch && k.same_query(fresh) && best.is_none_or(|(_, be)| e > be) {
                best = Some((idx, e));
            }
        }
        let (idx, e) = best?;
        inner.unlink(idx);
        inner.push_front(idx);
        let value = inner.entries[idx].value.clone()?;
        self.stale_served.inc();
        Some((value, fresh_epoch - e))
    }

    /// Inserts a result, evicting the least-recently-used entry when
    /// full. Every [`PURGE_EVERY_INSERTS`] insertions the cache also
    /// purges entries stale relative to the highest epoch it has seen,
    /// so stale results are reclaimed even if nobody calls
    /// [`ForecastCache::purge_stale`].
    pub fn insert(&self, key: CacheKey, value: CachedResult) {
        self.insert_if(key, value, None, || true);
    }

    /// [`ForecastCache::insert`] with route metadata and a validity
    /// check. `valid` runs under the cache lock immediately before the
    /// entry is filed; returning `false` drops the result. The engine
    /// passes a closure comparing the session's overlay version against
    /// the snapshot its key was computed from — any `link_event` racing
    /// the computation bumps the version first and evicts under this
    /// same lock, so a result keyed by a dead footprint can never land
    /// after the eviction swept past it (see the module docs). `routes`
    /// (sorted, deduplicated resource ids) makes the entry eligible for
    /// [`ForecastCache::invalidate_link`].
    pub fn insert_if(
        &self,
        key: CacheKey,
        value: CachedResult,
        routes: Option<Arc<[u32]>>,
        valid: impl FnOnce() -> bool,
    ) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if !valid() {
            return;
        }
        inner.latest_epoch = inner.latest_epoch.max(key.epoch());
        inner.inserts_since_purge += 1;
        if inner.inserts_since_purge >= PURGE_EVERY_INSERTS {
            inner.inserts_since_purge = 0;
            let current = inner.latest_epoch;
            let purged = inner.purge(current, self.retention);
            self.invalidated_epoch.add(purged);
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

    /// Route-targeted invalidation: drops every entry of `platform`
    /// whose recorded route union crosses solver resource `resource`,
    /// returning how many were evicted (also accumulated into
    /// [`ForecastCache::invalidated_targeted`]). Entries without route
    /// metadata are left alone — their footprint keying keeps them
    /// correct; LRU reclaims their memory.
    pub fn invalidate_link(&self, platform: &str, resource: u32) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let victims: Vec<usize> = inner
            .map
            .iter()
            .filter(|(k, &idx)| {
                k.platform() == platform
                    && inner.entries[idx]
                        .routes
                        .as_ref()
                        .is_some_and(|r| r.binary_search(&resource).is_ok())
            })
            .map(|(_, &idx)| idx)
            .collect();
        let n = victims.len() as u64;
        for idx in victims {
            inner.remove(idx);
        }
        self.invalidated_targeted.add(n);
        n
    }

    /// Drops every entry more than the retention window behind
    /// `current`. Fresh lookups already miss old entries (the epoch is
    /// part of the key); this reclaims their memory, keeping up to the
    /// configured number of trailing epochs for stale serving.
    pub fn purge_stale(&self, current: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.latest_epoch = inner.latest_epoch.max(current);
        let purged = inner.purge(current, self.retention);
        self.invalidated_epoch.add(purged);
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Stale-epoch answers served so far (degraded mode).
    pub fn stale_served(&self) -> u64 {
        self.stale_served.get()
    }

    /// Records a request shed by admission control without an answer
    /// from this cache.
    pub fn note_shed(&self) {
        self.shed.inc();
    }

    /// Requests shed so far.
    pub fn shed(&self) -> u64 {
        self.shed.get()
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
    use super::*;

    fn spec(src: &str, dst: &str, size: f64) -> TransferSpec {
        TransferSpec { src: src.into(), dst: dst.into(), size }
    }

    #[test]
    fn canonical_keys_ignore_text_form_but_not_order() {
        let a = CacheKey::predict("p", 0, 0, &[spec("a", "b", 5e8)]);
        let b = CacheKey::predict("p", 0, 0, &[spec("a", "b", 500_000_000.0)]);
        assert_eq!(a, b, "5e8 and 500000000 are the same query");
        let swapped = CacheKey::predict("p", 0, 0, &[spec("b", "a", 5e8)]);
        assert_ne!(a, swapped);
        let two = CacheKey::predict("p", 0, 0, &[spec("a", "b", 1.0), spec("c", "d", 1.0)]);
        let two_rev = CacheKey::predict("p", 0, 0, &[spec("c", "d", 1.0), spec("a", "b", 1.0)]);
        assert_ne!(two, two_rev, "answers are positional; order is part of the key");
    }

    #[test]
    fn epoch_is_part_of_the_key() {
        let cache = ForecastCache::new(16);
        let k0 = CacheKey::predict("p", 0, 0, &[spec("a", "b", 1.0)]);
        let k1 = CacheKey::predict("p", 1, 0, &[spec("a", "b", 1.0)]);
        cache.insert(k0.clone(), CachedResult::Predict(Arc::new(vec![1.0])));
        assert!(cache.get(&k0).is_some());
        assert!(cache.get(&k1).is_none(), "new epoch must miss");
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn purge_drops_old_epochs() {
        let cache = ForecastCache::new(16);
        for e in 0..4u64 {
            cache.insert(
                CacheKey::predict("p", e, 0, &[spec("a", "b", e as f64)]),
                CachedResult::Predict(Arc::new(vec![0.0])),
            );
        }
        assert_eq!(cache.len(), 4);
        cache.purge_stale(3);
        assert_eq!(cache.len(), 1);
        // list structure stays consistent after the purge
        let survivor = CacheKey::predict("p", 3, 0, &[spec("a", "b", 3.0)]);
        assert!(cache.get(&survivor).is_some());
        cache.insert(
            CacheKey::predict("p", 3, 0, &[spec("a", "b", 99.0)]),
            CachedResult::Predict(Arc::new(vec![9.0])),
        );
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_eviction_bounds_the_cache() {
        let cache = ForecastCache::new(3);
        for i in 0..10 {
            cache.insert(
                CacheKey::predict("p", 0, 0, &[spec("a", "b", i as f64)]),
                CachedResult::Predict(Arc::new(vec![i as f64])),
            );
        }
        assert_eq!(cache.len(), 3);
        // with no intervening hits, the newest entries survive
        let newest = CacheKey::predict("p", 0, 0, &[spec("a", "b", 9.0)]);
        assert!(cache.get(&newest).is_some());
        let oldest = CacheKey::predict("p", 0, 0, &[spec("a", "b", 0.0)]);
        assert!(cache.get(&oldest).is_none());
    }

    #[test]
    fn hot_key_survives_eviction_pressure() {
        // The hot key is inserted FIRST and then hit between every
        // insertion. Under FIFO it would be the first eviction victim
        // (insertion order alone decides); under LRU the promotions keep
        // it resident through 20 one-off insertions into a 3-entry cache.
        let cache = ForecastCache::new(3);
        let hot = CacheKey::predict("p", 0, 0, &[spec("hot", "hot", 1.0)]);
        cache.insert(hot.clone(), CachedResult::Predict(Arc::new(vec![42.0])));
        for i in 0..20 {
            cache.insert(
                CacheKey::predict("p", 0, 0, &[spec("a", "b", i as f64)]),
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
        let a = CacheKey::predict("p", 0, 0, &[spec("a", "b", 1.0)]);
        let b = CacheKey::predict("p", 0, 0, &[spec("c", "d", 1.0)]);
        cache.insert(a.clone(), CachedResult::Predict(Arc::new(vec![1.0])));
        cache.insert(b.clone(), CachedResult::Predict(Arc::new(vec![2.0])));
        assert!(cache.peek(&a).is_some());
        assert!(cache.peek(&CacheKey::predict("p", 9, 0, &[])).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0), "peek is statistics-free");
        // `a` was peeked, not promoted: the next insert still evicts it
        cache.insert(
            CacheKey::predict("p", 0, 0, &[spec("e", "f", 1.0)]),
            CachedResult::Predict(Arc::new(vec![3.0])),
        );
        assert!(cache.peek(&a).is_none(), "peek must not refresh recency");
        assert!(cache.peek(&b).is_some());
    }

    #[test]
    fn retention_keeps_trailing_epochs_and_serves_stale() {
        let cache = ForecastCache::with_retention(16, 2);
        for e in 0..5u64 {
            cache.insert(
                CacheKey::predict("p", e, 0, &[spec("a", "b", 1.0)]),
                CachedResult::Predict(Arc::new(vec![e as f64])),
            );
        }
        cache.purge_stale(5);
        assert_eq!(cache.len(), 2, "epochs 3 and 4 sit inside the retention window");

        // stale lookup: freshest retained epoch wins, lag is reported
        let fresh = CacheKey::predict("p", 5, 0, &[spec("a", "b", 1.0)]);
        match cache.get_stale(&fresh) {
            Some((CachedResult::Predict(v), lag)) => {
                assert_eq!(*v, vec![4.0]);
                assert_eq!(lag, 1);
            }
            other => panic!("expected stale hit, got {:?}", other.map(|(_, l)| l)),
        }
        assert_eq!(cache.stale_served(), 1);
        // a different query has nothing to serve
        let unknown = CacheKey::predict("p", 5, 0, &[spec("x", "y", 1.0)]);
        assert!(cache.get_stale(&unknown).is_none());
        // predict entries never answer select queries
        let select = CacheKey::select("p", 5, 0, &[vec![spec("a", "b", 1.0)]]);
        assert!(cache.get_stale(&select).is_none());
    }

    #[test]
    fn periodic_purge_reclaims_without_explicit_calls() {
        let cache = ForecastCache::new(4096);
        // epoch 0 entries, then a stream of epoch-1 inserts: the periodic
        // purge must reclaim the epoch-0 entries without purge_stale.
        for i in 0..8 {
            cache.insert(
                CacheKey::predict("p", 0, 0, &[spec("a", "b", i as f64)]),
                CachedResult::Predict(Arc::new(vec![0.0])),
            );
        }
        for i in 0..70 {
            cache.insert(
                CacheKey::predict("p", 1, 0, &[spec("a", "b", i as f64)]),
                CachedResult::Predict(Arc::new(vec![1.0])),
            );
        }
        let epoch0 = CacheKey::predict("p", 0, 0, &[spec("a", "b", 0.0)]);
        assert!(cache.peek(&epoch0).is_none(), "periodic purge dropped epoch 0");
        assert!(cache.len() <= 70);
    }

    #[test]
    fn insert_if_drops_invalid_results() {
        let cache = ForecastCache::new(8);
        let k = CacheKey::predict("p", 0, 7, &[spec("a", "b", 1.0)]);
        cache.insert_if(
            k.clone(),
            CachedResult::Predict(Arc::new(vec![1.0])),
            None,
            || false,
        );
        assert!(cache.peek(&k).is_none(), "invalid insert must be dropped");
        cache.insert_if(
            k.clone(),
            CachedResult::Predict(Arc::new(vec![1.0])),
            None,
            || true,
        );
        assert!(cache.peek(&k).is_some());
    }

    #[test]
    fn footprint_is_part_of_the_key_and_of_same_query() {
        let cache = ForecastCache::with_retention(8, 4);
        let plain = CacheKey::predict("p", 1, 0, &[spec("a", "b", 1.0)]);
        let degraded = CacheKey::predict("p", 1, 99, &[spec("a", "b", 1.0)]);
        assert_ne!(plain, degraded);
        cache.insert(plain, CachedResult::Predict(Arc::new(vec![1.0])));
        // Stale lookups must not cross footprints: an answer computed
        // under a different overlay is wrong, not stale.
        let fresh_degraded = CacheKey::predict("p", 2, 99, &[spec("a", "b", 1.0)]);
        assert!(cache.get_stale(&fresh_degraded).is_none());
        let fresh_plain = CacheKey::predict("p", 2, 0, &[spec("a", "b", 1.0)]);
        assert!(cache.get_stale(&fresh_plain).is_some());
    }

    #[test]
    fn invalidate_link_evicts_only_crossing_entries_of_the_platform() {
        let cache = ForecastCache::new(8);
        let routes = |r: &[u32]| Some(Arc::from(r));
        let crossing = CacheKey::predict("p", 0, 0, &[spec("a", "b", 1.0)]);
        let disjoint = CacheKey::predict("p", 0, 0, &[spec("c", "d", 1.0)]);
        let other_platform = CacheKey::predict("q", 0, 0, &[spec("a", "b", 1.0)]);
        let unrouted = CacheKey::predict("p", 0, 0, &[spec("e", "f", 1.0)]);
        let v = || CachedResult::Predict(Arc::new(vec![0.0]));
        cache.insert_if(crossing.clone(), v(), routes(&[2, 5, 9]), || true);
        cache.insert_if(disjoint.clone(), v(), routes(&[1, 3]), || true);
        cache.insert_if(other_platform.clone(), v(), routes(&[2, 5]), || true);
        cache.insert_if(unrouted.clone(), v(), None, || true);

        assert_eq!(cache.invalidate_link("p", 5), 1, "only the crossing entry");
        assert!(cache.peek(&crossing).is_none());
        assert!(cache.peek(&disjoint).is_some());
        assert!(cache.peek(&other_platform).is_some(), "platforms are independent");
        assert!(cache.peek(&unrouted).is_some(), "unrouted entries are spared");
        assert_eq!(cache.invalidated_targeted(), 1);
        assert_eq!(cache.invalidate_link("p", 999), 0);
        // epoch purges count on the other counter
        cache.purge_stale(1);
        assert_eq!(cache.invalidated_epoch(), 3);
    }

    #[test]
    fn shed_and_coalesced_counters_accumulate() {
        let cache = ForecastCache::new(4);
        cache.note_shed();
        cache.note_shed();
        cache.note_coalesced();
        assert_eq!((cache.shed(), cache.coalesced(), cache.stale_served()), (2, 1, 0));
    }
}
