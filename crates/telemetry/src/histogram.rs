//! Mergeable log-linear latency histogram.
//!
//! The bucket ladder is fixed and value-independent (HdrHistogram
//! style), so two histograms recorded on different machines or threads
//! merge by plain bucket-wise addition:
//!
//! - values `0..8` get exact unit buckets;
//! - every power-of-two octave `[2^m, 2^(m+1))` above that is split
//!   into 8 linear sub-buckets of width `2^(m-3)`.
//!
//! That covers all of `u64` in [`NBUCKETS`] = 496 buckets (~4 KiB of
//! atomics) with a worst-case relative error of 1/8 = 12.5% — plenty
//! for latency quantiles. `count`, `sum` and `max` are tracked exactly,
//! and quantiles are extracted by rank walk: the reported quantile is
//! the upper bound of the bucket containing the rank, clamped to the
//! exact recorded maximum.
//!
//! The record path is lock-free: four relaxed atomic RMWs, no
//! allocation, no branches beyond the bucket-index computation (a
//! `leading_zeros` and a shift).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-bucket resolution: 2^3 = 8 linear sub-buckets per octave.
const SUB_BITS: u32 = 3;
const SUB: usize = 1 << SUB_BITS; // 8

/// Total buckets: 8 exact unit buckets + 8 per octave for msb 3..=63.
pub(crate) const NBUCKETS: usize = SUB + (64 - SUB_BITS as usize) * SUB; // 496

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = msb - SUB_BITS;
        // (v >> shift) is in [8, 16); octave (msb - 3) starts at index
        // 8 * (msb - 3) + 8, so this lands the value contiguously.
        ((msb - SUB_BITS) as usize) * SUB + (v >> shift) as usize
    }
}

/// Inclusive `(low, high)` value range of bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < SUB {
        (i as u64, i as u64)
    } else {
        let octave = (i - SUB) / SUB; // msb - SUB_BITS
        let sub = (i - octave * SUB) as u64; // in [8, 16)
        let low = sub << octave;
        // the final bucket's exclusive end is 2^64: wrap to u64::MAX
        let high = ((sub + 1) << octave).wrapping_sub(1);
        (low, high)
    }
}

struct Inner {
    buckets: Vec<AtomicU64>, // NBUCKETS entries
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// Shared, mergeable, lock-free log-linear histogram. `clone()` shares
/// the underlying buckets (hand clones to worker threads freely).
#[derive(Clone)]
pub struct Histogram(Arc<Inner>);

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("max", &self.max())
            .finish_non_exhaustive()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        let mut buckets = Vec::with_capacity(NBUCKETS);
        buckets.resize_with(NBUCKETS, AtomicU64::default);
        Histogram(Arc::new(Inner {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v` at the cost of one.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let inner = &*self.0;
        inner.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        inner.count.fetch_add(n, Ordering::Relaxed);
        inner.sum.fetch_add(v.saturating_mul(n), Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Exact sum of all recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Quantile `q` in `[0, 1]`: the upper bound of the bucket holding
    /// the rank-`ceil(q·count)` observation, clamped to the exact
    /// recorded max. Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_bounds(i).1.min(self.max());
            }
        }
        self.max()
    }

    /// Adds every observation recorded in `other` into `self`
    /// (bucket-wise; ladder is fixed so this is exact).
    pub fn merge_from(&self, other: &Histogram) {
        for (dst, src) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            let n = src.load(Ordering::Relaxed);
            if n > 0 {
                dst.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.0.count.fetch_add(other.count(), Ordering::Relaxed);
        self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.0.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Non-empty buckets as `(low, high, count)` triples, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| {
                    let (lo, hi) = bucket_bounds(i);
                    (lo, hi, c)
                })
            })
            .collect()
    }

    /// True if `other` shares this histogram's buckets.
    pub fn same_as(&self, other: &Histogram) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Renders the cumulative-bucket block of Prometheus text
    /// exposition: `name_bucket{…,le="…"}`, `name_sum`, `name_count`.
    /// `labels` is the pre-rendered `k="v",…` interior (may be empty).
    ///
    /// `le` bounds are emitted at octave boundaries (`2^k - 1`), where
    /// cumulative counts are *exact* for this ladder — no bucket
    /// straddles a boundary — up to the first boundary at or above the
    /// recorded max, then `+Inf`.
    pub(crate) fn render_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        use std::fmt::Write;
        let total = self.count();
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cum = 0u64;
        let mut done = false;
        for (i, b) in self.0.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            let (_, high) = bucket_bounds(i);
            // Octave-final buckets have high = 2^k - 1 (the u64::MAX
            // bucket wraps to 0 here and is handled by the fallback).
            if high >= 1 && high.wrapping_add(1).is_power_of_two() {
                let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{high}\"}} {cum}");
                if cum >= total {
                    done = true;
                    break;
                }
            }
        }
        if !done && total > 0 {
            // max lives in the final (partial) octave; close the ladder.
            let high = u64::MAX;
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{high}\"}} {total}");
        }
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {total}");
        let lb = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
        let _ = writeln!(out, "{name}_sum{lb} {}", self.sum());
        let _ = writeln!(out, "{name}_count{lb} {total}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_bounds_roundtrip() {
        // Every bucket's bounds map back to its own index, buckets are
        // contiguous, and the ladder covers u64 end to end.
        let mut expected_low = 0u64;
        for i in 0..NBUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_low, "bucket {i} not contiguous");
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
            expected_low = hi.wrapping_add(1);
        }
        assert_eq!(expected_low, 0, "ladder must end exactly at u64::MAX");
        assert_eq!(bucket_index(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn small_values_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        // 0..16 all land in single-value buckets.
        for (lo, hi, c) in h.nonzero_buckets() {
            assert_eq!(lo, hi);
            assert_eq!(c, 1);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.sum(), (0..16).sum::<u64>());
        assert_eq!(h.max(), 15);
    }

    #[test]
    fn quantiles_match_reference_within_bucket_error() {
        let h = Histogram::new();
        let mut vals: Vec<u64> = (0..1000).map(|i| (i * i * 7 + 13) % 1_000_000).collect();
        for &v in &vals {
            h.record(v);
        }
        vals.sort_unstable();
        for &(q, idx) in &[(0.5, 499usize), (0.9, 899), (0.99, 989)] {
            let exact = vals[idx];
            let est = h.quantile(q);
            assert!(est >= exact, "q{q}: {est} < exact {exact}");
            // upper bucket bound overestimates by at most 12.5%
            assert!(
                (est as f64) <= (exact as f64) * 1.125 + 1.0,
                "q{q}: {est} too far above {exact}"
            );
        }
        assert_eq!(h.quantile(1.0), *vals.last().unwrap());
    }

    #[test]
    fn empty_histogram_quantile_zero() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_n(12345, 7);
        for _ in 0..7 {
            b.record(12345);
        }
        assert_eq!(a.nonzero_buckets(), b.nonzero_buckets());
        assert_eq!(a.sum(), b.sum());
    }

    #[test]
    fn concurrent_record_counts_exact() {
        let h = Histogram::new();
        const THREADS: u64 = 8;
        const PER: u64 = 25_000;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..PER {
                        h.record(t * 1_000 + (i % 97));
                    }
                });
            }
        });
        assert_eq!(h.count(), THREADS * PER);
        let bucket_total: u64 = h.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
        assert_eq!(bucket_total, THREADS * PER);
    }

    #[test]
    fn merge_adds_exactly() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [3u64, 900, 70_000, 1 << 40] {
            a.record(v);
            b.record(v * 2);
        }
        let m = Histogram::new();
        m.merge_from(&a);
        m.merge_from(&b);
        assert_eq!(m.count(), 8);
        assert_eq!(m.sum(), a.sum() + b.sum());
        assert_eq!(m.max(), b.max());
        let want: u64 = m.nonzero_buckets().iter().map(|&(_, _, c)| c).sum();
        assert_eq!(want, 8);
    }
}
