//! Property tests of the log-linear histogram: the merge operation is
//! associative and commutative, every value lands in a bucket whose
//! bounds contain it, and quantiles never fall below the true order
//! statistic (the ladder only rounds *up*, by at most 12.5%).

use seeded::{self as proptest, prelude::*};
use telemetry::Histogram;

fn fill(values: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in values {
        h.record(v);
    }
    h
}

fn fingerprint(h: &Histogram) -> (Vec<(u64, u64, u64)>, u64, u64, u64) {
    (h.nonzero_buckets(), h.count(), h.sum(), h.max())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge(merge(a, b), c) == merge(a, merge(b, c)) == one histogram
    /// of the concatenated observations.
    #[test]
    fn merge_associative_and_order_free(
        a in proptest::collection::vec(0u64..u64::MAX, 0..40),
        b in proptest::collection::vec(0u64..u64::MAX, 0..40),
        c in proptest::collection::vec(0u64..u64::MAX, 0..40),
    ) {
        // left fold: ((a ∪ b) ∪ c)
        let left = fill(&a);
        left.merge_from(&fill(&b));
        left.merge_from(&fill(&c));
        // right fold: (a ∪ (b ∪ c))
        let bc = fill(&b);
        bc.merge_from(&fill(&c));
        let right = fill(&a);
        right.merge_from(&bc);
        // direct: one histogram over the concatenation
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        let direct = fill(&all);

        prop_assert_eq!(fingerprint(&left), fingerprint(&direct));
        prop_assert_eq!(fingerprint(&right), fingerprint(&direct));
    }

    /// Every recorded value is covered by exactly one bucket whose
    /// inclusive bounds contain it, and bucket counts total `count()`.
    #[test]
    fn bucket_bounds_contain_values(v in 0u64..u64::MAX) {
        let h = Histogram::new();
        h.record(v);
        let buckets = h.nonzero_buckets();
        prop_assert_eq!(buckets.len(), 1);
        let (lo, hi, c) = buckets[0];
        prop_assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        prop_assert_eq!(c, 1);
        // log-linear ladder: bucket width ≤ 1/8 of the value's octave
        prop_assert!(hi - lo <= v / 8, "bucket [{lo},{hi}] too wide for {v}");
    }

    /// Quantiles bracket the exact order statistic from above, within
    /// the ladder's 12.5% relative error.
    #[test]
    fn quantile_brackets_order_statistic(
        mut values in proptest::collection::vec(0u64..1_000_000_000, 1..200),
        q_millis in 0u64..1001,
    ) {
        let q = q_millis as f64 / 1000.0;
        let h = fill(&values);
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let est = h.quantile(q);
        prop_assert!(est >= exact, "q={q}: {est} < exact {exact}");
        prop_assert!(
            est as f64 <= exact as f64 * 1.125 + 1.0,
            "q={q}: {est} overshoots exact {exact}"
        );
    }

    /// count/sum/max are exact regardless of distribution.
    #[test]
    fn totals_are_exact(values in proptest::collection::vec(0u64..1_000_000_000, 0..200)) {
        let h = fill(&values);
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        prop_assert_eq!(h.max(), values.iter().copied().max().unwrap_or(0));
    }
}
