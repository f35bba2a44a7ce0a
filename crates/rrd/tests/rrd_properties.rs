//! Property tests of the RRD substrate: fetch semantics and ring
//! arithmetic under random update streams.

use seeded::{self as proptest, prelude::*};
use rrd::{ArchiveSpec, Cf, Database, DsKind};

fn arb_db_and_updates() -> impl Strategy<Value = (Database, Vec<(i64, f64)>)> {
    (
        2u64..30,                                  // step
        1u32..5,                                   // fine rows multiplier
        proptest::collection::vec((1i64..40, 0.0f64..1e6), 1..80),
    )
        .prop_map(|(step, spr2, increments)| {
            let db = Database::new(
                step,
                DsKind::Gauge,
                step * 20,
                &[
                    ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 16 },
                    ArchiveSpec { cf: Cf::Average, steps_per_row: spr2 + 1, rows: 16 },
                    ArchiveSpec { cf: Cf::Max, steps_per_row: 4, rows: 8 },
                ],
            );
            // strictly increasing timestamps from random deltas
            let mut t = 0i64;
            let updates: Vec<(i64, f64)> = increments
                .into_iter()
                .map(|(dt, v)| {
                    t += dt;
                    (t, v)
                })
                .collect();
            (db, updates)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// fetch_best returns strictly increasing timestamps inside the
    /// requested window, regardless of archive stitching.
    #[test]
    fn fetch_best_is_ordered_and_bounded(
        (mut db, updates) in arb_db_and_updates(),
        begin in 0i64..500,
        span in 1i64..2000,
    ) {
        for (t, v) in &updates {
            db.update(*t, *v).unwrap();
        }
        let end = begin + span;
        let points = db.fetch_best(begin, end);
        for w in points.windows(2) {
            prop_assert!(w[0].0 < w[1].0, "timestamps must increase: {points:?}");
        }
        for (t, _) in &points {
            prop_assert!(*t > begin && *t <= end, "{t} outside ({begin}, {end}]");
        }
    }

    /// Known (non-NaN) values returned by fetch never exceed the range of
    /// fed values (Average/Min/Max are all contractive).
    #[test]
    fn consolidation_stays_in_range(
        (mut db, updates) in arb_db_and_updates(),
    ) {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for (t, v) in &updates {
            db.update(*t, *v).unwrap();
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        if updates.len() < 2 {
            return Ok(());
        }
        let last = updates.last().unwrap().0;
        for (_, v) in db.fetch_best(0, last) {
            if v.is_finite() {
                prop_assert!(
                    v >= lo - 1e-9 && v <= hi + 1e-9,
                    "consolidated {v} outside fed range [{lo}, {hi}]"
                );
            }
        }
    }
}
