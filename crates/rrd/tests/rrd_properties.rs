//! Property tests of the RRD substrate: fetch semantics, ring arithmetic
//! and codec round trips under random update streams.

use seeded::{self as proptest, prelude::*};
use rrd::{decode, encode, ArchiveSpec, Cf, Database, DsKind};

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

    /// encode/decode is lossless with respect to every subsequent fetch.
    #[test]
    fn codec_round_trip_preserves_fetches(
        (mut db, updates) in arb_db_and_updates(),
    ) {
        for (t, v) in &updates {
            db.update(*t, *v).unwrap();
        }
        let back = decode(&encode(&db)).unwrap();
        let last = updates.last().map(|(t, _)| *t).unwrap_or(0);
        let a = db.fetch_best(0, last + 100);
        let b = back.fetch_best(0, last + 100);
        prop_assert_eq!(a.len(), b.len());
        for ((t1, v1), (t2, v2)) in a.iter().zip(&b) {
            prop_assert_eq!(t1, t2);
            prop_assert!(v1 == v2 || (v1.is_nan() && v2.is_nan()));
        }
    }

    /// Corrupting any single byte of an encoded database never panics the
    /// decoder (it may error or produce a decodable-but-different DB).
    #[test]
    fn decoder_never_panics_on_corruption(
        (mut db, updates) in arb_db_and_updates(),
        victim in 0usize..64,
        flip in 1u8..255,
    ) {
        for (t, v) in &updates {
            db.update(*t, *v).unwrap();
        }
        let mut bytes = encode(&db);
        let idx = victim % bytes.len();
        bytes[idx] ^= flip;
        let _ = decode(&bytes); // must not panic
    }
}
