//! The round-robin database core: data sources, consolidated archives,
//! rate normalization and best-resolution fetch.
//!
//! Semantics follow rrdtool, which the paper identifies as "the de-facto
//! standard in the sysadmin community for time-series storage":
//!
//! * updates are normalized into *primary data points* (PDPs), one per
//!   `step` seconds, as rates (Counter/Derive) or values (Gauge);
//! * gaps longer than the heartbeat become *unknown* (NaN);
//! * each *round-robin archive* (RRA) consolidates `steps_per_row`
//!   consecutive PDPs with a consolidation function (Average/Min/Max/
//!   Last) into a fixed-size ring of rows — old data ages into coarser
//!   archives instead of growing the file.
//!
//! The part the paper adds on top of rrdtool is the *fetch* semantics of
//! its metrology service: "for given lower and upper bound timestamps, the
//! service will answer with all metric values between these bounds,
//! automatically gathering the most accurate data from the different
//! round-robin archives available" — implemented here as
//! [`Database::fetch_best`], which stitches fine recent archives with
//! coarse old ones.

/// How a data source interprets update values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DsKind {
    /// Instantaneous reading (temperature, power draw…): stored as-is.
    Gauge,
    /// Monotonic counter (bytes on an interface): stored as the rate
    /// `Δvalue/Δt`; decreases are treated as unknown (counter reset).
    Counter,
    /// Like Counter but decreases are legal (signed rate).
    Derive,
}

/// Consolidation function of an archive.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Cf {
    /// Mean of the consolidated PDPs.
    Average,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Last PDP of the window.
    Last,
}

/// Archive (RRA) declaration.
#[derive(Clone, Copy, Debug)]
pub struct ArchiveSpec {
    /// Consolidation function.
    pub cf: Cf,
    /// PDPs consolidated per stored row.
    pub steps_per_row: u32,
    /// Ring capacity in rows.
    pub rows: u32,
}

/// One archive with its ring and consolidation state.
#[derive(Clone, Debug)]
pub(crate) struct Archive {
    pub(crate) spec: ArchiveSpec,
    /// Ring of consolidated values; index 0 is the *oldest* retained row
    /// once the ring has wrapped (we keep a rolling Vec with head index).
    pub(crate) ring: Vec<f64>,
    /// Index of the slot the *next* row will be written to.
    pub(crate) head: usize,
    /// Number of valid rows stored so far (saturates at capacity).
    pub(crate) filled: usize,
    /// End timestamp of the most recent row, or `None` before any row.
    pub(crate) last_row_end: Option<i64>,
    /// Consolidation accumulator over the current window.
    pub(crate) acc: f64,
    /// PDPs accumulated in the current window.
    pub(crate) acc_count: u32,
}

impl Archive {
    fn new(spec: ArchiveSpec) -> Self {
        Archive {
            spec,
            ring: vec![f64::NAN; spec.rows as usize],
            head: 0,
            filled: 0,
            last_row_end: None,
            acc: f64::NAN,
            acc_count: 0,
        }
    }

    /// Row duration in seconds for a database step.
    fn row_span(&self, step: u64) -> i64 {
        (self.spec.steps_per_row as i64) * (step as i64)
    }

    /// Feeds one PDP (ending at `pdp_end`).
    fn push_pdp(&mut self, pdp_end: i64, value: f64) {
        if self.acc_count == 0 {
            self.acc = value;
        } else if value.is_nan() || self.acc.is_nan() {
            // any unknown PDP poisons Min/Max/Average windows; Last keeps
            // the freshest known value semantics simple: also NaN
            self.acc = f64::NAN;
        } else {
            self.acc = match self.spec.cf {
                Cf::Average => self.acc + value,
                Cf::Min => self.acc.min(value),
                Cf::Max => self.acc.max(value),
                Cf::Last => value,
            };
        }
        self.acc_count += 1;
        if self.acc_count == self.spec.steps_per_row {
            let row = match self.spec.cf {
                Cf::Average => self.acc / self.spec.steps_per_row as f64,
                _ => self.acc,
            };
            self.ring[self.head] = row;
            self.head = (self.head + 1) % self.ring.len();
            self.filled = (self.filled + 1).min(self.ring.len());
            self.last_row_end = Some(pdp_end);
            self.acc = f64::NAN;
            self.acc_count = 0;
        }
    }

    /// Feeds `n` consecutive PDPs of one `value`, the first ending at
    /// `first_end`: the state `n` calls of [`Self::push_pdp`] leave, in
    /// work bounded by the archive's coverage (`rows × steps_per_row`
    /// steps) instead of by `n`. From a row boundary, a whole row that
    /// `rows` later rows of the same run overwrite leaves nothing behind
    /// but the ring position, so only `head` is moved for it.
    fn push_run(&mut self, first_end: i64, n: u64, value: f64, step: i64) {
        let per_row = u64::from(self.spec.steps_per_row);
        let rows = self.ring.len() as u64;
        let mut i = 0;
        while i < n {
            if self.acc_count == 0 {
                let overwritten = ((n - i) / per_row).saturating_sub(rows);
                self.head = ((self.head as u64 + overwritten % rows) % rows) as usize;
                i += overwritten * per_row;
            }
            // `i < n` still: at least `rows` ≥ 1 rows are left to feed
            self.push_pdp(first_end + i as i64 * step, value);
            i += 1;
        }
    }

    /// End timestamp of the oldest retained row.
    pub(crate) fn oldest_row_end(&self, step: u64) -> Option<i64> {
        let last = self.last_row_end?;
        Some(last - (self.filled as i64 - 1) * self.row_span(step))
    }

    /// The consolidated value of the row ending at `row_end` (must align).
    fn row_at(&self, row_end: i64, step: u64) -> Option<f64> {
        let last = self.last_row_end?;
        let span = self.row_span(step);
        if row_end > last || (last - row_end) % span != 0 {
            return None;
        }
        let back = ((last - row_end) / span) as usize;
        if back >= self.filled {
            return None;
        }
        let idx = (self.head + self.ring.len() - 1 - back) % self.ring.len();
        Some(self.ring[idx])
    }
}

/// A single-data-source round-robin database.
#[derive(Clone, Debug)]
pub struct Database {
    pub(crate) step: u64,
    pub(crate) kind: DsKind,
    /// Maximum silence between updates before data is unknown, seconds.
    pub(crate) heartbeat: u64,
    pub(crate) archives: Vec<Archive>,
    /// Timestamp of the last processed update.
    pub(crate) last_update: Option<i64>,
    /// Raw value of the last update (Counter/Derive deltas).
    pub(crate) last_raw: f64,
    /// Accumulator for the PDP in progress: sum of value×seconds.
    pub(crate) pdp_sum: f64,
    /// Seconds of the current PDP already covered by known data.
    pub(crate) pdp_known: f64,
}

impl Database {
    /// Creates a database.
    ///
    /// # Panics
    /// Panics if `step` is zero or no archive is declared.
    pub fn new(step: u64, kind: DsKind, heartbeat: u64, archives: &[ArchiveSpec]) -> Self {
        assert!(step > 0, "step must be positive");
        assert!(!archives.is_empty(), "at least one archive required");
        assert!(
            archives.iter().all(|a| a.steps_per_row > 0 && a.rows > 0),
            "archive geometry must be positive"
        );
        Database {
            step,
            kind,
            heartbeat,
            archives: archives.iter().map(|s| Archive::new(*s)).collect(),
            last_update: None,
            last_raw: f64::NAN,
            pdp_sum: 0.0,
            pdp_known: 0.0,
        }
    }

    /// The database step in seconds.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// Feeds one measurement taken at `ts` (unix seconds, strictly
    /// increasing across calls).
    ///
    /// Returns `Err` if `ts` does not advance, or lies so far from the
    /// last update that the step arithmetic leaves `i64`. The work is
    /// bounded by the archives' coverage, not by the gap: see
    /// `Archive::push_run`.
    pub fn update(&mut self, ts: i64, value: f64) -> Result<(), String> {
        let Some(prev) = self.last_update else {
            // first update only seeds the state
            self.last_update = Some(ts);
            self.last_raw = value;
            return Ok(());
        };
        if ts <= prev {
            return Err(format!("update timestamp {ts} does not advance past {prev}"));
        }
        let out_of_range = || format!("update timestamp {ts} is out of range after {prev}");
        let step = i64::try_from(self.step).map_err(|_| out_of_range())?;
        let gap = ts.checked_sub(prev).ok_or_else(out_of_range)?;
        // the first PDP boundary after `prev`
        let first = (prev / step)
            .checked_add(1)
            .and_then(|k| k.checked_mul(step))
            .ok_or_else(out_of_range)?;
        let pdp_value = self.interval_value(gap as f64, value);

        if ts < first {
            self.absorb(pdp_value, ts - prev);
        } else {
            // [prev, ts] closes the PDP in progress at `first`, then
            // `whole` full steps of one value, then opens a new PDP
            self.absorb(pdp_value, first - prev);
            let pdp = self.close_pdp();
            for a in &mut self.archives {
                a.push_pdp(first, pdp);
            }
            let whole = (ts - first) / step;
            if whole > 0 {
                self.absorb(pdp_value, step);
                let pdp = self.close_pdp();
                for a in &mut self.archives {
                    a.push_run(first + step, whole as u64, pdp, step);
                }
            }
            let rest = ts - first - whole * step;
            if rest > 0 {
                self.absorb(pdp_value, rest);
            }
        }

        self.last_update = Some(ts);
        self.last_raw = value;
        Ok(())
    }

    /// The rate (Counter/Derive) or value (Gauge) of the `dt` seconds
    /// that ended with a reading of `value`; unknown past the heartbeat.
    fn interval_value(&self, dt: f64, value: f64) -> f64 {
        if dt > self.heartbeat as f64 {
            return f64::NAN;
        }
        match self.kind {
            DsKind::Gauge => value,
            DsKind::Counter => {
                let delta = value - self.last_raw;
                if delta < 0.0 {
                    f64::NAN // counter reset
                } else {
                    delta / dt
                }
            }
            DsKind::Derive => (value - self.last_raw) / dt,
        }
    }

    /// Adds `secs` seconds at `value` to the PDP in progress.
    fn absorb(&mut self, value: f64, secs: i64) {
        if !value.is_nan() {
            self.pdp_sum += value * secs as f64;
            self.pdp_known += secs as f64;
        }
    }

    /// Ends the PDP in progress: its value, unknown unless at least half
    /// of the step was covered by known data.
    fn close_pdp(&mut self) -> f64 {
        let pdp = if self.pdp_known >= self.step as f64 * 0.5 {
            self.pdp_sum / self.pdp_known
        } else {
            f64::NAN
        };
        self.pdp_sum = 0.0;
        self.pdp_known = 0.0;
        pdp
    }

    /// Fetches consolidated points from a *single* archive (by index),
    /// rrdtool-style: all rows whose end timestamp lies in `(begin, end]`
    /// — the paper's one-minute example window returns exactly four 15 s
    /// samples.
    pub fn fetch_archive(&self, archive: usize, begin: i64, end: i64) -> Vec<(i64, f64)> {
        let a = &self.archives[archive];
        let span = a.row_span(self.step);
        let (Some(last), Some(oldest)) = (a.last_row_end, a.oldest_row_end(self.step)) else {
            return Vec::new();
        };
        let lo = (begin + 1).max(oldest);
        let hi = end.min(last);
        if lo > hi {
            return Vec::new();
        }
        // first row end ≥ lo, aligned with the archive's grid
        let offset = (last - lo) / span;
        let mut t = last - offset * span;
        if t < lo {
            t += span;
        }
        let mut out = Vec::new();
        while t <= hi {
            if let Some(v) = a.row_at(t, self.step) {
                out.push((t, v));
            }
            t += span;
        }
        out
    }

    /// The paper's metrology fetch: all points in `[begin, end]`, taking
    /// each sub-range from the finest archive that still retains it.
    pub fn fetch_best(&self, begin: i64, end: i64) -> Vec<(i64, f64)> {
        // archives sorted fine → coarse
        let mut order: Vec<usize> = (0..self.archives.len()).collect();
        order.sort_by_key(|&i| self.archives[i].spec.steps_per_row);

        let mut out: Vec<(i64, f64)> = Vec::new();
        let mut cursor = end;
        for &i in &order {
            if cursor < begin {
                break;
            }
            let a = &self.archives[i];
            let Some(oldest) = a.oldest_row_end(self.step) else { continue };
            // fetch_archive excludes its lower bound, so step one tick
            // below `oldest` to keep the archive's oldest row eligible
            let lo = begin.max(oldest - 1);
            let mut part = self.fetch_archive(i, lo, cursor);
            if part.is_empty() {
                continue;
            }
            part.append(&mut out);
            out = part;
            // older data must come from coarser archives
            cursor = oldest - 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seeded as proptest;

    fn gauge_db() -> Database {
        Database::new(
            10,
            DsKind::Gauge,
            60,
            &[
                ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 6 },
                ArchiveSpec { cf: Cf::Average, steps_per_row: 6, rows: 10 },
            ],
        )
    }

    #[test]
    fn gauge_pdp_consolidation() {
        let mut db = gauge_db();
        db.update(0, 100.0).unwrap();
        for k in 1..=12 {
            db.update(k * 10, 100.0 + k as f64).unwrap();
        }
        let pts = db.fetch_archive(0, 0, 130);
        assert_eq!(pts.len(), 6, "{pts:?}"); // fine ring holds 6 rows
        // rows are averages over each 10 s window, roughly increasing
        assert!(pts.windows(2).all(|w| w[1].1 > w[0].1), "{pts:?}");
    }

    #[test]
    fn counter_becomes_rate() {
        let mut db = Database::new(
            10,
            DsKind::Counter,
            60,
            &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 16 }],
        );
        db.update(0, 0.0).unwrap();
        // +1000 bytes every 10 s → 100 B/s
        for k in 1..=5 {
            db.update(k * 10, (k * 1000) as f64).unwrap();
        }
        let pts = db.fetch_archive(0, 0, 60);
        assert!(!pts.is_empty());
        for (_, v) in pts {
            assert!((v - 100.0).abs() < 1e-9, "{v}");
        }
    }

    #[test]
    fn counter_reset_is_unknown() {
        let mut db = Database::new(
            10,
            DsKind::Counter,
            60,
            &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 16 }],
        );
        db.update(0, 5000.0).unwrap();
        db.update(10, 100.0).unwrap(); // reset
        let pts = db.fetch_archive(0, 0, 20);
        assert!(pts.iter().any(|(_, v)| v.is_nan()), "{pts:?}");
    }

    #[test]
    fn heartbeat_gap_is_unknown() {
        let mut db = gauge_db();
        db.update(0, 1.0).unwrap();
        db.update(10, 1.0).unwrap();
        db.update(200, 1.0).unwrap(); // 190 s silence > 60 s heartbeat
        let pts = db.fetch_archive(0, 10, 200);
        assert!(pts.iter().any(|(_, v)| v.is_nan()), "{pts:?}");
    }

    #[test]
    fn derive_allows_negative_rates() {
        let mut db = Database::new(
            10,
            DsKind::Derive,
            60,
            &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 8 }],
        );
        db.update(0, 1000.0).unwrap();
        db.update(10, 900.0).unwrap();
        let pts = db.fetch_archive(0, 0, 10);
        assert_eq!(pts.len(), 1);
        assert!((pts[0].1 - (-10.0)).abs() < 1e-9, "{pts:?}");
    }

    #[test]
    fn min_max_last_consolidation() {
        for (cf, expect) in [(Cf::Min, 1.0), (Cf::Max, 3.0), (Cf::Last, 2.0)] {
            let mut db = Database::new(
                10,
                DsKind::Gauge,
                60,
                &[ArchiveSpec { cf, steps_per_row: 3, rows: 4 }],
            );
            db.update(0, 0.0).unwrap();
            // PDPs: (0,10]≈1, (10,20]≈3, (20,30]≈2
            db.update(10, 1.0).unwrap();
            db.update(20, 3.0).unwrap();
            db.update(30, 2.0).unwrap();
            let pts = db.fetch_archive(0, 0, 30);
            assert_eq!(pts.len(), 1, "{cf:?}: {pts:?}");
            assert!((pts[0].1 - expect).abs() < 1e-9, "{cf:?}: {pts:?}");
        }
    }

    #[test]
    fn ring_wraps_and_forgets() {
        let mut db = Database::new(
            10,
            DsKind::Gauge,
            60,
            &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 3 }],
        );
        db.update(0, 0.0).unwrap();
        for k in 1..=10 {
            db.update(k * 10, k as f64).unwrap();
        }
        let pts = db.fetch_archive(0, 0, 1000);
        assert_eq!(pts.len(), 3, "ring keeps 3 rows: {pts:?}");
        assert_eq!(pts.last().unwrap().0, 100, "newest row end");
        assert_eq!(pts[0].0, 80, "oldest retained row end");
    }

    #[test]
    fn fetch_best_stitches_archives() {
        let mut db = gauge_db(); // fine: 6×10 s, coarse: 10×60 s
        db.update(0, 0.0).unwrap();
        for k in 1..=60 {
            db.update(k * 10, k as f64).unwrap();
        }
        // fine archive covers (540, 600]; coarse covers up to 600 s back
        let pts = db.fetch_best(0, 600);
        assert!(!pts.is_empty());
        // strictly increasing timestamps, no duplicates
        assert!(pts.windows(2).all(|w| w[0].0 < w[1].0), "{pts:?}");
        // recent points at 10 s spacing, old at 60 s spacing
        let last_gap = pts[pts.len() - 1].0 - pts[pts.len() - 2].0;
        let first_gap = pts[1].0 - pts[0].0;
        assert_eq!(last_gap, 10, "{pts:?}");
        assert_eq!(first_gap, 60, "{pts:?}");
    }

    #[test]
    fn fetch_outside_data_is_empty() {
        let mut db = gauge_db();
        db.update(0, 1.0).unwrap();
        db.update(10, 1.0).unwrap();
        assert!(db.fetch_best(1000, 2000).is_empty());
        assert!(db.fetch_archive(0, 1000, 2000).is_empty());
    }

    #[test]
    fn non_advancing_update_is_rejected() {
        let mut db = gauge_db();
        db.update(100, 1.0).unwrap();
        assert!(db.update(100, 2.0).is_err());
        assert!(db.update(50, 2.0).is_err());
    }

    impl Database {
        /// [`Self::update`] as it was before the work was bounded: one loop
        /// turn per step boundary between the last update and `ts`. Kept as
        /// the reference the bounded path is compared with.
        fn update_by_walk(&mut self, ts: i64, value: f64) -> Result<(), String> {
            let Some(prev) = self.last_update else {
                self.last_update = Some(ts);
                self.last_raw = value;
                return Ok(());
            };
            if ts <= prev {
                return Err(format!("update timestamp {ts} does not advance past {prev}"));
            }
            let pdp_value = self.interval_value((ts - prev) as f64, value);
            let step = self.step as i64;
            let mut cursor = prev;
            while cursor < ts {
                let boundary = (cursor / step + 1) * step;
                let seg_end = boundary.min(ts);
                let seg = (seg_end - cursor) as f64;
                if !pdp_value.is_nan() {
                    self.pdp_sum += pdp_value * seg;
                    self.pdp_known += seg;
                }
                if seg_end == boundary {
                    let pdp = if self.pdp_known >= self.step as f64 * 0.5 {
                        self.pdp_sum / self.pdp_known
                    } else {
                        f64::NAN
                    };
                    for a in &mut self.archives {
                        a.push_pdp(boundary, pdp);
                    }
                    self.pdp_sum = 0.0;
                    self.pdp_known = 0.0;
                }
                cursor = seg_end;
            }
            self.last_update = Some(ts);
            self.last_raw = value;
            Ok(())
        }
    }

    #[test]
    fn far_future_update_is_bounded_or_rejected() {
        let mut db = gauge_db();
        db.update(0, 1.0).unwrap();
        db.update(10, 1.0).unwrap();
        // 9·10¹⁷ step boundaries: answered from the archives' coverage
        db.update(9_000_000_000_000_000_000, 1.0).unwrap();
        assert!(db.fetch_best(0, 100).is_empty(), "the rings hold the far future only");
        // the boundary after `prev` does not exist in i64
        let mut db = gauge_db();
        db.update(i64::MAX - 3, 1.0).unwrap();
        assert!(db.update(i64::MAX - 1, 1.0).is_err());
        // nor does the gap
        let mut db = gauge_db();
        db.update(-10, 1.0).unwrap();
        assert!(db.update(i64::MAX, 1.0).is_err());
    }

    /// One archive's every field, each `f64` as its bits.
    type ArchiveState = (Cf, u32, u32, Vec<u64>, usize, usize, Option<i64>, u64, u32);

    /// Every field of `db`, each `f64` as its bits, so two databases
    /// compare equal exactly when they hold the same state — a NaN row
    /// equals a NaN row with the same bits, `0.0` differs from `-0.0`.
    /// The destructuring is exhaustive: a new field does not compile
    /// until it is compared here too.
    fn state(db: &Database) -> (u64, DsKind, u64, Option<i64>, [u64; 3], Vec<ArchiveState>) {
        let Database {
            step,
            kind,
            heartbeat,
            archives,
            last_update,
            last_raw,
            pdp_sum,
            pdp_known,
        } = db;
        let archives = archives
            .iter()
            .map(|a| {
                let Archive { spec, ring, head, filled, last_row_end, acc, acc_count } = a;
                let ArchiveSpec { cf, steps_per_row, rows } = *spec;
                let ring = ring.iter().map(|v| v.to_bits()).collect();
                let acc = acc.to_bits();
                (cf, steps_per_row, rows, ring, *head, *filled, *last_row_end, acc, *acc_count)
            })
            .collect();
        let sums = [last_raw.to_bits(), pdp_sum.to_bits(), pdp_known.to_bits()];
        (*step, *kind, *heartbeat, *last_update, sums, archives)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The bounded update leaves exactly the state the step-by-step
        /// walk leaves, for gaps far beyond every archive's coverage,
        /// inside and past the heartbeat.
        #[test]
        fn bounded_update_matches_the_walk(
            step in 1u64..30,
            kind in 0usize..3,
            long_heartbeat in 0u8..2,
            archives in proptest::collection::vec((0usize..4, 1u32..7, 1u32..13), 1..4),
            start in -100i64..1000,
            updates in proptest::collection::vec(
                (0u8..4, 1i64..40, 1i64..50_000, -1e6f64..1e6),
                1..12,
            ),
        ) {
            let specs: Vec<ArchiveSpec> = archives
                .iter()
                .map(|&(cf, steps_per_row, rows)| ArchiveSpec {
                    cf: [Cf::Average, Cf::Min, Cf::Max, Cf::Last][cf],
                    steps_per_row,
                    rows,
                })
                .collect();
            let kind = [DsKind::Gauge, DsKind::Counter, DsKind::Derive][kind];
            let heartbeat = if long_heartbeat == 1 { u64::MAX } else { step * 20 };
            let mut bounded = Database::new(step, kind, heartbeat, &specs);
            let mut walked = bounded.clone();
            let mut ts = start;
            bounded.update(ts, 0.0).unwrap();
            walked.update_by_walk(ts, 0.0).unwrap();
            for (far, secs, steps, value) in updates {
                ts += if far == 0 { steps * step as i64 + secs } else { secs };
                bounded.update(ts, value).unwrap();
                walked.update_by_walk(ts, value).unwrap();
                proptest::prop_assert_eq!(
                    state(&bounded),
                    state(&walked),
                    "after the update at {}", ts
                );
            }
        }
    }

    #[test]
    fn paper_example_shape() {
        // the paper's pdu.rrd example: 15 s sampling of a power metric,
        // four points in a one-minute window
        let mut db = Database::new(
            15,
            DsKind::Gauge,
            120,
            &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 240 }],
        );
        let t0 = 1_336_111_200i64;
        db.update(t0 - 15, 168.9).unwrap();
        for k in 0..8 {
            db.update(t0 + k * 15, 168.8 + 0.1 * (k % 3) as f64).unwrap();
        }
        let pts = db.fetch_best(t0, t0 + 60);
        assert_eq!(pts.len(), 4, "one minute at 15 s steps: {pts:?}");
        for (_, v) in pts {
            assert!((v - 168.9).abs() < 0.5);
        }
    }
}
