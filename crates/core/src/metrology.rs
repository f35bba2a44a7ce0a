//! The Pilgrim metrology service (§IV-C.1).
//!
//! "Most existing metrology tools do not provide any network-transparent
//! API to programmatically query their data. Thus the first service of the
//! Pilgrim framework is a remote API for accessing RRD files." This module
//! is that service's core: a locked RRD registry with the bounded fetch
//! that stitches the most accurate data from each file's archives, plus
//! the JSON rendering of the paper's example answer
//! (`[[1336111215, 168.929...], ...]`).

use std::sync::{PoisonError, RwLock};

use jsonlite::Value;
use rrd::{Database, Registry};

/// Metrology-service errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetrologyError {
    /// No RRD registered under the requested path.
    UnknownRrd(String),
    /// `begin` must not exceed `end`.
    BadRange { begin: i64, end: i64 },
    /// An update was rejected by the database.
    Update(String),
}

impl std::fmt::Display for MetrologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetrologyError::UnknownRrd(p) => write!(f, "unknown RRD '{p}'"),
            MetrologyError::BadRange { begin, end } => {
                write!(f, "bad time range: begin {begin} > end {end}")
            }
            MetrologyError::Update(e) => write!(f, "update rejected: {e}"),
        }
    }
}

impl std::error::Error for MetrologyError {}

/// The metrology service state. Thread-safe: the HTTP workers share it.
#[derive(Default)]
pub struct Metrology {
    registry: RwLock<Registry>,
}

impl Metrology {
    /// An empty service.
    pub fn new() -> Self {
        Metrology::default()
    }

    /// Registers (or replaces) a database under `path`.
    pub fn insert(&self, path: &str, db: Database) {
        self.registry.write().unwrap_or_else(PoisonError::into_inner).insert(path, db);
    }

    /// Feeds one measurement into the database at `path`.
    pub fn update(&self, path: &str, ts: i64, value: f64) -> Result<(), MetrologyError> {
        let mut reg = self.registry.write().unwrap_or_else(PoisonError::into_inner);
        let db = reg
            .get_mut(path)
            .ok_or_else(|| MetrologyError::UnknownRrd(path.to_string()))?;
        db.update(ts, value).map_err(MetrologyError::Update)
    }

    /// The paper's query: all metric values in `(begin, end]`, gathered
    /// from the most accurate archives available.
    pub fn fetch(
        &self,
        path: &str,
        begin: i64,
        end: i64,
    ) -> Result<Vec<(i64, f64)>, MetrologyError> {
        if begin > end {
            return Err(MetrologyError::BadRange { begin, end });
        }
        let reg = self.registry.read().unwrap_or_else(PoisonError::into_inner);
        let db = reg
            .get(path)
            .ok_or_else(|| MetrologyError::UnknownRrd(path.to_string()))?;
        Ok(db.fetch_best(begin, end))
    }

    /// Registered RRD paths under a prefix.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.registry.read().unwrap_or_else(PoisonError::into_inner).list(prefix)
    }

    /// Renders fetch results in the paper's wire format:
    /// `[[ts, value], ...]` with `null` for unknown samples.
    pub fn to_json(points: &[(i64, f64)]) -> Value {
        Value::Array(
            points
                .iter()
                .map(|(t, v)| Value::Array(vec![Value::from(*t), Value::Number(*v)]))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrd::{ArchiveSpec, Cf, DsKind};

    fn pdu_db() -> Database {
        let mut db = Database::new(
            15,
            DsKind::Gauge,
            120,
            &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 240 }],
        );
        let t0 = 1_336_111_200i64;
        db.update(t0 - 15, 168.92).unwrap();
        for k in 0..8 {
            db.update(t0 + k * 15, 168.88).unwrap();
        }
        db
    }

    const PATH: &str = "ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd";

    #[test]
    fn fetch_returns_window() {
        let m = Metrology::new();
        m.insert(PATH, pdu_db());
        let t0 = 1_336_111_200i64;
        let pts = m.fetch(PATH, t0, t0 + 60).unwrap();
        assert_eq!(pts.len(), 4, "{pts:?}"); // the paper's 4 samples
    }

    #[test]
    fn unknown_rrd_is_an_error() {
        let m = Metrology::new();
        assert!(matches!(
            m.fetch("nope.rrd", 0, 1),
            Err(MetrologyError::UnknownRrd(_))
        ));
    }

    #[test]
    fn inverted_range_is_an_error() {
        let m = Metrology::new();
        m.insert(PATH, pdu_db());
        assert!(matches!(
            m.fetch(PATH, 100, 0),
            Err(MetrologyError::BadRange { .. })
        ));
    }

    #[test]
    fn json_format_matches_paper() {
        let json = Metrology::to_json(&[(1_336_111_215, 168.88), (1_336_111_230, f64::NAN)]);
        assert_eq!(json.to_string(), "[[1336111215,168.88],[1336111230,null]]");
    }

    #[test]
    fn update_through_service() {
        let m = Metrology::new();
        m.insert(PATH, pdu_db());
        let t = 1_336_111_200 + 300;
        m.update(PATH, t, 170.0).unwrap();
        assert!(matches!(
            m.update(PATH, t, 171.0),
            Err(MetrologyError::Update(_))
        ));
        assert!(matches!(
            m.update("nope", t, 1.0),
            Err(MetrologyError::UnknownRrd(_))
        ));
    }

    #[test]
    fn list_by_prefix() {
        let m = Metrology::new();
        m.insert(PATH, pdu_db());
        m.insert("munin/Nancy/x/load.rrd", pdu_db());
        assert_eq!(m.list("ganglia").len(), 1);
        assert_eq!(m.list("").len(), 2);
    }
}
