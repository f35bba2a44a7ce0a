//! A path-addressed collection of RRDs, mirroring the tree the paper's
//! metrology service exposes over HTTP:
//! `/pilgrim/rrd/ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd`.

use std::collections::BTreeMap;

use crate::db::Database;

/// A registry of named round-robin databases.
///
/// Keys are `/`-separated logical paths (tool/site/host/metric). The
/// registry itself is single-threaded; services wrap it in a lock.
#[derive(Default, Debug)]
pub struct Registry {
    dbs: BTreeMap<String, Database>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Normalizes a path: strips leading/trailing slashes.
    fn norm(path: &str) -> String {
        path.trim_matches('/').to_string()
    }

    /// Inserts (or replaces) a database under `path`.
    pub fn insert(&mut self, path: &str, db: Database) {
        self.dbs.insert(Self::norm(path), db);
    }

    /// Read access to the database at `path`.
    pub fn get(&self, path: &str) -> Option<&Database> {
        self.dbs.get(&Self::norm(path))
    }

    /// Write access to the database at `path`.
    pub fn get_mut(&mut self, path: &str) -> Option<&mut Database> {
        self.dbs.get_mut(&Self::norm(path))
    }

    /// Number of registered databases.
    pub fn len(&self) -> usize {
        self.dbs.len()
    }

    /// True if no database is registered.
    pub fn is_empty(&self) -> bool {
        self.dbs.is_empty()
    }

    /// All paths under a prefix (`""` lists everything).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let p = Self::norm(prefix);
        self.dbs
            .keys()
            .filter(|k| p.is_empty() || k.starts_with(&p))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::{ArchiveSpec, Cf, DsKind};

    fn db() -> Database {
        let mut db = Database::new(
            15,
            DsKind::Gauge,
            120,
            &[ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 32 }],
        );
        db.update(0, 168.9).unwrap();
        for k in 1..=10 {
            db.update(k * 15, 168.8).unwrap();
        }
        db
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut reg = Registry::new();
        reg.insert("ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd", db());
        assert!(reg
            .get("/ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd")
            .is_some());
        assert!(reg.get("nope").is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn list_by_prefix() {
        let mut reg = Registry::new();
        reg.insert("ganglia/Lyon/a/pdu.rrd", db());
        reg.insert("ganglia/Lyon/b/pdu.rrd", db());
        reg.insert("munin/Nancy/c/load.rrd", db());
        assert_eq!(reg.list("ganglia").len(), 2);
        assert_eq!(reg.list("munin").len(), 1);
        assert_eq!(reg.list("").len(), 3);
    }
}
