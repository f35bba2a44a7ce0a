//! # rrd — a round-robin time-series database
//!
//! Pilgrim's first service is "a remote API for accessing RRD files ...
//! hiding the complexities of these files (in particular the multiple
//! precisions and time-spans of round-robin archives per RRD file)". This
//! crate is the reproduction's RRD substrate: the storage semantics of the
//! rrdtool ecosystem (Ganglia/Munin/Cacti write these files) plus the
//! best-resolution stitched fetch the paper's service adds on top.
//!
//! * [`db`] — data sources (Gauge/Counter/Derive), heartbeat
//!   normalization, consolidated round-robin archives, single-archive and
//!   stitched fetch;
//! * [`registry`] — a path-addressed, in-memory RRD tree;
//! * [`time`] — the `"YYYY-MM-DD HH:MM:SS"` timestamps of the query API.
//!
//! ```
//! use rrd::{ArchiveSpec, Cf, Database, DsKind};
//!
//! let mut db = Database::new(15, DsKind::Gauge, 120, &[
//!     ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 240 },
//!     ArchiveSpec { cf: Cf::Average, steps_per_row: 8, rows: 720 },
//! ]);
//! db.update(0, 168.9).unwrap();
//! db.update(15, 168.8).unwrap();
//! db.update(30, 168.9).unwrap();
//! let points = db.fetch_best(0, 30);
//! assert_eq!(points.len(), 2);
//! ```

#![forbid(unsafe_code)]

pub mod db;
pub mod registry;
pub mod time;

pub use db::{ArchiveSpec, Cf, Database, DsKind};
pub use registry::Registry;
