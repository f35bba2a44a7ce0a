#![forbid(unsafe_code)]
pub use simflow; pub use packetsim; pub use g5k; pub use rrd; pub use jsonlite; pub use forecast; pub use pilgrim_core; pub use experiments;
