//! Network model configuration.
//!
//! The constants mirror SimGrid's calibrated flow-level TCP models:
//! CM02 (Casanova & Marchal 2002) and its recalibration LV08
//! (Velho & Legrand 2009). The completion time of a lone flow is
//!
//! ```text
//! T = latency_factor · L  +  size / min(bandwidth_factor · B, tcp_gamma / (2 · L))
//! ```
//!
//! where `L` is the end-to-end one-way latency of the route and `B` the
//! bottleneck bandwidth. Under contention, competing flows share each link
//! with a weighted max-min allocation whose weights grow with round-trip
//! time (see [`crate::model`]), reproducing TCP's RTT unfairness.

/// Execution tuning of a simulation, orthogonal to the network model:
/// whether warm-start filling is enabled. It never changes results —
/// solver output is bit-identical with warm start on or off.
#[derive(Clone, Debug)]
pub struct SimTuning {
    /// Accepted and ignored: the solver no longer fans out. Kept only
    /// because the standalone `benchmark/` package builds `SimTuning`
    /// with struct literals (`bulk.rs`, `verify.rs`); the `[benchmark]`
    /// PR that drops the field there deletes it here, and with it
    /// `simflow`'s `exec` dependency.
    pub pool: Option<std::sync::Arc<exec::WorkerPool>>,
    /// Cache per-component freeze orders and resume filling from the
    /// first seed-invalidated level (on by default).
    pub warm_start: bool,
}

impl Default for SimTuning {
    fn default() -> Self {
        SimTuning { pool: None, warm_start: true }
    }
}

/// Parameters of the flow-level TCP model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkConfig {
    /// Multiplier applied to the physical latency of a route to obtain the
    /// modeled startup delay of a flow. LV08 calibration: `13.01`.
    pub latency_factor: f64,
    /// Fraction of the nominal link bandwidth that TCP payload can actually
    /// use (protocol overhead, ACK traffic). LV08 calibration: `0.97`.
    pub bandwidth_factor: f64,
    /// Maximum TCP window size in bytes. A flow's rate is additionally
    /// bounded by `tcp_gamma / (2 · latency)`. The paper configures
    /// `network/TCP_gamma = 4194304` to match the kernel's 4 MiB windows.
    pub tcp_gamma: f64,
    /// Per-link additive term of the max-min weight, in bytes: the weight of
    /// a flow is `RTT + Σ weight_s / C_l` over its links, which penalizes
    /// flows crossing many (or slow) links. LV08 calibration: `20537`.
    pub weight_s: f64,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            latency_factor: 13.01,
            bandwidth_factor: 0.97,
            tcp_gamma: 4_194_304.0,
            weight_s: 20_537.0,
        }
    }
}

impl NetworkConfig {
    /// The CM02 historical calibration (kept for comparison benches).
    pub fn cm02() -> Self {
        NetworkConfig {
            latency_factor: 10.4,
            bandwidth_factor: 0.92,
            tcp_gamma: 4_194_304.0,
            weight_s: 8_775.0,
        }
    }

    /// An idealized model with no correction factors and no window cap.
    /// Useful in unit tests where hand-computed allocations are wanted.
    pub fn ideal() -> Self {
        NetworkConfig {
            latency_factor: 1.0,
            bandwidth_factor: 1.0,
            tcp_gamma: f64::INFINITY,
            weight_s: 0.0,
        }
    }

    /// Sets the TCP window bound, returning `self` for chaining.
    pub fn with_tcp_gamma(mut self, gamma: f64) -> Self {
        self.tcp_gamma = gamma;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_lv08() {
        let c = NetworkConfig::default();
        assert_eq!(c.latency_factor, 13.01);
        assert_eq!(c.bandwidth_factor, 0.97);
        assert_eq!(c.tcp_gamma, 4_194_304.0);
        assert_eq!(c.weight_s, 20_537.0);
    }

    #[test]
    fn ideal_has_no_corrections() {
        let c = NetworkConfig::ideal();
        assert_eq!(c.latency_factor, 1.0);
        assert_eq!(c.bandwidth_factor, 1.0);
        assert!(c.tcp_gamma.is_infinite());
    }

    #[test]
    fn gamma_is_chainable() {
        let c = NetworkConfig::default().with_tcp_gamma(65536.0);
        assert_eq!(c.tcp_gamma, 65536.0);
    }
}
