//! The Pilgrim Network Forecast Service (§IV-C.2) — the paper's headline
//! contribution.
//!
//! "Given a list of 3-uples (source, destination, size), it will answer
//! with the list of 4-uples (source, destination, size, predicted TCP
//! transfer completion time)." Each request runs a flow-level simulation
//! over the registered platform model, with "one send and one receive
//! process for each requested transfer" — here, one kernel transfer per
//! request tuple, all starting at t = 0.
//!
//! Since the `forecast` crate landed, all serving-path simulation work
//! goes through the shared [`ForecastEngine`]: warm per-platform
//! sessions, and a result cache keyed by the query, which a link event
//! clears along the link's routes (see [`Pnfs::link_event`]); the
//! simulation itself still runs on the thread that asked. The original
//! uncached, from-scratch implementations are kept as
//! [`Pnfs::predict_reference`] and [`Pnfs::select_fastest_reference`]:
//! they are the oracle the engine's warm, cached path is tested against.
//!
//! The hypothesis-selection service sketched in §VI ("given n different
//! transfer hypotheses, select the fastest one ... use some heuristic to
//! prune the n hypotheses") is implemented by [`Pnfs::select_fastest`],
//! with a lower-bound pruning heuristic. A predict is the selection of
//! its one hypothesis, so both take one path: the engine's probe, then
//! [`Pnfs::compute`]. That is the one place a sequential service forks:
//! it builds the query's [`TransferRequest`]s from the probe's key (host
//! ids and size bits, names from the platform) and runs
//! [`Pnfs::select_fastest_reference`] on them — for a predict on its one
//! hypothesis, whose bound prunes nothing — so the oracle is still one
//! from-scratch simulation per simulated hypothesis. Nothing else on
//! the serving path copies a host name.

use std::sync::Arc;

use forecast::{check_hypotheses, lend, ForecastEngine, Pending, Probed, Selection};
use jsonlite::Value;
use simflow::platform::SharingPolicy;
use simflow::{NetworkConfig, Platform, PlatformEventKind, SimError, SimTime};

/// One requested transfer: the 3-uple of the paper's API (re-exported
/// from the `forecast` crate, which owns the canonical definition).
pub use forecast::TransferSpec as TransferRequest;

/// PNFS errors are the forecast engine's, under the service's name.
pub use forecast::ForecastError as PnfsError;

/// One prediction: the 4-uple of the paper's API.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    /// Source host name.
    pub src: String,
    /// Destination host name.
    pub dst: String,
    /// Transfer size in bytes.
    pub size: f64,
    /// Predicted completion time in seconds.
    pub duration: f64,
}

impl Prediction {
    /// Renders the paper's JSON object shape. A non-finite duration (a
    /// transfer crossing a failed link never completes) prints as
    /// `null`, because JSON cannot carry infinity.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("src", Value::from(self.src.as_str())),
            ("dst", Value::from(self.dst.as_str())),
            ("size", Value::from(self.size)),
            ("duration", Value::from(self.duration)),
        ])
    }
}

/// Zips requests with their predicted durations into the paper's 4-uples.
fn predictions(requests: &[TransferRequest], durations: &[f64]) -> Vec<Prediction> {
    requests
        .iter()
        .zip(durations)
        .map(|(r, &duration)| Prediction {
            src: r.src.clone(),
            dst: r.dst.clone(),
            size: r.size,
            duration,
        })
        .collect()
}

/// Outcome of hypothesis selection.
#[derive(Clone, Debug)]
pub struct FastestSelection {
    /// Index of the winning hypothesis.
    pub best: usize,
    /// Makespan of the winning hypothesis, seconds.
    pub best_makespan: f64,
    /// Per-transfer predictions of the winning hypothesis.
    pub predictions: Vec<Prediction>,
    /// Indices of hypotheses skipped by the pruning heuristic.
    pub pruned: Vec<usize>,
}

/// The forecast service: named platform models served through the
/// concurrent [`ForecastEngine`].
pub struct Pnfs {
    engine: ForecastEngine,
    /// When set, the compute stage runs the original single-threaded,
    /// uncached implementations instead of the engine's (benchmark
    /// baseline).
    sequential: bool,
}

impl Pnfs {
    /// A service with the given model configuration, served through
    /// the engine (warm sessions, 4096 cached results).
    pub fn new(config: NetworkConfig) -> Self {
        Pnfs { engine: ForecastEngine::new(config), sequential: false }
    }

    /// A service pinned to the sequential reference path: no cache, one
    /// from-scratch simulation at a time on the calling thread. This is
    /// the paper's original serving behavior, kept as the comparison
    /// baseline. Its engine holds the platforms and probes each query,
    /// which validates it the way the served path does, but its cache
    /// is never filled, so every probe misses.
    pub fn sequential_reference(config: NetworkConfig) -> Self {
        Pnfs { engine: ForecastEngine::new(config), sequential: true }
    }

    /// The engine behind the service (sessions, cache statistics).
    pub fn engine(&self) -> &ForecastEngine {
        &self.engine
    }

    /// Registers a platform under `name` (e.g. `"g5k_test"`), warming a
    /// forecast session for it.
    pub fn register_platform(&mut self, name: &str, platform: Platform) {
        self.engine.register_platform(name, platform);
    }

    /// Names of the registered platforms, sorted.
    pub fn platform_names(&self) -> Vec<String> {
        self.engine.platform_names()
    }

    /// The model configuration in use.
    pub fn config(&self) -> NetworkConfig {
        self.engine.config()
    }

    /// Does nothing and returns 0: no forecast reads metrology, so new
    /// measurement data changes no answer and evicts nothing. Inert; it
    /// stays only because the standalone `benchmark/` package's
    /// `ladder.rs` calls it after each `rrd_update`.
    pub fn bump_epoch(&self) -> u64 {
        0
    }

    /// Applies a serving-time platform event to `link` of `platform`
    /// (capacity degradation, failure, recovery) and evicts exactly the
    /// cached forecasts whose routes the event can touch. Returns the
    /// number of evicted entries. Queries whose routes miss the link
    /// keep their cache entries (keyed by the session id and the query's
    /// host ids + size bits — see the `forecast` crate docs); the evicted
    /// ones re-simulate on their next ask.
    pub fn link_event(
        &self,
        platform: &str,
        link: &str,
        kind: PlatformEventKind,
    ) -> Result<u64, PnfsError> {
        self.engine.link_event(platform, link, kind)
    }

    /// The compute stage of the forecast a probe
    /// ([`ForecastEngine::probe`]) on `platform` left `pending`. A
    /// sequential service runs [`Pnfs::select_fastest_reference`] instead
    /// of the engine, on [`TransferRequest`]s it builds from the key —
    /// each name from its host id, each size from its bits. That is the
    /// one place on the serving path that copies host names.
    pub fn compute(&self, platform: &str, pending: &Pending) -> Result<Arc<Selection>, PnfsError> {
        if !self.sequential {
            return self.engine.compute(pending);
        }
        let request = |(src, dst, size): (&str, &str, f64)| TransferRequest {
            src: src.to_string(),
            dst: dst.to_string(),
            size,
        };
        let hypotheses: Vec<Vec<TransferRequest>> =
            pending.hypotheses().map(|h| h.map(request).collect()).collect();
        let FastestSelection { best, best_makespan, predictions, pruned } =
            self.select_fastest_reference(platform, &hypotheses)?;
        let durations = predictions.iter().map(|p| p.duration).collect();
        Ok(Arc::new(Selection::new(best, best_makespan, durations, pruned)))
    }

    /// Probe and compute stage back to back.
    fn forecast<H: AsRef<[TransferRequest]>>(
        &self,
        platform: &str,
        hypotheses: &[H],
    ) -> Result<Arc<Selection>, PnfsError> {
        match self.engine.probe(platform, &lend(hypotheses))? {
            Probed::Ready(selection) => Ok(selection),
            Probed::Pending(pending) => self.compute(platform, &pending),
        }
    }

    /// The paper's main service: predicted completion times of a set of
    /// *concurrent* transfers, all starting together — the forecast of
    /// one hypothesis. Served through the engine (warm session, cached)
    /// unless this service is pinned sequential.
    pub fn predict(
        &self,
        platform: &str,
        requests: &[TransferRequest],
    ) -> Result<Vec<Prediction>, PnfsError> {
        Ok(predictions(requests, &self.forecast(platform, &[requests])?.durations))
    }

    /// §VI extension: simulate `hypotheses` (cheapest lower bound first),
    /// prune any whose lower bound already exceeds the best simulated
    /// makespan, and return the fastest — one simulation at a time, on
    /// the calling thread. Winner, makespan and pruned set are identical
    /// to [`Pnfs::select_fastest_reference`].
    pub fn select_fastest(
        &self,
        platform: &str,
        hypotheses: &[Vec<TransferRequest>],
    ) -> Result<FastestSelection, PnfsError> {
        let sel = self.forecast(platform, hypotheses)?;
        Ok(FastestSelection {
            best: sel.best,
            best_makespan: sel.best_makespan,
            predictions: predictions(&hypotheses[sel.best], &sel.durations),
            pruned: sel.pruned.clone(),
        })
    }

    // ------------------------------------------------------------------
    // Sequential reference implementations — the pre-engine serving
    // path, preserved as the determinism oracle and benchmark baseline.
    // ------------------------------------------------------------------

    /// The original `predict`: one fresh simulation on the calling
    /// thread, every route resolved from scratch, no cache. It starts
    /// from [`forecast::Session::simulation`] — the platform as the
    /// link events so far left it — so it stays the oracle after a
    /// `link_event`; a transfer over a dead link reports an infinite
    /// duration, as in the served answer.
    pub fn predict_reference(
        &self,
        platform: &str,
        requests: &[TransferRequest],
    ) -> Result<Vec<Prediction>, PnfsError> {
        let session = self.engine.session(platform)?;
        let p = session.platform();
        let mut sim = session.simulation();
        let mut ids = Vec::with_capacity(requests.len());
        for r in requests {
            if !r.size.is_finite() || r.size < 0.0 {
                return Err(PnfsError::BadSize(r.size));
            }
            let src = p
                .host_by_name(&r.src)
                .ok_or_else(|| PnfsError::UnknownHost(r.src.clone()))?;
            let dst = p
                .host_by_name(&r.dst)
                .ok_or_else(|| PnfsError::UnknownHost(r.dst.clone()))?;
            ids.push(sim.add_transfer_at(src, dst, r.size, SimTime::ZERO)?);
        }
        let report = sim.run()?;
        Ok(requests
            .iter()
            .zip(ids)
            .map(|(r, id)| {
                let c = report.completion(id);
                Prediction {
                    src: r.src.clone(),
                    dst: r.dst.clone(),
                    size: r.size,
                    duration: if c.failed() { f64::INFINITY } else { c.duration().as_secs() },
                }
            })
            .collect())
    }

    /// A cheap lower bound on a hypothesis' makespan: each transfer alone
    /// needs at least `latency·factor + size / bottleneck`. Link events
    /// may have raised capacities, so the nominal bottleneck is scaled
    /// by the largest factor currently on the route's shared links (at
    /// least 1) — the route cannot be faster than that.
    fn makespan_lower_bound(
        &self,
        session: &forecast::Session,
        requests: &[TransferRequest],
    ) -> Result<f64, PnfsError> {
        let config = self.config();
        let platform = session.platform();
        let mut bound = 0.0f64;
        for r in requests {
            let src = platform
                .host_by_name(&r.src)
                .ok_or_else(|| PnfsError::UnknownHost(r.src.clone()))?;
            let dst = platform
                .host_by_name(&r.dst)
                .ok_or_else(|| PnfsError::UnknownHost(r.dst.clone()))?;
            let route = platform.route_hosts(src, dst).map_err(SimError::Route)?;
            let mut bw = f64::INFINITY;
            let mut shared = Vec::with_capacity(route.links.len());
            for l in &route.links {
                let link = platform.link(*l);
                bw = bw.min(link.bandwidth * config.bandwidth_factor);
                if link.policy == SharingPolicy::Shared {
                    shared.push(l.index() as u32);
                }
            }
            bw *= session.capacity_gain(&shared);
            if route.latency > 0.0 {
                bw = bw.min(config.tcp_gamma / (2.0 * route.latency));
            }
            let t = config.latency_factor * route.latency
                + if bw.is_finite() { r.size / bw } else { 0.0 };
            bound = bound.max(t);
        }
        Ok(bound)
    }

    /// The original `select_fastest`: strictly sequential simulation in
    /// lower-bound order with incremental pruning.
    pub fn select_fastest_reference<H: AsRef<[TransferRequest]>>(
        &self,
        platform: &str,
        hypotheses: &[H],
    ) -> Result<FastestSelection, PnfsError> {
        check_hypotheses(hypotheses)?;
        let session = self.engine.session(platform)?;

        let mut order: Vec<(usize, f64)> = hypotheses
            .iter()
            .enumerate()
            .map(|(i, h)| Ok((i, self.makespan_lower_bound(&session, h.as_ref())?)))
            .collect::<Result<_, PnfsError>>()?;
        order.sort_by(|a, b| a.1.total_cmp(&b.1));

        let mut best: Option<(usize, f64, Vec<Prediction>)> = None;
        let mut pruned = Vec::new();
        for (i, lower) in order {
            if let Some((_, best_mk, _)) = &best {
                if lower >= *best_mk {
                    pruned.push(i);
                    continue;
                }
            }
            let preds = self.predict_reference(platform, hypotheses[i].as_ref())?;
            let mk = preds.iter().map(|p| p.duration).fold(0.0, f64::max);
            let better = best.as_ref().is_none_or(|(_, b, _)| mk < *b);
            if better {
                best = Some((i, mk, preds));
            }
        }
        let (best, best_makespan, predictions) = best.expect("≥1 hypothesis simulated");
        pruned.sort_unstable();
        Ok(FastestSelection { best, best_makespan, predictions, pruned })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g5k::{synth, to_simflow, Flavor};

    fn service() -> Pnfs {
        let mut pnfs = Pnfs::new(NetworkConfig::default());
        pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
        pnfs
    }

    #[test]
    fn paper_example_request_shape() {
        // §IV-C.2: two concurrent 500 MB transfers from capricorne-36,
        // one to nancy (inter-site), one to capricorne-1 (intra-cluster).
        let pnfs = service();
        let reqs = vec![
            TransferRequest {
                src: "capricorne-36.lyon.grid5000.fr".into(),
                dst: "griffon-50.nancy.grid5000.fr".into(),
                size: 5e8,
            },
            TransferRequest {
                src: "capricorne-36.lyon.grid5000.fr".into(),
                dst: "capricorne-1.lyon.grid5000.fr".into(),
                size: 5e8,
            },
        ];
        let preds = pnfs.predict("g5k_test", &reqs).unwrap();
        assert_eq!(preds.len(), 2);
        let inter = preds[0].duration;
        let intra = preds[1].duration;
        // the paper reports 16.0 s and 4.77 s: same ordering, intra close
        // to 500 MB at a ~100 MB/s RTT-favoured share of the shared NIC
        assert!(intra > 4.0 && intra < 6.0, "intra-site: {intra}");
        assert!(inter > 1.5 * intra, "inter-site must be slower: {inter} vs {intra}");
        // JSON shape of the answer
        let json = preds[0].to_json().to_string();
        assert!(json.starts_with(r#"{"src":"capricorne-36"#), "{json}");
        assert!(json.contains(r#""size":500000000"#), "{json}");
    }

    #[test]
    fn unknown_platform_and_host_errors() {
        let pnfs = service();
        let req = vec![TransferRequest { src: "x".into(), dst: "y".into(), size: 1.0 }];
        assert!(matches!(
            pnfs.predict("nope", &req),
            Err(PnfsError::UnknownPlatform(_))
        ));
        assert!(matches!(
            pnfs.predict("g5k_test", &req),
            Err(PnfsError::UnknownHost(_))
        ));
    }

    #[test]
    fn bad_size_is_rejected() {
        let pnfs = service();
        let req = vec![TransferRequest {
            src: "sagittaire-1.lyon.grid5000.fr".into(),
            dst: "sagittaire-2.lyon.grid5000.fr".into(),
            size: -1.0,
        }];
        assert!(matches!(pnfs.predict("g5k_test", &req), Err(PnfsError::BadSize(_))));
    }

    #[test]
    fn thirty_concurrent_transfers_are_fast_to_predict() {
        // the paper: "a typical request ... for a prediction involving 30
        // concurrent transfers on Grid'5000 takes less than 0.1 s"
        let pnfs = service();
        let reqs: Vec<TransferRequest> = (0..30)
            .map(|i| TransferRequest {
                src: format!("graphene-{}.nancy.grid5000.fr", i + 1),
                dst: format!("graphene-{}.nancy.grid5000.fr", i + 60),
                size: 1e9,
            })
            .collect();
        let t0 = std::time::Instant::now();
        let preds = pnfs.predict("g5k_test", &reqs).unwrap();
        let elapsed = t0.elapsed().as_secs_f64();
        assert_eq!(preds.len(), 30);
        assert!(elapsed < 0.1, "prediction took {elapsed}s (paper: < 0.1 s)");
    }

    #[test]
    fn select_fastest_picks_the_better_hypothesis() {
        let pnfs = service();
        // hypothesis 0: everything through one shared source NIC;
        // hypothesis 1: spread across sources — clearly faster
        let shared: Vec<TransferRequest> = (0..4)
            .map(|i| TransferRequest {
                src: "sagittaire-1.lyon.grid5000.fr".into(),
                dst: format!("sagittaire-{}.lyon.grid5000.fr", i + 2),
                size: 5e8,
            })
            .collect();
        let spread: Vec<TransferRequest> = (0..4)
            .map(|i| TransferRequest {
                src: format!("sagittaire-{}.lyon.grid5000.fr", 2 * i + 1),
                dst: format!("sagittaire-{}.lyon.grid5000.fr", 2 * i + 2),
                size: 5e8,
            })
            .collect();
        let sel = pnfs
            .select_fastest("g5k_test", &[shared, spread])
            .unwrap();
        assert_eq!(sel.best, 1);
        assert!(sel.best_makespan < 6.0, "{}", sel.best_makespan);
    }

    #[test]
    fn select_fastest_prunes_hopeless_hypotheses() {
        let pnfs = service();
        let quick = vec![TransferRequest {
            src: "sagittaire-1.lyon.grid5000.fr".into(),
            dst: "sagittaire-2.lyon.grid5000.fr".into(),
            size: 1e6,
        }];
        // a 10 GB inter-site transfer cannot beat the 1 MB one: its lower
        // bound alone exceeds the quick hypothesis' makespan
        let hopeless = vec![TransferRequest {
            src: "sagittaire-1.lyon.grid5000.fr".into(),
            dst: "graphene-1.nancy.grid5000.fr".into(),
            size: 1e10,
        }];
        let sel = pnfs.select_fastest("g5k_test", &[hopeless, quick]).unwrap();
        assert_eq!(sel.best, 1);
        assert_eq!(sel.pruned, vec![0], "hypothesis 0 must be pruned, not simulated");
    }

    #[test]
    fn empty_hypotheses_error() {
        let pnfs = service();
        assert!(matches!(
            pnfs.select_fastest("g5k_test", &[]),
            Err(PnfsError::NoHypotheses)
        ));
    }

    #[test]
    fn link_event_degrades_and_restores_forecasts() {
        let pnfs = service();
        let req = vec![TransferRequest {
            src: "sagittaire-1.lyon.grid5000.fr".into(),
            dst: "sagittaire-2.lyon.grid5000.fr".into(),
            size: 5e8,
        }];
        let quiet = pnfs.predict("g5k_test", &req).unwrap()[0].duration;

        pnfs.link_event(
            "g5k_test",
            "sagittaire-1.lyon.grid5000.fr-nic",
            PlatformEventKind::Capacity(0.5),
        )
        .unwrap();
        let degraded = pnfs.predict("g5k_test", &req).unwrap()[0].duration;
        assert!(degraded > quiet, "half capacity must slow the transfer: {quiet} -> {degraded}");

        pnfs.link_event(
            "g5k_test",
            "sagittaire-1.lyon.grid5000.fr-nic",
            PlatformEventKind::Down,
        )
        .unwrap();
        let dead = pnfs.predict("g5k_test", &req).unwrap()[0].clone();
        assert!(dead.duration.is_infinite());
        // JSON cannot carry infinity: a failed transfer renders null.
        assert!(dead.to_json().to_string().contains(r#""duration":null"#));

        pnfs.link_event("g5k_test", "sagittaire-1.lyon.grid5000.fr-nic", PlatformEventKind::Up)
            .unwrap();
        pnfs.link_event(
            "g5k_test",
            "sagittaire-1.lyon.grid5000.fr-nic",
            PlatformEventKind::Capacity(1.0),
        )
        .unwrap();
        let restored = pnfs.predict("g5k_test", &req).unwrap()[0].duration;
        assert_eq!(restored.to_bits(), quiet.to_bits(), "recovery must be exact");

        assert!(matches!(
            pnfs.link_event("g5k_test", "ghost", PlatformEventKind::Down),
            Err(PnfsError::UnknownLink(_))
        ));
        assert!(matches!(
            pnfs.link_event("g5k_test", "sagittaire-1.lyon.grid5000.fr-nic", PlatformEventKind::Capacity(-2.0)),
            Err(PnfsError::BadFactor(_))
        ));
    }

    #[test]
    fn pooled_predict_matches_reference_exactly() {
        let pnfs = service();
        let reqs: Vec<TransferRequest> = (0..12)
            .map(|i| TransferRequest {
                src: format!("graphene-{}.nancy.grid5000.fr", i + 1),
                dst: format!("graphene-{}.nancy.grid5000.fr", i + 40),
                size: 1e8 * (i + 1) as f64,
            })
            .collect();
        let pooled = pnfs.predict("g5k_test", &reqs).unwrap();
        let reference = pnfs.predict_reference("g5k_test", &reqs).unwrap();
        for (p, r) in pooled.iter().zip(&reference) {
            assert_eq!(p.duration.to_bits(), r.duration.to_bits(), "{p:?} vs {r:?}");
        }
    }
}
