//! The output check of the serving workloads, run outside the timed
//! windows: the digests of kept response bodies are compared with those
//! of independently computed answers.
//!
//! A client's stream is regenerated from the seed and walked in program
//! order, so the reference sees exactly the writes the client had sent
//! when it asked. On the static workloads the reference is the
//! repository's own oracle, a [`Pnfs::sequential_reference`] service
//! (one fresh simulation per request, no session, no cache, no pool).
//! That oracle ignores link events, so `dynamic_mix` is checked against
//! a from-scratch simulation whose capacity vector has the client's
//! link factors applied by hand, wrapped in the sequential selection
//! algorithm — what the served answer must equal by the engine's
//! bit-identity contract.

use std::collections::BTreeMap;

use jsonlite::Value;
use pilgrim_core::http::Request;
use pilgrim_core::{Metrology, PilgrimService, Pnfs, Prediction, TransferRequest};
use simflow::{NetworkConfig, Platform, ResolvedPath, SimTime, SimTuning, Simulation};

use crate::serve::{body_digest, Platforms};
use crate::workloads::{Body, Op, Stream, Workload};

/// Compares one client's kept `(stream index, body digest)` pairs;
/// returns `(compared, mismatched)`.
pub fn check_client(
    w: Workload,
    seed: u64,
    client: usize,
    platforms: &Platforms,
    kept: &[(u64, u64)],
) -> (u64, u64) {
    let mut stream = Stream::new(w, seed, client, platforms.hosts.clone());
    let oracle = (w != Workload::DynamicMix).then(|| {
        let pnfs = Pnfs::sequential_reference(NetworkConfig::default());
        for (name, p) in &platforms.list {
            pnfs.engine().register_platform_shared(name, p.clone());
        }
        PilgrimService::new(Metrology::new(), pnfs)
    });
    // link resource → capacity factor, as this client's writes left it
    let mut overlay: BTreeMap<usize, f64> = BTreeMap::new();
    let mut kept = kept.iter().peekable();
    let (mut compared, mut mismatched) = (0, 0);
    let mut index = 0u64;
    while let Some((want_index, body)) = kept.peek() {
        let op = stream.next_op();
        if let Body::LinkEvent { link, factor } = &op.body {
            let p = platform_of(platforms, &op.platform);
            let l = p.link_by_name(link).expect("generated link exists").index();
            if *factor == 1.0 {
                overlay.remove(&l);
            } else {
                overlay.insert(l, *factor);
            }
        }
        if index == *want_index {
            let expected = match &oracle {
                Some(svc) => svc.handle(&Request::synthetic(op.path(), op.query())).body,
                None => scaled_reference(platform_of(platforms, &op.platform), &overlay, op),
            };
            compared += 1;
            if body_digest(&expected) != *body {
                mismatched += 1;
                eprintln!(
                    "output check: client {client} request {index} ({}) was not answered {}",
                    op.path(),
                    &expected[..expected.len().min(160)]
                );
            }
            kept.next();
        }
        index += 1;
    }
    (compared, mismatched)
}

fn platform_of<'a>(platforms: &'a Platforms, name: &str) -> &'a Platform {
    &platforms
        .list
        .iter()
        .find(|(n, _)| n == name)
        .expect("registered platform")
        .1
}

/// One from-scratch simulation of `transfers` with `overlay` applied to
/// the capacity vector; durations in request order.
fn simulate(
    p: &Platform,
    overlay: &BTreeMap<usize, f64>,
    transfers: &[TransferRequest],
) -> Vec<f64> {
    let cfg = NetworkConfig::default();
    let mut caps = Simulation::shared_capacities(p, &cfg);
    for (&l, &factor) in overlay {
        caps[l] *= factor;
    }
    let tuning = SimTuning {
        pool: None,
        warm_start: false,
    };
    let mut sim = Simulation::with_tuning(p, cfg, caps, tuning);
    let ids: Vec<_> = transfers
        .iter()
        .map(|t| {
            let src = p.host_by_name(&t.src).expect("generated host exists");
            let dst = p.host_by_name(&t.dst).expect("generated host exists");
            sim.add_transfer_at(src, dst, t.size, SimTime::ZERO)
                .expect("routable")
        })
        .collect();
    let report = sim.run().expect("no generated transfer stalls");
    ids.iter()
        .map(|id| report.duration(*id).as_secs())
        .collect()
}

fn predictions(transfers: &[TransferRequest], durations: &[f64]) -> Vec<Prediction> {
    transfers
        .iter()
        .zip(durations)
        .map(|(t, &duration)| Prediction {
            src: t.src.clone(),
            dst: t.dst.clone(),
            size: t.size,
            duration,
        })
        .collect()
}

/// A `predict_transfers` answer, as the service renders it.
pub fn predict_json(predictions: &[Prediction]) -> Value {
    Value::Array(predictions.iter().map(Prediction::to_json).collect())
}

/// A `select_fastest` answer, as the service renders it.
pub fn select_json(
    best: usize,
    makespan: f64,
    predictions: &[Prediction],
    pruned: &[usize],
) -> Value {
    Value::object(vec![
        ("best", Value::from(best as i64)),
        ("makespan", Value::from(makespan)),
        ("predictions", predict_json(predictions)),
        (
            "pruned",
            Value::Array(pruned.iter().map(|&i| Value::from(i as i64)).collect()),
        ),
    ])
}

/// The sequential selection algorithm's lower bound, on nominal
/// capacities — link factors do not enter it in the engine either.
fn lower_bound(p: &Platform, transfers: &[TransferRequest]) -> f64 {
    let cfg = NetworkConfig::default();
    let mut bound = 0.0f64;
    for t in transfers {
        let src = p.host_by_name(&t.src).expect("generated host exists");
        let dst = p.host_by_name(&t.dst).expect("generated host exists");
        let path = ResolvedPath::resolve(p, &cfg, src, dst).expect("routable");
        let mut bw = path.bottleneck;
        if path.latency > 0.0 {
            bw = bw.min(cfg.tcp_gamma / (2.0 * path.latency));
        }
        bound = bound.max(path.delay + if bw.is_finite() { t.size / bw } else { 0.0 });
    }
    bound
}

/// The body `dynamic_mix` must have been served for `op`.
fn scaled_reference(p: &Platform, overlay: &BTreeMap<usize, f64>, op: &Op) -> String {
    let json = match &op.body {
        Body::Predict(transfers) => {
            predict_json(&predictions(transfers, &simulate(p, overlay, transfers)))
        }
        Body::Select(hypotheses) => {
            let mut order: Vec<(usize, f64)> = hypotheses
                .iter()
                .enumerate()
                .map(|(i, h)| (i, lower_bound(p, h)))
                .collect();
            order.sort_by(|a, b| a.1.total_cmp(&b.1));
            let mut best: Option<(usize, f64, Vec<f64>)> = None;
            let mut pruned = Vec::new();
            for (i, lower) in order {
                if best.as_ref().is_some_and(|(_, mk, _)| lower >= *mk) {
                    pruned.push(i);
                    continue;
                }
                let durations = simulate(p, overlay, &hypotheses[i]);
                let mk = durations.iter().copied().fold(0.0, f64::max);
                if best.as_ref().is_none_or(|(_, b, _)| mk < *b) {
                    best = Some((i, mk, durations));
                }
            }
            let (best, makespan, durations) = best.expect("at least one hypothesis");
            pruned.sort_unstable();
            select_json(
                best,
                makespan,
                &predictions(&hypotheses[best], &durations),
                &pruned,
            )
        }
        _ => unreachable!("only forecasts are kept for the check"),
    };
    json.to_string()
}
