//! The Pilgrim REST endpoints, routing HTTP requests onto the services.
//!
//! Endpoints mirror the paper's examples:
//!
//! * `GET /pilgrim/rrd/<path>?begin=…&end=…` — metrology fetch; bounds
//!   accept unix timestamps or `"YYYY-MM-DD HH:MM:SS"`; answers
//!   `[[ts, value], …]`;
//! * `GET /pilgrim/rrd_update/<path>?ts=…&value=…` — metrology push:
//!   stores one measurement and answers `{"ok":true}`. No forecast reads
//!   metrology data yet, so this changes no answer and evicts no cached
//!   forecast;
//! * `GET /pilgrim/predict_transfers/<platform>?transfer=src,dst,size&…`
//!   — PNFS; answers `[{"src","dst","size","duration"}, …]`;
//! * `GET /pilgrim/select_fastest/<platform>?hypothesis=src,dst,size[;…]&…`
//!   — the §VI extension; answers the winning hypothesis;
//! * `GET /pilgrim/forecast_workflow/<platform>?task=name,compute,host,flops&`
//!   `task=name,transfer,src,dst,bytes&…&dep=task,on&…` — the §VI outlook:
//!   a DAG of dependent computations and transfers; answers
//!   `{"makespan","tasks":[{"name","start","finish"},…]}`;
//! * `POST /pilgrim/link_event/<platform>?link=…&state=down|up` (or
//!   `…&factor=0.5`) — serving-time platform dynamics: degrade, fail or
//!   recover a link. Evicts exactly the cached forecasts whose routes
//!   the event can touch; answers `{"ok",…,"invalidated"}`. POST-only —
//!   this mutates serving state, and a GET must never do that;
//! * `GET /pilgrim/stats` — engine observability: cache, coalescing,
//!   simulation and invalidation counters (a thin JSON view over the
//!   metrics registry — both read the same counter cells);
//! * `GET /pilgrim/metrics` — the full [`telemetry::MetricsRegistry`] in
//!   Prometheus text exposition format: forecast stage histograms,
//!   cache/coalescing counters, kernel work counters and (when the
//!   server shares its registry via `Server::start_with_registry`) the
//!   `http_*` family and the `pool_*` family of its worker pool;
//! * `GET /pilgrim/platforms` and `GET /pilgrim/rrds` — discovery.
//!
//! Every served request is additionally recorded in
//! `pilgrim_request_latency_ns{endpoint=…}` — the service-level
//! end-to-end histogram the per-stage forecast histograms decompose.
//!
//! The handlers here know nothing of the connection front end: a
//! handler only ever sees a parsed [`Request`] and returns a
//! [`Response`]; sockets, buffering and keep-alive never leak in. What
//! they do know is that a request is served in two stages
//! ([`crate::http::Handle`]): a bounded *probe* — for every forecast
//! GET, parse it, look its hosts up and look its key up in the forecast
//! cache — which the server's poller runs on its own thread, and the
//! *compute* stage for whatever the probe could not answer, which runs
//! on a pool worker. [`PilgrimService::handle`] is the two back to back.
//!
//! All three forecast endpoints take one path through the stages: a
//! predict is parsed into its one hypothesis and a workflow into its
//! labelled tasks and checked dependencies, so a probe miss stages one
//! `Staged::Forecast`, and every answer, hit or computed, is one
//! [`Selection`]. A predict's body is the winner's 4-uples, which a
//! `select_fastest` answer wraps with its winner, makespan and pruned
//! set; a workflow's names its tasks with their start and finish times.
//!
//! A query is parsed and keyed from slices of the request: each
//! `src,dst,size` is two `&str`s into the request's decoded query and a
//! number (a workflow task is its label and such a tuple, or a host and
//! flops), and the probe keys those by host ids and amount bits — no
//! `String` per transfer. A miss stages only the engine's [`Pending`],
//! and its answer is rendered with names from the platform, by the host
//! ids in the key (a workflow's labels are in its key); host lookup is
//! exact, so those are the names the query asked, and the bytes are the
//! ones a hit renders from the request. The renderers write straight
//! into one pre-sized `String` through `jsonlite`'s string and number
//! writers, without a JSON tree.
//!
//! A repeat forecast is a lookup and a copy. The first cache hit of an
//! answer files the winner's 4-uples (a workflow's whole body) as JSON
//! text on the cached selection ([`Selection::file`]), and every later
//! hit copies that text — a predict or a workflow as it is, a select
//! inside its wrapper — instead of building and printing a JSON tree.
//! The text is a function of the cache key (host names are looked up
//! exactly, amounts keyed by their bits, labels kept), so it is right
//! for as long as the entry lives, and dies with it. Bodies are filed on
//! a hit and not when computed because most answers of a cold workload
//! are never asked again: filing those would keep a body per entry for
//! nothing (≈ 3.7 KB for 30 transfers, against ≈ 1.2 KB for the entry
//! itself). A computed answer uses the text if a
//! concurrent hit filed it, and otherwise renders without filing.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use forecast::{Pending, Probed, Selection, Transfer};
use jsonlite::print::{write_number, write_string};
use jsonlite::Value;
use simflow::PlatformEventKind;
use telemetry::{Histogram, MetricsRegistry, Span};

use crate::http::{Handle, Handler, Probe, Request, Response};
use crate::metrology::{Metrology, MetrologyError};
use crate::pnfs::{Pnfs, PnfsError};
use crate::workflow;

/// The fixed endpoint labels `pilgrim_request_latency_ns` is keyed by —
/// static, so request paths cannot grow the exposition.
const ENDPOINTS: &[&str] = &[
    "link_event",
    "rrd_update",
    "rrd",
    "predict_transfers",
    "select_fastest",
    "forecast_workflow",
    "platforms",
    "rrds",
    "stats",
    "metrics",
    "unknown",
];

/// Maps a request path onto its [`ENDPOINTS`] label.
fn endpoint_label(path: &str) -> &'static str {
    let rest = path.strip_prefix("/pilgrim/").unwrap_or("");
    let head = rest.split('/').next().unwrap_or("");
    ENDPOINTS.iter().find(|&&e| e == head).copied().unwrap_or("unknown")
}

/// The assembled Pilgrim application state.
pub struct PilgrimService {
    /// Metrology service (RRD access).
    pub metrology: Metrology,
    /// Forecast service (platform models + simulation).
    pub pnfs: Pnfs,
    /// The registry `/pilgrim/metrics` renders. Engine, cache and kernel
    /// instruments are adopted here at construction.
    registry: Arc<MetricsRegistry>,
    /// One end-to-end latency histogram per [`ENDPOINTS`] entry.
    request_latency: Vec<(&'static str, Histogram)>,
}

/// The three forecast endpoints, which the probe stage looks at.
#[derive(Clone, Copy)]
enum Forecast {
    Predict,
    Select,
    Workflow,
}

/// The forecast endpoint and platform a GET asks, if it asks one.
fn forecast_query(req: &Request) -> Option<(Forecast, &str)> {
    if req.method != "GET" {
        return None;
    }
    let path = req.path.trim_end_matches('/');
    [
        ("/pilgrim/predict_transfers/", Forecast::Predict),
        ("/pilgrim/select_fastest/", Forecast::Select),
        ("/pilgrim/forecast_workflow/", Forecast::Workflow),
    ]
    .into_iter()
    .find_map(|(prefix, kind)| Some((kind, path.strip_prefix(prefix)?)))
}

/// A request after its probe stage: answered, or what the compute stage
/// continues from — the forecast the probe keyed and could not answer
/// from the cache, so a miss parses and keys nothing twice.
enum Staged {
    /// The probe had the answer.
    Answered(Response),
    /// Not a forecast query: the whole request is still to be routed.
    Whole,
    /// A forecast miss; a predict is its one hypothesis.
    Forecast(Pending),
}

impl Handle for PilgrimService {
    /// [`PilgrimService::handle`] with room for a thread hop between
    /// the stages: the end-to-end span travels with the deferred compute
    /// stage and records where that finishes.
    fn probe(self: Arc<Self>, req: &Request) -> Probe {
        let e2e = self.e2e_span(req);
        match self.probe_stage(req) {
            Staged::Answered(response) => Probe::Ready(response),
            staged => Probe::Deferred(Box::new(move |req| {
                let _e2e = e2e;
                self.compute_stage(req, staged)
            })),
        }
    }
}

impl PilgrimService {
    /// Bundles the two services over a fresh [`MetricsRegistry`].
    pub fn new(metrology: Metrology, pnfs: Pnfs) -> Self {
        PilgrimService::with_registry(metrology, pnfs, Arc::new(MetricsRegistry::new()))
    }

    /// Bundles the two services, adopting every engine instrument into
    /// the caller's `registry` — pass the same registry to
    /// `Server::start_with_registry` so `/pilgrim/metrics` also carries
    /// the `http_*` and `pool_*` families.
    pub fn with_registry(
        metrology: Metrology,
        pnfs: Pnfs,
        registry: Arc<MetricsRegistry>,
    ) -> Self {
        pnfs.engine().register_metrics(&registry);
        let request_latency = ENDPOINTS
            .iter()
            .map(|&endpoint| {
                let h = registry.histogram(
                    "pilgrim_request_latency_ns",
                    "End-to-end service-handler latency per endpoint",
                    &[("endpoint", endpoint)],
                );
                (endpoint, h)
            })
            .collect();
        PilgrimService { metrology, pnfs, registry, request_latency }
    }

    /// The registry `/pilgrim/metrics` renders.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Adapts the service into an HTTP handler.
    pub fn into_handler(self) -> Handler {
        PilgrimService::handler_from(Arc::new(self))
    }

    /// An HTTP handler over a shared service — the caller keeps its
    /// `Arc` for link events and statistics while the server serves.
    /// The service is a two-stage [`Handle`]: the server's poller runs
    /// the probe stage itself and hands only what that defers to a
    /// worker.
    pub fn handler_from(svc: Arc<PilgrimService>) -> Handler {
        svc
    }

    /// Serves one request — probe stage, then compute stage if the probe
    /// left one, back to back on the calling thread — recording its
    /// end-to-end latency under the endpoint's
    /// `pilgrim_request_latency_ns` series. The control mutation
    /// (`link_event`) demands POST; every read-side endpoint demands GET.
    pub fn handle(&self, req: &Request) -> Response {
        let _e2e = self.e2e_span(req);
        self.compute_stage(req, self.probe_stage(req))
    }

    /// Starts the end-to-end span of `req`. It records when dropped —
    /// on whichever thread finishes the request.
    fn e2e_span(&self, req: &Request) -> Span {
        let endpoint = endpoint_label(&req.path);
        // ENDPOINTS is fixed and endpoint_label total over it
        let (_, hist) =
            self.request_latency.iter().find(|(e, _)| *e == endpoint).expect("known endpoint");
        Span::start(hist)
    }

    /// The probe stage: a forecast GET is parsed — a predict into its
    /// one hypothesis, each transfer or task as slices of the request —
    /// keyed by its host ids and amounts, and answered if the forecast
    /// cache has the answer (or the query is malformed).
    /// Bounded — it resolves no route and simulates nothing — because the
    /// poller runs it on its own thread. Every other request is left
    /// whole for the compute stage.
    fn probe_stage(&self, req: &Request) -> Staged {
        let Some((kind, platform)) = forecast_query(req) else { return Staged::Whole };
        let engine = self.pnfs.engine();
        let admission = Span::start(&engine.metrics().stage_admission);
        if let Forecast::Workflow = kind {
            let (tasks, deps) = match workflow::parse(req) {
                Ok(parsed) => parsed,
                // a workflow's platform is checked before its syntax
                Err(resp) => {
                    let unknown = engine.session(platform).err();
                    return Staged::Answered(unknown.map_or(resp, pnfs_error_response));
                }
            };
            drop(admission);
            let probed = engine.probe_workflow(platform, &tasks, deps);
            return self.staged(kind, probed, |sel| {
                workflow::render(tasks.iter().map(|&(label, _)| label), sel)
            });
        }
        let parsed = match kind {
            Forecast::Predict => parse_predict_params(req).map(|requests| vec![requests]),
            _ => parse_hypotheses(req),
        };
        let hypotheses = match parsed {
            Ok(h) => h,
            Err(resp) => return Staged::Answered(resp),
        };
        drop(admission);
        let probed = engine.probe(platform, &hypotheses);
        self.staged(kind, probed, |sel| {
            predictions_json(hypotheses[sel.best].iter().copied(), &sel.durations)
        })
    }

    /// What a probe found, staged: a miss for the compute stage, or the
    /// answer — a hit, rendered by `render` and filed, or the refusal.
    fn staged(
        &self,
        kind: Forecast,
        probed: Result<Probed, PnfsError>,
        render: impl FnOnce(&Selection) -> String,
    ) -> Staged {
        let answer = match probed {
            Ok(Probed::Pending(pending)) => return Staged::Forecast(pending),
            Ok(Probed::Ready(selection)) => Ok(selection),
            Err(e) => Err(e),
        };
        Staged::Answered(self.rendered(kind, answer, true, render))
    }

    /// The compute stage: whatever the probe stage left to do.
    fn compute_stage(&self, req: &Request, staged: Staged) -> Response {
        match staged {
            Staged::Answered(response) => response,
            Staged::Whole => self.route(req),
            Staged::Forecast(pending) => {
                let (kind, platform) = forecast_query(req).expect("staged from a forecast query");
                let answer = self.pnfs.compute(platform, &pending);
                self.rendered(kind, answer, false, |sel| match pending.workflow() {
                    Some((tasks, _)) => workflow::render(tasks.map(|(label, _)| label), sel),
                    None => {
                        let winner = pending.hypotheses().nth(sel.best);
                        predictions_json(winner.expect("the winner was keyed"), &sel.durations)
                    }
                })
            }
        }
    }

    /// A forecast as its response, rendered under the `render` stage —
    /// or the error's status. `render` writes the answer's filed part: a
    /// predict's body, the 4-uples a selection's body wraps with its
    /// winner, makespan and pruned set, or a workflow's body. Text filed
    /// on the selection is copied instead of rendered; `file` (a probe
    /// hit) files what it renders.
    fn rendered(
        &self,
        kind: Forecast,
        forecast: Result<Arc<Selection>, PnfsError>,
        file: bool,
        render: impl FnOnce(&Selection) -> String,
    ) -> Response {
        let sel = match forecast {
            Ok(sel) => sel,
            Err(e) => return pnfs_error_response(e),
        };
        let _render = Span::start(&self.pnfs.engine().metrics().stage_render);
        let filed = match sel.filed() {
            Some(text) => Cow::Borrowed(text),
            None if file => Cow::Borrowed(sel.file(|| render(&sel))),
            None => Cow::Owned(render(&sel)),
        };
        Response::json_text(match kind {
            Forecast::Select => selection_json(&sel, &filed),
            Forecast::Predict | Forecast::Workflow => filed.into_owned(),
        })
    }

    /// Routes a request the probe stage left whole.
    fn route(&self, req: &Request) -> Response {
        let path = req.path.trim_end_matches('/');
        if let Some(platform) = path.strip_prefix("/pilgrim/link_event/") {
            if req.method != "POST" {
                return Response::error(405, "link_event mutates serving state: POST required");
            }
            return self.handle_link_event(platform, req);
        }
        if req.method != "GET" {
            return Response::error(405, &format!("method {} not allowed here", req.method));
        }
        if let Some(rrd_path) = path.strip_prefix("/pilgrim/rrd_update/") {
            return self.handle_rrd_update(rrd_path, req);
        }
        if let Some(rrd_path) = path.strip_prefix("/pilgrim/rrd/") {
            return self.handle_rrd(rrd_path, req);
        }
        match path {
            "/pilgrim/platforms" => {
                let names: Vec<Value> =
                    self.pnfs.platform_names().into_iter().map(Value::from).collect();
                Response::json(&Value::Array(names))
            }
            "/pilgrim/rrds" => {
                let names: Vec<Value> =
                    self.metrology.list("").into_iter().map(Value::from).collect();
                Response::json(&Value::Array(names))
            }
            "/pilgrim/stats" => self.handle_stats(),
            "/pilgrim/metrics" => Response {
                status: 200,
                body: self.registry.render(),
                content_type: "text/plain; version=0.0.4",
                headers: Vec::new(),
            },
            _ => Response::error(404, &format!("no such endpoint: {path}")),
        }
    }

    fn handle_rrd(&self, rrd_path: &str, req: &Request) -> Response {
        let Some(begin) = req.param("begin").and_then(rrd::time::parse_timestamp) else {
            return Response::error(400, "missing or invalid 'begin'");
        };
        let Some(end) = req.param("end").and_then(rrd::time::parse_timestamp) else {
            return Response::error(400, "missing or invalid 'end'");
        };
        match self.metrology.fetch(rrd_path, begin, end) {
            Ok(points) => Response::json(&Metrology::to_json(&points)),
            Err(e @ MetrologyError::UnknownRrd(_)) => Response::error(404, &e.to_string()),
            Err(e) => Response::error(400, &e.to_string()),
        }
    }

    /// Metrology ingestion: stores the sample. No forecast reads it yet,
    /// so no answer changes and no cached forecast is evicted.
    fn handle_rrd_update(&self, rrd_path: &str, req: &Request) -> Response {
        let Some(ts) = req.param("ts").and_then(rrd::time::parse_timestamp) else {
            return Response::error(400, "missing or invalid 'ts'");
        };
        let Some(value) = req.param("value").and_then(|v| v.parse::<f64>().ok()) else {
            return Response::error(400, "missing or invalid 'value'");
        };
        match self.metrology.update(rrd_path, ts, value) {
            Ok(()) => Response::json(&Value::object(vec![("ok", Value::Bool(true))])),
            Err(e @ MetrologyError::UnknownRrd(_)) => Response::error(404, &e.to_string()),
            Err(e) => Response::error(400, &e.to_string()),
        }
    }

    /// Applies one serving-time platform event: `link` is the platform
    /// link name; the event is either `state=down` / `state=up` or a
    /// positive capacity `factor` (1.0 restores nominal capacity). Exactly
    /// one of the two forms must be given.
    fn handle_link_event(&self, platform: &str, req: &Request) -> Response {
        let Some(link) = req.param("link") else {
            return Response::error(400, "missing 'link' parameter");
        };
        let kind = match (req.param("state"), req.param("factor")) {
            (Some("down"), None) => PlatformEventKind::Down,
            (Some("up"), None) => PlatformEventKind::Up,
            (None, Some(f)) => match f.parse::<f64>() {
                Ok(x) => PlatformEventKind::Capacity(x),
                Err(_) => return Response::error(400, &format!("invalid 'factor' '{f}'")),
            },
            _ => {
                return Response::error(
                    400,
                    "exactly one of state=down|up or factor=<x> required",
                )
            }
        };
        match self.pnfs.link_event(platform, link, kind) {
            Ok(invalidated) => Response::json(&Value::object(vec![
                ("ok", Value::Bool(true)),
                ("platform", Value::from(platform)),
                ("link", Value::from(link)),
                ("invalidated", Value::from(invalidated as i64)),
            ])),
            Err(e) => pnfs_error_response(e),
        }
    }

    /// Engine observability counters, one JSON object.
    fn handle_stats(&self) -> Response {
        let e = self.pnfs.engine();
        Response::json(&Value::object(vec![
            ("cache_hits", Value::from(e.cache_hits() as i64)),
            ("cache_misses", Value::from(e.cache_misses() as i64)),
            ("cache_len", Value::from(e.cache_len() as i64)),
            ("coalesced", Value::from(e.coalesced() as i64)),
            ("simulations", Value::from(e.simulations() as i64)),
            ("invalidated_targeted", Value::from(e.invalidated_targeted() as i64)),
        ]))
    }
}

/// The winner's 4-uples as the client reads them,
/// `[{"src":…,"dst":…,"size":…,"duration":…},…]`, written straight into
/// one `String` sized for them: names through `jsonlite`'s run-based
/// string writer and numbers through its number writer, as
/// `jsonlite::Value` prints them, without building one. A non-finite
/// duration (a transfer crossing a failed link never completes) prints
/// as `null`, because JSON cannot carry infinity.
fn predictions_json<'t>(
    winner: impl Iterator<Item = Transfer<'t>> + Clone,
    durations: &[f64],
) -> String {
    // per 4-uple: its names, 40 bytes of keys and punctuation, and two
    // numbers of at most 24 bytes each
    let names: usize = winner.clone().map(|(src, dst, _)| src.len() + dst.len()).sum();
    let mut out = String::with_capacity(2 + names + 88 * durations.len());
    let write = |out: &mut String| -> fmt::Result {
        out.push('[');
        for (i, ((src, dst, size), &duration)) in winner.zip(durations).enumerate() {
            out.push_str(if i == 0 { r#"{"src":"# } else { r#",{"src":"# });
            write_string(src, out)?;
            out.push_str(r#","dst":"#);
            write_string(dst, out)?;
            out.push_str(r#","size":"#);
            write_number(size, out)?;
            out.push_str(r#","duration":"#);
            write_number(duration, out)?;
            out.push('}');
        }
        out.push(']');
        Ok(())
    };
    // writing to a `String` cannot fail
    let _ = write(&mut out);
    out
}

/// A `select_fastest` answer around the winner's `predictions` text:
/// `{"best":…,"makespan":…,"predictions":…,"pruned":[…]}`, numbers as
/// `jsonlite` prints them.
fn selection_json(sel: &Selection, predictions: &str) -> String {
    let number = |n: usize| Value::from(n as i64);
    let mut out = String::with_capacity(predictions.len() + 96 + 4 * sel.pruned.len());
    // writing to a `String` cannot fail
    let _ = write!(
        out,
        r#"{{"best":{},"makespan":{},"predictions":{predictions},"pruned":["#,
        number(sel.best),
        Value::from(sel.best_makespan),
    );
    for (i, &p) in sel.pruned.iter().enumerate() {
        let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, number(p));
    }
    out.push_str("]}");
    out
}

/// Parses the repeated `transfer=src,dst,size` parameters of a predict
/// query, each into slices of the request; a malformed request yields
/// the 400 to send back.
fn parse_predict_params(req: &Request) -> Result<Vec<Transfer<'_>>, Response> {
    let mut transfers = Vec::with_capacity(req.params_named("transfer").count());
    for s in req.params_named("transfer") {
        match parse_transfer(s) {
            Some(t) => transfers.push(t),
            None => {
                return Err(Response::error(
                    400,
                    &format!("malformed transfer '{s}' (want src,dst,size)"),
                ))
            }
        }
    }
    if transfers.is_empty() {
        return Err(Response::error(400, "at least one 'transfer' parameter required"));
    }
    Ok(transfers)
}

/// Parses the repeated `hypothesis=src,dst,size[;…]` parameters of a
/// selection query, each transfer into slices of the request.
fn parse_hypotheses(req: &Request) -> Result<Vec<Vec<Transfer<'_>>>, Response> {
    let mut hypotheses = Vec::with_capacity(req.params_named("hypothesis").count());
    for h in req.params_named("hypothesis") {
        let parts = || h.split(';').filter(|p| !p.is_empty());
        let mut transfers = Vec::with_capacity(parts().count());
        for part in parts() {
            match parse_transfer(part) {
                Some(t) => transfers.push(t),
                None => {
                    return Err(Response::error(
                        400,
                        &format!("malformed transfer '{part}' in hypothesis"),
                    ))
                }
            }
        }
        hypotheses.push(transfers);
    }
    if hypotheses.is_empty() {
        return Err(Response::error(400, "at least one 'hypothesis' parameter required"));
    }
    Ok(hypotheses)
}

/// Parses the paper's `src,dst,size` tuple (size accepts `5e8` notation)
/// into slices of `s` and the size.
fn parse_transfer(s: &str) -> Option<Transfer<'_>> {
    let mut parts = s.split(',');
    let src = parts.next()?.trim();
    let dst = parts.next()?.trim();
    let size: f64 = parts.next()?.trim().parse().ok()?;
    if parts.next().is_some() || src.is_empty() || dst.is_empty() {
        return None;
    }
    Some((src, dst, size))
}

fn pnfs_error_response(e: PnfsError) -> Response {
    match &e {
        PnfsError::UnknownPlatform(_) | PnfsError::UnknownHost(_) | PnfsError::UnknownLink(_) => {
            Response::error(404, &e.to_string())
        }
        PnfsError::Internal(_) => Response::error(500, &e.to_string()),
        _ => Response::error(400, &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use g5k::{synth, to_simflow, Flavor};
    use rrd::{ArchiveSpec, Cf, Database, DsKind};
    use simflow::NetworkConfig;

    fn service() -> PilgrimService {
        let metrology = Metrology::new();
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
        metrology.insert("ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd", db);

        let mut pnfs = Pnfs::new(NetworkConfig::default());
        pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
        PilgrimService::new(metrology, pnfs)
    }

    fn get(svc: &PilgrimService, path: &str, query: &str) -> (u16, Value) {
        let req = Request::synthetic(path, query);
        let resp = svc.handle(&req);
        (resp.status, Value::parse(&resp.body).expect("json body"))
    }

    fn post(svc: &PilgrimService, path: &str, query: &str) -> (u16, Value) {
        let req = Request::synthetic_post(path, query);
        let resp = svc.handle(&req);
        (resp.status, Value::parse(&resp.body).expect("json body"))
    }

    #[test]
    fn paper_rrd_query() {
        let svc = service();
        // the paper's example URL, with its bounds in UTC
        let (status, v) = get(
            &svc,
            "/pilgrim/rrd/ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd",
            "begin=2012-05-04%2006:00:00&end=2012-05-04%2006:01:00",
        );
        assert_eq!(status, 200);
        let points = v.as_array().unwrap();
        assert_eq!(points.len(), 4, "{v}");
        assert_eq!(points[0][0].as_i64(), Some(1_336_111_215));
    }

    #[test]
    fn paper_predict_query() {
        let svc = service();
        let (status, v) = get(
            &svc,
            "/pilgrim/predict_transfers/g5k_test",
            "transfer=capricorne-36.lyon.grid5000.fr,griffon-50.nancy.grid5000.fr,5e8&\
             transfer=capricorne-36.lyon.grid5000.fr,capricorne-1.lyon.grid5000.fr,5e8",
        );
        assert_eq!(status, 200, "{v}");
        assert_eq!(v.as_array().unwrap().len(), 2);
        assert_eq!(v[0]["size"].as_f64(), Some(5e8));
        assert!(v[0]["duration"].as_f64().unwrap() > v[1]["duration"].as_f64().unwrap());
    }

    #[test]
    fn select_fastest_endpoint() {
        let svc = service();
        let (status, v) = get(
            &svc,
            "/pilgrim/select_fastest/g5k_test",
            "hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e9&\
             hypothesis=sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,1e9",
        );
        assert_eq!(status, 200, "{v}");
        assert_eq!(v["best"].as_i64(), Some(0), "intra-cluster wins: {v}");
    }

    #[test]
    fn discovery_endpoints() {
        let svc = service();
        let (s1, v1) = get(&svc, "/pilgrim/platforms", "");
        assert_eq!(s1, 200);
        assert_eq!(v1[0].as_str(), Some("g5k_test"));
        let (s2, v2) = get(&svc, "/pilgrim/rrds", "");
        assert_eq!(s2, 200);
        assert_eq!(v2.as_array().unwrap().len(), 1);
    }

    #[test]
    fn error_statuses() {
        let svc = service();
        assert_eq!(get(&svc, "/pilgrim/rrd/none.rrd", "begin=0&end=1").0, 404);
        assert_eq!(get(&svc, "/pilgrim/rrd/none.rrd", "begin=x&end=1").0, 400);
        assert_eq!(get(&svc, "/pilgrim/predict_transfers/none", "transfer=a,b,1").0, 404);
        assert_eq!(get(&svc, "/pilgrim/predict_transfers/g5k_test", "").0, 400);
        assert_eq!(
            get(&svc, "/pilgrim/predict_transfers/g5k_test", "transfer=oops").0,
            400
        );
        // an empty hypothesis would win with makespan 0: refused, by index
        for (query, named) in [
            (
                "hypothesis=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e8\
                 &hypothesis=",
                "hypothesis 1 has no transfer",
            ),
            ("hypothesis=;;", "hypothesis 0 has no transfer"),
        ] {
            let (status, body) = get(&svc, "/pilgrim/select_fastest/g5k_test", query);
            assert_eq!(status, 400, "{query}: {body:?}");
            assert!(format!("{body:?}").contains(named), "{query}: {body:?}");
        }
        assert_eq!(get(&svc, "/nope", "").0, 404);
    }

    /// An update whose timestamp lies 6·10¹⁷ steps ahead must not walk
    /// them under the registry's write lock.
    #[test]
    fn far_future_rrd_update_answers_at_once() {
        const PATH: &str = "ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd";
        let update = format!("/pilgrim/rrd_update/{PATH}");
        let svc = Arc::new(service());
        let (answer_tx, answer_rx) = std::sync::mpsc::channel();
        let (worker, path) = (Arc::clone(&svc), update.clone());
        std::thread::spawn(move || {
            let asked = std::time::Instant::now();
            let (status, _) = get(&worker, &path, "ts=9000000000000000000&value=1");
            let _ = answer_tx.send((status, asked.elapsed()));
        });
        let (status, took) = answer_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the update must return");
        assert_eq!(status, 200);
        assert!(took < std::time::Duration::from_millis(100), "took {took:?}");
        // the lock is free again and the database still reads
        let (status, v) = get(&svc, &format!("/pilgrim/rrd/{PATH}"), "begin=0&end=2000000000");
        assert_eq!(status, 200, "{v}");
        // a step boundary that `i64` cannot hold is a client error
        assert_eq!(get(&svc, &update, "ts=9223372036854775800&value=1").0, 200);
        assert_eq!(get(&svc, &update, "ts=9223372036854775806&value=1").0, 400);
    }

    #[test]
    fn link_event_endpoint_degrades_and_restores() {
        let svc = service();
        let q = "transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8";
        let (_, quiet) = get(&svc, "/pilgrim/predict_transfers/g5k_test", q);
        let quiet_d = quiet[0]["duration"].as_f64().unwrap();

        // the event only accepts POST
        let nic = "sagittaire-1.lyon.grid5000.fr-nic";
        let ev = format!("link={nic}&state=down");
        let (status, v) = get(&svc, "/pilgrim/link_event/g5k_test", &ev);
        assert_eq!(status, 405, "{v}");

        let (status, v) = post(&svc, "/pilgrim/link_event/g5k_test", &ev);
        assert_eq!(status, 200, "{v}");
        assert_eq!(v["ok"].as_bool(), Some(true));
        assert_eq!(v["invalidated"].as_i64(), Some(1), "the cached predict crosses the nic");

        // a transfer over the dead link cannot complete: duration null
        let (status, dead) = get(&svc, "/pilgrim/predict_transfers/g5k_test", q);
        assert_eq!(status, 200, "{dead}");
        assert!(dead[0]["duration"].is_null(), "{dead}");

        // recovery restores the exact pre-event forecast
        let (status, _) =
            post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}&state=up"));
        assert_eq!(status, 200);
        let (_, restored) = get(&svc, "/pilgrim/predict_transfers/g5k_test", q);
        assert_eq!(
            restored[0]["duration"].as_f64().unwrap().to_bits(),
            quiet_d.to_bits(),
            "recovery must be exact"
        );
    }

    #[test]
    fn link_event_endpoint_rejects_malformed_input() {
        let svc = service();
        let nic = "sagittaire-1.lyon.grid5000.fr-nic";
        assert_eq!(post(&svc, "/pilgrim/link_event/g5k_test", "").0, 400);
        assert_eq!(post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}")).0, 400);
        assert_eq!(
            post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}&state=sideways")).0,
            400
        );
        assert_eq!(
            post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}&state=down&factor=1")).0,
            400
        );
        assert_eq!(
            post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}&factor=x")).0,
            400
        );
        assert_eq!(
            post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}&factor=-1")).0,
            400
        );
        assert_eq!(
            post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}&factor=0")).0,
            400
        );
        // subnormal: a finish time over the link would overflow
        assert_eq!(
            post(&svc, "/pilgrim/link_event/g5k_test", &format!("link={nic}&factor=1e-320")).0,
            400
        );
        assert_eq!(post(&svc, "/pilgrim/link_event/g5k_test", "link=ghost&state=down").0, 404);
        assert_eq!(post(&svc, "/pilgrim/link_event/nope", &format!("link={nic}&state=down")).0, 404);
        // POST to a read-side endpoint is refused too
        assert_eq!(post(&svc, "/pilgrim/platforms", "").0, 405);
    }

    #[test]
    fn a_finish_time_past_the_largest_float_answers_400() {
        // A legal but tiny factor leaves a huge transfer a finish time
        // that overflows: the simulation stalls, it does not panic.
        let svc = service();
        let nic = "sagittaire-1.lyon.grid5000.fr-nic";
        let event = format!("link={nic}&factor=1e-10");
        assert_eq!(post(&svc, "/pilgrim/link_event/g5k_test", &event).0, 200);
        let q = "transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e308";
        assert_eq!(get(&svc, "/pilgrim/predict_transfers/g5k_test", q).0, 400);
    }

    #[test]
    fn tiny_and_huge_sizes_answer_short_bodies() {
        let svc = service();
        for size in ["1e-300", "1.7e308"] {
            let q = format!(
                "transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,{size}"
            );
            let resp =
                svc.handle(&Request::synthetic("/pilgrim/predict_transfers/g5k_test", &q));
            assert_eq!(resp.status, 200, "{size}: {}", resp.body);
            assert!(resp.body.len() < 200, "{size}: {} bytes: {}", resp.body.len(), resp.body);
            let v = Value::parse(&resp.body).expect("json body");
            assert_eq!(v[0]["size"].as_f64(), size.parse().ok(), "{size} reads back");
        }
    }

    #[test]
    fn stats_endpoint_exposes_invalidation_counters() {
        let svc = service();
        let q = "transfer=sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,5e8";
        get(&svc, "/pilgrim/predict_transfers/g5k_test", q);
        get(&svc, "/pilgrim/predict_transfers/g5k_test", q);
        post(
            &svc,
            "/pilgrim/link_event/g5k_test",
            "link=sagittaire-1.lyon.grid5000.fr-nic&factor=0.5",
        );
        let (status, v) = get(&svc, "/pilgrim/stats", "");
        assert_eq!(status, 200, "{v}");
        assert_eq!(v["simulations"].as_i64(), Some(1));
        assert_eq!(v["cache_hits"].as_i64(), Some(1));
        assert_eq!(v["invalidated_targeted"].as_i64(), Some(1));
        let Value::Object(pairs) = &v else { panic!("stats must be a JSON object: {v}") };
        assert_eq!(pairs.len(), 6, "no epoch keys: {v}");
    }

    #[test]
    fn workflow_endpoint_forecasts_a_dag() {
        let svc = service();
        // upload → compute → download on sagittaire/graphene
        let (status, v) = get(
            &svc,
            "/pilgrim/forecast_workflow/g5k_test",
            "task=upload,transfer,sagittaire-1.lyon.grid5000.fr,graphene-1.nancy.grid5000.fr,1e9&\
             task=solve,compute,graphene-1.nancy.grid5000.fr,1e10&\
             task=download,transfer,graphene-1.nancy.grid5000.fr,sagittaire-1.lyon.grid5000.fr,1e8&\
             dep=1,0&dep=2,1",
        );
        assert_eq!(status, 200, "{v}");
        let tasks = v["tasks"].as_array().unwrap();
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[1]["name"].as_str(), Some("solve"));
        // chain: each starts after the previous finishes
        let f0 = tasks[0]["finish"].as_f64().unwrap();
        let s1 = tasks[1]["start"].as_f64().unwrap();
        assert!(s1 >= f0 - 1e-9, "{v}");
        assert!(v["makespan"].as_f64().unwrap() > f0);
    }

    #[test]
    fn workflow_endpoint_rejects_malformed_input() {
        let svc = service();
        assert_eq!(get(&svc, "/pilgrim/forecast_workflow/g5k_test", "").0, 400);
        assert_eq!(
            get(&svc, "/pilgrim/forecast_workflow/g5k_test", "task=bad,kind").0,
            400
        );
        assert_eq!(
            get(
                &svc,
                "/pilgrim/forecast_workflow/g5k_test",
                "task=a,compute,sagittaire-1.lyon.grid5000.fr,1e9&dep=0,5"
            )
            .0,
            400
        );
        assert_eq!(
            get(&svc, "/pilgrim/forecast_workflow/nope", "task=a,compute,x,1").0,
            404
        );
        // amounts the kernel would assert on are refused, not simulated
        for task in [
            "task=a,compute,sagittaire-1.lyon.grid5000.fr,NaN",
            "task=a,compute,sagittaire-1.lyon.grid5000.fr,-1",
            "task=a,transfer,sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,inf",
        ] {
            let (status, v) = get(&svc, "/pilgrim/forecast_workflow/g5k_test", task);
            assert_eq!(status, 400, "{task}: {v}");
        }
        // a cycle or a self-dependency is the probe's to refuse, by name
        let svc = Arc::new(svc);
        let two = "task=a,compute,sagittaire-1.lyon.grid5000.fr,1e9\
                   &task=b,compute,sagittaire-2.lyon.grid5000.fr,1e9";
        for (deps, named) in [
            ("dep=0,1&dep=1,0", "workflow contains a dependency cycle"),
            ("dep=0,0", "task 0 depends on itself"),
        ] {
            let query = format!("{two}&{deps}");
            let req = Request::synthetic("/pilgrim/forecast_workflow/g5k_test", &query);
            let Probe::Ready(resp) = Arc::clone(&svc).probe(&req) else {
                panic!("{deps}: deferred")
            };
            let v = Value::parse(&resp.body).expect("json body");
            assert_eq!((resp.status, v["error"].as_str()), (400, Some(named)), "{deps}: {v}");
        }
    }

    #[test]
    fn workflow_endpoint_honours_link_events() {
        let svc = service();
        let pair = "sagittaire-1.lyon.grid5000.fr,sagittaire-2.lyon.grid5000.fr,1e9";
        let wf = format!(
            "task=ship,transfer,{pair}&task=crunch,compute,sagittaire-2.lyon.grid5000.fr,1e9&dep=1,0"
        );
        let workflow = || {
            let resp = svc.handle(&Request::synthetic("/pilgrim/forecast_workflow/g5k_test", &wf));
            assert_eq!(resp.status, 200, "{}", resp.body);
            resp.body
        };
        let ship = |body: &str| Value::parse(body).unwrap()["tasks"][0]["finish"].as_f64();
        let predict = || {
            let q = format!("transfer={pair}");
            get(&svc, "/pilgrim/predict_transfers/g5k_test", &q).1[0]["duration"].as_f64()
        };
        let event = |what: &str| {
            let q = format!("link=sagittaire-1.lyon.grid5000.fr-nic&{what}");
            assert_eq!(post(&svc, "/pilgrim/link_event/g5k_test", &q).0, 200);
        };

        let quiet = workflow();
        assert_eq!(ship(&quiet), predict(), "one transfer alone: workflow == predict");

        // a tenth of the capacity: the transfer task moves exactly as predict does
        event("factor=0.1");
        let slow = workflow();
        assert_eq!(ship(&slow), predict());
        assert!(ship(&slow).unwrap() > 5.0 * ship(&quiet).unwrap(), "{quiet} -> {slow}");

        // a dead link: the transfer and everything downstream never finish
        event("state=down");
        let dead = Value::parse(&workflow()).unwrap();
        assert!(dead["makespan"].is_null(), "{dead}");
        assert!(dead["tasks"][0]["finish"].is_null() && dead["tasks"][1]["finish"].is_null());

        event("state=up");
        event("factor=1");
        assert_eq!(workflow(), quiet, "restoring the link restores the forecast");
    }

    #[test]
    fn transfer_tuple_parsing() {
        assert!(parse_transfer("a,b,5e8").is_some());
        assert!(parse_transfer("a, b , 100").is_some());
        assert!(parse_transfer("a,b").is_none());
        assert!(parse_transfer("a,b,x").is_none());
        assert!(parse_transfer("a,b,1,2").is_none());
        assert!(parse_transfer(",b,1").is_none());
    }
}
