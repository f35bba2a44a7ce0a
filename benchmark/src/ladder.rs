//! The traced run of the serving workloads: a *ladder* that times each
//! layer from outside the program.
//!
//! Nothing inside the program is instrumented. The ladder replays the
//! first ops of a client's seeded stream single-threaded, once per
//! depth, each depth calling the program one public layer further down
//! and each against platforms and a service of its own, so cache, session
//! and route-memo state are the same at every depth. The depths take
//! turns, a few ops each, so that a slow spell of the machine reaches
//! all of them:
//!
//! ```text
//! depth 0  http.roundtrip    HttpClient::request over loopback
//! depth 1  service.handle    Request::synthetic (service.parse_query) + PilgrimService::handle
//! depth 2  pnfs.call         Pnfs::predict / select_fastest, then render (to_json + print)
//! depth 3  session.resolve   Session::host + Session::resolve per transfer
//!          session.sim_setup Session::simulation + add_transfer_resolved   (cache misses only)
//!          kernel.run        Simulation::run                               (cache misses only)
//! depth 4  platform.route    Platform::route_hosts per transfer
//! ```
//!
//! Depth 3 restates what the engine does below `pnfs.call` with public
//! calls only: one simulation per link-disjoint component of a `predict`
//! (`Session::label_batch`, as the engine shards it, but one after the
//! other), one per hypothesis of a `select_fastest` (no pruning), and
//! nothing but the resolution on ops that depth 2 saw answered from the
//! cache. A layer's self time is the median of its depth minus the
//! median of the next.
//!
//! The ladder runs on a thread of its own, not the main thread: the
//! program's request handlers run on worker threads, and on the large
//! platform the allocator treats the main thread's heap differently
//! enough (large capacity vectors, trimmed and regrown per request) to
//! make the in-process depths slower than the HTTP depth above them.

use std::time::Instant;

use pilgrim_core::http::{HttpClient, Request};
use pilgrim_core::TransferRequest;
use simflow::{PlatformEventKind, SimTime};

use crate::serve::{Env, Platforms};
use crate::stats::median;
use crate::verify::{predict_json, select_json};
use crate::workloads::{Body, Op, Stream, Workload};

/// One recorded span.
pub struct Span {
    pub name: &'static str,
    /// Index of the forecast (or write) the span belongs to, counted
    /// over the replayed stream.
    pub op: u32,
    pub parent: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log of one traced run.
pub struct Trace {
    t0: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: &'static str, op: u32, start_ns: u64) -> f64 {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns,
        });
        (end_ns - start_ns) as f64 / 1e3
    }

    /// Chrome-trace-like JSON: one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"op\":{},\"parent\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.parent, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]\n");
        out
    }
}

/// Per-op microseconds of every span name, plus what the counters of
/// the replays said.
#[derive(Default)]
pub struct Ladder {
    pub roundtrip_us: Vec<f64>,
    pub handle_us: Vec<f64>,
    pub parse_query_us: Vec<f64>,
    pub pnfs_call_us: Vec<f64>,
    pub render_us: Vec<f64>,
    pub link_event_us: Vec<f64>,
    pub metrology_update_us: Vec<f64>,
    pub resolve_us: Vec<f64>,
    pub sim_setup_us: Vec<f64>,
    pub kernel_run_us: Vec<f64>,
    pub route_us: Vec<f64>,
    /// Route-memo hits over route calls at depth 4.
    pub route_memo_hit_ratio: f64,
    /// Forecasts per second of the depth-0 replay with spans recorded,
    /// over the same replay with no per-op clock reads.
    pub overhead_ratio: f64,
}

/// The medians the per-layer metrics are made of, in microseconds.
pub struct Medians {
    pub roundtrip: f64,
    pub handle: f64,
    /// `pnfs.call + render` per op.
    pub pnfs_and_render: f64,
    pub pnfs_call: f64,
    pub render: f64,
    /// `session.resolve + session.sim_setup + kernel.run` per op.
    pub below_engine: f64,
}

impl Ladder {
    pub fn medians(&self) -> Medians {
        let sum2 =
            |a: &[f64], b: &[f64]| -> Vec<f64> { a.iter().zip(b).map(|(x, y)| x + y).collect() };
        let mut below = sum2(
            &sum2(&self.resolve_us, &self.sim_setup_us),
            &self.kernel_run_us,
        );
        Medians {
            roundtrip: median(&mut self.roundtrip_us.clone()),
            handle: median(&mut self.handle_us.clone()),
            pnfs_and_render: median(&mut sum2(&self.pnfs_call_us, &self.render_us)),
            pnfs_call: median(&mut self.pnfs_call_us.clone()),
            render: median(&mut self.render_us.clone()),
            below_engine: median(&mut below),
        }
    }
}

fn transfers_of(op: &Op) -> Vec<&[TransferRequest]> {
    match &op.body {
        Body::Predict(t) => vec![t.as_slice()],
        Body::Select(h) => h.iter().map(Vec::as_slice).collect(),
        _ => Vec::new(),
    }
}

/// Applies a write in process, the way every depth below HTTP does.
fn apply_write(env: &Env, op: &Op) {
    match &op.body {
        Body::LinkEvent { link, factor } => {
            env.svc
                .pnfs
                .link_event(&op.platform, link, PlatformEventKind::Capacity(*factor))
                .expect("generated link event applies");
        }
        Body::RrdUpdate { rrd, ts, value } => {
            env.svc
                .metrology
                .update(rrd, *ts, *value)
                .expect("generated update applies");
            env.svc.pnfs.bump_epoch();
        }
        _ => unreachable!("reads are not writes"),
    }
}

/// Forecasts a depth answers before the next depth takes its turn.
const BLOCK: usize = 20;

/// One depth's own platforms, service and copy of client 0's stream, so
/// that every depth meets the same cold caches, sessions and route memo.
struct Lane {
    platforms: Platforms,
    env: Env,
    stream: Stream,
    /// Forecasts answered so far.
    done: usize,
}

impl Lane {
    fn new(w: Workload, seed: u64, http: bool) -> Lane {
        let platforms = Platforms::build(w, 1);
        let env = Env::start(&platforms, 1, http);
        let stream = Stream::new(w, seed, 0, platforms.hosts.clone());
        Lane {
            platforms,
            env,
            stream,
            done: 0,
        }
    }
}

/// Replays `ops` forecasts of client 0's stream at every depth.
///
/// The depths take turns, [`BLOCK`] forecasts each, every depth on a
/// service of its own: this box slows down for seconds at a time, and a
/// burst must hit all depths alike or the differences between them mean
/// nothing.
pub fn run(w: Workload, seed: u64, ops: usize, trace: &mut Trace) -> Ladder {
    std::thread::scope(|s| {
        s.spawn(|| replay(w, seed, ops, trace))
            .join()
            .expect("ladder thread")
    })
}

fn replay(w: Workload, seed: u64, ops: usize, trace: &mut Trace) -> Ladder {
    let mut l = Ladder::default();
    // two HTTP lanes answer every op, one with spans and one without,
    // swapping roles every block so that neither server's luck with
    // threads and allocator ends up on one side of the overhead ratio
    let mut http = [Lane::new(w, seed, true), Lane::new(w, seed, true)];
    let mut handle = Lane::new(w, seed, false);
    let mut pnfs = Lane::new(w, seed, false);
    let mut session = Lane::new(w, seed, false);
    let mut route = Lane::new(w, seed, false);
    let mut clients = http
        .each_ref()
        .map(|lane| HttpClient::new(lane.env.server.as_ref().expect("started with http").addr()));
    let (mut plain_s, mut traced_s) = (0.0, 0.0);
    // whether depth 2 saw each forecast answered from the cache
    let mut hit = Vec::with_capacity(ops);
    let mut route_calls = 0u64;

    let mut block = 0;
    while handle.done < ops {
        let upto = (handle.done + BLOCK).min(ops);
        let (t, p) = (block % 2, (block + 1) % 2);
        block += 1;
        traced_s += http_block(
            &mut http[t],
            &mut clients[t],
            upto,
            Some((&mut *trace, &mut l)),
        );
        plain_s += http_block(&mut http[p], &mut clients[p], upto, None);
        handle_block(&mut handle, upto, trace, &mut l);
        pnfs_block(&mut pnfs, upto, trace, &mut l, &mut hit);
        session_block(&mut session, upto, trace, &mut l, &hit);
        route_calls += route_block(&mut route, upto, trace, &mut l);
    }
    l.overhead_ratio = plain_s / traced_s;
    let memo_hits: u64 = route
        .platforms
        .list
        .iter()
        .map(|(_, p)| p.route_memo_stats().hits)
        .sum();
    l.route_memo_hit_ratio = memo_hits as f64 / route_calls.max(1) as f64;
    l
}

/// Depth 0. With `spans`, every forecast gets an `http.roundtrip` span;
/// without, the clock is read once around the block. Returns the
/// block's seconds.
fn http_block(
    lane: &mut Lane,
    http: &mut HttpClient,
    upto: usize,
    mut spans: Option<(&mut Trace, &mut Ladder)>,
) -> f64 {
    let t = Instant::now();
    while lane.done < upto {
        let op = lane.stream.next_op();
        let start = spans.as_ref().map_or(0, |(trace, _)| trace.now());
        let (status, _, body) = http
            .request(op.method, &op.target, &[])
            .expect("ladder request answered");
        assert_eq!(status, 200, "ladder request refused: {body}");
        if op.is_read() {
            if let Some((trace, l)) = spans.as_mut() {
                l.roundtrip_us
                    .push(trace.push("http.roundtrip", "", lane.done as u32, start));
            }
            lane.done += 1;
        }
    }
    t.elapsed().as_secs_f64()
}

/// Depth 1: the service handler, no sockets.
fn handle_block(lane: &mut Lane, upto: usize, trace: &mut Trace, l: &mut Ladder) {
    while lane.done < upto {
        let op = lane.stream.next_op();
        if !op.is_read() {
            let req = match op.method {
                "POST" => Request::synthetic_post(op.path(), op.query()),
                _ => Request::synthetic(op.path(), op.query()),
            };
            assert_eq!(
                lane.env.svc.handle(&req).status,
                200,
                "ladder write refused"
            );
            continue;
        }
        let id = lane.done as u32;
        let start = trace.now();
        let req = Request::synthetic(op.path(), op.query());
        l.parse_query_us
            .push(trace.push("service.parse_query", "service.handle", id, start));
        let resp = lane.env.svc.handle(&req);
        assert_eq!(resp.status, 200, "ladder request refused: {}", resp.body);
        l.handle_us
            .push(trace.push("service.handle", "http.roundtrip", id, start));
        lane.done += 1;
    }
}

/// Depth 2: the forecast service's calls, then the rendering; and the
/// writes, timed on their own.
fn pnfs_block(
    lane: &mut Lane,
    upto: usize,
    trace: &mut Trace,
    l: &mut Ladder,
    hit: &mut Vec<bool>,
) {
    let svc = &lane.env.svc;
    let pnfs = &svc.pnfs;
    while lane.done < upto {
        let op = lane.stream.next_op();
        let id = lane.done as u32;
        let hits_before = pnfs.engine().cache_hits();
        let start = trace.now();
        match &op.body {
            Body::Predict(t) => {
                let preds = pnfs
                    .predict(&op.platform, t)
                    .expect("generated predict succeeds");
                l.pnfs_call_us
                    .push(trace.push("pnfs.call", "service.handle", id, start));
                let start = trace.now();
                let json = predict_json(&preds);
                std::hint::black_box(json.to_string());
                l.render_us
                    .push(trace.push("render", "service.handle", id, start));
            }
            Body::Select(h) => {
                let sel = pnfs
                    .select_fastest(&op.platform, h)
                    .expect("generated select succeeds");
                l.pnfs_call_us
                    .push(trace.push("pnfs.call", "service.handle", id, start));
                let start = trace.now();
                let json = select_json(sel.best, sel.best_makespan, &sel.predictions, &sel.pruned);
                std::hint::black_box(json.to_string());
                l.render_us
                    .push(trace.push("render", "service.handle", id, start));
            }
            Body::LinkEvent { link, factor } => {
                pnfs.link_event(&op.platform, link, PlatformEventKind::Capacity(*factor))
                    .expect("generated link event applies");
                l.link_event_us
                    .push(trace.push("pnfs.link_event", "service.handle", id, start));
            }
            Body::RrdUpdate { rrd, ts, value } => {
                svc.metrology
                    .update(rrd, *ts, *value)
                    .expect("generated update applies");
                l.metrology_update_us.push(trace.push(
                    "metrology.update",
                    "service.handle",
                    id,
                    start,
                ));
                pnfs.bump_epoch();
            }
        }
        if op.is_read() {
            hit.push(pnfs.engine().cache_hits() > hits_before);
            lane.done += 1;
        }
    }
}

/// Depth 3: what the engine does below `pnfs.call`, by public calls.
fn session_block(lane: &mut Lane, upto: usize, trace: &mut Trace, l: &mut Ladder, hit: &[bool]) {
    while lane.done < upto {
        let op = lane.stream.next_op();
        if !op.is_read() {
            apply_write(&lane.env, op);
            continue;
        }
        let id = lane.done as u32;
        let session = lane
            .env
            .svc
            .pnfs
            .engine()
            .session(&op.platform)
            .expect("registered");
        let (mut resolve, mut setup, mut run) = (0.0, 0.0, 0.0);
        for transfers in transfers_of(op) {
            let start = trace.now();
            let resolved: Vec<_> = transfers
                .iter()
                .map(|t| {
                    let src = session.host(&t.src).expect("generated host exists");
                    let dst = session.host(&t.dst).expect("generated host exists");
                    (
                        src,
                        dst,
                        t.size,
                        session.resolve(src, dst).expect("routable"),
                    )
                })
                .collect();
            resolve += trace.push("session.resolve", "pnfs.call", id, start);
            if hit[lane.done] {
                continue;
            }
            // a predict is sharded into link-disjoint components, one
            // simulation each; a hypothesis is simulated whole
            let groups: Vec<Vec<usize>> = if matches!(op.body, Body::Predict(_)) {
                let routes: Vec<&[u32]> =
                    resolved.iter().map(|r| r.3.resources.as_slice()).collect();
                let (_, labels) = session.label_batch(&routes);
                let mut groups = vec![Vec::new(); labels.iter().max().map_or(0, |m| m + 1)];
                for (i, &c) in labels.iter().enumerate() {
                    groups[c].push(i);
                }
                groups
            } else {
                vec![(0..resolved.len()).collect()]
            };
            for group in &groups {
                let start = trace.now();
                let mut sim = session.simulation();
                for &i in group {
                    let (src, dst, size, path) = &resolved[i];
                    sim.add_transfer_resolved(*src, *dst, *size, SimTime::ZERO, path);
                }
                setup += trace.push("session.sim_setup", "pnfs.call", id, start);
                let start = trace.now();
                std::hint::black_box(sim.run().expect("generated transfers complete"));
                run += trace.push("kernel.run", "pnfs.call", id, start);
            }
        }
        l.resolve_us.push(resolve);
        l.sim_setup_us.push(setup);
        l.kernel_run_us.push(run);
        lane.done += 1;
    }
}

/// Depth 4: route resolution alone. Returns the route calls made.
fn route_block(lane: &mut Lane, upto: usize, trace: &mut Trace, l: &mut Ladder) -> u64 {
    let mut calls = 0;
    while lane.done < upto {
        let op = lane.stream.next_op();
        if !op.is_read() {
            continue;
        }
        let platforms = &lane.platforms.list;
        let p = &platforms
            .iter()
            .find(|(n, _)| *n == op.platform)
            .expect("registered")
            .1;
        let start = trace.now();
        for t in transfers_of(op).into_iter().flatten() {
            let src = p.host_by_name(&t.src).expect("generated host exists");
            let dst = p.host_by_name(&t.dst).expect("generated host exists");
            std::hint::black_box(p.route_hosts(src, dst).expect("routable"));
            calls += 1;
        }
        l.route_us
            .push(trace.push("platform.route", "session.resolve", lane.done as u32, start));
        lane.done += 1;
    }
    calls
}
