//! The traced run (`--trace 1`): per-layer metrics, measured from
//! outside the program.
//!
//! Times come from the [`crate::ladder`]; counts come from the public
//! counters the program already exposes (`Server::registry()`, the
//! `ForecastEngine` accessors, `Report::stats`), read around one window
//! of the same closed-loop load the timed run measures.

use std::time::Instant;

use crate::bulk::{Bulk, SHAPES};
use crate::ladder::{self, Trace};
use crate::metrics::Metrics;
use crate::serve::{self, Client, Env};
use crate::stats::median;
use crate::windows::{run_windows, Outcome};
use crate::workloads::Workload;

/// The program's monotone counters at one instant.
struct Counts {
    reads: u64,
    requests: u64,
    link_events: u64,
    header_bytes: u64,
    body_bytes: u64,
    keepalive_reuse: u64,
    epoll_wakeups: u64,
    hits: u64,
    misses: u64,
    invalidated_targeted: u64,
    simulations: u64,
    reshares: u64,
    calendar_pops: u64,
    components: u64,
    warm_replayed: u64,
    warm_abandoned: u64,
    pool_jobs: u64,
}

impl Counts {
    fn read(env: &Env, clients: &[Client]) -> Counts {
        let counter = |name: &str| env.registry().counter(name, "", &[]).get();
        let engine = env.svc.pnfs.engine();
        let k = &engine.metrics().kernel;
        Counts {
            reads: clients.iter().map(|c| c.reads).sum(),
            requests: clients.iter().map(|c| c.sent).sum(),
            link_events: clients.iter().map(|c| c.link_events).sum(),
            header_bytes: counter("http_request_header_bytes_total"),
            body_bytes: counter("http_response_body_bytes_total"),
            keepalive_reuse: counter("http_keepalive_reuse_total"),
            epoll_wakeups: counter("epoll_wakeups_total"),
            hits: engine.cache_hits(),
            misses: engine.cache_misses(),
            invalidated_targeted: engine.invalidated_targeted(),
            simulations: engine.simulations(),
            reshares: k.reshares.get(),
            calendar_pops: k.calendar_pops.get(),
            components: k.components_solved.get(),
            warm_replayed: k.warm_levels_replayed.get(),
            warm_abandoned: k.warm_levels_skipped_split.get()
                + k.warm_invalidated_dirty_ratio.get()
                + k.warm_invalidated_seed_cap.get()
                + k.warm_invalidated_bind_dirty.get()
                + k.warm_invalidated_frozen_flow.get(),
            pool_jobs: engine.pool().metrics().service_time_ns.count(),
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run of a serving workload. Returns `(metrics, attempted,
/// failed)` and leaves the spans in `trace`.
pub fn serving(
    w: Workload,
    seed: u64,
    window_s: f64,
    ladder_ops: usize,
    trace: &mut Trace,
) -> (Metrics, u64, u64) {
    let mut m = Metrics::default();

    // counts: one window of the timed run's load, counters read around it
    let (platforms, env, mut clients, warm_failed) = serve::set_up(w, seed, w.warmup_ops());
    let before = Counts::read(&env, &clients);
    let windows = run_windows(&mut clients, Client::step, 1, window_s);
    let after = Counts::read(&env, &clients);
    let ops = after.reads - before.reads;
    let per_op = |a: u64, b: u64| ratio(a - b, ops);

    m.set(
        "core.http.epoll_wakeups_per_op",
        per_op(after.epoll_wakeups, before.epoll_wakeups),
    );
    m.set(
        "core.http.keepalive_reuse_ratio",
        ratio(
            after.keepalive_reuse - before.keepalive_reuse,
            after.requests - before.requests,
        ),
    );
    m.set(
        "core.http.header_bytes_per_op",
        per_op(after.header_bytes, before.header_bytes),
    );
    m.set(
        "core.http.body_bytes_per_op",
        per_op(after.body_bytes, before.body_bytes),
    );
    let server = env.server.as_ref().expect("set_up starts the server");
    m.set("core.http.shed_total", server.stats().shed.get() as f64);
    m.set(
        "core.http.expired_total",
        server.stats().expired.get() as f64,
    );
    let queue_wait = env.registry().histogram("http_queue_wait_ns", "", &[]);
    m.set(
        "core.http.queue_wait_p50_us",
        queue_wait.quantile(0.5) as f64 / 1e3,
    );
    m.set(
        "core.http.queue_wait_p99_us",
        queue_wait.quantile(0.99) as f64 / 1e3,
    );

    let engine = env.svc.pnfs.engine();
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    m.set(
        "forecast.cache.hit_ratio",
        ratio(after.hits - before.hits, lookups),
    );
    m.set(
        "forecast.cache.invalidated_per_event",
        ratio(
            after.invalidated_targeted - before.invalidated_targeted,
            after.link_events - before.link_events,
        ),
    );
    m.set(
        "forecast.cache.invalidated_epoch_total",
        engine.invalidated_epoch() as f64,
    );
    m.set("forecast.cache.len_end", engine.cache_len() as f64);
    m.set(
        "forecast.engine.simulations_per_op",
        per_op(after.simulations, before.simulations),
    );
    m.set("forecast.engine.coalesced_total", engine.coalesced() as f64);
    let stages = engine.metrics();
    for (name, hist) in [
        (
            "forecast.engine.stage_admission_p50_us",
            &stages.stage_admission,
        ),
        (
            "forecast.engine.stage_cache_lookup_p50_us",
            &stages.stage_cache_lookup,
        ),
        (
            "forecast.engine.stage_coalesce_wait_p50_us",
            &stages.stage_coalesce_wait,
        ),
        (
            "forecast.engine.stage_simulate_p50_us",
            &stages.stage_simulate,
        ),
        ("forecast.engine.stage_render_p50_us", &stages.stage_render),
    ] {
        m.set(name, hist.quantile(0.5) as f64 / 1e3);
    }
    let routes_cached: usize = platforms
        .list
        .iter()
        .map(|(name, _)| engine.session(name).map_or(0, |s| s.routes_cached()))
        .sum();
    m.set("forecast.session.routes_cached_end", routes_cached as f64);
    m.set(
        "simflow.kernel.calendar_pops_per_op",
        per_op(after.calendar_pops, before.calendar_pops),
    );
    m.set(
        "simflow.kernel.calendar_peak",
        stages.kernel.calendar_peak.get() as f64,
    );
    m.set(
        "simflow.model.reshares_per_op",
        per_op(after.reshares, before.reshares),
    );
    m.set(
        "simflow.model.components_per_reshare",
        ratio(
            after.components - before.components,
            after.reshares - before.reshares,
        ),
    );
    let replayed = after.warm_replayed - before.warm_replayed;
    m.set(
        "simflow.model.warm_replayed_share",
        ratio(
            replayed,
            replayed + after.warm_abandoned - before.warm_abandoned,
        ),
    );
    m.set(
        "simflow.model.warm_bytes",
        stages.kernel.warm_bytes.get() as f64,
    );
    m.set(
        "exec.pool.jobs_per_op",
        per_op(after.pool_jobs, before.pool_jobs),
    );
    m.set(
        "exec.pool.job_service_p50_us",
        engine.pool().metrics().service_time_ns.quantile(0.5) as f64 / 1e3,
    );
    let route_entries: u64 = platforms
        .list
        .iter()
        .map(|(_, p)| p.stored_route_entries() as u64 + p.route_memo_stats().entries)
        .sum();
    m.set("simflow.platform.route_entries", route_entries as f64);
    m.set("simflow.platform.build_s", platforms.build_s);
    m.set("g5k.synth_build_s", platforms.synth_s);
    drop(clients);
    drop(env);

    // times: the ladder
    let l = ladder::run(w, seed, ladder_ops, trace);
    let med = l.medians();
    m.set("core.http.self_us", med.roundtrip - med.handle);
    m.set("core.service.self_us", med.handle - med.pnfs_and_render);
    m.set(
        "core.service.parse_query_us",
        median(&mut l.parse_query_us.clone()),
    );
    m.set("core.service.render_us", med.render);
    m.set(
        "core.metrology.update_us",
        median(&mut l.metrology_update_us.clone()),
    );
    m.set("forecast.engine.self_us", med.pnfs_call - med.below_engine);
    m.set(
        "forecast.engine.link_event_us",
        median(&mut l.link_event_us.clone()),
    );
    m.set(
        "forecast.session.resolve_us",
        median(&mut l.resolve_us.clone()),
    );
    m.set(
        "forecast.session.sim_setup_us",
        median(&mut l.sim_setup_us.clone()),
    );
    m.set(
        "simflow.kernel.run_us",
        median(&mut l.kernel_run_us.clone()),
    );
    m.set("simflow.platform.route_us", median(&mut l.route_us.clone()));
    m.set(
        "simflow.platform.route_memo_hit_ratio",
        l.route_memo_hit_ratio,
    );
    m.set("trace.overhead_ratio", l.overhead_ratio);
    println!(
        "  ladder ({ladder_ops} ops, one thread): http.roundtrip {:.1} us = http {:.1} + service {:.1} \
         + render {:.1} + engine {:.1} + below the engine {:.1}",
        med.roundtrip,
        med.roundtrip - med.handle,
        med.handle - med.pnfs_and_render,
        med.render,
        med.pnfs_call - med.below_engine,
        med.below_engine,
    );
    println!(
        "  trace.overhead_ratio compares the depth-0 replay with spans to the same replay \
         without; the counts come from one {window_s:.1} s window of the {}-client load",
        serve::client_count()
    );
    (m, windows.attempted, windows.failed + warm_failed)
}

/// The traced run of `bulk_sim`: `cycles` cycles with the clock read
/// around every shape, then as many without.
pub fn bulk(cycles: usize) -> (Metrics, u64, u64) {
    let mut m = Metrics::default();
    let t = Instant::now();
    let mut b = Bulk::new();
    m.set("simflow.platform.build_s", t.elapsed().as_secs_f64());
    b.cycle(false);

    let jobs_before = b.pool.metrics().service_time_ns.count();
    let t = Instant::now();
    let traced: Vec<_> = (0..cycles)
        .map(|_| b.cycle(true).expect("per-shape cycle reports"))
        .collect();
    let traced_s = t.elapsed().as_secs_f64();
    let jobs = b.pool.metrics().service_time_ns.count() - jobs_before;
    let t = Instant::now();
    for _ in 0..cycles {
        b.cycle(false);
    }
    m.set("trace.overhead_ratio", t.elapsed().as_secs_f64() / traced_s);

    for (s, (name, _, _)) in SHAPES.iter().enumerate() {
        m.set(
            name,
            median(&mut traced.iter().map(|c| c.shape_ms[s]).collect::<Vec<_>>()),
        );
    }
    let mut cycle_us: Vec<f64> = traced
        .iter()
        .map(|c| c.shape_ms.iter().sum::<f64>() * 1e3)
        .collect();
    m.set("simflow.kernel.run_us", median(&mut cycle_us));
    // counts repeat exactly from cycle to cycle: report the first cycle's
    let first = &traced[0].stats;
    m.set("simflow.model.reshares_per_op", first.reshares as f64);
    m.set(
        "simflow.kernel.calendar_pops_per_op",
        first.calendar_pops as f64,
    );
    m.set("simflow.kernel.calendar_peak", first.calendar_peak as f64);
    m.set(
        "simflow.model.components_per_reshare",
        ratio(first.solver.components_solved, first.reshares),
    );
    let warm = &first.solver.warm;
    let abandoned = warm.levels_skipped_split
        + warm.invalidated_dirty_ratio
        + warm.invalidated_seed_cap
        + warm.invalidated_bind_dirty
        + warm.invalidated_frozen_flow;
    m.set(
        "simflow.model.warm_replayed_share",
        ratio(warm.levels_replayed, warm.levels_replayed + abandoned),
    );
    m.set("simflow.model.warm_bytes", first.warm_bytes as f64);
    m.set("exec.pool.jobs_per_op", ratio(jobs, cycles as u64));
    m.set(
        "exec.pool.job_service_p50_us",
        b.pool.metrics().service_time_ns.quantile(0.5) as f64 / 1e3,
    );
    let (_, cold_mismatched) = b.check_against_cold();
    (m, 2 * cycles as u64 + 1, b.mismatched + cold_mismatched)
}

/// One `bulk_sim` op for the timed windows.
pub fn bulk_step(b: &mut Bulk) -> Outcome {
    let start = Instant::now();
    let before = b.mismatched;
    b.cycle(false);
    let end = Instant::now();
    Outcome {
        is_read: true,
        ok: b.mismatched == before,
        latency: end - start,
        end,
    }
}
