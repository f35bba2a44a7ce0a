//! The metric names of `BENCHMARK.json`, with their units, and the one
//! result line a run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, in the order they print.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, in the order they print. A metric a workload does
/// not exercise (the HTTP layer on `bulk_sim`, a kernel shape on a
/// serving workload) reads 0.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.http.self_us", "us"),
    ("core.http.queue_wait_p50_us", "us"),
    ("core.http.queue_wait_p99_us", "us"),
    ("core.http.epoll_wakeups_per_op", "count"),
    ("core.http.keepalive_reuse_ratio", "ratio"),
    ("core.http.header_bytes_per_op", "bytes"),
    ("core.http.body_bytes_per_op", "bytes"),
    ("core.http.shed_total", "count"),
    ("core.http.expired_total", "count"),
    ("core.service.self_us", "us"),
    ("core.service.parse_query_us", "us"),
    ("core.service.render_us", "us"),
    ("core.metrology.update_us", "us"),
    ("forecast.cache.hit_ratio", "ratio"),
    ("forecast.cache.invalidated_per_event", "count"),
    ("forecast.cache.invalidated_epoch_total", "count"),
    ("forecast.cache.len_end", "count"),
    ("forecast.engine.self_us", "us"),
    ("forecast.engine.simulations_per_op", "count"),
    ("forecast.engine.coalesced_total", "count"),
    ("forecast.engine.link_event_us", "us"),
    ("forecast.engine.stage_admission_p50_us", "us"),
    ("forecast.engine.stage_cache_lookup_p50_us", "us"),
    ("forecast.engine.stage_coalesce_wait_p50_us", "us"),
    ("forecast.engine.stage_simulate_p50_us", "us"),
    ("forecast.engine.stage_render_p50_us", "us"),
    ("forecast.session.resolve_us", "us"),
    ("forecast.session.sim_setup_us", "us"),
    ("forecast.session.routes_cached_end", "count"),
    ("simflow.platform.route_us", "us"),
    ("simflow.platform.route_memo_hit_ratio", "ratio"),
    ("simflow.platform.route_entries", "count"),
    ("simflow.platform.build_s", "s"),
    ("simflow.kernel.run_us", "us"),
    ("simflow.kernel.calendar_pops_per_op", "count"),
    ("simflow.kernel.calendar_peak", "count"),
    ("simflow.kernel.concurrent_10000_ms", "ms"),
    ("simflow.kernel.staggered_200_ms", "ms"),
    ("simflow.kernel.churn_500_ms", "ms"),
    ("simflow.kernel.flapping_400_ms", "ms"),
    ("simflow.kernel.multicomp_600_ms", "ms"),
    ("simflow.model.reshares_per_op", "count"),
    ("simflow.model.components_per_reshare", "count"),
    ("simflow.model.warm_replayed_share", "ratio"),
    ("simflow.model.warm_bytes", "bytes"),
    ("exec.pool.jobs_per_op", "count"),
    ("exec.pool.job_service_p50_us", "us"),
    ("g5k.synth_build_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What a run measured: values by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a BENCHMARK.json metric"
        );
        self.0
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The last line of a run: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, the metrics being
/// every name of `table`.
pub fn result_line(
    table: &[(&'static str, &'static str)],
    metrics: &Metrics,
    attempted: u64,
    failed: u64,
) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                metrics.get(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.25);
        let line = result_line(&END_TO_END, &m, 10, 0);
        let v = jsonlite::Value::parse(&line).expect("valid JSON");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_i64(), Some(10));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.25));
        assert_eq!(v["metrics"]["peak_rss_mb"]["unit"].as_str(), Some("MiB"));
        let jsonlite::Value::Object(pairs) = &v["metrics"] else {
            panic!("metrics is an object")
        };
        assert_eq!(pairs.len(), END_TO_END.len());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
