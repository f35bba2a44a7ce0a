//! The engine's instrument bundle: per-stage latency histograms plus
//! kernel work counters, all shared-handle `telemetry` instruments.
//!
//! The bundle exists from engine construction — instrumentation is
//! always on, never conditionally compiled — and
//! [`ForecastMetrics::register`] adopts every instrument into a
//! [`MetricsRegistry`] so `/pilgrim/metrics` exposes them. Stage
//! histograms follow the request through the serving path:
//!
//! `admission → cache_lookup → coalesce_wait → simulate → render`
//!
//! `admission` and `render` are recorded by the service layer (they
//! bracket work the engine never sees); the middle three are recorded
//! here. Kernel counters aggregate the [`simflow::KernelStats`] each
//! simulation returns — the kernel itself counts plain integers and
//! never touches an atomic or a clock inside the solve; sessions fold
//! the per-run totals into these shared counters *after* `run()`
//! returns, off the hot path.

use simflow::{KernelStats, RouteMemoStats, COMP_SIZE_BUCKETS};
use telemetry::{Counter, Gauge, Histogram, MetricsRegistry};

/// Shared counters aggregating kernel work across every simulation the
/// engine runs (all platforms, all sessions — one process-wide family).
#[derive(Clone, Default, Debug)]
pub struct KernelCounters {
    /// Sharing re-solves across all simulations.
    pub reshares: Counter,
    /// Calendar pops (real completions + stale discards).
    pub calendar_pops: Counter,
    /// Components dispatched to the solver.
    pub components_solved: Counter,
    /// Component sizes (flows per dispatched component). Fed from the
    /// kernel's log2 buckets, so values land on powers of two.
    pub component_size: Histogram,
    /// Warm-replay levels applied verbatim.
    pub warm_levels_replayed: Counter,
    /// Warm-replay levels skipped because the component split.
    pub warm_levels_skipped_split: Counter,
    /// Levels abandoned: dirty-ratio guard tripped.
    pub warm_invalidated_dirty_ratio: Counter,
    /// Levels abandoned: seed-capacity mismatch.
    pub warm_invalidated_seed_cap: Counter,
    /// Levels abandoned: a binding resource went dirty.
    pub warm_invalidated_bind_dirty: Counter,
    /// Levels abandoned: a frozen flow changed.
    pub warm_invalidated_frozen_flow: Counter,
    /// Completion-calendar length high-water mark of the most recent
    /// finished run (a memory proxy: entries are 16 bytes each).
    pub calendar_peak: Gauge,
    /// Warm-start cache resident bytes as of the most recent finished
    /// run.
    pub warm_bytes: Gauge,
    /// Hierarchical route-memo hits across every route resolution (the
    /// platform counts monotonically; sessions fold the delta since
    /// their last fold — see [`KernelCounters::observe_route_memo`]).
    pub route_memo_hits: Counter,
    /// Memoized (cluster, cluster) route entries currently held by the
    /// most recently folded platform.
    pub route_memo_entries: Gauge,
}

impl KernelCounters {
    /// Folds one finished run's [`KernelStats`] into the shared
    /// counters. Called by sessions after `Simulation::run` returns.
    pub fn observe(&self, stats: &KernelStats) {
        self.reshares.add(stats.reshares);
        self.calendar_pops.add(stats.calendar_pops);
        let s = &stats.solver;
        self.components_solved.add(s.components_solved);
        for (k, &n) in s.component_size_log2.iter().enumerate().take(COMP_SIZE_BUCKETS) {
            if n > 0 {
                self.component_size.record_n(1u64 << k, n);
            }
        }
        let w = &s.warm;
        self.warm_levels_replayed.add(w.levels_replayed);
        self.warm_levels_skipped_split.add(w.levels_skipped_split);
        self.warm_invalidated_dirty_ratio.add(w.invalidated_dirty_ratio);
        self.warm_invalidated_seed_cap.add(w.invalidated_seed_cap);
        self.warm_invalidated_bind_dirty.add(w.invalidated_bind_dirty);
        self.warm_invalidated_frozen_flow.add(w.invalidated_frozen_flow);
        self.calendar_peak.set(stats.calendar_peak as i64);
        self.warm_bytes.set(stats.warm_bytes as i64);
    }

    /// Folds a platform's [`simflow::Platform::route_memo_stats`]
    /// snapshot, given the hit total at the previous fold (`prev_hits`).
    /// The platform counter is monotone, so the caller tracks its last
    /// folded value (e.g. with `AtomicU64::fetch_max`) and only the
    /// delta lands on the shared counter — route resolution happens
    /// outside the solve, so this never runs on the kernel's hot path.
    pub fn observe_route_memo(&self, memo: RouteMemoStats, prev_hits: u64) {
        if memo.hits > prev_hits {
            self.route_memo_hits.add(memo.hits - prev_hits);
        }
        self.route_memo_entries.set(memo.entries as i64);
    }

    /// Adopts the kernel family into `registry`.
    pub fn register(&self, registry: &MetricsRegistry) {
        registry.adopt_counter(
            "kernel_reshares_total",
            "Max-min sharing re-solves across all simulations",
            &[],
            &self.reshares,
        );
        registry.adopt_counter(
            "kernel_calendar_pops_total",
            "Completion-calendar pops (real completions and stale discards)",
            &[],
            &self.calendar_pops,
        );
        registry.adopt_counter(
            "kernel_components_solved_total",
            "Connected components dispatched to the max-min solver",
            &[],
            &self.components_solved,
        );
        registry.adopt_histogram(
            "kernel_component_size",
            "Flows per dispatched solver component (log2 buckets)",
            &[],
            &self.component_size,
        );
        registry.adopt_counter(
            "kernel_warm_levels_replayed_total",
            "Warm-start bisection levels replayed verbatim",
            &[],
            &self.warm_levels_replayed,
        );
        registry.adopt_counter(
            "kernel_warm_levels_skipped_total",
            "Warm-start levels skipped because the component split",
            &[("reason", "split")],
            &self.warm_levels_skipped_split,
        );
        let inval = [
            ("dirty_ratio", &self.warm_invalidated_dirty_ratio),
            ("seed_cap", &self.warm_invalidated_seed_cap),
            ("bind_dirty", &self.warm_invalidated_bind_dirty),
            ("frozen_flow", &self.warm_invalidated_frozen_flow),
        ];
        for (reason, counter) in inval {
            registry.adopt_counter(
                "kernel_warm_levels_invalidated_total",
                "Warm-start levels abandoned to a fresh solve, by reason",
                &[("reason", reason)],
                counter,
            );
        }
        registry.adopt_gauge(
            "kernel_calendar_peak",
            "Completion-calendar length high-water mark of the latest run",
            &[],
            &self.calendar_peak,
        );
        registry.adopt_gauge(
            "kernel_warm_cache_bytes",
            "Warm-start cache resident bytes as of the latest run",
            &[],
            &self.warm_bytes,
        );
        registry.adopt_counter(
            "kernel_route_memo_hits_total",
            "Hierarchical (cluster, cluster) route-memo hits during route resolution",
            &[],
            &self.route_memo_hits,
        );
        registry.adopt_gauge(
            "kernel_route_memo_entries",
            "Memoized (cluster, cluster) route entries held by the latest platform",
            &[],
            &self.route_memo_entries,
        );
    }
}

/// The engine's full instrument bundle (see the module docs).
#[derive(Clone, Default, Debug)]
pub struct ForecastMetrics {
    /// Admission-control decision time (recorded by the service layer).
    pub stage_admission: Histogram,
    /// Cache key construction + lookup time.
    pub stage_cache_lookup: Histogram,
    /// Time followers block on a coalesced leader's computation.
    pub stage_coalesce_wait: Histogram,
    /// Leader computation time (simulation, selection replay).
    pub stage_simulate: Histogram,
    /// Response rendering time (recorded by the service layer).
    pub stage_render: Histogram,
    /// Leader computations started (cache misses that simulated).
    pub simulations: Counter,
    /// Kernel work aggregated across every simulation.
    pub kernel: KernelCounters,
}

impl ForecastMetrics {
    /// Adopts every instrument into `registry`.
    pub fn register(&self, registry: &MetricsRegistry) {
        const STAGE_HELP: &str =
            "Per-stage forecast serving latency in nanoseconds (wall time)";
        let stages = [
            ("admission", &self.stage_admission),
            ("cache_lookup", &self.stage_cache_lookup),
            ("coalesce_wait", &self.stage_coalesce_wait),
            ("simulate", &self.stage_simulate),
            ("render", &self.stage_render),
        ];
        for (stage, hist) in stages {
            registry.adopt_histogram(
                "forecast_stage_latency_ns",
                STAGE_HELP,
                &[("stage", stage)],
                hist,
            );
        }
        registry.adopt_counter(
            "forecast_simulations_total",
            "Leader computations started (cache misses that actually simulated)",
            &[],
            &self.simulations,
        );
        self.kernel.register(registry);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simflow::{KernelStats, SolverStats, WarmReplayStats};

    #[test]
    fn observe_folds_kernel_stats_into_counters() {
        let m = KernelCounters::default();
        let mut component_size_log2 = [0u64; COMP_SIZE_BUCKETS];
        component_size_log2[0] = 2; // two 1-flow components
        component_size_log2[3] = 1; // one 8..=15-flow component
        let solver = SolverStats {
            components_solved: 3,
            component_size_log2,
            warm: WarmReplayStats {
                levels_replayed: 7,
                levels_skipped_split: 1,
                invalidated_dirty_ratio: 2,
                invalidated_seed_cap: 0,
                invalidated_bind_dirty: 1,
                invalidated_frozen_flow: 0,
            },
        };
        let stats = KernelStats {
            reshares: 5,
            calendar_pops: 9,
            calendar_peak: 12,
            warm_bytes: 4096,
            solver,
        };
        m.observe(&stats);
        m.observe(&stats);
        assert_eq!(m.reshares.get(), 10);
        assert_eq!(m.calendar_pops.get(), 18);
        assert_eq!(m.calendar_peak.get(), 12);
        assert_eq!(m.warm_bytes.get(), 4096);
        assert_eq!(m.components_solved.get(), 6);
        assert_eq!(m.component_size.count(), 6);
        // 2×(2·1 + 1·8) = 20 total "flows" recorded
        assert_eq!(m.component_size.sum(), 20);
        assert_eq!(m.warm_levels_replayed.get(), 14);
        assert_eq!(m.warm_invalidated_dirty_ratio.get(), 4);
    }

    #[test]
    fn route_memo_folds_deltas_only() {
        let m = KernelCounters::default();
        m.observe_route_memo(RouteMemoStats { hits: 10, entries: 3, links: 9 }, 0);
        m.observe_route_memo(RouteMemoStats { hits: 25, entries: 4, links: 12 }, 10);
        // a stale prev (racing folder already consumed these hits) adds nothing
        m.observe_route_memo(RouteMemoStats { hits: 25, entries: 4, links: 12 }, 25);
        assert_eq!(m.route_memo_hits.get(), 25);
        assert_eq!(m.route_memo_entries.get(), 4);
    }

    #[test]
    fn register_exposes_all_families() {
        let registry = MetricsRegistry::new();
        let m = ForecastMetrics::default();
        m.register(&registry);
        m.stage_simulate.record(1000);
        m.simulations.inc();
        let text = registry.render();
        for family in [
            "forecast_stage_latency_ns",
            "forecast_simulations_total",
            "kernel_reshares_total",
            "kernel_component_size",
            "kernel_warm_levels_invalidated_total",
            "kernel_calendar_peak",
            "kernel_warm_cache_bytes",
            "kernel_route_memo_hits_total",
            "kernel_route_memo_entries",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
        assert!(text.contains(r#"stage="simulate""#));
        assert!(text.contains(r#"reason="frozen_flow""#));
    }
}
