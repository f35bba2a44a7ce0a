//! The standard kernel perf scenarios, shared by the `bench_kernel`
//! trajectory binary (which records medians into `BENCH_kernel.json`) and
//! the `bench_guard` regression gate (which re-measures them and compares
//! against the committed copy). Keeping one definition ensures the guard
//! always measures exactly what the trajectory file pins.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use g5k::{synth, to_simflow, Flavor};
use simflow::{DeadRoutePolicy, KernelStats, NetworkConfig, Platform, SimTime, Simulation};

/// Median wall-clock nanoseconds of `f` over `samples` runs (one warmup).
pub fn median_ns(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// The platform every kernel scenario runs on (the synthetic three-site
/// Grid'5000 model, 450 hosts / 457 links).
pub fn standard_platform() -> Platform {
    let api = synth::standard();
    to_simflow(&api, Flavor::G5kTest)
}

fn concurrent(platform: &Platform, n: usize) -> KernelStats {
    let hosts: Vec<_> = platform.hosts().collect();
    let mut sim = Simulation::new(platform, NetworkConfig::default());
    for i in 0..n {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i * 7 + 13) % hosts.len()];
        if src != dst {
            sim.add_transfer(src, dst, 1e8).unwrap();
        }
    }
    sim.run().unwrap().stats
}

/// Disjoint-pair workload: transfer `2k → 2k+1` for each host pair, so
/// every pair is its own sharing component (hosts have private NIC links;
/// pairs only merge where a cluster switch group spans them). Pairs inside
/// one cluster are symmetric, so their completions coincide and every
/// completion event reshares many components at once.
fn multicomp_pairs(platform: &Platform, n: usize) -> KernelStats {
    let hosts: Vec<_> = platform.hosts().collect();
    let mut sim = Simulation::new(platform, NetworkConfig::default());
    let n_pairs = hosts.len() / 2;
    for k in 0..n {
        let p = k % n_pairs;
        let (src, dst) = (hosts[2 * p], hosts[2 * p + 1]);
        sim.add_transfer(src, dst, 5e7 * (1 + k / n_pairs) as f64).unwrap();
    }
    sim.run().unwrap().stats
}

fn staggered(platform: &Platform, n: usize) -> KernelStats {
    let hosts: Vec<_> = platform.hosts().collect();
    let mut sim = Simulation::new(platform, NetworkConfig::default());
    for i in 0..n {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i * 11 + 29) % hosts.len()];
        if src != dst {
            sim.add_transfer_at(src, dst, 5e7, SimTime::from_secs(0.01 * i as f64))
                .unwrap();
        }
    }
    sim.run().unwrap().stats
}

fn mixed(platform: &Platform, n: usize) -> KernelStats {
    let hosts: Vec<_> = platform.hosts().collect();
    let mut sim = Simulation::new(platform, NetworkConfig::default());
    for i in 0..n {
        let src = hosts[i % hosts.len()];
        let dst = hosts[(i * 7 + 13) % hosts.len()];
        if src != dst {
            sim.add_transfer(src, dst, 1e8).unwrap();
        }
        sim.add_compute(hosts[(i * 3) % hosts.len()], 1e10);
    }
    sim.run().unwrap().stats
}

/// Churn workload: staggered arrivals with sizes short enough that flows
/// finish while later ones are still starting, mostly pair-local with a
/// periodic long-haul transfer that bridges components and later releases
/// them — activations and deactivations interleave throughout, exercising
/// the connectivity structure's union-on-activate and lazy-split paths
/// rather than the one-burst-then-drain shape of the other scenarios.
fn churn(platform: &Platform, n: usize) -> KernelStats {
    let hosts: Vec<_> = platform.hosts().collect();
    let nh = hosts.len();
    let mut sim = Simulation::new(platform, NetworkConfig::default());
    for i in 0..n {
        let (src, dst) = if i % 5 == 4 {
            // Occasional bridge across the platform: merges otherwise
            // disjoint pair components for the flow's lifetime.
            (hosts[(i * 13) % nh], hosts[(i * 31 + nh / 2) % nh])
        } else {
            let p = (i / 2) % (nh / 2);
            (hosts[2 * p], hosts[2 * p + 1])
        };
        if src != dst {
            sim.add_transfer_at(
                src,
                dst,
                2e7 + 1e6 * (i % 7) as f64,
                SimTime::from_secs(0.002 * i as f64),
            )
            .unwrap();
        }
    }
    sim.run().unwrap().stats
}

/// Trace-driven platform churn: pair-local transfers whose access links
/// degrade, recover, and (every eighth pair) fail outright mid-transfer
/// under the `Stall` policy — stalled flows park until the matched `Up`
/// revives them. Every capacity event seeds a reshare of the link's
/// active flows, so this measures the dynamic-platform event path the
/// static scenarios never touch. All events are matched
/// (degrade→restore, down→up), so every flow completes.
fn flapping(platform: &Platform, n: usize) -> KernelStats {
    let hosts: Vec<_> = platform.hosts().collect();
    let n_pairs = hosts.len() / 2;
    let mut sim = Simulation::new(platform, NetworkConfig::default());
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    for k in 0..n {
        let p = k % n_pairs;
        let (src, dst) = (hosts[2 * p], hosts[2 * p + 1]);
        sim.add_transfer(src, dst, 1e8).unwrap();
        if k < n_pairs {
            // First visit of the pair: schedule its link's churn. Spread
            // the instants so events land throughout the flows' lifetime
            // and only same-phase pairs batch into one reshare.
            let l = platform.route_hosts(src, dst).unwrap().links[0];
            let phase = 0.01 * (p % 16) as f64;
            sim.add_capacity_change(l, 0.5, SimTime::from_secs(0.2 + phase));
            sim.add_capacity_change(l, 1.0, SimTime::from_secs(1.5 + phase));
            if p % 8 == 0 {
                sim.add_link_down(l, SimTime::from_secs(0.8 + phase));
                sim.add_link_up(l, SimTime::from_secs(1.1 + phase));
            }
        }
    }
    sim.run().unwrap().stats
}

/// Large-platform workload on the synthetic Grid'5000 model: one
/// pair-local transfer per host pair `2k → 2k+1` (each its own sharing
/// component), with every 64th flow replaced by a cross-platform
/// transfer that rides the backbone — exercising backbone sharing and
/// the hierarchical (cluster, cluster) route memo at scale.
fn g5k_scale(platform: &Platform, n: usize) -> KernelStats {
    let hosts: Vec<_> = platform.hosts().collect();
    let nh = hosts.len();
    let mut sim = Simulation::new(platform, NetworkConfig::default());
    let n_pairs = nh / 2;
    for k in 0..n {
        let p = k % n_pairs;
        let (src, dst) = if k % 64 == 63 {
            (hosts[2 * p], hosts[(2 * p + nh / 2) % nh])
        } else {
            (hosts[2 * p], hosts[2 * p + 1])
        };
        if src != dst {
            sim.add_transfer(src, dst, 5e7 * (1 + k / n_pairs) as f64).unwrap();
        }
    }
    sim.run().unwrap().stats
}

/// Memory-footprint proxies of one scenario run (the `BENCH_kernel.json`
/// memory column): resident route entries (stored routing-table entries
/// plus memoized cluster-pair routes), warm-start cache bytes, and the
/// completion calendar's length high-water mark.
#[derive(Clone, Copy, Debug, Default)]
pub struct Footprint {
    /// Stored routing-table entries + memoized (cluster, cluster) routes.
    pub route_entries: u64,
    /// Warm-start cache resident bytes after the run.
    pub warm_bytes: u64,
    /// Completion-calendar length high-water mark during the run.
    pub calendar_peak: u64,
}

/// Per-scenario wall-time budget `KernelScenario::measure` fits its
/// timing samples into: the warmup run doubles as a probe, and the
/// sample count scales down so `warmup + samples` stays near this budget
/// (capped by the scenario's `samples`, floored at one) — which keeps
/// full `BENCH_kernel.json` regeneration under ~2 minutes even with the
/// 50k-flow and 100k-host rows.
const SCENARIO_BUDGET_NS: f64 = 6e9;

/// One named, self-contained kernel scenario.
pub struct KernelScenario {
    /// The name under which `BENCH_kernel.json` records the median.
    pub name: String,
    /// Upper bound on timing samples; [`KernelScenario::measure`]
    /// auto-scales the actual count to [`SCENARIO_BUDGET_NS`].
    pub samples: usize,
    /// Multi-second scenarios `bench_guard` skips unless explicitly
    /// selected with `--scenario` (they would blow up tier-1 wall time).
    pub heavy: bool,
    /// Scenario-owned platform, built lazily on first use and cached for
    /// the process lifetime (the 100k-host platform takes seconds to
    /// construct; enumerating the suite must stay free). `None` = run on
    /// the shared standard platform the caller passes in.
    platform: Option<Box<dyn Fn() -> Arc<Platform>>>,
    run: Box<dyn Fn(&Platform) -> KernelStats>,
}

impl KernelScenario {
    /// The scenario's own platform, if it carries one.
    fn owned_platform(&self) -> Option<Arc<Platform>> {
        self.platform.as_ref().map(|build| build())
    }

    /// Runs the scenario once on `default` (or on its own platform, if
    /// it carries one), returning the run's kernel stats.
    pub fn run(&self, default: &Platform) -> KernelStats {
        let owned = self.owned_platform();
        (self.run)(owned.as_deref().unwrap_or(default))
    }

    /// The scenario's median wall-clock nanoseconds: one warmup run
    /// doubling as a budget probe, then as many timing samples as fit
    /// [`SCENARIO_BUDGET_NS`], capped at `samples`, floored at one.
    pub fn measure(&self, default: &Platform) -> f64 {
        let owned = self.owned_platform();
        let p = owned.as_deref().unwrap_or(default);
        let t = Instant::now();
        (self.run)(p);
        let warmup_ns = t.elapsed().as_secs_f64() * 1e9;
        let fit = (SCENARIO_BUDGET_NS / warmup_ns.max(1.0)) as usize;
        let n = fit.clamp(1, self.samples);
        let mut times: Vec<f64> = (0..n)
            .map(|_| {
                let t = Instant::now();
                (self.run)(p);
                t.elapsed().as_secs_f64() * 1e9
            })
            .collect();
        times.sort_by(|a, b| a.total_cmp(b));
        times[times.len() / 2]
    }

    /// One extra run recording the memory-footprint proxies.
    pub fn footprint(&self, default: &Platform) -> Footprint {
        let owned = self.owned_platform();
        let p = owned.as_deref().unwrap_or(default);
        let stats = (self.run)(p);
        let memo = p.route_memo_stats();
        Footprint {
            route_entries: p.stored_route_entries() as u64 + memo.entries,
            warm_bytes: stats.warm_bytes,
            calendar_peak: stats.calendar_peak,
        }
    }
}

/// The standard suite, in execution order. Names are stable: they key the
/// committed `BENCH_kernel.json` the guard compares against.
pub fn kernel_suite() -> Vec<KernelScenario> {
    let mut suite: Vec<KernelScenario> = Vec::new();
    for n in [10usize, 50, 100, 400, 1000, 2000, 10_000, 50_000] {
        suite.push(KernelScenario {
            name: format!("kernel_concurrent_flows/{n}"),
            samples: if n >= 1000 { 5 } else { 9 },
            // 50k flows form one giant component above the warm-record
            // admission cap — each reshare solves it cold, so a run takes
            // seconds; gate it separately (`bench_guard --scenario`).
            heavy: n >= 50_000,
            platform: None,
            run: Box::new(move |p| concurrent(p, n)),
        });
    }
    // Alias pinning the dense all-pairs shape on its own key, so the
    // guard flags it even if the concurrent ladder is ever reshaped.
    // (Historical note: this shape once paid a per-event component
    // discovery cost; the persistent connectivity labels removed that,
    // and 400 dense flows now time within noise of the ladder's 400.)
    suite.push(KernelScenario {
        name: "kernel_dense_400".to_string(),
        samples: 9,
        heavy: false,
        platform: None,
        run: Box::new(|p| concurrent(p, 400)),
    });
    suite.push(KernelScenario {
        name: "kernel_staggered_200".to_string(),
        samples: 9,
        heavy: false,
        platform: None,
        run: Box::new(|p| staggered(p, 200)),
    });
    suite.push(KernelScenario {
        name: "kernel_churn_500".to_string(),
        samples: 7,
        heavy: false,
        platform: None,
        run: Box::new(|p| churn(p, 500)),
    });
    // Named `/w0` since the days of a pool-width ladder (w0 = no pool):
    // the name stays so the committed medians remain comparable.
    suite.push(KernelScenario {
        name: "kernel_multicomp_600/w0".to_string(),
        samples: 7,
        heavy: false,
        platform: None,
        run: Box::new(|p| multicomp_pairs(p, 600)),
    });
    suite.push(KernelScenario {
        name: "kernel_mixed_100t_100c".to_string(),
        samples: 9,
        heavy: false,
        platform: None,
        run: Box::new(|p| mixed(p, 100)),
    });
    suite.push(KernelScenario {
        name: "kernel_flapping_grid_400".to_string(),
        samples: 7,
        heavy: false,
        platform: None,
        run: Box::new(|p| flapping(p, 400)),
    });
    // 100k-host synthetic platform (50 sites × 8 clusters × 250 hosts):
    // 50k mostly pair-local flows plus backbone riders. The platform is
    // built once per process, on first use — suite enumeration and
    // non-heavy guard runs never pay for it.
    let cell: Arc<OnceLock<Arc<Platform>>> = Arc::new(OnceLock::new());
    suite.push(KernelScenario {
        name: "kernel_g5k_100k_hosts".to_string(),
        samples: 3,
        heavy: true,
        platform: Some(Box::new(move || {
            Arc::clone(cell.get_or_init(|| {
                Arc::new(to_simflow(&synth::synthetic(100_000), Flavor::G5kTest))
            }))
        })),
        run: Box::new(|p| g5k_scale(p, 50_000)),
    });
    suite
}
