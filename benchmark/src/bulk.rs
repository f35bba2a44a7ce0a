//! `bulk_sim`: offline simulation with no serving stack. One op is one
//! *cycle* over five kernel shapes, weighted so that each takes about a
//! fifth of the cycle at the speed of the commit that added the
//! benchmark.
//!
//! The shapes are those of `bench::scenarios::kernel_suite()` (same
//! endpoints, sizes and event schedules); they are restated here because
//! the check needs each run's [`Report`] — the suite returns only its
//! `KernelStats` — and its `SimTuning` as a parameter.

use std::sync::Arc;
use std::time::Instant;

use exec::WorkerPool;
use g5k::{synth, to_simflow, Flavor};
use simflow::{
    DeadRoutePolicy, KernelStats, NetworkConfig, Platform, Report, SimTime, SimTuning, Simulation,
};

/// A kernel shape: builds and runs one simulation.
type Run = fn(&Platform, SimTuning) -> Report;

/// `(per-layer metric, runs per cycle, shape)`.
pub const SHAPES: [(&str, usize, Run); 5] = [
    ("simflow.kernel.concurrent_10000_ms", 1, |p, t| {
        concurrent(p, t, 10_000)
    }),
    ("simflow.kernel.staggered_200_ms", 10, |p, t| {
        staggered(p, t, 200)
    }),
    ("simflow.kernel.churn_500_ms", 9, |p, t| churn(p, t, 500)),
    ("simflow.kernel.flapping_400_ms", 70, |p, t| {
        flapping(p, t, 400)
    }),
    ("simflow.kernel.multicomp_600_ms", 90, |p, t| {
        multicomp(p, t, 600)
    }),
];

/// Index of the one shape that runs on the worker pool (`w2`).
const POOLED_SHAPE: usize = 4;

fn sim<'p>(p: &'p Platform, tuning: SimTuning) -> Simulation<'p> {
    let cfg = NetworkConfig::default();
    Simulation::with_tuning(p, cfg, Simulation::shared_capacities(p, &cfg), tuning)
}

fn concurrent(p: &Platform, tuning: SimTuning, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let mut sim = sim(p, tuning);
    for i in 0..n {
        let (src, dst) = (hosts[i % hosts.len()], hosts[(i * 7 + 13) % hosts.len()]);
        if src != dst {
            sim.add_transfer(src, dst, 1e8).expect("routable");
        }
    }
    sim.run().expect("completes")
}

fn staggered(p: &Platform, tuning: SimTuning, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let mut sim = sim(p, tuning);
    for i in 0..n {
        let (src, dst) = (hosts[i % hosts.len()], hosts[(i * 11 + 29) % hosts.len()]);
        if src != dst {
            sim.add_transfer_at(src, dst, 5e7, SimTime::from_secs(0.01 * i as f64))
                .expect("routable");
        }
    }
    sim.run().expect("completes")
}

fn churn(p: &Platform, tuning: SimTuning, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let nh = hosts.len();
    let mut sim = sim(p, tuning);
    for i in 0..n {
        let (src, dst) = if i % 5 == 4 {
            (hosts[(i * 13) % nh], hosts[(i * 31 + nh / 2) % nh])
        } else {
            let pair = (i / 2) % (nh / 2);
            (hosts[2 * pair], hosts[2 * pair + 1])
        };
        if src != dst {
            let size = 2e7 + 1e6 * (i % 7) as f64;
            sim.add_transfer_at(src, dst, size, SimTime::from_secs(0.002 * i as f64))
                .expect("routable");
        }
    }
    sim.run().expect("completes")
}

fn flapping(p: &Platform, tuning: SimTuning, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let n_pairs = hosts.len() / 2;
    let mut sim = sim(p, tuning);
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    for k in 0..n {
        let pair = k % n_pairs;
        let (src, dst) = (hosts[2 * pair], hosts[2 * pair + 1]);
        sim.add_transfer(src, dst, 1e8).expect("routable");
        if k < n_pairs {
            let l = p.route_hosts(src, dst).expect("routable").links[0];
            let phase = 0.01 * (pair % 16) as f64;
            sim.add_capacity_change(l, 0.5, SimTime::from_secs(0.2 + phase));
            sim.add_capacity_change(l, 1.0, SimTime::from_secs(1.5 + phase));
            if pair % 8 == 0 {
                sim.add_link_down(l, SimTime::from_secs(0.8 + phase));
                sim.add_link_up(l, SimTime::from_secs(1.1 + phase));
            }
        }
    }
    sim.run().expect("completes")
}

fn multicomp(p: &Platform, tuning: SimTuning, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let n_pairs = hosts.len() / 2;
    let mut sim = sim(p, tuning);
    for k in 0..n {
        let pair = k % n_pairs;
        let size = 5e7 * (1 + k / n_pairs) as f64;
        sim.add_transfer(hosts[2 * pair], hosts[2 * pair + 1], size)
            .expect("routable");
    }
    sim.run().expect("completes")
}

/// Digest of a run's completion-time bits and outcomes (FNV-1a).
pub fn sim_digest(report: &Report) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in &report.completions {
        for word in [c.finish.as_secs().to_bits(), u64::from(c.failed())] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// What one cycle did, per shape.
pub struct Cycle {
    /// Wall milliseconds of each shape's runs, summed.
    pub shape_ms: [f64; 5],
    /// Kernel counters of all runs, summed (peaks: maximum).
    pub stats: KernelStats,
}

/// The platform, the pool and the digests a `bulk_sim` process keeps.
pub struct Bulk {
    platform: Platform,
    pub pool: Arc<WorkerPool>,
    /// First digest seen per shape; every later run must repeat it.
    digests: [Option<u64>; 5],
    /// Runs whose digest differed from the shape's first.
    pub mismatched: u64,
}

impl Bulk {
    pub fn new() -> Bulk {
        Bulk {
            platform: to_simflow(&synth::standard(), Flavor::G5kTest),
            pool: Arc::new(WorkerPool::new(2)),
            digests: [None; 5],
            mismatched: 0,
        }
    }

    fn tuning(&self, shape: usize) -> SimTuning {
        let pool = (shape == POOLED_SHAPE).then(|| Arc::clone(&self.pool));
        SimTuning {
            pool,
            warm_start: true,
        }
    }

    fn note_digest(&mut self, shape: usize, digest: u64) {
        if *self.digests[shape].get_or_insert(digest) != digest {
            self.mismatched += 1;
        }
    }

    /// Runs one cycle. With `per_shape` the cycle also reads the clock
    /// around every shape and folds its counters — the traced variant.
    pub fn cycle(&mut self, per_shape: bool) -> Option<Cycle> {
        let mut out = per_shape.then(|| Cycle {
            shape_ms: [0.0; 5],
            stats: KernelStats::default(),
        });
        for (s, (_, runs, run)) in SHAPES.iter().enumerate() {
            for _ in 0..*runs {
                let t = Instant::now();
                let report = run(&self.platform, self.tuning(s));
                if let Some(c) = out.as_mut() {
                    c.shape_ms[s] += t.elapsed().as_secs_f64() * 1e3;
                    fold(&mut c.stats, &report.stats);
                }
                self.note_digest(s, sim_digest(&report));
            }
        }
        out
    }

    /// Runs every shape once with no pool and no warm start and checks
    /// its digest against the cycles'. Returns `(compared, mismatched)`.
    pub fn check_against_cold(&self) -> (u64, u64) {
        let (mut compared, mut mismatched) = (0, 0);
        for (s, (name, _, run)) in SHAPES.iter().enumerate() {
            let cold = sim_digest(&run(
                &self.platform,
                SimTuning {
                    pool: None,
                    warm_start: false,
                },
            ));
            compared += 1;
            let seen = self.digests[s];
            eprintln!("sim_digest {name}: {cold:016x}");
            if seen != Some(cold) {
                mismatched += 1;
                eprintln!("  differs from the cycles' digest {seen:x?}");
            }
        }
        (compared, mismatched)
    }
}

fn fold(into: &mut KernelStats, s: &KernelStats) {
    into.reshares += s.reshares;
    into.calendar_pops += s.calendar_pops;
    into.calendar_peak = into.calendar_peak.max(s.calendar_peak);
    into.warm_bytes = into.warm_bytes.max(s.warm_bytes);
    into.solver.components_solved += s.solver.components_solved;
    let (w, o) = (&mut into.solver.warm, &s.solver.warm);
    w.levels_replayed += o.levels_replayed;
    w.levels_skipped_split += o.levels_skipped_split;
    w.invalidated_dirty_ratio += o.invalidated_dirty_ratio;
    w.invalidated_seed_cap += o.invalidated_seed_cap;
    w.invalidated_bind_dirty += o.invalidated_bind_dirty;
    w.invalidated_frozen_flow += o.invalidated_frozen_flow;
}
