//! A simulation started from a recycled [`SimScratch`] must be the
//! simulation a fresh scratch would run: bit-identical completions and
//! identical event counts, whatever ran on the scratch before.
//!
//! Each property case runs a random sequence of simulations through one
//! scratch, resetting it between runs, and replays every one of them on
//! a fresh scratch. The sequences mix what leaves state behind in the
//! scratch: capacity overlays that are later restored, resources marked
//! down, scheduled capacity / down / up events, computes, dependencies,
//! zero-size and same-host transfers, flows on the same links in every
//! run (so reshare stamps from one run land on the resources of the
//! next), components large enough for warm-start records, and runs that
//! end in `Err(Stalled)`. After every reset, the `O(resources)` checker
//! `SimScratch::is_pristine` compares every per-resource array with a
//! fresh scratch.
//!
//! `KernelStats::warm_bytes` is left out of the comparison on purpose:
//! it reads buffer capacities, which a recycled scratch keeps.

use seeded::{prelude::*, SmallRng};
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::{
    DeadRoutePolicy, KernelStats, NetworkConfig, Platform, PlatformEventKind, Report,
    SharingPolicy, SimError, SimScratch, SimTime, Simulation, WorkId,
};

const HOSTS: usize = 6;

/// A star: `HOSTS` hosts, each behind its own access link to a hub
/// router. Link `i` is resource `i`; host `i`'s CPU is `HOSTS + i`.
fn star() -> Platform {
    let mut b = PlatformBuilder::new("star", RoutingKind::Floyd);
    let root = b.root_zone();
    let hub = b.add_router(root, "hub");
    for i in 0..HOSTS {
        let h = b.add_host(root, &format!("h{i}"), 1e9);
        let l = b.add_link(&format!("l{i}"), 1.25e8, 1e-3, SharingPolicy::Shared);
        b.add_route(root, Element::Point(h.netpoint()), Element::Point(hub), vec![l], true);
    }
    b.build().expect("valid star")
}

/// One simulation of a sequence, decoded from a seed.
#[derive(Debug)]
struct Step {
    stall: bool,
    /// Transfers added first in every run on the same two links.
    background: usize,
    /// 140 staggered transfers on one host pair: components past the
    /// warm-start threshold, so warm records and dirty stamps are made.
    bulk: bool,
    /// `(src, dst, bytes, start)`; `src == dst` is allowed.
    transfers: Vec<(usize, usize, f64, f64)>,
    /// `(host, flops, start)`.
    computes: Vec<(usize, f64, f64)>,
    /// `(work, dependency)` with `dependency < work`.
    deps: Vec<(usize, usize)>,
    /// Make two works wait on each other: the run ends `Stalled`.
    cycle: bool,
    /// Capacity factors applied before the run (`scale_capacity`).
    overlay: Vec<(u32, f64)>,
    /// Resources marked down before the run.
    downs: Vec<u32>,
    /// `(at, resource, kind)`.
    events: Vec<(f64, u32, PlatformEventKind)>,
}

fn decode(seed: u64) -> Step {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut below = |n: usize| rng.gen_range(0..n);
    let resources = 2 * HOSTS;
    let transfers: Vec<_> = (0..below(8))
        .map(|_| {
            let size = if below(5) == 0 { 0.0 } else { (1 + below(200)) as f64 * 1e5 };
            (below(HOSTS), below(HOSTS), size, below(4) as f64 * 0.05)
        })
        .collect();
    let computes: Vec<_> = (0..below(3))
        .map(|_| (below(HOSTS), (1 + below(50)) as f64 * 1e7, below(4) as f64 * 0.05))
        .collect();
    let works = transfers.len() + computes.len();
    let deps = if works < 2 {
        Vec::new()
    } else {
        (0..below(3))
            .map(|_| {
                let w = 1 + below(works - 1);
                (w, below(w))
            })
            .collect()
    };
    let factors = [0.25, 0.5, 1.0, 2.0];
    let overlay = (0..below(3))
        .map(|_| (below(HOSTS) as u32, factors[below(factors.len())]))
        .collect();
    let downs = (0..usize::from(below(4) == 0)).map(|_| below(resources) as u32).collect();
    let events = (0..below(5))
        .map(|_| {
            let kind = match below(4) {
                0 => PlatformEventKind::Down,
                1 => PlatformEventKind::Up,
                _ => PlatformEventKind::Capacity([0.0, 0.5, 2.0][below(3)]),
            };
            (0.025 + below(8) as f64 * 0.05, below(resources) as u32, kind)
        })
        .collect();
    Step {
        stall: below(3) == 0,
        background: below(4),
        bulk: below(4) == 0,
        transfers,
        computes,
        deps,
        cycle: below(6) == 0,
        overlay,
        downs,
        events,
    }
}

/// Schedules `step` on `sim`, in the same order whatever the scratch.
fn setup(sim: &mut Simulation<'_>, p: &Platform, step: &Step) {
    let hosts: Vec<_> = p.hosts().collect();
    if step.stall {
        sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    }
    for &(r, factor) in &step.overlay {
        sim.scale_capacity(r, factor);
    }
    for &r in &step.downs {
        sim.mark_resource_down(r);
    }
    for i in 0..step.background {
        let (s, d) = if i % 2 == 0 { (0, 1) } else { (2, 0) };
        sim.add_transfer(hosts[s], hosts[d], 5e6).unwrap();
    }
    if step.bulk {
        for i in 0..140 {
            let at = SimTime::from_secs(0.001 * i as f64);
            sim.add_transfer_at(hosts[3], hosts[4], 2e6, at).unwrap();
        }
    }
    let mut ids: Vec<WorkId> = Vec::new();
    for &(s, d, size, start) in &step.transfers {
        ids.push(sim.add_transfer_at(hosts[s], hosts[d], size, SimTime::from_secs(start)).unwrap());
    }
    for &(h, flops, start) in &step.computes {
        ids.push(sim.add_compute_at(hosts[h], flops, SimTime::from_secs(start)));
    }
    for &(w, dep) in &step.deps {
        sim.add_dependencies(ids[w], &[ids[dep]]);
    }
    if step.cycle && ids.len() >= 2 {
        sim.add_dependencies(ids[0], &[ids[1]]);
        sim.add_dependencies(ids[1], &[ids[0]]);
    }
    for &(at, r, kind) in &step.events {
        sim.add_platform_event(r, kind, SimTime::from_secs(at));
    }
}

/// Everything a run reports that must not depend on the scratch: each
/// completion with its times as bits, and every event count.
type Outcome = Result<(Vec<(u32, u64, u64, bool)>, [u64; 3], simflow::SolverStats), SimError>;

fn outcome(result: Result<Report, SimError>) -> Outcome {
    result.map(|r| {
        let completions = r
            .completions
            .iter()
            .map(|c| (c.id.0, c.start.as_secs().to_bits(), c.finish.as_secs().to_bits(), c.failed()))
            .collect();
        let KernelStats { reshares, calendar_pops, calendar_peak, solver, .. } = r.stats;
        assert_eq!(reshares, r.reshares);
        (completions, [reshares, calendar_pops, calendar_peak], solver)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn recycled_scratch_runs_like_a_fresh_one(seeds in collection::vec(any::<u64>(), 1..10)) {
        let p = star();
        let cfg = NetworkConfig::default();
        let base = Simulation::shared_capacities(&p, &cfg);
        let mut scratch = SimScratch::new(base.clone());
        prop_assert!(scratch.is_pristine(&base));
        for (i, &seed) in seeds.iter().enumerate() {
            let step = decode(seed);

            let mut fresh = Simulation::with_capacities(&p, cfg, base.clone());
            setup(&mut fresh, &p, &step);
            let want = outcome(fresh.run());

            let mut recycled = Simulation::from_scratch(&p, cfg, scratch);
            setup(&mut recycled, &p, &step);
            let (got, back) = recycled.run_recycling();
            scratch = back;
            prop_assert_eq!(outcome(got), want, "run {} of {:?}: {:?}", i, seeds, step);

            scratch.reset(&base);
            prop_assert!(scratch.is_pristine(&base), "reset after run {} of {:?}: {:?}", i, seeds, step);
        }
    }
}

#[test]
fn every_kind_of_leftover_is_exercised() {
    // The property is only as strong as its sequences: make sure the
    // decoder reaches each case the module doc lists.
    let steps: Vec<Step> = (0..400).map(decode).collect();
    assert!(steps.iter().any(|s| s.bulk));
    assert!(steps.iter().any(|s| s.cycle && s.transfers.len() + s.computes.len() >= 2));
    assert!(steps.iter().any(|s| s.stall && !s.downs.is_empty()));
    assert!(steps.iter().any(|s| s.overlay.iter().any(|&(_, f)| f != 1.0)));
    assert!(steps.iter().any(|s| !s.deps.is_empty() && !s.computes.is_empty()));
    assert!(steps.iter().any(|s| s.transfers.iter().any(|t| t.2 == 0.0)));
    assert!(steps.iter().any(|s| s.transfers.iter().any(|t| t.0 == t.1)));
    for kind in [PlatformEventKind::Down, PlatformEventKind::Up, PlatformEventKind::Capacity(0.5)] {
        assert!(steps.iter().any(|s| s.events.iter().any(|e| e.2 == kind)), "{kind:?}");
    }
}

#[test]
fn a_stalled_run_hands_its_scratch_back() {
    let p = star();
    let cfg = NetworkConfig::default();
    let base = Simulation::shared_capacities(&p, &cfg);
    let hosts: Vec<_> = p.hosts().collect();
    let mut sim = Simulation::from_scratch(&p, cfg, SimScratch::new(base.clone()));
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    sim.mark_resource_down(0);
    sim.add_transfer(hosts[0], hosts[1], 1e6).unwrap();
    let (result, mut scratch) = sim.run_recycling();
    assert!(matches!(result, Err(SimError::Stalled { .. })), "{result:?}");
    assert!(!scratch.is_pristine(&base));
    scratch.reset(&base);
    assert!(scratch.is_pristine(&base));
}

#[test]
#[should_panic(expected = "without a reset")]
fn a_scratch_cannot_be_reused_without_a_reset() {
    let p = star();
    let cfg = NetworkConfig::default();
    let base = Simulation::shared_capacities(&p, &cfg);
    let (_, scratch) = Simulation::from_scratch(&p, cfg, SimScratch::new(base)).run_recycling();
    Simulation::from_scratch(&p, cfg, scratch);
}
