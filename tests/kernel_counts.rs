//! Exact kernel work counts of the standard shapes.
//!
//! The kernel is deterministic: the same simulation does the same work
//! and lands on the same completion bits on every run and every box. So
//! each row pins *how much* work a fixed shape costs and *what* it
//! computed (an FNV-1a digest of its completion times), and nothing is
//! timed. A kernel change that moves a count re-records the row from the
//! failure message and says why in CHANGES.md.
//!
//! The heavy rows take seconds in a debug build and are opt-in:
//! `cargo test --release --test kernel_counts -- --ignored`.

use g5k::{synth, to_simflow, Flavor};
use simflow::{DeadRoutePolicy, NetworkConfig, Platform, Report, SimTime, Simulation};

/// What one run of a shape did, exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Counts {
    reshares: u64,
    calendar_pops: u64,
    calendar_peak: u64,
    warm_bytes: u64,
    components_solved: u64,
    levels_replayed: u64,
    /// Stored routes plus route-memo entries, on a platform of its own.
    routes: u64,
    digest: u64,
}

/// `(row, platform, shape, counts)`.
type Row = (&'static str, fn() -> Platform, fn(&Platform) -> Report, Counts);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("concurrent/10", standard, |p| concurrent(p, 10, false),
     Counts { reshares: 2, calendar_pops: 10, calendar_peak: 10, warm_bytes: 3628, components_solved: 20, levels_replayed: 0, routes: 511, digest: 0x4852_8a8a_d53d_3fb5 }),
    ("concurrent/50", standard, |p| concurrent(p, 50, false),
     Counts { reshares: 10, calendar_pops: 102, calendar_peak: 80, warm_bytes: 3628, components_solved: 106, levels_replayed: 0, routes: 517, digest: 0x4e64_e207_135d_9ec9 }),
    ("concurrent/100", standard, |p| concurrent(p, 100, false),
     Counts { reshares: 17, calendar_pops: 297, calendar_peak: 170, warm_bytes: 3628, components_solved: 134, levels_replayed: 0, routes: 524, digest: 0xd49b_b03b_c235_63ce }),
    ("concurrent/400", standard, |p| concurrent(p, 400, false),
     Counts { reshares: 61, calendar_pops: 2097, calendar_peak: 2173, warm_bytes: 7220, components_solved: 251, levels_replayed: 165, routes: 565, digest: 0x0dd7_fc90_d858_d671 }),
    ("concurrent/1000", standard, |p| concurrent(p, 1000, false),
     Counts { reshares: 83, calendar_pops: 4782, calendar_peak: 3806, warm_bytes: 12600, components_solved: 301, levels_replayed: 382, routes: 567, digest: 0x18bf_60ee_a68e_6ad5 }),
    ("concurrent/2000", standard, |p| concurrent(p, 2000, false),
     Counts { reshares: 78, calendar_pops: 7356, calendar_peak: 6426, warm_bytes: 22956, components_solved: 259, levels_replayed: 365, routes: 567, digest: 0x1fbd_1632_0c21_6f9c }),
    ("concurrent/10000", standard, |p| concurrent(p, 10_000, false),
     Counts { reshares: 87, calendar_pops: 35219, calendar_peak: 30144, warm_bytes: 99812, components_solved: 299, levels_replayed: 429, routes: 567, digest: 0xdaab_00af_1c7b_26b2 }),
    ("staggered_200", standard, |p| staggered(p, 200),
     Counts { reshares: 400, calendar_pops: 3212, calendar_peak: 1592, warm_bytes: 3628, components_solved: 410, levels_replayed: 0, routes: 540, digest: 0x1cfe_cf2d_5fed_fc6f }),
    ("churn_500", standard, |p| churn(p, 500),
     Counts { reshares: 1000, calendar_pops: 1144, calendar_peak: 357, warm_bytes: 3628, components_solved: 1024, levels_replayed: 0, routes: 565, digest: 0x56ee_780f_456d_88e6 }),
    ("flapping_400", standard, |p| flapping(p, 400),
     Counts { reshares: 59, calendar_pops: 1208, calendar_peak: 801, warm_bytes: 3628, components_solved: 915, levels_replayed: 0, routes: 513, digest: 0xe8db_2103_1136_1c38 }),
    ("multicomp_600", standard, |p| pairs(p, 600, false),
     Counts { reshares: 13, calendar_pops: 1125, calendar_peak: 674, warm_bytes: 3628, components_solved: 978, levels_replayed: 0, routes: 513, digest: 0x6b2f_5344_12a0_f804 }),
    ("mixed_100t_100c", standard, |p| concurrent(p, 100, true),
     Counts { reshares: 21, calendar_pops: 397, calendar_peak: 270, warm_bytes: 3628, components_solved: 334, levels_replayed: 0, routes: 524, digest: 0x8b74_95a3_37ef_6dcd }),
    ("paper_30_transfers", standard, paper_30_transfers,
     Counts { reshares: 2, calendar_pops: 30, calendar_peak: 30, warm_bytes: 3628, components_solved: 64, levels_replayed: 0, routes: 512, digest: 0x62ea_97ec_46a7_713d }),
];

#[rustfmt::skip]
const HEAVY_ROWS: &[Row] = &[
    ("concurrent/50000", standard, |p| concurrent(p, 50_000, false),
     Counts { reshares: 80, calendar_pops: 171801, calendar_peak: 154129, warm_bytes: 115960, components_solved: 302, levels_replayed: 4, routes: 567, digest: 0xa096_ec7e_0a9a_6eff }),
    ("g5k_100k_hosts", || to_simflow(&synth::synthetic(100_000), Flavor::G5kTest), |p| pairs(p, 50_000, true),
     Counts { reshares: 6, calendar_pops: 51562, calendar_peak: 50781, warm_bytes: 804900, components_solved: 99294, levels_replayed: 0, routes: 106900, digest: 0x2062_3eac_e6fe_f570 }),
];

/// `bulk_sim`'s cycle `(row, runs)`; these rows' digests are its `sim_digest`s.
const BULK_SIM: [(&str, u64); 5] = [
    ("concurrent/10000", 1),
    ("staggered_200", 10),
    ("churn_500", 9),
    ("flapping_400", 70),
    ("multicomp_600", 90),
];

fn standard() -> Platform {
    to_simflow(&synth::standard(), Flavor::G5kTest)
}

/// FNV-1a over each completion's finish-time bits and failure flag.
fn digest(report: &Report) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in &report.completions {
        for word in [c.finish.as_secs().to_bits(), u64::from(c.failed())] {
            h = (h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn measure(&(_, build, shape, _): &Row) -> Counts {
    let platform = build();
    let report = shape(&platform);
    let s = &report.stats;
    Counts {
        reshares: s.reshares,
        calendar_pops: s.calendar_pops,
        calendar_peak: s.calendar_peak,
        warm_bytes: s.warm_bytes,
        components_solved: s.solver.components_solved,
        levels_replayed: s.solver.warm.levels_replayed,
        routes: platform.stored_route_entries() as u64 + platform.route_memo_stats().entries,
        digest: digest(&report),
    }
}

/// Fails listing every row that moved, so a re-record sees them all.
fn check(rows: &[Row]) {
    let moved: Vec<String> = rows
        .iter()
        .filter_map(|row @ &(name, .., want)| {
            let got = measure(row);
            (got != want).then(|| {
                format!("{name}\n  pinned {want:?}\n  got    {got:?} = {:#x}", got.digest)
            })
        })
        .collect();
    assert!(moved.is_empty(), "kernel work moved:\n{}", moved.join("\n"));
}

#[test]
fn standard_shapes_do_exactly_the_pinned_work() {
    check(ROWS);
}

#[test]
#[ignore = "seconds in debug; run with --release -- --ignored"]
fn heavy_shapes_do_exactly_the_pinned_work() {
    check(HEAVY_ROWS);
}

#[test]
fn rows_weighted_as_bulk_sim_give_its_traced_cycle() {
    let mut cycle = (0, 0, 0, 0);
    for (name, runs) in BULK_SIM {
        let (.., c) = ROWS.iter().find(|r| r.0 == name).expect("bulk_sim shape has a row");
        cycle.0 += runs * c.reshares;
        cycle.1 += runs * c.calendar_pops;
        cycle.2 = cycle.2.max(c.calendar_peak);
        cycle.3 = cycle.3.max(c.warm_bytes);
    }
    // reshares_per_op, calendar_pops_per_op, calendar_peak, warm_bytes
    assert_eq!(cycle, (18_387, 263_445, 30_144, 99_812));
}

/// Transfers `i → 7i + 13`, all starting at once; with `compute`, one
/// compute task per transfer too.
fn concurrent(p: &Platform, n: usize, compute: bool) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let mut sim = Simulation::new(p, NetworkConfig::default());
    for i in 0..n {
        let (src, dst) = (hosts[i % hosts.len()], hosts[(i * 7 + 13) % hosts.len()]);
        if src != dst {
            sim.add_transfer(src, dst, 1e8).unwrap();
        }
        if compute {
            sim.add_compute(hosts[(i * 3) % hosts.len()], 1e10);
        }
    }
    sim.run().unwrap()
}

fn staggered(p: &Platform, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let mut sim = Simulation::new(p, NetworkConfig::default());
    for i in 0..n {
        let (src, dst) = (hosts[i % hosts.len()], hosts[(i * 11 + 29) % hosts.len()]);
        if src != dst {
            sim.add_transfer_at(src, dst, 5e7, SimTime::from_secs(0.01 * i as f64)).unwrap();
        }
    }
    sim.run().unwrap()
}

/// Staggered pair-local arrivals that finish while later ones start; every
/// fifth bridges two pair components, so (de)activations interleave.
fn churn(p: &Platform, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let nh = hosts.len();
    let mut sim = Simulation::new(p, NetworkConfig::default());
    for i in 0..n {
        let (src, dst) = if i % 5 == 4 {
            (hosts[(i * 13) % nh], hosts[(i * 31 + nh / 2) % nh])
        } else {
            let pair = (i / 2) % (nh / 2);
            (hosts[2 * pair], hosts[2 * pair + 1])
        };
        if src != dst {
            let size = 2e7 + 1e6 * (i % 7) as f64;
            sim.add_transfer_at(src, dst, size, SimTime::from_secs(0.002 * i as f64)).unwrap();
        }
    }
    sim.run().unwrap()
}

/// Pair-local transfers whose access links degrade and recover, and on
/// every eighth pair fail and revive, mid-transfer under `Stall`.
fn flapping(p: &Platform, n: usize) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let n_pairs = hosts.len() / 2;
    let mut sim = Simulation::new(p, NetworkConfig::default());
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    for k in 0..n {
        let pair = k % n_pairs;
        let (src, dst) = (hosts[2 * pair], hosts[2 * pair + 1]);
        sim.add_transfer(src, dst, 1e8).unwrap();
        if k < n_pairs {
            let l = p.route_hosts(src, dst).unwrap().links[0];
            let phase = 0.01 * (pair % 16) as f64;
            sim.add_capacity_change(l, 0.5, SimTime::from_secs(0.2 + phase));
            sim.add_capacity_change(l, 1.0, SimTime::from_secs(1.5 + phase));
            if pair % 8 == 0 {
                sim.add_link_down(l, SimTime::from_secs(0.8 + phase));
                sim.add_link_up(l, SimTime::from_secs(1.1 + phase));
            }
        }
    }
    sim.run().unwrap()
}

/// Transfers `2k → 2k+1`, each pair its own sharing component; with
/// `backbone`, every 64th crosses the platform instead.
fn pairs(p: &Platform, n: usize, backbone: bool) -> Report {
    let hosts: Vec<_> = p.hosts().collect();
    let nh = hosts.len();
    let mut sim = Simulation::new(p, NetworkConfig::default());
    for k in 0..n {
        let pair = k % (nh / 2);
        let dst = if backbone && k % 64 == 63 { (2 * pair + nh / 2) % nh } else { 2 * pair + 1 };
        let size = 5e7 * (1 + k / (nh / 2)) as f64;
        sim.add_transfer(hosts[2 * pair], hosts[dst], size).unwrap();
    }
    sim.run().unwrap()
}

/// The paper's budget, a 30-transfer prediction in under 0.1 s, on the
/// request `pnfs::tests::thirty_concurrent_transfers_are_fast_to_predict` times.
fn paper_30_transfers(p: &Platform) -> Report {
    let host = |i: usize| p.host_by_name(&format!("graphene-{i}.nancy.grid5000.fr")).unwrap();
    let mut sim = Simulation::new(p, NetworkConfig::default());
    for i in 0..30 {
        sim.add_transfer(host(i + 1), host(i + 60), 1e9).unwrap();
    }
    sim.run().unwrap()
}
