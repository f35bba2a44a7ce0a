//! Tests of trace-driven platform events: capacity churn, link
//! failure/recovery, and the dead-route policies.
//!
//! The property tests pin the incremental kernel against a from-scratch
//! reference kernel (full rescans, a one-shot [`SharingProblem`] rebuilt
//! at every instant under the current effective capacities), with warm
//! start on and off. All randomized inputs are raw integers and `Vec`s
//! so minimal counterexamples shrink well.
//!
//! Equality discipline follows `model.rs`: runs across tunings must be
//! *bit-identical* to each other; against the from-scratch reference the
//! long activate/deactivate history may accumulate a relative error of a
//! few ulps (≤ 1e-9), exactly like the solver's own history tests.

use seeded::{self as proptest, prelude::*};
use simflow::model::SharingProblem;
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::{
    CompletionOutcome, DeadRoutePolicy, NetworkConfig, Platform, PlatformEventKind, ResolvedPath,
    SharingPolicy, SimTime, SimTuning, Simulation,
};

/// A star platform: `n` hosts, each with its own access link to a hub
/// router; link `i` is solver resource `i`.
fn star(n: usize, bw: f64) -> Platform {
    let mut b = PlatformBuilder::new("star", RoutingKind::Floyd);
    let root = b.root_zone();
    let hub = b.add_router(root, "hub");
    for i in 0..n {
        let h = b.add_host(root, &format!("h{i}"), 1e9);
        let l = b.add_link(&format!("l{i}"), bw, 0.0, SharingPolicy::Shared);
        b.add_route(root, Element::Point(h.netpoint()), Element::Point(hub), vec![l], true);
    }
    b.build().expect("valid star")
}

/// a --l(bw, 0)-- b, the one-link topology.
fn pair(bw: f64) -> Platform {
    let mut b = PlatformBuilder::new("root", RoutingKind::Full);
    let root = b.root_zone();
    let a = b.add_host(root, "a", 1e9);
    let c = b.add_host(root, "b", 1e9);
    let l = b.add_link("l", bw, 0.0, SharingPolicy::Shared);
    b.add_route(root, Element::Point(a.netpoint()), Element::Point(c.netpoint()), vec![l], true);
    b.build().unwrap()
}

fn close(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a - b).abs() <= 1e-9 * b.abs().max(1e-9)
}

/// One job of a randomized schedule, with its resolved route.
struct RefJob {
    start: f64,
    size: f64,
    path: ResolvedPath,
}

/// From-scratch reference kernel with platform events: at every instant
/// the whole schedule is rescanned and a fresh [`SharingProblem`] built
/// under the current effective capacities. Returns `(finish, failed)`
/// per job, or `None` if the schedule can never finish (a permanently
/// stalled flow).
fn reference_run(
    base: &[f64],
    jobs: &[RefJob],
    events: &[(f64, usize, PlatformEventKind)],
    policy: DeadRoutePolicy,
) -> Option<Vec<(f64, bool)>> {
    #[derive(PartialEq, Clone, Copy)]
    enum St {
        Sched,
        Run,
        Done,
    }
    // Same per-instant order as the kernel's event queue: stable by time.
    let mut events: Vec<(f64, usize, PlatformEventKind)> = events.to_vec();
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());

    let tol: Vec<f64> = jobs.iter().map(|j| 1e-9 * j.size.max(1.0) + 1e-6).collect();
    let mut remaining: Vec<f64> = jobs.iter().map(|j| j.size).collect();
    let mut rate = vec![0.0f64; jobs.len()];
    let mut st = vec![St::Sched; jobs.len()];
    let mut finish = vec![0.0f64; jobs.len()];
    let mut failed = vec![false; jobs.len()];
    let mut factor = vec![1.0f64; base.len()];
    let mut down = vec![false; base.len()];
    let mut ev_i = 0usize;
    let mut now = 0.0f64;
    let mut left = jobs.len();

    while left > 0 {
        let next_start = jobs
            .iter()
            .enumerate()
            .filter(|(i, _)| st[*i] == St::Sched)
            .map(|(_, j)| j.start)
            .fold(f64::INFINITY, f64::min);
        let next_event = events.get(ev_i).map(|e| e.0).unwrap_or(f64::INFINITY);
        let mut next_done = f64::INFINITY;
        for i in 0..jobs.len() {
            if st[i] == St::Run {
                if remaining[i] <= tol[i] || rate[i].is_infinite() {
                    next_done = now;
                    break;
                }
                if rate[i] > 0.0 {
                    next_done = next_done.min(now + remaining[i] / rate[i]);
                }
            }
        }
        let t = next_start.min(next_event).min(next_done);
        if !t.is_finite() {
            return None; // permanently stalled
        }
        let dt = t - now;
        if dt > 0.0 {
            for i in 0..jobs.len() {
                if st[i] == St::Run && rate[i] > 0.0 {
                    remaining[i] = (remaining[i] - rate[i] * dt).max(0.0);
                }
            }
        }
        now = t;

        // Completions first, exactly like the kernel's batch.
        for i in 0..jobs.len() {
            if st[i] == St::Run && (remaining[i] <= tol[i] || rate[i].is_infinite()) {
                st[i] = St::Done;
                finish[i] = now;
                left -= 1;
            }
        }
        // Platform events due now.
        while ev_i < events.len() && events[ev_i].0 <= now {
            let (_, r, kind) = events[ev_i];
            ev_i += 1;
            match kind {
                PlatformEventKind::Capacity(f) => factor[r] = f,
                PlatformEventKind::Down => {
                    if !down[r] {
                        down[r] = true;
                        if policy == DeadRoutePolicy::Fail {
                            for i in 0..jobs.len() {
                                if st[i] == St::Run
                                    && jobs[i].path.resources.contains(&(r as u32))
                                {
                                    st[i] = St::Done;
                                    finish[i] = now;
                                    failed[i] = true;
                                    left -= 1;
                                }
                            }
                        }
                    }
                }
                PlatformEventKind::Up => down[r] = false,
            }
        }
        // Starts due now (dead routes fail immediately under `Fail`).
        for i in 0..jobs.len() {
            if st[i] == St::Sched && jobs[i].start <= now {
                if policy == DeadRoutePolicy::Fail
                    && jobs[i].path.resources.iter().any(|&r| down[r as usize])
                {
                    st[i] = St::Done;
                    finish[i] = now;
                    failed[i] = true;
                    left -= 1;
                } else {
                    st[i] = St::Run;
                }
            }
        }

        // Fresh rebuild under the current effective capacities.
        let caps: Vec<f64> = base
            .iter()
            .enumerate()
            .map(|(r, b)| if down[r] { 0.0 } else { b * factor[r] })
            .collect();
        let mut problem = SharingProblem::with_capacities(caps);
        let mut running = Vec::new();
        for (i, s) in st.iter().enumerate() {
            if *s == St::Run {
                problem.add_flow(jobs[i].path.resources.clone(), jobs[i].path.weight, jobs[i].path.cap);
                running.push(i);
            }
        }
        let rates = problem.solve();
        for (slot, &i) in running.iter().enumerate() {
            rate[i] = rates[slot];
        }
    }
    Some(finish.into_iter().zip(failed).collect())
}

/// Runs the incremental kernel on the same schedule under one tuning.
fn kernel_run(
    p: &Platform,
    jobs: &[RefJob],
    src_dst: &[(usize, usize)],
    events: &[(f64, usize, PlatformEventKind)],
    policy: DeadRoutePolicy,
    warm: bool,
) -> Result<Vec<(f64, bool)>, simflow::SimError> {
    let cfg = NetworkConfig::ideal();
    let hosts: Vec<_> = p.hosts().collect();
    let tuning = SimTuning { warm_start: warm, ..SimTuning::default() };
    let mut sim =
        Simulation::with_tuning(p, cfg, Simulation::shared_capacities(p, &cfg), tuning);
    sim.set_dead_route_policy(policy);
    let ids: Vec<_> = jobs
        .iter()
        .zip(src_dst)
        .map(|(j, &(s, d))| {
            sim.add_transfer_at(hosts[s], hosts[d], j.size, SimTime::from_secs(j.start)).unwrap()
        })
        .collect();
    for &(at, r, kind) in events {
        sim.add_platform_event(r as u32, kind, SimTime::from_secs(at));
    }
    let report = sim.run()?;
    Ok(ids
        .iter()
        .map(|id| {
            let c = report.completion(*id);
            (c.finish.as_secs(), c.failed())
        })
        .collect())
}

/// Builds the resolved jobs for a star schedule from raw integers.
fn star_jobs(
    p: &Platform,
    starts: &[u32],
    sizes: &[u32],
    pairs: &[(u32, u32)],
) -> (Vec<RefJob>, Vec<(usize, usize)>) {
    let cfg = NetworkConfig::ideal();
    let hosts: Vec<_> = p.hosts().collect();
    let n = hosts.len();
    let mut jobs = Vec::new();
    let mut src_dst = Vec::new();
    for ((&st, &sz), &(a, b)) in starts.iter().zip(sizes).zip(pairs) {
        let s = a as usize % n;
        let mut d = b as usize % n;
        if d == s {
            d = (d + 1) % n;
        }
        jobs.push(RefJob {
            start: st as f64 * 0.25,
            size: sz as f64 * 1e3,
            path: ResolvedPath::resolve(p, &cfg, hosts[s], hosts[d]).unwrap(),
        });
        src_dst.push((s, d));
    }
    (jobs, src_dst)
}

/// Cross-checks one schedule: every tuning bit-identical to the first,
/// and the first within 1e-9 relative of the from-scratch reference.
/// Panics on divergence (`prop_assert!` is a plain `assert!`).
fn check_schedule(
    p: &Platform,
    jobs: &[RefJob],
    src_dst: &[(usize, usize)],
    events: &[(f64, usize, PlatformEventKind)],
    policy: DeadRoutePolicy,
) {
    let base: Vec<f64> = {
        let cfg = NetworkConfig::ideal();
        Simulation::shared_capacities(p, &cfg)
    };
    let want = reference_run(&base, jobs, events, policy);
    let mut first: Option<Vec<(u64, bool)>> = None;
    for warm in [false, true] {
        let got = kernel_run(p, jobs, src_dst, events, policy, warm);
        match (&want, got) {
            (None, Err(simflow::SimError::Stalled { .. })) => {}
            (None, other) => {
                panic!("reference stalled but kernel returned {other:?} (warm={warm})");
            }
            (Some(want), Ok(got)) => {
                assert_eq!(got.len(), want.len());
                for (i, ((gf, gfail), (wf, wfail))) in got.iter().zip(want).enumerate() {
                    assert!(
                        close(*gf, *wf),
                        "job {i}: finish {gf} vs reference {wf} (warm={warm})"
                    );
                    assert_eq!(gfail, wfail, "job {i} outcome diverges (warm={warm})");
                }
                let bits: Vec<(u64, bool)> =
                    got.iter().map(|(f, x)| (f.to_bits(), *x)).collect();
                match &first {
                    None => first = Some(bits),
                    Some(f) => assert_eq!(f, &bits, "tunings diverge bit-wise (warm={warm})"),
                }
            }
            (Some(_), Err(e)) => {
                panic!("kernel failed where reference finished: {e} (warm={warm})");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Pure capacity churn (factors in [0.1, 4.0]): completions match a
    /// from-scratch rebuild at every event time, bit-identical across
    /// tunings, and nothing fails.
    #[test]
    fn capacity_churn_matches_fresh_rebuild(
        starts in proptest::collection::vec(0u32..16, 1..8),
        sizes in proptest::collection::vec(1u32..100_000, 8),
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 8),
        churn in proptest::collection::vec((0u32..16, 0u32..6, 100u32..4000), 0..10),
    ) {
        let p = star(6, 1e8);
        let (jobs, src_dst) = star_jobs(&p, &starts, &sizes, &pairs);
        // Event instants sit strictly between job start slots.
        let events: Vec<(f64, usize, PlatformEventKind)> = churn
            .iter()
            .map(|&(slot, r, permille)| {
                (
                    slot as f64 * 0.25 + 0.125,
                    r as usize,
                    PlatformEventKind::Capacity(permille as f64 / 1000.0),
                )
            })
            .collect();
        check_schedule(&p, &jobs, &src_dst, &events, DeadRoutePolicy::Fail);
    }

    /// Down/up flap pairs under the `Stall` policy: outages freeze the
    /// crossing flows and completions still match the fresh rebuild.
    #[test]
    fn stall_flaps_match_fresh_rebuild(
        starts in proptest::collection::vec(0u32..16, 1..8),
        sizes in proptest::collection::vec(1u32..100_000, 8),
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 8),
        flaps in proptest::collection::vec((0u32..16, 0u32..6, 1u32..8), 0..6),
    ) {
        let p = star(6, 1e8);
        let (jobs, src_dst) = star_jobs(&p, &starts, &sizes, &pairs);
        let mut events: Vec<(f64, usize, PlatformEventKind)> = Vec::new();
        for &(slot, r, dur) in &flaps {
            let at = slot as f64 * 0.25 + 0.125;
            events.push((at, r as usize, PlatformEventKind::Down));
            events.push((at + dur as f64 * 0.25, r as usize, PlatformEventKind::Up));
        }
        check_schedule(&p, &jobs, &src_dst, &events, DeadRoutePolicy::Stall);
    }

    /// Down events under the `Fail` policy (with or without recovery):
    /// crossing flows fail at the event instant, disjoint flows are
    /// untouched, and everything matches the fresh rebuild.
    #[test]
    fn fail_flaps_match_fresh_rebuild(
        starts in proptest::collection::vec(0u32..16, 1..8),
        sizes in proptest::collection::vec(1u32..100_000, 8),
        pairs in proptest::collection::vec((0u32..6, 0u32..6), 8),
        flaps in proptest::collection::vec((0u32..16, 0u32..6, 0u32..8), 0..6),
    ) {
        let p = star(6, 1e8);
        let (jobs, src_dst) = star_jobs(&p, &starts, &sizes, &pairs);
        let mut events: Vec<(f64, usize, PlatformEventKind)> = Vec::new();
        for &(slot, r, dur) in &flaps {
            let at = slot as f64 * 0.25 + 0.125;
            events.push((at, r as usize, PlatformEventKind::Down));
            if dur > 0 {
                events.push((at + dur as f64 * 0.25, r as usize, PlatformEventKind::Up));
            }
        }
        check_schedule(&p, &jobs, &src_dst, &events, DeadRoutePolicy::Fail);
    }
}

// -- deterministic units --------------------------------------------------

#[test]
fn capacity_change_rescales_exactly() {
    // 100 MB at 100 MB/s; halved at t = 0.5 → 50 MB left at 50 MB/s.
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    let t = sim.add_transfer(a, b, 1e8).unwrap();
    sim.add_capacity_change(p.link_by_name("l").unwrap(), 0.5, SimTime::from_secs(0.5));
    let r = sim.run().unwrap();
    assert!(close(r.completion(t).finish.as_secs(), 1.5), "{r:?}");
    assert_eq!(r.completion(t).outcome, CompletionOutcome::Completed);
}

#[test]
fn link_down_fail_kills_crossing_flows_only() {
    // Flow A crosses links 0-1, flow B crosses links 2-3; link 0 dies at
    // t = 0.5. A fails at that instant, B must be bit-identical to a run
    // with no events at all.
    let p = star(4, 1e8);
    let hosts: Vec<_> = p.hosts().collect();
    let run = |with_event: bool| {
        let mut sim = Simulation::new(&p, NetworkConfig::ideal());
        let fa = sim.add_transfer(hosts[0], hosts[1], 2e8).unwrap();
        let fb = sim.add_transfer(hosts[2], hosts[3], 2e8).unwrap();
        if with_event {
            sim.add_platform_event(0, PlatformEventKind::Down, SimTime::from_secs(0.5));
        }
        let r = sim.run().unwrap();
        (r.completion(fa).clone(), r.completion(fb).clone())
    };
    let (a_plain, b_plain) = run(false);
    let (a_down, b_down) = run(true);
    assert_eq!(a_down.outcome, CompletionOutcome::Failed);
    assert_eq!(a_down.finish.as_secs(), 0.5);
    assert!(a_plain.outcome == CompletionOutcome::Completed);
    assert_eq!(
        b_down.finish.as_secs().to_bits(),
        b_plain.finish.as_secs().to_bits(),
        "disjoint flow must be bit-unaffected"
    );
    assert_eq!(b_down.outcome, CompletionOutcome::Completed);
}

#[test]
fn link_down_stall_pauses_and_resumes() {
    // 100 MB at 100 MB/s; dead in [0.3, 0.8] → finish slides to 1.5.
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let l = p.link_by_name("l").unwrap();
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    let t = sim.add_transfer(a, b, 1e8).unwrap();
    sim.add_link_down(l, SimTime::from_secs(0.3));
    sim.add_link_up(l, SimTime::from_secs(0.8));
    let r = sim.run().unwrap();
    assert!(close(r.completion(t).finish.as_secs(), 1.5), "{r:?}");
    assert_eq!(r.completion(t).outcome, CompletionOutcome::Completed);
}

#[test]
fn unrecovered_stall_reports_stalled() {
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    sim.add_transfer(a, b, 1e8).unwrap();
    sim.add_link_down(p.link_by_name("l").unwrap(), SimTime::from_secs(0.25));
    assert!(matches!(sim.run(), Err(simflow::SimError::Stalled { at }) if at == 0.25));
}

#[test]
fn dependents_of_failed_work_fail_transitively() {
    // t1 dies mid-flight at 0.5; the compute depending on it (and the
    // transfer depending on that) must fail at the same instant.
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    let t1 = sim.add_transfer(a, b, 1e8).unwrap();
    let c = sim.add_compute(b, 1e9);
    let t2 = sim.add_transfer(b, a, 1e7).unwrap();
    sim.add_dependencies(c, &[t1]);
    sim.add_dependencies(t2, &[c]);
    sim.add_link_down(p.link_by_name("l").unwrap(), SimTime::from_secs(0.5));
    let r = sim.run().unwrap();
    for id in [t1, c, t2] {
        assert_eq!(r.completion(id).outcome, CompletionOutcome::Failed, "{r:?}");
        assert_eq!(r.completion(id).finish.as_secs(), 0.5, "{r:?}");
    }
}

#[test]
fn start_onto_dead_route_fails_at_start() {
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.add_link_down(p.link_by_name("l").unwrap(), SimTime::from_secs(0.1));
    let t = sim.add_transfer_at(a, b, 1e8, SimTime::from_secs(0.5)).unwrap();
    let r = sim.run().unwrap();
    let c = r.completion(t);
    assert_eq!(c.outcome, CompletionOutcome::Failed);
    assert_eq!(c.finish.as_secs(), 0.5);
    assert_eq!(c.duration().as_secs(), 0.0);
}

#[test]
fn mark_resource_down_fails_from_t_zero() {
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    let t = sim.add_transfer(a, b, 1e8).unwrap();
    sim.mark_resource_down(0);
    let r = sim.run().unwrap();
    assert_eq!(r.completion(t).outcome, CompletionOutcome::Failed);
    assert_eq!(r.completion(t).finish.as_secs(), 0.0);
}

#[test]
fn mark_resource_down_with_scheduled_recovery_stalls_then_runs() {
    // Degraded at t = 0, recovers at 0.5: 100 MB then takes 1 s.
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    let t = sim.add_transfer(a, b, 1e8).unwrap();
    sim.mark_resource_down(0);
    sim.add_link_up(p.link_by_name("l").unwrap(), SimTime::from_secs(0.5));
    let r = sim.run().unwrap();
    assert!(close(r.completion(t).finish.as_secs(), 1.5), "{r:?}");
}

#[test]
fn capacity_change_while_down_applies_on_recovery() {
    // Down in [0.2, 0.4] with the factor halved mid-outage: 20 MB done
    // before the outage, 80 MB at 50 MB/s after → finish at 2.0.
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let l = p.link_by_name("l").unwrap();
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    let t = sim.add_transfer(a, b, 1e8).unwrap();
    sim.add_link_down(l, SimTime::from_secs(0.2));
    sim.add_capacity_change(l, 0.5, SimTime::from_secs(0.3));
    sim.add_link_up(l, SimTime::from_secs(0.4));
    let r = sim.run().unwrap();
    assert!(close(r.completion(t).finish.as_secs(), 2.0), "{r:?}");
}

#[test]
fn same_instant_events_batch_into_one_reshare() {
    // Two capacity changes at the same instant over one running flow:
    // start, merged event batch, completion — exactly three reshares.
    let p = star(2, 1e8);
    let hosts: Vec<_> = p.hosts().collect();
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    let t = sim.add_transfer(hosts[0], hosts[1], 1e8).unwrap();
    sim.add_platform_event(0, PlatformEventKind::Capacity(0.5), SimTime::from_secs(0.5));
    sim.add_platform_event(1, PlatformEventKind::Capacity(0.25), SimTime::from_secs(0.5));
    let r = sim.run().unwrap();
    assert_eq!(r.reshares, 3, "{r:?}");
    // bottleneck is link 1 at 25 MB/s: 50 MB left → 2 s more.
    assert!(close(r.completion(t).finish.as_secs(), 2.5), "{r:?}");
}

#[test]
fn platform_events_are_traced() {
    let p = pair(1e8);
    let (a, b) = (p.host_by_name("a").unwrap(), p.host_by_name("b").unwrap());
    let l = p.link_by_name("l").unwrap();
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.set_dead_route_policy(DeadRoutePolicy::Stall);
    sim.add_transfer(a, b, 1e8).unwrap();
    sim.add_link_down(l, SimTime::from_secs(0.3));
    sim.add_link_up(l, SimTime::from_secs(0.8));
    let (_, trace) = sim.run_traced().unwrap();
    let platform: Vec<(u32, f64, f64)> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            simflow::TraceEvent::PlatformChanged { resource, at, capacity } => {
                Some((*resource, at.as_secs(), *capacity))
            }
            _ => None,
        })
        .collect();
    assert_eq!(platform, vec![(0, 0.3, 0.0), (0, 0.8, 1e8)]);
    assert!(trace.render().contains("platform"));
}

#[test]
#[should_panic(expected = "unknown resource")]
fn platform_event_rejects_unknown_resource() {
    let p = pair(1e8);
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.add_platform_event(99, PlatformEventKind::Down, SimTime::ZERO);
}

#[test]
#[should_panic(expected = "invalid capacity factor")]
fn platform_event_rejects_bad_factor() {
    let p = pair(1e8);
    let mut sim = Simulation::new(&p, NetworkConfig::ideal());
    sim.add_platform_event(0, PlatformEventKind::Capacity(f64::NAN), SimTime::ZERO);
}
