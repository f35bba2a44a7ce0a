//! Property-based tests of the max-min solver invariants.
//!
//! These are the mathematical guarantees the CM02/LV08 sharing model rests
//! on: allocations must be *feasible* (no resource over capacity),
//! *Pareto-efficient* (every flow is pinned by a saturated resource or its
//! own cap), and *monotone* (adding capacity never hurts anyone's rate in
//! the single-resource case).

use seeded::{self as proptest, prelude::*};
use simflow::model::{MaxMinSolver, SharingProblem};

/// A random sharing problem: `nr` resources with capacities in [1, 1000],
/// up to `nf` flows crossing random non-empty resource subsets, weights in
/// [0.1, 10], and caps either infinite or in [0.1, 500].
fn arb_problem() -> impl Strategy<Value = SharingProblem> {
    (1usize..6, 1usize..12).prop_flat_map(|(nr, nf)| {
        let caps = proptest::collection::vec(1.0f64..1000.0, nr);
        let flows = proptest::collection::vec(
            (
                proptest::collection::btree_set(0..nr as u32, 1..=nr),
                0.1f64..10.0,
                prop_oneof![Just(f64::INFINITY), 0.1f64..500.0],
            ),
            1..=nf,
        );
        (caps, flows).prop_map(|(capacity, flows)| {
            let mut p = SharingProblem::with_capacities(capacity);
            for (res, w, cap) in flows {
                p.add_flow(res.into_iter().collect(), w, cap);
            }
            p
        })
    })
}

proptest! {
    /// No resource carries more than its capacity (within float slack).
    #[test]
    fn allocation_is_feasible(p in arb_problem()) {
        let rates = p.solve();
        for (r, &cap) in p.capacity.iter().enumerate() {
            let load: f64 = p
                .flows
                .iter()
                .zip(&rates)
                .filter(|(f, _)| f.resources.contains(&(r as u32)))
                .map(|(_, rate)| *rate)
                .sum();
            prop_assert!(
                load <= cap * (1.0 + 1e-6) + 1e-9,
                "resource {r}: load {load} > capacity {cap}"
            );
        }
    }

    /// Every flow is positive and bounded by its cap.
    #[test]
    fn rates_respect_caps(p in arb_problem()) {
        let rates = p.solve();
        for (f, rate) in p.flows.iter().zip(&rates) {
            prop_assert!(*rate > 0.0, "rate must be positive: {rate}");
            prop_assert!(
                *rate <= f.cap * (1.0 + 1e-6),
                "rate {rate} exceeds cap {}",
                f.cap
            );
        }
    }

    /// Pareto efficiency: every flow is blocked by its cap or crosses at
    /// least one saturated resource — no flow could be unilaterally raised.
    #[test]
    fn allocation_is_pareto_efficient(p in arb_problem()) {
        let rates = p.solve();
        let mut load = vec![0.0f64; p.capacity.len()];
        for (f, rate) in p.flows.iter().zip(&rates) {
            for &r in &f.resources {
                load[r as usize] += *rate;
            }
        }
        for (i, (f, rate)) in p.flows.iter().zip(&rates).enumerate() {
            let capped = *rate >= f.cap * (1.0 - 1e-6);
            let blocked = f
                .resources
                .iter()
                .any(|&r| load[r as usize] >= p.capacity[r as usize] * (1.0 - 1e-6));
            prop_assert!(
                capped || blocked,
                "flow {i} (rate {rate}, cap {}) is neither capped nor blocked",
                f.cap
            );
        }
    }

    /// Single shared resource, equal weights, no caps: everyone gets C/n.
    #[test]
    fn equal_split_on_single_resource(
        cap in 1.0f64..1e6,
        n in 1usize..50,
    ) {
        let mut p = SharingProblem::with_capacities(vec![cap]);
        for _ in 0..n {
            p.add_flow(vec![0], 1.0, f64::INFINITY);
        }
        let rates = p.solve();
        for r in &rates {
            prop_assert!((r - cap / n as f64).abs() < 1e-6 * cap);
        }
    }

    /// Growing a single resource's capacity never lowers any rate.
    #[test]
    fn monotone_in_capacity(
        cap in 1.0f64..1000.0,
        extra in 0.0f64..1000.0,
        weights in proptest::collection::vec(0.1f64..10.0, 1..10),
    ) {
        let solve = |c: f64| {
            let mut p = SharingProblem::with_capacities(vec![c]);
            for w in &weights {
                p.add_flow(vec![0], *w, f64::INFINITY);
            }
            p.solve()
        };
        let before = solve(cap);
        let after = solve(cap + extra);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(*a >= *b * (1.0 - 1e-9), "rate dropped: {b} -> {a}");
        }
    }

    /// Weighted shares on one resource follow 1/w exactly when nothing is
    /// capped: rate_i = C · (1/w_i) / Σ(1/w).
    #[test]
    fn weighted_shares_formula(
        cap in 1.0f64..1e6,
        weights in proptest::collection::vec(0.1f64..10.0, 1..10),
    ) {
        let mut p = SharingProblem::with_capacities(vec![cap]);
        for w in &weights {
            p.add_flow(vec![0], *w, f64::INFINITY);
        }
        let rates = p.solve();
        let inv_sum: f64 = weights.iter().map(|w| 1.0 / w).sum();
        for (w, r) in weights.iter().zip(&rates) {
            let expect = cap * (1.0 / w) / inv_sum;
            prop_assert!(
                (r - expect).abs() <= 1e-6 * expect,
                "weight {w}: rate {r}, expected {expect}"
            );
        }
    }
}

/// Counterexamples come back small through `arb_problem`'s
/// `prop_flat_map` and `prop_map`: a property false on purpose — no
/// resource carries two flows — fails on a problem of at most three
/// resources and three flows, not on the random problem that first
/// failed.
#[test]
fn a_failing_problem_shrinks_to_a_few_resources_and_flows() {
    let shares_a_resource = |p: &SharingProblem| {
        (0..p.capacity.len() as u32)
            .any(|r| p.flows.iter().filter(|f| f.resources.contains(&r)).count() > 1)
    };
    let p = seeded::minimal_failure(
        "maxmin_properties::shrinking",
        ProptestConfig::with_cases(64),
        &arb_problem(),
        shares_a_resource,
    )
    .expect("random problems share resources");
    assert!(shares_a_resource(&p));
    assert!(p.capacity.len() <= 3 && p.flows.len() <= 3, "not shrunk: {p:?}");
}

// ---------------------------------------------------------------------------
// Incremental solver vs the one-shot reference

/// Like [`arb_problem`] but also generating *resource-free* flows (empty
/// resource set), both cap-only and fully unconstrained — the kernel's
/// same-host transfers and fat-pipe-only routes.
fn arb_problem_with_free() -> impl Strategy<Value = SharingProblem> {
    (1usize..6, 1usize..14).prop_flat_map(|(nr, nf)| {
        let caps = proptest::collection::vec(1.0f64..1000.0, nr);
        let flows = proptest::collection::vec(
            (
                prop_oneof![
                    Just(std::collections::BTreeSet::new()),
                    proptest::collection::btree_set(0..nr as u32, 1..=nr),
                ],
                0.1f64..10.0,
                prop_oneof![Just(f64::INFINITY), 0.1f64..500.0],
            ),
            1..=nf,
        );
        (caps, flows).prop_map(|(capacity, flows)| {
            let mut p = SharingProblem::with_capacities(capacity);
            for (res, w, cap) in flows {
                p.add_flow(res.into_iter().collect(), w, cap);
            }
            p
        })
    })
}

/// Registers every flow of `p` with a fresh incremental solver and
/// activates the ids in `active` (ascending).
fn incremental_from(p: &SharingProblem, active: &[u32]) -> MaxMinSolver {
    let mut s = MaxMinSolver::new(p.capacity.clone());
    for f in &p.flows {
        s.register(f.resources.clone(), f.weight, f.cap);
    }
    for &i in active {
        s.activate(i);
    }
    s
}

fn exactly_equal(a: f64, b: f64) -> bool {
    a == b || (a.is_infinite() && b.is_infinite() && a.signum() == b.signum())
}

proptest! {
    /// One reshare over everything matches the reference solve *exactly*
    /// (bit-for-bit), including cap-only and resource-free flows.
    #[test]
    fn incremental_matches_reference_exactly(p in arb_problem_with_free()) {
        let reference = p.solve();
        let all: Vec<u32> = (0..p.flows.len() as u32).collect();
        let mut inc = incremental_from(&p, &all);
        inc.reshare(&all);
        for (i, want) in reference.iter().enumerate() {
            let got = inc.rate(i as u32);
            prop_assert!(
                exactly_equal(got, *want),
                "flow {i}: incremental {got:?} != reference {want:?}"
            );
        }
    }

    /// Activating any subset (in ascending order) matches the reference
    /// built from just that subset, exactly.
    #[test]
    fn incremental_subset_matches_reference(
        p in arb_problem_with_free(),
        picks in proptest::collection::vec(any::<bool>(), 14),
    ) {
        let active: Vec<u32> = (0..p.flows.len())
            .filter(|i| picks[*i])
            .map(|i| i as u32)
            .collect();
        if active.is_empty() {
            return Ok(());
        }
        let mut sub = SharingProblem::with_capacities(p.capacity.clone());
        for &i in &active {
            let f = &p.flows[i as usize];
            sub.add_flow(f.resources.clone(), f.weight, f.cap);
        }
        let reference = sub.solve();

        let mut inc = incremental_from(&p, &active);
        inc.reshare(&active);
        for (slot, &i) in active.iter().enumerate() {
            let got = inc.rate(i);
            let want = reference[slot];
            prop_assert!(
                exactly_equal(got, want),
                "flow {i}: incremental {got:?} != reference {want:?}"
            );
        }
    }

    /// Arbitrary activate/deactivate histories: after each reshare the
    /// incremental rates agree with a fresh reference solve of the
    /// currently-active set within float-accumulation slack, and the
    /// whole history is deterministic.
    #[test]
    fn incremental_tracks_reference_through_history(
        p in arb_problem_with_free(),
        toggles in proptest::collection::vec(0usize..14, 1..30),
    ) {
        let run = |p: &SharingProblem, toggles: &[usize]| -> Vec<Vec<f64>> {
            let mut inc = incremental_from(p, &[]);
            let mut active = vec![false; p.flows.len()];
            let mut snapshots = Vec::new();
            for &t in toggles {
                let i = t % p.flows.len();
                if active[i] {
                    inc.deactivate(i as u32);
                } else {
                    inc.activate(i as u32);
                }
                active[i] = !active[i];
                inc.reshare(&[i as u32]);

                let ids: Vec<u32> = (0..p.flows.len())
                    .filter(|k| active[*k])
                    .map(|k| k as u32)
                    .collect();
                snapshots.push(ids.iter().map(|&k| inc.rate(k)).collect());

                let mut sub = SharingProblem::with_capacities(p.capacity.clone());
                for &k in &ids {
                    let f = &p.flows[k as usize];
                    sub.add_flow(f.resources.clone(), f.weight, f.cap);
                }
                let reference = sub.solve();
                for (slot, &k) in ids.iter().enumerate() {
                    let got = inc.rate(k);
                    let want = reference[slot];
                    let ok = exactly_equal(got, want)
                        || (got - want).abs() <= 1e-9 * want.abs().max(1e-9);
                    prop_assert!(
                        ok,
                        "after toggle {t}: flow {k} rate {got} vs reference {want}"
                    );
                }
            }
            snapshots
        };
        let a = run(&p, &toggles);
        let b = run(&p, &toggles);
        prop_assert_eq!(a, b, "incremental resharing must be deterministic");
    }
}

// ---------------------------------------------------------------------------
// Multi-component reshares + warm-start filling vs the cold reshare

/// A problem with `groups` *disjoint* resource groups: every flow's
/// resources stay inside one group, so a multi-seed reshare spans several
/// independent components.
fn arb_multicomponent() -> impl Strategy<Value = SharingProblem> {
    (2usize..5, 2usize..5, 1usize..5).prop_flat_map(|(groups, res_per, flows_per)| {
        let caps = proptest::collection::vec(1.0f64..1000.0, groups * res_per);
        let flows = proptest::collection::vec(
            (
                0usize..groups,
                proptest::collection::btree_set(0..res_per as u32, 1..=res_per),
                0.1f64..10.0,
                prop_oneof![Just(f64::INFINITY), 0.1f64..500.0],
            ),
            groups..=groups * flows_per,
        );
        (caps, flows).prop_map(move |(capacity, flows)| {
            let mut p = SharingProblem::with_capacities(capacity);
            for (g, res, w, cap) in flows {
                let res: Vec<u32> = res.into_iter().map(|r| (g * res_per) as u32 + r).collect();
                p.add_flow(res, w, cap);
            }
            p
        })
    })
}

/// Runs one activate/deactivate history (batched toggles; each batch is
/// one reshare with all toggled flows as seeds, mimicking simultaneous
/// completions) under a given warm-start setting, and snapshots
/// `(rate bit patterns, changed list)` after every reshare.
fn run_history(
    p: &SharingProblem,
    batches: &[Vec<usize>],
    warm: bool,
) -> Vec<(Vec<u64>, Vec<u32>)> {
    let n = p.flows.len();
    let mut solver = MaxMinSolver::new(p.capacity.clone());
    solver.set_warm_threshold(1); // force warm-start replay onto tiny components
    solver.set_warm_start(warm);
    for f in &p.flows {
        solver.register(f.resources.clone(), f.weight, f.cap);
    }
    let mut active = vec![false; n];
    let mut out = Vec::new();
    for batch in batches {
        let mut seeds = Vec::new();
        for &t in batch {
            let i = t % n;
            if active[i] {
                solver.deactivate(i as u32);
            } else {
                solver.activate(i as u32);
            }
            active[i] = !active[i];
            seeds.push(i as u32);
        }
        let changed = solver.reshare(&seeds).to_vec();
        let rates: Vec<u64> = (0..n).map(|k| solver.rate(k as u32).to_bits()).collect();
        out.push((rates, changed));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One multi-seed reshare activating everything at once (several
    /// disjoint components in one call): rates and `changed` must be
    /// bit-identical to the one-shot reference, warm start on and off.
    #[test]
    fn multicomponent_activation_matches_reference_exactly(p in arb_multicomponent()) {
        let reference = p.solve();
        let all: Vec<u32> = (0..p.flows.len() as u32).collect();
        for warm in [false, true] {
            let mut inc = incremental_from(&p, &all);
            inc.set_warm_threshold(1); // force warm-start replay
            inc.set_warm_start(warm);
            let changed = inc.reshare(&all).to_vec();
            prop_assert_eq!(&changed, &all, "every first-solve rate moves (warm={})", warm);
            for (i, want) in reference.iter().enumerate() {
                let got = inc.rate(i as u32);
                prop_assert!(
                    exactly_equal(got, *want),
                    "flow {i}: {got:?} != reference {want:?} (warm={})",
                    warm
                );
            }
        }
    }

    /// Randomized batched activate/deactivate histories (multi-seed
    /// reshares spanning several disjoint components): every snapshot —
    /// rate bit patterns *and* `changed` lists — is bit-identical with
    /// warm start on and off, and tracks a fresh reference solve of the
    /// active subset.
    #[test]
    fn histories_are_bit_identical_across_workers_and_warm_start(
        p in arb_multicomponent(),
        toggles in proptest::collection::vec(0usize..32, 1..40),
        batching in proptest::collection::vec(1usize..4, 1..40),
    ) {
        // Slice the toggle stream into reshare batches of 1–3 toggles.
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut it = toggles.iter();
        'outer: for &b in &batching {
            let mut batch = Vec::new();
            for _ in 0..b {
                match it.next() {
                    Some(&t) => batch.push(t),
                    None => {
                        if !batch.is_empty() {
                            batches.push(batch);
                        }
                        break 'outer;
                    }
                }
            }
            batches.push(batch);
        }
        if batches.is_empty() {
            return Ok(());
        }

        // The cold path is the pinned reference.
        let baseline = run_history(&p, &batches, false);
        let got = run_history(&p, &batches, true);
        prop_assert_eq!(&got, &baseline, "warm replay diverged from the cold reshare");

        // And the baseline itself tracks the from-scratch reference.
        let n = p.flows.len();
        let mut active = vec![false; n];
        for (batch, (rates, _)) in batches.iter().zip(&baseline) {
            for &t in batch {
                active[t % n] = !active[t % n];
            }
            let ids: Vec<u32> =
                (0..n).filter(|k| active[*k]).map(|k| k as u32).collect();
            let mut sub = SharingProblem::with_capacities(p.capacity.clone());
            for &k in &ids {
                let f = &p.flows[k as usize];
                sub.add_flow(f.resources.clone(), f.weight, f.cap);
            }
            let reference = sub.solve();
            for (slot, &k) in ids.iter().enumerate() {
                let got = f64::from_bits(rates[k as usize]);
                let want = reference[slot];
                let ok = exactly_equal(got, want)
                    || (got - want).abs() <= 1e-9 * want.abs().max(1e-9);
                prop_assert!(ok, "flow {k}: incremental {got} vs reference {want}");
            }
        }
    }
}

/// One 2 000-flow component on three nested resources: every flow crosses
/// resource 0, and every fifth flow has a distinct finite cap, so filling
/// takes hundreds of rounds over a large live set.
fn large_component() -> SharingProblem {
    let n = 2000u32;
    let mut p = SharingProblem::with_capacities(vec![1e9, 5e8, 2e8]);
    for i in 0..n {
        let res: Vec<u32> = match i % 3 {
            0 => vec![0],
            1 => vec![0, 1],
            _ => vec![0, 1, 2],
        };
        let w = 0.5 + (i % 17) as f64 * 0.25;
        let cap = if i % 5 == 0 { 4e5 + i as f64 } else { f64::INFINITY };
        p.add_flow(res, w, cap);
    }
    p
}

#[test]
fn large_component_matches_reference() {
    // Pins the solver's one filling loop on a large component against the
    // one-shot reference. Here about 1 200 of the 2 000 rates differ from
    // the reference, by up to ~2e-12 relative, hence the 1e-9 tolerance.
    let p = large_component();
    let reference = p.solve();
    let all: Vec<u32> = (0..p.flows.len() as u32).collect();
    let mut inc = incremental_from(&p, &all);
    inc.reshare(&all);
    for (i, want) in reference.iter().enumerate() {
        let got = inc.rate(i as u32);
        assert!(
            exactly_equal(got, *want) || (got - want).abs() <= 1e-9 * want.abs().max(1e-9),
            "flow {i}: incremental {got} vs reference {want}"
        );
    }
}

#[test]
fn large_component_warm_replay_matches_cold() {
    // Full activation, then 40 batches toggling two flows each: warm-start
    // replay must reproduce the cold solve's rates and `changed` lists
    // bit for bit on a component this large too.
    let p = large_component();
    let n = p.flows.len();
    let mut batches = vec![(0..n).collect::<Vec<usize>>()];
    for k in 0..40 {
        batches.push(vec![(k * 7919 + 13) % n, (k * 104_729 + 1_001) % n]);
    }
    let cold = run_history(&p, &batches, false);
    let warm = run_history(&p, &batches, true);
    assert_eq!(cold.len(), batches.len());
    for (k, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert!(c == w, "reshare {k}: warm replay diverges from the cold solve");
    }
}

// ---------------------------------------------------------------------------
// Batched same-timestamp reshares vs per-event resharing, and the
// persistent-connectivity coarsening invariant

/// The connected components of the *active* subset, computed fresh by BFS
/// over the flow–resource bipartite graph (the reference the solver's
/// persistent labels are compared against). Resource-less flows are
/// excluded. Each group is ascending; groups are ordered by first member.
fn bfs_partition(p: &SharingProblem, active: &[bool]) -> Vec<Vec<u32>> {
    let nf = p.flows.len();
    let nr = p.capacity.len();
    let mut res_flows: Vec<Vec<u32>> = vec![Vec::new(); nr];
    for (i, f) in p.flows.iter().enumerate() {
        if active[i] {
            for &r in &f.resources {
                res_flows[r as usize].push(i as u32);
            }
        }
    }
    let mut seen = vec![false; nf];
    let mut groups = Vec::new();
    for i in 0..nf {
        if !active[i] || p.flows[i].resources.is_empty() || seen[i] {
            continue;
        }
        let mut group = Vec::new();
        let mut queue = vec![i as u32];
        seen[i] = true;
        while let Some(f) = queue.pop() {
            group.push(f);
            for &r in &p.flows[f as usize].resources {
                for &g in &res_flows[r as usize] {
                    if !seen[g as usize] {
                        seen[g as usize] = true;
                        queue.push(g);
                    }
                }
            }
        }
        group.sort_unstable();
        groups.push(group);
    }
    groups.sort_by_key(|g| g[0]);
    groups
}

/// The solver's persistent component partition of the active,
/// resource-bearing flows (grouped by union-find root).
fn label_partition(inc: &mut MaxMinSolver, p: &SharingProblem, active: &[bool]) -> Vec<Vec<u32>> {
    let mut by_root: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    for (i, is_active) in active.iter().enumerate() {
        if *is_active && !p.flows[i].resources.is_empty() {
            let root = inc
                .debug_component_root(i as u32)
                .expect("active resource-bearing flow must have a component");
            by_root.entry(root).or_default().push(i as u32);
        }
    }
    let mut groups: Vec<Vec<u32>> = by_root.into_values().collect();
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort_by_key(|g| g[0]);
    groups
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// One batched multi-seed reshare is bit-identical to resharing after
    /// every individual toggle: same final rates, and the batched
    /// `changed` list is exactly the set of flows whose rate differs from
    /// the pre-batch state — warm start on/off.
    #[test]
    fn batched_reshare_matches_per_event(
        p in arb_multicomponent(),
        toggles in proptest::collection::vec(0usize..32, 1..30),
        batching in proptest::collection::vec(1usize..5, 1..30),
    ) {
        let n = p.flows.len();
        // Slice the toggle stream into batches of 1–4 "same-timestamp"
        // membership changes.
        let mut batches: Vec<Vec<usize>> = Vec::new();
        let mut it = toggles.iter().map(|&t| t % n);
        'outer: for &b in &batching {
            let mut batch = Vec::new();
            for _ in 0..b {
                match it.next() {
                    Some(t) => {
                        // A flow toggled twice in one batch would cancel
                        // out; keep batches simple (distinct flows).
                        if !batch.contains(&t) {
                            batch.push(t);
                        }
                    }
                    None => {
                        if !batch.is_empty() {
                            batches.push(batch);
                        }
                        break 'outer;
                    }
                }
            }
            batches.push(batch);
        }
        batches.retain(|b| !b.is_empty());
        if batches.is_empty() {
            return Ok(());
        }

        for warm in [false, true] {
            let mut batched = incremental_from(&p, &[]);
            let mut per_event = incremental_from(&p, &[]);
            for s in [&mut batched, &mut per_event] {
                s.set_warm_threshold(1);
                s.set_warm_start(warm);
            }
            let mut active = vec![false; n];
            for batch in &batches {
                let before: Vec<u64> =
                    (0..n).map(|k| batched.rate(k as u32).to_bits()).collect();
                let mut seeds = Vec::new();
                for &t in batch {
                    if active[t] {
                        batched.deactivate(t as u32);
                        per_event.deactivate(t as u32);
                    } else {
                        batched.activate(t as u32);
                        per_event.activate(t as u32);
                    }
                    active[t] = !active[t];
                    seeds.push(t as u32);
                    // Per-event reference: one solver round-trip per
                    // membership change.
                    per_event.reshare(&[t as u32]);
                }
                let changed = batched.reshare(&seeds).to_vec();

                // Only *active* flows have meaningful rates: a flow
                // deactivated mid-batch keeps its last solved value,
                // and the per-event schedule may have re-solved it in
                // an intermediate state the batch never materializes.
                for (k, is_active) in active.iter().enumerate() {
                    if !is_active {
                        continue;
                    }
                    prop_assert_eq!(
                        batched.rate(k as u32).to_bits(),
                        per_event.rate(k as u32).to_bits(),
                        "flow {} diverges (warm={})", k, warm
                    );
                }
                let expect: Vec<u32> = (0..n as u32)
                    .filter(|&k| batched.rate(k).to_bits() != before[k as usize])
                    .collect();
                prop_assert_eq!(
                    &changed, &expect,
                    "changed must be the exact rate diff (warm={})", warm
                );
            }
        }
    }

    /// The persistent component labels are always a *coarsening* of the
    /// true (fresh-BFS) partition — every true component sits wholly
    /// inside one label component — and collapse to exactly the BFS
    /// partition once the lazy split is forced; rates track the
    /// from-scratch reference throughout.
    #[test]
    fn lazy_split_labels_match_fresh_bfs(
        p in arb_multicomponent(),
        toggles in proptest::collection::vec(0usize..64, 1..50),
    ) {
        let n = p.flows.len();
        let mut inc = incremental_from(&p, &[]);
        inc.set_warm_threshold(1);
        let mut active = vec![false; n];
        for &t in &toggles {
            let i = t % n;
            if active[i] {
                inc.deactivate(i as u32);
            } else {
                inc.activate(i as u32);
            }
            active[i] = !active[i];
            inc.reshare(&[i as u32]);

            let fresh = bfs_partition(&p, &active);
            let labels = label_partition(&mut inc, &p, &active);
            // Coarsening: each true component maps into one label group.
            for group in &fresh {
                let root = inc.debug_component_root(group[0]).unwrap();
                for &f in &group[1..] {
                    prop_assert_eq!(
                        inc.debug_component_root(f).unwrap(),
                        root,
                        "true component {:?} split across label components",
                        group
                    );
                }
            }
            // And label groups never mix flows *within* one group that a
            // union of true groups couldn't produce (labels partition the
            // same flow set).
            let label_count: usize = labels.iter().map(|g| g.len()).sum();
            let fresh_count: usize = fresh.iter().map(|g| g.len()).sum();
            prop_assert_eq!(label_count, fresh_count);

            // Forcing the split makes the labels exact.
            inc.debug_split_all();
            let exact = label_partition(&mut inc, &p, &active);
            prop_assert_eq!(&exact, &fresh, "forced split must equal fresh BFS labels");

            // Rates still track a from-scratch reference solve.
            let ids: Vec<u32> =
                (0..n).filter(|k| active[*k]).map(|k| k as u32).collect();
            let mut sub = SharingProblem::with_capacities(p.capacity.clone());
            for &k in &ids {
                let f = &p.flows[k as usize];
                sub.add_flow(f.resources.clone(), f.weight, f.cap);
            }
            let reference = sub.solve();
            for (slot, &k) in ids.iter().enumerate() {
                let got = inc.rate(k);
                let want = reference[slot];
                let ok = exactly_equal(got, want)
                    || (got - want).abs() <= 1e-9 * want.abs().max(1e-9);
                prop_assert!(ok, "flow {k}: incremental {got} vs reference {want}");
            }
        }
    }
}
