//! RTT-aware weighted max-min bandwidth sharing.
//!
//! SimGrid's flow-level TCP model (CM02, recalibrated by LV08) allocates
//! bandwidth to competing flows with a *weighted max-min* policy: on a
//! bottleneck link the bandwidth a flow obtains is inversely proportional
//! to its weight, and the weight grows with the flow's round-trip time —
//! `w_f = latency_f + Σ_l S/C_l` over the links of the route. Each flow is
//! additionally rate-capped by the TCP window bound `γ / (2·latency_f)` and
//! by any fat-pipe link on its path.
//!
//! The solver implements classical *progressive filling*: grow a potential
//! `φ` uniformly; each unsaturated flow transmits at `φ / w_f`; the first
//! constraint to bind (a link filling up, or a flow hitting its cap)
//! freezes the flows it concerns; repeat on the reduced problem. Every
//! iteration saturates at least one flow, so the loop runs at most
//! `#flows` times.
//!
//! Two implementations live here: [`SharingProblem::solve`], the one-shot
//! reference kept deliberately simple, and [`MaxMinSolver`], the
//! persistent incremental solver the kernel drives — with per-component
//! resharing and warm-start filling, both pinned bit-identical to the
//! reference (see the `MaxMinSolver` docs for the argument and
//! `maxmin_properties.rs` for the enforcement).
//!
//! ## Large-N layout notes
//!
//! The incremental solver is sized for 100k-flow problems on 100k-host
//! platforms. Everything per-flow and per-resource lives in flat arrays
//! (a membership CSR, span arenas, epoch-stamp vectors) so the hot path
//! is pointer-chase-free and memory is `O(flows + resources +
//! total incidence)` with no per-flow heap allocation. Two bounds keep
//! the footprint from growing with component size or run length:
//!
//! * **warm-record admission** — freeze-order records are linear in
//!   component flow count, so recording is gated to the
//!   `[warm_threshold, WARM_FLOW_CAP]` size band; oversized components
//!   solve cold and hold no record. [`MaxMinSolver::warm_bytes`] reports the
//!   cache's resident bytes (`KernelStats::warm_bytes`).
//! * **recycled record slots** — the warm-cache slab reuses freed
//!   entries (buffers intact), so steady-state re-solving allocates
//!   nothing and the slab never exceeds the peak live record count.

use crate::connect::Connectivity;

/// One flow to allocate: the (shared) resources it crosses, its weight and
/// its rate cap.
#[derive(Clone, Debug)]
pub struct FlowDesc {
    /// Indices into the problem's resource table. A flow may cross zero
    /// resources (e.g. a same-host transfer), in which case only `cap`
    /// bounds it.
    pub resources: Vec<u32>,
    /// Max-min weight (> 0). Larger weight ⇒ smaller share, mirroring TCP's
    /// RTT unfairness.
    pub weight: f64,
    /// Upper bound on the allocated rate (bytes/s); `f64::INFINITY` if
    /// unbounded.
    pub cap: f64,
}

/// A bandwidth-sharing problem: resource capacities plus flow descriptions.
#[derive(Clone, Debug, Default)]
pub struct SharingProblem {
    /// Capacity of each shared resource (bytes/s for links, flop/s for
    /// host CPUs when compute tasks share the same solver).
    pub capacity: Vec<f64>,
    /// The flows competing for those resources.
    pub flows: Vec<FlowDesc>,
}

impl SharingProblem {
    /// Creates an empty problem with the given resource capacities.
    pub fn with_capacities(capacity: Vec<f64>) -> Self {
        SharingProblem { capacity, flows: Vec::new() }
    }

    /// Adds a flow and returns its index.
    pub fn add_flow(&mut self, resources: Vec<u32>, weight: f64, cap: f64) -> usize {
        debug_assert!(weight > 0.0, "flow weight must be positive");
        self.flows.push(FlowDesc { resources, weight, cap });
        self.flows.len() - 1
    }

    /// Solves the problem, returning the allocated rate of each flow.
    ///
    /// Flows with no resources and an infinite cap are given
    /// `f64::INFINITY` (they are unconstrained at this level — the kernel
    /// completes them after their latency alone).
    pub fn solve(&self) -> Vec<f64> {
        const REL_EPS: f64 = 1e-12;

        let nf = self.flows.len();
        let nr = self.capacity.len();
        let mut rate = vec![f64::NAN; nf];
        let mut active = vec![true; nf];
        let mut remaining = self.capacity.clone();
        // Per-resource sum of 1/w over active flows crossing it.
        let mut inv_w_sum = vec![0.0f64; nr];
        let mut active_count_on = vec![0u32; nr];
        for f in &self.flows {
            for &r in &f.resources {
                inv_w_sum[r as usize] += 1.0 / f.weight;
                active_count_on[r as usize] += 1;
            }
        }

        let mut n_active = nf;
        while n_active > 0 {
            // Potential at which the tightest constraint binds.
            let mut phi = f64::INFINITY;
            for r in 0..nr {
                if active_count_on[r] > 0 {
                    let ratio = remaining[r] / inv_w_sum[r];
                    if ratio < phi {
                        phi = ratio;
                    }
                }
            }
            for (i, f) in self.flows.iter().enumerate() {
                if active[i] {
                    let phi_cap = f.cap * f.weight;
                    if phi_cap < phi {
                        phi = phi_cap;
                    }
                }
            }

            if phi.is_infinite() {
                // No binding constraint for the remaining flows: they are
                // unbounded (no shared resources, no finite cap).
                for (i, a) in active.iter().enumerate() {
                    if *a {
                        rate[i] = f64::INFINITY;
                    }
                }
                break;
            }

            let threshold = phi * (1.0 + REL_EPS) + f64::MIN_POSITIVE;
            let mut froze_any = false;

            // Freeze flows capped at or below the potential.
            for i in 0..nf {
                if !active[i] {
                    continue;
                }
                let f = &self.flows[i];
                let capped = f.cap * f.weight <= threshold;
                let mut on_bottleneck = false;
                if !capped {
                    for &r in &f.resources {
                        let r = r as usize;
                        if remaining[r] / inv_w_sum[r] <= threshold {
                            on_bottleneck = true;
                            break;
                        }
                    }
                }
                if capped || on_bottleneck {
                    let allocated = if capped { f.cap } else { phi / f.weight };
                    rate[i] = allocated;
                    active[i] = false;
                    n_active -= 1;
                    froze_any = true;
                    for &r in &f.resources {
                        let r = r as usize;
                        remaining[r] = (remaining[r] - allocated).max(0.0);
                        inv_w_sum[r] -= 1.0 / f.weight;
                        active_count_on[r] -= 1;
                    }
                }
            }

            debug_assert!(froze_any, "progressive filling must make progress");
            if !froze_any {
                // Numerical safety net: freeze everything at the potential.
                for i in 0..nf {
                    if active[i] {
                        rate[i] = (phi / self.flows[i].weight).min(self.flows[i].cap);
                        active[i] = false;
                        n_active -= 1;
                    }
                }
            }
        }
        rate
    }
}
/// Ordering key for the saturation-candidate heap: a non-NaN `f64`
/// compared via `total_cmp`, smallest first under `Reverse`.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A saturation candidate: the potential `φ` at which a constraint binds.
/// Resource entries (`kind == RESOURCE`) carry the ratio
/// `remaining/inv_w_sum` they were computed from; entries whose stored
/// value no longer matches the live ratio are stale and skipped on pop
/// (lazy deletion). Field order makes the derived `Ord` compare by value
/// first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Candidate {
    value: OrdF64,
    kind: u8,
    id: u32,
}

const RESOURCE: u8 = 0;
const FLOW_CAP: u8 = 1;

const REL_EPS: f64 = 1e-12;

/// Components below this size fill with contiguous scans per round; the
/// candidate heap's lazy-deletion churn only pays off once a round would
/// otherwise rescan hundreds of constraints (crossover measured on the
/// concurrent-flow ladder when the heap fill landed; see CHANGES.md).
const HEAP_THRESHOLD: usize = 1536;

/// Default minimum component size (flows) for warm-start recording and
/// replay; see [`MaxMinSolver::set_warm_threshold`]. Below this, a cold
/// fill's few hundred nanoseconds undercut the replay's validation work
/// (crossover measured on the concurrent-flow ladder when warm start
/// landed; see CHANGES.md).
const DEFAULT_WARM_THRESHOLD: usize = 128;

/// Maximum component size (flows) for warm-start recording and replay —
/// the size-aware admission bound that keeps the cache from hoarding
/// memory on very large components. A recorded freeze order is
/// proportional to the component's flow count, so one 100k-flow
/// component would hoard megabytes of record for a replay whose first
/// level is almost always invalidated anyway (every completion seeds
/// the binding resource). Above the cap, components solve cold and the
/// cache stays bounded; results are bit-identical either way.
const WARM_FLOW_CAP: usize = 16_384;

#[derive(Clone, Debug)]
struct SolverFlow {
    /// Span into [`SolverCore::res_arena`].
    res_start: u32,
    res_len: u32,
    weight: f64,
    cap: f64,
    active: bool,
}

/// The solver state a component solve reads and never writes: the
/// registered problem (capacities, flows, routes, delta-maintained base
/// sums) plus the epoch-stamped marks the reshare prologue writes
/// *before* the first component is solved. A solve borrows it shared
/// while it writes the [`RateTable`] and its [`SolveScratch`].
#[derive(Clone, Debug, Default)]
struct SolverCore {
    capacity: Vec<f64>,
    flows: Vec<SolverFlow>,
    /// All flows' resource ids, contiguous; each flow owns a span
    /// (`res_start..res_start+res_len`). Keeps the freeze loops on one
    /// cache-friendly array.
    res_arena: Vec<u32>,
    /// Flat CSR of the reverse incidence: resource `r`'s *active* member
    /// flows live at `res_members[res_off[r]..res_off[r]+res_active[r]]`,
    /// ascending. Each resource owns a slot region of `res_cap[r]`
    /// entries (its registered incidence), so activation inserts and
    /// deactivation removes by shifting within the region — one
    /// contiguous array instead of a `Vec` per resource.
    res_off: Vec<u32>,
    /// Active member count per resource.
    res_active: Vec<u32>,
    /// Registered incidence per resource (the slot-region capacity).
    res_cap: Vec<u32>,
    /// The resources with registered incidence (`res_cap > 0`), in order
    /// of first registration: the only resources the member CSR and a
    /// [`MaxMinSolver::reset`] have to visit.
    res_used: Vec<u32>,
    /// The member arena; see `res_off`.
    res_members: Vec<u32>,
    /// Σ 1/w over the *active* flows of each resource, maintained by
    /// delta in [`MaxMinSolver::activate`]/[`MaxMinSolver::deactivate`].
    base_inv_w_sum: Vec<f64>,
    /// `cap × weight` per registered flow: the potential at which the
    /// flow's own cap binds.
    phi_cap: Vec<f64>,
    /// Reshare counter; the `*_mark` arrays below compare against it.
    epoch: u64,
    /// Flow is a seed of the current reshare (it started or finished).
    seed_mark: Vec<u64>,
    /// Flow is in the current reshare's marked set.
    flow_mark: Vec<u64>,
    /// Component index of a marked flow (valid when `flow_mark == epoch`).
    flow_comp: Vec<u32>,
    /// Resource is in the current reshare's marked set.
    res_mark: Vec<u64>,
    /// Resource is crossed by a seed: its working sums differ from the
    /// previous solve's, so cached freeze levels touching it are suspect.
    res_dirty: Vec<u64>,
}

impl SolverCore {
    #[inline]
    fn res_span(&self, f: u32) -> &[u32] {
        let fl = &self.flows[f as usize];
        &self.res_arena[fl.res_start as usize..(fl.res_start + fl.res_len) as usize]
    }

    /// The active member flows of resource `r`, ascending.
    #[inline]
    fn members(&self, r: usize) -> &[u32] {
        let off = self.res_off[r] as usize;
        &self.res_members[off..off + self.res_active[r] as usize]
    }
}

/// Log₂ buckets of the component-size histogram in [`SolverStats`]:
/// bucket `k` counts components of `2^k ..= 2^(k+1)-1` flows, the last
/// bucket everything larger.
pub const COMP_SIZE_BUCKETS: usize = 17;

/// Warm-start replay outcomes, counted per recorded level. Pure event
/// counts — the solver never reads wall-clock — accumulated in the
/// solve scratch and folded into [`SolverStats`] after each reshare.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmReplayStats {
    /// Cached levels replayed verbatim (the fill work warm start saved).
    pub levels_replayed: u64,
    /// Cached levels skipped because they belonged entirely to a
    /// since-split-off piece of the recorded component.
    pub levels_skipped_split: u64,
    /// Levels dropped because a seed-crossed resource's ratio bound at
    /// or below the level's threshold.
    pub invalidated_dirty_ratio: u64,
    /// Levels dropped because a live seed's cap potential bound first.
    pub invalidated_seed_cap: u64,
    /// Levels dropped because a recorded binding resource went dirty.
    pub invalidated_bind_dirty: u64,
    /// Levels dropped because a recorded frozen flow is now a seed,
    /// inactive, or already frozen.
    pub invalidated_frozen_flow: u64,
}

impl WarmReplayStats {
    fn merge(&mut self, o: &WarmReplayStats) {
        self.levels_replayed += o.levels_replayed;
        self.levels_skipped_split += o.levels_skipped_split;
        self.invalidated_dirty_ratio += o.invalidated_dirty_ratio;
        self.invalidated_seed_cap += o.invalidated_seed_cap;
        self.invalidated_bind_dirty += o.invalidated_bind_dirty;
        self.invalidated_frozen_flow += o.invalidated_frozen_flow;
    }

    /// Total recorded levels dropped without replay, all reasons.
    pub fn levels_invalidated(&self) -> u64 {
        self.invalidated_dirty_ratio
            + self.invalidated_seed_cap
            + self.invalidated_bind_dirty
            + self.invalidated_frozen_flow
    }
}

/// Lifetime event counts of one [`MaxMinSolver`] (observability; the
/// kernel folds them into [`crate::KernelStats`] at the end of a run).
/// Plain integers — never atomics or clocks inside the solve.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Components dispatched across all reshares (including trivial
    /// single-flow components solved inline).
    pub components_solved: u64,
    /// Histogram of component sizes (flows per dispatched component):
    /// bucket `k` counts sizes in `2^k ..= 2^(k+1)-1`.
    pub component_size_log2: [u64; COMP_SIZE_BUCKETS],
    /// Warm-start replay outcomes.
    pub warm: WarmReplayStats,
}

impl SolverStats {
    fn record_component_size(&mut self, flows: usize) {
        self.components_solved += 1;
        let bucket = (usize::BITS - 1 - flows.max(1).leading_zeros()) as usize;
        self.component_size_log2[bucket.min(COMP_SIZE_BUCKETS - 1)] += 1;
    }
}

/// One component solve's mutable state. Every array is either cleared per
/// run or guarded by a stamp (`stamp` for flow freezes, `round_stamp` for
/// per-round resource dedup), so the scratch is reused across solves
/// without clearing and without any history leaking into results.
#[derive(Clone, Debug, Default)]
struct SolveScratch {
    /// Bumped per component solve; `frozen_stamp[f] == stamp` means flow
    /// `f` froze (got its rate) during this solve.
    stamp: u64,
    /// Warm-replay outcome counts, harvested by the owning reshare.
    stats: WarmReplayStats,
    frozen_stamp: Vec<u64>,
    /// Per-resource working state, valid only for the component's
    /// resources (initialized at solve start).
    remaining: Vec<f64>,
    inv_w_sum: Vec<f64>,
    active_count_on: Vec<u32>,
    /// Cached `remaining/inv_w_sum` per live resource (scan path).
    ratio: Vec<f64>,
    /// Unfrozen component flows, ascending.
    live: Vec<u32>,
    /// Component resources that still carry unfrozen flows.
    live_res: Vec<u32>,
    /// This round's freeze list (flow ids).
    touched: Vec<u32>,
    /// This round's binding resources (ratio at or below the threshold).
    round_bind: Vec<u32>,
    /// Round-stamp for deduplicating dirty-resource pushes within a round.
    touched_mark: Vec<u64>,
    round_stamp: u64,
    /// Resources whose sums the current round's freezes changed.
    dirty_round: Vec<u32>,
    /// The component's seed-crossed resources (warm-start validity checks).
    dirty: Vec<u32>,
    /// The component's live seed flows (warm-start validity checks).
    seed_flows: Vec<u32>,
    /// Candidate staging area, heapified in O(n) at solve start and
    /// recycled afterwards.
    cand: Vec<std::cmp::Reverse<Candidate>>,
    heap: std::collections::BinaryHeap<std::cmp::Reverse<Candidate>>,
    // -- per-solve output --
    /// Recorded freeze order: one `φ` per round...
    rec_phis: Vec<f64>,
    /// ...with `rec_frozen[rec_offsets[k]..rec_offsets[k+1]]` the flows
    /// round `k` froze, ascending.
    rec_offsets: Vec<u32>,
    rec_frozen: Vec<u32>,
    /// ...and `rec_bind[rec_bind_offsets[k]..rec_bind_offsets[k+1]]` the
    /// resources that bound in round `k`.
    rec_bind_offsets: Vec<u32>,
    rec_bind: Vec<u32>,
}

impl SolveScratch {
    /// Forgets the last simulation's flows. The resource-sized arrays
    /// stay: a solve initialises every entry it reads, and both stamps
    /// keep counting up, so no stale mark can equal a later stamp.
    fn reset(&mut self) {
        self.frozen_stamp.clear();
        self.stats = WarmReplayStats::default();
    }

    /// What [`SolveScratch::reset`] guarantees, checked in full.
    fn is_settled(&self) -> bool {
        self.frozen_stamp.is_empty()
            && self.stats == WarmReplayStats::default()
            && self.heap.is_empty()
            && self.touched_mark.iter().all(|&m| m <= self.round_stamp)
    }

    fn ensure(&mut self, nr: usize, nf: usize) {
        if self.frozen_stamp.len() < nf {
            self.frozen_stamp.resize(nf, 0);
        }
        if self.remaining.len() < nr {
            self.remaining.resize(nr, 0.0);
            self.inv_w_sum.resize(nr, 0.0);
            self.active_count_on.resize(nr, 0);
            self.ratio.resize(nr, 0.0);
            self.touched_mark.resize(nr, 0);
        }
    }
}

/// The freeze order of one component solve: per filling round, the
/// binding potential `φ` and the flows it froze (ascending). A later
/// reshare of the same component replays this order up to the first
/// level its seeds invalidate instead of refilling from zero.
#[derive(Clone, Debug, Default)]
struct CachedSolve {
    /// Resources whose `res_solve` entry points here; the record is
    /// dropped when the last one is re-solved under a new id.
    refs: u32,
    phis: Vec<f64>,
    /// `frozen[offsets[k]..offsets[k+1]]` froze in round `k`.
    offsets: Vec<u32>,
    frozen: Vec<u32>,
    /// `bind[bind_offsets[k]..bind_offsets[k+1]]` are the resources whose
    /// ratio bound at round `k` (caps excluded). Replay validity hinges
    /// on them: a clean binding resource carries bitwise the cached
    /// ratio, so it still binds — which lets the replay validate a level
    /// with a handful of dirty-flag loads instead of re-dividing every
    /// frozen flow's resource ratios.
    bind_offsets: Vec<u32>,
    bind: Vec<u32>,
}

/// Warm-start bookkeeping: which solve last covered each resource, and
/// the recorded freeze orders of the solves still referenced. Records
/// live in a dense slab indexed by solve id (slot + 1; 0 = none), so the
/// warm-start hot path — lookup, detach, re-insert on every component
/// re-solve — never hashes.
#[derive(Clone, Debug, Default)]
struct WarmCache {
    /// Per resource: id of the solve that last covered it (0 = none).
    res_solve: Vec<u32>,
    /// Slab of records; `solves[id - 1]` holds the record of solve `id`.
    solves: Vec<Option<CachedSolve>>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Occupied slots (cheap `has_records` check).
    live: usize,
}

impl WarmCache {
    /// Whether any freeze order is recorded at all (when not, every
    /// stale-record sweep can be skipped outright).
    #[inline]
    fn has_records(&self) -> bool {
        self.live > 0
    }

    /// The cached freeze order usable for a component, if any: every
    /// component resource must have been covered by the *same* last
    /// solve. Uniformity is what guarantees that the only changes to the
    /// component since that solve are exactly the current seeds (any
    /// other change would have re-solved — and re-stamped — some of
    /// these resources).
    fn lookup(&self, comp_res: &[u32]) -> Option<&CachedSolve> {
        let first = *comp_res.first()?;
        let id = self.res_solve[first as usize];
        if id == 0 || comp_res.iter().any(|&r| self.res_solve[r as usize] != id) {
            return None;
        }
        self.solves[(id - 1) as usize].as_ref()
    }

    /// Re-stamps a just-solved component's resources, releasing their old
    /// records, and stores the fresh freeze order by *copying* it out of
    /// the scratch into a recycled entry — in the steady state (the same
    /// component re-solving event after event) this allocates nothing.
    fn store_from_scratch(&mut self, comp_res: &[u32], s: &SolveScratch) {
        let mut recycled = self.detach(comp_res);
        if comp_res.is_empty() {
            return;
        }
        let mut c = recycled.take().unwrap_or_default();
        c.refs = comp_res.len() as u32;
        c.phis.clear();
        c.phis.extend_from_slice(&s.rec_phis);
        c.offsets.clear();
        c.offsets.extend_from_slice(&s.rec_offsets);
        c.frozen.clear();
        c.frozen.extend_from_slice(&s.rec_frozen);
        c.bind_offsets.clear();
        c.bind_offsets.extend_from_slice(&s.rec_bind_offsets);
        c.bind.clear();
        c.bind.extend_from_slice(&s.rec_bind);
        self.insert(comp_res, c);
    }

    /// Unlinks the component's resources from their previous solves,
    /// returning a freed record (buffers intact) for recycling if the
    /// last reference died.
    fn detach(&mut self, comp_res: &[u32]) -> Option<CachedSolve> {
        let mut freed = None;
        for &r in comp_res {
            // Read-first: on the fast path (nothing recorded) this loop is
            // pure loads.
            let old = self.res_solve[r as usize];
            if old != 0 {
                self.res_solve[r as usize] = 0;
                let slot = (old - 1) as usize;
                if let Some(c) = self.solves[slot].as_mut() {
                    c.refs -= 1;
                    if c.refs == 0 {
                        freed = self.solves[slot].take();
                        self.free.push(old - 1);
                        self.live -= 1;
                    }
                }
            }
        }
        freed
    }

    fn insert(&mut self, comp_res: &[u32], c: CachedSolve) {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.solves.push(None);
            (self.solves.len() - 1) as u32
        });
        debug_assert!(self.solves[slot as usize].is_none());
        self.solves[slot as usize] = Some(c);
        self.live += 1;
        let id = slot + 1;
        for &r in comp_res {
            self.res_solve[r as usize] = id;
        }
    }

    fn clear(&mut self) {
        self.drop_records();
        self.res_solve.fill(0);
    }

    /// Drops every record but leaves `res_solve` to the caller, who
    /// knows which entries can be nonzero.
    fn drop_records(&mut self) {
        self.solves.clear();
        self.free.clear();
        self.live = 0;
    }

    /// Approximate heap bytes held: record buffers (recycled slots keep
    /// their capacity, so capacities — not lengths — are what's resident)
    /// plus the slab and per-resource stamp table.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = self.res_solve.capacity() * size_of::<u32>()
            + self.solves.capacity() * size_of::<Option<CachedSolve>>()
            + self.free.capacity() * size_of::<u32>();
        for c in self.solves.iter().flatten() {
            total += c.phis.capacity() * size_of::<f64>()
                + (c.offsets.capacity()
                    + c.frozen.capacity()
                    + c.bind_offsets.capacity()
                    + c.bind.capacity())
                    * size_of::<u32>();
        }
        total
    }
}

/// Flow/resource ranges of one component within the flat discovery
/// arrays.
#[derive(Clone, Copy, Debug)]
struct CompSpan {
    flows: (u32, u32),
    res: (u32, u32),
}

/// What a component solve writes: the solver's rate table and the
/// current reshare's changed list.
#[derive(Clone, Debug, Default)]
struct RateTable {
    /// Last solved rate per flow (0.0 until first solved).
    rates: Vec<f64>,
    /// Flows whose rate the current reshare moved.
    changed: Vec<u32>,
}

impl RateTable {
    #[inline]
    fn set(&mut self, flow: u32, rate: f64) {
        let fi = flow as usize;
        if self.rates[fi] != rate {
            self.rates[fi] = rate;
            self.changed.push(flow);
        }
    }
}

/// A persistent, incremental weighted max-min solver.
///
/// Where [`SharingProblem`] is built afresh for every solve (cloning the
/// capacity vector and every flow's resource list), `MaxMinSolver` is
/// created once per simulation and keeps all flows registered across the
/// whole run. Activating or deactivating a flow only touches the
/// per-resource membership CSR (one flat offsets+arena array, no `Vec`
/// per resource), and [`MaxMinSolver::reshare`] re-solves only the
/// **affected components** — the flows transitively sharing a resource
/// with a changed flow — leaving every disjoint cluster's rates
/// untouched.
///
/// Component knowledge is **incremental across events**: a persistent
/// [`Connectivity`] structure (union-find over resources with per-root
/// member lists) is updated exactly on activation — joining can only
/// merge components — and marked stale on deactivation, re-splitting
/// lazily only once enough departures accumulate. Labels may therefore
/// be stale *supersets* of the true partition, which is still exact:
/// solving the union of disjoint pieces is bit-identical to solving each
/// alone (see [`crate::connect`] for the invariant and the argument).
/// `reshare` consumes the labels directly — seed → root → member lists —
/// with no per-event graph traversal; the completion-heavy hot path
/// never re-discovers anything.
///
/// The affected components solve one after another, in discovery order,
/// on the calling thread. Max-min sharing couples flows only through
/// shared resources, so disjoint components are independent
/// sub-problems and the order does not enter the rates; the `changed`
/// list is sorted by ascending flow id before it is returned.
///
/// One acceleration sits on top of the incremental core, pinned to
/// produce bit-identical rates and `changed` lists — **warm-start
/// filling.** Each component solve records its freeze order (`φ`
/// levels, per-round freeze lists, and the resources that bound each
/// round). A later reshare of the same component replays that order,
/// validating each level against the seeds (a dirty resource binding at
/// or below the level's threshold, a seed frozen in the level, or a
/// recorded binding resource gone dirty all invalidate it — level-wide
/// checks on a handful of resources, no per-flow ratio math), and
/// resumes normal progressive filling from the first invalidated level.
/// Replaying applies the identical float operations the cold solve
/// would, so rates stay bitwise equal to a cold reshare — the property
/// tests in `maxmin_properties.rs` enforce this with warm start on and
/// off.
///
/// Within a component the algorithm is the same progressive filling as
/// the reference [`SharingProblem::solve`], executed in ascending flow
/// order with per-resource sums rebuilt from scratch, so the produced
/// rates match the reference **exactly** (progressive filling never moves
/// capacity between disjoint components, and the per-resource float
/// operations happen in the identical order). The only acceleration
/// inside a filling round is the saturation-candidate min-heap that finds
/// the binding potential `φ` in `O(log)` instead of rescanning every
/// resource; the value it returns is the same minimum.
#[derive(Clone, Debug)]
pub struct MaxMinSolver {
    core: SolverCore,
    out: RateTable,
    warm_start: bool,
    /// Minimum flows for warm-start recording/replay; see
    /// [`MaxMinSolver::set_warm_threshold`].
    warm_threshold: usize,
    warm: WarmCache,
    /// Flows activated/deactivated since the last reshare; folded into
    /// the next reshare's seeds so no membership change can slip past the
    /// warm-start validity checks.
    pending: Vec<u32>,
    /// Persistent component labels (union-find + member lists), updated
    /// exactly on activation and lazily split after deactivations; see
    /// [`crate::connect`] for the coarsening invariant.
    conn: Connectivity,
    /// The member CSR's slot regions are stale (a registration grew some
    /// resource's incidence); rebuilt lazily before the next consult.
    members_dirty: bool,
    /// Resources whose capacity [`MaxMinSolver::set_capacity`] changed
    /// since construction or the last reset (repeats allowed).
    cap_changed: Vec<u32>,
    // -- reusable reshare scratch (no per-reshare allocation on the
    //    single-component hot path) --
    seed_buf: Vec<u32>,
    comp_flows: Vec<u32>,
    comp_res: Vec<u32>,
    comps: Vec<CompSpan>,
    scratch: SolveScratch,
    /// Lifetime event counts (components, sizes, warm-replay outcomes).
    stats: SolverStats,
}

impl MaxMinSolver {
    /// Creates a solver over fixed resource capacities.
    pub fn new(capacity: Vec<f64>) -> Self {
        let nr = capacity.len();
        MaxMinSolver {
            out: RateTable::default(),
            core: SolverCore {
                capacity,
                flows: Vec::new(),
                res_arena: Vec::new(),
                res_off: vec![0; nr],
                res_active: vec![0; nr],
                res_cap: vec![0; nr],
                res_used: Vec::new(),
                res_members: Vec::new(),
                base_inv_w_sum: vec![0.0; nr],
                phi_cap: Vec::new(),
                epoch: 0,
                seed_mark: Vec::new(),
                flow_mark: Vec::new(),
                flow_comp: Vec::new(),
                res_mark: vec![0; nr],
                res_dirty: vec![0; nr],
            },
            warm_start: true,
            warm_threshold: DEFAULT_WARM_THRESHOLD,
            warm: WarmCache {
                res_solve: vec![0; nr],
                solves: Vec::new(),
                free: Vec::new(),
                live: 0,
            },
            pending: Vec::new(),
            conn: Connectivity::new(nr),
            members_dirty: false,
            cap_changed: Vec::new(),
            seed_buf: Vec::new(),
            comp_flows: Vec::new(),
            comp_res: Vec::new(),
            comps: Vec::new(),
            scratch: SolveScratch::default(),
            stats: SolverStats::default(),
        }
    }

    /// Minimum component size (flows) for warm-start recording and
    /// replay. Dense small components invalidate their first cached
    /// level on almost every completion (the seed usually crosses the
    /// binding resource), so below this size the replay's validation
    /// costs more than the cold fill it would skip. Results are
    /// bit-identical regardless; tests drop this to 1 to exercise the
    /// replay on small inputs.
    pub fn set_warm_threshold(&mut self, min_flows: usize) {
        self.warm_threshold = min_flows.max(1);
    }

    /// Approximate heap bytes held by the warm-start cache (record
    /// buffers plus slab bookkeeping), reported as
    /// `KernelStats::warm_bytes`. O(#records); never called inside a solve.
    /// It reads capacities, not lengths, so a recycled solver (see
    /// [`crate::SimScratch`]) may report more than a fresh one running
    /// the same simulation.
    pub fn warm_bytes(&self) -> u64 {
        self.warm.bytes() as u64
    }

    /// Enables or disables warm-start filling (on by default). Disabling
    /// also drops all cached freeze orders. Results are bit-identical
    /// either way; the cache only skips refilling work.
    pub fn set_warm_start(&mut self, on: bool) {
        self.warm_start = on;
        if !on {
            self.warm.clear();
        }
    }

    /// Registers a flow (initially inactive) and returns its id. Ids are
    /// dense and never reused.
    pub fn register(&mut self, resources: Vec<u32>, weight: f64, cap: f64) -> u32 {
        debug_assert!(weight > 0.0, "flow weight must be positive");
        debug_assert!(resources.iter().all(|&r| (r as usize) < self.core.capacity.len()));
        let id = self.core.flows.len() as u32;
        self.core.phi_cap.push(cap * weight);
        let res_start = self.core.res_arena.len() as u32;
        let res_len = resources.len() as u32;
        for &r in &resources {
            if self.core.res_cap[r as usize] == 0 {
                self.core.res_used.push(r);
            }
            self.core.res_cap[r as usize] += 1;
        }
        if res_len > 0 {
            self.members_dirty = true;
        }
        self.core.res_arena.extend_from_slice(&resources);
        self.core.flows.push(SolverFlow { res_start, res_len, weight, cap, active: false });
        self.out.rates.push(0.0);
        self.core.seed_mark.push(0);
        self.core.flow_mark.push(0);
        self.core.flow_comp.push(0);
        self.conn.ensure_flows(self.core.flows.len());
        id
    }

    /// Rebuilds the member CSR's slot regions after registrations grew
    /// some resource's incidence, preserving the active spans. Only
    /// resources with registered incidence get a region (the others keep
    /// an empty one at offset 0), in order of first registration; each
    /// region holds its own sorted member list, so the layout never
    /// enters a rate. Amortized: the kernel registers all work up front,
    /// so a simulation pays this once; interleaving `register` with
    /// consults re-packs per interleave (linear in total incidence).
    fn ensure_members(&mut self) {
        if !self.members_dirty {
            return;
        }
        self.members_dirty = false;
        let core = &mut self.core;
        let total: usize = core.res_used.iter().map(|&r| core.res_cap[r as usize] as usize).sum();
        let mut new_members = vec![0u32; total];
        let mut acc = 0u32;
        for &r in &core.res_used {
            let ri = r as usize;
            let len = core.res_active[ri] as usize;
            if len > 0 {
                let old = &core.res_members[core.res_off[ri] as usize..][..len];
                new_members[acc as usize..acc as usize + len].copy_from_slice(old);
            }
            core.res_off[ri] = acc;
            acc += core.res_cap[ri];
        }
        core.res_members = new_members;
    }

    /// The last rate solved for `flow`.
    pub fn rate(&self, flow: u32) -> f64 {
        self.out.rates[flow as usize]
    }

    /// Current capacity of resource `r`.
    pub fn capacity(&self, r: u32) -> f64 {
        self.core.capacity[r as usize]
    }

    /// Number of resources (the length of the capacity vector).
    pub(crate) fn resource_count(&self) -> usize {
        self.core.capacity.len()
    }

    /// Changes the capacity of resource `r` mid-run (a platform event:
    /// link degradation/restoration, host slowdown). Takes effect at the
    /// next [`MaxMinSolver::reshare`]; the caller seeds that reshare with
    /// the resource's [`MaxMinSolver::active_members`] so the affected
    /// component re-solves under the new capacity. Any cached warm-start
    /// freeze order covering `r` is dropped here — its recorded φ levels
    /// were computed from the old capacity, so replaying it would be
    /// wrong — by zeroing `r`'s solve id, which breaks the lookup's
    /// same-solve uniformity check for every component containing `r`.
    pub fn set_capacity(&mut self, r: u32, cap: f64) {
        debug_assert!(cap >= 0.0, "capacity must be non-negative");
        self.core.capacity[r as usize] = cap;
        self.cap_changed.push(r);
        self.warm.detach(&[r]);
    }

    /// The active member flows of resource `r`, ascending — the seed set
    /// of a capacity-change reshare.
    pub fn active_members(&mut self, r: u32) -> &[u32] {
        self.ensure_members();
        self.core.members(r as usize)
    }

    /// The registered resource list of `flow` (the route it was
    /// registered with).
    pub fn flow_resources(&self, flow: u32) -> &[u32] {
        self.core.res_span(flow)
    }

    /// How many reshares this solver has performed (observability; the
    /// kernel surfaces it as [`crate::Report::reshares`]).
    pub fn reshares(&self) -> u64 {
        self.core.epoch
    }

    /// Lifetime event counts: components dispatched, their size
    /// histogram, and warm-replay outcomes (observability; the kernel
    /// folds them into [`crate::KernelStats`]).
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    /// Restores the state [`MaxMinSolver::new`] over `base` would build
    /// (warm-start settings kept), visiting only the resources the last
    /// simulation registered a flow on or changed the capacity of: every
    /// per-resource entry a solve writes belongs to a registered flow's
    /// route, since components, roots and records are unions of routes.
    /// Flow-indexed vectors and buffers are emptied with their capacity
    /// kept, and the reshare epoch restarts at 0, so `reshares()` and
    /// the stats count this simulation alone.
    pub(crate) fn reset(&mut self, base: &[f64]) {
        let core = &mut self.core;
        for &r in &core.res_used {
            let ri = r as usize;
            core.res_off[ri] = 0;
            core.res_active[ri] = 0;
            core.res_cap[ri] = 0;
            core.base_inv_w_sum[ri] = 0.0;
            core.res_mark[ri] = 0;
            core.res_dirty[ri] = 0;
            self.warm.res_solve[ri] = 0;
        }
        self.conn.reset(&core.res_used);
        for &r in &self.cap_changed {
            core.capacity[r as usize] = base[r as usize];
        }
        self.cap_changed.clear();
        core.res_used.clear();
        core.flows.clear();
        core.res_arena.clear();
        core.res_members.clear();
        core.phi_cap.clear();
        core.epoch = 0;
        core.seed_mark.clear();
        core.flow_mark.clear();
        core.flow_comp.clear();
        self.out.rates.clear();
        self.out.changed.clear();
        self.warm.drop_records();
        self.pending.clear();
        self.members_dirty = false;
        self.seed_buf.clear();
        self.comp_flows.clear();
        self.comp_res.clear();
        self.comps.clear();
        self.scratch.reset();
        self.stats = SolverStats::default();
    }

    /// Whether the solver holds exactly what [`MaxMinSolver::new`] over
    /// `base` would, comparing every resource entry: `O(resources)`, a
    /// test oracle for [`MaxMinSolver::reset`]. The solve scratch's
    /// resource arrays are held to their stamp invariant instead (see
    /// `SolveScratch::reset`).
    pub(crate) fn is_pristine(&self, base: &[f64]) -> bool {
        let c = &self.core;
        let zero32 = |v: &[u32]| v.iter().all(|&x| x == 0);
        let zero64 = |v: &[u64]| v.iter().all(|&x| x == 0);
        c.capacity.len() == base.len()
            && c.capacity.iter().zip(base).all(|(a, b)| a.to_bits() == b.to_bits())
            && zero32(&c.res_off)
            && zero32(&c.res_active)
            && zero32(&c.res_cap)
            && c.base_inv_w_sum.iter().all(|x| x.to_bits() == 0)
            && zero64(&c.res_mark)
            && zero64(&c.res_dirty)
            && zero32(&self.warm.res_solve)
            && self.conn.is_pristine()
            && c.res_used.is_empty()
            && c.flows.is_empty()
            && c.res_arena.is_empty()
            && c.res_members.is_empty()
            && c.phi_cap.is_empty()
            && c.epoch == 0
            && c.seed_mark.is_empty()
            && c.flow_mark.is_empty()
            && c.flow_comp.is_empty()
            && self.out.rates.is_empty()
            && self.out.changed.is_empty()
            && self.warm.solves.is_empty()
            && self.warm.free.is_empty()
            && self.warm.live == 0
            && self.pending.is_empty()
            && !self.members_dirty
            && self.cap_changed.is_empty()
            && self.seed_buf.is_empty()
            && self.comp_flows.is_empty()
            && self.comp_res.is_empty()
            && self.comps.is_empty()
            && self.scratch.is_settled()
            && self.stats == SolverStats::default()
    }

    /// Marks `flow` as competing for its resources.
    ///
    /// `base_inv_w_sum` is maintained by delta here. When flows are
    /// activated in ascending id order with no interleaved deactivations
    /// (as a one-shot solve does), the accumulated value is bitwise
    /// identical to the reference's insertion-order rebuild; interleaved
    /// starts and finishes may drift by a few ulps, which stays
    /// deterministic and far inside the kernel's completion tolerance.
    pub fn activate(&mut self, flow: u32) {
        self.ensure_members();
        let fi = flow as usize;
        debug_assert!(!self.core.flows[fi].active, "flow {flow} already active");
        self.core.flows[fi].active = true;
        let inv_w = 1.0 / self.core.flows[fi].weight;
        let (start, len) =
            (self.core.flows[fi].res_start as usize, self.core.flows[fi].res_len as usize);
        for j in start..start + len {
            let r = self.core.res_arena[j] as usize;
            let off = self.core.res_off[r] as usize;
            let n = self.core.res_active[r] as usize;
            debug_assert!(n < self.core.res_cap[r] as usize);
            let pos = off
                + self.core.res_members[off..off + n].partition_point(|&x| x < flow);
            self.core.res_members.copy_within(pos..off + n, pos + 1);
            self.core.res_members[pos] = flow;
            self.core.res_active[r] += 1;
            self.core.base_inv_w_sum[r] += inv_w;
        }
        if len > 0 {
            // Joining can only merge components; the labels stay exact.
            self.conn.attach(flow, &self.core.res_arena[start..start + len]);
        }
        self.pending.push(flow);
    }

    /// Removes `flow` from the competition (it finished).
    pub fn deactivate(&mut self, flow: u32) {
        self.ensure_members();
        let fi = flow as usize;
        debug_assert!(self.core.flows[fi].active, "flow {flow} not active");
        self.core.flows[fi].active = false;
        let inv_w = 1.0 / self.core.flows[fi].weight;
        let (start, len) =
            (self.core.flows[fi].res_start as usize, self.core.flows[fi].res_len as usize);
        for j in start..start + len {
            let r = self.core.res_arena[j] as usize;
            let off = self.core.res_off[r] as usize;
            let n = self.core.res_active[r] as usize;
            let pos = off
                + self.core.res_members[off..off + n].partition_point(|&x| x < flow);
            debug_assert_eq!(self.core.res_members.get(pos), Some(&flow));
            self.core.res_members.copy_within(pos + 1..off + n, pos);
            self.core.res_active[r] -= 1;
            if self.core.res_active[r] == 0 {
                // Re-anchor: an empty resource must carry an exact zero so
                // its next filling starts drift-free.
                self.core.base_inv_w_sum[r] = 0.0;
            } else {
                self.core.base_inv_w_sum[r] -= inv_w;
            }
        }
        if len > 0 {
            // Leaving may split the component; the labels become a stale
            // superset re-split lazily (see `reshare`).
            self.conn.detach(flow, &self.core.res_arena[start..start + len]);
        }
        self.pending.push(flow);
    }

    /// Re-solves every component containing a flow of `seeds` (flows just
    /// activated or deactivated; deactivated seeds contribute their
    /// resources but are not solved). Flows toggled since the previous
    /// reshare are folded into the seed set automatically. Returns the
    /// ascending ids of active flows whose rate changed; their new rates
    /// are readable via [`MaxMinSolver::rate`].
    pub fn reshare(&mut self, seeds: &[u32]) -> &[u32] {
        self.ensure_members();
        self.core.epoch += 1;
        let epoch = self.core.epoch;
        self.out.changed.clear();
        self.comp_flows.clear();
        self.comp_res.clear();
        self.comps.clear();

        // Effective seeds: caller's list ∪ everything toggled since the
        // last reshare (defense against under-seeded calls — a membership
        // change the warm-start validity checks don't know about would
        // silently corrupt a replay).
        self.seed_buf.clear();
        self.seed_buf.extend_from_slice(seeds);
        self.seed_buf.append(&mut self.pending);
        self.seed_buf.sort_unstable();
        self.seed_buf.dedup();

        // Mark seeds and their (dirty) resources before discovery. The
        // marks only steer warm-start replay validity, and a replay needs
        // a cached solve to replay — with nothing recorded the pass is
        // skipped.
        if self.warm_start && self.warm.has_records() {
            for i in 0..self.seed_buf.len() {
                let fi = self.seed_buf[i] as usize;
                self.core.seed_mark[fi] = epoch;
                let (start, len) = (
                    self.core.flows[fi].res_start as usize,
                    self.core.flows[fi].res_len as usize,
                );
                for j in start..start + len {
                    self.core.res_dirty[self.core.res_arena[j] as usize] = epoch;
                }
            }
        }

        // Resolve the affected components from the persistent labels: no
        // per-event BFS — each seed resource's union-find root *is* its
        // component, and the root carries the member lists ready to copy.
        // Labels may be stale supersets after deactivations (unions are
        // eager, splits lazy); solving a superset is bit-identical to
        // solving its true pieces separately (see `crate::connect`), so
        // staleness is re-split only once enough departures accumulate.
        {
            let core = &self.core;
            let conn = &mut self.conn;
            for &s in &self.seed_buf {
                for &r in core.res_span(s) {
                    let root = conn.find(r);
                    if conn.should_split(root) {
                        conn.resplit(root, |f| core.res_span(f));
                    }
                }
            }
        }
        // Gather each distinct root once (`res_mark` on the root dedups
        // across seeds), copying its member lists into the span arenas
        // and stamping the per-flow epoch labels the warm-start replay
        // consults. A deactivated seed's resources may map to several
        // roots after a split (it was the bridge); each is gathered.
        for i in 0..self.seed_buf.len() {
            let s = self.seed_buf[i];
            let fi = s as usize;
            let (start, len) =
                (self.core.flows[fi].res_start as usize, self.core.flows[fi].res_len as usize);
            if len == 0 {
                // Resource-less active flows are singleton components
                // (nothing shares anything with them).
                if self.core.flows[fi].active && self.core.flow_mark[fi] != epoch {
                    let comp_id = self.comps.len() as u32;
                    let sp = (self.comp_flows.len() as u32, self.comp_res.len() as u32);
                    self.core.flow_mark[fi] = epoch;
                    self.core.flow_comp[fi] = comp_id;
                    self.comp_flows.push(s);
                    self.push_span(sp);
                }
                continue;
            }
            for j in start..start + len {
                let r = self.core.res_arena[j];
                let root = self.conn.find(r);
                if self.core.res_mark[root as usize] == epoch {
                    continue;
                }
                self.core.res_mark[root as usize] = epoch;
                let comp_id = self.comps.len() as u32;
                let sp = (self.comp_flows.len() as u32, self.comp_res.len() as u32);
                for f in self.conn.flows_iter(root) {
                    self.core.flow_mark[f as usize] = epoch;
                    self.core.flow_comp[f as usize] = comp_id;
                    self.comp_flows.push(f);
                }
                self.comp_res.extend(self.conn.res_iter(root));
                self.push_span(sp);
            }
        }

        // One reused scratch, components in discovery order.
        let record = self.warm_start;
        for ci in 0..self.comps.len() {
            let span = self.comps[ci];
            let n = (span.flows.1 - span.flows.0) as usize;
            self.stats.record_component_size(n);
            // Warm-start pays only on components big enough that skipped
            // levels outweigh the replay validation; smaller ones solve
            // cold and just drop their stale records.
            let use_warm = record && n >= self.warm_threshold && n <= WARM_FLOW_CAP;
            if !use_warm && n <= 1 {
                self.solve_trivial(ci, record);
                continue;
            }
            let flows = &self.comp_flows[span.flows.0 as usize..span.flows.1 as usize];
            let res = &self.comp_res[span.res.0 as usize..span.res.1 as usize];
            let warm = if use_warm { self.warm.lookup(res) } else { None };
            run_component(
                &self.core,
                ci as u32,
                flows,
                res,
                warm,
                use_warm,
                &mut self.out,
                &mut self.scratch,
            );
            if use_warm {
                self.warm.store_from_scratch(res, &self.scratch);
            } else if record && self.warm.has_records() {
                // Sub-threshold solve: drop any stale record covering
                // these resources. With nothing recorded anywhere
                // (`solves` empty ⇒ every `res_solve` entry is 0) the
                // sweep is skipped outright — the common small-network
                // case pays nothing for warm-start being enabled.
                self.warm.detach(res);
            }
        }
        let delta = std::mem::take(&mut self.scratch.stats);
        self.stats.warm.merge(&delta);

        // Components are disjoint, so the list has no duplicates; restore
        // ascending order for deterministic consumers.
        self.out.changed.sort_unstable();
        &self.out.changed
    }

    /// Solves a trivial (≤ 1 flow) component inline: a lone flow's rate
    /// is the minimum of its constraints, computed with the exact float
    /// operations the general fill would use. Empty components (a
    /// deactivated seed's drained resources) just drop stale warm
    /// records — the warm validity argument needs every membership
    /// change to re-stamp the resources it touched.
    fn solve_trivial(&mut self, ci: usize, record: bool) {
        let span = self.comps[ci];
        if span.flows.1 > span.flows.0 {
            let f = self.comp_flows[span.flows.0 as usize];
            let fi = f as usize;
            let mut phi = f64::INFINITY;
            for &r in self.core.res_span(f) {
                let ri = r as usize;
                let ratio = self.core.capacity[ri] / self.core.base_inv_w_sum[ri];
                if ratio < phi {
                    phi = ratio;
                }
            }
            let pc = self.core.phi_cap[fi];
            if pc < phi {
                phi = pc;
            }
            let rate = if phi.is_infinite() {
                f64::INFINITY
            } else {
                let threshold = phi * (1.0 + REL_EPS) + f64::MIN_POSITIVE;
                if pc <= threshold {
                    self.core.flows[fi].cap
                } else {
                    phi / self.core.flows[fi].weight
                }
            };
            self.out.set(f, rate);
        }
        if record && self.warm.has_records() {
            let res = &self.comp_res[span.res.0 as usize..span.res.1 as usize];
            self.warm.detach(res);
        }
    }

    fn push_span(&mut self, start: (u32, u32)) {
        self.comps.push(CompSpan {
            flows: (start.0, self.comp_flows.len() as u32),
            res: (start.1, self.comp_res.len() as u32),
        });
    }

    /// The persistent component root of an active flow's component
    /// (`None` for inactive or resource-less flows). Roots are stable
    /// between merges/splits; use them only to compare membership.
    #[doc(hidden)]
    pub fn debug_component_root(&mut self, flow: u32) -> Option<u32> {
        let fi = flow as usize;
        if !self.core.flows[fi].active || self.core.flows[fi].res_len == 0 {
            return None;
        }
        let r = self.core.res_arena[self.core.flows[fi].res_start as usize];
        Some(self.conn.find(r))
    }

    /// Forces a full lazy-split pass over every component, making the
    /// persistent labels exact (test hook for the coarsening invariant).
    #[doc(hidden)]
    pub fn debug_split_all(&mut self) {
        self.ensure_members();
        let nr = self.core.capacity.len() as u32;
        let mut roots: Vec<u32> = (0..nr).map(|r| self.conn.find(r)).collect();
        roots.sort_unstable();
        roots.dedup();
        let core = &self.core;
        let conn = &mut self.conn;
        for root in roots {
            conn.resplit(root, |f| core.res_span(f));
        }
    }
}

/// Solves one component: initializes its working state from the shared
/// core, replays as much of the cached freeze order as the seeds leave
/// valid, and finishes with normal progressive filling. Pure function of
/// `(core, comp_flows, comp_res, warm)` — the scratch carries no history
/// into the result.
#[allow(clippy::too_many_arguments)]
fn run_component(
    core: &SolverCore,
    comp_id: u32,
    comp_flows: &[u32],
    comp_res: &[u32],
    warm: Option<&CachedSolve>,
    record: bool,
    out: &mut RateTable,
    s: &mut SolveScratch,
) {
    s.ensure(core.capacity.len(), core.flows.len());
    s.stamp += 1;
    s.rec_phis.clear();
    s.rec_frozen.clear();
    s.rec_offsets.clear();
    s.rec_offsets.push(0);
    s.rec_bind.clear();
    s.rec_bind_offsets.clear();
    s.rec_bind_offsets.push(0);

    if let Some(w) = warm {
        // Component working state: full capacity, delta-maintained base
        // Σ1/w, live member count per resource — the replay consumes and
        // updates it.
        for &r in comp_res {
            let ri = r as usize;
            s.remaining[ri] = core.capacity[ri];
            s.inv_w_sum[ri] = core.base_inv_w_sum[ri];
            s.active_count_on[ri] = core.res_active[ri];
        }
        let unfrozen = comp_flows.len() - replay_rounds(core, comp_id, comp_flows, comp_res, w, record, out, s);
        // Remaining flows fill normally from the replayed state.
        s.live.clear();
        for &f in comp_flows {
            if s.frozen_stamp[f as usize] != s.stamp {
                s.live.push(f);
            }
        }
        s.live.sort_unstable();
        debug_assert_eq!(s.live.len(), unfrozen);
        let scan = s.live.len() <= HEAP_THRESHOLD;
        s.live_res.clear();
        for &r in comp_res {
            let ri = r as usize;
            if s.active_count_on[ri] > 0 {
                s.live_res.push(r);
                if scan {
                    s.ratio[ri] = s.remaining[ri] / s.inv_w_sum[ri];
                }
            }
        }
        if !s.live.is_empty() {
            if scan {
                fill_scan(core, record, out, s);
            } else {
                fill_heap(core, record, out, s);
            }
        }
    } else {
        // Cold solve: one fused pass initializes the per-resource state,
        // collects the live resources and seeds the scan ratios (the
        // event-loop hot path — keep it to a single sweep).
        s.live.clear();
        s.live.extend_from_slice(comp_flows);
        s.live.sort_unstable();
        let scan = s.live.len() <= HEAP_THRESHOLD;
        s.live_res.clear();
        for &r in comp_res {
            let ri = r as usize;
            let members = core.res_active[ri];
            s.remaining[ri] = core.capacity[ri];
            s.inv_w_sum[ri] = core.base_inv_w_sum[ri];
            s.active_count_on[ri] = members;
            if members > 0 {
                s.live_res.push(r);
                if scan {
                    s.ratio[ri] = core.capacity[ri] / core.base_inv_w_sum[ri];
                }
            }
        }
        if !s.live.is_empty() {
            if scan {
                fill_scan(core, record, out, s);
            } else {
                fill_heap(core, record, out, s);
            }
        }
    }

    // `out.changed` is left in freeze order; the reshare's single sort
    // restores ascending ids.
}

/// Replays the cached freeze order until a level the seeds invalidate,
/// returning how many flows froze. A cached level stays valid when (a) no
/// dirty constraint — a seed-crossed resource's current ratio or a live
/// seed's cap potential — binds at or below the level's threshold, and
/// (b) every flow the level froze is still active, not a seed, and still
/// pinned by its cap or by one of its (clean-valued) resources. Replayed
/// levels apply the identical float operations a cold fill would, so the
/// state handed to the remaining filling is bitwise the cold state.
#[allow(clippy::too_many_arguments)]
fn replay_rounds(
    core: &SolverCore,
    comp_id: u32,
    comp_flows: &[u32],
    comp_res: &[u32],
    w: &CachedSolve,
    record: bool,
    out: &mut RateTable,
    s: &mut SolveScratch,
) -> usize {
    s.dirty.clear();
    for &r in comp_res {
        if core.res_dirty[r as usize] == core.epoch {
            s.dirty.push(r);
        }
    }
    s.seed_flows.clear();
    for &f in comp_flows {
        if core.seed_mark[f as usize] == core.epoch {
            s.seed_flows.push(f);
        }
    }

    let total_levels = w.phis.len() as u64;
    let mut frozen_total = 0;
    'rounds: for k in 0..w.phis.len() {
        let phi = w.phis[k];
        let threshold = phi * (1.0 + REL_EPS) + f64::MIN_POSITIVE;
        // Levels not yet reached when a check breaks the replay count as
        // invalidated under that check's reason (pure integer
        // bookkeeping; the replay logic is unchanged).
        let left = total_levels - k as u64;

        // A dirty constraint binding at or below this level means the
        // seeds reshuffle the filling from here on: stop replaying.
        for di in 0..s.dirty.len() {
            let ri = s.dirty[di] as usize;
            if s.active_count_on[ri] > 0 && s.remaining[ri] / s.inv_w_sum[ri] <= threshold {
                s.stats.invalidated_dirty_ratio += left;
                break 'rounds;
            }
        }
        for si in 0..s.seed_flows.len() {
            if core.phi_cap[s.seed_flows[si] as usize] <= threshold {
                s.stats.invalidated_seed_cap += left;
                break 'rounds;
            }
        }

        // A recorded binding resource gone dirty also stops the replay:
        // a *clean* binding resource carries bitwise the cached ratio —
        // it binds now exactly as it did then, which is what keeps every
        // non-capped flow of the level pinned — while a dirty one no
        // longer binds at this threshold (the ratio check above would
        // have broken otherwise), so the flows it froze may now freeze
        // elsewhere. Stopping at any prefix is exact by construction.
        let (blo, bhi) = (w.bind_offsets[k] as usize, w.bind_offsets[k + 1] as usize);
        for &r in &w.bind[blo..bhi] {
            if core.res_dirty[r as usize] == core.epoch {
                s.stats.invalidated_bind_dirty += left;
                break 'rounds;
            }
        }

        s.touched.clear();
        let (lo, hi) = (w.offsets[k] as usize, w.offsets[k + 1] as usize);
        for &f in &w.frozen[lo..hi] {
            let fi = f as usize;
            if core.flow_mark[fi] != core.epoch || core.flow_comp[fi] != comp_id {
                // The cached solve covered a larger component that has
                // since split; this flow's piece belongs to another component
                // (or untouched) and shares none of our resources.
                continue;
            }
            if core.seed_mark[fi] == core.epoch
                || !core.flows[fi].active
                || s.frozen_stamp[fi] == s.stamp
            {
                s.stats.invalidated_frozen_flow += left;
                break 'rounds;
            }
            // Capped or pinned by a clean binding resource — both
            // validated level-wide above; no per-flow ratio math needed.
            s.touched.push(f);
        }
        if s.touched.is_empty() {
            // Level belonged entirely to a split-off piece; skip it.
            s.stats.levels_skipped_split += 1;
            continue;
        }
        s.round_bind.clear();
        s.round_bind.extend_from_slice(&w.bind[blo..bhi]);
        frozen_total += apply_round(core, record, phi, threshold, out, s, false);
        s.stats.levels_replayed += 1;
    }
    frozen_total
}

/// Applies one round's freeze list (`touched`) in ascending flow order —
/// replaying the reference's float-operation sequence — and records the
/// round (freeze list + this round's binding resources, staged in
/// `round_bind`) in the freeze-order cache. With `collect_dirty`, the
/// resources whose sums changed are gathered into `dirty_round`
/// (round-stamp deduped) for the caller's ratio refresh; replayed rounds
/// skip that bookkeeping (the post-replay fill reseeds every ratio).
/// Returns how many flows froze.
#[allow(clippy::too_many_arguments)]
fn apply_round(
    core: &SolverCore,
    record: bool,
    phi: f64,
    threshold: f64,
    out: &mut RateTable,
    s: &mut SolveScratch,
    collect_dirty: bool,
) -> usize {
    s.touched.sort_unstable();
    if collect_dirty {
        s.round_stamp += 1;
        s.dirty_round.clear();
    }
    for k in 0..s.touched.len() {
        let f = s.touched[k];
        let fi = f as usize;
        let allocated = if core.phi_cap[fi] <= threshold {
            core.flows[fi].cap
        } else {
            phi / core.flows[fi].weight
        };
        set_rate(out, f, allocated, s);
        let inv_w = 1.0 / core.flows[fi].weight;
        for &r in core.res_span(f) {
            let ri = r as usize;
            s.remaining[ri] = (s.remaining[ri] - allocated).max(0.0);
            s.inv_w_sum[ri] -= inv_w;
            s.active_count_on[ri] -= 1;
            if collect_dirty && s.touched_mark[ri] != s.round_stamp {
                s.touched_mark[ri] = s.round_stamp;
                s.dirty_round.push(r);
            }
        }
    }
    if record {
        s.rec_phis.push(phi);
        s.rec_frozen.extend_from_slice(&s.touched);
        s.rec_offsets.push(s.rec_frozen.len() as u32);
        s.rec_bind.extend_from_slice(&s.round_bind);
        s.rec_bind_offsets.push(s.rec_bind.len() as u32);
    }
    s.touched.len()
}

fn set_rate(out: &mut RateTable, flow: u32, rate: f64, s: &mut SolveScratch) {
    out.set(flow, rate);
    s.frozen_stamp[flow as usize] = s.stamp;
}

/// Scan-per-round progressive filling: the reference algorithm restricted
/// to the component's live arrays, replaying the reference's float
/// operations (and even its in-pass threshold effects) exactly.
fn fill_scan(core: &SolverCore, record: bool, out: &mut RateTable, s: &mut SolveScratch) {
    // `ratio[r]` is seeded by the caller for every live resource and
    // refreshed here only when a freeze dirties it.
    let mut unfrozen = s.live.len();
    while unfrozen > 0 {
        // Potential at which the tightest constraint binds. Ratios are
        // cached (recomputed only for resources touched by a freeze), so
        // each round is a pure compare scan — no divisions.
        let mut phi = f64::INFINITY;
        for k in 0..s.live_res.len() {
            let ratio = s.ratio[s.live_res[k] as usize];
            if ratio < phi {
                phi = ratio;
            }
        }
        for k in 0..s.live.len() {
            let pc = core.phi_cap[s.live[k] as usize];
            if pc < phi {
                phi = pc;
            }
        }

        if phi.is_infinite() {
            // No binding constraint: the remaining flows are unbounded.
            for k in 0..s.live.len() {
                let f = s.live[k];
                set_rate(out, f, f64::INFINITY, s);
            }
            break;
        }

        let threshold = phi * (1.0 + REL_EPS) + f64::MIN_POSITIVE;

        // Collect this round's freezes from the binding constraints:
        // every resource at the threshold freezes all its unfrozen flows,
        // every binding cap freezes its flow. (The reference's in-pass
        // sum updates can only pull extra constraints under the threshold
        // within its 1e-12 slack; see the module doc.)
        s.touched.clear();
        s.round_bind.clear();
        for k in 0..s.live_res.len() {
            let r = s.live_res[k];
            let ri = r as usize;
            if s.ratio[ri] <= threshold {
                s.round_bind.push(r);
                for &f in core.members(ri) {
                    if s.frozen_stamp[f as usize] != s.stamp {
                        s.frozen_stamp[f as usize] = s.stamp;
                        s.touched.push(f);
                    }
                }
            }
        }
        let mut keep = 0;
        for k in 0..s.live.len() {
            let f = s.live[k];
            let fi = f as usize;
            if s.frozen_stamp[fi] == s.stamp {
                continue; // frozen via a binding resource above
            }
            if core.phi_cap[fi] <= threshold {
                s.frozen_stamp[fi] = s.stamp;
                s.touched.push(f);
            } else {
                s.live[keep] = f;
                keep += 1;
            }
        }
        s.live.truncate(keep);

        if s.touched.is_empty() {
            // Cannot happen (the φ constraint always yields a freeze),
            // but guarantee progress against float oddities.
            for k in 0..s.live.len() {
                let f = s.live[k];
                let fi = f as usize;
                let rate = (phi / core.flows[fi].weight).min(core.flows[fi].cap);
                set_rate(out, f, rate, s);
            }
            break;
        }

        unfrozen -= apply_round(core, record, phi, threshold, out, s, true);

        // Refresh the cached ratios the freezes invalidated.
        for k in 0..s.dirty_round.len() {
            let ri = s.dirty_round[k] as usize;
            if s.active_count_on[ri] > 0 {
                s.ratio[ri] = s.remaining[ri] / s.inv_w_sum[ri];
            }
        }

        // Drop fully frozen resources from the scan set.
        let mut keep = 0;
        for k in 0..s.live_res.len() {
            let r = s.live_res[k];
            if s.active_count_on[r as usize] > 0 {
                s.live_res[keep] = r;
                keep += 1;
            }
        }
        s.live_res.truncate(keep);
    }
}

/// Heap-driven progressive filling for large components: saturation
/// candidates live in a lazy-deletion min-heap, so a round touches only
/// the constraints that actually bind instead of rescanning every
/// resource and cap.
fn fill_heap(core: &SolverCore, record: bool, out: &mut RateTable, s: &mut SolveScratch) {
    s.cand.clear();
    for k in 0..s.live_res.len() {
        let r = s.live_res[k];
        let ri = r as usize;
        let ratio = s.remaining[ri] / s.inv_w_sum[ri];
        if ratio.is_finite() {
            s.cand.push(std::cmp::Reverse(Candidate { value: OrdF64(ratio), kind: RESOURCE, id: r }));
        }
    }
    for k in 0..s.live.len() {
        let f = s.live[k];
        let pc = core.phi_cap[f as usize];
        if pc.is_finite() {
            s.cand.push(std::cmp::Reverse(Candidate { value: OrdF64(pc), kind: FLOW_CAP, id: f }));
        }
    }
    // O(n) heapify of the staged candidates, recycling both buffers.
    debug_assert!(s.heap.is_empty());
    let staged = std::mem::take(&mut s.cand);
    s.heap = std::collections::BinaryHeap::from(staged);

    let mut unfrozen = s.live.len();

    while unfrozen > 0 {
        // Peek the tightest still-valid constraint; its value is the same
        // minimum the reference finds by scanning everything.
        let mut phi = f64::INFINITY;
        while let Some(&std::cmp::Reverse(c)) = s.heap.peek() {
            let valid = if c.kind == RESOURCE {
                let ri = c.id as usize;
                s.active_count_on[ri] > 0 && s.remaining[ri] / s.inv_w_sum[ri] == c.value.0
            } else {
                s.frozen_stamp[c.id as usize] != s.stamp
            };
            if valid {
                phi = c.value.0;
                break;
            }
            s.heap.pop();
        }

        if phi.is_infinite() {
            // No binding constraint: the remaining flows are unbounded.
            for k in 0..s.live.len() {
                let f = s.live[k];
                if s.frozen_stamp[f as usize] != s.stamp {
                    set_rate(out, f, f64::INFINITY, s);
                }
            }
            break;
        }

        let threshold = phi * (1.0 + REL_EPS) + f64::MIN_POSITIVE;

        // Collect this round's freezes straight from the candidate heap:
        // every resource whose ratio binds at `threshold` freezes all its
        // unfrozen flows, every binding cap freezes its flow. Freezing a
        // flow at ≤ φ/w only *raises* other ratios, so the binding set is
        // fixed at round start and no per-flow scan is needed (the
        // reference's in-pass updates cannot pull new resources under the
        // threshold except within its 1e-12 slack, which random inputs do
        // not hit).
        s.touched.clear();
        s.round_bind.clear();
        while let Some(&std::cmp::Reverse(c)) = s.heap.peek() {
            let valid = if c.kind == RESOURCE {
                let ri = c.id as usize;
                s.active_count_on[ri] > 0 && s.remaining[ri] / s.inv_w_sum[ri] == c.value.0
            } else {
                s.frozen_stamp[c.id as usize] != s.stamp
            };
            if !valid {
                s.heap.pop();
                continue;
            }
            if c.value.0 > threshold {
                break;
            }
            s.heap.pop();
            if c.kind == RESOURCE {
                let ri = c.id as usize;
                s.round_bind.push(c.id);
                for &f in core.members(ri) {
                    if s.frozen_stamp[f as usize] != s.stamp {
                        s.frozen_stamp[f as usize] = s.stamp;
                        s.touched.push(f);
                    }
                }
            } else if s.frozen_stamp[c.id as usize] != s.stamp {
                s.frozen_stamp[c.id as usize] = s.stamp;
                s.touched.push(c.id);
            }
        }

        if s.touched.is_empty() {
            // Cannot happen (the φ candidate itself always yields a
            // freeze), but guarantee progress against float oddities.
            for k in 0..s.live.len() {
                let f = s.live[k];
                let fi = f as usize;
                if s.frozen_stamp[fi] != s.stamp {
                    let rate = (phi / core.flows[fi].weight).min(core.flows[fi].cap);
                    set_rate(out, f, rate, s);
                }
            }
            break;
        }

        unfrozen -= apply_round(core, record, phi, threshold, out, s, true);

        // Freezes changed these resources' ratios; push fresh candidates
        // (old entries turn stale and are skipped on pop).
        for k in 0..s.dirty_round.len() {
            let r = s.dirty_round[k];
            let ri = r as usize;
            if s.active_count_on[ri] > 0 {
                let ratio = s.remaining[ri] / s.inv_w_sum[ri];
                if ratio.is_finite() {
                    s.heap.push(std::cmp::Reverse(Candidate {
                        value: OrdF64(ratio),
                        kind: RESOURCE,
                        id: r,
                    }));
                }
            }
        }
    }

    // Recycle the heap's buffer for the next solve's staging.
    let mut spent = std::mem::take(&mut s.heap).into_vec();
    spent.clear();
    s.cand = spent;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-9 * b.abs().max(1.0)
    }

    #[test]
    fn lone_flow_gets_the_link() {
        let mut p = SharingProblem::with_capacities(vec![100.0]);
        p.add_flow(vec![0], 1.0, f64::INFINITY);
        let r = p.solve();
        assert!(close(r[0], 100.0), "{r:?}");
    }

    #[test]
    fn equal_flows_split_evenly() {
        let mut p = SharingProblem::with_capacities(vec![100.0]);
        p.add_flow(vec![0], 1.0, f64::INFINITY);
        p.add_flow(vec![0], 1.0, f64::INFINITY);
        let r = p.solve();
        assert!(close(r[0], 50.0) && close(r[1], 50.0), "{r:?}");
    }

    #[test]
    fn rtt_weighting_biases_shares() {
        // weights 1 and 2 on a capacity-3 link: potential φ solves
        // φ(1/1 + 1/2) = 3 → φ = 2 → rates 2 and 1.
        let mut p = SharingProblem::with_capacities(vec![3.0]);
        p.add_flow(vec![0], 1.0, f64::INFINITY);
        p.add_flow(vec![0], 2.0, f64::INFINITY);
        let r = p.solve();
        assert!(close(r[0], 2.0) && close(r[1], 1.0), "{r:?}");
    }

    #[test]
    fn capped_flow_releases_bandwidth() {
        let mut p = SharingProblem::with_capacities(vec![10.0]);
        p.add_flow(vec![0], 1.0, 1.0);
        p.add_flow(vec![0], 1.0, f64::INFINITY);
        let r = p.solve();
        assert!(close(r[0], 1.0) && close(r[1], 9.0), "{r:?}");
    }

    #[test]
    fn chain_bottleneck() {
        // A: L0(cap 1) + L1(cap 10); B: L1 only → A=1, B=9.
        let mut p = SharingProblem::with_capacities(vec![1.0, 10.0]);
        p.add_flow(vec![0, 1], 1.0, f64::INFINITY);
        p.add_flow(vec![1], 1.0, f64::INFINITY);
        let r = p.solve();
        assert!(close(r[0], 1.0) && close(r[1], 9.0), "{r:?}");
    }

    #[test]
    fn parking_lot_is_max_min_fair() {
        // Long flow across 3 unit links, one short flow per link:
        // every flow gets 1/2.
        let mut p = SharingProblem::with_capacities(vec![1.0, 1.0, 1.0]);
        p.add_flow(vec![0, 1, 2], 1.0, f64::INFINITY);
        p.add_flow(vec![0], 1.0, f64::INFINITY);
        p.add_flow(vec![1], 1.0, f64::INFINITY);
        p.add_flow(vec![2], 1.0, f64::INFINITY);
        let r = p.solve();
        for (i, v) in r.iter().enumerate() {
            assert!(close(*v, 0.5), "flow {i}: {v} in {r:?}");
        }
    }

    #[test]
    fn unconstrained_flow_is_unbounded() {
        let mut p = SharingProblem::with_capacities(vec![]);
        p.add_flow(vec![], 1.0, f64::INFINITY);
        let r = p.solve();
        assert!(r[0].is_infinite());
    }

    #[test]
    fn cap_only_flow() {
        let mut p = SharingProblem::with_capacities(vec![]);
        p.add_flow(vec![], 1.0, 42.0);
        let r = p.solve();
        assert!(close(r[0], 42.0));
    }

    #[test]
    fn second_level_bottleneck_redistributes() {
        // L0 cap 10 shared by A,B; B also crosses L1 cap 2.
        // B is limited to 2 by L1, A picks up 8 on L0.
        let mut p = SharingProblem::with_capacities(vec![10.0, 2.0]);
        p.add_flow(vec![0], 1.0, f64::INFINITY);
        p.add_flow(vec![0, 1], 1.0, f64::INFINITY);
        let r = p.solve();
        assert!(close(r[0], 8.0) && close(r[1], 2.0), "{r:?}");
    }

    #[test]
    fn many_flows_deterministic() {
        let mut p = SharingProblem::with_capacities(vec![100.0; 10]);
        for i in 0..50 {
            p.add_flow(vec![(i % 10) as u32, ((i + 3) % 10) as u32], 1.0 + (i % 4) as f64, f64::INFINITY);
        }
        let r1 = p.solve();
        let r2 = p.solve();
        assert_eq!(r1, r2, "solver must be deterministic");
    }
}


