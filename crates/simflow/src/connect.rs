//! Persistent flow↔resource connectivity.
//!
//! [`Connectivity`] tracks which flows transitively share resources — the
//! *sharing components* of a max-min problem — **incrementally across
//! events**, so the solver never has to re-discover a component with a
//! per-event BFS. The structure is a union-find over resources with, at
//! each root, intrusive member lists (active flows, resources) of that
//! root's component:
//!
//! * **Attach** (a flow starts): the flow's resources are unioned
//!   together — exact and `O(α)` per link, because a new flow can only
//!   *merge* components, never split them — and the flow joins the
//!   winning root's member list. Both member lists are intrusive
//!   circular linked lists over flat `u32` arrays, so a merge is a pure
//!   `O(1)` splice: no per-root `Vec`s to allocate, no elements to move.
//! * **Detach** (a flow finishes): the flow unlinks from its component's
//!   list in `O(1)`, and the component is marked *stale*: the departed
//!   flow may have been the only bridge between two halves, so the
//!   stored component is now possibly a **superset** (a coarsening) of
//!   the true partition.
//! * **Lazy split**: nothing is recomputed at detach time. A stale
//!   component is re-split — union-find rebuilt from its active flows —
//!   only when it is consulted *and* enough departures have accumulated
//!   ([`Connectivity::should_split`]: more flows have left since the
//!   last rebuild than remain). Each rebuild costs `O(component
//!   incidence)` and at least halves the accumulated staleness, so a
//!   component that drains from `n` flows to zero pays `O(n)` total
//!   rebuild work — amortized constant per event, versus a BFS *per
//!   event* before.
//!
//! ## Why stale supersets are exact
//!
//! The invariant maintained is a **coarsening**: every true component is
//! wholly contained in one stored component (unions are applied eagerly;
//! splits are deferred). Consumers that *solve* a stored component may
//! therefore solve the union of several truly-disjoint components — and
//! for progressive max-min filling that is **bit-identical** to solving
//! each piece alone: disjoint pieces share no resource, so a filling
//! round's binding potential for a piece is computed from that piece's
//! resources only, each piece's flows freeze at exactly the φ values
//! they would freeze at alone, and the per-resource float updates happen
//! in the same (ascending-flow) order. Staleness costs redundant work on
//! the unaffected pieces, never a different answer — which is what makes
//! deferring the split safe on the completion-heavy hot path (the
//! affected component *is* nearly the whole active set there, so there
//! is nothing worth splitting anyway).
//!
//! ## Platform events compose for free
//!
//! Dynamic-platform events (capacity changes, link down/up — see
//! [`crate::kernel`]) need no special handling here: a capacity change
//! moves no flow between components, a `Down` under the fail policy is
//! just a burst of ordinary detaches (each flow's departure marks its
//! component stale exactly like a completion would), and a `Stall`ed
//! outage keeps its flows attached — a zero-capacity resource still
//! *connects* the flows crossing it, which is precisely what the solver
//! needs to hand the whole component one reshare at recovery time.
//!
//! The structure is used internally by [`crate::model::MaxMinSolver`].
//! [`Connectivity::label_batch`] labels link-disjoint groups of routes
//! with the same code.

/// Sentinel for "no flow" in the intrusive flow lists.
const NONE: u32 = u32::MAX;

/// Incremental union-find connectivity over `nr` resources with intrusive
/// per-root component member lists. See the module docs for the
/// invariants. All storage is flat `u32` arrays, six of them one entry
/// per resource: construction is `O(resources)`, so a solver's instance
/// is recycled with the rest of a [`crate::SimScratch`] and reset by
/// visiting only the resources its flows were attached over.
#[derive(Clone, Debug, Default)]
pub struct Connectivity {
    /// Union-find parent per resource; `parent[r] == r` at roots.
    parent: Vec<u32>,
    /// Circular list threading each component's resources:
    /// `res_next[r]` is another resource of `r`'s component (itself for
    /// singletons). Two circular lists merge by swapping one pointer
    /// pair.
    res_next: Vec<u32>,
    /// Resources in the component (valid at roots).
    n_res: Vec<u32>,
    /// First active flow of the component rooted at `r`, or `NONE`.
    fl_head: Vec<u32>,
    /// Active flows in the component (valid at roots).
    n_flows: Vec<u32>,
    /// Flows detached from the root's component since its member lists
    /// were last (re)built; drives [`Connectivity::should_split`].
    dead: Vec<u32>,
    /// Circular doubly-linked flow list (`fl_prev[head]` is the tail).
    fl_next: Vec<u32>,
    fl_prev: Vec<u32>,
    /// Recycled buffers for [`Connectivity::resplit`].
    scratch_flows: Vec<u32>,
    scratch_res: Vec<u32>,
}

impl Connectivity {
    /// An empty structure over `nr` resources; every resource starts as
    /// its own singleton component.
    pub fn new(nr: usize) -> Connectivity {
        Connectivity {
            parent: (0..nr as u32).collect(),
            res_next: (0..nr as u32).collect(),
            n_res: vec![1; nr],
            fl_head: vec![NONE; nr],
            n_flows: vec![0; nr],
            dead: vec![0; nr],
            fl_next: Vec::new(),
            fl_prev: Vec::new(),
            scratch_flows: Vec::new(),
            scratch_res: Vec::new(),
        }
    }

    /// Returns to the state of [`Connectivity::new`] with no flow ids,
    /// given every resource any flow was attached over: unions, splits
    /// and member lists only ever write at such resources.
    pub(crate) fn reset(&mut self, attached: &[u32]) {
        for &r in attached {
            let ri = r as usize;
            self.parent[ri] = r;
            self.res_next[ri] = r;
            self.n_res[ri] = 1;
            self.fl_head[ri] = NONE;
            self.n_flows[ri] = 0;
            self.dead[ri] = 0;
        }
        self.fl_next.clear();
        self.fl_prev.clear();
    }

    /// Whether every resource is a flowless singleton and no flow id is
    /// allocated: `O(resources)`, a test oracle for
    /// [`Connectivity::reset`].
    pub(crate) fn is_pristine(&self) -> bool {
        (0..self.parent.len()).all(|ri| {
            self.parent[ri] == ri as u32
                && self.res_next[ri] == ri as u32
                && self.n_res[ri] == 1
                && self.fl_head[ri] == NONE
                && self.n_flows[ri] == 0
                && self.dead[ri] == 0
        }) && self.fl_next.is_empty()
            && self.fl_prev.is_empty()
    }

    /// Makes room for flow ids up to `nf - 1`.
    pub fn ensure_flows(&mut self, nf: usize) {
        if self.fl_next.len() < nf {
            self.fl_next.resize(nf, NONE);
            self.fl_prev.resize(nf, NONE);
        }
    }

    /// The component root of `r`, with path halving.
    #[inline]
    pub fn find(&mut self, mut r: u32) -> u32 {
        while self.parent[r as usize] != r {
            let g = self.parent[self.parent[r as usize] as usize];
            self.parent[r as usize] = g;
            r = g;
        }
        r
    }

    /// Number of active flows in the component rooted at `root`.
    #[inline]
    pub fn flow_count(&self, root: u32) -> usize {
        self.n_flows[root as usize] as usize
    }

    /// Number of resources in the component rooted at `root`.
    #[inline]
    pub fn res_count(&self, root: u32) -> usize {
        self.n_res[root as usize] as usize
    }

    /// Iterates the active flows of the component rooted at `root`.
    #[inline]
    pub fn flows_iter(&self, root: u32) -> impl Iterator<Item = u32> + '_ {
        let head = self.fl_head[root as usize];
        let count = self.n_flows[root as usize] as usize;
        let mut cur = head;
        std::iter::from_fn(move || {
            let f = cur;
            cur = self.fl_next[f as usize];
            Some(f)
        })
        .take(count)
    }

    /// Iterates the resources of the component rooted at `root` (at
    /// least the root itself).
    #[inline]
    pub fn res_iter(&self, root: u32) -> impl Iterator<Item = u32> + '_ {
        let count = self.n_res[root as usize] as usize;
        let mut cur = root;
        std::iter::from_fn(move || {
            let r = cur;
            cur = self.res_next[r as usize];
            Some(r)
        })
        .take(count)
    }

    /// Unions two roots, returning the winner (larger membership, so the
    /// balance mirrors union-by-size).
    fn union(&mut self, a: u32, b: u32) -> u32 {
        if a == b {
            return a;
        }
        let weight =
            |c: &Connectivity, x: u32| c.n_flows[x as usize] + c.n_res[x as usize];
        let (win, lose) = if weight(self, a) >= weight(self, b) { (a, b) } else { (b, a) };
        let (w, l) = (win as usize, lose as usize);
        self.parent[l] = win;
        // Splice the circular resource lists: one pointer swap.
        self.res_next.swap(w, l);
        self.n_res[w] += self.n_res[l];
        // Append the loser's flow list (circular doubly-linked): O(1).
        let lh = self.fl_head[l];
        if lh != NONE {
            let wh = self.fl_head[w];
            if wh == NONE {
                self.fl_head[w] = lh;
            } else {
                let wt = self.fl_prev[wh as usize];
                let lt = self.fl_prev[lh as usize];
                self.fl_next[wt as usize] = lh;
                self.fl_prev[lh as usize] = wt;
                self.fl_next[lt as usize] = wh;
                self.fl_prev[wh as usize] = lt;
            }
            self.fl_head[l] = NONE;
        }
        self.n_flows[w] += self.n_flows[l];
        self.n_flows[l] = 0;
        self.dead[w] += self.dead[l];
        self.dead[l] = 0;
        win
    }

    /// Attaches an active flow: unions its resources into one component
    /// and links it as a member (at the tail). `resources` must be
    /// non-empty.
    pub fn attach(&mut self, flow: u32, resources: &[u32]) {
        debug_assert!(!resources.is_empty(), "resource-less flows are not attached");
        let mut root = self.find(resources[0]);
        for &r in &resources[1..] {
            let other = self.find(r);
            root = self.union(root, other);
        }
        let fi = flow as usize;
        let head = self.fl_head[root as usize];
        if head == NONE {
            self.fl_head[root as usize] = flow;
            self.fl_next[fi] = flow;
            self.fl_prev[fi] = flow;
        } else {
            let tail = self.fl_prev[head as usize];
            self.fl_next[tail as usize] = flow;
            self.fl_prev[fi] = tail;
            self.fl_next[fi] = head;
            self.fl_prev[head as usize] = flow;
        }
        self.n_flows[root as usize] += 1;
    }

    /// Detaches a finished flow from its component's member list and
    /// marks the component stale (it may now be splittable). `resources`
    /// must be the same list the flow was attached with.
    pub fn detach(&mut self, flow: u32, resources: &[u32]) {
        let root = self.find(resources[0]);
        let (ri, fi) = (root as usize, flow as usize);
        debug_assert!(self.fl_head[ri] != NONE, "detach of unattached flow");
        if self.fl_next[fi] == flow {
            debug_assert_eq!(self.fl_head[ri], flow);
            self.fl_head[ri] = NONE;
        } else {
            let (p, n) = (self.fl_prev[fi], self.fl_next[fi]);
            self.fl_next[p as usize] = n;
            self.fl_prev[n as usize] = p;
            if self.fl_head[ri] == flow {
                self.fl_head[ri] = n;
            }
        }
        self.n_flows[ri] -= 1;
        self.dead[ri] += 1;
    }

    /// Whether `root`'s component has accumulated enough departures since
    /// its last rebuild that re-splitting it would pay: more flows have
    /// left than remain (with a small floor so a lone toggling flow does
    /// not rebuild on every consult). Under this halving schedule a
    /// component draining from `n` flows to zero rebuilds `O(log n)`
    /// times for `O(n)` total work — and shedding the departed flows'
    /// resources promptly also keeps the solve's per-resource sweeps
    /// proportional to the *live* component, which is what small
    /// drain-to-empty runs are most sensitive to.
    pub fn should_split(&self, root: u32) -> bool {
        let dead = self.dead[root as usize] as usize;
        dead > (self.n_flows[root as usize] as usize).max(2)
    }

    /// Rebuilds the component rooted at `root` from its active flows,
    /// splitting it into its true sub-components. `res_span` maps a flow
    /// id to its resource list (the same list it was attached with).
    /// Resources left with no active flows become singleton components.
    pub fn resplit<'a>(&mut self, root: u32, res_span: impl Fn(u32) -> &'a [u32]) {
        let mut flows = std::mem::take(&mut self.scratch_flows);
        flows.clear();
        flows.extend(self.flows_iter(root));
        let mut res = std::mem::take(&mut self.scratch_res);
        res.clear();
        res.extend(self.res_iter(root));
        for &r in &res {
            let ri = r as usize;
            self.parent[ri] = r;
            self.res_next[ri] = r;
            self.n_res[ri] = 1;
            self.fl_head[ri] = NONE;
            self.n_flows[ri] = 0;
            self.dead[ri] = 0;
        }
        for &f in &flows {
            self.attach(f, res_span(f));
        }
        self.scratch_flows = flows;
        self.scratch_res = res;
    }

    /// One-shot batch labeling: assigns each item (described by its
    /// resource list, resource ids `< nr`) a dense component id in
    /// first-appearance order; items transitively sharing a resource get
    /// the same id. Items with **no** resources cannot interact with
    /// anything and are lumped into one shared id (so a batch of
    /// unconstrained items forms one group, not many).
    pub fn label_batch(nr: usize, items: &[&[u32]]) -> Vec<usize> {
        let mut conn = Connectivity::new(nr);
        conn.ensure_flows(items.len());
        for (i, res) in items.iter().enumerate() {
            if !res.is_empty() {
                conn.attach(i as u32, res);
            }
        }
        let mut dense: Vec<usize> = vec![usize::MAX; nr + 1];
        let free_slot = nr; // dense slot shared by all resource-less items
        let mut next = 0usize;
        let mut out = Vec::with_capacity(items.len());
        for res in items {
            let slot = if res.is_empty() { free_slot } else { conn.find(res[0]) as usize };
            let id = dense[slot];
            let id = if id == usize::MAX {
                dense[slot] = next;
                next += 1;
                next - 1
            } else {
                id
            };
            out.push(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted_flows(c: &Connectivity, root: u32) -> Vec<u32> {
        let mut v: Vec<u32> = c.flows_iter(root).collect();
        v.sort_unstable();
        v
    }

    fn sorted_res(c: &Connectivity, root: u32) -> Vec<u32> {
        let mut v: Vec<u32> = c.res_iter(root).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn attach_merges_and_detach_marks_stale() {
        let mut c = Connectivity::new(6);
        c.ensure_flows(4);
        c.attach(0, &[0, 1]);
        c.attach(1, &[3, 4]);
        assert_ne!(c.find(0), c.find(3));
        c.attach(2, &[1, 3]); // bridges the two components
        let root = c.find(0);
        assert_eq!(root, c.find(4));
        assert_eq!(sorted_flows(&c, root), vec![0, 1, 2]);
        assert_eq!(sorted_res(&c, root), vec![0, 1, 3, 4]);
        assert_eq!(c.flow_count(root), 3);
        assert_eq!(c.res_count(root), 4);

        // Detaching the bridge leaves a stale superset…
        c.detach(2, &[1, 3]);
        let root = c.find(0);
        assert_eq!(root, c.find(4), "split is lazy");
        assert_eq!(sorted_flows(&c, root), vec![0, 1]);

        // …until a resplit separates the true components again.
        let routes: Vec<Vec<u32>> = vec![vec![0, 1], vec![3, 4], vec![1, 3]];
        c.resplit(root, |f| routes[f as usize].as_slice());
        assert_ne!(c.find(0), c.find(3));
        let (ra, rb) = (c.find(0), c.find(4));
        assert_eq!(sorted_flows(&c, ra), vec![0]);
        assert_eq!(sorted_flows(&c, rb), vec![1]);
    }

    #[test]
    fn singleton_resources_report_themselves() {
        let mut c = Connectivity::new(3);
        let r = c.find(2);
        assert_eq!(sorted_res(&c, r), vec![2]);
        assert_eq!(c.flow_count(r), 0);
    }

    #[test]
    fn should_split_needs_enough_departures() {
        let mut c = Connectivity::new(4);
        c.ensure_flows(32);
        for f in 0..20u32 {
            c.attach(f, &[0, 1]);
        }
        let root = c.find(0);
        assert!(!c.should_split(root));
        for f in 0..11u32 {
            c.detach(f, &[0, 1]);
        }
        // 11 departed > max(9 remaining, 2)
        let root = c.find(0);
        assert!(c.should_split(root));
    }

    #[test]
    fn label_batch_matches_engine_semantics() {
        let lists: Vec<&[u32]> = vec![
            &[0, 1], // A
            &[2],    // B
            &[1, 3], // C shares 1 with A
            &[],     // D unconstrained
            &[4],    // E
            &[],     // F unconstrained — shares D's bucket
            &[3, 4], // G bridges C and E
        ];
        let c = Connectivity::label_batch(5, &lists);
        assert_eq!(c[0], c[2], "A and C share link 1");
        assert_eq!(c[2], c[6], "G bridges into A/C via link 3");
        assert_eq!(c[4], c[6], "G bridges E via link 4");
        assert_ne!(c[0], c[1], "B is alone");
        assert_eq!(c[3], c[5], "unconstrained items share one bucket");
        assert_ne!(c[3], c[0]);
        // dense, first-appearance ids
        assert_eq!(c[0], 0);
        assert_eq!(c[1], 1);
        assert_eq!(c[3], 2);
    }

    #[test]
    fn label_batch_disjoint_items_are_distinct() {
        let lists: Vec<&[u32]> = vec![&[0], &[1], &[2]];
        assert_eq!(Connectivity::label_batch(3, &lists), vec![0, 1, 2]);
    }
}
