//! Platform description: hosts, routers, links and a hierarchy of routing
//! zones (SimGrid's *Autonomous Systems*).
//!
//! A [`Platform`] is an immutable, shareable description built once through
//! [`builder::PlatformBuilder`] and then queried by simulations. The key
//! operation is [`Platform::route`], which resolves the ordered list of
//! links a flow traverses between two network points, walking the zone tree
//! exactly like SimGrid's hierarchical routing: each zone answers routing
//! queries between its *direct* members (netpoints or child zones, the
//! latter represented by their gateway), and the resolution recurses into
//! child zones on both sides.
//!
//! The paper stresses that this hierarchy is what made simulating the whole
//! of Grid'5000 tractable — with a flat full routing table "it was
//! impossible to wholly simulate Grid'5000". The root package's
//! `hierarchical_routing_saves_quadratic_memory` test reproduces that
//! comparison.
//!
//! ## Hierarchical route memoization
//!
//! At 10k–100k hosts, resolving every host pair through the full zone
//! recursion dominates simulation setup, and caching per *host pair* is
//! hopeless (10¹⁰ pairs). [`Platform::route`] therefore memoizes the
//! host-independent **middle segment** of cross-zone routes, keyed by the
//! *(source leaf zone, destination leaf zone)* pair: a route between hosts
//! `a ∈ A` and `b ∈ B` decomposes as
//!
//! ```text
//! route(a, b) = local(a → gw_A) ++ MID(A, B) ++ local(gw_B → b)
//! ```
//!
//! where `MID(A, B) = route(gw_A, gw_B)` is resolved once per zone pair
//! and replayed for every subsequent pair of hosts, and the `local` ends
//! are O(1) cluster access-link lookups. The decomposition is applied only
//! to zones the builder proved it exact for (leaf zones whose gateway is a
//! direct member, with no ancestor gateway aliased into the leaf), and is
//! **bit-identical** to the uncached recursion — same link sequence, and
//! the latency is summed over the final concatenated sequence in order, so
//! the f64 grouping matches too. [`Platform::route_uncached`] keeps the
//! plain recursion callable; `tests/routing_properties.rs` pins equality
//! across all zone-routing variants.

pub mod builder;
pub mod routing;

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use routing::{Element, ZoneRouting};

/// Identifier of a network point (host or router) within a [`Platform`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NetPointId(pub(crate) u32);

/// Identifier of a host. Every `HostId` is also a [`NetPointId`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct HostId(pub(crate) u32);

impl HostId {
    /// The underlying network-point identifier.
    #[inline]
    pub fn netpoint(self) -> NetPointId {
        NetPointId(self.0)
    }
}

/// Identifier of a link within a [`Platform`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct LinkId(pub(crate) u32);

impl LinkId {
    /// The dense index of this link, usable to address per-link state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a routing zone within a [`Platform`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct ZoneId(pub(crate) u32);

/// What a network point is: an endpoint that can run work, or a pure
/// routing waypoint.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NetPointKind {
    /// A machine that can originate/terminate transfers and run compute
    /// tasks. The payload is its index in the host table.
    Host(u32),
    /// A router/switch: only appears inside routes.
    Router,
}

/// A named point of the network topology.
#[derive(Clone, Debug)]
pub struct NetPoint {
    /// Unique name (e.g. `"sagittaire-12.lyon.grid5000.fr"`).
    pub name: String,
    /// Host or router.
    pub kind: NetPointKind,
    /// The zone this point is a direct member of.
    pub zone: ZoneId,
}

/// Host-specific attributes.
#[derive(Clone, Debug)]
pub struct Host {
    /// The network point backing this host.
    pub netpoint: NetPointId,
    /// Compute speed in flop/s, used by compute tasks (paper §VI extends
    /// forecasts to full workflows mixing computations and transfers).
    pub speed: f64,
}

/// How competing flows share a link.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SharingPolicy {
    /// The sum of the rates of all flows crossing the link is bounded by
    /// its bandwidth (normal case).
    Shared,
    /// Each flow is individually bounded by the bandwidth, but the link
    /// never saturates as a whole — SimGrid's `FATPIPE`, used for backbone
    /// links whose capacity far exceeds any single flow.
    FatPipe,
}

/// A network link.
#[derive(Clone, Debug)]
pub struct Link {
    /// Unique name (e.g. `"sagittaire-12-ge0"`).
    pub name: String,
    /// Nominal bandwidth in bytes per second.
    pub bandwidth: f64,
    /// One-way propagation latency in seconds.
    pub latency: f64,
    /// Sharing policy.
    pub policy: SharingPolicy,
}

/// A routing zone (SimGrid *AS*): a node of the routing hierarchy.
#[derive(Debug)]
pub struct Zone {
    /// Zone name (e.g. `"lyon"`).
    pub name: String,
    /// Parent zone, `None` for the root.
    pub parent: Option<ZoneId>,
    /// Child zones.
    pub children: Vec<ZoneId>,
    /// Intra-zone routing between the zone's direct elements.
    pub routing: ZoneRouting,
    /// The netpoint other zones use to reach this zone (required for every
    /// non-root zone crossed by inter-zone traffic).
    pub gateway: Option<NetPointId>,
}

/// An end-to-end route: the ordered links a flow traverses plus the
/// accumulated one-way latency.
#[derive(Clone, Debug, PartialEq)]
pub struct Route {
    /// Links in traversal order (duplicates possible if a route legitimately
    /// crosses the same backbone link twice, e.g. hairpinning at a router).
    pub links: Vec<LinkId>,
    /// Sum of link latencies in seconds.
    pub latency: f64,
}

impl Route {
    /// An empty route (src == dst).
    pub fn empty() -> Self {
        Route { links: Vec::new(), latency: 0.0 }
    }
}

/// Errors produced by route resolution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RouteError {
    /// No route is declared between two elements of a zone.
    NoRoute { zone: String, from: String, to: String },
    /// A zone on the path has no gateway although inter-zone traffic must
    /// cross it.
    NoGateway { zone: String },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::NoRoute { zone, from, to } => {
                write!(f, "no route in zone '{zone}' between '{from}' and '{to}'")
            }
            RouteError::NoGateway { zone } => {
                write!(f, "zone '{zone}' has no gateway")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Counters of the hierarchical route memo (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RouteMemoStats {
    /// Route resolutions served by splicing a memoized middle segment.
    pub hits: u64,
    /// Memoized (zone, zone) middle segments currently stored.
    pub entries: u64,
    /// Total links across all memoized middle segments (memory proxy).
    pub links: u64,
}

/// The hierarchical route memo: middle segments of cross-zone routes
/// keyed by (source leaf zone, destination leaf zone). Thread-safe
/// interior mutability — the platform itself stays shareable by `&`.
#[derive(Debug, Default)]
struct RouteMemo {
    mid: RwLock<HashMap<(u32, u32), MidSegment>>,
    hits: AtomicU64,
}

/// One memoized gateway-to-gateway link sequence.
type MidSegment = Arc<Vec<LinkId>>;

/// Middle-segment entries beyond this are not memoized (a backstop for
/// adversarial all-pairs zone traffic; ordinary workloads touch a tiny
/// fraction of the zone-pair space).
const ROUTE_MEMO_CAP: usize = 1 << 20;

/// An immutable platform description. Cheap to share across threads.
#[derive(Debug)]
pub struct Platform {
    pub(crate) netpoints: Vec<NetPoint>,
    pub(crate) hosts: Vec<Host>,
    pub(crate) links: Vec<Link>,
    pub(crate) zones: Vec<Zone>,
    pub(crate) by_name: HashMap<String, NetPointId>,
    pub(crate) root: ZoneId,
    /// Per zone: the gateway-splice decomposition is exact for hosts of
    /// this zone (computed once by the builder; see the module docs).
    pub(crate) memo_ready: Vec<bool>,
    memo: RouteMemo,
}

impl Platform {
    /// Assembles a validated platform (builder-only entry point; the
    /// route memo starts empty).
    pub(crate) fn assemble(
        netpoints: Vec<NetPoint>,
        hosts: Vec<Host>,
        links: Vec<Link>,
        zones: Vec<Zone>,
        by_name: HashMap<String, NetPointId>,
        root: ZoneId,
        memo_ready: Vec<bool>,
    ) -> Self {
        Platform {
            netpoints,
            hosts,
            links,
            zones,
            by_name,
            root,
            memo_ready,
            memo: RouteMemo::default(),
        }
    }

    /// Number of hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// The root zone.
    pub fn root(&self) -> ZoneId {
        self.root
    }

    /// Iterates over all host identifiers.
    pub fn hosts(&self) -> impl Iterator<Item = HostId> + '_ {
        (0..self.hosts.len()).map(move |i| HostId(self.hosts[i].netpoint.0))
    }

    /// Looks a host up by name.
    pub fn host_by_name(&self, name: &str) -> Option<HostId> {
        let np = *self.by_name.get(name)?;
        match self.netpoints[np.0 as usize].kind {
            NetPointKind::Host(_) => Some(HostId(np.0)),
            NetPointKind::Router => None,
        }
    }

    /// The name of a host.
    pub fn host_name(&self, h: HostId) -> &str {
        &self.netpoints[h.0 as usize].name
    }

    /// The dense index of a host in `0..host_count()`, usable to address
    /// per-host state (the kernel maps host CPUs to solver resources with
    /// it).
    pub fn host_index(&self, h: HostId) -> usize {
        match self.netpoints[h.0 as usize].kind {
            NetPointKind::Host(idx) => idx as usize,
            NetPointKind::Router => unreachable!("HostId always points at a host"),
        }
    }

    /// Link attributes.
    pub fn link(&self, l: LinkId) -> &Link {
        &self.links[l.0 as usize]
    }

    /// Looks a link up by name.
    pub fn link_by_name(&self, name: &str) -> Option<LinkId> {
        self.links
            .iter()
            .position(|l| l.name == name)
            .map(|i| LinkId(i as u32))
    }

    /// Zone attributes.
    pub fn zone(&self, z: ZoneId) -> &Zone {
        &self.zones[z.0 as usize]
    }

    /// Resolves the route between two netpoints through the zone hierarchy,
    /// splicing a memoized (zone, zone) middle segment when the endpoints
    /// live in memo-eligible leaf zones (see the module docs). The result
    /// is bit-identical to [`Platform::route_uncached`].
    ///
    /// Returns an empty route when `src == dst`.
    pub fn route(&self, src: NetPointId, dst: NetPointId) -> Result<Route, RouteError> {
        if src == dst {
            return Ok(Route::empty());
        }
        let zs = self.netpoints[src.0 as usize].zone;
        let zd = self.netpoints[dst.0 as usize].zone;
        if zs != zd && self.memo_ready[zs.0 as usize] && self.memo_ready[zd.0 as usize] {
            return self.route_spliced(src, dst, zs, zd);
        }
        self.route_uncached(src, dst)
    }

    /// The plain hierarchical resolution, bypassing the route memo. Kept
    /// public as the reference the memoized path is property-tested
    /// against.
    pub fn route_uncached(&self, src: NetPointId, dst: NetPointId) -> Result<Route, RouteError> {
        if src == dst {
            return Ok(Route::empty());
        }
        let mut links = Vec::with_capacity(8);
        self.route_rec(src, dst, &mut links)?;
        let latency = links
            .iter()
            .map(|l| self.links[l.0 as usize].latency)
            .sum();
        Ok(Route { links, latency })
    }

    /// Cross-zone resolution via the memoized middle segment:
    /// `local(src → gw_src) ++ MID(zs, zd) ++ local(gw_dst → dst)`, with
    /// `MID` resolved once per zone pair through the full recursion. The
    /// latency is summed over the final concatenated link sequence in
    /// order, so the f64 result is bitwise the uncached one.
    fn route_spliced(
        &self,
        src: NetPointId,
        dst: NetPointId,
        zs: ZoneId,
        zd: ZoneId,
    ) -> Result<Route, RouteError> {
        let ga = self.zones[zs.0 as usize].gateway.expect("memo_ready implies gateway");
        let gb = self.zones[zd.0 as usize].gateway.expect("memo_ready implies gateway");
        let mut links = Vec::with_capacity(8);
        if src != ga {
            self.route_rec(src, ga, &mut links)?;
        }
        let key = (zs.0, zd.0);
        let cached = self.memo.mid.read().expect("route memo poisoned").get(&key).cloned();
        match cached {
            Some(mid) => {
                self.memo.hits.fetch_add(1, Ordering::Relaxed);
                links.extend_from_slice(&mid);
            }
            None => {
                let mut mid = Vec::new();
                self.route_rec(ga, gb, &mut mid)?;
                links.extend_from_slice(&mid);
                let mut w = self.memo.mid.write().expect("route memo poisoned");
                if w.len() < ROUTE_MEMO_CAP {
                    w.entry(key).or_insert_with(|| Arc::new(mid));
                }
            }
        }
        if gb != dst {
            self.route_rec(gb, dst, &mut links)?;
        }
        let latency = links
            .iter()
            .map(|l| self.links[l.0 as usize].latency)
            .sum();
        Ok(Route { links, latency })
    }

    /// Route-memo counters: hits, stored (zone, zone) entries, and total
    /// links across stored segments. Sessions fold the hit delta into
    /// telemetry after each run; `tests/kernel_counts.rs` pins entries.
    pub fn route_memo_stats(&self) -> RouteMemoStats {
        let m = self.memo.mid.read().expect("route memo poisoned");
        RouteMemoStats {
            hits: self.memo.hits.load(Ordering::Relaxed),
            entries: m.len() as u64,
            links: m.values().map(|v| v.len() as u64).sum(),
        }
    }

    /// Convenience: route between two hosts.
    pub fn route_hosts(&self, src: HostId, dst: HostId) -> Result<Route, RouteError> {
        self.route(src.netpoint(), dst.netpoint())
    }

    fn zone_depth(&self, mut z: ZoneId) -> usize {
        let mut d = 0;
        while let Some(p) = self.zones[z.0 as usize].parent {
            z = p;
            d += 1;
        }
        d
    }

    /// Lowest common ancestor of two zones.
    fn lca(&self, mut a: ZoneId, mut b: ZoneId) -> ZoneId {
        let (mut da, mut db) = (self.zone_depth(a), self.zone_depth(b));
        while da > db {
            a = self.zones[a.0 as usize].parent.expect("depth accounted");
            da -= 1;
        }
        while db > da {
            b = self.zones[b.0 as usize].parent.expect("depth accounted");
            db -= 1;
        }
        while a != b {
            a = self.zones[a.0 as usize].parent.expect("common root exists");
            b = self.zones[b.0 as usize].parent.expect("common root exists");
        }
        a
    }

    /// The direct child of `ancestor` on the path down to `z`
    /// (`z` must be a strict descendant of `ancestor`).
    fn child_towards(&self, ancestor: ZoneId, mut z: ZoneId) -> ZoneId {
        loop {
            let p = self.zones[z.0 as usize]
                .parent
                .expect("z is a strict descendant of ancestor");
            if p == ancestor {
                return z;
            }
            z = p;
        }
    }

    fn gateway_of(&self, z: ZoneId) -> Result<NetPointId, RouteError> {
        self.zones[z.0 as usize]
            .gateway
            .ok_or_else(|| RouteError::NoGateway { zone: self.zones[z.0 as usize].name.clone() })
    }

    fn route_rec(
        &self,
        src: NetPointId,
        dst: NetPointId,
        out: &mut Vec<LinkId>,
    ) -> Result<(), RouteError> {
        if src == dst {
            return Ok(());
        }
        let zs = self.netpoints[src.0 as usize].zone;
        let zd = self.netpoints[dst.0 as usize].zone;
        let lca = self.lca(zs, zd);

        // Representative element of each side at the LCA level, plus the
        // gateway the recursion must reach inside child subtrees.
        let (src_elem, src_gw) = if zs == lca {
            (Element::Point(src), src)
        } else {
            let child = self.child_towards(lca, zs);
            (Element::Zone(child), self.gateway_of(child)?)
        };
        let (dst_elem, dst_gw) = if zd == lca {
            (Element::Point(dst), dst)
        } else {
            let child = self.child_towards(lca, zd);
            (Element::Zone(child), self.gateway_of(child)?)
        };

        debug_assert_ne!(
            src_elem, dst_elem,
            "LCA property: representatives differ unless src == dst"
        );

        if src != src_gw {
            self.route_rec(src, src_gw, out)?;
        }
        self.zones[lca.0 as usize]
            .routing
            .local_route(self, lca, src_elem, dst_elem, out)?;
        if dst_gw != dst {
            self.route_rec(dst_gw, dst, out)?;
        }
        Ok(())
    }

    /// Total number of route entries stored by all zone routing tables —
    /// the memory-footprint proxy `tests/kernel_counts.rs` pins.
    pub fn stored_route_entries(&self) -> usize {
        self.zones.iter().map(|z| z.routing.stored_entries()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::builder::PlatformBuilder;
    use super::routing::RoutingKind;
    use super::*;

    /// Two hosts in one full-routing zone connected by one link.
    fn tiny() -> Platform {
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let a = b.add_host(root, "a", 1e9);
        let c = b.add_host(root, "c", 1e9);
        let l = b.add_link("l", 1e8, 1e-4, SharingPolicy::Shared);
        b.add_route(
            root,
            Element::Point(a.netpoint()),
            Element::Point(c.netpoint()),
            vec![l],
            true,
        );
        b.build().expect("valid platform")
    }

    #[test]
    fn lookup_by_name() {
        let p = tiny();
        let a = p.host_by_name("a").unwrap();
        assert_eq!(p.host_name(a), "a");
        assert!(p.host_by_name("nope").is_none());
        assert_eq!(p.host_count(), 2);
        assert_eq!(p.link_count(), 1);
    }

    #[test]
    fn same_host_route_is_empty() {
        let p = tiny();
        let a = p.host_by_name("a").unwrap();
        let r = p.route_hosts(a, a).unwrap();
        assert!(r.links.is_empty());
        assert_eq!(r.latency, 0.0);
    }

    #[test]
    fn direct_route_resolves_both_ways() {
        let p = tiny();
        let a = p.host_by_name("a").unwrap();
        let c = p.host_by_name("c").unwrap();
        let r = p.route_hosts(a, c).unwrap();
        assert_eq!(r.links.len(), 1);
        assert!((r.latency - 1e-4).abs() < 1e-18);
        let rback = p.route_hosts(c, a).unwrap();
        assert_eq!(rback.links, r.links);
    }

    #[test]
    fn hierarchical_route_crosses_gateways() {
        // root(Full) { site1(Full){h1, gw1}, site2(Full){h2, gw2} }
        // inter-site link between the zones; intra-site links host<->gw.
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let s1 = b.add_zone(root, "site1", RoutingKind::Full);
        let s2 = b.add_zone(root, "site2", RoutingKind::Full);
        let h1 = b.add_host(s1, "h1", 1e9);
        let gw1 = b.add_router(s1, "gw1");
        let h2 = b.add_host(s2, "h2", 1e9);
        let gw2 = b.add_router(s2, "gw2");
        let l1 = b.add_link("l1", 1.25e8, 1e-4, SharingPolicy::Shared);
        let l2 = b.add_link("l2", 1.25e8, 1e-4, SharingPolicy::Shared);
        let bb = b.add_link("bb", 1.25e9, 2.25e-3, SharingPolicy::Shared);
        b.add_route(s1, Element::Point(h1.netpoint()), Element::Point(gw1), vec![l1], true);
        b.add_route(s2, Element::Point(h2.netpoint()), Element::Point(gw2), vec![l2], true);
        b.set_gateway(s1, gw1);
        b.set_gateway(s2, gw2);
        b.add_route(root, Element::Zone(s1), Element::Zone(s2), vec![bb], true);
        let p = b.build().unwrap();

        let h1 = p.host_by_name("h1").unwrap();
        let h2 = p.host_by_name("h2").unwrap();
        let r = p.route_hosts(h1, h2).unwrap();
        let names: Vec<&str> = r.links.iter().map(|l| p.link(*l).name.as_str()).collect();
        assert_eq!(names, vec!["l1", "bb", "l2"]);
        assert!((r.latency - (1e-4 + 2.25e-3 + 1e-4)).abs() < 1e-15);

        // reverse direction mirrors the path
        let rb = p.route_hosts(h2, h1).unwrap();
        let names_b: Vec<&str> = rb.links.iter().map(|l| p.link(*l).name.as_str()).collect();
        assert_eq!(names_b, vec!["l2", "bb", "l1"]);
    }

    #[test]
    fn missing_gateway_is_reported() {
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let s1 = b.add_zone(root, "site1", RoutingKind::Full);
        let s2 = b.add_zone(root, "site2", RoutingKind::Full);
        let _h1 = b.add_host(s1, "h1", 1e9);
        let _h2 = b.add_host(s2, "h2", 1e9);
        let bb = b.add_link("bb", 1.25e9, 1e-3, SharingPolicy::Shared);
        b.add_route(root, Element::Zone(s1), Element::Zone(s2), vec![bb], true);
        // no gateways set
        let p = b.build().unwrap();
        let h1 = p.host_by_name("h1").unwrap();
        let h2 = p.host_by_name("h2").unwrap();
        match p.route_hosts(h1, h2) {
            Err(RouteError::NoGateway { zone }) => assert_eq!(zone, "site1"),
            other => panic!("expected NoGateway, got {other:?}"),
        }
    }

    #[test]
    fn missing_route_is_reported() {
        let mut b = PlatformBuilder::new("root", RoutingKind::Full);
        let root = b.root_zone();
        let a = b.add_host(root, "a", 1e9);
        let c = b.add_host(root, "c", 1e9);
        let _ = (a, c);
        let p = b.build().unwrap();
        let a = p.host_by_name("a").unwrap();
        let c = p.host_by_name("c").unwrap();
        assert!(matches!(
            p.route_hosts(a, c),
            Err(RouteError::NoRoute { .. })
        ));
    }
}
