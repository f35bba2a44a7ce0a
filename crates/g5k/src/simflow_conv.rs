//! Conversion of the reference description into predictor platforms.
//!
//! Reproduces §IV-C of the paper: "We developed a tool which is able to
//! process this Grid'5000 self-description, and convert it to a SimGrid
//! platform description." Three flavors are generated:
//!
//! * [`Flavor::G5kTest`] — the paper's `g5k_test`: every host enumerated,
//!   one routing zone per site with per-group aggregation detail, and
//!   **no equipment capacity limits** (the paper: "the generated SimGrid
//!   platform description does not yet contain network equipments
//!   bandwidth limits");
//! * [`Flavor::G5kCabinets`] — the coarser `g5k_cabinets` shipped with
//!   SimGrid: clusters abstracted behind a single shared cabinet link, so
//!   intra-cluster concurrency is over-constrained (the paper found
//!   "all predictions based on g5k_test are better");
//! * [`Flavor::FlatFull`] — the pre-hierarchical-routing representation:
//!   one flat zone with a full host-pair routing table. The paper recalls
//!   that this made whole-platform simulation impossible memory-wise; the
//!   `hierarchical_routing_saves_quadratic_memory` tests quantify the gap.
//!
//! Modeled latencies are the paper's hard-coded values (intra-site
//! 10⁻⁴ s per link, backbone 2.25·10⁻³ s) — *not* the true hardware
//! latencies, which is one of the model-vs-reality gaps the evaluation
//! exhibits at small transfer sizes.

use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::{HostId, LinkId, Platform, SharingPolicy, ZoneId};

use crate::latencies::Latencies;
use crate::refapi::{Aggregation, RefApi};

/// The paper's hard-coded intra-site link latency (10⁻⁴ s).
pub const MODEL_INTRA_SITE_LATENCY: f64 = 1e-4;
/// The paper's hard-coded backbone latency (2.25·10⁻³ s).
pub const MODEL_BACKBONE_LATENCY: f64 = 2.25e-3;
/// Cabinet (cluster backbone) capacity used by the `g5k_cabinets` flavor.
pub const CABINET_BPS: f64 = 1.25e9;

/// Which platform model to generate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Flavor {
    /// Host-enumerating, hierarchical, detailed (the paper's best).
    G5kTest,
    /// Cluster-abstracted (coarser, shipped with SimGrid).
    G5kCabinets,
    /// Flat full routing table (pre-AS SimGrid) — for the ablation.
    FlatFull,
}

/// Converts the reference description into a predictor platform.
///
/// # Panics
/// Panics if the description is structurally invalid (callers should run
/// [`RefApi::validate`] on untrusted inputs first).
pub fn to_simflow(api: &RefApi, flavor: Flavor) -> Platform {
    to_simflow_calibrated(api, flavor, &Latencies::default())
}

/// Converts with explicit (e.g. metrology-measured) link latencies — the
/// paper's future work of replacing its two hard-coded values with
/// SmokePing measurements (see `pilgrim_core::calibration`).
pub fn to_simflow_calibrated(api: &RefApi, flavor: Flavor, lat: &Latencies) -> Platform {
    match flavor {
        Flavor::G5kTest => hierarchical(api, false, lat),
        Flavor::G5kCabinets => hierarchical(api, true, lat),
        Flavor::FlatFull => flat_full(api, lat),
    }
}

fn hierarchical(api: &RefApi, cabinets: bool, lat: &Latencies) -> Platform {
    let mut b = PlatformBuilder::new("grid5000", RoutingKind::Full);
    let root = b.root_zone();
    let mut site_zone: Vec<ZoneId> = Vec::new();

    for site in &api.sites {
        let sz = b.add_zone(root, &site.name, RoutingKind::Floyd);
        let gw = b.add_router(sz, &site.router.name);
        b.set_gateway(sz, gw);

        for cluster in &site.clusters {
            match (&cluster.aggregation, cabinets) {
                (Aggregation::Direct, false) => {
                    let cz = b.add_zone(sz, &cluster.name, RoutingKind::Cluster);
                    let sw = b.add_router(cz, &format!("{}-sw", cluster.name));
                    b.set_cluster_router(cz, sw);
                    add_cluster_hosts(&mut b, cz, site, cluster, 1, cluster.nodes, lat.intra(&site.name));
                    // NICs plug straight into the site router: no link cost
                    b.add_route(sz, Element::Zone(cz), Element::Point(gw), vec![], true);
                }
                (Aggregation::Groups(groups), false) => {
                    for g in groups {
                        let gz = b.add_zone(sz, &g.switch, RoutingKind::Cluster);
                        let sw = b.add_router(gz, &format!("{}-sw", g.switch));
                        b.set_cluster_router(gz, sw);
                        add_cluster_hosts(&mut b, gz, site, cluster, g.first, g.last, lat.intra(&site.name));
                        let uplink = b.add_link(
                            &format!("{}-uplink", g.switch),
                            g.uplink_bps,
                            lat.intra(&site.name),
                            SharingPolicy::Shared,
                        );
                        b.add_route(sz, Element::Zone(gz), Element::Point(gw), vec![uplink], true);
                    }
                }
                // cabinets: every cluster collapses to one zone with a
                // single shared cabinet link, losing the group detail
                (_, true) => {
                    let cz = b.add_zone(sz, &cluster.name, RoutingKind::Cluster);
                    let sw = b.add_router(cz, &format!("{}-sw", cluster.name));
                    b.set_cluster_router(cz, sw);
                    let cab = b.add_link(
                        &format!("{}-cabinet", cluster.name),
                        CABINET_BPS,
                        lat.intra(&site.name),
                        SharingPolicy::Shared,
                    );
                    b.set_cluster_backbone(cz, cab);
                    add_cluster_hosts(&mut b, cz, site, cluster, 1, cluster.nodes, lat.intra(&site.name));
                    b.add_route(sz, Element::Zone(cz), Element::Point(gw), vec![], true);
                }
            }
        }
        site_zone.push(sz);
    }

    for bb in &api.backbone {
        let ia = api.sites.iter().position(|s| s.name == bb.a).expect("validated");
        let ib = api.sites.iter().position(|s| s.name == bb.b).expect("validated");
        let l = b.add_link(
            &format!("bb-{}-{}", bb.a, bb.b),
            bb.rate_bps,
            lat.inter(&bb.a, &bb.b),
            SharingPolicy::Shared,
        );
        b.add_route(
            root,
            Element::Zone(site_zone[ia]),
            Element::Zone(site_zone[ib]),
            vec![l],
            true,
        );
    }

    b.build().expect("generated platform is valid")
}

fn add_cluster_hosts(
    b: &mut PlatformBuilder,
    zone: ZoneId,
    site: &crate::refapi::Site,
    cluster: &crate::refapi::Cluster,
    first: u32,
    last: u32,
    nic_latency: f64,
) {
    for i in first..=last {
        let name = site.fqdn(cluster, i);
        let h = b.add_host(zone, &name, cluster.node.speed_flops);
        let nic = b.add_link(
            &format!("{name}-nic"),
            cluster.node.nic_bps,
            nic_latency,
            SharingPolicy::Shared,
        );
        b.attach_cluster_host(zone, h, nic, nic);
    }
}

/// The flat representation: every host-pair route materialized in one full
/// routing table. Memory grows quadratically with hosts — the situation
/// the paper describes as making whole-Grid'5000 simulation impossible
/// before hierarchical routing.
fn flat_full(api: &RefApi, lat: &Latencies) -> Platform {
    let mut b = PlatformBuilder::new("grid5000-flat", RoutingKind::Full);
    let root = b.root_zone();

    struct HostInfo {
        id: HostId,
        site: usize,
        nic: LinkId,
        uplink: Option<LinkId>,
    }
    let mut hosts: Vec<HostInfo> = Vec::new();

    for (si, site) in api.sites.iter().enumerate() {
        for cluster in &site.clusters {
            // group uplinks shared by the group's hosts
            let mut uplink_of = vec![None::<LinkId>; cluster.nodes as usize + 1];
            if let Aggregation::Groups(groups) = &cluster.aggregation {
                for g in groups {
                    let l = b.add_link(
                        &format!("{}-uplink", g.switch),
                        g.uplink_bps,
                        lat.intra(&site.name),
                        SharingPolicy::Shared,
                    );
                    for i in g.first..=g.last {
                        uplink_of[i as usize] = Some(l);
                    }
                }
            }
            for i in 1..=cluster.nodes {
                let name = site.fqdn(cluster, i);
                let id = b.add_host(root, &name, cluster.node.speed_flops);
                let nic = b.add_link(
                    &format!("{name}-nic"),
                    cluster.node.nic_bps,
                    lat.intra(&site.name),
                    SharingPolicy::Shared,
                );
                hosts.push(HostInfo { id, site: si, nic, uplink: uplink_of[i as usize] });
            }
        }
    }

    // backbone link per site pair
    let n_sites = api.sites.len();
    let mut bb_link = vec![vec![None::<LinkId>; n_sites]; n_sites];
    for bb in &api.backbone {
        let ia = api.sites.iter().position(|s| s.name == bb.a).expect("validated");
        let ib = api.sites.iter().position(|s| s.name == bb.b).expect("validated");
        let l = b.add_link(
            &format!("bb-{}-{}", bb.a, bb.b),
            bb.rate_bps,
            lat.inter(&bb.a, &bb.b),
            SharingPolicy::Shared,
        );
        bb_link[ia][ib] = Some(l);
        bb_link[ib][ia] = Some(l);
    }

    // the flat table: one explicit route per host pair
    for (i, a) in hosts.iter().enumerate() {
        for b_ in hosts.iter().skip(i + 1) {
            let mut links = Vec::with_capacity(5);
            links.push(a.nic);
            if let Some(u) = a.uplink {
                links.push(u);
            }
            if a.site != b_.site {
                links.push(
                    bb_link[a.site][b_.site].expect("backbone between used sites"),
                );
            }
            if let Some(u) = b_.uplink {
                links.push(u);
            }
            links.push(b_.nic);
            b.add_route(
                root,
                Element::Point(a.id.netpoint()),
                Element::Point(b_.id.netpoint()),
                links,
                true,
            );
        }
    }

    b.build().expect("generated flat platform is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth;

    #[test]
    fn g5k_test_counts() {
        let api = synth::standard();
        let p = to_simflow(&api, Flavor::G5kTest);
        assert_eq!(p.host_count(), api.node_count());
        // 1 root + 3 sites + clusters/groups: lille 2, lyon 2, nancy (4 graphene groups + griffon)
        assert_eq!(p.zone_count(), 1 + 3 + 2 + 2 + 5);
    }

    #[test]
    fn sagittaire_route_is_two_nics() {
        let api = synth::standard();
        let p = to_simflow(&api, Flavor::G5kTest);
        let a = p.host_by_name("sagittaire-1.lyon.grid5000.fr").unwrap();
        let b = p.host_by_name("sagittaire-2.lyon.grid5000.fr").unwrap();
        let r = p.route_hosts(a, b).unwrap();
        assert_eq!(r.links.len(), 2, "direct cluster: nic + nic");
        assert!((r.latency - 2.0 * MODEL_INTRA_SITE_LATENCY).abs() < 1e-12);
    }

    #[test]
    fn graphene_cross_group_route_crosses_uplinks() {
        let api = synth::standard();
        let p = to_simflow(&api, Flavor::G5kTest);
        let a = p.host_by_name("graphene-1.nancy.grid5000.fr").unwrap(); // sgraphene1
        let b = p.host_by_name("graphene-144.nancy.grid5000.fr").unwrap(); // sgraphene4
        let r = p.route_hosts(a, b).unwrap();
        // nic, uplink1, uplink4, nic
        assert_eq!(r.links.len(), 4);
        let names: Vec<&str> = r.links.iter().map(|l| p.link(*l).name.as_str()).collect();
        assert!(names.contains(&"sgraphene1-uplink"), "{names:?}");
        assert!(names.contains(&"sgraphene4-uplink"), "{names:?}");
    }

    #[test]
    fn graphene_intra_group_route_stays_local() {
        let api = synth::standard();
        let p = to_simflow(&api, Flavor::G5kTest);
        let a = p.host_by_name("graphene-1.nancy.grid5000.fr").unwrap();
        let b = p.host_by_name("graphene-39.nancy.grid5000.fr").unwrap();
        let r = p.route_hosts(a, b).unwrap();
        assert_eq!(r.links.len(), 2, "same group: nic + nic only");
    }

    #[test]
    fn inter_site_route_crosses_backbone() {
        let api = synth::standard();
        let p = to_simflow(&api, Flavor::G5kTest);
        let a = p.host_by_name("sagittaire-1.lyon.grid5000.fr").unwrap();
        let b = p.host_by_name("graphene-1.nancy.grid5000.fr").unwrap();
        let r = p.route_hosts(a, b).unwrap();
        let names: Vec<&str> = r.links.iter().map(|l| p.link(*l).name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("bb-")), "{names:?}");
        assert!(r.latency >= MODEL_BACKBONE_LATENCY);
    }

    #[test]
    fn cabinets_adds_cluster_bottleneck() {
        let api = synth::standard();
        let p = to_simflow(&api, Flavor::G5kCabinets);
        let a = p.host_by_name("sagittaire-1.lyon.grid5000.fr").unwrap();
        let b = p.host_by_name("sagittaire-2.lyon.grid5000.fr").unwrap();
        let r = p.route_hosts(a, b).unwrap();
        let names: Vec<&str> = r.links.iter().map(|l| p.link(*l).name.as_str()).collect();
        assert!(
            names.contains(&"sagittaire-cabinet"),
            "cabinet link must appear: {names:?}"
        );
    }

    #[test]
    fn flat_full_routes_match_hierarchical() {
        let api = synth::standard();
        let flat = to_simflow(&api, Flavor::FlatFull);
        let hier = to_simflow(&api, Flavor::G5kTest);
        for (a, b) in [
            ("sagittaire-1.lyon.grid5000.fr", "sagittaire-2.lyon.grid5000.fr"),
            ("graphene-1.nancy.grid5000.fr", "graphene-144.nancy.grid5000.fr"),
            ("sagittaire-1.lyon.grid5000.fr", "graphene-1.nancy.grid5000.fr"),
        ] {
            let (fa, fb) = (flat.host_by_name(a).unwrap(), flat.host_by_name(b).unwrap());
            let (ha, hb) = (hier.host_by_name(a).unwrap(), hier.host_by_name(b).unwrap());
            let rf = flat.route_hosts(fa, fb).unwrap();
            let rh = hier.route_hosts(ha, hb).unwrap();
            assert_eq!(rf.links.len(), rh.links.len(), "{a} → {b}");
            assert!((rf.latency - rh.latency).abs() < 1e-12, "{a} → {b}");
        }
    }

    #[test]
    fn synthetic_platform_builds_and_routes_across_sites() {
        let api = synth::synthetic(3000);
        let p = to_simflow(&api, Flavor::G5kTest);
        assert_eq!(p.host_count(), 3000);
        let a = p.host_by_name("s00c0-1.s00.grid5000.fr").unwrap();
        let b = p.host_by_name("s01c3-250.s01.grid5000.fr").unwrap();
        let r = p.route_hosts(a, b).unwrap();
        let names: Vec<&str> = r.links.iter().map(|l| p.link(*l).name.as_str()).collect();
        assert!(names.iter().any(|n| n.starts_with("bb-")), "{names:?}");
        // same-cluster pair: two NICs, no backbone
        let c = p.host_by_name("s00c0-2.s00.grid5000.fr").unwrap();
        let r = p.route_hosts(a, c).unwrap();
        assert_eq!(r.links.len(), 2);
    }

    #[test]
    fn flat_full_table_is_quadratic() {
        let api = synth::standard();
        let flat = to_simflow(&api, Flavor::FlatFull);
        let hier = to_simflow(&api, Flavor::G5kTest);
        let n = flat.host_count();
        assert_eq!(flat.stored_route_entries(), n * (n - 1));
        // hierarchical storage is orders of magnitude smaller
        assert!(hier.stored_route_entries() * 100 < flat.stored_route_entries());
    }
}
