//! An in-Rust model of the Grid'5000 Reference API.
//!
//! The paper's Pilgrim scripts consume the Grid'5000 Reference API — a
//! JSON self-description of every node, network interface, switch port,
//! linecard and backplane — and convert it into a SimGrid platform. This
//! module reproduces the *information content* of that API for the three
//! sites the paper could use (Lille, Lyon, Nancy): enough structure to
//! generate both the predictor's platform model and the ground-truth
//! network, including the details the paper's generated model *omits*
//! (true switch latencies, equipment capacity limits) so the reproduction
//! can exhibit the same model-vs-reality gaps.

/// Per-node hardware model of a cluster (clusters are homogeneous).
#[derive(Clone, Debug)]
pub struct NodeModel {
    /// Compute speed in flop/s (used by the workflow-forecast extension).
    pub speed_flops: f64,
    /// NIC rate in bytes/s (1 Gbit/s on every cluster here).
    pub nic_bps: f64,
    /// Measured application/launcher startup overhead in seconds — the
    /// floor under small-transfer measurements. Calibrated per cluster
    /// generation: ≈ 0.9 s on 2004-era Opterons (sagittaire, capricorne),
    /// negligible on 2010-era Xeons (graphene, griffon). The floors show
    /// under the smallest transfers of `experiments --figure fig3` to
    /// `fig5` (sagittaire) and `fig6` to `fig9` (graphene).
    pub startup_overhead_s: f64,
}

/// How a cluster's NICs reach the site router.
#[derive(Clone, Debug)]
pub enum Aggregation {
    /// Every NIC is wired straight into the site router (sagittaire:
    /// "the gigabit ethernet cards of all nodes are connected directly to
    /// the main Lyon switch/router").
    Direct,
    /// Nodes are split across aggregation switches, each with an uplink to
    /// the site router (graphene: four groups behind sgraphene1..4 with
    /// 10 Gbit/s uplinks).
    Groups(Vec<GroupSpec>),
}

/// One aggregation group.
#[derive(Clone, Debug)]
pub struct GroupSpec {
    /// Aggregation switch name (e.g. `"sgraphene1"`).
    pub switch: String,
    /// 1-based inclusive node index range attached to this switch.
    pub first: u32,
    /// Last node index (inclusive).
    pub last: u32,
    /// Uplink rate towards the site router, bytes/s.
    pub uplink_bps: f64,
}

/// A compute cluster.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Cluster name (e.g. `"sagittaire"`).
    pub name: String,
    /// Number of nodes; node `i` is named `"<cluster>-<i>"` (1-based).
    pub nodes: u32,
    /// Homogeneous node hardware.
    pub node: NodeModel,
    /// Wiring towards the site router.
    pub aggregation: Aggregation,
}

impl Cluster {
    /// The short host name of node `i` (1-based).
    pub fn node_name(&self, i: u32) -> String {
        format!("{}-{}", self.name, i)
    }
}

/// The main router of a site.
#[derive(Clone, Debug)]
pub struct Router {
    /// Equipment name (e.g. `"gw.lyon"`).
    pub name: String,
    /// Aggregate forwarding capacity in bytes/s; `f64::INFINITY` for a
    /// non-blocking fabric. This is the datum the paper's generated
    /// platform lacks ("does not yet contain network equipments bandwidth
    /// limits") — the reproduction gives the true value to the testbed
    /// model only.
    pub backplane_bps: f64,
}

/// A Grid'5000 site.
#[derive(Clone, Debug)]
pub struct Site {
    /// Site name (e.g. `"lyon"`).
    pub name: String,
    /// The site router every cluster hangs off.
    pub router: Router,
    /// Clusters of the site.
    pub clusters: Vec<Cluster>,
}

impl Site {
    /// Fully qualified host name, Grid'5000 style.
    pub fn fqdn(&self, cluster: &Cluster, i: u32) -> String {
        format!("{}.{}.grid5000.fr", cluster.node_name(i), self.name)
    }
}

/// A backbone link between two site routers.
#[derive(Clone, Debug)]
pub struct BackboneLink {
    /// One endpoint site name.
    pub a: String,
    /// Other endpoint site name.
    pub b: String,
    /// Rate in bytes/s (RENATER: 10 Gbit/s dedicated).
    pub rate_bps: f64,
    /// One-way latency in seconds.
    pub latency_s: f64,
}

/// The whole reference description.
#[derive(Clone, Debug)]
pub struct RefApi {
    /// Sites, in declaration order.
    pub sites: Vec<Site>,
    /// Inter-site backbone.
    pub backbone: Vec<BackboneLink>,
}

impl RefApi {
    /// Total number of compute nodes.
    pub fn node_count(&self) -> usize {
        self.sites
            .iter()
            .flat_map(|s| &s.clusters)
            .map(|c| c.nodes as usize)
            .sum()
    }

    /// Looks a site up by name.
    pub fn site(&self, name: &str) -> Option<&Site> {
        self.sites.iter().find(|s| s.name == name)
    }

    /// Looks a cluster up by name, returning its site too.
    pub fn cluster(&self, name: &str) -> Option<(&Site, &Cluster)> {
        for s in &self.sites {
            if let Some(c) = s.clusters.iter().find(|c| c.name == name) {
                return Some((s, c));
            }
        }
        None
    }

    /// All fully-qualified host names of one cluster.
    pub fn cluster_hosts(&self, name: &str) -> Vec<String> {
        match self.cluster(name) {
            Some((s, c)) => (1..=c.nodes).map(|i| s.fqdn(c, i)).collect(),
            None => Vec::new(),
        }
    }

    /// Validates structural invariants (group ranges cover nodes exactly,
    /// names unique, backbone endpoints exist). Returns problems found.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let mut names = std::collections::HashSet::new();
        for s in &self.sites {
            if !names.insert(s.name.clone()) {
                problems.push(format!("duplicate site '{}'", s.name));
            }
            for c in &s.clusters {
                if !names.insert(c.name.clone()) {
                    problems.push(format!("duplicate cluster '{}'", c.name));
                }
                if let Aggregation::Groups(groups) = &c.aggregation {
                    let mut covered = vec![false; c.nodes as usize];
                    for g in groups {
                        if g.first == 0 || g.last > c.nodes || g.first > g.last {
                            problems.push(format!(
                                "cluster '{}': bad group range {}..={}",
                                c.name, g.first, g.last
                            ));
                            continue;
                        }
                        for i in g.first..=g.last {
                            if covered[(i - 1) as usize] {
                                problems.push(format!(
                                    "cluster '{}': node {} in two groups",
                                    c.name, i
                                ));
                            }
                            covered[(i - 1) as usize] = true;
                        }
                    }
                    if let Some(i) = covered.iter().position(|c| !c) {
                        problems.push(format!(
                            "cluster '{}': node {} in no group",
                            c.name,
                            i + 1
                        ));
                    }
                }
            }
        }
        for b in &self.backbone {
            for end in [&b.a, &b.b] {
                if self.site(end).is_none() {
                    problems.push(format!("backbone endpoint '{end}' is not a site"));
                }
            }
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RefApi {
        RefApi {
            sites: vec![Site {
                name: "lyon".into(),
                router: Router { name: "gw.lyon".into(), backplane_bps: f64::INFINITY },
                clusters: vec![Cluster {
                    name: "c".into(),
                    nodes: 4,
                    node: NodeModel {
                        speed_flops: 1e9,
                        nic_bps: 1.25e8,
                        startup_overhead_s: 0.0,
                    },
                    aggregation: Aggregation::Groups(vec![
                        GroupSpec { switch: "s1".into(), first: 1, last: 2, uplink_bps: 1.25e9 },
                        GroupSpec { switch: "s2".into(), first: 3, last: 4, uplink_bps: 1.25e9 },
                    ]),
                }],
            }],
            backbone: vec![],
        }
    }

    #[test]
    fn valid_description_passes() {
        assert!(tiny().validate().is_empty());
    }

    #[test]
    fn gap_in_groups_is_detected() {
        let mut api = tiny();
        if let Aggregation::Groups(g) =
            &mut api.sites[0].clusters[0].aggregation
        {
            g[1].first = 4; // node 3 uncovered
        }
        let problems = api.validate();
        assert!(problems.iter().any(|p| p.contains("in no group")), "{problems:?}");
    }

    #[test]
    fn overlap_in_groups_is_detected() {
        let mut api = tiny();
        if let Aggregation::Groups(g) =
            &mut api.sites[0].clusters[0].aggregation
        {
            g[1].first = 2;
        }
        let problems = api.validate();
        assert!(problems.iter().any(|p| p.contains("two groups")), "{problems:?}");
    }

    #[test]
    fn bad_backbone_endpoint_is_detected() {
        let mut api = tiny();
        api.backbone.push(BackboneLink {
            a: "lyon".into(),
            b: "mars".into(),
            rate_bps: 1.25e9,
            latency_s: 1e-3,
        });
        let problems = api.validate();
        assert!(problems.iter().any(|p| p.contains("mars")), "{problems:?}");
    }

    #[test]
    fn fqdn_format() {
        let api = tiny();
        let (s, c) = api.cluster("c").unwrap();
        assert_eq!(s.fqdn(c, 3), "c-3.lyon.grid5000.fr");
        assert_eq!(api.cluster_hosts("c").len(), 4);
    }
}
