//! Workload generation for the evaluation (§V-A).
//!
//! The paper's experimental grid: transfer sizes on a 10-point geometric
//! progression from 0.1 MB to 10 GB; 1/10/30/50/60 sources and
//! destinations; two topologies — CLUSTER (all nodes from one cluster)
//! and GRID_MULTI (nodes from all clusters of the three sites, every
//! transfer crossing a site boundary); when `nsources < ndestinations`
//! some nodes source several transfers (and symmetrically).

use g5k::RefApi;
use seeded::SmallRng;

/// The paper's 10 transfer sizes (bytes), geometric from 1e5 to 1e10 —
/// matching the tick labels of its figures (1.00e+05, 3.59e+05, …).
pub fn sizes() -> [f64; 10] {
    let mut s = [0.0; 10];
    for (k, v) in s.iter_mut().enumerate() {
        *v = 10f64.powf(5.0 + 5.0 * k as f64 / 9.0);
    }
    s
}

/// The size above which the paper calls the model accurate
/// (`1.67·10⁷ bytes`).
pub const ACCURACY_THRESHOLD: f64 = 1.67e7;

/// Where the nodes of an experiment come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Topology {
    /// All sources and destinations from one named cluster.
    Cluster(String),
    /// Nodes from every cluster, all transfers crossing site boundaries.
    GridMulti,
}

/// One transfer endpoint pair (host names shared by the predictor
/// platform and the testbed network).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlowPair {
    /// Source host name.
    pub src: String,
    /// Destination host name.
    pub dst: String,
}

/// Draws the paper's endpoint sets: `n_src` distinct sources, `n_dst`
/// distinct destinations, paired round-robin so `max(n_src, n_dst)` flows
/// exist. Sources and destinations are disjoint when the pool allows.
pub fn draw_pairs(
    api: &RefApi,
    topology: &Topology,
    n_src: usize,
    n_dst: usize,
    seed: u64,
) -> Vec<FlowPair> {
    let mut rng = SmallRng::seed_from_u64(seed);
    match topology {
        Topology::Cluster(name) => {
            let pool = api.cluster_hosts(name);
            assert!(
                !pool.is_empty(),
                "unknown cluster '{name}' in workload"
            );
            let (srcs, dsts) = split_sample(&pool, n_src, n_dst, &mut rng);
            pair_round_robin(&srcs, &dsts)
        }
        Topology::GridMulti => {
            // hosts grouped per site, to enforce the cross-site constraint
            let site_hosts: Vec<Vec<String>> = api
                .sites
                .iter()
                .map(|s| {
                    s.clusters
                        .iter()
                        .flat_map(|c| (1..=c.nodes).map(|i| s.fqdn(c, i)))
                        .collect()
                })
                .collect();
            let site_of = |h: &str| -> usize {
                site_hosts
                    .iter()
                    .position(|hs| hs.iter().any(|x| x == h))
                    .expect("host from pool")
            };
            let all: Vec<String> = site_hosts.iter().flatten().cloned().collect();
            let (srcs, dsts) = split_sample(&all, n_src, n_dst, &mut rng);
            // round-robin pairing with a cross-site fix-up: if the natural
            // partner shares the site, scan forward for one that does not
            let n = n_src.max(n_dst);
            let mut pairs = Vec::with_capacity(n);
            for i in 0..n {
                let src = &srcs[i % srcs.len()];
                let src_site = site_of(src);
                let mut dst = None;
                for off in 0..dsts.len() {
                    let cand = &dsts[(i + off) % dsts.len()];
                    if site_of(cand) != src_site {
                        dst = Some(cand.clone());
                        break;
                    }
                }
                let dst = dst.unwrap_or_else(|| {
                    // all drawn destinations share the source's site:
                    // draw a fresh one elsewhere
                    loop {
                        let cand = all[rng.gen_range(0..all.len())].clone();
                        if site_of(&cand) != src_site {
                            break cand;
                        }
                    }
                });
                pairs.push(FlowPair { src: src.clone(), dst });
            }
            pairs
        }
    }
}

/// Samples `n_src` + `n_dst` hosts, disjoint when the pool is large
/// enough, each set free of duplicates.
fn split_sample(
    pool: &[String],
    n_src: usize,
    n_dst: usize,
    rng: &mut SmallRng,
) -> (Vec<String>, Vec<String>) {
    assert!(n_src > 0 && n_dst > 0, "need at least one endpoint per side");
    assert!(
        n_src <= pool.len() && n_dst <= pool.len(),
        "cluster of {} nodes cannot provide {} sources / {} destinations",
        pool.len(),
        n_src,
        n_dst
    );
    let mut shuffled: Vec<String> = pool.to_vec();
    rng.shuffle(&mut shuffled);
    if n_src + n_dst <= shuffled.len() {
        let srcs = shuffled[..n_src].to_vec();
        let dsts = shuffled[n_src..n_src + n_dst].to_vec();
        (srcs, dsts)
    } else {
        // overlap unavoidable (e.g. 50+50 on a 79-node cluster): reuse the
        // tail of the shuffle for destinations
        let srcs = shuffled[..n_src].to_vec();
        let mut dsts = shuffled[n_src..].to_vec();
        let mut i = 0;
        while dsts.len() < n_dst {
            dsts.push(shuffled[i].clone());
            i += 1;
        }
        (srcs, dsts)
    }
}

fn pair_round_robin(srcs: &[String], dsts: &[String]) -> Vec<FlowPair> {
    let n = srcs.len().max(dsts.len());
    (0..n)
        .map(|i| FlowPair {
            src: srcs[i % srcs.len()].clone(),
            dst: dsts[i % dsts.len()].clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use g5k::synth;

    #[test]
    fn sizes_match_paper_ticks() {
        let s = sizes();
        let expect = [
            1.00e5, 3.59e5, 1.29e6, 4.64e6, 1.67e7, 5.99e7, 2.15e8, 7.74e8, 2.78e9, 1.00e10,
        ];
        for (got, want) in s.iter().zip(&expect) {
            assert!(
                (got / want - 1.0).abs() < 0.01,
                "{got} vs paper tick {want}"
            );
        }
    }

    #[test]
    fn cluster_draw_counts_and_distinctness() {
        let api = synth::standard();
        let pairs = draw_pairs(&api, &Topology::Cluster("sagittaire".into()), 10, 30, 42);
        assert_eq!(pairs.len(), 30, "max(nsrc, ndst) flows");
        let srcs: std::collections::HashSet<&str> =
            pairs.iter().map(|p| p.src.as_str()).collect();
        assert_eq!(srcs.len(), 10, "10 distinct sources");
        let dsts: std::collections::HashSet<&str> =
            pairs.iter().map(|p| p.dst.as_str()).collect();
        assert_eq!(dsts.len(), 30);
        for p in &pairs {
            assert!(p.src.contains("sagittaire"));
            assert!(p.dst.contains("sagittaire"));
        }
    }

    #[test]
    fn oversubscribed_cluster_reuses_nodes() {
        let api = synth::standard();
        // 50+50 on the 79-node sagittaire: overlap is unavoidable but each
        // side stays duplicate-free
        let pairs = draw_pairs(&api, &Topology::Cluster("sagittaire".into()), 50, 50, 7);
        assert_eq!(pairs.len(), 50);
        let srcs: std::collections::HashSet<&str> =
            pairs.iter().map(|p| p.src.as_str()).collect();
        assert_eq!(srcs.len(), 50);
    }

    #[test]
    fn grid_multi_crosses_sites() {
        let api = synth::standard();
        let pairs = draw_pairs(&api, &Topology::GridMulti, 60, 60, 3);
        assert_eq!(pairs.len(), 60);
        let site = |h: &str| h.split('.').nth(1).unwrap().to_string();
        for p in &pairs {
            assert_ne!(site(&p.src), site(&p.dst), "{p:?} must cross sites");
        }
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let api = synth::standard();
        let a = draw_pairs(&api, &Topology::Cluster("graphene".into()), 30, 30, 5);
        let b = draw_pairs(&api, &Topology::Cluster("graphene".into()), 30, 30, 5);
        let c = draw_pairs(&api, &Topology::Cluster("graphene".into()), 30, 30, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "cannot provide")]
    fn impossible_draw_panics() {
        let api = synth::standard();
        let _ = draw_pairs(&api, &Topology::Cluster("chicon".into()), 50, 50, 1);
    }
}
