//! The seeded request generator shared by the timed run, the traced
//! ladder and the output check.
//!
//! The program under test only ever sees what comes out of here: a
//! [`Stream`] is a pure function of `(workload, seed, client, hosts)`, so
//! the verifier can regenerate a client's whole request history — its
//! writes included — from the seed alone, and two runs with one seed
//! send byte-identical request lines.

use std::sync::Arc;

use pilgrim_core::TransferRequest;

/// The five workloads of `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SchedCold,
    SchedHot,
    DynamicMix,
    WidePlatform,
    BulkSim,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::SchedCold,
        Workload::SchedHot,
        Workload::DynamicMix,
        Workload::WidePlatform,
        Workload::BulkSim,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SchedCold => "sched_cold",
            Workload::SchedHot => "sched_hot",
            Workload::DynamicMix => "dynamic_mix",
            Workload::WidePlatform => "wide_platform",
            Workload::BulkSim => "bulk_sim",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops (cycles on `bulk_sim`) answered before the first window.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::WidePlatform => 50,
            Workload::BulkSim => 5,
            _ => 500,
        }
    }

    /// Ops (cycles on `bulk_sim`) the traced ladder replays per depth.
    pub fn ladder_ops(self) -> usize {
        match self {
            Workload::WidePlatform => 200,
            Workload::BulkSim => 20,
            _ => 2000,
        }
    }

    /// One in this many answered ops is kept for the output check;
    /// `wide_platform` answers ~20× fewer ops per second, so it keeps
    /// more of them to reach a hundred compared bodies.
    pub fn check_every(self) -> u64 {
        match self {
            Workload::WidePlatform => 16,
            _ => 64,
        }
    }

    /// Windows of a timed run: one-second windows at the default 20 s on
    /// the serving workloads; on `bulk_sim`, where an op takes 0.15 s,
    /// four-second ones.
    pub fn windows(self) -> usize {
        match self {
            Workload::BulkSim => 5,
            _ => 20,
        }
    }

    /// The tail percentile `op_tail_ms` reports: the highest with at
    /// least ten samples beyond it in every window at today's rates.
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::WidePlatform | Workload::BulkSim => 0.90,
            _ => 0.99,
        }
    }
}

/// Name of client `c`'s own platform copy on `dynamic_mix`.
pub fn client_platform(client: usize) -> String {
    format!("g5k_{}", (b'a' + client as u8) as char)
}

/// Name of client `c`'s round-robin database on `dynamic_mix`.
pub fn client_rrd(client: usize) -> String {
    format!("bench/client_{}.rrd", (b'a' + client as u8) as char)
}

/// First timestamp fed to a client's database; each `rrd_update` moves
/// one 15 s step forward.
pub const RRD_T0: i64 = 1_336_111_200;
/// Step of the client databases, seconds.
pub const RRD_STEP: i64 = 15;

/// xorshift64* — the benchmark's only source of randomness.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeds through one splitmix64 round so that small seeds (0, 1, 2…)
    /// start from well-mixed, non-zero states.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2⁻⁴⁰ for
    /// every `n` used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// What one request asks for, in the structured form the in-process
/// ladder depths call the program with.
#[derive(Clone, Debug, PartialEq)]
pub enum Body {
    /// `predict_transfers`: concurrent transfers.
    Predict(Vec<TransferRequest>),
    /// `select_fastest`: hypotheses, each a set of transfers.
    Select(Vec<Vec<TransferRequest>>),
    /// `POST link_event`: capacity factor on a link.
    LinkEvent { link: String, factor: f64 },
    /// `rrd_update`: one measurement, bumping the forecast epoch.
    RrdUpdate { rrd: String, ts: i64, value: f64 },
}

/// One generated request.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub method: &'static str,
    /// The request target as it appears on the request line:
    /// `path?query`.
    pub target: String,
    path_len: usize,
    /// Platform the request addresses (empty for `rrd_update`).
    pub platform: String,
    pub body: Body,
}

impl Op {
    fn new(method: &'static str, path: String, query: &str, platform: &str, body: Body) -> Op {
        let path_len = path.len();
        let mut target = path;
        target.push('?');
        target.push_str(query);
        Op {
            method,
            target,
            path_len,
            platform: platform.to_string(),
            body,
        }
    }

    /// Request path, without the query string.
    pub fn path(&self) -> &str {
        &self.target[..self.path_len]
    }

    /// Query string (no leading `?`).
    pub fn query(&self) -> &str {
        &self.target[self.path_len + 1..]
    }

    /// Whether answering this request is an *op* (a forecast); writes
    /// are load.
    pub fn is_read(&self) -> bool {
        matches!(self.body, Body::Predict(_) | Body::Select(_))
    }
}

/// Transfers of a `predict_transfers` op: the paper's decision-loop size.
pub const PREDICT_TRANSFERS: usize = 30;
/// Hypotheses and transfers per hypothesis of a `select_fastest` op.
pub const SELECT_SHAPE: (usize, usize) = (8, 4);
/// Distinct queries per client on `sched_hot`.
pub const HOT_POOL: usize = 16;
/// Distinct queries per client on `dynamic_mix`.
pub const MIX_POOL: usize = 64;
/// On `dynamic_mix` every this-many-th request is a write…
pub const WRITE_EVERY: u64 = 8;
/// …and every this-many-th an `rrd_update` instead of a `link_event`.
pub const RRD_EVERY: u64 = 64;

fn transfer(rng: &mut Rng, hosts: &[String]) -> TransferRequest {
    let src = rng.below(hosts.len());
    // never src == dst: shift by a non-zero offset
    let dst = (src + 1 + rng.below(hosts.len() - 1)) % hosts.len();
    let size = 1e6 * (1 + rng.below(1000)) as f64;
    TransferRequest {
        src: hosts[src].clone(),
        dst: hosts[dst].clone(),
        size,
    }
}

fn push_transfer(q: &mut String, t: &TransferRequest) {
    q.push_str(&t.src);
    q.push(',');
    q.push_str(&t.dst);
    q.push(',');
    q.push_str(&t.size.to_string());
}

fn predict_op(rng: &mut Rng, hosts: &[String], platform: &str) -> Op {
    let transfers: Vec<_> = (0..PREDICT_TRANSFERS)
        .map(|_| transfer(rng, hosts))
        .collect();
    let mut query = String::with_capacity(96 * transfers.len());
    for t in &transfers {
        if !query.is_empty() {
            query.push('&');
        }
        query.push_str("transfer=");
        push_transfer(&mut query, t);
    }
    let path = format!("/pilgrim/predict_transfers/{platform}");
    Op::new("GET", path, &query, platform, Body::Predict(transfers))
}

fn select_op(rng: &mut Rng, hosts: &[String], platform: &str) -> Op {
    let (n_hyp, per_hyp) = SELECT_SHAPE;
    let hypotheses: Vec<Vec<_>> = (0..n_hyp)
        .map(|_| (0..per_hyp).map(|_| transfer(rng, hosts)).collect())
        .collect();
    let mut query = String::with_capacity(96 * n_hyp * per_hyp);
    for h in &hypotheses {
        if !query.is_empty() {
            query.push('&');
        }
        query.push_str("hypothesis=");
        for (i, t) in h.iter().enumerate() {
            if i > 0 {
                query.push(';');
            }
            push_transfer(&mut query, t);
        }
    }
    let path = format!("/pilgrim/select_fastest/{platform}");
    Op::new("GET", path, &query, platform, Body::Select(hypotheses))
}

/// The two request shapes of the decision loop, alternating.
fn sched_op(rng: &mut Rng, hosts: &[String], platform: &str, n: u64) -> Op {
    if n.is_multiple_of(2) {
        predict_op(rng, hosts, platform)
    } else {
        select_op(rng, hosts, platform)
    }
}

/// One client's request stream.
pub struct Stream {
    workload: Workload,
    rng: Rng,
    hosts: Arc<Vec<String>>,
    platform: String,
    client: usize,
    /// Fixed query pool (`sched_hot`, `dynamic_mix`); empty otherwise.
    pool: Vec<Op>,
    /// Requests generated so far.
    n: u64,
    rrd_updates: i64,
    current: Option<Op>,
}

impl Stream {
    /// The stream of `client` under `seed`. `hosts` are the platform's
    /// host names in platform order. `bulk_sim` has no request stream.
    pub fn new(workload: Workload, seed: u64, client: usize, hosts: Arc<Vec<String>>) -> Stream {
        assert!(workload != Workload::BulkSim, "bulk_sim sends no requests");
        assert!(hosts.len() >= 2, "a transfer needs two hosts");
        // one independent generator per (seed, client)
        let mut rng = Rng::new(
            seed.wrapping_mul(0x1000_0000_01B3)
                .wrapping_add(client as u64),
        );
        let platform = match workload {
            Workload::DynamicMix => client_platform(client),
            Workload::WidePlatform => "synth_20k".to_string(),
            _ => "g5k_test".to_string(),
        };
        let pool_len = match workload {
            Workload::SchedHot => HOT_POOL,
            Workload::DynamicMix => MIX_POOL,
            _ => 0,
        };
        let pool = (0..pool_len as u64)
            .map(|k| sched_op(&mut rng, &hosts, &platform, k))
            .collect();
        Stream {
            workload,
            rng,
            hosts,
            platform,
            client,
            pool,
            n: 0,
            rrd_updates: 0,
            current: None,
        }
    }

    /// Generates the next request.
    pub fn next_op(&mut self) -> &Op {
        let n = self.n;
        self.n += 1;
        let op = match self.workload {
            Workload::SchedCold => sched_op(&mut self.rng, &self.hosts, &self.platform, n),
            Workload::WidePlatform => predict_op(&mut self.rng, &self.hosts, &self.platform),
            Workload::SchedHot => {
                let k = self.rng.below(self.pool.len());
                return &self.pool[k];
            }
            Workload::DynamicMix => {
                if (n + 1).is_multiple_of(RRD_EVERY) {
                    self.rrd_update()
                } else if (n + 1).is_multiple_of(WRITE_EVERY) {
                    self.link_event()
                } else {
                    let k = self.rng.below(self.pool.len());
                    return &self.pool[k];
                }
            }
            Workload::BulkSim => unreachable!("rejected by Stream::new"),
        };
        self.current.insert(op)
    }

    fn link_event(&mut self) -> Op {
        let host = &self.hosts[self.rng.below(self.hosts.len())];
        let link = format!("{host}-nic");
        let factor = if self.rng.below(2) == 0 { 0.5 } else { 1.0 };
        let path = format!("/pilgrim/link_event/{}", self.platform);
        let query = format!("link={link}&factor={factor}");
        Op::new(
            "POST",
            path,
            &query,
            &self.platform,
            Body::LinkEvent { link, factor },
        )
    }

    fn rrd_update(&mut self) -> Op {
        let rrd = client_rrd(self.client);
        let ts = RRD_T0 + RRD_STEP * self.rrd_updates;
        self.rrd_updates += 1;
        let value = 100.0 + self.rng.below(100) as f64;
        let path = format!("/pilgrim/rrd_update/{rrd}");
        let query = format!("ts={ts}&value={value}");
        Op::new("GET", path, &query, "", Body::RrdUpdate { rrd, ts, value })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Host names of the standard 450-host platform.
    fn hosts() -> Arc<Vec<String>> {
        let p = g5k::to_simflow(&g5k::synth::standard(), g5k::Flavor::G5kTest);
        Arc::new(p.hosts().map(|h| p.host_name(h).to_string()).collect())
    }

    const SERVING: [Workload; 4] = [
        Workload::SchedCold,
        Workload::SchedHot,
        Workload::DynamicMix,
        Workload::WidePlatform,
    ];

    fn lines(w: Workload, seed: u64, client: usize, n: usize) -> Vec<String> {
        let mut s = Stream::new(w, seed, client, hosts());
        (0..n)
            .map(|_| {
                let op = s.next_op();
                format!("{} {}", op.method, op.target)
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for w in SERVING {
            assert_eq!(lines(w, 7, 0, 300), lines(w, 7, 0, 300), "{w:?}");
        }
    }

    #[test]
    fn seeds_and_clients_differ() {
        for w in SERVING {
            assert_ne!(lines(w, 1, 0, 50), lines(w, 2, 0, 50), "{w:?} seeds");
            assert_ne!(lines(w, 1, 0, 50), lines(w, 1, 1, 50), "{w:?} clients");
        }
    }

    #[test]
    fn request_lines_stay_under_the_server_cap() {
        // the longest host names the benchmark uses are the synthetic
        // platform's; check those and the standard ones
        let synth = g5k::to_simflow(&g5k::synth::synthetic(20_000), g5k::Flavor::G5kTest);
        let wide: Arc<Vec<String>> = Arc::new(
            synth
                .hosts()
                .map(|h| synth.host_name(h).to_string())
                .collect(),
        );
        for (w, hosts) in [
            (Workload::SchedCold, hosts()),
            (Workload::DynamicMix, hosts()),
            (Workload::WidePlatform, wide),
        ] {
            let mut s = Stream::new(w, 3, 0, hosts);
            for _ in 0..200 {
                let op = s.next_op();
                let line = format!("{} {} HTTP/1.1\r\n", op.method, op.target);
                assert!(line.len() < 64 * 1024, "{w:?}: {} bytes", line.len());
            }
        }
    }

    #[test]
    fn hot_pools_hold_sixteen_distinct_queries_per_client() {
        for client in 0..2 {
            let mut s = Stream::new(Workload::SchedHot, 5, client, hosts());
            let mut seen = HashSet::new();
            for _ in 0..2000 {
                let op = s.next_op();
                // the cache canonicalises parsed transfers, so distinct
                // structured bodies are distinct canonical queries
                seen.insert(format!("{:?}", op.body));
            }
            assert_eq!(seen.len(), HOT_POOL, "client {client}");
        }
    }

    #[test]
    fn dynamic_mix_writes_every_eighth_request() {
        let mut s = Stream::new(Workload::DynamicMix, 1, 0, hosts());
        let ops: Vec<Op> = (0..640).map(|_| s.next_op().clone()).collect();
        let writes = ops.iter().filter(|o| !o.is_read()).count();
        assert_eq!(writes, 80);
        let rrd: Vec<i64> = ops
            .iter()
            .filter_map(|o| match &o.body {
                Body::RrdUpdate { ts, .. } => Some(*ts),
                _ => None,
            })
            .collect();
        assert_eq!(rrd.len(), 10);
        assert!(rrd.windows(2).all(|w| w[1] == w[0] + RRD_STEP), "{rrd:?}");
    }

    #[test]
    fn transfers_never_loop_back() {
        let mut s = Stream::new(Workload::SchedCold, 9, 0, hosts());
        for _ in 0..200 {
            let transfers: Vec<TransferRequest> = match &s.next_op().body {
                Body::Predict(t) => t.clone(),
                Body::Select(h) => h.concat(),
                _ => unreachable!(),
            };
            assert!(transfers.iter().all(|t| t.src != t.dst));
        }
    }
}
