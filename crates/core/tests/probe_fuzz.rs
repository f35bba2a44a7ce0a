//! Parameter fuzzing of the probe stage. The poller thread parses and
//! keys every forecast GET itself, so no query may panic there, and the
//! two-stage path must answer exactly what the one-call path does.
//!
//! A seeded generator (an LCG, so every run asks the same queries) builds
//! `predict_transfers` and `select_fastest` queries with missing and
//! extra fields, empty hypotheses, sizes that are not finite, negative,
//! negative zero, subnormal or overflowing, unknown hosts and platforms,
//! and requests of thousands of transfers just under the poller's 64 KiB
//! request-line cap. For each: the probe and its compute stage answer
//! 200 or 4xx without panicking, the body equals `handle`'s byte for
//! byte, and the cache's hits + misses advance by exactly one when the
//! query is well formed (and not at all when it is refused before its
//! key is built).

use std::sync::Arc;

use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::http::{Handle, Probe, Request, Response};
use pilgrim_core::{Metrology, PilgrimService, Pnfs};
use simflow::platform::builder::PlatformBuilder;
use simflow::platform::routing::{Element, RoutingKind};
use simflow::platform::SharingPolicy;
use simflow::{NetworkConfig, Platform};

/// The poller's cap on a request line.
const REQUEST_LINE_CAP: usize = 64 * 1024;

/// Hosts of `g5k_test` the generator names.
const G5K_HOSTS: [&str; 6] = [
    "sagittaire-1.lyon.grid5000.fr",
    "sagittaire-2.lyon.grid5000.fr",
    "capricorne-1.lyon.grid5000.fr",
    "capricorne-36.lyon.grid5000.fr",
    "graphene-1.nancy.grid5000.fr",
    "griffon-50.nancy.grid5000.fr",
];

/// Eight hosts `h0`–`h7` with short names, each behind a link of its
/// own, every pair routed over both hosts' links: room for thousands of
/// transfers in one request line.
fn short_names() -> Platform {
    let mut b = PlatformBuilder::new("root", RoutingKind::Full);
    let root = b.root_zone();
    let hosts: Vec<_> = (0..8)
        .map(|i| {
            let host = b.add_host(root, &format!("h{i}"), 1e9);
            let eth = b.add_link(&format!("h{i}-eth"), 1.25e8, 1e-4, SharingPolicy::Shared);
            (host, eth)
        })
        .collect();
    for (i, &(src, src_eth)) in hosts.iter().enumerate() {
        for &(dst, dst_eth) in &hosts[i + 1..] {
            let (src, dst) = (Element::Point(src.netpoint()), Element::Point(dst.netpoint()));
            b.add_route(root, src, dst, vec![src_eth, dst_eth], true);
        }
    }
    b.build().unwrap()
}

fn service() -> Arc<PilgrimService> {
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    pnfs.register_platform("fz", short_names());
    Arc::new(PilgrimService::new(Metrology::new(), pnfs))
}

/// Deterministic LCG, as in `forecast_semantics.rs`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, m: usize) -> usize {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % m
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.next(xs.len())]
    }
}

/// One generated query: what to ask, and whether it is well formed —
/// parsed, on a registered platform, every size valid and every host
/// known — so that the probe builds its key and looks it up.
struct Query {
    path: String,
    query: String,
    well_formed: bool,
}

impl Query {
    fn request(&self) -> Request {
        Request::synthetic(&self.path, &self.query)
    }
}

/// Sizes the engine takes: zero, negative zero and subnormals included.
const SIZES: [&str; 8] = ["1e8", "5e8", "123456789", "0", "-0", "1e-320", "1e-300", "1.7e308"];

/// Sizes the engine refuses: not finite (`1e400` parses as infinity) or
/// negative.
const BAD_SIZES: [&str; 6] = ["NaN", "inf", "-inf", "-1", "1e400", "-1e400"];

/// A generator of forecast queries over the two platforms.
struct Generator {
    rng: Lcg,
}

impl Generator {
    /// One `src,dst,size` tuple for `platform`, sometimes malformed
    /// (a field missing or extra, an empty host), naming an unknown
    /// host or carrying a size the engine refuses. Returns the text and
    /// whether the service parses it and the engine takes it.
    fn transfer(&mut self, hosts: &[&str]) -> (String, bool, bool) {
        let host = |rng: &mut Lcg| match rng.next(30) {
            0 => ("ghost", false),
            1 => ("h0.lyon", false),
            _ => (rng.pick(hosts), true),
        };
        let (src, src_known) = host(&mut self.rng);
        let (dst, dst_known) = host(&mut self.rng);
        let (size, size_ok) = match self.rng.next(12) {
            0 => (self.rng.pick(&BAD_SIZES), false),
            _ => (self.rng.pick(&SIZES), true),
        };
        match self.rng.next(40) {
            0 => (format!("{src},{dst}"), false, false),
            1 => (format!("{src},{dst},{size},7"), false, false),
            2 => (format!(",{dst},{size}"), false, false),
            3 => (format!("{src},{dst},ten"), false, false),
            _ => (format!("{src},{dst},{size}"), true, src_known && dst_known && size_ok),
        }
    }

    /// A platform name (sometimes an unknown one) and its hosts.
    fn platform(&mut self) -> (&'static str, bool, &'static [&'static str]) {
        const FZ: [&str; 8] = ["h0", "h1", "h2", "h3", "h4", "h5", "h6", "h7"];
        match self.rng.next(10) {
            0 => ("nope", false, &G5K_HOSTS),
            1..=3 => ("fz", true, &FZ),
            _ => ("g5k_test", true, &G5K_HOSTS),
        }
    }

    /// How many items a list gets: 1 to `most`, and now and then none.
    fn count(&mut self, most: usize) -> usize {
        match self.rng.next(12) {
            0 => 0,
            _ => 1 + self.rng.next(most),
        }
    }

    /// Extra parameters the endpoints ignore, or none.
    fn extra(&mut self) -> &'static str {
        ["", "", "&verbose=1", "&transfer_=x", "&hypotheses=2"][self.rng.next(5)]
    }

    fn predict(&mut self) -> Query {
        let (platform, known, hosts) = self.platform();
        let mut parsed = true;
        let mut taken = known;
        let n = self.count(4);
        let transfers: Vec<String> = (0..n)
            .map(|_| {
                let (text, p, t) = self.transfer(hosts);
                parsed &= p;
                taken &= t;
                format!("transfer={text}")
            })
            .collect();
        let query = transfers.join("&") + self.extra();
        Query {
            path: format!("/pilgrim/predict_transfers/{platform}"),
            query,
            well_formed: n > 0 && parsed && taken,
        }
    }

    fn select(&mut self) -> Query {
        let (platform, known, hosts) = self.platform();
        let mut parsed = true;
        let mut taken = known;
        let n = self.count(3);
        let hypotheses: Vec<String> = (0..n)
            .map(|_| {
                let len = self.count(3);
                taken &= len > 0;
                let transfers: Vec<String> = (0..len)
                    .map(|_| {
                        let (text, p, t) = self.transfer(hosts);
                        parsed &= p;
                        taken &= t;
                        text
                    })
                    .collect();
                format!("hypothesis={}", transfers.join(";"))
            })
            .collect();
        let query = hypotheses.join("&") + self.extra();
        Query {
            path: format!("/pilgrim/select_fastest/{platform}"),
            query,
            well_formed: n > 0 && parsed && taken,
        }
    }

    /// A predict on `fz` of as many valid transfers as fit under the
    /// request-line cap (about 2 000), the last one replaced by `last`
    /// when given.
    fn huge(&mut self, last: Option<&str>) -> Query {
        let path = "/pilgrim/predict_transfers/fz".to_string();
        // `GET <path>?<query> HTTP/1.1`
        let room = REQUEST_LINE_CAP - path.len() - "GET ? HTTP/1.1".len();
        let mut query = String::new();
        loop {
            let (src, dst) = (self.rng.next(8), self.rng.next(8));
            let size = 1e8 + self.rng.next(1 << 20) as f64 * 1e3;
            let t = format!("transfer=h{src},h{dst},{size}");
            if query.len() + t.len() + 1 > room {
                break;
            }
            if !query.is_empty() {
                query.push('&');
            }
            query.push_str(&t);
        }
        if let Some(last) = last {
            let cut = query.rfind('&').expect("more than one transfer");
            query.truncate(cut);
            query.push_str(&format!("&transfer={last}"));
        }
        Query { path, query, well_formed: last.is_none() }
    }
}

/// Both stages, as the server runs them: the probe, then (if it
/// deferred) the compute stage.
fn staged(handler: &Arc<PilgrimService>, req: &Request) -> Response {
    match Arc::clone(handler).probe(req) {
        Probe::Ready(response) => response,
        Probe::Deferred(compute) => compute(req),
    }
}

#[test]
fn no_generated_query_panics_the_probe_and_both_paths_answer_alike() {
    let svc = service();
    let engine = svc.pnfs.engine();
    let lookups = || engine.cache_hits() + engine.cache_misses();
    let mut gen = Generator { rng: Lcg(0x5EED_F022) };
    let mut queries: Vec<Query> =
        (0..400).map(|i| if i % 2 == 0 { gen.predict() } else { gen.select() }).collect();
    queries.push(gen.huge(None));
    queries.push(gen.huge(Some("h1,ghost,1e8")));
    queries.push(gen.huge(Some("h1,h2,NaN")));
    let huge = queries[queries.len() - 3..].iter();
    assert!(huge.clone().all(|q| q.query.len() < REQUEST_LINE_CAP));
    assert!(huge.clone().all(|q| q.query.matches("transfer=").count() > 1_900));

    let (mut answered, mut refused) = (0, 0);
    for (i, q) in queries.iter().enumerate() {
        let req = q.request();
        let before = lookups();
        let response = staged(&svc, &req);
        let what = format!("query {i} {}?{:.200}: {:.300}", q.path, q.query, response.body);
        assert!(
            response.status == 200 || (400..500).contains(&response.status),
            "{} for {what}",
            response.status
        );
        assert_eq!(lookups() - before, u64::from(q.well_formed), "hits + misses for {what}");
        let before = lookups();
        let whole = svc.handle(&req);
        assert_eq!((whole.status, &whole.body), (response.status, &response.body), "{what}");
        assert_eq!(lookups() - before, u64::from(q.well_formed), "handle's lookups for {what}");
        if response.status == 200 {
            answered += 1;
        } else {

            refused += 1;
        }
    }
    // the generator reaches both outcomes often, not just one of them
    assert!(answered > 100 && refused > 100, "{answered} answered, {refused} refused");
}
