//! Parameter fuzzing of the control endpoints: `link_event` changes what
//! every later forecast says, and `rrd_update` writes the metrology
//! store, so no input may panic them, answer 5xx, or leave a forecast
//! that differs from a from-scratch simulation.
//!
//! A seeded generator (so every run sends the same requests) builds
//! `link_event` requests, POST and GET, with factors that are NaN,
//! infinite, subnormal, zero, negative, huge, empty or not a number,
//! with both or neither of `state` / `factor`, duplicated parameters and
//! unknown links and platforms; and `rrd_update` requests with `ts` at
//! the `i64` edges or not a number and `value`s that are NaN or
//! infinite, on known and unknown paths. Every answer must be a 200 or a
//! 4xx, and after every applied link event one fixed predict must equal
//! `Pnfs::predict_reference` bit for bit.

use std::panic::{catch_unwind, AssertUnwindSafe};

use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::http::Request;
use pilgrim_core::{Metrology, PilgrimService, Pnfs, PnfsError, Prediction, TransferRequest};
use rrd::{ArchiveSpec, Cf, Database, DsKind};
use seeded::SmallRng;
use simflow::NetworkConfig;

/// Links of `g5k_test` on the fixed predict's routes.
const LINKS: [&str; 3] =
    ["sagittaire-1.lyon.grid5000.fr-nic", "graphene-1.nancy.grid5000.fr-nic", "bb-lyon-nancy"];

/// The RRD that is sent in-order timestamps.
const RRD: &str = "ganglia/Lyon/sagittaire-1.lyon.grid5000.fr/pdu.rrd";

/// The RRD that is sent the edge timestamps: once one near `i64::MAX`
/// is taken, every later one must be refused, not wrap.
const EDGE_RRD: &str = "ganglia/Lyon/sagittaire-2.lyon.grid5000.fr/pdu.rrd";

/// Factors the engine takes: positive and normal, huge ones included.
const FACTORS: [&str; 7] = ["0.5", "2", "1", "1e-3", "0.999", "1e300", "1.7e308"];

/// Factors it must refuse: not a number, infinite, subnormal, zero,
/// negative, empty or not numeric.
const BAD_FACTORS: [&str; 15] = [
    "NaN", "nan", "inf", "-inf", "1e400", "1e-320", "0", "-0", "-1", "-0.5", "", "abc", "0x10",
    "1,5", "½",
];

/// `ts` values: the `i64` edges, one past them, civil dates and text.
const TIMESTAMPS: [&str; 14] = [
    "-9223372036854775808",
    "9223372036854775807",
    "-9223372036854775807",
    "9223372036854775806",
    "9223372036854775808",
    "-9223372036854775809",
    "0",
    "-1",
    "1336111335",
    "2012-05-04%2006:02:30",
    "",
    "now",
    "1e9",
    "12:00",
];

const VALUES: [&str; 10] = ["168.9", "0", "-1", "NaN", "inf", "-inf", "1e308", "1e-320", "", "x"];

fn service() -> PilgrimService {
    let metrology = Metrology::new();
    let spec = ArchiveSpec { cf: Cf::Average, steps_per_row: 1, rows: 240 };
    for path in [RRD, EDGE_RRD] {
        metrology.insert(path, Database::new(15, DsKind::Gauge, 120, &[spec]));
    }
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    PilgrimService::new(metrology, pnfs)
}

/// The predict checked after every applied link event: one transfer
/// across the backbone, one inside Lyon.
fn fixed_predict() -> Vec<TransferRequest> {
    let t = |src: &str, dst: &str, size: f64| TransferRequest {
        src: src.into(),
        dst: dst.into(),
        size,
    };
    vec![
        t("sagittaire-1.lyon.grid5000.fr", "graphene-1.nancy.grid5000.fr", 5e8),
        t("sagittaire-2.lyon.grid5000.fr", "sagittaire-1.lyon.grid5000.fr", 1e8),
    ]
}

fn pick<'a>(rng: &mut SmallRng, xs: &[&'a str]) -> &'a str {
    xs[rng.gen_range(0..xs.len())]
}

/// A generator of control requests.
struct Generator {
    rng: SmallRng,
    /// The next in-order `ts` an `rrd_update` may send.
    clock: i64,
}

impl Generator {
    /// A `link_event`: mostly a POST on `g5k_test` naming a known link,
    /// with one of `state` / `factor`; now and then every other shape.
    fn link_event(&mut self) -> Request {
        let platform = ["g5k_test", "g5k_test", "g5k_test", "g5k_test", "nope", ""]
            [self.rng.gen_range(0..6)];
        let mut params = Vec::new();
        match self.rng.gen_range(0..12) {
            0 => {}
            1 => params.push("link=ghost-nic".to_string()),
            2 => {
                params.push(format!("link={}", pick(&mut self.rng, &LINKS)));
                params.push("link=ghost-nic".to_string());
            }
            _ => params.push(format!("link={}", pick(&mut self.rng, &LINKS))),
        }
        let state = |rng: &mut SmallRng| pick(rng, &["down", "up", "up", "sideways", "", "DOWN"]);
        let factor = |rng: &mut SmallRng| match rng.gen_range(0..2) {
            0 => pick(rng, &FACTORS),
            _ => pick(rng, &BAD_FACTORS),
        };
        match self.rng.gen_range(0..10) {
            0 => {}
            1 => {
                params.push(format!("state={}", state(&mut self.rng)));
                params.push(format!("factor={}", factor(&mut self.rng)));
            }
            2 => {
                params.push(format!("factor={}", factor(&mut self.rng)));
                params.push(format!("factor={}", factor(&mut self.rng)));
            }
            3..=4 => params.push(format!("state={}", state(&mut self.rng))),
            _ => params.push(format!("factor={}", factor(&mut self.rng))),
        }
        if self.rng.gen_range(0..8) == 0 {
            params.push("verbose=1".to_string());
        }
        self.rng.shuffle(&mut params);
        let path = format!("/pilgrim/link_event/{platform}");
        match self.rng.gen_range(0..5) {
            0 => Request::synthetic(&path, &params.join("&")),
            _ => Request::synthetic_post(&path, &params.join("&")),
        }
    }

    /// An `rrd_update`: an in-order `ts` to [`RRD`], an edge one
    /// anywhere else, a `value` from its list; either now and then
    /// missing or duplicated, and now and then an unknown path.
    fn rrd_update(&mut self) -> Request {
        let path = [RRD, RRD, RRD, EDGE_RRD, "ganglia/Lyon/ghost/pdu.rrd", ""]
            [self.rng.gen_range(0..6)];
        let mut params = Vec::new();
        for key in ["ts", "value"] {
            let n = [1, 1, 1, 1, 0, 2][self.rng.gen_range(0..6)];
            for _ in 0..n {
                let v = match key {
                    "value" => pick(&mut self.rng, &VALUES).to_string(),
                    _ if path == RRD => {
                        self.clock += self.rng.gen_range(1..40) as i64;
                        self.clock.to_string()
                    }
                    _ => pick(&mut self.rng, &TIMESTAMPS).to_string(),
                };
                params.push(format!("{key}={v}"));
            }
        }
        self.rng.shuffle(&mut params);
        Request::synthetic(&format!("/pilgrim/rrd_update/{path}"), &params.join("&"))
    }
}

/// A forecast's durations as comparable bits, or the error's text.
fn bits(answer: Result<Vec<Prediction>, PnfsError>) -> Result<Vec<u64>, String> {
    answer
        .map(|preds| preds.iter().map(|p| p.duration.to_bits()).collect())
        .map_err(|e| e.to_string())
}

#[test]
fn no_control_request_panics_or_answers_5xx_and_forecasts_stay_exact() {
    let svc = service();
    let fixed = fixed_predict();
    let mut gen = Generator { rng: SmallRng::seed_from_u64(0xC0_47_01), clock: 1_336_111_200 };
    let requests: Vec<Request> =
        (0..480).map(|i| if i % 3 == 2 { gen.rrd_update() } else { gen.link_event() }).collect();

    let (mut events, mut updates, mut refused) = (0, 0, 0);
    for (i, req) in requests.iter().enumerate() {
        let params: Vec<(&str, &str)> = req.params().collect();
        let what = format!("request {i}: {} {} {params:?}", req.method, req.path);
        let response = catch_unwind(AssertUnwindSafe(|| svc.handle(req)))
            .unwrap_or_else(|_| panic!("panicked on {what}"));
        let status = response.status;
        assert!(
            status == 200 || (400..500).contains(&status),
            "{status} for {what}: {}",
            response.body
        );
        if status != 200 {
            refused += 1;
            continue;
        }
        if req.path.starts_with("/pilgrim/link_event/") {
            assert_eq!(req.method, "POST", "a GET link_event applied: {what}");
            events += 1;
            assert_eq!(
                bits(svc.pnfs.predict("g5k_test", &fixed)),
                bits(svc.pnfs.predict_reference("g5k_test", &fixed)),
                "served and reference forecasts differ after {what}"
            );
        } else {
            updates += 1;
        }
    }
    // every outcome is reached often, so the checks above are exercised
    let counts = format!("{events} events, {updates} updates, {refused} refused");
    assert!(events > 40 && updates > 30 && refused > 150, "{counts}");
}
