//! The serving workloads' environment (platforms, service, server) and
//! the closed-loop timed run over HTTP.

use std::sync::Arc;
use std::time::Instant;

use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::http::{HttpClient, Server, ServerConfig};
use pilgrim_core::{Metrology, PilgrimService, Pnfs};
use rrd::{ArchiveSpec, Cf, Database, DsKind};
use simflow::{NetworkConfig, Platform};
use telemetry::MetricsRegistry;

use crate::stats;
use crate::windows::Outcome;
use crate::workloads::{client_platform, client_rrd, Body, Op, Stream, Workload};

/// Client threads, and HTTP workers: the callers are schedulers that
/// wait for each answer, and two connections are what this box can
/// drive without the generator starving the server.
pub fn client_count() -> usize {
    stats::nproc().min(2)
}

/// The platforms a workload serves, built once and shared by every
/// service of the process (the ladder starts one service per depth).
pub struct Platforms {
    /// `(registered name, platform)`.
    pub list: Vec<(String, Arc<Platform>)>,
    /// Host names in platform order — what the generator draws from.
    pub hosts: Arc<Vec<String>>,
    /// Seconds spent synthesising the Grid'5000 description.
    pub synth_s: f64,
    /// Seconds spent converting it to simulator platforms.
    pub build_s: f64,
}

impl Platforms {
    pub fn build(w: Workload, clients: usize) -> Platforms {
        let t = Instant::now();
        let api = match w {
            Workload::WidePlatform => synth::synthetic(20_000),
            _ => synth::standard(),
        };
        let synth_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let names: Vec<String> = match w {
            // each client owns a copy, so its answers depend on its own
            // writes only
            Workload::DynamicMix => (0..clients).map(client_platform).collect(),
            Workload::WidePlatform => vec!["synth_20k".to_string()],
            _ => vec!["g5k_test".to_string()],
        };
        let list: Vec<(String, Arc<Platform>)> = names
            .into_iter()
            .map(|n| (n, Arc::new(to_simflow(&api, Flavor::G5kTest))))
            .collect();
        let build_s = t.elapsed().as_secs_f64();
        let p = &list[0].1;
        let hosts = Arc::new(p.hosts().map(|h| p.host_name(h).to_string()).collect());
        Platforms {
            list,
            hosts,
            synth_s,
            build_s,
        }
    }
}

/// One running service, with or without the HTTP server in front.
pub struct Env {
    pub svc: Arc<PilgrimService>,
    pub server: Option<Server>,
}

impl Env {
    /// A fresh service (cold caches, cold sessions) over `platforms`,
    /// behind an HTTP server when `http` is set: `ServerConfig::default()`
    /// except for the worker count, default front end and engine.
    pub fn start(platforms: &Platforms, clients: usize, http: bool) -> Env {
        let pnfs = Pnfs::new(NetworkConfig::default());
        for (name, p) in &platforms.list {
            pnfs.engine().register_platform_shared(name, Arc::clone(p));
        }
        let metrology = Metrology::new();
        for c in 0..clients {
            let db = Database::new(
                15,
                DsKind::Gauge,
                120,
                &[ArchiveSpec {
                    cf: Cf::Average,
                    steps_per_row: 1,
                    rows: 240,
                }],
            );
            metrology.insert(&client_rrd(c), db);
        }
        let registry = Arc::new(MetricsRegistry::new());
        let svc = Arc::new(PilgrimService::with_registry(
            metrology,
            pnfs,
            Arc::clone(&registry),
        ));
        let server = http.then(|| {
            let config = ServerConfig {
                workers: clients,
                ..ServerConfig::default()
            };
            let handler = PilgrimService::handler_from(Arc::clone(&svc));
            Server::start_with_registry("127.0.0.1:0", config, handler, None, registry)
                .expect("bind an ephemeral loopback port")
        });
        Env { svc, server }
    }

    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.svc.registry()
    }
}

/// FNV-1a of a response body.
pub fn body_digest(body: &str) -> u64 {
    body.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One closed-loop client: a keep-alive connection and its stream.
pub struct Client {
    http: HttpClient,
    stream: Stream,
    /// Requests issued so far (the stream index of the next one).
    pub sent: u64,
    /// Forecasts answered so far.
    pub reads: u64,
    /// Link events sent so far.
    pub link_events: u64,
    check_every: u64,
    /// `(stream index, body digest)` of every `check_every`-th answered
    /// op — a digest, so that the memory held does not grow with the rate.
    pub kept: Vec<(u64, u64)>,
}

impl Client {
    pub fn new(w: Workload, seed: u64, index: usize, env: &Env, platforms: &Platforms) -> Client {
        let addr = env
            .server
            .as_ref()
            .expect("timed runs go through HTTP")
            .addr();
        Client {
            http: HttpClient::new(addr),
            stream: Stream::new(w, seed, index, Arc::clone(&platforms.hosts)),
            sent: 0,
            reads: 0,
            link_events: 0,
            check_every: w.check_every(),
            kept: Vec::new(),
        }
    }

    /// Sends the stream's next request and waits for the answer.
    pub fn step(&mut self) -> Outcome {
        let op: &Op = self.stream.next_op();
        let index = self.sent;
        self.sent += 1;
        let start = Instant::now();
        let answer = self.http.request(op.method, &op.target, &[]);
        let end = Instant::now();
        let is_read = op.is_read();
        self.link_events += u64::from(matches!(op.body, Body::LinkEvent { .. }));
        let ok = match answer {
            Ok((200, _, body)) => {
                if is_read {
                    self.reads += 1;
                    if self.reads.is_multiple_of(self.check_every) {
                        self.kept.push((index, body_digest(&body)));
                    }
                }
                true
            }
            _ => false,
        };
        Outcome {
            is_read,
            ok,
            latency: end - start,
            end,
        }
    }
}

/// Builds the whole serving stack and answers `warmup` forecasts: what
/// `setup_s` times. Returns the pieces the windows continue on, and how
/// many warm-up requests failed.
pub fn set_up(w: Workload, seed: u64, warmup: usize) -> (Platforms, Env, Vec<Client>, u64) {
    let clients = client_count();
    let platforms = Platforms::build(w, clients);
    let env = Env::start(&platforms, clients, true);
    let mut cs: Vec<Client> = (0..clients)
        .map(|c| Client::new(w, seed, c, &env, &platforms))
        .collect();
    let per_client = warmup.div_ceil(clients);
    let mut failed = 0;
    std::thread::scope(|s| {
        let handles: Vec<_> = cs
            .iter_mut()
            .map(|c| {
                s.spawn(move || {
                    let mut reads = 0;
                    let mut failed = 0u64;
                    while reads < per_client {
                        let out = c.step();
                        reads += usize::from(out.is_read);
                        failed += u64::from(!out.ok);
                        // a server that answers nothing must not hang the run
                        if failed > 100 {
                            break;
                        }
                    }
                    failed
                })
            })
            .collect();
        for h in handles {
            failed += h.join().expect("warm-up client");
        }
    });
    (platforms, env, cs, failed)
}
