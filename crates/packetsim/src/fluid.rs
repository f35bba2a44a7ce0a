//! RTT-round fluid TCP: the scalable ground-truth engine.
//!
//! Per-segment simulation of the paper's full parameter sweep (up to 60
//! concurrent 10 GB transfers, ten repetitions per point) would take
//! billions of events — the exact pathology the paper ascribes to
//! packet-level simulators. The fluid engine keeps the *connection
//! lifecycle* of real TCP but replaces segments with rates:
//!
//! * connection setup costs 1.5 RTT before the first data byte;
//! * slow start doubles the congestion window once per RTT, the flow's
//!   rate being `min(cwnd/RTT, fair share)`; hitting the fair-share limit
//!   is a loss event that ends slow start;
//! * in steady state flows get a weighted max-min share of the *true*
//!   topology — including finite switch backplanes, which the predictor's
//!   platform model deliberately omits (as the paper's did) — scaled by a
//!   protocol-efficiency factor, lower when the flow's path is saturated
//!   (loss recovery) than when it is window-limited;
//! * the final ACK costs half an RTT.
//!
//! Steady-state shares use the same progressive-filling solver as the
//! predictor ([`simflow::model`]), which is not circular: the *inputs*
//! differ (true capacities + equipment limits + efficiency + noise versus
//! the model's nominal description), and that difference is precisely what
//! the paper measures. Agreement with the per-segment engine is checked in
//! `tests/agreement.rs`.

use seeded::SmallRng;
use simflow::model::SharingProblem;

use crate::engine::FlowSpec;
use crate::net::Network;
use crate::tcp::TcpConfig;

/// Tuning of the fluid model (calibrated against the packet engine).
#[derive(Clone, Copy, Debug)]
pub struct FluidParams {
    /// Goodput fraction of the fair share achieved by a window-limited
    /// (uncontended) flow: residual protocol cost beyond wire overhead.
    pub eff_uncontended: f64,
    /// Goodput fraction achieved by a flow whose path is saturated:
    /// loss-recovery sawtooth cost.
    pub eff_contended: f64,
    /// Standard deviation of the per-flow lognormal throughput noise
    /// standing in for residual cross-traffic (the paper averages 10
    /// repetitions to suppress it; we generate it so the repetitions have
    /// something to average).
    pub noise_sigma: f64,
}

impl Default for FluidParams {
    fn default() -> Self {
        FluidParams { eff_uncontended: 0.995, eff_contended: 0.93, noise_sigma: 0.03 }
    }
}

/// Outcome of one fluid flow.
#[derive(Clone, Copy, Debug)]
pub struct FluidResult {
    /// Completion time (absolute, seconds).
    pub completion: f64,
    /// True if the flow ever ran against a saturated resource.
    pub was_contended: bool,
}

impl FluidResult {
    /// Duration relative to the spec's start time.
    pub fn duration(&self, spec: &FlowSpec) -> f64 {
        self.completion - spec.start
    }
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Phase {
    /// Handshake in progress; data starts at the associated time.
    Connecting,
    /// Window doubling per RTT.
    SlowStart,
    /// Fair-share limited.
    Steady,
    Done,
}

struct FlowState {
    resources: Vec<u32>,
    rtt: f64,
    phase: Phase,
    data_start: f64,
    cwnd: f64, // bytes
    remaining: f64,
    rate: f64,
    round_gen: u64,
    eff_noise: f64,
    contended: bool,
    completion: f64,
}

/// The fluid simulator.
pub struct FluidSim<'n> {
    net: &'n Network,
    cfg: TcpConfig,
    params: FluidParams,
}

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Ev {
    DataStart(u32),
    Round { flow: u32, gen: u64 },
}

impl<'n> FluidSim<'n> {
    /// Creates a fluid simulator over the true network.
    pub fn new(net: &'n Network, cfg: TcpConfig, params: FluidParams) -> Self {
        FluidSim { net, cfg, params }
    }

    /// Runs all flows; `seed` drives the per-flow noise (pass a different
    /// seed per repetition, as the experiment harness does).
    ///
    /// # Panics
    /// Panics if a flow's endpoints are not connected.
    pub fn run(&self, flows: &[FlowSpec], seed: u64) -> Vec<FluidResult> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = SmallRng::seed_from_u64(seed);
        let wire_eff = self.cfg.wire_efficiency();
        // Resource capacities in goodput bytes/s.
        let capacities: Vec<f64> = (0..self.net.channel_count())
            .map(|c| self.net.channel(crate::net::ChannelId(c as u32)).rate * wire_eff)
            .collect();

        let mut states: Vec<FlowState> = flows
            .iter()
            .map(|f| {
                let path = self.net.path(f.src, f.dst).unwrap_or_else(|| {
                    panic!(
                        "no path {} → {}",
                        self.net.node_name(f.src),
                        self.net.node_name(f.dst)
                    )
                });
                let delay: f64 = path.iter().map(|c| self.net.channel(*c).delay).sum();
                let per_hop: f64 = path
                    .iter()
                    .map(|c| (self.cfg.mss + self.cfg.header_overhead) / self.net.channel(*c).rate)
                    .sum();
                let rtt = (2.0 * delay + per_hop).max(1e-6);
                let noise = (self.params.noise_sigma * gaussian(&mut rng)).exp();
                FlowState {
                    resources: path.iter().map(|c| c.index() as u32).collect(),
                    rtt,
                    phase: Phase::Connecting,
                    data_start: f.start + 1.5 * rtt,
                    cwnd: self.cfg.init_cwnd * self.cfg.mss,
                    remaining: f.bytes,
                    rate: 0.0,
                    round_gen: 0,
                    eff_noise: noise,
                    contended: false,
                    completion: f64::NAN,
                }
            })
            .collect();

        // Event queue: (time, seq, event).
        let mut heap: BinaryHeap<Reverse<(F64Ord, u64, Ev)>> = BinaryHeap::new();
        let mut seq: u64 = 0;
        let push = |heap: &mut BinaryHeap<_>, seq: &mut u64, t: f64, ev: Ev| {
            heap.push(Reverse((F64Ord(t), *seq, ev)));
            *seq += 1;
        };

        let mut remaining_flows = 0usize;
        for (i, st) in states.iter_mut().enumerate() {
            if st.resources.is_empty() {
                // same-host flow: instantaneous at this level
                st.phase = Phase::Done;
                st.completion = flows[i].start;
                continue;
            }
            remaining_flows += 1;
            push(&mut heap, &mut seq, st.data_start, Ev::DataStart(i as u32));
        }

        let rwnd = self.cfg.max_window_bytes;
        let mut now = 0.0f64;

        // Re-allocates shares among running flows; returns whether each
        // running flow is congestion-limited this epoch.
        let reallocate = |states: &mut [FlowState], params: &FluidParams| {
            let mut problem = SharingProblem::with_capacities(capacities.clone());
            let mut idx = Vec::new();
            for (i, st) in states.iter().enumerate() {
                if st.phase == Phase::SlowStart || st.phase == Phase::Steady {
                    let window = match st.phase {
                        Phase::SlowStart => st.cwnd.min(rwnd),
                        _ => rwnd,
                    };
                    problem.add_flow(st.resources.clone(), st.rtt, window / st.rtt);
                    idx.push(i);
                }
            }
            let rates = problem.solve();
            // a flow is contended when it did not get its full window-cap
            // demand — its bottleneck is shared, i.e. packets are dropping
            for (slot, &i) in idx.iter().enumerate() {
                let st = &mut states[i];
                let window = match st.phase {
                    Phase::SlowStart => st.cwnd.min(rwnd),
                    _ => rwnd,
                };
                let demand = window / st.rtt;
                let congested = rates[slot] < demand * 0.999;
                let eff = if congested { params.eff_contended } else { params.eff_uncontended };
                if congested && st.phase == Phase::Steady {
                    st.contended = true;
                }
                st.rate = rates[slot] * eff * st.eff_noise;
            }
        };

        while remaining_flows > 0 {
            // next event / next completion
            let next_event = heap.peek().map(|Reverse((F64Ord(t), _, _))| *t);
            let mut next_completion = f64::INFINITY;
            for st in &states {
                if matches!(st.phase, Phase::SlowStart | Phase::Steady) && st.rate > 0.0 {
                    let t = now + st.remaining / st.rate;
                    if t < next_completion {
                        next_completion = t;
                    }
                }
            }
            let t = match next_event {
                Some(e) => e.min(next_completion),
                None => next_completion,
            };
            assert!(t.is_finite(), "fluid simulation stalled at t={now}");

            // integrate
            let dt = (t - now).max(0.0);
            if dt > 0.0 {
                for st in &mut states {
                    if matches!(st.phase, Phase::SlowStart | Phase::Steady) && st.rate > 0.0 {
                        st.remaining = (st.remaining - st.rate * dt).max(0.0);
                    }
                }
            }
            now = t;

            let mut changed = false;

            // completions — tolerance relative to the flow size: the
            // rate×Δt integration leaves a residue of a few ulps of the
            // total, which for 10 GB transfers exceeds any absolute cutoff
            for (st, f) in states.iter_mut().zip(flows) {
                let tol = 1e-9 * f.bytes.max(1.0) + 1e-6;
                if matches!(st.phase, Phase::SlowStart | Phase::Steady) && st.remaining <= tol {
                    st.phase = Phase::Done;
                    st.completion = now + 0.5 * st.rtt; // final ACK
                    remaining_flows -= 1;
                    changed = true;
                }
            }

            // events
            while let Some(Reverse((F64Ord(te), _, _))) = heap.peek() {
                if *te > now {
                    break;
                }
                let Reverse((_, _, ev)) = heap.pop().expect("peeked");
                match ev {
                    Ev::DataStart(i) => {
                        let st = &mut states[i as usize];
                        if st.phase == Phase::Connecting {
                            if st.remaining <= 0.0 {
                                st.phase = Phase::Done;
                                st.completion = now;
                                remaining_flows -= 1;
                            } else {
                                st.phase = Phase::SlowStart;
                                st.round_gen += 1;
                                let gen = st.round_gen;
                                let tr = now + st.rtt;
                                push(&mut heap, &mut seq, tr, Ev::Round { flow: i, gen });
                            }
                            changed = true;
                        }
                    }
                    Ev::Round { flow, gen } => {
                        let i = flow as usize;
                        if states[i].phase == Phase::SlowStart && states[i].round_gen == gen {
                            // congestion during the round ends slow start
                            let window_rate = states[i].cwnd.min(rwnd) / states[i].rtt;
                            let throttled = states[i].rate
                                < window_rate * self.params.eff_uncontended * states[i].eff_noise * 0.9;
                            states[i].cwnd = (states[i].cwnd * 2.0).min(rwnd);
                            if throttled || states[i].cwnd >= rwnd {
                                states[i].phase = Phase::Steady;
                            } else {
                                states[i].round_gen += 1;
                                let g = states[i].round_gen;
                                let tr = now + states[i].rtt;
                                push(&mut heap, &mut seq, tr, Ev::Round { flow, gen: g });
                            }
                            changed = true;
                        }
                    }
                }
            }

            if changed {
                reallocate(&mut states, &self.params);
            }
        }

        states
            .into_iter()
            .map(|st| FluidResult { completion: st.completion, was_contended: st.contended })
            .collect()
    }
}

/// Box–Muller standard normal sample.
fn gaussian(rng: &mut SmallRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[derive(Clone, Copy, PartialEq)]
struct F64Ord(f64);
impl Eq for F64Ord {}
impl PartialOrd for F64Ord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64Ord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetworkBuilder;
    use crate::net::NodeId;

    fn gige_line() -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host("h1");
        let sw = b.add_switch("sw");
        let h2 = b.add_host("h2");
        b.duplex_link(h1, sw, 1.25e8, 2e-5, 5e5);
        b.duplex_link(sw, h2, 1.25e8, 2e-5, 5e5);
        let n = b.build();
        let h1 = n.node_by_name("h1").unwrap();
        let h2 = n.node_by_name("h2").unwrap();
        (n, h1, h2)
    }

    fn no_noise() -> FluidParams {
        FluidParams { noise_sigma: 0.0, ..FluidParams::default() }
    }

    #[test]
    fn large_flow_near_line_rate() {
        let (n, h1, h2) = gige_line();
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e9, start: 0.0 };
        let d = sim.run(&[spec], 1)[0].duration(&spec);
        let ideal = 1e9 / (1.25e8 * TcpConfig::default().wire_efficiency());
        assert!(d > ideal && d < ideal * 1.1, "{d} vs {ideal}");
    }

    #[test]
    fn small_flow_pays_rtt_rounds() {
        let (n, h1, h2) = gige_line();
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e5, start: 0.0 };
        let d = sim.run(&[spec], 1)[0].duration(&spec);
        let raw = 1e5 / (1.25e8 * 0.949);
        assert!(d > 1.3 * raw, "handshake + slow start must show up: {d} vs {raw}");
    }

    #[test]
    fn two_flows_split_evenly() {
        let (n, h1, h2) = gige_line();
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let a = FlowSpec { src: h1, dst: h2, bytes: 5e8, start: 0.0 };
        let b = FlowSpec { src: h1, dst: h2, bytes: 5e8, start: 0.0 };
        let res = sim.run(&[a, b], 1);
        let (da, db) = (res[0].duration(&a), res[1].duration(&b));
        let solo = 5e8 / (1.25e8 * 0.949);
        assert!((da - db).abs() < 1e-3 * da);
        assert!(da > 1.9 * solo && da < 2.4 * solo, "{da} vs solo {solo}");
        assert!(res[0].was_contended);
    }

    #[test]
    fn backplane_limit_throttles_aggregate() {
        // 8 hosts pairwise through a switch whose backplane only carries
        // 4 Gbit/s of the 8 Gbit/s offered.
        let mut b = NetworkBuilder::new();
        let sw = b.add_limited_switch("sw", 5e8);
        let mut hosts = Vec::new();
        for i in 0..16 {
            let h = b.add_host(&format!("h{i}"));
            b.duplex_link(h, sw, 1.25e8, 2e-5, 5e5);
            hosts.push(h);
        }
        let n = b.build();
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let specs: Vec<FlowSpec> = (0..8)
            .map(|i| FlowSpec {
                src: n.node_by_name(&format!("h{i}")).unwrap(),
                dst: n.node_by_name(&format!("h{}", i + 8)).unwrap(),
                bytes: 5e8,
                start: 0.0,
            })
            .collect();
        let res = sim.run(&specs, 1);
        // without backplane: ≈ 4.2 s each; with 500 MB/s backplane:
        // 8 flows × 62.5 MB/s → ≈ 8.4 s each
        for (r, s) in res.iter().zip(&specs) {
            let d = r.duration(s);
            assert!(d > 7.0, "backplane must bite: {d}");
            assert!(r.was_contended);
        }
    }

    #[test]
    fn window_cap_limits_long_paths() {
        // 10 Gbit/s path with 25 ms one-way latency: rwnd/rtt ≈ 83 MB/s.
        let mut b = NetworkBuilder::new();
        let h1 = b.add_host("h1");
        let h2 = b.add_host("h2");
        b.duplex_link(h1, h2, 1.25e9, 2.5e-2, 5e6);
        let n = b.build();
        let (h1, h2) = (n.node_by_name("h1").unwrap(), n.node_by_name("h2").unwrap());
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e9, start: 0.0 };
        let res = sim.run(&[spec], 1);
        let d = res[0].duration(&spec);
        let window_rate = 4_194_304.0 / 0.05;
        let expect = 1e9 / window_rate;
        assert!(d > expect * 0.9, "window cap must bind: {d} vs {expect}");
        assert!(!res[0].was_contended, "window-limited, not congested");
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let (n, h1, h2) = gige_line();
        let sim = FluidSim::new(&n, TcpConfig::default(), FluidParams::default());
        let spec = FlowSpec { src: h1, dst: h2, bytes: 1e8, start: 0.0 };
        let a = sim.run(&[spec], 7)[0].completion;
        let b = sim.run(&[spec], 7)[0].completion;
        let c = sim.run(&[spec], 8)[0].completion;
        assert_eq!(a, b, "same seed, same result");
        assert_ne!(a, c, "different seed perturbs");
    }

    #[test]
    fn same_host_flow_is_instant() {
        let (n, h1, _) = gige_line();
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let spec = FlowSpec { src: h1, dst: h1, bytes: 1e9, start: 2.5 };
        let res = sim.run(&[spec], 1);
        assert_eq!(res[0].completion, 2.5);
    }

    #[test]
    fn zero_bytes_costs_handshake() {
        let (n, h1, h2) = gige_line();
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let spec = FlowSpec { src: h1, dst: h2, bytes: 0.0, start: 0.0 };
        let d = sim.run(&[spec], 1)[0].duration(&spec);
        assert!(d > 0.0 && d < 1e-3);
    }

    #[test]
    fn staggered_flows_overlap_correctly() {
        let (n, h1, h2) = gige_line();
        let sim = FluidSim::new(&n, TcpConfig::default(), no_noise());
        let a = FlowSpec { src: h1, dst: h2, bytes: 1e9, start: 0.0 };
        let b = FlowSpec { src: h1, dst: h2, bytes: 1e9, start: 4.0 };
        let res = sim.run(&[a, b], 1);
        let da = res[0].duration(&a);
        // a alone would take ≈ 8.4 s; b joins at 4 s, halving a's rate
        // (and adding the contended-efficiency cost): a ≈ 13–14.5 s
        assert!(da > 10.0 && da < 15.0, "{da}");
        assert!(res[1].completion > res[0].completion);
    }
}
