//! Background-traffic ablation — the paper's §VI outlook: "We also plan
//! to model the background traffic of Grid'5000 ... we will have to find
//! a tradeoff between a very accurate dynamic model of the platform
//! involving too much data ... or a coarse model."
//!
//! This module quantifies what that modeling buys. The ground truth runs
//! the foreground workload *plus* long-lived cross-site background flows;
//! the predictor forecasts either blind (today's Pilgrim: background
//! unmodeled) or aware (background flows added to the simulated request —
//! the coarse model the paper envisions). `experiments --figure figB`
//! prints the table.

use packetsim::FlowSpec;
use pilgrim_core::TransferRequest;
use seeded::SmallRng;

use crate::figures::Lab;
use crate::stats::{box_stats, log2_error, BoxStats};
use crate::workload::FlowPair;

/// Draws `n` directed pairs from site `src_site` to site `dst_site`
/// (distinct sources, distinct destinations) — the concentrated load that
/// actually stresses one backbone direction.
pub fn draw_directed_pairs(
    api: &g5k::RefApi,
    src_site: &str,
    dst_site: &str,
    n: usize,
    seed: u64,
) -> Vec<FlowPair> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let hosts_of = |site: &str| -> Vec<String> {
        let s = api.site(site).expect("known site");
        s.clusters
            .iter()
            .flat_map(|c| (1..=c.nodes).map(|i| s.fqdn(c, i)))
            .collect()
    };
    let mut srcs = hosts_of(src_site);
    let mut dsts = hosts_of(dst_site);
    assert!(n <= srcs.len() && n <= dsts.len(), "site too small for {n} endpoints");
    rng.shuffle(&mut srcs);
    rng.shuffle(&mut dsts);
    (0..n)
        .map(|i| FlowPair { src: srcs[i].clone(), dst: dsts[i].clone() })
        .collect()
}

/// Background load description: `n_flows` bulk transfers crossing site
/// boundaries, large enough to outlast the foreground workload.
#[derive(Clone, Copy, Debug)]
pub struct BackgroundSpec {
    /// Number of concurrent background flows.
    pub n_flows: usize,
    /// Bytes per background flow.
    pub bytes: f64,
}

/// One row of the ablation table.
#[derive(Clone, Debug)]
pub struct BackgroundPoint {
    /// Background flow count.
    pub n_background: usize,
    /// Error box with the predictor blind to the background.
    pub blind: BoxStats,
    /// Error box with the background modeled in the request.
    pub aware: BoxStats,
}

fn to_flowspecs(lab: &Lab, pairs: &[FlowPair], bytes: f64) -> Vec<FlowSpec> {
    pairs
        .iter()
        .map(|p| FlowSpec {
            src: lab.tnet.network.node_by_name(&p.src).expect("host"),
            dst: lab.tnet.network.node_by_name(&p.dst).expect("host"),
            bytes,
            start: 0.0,
        })
        .collect()
}

fn to_requests(pairs: &[FlowPair], bytes: f64) -> Vec<TransferRequest> {
    pairs
        .iter()
        .map(|p| TransferRequest { src: p.src.clone(), dst: p.dst.clone(), size: bytes })
        .collect()
}

/// Measures foreground durations with the background load present.
pub fn measure_with_background(
    lab: &Lab,
    foreground: &[FlowPair],
    size: f64,
    background: &[FlowPair],
    bg_bytes: f64,
    seed: u64,
) -> Vec<f64> {
    let tb = lab.tnet.testbed(lab.testbed_config.clone());
    let mut flows = to_flowspecs(lab, foreground, size);
    flows.extend(to_flowspecs(lab, background, bg_bytes));
    tb.measure(&flows, seed)
        .iter()
        .take(foreground.len())
        .map(|m| m.duration)
        .collect()
}

/// Predicts foreground durations, optionally modeling the background.
pub fn predict_with_background(
    lab: &Lab,
    foreground: &[FlowPair],
    size: f64,
    background: Option<(&[FlowPair], f64)>,
    platform: &str,
) -> Vec<f64> {
    let mut reqs = to_requests(foreground, size);
    if let Some((bg, bg_bytes)) = background {
        reqs.extend(to_requests(bg, bg_bytes));
    }
    lab.pnfs
        .predict(platform, &reqs)
        .expect("prediction")
        .iter()
        .take(foreground.len())
        .map(|p| p.duration)
        .collect()
}

/// Runs the ablation: foreground = 10 Lyon→Nancy transfers of `size`
/// bytes, background = `n` bulk flows on the same backbone direction,
/// `reps` repetitions each.
pub fn run_background_ablation(
    lab: &Lab,
    size: f64,
    bg_counts: &[usize],
    reps: usize,
    base_seed: u64,
) -> Vec<BackgroundPoint> {
    bg_counts
        .iter()
        .map(|&n_bg| {
            let mut blind_errs = Vec::new();
            let mut aware_errs = Vec::new();
            for rep in 0..reps {
                let seed = base_seed
                    ^ (n_bg as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (rep as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                let fore = draw_directed_pairs(&lab.api, "lyon", "nancy", 10, seed);
                let bg = if n_bg == 0 {
                    Vec::new()
                } else {
                    draw_directed_pairs(&lab.api, "lyon", "nancy", n_bg, !seed)
                };
                let bg_bytes = 4.0 * size; // outlasts the foreground
                let measured = measure_with_background(lab, &fore, size, &bg, bg_bytes, seed);
                let blind = predict_with_background(lab, &fore, size, None, "g5k_test");
                let aware = predict_with_background(
                    lab,
                    &fore,
                    size,
                    Some((&bg, bg_bytes)),
                    "g5k_test",
                );
                for ((m, pb), pa) in measured.iter().zip(&blind).zip(&aware) {
                    blind_errs.push(log2_error(*pb, *m));
                    aware_errs.push(log2_error(*pa, *m));
                }
            }
            BackgroundPoint {
                n_background: n_bg,
                blind: box_stats(&blind_errs).expect("samples"),
                aware: box_stats(&aware_errs).expect("samples"),
            }
        })
        .collect()
}

/// ASCII rendering of the ablation table.
pub fn render_background(points: &[BackgroundPoint]) -> String {
    let mut out = String::from(
        "figB — background-traffic ablation (10 Lyon→Nancy transfers, 774 MB each,\n\
         n bulk background flows on the same backbone direction)\n\
         error log2(pred)−log2(meas); blind = background unmodeled, aware = modeled\n\n",
    );
    out.push_str(&format!(
        "{:>6} | {:>8} {:>8} {:>8} | {:>8} {:>8} {:>8}\n",
        "bg", "blind q1", "median", "q3", "aware q1", "median", "q3"
    ));
    out.push_str(&"-".repeat(66));
    out.push('\n');
    for p in points {
        out.push_str(&format!(
            "{:>6} | {:>8.2} {:>8.2} {:>8.2} | {:>8.2} {:>8.2} {:>8.2}\n",
            p.n_background,
            p.blind.q1,
            p.blind.median,
            p.blind.q3,
            p.aware.q1,
            p.aware.median,
            p.aware.q3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn background_slows_measured_foreground() {
        let lab = Lab::new();
        let fore = draw_directed_pairs(&lab.api, "lyon", "nancy", 5, 1);
        let bg = draw_directed_pairs(&lab.api, "lyon", "nancy", 20, 2);
        let without = measure_with_background(&lab, &fore, 7.74e8, &[], 0.0, 3);
        let with = measure_with_background(&lab, &fore, 7.74e8, &bg, 4e9, 3);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&with) > mean(&without) * 1.3,
            "20 same-direction background flows must slow things: {} vs {}",
            mean(&with),
            mean(&without)
        );
    }

    #[test]
    fn modeling_the_background_improves_forecasts() {
        let lab = Lab::new();
        let points = run_background_ablation(&lab, 7.74e8, &[0, 20], 2, 7);
        assert_eq!(points.len(), 2);
        // without background both predictors coincide
        let p0 = &points[0];
        assert!((p0.blind.median - p0.aware.median).abs() < 1e-9);
        // with background, the blind forecast degrades and the aware one
        // stays markedly closer
        let p20 = &points[1];
        assert!(
            p20.blind.median.abs() > p20.aware.median.abs() + 0.1,
            "blind {:?} vs aware {:?}",
            p20.blind,
            p20.aware
        );
        let text = render_background(&points);
        assert!(text.contains("figB"));
    }
}
