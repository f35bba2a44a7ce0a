//! Cross-crate integration: the evaluation pipeline reproduces the
//! paper's qualitative claims on scaled-down runs (2 repetitions).
//!
//! These are the DESIGN.md "shape criteria": not absolute numbers — our
//! substrate is a simulator, not Grid'5000 — but who wins, in which
//! direction, and where the crossovers fall.

use experiments::background::{render_background, run_background_ablation};
use experiments::figures::{figure, run_figure, Lab};
use experiments::render::figure_csv;
use experiments::summarize;

fn lab() -> Lab {
    Lab::new()
}

#[test]
fn sagittaire_errors_negative_small_vanishing_large() {
    let lab = lab();
    let data = run_figure(&lab, &figure("fig3").unwrap(), 2, 1);
    let first = &data.points[0]; // 1e5 bytes
    let last = &data.points[9]; // 1e10 bytes
    assert!(
        first.err.median < -3.0,
        "small transfers must be dominated by unmodeled overheads: {:?}",
        first.err
    );
    assert!(
        last.err.median.abs() < 0.4,
        "large transfers must be accurately predicted: {:?}",
        last.err
    );
    // monotone improvement in magnitude along the size sweep
    assert!(first.err.median.abs() > last.err.median.abs());
}

#[test]
fn graphene_small_size_errors_are_positive() {
    // figures 6–9: the modeled per-hop latency (hard-coded 1e-4 × 13.01)
    // far exceeds the real cut-through switches, so graphene predictions
    // of small transfers are pessimistic — the opposite sign of sagittaire.
    // fig7 (10 distinct sources) shows it cleanly; fig6's single shared
    // source NIC dominates both worlds equally and dilutes the signal.
    let lab = lab();
    let f7 = run_figure(&lab, &figure("fig7").unwrap(), 2, 1);
    assert!(
        f7.points[0].err.median > 0.5,
        "graphene 10×10 at 1e5: {:?}",
        f7.points[0].err
    );
    let f6 = run_figure(&lab, &figure("fig6").unwrap(), 2, 1);
    assert!(
        f6.points[0].err.median > 0.0,
        "graphene 1×10 at 1e5 still leans positive: {:?}",
        f6.points[0].err
    );
}

#[test]
fn graphene_overshoot_grows_with_flow_count() {
    // figures 8–9: with ≥ 30 symmetric flows the bidirectionally-shared
    // uplinks of the platform model predict contention full-duplex
    // hardware never sees; the overshoot grows from 30×30 to 50×50
    let lab = lab();
    let f8 = run_figure(&lab, &figure("fig8").unwrap(), 2, 1);
    let f9 = run_figure(&lab, &figure("fig9").unwrap(), 2, 1);
    let large8 = f8.points[9].err;
    let large9 = f9.points[9].err;
    assert!(
        large9.median > 0.25,
        "50×50 must overshoot (paper: ×1.7): {large9:?}"
    );
    assert!(
        large9.median > large8.median,
        "overshoot grows with flow count: 30×30 {large8:?} vs 50×50 {large9:?}"
    );
    // and the paper's sagittaire contrast: no overshoot without uplinks
    let f5 = run_figure(&lab, &figure("fig5").unwrap(), 2, 1);
    assert!(f5.points[9].err.median < 0.1, "{:?}", f5.points[9].err);
}

#[test]
fn grid_scale_forecasts_stay_relevant() {
    // figures 10–11: "at the grid scale, the forecasts are still
    // relevant, and we see the same limitations for small transfer sizes"
    let lab = lab();
    let data = run_figure(&lab, &figure("fig10").unwrap(), 2, 1);
    assert!(data.points[0].err.q1 < -2.0, "small sizes broken: {:?}", data.points[0].err);
    assert!(
        data.points[9].err.median.abs() < 0.5,
        "large sizes fine: {:?}",
        data.points[9].err
    );
}

#[test]
fn pooled_summary_is_in_the_paper_ballpark() {
    let lab = lab();
    let ids = ["fig3", "fig5", "fig8", "fig10"];
    let datas: Vec<_> = ids
        .iter()
        .map(|id| run_figure(&lab, &figure(id).unwrap(), 2, 7))
        .collect();
    let s = summarize(&datas).expect("samples above threshold");
    // paper: median |err| 0.149, σ 0.532, 74 % below 0.575
    assert!(s.median_abs_error < 0.45, "median |err| {}", s.median_abs_error);
    assert!(s.std_error < 1.2, "σ {}", s.std_error);
    assert!(s.fraction_below_0575 > 0.5, "{}", s.fraction_below_0575);
}

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The seeded streams' products, byte for byte: fig10's CSV covers the
/// workload's pair draws, the fluid model's noise and the testbed's
/// jitter; the background ablation covers the host shuffles. A change
/// that moves either digest changes the figures — if on purpose,
/// re-record both and say why.
#[test]
fn seeded_outputs_are_pinned() {
    let lab = lab();
    let csv = figure_csv(&run_figure(&lab, &figure("fig10").unwrap(), 2, 1));
    assert_eq!(fnv1a(&csv), 0x050d_250b_6f30_0c46, "fig10 CSV moved");
    let table = render_background(&run_background_ablation(&lab, 7.74e8, &[0, 5], 2, 1));
    assert_eq!(fnv1a(&table), 0x10ae_14f0_a63b_e613, "background ablation moved:\n{table}");
}
