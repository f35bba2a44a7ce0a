//! Perf regression gate: re-measures the standard kernel scenarios (the
//! same suite `bench_kernel` records) and compares each fresh median
//! against the committed `BENCH_kernel.json`, exiting nonzero when any
//! scenario regresses beyond the tolerance. Wired into the extended
//! verify line (see ROADMAP.md) so kernel changes cannot silently lose
//! the perf the trajectory file pins.
//!
//! The box the trajectory numbers were recorded on is noisy, so the
//! guard takes the *minimum of two medians* per scenario (one median is
//! regularly 10–20% off on an otherwise idle machine) and applies a
//! ±15% tolerance by default.
//!
//! ## Instrumentation-overhead guard
//!
//! When `BENCH_overhead.json` is present (medians recorded from the
//! *uninstrumented* kernel, before the telemetry layer landed), the
//! guard additionally compares the fresh measurements against it as a
//! *geometric mean ratio* across all scenarios and fails when the
//! always-on instrumentation costs more than `--overhead-tolerance`
//! percent (default 2%). Per-scenario jitter on a noisy box dwarfs a
//! sub-2% effect, which is exactly why this check aggregates: the
//! geomean over 16 scenarios averages the noise away while a systematic
//! slowdown moves every ratio in the same direction.
//!
//! ## Scenario selection
//!
//! `--scenario <substr>` restricts the kernel gate to scenarios whose
//! name contains the substring (repeatable). Scenarios flagged *heavy*
//! (the 50k-flow ladder rung and the 100k-host platform) are skipped
//! unless a `--scenario` filter explicitly matches them: their absolute
//! runtimes are seconds, and on the shared box that noise budget
//! belongs in an opt-in run, not the default verify line.
//!
//! Usage: `cargo run --release -p bench --bin bench_guard \
//!             [BENCH_kernel.json] [--tolerance <percent>] \
//!             [--overhead-tolerance <percent>] \
//!             [--scenario <substr>]...`

use bench::scenarios::{kernel_suite, standard_platform};

const OVERHEAD_PATH: &str = "BENCH_overhead.json";

fn main() {
    let mut committed_path = "BENCH_kernel.json".to_string();
    let mut tolerance = 15.0f64;
    let mut overhead_tolerance = 2.0f64;
    let mut filters: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--scenario" {
            let v = args.next().unwrap_or_default();
            if v.is_empty() {
                eprintln!("error: --scenario needs a substring");
                std::process::exit(2);
            }
            filters.push(v);
        } else if a == "--tolerance" || a == "--overhead-tolerance" {
            let v = args.next().unwrap_or_default();
            let parsed = match v.parse() {
                Ok(t) => t,
                Err(_) => {
                    eprintln!("error: {a} needs a number, got '{v}'");
                    std::process::exit(2);
                }
            };
            if a == "--tolerance" {
                tolerance = parsed;
            } else {
                overhead_tolerance = parsed;
            }
        } else {
            committed_path = a;
        }
    }

    let committed = match std::fs::read_to_string(&committed_path) {
        Ok(text) => match jsonlite::Value::parse(&text) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {committed_path} is not valid JSON: {e:?}");
                std::process::exit(2);
            }
        },
        Err(e) => {
            eprintln!("error: cannot read {committed_path}: {e}");
            std::process::exit(2);
        }
    };

    // The overhead baseline: uninstrumented-kernel medians, if committed.
    let overhead_baseline = std::fs::read_to_string(OVERHEAD_PATH)
        .ok()
        .and_then(|text| jsonlite::Value::parse(&text).ok());

    let platform = standard_platform();
    let mut regressions = 0usize;
    let mut missing = 0usize;
    let mut overhead_ratios: Vec<(String, f64)> = Vec::new();
    // Committed rows are objects since the footprint column landed
    // (`{"median_ns": ..., "route_entries": ...}`), but older flat
    // `name: number` files still parse — the guard only gates time.
    let committed_median = |name: &str| {
        committed
            .get(name)
            .and_then(|v| v.as_f64().or_else(|| v.get("median_ns").and_then(|m| m.as_f64())))
    };
    println!("{:<27} {:>12} {:>12} {:>8}", "scenario", "committed", "fresh", "delta");
    for scenario in kernel_suite() {
        let matched = filters.iter().any(|f| scenario.name.contains(f.as_str()));
        if !filters.is_empty() && !matched {
            continue;
        }
        if scenario.heavy && !matched {
            println!("{:<27} {:>12} (heavy; pass --scenario to gate)", scenario.name, "-");
            continue;
        }
        let baseline = overhead_baseline
            .as_ref()
            .and_then(|b| b.get(&scenario.name))
            .and_then(|v| v.as_f64());
        let want = committed_median(&scenario.name);
        if want.is_none() && baseline.is_none() {
            println!("{:<27} {:>12} (not in {committed_path}; skipped)", scenario.name, "-");
            missing += 1;
            continue;
        }
        // Min of two medians: robust against one-off scheduler hiccups
        // without tripling the runtime.
        let fresh = scenario.measure(&platform).min(scenario.measure(&platform));
        if let Some(base) = baseline.filter(|&b| b > 0.0) {
            overhead_ratios.push((scenario.name.clone(), fresh / base));
        }
        let Some(want) = want else {
            println!("{:<27} {:>12} (not in {committed_path}; skipped)", scenario.name, "-");
            missing += 1;
            continue;
        };
        let delta = (fresh - want) / want * 100.0;
        let verdict = if delta > tolerance {
            regressions += 1;
            "  REGRESSED"
        } else {
            ""
        };
        println!(
            "{:<27} {:>12.0} {:>12.0} {:>+7.1}%{verdict}",
            scenario.name, want, fresh, delta
        );
    }

    if missing > 0 {
        println!("note: {missing} scenario(s) not present in {committed_path} (new since last regen?)");
    }

    // Overhead verdict: geomean of fresh/uninstrumented ratios. A
    // `--scenario` filter disables the aggregate guard — a geomean
    // over a hand-picked subset gates nothing meaningful.
    let mut overhead_failed = false;
    if !filters.is_empty() {
        println!("note: --scenario filter active — overhead guard skipped");
        if regressions > 0 {
            eprintln!(
                "bench_guard: {regressions} scenario(s) regressed more than {tolerance}%"
            );
            std::process::exit(1);
        }
        println!("bench_guard: filtered scenarios within {tolerance}% of {committed_path}");
        return;
    }
    if overhead_ratios.is_empty() {
        if overhead_baseline.is_none() {
            println!("note: {OVERHEAD_PATH} absent — instrumentation-overhead guard skipped");
        }
    } else {
        let geomean = (overhead_ratios.iter().map(|(_, r)| r.ln()).sum::<f64>()
            / overhead_ratios.len() as f64)
            .exp();
        let pct = (geomean - 1.0) * 100.0;
        println!(
            "overhead vs {OVERHEAD_PATH}: geomean ratio {geomean:.4} ({pct:+.2}%) \
             over {} scenario(s), tolerance {overhead_tolerance}%",
            overhead_ratios.len()
        );
        if pct > overhead_tolerance {
            overhead_failed = true;
            let mut worst = overhead_ratios.clone();
            worst.sort_by(|a, b| b.1.total_cmp(&a.1));
            for (name, r) in worst.iter().take(3) {
                eprintln!("  worst offender: {name} at {:+.2}%", (r - 1.0) * 100.0);
            }
            eprintln!(
                "bench_guard: always-on instrumentation costs {pct:+.2}% on the kernel \
                 (geomean), beyond the {overhead_tolerance}% budget"
            );
        }
    }

    if regressions > 0 {
        eprintln!(
            "bench_guard: {regressions} scenario(s) regressed more than {tolerance}% — \
             investigate or regenerate {committed_path} with bench_kernel if intentional"
        );
        std::process::exit(1);
    }
    if overhead_failed {
        std::process::exit(1);
    }
    println!("bench_guard: all scenarios within {tolerance}% of {committed_path}");
}
