//! Suite mode: every workload in a fresh process each, so set-up time,
//! peak memory and allocator state are per workload; and the
//! `--repeat` self-agreement check.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use jsonlite::Value;

use crate::workloads::Workload;
use crate::Args;

/// One run's result line, parsed.
struct RunResult {
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

/// Re-executes this binary for one workload and run kind, echoing what
/// it prints; `None` when the child failed or printed no result line.
fn run_child(w: Workload, args: &Args, trace: bool) -> Option<RunResult> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end
    let out = cmd.output().ok()?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.trim_end().lines().last()?;
    if !out.status.success() {
        return None;
    }
    let v = Value::parse(last).ok()?;
    let Value::Object(pairs) = &v["metrics"] else {
        return None;
    };
    let metrics = pairs
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m["value"].as_f64()?)))
        .collect();
    Some(RunResult {
        correct: v["correct"].as_bool()?,
        metrics,
    })
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json` (read
/// from the working directory, the root of the checkout).
fn bounds() -> Vec<(String, f64)> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .expect("--repeat reads BENCHMARK.json from the working directory");
    let v = Value::parse(&text).expect("BENCHMARK.json is JSON");
    v["end_to_end"]
        .as_array()
        .expect("end_to_end is a list")
        .iter()
        .map(|m| {
            (
                m["name"].as_str().expect("metric name").to_string(),
                m["bound"].as_f64().expect("metric bound"),
            )
        })
        .collect()
}

/// Per-layer counts that must repeat exactly on `bulk_sim`.
fn exact_on_bulk(name: &str) -> bool {
    name.starts_with("simflow.model.") || name.starts_with("simflow.kernel.calendar_")
}

pub fn run(args: &Args) -> ExitCode {
    let mut ok = true;
    // timed[repeat][workload], traced likewise
    let mut timed: Vec<Vec<Option<RunResult>>> = Vec::new();
    let mut traced: Vec<Vec<Option<RunResult>>> = Vec::new();
    for _ in 0..args.repeat.max(1) {
        let mut t0 = Vec::new();
        let mut t1 = Vec::new();
        for w in Workload::ALL {
            if args.trace != Some(true) {
                t0.push(run_child(w, args, false));
            }
            if args.trace != Some(false) {
                t1.push(run_child(w, args, true));
            }
        }
        timed.push(t0);
        traced.push(t1);
    }
    for r in timed.iter().chain(&traced).flatten() {
        ok &= r.as_ref().is_some_and(|r| r.correct);
    }
    if !ok {
        println!("FAILED: a run ended without a result or with incorrect outputs");
    }

    if args.repeat >= 2 {
        println!(
            "self-agreement of {} repeats (seed {}):",
            args.repeat, args.seed
        );
        let bounds = bounds();
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            let runs: Vec<&RunResult> = timed
                .iter()
                .filter_map(|r| r.get(i).and_then(Option::as_ref))
                .collect();
            for (name, bound) in &bounds {
                let values: Vec<f64> = runs
                    .iter()
                    .filter_map(|r| r.metrics.get(name).copied())
                    .collect();
                let Some((&first, rest)) = values.split_first() else {
                    continue;
                };
                // two runs of one program have no better and worse side:
                // the largest difference from the first run, either way
                let differ = rest
                    .iter()
                    .map(|v| (v - first).abs() / first)
                    .fold(0.0, f64::max);
                ok &= differ <= *bound;
                println!(
                    "  {:<14} {name:<14} {values:?} differ {:.1}% (bound {:.0}%) {}",
                    w.name(),
                    100.0 * differ,
                    100.0 * bound,
                    if differ <= *bound { "ok" } else { "DISAGREES" }
                );
            }
        }
        let bulk = Workload::ALL
            .iter()
            .position(|w| *w == Workload::BulkSim)
            .expect("listed");
        let runs: Vec<&RunResult> = traced
            .iter()
            .filter_map(|r| r.get(bulk).and_then(Option::as_ref))
            .collect();
        if let Some((first, rest)) = runs.split_first() {
            for (name, v) in first.metrics.iter().filter(|(n, _)| exact_on_bulk(n)) {
                let same = rest.iter().all(|r| r.metrics.get(name) == Some(v));
                ok &= same;
                println!(
                    "  bulk_sim       {name:<40} {v} {}",
                    if same { "repeats exactly" } else { "DIFFERS" }
                );
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
