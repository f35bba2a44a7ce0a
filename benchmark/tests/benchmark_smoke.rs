//! Runs the whole suite in `--smoke` mode (0.3 s windows, short ladder)
//! and checks it against `BENCHMARK.json`: every workload and every
//! metric named there is printed with its unit, parses and is finite.
//!
//! Run it optimised — `cargo test --release --manifest-path
//! benchmark/Cargo.toml` — the time limit below is only checked then.

use std::collections::BTreeMap;
use std::process::Command;
use std::time::Instant;

use jsonlite::Value;

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// `name → unit` of one metric list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> BTreeMap<String, String> {
    spec[list]
        .as_array()
        .unwrap_or_else(|| panic!("{list} is a list"))
        .iter()
        .map(|m| {
            (
                m["name"].as_str().unwrap().to_string(),
                m["unit"].as_str().unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn smoke_suite_prints_every_declared_metric() {
    let spec = std::fs::read_to_string(format!("{REPO_ROOT}/BENCHMARK.json")).unwrap();
    let spec = Value::parse(&spec).expect("BENCHMARK.json is JSON");
    let workloads: Vec<&str> = spec["workloads"]
        .as_array()
        .unwrap()
        .iter()
        .map(|w| w["name"].as_str().unwrap())
        .collect();
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert!(end_to_end.contains_key("setup_s"));

    let t = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .current_dir(REPO_ROOT)
        .output()
        .expect("the benchmark binary runs");
    let elapsed = t.elapsed();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "smoke suite failed:\n{stdout}");

    // (workload, traced?) → metrics of its result line
    let mut results: BTreeMap<(String, bool), Value> = BTreeMap::new();
    let mut current: Option<(String, bool)> = None;
    for line in stdout.lines() {
        if let Some(rest) = line.strip_prefix("workload ") {
            let name = rest.split_whitespace().next().unwrap().to_string();
            current = Some((name, rest.contains("(traced run)")));
        } else if line.starts_with("{\"correct\"") {
            let v = Value::parse(line).expect("result line is JSON");
            assert_eq!(v["correct"].as_bool(), Some(true), "{line}");
            assert_eq!(v["failed"].as_i64(), Some(0), "{line}");
            assert!(v["attempted"].as_i64().unwrap() >= 1, "{line}");
            results.insert(current.take().expect("a header precedes every result"), v);
        }
    }

    for w in &workloads {
        for (traced, names) in [(false, &end_to_end), (true, &per_layer)] {
            let v = results
                .get(&(w.to_string(), traced))
                .unwrap_or_else(|| panic!("no result for {w} traced={traced}"));
            let Value::Object(printed) = &v["metrics"] else {
                panic!("metrics is an object")
            };
            assert_eq!(
                printed.len(),
                names.len(),
                "{w} traced={traced}: metric count"
            );
            for (name, unit) in names {
                let m = &v["metrics"][name.as_str()];
                let value = m["value"]
                    .as_f64()
                    .unwrap_or_else(|| panic!("{w}: {name} missing"));
                assert!(value.is_finite(), "{w}: {name} = {value}");
                assert_eq!(
                    m["unit"].as_str(),
                    Some(unit.as_str()),
                    "{w}: unit of {name}"
                );
                if !traced {
                    assert!(value > 0.0, "{w}: end-to-end metric {name} must never be 0");
                }
                // the human-readable line names the metric with its unit too
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.trim_start().starts_with(name.as_str())
                            && l.contains(unit.as_str())),
                    "{name} is not printed by name"
                );
            }
        }
    }

    let hit_ratio = |w: &str| {
        results[&(w.to_string(), true)]["metrics"]["forecast.cache.hit_ratio"]["value"]
            .as_f64()
            .unwrap()
    };
    assert!(
        hit_ratio("sched_hot") >= 0.99,
        "sched_hot must hit: {}",
        hit_ratio("sched_hot")
    );
    assert!(
        hit_ratio("sched_cold") <= 0.01,
        "sched_cold must miss: {}",
        hit_ratio("sched_cold")
    );

    if !cfg!(debug_assertions) {
        assert!(elapsed.as_secs_f64() < 15.0, "smoke took {elapsed:?}");
    }
}
