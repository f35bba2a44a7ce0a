//! Kernel perf trajectory: times the flow-level kernel's standard
//! scenarios (see [`bench::scenarios`]) with `std::time` and emits
//! `BENCH_kernel.json` so successive PRs can compare numbers. Each row
//! is an object:
//!
//! ```json
//! "kernel_concurrent_flows/400": {
//!   "median_ns": 1834345, "route_entries": 18, "warm_bytes": 4096,
//!   "calendar_peak": 412
//! }
//! ```
//!
//! `median_ns` is the wall-clock median (sample counts auto-scale to a
//! per-scenario wall-time budget, so regeneration stays under ~2 minutes
//! even with the 50k-flow and 100k-host rows); the remaining fields are
//! the memory-footprint proxies of one run (see
//! [`bench::scenarios::Footprint`]). The `bench_guard` binary re-measures
//! the same suite and gates regressions against the committed file.
//!
//! Usage: `cargo run --release -p bench --bin bench_kernel [out.json]`

use bench::scenarios::{kernel_suite, standard_platform, Footprint};

fn main() {
    let out = std::env::args().nth(1).unwrap_or_else(|| "BENCH_kernel.json".to_string());
    // Fail on an unwritable destination *before* spending a minute
    // benchmarking.
    if let Err(e) = std::fs::OpenOptions::new().create(true).append(true).open(&out) {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(2);
    }
    let platform = standard_platform();

    let mut results: Vec<(String, f64, Footprint)> = Vec::new();
    for scenario in kernel_suite() {
        let ns = scenario.measure(&platform);
        let fp = scenario.footprint(&platform);
        println!(
            "{:<32} median {ns:>13.0} ns  routes {:>7}  warm {:>9} B  cal-peak {:>7}",
            scenario.name, fp.route_entries, fp.warm_bytes, fp.calendar_peak
        );
        results.push((scenario.name, ns, fp));
    }

    let json = jsonlite::Value::Object(
        results
            .into_iter()
            .map(|(name, ns, fp)| {
                (
                    name,
                    jsonlite::Value::object(vec![
                        ("median_ns", jsonlite::Value::Number(ns.round())),
                        ("route_entries", jsonlite::Value::Number(fp.route_entries as f64)),
                        ("warm_bytes", jsonlite::Value::Number(fp.warm_bytes as f64)),
                        ("calendar_peak", jsonlite::Value::Number(fp.calendar_peak as f64)),
                    ]),
                )
            })
            .collect(),
    );
    if let Err(e) = std::fs::write(&out, json.to_pretty() + "\n") {
        eprintln!("error: cannot write {out}: {e}");
        std::process::exit(2);
    }
    println!("wrote {out}");
}
