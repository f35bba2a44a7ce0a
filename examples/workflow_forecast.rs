//! Workflow forecasting (§VI): "is it relevant to move 1 TB of data to a
//! more powerful cluster in order to decrease the computing time of 2
//! hours?" — the exact question the paper's introduction opens with,
//! answered by forecasting both workflows.
//!
//! ```text
//! cargo run --release --example workflow_forecast
//! ```

use g5k::{synth, to_simflow, Flavor};
use jsonlite::Value;
use pilgrim_core::http::Request;
use pilgrim_core::{Metrology, PilgrimService, Pnfs};
use simflow::NetworkConfig;

/// Forecasts the workflow `query` asks through the REST service: its
/// makespan, and per task its name, start and finish.
fn forecast(svc: &PilgrimService, query: &str) -> (f64, Vec<(String, f64, f64)>) {
    let resp = svc.handle(&Request::synthetic(
        "/pilgrim/forecast_workflow/g5k_test",
        query,
    ));
    let v = Value::parse(&resp.body).expect("json body");
    assert_eq!(resp.status, 200, "{v}");
    let secs = |v: &Value| v.as_f64().expect("a finite time");
    let tasks = v["tasks"].as_array().expect("tasks").iter();
    let tasks = tasks.map(|t| {
        (
            t["name"].as_str().unwrap().to_string(),
            secs(&t["start"]),
            secs(&t["finish"]),
        )
    });
    (secs(&v["makespan"]), tasks.collect())
}

fn main() {
    let mut pnfs = Pnfs::new(NetworkConfig::default());
    pnfs.register_platform("g5k_test", to_simflow(&synth::standard(), Flavor::G5kTest));
    let svc = PilgrimService::new(Metrology::new(), pnfs);

    let slow = "sagittaire-1.lyon.grid5000.fr"; // 4.8 Gflop/s, 2004-era
    let fast = "graphene-1.nancy.grid5000.fr"; // 10 Gflop/s
    let data = 1e12; // the 1 TB of the paper's example
    let work = 3.456e13; // 2 hours on the slow node

    // Hypothesis A: compute where the data is.
    let (local_makespan, local) =
        forecast(&svc, &format!("task=compute locally,compute,{slow},{work}"));

    // Hypothesis B: ship 1 TB to the faster cluster, compute, ship back
    // a 10 GB result.
    let (remote_makespan, remote) = forecast(
        &svc,
        &format!(
            "task=move 1 TB to nancy,transfer,{slow},{fast},{data}\
             &task=compute on graphene,compute,{fast},{work}\
             &task=bring 10 GB of results back,transfer,{fast},{slow},1e10\
             &dep=1,0&dep=2,1"
        ),
    );

    println!("Hypothesis A — compute on {slow}:");
    for (name, start, finish) in &local {
        println!("  {name:<28} {start:>9.1}s → {finish:>9.1}s");
    }
    println!(
        "  makespan: {:.1} s ({:.2} h)\n",
        local_makespan,
        local_makespan / 3600.0
    );

    println!("Hypothesis B — move the data to {fast}:");
    for (name, start, finish) in &remote {
        println!("  {name:<28} {start:>9.1}s → {finish:>9.1}s");
    }
    println!(
        "  makespan: {:.1} s ({:.2} h)\n",
        remote_makespan,
        remote_makespan / 3600.0
    );

    let (winner, gain) = if local_makespan < remote_makespan {
        ("stay local", remote_makespan - local_makespan)
    } else {
        ("move the data", local_makespan - remote_makespan)
    };
    println!(
        "verdict: {winner} (saves {gain:.0} s).\n\
         \"If the data transfer will take more than 2 hours, the answer is no.\" — §I"
    );
}
