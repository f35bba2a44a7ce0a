//! Workflow forecasting (§VI): "is it relevant to move 1 TB of data to a
//! more powerful cluster in order to decrease the computing time of 2
//! hours?" — the exact question the paper's introduction opens with,
//! answered by forecasting both workflows.
//!
//! ```text
//! cargo run --release --example workflow_forecast
//! ```

use std::sync::Arc;

use forecast::Session;
use g5k::{synth, to_simflow, Flavor};
use pilgrim_core::workflow::{forecast, TaskKind, Workflow};
use simflow::NetworkConfig;

fn main() {
    let api = synth::standard();
    let platform = Arc::new(to_simflow(&api, Flavor::G5kTest));
    let session = Session::new(platform, NetworkConfig::default());

    let slow = "sagittaire-1.lyon.grid5000.fr"; // 4.8 Gflop/s, 2004-era
    let fast = "graphene-1.nancy.grid5000.fr"; // 10 Gflop/s
    let data = 1e12; // the 1 TB of the paper's example
    let work = 3.456e13; // 2 hours on the slow node

    // Hypothesis A: compute where the data is.
    let mut local = Workflow::new();
    local.add("compute locally", TaskKind::Compute { host: slow.into(), flops: work }, &[]);
    let local_fc = forecast(&session, &local).expect("forecast");

    // Hypothesis B: ship 1 TB to the faster cluster, compute, ship back
    // a 10 GB result.
    let mut remote = Workflow::new();
    let mv = remote.add(
        "move 1 TB to nancy",
        TaskKind::Transfer { src: slow.into(), dst: fast.into(), bytes: data },
        &[],
    );
    let c = remote.add(
        "compute on graphene",
        TaskKind::Compute { host: fast.into(), flops: work },
        &[mv],
    );
    remote.add(
        "bring 10 GB of results back",
        TaskKind::Transfer { src: fast.into(), dst: slow.into(), bytes: 1e10 },
        &[c],
    );
    let remote_fc = forecast(&session, &remote).expect("forecast");

    println!("Hypothesis A — compute on {slow}:");
    for t in &local_fc.tasks {
        println!("  {:<28} {:>9.1}s → {:>9.1}s", t.name, t.start, t.finish);
    }
    println!("  makespan: {:.1} s ({:.2} h)\n", local_fc.makespan, local_fc.makespan / 3600.0);

    println!("Hypothesis B — move the data to {fast}:");
    for t in &remote_fc.tasks {
        println!("  {:<28} {:>9.1}s → {:>9.1}s", t.name, t.start, t.finish);
    }
    println!(
        "  makespan: {:.1} s ({:.2} h)\n",
        remote_fc.makespan,
        remote_fc.makespan / 3600.0
    );

    let (winner, gain) = if local_fc.makespan < remote_fc.makespan {
        ("stay local", remote_fc.makespan - local_fc.makespan)
    } else {
        ("move the data", local_fc.makespan - remote_fc.makespan)
    };
    println!(
        "verdict: {winner} (saves {gain:.0} s).\n\
         \"If the data transfer will take more than 2 hours, the answer is no.\" — §I"
    );
}
