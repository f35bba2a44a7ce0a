//! A replica-selection scheduler built on PNFS — the paper's raison
//! d'être: "Such a service is mandatory for a good resource management
//! system to take scheduling decisions efficiently" (§I), with Stork/Dagda
//! cited as the systems that would consume it.
//!
//! Scenario: input files are replicated across the three sites; a batch of
//! jobs, each pinned to a compute node, must each fetch one file. The
//! scheduler picks, for every job, which replica to pull — either naively
//! (closest by latency, ignoring contention) or by asking PNFS to simulate
//! the *whole* concurrent transfer plan per hypothesis and keeping the
//! fastest (§VI's `select_fastest`). The ground truth then "executes" both
//! plans to show the forecast-driven choice actually finishes sooner.
//!
//! ```text
//! cargo run --release --example scheduler
//! ```

use experiments::figures::Lab;
use packetsim::FlowSpec;
use pilgrim_core::TransferRequest;

/// One job: a compute node that needs one input file.
struct Job {
    node: String,
    file: &'static str,
}

/// A file with replicas on several hosts.
struct FileReplicas {
    name: &'static str,
    bytes: f64,
    replicas: Vec<String>,
}

fn main() {
    println!("building the lab (platform model + ground-truth testbed)…");
    let lab = Lab::new();

    let files = [
        FileReplicas {
            name: "genome.db",
            bytes: 2.78e9,
            replicas: vec![
                "sagittaire-10.lyon.grid5000.fr".into(),
                "chti-5.lille.grid5000.fr".into(),
            ],
        },
        FileReplicas {
            name: "mesh.bin",
            bytes: 7.74e8,
            replicas: vec![
                "capricorne-3.lyon.grid5000.fr".into(),
                "griffon-20.nancy.grid5000.fr".into(),
            ],
        },
        FileReplicas {
            name: "frames.tar",
            bytes: 2.78e9,
            replicas: vec![
                "chicon-2.lille.grid5000.fr".into(),
                "griffon-40.nancy.grid5000.fr".into(),
            ],
        },
    ];
    // six jobs on graphene, two per file — naive placement will pile every
    // same-file job onto the same "closest" replica
    let jobs: Vec<Job> = (0..6)
        .map(|i| Job {
            node: format!("graphene-{}.nancy.grid5000.fr", 10 + i * 7),
            file: files[i % 3].name,
        })
        .collect();

    let file_of = |name: &str| files.iter().find(|f| f.name == name).expect("known file");

    // --- plan A: naive closest-replica (minimum modeled latency), which
    //     ignores that transfers run concurrently
    let naive: Vec<TransferRequest> = jobs
        .iter()
        .map(|job| {
            let f = file_of(job.file);
            let dst = lab.platform.host_by_name(&job.node).expect("node");
            let src = f
                .replicas
                .iter()
                .min_by(|a, b| {
                    let la = lab
                        .platform
                        .route_hosts(lab.platform.host_by_name(a).unwrap(), dst)
                        .unwrap()
                        .latency;
                    let lb = lab
                        .platform
                        .route_hosts(lab.platform.host_by_name(b).unwrap(), dst)
                        .unwrap()
                        .latency;
                    la.total_cmp(&lb)
                })
                .unwrap();
            TransferRequest { src: src.clone(), dst: job.node.clone(), size: f.bytes }
        })
        .collect();

    // --- plan B: forecast-driven — enumerate replica assignments (one
    //     alternative per job flipped) and let PNFS pick the fastest plan
    let mut hypotheses: Vec<Vec<TransferRequest>> = vec![naive.clone()];
    // greedy neighborhood: flip each job to its other replica
    for j in 0..jobs.len() {
        let f = file_of(jobs[j].file);
        for alt in &f.replicas {
            if *alt != naive[j].src {
                let mut plan = hypotheses[0].clone();
                plan[j].src = alt.clone();
                hypotheses.push(plan);
            }
        }
    }
    // and one fully spread plan: job i takes replica i mod r
    let spread: Vec<TransferRequest> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            let f = file_of(job.file);
            TransferRequest {
                src: f.replicas[i % f.replicas.len()].clone(),
                dst: job.node.clone(),
                size: f.bytes,
            }
        })
        .collect();
    hypotheses.push(spread);

    let t0 = std::time::Instant::now();
    let selection = lab
        .pnfs
        .select_fastest("g5k_test", &hypotheses)
        .expect("selection");
    println!(
        "\nPNFS evaluated {} placement hypotheses in {:.1} ms ({} pruned without simulation)",
        hypotheses.len(),
        t0.elapsed().as_secs_f64() * 1e3,
        selection.pruned.len()
    );
    println!(
        "chosen plan #{} with forecast makespan {:.1} s (naive plan is #0)",
        selection.best, selection.best_makespan
    );

    // --- execute both plans on the ground truth
    let execute = |plan: &[TransferRequest]| -> f64 {
        let tb = lab.tnet.testbed(Default::default());
        let flows: Vec<FlowSpec> = plan
            .iter()
            .map(|t| FlowSpec {
                src: lab.tnet.network.node_by_name(&t.src).expect("src"),
                dst: lab.tnet.network.node_by_name(&t.dst).expect("dst"),
                bytes: t.size,
                start: 0.0,
            })
            .collect();
        tb.measure(&flows, 42)
            .iter()
            .map(|m| m.duration)
            .fold(0.0, f64::max)
    };

    // --- export a zoomable timeline of the winning plan: re-simulate it
    //     traced and dump a Chrome trace-event file (open in
    //     about:tracing or ui.perfetto.dev)
    {
        let mut sim =
            simflow::Simulation::new(&lab.platform, simflow::NetworkConfig::default());
        for t in &hypotheses[selection.best] {
            let src = lab.platform.host_by_name(&t.src).expect("src");
            let dst = lab.platform.host_by_name(&t.dst).expect("dst");
            sim.add_transfer(src, dst, t.size).expect("transfer");
        }
        let (report, trace) = sim.run_traced().expect("traced run");
        // under target/, which git ignores, wherever the example is run from
        let out = concat!(env!("CARGO_MANIFEST_DIR"), "/target/chosen_plan.trace.json");
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/target"))
            .expect("create target/");
        std::fs::write(out, trace.to_chrome_json()).expect("write trace");
        println!(
            "\nwrote {out}: {} events, {} reshares, {} calendar pops \
             (load in about:tracing)",
            trace.events.len(),
            report.stats.reshares,
            report.stats.calendar_pops
        );
    }

    let naive_makespan = execute(&naive);
    let chosen_makespan = execute(&hypotheses[selection.best]);
    println!("\nexecuted on the testbed:");
    println!("  naive closest-replica plan : {naive_makespan:.1} s");
    println!("  forecast-driven plan       : {chosen_makespan:.1} s");
    if selection.best != 0 {
        println!(
            "  → the simulation-driven scheduler staged data {:.0}% faster",
            (naive_makespan / chosen_makespan - 1.0) * 100.0
        );
    } else {
        println!("  → the naive plan was already optimal for this draw");
    }
}
