//! The repository's benchmark driver. See `benchmark/README.md`.
//!
//! With `--workload <name>` it runs that one workload in this process —
//! the timed run (`--trace 0`, end-to-end metrics) or the traced run
//! (`--trace 1`, per-layer metrics) — and ends with one JSON result
//! line. Without it, it runs the whole suite, one fresh process per
//! workload and run.

mod bulk;
mod ladder;
mod layers;
mod metrics;
mod serve;
mod stats;
mod suite;
mod verify;
mod windows;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use windows::{run_windows, Windows};
use workloads::Workload;

/// Where in the ordered series of a run's windows a metric is read: the
/// first quartile (the third, for throughput). This box slows down in
/// bursts of seconds — the same binary's windows differ by up to 60 %
/// within one run — and only ever slows down, so a quartile on the quiet
/// side repeats where the median of the windows does not. The median
/// and the whole series are printed beside it.
const QUIET: f64 = 0.25;
/// Set-ups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Windows of a `--smoke` run, 0.3 s each.
const SMOKE_WINDOWS: usize = 3;

pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    /// Measured seconds of a timed run, all windows together.
    pub seconds: f64,
    /// `Some(false)`: timed run only; `Some(true)`: traced run only;
    /// `None` (suite mode): both.
    pub trace: Option<bool>,
    pub smoke: bool,
    pub repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: None,
        smoke: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or_else(|| format!("no workload '{v}'"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                })
            }
            "--repeat" => a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--smoke" => a.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if a.smoke {
        a.seconds = 0.3 * SMOKE_WINDOWS as f64;
    }
    Ok(a)
}

/// Where results and traces go: `benchmark/` beside the build's own
/// output, i.e. `<target dir>/benchmark/`, which `.gitignore` covers.
pub fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("binary sits in <target>/<profile>/");
    let out = dir.join("benchmark");
    std::fs::create_dir_all(&out).expect("create the output directory");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: benchmark [--workload <name>] [--seed N] [--seconds S] \
                 [--trace 0|1] [--repeat N] [--smoke]"
            );
            return ExitCode::from(2);
        }
    };
    match args.workload {
        None => suite::run(&args),
        Some(w) => {
            if args.trace == Some(true) {
                traced_run(w, &args);
            } else {
                timed_run(w, &args);
            }
            // a run that got this far has printed its result line; whether
            // it was correct is in the line
            ExitCode::SUCCESS
        }
    }
}

fn smoke_or(args: &Args, smoke: usize, full: usize) -> usize {
    if args.smoke {
        smoke.min(full)
    } else {
        full
    }
}

/// The timed run: set-up, warm-up, windows, output check.
fn timed_run(w: Workload, args: &Args) {
    let load_start = stats::load_average();
    let n_windows = smoke_or(args, SMOKE_WINDOWS, w.windows());
    let window_s = args.seconds / n_windows as f64;
    let warmup = w.warmup_ops();
    let setups = smoke_or(args, 1, SETUPS);
    let mut setup_s = Vec::with_capacity(setups);

    let (windows, rss, compared, mismatched, warm_failed, clients);
    if w == Workload::BulkSim {
        let mut bulk = Vec::new();
        for _ in 0..setups {
            bulk.clear();
            let t = Instant::now();
            // on a thread of its own, like the windows: with the warm-up on
            // the main thread VmHWM was bimodal (11.5 MiB, or 16 MiB in one
            // run out of five) depending on where the allocator put the
            // big vectors; with every cycle on a spawned thread it is not
            let b = std::thread::scope(|s| {
                let warm = s.spawn(|| {
                    let mut b = bulk::Bulk::new();
                    for _ in 0..warmup {
                        b.cycle(false);
                    }
                    b
                });
                warm.join().expect("warm-up thread")
            });
            setup_s.push(t.elapsed().as_secs_f64());
            bulk.push(b);
        }
        windows = run_windows(&mut bulk, layers::bulk_step, n_windows, window_s);
        rss = stats::peak_rss_mb();
        let (c, m) = bulk[0].check_against_cold();
        (compared, mismatched, warm_failed, clients) = (c, m + bulk[0].mismatched, 0, 1);
    } else {
        let mut state = None;
        for _ in 0..setups {
            // the earlier stack is gone before the next is built: clients
            // first, so the server drains nothing
            if let Some((platforms, env, cs, _)) = state.take() {
                drop(cs);
                drop(env);
                drop(platforms);
            }
            let t = Instant::now();
            state = Some(serve::set_up(w, args.seed, warmup));
            setup_s.push(t.elapsed().as_secs_f64());
        }
        let (platforms, env, mut cs, wf) = state.expect("at least one set-up");
        windows = run_windows(&mut cs, serve::Client::step, n_windows, window_s);
        rss = stats::peak_rss_mb();
        drop(env);
        let (mut c, mut m) = (0, 0);
        for (i, client) in cs.iter().enumerate() {
            let (ci, mi) = verify::check_client(w, args.seed, i, &platforms, &client.kept);
            c += ci;
            m += mi;
        }
        (compared, mismatched, warm_failed, clients) = (c, m, wf, cs.len());
    }

    let mut m = Metrics::default();
    let tail_q = w.tail_quantile();
    let per_window = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { (0..n_windows).map(f).collect() };
    let ops_per_s = windows.ops_per_s.clone();
    let p50 = per_window(&|k| stats::median(&mut windows.latencies_ms[k].clone()));
    let tail = per_window(&|k| stats::quantile(&mut windows.latencies_ms[k].clone(), tail_q));
    // ops of a window as rate × length, so that the op in flight at a
    // boundary counts by the share of it that ran inside
    let cpu = per_window(&|k| {
        windows.cpu_s[k] * 1e3 / (windows.ops_per_s[k] * windows.window_s).max(1.0)
    });
    m.set("setup_s", stats::median(&mut setup_s.clone()));
    m.set(
        "ops_per_s",
        stats::quantile(&mut ops_per_s.clone(), 1.0 - QUIET),
    );
    m.set("op_p50_ms", stats::quantile(&mut p50.clone(), QUIET));
    m.set("op_tail_ms", stats::quantile(&mut tail.clone(), QUIET));
    m.set("cpu_ms_per_op", stats::quantile(&mut cpu.clone(), QUIET));
    m.set("peak_rss_mb", rss);

    let failed = windows.failed + warm_failed + mismatched;
    let load_end = stats::load_average();
    println!(
        "workload {} seed {} clients {clients} windows {n_windows} x {window_s:.3} s (timed run)",
        w.name(),
        args.seed
    );
    let series = |v: &[f64]| {
        format!(
            "windows median {:.4} spread {:.0}% [{}]",
            stats::median(&mut v.to_vec()),
            100.0 * stats::spread(v),
            v.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(" ")
        )
    };
    for (name, unit) in END_TO_END {
        let detail = match name {
            "setup_s" => format!("median of set-ups {setup_s:.4?}"),
            "ops_per_s" => series(&ops_per_s),
            "op_p50_ms" => series(&p50),
            "op_tail_ms" => format!("p{:.0} per window; {}", 100.0 * tail_q, series(&tail)),
            "cpu_ms_per_op" => series(&cpu),
            _ => "VmHWM when the last window closed".to_string(),
        };
        println!("  {name:<14} {:>12.4} {unit:<4} {detail}", m.get(name));
    }
    println!(
        "  requests attempted {} succeeded {} failed {}; output check compared {compared} {} , {mismatched} differ",
        windows.attempted,
        windows.attempted - windows.failed,
        windows.failed + warm_failed,
        if w == Workload::BulkSim { "shape digests" } else { "bodies" },
    );
    // the run itself keeps every core busy, so only the load it found counts
    if load_start > stats::nproc() as f64 {
        println!(
            "  warning: load average was {load_start:.2} on {} cores when the run began \
             ({load_end:.2} when it ended); timings are contended",
            stats::nproc()
        );
    }
    let series = [
        ("ops_per_s", &ops_per_s),
        ("op_p50_ms", &p50),
        ("op_tail_ms", &tail),
        ("cpu_ms_per_op", &cpu),
    ];
    write_record(
        w,
        args,
        &windows,
        &series,
        &setup_s,
        (load_start, load_end),
        clients,
        &m,
    );
    println!(
        "{}",
        result_line(&END_TO_END, &m, windows.attempted, failed)
    );
}

/// The traced run: counts around one window, then the ladder.
fn traced_run(w: Workload, args: &Args) {
    println!("workload {} seed {} (traced run)", w.name(), args.seed);
    let ladder_ops = smoke_or(args, w.ladder_ops() / 20, w.ladder_ops());
    let (m, attempted, failed) = if w == Workload::BulkSim {
        layers::bulk(ladder_ops)
    } else {
        let mut trace = ladder::Trace::new();
        // as long as a third of the timed run, so that a traced run costs
        // about what a timed run does
        let window_s = args.seconds / 3.0;
        let out = layers::serving(w, args.seed, window_s, ladder_ops, &mut trace);
        let path = out_dir().join(format!("trace-{}.json", w.name()));
        std::fs::write(&path, trace.to_json()).expect("write the trace");
        println!(
            "  {} spans written to {}",
            trace.spans.len(),
            path.display()
        );
        out
    };
    for (name, unit) in PER_LAYER {
        println!("  {name:<44} {:>14.4} {unit}", m.get(name));
    }
    println!("{}", result_line(&PER_LAYER, &m, attempted, failed));
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run record: what was measured, on what, raw.
#[allow(clippy::too_many_arguments)]
fn write_record(
    w: Workload,
    args: &Args,
    windows: &Windows,
    series: &[(&str, &Vec<f64>)],
    setup_s: &[f64],
    load: (f64, f64),
    clients: usize,
    m: &Metrics,
) {
    use jsonlite::Value;
    let numbers = |v: &[f64]| Value::Array(v.iter().map(|&x| Value::from(x)).collect());
    let mut per_window = vec![
        (
            "ops",
            numbers(
                &windows
                    .latencies_ms
                    .iter()
                    .map(|l| l.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("cpu_s", numbers(&windows.cpu_s)),
    ];
    per_window.extend(series.iter().map(|(name, values)| (*name, numbers(values))));
    let record = Value::object(vec![
        ("workload", Value::from(w.name())),
        ("seed", Value::from(args.seed as i64)),
        (
            "git_commit",
            Value::from(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Value::from(command_line("rustc", &["--version"]))),
        ("nproc", Value::from(stats::nproc() as i64)),
        ("client_threads", Value::from(clients as i64)),
        ("load_average_start", Value::from(load.0)),
        ("load_average_end", Value::from(load.1)),
        ("window_s", Value::from(windows.window_s)),
        ("windows", Value::object(per_window)),
        ("setup_s", numbers(setup_s)),
        ("tail_percentile", Value::from(100.0 * w.tail_quantile())),
        ("attempted", Value::from(windows.attempted as i64)),
        ("failed", Value::from(windows.failed as i64)),
        (
            "metrics",
            Value::object(
                END_TO_END
                    .iter()
                    .map(|(n, _)| (*n, Value::from(m.get(n))))
                    .collect(),
            ),
        ),
    ]);
    let path = out_dir().join(format!("run-{}.json", w.name()));
    std::fs::write(path, record.to_pretty()).expect("write the run record");
}
