//! The measured part of a timed run: back-to-back windows over closed
//! loops, one loop per worker thread.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::stats;

/// Samples a loop thread has room for before its buffer grows: four
/// times what today's fastest workload answers per client in 15 s.
const SAMPLE_CAPACITY: usize = 1 << 18;

/// What a loop thread hands back: `(end offset s, latency ms)` per op,
/// steps attempted, steps failed.
type LoopResult = (Vec<(f32, f32)>, u64, u64);

/// What one step of a closed loop came to.
pub struct Outcome {
    /// Whether the step was an op (a forecast answered, a cycle run);
    /// writes are load.
    pub is_read: bool,
    pub ok: bool,
    pub latency: Duration,
    pub end: Instant,
}

/// Raw results of the measured windows.
pub struct Windows {
    /// Per window: latencies (ms) of the ops that finished in it.
    pub latencies_ms: Vec<Vec<f64>>,
    /// Per window: ops completed per second. The window's edges are
    /// snapped to the last completion at or before each nominal
    /// boundary, so a window of thirty long ops is not off by up to one
    /// op in thirty.
    pub ops_per_s: Vec<f64>,
    /// Per window: process CPU seconds used.
    pub cpu_s: Vec<f64>,
    pub window_s: f64,
    /// Steps taken inside the windows, reads and writes.
    pub attempted: u64,
    /// Steps that failed.
    pub failed: u64,
}

/// Runs `n_windows` back-to-back windows of `window_s` seconds: every
/// worker calls `step` in a closed loop on its own thread until the last
/// window closes, while this thread reads the process CPU clock at the
/// window boundaries.
pub fn run_windows<W: Send>(
    workers: &mut [W],
    step: impl Fn(&mut W) -> Outcome + Sync,
    n_windows: usize,
    window_s: f64,
) -> Windows {
    let total = Duration::from_secs_f64(window_s * n_windows as f64);
    let barrier = Barrier::new(workers.len() + 1);
    let mut cpu_marks = Vec::with_capacity(n_windows + 1);
    let per_worker: Vec<LoopResult> = std::thread::scope(|s| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let (barrier, step) = (&barrier, &step);
                s.spawn(move || {
                    // (end offset s, latency ms) per op. Written once up
                    // front, so the pages are resident whatever the rate:
                    // peak memory must not grow with the program's speed.
                    let mut samples: Vec<(f32, f32)> = vec![(1.0, 1.0); SAMPLE_CAPACITY];
                    samples.clear();
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    barrier.wait();
                    let t0 = Instant::now();
                    let deadline = t0 + total;
                    while Instant::now() < deadline {
                        let out = step(w);
                        attempted += 1;
                        if !out.ok {
                            failed += 1;
                        } else if out.is_read {
                            samples.push((
                                (out.end - t0).as_secs_f32(),
                                out.latency.as_secs_f32() * 1e3,
                            ));
                        }
                    }
                    (samples, attempted, failed)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        cpu_marks.push(stats::cpu_seconds());
        for k in 1..=n_windows {
            let mark = start + Duration::from_secs_f64(window_s * k as f64);
            std::thread::sleep(mark.saturating_duration_since(Instant::now()));
            cpu_marks.push(stats::cpu_seconds());
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("loop thread"))
            .collect()
    });
    let mut latencies_ms = vec![Vec::new(); n_windows];
    // last completion inside each window, seconds from the start
    let mut last_end = vec![0.0f64; n_windows];
    let (mut attempted, mut failed) = (0, 0);
    for (samples, a, f) in per_worker {
        attempted += a;
        failed += f;
        for (end_s, lat_ms) in samples {
            // an op that finished after the last window closed counts nowhere
            let end_s = f64::from(end_s);
            let k = (end_s / window_s) as usize;
            if k < n_windows {
                latencies_ms[k].push(f64::from(lat_ms));
                last_end[k] = last_end[k].max(end_s);
            }
        }
    }
    let mut edge = 0.0;
    let ops_per_s = (0..n_windows)
        .map(|k| {
            let span = last_end[k] - edge;
            edge = last_end[k].max(edge);
            if span > 0.0 {
                latencies_ms[k].len() as f64 / span
            } else {
                0.0
            }
        })
        .collect();
    let cpu_s = cpu_marks.windows(2).map(|m| m[1] - m[0]).collect();
    Windows {
        latencies_ms,
        ops_per_s,
        cpu_s,
        window_s,
        attempted,
        failed,
    }
}
