//! Shared fixtures for the Criterion benches and the perf-trajectory
//! binaries. See the individual bench targets: `pnfs_latency` (the
//! paper's < 0.1 s claim), `kernel_scaling`, `routing_ablation` (flat vs
//! hierarchical), `maxmin`, `rrd_fetch`, and `figures` (scaled-down
//! regenerations of figures 3–11); and [`scenarios`], the kernel
//! scenario suite shared by the `bench_kernel` trajectory recorder and
//! the `bench_guard` regression gate.

pub mod scenarios;
