//! The kernel scenario suite ([`scenarios`]) shared by the two
//! perf-trajectory binaries: `bench_kernel` records `BENCH_kernel.json`,
//! `bench_guard` gates a fresh measurement against it (and against
//! `BENCH_overhead.json`). Serving performance is not measured here —
//! `BENCHMARK.json` and the standalone `benchmark/` package do that.

#![forbid(unsafe_code)]

pub mod scenarios;
