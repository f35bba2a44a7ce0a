//! The solve reads no clock and touches no atomic. Its three files — the
//! solver, the event kernel and the connectivity index — only count, in
//! plain integers, and callers observe those counts after a run returns.
//! That is what keeps a simulation deterministic and instrumentation off
//! its hot path, so it is checked on the source itself: a clock or an
//! atomic added to any of them fails here, whatever it costs.

const SOLVE_FILES: [(&str, &str); 3] = [
    ("model.rs", include_str!("../src/model.rs")),
    ("kernel.rs", include_str!("../src/kernel.rs")),
    ("connect.rs", include_str!("../src/connect.rs")),
];

/// `Instant` and `SystemTime` are clocks, `Atomic` prefixes every std
/// atomic type, and `telemetry` is the metrics crate.
const FORBIDDEN: [&str; 4] = ["Instant", "SystemTime", "Atomic", "telemetry"];

#[test]
fn the_solve_files_name_no_clock_atomic_or_metrics() {
    for (file, source) in SOLVE_FILES {
        for name in FORBIDDEN {
            let lines: Vec<usize> = source
                .lines()
                .enumerate()
                .filter(|(_, line)| line.contains(name))
                .map(|(i, _)| i + 1)
                .collect();
            assert!(lines.is_empty(), "{file} names `{name}` on lines {lines:?}");
        }
    }
}
