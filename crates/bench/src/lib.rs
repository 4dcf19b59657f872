//! Shared helpers for the experiment harnesses (`src/bin/*.rs`) and the
//! self-contained micro-benchmarks (`benches/`, timed by [`bench`]).
//! Each harness binary regenerates one table or narrated
//! experiment of the paper's Section V; see EXPERIMENTS.md for the
//! recorded outputs and the paper-vs-measured comparison.

use polis_rtos::Stimulus;

/// The "large simulation file" of Table III: a deterministic pseudo-random
/// dashboard sensor stream of `n` events. Sampling windows (`timebase`)
/// fire often, so a substantial share of the stream cascades through the
/// whole conversion chain — the internal-communication traffic whose cost
/// the single-FSM composition eliminates.
pub fn dashboard_stimulus(n: usize) -> Vec<Stimulus> {
    let mut out = Vec::with_capacity(n);
    let mut x: u64 = 0x2545f4914f6cdd1d;
    let mut t: u64 = 0;
    for _ in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        t += 400 + (x % 2_000);
        match x % 10 {
            0..=2 => out.push(Stimulus::pure(t, "wheel_pulse")),
            3..=5 => out.push(Stimulus::pure(t, "eng_pulse")),
            6 => out.push(Stimulus::valued(t, "fuel_sample", (x >> 8) as i64 % 256)),
            _ => out.push(Stimulus::pure(t, "timebase")),
        }
    }
    out
}

/// Relative error in percent, measured against `exact`.
pub fn pct_err(estimated: u64, exact: u64) -> f64 {
    if exact == 0 {
        return 0.0;
    }
    (estimated as f64 - exact as f64) / exact as f64 * 100.0
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// A minimal self-contained micro-benchmark harness (no external
/// dependencies, so benches build offline): measures the mean wall time of
/// `f` over an adaptively chosen iteration count and prints one line.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    use std::hint::black_box;
    use std::time::Instant;
    // Warm-up and calibration: aim for roughly 200 ms of total work.
    let start = Instant::now();
    black_box(f());
    let once = start.elapsed().max(std::time::Duration::from_nanos(50));
    let iters = (std::time::Duration::from_millis(200).as_nanos() / once.as_nanos())
        .clamp(1, 100_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed() / iters as u32;
    println!("{name:<40} {per_iter:>12.2?}/iter  ({iters} iters)");
}
