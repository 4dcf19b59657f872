//! The experiment harnesses and benches behind the `paper` bin.
//!
//! Each harness ([`HARNESSES`]) regenerates one table or narrated
//! experiment of the paper's Section V and returns its report; see
//! EXPERIMENTS.md for the recorded outputs and the paper-vs-measured
//! comparison. [`check_verdicts`] reruns all of them and compares their
//! shape-check verdicts with `scripts/harness_verdicts.txt`. [`verify`]
//! is the reachability bench behind `BENCH_verify.json`, and [`synth`]
//! writes the generated-code metrics of `BENCH_synth.json`; each gates a
//! run against its committed file.

mod ablation_buffering;
mod ablation_collapse;
mod falsepath;
mod granularity;
mod schedulability;
mod shock_absorber;
pub mod synth;
mod table1;
mod table2;
mod table3;
pub mod verify;

use polis_core::trace::Json;
use polis_rtos::Stimulus;

/// A paper harness: runs and returns its report, one printed line per item.
pub type Harness = fn() -> Vec<String>;

/// The paper harnesses and their subcommands, in `paper check` order.
pub const HARNESSES: [(&str, Harness); 9] = [
    ("table1", table1::report),
    ("table2", table2::report),
    ("table3", table3::report),
    ("granularity", granularity::report),
    ("schedulability", schedulability::report),
    ("shock_absorber", shock_absorber::report),
    ("ablation_buffering", ablation_buffering::report),
    ("ablation_collapse", ablation_collapse::report),
    ("falsepath", falsepath::report),
];

/// The committed verdict lines [`check_verdicts`] compares with.
const VERDICTS_FILE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../scripts/harness_verdicts.txt"
);

/// Runs every harness and compares its shape-check verdicts, as
/// `<harness>: <line>` for each report line that says HOLDS or VIOLATED,
/// with `scripts/harness_verdicts.txt` (lines starting with `#` are
/// ignored). Returns the number of verdicts checked, or an error naming
/// every verdict that differs.
pub fn check_verdicts() -> Result<usize, String> {
    let expected = std::fs::read_to_string(VERDICTS_FILE)
        .map_err(|e| format!("cannot read {VERDICTS_FILE}: {e}"))?;
    let want: Vec<&str> = expected.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<String> = HARNESSES
        .iter()
        .flat_map(|(name, report)| {
            report()
                .iter()
                .flat_map(|item| item.lines())
                .filter(|l| l.contains("HOLDS") || l.contains("VIOLATED"))
                .map(|l| format!("{name}: {}", l.trim_start()))
                .collect::<Vec<_>>()
        })
        .collect();
    let diffs: Vec<String> = (0..want.len().max(got.len()))
        .map(|i| (i + 1, want.get(i).copied(), got.get(i).map(String::as_str)))
        .filter(|(_, w, g)| w != g)
        .map(|(n, w, g)| {
            let (w, g) = (w.unwrap_or("<none>"), g.unwrap_or("<none>"));
            format!("verdict {n}: expected `{w}`, got `{g}`")
        })
        .collect();
    if diffs.is_empty() {
        Ok(got.len())
    } else {
        let diffs = diffs.join("\n  ");
        Err(format!(
            "harness verdicts differ from {VERDICTS_FILE}:\n  {diffs}"
        ))
    }
}

/// The options `paper verify` and `paper synth` take.
#[derive(Debug, Default)]
pub struct BenchOptions {
    /// Stop the relay chains at n = 12, so `paper verify` finishes in
    /// well under a second: the size the tier-1 test runs.
    pub smoke: bool,
    /// Where to write the JSON results (default: the committed file).
    pub out: Option<String>,
    /// A committed results file to gate this run against (`verify` and
    /// `synth`).
    pub gate: Option<String>,
}

/// The word a shape check prints.
fn verdict(ok: bool) -> &'static str {
    if ok {
        "HOLDS"
    } else {
        "VIOLATED"
    }
}

/// The indented shape-check lines of a report, one per `(label, holds)`.
fn checks<const N: usize>(checks: [(&str, bool); N]) -> [String; N] {
    checks.map(|(label, ok)| format!("  {label}: {}", verdict(ok)))
}

/// The "large simulation file" of Table III: a deterministic pseudo-random
/// dashboard sensor stream of `n` events. Sampling windows (`timebase`)
/// fire often, so a substantial share of the stream cascades through the
/// whole conversion chain — the internal-communication traffic whose cost
/// the single-FSM composition eliminates.
fn dashboard_stimulus(n: usize) -> Vec<Stimulus> {
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
fn pct_err(estimated: u64, exact: u64) -> f64 {
    if exact == 0 {
        return 0.0;
    }
    (estimated as f64 - exact as f64) / exact as f64 * 100.0
}

/// Writes a bench's results to `--out` (default `default_out`) and says so.
fn write_json(opts: &BenchOptions, default_out: &str, json: &Json) -> Result<(), String> {
    let path = opts.out.as_deref().unwrap_or(default_out);
    std::fs::write(path, format!("{json}\n")).map_err(|e| format!("cannot write {path}: {e}"))?;
    println!("wrote {path}");
    Ok(())
}

/// The case of `name` in the `cases` array.
fn named<'a>(cases: &'a Json, name: Option<&Json>) -> Option<&'a Json> {
    cases.as_array()?.iter().find(|c| c.get("name") == name)
}
