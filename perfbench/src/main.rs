//! Runs one workload of the benchmark and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <synth_mix|verify_deep|verify_wide> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). Human-readable detail goes to
//! standard error; a traced run also writes its spans to
//! `perfbench/out/<workload>-seed<N>.spans.json`.

use polis_perfbench::{end_to_end, per_layer, result_json, run, span, Config, Scale, Workload};
use std::process::ExitCode;

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::SynthMix,
        seed: polis_perfbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        min_rounds: 1,
        scale: Scale::full(),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a number of seconds"))?
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <synth_mix|verify_deep|verify_wide> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let r = run(&cfg);
    eprintln!(
        "{} seed {}: {} items per pass, {} untraced and {} traced passes",
        cfg.workload.name(),
        cfg.seed,
        r.items,
        r.untraced.len(),
        r.traced.len()
    );
    let walls: Vec<String> = r
        .untraced
        .iter()
        .map(|p| format!("{:.4}", p.wall))
        .collect();
    eprintln!("untraced pass wall seconds: {}", walls.join(" "));
    for f in r.failures.iter().take(20) {
        eprintln!("FAILED {f}");
    }
    let metrics = if cfg.trace {
        for i in &r.traced[0].items {
            eprintln!(
                "item {:<28} {:>9.3} ms  code {:>7} B  wcet {:>8}  ram {:>5} B  peak live {:>8}",
                i.label,
                i.wall * 1e3,
                i.code_bytes,
                i.wcet_cycles,
                i.ram_bytes,
                i.peak_live_nodes
            );
        }
        let spans: Vec<Vec<span::Span>> = r.traced.iter().map(|p| p.spans.clone()).collect();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/{}-seed{}.spans.json", cfg.workload.name(), cfg.seed);
        if let Err(e) =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, span::to_json(&spans)))
        {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
        per_layer(&r)
    } else {
        end_to_end(&r)
    };
    for m in &metrics {
        eprintln!("{:<34} {:>18} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&r, &metrics));
    if r.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
