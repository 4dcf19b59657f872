//! `paper`: the paper's evaluation, one subcommand per job. `paper
//! <harness>` prints one table or experiment report, `paper check` reruns
//! every harness and compares its verdicts with
//! `scripts/harness_verdicts.txt`, and `paper verify` / `paper synth` run
//! the benches behind `BENCH_verify.json` / `BENCH_synth.json`. With no
//! arguments it prints the usage, rendered from [`FLAGS`].

use polis_bench::{check_verdicts, synth, verify, BenchOptions, HARNESSES};
use polis_core::args::{usage_line, Args, Flag};
use std::process::ExitCode;

/// Every flag of every subcommand: [`Args::parse`] checks command lines
/// against this table, and the usage text is rendered from it.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("--smoke", None,         &["verify"]),
    Flag("--gate",  Some("FILE"), &["verify", "synth"]),
    Flag("--out",   Some("FILE"), &["verify", "synth"]),
];

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("paper: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: Vec<String>) -> Result<(), String> {
    let (command, opts) = parse(args).map_err(|e| format!("{e}\n{}", usage()))?;
    if let Some((_, report)) = HARNESSES.iter().find(|(name, _)| *name == command) {
        println!("{}", report().join("\n"));
        return Ok(());
    }
    let failures = match command {
        "check" => {
            let n = check_verdicts()?;
            println!("all {n} harness verdicts match scripts/harness_verdicts.txt");
            return Ok(());
        }
        "synth" => synth::run(&opts)?,
        _ => verify::run(&opts)?,
    };
    for f in &failures {
        eprintln!("bench check FAILED: {f}");
    }
    if !failures.is_empty() {
        return Err(format!("{} bench checks failed", failures.len()));
    }
    println!("bench check OK");
    Ok(())
}

/// The subcommand and its options, checked by [`Args::parse`]; no
/// subcommand takes a positional argument.
fn parse(raw: Vec<String>) -> Result<(&'static str, BenchOptions), String> {
    let commands: Vec<&'static str> = HARNESSES
        .iter()
        .map(|(harness, _)| *harness)
        .chain(["check", "verify", "synth"])
        .collect();
    let args = Args::parse(raw, &commands, &[], FLAGS)?;
    let opts = BenchOptions {
        smoke: args.has("--smoke"),
        gate: args.value("--gate").map(str::to_owned),
        out: args.value("--out").map(str::to_owned),
    };
    Ok((args.command, opts))
}

/// The usage text, rendered from [`HARNESSES`] and [`FLAGS`].
fn usage() -> String {
    let harnesses: Vec<&str> = HARNESSES.iter().map(|(name, _)| *name).collect();
    let mut text = format!("usage: paper <{}|check>", harnesses.join("|"));
    for command in ["verify", "synth"] {
        text.push('\n');
        text.push_str(&usage_line(
            &format!("       paper {command}"),
            command,
            FLAGS,
        ));
    }
    text
}
