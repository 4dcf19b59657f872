//! `paper`: the paper's evaluation, one subcommand per job. `paper
//! <harness>` prints one table or experiment report, `paper check` reruns
//! every harness and compares its verdicts with
//! `scripts/harness_verdicts.txt`, and `paper kernel` / `paper verify` run
//! the benches behind `BENCH_bdd_kernel.json` / `BENCH_verify.json`. With
//! no arguments it prints the usage, rendered from [`FLAGS`].

use polis_bench::{check_verdicts, kernel, verify, BenchOptions, HARNESSES};
use std::process::ExitCode;

/// One flag: its name, the value it takes as shown in the usage text
/// (`None` for a switch), and the subcommands that read it (every other
/// subcommand rejects it).
#[rustfmt::skip]
const FLAGS: &[(&str, Option<&str>, &[&str])] = &[
    ("--smoke", None,         &["kernel", "verify"]),
    ("--check", None,         &["kernel", "verify"]),
    ("--gate",  Some("FILE"), &["verify"]),
    ("--out",   Some("FILE"), &["kernel", "verify"]),
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
        "kernel" => kernel::run(&opts)?,
        _ => verify::run(&opts)?,
    };
    for f in &failures {
        eprintln!("bench check FAILED: {f}");
    }
    if !failures.is_empty() {
        return Err(format!("{} bench checks failed", failures.len()));
    }
    if opts.check {
        println!("bench check OK");
    }
    Ok(())
}

/// The subcommand and its options. An unknown subcommand or flag, a flag
/// the subcommand does not read, and a value flag without a value are
/// errors.
fn parse(args: Vec<String>) -> Result<(&'static str, BenchOptions), String> {
    let mut args = args.into_iter();
    let name = args.next().ok_or("missing subcommand")?;
    let command = HARNESSES
        .iter()
        .map(|(harness, _)| *harness)
        .chain(["check", "kernel", "verify"])
        .find(|&c| c == name)
        .ok_or_else(|| format!("unknown subcommand `{name}`"))?;
    let mut opts = BenchOptions::default();
    while let Some(arg) = args.next() {
        let &(flag, shown, readers) = FLAGS
            .iter()
            .find(|f| f.0 == arg)
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        if !readers.contains(&command) {
            return Err(format!("`{command}` does not take `{flag}`"));
        }
        let value = match shown {
            Some(what) => Some(
                args.next()
                    .filter(|v| !v.starts_with('-'))
                    .ok_or_else(|| format!("`{flag}` takes a value: {what}"))?,
            ),
            None => None,
        };
        match flag {
            "--smoke" => opts.smoke = true,
            "--check" => opts.check = true,
            "--gate" => opts.gate = value,
            _ => opts.out = value,
        }
    }
    Ok((command, opts))
}

/// The usage text, rendered from [`HARNESSES`] and [`FLAGS`].
fn usage() -> String {
    let harnesses: Vec<&str> = HARNESSES.iter().map(|(name, _)| *name).collect();
    let mut text = format!("usage: paper <{}|check>", harnesses.join("|"));
    for command in ["kernel", "verify"] {
        text += &format!("\n       paper {command}");
        for (flag, shown, _) in FLAGS.iter().filter(|f| f.2.contains(&command)) {
            text += &format!(
                " [{flag}{}]",
                shown.map_or(String::new(), |v| format!(" {v}"))
            );
        }
    }
    text
}
