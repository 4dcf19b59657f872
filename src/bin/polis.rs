//! The `polis` command-line tool: synthesize, estimate, simulate, verify,
//! and inspect CFSM networks written in the textual specification
//! language. Run `polis help` for the flags each command reads; they all
//! come from one table, [`FLAGS`].
//!
//! Stimulus files contain one event per line: `<time> <signal> [value]`;
//! `#` starts a comment.

use polis::cfsm::Network;
use polis::codegen::emit_network_header;
use polis::core::args::{usage_line, Args, Flag};
use polis::core::{
    synthesize_network_staged, verify_staged, ImplStyle, MetricValue, StageRecord, SynthCtx,
    SynthError, SynthTrace, SynthesisOptions,
};
use polis::lang::{emit_spec_source, parse_spec, Property, Spec};
use polis::rtos::{RtosConfig, SchedulingPolicy, Simulator, Stimulus};
use polis::sgraph::BufferPolicy;
use polis::verify::VerifyOptions;
use polis::vm::Profile;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("polis: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The subcommands, in usage order. Each takes one `<spec>` argument.
const COMMANDS: [&str; 7] = ["synth", "estimate", "sim", "verify", "prop", "dot", "fmt"];

/// Every flag of every command: [`Args::parse`] checks command lines
/// against this table, and the usage text is rendered from it.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag("-o",                  Some("DIR"), &["synth"]),
    Flag("--style",             Some("dg|chain|2lvl"), &["synth", "estimate", "dot"]),
    Flag("--target",            Some("mcu8|risc32"), &["synth", "estimate", "sim"]),
    Flag("--scheme",            Some("natural|after-inputs|after-support"), &["synth", "estimate", "dot"]),
    Flag("--buffering",         Some("all|minimal"), &["synth", "estimate"]),
    Flag("--collapse",          None, &["synth", "estimate", "dot"]),
    Flag("--jobs",              Some("N"), &["synth"]),
    Flag("--trace",             Some("FILE"), &["synth", "verify", "prop"]),
    Flag("--verify",            None, &["synth"]),
    Flag("--refine",            None, &["synth"]),
    Flag("--props",             None, &["verify"]),
    Flag("--node-budget",       Some("N"), &["synth", "verify", "prop"]),
    Flag("--reorder-threshold", Some("N|off"), &["synth", "verify", "prop"]),
    Flag("--max-rings",         Some("N"), &["verify", "prop"]),
    Flag("--stim",              Some("FILE"), &["sim"]),
    Flag("--policy",            Some("rr|prio"), &["sim"]),
    Flag("--module",            Some("NAME"), &["dot"]),
];

/// The usage text, one line group per command, rendered from [`FLAGS`].
fn usage() -> String {
    let mut out = String::from("usage:");
    for command in COMMANDS {
        out.push('\n');
        out.push_str(&usage_line(
            &format!("  polis {command} <spec>"),
            command,
            FLAGS,
        ));
    }
    out
}

fn run(raw: Vec<String>) -> Result<(), String> {
    if matches!(raw.first().map(String::as_str), Some("help" | "--help")) {
        println!("{}", usage());
        return Ok(());
    }
    let cli =
        Args::parse(raw, &COMMANDS, &["<spec>"], FLAGS).map_err(|e| format!("{e}\n{}", usage()))?;
    let path = &cli.positional[0];
    let (spec, trace) = load(path)?;
    let opts = Options::read(&cli, &spec.network)?;
    let net = &spec.network;
    match cli.command {
        "synth" => synth(net, &opts, trace),
        "estimate" => estimate_cmd(net, &opts),
        "sim" => sim(net, &opts),
        "verify" => verify_cmd(net, &spec.properties, &opts, trace),
        "prop" => prop_cmd(path, &spec, &opts, trace),
        "dot" => dot(net, &opts),
        "fmt" => {
            print!("{}", emit_spec_source(net, &spec.properties));
            Ok(())
        }
        other => unreachable!("`{other}` is not in COMMANDS"),
    }
}

/// Reads and parses the spec at `path`, recording the parse as the first
/// stage of the run's trace.
fn load(path: &str) -> Result<(Spec, SynthTrace), String> {
    let start = std::time::Instant::now();
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = PathBuf::from(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "network".to_owned());
    let spec = parse_spec(&name, &src).map_err(|e| format!("{path}:{e}"))?;
    let mut trace = SynthTrace::new();
    trace.push(StageRecord {
        stage: "parse",
        machine: None,
        wall: start.elapsed(),
        counters: vec![(
            "modules".to_owned(),
            MetricValue::Int(spec.network.cfsms().len() as u64),
        )],
    });
    Ok((spec, trace))
}

/// What the flags configure. Every flag is read here and nowhere else;
/// flags a command does not read were rejected by [`Args::parse`] and
/// leave their defaults.
struct Options {
    synth: SynthesisOptions,
    rtos: RtosConfig,
    jobs: usize,
    out_dir: PathBuf,
    trace: Option<String>,
    stim: Option<String>,
    module: Option<String>,
    props: bool,
}

impl Options {
    fn read(cli: &Args, net: &Network) -> Result<Options, String> {
        let positive = |flag: &str| -> Result<Option<usize>, String> {
            cli.value(flag)
                .map(|raw| {
                    raw.parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| format!("{flag} takes a positive integer, got `{raw}`"))
                })
                .transpose()
        };
        let mut verify = VerifyOptions::default();
        if let Some(budget) = positive("--node-budget")? {
            verify.node_budget = budget;
        }
        if let Some(raw) = cli.value("--reorder-threshold") {
            verify.reorder_threshold = if raw == "off" {
                usize::MAX
            } else {
                raw.parse::<usize>()
                    .ok()
                    .filter(|&t| t >= 1)
                    .ok_or_else(|| {
                        format!(
                            "--reorder-threshold takes a positive integer or `off`, got `{raw}`"
                        )
                    })?
            };
        }
        if let Some(cap) = positive("--max-rings")? {
            verify.max_trace_rings = cap;
        }

        let mut synth = SynthesisOptions::default();
        if let Some(style) = cli.value("--style") {
            synth.style = match style {
                "dg" | "decision-graph" => ImplStyle::DecisionGraph,
                "chain" | "ite" => ImplStyle::IteChain,
                "2lvl" | "two-level" => ImplStyle::TwoLevel,
                other => return Err(format!("unknown style `{other}`")),
            };
        }
        if let Some(scheme) = cli.value("--scheme") {
            synth.scheme = match scheme {
                "natural" => polis::cfsm::OrderScheme::Natural,
                "after-inputs" => polis::cfsm::OrderScheme::OutputsAfterAllInputs,
                "after-support" => polis::cfsm::OrderScheme::OutputsAfterSupport,
                other => return Err(format!("unknown scheme `{other}`")),
            };
        }
        if let Some(target) = cli.value("--target") {
            synth.profile = match target {
                "mcu8" => Profile::Mcu8,
                "risc32" => Profile::Risc32,
                other => return Err(format!("unknown target `{other}`")),
            };
        }
        if let Some(buffering) = cli.value("--buffering") {
            synth.buffering = match buffering {
                "all" => BufferPolicy::All,
                "minimal" | "wbr" => BufferPolicy::Minimal,
                other => return Err(format!("unknown buffering policy `{other}`")),
            };
        }
        synth.collapse = cli.has("--collapse");
        synth.verify_refine_estimates = cli.has("--refine");
        let verifies = matches!(cli.command, "verify" | "prop");
        synth.verify = (verifies || cli.has("--verify") || cli.has("--refine")).then_some(verify);

        let mut rtos = RtosConfig {
            profile: synth.profile,
            ..RtosConfig::default()
        };
        if let Some(policy) = cli.value("--policy") {
            rtos.policy = match policy {
                "rr" => SchedulingPolicy::RoundRobin,
                "prio" => SchedulingPolicy::StaticPriority {
                    priorities: (0..net.cfsms().len() as u32).collect(),
                },
                other => return Err(format!("unknown policy `{other}`")),
            };
        }

        Ok(Options {
            synth,
            rtos,
            jobs: positive("--jobs")?.unwrap_or(1),
            out_dir: PathBuf::from(cli.value("-o").unwrap_or(".")),
            trace: cli.value("--trace").map(str::to_owned),
            stim: cli.value("--stim").map(str::to_owned),
            module: cli.value("--module").map(str::to_owned),
            props: cli.has("--props"),
        })
    }
}

/// Writes `trace` to the `--trace` file, if one was given, and returns
/// its path.
fn write_trace<'o>(opts: &'o Options, trace: &SynthTrace) -> Result<Option<&'o str>, String> {
    let Some(path) = opts.trace.as_deref() else {
        return Ok(None);
    };
    std::fs::write(path, trace.to_json()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    Ok(Some(path))
}

/// Flushes the trace recorded up to an aborted stage, so an interrupted
/// run still leaves its instrumentation, and reports the abort.
fn abort(opts: &Options, trace: &SynthTrace, error: SynthError) -> String {
    match write_trace(opts, trace) {
        Ok(Some(path)) => eprintln!("polis: wrote partial trace to {path}"),
        Ok(None) => {}
        Err(e) => return e,
    }
    error.to_string()
}

fn cost_table(net: &Network, result: &polis::core::NetworkSynthesis) {
    println!(
        "{:<14} {:>8} {:>8} {:>10} {:>10}",
        "module", "ROM[B]", "RAM[B]", "min[cyc]", "max[cyc]"
    );
    for (m, r) in net.cfsms().iter().zip(&result.machines) {
        println!(
            "{:<14} {:>8} {:>8} {:>10} {:>10}",
            m.name(),
            r.measured.size_bytes,
            r.measured.ram_bytes,
            r.measured.min_cycles,
            r.measured.max_cycles
        );
    }
    println!(
        "total ROM {} B (incl. RTOS allowance), RAM {} B, synthesis {:?}",
        result.total_rom, result.total_ram, result.synthesis_time
    );
}

fn synth(net: &Network, opts: &Options, mut trace: SynthTrace) -> Result<(), String> {
    let result =
        match synthesize_network_staged(net, &opts.synth, &RtosConfig::default(), opts.jobs) {
            Ok((result, synth_trace)) => {
                trace.extend(synth_trace);
                result
            }
            Err(failure) => {
                trace.extend(failure.trace);
                return Err(abort(opts, &trace, failure.error));
            }
        };

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", opts.out_dir.display()))?;
    let write = |name: &str, content: &str| -> Result<(), String> {
        let p = opts.out_dir.join(name);
        std::fs::write(&p, content).map_err(|e| format!("cannot write `{}`: {e}", p.display()))?;
        println!("wrote {}", p.display());
        Ok(())
    };
    write("polis_rtos.h", &emit_network_header(net))?;
    write("rtos.c", &result.rtos_c)?;
    for (m, r) in net.cfsms().iter().zip(&result.machines) {
        write(&format!("{}.c", m.name()), &r.c_code)?;
    }
    if let Some(path) = write_trace(opts, &trace)? {
        println!("wrote {path}");
    }
    println!();
    cost_table(net, &result);
    if let Some(report) = &result.verify {
        println!();
        print!("{}", report.render());
        if opts.synth.verify_refine_estimates {
            for (m, r) in net.cfsms().iter().zip(&result.machines) {
                if let Some(reach) = r.max_cycles_reach_aware {
                    println!(
                        "{}: max cycles {} (reach-aware {})",
                        m.name(),
                        r.estimate.max_cycles,
                        reach
                    );
                }
            }
        }
    }
    Ok(())
}

/// Runs the verify stage alone (no calibration) and writes the trace:
/// the parse record, then the `verify` record.
fn verified(
    net: &Network,
    props: Option<&[Property]>,
    opts: &Options,
    mut trace: SynthTrace,
) -> Result<polis::core::Verified, String> {
    let mut ctx = SynthCtx::new(&opts.synth);
    let result = verify_staged(&mut ctx, net, props);
    trace.extend(ctx.into_trace());
    let v = result.map_err(|error| abort(opts, &trace, error))?;
    if let Some(path) = write_trace(opts, &trace)? {
        println!("wrote {path}");
    }
    Ok(v)
}

fn verify_cmd(
    net: &Network,
    props: &[Property],
    opts: &Options,
    trace: SynthTrace,
) -> Result<(), String> {
    let v = verified(net, opts.props.then_some(props), opts, trace)?;
    let report = &v.report;
    print!("{}", report.render());
    if let Some(trace) = report.deadlock.as_ref().and_then(|w| w.trace.as_ref()) {
        println!("deadlock trace ({} steps):", trace.len());
        for line in trace.render(net).lines() {
            println!("  {line}");
        }
    }
    println!(
        "verification took {:?} ({} iterations)",
        report.stats.wall, report.stats.iterations
    );
    if let Some(props) = &v.props {
        print!("{}", props.render(net));
    }
    Ok(())
}

fn prop_cmd(path: &str, spec: &Spec, opts: &Options, trace: SynthTrace) -> Result<(), String> {
    if spec.properties.is_empty() {
        return Err(format!("`{path}` declares no properties block"));
    }
    let net = &spec.network;
    let v = verified(net, Some(&spec.properties), opts, trace)?;
    let props = v.props.expect("a suite was checked");
    print!("{}", props.render(net));
    println!(
        "checked {} properties in {:?} ({} reachable-set iterations, {} rings, {} preimage nodes)",
        props.checked,
        v.report.stats.wall + props.wall,
        v.report.stats.iterations,
        props.rings_stored,
        props.preimage_nodes
    );
    Ok(())
}

fn estimate_cmd(net: &Network, opts: &Options) -> Result<(), String> {
    let (result, _) = synthesize_network_staged(net, &opts.synth, &RtosConfig::default(), 1)
        .map_err(|failure| failure.error.to_string())?;
    println!(
        "{:<14} {:>8} {:>8} {:>7} | {:>9} {:>9} {:>7}",
        "module", "est[B]", "meas[B]", "err%", "est[cyc]", "meas[cyc]", "err%"
    );
    for (m, r) in net.cfsms().iter().zip(&result.machines) {
        let err = |a: u64, b: u64| (a as f64 - b as f64) / (b as f64).max(1.0) * 100.0;
        println!(
            "{:<14} {:>8} {:>8} {:>+6.1}% | {:>9} {:>9} {:>+6.1}%",
            m.name(),
            r.estimate.size_bytes,
            r.measured.size_bytes,
            err(r.estimate.size_bytes, r.measured.size_bytes),
            r.estimate.max_cycles,
            r.measured.max_cycles,
            err(r.estimate.max_cycles, r.measured.max_cycles),
        );
    }
    Ok(())
}

fn parse_stimuli(path: &str) -> Result<Vec<Stimulus>, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut out = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| format!("{path}:{}: {what}", lineno + 1);
        let time: u64 = parts
            .next()
            .ok_or_else(|| err("missing time"))?
            .parse()
            .map_err(|_| err("bad time"))?;
        let signal = parts.next().ok_or_else(|| err("missing signal"))?;
        match parts.next() {
            Some(v) => out.push(Stimulus::valued(
                time,
                signal,
                v.parse().map_err(|_| err("bad value"))?,
            )),
            None => out.push(Stimulus::pure(time, signal)),
        }
    }
    Ok(out)
}

fn sim(net: &Network, opts: &Options) -> Result<(), String> {
    let stim_path = opts.stim.as_deref().ok_or("sim requires --stim <file>")?;
    let stim = parse_stimuli(stim_path)?;
    let mut sim = Simulator::build(net, opts.rtos.clone());
    sim.run(&stim);
    for t in sim.trace() {
        match t.value {
            Some(v) => println!("{:>10}  {:<16} = {:<6} (by {})", t.time, t.signal, v, t.by),
            None => println!("{:>10}  {:<16}          (by {})", t.time, t.signal, t.by),
        }
    }
    let s = sim.stats();
    println!(
        "-- {} wall cycles, {} busy ({} in RTOS); reactions {:?}, overwritten {:?}",
        s.total_cycles, s.busy_cycles, s.rtos_cycles, s.reactions, s.overwritten
    );
    Ok(())
}

fn dot(net: &Network, opts: &Options) -> Result<(), String> {
    for m in net.cfsms() {
        if opts.module.as_deref().is_some_and(|only| m.name() != only) {
            continue;
        }
        let r = polis::core::synthesize(m, &opts.synth);
        println!("{}", r.graph.to_dot());
    }
    Ok(())
}
