//! End-to-end tests of the `polis` command-line tool.

use polis::core::trace::Json;
use std::path::Path;
use std::process::Command;

const SPEC: &str = r#"
module pinger {
    input go;
    output ping;
    state s;
    from s to s when go do { emit ping; }
}
module ponger {
    input ping;
    output pong;
    state s;
    from s to s when ping do { emit pong; }
}
"#;

const PROPS: &str = r#"
properties {
    assert reachable ponger@s;
    assert never pinger.go && ponger.ping;
}
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_polis"))
}

fn write(dir: &Path, name: &str, content: &str) -> String {
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p.to_string_lossy().into_owned()
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("polis_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn synth_writes_c_files_and_cost_table() {
    let dir = tmpdir("synth");
    let spec = write(&dir, "pp.pol", SPEC);
    let out = bin()
        .args(["synth", &spec, "-o"])
        .arg(dir.join("gen"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("pinger"));
    assert!(stdout.contains("total ROM"));
    for f in ["polis_rtos.h", "rtos.c", "pinger.c", "ponger.c"] {
        assert!(dir.join("gen").join(f).exists(), "missing {f}");
    }
    let c = std::fs::read_to_string(dir.join("gen/pinger.c")).unwrap();
    assert!(c.contains("void pinger_react"));
}

#[test]
fn estimate_prints_error_columns() {
    let dir = tmpdir("est");
    let spec = write(&dir, "pp.pol", SPEC);
    let out = bin().args(["estimate", &spec]).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("err%"), "{stdout}");
    assert!(stdout.contains("pinger"));
}

#[test]
fn sim_runs_a_stimulus_file() {
    let dir = tmpdir("sim");
    let spec = write(&dir, "pp.pol", SPEC);
    let stim = write(&dir, "stim.txt", "# demo\n0 go\n1000 go\n");
    let out = bin()
        .args(["sim", &spec, "--stim", &stim])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("ping ").count(), 2, "{stdout}");
    assert_eq!(stdout.matches("pong ").count(), 2, "{stdout}");
    assert!(stdout.contains("busy"));
}

#[test]
fn verify_reports_reachability_verdicts() {
    let dir = tmpdir("verify");
    let spec = write(&dir, "pp.pol", SPEC);
    let out = bin().args(["verify", &spec]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fixpoint:"), "{stdout}");
    assert!(stdout.contains("reachable states"), "{stdout}");
    // The environment can always redeliver `go` before pinger reacts.
    assert!(stdout.contains("env -> pinger.go: POSSIBLE"), "{stdout}");
    assert!(stdout.contains("dead transitions: none"), "{stdout}");

    // An impossibly small node budget aborts with a structured message.
    let out = bin()
        .args(["verify", &spec, "--node-budget", "2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("node budget exceeded"), "{stderr}");

    let bad = bin()
        .args(["verify", &spec, "--node-budget", "zero"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn verify_props_appends_verdicts_and_keeps_default_output_identical() {
    let dir = tmpdir("props");
    let plain = write(&dir, "pp.pol", SPEC);
    let sub = dir.join("suite");
    std::fs::create_dir_all(&sub).unwrap();
    let with_props = write(&sub, "pp.pol", &format!("{SPEC}\n{PROPS}"));

    // A properties block does not disturb the default verify output.
    let base = bin().args(["verify", &plain]).output().unwrap();
    let ignored = bin().args(["verify", &with_props]).output().unwrap();
    assert!(base.status.success() && ignored.status.success());
    assert_eq!(
        strip_wall(&String::from_utf8_lossy(&base.stdout)),
        strip_wall(&String::from_utf8_lossy(&ignored.stdout)),
        "properties changed the default verify output"
    );

    let out = bin()
        .args(["verify", &with_props, "--props"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The plain report still leads, verbatim.
    assert!(stdout.contains("fixpoint:"), "{stdout}");
    assert!(stdout.contains("env -> pinger.go: POSSIBLE"), "{stdout}");
    assert!(
        stdout.contains("properties: 2 checked, 1 violated"),
        "{stdout}"
    );
    assert!(
        stdout.contains("assert reachable ponger@s: holds"),
        "{stdout}"
    );
    assert!(
        stdout.contains("assert never (pinger.go && ponger.ping): VIOLATED"),
        "{stdout}"
    );
    assert!(stdout.contains("counterexample ("), "{stdout}");
    assert!(stdout.contains("deliver go"), "{stdout}");
}

fn strip_wall(out: &str) -> String {
    out.lines()
        .filter(|l| !l.starts_with("verification took"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn verify_props_prints_traces_and_requires_a_suite() {
    let dir = tmpdir("prop");
    let spec = write(&dir, "ppp.pol", &format!("{SPEC}\n{PROPS}"));
    let out = bin().args(["verify", &spec, "--props"]).output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("properties: 2 checked, 1 violated"),
        "{stdout}"
    );
    assert!(stdout.contains("react pinger #0 (s -> s)"), "{stdout}");
    assert!(stdout.contains("checked 2 properties in"), "{stdout}");

    // Without a properties block `--props` refuses.
    let bare = write(&dir, "pp.pol", SPEC);
    let out = bin().args(["verify", &bare, "--props"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("no properties block"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Unknown names in a property are positioned diagnostics.
    let bad = write(
        &dir,
        "bad.pol",
        &format!("{SPEC}\nproperties {{\n    assert never pinger@missing;\n}}\n"),
    );
    let out = bin().args(["verify", &bad, "--props"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("has no state `missing`"), "{stderr}");

    // `verify --props` is the one property command.
    let out = bin().args(["prop", &spec]).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn synth_verify_flag_appends_report_and_keeps_output_identical() {
    let dir = tmpdir("synth_verify");
    let spec = write(&dir, "pp.pol", SPEC);
    let run = |extra: &[&str], sub: &str| -> (std::path::PathBuf, String) {
        let gen = dir.join(sub);
        std::fs::create_dir_all(&gen).unwrap();
        let out = bin()
            .args(["synth", &spec, "-o"])
            .arg(&gen)
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (gen, String::from_utf8_lossy(&out.stdout).into_owned())
    };
    let (plain_dir, plain_out) = run(&[], "plain");
    let (verified_dir, verified_out) = run(&["--verify"], "verified");
    assert!(!plain_out.contains("fixpoint:"));
    assert!(verified_out.contains("fixpoint:"), "{verified_out}");
    assert!(verified_out.contains("lost events:"), "{verified_out}");
    // Verification is post-codegen: generated C is byte-identical.
    for f in ["rtos.c", "pinger.c", "ponger.c", "polis_rtos.h"] {
        let a = std::fs::read(plain_dir.join(f)).unwrap();
        let b = std::fs::read(verified_dir.join(f)).unwrap();
        assert_eq!(a, b, "{f} differs with --verify");
    }
}

#[test]
fn dot_emits_graphviz_for_selected_module() {
    let dir = tmpdir("dot");
    let spec = write(&dir, "pp.pol", SPEC);
    let out = bin()
        .args(["dot", &spec, "--module", "ponger"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digraph \"ponger\""));
    assert!(!stdout.contains("digraph \"pinger\""));
}

#[test]
fn fmt_normalizes_and_roundtrips() {
    let dir = tmpdir("fmt");
    let spec = write(&dir, "pp.pol", SPEC);
    let out = bin().args(["fmt", &spec]).output().unwrap();
    assert!(out.status.success());
    let formatted = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(formatted.contains("module pinger {"));
    // Formatting the formatter's output is a fixpoint.
    let spec2 = write(&dir, "pp2.pol", &formatted);
    let out2 = bin().args(["fmt", &spec2]).output().unwrap();
    assert!(out2.status.success());
    assert_eq!(String::from_utf8_lossy(&out2.stdout), formatted);

    // Property blocks are normalized and roundtrip too.
    let spec3 = write(&dir, "pp3.pol", &format!("{SPEC}\n{PROPS}"));
    let out3 = bin().args(["fmt", &spec3]).output().unwrap();
    assert!(out3.status.success());
    let formatted = String::from_utf8_lossy(&out3.stdout).into_owned();
    assert!(formatted.contains("properties {"), "{formatted}");
    assert!(
        formatted.contains("assert never (pinger.go && ponger.ping);"),
        "{formatted}"
    );
    let spec4 = write(&dir, "pp4.pol", &formatted);
    let out4 = bin().args(["fmt", &spec4]).output().unwrap();
    assert!(out4.status.success());
    assert_eq!(String::from_utf8_lossy(&out4.stdout), formatted);
}

#[test]
fn synth_jobs_is_deterministic_and_trace_is_written() {
    let dir = tmpdir("jobs");
    let spec = write(&dir, "pp.pol", SPEC);
    let run = |jobs: &str, sub: &str| -> std::path::PathBuf {
        let gen = dir.join(sub);
        let trace = gen.join("trace.json");
        std::fs::create_dir_all(&gen).unwrap();
        let out = bin()
            .args(["synth", &spec, "--jobs", jobs, "-o"])
            .arg(&gen)
            .arg("--trace")
            .arg(&trace)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        gen
    };
    let g1 = run("1", "gen1");
    let g4 = run("4", "gen4");
    // Byte-identical generated sources regardless of --jobs.
    for f in ["rtos.c", "pinger.c", "ponger.c", "polis_rtos.h"] {
        let a = std::fs::read(g1.join(f)).unwrap();
        let b = std::fs::read(g4.join(f)).unwrap();
        assert_eq!(a, b, "{f} differs between --jobs 1 and --jobs 4");
    }
    // The trace is JSON with the expected stages, parse first.
    let trace = std::fs::read_to_string(g1.join("trace.json")).unwrap();
    assert!(trace.starts_with('{'), "{trace}");
    for stage in [
        "parse", "chi", "sift", "sgraph", "compile", "emit_c", "estimate", "measure", "rtos",
    ] {
        assert!(
            trace.contains(&format!("\"stage\": \"{stage}\"")),
            "missing {stage}: {trace}"
        );
    }
    assert!(trace.contains("\"machine\": \"pinger\""));
    assert!(trace.contains("\"wall_us\":"));
    // The sift record counts adjacent swaps, the nodes they rebuilt and
    // the jumps back to a saved store: pinger's χ has 4 nodes, and one
    // sifting pass makes 2 swaps that rebuild 4 nodes, and 2 jumps.
    let at = trace
        .find("\"stage\": \"sift\",\n      \"machine\": \"pinger\"")
        .expect("a sift record for pinger");
    let sift = &trace[at..at + trace[at..].find("}").expect("closing brace")];
    assert!(sift.contains("\"swaps\": 2,"), "{sift}");
    assert!(sift.contains("\"swap_rewrites\": 4,"), "{sift}");
    assert!(sift.contains("\"restores\": 2,"), "{sift}");

    // A bad jobs value is rejected.
    let bad = bin()
        .args(["synth", &spec, "--jobs", "0"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

#[test]
fn errors_are_reported_with_positions() {
    let dir = tmpdir("err");
    let spec = write(&dir, "bad.pol", "module m {\n  input $;\n}");
    let out = bin().args(["synth", &spec]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2:"), "{stderr}");

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn style_and_target_flags_change_output() {
    let dir = tmpdir("style");
    let spec = write(&dir, "pp.pol", SPEC);
    let run = |extra: &[&str]| -> String {
        let out = bin()
            .args(["estimate", &spec])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let dg = run(&[]);
    let chain = run(&["--style", "chain"]);
    let risc = run(&["--target", "risc32"]);
    assert_ne!(dg, chain);
    assert_ne!(dg, risc);
    let bad = bin()
        .args(["estimate", &spec, "--style", "bogus"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
}

/// A machine with no transitions synthesizes to an empty reaction under
/// every style and target: BEGIN's only child is END.
#[test]
fn a_machine_without_transitions_has_an_empty_reaction() {
    let spec = "tests/specs/no_transitions.pol";
    for style in ["dg", "chain", "2lvl"] {
        for target in ["mcu8", "risc32"] {
            let what = format!("--style {style} --target {target}");
            let dir = tmpdir(&format!("no_transitions_{style}_{target}"));
            let flags = ["--style", style, "--target", target];
            let synth = bin()
                .args(["synth", spec, "-o", dir.to_str().unwrap()])
                .args(flags)
                .output()
                .unwrap();
            let stderr = String::from_utf8_lossy(&synth.stderr);
            assert!(synth.status.success(), "synth {what}: {stderr}");
            let c = std::fs::read_to_string(dir.join("a.c")).unwrap();
            let react = &c[c.find("_react(").expect("a react routine")..];
            assert_eq!(react.matches("return;").count(), 1, "{what}: {react}");
            assert!(!react.contains("if ("), "{what}: {react}");
            let estimate = bin().args(["estimate", spec]).args(flags).output().unwrap();
            let stdout = String::from_utf8_lossy(&estimate.stdout);
            let stderr = String::from_utf8_lossy(&estimate.stderr);
            assert!(estimate.status.success(), "estimate {what}: {stderr}");
            assert!(
                stdout.lines().any(|l| l.starts_with("a ")),
                "{what}: {stdout}"
            );
        }
    }
}

/// An initializer outside its variable's type is a spanned parse error on
/// every command that reads a spec, so the C and the model never start
/// from different values.
#[test]
fn out_of_range_initializers_are_spanned_errors() {
    let spec = "tests/specs/bad_init.pol";
    let want =
        "tests/specs/bad_init.pol:5:19: initial value 99 of `n` is outside u4's range 0..=15";
    for command in ["synth", "estimate", "sim", "verify", "dot", "fmt"] {
        let out = bin().args([command, spec]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains(want), "{command}: {stderr}");
    }
}

/// Two modules of one name are a spanned error at the second one.
#[test]
fn a_duplicate_module_is_a_spanned_error() {
    let spec = "tests/specs/duplicate_module.pol";
    let want = "tests/specs/duplicate_module.pol:7:1: duplicate machine name `a`";
    for command in ["synth", "estimate", "sim", "verify", "dot", "fmt"] {
        let out = bin().args([command, spec]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{command}: {stderr}");
        assert!(stderr.contains(want), "{command}: {stderr}");
    }
}

/// A module without control states is reported at the module, with a
/// position like every other spec error.
#[test]
fn a_module_without_states_is_a_spanned_error() {
    let dir = tmpdir("no_states");
    let spec = write(&dir, "m.pol", "module a { input x; }\n");
    let out = bin().args(["synth", &spec]).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("m.pol:1:1: machine has no control states"),
        "{stderr}"
    );
}

/// An action naming an undeclared output or state variable is a spanned
/// parse error on every command that reads a spec, never a panic.
#[test]
fn undeclared_action_targets_are_spanned_errors() {
    let dir = tmpdir("action_target");
    let simple = std::fs::read_to_string("examples/specs/simple.pol").unwrap();
    for (from, to, target, message) in [
        ("emit y;", "emit z;", "z;", "unknown output `z`"),
        (
            "do { a := 0;",
            "do { b := 0;",
            "b :=",
            "unknown state variable `b`",
        ),
    ] {
        assert!(simple.contains(from), "simple.pol has no `{from}`");
        let src = simple.replacen(from, to, 1);
        let spec = write(&dir, "bad.pol", &src);
        let at = src.find(to).unwrap() + to.find(target).unwrap();
        let line = src[..at].matches('\n').count() + 1;
        let col = at - src[..at].rfind('\n').map_or(0, |nl| nl + 1) + 1;
        let want = format!("{line}:{col}: {message}");
        // The spec fails to parse, so `synth` writes nothing.
        for command in ["verify", "synth", "fmt"] {
            let out = bin().args([command, &spec]).output().unwrap();
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{command} `{to}`: {stderr}");
            assert!(stderr.contains(&want), "{command} `{to}`: {stderr}");
            assert!(!stderr.contains("panicked"), "{command} `{to}`: {stderr}");
        }
    }
}

#[test]
fn unknown_flags_are_rejected_on_every_subcommand() {
    let dir = tmpdir("unknown_flag");
    let spec = write(&dir, "pp.pol", &format!("{SPEC}\n{PROPS}"));
    for command in ["synth", "estimate", "sim", "verify", "dot", "fmt"] {
        let out = bin().args([command, &spec, "--bogus"]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{command} accepted --bogus");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown flag `--bogus`"),
            "{command}: {stderr}"
        );
    }
}

#[test]
fn value_flags_need_a_value_and_commands_reject_flags_they_do_not_read() {
    let dir = tmpdir("flag_table");
    let spec = write(&dir, "pp.pol", SPEC);
    let trailing = bin()
        .args(["verify", &spec, "--node-budget"])
        .output()
        .unwrap();
    assert_eq!(trailing.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&trailing.stderr).contains("--node-budget"));

    for args in [
        ["verify", spec.as_str(), "--jobs", "2"].as_slice(),
        ["estimate", spec.as_str(), "--verify"].as_slice(),
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{args:?} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("does not take"), "{args:?}: {stderr}");
    }
}

#[test]
fn verify_trace_holds_parse_then_verify_stage() {
    let dir = tmpdir("verify_trace");
    let spec = write(&dir, "ppp.pol", &format!("{SPEC}\n{PROPS}"));
    let trace = dir.join("trace.json");
    let out = bin()
        .args(["verify", &spec, "--props", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&trace).unwrap();
    let parse = json.find("\"stage\": \"parse\"").expect("parse stage");
    let verify = json.find("\"stage\": \"verify\"").expect("verify stage");
    assert!(parse < verify, "{json}");
    for counter in [
        "iterations",
        "reached_states",
        "collections",
        "descent_nodes",
        "env_applications",
        "react_applications",
        "phase_image_ms",
        "phase_measure_ms",
        "properties_checked",
    ] {
        assert!(
            json[verify..].contains(&format!("\"{counter}\":")),
            "missing {counter}: {json}"
        );
    }
    // The image descent interleaves env images, products and union, so
    // they have no phases of their own.
    for gone in ["phase_env_ms", "phase_products_ms", "phase_union_ms"] {
        assert!(!json.contains(gone), "stale {gone}: {json}");
    }

    // A budget abort still flushes the partial trace, ending in the
    // aborted verify stage.
    let partial = dir.join("partial.json");
    let out = bin()
        .args(["verify", &spec, "--props", "--node-budget", "2", "--trace"])
        .arg(&partial)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("wrote partial trace"), "{stderr}");
    let json = std::fs::read_to_string(&partial).unwrap();
    assert!(json.contains("\"stage\": \"verify\""), "{json}");
}

/// The stages of the JSON trace at `path`, as (stage, machine) pairs,
/// with the parsed stage objects.
fn trace_stages(path: &Path) -> Vec<(String, Option<String>, Json)> {
    let text = std::fs::read_to_string(path).unwrap();
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
    let stages = json.get("stages").and_then(Json::as_array).expect("stages");
    stages
        .iter()
        .map(|s| {
            let field = |k| s.get(k).and_then(Json::as_str).map(str::to_owned);
            (
                field("stage").expect("stage name"),
                field("machine"),
                s.clone(),
            )
        })
        .collect()
}

#[test]
fn estimate_trace_holds_parse_then_the_synthesis_stages() {
    let dir = tmpdir("estimate_trace");
    let spec = write(&dir, "pp.pol", SPEC);
    let trace = dir.join("trace.json");
    let out = bin()
        .args(["estimate", &spec, "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("err%"));
    let stages = trace_stages(&trace);
    assert_eq!(stages.first().map(|s| s.0.as_str()), Some("parse"));
    assert_eq!(stages.last().map(|s| s.0.as_str()), Some("rtos"));
    for machine in ["pinger", "ponger"] {
        for stage in ["chi", "sift", "sgraph", "compile", "estimate", "measure"] {
            assert!(
                stages
                    .iter()
                    .any(|(s, m, _)| s == stage && m.as_deref() == Some(machine)),
                "no {stage} stage for {machine}: {stages:?}"
            );
        }
    }
}

#[test]
fn sim_trace_holds_parse_then_a_sim_stage() {
    let dir = tmpdir("sim_trace");
    let spec = write(&dir, "pp.pol", SPEC);
    let stim = write(&dir, "stim.txt", "0 go\n1 go\n1000 go\n");
    let trace = dir.join("trace.json");
    let out = bin()
        .args(["sim", &spec, "--stim", &stim, "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stages = trace_stages(&trace);
    let names: Vec<&str> = stages.iter().map(|s| s.0.as_str()).collect();
    assert_eq!(names, ["parse", "sim"]);
    let counters = stages[1].2.get("counters").expect("sim counters");
    let count = |name| {
        counters
            .get(name)
            .and_then(Json::as_num::<u64>)
            .unwrap_or_else(|| panic!("missing {name}"))
    };
    // The second `go` overwrites the first in `pinger`'s one-place
    // buffer, so each machine reacts twice.
    assert_eq!(count("reactions"), 4);
    assert_eq!(count("overwritten"), 1);
    let summary = format!(
        "{} busy ({} in RTOS)",
        count("busy_cycles"),
        count("rtos_cycles")
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains(&summary), "{summary}: {stdout}");
}

#[test]
fn readme_lists_exactly_the_usage_text() {
    let out = bin().arg("help").output().unwrap();
    assert!(out.status.success());
    let usage = String::from_utf8_lossy(&out.stdout);
    let readme =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md")).unwrap();
    assert!(
        readme.contains(usage.trim_end()),
        "README.md is missing the current `polis help` text:\n{usage}"
    );
}

/// The integral counter `name` of a trace stage.
fn counter(stage: &Json, name: &str) -> u64 {
    stage
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_num::<u64>)
        .unwrap_or_else(|| panic!("missing counter {name}"))
}

#[test]
fn sift_record_counts_the_sift_alone() {
    use polis::cfsm::{OrderScheme, ReactiveFn};
    let dir = tmpdir("sift_record");
    let trace = dir.join("trace.json");
    let out = bin()
        .args(["synth", "examples/specs/shock_absorber.pol", "-o"])
        .arg(dir.join("gen"))
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stages = trace_stages(&trace);
    let record = |stage: &str| {
        let found = stages
            .iter()
            .find(|(s, m, _)| s == stage && m.as_deref() == Some("acq"));
        found
            .unwrap_or_else(|| panic!("no {stage} record for acq"))
            .2
            .clone()
    };
    let (chi, sift) = (record("chi"), record("sift"));

    // The same machine through the library: χ's closing collection frees
    // nodes, and the sift record counts only what sifting freed after it.
    let net = polis::core::workloads::spec("shock_absorber").network;
    let acq = net.cfsms().iter().find(|m| m.name() == "acq").unwrap();
    let mut rf = ReactiveFn::build(acq);
    let built = rf.bdd().stats();
    assert!(built.reclaimed_nodes > 0);
    rf.sift(OrderScheme::OutputsAfterSupport);
    let sifted = rf.bdd().stats();
    assert_eq!(
        counter(&sift, "reclaimed_nodes"),
        sifted.reclaimed_nodes - built.reclaimed_nodes
    );
    // The larger of the two stage peaks is the manager's peak.
    assert_eq!(counter(&chi, "peak_live_nodes"), built.peak_live_nodes);
    assert_eq!(
        counter(&chi, "peak_live_nodes").max(counter(&sift, "peak_live_nodes")),
        sifted.peak_live_nodes
    );
    assert!(counter(&sift, "peak_live_nodes") < built.peak_live_nodes);
}

#[test]
fn dot_trace_holds_parse_then_the_drawn_modules_stages() {
    let dir = tmpdir("dot_trace");
    let spec = write(&dir, "pp.pol", SPEC);
    let trace = dir.join("trace.json");
    let plain = bin()
        .args(["dot", &spec, "--module", "ponger"])
        .output()
        .unwrap();
    let out = bin()
        .args(["dot", &spec, "--module", "ponger", "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Standard output stays the Graphviz text alone.
    assert_eq!(out.stdout, plain.stdout);
    let stages = trace_stages(&trace);
    assert_eq!(stages.first().map(|s| s.0.as_str()), Some("parse"));
    for stage in ["chi", "sift", "sgraph"] {
        assert!(
            stages
                .iter()
                .any(|(s, m, _)| s == stage && m.as_deref() == Some("ponger")),
            "no {stage} stage for ponger: {stages:?}"
        );
    }
    assert!(
        stages
            .iter()
            .all(|(_, m, _)| m.as_deref() != Some("pinger")),
        "pinger was not drawn: {stages:?}"
    );
    // Drawing stops at the s-graph: nothing is compiled, emitted or costed.
    for stage in ["compile", "emit_c", "estimate", "measure"] {
        assert!(
            stages.iter().all(|(s, _, _)| s != stage),
            "dot ran {stage}: {stages:?}"
        );
    }
}

#[test]
fn fmt_trace_holds_the_parse_stage() {
    let dir = tmpdir("fmt_trace");
    let spec = write(&dir, "pp.pol", SPEC);
    let trace = dir.join("trace.json");
    let plain = bin().args(["fmt", &spec]).output().unwrap();
    let out = bin()
        .args(["fmt", &spec, "--trace"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(out.stdout, plain.stdout);
    let stages = trace_stages(&trace);
    let names: Vec<&str> = stages.iter().map(|s| s.0.as_str()).collect();
    assert_eq!(names, ["parse"]);
    assert_eq!(counter(&stages[0].2, "modules"), 2);
}
