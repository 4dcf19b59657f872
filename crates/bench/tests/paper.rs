//! The `paper` command line: flag rejection, harness reports, and the
//! `verify --gate` and `synth --gate` comparisons against edited copies of
//! the committed `BENCH_verify.json` and `BENCH_synth.json`.

use polis_core::trace::Json;
use std::path::Path;
use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("paper runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn bad_command_lines_exit_nonzero_with_usage() {
    for args in [
        &[][..],
        &["nosuch"],
        &["table1", "--bogus"],
        &["kernel", "--smok", "--chek"],
        &["table1", "--smoke"],
        &["check", "--out", "verdicts.json"],
        &["kernel", "--gate", "BENCH_verify.json"],
        &["synth", "--smoke"],
        &["verify", "--smoke", "--check", "--gate"],
        &["verify", "--out", "--smoke"],
        &["table1", "extra"],
        &["kernel"],
        &["verify", "--check"],
    ] {
        let out = paper(args);
        assert!(!out.status.success(), "paper {args:?} must fail");
        assert!(
            stderr(&out).contains("usage: paper"),
            "paper {args:?}: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "paper {args:?} ran anyway");
    }
}

#[test]
fn harness_subcommand_prints_its_report() {
    let out = paper(&["table1"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("Table I: estimated vs measured cost"));
    assert!(text.contains("shape check (paper: estimates track measurement closely): HOLDS"));
}

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_verify.json");
    std::fs::read_to_string(path).expect("committed BENCH_verify.json")
}

/// Runs `paper <bench...> --gate` against `gate` written to a file, with
/// the results written next to it.
fn gated(bench: &[&str], tag: &str, gate: &str) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let gate_file = dir.join(format!("gate_{tag}.json"));
    std::fs::write(&gate_file, gate).unwrap();
    let out_file = dir.join(format!("bench_{tag}.json"));
    let files = [gate_file.to_str().unwrap(), out_file.to_str().unwrap()];
    paper(&[bench, &["--gate", files[0], "--out", files[1]]].concat())
}

/// Runs `paper verify --smoke --gate` against `gate` written to a file.
fn gate_against(tag: &str, gate: &str) -> Output {
    gated(&["verify", "--smoke"], tag, gate)
}

#[test]
fn gate_passes_on_the_committed_file() {
    let out = gate_against("committed", &committed());
    assert!(out.status.success(), "{}", stderr(&out));
}

/// `json` with the field `key` removed from every object in it.
fn without_key(json: Json, key: &str) -> Json {
    match json {
        Json::Obj(fields) => Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != key)
                .map(|(k, v)| (k, without_key(v, key)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(|v| without_key(v, key)).collect()),
        other => other,
    }
}

#[test]
fn gate_fails_when_a_gated_field_is_missing() {
    let committed = Json::parse(&committed()).expect("committed BENCH_verify.json parses");
    let edited = without_key(committed, "deadlock").to_string();
    assert!(!edited.contains("\"deadlock\""));
    let out = gate_against("no_deadlock", &edited);
    assert!(!out.status.success());
    let err = stderr(&out);
    for case in ["seatbelt", "shock_absorber", "dashboard", "relay_chain_12"] {
        assert!(
            err.contains(&format!("{case}: committed case has no `deadlock`")),
            "{err}"
        );
    }
}

#[test]
fn gate_fails_when_one_case_changes_its_iterations() {
    let text = committed();
    let current = text.find("\"current\"").unwrap();
    let edited = text[..current].to_owned()
        + &text[current..].replacen("\"iterations\": 9,", "\"iterations\": 10,", 1);
    assert_ne!(edited, text);
    let out = gate_against("iterations", &edited);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("seatbelt: iterations 9 differs from committed 10"),
        "{err}"
    );
    assert_eq!(err.matches("bench check FAILED").count(), 1, "{err}");
}

#[test]
fn synth_gate_fails_on_any_change_to_the_committed_numbers() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synth.json");
    let text = std::fs::read_to_string(path).expect("committed BENCH_synth.json");
    let out = gated(&["synth"], "synth_committed", &text);
    assert!(out.status.success(), "{}", stderr(&out));

    // A smaller number fails as surely as a larger one.
    let edited = text.replacen("\"mcu8_code_bytes\": 43,", "\"mcu8_code_bytes\": 42,", 1);
    assert_ne!(edited, text);
    let out = gated(&["synth"], "synth_smaller", &edited);
    assert!(!out.status.success());
    let err = stderr(&out);
    assert!(
        err.contains("simple/simple: mcu8_code_bytes 43 differs from committed 42"),
        "{err}"
    );
    assert_eq!(err.matches("bench check FAILED").count(), 1, "{err}");

    // χ construction that stops collecting shows up as a peak change.
    let edited = text.replacen("\"peak_live_nodes\": 4686", "\"peak_live_nodes\": 16159", 1);
    assert_ne!(edited, text);
    let err = stderr(&gated(&["synth"], "synth_peak", &edited));
    assert!(
        err.contains("shock_absorber_product: peak_live_nodes 4686 differs from committed 16159"),
        "{err}"
    );

    let edited = text.replacen("\"simple/simple\"", "\"simple/renamed\"", 1);
    let err = stderr(&gated(&["synth"], "synth_renamed", &edited));
    assert!(
        err.contains("simple/simple: not in the committed file"),
        "{err}"
    );
    assert!(
        err.contains("simple/renamed: committed but not produced by this run"),
        "{err}"
    );
}
