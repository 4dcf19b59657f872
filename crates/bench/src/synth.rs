//! Generated-code bench: the paper's own metrics — code bytes, RAM and
//! min/max reaction cycles, measured on the object code — for every
//! machine of the four example specs and of the two composed products,
//! on `Mcu8` and `Risc32`, plus the peak live BDD nodes of building and
//! sifting each machine's χ. Writes `BENCH_synth.json`.
//!
//! ```text
//! cargo run --release -p polis-bench --bin paper -- synth [--gate FILE] [--out FILE]
//! ```
//!
//! Every number is deterministic, so `--gate FILE` fails on *any*
//! difference from the committed file: a changed value, a machine that
//! appears or disappears. An improvement is committed on purpose, like a
//! regression would have to be.

use crate::{named, write_json, BenchOptions};
use polis_cfsm::compose::compose;
use polis_cfsm::Network;
use polis_core::trace::Json;
use polis_core::{synthesize_network_staged, workloads, MetricValue, SynthesisOptions};
use polis_rtos::RtosConfig;
use polis_vm::Profile;

/// The target profiles, with the prefix of their JSON fields.
const PROFILES: [(Profile, &str); 2] = [(Profile::Mcu8, "mcu8"), (Profile::Risc32, "risc32")];

/// The subjects: each example spec, then the single-machine product of
/// the dashboard and of the shock absorber. A case is named
/// `<spec>/<machine>`, or after the product machine.
fn subjects() -> Vec<(Option<&'static str>, Network)> {
    let mut out: Vec<_> = workloads::EXAMPLES
        .iter()
        .map(|&(name, _)| (Some(name), workloads::spec(name).network))
        .collect();
    for net in [workloads::dashboard(), workloads::shock_absorber()] {
        let product = compose(&net).expect("the example networks compose");
        let single = Network::new(product.name().to_owned(), vec![product])
            .expect("a single machine is a network");
        out.push((None, single));
    }
    out
}

/// One case per machine: its name, then code bytes, RAM and min/max
/// cycles on each profile, then the BDD manager's peak live nodes over
/// the `chi` and `sift` stages (the same on both profiles).
fn cases() -> Vec<Json> {
    let mut cases = Vec::new();
    for (spec, net) in subjects() {
        let runs = PROFILES.map(|(profile, _)| {
            let opts = SynthesisOptions {
                profile,
                ..SynthesisOptions::default()
            };
            let rtos = RtosConfig {
                profile,
                ..RtosConfig::default()
            };
            synthesize_network_staged(&net, &opts, &rtos, 1)
                .expect("the example networks synthesize")
        });
        for (mi, m) in net.cfsms().iter().enumerate() {
            let name = match spec {
                Some(spec) => format!("{spec}/{}", m.name()),
                None => m.name().to_owned(),
            };
            let mut fields = vec![("name".to_owned(), Json::Str(name))];
            for ((_, prefix), (syn, _)) in PROFILES.iter().zip(&runs) {
                let mm = &syn.machines[mi].measured;
                fields.extend([
                    (format!("{prefix}_code_bytes"), Json::num(mm.size_bytes)),
                    (format!("{prefix}_ram_bytes"), Json::num(mm.ram_bytes)),
                    (format!("{prefix}_min_cycles"), Json::num(mm.min_cycles)),
                    (format!("{prefix}_max_cycles"), Json::num(mm.max_cycles)),
                ]);
            }
            let peak = runs
                .iter()
                .flat_map(|(_, trace)| trace.records())
                .filter(|r| r.machine.as_deref() == Some(m.name()))
                .filter(|r| matches!(r.stage, "chi" | "sift"))
                .filter_map(|r| match r.counter("peak_live_nodes") {
                    Some(MetricValue::Int(n)) => Some(n),
                    _ => None,
                })
                .max()
                .unwrap_or_default();
            fields.push(("peak_live_nodes".to_owned(), Json::num(peak)));
            cases.push(Json::Obj(fields));
        }
    }
    cases
}

/// Every difference between this run's cases and the committed ones:
/// a case missing on either side, or a field that differs or is missing.
fn gate_failures(run: &[Json], committed: &Json) -> Vec<String> {
    let name_of = |c: &Json| {
        c.get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_owned()
    };
    let keys = |c: &Json| match c {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
        _ => Vec::new(),
    };
    let mut failures = Vec::new();
    for ours in run {
        let name = name_of(ours);
        let Some(theirs) = named(committed, ours.get("name")) else {
            failures.push(format!("{name}: not in the committed file"));
            continue;
        };
        let mut fields = keys(ours);
        fields.extend(keys(theirs).into_iter().filter(|k| ours.get(k).is_none()));
        for field in fields {
            let (a, b) = (ours.get(&field), theirs.get(&field));
            if a != b {
                let show = |v: Option<&Json>| v.map_or("missing".to_owned(), Json::to_string);
                failures.push(format!(
                    "{name}: {field} {} differs from committed {}",
                    show(a),
                    show(b)
                ));
            }
        }
    }
    for theirs in committed.as_array().unwrap_or_default() {
        if !run.iter().any(|c| c.get("name") == theirs.get("name")) {
            let name = name_of(theirs);
            failures.push(format!("{name}: committed but not produced by this run"));
        }
    }
    failures
}

/// Runs the bench, prints one line per machine and writes the results
/// (default `BENCH_synth.json`). Returns the `--gate` failures.
pub fn run(opts: &BenchOptions) -> Result<Vec<String>, String> {
    let cases = cases();
    let num = |c: &Json, f: &str| c.get(f).and_then(Json::as_num::<u64>).unwrap_or_default();
    println!(
        "{:<28} {:>10} {:>9} {:>16} {:>10} {:>9} {:>16} {:>10}",
        "machine", "Mcu8 [B]", "RAM [B]", "cycles", "Risc32 [B]", "RAM [B]", "cycles", "peak nodes"
    );
    for c in &cases {
        let cols = PROFILES.map(|(_, p)| {
            format!(
                "{:>10} {:>9} {:>16}",
                num(c, &format!("{p}_code_bytes")),
                num(c, &format!("{p}_ram_bytes")),
                format!(
                    "{}..{}",
                    num(c, &format!("{p}_min_cycles")),
                    num(c, &format!("{p}_max_cycles"))
                ),
            )
        });
        let name = c.get("name").and_then(Json::as_str).unwrap_or_default();
        let peak = num(c, "peak_live_nodes");
        println!("{name:<28} {} {peak:>10}", cols.join(" "));
    }

    let json = Json::obj([
        ("bench", Json::Str("synth".to_owned())),
        ("cases", Json::Arr(cases.clone())),
    ]);
    write_json(opts, "BENCH_synth.json", &json)?;

    let mut failures = Vec::new();
    if let Some(path) = &opts.gate {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("gate: cannot read {path}: {e}"))?;
        let committed = Json::parse(&text).map_err(|e| format!("gate: {path}: {e}"))?;
        let committed = committed.get("cases").unwrap_or(&Json::Null);
        failures.extend(gate_failures(&cases, committed));
    }
    Ok(failures)
}
