//! Symbolic-verification benchmark: runs the reachability engine over
//! the seed example networks and synthetic relay chains of growing
//! width, and writes `BENCH_verify.json` with one `current` case each.
//!
//! ```text
//! cargo run --release -p polis-bench --bin paper -- verify [--smoke] [--gate FILE] [--out FILE]
//! ```
//!
//! `--smoke` stops the relay chains at n = 12, so the bench finishes in
//! well under a second; the full run goes on to n = 32 (about 2 s in
//! release). Every run asserts sanity thresholds — every case
//! reaches its fixpoint, counts a non-trivial reachable set, stays inside
//! the default node budget, and records the relational-product kernel
//! counters — and exits non-zero on violation. `--gate FILE` also
//! compares this run against the committed `BENCH_verify.json`: for
//! every case present in both, the verdict fields (`reached_states`,
//! `lost_possible`, `dead_transitions`, `deadlock`) and the traversal
//! shape (`iterations`, `image_steps`, `descent_nodes`) must match
//! exactly, and neither `peak_live_nodes` nor `andex_lookups` (the
//! AndExists-cache probes of the relational products) may regress by
//! more than 5%. A gated field missing from a committed case fails the
//! gate.
//!
//! Each case also prints and records the image descent's work counters
//! (`descent_nodes`, `env_applications`, `react_applications`) and the
//! fixpoint's wall time per phase (`phase_<name>_ms` columns: the image
//! descent — env images, relational products with the rename onto the
//! current rail and their union, interleaved — then frontier, the
//! stats-only frontier size walk (`measure`), GC, sift).

use crate::{named, write_json, BenchOptions};
use polis_cfsm::Network;
use polis_core::random::{random_network, RandomSpec};
use polis_core::trace::Json;
use polis_core::workloads;
use polis_lang::Property;
use polis_verify::{verify_with_props, PropReport, Verifier, VerifyOptions, VerifyReport};
use std::time::Instant;

/// One measured verification case.
struct CaseResult {
    name: String,
    wall_ms: f64,
    report: VerifyReport,
    /// Property-suite pass (workload cases only; the relay chains ship
    /// no suite and report zero columns).
    prop: Option<PropReport>,
}

impl CaseResult {
    fn json(&self) -> Json {
        let (r, s) = (&self.report, &self.report.stats);
        let prop = |f: fn(&PropReport) -> u64| Json::num(self.prop.as_ref().map_or(0, f));
        let prop_ms = self
            .prop
            .as_ref()
            .map_or(0.0, |p| p.wall.as_secs_f64() * 1e3);
        let reached = s.reached_states.map_or(Json::Null, Json::num);
        let lost_possible = r.lost_events.iter().filter(|e| e.possible).count();
        let fields = [
            ("name", Json::Str(self.name.clone())),
            ("wall_ms", Json::fixed(self.wall_ms, 3)),
            ("machines", Json::num(r.machines)),
            ("buffers", Json::num(r.buffers)),
            ("iterations", Json::num(s.iterations)),
            ("image_steps", Json::num(s.image_steps)),
            ("descent_nodes", Json::num(s.descent_nodes)),
            ("env_applications", Json::num(s.env_applications)),
            ("react_applications", Json::num(s.react_applications)),
            ("reached_states", reached),
            ("reached_nodes", Json::num(s.reached_nodes)),
            ("peak_frontier_nodes", Json::num(s.peak_frontier_nodes)),
            ("peak_live_nodes", Json::num(s.peak_live_nodes)),
            ("lost_possible", Json::num(lost_possible)),
            ("dead_transitions", Json::num(r.dead_transitions.len())),
            ("deadlock", Json::Bool(r.deadlock.is_some())),
            ("andex_lookups", Json::num(s.andex_lookups)),
            ("andex_hits", Json::num(s.andex_hits)),
            ("cube_quant_calls", Json::num(s.cube_quant_calls)),
            ("mid_reach_reorders", Json::num(s.mid_reach_reorders)),
            ("mid_reach_collections", Json::num(s.mid_reach_collections)),
            ("props_checked", prop(|p| p.checked)),
            ("prop_violations", prop(|p| p.violations)),
            ("prop_wall_ms", Json::fixed(prop_ms, 3)),
            ("max_trace_len", prop(|p| p.max_trace_len)),
            ("preimage_nodes", prop(|p| p.preimage_nodes)),
        ];
        let phases = s.phases.named().map(|(phase, t)| {
            let ms = Json::fixed(t.as_secs_f64() * 1e3, 3);
            (format!("phase_{phase}_ms"), ms)
        });
        let fields = fields.map(|(k, v)| (k.to_owned(), v));
        Json::Obj(fields.into_iter().chain(phases).collect())
    }
}

/// The fields a case must share exactly with its namesake in the
/// committed file (`--gate`).
const GATED: [&str; 7] = [
    "iterations",
    "image_steps",
    "descent_nodes",
    "reached_states",
    "lost_possible",
    "dead_transitions",
    "deadlock",
];

/// The counters a case may exceed its committed namesake's by at most
/// 5% (`--gate`): the peak live nodes, and the AndExists-cache probes,
/// which stay low only while each product hands the tail below its last
/// quantified and renamed level to the shared cache.
const BOUNDED: [&str; 2] = ["peak_live_nodes", "andex_lookups"];

/// Verifies `net`, then checks `props` in a second pass unless the suite
/// is empty (the relay chains have none).
fn run_case(name: &str, net: &Network, props: &[Property]) -> CaseResult {
    let start = Instant::now();
    let mut v = Verifier::run(net, &VerifyOptions::default())
        .unwrap_or_else(|e| panic!("{name}: verification failed: {e}"));
    let report = v.report();
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // The property pass is a separate run with ring storage on, so the
    // measurement above keeps the reachability-only memory/timing profile.
    let prop = (!props.is_empty()).then(|| {
        let (_, pr) = verify_with_props(net, props, &VerifyOptions::default())
            .unwrap_or_else(|e| panic!("{name}: property pass failed: {e}"));
        pr
    });
    CaseResult {
        name: name.to_owned(),
        wall_ms,
        report,
        prop,
    }
}

/// Deterministic regression gate: every case of this run that is also
/// in `committed` (an array of cases, matched by name) must agree exactly
/// on the [`GATED`] fields, and may not regress a [`BOUNDED`] counter by
/// more than 5%. A gated or bounded field missing from the committed
/// case fails.
fn gate_failures(run: &[Json], committed: &Json) -> Vec<String> {
    let mut failures = Vec::new();
    let mut matched = 0usize;
    for ours in run {
        let Some(theirs) = named(committed, ours.get("name")) else {
            continue;
        };
        matched += 1;
        let name = ours.get("name").and_then(Json::as_str).unwrap_or_default();
        for field in GATED {
            match (ours.get(field), theirs.get(field)) {
                (_, None) => failures.push(format!("{name}: committed case has no `{field}`")),
                (Some(a), Some(b)) if a == b => {}
                (a, Some(b)) => failures.push(format!(
                    "{name}: {field} {} differs from committed {b}",
                    a.unwrap_or(&Json::Null)
                )),
            }
        }
        // 5% headroom: both counters are deterministic for a given
        // kernel, so this only trips when a code change genuinely
        // inflates memory or product work.
        for field in BOUNDED {
            let count = |case: &Json| case.get(field).and_then(Json::as_num::<u128>);
            match (count(ours), count(theirs)) {
                (Some(p), Some(c)) if p * 20 > c * 21 => failures.push(format!(
                    "{name}: {field} {p} regresses >5% over committed {c}"
                )),
                (_, None) => failures.push(format!(
                    "{name}: committed `{field}` is missing or not an integer"
                )),
                _ => {}
            }
        }
    }
    if matched == 0 {
        failures.push("gate: no case of this run matched the committed cases".to_owned());
    }
    failures
}

/// Runs the bench, prints per-case lines and writes the results (default
/// `BENCH_verify.json`). Returns the sanity and `--gate` failures.
pub fn run(opts: &BenchOptions) -> Result<Vec<String>, String> {
    // The smoke set stops at n=12, the largest chain that stays well
    // under a second; n=32 is the full run's one chain that collects
    // mid-reach.
    let smoke = opts.smoke;
    let chain_sizes: &[usize] = if smoke {
        &[4, 8, 12]
    } else {
        &[4, 8, 12, 16, 20, 24, 28, 32]
    };

    let mut results = Vec::new();
    for (name, spec) in [
        ("seatbelt", "seat_belt"),
        ("shock_absorber", "shock_absorber"),
        ("dashboard", "dashboard"),
    ] {
        let spec = workloads::spec(spec);
        results.push(run_case(name, &spec.network, &spec.properties));
    }
    let spec = RandomSpec::default();
    for &n in chain_sizes {
        let net = random_network(n, &spec, 0x9e3779b97f4a7c15 ^ n as u64);
        results.push(run_case(&format!("relay_chain_{n}"), &net, &[]));
    }

    for r in &results {
        let s = &r.report.stats;
        let andex_pct = if s.andex_lookups == 0 {
            0.0
        } else {
            s.andex_hits as f64 / s.andex_lookups as f64 * 100.0
        };
        println!(
            "{:<18} {:>9.2} ms  iters {:>3}  images {:>5}  states {:>12}  peak live {:>8}  \
             andex hit {:>5.1}%  reorders {}  gcs {}",
            r.name,
            r.wall_ms,
            s.iterations,
            s.image_steps,
            s.reached_states
                .map_or("overflow".to_owned(), |n| n.to_string()),
            s.peak_live_nodes,
            andex_pct,
            s.mid_reach_reorders,
            s.mid_reach_collections,
        );
        println!(
            "{:<18} nodes {:>8}  env applications {:>6}  react applications {:>6}",
            "  descent", s.descent_nodes, s.env_applications, s.react_applications,
        );
        let phases = s.phases.named();
        println!(
            "{:<18} {:>9.2} ms  {}",
            "  phases",
            phases
                .iter()
                .map(|(_, t)| t.as_secs_f64() * 1e3)
                .sum::<f64>(),
            phases
                .iter()
                .map(|(phase, t)| format!("{phase} {:.2}", t.as_secs_f64() * 1e3))
                .collect::<Vec<_>>()
                .join("  "),
        );
        if let Some(p) = &r.prop {
            println!(
                "{:<18} {:>9.2} ms  props {:>3}  violated {:>3}  max trace {:>3}  \
                 rings {:>4}{}  preimage nodes {}",
                format!("  {} props", r.name),
                p.wall.as_secs_f64() * 1e3,
                p.checked,
                p.violations,
                p.max_trace_len,
                p.rings_stored,
                if p.rings_complete { "" } else { " (capped)" },
                p.preimage_nodes,
            );
        }
    }

    let current: Vec<Json> = results.iter().map(CaseResult::json).collect();
    let json = Json::obj([
        ("bench", Json::Str("verify".to_owned())),
        ("smoke", Json::Bool(smoke)),
        ("current", Json::Arr(current.clone())),
    ]);
    write_json(opts, "BENCH_verify.json", &json)?;

    let mut failures = Vec::new();
    let budget = VerifyOptions::default().node_budget as u64;
    for r in &results {
        let s = &r.report.stats;
        if s.iterations == 0 || s.image_steps == 0 {
            failures.push(format!("{}: traversal did no work", r.name));
        }
        match s.reached_states {
            Some(n) if n >= 2 => {}
            other => failures.push(format!(
                "{}: implausible reachable-state count {other:?}",
                r.name
            )),
        }
        if s.peak_live_nodes == 0 {
            failures.push(format!("{}: peak live nodes not recorded", r.name));
        }
        // Every case must finish inside the default node budget.
        if s.peak_live_nodes >= budget {
            failures.push(format!(
                "{}: peak live nodes {} at or above the {} node budget",
                r.name, s.peak_live_nodes, budget
            ));
        }
        if s.andex_lookups == 0 || s.cube_quant_calls == 0 {
            failures.push(format!(
                "{}: relational-product kernel counters not recorded \
                 (andex_lookups {}, cube_quant_calls {})",
                r.name, s.andex_lookups, s.cube_quant_calls
            ));
        }
        // Property passes must check the whole suite and decode a
        // trace for every violation (the example fixpoints are far
        // below the ring cap, so cube-only degradation here is a bug).
        if let Some(p) = &r.prop {
            if p.checked == 0 {
                failures.push(format!("{}: empty property suite ran", r.name));
            }
            if !p.rings_complete {
                failures.push(format!("{}: trace rings unexpectedly capped", r.name));
            }
            if p.violations > 0 && p.max_trace_len == 0 {
                failures.push(format!(
                    "{}: {} violations but no decoded trace",
                    r.name, p.violations
                ));
            }
        }
    }
    if let Some(path) = &opts.gate {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("gate: cannot read {path}: {e}"))?;
        let committed = Json::parse(&text).map_err(|e| format!("gate: {path}: {e}"))?;
        let cases = committed.get("current").unwrap_or(&Json::Null);
        failures.extend(gate_failures(&current, cases));
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A committed-style case with every gated and bounded field.
    fn case(peak: u64, andex: u64) -> Json {
        let gated = GATED.map(|f| (f, Json::num(1u64)));
        Json::obj(
            [
                ("name", Json::Str("c".to_owned())),
                ("peak_live_nodes", Json::num(peak)),
                ("andex_lookups", Json::num(andex)),
            ]
            .into_iter()
            .chain(gated),
        )
    }

    fn gate(run: Json, committed: Json) -> Vec<String> {
        gate_failures(&[run], &Json::Arr(vec![committed]))
    }

    /// `case` with `field` set to `value`, or dropped for `None`.
    fn with(case: Json, field: &str, value: Option<Json>) -> Json {
        let Json::Obj(fields) = case else {
            unreachable!("cases are objects")
        };
        let fields = fields.into_iter().filter(|(k, _)| k != field);
        Json::Obj(fields.chain(value.map(|v| (field.to_owned(), v))).collect())
    }

    #[test]
    fn equal_cases_pass() {
        assert_eq!(
            gate(case(1000, 1000), case(1000, 1000)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn a_gated_field_mismatch_fails() {
        let run = with(case(1000, 1000), "descent_nodes", Some(Json::num(2u64)));
        let failures = gate(run, case(1000, 1000));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("descent_nodes"), "{failures:?}");
    }

    #[test]
    fn six_percent_more_peak_fails() {
        let failures = gate(case(1060, 1000), case(1000, 1000));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("peak_live_nodes 1060"), "{failures:?}");
    }

    #[test]
    fn six_percent_more_andex_lookups_fails() {
        let failures = gate(case(1000, 1060), case(1000, 1000));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("andex_lookups 1060"), "{failures:?}");
    }

    #[test]
    fn half_the_andex_lookups_passes() {
        assert!(gate(case(1000, 500), case(1000, 1000)).is_empty());
    }

    #[test]
    fn a_missing_committed_field_fails() {
        for field in GATED.into_iter().chain(BOUNDED) {
            let failures = gate(case(1000, 1000), with(case(1000, 1000), field, None));
            assert_eq!(failures.len(), 1, "{field}: {failures:?}");
            assert!(failures[0].contains(&format!("`{field}`")), "{failures:?}");
        }
    }

    #[test]
    fn no_matching_case_fails() {
        let run = with(
            case(1000, 1000),
            "name",
            Some(Json::Str("other".to_owned())),
        );
        let failures = gate(run, case(1000, 1000));
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("no case"), "{failures:?}");
    }
}
