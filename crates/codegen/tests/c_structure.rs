//! Structural well-formedness of the generated C across every workload
//! machine, implementation style, and buffering policy: balanced braces,
//! resolved gotos, unique labels, and sane macro usage. (We cannot run a
//! C compiler here, so these checks stand in for `cc -fsyntax-only`.)

use polis_cfsm::{Cfsm, OrderScheme, ReactiveFn};
use polis_codegen::{emit_c, two_level_sgraph, CodegenOptions};
use polis_lang::parse_network;
use polis_sgraph::{build, ite_chain, BufferPolicy, SGraph};
use std::collections::BTreeSet;

/// Every machine of the four example specs, the files the core workloads
/// read (codegen cannot depend on polis-core, which depends on it).
fn workload_machines() -> Vec<Cfsm> {
    [
        ("simple", include_str!("../../../examples/specs/simple.pol")),
        (
            "seat_belt",
            include_str!("../../../examples/specs/seat_belt.pol"),
        ),
        (
            "shock_absorber",
            include_str!("../../../examples/specs/shock_absorber.pol"),
        ),
        (
            "dashboard",
            include_str!("../../../examples/specs/dashboard.pol"),
        ),
    ]
    .iter()
    .flat_map(|(name, src)| {
        parse_network(name, src)
            .expect("example specs parse")
            .cfsms()
            .to_vec()
    })
    .collect()
}

fn graphs_for(m: &Cfsm) -> Vec<(String, SGraph)> {
    let mut out = Vec::new();
    for scheme in [
        OrderScheme::Natural,
        OrderScheme::OutputsAfterAllInputs,
        OrderScheme::OutputsAfterSupport,
    ] {
        let mut rf = ReactiveFn::build(m);
        rf.sift(scheme);
        out.push((format!("{scheme:?}"), build(&rf).expect("builds")));
    }
    let mut rf = ReactiveFn::build(m);
    out.push(("IteChain".to_owned(), ite_chain(&mut rf)));
    out.push(("TwoLevel".to_owned(), two_level_sgraph(m)));
    out
}

fn check_c(label: &str, c: &str) {
    // Balanced braces and parentheses.
    let balance = |open: char, close: char| {
        let mut depth = 0i64;
        for ch in c.chars() {
            if ch == open {
                depth += 1;
            } else if ch == close {
                depth -= 1;
            }
            assert!(depth >= 0, "{label}: unbalanced {open}{close}\n{c}");
        }
        assert_eq!(depth, 0, "{label}: unbalanced {open}{close}\n{c}");
    };
    balance('{', '}');
    balance('(', ')');

    // Labels are unique; every goto targets one.
    let mut labels = BTreeSet::new();
    for line in c.lines() {
        let t = line.trim_start();
        if t.starts_with('L') && t.contains(':') {
            let name = t.split(':').next().unwrap();
            if name[1..].chars().all(|c| c.is_ascii_digit()) {
                assert!(labels.insert(name.to_owned()), "{label}: duplicate {name}");
            }
        }
    }
    for line in c.lines() {
        if let Some(pos) = line.find("goto ") {
            let target = line[pos + 5..].trim_end_matches(';').trim();
            assert!(
                labels.contains(target),
                "{label}: goto {target} unresolved\n{c}"
            );
        }
    }

    // Statements end with semicolons (spot check on macro lines).
    for line in c.lines() {
        let t = line.trim();
        if t.starts_with("POLIS_EMIT") || t.starts_with("POLIS_CONSUME") {
            assert!(t.ends_with(';'), "{label}: missing semicolon: {t}");
        }
    }
    // Exactly one return (the single END label).
    assert_eq!(
        c.matches("return;").count(),
        1,
        "{label}: expected exactly one return"
    );
}

#[test]
fn generated_c_is_structurally_sound_everywhere() {
    for m in workload_machines() {
        for (style_label, g) in graphs_for(&m) {
            for buffering in [BufferPolicy::All, BufferPolicy::Minimal] {
                let c = emit_c(&m, &g, &CodegenOptions { buffering });
                check_c(&format!("{}/{}/{:?}", m.name(), style_label, buffering), &c);
            }
        }
    }
}

#[test]
fn switch_threshold_changes_dispatch_form() {
    // The two-level control dispatch of a 2-state machine (frc) is an
    // `if` chain; with three or more states (belt_control) it is a
    // `switch`.
    let machines = workload_machines();
    let emit = |name: &str| {
        let m = machines.iter().find(|m| m.name() == name).unwrap();
        let c = emit_c(m, &two_level_sgraph(m), &CodegenOptions::default());
        check_c(name, &c);
        (m.states().len(), c)
    };
    let (frc_states, frc) = emit("frc");
    let (belt_states, belt) = emit("belt_control");
    assert_eq!(frc_states, 2);
    assert!(belt_states >= 3, "{belt_states}");
    assert!(!frc.contains("switch (ctrl)"), "{frc}");
    assert!(frc.contains("if (ctrl == 1)"), "{frc}");
    assert!(belt.contains("switch (ctrl)"), "{belt}");
}
