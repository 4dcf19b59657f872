//! Property suites for the example workloads: pinned verdicts, and the
//! trace-soundness conformance oracle — every decoded counterexample or
//! witness trace must replay step-by-step through the explicit CFSM
//! semantics ([`CexTrace::replay`]) into a state that satisfies the
//! property's expression.

use polis::cfsm::Network;
use polis::core::{random, verify_staged, workloads, SynthCtx, SynthesisOptions};
use polis::lang::{parse_properties, parse_spec, PropExpr, PropKind, Property, Span};
use polis::verify::{verify_with_props, CexTrace, PropReport, VerifyOptions};

/// Checks a workload's shipped suite and returns the report.
fn check(net: &Network) -> (Vec<Property>, PropReport) {
    let suite = workloads::property_suite(net.name());
    let props = parse_properties(net, suite).expect("shipped suite resolves");
    let (_, pr) = verify_with_props(net, &props, &VerifyOptions::default()).unwrap();
    (props, pr)
}

/// The conformance oracle: the trace replays cleanly and its final state
/// satisfies `expr` under the concrete evaluator.
fn assert_trace_sound(net: &Network, t: &CexTrace, expr: &PropExpr) {
    let end = t.replay(net).expect("decoded trace must replay");
    assert_eq!(
        Some(&end),
        t.states.last(),
        "replay ends at the decoded target"
    );
    assert!(
        expr.eval(&end.ctrl, &end.pending),
        "replayed final state does not satisfy the property: {}",
        end.render(net)
    );
}

/// Every satisfying-state verdict in the report carries a sound trace:
/// violated `never`s (the acceptance criterion) and satisfied
/// `reachable`s alike.
fn assert_report_sound(net: &Network, props: &[Property], pr: &PropReport) {
    assert!(pr.rings_complete, "example fixpoints fit the ring cap");
    for (p, r) in props.iter().zip(&pr.results) {
        let expects_state = match p.kind {
            PropKind::Never => !r.holds,
            PropKind::Reachable => r.holds,
        };
        if expects_state {
            let t = r
                .trace
                .as_ref()
                .unwrap_or_else(|| panic!("no trace for {}", p.render(net)));
            assert_trace_sound(net, t, &p.expr);
        } else {
            assert!(r.trace.is_none() && r.witness_state.is_none());
        }
    }
}

fn verdicts(pr: &PropReport) -> Vec<bool> {
    pr.results.iter().map(|r| r.holds).collect()
}

#[test]
fn simple_suite_verdicts_and_traces() {
    let net = Network::new("simple", vec![workloads::simple()]).unwrap();
    let (props, pr) = check(&net);
    // reachable simple.c; never simple@awaiting && simple.c
    assert_eq!(verdicts(&pr), vec![true, false]);
    assert_report_sound(&net, &props, &pr);
    // The shortest counterexample is a single delivery of `c`.
    assert_eq!(pr.results[1].trace.as_ref().unwrap().len(), 1);
}

#[test]
fn seat_belt_suite_verdicts_and_traces() {
    let net = workloads::seat_belt();
    let (props, pr) = check(&net);
    // reachable alarm; never off && waiting; never alarm && belt_on
    assert_eq!(verdicts(&pr), vec![true, true, false]);
    assert_report_sound(&net, &props, &pr);
    // Reaching the alarm takes key_on plus a guarded tick at minimum;
    // the violation additionally needs belt_on pending there.
    let cex = pr.results[2].trace.as_ref().unwrap();
    assert!(
        cex.len() >= 4,
        "trace suspiciously short: {}",
        cex.render(&net)
    );
}

#[test]
fn shock_absorber_suite_verdicts_and_traces() {
    let net = workloads::shock_absorber();
    let (props, pr) = check(&net);
    // reachable sport; never comfort && sport; never starving && pwm_tick
    assert_eq!(verdicts(&pr), vec![true, true, false]);
    assert_report_sound(&net, &props, &pr);
}

#[test]
fn dashboard_suite_verdicts_and_traces() {
    let net = workloads::dashboard();
    let (props, pr) = check(&net);
    // reachable both saturated; never counting && saturated;
    // never wticks pending at speedo and odometer together
    assert_eq!(verdicts(&pr), vec![true, true, false]);
    assert_report_sound(&net, &props, &pr);
    // One frc timebase reaction fills both buffers at once.
    let cex = pr.results[2].trace.as_ref().unwrap();
    let end = cex.replay(&net).unwrap();
    let speedo = net.machine_index("speedo").unwrap();
    let odometer = net.machine_index("odometer").unwrap();
    assert!(end.pending[speedo][0] && end.pending[odometer][0]);
}

#[test]
fn staged_prop_checking_records_counters() {
    let net = workloads::seat_belt();
    let suite = workloads::property_suite(net.name());
    let props = parse_properties(&net, suite).unwrap();
    let opts = SynthesisOptions::default();
    let mut ctx = SynthCtx::new(&opts);
    let verified = verify_staged(&mut ctx, &net, Some(&props)).unwrap();
    let pr = verified.props.expect("a suite was checked");
    assert_eq!(pr.checked, 3);
    assert_eq!(pr.violations, 1);
    assert!(verified.report.stats.reached_states.is_some());
    let trace = ctx.into_trace();
    let stage = trace
        .records()
        .iter()
        .find(|r| r.stage == "verify")
        .expect("a `verify` stage record");
    let count = |name: &str| {
        stage
            .counters
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("missing counter {name}"))
            .1
    };
    let _ = count("properties_checked");
    let _ = count("violations");
    let _ = count("max_trace_len");
    let _ = count("preimage_nodes");
}

#[test]
fn spec_files_round_trip_through_parse_spec() {
    // The committed `.pol` files are generated by `examples/export_specs`
    // and must agree with the in-tree workloads *including* the property
    // suites — parse, verify, and compare verdict-for-verdict.
    for (name, net) in [
        (
            "simple",
            Network::new("simple", vec![workloads::simple()]).unwrap(),
        ),
        ("dashboard", workloads::dashboard()),
        ("shock_absorber", workloads::shock_absorber()),
        ("seat_belt", workloads::seat_belt()),
    ] {
        let path = format!("examples/specs/{name}.pol");
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let spec = parse_spec(name, &src).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(
            polis::lang::emit_network_source(&spec.network),
            polis::lang::emit_network_source(&net),
            "{path} diverged from the workload"
        );
        let canonical = parse_properties(&net, workloads::property_suite(name)).unwrap();
        assert_eq!(
            spec.properties.len(),
            canonical.len(),
            "{path} property count"
        );
        for (a, b) in spec.properties.iter().zip(&canonical) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.render(&net), b.render(&net), "{path}");
        }
    }
}

#[test]
fn seeded_random_networks_yield_sound_traces() {
    // Trace-soundness fuzzing: ad-hoc properties over seeded random
    // networks; every produced trace must replay through the explicit
    // semantics into a satisfying state.
    let spec = random::RandomSpec::default();
    let span = Span { line: 1, col: 1 };
    let mut traced = 0usize;
    for seed in 0..8u64 {
        let net = random::random_network(3, &spec, 0x9e37_79b9_7f4a_7c15 ^ seed);
        let mut props = Vec::new();
        for (mi, m) in net.cfsms().iter().enumerate() {
            if m.states().len() > 1 {
                props.push(Property {
                    kind: PropKind::Reachable,
                    expr: PropExpr::AtState {
                        machine: mi,
                        state: m.states().len() - 1,
                        span,
                    },
                    span,
                });
            }
            if !m.inputs().is_empty() {
                props.push(Property {
                    kind: PropKind::Never,
                    expr: PropExpr::Pending {
                        machine: mi,
                        input: 0,
                        span,
                    },
                    span,
                });
            }
        }
        let (_, pr) = verify_with_props(&net, &props, &VerifyOptions::default()).unwrap();
        for (p, r) in props.iter().zip(&pr.results) {
            if let Some(t) = &r.trace {
                assert_trace_sound(&net, t, &p.expr);
                traced += 1;
            }
        }
    }
    assert!(traced >= 8, "only {traced} traces exercised the oracle");
}
