//! Property suites for the example workloads: pinned verdicts, and the
//! trace-soundness conformance oracle — every decoded counterexample or
//! witness trace must replay step-by-step through the explicit CFSM
//! semantics ([`CexTrace::replay`]) into a state that satisfies the
//! property's expression.

use polis::cfsm::Network;
use polis::core::{random, verify_staged, workloads, SynthCtx, SynthesisOptions};
use polis::lang::{PropExpr, PropKind, Property, Span};
use polis::verify::{verify_with_props, CexTrace, PropReport, VerifyOptions};

/// Checks an example spec's suite and returns its network, suite and report.
fn check(name: &str) -> (Network, Vec<Property>, PropReport) {
    let spec = workloads::spec(name);
    let (_, pr) =
        verify_with_props(&spec.network, &spec.properties, &VerifyOptions::default()).unwrap();
    (spec.network, spec.properties, pr)
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
    let (net, props, pr) = check("simple");
    // reachable simple.c; never simple@awaiting && simple.c
    assert_eq!(verdicts(&pr), vec![true, false]);
    assert_report_sound(&net, &props, &pr);
    // The shortest counterexample is a single delivery of `c`.
    assert_eq!(pr.results[1].trace.as_ref().unwrap().len(), 1);
}

#[test]
fn seat_belt_suite_verdicts_and_traces() {
    let (net, props, pr) = check("seat_belt");
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
    let (net, props, pr) = check("shock_absorber");
    // reachable sport; never comfort && sport; never starving && pwm_tick
    assert_eq!(verdicts(&pr), vec![true, true, false]);
    assert_report_sound(&net, &props, &pr);
}

#[test]
fn dashboard_suite_verdicts_and_traces() {
    let (net, props, pr) = check("dashboard");
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
    let spec = workloads::spec("seat_belt");
    let (net, props) = (spec.network, spec.properties);
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
