//! Integration tests of the symbolic verification engine against the
//! rest of the system: the RTOS co-simulator (lost events), the s-graph
//! evaluator (χ conformance), the estimator (reach-aware false-path
//! bounds), and the staged pipeline (graceful budget aborts).

use polis::cfsm::{Cfsm, Network, ReactiveFn, RfVarKind};
use polis::core::random::{random_network, RandomSpec, Rng};
use polis::core::{synthesize_network_staged, workloads, SynthError, SynthesisOptions};
use polis::estimate::Incompat;
use polis::expr::{Expr, Type, Value};
use polis::lang::{PropExpr, PropKind, Property, Span};
use polis::rtos::{RtosConfig, Simulator, Stimulus};
use polis::sgraph::{build, EvalError, SgEnv};
use polis::verify::{
    verify_network, verify_with_props, DeadTransition, LostEvent, PropReport, Verifier,
    VerifyError, VerifyOptions, VerifyReport,
};
use std::collections::HashMap;

fn example_networks() -> Vec<Network> {
    ["simple", "dashboard", "shock_absorber", "seat_belt"]
        .map(|name| workloads::spec(name).network)
        .into()
}

// ---------------------------------------------------------------------
// Satellite (a): whenever the co-simulator drops an event, verification
// must flag the loss as reachable — for every seeded random network.
// ---------------------------------------------------------------------

#[test]
fn sim_losses_are_flagged_by_verification() {
    let mut losses_observed = 0u64;
    for case in 0..12u64 {
        let mut rng = Rng::new(0x0010_57e4 ^ case.wrapping_mul(0x9e3779b9));
        let n = rng.usize(2..5);
        let net = random_network(n, &RandomSpec::default(), rng.u64(0..1_000));
        // Dense bursts on every primary input force one-place buffer
        // overwrites in the simulator.
        let mut stim = Vec::new();
        for k in 0..n {
            for _ in 0..rng.usize(2..8) {
                stim.push(Stimulus::pure(rng.u64(0..2_000), format!("ext{k}")));
            }
        }
        let mut sim = Simulator::build(&net, RtosConfig::default());
        sim.run(&stim);
        let overwritten = sim.stats().overwritten.clone();

        let report = verify_network(&net, &VerifyOptions::default()).unwrap();
        for (i, &lost) in overwritten.iter().enumerate() {
            if lost > 0 {
                losses_observed += lost;
                assert!(
                    report.lost_possible(net.cfsms()[i].name()),
                    "case {case}: sim dropped {lost} events at `{}` but \
                     verification claims no loss is reachable",
                    net.cfsms()[i].name()
                );
            }
        }
    }
    assert!(
        losses_observed > 0,
        "the stimulus bursts never caused a loss; the property was vacuous"
    );
}

// ---------------------------------------------------------------------
// Satellite (c): the s-graph evaluator and the characteristic-function
// BDD agree on every example CFSM, for random input vectors.
// ---------------------------------------------------------------------

struct VecEnv {
    presence: Vec<bool>,
    tests: Vec<bool>,
}

impl SgEnv for VecEnv {
    fn present(&mut self, input: usize) -> bool {
        self.presence[input]
    }
    fn test(&mut self, test: usize) -> Result<bool, EvalError> {
        Ok(self.tests[test])
    }
}

/// Encodes one evaluation (inputs chosen, outcome observed) as a total
/// assignment of χ's BDD variables; multi-bit variables are MSB-first.
fn chi_assignment(
    rf: &ReactiveFn,
    env: &VecEnv,
    ctrl: u64,
    fired: bool,
    actions: &[usize],
    next_ctrl: u64,
) -> HashMap<u32, bool> {
    let mut assign = HashMap::new();
    let encode = |bits: &[polis::bdd::Var], value: u64, map: &mut HashMap<u32, bool>| {
        for (j, bit) in bits.iter().enumerate() {
            map.insert(bit.0, (value >> (bits.len() - 1 - j)) & 1 == 1);
        }
    };
    for v in rf.inputs() {
        match v.kind {
            RfVarKind::Present { input } => {
                assign.insert(v.bits[0].0, env.presence[input]);
            }
            RfVarKind::Test { test } => {
                assign.insert(v.bits[0].0, env.tests[test]);
            }
            RfVarKind::Ctrl => encode(&v.bits, ctrl, &mut assign),
            _ => {}
        }
    }
    for v in rf.outputs() {
        match v.kind {
            RfVarKind::Consume => {
                assign.insert(v.bits[0].0, fired);
            }
            RfVarKind::Action { action } => {
                assign.insert(v.bits[0].0, actions.contains(&action));
            }
            RfVarKind::NextCtrl => encode(&v.bits, next_ctrl, &mut assign),
            _ => {}
        }
    }
    assign
}

#[test]
fn sgraph_evaluation_conforms_to_chi_bdd_on_every_example_machine() {
    let mut rng = Rng::new(0xc0_f0_12);
    for net in example_networks() {
        for m in net.cfsms() {
            let rf = ReactiveFn::build(m);
            let graph = build(&rf).unwrap();
            for ctrl in 0..m.states().len() as u64 {
                for _ in 0..32 {
                    let mut env = VecEnv {
                        presence: (0..m.inputs().len()).map(|_| rng.bool()).collect(),
                        tests: (0..m.tests().len()).map(|_| rng.bool()).collect(),
                    };
                    let out = graph.evaluate(&mut env, ctrl).unwrap();
                    let assign =
                        chi_assignment(&rf, &env, ctrl, out.fired, &out.actions, out.next_ctrl);
                    assert!(
                        rf.bdd().eval(rf.chi(), |v| assign[&v.0]),
                        "{}.{}: χ rejects the s-graph outcome {:?} from ctrl {ctrl} \
                         with presence {:?} tests {:?}",
                        net.name(),
                        m.name(),
                        out,
                        env.presence,
                        env.tests,
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Satellite (b): the verified reachability invariant tightens at least
// one false-path bound, and never loosens any.
// ---------------------------------------------------------------------

/// `driver` hands a token through `worker`, so `p` and `q` are never
/// co-pending — which kills `worker`'s expensive both-present path.
fn token_ring() -> Network {
    let mut b = Cfsm::builder("driver");
    b.input_pure("start");
    b.input_pure("tok");
    b.output_pure("p");
    b.output_pure("q");
    let s0 = b.ctrl_state("idle");
    let s1 = b.ctrl_state("sent_p");
    let s2 = b.ctrl_state("sent_q");
    b.transition(s0, s1).when_present("start").emit("p").done();
    b.transition(s1, s2).when_present("tok").emit("q").done();
    let driver = b.build().unwrap();

    let mut b = Cfsm::builder("worker");
    b.input_pure("p");
    b.input_pure("q");
    b.output_pure("tok");
    b.output_pure("out");
    b.state_var("n", Type::uint(8), Value::Int(0));
    let s = b.ctrl_state("s");
    b.transition(s, s)
        .when_present("p")
        .when_present("q")
        .emit("out")
        .assign("n", Expr::var("n").mul(Expr::var("n")).div(Expr::int(3)))
        .done();
    b.transition(s, s).when_present("p").emit("tok").done();
    b.transition(s, s).when_present("q").emit("out").done();
    let worker = b.build().unwrap();
    Network::new("token_ring", vec![driver, worker]).unwrap()
}

#[test]
fn reach_invariant_tightens_worker_bound_on_token_ring() {
    let net = token_ring();
    let opts = SynthesisOptions {
        verify: Some(VerifyOptions::default()),
        verify_refine_estimates: true,
        ..SynthesisOptions::default()
    };
    let (result, trace) =
        synthesize_network_staged(&net, &opts, &RtosConfig::default(), 1).unwrap();
    assert!(result.verify.is_some(), "verification report missing");
    assert!(trace.records().iter().any(|r| r.stage == "verify"));
    assert!(trace.records().iter().any(|r| r.stage == "refine"));

    let worker = net.machine_index("worker").unwrap();
    let r = &result.machines[worker];
    let baseline = r
        .max_cycles_false_path_aware
        .unwrap_or(r.estimate.max_cycles);
    let reach = r
        .max_cycles_reach_aware
        .expect("the exclusion must produce a reach-aware bound");
    assert!(
        reach < baseline,
        "reach-aware bound {reach} did not tighten the baseline {baseline}"
    );
}

#[test]
fn reach_invariant_never_loosens_any_example_bound() {
    let opts = SynthesisOptions {
        verify: Some(VerifyOptions::default()),
        verify_refine_estimates: true,
        ..SynthesisOptions::default()
    };
    for net in example_networks() {
        let (result, _) =
            synthesize_network_staged(&net, &opts, &RtosConfig::default(), 1).unwrap();
        for (m, r) in net.cfsms().iter().zip(&result.machines) {
            if let Some(reach) = r.max_cycles_reach_aware {
                assert!(
                    reach <= r.estimate.max_cycles,
                    "{}.{}: reach-aware {reach} above plain {}",
                    net.name(),
                    m.name(),
                    r.estimate.max_cycles
                );
                if let Some(fp) = r.max_cycles_false_path_aware {
                    assert!(
                        reach <= fp,
                        "{}.{}: reach-aware {reach} above derived {fp}",
                        net.name(),
                        m.name()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reached-state counts range over the state variables only, however
// many auxiliary (next-state, test, action) variables the model has.
// ---------------------------------------------------------------------

#[test]
fn reached_states_are_counted_over_the_state_variables_only() {
    // Two buffered inputs and one transition emitting 130 outputs: 2
    // state bits against 132 auxiliary variables (the two next-state
    // flags and one per action), so counting over every variable would
    // give 4 · 2^132, past u128.
    let mut b = Cfsm::builder("fanout");
    b.input_pure("go");
    b.input_pure("idle");
    let outs: Vec<String> = (0..130).map(|k| format!("o{k}")).collect();
    for o in &outs {
        b.output_pure(o);
    }
    let s = b.ctrl_state("s");
    let mut t = b.transition(s, s).when_present("go");
    for o in &outs {
        t = t.emit(o);
    }
    t.done();
    let net = Network::new("fanout", vec![b.build().unwrap()]).unwrap();
    let report = verify_network(&net, &VerifyOptions::default()).unwrap();
    assert_eq!(report.stats.reached_states, Some(4));
    assert!(report.render().contains(" 4 reachable states"));
}

// ---------------------------------------------------------------------
// Satellite (f): node-budget overflow aborts with a structured error
// and the partial trace intact.
// ---------------------------------------------------------------------

#[test]
fn budget_overflow_preserves_partial_trace() {
    let net = workloads::dashboard();
    let opts = SynthesisOptions {
        verify: Some(VerifyOptions {
            node_budget: 8,
            ..VerifyOptions::default()
        }),
        ..SynthesisOptions::default()
    };
    let failure = synthesize_network_staged(&net, &opts, &RtosConfig::default(), 2)
        .expect_err("an 8-node budget cannot hold the dashboard product");
    match failure.error {
        SynthError::Verify(VerifyError::NodeBudgetExceeded {
            budget, allocated, ..
        }) => {
            assert_eq!(budget, 8);
            assert!(allocated > 8);
        }
        other => panic!("expected a node-budget abort, got {other}"),
    }
    // The per-machine stages completed before the abort — their records
    // must survive, and the aborted verify stage itself is recorded.
    let records = failure.trace.records();
    for m in net.cfsms() {
        assert!(
            records
                .iter()
                .any(|r| r.machine.as_deref() == Some(m.name()) && r.stage == "compile"),
            "missing compile record for {}",
            m.name()
        );
    }
    assert!(records.iter().any(|r| r.stage == "verify"));
}

// ---------------------------------------------------------------------
// Node-budget sweep: every budget from 8 nodes up past the unbudgeted
// peak either reproduces the unbudgeted verdicts exactly or aborts with
// `NodeBudgetExceeded` — never a panic, never a different answer.
// ---------------------------------------------------------------------

/// Everything a budget may not change: the traversal shape, the reached
/// states, the three checks (a deadlock by its witness state) and the
/// property verdicts.
type Verdicts = (
    (u64, u64, Option<u128>),
    Vec<LostEvent>,
    Vec<DeadTransition>,
    Option<Vec<String>>,
    Vec<bool>,
);

fn verdicts(report: &VerifyReport, props: &PropReport) -> Verdicts {
    let s = &report.stats;
    (
        (s.iterations, s.image_steps, s.reached_states),
        report.lost_events.clone(),
        report.dead_transitions.clone(),
        report.deadlock.as_ref().map(|d| d.description.clone()),
        props.results.iter().map(|r| r.holds).collect(),
    )
}

/// Ad-hoc properties for a network without a suite: each machine's last
/// state is reachable, its first input is never pending.
fn probe_properties(net: &Network) -> Vec<Property> {
    let span = Span { line: 1, col: 1 };
    let mut props = Vec::new();
    for (machine, m) in net.cfsms().iter().enumerate() {
        let state = m.states().len() - 1;
        let expr = PropExpr::AtState {
            machine,
            state,
            span,
        };
        props.push(Property {
            kind: PropKind::Reachable,
            expr,
            span,
        });
        if !m.inputs().is_empty() {
            let expr = PropExpr::Pending {
                machine,
                input: 0,
                span,
            };
            props.push(Property {
                kind: PropKind::Never,
                expr,
                span,
            });
        }
    }
    props
}

#[test]
fn node_budget_sweep_reproduces_verdicts_or_aborts() {
    let mut cases = Vec::new();
    for (name, _) in workloads::EXAMPLES {
        let spec = workloads::spec(name);
        cases.push((spec.network, spec.properties));
    }
    let relay = random_network(6, &RandomSpec::default(), 0x9e3779b97f4a7c15 ^ 6);
    let relay_props = probe_properties(&relay);
    cases.push((relay, relay_props));

    for (net, props) in &cases {
        let name = net.name();
        let (report, prop_report) =
            verify_with_props(net, props, &VerifyOptions::default()).unwrap();
        let expect = verdicts(&report, &prop_report);
        let peak = report.stats.peak_live_nodes as usize;
        let (mut completed_below_peak, mut aborted) = (false, false);
        let mut budget = 8;
        loop {
            let opts = VerifyOptions {
                node_budget: budget,
                ..VerifyOptions::default()
            };
            match verify_with_props(net, props, &opts) {
                Ok((r, p)) => {
                    assert_eq!(verdicts(&r, &p), expect, "{name}: budget {budget}");
                    completed_below_peak |= budget < peak;
                }
                Err(VerifyError::NodeBudgetExceeded {
                    budget: b,
                    allocated,
                    iteration,
                    ..
                }) => {
                    assert_eq!(b, budget, "{name}");
                    assert!(allocated > budget, "{name}: budget {budget}");
                    assert!(
                        (1..=report.stats.iterations).contains(&iteration),
                        "{name}: budget {budget} aborted in iteration {iteration} of {}",
                        report.stats.iterations
                    );
                    aborted = true;
                }
            }
            if budget > peak {
                break;
            }
            // ×1.5 rather than ×2: doubling steps from 128 straight past
            // seat_belt's peak of 226, so no budget under it is tried.
            budget += budget / 2;
        }
        assert!(aborted, "{name}: an 8-node budget must abort");
        assert!(
            completed_below_peak,
            "{name}: no budget below the peak {peak} completed"
        );
    }
}

// ---------------------------------------------------------------------
// Direct cross-check on the examples: verification verdicts are
// consistent with a simulator run (one-directional by construction).
// ---------------------------------------------------------------------

#[test]
fn example_verdicts_are_consistent_with_simulated_losses() {
    for net in example_networks() {
        let report = verify_network(&net, &VerifyOptions::default()).unwrap();
        // Burst every primary input; anything the sim then drops must be
        // covered by a `possible` verdict.
        let mut stim = Vec::new();
        for sig in net.primary_inputs() {
            for t in 0..6u64 {
                stim.push(Stimulus::pure(t * 97, sig.clone()));
            }
        }
        let mut sim = Simulator::build(&net, RtosConfig::default());
        sim.run(&stim);
        for (i, &lost) in sim.stats().overwritten.iter().enumerate() {
            if lost > 0 {
                assert!(
                    report.lost_possible(net.cfsms()[i].name()),
                    "{}: sim dropped events at `{}` without a possible-loss verdict",
                    net.name(),
                    net.cfsms()[i].name()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// The exported invariant is sound on the examples: every claimed
// incompatibility really has no witness in a long random simulation.
// ---------------------------------------------------------------------

#[test]
fn exported_incompats_have_no_simulation_witness_on_token_ring() {
    let net = token_ring();
    let mut v = Verifier::run(&net, &VerifyOptions::default()).unwrap();
    let worker = net.machine_index("worker").unwrap();
    let incs = v.presence_incompats(worker);
    assert!(incs.contains(&Incompat {
        a: (polis::estimate::PathAtom::Present(0), true),
        b: (polis::estimate::PathAtom::Present(1), true),
    }));
}
