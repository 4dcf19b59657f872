//! Property-style verification of Theorem 1: for random CFSMs, the s-graph
//! built from the characteristic-function BDD computes exactly the CFSM's
//! transition function — under every variable-ordering scheme, for the
//! ITE-chain form, and after TEST-node collapsing. Deterministically seeded.

use polis_cfsm::{Cfsm, OrderScheme, ReactiveFn};
use polis_core::random::Rng;
use polis_expr::{Expr, MapEnv, Value};
use polis_sgraph::{build, collapse, execute, ite_chain, SGraph};
use std::collections::BTreeSet;

/// A compact recipe for a random 2-input/2-output machine.
#[derive(Debug, Clone)]
struct MachineSpec {
    num_states: usize,                // 1..=3
    transitions: Vec<TransitionSpec>, // 1..=6
}

#[derive(Debug, Clone)]
struct TransitionSpec {
    from: usize,
    to: usize,
    /// Guard selector: which presence/test atoms are required
    /// (0 = don't care, 1 = required true, 2 = required false).
    need_a: u8,
    need_b: u8,
    need_t: u8,
    emit_x: bool,
    emit_y: bool,
    bump: bool,  // n := n + 1
    reset: bool, // n := 0 (overrides bump)
}

fn gen_machine(rng: &mut Rng) -> MachineSpec {
    let num_states = rng.usize(1..4);
    let transitions = (0..rng.usize(1..7))
        .map(|_| TransitionSpec {
            from: rng.usize(0..num_states),
            to: rng.usize(0..num_states),
            need_a: rng.usize(0..3) as u8,
            need_b: rng.usize(0..3) as u8,
            need_t: rng.usize(0..3) as u8,
            emit_x: rng.bool(),
            emit_y: rng.bool(),
            bump: rng.bool(),
            reset: rng.bool(),
        })
        .collect();
    MachineSpec {
        num_states,
        transitions,
    }
}

fn instantiate(spec: &MachineSpec) -> Cfsm {
    let mut b = Cfsm::builder("random");
    b.input_pure("a");
    b.input_valued("b", polis_expr::Type::uint(4));
    b.output_pure("x");
    b.output_pure("y");
    b.state_var("n", polis_expr::Type::uint(4), Value::Int(0));
    let states: Vec<_> = (0..spec.num_states)
        .map(|i| b.ctrl_state(format!("s{i}")))
        .collect();
    let t = b.test("n_lt_b", Expr::var("n").lt(Expr::var("b_value")));
    for ts in &spec.transitions {
        let mut tb = b.transition(states[ts.from], states[ts.to]);
        tb = match ts.need_a {
            1 => tb.when_present("a"),
            2 => tb.when_absent("a"),
            _ => tb,
        };
        tb = match ts.need_b {
            1 => tb.when_present("b"),
            2 => tb.when_absent("b"),
            _ => tb,
        };
        tb = match ts.need_t {
            1 => tb.when_test(t),
            2 => tb.when_not_test(t),
            _ => tb,
        };
        if ts.emit_x {
            tb = tb.emit("x");
        }
        if ts.emit_y {
            tb = tb.emit("y");
        }
        if ts.reset {
            tb = tb.assign("n", Expr::int(0));
        } else if ts.bump {
            tb = tb.assign("n", Expr::var("n").add(Expr::int(1)));
        }
        tb.done();
    }
    b.build().expect("random machine is structurally valid")
}

/// One randomized stimulus step: which inputs arrive and b's value.
fn gen_stimulus(rng: &mut Rng) -> Vec<(bool, bool, i64)> {
    (0..rng.usize(1..12))
        .map(|_| (rng.bool(), rng.bool(), rng.i64(0..16)))
        .collect()
}

fn run_equivalence(m: &Cfsm, g: &SGraph, stimulus: &[(bool, bool, i64)]) {
    let mut st_ref = m.initial_state();
    let mut st_sg = m.initial_state();
    for &(pa, pb, bval) in stimulus {
        let mut present = BTreeSet::new();
        if pa {
            present.insert("a".to_string());
        }
        if pb {
            present.insert("b".to_string());
        }
        let mut vals = MapEnv::new();
        vals.set("b_value", Value::Int(bval));

        let want = m.react(&present, &vals, &st_ref).expect("reference");
        let got = execute(m, g, &present, &vals, &st_sg).expect("s-graph");

        assert_eq!(got.fired, want.fired, "fired mismatch");
        assert_eq!(got.next, want.next, "next-state mismatch");
        let mut ea: Vec<_> = want.emissions.iter().map(|e| &e.signal).collect();
        let mut eb: Vec<_> = got.emissions.iter().map(|e| &e.signal).collect();
        ea.sort();
        eb.sort();
        assert_eq!(ea, eb, "emission mismatch");

        st_ref = want.next;
        st_sg = got.next;

        assert_eq!(st_ref, st_sg);
    }
}

/// Runs `f` over 64 seeded (machine, stimulus) cases.
fn for_each_case(tag: u64, f: impl Fn(&Cfsm, &[(bool, bool, i64)])) {
    for case in 0..64u64 {
        let mut rng = Rng::new(tag ^ case.wrapping_mul(0x9e37_79b9));
        let spec = gen_machine(&mut rng);
        let stim = gen_stimulus(&mut rng);
        let m = instantiate(&spec);
        f(&m, &stim);
    }
}

#[test]
fn theorem1_natural_order() {
    for_each_case(0x01, |m, stim| {
        let rf = ReactiveFn::build(m);
        let g = build(&rf).expect("build");
        run_equivalence(m, &g, stim);
    });
}

#[test]
fn theorem1_outputs_after_all_inputs() {
    for_each_case(0x02, |m, stim| {
        let mut rf = ReactiveFn::build(m);
        rf.sift(OrderScheme::OutputsAfterAllInputs);
        let g = build(&rf).expect("build");
        run_equivalence(m, &g, stim);
    });
}

#[test]
fn theorem1_outputs_after_support() {
    for_each_case(0x03, |m, stim| {
        let mut rf = ReactiveFn::build(m);
        rf.sift_with_passes(OrderScheme::OutputsAfterSupport, usize::MAX);
        let g = build(&rf).expect("build");
        run_equivalence(m, &g, stim);
    });
}

#[test]
fn theorem1_ite_chain() {
    for_each_case(0x04, |m, stim| {
        let mut rf = ReactiveFn::build(m);
        let g = ite_chain(&mut rf);
        run_equivalence(m, &g, stim);
    });
}

#[test]
fn theorem1_after_collapse() {
    for_each_case(0x05, |m, stim| {
        let mut rf = ReactiveFn::build(m);
        rf.sift(OrderScheme::OutputsAfterSupport);
        let g = build(&rf).expect("build");
        let c = collapse(&g);
        run_equivalence(m, &c, stim);
    });
}

#[test]
fn reduce_is_semantics_preserving() {
    for_each_case(0x06, |m, stim| {
        let rf = ReactiveFn::build(m);
        let g = build(&rf).expect("build");
        let r = g.reduce();
        assert!(r.len() <= g.len());
        run_equivalence(m, &r, stim);
    });
}
