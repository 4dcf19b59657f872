//! Property-style test: the synchronous product of a random acyclic
//! pipeline is observationally equivalent to the tick-by-tick synchronous
//! execution of the original network. Deterministically seeded, offline.
//! Also checks the tests of the two example products: none is decided by
//! its operand intervals, and each is read by some transition.

use polis_cfsm::{compose, value_var_name, Cfsm, CfsmState, Network};
use polis_core::random::Rng;
use polis_core::workloads;
use polis_expr::{Expr, MapEnv, Type, Value};
use std::collections::BTreeSet;

/// A two-stage pipeline with randomized guards/actions per stage.
#[derive(Debug, Clone)]
struct PipeSpec {
    stage1_states: usize,
    stage1_bump: bool,
    stage1_emits: MidValue,
    stage2_threshold: i64,
    stage2_needs_ext: bool,
}

/// The value stage 1 emits on `mid`, which stage 2 compares with its
/// threshold in the same tick.
#[derive(Debug, Clone, Copy)]
enum MidValue {
    /// `?raw + n`: can overflow u4, so the product keeps its coercion and
    /// the test stays open.
    Sum,
    /// `?raw / 2`, in [0, 7]: the product decides the test when the
    /// threshold is 0 or above 7.
    Half,
    /// A constant: the product always decides the test.
    Const(i64),
}

fn gen_spec(rng: &mut Rng) -> PipeSpec {
    let (stage1_states, stage1_bump) = (rng.usize(1..3), rng.bool());
    let (stage2_threshold, stage2_needs_ext) = (rng.i64(0..16), rng.bool());
    let stage1_emits = match rng.usize(0..3) {
        0 => MidValue::Sum,
        1 => MidValue::Half,
        _ => MidValue::Const(rng.i64(0..16)),
    };
    PipeSpec {
        stage1_states,
        stage1_bump,
        stage1_emits,
        stage2_threshold,
        stage2_needs_ext,
    }
}

fn instantiate(spec: &PipeSpec) -> Network {
    let mut b = Cfsm::builder("src");
    b.input_pure("tick");
    b.input_valued("raw", Type::uint(4));
    b.output_valued("mid", Type::uint(4));
    b.state_var("n", Type::uint(4), Value::Int(0));
    let states: Vec<_> = (0..spec.stage1_states)
        .map(|i| b.ctrl_state(format!("s{i}")))
        .collect();
    let mid = match spec.stage1_emits {
        MidValue::Sum => Expr::var("raw_value").add(Expr::var("n")),
        MidValue::Half => Expr::var("raw_value").div(Expr::int(2)),
        MidValue::Const(c) => Expr::int(c),
    };
    for (i, &st) in states.iter().enumerate() {
        let next = states[(i + 1) % states.len()];
        let mut tb = b
            .transition(st, next)
            .when_present("raw")
            .emit_value("mid", mid.clone());
        if spec.stage1_bump {
            tb = tb.assign("n", Expr::var("n").add(Expr::int(1)));
        }
        tb.done();
        b.transition(st, st).when_present("tick").done();
    }
    let src = b.build().unwrap();

    let mut b = Cfsm::builder("sink");
    b.input_valued("mid", Type::uint(4));
    if spec.stage2_needs_ext {
        b.input_pure("en");
    }
    b.output_pure("hit");
    let s = b.ctrl_state("s");
    let t = b.test(
        "thr",
        Expr::var("mid_value").ge(Expr::int(spec.stage2_threshold)),
    );
    let mut tb = b.transition(s, s).when_present("mid").when_test(t);
    if spec.stage2_needs_ext {
        tb = tb.when_present("en");
    }
    tb.emit("hit").done();
    let sink = b.build().unwrap();

    Network::new("pipe", vec![src, sink]).unwrap()
}

/// Synchronous tick of the network in topological order (the composition's
/// reference semantics).
fn sync_tick(
    net: &Network,
    present_ext: &BTreeSet<String>,
    values: &MapEnv,
    states: &mut [CfsmState],
) -> Vec<(String, Option<i64>)> {
    let topo = net.topo_order().expect("acyclic");
    let mut present = present_ext.clone();
    let mut vals = values.clone();
    let mut out = Vec::new();
    for &mi in &topo {
        let m = &net.cfsms()[mi];
        let r = m.react(&present, &vals, &states[mi]).unwrap();
        for e in &r.emissions {
            out.push((e.signal.clone(), e.value.map(|v| v.as_int().unwrap())));
            present.insert(e.signal.clone());
            if let Some(v) = e.value {
                vals.set(value_var_name(&e.signal), v);
            }
        }
        states[mi] = r.next;
    }
    out.sort();
    out
}

#[test]
fn product_equals_synchronous_reference() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xc0_0b05e ^ case);
        let spec = gen_spec(&mut rng);
        let net = instantiate(&spec);
        let product = compose::compose(&net).expect("composes");

        let mut ref_states: Vec<CfsmState> =
            net.cfsms().iter().map(|m| m.initial_state()).collect();
        let mut p_state = product.initial_state();

        for _ in 0..rng.usize(1..10) {
            let (tick, raw, en, rawv) = (rng.bool(), rng.bool(), rng.bool(), rng.i64(0..16));
            let mut present = BTreeSet::new();
            if tick {
                present.insert("tick".to_string());
            }
            if raw {
                present.insert("raw".to_string());
            }
            if en && spec.stage2_needs_ext {
                present.insert("en".to_string());
            }
            let mut vals = MapEnv::new();
            vals.set("raw_value", Value::Int(rawv));

            let want = sync_tick(&net, &present, &vals, &mut ref_states);
            let r = product.react(&present, &vals, &p_state).unwrap();
            p_state = r.next;
            let mut got: Vec<(String, Option<i64>)> = r
                .emissions
                .iter()
                .map(|e| (e.signal.clone(), e.value.map(|v| v.as_int().unwrap())))
                .collect();
            got.sort();
            assert_eq!(got, want, "case={case}");
        }
    }
}

#[test]
fn product_state_count_bounded_by_tuple_product() {
    for case in 0..48u64 {
        let mut rng = Rng::new(0xface ^ case);
        let spec = gen_spec(&mut rng);
        let net = instantiate(&spec);
        let product = compose::compose(&net).expect("composes");
        let bound: usize = net.cfsms().iter().map(|m| m.states().len()).product();
        assert!(product.states().len() <= bound, "case={case}");
        assert!(!product.states().is_empty(), "case={case}");
    }
}

#[test]
fn example_products_keep_only_open_tests_that_are_read() {
    for net in [workloads::dashboard(), workloads::shock_absorber()] {
        let p = compose::compose(&net).expect("the example networks compose");
        let mut ty_of: Vec<(String, Type)> = p
            .state_vars()
            .iter()
            .map(|v| (v.name.clone(), v.ty))
            .collect();
        for s in p.inputs() {
            if let Some(ty) = s.value_type() {
                ty_of.push((value_var_name(s.name()), ty));
            }
        }
        let ty_of = |n: &str| ty_of.iter().find(|(v, _)| v == n).map(|&(_, t)| t);
        let mut read = vec![false; p.tests().len()];
        for t in p.transitions() {
            t.guard.visit_atoms(&mut |_| {}, &mut |i| read[i] = true);
        }
        for (t, read) in p.tests().iter().zip(read) {
            assert_eq!(t.expr.decide(&ty_of), None, "{}: {}", p.name(), t.expr);
            assert!(read, "{}: no transition reads {}", p.name(), t.expr);
        }
        assert!(!p.tests().is_empty(), "{}", p.name());
    }
}
