//! `ReactiveFn::build` (one priority ITE chain per control state, joined
//! by a multiplexer over the control bits) against a reference χ
//! built the plain way: each transition's condition resolved against the
//! earlier transitions of its state, then the disjunction of every
//! condition conjoined with its output cube literal by literal, in
//! declaration order, in the same manager. Both build the same function,
//! so a canonical BDD gives the same handle; any difference is a change
//! in the function χ encodes. This covers guards of one state that
//! overlap (priority decides) and transitions that an earlier one fully
//! shadows. The same holds for machines large enough that `build`
//! collects its garbage several times before χ is done, and the peak
//! live nodes of building χ are pinned, so a lost collection shows.

use polis_bdd::{Bdd, NodeRef, Var};
use polis_cfsm::compose::compose;
use polis_cfsm::{Cfsm, CfsmBuilder, Guard, Network, ReactiveFn, RfVarKind, StateId};
use polis_core::random::{random_cfsm, RandomSpec, Rng};
use polis_core::workloads;
use polis_expr::{Expr, Type, Value};

/// The bits of the first reactive-function variable of `kind`.
fn bits(rf: &ReactiveFn, kind: RfVarKind) -> Option<Vec<Var>> {
    rf.inputs()
        .iter()
        .chain(rf.outputs())
        .find(|v| v.kind == kind)
        .map(|v| v.bits.clone())
}

/// `value` on MSB-first `bits`, conjoined one literal at a time from the
/// most significant bit down.
fn code(bdd: &mut Bdd, bits: &[Var], value: usize) -> NodeRef {
    let w = bits.len();
    let lits: Vec<NodeRef> = (0..w)
        .map(|k| {
            if value >> (w - 1 - k) & 1 == 1 {
                bdd.var(bits[k])
            } else {
                bdd.nvar(bits[k])
            }
        })
        .collect();
    bdd.and_all(lits)
}

fn guard(rf: &mut ReactiveFn, g: &Guard) -> NodeRef {
    match g {
        Guard::True => NodeRef::TRUE,
        Guard::False => NodeRef::FALSE,
        Guard::Present(i) => {
            let v = bits(rf, RfVarKind::Present { input: *i }).expect("present flag")[0];
            rf.bdd_mut().var(v)
        }
        Guard::Test(i) => {
            let v = bits(rf, RfVarKind::Test { test: *i }).expect("test variable")[0];
            rf.bdd_mut().var(v)
        }
        Guard::Not(x) => {
            let fx = guard(rf, x);
            rf.bdd_mut().not(fx)
        }
        Guard::And(a, b) => {
            let (fa, fb) = (guard(rf, a), guard(rf, b));
            rf.bdd_mut().and(fa, fb)
        }
        Guard::Or(a, b) => {
            let (fa, fb) = (guard(rf, a), guard(rf, b));
            rf.bdd_mut().or(fa, fb)
        }
    }
}

/// Per transition, `(raw, cond)`: its source state and guard, and that
/// minus the guards of the earlier transitions of the same state.
fn resolved_conditions(rf: &mut ReactiveFn, m: &Cfsm) -> Vec<(NodeRef, NodeRef)> {
    let ctrl = bits(rf, RfVarKind::Ctrl);
    let mut taken = vec![NodeRef::FALSE; m.states().len()];
    let mut out = Vec::new();
    for t in m.transitions() {
        let in_state = match &ctrl {
            Some(b) => code(rf.bdd_mut(), b, t.from),
            None => NodeRef::TRUE,
        };
        let g = guard(rf, &t.guard);
        let bdd = rf.bdd_mut();
        let raw = bdd.and(in_state, g);
        let not_taken = bdd.not(taken[t.from]);
        out.push((raw, bdd.and(raw, not_taken)));
        taken[t.from] = bdd.or(taken[t.from], raw);
    }
    out
}

/// χ of `m`, each term conjoined onto its condition one output literal at
/// a time: consume, each action, then the next-state code.
fn reference_chi(rf: &mut ReactiveFn, m: &Cfsm) -> NodeRef {
    let next_ctrl = bits(rf, RfVarKind::NextCtrl);
    let consume = bits(rf, RfVarKind::Consume).expect("consume variable")[0];
    let actions: Vec<Var> = (0..m.actions().len())
        .map(|action| bits(rf, RfVarKind::Action { action }).expect("action variable")[0])
        .collect();
    let conds: Vec<NodeRef> = resolved_conditions(rf, m)
        .into_iter()
        .map(|(_, cond)| cond)
        .collect();

    let bdd = rf.bdd_mut();
    let fired = bdd.or_all(conds.iter().copied());
    let mut chi = NodeRef::FALSE;
    for (t, &cond) in m.transitions().iter().zip(&conds) {
        let lit = bdd.var(consume);
        let mut term = bdd.and(cond, lit);
        for (ai, &av) in actions.iter().enumerate() {
            let lit = if t.actions.contains(&ai) {
                bdd.var(av)
            } else {
                bdd.nvar(av)
            };
            term = bdd.and(term, lit);
        }
        if let Some(b) = &next_ctrl {
            let eq = code(bdd, b, t.to);
            term = bdd.and(term, eq);
        }
        chi = bdd.or(chi, term);
    }
    let mut dflt = bdd.not(fired);
    let lit = bdd.nvar(consume);
    dflt = bdd.and(dflt, lit);
    for &av in &actions {
        let lit = bdd.nvar(av);
        dflt = bdd.and(dflt, lit);
    }
    bdd.or(chi, dflt)
}

fn assert_same_chi(m: &Cfsm, what: &str) {
    assert_same_chi_of(&mut ReactiveFn::build(m), m, what);
}

fn assert_same_chi_of(rf: &mut ReactiveFn, m: &Cfsm, what: &str) {
    let want = reference_chi(rf, m);
    assert_eq!(rf.chi(), want, "{what}: χ of `{}` differs", m.name());
}

#[test]
fn example_specs_and_products_match_the_reference() {
    for (spec, _) in workloads::EXAMPLES {
        let net = workloads::spec(spec).network;
        for m in net.cfsms() {
            assert_same_chi(m, spec);
        }
    }
    for net in [workloads::dashboard(), workloads::shock_absorber()] {
        let product = compose(&net).expect("the example networks compose");
        assert_same_chi(&product, "product");
    }
}

#[test]
fn random_machines_match_the_reference() {
    let mut rng = Rng::new(0x00c4_1b17);
    for i in 0..240 {
        let spec = RandomSpec {
            states: rng.usize(1..7),
            pure_inputs: rng.usize(1..4),
            valued_inputs: rng.usize(0..3),
            outputs: rng.usize(1..4),
            vars: rng.usize(0..3),
            transitions: rng.usize(1..16),
        };
        let seed = rng.next_u64();
        let m = random_cfsm("rnd", &spec, seed);
        assert_same_chi(&m, &format!("machine {i} (seed {seed:#x}, {spec:?})"));
    }
}

/// A three-state machine whose guards overlap within each state, with
/// one transition fully shadowed by an earlier one of its state and one
/// whose guard is false.
fn overlapping_guards() -> Cfsm {
    let mut b = Cfsm::builder("overlap");
    b.input_pure("a");
    b.input_pure("b");
    b.input_valued("c", Type::uint(8));
    b.output_pure("x");
    b.output_pure("y");
    b.output_pure("z");
    b.state_var("n", Type::uint(8), Value::Int(0));
    let s0 = b.ctrl_state("s0");
    let s1 = b.ctrl_state("s1");
    let s2 = b.ctrl_state("s2");
    let big = b.test("big", Expr::var("c_value").gt(Expr::int(7)));
    // s0: `a` and `b` overlap; `a ∧ b` is shadowed by `a`.
    b.transition(s0, s1).when_present("a").emit("x").done();
    b.transition(s0, s2).when_present("b").emit("y").done();
    b.transition(s0, s0)
        .when_present("a")
        .when_present("b")
        .emit("z")
        .done();
    // s1: a test refines a presence, then an unguarded catch-all.
    b.transition(s1, s2)
        .when_present("c")
        .when_test(big)
        .assign("n", Expr::var("c_value"))
        .done();
    b.transition(s1, s1)
        .when_present("c")
        .emit("x")
        .emit("y")
        .done();
    b.transition(s1, s0).when(Guard::False).emit("z").done();
    b.transition(s1, s0).emit("z").done();
    // s2: the second guard covers the first, which still comes first.
    b.transition(s2, s0)
        .when_present("a")
        .when_absent("b")
        .emit("y")
        .done();
    b.transition(s2, s1)
        .when(Guard::Present(0).or(Guard::Present(1)))
        .done();
    b.build().expect("a valid machine")
}

/// Seeded machines with few inputs and many transitions per state, drawn
/// from small guards, so most guards overlap and many are shadowed.
fn overlapping_random_machines() -> Vec<Cfsm> {
    let mut rng = Rng::new(0x0f_e71a);
    (0..40)
        .map(|i| {
            let mut b = Cfsm::builder(format!("overlap{i}"));
            let inputs = ["a", "b", "c"];
            for input in inputs {
                b.input_pure(input);
            }
            let outputs = ["x", "y", "z", "w"];
            for output in outputs {
                b.output_pure(output);
            }
            let states: Vec<_> = (0..rng.usize(1..5))
                .map(|s| b.ctrl_state(format!("s{s}")))
                .collect();
            for _ in 0..rng.usize(4..16) {
                let from = *rng.pick(&states);
                let to = *rng.pick(&states);
                random_transition(&mut b, &mut rng, (from, to), &inputs, &outputs, 4);
            }
            b.build().expect("a valid machine")
        })
        .collect()
}

/// Adds a transition from `from` to `to` guarded by a random cube over
/// `inputs`, each present or absent with odds `1/odds` apiece and free
/// otherwise, that emits a random subset of `outputs`.
fn random_transition(
    b: &mut CfsmBuilder,
    rng: &mut Rng,
    (from, to): (StateId, StateId),
    inputs: &[impl AsRef<str>],
    outputs: &[impl AsRef<str>],
    odds: usize,
) {
    let mut t = b.transition(from, to);
    for input in inputs {
        t = match rng.usize(0..odds) {
            0 => t.when_present(input.as_ref()),
            1 => t.when_absent(input.as_ref()),
            _ => t,
        };
    }
    for output in outputs {
        if rng.bool() {
            t = t.emit(output.as_ref());
        }
    }
    t.done();
}

/// How many transitions of `m` are fully shadowed: their guard holds
/// somewhere in their state, but an earlier transition always wins.
fn shadowed(m: &Cfsm) -> usize {
    let mut rf = ReactiveFn::build(m);
    resolved_conditions(&mut rf, m)
        .iter()
        .filter(|(raw, cond)| !raw.is_false() && cond.is_false())
        .count()
}

#[test]
fn overlapping_and_shadowed_transitions_match_the_reference() {
    let m = overlapping_guards();
    assert_eq!(shadowed(&m), 1);
    assert_same_chi(&m, "hand-written overlaps");
    let machines = overlapping_random_machines();
    let total: usize = machines.iter().map(shadowed).sum();
    assert!(total >= 40, "only {total} shadowed transitions");
    for m in &machines {
        assert_same_chi(m, "random overlaps");
    }
}

/// Five states, so three of the eight control codes are out of domain,
/// and state `s3` has no outgoing transition: χ there is the quiet cube,
/// as on the out-of-domain codes.
fn five_states_one_dead() -> Cfsm {
    let mut b = Cfsm::builder("five");
    b.input_pure("a");
    b.input_pure("b");
    b.output_pure("x");
    b.output_pure("y");
    let s: Vec<_> = (0..5).map(|i| b.ctrl_state(format!("s{i}"))).collect();
    b.transition(s[0], s[1]).when_present("a").emit("x").done();
    b.transition(s[0], s[4]).when_present("b").emit("y").done();
    b.transition(s[1], s[2]).when_present("b").done();
    b.transition(s[2], s[3]).emit("x").emit("y").done();
    b.transition(s[4], s[0])
        .when_present("a")
        .when_absent("b")
        .emit("y")
        .done();
    b.transition(s[4], s[3]).when(Guard::False).emit("x").done();
    b.build().expect("a valid machine")
}

/// One control state, so χ has no control bits and no multiplexer; the
/// second guard overlaps the first and the third is false.
fn single_state() -> Cfsm {
    let mut b = Cfsm::builder("single");
    b.input_pure("a");
    b.input_pure("b");
    b.output_pure("x");
    b.output_pure("y");
    let s0 = b.ctrl_state("s0");
    b.transition(s0, s0).when_present("a").emit("x").done();
    b.transition(s0, s0).when_present("b").emit("y").done();
    b.transition(s0, s0).when(Guard::False).done();
    b.build().expect("a valid machine")
}

#[test]
fn unused_codes_dead_states_and_single_states_match_the_reference() {
    let five = five_states_one_dead();
    let rf = ReactiveFn::build(&five);
    assert_eq!(bits(&rf, RfVarKind::Ctrl).map(|b| b.len()), Some(3));
    assert_same_chi(&five, "five states");
    let single = single_state();
    let rf = ReactiveFn::build(&single);
    assert_eq!(bits(&rf, RfVarKind::Ctrl), None);
    assert_same_chi(&single, "single state");
}

/// Seeded random machines with few states and many transitions, so the
/// per-state chains cross the garbage-pressure floor and `build` collects
/// several times before χ is done, then the catch-all machines.
fn collecting_machines() -> Vec<Cfsm> {
    let mut rng = Rng::new(0x6c_c011);
    (0..8)
        .map(|_| {
            let spec = RandomSpec {
                states: rng.usize(3..8),
                pure_inputs: rng.usize(8..11),
                valued_inputs: rng.usize(4..6),
                outputs: rng.usize(7..10),
                vars: rng.usize(4..6),
                transitions: rng.usize(140..200),
            };
            random_cfsm("big", &spec, rng.next_u64())
        })
        .chain(catch_all_machines())
        .collect()
}

/// Seeded three-state machines whose every state ends with an unguarded
/// transition, so no chain reaches the quiet cube while code 3, which is
/// out of domain, still selects it after `build` has collected.
fn catch_all_machines() -> Vec<Cfsm> {
    let mut rng = Rng::new(0xca7c_4a11);
    (0..4)
        .map(|i| {
            let mut b = Cfsm::builder(format!("catch_all{i}"));
            let inputs: Vec<String> = (0..12).map(|k| format!("i{k}")).collect();
            for input in &inputs {
                b.input_pure(input);
            }
            let outputs: Vec<String> = (0..8).map(|k| format!("o{k}")).collect();
            for output in &outputs {
                b.output_pure(output);
            }
            let states: Vec<_> = (0..3).map(|s| b.ctrl_state(format!("s{s}"))).collect();
            for &from in &states {
                for _ in 0..rng.usize(30..50) {
                    let to = *rng.pick(&states);
                    random_transition(&mut b, &mut rng, (from, to), &inputs, &outputs, 5);
                }
                b.transition(from, *rng.pick(&states))
                    .emit(&outputs[0])
                    .done();
            }
            b.build().expect("a valid machine")
        })
        .collect()
}

#[test]
fn machines_that_collect_while_building_match_the_reference() {
    for (i, m) in collecting_machines().iter().enumerate() {
        let mut rf = ReactiveFn::build(m);
        // `build` ends with one collection against χ alone; the others
        // ran while χ was being built.
        let mid_build = rf.bdd().stats().collections - 1;
        assert!(mid_build >= 3, "machine {i}: {mid_build} collections");
        assert_same_chi_of(&mut rf, m, &format!("collecting machine {i}"));
    }
}

#[test]
fn chi_stage_peaks_are_pinned() {
    let peak = |m: &Cfsm| ReactiveFn::build(m).bdd().stats().peak_live_nodes;
    let product = |net: Network| compose(&net).expect("the example networks compose");
    // Below the collection floor: nothing is collected before the end.
    // 2,174 as a disjunction of priority-resolved terms, 1,447 as one
    // priority chain over every state.
    assert_eq!(peak(&product(workloads::dashboard())), 941);
    // 16,159 when the partial disjunctions were kept until the end, 6,429
    // as a collected disjunction of priority-resolved terms, 5,596 as one
    // collected priority chain over every state.
    assert_eq!(peak(&product(workloads::shock_absorber())), 4686);
    assert_eq!(peak(&collecting_machines()[0]), 17166);
}
