//! Cross-layer properties: compiled object code behaves exactly like the
//! s-graph it was compiled from (and hence like the CFSM, by Theorem 1),
//! and its dynamic cycle counts always fall inside the static min/max
//! bounds of the object-code analyzer. Deterministically seeded.

use polis_cfsm::{Cfsm, OrderScheme, ReactiveFn};
use polis_core::random::Rng;
use polis_expr::{Env, Expr, MapEnv, Type, Value};
use polis_sgraph::{build, ite_chain, SGraph};
use polis_vm::{
    analyze, assemble, compile, run_reaction, BufferPolicy, CollectingHost, Profile, VmMemory,
    VmProgram,
};
use std::collections::BTreeSet;

#[derive(Debug, Clone)]
struct TransitionSpec {
    from: usize,
    to: usize,
    need_a: u8,
    need_b: u8,
    need_t: u8,
    emit_x: bool,
    emit_v: bool,
    bump: bool,
    reset: bool,
}

#[derive(Debug, Clone)]
struct MachineSpec {
    num_states: usize,
    transitions: Vec<TransitionSpec>,
}

fn gen_machine(rng: &mut Rng) -> MachineSpec {
    let num_states = rng.usize(1..4);
    let transitions = (0..rng.usize(1..6))
        .map(|_| TransitionSpec {
            from: rng.usize(0..num_states),
            to: rng.usize(0..num_states),
            need_a: rng.usize(0..3) as u8,
            need_b: rng.usize(0..3) as u8,
            need_t: rng.usize(0..3) as u8,
            emit_x: rng.bool(),
            emit_v: rng.bool(),
            bump: rng.bool(),
            reset: rng.bool(),
        })
        .collect();
    MachineSpec {
        num_states,
        transitions,
    }
}

fn gen_stimulus(rng: &mut Rng, max_len: usize) -> Vec<(bool, bool, i64)> {
    (0..rng.usize(1..max_len))
        .map(|_| (rng.bool(), rng.bool(), rng.i64(0..16)))
        .collect()
}

fn instantiate(spec: &MachineSpec) -> Cfsm {
    let mut b = Cfsm::builder("random");
    b.input_pure("a");
    b.input_valued("b", Type::uint(4));
    b.output_pure("x");
    b.output_valued("v", Type::uint(4));
    b.state_var("n", Type::uint(4), Value::Int(0));
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
        if ts.emit_v {
            tb = tb.emit_value("v", Expr::var("n").add(Expr::var("b_value")));
        }
        if ts.reset {
            tb = tb.assign("n", Expr::int(0));
        } else if ts.bump {
            tb = tb.assign("n", Expr::var("n").add(Expr::int(1)));
        }
        tb.done();
    }
    b.build().unwrap()
}

/// Drive the compiled routine and the reference CFSM in lock-step.
fn check_machine(
    m: &Cfsm,
    g: &SGraph,
    policy: BufferPolicy,
    profile: Profile,
    stimulus: &[(bool, bool, i64)],
) {
    let prog: VmProgram = compile(m, g, policy);
    let obj = assemble(&prog, profile);
    let bounds = analyze(&prog, &obj);
    let mut mem = VmMemory::new(&prog);
    let mut st = m.initial_state();

    for &(pa, pb, bval) in stimulus {
        // Reference reaction.
        let mut present = BTreeSet::new();
        if pa {
            present.insert("a".to_string());
        }
        if pb {
            present.insert("b".to_string());
        }
        let mut vals = MapEnv::new();
        vals.set("b_value", Value::Int(bval));
        let want = m.react(&present, &vals, &st).unwrap();

        // Compiled reaction. The RTOS would write the buffered value of b
        // whenever the event is (re-)emitted; model a one-place buffer by
        // always updating it.
        if let Some(slot) = prog.input_value_slot(1) {
            mem.set(slot, bval);
        }
        let mut host = CollectingHost::new(vec![pa, pb]);
        let stats = run_reaction(&prog, &obj, &mut mem, &mut host).unwrap();

        // Equivalence: fired, emissions (as sets), state variables, ctrl.
        assert_eq!(host.consumed, want.fired, "fired mismatch");
        let mut got: Vec<(usize, Option<i64>)> = host.emissions.clone();
        let mut exp: Vec<(usize, Option<i64>)> = want
            .emissions
            .iter()
            .map(|e| {
                let oi = m.output_index(&e.signal).unwrap();
                (oi, e.value.map(|v| v.as_int().unwrap()))
            })
            .collect();
        got.sort();
        exp.sort();
        assert_eq!(got, exp, "emission mismatch");
        let n_slot = prog.state_slot("n").unwrap();
        assert_eq!(
            mem.get(n_slot),
            want.next.data.get("n").unwrap().as_int().unwrap(),
            "state variable mismatch"
        );
        if let Some(cs) = prog.ctrl_slot() {
            assert_eq!(mem.get(cs) as usize, want.next.ctrl, "ctrl mismatch");
        }

        // Static bounds contain the dynamic cost.
        assert!(
            (bounds.min_cycles..=bounds.max_cycles).contains(&stats.cycles),
            "cycles {} outside [{}, {}]",
            stats.cycles,
            bounds.min_cycles,
            bounds.max_cycles
        );

        st = want.next;
    }
}

/// Runs `f` over 48 seeded (machine, stimulus) cases.
fn for_each_case(tag: u64, stim_max: usize, f: impl Fn(&Cfsm, &[(bool, bool, i64)])) {
    for case in 0..48u64 {
        let mut rng = Rng::new(tag ^ case.wrapping_mul(0x517c_c1b7));
        let spec = gen_machine(&mut rng);
        let stim = gen_stimulus(&mut rng, stim_max);
        let m = instantiate(&spec);
        f(&m, &stim);
    }
}

#[test]
fn compiled_code_matches_reference_mcu8() {
    for_each_case(0x11, 10, |m, stim| {
        let mut rf = ReactiveFn::build(m);
        rf.sift(OrderScheme::OutputsAfterSupport);
        let g = build(&rf).unwrap();
        check_machine(m, &g, BufferPolicy::All, Profile::Mcu8, stim);
    });
}

#[test]
fn compiled_code_matches_reference_risc32() {
    for_each_case(0x12, 10, |m, stim| {
        let rf = ReactiveFn::build(m);
        let g = build(&rf).unwrap();
        check_machine(m, &g, BufferPolicy::All, Profile::Risc32, stim);
    });
}

#[test]
fn minimal_buffering_is_still_correct() {
    for_each_case(0x13, 10, |m, stim| {
        let mut rf = ReactiveFn::build(m);
        rf.sift(OrderScheme::OutputsAfterSupport);
        let g = build(&rf).unwrap();
        check_machine(m, &g, BufferPolicy::Minimal, Profile::Mcu8, stim);
    });
}

#[test]
fn ite_chain_compiles_and_matches() {
    for_each_case(0x14, 8, |m, stim| {
        let mut rf = ReactiveFn::build(m);
        let g = ite_chain(&mut rf);
        check_machine(m, &g, BufferPolicy::All, Profile::Mcu8, stim);
    });
}

/// ITE chains are the one form whose computed next-state bits can read
/// the control state after storing part of it, so minimal buffering
/// must keep the control-state copy there. A dropped copy only shows when
/// a stored bit changes a later bit's condition, so this runs 8 × 48
/// cases with longer stimuli.
#[test]
fn ite_chain_with_minimal_buffering_matches() {
    for tag in 0x20..0x28 {
        for_each_case(tag, 16, |m, stim| {
            let mut rf = ReactiveFn::build(m);
            let g = ite_chain(&mut rf);
            check_machine(m, &g, BufferPolicy::Minimal, Profile::Mcu8, stim);
        });
    }
}

/// A machine with no transitions has BEGIN -> END: every form compiles,
/// assembles and analyzes to an empty reaction that fires nothing and
/// keeps its state.
#[test]
fn a_machine_without_transitions_reacts_with_nothing() {
    let stim = [(true, true, 3), (false, true, 9), (true, false, 0)];
    for num_states in [1, 2] {
        let m = instantiate(&MachineSpec {
            num_states,
            transitions: Vec::new(),
        });
        let mut rf = ReactiveFn::build(&m);
        rf.sift(OrderScheme::OutputsAfterSupport);
        for g in [build(&rf).unwrap(), ite_chain(&mut rf)] {
            for policy in [BufferPolicy::All, BufferPolicy::Minimal] {
                for profile in [Profile::Mcu8, Profile::Risc32] {
                    check_machine(&m, &g, policy, profile, &stim);
                }
            }
        }
    }
}

#[test]
fn minimal_buffering_never_uses_more_ram() {
    for_each_case(0x15, 2, |m, _stim| {
        let rf = ReactiveFn::build(m);
        let g = build(&rf).unwrap();
        let all = compile(m, &g, BufferPolicy::All);
        let min = compile(m, &g, BufferPolicy::Minimal);
        assert!(min.ram_bytes() <= all.ram_bytes());
        assert!(min.num_local_copies() <= all.num_local_copies());
    });
}
