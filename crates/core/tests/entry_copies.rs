//! The C and the object code make the same entry copies.
//!
//! Both back ends take their copies from `EntryCopies::of`, so for every
//! machine, style and buffering policy the C's reaction routine declares
//! the control-state local iff the compiled program has a `CtrlLocal`
//! slot, and its state-variable locals are exactly the program's
//! `LocalCopy` slots. The estimator counts the same copies.

use polis_cfsm::compose::compose;
use polis_cfsm::Cfsm;
use polis_codegen::{emit_c, CodegenOptions};
use polis_core::random::{random_cfsm, RandomSpec, Rng};
use polis_core::{synthesize_graph, workloads, ImplStyle, SynthCtx, SynthesisOptions};
use polis_estimate::{calibrate, estimate};
use polis_sgraph::BufferPolicy;
use polis_vm::{compile, Profile, SlotKind};
use std::collections::BTreeSet;

/// Every machine of the four example specs, both composed products, and
/// 120 seeded random machines with one to five control states.
fn subjects() -> Vec<Cfsm> {
    let mut out = Vec::new();
    for (spec, _) in workloads::EXAMPLES {
        out.extend(workloads::spec(spec).network.cfsms().iter().cloned());
    }
    for net in [workloads::dashboard(), workloads::shock_absorber()] {
        out.push(compose(&net).expect("the example networks compose"));
    }
    let mut rng = Rng::new(0xe0c0_91e5);
    for _ in 0..120 {
        let spec = RandomSpec {
            states: rng.usize(1..6),
            pure_inputs: rng.usize(1..4),
            valued_inputs: rng.usize(0..3),
            outputs: rng.usize(1..4),
            vars: rng.usize(0..3),
            transitions: rng.usize(1..16),
        };
        out.push(random_cfsm("rnd", &spec, rng.next_u64()));
    }
    out
}

/// The names the reaction routine copies on entry: every
/// `<type> <name> = st-><name>;` line before its first label.
fn c_entry_copies(c: &str) -> BTreeSet<String> {
    let body = &c[c.find("_react(").expect("a reaction routine")..];
    body.lines()
        .skip(2)
        .take_while(|l| !l.starts_with('L'))
        .filter_map(|l| {
            let (decl, src) = l.trim().strip_suffix(';')?.split_once(" = st->")?;
            let name = decl.rsplit(' ').next()?;
            assert_eq!(name, src, "entry copy `{l}`");
            Some(name.to_owned())
        })
        .collect()
}

#[test]
fn c_and_object_code_make_the_same_entry_copies() {
    let params = calibrate(Profile::Mcu8);
    let per_copy = params.local_init.bytes;
    let styles = [
        (ImplStyle::DecisionGraph, false),
        (ImplStyle::DecisionGraph, true),
        (ImplStyle::IteChain, false),
        (ImplStyle::TwoLevel, false),
    ];
    let mut ctrl_copies = [0usize; 2];
    for m in subjects() {
        for (style, collapse) in styles {
            let opts = SynthesisOptions {
                style,
                collapse,
                ..SynthesisOptions::default()
            };
            let g = synthesize_graph(&mut SynthCtx::new(&opts), &m).expect("synthesizes");
            let mut est_bytes = [0u64; 2];
            let mut obj_copies = [0usize; 2];
            for (p, policy) in [BufferPolicy::All, BufferPolicy::Minimal]
                .into_iter()
                .enumerate()
            {
                let at = format!("{} {style:?} collapse={collapse} {policy:?}", m.name());
                let prog = compile(&m, &g, policy);
                let slots = prog.slots();
                let ctrl_local = slots.iter().any(|s| s.kind == SlotKind::CtrlLocal);
                let locals: BTreeSet<String> = slots
                    .iter()
                    .filter_map(|s| match s.kind {
                        SlotKind::LocalCopy { of } => Some(slots[usize::from(of)].name.clone()),
                        _ => None,
                    })
                    .collect();
                let c = emit_c(&m, &g, &CodegenOptions { buffering: policy });
                let mut copies = c_entry_copies(&c);
                assert_eq!(
                    copies.remove("ctrl"),
                    ctrl_local,
                    "{at}: control state\n{c}"
                );
                assert_eq!(copies, locals, "{at}: state variables\n{c}");
                ctrl_copies[p] += usize::from(ctrl_local);
                obj_copies[p] = prog.num_local_copies();
                est_bytes[p] = estimate(&m, &g, &params, policy).size_bytes;
            }
            // The estimator charges one local initialization per copy the
            // object code makes (within the rounding of each estimate).
            let saved = (obj_copies[0] - obj_copies[1]) as f64 * per_copy;
            let est_saved = est_bytes[0] as f64 - est_bytes[1] as f64;
            assert!(
                (est_saved - saved).abs() <= 1.0,
                "{} {style:?} collapse={collapse}: the estimate saves {est_saved} B, \
                 the object code drops {} copies",
                m.name(),
                obj_copies[0] - obj_copies[1]
            );
        }
    }
    // Minimal buffering keeps the control-state copy in some routines (ITE
    // chains) and drops it in others.
    assert!(
        0 < ctrl_copies[1] && ctrl_copies[1] < ctrl_copies[0],
        "{ctrl_copies:?}"
    );
}
