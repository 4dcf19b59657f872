//! The two-level multi-way jump baseline of Table II.
//!
//! "As a reference, we also compare the result with an implementation which
//! uses a two-level multiway jump structure. The first jump is done based
//! on the current state, the second jump is done based on the concatenation
//! of all the decision variable[s] into a single integer. The jumps are
//! followed by an appropriate sequence of ASSIGNs. This simple
//! implementation (similar to what is often done during structured
//! hand-coding of reactive systems) performs better than the naive
//! ordering, but worse than the optimized decision graph."
//!
//! We materialize the second level as the complete (unshared) decision
//! structure over the state's decision variables — one leaf per variable
//! combination, each holding the ASSIGN sequence of the transition that
//! combination selects. Code size therefore scales with `2^k` per state,
//! which is the behaviour the baseline exists to demonstrate.

use polis_cfsm::Cfsm;
use polis_sgraph::{AssignLabel, NodeId, SGraph, SNode, TestLabel};
use std::convert::Infallible;

/// Decision atoms of one state: presence flags and data tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Atom {
    Present(usize),
    Test(usize),
}

/// Builds the two-level-jump s-graph for `cfsm`.
pub fn two_level_sgraph(cfsm: &Cfsm) -> SGraph {
    let mut g = SGraph::new(format!("{}_2lvl", cfsm.name()));
    let nstates = cfsm.states().len();
    let width = cfsm.ctrl_width();

    let mut state_entries = Vec::with_capacity(nstates);
    for s in 0..nstates {
        state_entries.push(build_state(cfsm, &mut g, s, width));
    }
    if nstates > 1 {
        let root = g.add_node(SNode::Test {
            label: TestLabel::CtrlSwitch { states: nstates },
            children: state_entries,
        });
        g.set_begin(root);
    } else {
        g.set_begin(state_entries[0]);
    }
    debug_assert_eq!(g.validate(), Ok(()));
    g
}

/// Builds the complete decision structure for one state.
fn build_state(cfsm: &Cfsm, g: &mut SGraph, state: usize, width: usize) -> NodeId {
    // Decision variables: atoms referenced by this state's guards.
    let mut presents: Vec<usize> = Vec::new();
    let mut tests: Vec<usize> = Vec::new();
    for t in cfsm.transitions().iter().filter(|t| t.from == state) {
        t.guard.visit_atoms(
            &mut |i| {
                if !presents.contains(&i) {
                    presents.push(i);
                }
            },
            &mut |i| {
                if !tests.contains(&i) {
                    tests.push(i);
                }
            },
        );
    }
    let atoms: Vec<Atom> = presents
        .into_iter()
        .map(Atom::Present)
        .chain(tests.into_iter().map(Atom::Test))
        .collect();
    expand(cfsm, g, state, width, &atoms, &mut Vec::new())
}

/// Recursively expands the decision tree over `atoms[depth..]`; at a leaf,
/// the assignment sequence of the selected transition.
fn expand(
    cfsm: &Cfsm,
    g: &mut SGraph,
    state: usize,
    width: usize,
    atoms: &[Atom],
    taken: &mut Vec<bool>,
) -> NodeId {
    if taken.len() == atoms.len() {
        return leaf(cfsm, g, state, width, atoms, taken);
    }
    let atom = atoms[taken.len()];
    taken.push(false);
    let lo = expand(cfsm, g, state, width, atoms, taken);
    taken.pop();
    taken.push(true);
    let hi = expand(cfsm, g, state, width, atoms, taken);
    taken.pop();
    // Hand-coded style: no sharing, but a test with equal children is
    // something no programmer writes either.
    if lo == hi {
        return lo;
    }
    let label = match atom {
        Atom::Present(input) => TestLabel::Present { input },
        Atom::Test(test) => TestLabel::TestExpr { test },
    };
    g.add_node(SNode::Test {
        label,
        children: vec![lo, hi],
    })
}

fn leaf(
    cfsm: &Cfsm,
    g: &mut SGraph,
    state: usize,
    width: usize,
    atoms: &[Atom],
    taken: &[bool],
) -> NodeId {
    // Reconstruct full presence/test vectors for guard evaluation.
    let mut present = vec![false; cfsm.inputs().len()];
    let mut tests = vec![false; cfsm.tests().len()];
    for (atom, &v) in atoms.iter().zip(taken) {
        match atom {
            Atom::Present(i) => present[*i] = v,
            Atom::Test(i) => tests[*i] = v,
        }
    }
    let Ok(fired) = cfsm.winner(state, &present, &mut |i| Ok::<_, Infallible>(tests[i]));
    let Some(tr) = fired.map(|t| &cfsm.transitions()[t]) else {
        return NodeId::END; // no transition: empty reaction
    };

    // ASSIGN chain: consume, actions, next state — built back to front.
    let mut next = NodeId::END;
    if cfsm.states().len() > 1 {
        let bits: Vec<(usize, bool)> = (0..width)
            .map(|b| (b, (tr.to >> (width - 1 - b)) & 1 == 1))
            .collect();
        next = g.add_node(SNode::Assign {
            label: AssignLabel::NextCtrlBits { bits, width },
            next,
        });
    }
    for &a in tr.actions.iter().rev() {
        next = g.add_node(SNode::Assign {
            label: AssignLabel::Action { action: a },
            next,
        });
    }
    g.add_node(SNode::Assign {
        label: AssignLabel::Consume,
        next,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_cfsm::ReactiveFn;
    use polis_expr::{Expr, MapEnv, Type, Value};
    use polis_sgraph::{build, execute, input_values};
    use std::collections::BTreeSet;

    fn simple() -> Cfsm {
        let mut b = Cfsm::builder("simple");
        b.input_valued("c", Type::uint(8));
        b.output_pure("y");
        b.state_var("a", Type::uint(8), Value::Int(0));
        let s0 = b.ctrl_state("awaiting");
        let eq = b.test("a_eq_c", Expr::var("a").eq(Expr::var("c_value")));
        b.transition(s0, s0)
            .when_present("c")
            .when_test(eq)
            .assign("a", Expr::int(0))
            .emit("y")
            .done();
        b.transition(s0, s0)
            .when_present("c")
            .when_not_test(eq)
            .assign("a", Expr::var("a").add(Expr::int(1)))
            .done();
        b.build().unwrap()
    }

    fn toggler() -> Cfsm {
        let mut b = Cfsm::builder("toggler");
        b.input_pure("tick");
        b.output_pure("on");
        b.output_pure("off");
        let s_off = b.ctrl_state("off");
        let s_on = b.ctrl_state("on");
        b.transition(s_off, s_on)
            .when_present("tick")
            .emit("on")
            .done();
        b.transition(s_on, s_off)
            .when_present("tick")
            .emit("off")
            .done();
        b.build().unwrap()
    }

    #[test]
    fn two_level_matches_reference_semantics() {
        for m in [simple(), toggler()] {
            let g = two_level_sgraph(&m);
            let mut st = m.initial_state();
            // Exhaust the input alphabet for a few steps.
            for step in 0..6 {
                for sigs in [
                    vec![],
                    m.inputs()
                        .iter()
                        .map(|s| s.name().to_owned())
                        .collect::<Vec<_>>(),
                ] {
                    let p: BTreeSet<String> = sigs.iter().cloned().collect();
                    let vals = if m.name() == "simple" {
                        input_values(&[("c", (step % 4) as i64)])
                    } else {
                        MapEnv::new()
                    };
                    let want = m.react(&p, &vals, &st).unwrap();
                    let got = execute(&m, &g, &p, &vals, &st).unwrap();
                    assert_eq!(got.fired, want.fired, "{} step {step}", m.name());
                    assert_eq!(got.next, want.next);
                    assert_eq!(got.emissions.len(), want.emissions.len());
                    st = want.next;
                }
            }
        }
    }

    #[test]
    fn two_level_root_is_state_switch_for_multi_state() {
        let g = two_level_sgraph(&toggler());
        let root = g.begin_next();
        assert!(matches!(
            g.node(root),
            SNode::Test {
                label: TestLabel::CtrlSwitch { states: 2 },
                ..
            }
        ));
    }

    #[test]
    fn two_level_is_larger_than_optimized_graph() {
        // The baseline expands a complete tree; the BDD-derived graph
        // shares subgraphs. On `simple` both are tiny; build a machine
        // with more decision variables to see separation.
        let mut b = Cfsm::builder("wide");
        for i in 0..4 {
            b.input_pure(format!("i{i}"));
        }
        b.output_pure("o");
        let s = b.ctrl_state("s");
        // Fire when any input is present (hand-coders write a cascade).
        for i in 0..4 {
            b.transition(s, s)
                .when_present(&format!("i{i}"))
                .emit("o")
                .done();
        }
        let m = b.build().unwrap();
        let two = two_level_sgraph(&m);
        let rf = ReactiveFn::build(&m);
        let opt = build(&rf).unwrap();
        assert!(
            two.reachable().len() > opt.reachable().len(),
            "two-level {} <= optimized {}",
            two.reachable().len(),
            opt.reachable().len()
        );
    }
}
