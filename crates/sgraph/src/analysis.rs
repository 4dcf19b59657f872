//! Entry copies: which locations a reaction routine copies on entry.
//!
//! A reaction reads the *pre-reaction* state, but its routine writes the
//! state in place, so a location read after it has been written on some
//! path must be read from a copy taken on entry. The shock-absorber
//! experiment (Section V-B) attributes most of the synthesized ROM/RAM
//! overhead to the blanket copy of "all variables used by an s-graph upon
//! entry", and announces "a data flow analysis step that will allow us to
//! detect write-before-read cases that require such buffering" as future
//! work.
//!
//! [`EntryCopies::of`] is the one place that decides the copies; the C
//! emitter, the object-code compiler and the estimators all read it. The
//! locations are the state variables and the control state. Under
//! [`BufferPolicy::All`] every referenced state variable is copied, and
//! the control state whenever the machine has more than one. Under
//! [`BufferPolicy::Minimal`] a forward write-before-read pass copies a
//! location only if some path reads it after writing it. A state variable
//! is read by a test, an emission value or an assignment right-hand side,
//! and written by an assignment. The control state is read by
//! control-bit and control-switch tests and by control bits inside
//! collapsed or computed conditions, and written by next-state
//! assignments.

use crate::graph::{AssignLabel, ComputedTarget, SGraph, SNode, TestLabel};
use crate::Cond;
use polis_cfsm::{Action, Cfsm};
use std::collections::BTreeSet;

/// How aggressively code generators buffer the state on reaction entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferPolicy {
    /// Copy every referenced variable and the control state (the paper's
    /// implementation, whose ROM/RAM cost Section V-B discusses).
    All,
    /// Copy only locations with a write-before-read hazard (the paper's
    /// announced future-work data-flow optimization).
    Minimal,
}

/// The locations a reaction routine copies on entry under a
/// [`BufferPolicy`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EntryCopies {
    /// Copied state variables, by name.
    pub vars: BTreeSet<String>,
    /// Whether the control state is copied.
    pub ctrl: bool,
}

impl EntryCopies {
    /// The entry copies of the routine implementing `cfsm` as `g`.
    pub fn of(cfsm: &Cfsm, g: &SGraph, policy: BufferPolicy) -> EntryCopies {
        let multi_state = cfsm.states().len() > 1;
        let (vars, ctrl) = match policy {
            BufferPolicy::All => (vars_referenced(cfsm, g), multi_state),
            BufferPolicy::Minimal => {
                let mut need = write_before_read(cfsm, g);
                let ctrl = need.remove(&ctrl_location(cfsm));
                (need, ctrl && multi_state)
            }
        };
        EntryCopies {
            vars: vars
                .into_iter()
                .map(|v| cfsm.state_vars()[v].name.clone())
                .collect(),
            ctrl,
        }
    }

    /// Number of copies, each one local initialization on entry.
    pub fn count(&self) -> usize {
        self.vars.len() + usize::from(self.ctrl)
    }
}

/// The control state's location: state variable `i` is location `i`.
fn ctrl_location(cfsm: &Cfsm) -> usize {
    cfsm.state_vars().len()
}

/// Every state variable the reachable part of `g` reads or writes.
fn vars_referenced(cfsm: &Cfsm, g: &SGraph) -> BTreeSet<usize> {
    let ctrl = ctrl_location(cfsm);
    let mut out = BTreeSet::new();
    for id in g.reachable() {
        accesses(cfsm, g.node(id), ctrl, &mut |loc, _| {
            out.insert(loc);
        });
    }
    out.remove(&ctrl);
    out
}

/// The locations some path reads after writing them: a forward pass that
/// accumulates, for each vertex, the locations possibly written on *some*
/// path to it.
fn write_before_read(cfsm: &Cfsm, g: &SGraph) -> BTreeSet<usize> {
    let ctrl = ctrl_location(cfsm);
    let mut written_before: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g.len()];
    let mut need = BTreeSet::new();
    for id in g.topo_order() {
        let node = g.node(id);
        let before = std::mem::take(&mut written_before[id.index()]);
        let mut after = before.clone();
        accesses(cfsm, node, ctrl, &mut |loc, write| {
            if write {
                after.insert(loc);
            } else if before.contains(&loc) {
                need.insert(loc);
            }
        });
        for s in node.successors() {
            written_before[s.index()].extend(&after);
        }
    }
    need
}

/// Calls `f(location, is_write)` for every location `node` reads or
/// writes; `ctrl` is the control state's location.
fn accesses(cfsm: &Cfsm, node: &SNode, ctrl: usize, f: &mut impl FnMut(usize, bool)) {
    match node {
        SNode::Begin { .. } | SNode::End => {}
        SNode::Test { label, .. } => match label {
            TestLabel::Present { .. } => {}
            TestLabel::TestExpr { test } => expr_reads(cfsm, &cfsm.tests()[*test].expr, f),
            TestLabel::CtrlBit { .. } | TestLabel::CtrlSwitch { .. } => f(ctrl, false),
            TestLabel::Compound { cond } => cond_reads(cfsm, cond, ctrl, f),
        },
        SNode::Assign { label, .. } => match label {
            AssignLabel::Consume => {}
            AssignLabel::Action { action } => action_accesses(cfsm, *action, f),
            AssignLabel::NextCtrlBits { .. } => f(ctrl, true),
            AssignLabel::Computed { target, cond } => {
                cond_reads(cfsm, cond, ctrl, f);
                match target {
                    ComputedTarget::Consume => {}
                    ComputedTarget::Action { action } => action_accesses(cfsm, *action, f),
                    ComputedTarget::CtrlBit { .. } => f(ctrl, true),
                }
            }
        },
    }
}

fn action_accesses(cfsm: &Cfsm, action: usize, f: &mut impl FnMut(usize, bool)) {
    match &cfsm.actions()[action] {
        Action::Emit { value, .. } => {
            if let Some(e) = value {
                expr_reads(cfsm, e, f);
            }
        }
        Action::Assign { var, value } => {
            expr_reads(cfsm, value, f);
            f(*var, true);
        }
    }
}

fn expr_reads(cfsm: &Cfsm, e: &polis_expr::Expr, f: &mut impl FnMut(usize, bool)) {
    e.visit_vars(&mut |name| {
        if let Some(v) = cfsm.state_var_index(name) {
            f(v, false);
        }
    });
}

fn cond_reads(cfsm: &Cfsm, cond: &Cond, ctrl: usize, f: &mut impl FnMut(usize, bool)) {
    match cond {
        Cond::Test(t) => expr_reads(cfsm, &cfsm.tests()[*t].expr, f),
        Cond::CtrlBit { .. } => f(ctrl, false),
        Cond::Not(a) => cond_reads(cfsm, a, ctrl, f),
        Cond::And(a, b) | Cond::Or(a, b) => {
            cond_reads(cfsm, a, ctrl, f);
            cond_reads(cfsm, b, ctrl, f);
        }
        Cond::Const(_) | Cond::Present(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use crate::ite_chain;
    use polis_cfsm::{Cfsm, ReactiveFn};
    use polis_expr::{Expr, Type, Value};

    /// simple: both transitions assign `a`, and the test reads `a`, but the
    /// test is evaluated *before* any assignment on every path, so no
    /// buffering is needed.
    #[test]
    fn simple_needs_no_buffering() {
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
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        assert_eq!(
            EntryCopies::of(&m, &g, BufferPolicy::Minimal),
            EntryCopies::default()
        );
        assert_eq!(
            EntryCopies::of(&m, &g, BufferPolicy::All),
            EntryCopies {
                vars: ["a".to_string()].into_iter().collect(),
                ctrl: false,
            }
        );
    }

    /// Swap via two assignments: y := x runs after x := y on some path
    /// order, so at least one variable needs buffering.
    #[test]
    fn swap_needs_buffering() {
        let mut b = Cfsm::builder("swap");
        b.input_pure("go");
        b.state_var("x", Type::uint(8), Value::Int(1));
        b.state_var("y", Type::uint(8), Value::Int(2));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("x", Expr::var("y"))
            .assign("y", Expr::var("x"))
            .done();
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let need = EntryCopies::of(&m, &g, BufferPolicy::Minimal).vars;
        assert!(!need.is_empty(), "swap requires at least one buffer");
    }

    /// An emission whose value reads a variable assigned earlier on the
    /// path must also trigger buffering.
    #[test]
    fn emit_after_write_needs_buffering() {
        let mut b = Cfsm::builder("ew");
        b.input_pure("go");
        b.output_valued("out", Type::uint(8));
        b.state_var("n", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("n", Expr::var("n").add(Expr::int(1)))
            .emit_value("out", Expr::var("n"))
            .done();
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        // Whether `n` needs buffering depends on the action order on the
        // path; the analysis must be conservative over the actual graph.
        let need = EntryCopies::of(&m, &g, BufferPolicy::Minimal).vars;
        // The assignment and the emission both appear; if the assignment
        // precedes the emission in the BDD order, n must be buffered.
        let order_has_write_first = {
            let mut saw_write = false;
            let mut read_after = false;
            for id in g.topo_order() {
                if let SNode::Assign {
                    label: AssignLabel::Action { action },
                    ..
                } = g.node(id)
                {
                    match &m.actions()[*action] {
                        Action::Assign { .. } => saw_write = true,
                        Action::Emit { .. } if saw_write => read_after = true,
                        Action::Emit { .. } => {}
                    }
                }
            }
            read_after
        };
        assert_eq!(need.contains("n"), order_has_write_first);
    }

    /// s0 → s1 → s2 → s0 on each `tick`: two control bits.
    fn ring() -> Cfsm {
        let mut b = Cfsm::builder("ring");
        b.input_pure("tick");
        b.output_pure("wrap");
        let s: Vec<_> = (0..3).map(|i| b.ctrl_state(format!("s{i}"))).collect();
        b.transition(s[0], s[1]).when_present("tick").done();
        b.transition(s[1], s[2]).when_present("tick").done();
        b.transition(s[2], s[0])
            .when_present("tick")
            .emit("wrap")
            .done();
        b.build().unwrap()
    }

    /// A decision graph tests the control state before it assigns the
    /// next one, so only buffer-all copies it.
    #[test]
    fn decision_graphs_read_the_control_state_before_writing_it() {
        let m = ring();
        let g = build(&ReactiveFn::build(&m)).unwrap();
        assert!(EntryCopies::of(&m, &g, BufferPolicy::All).ctrl);
        assert_eq!(
            EntryCopies::of(&m, &g, BufferPolicy::Minimal),
            EntryCopies::default()
        );
    }

    /// An ITE chain computes the second next-state bit from the current
    /// control state after it has stored the first one.
    #[test]
    fn ite_chains_read_the_control_state_after_writing_it() {
        let m = ring();
        let g = ite_chain(&mut ReactiveFn::build(&m));
        let copies = EntryCopies::of(&m, &g, BufferPolicy::Minimal);
        assert!(copies.ctrl && copies.vars.is_empty(), "{copies:?}");
        assert_eq!(copies.count(), 1);
    }
}
