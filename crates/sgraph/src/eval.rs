//! The `evaluate` procedure (Definition 2) and a full-reaction wrapper.
//!
//! `evaluate` walks the s-graph from BEGIN to END, querying input atoms
//! lazily ("tests are evaluated as they are needed", Section III-B1) and
//! recording the actions encountered. [`execute`] wraps it into a complete
//! CFSM reaction so synthesized graphs can be checked against the reference
//! semantics of [`Cfsm::react`] — the executable form of Theorem 1.

use crate::graph::{AssignLabel, ComputedTarget, SGraph, SNode, TestLabel};
use polis_cfsm::{value_var_name, Action, Cfsm, CfsmState, Emission, Reaction};
use polis_expr::{Env, EvalExprError, MapEnv, Value};
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Input-atom oracle for [`SGraph::evaluate`].
///
/// Implementations may evaluate lazily and memoize; the s-graph guarantees
/// each atom is queried at most once per path in BDD-derived graphs.
pub trait SgEnv {
    /// Presence of the input event with the given CFSM input index.
    fn present(&mut self, input: usize) -> bool;
    /// Value of the data test with the given CFSM test index.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::Test`] when the underlying expression cannot be
    /// evaluated.
    fn test(&mut self, test: usize) -> Result<bool, EvalError>;
}

/// The result of walking an s-graph once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOutcome {
    /// `true` if a Consume assignment was executed (a transition fired).
    pub fired: bool,
    /// Indices of CFSM actions encountered, in path order.
    pub actions: Vec<usize>,
    /// The next control state (bits not written keep their old value).
    pub next_ctrl: u64,
    /// Number of vertices visited (a dynamic cost measure).
    pub visited: usize,
}

/// Failure while evaluating an s-graph.
#[derive(Debug)]
pub enum EvalError {
    /// A data test's expression failed to evaluate.
    Test {
        /// The test index.
        test: usize,
        /// The underlying error.
        source: EvalExprError,
    },
    /// The control state is outside a CtrlSwitch's arm count.
    CtrlOutOfRange {
        /// The offending control value.
        ctrl: u64,
        /// Number of switch arms.
        states: usize,
    },
    /// An action or emission expression failed to evaluate.
    Action {
        /// The action index.
        action: usize,
        /// The underlying error.
        source: EvalExprError,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Test { test, source } => write!(f, "evaluating test {test}: {source}"),
            EvalError::CtrlOutOfRange { ctrl, states } => {
                write!(f, "control state {ctrl} outside {states} switch arms")
            }
            EvalError::Action { action, source } => {
                write!(f, "executing action {action}: {source}")
            }
        }
    }
}

impl Error for EvalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvalError::Test { source, .. } | EvalError::Action { source, .. } => Some(source),
            EvalError::CtrlOutOfRange { .. } => None,
        }
    }
}

impl SGraph {
    /// Walks the graph once from BEGIN to END (Definition 2's `evaluate`).
    ///
    /// `ctrl` is the current control state; bits the path does not assign
    /// carry over to `next_ctrl` (don't cares resolved as "keep").
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from the atom oracle or a malformed
    /// CtrlSwitch.
    pub fn evaluate(&self, env: &mut dyn SgEnv, ctrl: u64) -> Result<EvalOutcome, EvalError> {
        let mut out = EvalOutcome {
            fired: false,
            actions: Vec::new(),
            next_ctrl: ctrl,
            visited: 0,
        };
        let mut cur = crate::NodeId::BEGIN;
        loop {
            out.visited += 1;
            match self.node(cur) {
                SNode::Begin { next } => cur = *next,
                SNode::End => return Ok(out),
                SNode::Test { label, children } => {
                    let idx = match label {
                        TestLabel::Present { input } => usize::from(env.present(*input)),
                        TestLabel::TestExpr { test } => usize::from(env.test(*test)?),
                        TestLabel::CtrlBit { bit, width } => {
                            ((ctrl >> (width - 1 - bit)) & 1) as usize
                        }
                        TestLabel::CtrlSwitch { states } => {
                            if (ctrl as usize) >= *states {
                                return Err(EvalError::CtrlOutOfRange {
                                    ctrl,
                                    states: *states,
                                });
                            }
                            ctrl as usize
                        }
                        TestLabel::Compound { cond } => usize::from(eval_cond(cond, env, ctrl)?),
                    };
                    cur = children[idx];
                }
                SNode::Assign { label, next } => {
                    match label {
                        AssignLabel::Consume => out.fired = true,
                        AssignLabel::Action { action } => out.actions.push(*action),
                        AssignLabel::NextCtrlBits { bits, width } => {
                            for (bit, v) in bits {
                                let mask = 1u64 << (width - 1 - bit);
                                if *v {
                                    out.next_ctrl |= mask;
                                } else {
                                    out.next_ctrl &= !mask;
                                }
                            }
                        }
                        AssignLabel::Computed { target, cond } => {
                            let v = eval_cond(cond, env, ctrl)?;
                            match target {
                                ComputedTarget::Consume => out.fired = v,
                                ComputedTarget::Action { action } => {
                                    if v {
                                        out.actions.push(*action);
                                    }
                                }
                                ComputedTarget::CtrlBit { bit, width } => {
                                    let mask = 1u64 << (width - 1 - bit);
                                    if v {
                                        out.next_ctrl |= mask;
                                    } else {
                                        out.next_ctrl &= !mask;
                                    }
                                }
                            }
                        }
                    }
                    cur = *next;
                }
            }
        }
    }
}

pub(crate) fn eval_cond(
    cond: &crate::Cond,
    env: &mut dyn SgEnv,
    ctrl: u64,
) -> Result<bool, EvalError> {
    let mut err = None;
    let result = eval_cond_rec(cond, env, ctrl, &mut err);
    match err {
        Some(e) => Err(e),
        None => Ok(result),
    }
}

fn eval_cond_rec(
    cond: &crate::Cond,
    env: &mut dyn SgEnv,
    ctrl: u64,
    err: &mut Option<EvalError>,
) -> bool {
    use crate::Cond;
    match cond {
        Cond::Const(b) => *b,
        Cond::Present(i) => env.present(*i),
        Cond::Test(i) => match env.test(*i) {
            Ok(v) => v,
            Err(e) => {
                err.get_or_insert(e);
                false
            }
        },
        Cond::CtrlBit { bit, width } => (ctrl >> (width - 1 - bit)) & 1 == 1,
        Cond::Not(a) => !eval_cond_rec(a, env, ctrl, err),
        Cond::And(a, b) => eval_cond_rec(a, env, ctrl, err) && eval_cond_rec(b, env, ctrl, err),
        Cond::Or(a, b) => eval_cond_rec(a, env, ctrl, err) || eval_cond_rec(b, env, ctrl, err),
    }
}

/// Lazy, memoizing atom oracle over a CFSM's concrete inputs and state.
struct RuntimeEnv<'a> {
    cfsm: &'a Cfsm,
    present: Vec<bool>,
    tests: Vec<Option<bool>>,
    env: CombinedEnv<'a>,
}

struct CombinedEnv<'a> {
    data: &'a MapEnv,
    values: &'a MapEnv,
}

impl Env for CombinedEnv<'_> {
    fn get(&self, name: &str) -> Option<Value> {
        self.values.get(name).or_else(|| self.data.get(name))
    }
}

impl SgEnv for RuntimeEnv<'_> {
    fn present(&mut self, input: usize) -> bool {
        self.present[input]
    }

    fn test(&mut self, test: usize) -> Result<bool, EvalError> {
        if let Some(v) = self.tests[test] {
            return Ok(v);
        }
        let def = &self.cfsm.tests()[test];
        let v = def
            .expr
            .eval(&self.env)
            .and_then(|v| v.as_bool().map_err(EvalExprError::from))
            .map_err(|source| EvalError::Test { test, source })?;
        self.tests[test] = Some(v);
        Ok(v)
    }
}

/// Runs one full CFSM reaction through a synthesized s-graph: evaluates the
/// graph, then executes the selected actions against the pre-reaction
/// environment — the synthesized counterpart of [`Cfsm::react`].
///
/// Emission *order* follows the s-graph path (the paper: "the ordering of
/// emission of output events is decided statically by our synthesis
/// algorithm"), so compare emission *sets* against the reference.
///
/// # Errors
///
/// Propagates [`EvalError`] from test or action expressions.
pub fn execute(
    cfsm: &Cfsm,
    graph: &SGraph,
    present: &BTreeSet<String>,
    input_values: &MapEnv,
    state: &CfsmState,
) -> Result<Reaction, EvalError> {
    let mut env = RuntimeEnv {
        cfsm,
        present: cfsm
            .inputs()
            .iter()
            .map(|s| present.contains(s.name()))
            .collect(),
        tests: vec![None; cfsm.tests().len()],
        env: CombinedEnv {
            data: &state.data,
            values: input_values,
        },
    };
    let outcome = graph.evaluate(&mut env, state.ctrl as u64)?;

    let eval_env = CombinedEnv {
        data: &state.data,
        values: input_values,
    };
    let mut emissions = Vec::new();
    let mut next_data = state.data.clone();
    for &ai in &outcome.actions {
        match &cfsm.actions()[ai] {
            Action::Emit { signal, value } => {
                let sig = &cfsm.outputs()[*signal];
                let value = match value {
                    None => None,
                    Some(e) => Some(
                        e.eval(&eval_env)
                            .map_err(|source| EvalError::Action { action: ai, source })?
                            .coerce(sig.value_type().expect("valued signal")),
                    ),
                };
                emissions.push(Emission {
                    signal: sig.name().to_owned(),
                    value,
                });
            }
            Action::Assign { var, value } => {
                let sv = &cfsm.state_vars()[*var];
                let v = value
                    .eval(&eval_env)
                    .map_err(|source| EvalError::Action { action: ai, source })?;
                next_data.set(sv.name.clone(), v.coerce(sv.ty));
            }
        }
    }
    Ok(Reaction {
        fired: outcome.fired,
        transition: None,
        emissions,
        next: CfsmState {
            ctrl: outcome.next_ctrl as usize,
            data: next_data,
        },
    })
}

/// Convenience: bundles present-set and value map construction for tests
/// and examples.
pub fn input_values(pairs: &[(&str, i64)]) -> MapEnv {
    pairs
        .iter()
        .map(|(s, v)| (value_var_name(s), Value::Int(*v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use polis_cfsm::{OrderScheme, ReactiveFn};
    use polis_expr::{Expr, Type};

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

    fn present(sigs: &[&str]) -> BTreeSet<String> {
        sigs.iter().map(|s| (*s).to_string()).collect()
    }

    /// Reactions agree up to emission order and the (synthesis-opaque)
    /// transition index.
    fn assert_equivalent(a: &Reaction, b: &Reaction) {
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.next, b.next);
        let mut ea = a.emissions.clone();
        let mut eb = b.emissions.clone();
        ea.sort_by(|x, y| x.signal.cmp(&y.signal));
        eb.sort_by(|x, y| x.signal.cmp(&y.signal));
        assert_eq!(ea, eb);
    }

    #[test]
    fn theorem_1_on_simple_exhaustively() {
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        // Drive both semantics through a stimulus covering all paths and
        // several data values.
        let mut st_ref = m.initial_state();
        let mut st_sg = m.initial_state();
        let stimulus: Vec<(Vec<&str>, i64)> = vec![
            (vec!["c"], 2),
            (vec!["c"], 2),
            (vec![], 5),
            (vec!["c"], 2),
            (vec!["c"], 0),
            (vec!["c"], 1),
        ];
        for (sigs, val) in stimulus {
            let p = present(&sigs);
            let vals = input_values(&[("c", val)]);
            let want = m.react(&p, &vals, &st_ref).unwrap();
            let got = execute(&m, &g, &p, &vals, &st_sg).unwrap();
            assert_equivalent(&got, &want);
            st_ref = want.next;
            st_sg = got.next;
        }
    }

    #[test]
    fn theorem_1_holds_under_all_orderings() {
        let m = simple();
        for scheme in [
            OrderScheme::Natural,
            OrderScheme::OutputsAfterAllInputs,
            OrderScheme::OutputsAfterSupport,
        ] {
            let mut rf = ReactiveFn::build(&m);
            rf.sift(scheme);
            let g = build(&rf).unwrap();
            let mut st = m.initial_state();
            for val in [1i64, 1, 3, 0, 1] {
                let p = present(&["c"]);
                let vals = input_values(&[("c", val)]);
                let want = m.react(&p, &vals, &st).unwrap();
                let got = execute(&m, &g, &p, &vals, &st).unwrap();
                assert_equivalent(&got, &want);
                st = want.next;
            }
        }
    }

    #[test]
    fn no_firing_preserves_state_and_reports_unfired() {
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let st = m.initial_state();
        let r = execute(&m, &g, &present(&[]), &input_values(&[("c", 9)]), &st).unwrap();
        assert!(!r.fired);
        assert_eq!(r.next, st);
        assert!(r.emissions.is_empty());
    }

    #[test]
    fn tests_are_lazy() {
        // When c is absent the a==?c test must not be evaluated: give it an
        // unbound variable environment and check no error surfaces.
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let st = m.initial_state();
        let empty_vals = MapEnv::new(); // c_value unbound!
        let r = execute(&m, &g, &present(&[]), &empty_vals, &st).unwrap();
        assert!(!r.fired);
        // And with c present it *does* error, proving the test runs then.
        let err = execute(&m, &g, &present(&["c"]), &empty_vals, &st);
        assert!(err.is_err());
    }

    #[test]
    fn visited_counts_are_positive_and_bounded() {
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let mut env_impl = RuntimeEnv {
            cfsm: &m,
            present: vec![true],
            tests: vec![Some(true)],
            env: CombinedEnv {
                data: &m.initial_state().data,
                values: &MapEnv::new(),
            },
        };
        let out = g.evaluate(&mut env_impl, 0).unwrap();
        assert!(out.visited >= 2); // at least BEGIN and END
        assert!(out.visited <= g.len());
    }
}
