//! TEST-node collapsing (Section III-B3d).
//!
//! The paper experimented with merging *closed subgraphs* of TEST nodes —
//! regions whose incoming edges all share one parent — into single TEST
//! vertices whose predicate depends on several variables, generating either
//! an if-then-else cascade from the truth table or a Boolean network. The
//! reported outcome: "we never observed an improvement in the final running
//! time or size of the generated code. As a result, we do not currently use
//! TEST node collapsing." We reproduce the transformation (for the
//! ablation benchmark) in its truth-table form, collapsing single-entry
//! regions of binary TESTs that funnel into exactly two exits.

use crate::cond::Cond;
use crate::graph::{NodeId, SGraph, SNode, TestLabel};
use std::collections::HashMap;

/// Maximum number of distinct atoms in one collapsed predicate
/// (truth-table enumeration is `2^MAX_ATOMS`).
const MAX_ATOMS: usize = 4;

/// Returns a copy of `g` with eligible TEST regions collapsed into
/// [`TestLabel::Compound`] vertices of at most four atoms each.
pub fn collapse(g: &SGraph) -> SGraph {
    // Global parent counts decide single-entry membership.
    let mut parents: HashMap<NodeId, usize> = HashMap::new();
    for id in g.reachable() {
        for &c in g.node(id).successors() {
            *parents.entry(c).or_default() += 1;
        }
    }

    let mut out = SGraph::new(g.name().to_owned());
    let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
    let first = conv(g, &mut out, g.begin_next(), &parents, &mut memo);
    out.set_begin(first);
    out.reduce()
}

fn conv(
    g: &SGraph,
    out: &mut SGraph,
    id: NodeId,
    parents: &HashMap<NodeId, usize>,
    memo: &mut HashMap<NodeId, NodeId>,
) -> NodeId {
    if let Some(&m) = memo.get(&id) {
        return m;
    }
    let mapped = match g.node(id) {
        SNode::End => NodeId::END,
        SNode::Begin { .. } => unreachable!("BEGIN is not converted"),
        SNode::Assign { label, next } => {
            let n = conv(g, out, *next, parents, memo);
            out.add_node(SNode::Assign {
                label: label.clone(),
                next: n,
            })
        }
        SNode::Test { label, children } => {
            if let Some((cond, exit0, exit1)) = try_region(g, id, parents) {
                let c0 = conv(g, out, exit0, parents, memo);
                let c1 = conv(g, out, exit1, parents, memo);
                out.add_node(SNode::Test {
                    label: TestLabel::Compound { cond },
                    children: vec![c0, c1],
                })
            } else {
                let cs: Vec<NodeId> = children
                    .iter()
                    .map(|&c| conv(g, out, c, parents, memo))
                    .collect();
                out.add_node(SNode::Test {
                    label: label.clone(),
                    children: cs,
                })
            }
        }
    };
    memo.insert(id, mapped);
    mapped
}

/// Attempts to identify a collapsible region rooted at `root`: a tree of
/// single-entry binary atomic TESTs funnelling into exactly two exits.
/// Returns the predicate selecting exit 1 and the two exits.
fn try_region(
    g: &SGraph,
    root: NodeId,
    parents: &HashMap<NodeId, usize>,
) -> Option<(Cond, NodeId, NodeId)> {
    // Grow the region greedily from the root.
    let mut region = vec![root];
    let mut atoms: Vec<TestLabel> = Vec::new();
    let mut frontier = vec![root];
    while let Some(id) = frontier.pop() {
        let SNode::Test { label, children } = g.node(id) else {
            continue;
        };
        if !atoms.contains(label) {
            if atoms.len() == MAX_ATOMS {
                // Region would exceed the atom budget: exclude this node.
                if id == root {
                    return None;
                }
                region.retain(|&r| r != id);
                continue;
            }
            atoms.push(label.clone());
        }
        for &c in children {
            let eligible = matches!(
                g.node(c),
                SNode::Test {
                    label: TestLabel::Present { .. }
                        | TestLabel::TestExpr { .. }
                        | TestLabel::CtrlBit { .. },
                    ..
                }
            ) && parents.get(&c).copied().unwrap_or(0) == 1
                && !region.contains(&c);
            if eligible {
                region.push(c);
                frontier.push(c);
            }
        }
    }
    if region.len() < 2 || atoms.len() < 2 {
        return None; // nothing to factor
    }

    // Enumerate the truth table over the atoms and trace each combination
    // to its exit.
    let atom_index = |l: &TestLabel| atoms.iter().position(|a| a == l);
    let mut exits: Vec<NodeId> = Vec::new();
    let k = atoms.len();
    let mut table = vec![0usize; 1 << k];
    for bits in 0..1u32 << k {
        let mut cur = root;
        loop {
            if !region.contains(&cur) {
                break;
            }
            let SNode::Test { label, children } = g.node(cur) else {
                break;
            };
            let Some(ai) = atom_index(label) else { break };
            let v = bits >> ai & 1 == 1;
            cur = children[usize::from(v)];
        }
        let e = match exits.iter().position(|&x| x == cur) {
            Some(i) => i,
            None => {
                exits.push(cur);
                exits.len() - 1
            }
        };
        if exits.len() > 2 {
            return None; // only two-exit regions collapse to one Compound
        }
        table[bits as usize] = e;
    }
    if exits.len() != 2 {
        return None;
    }

    // Predicate: OR of minterms selecting exit 1.
    let mut cond = Cond::Const(false);
    for bits in 0..1u32 << k {
        if table[bits as usize] != 1 {
            continue;
        }
        let mut term = Cond::Const(true);
        for (ai, atom) in atoms.iter().enumerate() {
            let a = atom_cond(atom);
            term = term.and(if bits >> ai & 1 == 1 { a } else { a.not() });
        }
        cond = cond.or(term);
    }
    Some((cond, exits[0], exits[1]))
}

fn atom_cond(l: &TestLabel) -> Cond {
    match l {
        TestLabel::Present { input } => Cond::Present(*input),
        TestLabel::TestExpr { test } => Cond::Test(*test),
        TestLabel::CtrlBit { bit, width } => Cond::CtrlBit {
            bit: *bit,
            width: *width,
        },
        _ => unreachable!("only atomic labels are collected"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;
    use crate::eval::{execute, input_values};
    use polis_cfsm::{Cfsm, ReactiveFn};
    use polis_expr::{Expr, Type, Value};
    use std::collections::BTreeSet;

    /// Machine whose s-graph has a collapsible AND-shaped test region:
    /// fire only when both `a` and `b` are present.
    fn both_gate() -> Cfsm {
        let mut b = Cfsm::builder("both");
        b.input_pure("a");
        b.input_pure("b");
        b.output_pure("go");
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("a")
            .when_present("b")
            .emit("go")
            .done();
        b.build().unwrap()
    }

    #[test]
    fn collapse_merges_and_region() {
        let rf = ReactiveFn::build(&both_gate());
        let g = build(&rf).unwrap();
        let before = g.num_tests();
        let c = collapse(&g);
        let after = c.num_tests();
        assert!(after < before, "tests: {before} -> {after}");
        assert_eq!(after, 1);
        let has_compound = c.reachable().iter().any(|&id| {
            matches!(
                c.node(id),
                SNode::Test {
                    label: TestLabel::Compound { .. },
                    ..
                }
            )
        });
        assert!(has_compound);
    }

    #[test]
    fn collapse_preserves_semantics() {
        let m = both_gate();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let c = collapse(&g);
        let st = m.initial_state();
        let vals = input_values(&[]);
        for sigs in [vec![], vec!["a"], vec!["b"], vec!["a", "b"]] {
            let p: BTreeSet<String> = sigs.iter().map(|s| s.to_string()).collect();
            let want = execute(&m, &g, &p, &vals, &st).unwrap();
            let got = execute(&m, &c, &p, &vals, &st).unwrap();
            assert_eq!(got.fired, want.fired, "{sigs:?}");
            assert_eq!(got.emissions, want.emissions, "{sigs:?}");
            assert_eq!(got.next, want.next, "{sigs:?}");
        }
    }

    #[test]
    fn collapse_preserves_semantics_on_valued_machine() {
        let mut b = Cfsm::builder("mix");
        b.input_valued("x", Type::uint(4));
        b.input_pure("en");
        b.output_pure("hit");
        b.state_var("t", Type::uint(4), Value::Int(5));
        let s = b.ctrl_state("s");
        let ge = b.test("ge", Expr::var("x_value").ge(Expr::var("t")));
        b.transition(s, s)
            .when_present("x")
            .when_present("en")
            .when_test(ge)
            .emit("hit")
            .done();
        let m = b.build().unwrap();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let c = collapse(&g);
        let st = m.initial_state();
        for x in 0..8i64 {
            for sigs in [vec![], vec!["x"], vec!["en"], vec!["x", "en"]] {
                let p: BTreeSet<String> = sigs.iter().map(|s| s.to_string()).collect();
                let vals = input_values(&[("x", x)]);
                let want = execute(&m, &g, &p, &vals, &st).unwrap();
                let got = execute(&m, &c, &p, &vals, &st).unwrap();
                assert_eq!(got.fired, want.fired, "x={x} {sigs:?}");
                assert_eq!(got.next, want.next, "x={x} {sigs:?}");
            }
        }
    }

    /// Distinct atoms of a collapsed predicate.
    fn atoms(c: &Cond, out: &mut BTreeSet<String>) {
        match c {
            Cond::Const(_) => {}
            Cond::Not(a) => atoms(a, out),
            Cond::And(a, b) | Cond::Or(a, b) => {
                atoms(a, out);
                atoms(b, out);
            }
            atom => {
                out.insert(atom.to_string());
            }
        }
    }

    /// Fires only when all of `n` pure inputs are present: an AND region
    /// of `n` presence atoms.
    fn all_of(n: usize) -> Cfsm {
        let mut b = Cfsm::builder("all");
        let names: Vec<String> = (0..n).map(|i| format!("i{i}")).collect();
        for name in &names {
            b.input_pure(name.as_str());
        }
        b.output_pure("go");
        let s = b.ctrl_state("s");
        let mut t = b.transition(s, s);
        for name in &names {
            t = t.when_present(name);
        }
        t.emit("go").done();
        b.build().unwrap()
    }

    #[test]
    fn atom_budget_respected() {
        // Four atoms fit one compound TEST; a fifth stays outside it.
        for (n, tests_after) in [(4, 1), (5, 2)] {
            let m = all_of(n);
            let g = build(&ReactiveFn::build(&m)).unwrap();
            assert_eq!(g.num_tests(), n);
            let c = collapse(&g);
            assert_eq!(c.num_tests(), tests_after, "{n} atoms");
            for id in c.reachable() {
                if let SNode::Test {
                    label: TestLabel::Compound { cond },
                    ..
                } = c.node(id)
                {
                    let mut seen = BTreeSet::new();
                    atoms(cond, &mut seen);
                    assert!(seen.len() <= MAX_ATOMS, "{n} atoms: {cond}");
                }
            }
            let st = m.initial_state();
            for mask in 0..1u32 << n {
                let p: BTreeSet<String> = (0..n)
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| format!("i{i}"))
                    .collect();
                let vals = input_values(&[]);
                let want = execute(&m, &g, &p, &vals, &st).unwrap();
                let got = execute(&m, &c, &p, &vals, &st).unwrap();
                assert_eq!(got.emissions, want.emissions, "{n} atoms, {p:?}");
            }
        }
    }
}
