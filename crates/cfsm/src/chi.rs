//! The reactive function of a CFSM as a BDD-represented characteristic
//! function.
//!
//! Following Section III-B1, a CFSM transition function is split into tests,
//! actions, and a purely Boolean *reactive function* `f` mapping subsets of
//! tests to subsets of actions. `f` is represented by its characteristic
//! function `χ(x, z)` (Section II-C): `χ = 1` iff output assignment `z` is
//! allowed for input assignment `x`.
//!
//! Input variables of `χ` (in declaration order):
//!
//! 1. one presence flag per input signal,
//! 2. the binary-encoded control state (a sifting group),
//! 3. one boolean per data test.
//!
//! Output variables:
//!
//! 1. `consume` — 1 iff some transition fired (drives RTOS event
//!    consumption, Section IV-D),
//! 2. one boolean per action,
//! 3. the binary-encoded next control state (a sifting group).
//!
//! The next control state is *unconstrained* when no transition fires, so a
//! reaction that fires nothing generates no next-state assignment — the
//! don't-care flexibility of Section III-B2. `χ` is therefore in general an
//! incompletely specified function; the s-graph builder resolves don't
//! cares by emitting no assignment (the "cheapest option" in the paper).
//!
//! `χ` is built one control state at a time. Guards of different source
//! states are disjoint, so priority only matters among the transitions
//! that leave the same state: each state keeps its own priority chain,
//! built from its last transition to its first. Starting from the quiet
//! cube (nothing consumed or emitted, next state free), each transition
//! wraps its state's chain as `ite(guard, cube, chain)`; `ite` gives the
//! earlier transition priority. The guard is translated by
//! [`Guard::to_bdd`](crate::Guard::to_bdd) over the presence and test
//! variables, and the cube is `consume ∧` the transition's
//! [`action_cube`]. Outputs are declared after inputs, so each cube is
//! built bottom-up before it enters a chain. [`MvVar::select`] then joins
//! the chains with a multiplexer over the control bits: code `s` selects
//! the chain of state `s`, and a code no state uses selects the quiet
//! cube. A chain step therefore walks only its own state's chain, not
//! the partial χ of every state.
//!
//! Every step replaces a chain, so a machine with many transitions
//! builds mostly garbage. A [`GcTrigger`] rooted at the consume literals,
//! the quiet cube and every chain collects it once the arena passes
//! 4,096 nodes, re-armed at twice the live set; it is also checked
//! between the multiplexer's merges, rooted at the halves still to be
//! merged. Small machines never reach the floor and pay one comparison
//! per transition. Collection changes no function a root denotes, so χ
//! is the same canonical handle either way.

use crate::machine::Cfsm;
use polis_bdd::encode::MvVar;
use polis_bdd::reorder::SiftConfig;
use polis_bdd::{Bdd, GcTrigger, NodeRef};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// χ construction never collects below this many arena nodes, so small
/// machines (nearly all of them) pay one comparison per term.
const CHI_GC_FLOOR: usize = 1 << 12;

/// After a collection during χ construction, the next one is armed at
/// this multiple of the live set.
const CHI_GC_REGROW: usize = 2;

/// Which side of the reactive function a variable belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Tested by the reactive function.
    Input,
    /// Produced by the reactive function.
    Output,
}

/// Location of a BDD variable within the reactive function's variable list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarLoc {
    /// Input or output side.
    pub side: Side,
    /// Index into [`ReactiveFn::inputs`] or [`ReactiveFn::outputs`].
    pub var: usize,
    /// Bit position within the variable (0 = MSB), for multi-bit variables.
    pub bit: usize,
}

/// What a reactive-function variable means to the synthesized code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RfVarKind {
    /// Presence flag of the input signal with the given index (an RTOS
    /// event-detection call in generated code).
    Present {
        /// Index into [`Cfsm::inputs`].
        input: usize,
    },
    /// The current control state (multi-valued).
    Ctrl,
    /// The data test with the given index (an expression evaluation).
    Test {
        /// Index into [`Cfsm::tests`].
        test: usize,
    },
    /// The implicit "a transition fired, consume inputs" flag.
    Consume,
    /// The action with the given index (an emission or assignment).
    Action {
        /// Index into [`Cfsm::actions`].
        action: usize,
    },
    /// The next control state (multi-valued).
    NextCtrl,
}

/// One (possibly multi-bit) variable of the reactive function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RfVar {
    /// Diagnostic name.
    pub name: String,
    /// Meaning for synthesis.
    pub kind: RfVarKind,
    /// The encoding bits, MSB first (length 1 for booleans).
    pub bits: Vec<polis_bdd::Var>,
    /// Domain size (2 for booleans).
    pub domain: u64,
}

/// Variable-ordering schemes from Section III-B3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderScheme {
    /// The declaration order, unsifted ("naive ordering" in Table II).
    Natural,
    /// Sifting restricted so all outputs appear after all inputs.
    OutputsAfterAllInputs,
    /// Sifting restricted so each output appears after its own support
    /// (the paper's default: better subgraph sharing, smaller code).
    OutputsAfterSupport,
}

/// The BDD of a CFSM's characteristic function, with variable metadata.
///
/// Build with [`ReactiveFn::build`], optimize the order with
/// [`ReactiveFn::sift`], then hand to the s-graph builder.
#[derive(Debug)]
pub struct ReactiveFn {
    name: String,
    bdd: Bdd,
    chi: NodeRef,
    inputs: Vec<RfVar>,
    outputs: Vec<RfVar>,
    /// Location of each variable, indexed by [`polis_bdd::Var::index`].
    loc: Vec<Option<VarLoc>>,
    /// The input support of each output, once [`ReactiveFn::output_supports`]
    /// has computed it.
    supports: Option<Vec<Vec<polis_bdd::Var>>>,
}

impl ReactiveFn {
    /// Constructs `χ` for `cfsm`.
    ///
    /// Machines with a single control state get no control-state variables
    /// (the state contributes nothing to the function).
    pub fn build(cfsm: &Cfsm) -> ReactiveFn {
        let mut bdd = Bdd::new();
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();

        // -- input variables --
        let mut present = Vec::with_capacity(cfsm.inputs().len());
        for (i, sig) in cfsm.inputs().iter().enumerate() {
            let v = bdd.new_var(crate::signal::present_flag_name(sig.name()));
            present.push(v);
            inputs.push(RfVar {
                name: crate::signal::present_flag_name(sig.name()),
                kind: RfVarKind::Present { input: i },
                bits: vec![v],
                domain: 2,
            });
        }
        let nstates = cfsm.states().len() as u64;
        let ctrl = (nstates > 1).then(|| {
            let mv = MvVar::new(&mut bdd, "ctrl", nstates);
            inputs.push(RfVar {
                name: "ctrl".to_owned(),
                kind: RfVarKind::Ctrl,
                bits: mv.bits().to_vec(),
                domain: nstates,
            });
            mv
        });
        let mut tests = Vec::with_capacity(cfsm.tests().len());
        for (i, t) in cfsm.tests().iter().enumerate() {
            let v = bdd.new_var(format!("test_{}", t.name));
            tests.push(v);
            inputs.push(RfVar {
                name: format!("test_{}", t.name),
                kind: RfVarKind::Test { test: i },
                bits: vec![v],
                domain: 2,
            });
        }

        // -- output variables --
        let consume = bdd.new_var("consume");
        outputs.push(RfVar {
            name: "consume".to_owned(),
            kind: RfVarKind::Consume,
            bits: vec![consume],
            domain: 2,
        });
        for (i, _) in cfsm.actions().iter().enumerate() {
            let name = format!("act_{}", cfsm.action_label(i));
            let v = bdd.new_var(name.clone());
            outputs.push(RfVar {
                name,
                kind: RfVarKind::Action { action: i },
                bits: vec![v],
                domain: 2,
            });
        }
        let next_ctrl = (nstates > 1).then(|| {
            let mv = MvVar::new(&mut bdd, "next_ctrl", nstates);
            outputs.push(RfVar {
                name: "next_ctrl".to_owned(),
                kind: RfVarKind::NextCtrl,
                bits: mv.bits().to_vec(),
                domain: nstates,
            });
            mv
        });

        let mut rf = ReactiveFn {
            name: cfsm.name().to_owned(),
            bdd,
            chi: NodeRef::FALSE,
            inputs,
            outputs,
            loc: Vec::new(),
            supports: None,
        };

        // -- χ as one priority ITE chain per control state, multiplexed --
        let consume_pos = rf.bdd.var(consume);
        let consume_neg = rf.bdd.nvar(consume);
        let action_vars: Vec<polis_bdd::Var> = rf
            .outputs
            .iter()
            .filter(|v| matches!(v.kind, RfVarKind::Action { .. }))
            .map(|v| v.bits[0])
            .collect();

        // Innermost: nothing fired, nothing emitted, next state unconstrained
        // (don't care — the implementation keeps the state by not writing).
        // Each transition, last first, wraps the chain of its source state
        // (see the module docs); dead chains are collected against the
        // consume literals, the quiet cube and every chain.
        let mut trigger = GcTrigger::new(CHI_GC_FLOOR, CHI_GC_REGROW);
        let quiet = action_cube(&mut rf.bdd, &action_vars, &[], NodeRef::TRUE);
        let quiet = rf.bdd.and(consume_neg, quiet);
        let mut chains = vec![quiet; cfsm.states().len()];
        for t in cfsm.transitions().iter().rev() {
            let roots = [consume_pos, consume_neg, quiet];
            trigger.collect(&mut rf.bdd, roots.into_iter().chain(chains.iter().copied()));
            let guard = t.guard.to_bdd(&mut rf.bdd, &present, &tests);
            if guard.is_false() {
                continue;
            }
            let next = match &next_ctrl {
                Some(mv) => mv.eq_const(&mut rf.bdd, t.to as u64),
                None => NodeRef::TRUE,
            };
            let cube = action_cube(&mut rf.bdd, &action_vars, &t.actions, next);
            let cube = rf.bdd.and(consume_pos, cube);
            chains[t.from] = rf.bdd.ite(guard, cube, chains[t.from]);
        }
        // The control code selects its state's chain; between merges the
        // trigger is rooted at the halves still to be merged.
        let chi = match &ctrl {
            Some(mv) => mv.select(&mut rf.bdd, &chains, quiet, |bdd, live| {
                trigger.collect(bdd, live.iter().copied());
            }),
            None => chains[0],
        };

        rf.chi = chi;
        rf.bdd.gc(&[chi]);
        rf.rebuild_loc();
        rf
    }

    fn rebuild_loc(&mut self) {
        self.loc = vec![None; self.bdd.num_vars()];
        for (side, list) in [(Side::Input, &self.inputs), (Side::Output, &self.outputs)] {
            for (vi, rv) in list.iter().enumerate() {
                for (bi, &b) in rv.bits.iter().enumerate() {
                    self.loc[b.index()] = Some(VarLoc {
                        side,
                        var: vi,
                        bit: bi,
                    });
                }
            }
        }
    }

    /// The name of the CFSM this reactive function belongs to.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying BDD manager.
    pub fn bdd(&self) -> &Bdd {
        &self.bdd
    }

    /// Mutable access to the manager (for quantification by analyses).
    pub fn bdd_mut(&mut self) -> &mut Bdd {
        &mut self.bdd
    }

    /// The characteristic function.
    pub fn chi(&self) -> NodeRef {
        self.chi
    }

    /// Input variables, in declaration order.
    pub fn inputs(&self) -> &[RfVar] {
        &self.inputs
    }

    /// Output variables, in declaration order.
    pub fn outputs(&self) -> &[RfVar] {
        &self.outputs
    }

    /// Locates a BDD variable within the input/output lists.
    pub fn locate(&self, v: polis_bdd::Var) -> Option<VarLoc> {
        self.loc.get(v.index()).copied().flatten()
    }

    /// Current BDD size of `χ`.
    pub fn size(&self) -> usize {
        self.bdd.size(&[self.chi])
    }

    /// For each output variable, the set of *input* variables in its
    /// support, in declaration order: the inputs on which the (partially
    /// specified) output function `∃(O∖o). χ` essentially depends.
    ///
    /// A support belongs to the function, not to the variable order, so it
    /// is computed once, on the first call, and returned by every later
    /// call and reused by every sift.
    ///
    /// # Panics
    ///
    /// On the first call, panics if an output variable sits above an input
    /// variable. Sifting under [`OrderScheme::OutputsAfterSupport`] makes
    /// such orders, and it computes the supports before it starts.
    pub fn output_supports(&mut self) -> Vec<Vec<polis_bdd::Var>> {
        if self.supports.is_none() {
            self.supports = Some(self.compute_supports());
        }
        self.supports.clone().expect("supports were just computed")
    }

    /// With every input above every output, `∃(O∖o)` leaves the input part
    /// of χ alone and only replaces each output-part subgraph hanging from
    /// it (a *leaf*) by its own quantified form. So per output, one pass
    /// over the input part, children first, labels each node with a
    /// hash-consed id of its quantified function, and an input variable is
    /// in the support iff one of its nodes keeps two different child ids.
    ///
    /// A leaf quantified down to one single-bit output `o` is `0`, `o`,
    /// `¬o` or `1`: which values of `o` it admits. One pass over the output
    /// part ([`Admitted`]) finds those for every output bit at once, so
    /// only the multi-bit next-state group quantifies its leaves.
    fn compute_supports(&mut self) -> Vec<Vec<polis_bdd::Var>> {
        let n_in: usize = self.inputs.iter().map(|v| v.bits.len()).sum();
        assert!(
            self.inputs
                .iter()
                .flat_map(|v| &v.bits)
                .all(|&b| self.bdd.level(b) < n_in),
            "output supports are first computed with every input above every output"
        );
        let bdd = &self.bdd;
        let input_var = |n: NodeRef| bdd.node_var(n).filter(|&v| bdd.level(v) < n_in);

        // The input part of χ, children first, over signed handles: a node
        // reached through a complement edge is a different function, and
        // so is its leaf below.
        // `index[h]` is the item of handle `h` (`u32::MAX` = not listed
        // yet), grown on demand.
        let mut items: Vec<PartItem> = Vec::new();
        let mut index: Vec<u32> = Vec::new();
        let listed = |index: &[u32], n: NodeRef| index.get(n.index()).copied().unwrap_or(u32::MAX);
        let mut stack = vec![(self.chi, false)];
        while let Some((n, children_done)) = stack.pop() {
            if children_done {
                let item = match input_var(n) {
                    Some(v) => {
                        PartItem::Node(v, index[bdd.lo(n).index()], index[bdd.hi(n).index()])
                    }
                    None => PartItem::Leaf(n),
                };
                if index.len() <= n.index() {
                    index.resize(n.index() + 1, u32::MAX);
                }
                index[n.index()] = items.len() as u32;
                items.push(item);
            } else if listed(&index, n) == u32::MAX {
                stack.push((n, true));
                if input_var(n).is_some() {
                    stack.push((bdd.hi(n), false));
                    stack.push((bdd.lo(n), false));
                }
            }
        }

        let all_output_bits: Vec<polis_bdd::Var> = self
            .outputs
            .iter()
            .flat_map(|o| o.bits.iter().copied())
            .collect();
        let leaves = items.iter().filter_map(|item| match *item {
            PartItem::Leaf(f) => Some(f),
            PartItem::Node(..) => None,
        });
        let admitted = Admitted::of(bdd, leaves, &all_output_bits);
        let mut ids: Vec<u32> = Vec::with_capacity(items.len());
        let mut intern: HashMap<(u32, u32, u32), u32, BuildHasherDefault<MulHasher>> =
            HashMap::default();
        let mut in_support = vec![false; self.bdd.num_vars()];
        let mut out = Vec::with_capacity(self.outputs.len());
        let mut first_bit = 0;
        for o in &self.outputs {
            let bit = first_bit;
            first_bit += o.bits.len();
            // A multi-bit group quantifies each leaf to a canonical handle.
            let others_cube = (o.bits.len() > 1).then(|| {
                let others = all_output_bits
                    .iter()
                    .copied()
                    .filter(|b| !o.bits.contains(b));
                self.bdd.cube(others)
            });
            ids.clear();
            intern.clear();
            in_support.fill(false);
            for item in &items {
                let key = match *item {
                    PartItem::Leaf(f) => match others_cube {
                        Some(cube) => (LEAF, self.bdd.exists_cube(f, cube).index() as u32, 0),
                        None => (LEAF, admitted.values(f, bit), 0),
                    },
                    PartItem::Node(v, lo, hi) => {
                        let (lo, hi) = (ids[lo as usize], ids[hi as usize]);
                        if lo == hi {
                            ids.push(lo);
                            continue;
                        }
                        in_support[v.index()] = true;
                        (v.0, lo, hi)
                    }
                };
                let next = intern.len() as u32;
                ids.push(*intern.entry(key).or_insert(next));
            }
            let sup = in_support
                .iter()
                .enumerate()
                .filter(|&(_, &s)| s)
                .map(|(v, _)| polis_bdd::Var(v as u32))
                .collect();
            out.push(sup);
        }
        out
    }

    /// Optimizes the variable order by a single sifting pass under the
    /// constraints of `scheme` (Section III-B3b). Returns the resulting
    /// BDD size. [`OrderScheme::Natural`] leaves the order untouched.
    pub fn sift(&mut self, scheme: OrderScheme) -> usize {
        self.sift_with_passes(scheme, 1)
    }

    /// Like [`ReactiveFn::sift`] with an explicit pass budget
    /// (`usize::MAX` = to convergence).
    pub fn sift_with_passes(&mut self, scheme: OrderScheme, passes: usize) -> usize {
        if scheme == OrderScheme::Natural {
            return self.size();
        }
        let groups: Vec<Vec<polis_bdd::Var>> = self
            .inputs
            .iter()
            .chain(&self.outputs)
            .filter(|v| v.bits.len() > 1)
            .map(|v| v.bits.clone())
            .collect();
        let mut precedence = Vec::new();
        match scheme {
            OrderScheme::Natural => unreachable!(),
            OrderScheme::OutputsAfterAllInputs => {
                for i in &self.inputs {
                    for o in &self.outputs {
                        precedence.push((i.bits[0], o.bits[0]));
                    }
                }
            }
            OrderScheme::OutputsAfterSupport => {
                let supports = self.output_supports();
                for (oi, sup) in supports.iter().enumerate() {
                    for &iv in sup {
                        precedence.push((iv, self.outputs[oi].bits[0]));
                    }
                }
            }
        }
        let config = SiftConfig {
            precedence,
            groups,
            max_passes: passes,
        };
        let roots = [self.chi];
        self.bdd.sift(&roots, &config)
    }
}

/// One entry of χ's input part (see `ReactiveFn::compute_supports`).
#[derive(Clone, Copy)]
enum PartItem {
    /// An output-part subgraph (or terminal) hanging from the input part.
    Leaf(NodeRef),
    /// An input node: its variable and the item indices of its children.
    Node(polis_bdd::Var, u32, u32),
}

/// The variable slot of a leaf's hash-consing key in
/// `ReactiveFn::compute_supports` (no variable has this index); a node's
/// key is `(variable, lo id, hi id)`.
const LEAF: u32 = u32::MAX;

/// For every handle of χ's output part, the output bits that some
/// satisfying assignment sets to 0 and those that one sets to 1, found in
/// one pass over the part, children first.
///
/// A node on output bit `k` admits `k = 0` iff its lo edge is not false
/// and `k = 1` iff its hi edge is not false; every other bit takes the
/// union of both children. Above a bit the subgraph skips, both children
/// agree on it, so the union gives it the right value too.
struct Admitted {
    /// `u64` words per bitset.
    words: usize,
    /// `slot[h]`: the entry of handle `h` (`u32::MAX` = not seen).
    slot: Vec<u32>,
    /// Per entry, the "can be 0" bitset, then the "can be 1" bitset.
    sets: Vec<u64>,
}

impl Admitted {
    /// The admitted values below `roots`, which contain no input node;
    /// bit `k` stands for `out_bits[k]`.
    fn of(
        bdd: &Bdd,
        roots: impl Iterator<Item = NodeRef>,
        out_bits: &[polis_bdd::Var],
    ) -> Admitted {
        let mut bit_of = vec![u32::MAX; bdd.num_vars()];
        for (k, b) in out_bits.iter().enumerate() {
            bit_of[b.index()] = k as u32;
        }
        let words = out_bits.len().div_ceil(64);
        let mut a = Admitted {
            words,
            slot: Vec::new(),
            sets: Vec::new(),
        };
        let mut stack = Vec::new();
        for root in roots {
            stack.push((root, false));
            while let Some((n, children_done)) = stack.pop() {
                if children_done {
                    let e = a.sets.len();
                    if n.is_terminal() {
                        let fill = if n.is_true() { u64::MAX } else { 0 };
                        a.sets.resize(e + 2 * words, fill);
                    } else {
                        let (lo, hi) = (bdd.lo(n), bdd.hi(n));
                        let (le, he) = (a.entry(lo), a.entry(hi));
                        for i in 0..2 * words {
                            a.sets.push(a.sets[le + i] | a.sets[he + i]);
                        }
                        let var = bdd.node_var(n).expect("non-terminal");
                        let k = bit_of[var.index()] as usize;
                        let (w, mask) = (k / 64, 1u64 << (k % 64));
                        for (set, admits) in
                            [(e + w, !lo.is_false()), (e + words + w, !hi.is_false())]
                        {
                            if admits {
                                a.sets[set] |= mask;
                            } else {
                                a.sets[set] &= !mask;
                            }
                        }
                    }
                    if a.slot.len() <= n.index() {
                        a.slot.resize(n.index() + 1, u32::MAX);
                    }
                    a.slot[n.index()] = (e / (2 * words)) as u32;
                } else if a.slot.get(n.index()).is_none_or(|&s| s == u32::MAX) {
                    stack.push((n, true));
                    if !n.is_terminal() {
                        stack.push((bdd.hi(n), false));
                        stack.push((bdd.lo(n), false));
                    }
                }
            }
        }
        a
    }

    /// The first word of handle `f`'s entry in `sets`.
    fn entry(&self, f: NodeRef) -> usize {
        self.slot[f.index()] as usize * 2 * self.words
    }

    /// Which values of output bit `k` the function `f` admits: bit 0 set
    /// iff `0` is admitted, bit 1 iff `1` is. This is `∃(O∖k). f` up to
    /// naming: `0` is false, `3` is true, `1` and `2` are the literals.
    fn values(&self, f: NodeRef, k: usize) -> u32 {
        let e = self.entry(f);
        let (w, mask) = (k / 64, 1u64 << (k % 64));
        u32::from(self.sets[e + w] & mask != 0)
            | u32::from(self.sets[e + self.words + w] & mask != 0) << 1
    }
}

/// A multiplicative hasher for the small integer keys of the support
/// interning in `ReactiveFn::compute_supports`, where it takes about a
/// third off the time SipHash took.
#[derive(Default)]
struct MulHasher(u64);

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The cube `actions ∧ next` of one transition over the action
/// variables `actions`: `taken` lists the actions taken (every other
/// action is negated) and `next` is the next-state cube. χ's output cube
/// is `consume ∧` this cube, and the verifier's reaction relation uses it
/// as is.
///
/// Literals are conjoined deepest-first on top of `next`. While χ is
/// built the outputs sit below the inputs in declaration order (consume,
/// actions, next state), so each literal adds one node above the partial
/// cube.
pub fn action_cube(
    bdd: &mut Bdd,
    actions: &[polis_bdd::Var],
    taken: &[usize],
    next: NodeRef,
) -> NodeRef {
    let mut cube = next;
    for (ai, &av) in actions.iter().enumerate().rev() {
        let lit = if taken.contains(&ai) {
            bdd.var(av)
        } else {
            bdd.nvar(av)
        };
        cube = bdd.and(lit, cube);
    }
    cube
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_expr::{Expr, Type, Value};

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

    /// A two-state machine to exercise ctrl/next_ctrl encoding.
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

    fn bit_of(rf: &ReactiveFn, name: &str) -> polis_bdd::Var {
        rf.inputs()
            .iter()
            .chain(rf.outputs())
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("no rf var {name}"))
            .bits[0]
    }

    #[test]
    fn simple_has_no_ctrl_vars() {
        let rf = ReactiveFn::build(&simple());
        assert!(rf.inputs().iter().all(|v| v.kind != RfVarKind::Ctrl));
        assert!(rf.outputs().iter().all(|v| v.kind != RfVarKind::NextCtrl));
        // inputs: present_c, test; outputs: consume + 3 actions
        assert_eq!(rf.inputs().len(), 2);
        assert_eq!(rf.outputs().len(), 4);
    }

    #[test]
    fn simple_chi_is_functional_with_four_input_combos() {
        let rf = ReactiveFn::build(&simple());
        // For each of the 4 input combinations exactly one output
        // assignment satisfies χ (no don't cares here).
        assert_eq!(rf.bdd().sat_count(rf.chi()), 4);
    }

    #[test]
    fn simple_chi_encodes_the_reaction() {
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let pc = bit_of(&rf, "present_c");
        let tq = bit_of(&rf, "test_a_eq_c");
        let consume = bit_of(&rf, "consume");
        // Locate action bits by label.
        let act = |label: &str| bit_of(&rf, &format!("act_{label}"));
        let a_zero = act(&format!("set_a_{}", 0)); // first action: a := 0
        let emit_y = act("emit_y");
        let a_inc = act(&format!("set_a_{}", 2)); // third action: a := a+1

        // present & equal -> consume, a:=0, emit y
        let assign1 = |v: polis_bdd::Var| [pc, tq, consume, a_zero, emit_y].contains(&v);
        assert!(rf.bdd().eval(rf.chi(), assign1));
        // present & not equal -> consume, a:=a+1 only
        let assign2 = |v: polis_bdd::Var| [pc, consume, a_inc].contains(&v);
        assert!(rf.bdd().eval(rf.chi(), assign2));
        // absent -> nothing
        let assign3 = |_v: polis_bdd::Var| false;
        assert!(rf.bdd().eval(rf.chi(), assign3));
        // absent but consuming -> forbidden
        let assign4 = |v: polis_bdd::Var| v == consume;
        assert!(!rf.bdd().eval(rf.chi(), assign4));
        // present & equal but no emission -> forbidden
        let assign5 = |v: polis_bdd::Var| [pc, tq, consume, a_zero].contains(&v);
        assert!(!rf.bdd().eval(rf.chi(), assign5));
    }

    #[test]
    fn toggler_has_ctrl_group() {
        let rf = ReactiveFn::build(&toggler());
        let ctrl = rf.inputs().iter().find(|v| v.kind == RfVarKind::Ctrl);
        assert!(ctrl.is_some());
        assert_eq!(ctrl.unwrap().domain, 2);
        let nc = rf
            .outputs()
            .iter()
            .find(|v| v.kind == RfVarKind::NextCtrl)
            .unwrap();
        assert_eq!(nc.bits.len(), 1);
    }

    #[test]
    fn toggler_next_state_is_constrained_when_fired() {
        let rf = ReactiveFn::build(&toggler());
        let tick = bit_of(&rf, "present_tick");
        let ctrl = bit_of(&rf, "ctrl");
        let consume = bit_of(&rf, "consume");
        let on = bit_of(&rf, "act_emit_on");
        let off = bit_of(&rf, "act_emit_off");
        let nc = bit_of(&rf, "next_ctrl");
        // off --tick--> on (state 0 -> 1), emits `on`.
        let a = |v: polis_bdd::Var| [tick, consume, on, nc].contains(&v);
        assert!(rf.bdd().eval(rf.chi(), a));
        // wrong next state forbidden
        let b = |v: polis_bdd::Var| [tick, consume, on].contains(&v);
        assert!(!rf.bdd().eval(rf.chi(), b));
        // on --tick--> off, emits `off`.
        let c = |v: polis_bdd::Var| [tick, ctrl, consume, off].contains(&v);
        assert!(rf.bdd().eval(rf.chi(), c));
    }

    #[test]
    fn default_leaves_next_state_dont_care() {
        let rf = ReactiveFn::build(&toggler());
        let nc = bit_of(&rf, "next_ctrl");
        // tick absent, nothing fires: χ holds for both next_ctrl values.
        let a0 = |_v: polis_bdd::Var| false;
        let a1 = |v: polis_bdd::Var| v == nc;
        assert!(rf.bdd().eval(rf.chi(), a0));
        assert!(rf.bdd().eval(rf.chi(), a1));
    }

    #[test]
    fn output_supports_are_plausible() {
        let mut rf = ReactiveFn::build(&simple());
        let sups = rf.output_supports();
        let pc = bit_of(&rf, "present_c");
        let tq = bit_of(&rf, "test_a_eq_c");
        // consume depends on present_c only (it fires for both test values).
        let consume_idx = rf
            .outputs()
            .iter()
            .position(|v| v.kind == RfVarKind::Consume)
            .unwrap();
        assert_eq!(sups[consume_idx], vec![pc]);
        // every action depends on both inputs
        for (oi, o) in rf.outputs().iter().enumerate() {
            if matches!(o.kind, RfVarKind::Action { .. }) {
                assert!(sups[oi].contains(&pc), "{}", o.name);
                assert!(sups[oi].contains(&tq), "{}", o.name);
            }
        }
    }

    #[test]
    #[should_panic(expected = "every input above every output")]
    fn supports_need_inputs_above_outputs_on_first_use() {
        let mut rf = ReactiveFn::build(&simple());
        // Swap the last input (test_a_eq_c) with the first output (consume).
        let chi = rf.chi();
        rf.bdd_mut().swap_levels(1, &[chi]);
        rf.output_supports();
    }

    #[test]
    fn sifting_respects_outputs_after_support() {
        let mut rf = ReactiveFn::build(&toggler());
        rf.sift_with_passes(OrderScheme::OutputsAfterSupport, usize::MAX);
        let sups = rf.output_supports();
        for (oi, sup) in sups.iter().enumerate() {
            let obit = rf.outputs()[oi].bits[0];
            for &iv in sup {
                assert!(
                    rf.bdd().level(iv) < rf.bdd().level(obit),
                    "output {} sifted above its support",
                    rf.outputs()[oi].name
                );
            }
        }
    }

    #[test]
    fn sifting_respects_outputs_after_all_inputs() {
        let mut rf = ReactiveFn::build(&toggler());
        rf.sift_with_passes(OrderScheme::OutputsAfterAllInputs, usize::MAX);
        let max_in = rf
            .inputs()
            .iter()
            .flat_map(|v| &v.bits)
            .map(|&b| rf.bdd().level(b))
            .max()
            .unwrap();
        let min_out = rf
            .outputs()
            .iter()
            .flat_map(|v| &v.bits)
            .map(|&b| rf.bdd().level(b))
            .min()
            .unwrap();
        assert!(max_in < min_out);
    }

    #[test]
    fn sifting_never_grows_chi() {
        for m in [simple(), toggler()] {
            let mut rf = ReactiveFn::build(&m);
            let before = rf.size();
            let after = rf.sift(OrderScheme::OutputsAfterSupport);
            assert!(after <= before, "{}: {before} -> {after}", m.name());
        }
    }
}
