//! Decoded counterexample traces, reconstructed by a ring-by-ring
//! preimage walk over the reachability fixpoint's frontier onions.
//!
//! The fixpoint optionally stores each iteration's *exact* new-state set
//! (`New ∖ Reached`) as an onion ring; ring 0 is the initial state. Each
//! ring is also the frontier the next iteration images, so the rings are
//! exact breadth-first layers: they partition the reachable set, every
//! state of ring *i* has a predecessor in ring *i − 1* under one
//! environment delivery or one machine reaction, and none in a ring
//! before *i − 1* (its successors would lie in ring *i − 1* or earlier).
//!
//! [`walk_trace`] exploits this: given a target set, it picks a full
//! product-state minterm in the earliest ring intersecting the target,
//! then repeatedly computes the *preimage of that one state point* under
//! each partition (the existing [`Bdd::and_exists`] kernel with the
//! variable rails swapped) and intersects with the ring one level back
//! until ring 0 is reached, so a target first reached in ring *i* gets
//! a trace of exactly *i* steps. Each hop is decoded on the spot into
//! machine control states, buffer fills, the delivered signal or the
//! fired transition (identified by replaying the machine's
//! declaration-order priority under the picked data-test valuation) — a
//! human-readable trace instead of a witness cube.
//!
//! [`CexTrace::replay`] is the matching BDD-free oracle: it re-executes
//! the decoded steps on an explicit product state under the GALS
//! semantics (deliveries set every consumer flag; a reaction fires the
//! priority winner, clears the snapshot, and emits) and checks every
//! intermediate state byte-for-byte — the trace-soundness conformance
//! tests and `polis verify --props` both go through it.

use crate::model::{NetworkModel, ReactStep};
use polis_bdd::{Bdd, NodeRef, Var};
use polis_cfsm::{Action, Network};
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt::Write as _;

/// Frontier onion rings captured during one reachability run.
/// `rings[0]` is the initial state; `rings[i]` the states first reached
/// at iteration `i`. When `complete` is false the tail was dropped (ring
/// cap or budget pressure) and only cube-level witnesses are possible
/// for states beyond the stored prefix.
pub(crate) struct TraceRings {
    /// Disjoint new-state sets, in iteration order.
    pub rings: Vec<NodeRef>,
    /// Whether every fixpoint iteration stored its ring.
    pub complete: bool,
}

impl TraceRings {
    /// The rings as GC/sift roots.
    pub fn roots(&self) -> &[NodeRef] {
        &self.rings
    }
}

/// A fully decoded product state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedState {
    /// Control-state index per machine, in network order.
    pub ctrl: Vec<usize>,
    /// Buffer fill bit per machine per input, in declaration order.
    pub pending: Vec<Vec<bool>>,
}

impl DecodedState {
    /// `m@s pending[a,b] | n@t` — one segment per machine.
    pub fn render(&self, net: &Network) -> String {
        self.segments(net).join(" | ")
    }

    /// One `machine@state pending[signals...]` segment per machine, in
    /// network order (`pending` only when a buffer is full).
    pub fn segments(&self, net: &Network) -> Vec<String> {
        net.cfsms()
            .iter()
            .enumerate()
            .map(|(i, m)| {
                let mut seg = format!("{}@{}", m.name(), m.states()[self.ctrl[i]]);
                let pend: Vec<&str> = m
                    .inputs()
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| self.pending[i][k])
                    .map(|(_, s)| s.name())
                    .collect();
                if !pend.is_empty() {
                    let _ = write!(seg, " pending[{}]", pend.join(","));
                }
                seg
            })
            .collect()
    }
}

/// One hop of a decoded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStep {
    /// The environment delivers primary input `signal` (every consumer's
    /// buffer fills).
    Deliver {
        /// The delivered primary signal.
        signal: String,
    },
    /// Machine `machine` fires `transition` (declaration index) under
    /// data-test valuation `tests`.
    React {
        /// Network machine index.
        machine: usize,
        /// Transition index within the machine (declaration order).
        transition: usize,
        /// Value of each of the machine's data tests when it fired.
        tests: Vec<bool>,
    },
}

impl TraceStep {
    /// `deliver tick` / `react frc #1 (counting -> saturated) [cnt>=200]`.
    pub fn render(&self, net: &Network) -> String {
        match self {
            TraceStep::Deliver { signal } => format!("deliver {signal}"),
            TraceStep::React {
                machine,
                transition,
                tests,
            } => {
                let m = &net.cfsms()[*machine];
                let t = &m.transitions()[*transition];
                let mut s = format!(
                    "react {} #{transition} ({} -> {})",
                    m.name(),
                    m.states()[t.from],
                    m.states()[t.to]
                );
                let lits: Vec<String> = m
                    .tests()
                    .iter()
                    .zip(tests)
                    .map(|(d, &v)| {
                        if v {
                            format!("[{}]", d.name)
                        } else {
                            format!("![{}]", d.name)
                        }
                    })
                    .collect();
                if !lits.is_empty() {
                    let _ = write!(s, " {}", lits.join(" "));
                }
                s
            }
        }
    }
}

/// A decoded execution from the initial state to a target state:
/// `states.len() == steps.len() + 1`, `states[0]` is the reset state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CexTrace {
    /// The visited product states, reset state first.
    pub states: Vec<DecodedState>,
    /// The hop between `states[i]` and `states[i + 1]`.
    pub steps: Vec<TraceStep>,
    /// Total BDD nodes across the preimage sets the walker computed.
    pub preimage_nodes: u64,
}

impl CexTrace {
    /// Number of steps (0 = the initial state is already the target).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the trace is the empty execution.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Numbered human-readable lines: state, step, state, …
    pub fn render(&self, net: &Network) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "  0: {}", self.states[0].render(net));
        for (i, step) in self.steps.iter().enumerate() {
            let _ = writeln!(out, "     -- {}", step.render(net));
            let _ = writeln!(out, "  {}: {}", i + 1, self.states[i + 1].render(net));
        }
        out
    }

    /// Replays the trace on an explicit product state under the GALS
    /// semantics and checks every intermediate decoded state exactly;
    /// returns the final state. This is deliberately BDD-free — an
    /// independent oracle for the symbolic walker.
    ///
    /// # Errors
    ///
    /// A description of the first divergence (state mismatch, a react
    /// step that is not the priority winner, an unknown signal).
    pub fn replay(&self, net: &Network) -> Result<DecodedState, String> {
        let cfsms = net.cfsms();
        let mut cur = DecodedState {
            ctrl: cfsms.iter().map(|m| m.init_state()).collect(),
            pending: cfsms
                .iter()
                .map(|m| vec![false; m.inputs().len()])
                .collect(),
        };
        if cur != self.states[0] {
            return Err(format!(
                "trace does not start at the reset state: {} vs {}",
                self.states[0].render(net),
                cur.render(net)
            ));
        }
        for (i, step) in self.steps.iter().enumerate() {
            match step {
                TraceStep::Deliver { signal } => {
                    let consumers = net.consumers_of(signal);
                    if consumers.is_empty() {
                        return Err(format!("step {i}: `{signal}` has no consumers"));
                    }
                    for c in consumers {
                        let k = cfsms[c]
                            .input_index(signal)
                            .ok_or_else(|| format!("step {i}: consumer lost `{signal}`"))?;
                        cur.pending[c][k] = true;
                    }
                }
                TraceStep::React {
                    machine,
                    transition,
                    tests,
                } => {
                    let m = &cfsms[*machine];
                    // The fired transition must be the declaration-order
                    // priority winner from the current control state
                    // under the recorded presence/test valuation.
                    let Ok(winner) =
                        m.winner(cur.ctrl[*machine], &cur.pending[*machine], &mut |t| {
                            Ok::<_, Infallible>(tests[t])
                        });
                    let winner = winner.ok_or_else(|| {
                        format!("step {i}: no transition of `{}` is enabled", m.name())
                    })?;
                    if winner != *transition {
                        return Err(format!(
                            "step {i}: `{}` priority winner is #{winner}, trace fired #{transition}",
                            m.name()
                        ));
                    }
                    let t = &m.transitions()[winner];
                    // Snapshot consumption: firing clears every own buffer.
                    for f in &mut cur.pending[*machine] {
                        *f = false;
                    }
                    cur.ctrl[*machine] = t.to;
                    for &ai in &t.actions {
                        if let Action::Emit { signal, .. } = &m.actions()[ai] {
                            let name = m.outputs()[*signal].name().to_owned();
                            for c in net.consumers_of(&name) {
                                let k = cfsms[c]
                                    .input_index(&name)
                                    .ok_or_else(|| format!("step {i}: consumer lost `{name}`"))?;
                                cur.pending[c][k] = true;
                            }
                        }
                    }
                }
            }
            if cur != self.states[i + 1] {
                return Err(format!(
                    "step {i} diverges: expected {}, replay gives {}",
                    self.states[i + 1].render(net),
                    cur.render(net)
                ));
            }
        }
        Ok(cur)
    }
}

/// A full assignment to the model's current-state variables, kept both
/// as a map (for decoding) and as a minterm BDD (for preimages).
struct StatePoint {
    values: HashMap<Var, bool>,
    minterm: NodeRef,
}

/// Completes [`Bdd::pick_cube`]'s partial assignment over `set` to a full
/// minterm on `state_vars` (don't-cares to `false` — any completion of a
/// BDD path stays satisfying).
fn pick_state(bdd: &mut Bdd, set: NodeRef, state_vars: &[Var]) -> Option<StatePoint> {
    let cube = bdd.pick_cube(set)?;
    let mut values: HashMap<Var, bool> = state_vars.iter().map(|&v| (v, false)).collect();
    for (v, val) in cube {
        values.insert(v, val);
    }
    let mut minterm = NodeRef::TRUE;
    for &v in state_vars {
        let lit = if values[&v] { bdd.var(v) } else { bdd.nvar(v) };
        minterm = bdd.and(minterm, lit);
    }
    Some(StatePoint { values, minterm })
}

/// Decodes a state point into per-machine control states and fill bits.
fn decode_state(model: &NetworkModel, p: &StatePoint) -> DecodedState {
    let assign = |v: Var| p.values.get(&v).copied().unwrap_or(false);
    let ctrl = model
        .vars
        .iter()
        .map(|mv| {
            mv.ctrl_cur
                .as_ref()
                .map_or(0, |c| c.decode(assign) as usize)
        })
        .collect();
    let pending = model
        .vars
        .iter()
        .map(|mv| mv.flag_cur.iter().map(|&f| assign(f)).collect())
        .collect();
    DecodedState { ctrl, pending }
}

/// Picks and decodes one state of `set` — the cube-only witness used
/// when no rings are available for a full trace.
pub(crate) fn decode_point(model: &mut NetworkModel, set: NodeRef) -> Option<DecodedState> {
    let state_vars = model.state_vars.clone();
    let p = pick_state(&mut model.bdd, set, &state_vars)?;
    Some(decode_state(model, &p))
}

/// Preimage of the single state `t` under one machine reaction: rename
/// `t`'s written variables onto the next rail (the inverse of the step's
/// image renaming), then one relational product with the step's
/// pre-quantified relation over the next rail — the forward kernel with
/// the rails swapped. The result ranges over current-state variables
/// only.
fn react_preimage(bdd: &mut Bdd, step: &ReactStep, t: NodeRef) -> NodeRef {
    let t_next = bdd.rename(t, &step.unrename);
    let next = bdd.cube(step.next_rail.iter().copied());
    bdd.and_exists(t_next, step.relation, next)
}

/// Identifies the transition that carries machine `mi` from `prev` into
/// the state point `t`: conjoin the feasible-firing set, pick a data-test
/// valuation, and replay the machine's declaration-order priority.
fn decode_react(
    model: &mut NetworkModel,
    net: &Network,
    mi: usize,
    prev: &StatePoint,
    t_next: NodeRef,
) -> Option<TraceStep> {
    let step = &model.react_steps[mi];
    let feasible = {
        let a = model.bdd.and(prev.minterm, step.chi_fire);
        let b = model.bdd.and(a, step.update_clear);
        model.bdd.and(b, t_next)
    };
    let cube = model.bdd.pick_cube(feasible)?;
    let assign = |v: Var| cube.iter().any(|&(cv, val)| cv == v && val);
    let tests: Vec<bool> = model.vars[mi].tests.iter().map(|&v| assign(v)).collect();
    let m = &net.cfsms()[mi];
    let from = model.vars[mi].ctrl_cur.as_ref().map_or(0, |c| {
        c.decode(|v| prev.values.get(&v).copied().unwrap_or(false)) as usize
    });
    let present: Vec<bool> = model.vars[mi]
        .flag_cur
        .iter()
        .map(|&f| prev.values.get(&f).copied().unwrap_or(false))
        .collect();
    let Ok(transition) = m.winner(from, &present, &mut |t| Ok::<_, Infallible>(tests[t]));
    let transition = transition?;
    Some(TraceStep::React {
        machine: mi,
        transition,
        tests,
    })
}

/// The step behind one preimage of a trace point: an environment
/// delivery of primary input `.0`, or a reaction of machine `.0`.
#[derive(Clone, Copy)]
enum Via {
    Deliver(usize),
    React(usize),
}

/// Walks a violating/witness state in `target` back to the initial state
/// through the stored rings, decoding every hop. Returns `None` when the
/// target misses every *stored* ring (only possible on an incomplete
/// ring set) or, defensively, if a hop cannot be decoded.
pub(crate) fn walk_trace(
    model: &mut NetworkModel,
    net: &Network,
    rings: &TraceRings,
    target: NodeRef,
) -> Option<CexTrace> {
    let state_vars = model.state_vars.clone();
    let mut preimage_nodes = 0u64;
    // Earliest ring hit = shortest available trace skeleton.
    let (mut level, hit) = rings.rings.iter().enumerate().find_map(|(i, &r)| {
        let x = model.bdd.and(r, target);
        (!x.is_false()).then_some((i, x))
    })?;
    let mut point = pick_state(&mut model.bdd, hit, &state_vars)?;
    let mut rev_states = vec![decode_state(model, &point)];
    let mut rev_steps: Vec<TraceStep> = Vec::new();
    let signals = net.primary_inputs();
    while level > 0 {
        // The point's preimages do not depend on the ring, so each is
        // computed once per hop, in the search order: environment
        // deliveries, then machine reactions.
        let mut preimages: Vec<(NodeRef, Via)> = Vec::new();
        for (si, step) in model.env_steps.iter().enumerate() {
            // The preimage of a point whose delivered flags are all 1
            // frees exactly those flags.
            let on_cube = model.bdd.constrain(point.minterm, step.cube);
            if on_cube.is_false() {
                continue; // some delivered flag is 0 in the point
            }
            let pre = model.bdd.exists_cube(point.minterm, step.cube);
            preimages.push((pre, Via::Deliver(si)));
        }
        for (mi, step) in model.react_steps.iter().enumerate() {
            let pre = react_preimage(&mut model.bdd, step, point.minterm);
            preimages.push((pre, Via::React(mi)));
        }
        for &(pre, _) in &preimages {
            preimage_nodes += model.bdd.size(&[pre]) as u64;
        }
        level -= 1;
        let (prev, s) = 'hop: {
            for &(pre, via) in &preimages {
                let cand = model.bdd.and(pre, rings.rings[level]);
                if cand.is_false() {
                    continue;
                }
                let prev = pick_state(&mut model.bdd, cand, &state_vars)?;
                let s = match via {
                    Via::Deliver(si) => TraceStep::Deliver {
                        signal: signals[si].clone(),
                    },
                    Via::React(mi) => {
                        let t_next = model
                            .bdd
                            .rename(point.minterm, &model.react_steps[mi].unrename);
                        decode_react(model, net, mi, &prev, t_next)?
                    }
                };
                break 'hop (prev, s);
            }
            // Every ring-i state has a predecessor in ring i − 1; a miss
            // here would be a model bug, so fail soft into the cube
            // witness.
            return None;
        };
        rev_states.push(decode_state(model, &prev));
        rev_steps.push(s);
        point = prev;
    }
    rev_states.reverse();
    rev_steps.reverse();
    Some(CexTrace {
        states: rev_states,
        steps: rev_steps,
        preimage_nodes,
    })
}

#[cfg(test)]
mod tests {
    use crate::prop::compile_expr;
    use crate::{Verifier, VerifyOptions};
    use polis_cfsm::Network;
    use polis_core::random::{random_network, RandomSpec};
    use polis_core::workloads;
    use polis_lang::{PropExpr, PropKind, Property, Span};

    /// A `reachable` at each machine's last state and a `never` on each
    /// machine's first buffer.
    fn ad_hoc_props(net: &Network) -> Vec<Property> {
        let span = Span { line: 1, col: 1 };
        let mut props = Vec::new();
        for (machine, m) in net.cfsms().iter().enumerate() {
            let state = m.states().len() - 1;
            let expr = PropExpr::AtState {
                machine,
                state,
                span,
            };
            props.push(Property {
                kind: PropKind::Reachable,
                expr,
                span,
            });
            if !m.inputs().is_empty() {
                let expr = PropExpr::Pending {
                    machine,
                    input: 0,
                    span,
                };
                props.push(Property {
                    kind: PropKind::Never,
                    expr,
                    span,
                });
            }
        }
        props
    }

    #[test]
    fn a_target_first_reached_in_ring_i_gets_an_i_step_trace() {
        // Rings are exact breadth-first layers, so the walk steps back one
        // ring per hop and every trace is as short as any execution.
        let mut cases: Vec<(Network, Vec<Property>)> = workloads::EXAMPLES
            .iter()
            .map(|(name, _)| {
                let spec = workloads::spec(name);
                (spec.network, spec.properties)
            })
            .collect();
        for n in 3..=6 {
            let net = random_network(n, &RandomSpec::default(), 0x9e37_79b9_7f4a_7c15 ^ n as u64);
            let props = ad_hoc_props(&net);
            cases.push((net, props));
        }
        let opts = VerifyOptions {
            trace_rings: true,
            ..VerifyOptions::default()
        };
        let mut traced = 0;
        for (net, props) in &cases {
            let name = net.name();
            let mut v = Verifier::run(net, &opts).unwrap();
            let report = v.check_properties(props);
            let rings = v.rings.as_ref().expect("rings stored").rings.clone();
            for (p, r) in props.iter().zip(&report.results) {
                let set = compile_expr(&mut v.model, &p.expr);
                let hit = v.model.bdd.and(v.reached, set);
                let first = rings
                    .iter()
                    .position(|&ring| !v.model.bdd.and(ring, hit).is_false());
                let steps = r.trace.as_ref().map(|t| t.len());
                assert_eq!(steps, first, "{name}: {}", p.render(net));
                traced += usize::from(first.is_some_and(|i| i > 0));
            }
        }
        assert!(traced >= 10, "only {traced} traces of one step or more");
    }
}
