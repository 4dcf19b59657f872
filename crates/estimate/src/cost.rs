//! The estimator proper: parameter application and the one traversal
//! that yields every estimate.

use crate::params::{CostPair, CostParams, OpClass};
use polis_cfsm::{Action, Cfsm};
use polis_expr::Expr;
use polis_sgraph::analysis::EntryCopies;
use polis_sgraph::{AssignLabel, ComputedTarget, Cond, NodeId, SGraph, SNode, TestLabel};
use polis_vm::BufferPolicy;

/// The estimator's output for one CFSM routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Estimated code size in bytes (ROM).
    pub size_bytes: u64,
    /// Estimated minimum cycles per reaction: the shortest BEGIN→END
    /// path, Dijkstra's answer, from one backward pass over the DAG.
    pub min_cycles: u64,
    /// Estimated maximum cycles per reaction: the longest BEGIN→END
    /// path, PERT's answer, from the same pass.
    pub max_cycles: u64,
    /// Estimated data memory in bytes (RAM): state, entry copies, event
    /// value buffers, frame.
    pub ram_bytes: u64,
}

/// Estimates code size and cycle bounds for the s-graph of `cfsm` under
/// the calibrated `params` (Section III-C1: "cost estimation can be done
/// with a simple traversal of the s-graph").
pub fn estimate(cfsm: &Cfsm, g: &SGraph, params: &CostParams, policy: BufferPolicy) -> Estimate {
    let pass = Pass::of(cfsm, g, params, policy);

    // RAM: persistent state + copies + event value buffers + frame.
    let mut ram = params.bytes_frame;
    for v in cfsm.state_vars() {
        ram += f64::from(v.ty.byte_size());
    }
    ram += pass.copies as f64 * params.bytes_int.clamp(1.0, 2.0);
    for s in cfsm.inputs() {
        if let Some(ty) = s.value_type() {
            ram += f64::from(ty.byte_size());
        }
    }
    if cfsm.states().len() > 1 {
        ram += params.bytes_bool.max(1.0);
    }

    Estimate {
        size_bytes: whole(pass.entry.bytes + pass.body_bytes),
        min_cycles: pass.reaction(pass.shortest[NodeId::BEGIN.index()]),
        max_cycles: pass.reaction(pass.longest[NodeId::BEGIN.index()]),
        ram_bytes: whole(ram),
    }
}

/// One backward walk over the reachable s-graph, children before
/// parents. Every cost parameter is an integer measurement or half of
/// one, so each sum is exact and its order does not matter: on the DAG
/// the shortest suffix is Dijkstra's and the longest is PERT's.
pub(crate) struct Pass {
    /// Call/return plus one local init per entry copy.
    pub(crate) entry: CostPair,
    /// Entry copies the routine makes.
    pub(crate) copies: usize,
    /// Code bytes of the reachable vertices, plus k−1 gotos for each
    /// vertex with k > 1 parents (layout overhead).
    pub(crate) body_bytes: f64,
    /// Each reachable vertex's own cycles, by [`NodeId::index`].
    pub(crate) cycles: Vec<f64>,
    /// Fewest cycles from each reachable vertex to END, its own included.
    pub(crate) shortest: Vec<f64>,
    /// Most cycles from each reachable vertex to END, its own included.
    pub(crate) longest: Vec<f64>,
}

impl Pass {
    /// The pass over `g`, with the entry copies `policy` makes.
    pub(crate) fn of(cfsm: &Cfsm, g: &SGraph, params: &CostParams, policy: BufferPolicy) -> Pass {
        let copies = EntryCopies::of(cfsm, g, policy).count();
        let mut pass = Pass {
            entry: CostPair {
                cycles: params.call_return.cycles + copies as f64 * params.local_init.cycles,
                bytes: params.call_return.bytes + copies as f64 * params.local_init.bytes,
            },
            copies,
            body_bytes: 0.0,
            cycles: vec![0.0; g.len()],
            shortest: vec![0.0; g.len()],
            longest: vec![0.0; g.len()],
        };
        let mut parents = vec![0usize; g.len()];
        for &id in g.topo_order().iter().rev() {
            let own = node_cost(cfsm, g, id, params);
            pass.body_bytes += own.bytes;
            let (mut lo, mut hi) = (None::<f64>, 0.0f64);
            for (k, &s) in g.node(id).successors().iter().enumerate() {
                parents[s.index()] += 1;
                let edge = edge_cycles(g, id, k, params);
                let below = edge + pass.shortest[s.index()];
                lo = Some(lo.map_or(below, |lo| lo.min(below)));
                hi = hi.max(edge + pass.longest[s.index()]);
            }
            let i = id.index();
            pass.cycles[i] = own.cycles;
            pass.shortest[i] = own.cycles + lo.unwrap_or(0.0);
            pass.longest[i] = own.cycles + hi;
        }
        for p in parents.into_iter().filter(|&p| p > 1) {
            pass.body_bytes += (p - 1) as f64 * params.goto.bytes;
        }
        pass
    }

    /// Cycles per reaction along a path whose BEGIN suffix costs
    /// `suffix`: the entry overhead added, rounded to whole cycles.
    pub(crate) fn reaction(&self, suffix: f64) -> u64 {
        whole(self.entry.cycles + suffix)
    }
}

fn whole(x: f64) -> u64 {
    x.round().max(0.0) as u64
}

/// Cycles added on the edge from a TEST to its `k`-th child.
pub(crate) fn edge_cycles(g: &SGraph, id: NodeId, k: usize, params: &CostParams) -> f64 {
    match g.node(id) {
        SNode::Test { children, .. } if children.len() == 2 => {
            if k == 1 {
                params.edge_true_cycles
            } else {
                params.edge_false_cycles
            }
        }
        _ => 0.0,
    }
}

fn expr_ops_cost(e: &Expr, params: &CostParams) -> CostPair {
    match e {
        Expr::Const(_) | Expr::Var(_) => CostPair::default(),
        Expr::Unary(_, a) => params.op(OpClass::Logic) + expr_ops_cost(a, params),
        Expr::Binary(op, a, b) => {
            params.op(OpClass::of(*op)) + expr_ops_cost(a, params) + expr_ops_cost(b, params)
        }
        // An ITE compiles to a test and a goto around the else arm.
        Expr::Ite(c, t, e2) => {
            params.test_expr_base
                + params.goto
                + expr_ops_cost(c, params)
                + expr_ops_cost(t, params)
                + expr_ops_cost(e2, params)
        }
    }
}

fn cond_cost(cfsm: &Cfsm, cond: &Cond, params: &CostParams) -> CostPair {
    match cond {
        Cond::Const(_) => CostPair::default(),
        // The detection call itself (branching is charged separately).
        Cond::Present(_) => excess(params.test_present, params.test_expr_base),
        Cond::Test(t) => expr_ops_cost(&cfsm.tests()[*t].expr, params),
        Cond::CtrlBit { .. } => excess(params.test_ctrl_bit, params.test_expr_base),
        Cond::Not(a) => params.op(OpClass::Logic) + cond_cost(cfsm, a, params),
        Cond::And(a, b) | Cond::Or(a, b) => {
            params.op(OpClass::Logic) + cond_cost(cfsm, a, params) + cond_cost(cfsm, b, params)
        }
    }
}

/// `a - b`, each part clamped at zero.
fn excess(a: CostPair, b: CostPair) -> CostPair {
    CostPair {
        bytes: (a.bytes - b.bytes).max(0.0),
        cycles: (a.cycles - b.cycles).max(0.0),
    }
}

fn action_cost(cfsm: &Cfsm, action: usize, params: &CostParams) -> CostPair {
    match &cfsm.actions()[action] {
        Action::Emit { value: None, .. } => params.emit_pure,
        Action::Emit { value: Some(e), .. } => params.emit_valued + expr_ops_cost(e, params),
        Action::Assign { value, .. } => params.assign_var + expr_ops_cost(value, params),
    }
}

fn node_cost(cfsm: &Cfsm, g: &SGraph, id: NodeId, params: &CostParams) -> CostPair {
    match g.node(id) {
        SNode::Begin { .. } | SNode::End => CostPair::default(),
        SNode::Test { label, children } => match label {
            TestLabel::Present { .. } => params.test_present,
            TestLabel::TestExpr { test } => {
                params.test_expr_base + expr_ops_cost(&cfsm.tests()[*test].expr, params)
            }
            TestLabel::CtrlBit { .. } => params.test_ctrl_bit,
            TestLabel::CtrlSwitch { .. } => children
                .iter()
                .fold(params.switch_base, |c, _| c + params.switch_per_arm),
            TestLabel::Compound { cond } => params.test_expr_base + cond_cost(cfsm, cond, params),
        },
        SNode::Assign { label, .. } => match label {
            AssignLabel::Consume => params.consume,
            AssignLabel::Action { action } => action_cost(cfsm, *action, params),
            AssignLabel::NextCtrlBits { bits, .. } => bits
                .iter()
                .fold(CostPair::default(), |c, _| c + params.ctrl_set_per_bit),
            AssignLabel::Computed { target, cond } => {
                cond_cost(cfsm, cond, params)
                    + match target {
                        ComputedTarget::Consume => params.goto + params.consume,
                        ComputedTarget::Action { action } => {
                            params.goto + action_cost(cfsm, *action, params)
                        }
                        ComputedTarget::CtrlBit { .. } => params.ctrl_set_per_bit,
                    }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibrate::calibrate;
    use polis_cfsm::{OrderScheme, ReactiveFn};
    use polis_expr::{Type, Value};
    use polis_sgraph::build;
    use polis_vm::{analyze, assemble, compile, Profile};

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

    fn measure(m: &Cfsm, g: &SGraph, profile: Profile) -> (u64, u64, u64) {
        let prog = compile(m, g, BufferPolicy::All);
        let obj = assemble(&prog, profile);
        let b = analyze(&prog, &obj);
        (u64::from(obj.size_bytes()), b.min_cycles, b.max_cycles)
    }

    /// The Table I experiment in miniature: estimation within a modest
    /// relative error of exact object-code measurement.
    #[test]
    fn estimates_track_measurement() {
        let params = calibrate(Profile::Mcu8);
        for m in [simple(), toggler()] {
            let mut rf = ReactiveFn::build(&m);
            rf.sift(OrderScheme::OutputsAfterSupport);
            let g = build(&rf).unwrap();
            let est = estimate(&m, &g, &params, BufferPolicy::All);
            let (size, min, max) = measure(&m, &g, Profile::Mcu8);
            let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / b as f64;
            assert!(
                rel(est.size_bytes, size) < 0.4,
                "{}: size est {} vs {}",
                m.name(),
                est.size_bytes,
                size
            );
            assert!(
                rel(est.max_cycles, max) < 0.4,
                "{}: max est {} vs {}",
                m.name(),
                est.max_cycles,
                max
            );
            assert!(
                rel(est.min_cycles.max(1), min.max(1)) < 0.6,
                "{}: min est {} vs {}",
                m.name(),
                est.min_cycles,
                min
            );
        }
    }

    #[test]
    fn bounds_are_ordered() {
        let params = calibrate(Profile::Mcu8);
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let est = estimate(&m, &g, &params, BufferPolicy::All);
        assert!(est.min_cycles <= est.max_cycles);
        assert!(est.size_bytes > 0);
        assert!(est.ram_bytes > 0);
    }

    #[test]
    fn minimal_buffering_estimates_lower_entry_cost() {
        let params = calibrate(Profile::Mcu8);
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let all = estimate(&m, &g, &params, BufferPolicy::All);
        let min = estimate(&m, &g, &params, BufferPolicy::Minimal);
        assert!(min.size_bytes <= all.size_bytes);
        assert!(min.max_cycles <= all.max_cycles);
        assert!(min.ram_bytes <= all.ram_bytes);
    }

    #[test]
    fn bigger_machines_estimate_bigger() {
        let params = calibrate(Profile::Mcu8);
        let m1 = toggler();
        let rf1 = ReactiveFn::build(&m1);
        let g1 = build(&rf1).unwrap();
        let e1 = estimate(&m1, &g1, &params, BufferPolicy::All);

        let m2 = simple();
        let rf2 = ReactiveFn::build(&m2);
        let g2 = build(&rf2).unwrap();
        let e2 = estimate(&m2, &g2, &params, BufferPolicy::All);

        // simple has data-path work; its max path should be longer than
        // the pure toggler's.
        assert!(e2.max_cycles > e1.min_cycles);
        assert!(e1.size_bytes > 0 && e2.size_bytes > 0);
    }
}
