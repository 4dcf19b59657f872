//! The estimator proper: parameter application and path analyses.

use crate::params::{CostPair, CostParams, OpClass};
use polis_cfsm::{Action, Cfsm};
use polis_expr::Expr;
use polis_sgraph::analysis::EntryCopies;
use polis_sgraph::{AssignLabel, ComputedTarget, Cond, NodeId, SGraph, SNode, TestLabel};
use polis_vm::BufferPolicy;
use std::collections::BinaryHeap;
use std::collections::HashMap;

/// The estimator's output for one CFSM routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Estimate {
    /// Estimated code size in bytes (ROM).
    pub size_bytes: u64,
    /// Estimated minimum cycles per reaction (Dijkstra shortest path).
    pub min_cycles: u64,
    /// Estimated maximum cycles per reaction (PERT longest path).
    pub max_cycles: u64,
    /// Estimated data memory in bytes (RAM): state, entry copies, event
    /// value buffers, frame.
    pub ram_bytes: u64,
}

/// Estimates code size and cycle bounds for the s-graph of `cfsm` under
/// the calibrated `params` (Section III-C1: "cost estimation can be done
/// with a simple traversal of the s-graph").
pub fn estimate(cfsm: &Cfsm, g: &SGraph, params: &CostParams, policy: BufferPolicy) -> Estimate {
    let reachable = g.reachable();

    // Entry overhead: call/return plus one local init per entry copy.
    let copies = EntryCopies::of(cfsm, g, policy).count();

    let mut size = params.call_return.bytes + copies as f64 * params.local_init.bytes;
    let mut node_cycles: HashMap<NodeId, f64> = HashMap::new();
    let mut parents: HashMap<NodeId, usize> = HashMap::new();
    for &id in &reachable {
        let c = node_cost(cfsm, g, id, params);
        size += c.bytes;
        node_cycles.insert(id, c.cycles);
        for &s in g.node(id).successors() {
            *parents.entry(s).or_default() += 1;
        }
    }
    // Layout overhead: a node with k parents needs ~k-1 explicit gotos.
    for (_, &p) in parents.iter().filter(|(_, &p)| p > 1) {
        size += (p - 1) as f64 * params.goto.bytes;
    }

    let entry_cycles = params.call_return.cycles + copies as f64 * params.local_init.cycles;
    let max_cycles = entry_cycles + pert_longest(g, &node_cycles, params);
    let min_cycles = entry_cycles + dijkstra_shortest(g, &node_cycles, params);

    // RAM: persistent state + copies + event value buffers + frame.
    let mut ram = params.bytes_frame;
    for v in cfsm.state_vars() {
        ram += f64::from(v.ty.byte_size());
    }
    ram += copies as f64 * params.bytes_int.clamp(1.0, 2.0);
    for s in cfsm.inputs() {
        if let Some(ty) = s.value_type() {
            ram += f64::from(ty.byte_size());
        }
    }
    if cfsm.states().len() > 1 {
        ram += params.bytes_bool.max(1.0);
    }

    Estimate {
        size_bytes: size.round().max(0.0) as u64,
        min_cycles: min_cycles.round().max(0.0) as u64,
        max_cycles: max_cycles.round().max(0.0) as u64,
        ram_bytes: ram.round().max(0.0) as u64,
    }
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
    let mut c = CostPair::default();
    collect_expr_ops(e, params, &mut c);
    c
}

fn collect_expr_ops(e: &Expr, params: &CostParams, acc: &mut CostPair) {
    match e {
        Expr::Const(_) | Expr::Var(_) => {}
        Expr::Unary(_, a) => {
            add(acc, params.op(OpClass::Logic));
            collect_expr_ops(a, params, acc);
        }
        Expr::Binary(op, a, b) => {
            add(acc, params.op(OpClass::of(*op)));
            collect_expr_ops(a, params, acc);
            collect_expr_ops(b, params, acc);
        }
        Expr::Ite(c, t, e2) => {
            // An ITE compiles to a test and a goto around the else arm.
            add(acc, params.test_expr_base);
            add(acc, params.goto);
            collect_expr_ops(c, params, acc);
            collect_expr_ops(t, params, acc);
            collect_expr_ops(e2, params, acc);
        }
    }
}

fn cond_cost(cfsm: &Cfsm, cond: &Cond, params: &CostParams) -> CostPair {
    let mut c = CostPair::default();
    collect_cond(cfsm, cond, params, &mut c);
    c
}

fn collect_cond(cfsm: &Cfsm, cond: &Cond, params: &CostParams, acc: &mut CostPair) {
    match cond {
        Cond::Const(_) => {}
        Cond::Present(_) => {
            // The detection call itself (branching is charged separately).
            add(acc, sub(params.test_present, params.test_expr_base));
        }
        Cond::Test(t) => {
            let e = &cfsm.tests()[*t].expr;
            add(acc, expr_ops_cost(e, params));
        }
        Cond::CtrlBit { .. } => {
            add(acc, sub(params.test_ctrl_bit, params.test_expr_base));
        }
        Cond::Not(a) => {
            add(acc, params.op(OpClass::Logic));
            collect_cond(cfsm, a, params, acc);
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            add(acc, params.op(OpClass::Logic));
            collect_cond(cfsm, a, params, acc);
            collect_cond(cfsm, b, params, acc);
        }
    }
}

fn add(acc: &mut CostPair, x: CostPair) {
    acc.bytes += x.bytes;
    acc.cycles += x.cycles;
}

fn sub(a: CostPair, b: CostPair) -> CostPair {
    CostPair {
        bytes: (a.bytes - b.bytes).max(0.0),
        cycles: (a.cycles - b.cycles).max(0.0),
    }
}

fn action_cost(cfsm: &Cfsm, action: usize, params: &CostParams) -> CostPair {
    match &cfsm.actions()[action] {
        Action::Emit { value: None, .. } => params.emit_pure,
        Action::Emit { value: Some(e), .. } => {
            let mut c = params.emit_valued;
            add(&mut c, expr_ops_cost(e, params));
            c
        }
        Action::Assign { value, .. } => {
            let mut c = params.assign_var;
            add(&mut c, expr_ops_cost(value, params));
            c
        }
    }
}

pub(crate) fn node_cost(cfsm: &Cfsm, g: &SGraph, id: NodeId, params: &CostParams) -> CostPair {
    match g.node(id) {
        SNode::Begin { .. } | SNode::End => CostPair::default(),
        SNode::Test { label, children } => match label {
            TestLabel::Present { .. } => params.test_present,
            TestLabel::TestExpr { test } => {
                let mut c = params.test_expr_base;
                add(&mut c, expr_ops_cost(&cfsm.tests()[*test].expr, params));
                c
            }
            TestLabel::CtrlBit { .. } => params.test_ctrl_bit,
            TestLabel::CtrlSwitch { .. } => {
                let mut c = params.switch_base;
                for _ in children {
                    add(&mut c, params.switch_per_arm);
                }
                c
            }
            TestLabel::Compound { cond } => {
                let mut c = params.test_expr_base;
                add(&mut c, cond_cost(cfsm, cond, params));
                c
            }
        },
        SNode::Assign { label, .. } => match label {
            AssignLabel::Consume => params.consume,
            AssignLabel::Action { action } => action_cost(cfsm, *action, params),
            AssignLabel::NextCtrlBits { bits, .. } => {
                let mut c = CostPair::default();
                for _ in bits {
                    add(&mut c, params.ctrl_set_per_bit);
                }
                c
            }
            AssignLabel::Computed { target, cond } => {
                let mut c = cond_cost(cfsm, cond, params);
                match target {
                    ComputedTarget::Consume => {
                        add(&mut c, params.goto);
                        add(&mut c, params.consume);
                    }
                    ComputedTarget::Action { action } => {
                        add(&mut c, params.goto);
                        add(&mut c, action_cost(cfsm, *action, params));
                    }
                    ComputedTarget::CtrlBit { .. } => add(&mut c, params.ctrl_set_per_bit),
                }
                c
            }
        },
    }
}

/// PERT longest path from BEGIN to END over node and edge cycles.
fn pert_longest(g: &SGraph, cycles: &HashMap<NodeId, f64>, params: &CostParams) -> f64 {
    let order = g.topo_order();
    let mut longest: HashMap<NodeId, f64> = HashMap::new();
    for &id in order.iter().rev() {
        let own = cycles.get(&id).copied().unwrap_or(0.0);
        let best = g
            .node(id)
            .successors()
            .iter()
            .enumerate()
            .map(|(k, s)| edge_cycles(g, id, k, params) + longest[s])
            .fold(0.0f64, f64::max);
        longest.insert(id, own + best);
    }
    longest[&NodeId::BEGIN]
}

/// Dijkstra shortest path from BEGIN to END (the paper names Dijkstra for
/// the minimum; on this DAG it agrees with the DP but we keep the
/// algorithmic fidelity).
fn dijkstra_shortest(g: &SGraph, cycles: &HashMap<NodeId, f64>, params: &CostParams) -> f64 {
    #[derive(PartialEq)]
    struct Entry(f64, NodeId);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Reverse for a min-heap.
            other.0.total_cmp(&self.0)
        }
    }

    let mut dist: HashMap<NodeId, f64> = HashMap::new();
    let mut heap = BinaryHeap::new();
    let start_cost = cycles.get(&NodeId::BEGIN).copied().unwrap_or(0.0);
    dist.insert(NodeId::BEGIN, start_cost);
    heap.push(Entry(start_cost, NodeId::BEGIN));
    while let Some(Entry(d, id)) = heap.pop() {
        if d > dist.get(&id).copied().unwrap_or(f64::INFINITY) {
            continue;
        }
        if id == NodeId::END {
            return d;
        }
        for (k, &s) in g.node(id).successors().iter().enumerate() {
            let nd = d + edge_cycles(g, id, k, params) + cycles.get(&s).copied().unwrap_or(0.0);
            if nd < dist.get(&s).copied().unwrap_or(f64::INFINITY) {
                dist.insert(s, nd);
                heap.push(Entry(nd, s));
            }
        }
    }
    dist.get(&NodeId::END).copied().unwrap_or(0.0)
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
