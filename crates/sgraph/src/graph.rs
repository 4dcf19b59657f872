//! The s-graph data structure (Definition 1).

use crate::cond::Cond;
use std::fmt;

/// Index of a node within an [`SGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The BEGIN node (always index 0).
    pub const BEGIN: NodeId = NodeId(0);
    /// The END node (always index 1).
    pub const END: NodeId = NodeId(1);

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a TEST vertex examines at run time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TestLabel {
    /// Presence flag of an input event — an RTOS event-detection call in
    /// generated code. Two children.
    Present {
        /// Index into the CFSM's inputs.
        input: usize,
    },
    /// A data test (expression over state variables and event values). Two
    /// children.
    TestExpr {
        /// Index into the CFSM's tests.
        test: usize,
    },
    /// One bit of the binary-encoded control state (bit 0 = MSB). Two
    /// children.
    CtrlBit {
        /// Bit position, MSB first.
        bit: usize,
        /// Total encoding width.
        width: usize,
    },
    /// Multi-way branch on the whole control state; `children[s]` is taken
    /// in state `s` (footnote 3: TEST vertices may have more than two
    /// children).
    CtrlSwitch {
        /// Number of control states (= number of children).
        states: usize,
    },
    /// A collapsed test: a boolean function of several atoms
    /// (Section III-B3d). Two children.
    Compound {
        /// The branch predicate.
        cond: Cond,
    },
}

/// What an ASSIGN vertex does at run time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AssignLabel {
    /// Record that a transition fired: the RTOS must consume the input
    /// events of this execution (Section IV-D).
    Consume,
    /// Execute a CFSM action (an event emission or a state-variable
    /// assignment).
    Action {
        /// Index into the CFSM's actions.
        action: usize,
    },
    /// Set bits of the next control state (bit 0 = MSB). Bits not listed
    /// keep their current value (don't cares resolved by "no write").
    NextCtrlBits {
        /// `(bit, value)` pairs.
        bits: Vec<(usize, bool)>,
        /// Total encoding width.
        width: usize,
    },
    /// Computed assignment used by the TEST-free ITE-chain form
    /// (Section III-B3c): evaluate `cond` and apply it to `target`.
    Computed {
        /// What receives the computed boolean.
        target: ComputedTarget,
        /// The computed condition.
        cond: Cond,
    },
}

/// Target of a [`AssignLabel::Computed`] assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComputedTarget {
    /// The consume/fired flag.
    Consume,
    /// Run the action iff the condition is true.
    Action {
        /// Index into the CFSM's actions.
        action: usize,
    },
    /// One bit of the next control state (bit 0 = MSB).
    CtrlBit {
        /// Bit position.
        bit: usize,
        /// Encoding width.
        width: usize,
    },
}

/// One s-graph vertex.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum SNode {
    /// The unique source.
    Begin {
        /// Successor.
        next: NodeId,
    },
    /// The unique sink.
    End,
    /// A branch; `children[outcome]` is the successor. Binary tests use
    /// `children[0]` for false and `children[1]` for true.
    Test {
        /// What to examine.
        label: TestLabel,
        /// Successors by outcome.
        children: Vec<NodeId>,
    },
    /// An action followed by `next`.
    Assign {
        /// What to do.
        label: AssignLabel,
        /// Successor.
        next: NodeId,
    },
}

impl SNode {
    /// The successors: a TEST's children in outcome order, the `next` of
    /// BEGIN and ASSIGN, none for END.
    pub fn successors(&self) -> &[NodeId] {
        match self {
            SNode::Begin { next } | SNode::Assign { next, .. } => std::slice::from_ref(next),
            SNode::End => &[],
            SNode::Test { children, .. } => children,
        }
    }
}

/// A software graph: the control-flow skeleton of one CFSM's reaction.
///
/// Size measures of an s-graph, collected in one reachability pass by
/// [`SGraph::stats`]. Recorded into the synthesis trace before and after
/// collapsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SGraphStats {
    /// Total arena nodes, including BEGIN/END and unreachable leftovers.
    pub nodes: usize,
    /// Nodes reachable from BEGIN.
    pub reachable: usize,
    /// Reachable TEST vertices.
    pub tests: usize,
    /// Reachable ASSIGN vertices.
    pub assigns: usize,
    /// Maximum TEST vertices on any BEGIN→END path.
    pub depth: usize,
}

/// Nodes are stored in an arena; node 0 is BEGIN, node 1 is END. The graph
/// is a DAG from BEGIN to END (Definition 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SGraph {
    name: String,
    nodes: Vec<SNode>,
}

impl SGraph {
    /// Creates an s-graph whose BEGIN points directly at END; extend with
    /// [`SGraph::add_node`] and [`SGraph::set_begin`].
    pub fn new(name: impl Into<String>) -> SGraph {
        SGraph {
            name: name.into(),
            nodes: vec![SNode::Begin { next: NodeId::END }, SNode::End],
        }
    }

    /// The CFSM this graph implements.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self, node: SNode) -> NodeId {
        assert!(
            !matches!(node, SNode::Begin { .. } | SNode::End),
            "BEGIN/END are fixed at indices 0 and 1"
        );
        self.nodes.push(node);
        NodeId(self.nodes.len() as u32 - 1)
    }

    /// Points BEGIN at `first`.
    pub fn set_begin(&mut self, first: NodeId) {
        self.nodes[0] = SNode::Begin { next: first };
    }

    /// The node BEGIN points at.
    pub fn begin_next(&self) -> NodeId {
        match self.nodes[0] {
            SNode::Begin { next } => next,
            _ => unreachable!("node 0 is BEGIN"),
        }
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &SNode {
        &self.nodes[id.index()]
    }

    /// Total number of nodes (including BEGIN/END and any unreachable
    /// leftovers; see [`SGraph::reachable`]).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph is just BEGIN → END.
    pub fn is_empty(&self) -> bool {
        self.begin_next() == NodeId::END
    }

    /// Ids of nodes reachable from BEGIN, in depth-first preorder.
    pub fn reachable(&self) -> Vec<NodeId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        let mut stack = vec![NodeId::BEGIN];
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            order.push(id);
            stack.extend(self.nodes[id.index()].successors().iter().rev());
        }
        order
    }

    /// One-pass snapshot of the graph's size measures, for pipeline
    /// instrumentation (cheaper than calling each accessor separately,
    /// which would redo the reachability walk).
    pub fn stats(&self) -> SGraphStats {
        let reachable = self.reachable();
        let mut tests = 0;
        let mut assigns = 0;
        for id in &reachable {
            match self.node(*id) {
                SNode::Test { .. } => tests += 1,
                SNode::Assign { .. } => assigns += 1,
                _ => {}
            }
        }
        SGraphStats {
            nodes: self.len(),
            reachable: reachable.len(),
            tests,
            assigns,
            depth: self.depth(),
        }
    }

    /// Number of reachable TEST vertices.
    pub fn num_tests(&self) -> usize {
        self.reachable()
            .iter()
            .filter(|id| matches!(self.node(**id), SNode::Test { .. }))
            .count()
    }

    /// Number of reachable ASSIGN vertices.
    pub fn num_assigns(&self) -> usize {
        self.reachable()
            .iter()
            .filter(|id| matches!(self.node(**id), SNode::Assign { .. }))
            .count()
    }

    /// Maximum number of TEST vertices on any BEGIN→END path — the paper's
    /// depth measure (each input is tested at most once per path in the
    /// BDD-derived form, giving minimum-depth graphs).
    pub fn depth(&self) -> usize {
        let order = self.topo_order();
        let mut depth = vec![0usize; self.nodes.len()];
        for &id in order.iter().rev() {
            let node = &self.nodes[id.index()];
            let below = node.successors().iter().map(|c| depth[c.index()]).max();
            depth[id.index()] =
                below.unwrap_or(0) + usize::from(matches!(node, SNode::Test { .. }));
        }
        depth[0]
    }

    /// Reachable nodes in a topological order (parents before children).
    ///
    /// # Panics
    ///
    /// Panics if the graph contains a cycle (which [`SGraph::validate`]
    /// would report as an error instead).
    pub fn topo_order(&self) -> Vec<NodeId> {
        let mut state = vec![0u8; self.nodes.len()]; // 0 new, 1 open, 2 done
        let mut order = Vec::new();
        // Iterative DFS with explicit post-order.
        let mut stack = vec![(NodeId::BEGIN, false)];
        while let Some((id, processed)) = stack.pop() {
            if processed {
                state[id.index()] = 2;
                order.push(id);
                continue;
            }
            match state[id.index()] {
                2 => continue,
                1 => panic!("s-graph contains a cycle through node {}", id.0),
                _ => {}
            }
            state[id.index()] = 1;
            stack.push((id, true));
            for &c in self.nodes[id.index()].successors() {
                if state[c.index()] == 1 {
                    panic!("s-graph contains a cycle through node {}", c.0);
                }
                stack.push((c, false));
            }
        }
        order.reverse();
        order
    }

    /// Checks structural invariants: acyclicity, child arity, and child
    /// indices in range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        // Arity and range checks.
        for (i, n) in self.nodes.iter().enumerate() {
            let check = |c: NodeId| -> Result<(), String> {
                if c.index() >= self.nodes.len() {
                    Err(format!("node {i}: child {} out of range", c.0))
                } else if c == NodeId::BEGIN {
                    Err(format!("node {i}: BEGIN has a parent"))
                } else {
                    Ok(())
                }
            };
            if let SNode::Test { label, children } = n {
                let want = match label {
                    TestLabel::CtrlSwitch { states } => *states,
                    _ => 2,
                };
                if children.len() != want {
                    return Err(format!(
                        "node {i}: TEST has {} children, expected {want}",
                        children.len()
                    ));
                }
            }
            for &c in n.successors() {
                check(c)?;
            }
        }
        // Acyclicity via DFS colors.
        let mut state = vec![0u8; self.nodes.len()];
        fn dfs(g: &SGraph, id: NodeId, state: &mut [u8]) -> Result<(), String> {
            match state[id.index()] {
                2 => return Ok(()),
                1 => return Err(format!("cycle through node {}", id.0)),
                _ => {}
            }
            state[id.index()] = 1;
            for &c in g.node(id).successors() {
                dfs(g, c, state)?;
            }
            state[id.index()] = 2;
            Ok(())
        }
        dfs(self, NodeId::BEGIN, &mut state)?;
        Ok(())
    }

    /// Rebuilds the graph keeping only reachable nodes and sharing
    /// structurally identical subgraphs, exactly as the paper's `reduce`
    /// (graphs produced by [`crate::build`] are already reduced because the
    /// source BDD is; this pass exists for graphs assembled by other
    /// means).
    pub fn reduce(&self) -> SGraph {
        use std::collections::HashMap;
        let mut out = SGraph::new(self.name.clone());
        let mut canon: HashMap<SNode, NodeId> = HashMap::new();
        let mut memo: HashMap<NodeId, NodeId> = HashMap::new();
        let order = self.topo_order();
        for &id in order.iter().rev() {
            let mapped = match self.node(id) {
                SNode::End => NodeId::END,
                SNode::Begin { .. } => continue,
                SNode::Test { label, children } => {
                    let node = SNode::Test {
                        label: label.clone(),
                        children: children.iter().map(|c| memo[c]).collect(),
                    };
                    // A TEST with all-equal children is redundant.
                    if let SNode::Test { children, .. } = &node {
                        if children.windows(2).all(|w| w[0] == w[1]) {
                            memo.insert(id, children[0]);
                            continue;
                        }
                    }
                    *canon
                        .entry(node.clone())
                        .or_insert_with(|| out.add_node(node))
                }
                SNode::Assign { label, next } => {
                    let node = SNode::Assign {
                        label: label.clone(),
                        next: memo[next],
                    };
                    *canon
                        .entry(node.clone())
                        .or_insert_with(|| out.add_node(node))
                }
            };
            memo.insert(id, mapped);
        }
        out.set_begin(memo[&self.begin_next()]);
        out
    }

    /// Graphviz DOT rendering for debugging and documentation.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = format!("digraph \"{}\" {{\n  rankdir=TB;\n", self.name);
        for id in self.reachable() {
            match self.node(id) {
                SNode::Begin { next } => {
                    let _ = writeln!(s, "  n{} [label=\"BEGIN\",shape=circle];", id.0);
                    let _ = writeln!(s, "  n{} -> n{};", id.0, next.0);
                }
                SNode::End => {
                    let _ = writeln!(s, "  n{} [label=\"END\",shape=doublecircle];", id.0);
                }
                SNode::Test { label, children } => {
                    let _ = writeln!(s, "  n{} [label=\"{label}\",shape=diamond];", id.0);
                    for (v, c) in children.iter().enumerate() {
                        let _ = writeln!(s, "  n{} -> n{} [label=\"{v}\"];", id.0, c.0);
                    }
                }
                SNode::Assign { label, next } => {
                    let _ = writeln!(s, "  n{} [label=\"{label}\",shape=box];", id.0);
                    let _ = writeln!(s, "  n{} -> n{};", id.0, next.0);
                }
            }
        }
        s.push_str("}\n");
        s
    }
}

impl fmt::Display for TestLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestLabel::Present { input } => write!(f, "present(in{input})?"),
            TestLabel::TestExpr { test } => write!(f, "test{test}?"),
            TestLabel::CtrlBit { bit, .. } => write!(f, "ctrl.{bit}?"),
            TestLabel::CtrlSwitch { .. } => write!(f, "switch(ctrl)"),
            TestLabel::Compound { cond } => write!(f, "[{cond}]?"),
        }
    }
}

impl fmt::Display for AssignLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignLabel::Consume => write!(f, "consume"),
            AssignLabel::Action { action } => write!(f, "act{action}"),
            AssignLabel::NextCtrlBits { bits, .. } => {
                write!(f, "ctrl := ")?;
                for (b, v) in bits {
                    write!(f, "[{b}]={}", u8::from(*v))?;
                }
                Ok(())
            }
            AssignLabel::Computed { target, cond } => match target {
                ComputedTarget::Consume => write!(f, "consume := {cond}"),
                ComputedTarget::Action { action } => write!(f, "act{action} := {cond}"),
                ComputedTarget::CtrlBit { bit, .. } => write!(f, "ctrl.{bit} := {cond}"),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> SGraph {
        // BEGIN -> test -> {assign -> END, END}
        let mut g = SGraph::new("diamond");
        let a = g.add_node(SNode::Assign {
            label: AssignLabel::Consume,
            next: NodeId::END,
        });
        let t = g.add_node(SNode::Test {
            label: TestLabel::Present { input: 0 },
            children: vec![NodeId::END, a],
        });
        g.set_begin(t);
        g
    }

    #[test]
    fn construction_and_counts() {
        let g = diamond();
        assert_eq!(g.num_tests(), 1);
        assert_eq!(g.num_assigns(), 1);
        assert_eq!(g.depth(), 1);
        assert!(!g.is_empty());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn empty_graph() {
        let g = SGraph::new("empty");
        assert!(g.is_empty());
        assert_eq!(g.depth(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn topo_order_is_consistent() {
        let g = diamond();
        let order = g.topo_order();
        let pos = |id: NodeId| order.iter().position(|&x| x == id).unwrap();
        for &id in &order {
            for &c in g.node(id).successors() {
                assert!(pos(id) < pos(c));
            }
        }
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut g = SGraph::new("bad");
        let t = g.add_node(SNode::Test {
            label: TestLabel::CtrlSwitch { states: 3 },
            children: vec![NodeId::END, NodeId::END], // should be 3
        });
        g.set_begin(t);
        assert!(g.validate().is_err());
    }

    #[test]
    fn reduce_shares_isomorphic_subgraphs() {
        // Two identical assign->END tails under a test.
        let mut g = SGraph::new("dup");
        let a1 = g.add_node(SNode::Assign {
            label: AssignLabel::Action { action: 0 },
            next: NodeId::END,
        });
        let a2 = g.add_node(SNode::Assign {
            label: AssignLabel::Action { action: 0 },
            next: NodeId::END,
        });
        let t = g.add_node(SNode::Test {
            label: TestLabel::Present { input: 0 },
            children: vec![a1, a2],
        });
        g.set_begin(t);
        let r = g.reduce();
        // After sharing, the TEST has equal children and vanishes too.
        assert_eq!(r.num_tests(), 0);
        assert_eq!(r.num_assigns(), 1);
    }

    #[test]
    fn reduce_preserves_distinct_structure() {
        let g = diamond();
        let r = g.reduce();
        assert_eq!(r.num_tests(), 1);
        assert_eq!(r.num_assigns(), 1);
    }

    #[test]
    fn dot_output_mentions_all_nodes() {
        let g = diamond();
        let dot = g.to_dot();
        assert!(dot.contains("BEGIN"));
        assert!(dot.contains("END"));
        assert!(dot.contains("diamond"));
        assert!(dot.contains("present"));
    }
}
