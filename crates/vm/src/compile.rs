//! Instruction selection: s-graph → virtual object code.
//!
//! Mirrors the C translation of Section III-B4 — each s-graph vertex
//! becomes a short, fixed-shape instruction sequence (the property that
//! makes parameter-per-vertex cost estimation accurate) — but targets the
//! virtual ISA directly so code size and cycles can be *measured*
//! independently of the estimator.

use crate::inst::{Inst, SlotInfo, SlotKind, VmProgram};
use polis_cfsm::{Action, Cfsm};
use polis_expr::{Expr, Type, UnOp};
use polis_sgraph::analysis::EntryCopies;
use polis_sgraph::{AssignLabel, ComputedTarget, Cond, NodeId, SGraph, SNode, TestLabel};
use std::collections::HashMap;

pub use polis_sgraph::BufferPolicy;

/// Compiles one CFSM reaction (as an s-graph) into a virtual routine.
pub fn compile(cfsm: &Cfsm, g: &SGraph, policy: BufferPolicy) -> VmProgram {
    let copies = EntryCopies::of(cfsm, g, policy);

    // -- slot table --
    let mut slots: Vec<SlotInfo> = Vec::new();
    let mut state_slot: HashMap<String, u16> = HashMap::new();
    let mut local_slot: HashMap<String, u16> = HashMap::new();
    for v in cfsm.state_vars() {
        state_slot.insert(v.name.clone(), slots.len() as u16);
        slots.push(SlotInfo {
            name: v.name.clone(),
            ty: v.ty,
            kind: SlotKind::State,
            init: v.init.coerce(v.ty).as_int().unwrap_or(0),
        });
    }
    for name in &copies.vars {
        let of = state_slot[name];
        local_slot.insert(name.clone(), slots.len() as u16);
        slots.push(SlotInfo {
            name: format!("{name}_local"),
            ty: slots[of as usize].ty,
            kind: SlotKind::LocalCopy { of },
            init: 0,
        });
    }
    let mut input_slot: HashMap<usize, u16> = HashMap::new();
    for (i, sig) in cfsm.inputs().iter().enumerate() {
        if let Some(ty) = sig.value_type() {
            input_slot.insert(i, slots.len() as u16);
            slots.push(SlotInfo {
                name: polis_cfsm::value_var_name(sig.name()),
                ty,
                kind: SlotKind::InputValue { input: i as u16 },
                init: 0,
            });
        }
    }
    let (ctrl_global, ctrl_read) = if cfsm.states().len() > 1 {
        let ctrl_ty = Type::uint(cfsm.ctrl_width() as u8);
        let global = slots.len() as u16;
        slots.push(SlotInfo {
            name: "ctrl".to_owned(),
            ty: ctrl_ty,
            kind: SlotKind::Ctrl,
            init: cfsm.init_state() as i64,
        });
        let read = if copies.ctrl {
            let local = slots.len() as u16;
            slots.push(SlotInfo {
                name: "ctrl_local".to_owned(),
                ty: ctrl_ty,
                kind: SlotKind::CtrlLocal,
                init: 0,
            });
            local
        } else {
            global
        };
        (Some(global), Some(read))
    } else {
        (None, None)
    };

    let mut e = Emitter {
        cfsm,
        g,
        insts: Vec::new(),
        labels: Vec::new(),
        node_label: HashMap::new(),
        emitted: vec![false; g.len()],
        state_slot,
        local_slot,
        input_slot,
        ctrl_global,
        ctrl_read,
    };

    // Prologue: entry copies (the Section V-B buffering).
    for name in &copies.vars {
        let global = e.state_slot[name];
        let local = e.local_slot[name];
        e.insts.push(Inst::PushVar(global));
        e.insts.push(Inst::StoreVar(local));
    }
    if let (Some(g_), Some(r)) = (ctrl_global, ctrl_read) {
        if g_ != r {
            e.insts.push(Inst::PushVar(g_));
            e.insts.push(Inst::StoreVar(r));
        }
    }

    e.emit_node(g.begin_next());
    let insts = e.finish();

    VmProgram {
        name: g.name().to_owned(),
        insts,
        slots,
        num_inputs: cfsm.inputs().len(),
        num_outputs: cfsm.outputs().len(),
        out_types: cfsm.outputs().iter().map(|s| s.value_type()).collect(),
    }
}

struct Emitter<'a> {
    cfsm: &'a Cfsm,
    g: &'a SGraph,
    insts: Vec<Inst>,
    /// Label id → bound instruction index.
    labels: Vec<Option<usize>>,
    node_label: HashMap<NodeId, usize>,
    emitted: Vec<bool>,
    state_slot: HashMap<String, u16>,
    local_slot: HashMap<String, u16>,
    input_slot: HashMap<usize, u16>,
    ctrl_global: Option<u16>,
    ctrl_read: Option<u16>,
}

impl Emitter<'_> {
    fn new_label(&mut self) -> usize {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind(&mut self, label: usize) {
        debug_assert!(self.labels[label].is_none(), "label bound twice");
        self.labels[label] = Some(self.insts.len());
    }

    fn label_of(&mut self, id: NodeId) -> usize {
        if let Some(&l) = self.node_label.get(&id) {
            return l;
        }
        let l = self.new_label();
        self.node_label.insert(id, l);
        l
    }

    fn goto(&mut self, id: NodeId) {
        if self.emitted[id.index()] {
            let l = self.label_of(id);
            self.insts.push(Inst::Jump(l));
        } else {
            self.emit_node(id);
        }
    }

    fn emit_node(&mut self, id: NodeId) {
        debug_assert!(!self.emitted[id.index()]);
        self.emitted[id.index()] = true;
        let l = self.label_of(id);
        self.bind(l);
        match self.g.node(id).clone() {
            SNode::Begin { .. } => unreachable!("BEGIN emitted via prologue"),
            SNode::End => self.insts.push(Inst::Return),
            SNode::Test { label, children } => {
                match &label {
                    TestLabel::Present { input } => {
                        self.insts.push(Inst::Detect(*input as u16));
                    }
                    TestLabel::TestExpr { test } => {
                        let e = self.cfsm.tests()[*test].expr.clone();
                        self.emit_expr(&e);
                    }
                    TestLabel::CtrlBit { bit, width } => {
                        self.insts.push(Inst::PushCtrlBit {
                            slot: self.ctrl_read.expect("ctrl slot"),
                            bit: *bit as u8,
                            width: *width as u8,
                        });
                    }
                    TestLabel::CtrlSwitch { .. } => {
                        let slot = self.ctrl_read.expect("ctrl slot");
                        self.insts.push(Inst::PushVar(slot));
                        let targets: Vec<usize> =
                            children.iter().map(|&c| self.label_of(c)).collect();
                        self.insts.push(Inst::JumpTable(targets));
                        for &c in &children {
                            if !self.emitted[c.index()] {
                                self.emit_node(c);
                            }
                        }
                        return;
                    }
                    TestLabel::Compound { cond } => self.emit_cond(cond),
                }
                // Binary test: branch to the true child, fall through to
                // the false child.
                let t1 = self.label_of(children[1]);
                self.insts.push(Inst::Branch {
                    when: true,
                    target: t1,
                });
                self.goto(children[0]);
                if !self.emitted[children[1].index()] {
                    self.emit_node(children[1]);
                }
            }
            SNode::Assign { label, next } => {
                match &label {
                    AssignLabel::Consume => self.insts.push(Inst::Consume),
                    AssignLabel::Action { action } => self.emit_action(*action),
                    AssignLabel::NextCtrlBits { bits, width } => {
                        self.insts.push(Inst::SetCtrlBits {
                            slot: self.ctrl_global.expect("ctrl slot"),
                            bits: bits.iter().map(|&(b, v)| (b as u8, v)).collect(),
                            width: *width as u8,
                        });
                    }
                    AssignLabel::Computed { target, cond } => {
                        self.emit_cond(cond);
                        match target {
                            ComputedTarget::Consume => {
                                let skip = self.new_label();
                                self.insts.push(Inst::Branch {
                                    when: false,
                                    target: skip,
                                });
                                self.insts.push(Inst::Consume);
                                self.bind(skip);
                            }
                            ComputedTarget::Action { action } => {
                                let skip = self.new_label();
                                self.insts.push(Inst::Branch {
                                    when: false,
                                    target: skip,
                                });
                                self.emit_action(*action);
                                self.bind(skip);
                            }
                            ComputedTarget::CtrlBit { bit, width } => {
                                self.insts.push(Inst::StoreCtrlBit {
                                    slot: self.ctrl_global.expect("ctrl slot"),
                                    bit: *bit as u8,
                                    width: *width as u8,
                                });
                            }
                        }
                    }
                }
                self.goto(next);
            }
        }
    }

    fn emit_action(&mut self, action: usize) {
        match &self.cfsm.actions()[action] {
            Action::Emit {
                signal,
                value: None,
            } => self.insts.push(Inst::EmitPure(*signal as u16)),
            Action::Emit {
                signal,
                value: Some(e),
            } => {
                let e = e.clone();
                self.emit_expr(&e);
                self.insts.push(Inst::EmitValued(*signal as u16));
            }
            Action::Assign { var, value } => {
                let e = value.clone();
                self.emit_expr(&e);
                let name = &self.cfsm.state_vars()[*var].name;
                let slot = self.state_slot[name];
                self.insts.push(Inst::StoreVar(slot));
            }
        }
    }

    fn resolve_var(&self, name: &str) -> u16 {
        if let Some(&local) = self.local_slot.get(name) {
            return local; // buffered reads go to the entry copy
        }
        if let Some(&slot) = self.state_slot.get(name) {
            return slot;
        }
        // Input value variable.
        for (i, sig) in self.cfsm.inputs().iter().enumerate() {
            if sig.is_valued() && polis_cfsm::value_var_name(sig.name()) == name {
                return self.input_slot[&i];
            }
        }
        panic!("unresolved variable `{name}` (CFSM validation should prevent this)");
    }

    fn emit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Const(v) => {
                let raw = match v {
                    polis_expr::Value::Bool(b) => i64::from(*b),
                    polis_expr::Value::Int(i) => *i,
                };
                self.insts.push(Inst::PushImm(raw));
            }
            Expr::Var(name) => {
                let slot = self.resolve_var(name);
                self.insts.push(Inst::PushVar(slot));
            }
            Expr::Unary(op, a) => {
                self.emit_expr(a);
                self.insts.push(Inst::Unary(*op));
            }
            Expr::Binary(op, a, b) => {
                self.emit_expr(a);
                self.emit_expr(b);
                self.insts.push(Inst::Binary(*op));
            }
            Expr::Ite(c, t, e2) => {
                let l_else = self.new_label();
                let l_end = self.new_label();
                self.emit_expr(c);
                self.insts.push(Inst::Branch {
                    when: false,
                    target: l_else,
                });
                self.emit_expr(t);
                self.insts.push(Inst::Jump(l_end));
                self.bind(l_else);
                self.emit_expr(e2);
                self.bind(l_end);
            }
        }
    }

    fn emit_cond(&mut self, c: &Cond) {
        match c {
            Cond::Const(b) => self.insts.push(Inst::PushImm(i64::from(*b))),
            Cond::Present(i) => self.insts.push(Inst::Detect(*i as u16)),
            Cond::Test(t) => {
                let e = self.cfsm.tests()[*t].expr.clone();
                self.emit_expr(&e);
            }
            Cond::CtrlBit { bit, width } => self.insts.push(Inst::PushCtrlBit {
                slot: self.ctrl_read.expect("ctrl slot"),
                bit: *bit as u8,
                width: *width as u8,
            }),
            Cond::Not(a) => {
                self.emit_cond(a);
                self.insts.push(Inst::Unary(UnOp::Not));
            }
            Cond::And(a, b) => {
                self.emit_cond(a);
                self.emit_cond(b);
                self.insts.push(Inst::Binary(polis_expr::BinOp::And));
            }
            Cond::Or(a, b) => {
                self.emit_cond(a);
                self.emit_cond(b);
                self.insts.push(Inst::Binary(polis_expr::BinOp::Or));
            }
        }
    }

    /// Resolves label ids in branch targets to instruction indices.
    fn finish(mut self) -> Vec<Inst> {
        let resolve =
            |labels: &[Option<usize>], l: usize| -> usize { labels[l].expect("unbound label") };
        for inst in &mut self.insts {
            match inst {
                Inst::Branch { target, .. } | Inst::Jump(target) => {
                    *target = resolve(&self.labels, *target);
                }
                Inst::JumpTable(targets) => {
                    for t in targets {
                        *t = resolve(&self.labels, *t);
                    }
                }
                _ => {}
            }
        }
        self.insts
    }
}
