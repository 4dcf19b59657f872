//! The s-graph → C translator (Section III-B4).

use polis_cfsm::{value_var_name, Action, Cfsm, Network};
use polis_expr::{Expr, Type};
use polis_sgraph::analysis::EntryCopies;
use polis_sgraph::{
    AssignLabel, BufferPolicy, ComputedTarget, Cond, NodeId, SGraph, SNode, TestLabel,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Options for [`emit_c`].
#[derive(Debug, Clone, Copy)]
pub struct CodegenOptions {
    /// Entry-copy buffering policy (Section V-B).
    pub buffering: BufferPolicy,
}

impl Default for CodegenOptions {
    fn default() -> CodegenOptions {
        CodegenOptions {
            buffering: BufferPolicy::All,
        }
    }
}

/// Minimum number of children for a multi-way TEST to be emitted as a
/// `switch` rather than an `if` chain — "a target-dependent parameter can
/// be used to specify how many children a TEST node must have in order to
/// make an if-based implementation more convenient than a switch-based
/// one." Both targets use three.
const SWITCH_THRESHOLD: usize = 3;

/// Size measures of an emitted C translation unit, recorded into the
/// synthesis trace by the pipeline's emit stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EmitStats {
    /// Total source lines (including blanks and comments).
    pub lines: u64,
    /// Source bytes.
    pub bytes: u64,
    /// `goto` statements — one per shared s-graph edge in the paper's
    /// goto style, a rough proxy for sharing in the decision graph.
    pub gotos: u64,
}

/// Measures an emitted C source string.
pub fn measure_c(src: &str) -> EmitStats {
    EmitStats {
        lines: src.lines().count() as u64,
        bytes: src.len() as u64,
        gotos: src.matches("goto ").count() as u64,
    }
}

/// Emits the C routine implementing one CFSM reaction from its s-graph.
///
/// The output is one `void <name>_react(struct <name>_state *st)` function
/// in the paper's goto style, plus the state struct and its initializer.
/// RTOS interaction goes through `POLIS_*` macros declared by
/// [`emit_network_header`]. The entry copies are [`EntryCopies::of`] under
/// `opts.buffering`: a copied location is read from its local, any other
/// from the state struct.
pub fn emit_c(cfsm: &Cfsm, g: &SGraph, opts: &CodegenOptions) -> String {
    let name = g.name();
    let copies = EntryCopies::of(cfsm, g, opts.buffering);
    let multi_state = cfsm.states().len() > 1;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* synthesized by polis from CFSM `{name}` -- generated code, do not edit */"
    );
    let _ = writeln!(out, "#include \"polis_rtos.h\"\n");

    // State struct + initializer.
    let _ = writeln!(out, "struct {name}_state {{");
    for v in cfsm.state_vars() {
        let _ = writeln!(out, "    {} {};", v.ty.c_type(), v.name);
    }
    if multi_state {
        let _ = writeln!(out, "    unsigned char ctrl;");
    } else if cfsm.state_vars().is_empty() {
        // ISO C has no empty struct.
        let _ = writeln!(out, "    unsigned char unused;");
    }
    let _ = writeln!(out, "}};\n");
    let _ = writeln!(out, "void {name}_init(struct {name}_state *st)\n{{");
    for v in cfsm.state_vars() {
        let _ = writeln!(out, "    st->{} = {};", v.name, v.init);
    }
    if multi_state {
        let _ = writeln!(out, "    st->ctrl = {};", cfsm.init_state());
    }
    let _ = writeln!(out, "}}\n");

    // Reaction routine.
    let _ = writeln!(out, "void {name}_react(struct {name}_state *st)\n{{");
    for b in &copies.vars {
        let ty = cfsm.state_vars()[cfsm.state_var_index(b).expect("state var")].ty;
        let _ = writeln!(out, "    {} {} = st->{};", ty.c_type(), b, b);
    }
    if copies.ctrl {
        let _ = writeln!(out, "    unsigned char ctrl = st->ctrl;");
    }

    let mut e = CEmitter {
        cfsm,
        g,
        ctrl: if copies.ctrl { "ctrl" } else { "st->ctrl" },
        buffered: copies.vars,
        out: String::new(),
        emitted: vec![false; g.len()],
    };
    // A machine with no transitions has BEGIN -> END: an empty reaction.
    e.goto(g.begin_next());
    out.push_str(&e.out);
    let _ = writeln!(out, "L{}: return;", NodeId::END.index());
    let _ = writeln!(out, "}}");
    out
}

/// Emits the `polis_rtos.h` header shared by every routine of a network:
/// RTOS macros and signal identifiers.
pub fn emit_network_header(net: &Network) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "/* polis_rtos.h -- generated for network `{}` */",
        net.name()
    );
    let _ = writeln!(out, "#ifndef POLIS_RTOS_H\n#define POLIS_RTOS_H\n");
    let mut signals: BTreeSet<String> = BTreeSet::new();
    for m in net.cfsms() {
        for s in m.inputs().iter().chain(m.outputs()) {
            signals.insert(s.name().to_owned());
        }
    }
    for (i, s) in signals.iter().enumerate() {
        let _ = writeln!(out, "#define POLIS_SIG_{s} {i}");
    }
    out.push_str(
        "\n/* Provided by the generated RTOS: */\n\
         extern unsigned char polis_detect(int sig);\n\
         extern long polis_value(int sig);\n\
         extern void polis_emit(int sig);\n\
         extern void polis_emit_value(int sig, long v);\n\
         extern void polis_consume(void);\n\n\
         #define POLIS_DETECT(sig) polis_detect(POLIS_SIG_##sig)\n\
         #define POLIS_VALUE(sig) polis_value(POLIS_SIG_##sig)\n\
         #define POLIS_EMIT(sig) polis_emit(POLIS_SIG_##sig)\n\
         #define POLIS_EMIT_VALUE(sig, v) polis_emit_value(POLIS_SIG_##sig, (v))\n\
         #define POLIS_CONSUME() polis_consume()\n\
         #define MIN(a, b) ((a) < (b) ? (a) : (b))\n\
         #define MAX(a, b) ((a) > (b) ? (a) : (b))\n\n\
         #endif /* POLIS_RTOS_H */\n",
    );
    out
}

struct CEmitter<'a> {
    cfsm: &'a Cfsm,
    g: &'a SGraph,
    /// Where control-state reads go: the entry copy or the state struct.
    ctrl: &'static str,
    buffered: BTreeSet<String>,
    out: String,
    emitted: Vec<bool>,
}

impl CEmitter<'_> {
    /// Renders an expression with variables bound to their C locations.
    fn expr(&self, e: &Expr) -> String {
        let renamed = e.rename_vars(&|n| {
            if self.buffered.contains(n) {
                n.to_owned() // entry copy: plain local
            } else if self.cfsm.state_var_index(n).is_some() {
                format!("st->{n}")
            } else {
                // An input value variable `sig_value`.
                for sig in self.cfsm.inputs() {
                    if sig.is_valued() && value_var_name(sig.name()) == n {
                        return format!("POLIS_VALUE({})", sig.name());
                    }
                }
                unreachable!("validation guarantees known variables")
            }
        });
        renamed.to_c()
    }

    fn cond(&self, c: &Cond) -> String {
        match c {
            Cond::Const(b) => u8::from(*b).to_string(),
            Cond::Present(i) => {
                format!("POLIS_DETECT({})", self.cfsm.inputs()[*i].name())
            }
            Cond::Test(t) => self.expr(&self.cfsm.tests()[*t].expr),
            Cond::CtrlBit { bit, width } => {
                format!("(({} >> {}) & 1)", self.ctrl, width - 1 - bit)
            }
            Cond::Not(a) => format!("(!{})", self.cond(a)),
            Cond::And(a, b) => format!("({} && {})", self.cond(a), self.cond(b)),
            Cond::Or(a, b) => format!("({} || {})", self.cond(a), self.cond(b)),
        }
    }

    fn goto(&mut self, id: NodeId) {
        if self.emitted[id.index()] || id == NodeId::END {
            let _ = writeln!(self.out, "    goto L{};", id.index());
        } else {
            self.emit_node(id);
        }
    }

    fn emit_node(&mut self, id: NodeId) {
        self.emitted[id.index()] = true;
        let _ = writeln!(self.out, "L{}:", id.index());
        match self.g.node(id).clone() {
            SNode::Begin { .. } => unreachable!("emission starts after BEGIN"),
            SNode::End => unreachable!("END emitted by the epilogue"),
            SNode::Test { label, children } => {
                match &label {
                    TestLabel::Present { input } => {
                        let sig = self.cfsm.inputs()[*input].name();
                        let _ = writeln!(
                            self.out,
                            "    if (POLIS_DETECT({sig})) goto L{};",
                            children[1].index()
                        );
                    }
                    TestLabel::TestExpr { test } => {
                        let e = self.expr(&self.cfsm.tests()[*test].expr);
                        let _ = writeln!(self.out, "    if ({e}) goto L{};", children[1].index());
                    }
                    TestLabel::CtrlBit { bit, width } => {
                        let _ = writeln!(
                            self.out,
                            "    if (({} >> {}) & 1) goto L{};",
                            self.ctrl,
                            width - 1 - bit,
                            children[1].index()
                        );
                    }
                    TestLabel::Compound { cond } => {
                        let c = self.cond(cond);
                        let _ = writeln!(self.out, "    if ({c}) goto L{};", children[1].index());
                    }
                    TestLabel::CtrlSwitch { .. } => {
                        if children.len() >= SWITCH_THRESHOLD {
                            let _ = writeln!(self.out, "    switch ({}) {{", self.ctrl);
                            for (v, c) in children.iter().enumerate() {
                                let _ = writeln!(self.out, "    case {v}: goto L{};", c.index());
                            }
                            let _ = writeln!(self.out, "    }}");
                        } else {
                            for (v, c) in children.iter().enumerate().skip(1) {
                                let _ = writeln!(
                                    self.out,
                                    "    if ({} == {v}) goto L{};",
                                    self.ctrl,
                                    c.index()
                                );
                            }
                        }
                        // Default arm falls through to child 0.
                        self.goto(children[0]);
                        for &c in &children {
                            if !self.emitted[c.index()] && c != NodeId::END {
                                self.emit_node(c);
                            }
                        }
                        return;
                    }
                }
                // Binary: fall through to the false child.
                self.goto(children[0]);
                if !self.emitted[children[1].index()] && children[1] != NodeId::END {
                    self.emit_node(children[1]);
                }
            }
            SNode::Assign { label, next } => {
                match &label {
                    AssignLabel::Consume => {
                        let _ = writeln!(self.out, "    POLIS_CONSUME();");
                    }
                    AssignLabel::Action { action } => self.emit_action(*action, None),
                    AssignLabel::NextCtrlBits { bits, width } => self.emit_ctrl_bits(bits, *width),
                    AssignLabel::Computed { target, cond } => {
                        let c = self.cond(cond);
                        match target {
                            ComputedTarget::Consume => {
                                let _ = writeln!(self.out, "    if ({c}) POLIS_CONSUME();");
                            }
                            ComputedTarget::Action { action } => {
                                self.emit_action(*action, Some(&c));
                            }
                            ComputedTarget::CtrlBit { bit, width } => {
                                let shift = width - 1 - bit;
                                let _ = writeln!(
                                    self.out,
                                    "    st->ctrl = (st->ctrl & ~(1 << {shift})) | (({c}) << {shift});"
                                );
                            }
                        }
                    }
                }
                self.goto(next);
            }
        }
    }

    fn emit_action(&mut self, action: usize, guard: Option<&str>) {
        let prefix = match guard {
            Some(c) => format!("    if ({c}) "),
            None => "    ".to_owned(),
        };
        match &self.cfsm.actions()[action] {
            Action::Emit {
                signal,
                value: None,
            } => {
                let sig = self.cfsm.outputs()[*signal].name();
                let _ = writeln!(self.out, "{prefix}POLIS_EMIT({sig});");
            }
            Action::Emit {
                signal,
                value: Some(e),
            } => {
                let sig = &self.cfsm.outputs()[*signal];
                let ty = sig
                    .value_type()
                    .expect("valued emission of a valued signal");
                let v = wrap_to(ty, self.expr(e));
                let _ = writeln!(self.out, "{prefix}POLIS_EMIT_VALUE({}, {v});", sig.name());
            }
            Action::Assign { var, value } => {
                let var = &self.cfsm.state_vars()[*var];
                let v = wrap_to(var.ty, self.expr(value));
                let _ = writeln!(self.out, "{prefix}st->{} = {v};", var.name);
            }
        }
    }

    fn emit_ctrl_bits(&mut self, bits: &[(usize, bool)], width: usize) {
        // Full-width writes collapse to a constant store.
        if bits.len() == width {
            let mut value = 0u64;
            let mut mask = 0u64;
            for &(bit, v) in bits {
                let m = 1u64 << (width - 1 - bit);
                mask |= m;
                if v {
                    value |= m;
                }
            }
            if mask == (1u64 << width) - 1 {
                let _ = writeln!(self.out, "    st->ctrl = {value};");
                return;
            }
        }
        for &(bit, v) in bits {
            let shift = width - 1 - bit;
            if v {
                let _ = writeln!(self.out, "    st->ctrl |= (1 << {shift});");
            } else {
                let _ = writeln!(self.out, "    st->ctrl &= ~(1 << {shift});");
            }
        }
    }
}

/// The C for storing `v` into a slot of type `ty` with the model's wrap
/// ([`Type::clamp`]). 8-, 16- and 32-bit integers fill their C type and
/// wrap as stored; a narrower unsigned type is masked, a narrower signed
/// type sign-extended, and a `bool` tested against zero. `v` is an
/// operand as [`Expr::to_c`] renders it: an atom or parenthesized.
fn wrap_to(ty: Type, v: String) -> String {
    match ty {
        Type::Int {
            bits: 8 | 16 | 32, ..
        } => v,
        Type::Int {
            bits,
            signed: false,
        } => format!("({v} & {:#x})", (1u64 << bits) - 1),
        Type::Int { bits, signed: true } => {
            let sign = 1u64 << (bits - 1);
            format!("((({v} & {:#x}) ^ {sign:#x}) - {sign:#x})", 2 * sign - 1)
        }
        Type::Bool => format!("({v} != 0)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polis_cfsm::ReactiveFn;
    use polis_expr::Value;
    use polis_sgraph::{build, ite_chain};

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

    #[test]
    fn simple_c_has_expected_shape() {
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let c = emit_c(&m, &g, &CodegenOptions::default());
        assert!(c.contains("struct simple_state"));
        assert!(c.contains("void simple_init"));
        assert!(c.contains("void simple_react"));
        assert!(c.contains("POLIS_DETECT(c)"));
        assert!(c.contains("POLIS_EMIT(y);"));
        assert!(c.contains("POLIS_CONSUME();"));
        assert!(c.contains("goto L"));
        assert!(c.contains("POLIS_VALUE(c)"));
        // the a := a + 1 action
        assert!(c.contains("+ 1"), "{c}");
    }

    #[test]
    fn narrow_types_wrap_as_the_model_does() {
        let mut b = Cfsm::builder("nibbles");
        b.input_pure("go");
        b.output_valued("o", Type::int(4));
        b.state_var("n", Type::uint(4), Value::Int(0));
        b.state_var("d", Type::int(4), Value::Int(0));
        b.state_var("f", Type::Bool, Value::Int(0));
        let s = b.ctrl_state("s");
        b.transition(s, s)
            .when_present("go")
            .assign("n", Expr::var("n").add(Expr::int(1)))
            .assign("d", Expr::var("d").sub(Expr::int(1)))
            .assign("f", Expr::var("n"))
            .emit_value("o", Expr::var("d").sub(Expr::int(1)))
            .done();
        let m = b.build().unwrap();
        let g = build(&ReactiveFn::build(&m)).unwrap();
        let c = emit_c(&m, &g, &CodegenOptions::default());
        assert!(c.contains("st->n = ((n + 1) & 0xf);"), "{c}");
        assert!(
            c.contains("st->d = ((((d - 1) & 0xf) ^ 0x8) - 0x8);"),
            "{c}"
        );
        assert!(c.contains("st->f = (n != 0);"), "{c}");
        assert!(
            c.contains("POLIS_EMIT_VALUE(o, ((((d - 1) & 0xf) ^ 0x8) - 0x8));"),
            "{c}"
        );
        // The emitted formulas compute `Type::clamp` on every value.
        for v in -300i64..300 {
            assert_eq!(v & 0xf, Type::uint(4).clamp(v), "{v}");
            assert_eq!(((v & 0xf) ^ 0x8) - 0x8, Type::int(4).clamp(v), "{v}");
        }
    }

    #[test]
    fn minimal_buffering_omits_entry_copies_when_safe() {
        let m = simple();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let all = emit_c(&m, &g, &CodegenOptions::default());
        let min = emit_c(
            &m,
            &g,
            &CodegenOptions {
                buffering: BufferPolicy::Minimal,
            },
        );
        // All: local copy `unsigned char a = st->a;` present; Minimal: not.
        assert!(all.contains("unsigned char a = st->a;"));
        assert!(!min.contains("unsigned char a = st->a;"));
    }

    #[test]
    fn multi_state_machines_reference_ctrl() {
        let m = toggler();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let c = emit_c(&m, &g, &CodegenOptions::default());
        assert!(c.contains("unsigned char ctrl = st->ctrl;"));
        assert!(c.contains("st->ctrl = "));
        assert!(c.contains("ctrl >> 0"));
    }

    #[test]
    fn ite_chain_emits_guarded_assignments() {
        let m = simple();
        let mut rf = ReactiveFn::build(&m);
        let g = ite_chain(&mut rf);
        let c = emit_c(&m, &g, &CodegenOptions::default());
        assert!(c.contains("if ("));
        assert!(c.contains("POLIS_CONSUME()"));
        // No test labels -> no `goto Lx;` other than the END fallthrough.
        assert!(c.contains("POLIS_EMIT(y);"));
    }

    #[test]
    fn header_declares_macros_and_signals() {
        let net = Network::new("n", vec![simple()]).unwrap();
        let h = emit_network_header(&net);
        assert!(h.contains("#define POLIS_SIG_c"));
        assert!(h.contains("#define POLIS_SIG_y"));
        assert!(h.contains("POLIS_DETECT"));
        assert!(h.contains("POLIS_EMIT_VALUE"));
        assert!(h.contains("#endif"));
    }

    #[test]
    fn a_machine_without_state_still_has_a_member() {
        let mut b = Cfsm::builder("relay");
        b.input_pure("a");
        b.output_pure("b");
        let s = b.ctrl_state("s");
        b.transition(s, s).when_present("a").emit("b").done();
        // A state variable or a second control state is a member already.
        for (m, placeholder) in [
            (b.build().unwrap(), true),
            (simple(), false),
            (toggler(), false),
        ] {
            let g = build(&ReactiveFn::build(&m)).unwrap();
            let c = emit_c(&m, &g, &CodegenOptions::default());
            assert_eq!(
                c.contains("    unsigned char unused;\n"),
                placeholder,
                "{c}"
            );
        }
    }

    #[test]
    fn every_goto_targets_an_emitted_label() {
        let m = toggler();
        let rf = ReactiveFn::build(&m);
        let g = build(&rf).unwrap();
        let c = emit_c(&m, &g, &CodegenOptions::default());
        let labels: BTreeSet<&str> = c
            .lines()
            .filter(|l| l.starts_with('L') && l.contains(':'))
            .map(|l| l.split(':').next().unwrap())
            .collect();
        for line in c.lines() {
            if let Some(pos) = line.find("goto ") {
                let target = line[pos + 5..].trim_end_matches(';').trim();
                assert!(labels.contains(target), "goto {target} has no label:\n{c}");
            }
        }
    }
}
