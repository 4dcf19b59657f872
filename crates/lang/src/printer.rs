//! Pretty-printing CFSMs back into the specification language.
//!
//! [`emit_source`] is the inverse of [`crate::parse_module`] up to test
//! naming and formatting: parsing the emitted text yields a behaviourally
//! identical machine. Useful for persisting programmatically-built or
//! composed machines, and round-trip tested in `polis-core`.

use polis_cfsm::{value_var_name, Action, Cfsm, Guard, Network};
use polis_expr::{BinOp, Expr, UnOp, Value};
use std::fmt::Write as _;

/// Renders a machine as specification-language source.
pub fn emit_source(m: &Cfsm) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "module {} {{", m.name());
    for s in m.inputs() {
        match s.value_type() {
            Some(ty) => {
                let _ = writeln!(out, "    input {} : {};", s.name(), ty);
            }
            None => {
                let _ = writeln!(out, "    input {};", s.name());
            }
        }
    }
    for s in m.outputs() {
        match s.value_type() {
            Some(ty) => {
                let _ = writeln!(out, "    output {} : {};", s.name(), ty);
            }
            None => {
                let _ = writeln!(out, "    output {};", s.name());
            }
        }
    }
    for v in m.state_vars() {
        let init = match v.init {
            Value::Int(i) => i,
            Value::Bool(b) => i64::from(b),
        };
        let _ = writeln!(out, "    var {} : {} := {};", v.name, v.ty, init);
    }
    let _ = writeln!(out, "    state {};", m.states().join(", "));
    for t in m.transitions() {
        let _ = write!(
            out,
            "    from {} to {} when {}",
            m.states()[t.from],
            m.states()[t.to],
            guard_source(m, &t.guard)
        );
        if t.actions.is_empty() {
            let _ = writeln!(out, ";");
        } else {
            let _ = write!(out, " do {{ ");
            for &ai in &t.actions {
                match &m.actions()[ai] {
                    Action::Emit {
                        signal,
                        value: None,
                    } => {
                        let _ = write!(out, "emit {}; ", m.outputs()[*signal].name());
                    }
                    Action::Emit {
                        signal,
                        value: Some(e),
                    } => {
                        let _ = write!(
                            out,
                            "emit {}({}); ",
                            m.outputs()[*signal].name(),
                            expr_source(m, e)
                        );
                    }
                    Action::Assign { var, value } => {
                        let _ = write!(
                            out,
                            "{} := {}; ",
                            m.state_vars()[*var].name,
                            expr_source(m, value)
                        );
                    }
                }
            }
            let _ = writeln!(out, "}}");
        }
    }
    out.push_str("}\n");
    out
}

/// Renders every machine of a network.
pub fn emit_network_source(net: &Network) -> String {
    net.cfsms()
        .iter()
        .map(emit_source)
        .collect::<Vec<_>>()
        .join("\n")
}

fn guard_source(m: &Cfsm, g: &Guard) -> String {
    match g {
        Guard::True => "true".to_owned(),
        Guard::False => "false".to_owned(),
        Guard::Present(i) => m.inputs()[*i].name().to_owned(),
        Guard::Test(i) => format!("[{}]", expr_source(m, &m.tests()[*i].expr)),
        Guard::Not(x) => format!("!{}", guard_atom_source(m, x)),
        Guard::And(a, b) => format!("({} && {})", guard_source(m, a), guard_source(m, b)),
        Guard::Or(a, b) => format!("({} || {})", guard_source(m, a), guard_source(m, b)),
    }
}

fn guard_atom_source(m: &Cfsm, g: &Guard) -> String {
    match g {
        Guard::Present(_) | Guard::Test(_) | Guard::True | Guard::False | Guard::Not(_) => {
            guard_source(m, g)
        }
        _ => format!("({})", guard_source(m, g)),
    }
}

/// Renders an expression in the language's (C-like) syntax, mapping event
/// value variables back to the `?signal` notation.
fn expr_source(m: &Cfsm, e: &Expr) -> String {
    match e {
        Expr::Const(Value::Int(v)) if *v < 0 => format!("({v})"),
        Expr::Const(Value::Int(v)) => v.to_string(),
        Expr::Const(Value::Bool(b)) => u8::from(*b).to_string(),
        Expr::Var(name) => {
            for sig in m.inputs() {
                if sig.is_valued() && value_var_name(sig.name()) == *name {
                    return format!("?{}", sig.name());
                }
            }
            name.clone()
        }
        Expr::Unary(UnOp::Neg, a) => format!("(-{})", expr_source(m, a)),
        Expr::Unary(UnOp::Not, a) => format!("({} == 0)", expr_source(m, a)),
        Expr::Binary(op, a, b) => {
            let (x, y) = (expr_source(m, a), expr_source(m, b));
            match op {
                BinOp::Min => format!("min({x}, {y})"),
                BinOp::Max => format!("max({x}, {y})"),
                BinOp::And | BinOp::Or | BinOp::Xor => {
                    // Logical connectives have no expression syntax in the
                    // language; they only occur in guards.
                    unreachable!("logical operator inside a data expression")
                }
                other => format!("({x} {} {y})", other.c_symbol()),
            }
        }
        Expr::Ite(..) => unreachable!("ITE never appears in specification expressions"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_module;

    const SIMPLE: &str = r#"
        module simple {
            input c : u8;
            output y;
            var a : u8 := 0;
            state awaiting;
            from awaiting to awaiting when c && [a == ?c] do { a := 0; emit y; }
            from awaiting to awaiting when c && ![a == ?c] do { a := a + 1; }
        }
    "#;

    #[test]
    fn emitted_source_reparses() {
        let m = parse_module(SIMPLE).unwrap();
        let src = emit_source(&m);
        let m2 = parse_module(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        assert_eq!(m2.name(), m.name());
        assert_eq!(m2.inputs().len(), m.inputs().len());
        assert_eq!(m2.outputs().len(), m.outputs().len());
        assert_eq!(m2.states(), m.states());
        assert_eq!(m2.num_transitions(), m.num_transitions());
        assert_eq!(m2.tests().len(), m.tests().len());
    }

    #[test]
    fn emitted_source_mentions_value_notation() {
        let m = parse_module(SIMPLE).unwrap();
        let src = emit_source(&m);
        assert!(src.contains("?c"), "{src}");
        assert!(src.contains("var a : u8 := 0;"), "{src}");
    }

    #[test]
    fn negative_initializers_and_literals_survive() {
        let src = r#"
            module neg {
                input go;
                output o : i8;
                var d : i8 := -3;
                state s;
                from s to s when go do { emit o(d - 10); d := 0 - d; }
            }
        "#;
        let m = parse_module(src).unwrap();
        let emitted = emit_source(&m);
        let m2 = parse_module(&emitted).unwrap_or_else(|e| panic!("{e}\n{emitted}"));
        assert_eq!(m2.state_vars()[0].init, Value::Int(-3));
    }

    #[test]
    fn unary_minus_prints_as_unary_minus() {
        let src = r#"
            module neg {
                input x : i8;
                output o : i8;
                var d : i8 := 3;
                state s;
                from s to s when x && [?x < -12] do { emit o(-d); }
            }
        "#;
        let m = parse_module(src).unwrap();
        let emitted = emit_source(&m);
        let m2 = parse_module(&emitted).unwrap_or_else(|e| panic!("{e}\n{emitted}"));
        assert_eq!(m2.tests()[0].expr, m.tests()[0].expr, "{emitted}");
        assert_eq!(m2.actions(), m.actions(), "{emitted}");
    }
}
