//! C pretty-printing of expressions.

use crate::{BinOp, Expr, UnOp, Value};
use std::fmt::Write as _;

impl Expr {
    /// Renders the expression as a C expression: infix operators, with
    /// `MIN`/`MAX` as calls to the macros `polis_rtos.h` defines.
    ///
    /// # Examples
    ///
    /// ```
    /// use polis_expr::Expr;
    /// let e = Expr::var("a").add(Expr::int(1)).eq(Expr::var("b"));
    /// assert_eq!(e.to_c(), "((a + 1) == b)");
    /// ```
    pub fn to_c(&self) -> String {
        let mut out = String::new();
        write_c(&mut out, self);
        out
    }
}

fn write_c(out: &mut String, expr: &Expr) {
    match expr {
        Expr::Const(Value::Bool(b)) => {
            let _ = write!(out, "{}", u8::from(*b));
        }
        Expr::Const(Value::Int(v)) => {
            let _ = write!(out, "{v}");
        }
        Expr::Var(name) => out.push_str(name),
        Expr::Unary(UnOp::Not, a) => {
            out.push_str("(!");
            write_c(out, a);
            out.push(')');
        }
        Expr::Unary(UnOp::Neg, a) => {
            out.push_str("(-");
            write_c(out, a);
            out.push(')');
        }
        Expr::Binary(op, a, b) => write_binop(out, *op, a, b),
        Expr::Ite(c, t, e) => {
            out.push('(');
            write_c(out, c);
            out.push_str(" ? ");
            write_c(out, t);
            out.push_str(" : ");
            write_c(out, e);
            out.push(')');
        }
    }
}

fn write_binop(out: &mut String, op: BinOp, a: &Expr, b: &Expr) {
    // MIN/MAX have no C operator, so they are macro calls.
    if matches!(op, BinOp::Min | BinOp::Max) {
        out.push_str(op.c_symbol());
        out.push('(');
        write_c(out, a);
        out.push_str(", ");
        write_c(out, b);
        out.push(')');
    } else {
        out.push('(');
        write_c(out, a);
        out.push(' ');
        out.push_str(op.c_symbol());
        out.push(' ');
        write_c(out, b);
        out.push(')');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infix_rendering() {
        let e = Expr::var("x").add(Expr::int(1)).lt(Expr::var("y"));
        assert_eq!(e.to_c(), "((x + 1) < y)");
    }

    #[test]
    fn min_max_are_calls_even_in_infix_style() {
        let e = Expr::var("x").min(Expr::var("y"));
        assert_eq!(e.to_c(), "MIN(x, y)");
        let e = Expr::var("x").max(Expr::int(0));
        assert_eq!(e.to_c(), "MAX(x, 0)");
    }

    #[test]
    fn unary_and_ite_rendering() {
        let e = Expr::ite(Expr::var("p").not(), Expr::int(1), Expr::var("x").neg());
        assert_eq!(e.to_c(), "((!p) ? 1 : (-x))");
    }

    #[test]
    fn bool_constants_render_as_ints() {
        assert_eq!(Expr::bool(true).to_c(), "1");
        assert_eq!(Expr::bool(false).to_c(), "0");
    }

    #[test]
    fn display_matches_to_c() {
        let e = Expr::var("a").eq(Expr::int(3));
        assert_eq!(format!("{e}"), e.to_c());
    }
}
