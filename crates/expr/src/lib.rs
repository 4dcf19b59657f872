//! Expression and value model for extended finite state machines.
//!
//! CFSMs ([Balarin et al., "Synthesis of Software Programs for Embedded
//! Control Applications"]) extend classical FSMs with arithmetic and
//! relational operators over *bounded* discrete domains. This crate provides
//! the shared value model ([`Value`], [`Type`]), the side-effect-free
//! expression AST ([`Expr`]) used to label s-graph TEST predicates and ASSIGN
//! actions, an evaluator, and a C pretty-printer.
//!
//! Design constraints inherited from the paper:
//!
//! * every variable ranges over a finite domain (booleans or fixed-width
//!   integers), so expressions are total functions over finite domains;
//! * expressions have **no side effects**, so synthesis may reorder their
//!   evaluation freely (Section III-B1);
//! * division is implemented *safely*: a zero divisor yields zero rather than
//!   trapping, mirroring the paper's "division is implemented safely"
//!   assumption.
//!
//! # Examples
//!
//! ```
//! use polis_expr::{Expr, Value, MapEnv};
//!
//! // a == ?c  (the test from the paper's Fig. 1 `simple` module)
//! let test = Expr::var("a").eq(Expr::var("c_value"));
//! let mut env = MapEnv::new();
//! env.set("a", Value::from_i64(3));
//! env.set("c_value", Value::from_i64(3));
//! assert_eq!(test.eval(&env).unwrap(), Value::truth(true));
//! assert_eq!(test.to_c(), "(a == c_value)");
//! ```

mod eval;
mod print;
mod types;

pub use eval::{Env, EvalExprError, MapEnv};
pub use types::{Type, TypeError, Value};

use std::fmt;

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UnOp {
    /// Logical negation on booleans.
    Not,
    /// Arithmetic negation (two's complement within the operand width).
    Neg,
}

/// Binary operators.
///
/// Relational operators produce booleans; arithmetic operators produce
/// integers wrapped to the width of the widest operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Safe division: `x / 0 == 0` (see crate docs).
    Div,
    /// Safe remainder: `x % 0 == 0`.
    Rem,
    /// Logical conjunction (booleans only).
    And,
    /// Logical disjunction (booleans only).
    Or,
    /// Exclusive or (booleans only).
    Xor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Minimum of two integers.
    Min,
    /// Maximum of two integers.
    Max,
}

impl BinOp {
    /// `true` for operators defined on booleans.
    pub fn is_logical(self) -> bool {
        matches!(self, BinOp::And | BinOp::Or | BinOp::Xor)
    }

    /// The C spelling of the operator: the infix operator, or for
    /// `Min`/`Max` the name of the macro [`Expr::to_c`] calls.
    pub fn c_symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&&",
            BinOp::Or => "||",
            BinOp::Xor => "^",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Min => "MIN",
            BinOp::Max => "MAX",
        }
    }
}

/// A side-effect-free expression over named variables.
///
/// Variables are referenced by name and resolved at evaluation time against
/// an [`Env`]. The CFSM layer guarantees names are unique within a machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A literal value.
    Const(Value),
    /// A named variable (state variable or event value).
    Var(String),
    /// Unary application.
    Unary(UnOp, Box<Expr>),
    /// Binary application.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// If-then-else: `Ite(c, t, e)` is `t` when `c` is true, else `e`.
    ///
    /// This is the `ITE(x,y,z)` primitive of Section III-B3c used when
    /// ordering outputs before their support.
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
}

// The builder methods form an expression DSL; the arithmetic names are
// deliberate and must not carry `std::ops` semantics (e.g. `div` is the
// paper's *safe* division), so operator overloading would be misleading
// (C-OVERLOAD).
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// A variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// An integer constant.
    pub fn int(v: i64) -> Expr {
        Expr::Const(Value::from_i64(v))
    }

    /// A boolean constant.
    pub fn bool(v: bool) -> Expr {
        Expr::Const(Value::truth(v))
    }

    /// If-then-else constructor.
    pub fn ite(c: Expr, t: Expr, e: Expr) -> Expr {
        Expr::Ite(Box::new(c), Box::new(t), Box::new(e))
    }

    fn bin(self, op: BinOp, rhs: Expr) -> Expr {
        Expr::Binary(op, Box::new(self), Box::new(rhs))
    }

    /// `self + rhs` (wrapping in the assignment's target width).
    pub fn add(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Add, rhs)
    }
    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Sub, rhs)
    }
    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Mul, rhs)
    }
    /// Safe division (`x / 0 == 0`).
    pub fn div(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Div, rhs)
    }
    /// Safe remainder (`x % 0 == 0`).
    pub fn rem(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Rem, rhs)
    }
    /// Logical and.
    pub fn and(self, rhs: Expr) -> Expr {
        self.bin(BinOp::And, rhs)
    }
    /// Logical or.
    pub fn or(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Or, rhs)
    }
    /// Logical exclusive or.
    pub fn xor(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Xor, rhs)
    }
    /// Equality test.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Eq, rhs)
    }
    /// Inequality test.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ne, rhs)
    }
    /// Less-than test.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Lt, rhs)
    }
    /// Less-or-equal test.
    pub fn le(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Le, rhs)
    }
    /// Greater-than test.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Gt, rhs)
    }
    /// Greater-or-equal test.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Ge, rhs)
    }
    /// Minimum.
    pub fn min(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Min, rhs)
    }
    /// Maximum.
    pub fn max(self, rhs: Expr) -> Expr {
        self.bin(BinOp::Max, rhs)
    }
    /// Logical negation.
    pub fn not(self) -> Expr {
        Expr::Unary(UnOp::Not, Box::new(self))
    }
    /// Arithmetic negation.
    pub fn neg(self) -> Expr {
        Expr::Unary(UnOp::Neg, Box::new(self))
    }

    /// Collects the set of variable names this expression depends on, in
    /// first-occurrence order.
    ///
    /// This is the *support* of the expression in the sense of Section II-C.
    pub fn support(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_vars(&mut |name| {
            if !out.iter().any(|n| n == name) {
                out.push(name.to_owned());
            }
        });
        out
    }

    /// Calls `f` on every variable occurrence (with repetitions).
    pub fn visit_vars(&self, f: &mut impl FnMut(&str)) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(name) => f(name),
            Expr::Unary(_, a) => a.visit_vars(f),
            Expr::Binary(_, a, b) => {
                a.visit_vars(f);
                b.visit_vars(f);
            }
            Expr::Ite(c, t, e) => {
                c.visit_vars(f);
                t.visit_vars(f);
                e.visit_vars(f);
            }
        }
    }

    /// Returns a copy of the expression with every occurrence of variable
    /// `name` replaced by `replacement`.
    pub fn substitute(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Const(v) => Expr::Const(*v),
            Expr::Var(n) if n == name => replacement.clone(),
            Expr::Var(n) => Expr::Var(n.clone()),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(a.substitute(name, replacement))),
            Expr::Binary(op, a, b) => Expr::Binary(
                *op,
                Box::new(a.substitute(name, replacement)),
                Box::new(b.substitute(name, replacement)),
            ),
            Expr::Ite(c, t, e) => Expr::ite(
                c.substitute(name, replacement),
                t.substitute(name, replacement),
                e.substitute(name, replacement),
            ),
        }
    }

    /// Renames every variable through `f`.
    pub fn rename_vars(&self, f: &impl Fn(&str) -> String) -> Expr {
        match self {
            Expr::Const(v) => Expr::Const(*v),
            Expr::Var(n) => Expr::Var(f(n)),
            Expr::Unary(op, a) => Expr::Unary(*op, Box::new(a.rename_vars(f))),
            Expr::Binary(op, a, b) => {
                Expr::Binary(*op, Box::new(a.rename_vars(f)), Box::new(b.rename_vars(f)))
            }
            Expr::Ite(c, t, e) => Expr::ite(c.rename_vars(f), t.rename_vars(f), e.rename_vars(f)),
        }
    }

    /// The range `[lo, hi]` of values this integer expression can take when
    /// every variable holds a value of the type `ty_of` gives it.
    ///
    /// Models constants, variables, negation, `+ - *`, `/` by a strictly
    /// positive divisor, `min`/`max` and `ite` (the union of both branches;
    /// the condition is not used). Returns `None` for any other operator,
    /// an untyped variable, or a bound that overflows 64 bits — exactly
    /// where [`Expr::eval`] might wrap. Each modelled operator is monotone
    /// in each operand, so its extremes lie at the operands' corners.
    /// Booleans count as 0 and 1, the range of [`Type::Bool`].
    ///
    /// # Examples
    ///
    /// ```
    /// use polis_expr::{Expr, Type};
    /// let e = Expr::var("w").mul(Expr::int(3));
    /// assert_eq!(e.interval(&|_| Some(Type::uint(8))), Some((0, 765)));
    /// assert_eq!(Expr::var("w").rem(Expr::int(3)).interval(&|_| Some(Type::uint(8))), None);
    /// ```
    pub fn interval(&self, ty_of: &impl Fn(&str) -> Option<Type>) -> Option<(i64, i64)> {
        fn corners(
            a: (i64, i64),
            b: (i64, i64),
            f: fn(i64, i64) -> Option<i64>,
        ) -> Option<(i64, i64)> {
            let c = [f(a.0, b.0)?, f(a.0, b.1)?, f(a.1, b.0)?, f(a.1, b.1)?];
            Some((*c.iter().min()?, *c.iter().max()?))
        }
        match self {
            Expr::Const(Value::Int(c)) => Some((*c, *c)),
            Expr::Const(Value::Bool(b)) => Some((i64::from(*b), i64::from(*b))),
            Expr::Var(n) => ty_of(n).map(|t| (t.min_value(), t.max_value())),
            Expr::Unary(UnOp::Neg, a) => {
                let (lo, hi) = a.interval(ty_of)?;
                Some((hi.checked_neg()?, lo.checked_neg()?))
            }
            Expr::Unary(UnOp::Not, _) => None,
            Expr::Binary(op, a, b) => {
                let (a, b) = (a.interval(ty_of)?, b.interval(ty_of)?);
                match op {
                    BinOp::Add => Some((a.0.checked_add(b.0)?, a.1.checked_add(b.1)?)),
                    BinOp::Sub => Some((a.0.checked_sub(b.1)?, a.1.checked_sub(b.0)?)),
                    BinOp::Mul => corners(a, b, i64::checked_mul),
                    BinOp::Div if b.0 > 0 => corners(a, b, i64::checked_div),
                    BinOp::Min => Some((a.0.min(b.0), a.1.min(b.1))),
                    BinOp::Max => Some((a.0.max(b.0), a.1.max(b.1))),
                    _ => None,
                }
            }
            Expr::Ite(_, t, e) => {
                let (t, e) = (t.interval(ty_of)?, e.interval(ty_of)?);
                Some((t.0.min(e.0), t.1.max(e.1)))
            }
        }
    }

    /// The truth value this condition has at *every* assignment where each
    /// variable holds a value of the type `ty_of` gives it, if the
    /// operands' [`Expr::interval`]s settle it.
    ///
    /// Decides `< <= > >= == !=` when every pair of values drawn from the
    /// two operand intervals gives the same result — for `==`/`!=`, when the
    /// intervals are disjoint or are the same single point — and combines
    /// boolean constants, `!`, `&&` and `||` of decided parts (`&&` with
    /// one operand decided false is false, `||` with one decided true is
    /// true). Returns `None` everywhere else. Since `interval`
    /// over-approximates [`Expr::eval`], a decided condition evaluates to
    /// the answer at every such assignment.
    ///
    /// # Examples
    ///
    /// ```
    /// use polis_expr::{Expr, Type};
    /// let u8_ = |_: &str| Some(Type::uint(8));
    /// assert_eq!(Expr::int(2).ge(Expr::int(2)).decide(&u8_), Some(true));
    /// assert_eq!(Expr::var("w").lt(Expr::int(0)).decide(&u8_), Some(false));
    /// assert_eq!(Expr::var("w").lt(Expr::int(9)).decide(&u8_), None);
    /// ```
    pub fn decide(&self, ty_of: &impl Fn(&str) -> Option<Type>) -> Option<bool> {
        let (op, a, b) = match self {
            Expr::Const(Value::Bool(v)) => return Some(*v),
            Expr::Unary(UnOp::Not, a) => return a.decide(ty_of).map(|v| !v),
            Expr::Binary(op, a, b) => (*op, a, b),
            _ => return None,
        };
        match op {
            BinOp::And => match (a.decide(ty_of), b.decide(ty_of)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            BinOp::Or => match (a.decide(ty_of), b.decide(ty_of)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                let (a, b) = (a.interval(ty_of)?, b.interval(ty_of)?);
                // `x < y` holds at every pair when x's top lies below y's
                // bottom and at none when x's bottom reaches y's top; the
                // other orders are this with the operands swapped or the
                // answer negated.
                let lt = |x: (i64, i64), y: (i64, i64)| {
                    if x.1 < y.0 {
                        Some(true)
                    } else if x.0 >= y.1 {
                        Some(false)
                    } else {
                        None
                    }
                };
                let eq = if a.1 < b.0 || b.1 < a.0 {
                    Some(false)
                } else if a.0 == a.1 && b == a {
                    Some(true)
                } else {
                    None
                };
                match op {
                    BinOp::Lt => lt(a, b),
                    BinOp::Ge => lt(a, b).map(|v| !v),
                    BinOp::Gt => lt(b, a),
                    BinOp::Le => lt(b, a).map(|v| !v),
                    BinOp::Eq => eq,
                    _ => eq.map(|v| !v),
                }
            }
            _ => None,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_c())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_roundtrip() {
        let e = Expr::var("x").add(Expr::int(1)).eq(Expr::var("y"));
        assert_eq!(e.support(), vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn substitute_replaces_all_occurrences() {
        let e = Expr::var("x").add(Expr::var("x"));
        let s = e.substitute("x", &Expr::int(2));
        assert_eq!(s, Expr::int(2).add(Expr::int(2)));
    }

    #[test]
    fn rename_vars_applies_function() {
        let e = Expr::var("a").lt(Expr::var("b"));
        let r = e.rename_vars(&|n| format!("m_{n}"));
        assert_eq!(r.support(), vec!["m_a".to_string(), "m_b".to_string()]);
    }

    #[test]
    fn support_is_deduplicated_in_order() {
        let e = Expr::var("b").add(Expr::var("a")).add(Expr::var("b"));
        assert_eq!(e.support(), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn logical_classification() {
        assert!(BinOp::And.is_logical());
        assert!(!BinOp::Lt.is_logical());
    }
}
