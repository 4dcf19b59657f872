//! Boolean conditions over reactive-function atoms.
//!
//! Used by the ITE-chain form (Section III-B3c) and by collapsed TEST nodes
//! (Section III-B3d), where one vertex computes a function of several
//! variables.

use std::fmt;

/// A boolean combination of runtime-evaluable atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Cond {
    /// A constant.
    Const(bool),
    /// Presence flag of an input event.
    Present(usize),
    /// A data test.
    Test(usize),
    /// One bit of the control state (bit 0 = MSB of `width` bits).
    CtrlBit {
        /// Bit position.
        bit: usize,
        /// Encoding width.
        width: usize,
    },
    /// Negation.
    Not(Box<Cond>),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
}

impl Cond {
    /// `!self`, with constant folding.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Cond {
        match self {
            Cond::Const(b) => Cond::Const(!b),
            Cond::Not(inner) => *inner,
            other => Cond::Not(Box::new(other)),
        }
    }

    /// `self && other`, with constant folding.
    pub fn and(self, other: Cond) -> Cond {
        match (self, other) {
            (Cond::Const(false), _) | (_, Cond::Const(false)) => Cond::Const(false),
            (Cond::Const(true), x) | (x, Cond::Const(true)) => x,
            (a, b) => Cond::And(Box::new(a), Box::new(b)),
        }
    }

    /// `self || other`, with constant folding.
    pub fn or(self, other: Cond) -> Cond {
        match (self, other) {
            (Cond::Const(true), _) | (_, Cond::Const(true)) => Cond::Const(true),
            (Cond::Const(false), x) | (x, Cond::Const(false)) => x,
            (a, b) => Cond::Or(Box::new(a), Box::new(b)),
        }
    }

    /// `if sel { self } else { other }`, with folding (the paper's
    /// `ITE(x, y, z)` combinator).
    pub fn ite(sel: Cond, t: Cond, e: Cond) -> Cond {
        match (t, e) {
            (Cond::Const(true), Cond::Const(false)) => sel,
            (Cond::Const(false), Cond::Const(true)) => sel.not(),
            (t, e) if t == e => t,
            (Cond::Const(true), e) => sel.or(e),
            (Cond::Const(false), e) => sel.not().and(e),
            (t, Cond::Const(true)) => sel.not().or(t),
            (t, Cond::Const(false)) => sel.and(t),
            (t, e) => sel.clone().and(t).or(sel.not().and(e)),
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Const(b) => write!(f, "{}", u8::from(*b)),
            Cond::Present(i) => write!(f, "present(in{i})"),
            Cond::Test(i) => write!(f, "test{i}"),
            Cond::CtrlBit { bit, .. } => write!(f, "ctrl.{bit}"),
            Cond::Not(a) => write!(f, "!{a}"),
            Cond::And(a, b) => write!(f, "({a} & {b})"),
            Cond::Or(a, b) => write!(f, "({a} | {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval_cond;
    use crate::{EvalError, SgEnv};

    /// Atom oracles over fixed presence and test vectors.
    struct Atoms<'a> {
        presents: &'a [bool],
        tests: &'a [bool],
    }

    impl SgEnv for Atoms<'_> {
        fn present(&mut self, input: usize) -> bool {
            self.presents[input]
        }
        fn test(&mut self, test: usize) -> Result<bool, EvalError> {
            Ok(self.tests[test])
        }
    }

    /// Evaluates `c` with the s-graph evaluator's condition walk.
    fn eval_with(c: &Cond, presents: &[bool], tests: &[bool], ctrl: u64) -> bool {
        eval_cond(c, &mut Atoms { presents, tests }, ctrl).unwrap()
    }

    #[test]
    fn folding_rules() {
        let p = Cond::Present(0);
        assert_eq!(p.clone().and(Cond::Const(true)), p);
        assert_eq!(p.clone().and(Cond::Const(false)), Cond::Const(false));
        assert_eq!(p.clone().or(Cond::Const(false)), p);
        assert_eq!(p.clone().or(Cond::Const(true)), Cond::Const(true));
        assert_eq!(p.clone().not().not(), p);
    }

    #[test]
    fn ite_special_cases() {
        let s = Cond::Present(0);
        let t = Cond::Test(1);
        assert_eq!(
            Cond::ite(s.clone(), Cond::Const(true), Cond::Const(false)),
            s
        );
        assert_eq!(
            Cond::ite(s.clone(), Cond::Const(false), Cond::Const(true)),
            s.clone().not()
        );
        assert_eq!(Cond::ite(s.clone(), t.clone(), t.clone()), t);
    }

    #[test]
    fn evaluation() {
        let c = Cond::Present(0)
            .and(Cond::Test(0).not())
            .or(Cond::CtrlBit { bit: 0, width: 2 });
        // present, test false, ctrl=00 -> true via left arm
        assert!(eval_with(&c, &[true], &[false], 0b00));
        // absent, test false, ctrl=10 -> true via MSB
        assert!(eval_with(&c, &[false], &[false], 0b10));
        // absent, ctrl=01 -> false (bit 0 is the MSB)
        assert!(!eval_with(&c, &[false], &[false], 0b01));
    }
}
