//! The per-target cost parameter set.

use polis_expr::BinOp;

/// Operator cost classes for expression operations (the paper's "average
/// execution time and size for predefined software library functions",
/// grouped by family).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Add, subtract, negate.
    Arith,
    /// Relational comparison.
    Compare,
    /// Multiply, divide, remainder.
    MulDiv,
    /// Logical and/or/xor/not.
    Logic,
    /// Min/max library calls.
    MinMax,
}

impl OpClass {
    /// Classifies a binary operator.
    pub fn of(op: BinOp) -> OpClass {
        match op {
            BinOp::Add | BinOp::Sub => OpClass::Arith,
            BinOp::Mul | BinOp::Div | BinOp::Rem => OpClass::MulDiv,
            BinOp::And | BinOp::Or | BinOp::Xor => OpClass::Logic,
            BinOp::Min | BinOp::Max => OpClass::MinMax,
            _ => OpClass::Compare,
        }
    }
}

/// Per-vertex cost pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostPair {
    /// Execution cycles.
    pub cycles: f64,
    /// Code size in bytes.
    pub bytes: f64,
}

impl std::ops::Add for CostPair {
    type Output = CostPair;
    fn add(self, o: CostPair) -> CostPair {
        CostPair {
            cycles: self.cycles + o.cycles,
            bytes: self.bytes + o.bytes,
        }
    }
}

impl std::ops::Sub for CostPair {
    type Output = CostPair;
    fn sub(self, o: CostPair) -> CostPair {
        CostPair {
            cycles: self.cycles - o.cycles,
            bytes: self.bytes - o.bytes,
        }
    }
}

/// The calibrated parameter set for one target system (CPU + memory +
/// compiler), mirroring Section III-C1.
///
/// Timing and size pairs exist for each statement style generated from an
/// s-graph vertex; four system parameters describe data layout.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// TEST on an event presence flag (an RTOS detection call + branch).
    pub test_present: CostPair,
    /// TEST on a data expression, excluding the expression's operators.
    pub test_expr_base: CostPair,
    /// TEST on one control-state bit.
    pub test_ctrl_bit: CostPair,
    /// Extra cycles on the taken (`true`) edge of a binary TEST.
    pub edge_true_cycles: f64,
    /// Extra cycles on the fall-through (`false`) edge.
    pub edge_false_cycles: f64,
    /// Multi-way jump dispatch (a TEST with more than two children):
    /// fixed part.
    pub switch_base: CostPair,
    /// Multi-way jump: per-arm part (the paper's `a + b·k` edge model).
    pub switch_per_arm: CostPair,
    /// ASSIGN emitting a pure event (RTOS call).
    pub emit_pure: CostPair,
    /// ASSIGN emitting a valued event (RTOS call), excluding the value
    /// expression's operators.
    pub emit_valued: CostPair,
    /// ASSIGN of an expression to a state variable, excluding operators.
    pub assign_var: CostPair,
    /// The consume/fired RTOS call.
    pub consume: CostPair,
    /// ASSIGN to control-state bits, per bit.
    pub ctrl_set_per_bit: CostPair,
    /// An unconditional branch (generated `goto`).
    pub goto: CostPair,
    /// Routine call/return overhead (one per reaction).
    pub call_return: CostPair,
    /// Initialization of one local variable copy (the Section V-B entry
    /// buffering).
    pub local_init: CostPair,
    /// Per-operator expression costs, one pair per [`OpClass`].
    pub op_arith: CostPair,
    /// See [`CostParams::op_arith`].
    pub op_compare: CostPair,
    /// See [`CostParams::op_arith`].
    pub op_muldiv: CostPair,
    /// See [`CostParams::op_arith`].
    pub op_logic: CostPair,
    /// See [`CostParams::op_arith`].
    pub op_minmax: CostPair,
    /// System parameter: pointer size in bytes.
    pub bytes_pointer: f64,
    /// System parameter: integer size in bytes.
    pub bytes_int: f64,
    /// System parameter: boolean/flag size in bytes.
    pub bytes_bool: f64,
    /// System parameter: per-routine frame overhead in bytes of RAM.
    pub bytes_frame: f64,
}

impl CostParams {
    /// The cost pair for one expression operator.
    pub fn op(&self, class: OpClass) -> CostPair {
        match class {
            OpClass::Arith => self.op_arith,
            OpClass::Compare => self.op_compare,
            OpClass::MulDiv => self.op_muldiv,
            OpClass::Logic => self.op_logic,
            OpClass::MinMax => self.op_minmax,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert_eq!(OpClass::of(BinOp::Add), OpClass::Arith);
        assert_eq!(OpClass::of(BinOp::Sub), OpClass::Arith);
        assert_eq!(OpClass::of(BinOp::Mul), OpClass::MulDiv);
        assert_eq!(OpClass::of(BinOp::Div), OpClass::MulDiv);
        assert_eq!(OpClass::of(BinOp::Lt), OpClass::Compare);
        assert_eq!(OpClass::of(BinOp::Eq), OpClass::Compare);
        assert_eq!(OpClass::of(BinOp::And), OpClass::Logic);
        assert_eq!(OpClass::of(BinOp::Min), OpClass::MinMax);
    }
}
