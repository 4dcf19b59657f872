//! Target cost profiles, the assembler, and object code.
//!
//! The assembler performs branch relaxation: branches start in their short
//! encoding and are widened until every displacement fits, exactly the
//! effect the paper exploits when it notes that implementing BDDs "directly
//! in executable code" can use "the efficient encoding of the BDD branching
//! structure provided by the instruction set encoding of the target
//! processor (often using fewer bits of address for near jumps)".

use crate::inst::{Inst, VmProgram};
use polis_expr::BinOp;

/// A target cost profile (see the crate docs for the substitution
/// rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profile {
    /// 8-bit accumulator-style micro-controller (68HC11-like): 1–5 byte
    /// instructions, ±127-byte short branches, slow multiply/divide.
    Mcu8,
    /// 32-bit RISC (R3000-like): fixed 4-byte instructions, single-cycle
    /// ALU, branch-taken penalty.
    Risc32,
}

/// Size and timing of one encoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstCost {
    /// Encoded size in bytes.
    pub bytes: u32,
    /// Base execution cycles.
    pub cycles: u32,
    /// Extra cycles when a conditional branch is taken.
    pub taken_extra: u32,
}

/// Assembled object code: per-instruction encodings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectCode {
    costs: Vec<InstCost>,
    total_bytes: u32,
    profile: Profile,
}

impl ObjectCode {
    /// Total code size in bytes (the paper's ROM cost).
    pub fn size_bytes(&self) -> u32 {
        self.total_bytes
    }

    /// Cost of instruction `i`.
    pub fn cost(&self, i: usize) -> InstCost {
        self.costs[i]
    }

    /// The profile this code was assembled for.
    pub fn profile(&self) -> Profile {
        self.profile
    }

    /// Number of encoded instructions.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// `true` when the routine is empty (never for compiled programs,
    /// which always contain at least `Return`).
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }
}

/// Assembles a routine under a cost profile, relaxing branches until every
/// displacement fits its encoding.
pub fn assemble(prog: &VmProgram, profile: Profile) -> ObjectCode {
    let insts = prog.insts();
    let mut long = vec![false; insts.len()];
    loop {
        // Lay out with the current long/short decisions.
        let mut addrs = Vec::with_capacity(insts.len());
        let mut costs = Vec::with_capacity(insts.len());
        let mut at = 0u32;
        for (i, inst) in insts.iter().enumerate() {
            let c = cost_of(inst, profile, long[i]);
            addrs.push(at);
            costs.push(c);
            at += c.bytes;
        }
        // Check displacements.
        let mut changed = false;
        for (i, inst) in insts.iter().enumerate() {
            if long[i] {
                continue;
            }
            let target = match inst {
                Inst::Branch { target, .. } => *target,
                Inst::Jump(target) => *target,
                _ => continue,
            };
            let from = addrs[i] as i64 + costs[i].bytes as i64;
            let disp = addrs[target] as i64 - from;
            let fits = match profile {
                Profile::Mcu8 => (-128..=127).contains(&disp),
                Profile::Risc32 => (-(1 << 17)..(1 << 17)).contains(&disp),
            };
            if !fits {
                long[i] = true;
                changed = true;
            }
        }
        if !changed {
            let total_bytes = at;
            return ObjectCode {
                costs,
                total_bytes,
                profile,
            };
        }
    }
}

fn cost_of(inst: &Inst, profile: Profile, long: bool) -> InstCost {
    match profile {
        Profile::Mcu8 => mcu8_cost(inst, long),
        Profile::Risc32 => risc32_cost(inst, long),
    }
}

fn mcu8_cost(inst: &Inst, long: bool) -> InstCost {
    let c = |bytes, cycles| InstCost {
        bytes,
        cycles,
        taken_extra: 0,
    };
    match inst {
        Inst::PushImm(v) => {
            if (-128..=127).contains(v) {
                c(2, 2)
            } else {
                c(3, 3)
            }
        }
        Inst::PushVar(slot) => {
            if *slot < 32 {
                c(2, 3) // direct page
            } else {
                c(3, 4) // extended addressing
            }
        }
        Inst::StoreVar(slot) => {
            if *slot < 32 {
                c(2, 4)
            } else {
                c(3, 5)
            }
        }
        Inst::Unary(_) => c(2, 3),
        Inst::Binary(op) => match op {
            BinOp::Add | BinOp::Sub | BinOp::And | BinOp::Or | BinOp::Xor => c(3, 6),
            BinOp::Mul => c(3, 13),
            BinOp::Div | BinOp::Rem => c(4, 44),
            BinOp::Min | BinOp::Max => c(5, 9),
            _ => c(4, 7), // relational: compare + set
        },
        Inst::Branch { .. } => {
            if long {
                // Bcc over a JMP extension.
                InstCost {
                    bytes: 5,
                    cycles: 6,
                    taken_extra: 0,
                }
            } else {
                InstCost {
                    bytes: 2,
                    cycles: 3,
                    taken_extra: 0,
                }
            }
        }
        Inst::Jump(_) => {
            if long {
                c(3, 3)
            } else {
                c(2, 3) // BRA
            }
        }
        Inst::JumpTable(targets) => c(5 + 2 * targets.len() as u32, 9),
        Inst::PushCtrlBit { .. } => c(3, 4),
        Inst::SetCtrlBits { bits, .. } => c(2 + bits.len() as u32, 3 + 2 * bits.len() as u32),
        Inst::StoreCtrlBit { .. } => c(4, 6),
        Inst::Detect(_) => c(3, 13),
        Inst::EmitPure(_) => c(3, 15),
        Inst::EmitValued(_) => c(3, 19),
        Inst::Consume => c(3, 9),
        Inst::Return => c(1, 5),
    }
}

fn risc32_cost(inst: &Inst, _long: bool) -> InstCost {
    let c = |bytes, cycles| InstCost {
        bytes,
        cycles,
        taken_extra: 0,
    };
    match inst {
        Inst::PushImm(v) => {
            if (-32768..=32767).contains(v) {
                c(4, 1)
            } else {
                c(8, 2) // lui + ori
            }
        }
        Inst::PushVar(_) => c(4, 2),
        Inst::StoreVar(_) => c(4, 2),
        Inst::Unary(_) => c(4, 1),
        Inst::Binary(op) => match op {
            BinOp::Mul => c(4, 4),
            BinOp::Div | BinOp::Rem => c(4, 16),
            BinOp::Min | BinOp::Max => c(8, 2),
            _ => c(4, 1),
        },
        Inst::Branch { .. } => InstCost {
            bytes: 4,
            cycles: 1,
            taken_extra: 1,
        },
        Inst::Jump(_) => c(4, 1),
        Inst::JumpTable(targets) => c(4 * (3 + targets.len() as u32), 6),
        Inst::PushCtrlBit { .. } => c(8, 2),
        Inst::SetCtrlBits { bits, .. } => c(4 * bits.len().max(1) as u32, bits.len() as u32),
        Inst::StoreCtrlBit { .. } => c(12, 3),
        Inst::Detect(_) => c(8, 10),
        Inst::EmitPure(_) => c(8, 12),
        Inst::EmitValued(_) => c(8, 14),
        Inst::Consume => c(8, 8),
        Inst::Return => c(4, 4),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{SlotInfo, SlotKind};
    use polis_expr::Type;

    fn program(insts: Vec<Inst>) -> VmProgram {
        VmProgram {
            name: "t".into(),
            insts,
            slots: vec![SlotInfo {
                name: "x".into(),
                ty: Type::uint(8),
                kind: SlotKind::State,
                init: 0,
            }],
            num_inputs: 1,
            num_outputs: 1,
            out_types: vec![None],
        }
    }

    #[test]
    fn size_is_the_sum_of_instruction_costs() {
        let p = program(vec![
            Inst::Detect(0),
            Inst::Branch {
                when: true,
                target: 3,
            },
            Inst::Return,
            Inst::EmitPure(0),
            Inst::Return,
        ]);
        let o = assemble(&p, Profile::Mcu8);
        assert_eq!(
            o.size_bytes(),
            (0..o.len()).map(|i| o.cost(i).bytes).sum::<u32>()
        );
    }

    #[test]
    fn risc_instructions_are_word_multiples() {
        let p = program(vec![
            Inst::PushImm(5),
            Inst::PushVar(0),
            Inst::Binary(BinOp::Add),
            Inst::StoreVar(0),
            Inst::Return,
        ]);
        let o = assemble(&p, Profile::Risc32);
        for i in 0..o.len() {
            assert_eq!(o.cost(i).bytes % 4, 0);
        }
    }

    #[test]
    fn branch_relaxation_widens_far_branches() {
        // A branch over ~200 bytes of filler must widen on Mcu8.
        let mut insts = vec![Inst::Detect(0)];
        let filler = 70; // 70 × 3-byte compares ≈ 210 bytes
        insts.push(Inst::Branch {
            when: true,
            target: 2 + filler,
        });
        for _ in 0..filler {
            insts.push(Inst::Binary(BinOp::Add));
        }
        insts.push(Inst::Return);
        let near = {
            let p = program(vec![
                Inst::Detect(0),
                Inst::Branch {
                    when: true,
                    target: 2,
                },
                Inst::Return,
            ]);
            assemble(&p, Profile::Mcu8).cost(1).bytes
        };
        let far = assemble(&program(insts), Profile::Mcu8).cost(1).bytes;
        assert!(far > near, "far branch {far} should exceed near {near}");
    }

    #[test]
    fn immediate_and_addressing_sizes() {
        let p = program(vec![Inst::PushImm(5), Inst::PushImm(5000), Inst::Return]);
        let o = assemble(&p, Profile::Mcu8);
        assert!(o.cost(1).bytes > o.cost(0).bytes);

        let p = program(vec![Inst::PushVar(0), Inst::PushVar(40), Inst::Return]);
        let o = assemble(&p, Profile::Mcu8);
        assert!(o.cost(1).bytes > o.cost(0).bytes);
    }

    #[test]
    fn division_is_expensive_on_mcu8() {
        let div = mcu8_cost(&Inst::Binary(BinOp::Div), false);
        let add = mcu8_cost(&Inst::Binary(BinOp::Add), false);
        assert!(div.cycles > 5 * add.cycles);
    }
}
