//! STRAIGHT baseline: operands by inter-instruction distance.
//!
//! Every executed instruction is implicitly assigned the next slot of a
//! single ring buffer (so *inter-instruction* distance equals
//! *inter-register* distance), and a source operand `[d]` names the result
//! of the instruction `d` positions earlier in program order. The maximum
//! reference distance is 127 (Table 2: 127 unified logical registers).
//! The stack pointer lives in a special register updated only by
//! `SPADDi` (Section 4.2).

pub mod asm;
pub mod interp;

use crate::prog::{CheckInst, Prog};
use ch_common::exec::{AluOp, BrCond, LoadOp, Srcs, StoreOp};
use ch_common::op::OpClass;

/// Maximum source reference distance (M in the paper).
pub const MAX_DISTANCE: u8 = 127;

/// A STRAIGHT source operand (the default is the zero register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StSrc {
    /// `[d]`: the result of the instruction `d` back in program order
    /// (`1..=127`).
    Dist(u8),
    /// The special stack-pointer register.
    Sp,
    /// The hardwired zero register.
    #[default]
    Zero,
}

impl StSrc {
    /// Whether the operand is statically valid.
    pub fn is_valid(self) -> bool {
        match self {
            StSrc::Dist(d) => (1..=MAX_DISTANCE).contains(&d),
            StSrc::Sp | StSrc::Zero => true,
        }
    }
}

impl std::fmt::Display for StSrc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StSrc::Dist(d) => write!(f, "[{d}]"),
            StSrc::Sp => f.write_str("sp"),
            StSrc::Zero => f.write_str("zero"),
        }
    }
}

/// One STRAIGHT instruction. Destinations are implicit (the next ring
/// slot), so no instruction carries a destination field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StInst {
    /// Register-register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// First source.
        src1: StSrc,
        /// Second source.
        src2: StSrc,
    },
    /// Register-immediate ALU operation.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Source.
        src1: StSrc,
        /// Immediate.
        imm: i32,
    },
    /// Load immediate.
    Li {
        /// Immediate value.
        imm: i64,
    },
    /// Memory load.
    Load {
        /// Width/extension.
        op: LoadOp,
        /// Base address source.
        base: StSrc,
        /// Byte offset.
        offset: i32,
    },
    /// Memory store (produces no value; still occupies a ring slot).
    Store {
        /// Value source.
        value: StSrc,
        /// Base address source.
        base: StSrc,
        /// Byte offset.
        offset: i32,
        /// Width.
        op: StoreOp,
    },
    /// Conditional branch.
    Branch {
        /// Comparison.
        cond: BrCond,
        /// First source.
        src1: StSrc,
        /// Second source.
        src2: StSrc,
        /// Taken target (instruction index).
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target (instruction index).
        target: u32,
    },
    /// Direct call: the return address is the produced value.
    Call {
        /// Callee entry (instruction index).
        target: u32,
    },
    /// Indirect jump / return (`ret [d]` in Fig. 1(c)).
    JumpReg {
        /// Target address source.
        src: StSrc,
    },
    /// Add an immediate to the special SP register (`spaddi`).
    SpAddi {
        /// Immediate added to SP.
        imm: i32,
    },
    /// Register move (the relay instruction STRAIGHT needs so often).
    Mv {
        /// Source.
        src: StSrc,
    },
    /// No-operation (convergence-point padding).
    Nop,
    /// Stop execution, reporting `src` as the exit value.
    Halt {
        /// Exit-value source.
        src: StSrc,
    },
}

impl StInst {
    /// Whether the instruction produces a meaningful result value in its
    /// ring slot (every instruction *occupies* a slot, but only these
    /// write the register file).
    pub fn produces_value(&self) -> bool {
        matches!(
            self,
            StInst::Alu { .. }
                | StInst::AluImm { .. }
                | StInst::Li { .. }
                | StInst::Load { .. }
                | StInst::Call { .. }
                | StInst::Mv { .. }
        )
    }

    /// Source operands in operand order.
    pub fn srcs(&self) -> Srcs<StSrc> {
        match *self {
            StInst::Alu { src1, src2, .. } => Srcs::two(src1, src2),
            StInst::AluImm { src1, .. } => Srcs::one(src1),
            StInst::Li { .. }
            | StInst::Jump { .. }
            | StInst::Call { .. }
            | StInst::SpAddi { .. }
            | StInst::Nop => Srcs::none(),
            StInst::Load { base, .. } => Srcs::one(base),
            StInst::Store { value, base, .. } => Srcs::two(value, base),
            StInst::Branch { src1, src2, .. } => Srcs::two(src1, src2),
            StInst::JumpReg { src } => Srcs::one(src),
            StInst::Mv { src } => Srcs::one(src),
            StInst::Halt { src } => Srcs::one(src),
        }
    }

    /// Coarse operation class.
    pub fn class(&self) -> OpClass {
        match *self {
            StInst::Alu { op, .. } | StInst::AluImm { op, .. } => op.class(),
            StInst::Li { .. } | StInst::SpAddi { .. } => OpClass::IntAlu,
            StInst::Load { .. } => OpClass::Load,
            StInst::Store { .. } => OpClass::Store,
            StInst::Branch { .. } => OpClass::CondBr,
            StInst::Jump { .. } => OpClass::Jump,
            StInst::Call { .. } | StInst::JumpReg { .. } => OpClass::CallRet,
            StInst::Mv { .. } => OpClass::Move,
            StInst::Nop => OpClass::Nop,
            StInst::Halt { .. } => OpClass::Other,
        }
    }
}

impl CheckInst for StInst {
    fn check(&self, _at: u32, len: u32) -> Result<(), String> {
        for s in self.srcs() {
            if !s.is_valid() {
                return Err(format!("invalid source operand {s}"));
            }
        }
        let target = match *self {
            StInst::Branch { target, .. } | StInst::Jump { target } | StInst::Call { target } => {
                Some(target)
            }
            _ => None,
        };
        if let Some(t) = target {
            if t >= len {
                return Err(format!("target {t} out of range"));
            }
        }
        Ok(())
    }
}

/// A STRAIGHT program.
pub type StProgram = Prog<StInst>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_zero_is_invalid() {
        // An instruction cannot reference itself: distances start at 1.
        assert!(!StSrc::Dist(0).is_valid());
        assert!(StSrc::Dist(1).is_valid());
        assert!(StSrc::Dist(127).is_valid());
        assert!(!StSrc::Dist(128).is_valid());
    }

    #[test]
    fn every_instruction_occupies_a_slot_but_few_produce() {
        assert!(StInst::Li { imm: 3 }.produces_value());
        assert!(StInst::Mv {
            src: StSrc::Dist(1)
        }
        .produces_value());
        assert!(StInst::Call { target: 0 }.produces_value());
        assert!(!StInst::Nop.produces_value());
        assert!(!StInst::SpAddi { imm: -8 }.produces_value());
        assert!(!StInst::Store {
            value: StSrc::Dist(1),
            base: StSrc::Sp,
            offset: 0,
            op: StoreOp::Sd
        }
        .produces_value());
    }

    #[test]
    fn validation_rejects_bad_distance() {
        let mut p = StProgram::new();
        p.insts.push(StInst::Mv {
            src: StSrc::Dist(0),
        });
        assert!(p.validate().is_err());
    }
}
