//! A conventional RISC baseline: RISC-V-like register-name ISA.
//!
//! Operand specification is by logical register number (Fig. 5, top row),
//! which creates false dependencies through register reuse and therefore
//! requires the renaming hardware modelled in [`rename`].

pub mod asm;
pub mod interp;
pub mod rename;

use crate::prog::{CheckInst, Prog};
use ch_common::exec::{AluOp, BrCond, LoadOp, Srcs, StoreOp};
use ch_common::op::OpClass;

/// Number of logical registers (32 integer + 32 floating point).
pub const NUM_REGS: u8 = 64;

/// A logical register: `0..32` are the integer registers (`x0` hardwired
/// to zero), `32..64` the floating-point registers. The default is
/// [`Reg::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return address `ra` (`x1`).
    pub const RA: Reg = Reg(1);
    /// Stack pointer `sp` (`x2`).
    pub const SP: Reg = Reg(2);
    /// First integer argument/return register `a0` (`x10`).
    pub const A0: Reg = Reg(10);

    /// Integer register `xN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn x(n: u8) -> Reg {
        assert!(n < 32, "x{n} out of range");
        Reg(n)
    }

    /// Floating-point register `fN`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= 32`.
    pub fn f(n: u8) -> Reg {
        assert!(n < 32, "f{n} out of range");
        Reg(32 + n)
    }

    /// Whether this is the hardwired zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Whether this is a floating-point register.
    pub fn is_fp(self) -> bool {
        self.0 >= 32
    }
}

impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_fp() {
            write!(f, "f{}", self.0 - 32)
        } else {
            write!(f, "x{}", self.0)
        }
    }
}

/// One RISC instruction. The shapes mirror the Clockhands instruction set
/// exactly (Fig. 5: only the operand fields differ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RvInst {
    /// Register-register ALU operation.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Register-immediate ALU operation.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate.
        imm: i32,
    },
    /// Load immediate (`lui`+`addi` class pseudo-instruction).
    Li {
        /// Destination.
        rd: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Memory load.
    Load {
        /// Width/extension.
        op: LoadOp,
        /// Destination.
        rd: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Memory store.
    Store {
        /// Width.
        op: StoreOp,
        /// Value register.
        rs: Reg,
        /// Base register.
        base: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison.
        cond: BrCond,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
        /// Taken target (instruction index).
        target: u32,
    },
    /// Unconditional jump.
    Jump {
        /// Target (instruction index).
        target: u32,
    },
    /// Direct call (`jal rd, target`).
    Call {
        /// Link register.
        rd: Reg,
        /// Callee entry (instruction index).
        target: u32,
    },
    /// Indirect call (`jalr rd, rs`).
    CallReg {
        /// Link register.
        rd: Reg,
        /// Target address register.
        rs: Reg,
    },
    /// Indirect jump / return (`jr rs`).
    JumpReg {
        /// Target address register.
        rs: Reg,
    },
    /// Register move.
    Mv {
        /// Destination.
        rd: Reg,
        /// Source.
        rs: Reg,
    },
    /// No-operation.
    Nop,
    /// Stop execution, reporting `rs` as the exit value.
    Halt {
        /// Exit-value register.
        rs: Reg,
    },
}

impl RvInst {
    /// The destination register, if the instruction writes one (writes to
    /// `x0` count as no destination).
    pub fn dst(&self) -> Option<Reg> {
        let rd = match *self {
            RvInst::Alu { rd, .. }
            | RvInst::AluImm { rd, .. }
            | RvInst::Li { rd, .. }
            | RvInst::Load { rd, .. }
            | RvInst::Call { rd, .. }
            | RvInst::CallReg { rd, .. }
            | RvInst::Mv { rd, .. } => rd,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// Source registers in operand order (the zero register included —
    /// it reads as zero but exercises no dataflow).
    pub fn srcs(&self) -> Srcs<Reg> {
        match *self {
            RvInst::Alu { rs1, rs2, .. } => Srcs::two(rs1, rs2),
            RvInst::AluImm { rs1, .. } => Srcs::one(rs1),
            RvInst::Li { .. } | RvInst::Jump { .. } | RvInst::Call { .. } | RvInst::Nop => {
                Srcs::none()
            }
            RvInst::Load { base, .. } => Srcs::one(base),
            RvInst::Store { rs, base, .. } => Srcs::two(rs, base),
            RvInst::Branch { rs1, rs2, .. } => Srcs::two(rs1, rs2),
            RvInst::CallReg { rs, .. } | RvInst::JumpReg { rs } => Srcs::one(rs),
            RvInst::Mv { rs, .. } => Srcs::one(rs),
            RvInst::Halt { rs } => Srcs::one(rs),
        }
    }

    /// Coarse operation class.
    pub fn class(&self) -> OpClass {
        match *self {
            RvInst::Alu { op, .. } | RvInst::AluImm { op, .. } => op.class(),
            RvInst::Li { .. } => OpClass::IntAlu,
            RvInst::Load { .. } => OpClass::Load,
            RvInst::Store { .. } => OpClass::Store,
            RvInst::Branch { .. } => OpClass::CondBr,
            RvInst::Jump { .. } => OpClass::Jump,
            RvInst::Call { .. } | RvInst::CallReg { .. } | RvInst::JumpReg { .. } => {
                OpClass::CallRet
            }
            RvInst::Mv { .. } => OpClass::Move,
            RvInst::Nop => OpClass::Nop,
            RvInst::Halt { .. } => OpClass::Other,
        }
    }
}

impl CheckInst for RvInst {
    fn check(&self, _at: u32, len: u32) -> Result<(), String> {
        let target = match *self {
            RvInst::Branch { target, .. }
            | RvInst::Jump { target }
            | RvInst::Call { target, .. } => Some(target),
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

/// A RISC program.
pub type RvProgram = Prog<RvInst>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_is_not_a_destination() {
        let i = RvInst::AluImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::x(5),
            imm: 1,
        };
        assert_eq!(i.dst(), None);
        let j = RvInst::AluImm {
            op: AluOp::Add,
            rd: Reg::x(5),
            rs1: Reg::ZERO,
            imm: 1,
        };
        assert_eq!(j.dst(), Some(Reg::x(5)));
    }

    #[test]
    fn fp_register_mapping() {
        assert!(Reg::f(0).is_fp());
        assert!(!Reg::x(31).is_fp());
        assert_eq!(Reg::f(3).to_string(), "f3");
        assert_eq!(Reg::x(3).to_string(), "x3");
    }

    #[test]
    fn target_validation() {
        let mut p = RvProgram::new();
        p.insts.push(RvInst::Jump { target: 2 });
        assert!(p.validate().is_err());
        p.insts.push(RvInst::Nop);
        p.insts.push(RvInst::Halt { rs: Reg::A0 });
        assert!(p.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_constructor_bounds() {
        let _ = Reg::x(32);
    }
}
