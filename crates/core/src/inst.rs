//! Clockhands instructions.
//!
//! An instruction's destination, when present, is a *hand* (Fig. 5:
//! `dst-hand` field); one physical register is implicitly allocated from
//! that hand's ring. A source is a *(hand, distance)* pair: `t[2]` means
//! "the value written to hand `t` three writes ago" — or the hardwired
//! zero register.

use crate::hand::Hand;
use ch_common::exec::{AluOp, BrCond, LoadOp, Srcs, StoreOp};
use ch_common::op::OpClass;

/// A source operand (the default is the zero register).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Src {
    /// `hand[distance]` — the value written to `hand` `distance+1` writes ago
    /// (distance 0 is the most recent write).
    Hand(Hand, u8),
    /// The hardwired zero register.
    #[default]
    Zero,
}

impl Src {
    /// The referenced hand, unless this is the zero register.
    pub fn hand(self) -> Option<Hand> {
        match self {
            Src::Hand(h, _) => Some(h),
            Src::Zero => None,
        }
    }

    /// Whether the distance is encodable.
    ///
    /// Distances must be at most [`Hand::max_src_distance`]: the deepest
    /// `s` encoding (`s[15]`) is taken by the `zero` register — the ISA
    /// defines `t[0]`–`t[15]`, `u[0]`–`u[15]`, `v[0]`–`v[15]`,
    /// `s[0]`–`s[14]`, and `zero` (Section 4.5).
    pub fn is_encodable(self) -> bool {
        match self {
            Src::Hand(h, d) => d <= h.max_src_distance(),
            Src::Zero => true,
        }
    }
}

impl std::fmt::Display for Src {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Src::Hand(h, d) => write!(f, "{h}[{d}]"),
            Src::Zero => f.write_str("zero"),
        }
    }
}

/// Branch/jump target: an instruction index within the program.
pub type Target = u32;

/// One Clockhands instruction.
///
/// Immediates are kept as native integers; the binary encoder (the
/// `ch-encode` crate) places them inline or, when they outgrow their
/// field, in a literal pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst {
    /// Register-register ALU operation: `op dst, src1, src2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination hand.
        dst: Hand,
        /// First source.
        src1: Src,
        /// Second source.
        src2: Src,
    },
    /// Register-immediate ALU operation: `opi dst, src1, imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination hand.
        dst: Hand,
        /// Source.
        src1: Src,
        /// 12-bit-class immediate.
        imm: i32,
    },
    /// Load immediate (`lui`+`addi` class): `li dst, imm`.
    Li {
        /// Destination hand.
        dst: Hand,
        /// Immediate value.
        imm: i64,
    },
    /// Memory load: `lX dst, offset(base)`.
    Load {
        /// Width/extension.
        op: LoadOp,
        /// Destination hand.
        dst: Hand,
        /// Base address source.
        base: Src,
        /// Byte offset.
        offset: i32,
    },
    /// Memory store: `sX value, offset(base)`. No destination hand.
    Store {
        /// Width.
        op: StoreOp,
        /// Value source.
        value: Src,
        /// Base address source.
        base: Src,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch: `bCC src1, src2, target`. No destination hand.
    Branch {
        /// Comparison.
        cond: BrCond,
        /// First source.
        src1: Src,
        /// Second source.
        src2: Src,
        /// Taken target (instruction index).
        target: Target,
    },
    /// Unconditional jump (`j`). No destination hand, so the distances of
    /// all hands are unchanged — this is what removes STRAIGHT's
    /// convergence-point `nop`s (Section 3.3).
    Jump {
        /// Target (instruction index).
        target: Target,
    },
    /// Direct call (`jal`): writes the return address to `dst`
    /// (conventionally `s`).
    Call {
        /// Destination hand for the return address.
        dst: Hand,
        /// Callee entry (instruction index).
        target: Target,
    },
    /// Indirect jump through a register (used for returns): `jr src`.
    JumpReg {
        /// Target address source.
        src: Src,
    },
    /// Indirect call (`jalr`): writes the return address to `dst`.
    CallReg {
        /// Destination hand for the return address.
        dst: Hand,
        /// Target address source.
        src: Src,
    },
    /// Register move: `mv dst, src`.
    Mv {
        /// Destination hand.
        dst: Hand,
        /// Source.
        src: Src,
    },
    /// No-operation.
    Nop,
    /// Stop execution; `src` is reported as the exit value.
    Halt {
        /// Exit-value source.
        src: Src,
    },
}

impl Inst {
    /// The destination hand, if the instruction writes one.
    pub fn dst(&self) -> Option<Hand> {
        match *self {
            Inst::Alu { dst, .. }
            | Inst::AluImm { dst, .. }
            | Inst::Li { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Call { dst, .. }
            | Inst::CallReg { dst, .. }
            | Inst::Mv { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// The source operands, in operand order.
    pub fn srcs(&self) -> Srcs<Src> {
        match *self {
            Inst::Alu { src1, src2, .. } => Srcs::two(src1, src2),
            Inst::AluImm { src1, .. } => Srcs::one(src1),
            Inst::Li { .. } | Inst::Jump { .. } | Inst::Call { .. } | Inst::Nop => Srcs::none(),
            Inst::Load { base, .. } => Srcs::one(base),
            Inst::Store { value, base, .. } => Srcs::two(value, base),
            Inst::Branch { src1, src2, .. } => Srcs::two(src1, src2),
            Inst::JumpReg { src } | Inst::CallReg { src, .. } => Srcs::one(src),
            Inst::Mv { src, .. } => Srcs::one(src),
            Inst::Halt { src } => Srcs::one(src),
        }
    }

    /// Coarse operation class (for Fig. 15 and functional-unit routing).
    pub fn class(&self) -> OpClass {
        match *self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => op.class(),
            Inst::Li { .. } => OpClass::IntAlu,
            Inst::Load { .. } => OpClass::Load,
            Inst::Store { .. } => OpClass::Store,
            Inst::Branch { .. } => OpClass::CondBr,
            Inst::Jump { .. } => OpClass::Jump,
            Inst::Call { .. } | Inst::CallReg { .. } => OpClass::CallRet,
            // `jr s[0]` is a return in the calling convention.
            Inst::JumpReg { .. } => OpClass::CallRet,
            Inst::Mv { .. } => OpClass::Move,
            Inst::Nop => OpClass::Nop,
            Inst::Halt { .. } => OpClass::Other,
        }
    }

    /// Whether all source distances are within [`crate::hand::MAX_DISTANCE`].
    pub fn is_encodable(&self) -> bool {
        self.srcs().iter().all(|s| s.is_encodable())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dst_presence_matches_paper() {
        // Stores and non-JAL[R] branches have no dst-hand (Section 3.2).
        let store = Inst::Store {
            op: StoreOp::Sd,
            value: Src::Hand(Hand::T, 0),
            base: Src::Hand(Hand::S, 0),
            offset: 0,
        };
        let branch = Inst::Branch {
            cond: BrCond::Ne,
            src1: Src::Hand(Hand::T, 0),
            src2: Src::Zero,
            target: 0,
        };
        let jump = Inst::Jump { target: 3 };
        assert_eq!(store.dst(), None);
        assert_eq!(branch.dst(), None);
        assert_eq!(jump.dst(), None);
        // JAL[R] do have one.
        assert_eq!(
            Inst::Call {
                dst: Hand::S,
                target: 0
            }
            .dst(),
            Some(Hand::S)
        );
        assert_eq!(
            Inst::CallReg {
                dst: Hand::S,
                src: Src::Hand(Hand::T, 1)
            }
            .dst(),
            Some(Hand::S)
        );
    }

    #[test]
    fn encodability_limit() {
        let ok = Inst::Mv {
            dst: Hand::T,
            src: Src::Hand(Hand::U, 15),
        };
        let too_far = Inst::Mv {
            dst: Hand::T,
            src: Src::Hand(Hand::U, 16),
        };
        assert!(ok.is_encodable());
        assert!(!too_far.is_encodable());
        assert!(Inst::Nop.is_encodable());
    }

    #[test]
    fn src_display() {
        assert_eq!(Src::Hand(Hand::V, 3).to_string(), "v[3]");
        assert_eq!(Src::Zero.to_string(), "zero");
    }

    #[test]
    fn classes() {
        assert_eq!(Inst::Nop.class(), OpClass::Nop);
        assert_eq!(
            Inst::Mv {
                dst: Hand::T,
                src: Src::Zero
            }
            .class(),
            OpClass::Move
        );
        assert_eq!(Inst::Jump { target: 0 }.class(), OpClass::Jump);
        assert_eq!(
            Inst::JumpReg {
                src: Src::Hand(Hand::S, 0)
            }
            .class(),
            OpClass::CallRet
        );
        let fdiv = Inst::Alu {
            op: AluOp::Fdiv,
            dst: Hand::T,
            src1: Src::Zero,
            src2: Src::Zero,
        };
        assert_eq!(fdiv.class(), OpClass::FpDiv);
    }

    #[test]
    fn srcs_enumeration() {
        let st = Inst::Store {
            op: StoreOp::Sw,
            value: Src::Hand(Hand::V, 0),
            base: Src::Hand(Hand::T, 1),
            offset: 4,
        };
        assert_eq!(&*st.srcs(), &[Src::Hand(Hand::V, 0), Src::Hand(Hand::T, 1)]);
        assert_eq!(
            Inst::Li {
                dst: Hand::T,
                imm: 9
            }
            .srcs()
            .len(),
            0
        );
    }
}
