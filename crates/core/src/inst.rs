//! Clockhands instructions: the shared shape [`ch_common::isa::Inst`]
//! with Clockhands operands.
//!
//! An instruction's destination, when present, is a *hand* (Fig. 5:
//! `dst-hand` field); one physical register is implicitly allocated from
//! that hand's ring. A source is a *(hand, distance)* pair: `t[2]` means
//! "the value written to hand `t` three writes ago" — or the hardwired
//! zero register. This module keeps only those operand types and their
//! rule; the variants, `dst`, `srcs`, `class` and `target` are shared.

use crate::hand::Hand;
use crate::state::HandFile;
use ch_common::isa::{Absent, Operands};

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

/// The Clockhands operand naming: hands as destinations, `hand[distance]`
/// as sources, and the indirect call `jalr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Clockhands;

impl Operands for Clockhands {
    type Dst = Hand;
    type Src = Src;
    type CallReg = ();
    type SpAddi = Absent;
    type File = HandFile;
    const CALL_REG: Option<()> = Some(());

    fn is_valid(src: Src) -> bool {
        src.is_encodable()
    }
}

/// One Clockhands instruction.
pub type Inst = ch_common::isa::Inst<Clockhands>;

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::exec::{AluOp, BrCond, StoreOp};
    use ch_common::op::OpClass;

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
                src: Src::Hand(Hand::T, 1),
                isa: ()
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
        assert_eq!(ok.invalid_src(), None);
        assert_eq!(too_far.invalid_src(), Some(Src::Hand(Hand::U, 16)));
        assert_eq!(Inst::Nop.invalid_src(), None);
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
