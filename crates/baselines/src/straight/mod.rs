//! STRAIGHT baseline: operands by inter-instruction distance.
//!
//! Every executed instruction is implicitly assigned the next slot of a
//! single ring buffer (so *inter-instruction* distance equals
//! *inter-register* distance), and a source operand `[d]` names the result
//! of the instruction `d` positions earlier in program order. The maximum
//! reference distance is 127 (Table 2: 127 unified logical registers).
//! The stack pointer lives in a special register updated only by
//! `SPADDi` (Section 4.2).
//!
//! The instruction shape, program container and interpreter step are the
//! shared ones ([`ch_common::isa`], [`ch_common::interp`]); this module
//! keeps only the operand types, the ring file and their rules.

pub mod asm;
pub mod interp;

use ch_common::isa::{Absent, Inst, Operands, Program};
use interp::RingFile;

/// Maximum source reference distance (M in the paper).
pub const MAX_DISTANCE: u8 = 127;

/// Most arguments a call passes: at the callee's entry the return
/// address is `[1]` and the arguments `[2]..=[MAX_ARGS + 1]`, the window
/// the calling convention defines as caller-meaningful.
pub const MAX_ARGS: u8 = 11;

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

/// The STRAIGHT operand naming: every destination is the implicit next
/// ring slot, so a destination carries no field (`()`), sources are
/// distances, and the ISA has `spaddi` but no indirect call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Straight;

impl Operands for Straight {
    type Dst = ();
    type Src = StSrc;
    type CallReg = Absent;
    type SpAddi = ();
    type File = RingFile;
    const IMPLICIT_DST: Option<()> = Some(());
    const SP_ADDI: Option<()> = Some(());

    fn is_valid(src: StSrc) -> bool {
        src.is_valid()
    }
}

/// One STRAIGHT instruction. Every executed instruction occupies a ring
/// slot, but only those with a destination (`dst()` is `Some`) write a
/// value into it.
pub type StInst = Inst<Straight>;

/// A STRAIGHT program.
pub type StProgram = Program<StInst>;

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::exec::StoreOp;

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
        assert!(StInst::Li { dst: (), imm: 3 }.dst().is_some());
        assert!(StInst::Mv {
            dst: (),
            src: StSrc::Dist(1)
        }
        .dst()
        .is_some());
        assert!(StInst::Call { dst: (), target: 0 }.dst().is_some());
        assert!(StInst::Nop.dst().is_none());
        assert!(StInst::SpAddi { imm: -8, isa: () }.dst().is_none());
        assert!(StInst::Store {
            value: StSrc::Dist(1),
            base: StSrc::Sp,
            offset: 0,
            op: StoreOp::Sd
        }
        .dst()
        .is_none());
    }

    #[test]
    fn validation_rejects_bad_distance() {
        let mut p = StProgram::new();
        p.insts.push(StInst::Mv {
            dst: (),
            src: StSrc::Dist(0),
        });
        assert!(p.validate().is_err());
    }
}
