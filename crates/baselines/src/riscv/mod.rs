//! A conventional RISC baseline: RISC-V-like register-name ISA.
//!
//! Operand specification is by logical register number (Fig. 5, top row),
//! which creates false dependencies through register reuse and therefore
//! requires the renaming hardware modelled in [`rename`].
//!
//! The instruction shape, program container and interpreter step are the
//! shared ones ([`ch_common::isa`], [`ch_common::interp`]); this module
//! keeps only the register type, the register file and their rules.

pub mod asm;
pub mod interp;
pub mod rename;

use ch_common::isa::{Absent, Inst, Operands, Program};
use interp::RegFile;

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

/// `xN`, `fN`, or, for a number past the register file, `<regN>`: a
/// token that names no register and that no assembler reads back.
impl std::fmt::Display for Reg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0 {
            n if n >= NUM_REGS => write!(f, "<reg{n}>"),
            n if n >= 32 => write!(f, "f{}", n - 32),
            n => write!(f, "x{n}"),
        }
    }
}

/// The RISC operand naming: logical registers as destinations and
/// sources, and the indirect call `jalr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Riscv;

impl Operands for Riscv {
    type Dst = Reg;
    type Src = Reg;
    type CallReg = ();
    type SpAddi = Absent;
    type File = RegFile;
    const CALL_REG: Option<()> = Some(());

    /// Writes to `x0` count as no destination.
    fn is_written(rd: Reg) -> bool {
        !rd.is_zero()
    }

    /// Registers are numbered below [`NUM_REGS`].
    fn is_valid(r: Reg) -> bool {
        r.0 < NUM_REGS
    }

    fn is_valid_dst(rd: Reg) -> bool {
        Self::is_valid(rd)
    }
}

/// One RISC instruction: the shape shared with Clockhands and STRAIGHT
/// (Fig. 5: only the operand fields differ).
pub type RvInst = Inst<Riscv>;

/// A RISC program.
pub type RvProgram = Program<RvInst>;

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::exec::AluOp;

    #[test]
    fn zero_register_is_not_a_destination() {
        let i = RvInst::AluImm {
            op: AluOp::Add,
            dst: Reg::ZERO,
            src1: Reg::x(5),
            imm: 1,
        };
        assert_eq!(i.dst(), None);
        let j = RvInst::AluImm {
            op: AluOp::Add,
            dst: Reg::x(5),
            src1: Reg::ZERO,
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
        assert_eq!(Reg(63).to_string(), "f31");
        assert_eq!(Reg(70).to_string(), "<reg70>");
        assert_eq!(asm::parse_reg("<reg70>"), None);
    }

    #[test]
    fn target_validation() {
        let mut p = RvProgram::new();
        p.insts.push(RvInst::Jump { target: 2 });
        assert!(p.validate().is_err());
        p.insts.push(RvInst::Nop);
        p.insts.push(RvInst::Halt { src: Reg::A0 });
        assert!(p.validate().is_ok());
    }

    #[test]
    fn register_numbers_past_the_file_are_refused() {
        // Register 70 is past the 64-entry file, as a source and as a
        // destination: validation names it, and the interpreter refuses
        // the program instead of indexing past its file.
        let alu = RvInst::Alu {
            op: AluOp::Add,
            dst: Reg::A0,
            src1: Reg(70),
            src2: Reg::ZERO,
        };
        let li = RvInst::Li {
            dst: Reg(70),
            imm: 1,
        };
        for (inst, text) in [
            (alu, "instruction 0: source operand <reg70> out of range"),
            (li, "instruction 0: destination Reg(70) out of range"),
        ] {
            let mut p = RvProgram::new();
            p.insts.extend([inst, RvInst::Halt { src: Reg::A0 }]);
            assert_eq!(p.validate().unwrap_err().to_string(), text);
            let e = interp::Interpreter::new(p).unwrap_err();
            assert_eq!(e.to_string(), text);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_constructor_bounds() {
        let _ = Reg::x(32);
    }
}
