//! The RISC-V-style baseline bit formats: 6-bit architectural register
//! specifiers (the model machine has 64 integer registers) in the
//! 32-bit form, and RVC-style 16-bit compact forms restricted to the
//! low 32 registers, with destructive two-address ALU ops (`rd == rs1`)
//! mirroring C.ADD/C.SUB.

use crate::bits::*;
use crate::form::*;
use crate::DecodeError;
use ch_baselines::riscv::{Reg, Riscv, RvInst};
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use Field::*;

/// 5-bit compact register: only x0–x31 are reachable.
fn reg5(r: Reg) -> Option<u32> {
    (r.0 < 32).then_some(r.0 as u32)
}

/// Every RISC-V-style form: 6-bit registers in the 32-bit forms, 5-bit
/// ones in the 16-bit forms.
const FORMS: &[Form] = &[
    form(W32, OP_ALU, &[Funct6, Dst(6), Src(6), Src(6)]),
    form(W32, OP_ALUIMM, &[Funct6, Dst(6), Src(6), Imm(6)]),
    forms(W32, OP_ADDI..=OP_XORI, &[Dst(6), Src(6), Imm(12)]),
    form(W32, OP_LI, &[Dst(6), Imm(18)]),
    forms(W32, OP_LB..=OP_LWU, &[Dst(6), Src(6), Imm(12)]),
    forms(W32, OP_SB..=OP_SD, &[Src(6), Src(6), Imm(12)]),
    forms(W32, OP_BEQ..=OP_BGEU, &[Src(6), Src(6), Disp(12)]),
    form(W32, OP_JUMP, &[Disp(24)]),
    form(W32, OP_CALL, &[Dst(6), Disp(18)]),
    form(W32, OP_JUMPREG, &[Src(6)]),
    form(W32, OP_CALLREG, &[Dst(6), Src(6)]),
    form(W32, OP_MV, &[Dst(6), Src(6)]),
    form(W32, OP_NOP, &[]),
    form(W32, OP_HALT, &[Src(6)]),
    // Destructive two-address ALU and `addi`: `rd` is also `rs1`.
    forms(Q0, 0..=7, &[Dst(5), Src(5)]),
    form(Q1, C_MV, &[Dst(5), Src(5)]),
    form(Q1, C_LI, &[Dst(5), CImm(6)]),
    form(Q1, C_ADDI, &[Dst(5), CImm(6)]),
    form(Q1, C_LD, &[Dst(5), Src(5), COff(1)]),
    form(Q1, C_SD, &[Src(5), Src(5), COff(1)]),
    forms(Q1, C_BEQZ..=C_BNEZ, &[Src(5), CDisp(6)]),
    form(Q1, C_J, &[CDisp(11)]),
    form(Q2, C_NOP, &[]),
    form(Q2, C_HALT, &[Src(5)]),
    form(Q2, C_JR, &[Src(5)]),
];

pub(crate) struct Rv;

impl Codec for Rv {
    type Ops = Riscv;
    const FORMS: &'static [Form] = FORMS;

    fn dst(rd: Reg) -> u32 {
        rd.0 as u32
    }

    fn dst_from(v: u32) -> Reg {
        Reg(v as u8)
    }

    fn src(r: Reg) -> u32 {
        r.0 as u32
    }

    fn src_from(v: u32) -> Option<Reg> {
        Some(Reg(v as u8))
    }

    /// The destructive two-address ALU and `addi` forms, and the memory
    /// and branch forms, all limited to x0–x31.
    fn compact_own(i: &RvInst) -> Option<Ops> {
        Some(match *i {
            RvInst::Alu {
                op,
                dst: rd,
                src1: rs1,
                src2: rs2,
            } if rd == rs1 => calu16(op, &[reg5(rd)?, reg5(rs2)?])?,
            RvInst::AluImm {
                op: AluOp::Add,
                dst: rd,
                src1: rs1,
                imm,
            } if rd == rs1 => op16(Q1, C_ADDI, &[reg5(rd)?], imm.into()),
            RvInst::Load {
                op: LoadOp::Ld,
                dst: rd,
                base,
                offset,
            } => op16(Q1, C_LD, &[reg5(rd)?, reg5(base)?], offset.into()),
            RvInst::Store {
                op: StoreOp::Sd,
                value: rs,
                base,
                offset,
            } => op16(Q1, C_SD, &[reg5(rs)?, reg5(base)?], offset.into()),
            RvInst::Branch {
                cond,
                src1: rs1,
                src2: Reg(0),
                target,
            } => op16(Q1, cbranch_funct(cond)?, &[reg5(rs1)?], target.into()),
            _ => return None,
        })
    }

    fn inst_own(o: &Ops, at: usize, word: u32) -> Result<RvInst, DecodeError> {
        let [a, b, _] = o.spec.map(|v| Reg(v as u8));
        let imm = || imm32(o.imm, at, word);
        Ok(match o.tag {
            (Q0, f) => RvInst::Alu {
                op: CALU_FUNCT[f as usize],
                dst: a,
                src1: a,
                src2: b,
            },
            (Q1, C_ADDI) => RvInst::AluImm {
                op: AluOp::Add,
                dst: a,
                src1: a,
                imm: imm()?,
            },
            (Q1, C_LD) => RvInst::Load {
                op: LoadOp::Ld,
                dst: a,
                base: b,
                offset: imm()?,
            },
            (Q1, C_SD) => RvInst::Store {
                op: StoreOp::Sd,
                value: a,
                base: b,
                offset: imm()?,
            },
            (Q1, c @ (C_BEQZ | C_BNEZ)) => RvInst::Branch {
                cond: CBRANCH[(c - C_BEQZ) as usize],
                src1: a,
                src2: Reg(0),
                target: o.imm as u32,
            },
            _ => unreachable!("tag without a form row"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EncodeError;
    use ch_common::exec::BrCond;
    use ch_common::EncodingVariant;

    fn sample() -> Vec<RvInst> {
        vec![
            RvInst::Li {
                dst: Reg(10),
                imm: 3,
            },
            RvInst::Li {
                dst: Reg(42),
                imm: 0x7fff_0000_1234,
            },
            RvInst::Alu {
                op: AluOp::Add,
                dst: Reg(10),
                src1: Reg(10),
                src2: Reg(11),
            },
            RvInst::Alu {
                op: AluOp::Fdiv,
                dst: Reg(60),
                src1: Reg(61),
                src2: Reg(62),
            },
            RvInst::AluImm {
                op: AluOp::Add,
                dst: Reg(10),
                src1: Reg(10),
                imm: 24,
            },
            RvInst::AluImm {
                op: AluOp::Slt,
                dst: Reg(33),
                src1: Reg(40),
                imm: -900,
            },
            RvInst::Load {
                op: LoadOp::Ld,
                dst: Reg(5),
                base: Reg(2),
                offset: 8,
            },
            RvInst::Load {
                op: LoadOp::Lwu,
                dst: Reg(50),
                base: Reg(2),
                offset: 100_000,
            },
            RvInst::Store {
                op: StoreOp::Sd,
                value: Reg(5),
                base: Reg(2),
                offset: 0,
            },
            RvInst::Store {
                op: StoreOp::Sb,
                value: Reg(6),
                base: Reg(40),
                offset: -3,
            },
            RvInst::Branch {
                cond: BrCond::Eq,
                src1: Reg(10),
                src2: Reg(0),
                target: 2,
            },
            RvInst::Branch {
                cond: BrCond::Lt,
                src1: Reg(10),
                src2: Reg(45),
                target: 0,
            },
            RvInst::Call {
                dst: Reg(1),
                target: 14,
            },
            RvInst::CallReg {
                dst: Reg(1),
                src: Reg(5),
                isa: (),
            },
            RvInst::Jump { target: 15 },
            RvInst::Mv {
                dst: Reg(8),
                src: Reg(9),
            },
            RvInst::Nop,
            RvInst::JumpReg { src: Reg(1) },
            RvInst::Halt { src: Reg(10) },
        ]
    }

    #[test]
    fn roundtrip_both_variants() {
        let insts = sample();
        for variant in EncodingVariant::ALL {
            let enc = crate::encode_riscv(&insts, variant).unwrap();
            let back = crate::decode_riscv(&enc.bytes, &enc.pool).unwrap();
            assert_eq!(back, insts, "{variant}");
        }
    }

    #[test]
    fn compressed_is_denser() {
        let insts = sample();
        let enc = crate::encode_riscv(&insts, EncodingVariant::Compressed).unwrap();
        assert!(enc.layout.compact_count() >= 8, "{:?}", enc.layout.sizes);
        assert!(enc.bytes.len() < 4 * insts.len());
    }

    #[test]
    fn out_of_range_register_is_an_encode_error() {
        let err = crate::encode_riscv(
            &[RvInst::Mv {
                dst: Reg(64),
                src: Reg(0),
            }],
            EncodingVariant::Fixed,
        )
        .unwrap_err();
        assert!(matches!(err, EncodeError::BadDst { at: 0 }), "{err:?}");
        let err = crate::encode_riscv(
            &[RvInst::Mv {
                dst: Reg(1),
                src: Reg(64),
            }],
            EncodingVariant::Fixed,
        )
        .unwrap_err();
        assert!(matches!(err, EncodeError::BadSrc { at: 0 }), "{err:?}");
    }

    #[test]
    fn three_address_alu_never_compresses() {
        // rd != rs1 has no destructive compact form.
        let i = RvInst::Alu {
            op: AluOp::Add,
            dst: Reg(1),
            src1: Reg(2),
            src2: Reg(3),
        };
        assert!(!Rv::has_compact(&i));
    }
}
