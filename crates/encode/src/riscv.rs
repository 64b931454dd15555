//! The RISC-V-style baseline bit formats: 6-bit architectural register
//! specifiers (the model machine has 64 integer registers) in the
//! 32-bit form, and RVC-style 16-bit compact forms restricted to the
//! low 32 registers, with destructive two-address ALU ops (`rd == rs1`)
//! mirroring C.ADD/C.SUB.

use crate::bits::*;
use crate::form::*;
use crate::{DecodeError, EncodeError};
use ch_baselines::riscv::{Reg, Riscv, RvInst};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
use Field::*;

fn reg6(r: Reg, at: u32) -> Result<u32, EncodeError> {
    if r.0 >= 64 {
        return Err(EncodeError::BadSrc { at });
    }
    Ok(r.0 as u32)
}

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

    fn full(i: &RvInst, at: u32) -> Result<Ops, EncodeError> {
        let r = |x| reg6(x, at);
        Ok(match *i {
            RvInst::Alu {
                op,
                dst: rd,
                src1: rs1,
                src2: rs2,
            } => alu32(op, &[r(rd)?, r(rs1)?, r(rs2)?]),
            RvInst::AluImm {
                op,
                dst: rd,
                src1: rs1,
                imm,
            } => alu_imm32(op, &[r(rd)?, r(rs1)?], imm.into(), at)?,
            RvInst::Li { dst: rd, imm } => op32(OP_LI, &[r(rd)?], imm),
            RvInst::Load {
                op,
                dst: rd,
                base,
                offset,
            } => op32(load_opcode(op), &[r(rd)?, r(base)?], offset.into()),
            RvInst::Store {
                op,
                value: rs,
                base,
                offset,
            } => op32(store_opcode(op), &[r(rs)?, r(base)?], offset.into()),
            RvInst::Branch {
                cond,
                src1: rs1,
                src2: rs2,
                target,
            } => op32(branch_opcode(cond), &[r(rs1)?, r(rs2)?], target.into()),
            RvInst::Jump { target } => op32(OP_JUMP, &[], target.into()),
            RvInst::Call { dst: rd, target } => op32(OP_CALL, &[r(rd)?], target.into()),
            RvInst::JumpReg { src: rs } => op32(OP_JUMPREG, &[r(rs)?], 0),
            RvInst::CallReg {
                dst: rd, src: rs, ..
            } => op32(OP_CALLREG, &[r(rd)?, r(rs)?], 0),
            RvInst::Mv { dst: rd, src: rs } => op32(OP_MV, &[r(rd)?, r(rs)?], 0),
            RvInst::Nop => op32(OP_NOP, &[], 0),
            RvInst::Halt { src: rs } => op32(OP_HALT, &[r(rs)?], 0),
            RvInst::SpAddi { isa, .. } => match isa {},
        })
    }

    fn compact(i: &RvInst) -> Option<Ops> {
        Some(match *i {
            RvInst::Alu {
                op,
                dst: rd,
                src1: rs1,
                src2: rs2,
            } if rd == rs1 => calu16(op, &[reg5(rd)?, reg5(rs2)?])?,
            RvInst::Mv { dst: rd, src: rs } => op16(Q1, C_MV, &[reg5(rd)?, reg5(rs)?], 0),
            RvInst::Li { dst: rd, imm } => op16(Q1, C_LI, &[reg5(rd)?], imm),
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
            RvInst::Jump { target } => op16(Q1, C_J, &[], target.into()),
            RvInst::Nop => op16(Q2, C_NOP, &[], 0),
            RvInst::Halt { src: rs } => op16(Q2, C_HALT, &[reg5(rs)?], 0),
            RvInst::JumpReg { src: rs } => op16(Q2, C_JR, &[reg5(rs)?], 0),
            _ => return None,
        })
    }

    fn inst(o: &Ops, at: usize, word: u32) -> Result<RvInst, DecodeError> {
        let [a, b, c] = o.spec.map(|v| Reg(v as u8));
        let imm = || imm32(o.imm, at, word);
        let target = o.imm as u32;
        Ok(match o.tag {
            (W32, OP_ALU) => RvInst::Alu {
                op: alu_from_funct(o.funct, at, word)?,
                dst: a,
                src1: b,
                src2: c,
            },
            (W32, OP_ALUIMM | OP_ADDI..=OP_XORI) => RvInst::AluImm {
                op: alu_imm_op(o, at, word)?,
                dst: a,
                src1: b,
                imm: imm()?,
            },
            (W32, OP_LI) | (Q1, C_LI) => RvInst::Li { dst: a, imm: o.imm },
            (W32, op @ OP_LB..=OP_LWU) => RvInst::Load {
                op: LoadOp::ALL[(op - OP_LB) as usize],
                dst: a,
                base: b,
                offset: imm()?,
            },
            (W32, op @ OP_SB..=OP_SD) => RvInst::Store {
                op: StoreOp::ALL[(op - OP_SB) as usize],
                value: a,
                base: b,
                offset: imm()?,
            },
            (W32, op @ OP_BEQ..=OP_BGEU) => RvInst::Branch {
                cond: BrCond::ALL[(op - OP_BEQ) as usize],
                src1: a,
                src2: b,
                target,
            },
            (W32, OP_JUMP) | (Q1, C_J) => RvInst::Jump { target },
            (W32, OP_CALL) => RvInst::Call { dst: a, target },
            (W32, OP_JUMPREG) | (Q2, C_JR) => RvInst::JumpReg { src: a },
            (W32, OP_CALLREG) => RvInst::CallReg {
                dst: a,
                src: b,
                isa: (),
            },
            (W32, OP_MV) | (Q1, C_MV) => RvInst::Mv { dst: a, src: b },
            (W32, OP_NOP) | (Q2, C_NOP) => RvInst::Nop,
            (W32, OP_HALT) | (Q2, C_HALT) => RvInst::Halt { src: a },
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
                target,
            },
            _ => unreachable!("tag without a form row"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
