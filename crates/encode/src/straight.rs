//! The STRAIGHT bit formats: 8-bit distance specifiers (distances up
//! to 127, plus dedicated zero and stack-pointer encodings) in the
//! 32-bit form, and 5-bit specifiers (distances up to 30) in the
//! 16-bit compact forms. The wide source fields are the ISA's cost of
//! rename-freedom without hands — the density experiment quantifies
//! what Clockhands' 6-bit specifiers buy back.

use crate::bits::*;
use crate::form::*;
use crate::{DecodeError, EncodeError};
use ch_baselines::straight::{StInst, StSrc, Straight};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
use Field::*;

/// 8-bit source: 0 = zero, 1–127 = distance, 128 = stack pointer.
const SRC8_SP: u32 = 128;

fn src8(s: StSrc, at: u32) -> Result<u32, EncodeError> {
    match s {
        StSrc::Zero => Ok(0),
        StSrc::Sp => Ok(SRC8_SP),
        StSrc::Dist(d) => {
            if d == 0 || d > 127 {
                return Err(EncodeError::BadSrc { at });
            }
            Ok(d as u32)
        }
    }
}

fn src_from8(v: u32, at: usize, word: u32) -> Result<StSrc, DecodeError> {
    match v {
        0 => Ok(StSrc::Zero),
        1..=127 => Ok(StSrc::Dist(v as u8)),
        SRC8_SP => Ok(StSrc::Sp),
        _ => Err(DecodeError::BadSrc { at, word }),
    }
}

/// 5-bit compact source: 0 = zero, 1–30 = distance, 31 = stack pointer.
fn src5(s: StSrc) -> Option<u32> {
    match s {
        StSrc::Zero => Some(0),
        StSrc::Sp => Some(31),
        StSrc::Dist(d) if (1..=30).contains(&d) => Some(d as u32),
        StSrc::Dist(_) => None,
    }
}

fn src_from5(v: u32) -> StSrc {
    match v {
        0 => StSrc::Zero,
        31 => StSrc::Sp,
        d => StSrc::Dist(d as u8),
    }
}

/// Every STRAIGHT form: 8-bit sources in the 32-bit forms and 5-bit
/// compact sources in the 16-bit ones; no destination fields.
const FORMS: &[Form] = &[
    form(W32, OP_ALU, &[Funct6, Src(8), Src(8)]),
    form(W32, OP_ALUIMM, &[Funct6, Src(8), Imm(10)]),
    forms(W32, OP_ADDI..=OP_XORI, &[Src(8), Imm(16)]),
    form(W32, OP_LI, &[Imm(24)]),
    forms(W32, OP_LB..=OP_LWU, &[Src(8), Imm(16)]),
    forms(W32, OP_SB..=OP_SD, &[Src(8), Src(8), Imm(8)]),
    forms(W32, OP_BEQ..=OP_BGEU, &[Src(8), Src(8), Disp(8)]),
    form(W32, OP_JUMP, &[Disp(24)]),
    form(W32, OP_CALL, &[Disp(24)]),
    form(W32, OP_JUMPREG, &[Src(8)]),
    form(W32, OP_MV, &[Src(8)]),
    form(W32, OP_NOP, &[]),
    form(W32, OP_HALT, &[Src(8)]),
    form(W32, OP_SPADDI, &[Imm(24)]),
    forms(Q0, 0..=7, &[Src(5), Src(5)]),
    form(Q1, C_MV, &[Src(8)]),
    form(Q1, C_LI, &[CImm(11)]),
    form(Q1, C_ADDI, &[Src(5), CImm(6)]),
    form(Q1, C_LD, &[Src(5), COff(6)]),
    form(Q1, C_SD, &[Src(5), Src(5)]),
    forms(Q1, C_BEQZ..=C_BNEZ, &[Src(5), CDisp(6)]),
    form(Q1, C_J, &[CDisp(11)]),
    form(Q2, C_NOP, &[]),
    form(Q2, C_HALT, &[Src(8)]),
    form(Q2, C_JR, &[Src(8)]),
    form(Q2, C_SPADDI, &[CImm(9)]),
];

pub(crate) struct St;

impl Codec for St {
    type Ops = Straight;
    const FORMS: &'static [Form] = FORMS;

    fn full(i: &StInst, at: u32) -> Result<Ops, EncodeError> {
        let src = |s| src8(s, at);
        Ok(match *i {
            StInst::Alu { op, src1, src2, .. } => alu32(op, &[src(src1)?, src(src2)?]),
            StInst::AluImm { op, src1, imm, .. } => alu_imm32(op, &[src(src1)?], imm.into(), at)?,
            StInst::Li { imm, .. } => op32(OP_LI, &[], imm),
            StInst::Load {
                op, base, offset, ..
            } => op32(load_opcode(op), &[src(base)?], offset.into()),
            StInst::Store {
                value,
                base,
                offset,
                op,
            } => op32(store_opcode(op), &[src(value)?, src(base)?], offset.into()),
            StInst::Branch {
                cond,
                src1,
                src2,
                target,
            } => op32(
                branch_opcode(cond),
                &[src(src1)?, src(src2)?],
                target.into(),
            ),
            StInst::Jump { target } => op32(OP_JUMP, &[], target.into()),
            StInst::Call { target, .. } => op32(OP_CALL, &[], target.into()),
            StInst::JumpReg { src: s } => op32(OP_JUMPREG, &[src(s)?], 0),
            StInst::SpAddi { imm, .. } => op32(OP_SPADDI, &[], imm.into()),
            StInst::Mv { src: s, .. } => op32(OP_MV, &[src(s)?], 0),
            StInst::Nop => op32(OP_NOP, &[], 0),
            StInst::Halt { src: s } => op32(OP_HALT, &[src(s)?], 0),
            StInst::CallReg { isa, .. } => match isa {},
        })
    }

    fn compact(i: &StInst) -> Option<Ops> {
        let src = |s| src8(s, 0).ok();
        Some(match *i {
            StInst::Alu { op, src1, src2, .. } => calu16(op, &[src5(src1)?, src5(src2)?])?,
            StInst::Mv { src: s, .. } => op16(Q1, C_MV, &[src(s)?], 0),
            StInst::Li { imm, .. } => op16(Q1, C_LI, &[], imm),
            StInst::AluImm {
                op: AluOp::Add,
                src1,
                imm,
                ..
            } => op16(Q1, C_ADDI, &[src5(src1)?], imm.into()),
            StInst::Load {
                op: LoadOp::Ld,
                base,
                offset,
                ..
            } => op16(Q1, C_LD, &[src5(base)?], offset.into()),
            // The compact store has no offset field.
            StInst::Store {
                value,
                base,
                offset: 0,
                op: StoreOp::Sd,
            } => op16(Q1, C_SD, &[src5(value)?, src5(base)?], 0),
            StInst::Branch {
                cond,
                src1,
                src2: StSrc::Zero,
                target,
            } => op16(Q1, cbranch_funct(cond)?, &[src5(src1)?], target.into()),
            StInst::Jump { target } => op16(Q1, C_J, &[], target.into()),
            StInst::Nop => op16(Q2, C_NOP, &[], 0),
            StInst::Halt { src: s } => op16(Q2, C_HALT, &[src(s)?], 0),
            StInst::JumpReg { src: s } => op16(Q2, C_JR, &[src(s)?], 0),
            StInst::SpAddi { imm, .. } => op16(Q2, C_SPADDI, &[], imm.into()),
            _ => return None,
        })
    }

    fn inst(o: &Ops, at: usize, word: u32) -> Result<StInst, DecodeError> {
        let [a, b, _] = o.spec;
        let src = |v| src_from8(v, at, word);
        let imm = || imm32(o.imm, at, word);
        let target = o.imm as u32;
        Ok(match o.tag {
            (W32, OP_ALU) => StInst::Alu {
                dst: (),
                op: alu_from_funct(o.funct, at, word)?,
                src1: src(a)?,
                src2: src(b)?,
            },
            (W32, OP_ALUIMM | OP_ADDI..=OP_XORI) => StInst::AluImm {
                dst: (),
                op: alu_imm_op(o, at, word)?,
                src1: src(a)?,
                imm: imm()?,
            },
            (W32, OP_LI) | (Q1, C_LI) => StInst::Li {
                dst: (),
                imm: o.imm,
            },
            (W32, op @ OP_LB..=OP_LWU) => StInst::Load {
                dst: (),
                op: LoadOp::ALL[(op - OP_LB) as usize],
                base: src(a)?,
                offset: imm()?,
            },
            (W32, op @ OP_SB..=OP_SD) => StInst::Store {
                value: src(a)?,
                base: src(b)?,
                offset: imm()?,
                op: StoreOp::ALL[(op - OP_SB) as usize],
            },
            (W32, op @ OP_BEQ..=OP_BGEU) => StInst::Branch {
                cond: BrCond::ALL[(op - OP_BEQ) as usize],
                src1: src(a)?,
                src2: src(b)?,
                target,
            },
            (W32, OP_JUMP) | (Q1, C_J) => StInst::Jump { target },
            (W32, OP_CALL) => StInst::Call { dst: (), target },
            (W32, OP_JUMPREG) | (Q2, C_JR) => StInst::JumpReg { src: src(a)? },
            (W32, OP_SPADDI) | (Q2, C_SPADDI) => StInst::SpAddi {
                imm: imm()?,
                isa: (),
            },
            (W32, OP_MV) | (Q1, C_MV) => StInst::Mv {
                dst: (),
                src: src(a)?,
            },
            (W32, OP_NOP) | (Q2, C_NOP) => StInst::Nop,
            (W32, OP_HALT) | (Q2, C_HALT) => StInst::Halt { src: src(a)? },
            (Q0, f) => StInst::Alu {
                dst: (),
                op: CALU_FUNCT[f as usize],
                src1: src_from5(a),
                src2: src_from5(b),
            },
            (Q1, C_ADDI) => StInst::AluImm {
                dst: (),
                op: AluOp::Add,
                src1: src_from5(a),
                imm: imm()?,
            },
            (Q1, C_LD) => StInst::Load {
                dst: (),
                op: LoadOp::Ld,
                base: src_from5(a),
                offset: imm()?,
            },
            (Q1, C_SD) => StInst::Store {
                value: src_from5(a),
                base: src_from5(b),
                offset: 0,
                op: StoreOp::Sd,
            },
            (Q1, c @ (C_BEQZ | C_BNEZ)) => StInst::Branch {
                cond: CBRANCH[(c - C_BEQZ) as usize],
                src1: src_from5(a),
                src2: StSrc::Zero,
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

    fn sample() -> Vec<StInst> {
        vec![
            StInst::Li { dst: (), imm: 42 },
            StInst::Li {
                dst: (),
                imm: -0x7654_3210_fedc,
            },
            StInst::Alu {
                dst: (),
                op: AluOp::Add,
                src1: StSrc::Dist(1),
                src2: StSrc::Dist(2),
            },
            StInst::Alu {
                dst: (),
                op: AluOp::Mulw,
                src1: StSrc::Dist(90),
                src2: StSrc::Sp,
            },
            StInst::AluImm {
                dst: (),
                op: AluOp::Add,
                src1: StSrc::Dist(1),
                imm: -7,
            },
            StInst::AluImm {
                dst: (),
                op: AluOp::Sra,
                src1: StSrc::Dist(120),
                imm: 100_000,
            },
            StInst::Load {
                dst: (),
                op: LoadOp::Ld,
                base: StSrc::Sp,
                offset: 32,
            },
            StInst::Load {
                dst: (),
                op: LoadOp::Lh,
                base: StSrc::Dist(3),
                offset: -2,
            },
            StInst::Store {
                value: StSrc::Dist(1),
                base: StSrc::Sp,
                offset: 0,
                op: StoreOp::Sd,
            },
            StInst::Store {
                value: StSrc::Dist(2),
                base: StSrc::Dist(99),
                offset: 1000,
                op: StoreOp::Sw,
            },
            StInst::Branch {
                cond: BrCond::Ne,
                src1: StSrc::Dist(1),
                src2: StSrc::Zero,
                target: 2,
            },
            StInst::Branch {
                cond: BrCond::Geu,
                src1: StSrc::Dist(77),
                src2: StSrc::Dist(3),
                target: 0,
            },
            StInst::SpAddi { imm: -16, isa: () },
            StInst::SpAddi {
                imm: 100_000,
                isa: (),
            },
            StInst::Call {
                dst: (),
                target: 16,
            },
            StInst::Jump { target: 16 },
            StInst::Mv {
                dst: (),
                src: StSrc::Dist(101),
            },
            StInst::JumpReg {
                src: StSrc::Dist(1),
            },
            StInst::Nop,
            StInst::Halt {
                src: StSrc::Dist(1),
            },
        ]
    }

    #[test]
    fn roundtrip_both_variants() {
        let insts = sample();
        for variant in EncodingVariant::ALL {
            let enc = crate::encode_straight(&insts, variant).unwrap();
            let back = crate::decode_straight(&enc.bytes, &enc.pool).unwrap();
            assert_eq!(back, insts, "{variant}");
        }
    }

    #[test]
    fn compressed_is_denser() {
        let insts = sample();
        let enc = crate::encode_straight(&insts, EncodingVariant::Compressed).unwrap();
        assert!(enc.layout.compact_count() >= 8, "{:?}", enc.layout.sizes);
        assert!(enc.bytes.len() < 4 * insts.len());
    }

    #[test]
    fn distance_128_is_rejected_as_a_source_pattern() {
        // 0b1000_0000 decodes as Sp; 129.. is reserved.
        // OP_MV with 200 in its 8-bit source field, the first above the tag.
        let w = 200 << 7 | OP_MV << 2 | W32;
        let err = crate::decode_straight(&w.to_le_bytes(), &[]).unwrap_err();
        assert!(matches!(err, DecodeError::BadSrc { at: 0, .. }), "{err:?}");
    }
}
