//! The STRAIGHT bit formats: 8-bit distance specifiers (distances up
//! to 127, plus dedicated zero and stack-pointer encodings) in the
//! 32-bit form, and 5-bit specifiers (distances up to 30) in the
//! 16-bit compact forms. The wide source fields are the ISA's cost of
//! rename-freedom without hands — the density experiment quantifies
//! what Clockhands' 6-bit specifiers buy back.

use crate::bits::*;
use crate::form::*;
use crate::DecodeError;
use ch_baselines::straight::{StInst, StSrc, Straight};
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use Field::*;

/// 8-bit source: 0 = zero, 1–127 = distance, 128 = stack pointer.
const SRC8_SP: u32 = 128;

/// The 8-bit code of a valid source.
fn src8(s: StSrc) -> u32 {
    match s {
        StSrc::Zero => 0,
        StSrc::Sp => SRC8_SP,
        StSrc::Dist(d) => d as u32,
    }
}

fn src_from8(v: u32) -> Option<StSrc> {
    match v {
        0 => Some(StSrc::Zero),
        1..=127 => Some(StSrc::Dist(v as u8)),
        SRC8_SP => Some(StSrc::Sp),
        _ => None,
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

    /// Never asked: STRAIGHT destinations are implicit.
    fn dst((): ()) -> u32 {
        unreachable!("STRAIGHT has no destination field")
    }

    /// Never asked: STRAIGHT destinations are implicit.
    fn dst_from(_code: u32) {
        unreachable!("STRAIGHT has no destination field")
    }

    fn src(s: StSrc) -> u32 {
        src8(s)
    }

    fn src_from(v: u32) -> Option<StSrc> {
        src_from8(v)
    }

    /// The forms with 5-bit sources; the compact store has no offset
    /// field.
    fn compact_own(i: &StInst) -> Option<Ops> {
        Some(match *i {
            StInst::Alu { op, src1, src2, .. } => calu16(op, &[src5(src1)?, src5(src2)?])?,
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
            _ => return None,
        })
    }

    fn inst_own(o: &Ops, at: usize, word: u32) -> Result<StInst, DecodeError> {
        let [a, b, _] = o.spec;
        let imm = || imm32(o.imm, at, word);
        Ok(match o.tag {
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
                target: o.imm as u32,
            },
            _ => unreachable!("tag without a form row"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::exec::BrCond;
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
