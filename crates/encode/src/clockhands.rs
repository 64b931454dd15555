//! The Clockhands bit formats: 6-bit `(hand, distance)` source
//! specifiers in the 32-bit form, and 4-bit `(hand, distance ≤ 3)`
//! specifiers in the 16-bit compact forms — the paper's density
//! argument made concrete. A source is two hand bits plus four distance
//! bits; the all-ones pattern (`s[15]`) is the hardwired zero register,
//! exactly as in Section 4.5.

use crate::bits::*;
use crate::form::*;
use crate::DecodeError;
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use clockhands::hand::Hand;
use clockhands::inst::{Clockhands, Inst, Src};
use Field::*;

/// The `s[15]` encoding: the hardwired zero register.
const SRC_ZERO: u32 = 0b11_1111;

/// 6-bit source specifier of a valid source: `hand << 4 | distance`,
/// zero = `0b11_1111`.
fn src6(s: Src) -> u32 {
    match s {
        Src::Zero => SRC_ZERO,
        Src::Hand(h, d) => ((h.index() as u32) << 4) | d as u32,
    }
}

/// Inverse of [`src6`]. Every 6-bit pattern is meaningful (`s` at
/// distance 15 *is* the zero register).
fn src_from6(v: u32) -> Src {
    if v == SRC_ZERO {
        Src::Zero
    } else {
        Src::Hand(Hand::from_index((v >> 4) as usize), (v & 15) as u8)
    }
}

/// 4-bit compact source: `hand << 2 | distance`, distances 0–3 only
/// (Fig. 10: the overwhelming majority of references), no zero form.
fn src4(s: Src) -> Option<u32> {
    match s {
        Src::Hand(h, d) if d <= 3 => Some(((h.index() as u32) << 2) | d as u32),
        _ => None,
    }
}

fn src_from4(v: u32) -> Src {
    Src::Hand(Hand::from_index((v >> 2) as usize), (v & 3) as u8)
}

fn dst2(h: Hand) -> u32 {
    h.index() as u32
}

fn dst_from2(v: u32) -> Hand {
    Hand::from_index(v as usize)
}

/// Every Clockhands form: a 2-bit destination hand, 6-bit sources, and
/// the 4-bit compact sources of the 16-bit forms.
const FORMS: &[Form] = &[
    form(W32, OP_ALU, &[Funct6, Dst(2), Src(6), Src(6)]),
    form(W32, OP_ALUIMM, &[Funct6, Dst(2), Src(6), Imm(9)]),
    forms(W32, OP_ADDI..=OP_XORI, &[Dst(2), Src(6), Imm(16)]),
    form(W32, OP_LI, &[Dst(2), Imm(22)]),
    forms(W32, OP_LB..=OP_LWU, &[Dst(2), Src(6), Imm(16)]),
    forms(W32, OP_SB..=OP_SD, &[Src(6), Src(6), Imm(12)]),
    forms(W32, OP_BEQ..=OP_BGEU, &[Src(6), Src(6), Disp(12)]),
    form(W32, OP_JUMP, &[Disp(24)]),
    form(W32, OP_CALL, &[Dst(2), Disp(22)]),
    form(W32, OP_JUMPREG, &[Src(6)]),
    form(W32, OP_CALLREG, &[Dst(2), Src(6)]),
    form(W32, OP_MV, &[Dst(2), Src(6)]),
    form(W32, OP_NOP, &[]),
    form(W32, OP_HALT, &[Src(6)]),
    forms(Q0, 0..=7, &[Dst(2), Src(4), Src(4)]),
    form(Q1, C_MV, &[Dst(2), Src(6)]),
    form(Q1, C_LI, &[Dst(2), CImm(9)]),
    form(Q1, C_ADDI, &[Dst(2), Src(4), CImm(5)]),
    form(Q1, C_LD, &[Dst(2), Src(4), COff(5)]),
    form(Q1, C_SD, &[Src(4), Src(4), COff(3)]),
    forms(Q1, C_BEQZ..=C_BNEZ, &[Src(4), CDisp(7)]),
    form(Q1, C_J, &[CDisp(11)]),
    form(Q2, C_NOP, &[]),
    form(Q2, C_HALT, &[Src(6)]),
    form(Q2, C_JR, &[Src(6)]),
];

pub(crate) struct Ch;

impl Codec for Ch {
    type Ops = Clockhands;
    const FORMS: &'static [Form] = FORMS;

    fn dst(h: Hand) -> u32 {
        dst2(h)
    }

    fn dst_from(v: u32) -> Hand {
        dst_from2(v)
    }

    fn src(s: Src) -> u32 {
        src6(s)
    }

    fn src_from(v: u32) -> Option<Src> {
        Some(src_from6(v))
    }

    /// The forms with 4-bit sources.
    fn compact_own(i: &Inst) -> Option<Ops> {
        Some(match *i {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => calu16(op, &[dst2(dst), src4(src1)?, src4(src2)?])?,
            Inst::AluImm {
                op: AluOp::Add,
                dst,
                src1,
                imm,
            } => op16(Q1, C_ADDI, &[dst2(dst), src4(src1)?], imm.into()),
            Inst::Load {
                op: LoadOp::Ld,
                dst,
                base,
                offset,
            } => op16(Q1, C_LD, &[dst2(dst), src4(base)?], offset.into()),
            Inst::Store {
                op: StoreOp::Sd,
                value,
                base,
                offset,
            } => op16(Q1, C_SD, &[src4(value)?, src4(base)?], offset.into()),
            Inst::Branch {
                cond,
                src1,
                src2: Src::Zero,
                target,
            } => op16(Q1, cbranch_funct(cond)?, &[src4(src1)?], target.into()),
            _ => return None,
        })
    }

    fn inst_own(o: &Ops, at: usize, word: u32) -> Result<Inst, DecodeError> {
        let [a, b, c] = o.spec;
        let imm = || imm32(o.imm, at, word);
        Ok(match o.tag {
            (Q0, f) => Inst::Alu {
                op: CALU_FUNCT[f as usize],
                dst: dst_from2(a),
                src1: src_from4(b),
                src2: src_from4(c),
            },
            (Q1, C_ADDI) => Inst::AluImm {
                op: AluOp::Add,
                dst: dst_from2(a),
                src1: src_from4(b),
                imm: imm()?,
            },
            (Q1, C_LD) => Inst::Load {
                op: LoadOp::Ld,
                dst: dst_from2(a),
                base: src_from4(b),
                offset: imm()?,
            },
            (Q1, C_SD) => Inst::Store {
                op: StoreOp::Sd,
                value: src_from4(a),
                base: src_from4(b),
                offset: imm()?,
            },
            (Q1, c @ (C_BEQZ | C_BNEZ)) => Inst::Branch {
                cond: CBRANCH[(c - C_BEQZ) as usize],
                src1: src_from4(a),
                src2: Src::Zero,
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

    fn sample() -> Vec<Inst> {
        vec![
            Inst::Li {
                dst: Hand::T,
                imm: 5,
            },
            Inst::Li {
                dst: Hand::U,
                imm: 0x1234_5678_9abc,
            },
            Inst::Alu {
                op: AluOp::Add,
                dst: Hand::T,
                src1: Src::Hand(Hand::T, 0),
                src2: Src::Hand(Hand::U, 0),
            },
            Inst::AluImm {
                op: AluOp::Add,
                dst: Hand::T,
                src1: Src::Hand(Hand::T, 0),
                imm: -3,
            },
            Inst::AluImm {
                op: AluOp::Srl,
                dst: Hand::T,
                src1: Src::Hand(Hand::T, 15),
                imm: 700,
            },
            Inst::Load {
                op: LoadOp::Ld,
                dst: Hand::U,
                base: Src::Hand(Hand::S, 0),
                offset: 16,
            },
            Inst::Load {
                op: LoadOp::Lbu,
                dst: Hand::T,
                base: Src::Hand(Hand::U, 4),
                offset: -40000,
            },
            Inst::Store {
                op: StoreOp::Sd,
                value: Src::Hand(Hand::T, 1),
                base: Src::Hand(Hand::S, 0),
                offset: 24,
            },
            Inst::Branch {
                cond: BrCond::Ne,
                src1: Src::Hand(Hand::T, 0),
                src2: Src::Zero,
                target: 2,
            },
            Inst::Branch {
                cond: BrCond::Ltu,
                src1: Src::Hand(Hand::T, 2),
                src2: Src::Hand(Hand::V, 9),
                target: 0,
            },
            Inst::Call {
                dst: Hand::S,
                target: 12,
            },
            Inst::CallReg {
                dst: Hand::S,
                src: Src::Hand(Hand::V, 3),
                isa: (),
            },
            Inst::Jump { target: 13 },
            Inst::Mv {
                dst: Hand::U,
                src: Src::Hand(Hand::V, 11),
            },
            Inst::Nop,
            Inst::JumpReg {
                src: Src::Hand(Hand::S, 0),
            },
            Inst::Halt { src: Src::Zero },
        ]
    }

    #[test]
    fn roundtrip_both_variants() {
        let insts = sample();
        for variant in EncodingVariant::ALL {
            let enc = crate::encode_clockhands(&insts, variant).unwrap();
            let back = crate::decode_clockhands(&enc.bytes, &enc.pool).unwrap();
            assert_eq!(back, insts, "{variant}");
        }
    }

    #[test]
    fn fixed_layout_is_abstract() {
        let insts = sample();
        let enc = crate::encode_clockhands(&insts, EncodingVariant::Fixed).unwrap();
        assert!(enc.layout.is_identity());
        assert_eq!(enc.bytes.len(), 4 * insts.len());
    }

    #[test]
    fn compressed_is_denser() {
        let insts = sample();
        let enc = crate::encode_clockhands(&insts, EncodingVariant::Compressed).unwrap();
        assert!(enc.layout.compact_count() >= 8, "{:?}", enc.layout.sizes);
        assert!(enc.bytes.len() < 4 * insts.len());
        let back = crate::decode_clockhands(&enc.bytes, &enc.pool).unwrap();
        assert_eq!(back, insts);
    }

    #[test]
    fn zero_register_is_s15() {
        assert_eq!(src6(Src::Zero), 0b11_1111);
        assert_eq!(src_from6(0b11_1111), Src::Zero);
        // s[14] is the deepest reachable s encoding.
        assert_eq!(src_from6(0b11_1110), Src::Hand(Hand::S, 14),);
        let halt = Inst::Halt {
            src: Src::Hand(Hand::S, 15),
        };
        assert!(matches!(
            Ch::full(&halt, 7),
            Err(EncodeError::BadSrc { at: 7 })
        ));
    }

    #[test]
    fn distance_and_immediate_field_boundaries() {
        // d = 15 is the deepest t/u/v distance (s stops at 14, its 15 is
        // the zero register) and must survive the 4-bit distance field
        // untruncated; d = 16 is out of range on every hand (a `& 0xf`
        // bug would fold it onto d = 0 silently).
        let mv = |src| Inst::Mv { dst: Hand::T, src };
        let deepest: Vec<Inst> = [Hand::T, Hand::U, Hand::V]
            .map(|h| mv(Src::Hand(h, 15)))
            .into_iter()
            .chain([mv(Src::Hand(Hand::S, 14))])
            .collect();
        for h in Hand::ALL {
            assert!(
                matches!(
                    crate::encode_clockhands(&[mv(Src::Hand(h, 16))], EncodingVariant::Fixed),
                    Err(EncodeError::BadSrc { at: 0 })
                ),
                "{h:?}[16]"
            );
        }
        // The 16-bit `addi` immediate is inline up to its signed range
        // and spills to the literal pool one past either end.
        let addi = |imm| Inst::AluImm {
            op: AluOp::Add,
            dst: Hand::T,
            src1: Src::Hand(Hand::T, 0),
            imm,
        };
        let inline = [i16::MIN as i32, i16::MAX as i32].map(addi);
        let pooled = [i16::MIN as i32 - 1, i16::MAX as i32 + 1].map(addi);
        for variant in EncodingVariant::ALL {
            for (insts, pool) in [
                (deepest.clone(), 0),
                (inline.to_vec(), 0),
                (pooled.to_vec(), 2),
            ] {
                let enc = crate::encode_clockhands(&insts, variant).unwrap();
                assert_eq!(enc.pool.len(), pool, "{variant}: {insts:?}");
                let back = crate::decode_clockhands(&enc.bytes, &enc.pool).unwrap();
                assert_eq!(back, insts, "{variant}");
            }
        }
    }

    #[test]
    fn alu_imm_bit_31_is_reserved() {
        // The OP_ALUIMM immediate site (flag + 9 bits) ends at bit 30.
        let srli = Inst::AluImm {
            op: AluOp::Srl,
            dst: Hand::T,
            src1: Src::Hand(Hand::T, 0),
            imm: -1,
        };
        let enc = crate::encode_clockhands(&[srli], EncodingVariant::Fixed).unwrap();
        let w = u32::from_le_bytes(enc.bytes[..].try_into().unwrap());
        assert_eq!(w >> 30, 0b01, "{w:#010x}");
        let err = crate::decode_clockhands(&(w | 1 << 31).to_le_bytes(), &[]).unwrap_err();
        assert!(
            matches!(err, DecodeError::Reserved { at: 0, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn deep_branch_relaxes_to_32_bit() {
        // A compact-eligible branch whose target sits past the C.BEQZ
        // ±64-halfword reach must be promoted, and stay correct.
        let mut insts = vec![Inst::Branch {
            cond: BrCond::Eq,
            src1: Src::Hand(Hand::T, 0),
            src2: Src::Zero,
            target: 400,
        }];
        for _ in 0..400 {
            insts.push(Inst::Nop);
        }
        let enc = crate::encode_clockhands(&insts, EncodingVariant::Compressed).unwrap();
        assert_eq!(enc.layout.sizes[0], 4, "branch promoted");
        assert_eq!(enc.layout.sizes[1], 2, "nops stay compact");
        let back = crate::decode_clockhands(&enc.bytes, &enc.pool).unwrap();
        assert_eq!(back, insts);
    }
}
