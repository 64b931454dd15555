//! The Clockhands bit formats: 6-bit `(hand, distance)` source
//! specifiers in the 32-bit form, and 4-bit `(hand, distance ≤ 3)`
//! specifiers in the 16-bit compact forms — the paper's density
//! argument made concrete. A source is two hand bits plus four distance
//! bits; the all-ones pattern (`s[15]`) is the hardwired zero register,
//! exactly as in Section 4.5.

use crate::bits::*;
use crate::stream::Codec;
use crate::{DecodeError, EncodeError};
use ch_common::exec::{BrCond, LoadOp, StoreOp};
use clockhands::hand::Hand;
use clockhands::inst::{Inst, Src};

/// The `s[15]` encoding: the hardwired zero register.
const SRC_ZERO: u32 = 0b11_1111;

/// 6-bit source specifier: `hand << 4 | distance`, zero = `0b11_1111`.
fn src6(s: Src, at: u32) -> Result<u32, EncodeError> {
    match s {
        Src::Zero => Ok(SRC_ZERO),
        Src::Hand(h, d) => {
            if d > h.max_src_distance() {
                return Err(EncodeError::BadSrc { at });
            }
            Ok(((h.index() as u32) << 4) | d as u32)
        }
    }
}

/// Inverse of [`src6`]. Every 6-bit pattern is meaningful (`s` at
/// distance 15 *is* the zero register), so this cannot fail.
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

// 16-bit quadrant-01 compact opcodes.
const C_MV: u32 = 0;
const C_LI: u32 = 1;
const C_ADDI: u32 = 2;
const C_LD: u32 = 3;
const C_SD: u32 = 4;
const C_BEQZ: u32 = 5;
const C_BNEZ: u32 = 6;
const C_J: u32 = 7;
// Quadrant-10 compact opcodes.
const C_NOP: u32 = 0;
const C_HALT: u32 = 1;
const C_JR: u32 = 2;

pub(crate) struct Ch;

impl Codec for Ch {
    type Inst = Inst;

    fn target(i: &Inst) -> Option<u32> {
        match *i {
            Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }

    fn has_compact(i: &Inst) -> bool {
        match *i {
            Inst::Alu { op, src1, src2, .. } => {
                calu_funct(op).is_some() && src4(src1).is_some() && src4(src2).is_some()
            }
            Inst::AluImm {
                op: ch_common::exec::AluOp::Add,
                src1,
                imm,
                ..
            } => src4(src1).is_some() && fits_signed(imm as i64, 5),
            Inst::Li { imm, .. } => fits_signed(imm, 9),
            Inst::Load {
                op: ch_common::exec::LoadOp::Ld,
                base,
                offset,
                ..
            } => src4(base).is_some() && (0..=248).contains(&offset) && offset % 8 == 0,
            Inst::Store {
                op: ch_common::exec::StoreOp::Sd,
                value,
                base,
                offset,
            } => {
                src4(value).is_some()
                    && src4(base).is_some()
                    && (0..=56).contains(&offset)
                    && offset % 8 == 0
            }
            Inst::Branch {
                cond: ch_common::exec::BrCond::Eq | ch_common::exec::BrCond::Ne,
                src1,
                src2: Src::Zero,
                ..
            } => src4(src1).is_some(),
            Inst::Jump { .. }
            | Inst::JumpReg { .. }
            | Inst::Mv { .. }
            | Inst::Nop
            | Inst::Halt { .. } => true,
            _ => false,
        }
    }

    fn compact_disp_bits(i: &Inst) -> u32 {
        match *i {
            Inst::Branch { .. } => 7,
            _ => 11, // C.J
        }
    }

    fn encode(i: &Inst, size: u8, disp: i64, pool: &mut Pool, at: u32) -> Result<u32, EncodeError> {
        if size == 2 {
            return encode16(i, disp, at);
        }
        let mut w;
        match *i {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                w = word32(OP_ALU);
                put(&mut w, 7, 6, alu_funct(op));
                put(&mut w, 13, 2, dst2(dst));
                put(&mut w, 15, 6, src6(src1, at)?);
                put(&mut w, 21, 6, src6(src2, at)?);
            }
            Inst::AluImm { op, dst, src1, imm } => match imm_opcode(op) {
                Some(opc) => {
                    w = word32(opc);
                    put(&mut w, 7, 2, dst2(dst));
                    put(&mut w, 9, 6, src6(src1, at)?);
                    put_imm(&mut w, 15, 16, imm as i64, pool, at)?;
                }
                None => {
                    w = word32(OP_ALUIMM);
                    put(&mut w, 7, 6, alu_funct(op));
                    put(&mut w, 13, 2, dst2(dst));
                    put(&mut w, 15, 6, src6(src1, at)?);
                    put_imm(&mut w, 21, 9, imm as i64, pool, at)?;
                }
            },
            Inst::Li { dst, imm } => {
                w = word32(OP_LI);
                put(&mut w, 7, 2, dst2(dst));
                put_imm(&mut w, 9, 22, imm, pool, at)?;
            }
            Inst::Load {
                op,
                dst,
                base,
                offset,
            } => {
                w = word32(load_opcode(op));
                put(&mut w, 7, 2, dst2(dst));
                put(&mut w, 9, 6, src6(base, at)?);
                put_imm(&mut w, 15, 16, offset as i64, pool, at)?;
            }
            Inst::Store {
                op,
                value,
                base,
                offset,
            } => {
                w = word32(store_opcode(op));
                put(&mut w, 7, 6, src6(value, at)?);
                put(&mut w, 13, 6, src6(base, at)?);
                put_imm(&mut w, 19, 12, offset as i64, pool, at)?;
            }
            Inst::Branch {
                cond, src1, src2, ..
            } => {
                w = word32(branch_opcode(cond));
                put(&mut w, 7, 6, src6(src1, at)?);
                put(&mut w, 13, 6, src6(src2, at)?);
                put_imm(&mut w, 19, 12, disp, pool, at)?;
            }
            Inst::Jump { .. } => {
                w = word32(OP_JUMP);
                put_imm(&mut w, 7, 24, disp, pool, at)?;
            }
            Inst::Call { dst, .. } => {
                w = word32(OP_CALL);
                put(&mut w, 7, 2, dst2(dst));
                put_imm(&mut w, 9, 22, disp, pool, at)?;
            }
            Inst::JumpReg { src } => {
                w = word32(OP_JUMPREG);
                put(&mut w, 7, 6, src6(src, at)?);
            }
            Inst::CallReg { dst, src } => {
                w = word32(OP_CALLREG);
                put(&mut w, 7, 2, dst2(dst));
                put(&mut w, 9, 6, src6(src, at)?);
            }
            Inst::Mv { dst, src } => {
                w = word32(OP_MV);
                put(&mut w, 7, 2, dst2(dst));
                put(&mut w, 9, 6, src6(src, at)?);
            }
            Inst::Nop => {
                w = word32(OP_NOP);
            }
            Inst::Halt { src } => {
                w = word32(OP_HALT);
                put(&mut w, 7, 6, src6(src, at)?);
            }
        }
        Ok(w)
    }

    fn decode(
        word: u32,
        size: u8,
        at: usize,
        target: &mut dyn FnMut(i64) -> Result<u32, DecodeError>,
        pool: &[u64],
    ) -> Result<Inst, DecodeError> {
        if size == 2 {
            return decode16(word, at, target);
        }
        let op = opcode(word);
        Ok(match op {
            OP_ALU => {
                req_zero(word, 27, 5, at)?;
                Inst::Alu {
                    op: alu_from_funct(get(word, 7, 6), at, word)?,
                    dst: dst_from2(get(word, 13, 2)),
                    src1: src_from6(get(word, 15, 6)),
                    src2: src_from6(get(word, 21, 6)),
                }
            }
            OP_ALUIMM => Inst::AluImm {
                op: alu_from_funct(get(word, 7, 6), at, word)?,
                dst: dst_from2(get(word, 13, 2)),
                src1: src_from6(get(word, 15, 6)),
                imm: get_imm32(word, 21, 9, pool, at)?,
            },
            OP_ADDI | OP_ANDI | OP_ORI | OP_XORI => Inst::AluImm {
                op: imm_op(op).unwrap(),
                dst: dst_from2(get(word, 7, 2)),
                src1: src_from6(get(word, 9, 6)),
                imm: get_imm32(word, 15, 16, pool, at)?,
            },
            OP_LI => Inst::Li {
                dst: dst_from2(get(word, 7, 2)),
                imm: get_imm(word, 9, 22, pool, at)?,
            },
            OP_LB..=9 => Inst::Load {
                op: LoadOp::ALL[(op - OP_LB) as usize],
                dst: dst_from2(get(word, 7, 2)),
                base: src_from6(get(word, 9, 6)),
                offset: get_imm32(word, 15, 16, pool, at)?,
            },
            OP_SB..=13 => Inst::Store {
                op: StoreOp::ALL[(op - OP_SB) as usize],
                value: src_from6(get(word, 7, 6)),
                base: src_from6(get(word, 13, 6)),
                offset: get_imm32(word, 19, 12, pool, at)?,
            },
            OP_BEQ..=19 => Inst::Branch {
                cond: BrCond::ALL[(op - OP_BEQ) as usize],
                src1: src_from6(get(word, 7, 6)),
                src2: src_from6(get(word, 13, 6)),
                target: target(get_imm(word, 19, 12, pool, at)?)?,
            },
            OP_JUMP => Inst::Jump {
                target: target(get_imm(word, 7, 24, pool, at)?)?,
            },
            OP_CALL => Inst::Call {
                dst: dst_from2(get(word, 7, 2)),
                target: target(get_imm(word, 9, 22, pool, at)?)?,
            },
            OP_JUMPREG => {
                req_zero(word, 13, 19, at)?;
                Inst::JumpReg {
                    src: src_from6(get(word, 7, 6)),
                }
            }
            OP_CALLREG => {
                req_zero(word, 15, 17, at)?;
                Inst::CallReg {
                    dst: dst_from2(get(word, 7, 2)),
                    src: src_from6(get(word, 9, 6)),
                }
            }
            OP_MV => {
                req_zero(word, 15, 17, at)?;
                Inst::Mv {
                    dst: dst_from2(get(word, 7, 2)),
                    src: src_from6(get(word, 9, 6)),
                }
            }
            OP_NOP => {
                req_zero(word, 7, 25, at)?;
                Inst::Nop
            }
            OP_HALT => {
                req_zero(word, 13, 19, at)?;
                Inst::Halt {
                    src: src_from6(get(word, 7, 6)),
                }
            }
            _ => return Err(DecodeError::BadOpcode { at, word }),
        })
    }
}

fn encode16(i: &Inst, disp: i64, at: u32) -> Result<u32, EncodeError> {
    let mut w = 0u32;
    match *i {
        Inst::Alu {
            op,
            dst,
            src1,
            src2,
        } => {
            // Quadrant 00.
            put(&mut w, 2, 3, calu_funct(op).unwrap());
            put(&mut w, 5, 2, dst2(dst));
            put(&mut w, 7, 4, src4(src1).unwrap());
            put(&mut w, 11, 4, src4(src2).unwrap());
        }
        Inst::Mv { dst, src } => {
            w = 0b01;
            put(&mut w, 2, 3, C_MV);
            put(&mut w, 5, 2, dst2(dst));
            put(&mut w, 7, 6, src6(src, at)?);
        }
        Inst::Li { dst, imm } => {
            w = 0b01;
            put(&mut w, 2, 3, C_LI);
            put(&mut w, 5, 2, dst2(dst));
            put_signed(&mut w, 7, 9, imm);
        }
        Inst::AluImm { dst, src1, imm, .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_ADDI);
            put(&mut w, 5, 2, dst2(dst));
            put(&mut w, 7, 4, src4(src1).unwrap());
            put_signed(&mut w, 11, 5, imm as i64);
        }
        Inst::Load {
            dst, base, offset, ..
        } => {
            w = 0b01;
            put(&mut w, 2, 3, C_LD);
            put(&mut w, 5, 2, dst2(dst));
            put(&mut w, 7, 4, src4(base).unwrap());
            put(&mut w, 11, 5, offset as u32 / 8);
        }
        Inst::Store {
            value,
            base,
            offset,
            ..
        } => {
            w = 0b01;
            put(&mut w, 2, 3, C_SD);
            put(&mut w, 5, 4, src4(value).unwrap());
            put(&mut w, 9, 4, src4(base).unwrap());
            put(&mut w, 13, 3, offset as u32 / 8);
        }
        Inst::Branch { cond, src1, .. } => {
            w = 0b01;
            let c = if cond == ch_common::exec::BrCond::Eq {
                C_BEQZ
            } else {
                C_BNEZ
            };
            put(&mut w, 2, 3, c);
            put(&mut w, 5, 4, src4(src1).unwrap());
            put_signed(&mut w, 9, 7, disp);
        }
        Inst::Jump { .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_J);
            put_signed(&mut w, 5, 11, disp);
        }
        Inst::Nop => {
            w = 0b10;
            put(&mut w, 2, 3, C_NOP);
        }
        Inst::Halt { src } => {
            w = 0b10;
            put(&mut w, 2, 3, C_HALT);
            put(&mut w, 5, 6, src6(src, at)?);
        }
        Inst::JumpReg { src } => {
            w = 0b10;
            put(&mut w, 2, 3, C_JR);
            put(&mut w, 5, 6, src6(src, at)?);
        }
        _ => unreachable!("has_compact admitted a 32-bit-only instruction"),
    }
    Ok(w)
}

fn decode16(
    word: u32,
    at: usize,
    target: &mut dyn FnMut(i64) -> Result<u32, DecodeError>,
) -> Result<Inst, DecodeError> {
    match word & 0b11 {
        0b00 => {
            req_zero(word, 15, 1, at)?;
            Ok(Inst::Alu {
                op: CALU_FUNCT[get(word, 2, 3) as usize],
                dst: dst_from2(get(word, 5, 2)),
                src1: src_from4(get(word, 7, 4)),
                src2: src_from4(get(word, 11, 4)),
            })
        }
        0b01 => Ok(match get(word, 2, 3) {
            C_MV => {
                req_zero(word, 13, 3, at)?;
                Inst::Mv {
                    dst: dst_from2(get(word, 5, 2)),
                    src: src_from6(get(word, 7, 6)),
                }
            }
            C_LI => Inst::Li {
                dst: dst_from2(get(word, 5, 2)),
                imm: get_signed(word, 7, 9),
            },
            C_ADDI => Inst::AluImm {
                op: ch_common::exec::AluOp::Add,
                dst: dst_from2(get(word, 5, 2)),
                src1: src_from4(get(word, 7, 4)),
                imm: get_signed(word, 11, 5) as i32,
            },
            C_LD => Inst::Load {
                op: ch_common::exec::LoadOp::Ld,
                dst: dst_from2(get(word, 5, 2)),
                base: src_from4(get(word, 7, 4)),
                offset: (get(word, 11, 5) * 8) as i32,
            },
            C_SD => Inst::Store {
                op: ch_common::exec::StoreOp::Sd,
                value: src_from4(get(word, 5, 4)),
                base: src_from4(get(word, 9, 4)),
                offset: (get(word, 13, 3) * 8) as i32,
            },
            C_BEQZ | C_BNEZ => Inst::Branch {
                cond: if get(word, 2, 3) == C_BEQZ {
                    ch_common::exec::BrCond::Eq
                } else {
                    ch_common::exec::BrCond::Ne
                },
                src1: src_from4(get(word, 5, 4)),
                src2: Src::Zero,
                target: target(get_signed(word, 9, 7))?,
            },
            C_J => Inst::Jump {
                target: target(get_signed(word, 5, 11))?,
            },
            _ => unreachable!("3-bit compact opcode"),
        }),
        0b10 => match get(word, 2, 3) {
            C_NOP => {
                req_zero(word, 5, 11, at)?;
                Ok(Inst::Nop)
            }
            C_HALT => {
                req_zero(word, 11, 5, at)?;
                Ok(Inst::Halt {
                    src: src_from6(get(word, 5, 6)),
                })
            }
            C_JR => {
                req_zero(word, 11, 5, at)?;
                Ok(Inst::JumpReg {
                    src: src_from6(get(word, 5, 6)),
                })
            }
            _ => Err(DecodeError::BadOpcode { at, word }),
        },
        _ => unreachable!("0b11 is a 32-bit unit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
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
        assert_eq!(src6(Src::Zero, 0).unwrap(), 0b11_1111);
        assert_eq!(src_from6(0b11_1111), Src::Zero);
        // s[14] is the deepest reachable s encoding.
        assert_eq!(src_from6(0b11_1110), Src::Hand(Hand::S, 14),);
        assert!(matches!(
            src6(Src::Hand(Hand::S, 15), 7),
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
