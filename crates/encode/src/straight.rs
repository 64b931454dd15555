//! The STRAIGHT bit formats: 8-bit distance specifiers (distances up
//! to 127, plus dedicated zero and stack-pointer encodings) in the
//! 32-bit form, and 5-bit specifiers (distances up to 30) in the
//! 16-bit compact forms. The wide source fields are the ISA's cost of
//! rename-freedom without hands — the density experiment quantifies
//! what Clockhands' 6-bit specifiers buy back.

use crate::bits::*;
use crate::stream::Codec;
use crate::{DecodeError, EncodeError};
use ch_baselines::straight::{StInst, StSrc};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};

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
const C_SPADDI: u32 = 3;

pub(crate) struct St;

impl Codec for St {
    type Inst = StInst;

    fn target(i: &StInst) -> Option<u32> {
        match *i {
            StInst::Branch { target, .. } | StInst::Jump { target } | StInst::Call { target } => {
                Some(target)
            }
            _ => None,
        }
    }

    fn has_compact(i: &StInst) -> bool {
        match *i {
            StInst::Alu { op, src1, src2 } => {
                calu_funct(op).is_some() && src5(src1).is_some() && src5(src2).is_some()
            }
            StInst::AluImm {
                op: AluOp::Add,
                src1,
                imm,
            } => src5(src1).is_some() && fits_signed(imm as i64, 6),
            StInst::Li { imm } => fits_signed(imm, 11),
            StInst::Load {
                op: LoadOp::Ld,
                base,
                offset,
            } => src5(base).is_some() && (0..=504).contains(&offset) && offset % 8 == 0,
            StInst::Store {
                value,
                base,
                offset,
                op: StoreOp::Sd,
            } => src5(value).is_some() && src5(base).is_some() && offset == 0,
            StInst::Branch {
                cond: BrCond::Eq | BrCond::Ne,
                src1,
                src2: StSrc::Zero,
                ..
            } => src5(src1).is_some(),
            StInst::SpAddi { imm } => fits_signed(imm as i64, 9),
            StInst::Jump { .. }
            | StInst::JumpReg { .. }
            | StInst::Mv { .. }
            | StInst::Nop
            | StInst::Halt { .. } => true,
            _ => false,
        }
    }

    fn compact_disp_bits(i: &StInst) -> u32 {
        match *i {
            StInst::Branch { .. } => 6,
            _ => 11, // C.J
        }
    }

    fn encode(
        i: &StInst,
        size: u8,
        disp: i64,
        pool: &mut Pool,
        at: u32,
    ) -> Result<u32, EncodeError> {
        if size == 2 {
            return encode16(i, disp, at);
        }
        let mut w;
        match *i {
            StInst::Alu { op, src1, src2 } => {
                w = word32(OP_ALU);
                put(&mut w, 7, 6, alu_funct(op));
                put(&mut w, 13, 8, src8(src1, at)?);
                put(&mut w, 21, 8, src8(src2, at)?);
            }
            StInst::AluImm { op, src1, imm } => match imm_opcode(op) {
                Some(opc) => {
                    w = word32(opc);
                    put(&mut w, 7, 8, src8(src1, at)?);
                    put_imm(&mut w, 15, 16, imm as i64, pool, at)?;
                }
                None => {
                    w = word32(OP_ALUIMM);
                    put(&mut w, 7, 6, alu_funct(op));
                    put(&mut w, 13, 8, src8(src1, at)?);
                    put_imm(&mut w, 21, 10, imm as i64, pool, at)?;
                }
            },
            StInst::Li { imm } => {
                w = word32(OP_LI);
                put_imm(&mut w, 7, 24, imm, pool, at)?;
            }
            StInst::Load { op, base, offset } => {
                w = word32(load_opcode(op));
                put(&mut w, 7, 8, src8(base, at)?);
                put_imm(&mut w, 15, 16, offset as i64, pool, at)?;
            }
            StInst::Store {
                value,
                base,
                offset,
                op,
            } => {
                w = word32(store_opcode(op));
                put(&mut w, 7, 8, src8(value, at)?);
                put(&mut w, 15, 8, src8(base, at)?);
                put_imm(&mut w, 23, 8, offset as i64, pool, at)?;
            }
            StInst::Branch {
                cond, src1, src2, ..
            } => {
                w = word32(branch_opcode(cond));
                put(&mut w, 7, 8, src8(src1, at)?);
                put(&mut w, 15, 8, src8(src2, at)?);
                put_imm(&mut w, 23, 8, disp, pool, at)?;
            }
            StInst::Jump { .. } => {
                w = word32(OP_JUMP);
                put_imm(&mut w, 7, 24, disp, pool, at)?;
            }
            StInst::Call { .. } => {
                w = word32(OP_CALL);
                put_imm(&mut w, 7, 24, disp, pool, at)?;
            }
            StInst::JumpReg { src } => {
                w = word32(OP_JUMPREG);
                put(&mut w, 7, 8, src8(src, at)?);
            }
            StInst::SpAddi { imm } => {
                w = word32(OP_SPADDI);
                put_imm(&mut w, 7, 24, imm as i64, pool, at)?;
            }
            StInst::Mv { src } => {
                w = word32(OP_MV);
                put(&mut w, 7, 8, src8(src, at)?);
            }
            StInst::Nop => {
                w = word32(OP_NOP);
            }
            StInst::Halt { src } => {
                w = word32(OP_HALT);
                put(&mut w, 7, 8, src8(src, at)?);
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
    ) -> Result<StInst, DecodeError> {
        if size == 2 {
            return decode16(word, at, target);
        }
        let op = opcode(word);
        Ok(match op {
            OP_ALU => {
                req_zero(word, 29, 3, at)?;
                StInst::Alu {
                    op: alu_from_funct(get(word, 7, 6), at, word)?,
                    src1: src_from8(get(word, 13, 8), at, word)?,
                    src2: src_from8(get(word, 21, 8), at, word)?,
                }
            }
            OP_ALUIMM => StInst::AluImm {
                op: alu_from_funct(get(word, 7, 6), at, word)?,
                src1: src_from8(get(word, 13, 8), at, word)?,
                imm: get_imm32(word, 21, 10, pool, at)?,
            },
            OP_ADDI | OP_ANDI | OP_ORI | OP_XORI => StInst::AluImm {
                op: imm_op(op).unwrap(),
                src1: src_from8(get(word, 7, 8), at, word)?,
                imm: get_imm32(word, 15, 16, pool, at)?,
            },
            OP_LI => StInst::Li {
                imm: get_imm(word, 7, 24, pool, at)?,
            },
            OP_LB..=9 => StInst::Load {
                op: LoadOp::ALL[(op - OP_LB) as usize],
                base: src_from8(get(word, 7, 8), at, word)?,
                offset: get_imm32(word, 15, 16, pool, at)?,
            },
            OP_SB..=13 => StInst::Store {
                value: src_from8(get(word, 7, 8), at, word)?,
                base: src_from8(get(word, 15, 8), at, word)?,
                offset: get_imm32(word, 23, 8, pool, at)?,
                op: StoreOp::ALL[(op - OP_SB) as usize],
            },
            OP_BEQ..=19 => StInst::Branch {
                cond: BrCond::ALL[(op - OP_BEQ) as usize],
                src1: src_from8(get(word, 7, 8), at, word)?,
                src2: src_from8(get(word, 15, 8), at, word)?,
                target: target(get_imm(word, 23, 8, pool, at)?)?,
            },
            OP_JUMP => StInst::Jump {
                target: target(get_imm(word, 7, 24, pool, at)?)?,
            },
            OP_CALL => StInst::Call {
                target: target(get_imm(word, 7, 24, pool, at)?)?,
            },
            OP_JUMPREG => {
                req_zero(word, 15, 17, at)?;
                StInst::JumpReg {
                    src: src_from8(get(word, 7, 8), at, word)?,
                }
            }
            OP_SPADDI => StInst::SpAddi {
                imm: get_imm32(word, 7, 24, pool, at)?,
            },
            OP_MV => {
                req_zero(word, 15, 17, at)?;
                StInst::Mv {
                    src: src_from8(get(word, 7, 8), at, word)?,
                }
            }
            OP_NOP => {
                req_zero(word, 7, 25, at)?;
                StInst::Nop
            }
            OP_HALT => {
                req_zero(word, 15, 17, at)?;
                StInst::Halt {
                    src: src_from8(get(word, 7, 8), at, word)?,
                }
            }
            _ => return Err(DecodeError::BadOpcode { at, word }),
        })
    }
}

fn encode16(i: &StInst, disp: i64, at: u32) -> Result<u32, EncodeError> {
    let mut w = 0u32;
    match *i {
        StInst::Alu { op, src1, src2 } => {
            // Quadrant 00.
            put(&mut w, 2, 3, calu_funct(op).unwrap());
            put(&mut w, 5, 5, src5(src1).unwrap());
            put(&mut w, 10, 5, src5(src2).unwrap());
        }
        StInst::Mv { src } => {
            w = 0b01;
            put(&mut w, 2, 3, C_MV);
            put(&mut w, 5, 8, src8(src, at)?);
        }
        StInst::Li { imm } => {
            w = 0b01;
            put(&mut w, 2, 3, C_LI);
            put_signed(&mut w, 5, 11, imm);
        }
        StInst::AluImm { src1, imm, .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_ADDI);
            put(&mut w, 5, 5, src5(src1).unwrap());
            put_signed(&mut w, 10, 6, imm as i64);
        }
        StInst::Load { base, offset, .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_LD);
            put(&mut w, 5, 5, src5(base).unwrap());
            put(&mut w, 10, 6, offset as u32 / 8);
        }
        StInst::Store { value, base, .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_SD);
            put(&mut w, 5, 5, src5(value).unwrap());
            put(&mut w, 10, 5, src5(base).unwrap());
        }
        StInst::Branch { cond, src1, .. } => {
            w = 0b01;
            let c = if cond == BrCond::Eq { C_BEQZ } else { C_BNEZ };
            put(&mut w, 2, 3, c);
            put(&mut w, 5, 5, src5(src1).unwrap());
            put_signed(&mut w, 10, 6, disp);
        }
        StInst::Jump { .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_J);
            put_signed(&mut w, 5, 11, disp);
        }
        StInst::Nop => {
            w = 0b10;
            put(&mut w, 2, 3, C_NOP);
        }
        StInst::Halt { src } => {
            w = 0b10;
            put(&mut w, 2, 3, C_HALT);
            put(&mut w, 5, 8, src8(src, at)?);
        }
        StInst::JumpReg { src } => {
            w = 0b10;
            put(&mut w, 2, 3, C_JR);
            put(&mut w, 5, 8, src8(src, at)?);
        }
        StInst::SpAddi { imm } => {
            w = 0b10;
            put(&mut w, 2, 3, C_SPADDI);
            put_signed(&mut w, 5, 9, imm as i64);
        }
        _ => unreachable!("has_compact admitted a 32-bit-only instruction"),
    }
    Ok(w)
}

fn decode16(
    word: u32,
    at: usize,
    target: &mut dyn FnMut(i64) -> Result<u32, DecodeError>,
) -> Result<StInst, DecodeError> {
    match word & 0b11 {
        0b00 => {
            req_zero(word, 15, 1, at)?;
            Ok(StInst::Alu {
                op: CALU_FUNCT[get(word, 2, 3) as usize],
                src1: src_from5(get(word, 5, 5)),
                src2: src_from5(get(word, 10, 5)),
            })
        }
        0b01 => Ok(match get(word, 2, 3) {
            C_MV => {
                req_zero(word, 13, 3, at)?;
                StInst::Mv {
                    src: src_from8(get(word, 5, 8), at, word)?,
                }
            }
            C_LI => StInst::Li {
                imm: get_signed(word, 5, 11),
            },
            C_ADDI => StInst::AluImm {
                op: AluOp::Add,
                src1: src_from5(get(word, 5, 5)),
                imm: get_signed(word, 10, 6) as i32,
            },
            C_LD => StInst::Load {
                op: LoadOp::Ld,
                base: src_from5(get(word, 5, 5)),
                offset: (get(word, 10, 6) * 8) as i32,
            },
            C_SD => {
                req_zero(word, 15, 1, at)?;
                StInst::Store {
                    value: src_from5(get(word, 5, 5)),
                    base: src_from5(get(word, 10, 5)),
                    offset: 0,
                    op: StoreOp::Sd,
                }
            }
            C_BEQZ | C_BNEZ => StInst::Branch {
                cond: if get(word, 2, 3) == C_BEQZ {
                    BrCond::Eq
                } else {
                    BrCond::Ne
                },
                src1: src_from5(get(word, 5, 5)),
                src2: StSrc::Zero,
                target: target(get_signed(word, 10, 6))?,
            },
            C_J => StInst::Jump {
                target: target(get_signed(word, 5, 11))?,
            },
            _ => unreachable!("3-bit compact opcode"),
        }),
        0b10 => match get(word, 2, 3) {
            C_NOP => {
                req_zero(word, 5, 11, at)?;
                Ok(StInst::Nop)
            }
            C_HALT => {
                req_zero(word, 13, 3, at)?;
                Ok(StInst::Halt {
                    src: src_from8(get(word, 5, 8), at, word)?,
                })
            }
            C_JR => {
                req_zero(word, 13, 3, at)?;
                Ok(StInst::JumpReg {
                    src: src_from8(get(word, 5, 8), at, word)?,
                })
            }
            C_SPADDI => {
                req_zero(word, 14, 2, at)?;
                Ok(StInst::SpAddi {
                    imm: get_signed(word, 5, 9) as i32,
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
    use ch_common::EncodingVariant;

    fn sample() -> Vec<StInst> {
        vec![
            StInst::Li { imm: 42 },
            StInst::Li {
                imm: -0x7654_3210_fedc,
            },
            StInst::Alu {
                op: AluOp::Add,
                src1: StSrc::Dist(1),
                src2: StSrc::Dist(2),
            },
            StInst::Alu {
                op: AluOp::Mulw,
                src1: StSrc::Dist(90),
                src2: StSrc::Sp,
            },
            StInst::AluImm {
                op: AluOp::Add,
                src1: StSrc::Dist(1),
                imm: -7,
            },
            StInst::AluImm {
                op: AluOp::Sra,
                src1: StSrc::Dist(120),
                imm: 100_000,
            },
            StInst::Load {
                op: LoadOp::Ld,
                base: StSrc::Sp,
                offset: 32,
            },
            StInst::Load {
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
            StInst::SpAddi { imm: -16 },
            StInst::SpAddi { imm: 100_000 },
            StInst::Call { target: 16 },
            StInst::Jump { target: 16 },
            StInst::Mv {
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
        let mut w = word32(OP_MV);
        put(&mut w, 7, 8, 200);
        let err = crate::decode_straight(&w.to_le_bytes(), &[]).unwrap_err();
        assert!(matches!(err, DecodeError::BadSrc { at: 0, .. }), "{err:?}");
    }
}
