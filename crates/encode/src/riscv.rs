//! The RISC-V-style baseline bit formats: 6-bit architectural register
//! specifiers (the model machine has 64 integer registers) in the
//! 32-bit form, and RVC-style 16-bit compact forms restricted to the
//! low 32 registers, with destructive two-address ALU ops (`rd == rs1`)
//! mirroring C.ADD/C.SUB.

use crate::bits::*;
use crate::stream::Codec;
use crate::{DecodeError, EncodeError};
use ch_baselines::riscv::{Reg, RvInst};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};

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

pub(crate) struct Rv;

impl Codec for Rv {
    type Inst = RvInst;

    fn target(i: &RvInst) -> Option<u32> {
        match *i {
            RvInst::Branch { target, .. }
            | RvInst::Jump { target }
            | RvInst::Call { target, .. } => Some(target),
            _ => None,
        }
    }

    fn has_compact(i: &RvInst) -> bool {
        match *i {
            RvInst::Alu { op, rd, rs1, rs2 } => {
                calu_funct(op).is_some() && rd == rs1 && reg5(rd).is_some() && reg5(rs2).is_some()
            }
            RvInst::AluImm {
                op: AluOp::Add,
                rd,
                rs1,
                imm,
            } => rd == rs1 && reg5(rd).is_some() && fits_signed(imm as i64, 6),
            RvInst::Li { rd, imm } => reg5(rd).is_some() && fits_signed(imm, 6),
            RvInst::Load {
                op: LoadOp::Ld,
                rd,
                base,
                offset,
            } => reg5(rd).is_some() && reg5(base).is_some() && (offset == 0 || offset == 8),
            RvInst::Store {
                op: StoreOp::Sd,
                rs,
                base,
                offset,
            } => reg5(rs).is_some() && reg5(base).is_some() && (offset == 0 || offset == 8),
            RvInst::Branch {
                cond: BrCond::Eq | BrCond::Ne,
                rs1,
                rs2,
                ..
            } => rs2 == Reg(0) && reg5(rs1).is_some(),
            RvInst::JumpReg { rs } => reg5(rs).is_some(),
            RvInst::Mv { rd, rs } => reg5(rd).is_some() && reg5(rs).is_some(),
            RvInst::Halt { rs } => reg5(rs).is_some(),
            RvInst::Jump { .. } | RvInst::Nop => true,
            _ => false,
        }
    }

    fn compact_disp_bits(i: &RvInst) -> u32 {
        match *i {
            RvInst::Branch { .. } => 6,
            _ => 11, // C.J
        }
    }

    fn encode(
        i: &RvInst,
        size: u8,
        disp: i64,
        pool: &mut Pool,
        at: u32,
    ) -> Result<u32, EncodeError> {
        if size == 2 {
            return encode16(i, disp);
        }
        let mut w;
        match *i {
            RvInst::Alu { op, rd, rs1, rs2 } => {
                w = word32(OP_ALU);
                put(&mut w, 7, 6, alu_funct(op));
                put(&mut w, 13, 6, reg6(rd, at)?);
                put(&mut w, 19, 6, reg6(rs1, at)?);
                put(&mut w, 25, 6, reg6(rs2, at)?);
            }
            RvInst::AluImm { op, rd, rs1, imm } => match imm_opcode(op) {
                Some(opc) => {
                    w = word32(opc);
                    put(&mut w, 7, 6, reg6(rd, at)?);
                    put(&mut w, 13, 6, reg6(rs1, at)?);
                    put_imm(&mut w, 19, 12, imm as i64, pool, at)?;
                }
                None => {
                    w = word32(OP_ALUIMM);
                    put(&mut w, 7, 6, alu_funct(op));
                    put(&mut w, 13, 6, reg6(rd, at)?);
                    put(&mut w, 19, 6, reg6(rs1, at)?);
                    put_imm(&mut w, 25, 6, imm as i64, pool, at)?;
                }
            },
            RvInst::Li { rd, imm } => {
                w = word32(OP_LI);
                put(&mut w, 7, 6, reg6(rd, at)?);
                put_imm(&mut w, 13, 18, imm, pool, at)?;
            }
            RvInst::Load {
                op,
                rd,
                base,
                offset,
            } => {
                w = word32(load_opcode(op));
                put(&mut w, 7, 6, reg6(rd, at)?);
                put(&mut w, 13, 6, reg6(base, at)?);
                put_imm(&mut w, 19, 12, offset as i64, pool, at)?;
            }
            RvInst::Store {
                op,
                rs,
                base,
                offset,
            } => {
                w = word32(store_opcode(op));
                put(&mut w, 7, 6, reg6(rs, at)?);
                put(&mut w, 13, 6, reg6(base, at)?);
                put_imm(&mut w, 19, 12, offset as i64, pool, at)?;
            }
            RvInst::Branch { cond, rs1, rs2, .. } => {
                w = word32(branch_opcode(cond));
                put(&mut w, 7, 6, reg6(rs1, at)?);
                put(&mut w, 13, 6, reg6(rs2, at)?);
                put_imm(&mut w, 19, 12, disp, pool, at)?;
            }
            RvInst::Jump { .. } => {
                w = word32(OP_JUMP);
                put_imm(&mut w, 7, 24, disp, pool, at)?;
            }
            RvInst::Call { rd, .. } => {
                w = word32(OP_CALL);
                put(&mut w, 7, 6, reg6(rd, at)?);
                put_imm(&mut w, 13, 18, disp, pool, at)?;
            }
            RvInst::JumpReg { rs } => {
                w = word32(OP_JUMPREG);
                put(&mut w, 7, 6, reg6(rs, at)?);
            }
            RvInst::CallReg { rd, rs } => {
                w = word32(OP_CALLREG);
                put(&mut w, 7, 6, reg6(rd, at)?);
                put(&mut w, 13, 6, reg6(rs, at)?);
            }
            RvInst::Mv { rd, rs } => {
                w = word32(OP_MV);
                put(&mut w, 7, 6, reg6(rd, at)?);
                put(&mut w, 13, 6, reg6(rs, at)?);
            }
            RvInst::Nop => {
                w = word32(OP_NOP);
            }
            RvInst::Halt { rs } => {
                w = word32(OP_HALT);
                put(&mut w, 7, 6, reg6(rs, at)?);
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
    ) -> Result<RvInst, DecodeError> {
        if size == 2 {
            return decode16(word, at, target);
        }
        let op = opcode(word);
        Ok(match op {
            OP_ALU => {
                req_zero(word, 31, 1, at)?;
                RvInst::Alu {
                    op: alu_from_funct(get(word, 7, 6), at, word)?,
                    rd: Reg(get(word, 13, 6) as u8),
                    rs1: Reg(get(word, 19, 6) as u8),
                    rs2: Reg(get(word, 25, 6) as u8),
                }
            }
            OP_ALUIMM => RvInst::AluImm {
                op: alu_from_funct(get(word, 7, 6), at, word)?,
                rd: Reg(get(word, 13, 6) as u8),
                rs1: Reg(get(word, 19, 6) as u8),
                imm: get_imm32(word, 25, 6, pool, at)?,
            },
            OP_ADDI | OP_ANDI | OP_ORI | OP_XORI => RvInst::AluImm {
                op: imm_op(op).unwrap(),
                rd: Reg(get(word, 7, 6) as u8),
                rs1: Reg(get(word, 13, 6) as u8),
                imm: get_imm32(word, 19, 12, pool, at)?,
            },
            OP_LI => RvInst::Li {
                rd: Reg(get(word, 7, 6) as u8),
                imm: get_imm(word, 13, 18, pool, at)?,
            },
            OP_LB..=9 => RvInst::Load {
                op: LoadOp::ALL[(op - OP_LB) as usize],
                rd: Reg(get(word, 7, 6) as u8),
                base: Reg(get(word, 13, 6) as u8),
                offset: get_imm32(word, 19, 12, pool, at)?,
            },
            OP_SB..=13 => RvInst::Store {
                op: StoreOp::ALL[(op - OP_SB) as usize],
                rs: Reg(get(word, 7, 6) as u8),
                base: Reg(get(word, 13, 6) as u8),
                offset: get_imm32(word, 19, 12, pool, at)?,
            },
            OP_BEQ..=19 => RvInst::Branch {
                cond: BrCond::ALL[(op - OP_BEQ) as usize],
                rs1: Reg(get(word, 7, 6) as u8),
                rs2: Reg(get(word, 13, 6) as u8),
                target: target(get_imm(word, 19, 12, pool, at)?)?,
            },
            OP_JUMP => RvInst::Jump {
                target: target(get_imm(word, 7, 24, pool, at)?)?,
            },
            OP_CALL => RvInst::Call {
                rd: Reg(get(word, 7, 6) as u8),
                target: target(get_imm(word, 13, 18, pool, at)?)?,
            },
            OP_JUMPREG => {
                req_zero(word, 13, 19, at)?;
                RvInst::JumpReg {
                    rs: Reg(get(word, 7, 6) as u8),
                }
            }
            OP_CALLREG => {
                req_zero(word, 19, 13, at)?;
                RvInst::CallReg {
                    rd: Reg(get(word, 7, 6) as u8),
                    rs: Reg(get(word, 13, 6) as u8),
                }
            }
            OP_MV => {
                req_zero(word, 19, 13, at)?;
                RvInst::Mv {
                    rd: Reg(get(word, 7, 6) as u8),
                    rs: Reg(get(word, 13, 6) as u8),
                }
            }
            OP_NOP => {
                req_zero(word, 7, 25, at)?;
                RvInst::Nop
            }
            OP_HALT => {
                req_zero(word, 13, 19, at)?;
                RvInst::Halt {
                    rs: Reg(get(word, 7, 6) as u8),
                }
            }
            _ => return Err(DecodeError::BadOpcode { at, word }),
        })
    }
}

fn encode16(i: &RvInst, disp: i64) -> Result<u32, EncodeError> {
    let mut w = 0u32;
    match *i {
        RvInst::Alu { op, rd, rs2, .. } => {
            // Quadrant 00: destructive two-address form, rd == rs1.
            put(&mut w, 2, 3, calu_funct(op).unwrap());
            put(&mut w, 5, 5, reg5(rd).unwrap());
            put(&mut w, 10, 5, reg5(rs2).unwrap());
        }
        RvInst::Mv { rd, rs } => {
            w = 0b01;
            put(&mut w, 2, 3, C_MV);
            put(&mut w, 5, 5, reg5(rd).unwrap());
            put(&mut w, 10, 5, reg5(rs).unwrap());
        }
        RvInst::Li { rd, imm } => {
            w = 0b01;
            put(&mut w, 2, 3, C_LI);
            put(&mut w, 5, 5, reg5(rd).unwrap());
            put_signed(&mut w, 10, 6, imm);
        }
        RvInst::AluImm { rd, imm, .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_ADDI);
            put(&mut w, 5, 5, reg5(rd).unwrap());
            put_signed(&mut w, 10, 6, imm as i64);
        }
        RvInst::Load {
            rd, base, offset, ..
        } => {
            w = 0b01;
            put(&mut w, 2, 3, C_LD);
            put(&mut w, 5, 5, reg5(rd).unwrap());
            put(&mut w, 10, 5, reg5(base).unwrap());
            put(&mut w, 15, 1, offset as u32 / 8);
        }
        RvInst::Store {
            rs, base, offset, ..
        } => {
            w = 0b01;
            put(&mut w, 2, 3, C_SD);
            put(&mut w, 5, 5, reg5(rs).unwrap());
            put(&mut w, 10, 5, reg5(base).unwrap());
            put(&mut w, 15, 1, offset as u32 / 8);
        }
        RvInst::Branch { cond, rs1, .. } => {
            w = 0b01;
            let c = if cond == BrCond::Eq { C_BEQZ } else { C_BNEZ };
            put(&mut w, 2, 3, c);
            put(&mut w, 5, 5, reg5(rs1).unwrap());
            put_signed(&mut w, 10, 6, disp);
        }
        RvInst::Jump { .. } => {
            w = 0b01;
            put(&mut w, 2, 3, C_J);
            put_signed(&mut w, 5, 11, disp);
        }
        RvInst::Nop => {
            w = 0b10;
            put(&mut w, 2, 3, C_NOP);
        }
        RvInst::Halt { rs } => {
            w = 0b10;
            put(&mut w, 2, 3, C_HALT);
            put(&mut w, 5, 5, reg5(rs).unwrap());
        }
        RvInst::JumpReg { rs } => {
            w = 0b10;
            put(&mut w, 2, 3, C_JR);
            put(&mut w, 5, 5, reg5(rs).unwrap());
        }
        _ => unreachable!("has_compact admitted a 32-bit-only instruction"),
    }
    Ok(w)
}

fn decode16(
    word: u32,
    at: usize,
    target: &mut dyn FnMut(i64) -> Result<u32, DecodeError>,
) -> Result<RvInst, DecodeError> {
    match word & 0b11 {
        0b00 => {
            req_zero(word, 15, 1, at)?;
            let rd = Reg(get(word, 5, 5) as u8);
            Ok(RvInst::Alu {
                op: CALU_FUNCT[get(word, 2, 3) as usize],
                rd,
                rs1: rd,
                rs2: Reg(get(word, 10, 5) as u8),
            })
        }
        0b01 => Ok(match get(word, 2, 3) {
            C_MV => {
                req_zero(word, 15, 1, at)?;
                RvInst::Mv {
                    rd: Reg(get(word, 5, 5) as u8),
                    rs: Reg(get(word, 10, 5) as u8),
                }
            }
            C_LI => RvInst::Li {
                rd: Reg(get(word, 5, 5) as u8),
                imm: get_signed(word, 10, 6),
            },
            C_ADDI => {
                let rd = Reg(get(word, 5, 5) as u8);
                RvInst::AluImm {
                    op: AluOp::Add,
                    rd,
                    rs1: rd,
                    imm: get_signed(word, 10, 6) as i32,
                }
            }
            C_LD => RvInst::Load {
                op: LoadOp::Ld,
                rd: Reg(get(word, 5, 5) as u8),
                base: Reg(get(word, 10, 5) as u8),
                offset: (get(word, 15, 1) * 8) as i32,
            },
            C_SD => RvInst::Store {
                op: StoreOp::Sd,
                rs: Reg(get(word, 5, 5) as u8),
                base: Reg(get(word, 10, 5) as u8),
                offset: (get(word, 15, 1) * 8) as i32,
            },
            C_BEQZ | C_BNEZ => RvInst::Branch {
                cond: if get(word, 2, 3) == C_BEQZ {
                    BrCond::Eq
                } else {
                    BrCond::Ne
                },
                rs1: Reg(get(word, 5, 5) as u8),
                rs2: Reg(0),
                target: target(get_signed(word, 10, 6))?,
            },
            C_J => RvInst::Jump {
                target: target(get_signed(word, 5, 11))?,
            },
            _ => unreachable!("3-bit compact opcode"),
        }),
        0b10 => match get(word, 2, 3) {
            C_NOP => {
                req_zero(word, 5, 11, at)?;
                Ok(RvInst::Nop)
            }
            C_HALT => {
                req_zero(word, 10, 6, at)?;
                Ok(RvInst::Halt {
                    rs: Reg(get(word, 5, 5) as u8),
                })
            }
            C_JR => {
                req_zero(word, 10, 6, at)?;
                Ok(RvInst::JumpReg {
                    rs: Reg(get(word, 5, 5) as u8),
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

    fn sample() -> Vec<RvInst> {
        vec![
            RvInst::Li {
                rd: Reg(10),
                imm: 3,
            },
            RvInst::Li {
                rd: Reg(42),
                imm: 0x7fff_0000_1234,
            },
            RvInst::Alu {
                op: AluOp::Add,
                rd: Reg(10),
                rs1: Reg(10),
                rs2: Reg(11),
            },
            RvInst::Alu {
                op: AluOp::Fdiv,
                rd: Reg(60),
                rs1: Reg(61),
                rs2: Reg(62),
            },
            RvInst::AluImm {
                op: AluOp::Add,
                rd: Reg(10),
                rs1: Reg(10),
                imm: 24,
            },
            RvInst::AluImm {
                op: AluOp::Slt,
                rd: Reg(33),
                rs1: Reg(40),
                imm: -900,
            },
            RvInst::Load {
                op: LoadOp::Ld,
                rd: Reg(5),
                base: Reg(2),
                offset: 8,
            },
            RvInst::Load {
                op: LoadOp::Lwu,
                rd: Reg(50),
                base: Reg(2),
                offset: 100_000,
            },
            RvInst::Store {
                op: StoreOp::Sd,
                rs: Reg(5),
                base: Reg(2),
                offset: 0,
            },
            RvInst::Store {
                op: StoreOp::Sb,
                rs: Reg(6),
                base: Reg(40),
                offset: -3,
            },
            RvInst::Branch {
                cond: BrCond::Eq,
                rs1: Reg(10),
                rs2: Reg(0),
                target: 2,
            },
            RvInst::Branch {
                cond: BrCond::Lt,
                rs1: Reg(10),
                rs2: Reg(45),
                target: 0,
            },
            RvInst::Call {
                rd: Reg(1),
                target: 14,
            },
            RvInst::CallReg {
                rd: Reg(1),
                rs: Reg(5),
            },
            RvInst::Jump { target: 15 },
            RvInst::Mv {
                rd: Reg(8),
                rs: Reg(9),
            },
            RvInst::Nop,
            RvInst::JumpReg { rs: Reg(1) },
            RvInst::Halt { rs: Reg(10) },
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
                rd: Reg(64),
                rs: Reg(0),
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
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        };
        assert!(!Rv::has_compact(&i));
    }
}
