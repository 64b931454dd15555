//! Bit-field plumbing shared by the three codecs: field insertion and
//! extraction, signed-range checks, the 32-bit and 16-bit opcode maps,
//! funct tables, and the wide-immediate literal pool.
//!
//! All three ISAs share one 5-bit major-opcode space (Fig. 5 of the
//! paper: the ISAs share `opcode`/`funct` semantics and differ only in
//! operand specification), one dense `funct6` table over [`AluOp`], and
//! the same immediate-site convention: a 1-bit pool flag followed by an
//! `n`-bit field that holds either an `n`-bit signed inline value
//! (flag 0) or an unsigned index into the program's literal pool
//! (flag 1). Branch/jump displacement sites use the same convention, so
//! a displacement that outgrows its field spills to the pool instead of
//! failing to encode (ARM-style literal-pool addressing); only the
//! 16-bit compact forms, which have no pool flag, force relaxation.

use crate::{DecodeError, EncodeError};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
use std::collections::HashMap;

/// All-ones mask of `width` bits.
pub const fn mask(width: u32) -> u32 {
    if width >= 32 {
        u32::MAX
    } else {
        (1 << width) - 1
    }
}

/// Inserts `value` into `word` at bits `[lo, lo + width)`.
pub fn put(word: &mut u32, lo: u32, width: u32, value: u32) {
    debug_assert!(
        value <= mask(width),
        "field overflow: {value:#x} in {width} bits"
    );
    *word |= value << lo;
}

/// Extracts bits `[lo, lo + width)` of `word`.
pub fn get(word: u32, lo: u32, width: u32) -> u32 {
    (word >> lo) & mask(width)
}

/// Whether `v` fits a two's-complement `bits`-bit field.
pub fn fits_signed(v: i64, bits: u32) -> bool {
    if bits >= 64 {
        return true;
    }
    let half = 1i64 << (bits - 1);
    (-half..half).contains(&v)
}

/// Inserts a signed value the caller has range-checked.
pub fn put_signed(word: &mut u32, lo: u32, width: u32, v: i64) {
    debug_assert!(fits_signed(v, width));
    put(word, lo, width, v as u32 & mask(width));
}

/// Extracts a sign-extended field.
pub fn get_signed(word: u32, lo: u32, width: u32) -> i64 {
    let raw = get(word, lo, width);
    ((raw << (32 - width)) as i32 >> (32 - width)) as i64
}

// ---------------------------------------------------------------------------
// Major opcodes (5 bits, at [6:2] of every 32-bit word).

/// Low bits of a 32-bit word: the RVC length tag.
pub const W32: u32 = 0b11;

pub const OP_ALU: u32 = 0;
pub const OP_ALUIMM: u32 = 1;
pub const OP_LI: u32 = 2;
/// Loads occupy `OP_LB..=OP_LWU` in [`LoadOp::ALL`] order.
pub const OP_LB: u32 = 3;
pub const OP_LWU: u32 = 9;
/// Stores occupy `OP_SB..=OP_SD` in [`StoreOp::ALL`] order.
pub const OP_SB: u32 = 10;
pub const OP_SD: u32 = 13;
/// Branches occupy `OP_BEQ..=OP_BGEU` in [`BrCond::ALL`] order.
pub const OP_BEQ: u32 = 14;
pub const OP_BGEU: u32 = 19;
pub const OP_JUMP: u32 = 20;
pub const OP_CALL: u32 = 21;
pub const OP_JUMPREG: u32 = 22;
pub const OP_CALLREG: u32 = 23;
pub const OP_MV: u32 = 24;
pub const OP_NOP: u32 = 25;
pub const OP_HALT: u32 = 26;
/// STRAIGHT only: add-immediate to the special SP register.
pub const OP_SPADDI: u32 = 27;
/// Dedicated wide-immediate ALU opcodes `OP_ADDI..=OP_XORI` for the four
/// dominant register-immediate operations, [`IMM_OPS`] (RISC-V gives
/// `addi` its own major opcode for the same reason: the generic
/// funct-carrying form cannot afford a useful immediate field).
pub const OP_ADDI: u32 = 28;
pub const OP_XORI: u32 = 31;

// 16-bit compact opcodes: a quadrant (bits [1:0]) and a `funct3`
// (bits [4:2]), shared by the three ISAs.

/// Quadrant 00: the register-register ALU form, `funct3` indexing
/// [`CALU_FUNCT`].
pub const Q0: u32 = 0b00;
/// Quadrant 01, `funct3` `C_MV..=C_J`.
pub const Q1: u32 = 0b01;
pub const C_MV: u32 = 0;
pub const C_LI: u32 = 1;
pub const C_ADDI: u32 = 2;
pub const C_LD: u32 = 3;
pub const C_SD: u32 = 4;
pub const C_BEQZ: u32 = 5;
pub const C_BNEZ: u32 = 6;
pub const C_J: u32 = 7;
/// Quadrant 10, `funct3` `C_NOP..=C_SPADDI`.
pub const Q2: u32 = 0b10;
pub const C_NOP: u32 = 0;
pub const C_HALT: u32 = 1;
pub const C_JR: u32 = 2;
/// STRAIGHT only.
pub const C_SPADDI: u32 = 3;

// ---------------------------------------------------------------------------
// Funct tables.

/// The position of `x` in `table`: opcodes and functs are table indices.
fn index<T: PartialEq>(table: &[T], x: T) -> Option<u32> {
    table.iter().position(|t| *t == x).map(|p| p as u32)
}

/// The `funct6` code of an ALU operation: its index in [`AluOp::ALL`]
/// (declaration order).
pub fn alu_funct(op: AluOp) -> u32 {
    index(&AluOp::ALL, op).expect("ALL lists every op")
}

/// The ALU operation behind a `funct6` code.
pub fn alu_from_funct(f: u32, at: usize, word: u32) -> Result<AluOp, DecodeError> {
    AluOp::ALL
        .get(f as usize)
        .copied()
        .ok_or(DecodeError::BadOpcode { at, word })
}

/// The eight operations expressible by the compact `funct3` of the
/// 16-bit register-register ALU form, most-frequent first.
pub const CALU_FUNCT: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Mul,
];

/// The compact `funct3` of an ALU operation, if it has one.
pub fn calu_funct(op: AluOp) -> Option<u32> {
    index(&CALU_FUNCT, op)
}

/// The conditions of the compact branches on zero, `C_BEQZ..=C_BNEZ`.
pub const CBRANCH: [BrCond; 2] = [BrCond::Eq, BrCond::Ne];

/// The compact `funct3` of a branch on zero, if its condition has one.
pub fn cbranch_funct(cond: BrCond) -> Option<u32> {
    index(&CBRANCH, cond).map(|p| C_BEQZ + p)
}

/// `OP_LB + index` for a load operation (index in [`LoadOp::ALL`]).
pub fn load_opcode(op: LoadOp) -> u32 {
    OP_LB + index(&LoadOp::ALL, op).expect("ALL lists every op")
}

/// `OP_SB + index` for a store operation (index in [`StoreOp::ALL`]).
pub fn store_opcode(op: StoreOp) -> u32 {
    OP_SB + index(&StoreOp::ALL, op).expect("ALL lists every op")
}

/// `OP_BEQ + index` for a branch condition (index in [`BrCond::ALL`]).
pub fn branch_opcode(cond: BrCond) -> u32 {
    OP_BEQ + index(&BrCond::ALL, cond).expect("ALL lists every condition")
}

/// The register-immediate operations with a dedicated wide-immediate
/// opcode, `OP_ADDI..=OP_XORI` in order.
pub const IMM_OPS: [AluOp; 4] = [AluOp::Add, AluOp::And, AluOp::Or, AluOp::Xor];

/// The dedicated wide-immediate opcode of an operation, if it has one.
pub fn imm_opcode(op: AluOp) -> Option<u32> {
    index(&IMM_OPS, op).map(|p| OP_ADDI + p)
}

// ---------------------------------------------------------------------------
// Literal pool.

/// The deduplicated literal pool a program's wide immediates spill into.
///
/// Values are stored as raw 64-bit words (two's complement for signed
/// immediates and displacements); the byte cost — eight bytes per entry
/// — is charged to the program's static code size by the density
/// experiment, so spilling is honest, not free.
#[derive(Debug, Default)]
pub struct Pool {
    /// Pool entries in first-use order.
    pub values: Vec<u64>,
    index: HashMap<u64, u32>,
}

impl Pool {
    /// An empty pool.
    pub fn new() -> Pool {
        Pool::default()
    }

    /// Returns the index of `v`, interning it on first use. Fails if the
    /// index no longer fits the referencing site's `index_bits` field.
    pub fn intern(&mut self, v: u64, index_bits: u32, at: u32) -> Result<u32, EncodeError> {
        let next = self.values.len() as u32;
        let idx = *self.index.entry(v).or_insert_with(|| {
            self.values.push(v);
            next
        });
        if idx <= mask(index_bits) {
            Ok(idx)
        } else {
            Err(EncodeError::PoolFull { at })
        }
    }
}

/// Encodes an immediate site at `[lo]` (pool flag) + `[lo+1, lo+1+width)`:
/// inline when the value fits `width` signed bits, else a pool reference.
pub fn put_imm(
    word: &mut u32,
    lo: u32,
    width: u32,
    v: i64,
    pool: &mut Pool,
    at: u32,
) -> Result<(), EncodeError> {
    if fits_signed(v, width) {
        put_signed(word, lo + 1, width, v);
    } else {
        let idx = pool.intern(v as u64, width, at)?;
        put(word, lo, 1, 1);
        put(word, lo + 1, width, idx);
    }
    Ok(())
}

/// Decodes an immediate site written by [`put_imm`].
pub fn get_imm(
    word: u32,
    lo: u32,
    width: u32,
    pool: &[u64],
    at: usize,
) -> Result<i64, DecodeError> {
    if get(word, lo, 1) == 0 {
        Ok(get_signed(word, lo + 1, width))
    } else {
        let index = get(word, lo + 1, width);
        pool.get(index as usize)
            .map(|&v| v as i64)
            .ok_or(DecodeError::BadPool { at, index })
    }
}

/// A decoded immediate narrowed to an `i32` operand, rejecting pool
/// entries that cannot have been produced by an `i32` site.
pub fn imm32(v: i64, at: usize, word: u32) -> Result<i32, DecodeError> {
    i32::try_from(v).map_err(|_| DecodeError::BadImm { at, word })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_roundtrip() {
        let mut w = 0u32;
        put(&mut w, 7, 6, 0b10_1101);
        put(&mut w, 13, 2, 3);
        assert_eq!(get(w, 7, 6), 0b10_1101);
        assert_eq!(get(w, 13, 2), 3);
        assert_eq!(get(w, 0, 7), 0);
    }

    #[test]
    fn signed_fields_sign_extend() {
        let mut w = 0u32;
        put_signed(&mut w, 9, 13, -5);
        assert_eq!(get_signed(w, 9, 13), -5);
        assert!(fits_signed(-4096, 13));
        assert!(!fits_signed(4096, 13));
        assert!(fits_signed(4095, 13));
        assert!(fits_signed(i64::MIN, 64));
    }

    #[test]
    fn funct_tables_are_dense_and_injective() {
        for (i, &op) in AluOp::ALL.iter().enumerate() {
            assert_eq!(alu_funct(op), i as u32);
        }
        assert!(AluOp::ALL.len() <= 64, "funct6 budget");
        for &op in &CALU_FUNCT {
            assert_eq!(CALU_FUNCT[calu_funct(op).unwrap() as usize], op);
        }
        assert_eq!(
            BrCond::ALL.map(cbranch_funct)[..3],
            [Some(C_BEQZ), Some(C_BNEZ), None]
        );
        assert_eq!(load_opcode(LoadOp::Lwu), OP_LB + 6);
        assert_eq!(store_opcode(StoreOp::Sd), OP_SB + 3);
        assert_eq!(branch_opcode(BrCond::Geu), OP_BEQ + 5);
        assert_eq!(
            [load_opcode(LoadOp::Lwu), store_opcode(StoreOp::Sd)],
            [OP_LWU, OP_SD]
        );
        assert_eq!(branch_opcode(BrCond::Geu), OP_BGEU);
        assert!(branch_opcode(BrCond::Geu) < OP_JUMP);
    }

    #[test]
    fn pool_interns_and_bounds() {
        let mut p = Pool::new();
        assert_eq!(p.intern(42, 8, 0).unwrap(), 0);
        assert_eq!(p.intern(7, 8, 0).unwrap(), 1);
        assert_eq!(p.intern(42, 8, 0).unwrap(), 0, "deduplicated");
        assert_eq!(p.values, vec![42, 7]);
        let mut tiny = Pool::new();
        tiny.intern(1, 1, 0).unwrap();
        tiny.intern(2, 1, 0).unwrap();
        assert!(matches!(
            tiny.intern(3, 1, 5),
            Err(EncodeError::PoolFull { at: 5 })
        ));
    }

    #[test]
    fn imm_sites_spill_and_reload() {
        let mut pool = Pool::new();
        let mut w = 0u32;
        put_imm(&mut w, 9, 22, -77, &mut pool, 0).unwrap();
        assert_eq!(get_imm(w, 9, 22, &pool.values, 0).unwrap(), -77);
        assert!(pool.values.is_empty());

        let mut w2 = 0u32;
        let big = 1i64 << 40;
        put_imm(&mut w2, 9, 22, big, &mut pool, 0).unwrap();
        assert_eq!(get(w2, 9, 1), 1, "pool flag set");
        assert_eq!(get_imm(w2, 9, 22, &pool.values, 0).unwrap(), big);

        // A pool reference past the pool is a structured error.
        assert!(matches!(
            get_imm(w2, 9, 22, &[], 3),
            Err(DecodeError::BadPool { at: 3, index: 0 })
        ));
        assert!(matches!(
            imm32(get_imm(w2, 9, 22, &pool.values, 3).unwrap(), 3, w2),
            Err(DecodeError::BadImm { .. })
        ));
    }
}
