//! Bit-field plumbing shared by the three codecs: field insertion and
//! extraction, signed-range checks, the opcode map, funct tables, and
//! the wide-immediate literal pool.
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

/// Requires bits `[lo, lo + width)` to be zero (reserved-field check,
/// so corrupted streams fail loudly instead of decoding silently).
pub fn req_zero(word: u32, lo: u32, width: u32, at: usize) -> Result<(), DecodeError> {
    if get(word, lo, width) == 0 {
        Ok(())
    } else {
        Err(DecodeError::Reserved { at, word })
    }
}

// ---------------------------------------------------------------------------
// Major opcodes (5 bits, at [6:2] of every 32-bit word).

pub const OP_ALU: u32 = 0;
pub const OP_ALUIMM: u32 = 1;
pub const OP_LI: u32 = 2;
/// Loads occupy `OP_LB..=OP_LB+6` in [`LoadOp::ALL`] order.
pub const OP_LB: u32 = 3;
/// Stores occupy `OP_SB..=OP_SB+3` in [`StoreOp::ALL`] order.
pub const OP_SB: u32 = 10;
/// Branches occupy `OP_BEQ..=OP_BEQ+5` in [`BrCond::ALL`] order.
pub const OP_BEQ: u32 = 14;
pub const OP_JUMP: u32 = 20;
pub const OP_CALL: u32 = 21;
pub const OP_JUMPREG: u32 = 22;
pub const OP_CALLREG: u32 = 23;
pub const OP_MV: u32 = 24;
pub const OP_NOP: u32 = 25;
pub const OP_HALT: u32 = 26;
/// STRAIGHT only: add-immediate to the special SP register.
pub const OP_SPADDI: u32 = 27;
/// Dedicated wide-immediate ALU opcodes for the four dominant
/// register-immediate operations (RISC-V gives `addi` its own major
/// opcode for the same reason: the generic funct-carrying form cannot
/// afford a useful immediate field).
pub const OP_ADDI: u32 = 28;
pub const OP_ANDI: u32 = 29;
pub const OP_ORI: u32 = 30;
pub const OP_XORI: u32 = 31;

/// Reads the major opcode of a 32-bit word.
pub fn opcode(word: u32) -> u32 {
    get(word, 2, 5)
}

/// Starts a 32-bit word: length tag `0b11` plus the major opcode.
pub fn word32(op: u32) -> u32 {
    let mut w = 0b11;
    put(&mut w, 2, 5, op);
    w
}

// ---------------------------------------------------------------------------
// Funct tables.

/// The `funct6` code of an ALU operation: its index in [`AluOp::ALL`]
/// (declaration order).
pub fn alu_funct(op: AluOp) -> u32 {
    AluOp::ALL.iter().position(|&o| o == op).unwrap() as u32
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
    CALU_FUNCT.iter().position(|&o| o == op).map(|p| p as u32)
}

/// `OP_LB + index` for a load operation (index in [`LoadOp::ALL`]).
pub fn load_opcode(op: LoadOp) -> u32 {
    OP_LB + LoadOp::ALL.iter().position(|&o| o == op).unwrap() as u32
}

/// `OP_SB + index` for a store operation (index in [`StoreOp::ALL`]).
pub fn store_opcode(op: StoreOp) -> u32 {
    OP_SB + StoreOp::ALL.iter().position(|&o| o == op).unwrap() as u32
}

/// `OP_BEQ + index` for a branch condition (index in [`BrCond::ALL`]).
pub fn branch_opcode(cond: BrCond) -> u32 {
    OP_BEQ + BrCond::ALL.iter().position(|&c| c == cond).unwrap() as u32
}

/// The dedicated wide-immediate opcode for an ALU-immediate operation,
/// if it has one (`addi`/`andi`/`ori`/`xori`).
pub fn imm_opcode(op: AluOp) -> Option<u32> {
    match op {
        AluOp::Add => Some(OP_ADDI),
        AluOp::And => Some(OP_ANDI),
        AluOp::Or => Some(OP_ORI),
        AluOp::Xor => Some(OP_XORI),
        _ => None,
    }
}

/// The ALU-immediate operation behind a dedicated opcode.
pub fn imm_op(opcode: u32) -> Option<AluOp> {
    match opcode {
        OP_ADDI => Some(AluOp::Add),
        OP_ANDI => Some(AluOp::And),
        OP_ORI => Some(AluOp::Or),
        OP_XORI => Some(AluOp::Xor),
        _ => None,
    }
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

/// [`get_imm`] narrowed to the `i32` immediate fields, rejecting pool
/// entries that cannot have been produced by an `i32` site.
pub fn get_imm32(
    word: u32,
    lo: u32,
    width: u32,
    pool: &[u64],
    at: usize,
) -> Result<i32, DecodeError> {
    let v = get_imm(word, lo, width, pool, at)?;
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
        assert_eq!(load_opcode(LoadOp::Lwu), OP_LB + 6);
        assert_eq!(store_opcode(StoreOp::Sd), OP_SB + 3);
        assert_eq!(branch_opcode(BrCond::Geu), OP_BEQ + 5);
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
            get_imm32(w2, 9, 22, &pool.values, 3),
            Err(DecodeError::BadImm { .. })
        ));
    }
}
