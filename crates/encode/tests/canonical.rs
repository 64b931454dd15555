//! Decoding is canonical: every unit that decodes re-encodes to the same
//! bytes, and its disassembly assembles back to the same instruction.
//!
//! Each ISA is driven over every 16-bit unit and a fixed-seed sample of
//! 32-bit words, each decoded as a one-unit stream with an empty
//! literal pool. A unit that decodes but re-encodes differently would
//! make two byte streams mean one program (a reserved bit nobody
//! checks, or a form that duplicates another), and one that does not
//! reassemble would disassemble to text no assembler accepts.
//!
//! A lone transfer whose displacement reaches the end of its one-unit
//! stream (a 16-bit `j` with displacement 1, say) does not decode: a
//! target must name an instruction (`target < len`), the rule the
//! assemblers apply too. Such units are skipped like any other that
//! does not decode.

use ch_common::EncodingVariant;

/// 32-bit words sampled per ISA.
const WORDS: usize = 1 << 20;

/// Every 16-bit unit, then `WORDS` fixed-seed 32-bit words (xorshift64),
/// as little-endian byte strings.
fn units() -> impl Iterator<Item = Vec<u8>> {
    let halves = (0..=u16::MAX)
        .filter(|h| h & 0b11 != 0b11)
        .map(|h| h.to_le_bytes().to_vec());
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let words = (0..WORDS).map(move |_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x as u32 | 0b11).to_le_bytes().to_vec()
    });
    halves.chain(words)
}

/// Checks every unit of [`units`] for one ISA and returns how many
/// decoded.
macro_rules! check_isa {
    ($decode:path, $encode:path, $program:expr, $assemble:path, $disassemble:path) => {{
        let mut decoded = 0;
        for bytes in units() {
            let Ok(insts) = $decode(&bytes, &[]) else {
                continue;
            };
            decoded += 1;
            let variant = if bytes.len() == 4 {
                EncodingVariant::Fixed
            } else {
                EncodingVariant::Compressed
            };
            let enc = $encode(&insts, variant)
                .unwrap_or_else(|e| panic!("{bytes:02x?} -> {insts:?}: re-encode failed: {e}"));
            assert_eq!(enc.bytes, bytes, "{insts:?} re-encodes differently");
            assert!(enc.pool.is_empty(), "{insts:?} spilled to the pool");
            let prog = $program(insts);
            let text = $disassemble(&prog);
            let back = $assemble(&text)
                .unwrap_or_else(|e| panic!("{bytes:02x?}: `{text}` does not assemble: {e}"));
            assert_eq!(back.insts, prog.insts, "{bytes:02x?}: `{text}`");
        }
        decoded
    }};
}

#[test]
fn clockhands_decoding_is_canonical() {
    use clockhands::{asm, program::Program};
    let decoded = check_isa!(
        ch_encode::decode_clockhands,
        ch_encode::encode_clockhands,
        |insts| Program {
            insts,
            ..Program::new()
        },
        asm::assemble,
        asm::disassemble
    );
    assert!(decoded > 100_000, "only {decoded} units decoded");
}

#[test]
fn straight_decoding_is_canonical() {
    use ch_baselines::straight::{asm, StProgram};
    let decoded = check_isa!(
        ch_encode::decode_straight,
        ch_encode::encode_straight,
        |insts| StProgram {
            insts,
            ..StProgram::new()
        },
        asm::assemble,
        asm::disassemble
    );
    assert!(decoded > 100_000, "only {decoded} units decoded");
}

#[test]
fn riscv_decoding_is_canonical() {
    use ch_baselines::riscv::{asm, RvProgram};
    let decoded = check_isa!(
        ch_encode::decode_riscv,
        ch_encode::encode_riscv,
        |insts| RvProgram {
            insts,
            ..RvProgram::new()
        },
        asm::assemble,
        asm::disassemble
    );
    assert!(decoded > 100_000, "only {decoded} units decoded");
}
