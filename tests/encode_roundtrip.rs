//! Encoder/decoder round-trip properties over the fuzz corpus.
//!
//! The binary formats in `ch-encode` are only trustworthy if
//! `decode(encode(p)) == p` holds for every program the compiler can
//! emit — not just the five golden workloads. This suite drives the
//! `ch-fuzz` Kern generator through the compiler and both encoding
//! variants of all three ISAs, checks that every compiled program's
//! disassembly reassembles to the same program, and checks that the
//! decoders fail *structurally* (never panic) on truncated and garbage
//! byte streams.

use ch_common::isa::{Inst, Operands};
use ch_common::EncodingVariant;
use ch_compiler::{compile, encode_set};
use ch_encode::{decode_clockhands, decode_riscv, decode_straight, DecodeError, EncodedProgram};
use ch_workloads::{Scale, Workload};
use proptest::TestRng;

/// One fixed seed reproduces the whole corpus; mirrored after the
/// differential suites so a round-trip failure here can be cross-read
/// against a differential run of the same batch.
const SEED: u64 = 0x0939_c0de;

/// Corpus size. The acceptance bar is ≥500 distinct generated programs
/// per ISA×variant pair.
const CASES: u32 = 500;

/// Round-trips every program of a compiled set under `variant` and
/// asserts bit-for-bit instruction recovery.
fn roundtrip_set(set: &ch_compiler::CompiledSet, variant: EncodingVariant, ctx: &str) {
    let enc =
        encode_set(set, variant).unwrap_or_else(|e| panic!("{ctx}: {variant} encode failed: {e}"));
    let r = decode_riscv(&enc.riscv.bytes, &enc.riscv.pool)
        .unwrap_or_else(|e| panic!("{ctx}: {variant} riscv decode failed: {e}"));
    assert_eq!(r, set.riscv.insts, "{ctx}: {variant} riscv round-trip");
    let s = decode_straight(&enc.straight.bytes, &enc.straight.pool)
        .unwrap_or_else(|e| panic!("{ctx}: {variant} straight decode failed: {e}"));
    assert_eq!(
        s, set.straight.insts,
        "{ctx}: {variant} straight round-trip"
    );
    let c = decode_clockhands(&enc.clockhands.bytes, &enc.clockhands.pool)
        .unwrap_or_else(|e| panic!("{ctx}: {variant} clockhands decode failed: {e}"));
    assert_eq!(
        c, set.clockhands.insts,
        "{ctx}: {variant} clockhands round-trip"
    );
}

/// `assemble(disassemble(p)) == p` for every program of a compiled set:
/// the disassembly names unlabelled targets `@N`, and the assemblers
/// must read that back to the same instructions, labels and data.
fn asm_roundtrip_set(set: &ch_compiler::CompiledSet, ctx: &str) {
    use ch_baselines::{riscv, straight};
    let r = riscv::asm::assemble(&riscv::asm::disassemble(&set.riscv))
        .unwrap_or_else(|e| panic!("{ctx}: riscv disassembly rejected: {e}"));
    assert_eq!(r, set.riscv, "{ctx}: riscv assemble(disassemble(p))");
    let s = straight::asm::assemble(&straight::asm::disassemble(&set.straight))
        .unwrap_or_else(|e| panic!("{ctx}: straight disassembly rejected: {e}"));
    assert_eq!(s, set.straight, "{ctx}: straight assemble(disassemble(p))");
    let c = clockhands::asm::assemble(&clockhands::asm::disassemble(&set.clockhands))
        .unwrap_or_else(|e| panic!("{ctx}: clockhands disassembly rejected: {e}"));
    assert_eq!(
        c, set.clockhands,
        "{ctx}: clockhands assemble(disassemble(p))"
    );
}

#[test]
fn fuzz_corpus_round_trips_all_isa_variant_pairs() {
    // Static verification re-checks every compiled program; the corpus
    // only exercises the encoders, so skip it for throughput (the
    // differential suites keep it on).
    ch_workloads::set_verify(false);
    let mut rng = TestRng::from_seed(SEED);
    for i in 0..CASES {
        let program = ch_fuzz::gen_program(&mut rng);
        let src = ch_fuzz::render(&program);
        let ctx = format!("fuzz case {i}");
        let set = compile(&src).unwrap_or_else(|e| panic!("{ctx}: compile failed: {e}"));
        for variant in EncodingVariant::ALL {
            roundtrip_set(&set, variant, &ctx);
        }
        asm_roundtrip_set(&set, &ctx);
    }
}

#[test]
fn golden_workloads_round_trip() {
    for w in Workload::ALL {
        let set = w.compile(Scale::Test).expect("golden workload compiles");
        for variant in EncodingVariant::ALL {
            roundtrip_set(&set, variant, w.name());
        }
        asm_roundtrip_set(&set, w.name());
    }
}

/// One ISA's decoder: every decoder returns the shared instruction
/// shape over its ISA's operands.
type Decoder<O> = fn(&[u8], &[u64]) -> Result<Vec<Inst<O>>, DecodeError>;

/// Every proper prefix of `prog` decodes to a structured outcome,
/// never a panic.
fn check_truncations<O: Operands>(
    name: &str,
    variant: EncodingVariant,
    decode: Decoder<O>,
    prog: &EncodedProgram,
) {
    // Ok when the cut lands on an instruction boundary and no branch
    // escapes it, a Truncated/BadTarget error otherwise.
    for cut in 0..prog.bytes.len() {
        if let Err(e) = decode(&prog.bytes[..cut], &prog.pool) {
            assert!(
                matches!(
                    e,
                    DecodeError::Truncated { .. } | DecodeError::BadTarget { .. }
                ),
                "{name}/{variant}: cut at {cut} gave unexpected error {e}"
            );
        }
    }
    // A cut one byte short splits the final unit and must report
    // exactly where.
    let cut = prog.bytes.len() - 1;
    match decode(&prog.bytes[..cut], &prog.pool) {
        Err(DecodeError::Truncated { at }) => {
            assert!(at < cut, "{name}/{variant}: truncation offset past the cut")
        }
        Err(DecodeError::BadTarget { .. }) => {
            // Acceptable: the severed tail held a branch target.
        }
        other => panic!("{name}/{variant}: mid-unit cut decoded as {other:?}"),
    }
}

#[test]
fn truncated_streams_decode_to_structured_errors() {
    let set = compile(
        "fn main() -> int {
             var a: int = 7;
             for (var i: int = 0; i < 5; i += 1) { a = a * 3 + i; }
             return a & 0xffff;
         }",
    )
    .expect("compiles");
    for variant in EncodingVariant::ALL {
        let enc = encode_set(&set, variant).expect("encodes");
        check_truncations("riscv", variant, decode_riscv, &enc.riscv);
        check_truncations("straight", variant, decode_straight, &enc.straight);
        check_truncations("clockhands", variant, decode_clockhands, &enc.clockhands);
    }
}

/// Garbage never panics a decoder.
fn check_garbage<O: Operands>(name: &str, decode: Decoder<O>, rounds: &[Vec<u8>], pool: &[u64]) {
    for (round, bytes) in rounds.iter().enumerate() {
        // Any outcome is fine except a panic; an Ok must at least be
        // internally consistent (no unit is shorter than 2 bytes, so at
        // most len/2 instructions).
        if let Ok(insts) = decode(bytes, pool) {
            assert!(
                insts.len() <= bytes.len() / 2,
                "{name}: round {round} decoded more instructions than bytes allow"
            );
        }
    }
    // Degenerate streams: empty, all-zero, all-ones, missing pool.
    assert!(
        decode(&[], pool).unwrap().is_empty(),
        "{name}: empty stream"
    );
    let _ = decode(&[0u8; 32], pool);
    let _ = decode(&[0xffu8; 32], pool);
    let _ = decode(&[0u8; 32], &[]);
    assert!(
        decode(&[0x13], pool).is_err(),
        "{name}: lone byte must not decode"
    );
}

#[test]
fn garbage_streams_never_panic() {
    let pool: Vec<u64> = vec![0xdead_beef];
    let mut rng = TestRng::from_seed(SEED ^ 0xffff);
    let rounds: Vec<Vec<u8>> = (0..200)
        .map(|_| {
            let len = 2 + (rng.next_u64() as usize % 62);
            (0..len).map(|_| rng.next_u64() as u8).collect()
        })
        .collect();
    check_garbage("riscv", decode_riscv, &rounds, &pool);
    check_garbage("straight", decode_straight, &rounds, &pool);
    check_garbage("clockhands", decode_clockhands, &rounds, &pool);
}
