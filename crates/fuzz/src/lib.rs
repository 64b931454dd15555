//! Cross-ISA differential fuzzing harness.
//!
//! The paper's central claim is semantic: one program, three ISAs
//! (RISC-V, STRAIGHT, Clockhands), one meaning. This crate checks that
//! claim mechanically, end to end:
//!
//! * [`gen`] — a random well-formed Kern program generator (nested
//!   loops, helper calls, array stores, boundary-heavy constants);
//! * [`asmgen`] — random straight-line assembly generators per ISA, for
//!   assembler/encoder round-trip properties;
//! * [`diff`] — the differential executor: compile through all three
//!   backends, run the three interpreters, compare exit checksums and
//!   global memory, and replay each committed trace through the timing
//!   simulator asserting the retired stream matches;
//! * [`oracle`] — invariant oracles for the register machinery
//!   (Clockhands RP wrap/saturation, STRAIGHT reach, RISC renamer
//!   free-list conservation and checkpoint recovery);
//! * [`planted`] — the planted-mutation mode: corrupt one distance
//!   operand in compiled output and measure `ch-verify`'s catch rate;
//! * [`mod@shrink`] — a structural minimizer that turns a failing program
//!   into a small regression test.
//!
//! Everything is seeded through the workspace's deterministic
//! [`proptest::TestRng`]; `PROPTEST_SEED` reproduces any batch.

#![deny(missing_docs)]

pub mod asmgen;
pub mod diff;
pub mod digest;
pub mod gen;
pub mod oracle;
pub mod planted;
pub mod shrink;

pub use diff::{run_differential, DiffOutcome, DiffResult, Skip};
pub use digest::Digest;
pub use gen::{gen_program, render, KernProgram};
pub use planted::{planted_batch, Model, PlantedStats};
pub use shrink::shrink;

use ch_common::asm::{self, Syntax};
use ch_common::error::HarnessError;
use ch_common::isa::{Inst, Program};
use proptest::TestRng;

/// Default per-ISA instruction budget for one differential case. Sized
/// so the generator's worst case (helper chains inside nested loops, a
/// few million dynamic instructions) completes; anything longer is an
/// explicit [`Skip`], never a verdict.
pub const DEFAULT_LIMIT: u64 = 4_000_000;

/// Aggregate statistics from a clean differential batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Cases generated.
    pub cases: u32,
    /// Cases judged and found in agreement on all three ISAs.
    pub passed: u32,
    /// Cases skipped (instruction budget exhausted on some ISA).
    pub skipped: u32,
    /// Total instructions committed across judged cases and ISAs.
    pub committed: u64,
    /// [`Digest`] of every compiled program of every case, on all three
    /// ISAs.
    pub digest: u64,
}

/// A divergence found by [`differential_batch`], already minimized.
#[derive(Debug)]
pub struct BatchFailure {
    /// Index of the failing case within the batch.
    pub case_index: u32,
    /// Seed that reproduces the whole batch.
    pub seed: u64,
    /// The original failing Kern source.
    pub source: String,
    /// The shrunk failing Kern source (still failing, usually tiny).
    pub minimized: String,
    /// The divergence observed on the original program.
    pub error: HarnessError,
}

/// Runs `cases` random Kern programs through the differential executor.
///
/// Deterministic in `seed`. On the first divergence the failing program
/// is minimized with [`shrink()`] (the predicate being "the differential
/// executor still rejects it") and returned as a [`BatchFailure`].
pub fn differential_batch(
    seed: u64,
    cases: u32,
    limit: u64,
) -> Result<BatchStats, Box<BatchFailure>> {
    let mut rng = TestRng::from_seed(seed);
    let mut stats = BatchStats {
        cases,
        ..Default::default()
    };
    let mut digest = Digest::default();
    for i in 0..cases {
        let program = gen::gen_program(&mut rng);
        let src = gen::render(&program);
        if let Ok(set) = ch_compiler::compile(&src) {
            digest_set(&mut digest, &set);
        }
        let ctx = format!("fuzz case {i}");
        match diff::run_differential(&ctx, &src, limit) {
            Ok(Ok(out)) => {
                stats.passed += 1;
                stats.committed += out.committed.iter().sum::<u64>();
            }
            Ok(Err(_skip)) => stats.skipped += 1,
            Err(error) => {
                let small = shrink::shrink(&program, 300, |cand| {
                    diff::run_differential(&ctx, &gen::render(cand), limit).is_err()
                });
                return Err(Box::new(BatchFailure {
                    case_index: i,
                    seed,
                    source: src,
                    minimized: gen::render(&small),
                    error,
                }));
            }
        }
    }
    stats.digest = digest.value();
    Ok(stats)
}

/// Feeds the three programs of a compiled set to `digest`, in
/// `IsaKind::ALL` order.
fn digest_set(digest: &mut Digest, set: &ch_compiler::CompiledSet) {
    digest_riscv(digest, &set.riscv);
    digest_straight(digest, &set.straight);
    digest_clockhands(digest, &set.clockhands);
}

fn digest_riscv(digest: &mut Digest, p: &ch_baselines::riscv::RvProgram) {
    digest.program(
        &ch_baselines::riscv::asm::disassemble(p),
        |v| ch_encode::encode_riscv(&p.insts, v),
        &ch_verify::verify_riscv(p, &ch_verify::Options::default()),
    );
}

fn digest_straight(digest: &mut Digest, p: &ch_baselines::straight::StProgram) {
    digest.program(
        &ch_baselines::straight::asm::disassemble(p),
        |v| ch_encode::encode_straight(&p.insts, v),
        &ch_verify::verify_straight(p, &ch_verify::Options::default()),
    );
}

fn digest_clockhands(digest: &mut Digest, p: &clockhands::program::Program) {
    digest.program(
        &clockhands::asm::disassemble(p),
        |v| ch_encode::encode_clockhands(&p.insts, v),
        &ch_verify::verify_clockhands(p, &ch_verify::Options::default()),
    );
}

/// Round-trip property over random straight-line programs: for all
/// three ISAs, `assemble(disassemble(p)) == p` where `p` itself came
/// from assembling generated text. Returns the [`Digest`] of every
/// assembled program.
pub fn asm_roundtrip_batch(seed: u64, cases: u32) -> Result<u64, String> {
    let mut rng = TestRng::from_seed(seed ^ 0x5bd1_e995);
    let mut digest = Digest::default();
    for i in 0..cases {
        let len = 4 + rng.below(28) as usize;
        let text = asmgen::gen_clockhands(&mut rng, len);
        digest_clockhands(&mut digest, &roundtrip("clockhands", i, &text)?);
        let text = asmgen::gen_straight(&mut rng, len);
        digest_straight(&mut digest, &roundtrip("straight", i, &text)?);
        let text = asmgen::gen_riscv(&mut rng, len);
        digest_riscv(&mut digest, &roundtrip("riscv", i, &text)?);
    }
    Ok(digest.value())
}

/// Assembles case `i`'s generated `text` for the ISA `O` and checks that
/// its disassembly assembles to the same program.
fn roundtrip<O: Syntax>(isa: &str, i: u32, text: &str) -> Result<Program<Inst<O>>, String> {
    let p = asm::assemble::<O>(text)
        .map_err(|e| format!("case {i} [{isa}]: generated text rejected: {e}\n{text}"))?;
    let p2 = asm::assemble::<O>(&asm::disassemble(&p))
        .map_err(|e| format!("case {i} [{isa}]: disassembly rejected: {e}"))?;
    if p2 != p {
        return Err(format!(
            "case {i} [{isa}]: assemble(disassemble(p)) != p\n{text}"
        ));
    }
    Ok(p)
}

/// Runs every register-machinery invariant oracle with `seed`-derived
/// randomness. `steps` scales the random walks.
pub fn oracle_batch(seed: u64, steps: u32) -> Result<(), String> {
    let mut rng = TestRng::from_seed(seed ^ 0x9e37_79b9);
    oracle::check_ring_file(&mut rng, steps).map_err(|e| format!("ring file: {e}"))?;
    oracle::check_ring_file_stall_rule(&mut rng, steps / 4 + 1)
        .map_err(|e| format!("ring-file stall rule: {e}"))?;
    oracle::check_renamer(&mut rng, steps).map_err(|e| format!("renamer: {e}"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_differential_batch() {
        let stats = differential_batch(0xC10C, 25, DEFAULT_LIMIT).unwrap_or_else(|f| {
            panic!(
                "case {}: {}\n--- minimized ---\n{}",
                f.case_index, f.error, f.minimized
            )
        });
        assert_eq!(stats.passed + stats.skipped, stats.cases);
        assert!(stats.passed > 0, "every case skipped — limit far too low");
    }

    #[test]
    fn smoke_asm_roundtrip_batch() {
        asm_roundtrip_batch(0xC10C, 50).unwrap();
    }

    #[test]
    fn smoke_oracle_batch() {
        oracle_batch(0xC10C, 1000).unwrap();
    }
}
