//! `kern_compile`: the compiler path on its own.
//!
//! Each op takes one seeded `ch_fuzz::gen_program` Kern program through
//! `ch_compiler::compile` → `ch_compiler::verify_set` → `encode_set`
//! under both encoding variants → a `decode_*` round trip of all three
//! ISAs under both variants. `Workload::trace_on` hides compile and
//! verify inside the interpreter layer; here they are most of the work.

use super::{check_roundtrip, encoded_bytes};
use crate::harness::{Bench, Ctx};
use crate::metrics::Metrics;
use crate::seed::fuzz_rng;
use ch_common::EncodingVariant;

/// Programs per round.
pub const PROGRAMS: usize = 1000;

/// The `kern_compile` workload.
pub struct KernCompile {
    sources: Vec<String>,
}

/// The Kern sources of one round, generated from the seed.
pub fn inputs(seed: u64) -> Vec<String> {
    let mut rng = fuzz_rng(seed);
    (0..PROGRAMS)
        .map(|_| ch_fuzz::render(&ch_fuzz::gen_program(&mut rng)))
        .collect()
}

impl Bench for KernCompile {
    fn setup(seed: u64) -> Result<KernCompile, String> {
        Ok(KernCompile {
            sources: inputs(seed),
        })
    }

    fn round(&mut self, cx: &mut Ctx) {
        for (i, src) in self.sources.iter().enumerate() {
            cx.op(|cx| compile_op(cx, i, src));
        }
    }

    fn finish(&mut self, _cx: &mut Ctx, _out: &mut Metrics) {}
}

fn compile_op(cx: &mut Ctx, i: usize, src: &str) {
    let what = format!("program {i}");
    let set = match cx.span("compiler.compile", || ch_compiler::compile(src)) {
        Ok(set) => set,
        Err(e) => return cx.fail(format!("{what}: compile failed: {e}")),
    };
    let static_insts =
        set.riscv.insts.len() + set.straight.insts.len() + set.clockhands.insts.len();
    cx.count("compiler.static_insts", static_insts as u64);
    let verified = cx.span("verify.verify_set", || ch_compiler::verify_set(&set));
    if let Err(e) = verified {
        cx.fail(format!("{what}: verifier: {e}"));
    }
    for variant in EncodingVariant::ALL {
        match cx.span("encode.encode_set", || {
            ch_compiler::encode_set(&set, variant)
        }) {
            Ok(enc) => {
                cx.count("encode.bytes", encoded_bytes(&enc));
                check_roundtrip(cx, &set, &enc, &what);
            }
            Err(e) => cx.fail(format!("{what}/{variant}: encode failed: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_seeds_give_different_programs() {
        // The fuzzer's generator ORs in the low seed bit; without the
        // splitmix64 step these two seeds would yield identical inputs.
        let a = inputs(0xC10C);
        let b = inputs(0xC10D);
        assert_eq!(a.len(), PROGRAMS);
        assert_ne!(a, b);
        assert_ne!(a[0], b[0]);
        assert_eq!(a, inputs(0xC10C), "inputs are a function of the seed");
    }
}
