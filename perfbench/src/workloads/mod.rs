//! The four workloads, each stressing a different part of the pipeline
//! (`NOTES.md` records why each exists).

pub mod cold_sweep;
pub mod kern_compile;
pub mod serve_mix;
pub mod trace_figures;

use crate::harness::Ctx;
use ch_compiler::{CompiledSet, EncodedSet};

/// Static bytes (text plus literal pool) of all three encoded programs.
fn encoded_bytes(enc: &EncodedSet) -> u64 {
    enc.riscv.static_bytes() + enc.straight.static_bytes() + enc.clockhands.static_bytes()
}

/// Decodes all three programs of `enc`, each inside an `encode.decode`
/// span, and checks `decode(encode(p)) == p`.
fn check_roundtrip(cx: &mut Ctx, set: &CompiledSet, enc: &EncodedSet, what: &str) {
    let variant = enc.variant;
    let rv = cx.span("encode.decode", || {
        ch_encode::decode_riscv(&enc.riscv.bytes, &enc.riscv.pool)
    });
    cx.check(rv.is_ok_and(|p| p == set.riscv.insts), || {
        format!("{what}/riscv/{variant}: decode(encode(p)) != p")
    });
    let st = cx.span("encode.decode", || {
        ch_encode::decode_straight(&enc.straight.bytes, &enc.straight.pool)
    });
    cx.check(st.is_ok_and(|p| p == set.straight.insts), || {
        format!("{what}/straight/{variant}: decode(encode(p)) != p")
    });
    let ch = cx.span("encode.decode", || {
        ch_encode::decode_clockhands(&enc.clockhands.bytes, &enc.clockhands.pool)
    });
    cx.check(ch.is_ok_and(|p| p == set.clockhands.insts), || {
        format!("{what}/clockhands/{variant}: decode(encode(p)) != p")
    });
}
