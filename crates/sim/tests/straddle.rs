//! Regression tests for byte-accurate fetch: an instruction that
//! straddles an I$ line boundary must be charged against *both* lines,
//! the next-line instruction prefetch (`Cache::prefill`) must cover the
//! second line the straddle touches, and the fast engine must stay
//! byte-identical to the reference simulator once instruction sizes
//! stop being uniformly four bytes.

use ch_common::config::{MachineConfig, WidthClass};
use ch_common::inst::{CtrlKind, DynInst};
use ch_common::op::OpClass;
use ch_common::IsaKind;
use ch_sim::{run_fast, Simulator, SoaTrace};

const BASE: u64 = 0x1_0000; // 64-byte aligned, matches TEXT_BASE

fn cfg() -> MachineConfig {
    MachineConfig::preset(WidthClass::W4, IsaKind::Clockhands)
}

/// A 4-byte instruction whose pc sits two bytes before a line boundary
/// occupies the last two bytes of one line and the first two of the
/// next: both lines are accessed, and the straddle is counted.
#[test]
fn straddling_instruction_counts_both_lines() {
    let line = cfg().l1i.line as u64;
    let pc = BASE + line - 2;
    let c = Simulator::new(cfg()).run(std::iter::once(
        DynInst::new(0, pc, OpClass::IntAlu).with_size(4),
    ));
    assert_eq!(c.icache_straddles, 1);
    // The group-start access misses on the first line; the same
    // group-start prefill that hides sequential-stream misses covers the
    // second line, so the straddle's extra access is a hit — prefill and
    // straddle accounting agree on line granularity.
    assert_eq!(c.icache_misses, 1);
    assert_eq!(c.fetch_bytes, 4);

    // Control: the same instruction fully inside one line.
    let c = Simulator::new(cfg()).run(std::iter::once(
        DynInst::new(0, BASE + line - 4, OpClass::IntAlu).with_size(4),
    ));
    assert_eq!(c.icache_straddles, 0);
    assert_eq!(c.icache_misses, 1);
}

/// `Cache::prefill` and the straddle check agree on what "the second
/// line" is: prefilling the line containing the straddler's last byte
/// turns the extra access into a hit.
#[test]
fn prefill_covers_the_straddled_line() {
    let mut cache = ch_sim::cache::Cache::new(&cfg().l1i);
    let line = cfg().l1i.line as u64;
    let pc = BASE + line - 2; // 4-byte unit: last byte in the next line
    assert_eq!(cache.line_of(pc + 3), cache.line_of(pc + line), "same line");
    assert_ne!(cache.line_of(pc), cache.line_of(pc + 3), "straddles");
    cache.prefill(pc + 3);
    assert!(cache.access(pc + 3), "prefilled straddle line must hit");
    assert!(!cache.access(pc), "first line untouched by that prefill");
}

/// The abstract fixed-width layout (aligned 4-byte instructions) can
/// never straddle, and consumes exactly four fetch bytes per commit.
#[test]
fn fixed_width_streams_never_straddle() {
    let n = 4096u64;
    let trace: Vec<DynInst> = (0..n)
        .map(|seq| DynInst::new(seq, BASE + 4 * seq, OpClass::IntAlu))
        .collect();
    let c = Simulator::new(cfg()).run(trace);
    assert_eq!(c.icache_straddles, 0);
    assert_eq!(c.fetch_bytes, 4 * n);
}

/// A compressed-layout loop with mixed 2/4-byte instructions, a call
/// and a return: the fast engine's counters must be identical to the
/// reference simulator's, and the return-address stack must predict the
/// byte-accurate fallthrough (`pc + size`, not `pc + 4`).
#[test]
fn fast_engine_matches_reference_on_compact_sizes() {
    // Static layout (byte-accurate, 2- and 4-byte units):
    //   B+0   call  (2 bytes) -> B+8        fallthrough B+2
    //   B+2   alu   (4 bytes)
    //   B+6   halt  (2 bytes)
    //   B+8   alu   (2 bytes)               callee
    //   B+10  cond  (4 bytes) -> B+8        loop back
    //   B+14  ret   (2 bytes) -> B+2
    let mut trace: Vec<DynInst> = Vec::new();
    let mut seq = 0u64;
    let mut push = |t: &mut Vec<DynInst>, d: DynInst| {
        t.push(d);
        seq += 1;
    };
    push(
        &mut trace,
        DynInst::new(0, BASE, OpClass::CallRet)
            .with_size(2)
            .with_ctrl(CtrlKind::Call, true, BASE + 8),
    );
    for k in 0..400u64 {
        let s = trace.len() as u64;
        push(
            &mut trace,
            DynInst::new(s, BASE + 8, OpClass::IntAlu).with_size(2),
        );
        let s = trace.len() as u64;
        push(
            &mut trace,
            DynInst::new(s, BASE + 10, OpClass::CondBr)
                .with_size(4)
                .with_ctrl(CtrlKind::Cond, k != 399, BASE + 8),
        );
    }
    let s = trace.len() as u64;
    push(
        &mut trace,
        DynInst::new(s, BASE + 14, OpClass::CallRet)
            .with_size(2)
            .with_ctrl(CtrlKind::Ret, true, BASE + 2),
    );
    let s = trace.len() as u64;
    push(
        &mut trace,
        DynInst::new(s, BASE + 2, OpClass::IntAlu).with_size(4),
    );
    let s = trace.len() as u64;
    push(
        &mut trace,
        DynInst::new(s, BASE + 6, OpClass::Other).with_size(2),
    );

    let soa = SoaTrace::new(&trace);
    let fast = run_fast(cfg(), &soa);
    let bytes = trace_bytes(&trace);
    let reference = Simulator::new(cfg()).run(trace);
    assert_eq!(fast, reference, "fast engine diverged from reference");
    assert_eq!(
        reference.fetch_bytes, bytes,
        "fetch bytes are the sum of committed sizes"
    );
}

/// The return-address stack pushes the byte-accurate fallthrough of a
/// compact call (`pc + size`); a hardwired `pc + 4` would make the
/// matching return a misprediction.
#[test]
fn ras_predicts_byte_accurate_fallthrough() {
    let trace = vec![
        DynInst::new(0, BASE, OpClass::CallRet)
            .with_size(2)
            .with_ctrl(CtrlKind::Call, true, BASE + 8),
        DynInst::new(1, BASE + 8, OpClass::IntAlu).with_size(2),
        DynInst::new(2, BASE + 10, OpClass::CallRet)
            .with_size(2)
            .with_ctrl(CtrlKind::Ret, true, BASE + 2),
        DynInst::new(3, BASE + 2, OpClass::Other).with_size(4),
    ];
    let c = Simulator::new(cfg()).run(trace);
    assert_eq!(c.branch_mispredicts, 0);
}

fn trace_bytes(trace: &[DynInst]) -> u64 {
    trace.iter().map(|d| d.size as u64).sum()
}
