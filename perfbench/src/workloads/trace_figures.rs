//! `trace_figures`: the 15 committed traces consumed by the trace
//! studies, with no timing engine.
//!
//! Each op is one `Workload::trace_on`, then the analyses the figures
//! run on that trace (Fig. 3 `straight_increase`, Fig. 7 `hands_sweep`
//! and Fig. 4 lifetimes on RISC-V; Fig. 15 instruction mix and Fig. 17
//! lifetimes on every ISA; Fig. 16 hand usage and Fig. 18 per-hand
//! lifetimes on Clockhands), then the compressed `encode_set` and the
//! trace copy plus `relocate_trace` that `figures density` performs.
//! This reads the trace as `&[DynInst]` scans rather than SoA timing.

use super::{check_roundtrip, encoded_bytes};
use crate::harness::{Bench, Ctx, LIMIT, SCALE};
use crate::metrics::Metrics;
use crate::workloads::cold_sweep::{chains, expected_checksums};
use ch_common::{EncodingVariant, IsaKind};
use ch_compiler::CompiledSet;
use ch_workloads::Workload;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// The `trace_figures` workload.
pub struct TraceFigures {
    order: Vec<(Workload, IsaKind)>,
    expected: &'static HashMap<Workload, u64>,
    /// Each kernel compiled for all three ISAs (the input of the
    /// density layout).
    sets: HashMap<Workload, CompiledSet>,
    /// Digest of each op's analysis and relocation outputs in the first
    /// round; later rounds must reproduce it.
    first: HashMap<(Workload, IsaKind), u64>,
}

impl Bench for TraceFigures {
    fn prewarm(_seed: u64) -> Result<(), String> {
        expected_checksums();
        Ok(())
    }

    fn setup(seed: u64) -> Result<TraceFigures, String> {
        let mut sets = HashMap::new();
        for w in Workload::ALL {
            let set = ch_compiler::compile(&w.source(SCALE))
                .map_err(|e| format!("{}: compile failed: {e}", w.name()))?;
            sets.insert(w, set);
        }
        Ok(TraceFigures {
            order: chains(seed),
            expected: expected_checksums(),
            sets,
            first: HashMap::new(),
        })
    }

    fn round(&mut self, cx: &mut Ctx) {
        for &(w, isa) in &self.order {
            let set = &self.sets[&w];
            let expected = self.expected[&w];
            let digest = cx.op(|cx| figures_op(cx, w, isa, set, expected));
            if let Some(d) = digest {
                let want = *self.first.entry((w, isa)).or_insert(d);
                cx.check(want == d, || {
                    format!(
                        "{}/{isa}: analysis outputs changed between rounds",
                        w.name()
                    )
                });
            }
        }
    }

    fn finish(&mut self, cx: &mut Ctx, _out: &mut Metrics) {
        for w in Workload::ALL {
            let set = &self.sets[&w];
            for variant in EncodingVariant::ALL {
                match ch_compiler::encode_set(set, variant) {
                    Ok(enc) => check_roundtrip(cx, set, &enc, w.name()),
                    Err(e) => cx.fail(format!("{}/{variant}: encode failed: {e}", w.name())),
                }
            }
        }
    }
}

/// One op; returns a digest of everything it computed.
fn figures_op(
    cx: &mut Ctx,
    w: Workload,
    isa: IsaKind,
    set: &CompiledSet,
    expected: u64,
) -> Option<u64> {
    let (trace, outcome) = match cx.span("workloads.trace_on", || w.trace_on(SCALE, isa, LIMIT)) {
        Ok(t) => t,
        Err(e) => {
            cx.fail(e);
            return None;
        }
    };
    let ctx = format!("{}/{isa}", w.name());
    cx.check(outcome.exit_value == expected, || {
        format!("{ctx}: checksum")
    });
    let n = trace.len() as u64;
    cx.items("workloads.trace_on", n);
    cx.count("workloads.trace_on.insts", n);
    let mut h = DefaultHasher::new();

    if isa == IsaKind::Riscv {
        let inc = cx.span("analysis.straight_increase", || {
            ch_analysis::straight_increase(&trace)
        });
        cx.items("analysis.straight_increase", n);
        cx.check(inc.total_insts == n, || format!("{ctx}: Fig. 3 total"));
        (
            inc.mv_max_distance,
            inc.mv_loop_constant,
            inc.nop_convergence,
        )
            .hash(&mut h);
        let sweep = cx.span("analysis.hands_sweep", || ch_analysis::hands_sweep(&trace));
        cx.items("analysis.hands_sweep", n);
        (
            sweep.baseline,
            sweep.remaining_general,
            sweep.remaining_with_sp,
        )
            .hash(&mut h);
    }

    let (total, ccdfs) = cx.span("analysis.lifetimes", || {
        let d = ch_analysis::lifetimes_of(trace.iter());
        let mut ccdfs = vec![ch_analysis::lifetime_ccdf(&d, |_| true)];
        if isa == IsaKind::Clockhands {
            for hand in 0..4u8 {
                ccdfs.push(ch_analysis::lifetime_ccdf(&d, |t| t.hand() == Some(hand)));
            }
        }
        (d.total_insts, ccdfs)
    });
    cx.items("analysis.lifetimes", n);
    cx.check(total == n, || format!("{ctx}: lifetime total"));
    for (k, f) in ccdfs.iter().flatten() {
        (k, f.to_bits()).hash(&mut h);
    }

    let mix = cx.span("analysis.instruction_mix", || {
        ch_analysis::instruction_mix(trace.iter())
    });
    cx.items("analysis.instruction_mix", n);
    cx.check(
        mix.total == n && mix.counts.iter().sum::<u64>() == n,
        || format!("{ctx}: Fig. 15 mix does not cover the trace"),
    );
    mix.counts.hash(&mut h);

    if isa == IsaKind::Clockhands {
        let usage = cx.span("analysis.hand_usage", || {
            ch_analysis::hand_usage(trace.iter())
        });
        cx.items("analysis.hand_usage", n);
        cx.check(usage.total == n, || format!("{ctx}: Fig. 16 total"));
        (usage.writes, usage.reads, usage.no_dst_writes).hash(&mut h);
    }

    let enc = match cx.span("encode.encode_set", || {
        ch_compiler::encode_set(set, EncodingVariant::Compressed)
    }) {
        Ok(enc) => enc,
        Err(e) => {
            cx.fail(format!("{ctx}: encode failed: {e}"));
            return None;
        }
    };
    cx.count("encode.bytes", encoded_bytes(&enc));
    let layout = match isa {
        IsaKind::Riscv => &enc.riscv.layout,
        IsaKind::Straight => &enc.straight.layout,
        IsaKind::Clockhands => &enc.clockhands.layout,
    };
    let relocated = cx.span("encode.relocate", || {
        let mut t = trace.clone();
        ch_encode::relocate_trace(&mut t, layout);
        t
    });
    let bytes: u64 = relocated.iter().map(|d| u64::from(d.size)).sum();
    (relocated.last().map(|d| d.pc), bytes).hash(&mut h);
    Some(h.finish())
}
