//! `cold_sweep`: the Fig. 13/14 sweep at test scale, cold, in rounds.
//!
//! Each op is one (kernel, ISA) chain on the uncached path that
//! `ch_bench::simulate` takes on a cold process: `Workload::trace_on`
//! (compile, verify, interpret, checksum) → `SoaTrace::new` →
//! `BranchProfile::new` (W4 predictor geometry) → `run_fast_profiled` at
//! all five widths. A round runs all 15 chains in a seed-shuffled order
//! and, like a `figures` process, holds every trace and SoA trace until
//! it ends.
//!
//! The sweep has no set-up of its own beyond its job list: its first
//! op starts from the kernel sources, as a cold `figures` process does.
//! The Rust reference checksums the benchmark checks each trace against
//! are a test oracle, not pipeline work, so they are computed once,
//! untimed, before the set-ups.

use crate::harness::{Bench, Ctx, LIMIT, SCALE};
use crate::metrics::Metrics;
use crate::seed::{shuffle, stream_rng};
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::inst::DynInst;
use ch_common::IsaKind;
use ch_sim::{BranchProfile, Counters, SoaTrace};
use ch_workloads::Workload;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Configs checked against the reference engine after the timed phase.
const REFERENCE_SAMPLE: usize = 3;

type Chain = (Workload, IsaKind);

/// The `cold_sweep` workload.
pub struct ColdSweep {
    seed: u64,
    chains: Vec<Chain>,
    /// Rust reference checksum of each kernel.
    expected: &'static HashMap<Workload, u64>,
    /// Counters of the first round, which every later round must match.
    first: HashMap<(Workload, IsaKind, WidthClass), Counters>,
}

/// Every (kernel, ISA) chain in a seed-shuffled order.
pub fn chains(seed: u64) -> Vec<Chain> {
    let mut chains: Vec<Chain> = Workload::ALL
        .iter()
        .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa)))
        .collect();
    shuffle(&mut stream_rng(seed, 1), &mut chains);
    chains
}

/// Checksums every kernel must halt with, computed on first use.
pub fn expected_checksums() -> &'static HashMap<Workload, u64> {
    static EXPECTED: OnceLock<HashMap<Workload, u64>> = OnceLock::new();
    EXPECTED.get_or_init(|| {
        Workload::ALL
            .iter()
            .map(|&w| (w, w.reference(SCALE)))
            .collect()
    })
}

impl Bench for ColdSweep {
    fn prewarm(_seed: u64) -> Result<(), String> {
        expected_checksums();
        Ok(())
    }

    fn setup(seed: u64) -> Result<ColdSweep, String> {
        Ok(ColdSweep {
            seed,
            chains: chains(seed),
            expected: expected_checksums(),
            first: HashMap::new(),
        })
    }

    fn round(&mut self, cx: &mut Ctx) {
        let mut held: Vec<(Vec<DynInst>, SoaTrace)> = Vec::with_capacity(self.chains.len());
        for &(w, isa) in &self.chains {
            let expected = self.expected[&w];
            let first = &mut self.first;
            let kept = cx.op(|cx| {
                let (trace, outcome) =
                    match cx.span("workloads.trace_on", || w.trace_on(SCALE, isa, LIMIT)) {
                        Ok(t) => t,
                        Err(e) => {
                            cx.fail(e);
                            return None;
                        }
                    };
                cx.check(outcome.exit_value == expected, || {
                    format!("{}/{isa}: checksum {:#x}", w.name(), outcome.exit_value)
                });
                let n = trace.len() as u64;
                cx.items("workloads.trace_on", n);
                cx.count("workloads.trace_on.insts", n);
                let soa = cx.span("sim.soa_decode", || SoaTrace::new(trace.iter()));
                cx.items("sim.soa_decode", n);
                let geometry = MachineConfig::preset(WidthClass::W4, isa);
                let profile = cx.span("sim.branch_profile", || BranchProfile::new(&geometry, &soa));
                for width in WidthClass::ALL {
                    let cfg = MachineConfig::preset(width, isa);
                    let commit_width = cfg.commit_width;
                    let c = cx.span("sim.timing", || {
                        ch_sim::run_fast_profiled(cfg, &soa, &profile)
                    });
                    cx.items("sim.timing", c.committed);
                    cx.count("sim.timing.sim_insts", c.committed);
                    cx.count("sim.timing.cycles", c.cycles);
                    cx.check(c.slots_conserved(commit_width), || {
                        format!("{}/{isa}/{width}: commit slots not conserved", w.name())
                    });
                    let want = first.entry((w, isa, width)).or_insert_with(|| c.clone());
                    cx.check(*want == c, || {
                        format!(
                            "{}/{isa}/{width}: counters changed between rounds",
                            w.name()
                        )
                    });
                }
                Some((trace, soa))
            });
            held.extend(kept);
        }
        drop(held);
    }

    fn finish(&mut self, cx: &mut Ctx, out: &mut Metrics) {
        let mut rng = stream_rng(self.seed, 2);
        let (mut insts, mut fast_s, mut ref_s) = (0u64, 0.0, 0.0);
        for _ in 0..REFERENCE_SAMPLE {
            let (w, isa) = self.chains[rng.below(self.chains.len() as u64) as usize];
            let width = WidthClass::ALL[rng.below(WidthClass::ALL.len() as u64) as usize];
            let Ok((trace, _)) = w.trace_on(SCALE, isa, LIMIT) else {
                cx.fail(format!(
                    "{}/{isa}: trace failed in the reference sample",
                    w.name()
                ));
                continue;
            };
            let cfg = MachineConfig::preset(width, isa);
            let soa = SoaTrace::new(trace.iter());
            let profile = BranchProfile::new(&MachineConfig::preset(WidthClass::W4, isa), &soa);
            let t0 = Instant::now();
            let fast = ch_sim::run_fast_profiled(cfg.clone(), &soa, &profile);
            fast_s += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            let reference = ch_sim::run_reference(cfg, trace.iter());
            ref_s += t0.elapsed().as_secs_f64();
            insts += reference.committed;
            cx.check(fast == reference, || {
                format!(
                    "{}/{isa}/{width}: fast counters differ from reference",
                    w.name()
                )
            });
            cx.check(self.first.get(&(w, isa, width)) == Some(&reference), || {
                format!(
                    "{}/{isa}/{width}: timed-phase counters differ from reference",
                    w.name()
                )
            });
        }
        if ref_s > 0.0 {
            out.set("sim.reference.minst_per_s", insts as f64 / ref_s / 1e6);
            out.set("sim.fast_over_reference", ref_s / fast_s);
        }
    }
}
