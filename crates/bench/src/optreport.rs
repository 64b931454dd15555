//! The `figures opt` experiment: what the shared backend optimizations
//! buy on the rotating-register ISAs, as a `BENCH_8.json` snapshot.
//!
//! Every workload is compiled twice for Clockhands and STRAIGHT — once
//! with the full [`OptConfig`] pipeline (liveness-driven hand
//! assignment, relay minimization, distance-aware scheduling) and once
//! with [`OptConfig::none`], the conservative pre-optimization backend.
//! Both variants are statically verified (`ch-verify`, errors fatal),
//! functionally executed (checksum-validated against the Rust
//! reference), and timed on the 8-wide Table 2 machine. The snapshot
//! records, per workload × ISA:
//!
//! * static code size and the relay-slack lints (dead relays,
//!   redundant edge fixes) of both variants;
//! * committed instructions, cycles, and IPC at W8 for both variants.
//!
//! The deltas are the paper's motivation made measurable: rename-free
//! ISAs pay for distance addressing in relay instructions, and the
//! optimization layer claws that overhead back without touching the
//! microarchitecture. The per-process caches in `lib.rs` are keyed by
//! workload alone, so this module compiles and simulates directly —
//! both variants must be measured fresh, never through a cache that
//! only knows the process-wide configuration.

use crate::par_map;
use crate::snapshot::write_ungated;
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::IsaKind;
use ch_compiler::backend::opt::OptConfig;
use ch_compiler::IsaProgram;
use ch_sim::{run_fast_profiled, BranchProfile, SoaTrace};
use ch_workloads::{Scale, Workload};
use std::fmt::Write as _;

/// The PR this snapshot format belongs to (names the JSON file).
pub const PR: u32 = 8;

/// Per-ISA instruction budget for the functional run.
const LIMIT: u64 = 2_000_000_000;

/// One compiled-and-measured variant of one workload on one ISA.
struct Row {
    /// Static instructions in the emitted program.
    insts: usize,
    /// `W-DEAD-RELAY` lints: relay `mv`s provably never read.
    dead_relays: usize,
    /// `W-REDUNDANT-FIX` lints: edge-fill writes provably never read.
    redundant_fixes: usize,
    /// Instructions committed by the functional run.
    committed: u64,
    /// Cycles on the 8-wide machine.
    cycles: u64,
}

impl Row {
    fn ipc(&self) -> f64 {
        self.committed as f64 / self.cycles as f64
    }
}

/// Compiles, verifies, executes, and times one (workload, ISA, config)
/// combination. Panics on any compile, verify, or checksum failure —
/// the snapshot must never publish numbers for a wrong program.
fn measure(w: Workload, scale: Scale, isa: IsaKind, opt: &OptConfig) -> Row {
    let ctx = || format!("{}/{}/{opt:?}", w.name(), isa.tag());

    let m = ch_compiler::build_ir(&w.source(scale))
        .unwrap_or_else(|e| panic!("{}: frontend failed: {e}", ctx()));
    let prog = match isa {
        IsaKind::Clockhands => {
            ch_compiler::backend::clockhands::compile_with(&m, opt).map(IsaProgram::Clockhands)
        }
        IsaKind::Straight => {
            ch_compiler::backend::straight::compile_with(&m, opt).map(IsaProgram::Straight)
        }
        IsaKind::Riscv => unreachable!("opt experiment covers the rotating-register ISAs"),
    }
    .unwrap_or_else(|e| panic!("{}: backend failed: {e}", ctx()));
    let report = prog.verify();
    let run = prog
        .execute(LIMIT, true)
        .unwrap_or_else(|e| panic!("{}: {} failed: {e}", ctx(), e.stage()));
    let (trace, exit_value, committed) = (run.trace, run.result.exit_value, run.result.committed);
    assert!(
        report.is_clean(),
        "{}: verifier errors:\n{}",
        ctx(),
        report.render()
    );
    let expect = w.reference(scale);
    assert!(
        exit_value == expect,
        "{}: checksum {exit_value:#x} != reference {expect:#x}",
        ctx()
    );
    let insts: usize = report.functions.iter().map(|f| f.insts).sum();
    let cfg = MachineConfig::preset(WidthClass::W8, isa);
    let soa = SoaTrace::new(trace.iter());
    let profile = BranchProfile::new(&cfg, &soa);
    let counters = run_fast_profiled(cfg, &soa, &profile);
    Row {
        insts,
        dead_relays: report.dead_relays(),
        redundant_fixes: report.redundant_fixes(),
        committed,
        cycles: counters.cycles,
    }
}

/// The ISAs the optimization layer applies to, in render order.
const ISAS: [IsaKind; 2] = [IsaKind::Clockhands, IsaKind::Straight];

/// Every workload × ISA measured with and without the optimization
/// layer.
struct Rows {
    combos: Vec<(Workload, IsaKind, bool)>,
    /// One row per combo, in `combos` order.
    rows: Vec<Row>,
}

impl Rows {
    fn measure(scale: Scale) -> Rows {
        let combos: Vec<(Workload, IsaKind, bool)> = Workload::ALL
            .iter()
            .flat_map(|&w| {
                ISAS.into_iter()
                    .flat_map(move |isa| [(w, isa, true), (w, isa, false)])
            })
            .collect();
        let rows = par_map(&combos, |&(w, isa, on)| {
            let opt = if on {
                OptConfig::full()
            } else {
                OptConfig::none()
            };
            measure(w, scale, isa, &opt)
        });
        Rows { combos, rows }
    }

    fn row(&self, w: Workload, isa: IsaKind, on: bool) -> &Row {
        let at = self.combos.iter().position(|&c| c == (w, isa, on)).unwrap();
        &self.rows[at]
    }

    /// Renders the `BENCH_8.json` snapshot.
    fn json(&self, scale: Scale) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{{");
        let _ = writeln!(s, "  \"pr\": {PR},");
        let _ = writeln!(s, "  \"scale\": \"{}\",", scale.name());
        let _ = writeln!(s, "  \"width\": \"8f\",");
        for (ii, &isa) in ISAS.iter().enumerate() {
            let total = |on: bool, f: &dyn Fn(&Row) -> usize| -> usize {
                Workload::ALL.iter().map(|&w| f(self.row(w, isa, on))).sum()
            };
            let _ = writeln!(s, "  \"{}\": {{", isa.name());
            let _ = writeln!(s, "    \"insts\": {},", total(true, &|r| r.insts));
            let _ = writeln!(s, "    \"insts_noopt\": {},", total(false, &|r| r.insts));
            let _ = writeln!(
                s,
                "    \"dead_relays\": {},",
                total(true, &|r| r.dead_relays)
            );
            let _ = writeln!(
                s,
                "    \"redundant_fixes\": {},",
                total(true, &|r| r.redundant_fixes)
            );
            let _ = writeln!(s, "    \"workloads\": [");
            for (wi, &w) in Workload::ALL.iter().enumerate() {
                let (o, n) = (self.row(w, isa, true), self.row(w, isa, false));
                let _ = writeln!(
                    s,
                    "      {{\"name\": \"{}\", \"insts\": {}, \"insts_noopt\": {}, \
                     \"dead_relays\": {}, \"redundant_fixes\": {}, \
                     \"cycles\": {}, \"cycles_noopt\": {}, \
                     \"ipc\": {:.4}, \"ipc_noopt\": {:.4}}}{}",
                    w.name(),
                    o.insts,
                    n.insts,
                    o.dead_relays,
                    o.redundant_fixes,
                    o.cycles,
                    n.cycles,
                    o.ipc(),
                    n.ipc(),
                    if wi + 1 < Workload::ALL.len() {
                        ","
                    } else {
                        ""
                    }
                );
            }
            let _ = writeln!(s, "    ]");
            let _ = writeln!(s, "  }}{}", if ii + 1 < ISAS.len() { "," } else { "" });
        }
        let _ = writeln!(s, "}}");
        s
    }

    /// Renders the per-workload delta table.
    fn table(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{:<12} {:<4} {:>6} {:>8} {:>7} {:>9} {:>10} {:>7}",
            "workload", "ISA", "insts", "(no-opt)", "Δinsts", "cycles", "(no-opt)", "Δcyc%"
        );
        for isa in ISAS {
            let tag = match isa {
                IsaKind::Clockhands => "CH",
                _ => "ST",
            };
            for w in Workload::ALL {
                let (o, n) = (self.row(w, isa, true), self.row(w, isa, false));
                let _ = writeln!(
                    s,
                    "{:<12} {:<4} {:>6} {:>8} {:>7} {:>9} {:>10} {:>6.1}%",
                    w.name(),
                    tag,
                    o.insts,
                    n.insts,
                    o.insts as i64 - n.insts as i64,
                    o.cycles,
                    n.cycles,
                    (o.cycles as f64 - n.cycles as f64) / n.cycles as f64 * 100.0
                );
            }
        }
        s
    }
}

/// The `figures opt` experiment: measure, snapshot, summarise.
///
/// Writes `BENCH_<pr>.json` into the working directory (the repo root
/// under `just opt-report`) under the shared snapshot policy
/// ([`crate::snapshot`]) and renders a human-readable delta table.
pub fn opt_experiment(scale: Scale) -> String {
    let rows = Rows::measure(scale);
    let path = format!("BENCH_{PR}.json");
    let mut s = String::new();
    let _ = writeln!(s, "Optimization-layer snapshot ({path})");
    let _ = writeln!(s, "{}", write_ungated(&path, scale, &rows.json(scale)));
    let _ = write!(s, "{}", rows.table());
    s
}
