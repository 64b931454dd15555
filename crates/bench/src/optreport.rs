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

use crate::{jobs, par_map};
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::IsaKind;
use ch_compiler::backend::opt::OptConfig;
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
    let vopts = ch_verify::Options::default();
    let (report, trace, exit_value, committed) = match isa {
        IsaKind::Clockhands => {
            let p = ch_compiler::backend::clockhands::compile_with(&m, opt)
                .unwrap_or_else(|e| panic!("{}: backend failed: {e}", ctx()));
            let report = ch_verify::verify_clockhands(&p, &vopts);
            let mut cpu = clockhands::interp::Interpreter::new(p)
                .unwrap_or_else(|e| panic!("{}: bad program: {e}", ctx()));
            let (t, r) = cpu
                .trace(LIMIT)
                .unwrap_or_else(|e| panic!("{}: execution failed: {e}", ctx()));
            (report, t, r.exit_value, r.committed)
        }
        IsaKind::Straight => {
            let p = ch_compiler::backend::straight::compile_with(&m, opt)
                .unwrap_or_else(|e| panic!("{}: backend failed: {e}", ctx()));
            let report = ch_verify::verify_straight(&p, &vopts);
            let mut cpu = ch_baselines::straight::interp::Interpreter::new(p)
                .unwrap_or_else(|e| panic!("{}: bad program: {e}", ctx()));
            let (t, r) = cpu
                .trace(LIMIT)
                .unwrap_or_else(|e| panic!("{}: execution failed: {e}", ctx()));
            (report, t, r.exit_value, r.committed)
        }
        IsaKind::Riscv => unreachable!("opt experiment covers the rotating-register ISAs"),
    };
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

/// Measures every workload × ISA with and without the optimization
/// layer and renders the `BENCH_8.json` snapshot.
pub fn opt_json(scale: Scale) -> String {
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
    let row = |w: Workload, isa: IsaKind, on: bool| -> &Row {
        let at = combos
            .iter()
            .position(|&(cw, ci, con)| cw == w && ci == isa && con == on)
            .unwrap();
        &rows[at]
    };

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"pr\": {PR},");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(s, "  \"jobs\": {},", jobs());
    let _ = writeln!(s, "  \"width\": \"8f\",");
    for (ii, &isa) in ISAS.iter().enumerate() {
        let total = |on: bool, f: &dyn Fn(&Row) -> usize| -> usize {
            Workload::ALL.iter().map(|&w| f(row(w, isa, on))).sum()
        };
        let name = match isa {
            IsaKind::Clockhands => "clockhands",
            _ => "straight",
        };
        let _ = writeln!(s, "  \"{name}\": {{");
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
            let (o, n) = (row(w, isa, true), row(w, isa, false));
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

/// The `figures opt` experiment: measure, snapshot, summarise.
///
/// Writes `BENCH_<pr>.json` into the working directory (the repo root
/// under `just opt-report`) and renders a human-readable delta table.
/// A committed snapshot at a different scale is left untouched unless
/// `CH_BENCH_SKIP_CHECK=1` forces a re-baseline.
pub fn opt_experiment(scale: Scale) -> String {
    let json = opt_json(scale);
    let path = format!("BENCH_{PR}.json");
    let mut s = String::new();
    let _ = writeln!(s, "Optimization-layer snapshot ({path})");
    let baseline = std::fs::read_to_string(&path).ok();
    let rebaseline = std::env::var_os("CH_BENCH_SKIP_CHECK").is_some();
    let same_scale = baseline
        .as_deref()
        .is_none_or(|b| b.contains(&format!("\"scale\": \"{}\"", scale.name())));
    if same_scale || rebaseline {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        let _ = writeln!(s, "snapshot written");
    } else {
        let _ = writeln!(
            s,
            "committed snapshot is a different scale: not overwritten \
             (CH_BENCH_SKIP_CHECK=1 to re-baseline)"
        );
    }
    let _ = write!(s, "{}", render_table(&json));
    s
}

/// Renders the per-workload delta table from a snapshot's JSON text.
fn render_table(json: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<12} {:<4} {:>6} {:>8} {:>7} {:>9} {:>10} {:>7}",
        "workload", "ISA", "insts", "(no-opt)", "Δinsts", "cycles", "(no-opt)", "Δcyc%"
    );
    let mut isa = "??";
    for line in json.lines() {
        let t = line.trim();
        if t.starts_with("\"clockhands\"") {
            isa = "CH";
        } else if t.starts_with("\"straight\"") {
            isa = "ST";
        }
        let Some(name) = field_str(t, "name") else {
            continue;
        };
        let g = |k: &str| field_num(t, k).unwrap_or(0.0);
        let (i, i0) = (g("insts"), g("insts_noopt"));
        let (c, c0) = (g("cycles"), g("cycles_noopt"));
        let _ = writeln!(
            s,
            "{:<12} {:<4} {:>6} {:>8} {:>7} {:>9} {:>10} {:>6.1}%",
            name,
            isa,
            i,
            i0,
            i - i0,
            c,
            c0,
            (c - c0) / c0 * 100.0
        );
    }
    s
}

fn field_str<'j>(line: &'j str, key: &str) -> Option<&'j str> {
    let pat = format!("\"{key}\": \"");
    let at = line.find(&pat)? + pat.len();
    line[at..].split('"').next()
}

fn field_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
