#![deny(missing_docs)]

//! # ch-bench — regenerates every table and figure of the paper
//!
//! Each `table*`/`fig*` function returns the experiment's text rendering;
//! the `figures` binary prints them (see EXPERIMENTS.md for the recorded
//! paper-vs-measured comparison). All experiments run the five workload
//! kernels through the compiler, the functional interpreters, the timing
//! simulator, and the energy/FPGA models as appropriate.
//!
//! ## The pipeline
//!
//! Every result is the counters of one [`ConfigKey`]
//! (`workload/isa/width/scale/encoding/engine`), computed by [`run`].
//! Each stage is cached per process under a prefix of that key, and
//! every encoding takes the same path (the fixed layout's relocation is
//! the identity):
//!
//! | stage | key | value |
//! |---|---|---|
//! | [`compiled_set`] | workload, scale | three-ISA `CompiledSet` |
//! | [`encoded_set`] | + encoding | `EncodedSet` (bytes and layout) |
//! | [`trace`] | workload, isa, scale | committed trace, abstract PCs |
//! | [`relocated`] | + encoding | relocated `SoaTrace` + `BranchProfile` |
//! | [`run`] | full key | `Counters` (fast and reference engines) |
//!
//! ## Parallel execution
//!
//! The `(workload, isa, width)` jobs behind a table or figure are
//! independent, so each experiment warms the process-wide trace and
//! simulation caches through the [`driver`] fan-out before rendering
//! serially from the caches. Rendered output is therefore byte-identical
//! at any worker count (`--jobs` on the `figures` binary), and repeated
//! experiments (Fig. 13 and Fig. 14 share all 75 simulations) are
//! computed exactly once per process — concurrent callers of the same
//! key block on a per-key cell ([`cache::KeyedOnce`]) instead of
//! duplicating the run.
//!
//! ## Remote execution
//!
//! With a sweep server configured ([`remote::set_server`], the `figures
//! --server ADDR` flag), [`run`] fills its local cache from the
//! server instead of the in-process engine, so repeated figure runs
//! across processes share one server-side cache. Results travel as
//! exact-integer JSON ([`Counters`] round-trips bit-for-bit), which
//! keeps remote figure output byte-identical to in-process output.

use ch_analysis::{
    hand_usage, hands_sweep, instruction_mix, lifetime_ccdf, lifetimes_of, straight_increase,
};
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::op::OpClass;
use ch_common::stats::{BusyClock, Counters, ExperimentTiming};
use ch_common::{DynInst, EncodingVariant, IsaKind};
use ch_compiler::{CompiledSet, EncodedSet};
use ch_energy::energy;
use ch_fpga::resources;
use ch_sim::{run_fast_profiled, BranchProfile, SoaTrace};
use ch_workloads::{Scale, Workload};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

pub mod cache;
pub mod densityreport;
pub mod driver;
pub mod key;
pub mod optreport;
pub mod remote;
pub mod report;
pub mod sweep;

pub use cache::KeyedOnce;
pub use densityreport::density_experiment;
pub use driver::{jobs, par_for_each, par_map, set_jobs};
pub use key::{ConfigKey, Engine};
pub use optreport::opt_experiment;
pub use report::bench_experiment;
pub use sweep::{sweep, sweep_stream};

/// Interpreter instruction budget.
const LIMIT: u64 = 2_000_000_000;

/// Busy time charged by every trace and simulation computation; compared
/// against wall time by [`timed`] to report the achieved speedup.
static BUSY: BusyClock = BusyClock::new();

// The pipeline's stage caches, each keyed by a prefix of one
// `ConfigKey` (`workload/isa/width/scale/encoding/engine`).
static SET_CACHE: KeyedOnce<(Workload, Scale), Arc<CompiledSet>> = KeyedOnce::new();
static ENCODED_CACHE: KeyedOnce<(Workload, Scale, EncodingVariant), Arc<EncodedSet>> =
    KeyedOnce::new();
static TRACE_CACHE: KeyedOnce<(Workload, IsaKind, Scale), Arc<Vec<DynInst>>> = KeyedOnce::new();
static RELOCATED_CACHE: KeyedOnce<(Workload, IsaKind, Scale, EncodingVariant), Arc<Relocated>> =
    KeyedOnce::new();
static RUN_CACHE: KeyedOnce<ConfigKey, Counters> = KeyedOnce::new();

/// The compiled three-ISA program set of one workload (cached per
/// process; one compile shared by every encoding).
pub fn compiled_set(w: Workload, scale: Scale) -> Arc<CompiledSet> {
    SET_CACHE.get_or_compute((w, scale), || {
        BUSY.time(|| {
            let set = ch_compiler::compile(&w.source(scale))
                .unwrap_or_else(|e| panic!("{}: compile failed: {e}", w.name()));
            Arc::new(set)
        })
    })
}

/// The byte-accurate binary layout of one workload's programs under one
/// encoding (cached per process).
pub fn encoded_set(w: Workload, scale: Scale, encoding: EncodingVariant) -> Arc<EncodedSet> {
    ENCODED_CACHE.get_or_compute((w, scale, encoding), || {
        let set = compiled_set(w, scale);
        BUSY.time(|| {
            let enc = ch_compiler::encode_set(&set, encoding)
                .unwrap_or_else(|e| panic!("{}/{encoding}: encode failed: {e}", w.name()));
            Arc::new(enc)
        })
    })
}

/// The committed trace of one workload on one ISA, at abstract PCs
/// (cached per process; a cache hit is a pointer bump, not a trace
/// copy). The interpreter's vector is cached without a copy: converting
/// it to an `Arc<[DynInst]>` would copy every record and hold the trace
/// twice while it ran. Its growth slack is released first, since the
/// cache holds it for the whole process.
pub fn trace(w: Workload, isa: IsaKind, scale: Scale) -> Arc<Vec<DynInst>> {
    TRACE_CACHE.get_or_compute((w, isa, scale), || {
        // trace_on validates the checksum against the Rust reference and,
        // on any failure, names the workload/scale/ISA and pipeline stage
        // — so a bad kernel aborts the run with a diagnosable message.
        BUSY.time(|| {
            let (mut t, _outcome) = w
                .trace_on(scale, isa, LIMIT)
                .unwrap_or_else(|e| panic!("{e}"));
            t.shrink_to_fit();
            Arc::new(t)
        })
    })
}

/// The timing engine's input for one `(workload, isa, scale,
/// encoding)`: the committed trace relocated onto the encoding's byte
/// layout, and its branch-predictor replay.
pub struct Relocated {
    /// The relocated trace in the fast engine's structure-of-arrays
    /// layout.
    pub soa: SoaTrace,
    /// The pre-replayed branch-predictor outcomes over [`soa`](Self::soa)
    /// (every preset shares one predictor geometry, so all five machine
    /// widths reuse one replay — see [`ch_sim::BranchProfile`]).
    pub profile: BranchProfile,
}

/// The [`Relocated`] timing input of one `(workload, isa, scale,
/// encoding)` (cached per process; shared by every machine width).
///
/// Relocation is folded into the SoA build, so no relocated copy of
/// the trace is ever materialized. Under [`EncodingVariant::Fixed`] the
/// layout is the identity, so the columns equal those of the abstract
/// [`trace`]; compressed layouts move PCs, which moves predictor index
/// bits, so each encoding has its own replay.
pub fn relocated(
    w: Workload,
    isa: IsaKind,
    scale: Scale,
    encoding: EncodingVariant,
) -> Arc<Relocated> {
    RELOCATED_CACHE.get_or_compute((w, isa, scale, encoding), || {
        let t = trace(w, isa, scale);
        let enc = encoded_set(w, scale, encoding);
        let layout = &enc.program(isa).layout;
        BUSY.time(|| {
            let soa = SoaTrace::new(t.iter().map(|d| layout.relocate(d)));
            // Geometry is width-independent; W4 stands in for all presets.
            let profile = BranchProfile::new(&MachineConfig::preset(WidthClass::W4, isa), &soa);
            Arc::new(Relocated { soa, profile })
        })
    })
}

/// Computes one configuration: the counters of `key`'s workload on its
/// Table 2 machine with its code laid out under its encoding, on its
/// engine (cached per process — the pipeline's one entry point).
///
/// [`Engine::Fast`] runs the fast-path engine over the cached
/// [`relocated`] input; [`Engine::Reference`] runs the reference
/// [`Simulator`](ch_sim::Simulator) over the same relocated stream. The
/// differential suite in `tests/` asserts the two agree byte for byte
/// on every workload × ISA × width × encoding.
///
/// With a sweep server configured ([`remote::set_server`]), a cache
/// miss is fetched from the server instead of computed in-process; the
/// exact [`Counters`] wire round-trip keeps the result — and everything
/// rendered from it — byte-identical either way.
///
/// # Panics
///
/// Panics if any stage fails (compile, encode, interpretation or the
/// server), and always for [`Engine::Poison`], the diagnostic engine
/// that exercises panic isolation.
pub fn run(key: &ConfigKey) -> Counters {
    if key.engine == Engine::Poison {
        panic!("poison engine requested for {key}");
    }
    RUN_CACHE.get_or_compute(*key, || {
        if let Some(addr) = remote::server() {
            return remote::fetch_sim(&addr, key);
        }
        let cfg = MachineConfig::preset(key.width, key.isa);
        if key.engine == Engine::Fast {
            let r = relocated(key.workload, key.isa, key.scale, key.encoding);
            return BUSY.time(|| run_fast_profiled(cfg, &r.soa, &r.profile));
        }
        let t = trace(key.workload, key.isa, key.scale);
        let enc = encoded_set(key.workload, key.scale, key.encoding);
        let layout = &enc.program(key.isa).layout;
        BUSY.time(|| ch_sim::run_reference(cfg, t.iter().map(|d| layout.relocate(d))))
    })
}

/// Simulates one workload on one Table 2 machine: [`run`] of the
/// fixed-encoding, fast-engine key.
pub fn simulate(w: Workload, isa: IsaKind, width: WidthClass, scale: Scale) -> Counters {
    run(&ConfigKey {
        workload: w,
        isa,
        width,
        scale,
        encoding: EncodingVariant::Fixed,
        engine: Engine::Fast,
    })
}

/// Runs `f`, reporting its wall time and the busy time its trace and
/// simulation computations charged across all workers.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, ExperimentTiming) {
    let busy0 = BUSY.total();
    let t0 = Instant::now();
    let r = f();
    let timing = ExperimentTiming {
        wall: t0.elapsed(),
        busy: BUSY.total() - busy0,
    };
    (r, timing)
}

/// Computes the given traces in parallel (deduplicated, cache-backed).
pub(crate) fn warm_traces(scale: Scale, keys: impl IntoIterator<Item = (Workload, IsaKind)>) {
    let keys: Vec<(Workload, IsaKind)> = keys.into_iter().collect();
    sweep(&keys, |&(w, isa)| {
        trace(w, isa, scale);
    });
}

/// Computes the given simulations in parallel. Traces are warmed first
/// so sim workers never serialize on a shared trace cell.
fn warm_sims(scale: Scale, combos: &[(Workload, IsaKind, WidthClass)]) {
    warm_traces(scale, combos.iter().map(|&(w, isa, _)| (w, isa)));
    par_for_each(combos, |&(w, isa, width)| {
        simulate(w, isa, width, scale);
    });
}

/// Every `(workload, isa, width)` combination of the Fig. 13/14 sweeps.
pub(crate) fn full_sweep() -> Vec<(Workload, IsaKind, WidthClass)> {
    let mut combos = Vec::new();
    for w in Workload::ALL {
        for isa in IsaKind::ALL {
            for width in WidthClass::ALL {
                combos.push((w, isa, width));
            }
        }
    }
    combos
}

/// Table 1: recovery information (checkpoint) size per architecture.
pub fn table1() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: recovery information size (8-fetch model)");
    let _ = writeln!(s, "{:<16} {:>18} {:>12}", "Architecture", "formula", "bits");
    for isa in IsaKind::ALL {
        let cfg = MachineConfig::preset(WidthClass::W8, isa);
        let formula = match isa {
            IsaKind::Riscv => "63 x ~10b",
            IsaKind::Straight => "~11b + 64b",
            IsaKind::Clockhands => "4 x ~11b",
        };
        let _ = writeln!(
            s,
            "{:<16} {:>18} {:>12}",
            isa.to_string(),
            formula,
            cfg.checkpoint_bits()
        );
    }
    s
}

/// Table 2: the machine configurations.
pub fn table2() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 2: {:<10} {:>6} {:>6} {:>6} {:>6} {:>6}",
        "parameter", "4f", "6f", "8f", "12f", "16f"
    );
    let cfgs: Vec<MachineConfig> = WidthClass::ALL
        .iter()
        .map(|&w| MachineConfig::preset(w, IsaKind::Clockhands))
        .collect();
    let row = |name: &str, f: &dyn Fn(&MachineConfig) -> u32| {
        let mut r = format!("         {name:<12}");
        for c in &cfgs {
            let _ = write!(r, " {:>6}", f(c));
        }
        r
    };
    for (name, f) in [
        (
            "front width",
            (&|c: &MachineConfig| c.front_width) as &dyn Fn(&MachineConfig) -> u32,
        ),
        ("issue width", &|c| c.issue_width),
        ("ROB", &|c| c.rob),
        ("scheduler", &|c| c.scheduler),
        ("load queue", &|c| c.load_queue),
        ("store queue", &|c| c.store_queue),
        ("phys regs", &|c| c.phys_regs),
    ] {
        let _ = writeln!(s, "{}", row(name, f));
    }
    let _ = writeln!(
        s,
        "         front latency: RISC-V 7 cycles; STRAIGHT/Clockhands 5 cycles"
    );
    s
}

/// Table 3: FPGA resources of the allocation stage and the whole core.
pub fn table3() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 3: FPGA resource model (paper values in parentheses)"
    );
    let paper: [(u32, IsaKind, f64, f64); 9] = [
        (4, IsaKind::Riscv, 2310.0, 101_483.0),
        (4, IsaKind::Straight, 442.0, 96_631.0),
        (4, IsaKind::Clockhands, 401.0, 99_913.0),
        (8, IsaKind::Riscv, 12_309.0, 190_380.0),
        (8, IsaKind::Straight, 787.0, 188_118.0),
        (8, IsaKind::Clockhands, 761.0, 185_701.0),
        (16, IsaKind::Riscv, 30_230.0, 350_377.0),
        (16, IsaKind::Straight, 1_641.0, 354_105.0),
        (16, IsaKind::Clockhands, 1_432.0, 349_074.0),
    ];
    let _ = writeln!(
        s,
        "{:<6} {:<12} {:>22} {:>26}",
        "width", "ISA", "alloc LUTs (paper)", "overall LUTs (paper)"
    );
    for (w, isa, pal, pov) in paper {
        let r = resources(w, isa);
        let _ = writeln!(
            s,
            "{:<6} {:<12} {:>12.0} ({:>8.0}) {:>14.0} ({:>9.0})",
            format!("{w}-way"),
            isa.to_string(),
            r.alloc_luts,
            pal,
            r.total_luts,
            pov
        );
    }
    s
}

/// Fig. 3: inevitable STRAIGHT instruction increase per workload.
pub fn fig3(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 3: inevitable STRAIGHT increase (fraction of executed insts)"
    );
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>16} {:>18} {:>8}",
        "workload", "nop", "mv-MaxDistance", "mv-LoopConstant", "total"
    );
    warm_traces(scale, Workload::ALL.map(|w| (w, IsaKind::Riscv)));
    let mut totals = (0.0, 0.0, 0.0);
    for w in Workload::ALL {
        let t = trace(w, IsaKind::Riscv, scale);
        let inc = straight_increase(&t);
        let n = inc.total_insts as f64;
        let (a, b, c) = (
            inc.nop_convergence as f64 / n,
            inc.mv_max_distance as f64 / n,
            inc.mv_loop_constant as f64 / n,
        );
        totals.0 += a;
        totals.1 += b;
        totals.2 += c;
        let _ = writeln!(
            s,
            "{:<12} {:>9.1}% {:>15.1}% {:>17.1}% {:>7.1}%",
            w.name(),
            100.0 * a,
            100.0 * b,
            100.0 * c,
            100.0 * (a + b + c)
        );
    }
    let k = Workload::ALL.len() as f64;
    let _ = writeln!(
        s,
        "{:<12} {:>9.1}% {:>15.1}% {:>17.1}% {:>7.1}%",
        "average",
        100.0 * totals.0 / k,
        100.0 * totals.1 / k,
        100.0 * totals.2 / k,
        100.0 * (totals.0 + totals.1 + totals.2) / k
    );
    s
}

/// Fig. 4: register lifetime CCDF from the RISC traces.
pub fn fig4(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 4: definition frequency of registers with lifetime >= k"
    );
    warm_traces(scale, Workload::ALL.map(|w| (w, IsaKind::Riscv)));
    for w in Workload::ALL {
        let t = trace(w, IsaKind::Riscv, scale);
        let d = lifetimes_of(t.iter());
        let ccdf = lifetime_ccdf(&d, |_| true);
        let _ = write!(s, "{:<12}", w.name());
        for (k, f) in ccdf.iter().step_by(2) {
            let _ = write!(s, " {k}:{f:.4}");
        }
        let _ = writeln!(s);
    }
    let _ = writeln!(s, "(power law: frequency ~ O(1/k))");
    s
}

/// Fig. 7: remaining relay moves versus hand count.
pub fn fig7(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Fig. 7: remaining loop-constant relays vs hand count");
    let _ = writeln!(s, "{:<10} {:>10} {:>14}", "hands", "general", "one-for-SP");
    let sweeps = par_map(&Workload::ALL, |&w| {
        let t = trace(w, IsaKind::Riscv, scale);
        hands_sweep(&t)
    });
    for k in 1..=8usize {
        let g: f64 =
            sweeps.iter().map(|sw| sw.fraction(k, false)).sum::<f64>() / sweeps.len() as f64;
        let p: f64 =
            sweeps.iter().map(|sw| sw.fraction(k, true)).sum::<f64>() / sweeps.len() as f64;
        let _ = writeln!(s, "{:<10} {:>9.1}% {:>13.1}%", k, 100.0 * g, 100.0 * p);
    }
    s
}

/// Fig. 13: relative performance (normalised to the 4-fetch RISC model).
pub fn fig13(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Fig. 13: performance relative to 4-fetch RISC-V");
    let _ = writeln!(
        s,
        "{:<12} {:<6} {:>8} {:>8} {:>8}",
        "workload", "width", "R", "S", "C"
    );
    warm_sims(scale, &full_sweep());
    for w in Workload::ALL {
        let base = simulate(w, IsaKind::Riscv, WidthClass::W4, scale).cycles as f64;
        for width in WidthClass::ALL {
            let r = base / simulate(w, IsaKind::Riscv, width, scale).cycles as f64;
            let st = base / simulate(w, IsaKind::Straight, width, scale).cycles as f64;
            let c = base / simulate(w, IsaKind::Clockhands, width, scale).cycles as f64;
            let _ = writeln!(
                s,
                "{:<12} {:<6} {:>8.3} {:>8.3} {:>8.3}",
                w.name(),
                width.label(),
                r,
                st,
                c
            );
        }
    }
    s
}

/// Fig. 14: energy relative to the 4-fetch RISC model, with the renamer
/// component separated out.
pub fn fig14(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 14: energy relative to 4-fetch RISC-V (average of workloads)"
    );
    let _ = writeln!(
        s,
        "{:<6} {:<12} {:>10} {:>14} {:>14}",
        "width", "ISA", "total", "renamer", "vs RISC"
    );
    warm_sims(scale, &full_sweep());
    // Baseline: 4-fetch RISC average energy.
    let mut base = 0.0;
    for w in Workload::ALL {
        let c = simulate(w, IsaKind::Riscv, WidthClass::W4, scale);
        base += energy(&MachineConfig::preset(WidthClass::W4, IsaKind::Riscv), &c).total();
    }
    base /= Workload::ALL.len() as f64;
    for width in WidthClass::ALL {
        let mut risc_total = 0.0;
        for isa in IsaKind::ALL {
            let cfg = MachineConfig::preset(width, isa);
            let mut tot = 0.0;
            let mut ren = 0.0;
            for w in Workload::ALL {
                let c = simulate(w, isa, width, scale);
                let e = energy(&cfg, &c);
                tot += e.total();
                ren += e.component("Renamer");
            }
            tot /= Workload::ALL.len() as f64;
            ren /= Workload::ALL.len() as f64;
            if isa == IsaKind::Riscv {
                risc_total = tot;
            }
            let _ = writeln!(
                s,
                "{:<6} {:<12} {:>10.2} {:>13.1}% {:>13.1}%",
                width.label(),
                isa.to_string(),
                tot / base,
                100.0 * ren / tot,
                100.0 * (1.0 - tot / risc_total)
            );
        }
    }
    s
}

/// Fig. 15: executed-instruction breakdown, normalised to RISC.
pub fn fig15(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Fig. 15: executed instructions relative to RISC-V");
    let _ = writeln!(
        s,
        "{:<12} {:<4} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "ISA", "total", "Load", "Store", "ALU", "Move", "NOP"
    );
    warm_traces(
        scale,
        Workload::ALL
            .iter()
            .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa))),
    );
    for w in Workload::ALL {
        let base = trace(w, IsaKind::Riscv, scale).len() as f64;
        for isa in IsaKind::ALL {
            let t = trace(w, isa, scale);
            let mix = instruction_mix(t.iter());
            let _ = writeln!(
                s,
                "{:<12} {:<4} {:>7.3} {:>8} {:>8} {:>8} {:>8} {:>8}",
                w.name(),
                isa.tag(),
                t.len() as f64 / base,
                mix.count(OpClass::Load),
                mix.count(OpClass::Store),
                mix.count(OpClass::IntAlu),
                mix.count(OpClass::Move),
                mix.count(OpClass::Nop),
            );
        }
    }
    s
}

/// Fig. 16: per-hand read/write usage (Clockhands traces).
pub fn fig16(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Fig. 16: hand reads/writes per executed instruction");
    let _ = writeln!(
        s,
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload", "t.w", "u.w", "v.w", "s.w", "nodst", "t.r", "u.r", "v.r", "s.r"
    );
    warm_traces(scale, Workload::ALL.map(|w| (w, IsaKind::Clockhands)));
    for w in Workload::ALL {
        let t = trace(w, IsaKind::Clockhands, scale);
        let u = hand_usage(t.iter());
        let n = u.total.max(1) as f64;
        let _ = writeln!(
            s,
            "{:<12} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            w.name(),
            100.0 * u.writes[0] as f64 / n,
            100.0 * u.writes[1] as f64 / n,
            100.0 * u.writes[2] as f64 / n,
            100.0 * u.writes[3] as f64 / n,
            100.0 * u.no_dst_writes as f64 / n,
            100.0 * u.reads[0] as f64 / n,
            100.0 * u.reads[1] as f64 / n,
            100.0 * u.reads[2] as f64 / n,
            100.0 * u.reads[3] as f64 / n,
        );
    }
    s
}

/// Fig. 17: lifetime CCDF for each ISA (STRAIGHT truncates at 127).
pub fn fig17(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 17: lifetime CCDF per ISA (frequency at selected k)"
    );
    let _ = writeln!(
        s,
        "{:<12} {:<4} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "workload", "ISA", "k=1", "k=16", "k=128", "k=1024", "k=8192"
    );
    warm_traces(
        scale,
        Workload::ALL
            .iter()
            .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa))),
    );
    for w in Workload::ALL {
        for isa in IsaKind::ALL {
            let t = trace(w, isa, scale);
            let d = lifetimes_of(t.iter());
            let ccdf = lifetime_ccdf(&d, |_| true);
            let at = |k: u64| -> f64 {
                if ccdf.last().map(|&(b, _)| k > b).unwrap_or(true) {
                    return 0.0;
                }
                ccdf.iter()
                    .take_while(|&&(b, _)| b <= k)
                    .last()
                    .map(|&(_, f)| f)
                    .unwrap_or(0.0)
            };
            let _ = writeln!(
                s,
                "{:<12} {:<4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                w.name(),
                isa.tag(),
                at(1),
                at(16),
                at(128),
                at(1024),
                at(8192)
            );
        }
    }
    s
}

/// Fig. 18: lifetime CCDF per hand (Clockhands traces).
pub fn fig18(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 18: lifetime CCDF per hand (frequency at selected k)"
    );
    let _ = writeln!(
        s,
        "{:<12} {:<5} {:>9} {:>9} {:>9} {:>9}",
        "workload", "hand", "k=1", "k=16", "k=256", "k=4096"
    );
    warm_traces(scale, Workload::ALL.map(|w| (w, IsaKind::Clockhands)));
    for w in Workload::ALL {
        let t = trace(w, IsaKind::Clockhands, scale);
        let d = lifetimes_of(t.iter());
        for (hi, name) in [(0u8, "t"), (1, "u"), (2, "v"), (3, "s")] {
            let ccdf = lifetime_ccdf(&d, |tag| tag.hand() == Some(hi));
            let at = |k: u64| -> f64 {
                if ccdf.last().map(|&(b, _)| k > b).unwrap_or(true) {
                    return 0.0;
                }
                ccdf.iter()
                    .take_while(|&&(b, _)| b <= k)
                    .last()
                    .map(|&(_, f)| f)
                    .unwrap_or(0.0)
            };
            let _ = writeln!(
                s,
                "{:<12} {:<5} {:>9.4} {:>9.4} {:>9.4} {:>9.4}",
                w.name(),
                name,
                at(1),
                at(16),
                at(256),
                at(4096)
            );
        }
    }
    s
}

/// Ablations of Clockhands design choices (Sections 4.1–4.3 and 5.2):
/// per-hand physical-register quotas, and the shorter rename-free front
/// end.
pub fn ablation(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Ablation: Clockhands design choices (8-fetch, cycles)");
    let _ = writeln!(
        s,
        "{:<12} {:>10} {:>12} {:>12}",
        "workload", "paper cfg", "starved t", "7-cyc front"
    );
    let base = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    // (a) Starve the t hand (128 registers) instead of the t-heavy
    // Table 2 split — Section 4.3 argues t needs the most.
    let mut equal = base.clone();
    let rest = (base.phys_regs - 128) / 3;
    equal.hand_quotas = Some([128, rest, rest, base.phys_regs - 128 - 2 * rest]);
    // (b) A RISC-depth front end (what renaming would cost in cycles).
    let mut deep = base.clone();
    deep.front_latency = 7;
    warm_traces(scale, Workload::ALL.map(|w| (w, IsaKind::Clockhands)));
    let jobs: Vec<(Workload, &MachineConfig)> = Workload::ALL
        .iter()
        .flat_map(|&w| [&base, &equal, &deep].map(|cfg| (w, cfg)))
        .collect();
    let cycles = par_map(&jobs, |&(w, cfg)| {
        // The ablations vary hand quotas and front-end depth only, so the
        // predictor replay (geometry-keyed) is shared with the main sweep.
        let r = relocated(w, IsaKind::Clockhands, scale, EncodingVariant::Fixed);
        BUSY.time(|| run_fast_profiled(cfg.clone(), &r.soa, &r.profile).cycles)
    });
    for (w, row) in Workload::ALL.iter().zip(cycles.chunks(3)) {
        let _ = writeln!(
            s,
            "{:<12} {:>10} {:>12} {:>12}",
            w.name(),
            row[0],
            row[1],
            row[2]
        );
    }
    let _ = writeln!(
        s,
        "(even a starved t quota barely binds — static partitioning is not\n\
the bottleneck, matching Section 5.3's claim; the deeper front end\n\
costs cycles through slower misprediction recovery, Section 5.2)"
    );
    s
}

/// Short column header for a [`ch_common::StallBreakdown`] row label.
fn stall_col(label: &str) -> &str {
    match label {
        "frontend" => "front",
        "branch-recovery" => "br-rec",
        "alloc-rename" => "rename",
        "alloc-rp" => "rp-wrap",
        "rob-full" => "rob",
        "sched-full" => "sched",
        "lsq-full" => "lsq",
        "exec-dep" => "dep",
        other => other, // "memory", "drain"
    }
}

/// Top-down stall attribution: where every commit slot of every
/// `(workload, ISA, width)` run went. Each row is exhaustive — the
/// commit column plus the ten stall columns sum to 100% of
/// `commit_width x cycles` (asserted here, tested in `crates/sim`).
pub fn stalls(scale: Scale) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Stall attribution: share of commit slots (commit width x cycles)"
    );
    let _ = write!(
        s,
        "{:<12} {:<6} {:<4} {:>7}",
        "workload", "width", "ISA", "commit"
    );
    for (label, _) in ch_common::StallBreakdown::default().rows() {
        let _ = write!(s, " {:>7}", stall_col(label));
    }
    let _ = writeln!(s);
    warm_sims(scale, &full_sweep());
    for w in Workload::ALL {
        for width in WidthClass::ALL {
            for isa in IsaKind::ALL {
                let c = simulate(w, isa, width, scale);
                let cw = MachineConfig::preset(width, isa).commit_width;
                assert!(
                    c.slots_conserved(cw),
                    "{w}/{isa}/{}: stall account does not close",
                    width.label()
                );
                let slots = (cw as u64 * c.cycles) as f64;
                let _ = write!(
                    s,
                    "{:<12} {:<6} {:<4} {:>6.1}%",
                    w.name(),
                    width.label(),
                    isa.tag(),
                    100.0 * c.committed as f64 / slots
                );
                for (_, v) in c.stalls.rows() {
                    let _ = write!(s, " {:>6.1}%", 100.0 * v as f64 / slots);
                }
                let _ = writeln!(s);
            }
        }
    }
    let _ = writeln!(
        s,
        "(columns left to right: slots filled by committing instructions, then\n\
idle slots blamed on: front-end fetch, branch-misprediction recovery,\n\
renamer free-list (RISC only), register-pointer wrap (STRAIGHT/Clockhands\n\
only), ROB full, scheduler full, load/store queue full, memory (own miss\n\
or load-to-use), pure data/execution dependence, end-of-run drain)"
    );
    s
}

/// Per-instruction pipeline traces: writes Konata `.kanata` and JSONL
/// files under `target/traces/` for every workload on the 8-fetch
/// machines, and returns a summary table of what was written.
pub fn traces(scale: Scale) -> String {
    /// How many committed instructions each trace file covers.
    const INSTS: usize = 3_000;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Pipeline traces: first {INSTS} committed instructions, 8-fetch machines"
    );
    let _ = writeln!(
        s,
        "{:<12} {:<4} {:>8} {:>12} {:>26}",
        "workload", "ISA", "records", "last commit", "file (target/traces/)"
    );
    let combos: Vec<(Workload, IsaKind)> = Workload::ALL
        .iter()
        .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa)))
        .collect();
    warm_traces(scale, combos.iter().copied());
    let outputs = par_map(&combos, |&(w, isa)| {
        let r = relocated(w, isa, scale, EncodingVariant::Fixed);
        BUSY.time(|| {
            let engine = ch_sim::FastEngine::with_tracer(
                MachineConfig::preset(WidthClass::W8, isa),
                ch_sim::TraceBuffer::with_limit(INSTS),
            );
            let (_, buf) = engine.run_profiled(&r.soa, &r.profile);
            let last = buf.records().last().map(|r| r.stamps.commit).unwrap_or(0);
            (buf.to_kanata(), buf.to_jsonl(), buf.records().len(), last)
        })
    });
    let dir = std::path::Path::new("target/traces");
    std::fs::create_dir_all(dir).expect("create target/traces");
    for (&(w, isa), (kanata, jsonl, records, last)) in combos.iter().zip(outputs) {
        let stem = format!("{}-{}-8f", w.name(), isa.tag());
        std::fs::write(dir.join(format!("{stem}.kanata")), &kanata).expect("write .kanata");
        std::fs::write(dir.join(format!("{stem}.jsonl")), &jsonl).expect("write .jsonl");
        let _ = writeln!(
            s,
            "{:<12} {:<4} {:>8} {:>12} {:>26}",
            w.name(),
            isa.tag(),
            records,
            last,
            format!("{stem}.kanata/.jsonl")
        );
    }
    let _ = writeln!(
        s,
        "(open the .kanata files in Konata: https://github.com/shioyadan/Konata)"
    );
    s
}

/// Static-verifier lint summary: every workload's compiled output on
/// every backend, with per-ISA dead-relay / redundant-fix / unreachable
/// counts. Lint warnings are allowed (they quantify backend slack);
/// error-severity findings abort the run — the backends must emit
/// verifier-clean code.
pub fn verify_lints(scale: Scale) -> String {
    use ch_verify::Report;
    let mut s = String::new();
    let _ = writeln!(s, "Static verification lints (ch-verify, errors are fatal)");
    let _ = writeln!(
        s,
        "{:<12} {:<4} {:>6} {:>12} {:>14} {:>12}",
        "workload", "ISA", "insts", "dead relays", "redundant fixes", "unreachable"
    );
    let opts = ch_verify::Options::default();
    let sets = par_map(&Workload::ALL, |&w| {
        w.compile(scale)
            .unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name()))
    });
    let mut measured: Vec<(&str, &str, usize, usize)> = Vec::new();
    for (w, set) in Workload::ALL.iter().zip(sets) {
        let reports: [Report; 3] = [
            ch_verify::verify_clockhands(&set.clockhands, &opts),
            ch_verify::verify_straight(&set.straight, &opts),
            ch_verify::verify_riscv(&set.riscv, &opts),
        ];
        for r in reports {
            assert!(
                r.is_clean(),
                "{}/{}: verifier errors:\n{}",
                w.name(),
                r.isa,
                r.render()
            );
            let insts: usize = r.functions.iter().map(|f| f.insts).sum();
            measured.push((w.name(), r.isa, r.dead_relays(), r.redundant_fixes()));
            let _ = writeln!(
                s,
                "{:<12} {:<4} {:>6} {:>12} {:>14} {:>12}",
                w.name(),
                match r.isa {
                    "clockhands" => "CH",
                    "straight" => "ST",
                    _ => "RV",
                },
                insts,
                r.dead_relays(),
                r.redundant_fixes(),
                r.unreachable
            );
        }
    }
    let _ = writeln!(
        s,
        "(dead relays: mv instructions whose value is provably never read;\n\
redundant fixes: li edge-fill writes never read; unreachable: instructions\n\
reachable from no function. All are backend slack, not correctness bugs.)"
    );
    let _ = writeln!(s, "{}", check_lint_baseline(scale, &measured));
    s
}

/// Committed per-workload lint baseline, regenerated with
/// `CH_VERIFY_SKIP_CHECK=1 just figures verify` (which rewrites the
/// file in place). Format: one `workload isa dead_relays
/// redundant_fixes` line per program, preceded by a `scale` header.
const LINT_BASELINE: &str = include_str!("../data/lint_baseline.txt");

/// Compares measured lint counts against [`LINT_BASELINE`].
///
/// The baseline is a ratchet: any workload whose dead-relay or
/// redundant-fix count *rises* above the committed value fails the run
/// (a relay-minimization regression slipped in); counts that fall just
/// suggest re-baselining. `CH_VERIFY_SKIP_CHECK=1` skips the check and
/// rewrites `crates/bench/data/lint_baseline.txt` from the measurement
/// (run from the repo root). Baselines are per-scale; a mismatched
/// scale is reported, not compared.
fn check_lint_baseline(scale: Scale, measured: &[(&str, &str, usize, usize)]) -> String {
    let render = |rows: &[(&str, &str, usize, usize)]| -> String {
        let mut b = format!("scale {}\n", scale.name());
        for &(w, isa, dead, redundant) in rows {
            let _ = writeln!(b, "{w} {isa} {dead} {redundant}");
        }
        b
    };
    if std::env::var_os("CH_VERIFY_SKIP_CHECK").is_some() {
        let path = "crates/bench/data/lint_baseline.txt";
        return match std::fs::write(path, render(measured)) {
            Ok(()) => format!("lint baseline rewritten ({path}); check skipped"),
            Err(e) => format!("lint baseline NOT rewritten ({path}: {e}); check skipped"),
        };
    }
    let mut lines = LINT_BASELINE.lines();
    let header = lines.next().unwrap_or_default();
    if header != format!("scale {}", scale.name()) {
        return format!(
            "lint baseline is for `{header}`, not scale {}: not compared",
            scale.name()
        );
    }
    let mut worse = Vec::new();
    let mut drifted = false;
    for line in lines {
        let mut f = line.split_whitespace();
        let (Some(w), Some(isa), Some(dead), Some(redundant)) =
            (f.next(), f.next(), f.next(), f.next())
        else {
            continue;
        };
        let (dead, redundant): (usize, usize) =
            (dead.parse().unwrap_or(0), redundant.parse().unwrap_or(0));
        let Some(&(_, _, mdead, mredundant)) = measured
            .iter()
            .find(|&&(mw, misa, _, _)| mw == w && misa == isa)
        else {
            continue;
        };
        if mdead > dead || mredundant > redundant {
            worse.push(format!(
                "{w}/{isa}: dead relays {dead} -> {mdead}, redundant fixes \
                 {redundant} -> {mredundant}"
            ));
        }
        drifted |= mdead < dead || mredundant < redundant;
    }
    assert!(
        worse.is_empty(),
        "lint counts regressed vs crates/bench/data/lint_baseline.txt:\n  {}\n\
         (an intended trade-off? re-baseline with CH_VERIFY_SKIP_CHECK=1)",
        worse.join("\n  ")
    );
    if drifted {
        "lint baseline check: ok (some counts improved; consider re-baselining)".to_string()
    } else {
        "lint baseline check: ok".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_tables_render() {
        let t1 = table1();
        assert!(t1.contains("Clockhands") && t1.contains("44"));
        let t2 = table2();
        assert!(t2.contains("4096"));
        let t3 = table3();
        assert!(t3.contains("16-way"));
    }

    #[test]
    fn fig13_shape_holds_on_one_workload() {
        // Clockhands within a few percent of RISC; both above STRAIGHT.
        let w = Workload::Xz;
        let r = simulate(w, IsaKind::Riscv, WidthClass::W8, Scale::Test).cycles as f64;
        let st = simulate(w, IsaKind::Straight, WidthClass::W8, Scale::Test).cycles as f64;
        let c = simulate(w, IsaKind::Clockhands, WidthClass::W8, Scale::Test).cycles as f64;
        assert!(c < st, "Clockhands ({c}) must beat STRAIGHT ({st})");
        assert!(c < 1.6 * r, "Clockhands within range of RISC ({c} vs {r})");
    }
}
