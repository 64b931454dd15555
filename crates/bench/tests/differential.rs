//! Differential test: the fast-path engine must be **byte-identical**
//! to the reference simulator — every counter, including the full stall
//! breakdown — on every workload × ISA × width × encoding combination,
//! and the cached parallel driver must return the same results at any
//! worker count.
//!
//! This is the correctness bar of the engine restructuring: the fast
//! engine is only allowed to be a faster evaluation order of the same
//! timing model, never a different model. The fast side is the
//! pipeline's own `run` (relocated SoA build, cached predictor replay);
//! the reference side is an independent `Simulator` over a trace
//! relocated here.

use ch_bench::{encoded_set, relocated, run, set_jobs, simulate, sweep, trace, ConfigKey, Engine};
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::{DynInst, EncodingVariant, IsaKind};
use ch_sim::{run_fast, FastEngine, Simulator, TraceBuffer};
use ch_workloads::{Scale, Workload};

const SCALE: Scale = Scale::Test;

/// Asserts `run` equals the reference simulator over `trace` at every
/// width of one `(workload, isa, encoding)`.
fn check_widths(w: Workload, isa: IsaKind, encoding: EncodingVariant, trace: &[DynInst]) {
    for width in WidthClass::ALL {
        let fast = run(&ConfigKey {
            workload: w,
            isa,
            width,
            scale: SCALE,
            encoding,
            engine: Engine::Fast,
        });
        let reference = Simulator::new(MachineConfig::preset(width, isa)).run(trace);
        assert_eq!(
            fast,
            reference,
            "fast engine diverged on {}/{}/{}/{encoding} (stalls: fast {:?} vs ref {:?})",
            w.name(),
            isa.tag(),
            width.label(),
            fast.stalls,
            reference.stalls
        );
    }
}

/// Fixed layouts: the pipeline's relocated run against the reference on
/// the abstract-PC trace, so a non-identity fixed relocation would show
/// up as a counter difference.
#[test]
fn fast_engine_matches_reference_on_every_combo() {
    for w in Workload::ALL {
        for isa in IsaKind::ALL {
            check_widths(w, isa, EncodingVariant::Fixed, &trace(w, isa, SCALE));
        }
    }
}

/// Compressed layouts: byte-accurate PCs, 2-byte instructions and I$
/// line straddles, against the reference on a trace relocated with
/// `ch_encode::relocate_trace`.
#[test]
fn fast_engine_matches_reference_on_compressed_layouts() {
    let encoding = EncodingVariant::Compressed;
    for w in Workload::ALL {
        let enc = encoded_set(w, SCALE, encoding);
        for isa in IsaKind::ALL {
            let layout = &enc.program(isa).layout;
            assert!(layout.compact_count() > 0, "{}/{}", w.name(), isa.tag());
            let mut t = trace(w, isa, SCALE).to_vec();
            ch_encode::relocate_trace(&mut t, layout);
            check_widths(w, isa, encoding, &t);
        }
    }
}

#[test]
fn traced_fast_engine_matches_reference_stamps() {
    // One combo per ISA: stage stamps, not just end-of-run counters.
    for isa in IsaKind::ALL {
        let w = Workload::ALL[0];
        let cfg = MachineConfig::preset(WidthClass::W8, isa);
        let t = trace(w, isa, SCALE);
        let mut sim = Simulator::with_tracer(cfg.clone(), TraceBuffer::new());
        let ref_counters = sim.run(t.iter());
        let ref_records = sim.into_tracer();

        let r = relocated(w, isa, SCALE, EncodingVariant::Fixed);
        let (fast_counters, fast_records) =
            FastEngine::with_tracer(cfg, TraceBuffer::new()).run(&r.soa);

        assert_eq!(fast_counters, ref_counters, "{}/{}", w.name(), isa.tag());
        assert_eq!(
            fast_records.records().len(),
            ref_records.records().len(),
            "{}/{}",
            w.name(),
            isa.tag()
        );
        for (f, r) in fast_records.records().iter().zip(ref_records.records()) {
            assert_eq!(f, r, "stamp mismatch on {}/{}", w.name(), isa.tag());
        }
    }
}

#[test]
fn parallel_sweep_is_worker_count_invariant() {
    // The cached driver must hand back identical counters no matter how
    // the jobs were scheduled. simulate() memoizes per process, so drain
    // a fresh uncached shape per jobs value: dedupe-heavy key lists
    // through the sweep engine, values compared against the serial runs.
    let combos: Vec<(Workload, IsaKind, WidthClass)> = Workload::ALL
        .iter()
        .flat_map(|&w| {
            IsaKind::ALL
                .into_iter()
                .flat_map(move |isa| [WidthClass::W4, WidthClass::W8].map(|wd| (w, isa, wd)))
        })
        .collect();
    // Repeat keys to exercise the dedupe path.
    let mut keys = combos.clone();
    keys.extend(combos.iter().rev().cloned());

    set_jobs(1);
    let serial = sweep(&keys, |&(w, isa, wd)| simulate(w, isa, wd, SCALE));
    for jobs in [2, 5, 8] {
        set_jobs(jobs);
        let parallel = sweep(&keys, |&(w, isa, wd)| simulate(w, isa, wd, SCALE));
        assert_eq!(serial, parallel, "jobs={jobs}");
        // And bypassing the memoized cache entirely:
        let uncached = sweep(&keys, |&(w, isa, wd)| {
            let r = relocated(w, isa, SCALE, EncodingVariant::Fixed);
            run_fast(MachineConfig::preset(wd, isa), &r.soa)
        });
        assert_eq!(serial, uncached, "uncached, jobs={jobs}");
    }
    set_jobs(0);
}
