//! PR-over-PR benchmark tracking: the `figures bench` experiment.
//!
//! Times the full Fig. 13/14 sweep (every workload × ISA × width) on
//! the fast-path engine and on the reference simulator in the same
//! process, checks the two produce byte-identical counters, and emits a
//! machine-readable `BENCH_<pr>.json` snapshot:
//!
//! * sweep wall time and committed-instructions-per-second for both
//!   engines (same worker pool, same warmed trace caches — the ratio is
//!   the engine speedup, independent of the host's absolute speed);
//! * a per-workload breakdown (instructions and per-engine time);
//! * the worker count and scale the numbers were taken at.
//!
//! If a committed `BENCH_<pr>.json` baseline is present, the run fails
//! when the fast sweep's per-instruction wall time regresses more than
//! [`REGRESSION_TOLERANCE`] against it — CI keeps the engine honest PR
//! over PR. Baselines are host-dependent; set `CH_BENCH_SKIP_CHECK=1`
//! to snapshot on a different machine without tripping the gate.

use crate::{full_sweep, jobs, par_map, relocated, trace, warm_traces};
use ch_common::config::MachineConfig;
use ch_common::stats::Counters;
use ch_common::{EncodingVariant, IsaKind};
use ch_sim::run_fast_profiled;
use ch_workloads::{Scale, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// The PR this snapshot format belongs to (names the JSON file).
pub const PR: u32 = 6;

/// Maximum tolerated per-instruction wall-time regression of the fast
/// sweep versus the committed baseline (0.25 = 25 %).
pub const REGRESSION_TOLERANCE: f64 = 0.25;

struct EnginePass {
    wall_ms: f64,
    /// Per-combo (counters, milliseconds), in `full_sweep()` order.
    per_combo: Vec<(Counters, f64)>,
}

fn run_pass(
    combos: &[(Workload, IsaKind, ch_common::config::WidthClass)],
    f: impl Fn(MachineConfig, Workload, IsaKind) -> Counters + Sync,
) -> EnginePass {
    let t0 = Instant::now();
    let per_combo = par_map(combos, |&(w, isa, width)| {
        let c0 = Instant::now();
        let counters = f(MachineConfig::preset(width, isa), w, isa);
        (counters, c0.elapsed().as_secs_f64() * 1e3)
    });
    EnginePass {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        per_combo,
    }
}

/// Measures the sweep on both engines and renders the `BENCH_<pr>.json`
/// snapshot. Panics if the engines disagree on any counter — the
/// benchmark must never publish numbers for a wrong result.
pub fn bench_json(scale: Scale) -> String {
    let combos = full_sweep();
    // Warm the trace and SoA caches first: the snapshot times the
    // engines, not the interpreters.
    warm_traces(
        scale,
        Workload::ALL
            .iter()
            .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa))),
    );
    let pairs: Vec<(Workload, IsaKind)> = Workload::ALL
        .iter()
        .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa)))
        .collect();
    crate::sweep(&pairs, |&(w, isa)| {
        relocated(w, isa, scale, EncodingVariant::Fixed);
    });

    let fast = run_pass(&combos, |cfg, w, isa| {
        let r = relocated(w, isa, scale, EncodingVariant::Fixed);
        run_fast_profiled(cfg, &r.soa, &r.profile)
    });
    let reference = run_pass(&combos, |cfg, w, isa| {
        ch_sim::run_reference(cfg, trace(w, isa, scale).iter())
    });
    for (&(w, isa, width), (f, r)) in combos
        .iter()
        .zip(fast.per_combo.iter().zip(&reference.per_combo))
    {
        assert_eq!(
            f.0,
            r.0,
            "fast and reference engines disagree on {}/{}/{}",
            w.name(),
            isa.tag(),
            width.label()
        );
    }

    let insts: u64 = combos
        .iter()
        .map(|&(w, isa, _)| trace(w, isa, scale).len() as u64)
        .sum();
    let minsts = |wall_ms: f64| insts as f64 / wall_ms / 1e3;

    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"pr\": {PR},");
    let _ = writeln!(s, "  \"scale\": \"{}\",", scale.name());
    let _ = writeln!(s, "  \"jobs\": {},", jobs());
    let _ = writeln!(s, "  \"configs\": {},", combos.len());
    let _ = writeln!(s, "  \"insts\": {insts},");
    let _ = writeln!(s, "  \"sweep_wall_ms\": {:.3},", fast.wall_ms);
    let _ = writeln!(
        s,
        "  \"sweep_minsts_per_sec\": {:.3},",
        minsts(fast.wall_ms)
    );
    let _ = writeln!(s, "  \"reference_wall_ms\": {:.3},", reference.wall_ms);
    let _ = writeln!(
        s,
        "  \"reference_minsts_per_sec\": {:.3},",
        minsts(reference.wall_ms)
    );
    let _ = writeln!(s, "  \"speedup\": {:.3},", reference.wall_ms / fast.wall_ms);
    let _ = writeln!(s, "  \"workloads\": [");
    for (wi, w) in Workload::ALL.iter().enumerate() {
        let mut w_insts = 0u64;
        let mut fast_ms = 0.0;
        let mut ref_ms = 0.0;
        for (i, &(cw, isa, _)) in combos.iter().enumerate() {
            if cw == *w {
                w_insts += trace(cw, isa, scale).len() as u64;
                fast_ms += fast.per_combo[i].1;
                ref_ms += reference.per_combo[i].1;
            }
        }
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"insts\": {}, \"fast_ms\": {:.3}, \"reference_ms\": {:.3}}}{}",
            w.name(),
            w_insts,
            fast_ms,
            ref_ms,
            if wi + 1 < Workload::ALL.len() { "," } else { "" }
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Extracts the numeric value of a top-level `"key": value` field from
/// the hand-written snapshot format (keys are unique and unnested).
pub fn json_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares a freshly measured snapshot against the committed baseline.
///
/// Returns a one-line verdict, or an error when the fast sweep's
/// per-instruction wall time regressed more than
/// [`REGRESSION_TOLERANCE`]. Throughput (Minst/s) is wall time per
/// instruction inverted, so comparing it compares wall time for the
/// same suite even when instruction counts drift between PRs.
pub fn check_regression(baseline: &str, current: &str) -> Result<String, String> {
    let old = json_number(baseline, "sweep_minsts_per_sec")
        .ok_or("baseline snapshot has no sweep_minsts_per_sec")?;
    let new = json_number(current, "sweep_minsts_per_sec")
        .ok_or("current snapshot has no sweep_minsts_per_sec")?;
    let ratio = old / new; // >1 = slower now
    if ratio > 1.0 + REGRESSION_TOLERANCE {
        return Err(format!(
            "sweep throughput regressed {:.0}% ({old:.1} -> {new:.1} Minst/s, tolerance {:.0}%); \
             if this is an intended trade-off or a slower host, refresh the baseline with \
             CH_BENCH_SKIP_CHECK=1 just bench-json",
            (ratio - 1.0) * 100.0,
            REGRESSION_TOLERANCE * 100.0
        ));
    }
    Ok(format!(
        "baseline check: {old:.1} -> {new:.1} Minst/s ({}{:.0}% vs committed, tolerance {:.0}%)",
        if ratio > 1.0 { "-" } else { "+" },
        (ratio - 1.0).abs() * 100.0,
        REGRESSION_TOLERANCE * 100.0
    ))
}

/// The `figures bench` experiment: measure, gate, snapshot, summarise.
///
/// Writes `BENCH_<pr>.json` into the working directory (the repo root
/// under `just bench-json`), first failing the run if a committed
/// baseline exists and the sweep regressed (see [`check_regression`];
/// skip with `CH_BENCH_SKIP_CHECK=1`).
pub fn bench_experiment(scale: Scale) -> String {
    let json = bench_json(scale);
    let path = format!("BENCH_{PR}.json");
    let mut s = String::new();
    let _ = writeln!(s, "Benchmark snapshot ({path})");
    let baseline = std::fs::read_to_string(&path).ok();
    let rebaseline = std::env::var_os("CH_BENCH_SKIP_CHECK").is_some();
    // Throughput only compares within a scale (test-scale traces are
    // warmup-dominated), and a casual default-scale run must not
    // clobber the committed small-scale baseline.
    let same_scale = baseline
        .as_deref()
        .is_none_or(|b| b.contains(&format!("\"scale\": \"{}\"", scale.name())));
    match baseline.as_deref() {
        Some(b) if !rebaseline && same_scale => match check_regression(b, &json) {
            Ok(verdict) => {
                let _ = writeln!(s, "{verdict}");
            }
            Err(e) => panic!("{e}"),
        },
        Some(_) if !rebaseline => {
            let _ = writeln!(
                s,
                "baseline is a different scale: not compared, snapshot not written \
                 (CH_BENCH_SKIP_CHECK=1 to re-baseline)"
            );
        }
        _ => {
            let _ = writeln!(s, "no committed baseline checked (new snapshot)");
        }
    }
    if same_scale || rebaseline {
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    }
    let fast = json_number(&json, "sweep_minsts_per_sec").unwrap_or(0.0);
    let reference = json_number(&json, "reference_minsts_per_sec").unwrap_or(0.0);
    let speedup = json_number(&json, "speedup").unwrap_or(0.0);
    let insts = json_number(&json, "insts").unwrap_or(0.0);
    let _ = writeln!(
        s,
        "{} configs, {:.1}M committed insts, {} workers",
        json_number(&json, "configs").unwrap_or(0.0),
        insts / 1e6,
        jobs(),
    );
    let _ = writeln!(
        s,
        "fast engine  {:>8.1} Minst/s\nreference    {:>8.1} Minst/s\nspeedup      {:>8.2}x",
        fast, reference, speedup
    );
    let _ = writeln!(s, "(engines verified counter-identical on every config)");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAP: &str = "{\n  \"sweep_minsts_per_sec\": 100.0,\n  \"speedup\": 5.0\n}";

    #[test]
    fn json_number_extracts_fields() {
        assert_eq!(json_number(SNAP, "sweep_minsts_per_sec"), Some(100.0));
        assert_eq!(json_number(SNAP, "speedup"), Some(5.0));
        assert_eq!(json_number(SNAP, "missing"), None);
    }

    #[test]
    fn regression_gate_trips_past_tolerance() {
        let old = SNAP;
        let ok = "{\"sweep_minsts_per_sec\": 90.0}";
        let slower_but_within = "{\"sweep_minsts_per_sec\": 81.0}";
        let too_slow = "{\"sweep_minsts_per_sec\": 70.0}";
        assert!(check_regression(old, ok).is_ok());
        assert!(check_regression(old, slower_but_within).is_ok());
        assert!(check_regression(old, too_slow).is_err());
        // Faster is always fine.
        assert!(check_regression(old, "{\"sweep_minsts_per_sec\": 500.0}").is_ok());
    }
}
