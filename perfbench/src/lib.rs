//! Cross-layer host-performance benchmark of the Clockhands
//! reproduction.
//!
//! Four workloads drive the pipeline's layers from outside, single
//! threaded, by timing calls into their public functions: Kern compile
//! (`ch-compiler`), static verification (`ch-verify`), binary encoding
//! (`ch-encode`), functional interpretation (`ch-workloads`), SoA decode,
//! branch-profile replay and timing (`ch-sim`), the trace analyses
//! (`ch-analysis`) and the `ch-serve` wire. `NOTES.md` explains the
//! design and the host noise it is built around.

pub mod child;
pub mod harness;
pub mod host;
pub mod metrics;
mod seed;
pub mod span;
mod summary;
mod workloads;

use harness::{run, Outcome, RunOpts};

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["cold_sweep", "trace_figures", "kern_compile", "serve_mix"];

/// Runs the named workload once.
///
/// # Errors
///
/// An unknown name, a failed set-up, or a run too short to report.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    use workloads::*;
    match name {
        "cold_sweep" => run::<cold_sweep::ColdSweep>(opts),
        "trace_figures" => run::<trace_figures::TraceFigures>(opts),
        "kern_compile" => run::<kern_compile::KernCompile>(opts),
        "serve_mix" => run::<serve_mix::ServeMix>(opts),
        _ => Err(format!(
            "unknown workload `{name}` (one of {} or all)",
            WORKLOADS.join(", ")
        )),
    }
}
