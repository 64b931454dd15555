//! Profiling helper: runs the fast engine serially over the full figure
//! sweep (traces pre-warmed, nothing else timed). Pair it with a
//! sampling profiler to see where the engine's time goes, e.g.:
//!
//! ```text
//! gprofng collect app -o /tmp/prof.er target/release/prof
//! gprofng display text -functions /tmp/prof.er
//! ```

use ch_bench::{relocated, set_jobs, sweep};
use ch_common::config::{MachineConfig, WidthClass};
use ch_common::{EncodingVariant, IsaKind};
use ch_sim::run_fast_profiled;
use ch_workloads::{Scale, Workload};
use std::time::Instant;

fn main() {
    set_jobs(1);
    let scale = match std::env::args().nth(1).as_deref() {
        Some("test") => Scale::Test,
        _ => Scale::Small,
    };
    let pairs: Vec<(Workload, IsaKind)> = Workload::ALL
        .iter()
        .flat_map(|&w| IsaKind::ALL.map(|isa| (w, isa)))
        .collect();
    sweep(&pairs, |&(w, isa)| {
        relocated(w, isa, scale, EncodingVariant::Fixed);
    });
    let reps: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    for _ in 0..reps {
        let mut insts = 0u64;
        let mut check = 0u64;
        let t0 = Instant::now();
        for &(w, isa) in &pairs {
            let r = relocated(w, isa, scale, EncodingVariant::Fixed);
            for width in WidthClass::ALL {
                insts += r.soa.len() as u64;
                check ^=
                    run_fast_profiled(MachineConfig::preset(width, isa), &r.soa, &r.profile).cycles;
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        println!(
            "fast sweep: {insts} insts, {wall:.2}s, {:.2} Minst/s (check {check})",
            insts as f64 / wall / 1e6
        );
    }
}
