//! Explore the out-of-order pipeline: run one kernel on every Table 2
//! machine scale for all three ISAs and print IPC, misprediction rates,
//! cache behaviour, and the energy split — a miniature of Fig. 13/14.
//!
//! ```sh
//! cargo run --release --example pipeline_explorer [workload]
//! ```

use clockhands_repro::common::config::{MachineConfig, WidthClass};
use clockhands_repro::common::IsaKind;
use clockhands_repro::energy::energy;
use clockhands_repro::sim::Simulator;
use clockhands_repro::workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "xz".to_string());
    let w = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .unwrap_or(Workload::Xz);
    println!("workload: {w}\n");
    println!(
        "{:<6} {:<12} {:>8} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "width", "ISA", "IPC", "cycles", "mispred%", "L1D-miss", "energy(uJ)", "renamer%"
    );
    let set = w.compile(Scale::Test)?;
    for width in WidthClass::ALL {
        for isa in IsaKind::ALL {
            let cfg = MachineConfig::preset(width, isa);
            let run = set.program(isa).execute(1_000_000_000, true)?;
            let c = Simulator::new(cfg.clone()).run(&run.trace);
            let e = energy(&cfg, &c);
            println!(
                "{:<6} {:<12} {:>8.3} {:>8} {:>9.2}% {:>10} {:>12.2} {:>9.1}%",
                width.label(),
                isa.to_string(),
                c.ipc(),
                c.cycles,
                100.0 * c.mispredict_rate(),
                c.dcache_misses,
                e.total() / 1e6,
                100.0 * e.component("Renamer") / e.total(),
            );
        }
        println!();
    }
    Ok(())
}
