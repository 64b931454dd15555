//! The register-lifetime studies that motivated Clockhands (Fig. 2/4/7):
//! prints the lifetime power law from a RISC trace, the inevitable
//! STRAIGHT instruction increase, and the hand-count sweep that led the
//! authors to H = 4.
//!
//! ```sh
//! cargo run --release --example lifetime_study
//! ```

use clockhands_repro::analysis::{hands_sweep, lifetime_ccdf, lifetimes_of, straight_increase};
use clockhands_repro::common::exec::Machine;
use clockhands_repro::common::IsaKind;
use clockhands_repro::workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = Workload::Coremark;
    let set = w.compile(Scale::Small)?;
    let mut cpu = clockhands_repro::baselines::riscv::interp::Interpreter::new(set.riscv)?;
    let (trace, _) = cpu.trace(1_000_000_000)?;
    println!("RISC trace of {w}: {} instructions\n", trace.len());

    // Fig. 4: the power law.
    let d = lifetimes_of(trace.iter());
    println!("lifetime CCDF (definition frequency with lifetime >= k):");
    for (k, f) in lifetime_ccdf(&d, |_| true) {
        if k.is_power_of_two() && k.trailing_zeros() % 2 == 0 {
            println!("  k = {k:>8}: {f:.6}");
        }
    }

    // Fig. 3: what STRAIGHT inevitably pays.
    let inc = straight_increase(&trace);
    println!(
        "\ninevitable STRAIGHT increase: {:.1}% \
         (nop {:.1}%, mv-MaxDistance {:.1}%, mv-LoopConstant {:.1}%)",
        100.0 * inc.relative(),
        100.0 * inc.nop_convergence as f64 / inc.total_insts as f64,
        100.0 * inc.mv_max_distance as f64 / inc.total_insts as f64,
        100.0 * inc.mv_loop_constant as f64 / inc.total_insts as f64,
    );

    // Fig. 7: how many hands are enough.
    let sweep = hands_sweep(&trace);
    println!("\nremaining loop-constant relays vs hand count:");
    for k in 1..=8 {
        println!(
            "  {k} hands: {:>6.1}% (general)   {:>6.1}% (one hand for SP)",
            100.0 * sweep.fraction(k, false),
            100.0 * sweep.fraction(k, true)
        );
    }
    println!("\n(the paper picks H = 4: ~95% of relays eliminated; more hands barely help)");
    let _ = IsaKind::ALL;
    Ok(())
}
