//! Compile every benchmark kernel for the three ISAs, run all of them
//! functionally, and print the Fig. 15-style comparison: executed
//! instruction counts and the relay-move overhead that motivates
//! Clockhands.
//!
//! ```sh
//! cargo run --release --example compare_isas
//! ```

use clockhands_repro::common::op::OpClass;
use clockhands_repro::common::IsaKind;
use clockhands_repro::workloads::{Scale, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<12} {:>10} | {:>8} {:>8} | {:>8} {:>8} | paper: S≈1.08–1.56x, C≈0.98–1.17x",
        "workload", "RISC", "S total", "S moves", "C total", "C moves"
    );
    for w in Workload::ALL {
        let set = w.compile(Scale::Test)?;
        let expect = w.reference(Scale::Test);

        let [rt, stt, ct] = IsaKind::ALL.map(|isa| {
            let run = set
                .program(isa)
                .execute(1_000_000_000, true)
                .unwrap_or_else(|e| panic!("{}: {e}", isa.name()));
            assert_eq!(run.result.exit_value, expect, "{} checksum", isa.name());
            run.trace
        });

        let moves = |t: &[clockhands_repro::common::DynInst]| {
            t.iter().filter(|d| d.class == OpClass::Move).count()
        };
        println!(
            "{:<12} {:>10} | {:>7.3}x {:>8} | {:>7.3}x {:>8}",
            w.name(),
            rt.len(),
            stt.len() as f64 / rt.len() as f64,
            moves(&stt),
            ct.len() as f64 / rt.len() as f64,
            moves(&ct),
        );
    }
    println!("\nAll three ISAs computed identical checksums on every kernel.");
    Ok(())
}
