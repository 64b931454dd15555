//! Quickstart: write Clockhands assembly by hand, run it, and watch the
//! hands at work — then let the compiler do the same from C-like source.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use clockhands_repro::common::exec::Machine;
use clockhands_repro::compiler;
use clockhands_repro::core::asm::{assemble, disassemble};
use clockhands_repro::core::hand::Hand;
use clockhands_repro::core::interp::Interpreter;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 1. Hand-written Clockhands assembly (the paper's Fig. 6) ----
    // The loop bound and the stored constant live in the v hand: the loop
    // body never writes v, so their distances stay frozen — no relay
    // moves, unlike STRAIGHT.
    let prog = assemble(
        "li t, 4096       # p
         li t, 0          # i
         li v, 10         # N      (loop constant)
         li v, 42         # value  (loop constant)
         mv u, t[1]       # running pointer
         j .entry
     .loop:
         sw v[0], 0(u[0])
         addi u, u[0], 4
         addi t, t[0], 1
     .entry:
         bne t[0], v[1], .loop
         halt t[0]",
    )?;
    let mut cpu = Interpreter::new(prog)?;
    let result = cpu.run(10_000)?;
    println!(
        "hand-written loop ran {} instructions, exit = {}",
        result.committed, result.exit_value
    );
    println!(
        "memory[4096..4112] = {:?}",
        (0..4)
            .map(|i| cpu.mem().read_u64(4096 + 8 * i))
            .collect::<Vec<_>>()
    );
    // The hands after execution: v still holds the constants.
    println!(
        "v[0] = {}, v[1] = {} (constants never rotated away)",
        cpu.hands().read(Hand::V, 0)?,
        cpu.hands().read(Hand::V, 1)?
    );

    // ---- 2. The same program from Kern source, all three ISAs ----
    let set = compiler::compile(
        "global arr: int[10];
         fn main() -> int {
             for (var i: int = 0; i < 10; i += 1) { arr[i] = 42; }
             return arr[9];
         }",
    )?;
    println!(
        "\ncompiled sizes: riscv={} straight={} clockhands={}",
        set.riscv.len(),
        set.straight.len(),
        set.clockhands.len()
    );

    let mut cpu = Interpreter::new(set.clockhands.clone())?;
    println!("clockhands exit value = {}", cpu.run(1_000_000)?.exit_value);

    println!(
        "\nClockhands code the compiler produced:\n{}",
        disassemble(&set.clockhands)
    );
    Ok(())
}
