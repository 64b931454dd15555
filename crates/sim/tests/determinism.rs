//! Simulator-level integration properties: determinism, monotonicity in
//! machine size, and sane behaviour of the ISA-specific allocation
//! stalls.

use ch_common::config::{MachineConfig, WidthClass};
use ch_common::exec::Machine;
use ch_common::IsaKind;
use ch_sim::Simulator;
use clockhands::asm::assemble;
use clockhands::interp::Interpreter;

fn trace_of(src: &str) -> Vec<ch_common::DynInst> {
    let prog = assemble(src).expect("assembles");
    Interpreter::new(prog)
        .expect("valid")
        .trace(10_000_000)
        .expect("runs")
        .0
}

fn mixed_workload() -> Vec<ch_common::DynInst> {
    trace_of(
        "li v, 3000
         li u, 8192
         li t, 0
         li t, 1
     .l: addi t, t[1], 1
         mul  t, t[0], t[2]
         and  t, t[0], v[0]
         sd   t[0], 0(u[0])
         ld   t, 0(u[0])
         addi u, u[0], 8
         andi u, u[0], 16383
         addi u, u[1], 8192
         addi t, t[4], 1
         bne  t[0], v[0], .l
         halt t[0]",
    )
}

#[test]
fn identical_runs_are_identical() {
    let t = mixed_workload();
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let a = Simulator::new(cfg.clone()).run(t.iter().cloned());
    let b = Simulator::new(cfg).run(t.iter().cloned());
    assert_eq!(a, b, "the simulator must be deterministic");
}

#[test]
fn cycle_count_monotone_in_machine_size() {
    // A strictly larger machine must not be slower on the same trace.
    let t = mixed_workload();
    let mut prev: Option<u64> = None;
    for w in [WidthClass::W4, WidthClass::W8, WidthClass::W16] {
        let c =
            Simulator::new(MachineConfig::preset(w, IsaKind::Clockhands)).run(t.iter().cloned());
        if let Some(p) = prev {
            assert!(
                c.cycles <= p + p / 20,
                "{w:?} took {} cycles after {p}",
                c.cycles
            );
        }
        prev = Some(c.cycles);
    }
}

#[test]
fn tiny_hand_quota_stalls_allocation() {
    // Shrinking the t quota to barely above the reference distance must
    // cost cycles on a t-write-heavy trace (the Section 5.1 wrap rule):
    // with 18 registers only 2 allocations may be in flight at once.
    let t = mixed_workload();
    let base = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let mut tiny = base.clone();
    let q = base.phys_regs;
    tiny.hand_quotas = Some([18, q - 18 - 64 - 32, 64, 32]);
    let normal = Simulator::new(base).run(t.iter().cloned());
    let starved = Simulator::new(tiny).run(t.iter().cloned());
    assert!(
        starved.cycles > normal.cycles + normal.cycles / 10,
        "an 18-register t ring (2 usable) must stall: {} vs {}",
        starved.cycles,
        normal.cycles
    );
}

#[test]
fn small_rob_costs_cycles_on_memory_latency() {
    // With misses in flight, a 32-entry window cannot hide memory latency
    // the way a 1024-entry window can.
    let t = trace_of(
        "li v, 1500
         li u, 65536
         li t, 0
     .l: slli t, t[0], 13
         add  t, t[0], u[0]
         ld   t, 0(t[0])
         addi t, t[3], 1
         bne  t[0], v[0], .l
         halt t[0]",
    );
    let big = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let mut small = big.clone();
    small.rob = 32;
    let fast = Simulator::new(big).run(t.iter().cloned());
    let slow = Simulator::new(small).run(t.iter().cloned());
    assert!(
        slow.cycles > fast.cycles,
        "32-entry ROB ({}) vs 1024 ({})",
        slow.cycles,
        fast.cycles
    );
}

#[test]
fn straight_ring_counts_every_instruction() {
    // STRAIGHT allocates a slot per instruction: rp_updates == committed.
    use ch_baselines::straight::asm::assemble as st_assemble;
    use ch_baselines::straight::interp::Interpreter as StInterp;
    let prog = st_assemble(
        // The branch occupies a ring slot, so the loop-carried counter is
        // two slots back at the head (and a nop pads the first entry).
        "li 100
         nop
     .l: addi [2], -1
         bne [1], zero, .l
         halt [2]",
    )
    .expect("assembles");
    let mut cpu = StInterp::new(prog).expect("valid");
    let c =
        Simulator::new(MachineConfig::preset(WidthClass::W4, IsaKind::Straight)).run(cpu.records());
    assert_eq!(c.rp_updates, c.committed);
}
