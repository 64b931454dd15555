//! Observability-layer integration properties: the stall-attribution
//! account must be *conservative* (every commit slot is either a
//! committed instruction or an attributed stall — no slot counted twice,
//! none dropped), and tracing must be purely observational (counters
//! byte-identical with tracing on and off).

use ch_common::config::{MachineConfig, WidthClass};
use ch_common::stats::StallReason;
use ch_common::IsaKind;
use ch_sim::{Simulator, TraceBuffer};
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

/// Loads, stores, multiplies, a dependent chain, and a loop branch —
/// enough to touch every stall category's machinery.
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
fn commit_slots_are_conserved_across_widths() {
    let t = mixed_workload();
    for width in [WidthClass::W4, WidthClass::W8, WidthClass::W16] {
        let cfg = MachineConfig::preset(width, IsaKind::Clockhands);
        let commit_width = cfg.commit_width;
        let c = Simulator::new(cfg).run(t.iter().cloned());
        assert!(
            c.slots_conserved(commit_width),
            "{width:?}: committed {} + attributed {} != {} x {}",
            c.committed,
            c.stalls.attributed(),
            commit_width,
            c.cycles
        );
        assert!(
            c.stalls.drain < commit_width as u64,
            "drain is a final-cycle remainder"
        );
    }
}

#[test]
fn attribution_uses_isa_exclusive_categories() {
    // The allocation-stage stall category must match the ISA: RISC may
    // only ever report renamer (free-list) stalls, the distance ISAs
    // only RP-wrap stalls.
    let t = mixed_workload();
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let c = Simulator::new(cfg).run(t.iter().cloned());
    assert_eq!(c.stalls.alloc_rename, 0, "no renamer on Clockhands");
    // The mixed workload is dependence- and store-heavy: the dominant
    // categories must be populated.
    assert!(
        c.stalls.exec_dep > 0 || c.stalls.memory > 0,
        "a dependent chain with memory traffic must show backend stalls"
    );
}

#[test]
fn squash_recovery_is_attributed() {
    // A data-dependent unpredictable branch pattern forces mispredicts;
    // their recovery bubbles must land in `branch_recovery`.
    let t = trace_of(
        "li v, 2000
         li v, 1103515245
         li u, 777
         li t, 0
     .l: mul  u, u[0], v[0]
         addi u, u[0], 12345
         srli s, u[0], 9
         andi s, s[0], 1
         beq  s[0], zero, .e
         addi u, u[0], 1
     .e: addi t, t[0], 1
         bne  t[0], v[1], .l
         halt t[0]",
    );
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let commit_width = cfg.commit_width;
    let c = Simulator::new(cfg).run(t.iter().cloned());
    assert!(c.branch_mispredicts > 50, "pattern must mispredict");
    assert!(
        c.stalls.branch_recovery > 0,
        "mispredict recovery must be attributed: {:?}",
        c.stalls
    );
    assert!(c.slots_conserved(commit_width));
}

#[test]
fn tiny_hand_quota_shows_up_as_rp_stall() {
    // The Section 5.1 wrap rule: starving the t hand must surface as
    // alloc-rp attributed slots, and conservation must still hold.
    let t = mixed_workload();
    let base = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let mut tiny = base.clone();
    let q = base.phys_regs;
    tiny.hand_quotas = Some([18, q - 18 - 64 - 32, 64, 32]);
    let commit_width = tiny.commit_width;
    let normal = Simulator::new(base).run(t.iter().cloned());
    let starved = Simulator::new(tiny).run(t.iter().cloned());
    assert!(
        starved.stalls.alloc_rp > normal.stalls.alloc_rp,
        "starved quota must increase RP-wrap stalls ({} vs {})",
        starved.stalls.alloc_rp,
        normal.stalls.alloc_rp
    );
    assert!(starved.slots_conserved(commit_width));
}

#[test]
fn empty_stream_reports_zero_cycles() {
    // No instructions means no cycles: the conservation identity closes
    // as 0 + 0 == commit_width × 0, with no phantom drain slots.
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let commit_width = cfg.commit_width;
    let c = Simulator::new(cfg).run(std::iter::empty::<ch_common::DynInst>());
    assert_eq!(c.cycles, 0, "an empty stream must not report cycles");
    assert_eq!(c.committed, 0);
    assert_eq!(c.stalls.drain, 0, "no commit slots were ever offered");
    assert_eq!(c.stalls.attributed(), 0);
    assert!(c.slots_conserved(commit_width));
    assert_eq!(c.ipc(), 0.0);
}

#[test]
fn tracing_does_not_change_results() {
    let t = mixed_workload();
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let plain = Simulator::new(cfg.clone()).run(t.iter().cloned());
    let mut traced_sim = Simulator::with_tracer(cfg, TraceBuffer::new());
    let traced = traced_sim.run(t.iter().cloned());
    assert_eq!(plain, traced, "tracing must be purely observational");
    let buf = traced_sim.into_tracer();
    assert_eq!(buf.records().len() as u64, traced.committed);
}

#[test]
fn stage_stamps_are_monotone() {
    let t = mixed_workload();
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let mut sim = Simulator::with_tracer(cfg, TraceBuffer::new());
    sim.run(t.iter().cloned());
    let mut last_commit = 0;
    for r in sim.tracer().records() {
        let s = &r.stamps;
        assert!(s.fetch < s.alloc, "front-end latency separates the two");
        assert_eq!(s.alloc, s.dispatch, "alloc and dispatch share a cycle");
        assert!(s.dispatch < s.issue);
        assert!(s.issue <= s.exec);
        assert!(s.exec < s.complete);
        assert!(s.complete < s.commit);
        assert!(s.commit >= last_commit, "commit is in order");
        last_commit = s.commit;
    }
}

#[test]
fn trace_idle_slots_match_breakdown() {
    // The per-instruction idle_slots recorded in the trace are the same
    // account as the aggregate breakdown (minus the final drain).
    let t = mixed_workload();
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let mut sim = Simulator::with_tracer(cfg, TraceBuffer::new());
    let c = sim.run(t.iter().cloned());
    let per_inst: u64 = sim
        .tracer()
        .records()
        .iter()
        .map(|r| r.stamps.idle_slots)
        .sum();
    assert_eq!(per_inst + c.stalls.drain, c.stalls.attributed());
    // And each reason's total matches the per-record sum.
    for reason in StallReason::ALL {
        let from_trace: u64 = sim
            .tracer()
            .records()
            .iter()
            .filter(|r| r.stamps.stall == reason)
            .map(|r| r.stamps.idle_slots)
            .sum();
        assert_eq!(from_trace, c.stalls.get(reason), "{}", reason.label());
    }
}

#[test]
fn kanata_output_is_well_formed() {
    let t = mixed_workload();
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let mut sim = Simulator::with_tracer(cfg, TraceBuffer::with_limit(100));
    sim.run(t.iter().cloned());
    let k = sim.tracer().to_kanata();
    assert!(k.starts_with("Kanata\t0004\n"));
    assert_eq!(k.lines().filter(|l| l.starts_with("I\t")).count(), 100);
    assert_eq!(k.lines().filter(|l| l.starts_with("R\t")).count(), 100);
    // Cycle advances are strictly positive (monotone timeline).
    assert!(k
        .lines()
        .filter(|l| l.starts_with("C\t"))
        .all(|l| l[2..].parse::<u64>().map(|d| d > 0).unwrap_or(false)));

    let j = sim.tracer().to_jsonl();
    assert_eq!(j.lines().count(), 100);
    assert!(j
        .lines()
        .all(|l| l.starts_with("{\"seq\":") && l.ends_with('}')));
}
