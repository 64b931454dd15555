//! End-to-end integration: every workload kernel, compiled by the Kern
//! compiler, runs through the functional interpreters and the timing
//! simulator on Table 2 machines, and the headline orderings of the
//! paper's evaluation hold.

use ch_common::config::{MachineConfig, WidthClass};
use ch_common::IsaKind;
use ch_energy::energy;
use ch_sim::Simulator;
use ch_workloads::{Scale, Workload};

/// Instruction budget generous enough for Test scale on every ISA.
const LIMIT: u64 = 80_000_000;

fn sim_one(w: Workload, isa: IsaKind, width: WidthClass) -> ch_common::Counters {
    // trace_on fails unless the run halts with the reference checksum.
    let (trace, _) = w
        .trace_on(Scale::Test, isa, LIMIT)
        .unwrap_or_else(|e| panic!("{e}"));
    Simulator::new(MachineConfig::preset(width, isa)).run(&trace)
}

#[test]
fn counters_are_internally_consistent() {
    for w in [Workload::Coremark, Workload::Xz] {
        for isa in IsaKind::ALL {
            let c = sim_one(w, isa, WidthClass::W8);
            assert!(c.cycles > 0);
            assert_eq!(c.committed, c.decoded);
            assert_eq!(c.committed, c.issued);
            assert!(c.fetched >= c.committed, "{w}/{isa}");
            assert!(c.ipc() > 0.1 && c.ipc() < 8.0, "{w}/{isa} IPC {}", c.ipc());
            assert!(c.branch_mispredicts <= c.branch_preds);
            assert!(c.dcache_misses <= c.dcache_accesses);
            // Top-down accounting closes exactly: every commit slot is a
            // committed instruction or an attributed stall.
            let commit_width = MachineConfig::preset(WidthClass::W8, isa).commit_width;
            assert!(
                c.slots_conserved(commit_width),
                "{w}/{isa}: {} + {} != {} x {}",
                c.committed,
                c.stalls.attributed(),
                commit_width,
                c.cycles
            );
            // ISA-specific event classes are mutually exclusive.
            if isa == IsaKind::Riscv {
                assert!(c.rmt_reads > 0 && c.rp_updates == 0);
            } else {
                assert!(c.rp_updates > 0 && c.rmt_reads == 0);
            }
        }
    }
}

#[test]
fn clockhands_beats_straight_on_every_kernel() {
    // Fig. 13: Clockhands shows equal-or-better performance than
    // STRAIGHT on all benchmarks.
    for w in Workload::ALL {
        let s = sim_one(w, IsaKind::Straight, WidthClass::W8).cycles;
        let c = sim_one(w, IsaKind::Clockhands, WidthClass::W8).cycles;
        assert!(
            c <= s + s / 50,
            "{w}: Clockhands {c} cycles vs STRAIGHT {s}"
        );
    }
}

#[test]
fn clockhands_is_near_risc_performance() {
    // Fig. 13: Clockhands performance is comparable to RISC (the paper
    // reports 97.3–101.6%; we allow a wider band for the first-step
    // compiler's instruction overhead).
    let mut total_r = 0.0;
    let mut total_c = 0.0;
    for w in Workload::ALL {
        total_r += sim_one(w, IsaKind::Riscv, WidthClass::W8).cycles as f64;
        total_c += sim_one(w, IsaKind::Clockhands, WidthClass::W8).cycles as f64;
    }
    let ratio = total_r / total_c;
    assert!(
        ratio > 0.80 && ratio < 1.25,
        "aggregate Clockhands performance {:.1}% of RISC",
        100.0 * ratio
    );
}

#[test]
fn energy_gap_grows_with_width() {
    // Fig. 14: the Clockhands-vs-RISC energy difference moves in
    // Clockhands' favour as the front end widens.
    let gap_at = |width: WidthClass| {
        let mut r = 0.0;
        let mut c = 0.0;
        for w in [Workload::Mcf, Workload::Xz] {
            let cr = sim_one(w, IsaKind::Riscv, width);
            let cc = sim_one(w, IsaKind::Clockhands, width);
            r += energy(&MachineConfig::preset(width, IsaKind::Riscv), &cr).total();
            c += energy(&MachineConfig::preset(width, IsaKind::Clockhands), &cc).total();
        }
        1.0 - c / r
    };
    let g4 = gap_at(WidthClass::W4);
    let g16 = gap_at(WidthClass::W16);
    assert!(
        g16 > g4 + 0.05,
        "savings must grow with width: 4f {:.1}% vs 16f {:.1}%",
        100.0 * g4,
        100.0 * g16
    );
}

#[test]
fn straight_executes_most_instructions() {
    // Fig. 15 ordering: STRAIGHT > Clockhands > RISC on executed counts.
    for w in Workload::ALL {
        let r = sim_one(w, IsaKind::Riscv, WidthClass::W4).committed;
        let s = sim_one(w, IsaKind::Straight, WidthClass::W4).committed;
        let c = sim_one(w, IsaKind::Clockhands, WidthClass::W4).committed;
        assert!(s > c, "{w}: STRAIGHT {s} vs Clockhands {c}");
        assert!(c > r, "{w}: Clockhands {c} vs RISC {r}");
    }
}
