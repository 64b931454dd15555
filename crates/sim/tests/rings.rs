//! Regression tests for the simulator's ring-buffer hazards: the
//! sequence-indexed ready ring must never treat a *live* long-range
//! producer as ready-at-cycle-0, and the cycle-indexed issue-bandwidth
//! ring must never alias two live claim windows after a stall longer
//! than the old fixed ring length. Both tests are constructed so they
//! fail against the pre-fix fixed-size rings (64 Ki ready entries,
//! 16 Ki bandwidth entries).

use ch_common::config::{MachineConfig, WidthClass};
use ch_common::inst::DynInst;
use ch_common::op::OpClass;
use ch_common::IsaKind;
use ch_sim::{Simulator, TraceBuffer};

/// Pre-fix ready-ring length: dependence distances beyond this used to
/// silently read "ready at cycle 0".
const OLD_READY_RING: u64 = 1 << 16;
/// Pre-fix bandwidth-ring length: claim cycles this far apart used to
/// alias the same slot.
const OLD_BW_RING: u64 = 1 << 14;

fn alu(seq: u64) -> DynInst {
    DynInst::new(seq, 0x1000 + seq * 4, OpClass::IntAlu)
}

/// A dependence distance larger than the old fixed ready ring (but
/// inside the ROB, so the producer is genuinely live) must still
/// serialise the consumer behind the producer's completion.
///
/// The producer is a cold-missing load with a huge memory latency; the
/// consumer is a dependent load to a second cold address. Fixed
/// behaviour: the consumer's miss starts only after the producer's miss
/// returns, so the run takes about two memory round trips. The pre-fix
/// ring reported the far producer ready at cycle 0, letting the
/// consumer's miss overlap the producer's — about one round trip.
#[test]
fn dependence_beyond_old_ready_ring_still_binds() {
    const FILLERS: u64 = 70_000; // distance 70_001 > 1 << 16
    const MEM_LAT: u32 = 500_000;
    const { assert!(FILLERS + 1 > OLD_READY_RING) };

    let mut cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    cfg.rob = 1 << 17; // keep the far producer inside the window
    cfg.mem_latency = MEM_LAT;

    let mut trace = Vec::with_capacity(FILLERS as usize + 2);
    trace.push(DynInst::new(0, 0x1000, OpClass::Load).with_mem(0x10_0000, 8));
    for seq in 1..=FILLERS {
        trace.push(alu(seq));
    }
    let last = FILLERS + 1;
    trace.push(
        DynInst::new(last, 0x1000 + last * 4, OpClass::Load)
            .with_srcs(&[0])
            .with_mem(0x90_0000, 8),
    );

    let c = Simulator::new(cfg).run(trace);
    assert_eq!(c.committed, FILLERS + 2);
    // Two serialised memory round trips; the overlapped (buggy) schedule
    // finishes in roughly one (~510k cycles here).
    assert!(
        c.cycles > 9 * MEM_LAT as u64 / 5,
        "far producer must delay its consumer: {} cycles",
        c.cycles
    );
}

/// Issue-bandwidth claims separated by more than the old ring length
/// must not alias: under the pre-fix 16 Ki ring, a consumer group
/// waiting out a long miss claimed a far cycle `S`, an early filler
/// claim at `S mod 16384` then destroyed that slot, and a second
/// consumer group re-claimed `S` from scratch — issuing twice the
/// machine's issue width in one cycle.
///
/// The trace self-calibrates: a first run measures the consumer select
/// cycle's fixed offset from the memory latency, a second run picks the
/// latency so the select cycle lands exactly on a filler-swept residue
/// of the old ring.
#[test]
fn issue_bandwidth_survives_stalls_past_old_ring() {
    const GROUP: u64 = 8; // one issue_width worth of consumers
    const FILLERS: u64 = 240; // sweep ~30 low cycles, stay inside the scheduler

    let build = |mem_latency: u32| {
        let mut cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
        cfg.mem_latency = mem_latency;
        let mut trace = Vec::new();
        trace.push(DynInst::new(0, 0x1000, OpClass::Load).with_mem(0x10_0000, 8));
        let mut seq = 1;
        // First consumer group: ALU ops claiming the far select cycle
        // (and booking the integer units there).
        for _ in 0..GROUP {
            trace.push(alu(seq).with_srcs(&[0]));
            seq += 1;
        }
        // Independent fillers on the *multiplier* units, so their issue
        // claims sweep the low cycles without contending for the units
        // the consumer groups booked in the far future.
        for _ in 0..FILLERS {
            trace.push(DynInst::new(seq, 0x1000 + seq * 4, OpClass::IntMul));
            seq += 1;
        }
        // Second consumer group on the FP units: free units at the far
        // cycle, so their issue stamps expose the bandwidth count there.
        for _ in 0..GROUP {
            trace.push(DynInst::new(seq, 0x1000 + seq * 4, OpClass::Fp).with_srcs(&[0]));
            seq += 1;
        }
        (cfg, trace)
    };

    let issue_stamps = |mem_latency: u32| -> Vec<u64> {
        let (cfg, trace) = build(mem_latency);
        let mut sim = Simulator::with_tracer(cfg.clone(), TraceBuffer::new());
        let c = sim.run(trace);
        assert!(c.slots_conserved(cfg.commit_width));
        sim.tracer()
            .records()
            .iter()
            .map(|r| r.stamps.issue)
            .collect()
    };

    // Phase 1: the consumers select at `mem_latency + delta` for a
    // trace-constant delta (the only memory access is the seq-0 load).
    let m0 = 400_000u32;
    let s0 = issue_stamps(m0)[1];
    let delta = s0 - m0 as u64;

    // Phase 2: land the consumer select cycle on residue 20 of the old
    // ring — a cycle the independent fillers are guaranteed to claim.
    let target = 30 * OLD_BW_RING + 20;
    let m = (target - delta) as u32;
    let stamps = issue_stamps(m);
    let s = stamps[1];
    assert_eq!(s, m as u64 + delta, "select offset must be trace-constant");
    assert!(
        stamps
            .iter()
            .any(|&i| i != s && i % OLD_BW_RING == s % OLD_BW_RING),
        "a filler claim must hit the consumer cycle's old-ring slot"
    );

    // The hazard check proper: no cycle may issue more than issue_width
    // instructions. Under the aliasing ring both consumer groups claimed
    // cycle `s`, doubling its count.
    let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
    let mut by_cycle = std::collections::HashMap::new();
    for &i in &stamps {
        *by_cycle.entry(i).or_insert(0u32) += 1;
    }
    let (&worst_cycle, &worst) = by_cycle.iter().max_by_key(|&(_, &n)| n).expect("nonempty");
    assert!(
        worst <= cfg.issue_width,
        "cycle {worst_cycle} issued {worst} > issue width {}",
        cfg.issue_width
    );
    // Both consumer groups contend for cycle `s`: the first fills it,
    // the second must be pushed strictly past it (the aliasing ring
    // instead re-claimed `s` from a destroyed count).
    assert!(stamps[1..=GROUP as usize].iter().all(|&i| i == s));
    let late = &stamps[stamps.len() - GROUP as usize..];
    assert!(
        late.iter().all(|&i| i > s && i <= s + GROUP),
        "second group must issue after the full cycle {s}: {late:?}"
    );
}
