//! The inevitable STRAIGHT instruction increase, from a RISC trace
//! (Fig. 3 of the paper).
//!
//! The paper converts a RISC-V trace "as is" and counts the mv/nop
//! instructions STRAIGHT would be forced to add:
//!
//! * **mv-MaxDistance** — a value with lifetime `k` needs `⌊k/M⌋` relay
//!   moves (M = 127),
//! * **mv-LoopConstant** — a value defined before a loop and read inside
//!   it needs one relay per iteration,
//! * **nop** — a convergence point entered by fall-through needs padding.

use crate::lifetime::lifetimes_of;
use ch_common::inst::{DynInst, NO_PRODUCER};
use std::collections::{HashMap, HashSet};

/// STRAIGHT's maximum reference distance.
const M: u64 = 127;

/// Counts of inevitable additional instructions (Fig. 3 categories).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StraightIncrease {
    /// Relay moves to keep long-life values within the reference window.
    pub mv_max_distance: u64,
    /// Relay moves to keep loop constants at a fixed distance.
    pub mv_loop_constant: u64,
    /// Padding at fall-through convergence points.
    pub nop_convergence: u64,
    /// Instructions in the analysed trace.
    pub total_insts: u64,
}

impl StraightIncrease {
    /// The total relative increase (the paper reports ≈35% on average
    /// over SPEC).
    pub fn relative(&self) -> f64 {
        (self.mv_max_distance + self.mv_loop_constant + self.nop_convergence) as f64
            / self.total_insts.max(1) as f64
    }
}

/// Analyses a RISC trace for the lower bound of Fig. 3.
///
/// Loops are recovered from the trace as backward taken branches; an
/// iteration's loop constants are the distinct producers defined before
/// the loop was entered but read during the iteration.
pub fn straight_increase(trace: &[DynInst]) -> StraightIncrease {
    let mut out = StraightIncrease {
        total_insts: trace.len() as u64,
        ..Default::default()
    };

    // ---- mv-MaxDistance: per definition, floor(lifetime / M). ----
    let dist = lifetimes_of(trace.iter());
    out.mv_max_distance = dist.defs.iter().map(|&(_, _, l)| l / M).sum();

    // ---- mv-LoopConstant: per iteration, constants referenced. ----
    // A backward taken branch marks a loop; its target PC identifies it.
    // We track the innermost active loop: entry seq + per-iteration set
    // of outside-defined producers read.
    struct Loop {
        head_pc: u64,
        entry_seq: u64,
        consts_this_iter: HashSet<u64>,
    }
    let mut stack: Vec<Loop> = Vec::new();
    for inst in trace {
        if let Some(l) = stack.last_mut() {
            for p in inst.sources() {
                if p != NO_PRODUCER && p < l.entry_seq {
                    l.consts_this_iter.insert(p);
                }
            }
        }
        if let Some(ctrl) = inst.ctrl() {
            if ctrl.taken && ctrl.target <= inst.pc {
                // Backward taken branch: iteration boundary.
                if let Some(pos) = stack.iter().position(|l| l.head_pc == ctrl.target) {
                    // Exiting any nested loops that did not close.
                    stack.truncate(pos + 1);
                    let l = stack.last_mut().expect("nonempty");
                    out.mv_loop_constant += l.consts_this_iter.len() as u64;
                    l.consts_this_iter.clear();
                } else {
                    stack.push(Loop {
                        head_pc: ctrl.target,
                        entry_seq: inst.seq,
                        consts_this_iter: HashSet::new(),
                    });
                }
            }
        }
        // Bound the stack (irreducible traces).
        if stack.len() > 64 {
            stack.remove(0);
        }
    }

    // ---- nop at convergence points entered by fall-through. ----
    // A PC is a convergence point if it is both a branch target and
    // reachable by fall-through. Count fall-through entries to such PCs.
    let mut targets: HashSet<u64> = HashSet::new();
    for inst in trace {
        if let Some(c) = inst.ctrl() {
            targets.insert(c.target);
        }
    }
    let mut fallthrough_entries: HashMap<u64, u64> = HashMap::new();
    let mut prev: Option<&DynInst> = None;
    for inst in trace {
        if let Some(p) = prev {
            let fell_through = p.pc + 4 == inst.pc && !p.redirects_fetch();
            if fell_through && targets.contains(&inst.pc) {
                *fallthrough_entries.entry(inst.pc).or_default() += 1;
            }
        }
        prev = Some(inst);
    }
    out.nop_convergence = fallthrough_entries.values().sum();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_baselines::riscv::asm::assemble;
    use ch_baselines::riscv::interp::Interpreter;

    fn trace_of(src: &str) -> Vec<DynInst> {
        let prog = assemble(src).expect("assembles");
        Interpreter::new(prog)
            .expect("valid")
            .trace(10_000_000)
            .expect("runs")
            .0
    }

    #[test]
    fn loop_constant_counted_per_iteration() {
        // `a1` (the bound) is defined before the loop and read each
        // iteration: one relay per iteration.
        let t = trace_of(
            "li a1, 50
             li a0, 0
         .l: addi a0, a0, 1
             bne a0, a1, .l
             halt a0",
        );
        let inc = straight_increase(&t);
        // 49 back-edge iterations observe the constant a1 (and the
        // loop-carried a0 whose def moves inside).
        assert!(inc.mv_loop_constant >= 45, "got {}", inc.mv_loop_constant);
        assert!(inc.mv_loop_constant <= 110, "got {}", inc.mv_loop_constant);
    }

    #[test]
    fn long_life_values_need_distance_relays() {
        // A value read after ~1000 instructions needs ⌊1000/127⌋ relays.
        let mut src = String::from("li a1, 77\nli a0, 0\n");
        for _ in 0..1000 {
            src.push_str("addi a0, a0, 1\n");
        }
        src.push_str("add a0, a0, a1\nhalt a0");
        let t = trace_of(&src);
        let inc = straight_increase(&t);
        assert!(
            (7..=9).contains(&inc.mv_max_distance),
            "expected ≈ 1002/127 relays, got {}",
            inc.mv_max_distance
        );
    }

    #[test]
    fn straightline_code_needs_nothing() {
        let t = trace_of("li a0, 1\naddi a0, a0, 2\nhalt a0");
        let inc = straight_increase(&t);
        assert_eq!(inc.mv_loop_constant, 0);
        assert_eq!(inc.mv_max_distance, 0);
        assert_eq!(inc.nop_convergence, 0);
    }

    #[test]
    fn convergence_points_counted() {
        // A join entered by fall-through on one path and by a jump on the
        // other, alternating over a loop: half the entries need the nop.
        let t = trace_of(
            "li a2, 10
             li a0, 0
         .loop:
             andi a3, a0, 1
             beq a3, zero, .even
             addi a1, zero, 5
             j .join
         .even:
             addi a1, zero, 6
         .join:
             addi a0, a0, 1
             bne a0, a2, .loop
             halt a1",
        );
        let inc = straight_increase(&t);
        // 5 even iterations fall into .join, plus the initial
        // fall-through entry into .loop (also a branch target).
        assert_eq!(inc.nop_convergence, 6);
    }

    #[test]
    fn relative_increase_is_bounded() {
        let t = trace_of(
            "li a1, 100
             li a0, 0
         .l: addi a0, a0, 1
             bne a0, a1, .l
             halt a0",
        );
        let inc = straight_increase(&t);
        let r = inc.relative();
        assert!(r > 0.0 && r < 1.5, "relative increase {r}");
    }
}
