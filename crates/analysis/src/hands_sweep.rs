//! The appropriate number of hands (Fig. 7).
//!
//! The paper counts, from RISC-V traces, how many loop-constant relay
//! moves remain when `k` hands are available: a constant of a loop at
//! nesting depth `d` can live in its own hand as long as a hand is free
//! for every enclosing loop level. With one hand reserved for changing
//! values, `k` hands eliminate the relays of constants at depth ≤ `k−1`
//! (and one more level is lost when a hand is pinned to SP/args).

use ch_common::inst::{CtrlKind, DynInst, NO_PRODUCER};
use std::collections::HashSet;

/// Relay-move counts per hand count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HandsSweep {
    /// Total loop-constant relays with a single ring (= STRAIGHT).
    pub baseline: u64,
    /// Remaining relays for k = 1..=8 hands, all general-purpose.
    pub remaining_general: [u64; 8],
    /// Remaining relays for k = 1..=8 hands with one hand fixed to SP.
    pub remaining_with_sp: [u64; 8],
}

impl HandsSweep {
    /// Remaining fraction for `k` hands (the Fig. 7 y-axis).
    pub fn fraction(&self, k: usize, with_sp: bool) -> f64 {
        let rem = if with_sp {
            self.remaining_with_sp[k - 1]
        } else {
            self.remaining_general[k - 1]
        };
        rem as f64 / self.baseline.max(1) as f64
    }
}

/// Runs the sweep over a RISC trace.
///
/// Loop nesting is recovered from backward taken branches; each
/// iteration contributes one relay per distinct outside-defined producer
/// read at each nesting level.
pub fn hands_sweep(trace: &[DynInst]) -> HandsSweep {
    struct Loop {
        head_pc: u64,
        entry_seq: u64,
        call_depth: u32,
        consts: HashSet<u64>,
    }
    let mut stack: Vec<Loop> = Vec::new();
    let mut call_depth = 0u32;
    // relays_by_depth[d] = relays needed for constants of loops at
    // nesting depth d+1 (1-based, counted within the enclosing function —
    // the hand assignment of Section 6.2 is a per-function decision).
    let mut relays_by_depth = [0u64; 64];
    for inst in trace {
        // A read of a producer defined before level-L's entry counts as a
        // level-L constant; the paper assigns it to the innermost loop
        // holding it (the relay an extra hand would remove first).
        if !stack.is_empty() {
            for p in inst.sources() {
                if p == NO_PRODUCER {
                    continue;
                }
                if let Some(l) = stack.iter_mut().rev().find(|l| p < l.entry_seq) {
                    l.consts.insert(p);
                }
            }
        }
        if let Some(ctrl) = inst.ctrl() {
            match ctrl.kind {
                CtrlKind::Call => call_depth += 1,
                CtrlKind::Ret => {
                    call_depth = call_depth.saturating_sub(1);
                    // Loops of the returning function are finished.
                    while stack
                        .last()
                        .map(|l| l.call_depth > call_depth)
                        .unwrap_or(false)
                    {
                        stack.pop();
                    }
                }
                _ => {}
            }
            if ctrl.taken
                && ctrl.target <= inst.pc
                && !ctrl.kind.is_indirect()
                && ctrl.kind != CtrlKind::Call
            {
                if let Some(pos) = stack.iter().position(|l| l.head_pc == ctrl.target) {
                    stack.truncate(pos + 1);
                    let l_call_depth = stack[pos].call_depth;
                    // Nesting within this function only.
                    let depth = stack
                        .iter()
                        .filter(|l| l.call_depth == l_call_depth)
                        .count()
                        .clamp(1, 64);
                    let l = stack.last_mut().expect("nonempty");
                    relays_by_depth[depth - 1] += l.consts.len() as u64;
                    l.consts.clear();
                } else if stack.len() < 64 {
                    stack.push(Loop {
                        head_pc: ctrl.target,
                        entry_seq: inst.seq,
                        call_depth,
                        consts: HashSet::new(),
                    });
                }
            }
        }
    }
    let baseline: u64 = relays_by_depth.iter().sum();
    let mut out = HandsSweep {
        baseline,
        ..Default::default()
    };
    for k in 1..=8usize {
        // k hands, one for changing values: constants of loops nested
        // deeper than k-1 still need relays.
        let covered_general = k.saturating_sub(1);
        let covered_sp = k.saturating_sub(2);
        out.remaining_general[k - 1] = relays_by_depth.iter().skip(covered_general).sum();
        out.remaining_with_sp[k - 1] = relays_by_depth.iter().skip(covered_sp).sum();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_baselines::riscv::asm::assemble;
    use ch_baselines::riscv::interp::Interpreter;
    use ch_common::exec::Machine;

    fn trace_of(src: &str) -> Vec<DynInst> {
        let prog = assemble(src).expect("assembles");
        Interpreter::new(prog)
            .expect("valid")
            .trace(10_000_000)
            .expect("runs")
            .0
    }

    fn nested(levels: usize) -> String {
        // `levels` nested loops, each with a per-level constant bound.
        let mut src = String::new();
        for l in 0..levels {
            src.push_str(&format!("li s{l}, 4\n"));
        }
        for l in 0..levels {
            src.push_str(&format!("li a{l}, 0\n.l{l}:\n"));
        }
        src.push_str("addi t0, t0, 1\n");
        for l in (0..levels).rev() {
            src.push_str(&format!("addi a{l}, a{l}, 1\nbne a{l}, s{l}, .l{l}\n"));
            if l > 0 {
                src.push_str(&format!("li a{l}, 0\n"));
            }
        }
        src.push_str("halt t0");
        src
    }

    #[test]
    fn more_hands_remove_more_relays() {
        let t = trace_of(&nested(3));
        let sweep = hands_sweep(&t);
        assert!(sweep.baseline > 0);
        for k in 1..8 {
            assert!(
                sweep.remaining_general[k] <= sweep.remaining_general[k - 1],
                "remaining must be non-increasing in k"
            );
        }
        // With enough hands everything is covered.
        assert_eq!(sweep.remaining_general[7], 0);
        assert!((sweep.fraction(1, false) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sp_hand_costs_one_level() {
        let t = trace_of(&nested(3));
        let sweep = hands_sweep(&t);
        for k in 2..=8 {
            assert_eq!(
                sweep.remaining_with_sp[k - 1],
                sweep.remaining_general[k - 2]
            );
        }
    }

    #[test]
    fn flat_loop_needs_only_two_hands() {
        let t = trace_of(&nested(1));
        let sweep = hands_sweep(&t);
        assert!(sweep.baseline > 0);
        assert_eq!(
            sweep.remaining_general[1], 0,
            "depth-1 constants covered by k=2"
        );
    }
}
