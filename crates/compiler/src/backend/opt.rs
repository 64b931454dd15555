//! Shared backend-optimization analyses (ROADMAP item 3).
//!
//! The rotating-register backends (Clockhands and STRAIGHT) share three
//! IR-level optimization problems that are independent of the target's
//! encoding details:
//!
//! * **Distance-aware local scheduling** — reorder independent
//!   instructions within a block so definitions sit close to their
//!   uses. Rotating registers address values by *write distance*, so a
//!   shorter def-use span directly means a shorter operand distance,
//!   fewer forced relays, and fewer spills ([`schedule_function`]).
//! * **Measured-lifetime classification** — decide which block-local
//!   values are short-lived enough for the high-churn hand (`t`) by
//!   simulating the actual write counter of that hand, instead of the
//!   first-fit "instruction span" proxy ([`long_lived_locals`]).
//! * **Loop-constant selection** — choose the values that get pinned in
//!   the write-once hand (`v`) by a greedy weighted
//!   maximum-independent-set over loop bodies
//!   ([`select_loop_constants`]).
//!
//! [`OptConfig`] switches the layer on or off as a whole;
//! `OptConfig::none()` reproduces the pre-optimization backend for A/B
//! comparisons (the `--no-opt` escape hatch and the `figures opt`
//! experiment).

use crate::cfg::{BitSet, LoopInfo};
use crate::ir::{Function, Ins, VReg};
use std::collections::HashMap;

/// Whether the rotating-register backends optimize.
///
/// One switch, because the four optimizations only ever run together:
/// distance-aware scheduling ([`schedule_function`]), the
/// measured-lifetime t/u split ([`long_lived_locals`]), demand-driven
/// relay thresholds with cost-anchored join layouts, and clobber-only
/// callee saves on the `v` hand. [`OptConfig::full`] is the production
/// pipeline; [`OptConfig::none`] is the conservative pre-optimization
/// backend kept for differential testing and measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptConfig {
    /// Run the optimization layer.
    pub optimize: bool,
}

impl OptConfig {
    /// Everything on (the default production pipeline).
    pub fn full() -> OptConfig {
        OptConfig { optimize: true }
    }

    /// Everything off: the conservative pre-optimization backend.
    pub fn none() -> OptConfig {
        OptConfig { optimize: false }
    }

    /// The process-wide configuration (see [`crate::set_optimize`]).
    pub fn current() -> OptConfig {
        OptConfig {
            optimize: crate::optimize_enabled(),
        }
    }
}

/// Distance-aware local scheduling: reorders each block's instructions
/// so values that leave the block are defined as late as the dependences
/// allow, returning the rescheduled function.
///
/// Rotating registers address values by *write distance*, and a block's
/// escaping values are read again at its exits: by the terminator, or by
/// a successor through its entry layout. Sinking their definitions below
/// the block's dead-at-exit work does two things at once — it shortens
/// every exit-visible distance (fewer forced relays), and it makes the
/// hot edge's natural delivery *contiguous*, so join layouts stop
/// containing gap slots that every cold edge must plug with a filler
/// write. The list scheduler is greedy: among ready instructions it
/// picks non-escaping definitions first, in original program order.
///
/// Semantics are preserved exactly: register dependences (RAW/WAR/WAW
/// on vregs) are edges, stores and calls are barriers for every memory
/// operation (loads may reorder only with other loads), and every
/// instruction stays within its block, so the same operations execute
/// on every path. All operations are total (RISC-V division semantics),
/// so reordering cannot change which of them take effect.
pub fn schedule_function(f: &Function) -> Function {
    let live = crate::cfg::liveness(f);
    let mut out = f.clone();
    for (bi, b) in out.blocks.iter_mut().enumerate() {
        let mut term_srcs = BitSet::new(f.num_vregs());
        for s in b.term.srcs() {
            term_srcs.insert(s);
        }
        let order = schedule_block(&b.insts, &live.live_out[bi], &term_srcs);
        let old = std::mem::take(&mut b.insts);
        b.insts = order.into_iter().map(|i| old[i].clone()).collect();
    }
    out
}

/// Computes the scheduled order of one block as indices into `insts`.
/// `live_out` holds the vregs read by successor blocks; `term_srcs` the
/// terminator's own operands (read at the exit but dead beyond it).
fn schedule_block(insts: &[Ins], live_out: &BitSet, term_srcs: &BitSet) -> Vec<usize> {
    let n = insts.len();
    if n < 3 {
        return (0..n).collect();
    }
    // Dependence edges: preds[i] must all be scheduled before i.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut last_def: HashMap<VReg, usize> = HashMap::new();
    let mut uses_since_def: HashMap<VReg, Vec<usize>> = HashMap::new();
    // Memory model: stores and calls are barriers; loads reorder freely
    // between barriers.
    let mut last_barrier: Option<usize> = None;
    let mut loads_since: Vec<usize> = Vec::new();
    for (i, ins) in insts.iter().enumerate() {
        for s in ins.srcs() {
            if let Some(&d) = last_def.get(&s) {
                preds[i].push(d);
            }
            uses_since_def.entry(s).or_default().push(i);
        }
        match ins {
            Ins::Load { .. } => {
                if let Some(bar) = last_barrier {
                    preds[i].push(bar);
                }
                loads_since.push(i);
            }
            Ins::Store { .. } | Ins::Call { .. } => {
                if let Some(bar) = last_barrier {
                    preds[i].push(bar);
                }
                preds[i].append(&mut loads_since);
                last_barrier = Some(i);
            }
            _ => {}
        }
        if let Some(d) = ins.dst() {
            if let Some(&prev) = last_def.get(&d) {
                preds[i].push(prev); // WAW
            }
            if let Some(mut reads) = uses_since_def.remove(&d) {
                reads.retain(|&r| r != i);
                preds[i].append(&mut reads); // WAR
            }
            last_def.insert(d, i);
        }
    }
    let mut missing: Vec<usize> = vec![0; n];
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, ps) in preds.iter().enumerate() {
        let mut seen = ps.clone();
        seen.sort_unstable();
        seen.dedup();
        missing[i] = seen.len();
        for p in seen {
            succs[p].push(i);
        }
    }
    // Greedy list scheduling: dead-at-exit work first, then values the
    // terminator reads, then live-out definitions as late as their
    // consumers allow — so each hand's final writes are exactly the
    // values successors read, making the natural delivery contiguous.
    // Original program order breaks ties deterministically.
    let class = |i: usize| -> u8 {
        match insts[i].dst() {
            Some(d) if live_out.contains(d) => 2,
            Some(d) if term_srcs.contains(d) => 1,
            _ => 0,
        }
    };
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut ready: Vec<usize> = (0..n).filter(|&i| missing[i] == 0).collect();
    while let Some(best) = ready.iter().copied().min_by_key(|&i| (class(i), i)) {
        ready.retain(|&i| i != best);
        order.push(best);
        for &s in &succs[best] {
            missing[s] -= 1;
            if missing[s] == 0 {
                ready.push(s);
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Measured-lifetime classification of block-local values.
///
/// Returns the set of block-local values whose def-use span, measured
/// in *writes to the short-lived hand* along the block, exceeds
/// `span_limit` — these must live in a longer-lived hand or they would
/// be relayed repeatedly. `is_short(v)` says whether `v` currently
/// counts as a write to the short-lived hand (block-local, not pinned,
/// not a constant-zero); the computation iterates to a fixpoint because
/// moving a value out of the hand removes its write and shortens every
/// span that crossed it. Calls reset def positions (values live across
/// a call are reloaded after it), so spans never cross a call.
pub fn long_lived_locals(
    f: &Function,
    span_limit: usize,
    is_candidate: &dyn Fn(VReg) -> bool,
) -> BitSet {
    let mut long = BitSet::new(f.num_vregs());
    loop {
        let mut changed = false;
        for b in &f.blocks {
            // def_at[v] = short-hand write count when v was defined.
            let mut def_at: HashMap<VReg, usize> = HashMap::new();
            let mut writes: usize = 0;
            let in_hand = |v: VReg, long: &BitSet| -> bool { is_candidate(v) && !long.contains(v) };
            for ins in &b.insts {
                for s in ins.srcs() {
                    if let Some(&d) = def_at.get(&s) {
                        if in_hand(s, &long) && writes - d > span_limit && !long.contains(s) {
                            long.insert(s);
                            changed = true;
                        }
                    }
                }
                if let Ins::Call { .. } = ins {
                    // Live values are spilled around the call and
                    // redefined by the reloads; restart every span.
                    let here: Vec<VReg> = def_at.keys().copied().collect();
                    for v in here {
                        def_at.insert(v, writes);
                    }
                }
                if let Some(d) = ins.dst() {
                    def_at.insert(d, writes);
                    if in_hand(d, &long) {
                        writes += 1;
                    }
                }
            }
            for s in b.term.srcs() {
                if let Some(&d) = def_at.get(&s) {
                    if in_hand(s, &long) && writes - d > span_limit && !long.contains(s) {
                        long.insert(s);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            return long;
        }
    }
}

/// Greedy weighted maximum-independent-set selection of loop constants.
///
/// Nodes are the eligible single-definition values (`candidates`, with
/// their loop-depth-weighted use counts as weights); selecting a set is
/// feasible when the write-once hand can hold it: at most `budget`
/// constants overall — the hand is written once per constant at
/// function entry and never again, so every constant's distance is
/// bounded by the selection size — and, per loop body, every constant
/// read inside the loop must still be inside that window. Candidates
/// are taken in decreasing weight order and kept only while the set
/// they join stays independent of these capacity conflicts.
pub fn select_loop_constants(
    f: &Function,
    loops: &LoopInfo,
    candidates: &[(u64, VReg)],
    budget: usize,
) -> Vec<VReg> {
    // Constants read per loop body (node -> incident loops).
    let mut used_in_loop: HashMap<VReg, Vec<usize>> = HashMap::new();
    for (li, (_, body)) in loops.loops.iter().enumerate() {
        for &bi in body {
            let b = &f.blocks[bi];
            let mut note = |v: VReg| {
                let e = used_in_loop.entry(v).or_default();
                if e.last() != Some(&li) {
                    e.push(li);
                }
            };
            for ins in &b.insts {
                for s in ins.srcs() {
                    note(s);
                }
            }
            for s in b.term.srcs() {
                note(s);
            }
        }
    }
    let mut per_loop: Vec<usize> = vec![0; loops.loops.len()];
    let mut chosen: Vec<VReg> = Vec::new();
    let mut sorted = candidates.to_vec();
    sorted.sort_by(|a, b| b.cmp(a));
    for (weight, v) in sorted {
        if weight == 0 || chosen.len() >= budget {
            break;
        }
        // Independence: the loops this constant is read in must keep
        // their resident-constant count within the window.
        let incident = used_in_loop.get(&v);
        let fits = incident
            .map(|ls| ls.iter().all(|&li| per_loop[li] < budget))
            .unwrap_or(true);
        if !fits {
            continue;
        }
        if let Some(ls) = incident {
            for &li in ls {
                per_loop[li] += 1;
            }
        }
        chosen.push(v);
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_ir;

    /// Scheduling must keep each block a permutation of itself.
    #[test]
    fn schedule_is_a_permutation() {
        let src = "global buf: int[16];
            fn main() -> int {
                var a: int = 1;
                var b: int = 2;
                var c: int = 0;
                for (var i: int = 0; i < 10; i += 1) {
                    buf[i & 15] = a;
                    a = a + b;
                    b = b * 3;
                    c = c + buf[(i + 1) & 15];
                }
                return c;
            }";
        let m = build_ir(src).expect("ir");
        for f in &m.funcs {
            let g = schedule_function(f);
            assert_eq!(f.blocks.len(), g.blocks.len());
            for (bf, bg) in f.blocks.iter().zip(&g.blocks) {
                let mut a: Vec<String> = bf.insts.iter().map(|i| format!("{i:?}")).collect();
                let mut b: Vec<String> = bg.insts.iter().map(|i| format!("{i:?}")).collect();
                a.sort();
                b.sort();
                assert_eq!(a, b, "same multiset of instructions");
            }
        }
    }

    /// Stores must never reorder with each other or with loads.
    #[test]
    fn schedule_keeps_memory_order() {
        let src = "global buf: int[16];
            fn main() -> int {
                var x: int = buf[0];
                buf[1] = x + 1;
                var y: int = buf[1];
                buf[2] = y + 2;
                return buf[2];
            }";
        let m = build_ir(src).expect("ir");
        for f in &m.funcs {
            let g = schedule_function(f);
            for (bf, bg) in f.blocks.iter().zip(&g.blocks) {
                let stores = |insts: &[Ins]| -> Vec<String> {
                    insts
                        .iter()
                        .filter(|i| matches!(i, Ins::Store { .. } | Ins::Call { .. }))
                        .map(|i| format!("{i:?}"))
                        .collect()
                };
                assert_eq!(stores(&bf.insts), stores(&bg.insts));
                // Every load stays between the same pair of barriers.
                let barrier_idx = |insts: &[Ins]| -> Vec<(String, usize)> {
                    let mut out = Vec::new();
                    let mut bar = 0usize;
                    for i in insts {
                        match i {
                            Ins::Store { .. } | Ins::Call { .. } => bar += 1,
                            Ins::Load { .. } => out.push((format!("{i:?}"), bar)),
                            _ => {}
                        }
                    }
                    out.sort();
                    out
                };
                assert_eq!(barrier_idx(&bf.insts), barrier_idx(&bg.insts));
            }
        }
    }
}
