//! Clockhands backend: hand assignment + per-hand distance fixing
//! (Section 6 of the paper).
//!
//! Hand assignment (Section 6.2):
//! * **s** — the calling convention's hand: return address, arguments,
//!   SP, and return values. No general values live here; between calls
//!   the frame invariant is simply "SP is `s[0]`".
//! * **v** — loop constants: single-definition values defined in the
//!   entry block, ranked by loop-depth-weighted use count. They are
//!   *never relayed*: nothing inside a loop writes `v`, so their
//!   distance is frozen — this removes STRAIGHT's mv-LoopConstant
//!   relays. Per the convention the top 8 `v` registers are callee-saved
//!   (functions save and re-write the caller's `v[0..k-1]`).
//! * **t** — block-local temporaries (most writes, Fig. 16).
//! * **u** — everything longer-lived; relayed on CFG edges like
//!   STRAIGHT, but only counting `u` writes, so far fewer relays.
//!
//! Because jumps and branches have no dst-hand, edges need no `nop`
//! adjustment (Section 3.3(3)), and because each hand rotates
//! independently, a block's live values cost relays only in their own
//! hand.
//!
//! The per-hand distance fixing is the shared ring-position core
//! (`ring.rs`); this module supplies the hand assignment, the spill
//! policy and the calling convention.

use super::opt::{long_lived_locals, select_loop_constants, OptConfig};
use super::ring::{self, Core, Loc, RingIsa, Stability, RA_OFF};
use crate::cfg::{BitSet, Liveness, LoopInfo};
use crate::ir::{Function, Ins, Module, Term, VReg};
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use clockhands::hand::{Hand, MAX_ARGS};
use clockhands::inst::{Inst as ChInst, Src};
use clockhands::program::Program;
use std::collections::{HashMap, HashSet};

/// Per-hand in-block relay threshold (the hard limit is
/// [`Hand::max_src_distance`]: 15 on t/u/v, 14 on `s`).
const RELAY_AT: i64 = 12;
/// Maximum encodable distance on t/u/v, from the shared ISA definition.
const MAX_DIST: i64 = Hand::T.max_src_distance() as i64;

/// Compiles a module to a Clockhands program (with a `_start` stub)
/// using the process-wide optimization configuration.
///
/// # Errors
///
/// Returns a description of any unsatisfiable constraint.
pub fn compile(module: &Module) -> Result<Program, String> {
    compile_with(module, &OptConfig::current())
}

/// Compiles a module with an explicit optimization configuration
/// (`OptConfig::none()` reproduces the conservative pre-optimization
/// backend, for A/B measurement and differential testing).
///
/// # Errors
///
/// Returns a description of any unsatisfiable constraint.
pub fn compile_with(module: &Module, opt: &OptConfig) -> Result<Program, String> {
    ring::compile::<Hands>(module, opt)
}

/// One function's hand assignment and spill plan.
struct Hands {
    /// Assigned hand per vreg.
    assign: Vec<Hand>,
    /// v-assigned vregs (never relayed; defined in the entry block).
    v_set: BitSet,
    /// Number of own v writes.
    v_count: usize,
    /// Convention window slots restored at every return (8 whenever this
    /// function writes v at all, else 0).
    v_restore_count: usize,
    /// The subset of restored slots that must go through the stack; the
    /// rest are re-established from deeper ring positions (clobber-only
    /// saves — see `prologue`).
    v_stack_saved: Vec<usize>,
    /// Stack-resident vregs (demoted when a hand's live-in set exceeds
    /// its capacity): loaded on use, stored through on definition.
    stack_set: BitSet,
    /// Frame offset of the caller-v saves.
    vsave_off: i32,
}

impl Hands {
    /// Counts the short-hand writes the stack reloads for `srcs` can
    /// emit before an instruction's operand reads.
    fn reload_writes(cg: &Core<'_, Self>, srcs: &[VReg]) -> i64 {
        srcs.iter()
            .filter(|&&s| cg.isa.stack_set.contains(s) && !cg.zero_vregs.contains(s))
            .count() as i64
    }

    /// Stores `value` at frame offset `offset`.
    fn store(cg: &mut Core<'_, Self>, value: Src, offset: i32) -> Result<(), String> {
        let base = Self::sp_src(cg)?;
        cg.push(ChInst::Store {
            op: StoreOp::Sd,
            value,
            base,
            offset,
        });
        Ok(())
    }
}

/// Clockhands as a ring ISA: one ring per hand; `t` and `u` are relayed
/// on edges, `v` and `s` never.
impl RingIsa for Hands {
    type O = clockhands::inst::Clockhands;
    const NAME: &'static str = "Clockhands";
    const MAX_PARAMS: usize = MAX_ARGS;
    const EDGE_RINGS: &'static [Hand] = &[Hand::T, Hand::U];
    const CONVENTION: Hand = Hand::S;
    /// `main`'s return value (`s[0]` is the restored SP).
    const EXIT: Src = Src::Hand(Hand::S, 1);
    const MAX_DIST: i64 = MAX_DIST;
    const RELAY_AT: i64 = RELAY_AT;
    const LIMIT: i64 = 12;
    const STABILITY: Stability = Stability::SamePred;
    const PASS_CAP: usize = 32;
    const COST_ANCHOR: bool = true;
    const KEEP_CALL_ARGS: bool = false;

    fn ring(h: Hand) -> usize {
        h.index()
    }

    fn src_at(h: Hand, dist: i64) -> Src {
        Src::Hand(h, dist as u8)
    }

    fn max_dist(h: Hand) -> i64 {
        h.max_src_distance() as i64
    }

    fn plan(
        f: &Function,
        live: &Liveness,
        loops: &LoopInfo,
        zero_vregs: &BitSet,
        optimize: bool,
    ) -> (Self, Vec<Vec<Vec<VReg>>>) {
        let mut defs: HashMap<VReg, u32> = HashMap::new();
        let mut def_block: HashMap<VReg, usize> = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for d in b.insts.iter().filter_map(Ins::dst) {
                *defs.entry(d).or_default() += 1;
                def_block.insert(d, bi);
            }
        }

        // ---- Hand assignment ----
        let has_calls = f
            .blocks
            .iter()
            .any(|b| b.insts.iter().any(|i| matches!(i, Ins::Call { .. })));
        // With calls only the 8 callee-saved v registers are reliable.
        let v_budget = if has_calls { 8 } else { 15 };
        let mut benefit: HashMap<VReg, u64> = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate().skip(1) {
            let w = 1 + 100 * loops.depth[bi] as u64;
            for s in b.insts.iter().flat_map(Ins::srcs).chain(b.term.srcs()) {
                *benefit.entry(s).or_default() += w;
            }
        }
        let is_param = |v: VReg| f.params.contains(&v);
        let v_candidates: Vec<(u64, VReg)> = benefit
            .iter()
            .filter(|(&v, _)| {
                if zero_vregs.contains(v) {
                    return false;
                }
                let single_entry_def = defs.get(&v) == Some(&1) && def_block.get(&v) == Some(&0);
                let pristine_param = is_param(v) && !defs.contains_key(&v);
                single_entry_def || pristine_param
            })
            .map(|(&v, &b)| (b, v))
            .collect();
        // Greedy weighted MIS over loop bodies (the paper's scheme):
        // candidates in decreasing benefit order, kept while the v
        // window's per-loop and global capacity holds.
        let chosen = select_loop_constants(f, loops, &v_candidates, v_budget);
        let mut v_set = BitSet::new(f.num_vregs());
        for &v in &chosen {
            v_set.insert(v);
        }
        let v_count = chosen.len();

        // t vs u (Section 4.3): short-lived results go to t, the rest to
        // u. Cross-block values are long-lived by definition. Block-local
        // values go to u when their def-use span exceeds what the t ring
        // can hold: measured in actual t writes when optimizing,
        // approximated by raw instruction span otherwise.
        let mut crosses = BitSet::new(f.num_vregs());
        for b in 0..f.blocks.len() {
            crosses.union_with(&live.live_in[b]);
            crosses.union_with(&live.live_out[b]);
        }
        const SPAN_LIMIT: usize = 10;
        let long_span = if optimize {
            let is_t_local =
                |v: VReg| !crosses.contains(v) && !zero_vregs.contains(v) && !v_set.contains(v);
            long_lived_locals(f, SPAN_LIMIT, &is_t_local)
        } else {
            let mut long_span = BitSet::new(f.num_vregs());
            for b in &f.blocks {
                let mut first_def: HashMap<VReg, usize> = HashMap::new();
                for (i, ins) in b.insts.iter().enumerate() {
                    for src in ins.srcs() {
                        if let Some(&d) = first_def.get(&src) {
                            if i - d > SPAN_LIMIT {
                                long_span.insert(src);
                            }
                        }
                    }
                    if let Some(d) = ins.dst() {
                        first_def.entry(d).or_insert(i);
                    }
                }
                for src in b.term.srcs() {
                    if let Some(&d) = first_def.get(&src) {
                        if b.insts.len() - d > SPAN_LIMIT {
                            long_span.insert(src);
                        }
                    }
                }
            }
            long_span
        };
        let assign: Vec<Hand> = (0..f.num_vregs() as u32)
            .map(|v| {
                if v_set.contains(v) {
                    Hand::V
                } else if crosses.contains(v) || long_span.contains(v) {
                    Hand::U
                } else {
                    Hand::T
                }
            })
            .collect();

        // Canonical edge orders: t and u live-ins ascending; v and zero
        // vregs are never relayed.
        let mut entry_order: Vec<Vec<Vec<VReg>>> = live
            .live_in
            .iter()
            .map(|s| {
                let mut t = Vec::new();
                let mut u = Vec::new();
                for v in s.iter() {
                    if zero_vregs.contains(v) || v_set.contains(v) {
                        continue;
                    }
                    match assign[v as usize] {
                        Hand::T => t.push(v),
                        Hand::U => u.push(v),
                        _ => {}
                    }
                }
                vec![t, u]
            })
            .collect();

        // ---- Capacity: demote low-benefit values to the stack when a
        // block's u live-ins exceed what edge relays can rotate (7 of the
        // 16 u registers, leaving headroom for the relay sequence). ----
        let mut full_benefit: HashMap<VReg, u64> = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            let w = 1 + 100 * loops.depth[bi] as u64;
            for src in b.insts.iter().flat_map(Ins::srcs) {
                *full_benefit.entry(src).or_default() += w;
            }
        }
        let mut stack_set = BitSet::new(f.num_vregs());
        const EDGE_CAP: usize = 7;
        while let Some(u) = entry_order
            .iter()
            .map(|o| &o[1])
            .find(|u| u.len() > EDGE_CAP)
        {
            let victim = *u
                .iter()
                .min_by_key(|v| full_benefit.get(v).copied().unwrap_or(0))
                .expect("an over-full u list is non-empty");
            stack_set.insert(victim);
            for o in &mut entry_order {
                o[1].retain(|&x| x != victim);
            }
        }

        // Callee-save plan for the v window: every return re-establishes
        // the caller's v[0..8) (whenever this function writes v at all,
        // its own writes shift all eight). With clobber-only saves, the
        // caller values still reachable in the ring at the epilogue are
        // restored by relays and only the rest go through the stack:
        //  * leaf with v_count <= 8: restoring v[j] (j = 7 down to 0)
        //    reads ring distance v_count + 7 <= 15 — nothing stacked;
        //  * with calls: an inner call preserves only the top-8 window,
        //    so the v_count deepest caller values fall out — stack those;
        //  * v_count > 8 (leaf-only; the call budget is 8): ring
        //    restores would read past the window — stack all eight.
        let v_restore_count = if v_count > 0 { 8 } else { 0 };
        let v_stack_saved: Vec<usize> = if v_count == 0 {
            Vec::new()
        } else if !optimize || v_count > 8 {
            (0..8).collect()
        } else if has_calls {
            (8 - v_count..8).collect()
        } else {
            Vec::new()
        };
        let plan = Hands {
            assign,
            v_set,
            v_count,
            v_restore_count,
            v_stack_saved,
            stack_set,
            vsave_off: 0,
        };
        (plan, entry_order)
    }

    fn dst_for(cg: &Core<'_, Self>, v: VReg) -> Hand {
        cg.isa.assign[v as usize]
    }

    fn sp_src(cg: &Core<'_, Self>) -> Result<Src, String> {
        let d = cg.counters[Hand::S.index()] - 1 - cg.sp_pos;
        if !(0..=Hand::S.max_src_distance() as i64).contains(&d) {
            return Err(format!("{}: SP at s-distance {d}", cg.f.name));
        }
        Ok(Src::Hand(Hand::S, d as u8))
    }

    /// The fixed early margin `RELAY_AT` is kept even when optimizing:
    /// placing a provably-needed relay *earlier* costs nothing
    /// statically and buys out-of-order slack — measured on the
    /// workload suite, demand-placement (relaying at the last legal
    /// point) emitted the identical instruction count but ran 0.3–1.8%
    /// more cycles because the relay `mv` lands next to its consumer
    /// and its hop latency goes on the critical path. What optimizing
    /// *does* change is the overflow accounting: the threshold is
    /// capped so the writes this instruction can emit (stack reloads
    /// plus its own definition) can never push a kept value past the
    /// hard limit, where the unoptimized backend trusts a fixed slack
    /// of 3.
    fn ins_threshold(cg: &Core<'_, Self>, ins: &Ins, _: &HashSet<VReg>) -> i64 {
        if !cg.optimize {
            return RELAY_AT;
        }
        // A call's result write lands after `loc` is rebuilt from
        // scratch, so only the reloads shift values that survive into
        // their pre-call reads.
        let own = match ins {
            Ins::Call { .. } => 0,
            _ => ins
                .dst()
                .map_or(0, |d| i64::from(!cg.zero_vregs.contains(d))),
        };
        RELAY_AT.min(MAX_DIST + 1 - (Self::reload_writes(cg, &ins.srcs()) + own))
    }

    /// Before the terminator: its operand reloads, plus the epilogue's
    /// return-address load that precedes the return-value read.
    /// Join-edge fix writes guard their own reads.
    fn term_threshold(cg: &Core<'_, Self>, term: &Term) -> i64 {
        if !cg.optimize {
            return RELAY_AT;
        }
        let ra = i64::from(matches!(term, Term::Ret(_)));
        RELAY_AT.min(MAX_DIST + 1 - (Self::reload_writes(cg, &term.srcs()) + ra))
    }

    /// A value read here for the last time is not kept by the ordinary
    /// relay pass, but it must still be in reach *after* the stack
    /// reloads that precede the read; with many stack-resident operands
    /// a fixed slack does not cover that.
    fn before_relays(cg: &mut Core<'_, Self>, ins: &Ins) -> Result<(), String> {
        if !cg.optimize {
            return Ok(());
        }
        let srcs = ins.srcs();
        let reloads = Self::reload_writes(cg, &srcs);
        if reloads > 0 {
            cg.relay_over(MAX_DIST + 1 - reloads, |v| srcs.contains(&v))?;
        }
        Ok(())
    }

    fn relayable(cg: &Core<'_, Self>, v: VReg, l: Loc<Hand>) -> bool {
        !matches!(l.ring, Hand::V | Hand::S) && !cg.isa.stack_set.contains(v)
    }

    /// v survives calls (callee-saved); stack-resident values are
    /// already in memory.
    fn spilled_across_call(cg: &Core<'_, Self>, v: VReg, l: Loc<Hand>) -> bool {
        !cg.isa.stack_set.contains(v) && l.ring != Hand::V
    }

    /// Frame: the caller-v saves follow the return address; every
    /// stack-resident value gets a slot, v values never need one.
    fn reserve_frame(cg: &mut Core<'_, Self>, spills: &mut BitSet) -> i32 {
        cg.isa.vsave_off = 8;
        spills.union_with(&cg.isa.stack_set);
        for v in cg.isa.v_set.iter() {
            spills.remove(v);
        }
        8 * cg.isa.v_stack_saved.len() as i32
    }

    /// Reloads a stack-resident vreg that has no position in reach, so a
    /// following read succeeds.
    fn reload(cg: &mut Core<'_, Self>, v: VReg) -> Result<(), String> {
        if !cg.isa.stack_set.contains(v) || cg.zero_vregs.contains(v) {
            return Ok(());
        }
        if let Some(&l) = cg.loc.get(&v) {
            // Two writes of slack below the hand's hard limit, so the
            // reload itself plus one interleaved write cannot push the
            // value out of range before the read.
            if cg.dist(l) <= l.ring.max_src_distance() as i64 - 2 {
                return Ok(());
            }
        }
        let offset = *cg
            .spill_off
            .get(&v)
            .ok_or_else(|| format!("{}: v{v} has no stack slot", cg.f.name))?;
        let h = cg.isa.assign[v as usize];
        let base = Self::sp_src(cg)?;
        cg.define(v, h);
        cg.push(ChInst::Load {
            op: LoadOp::Ld,
            dst: h,
            base,
            offset,
        });
        Ok(())
    }

    fn write_through(cg: &mut Core<'_, Self>, v: VReg) -> Result<(), String> {
        if !cg.isa.stack_set.contains(v) || cg.zero_vregs.contains(v) {
            return Ok(());
        }
        let offset = cg.spill_off[&v];
        let value = cg.src(v)?;
        Self::store(cg, value, offset)
    }

    /// After the return t/u positions are dead, v is preserved by the
    /// convention, and `s[0]` is the restored SP, `s[1]` the return
    /// value, which moves out of `s` at once (s churns at every call).
    fn after_call(cg: &mut Core<'_, Self>, dst: Option<VReg>) -> Result<(), String> {
        cg.loc.retain(|_, l| l.ring == Hand::V);
        let sc = cg.counters[Hand::S.index()];
        let new_sc = sc + 1 + i64::from(dst.is_some());
        cg.counters[Hand::S.index()] = new_sc;
        cg.sp_pos = new_sc - 1;
        if let Some(d) = dst {
            cg.loc.insert(
                d,
                Loc {
                    ring: Hand::S,
                    pos: sc,
                },
            );
            let h = cg.isa.assign[d as usize];
            let src = cg.src(d)?;
            cg.define(d, h);
            cg.push(ChInst::Mv { dst: h, src });
        }
        Ok(())
    }

    /// Join entry: each hand's live-ins at their layout distances, v
    /// values at their frozen positions (global to the function once
    /// the entry block has defined them), SP at `s[0]`.
    fn join_entry(cg: &mut Core<'_, Self>, b: usize) {
        let v_positions: Vec<(VReg, Loc<Hand>)> = cg
            .loc
            .iter()
            .filter(|(_, l)| l.ring == Hand::V)
            .map(|(&v, &l)| (v, l))
            .collect();
        cg.enter_layout(b);
        cg.loc.extend(v_positions);
        cg.counters[Hand::V.index()] = cg.isa.v_count as i64;
        cg.counters[Hand::S.index()] = 1;
        cg.sp_pos = 0;
    }

    /// Function entry: calling-convention state, frame setup, caller
    /// v-saves, parameter moves.
    fn prologue(cg: &mut Core<'_, Self>) -> Result<(), String> {
        cg.loc.clear();
        cg.counters = [0; 4];
        // s hand at entry: s[0]=RA, s[1..n]=args, s[n+1]=caller SP.
        let n = cg.f.params.len() as i64;
        cg.counters[Hand::S.index()] = n + 2;
        let ra = Loc {
            ring: Hand::S,
            pos: n + 1,
        };
        for (i, &p) in cg.f.params.iter().enumerate() {
            let pos = n - i as i64;
            cg.loc.insert(p, Loc { ring: Hand::S, pos });
        }
        // SP = caller SP - frame (paper: `addi s, s[X], -amount`,
        // X = number of arguments plus one).
        let caller_sp = Loc {
            ring: Hand::S,
            pos: 0,
        };
        let src1 = Self::src_at(Hand::S, cg.dist(caller_sp));
        cg.sp_pos = cg.counters[Hand::S.index()];
        cg.push(ChInst::AluImm {
            op: AluOp::Add,
            dst: Hand::S,
            src1,
            imm: -cg.frame_size,
        });
        // Spill RA (one deeper after the SP write).
        Self::store(cg, Self::src_at(Hand::S, cg.dist(ra)), RA_OFF)?;
        // Save the caller's v registers that the epilogue cannot reach
        // in the ring (see the save plan in `plan`) before any own v
        // write; the rest are restored by relays from deeper positions.
        for idx in 0..cg.isa.v_stack_saved.len() {
            let j = cg.isa.v_stack_saved[idx];
            let offset = cg.isa.vsave_off + 8 * idx as i32;
            Self::store(cg, Src::Hand(Hand::V, j as u8), offset)?;
        }
        // Own v writes start at model position 0.
        cg.counters[Hand::V.index()] = 0;
        // Move parameters out of s into their assigned hands.
        let f = cg.f;
        for &p in &f.params {
            if cg.zero_vregs.contains(p) {
                continue;
            }
            let hand = cg.isa.assign[p as usize];
            let src = cg.src(p)?;
            cg.define(p, hand);
            cg.push(ChInst::Mv { dst: hand, src });
            Self::write_through(cg, p)?;
        }
        Ok(())
    }

    /// Epilogue: reload RA into u, restore the caller's v registers,
    /// write the return value to s, restore the caller SP to s (paper:
    /// `addi s, s[1], amount`), return.
    fn epilogue(cg: &mut Core<'_, Self>, v: Option<VReg>) -> Result<(), String> {
        if let Some(rv) = v {
            Self::reload(cg, rv)?;
        }
        let ra = Loc {
            ring: Hand::U,
            pos: cg.counters[Hand::U.index()],
        };
        let base = Self::sp_src(cg)?;
        cg.push(ChInst::Load {
            op: LoadOp::Ld,
            dst: Hand::U,
            base,
            offset: RA_OFF,
        });
        // Write the return value to s BEFORE restoring the caller's v
        // registers: if the value itself lives in v, the 8 restore
        // writes would push it past the encodable distance. The s write
        // order the caller depends on (retval, then SP) is unaffected —
        // restores write only v.
        if let Some(rv) = v {
            let src = cg.src(rv)?;
            cg.push(ChInst::Mv { dst: Hand::S, src });
        }
        // Restore the caller's v[0..7]: write X_7 first so X_0 ends at
        // v[0]. Stack-saved slots reload; the rest are still in the
        // ring — caller v[j] sits at distance v_count + j here (own
        // writes shifted it; every inner call preserved the window
        // contents in place), and by the time slot j is rewritten the
        // 7 - j earlier restores have shifted it to v_count + 7, a
        // constant within the encodable range whenever v_count <= 8.
        let ring_d = cg.counters[Hand::V.index()] + 7;
        for j in (0..cg.isa.v_restore_count).rev() {
            match cg.isa.v_stack_saved.iter().position(|&x| x == j) {
                Some(idx) => {
                    let base = Self::sp_src(cg)?;
                    cg.push(ChInst::Load {
                        op: LoadOp::Ld,
                        dst: Hand::V,
                        base,
                        offset: cg.isa.vsave_off + 8 * idx as i32,
                    });
                }
                None => {
                    debug_assert!((0..=MAX_DIST).contains(&ring_d));
                    cg.push(ChInst::Mv {
                        dst: Hand::V,
                        src: Src::Hand(Hand::V, ring_d as u8),
                    });
                }
            }
        }
        let src1 = Self::sp_src(cg)?;
        cg.push(ChInst::AluImm {
            op: AluOp::Add,
            dst: Hand::S,
            src1,
            imm: cg.frame_size,
        });
        let src = Self::src_at(Hand::U, cg.dist(ra));
        cg.push(ChInst::JumpReg { src });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_ir;
    use ch_common::exec::Machine;
    use clockhands::interp::Interpreter;

    fn compile_src(src: &str) -> Program {
        let m = build_ir(src).expect("ir");
        let prog = compile(&m).expect("codegen");
        prog.validate().expect("valid");
        prog
    }

    fn run(src: &str) -> u64 {
        let mut cpu = Interpreter::new(compile_src(src)).expect("interp");
        cpu.run(100_000_000).expect("runs").exit_value
    }

    /// Fuzzer-found: a value defined in an early block, dead on the
    /// taken path, and redefined before its next use must not be
    /// relayed or spilled — its inherited distance through a
    /// single-predecessor chain may already be unencodable. Keeping it
    /// "live" by a mere used-later test made codegen fail with a
    /// t-distance overflow.
    #[test]
    fn stale_dead_value_is_not_relayed() {
        let src = "global g0: int;
            global buf: int[16];
            fn h0(p0: int, p1: int) -> int {
                var v0: int = 1;
                var v1: int = 2;
                if (((buf[(v0) & 15] * (65 % g0))) != 0) {
                    g0 = ((p1 << g0) << (v0 - p0));
                    if ((1023) != 0) {
                        v1 = 1;
                        v0 = (v1 << p1);
                    }
                }
                return ((p0 | 9223372036854775807) / (1 >> v0));
            }
            fn main() -> int {
                var v0: int = 3;
                return v0;
            }";
        compile_src(src);
    }

    /// Fuzzer-found: a v-resident return value (here the loop-invariant
    /// parameter `p0`) was read *after* the epilogue's eight caller-v
    /// restores, pushing it past the encodable v-distance. The retval
    /// mv must precede the restores (the caller-visible s order —
    /// retval, then SP — is unaffected).
    #[test]
    fn v_resident_return_value_survives_epilogue() {
        let src = "global buf: int[16];
            fn h0(p0: int) -> int {
                var v0: int = 1;
                var v1: int = 2;
                var v3: int = 4;
                v1 = v3;
                for (var i0: int = 0; i0 < 8; i0 += 1) {
                    v3 = ((buf[(v1) & 15] ^ 10) & (buf[(v0) & 15] % (0 - 128)));
                    v0 = (buf[(v1) & 15] * ((64 & i0) % (52 << p0)));
                    v1 = ((v1 % (buf[(v1) & 15] & (0 - 22)))
                        >> ((0 - 1) * (buf[(v1) & 15] ^ 15)));
                }
                for (var i1: int = 0; i1 < 5; i1 += 1) {
                }
                return p0;
            }
            fn main() -> int { return h0(7); }";
        assert_eq!(run(src), 7);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(run("fn main() -> int { return 6 * 7; }"), 42);
        assert_eq!(
            run("fn main() -> int { var a: int = 10; return a % 3; }"),
            1
        );
    }

    #[test]
    fn sum_loop() {
        let src = "fn main() -> int {
                var s: int = 0;
                for (var i: int = 1; i <= 10; i += 1) { s += i; }
                return s;
            }";
        assert_eq!(run(src), 55);
    }

    #[test]
    fn loop_constants_live_in_v_without_relays() {
        let src = "global a: int[100];
            fn main() -> int {
                var s: int = 0;
                for (var i: int = 0; i < 100; i += 1) { s += a[i] + 7; }
                return s;
            }";
        assert_eq!(run(src), 700);
        // The loop must not write the v hand (that is the whole point):
        // dynamically, v writes happen only in prologue/epilogue, never
        // per iteration. 100 iterations => far fewer than 100 v writes.
        let mut cpu = Interpreter::new(compile_src(src)).unwrap();
        let (trace, _) = cpu.trace(10_000_000).unwrap();
        let v_writes = trace
            .iter()
            .filter(|d| d.dst.and_then(|t| t.hand()) == Some(Hand::V.index() as u8))
            .count();
        assert!(
            v_writes < 30,
            "v written {v_writes} times (should be entry/exit only)"
        );
    }

    #[test]
    fn arrays_and_globals() {
        let src = "global a: int[32];
            fn main() -> int {
                for (var i: int = 0; i < 32; i += 1) { a[i] = i * 3; }
                var s: int = 0;
                for (var i: int = 0; i < 32; i += 1) { s += a[i]; }
                return s;
            }";
        assert_eq!(run(src), (0..32u64).map(|i| i * 3).sum());
    }

    #[test]
    fn calls_preserve_v_hand() {
        let src = "fn add(a: int, b: int) -> int { return a + b; }
            fn main() -> int {
                var s: int = 0;
                for (var i: int = 0; i < 10; i += 1) {
                    s = add(s, i);       // call inside the loop
                }
                return s;
            }";
        assert_eq!(run(src), 45);
    }

    #[test]
    fn recursion() {
        let src = "fn fib(n: int) -> int {
                if (n < 2) { return n; }
                return fib(n - 1) + fib(n - 2);
            }
            fn main() -> int { return fib(15); }";
        assert_eq!(run(src), 610);
    }

    #[test]
    fn floating_point() {
        let src = "fn main() -> int {
                var x: real = 1.5;
                var y: real = 2.5;
                return int(x * y * 4.0);
            }";
        assert_eq!(run(src), 15);
    }

    #[test]
    fn local_arrays() {
        let src = "fn main() -> int {
                var a: int[8];
                for (var i: int = 0; i < 8; i += 1) { a[i] = i + 1; }
                return a[0] + a[7];
            }";
        assert_eq!(run(src), 9);
    }

    #[test]
    fn nested_loops() {
        let src = "fn main() -> int {
                var s: int = 0;
                for (var i: int = 0; i < 10; i += 1) {
                    for (var j: int = 0; j < 10; j += 1) { s += i * j; }
                }
                return s;
            }";
        assert_eq!(run(src), 2025);
    }

    #[test]
    fn fewer_moves_than_straight() {
        // The headline claim: Clockhands needs far fewer relay moves.
        let src = "global a: int[64];
            fn main() -> int {
                var s: int = 0;
                for (var i: int = 0; i < 64; i += 1) {
                    s += a[i] * 3 + i;
                }
                return s;
            }";
        assert_eq!(run(src), (0..64u64).sum::<u64>());
        // Compare *executed* moves, the paper's Fig. 15 metric: STRAIGHT
        // relays every live value (including loop constants) on every
        // iteration; Clockhands keeps the constants frozen in v.
        let m = build_ir(src).unwrap();
        let ch = compile(&m).unwrap();
        let st = super::super::straight::compile(&m).unwrap();
        let mut chi = Interpreter::new(ch).unwrap();
        let (ch_trace, _) = chi.trace(1_000_000).unwrap();
        let mut sti = ch_baselines::straight::interp::Interpreter::new(st).unwrap();
        let (st_trace, _) = sti.trace(1_000_000).unwrap();
        let ch_mv = ch_trace
            .iter()
            .filter(|d| d.class == ch_common::op::OpClass::Move)
            .count();
        let st_mv = st_trace
            .iter()
            .filter(|d| d.class == ch_common::op::OpClass::Move)
            .count();
        assert!(
            2 * ch_mv < st_mv,
            "Clockhands should execute far fewer relays: {ch_mv} vs {st_mv}"
        );
        // And fewer instructions overall.
        assert!(ch_trace.len() < st_trace.len());
    }

    #[test]
    fn void_functions() {
        let src = "global g: int;
            fn bump() { g = g + 1; }
            fn main() -> int {
                bump(); bump(); bump();
                return g;
            }";
        assert_eq!(run(src), 3);
    }

    #[test]
    fn deep_call_chain_restores_v() {
        // Each level uses its own v constants; the convention must
        // restore the caller's on every return.
        let src = "global a: int[4];
            fn leaf(x: int) -> int {
                var s: int = 0;
                for (var i: int = 0; i < 4; i += 1) { s += a[i] + x; }
                return s;
            }
            fn mid(x: int) -> int {
                var s: int = 0;
                for (var i: int = 0; i < 3; i += 1) { s += leaf(x) + a[0]; }
                return s;
            }
            fn main() -> int {
                a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4;
                var s: int = 0;
                for (var i: int = 0; i < 2; i += 1) { s += mid(i) + a[3]; }
                return s;
            }";
        // leaf(x) = 10 + 4x ; mid(x) = 3*(leaf(x)+1) = 3*(11+4x)
        // main = (mid(0)+4) + (mid(1)+4) = (33+4)+(45+4) = 86
        assert_eq!(run(src), 86);
    }
}
