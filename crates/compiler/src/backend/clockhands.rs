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

use super::opt::{long_lived_locals, schedule_function, select_loop_constants, OptConfig};
use crate::cfg::{liveness, loop_info, rpo, BitSet};
use crate::ir::{Function, Ins, Module, Term, VReg};
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use clockhands::hand::Hand;
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
    let mut prog = Program::new();
    let mut call_fixups: Vec<(usize, usize)> = Vec::new();
    let mut fn_starts: Vec<u32> = Vec::new();

    // _start: call main (return address to s), halt with s[1] (= the
    // return value; s[0] is the restored SP).
    prog.insts.push(ChInst::Call {
        dst: Hand::S,
        target: 0,
    });
    call_fixups.push((0, module.main_index()));
    prog.insts.push(ChInst::Halt {
        src: Src::Hand(Hand::S, 1),
    });
    prog.labels.insert("_start".to_string(), 0);

    for f in &module.funcs {
        fn_starts.push(prog.insts.len() as u32);
        prog.labels.insert(f.name.clone(), prog.insts.len() as u32);
        // Per-function variant selection: distance-aware scheduling and
        // cost-based join anchoring are each accepted only when they
        // strictly shrink the emitted code (fewer relays, reloads, or
        // edge fixes). Neither heuristic has a reliable global view —
        // the scheduler can't see join layouts and the anchor cost
        // estimate is one-pass stale inside loops — so their results
        // are measured, not trusted. Ties keep the earlier (more
        // conservative) variant.
        let scheduled;
        let mut cands: Vec<(&Function, bool)> = vec![(f, false)];
        if opt.min_relays {
            cands.push((f, true));
        }
        if opt.schedule {
            scheduled = schedule_function(f);
            cands.push((&scheduled, false));
            if opt.min_relays {
                cands.push((&scheduled, true));
            }
        }
        let (mut f, mut anchor) = cands[0];
        if cands.len() > 1 {
            let emitted = |func: &Function, ca: bool| -> Option<usize> {
                let mut tmp = Program::new();
                let mut fx = Vec::new();
                let mut cg = FnCg::new(func, module, &mut tmp, &mut fx, opt, ca);
                cg.converge_fillers = false;
                cg.run().ok().map(|()| tmp.insts.len())
            };
            let mut best: Option<usize> = None;
            for &(func, ca) in &cands {
                let n = emitted(func, ca);
                if std::env::var("CH_VARIANT_DEBUG").is_ok() {
                    eprintln!("VARIANT {} anchor={} emitted={:?}", func.name, ca, n);
                }
                if let Some(n) = n {
                    if best.map(|b| n < b).unwrap_or(true) {
                        best = Some(n);
                        f = func;
                        anchor = ca;
                    }
                }
            }
        }
        FnCg::new(f, module, &mut prog, &mut call_fixups, opt, anchor).run()?;
    }
    for (at, func) in call_fixups {
        if let ChInst::Call { target, .. } = &mut prog.insts[at] {
            *target = fn_starts[func];
        }
    }
    prog.entry = 0;
    Ok(prog)
}

/// A value's current location: its hand and the hand-local write index.
#[derive(Debug, Clone, Copy)]
struct Loc {
    hand: Hand,
    pos: i64,
}

/// Snapshot of the codegen path state handed to a single-predecessor
/// successor: live-value locations, per-hand write counters, SP position.
type PathState = (HashMap<VReg, Loc>, [i64; 4], i64);
/// One natural delivery along an incoming edge: (source block, source
/// loop depth, vreg -> distance at the join).
type Delivery = (usize, u32, HashMap<VReg, i64>);
/// Chosen entry layout at a join: per hand (t, u), (vreg, distance).
type JoinLayout = [Vec<(VReg, i64)>; 2];

struct FnCg<'a> {
    f: &'a Function,
    module: &'a Module,
    out: &'a mut Program,
    call_fixups: &'a mut Vec<(usize, usize)>,
    /// Assigned hand per vreg.
    assign: Vec<Hand>,
    /// Current location of live vregs.
    loc: HashMap<VReg, Loc>,
    /// Per-hand write counters along the current path (by hand index).
    counters: [i64; 4],
    /// Position of the stack pointer within the s hand.
    sp_pos: i64,
    zero_vregs: BitSet,
    /// v-assigned vregs (never relayed; defined in the entry block).
    v_set: BitSet,
    /// Number of own v writes.
    v_count: usize,
    /// Convention window slots restored at every return (8 whenever this
    /// function writes v at all, else 0).
    v_restore_count: usize,
    /// The subset of restored slots that must go through the stack; the
    /// rest are re-established from deeper ring positions (clobber-only
    /// saves — see `gen_entry_prologue`).
    v_stack_saved: Vec<usize>,
    /// Optimization toggles.
    opt: OptConfig,
    spill_off: HashMap<VReg, i32>,
    /// Stack-resident vregs (demoted when a hand's live-in set exceeds
    /// its capacity): loaded on use, stored through on definition.
    stack_set: BitSet,
    frame_size: i32,
    ra_off: i32,
    vsave_off: i32,
    array_offsets: Vec<i32>,
    block_starts: Vec<u32>,
    fixups: Vec<(usize, usize)>,
    /// Canonical per-hand live-in orders per block: (t list, u list).
    entry_order: Vec<(Vec<VReg>, Vec<VReg>)>,
    live_out: Vec<BitSet>,
    /// Predecessor counts (single-pred blocks inherit state, no relays).
    preds_count: Vec<usize>,
    /// Saved path state for single-predecessor successors.
    pending: HashMap<usize, PathState>,
    /// Chosen entry layout per join.
    layouts: Vec<JoinLayout>,
    /// Natural deliveries per block, one entry per incoming edge taken
    /// this pass.
    deliveries: Vec<Vec<Delivery>>,
    /// Loop depth per block.
    depth: Vec<u32>,
    /// Fix-up writes emitted this pass.
    fix_writes: u64,
    /// Filler (`li 0`) writes emitted this pass: never-read pads over
    /// holes in a join layout, the W-REDUNDANT-FIX lint population.
    filler_writes: u64,
    /// Values banned from natural status, per (join block, hand). When
    /// an edge pads the hole under a natural with a filler, the natural
    /// is demoted to a relay on every later pass — the relay group is
    /// contiguous from distance 0, so the hole (and its filler) is gone.
    /// Monotone, which is what lets the pass loop converge to zero
    /// fillers: every padding pass bans at least one new value.
    hole_banned: Vec<[HashSet<VReg>; 2]>,
    /// Record bans only once the ordinary layout fixpoint has settled
    /// (pass ≥ 3). Earlier passes emit transient fillers that the
    /// fixpoint removes on its own; reacting to those would perturb
    /// joins that end up clean anyway.
    ban_fillers: bool,
    /// Run the filler-convergence tail at all. Off during variant
    /// measurement (`compile_with`'s candidate ranking), so candidate
    /// sizes — and therefore which variant wins — are judged exactly as
    /// before; the tail then runs only on the winner's real emission,
    /// keeping its blast radius to the joins that actually pad.
    converge_fillers: bool,
    /// Joins that gained a ban in the current pass. During the tail,
    /// `update_layouts` rebuilds only these — every other join keeps
    /// its settled layout verbatim, so the tail repairs padding joins
    /// without re-running the global layout optimization (which would
    /// reshape code far from any filler).
    ban_dirty: HashSet<usize>,
    /// Previous pass's deliveries keyed by source block (drift detection:
    /// a value is only a stable natural if two consecutive passes deliver
    /// it identically from the same predecessor).
    deliveries_prev: Vec<HashMap<usize, HashMap<VReg, i64>>>,
    /// Select join anchors by total estimated fix cost instead of
    /// first arrival (see [`FnCg::update_layouts`]). The estimate is
    /// local and one-pass stale — in loop nests it can mispredict and
    /// produce *worse* code — so `compile_with` measures both variants
    /// and keeps this one only when it strictly shrinks the function.
    cost_anchor: bool,
}

impl<'a> FnCg<'a> {
    fn new(
        f: &'a Function,
        module: &'a Module,
        out: &'a mut Program,
        call_fixups: &'a mut Vec<(usize, usize)>,
        opt: &OptConfig,
        cost_anchor: bool,
    ) -> Self {
        let live = liveness(f);
        let loops = loop_info(f);

        // ---- Zero-constant vregs ----
        let mut defs: HashMap<VReg, u32> = HashMap::new();
        let mut def_block: HashMap<VReg, usize> = HashMap::new();
        let mut zeroes: Vec<VReg> = Vec::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for ins in &b.insts {
                if let Some(d) = ins.dst() {
                    *defs.entry(d).or_default() += 1;
                    def_block.insert(d, bi);
                    if matches!(ins, Ins::Const { val: 0, .. }) {
                        zeroes.push(d);
                    }
                }
            }
        }
        let mut zero_vregs = BitSet::new(f.num_vregs());
        for z in zeroes {
            if defs[&z] == 1 {
                zero_vregs.insert(z);
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
        for (bi, b) in f.blocks.iter().enumerate() {
            let w = 1 + 100 * loops.depth[bi] as u64;
            for ins in &b.insts {
                for s in ins.srcs() {
                    if bi != 0 {
                        *benefit.entry(s).or_default() += w;
                    }
                }
            }
            for s in b.term.srcs() {
                if bi != 0 {
                    *benefit.entry(s).or_default() += w;
                }
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
        let chosen = select_loop_constants(f, &loops, &v_candidates, v_budget);
        let mut v_set = BitSet::new(f.num_vregs());
        for &v in &chosen {
            v_set.insert(v);
        }
        let v_count = chosen.len();

        // t vs u (Section 4.3): short-lived results go to t, the rest to
        // u. Cross-block values are long-lived by definition. Block-local
        // values go to u when their def-use span exceeds what the t ring
        // can hold: measured in actual t writes when the lifetime split
        // is enabled, approximated by raw instruction span otherwise.
        let mut crosses = BitSet::new(f.num_vregs());
        for b in 0..f.blocks.len() {
            crosses.union_with(&live.live_in[b]);
            crosses.union_with(&live.live_out[b]);
        }
        const SPAN_LIMIT: usize = 10;
        let long_span = if opt.lifetime_split {
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
        let mut assign = vec![Hand::T; f.num_vregs()];
        for v in 0..f.num_vregs() as u32 {
            assign[v as usize] = if v_set.contains(v) {
                Hand::V
            } else if crosses.contains(v) || long_span.contains(v) {
                Hand::U
            } else {
                Hand::T
            };
        }

        // Canonical edge orders: t and u live-ins ascending; v and zero
        // vregs are never relayed.
        let entry_order: Vec<(Vec<VReg>, Vec<VReg>)> = live
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
                (t, u)
            })
            .collect();

        // ---- Capacity: demote low-benefit values to the stack when a
        // block's u live-ins exceed what edge relays can rotate (7 of the
        // 16 u registers, leaving headroom for the relay sequence). ----
        let mut full_benefit: HashMap<VReg, u64> = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            let w = 1 + 100 * loops.depth[bi] as u64;
            for ins in &b.insts {
                for src in ins.srcs() {
                    *full_benefit.entry(src).or_default() += w;
                }
            }
        }
        let mut entry_order = entry_order;
        let mut stack_set = BitSet::new(f.num_vregs());
        const EDGE_CAP: usize = 7;
        loop {
            let mut victim: Option<VReg> = None;
            for (_, u) in &entry_order {
                if u.len() > EDGE_CAP {
                    victim = u
                        .iter()
                        .copied()
                        .min_by_key(|v| full_benefit.get(v).copied().unwrap_or(0));
                    break;
                }
            }
            match victim {
                Some(v) => {
                    stack_set.insert(v);
                    for (_, u) in &mut entry_order {
                        u.retain(|&x| x != v);
                    }
                }
                None => break,
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
        } else if !opt.lean_saves || v_count > 8 {
            (0..8).collect()
        } else if has_calls {
            (8 - v_count..8).collect()
        } else {
            Vec::new()
        };

        FnCg {
            f,
            module,
            out,
            call_fixups,
            assign,
            loc: HashMap::new(),
            counters: [0; 4],
            sp_pos: -1,
            zero_vregs,
            v_set,
            v_count,
            v_restore_count,
            v_stack_saved,
            opt: *opt,
            spill_off: HashMap::new(),
            stack_set,
            frame_size: 0,
            ra_off: 0,
            vsave_off: 0,
            array_offsets: Vec::new(),
            block_starts: vec![0; f.blocks.len()],
            fixups: Vec::new(),
            entry_order,
            live_out: live.live_out,
            preds_count: f.predecessors().iter().map(|p| p.len()).collect(),
            pending: HashMap::new(),
            layouts: Vec::new(),
            deliveries: Vec::new(),
            depth: loops.depth.clone(),
            fix_writes: 0,
            filler_writes: 0,
            hole_banned: vec![[HashSet::new(), HashSet::new()]; f.blocks.len()],
            ban_fillers: false,
            converge_fillers: true,
            ban_dirty: HashSet::new(),
            deliveries_prev: Vec::new(),
            cost_anchor,
        }
    }

    /// Pushes an instruction, advancing its destination hand's counter.
    fn push(&mut self, i: ChInst) {
        if let Some(h) = i.dst() {
            self.counters[h.index()] += 1;
        }
        self.out.insts.push(i);
    }

    /// Records that the next write to `hand` defines vreg `v` (call just
    /// before pushing the defining instruction).
    fn define(&mut self, v: VReg, hand: Hand) {
        self.loc.insert(
            v,
            Loc {
                hand,
                pos: self.counters[hand.index()],
            },
        );
    }

    fn dist_of(&self, l: Loc) -> i64 {
        self.counters[l.hand.index()] - 1 - l.pos
    }

    /// Reads vreg `v` as a source operand.
    fn src(&self, v: VReg) -> Result<Src, String> {
        if self.zero_vregs.contains(v) {
            return Ok(Src::Zero);
        }
        let l = self
            .loc
            .get(&v)
            .ok_or_else(|| format!("{}: v{v} has no location", self.f.name))?;
        let d = self.dist_of(*l);
        let limit = l.hand.max_src_distance() as i64;
        if !(0..=limit).contains(&d) {
            return Err(format!("{}: v{v} at {}-distance {d}", self.f.name, l.hand));
        }
        Ok(Src::Hand(l.hand, d as u8))
    }

    /// Reads the stack pointer.
    fn sp_src(&self) -> Result<Src, String> {
        let d = self.counters[Hand::S.index()] - 1 - self.sp_pos;
        if !(0..=Hand::S.max_src_distance() as i64).contains(&d) {
            return Err(format!("{}: SP at s-distance {d}", self.f.name));
        }
        Ok(Src::Hand(Hand::S, d as u8))
    }

    /// Reloads a stack-resident vreg if it has no valid register
    /// position, so a following read succeeds.
    fn ensure_loaded(&mut self, v: VReg) -> Result<(), String> {
        if !self.stack_set.contains(v) || self.zero_vregs.contains(v) {
            return Ok(());
        }
        if let Some(&l) = self.loc.get(&v) {
            // Two writes of slack below the hand's hard limit, so the
            // reload itself plus one interleaved write cannot push the
            // value out of range before the read.
            let limit = l.hand.max_src_distance() as i64 - 2;
            if self.dist_of(l) <= limit {
                return Ok(());
            }
        }
        let off = *self
            .spill_off
            .get(&v)
            .ok_or_else(|| format!("{}: v{v} has no stack slot", self.f.name))?;
        let h = self.assign[v as usize];
        let sp = self.sp_src()?;
        self.define(v, h);
        self.push(ChInst::Load {
            op: LoadOp::Ld,
            dst: h,
            base: sp,
            offset: off,
        });
        Ok(())
    }

    /// Stores a just-defined stack-resident vreg through to its slot.
    fn write_through(&mut self, v: VReg) -> Result<(), String> {
        if !self.stack_set.contains(v) || self.zero_vregs.contains(v) {
            return Ok(());
        }
        let off = self.spill_off[&v];
        let val = self.src(v)?;
        let sp = self.sp_src()?;
        self.push(ChInst::Store {
            op: StoreOp::Sd,
            value: val,
            base: sp,
            offset: off,
        });
        Ok(())
    }

    /// Relays still-needed t/u values whose distance reached `threshold`.
    /// v values are never relayed — that is the point of the v hand.
    fn relay_over(&mut self, threshold: i64, keep: &dyn Fn(VReg) -> bool) -> Result<(), String> {
        for _guard in 0..256 {
            // Deterministic choice: deepest value first, vreg id ties.
            let mut victim: Option<(i64, VReg, Hand)> = None;
            for (&v, &l) in &self.loc {
                if self.zero_vregs.contains(v)
                    || matches!(l.hand, Hand::V | Hand::S)
                    || self.stack_set.contains(v)
                {
                    continue;
                }
                let d = self.dist_of(l);
                if keep(v)
                    && d >= threshold
                    && victim.map(|(bd, bv, _)| (d, v) > (bd, bv)).unwrap_or(true)
                {
                    victim = Some((d, v, l.hand));
                }
            }
            let victim = victim.map(|(_, v, h)| (v, h));
            match victim {
                Some((v, hand)) => {
                    let s = self.src(v)?;
                    self.define(v, hand);
                    self.push(ChInst::Mv { dst: hand, src: s });
                }
                None => return Ok(()),
            }
        }
        Err(format!("{}: relay pressure too high", self.f.name))
    }

    fn run(mut self) -> Result<(), String> {
        // ---- Frame layout: [ra][v-saves][call spills][arrays] ----
        let mut needs_spill = BitSet::new(self.f.num_vregs());
        for (b, blk) in self.f.blocks.iter().enumerate() {
            for (i, ins) in blk.insts.iter().enumerate() {
                if let Ins::Call { dst, .. } = ins {
                    let mut after = self.live_out[b].clone();
                    for later in &blk.insts[i + 1..] {
                        for s in later.srcs() {
                            after.insert(s);
                        }
                    }
                    for s in blk.term.srcs() {
                        after.insert(s);
                    }
                    if let Some(d) = dst {
                        after.remove(*d);
                    }
                    needs_spill.union_with(&after);
                }
            }
        }
        self.ra_off = 0;
        let mut off = 8i32;
        self.vsave_off = off;
        off += 8 * self.v_stack_saved.len() as i32;
        needs_spill.union_with(&self.stack_set);
        for v in needs_spill.iter() {
            if self.zero_vregs.contains(v) || self.v_set.contains(v) {
                continue;
            }
            self.spill_off.insert(v, off);
            off += 8;
        }
        for &sz in &self.f.frame_slots {
            self.array_offsets.push(off);
            off += (sz.div_ceil(8) * 8) as i32;
        }
        self.frame_size = (off + 15) / 16 * 16;

        // Initial layouts: canonical per-hand (deepest first, distances
        // k-1 .. 0 — in Clockhands the edge jump writes no hand, so the
        // last relayed value sits at distance 0).
        self.layouts = self
            .entry_order
            .iter()
            .map(|(t, u)| {
                let mk = |o: &Vec<VReg>| {
                    let k = o.len() as i64;
                    o.iter()
                        .enumerate()
                        .map(|(j, &v)| (v, k - 1 - j as i64))
                        .collect()
                };
                [mk(t), mk(u)]
            })
            .collect();

        // Iterated distance fixing (Section 6.1): probe the natural
        // positions each edge delivers, let joins adopt the hottest
        // edge's layout, re-emit.
        let fn_start = self.out.insts.len();
        let cf_start = self.call_fixups.len();
        self.deliveries_prev = vec![HashMap::new(); self.f.blocks.len()];
        // Up to 4 passes reach the layout fixpoint; beyond that, extra
        // passes run only while joins still pad layout holes with
        // never-read fillers — each such pass bans at least one natural
        // (see `hole_banned`), so the tail is finite and short. The hard
        // cap is a safety net, not a tuning knob.
        for pass in 0..32 {
            self.out.insts.truncate(fn_start);
            self.call_fixups.truncate(cf_start);
            self.fixups.clear();
            self.pending.clear();
            self.deliveries = vec![Vec::new(); self.f.blocks.len()];
            self.fix_writes = 0;
            self.filler_writes = 0;
            self.ban_fillers = self.converge_fillers && pass >= 3;
            self.ban_dirty.clear();
            let order = rpo(self.f);
            for (oi, &b) in order.iter().enumerate() {
                let next = order.get(oi + 1).copied();
                self.gen_block(b, oi == 0, next)?;
            }
            let last_pass = if self.converge_fillers { 31 } else { 3 };
            if self.fix_writes == 0 || (pass >= 3 && self.filler_writes == 0) || pass == last_pass {
                break;
            }
            self.update_layouts();
            self.deliveries_prev = self
                .deliveries
                .iter()
                .map(|ds| ds.iter().map(|(f, _, n)| (*f, n.clone())).collect())
                .collect();
        }
        for (at, blk) in std::mem::take(&mut self.fixups) {
            let t = self.block_starts[blk];
            match &mut self.out.insts[at] {
                ChInst::Branch { target, .. } | ChInst::Jump { target } => *target = t,
                _ => unreachable!("fixup on non-branch"),
            }
        }
        Ok(())
    }

    /// Adopts a natural delivery as each join's entry layout;
    /// undeliverable values fall back to explicit relay slots.
    ///
    /// Anchor selection: candidates are the edges at the deepest loop
    /// level (the hot path must pay zero fixes). With `cost_anchor`
    /// on, the candidate whose implied layout minimizes the *total*
    /// estimated fix writes across every recorded edge wins — a
    /// first-arrival anchor can pin values at distances with holes
    /// beneath them (its own dead interleaved writes), which every
    /// other edge then pads with never-read fillers. Without it, the
    /// first deepest edge wins (first-arrival, the conservative
    /// behavior; see the `cost_anchor` field for why both exist).
    fn update_layouts(&mut self) {
        const LIMIT: i64 = 12;
        for b in 0..self.f.blocks.len() {
            // During the filler-convergence tail the layouts are settled;
            // only joins that just gained a ban are rebuilt, so the tail
            // cannot restructure code away from the padding joins.
            if self.ban_fillers && !self.ban_dirty.contains(&b) {
                continue;
            }
            let cands = self.deliveries[b].clone();
            if cands.is_empty() {
                continue;
            }
            let hottest = cands.iter().map(|&(_, d, _)| d).max().unwrap();
            let prev = self.deliveries_prev[b].clone();
            let banned = self.hole_banned[b].clone();
            let (t_order, u_order) = self.entry_order[b].clone();
            let build = |from: usize, nat: &HashMap<VReg, i64>| -> [Vec<(VReg, i64)>; 2] {
                let stable = |v: VReg, d: i64| -> bool {
                    match prev.get(&from) {
                        Some(p) => p.get(&v) == Some(&d),
                        None => true, // first update: optimistic
                    }
                };
                let mut new_layout: [Vec<(VReg, i64)>; 2] = [Vec::new(), Vec::new()];
                for (hi, order) in [&t_order, &u_order].into_iter().enumerate() {
                    let mut used: std::collections::HashSet<i64> = std::collections::HashSet::new();
                    let mut naturals: Vec<(VReg, i64)> = Vec::new();
                    let mut relays: Vec<VReg> = Vec::new();
                    for &v in order {
                        match nat.get(&v) {
                            Some(&d)
                                if (0..=LIMIT).contains(&d)
                                    && stable(v, d)
                                    && !banned[hi].contains(&v)
                                    && used.insert(d) =>
                            {
                                naturals.push((v, d));
                            }
                            _ => relays.push(v),
                        }
                    }
                    // Steady state: the relay group (r values) is re-emitted
                    // on every edge, shifting unemitted naturals by r —
                    // relays sit at 0..r-1, naturals at observed + r.
                    loop {
                        let r = relays.len() as i64;
                        match naturals.iter().position(|&(_, d)| d + r > LIMIT) {
                            Some(i) => relays.push(naturals.remove(i).0),
                            None => break,
                        }
                    }
                    let r = relays.len() as i64;
                    new_layout[hi] = naturals.into_iter().map(|(v, d)| (v, d + r)).collect();
                    for (i, v) in relays.into_iter().enumerate() {
                        new_layout[hi].push((v, i as i64));
                    }
                }
                new_layout
            };
            let mut best: Option<(i64, JoinLayout)> = None;
            for &(from, d, ref nat) in &cands {
                if d != hottest {
                    continue;
                }
                let layout = build(from, nat);
                if !self.cost_anchor {
                    best = Some((0, layout));
                    break; // first-arrival anchor
                }
                let cost: i64 = cands
                    .iter()
                    .map(|(_, _, np)| {
                        est_fix_writes(&layout[0], np) + est_fix_writes(&layout[1], np)
                    })
                    .sum();
                if best.as_ref().map(|&(bc, _)| cost < bc).unwrap_or(true) {
                    best = Some((cost, layout));
                }
            }
            self.layouts[b] = best.unwrap().1;
        }
    }

    /// Minimal fix writes per hand so every layout target lands at its
    /// distance: emitted fixes occupy distances `0..c` (jumps write no
    /// hand), an unemitted value drifts to `current + c`.
    fn min_fix_writes(&self, targets: &[(VReg, i64)]) -> i64 {
        est_fix_writes_with(targets, &|v| self.loc.get(&v).map(|&l| self.dist_of(l)))
    }

    /// Entry state for a non-entry block: each hand's live-ins sit at
    /// distances `k_h - 1 - j` (the edge emitted `k_h` relays in that
    /// hand; jumps write no hand, so nothing shifts afterwards). v values
    /// keep their frozen positions.
    fn block_entry_state(&mut self, b: usize, v_positions: &HashMap<VReg, i64>) {
        self.loc.clear();
        self.counters = [0; 4];
        for (&v, &pos) in v_positions {
            self.loc.insert(v, Loc { hand: Hand::V, pos });
        }
        self.counters[Hand::V.index()] = self.v_count as i64;
        // SP is s[0] at every block boundary.
        self.counters[Hand::S.index()] = 1;
        self.sp_pos = 0;
        for (hi, hand) in [(0, Hand::T), (1, Hand::U)] {
            for (v, d) in self.layouts[b][hi].clone() {
                // distance d at entry (counter 0): pos = -1 - d.
                self.loc.insert(v, Loc { hand, pos: -1 - d });
            }
        }
    }

    fn gen_block(&mut self, b: usize, is_entry: bool, next: Option<usize>) -> Result<(), String> {
        self.block_starts[b] = self.out.insts.len() as u32;

        // v positions are global to the function (frozen after entry).
        let v_positions: HashMap<VReg, i64> = self
            .loc
            .iter()
            .filter(|(_, l)| l.hand == Hand::V)
            .map(|(&v, l)| (v, l.pos))
            .collect();

        if is_entry {
            self.gen_entry_prologue()?;
        } else if let Some((loc, counters, sp_pos)) = self.pending.remove(&b) {
            // Single predecessor: inherit its exact path state.
            self.loc = loc;
            self.counters = counters;
            self.sp_pos = sp_pos;
        } else {
            self.block_entry_state(b, &v_positions);
        }

        let blk = &self.f.blocks[b];
        // Per-point liveness within the block: needed_at[i] is the set of
        // vregs whose value at point i (before instruction i) is still
        // read later with no intervening redefinition, or escapes the
        // block. A mere "used later" test is not enough — a stale value
        // that is *redefined* before its next use must not be relayed or
        // spilled (its inherited distance may already be unencodable).
        let nins = blk.insts.len();
        let mut needed_at: Vec<std::collections::HashSet<VReg>> =
            vec![Default::default(); nins + 1];
        let mut live: std::collections::HashSet<VReg> = self.live_out[b].iter().collect();
        live.extend(blk.term.srcs());
        needed_at[nins] = live.clone();
        for i in (0..nins).rev() {
            if let Some(d) = blk.insts[i].dst() {
                live.remove(&d);
            }
            live.extend(blk.insts[i].srcs());
            needed_at[i] = live.clone();
        }

        let insts = blk.insts.clone();
        for (i, ins) in insts.iter().enumerate() {
            // The current value of v must survive past this instruction:
            // needed afterwards, and not about to be redefined here.
            let na = &needed_at[i + 1];
            let dst = ins.dst();
            if self.opt.min_relays {
                // Safety net for last-use sources: a value read here for
                // the final time is not in `na`, but it must still be in
                // reach *after* the stack reloads that precede the read.
                // The legacy backend silently assumed its slack covered
                // this; with many stack-resident operands it does not.
                let reloads = self.reload_writes(&ins.srcs());
                if reloads > 0 {
                    let srcs = ins.srcs();
                    self.relay_over(MAX_DIST + 1 - reloads, &move |v: VReg| srcs.contains(&v))?;
                }
            }
            let threshold = self.relay_threshold(ins);
            let keep = move |v: VReg| na.contains(&v) && dst != Some(v);
            self.relay_over(threshold, &keep)?;
            self.gen_ins(ins, &needed_at[i + 1])?;
        }
        let term = blk.term.clone();
        // The terminator's reads and edge-fix writes (branch-operand
        // reloads, join-layout fixes, epilogue) run after the last
        // instruction's relay pass; relay once more so they start in
        // reach.
        let na = &needed_at[nins];
        let threshold = self.term_relay_threshold(&term);
        self.relay_over(threshold, &move |v: VReg| na.contains(&v))?;
        self.gen_term(b, &term, next)?;
        Ok(())
    }

    /// Counts the short-hand writes the stack reloads for `srcs` can
    /// emit before this instruction's operand reads.
    fn reload_writes(&self, srcs: &[VReg]) -> i64 {
        srcs.iter()
            .filter(|&&s| self.stack_set.contains(s) && !self.zero_vregs.contains(s))
            .count() as i64
    }

    /// Relay threshold before generating `ins`.
    ///
    /// The fixed early margin `RELAY_AT` is kept even in minimizing
    /// mode: placing a provably-needed relay *earlier* costs nothing
    /// statically and buys out-of-order slack — measured on the
    /// workload suite, demand-placement (relaying at the last legal
    /// point) emitted the identical instruction count but ran 0.3–1.8%
    /// more cycles because the relay `mv` lands next to its consumer
    /// and its hop latency goes on the critical path. What minimizing
    /// mode *does* change is the overflow accounting: the threshold is
    /// capped so the writes this instruction can emit (stack reloads
    /// plus its own definition) can never push a kept value past the
    /// hard limit, where the legacy backend trusted a fixed slack of 3.
    fn relay_threshold(&self, ins: &Ins) -> i64 {
        if !self.opt.min_relays {
            return RELAY_AT;
        }
        // A call's result write lands after `loc` is rebuilt from
        // scratch, so only the reloads shift values that survive into
        // their pre-call reads.
        let own = match ins {
            Ins::Call { .. } => 0,
            _ => ins
                .dst()
                .map_or(0, |d| i64::from(!self.zero_vregs.contains(d))),
        };
        RELAY_AT.min(MAX_DIST + 1 - (self.reload_writes(&ins.srcs()) + own))
    }

    /// Relay threshold before the terminator: its operand reloads, plus
    /// the epilogue's return-address load that precedes the return-value
    /// read. Join-edge fix writes guard their own reads in `take_edge`.
    fn term_relay_threshold(&self, term: &Term) -> i64 {
        if !self.opt.min_relays {
            return RELAY_AT;
        }
        let ra = i64::from(matches!(term, Term::Ret(_)));
        RELAY_AT.min(MAX_DIST + 1 - (self.reload_writes(&term.srcs()) + ra))
    }

    /// Function entry: calling-convention state, frame setup, caller
    /// v-saves, parameter moves.
    fn gen_entry_prologue(&mut self) -> Result<(), String> {
        self.loc.clear();
        self.counters = [0; 4];
        // s hand at entry: s[0]=RA, s[1..n]=args, s[n+1]=caller SP.
        let n = self.f.params.len() as i64;
        self.counters[Hand::S.index()] = n + 2;
        let ra_pos = n + 1;
        for (i, &p) in self.f.params.iter().enumerate() {
            self.loc.insert(
                p,
                Loc {
                    hand: Hand::S,
                    pos: n - i as i64,
                },
            );
        }
        let caller_sp_pos = 0i64;

        // SP = caller SP - frame (paper: `addi s, s[X], -amount`,
        // X = number of arguments plus one).
        let d = self.counters[Hand::S.index()] - 1 - caller_sp_pos;
        debug_assert_eq!(d, n + 1);
        self.sp_pos = self.counters[Hand::S.index()];
        self.push(ChInst::AluImm {
            op: AluOp::Add,
            dst: Hand::S,
            src1: Src::Hand(Hand::S, d as u8),
            imm: -self.frame_size,
        });
        // Spill RA (one deeper after the SP write).
        let ra_d = self.counters[Hand::S.index()] - 1 - ra_pos;
        let sp = self.sp_src()?;
        self.push(ChInst::Store {
            op: StoreOp::Sd,
            value: Src::Hand(Hand::S, ra_d as u8),
            base: sp,
            offset: self.ra_off,
        });
        // Save the caller's v registers that the epilogue cannot reach
        // in the ring (see the save plan in `new`) before any own v
        // write; the rest are restored by relays from deeper positions.
        for (idx, &j) in self.v_stack_saved.clone().iter().enumerate() {
            let sp = self.sp_src()?;
            self.push(ChInst::Store {
                op: StoreOp::Sd,
                value: Src::Hand(Hand::V, j as u8),
                base: sp,
                offset: self.vsave_off + 8 * idx as i32,
            });
        }
        // Own v writes start at model position 0.
        self.counters[Hand::V.index()] = 0;
        // Move parameters out of s into their assigned hands.
        for &p in &self.f.params.clone() {
            if self.zero_vregs.contains(p) {
                continue;
            }
            let hand = self.assign[p as usize];
            let s = self.src(p)?;
            self.define(p, hand);
            self.push(ChInst::Mv { dst: hand, src: s });
            self.write_through(p)?;
        }
        Ok(())
    }

    fn gen_ins(
        &mut self,
        ins: &Ins,
        needed_after: &std::collections::HashSet<VReg>,
    ) -> Result<(), String> {
        // Reload every stack-resident source before computing any
        // distance (a reload is a write and would shift them).
        for src in ins.srcs() {
            self.ensure_loaded(src)?;
        }
        self.gen_ins_inner(ins, needed_after)?;
        if let Some(d) = ins.dst() {
            self.write_through(d)?;
        }
        Ok(())
    }

    fn gen_ins_inner(
        &mut self,
        ins: &Ins,
        needed_after: &std::collections::HashSet<VReg>,
    ) -> Result<(), String> {
        match ins {
            Ins::Const { dst, val } => {
                if self.zero_vregs.contains(*dst) {
                    return Ok(());
                }
                let h = self.assign[*dst as usize];
                self.define(*dst, h);
                self.push(ChInst::Li { dst: h, imm: *val });
            }
            Ins::FConst { dst, val } => {
                let h = self.assign[*dst as usize];
                self.define(*dst, h);
                self.push(ChInst::Li {
                    dst: h,
                    imm: val.to_bits() as i64,
                });
            }
            Ins::GlobalAddr { dst, id } => {
                let h = self.assign[*dst as usize];
                self.define(*dst, h);
                self.push(ChInst::Li {
                    dst: h,
                    imm: self.module.globals[*id].addr as i64,
                });
            }
            Ins::FrameAddr { dst, slot } => {
                let h = self.assign[*dst as usize];
                let sp = self.sp_src()?;
                self.define(*dst, h);
                self.push(ChInst::AluImm {
                    op: AluOp::Add,
                    dst: h,
                    src1: sp,
                    imm: self.array_offsets[*slot],
                });
            }
            Ins::Bin { op, dst, a, b } => {
                let s1 = self.src(*a)?;
                let s2 = self.src(*b)?;
                let h = self.assign[*dst as usize];
                self.define(*dst, h);
                self.push(ChInst::Alu {
                    op: *op,
                    dst: h,
                    src1: s1,
                    src2: s2,
                });
            }
            Ins::BinImm { op, dst, a, imm } => {
                let s1 = self.src(*a)?;
                let h = self.assign[*dst as usize];
                self.define(*dst, h);
                self.push(ChInst::AluImm {
                    op: *op,
                    dst: h,
                    src1: s1,
                    imm: *imm,
                });
            }
            Ins::Load { op, dst, addr, off } => {
                let base = self.src(*addr)?;
                let h = self.assign[*dst as usize];
                self.define(*dst, h);
                self.push(ChInst::Load {
                    op: *op,
                    dst: h,
                    base,
                    offset: *off,
                });
            }
            Ins::Store { op, val, addr, off } => {
                let value = self.src(*val)?;
                let base = self.src(*addr)?;
                self.push(ChInst::Store {
                    op: *op,
                    value,
                    base,
                    offset: *off,
                });
            }
            Ins::Copy { dst, src } => {
                let s = self.src(*src)?;
                let h = self.assign[*dst as usize];
                self.define(*dst, h);
                self.push(ChInst::Mv { dst: h, src: s });
            }
            Ins::Call { dst, callee, args } => {
                // 1. Spill live t/u values (v survives: callee-saved).
                let mut after: Vec<VReg> = self
                    .loc
                    .keys()
                    .copied()
                    .filter(|&v| {
                        needed_after.contains(&v)
                            && Some(v) != *dst
                            && !self.zero_vregs.contains(v)
                            && !self.stack_set.contains(v)
                            && self.loc[&v].hand != Hand::V
                    })
                    .collect();
                after.sort_unstable();
                for &v in &after {
                    let s = self.src(v)?;
                    let off = *self
                        .spill_off
                        .get(&v)
                        .ok_or_else(|| format!("{}: v{v} has no spill slot", self.f.name))?;
                    let sp = self.sp_src()?;
                    self.push(ChInst::Store {
                        op: StoreOp::Sd,
                        value: s,
                        base: sp,
                        offset: off,
                    });
                }
                // 2. Push args argN..arg1 into s (SP is already the most
                //    recent s write, so the callee finds it at s[n+1]).
                for &a in args.iter().rev() {
                    let s = self.src(a)?;
                    self.push(ChInst::Mv {
                        dst: Hand::S,
                        src: s,
                    });
                }
                // 3. Call (RA written to s).
                let at = self.out.insts.len();
                self.push(ChInst::Call {
                    dst: Hand::S,
                    target: 0,
                });
                self.call_fixups.push((at, *callee));
                // 4. After return: t/u positions dead; v preserved by the
                //    convention; s[0]=restored SP, s[1]=return value.
                let v_positions: Vec<(VReg, Loc)> = self
                    .loc
                    .iter()
                    .filter(|(_, l)| l.hand == Hand::V)
                    .map(|(&v, &l)| (v, l))
                    .collect();
                self.loc.clear();
                for (v, l) in v_positions {
                    self.loc.insert(v, l);
                }
                let sc = self.counters[Hand::S.index()];
                let (new_sc, retval_pos) = if dst.is_some() {
                    (sc + 2, sc)
                } else {
                    (sc + 1, sc)
                };
                self.counters[Hand::S.index()] = new_sc;
                self.sp_pos = new_sc - 1;
                if let Some(d) = dst {
                    self.loc.insert(
                        *d,
                        Loc {
                            hand: Hand::S,
                            pos: retval_pos,
                        },
                    );
                    // Move it out of s promptly (s churns at every call).
                    let h = self.assign[*d as usize];
                    let s = self.src(*d)?;
                    self.define(*d, h);
                    self.push(ChInst::Mv { dst: h, src: s });
                }
                // 5. Reload spilled values into their hands.
                for &v in &after {
                    let off = self.spill_off[&v];
                    let h = self.assign[v as usize];
                    let sp = self.sp_src()?;
                    self.define(v, h);
                    self.push(ChInst::Load {
                        op: LoadOp::Ld,
                        dst: h,
                        base: sp,
                        offset: off,
                    });
                }
            }
        }
        Ok(())
    }

    /// Transfers control to `t`: a single-predecessor target inherits the
    /// path state; a join receives, per hand, exactly the writes needed
    /// to realise its entry layout (zero on the stabilised hot edge).
    /// Jumps write no hand (Section 3.3(3)), so they are only emitted
    /// when the layout demands one and never disturb distances.
    fn take_edge(&mut self, from: usize, t: usize, can_fallthrough: bool) -> Result<(), String> {
        if self.preds_count[t] == 1 {
            if !can_fallthrough {
                let at = self.out.insts.len();
                self.push(ChInst::Jump { target: 0 });
                self.fixups.push((at, t));
            }
            self.pending
                .insert(t, (self.loc.clone(), self.counters, self.sp_pos));
            return Ok(());
        }
        // Record this edge's natural delivery for the layout update.
        let d_from = self.depth[from];
        let mut nat = HashMap::new();
        for hi in 0..2 {
            for &(v, _) in &self.layouts[t][hi] {
                if let Some(&l) = self.loc.get(&v) {
                    nat.insert(v, self.dist_of(l));
                }
            }
        }
        self.deliveries[t].push((from, d_from, nat));
        for (hi, hand) in [(0, Hand::T), (1, Hand::U)] {
            let targets = self.layouts[t][hi].clone();
            let mut c = self.min_fix_writes(&targets);
            // Pre-relay any to-be-emitted value whose read would
            // overflow by the time its slot comes up. When a relay is
            // needed, the victim is the deepest emitted value — not the
            // deepest *flagged* one: every relay pushes the others one
            // deeper in this hand, so relaying around a value sitting at
            // MAX_DIST would push it out of reach before the recomputed
            // fix count flags it. Relaying max-first keeps the maximum
            // distance from ever growing.
            for _round in 0..64 {
                let mut need = false;
                let mut deepest: Option<(VReg, i64)> = None;
                for &(v, d) in &targets {
                    if d < c {
                        if let Some(&l) = self.loc.get(&v) {
                            let cur = self.dist_of(l);
                            if cur + (c - 1 - d) > MAX_DIST {
                                need = true;
                            }
                            if deepest.map(|(_, bd)| cur > bd).unwrap_or(true) {
                                deepest = Some((v, cur));
                            }
                        }
                    }
                }
                let victim = if need { deepest } else { None };
                match victim {
                    Some((v, _)) => {
                        let sop = self.src(v)?;
                        self.define(v, hand);
                        self.push(ChInst::Mv {
                            dst: hand,
                            src: sop,
                        });
                        self.fix_writes += 1;
                        c = self.min_fix_writes(&targets);
                    }
                    None => break,
                }
            }
            for slot in (0..c).rev() {
                self.fix_writes += 1;
                match targets.iter().find(|&&(_, d)| d == slot) {
                    Some(&(v, _)) => {
                        let sop = self.src(v)?;
                        self.define(v, hand);
                        self.push(ChInst::Mv {
                            dst: hand,
                            src: sop,
                        });
                    }
                    // Filler slot (a gap in the layout): something must
                    // write this hand to shift the values above into
                    // place. A dependency-free `li 0` is the cheapest
                    // such write — a value-carrying move was measured to
                    // splice an extra hop into the value's dependence
                    // chain and cost 0.5–1.8% cycles on hot edges. The
                    // pad also bans the natural sitting above the hole,
                    // so the next pass rebuilds this join gap-free and
                    // the filler disappears from the final code.
                    None => {
                        self.filler_writes += 1;
                        if self.ban_fillers {
                            if let Some(&(v, _)) = targets
                                .iter()
                                .filter(|&&(_, d)| d > slot)
                                .min_by_key(|&&(_, d)| d)
                            {
                                if self.hole_banned[t][hi].insert(v) {
                                    self.ban_dirty.insert(t);
                                }
                            }
                        }
                        self.push(ChInst::Li { dst: hand, imm: 0 });
                    }
                }
            }
        }
        if !can_fallthrough {
            let at = self.out.insts.len();
            self.push(ChInst::Jump { target: 0 });
            self.fixups.push((at, t));
        }
        Ok(())
    }

    fn gen_term(&mut self, from: usize, term: &Term, next: Option<usize>) -> Result<(), String> {
        match term {
            Term::Jump(t) => self.take_edge(from, *t, next == Some(*t)),
            Term::CondBr {
                cond,
                a,
                b,
                then_,
                else_,
            } => {
                if then_ == else_ {
                    return self.take_edge(from, *then_, next == Some(*then_));
                }
                self.ensure_loaded(*a)?;
                self.ensure_loaded(*b)?;
                let s1 = self.src(*a)?;
                let s2 = self.src(*b)?;
                let br_at = self.out.insts.len();
                self.push(ChInst::Branch {
                    cond: *cond,
                    src1: s1,
                    src2: s2,
                    target: 0,
                });
                let saved_loc = self.loc.clone();
                let saved_counters = self.counters;
                let saved_sp = self.sp_pos;
                let then_direct = self.preds_count[*then_] == 1 || {
                    self.min_fix_writes(&self.layouts[*then_][0]) == 0
                        && self.min_fix_writes(&self.layouts[*then_][1]) == 0
                };
                let can_ft = then_direct && next == Some(*else_);
                self.take_edge(from, *else_, can_ft)?;
                self.loc = saved_loc;
                self.counters = saved_counters;
                self.sp_pos = saved_sp;
                if then_direct {
                    let here = self.out.insts.len();
                    self.take_edge(from, *then_, true)?;
                    debug_assert_eq!(here, self.out.insts.len());
                    self.fixups.push((br_at, *then_));
                } else {
                    let stub = self.out.insts.len() as u32;
                    self.take_edge(from, *then_, false)?;
                    if let ChInst::Branch { target, .. } = &mut self.out.insts[br_at] {
                        *target = stub;
                    }
                }
                Ok(())
            }
            Term::Ret(v) => {
                // Epilogue: reload RA into u, restore the caller's v
                // registers, write the return value to s, restore the
                // caller SP to s (paper: `addi s, s[1], amount`), return.
                if let Some(rv) = v {
                    self.ensure_loaded(*rv)?;
                }
                let ra_u_pos = self.counters[Hand::U.index()];
                let sp = self.sp_src()?;
                self.push(ChInst::Load {
                    op: LoadOp::Ld,
                    dst: Hand::U,
                    base: sp,
                    offset: self.ra_off,
                });
                // Write the return value to s BEFORE restoring the
                // caller's v registers: if the value itself lives in v,
                // the 8 restore writes would push it past the encodable
                // distance. The s write order the caller depends on
                // (retval, then SP) is unaffected — restores write only v.
                if let Some(rv) = v {
                    let s = self.src(*rv)?;
                    self.push(ChInst::Mv {
                        dst: Hand::S,
                        src: s,
                    });
                }
                // Restore the caller's v[0..7]: write X_7 first so X_0
                // ends at v[0]. Stack-saved slots reload; the rest are
                // still in the ring — caller v[j] sits at distance
                // v_count + j here (own writes shifted it; every inner
                // call preserved the window contents in place), and by
                // the time slot j is rewritten the 7 - j earlier
                // restores have shifted it to v_count + 7, a constant
                // within the encodable range whenever v_count <= 8.
                let ring_d = self.counters[Hand::V.index()] + 7;
                for j in (0..self.v_restore_count).rev() {
                    match self.v_stack_saved.iter().position(|&x| x == j) {
                        Some(idx) => {
                            let sp = self.sp_src()?;
                            self.push(ChInst::Load {
                                op: LoadOp::Ld,
                                dst: Hand::V,
                                base: sp,
                                offset: self.vsave_off + 8 * idx as i32,
                            });
                        }
                        None => {
                            debug_assert!((0..=MAX_DIST).contains(&ring_d));
                            self.push(ChInst::Mv {
                                dst: Hand::V,
                                src: Src::Hand(Hand::V, ring_d as u8),
                            });
                        }
                    }
                }
                let spsrc = self.sp_src()?;
                self.push(ChInst::AluImm {
                    op: AluOp::Add,
                    dst: Hand::S,
                    src1: spsrc,
                    imm: self.frame_size,
                });
                let ra_d = self.counters[Hand::U.index()] - 1 - ra_u_pos;
                self.push(ChInst::JumpReg {
                    src: Src::Hand(Hand::U, ra_d as u8),
                });
                Ok(())
            }
        }
    }
}

/// Minimal fix-write count for one hand's layout given a distance
/// oracle: the smallest `c` such that every target at distance `d >= c`
/// is already delivered naturally (its current distance plus the `c`
/// emitted writes lands it exactly at `d`).
fn est_fix_writes_with(targets: &[(VReg, i64)], dist: &dyn Fn(VReg) -> Option<i64>) -> i64 {
    let maxd = targets
        .iter()
        .map(|&(_, d)| d)
        .max()
        .map(|d| d + 1)
        .unwrap_or(0);
    'outer: for c in 0..=maxd {
        for &(v, d) in targets {
            if d >= c && dist(v) != Some(d - c) {
                continue 'outer;
            }
        }
        return c;
    }
    maxd
}

/// [`est_fix_writes_with`] against a recorded delivery snapshot
/// (vreg → distance at the edge point, before any fixes).
fn est_fix_writes(targets: &[(VReg, i64)], nat: &HashMap<VReg, i64>) -> i64 {
    est_fix_writes_with(targets, &|v| nat.get(&v).copied())
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
