//! The ring-position core of the two rotating-register backends.
//!
//! STRAIGHT and Clockhands both name a source by how many writes ago its
//! ring was written: STRAIGHT has one ring that every instruction
//! writes, Clockhands one ring per hand. The paper's compiler (Section 6)
//! assigns hands first and then fixes distances per hand, and that
//! second step is STRAIGHT's distance fixing applied to each ring. This
//! module writes it once, generic over the ISA's [`Operands`]:
//!
//! * the per-ring write counters and each live value's position;
//! * in-block relays of values about to fall out of reach
//!   (*mv-MaxDistance*), deepest first;
//! * join layouts: every edge into a block with several predecessors
//!   delivers its live-ins at one canonical distance per value, with
//!   relay `mv`s and `li 0` fillers (*mv-LoopConstant*), and the layout
//!   adopts the hottest edge's natural delivery so it pays nothing;
//! * the iterated pass loop of Section 6.1 and the per-function choice
//!   among measured variants;
//! * instruction selection for every IR instruction except `Call`'s
//!   convention-specific return.
//!
//! A backend supplies [`RingIsa`]: its limits, calling convention, hand
//! assignment and spill policy, as associated constants and hooks.
//!
//! Distances are 0-based throughout: a value at ring position `pos` is
//! at distance `counter - 1 - pos`, so 0 is the ring's latest write. An
//! edge jump writes [`jump_writes`] slots (1 on STRAIGHT, 0 on
//! Clockhands), and a join layout's shallowest slot sits just above it.

use super::opt::{schedule_function, OptConfig};
use crate::cfg::{liveness, loop_info, rpo, BitSet, Liveness, LoopInfo};
use crate::ir::{Function, Ins, Module, Term, VReg};
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use ch_common::isa::{Inst, Operands, Program};
use std::collections::{HashMap, HashSet};

/// An ISA's destination type: it names the ring a write lands in.
pub(super) type Dst<I> = <<I as RingIsa>::O as Operands>::Dst;
/// An ISA's source operand type.
pub(super) type Src<I> = <<I as RingIsa>::O as Operands>::Src;

/// Frame offset of the spilled return address.
pub(super) const RA_OFF: i32 = 0;
/// Passes that reach the join-layout fixpoint; a cap above this runs
/// the filler tail (see [`RingIsa::PASS_CAP`]). Measurement runs stop
/// here.
const LAYOUT_PASSES: usize = 4;
/// Relays one relay point may emit before the function is refused. A
/// point either settles within one relay per live value of a ring or
/// never does, so the guard only bounds the failing case.
const RELAY_GUARD: usize = 512;

/// Where a value lives: the ring (named by a destination that writes
/// it) and the ring-local write index.
#[derive(Debug, Clone, Copy)]
pub(super) struct Loc<D> {
    /// The ring.
    pub ring: D,
    /// Ring-local write index of the defining write.
    pub pos: i64,
}

/// Which earlier delivery a natural must repeat to count as stable.
pub(super) enum Stability {
    /// The previous pass's anchor delivery into the join, whichever
    /// predecessor it came from.
    Anchor,
    /// The previous pass's delivery from the same predecessor.
    SamePred,
}

/// One natural delivery along an edge into a join.
#[derive(Clone)]
struct Delivery {
    /// Source block.
    from: usize,
    /// Source block's loop depth (hot-edge selection).
    depth: u32,
    /// Each layout value's distance at the join's entry, before fixes.
    nat: HashMap<VReg, i64>,
}

/// A join's entry layout: per relayed ring, (value, distance).
type Layout = Vec<Vec<(VReg, i64)>>;

/// Path state handed to a single-predecessor successor: positions,
/// ring counters and the stack pointer's position.
type PathState<D> = (HashMap<VReg, Loc<D>>, [i64; 4], i64);

/// One rotating-register ISA's codegen data and hooks.
///
/// Each constant and hook states one difference between the ISAs; the
/// core never asks which ISA it compiles for.
pub(super) trait RingIsa: Sized {
    /// The ISA's operand naming.
    type O: Operands;
    /// Name in the parameter-count error.
    const NAME: &'static str;
    /// Most parameters the calling convention passes.
    const MAX_PARAMS: usize;
    /// The rings relayed on CFG edges, in layout order.
    const EDGE_RINGS: &'static [Dst<Self>];
    /// The ring that calls, arguments and the return address write.
    const CONVENTION: Dst<Self>;
    /// Where `_start` reads `main`'s return value after its call.
    const EXIT: Src<Self>;
    /// Deepest encodable distance on a relayed ring.
    const MAX_DIST: i64;
    /// In-block relay threshold.
    const RELAY_AT: i64;
    /// Deepest distance a join layout uses for a natural.
    const LIMIT: i64;
    /// How a natural's stability is judged.
    const STABILITY: Stability;
    /// Pass cap of the real emission; a cap above [`LAYOUT_PASSES`]
    /// keeps iterating while joins pad layout holes with fillers, and
    /// bans the naturals above each hole.
    const PASS_CAP: usize;
    /// Whether to also measure cost-anchored join layouts.
    const COST_ANCHOR: bool;
    /// Whether a call's arguments are kept in reach by the relays
    /// before it even when they are dead after it.
    const KEEP_CALL_ARGS: bool;

    /// Counter index of the ring `d` writes.
    fn ring(d: Dst<Self>) -> usize;
    /// The source operand at distance `dist` of ring `d`.
    fn src_at(d: Dst<Self>, dist: i64) -> Src<Self>;
    /// Deepest encodable distance on ring `d`.
    fn max_dist(_d: Dst<Self>) -> i64 {
        Self::MAX_DIST
    }

    /// Plans a function: the ISA's own state and each block's
    /// canonical live-in order per relayed ring.
    fn plan(
        f: &Function,
        live: &Liveness,
        loops: &LoopInfo,
        zero: &BitSet,
        optimize: bool,
    ) -> (Self, Vec<Vec<Vec<VReg>>>);
    /// The destination that defines `v`.
    fn dst_for(cg: &Core<'_, Self>, v: VReg) -> Dst<Self>;
    /// The stack pointer as a source.
    fn sp_src(cg: &Core<'_, Self>) -> Result<Src<Self>, String>;
    /// Relay threshold before `ins`; `na` is what is needed after it.
    fn ins_threshold(cg: &Core<'_, Self>, ins: &Ins, na: &HashSet<VReg>) -> i64;
    /// The rest of a call's lowering once it has been pushed: the
    /// return value's position and the path state the callee leaves.
    fn after_call(cg: &mut Core<'_, Self>, dst: Option<VReg>) -> Result<(), String>;
    /// Function entry: convention state and frame set-up.
    fn prologue(cg: &mut Core<'_, Self>) -> Result<(), String>;
    /// Function return.
    fn epilogue(cg: &mut Core<'_, Self>, v: Option<VReg>) -> Result<(), String>;

    /// Whether the value `v` at `l` may be relayed.
    fn relayable(_cg: &Core<'_, Self>, _v: VReg, _l: Loc<Dst<Self>>) -> bool {
        true
    }
    /// Whether the value `v` at `l`, needed after a call, is spilled
    /// around it.
    fn spilled_across_call(_cg: &Core<'_, Self>, _v: VReg, _l: Loc<Dst<Self>>) -> bool {
        true
    }
    /// Frame bytes reserved after the return address; may add values
    /// to, or remove them from, the spill set.
    fn reserve_frame(_cg: &mut Core<'_, Self>, _spills: &mut BitSet) -> i32 {
        0
    }
    /// Relay threshold before the terminator.
    fn term_threshold(_cg: &Core<'_, Self>, _term: &Term) -> i64 {
        Self::RELAY_AT
    }
    /// Relays that must precede `ins`'s own relay pass.
    fn before_relays(_cg: &mut Core<'_, Self>, _ins: &Ins) -> Result<(), String> {
        Ok(())
    }
    /// Brings `v` into reach before it is read.
    fn reload(_cg: &mut Core<'_, Self>, _v: VReg) -> Result<(), String> {
        Ok(())
    }
    /// Stores a just-defined `v` where it must also live in memory.
    fn write_through(_cg: &mut Core<'_, Self>, _v: VReg) -> Result<(), String> {
        Ok(())
    }
    /// Entry state of a join block (the default: its layout).
    fn join_entry(cg: &mut Core<'_, Self>, b: usize) {
        cg.enter_layout(b);
    }
}

/// Slots an edge jump writes: every STRAIGHT instruction writes the
/// ring, a Clockhands jump writes no hand.
pub(super) fn jump_writes<I: RingIsa>() -> i64 {
    i64::from(I::O::IMPLICIT_DST.is_some())
}

/// Compiles a module with `_start` (call `main`, halt with its result).
pub(super) fn compile<I: RingIsa>(
    module: &Module,
    opt: &OptConfig,
) -> Result<Program<Inst<I::O>>, String> {
    let mut prog = Program::new();
    let mut call_fixups = vec![(0, module.main_index())];
    prog.insts.push(Inst::Call {
        dst: I::CONVENTION,
        target: 0,
    });
    prog.insts.push(Inst::Halt { src: I::EXIT });
    prog.labels.insert("_start".to_string(), 0);
    let mut fn_starts: Vec<u32> = Vec::new();
    for f in &module.funcs {
        if f.params.len() > I::MAX_PARAMS {
            return Err(format!(
                "{}: {} parameters; {} passes at most {}",
                f.name,
                f.params.len(),
                I::NAME,
                I::MAX_PARAMS
            ));
        }
        fn_starts.push(prog.insts.len() as u32);
        prog.labels.insert(f.name.clone(), prog.insts.len() as u32);
        // Per-function variant selection: distance-aware scheduling and
        // cost-based join anchoring are each accepted only when they
        // strictly shrink the emitted code. Neither heuristic has a
        // reliable global view — the scheduler cannot see join layouts,
        // and the anchor cost estimate is one pass stale inside loops —
        // so their results are measured, not trusted. Ties keep the
        // earlier, more conservative variant.
        let scheduled;
        let mut funcs = vec![f];
        if opt.optimize {
            scheduled = schedule_function(f);
            funcs.push(&scheduled);
        }
        let anchors: &[bool] = if opt.optimize && I::COST_ANCHOR {
            &[false, true]
        } else {
            &[false]
        };
        let cands: Vec<(&Function, bool)> = funcs
            .iter()
            .flat_map(|&g| anchors.iter().map(move |&a| (g, a)))
            .collect();
        let (mut g, mut anchor) = cands[0];
        if cands.len() > 1 {
            let mut best: Option<usize> = None;
            for &(func, ca) in &cands {
                let mut tmp = Program::new();
                let mut fx = Vec::new();
                let emitted = Core::<I>::new(func, module, &mut tmp, &mut fx, opt, ca, true)
                    .run()
                    .ok()
                    .map(|()| tmp.insts.len());
                if let Some(n) = emitted {
                    if best.is_none_or(|b| n < b) {
                        best = Some(n);
                        g = func;
                        anchor = ca;
                    }
                }
            }
        }
        Core::<I>::new(g, module, &mut prog, &mut call_fixups, opt, anchor, false).run()?;
    }
    for (at, func) in call_fixups {
        if let Inst::Call { target, .. } = &mut prog.insts[at] {
            *target = fn_starts[func];
        }
    }
    prog.entry = 0;
    Ok(prog)
}

/// The code generator of one function.
pub(super) struct Core<'a, I: RingIsa> {
    /// The function.
    pub f: &'a Function,
    module: &'a Module,
    /// The program the function is appended to.
    pub out: &'a mut Program<Inst<I::O>>,
    /// Call fixups: (inst index, callee).
    call_fixups: &'a mut Vec<(usize, usize)>,
    /// The ISA's own per-function state.
    pub isa: I,
    /// Whether the optimization layer is on.
    pub optimize: bool,
    /// Position of every value that has one.
    pub loc: HashMap<VReg, Loc<Dst<I>>>,
    /// Per-ring write counters along the current path.
    pub counters: [i64; 4],
    /// Position of the stack pointer, where the ISA keeps it in a ring.
    pub sp_pos: i64,
    /// Values whose only definition is integer constant zero: they read
    /// as the zero register and occupy no slot.
    pub zero_vregs: BitSet,
    /// Frame offsets of stack-resident and call-spilled values.
    pub spill_off: HashMap<VReg, i32>,
    /// Frame size, a multiple of 16.
    pub frame_size: i32,
    /// Frame offset of each local array.
    array_offsets: Vec<i32>,
    /// Start index (in `out.insts`) of each block's body.
    block_starts: Vec<u32>,
    /// Jump/branch fixups: (inst index, target block).
    fixups: Vec<(usize, usize)>,
    /// Canonical live-in order per block and relayed ring.
    entry_order: Vec<Vec<Vec<VReg>>>,
    live_out: Vec<BitSet>,
    /// Predecessor counts (single-predecessor blocks inherit the path).
    preds_count: Vec<usize>,
    /// Saved path state for single-predecessor successors.
    pending: HashMap<usize, PathState<Dst<I>>>,
    /// Entry layout per block.
    layouts: Vec<Layout>,
    /// This pass's deliveries into each join, in arrival order.
    deliveries: Vec<Vec<Delivery>>,
    /// The previous pass's deliveries (a natural is stable only if two
    /// consecutive passes deliver it identically).
    deliveries_prev: Vec<Vec<Delivery>>,
    /// Loop depth per block (hot-edge selection).
    depth: Vec<u32>,
    /// Fix-up writes emitted this pass (the convergence metric).
    fix_writes: u64,
    /// Filler (`li 0`) writes emitted this pass: never-read pads over
    /// holes in a join layout, the W-REDUNDANT-FIX lint population.
    filler_writes: u64,
    /// Values banned from natural status, per join and relayed ring.
    /// When an edge pads the hole under a natural with a filler, the
    /// natural becomes a relay on every later pass; the relay group is
    /// contiguous from the bottom, so the hole and its filler go away.
    /// Monotone, so the filler tail converges.
    hole_banned: Vec<Vec<HashSet<VReg>>>,
    /// Record bans (only in the filler tail, once the ordinary layout
    /// fixpoint has settled: earlier passes emit transient fillers that
    /// the fixpoint removes on its own).
    ban_fillers: bool,
    /// This run's pass cap.
    passes: usize,
    /// Joins that gained a ban this pass; in the tail only these are
    /// rebuilt, so the tail cannot reshape code far from any filler.
    ban_dirty: HashSet<usize>,
    /// Choose join anchors by total estimated fix cost instead of first
    /// arrival (see [`Core::update_layouts`]).
    cost_anchor: bool,
}

impl<'a, I: RingIsa> Core<'a, I> {
    /// A code generator for `f` that appends to `out`; `dry` marks a
    /// measurement run, which stops at the layout fixpoint.
    fn new(
        f: &'a Function,
        module: &'a Module,
        out: &'a mut Program<Inst<I::O>>,
        call_fixups: &'a mut Vec<(usize, usize)>,
        opt: &OptConfig,
        cost_anchor: bool,
        dry: bool,
    ) -> Self {
        let live = liveness(f);
        let loops = loop_info(f);
        let zero_vregs = zero_vregs(f);
        let (isa, entry_order) = I::plan(f, &live, &loops, &zero_vregs, opt.optimize);
        let rings = I::EDGE_RINGS.len();
        Core {
            f,
            module,
            out,
            call_fixups,
            isa,
            optimize: opt.optimize,
            loc: HashMap::new(),
            counters: [0; 4],
            sp_pos: -1,
            zero_vregs,
            spill_off: HashMap::new(),
            frame_size: 0,
            array_offsets: Vec::new(),
            block_starts: vec![0; f.blocks.len()],
            fixups: Vec::new(),
            entry_order,
            live_out: live.live_out,
            preds_count: f.predecessors().iter().map(|p| p.len()).collect(),
            pending: HashMap::new(),
            layouts: Vec::new(),
            deliveries: Vec::new(),
            deliveries_prev: vec![Vec::new(); f.blocks.len()],
            depth: loops.depth,
            fix_writes: 0,
            filler_writes: 0,
            hole_banned: vec![vec![HashSet::new(); rings]; f.blocks.len()],
            ban_fillers: false,
            passes: if dry {
                LAYOUT_PASSES.min(I::PASS_CAP)
            } else {
                I::PASS_CAP
            },
            ban_dirty: HashSet::new(),
            cost_anchor,
        }
    }

    /// Pushes an instruction, advancing the counter of the ring it
    /// writes.
    pub fn push(&mut self, i: Inst<I::O>) {
        if let Some(d) = I::O::IMPLICIT_DST.or(i.dst()) {
            self.counters[I::ring(d)] += 1;
        }
        self.out.insts.push(i);
    }

    /// Records that the next write to `ring` defines `v` (call just
    /// before pushing the defining instruction).
    pub fn define(&mut self, v: VReg, ring: Dst<I>) {
        let pos = self.counters[I::ring(ring)];
        self.loc.insert(v, Loc { ring, pos });
    }

    /// Current distance of the value at `l`.
    pub fn dist(&self, l: Loc<Dst<I>>) -> i64 {
        self.counters[I::ring(l.ring)] - 1 - l.pos
    }

    /// Reads `v` as a source operand.
    pub fn src(&self, v: VReg) -> Result<Src<I>, String> {
        if self.zero_vregs.contains(v) {
            return Ok(Default::default());
        }
        let l = self
            .loc
            .get(&v)
            .ok_or_else(|| format!("{}: v{v} has no ring position", self.f.name))?;
        let d = self.dist(*l);
        let max = I::max_dist(l.ring);
        if !(0..=max).contains(&d) {
            return Err(format!("{}: v{v} at distance {d}, past {max}", self.f.name));
        }
        Ok(I::src_at(l.ring, d))
    }

    /// Relays every relayable value that `keep` selects and whose
    /// distance reached `threshold`, deepest first (vreg id breaks
    /// ties).
    pub fn relay_over(
        &mut self,
        threshold: i64,
        keep: impl Fn(VReg) -> bool,
    ) -> Result<(), String> {
        for _ in 0..RELAY_GUARD {
            let mut victim: Option<(i64, VReg, Dst<I>)> = None;
            for (&v, &l) in &self.loc {
                if self.zero_vregs.contains(v) || !I::relayable(self, v, l) {
                    continue;
                }
                let d = self.dist(l);
                if keep(v) && d >= threshold && victim.is_none_or(|(bd, bv, _)| (d, v) > (bd, bv)) {
                    victim = Some((d, v, l.ring));
                }
            }
            let Some((_, v, ring)) = victim else {
                return Ok(());
            };
            let src = self.src(v)?;
            self.define(v, ring);
            self.push(Inst::Mv { dst: ring, src });
        }
        Err(format!(
            "{}: relay pressure too high (≥{RELAY_GUARD} relays)",
            self.f.name
        ))
    }

    /// Enters join `b`: only its layout's values have positions, at
    /// their layout distances.
    pub fn enter_layout(&mut self, b: usize) {
        self.loc.clear();
        self.counters = [0; 4];
        for (layout, &ring) in self.layouts[b].iter().zip(I::EDGE_RINGS) {
            for &(v, d) in layout {
                self.loc.insert(v, Loc { ring, pos: -1 - d });
            }
        }
    }

    fn run(mut self) -> Result<(), String> {
        // ---- Frame: [ra][ISA-reserved][spills][arrays] ----
        let mut spills = self.call_spills();
        let mut off = 8 + I::reserve_frame(&mut self, &mut spills);
        for v in spills.iter() {
            if !self.zero_vregs.contains(v) {
                self.spill_off.insert(v, off);
                off += 8;
            }
        }
        for &sz in &self.f.frame_slots {
            self.array_offsets.push(off);
            off += (sz.div_ceil(8) * 8) as i32;
        }
        self.frame_size = (off + 15) / 16 * 16;

        // Initial layouts: per ring, the canonical order deepest first,
        // the last value just above the edge jump's slots.
        let jw = jump_writes::<I>();
        self.layouts = self
            .entry_order
            .iter()
            .map(|rings| {
                rings
                    .iter()
                    .map(|order| {
                        let k = order.len() as i64;
                        let at = |j: usize| jw + k - 1 - j as i64;
                        order.iter().enumerate().map(|(j, &v)| (v, at(j))).collect()
                    })
                    .collect()
            })
            .collect();

        // Iterated distance fixing (Section 6.1): probe the natural
        // positions each edge delivers, let joins adopt the hottest
        // edge's layout, re-emit. Passes past the layout fixpoint run
        // only while joins still pad layout holes with fillers; each
        // bans at least one natural, so that tail is short.
        let fn_start = self.out.insts.len();
        let cf_start = self.call_fixups.len();
        let order = rpo(self.f);
        for pass in 0..self.passes {
            self.out.insts.truncate(fn_start);
            self.call_fixups.truncate(cf_start);
            self.fixups.clear();
            self.pending.clear();
            self.deliveries = vec![Vec::new(); self.f.blocks.len()];
            self.fix_writes = 0;
            self.filler_writes = 0;
            self.ban_fillers = self.passes > LAYOUT_PASSES && pass >= LAYOUT_PASSES - 1;
            self.ban_dirty.clear();
            for (oi, &b) in order.iter().enumerate() {
                self.gen_block(b, oi == 0, order.get(oi + 1).copied())?;
            }
            if self.fix_writes == 0
                || (pass >= LAYOUT_PASSES - 1 && self.filler_writes == 0)
                || pass + 1 == self.passes
            {
                break;
            }
            self.update_layouts();
            self.deliveries_prev = std::mem::take(&mut self.deliveries);
        }
        for (at, blk) in std::mem::take(&mut self.fixups) {
            let t = self.block_starts[blk];
            match &mut self.out.insts[at] {
                Inst::Branch { target, .. } | Inst::Jump { target } => *target = t,
                _ => unreachable!("fixup on non-branch"),
            }
        }
        Ok(())
    }

    /// Values live across some call (needed after it, other than its
    /// result).
    fn call_spills(&self) -> BitSet {
        let mut spills = BitSet::new(self.f.num_vregs());
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
                    spills.union_with(&after);
                }
            }
        }
        spills
    }

    /// Rebuilds each join's layout from a natural delivery; values it
    /// cannot take fall back to relay slots.
    ///
    /// The anchor is an edge at the deepest loop level (the hot path
    /// must pay zero fixes): the first to arrive, or, with
    /// `cost_anchor`, the one whose layout minimizes the estimated fix
    /// writes summed over every recorded edge. A first-arrival anchor
    /// can pin values above holes (its own dead interleaved writes),
    /// which every other edge then pads with fillers; the estimate is
    /// local and one pass stale, so `compile` measures both.
    fn update_layouts(&mut self) {
        let jw = jump_writes::<I>();
        for b in 0..self.f.blocks.len() {
            // In the filler tail only joins that just gained a ban are
            // rebuilt.
            if self.ban_fillers && !self.ban_dirty.contains(&b) {
                continue;
            }
            let cands = &self.deliveries[b];
            let Some(hottest) = cands.iter().map(|c| c.depth).max() else {
                continue;
            };
            let prev = &self.deliveries_prev[b];
            let build = |from: usize, nat: &HashMap<VReg, i64>| -> Layout {
                let before = match I::STABILITY {
                    Stability::Anchor => anchor(prev),
                    Stability::SamePred => prev.iter().find(|p| p.from == from),
                };
                // A first update is optimistic.
                let stable = |v: VReg, d: i64| before.is_none_or(|p| p.nat.get(&v) == Some(&d));
                let rings = self.entry_order[b].iter().zip(&self.hole_banned[b]);
                rings
                    .map(|(order, banned)| {
                        let mut used = HashSet::new();
                        let mut naturals: Vec<(VReg, i64)> = Vec::new();
                        let mut relays: Vec<VReg> = Vec::new();
                        for &v in order {
                            match nat.get(&v) {
                                Some(&d)
                                    if (jw..=I::LIMIT).contains(&d)
                                        && stable(v, d)
                                        && !banned.contains(&v)
                                        && used.insert(d) =>
                                {
                                    naturals.push((v, d))
                                }
                                _ => relays.push(v),
                            }
                        }
                        // Steady state: the edge re-emits the relay
                        // group (r writes) every time, shifting every
                        // natural by r, so relays take the r slots just
                        // above the jump and naturals their observed
                        // distance plus r.
                        loop {
                            let r = relays.len() as i64;
                            match naturals.iter().position(|&(_, d)| d + r > I::LIMIT) {
                                Some(i) => relays.push(naturals.remove(i).0),
                                None => break,
                            }
                        }
                        let r = relays.len() as i64;
                        let mut layout: Vec<(VReg, i64)> =
                            naturals.into_iter().map(|(v, d)| (v, d + r)).collect();
                        layout.extend(relays.into_iter().zip(jw..));
                        layout
                    })
                    .collect()
            };
            let mut best: Option<(i64, Layout)> = None;
            for c in cands.iter().filter(|c| c.depth == hottest) {
                let layout = build(c.from, &c.nat);
                if !self.cost_anchor {
                    best = Some((0, layout));
                    break;
                }
                let cost: i64 = cands
                    .iter()
                    .flat_map(|np| {
                        layout
                            .iter()
                            .map(|l| fix_count(l, 0, |v| np.nat.get(&v).copied()))
                    })
                    .sum();
                if best.as_ref().is_none_or(|&(bc, _)| cost < bc) {
                    best = Some((cost, layout));
                }
            }
            self.layouts[b] = best.expect("a join has a hottest delivery").1;
        }
    }

    fn gen_block(&mut self, b: usize, is_entry: bool, next: Option<usize>) -> Result<(), String> {
        self.block_starts[b] = self.out.insts.len() as u32;
        if is_entry {
            I::prologue(self)?;
        } else if let Some((loc, counters, sp_pos)) = self.pending.remove(&b) {
            // Single predecessor: inherit its exact path state.
            self.loc = loc;
            self.counters = counters;
            self.sp_pos = sp_pos;
        } else {
            I::join_entry(self, b);
        }

        let f = self.f;
        let blk = &f.blocks[b];
        // Per-point liveness within the block: needed_at[i] holds the
        // vregs whose value before instruction i is still read later
        // with no intervening redefinition, or escapes the block. A mere
        // "used later" test would relay or spill stale values that are
        // redefined before their next use, and a stale distance may
        // already be unencodable.
        let nins = blk.insts.len();
        let mut needed_at: Vec<HashSet<VReg>> = vec![HashSet::new(); nins + 1];
        let mut live: HashSet<VReg> = self.live_out[b].iter().collect();
        live.extend(blk.term.srcs());
        needed_at[nins] = live.clone();
        for i in (0..nins).rev() {
            if let Some(d) = blk.insts[i].dst() {
                live.remove(&d);
            }
            live.extend(blk.insts[i].srcs());
            needed_at[i] = live.clone();
        }

        for (i, ins) in blk.insts.iter().enumerate() {
            // The current value of v must survive past this instruction:
            // needed afterwards, and not about to be redefined here.
            let na = &needed_at[i + 1];
            let dst = ins.dst();
            I::before_relays(self, ins)?;
            let threshold = I::ins_threshold(self, ins, na);
            let args: &[VReg] = match ins {
                Ins::Call { args, .. } if I::KEEP_CALL_ARGS => args,
                _ => &[],
            };
            self.relay_over(threshold, |v| {
                (na.contains(&v) && dst != Some(v)) || args.contains(&v)
            })?;
            self.gen_ins(ins, na)?;
        }
        // The terminator's reads and edge-fix writes run after the last
        // instruction's relay pass; relay once more so they start in
        // reach.
        let na = &needed_at[nins];
        let threshold = I::term_threshold(self, &blk.term);
        self.relay_over(threshold, |v| na.contains(&v))?;
        self.gen_term(b, &blk.term, next)
    }

    fn gen_ins(&mut self, ins: &Ins, needed_after: &HashSet<VReg>) -> Result<(), String> {
        // Reload every stack-resident source before computing any
        // distance (a reload is a write and would shift them).
        for src in ins.srcs() {
            I::reload(self, src)?;
        }
        match *ins {
            Ins::Const { dst, val } => {
                if !self.zero_vregs.contains(dst) {
                    self.def(dst, |d| Inst::Li { dst: d, imm: val });
                }
            }
            Ins::FConst { dst, val } => {
                let imm = val.to_bits() as i64;
                self.def(dst, |d| Inst::Li { dst: d, imm });
            }
            Ins::GlobalAddr { dst, id } => {
                let imm = self.module.globals[id].addr as i64;
                self.def(dst, |d| Inst::Li { dst: d, imm });
            }
            Ins::FrameAddr { dst, slot } => {
                let src1 = I::sp_src(self)?;
                let imm = self.array_offsets[slot];
                self.def(dst, |d| Inst::AluImm {
                    op: AluOp::Add,
                    dst: d,
                    src1,
                    imm,
                });
            }
            Ins::Bin { op, dst, a, b } => {
                let (src1, src2) = (self.src(a)?, self.src(b)?);
                self.def(dst, |d| Inst::Alu {
                    op,
                    dst: d,
                    src1,
                    src2,
                });
            }
            Ins::BinImm { op, dst, a, imm } => {
                let src1 = self.src(a)?;
                self.def(dst, |d| Inst::AluImm {
                    op,
                    dst: d,
                    src1,
                    imm,
                });
            }
            Ins::Load { op, dst, addr, off } => {
                let base = self.src(addr)?;
                self.def(dst, |d| Inst::Load {
                    op,
                    dst: d,
                    base,
                    offset: off,
                });
            }
            Ins::Store { op, val, addr, off } => {
                let (value, base) = (self.src(val)?, self.src(addr)?);
                self.push(Inst::Store {
                    op,
                    value,
                    base,
                    offset: off,
                });
            }
            Ins::Copy { dst, src } => {
                let src = self.src(src)?;
                self.def(dst, |d| Inst::Mv { dst: d, src });
            }
            Ins::Call {
                dst,
                callee,
                ref args,
            } => self.gen_call(dst, callee, args, needed_after)?,
        }
        if let Some(d) = ins.dst() {
            I::write_through(self, d)?;
        }
        Ok(())
    }

    /// Defines `v` with the instruction `make` builds for its
    /// destination.
    fn def(&mut self, v: VReg, make: impl FnOnce(Dst<I>) -> Inst<I::O>) {
        let d = I::dst_for(self, v);
        self.define(v, d);
        self.push(make(d));
    }

    /// A call: spill what is needed after it, push the arguments
    /// (last first, so the first is the latest write), call, let the
    /// ISA place the result, reload the spills.
    fn gen_call(
        &mut self,
        dst: Option<VReg>,
        callee: usize,
        args: &[VReg],
        needed_after: &HashSet<VReg>,
    ) -> Result<(), String> {
        let mut after: Vec<VReg> = self
            .loc
            .iter()
            .filter(|&(&v, &l)| {
                needed_after.contains(&v)
                    && Some(v) != dst
                    && !self.zero_vregs.contains(v)
                    && I::spilled_across_call(self, v, l)
            })
            .map(|(&v, _)| v)
            .collect();
        after.sort_unstable();
        for &v in &after {
            let value = self.src(v)?;
            let offset = *self
                .spill_off
                .get(&v)
                .ok_or_else(|| format!("{}: v{v} has no spill slot", self.f.name))?;
            let base = I::sp_src(self)?;
            self.push(Inst::Store {
                op: StoreOp::Sd,
                value,
                base,
                offset,
            });
        }
        for &a in args.iter().rev() {
            let src = self.src(a)?;
            self.push(Inst::Mv {
                dst: I::CONVENTION,
                src,
            });
        }
        let at = self.out.insts.len();
        self.push(Inst::Call {
            dst: I::CONVENTION,
            target: 0,
        });
        self.call_fixups.push((at, callee));
        I::after_call(self, dst)?;
        for &v in &after {
            let offset = self.spill_off[&v];
            let base = I::sp_src(self)?;
            self.def(v, |d| Inst::Load {
                op: LoadOp::Ld,
                dst: d,
                base,
                offset,
            });
        }
        Ok(())
    }

    /// Pushes a jump to block `t`.
    fn jump_to(&mut self, t: usize) {
        let at = self.out.insts.len();
        self.push(Inst::Jump { target: 0 });
        self.fixups.push((at, t));
    }

    /// Fix writes ring by ring for `targets` with the current positions
    /// (see [`fix_count`]).
    fn fix_count_now(&self, targets: &[(VReg, i64)], jj: i64) -> i64 {
        fix_count(targets, jj, |v| self.loc.get(&v).map(|&l| self.dist(l)))
    }

    /// Transfers control to `t`: a single-predecessor target inherits
    /// the path state; a join receives, per relayed ring, exactly the
    /// writes that realise its entry layout (none on the stabilised hot
    /// edge).
    fn take_edge(&mut self, from: usize, t: usize, can_fallthrough: bool) -> Result<(), String> {
        if self.preds_count[t] == 1 {
            if !can_fallthrough {
                self.jump_to(t);
            }
            let state = (self.loc.clone(), self.counters, self.sp_pos);
            self.pending.insert(t, state);
            return Ok(());
        }
        let jj = if can_fallthrough {
            0
        } else {
            jump_writes::<I>()
        };
        // Record this edge's natural delivery for the layout update.
        let nat = self.layouts[t]
            .iter()
            .flatten()
            .filter_map(|&(v, _)| self.loc.get(&v).map(|&l| (v, self.dist(l) + jj)))
            .collect();
        let depth = self.depth[from];
        self.deliveries[t].push(Delivery { from, depth, nat });
        for (hi, &ring) in I::EDGE_RINGS.iter().enumerate() {
            let targets = std::mem::take(&mut self.layouts[t][hi]);
            let fixed = self.fix_ring(t, hi, ring, &targets, jj);
            self.layouts[t][hi] = targets;
            fixed?;
        }
        if !can_fallthrough {
            self.jump_to(t);
        }
        Ok(())
    }

    /// Emits one ring's edge fixes into join `t` (ring `hi` of its
    /// layout).
    fn fix_ring(
        &mut self,
        t: usize,
        hi: usize,
        ring: Dst<I>,
        targets: &[(VReg, i64)],
        jj: i64,
    ) -> Result<(), String> {
        let mut c = self.fix_count_now(targets, jj);
        // Pre-relay any to-be-emitted value whose read would overflow by
        // the time its slot comes up. The victim is the deepest emitted
        // value, not the deepest flagged one: every relay pushes the
        // others one deeper, so relaying around a value at MAX_DIST
        // would push it out of reach before the recomputed fix count
        // flags it. Relaying max-first keeps the maximum from growing.
        for _round in 0..64 {
            let mut need = false;
            let mut deepest: Option<(VReg, i64)> = None;
            for &(v, d) in targets {
                if d < c + jj {
                    if let Some(&l) = self.loc.get(&v) {
                        let cur = self.dist(l);
                        if cur + (c + jj - 1 - d) > I::MAX_DIST {
                            need = true;
                        }
                        if deepest.is_none_or(|(_, bd)| cur > bd) {
                            deepest = Some((v, cur));
                        }
                    }
                }
            }
            let Some((v, _)) = deepest.filter(|_| need) else {
                break;
            };
            let src = self.src(v)?;
            self.define(v, ring);
            self.push(Inst::Mv { dst: ring, src });
            self.fix_writes += 1;
            c = self.fix_count_now(targets, jj);
        }
        for slot in (jj..jj + c).rev() {
            self.fix_writes += 1;
            match targets.iter().find(|&&(_, d)| d == slot) {
                Some(&(v, _)) => {
                    let src = self.src(v)?;
                    self.define(v, ring);
                    self.push(Inst::Mv { dst: ring, src });
                }
                // Filler slot (a hole in the layout): something must
                // write the ring to shift the values above into place. A
                // dependency-free `li 0` is the cheapest such write — a
                // value-carrying move was measured to splice an extra hop
                // into the value's dependence chain and cost 0.5–1.8 %
                // cycles on hot edges. In the filler tail the pad also
                // bans the natural above the hole, so the next pass
                // rebuilds this join without it.
                None => {
                    self.filler_writes += 1;
                    if self.ban_fillers {
                        let above = targets
                            .iter()
                            .filter(|&&(_, d)| d > slot)
                            .min_by_key(|&&(_, d)| d);
                        if let Some(&(v, _)) = above {
                            if self.hole_banned[t][hi].insert(v) {
                                self.ban_dirty.insert(t);
                            }
                        }
                    }
                    self.push(Inst::Li { dst: ring, imm: 0 });
                }
            }
        }
        Ok(())
    }

    fn gen_term(&mut self, from: usize, term: &Term, next: Option<usize>) -> Result<(), String> {
        match *term {
            Term::Jump(t) => self.take_edge(from, t, next == Some(t)),
            Term::CondBr {
                cond,
                a,
                b,
                then_,
                else_,
            } => {
                if then_ == else_ {
                    return self.take_edge(from, then_, next == Some(then_));
                }
                I::reload(self, a)?;
                I::reload(self, b)?;
                let (src1, src2) = (self.src(a)?, self.src(b)?);
                let br_at = self.out.insts.len();
                self.push(Inst::Branch {
                    cond,
                    src1,
                    src2,
                    target: 0,
                });
                // Both edges have executed the branch; fork the state.
                let saved = (self.loc.clone(), self.counters, self.sp_pos);
                // A taken-side stub is needed unless the branch can land
                // directly on the target: a single predecessor, or a join
                // whose layout this edge already meets with zero fixes.
                let then_direct = self.preds_count[then_] == 1
                    || self.layouts[then_]
                        .iter()
                        .all(|l| self.fix_count_now(l, 0) == 0);
                let can_ft = then_direct && next == Some(else_);
                self.take_edge(from, else_, can_ft)?;
                (self.loc, self.counters, self.sp_pos) = saved;
                if then_direct {
                    // Still record the delivery or pending state.
                    let here = self.out.insts.len();
                    self.take_edge(from, then_, true)?;
                    debug_assert_eq!(here, self.out.insts.len());
                    self.fixups.push((br_at, then_));
                } else {
                    let stub = self.out.insts.len() as u32;
                    self.take_edge(from, then_, false)?;
                    if let Inst::Branch { target, .. } = &mut self.out.insts[br_at] {
                        *target = stub;
                    }
                }
                Ok(())
            }
            Term::Ret(v) => I::epilogue(self, v),
        }
    }
}

/// The anchor among a join's deliveries: the first at the deepest loop
/// level.
fn anchor(ds: &[Delivery]) -> Option<&Delivery> {
    let hottest = ds.iter().map(|d| d.depth).max()?;
    ds.iter().find(|d| d.depth == hottest)
}

/// Minimal fix-write count for one ring's layout: the smallest `c` such
/// that every target not among the `c` emitted writes (which land at
/// distances `jj..jj + c`, under the edge jump's `jj` slots) is already
/// delivered naturally — its distance `dist` plus the `c + jj` writes
/// still to come lands it exactly at its target.
fn fix_count(targets: &[(VReg, i64)], jj: i64, dist: impl Fn(VReg) -> Option<i64>) -> i64 {
    let top = targets
        .iter()
        .map(|&(_, d)| d + 1 - jj)
        .max()
        .unwrap_or(0)
        .max(0);
    (0..top)
        .find(|&c| {
            targets
                .iter()
                .all(|&(v, d)| d < c + jj || dist(v).map(|x| x + c + jj) == Some(d))
        })
        .unwrap_or(top)
}

/// Values whose only definition is integer constant zero.
fn zero_vregs(f: &Function) -> BitSet {
    let mut defs: HashMap<VReg, u32> = HashMap::new();
    let mut zeroes: Vec<VReg> = Vec::new();
    for ins in f.blocks.iter().flat_map(|b| &b.insts) {
        if let Some(d) = ins.dst() {
            *defs.entry(d).or_default() += 1;
            if matches!(ins, Ins::Const { val: 0, .. }) {
                zeroes.push(d);
            }
        }
    }
    let mut zero = BitSet::new(f.num_vregs());
    for z in zeroes {
        if defs[&z] == 1 {
            zero.insert(z);
        }
    }
    zero
}
