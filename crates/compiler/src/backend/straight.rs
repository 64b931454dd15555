//! STRAIGHT backend: distance fixing with a single ring.
//!
//! The central constraint (Section 2.2.2 of the paper): a source's dynamic
//! inter-instruction distance must be statically fixed and ≤ 127. This
//! first-step compiler enforces it with an **edge-relay** scheme:
//!
//! * Within a block, every value's ring position is tracked exactly (every
//!   instruction occupies one slot).
//! * On every CFG edge into a block `S`, the values live into `S` are
//!   re-emitted with relay `mv`s in a canonical order followed by one
//!   jump, so every predecessor delivers them at identical distances —
//!   these are the paper's *mv-LoopConstant* relays, plus the Fig. 2(c)
//!   `j`/`nop` padding, materialised as real instructions.
//! * A value whose in-block distance approaches the 127 limit is
//!   re-relayed in place (*mv-MaxDistance*).
//! * A call invalidates every caller distance (the callee executes an
//!   unknown number of slots), so values live across a call are spilled
//!   to the stack and reloaded — the paper's observed load/store
//!   increase in STRAIGHT.
//!
//! Calling convention (matching Fig. 1(c) and Section 4.2): args are the
//! last writes before the `call` (arg1 innermost), the return address is
//! the `call`'s own slot, SP is the special register updated by `spaddi`,
//! and the return value is written immediately before `ret` (distance 2
//! at the resume point).

use super::opt::{schedule_function, OptConfig};
use crate::cfg::{liveness, loop_info, rpo, BitSet};
use crate::ir::{Function, Ins, Module, Term, VReg};
use ch_baselines::straight::{StInst, StProgram, StSrc};
use ch_common::exec::{AluOp, LoadOp, StoreOp};
use std::collections::HashMap;

/// Relay proactively once a live value's distance reaches this threshold.
const RELAY_AT: i64 = 120;
/// Hard ISA limit.
const MAX_DIST: i64 = 127;

/// Compiles a module to a STRAIGHT program (with a `_start` stub)
/// using the process-wide optimization configuration.
///
/// # Errors
///
/// Returns a description of any unsatisfiable constraint.
pub fn compile(module: &Module) -> Result<StProgram, String> {
    compile_with(module, &OptConfig::current())
}

/// Compiles a module with an explicit optimization configuration.
///
/// STRAIGHT consumes the shared analyses through one lever: the
/// distance-aware local scheduler ([`schedule_function`]). Shorter
/// def-use spans mean fewer *mv-MaxDistance* relays against the 127
/// limit and tighter edge-relay sequences. As in the Clockhands
/// backend, the scheduled variant is accepted per function only when
/// it strictly shrinks the emitted code — the heuristic is measured,
/// not trusted.
///
/// # Errors
///
/// Returns a description of any unsatisfiable constraint.
pub fn compile_with(module: &Module, opt: &OptConfig) -> Result<StProgram, String> {
    let mut prog = StProgram::new();
    let mut call_fixups: Vec<(usize, usize)> = Vec::new();
    let mut fn_starts: Vec<u32> = Vec::new();

    prog.insts.push(StInst::Call { target: 0 });
    call_fixups.push((0, module.main_index()));
    prog.insts.push(StInst::Halt {
        src: StSrc::Dist(2),
    });
    prog.labels.insert("_start".to_string(), 0);

    for f in &module.funcs {
        fn_starts.push(prog.insts.len() as u32);
        prog.labels.insert(f.name.clone(), prog.insts.len() as u32);
        let scheduled;
        let mut chosen = f;
        if opt.schedule {
            scheduled = schedule_function(f);
            let emitted = |func: &Function| -> Option<usize> {
                let mut tmp = StProgram::new();
                let mut fx = Vec::new();
                FnCg::new(func, module, &mut tmp, &mut fx)
                    .run()
                    .ok()
                    .map(|()| tmp.insts.len())
            };
            if let (Some(base), Some(sched)) = (emitted(f), emitted(&scheduled)) {
                if sched < base {
                    chosen = &scheduled;
                }
            }
        }
        FnCg::new(chosen, module, &mut prog, &mut call_fixups).run()?;
    }
    for (at, func) in call_fixups {
        if let StInst::Call { target } = &mut prog.insts[at] {
            *target = fn_starts[func];
        }
    }
    prog.entry = 0;
    Ok(prog)
}

struct FnCg<'a> {
    f: &'a Function,
    module: &'a Module,
    out: &'a mut StProgram,
    call_fixups: &'a mut Vec<(usize, usize)>,
    /// Ring-slot position of each live vreg (counter units; negative =
    /// written before the current block).
    loc: HashMap<VReg, i64>,
    /// Monotone slot counter within the current path segment.
    counter: i64,
    /// Vregs whose sole definition is integer constant zero.
    zero_vregs: BitSet,
    /// Frame offsets for values spilled around calls.
    spill_off: HashMap<VReg, i32>,
    frame_size: i32,
    ra_off: i32,
    array_offsets: Vec<i32>,
    /// Start index (in `out.insts`) of each block's body.
    block_starts: Vec<u32>,
    /// Jump/branch fixups: (inst index, target block).
    fixups: Vec<(usize, usize)>,
    /// Canonical live-in order per block.
    entry_order: Vec<Vec<VReg>>,
    live_out: Vec<BitSet>,
    /// Predecessor counts (single-pred blocks inherit state, no relays).
    preds_count: Vec<usize>,
    /// Saved path state for single-predecessor successors.
    pending: HashMap<usize, (HashMap<VReg, i64>, i64)>,
    /// Chosen entry layout per multi-predecessor block: (vreg, distance).
    layouts: Vec<Vec<(VReg, i64)>>,
    /// Hot natural delivery observed per block: (source loop depth, dists).
    deliveries: Vec<Option<(u32, HashMap<VReg, i64>)>>,
    /// Loop depth per block (hot-edge selection).
    depth: Vec<u32>,
    /// Fix-up writes emitted this pass (convergence metric).
    fix_writes: u64,
    /// Previous pass's deliveries (drift detection: a value is only a
    /// stable natural if two consecutive passes deliver it identically).
    deliveries_prev: Vec<Option<HashMap<VReg, i64>>>,
}

impl<'a> FnCg<'a> {
    fn new(
        f: &'a Function,
        module: &'a Module,
        out: &'a mut StProgram,
        call_fixups: &'a mut Vec<(usize, usize)>,
    ) -> Self {
        let live = liveness(f);
        // Canonical order: ascending vreg id, EXCEPT the entry block whose
        // order is dictated by the calling convention (args are pushed
        // argN..arg1, so the last relay before the call is arg1).
        let mut entry_order: Vec<Vec<VReg>> = live
            .live_in
            .iter()
            .map(|s| s.iter().collect::<Vec<_>>())
            .collect();
        entry_order[0] = f.params.iter().rev().copied().collect();
        // Zero-const vregs: single definition, `Const 0`.
        let mut defs: HashMap<VReg, u32> = HashMap::new();
        let mut zeroes: Vec<VReg> = Vec::new();
        for b in &f.blocks {
            for ins in &b.insts {
                if let Some(d) = ins.dst() {
                    *defs.entry(d).or_default() += 1;
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
        FnCg {
            f,
            module,
            out,
            call_fixups,
            loc: HashMap::new(),
            counter: 0,
            zero_vregs,
            spill_off: HashMap::new(),
            frame_size: 0,
            ra_off: 0,
            array_offsets: Vec::new(),
            block_starts: vec![0; f.blocks.len()],
            fixups: Vec::new(),
            entry_order,
            live_out: live.live_out,
            preds_count: f.predecessors().iter().map(|p| p.len()).collect(),
            pending: HashMap::new(),
            layouts: Vec::new(),
            deliveries: Vec::new(),
            depth: loop_info(f).depth,
            fix_writes: 0,
            deliveries_prev: Vec::new(),
        }
    }

    fn push(&mut self, i: StInst) {
        self.out.insts.push(i);
        self.counter += 1;
    }

    /// Reads vreg `v` as a source operand.
    fn src(&self, v: VReg) -> Result<StSrc, String> {
        if self.zero_vregs.contains(v) {
            return Ok(StSrc::Zero);
        }
        let pos = self
            .loc
            .get(&v)
            .ok_or_else(|| format!("{}: v{} has no ring position", self.f.name, v))?;
        let d = self.counter - pos;
        if !(1..=MAX_DIST).contains(&d) {
            return Err(format!("{}: v{} at distance {d}", self.f.name, v));
        }
        Ok(StSrc::Dist(d as u8))
    }

    /// Records that the instruction about to be pushed defines `v`.
    fn define(&mut self, v: VReg) {
        self.loc.insert(v, self.counter);
    }

    /// Relays any still-needed value whose distance reached `threshold`.
    fn relay_over(&mut self, threshold: i64, keep: &dyn Fn(VReg) -> bool) -> Result<(), String> {
        for _guard in 0..512 {
            // Deterministic choice: deepest value first, vreg id ties.
            let mut victim: Option<(i64, VReg)> = None;
            for (&v, &pos) in &self.loc {
                if self.zero_vregs.contains(v) {
                    continue;
                }
                let d = self.counter - pos;
                if keep(v) && d >= threshold && victim.map(|b| (d, v) > b).unwrap_or(true) {
                    victim = Some((d, v));
                }
            }
            let victim = victim.map(|(_, v)| v);
            match victim {
                Some(v) => {
                    let s = self.src(v)?;
                    self.define(v);
                    self.push(StInst::Mv { src: s });
                }
                None => return Ok(()),
            }
        }
        Err(format!(
            "{}: relay pressure too high (≥512 relays)",
            self.f.name
        ))
    }

    fn run(mut self) -> Result<(), String> {
        // ---- Frame layout: [ra][call spills][arrays] ----
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
        for v in needs_spill.iter() {
            if self.zero_vregs.contains(v) {
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

        // Initial layouts: canonical (live-ins ascending, deepest first,
        // every distance ≥ 1 because a jump slot always precedes entry).
        self.layouts = self
            .entry_order
            .iter()
            .map(|order| {
                let k = order.len() as i64;
                // Distances k-j+1 put the last value at 2 (one slot for
                // the edge jump — or, at the function entry, the call).
                order
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| (v, k - j as i64 + 1))
                    .collect()
            })
            .collect();

        // Distance fixing is iterated (Section 6.1): pass 1 probes the
        // natural positions each edge delivers; loop headers then adopt
        // the hottest (deepest) incoming edge's natural layout so the
        // back edge pays no relays; a final pass emits the result.
        let fn_start = self.out.insts.len();
        let cf_start = self.call_fixups.len();
        self.deliveries_prev = vec![None; self.f.blocks.len()];
        for pass in 0..4 {
            self.out.insts.truncate(fn_start);
            self.call_fixups.truncate(cf_start);
            self.fixups.clear();
            self.pending.clear();
            self.deliveries = vec![None; self.f.blocks.len()];
            self.fix_writes = 0;
            let order = rpo(self.f);
            for (oi, &b) in order.iter().enumerate() {
                let next = order.get(oi + 1).copied();
                self.gen_block(b, oi == 0, next)?;
            }
            if std::env::var("CH_DEBUG_LAYOUT").is_ok() {
                eprintln!(
                    "[{} pass {pass}] fix_writes={} layouts={:?} deliveries={:?}",
                    self.f.name, self.fix_writes, self.layouts, self.deliveries
                );
            }
            if pass == 3 || self.fix_writes == 0 {
                break;
            }
            self.update_layouts();
            self.deliveries_prev = self
                .deliveries
                .iter()
                .map(|d| d.as_ref().map(|(_, n)| n.clone()))
                .collect();
        }
        for (at, blk) in std::mem::take(&mut self.fixups) {
            let t = self.block_starts[blk];
            match &mut self.out.insts[at] {
                StInst::Branch { target, .. } | StInst::Jump { target } => *target = t,
                _ => unreachable!("fixup on non-branch"),
            }
        }
        Ok(())
    }

    /// Adopts each join's hottest observed natural delivery as its entry
    /// layout; undeliverable values fall back to explicit relay slots.
    fn update_layouts(&mut self) {
        const LIMIT: i64 = 100;
        for b in 0..self.f.blocks.len() {
            let nat = match &self.deliveries[b] {
                Some((_, nat)) => nat.clone(),
                None => continue,
            };
            let prev = self.deliveries_prev[b].clone();
            let stable = |v: VReg, d: i64| -> bool {
                match &prev {
                    Some(p) => p.get(&v) == Some(&d),
                    None => true, // first update: optimistic
                }
            };
            let order = self.entry_order[b].clone();
            let mut used: std::collections::HashSet<i64> = std::collections::HashSet::new();
            let mut naturals: Vec<(VReg, i64)> = Vec::new();
            let mut relays: Vec<VReg> = Vec::new();
            for &v in &order {
                match nat.get(&v) {
                    // A jump edge can never deliver at distance 1 (the
                    // jump's own slot), so natural layouts start at 2.
                    Some(&d) if (2..=LIMIT).contains(&d) && stable(v, d) && used.insert(d) => {
                        naturals.push((v, d));
                    }
                    _ => relays.push(v),
                }
            }
            // The steady state emits exactly the relay group every time
            // (r writes), which shifts every unemitted natural by r: put
            // relays at the shallowest slots (2..r+1 behind the jump) and
            // naturals at their observed distance plus r.
            loop {
                let r = relays.len() as i64;
                match naturals.iter().position(|&(_, d)| d + r > LIMIT) {
                    Some(i) => relays.push(naturals.remove(i).0),
                    None => break,
                }
            }
            let r = relays.len() as i64;
            let mut layout: Vec<(VReg, i64)> =
                naturals.into_iter().map(|(v, d)| (v, d + r)).collect();
            for (i, v) in relays.into_iter().enumerate() {
                layout.push((v, 2 + i as i64));
            }
            self.layouts[b] = layout;
        }
    }

    /// Entry state for a join block: live-ins at their chosen layout
    /// distances (the function entry instead follows the calling
    /// convention — see `gen_block`).
    fn block_entry_state(&mut self, b: usize) {
        self.loc.clear();
        self.counter = 0;
        for (v, d) in self.layouts[b].clone() {
            self.loc.insert(v, -d);
        }
    }

    fn gen_block(&mut self, b: usize, is_entry: bool, next: Option<usize>) -> Result<(), String> {
        self.block_starts[b] = self.out.insts.len() as u32;
        if let Some((loc, counter)) = self.pending.remove(&b) {
            // Single predecessor: inherit its exact path state — every
            // distance carries over, no relays were needed.
            self.loc = loc;
            self.counter = counter;
        } else {
            self.block_entry_state(b);
        }

        let blk = &self.f.blocks[b];
        // Per-point liveness within the block: needed_at[i] holds the
        // vregs whose value at point i is still read later with no
        // intervening redefinition, or escapes the block. A plain
        // "used later" test would relay/spill stale values that are
        // redefined before their next use — and a stale distance may
        // already be unencodable.
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

        if is_entry {
            // Prologue: allocate the frame, then spill the return address
            // (the call's slot: distance 1 at entry, 2 after the spaddi).
            self.push(StInst::SpAddi {
                imm: -self.frame_size,
            });
            self.push(StInst::Store {
                op: StoreOp::Sd,
                value: StSrc::Dist(2),
                base: StSrc::Sp,
                offset: self.ra_off,
            });
        }

        let insts = blk.insts.clone();
        for (i, ins) in insts.iter().enumerate() {
            // The current value of v must survive past this instruction:
            // needed afterwards, and not about to be redefined here.
            let na = &needed_at[i + 1];
            let dst = ins.dst();
            // A call's lowering emits one ring slot per spill store and
            // per argument push before its last pre-call read, so every
            // distance drifts by that many. Tighten the relay threshold
            // to leave that headroom, and keep the arguments themselves
            // in reach — they may be dead after the call.
            let (threshold, call_args): (i64, &[VReg]) = if let Ins::Call { args, .. } = ins {
                let spills = self
                    .loc
                    .keys()
                    .filter(|&&v| na.contains(&v) && dst != Some(v) && !self.zero_vregs.contains(v))
                    .count() as i64;
                let t = (MAX_DIST - spills - args.len() as i64).clamp(1, RELAY_AT);
                (t, args)
            } else {
                (RELAY_AT, &[])
            };
            let keep = move |v: VReg| (na.contains(&v) && dst != Some(v)) || call_args.contains(&v);
            self.relay_over(threshold, &keep)?;
            self.gen_ins(ins, &needed_at[i + 1])?;
        }
        let term = blk.term.clone();
        // The terminator's reads and edge-fix writes run after the last
        // instruction's relay pass; relay once more so they start in
        // reach.
        let na = &needed_at[nins];
        self.relay_over(RELAY_AT, &move |v: VReg| na.contains(&v))?;
        self.gen_term(b, &term, next)?;
        Ok(())
    }

    fn gen_ins(
        &mut self,
        ins: &Ins,
        needed_after: &std::collections::HashSet<VReg>,
    ) -> Result<(), String> {
        match ins {
            Ins::Const { dst, val } => {
                if self.zero_vregs.contains(*dst) {
                    return Ok(()); // reads become StSrc::Zero
                }
                self.define(*dst);
                self.push(StInst::Li { imm: *val });
            }
            Ins::FConst { dst, val } => {
                self.define(*dst);
                self.push(StInst::Li {
                    imm: val.to_bits() as i64,
                });
            }
            Ins::GlobalAddr { dst, id } => {
                self.define(*dst);
                self.push(StInst::Li {
                    imm: self.module.globals[*id].addr as i64,
                });
            }
            Ins::FrameAddr { dst, slot } => {
                self.define(*dst);
                self.push(StInst::AluImm {
                    op: AluOp::Add,
                    src1: StSrc::Sp,
                    imm: self.array_offsets[*slot],
                });
            }
            Ins::Bin { op, dst, a, b } => {
                let s1 = self.src(*a)?;
                let s2 = self.src(*b)?;
                self.define(*dst);
                self.push(StInst::Alu {
                    op: *op,
                    src1: s1,
                    src2: s2,
                });
            }
            Ins::BinImm { op, dst, a, imm } => {
                let s1 = self.src(*a)?;
                self.define(*dst);
                self.push(StInst::AluImm {
                    op: *op,
                    src1: s1,
                    imm: *imm,
                });
            }
            Ins::Load { op, dst, addr, off } => {
                let base = self.src(*addr)?;
                self.define(*dst);
                self.push(StInst::Load {
                    op: *op,
                    base,
                    offset: *off,
                });
            }
            Ins::Store { op, val, addr, off } => {
                let value = self.src(*val)?;
                let base = self.src(*addr)?;
                self.push(StInst::Store {
                    op: *op,
                    value,
                    base,
                    offset: *off,
                });
            }
            Ins::Copy { dst, src } => {
                let s = self.src(*src)?;
                self.define(*dst);
                self.push(StInst::Mv { src: s });
            }
            Ins::Call { dst, callee, args } => {
                // 1. Spill everything needed after the call that currently
                //    has a ring position.
                let mut after: Vec<VReg> = self
                    .loc
                    .keys()
                    .copied()
                    .filter(|&v| {
                        needed_after.contains(&v) && Some(v) != *dst && !self.zero_vregs.contains(v)
                    })
                    .collect();
                after.sort_unstable();
                for &v in &after {
                    let s = self.src(v)?;
                    let off = *self
                        .spill_off
                        .get(&v)
                        .ok_or_else(|| format!("{}: v{v} has no spill slot", self.f.name))?;
                    self.push(StInst::Store {
                        op: StoreOp::Sd,
                        value: s,
                        base: StSrc::Sp,
                        offset: off,
                    });
                }
                // 2. Push args argN..arg1.
                for &a in args.iter().rev() {
                    let s = self.src(a)?;
                    self.push(StInst::Mv { src: s });
                }
                // 3. Call; its slot is the return address.
                let at = self.out.insts.len();
                self.push(StInst::Call { target: 0 });
                self.call_fixups.push((at, *callee));
                // 4. Every caller position is dead. The return value is at
                //    distance 2 from the next instruction (retval mv, ret).
                self.loc.clear();
                if let Some(d) = dst {
                    self.loc.insert(*d, self.counter - 2);
                }
                // 5. Reload the spilled values.
                for &v in &after {
                    let off = self.spill_off[&v];
                    self.define(v);
                    self.push(StInst::Load {
                        op: LoadOp::Ld,
                        base: StSrc::Sp,
                        offset: off,
                    });
                }
            }
        }
        Ok(())
    }

    /// Minimal number of trailing fix writes so every layout target lands
    /// at its distance. Emitted fixes occupy entry distances
    /// `jj+1 ..= jj+c` (the optional jump takes slot `jj = 1`); an
    /// unemitted value drifts to `current + c + jj`.
    fn min_fix_writes(&self, targets: &[(VReg, i64)], jj: i64) -> i64 {
        let maxd = targets.iter().map(|&(_, d)| d).max().unwrap_or(0);
        'outer: for c in 0..=(maxd - jj).max(0) {
            for &(v, d) in targets {
                if d > c + jj {
                    // Unemitted: current distance must line up exactly.
                    match self.loc.get(&v) {
                        Some(&pos) if self.counter - pos + c + jj == d => {}
                        _ => continue 'outer,
                    }
                }
            }
            return c;
        }
        (maxd - jj).max(0)
    }

    /// Transfers control to `t`: a single-predecessor target inherits the
    /// path state; a join receives exactly the writes needed to realise
    /// its entry layout (zero on the stabilised hot edge).
    fn take_edge(&mut self, from: usize, t: usize, can_fallthrough: bool) -> Result<(), String> {
        if self.preds_count[t] == 1 {
            if !can_fallthrough {
                let at = self.out.insts.len();
                self.push(StInst::Jump { target: 0 });
                self.fixups.push((at, t));
            }
            self.pending.insert(t, (self.loc.clone(), self.counter));
            return Ok(());
        }
        let targets = self.layouts[t].clone();
        let jump = !can_fallthrough;
        let jj = jump as i64;
        // Record the natural delivery for the layout update.
        let d_from = self.depth[from];
        let record = self.deliveries[t]
            .as_ref()
            .map(|(d, _)| *d < d_from)
            .unwrap_or(true);
        if record {
            let mut nat = HashMap::new();
            for &(v, _) in &targets {
                if let Some(&pos) = self.loc.get(&v) {
                    nat.insert(v, self.counter - pos + jj);
                }
            }
            self.deliveries[t] = Some((d_from, nat));
        }
        let mut c = self.min_fix_writes(&targets, jj);
        // Pre-relay any to-be-emitted value whose read would overflow by
        // the time its slot comes up. When a relay is needed, the victim
        // is the deepest emitted value — not the deepest *flagged* one:
        // every relay pushes the others one deeper, so relaying around a
        // value sitting at MAX_DIST would push it out of reach before
        // the recomputed fix count flags it. Relaying max-first keeps
        // the maximum distance from ever growing.
        for _round in 0..64 {
            let mut need = false;
            let mut deepest: Option<(VReg, i64)> = None;
            for &(v, d) in &targets {
                if d <= c + jj {
                    if let Some(&pos) = self.loc.get(&v) {
                        let cur = self.counter - pos;
                        if cur + (jj + c - d) > MAX_DIST {
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
                    self.define(v);
                    self.push(StInst::Mv { src: sop });
                    self.fix_writes += 1;
                    c = self.min_fix_writes(&targets, jj);
                }
                None => break,
            }
        }
        for slot in (jj + 1..=jj + c).rev() {
            self.fix_writes += 1;
            match targets.iter().find(|&&(_, d)| d == slot) {
                Some(&(v, _)) => {
                    let sop = self.src(v)?;
                    self.define(v);
                    self.push(StInst::Mv { src: sop });
                }
                None => self.push(StInst::Li { imm: 0 }),
            }
        }
        if jump {
            let at = self.out.insts.len();
            self.push(StInst::Jump { target: 0 });
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
                let s1 = self.src(*a)?;
                let s2 = self.src(*b)?;
                let br_at = self.out.insts.len();
                self.push(StInst::Branch {
                    cond: *cond,
                    src1: s1,
                    src2: s2,
                    target: 0,
                });
                // Both edges have executed the branch slot; fork the state.
                let saved_loc = self.loc.clone();
                let saved_counter = self.counter;
                // A taken-side stub is needed unless the branch can land
                // directly on the target (single pred, or a join whose
                // layout this edge already satisfies with zero fixes).
                let then_direct = self.preds_count[*then_] == 1
                    || self.min_fix_writes(&self.layouts[*then_], 0) == 0;
                let can_ft = then_direct && next == Some(*else_);
                self.take_edge(from, *else_, can_ft)?;
                // Taken side.
                self.loc = saved_loc;
                self.counter = saved_counter;
                if then_direct {
                    // Still record the delivery / pending state.
                    let here = self.out.insts.len() as u32;
                    self.take_edge(from, *then_, true)?;
                    debug_assert_eq!(here as usize, self.out.insts.len());
                    self.fixups.push((br_at, *then_));
                } else {
                    let stub = self.out.insts.len() as u32;
                    self.take_edge(from, *then_, false)?;
                    if let StInst::Branch { target, .. } = &mut self.out.insts[br_at] {
                        *target = stub;
                    }
                }
                Ok(())
            }
            Term::Ret(v) => {
                // Epilogue: reload RA, free the frame, write the return
                // value, return. At the caller's resume point the return
                // value sits at distance 2 (retval mv, then ret).
                let retsrc = match v {
                    Some(v) => Some(self.src(*v)?),
                    None => None,
                };
                self.push(StInst::Load {
                    op: LoadOp::Ld,
                    base: StSrc::Sp,
                    offset: self.ra_off,
                });
                let ra_pos = self.counter - 1;
                self.push(StInst::SpAddi {
                    imm: self.frame_size,
                });
                if let Some(s) = retsrc {
                    // Two instructions were emitted since the source was
                    // resolved; shift the distance.
                    let s = match s {
                        StSrc::Dist(d) => {
                            let nd = d as i64 + 2;
                            if nd > MAX_DIST {
                                return Err(format!("{}: return value too far", self.f.name));
                            }
                            StSrc::Dist(nd as u8)
                        }
                        other => other,
                    };
                    self.push(StInst::Mv { src: s });
                }
                let d = self.counter - ra_pos;
                self.push(StInst::JumpReg {
                    src: StSrc::Dist(d as u8),
                });
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_ir;
    use ch_baselines::straight::interp::Interpreter;
    use ch_common::exec::Machine;
    use ch_common::op::OpClass;

    fn run(src: &str) -> u64 {
        let m = build_ir(src).expect("ir");
        let prog = compile(&m).expect("codegen");
        prog.validate().expect("valid");
        let mut cpu = Interpreter::new(prog).expect("interp");
        cpu.run(100_000_000).expect("runs").exit_value
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
    fn loops_need_relays() {
        let src = "fn main() -> int {
                var s: int = 0;
                for (var i: int = 1; i <= 10; i += 1) { s += i; }
                return s;
            }";
        assert_eq!(run(src), 55);
        let m = build_ir(src).unwrap();
        let prog = compile(&m).unwrap();
        let mvs = prog
            .insts
            .iter()
            .filter(|i| matches!(i, StInst::Mv { .. }))
            .count();
        assert!(mvs > 0, "STRAIGHT loops require relay mv instructions");
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
    fn calls_spill_across() {
        let src = "fn add(a: int, b: int) -> int { return a + b; }
            fn main() -> int {
                var x: int = 5;
                var y: int = add(x, 10);
                return add(x, y);
            }";
        assert_eq!(run(src), 20);
        let m = build_ir(src).unwrap();
        let prog = compile(&m).unwrap();
        let loads = prog
            .insts
            .iter()
            .filter(|i| i.class() == OpClass::Load)
            .count();
        assert!(
            loads >= 3,
            "x must be reloaded after the first call (got {loads} loads)"
        );
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
    fn long_block_triggers_max_distance_relays() {
        let mut body = String::from("var keep: int = 99;\nvar acc: int = 1;\n");
        for i in 1..200 {
            body.push_str(&format!("acc = acc + {i};\n"));
        }
        body.push_str("return keep + acc - acc;\n");
        let src = format!("fn main() -> int {{ {body} }}");
        assert_eq!(run(&src), 99);
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
    fn void_functions() {
        let src = "global g: int;
            fn bump() { g = g + 1; }
            fn main() -> int {
                bump(); bump(); bump();
                return g;
            }";
        assert_eq!(run(src), 3);
    }
}
