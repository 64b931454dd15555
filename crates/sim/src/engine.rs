//! The fast-path timing engine: the same pipeline model as
//! [`Simulator`](crate::Simulator), restructured around a
//! structure-of-arrays instruction stream with memoized per-instruction
//! decode.
//!
//! ## Why a second engine
//!
//! The reference `Simulator::step` consumes one [`DynInst`] at a time:
//! a 48-byte record whose memory and control facts are unpacked on
//! demand, and re-inspects it from scratch on every step (which
//! functional unit? what execute latency? how many sources?), with
//! every counter bumped individually. That shape is
//! ideal for auditing the timing model but wastes most of its cycles on
//! re-decoding and bookkeeping. The figure sweeps run the *same* cached
//! trace against five machine widths, so the decode work is pure
//! repetition.
//!
//! [`SoaTrace`] hoists that repetition out of the loop: one pass over
//! the `DynInst` stream packs the per-instruction facts the timing loop
//! needs into a 20-byte-per-instruction column layout (an 8-byte pc, two
//! `u32` producer indices, one `u32` of decode bits), plus two small
//! columns (class and destination tag, 3 bytes) read only to rebuild
//! records for a tracer, compacted side arrays for the memory and
//! control minorities, and pre-sums every counter that is a pure
//! function of the trace (committed, sources read, loads, branch
//! predictions made, ...). [`FastEngine::run`] then times the whole
//! stream in one monomorphised loop:
//!
//! * **memoized decode** — functional unit, execute latency, pipelining,
//!   destination kind and source count come from the packed meta word;
//!   no `Option` walking, no `match` on `OpClass`;
//! * **batched counter accounting** — trace-constant counters are added
//!   once at the end instead of incremented per instruction; only
//!   genuinely dynamic events (cache misses, mispredicts, forwards,
//!   stall slots) are counted in the loop;
//! * **pruned store window** — the forwarding scan drops stores that
//!   have committed before any *future* load could possibly execute
//!   (commit cycles are monotone, so the prefix prune is complete and
//!   exact — see the scan's skip condition);
//! * **no fast-forward cycle loop is needed** — the one-pass model never
//!   iterates over cycles at all: each instruction's timestamps jump
//!   directly to the cycles where ring state changes, so idle gaps
//!   (e.g. a 500k-cycle memory stall) cost O(1) regardless of length.
//!
//! The hard correctness bar: counters and stall breakdowns are
//! **byte-identical** to the reference simulator for every trace — the
//! shared rings, bandwidth claim discipline (`bw_slot`), predictors
//! and cache models are literally the same code, and the differential
//! test in `ch-bench` asserts equality over every workload × ISA ×
//! width. Tracing stays exact: with a [`PipelineTracer`] whose
//! [`ENABLED`](PipelineTracer::ENABLED) is true, the engine rebuilds the
//! full `DynInst` for each record call and emits the same
//! [`StageStamps`] as the reference; with [`NullTracer`] the
//! reconstruction constant-folds away.

use crate::cache::{Cache, MemHierarchy};
use crate::core::{
    bw_slot, issue_ring_len, sched_ring_len, seq_ring_len, STORE_WINDOW, VIOLATION_PENALTY,
};
use crate::storeset::StoreSet;
use crate::tage::{Btb, Ras, Tage};
use crate::trace::{NullTracer, PipelineTracer, StageStamps};
use ch_common::config::MachineConfig;
use ch_common::inst::{CtrlKind, DstTag, DynInst, MemAccess, NO_PRODUCER};
use ch_common::op::{FuKind, OpClass};
use ch_common::stats::{Counters, StallReason};
use ch_common::IsaKind;
use std::borrow::Borrow;
use std::collections::VecDeque;

// ---- packed per-instruction decode word ----
// bits 0..=2   functional-unit index (FuKind::index)
// bits 3..=6   execute latency (<= 12)
// bit  7       unit is pipelined
// bit  8       is a load
// bit  9       is a store
// bit  10      has a memory access record
// bit  11      has a control record
// bits 12..=14 control kind (CTRL_* codes)
// bit  15      control transfer taken
// bit  16      writes a destination
// bits 17..=18 destination hand (Clockhands)
// bit  19      destination is a hand write
// bits 20..=21 number of register sources
// bit  22      16-bit compact encoding (instruction size 2, not 4)
const FU_MASK: u32 = 0x7;
const LAT_SHIFT: u32 = 3;
const LAT_MASK: u32 = 0xf;
const PIPELINED: u32 = 1 << 7;
const IS_LOAD: u32 = 1 << 8;
const IS_STORE: u32 = 1 << 9;
const HAS_MEM: u32 = 1 << 10;
const HAS_CTRL: u32 = 1 << 11;
const CTRL_SHIFT: u32 = 12;
const CTRL_MASK: u32 = 0x7;
const CTRL_TAKEN: u32 = 1 << 15;
const HAS_DST: u32 = 1 << 16;
const HAND_SHIFT: u32 = 17;
const HAND_MASK: u32 = 0x3;
const DST_HAND: u32 = 1 << 19;
const NSRC_SHIFT: u32 = 20;
/// The static instruction took a 16-bit compact encoding (size 2, not 4).
const COMPACT: u32 = 1 << 22;

/// "No producer" in the `u32` producer column ([`NO_PRODUCER`] in a
/// `DynInst`). Never a stream index: `SoaTrace::new` caps the stream at
/// `u32::MAX` instructions, so indices stop at `u32::MAX - 1`.
const NO_SRC: u32 = u32::MAX;

/// Narrows a producer `seq` to the `u32` column; exact for every stream
/// `SoaTrace::new` accepts.
fn narrow_src(p: u64) -> u32 {
    if p == NO_PRODUCER {
        NO_SRC
    } else {
        u32::try_from(p)
            .ok()
            .filter(|&p| p != NO_SRC)
            .expect("producer seq fits the u32 column")
    }
}

/// The inverse of [`narrow_src`].
fn widen_src(p: u32) -> u64 {
    if p == NO_SRC {
        NO_PRODUCER
    } else {
        p as u64
    }
}

const CTRL_CALL: u32 = CtrlKind::Call.code() as u32;
const CTRL_RET: u32 = CtrlKind::Ret.code() as u32;
const CTRL_JUMP: u32 = CtrlKind::Jump.code() as u32;
const CTRL_COND: u32 = CtrlKind::Cond.code() as u32;

/// Counter totals that are a pure function of the trace, summed once at
/// build time and added to the [`Counters`] after the timing loop.
#[derive(Debug, Clone, Copy, Default)]
struct TraceTotals {
    nsrc: u64,
    dsts: u64,
    loads: u64,
    stores: u64,
    mem: u64,
    fp: u64,
    cond: u64,
    indirect: u64,
    ctrl: u64,
    hand_dsts: u64,
}

/// A committed instruction stream in structure-of-arrays layout with
/// memoized decode — the input format of [`FastEngine`].
///
/// Build it once per trace ([`SoaTrace::new`]) and reuse it across every
/// machine configuration: nothing in it depends on the simulated
/// machine. The conversion is lossless — the engine can reconstruct the
/// exact `DynInst` for tracer callbacks.
///
/// # Panics
///
/// `new` panics if the stream is not the dense, 0-based commit-order
/// sequence the functional interpreters produce (`seq == index`); the
/// engine indexes its rings by position, which is only equivalent under
/// that invariant. It also panics on a stream of 2³² or more
/// instructions, which the `u32` producer and control columns cannot
/// index.
#[derive(Debug, Clone, Default)]
pub struct SoaTrace {
    pc: Vec<u64>,
    /// Producer stream index per source; [`NO_SRC`] when absent.
    srcs: Vec<[u32; 2]>,
    meta: Vec<u32>,
    class: Vec<OpClass>,
    dst: Vec<Option<DstTag>>,
    mem: Vec<MemAccess>,
    ctrl_target: Vec<u64>,
    /// Stream index of every control transfer (the `ctrl_target` rows).
    ctrl_at: Vec<u32>,
    totals: TraceTotals,
}

impl SoaTrace {
    /// Packs a `DynInst` stream into column layout (one pass). The
    /// stream may be borrowed (`trace.iter()`) or produced on the fly
    /// (`trace.iter().map(|d| layout.relocate(d))`), so a rewritten
    /// trace never needs a copy of its own.
    pub fn new<I>(insts: I) -> SoaTrace
    where
        I: IntoIterator,
        I::Item: Borrow<DynInst>,
    {
        let insts = insts.into_iter();
        let n = insts.size_hint().0;
        let mut t = SoaTrace {
            pc: Vec::with_capacity(n),
            srcs: Vec::with_capacity(n),
            meta: Vec::with_capacity(n),
            class: Vec::with_capacity(n),
            dst: Vec::with_capacity(n),
            ..SoaTrace::default()
        };
        for inst in insts {
            let inst = inst.borrow();
            assert_eq!(
                inst.seq,
                t.pc.len() as u64,
                "SoaTrace requires the dense commit-order stream the interpreters emit"
            );
            assert!(
                inst.seq < NO_SRC as u64,
                "SoaTrace holds fewer than 2^32 instructions"
            );
            let fu = inst.class.fu_kind();
            let nsrc = inst.sources().count() as u32;
            let mut m = fu.index() as u32
                | (inst.class.exec_latency() << LAT_SHIFT)
                | ((fu.pipelined() as u32) * PIPELINED)
                | (nsrc << NSRC_SHIFT);
            debug_assert!(
                inst.size == 4 || inst.size == 2,
                "instruction sizes are 2 or 4 bytes"
            );
            if inst.size == 2 {
                m |= COMPACT;
            }
            t.totals.nsrc += nsrc as u64;
            if inst.class == OpClass::Load {
                m |= IS_LOAD;
                t.totals.loads += 1;
            }
            if inst.class == OpClass::Store {
                m |= IS_STORE;
                t.totals.stores += 1;
            }
            if matches!(fu, FuKind::Float | FuKind::FpDiv) {
                t.totals.fp += 1;
            }
            if let Some(mem) = inst.mem() {
                m |= HAS_MEM;
                t.totals.mem += 1;
                t.mem.push(mem);
            }
            if let Some(ctrl) = inst.ctrl() {
                m |= HAS_CTRL | ((ctrl.kind.code() as u32) << CTRL_SHIFT);
                if ctrl.taken {
                    m |= CTRL_TAKEN;
                }
                t.totals.ctrl += 1;
                match ctrl.kind {
                    CtrlKind::Cond => t.totals.cond += 1,
                    CtrlKind::IndirectJump => t.totals.indirect += 1,
                    _ => {}
                }
                t.ctrl_at.push(t.pc.len() as u32);
                t.ctrl_target.push(ctrl.target);
            }
            if let Some(dst) = inst.dst {
                m |= HAS_DST;
                t.totals.dsts += 1;
                if let DstTag::Hand(h) = dst {
                    m |= DST_HAND | ((h as u32) << HAND_SHIFT);
                    t.totals.hand_dsts += 1;
                }
            }
            t.pc.push(inst.pc);
            t.srcs.push(inst.srcs.map(narrow_src));
            t.meta.push(m);
            t.class.push(inst.class);
            t.dst.push(inst.dst);
        }
        t
    }

    /// Number of instructions in the stream.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Rebuilds the exact `DynInst` at position `i` (tracer callbacks
    /// only; `mem_idx`/`ctrl_idx` are the side-array cursors at `i`).
    fn rebuild(&self, i: usize, mem_idx: usize, ctrl_idx: usize) -> DynInst {
        let m = self.meta[i];
        let mut d = DynInst::new(i as u64, self.pc[i], self.class[i])
            .with_size(if m & COMPACT != 0 { 2 } else { 4 });
        d.srcs = self.srcs[i].map(widen_src);
        d.dst = self.dst[i];
        if m & HAS_MEM != 0 {
            let mem = self.mem[mem_idx];
            d = d.with_mem(mem.addr, mem.size);
        }
        if m & HAS_CTRL != 0 {
            d = d.with_ctrl(
                CtrlKind::from_code(((m >> CTRL_SHIFT) & CTRL_MASK) as u8),
                m & CTRL_TAKEN != 0,
                self.ctrl_target[ctrl_idx],
            );
        }
        d
    }
}

/// A bounded occupancy FIFO over sequence numbers, as a flat ring: the
/// reference simulator's "pop the oldest once `len()` reaches the limit,
/// then push" `VecDeque` pattern reaches its limit and stays there, so
/// it is exactly a circular buffer of `limit` slots.
#[derive(Debug)]
struct SeqRing {
    buf: Vec<u64>,
    /// The slot the next push writes (the oldest entry once full).
    cursor: usize,
    full: bool,
}

impl SeqRing {
    fn new(limit: usize) -> SeqRing {
        SeqRing {
            buf: vec![0; limit.max(1)],
            cursor: 0,
            full: false,
        }
    }

    /// Pushes `seq`; returns the displaced oldest entry once full.
    #[inline]
    fn push(&mut self, seq: u64) -> Option<u64> {
        let idx = self.cursor;
        let old = self.full.then(|| self.buf[idx]);
        self.buf[idx] = seq;
        self.cursor += 1;
        if self.cursor == self.buf.len() {
            self.cursor = 0;
            self.full = true;
        }
        old
    }
}

/// Pre-replayed front-end predictor outcomes for one trace: one flag
/// byte per control transfer.
///
/// The branch predictors (TAGE, BTB, RAS) read and write nothing but
/// their own tables, and their inputs — pc, control kind, resolved
/// direction, target — are all trace columns, never timing values. Their
/// entire effect on the timing model is two bits per control transfer:
/// *was it mispredicted* (recovery redirect after it completes) and *did
/// the BTB miss on a predicted-taken transfer* (a 2-cycle fetch bubble).
/// So the whole predictor replay is a pure function of the trace and the
/// predictor geometry, independent of machine width — compute it once
/// ([`BranchProfile::new`]) and share it across every configuration with
/// the same geometry (all width presets), instead of re-simulating the
/// predictors inside every timing run.
///
/// [`FastEngine::run`] builds a profile on the fly; the sweep path
/// ([`run_fast_profiled`]) passes a cached one in.
#[derive(Debug, Clone)]
pub struct BranchProfile {
    btb_entries: u32,
    btb_assoc: u32,
    ras_entries: u32,
    /// Parallel to `SoaTrace::ctrl_at`.
    flags: Vec<u8>,
}

/// `BranchProfile` flag bit: the transfer was mispredicted.
const BP_MISPREDICT: u8 = 1;
/// `BranchProfile` flag bit: predicted taken but the BTB missed the
/// target — a 2-cycle fetch bubble.
const BP_BUBBLE: u8 = 2;

impl BranchProfile {
    /// Replays the front-end predictors over `t` under `cfg`'s predictor
    /// geometry (the only configuration the replay depends on).
    pub fn new(cfg: &MachineConfig, t: &SoaTrace) -> BranchProfile {
        let mut tage = Tage::new();
        let mut btb = Btb::new(cfg.btb_entries as usize, cfg.btb_assoc as usize);
        let mut ras = Ras::new(cfg.ras_entries as usize);
        let mut flags = Vec::with_capacity(t.ctrl_at.len());
        for (ci, &at) in t.ctrl_at.iter().enumerate() {
            let pc = t.pc[at as usize];
            let m = t.meta[at as usize];
            let target = t.ctrl_target[ci];
            let taken = m & CTRL_TAKEN != 0;
            let mut f = 0u8;
            match (m >> CTRL_SHIFT) & CTRL_MASK {
                CTRL_COND => {
                    let pred = tage.predict_and_update(pc, taken);
                    if pred != taken {
                        f |= BP_MISPREDICT;
                    } else if taken && btb.lookup(pc) != Some(target) {
                        f |= BP_BUBBLE;
                    }
                    btb.update(pc, target);
                }
                CTRL_JUMP => {
                    if btb.lookup(pc) != Some(target) {
                        f |= BP_BUBBLE;
                        btb.update(pc, target);
                    }
                }
                CTRL_CALL => {
                    let size = if m & COMPACT != 0 { 2 } else { 4 };
                    ras.push(pc + size);
                    if btb.lookup(pc) != Some(target) {
                        f |= BP_BUBBLE;
                        btb.update(pc, target);
                    }
                }
                CTRL_RET => {
                    if ras.pop() != Some(target) {
                        f |= BP_MISPREDICT;
                    }
                }
                _ => {
                    // Indirect jump.
                    if btb.lookup(pc) != Some(target) {
                        f |= BP_MISPREDICT;
                    }
                    btb.update(pc, target);
                }
            }
            flags.push(f);
        }
        BranchProfile {
            btb_entries: cfg.btb_entries,
            btb_assoc: cfg.btb_assoc,
            ras_entries: cfg.ras_entries,
            flags,
        }
    }

    /// Whether this profile was replayed under `cfg`'s predictor
    /// geometry (TAGE geometry is compile-time constant).
    pub fn compatible(&self, cfg: &MachineConfig) -> bool {
        self.btb_entries == cfg.btb_entries
            && self.btb_assoc == cfg.btb_assoc
            && self.ras_entries == cfg.ras_entries
    }
}

/// The fast-path engine: consumes a [`SoaTrace`] and produces the same
/// [`Counters`] as the reference [`Simulator`](crate::Simulator) run on
/// the equivalent `DynInst` stream.
///
/// # Examples
///
/// ```
/// use ch_common::config::{MachineConfig, WidthClass};
/// use ch_common::IsaKind;
/// use ch_sim::{run_fast, SoaTrace};
/// use clockhands::asm::assemble;
/// use clockhands::interp::Interpreter;
///
/// let prog = assemble("li t, 100\n.l:\naddi t, t[0], -1\nbne t[0], zero, .l\nhalt t[0]")?;
/// let (insts, _) = Interpreter::new(prog)?.trace(1_000_000)?;
/// let soa = SoaTrace::new(insts.iter());
/// let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
/// let fast = run_fast(cfg.clone(), &soa);
/// let mut reference = ch_sim::Simulator::new(cfg);
/// for i in &insts {
///     reference.step(i);
/// }
/// assert_eq!(fast, reference.finish());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FastEngine<T: PipelineTracer = NullTracer> {
    cfg: MachineConfig,
    tracer: T,
}

/// Times a whole [`SoaTrace`] on one machine, untraced.
pub fn run_fast(cfg: MachineConfig, trace: &SoaTrace) -> Counters {
    FastEngine::new(cfg).run(trace).0
}

/// Times a whole [`SoaTrace`] on one machine, untraced, reusing a cached
/// [`BranchProfile`] — the sweep engine's entry point (the predictor
/// replay is per-trace work; five machine widths share one profile).
pub fn run_fast_profiled(
    cfg: MachineConfig,
    trace: &SoaTrace,
    profile: &BranchProfile,
) -> Counters {
    FastEngine::new(cfg).run_profiled(trace, profile).0
}

impl FastEngine<NullTracer> {
    /// Creates an untraced engine (the fully-dead tracing hook).
    pub fn new(cfg: MachineConfig) -> Self {
        FastEngine::with_tracer(cfg, NullTracer)
    }
}

impl<T: PipelineTracer> FastEngine<T> {
    /// Creates an engine that feeds every committed instruction's stage
    /// timestamps to `tracer` (identical stamps to the reference).
    pub fn with_tracer(cfg: MachineConfig, tracer: T) -> Self {
        FastEngine { cfg, tracer }
    }

    /// Times the whole stream, returning the final counters and the
    /// tracer. One engine times one stream (machine state is built
    /// fresh here); construct a new engine per run.
    pub fn run(self, t: &SoaTrace) -> (Counters, T) {
        let profile = BranchProfile::new(&self.cfg, t);
        self.run_profiled(t, &profile)
    }

    /// Like [`run`](FastEngine::run), with the predictor replay supplied
    /// by a pre-built (cacheable) [`BranchProfile`].
    ///
    /// # Panics
    ///
    /// Panics if `profile` was built under a different predictor
    /// geometry or for a different trace shape.
    pub fn run_profiled(mut self, t: &SoaTrace, profile: &BranchProfile) -> (Counters, T) {
        let cfg = &self.cfg;
        assert!(
            profile.compatible(cfg) && profile.flags.len() == t.ctrl_at.len(),
            "branch profile does not match this config/trace"
        );
        let n = t.len();
        let mut c = Counters::new();

        // Front end.
        let mut icache = Cache::new(&cfg.l1i);
        let mut fetch_cycle = 0u64;
        let mut group_used = 0u32;
        let mut group_bytes = 0u32;
        let mut redirect_at = 0u64;

        // Rings (same sizing and packing as the reference — see core.rs).
        let seq_mask = seq_ring_len(cfg) - 1;
        let sched_mask = sched_ring_len(cfg) - 1;
        let mut ready_ring = vec![0u64; seq_mask + 1];
        let mut commit_ring = vec![0u64; seq_mask + 1];
        let mut select_ring = vec![0u64; sched_mask + 1];
        let mut mem_late = vec![false; seq_mask + 1];
        let mut alloc_bw = vec![0u64; 1 << 14];
        let mut issue_bw = vec![0u64; issue_ring_len(cfg)];
        let mut commit_bw = vec![0u64; 1 << 14];

        // Occupancy rings and ISA allocation state.
        let mut loads_fifo = SeqRing::new(cfg.load_queue as usize);
        let mut stores_fifo = SeqRing::new(cfg.store_queue as usize);
        let dst_limit = match cfg.isa {
            IsaKind::Riscv => (cfg.phys_regs - 64) as usize,
            IsaKind::Straight => (cfg.phys_regs - cfg.max_ref_distance) as usize,
            IsaKind::Clockhands => 1,
        };
        let mut dst_ring = SeqRing::new(dst_limit);
        let hand_limits: [usize; 4] = match cfg.isa {
            IsaKind::Clockhands => {
                let quotas = cfg.hand_quotas.expect("clockhands config");
                std::array::from_fn(|h| {
                    quotas[h].saturating_sub(cfg.max_ref_distance).max(1) as usize
                })
            }
            _ => [1; 4],
        };
        let mut hand_rings: [SeqRing; 4] = std::array::from_fn(|h| SeqRing::new(hand_limits[h]));

        let mut fu_free: [Vec<u64>; 7] =
            std::array::from_fn(|k| vec![0u64; cfg.fu_counts[k].max(1) as usize]);

        // Memory.
        let mut dmem = MemHierarchy::new(
            &cfg.l1d,
            &cfg.l2,
            cfg.mem_latency,
            cfg.prefetch_distance,
            cfg.prefetch_degree,
        );
        let mut store_set = StoreSet::new(cfg.storeset_producers, cfg.storeset_ids);
        let mut store_window: VecDeque<(u64, u64, u8, u64, u64, u64)> =
            VecDeque::with_capacity(STORE_WINDOW);

        let mut last_alloc = 0u64;
        let mut last_commit = 0u64;
        let mut next_commit_slot = 0u64;
        let mut mem_cur = 0usize;
        let mut ctrl_cur = 0usize;

        let rob = cfg.rob as u64;
        let front_width = cfg.front_width;
        let fetch_budget = cfg.fetch_bytes;
        let front_latency = cfg.front_latency as u64;
        let issue_lat = cfg.issue_latency as u64;
        let issue_width = cfg.issue_width;
        let commit_width = cfg.commit_width;
        let sched = cfg.scheduler as u64;
        let line = cfg.l1i.line as u64;
        assert!(line.is_power_of_two(), "I$ line size is a power of two");
        let line_shift = line.trailing_zeros();
        let isa = cfg.isa;

        for i in 0..n {
            let seq = i as u64;
            let pc = t.pc[i];
            let m = t.meta[i];
            let (mem_idx, ctrl_idx) = (mem_cur, ctrl_cur);

            // ---------- Fetch ----------
            let recovering = redirect_at > 0;
            if redirect_at > 0 {
                c.fetched += front_width as u64;
                fetch_cycle = fetch_cycle.max(redirect_at);
                redirect_at = 0;
                group_used = 0;
                group_bytes = 0;
            }
            let size = if m & COMPACT != 0 { 2u64 } else { 4 };
            if group_used == 0 {
                c.fetch_groups += 1;
                if !icache.access(pc) {
                    c.icache_misses += 1;
                    fetch_cycle += dmem.l2.latency as u64;
                }
                icache.prefill(pc + line);
                icache.prefill(pc + 2 * line);
            }
            // A unit straddling an I$ line boundary touches both lines
            // (impossible for the aligned fixed-width layout).
            if pc >> line_shift != (pc + size - 1) >> line_shift {
                c.icache_straddles += 1;
                if !icache.access(pc + size - 1) {
                    c.icache_misses += 1;
                    fetch_cycle += dmem.l2.latency as u64;
                }
            }
            let fetch_time = fetch_cycle;
            group_used += 1;
            group_bytes += size as u32;
            c.fetch_bytes += size;
            let mut group_break = group_used >= front_width || group_bytes >= fetch_budget;

            // ---------- Branch prediction (pre-replayed) ----------
            let mut mispredicted = false;
            if m & HAS_CTRL != 0 {
                let f = profile.flags[ctrl_idx];
                ctrl_cur += 1;
                mispredicted = f & BP_MISPREDICT != 0;
                fetch_cycle += 2 * (f & BP_BUBBLE != 0) as u64;
                if m & CTRL_TAKEN != 0 {
                    group_break = true;
                }
            }
            if group_break {
                fetch_cycle += 1;
                group_used = 0;
                group_bytes = 0;
            }

            // ---------- Allocation ----------
            let mut alloc = fetch_time + front_latency;
            let mut alloc_reason = if recovering {
                StallReason::BranchRecovery
            } else {
                StallReason::Frontend
            };
            alloc = alloc.max(last_alloc);
            if seq >= rob {
                let free_at = commit_ring[((seq - rob) as usize) & seq_mask];
                if free_at > alloc {
                    alloc = free_at;
                    alloc_reason = StallReason::RobFull;
                }
            }
            if seq >= sched {
                let free_at = select_ring[((seq - sched) as usize) & sched_mask] + 1;
                if free_at > alloc {
                    alloc = free_at;
                    alloc_reason = StallReason::SchedulerFull;
                }
            }
            // "Free at cycle 0" once the holder is at ROB distance —
            // identical short-circuit to the reference (see core.rs).
            let commit_free = |commit_ring: &[u64], seq: u64, old: u64| -> u64 {
                if seq - old >= rob {
                    0
                } else {
                    commit_ring[(old as usize) & seq_mask]
                }
            };
            if m & IS_LOAD != 0 {
                if let Some(old) = loads_fifo.push(seq) {
                    let free_at = commit_free(&commit_ring, seq, old);
                    if free_at > alloc {
                        alloc = free_at;
                        alloc_reason = StallReason::LsqFull;
                    }
                }
            }
            if m & IS_STORE != 0 {
                if let Some(old) = stores_fifo.push(seq) {
                    let free_at = commit_free(&commit_ring, seq, old);
                    if free_at > alloc {
                        alloc = free_at;
                        alloc_reason = StallReason::LsqFull;
                    }
                }
            }
            let nsrc = (m >> NSRC_SHIFT) as u64 & 0x3;
            match isa {
                IsaKind::Riscv => {
                    let same_cycle = {
                        let slot = alloc_bw[(alloc as usize) & (alloc_bw.len() - 1)];
                        if slot >> 8 == alloc {
                            slot & 0xff
                        } else {
                            0
                        }
                    };
                    c.dcl_comparisons += (nsrc + 1) * same_cycle;
                    if m & HAS_DST != 0 {
                        if let Some(old) = dst_ring.push(seq) {
                            let free_at = commit_free(&commit_ring, seq, old);
                            if free_at > alloc {
                                alloc = free_at;
                                alloc_reason = StallReason::AllocRename;
                            }
                        }
                    }
                }
                IsaKind::Straight => {
                    if let Some(old) = dst_ring.push(seq) {
                        let free_at = commit_free(&commit_ring, seq, old);
                        if free_at > alloc {
                            alloc = free_at;
                            alloc_reason = StallReason::AllocRp;
                        }
                    }
                }
                IsaKind::Clockhands => {
                    if m & DST_HAND != 0 {
                        let h = ((m >> HAND_SHIFT) & HAND_MASK) as usize;
                        if let Some(old) = hand_rings[h].push(seq) {
                            let free_at = commit_free(&commit_ring, seq, old);
                            if free_at > alloc {
                                alloc = free_at;
                                alloc_reason = StallReason::AllocRp;
                            }
                        }
                    }
                }
            }
            let alloc = bw_slot(&mut alloc_bw, alloc, front_width);
            last_alloc = alloc;
            fetch_cycle = fetch_cycle.max(alloc.saturating_sub(front_latency + 8));

            // ---------- Select / issue / execute ----------
            let mut ready = 0u64;
            let mut ready_src = NO_PRODUCER;
            for &p in &t.srcs[i] {
                if p == NO_SRC {
                    continue;
                }
                let p = p as u64;
                let rdy = if seq - p >= rob {
                    0
                } else {
                    ready_ring[(p as usize) & seq_mask]
                };
                if rdy > ready {
                    ready = rdy;
                    ready_src = p;
                }
            }
            let data_wait = ready.saturating_sub(issue_lat);
            let data_bound = data_wait > alloc + 1;
            let mut select = (alloc + 1).max(data_wait);
            let select_floor = select;
            let fu = (m & FU_MASK) as usize;
            let exec_latency = ((m >> LAT_SHIFT) & LAT_MASK) as u64;
            let units = &mut fu_free[fu];
            loop {
                let select_c = bw_slot(&mut issue_bw, select, issue_width);
                let exec_start = select_c + issue_lat;
                let best = units
                    .iter_mut()
                    .min_by_key(|f| **f)
                    .expect("at least one unit");
                if *best <= exec_start {
                    *best = if m & PIPELINED != 0 {
                        exec_start + 1
                    } else {
                        exec_start + exec_latency
                    };
                    select = select_c;
                    break;
                }
                select = (*best).saturating_sub(issue_lat).max(select_c + 1);
            }
            select_ring[(seq as usize) & sched_mask] = select;
            let exec_resource_bound = select > select_floor;
            let exec_start = select + issue_lat;

            // ---------- Memory ----------
            let mut complete = exec_start + exec_latency;
            let mut mem_stall = false;
            if m & HAS_MEM != 0 {
                let mem = t.mem[mem_idx];
                mem_cur += 1;
                if m & IS_LOAD != 0 {
                    // Prune stores no current or future load can forward
                    // from: every future exec_start is >= alloc + 1 +
                    // issue_lat (allocation is monotone), and the scan
                    // below skips any store with scommit <= exec_start.
                    let prune_floor = alloc + 1 + issue_lat;
                    while store_window
                        .front()
                        .is_some_and(|&(.., scommit, _)| scommit <= prune_floor)
                    {
                        store_window.pop_front();
                    }
                    let mut forwarded = false;
                    let mut must_wait_until = 0u64;
                    for &(sseq, saddr, ssize, sdata, scommit, spc) in store_window.iter().rev() {
                        if sseq >= seq || scommit <= exec_start {
                            continue;
                        }
                        let overlap =
                            saddr < mem.addr + mem.size as u64 && mem.addr < saddr + ssize as u64;
                        if !overlap {
                            continue;
                        }
                        if sdata <= exec_start || store_set.must_wait(pc, spc) {
                            forwarded = true;
                            complete = exec_start.max(sdata) + 1;
                            if sdata > exec_start {
                                complete = sdata + 1;
                                mem_stall = true;
                            }
                            c.stl_forwards += 1;
                        } else {
                            c.mem_order_violations += 1;
                            c.squashes += 1;
                            store_set.train_violation(pc, spc);
                            must_wait_until = sdata + VIOLATION_PENALTY;
                            mem_stall = true;
                        }
                        break; // youngest older overlapping store decides
                    }
                    if !forwarded {
                        let r = dmem.access(mem.addr);
                        c.dcache_accesses += 1;
                        if r.l1_miss {
                            c.dcache_misses += 1;
                            c.l2_accesses += 1;
                            mem_stall = true;
                        }
                        if r.l2_miss {
                            c.l2_misses += 1;
                        }
                        c.prefetches += r.prefetches as u64;
                        complete = exec_start.max(must_wait_until) + r.latency as u64;
                    }
                } else {
                    c.dcache_accesses += 1;
                    let r = dmem.access(mem.addr);
                    if r.l1_miss {
                        c.dcache_misses += 1;
                        c.l2_accesses += 1;
                    }
                    if r.l2_miss {
                        c.l2_misses += 1;
                    }
                    complete = exec_start + 1;
                }
            }

            let seq_idx = (seq as usize) & seq_mask;
            ready_ring[seq_idx] = complete;
            mem_late[seq_idx] = mem_stall;

            if mispredicted {
                c.branch_mispredicts += 1;
                c.squashes += 1;
                redirect_at = complete + 1;
            }

            // ---------- Commit ----------
            let commit = bw_slot(
                &mut commit_bw,
                (complete + 1).max(last_commit),
                commit_width,
            );
            last_commit = commit;
            commit_ring[seq_idx] = commit;

            // ---------- Stall attribution ----------
            let dep_mem = ready_src != NO_PRODUCER
                && seq.saturating_sub(ready_src) < rob
                && mem_late[(ready_src as usize) & seq_mask];
            let stall = if mem_stall {
                StallReason::Memory
            } else if data_bound {
                if dep_mem {
                    StallReason::Memory
                } else {
                    StallReason::ExecDep
                }
            } else if exec_resource_bound {
                StallReason::ExecDep
            } else {
                alloc_reason
            };
            let lane = (commit_bw[(commit as usize) & (commit_bw.len() - 1)] & 0xff) - 1;
            let slot = (commit - 1) * commit_width as u64 + lane;
            let idle = slot - next_commit_slot;
            c.stalls.add(stall, idle);
            next_commit_slot = slot + 1;

            if T::ENABLED {
                let inst = t.rebuild(i, mem_idx, ctrl_idx);
                self.tracer.record(
                    &inst,
                    &StageStamps {
                        fetch: fetch_time,
                        alloc,
                        dispatch: alloc,
                        issue: select,
                        exec: exec_start,
                        complete,
                        commit,
                        stall,
                        idle_slots: idle,
                    },
                );
            }

            if m & IS_STORE != 0 && m & HAS_MEM != 0 {
                let mem = t.mem[mem_idx];
                if store_window.len() >= STORE_WINDOW {
                    store_window.pop_front();
                }
                store_window.push_back((seq, mem.addr, mem.size, exec_start + 1, commit, pc));
            }
        }

        // ---------- Batched trace-constant counters ----------
        let n = n as u64;
        let tt = &t.totals;
        c.fetched += n;
        c.branch_preds += tt.cond + tt.indirect;
        c.checkpoints += tt.ctrl;
        c.allocated += n;
        c.decoded += n;
        c.dispatched += n;
        c.rob_writes += n;
        c.rob_reads += n;
        c.committed += n;
        c.issued += n;
        c.regfile_reads += tt.nsrc;
        c.sched_wakeups += tt.nsrc;
        c.regfile_writes += tt.dsts;
        c.fp_ops += tt.fp;
        c.int_ops += n - tt.fp;
        c.lsq_searches += tt.mem;
        c.loads += tt.loads;
        c.stores += tt.stores;
        match isa {
            IsaKind::Riscv => {
                c.rmt_reads += tt.nsrc;
                c.rmt_writes += tt.dsts;
                c.freelist_ops += tt.dsts;
            }
            IsaKind::Straight => c.rp_updates += n,
            IsaKind::Clockhands => c.rp_updates += tt.hand_dsts,
        }

        // ---------- Finish (same close-out as the reference) ----------
        c.cycles = if c.committed == 0 { 0 } else { last_commit };
        c.checkpoint_bits = cfg.checkpoint_bits() as u64;
        c.stalls.drain = commit_width as u64 * c.cycles - next_commit_slot;
        (c, self.tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use ch_common::config::WidthClass;

    fn workload() -> Vec<DynInst> {
        let prog = clockhands::asm::assemble(
            "li v, 1500
             li u, 8192
             li t, 0
         .l: mul  s, t[0], t[0]
             sd   s[0], 0(u[0])
             ld   s, 0(u[0])
             addi u, u[0], 64
             andi u, u[0], 16383
             addi u, u[0], 8192
             addi t, t[0], 1
             bne  t[0], v[0], .l
             halt t[0]",
        )
        .expect("assembles");
        clockhands::interp::Interpreter::new(prog)
            .expect("valid")
            .trace(10_000_000)
            .expect("runs")
            .0
    }

    #[test]
    fn matches_reference_counters() {
        let insts = workload();
        let soa = SoaTrace::new(insts.iter());
        for width in [WidthClass::W4, WidthClass::W8] {
            let cfg = MachineConfig::preset(width, IsaKind::Clockhands);
            let mut reference = Simulator::new(cfg.clone());
            for inst in &insts {
                reference.step(inst);
            }
            assert_eq!(run_fast(cfg, &soa), reference.finish(), "{width:?}");
        }
    }

    #[test]
    fn traced_run_matches_reference_stamps() {
        let insts = workload();
        let soa = SoaTrace::new(insts.iter());
        let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
        let mut reference = Simulator::with_tracer(cfg.clone(), crate::TraceBuffer::new());
        for inst in &insts {
            reference.step(inst);
        }
        let ref_counters = reference.finish();
        let engine = FastEngine::with_tracer(cfg, crate::TraceBuffer::new());
        let (fast_counters, buf) = engine.run(&soa);
        assert_eq!(fast_counters, ref_counters);
        let ref_buf = reference.into_tracer();
        assert_eq!(buf.records().len(), ref_buf.records().len());
        for (a, b) in buf.records().iter().zip(ref_buf.records()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_stream_is_all_zero() {
        let soa = SoaTrace::new(std::iter::empty::<&DynInst>());
        let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
        let c = run_fast(cfg.clone(), &soa);
        assert_eq!(c.cycles, 0);
        assert_eq!(c.committed, 0);
        assert!(c.slots_conserved(cfg.commit_width));
    }

    /// Rebuilds every record of `soa` from its packed columns.
    fn rebuild_all(soa: &SoaTrace) -> Vec<DynInst> {
        let (mut mem_idx, mut ctrl_idx) = (0, 0);
        (0..soa.len())
            .map(|i| {
                let d = soa.rebuild(i, mem_idx, ctrl_idx);
                mem_idx += (soa.meta[i] & HAS_MEM != 0) as usize;
                ctrl_idx += (soa.meta[i] & HAS_CTRL != 0) as usize;
                d
            })
            .collect()
    }

    #[test]
    fn rebuild_restores_every_test_scale_record() {
        use ch_workloads::{Scale, Workload};
        for w in Workload::ALL {
            for isa in IsaKind::ALL {
                let (insts, _) = w
                    .trace_on(Scale::Test, isa, 50_000_000)
                    .expect("workload runs");
                let soa = SoaTrace::new(insts.iter());
                let rebuilt = rebuild_all(&soa);
                assert_eq!(rebuilt.len(), insts.len());
                for (a, b) in rebuilt.iter().zip(&insts) {
                    assert_eq!(a, b, "{}/{isa:?} seq {}", w.name(), b.seq);
                }
                let absent = insts
                    .iter()
                    .flat_map(|d| d.srcs)
                    .filter(|&s| s == NO_PRODUCER)
                    .count();
                assert!(
                    absent > 0,
                    "{}/{isa:?}: no sourceless slot checked",
                    w.name()
                );
                assert!(!soa.mem.is_empty() && !soa.ctrl_at.is_empty());
            }
        }
    }

    #[test]
    fn narrow_producer_column_round_trips_its_extremes() {
        for p in [0, 1, u32::MAX as u64 - 1, NO_PRODUCER] {
            assert_eq!(widen_src(narrow_src(p)), p);
        }
    }

    #[test]
    #[should_panic(expected = "fits the u32 column")]
    fn producer_beyond_the_u32_column_is_rejected() {
        let _ = narrow_src(u32::MAX as u64);
    }

    #[test]
    #[should_panic(expected = "dense commit-order")]
    fn sparse_sequence_numbers_are_rejected() {
        let sparse = [DynInst::new(3, 0x1000, OpClass::IntAlu)];
        let _ = SoaTrace::new(sparse.iter());
    }
}
