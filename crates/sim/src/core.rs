//! The cycle-level out-of-order core model.
//!
//! A one-pass scoreboard over the committed instruction stream: each
//! dynamic instruction is timed through fetch → allocation (rename or
//! RP-calculation) → dispatch → select/issue → execute → commit, with
//! resource constraints (fetch width and taken-branch breaks, I-cache,
//! ROB/scheduler/LSQ occupancy, per-ISA physical-register availability,
//! issue bandwidth, functional units, the D-cache hierarchy, store-to-load
//! forwarding, store-set ordering, and in-order commit width). Branches
//! are predicted with the real TAGE/BTB/RAS state and a misprediction
//! redirects fetch when the branch resolves — so the rename-free ISAs'
//! two-cycle-shorter front end shows up directly as a smaller penalty.
//!
//! Wrong-path instructions are not replayed through the cache model
//! (their first-order energy cost is accounted as wasted fetch slots);
//! see DESIGN.md for the substitution argument.
//!
//! ## Observability
//!
//! Two layers make the timing explainable (DESIGN.md § "Pipeline
//! model"):
//!
//! * **Stall attribution** — every commit slot (`commit_width` per
//!   cycle) is either consumed by a committing instruction or blamed on
//!   one [`StallReason`]; the per-reason totals accumulate in
//!   [`Counters::stalls`] and satisfy
//!   `committed + attributed == commit_width × cycles` exactly.
//! * **Pipeline tracing** — a [`PipelineTracer`] type parameter
//!   receives per-instruction [`StageStamps`]; the default
//!   [`NullTracer`] monomorphises to nothing, so tracing off is free.

use crate::cache::{Cache, MemHierarchy};
use crate::storeset::StoreSet;
use crate::tage::{Btb, Ras, Tage};
use crate::trace::{NullTracer, PipelineTracer, StageStamps};
use ch_common::config::MachineConfig;
use ch_common::inst::{CtrlKind, DstTag, DynInst, NO_PRODUCER};
use ch_common::op::{FuKind, OpClass};
use ch_common::stats::{Counters, StallReason};
use ch_common::IsaKind;
use std::borrow::Borrow;
use std::collections::VecDeque;

/// In-flight stores tracked for forwarding/ordering.
pub(crate) const STORE_WINDOW: usize = 192;
/// Extra penalty when a memory-order violation squashes a load.
pub(crate) const VIOLATION_PENALTY: u64 = 10;

/// Length (power of two) of the sequence-indexed rings (`ready_ring`,
/// `commit_ring`, `mem_late`).
///
/// The ROB bounds how far back a *live* producer or resource holder can
/// sit: once `seq - old >= rob`, in-order commit plus the ROB-occupancy
/// constraint (applied to `alloc` before any ring read) guarantee
/// `commit[old] <= commit_ring[seq - rob] <= alloc`, so the old entry's
/// value can no longer bind anything — readers treat that distance as
/// "ready / free at cycle 0" instead of reading a recycled slot.
pub(crate) fn seq_ring_len(cfg: &MachineConfig) -> usize {
    (cfg.rob as usize).next_power_of_two()
}

/// Length (power of two) of `select_ring`: read at distance exactly
/// `cfg.scheduler`, and the entry for `seq` is written at the end of
/// `seq`'s own step, so a capacity of `scheduler` suffices.
pub(crate) fn sched_ring_len(cfg: &MachineConfig) -> usize {
    (cfg.scheduler as usize).next_power_of_two()
}

/// Length (power of two) of the cycle-indexed `alloc_bw` / `commit_bw`
/// rings. Both are claimed at monotonically non-decreasing cycles
/// (allocation and commit each start at the previous claim), so a
/// recycled slot always carries a strictly older tag and the tag check
/// resets it safely at *any* ring length.
const MONO_BW_RING: usize = 1 << 14;

/// Length (power of two) of the cycle-indexed `issue_bw` ring.
///
/// Issue-bandwidth claims are **not** monotone: a data-bound consumer
/// claims a far-future cycle (its producer's completion), then younger
/// independent instructions claim near cycles again. Two live claims
/// must never alias, so the ring has to cover the widest possible spread
/// of live select cycles: every claim lies in
/// `[alloc + 1, alloc + 1 + span]` where `span` is bounded by a chain of
/// dependent worst-case completions inside one ROB window — per hop at
/// most issue latency + the longest execution latency + a full memory
/// round trip + the violation penalty. Capped at 2^21 entries (16 MiB);
/// a deeper chain than that cannot arise from the preset configurations,
/// and the `debug_assert` in `bw_slot` would flag it.
pub(crate) fn issue_ring_len(cfg: &MachineConfig) -> usize {
    let per_hop = cfg.issue_latency as u64
        + 12 // longest exec_latency (IntDiv / FpDiv)
        + cfg.l1d.latency as u64
        + cfg.l2.latency as u64
        + cfg.mem_latency as u64
        + VIOLATION_PENALTY
        + 16;
    let span = (cfg.rob as u64).saturating_mul(per_hop);
    (span.clamp(MONO_BW_RING as u64, 1 << 21) as usize).next_power_of_two()
}

/// Claims one unit of bandwidth in a packed cycle-indexed ring at the
/// first cycle `>= start` with a free slot, returning that cycle. Shared
/// by the reference [`Simulator`] and the fast engine
/// (`crate::engine`) — the claim discipline is part of the timing model.
#[inline]
pub(crate) fn bw_slot(ring: &mut [u64], start: u64, width: u32) -> u64 {
    let mask = ring.len() - 1;
    let mut cycle = start;
    loop {
        let slot = &mut ring[(cycle as usize) & mask];
        let mut v = *slot;
        if v >> 8 != cycle {
            // Only strictly older (hence dead — see the ring-sizing
            // proofs above) tags may be recycled; a *newer* tag here
            // would mean two live claim windows alias.
            debug_assert!(
                v >> 8 < cycle,
                "bandwidth-ring aliasing: cycle {cycle} would destroy live slot {}",
                v >> 8
            );
            v = cycle << 8;
        }
        if v & 0xff < width as u64 {
            *slot = v + 1;
            return cycle;
        }
        cycle += 1;
    }
}

/// The simulator.
///
/// Feed it the committed instruction stream of a functional interpreter
/// and read the [`Counters`] out.
///
/// # Examples
///
/// ```
/// use ch_common::config::{MachineConfig, WidthClass};
/// use ch_common::exec::Machine;
/// use ch_common::IsaKind;
/// use ch_sim::Simulator;
/// use clockhands::asm::assemble;
/// use clockhands::interp::Interpreter;
///
/// let prog = assemble("li t, 100\n.l:\naddi t, t[0], -1\nbne t[0], zero, .l\nhalt t[0]")?;
/// let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
/// let mut sim = Simulator::new(cfg);
/// let mut cpu = Interpreter::new(prog)?;
/// let counters = sim.run(cpu.records());
/// assert!(counters.committed > 0 && counters.cycles > 0);
/// // Top-down stall accounting is always on and conserves slots:
/// assert!(counters.slots_conserved(sim.config().commit_width));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// To additionally capture a per-instruction pipeline trace, construct
/// with [`Simulator::with_tracer`] and a
/// [`TraceBuffer`](crate::TraceBuffer); the default `T = NullTracer`
/// compiles the tracing hook away entirely.
#[derive(Debug)]
pub struct Simulator<T: PipelineTracer = NullTracer> {
    cfg: MachineConfig,
    counters: Counters,
    tracer: T,

    // Front end.
    icache: Cache,
    tage: Tage,
    btb: Btb,
    ras: Ras,
    fetch_cycle: u64,
    group_used: u32,
    group_bytes: u32,
    redirect_at: u64,

    // Rings indexed by sequence number (power-of-two lengths sized to
    // the ROB / scheduler, see `seq_ring_len` / `sched_ring_len`).
    ready_ring: Vec<u64>,
    commit_ring: Vec<u64>,
    select_ring: Vec<u64>,
    // Bandwidth rings indexed by cycle, packed `(cycle << 8) | count`
    // (the full cycle tags the slot so stale eras reset on reuse; the
    // count fits 8 bits because widths are at most 16).
    alloc_bw: Vec<u64>,
    issue_bw: Vec<u64>,
    commit_bw: Vec<u64>,

    // Occupancy FIFOs (sequence numbers).
    loads_fifo: VecDeque<u64>,
    stores_fifo: VecDeque<u64>,

    // Functional units: next-free cycle per unit instance.
    fu_free: [Vec<u64>; 7],

    // Memory.
    dmem: MemHierarchy,
    store_set: StoreSet,
    /// Recent stores: (seq, addr, size, data ready, commit, pc).
    store_window: VecDeque<(u64, u64, u8, u64, u64, u64)>,

    // ISA-specific allocation state.
    /// RISC: in-flight destination allocations (free-list pressure).
    dst_fifo: VecDeque<u64>,
    /// Clockhands: per-hand in-flight allocations.
    hand_fifos: [VecDeque<u64>; 4],

    last_alloc: u64,
    last_commit: u64,
    last_fetch_time: u64,
    /// Next unconsumed commit slot (global index `cycle-1 × width + lane`);
    /// the gap to each instruction's actual slot is the stall it explains.
    next_commit_slot: u64,
    /// Whether the instruction at each recent sequence number completed
    /// late because of the memory hierarchy (load-to-use attribution).
    mem_late: Vec<bool>,
}

impl Simulator<NullTracer> {
    /// Creates a simulator for one machine configuration (no tracing).
    pub fn new(cfg: MachineConfig) -> Self {
        Simulator::with_tracer(cfg, NullTracer)
    }
}

impl<T: PipelineTracer> Simulator<T> {
    /// Creates a simulator that feeds every committed instruction's
    /// stage timestamps to `tracer`.
    ///
    /// Tracing is observational only: counters and cycle counts are
    /// byte-identical to an untraced run (asserted by the test-suite).
    pub fn with_tracer(cfg: MachineConfig, tracer: T) -> Self {
        let fu_free = std::array::from_fn(|k| vec![0u64; cfg.fu_counts[k].max(1) as usize]);
        Simulator {
            tracer,
            icache: Cache::new(&cfg.l1i),
            tage: Tage::new(),
            btb: Btb::new(cfg.btb_entries as usize, cfg.btb_assoc as usize),
            ras: Ras::new(cfg.ras_entries as usize),
            fetch_cycle: 0,
            group_used: 0,
            group_bytes: 0,
            redirect_at: 0,
            ready_ring: vec![0; seq_ring_len(&cfg)],
            commit_ring: vec![0; seq_ring_len(&cfg)],
            select_ring: vec![0; sched_ring_len(&cfg)],
            // Packed-zero init is a benign tag: cycle 0 is never claimed
            // (allocation starts at front_latency, commit at 1).
            alloc_bw: vec![0; MONO_BW_RING],
            issue_bw: vec![0; issue_ring_len(&cfg)],
            commit_bw: vec![0; MONO_BW_RING],
            loads_fifo: VecDeque::new(),
            stores_fifo: VecDeque::new(),
            fu_free,
            dmem: MemHierarchy::new(
                &cfg.l1d,
                &cfg.l2,
                cfg.mem_latency,
                cfg.prefetch_distance,
                cfg.prefetch_degree,
            ),
            store_set: StoreSet::new(cfg.storeset_producers, cfg.storeset_ids),
            store_window: VecDeque::new(),
            dst_fifo: VecDeque::new(),
            hand_fifos: Default::default(),
            last_alloc: 0,
            last_commit: 0,
            last_fetch_time: 0,
            next_commit_slot: 0,
            mem_late: vec![false; seq_ring_len(&cfg)],
            counters: Counters::new(),
            cfg,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The attached tracer (e.g. to inspect a
    /// [`TraceBuffer`](crate::TraceBuffer) mid-run).
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Consumes the simulator, returning the tracer and its collected
    /// trace. Call [`finish`](Self::finish) first if the counters are
    /// also needed.
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Runs the whole stream to completion, returning the counters. The
    /// stream may yield owned instructions (an interpreter) or borrowed
    /// ones (a cached trace).
    pub fn run<I>(&mut self, stream: I) -> Counters
    where
        I: IntoIterator,
        I::Item: Borrow<DynInst>,
    {
        for inst in stream {
            self.step(inst.borrow());
        }
        self.finish()
    }

    /// Final counters (cycle count = commit time of the last instruction).
    ///
    /// Also closes the commit-slot account: the slots of the final cycle
    /// left after the last commit land in
    /// [`stalls.drain`](ch_common::stats::StallBreakdown::drain), making
    /// `committed + stalls.attributed() == commit_width × cycles` exact.
    /// An empty stream reports 0 cycles and 0 drain, so the identity
    /// holds as `0 + 0 == commit_width × 0` instead of charging a
    /// phantom drain cycle.
    pub fn finish(&self) -> Counters {
        let mut c = self.counters.clone();
        c.cycles = if c.committed == 0 {
            0
        } else {
            self.last_commit
        };
        c.checkpoint_bits = self.cfg.checkpoint_bits() as u64;
        c.stalls.drain = self.cfg.commit_width as u64 * c.cycles - self.next_commit_slot;
        c
    }

    /// Completion cycle of `producer` as seen by `seq`, or 0 when the
    /// producer is at ROB distance or beyond: the ROB constraint already
    /// forced `alloc` past such a producer's commit, so it is
    /// unconditionally ready and its recycled ring slot must not be read.
    fn ready_of(&self, seq: u64, producer: u64) -> u64 {
        if producer == NO_PRODUCER || seq.saturating_sub(producer) >= self.cfg.rob as u64 {
            0
        } else {
            self.ready_ring[(producer as usize) & (self.ready_ring.len() - 1)]
        }
    }

    /// Commit cycle of the resource-holding instruction `old`, or 0 when
    /// it sits at ROB distance or beyond (same argument as
    /// [`ready_of`](Self::ready_of): it committed at or before the cycle
    /// the ROB constraint already pushed `alloc` to, so the freed
    /// resource cannot bind allocation).
    fn commit_free_at(rob: u64, commit_ring: &[u64], seq: u64, old: u64) -> u64 {
        if seq - old >= rob {
            0
        } else {
            commit_ring[(old as usize) & (commit_ring.len() - 1)]
        }
    }

    /// Times one committed instruction.
    pub fn step(&mut self, inst: &DynInst) {
        let cfg = &self.cfg;
        let seq = inst.seq;
        let c = &mut self.counters;

        // ---------- Fetch ----------
        // First instruction on a corrected path: its bubble (if any) is
        // the squash-recovery penalty, not an ordinary front-end stall.
        let recovering = self.redirect_at > 0;
        if self.redirect_at > 0 {
            // Squashed wrong-path work: charge the lost fetch slots.
            c.fetched += cfg.front_width as u64;
            self.fetch_cycle = self.fetch_cycle.max(self.redirect_at);
            self.redirect_at = 0;
            self.group_used = 0;
            self.group_bytes = 0;
        }
        let size = inst.size as u64;
        let line = self.cfg.l1i.line as u64;
        if self.group_used == 0 {
            c.fetch_groups += 1;
            if !self.icache.access(inst.pc) {
                c.icache_misses += 1;
                // Fill from L2 (assume L2 hit for instructions).
                self.fetch_cycle += self.dmem.l2.latency as u64;
            }
            // Next-line instruction prefetch hides sequential-stream
            // misses (taken branches still pay on arrival).
            self.icache.prefill(inst.pc + line);
            self.icache.prefill(inst.pc + 2 * line);
        }
        // An instruction straddling an I$ line boundary touches both
        // lines (impossible for the aligned fixed-width layout).
        if inst.pc / line != (inst.pc + size - 1) / line {
            c.icache_straddles += 1;
            if !self.icache.access(inst.pc + size - 1) {
                c.icache_misses += 1;
                self.fetch_cycle += self.dmem.l2.latency as u64;
            }
        }
        let fetch_time = self.fetch_cycle;
        self.group_used += 1;
        self.group_bytes += size as u32;
        c.fetched += 1;
        c.fetch_bytes += size;
        let mut group_break =
            self.group_used >= cfg.front_width || self.group_bytes >= cfg.fetch_bytes;

        // ---------- Branch prediction ----------
        let mut mispredicted = false;
        if let Some(ctrl) = inst.ctrl() {
            let fallthrough = inst.pc + size;
            match ctrl.kind {
                CtrlKind::Cond => {
                    c.branch_preds += 1;
                    let pred = self.tage.predict_and_update(inst.pc, ctrl.taken);
                    if pred != ctrl.taken {
                        mispredicted = true;
                    } else if ctrl.taken {
                        // Correctly-predicted taken: target from the BTB.
                        if self.btb.lookup(inst.pc) != Some(ctrl.target) {
                            // Decode-time redirect: a short bubble.
                            self.fetch_cycle += 2;
                        }
                    }
                    self.btb.update(inst.pc, ctrl.target);
                }
                CtrlKind::Jump => {
                    if self.btb.lookup(inst.pc) != Some(ctrl.target) {
                        self.fetch_cycle += 2;
                        self.btb.update(inst.pc, ctrl.target);
                    }
                }
                CtrlKind::Call => {
                    self.ras.push(fallthrough);
                    if self.btb.lookup(inst.pc) != Some(ctrl.target) {
                        self.fetch_cycle += 2;
                        self.btb.update(inst.pc, ctrl.target);
                    }
                }
                CtrlKind::Ret => {
                    if self.ras.pop() != Some(ctrl.target) {
                        mispredicted = true;
                    }
                }
                CtrlKind::IndirectJump => {
                    c.branch_preds += 1;
                    if self.btb.lookup(inst.pc) != Some(ctrl.target) {
                        mispredicted = true;
                    }
                    self.btb.update(inst.pc, ctrl.target);
                }
            }
            if ctrl.taken {
                group_break = true;
            }
        }
        if group_break {
            self.fetch_cycle += 1;
            self.group_used = 0;
            self.group_bytes = 0;
        }

        // ---------- Allocation (rename / RP-calculation) ----------
        // Each constraint below may push `alloc` later; the *last*
        // constraint to move it is remembered as the stage to blame if
        // this instruction ends up delaying commit (strictly-greater
        // updates, so ties keep the earlier pipeline stage's reason).
        let mut alloc = fetch_time + cfg.front_latency as u64;
        let mut alloc_reason = if recovering {
            StallReason::BranchRecovery
        } else {
            StallReason::Frontend
        };
        // In-order allocation behind the previous instruction (front-end
        // bandwidth): still the front end's fault.
        alloc = alloc.max(self.last_alloc);
        // ROB occupancy. This read is what licenses every later "at ROB
        // distance or beyond ⇒ free" short-circuit: from here on,
        // `alloc >= commit_ring[seq - rob]`.
        if seq >= cfg.rob as u64 {
            let free_at =
                self.commit_ring[((seq - cfg.rob as u64) as usize) & (self.commit_ring.len() - 1)];
            if free_at > alloc {
                alloc = free_at;
                alloc_reason = StallReason::RobFull;
            }
        }
        // Scheduler occupancy (entries freed at select, FIFO approx).
        if seq >= cfg.scheduler as u64 {
            let free_at = self.select_ring
                [((seq - cfg.scheduler as u64) as usize) & (self.select_ring.len() - 1)]
                + 1;
            if free_at > alloc {
                alloc = free_at;
                alloc_reason = StallReason::SchedulerFull;
            }
        }
        // Load/store queue occupancy (entries freed at commit).
        if inst.class == OpClass::Load {
            if self.loads_fifo.len() >= cfg.load_queue as usize {
                let old = self.loads_fifo.pop_front().expect("nonempty");
                let free_at = Self::commit_free_at(cfg.rob as u64, &self.commit_ring, seq, old);
                if free_at > alloc {
                    alloc = free_at;
                    alloc_reason = StallReason::LsqFull;
                }
            }
            self.loads_fifo.push_back(seq);
        }
        if inst.class == OpClass::Store {
            if self.stores_fifo.len() >= cfg.store_queue as usize {
                let old = self.stores_fifo.pop_front().expect("nonempty");
                let free_at = Self::commit_free_at(cfg.rob as u64, &self.commit_ring, seq, old);
                if free_at > alloc {
                    alloc = free_at;
                    alloc_reason = StallReason::LsqFull;
                }
            }
            self.stores_fifo.push_back(seq);
        }
        // ISA-specific physical-register availability + stage events.
        let nsrc = inst.sources().count() as u64;
        match cfg.isa {
            IsaKind::Riscv => {
                c.rmt_reads += nsrc;
                // The DCL compares this instruction's operands against the
                // destinations of every earlier instruction renamed in the
                // same cycle (quadratic in width — counted per pair).
                let same_cycle = {
                    let slot = self.alloc_bw[(alloc as usize) & (self.alloc_bw.len() - 1)];
                    if slot >> 8 == alloc {
                        slot & 0xff
                    } else {
                        0
                    }
                };
                c.dcl_comparisons += (nsrc + 1) * same_cycle;
                if inst.dst.is_some() {
                    c.rmt_writes += 1;
                    c.freelist_ops += 1;
                    let free = (cfg.phys_regs - 64) as usize;
                    if self.dst_fifo.len() >= free {
                        let old = self.dst_fifo.pop_front().expect("nonempty");
                        let free_at =
                            Self::commit_free_at(cfg.rob as u64, &self.commit_ring, seq, old);
                        if free_at > alloc {
                            alloc = free_at;
                            alloc_reason = StallReason::AllocRename;
                        }
                    }
                    self.dst_fifo.push_back(seq);
                }
            }
            IsaKind::Straight => {
                // Every instruction occupies a ring slot.
                c.rp_updates += 1;
                let limit = (cfg.phys_regs - cfg.max_ref_distance) as usize;
                if self.dst_fifo.len() >= limit {
                    let old = self.dst_fifo.pop_front().expect("nonempty");
                    let free_at = Self::commit_free_at(cfg.rob as u64, &self.commit_ring, seq, old);
                    if free_at > alloc {
                        alloc = free_at;
                        alloc_reason = StallReason::AllocRp;
                    }
                }
                self.dst_fifo.push_back(seq);
            }
            IsaKind::Clockhands => {
                if let Some(DstTag::Hand(h)) = inst.dst {
                    c.rp_updates += 1;
                    let quotas = cfg.hand_quotas.expect("clockhands config");
                    let q = quotas[h as usize].saturating_sub(cfg.max_ref_distance) as usize;
                    let fifo = &mut self.hand_fifos[h as usize];
                    if fifo.len() >= q.max(1) {
                        let old = fifo.pop_front().expect("nonempty");
                        let free_at =
                            Self::commit_free_at(cfg.rob as u64, &self.commit_ring, seq, old);
                        if free_at > alloc {
                            alloc = free_at;
                            alloc_reason = StallReason::AllocRp;
                        }
                    }
                    fifo.push_back(seq);
                }
            }
        }
        if inst.ctrl().is_some() {
            c.checkpoints += 1;
        }
        let alloc = bw_slot(&mut self.alloc_bw, alloc, cfg.front_width);
        self.last_alloc = alloc;
        c.allocated += 1;
        c.decoded += 1;
        c.dispatched += 1;
        c.rob_writes += 1;

        // Back-pressure: fetch cannot run unboundedly ahead of allocation.
        self.fetch_cycle = self
            .fetch_cycle
            .max(alloc.saturating_sub(cfg.front_latency as u64 + 8));

        // ---------- Select / issue / execute ----------
        // Last-arriving producer (remembered for load-to-use stall
        // attribution: waiting on a miss-delayed producer is a memory
        // stall, not a scheduling one).
        let mut ready = 0u64;
        let mut ready_src = NO_PRODUCER;
        for p in inst.sources() {
            let t = self.ready_of(seq, p);
            if t > ready {
                ready = t;
                ready_src = p;
            }
        }
        self.counters.regfile_reads += nsrc;
        self.counters.sched_wakeups += nsrc;
        let issue_lat = cfg.issue_latency as u64;
        // Speculative wakeup: select so execution begins when data arrives.
        let data_wait = ready.saturating_sub(issue_lat);
        let data_bound = data_wait > alloc + 1;
        let mut select = (alloc + 1).max(data_wait);
        let select_floor = select;
        // Functional unit.
        let fu = inst.class.fu_kind();
        let exec_latency = inst.class.exec_latency() as u64;
        let units = &mut self.fu_free[fu.index()];
        loop {
            let select_c = bw_slot(&mut self.issue_bw, select, cfg.issue_width);
            let exec_start = select_c + issue_lat;
            // Find a unit free at exec_start.
            let best = units
                .iter_mut()
                .min_by_key(|f| **f)
                .expect("at least one unit");
            if *best <= exec_start {
                *best = if fu.pipelined() {
                    exec_start + 1
                } else {
                    exec_start + exec_latency
                };
                select = select_c;
                break;
            }
            // Retry at the cycle the unit frees up.
            select = (*best).saturating_sub(issue_lat).max(select_c + 1);
        }
        let sel_idx = (seq as usize) & (self.select_ring.len() - 1);
        self.select_ring[sel_idx] = select;
        // Issue bandwidth or a busy functional unit pushed past the
        // dataflow-earliest cycle.
        let exec_resource_bound = select > select_floor;
        self.counters.issued += 1;
        let exec_start = select + issue_lat;
        match fu {
            FuKind::Float | FuKind::FpDiv => self.counters.fp_ops += 1,
            _ => self.counters.int_ops += 1,
        }

        // ---------- Memory ----------
        let mut complete = exec_start + exec_latency;
        // Set when the memory hierarchy (miss, store-data wait, or a
        // violation penalty) delays this instruction's completion.
        let mut mem_stall = false;
        if let Some(mem) = inst.mem() {
            self.counters.lsq_searches += 1;
            if inst.class == OpClass::Load {
                self.counters.loads += 1;
                // Store-to-load: check in-flight older stores.
                let mut forwarded = false;
                let mut must_wait_until = 0u64;
                for &(sseq, saddr, ssize, sdata, scommit, spc) in self.store_window.iter().rev() {
                    if sseq >= seq || scommit <= exec_start {
                        continue;
                    }
                    let overlap =
                        saddr < mem.addr + mem.size as u64 && mem.addr < saddr + ssize as u64;
                    if !overlap {
                        continue;
                    }
                    if sdata <= exec_start || self.store_set.must_wait(inst.pc, spc) {
                        // Forward (waiting for the data if predicted).
                        forwarded = true;
                        complete = exec_start.max(sdata) + 1;
                        if sdata > exec_start {
                            complete = sdata + 1;
                            mem_stall = true;
                        }
                        self.counters.stl_forwards += 1;
                    } else {
                        // The load would have executed before the store's
                        // data: a memory-order violation.
                        self.counters.mem_order_violations += 1;
                        self.counters.squashes += 1;
                        self.store_set.train_violation(inst.pc, spc);
                        must_wait_until = sdata + VIOLATION_PENALTY;
                        mem_stall = true;
                    }
                    break; // youngest older overlapping store decides
                }
                if !forwarded {
                    let r = self.dmem.access(mem.addr);
                    self.counters.dcache_accesses += 1;
                    if r.l1_miss {
                        self.counters.dcache_misses += 1;
                        self.counters.l2_accesses += 1;
                        mem_stall = true;
                    }
                    if r.l2_miss {
                        self.counters.l2_misses += 1;
                    }
                    self.counters.prefetches += r.prefetches as u64;
                    complete = exec_start.max(must_wait_until) + r.latency as u64;
                }
            } else {
                self.counters.stores += 1;
                self.counters.dcache_accesses += 1;
                // Stores write the cache at commit; account the access now.
                let r = self.dmem.access(mem.addr);
                if r.l1_miss {
                    self.counters.dcache_misses += 1;
                    self.counters.l2_accesses += 1;
                }
                if r.l2_miss {
                    self.counters.l2_misses += 1;
                }
                complete = exec_start + 1;
            }
        }

        if inst.dst.is_some() {
            self.counters.regfile_writes += 1;
        }
        let seq_idx = (seq as usize) & (self.ready_ring.len() - 1);
        self.ready_ring[seq_idx] = complete;
        self.mem_late[seq_idx] = mem_stall;

        // Branch resolution → redirect on mispredict.
        if mispredicted {
            self.counters.branch_mispredicts += 1;
            self.counters.squashes += 1;
            self.redirect_at = complete + 1;
        }

        // ---------- Commit ----------
        let commit = bw_slot(
            &mut self.commit_bw,
            (complete + 1).max(self.last_commit),
            self.cfg.commit_width,
        );
        self.last_commit = commit;
        let commit_idx = (seq as usize) & (self.commit_ring.len() - 1);
        self.commit_ring[commit_idx] = commit;
        self.counters.committed += 1;
        self.counters.rob_reads += 1;

        // ---------- Stall attribution (top-down commit-slot account) ----------
        // This instruction occupies one commit slot; every slot skipped
        // since the previous commit was idle *because this instruction
        // arrived late*, so the whole gap is blamed on the latest stage
        // that delayed it: its own memory access, then a memory-late
        // producer, then execution dataflow/resources, then whatever
        // bound allocation.
        let dep_mem = ready_src != NO_PRODUCER
            && seq.saturating_sub(ready_src) < self.cfg.rob as u64
            && self.mem_late[(ready_src as usize) & (self.mem_late.len() - 1)];
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
        let lane = (self.commit_bw[(commit as usize) & (self.commit_bw.len() - 1)] & 0xff) - 1;
        let slot = (commit - 1) * self.cfg.commit_width as u64 + lane;
        let idle = slot - self.next_commit_slot;
        self.counters.stalls.add(stall, idle);
        self.next_commit_slot = slot + 1;

        self.tracer.record(
            inst,
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

        // Track stores for forwarding decisions by later loads.
        if inst.class == OpClass::Store {
            if let Some(mem) = inst.mem() {
                if self.store_window.len() >= STORE_WINDOW {
                    self.store_window.pop_front();
                }
                self.store_window.push_back((
                    seq,
                    mem.addr,
                    mem.size,
                    exec_start + 1,
                    commit,
                    inst.pc,
                ));
            }
        }
        self.last_fetch_time = fetch_time;
    }
}
