//! Per-instruction pipeline tracing — the observability layer of the
//! timing model.
//!
//! The simulator calls a [`PipelineTracer`] once per committed
//! instruction with its full set of stage timestamps
//! ([`StageStamps`]) and the stall reason its retirement bubble was
//! blamed on. The trait is threaded through
//! [`Simulator`](crate::Simulator) as a **monomorphised type
//! parameter**, so the default [`NullTracer`] compiles to nothing —
//! tracing off costs zero instructions on the simulation hot path.
//!
//! [`TraceBuffer`] is the batteries-included implementation: it records
//! every instruction (optionally up to a limit) and renders the result
//! as
//!
//! * a [Konata](https://github.com/shioyadan/Konata)-compatible
//!   `.kanata` pipeline log ([`TraceBuffer::to_kanata`]) for visual,
//!   per-cycle inspection of fetch → rename/RP-calc → issue → execute →
//!   commit, and
//! * a JSONL event stream ([`TraceBuffer::to_jsonl`]), one
//!   self-describing object per instruction, for ad-hoc analysis.
//!
//! `figures trace` (crate `ch-bench`) uses it to emit traces for every
//! `(workload, ISA)` pair; see README § "Interpreting the output" for
//! how to open them.

use ch_common::inst::DynInst;
use ch_common::stats::StallReason;
use std::fmt::Write as _;

/// Cycle timestamps of one instruction's walk through the pipeline,
/// plus the retirement-slot attribution derived from them.
///
/// Produced by the simulator, consumed by [`PipelineTracer::record`].
/// The stamps are strictly ordered
/// `fetch < alloc ≤ dispatch < issue ≤ exec < complete < commit`
/// (allocation and dispatch share a cycle in this model: an instruction
/// enters the ROB and the scheduler the cycle its physical register —
/// renamed or RP-resolved — is available).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageStamps {
    /// Cycle the instruction's fetch group was fetched.
    pub fetch: u64,
    /// Cycle the allocation stage (rename for RISC, RP-calculation for
    /// STRAIGHT/Clockhands) accepted the instruction.
    pub alloc: u64,
    /// Cycle the instruction entered the ROB/scheduler (same cycle as
    /// [`alloc`](Self::alloc) in this model; kept as a separate stamp so
    /// traces stay stable if the stages ever split).
    pub dispatch: u64,
    /// Cycle the scheduler selected the instruction for issue.
    pub issue: u64,
    /// Cycle execution began (issue + register-read latency).
    pub exec: u64,
    /// Cycle the result became available to consumers.
    pub complete: u64,
    /// Cycle the instruction committed (in order).
    pub commit: u64,
    /// The reason blamed for the idle commit slots (if any) immediately
    /// before this instruction's slot.
    pub stall: StallReason,
    /// How many idle commit slots were attributed to
    /// [`stall`](Self::stall) in front of this instruction.
    pub idle_slots: u64,
}

/// Observer of per-instruction pipeline timing.
///
/// Implementations receive one [`record`](Self::record) call per
/// committed instruction, in commit order, with monotone
/// [`StageStamps`]. A tracer must not affect simulation results — the
/// simulator hands it immutable views only, and the test-suite asserts
/// counters are identical with tracing on and off.
pub trait PipelineTracer {
    /// Whether this tracer observes anything at all. The fast engine
    /// (`crate::engine`) reconstructs a full [`DynInst`] from its
    /// structure-of-arrays stream before calling
    /// [`record`](Self::record); tracers that discard everything set
    /// this to `false` so the reconstruction (and the call) constant-
    /// fold away after monomorphisation.
    const ENABLED: bool = true;

    /// Called once per committed instruction with its stage timestamps.
    fn record(&mut self, inst: &DynInst, stamps: &StageStamps);
}

/// The do-nothing tracer: the default type parameter of
/// [`Simulator`](crate::Simulator).
///
/// Its [`record`](PipelineTracer::record) is an empty `#[inline]`
/// function, so a `Simulator<NullTracer>` carries no tracing code at
/// all after monomorphisation — "tracing off" is free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl PipelineTracer for NullTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _inst: &DynInst, _stamps: &StageStamps) {}
}

/// One recorded instruction: identity plus its [`StageStamps`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Dynamic sequence number (commit order).
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Operation class (rendered into the Konata label).
    pub class: ch_common::op::OpClass,
    /// The per-stage cycle timestamps.
    pub stamps: StageStamps,
}

/// A buffering [`PipelineTracer`] that renders Konata and JSONL output.
///
/// Collects up to `limit` records (unlimited by default) and formats
/// them after the run — the Konata format is cycle-incremental, so
/// events must be re-sorted by cycle before emission.
///
/// # Examples
///
/// ```
/// use ch_common::config::{MachineConfig, WidthClass};
/// use ch_common::exec::Machine;
/// use ch_common::IsaKind;
/// use ch_sim::{Simulator, TraceBuffer};
/// use clockhands::asm::assemble;
/// use clockhands::interp::Interpreter;
///
/// let prog = assemble("li t, 10\n.l:\naddi t, t[0], -1\nbne t[0], zero, .l\nhalt t[0]")?;
/// let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
/// let mut sim = Simulator::with_tracer(cfg, TraceBuffer::new());
/// let counters = sim.run(Interpreter::new(prog)?.records());
/// let trace = sim.into_tracer();
/// assert_eq!(trace.records().len() as u64, counters.committed);
/// assert!(trace.to_kanata().starts_with("Kanata\t0004"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    records: Vec<TraceRecord>,
    limit: Option<usize>,
}

impl TraceBuffer {
    /// An unlimited buffer (records every committed instruction).
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// A buffer that stops recording after `limit` instructions (the
    /// simulation itself continues unaffected).
    pub fn with_limit(limit: usize) -> TraceBuffer {
        TraceBuffer {
            records: Vec::with_capacity(limit.min(1 << 20)),
            limit: Some(limit),
        }
    }

    /// The recorded instructions, in commit order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Renders the buffer as a Konata `.kanata` pipeline log
    /// (format version `0004`, as produced by Onikiri2/gem5).
    ///
    /// Lanes/stages: `F` fetch, `Rn` rename-or-RP-calc (allocation),
    /// `Is` issue-select wait, `Ex` execute, `Cm` completed-awaiting-
    /// commit. Every instruction retires with an `R` line at its commit
    /// cycle; idle-slot attribution is appended to the label line.
    pub fn to_kanata(&self) -> String {
        let mut events: Vec<(u64, String)> = Vec::with_capacity(self.records.len() * 8);
        for (file_id, r) in self.records.iter().enumerate() {
            let s = &r.stamps;
            events.push((s.fetch, format!("I\t{file_id}\t{}\t0", r.seq)));
            events.push((
                s.fetch,
                format!(
                    "L\t{file_id}\t0\t{:#x}: {:?} (stall {} x{})",
                    r.pc,
                    r.class,
                    s.stall.label(),
                    s.idle_slots
                ),
            ));
            events.push((s.fetch, format!("S\t{file_id}\t0\tF")));
            events.push((s.alloc, format!("S\t{file_id}\t0\tRn")));
            events.push((s.issue, format!("S\t{file_id}\t0\tIs")));
            events.push((s.exec, format!("S\t{file_id}\t0\tEx")));
            events.push((s.complete, format!("S\t{file_id}\t0\tCm")));
            events.push((s.commit, format!("E\t{file_id}\t0\tCm")));
            events.push((s.commit, format!("R\t{file_id}\t{}\t0", r.seq)));
        }
        events.sort_by_key(|&(cycle, _)| cycle);
        let mut out = String::with_capacity(events.len() * 16 + 32);
        out.push_str("Kanata\t0004\n");
        let mut cur = events.first().map(|&(c, _)| c).unwrap_or(0);
        let _ = writeln!(out, "C=\t{cur}");
        for (cycle, line) in events {
            if cycle > cur {
                let _ = writeln!(out, "C\t{}", cycle - cur);
                cur = cycle;
            }
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Renders the buffer as JSONL: one object per instruction with the
    /// sequence number, pc, op class, every stage timestamp, and the
    /// stall attribution. Keys are stable; no external JSON crate is
    /// used (values are integers and fixed enum labels, so hand
    /// formatting is lossless).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.records.len() * 160);
        for r in &self.records {
            let s = &r.stamps;
            let _ = writeln!(
                out,
                "{{\"seq\":{},\"pc\":{},\"class\":\"{:?}\",\"fetch\":{},\"alloc\":{},\
\"dispatch\":{},\"issue\":{},\"exec\":{},\"complete\":{},\"commit\":{},\
\"stall\":\"{}\",\"idle_slots\":{}}}",
                r.seq,
                r.pc,
                r.class,
                s.fetch,
                s.alloc,
                s.dispatch,
                s.issue,
                s.exec,
                s.complete,
                s.commit,
                s.stall.label(),
                s.idle_slots
            );
        }
        out
    }
}

/// One committed instruction as seen at the retirement stage: identity
/// plus the cycle it left the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitEntry {
    /// Dynamic sequence number (commit order).
    pub seq: u64,
    /// Program counter.
    pub pc: u64,
    /// Cycle the instruction committed.
    pub cycle: u64,
}

/// A minimal [`PipelineTracer`] recording only the committed instruction
/// stream — the equivalence hook the differential fuzzer uses.
///
/// The timing simulator is trace-driven: it consumes the functional
/// interpreter's [`DynInst`] stream and must retire **exactly** that
/// stream, in order, at nondecreasing cycles. `CommitLog` captures what
/// was actually retired so a harness can assert the commit stream
/// matches the interpreter trace instruction-for-instruction
/// (`ch-fuzz` does this for every generated program on all three ISAs).
///
/// # Examples
///
/// ```
/// use ch_common::config::{MachineConfig, WidthClass};
/// use ch_common::exec::Machine;
/// use ch_common::IsaKind;
/// use ch_sim::{CommitLog, Simulator};
/// use clockhands::asm::assemble;
/// use clockhands::interp::Interpreter;
///
/// let prog = assemble("li t, 3\nhalt t[0]")?;
/// let cfg = MachineConfig::preset(WidthClass::W8, IsaKind::Clockhands);
/// let mut sim = Simulator::with_tracer(cfg, CommitLog::new());
/// let counters = sim.run(Interpreter::new(prog)?.records());
/// let log = sim.into_tracer();
/// assert_eq!(log.entries().len() as u64, counters.committed);
/// assert!(log.is_in_commit_order());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CommitLog {
    entries: Vec<CommitEntry>,
}

impl CommitLog {
    /// An empty commit log.
    pub fn new() -> CommitLog {
        CommitLog::default()
    }

    /// The committed instructions, in retirement order.
    pub fn entries(&self) -> &[CommitEntry] {
        &self.entries
    }

    /// Whether the log is a well-formed in-order commit stream:
    /// sequence numbers strictly increase and commit cycles never
    /// decrease.
    pub fn is_in_commit_order(&self) -> bool {
        self.entries
            .windows(2)
            .all(|w| w[0].seq < w[1].seq && w[0].cycle <= w[1].cycle)
    }
}

impl PipelineTracer for CommitLog {
    fn record(&mut self, inst: &DynInst, stamps: &StageStamps) {
        self.entries.push(CommitEntry {
            seq: inst.seq,
            pc: inst.pc,
            cycle: stamps.commit,
        });
    }
}

impl PipelineTracer for TraceBuffer {
    fn record(&mut self, inst: &DynInst, stamps: &StageStamps) {
        if let Some(limit) = self.limit {
            if self.records.len() >= limit {
                return;
            }
        }
        self.records.push(TraceRecord {
            seq: inst.seq,
            pc: inst.pc,
            class: inst.class,
            stamps: *stamps,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::op::OpClass;

    fn rec(seq: u64, fetch: u64) -> (DynInst, StageStamps) {
        let inst = DynInst::new(seq, 0x1000 + 4 * seq, OpClass::IntAlu);
        let stamps = StageStamps {
            fetch,
            alloc: fetch + 5,
            dispatch: fetch + 5,
            issue: fetch + 6,
            exec: fetch + 10,
            complete: fetch + 11,
            commit: fetch + 12,
            stall: StallReason::Frontend,
            idle_slots: 0,
        };
        (inst, stamps)
    }

    #[test]
    fn commit_log_records_retirement_order() {
        let mut log = CommitLog::new();
        for i in 0..4 {
            let (inst, stamps) = rec(i, i);
            log.record(&inst, &stamps);
        }
        assert_eq!(log.entries().len(), 4);
        assert!(log.is_in_commit_order());
        assert_eq!(log.entries()[0].cycle, 12);
        // A reordered stream is detected.
        let mut bad = CommitLog::new();
        let (i1, s1) = rec(5, 0);
        let (i0, s0) = rec(2, 0);
        bad.record(&i1, &s1);
        bad.record(&i0, &s0);
        assert!(!bad.is_in_commit_order());
    }

    #[test]
    fn limit_caps_recording() {
        let mut t = TraceBuffer::with_limit(2);
        for i in 0..5 {
            let (inst, stamps) = rec(i, i);
            t.record(&inst, &stamps);
        }
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn kanata_is_cycle_monotone() {
        let mut t = TraceBuffer::new();
        for i in 0..3 {
            let (inst, stamps) = rec(i, i * 2);
            t.record(&inst, &stamps);
        }
        let k = t.to_kanata();
        assert!(k.starts_with("Kanata\t0004\nC=\t0\n"));
        // Every instruction fetches, starts five stages, and retires.
        assert_eq!(k.matches("\tF\n").count(), 3);
        assert_eq!(k.lines().filter(|l| l.starts_with("R\t")).count(), 3);
        // C lines only ever advance.
        for line in k.lines().filter(|l| l.starts_with("C\t")) {
            let delta: u64 = line[2..].parse().expect("numeric delta");
            assert!(delta > 0);
        }
    }

    #[test]
    fn jsonl_has_one_self_contained_line_per_record() {
        let mut t = TraceBuffer::new();
        let (inst, stamps) = rec(7, 3);
        t.record(&inst, &stamps);
        let j = t.to_jsonl();
        assert_eq!(j.lines().count(), 1);
        assert!(j.contains("\"seq\":7"));
        assert!(j.contains("\"stall\":\"frontend\""));
        assert!(j.starts_with('{') && j.trim_end().ends_with('}'));
    }
}
