//! Functional interpreter for Clockhands programs.
//!
//! Executes a validated [`Program`] against a [`HandFile`] and a sparse
//! [`Memory`], yielding one [`DynInst`] per committed instruction with the
//! register dataflow resolved to producer sequence numbers. The timing
//! simulator and the trace analyses consume that stream.

use crate::hand::Hand;
use crate::inst::{Inst, Src};
use crate::program::{Program, ProgramError};
use crate::state::{DistanceError, HandFile};
use ch_common::exec::Machine;
use ch_common::inst::{CtrlKind, DstTag, DynInst, NO_PRODUCER};
use ch_common::mem::Memory;

/// Default initial stack pointer (grows down; well clear of text/data).
pub const STACK_TOP: u64 = 0x8000_0000;

/// A runtime error raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A source reference exceeded the maximum distance.
    Distance(DistanceError),
    /// Execution ran past the end of the program without halting.
    PcOffEnd {
        /// The out-of-range instruction index.
        pc: u32,
    },
    /// The instruction limit was reached before the program halted.
    LimitReached,
}

impl std::fmt::Display for InterpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Distance(e) => write!(f, "{e}"),
            InterpError::PcOffEnd { pc } => write!(f, "execution ran off the end at index {pc}"),
            InterpError::LimitReached => f.write_str("instruction limit reached before halt"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<DistanceError> for InterpError {
    fn from(e: DistanceError) -> Self {
        InterpError::Distance(e)
    }
}

/// Functional Clockhands interpreter.
///
/// # Examples
///
/// ```
/// use ch_common::exec::Machine;
/// use clockhands::asm::assemble;
/// use clockhands::interp::Interpreter;
///
/// let prog = assemble(
///     "li t, 6
///      li t, 7
///      mul t, t[0], t[1]
///      halt t[0]",
/// )?;
/// let mut interp = Interpreter::new(prog)?;
/// let result = interp.run(1_000)?;
/// assert_eq!(result.exit_value, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    prog: Program,
    file: HandFile,
    mem: Memory,
    pc: u32,
    seq: u64,
    halted: Option<u64>,
}

impl Interpreter {
    /// Creates an interpreter, validating the program and loading its data
    /// image. The stack pointer is seeded into the `s` hand so `s[0]`
    /// reads [`STACK_TOP`] at entry, per the calling convention.
    ///
    /// # Errors
    ///
    /// Returns the program's validation error, if any.
    pub fn new(prog: Program) -> Result<Self, ProgramError> {
        prog.validate()?;
        let mut mem = Memory::new();
        for (base, bytes) in &prog.data {
            mem.write_bytes(*base, bytes);
        }
        let mut file = HandFile::new();
        file.write(Hand::S, STACK_TOP, NO_PRODUCER);
        let pc = prog.entry;
        Ok(Interpreter {
            prog,
            file,
            mem,
            pc,
            seq: 0,
            halted: None,
        })
    }

    /// The architectural hand file (for inspection and debugging).
    pub fn hands(&self) -> &HandFile {
        &self.file
    }

    fn read(&self, src: Src) -> Result<u64, DistanceError> {
        match src {
            Src::Hand(h, d) => self.file.read(h, d),
            Src::Zero => Ok(0),
        }
    }

    fn producer_of(&self, src: Src) -> Result<u64, DistanceError> {
        match src {
            Src::Hand(h, d) => self.file.producer(h, d),
            Src::Zero => Ok(NO_PRODUCER),
        }
    }

    fn index_of_pc(&self, pc_val: u64) -> Result<u32, InterpError> {
        let base = self.prog.pc_of(0);
        if pc_val < base || !(pc_val - base).is_multiple_of(4) {
            return Err(InterpError::PcOffEnd { pc: u32::MAX });
        }
        let idx = ((pc_val - base) / 4) as u32;
        if idx as usize >= self.prog.len() {
            return Err(InterpError::PcOffEnd { pc: idx });
        }
        Ok(idx)
    }
}

impl Machine for Interpreter {
    type Error = InterpError;

    const LIMIT_REACHED: InterpError = InterpError::LimitReached;

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on a distance violation or if control runs
    /// off the end of the program.
    // Inlined into the run loops, which are instantiated in the caller's crate.
    #[inline]
    fn step(&mut self) -> Result<Option<DynInst>, InterpError> {
        if self.halted.is_some() {
            return Ok(None);
        }
        if self.pc as usize >= self.prog.len() {
            return Err(InterpError::PcOffEnd { pc: self.pc });
        }
        let inst = self.prog.insts[self.pc as usize];
        let seq = self.seq;
        let pc_val = self.prog.pc_of(self.pc);
        let mut rec = DynInst::new(seq, pc_val, inst.class());

        // Resolve dataflow producers before any write of this instruction.
        let mut producers = [NO_PRODUCER; 2];
        for (i, s) in inst.srcs().into_iter().enumerate() {
            producers[i] = self.producer_of(s)?;
        }
        rec.srcs = producers;

        let mut next_pc = self.pc + 1;
        match inst {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => {
                let v = op.eval(self.read(src1)?, self.read(src2)?);
                self.file.write(dst, v, seq);
                rec.dst = Some(DstTag::Hand(dst.index() as u8));
            }
            Inst::AluImm { op, dst, src1, imm } => {
                let v = op.eval(self.read(src1)?, imm as i64 as u64);
                self.file.write(dst, v, seq);
                rec.dst = Some(DstTag::Hand(dst.index() as u8));
            }
            Inst::Li { dst, imm } => {
                self.file.write(dst, imm as u64, seq);
                rec.dst = Some(DstTag::Hand(dst.index() as u8));
            }
            Inst::Load {
                op,
                dst,
                base,
                offset,
            } => {
                let addr = self.read(base)?.wrapping_add(offset as i64 as u64);
                let v = op.extend(self.mem.read(addr, op.size()));
                self.file.write(dst, v, seq);
                rec.dst = Some(DstTag::Hand(dst.index() as u8));
                rec = rec.with_mem(addr, op.size());
            }
            Inst::Store {
                op,
                value,
                base,
                offset,
            } => {
                let addr = self.read(base)?.wrapping_add(offset as i64 as u64);
                let v = self.read(value)?;
                self.mem.write(addr, op.size(), v);
                rec = rec.with_mem(addr, op.size());
            }
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => {
                let taken = cond.eval(self.read(src1)?, self.read(src2)?);
                if taken {
                    next_pc = target;
                }
                rec = rec.with_ctrl(CtrlKind::Cond, taken, self.prog.pc_of(target));
            }
            Inst::Jump { target } => {
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Jump, true, self.prog.pc_of(target));
            }
            Inst::Call { dst, target } => {
                let ret = self.prog.pc_of(self.pc + 1);
                self.file.write(dst, ret, seq);
                rec.dst = Some(DstTag::Hand(dst.index() as u8));
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Call, true, self.prog.pc_of(target));
            }
            Inst::CallReg { dst, src } => {
                let ret = self.prog.pc_of(self.pc + 1);
                let target_pc = self.read(src)?;
                self.file.write(dst, ret, seq);
                rec.dst = Some(DstTag::Hand(dst.index() as u8));
                next_pc = self.index_of_pc(target_pc)?;
                rec = rec.with_ctrl(CtrlKind::Call, true, target_pc);
            }
            Inst::JumpReg { src } => {
                let target_pc = self.read(src)?;
                next_pc = self.index_of_pc(target_pc)?;
                rec = rec.with_ctrl(CtrlKind::Ret, true, target_pc);
            }
            Inst::Mv { dst, src } => {
                let v = self.read(src)?;
                self.file.write(dst, v, seq);
                rec.dst = Some(DstTag::Hand(dst.index() as u8));
            }
            Inst::Nop => {}
            Inst::Halt { src } => {
                self.halted = Some(self.read(src)?);
                return Ok(None);
            }
        }
        self.pc = next_pc;
        self.seq += 1;
        Ok(Some(rec))
    }

    fn exit_value(&self) -> Option<u64> {
        self.halted
    }

    fn committed(&self) -> u64 {
        self.seq
    }

    fn mem(&self) -> &Memory {
        &self.mem
    }

    fn into_mem(self) -> Memory {
        self.mem
    }
}

// Experiment drivers run interpreters on worker threads (compile-time audit).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Interpreter>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use ch_common::op::OpClass;

    fn run_src(src: &str) -> ch_common::exec::RunResult {
        let prog = assemble(src).expect("assembles");
        Interpreter::new(prog)
            .expect("valid")
            .run(1_000_000)
            .expect("runs")
    }

    #[test]
    fn limit_boundary_is_uniform() {
        // Regression (cross-ISA fuzz finding): exhausting the step budget
        // on an already-halted machine must report Ok, and a fresh
        // zero-budget run must report LimitReached — the same rule the
        // STRAIGHT and RISC-V interpreters follow.
        let prog = assemble("li t, 7\nhalt t[0]").expect("assembles");
        let mut it = Interpreter::new(prog.clone()).expect("valid");
        assert!(matches!(it.run(0), Err(InterpError::LimitReached)));
        assert_eq!(it.run(100).expect("halts").exit_value, 7);
        // Re-running a halted machine, even with a zero budget, stays Ok.
        assert_eq!(it.run(0).expect("still halted").exit_value, 7);
        let mut it = Interpreter::new(prog).expect("valid");
        assert!(matches!(it.trace(1), Err(InterpError::LimitReached)));
        // Resuming after the budget ran out only replays what's left —
        // here just the (record-free) halt step.
        let (rest, res) = it.trace(100).expect("halts");
        assert_eq!(res.exit_value, 7);
        assert!(rest.is_empty());
    }

    #[test]
    fn paper_fig6_loop() {
        // The loop of Fig. 6: store 42 into p[0..10], counting iterations.
        let r = run_src(
            "li t, 4096       # p
             li t, 0          # i
             li v, 10         # N (loop constant, v hand)
             li v, 42         # value 42 (loop constant)
             mv u, t[1]       # running p in u
             j .entry
         .loop:
             sw v[0], 0(u[0])
             addi u, u[0], 4
             addi t, t[0], 1
         .entry:
             bne t[0], v[1], .loop
             halt t[0]",
        );
        assert_eq!(r.exit_value, 10);
    }

    #[test]
    fn loop_constant_stays_reachable() {
        // v is written once before the loop; hundreds of t writes later it
        // is still v[0] — the distance does not change (Section 3.3).
        let r = run_src(
            "li v, 7
             li t, 0
             li t, 0          # i
         .loop:
             addi t, t[0], 1
             blt t[0], v[0], .loop
             halt t[0]",
        );
        assert_eq!(r.exit_value, 7);
    }

    #[test]
    fn memory_roundtrip_and_exit() {
        let r = run_src(
            "li t, 8192
             li t, 12345
             sd t[0], 8(t[1])
             ld u, 8(t[1])
             halt u[0]",
        );
        assert_eq!(r.exit_value, 12345);
    }

    #[test]
    fn call_and_return_convention() {
        // Compute f(5) where f doubles its argument. Args via s hand:
        // caller writes arg then calls (s[0]=ret addr, s[1]=arg inside f).
        // This leaf function allocates no frame, so it skips the SP
        // restore and the return value sits at s[0] after the return.
        let r = run_src(
            "li s, 5          # first argument
             call s, .f
             halt s[0]        # return value
         .f:
             add t, s[1], s[1]
             mv s, t[0]       # return value written to s
             jr s[1]          # s[1] is now the return address
            ",
        );
        assert_eq!(r.exit_value, 10);
    }

    #[test]
    fn dataflow_producers_resolved() {
        let prog = assemble(
            "li t, 1
             li t, 2
             add t, t[0], t[1]
             halt t[0]",
        )
        .unwrap();
        let (trace, _) = Interpreter::new(prog).unwrap().trace(100).unwrap();
        assert_eq!(trace.len(), 3);
        let add = &trace[2];
        assert_eq!(add.class, OpClass::IntAlu);
        assert_eq!(add.srcs, [1, 0]); // t[0] made by seq 1, t[1] by seq 0
    }

    #[test]
    fn sp_is_seeded() {
        let r = run_src("halt s[0]");
        assert_eq!(r.exit_value, STACK_TOP);
    }

    #[test]
    fn limit_reached_reported() {
        let prog = assemble(".spin: j .spin").unwrap();
        let err = Interpreter::new(prog).unwrap().run(100).unwrap_err();
        assert_eq!(err, InterpError::LimitReached);
    }

    #[test]
    fn running_off_the_end_is_an_error() {
        let prog = assemble("li t, 1").unwrap();
        let err = Interpreter::new(prog).unwrap().run(10).unwrap_err();
        assert!(matches!(err, InterpError::PcOffEnd { .. }));
    }

    #[test]
    fn iterator_streams_until_halt() {
        let prog = assemble(
            "li t, 1
             li t, 2
             add t, t[0], t[1]
             halt t[0]",
        )
        .unwrap();
        let mut it = Interpreter::new(prog).unwrap();
        let mut records = it.records();
        let n = records.by_ref().count();
        assert_eq!(n, 3);
        assert!(records.error().is_none());
        assert_eq!(it.exit_value(), Some(3));
    }
}
