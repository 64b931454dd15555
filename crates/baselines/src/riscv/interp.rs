//! Functional interpreter for the RISC baseline.

use super::{Reg, RvInst, RvProgram};
use ch_common::inst::{CtrlKind, DstTag, DynInst, NO_PRODUCER};
use ch_common::mem::Memory;

/// Default initial stack pointer (matches the Clockhands interpreter).
pub const STACK_TOP: u64 = 0x8000_0000;

/// A runtime error raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RvError {
    /// Execution ran past the end of the program.
    PcOffEnd {
        /// The out-of-range instruction index.
        pc: u32,
    },
    /// The instruction limit was reached before the program halted.
    LimitReached,
    /// The program failed static validation.
    Invalid(String),
}

impl std::fmt::Display for RvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RvError::PcOffEnd { pc } => write!(f, "execution ran off the end at index {pc}"),
            RvError::LimitReached => f.write_str("instruction limit reached before halt"),
            RvError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for RvError {}

/// Outcome of a completed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Value of the `halt` source register.
    pub exit_value: u64,
    /// Instructions committed (the halt is not counted).
    pub committed: u64,
}

/// Functional RISC interpreter.
///
/// # Examples
///
/// ```
/// use ch_baselines::riscv::asm::assemble;
/// use ch_baselines::riscv::interp::Interpreter;
///
/// let prog = assemble(
///     "li a0, 6
///      li a1, 7
///      mul a0, a0, a1
///      halt a0",
/// )?;
/// let mut cpu = Interpreter::new(prog)?;
/// assert_eq!(cpu.run(1000)?.exit_value, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    prog: RvProgram,
    regs: [u64; 64],
    producers: [u64; 64],
    mem: Memory,
    pc: u32,
    seq: u64,
    halted: Option<u64>,
    error: Option<RvError>,
}

impl Interpreter {
    /// Creates an interpreter, validating the program, loading its data
    /// image, and seeding `sp`.
    ///
    /// # Errors
    ///
    /// Returns [`RvError::Invalid`] if the program fails validation.
    pub fn new(prog: RvProgram) -> Result<Self, RvError> {
        prog.validate().map_err(RvError::Invalid)?;
        let mut mem = Memory::new();
        for (base, bytes) in &prog.data {
            mem.write_bytes(*base, bytes);
        }
        let mut regs = [0u64; 64];
        regs[Reg::SP.0 as usize] = STACK_TOP;
        let pc = prog.entry;
        Ok(Interpreter {
            prog,
            regs,
            producers: [NO_PRODUCER; 64],
            mem,
            pc,
            seq: 0,
            halted: None,
            error: None,
        })
    }

    /// Shared memory view.
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Mutable memory view (for preloading inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Exit value once halted.
    pub fn exit_value(&self) -> Option<u64> {
        self.halted
    }

    /// Error that stopped the iterator stream, if any.
    pub fn error(&self) -> Option<&RvError> {
        self.error.as_ref()
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.seq
    }

    fn read(&self, r: Reg) -> u64 {
        self.regs[r.0 as usize]
    }

    fn write(&mut self, r: Reg, v: u64, producer: u64) {
        if !r.is_zero() {
            self.regs[r.0 as usize] = v;
            self.producers[r.0 as usize] = producer;
        }
    }

    fn producer_of(&self, r: Reg) -> u64 {
        if r.is_zero() {
            NO_PRODUCER
        } else {
            self.producers[r.0 as usize]
        }
    }

    /// Executes one instruction; `Ok(None)` once halted.
    ///
    /// # Errors
    ///
    /// Returns [`RvError::PcOffEnd`] if control leaves the program.
    pub fn step(&mut self) -> Result<Option<DynInst>, RvError> {
        if self.halted.is_some() {
            return Ok(None);
        }
        if self.pc as usize >= self.prog.len() {
            return Err(RvError::PcOffEnd { pc: self.pc });
        }
        let inst = self.prog.insts[self.pc as usize];
        let seq = self.seq;
        let mut rec = DynInst::new(seq, self.prog.pc_of(self.pc), inst.class());

        let mut producers = [NO_PRODUCER; 2];
        for (i, r) in inst.srcs().into_iter().enumerate() {
            producers[i] = self.producer_of(r);
        }
        rec.srcs = producers;
        if let Some(rd) = inst.dst() {
            rec.dst = Some(DstTag::Reg(rd.0));
        }

        let mut next_pc = self.pc + 1;
        match inst {
            RvInst::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.read(rs1), self.read(rs2));
                self.write(rd, v, seq);
            }
            RvInst::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.read(rs1), imm as i64 as u64);
                self.write(rd, v, seq);
            }
            RvInst::Li { rd, imm } => self.write(rd, imm as u64, seq),
            RvInst::Load {
                op,
                rd,
                base,
                offset,
            } => {
                let addr = self.read(base).wrapping_add(offset as i64 as u64);
                let v = op.extend(self.mem.read(addr, op.size()));
                self.write(rd, v, seq);
                rec = rec.with_mem(addr, op.size());
            }
            RvInst::Store {
                op,
                rs,
                base,
                offset,
            } => {
                let addr = self.read(base).wrapping_add(offset as i64 as u64);
                self.mem.write(addr, op.size(), self.read(rs));
                rec = rec.with_mem(addr, op.size());
            }
            RvInst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                let taken = cond.eval(self.read(rs1), self.read(rs2));
                if taken {
                    next_pc = target;
                }
                rec = rec.with_ctrl(CtrlKind::Cond, taken, self.prog.pc_of(target));
            }
            RvInst::Jump { target } => {
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Jump, true, self.prog.pc_of(target));
            }
            RvInst::Call { rd, target } => {
                self.write(rd, self.prog.pc_of(self.pc + 1), seq);
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Call, true, self.prog.pc_of(target));
            }
            RvInst::CallReg { rd, rs } => {
                let target_pc = self.read(rs);
                self.write(rd, self.prog.pc_of(self.pc + 1), seq);
                next_pc = self.index_of_pc(target_pc)?;
                rec = rec.with_ctrl(CtrlKind::Call, true, target_pc);
            }
            RvInst::JumpReg { rs } => {
                let target_pc = self.read(rs);
                next_pc = self.index_of_pc(target_pc)?;
                rec = rec.with_ctrl(CtrlKind::Ret, true, target_pc);
            }
            RvInst::Mv { rd, rs } => {
                let v = self.read(rs);
                self.write(rd, v, seq);
            }
            RvInst::Nop => {}
            RvInst::Halt { rs } => {
                self.halted = Some(self.read(rs));
                return Ok(None);
            }
        }
        self.pc = next_pc;
        self.seq += 1;
        Ok(Some(rec))
    }

    fn index_of_pc(&self, pc_val: u64) -> Result<u32, RvError> {
        let base = self.prog.pc_of(0);
        if pc_val < base || !(pc_val - base).is_multiple_of(4) {
            return Err(RvError::PcOffEnd { pc: u32::MAX });
        }
        let idx = ((pc_val - base) / 4) as u32;
        if idx as usize >= self.prog.len() {
            return Err(RvError::PcOffEnd { pc: idx });
        }
        Ok(idx)
    }

    /// Runs to completion (at most `limit` instructions).
    ///
    /// # Errors
    ///
    /// Returns [`RvError::LimitReached`] if the program does not halt in
    /// time, or any error from [`Interpreter::step`].
    pub fn run(&mut self, limit: u64) -> Result<RunResult, RvError> {
        for _ in 0..limit {
            if self.step()?.is_none() {
                break;
            }
        }
        // Uniform limit-boundary rule across all three ISA interpreters:
        // once the step budget is spent, the outcome depends only on
        // whether the machine has halted — not on which loop exit we took.
        match self.halted {
            Some(exit_value) => Ok(RunResult {
                exit_value,
                committed: self.seq,
            }),
            None => Err(RvError::LimitReached),
        }
    }

    /// Runs to completion, collecting the full trace.
    ///
    /// # Errors
    ///
    /// As for [`Interpreter::run`].
    pub fn trace(&mut self, limit: u64) -> Result<(Vec<DynInst>, RunResult), RvError> {
        let mut out = Vec::new();
        for _ in 0..limit {
            match self.step()? {
                Some(rec) => out.push(rec),
                None => break,
            }
        }
        match self.halted {
            Some(exit_value) => Ok((
                out,
                RunResult {
                    exit_value,
                    committed: self.seq,
                },
            )),
            None => Err(RvError::LimitReached),
        }
    }
}

/// Streaming adapter; errors are stashed for [`Interpreter::error`].
impl Iterator for Interpreter {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        match self.step() {
            Ok(opt) => opt,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
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
    use crate::riscv::asm::assemble;

    fn run_src(src: &str) -> RunResult {
        let prog = assemble(src).expect("assembles");
        Interpreter::new(prog)
            .expect("valid")
            .run(1_000_000)
            .expect("runs")
    }

    #[test]
    fn limit_boundary_is_uniform() {
        // Regression (cross-ISA fuzz finding): the three interpreters must
        // agree on limit-boundary behaviour — Ok iff halted once the step
        // budget is spent, LimitReached otherwise.
        let prog = assemble("li a0, 7\nhalt a0").expect("assembles");
        let mut it = Interpreter::new(prog.clone()).expect("valid");
        assert!(matches!(it.run(0), Err(RvError::LimitReached)));
        assert_eq!(it.run(100).expect("halts").exit_value, 7);
        assert_eq!(it.run(0).expect("still halted").exit_value, 7);
        let mut it = Interpreter::new(prog).expect("valid");
        assert!(matches!(it.trace(1), Err(RvError::LimitReached)));
        // Resuming after the budget ran out only replays what's left —
        // here just the (record-free) halt step.
        let (rest, res) = it.trace(100).expect("halts");
        assert_eq!(res.exit_value, 7);
        assert!(rest.is_empty());
    }

    #[test]
    fn iota_loop_matches_fig1() {
        // Fig. 1(b) shape: arr[i] = i for i in 0..N, then checksum.
        let r = run_src(
            "li a0, 4096      # arr
             li a1, 10        # N
             li a5, 0         # i
         .L3:
             sw a5, 0(a0)
             addiw a5, a5, 1
             addi a0, a0, 4
             bne a1, a5, .L3
             lw a2, -4(a0)    # arr[9]
             halt a2",
        );
        assert_eq!(r.exit_value, 9);
    }

    #[test]
    fn call_return_with_ra() {
        let r = run_src(
            "li a0, 21
             call ra, .double
             halt a0
         .double:
             add a0, a0, a0
             jr ra",
        );
        assert_eq!(r.exit_value, 42);
    }

    #[test]
    fn x0_reads_zero_even_after_write() {
        let r = run_src(
            "addi x0, x0, 99
             mv a0, x0
             halt a0",
        );
        assert_eq!(r.exit_value, 0);
    }

    #[test]
    fn sp_seeded() {
        let r = run_src("halt sp");
        assert_eq!(r.exit_value, STACK_TOP);
    }

    #[test]
    fn dataflow_producers() {
        let prog = assemble(
            "li a0, 1
             li a1, 2
             add a2, a0, a1
             halt a2",
        )
        .unwrap();
        let (trace, _) = Interpreter::new(prog).unwrap().trace(100).unwrap();
        assert_eq!(trace[2].srcs, [0, 1]);
    }

    #[test]
    fn fp_roundtrip() {
        let r = run_src(
            "li a0, 3
             fcvt.d.l f0, a0, x0
             fadd f1, f0, f0
             fcvt.l.d a1, f1, x0
             halt a1",
        );
        assert_eq!(r.exit_value, 6);
    }
}
