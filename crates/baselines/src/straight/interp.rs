//! Functional interpreter for STRAIGHT.

use super::{StInst, StProgram, StSrc, MAX_DISTANCE};
use ch_common::exec::Machine;
use ch_common::inst::{CtrlKind, DstTag, DynInst, NO_PRODUCER};
use ch_common::mem::Memory;

/// Default initial stack pointer (matches the other interpreters).
pub const STACK_TOP: u64 = 0x8000_0000;

/// Ring capacity for the functional model (≥ MAX_DISTANCE+1, power of 2).
const RING: usize = 256;

/// A runtime error raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StError {
    /// Execution ran past the end of the program.
    PcOffEnd {
        /// The out-of-range instruction index.
        pc: u32,
    },
    /// The instruction limit was reached before the program halted.
    LimitReached,
    /// A source referenced further back than instructions executed.
    ReadBeforeWrite {
        /// Instruction index performing the read.
        at: u32,
    },
    /// The program failed static validation.
    Invalid(String),
}

impl std::fmt::Display for StError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StError::PcOffEnd { pc } => write!(f, "execution ran off the end at index {pc}"),
            StError::LimitReached => f.write_str("instruction limit reached before halt"),
            StError::ReadBeforeWrite { at } => {
                write!(f, "instruction {at} reads a slot older than the program")
            }
            StError::Invalid(e) => write!(f, "invalid program: {e}"),
        }
    }
}

impl std::error::Error for StError {}

/// Functional STRAIGHT interpreter.
///
/// # Examples
///
/// ```
/// use ch_baselines::straight::asm::assemble;
/// use ch_common::exec::Machine;
/// use ch_baselines::straight::interp::Interpreter;
///
/// let prog = assemble(
///     "li 6
///      li 7
///      mul [2], [1]
///      halt [1]",
/// )?;
/// let mut cpu = Interpreter::new(prog)?;
/// assert_eq!(cpu.run(1000)?.exit_value, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Interpreter {
    prog: StProgram,
    ring: [u64; RING],
    producers: [u64; RING],
    sp: u64,
    mem: Memory,
    pc: u32,
    seq: u64,
    halted: Option<u64>,
}

impl Interpreter {
    /// Creates an interpreter, validating the program, loading its data
    /// image, and seeding the SP special register.
    ///
    /// # Errors
    ///
    /// Returns [`StError::Invalid`] if the program fails validation.
    pub fn new(prog: StProgram) -> Result<Self, StError> {
        prog.validate().map_err(StError::Invalid)?;
        let mut mem = Memory::new();
        for (base, bytes) in &prog.data {
            mem.write_bytes(*base, bytes);
        }
        let pc = prog.entry;
        Ok(Interpreter {
            prog,
            ring: [0; RING],
            producers: [NO_PRODUCER; RING],
            sp: STACK_TOP,
            mem,
            pc,
            seq: 0,
            halted: None,
        })
    }

    /// Current SP special-register value.
    pub fn sp(&self) -> u64 {
        self.sp
    }

    fn read(&self, src: StSrc) -> Result<u64, StError> {
        match src {
            StSrc::Dist(d) => {
                debug_assert!((1..=MAX_DISTANCE).contains(&d));
                if (d as u64) > self.seq {
                    return Err(StError::ReadBeforeWrite { at: self.pc });
                }
                Ok(self.ring[(self.seq - d as u64) as usize & (RING - 1)])
            }
            StSrc::Sp => Ok(self.sp),
            StSrc::Zero => Ok(0),
        }
    }

    fn producer_of(&self, src: StSrc) -> u64 {
        match src {
            StSrc::Dist(d) if (d as u64) <= self.seq => {
                self.producers[(self.seq - d as u64) as usize & (RING - 1)]
            }
            _ => NO_PRODUCER,
        }
    }

    fn index_of_pc(&self, pc_val: u64) -> Result<u32, StError> {
        let base = self.prog.pc_of(0);
        if pc_val < base || !(pc_val - base).is_multiple_of(4) {
            return Err(StError::PcOffEnd { pc: u32::MAX });
        }
        let idx = ((pc_val - base) / 4) as u32;
        if idx as usize >= self.prog.len() {
            return Err(StError::PcOffEnd { pc: idx });
        }
        Ok(idx)
    }
}

impl Machine for Interpreter {
    type Error = StError;

    const LIMIT_REACHED: StError = StError::LimitReached;

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`StError`] on bad control flow or a read of a slot older
    /// than the program.
    // Inlined into the run loops, which are instantiated in the caller's crate.
    #[inline]
    fn step(&mut self) -> Result<Option<DynInst>, StError> {
        if self.halted.is_some() {
            return Ok(None);
        }
        if self.pc as usize >= self.prog.len() {
            return Err(StError::PcOffEnd { pc: self.pc });
        }
        let inst = self.prog.insts[self.pc as usize];
        let seq = self.seq;
        let mut rec = DynInst::new(seq, self.prog.pc_of(self.pc), inst.class());

        let mut producers = [NO_PRODUCER; 2];
        for (i, s) in inst.srcs().into_iter().enumerate() {
            producers[i] = self.producer_of(s);
        }
        rec.srcs = producers;

        let mut next_pc = self.pc + 1;
        // Result value this instruction deposits in its ring slot.
        let mut result: u64 = 0;
        let mut result_producer = NO_PRODUCER;
        match inst {
            StInst::Alu { op, src1, src2 } => {
                result = op.eval(self.read(src1)?, self.read(src2)?);
                result_producer = seq;
                rec.dst = Some(DstTag::RingSlot);
            }
            StInst::AluImm { op, src1, imm } => {
                result = op.eval(self.read(src1)?, imm as i64 as u64);
                result_producer = seq;
                rec.dst = Some(DstTag::RingSlot);
            }
            StInst::Li { imm } => {
                result = imm as u64;
                result_producer = seq;
                rec.dst = Some(DstTag::RingSlot);
            }
            StInst::Load { op, base, offset } => {
                let addr = self.read(base)?.wrapping_add(offset as i64 as u64);
                result = op.extend(self.mem.read(addr, op.size()));
                result_producer = seq;
                rec.dst = Some(DstTag::RingSlot);
                rec = rec.with_mem(addr, op.size());
            }
            StInst::Store {
                value,
                base,
                offset,
                op,
            } => {
                let addr = self.read(base)?.wrapping_add(offset as i64 as u64);
                self.mem.write(addr, op.size(), self.read(value)?);
                rec = rec.with_mem(addr, op.size());
            }
            StInst::Branch {
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
            StInst::Jump { target } => {
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Jump, true, self.prog.pc_of(target));
            }
            StInst::Call { target } => {
                result = self.prog.pc_of(self.pc + 1);
                result_producer = seq;
                rec.dst = Some(DstTag::RingSlot);
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Call, true, self.prog.pc_of(target));
            }
            StInst::JumpReg { src } => {
                let target_pc = self.read(src)?;
                next_pc = self.index_of_pc(target_pc)?;
                rec = rec.with_ctrl(CtrlKind::Ret, true, target_pc);
            }
            StInst::SpAddi { imm } => {
                self.sp = self.sp.wrapping_add(imm as i64 as u64);
            }
            StInst::Mv { src } => {
                result = self.read(src)?;
                result_producer = seq;
                rec.dst = Some(DstTag::RingSlot);
            }
            StInst::Nop => {}
            StInst::Halt { src } => {
                self.halted = Some(self.read(src)?);
                return Ok(None);
            }
        }
        // Every instruction occupies the next ring slot (this is what
        // couples distance with execution and forces the relay insts).
        let slot = (seq as usize) & (RING - 1);
        self.ring[slot] = result;
        self.producers[slot] = result_producer;
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
    use crate::straight::asm::assemble;

    fn run_src(src: &str) -> ch_common::exec::RunResult {
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
        let prog = assemble("li 7\nhalt [1]").expect("assembles");
        let mut it = Interpreter::new(prog.clone()).expect("valid");
        assert!(matches!(it.run(0), Err(StError::LimitReached)));
        assert_eq!(it.run(100).expect("halts").exit_value, 7);
        assert_eq!(it.run(0).expect("still halted").exit_value, 7);
        let mut it = Interpreter::new(prog).expect("valid");
        assert!(matches!(it.trace(1), Err(StError::LimitReached)));
        // Resuming after the budget ran out only replays what's left —
        // here just the (record-free) halt step.
        let (rest, res) = it.trace(100).expect("halts");
        assert_eq!(res.exit_value, 7);
        assert!(rest.is_empty());
    }

    #[test]
    fn distances_count_all_instructions() {
        // The store between producer and consumer still occupies a slot,
        // so the add must reach back over it.
        let r = run_src(
            "li 5            # slot 0
             li 4096         # slot 1
             sd [2], 0([1])  # slot 2 (no value)
             add [3], [3]    # [3] = slot 0 = 5 -> 10
             halt [1]",
        );
        assert_eq!(r.exit_value, 10);
    }

    #[test]
    fn loop_needs_relay_mv() {
        // Fig. 2(a): a loop constant must be relayed every iteration so
        // its distance stays the same at the loop head, and the pre-loop
        // code needs a nop so first-entry distances match the steady
        // state. Sum 1..=3 = 6.
        let r = run_src(
            "li 3            # N    (slot 0)
             li 0            # i    (slot 1)
             li 0            # sum  (slot 2)
             nop             # distance adjust (slot 3)
         .loop:
             mv [4]          # relay N
             addi [4], 1     # i+1
             add [4], [1]    # sum + (i+1)
             bne [2], [3], .loop
             halt [2]",
        );
        assert_eq!(r.exit_value, 6);
    }

    #[test]
    fn spaddi_and_sp_loads() {
        let r = run_src(
            "spaddi -16
             li 77
             sd [1], 8(sp)
             ld 8(sp)
             spaddi 16
             halt [2]",
        );
        assert_eq!(r.exit_value, 77);
    }

    #[test]
    fn call_and_ret_by_distance() {
        let r = run_src(
            "li 21           # arg        slot 0
             call .f         # ret addr   slot 1
             halt [2]        # mv result two slots back (ret occupies [1])
         .f:
             add [2], [2]    # arg+arg    slot 2
             mv [1]          # result     slot 3
             ret [3]         # ret addr at distance 3 (call was slot 1)
            ",
        );
        // halt executes after ret (slot 4), so the mv result sits at [2].
        assert_eq!(r.exit_value, 42);
    }

    #[test]
    fn read_before_write_detected() {
        let prog = assemble("mv [5]\nhalt zero").unwrap();
        let err = Interpreter::new(prog).unwrap().run(10).unwrap_err();
        assert!(matches!(err, StError::ReadBeforeWrite { .. }));
    }

    #[test]
    fn dataflow_skips_valueless_slots() {
        let prog = assemble(
            "li 1
             nop
             mv [2]
             halt [1]",
        )
        .unwrap();
        let (trace, _) = Interpreter::new(prog).unwrap().trace(100).unwrap();
        // mv reads slot of `li` (distance 2): producer is seq 0.
        assert_eq!(trace[2].srcs[0], 0);
        // nop produced nothing: its slot has no producer.
        assert_eq!(trace[1].dst, None);
    }
}
