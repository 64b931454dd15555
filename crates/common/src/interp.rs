//! The one functional interpreter for the three ISAs.
//!
//! [`Interpreter`] executes a validated [`Program`] against an ISA's
//! [`OperandFile`] and a sparse [`Memory`], yielding one [`DynInst`] per
//! committed instruction with the register dataflow resolved to producer
//! sequence numbers. Its [`Machine::step`] owns everything the ISAs
//! share: ALU, load/store and branch semantics, the PC rules and the
//! record. The file owns how operands are named: reading a source,
//! finding its producer, and retiring a destination.
//!
//! The interpreter is generic over [`Operands`], so each ISA gets its own
//! statically dispatched copy of `step`.

use crate::exec::Machine;
use crate::inst::{CtrlKind, DstTag, DynInst};
use crate::isa::{Inst, Operands, Program, ProgramError, TEXT_BASE};
use crate::mem::Memory;
use std::fmt::{Debug, Display};

/// Initial stack pointer in every ISA (grows down; well clear of text
/// and data).
pub const STACK_TOP: u64 = 0x8000_0000;

/// An ISA's architectural operand state, as the interpreter sees it.
pub trait OperandFile<O: Operands>: Clone + Debug + Send + Sync {
    /// A fault reading an operand.
    type Error: Clone + Debug + Eq + Display;

    /// The state at entry: every operand zero, except that the stack
    /// pointer reads `sp`.
    fn at_entry(sp: u64) -> Self;

    /// The value of `src` as instruction `seq` reads it.
    ///
    /// # Errors
    ///
    /// The ISA's operand fault.
    fn read(&self, src: O::Src, seq: u64) -> Result<u64, Self::Error>;

    /// The sequence number of the instruction that produced `src`'s value
    /// as instruction `seq` reads it, or [`crate::inst::NO_PRODUCER`].
    ///
    /// # Errors
    ///
    /// The ISA's operand fault.
    fn producer(&self, src: O::Src, seq: u64) -> Result<u64, Self::Error>;

    /// Retires instruction `seq`, writing `value` to `dst` when it has
    /// one, and returns the record's destination tag.
    fn write(&mut self, out: Option<(O::Dst, u64)>, seq: u64) -> Option<DstTag>;

    /// Executes `spaddi imm`; only an ISA that has the variant is asked.
    fn sp_addi(&mut self, imm: i32, isa: O::SpAddi);
}

/// The operand fault of ISA `O`'s file.
pub type OperandError<O> = <<O as Operands>::File as OperandFile<O>>::Error;

/// A runtime error raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError<E> {
    /// An operand read faulted.
    Operand {
        /// Index of the reading instruction.
        at: u32,
        /// The ISA's fault.
        error: E,
    },
    /// Execution ran past the end of the program without halting.
    PcOffEnd {
        /// The out-of-range instruction index.
        pc: u32,
    },
    /// The instruction limit was reached before the program halted.
    LimitReached,
}

impl<E: Display> Display for InterpError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterpError::Operand { at, error } => write!(f, "instruction {at}: {error}"),
            InterpError::PcOffEnd { pc } => write!(f, "execution ran off the end at index {pc}"),
            InterpError::LimitReached => f.write_str("instruction limit reached before halt"),
        }
    }
}

impl<E: Debug + Display> std::error::Error for InterpError<E> {}

/// Functional interpreter for the ISA `O`.
#[derive(Debug, Clone)]
pub struct Interpreter<O: Operands> {
    prog: Program<Inst<O>>,
    file: O::File,
    mem: Memory,
    pc: u32,
    seq: u64,
    halted: Option<u64>,
}

impl<O: Operands> Interpreter<O> {
    /// Creates an interpreter, validating the program, loading its data
    /// image, and seeding the stack pointer with [`STACK_TOP`].
    ///
    /// # Errors
    ///
    /// Returns the program's validation error, if any.
    pub fn new(prog: Program<Inst<O>>) -> Result<Self, ProgramError> {
        prog.validate()?;
        let mut mem = Memory::new();
        for (base, bytes) in &prog.data {
            mem.write_bytes(*base, bytes);
        }
        let pc = prog.entry;
        Ok(Interpreter {
            prog,
            file: O::File::at_entry(STACK_TOP),
            mem,
            pc,
            seq: 0,
            halted: None,
        })
    }

    /// The architectural operand state (for inspection and debugging).
    pub fn file(&self) -> &O::File {
        &self.file
    }

    #[inline]
    fn read(&self, src: O::Src) -> Result<u64, InterpError<OperandError<O>>> {
        let at = self.pc;
        self.file
            .read(src, self.seq)
            .map_err(|error| InterpError::Operand { at, error })
    }

    fn index_of_pc(&self, pc_val: u64) -> Result<u32, InterpError<OperandError<O>>> {
        if pc_val < TEXT_BASE || !(pc_val - TEXT_BASE).is_multiple_of(4) {
            return Err(InterpError::PcOffEnd { pc: u32::MAX });
        }
        let idx = ((pc_val - TEXT_BASE) / 4) as u32;
        if idx as usize >= self.prog.len() {
            return Err(InterpError::PcOffEnd { pc: idx });
        }
        Ok(idx)
    }
}

impl<O: Operands> Machine for Interpreter<O> {
    type Error = InterpError<OperandError<O>>;

    const LIMIT_REACHED: Self::Error = InterpError::LimitReached;

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError`] on an operand fault or if control runs
    /// off the end of the program.
    // Inlined into the run loops, which are instantiated in the caller's crate.
    #[inline]
    fn step(&mut self) -> Result<Option<DynInst>, Self::Error> {
        if self.halted.is_some() {
            return Ok(None);
        }
        let pc = self.pc;
        let Some(&inst) = self.prog.insts.get(pc as usize) else {
            return Err(InterpError::PcOffEnd { pc });
        };
        let seq = self.seq;
        let mut rec = DynInst::new(seq, self.prog.pc_of(pc), inst.class());

        // Resolve dataflow producers before any write of this instruction.
        for (slot, s) in rec.srcs.iter_mut().zip(inst.srcs()) {
            *slot = self
                .file
                .producer(s, seq)
                .map_err(|error| InterpError::Operand { at: pc, error })?;
        }

        let mut next_pc = pc + 1;
        let value = match inst {
            Inst::Alu { op, src1, src2, .. } => Some(op.eval(self.read(src1)?, self.read(src2)?)),
            Inst::AluImm { op, src1, imm, .. } => {
                Some(op.eval(self.read(src1)?, imm as i64 as u64))
            }
            Inst::Li { imm, .. } => Some(imm as u64),
            Inst::Load {
                op, base, offset, ..
            } => {
                let addr = self.read(base)?.wrapping_add(offset as i64 as u64);
                rec = rec.with_mem(addr, op.size());
                Some(op.extend(self.mem.read(addr, op.size())))
            }
            Inst::Store {
                op,
                value,
                base,
                offset,
            } => {
                let addr = self.read(base)?.wrapping_add(offset as i64 as u64);
                self.mem.write(addr, op.size(), self.read(value)?);
                rec = rec.with_mem(addr, op.size());
                None
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
                None
            }
            Inst::Jump { target } => {
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Jump, true, self.prog.pc_of(target));
                None
            }
            Inst::Call { target, .. } => {
                next_pc = target;
                rec = rec.with_ctrl(CtrlKind::Call, true, self.prog.pc_of(target));
                Some(self.prog.pc_of(pc + 1))
            }
            Inst::CallReg { src, .. } => {
                let target_pc = self.read(src)?;
                next_pc = self.index_of_pc(target_pc)?;
                rec = rec.with_ctrl(CtrlKind::Call, true, target_pc);
                Some(self.prog.pc_of(pc + 1))
            }
            Inst::JumpReg { src } => {
                let target_pc = self.read(src)?;
                next_pc = self.index_of_pc(target_pc)?;
                rec = rec.with_ctrl(CtrlKind::Ret, true, target_pc);
                None
            }
            Inst::SpAddi { imm, isa } => {
                self.file.sp_addi(imm, isa);
                None
            }
            Inst::Mv { src, .. } => Some(self.read(src)?),
            Inst::Nop => None,
            Inst::Halt { src } => {
                self.halted = Some(self.read(src)?);
                return Ok(None);
            }
        };
        rec.dst = self.file.write(inst.dst().zip(value), seq);
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
