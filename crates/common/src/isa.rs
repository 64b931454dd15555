//! The instruction shape the three ISAs share, and the one program
//! container.
//!
//! Fig. 5 of the paper: RISC-V, STRAIGHT and Clockhands share their
//! `opcode`/`funct` semantics and differ only in how register operands
//! are named. [`Inst`] therefore declares the instruction variants once,
//! generic over an [`Operands`] impl that names an ISA's destination and
//! source types and says which of the two ISA-only variants it has
//! (`CallReg` for Clockhands and RISC-V, `SpAddi` for STRAIGHT). An ISA
//! cannot build a variant it lacks: that variant's payload is
//! [`Absent`], which has no values.
//!
//! [`Program`] holds any ISA's code, labels and data, and
//! [`Program::validate`] applies the one target rule: every branch,
//! jump and call target names an instruction, `target < len`. A taken
//! transfer to `len` could only run off the end. The encoders and
//! assemblers apply the same rule.

use crate::exec::{AluOp, BrCond, LoadOp, Srcs, StoreOp};
use crate::interp::OperandFile;
use crate::op::OpClass;
use std::collections::BTreeMap;
use std::fmt::{Debug, Display};
use std::hash::Hash;

/// Base address of the text section: instruction `i` sits at the
/// abstract PC `TEXT_BASE + 4 * i` in every ISA.
pub const TEXT_BASE: u64 = 0x1_0000;

/// The payload of a variant an ISA does not have. It has no values, so
/// neither does the variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Absent {}

impl Display for Absent {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

/// How one ISA names its operands.
///
/// The bounds let [`Inst`] derive its traits, and make every
/// interpreter `Send`: experiment drivers run them on worker threads.
pub trait Operands: Copy + Debug + Eq + Hash + Send + Sync + 'static {
    /// A destination: a hand, a register, or `()` for STRAIGHT's
    /// implicit ring slot.
    type Dst: Copy + Debug + Eq + Hash + Send + Sync;
    /// A source operand. The default is the ISA's zero register.
    type Src: Copy + Debug + Eq + Hash + Default + Display + Send + Sync;
    /// `()` if the ISA has [`Inst::CallReg`], [`Absent`] if not.
    type CallReg: Copy + Debug + Eq + Hash + Send + Sync;
    /// `()` if the ISA has [`Inst::SpAddi`], [`Absent`] if not.
    type SpAddi: Copy + Debug + Eq + Hash + Send + Sync;
    /// The interpreter's architectural operand state.
    type File: OperandFile<Self>;

    /// The destination of every writing instruction where the ISA
    /// spells none (STRAIGHT's next ring slot); `None` where the
    /// destination is an operand of its own. The assemblers and
    /// encoders spell and encode a destination only when this is `None`.
    const IMPLICIT_DST: Option<Self::Dst> = None;
    /// The `isa` payload of [`Inst::CallReg`] if the ISA has the variant.
    const CALL_REG: Option<Self::CallReg> = None;
    /// The `isa` payload of [`Inst::SpAddi`] if the ISA has the variant.
    const SP_ADDI: Option<Self::SpAddi> = None;

    /// Whether a write to `dst` is architectural (RISC-V drops writes
    /// to `x0`).
    fn is_written(_dst: Self::Dst) -> bool {
        true
    }

    /// Whether `src` names an operand the ISA has. This and
    /// [`Operands::is_valid_dst`] are the one range rule that
    /// [`Program::validate`], the verifier and the encoders apply.
    fn is_valid(_src: Self::Src) -> bool {
        true
    }

    /// Whether `dst` names a destination the ISA has.
    fn is_valid_dst(_dst: Self::Dst) -> bool {
        true
    }
}

/// One instruction of the ISA `O`.
///
/// Immediates are kept as native integers; the binary encoder (the
/// `ch-encode` crate) places them inline or, when they outgrow their
/// field, in a literal pool. Targets are instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inst<O: Operands> {
    /// Register-register ALU operation: `op dst, src1, src2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: O::Dst,
        /// First source.
        src1: O::Src,
        /// Second source.
        src2: O::Src,
    },
    /// Register-immediate ALU operation: `opi dst, src1, imm`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination.
        dst: O::Dst,
        /// Source.
        src1: O::Src,
        /// Immediate.
        imm: i32,
    },
    /// Load immediate (`lui`+`addi` class): `li dst, imm`.
    Li {
        /// Destination.
        dst: O::Dst,
        /// Immediate value.
        imm: i64,
    },
    /// Memory load: `lX dst, offset(base)`.
    Load {
        /// Width/extension.
        op: LoadOp,
        /// Destination.
        dst: O::Dst,
        /// Base address source.
        base: O::Src,
        /// Byte offset.
        offset: i32,
    },
    /// Memory store: `sX value, offset(base)`. No destination.
    Store {
        /// Width.
        op: StoreOp,
        /// Value source.
        value: O::Src,
        /// Base address source.
        base: O::Src,
        /// Byte offset.
        offset: i32,
    },
    /// Conditional branch: `bCC src1, src2, target`. No destination.
    Branch {
        /// Comparison.
        cond: BrCond,
        /// First source.
        src1: O::Src,
        /// Second source.
        src2: O::Src,
        /// Taken target.
        target: u32,
    },
    /// Unconditional jump (`j`). No destination; in Clockhands this is
    /// what removes STRAIGHT's convergence-point `nop`s (Section 3.3).
    Jump {
        /// Target.
        target: u32,
    },
    /// Direct call (`jal`): writes the return address to `dst`.
    Call {
        /// Destination of the return address.
        dst: O::Dst,
        /// Callee entry.
        target: u32,
    },
    /// Indirect jump through a register, used for returns: `jr src`.
    JumpReg {
        /// Target address source.
        src: O::Src,
    },
    /// Indirect call (`jalr dst, src`): Clockhands and RISC-V only.
    CallReg {
        /// Destination of the return address.
        dst: O::Dst,
        /// Target address source.
        src: O::Src,
        /// `()` where the ISA has this variant.
        isa: O::CallReg,
    },
    /// Add an immediate to the stack-pointer special register
    /// (`spaddi`): STRAIGHT only (Section 4.2).
    SpAddi {
        /// Immediate added to SP.
        imm: i32,
        /// `()` where the ISA has this variant.
        isa: O::SpAddi,
    },
    /// Register move: `mv dst, src`.
    Mv {
        /// Destination.
        dst: O::Dst,
        /// Source.
        src: O::Src,
    },
    /// No-operation.
    Nop,
    /// Stop execution; `src` is reported as the exit value.
    Halt {
        /// Exit-value source.
        src: O::Src,
    },
}

impl<O: Operands> Inst<O> {
    /// The destination, if the instruction writes one.
    pub fn dst(&self) -> Option<O::Dst> {
        let dst = match *self {
            Inst::Alu { dst, .. }
            | Inst::AluImm { dst, .. }
            | Inst::Li { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::Call { dst, .. }
            | Inst::CallReg { dst, .. }
            | Inst::Mv { dst, .. } => dst,
            _ => return None,
        };
        O::is_written(dst).then_some(dst)
    }

    /// The source operands, in operand order (a zero register included:
    /// it reads as zero but carries no dataflow).
    pub fn srcs(&self) -> Srcs<O::Src> {
        match *self {
            Inst::Alu { src1, src2, .. } | Inst::Branch { src1, src2, .. } => Srcs::two(src1, src2),
            Inst::Store { value, base, .. } => Srcs::two(value, base),
            Inst::AluImm { src1: src, .. }
            | Inst::Load { base: src, .. }
            | Inst::JumpReg { src }
            | Inst::CallReg { src, .. }
            | Inst::Mv { src, .. }
            | Inst::Halt { src } => Srcs::one(src),
            Inst::Li { .. }
            | Inst::Jump { .. }
            | Inst::Call { .. }
            | Inst::SpAddi { .. }
            | Inst::Nop => Srcs::none(),
        }
    }

    /// The source operands, mutably, in the order of [`Inst::srcs`].
    pub fn srcs_mut(&mut self) -> impl Iterator<Item = &mut O::Src> {
        let (a, b) = match self {
            Inst::Alu { src1, src2, .. } | Inst::Branch { src1, src2, .. } => {
                (Some(src1), Some(src2))
            }
            Inst::Store { value, base, .. } => (Some(value), Some(base)),
            Inst::AluImm { src1: src, .. }
            | Inst::Load { base: src, .. }
            | Inst::JumpReg { src }
            | Inst::CallReg { src, .. }
            | Inst::Mv { src, .. }
            | Inst::Halt { src } => (Some(src), None),
            Inst::Li { .. }
            | Inst::Jump { .. }
            | Inst::Call { .. }
            | Inst::SpAddi { .. }
            | Inst::Nop => (None, None),
        };
        a.into_iter().chain(b)
    }

    /// Coarse operation class (for Fig. 15 and functional-unit routing).
    pub fn class(&self) -> OpClass {
        match *self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => op.class(),
            Inst::Li { .. } | Inst::SpAddi { .. } => OpClass::IntAlu,
            Inst::Load { .. } => OpClass::Load,
            Inst::Store { .. } => OpClass::Store,
            Inst::Branch { .. } => OpClass::CondBr,
            Inst::Jump { .. } => OpClass::Jump,
            // `jr` is a return in every calling convention.
            Inst::Call { .. } | Inst::CallReg { .. } | Inst::JumpReg { .. } => OpClass::CallRet,
            Inst::Mv { .. } => OpClass::Move,
            Inst::Nop => OpClass::Nop,
            Inst::Halt { .. } => OpClass::Other,
        }
    }

    /// The target of a branch, jump or call.
    pub fn target(&self) -> Option<u32> {
        match *self {
            Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// The first source operand the ISA cannot encode, if any.
    pub fn invalid_src(&self) -> Option<O::Src> {
        self.srcs().into_iter().find(|&s| !O::is_valid(s))
    }
}

/// A validation problem found in a [`Program`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A branch, jump or call target does not name an instruction.
    BadTarget {
        /// Instruction index containing the bad target.
        at: u32,
        /// The out-of-range target.
        target: u32,
    },
    /// A source operand the ISA does not have.
    BadSrc {
        /// Instruction index.
        at: u32,
        /// The operand, as assembly text.
        src: String,
    },
    /// A destination the ISA does not have.
    BadDst {
        /// Instruction index.
        at: u32,
        /// The destination, as its debug form.
        dst: String,
    },
    /// The program is empty.
    Empty,
}

impl Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::BadTarget { at, target } => {
                write!(f, "instruction {at}: target {target} out of range")
            }
            ProgramError::BadSrc { at, src } => {
                write!(f, "instruction {at}: source operand {src} out of range")
            }
            ProgramError::BadDst { at, dst } => {
                write!(f, "instruction {at}: destination {dst} out of range")
            }
            ProgramError::Empty => f.write_str("program has no instructions"),
        }
    }
}

impl std::error::Error for ProgramError {}

/// A complete program: code, symbolic labels, and the initial data
/// image loaded into memory before execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Program<I> {
    /// Instructions, in layout order.
    pub insts: Vec<I>,
    /// Entry point (instruction index).
    pub entry: u32,
    /// Label name → instruction index (debugging/disassembly aid). A
    /// label may name the end of the program, though no target may.
    pub labels: BTreeMap<String, u32>,
    /// Initial data segments: (base address, bytes).
    pub data: Vec<(u64, Vec<u8>)>,
}

impl<I> Default for Program<I> {
    fn default() -> Self {
        Program {
            insts: Vec::new(),
            entry: 0,
            labels: BTreeMap::new(),
            data: Vec::new(),
        }
    }
}

impl<I> Program<I> {
    /// Creates an empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The PC value of the instruction at `index`.
    pub fn pc_of(&self, index: u32) -> u64 {
        TEXT_BASE + 4 * index as u64
    }
}

impl<O: Operands> Program<Inst<O>> {
    /// Checks every operand against the ISA's range rule and every
    /// target against the target rule `target < len`.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found, if any.
    pub fn validate(&self) -> Result<(), ProgramError> {
        if self.insts.is_empty() {
            return Err(ProgramError::Empty);
        }
        let n = self.insts.len() as u32;
        for (at, inst) in (0..).zip(&self.insts) {
            if let Some(src) = inst.invalid_src() {
                let src = src.to_string();
                return Err(ProgramError::BadSrc { at, src });
            }
            if let Some(dst) = inst.dst().filter(|&d| !O::is_valid_dst(d)) {
                let dst = format!("{dst:?}");
                return Err(ProgramError::BadDst { at, dst });
            }
            if let Some(target) = inst.target().filter(|&t| t >= n) {
                return Err(ProgramError::BadTarget { at, target });
            }
        }
        Ok(())
    }
}
