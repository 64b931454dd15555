//! Mnemonic-level operation semantics shared by all three ISAs.
//!
//! Fig. 5 of the paper shows that RISC-V, STRAIGHT, and Clockhands share
//! `opcode`/`funct` fields and differ **only** in how register operands are
//! specified. We mirror that: the computational semantics live here once,
//! and each ISA crate wraps them with its own operand representation.
//!
//! Values are untyped 64-bit words; floating-point operations bit-cast
//! to/from `f64` (RV64G keeps FP in separate registers, but STRAIGHT and
//! Clockhands use a unified 64-bit file, so a unified value model is the
//! common denominator).
//!
//! The interpreter driver lives here once as well: each ISA's
//! interpreter implements [`Machine`] (one `step` plus its halted
//! state, committed count and memory), and the trait's provided
//! [`Machine::run`], [`Machine::trace`] and [`Machine::records`] are the
//! only run loops, all applying the one limit rule.

use crate::inst::DynInst;
use crate::mem::Memory;
use crate::op::OpClass;

/// Two-source (or source+immediate) computational operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// 64-bit add.
    Add,
    /// 64-bit subtract.
    Sub,
    /// Shift left logical (amount masked to 6 bits).
    Sll,
    /// Set if signed less-than.
    Slt,
    /// Set if unsigned less-than.
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Shift right logical.
    Srl,
    /// Shift right arithmetic.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
    /// 32-bit add, sign-extended (RV64 `addw`).
    Addw,
    /// 32-bit subtract, sign-extended.
    Subw,
    /// 32-bit shift left, sign-extended.
    Sllw,
    /// 32-bit logical right shift, sign-extended.
    Srlw,
    /// 32-bit arithmetic right shift, sign-extended.
    Sraw,
    /// 64-bit multiply (low half).
    Mul,
    /// Signed divide (RISC-V semantics: x/0 = -1, overflow wraps).
    Div,
    /// Unsigned divide (x/0 = all ones).
    Divu,
    /// Signed remainder (x%0 = x).
    Rem,
    /// Unsigned remainder (x%0 = x).
    Remu,
    /// 32-bit multiply, sign-extended.
    Mulw,
    /// 32-bit signed divide, sign-extended.
    Divw,
    /// 32-bit signed remainder, sign-extended.
    Remw,
    /// Double-precision add (operands bit-cast to `f64`).
    Fadd,
    /// Double-precision subtract.
    Fsub,
    /// Double-precision multiply.
    Fmul,
    /// Double-precision divide.
    Fdiv,
    /// Double-precision minimum.
    Fmin,
    /// Double-precision maximum.
    Fmax,
    /// Set if FP equal.
    Feq,
    /// Set if FP less-than.
    Flt,
    /// Set if FP less-or-equal.
    Fle,
    /// Convert signed integer (first operand) to double.
    Fcvtdl,
    /// Convert double (first operand) to signed integer, truncating.
    Fcvtld,
    /// Move raw integer bits (first operand) into a floating-point value
    /// (RV64D `fmv.d.x`); the identity on the unified register files.
    Fmvdx,
}

impl AluOp {
    /// The [`OpClass`] this operation belongs to (FU routing + Fig. 15).
    pub fn class(self) -> OpClass {
        use AluOp::*;
        match self {
            Mul | Mulw => OpClass::IntMul,
            Div | Divu | Rem | Remu | Divw | Remw => OpClass::IntDiv,
            Fadd | Fsub | Fmul | Fmin | Fmax | Feq | Flt | Fle | Fcvtdl | Fcvtld | Fmvdx => {
                OpClass::Fp
            }
            Fdiv => OpClass::FpDiv,
            _ => OpClass::IntAlu,
        }
    }

    /// Whether the operation interprets its operands as floating point.
    pub fn is_fp(self) -> bool {
        matches!(self.class(), OpClass::Fp | OpClass::FpDiv)
    }

    /// Evaluates the operation on two 64-bit operands.
    pub fn eval(self, a: u64, b: u64) -> u64 {
        use AluOp::*;
        let fa = f64::from_bits(a);
        let fb = f64::from_bits(b);
        match self {
            Add => a.wrapping_add(b),
            Sub => a.wrapping_sub(b),
            Sll => a << (b & 63),
            Slt => ((a as i64) < (b as i64)) as u64,
            Sltu => (a < b) as u64,
            Xor => a ^ b,
            Srl => a >> (b & 63),
            Sra => ((a as i64) >> (b & 63)) as u64,
            Or => a | b,
            And => a & b,
            Addw => (a as i32).wrapping_add(b as i32) as i64 as u64,
            Subw => (a as i32).wrapping_sub(b as i32) as i64 as u64,
            Sllw => ((a as i32) << (b & 31)) as i64 as u64,
            Srlw => (((a as u32) >> (b & 31)) as i32) as i64 as u64,
            Sraw => ((a as i32) >> (b & 31)) as i64 as u64,
            Mul => a.wrapping_mul(b),
            Div => {
                let (x, y) = (a as i64, b as i64);
                if y == 0 {
                    u64::MAX
                } else {
                    x.wrapping_div(y) as u64
                }
            }
            Divu => a.checked_div(b).unwrap_or(u64::MAX),
            Rem => {
                let (x, y) = (a as i64, b as i64);
                if y == 0 {
                    a
                } else {
                    x.wrapping_rem(y) as u64
                }
            }
            Remu => a.checked_rem(b).unwrap_or(a),
            Mulw => (a as i32).wrapping_mul(b as i32) as i64 as u64,
            Divw => {
                let (x, y) = (a as i32, b as i32);
                if y == 0 {
                    u64::MAX
                } else {
                    x.wrapping_div(y) as i64 as u64
                }
            }
            Remw => {
                let (x, y) = (a as i32, b as i32);
                if y == 0 {
                    x as i64 as u64
                } else {
                    x.wrapping_rem(y) as i64 as u64
                }
            }
            Fadd => (fa + fb).to_bits(),
            Fsub => (fa - fb).to_bits(),
            Fmul => (fa * fb).to_bits(),
            Fdiv => (fa / fb).to_bits(),
            Fmin => fa.min(fb).to_bits(),
            Fmax => fa.max(fb).to_bits(),
            Feq => (fa == fb) as u64,
            Flt => (fa < fb) as u64,
            Fle => (fa <= fb) as u64,
            Fcvtdl => ((a as i64) as f64).to_bits(),
            Fcvtld => {
                if fa.is_nan() {
                    0
                } else {
                    (fa as i64) as u64
                }
            }
            Fmvdx => a,
        }
    }

    /// Assembler mnemonic (lower-case).
    pub fn mnemonic(self) -> &'static str {
        use AluOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            Sll => "sll",
            Slt => "slt",
            Sltu => "sltu",
            Xor => "xor",
            Srl => "srl",
            Sra => "sra",
            Or => "or",
            And => "and",
            Addw => "addw",
            Subw => "subw",
            Sllw => "sllw",
            Srlw => "srlw",
            Sraw => "sraw",
            Mul => "mul",
            Div => "div",
            Divu => "divu",
            Rem => "rem",
            Remu => "remu",
            Mulw => "mulw",
            Divw => "divw",
            Remw => "remw",
            Fadd => "fadd",
            Fsub => "fsub",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Fmin => "fmin",
            Fmax => "fmax",
            Feq => "feq",
            Flt => "flt",
            Fle => "fle",
            Fcvtdl => "fcvt.d.l",
            Fcvtld => "fcvt.l.d",
            Fmvdx => "fmv.d.x",
        }
    }
}

/// Memory access width and extension for loads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load byte, sign-extend.
    Lb,
    /// Load half, sign-extend.
    Lh,
    /// Load word, sign-extend.
    Lw,
    /// Load double.
    Ld,
    /// Load byte, zero-extend.
    Lbu,
    /// Load half, zero-extend.
    Lhu,
    /// Load word, zero-extend.
    Lwu,
}

impl LoadOp {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }

    /// Applies sign/zero extension to a raw little-endian value.
    pub fn extend(self, raw: u64) -> u64 {
        match self {
            LoadOp::Lb => raw as u8 as i8 as i64 as u64,
            LoadOp::Lh => raw as u16 as i16 as i64 as u64,
            LoadOp::Lw => raw as u32 as i32 as i64 as u64,
            LoadOp::Ld | LoadOp::Lbu | LoadOp::Lhu | LoadOp::Lwu => raw,
        }
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            LoadOp::Lb => "lb",
            LoadOp::Lh => "lh",
            LoadOp::Lw => "lw",
            LoadOp::Ld => "ld",
            LoadOp::Lbu => "lbu",
            LoadOp::Lhu => "lhu",
            LoadOp::Lwu => "lwu",
        }
    }
}

/// Memory access width for stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte.
    Sb,
    /// Store half.
    Sh,
    /// Store word.
    Sw,
    /// Store double.
    Sd,
}

impl StoreOp {
    /// Access size in bytes.
    pub fn size(self) -> u8 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            StoreOp::Sb => "sb",
            StoreOp::Sh => "sh",
            StoreOp::Sw => "sw",
            StoreOp::Sd => "sd",
        }
    }
}

/// Conditional-branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl BrCond {
    /// Evaluates the condition on two operands.
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::Lt => (a as i64) < (b as i64),
            BrCond::Ge => (a as i64) >= (b as i64),
            BrCond::Ltu => a < b,
            BrCond::Geu => a >= b,
        }
    }

    /// The logically negated condition.
    pub fn negate(self) -> BrCond {
        match self {
            BrCond::Eq => BrCond::Ne,
            BrCond::Ne => BrCond::Eq,
            BrCond::Lt => BrCond::Ge,
            BrCond::Ge => BrCond::Lt,
            BrCond::Ltu => BrCond::Geu,
            BrCond::Geu => BrCond::Ltu,
        }
    }

    /// Assembler mnemonic suffix (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BrCond::Eq => "beq",
            BrCond::Ne => "bne",
            BrCond::Lt => "blt",
            BrCond::Ge => "bge",
            BrCond::Ltu => "bltu",
            BrCond::Geu => "bgeu",
        }
    }
}

/// The source operands of one instruction: at most two, in operand
/// order, held inline so that asking for them never allocates (the
/// interpreters do so once per executed instruction).
///
/// Each ISA supplies its own operand type `T`; unused slots hold
/// `T::default()` (every ISA's zero register) and are never exposed.
/// Derefs to the slice of used slots.
///
/// # Examples
///
/// ```
/// use ch_common::exec::Srcs;
///
/// let s = Srcs::two(3u8, 4);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.into_iter().collect::<Vec<_>>(), [3, 4]);
/// assert_eq!(&*Srcs::one(7u8), &[7]);
/// assert!(Srcs::<u8>::none().is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Srcs<T> {
    slots: [T; 2],
    len: u8,
}

impl<T: Copy + Default> Srcs<T> {
    /// No source operands.
    pub fn none() -> Self {
        Srcs {
            slots: [T::default(); 2],
            len: 0,
        }
    }

    /// One source operand.
    pub fn one(a: T) -> Self {
        Srcs {
            slots: [a, T::default()],
            len: 1,
        }
    }

    /// Two source operands, in operand order.
    pub fn two(a: T, b: T) -> Self {
        Srcs {
            slots: [a, b],
            len: 2,
        }
    }
}

impl<T> std::ops::Deref for Srcs<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.slots[..usize::from(self.len)]
    }
}

impl<T> IntoIterator for Srcs<T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().take(usize::from(self.len))
    }
}

impl<'a, T> IntoIterator for &'a Srcs<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Outcome of a run that halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Value of the `halt` source operand.
    pub exit_value: u64,
    /// Instructions committed (the halt itself is not counted).
    pub committed: u64,
}

/// A functional interpreter: ISA semantics behind one `step`, driven by
/// the provided run loops.
///
/// The loops are generic, so each interpreter gets its own statically
/// dispatched copy; nothing is called through a `dyn` per step.
pub trait Machine {
    /// The interpreter's runtime error.
    type Error;

    /// The error the loops report when the step budget is spent before
    /// the machine halts.
    const LIMIT_REACHED: Self::Error;

    /// Executes one instruction: `Ok(Some(rec))` for a committed
    /// instruction, `Ok(None)` once halted (the halt emits no record).
    ///
    /// # Errors
    ///
    /// The interpreter's fault for the instruction at the current PC.
    fn step(&mut self) -> Result<Option<DynInst>, Self::Error>;

    /// The exit value, once the program has halted.
    fn exit_value(&self) -> Option<u64>;

    /// Instructions committed so far.
    fn committed(&self) -> u64;

    /// The machine's memory.
    fn mem(&self) -> &Memory;

    /// Gives up the machine for its memory.
    fn into_mem(self) -> Memory
    where
        Self: Sized;

    /// Runs to a halt within `limit` steps, discarding the records.
    ///
    /// # Errors
    ///
    /// [`Machine::LIMIT_REACHED`] if the machine has not halted once
    /// the budget is spent, or any error [`Machine::step`] raises.
    fn run(&mut self, limit: u64) -> Result<RunResult, Self::Error> {
        for _ in 0..limit {
            if self.step()?.is_none() {
                break;
            }
        }
        halted(self)
    }

    /// As [`Machine::run`], collecting the committed records.
    ///
    /// # Errors
    ///
    /// As for [`Machine::run`].
    fn trace(&mut self, limit: u64) -> Result<(Vec<DynInst>, RunResult), Self::Error> {
        let mut out = Vec::new();
        for _ in 0..limit {
            match self.step()? {
                Some(rec) => out.push(rec),
                None => break,
            }
        }
        Ok((out, halted(self)?))
    }

    /// Streams the committed records until the machine halts or errs;
    /// the error is kept on the stream ([`Records::error`]).
    fn records(&mut self) -> Records<'_, Self>
    where
        Self: Sized,
    {
        Records {
            machine: self,
            error: None,
        }
    }
}

/// The limit rule: once the step budget is spent, the outcome depends
/// only on whether the machine has halted, not on which loop exit was
/// taken. A halted machine reports its result even for a zero budget.
fn halted<M: Machine + ?Sized>(m: &M) -> Result<RunResult, M::Error> {
    match m.exit_value() {
        Some(exit_value) => Ok(RunResult {
            exit_value,
            committed: m.committed(),
        }),
        None => Err(M::LIMIT_REACHED),
    }
}

/// The record stream of [`Machine::records`].
#[derive(Debug)]
pub struct Records<'a, M: Machine> {
    machine: &'a mut M,
    error: Option<M::Error>,
}

impl<M: Machine> Records<'_, M> {
    /// The error that ended the stream, if any.
    pub fn error(&self) -> Option<&M::Error> {
        self.error.as_ref()
    }
}

impl<M: Machine> Iterator for Records<'_, M> {
    type Item = DynInst;

    fn next(&mut self) -> Option<DynInst> {
        if self.error.is_some() {
            return None;
        }
        match self.machine.step() {
            Ok(rec) => rec,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// The shared arithmetic-edge-case conformance table.
///
/// Every entry pins the documented RV64G-subset behaviour for an input
/// the hardware folklore gets wrong: division/remainder by zero,
/// `i64::MIN / -1` (and the 32-bit analogue), and shift amounts at or
/// past the operand width. [`AluOp::eval`] is the single implementation
/// all three interpreters call, and `ch-fuzz` additionally replays this
/// table through each interpreter's front door (assembled `li`/ALU
/// snippets), so none of the three can drift from these rows without a
/// test failing.
pub mod conformance {
    use super::AluOp;

    /// One pinned edge case: `op.eval(a, b)` must equal `expect`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Case {
        /// Operation under test.
        pub op: AluOp,
        /// First operand.
        pub a: u64,
        /// Second operand.
        pub b: u64,
        /// Required result.
        pub expect: u64,
        /// Why this row exists.
        pub why: &'static str,
    }

    const NEG1: u64 = u64::MAX;
    const I64_MIN: u64 = i64::MIN as u64;
    const I32_MIN_SX: u64 = i32::MIN as i64 as u64;

    /// The canonical table (RV64G M-extension + shift semantics).
    pub const TABLE: &[Case] = &[
        // --- division by zero: quotient is all ones, remainder is the dividend ---
        Case {
            op: AluOp::Div,
            a: 42,
            b: 0,
            expect: NEG1,
            why: "div by zero -> -1",
        },
        Case {
            op: AluOp::Div,
            a: NEG1,
            b: 0,
            expect: NEG1,
            why: "-1 div 0 -> -1",
        },
        Case {
            op: AluOp::Divu,
            a: 42,
            b: 0,
            expect: u64::MAX,
            why: "divu by zero -> 2^64-1",
        },
        Case {
            op: AluOp::Rem,
            a: 42,
            b: 0,
            expect: 42,
            why: "rem by zero -> dividend",
        },
        Case {
            op: AluOp::Rem,
            a: I64_MIN,
            b: 0,
            expect: I64_MIN,
            why: "rem by zero keeps sign",
        },
        Case {
            op: AluOp::Remu,
            a: 42,
            b: 0,
            expect: 42,
            why: "remu by zero -> dividend",
        },
        Case {
            op: AluOp::Divw,
            a: 7,
            b: 0,
            expect: NEG1,
            why: "divw by zero -> -1 (sign-extended)",
        },
        Case {
            op: AluOp::Remw,
            a: 0x8000_0007,
            b: 0,
            expect: 0xffff_ffff_8000_0007,
            why: "remw by zero -> sign-extended 32-bit dividend",
        },
        // --- signed overflow: MIN / -1 wraps to MIN, remainder is zero ---
        Case {
            op: AluOp::Div,
            a: I64_MIN,
            b: NEG1,
            expect: I64_MIN,
            why: "i64::MIN / -1 wraps",
        },
        Case {
            op: AluOp::Rem,
            a: I64_MIN,
            b: NEG1,
            expect: 0,
            why: "i64::MIN % -1 == 0",
        },
        Case {
            op: AluOp::Divw,
            a: I32_MIN_SX,
            b: NEG1,
            expect: I32_MIN_SX,
            why: "i32::MIN / -1 wraps (sign-extended)",
        },
        Case {
            op: AluOp::Remw,
            a: I32_MIN_SX,
            b: NEG1,
            expect: 0,
            why: "i32::MIN % -1 == 0",
        },
        // --- shift amounts are masked, not saturated: 64-bit ops use b & 63 ---
        Case {
            op: AluOp::Sll,
            a: 1,
            b: 64,
            expect: 1,
            why: "sll by 64 == sll by 0",
        },
        Case {
            op: AluOp::Sll,
            a: 1,
            b: 65,
            expect: 2,
            why: "sll by 65 == sll by 1",
        },
        Case {
            op: AluOp::Sll,
            a: 1,
            b: 63,
            expect: 1 << 63,
            why: "sll by 63 reaches the top bit",
        },
        Case {
            op: AluOp::Srl,
            a: I64_MIN,
            b: 64,
            expect: I64_MIN,
            why: "srl by 64 == srl by 0",
        },
        Case {
            op: AluOp::Srl,
            a: I64_MIN,
            b: 63,
            expect: 1,
            why: "srl by 63",
        },
        Case {
            op: AluOp::Sra,
            a: I64_MIN,
            b: 64,
            expect: I64_MIN,
            why: "sra by 64 == sra by 0",
        },
        Case {
            op: AluOp::Sra,
            a: I64_MIN,
            b: 63,
            expect: NEG1,
            why: "sra by 63 smears the sign",
        },
        // --- 32-bit shifts mask to b & 31 and sign-extend the 32-bit result ---
        Case {
            op: AluOp::Sllw,
            a: 1,
            b: 32,
            expect: 1,
            why: "sllw by 32 == sllw by 0",
        },
        Case {
            op: AluOp::Sllw,
            a: 1,
            b: 31,
            expect: I32_MIN_SX,
            why: "sllw by 31 sets bit 31, sign-extends",
        },
        Case {
            op: AluOp::Srlw,
            a: 0x8000_0000,
            b: 31,
            expect: 1,
            why: "srlw by 31",
        },
        Case {
            op: AluOp::Srlw,
            a: 0x8000_0000,
            b: 32,
            expect: I32_MIN_SX,
            why: "srlw by 32 == srlw by 0 (then sign-extend)",
        },
        Case {
            op: AluOp::Sraw,
            a: 0x8000_0000,
            b: 31,
            expect: NEG1,
            why: "sraw by 31 smears the 32-bit sign",
        },
    ];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformance_table_matches_eval() {
        for case in conformance::TABLE {
            assert_eq!(
                case.op.eval(case.a, case.b),
                case.expect,
                "{:?}({:#x}, {:#x}): {}",
                case.op,
                case.a,
                case.b,
                case.why
            );
        }
    }

    #[test]
    fn integer_arithmetic() {
        assert_eq!(AluOp::Add.eval(3, u64::MAX), 2);
        assert_eq!(AluOp::Sub.eval(3, 5), (-2i64) as u64);
        assert_eq!(AluOp::Slt.eval((-1i64) as u64, 0), 1);
        assert_eq!(AluOp::Sltu.eval((-1i64) as u64, 0), 0);
        assert_eq!(AluOp::Sra.eval((-8i64) as u64, 2), (-2i64) as u64);
        assert_eq!(AluOp::Srl.eval(8, 2), 2);
    }

    #[test]
    fn word_ops_sign_extend() {
        assert_eq!(AluOp::Addw.eval(0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(AluOp::Subw.eval(0, 1), u64::MAX);
        assert_eq!(AluOp::Sraw.eval(0x8000_0000, 4), 0xffff_ffff_f800_0000);
    }

    #[test]
    fn riscv_division_by_zero_semantics() {
        assert_eq!(AluOp::Div.eval(42, 0), u64::MAX);
        assert_eq!(AluOp::Divu.eval(42, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(42, 0), 42);
        assert_eq!(AluOp::Remu.eval(42, 0), 42);
        assert_eq!(
            AluOp::Div.eval((i64::MIN) as u64, (-1i64) as u64),
            i64::MIN as u64
        );
    }

    #[test]
    fn fp_ops_roundtrip_through_bits() {
        let a = 1.5f64.to_bits();
        let b = 2.25f64.to_bits();
        assert_eq!(f64::from_bits(AluOp::Fadd.eval(a, b)), 3.75);
        assert_eq!(f64::from_bits(AluOp::Fmul.eval(a, b)), 3.375);
        assert_eq!(AluOp::Flt.eval(a, b), 1);
        assert_eq!(AluOp::Fle.eval(b, a), 0);
        assert_eq!(AluOp::Fcvtld.eval((-3.7f64).to_bits(), 0), (-3i64) as u64);
        assert_eq!(f64::from_bits(AluOp::Fcvtdl.eval((-3i64) as u64, 0)), -3.0);
    }

    #[test]
    fn fp_classification() {
        assert_eq!(AluOp::Fdiv.class(), OpClass::FpDiv);
        assert_eq!(AluOp::Fadd.class(), OpClass::Fp);
        assert_eq!(AluOp::Mul.class(), OpClass::IntMul);
        assert_eq!(AluOp::Div.class(), OpClass::IntDiv);
        assert_eq!(AluOp::Add.class(), OpClass::IntAlu);
        assert!(AluOp::Feq.is_fp());
        assert!(!AluOp::Xor.is_fp());
    }

    #[test]
    fn load_extension() {
        assert_eq!(LoadOp::Lb.extend(0x80), 0xffff_ffff_ffff_ff80);
        assert_eq!(LoadOp::Lbu.extend(0x80), 0x80);
        assert_eq!(LoadOp::Lw.extend(0x8000_0000), 0xffff_ffff_8000_0000);
        assert_eq!(LoadOp::Lwu.extend(0x8000_0000), 0x8000_0000);
        assert_eq!(LoadOp::Ld.size(), 8);
        assert_eq!(LoadOp::Lh.size(), 2);
    }

    #[test]
    fn branch_conditions() {
        assert!(BrCond::Eq.eval(5, 5));
        assert!(BrCond::Ne.eval(5, 6));
        assert!(BrCond::Lt.eval((-1i64) as u64, 0));
        assert!(!BrCond::Ltu.eval((-1i64) as u64, 0));
        assert!(BrCond::Geu.eval((-1i64) as u64, 0));
        for c in [
            BrCond::Eq,
            BrCond::Ne,
            BrCond::Lt,
            BrCond::Ge,
            BrCond::Ltu,
            BrCond::Geu,
        ] {
            // negation is an involution and flips the outcome
            assert_eq!(c.negate().negate(), c);
            assert_ne!(c.eval(1, 2), c.negate().eval(1, 2));
        }
    }
}
