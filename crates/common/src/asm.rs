//! The assembler front end shared by the three ISAs.
//!
//! The paper writes RISC-V, STRAIGHT and Clockhands code in one listing
//! syntax (Fig. 1(c)/(d), Fig. 6), and the three ISAs share every op
//! (Fig. 5): only the operands differ. This module owns everything but
//! the operands:
//!
//! ```text
//! # `#` starts a comment that runs to the end of the line
//! .data 0x2000 5 -6 0x10     # data segment: base address, then 64-bit words
//! main: .loop:               # one or more labels, optionally followed by an instruction
//!     addi  t, t[1], 4       # mnemonic, then comma-separated operands
//!     ld    t, -8(s[0])      # a memory operand is `off(base)`; `(base)` means offset 0
//!     bne   t[0], zero, .loop
//!     j     @3               # a target is a label or `@N`, instruction index N
//! ```
//!
//! * A label is the text before a `:` if it contains no whitespace and
//!   no `[`; a line may carry several.
//! * Immediates are decimal, `0x` hex or `-0x` hex, and must fit the
//!   field they fill.
//! * A branch target is a label (looked up first) or `@N` with `N`
//!   below the instruction count. [`disassemble`] prints `@N` for a
//!   target no label names, so a disassembly always reassembles.
//! * The op mnemonics are the op enums' own ([`AluOp::mnemonic`],
//!   [`AluOp::imm_mnemonic`], [`LoadOp::mnemonic`], ...).
//!
//! It also maps each shape of [`Inst`] to its mnemonic and operand
//! order, both ways. An ISA implements [`Syntax`] on its [`Operands`]:
//! how a source and a destination are spelled, and its few spellings of
//! its own. [`assemble`] and [`disassemble`] do the rest.
//!
//! An ISA whose destination is implicit ([`Operands::IMPLICIT_DST`],
//! STRAIGHT) spells no `dst` operand, and a variant the ISA lacks has no
//! mnemonic.

use crate::exec::{AluOp, BrCond, LoadOp, StoreOp};
use crate::isa::{Inst, Operands, Program};
use std::collections::BTreeMap;
use std::fmt;

use crate::error::AsmError;

/// One ISA's operand syntax.
pub trait Syntax: Operands {
    /// How [`Inst::JumpReg`] prints (either spelling assembles).
    const JUMP_REG: &'static str = "jr";

    /// Parses a source operand.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] for an operand the ISA cannot name.
    fn parse_src(line: &Line<'_>, tok: &str) -> Result<Self::Src, AsmError>;

    /// Parses a destination operand; only asked where the ISA spells
    /// one ([`Operands::IMPLICIT_DST`] is `None`).
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] for a destination the ISA cannot name.
    fn parse_dst(line: &Line<'_>, tok: &str) -> Result<Self::Dst, AsmError>;

    /// Prints a destination; only asked where the ISA spells one.
    ///
    /// # Errors
    ///
    /// Fails only if the formatter does.
    fn fmt_dst(dst: Self::Dst, f: &mut fmt::Formatter<'_>) -> fmt::Result;

    /// The shared mnemonic an ISA-only alias stands for, if `m` is one.
    fn alias(_m: &str) -> Option<Mnemonic<'static>> {
        None
    }
}

/// A mnemonic, classified by the shared op tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mnemonic<'a> {
    /// A register-register ALU op (`add`, `fmul`, ...).
    Alu(AluOp),
    /// A register-immediate ALU op (`addi`, ...). Prints as the
    /// register mnemonic for an op with no immediate form, which only
    /// decoded bytes can hold and no assembler accepts.
    AluImm(AluOp),
    /// A load (`lb` ... `lwu`).
    Load(LoadOp),
    /// A store (`sb` ... `sd`).
    Store(StoreOp),
    /// A conditional branch (`beq` ... `bgeu`).
    Branch(BrCond),
    /// Any other mnemonic (`li`, `mv`, `j`, ...).
    Other(&'a str),
}

impl<'a> Mnemonic<'a> {
    /// Classifies mnemonic text.
    pub fn classify(m: &'a str) -> Self {
        if let Some(op) = AluOp::from_mnemonic(m) {
            Mnemonic::Alu(op)
        } else if let Some(op) = AluOp::from_imm_mnemonic(m) {
            Mnemonic::AluImm(op)
        } else if let Some(op) = LoadOp::from_mnemonic(m) {
            Mnemonic::Load(op)
        } else if let Some(op) = StoreOp::from_mnemonic(m) {
            Mnemonic::Store(op)
        } else if let Some(c) = BrCond::from_mnemonic(m) {
            Mnemonic::Branch(c)
        } else {
            Mnemonic::Other(m)
        }
    }
}

impl fmt::Display for Mnemonic<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match *self {
            Mnemonic::Alu(op) => op.mnemonic(),
            Mnemonic::AluImm(op) => op.imm_mnemonic().unwrap_or(op.mnemonic()),
            Mnemonic::Load(op) => op.mnemonic(),
            Mnemonic::Store(op) => op.mnemonic(),
            Mnemonic::Branch(c) => c.mnemonic(),
            Mnemonic::Other(m) => m,
        })
    }
}

/// One instruction line: its number, mnemonic and operands, plus the
/// program's labels for resolving targets.
pub struct Line<'a> {
    number: usize,
    mnemonic: &'a str,
    operands: Vec<&'a str>,
    labels: &'a BTreeMap<String, u32>,
    len: usize,
}

impl<'a> Line<'a> {
    /// An error on this line.
    pub fn error(&self, message: impl Into<String>) -> AsmError {
        AsmError::new(self.number, message)
    }

    /// Fails with ``unknown mnemonic `mnem` ``.
    fn unknown<T>(&self) -> Result<T, AsmError> {
        Err(self.error(format!("unknown mnemonic `{}`", self.mnemonic)))
    }

    /// The operands, which must number exactly `N` (else
    /// `` `mnem` expects N operands, got M ``).
    fn operands<const N: usize>(&self) -> Result<[&'a str; N], AsmError> {
        self.operands
            .as_slice()
            .try_into()
            .map_err(|_| self.count_error(N))
    }

    /// The destination operand, where `O` spells one, and the `N`
    /// operands after it.
    fn dst_operands<O: Syntax, const N: usize>(
        &self,
    ) -> Result<(Option<&'a str>, [&'a str; N]), AsmError> {
        let spelled = usize::from(O::IMPLICIT_DST.is_none());
        if self.operands.len() != N + spelled {
            return Err(self.count_error(N + spelled));
        }
        let (dst, rest) = self.operands.split_at(spelled);
        Ok((
            dst.first().copied(),
            rest.try_into().expect("length checked"),
        ))
    }

    fn count_error(&self, n: usize) -> AsmError {
        self.error(format!(
            "`{}` expects {n} operands, got {}",
            self.mnemonic,
            self.operands.len()
        ))
    }

    /// Parses an immediate that must fit `T` (else ``bad immediate `tok` ``).
    fn imm<T: TryFrom<i64>>(&self, tok: &str) -> Result<T, AsmError> {
        parse_imm(tok).ok_or_else(|| self.error(format!("bad immediate `{tok}`")))
    }

    /// Parses an `off(base)` memory operand, the base with `base`.
    fn mem<B>(
        &self,
        tok: &str,
        base: impl FnOnce(&str) -> Result<B, AsmError>,
    ) -> Result<(i32, B), AsmError> {
        let Some((off, inner)) = tok
            .split_once('(')
            .and_then(|(off, rest)| rest.strip_suffix(')').map(|inner| (off, inner)))
        else {
            return Err(self.error(format!("expected off(base), got `{tok}`")));
        };
        let off = if off.is_empty() { 0 } else { self.imm(off)? };
        Ok((off, base(inner)?))
    }

    /// Resolves a branch target: a label, or `@N` naming instruction `N`
    /// (else ``undefined label `tok` ``). A target must name an
    /// instruction (the target rule of [`Program::validate`]): a label
    /// after the last instruction may exist but is not a target.
    fn target(&self, tok: &str) -> Result<u32, AsmError> {
        let t = match self.labels.get(tok) {
            Some(&t) => t,
            None => match tok.strip_prefix('@').map(str::parse::<u32>) {
                Some(Ok(t)) => t,
                _ => return Err(self.error(format!("undefined label `{tok}`"))),
            },
        };
        if (t as usize) < self.len {
            Ok(t)
        } else {
            Err(self.error(format!(
                "target `{tok}` is past the end ({} instructions)",
                self.len
            )))
        }
    }

    /// The segment a `.data <addr> <u64>...` line seeds, from its
    /// whitespace-separated operands.
    fn data(&self, operands: &str) -> Result<(u64, Vec<u8>), AsmError> {
        let mut toks = operands.split_whitespace();
        let addr = toks
            .next()
            .ok_or_else(|| self.error(".data needs an address"))?;
        let addr = self.imm::<i64>(addr)? as u64;
        let mut bytes = Vec::new();
        for t in toks {
            bytes.extend_from_slice(&self.imm::<i64>(t)?.to_le_bytes());
        }
        Ok((addr, bytes))
    }
}

/// Parses a decimal, `0x` or `-0x` immediate that fits `T`.
fn parse_imm<T: TryFrom<i64>>(tok: &str) -> Option<T> {
    let v = if let Some(hex) = tok.strip_prefix("0x") {
        i64::from_str_radix(hex, 16).ok()
    } else if let Some(hex) = tok.strip_prefix("-0x") {
        i64::from_str_radix(hex, 16).ok().map(|v| -v)
    } else {
        tok.parse::<i64>().ok()
    };
    T::try_from(v?).ok()
}

/// Splits leading labels off a comment-stripped, trimmed line.
fn peel_labels(mut text: &str) -> (Vec<&str>, &str) {
    let mut labels = Vec::new();
    while let Some((label, rest)) = text.split_once(':') {
        let label = label.trim();
        if label.is_empty() || label.contains(char::is_whitespace) || label.contains('[') {
            break;
        }
        labels.push(label);
        text = rest.trim();
    }
    (labels, text)
}

/// Builds the instruction `line` spells with mnemonic `m`.
fn parse<O: Syntax>(m: Mnemonic<'_>, line: &Line<'_>) -> Result<Inst<O>, AsmError> {
    let src = |tok: &str| O::parse_src(line, tok);
    // The destination token names, or the ISA's implicit one.
    let dst = |tok: Option<&str>| match (O::IMPLICIT_DST, tok) {
        (Some(dst), _) => Ok(dst),
        (None, tok) => O::parse_dst(line, tok.expect("a spelled destination")),
    };
    let m = match m {
        Mnemonic::Other(other) => O::alias(other).unwrap_or(m),
        m => m,
    };
    Ok(match m {
        Mnemonic::Alu(op) => {
            let (d, [a, b]) = line.dst_operands::<O, 2>()?;
            Inst::Alu {
                op,
                dst: dst(d)?,
                src1: src(a)?,
                src2: src(b)?,
            }
        }
        Mnemonic::AluImm(op) => {
            let (d, [a, imm]) = line.dst_operands::<O, 2>()?;
            Inst::AluImm {
                op,
                dst: dst(d)?,
                src1: src(a)?,
                imm: line.imm(imm)?,
            }
        }
        Mnemonic::Load(op) => {
            let (d, [mem]) = line.dst_operands::<O, 1>()?;
            let (offset, base) = line.mem(mem, src)?;
            Inst::Load {
                op,
                dst: dst(d)?,
                base,
                offset,
            }
        }
        Mnemonic::Store(op) => {
            let [value, mem] = line.operands()?;
            let (offset, base) = line.mem(mem, src)?;
            Inst::Store {
                op,
                value: src(value)?,
                base,
                offset,
            }
        }
        Mnemonic::Branch(cond) => {
            let [a, b, target] = line.operands()?;
            Inst::Branch {
                cond,
                src1: src(a)?,
                src2: src(b)?,
                target: line.target(target)?,
            }
        }
        Mnemonic::Other("li") => {
            let (d, [imm]) = line.dst_operands::<O, 1>()?;
            Inst::Li {
                dst: dst(d)?,
                imm: line.imm(imm)?,
            }
        }
        Mnemonic::Other("mv") => {
            let (d, [s]) = line.dst_operands::<O, 1>()?;
            Inst::Mv {
                dst: dst(d)?,
                src: src(s)?,
            }
        }
        Mnemonic::Other("j") => {
            let [target] = line.operands()?;
            Inst::Jump {
                target: line.target(target)?,
            }
        }
        Mnemonic::Other("call") => {
            let (d, [target]) = line.dst_operands::<O, 1>()?;
            Inst::Call {
                dst: dst(d)?,
                target: line.target(target)?,
            }
        }
        Mnemonic::Other("jalr") => {
            let Some(isa) = O::CALL_REG else {
                return line.unknown();
            };
            let (d, [s]) = line.dst_operands::<O, 1>()?;
            Inst::CallReg {
                dst: dst(d)?,
                src: src(s)?,
                isa,
            }
        }
        Mnemonic::Other("jr" | "ret") => {
            let [s] = line.operands()?;
            Inst::JumpReg { src: src(s)? }
        }
        Mnemonic::Other("spaddi") => {
            let Some(isa) = O::SP_ADDI else {
                return line.unknown();
            };
            let [imm] = line.operands()?;
            Inst::SpAddi {
                imm: line.imm(imm)?,
                isa,
            }
        }
        Mnemonic::Other("nop") => {
            let [] = line.operands()?;
            Inst::Nop
        }
        Mnemonic::Other("halt") => {
            let [s] = line.operands()?;
            Inst::Halt { src: src(s)? }
        }
        _ => return line.unknown(),
    })
}

/// A destination as it prints ahead of the other operands: `"t, "`, or
/// nothing where it is implicit.
struct Dst<O: Syntax>(O::Dst);

impl<O: Syntax> fmt::Display for Dst<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if O::IMPLICIT_DST.is_some() {
            return Ok(());
        }
        O::fmt_dst(self.0, f)?;
        f.write_str(", ")
    }
}

/// Prints one instruction (no indentation, no newline), naming branch
/// targets through `targets`.
fn format<O: Syntax>(inst: &Inst<O>, targets: &Targets<'_>) -> String {
    match *inst {
        Inst::Alu {
            op,
            dst,
            src1,
            src2,
        } => format!("{} {}{src1}, {src2}", op.mnemonic(), Dst::<O>(dst)),
        Inst::AluImm { op, dst, src1, imm } => {
            format!("{} {}{src1}, {imm}", Mnemonic::AluImm(op), Dst::<O>(dst))
        }
        Inst::Li { dst, imm } => format!("li {}{imm}", Dst::<O>(dst)),
        Inst::Load {
            op,
            dst,
            base,
            offset,
        } => format!("{} {}{offset}({base})", op.mnemonic(), Dst::<O>(dst)),
        Inst::Store {
            op,
            value,
            base,
            offset,
        } => format!("{} {value}, {offset}({base})", op.mnemonic()),
        Inst::Branch {
            cond,
            src1,
            src2,
            target,
        } => format!(
            "{} {src1}, {src2}, {}",
            cond.mnemonic(),
            targets.name(target)
        ),
        Inst::Jump { target } => format!("j {}", targets.name(target)),
        Inst::Call { dst, target } => format!("call {}{}", Dst::<O>(dst), targets.name(target)),
        Inst::CallReg { dst, src, .. } => format!("jalr {}{src}", Dst::<O>(dst)),
        Inst::JumpReg { src } => format!("{} {src}", O::JUMP_REG),
        Inst::SpAddi { imm, .. } => format!("spaddi {imm}"),
        Inst::Mv { dst, src } => format!("mv {}{src}", Dst::<O>(dst)),
        Inst::Nop => "nop".to_string(),
        Inst::Halt { src } => format!("halt {src}"),
    }
}

/// Assembles source text with `O`'s operand syntax into a program that
/// enters at instruction 0.
///
/// Labels are collected first, so a target may name a later label.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics or operands, and duplicate or undefined labels.
pub fn assemble<O: Syntax>(source: &str) -> Result<Program<Inst<O>>, AsmError> {
    let mut labels = BTreeMap::new();
    let mut statements = Vec::new();
    let mut len = 0;
    for (i, raw) in source.lines().enumerate() {
        let number = i + 1;
        let text = raw.split('#').next().unwrap_or_default().trim();
        let (names, text) = peel_labels(text);
        for name in names {
            if labels.insert(name.to_string(), len as u32).is_some() {
                return Err(AsmError::new(number, format!("duplicate label `{name}`")));
            }
        }
        if !text.is_empty() {
            let (mnemonic, operands) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
            len += usize::from(mnemonic != ".data");
            statements.push((number, mnemonic, operands.trim()));
        }
    }

    let mut insts = Vec::with_capacity(len);
    let mut data = Vec::new();
    for (number, mnemonic, operands) in statements {
        let line = Line {
            number,
            mnemonic,
            operands: if operands.is_empty() {
                Vec::new()
            } else {
                operands.split(',').map(str::trim).collect()
            },
            labels: &labels,
            len,
        };
        if mnemonic == ".data" {
            data.push(line.data(operands)?);
        } else {
            insts.push(parse::<O>(Mnemonic::classify(mnemonic), &line)?);
        }
    }
    Ok(Program {
        insts,
        entry: 0,
        labels,
        data,
    })
}

/// Names branch targets while disassembling: the first label (in name
/// order) at an index, or `@N`.
struct Targets<'a> {
    by_index: BTreeMap<u32, Vec<&'a str>>,
}

impl Targets<'_> {
    /// The name of instruction index `target`.
    fn name(&self, target: u32) -> String {
        match self.by_index.get(&target) {
            Some(names) => names[0].to_string(),
            None => format!("@{target}"),
        }
    }
}

/// Disassembles a program back to source text that [`assemble`] turns
/// into the same instructions, labels and data (the entry is not
/// printed).
///
/// Prints one `.data` line per segment (its bytes as 64-bit words), then
/// every instruction indented by four spaces under the labels at its
/// index. Labels at or past the end come last.
pub fn disassemble<O: Syntax>(prog: &Program<Inst<O>>) -> String {
    let Program {
        insts,
        labels,
        data,
        ..
    } = prog;
    let mut targets = Targets {
        by_index: BTreeMap::new(),
    };
    for (name, &idx) in labels {
        targets.by_index.entry(idx).or_default().push(name);
    }
    let mut out = String::new();
    for (base, bytes) in data {
        out.push_str(&format!(".data 0x{base:x}"));
        for chunk in bytes.chunks(8) {
            let mut v = [0u8; 8];
            v[..chunk.len()].copy_from_slice(chunk);
            out.push_str(&format!(" {}", i64::from_le_bytes(v)));
        }
        out.push('\n');
    }
    let label_lines = |out: &mut String, names: &[&str]| {
        for n in names {
            out.push_str(&format!("{n}:\n"));
        }
    };
    for (i, inst) in insts.iter().enumerate() {
        if let Some(names) = targets.by_index.get(&(i as u32)) {
            label_lines(&mut out, names);
        }
        out.push_str("    ");
        out.push_str(&format(inst, &targets));
        out.push('\n');
    }
    for names in targets.by_index.range(insts.len() as u32..).map(|(_, n)| n) {
        label_lines(&mut out, names);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{DstTag, NO_PRODUCER};
    use crate::interp::OperandFile;
    use crate::isa::Absent;

    /// A toy ISA: sources are plain numbers, destinations implicit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    struct Toy;

    #[derive(Debug, Clone)]
    struct NoFile;

    impl OperandFile<Toy> for NoFile {
        type Error = Absent;
        fn at_entry(_sp: u64) -> Self {
            NoFile
        }
        fn read(&self, _src: u8, _seq: u64) -> Result<u64, Absent> {
            Ok(0)
        }
        fn producer(&self, _src: u8, _seq: u64) -> Result<u64, Absent> {
            Ok(NO_PRODUCER)
        }
        fn write(&mut self, _out: Option<((), u64)>, _seq: u64) -> Option<DstTag> {
            None
        }
        fn sp_addi(&mut self, _imm: i32, isa: Absent) {
            match isa {}
        }
    }

    impl Operands for Toy {
        type Dst = ();
        type Src = u8;
        type CallReg = Absent;
        type SpAddi = Absent;
        type File = NoFile;
        const IMPLICIT_DST: Option<()> = Some(());
    }

    impl Syntax for Toy {
        fn parse_src(line: &Line<'_>, tok: &str) -> Result<u8, AsmError> {
            tok.parse()
                .map_err(|_| line.error(format!("bad base `{tok}`")))
        }
        fn parse_dst(_line: &Line<'_>, _tok: &str) -> Result<(), AsmError> {
            unreachable!("implicit destination")
        }
        fn fmt_dst(_dst: (), _f: &mut fmt::Formatter<'_>) -> fmt::Result {
            unreachable!("implicit destination")
        }
    }

    type T = Inst<Toy>;

    fn li(imm: i64) -> T {
        Inst::Li { dst: (), imm }
    }

    fn j(target: u32) -> T {
        Inst::Jump { target }
    }

    fn asm(src: &str) -> Result<Program<T>, AsmError> {
        assemble::<Toy>(src)
    }

    #[test]
    fn line_syntax() {
        let p = asm("# header\n.data 0x10 1 -0x2\na: b: li 0x10 # tail\n  j a\nc:\n j @2\n ld (7)")
            .unwrap();
        let ld = Inst::Load {
            op: LoadOp::Ld,
            dst: (),
            base: 7,
            offset: 0,
        };
        assert_eq!(p.insts, [li(16), j(0), j(2), ld]);
        assert_eq!(p.labels.len(), 3);
        assert_eq!((p.labels["a"], p.labels["b"], p.labels["c"]), (0, 0, 2));
        assert_eq!(
            p.data,
            [(
                0x10,
                [1, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff].to_vec()
            )]
        );
    }

    #[test]
    fn a_target_at_the_end_is_refused_but_an_end_label_is_kept() {
        // The target rule is `target < len`: neither `@N` nor a label
        // naming the end may be a target, though the label may exist.
        for (src, text) in [
            ("j @1", "target `@1` is past the end (1 instructions)"),
            (
                "j end\nend:",
                "target `end` is past the end (1 instructions)",
            ),
        ] {
            assert_eq!(asm(src).unwrap_err().message, text, "{src}");
        }
        let p = asm("j @0\nend:").unwrap();
        assert_eq!((p.insts, p.labels["end"]), (vec![j(0)], 1));
    }

    #[test]
    fn errors_name_the_line_and_keep_their_text() {
        for (src, line, text) in [
            ("li 1\nli 1, 2", 2, "`li` expects 1 operands, got 2"),
            ("li zz", 1, "bad immediate `zz`"),
            ("frob 1", 1, "unknown mnemonic `frob`"),
            ("a:\na: li 1", 2, "duplicate label `a`"),
            ("li 1\nj nowhere", 2, "undefined label `nowhere`"),
            ("j @2", 1, "target `@2` is past the end (1 instructions)"),
            ("j @x", 1, "undefined label `@x`"),
            ("ld 8[3]", 1, "expected off(base), got `8[3]`"),
            ("ld 8(3", 1, "expected off(base), got `8(3`"),
            (".data", 1, ".data needs an address"),
            (".data 0x10 q", 1, "bad immediate `q`"),
        ] {
            let e = asm(src).unwrap_err();
            assert_eq!((e.line, e.message.as_str()), (line, text), "{src}");
        }
    }

    #[test]
    fn labels_with_brackets_are_not_labels() {
        let e = asm("x[1]: li 1").unwrap_err();
        assert_eq!(e.message, "unknown mnemonic `x[1]:`");
    }

    #[test]
    fn a_variant_the_isa_lacks_has_no_mnemonic() {
        for m in ["jalr 1", "spaddi 8"] {
            let e = asm(m).unwrap_err();
            assert!(e.message.starts_with("unknown mnemonic"), "{m}: {e}");
        }
    }

    #[test]
    fn disassembly_reassembles() {
        let src = ".data 0x2000 5 6\nz: a:\n    li -3\n    j @0\n    j a\nend:\n";
        let p = asm(src).unwrap();
        let text = disassemble::<Toy>(&p);
        assert_eq!(
            text,
            ".data 0x2000 5 6\na:\nz:\n    li -3\n    j a\n    j a\nend:\n"
        );
        assert_eq!(asm(&text).unwrap(), p);
        let unlabelled = disassemble::<Toy>(&Program {
            insts: p.insts,
            ..Program::new()
        });
        assert_eq!(unlabelled, "    li -3\n    j @0\n    j @0\n");
    }

    #[test]
    fn alu_imm_without_an_immediate_form_prints_its_register_mnemonic() {
        assert_eq!(Mnemonic::AluImm(AluOp::Add).to_string(), "addi");
        assert_eq!(Mnemonic::AluImm(AluOp::Mul).to_string(), "mul");
        assert_eq!(Mnemonic::classify("sraiw"), Mnemonic::AluImm(AluOp::Sraw));
        assert_eq!(Mnemonic::classify("fcvt.d.l"), Mnemonic::Alu(AluOp::Fcvtdl));
        assert_eq!(Mnemonic::classify("bgeu"), Mnemonic::Branch(BrCond::Geu));
        assert_eq!(Mnemonic::classify("li"), Mnemonic::Other("li"));
    }
}
