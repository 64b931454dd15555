//! Textual assembler / disassembler for the RISC baseline.
//!
//! Accepts `x0..x31` / `f0..f31` and the standard ABI names (`zero`,
//! `ra`, `sp`, `a0-a7`, `t0-t6`, `s0-s11`, `fa0-fa7`, `ft0-ft11`,
//! `fs0-fs11`), plus `fld`/`fsd` for `ld`/`sd`. Comments, labels,
//! `.data`, immediates, `off(base)` and branch targets follow the line
//! syntax shared by all three ISAs ([`ch_common::asm`]).

use super::{Reg, Riscv, RvProgram};
use ch_common::asm::{self, Line, Mnemonic, Syntax};
use ch_common::exec::{LoadOp, StoreOp};
use std::fmt;
use std::ops::RangeInclusive;

pub use ch_common::error::AsmError;

/// Integer ABI names, indexed by register number (`fp` aliases `s0`).
const X_ABI: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

/// FP ABI names: prefix, numbers, and the `f` register of the first.
const F_ABI: [(&str, RangeInclusive<u8>, u8); 5] = [
    ("ft", 0..=7, 0),
    ("fs", 0..=1, 8),
    ("fa", 0..=7, 10),
    ("fs", 2..=11, 18),
    ("ft", 8..=11, 28),
];

/// Parses a register name.
pub fn parse_reg(tok: &str) -> Option<Reg> {
    let num = |s: &str| -> Option<u8> {
        if s.bytes().all(|b| b.is_ascii_digit()) {
            s.parse().ok()
        } else {
            None
        }
    };
    if tok == "fp" {
        return Some(Reg(8));
    }
    if let Some(n) = X_ABI.iter().position(|&name| name == tok) {
        return Some(Reg(n as u8));
    }
    if let Some(n) = tok.strip_prefix('x').and_then(num).filter(|&n| n < 32) {
        return Some(Reg(n));
    }
    for (prefix, numbers, first) in F_ABI {
        if let Some(n) = tok.strip_prefix(prefix).and_then(num) {
            if numbers.contains(&n) {
                return Some(Reg(32 + first + n - numbers.start()));
            }
        }
    }
    let n = tok.strip_prefix('f').and_then(num).filter(|&n| n < 32)?;
    Some(Reg(32 + n))
}

fn reg(line: &Line<'_>, tok: &str) -> Result<Reg, AsmError> {
    parse_reg(tok).ok_or_else(|| line.error(format!("unknown register `{tok}`")))
}

/// RISC operands: register names everywhere, plus `fld`/`fsd`.
impl Syntax for Riscv {
    fn parse_src(line: &Line<'_>, tok: &str) -> Result<Reg, AsmError> {
        reg(line, tok)
    }

    fn parse_dst(line: &Line<'_>, tok: &str) -> Result<Reg, AsmError> {
        reg(line, tok)
    }

    fn fmt_dst(rd: Reg, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{rd}")
    }

    fn alias(m: &str) -> Option<Mnemonic<'static>> {
        match m {
            "fld" => Some(Mnemonic::Load(LoadOp::Ld)),
            "fsd" => Some(Mnemonic::Store(StoreOp::Sd)),
            _ => None,
        }
    }
}

/// Assembles RISC source text.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line.
///
/// # Examples
///
/// ```
/// use ch_baselines::riscv::asm::assemble;
///
/// let p = assemble("li a0, 42\nhalt a0")?;
/// assert_eq!(p.len(), 2);
/// # Ok::<(), ch_baselines::riscv::asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<RvProgram, AsmError> {
    asm::assemble::<Riscv>(source)
}

/// Disassembles a program back to source text that [`assemble`] turns
/// into the same program.
pub fn disassemble(prog: &RvProgram) -> String {
    asm::disassemble::<Riscv>(prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_resolve() {
        assert_eq!(parse_reg("zero"), Some(Reg(0)));
        assert_eq!(parse_reg("ra"), Some(Reg(1)));
        assert_eq!(parse_reg("a0"), Some(Reg(10)));
        assert_eq!(parse_reg("s11"), Some(Reg(27)));
        assert_eq!(parse_reg("t6"), Some(Reg(31)));
        assert_eq!(parse_reg("x17"), Some(Reg(17)));
        assert_eq!(parse_reg("f5"), Some(Reg(37)));
        assert_eq!(parse_reg("fa0"), Some(Reg(42)));
        assert_eq!(parse_reg("q9"), None);
        // The standard FP ABI table, at every boundary: ft0-7 = f0-7,
        // fs0-1 = f8-9, fa0-7 = f10-17, fs2-11 = f18-27, ft8-11 = f28-31.
        for (name, f) in [
            ("ft0", 0),
            ("ft7", 7),
            ("fs0", 8),
            ("fs1", 9),
            ("fa7", 17),
            ("fs2", 18),
            ("fs11", 27),
            ("ft8", 28),
            ("ft11", 31),
            ("f31", 31),
        ] {
            assert_eq!(parse_reg(name), Some(Reg(32 + f)), "{name}");
        }
        for bad in ["ft12", "fs12", "fa8", "ft250", "f32", "x32", "x+1", "fp0"] {
            assert_eq!(parse_reg(bad), None, "{bad}");
        }
    }

    #[test]
    fn roundtrip() {
        let src = ".data 0x2000 5 6
main:
    li a0, 5
.loop:
    addi a0, a0, -1
    sw a0, 8(sp)
    bne a0, zero, .loop
    fadd f0, f1, f2
    call ra, main
    jr ra
    halt a0";
        let p1 = assemble(src).unwrap();
        let p2 = assemble(&disassemble(&p1)).unwrap();
        assert_eq!(p1.data.len(), 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn error_line_reported() {
        let e = assemble("nop\nfoo a0").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn rejects_malformed_operands() {
        for bad in [
            "add q9, a0, a1\nhalt a0",  // unknown destination register
            "add a0, a9x, a1\nhalt a0", // unknown source register
            "add a0, a1\nhalt a0",      // wrong operand count
            "li a0, zz\nhalt a0",       // bad immediate
            "lw a0, 8[sp]\nhalt a0",    // memory operand must be off(base)
            "frob a0, a1, a2\nhalt a0", // unknown mnemonic
            "mv a0,\nhalt a0",          // empty operand
            "ld a0, ()\nhalt a0",       // empty base
            "mv a0, \u{e9}1\nhalt a0",  // non-ASCII register
            "mv a0, ft250\nhalt a0",    // FP ABI number past the table
        ] {
            assert!(assemble(bad).is_err(), "assembler accepted: {bad}");
        }
    }
}
