//! Textual assembler and disassembler for Clockhands.
//!
//! The syntax follows the paper's listings (Fig. 1(d), Fig. 6):
//!
//! ```text
//! .loop:
//!     sw    v[0], 0(t[1])
//!     addi  t, t[1], 4
//!     addi  t, t[1], 1
//!     bne   t[0], v[1], .loop
//! ```
//!
//! Destinations are hand names (`t`, `u`, `v`, `s`); sources are
//! `hand[distance]` or `zero`. Comments, labels, `.data`, immediates,
//! `off(base)` and branch targets follow the line syntax shared by all
//! three ISAs ([`ch_common::asm`]).

use crate::hand::{Hand, MAX_DISTANCE};
use crate::inst::{Clockhands, Src};
use crate::program::Program;
use ch_common::asm::{self, Line, Syntax};
use std::fmt;

pub use ch_common::error::AsmError;

/// Clockhands operands: hands as destinations, `hand[k]` as sources.
impl Syntax for Clockhands {
    fn parse_src(line: &Line<'_>, tok: &str) -> Result<Src, AsmError> {
        if tok == "zero" {
            return Ok(Src::Zero);
        }
        let Some(hand) = tok.get(..1).and_then(Hand::parse) else {
            return Err(line.error(format!("unknown source operand `{tok}`")));
        };
        let rest = tok[1..].trim();
        if !rest.starts_with('[') || !rest.ends_with(']') {
            return Err(line.error(format!("source `{tok}` must look like {hand}[k] or zero")));
        }
        let Ok(d) = rest[1..rest.len() - 1].parse::<u8>() else {
            return Err(line.error(format!("bad distance in `{tok}`")));
        };
        // Reject unencodable distances here instead of at encode/run time:
        // a hand reaches back at most `Hand::max_src_distance` values, and
        // s[15] is the encoding reserved for the zero register (write `zero`
        // instead).
        if d > hand.max_src_distance() {
            if hand == Hand::S && d == MAX_DISTANCE - 1 {
                return Err(line.error(format!(
                    "`{tok}` is the reserved zero-register encoding; write `zero`"
                )));
            }
            return Err(line.error(format!(
                "distance {d} in `{tok}` out of range (max {})",
                hand.max_src_distance()
            )));
        }
        Ok(Src::Hand(hand, d))
    }

    fn parse_dst(line: &Line<'_>, tok: &str) -> Result<Hand, AsmError> {
        Hand::parse(tok).ok_or_else(|| line.error(format!("unknown destination hand `{tok}`")))
    }

    fn fmt_dst(dst: Hand, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{dst}")
    }
}

/// Assembles Clockhands source text into a [`Program`].
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics or operands, and undefined labels.
///
/// # Examples
///
/// ```
/// use clockhands::asm::assemble;
///
/// let p = assemble("li t, 42\nhalt t[0]")?;
/// assert_eq!(p.len(), 2);
/// # Ok::<(), clockhands::asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<Program, AsmError> {
    asm::assemble::<Clockhands>(source)
}

/// Disassembles a program back to source text that [`assemble`] turns
/// into the same program (labels preserved when the program carries
/// them; `@index` targets otherwise).
pub fn disassemble(prog: &Program) -> String {
    asm::disassemble::<Clockhands>(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    #[test]
    fn assembles_paper_iota() {
        // Fig. 1(d), adapted to explicit syntax.
        let p = assemble(
            "iota:
                 ble_stub:
                 li t, 0
             .L3:
                 sw t[0], 0(s[1])
                 addiw t, t[0], 1
                 addi s, s[1], 4
                 bne t[0], s[2], .L3
                 jr s[0]",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(p.labels[".L3"], 1);
    }

    #[test]
    fn error_reports_line() {
        let e = assemble("li t, 1\nbogus t, 2").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn distance_boundary_checked_at_assembly() {
        // d = 15 is the last encodable distance for t/u/v...
        assert!(assemble("li t, 1\nhalt t[15]").is_ok());
        // ...and exactly 16 must be rejected here, not at encode time.
        let e = assemble("li t, 1\nhalt t[16]").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("out of range"), "{}", e.message);
        // s[14] is fine; s[15] is the reserved zero-register encoding.
        assert!(assemble("li s, 1\nhalt s[14]").is_ok());
        let e = assemble("li s, 1\nhalt s[15]").unwrap_err();
        assert!(e.message.contains("zero"), "{}", e.message);
    }

    #[test]
    fn distance_boundary_for_every_hand() {
        // At exactly the limit and at limit + 1 for all four hands, so an
        // off-by-one in any consumer of `Hand::max_src_distance` becomes
        // a unit-test failure instead of a fuzz find.
        for hand in Hand::ALL {
            let limit = hand.max_src_distance();
            let ok = format!("li {hand}, 1\nhalt {hand}[{limit}]");
            assert!(assemble(&ok).is_ok(), "{hand}[{limit}] must assemble");
            let over = format!("li {hand}, 1\nhalt {hand}[{}]", limit + 1);
            let e = assemble(&over).unwrap_err();
            assert_eq!(e.line, 2, "{hand}[{}] must fail on line 2", limit + 1);
            // s[15] gets the dedicated reserved-encoding message; the
            // rest report the per-hand range.
            if hand == Hand::S {
                assert!(e.message.contains("zero"), "{}", e.message);
            } else {
                assert!(
                    e.message.contains(&format!("out of range (max {limit})")),
                    "{}",
                    e.message
                );
            }
            // One past the reserved encoding is a plain range error again.
            let far = format!("li {hand}, 1\nhalt {hand}[{}]", limit + 2);
            let e = assemble(&far).unwrap_err();
            assert!(e.message.contains("out of range"), "{}", e.message);
        }
    }

    #[test]
    fn undefined_label_is_error() {
        let e = assemble("j .nowhere").unwrap_err();
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_error() {
        let e = assemble(".a:\nnop\n.a:\nnop").unwrap_err();
        assert!(e.message.contains("duplicate"));
    }

    #[test]
    fn operand_count_checked() {
        let e = assemble("add t, t[0]").unwrap_err();
        assert!(e.message.contains("expects 3"));
    }

    #[test]
    fn mem_operand_forms() {
        let p = assemble("ld t, 8(s[0])\nsd t[0], (s[0])\nhalt t[0]").unwrap();
        assert!(matches!(p.insts[0], Inst::Load { offset: 8, .. }));
        assert!(matches!(p.insts[1], Inst::Store { offset: 0, .. }));
    }

    #[test]
    fn data_directive() {
        let p = assemble(".data 0x2000 1 -2 3\nhalt s[0]").unwrap();
        assert_eq!(p.data.len(), 1);
        assert_eq!(p.data[0].0, 0x2000);
        assert_eq!(p.data[0].1.len(), 24);
    }

    #[test]
    fn rejects_malformed_operands() {
        for bad in [
            "add x, t[0], t[1]\nhalt t[0]",  // unknown destination hand
            "add t, w[0], t[1]\nhalt t[0]",  // unknown source hand
            "add t, t[16], t[1]\nhalt t[0]", // distance past the horizon
            "add t, s[15], t[1]\nhalt t[0]", // reserved zero encoding
            "add t, t[x], t[1]\nhalt t[0]",  // non-numeric distance
            "add t, t0, t[1]\nhalt t[0]",    // missing brackets
            "add t, t[0]\nhalt t[0]",        // wrong operand count
            "frob t, t[0], t[1]\nhalt t[0]", // unknown mnemonic
            "li t, 1\nmv t,\nhalt t[0]",     // empty operand
            "ld t, ()\nhalt t[0]",           // empty base
            "mv t, \u{e9}[1]\nhalt t[0]",    // non-ASCII hand
        ] {
            assert!(assemble(bad).is_err(), "assembler accepted: {bad}");
        }
    }

    #[test]
    fn disassemble_roundtrip() {
        let src = ".data 0x2000 5 6
start:
    li t, 100
.loop:
    addi t, t[0], -1
    sw t[0], 0(s[0])
    bne t[0], zero, .loop
    fadd u, t[0], t[0]
    call s, start
    jalr s, u[0]
    jr s[0]
    nop
    halt t[0]";
        let p1 = assemble(src).unwrap();
        let text = disassemble(&p1);
        let p2 = assemble(&text).unwrap();
        assert_eq!(p1.data.len(), 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn hex_immediates() {
        let p = assemble("li t, 0x10\nli t, -0x10\nhalt t[0]").unwrap();
        assert_eq!(
            p.insts[0],
            Inst::Li {
                dst: Hand::T,
                imm: 16
            }
        );
        assert_eq!(
            p.insts[1],
            Inst::Li {
                dst: Hand::T,
                imm: -16
            }
        );
    }
}
