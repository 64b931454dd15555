//! Textual assembler / disassembler for STRAIGHT (Fig. 1(c) syntax).
//!
//! Destinations are implicit, so instructions simply omit them:
//! `addi [2], 1`, `sd [4], 0(sp)`, `mv [6]`, `spaddi -8`, `ret [2]`.
//! Sources are `[distance]`, `sp` or `zero`. Comments, labels, `.data`,
//! immediates, `off(base)` and branch targets follow the line syntax
//! shared by all three ISAs ([`ch_common::asm`]).

use super::{StProgram, StSrc, Straight, MAX_DISTANCE};
use ch_common::asm::{self, Line, Syntax};
use std::fmt;

pub use ch_common::error::AsmError;

/// STRAIGHT operands: implicit destinations, `[k]` sources, and `jr`
/// printed as `ret`.
impl Syntax for Straight {
    const JUMP_REG: &'static str = "ret";

    fn parse_src(line: &Line<'_>, tok: &str) -> Result<StSrc, AsmError> {
        match tok {
            "sp" => return Ok(StSrc::Sp),
            "zero" => return Ok(StSrc::Zero),
            _ => {}
        }
        if tok.starts_with('[') && tok.ends_with(']') {
            // Parse wider than u8 so `[256]` reports a range problem rather
            // than a generic parse failure, then enforce the architectural
            // 1..=127 reach here instead of deferring to validate().
            if let Ok(d) = tok[1..tok.len() - 1].parse::<u32>() {
                if d == 0 || d > MAX_DISTANCE as u32 {
                    return Err(line.error(format!(
                        "distance {d} in `{tok}` out of range (1..={MAX_DISTANCE})"
                    )));
                }
                return Ok(StSrc::Dist(d as u8));
            }
        }
        Err(line.error(format!("bad source operand `{tok}`")))
    }

    fn parse_dst(_line: &Line<'_>, _tok: &str) -> Result<(), AsmError> {
        unreachable!("STRAIGHT destinations are implicit")
    }

    fn fmt_dst((): (), _f: &mut fmt::Formatter<'_>) -> fmt::Result {
        unreachable!("STRAIGHT destinations are implicit")
    }
}

/// Assembles STRAIGHT source text.
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line.
///
/// # Examples
///
/// ```
/// use ch_baselines::straight::asm::assemble;
///
/// let p = assemble("li 42\nhalt [1]")?;
/// assert_eq!(p.len(), 2);
/// # Ok::<(), ch_baselines::straight::asm::AsmError>(())
/// ```
pub fn assemble(source: &str) -> Result<StProgram, AsmError> {
    asm::assemble::<Straight>(source)
}

/// Disassembles a program back to source text that [`assemble`] turns
/// into the same program.
pub fn disassemble(prog: &StProgram) -> String {
    asm::disassemble::<Straight>(prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1c_shapes_assemble() {
        let p = assemble(
            "iota:
                 spaddi -8
                 addi zero, 0
                 sd [4], 0(sp)
                 mv [6]
                 j .L3
             .L2:
                 addi [6], 4
                 mv [6]
                 nop
             .L3:
                 sw [5], 0([3])
                 addiw [6], 1
                 bne [1], [4], .L2
                 ld 0(sp)
                 spaddi 8
                 ret [2]",
        )
        .unwrap();
        assert_eq!(p.len(), 14);
        assert_eq!(p.labels[".L2"], 5);
    }

    #[test]
    fn rejects_malformed_operands() {
        for bad in [
            "li 1\nadd [0], [1]\nhalt [1]", // distance 0: the producing slot itself
            "li 1\nadd [128], [1]\nhalt [1]", // distance past the ring horizon
            "li 1\nadd [x], [1]\nhalt [1]", // non-numeric distance
            "li 1\nadd 1, [1]\nhalt [1]",   // bare number is not an operand
            "li 1\nadd [1]\nhalt [1]",      // wrong operand count
            "li 1\nfrob [1], [1]\nhalt [1]", // unknown mnemonic
            "li 1\nmv [1],\nhalt [1]",      // empty operand
            "li 1\nld ()\nhalt [1]",        // empty base
            "li 1\nmv \u{e9}[1]\nhalt [1]", // non-ASCII operand
        ] {
            assert!(assemble(bad).is_err(), "assembler accepted: {bad}");
        }
    }

    #[test]
    fn roundtrip() {
        let src = ".data 0x2000 5 6
start:
    li 5
.loop:
    addi [1], -1
    sw [1], 8(sp)
    bne [2], zero, .loop
    spaddi -16
    call start
    ret [1]
    halt [3]";
        let p1 = assemble(src).unwrap();
        let p2 = assemble(&disassemble(&p1)).unwrap();
        assert_eq!(p1.data.len(), 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn labels_with_brackets_not_confused() {
        // `[1]:` must not be treated as a label.
        let p = assemble("li 1\nmv [1]\nhalt [1]").unwrap();
        assert_eq!(p.len(), 3);
    }

    #[test]
    fn distance_boundary_at_exactly_127() {
        // 127 is the architectural maximum reach and must assemble...
        assert!(assemble("li 1\nhalt [127]").is_ok());
        // ...while 128 (formerly accepted and deferred to validate()) and
        // 256 (formerly a generic parse error) both name the range.
        for bad in ["[128]", "[256]", "[0]"] {
            let e = assemble(&format!("li 1\nhalt {bad}")).unwrap_err();
            assert_eq!(e.line, 2, "{bad}");
            assert!(e.message.contains("out of range"), "{bad}: {}", e.message);
        }
    }
}
