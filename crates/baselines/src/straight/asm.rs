//! Textual assembler / disassembler for STRAIGHT (Fig. 1(c) syntax).
//!
//! Destinations are implicit, so instructions simply omit them:
//! `addi [2], 1`, `sd [4], 0(sp)`, `mv [6]`, `spaddi -8`, `ret [2]`.
//! Sources are `[distance]`, `sp` or `zero`. Comments, labels, `.data`,
//! immediates, `off(base)` and branch targets follow the line syntax
//! shared by all three ISAs ([`ch_common::asm`]).

use super::{StInst, StProgram, StSrc, MAX_DISTANCE};
use ch_common::asm::{self, Line, Mnemonic, Syntax, Targets};

pub use ch_common::error::AsmError;

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

/// STRAIGHT operands: implicit destinations, `[k]` sources.
struct Straight;

impl Syntax for Straight {
    type Inst = StInst;

    fn parse(m: Mnemonic<'_>, line: &Line<'_>) -> Result<StInst, AsmError> {
        let src = |tok: &str| parse_src(line, tok);
        Ok(match m {
            Mnemonic::Alu(op) => {
                let [a, b] = line.operands()?;
                StInst::Alu {
                    dst: (),
                    op,
                    src1: src(a)?,
                    src2: src(b)?,
                }
            }
            Mnemonic::AluImm(op) => {
                let [a, imm] = line.operands()?;
                StInst::AluImm {
                    dst: (),
                    op,
                    src1: src(a)?,
                    imm: line.imm(imm)?,
                }
            }
            Mnemonic::Load(op) => {
                let [mem] = line.operands()?;
                let (offset, base) = line.mem(mem, src)?;
                StInst::Load {
                    dst: (),
                    op,
                    base,
                    offset,
                }
            }
            Mnemonic::Store(op) => {
                let [value, mem] = line.operands()?;
                let (offset, base) = line.mem(mem, src)?;
                StInst::Store {
                    op,
                    value: src(value)?,
                    base,
                    offset,
                }
            }
            Mnemonic::Branch(cond) => {
                let [a, b, target] = line.operands()?;
                StInst::Branch {
                    cond,
                    src1: src(a)?,
                    src2: src(b)?,
                    target: line.target(target)?,
                }
            }
            Mnemonic::Other("li") => {
                let [imm] = line.operands()?;
                StInst::Li {
                    dst: (),
                    imm: line.imm(imm)?,
                }
            }
            Mnemonic::Other("mv") => {
                let [s] = line.operands()?;
                StInst::Mv {
                    dst: (),
                    src: src(s)?,
                }
            }
            Mnemonic::Other("j") => {
                let [target] = line.operands()?;
                StInst::Jump {
                    target: line.target(target)?,
                }
            }
            Mnemonic::Other("call") => {
                let [target] = line.operands()?;
                StInst::Call {
                    dst: (),
                    target: line.target(target)?,
                }
            }
            Mnemonic::Other("jr" | "ret") => {
                let [s] = line.operands()?;
                StInst::JumpReg { src: src(s)? }
            }
            Mnemonic::Other("spaddi") => {
                let [imm] = line.operands()?;
                StInst::SpAddi {
                    imm: line.imm(imm)?,
                    isa: (),
                }
            }
            Mnemonic::Other("nop") => {
                let [] = line.operands()?;
                StInst::Nop
            }
            Mnemonic::Other("halt") => {
                let [s] = line.operands()?;
                StInst::Halt { src: src(s)? }
            }
            _ => return line.unknown(),
        })
    }

    fn format(inst: &StInst, targets: &Targets<'_>) -> String {
        match *inst {
            StInst::Alu { op, src1, src2, .. } => format!("{} {src1}, {src2}", op.mnemonic()),
            StInst::AluImm { op, src1, imm, .. } => {
                format!("{} {src1}, {imm}", Mnemonic::AluImm(op))
            }
            StInst::Li { imm, .. } => format!("li {imm}"),
            StInst::Load {
                op, base, offset, ..
            } => format!("{} {offset}({base})", op.mnemonic()),
            StInst::Store {
                op,
                value,
                base,
                offset,
            } => format!("{} {value}, {offset}({base})", op.mnemonic()),
            StInst::Branch {
                cond,
                src1,
                src2,
                target,
            } => format!(
                "{} {src1}, {src2}, {}",
                cond.mnemonic(),
                targets.name(target)
            ),
            StInst::Jump { target } => format!("j {}", targets.name(target)),
            StInst::Call { target, .. } => format!("call {}", targets.name(target)),
            StInst::JumpReg { src } => format!("ret {src}"),
            StInst::SpAddi { imm, .. } => format!("spaddi {imm}"),
            StInst::Mv { src, .. } => format!("mv {src}"),
            StInst::Nop => "nop".to_string(),
            StInst::Halt { src } => format!("halt {src}"),
            StInst::CallReg { isa, .. } => match isa {},
        }
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
    let a = asm::assemble::<Straight>(source)?;
    Ok(StProgram {
        insts: a.insts,
        entry: 0,
        labels: a.labels,
        data: a.data,
    })
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
