//! Instruction forms: each ISA declares every binary format once, as a
//! tag plus an ordered field list, and this module derives the encoder,
//! the decoder, the reserved-bit check and the compact-fit test from
//! that one row.
//!
//! The tag sits in the low bits of every unit: the length tag `0b11`
//! and the 5-bit major opcode (bits `[6:0]`) of a 32-bit word, or the
//! quadrant and `funct3` (bits `[4:0]`) of a 16-bit unit. Fields pack
//! upward from the tag in row order, so no bit position is ever written
//! down; every bit above the last field is reserved and must be zero.
//! Decoding is therefore canonical: a unit that decodes re-encodes to
//! the same bits.

use crate::bits::*;
use crate::{DecodeError, EncodeError};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
use ch_common::isa::{Inst, Operands};
use std::ops::RangeInclusive;

/// One field of an instruction form, in packing order (low bits first).
#[derive(Clone, Copy, Debug)]
pub(crate) enum Field {
    /// The 6-bit ALU function code ([`alu_funct`]).
    Funct6,
    /// An `n`-bit destination specifier.
    Dst(u32),
    /// An `n`-bit source specifier (a compact source in a 16-bit form).
    Src(u32),
    /// A pool-flagged immediate: one flag bit, then `n` bits holding the
    /// signed value (flag 0) or a literal-pool index (flag 1).
    Imm(u32),
    /// A pool-flagged halfword displacement, laid out like [`Field::Imm`].
    Disp(u32),
    /// A compact `n`-bit signed immediate (no pool flag).
    CImm(u32),
    /// A compact `n`-bit unsigned doubleword offset (the offset / 8).
    COff(u32),
    /// A compact `n`-bit signed halfword displacement (no pool flag; the
    /// driver relaxes an out-of-reach unit to its 32-bit form).
    CDisp(u32),
}

impl Field {
    /// Bits the field occupies.
    fn width(self) -> u32 {
        match self {
            Field::Funct6 => 6,
            Field::Imm(n) | Field::Disp(n) => n + 1,
            Field::Dst(n) | Field::Src(n) | Field::CImm(n) | Field::COff(n) | Field::CDisp(n) => n,
        }
    }
}

/// One binary format: the tags that share it and its fields.
pub(crate) struct Form {
    /// [`W32`] for a 32-bit form, else the 16-bit quadrant.
    quadrant: u32,
    /// The major opcodes (32-bit) or `funct3` values (16-bit) of the form.
    codes: RangeInclusive<u32>,
    fields: &'static [Field],
}

impl Form {
    /// The first field's low bit: fields pack upward from the tag.
    fn base(&self) -> u32 {
        if self.quadrant == W32 {
            7
        } else {
            5
        }
    }

    /// Bits the tag and fields occupy; every bit above is reserved.
    fn end(&self) -> u32 {
        self.base() + self.fields.iter().map(|&f| f.width()).sum::<u32>()
    }

    /// Whether `o`'s specifier codes and its compact immediate or offset
    /// fit the row's fields. Displacement reach is checked by the driver.
    fn fits(&self, o: &Ops) -> bool {
        self.placed().all(|(field, _, slot)| match field {
            Field::Dst(n) | Field::Src(n) => o.spec[slot] <= mask(n),
            Field::CImm(n) => fits_signed(o.imm, n),
            Field::COff(n) => o.imm >= 0 && o.imm % 8 == 0 && o.imm / 8 <= mask(n) as i64,
            _ => true,
        })
    }

    /// Each field with its low bit and, for a specifier, its slot in
    /// [`Ops::spec`].
    fn placed(&self) -> impl Iterator<Item = (Field, u32, usize)> + '_ {
        self.fields
            .iter()
            .scan((self.base(), 0), |(lo, slot), &field| {
                let placed = (field, *lo, *slot);
                *lo += field.width();
                *slot += usize::from(matches!(field, Field::Dst(_) | Field::Src(_)));
                Some(placed)
            })
    }
}

/// The form of one tag: the major opcode (under [`W32`]) or `funct3`
/// (under a quadrant) `code`.
pub(crate) const fn form(quadrant: u32, code: u32, fields: &'static [Field]) -> Form {
    forms(quadrant, code..=code, fields)
}

/// A form shared by a run of consecutive tags.
pub(crate) const fn forms(
    quadrant: u32,
    codes: RangeInclusive<u32>,
    fields: &'static [Field],
) -> Form {
    Form {
        quadrant,
        codes,
        fields,
    }
}

/// An instruction's tag and field values: the `funct6`, the specifier
/// codes in row order, and the one immediate, compact offset or — in a
/// displacement row — target instruction index, if the row has one.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Ops {
    /// `(quadrant, code)`: the row's low bits and its opcode or `funct3`.
    pub tag: (u32, u32),
    /// The [`Field::Funct6`] code.
    pub funct: u32,
    /// Destination and source codes in row order.
    pub spec: [u32; 3],
    /// The immediate, offset or target index.
    pub imm: i64,
}

/// [`Ops`] of a 32-bit form with major opcode `opcode`.
pub(crate) fn op32(opcode: u32, spec: &[u32], imm: i64) -> Ops {
    op16(W32, opcode, spec, imm)
}

/// [`Ops`] of a 16-bit form in `quadrant` with `funct3`.
pub(crate) fn op16(quadrant: u32, funct3: u32, spec: &[u32], imm: i64) -> Ops {
    let mut o = Ops {
        tag: (quadrant, funct3),
        imm,
        ..Ops::default()
    };
    o.spec[..spec.len()].copy_from_slice(spec);
    o
}

/// [`Ops`] of a register-register ALU operation.
pub(crate) fn alu32(op: AluOp, spec: &[u32]) -> Ops {
    Ops {
        funct: alu_funct(op),
        ..op32(OP_ALU, spec, 0)
    }
}

/// [`Ops`] of a compact register-register ALU operation, if its
/// operation has a compact `funct3`.
pub(crate) fn calu16(op: AluOp, spec: &[u32]) -> Option<Ops> {
    Some(op16(Q0, calu_funct(op)?, spec, 0))
}

/// [`Ops`] of a register-immediate ALU operation: its dedicated opcode
/// if it has one, else `OP_ALUIMM` and its `funct6`. Only operations
/// with an immediate mnemonic take `OP_ALUIMM`, so no word duplicates a
/// dedicated-opcode encoding or disassembles to text no assembler
/// accepts.
pub(crate) fn alu_imm32(op: AluOp, spec: &[u32], imm: i64, at: u32) -> Result<Ops, EncodeError> {
    let opcode = match imm_opcode(op) {
        Some(opcode) => opcode,
        None if op.imm_mnemonic().is_some() => OP_ALUIMM,
        None => return Err(EncodeError::NoImmForm { at }),
    };
    Ok(Ops {
        funct: alu_funct(op),
        ..op32(opcode, spec, imm)
    })
}

/// The operation of a decoded [`alu_imm32`] unit.
pub(crate) fn alu_imm_op(o: &Ops, at: usize, word: u32) -> Result<AluOp, DecodeError> {
    if o.tag != (W32, OP_ALUIMM) {
        return Ok(IMM_OPS[(o.tag.1 - OP_ADDI) as usize]);
    }
    alu_from_funct(o.funct, at, word)
        .ok()
        .filter(|&op| op.imm_mnemonic().is_some() && imm_opcode(op).is_none())
        .ok_or(DecodeError::BadOpcode { at, word })
}

/// Slots of a tag index: a tag `(quadrant, code)` sits at
/// `quadrant << 5 | code`, as a code has at most five bits.
const TAGS: usize = 4 << 5;

/// A tag index slot no row covers; it is past the end of every table,
/// so looking it up finds no row.
const NO_ROW: u8 = u8::MAX;

/// The slot of `(quadrant, code)` in a tag index.
const fn slot(quadrant: u32, code: u32) -> usize {
    (quadrant << 5 | code) as usize
}

/// The row number of every tag in `forms`, built once per ISA at compile
/// time, so that finding a row costs one load instead of a scan.
const fn index(forms: &[Form]) -> [u8; TAGS] {
    assert!(
        forms.len() < NO_ROW as usize,
        "too many rows for a u8 index"
    );
    let mut index = [NO_ROW; TAGS];
    let mut r = 0;
    while r < forms.len() {
        let f = &forms[r];
        let mut code = *f.codes.start();
        while code <= *f.codes.end() {
            assert!(f.quadrant < 4 && code < 32, "a tag out of range");
            let at = &mut index[slot(f.quadrant, code)];
            assert!(*at == NO_ROW, "two rows declare one tag");
            *at = r as u8;
            code += 1;
        }
        r += 1;
    }
    index
}

/// The destination type of codec `C`'s ISA.
type Dst<C> = <<C as Codec>::Ops as Operands>::Dst;
/// The source type of codec `C`'s ISA.
type Src<C> = <<C as Codec>::Ops as Operands>::Src;

/// The specifier codes of a destination (skipped where the ISA's is
/// implicit) and of `srcs`, in row order: a [`Ops::spec`].
fn spec<C: Codec>(dst: Option<Dst<C>>, srcs: &[Src<C>], at: u32) -> Result<[u32; 3], EncodeError> {
    let mut codes = [0; 3];
    let mut n = 0;
    if let Some(d) = dst.filter(|_| C::Ops::IMPLICIT_DST.is_none()) {
        if !C::Ops::is_valid_dst(d) {
            return Err(EncodeError::BadDst { at });
        }
        codes[0] = C::dst(d);
        n = 1;
    }
    for &s in srcs {
        if !C::Ops::is_valid(s) {
            return Err(EncodeError::BadSrc { at });
        }
        codes[n] = C::src(s);
        n += 1;
    }
    Ok(codes)
}

/// An ISA's binary format: its form table, its operand fields, and the
/// 16-bit forms of its own. The mapping between instructions and (tag,
/// field values) is written once here; sizing, encoding and decoding
/// derive from the table.
pub(crate) trait Codec: Sized {
    /// The ISA's operands; its instructions are `Inst<Self::Ops>`.
    type Ops: Operands;

    /// Every 32-bit and 16-bit form of the ISA, one row each.
    const FORMS: &'static [Form];

    /// [`Self::FORMS`]' row number of each tag.
    const INDEX: [u8; TAGS] = index(Self::FORMS);

    /// The code of a destination field; only asked where the ISA spells
    /// a destination.
    fn dst(d: Dst<Self>) -> u32;

    /// The destination a destination field's code names.
    fn dst_from(code: u32) -> Dst<Self>;

    /// The code of a valid source in a full-width source field.
    fn src(s: Src<Self>) -> u32;

    /// The source a full-width source field's code names, if any.
    fn src_from(code: u32) -> Option<Src<Self>>;

    /// The instruction in a 16-bit form whose operand fields differ
    /// per ISA (compact sources, a destructive two-address form), if it
    /// has one.
    fn compact_own(i: &Inst<Self::Ops>) -> Option<Ops>;

    /// The instruction behind a decoded unit of one of those forms.
    fn inst_own(o: &Ops, at: usize, word: u32) -> Result<Inst<Self::Ops>, DecodeError>;

    /// The row of `(quadrant, code)`, if any.
    fn find((quadrant, code): (u32, u32)) -> Option<&'static Form> {
        let r = *Self::INDEX.get(slot(quadrant, code))?;
        Self::FORMS.get(usize::from(r))
    }

    /// The instruction in its 32-bit form.
    fn full(i: &Inst<Self::Ops>, at: u32) -> Result<Ops, EncodeError> {
        let spec = |dst, srcs: &[_]| spec::<Self>(dst, srcs, at);
        Ok(match *i {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            } => alu32(op, &spec(Some(dst), &[src1, src2])?),
            Inst::AluImm { op, dst, src1, imm } => {
                alu_imm32(op, &spec(Some(dst), &[src1])?, imm.into(), at)?
            }
            Inst::Li { dst, imm } => op32(OP_LI, &spec(Some(dst), &[])?, imm),
            Inst::Load {
                op,
                dst,
                base,
                offset,
            } => op32(load_opcode(op), &spec(Some(dst), &[base])?, offset.into()),
            Inst::Store {
                op,
                value,
                base,
                offset,
            } => op32(
                store_opcode(op),
                &spec(None, &[value, base])?,
                offset.into(),
            ),
            Inst::Branch {
                cond,
                src1,
                src2,
                target,
            } => op32(
                branch_opcode(cond),
                &spec(None, &[src1, src2])?,
                target.into(),
            ),
            Inst::Jump { target } => op32(OP_JUMP, &[], target.into()),
            Inst::Call { dst, target } => op32(OP_CALL, &spec(Some(dst), &[])?, target.into()),
            Inst::JumpReg { src } => op32(OP_JUMPREG, &spec(None, &[src])?, 0),
            Inst::CallReg { dst, src, .. } => op32(OP_CALLREG, &spec(Some(dst), &[src])?, 0),
            Inst::SpAddi { imm, .. } => op32(OP_SPADDI, &[], imm.into()),
            Inst::Mv { dst, src } => op32(OP_MV, &spec(Some(dst), &[src])?, 0),
            Inst::Nop => op32(OP_NOP, &[], 0),
            Inst::Halt { src } => op32(OP_HALT, &spec(None, &[src])?, 0),
        })
    }

    /// The instruction in its 16-bit form, if it has one. The forms
    /// below take full-width operand codes, so whether those fit is left
    /// to [`Form::fits`].
    fn compact(i: &Inst<Self::Ops>) -> Option<Ops> {
        let spec = |dst, srcs: &[_]| spec::<Self>(dst, srcs, 0).ok();
        Some(match *i {
            Inst::Mv { dst, src } => op16(Q1, C_MV, &spec(Some(dst), &[src])?, 0),
            Inst::Li { dst, imm } => op16(Q1, C_LI, &spec(Some(dst), &[])?, imm),
            Inst::Jump { target } => op16(Q1, C_J, &[], target.into()),
            Inst::Nop => op16(Q2, C_NOP, &[], 0),
            Inst::Halt { src } => op16(Q2, C_HALT, &spec(None, &[src])?, 0),
            Inst::JumpReg { src } => op16(Q2, C_JR, &spec(None, &[src])?, 0),
            Inst::SpAddi { imm, .. } => op16(Q2, C_SPADDI, &[], imm.into()),
            _ => return Self::compact_own(i),
        })
    }

    /// The instruction behind a decoded unit.
    fn inst(o: &Ops, at: usize, word: u32) -> Result<Inst<Self::Ops>, DecodeError> {
        // Codes sit in row order: the destination's first where the ISA
        // spells one, so a written instruction's sources start at `d`.
        let d = usize::from(Self::Ops::IMPLICIT_DST.is_none());
        let dst = || Self::Ops::IMPLICIT_DST.unwrap_or_else(|| Self::dst_from(o.spec[0]));
        let src = |k: usize| Self::src_from(o.spec[k]).ok_or(DecodeError::BadSrc { at, word });
        let imm = || imm32(o.imm, at, word);
        let target = o.imm as u32;
        Ok(match o.tag {
            (W32, OP_ALU) => Inst::Alu {
                op: alu_from_funct(o.funct, at, word)?,
                dst: dst(),
                src1: src(d)?,
                src2: src(d + 1)?,
            },
            (W32, OP_ALUIMM | OP_ADDI..=OP_XORI) => Inst::AluImm {
                op: alu_imm_op(o, at, word)?,
                dst: dst(),
                src1: src(d)?,
                imm: imm()?,
            },
            (W32, OP_LI) | (Q1, C_LI) => Inst::Li {
                dst: dst(),
                imm: o.imm,
            },
            (W32, op @ OP_LB..=OP_LWU) => Inst::Load {
                op: LoadOp::ALL[(op - OP_LB) as usize],
                dst: dst(),
                base: src(d)?,
                offset: imm()?,
            },
            (W32, op @ OP_SB..=OP_SD) => Inst::Store {
                op: StoreOp::ALL[(op - OP_SB) as usize],
                value: src(0)?,
                base: src(1)?,
                offset: imm()?,
            },
            (W32, op @ OP_BEQ..=OP_BGEU) => Inst::Branch {
                cond: BrCond::ALL[(op - OP_BEQ) as usize],
                src1: src(0)?,
                src2: src(1)?,
                target,
            },
            (W32, OP_JUMP) | (Q1, C_J) => Inst::Jump { target },
            (W32, OP_CALL) => Inst::Call { dst: dst(), target },
            (W32, OP_JUMPREG) | (Q2, C_JR) => Inst::JumpReg { src: src(0)? },
            (W32, OP_CALLREG) => Inst::CallReg {
                dst: dst(),
                src: src(d)?,
                isa: Self::Ops::CALL_REG.expect("only an ISA with jalr has the row"),
            },
            (W32, OP_SPADDI) | (Q2, C_SPADDI) => Inst::SpAddi {
                imm: imm()?,
                isa: Self::Ops::SP_ADDI.expect("only an ISA with spaddi has the row"),
            },
            (W32, OP_MV) | (Q1, C_MV) => Inst::Mv {
                dst: dst(),
                src: src(d)?,
            },
            (W32, OP_NOP) | (Q2, C_NOP) => Inst::Nop,
            (W32, OP_HALT) | (Q2, C_HALT) => Inst::Halt { src: src(0)? },
            _ => Self::inst_own(o, at, word)?,
        })
    }

    /// The row of a mapped instruction.
    fn row(o: &Ops) -> &'static Form {
        Self::find(o.tag).expect("every mapped tag has a row")
    }

    /// Whether the instruction has a 16-bit form whose operand codes and
    /// compact immediate or offset fit its row (the driver checks
    /// displacement reach by relaxation).
    fn has_compact(i: &Inst<Self::Ops>) -> bool {
        Self::compact(i).is_some_and(|o| Self::row(&o).fits(&o))
    }

    /// Signed width in bits of the halfword-displacement field of the
    /// 16-bit form. Only consulted for compact control transfers.
    fn compact_disp_bits(i: &Inst<Self::Ops>) -> u32 {
        Self::row(&Self::compact(i).expect("compact form"))
            .fields
            .iter()
            .find_map(|&field| match field {
                Field::CDisp(n) => Some(n),
                _ => None,
            })
            .expect("compact control transfer without a displacement field")
    }

    /// Encodes at `size` (2 or 4) with halfword displacement `disp`
    /// (0 when there is no target). A 16-bit unit occupies the low half
    /// of the returned word.
    fn encode(
        i: &Inst<Self::Ops>,
        size: u8,
        disp: i64,
        pool: &mut Pool,
        at: u32,
    ) -> Result<u32, EncodeError> {
        let o = if size == 2 {
            Self::compact(i).expect("sized to a compact form")
        } else {
            Self::full(i, at)?
        };
        let f = Self::row(&o);
        let mut w = f.quadrant | o.tag.1 << 2;
        for (field, lo, slot) in f.placed() {
            match field {
                Field::Funct6 => put(&mut w, lo, 6, o.funct),
                Field::Dst(n) | Field::Src(n) => put(&mut w, lo, n, o.spec[slot]),
                Field::Imm(n) => put_imm(&mut w, lo, n, o.imm, pool, at)?,
                Field::Disp(n) => put_imm(&mut w, lo, n, disp, pool, at)?,
                Field::CImm(n) => put_signed(&mut w, lo, n, o.imm),
                Field::COff(n) => put(&mut w, lo, n, (o.imm / 8) as u32),
                Field::CDisp(n) => put_signed(&mut w, lo, n, disp),
            }
        }
        Ok(w)
    }

    /// Decodes one unit. `target` maps a halfword displacement (relative
    /// to this unit) to an instruction index.
    fn decode(
        word: u32,
        size: u8,
        at: usize,
        target: &mut dyn FnMut(i64) -> Result<u32, DecodeError>,
        pool: &[u64],
    ) -> Result<Inst<Self::Ops>, DecodeError> {
        // The low two bits are the quadrant, or `W32` for a 32-bit word.
        let tag = (word & 0b11, get(word, 2, if size == 4 { 5 } else { 3 }));
        let f = Self::find(tag).ok_or(DecodeError::BadOpcode { at, word })?;
        // A 16-bit unit arrives zero-extended, so one test covers both sizes.
        if word.checked_shr(f.end()).unwrap_or(0) != 0 {
            return Err(DecodeError::Reserved { at, word });
        }
        let mut o = Ops {
            tag,
            ..Ops::default()
        };
        for (field, lo, slot) in f.placed() {
            match field {
                Field::Funct6 => o.funct = get(word, lo, 6),
                Field::Dst(n) | Field::Src(n) => o.spec[slot] = get(word, lo, n),
                Field::Imm(n) => o.imm = get_imm(word, lo, n, pool, at)?,
                Field::Disp(n) => o.imm = target(get_imm(word, lo, n, pool, at)?)?.into(),
                Field::CImm(n) => o.imm = get_signed(word, lo, n),
                Field::COff(n) => o.imm = i64::from(get(word, lo, n)) * 8,
                Field::CDisp(n) => o.imm = target(get_signed(word, lo, n))?.into(),
            }
        }
        Self::inst(&o, at, word)
    }
}
