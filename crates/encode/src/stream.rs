//! The ISA-generic byte-stream driver: instruction sizing, the
//! relaxation fixpoint, byte-accurate layout, and the boundary walk
//! that decoding shares with real front ends.
//!
//! A [`Codec`] supplies the per-ISA form table; this module supplies
//! everything that is the same for all three ISAs:
//!
//! * **Sizing** — under [`EncodingVariant::Compressed`], every
//!   instruction with a 16-bit form starts at two bytes;
//! * **Relaxation** — a 16-bit control transfer whose halfword
//!   displacement outgrows its field is promoted to the 32-bit form.
//!   Promotion moves later instructions further apart, which can push
//!   *other* short branches out of range, so the pass iterates to a
//!   fixpoint; promotion is monotone (2 → 4 bytes, never back), so the
//!   loop terminates in at most `n` rounds. 32-bit displacement sites
//!   carry a pool flag and therefore never fail to encode.
//! * **The walk** — decoding scans halfwords: a low bit pair of `0b11`
//!   means a 32-bit unit (the RVC length-tag convention), anything else
//!   a 16-bit unit. Displacements resolve against the recovered unit
//!   boundaries, so a displacement landing inside a unit or at the end
//!   of the stream is a structured [`DecodeError::BadTarget`], never a
//!   misparse.
//!
//! Both directions apply the target rule of
//! [`ch_common::isa::Program::validate`]: a target names an
//! instruction, `target < len`.

use crate::bits::{fits_signed, Pool};
use crate::form::Codec;
use crate::{DecodeError, EncodeError, Layout, TEXT_BASE};
use ch_common::isa::Inst;
use ch_common::EncodingVariant;

/// Encodes an instruction stream: sizes, relaxes, lays out, and emits.
pub(crate) fn encode_stream<C: Codec>(
    insts: &[Inst<C::Ops>],
    variant: EncodingVariant,
) -> Result<(Vec<u8>, Vec<u64>, Layout), EncodeError> {
    let n = insts.len();
    let mut sizes: Vec<u8> = insts
        .iter()
        .map(|i| {
            if variant == EncodingVariant::Compressed && C::has_compact(i) {
                2
            } else {
                4
            }
        })
        .collect();
    let offsets = |sizes: &[u8]| -> Vec<u64> {
        let mut pcs = Vec::with_capacity(n + 1);
        let mut off = 0u64;
        for &s in sizes {
            pcs.push(off);
            off += s as u64;
        }
        pcs.push(off);
        pcs
    };
    let mut offs = offsets(&sizes);
    loop {
        let mut changed = false;
        for (at, i) in insts.iter().enumerate() {
            let Some(t) = i.target() else { continue };
            if t as usize >= n {
                return Err(EncodeError::BadTarget {
                    at: at as u32,
                    target: t,
                });
            }
            if sizes[at] != 2 {
                continue; // 32-bit displacement sites pool-escape
            }
            let disp = (offs[t as usize] as i64 - offs[at] as i64) / 2;
            if !fits_signed(disp, C::compact_disp_bits(i)) {
                sizes[at] = 4;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        offs = offsets(&sizes);
    }
    let mut pool = Pool::new();
    let mut bytes = Vec::with_capacity(offs[n] as usize);
    for (at, i) in insts.iter().enumerate() {
        let disp = match i.target() {
            Some(t) => (offs[t as usize] as i64 - offs[at] as i64) / 2,
            None => 0,
        };
        let word = C::encode(i, sizes[at], disp, &mut pool, at as u32)?;
        bytes.extend_from_slice(&word.to_le_bytes()[..sizes[at] as usize]);
    }
    let layout = Layout {
        sizes,
        pcs: offs.into_iter().map(|o| TEXT_BASE + o).collect(),
    };
    Ok((bytes, pool.values, layout))
}

/// Decodes a laid-out byte stream back into instructions.
pub(crate) fn decode_stream<C: Codec>(
    bytes: &[u8],
    pool: &[u64],
) -> Result<Vec<Inst<C::Ops>>, DecodeError> {
    // Walk the stream once to recover unit boundaries.
    let mut units: Vec<(usize, u32, u8)> = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        if off + 2 > bytes.len() {
            return Err(DecodeError::Truncated { at: off });
        }
        let hw = u16::from_le_bytes([bytes[off], bytes[off + 1]]) as u32;
        if hw & 0b11 == 0b11 {
            if off + 4 > bytes.len() {
                return Err(DecodeError::Truncated { at: off });
            }
            let w =
                u32::from_le_bytes([bytes[off], bytes[off + 1], bytes[off + 2], bytes[off + 3]]);
            units.push((off, w, 4));
            off += 4;
        } else {
            units.push((off, hw, 2));
            off += 2;
        }
    }
    let boundaries: Vec<usize> = units.iter().map(|&(o, _, _)| o).collect();
    let mut insts = Vec::with_capacity(units.len());
    for &(off, word, size) in units.iter() {
        // A target must start a unit: the end of the stream is not one.
        let mut to_index = |disp: i64| -> Result<u32, DecodeError> {
            usize::try_from(off as i64 + disp * 2)
                .ok()
                .and_then(|t| boundaries.binary_search(&t).ok())
                .map(|i| i as u32)
                .ok_or(DecodeError::BadTarget { at: off })
        };
        insts.push(C::decode(word, size, off, &mut to_index, pool)?);
    }
    Ok(insts)
}
