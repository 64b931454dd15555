//! Register lifetime distributions (Fig. 4, 17, 18).
//!
//! The lifetime of a definition is the number of dynamic instructions
//! between it and its last read (0 if never read). The paper plots the
//! *definition frequency of registers with lifetime > k* — a CCDF over
//! definitions — and observes an `O(1/N)` power law.

use ch_common::inst::{DstTag, DynInst};

/// Per-definition lifetimes extracted from a trace.
#[derive(Debug, Clone, Default)]
pub struct LifetimeDist {
    /// (definition seq, destination tag, lifetime in instructions).
    pub defs: Vec<(u64, DstTag, u64)>,
    /// Total committed instructions in the trace.
    pub total_insts: u64,
}

/// Computes every definition's lifetime over a full trace.
///
/// # Examples
///
/// ```
/// use ch_analysis::lifetimes_of;
/// use ch_common::inst::{DstTag, DynInst};
/// use ch_common::op::OpClass;
///
/// let trace = vec![
///     DynInst::new(0, 0, OpClass::IntAlu).with_dst(DstTag::Reg(1)),
///     DynInst::new(1, 4, OpClass::IntAlu).with_srcs(&[0]).with_dst(DstTag::Reg(2)),
///     DynInst::new(2, 8, OpClass::IntAlu).with_srcs(&[0]),
/// ];
/// let d = lifetimes_of(trace.iter());
/// assert_eq!(d.defs[0].2, 2); // def 0 last read at seq 2
/// ```
pub fn lifetimes_of<'a>(trace: impl Iterator<Item = &'a DynInst>) -> LifetimeDist {
    // Each def's third field holds its last read's seq until the end.
    let mut defs: Vec<(u64, DstTag, u64)> = Vec::new();
    // seq -> def order; NO_DEF for an instruction without a destination.
    let mut def_index: Vec<u32> = Vec::with_capacity(trace.size_hint().0);
    let mut total = 0u64;
    for inst in trace {
        total += 1;
        for p in inst.sources() {
            if let Some(&di) = def_index.get(p as usize) {
                if di != NO_DEF {
                    defs[di as usize].2 = inst.seq;
                }
            }
        }
        if def_index.len() <= inst.seq as usize {
            def_index.resize(inst.seq as usize + 1, NO_DEF);
        }
        if let Some(tag) = inst.dst {
            def_index[inst.seq as usize] = u32::try_from(defs.len())
                .ok()
                .filter(|&d| d != NO_DEF)
                .expect("fewer than 2^32 definitions");
            defs.push((inst.seq, tag, inst.seq));
        }
    }
    for (seq, _, last_use) in &mut defs {
        *last_use -= *seq;
    }
    LifetimeDist {
        defs,
        total_insts: total,
    }
}

/// `lifetimes_of`'s "no definition at this seq" marker.
const NO_DEF: u32 = u32::MAX;

/// CCDF over definitions: for each power-of-two bucket `k`, the fraction
/// of definitions with lifetime ≥ `k` (the y-axis of Fig. 4/17/18),
/// normalised by the total definition count.
///
/// `filter` selects which definitions participate (e.g. one hand for
/// Fig. 18); pass `|_| true` for all.
pub fn lifetime_ccdf(dist: &LifetimeDist, filter: impl Fn(DstTag) -> bool) -> Vec<(u64, f64)> {
    // counts[b]: lifetimes with bit length b (0 for a lifetime of 0), so
    // a lifetime is >= 2^j exactly when its bit length exceeds j.
    let mut counts = [0u64; 65];
    let (mut len, mut max) = (0u64, 0u64);
    for &(_, tag, l) in &dist.defs {
        if filter(tag) {
            counts[(u64::BITS - l.leading_zeros()) as usize] += 1;
            len += 1;
            max = max.max(l);
        }
    }
    let n = len.max(1) as f64;
    let max = max.max(1);
    let mut at_least = len - counts[0];
    let mut out = Vec::new();
    let mut k = 1u64;
    let mut bits = 1;
    // Pad one zero bucket past the maximum so consumers see the cutoff
    // (STRAIGHT's distribution ends exactly at 127).
    while k <= max * 2 {
        out.push((k, at_least as f64 / n));
        at_least -= counts[bits];
        bits += 1;
        k *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::inst::DstTag;
    use ch_common::op::OpClass;

    fn inst(seq: u64, srcs: &[u64], dst: Option<DstTag>) -> DynInst {
        let mut i = DynInst::new(seq, seq * 4, OpClass::IntAlu).with_srcs(srcs);
        i.dst = dst;
        i
    }

    #[test]
    fn unread_definition_has_zero_lifetime() {
        let t = [inst(0, &[], Some(DstTag::Reg(1)))];
        let d = lifetimes_of(t.iter());
        assert_eq!(d.defs[0].2, 0);
    }

    #[test]
    fn lifetime_spans_to_last_use() {
        let t = [
            inst(0, &[], Some(DstTag::Reg(1))),
            inst(1, &[0], None),
            inst(2, &[], Some(DstTag::Reg(2))),
            inst(3, &[0], None), // reads def 0 again
        ];
        let d = lifetimes_of(t.iter());
        assert_eq!(d.defs[0].2, 3);
        assert_eq!(d.defs[1].2, 0);
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing() {
        let mut t = Vec::new();
        // defs with lifetimes 1, 2, 4, ..., 64 (geometric).
        let mut seq = 0u64;
        for e in 0..7u64 {
            let def = seq;
            t.push(inst(def, &[], Some(DstTag::Reg(1))));
            seq += 1 << e;
            t.push(inst(seq, &[def], None));
            seq += 1;
        }
        // renumber sequentially
        for (i, inst) in t.iter_mut().enumerate() {
            inst.seq = i as u64;
        }
        // (lifetimes distort, but monotonicity must hold regardless)
        let d = lifetimes_of(t.iter());
        let ccdf = lifetime_ccdf(&d, |_| true);
        for w in ccdf.windows(2) {
            assert!(w[1].1 <= w[0].1);
        }
        assert!((ccdf[0].1 - 1.0).abs() < 1e-9 || ccdf[0].1 <= 1.0);
    }

    /// The sort-based CCDF `lifetime_ccdf` replaced, kept as its oracle.
    fn ccdf_by_sorting(dist: &LifetimeDist, filter: impl Fn(DstTag) -> bool) -> Vec<(u64, f64)> {
        let mut lifetimes: Vec<u64> = dist
            .defs
            .iter()
            .filter(|(_, tag, _)| filter(*tag))
            .map(|&(_, _, l)| l)
            .collect();
        lifetimes.sort_unstable();
        let n = lifetimes.len().max(1) as f64;
        let mut out = Vec::new();
        let mut k = 1u64;
        let max = lifetimes.last().copied().unwrap_or(0).max(1);
        while k <= max * 2 {
            let idx = lifetimes.partition_point(|&l| l < k);
            out.push((k, (lifetimes.len() - idx) as f64 / n));
            k *= 2;
        }
        out
    }

    fn bits(ccdf: &[(u64, f64)]) -> Vec<(u64, u64)> {
        ccdf.iter().map(|&(k, f)| (k, f.to_bits())).collect()
    }

    #[test]
    fn bucketed_ccdf_is_bit_identical_to_sorting() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for case in 0..200 {
            let n = (next() % 300) as usize;
            // Lifetimes spread over many octaves, with exact powers of
            // two and their neighbours (the bucket edges) over-weighted.
            let defs = (0..n)
                .map(|i| {
                    let r = next();
                    let l = match r % 4 {
                        0 => 0,
                        1 => (1u64 << ((r >> 8) % 40))
                            .wrapping_add((r >> 16) % 3)
                            .wrapping_sub(1),
                        _ => r >> (20 + (r >> 4) % 44),
                    };
                    (i as u64, DstTag::Hand((r >> 2) as u8 % 4), l)
                })
                .collect();
            let d = LifetimeDist {
                defs,
                total_insts: n as u64,
            };
            for hand in [None, Some(0), Some(3)] {
                let f = |t: DstTag| hand.is_none() || t.hand() == hand;
                assert_eq!(
                    bits(&lifetime_ccdf(&d, f)),
                    bits(&ccdf_by_sorting(&d, f)),
                    "case {case}, hand {hand:?}"
                );
            }
        }
        let empty = LifetimeDist::default();
        assert_eq!(
            bits(&lifetime_ccdf(&empty, |_| true)),
            bits(&ccdf_by_sorting(&empty, |_| true))
        );
    }

    #[test]
    fn filter_selects_hands() {
        let t = [
            inst(0, &[], Some(DstTag::Hand(0))),
            inst(1, &[0], Some(DstTag::Hand(2))),
            inst(2, &[1], None),
        ];
        let d = lifetimes_of(t.iter());
        let only_t = lifetime_ccdf(&d, |tag| tag.hand() == Some(0));
        let only_v = lifetime_ccdf(&d, |tag| tag.hand() == Some(2));
        assert!(!only_t.is_empty());
        assert!(!only_v.is_empty());
    }
}
