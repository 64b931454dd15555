//! Executed-instruction breakdowns: class mix (Fig. 15) and per-hand
//! read/write usage (Fig. 16).

use ch_common::inst::{DstTag, DynInst, NO_PRODUCER};
use ch_common::op::OpClass;

/// Instruction counts per Fig. 15 class.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstructionMix {
    /// Count per [`OpClass`], indexed by position in [`OpClass::ALL`].
    pub counts: [u64; 13],
    /// Total instructions.
    pub total: u64,
}

impl InstructionMix {
    /// The count for one class.
    pub fn count(&self, class: OpClass) -> u64 {
        let idx = OpClass::ALL
            .iter()
            .position(|&c| c == class)
            .expect("known class");
        self.counts[idx]
    }

    /// Counts merged into the Fig. 15 legend categories
    /// (Mul+Div and FLOPs merge two classes each).
    pub fn by_label(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (i, class) in OpClass::ALL.iter().enumerate() {
            let label = class.label();
            match out.iter_mut().find(|(l, _)| *l == label) {
                Some((_, n)) => *n += self.counts[i],
                None => out.push((label, self.counts[i])),
            }
        }
        out
    }
}

/// Classifies a trace (Fig. 15).
pub fn instruction_mix<'a>(trace: impl Iterator<Item = &'a DynInst>) -> InstructionMix {
    let mut mix = InstructionMix::default();
    for inst in trace {
        let idx = OpClass::ALL
            .iter()
            .position(|&c| c == inst.class)
            .expect("known class");
        mix.counts[idx] += 1;
        mix.total += 1;
    }
    mix
}

/// Per-hand read/write counts (Fig. 16). Reads attribute to the hand the
/// producer wrote (a `t[2]` read is a read of hand t); instructions
/// without a destination count in `no_dst_writes`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HandUsage {
    /// Writes per hand (t, u, v, s).
    pub writes: [u64; 4],
    /// Reads per hand (t, u, v, s).
    pub reads: [u64; 4],
    /// Instructions with no destination hand.
    pub no_dst_writes: u64,
    /// Total instructions.
    pub total: u64,
}

/// Computes hand usage from a Clockhands trace.
pub fn hand_usage<'a>(trace: impl Iterator<Item = &'a DynInst> + Clone) -> HandUsage {
    let mut u = HandUsage::default();
    // Producer seq -> hand written, for read attribution.
    let mut dst_hand: Vec<i8> = Vec::new();
    for inst in trace {
        u.total += 1;
        while dst_hand.len() <= inst.seq as usize {
            dst_hand.push(-1);
        }
        for p in inst.sources() {
            if p != NO_PRODUCER {
                if let Some(&h) = dst_hand.get(p as usize) {
                    if h >= 0 {
                        u.reads[h as usize] += 1;
                    }
                }
            }
        }
        match inst.dst {
            Some(DstTag::Hand(h)) => {
                u.writes[h as usize] += 1;
                dst_hand[inst.seq as usize] = h as i8;
            }
            Some(_) => {
                dst_hand[inst.seq as usize] = -1;
            }
            None => u.no_dst_writes += 1,
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::exec::Machine;
    use ch_compiler::compile;
    use clockhands::interp::Interpreter;

    fn ch_trace(src: &str) -> Vec<DynInst> {
        let set = compile(src).expect("compiles");
        Interpreter::new(set.clockhands)
            .expect("valid")
            .trace(50_000_000)
            .expect("runs")
            .0
    }

    #[test]
    fn mix_sums_to_total() {
        let t = ch_trace(
            "fn main() -> int {
                 var s: int = 0;
                 for (var i: int = 0; i < 50; i += 1) { s += i; }
                 return s;
             }",
        );
        let mix = instruction_mix(t.iter());
        assert_eq!(mix.counts.iter().sum::<u64>(), mix.total);
        assert!(mix.count(OpClass::CondBr) >= 50);
        let labels: Vec<&str> = mix.by_label().iter().map(|(l, _)| *l).collect();
        assert_eq!(labels.len(), 11, "Fig. 15 has 11 legend entries");
    }

    #[test]
    fn t_hand_is_written_most_v_read_heavy() {
        // Fig. 16's qualitative claims on a loop-heavy kernel.
        let t = ch_trace(
            "global a: int[64];
             fn main() -> int {
                 var s: int = 0;
                 for (var i: int = 0; i < 64; i += 1) { s += a[i] * 3; }
                 return s;
             }",
        );
        let u = hand_usage(t.iter());
        let t_writes = u.writes[0];
        let v_writes = u.writes[2];
        let v_reads = u.reads[2];
        assert!(t_writes > v_writes, "t written most: {:?}", u.writes);
        assert!(
            v_reads > v_writes * 4,
            "v read-heavy: r={v_reads} w={v_writes}"
        );
    }

    #[test]
    fn s_hand_rarely_written_in_leaf_code() {
        let t = ch_trace(
            "fn main() -> int { var s: int = 0;
            for (var i: int = 0; i < 100; i += 1) { s += i; } return s; }",
        );
        let u = hand_usage(t.iter());
        assert!(
            u.writes[3] < u.total / 20,
            "s writes {:?} of {}",
            u.writes[3],
            u.total
        );
    }
}
