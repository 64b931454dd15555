//! Property-based tests on the core ISA data structures: the hand file,
//! the register-pointer ring allocation, and the binary encoding.

use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
use ch_common::EncodingVariant;
use ch_encode::{decode_clockhands, encode_clockhands};
use clockhands::hand::Hand;
use clockhands::inst::{Inst, Src};
use clockhands::rp::RingFile;
use clockhands::state::HandFile;
use proptest::prelude::*;

fn arb_hand() -> impl Strategy<Value = Hand> {
    prop_oneof![Just(Hand::T), Just(Hand::U), Just(Hand::V), Just(Hand::S)]
}

fn arb_src() -> impl Strategy<Value = Src> {
    prop_oneof![
        (arb_hand(), 0u8..15).prop_map(|(h, d)| Src::Hand(h, d)),
        Just(Src::Zero),
    ]
}

fn arb_inst() -> impl Strategy<Value = Inst> {
    let alu_op = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Xor),
        Just(AluOp::Fadd),
        Just(AluOp::Fdiv),
    ];
    prop_oneof![
        (alu_op, arb_hand(), arb_src(), arb_src()).prop_map(|(op, dst, src1, src2)| Inst::Alu {
            op,
            dst,
            src1,
            src2
        }),
        (arb_hand(), arb_src(), -8000i32..8000).prop_map(|(dst, src1, imm)| Inst::AluImm {
            op: AluOp::Add,
            dst,
            src1,
            imm
        }),
        (arb_hand(), -4_000_000i64..4_000_000).prop_map(|(dst, imm)| Inst::Li { dst, imm }),
        (arb_hand(), arb_src(), -8000i32..8000).prop_map(|(dst, base, offset)| Inst::Load {
            op: LoadOp::Ld,
            dst,
            base,
            offset
        }),
        (arb_src(), arb_src(), -500i32..500).prop_map(|(value, base, offset)| Inst::Store {
            op: StoreOp::Sd,
            value,
            base,
            offset
        }),
        (arb_src(), arb_src(), 0u32..400).prop_map(|(src1, src2, target)| Inst::Branch {
            cond: BrCond::Ne,
            src1,
            src2,
            target
        }),
        (0u32..400).prop_map(|target| Inst::Jump { target }),
        (arb_hand(), 0u32..400).prop_map(|(dst, target)| Inst::Call { dst, target }),
        (arb_src()).prop_map(|src| Inst::JumpReg { src }),
        (arb_hand(), arb_src()).prop_map(|(dst, src)| Inst::Mv { dst, src }),
        Just(Inst::Nop),
        (arb_src()).prop_map(|src| Inst::Halt { src }),
    ]
}

/// A random instruction sequence whose control-transfer targets all
/// land inside it.
fn arb_program() -> impl Strategy<Value = Vec<Inst>> {
    proptest::collection::vec(arb_inst(), 1..64).prop_map(|mut prog| {
        let n = prog.len() as u32;
        for inst in &mut prog {
            if let Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target, .. } =
                inst
            {
                *target %= n;
            }
        }
        prog
    })
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(prog in arb_program()) {
        // Every field is drawn from its architectural range, so every
        // program encodes; wide immediates and far displacements spill
        // to the literal pool instead of failing.
        for variant in EncodingVariant::ALL {
            let enc = encode_clockhands(&prog, variant).expect("in-range program encodes");
            let back = decode_clockhands(&enc.bytes, &enc.pool).expect("decodes");
            prop_assert_eq!(&back, &prog, "{}", variant);
        }
    }

    #[test]
    fn hand_file_behaves_like_a_shift_register(
        writes in proptest::collection::vec((arb_hand(), any::<u64>()), 1..200)
    ) {
        // Model: per-hand Vec of all values; hand[d] = len-1-d.
        let mut file = HandFile::new();
        let mut model: [Vec<u64>; 4] = Default::default();
        for (i, (h, v)) in writes.iter().enumerate() {
            file.write(*h, *v, i as u64);
            model[h.index()].push(*v);
        }
        for h in Hand::ALL {
            let m = &model[h.index()];
            for d in 0..15u8 {
                if (d as usize) < m.len() {
                    prop_assert_eq!(file.read(h, d).unwrap(), m[m.len() - 1 - d as usize]);
                }
            }
        }
    }

    #[test]
    fn ring_file_group_alloc_equals_sequential(
        group in proptest::collection::vec(
            (proptest::option::of(0usize..4),
             proptest::collection::vec((0usize..4, 0u32..4), 0..2)),
            1..16
        ),
        warmup in 8u64..64
    ) {
        let quotas = [64u32, 48, 32, 24];
        let mut a = RingFile::new(&quotas, 16);
        let mut b = RingFile::new(&quotas, 16);
        // Warm up so every source distance is resolvable.
        for i in 0..warmup {
            for g in 0..4 {
                let _ = a.alloc(g);
                let _ = b.alloc(g);
            }
            let _ = i;
        }
        let got = a.alloc_group(&group);
        let mut want = Vec::new();
        for (dst, srcs) in &group {
            let srcs_phys: Vec<u32> = srcs.iter().map(|&(g, d)| b.src_phys(g, d)).collect();
            let dst_phys = dst.map(|g| b.alloc(g));
            want.push((dst_phys, srcs_phys));
        }
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.dst, w.0);
            prop_assert_eq!(&g.srcs, &w.1);
        }
    }

    #[test]
    fn ring_file_restore_is_total(ops in proptest::collection::vec(0usize..4, 1..100)) {
        let mut rp = RingFile::new(&[64, 48, 32, 24], 16);
        for &g in ops.iter().take(20) {
            rp.alloc(g);
        }
        let snap = rp.snapshot();
        let before: Vec<u64> = (0..4).map(|g| rp.writes(g)).collect();
        for &g in &ops {
            rp.alloc(g);
        }
        rp.restore(&snap);
        for (g, &w) in before.iter().enumerate() {
            prop_assert_eq!(rp.writes(g), w);
        }
    }
}
