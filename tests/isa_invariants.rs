//! Property-based tests on the core ISA data structures: the hand file,
//! the register-pointer ring allocation, and the binary encodings of all
//! three ISAs.

use ch_baselines::riscv::{Reg, RvInst, NUM_REGS};
use ch_baselines::straight::{StInst, StSrc, MAX_DISTANCE as MAX_ST_DISTANCE};
use ch_common::exec::{AluOp, BrCond, LoadOp, StoreOp};
use ch_common::isa::{Inst, Operands};
use ch_common::EncodingVariant;
use ch_encode::{
    decode_clockhands, decode_riscv, decode_straight, encode_clockhands, encode_riscv,
    encode_straight, DecodeError, EncodeError, EncodedProgram,
};
use clockhands::hand::Hand;
use clockhands::inst::{Clockhands, Src};
use clockhands::rp::RingFile;
use clockhands::state::HandFile;
use proptest::prelude::*;

/// An immediate: small, at an `i32` edge, or anywhere, so both inline
/// and pooled encodings and every field boundary get drawn.
fn arb_i32() -> Gen<i32> {
    prop_oneof![-64i32..64, Just(i32::MIN), Just(i32::MAX), any::<i32>()]
}

fn arb_i64() -> Gen<i64> {
    prop_oneof![-64i64..64, Just(i64::MIN), Just(i64::MAX), any::<i64>()]
}

fn pick<T: Copy + 'static>(all: &'static [T]) -> Gen<T> {
    (0..all.len()).prop_map(move |i| all[i])
}

/// Any instruction of ISA `O` with every field in its architectural
/// range: `dst` and `src` draw the ISA's operands, `isa_only` its
/// ISA-only variant. Targets are fixed up by [`arb_program`].
fn arb_inst<O: Operands>(
    dst: Gen<O::Dst>,
    src: Gen<O::Src>,
    isa_only: Gen<Inst<O>>,
) -> Gen<Inst<O>> {
    // Only the operations with an immediate form have an `AluImm` encoding.
    let imm_ops: Vec<AluOp> = AluOp::ALL
        .into_iter()
        .filter(|op| op.imm_mnemonic().is_some())
        .collect();
    let imm_op = (0..imm_ops.len()).prop_map(move |i| imm_ops[i]);
    let (d, s) = (dst, src);
    prop_oneof![
        (pick(&AluOp::ALL), d.clone(), s.clone(), s.clone()).prop_map(|(op, dst, src1, src2)| {
            Inst::Alu {
                op,
                dst,
                src1,
                src2,
            }
        }),
        (imm_op, d.clone(), s.clone(), arb_i32())
            .prop_map(|(op, dst, src1, imm)| { Inst::AluImm { op, dst, src1, imm } }),
        (d.clone(), arb_i64()).prop_map(|(dst, imm)| Inst::Li { dst, imm }),
        (pick(&LoadOp::ALL), d.clone(), s.clone(), arb_i32()).prop_map(
            |(op, dst, base, offset)| Inst::Load {
                op,
                dst,
                base,
                offset,
            }
        ),
        (pick(&StoreOp::ALL), s.clone(), s.clone(), arb_i32()).prop_map(
            |(op, value, base, offset)| Inst::Store {
                op,
                value,
                base,
                offset,
            }
        ),
        (pick(&BrCond::ALL), s.clone(), s.clone(), any::<u32>()).prop_map(
            |(cond, src1, src2, target)| Inst::Branch {
                cond,
                src1,
                src2,
                target,
            }
        ),
        any::<u32>().prop_map(|target| Inst::Jump { target }),
        (d.clone(), any::<u32>()).prop_map(|(dst, target)| Inst::Call { dst, target }),
        s.clone().prop_map(|src| Inst::JumpReg { src }),
        isa_only,
        (d, s.clone()).prop_map(|(dst, src)| Inst::Mv { dst, src }),
        Just(Inst::Nop),
        s.prop_map(|src| Inst::Halt { src }),
    ]
}

/// A random instruction sequence whose control-transfer targets all
/// name one of its instructions.
fn arb_program<O: Operands>(inst: Gen<Inst<O>>) -> Gen<Vec<Inst<O>>> {
    proptest::collection::vec(inst, 1..64).prop_map(|mut prog| {
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

fn arb_hand() -> Gen<Hand> {
    pick(&Hand::ALL)
}

/// Clockhands: hands as destinations; `hand[d]` up to each hand's
/// deepest encodable distance, or `zero`.
fn clockhands_program() -> Gen<Vec<Inst<Clockhands>>> {
    let src = prop_oneof![
        (arb_hand(), any::<u8>()).prop_map(|(h, d)| Src::Hand(h, d % (h.max_src_distance() + 1))),
        Just(Src::Zero),
    ];
    let call_reg =
        (arb_hand(), src.clone()).prop_map(|(dst, src)| Inst::CallReg { dst, src, isa: () });
    arb_program(arb_inst(arb_hand(), src, call_reg))
}

/// STRAIGHT: implicit destinations; `[1]`..`[127]`, `sp` or `zero`.
fn straight_program() -> Gen<Vec<StInst>> {
    let src = prop_oneof![
        (1u8..MAX_ST_DISTANCE + 1).prop_map(StSrc::Dist),
        Just(StSrc::Sp),
        Just(StSrc::Zero),
    ];
    let sp_addi = arb_i32().prop_map(|imm| StInst::SpAddi { imm, isa: () });
    arb_program(arb_inst(Just(()).into_gen(), src, sp_addi))
}

/// RISC-V: any of the 64 registers as destination or source.
fn riscv_program() -> Gen<Vec<RvInst>> {
    let reg = (0..NUM_REGS).prop_map(Reg);
    let call_reg =
        (reg.clone(), reg.clone()).prop_map(|(dst, src)| RvInst::CallReg { dst, src, isa: () });
    arb_program(arb_inst(reg.clone(), reg, call_reg))
}

/// One ISA's encoder and decoder over the shared instruction shape.
type Encoder<O> = fn(&[Inst<O>], EncodingVariant) -> Result<EncodedProgram, EncodeError>;
type Decoder<O> = fn(&[u8], &[u64]) -> Result<Vec<Inst<O>>, DecodeError>;

/// `decode(encode(p)) == p` under both encodings. Every field is drawn
/// from its architectural range, so every program encodes; wide
/// immediates and far displacements spill to the literal pool instead
/// of failing.
fn roundtrip<O: Operands>(
    prog: &[Inst<O>],
    encode: Encoder<O>,
    decode: Decoder<O>,
) -> TestCaseResult {
    for variant in EncodingVariant::ALL {
        let enc = encode(prog, variant)
            .map_err(|e| TestCaseError::fail(format!("{variant}: {e}: {prog:?}")))?;
        let back = decode(&enc.bytes, &enc.pool)
            .map_err(|e| TestCaseError::fail(format!("{variant}: {e}: {prog:?}")))?;
        prop_assert_eq!(&back, &prog.to_vec(), "{}", variant);
    }
    Ok(())
}

proptest! {
    #[test]
    fn encode_decode_roundtrip(
        ch in clockhands_program(),
        st in straight_program(),
        rv in riscv_program(),
    ) {
        roundtrip(&ch, encode_clockhands, decode_clockhands)?;
        roundtrip(&st, encode_straight, decode_straight)?;
        roundtrip(&rv, encode_riscv, decode_riscv)?;
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
