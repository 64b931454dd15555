//! Bit-accurate binary instruction encodings and byte-level code layout.
//!
//! The rest of the workspace treats programs as `Vec<Inst>` with an
//! abstract program counter of `TEXT_BASE + 4 * index`. That is exactly
//! right for dataflow, but it erases the paper's *code density* story:
//! Clockhands source operands are a 2-bit hand plus a short distance,
//! while STRAIGHT needs wide distance fields and a conventional RISC
//! needs full register specifiers. This crate makes the comparison
//! measurable by giving each of the three ISAs a concrete binary format
//! and a byte-accurate layout:
//!
//! * a **fixed-width** 32-bit format per ISA (every instruction four
//!   bytes, PCs identical to the abstract layout), and
//! * a **compressed** variant per ISA mixing 16- and 32-bit forms under
//!   the RVC length-tag convention (low bit pair `0b11` marks a 32-bit
//!   unit), with branch relaxation re-run to a fixpoint when shortened
//!   code pulls targets into or out of compact displacement range.
//!
//! Immediates that do not fit their inline field spill to a per-program
//! **literal pool** of deduplicated 64-bit constants (an escape flag in
//! each immediate field selects inline vs. pool index), so encoding is
//! total over the workspace's instruction streams rather than failing
//! on large constants. [`Layout`] reports the resulting byte PCs so the
//! simulator's fetch path and the density experiment can consume real
//! instruction sizes; [`relocate_trace`] rewrites a committed trace
//! from abstract PCs to laid-out PCs.
//!
//! `encode_*`/`decode_*` round-trip bit-for-bit: `decode(encode(p)) ==
//! p` for every encodable program, and decoding arbitrary bytes either
//! yields instructions or a structured [`DecodeError`] — never a panic.
//! Decoding is canonical: a unit that decodes re-encodes to the same
//! bits, because each ISA declares every format once in a form table
//! (a tag plus an ordered field list) from which encoding, decoding and
//! the reserved-bit check all derive.

use ch_common::inst::DynInst;
use ch_common::EncodingVariant;

mod bits;
mod form;
// The Clockhands codec module cannot be *named* `clockhands` — that
// would shadow the `clockhands` crate whose instructions it encodes.
#[path = "clockhands.rs"]
mod clockhands_codec;
mod riscv;
mod straight;
mod stream;

/// Base address of the text section: the abstract layout's, shared by
/// every ISA's program.
pub use ch_common::isa::TEXT_BASE;

/// Byte-accurate code layout: per-instruction sizes and PCs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Encoded size in bytes of each instruction (2 or 4).
    pub sizes: Vec<u8>,
    /// Byte PC of each instruction, plus one end-of-text sentinel, so
    /// `pcs` has `sizes.len() + 1` entries and the end of the text (a
    /// final call's return address) stays addressable.
    pub pcs: Vec<u64>,
}

impl Layout {
    /// Byte PC of instruction `index` (the end sentinel is reachable).
    pub fn pc_of(&self, index: usize) -> u64 {
        self.pcs[index]
    }

    /// Total text-section size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.pcs[self.sizes.len()] - TEXT_BASE
    }

    /// How many instructions took the 16-bit form.
    pub fn compact_count(&self) -> usize {
        self.sizes.iter().filter(|&&s| s == 2).count()
    }

    /// Maps an abstract PC (`TEXT_BASE + 4 * index`) to the laid-out
    /// byte PC. The end-of-text address maps to the end sentinel.
    pub fn relocate_pc(&self, abstract_pc: u64) -> u64 {
        self.pcs[((abstract_pc - TEXT_BASE) / 4) as usize]
    }

    /// One committed instruction moved from its abstract PC
    /// (`TEXT_BASE + 4i`) onto this layout: the laid-out byte PC, the
    /// real instruction size, and a taken-branch target relocated when
    /// it points into the text section. Targets outside the text section
    /// (there are none today, but indirect targets are forwarded
    /// untouched as a guard) pass through unchanged.
    pub fn relocate(&self, inst: &DynInst) -> DynInst {
        let mut d = inst.clone();
        self.relocate_in_place(&mut d);
        d
    }

    fn relocate_in_place(&self, d: &mut DynInst) {
        let end = TEXT_BASE + 4 * self.sizes.len() as u64;
        let in_text = |pc: u64| pc >= TEXT_BASE && pc <= end && pc.is_multiple_of(4);
        debug_assert!(in_text(d.pc), "trace pc {:#x} outside text", d.pc);
        let idx = ((d.pc - TEXT_BASE) / 4) as usize;
        d.pc = self.pcs[idx];
        d.size = self.sizes[idx];
        if let Some(ctrl) = d.ctrl() {
            if in_text(ctrl.target) {
                d.set_ctrl_target(self.relocate_pc(ctrl.target));
            }
        }
    }

    /// Whether relocation onto this layout is the identity map: every
    /// instruction 4 bytes wide at its abstract PC `TEXT_BASE + 4i`.
    pub fn is_identity(&self) -> bool {
        self.sizes.iter().all(|&s| s == 4)
            && self
                .pcs
                .iter()
                .enumerate()
                .all(|(i, &pc)| pc == TEXT_BASE + 4 * i as u64)
    }
}

/// An encoded program: code bytes, literal pool, and layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedProgram {
    /// Which variant the program was encoded under.
    pub variant: EncodingVariant,
    /// The laid-out little-endian code bytes.
    pub bytes: Vec<u8>,
    /// Deduplicated 64-bit literal-pool values referenced by
    /// pool-escaped immediate fields.
    pub pool: Vec<u64>,
    /// Per-instruction sizes and byte PCs.
    pub layout: Layout,
}

impl EncodedProgram {
    /// Static code footprint: text bytes plus the literal pool (eight
    /// bytes per pooled constant) — the numerator of bytes/instruction.
    pub fn static_bytes(&self) -> u64 {
        self.bytes.len() as u64 + 8 * self.pool.len() as u64
    }
}

/// An instruction stream that cannot be expressed in the binary format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// An operand the ISA does not have ([`ch_common::isa::Operands`]'
    /// range rule: e.g. a register number ≥ 64, or a hand distance past
    /// the ring depth), as a source or a destination.
    BadSrc {
        /// Index of the offending instruction.
        at: u32,
    },
    /// A control-transfer target points outside the program.
    BadTarget {
        /// Index of the offending instruction.
        at: u32,
        /// The out-of-range target index.
        target: u32,
    },
    /// The literal pool outgrew an immediate field's index space.
    PoolFull {
        /// Index of the instruction that overflowed the pool.
        at: u32,
    },
    /// A register-immediate ALU instruction whose operation has no
    /// immediate form (no immediate mnemonic, e.g. `sub` or `mul`).
    NoImmForm {
        /// Index of the offending instruction.
        at: u32,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            EncodeError::BadSrc { at } => {
                write!(
                    f,
                    "instruction {at}: source specifier out of encoding range"
                )
            }
            EncodeError::BadTarget { at, target } => {
                write!(
                    f,
                    "instruction {at}: branch target {target} outside program"
                )
            }
            EncodeError::PoolFull { at } => {
                write!(f, "instruction {at}: literal pool index field overflowed")
            }
            EncodeError::NoImmForm { at } => {
                write!(f, "instruction {at}: ALU operation has no immediate form")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// A byte stream that is not a well-formed encoded program.
///
/// Every variant carries the byte offset it was detected at; decoding
/// never panics on truncated or garbage input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The stream ends in the middle of an instruction unit.
    Truncated {
        /// Byte offset of the incomplete unit.
        at: usize,
    },
    /// An undefined major or compact opcode.
    BadOpcode {
        /// Byte offset of the unit.
        at: usize,
        /// The offending unit (low half for 16-bit units).
        word: u32,
    },
    /// A bit pattern in a must-be-zero field (reserved encoding).
    Reserved {
        /// Byte offset of the unit.
        at: usize,
        /// The offending unit.
        word: u32,
    },
    /// A source specifier pattern with no architectural meaning.
    BadSrc {
        /// Byte offset of the unit.
        at: usize,
        /// The offending unit.
        word: u32,
    },
    /// A displacement that does not land on an instruction: outside
    /// the text section, inside a unit, or at the end of the stream.
    BadTarget {
        /// Byte offset of the transferring unit.
        at: usize,
    },
    /// A pool-escaped immediate indexing past the literal pool.
    BadPool {
        /// Byte offset of the unit.
        at: usize,
        /// The out-of-range pool index.
        index: u32,
    },
    /// A pooled value too wide for a 32-bit immediate operand.
    BadImm {
        /// Byte offset of the unit.
        at: usize,
        /// The offending unit.
        word: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DecodeError::Truncated { at } => {
                write!(f, "byte {at}: stream truncated mid-instruction")
            }
            DecodeError::BadOpcode { at, word } => {
                write!(f, "byte {at}: undefined opcode in unit {word:#010x}")
            }
            DecodeError::Reserved { at, word } => {
                write!(f, "byte {at}: reserved bits set in unit {word:#010x}")
            }
            DecodeError::BadSrc { at, word } => {
                write!(
                    f,
                    "byte {at}: meaningless source specifier in unit {word:#010x}"
                )
            }
            DecodeError::BadTarget { at } => {
                write!(
                    f,
                    "byte {at}: branch displacement lands off an instruction boundary"
                )
            }
            DecodeError::BadPool { at, index } => {
                write!(f, "byte {at}: literal pool index {index} out of range")
            }
            DecodeError::BadImm { at, word } => {
                write!(
                    f,
                    "byte {at}: pooled immediate too wide for unit {word:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a Clockhands instruction stream under `variant`.
pub fn encode_clockhands(
    insts: &[::clockhands::inst::Inst],
    variant: EncodingVariant,
) -> Result<EncodedProgram, EncodeError> {
    let (bytes, pool, layout) = stream::encode_stream::<clockhands_codec::Ch>(insts, variant)?;
    Ok(EncodedProgram {
        variant,
        bytes,
        pool,
        layout,
    })
}

/// Decodes Clockhands code bytes back into instructions.
pub fn decode_clockhands(
    bytes: &[u8],
    pool: &[u64],
) -> Result<Vec<::clockhands::inst::Inst>, DecodeError> {
    stream::decode_stream::<clockhands_codec::Ch>(bytes, pool)
}

/// Encodes a STRAIGHT instruction stream under `variant`.
pub fn encode_straight(
    insts: &[ch_baselines::straight::StInst],
    variant: EncodingVariant,
) -> Result<EncodedProgram, EncodeError> {
    let (bytes, pool, layout) = stream::encode_stream::<straight::St>(insts, variant)?;
    Ok(EncodedProgram {
        variant,
        bytes,
        pool,
        layout,
    })
}

/// Decodes STRAIGHT code bytes back into instructions.
pub fn decode_straight(
    bytes: &[u8],
    pool: &[u64],
) -> Result<Vec<ch_baselines::straight::StInst>, DecodeError> {
    stream::decode_stream::<straight::St>(bytes, pool)
}

/// Encodes a RISC-V-style instruction stream under `variant`.
pub fn encode_riscv(
    insts: &[ch_baselines::riscv::RvInst],
    variant: EncodingVariant,
) -> Result<EncodedProgram, EncodeError> {
    let (bytes, pool, layout) = stream::encode_stream::<riscv::Rv>(insts, variant)?;
    Ok(EncodedProgram {
        variant,
        bytes,
        pool,
        layout,
    })
}

/// Decodes RISC-V-style code bytes back into instructions.
pub fn decode_riscv(
    bytes: &[u8],
    pool: &[u64],
) -> Result<Vec<ch_baselines::riscv::RvInst>, DecodeError> {
    stream::decode_stream::<riscv::Rv>(bytes, pool)
}

/// Rewrites a committed trace in place from abstract PCs to the
/// laid-out byte PCs of `layout` ([`Layout::relocate`] on every
/// instruction).
pub fn relocate_trace(trace: &mut [DynInst], layout: &Layout) {
    for d in trace.iter_mut() {
        layout.relocate_in_place(d);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_common::inst::{CtrlInfo, CtrlKind, MemAccess};
    use ch_common::op::OpClass;

    /// The target rule `target < len`, at its boundary: encoding refuses
    /// a target equal to the instruction count, and a displacement to
    /// the end of the stream does not decode.
    macro_rules! check_end_target {
        ($encode:path, $decode:path, $jump:expr, $nop:expr) => {
            for variant in EncodingVariant::ALL {
                assert_eq!(
                    $encode(&[$jump(1)], variant).err(),
                    Some(EncodeError::BadTarget { at: 0, target: 1 }),
                    "{variant}"
                );
                // `j @1` over a second instruction encodes; the jump alone,
                // cut from that stream, displaces to the end.
                let two = $encode(&[$jump(1), $nop], variant).unwrap();
                let size = two.layout.sizes[0] as usize;
                assert_eq!(
                    $decode(&two.bytes[..size], &two.pool),
                    Err(DecodeError::BadTarget { at: 0 }),
                    "{variant}"
                );
                assert_eq!($decode(&two.bytes, &two.pool), Ok(vec![$jump(1), $nop]));
            }
        };
    }

    #[test]
    fn a_target_at_the_end_neither_encodes_nor_decodes() {
        use ::clockhands::inst::Inst;
        use ch_baselines::{riscv::RvInst, straight::StInst};
        let ch = |target| Inst::Jump { target };
        let st = |target| StInst::Jump { target };
        let rv = |target| RvInst::Jump { target };
        check_end_target!(encode_clockhands, decode_clockhands, ch, Inst::Nop);
        check_end_target!(encode_straight, decode_straight, st, StInst::Nop);
        check_end_target!(encode_riscv, decode_riscv, rv, RvInst::Nop);
    }

    #[test]
    fn truncated_and_garbage_streams_are_structured_errors() {
        // One dangling byte.
        assert!(matches!(
            decode_clockhands(&[0x03], &[]),
            Err(DecodeError::Truncated { at: 0 })
        ));
        // A 32-bit length tag with only a halfword behind it.
        assert!(matches!(
            decode_riscv(&[0x03, 0x00], &[]),
            Err(DecodeError::Truncated { at: 0 })
        ));
        // An undefined 32-bit opcode: STRAIGHT has no register-indirect
        // call, so OP_CALLREG is unassigned there.
        let bad = (bits::OP_CALLREG << 2) | 0b11;
        assert!(matches!(
            decode_straight(&bad.to_le_bytes(), &[]),
            Err(DecodeError::BadOpcode { at: 0, .. })
        ));
        // Fuzz a window of byte soup: anything goes except a panic.
        for seed in 0u32..512 {
            let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
            let bytes: Vec<u8> = (0..10)
                .map(|_| {
                    x = x.wrapping_mul(1664525).wrapping_add(1013904223);
                    (x >> 24) as u8
                })
                .collect();
            let _ = decode_clockhands(&bytes, &[]);
            let _ = decode_straight(&bytes, &[1, 2]);
            let _ = decode_riscv(&bytes, &[]);
        }
    }

    #[test]
    fn alu_imm_needs_an_immediate_form() {
        use ::clockhands::{hand::Hand, inst::Inst, inst::Src};
        use ch_baselines::{riscv::Reg, riscv::RvInst, straight::StInst, straight::StSrc};
        use ch_common::exec::AluOp;
        // `sub` has no immediate mnemonic, so no ISA encodes `subi`.
        let sub = AluOp::Sub;
        let ch = Inst::AluImm {
            op: sub,
            dst: Hand::T,
            src1: Src::Zero,
            imm: 1,
        };
        let st = StInst::AluImm {
            dst: (),
            op: sub,
            src1: StSrc::Zero,
            imm: 1,
        };
        let rv = RvInst::AluImm {
            op: sub,
            dst: Reg(1),
            src1: Reg(1),
            imm: 1,
        };
        let refused = Err(EncodeError::NoImmForm { at: 0 });
        for variant in EncodingVariant::ALL {
            assert_eq!(encode_clockhands(&[ch], variant), refused);
            assert_eq!(encode_straight(&[st], variant), refused);
            assert_eq!(encode_riscv(&[rv], variant), refused);
        }
        // OP_ALUIMM carries only operations with an immediate mnemonic
        // and no dedicated opcode: `srli` decodes, `mul` (no immediate
        // form) and `add` (encoded as OP_ADDI) are undefined. The funct6
        // is the first field above the tag; every other field is zero.
        let word = |op| (bits::alu_funct(op) << 7 | bits::OP_ALUIMM << 2 | 0b11).to_le_bytes();
        assert!(decode_clockhands(&word(AluOp::Srl), &[]).is_ok());
        assert!(decode_straight(&word(AluOp::Srl), &[]).is_ok());
        assert!(decode_riscv(&word(AluOp::Srl), &[]).is_ok());
        for op in [AluOp::Mul, AluOp::Add] {
            let w = word(op);
            for err in [
                decode_clockhands(&w, &[]).err(),
                decode_straight(&w, &[]).err(),
                decode_riscv(&w, &[]).err(),
            ] {
                assert!(
                    matches!(err, Some(DecodeError::BadOpcode { at: 0, .. })),
                    "{op:?}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn relocate_trace_rewrites_pcs_sizes_and_targets() {
        let layout = Layout {
            sizes: vec![2, 4, 2, 2],
            pcs: vec![
                TEXT_BASE,
                TEXT_BASE + 2,
                TEXT_BASE + 6,
                TEXT_BASE + 8,
                TEXT_BASE + 10,
            ],
        };
        let mut trace = vec![
            DynInst::new(0, TEXT_BASE + 4, OpClass::IntAlu),
            DynInst::new(1, TEXT_BASE + 8, OpClass::Jump).with_ctrl(
                CtrlKind::Jump,
                true,
                TEXT_BASE,
            ),
            // A target at the end of the text resolves to the sentinel.
            DynInst::new(2, TEXT_BASE + 12, OpClass::Jump).with_ctrl(
                CtrlKind::Jump,
                true,
                TEXT_BASE + 16,
            ),
            // Direction and kind survive a relocated target.
            DynInst::new(3, TEXT_BASE, OpClass::CondBr).with_ctrl(
                CtrlKind::Cond,
                false,
                TEXT_BASE + 4,
            ),
            // A data address that happens to fall in the text range is
            // not a target and stays put.
            DynInst::new(4, TEXT_BASE + 4, OpClass::Load).with_mem(TEXT_BASE + 8, 8),
        ];
        assert!(!layout.is_identity());
        relocate_trace(&mut trace, &layout);
        assert_eq!(trace[0].pc, TEXT_BASE + 2);
        assert_eq!(trace[0].size, 4);
        assert_eq!(trace[1].pc, TEXT_BASE + 6);
        assert_eq!(trace[1].size, 2);
        assert_eq!(trace[1].ctrl().unwrap().target, TEXT_BASE);
        assert_eq!(trace[2].ctrl().unwrap().target, TEXT_BASE + 10);
        assert_eq!(
            trace[3].ctrl(),
            Some(CtrlInfo {
                kind: CtrlKind::Cond,
                taken: false,
                target: TEXT_BASE + 2,
            })
        );
        assert_eq!(trace[3].mem(), None);
        assert_eq!(
            trace[4].mem(),
            Some(MemAccess {
                addr: TEXT_BASE + 8,
                size: 8,
            })
        );
        assert_eq!(trace[4].ctrl(), None);
    }

    #[test]
    fn layout_metrics() {
        let layout = Layout {
            sizes: vec![2, 4, 2],
            pcs: vec![TEXT_BASE, TEXT_BASE + 2, TEXT_BASE + 6, TEXT_BASE + 8],
        };
        assert_eq!(layout.total_bytes(), 8);
        assert_eq!(layout.compact_count(), 2);
        assert_eq!(layout.relocate_pc(TEXT_BASE + 8), TEXT_BASE + 6);
    }
}
