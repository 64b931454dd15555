//! The dynamic-instruction record exchanged between functional emulators,
//! the timing simulator, and the trace analyses.
//!
//! A functional emulator executes a program and yields one [`DynInst`] per
//! *committed* instruction, in program order. Register dataflow is resolved
//! to *producer sequence numbers*: each source carries the `seq` of the
//! dynamic instruction that produced the value. This makes the record
//! ISA-agnostic — the three ISAs differ in *which* instructions exist
//! (relay `mv`s, `nop`s, spills) and in destination tags, not in how the
//! record is shaped.

use crate::op::OpClass;
use std::fmt;

// Traces are shared across experiment worker threads (compile-time audit).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DynInst>()
};

/// Sentinel meaning "no producer": the source is a constant, the zero
/// register, or a value that existed before the trace began.
pub const NO_PRODUCER: u64 = u64::MAX;

/// Destination tag: where an instruction's result goes, in ISA terms.
///
/// Used for the Fig. 16 hand-usage breakdown and by the per-ISA physical
/// register allocation models in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DstTag {
    /// Conventional RISC: a logical register number.
    Reg(u8),
    /// STRAIGHT: the implicitly allocated next slot of the single ring.
    RingSlot,
    /// Clockhands: a write to hand `0..4` (t, u, v, s in compiler order).
    Hand(u8),
}

impl DstTag {
    /// The hand index for a Clockhands write, if this is one.
    pub fn hand(self) -> Option<u8> {
        match self {
            DstTag::Hand(h) => Some(h),
            _ => None,
        }
    }
}

/// Control-flow kind of a branch-class instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtrlKind {
    /// Direct call (pushes the return address stack).
    Call,
    /// Return (pops the return address stack); always register-indirect.
    Ret,
    /// Unconditional direct jump.
    Jump,
    /// Register-indirect jump or call that is not a return.
    IndirectJump,
    /// Conditional direct branch.
    Cond,
}

impl CtrlKind {
    /// Whether the target comes from a register (needs the BTB to predict).
    pub fn is_indirect(self) -> bool {
        matches!(self, CtrlKind::Ret | CtrlKind::IndirectJump)
    }

    /// A 3-bit code for packed record formats (`0..=4`, in declaration
    /// order); [`CtrlKind::from_code`] inverts it.
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// The kind with [`code`](CtrlKind::code) `code`; codes above 4 read
    /// as [`CtrlKind::Cond`].
    pub fn from_code(code: u8) -> CtrlKind {
        match code {
            0 => CtrlKind::Call,
            1 => CtrlKind::Ret,
            2 => CtrlKind::Jump,
            3 => CtrlKind::IndirectJump,
            _ => CtrlKind::Cond,
        }
    }
}

/// Resolved control-flow outcome of a branch-class instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CtrlInfo {
    /// What kind of control transfer this is.
    pub kind: CtrlKind,
    /// Whether the branch was taken (always true except fall-through conds).
    pub taken: bool,
    /// The target address if taken.
    pub target: u64,
}

/// Resolved memory access of a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Effective byte address.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4, or 8).
    pub size: u8,
}

/// One committed dynamic instruction.
///
/// A 48-byte record. A load or store never carries a control outcome, so
/// the memory access and the control transfer share one private payload
/// word (the effective address or the target) and one tag byte (the
/// access size, or the control kind and taken bit); read them through
/// [`mem`](DynInst::mem) and [`ctrl`](DynInst::ctrl).
///
/// # Examples
///
/// ```
/// use ch_common::inst::{DstTag, DynInst};
/// use ch_common::op::OpClass;
///
/// let add = DynInst::new(7, 0x1000, OpClass::IntAlu)
///     .with_srcs(&[3, 5])
///     .with_dst(DstTag::Hand(0));
/// assert_eq!(add.seq, 7);
/// assert_eq!(add.sources().collect::<Vec<_>>(), vec![3, 5]);
/// assert!(add.dst.is_some());
/// assert!(add.mem().is_none() && add.ctrl().is_none());
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct DynInst {
    /// Commit-order sequence number (0-based, dense).
    pub seq: u64,
    /// Program counter of the static instruction.
    pub pc: u64,
    /// Producer `seq` for each register source; [`NO_PRODUCER`] when absent.
    pub srcs: [u64; 2],
    /// The memory address or the control target; 0 when `tag` is
    /// [`TAG_NONE`].
    payload: u64,
    /// Encoded size of the static instruction in bytes (4 for the
    /// abstract fixed-width layout; 2 or 4 under a compressed encoding).
    pub size: u8,
    /// Operation class.
    pub class: OpClass,
    /// Destination tag, if the instruction writes a register.
    pub dst: Option<DstTag>,
    /// What `payload` holds: see the `TAG_*` constants.
    tag: u8,
}

const _: () = assert!(std::mem::size_of::<DynInst>() == 48);

// ---- the payload tag byte ----
// 0                      neither a memory access nor a control transfer
// 0b10ss_ssss            memory access of `s` bytes (s < 64)
// 0b1100_kkkT            control transfer of kind `k`, taken if `T`
// The top two bits (`TAG_CLASS`) say which; the control class fills
// both of them, so `TAG_CTRL` equals the class mask.
const TAG_NONE: u8 = 0;
const TAG_CLASS: u8 = 0b1100_0000;
const TAG_MEM: u8 = 0b1000_0000;
const TAG_CTRL: u8 = TAG_CLASS;
const MEM_SIZE_MASK: u8 = 0b0011_1111;
const CTRL_TAKEN: u8 = 1;
const CTRL_KIND_SHIFT: u32 = 1;

impl DynInst {
    /// Creates a record with no sources, destination, memory, or control,
    /// at the abstract fixed-width size of 4 bytes.
    pub fn new(seq: u64, pc: u64, class: OpClass) -> Self {
        DynInst {
            seq,
            pc,
            srcs: [NO_PRODUCER; 2],
            payload: 0,
            size: 4,
            class,
            dst: None,
            tag: TAG_NONE,
        }
    }

    /// Sets the encoded instruction size in bytes.
    pub fn with_size(mut self, size: u8) -> Self {
        self.size = size;
        self
    }

    /// Sets up to two register-source producers.
    ///
    /// # Panics
    ///
    /// Panics if more than two sources are supplied.
    pub fn with_srcs(mut self, producers: &[u64]) -> Self {
        assert!(producers.len() <= 2, "at most two register sources");
        for (slot, &p) in self.srcs.iter_mut().zip(producers) {
            *slot = p;
        }
        self
    }

    /// Sets the destination tag.
    pub fn with_dst(mut self, dst: DstTag) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Sets the memory access.
    ///
    /// # Panics
    ///
    /// Panics if the record already carries a control outcome, or if
    /// `size` is 64 bytes or more.
    pub fn with_mem(mut self, addr: u64, size: u8) -> Self {
        assert!(
            self.tag & TAG_CLASS != TAG_CTRL,
            "a record is not both a memory access and a control transfer"
        );
        assert!(size <= MEM_SIZE_MASK, "memory access size {size} too large");
        self.payload = addr;
        self.tag = TAG_MEM | size;
        self
    }

    /// Sets the control-flow outcome.
    ///
    /// # Panics
    ///
    /// Panics if the record already carries a memory access.
    pub fn with_ctrl(mut self, kind: CtrlKind, taken: bool, target: u64) -> Self {
        assert!(
            self.tag & TAG_CLASS != TAG_MEM,
            "a record is not both a memory access and a control transfer"
        );
        self.payload = target;
        self.tag = TAG_CTRL | (kind.code() << CTRL_KIND_SHIFT) | taken as u8;
        self
    }

    /// The memory access, for loads and stores.
    #[inline]
    pub fn mem(&self) -> Option<MemAccess> {
        (self.tag & TAG_CLASS == TAG_MEM).then_some(MemAccess {
            addr: self.payload,
            size: self.tag & MEM_SIZE_MASK,
        })
    }

    /// The control-flow outcome, for branch-class instructions.
    #[inline]
    pub fn ctrl(&self) -> Option<CtrlInfo> {
        (self.tag & TAG_CLASS == TAG_CTRL).then_some(CtrlInfo {
            kind: CtrlKind::from_code((self.tag & !TAG_CLASS) >> CTRL_KIND_SHIFT),
            taken: self.tag & CTRL_TAKEN != 0,
            target: self.payload,
        })
    }

    /// Rewrites the target of a control transfer (layout relocation).
    ///
    /// # Panics
    ///
    /// Panics if the record is not a control transfer.
    pub fn set_ctrl_target(&mut self, target: u64) {
        assert!(
            self.tag & TAG_CLASS == TAG_CTRL,
            "only a control transfer has a target"
        );
        self.payload = target;
    }

    /// Iterates over the present producer sequence numbers.
    pub fn sources(&self) -> impl Iterator<Item = u64> + '_ {
        self.srcs.iter().copied().filter(|&s| s != NO_PRODUCER)
    }

    /// Whether this instruction redirects the fetch stream.
    pub fn redirects_fetch(&self) -> bool {
        self.ctrl().is_some_and(|c| c.taken)
    }
}

// Prints the payload as the `mem` and `ctrl` it encodes.
impl fmt::Debug for DynInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynInst")
            .field("seq", &self.seq)
            .field("pc", &self.pc)
            .field("size", &self.size)
            .field("class", &self.class)
            .field("srcs", &self.srcs)
            .field("dst", &self.dst)
            .field("mem", &self.mem())
            .field("ctrl", &self.ctrl())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_skip_sentinels() {
        let i = DynInst::new(0, 0, OpClass::IntAlu).with_srcs(&[42]);
        assert_eq!(i.sources().collect::<Vec<_>>(), vec![42]);
        let none = DynInst::new(0, 0, OpClass::Nop);
        assert_eq!(none.sources().count(), 0);
    }

    #[test]
    #[should_panic(expected = "at most two")]
    fn too_many_sources_panics() {
        let _ = DynInst::new(0, 0, OpClass::IntAlu).with_srcs(&[1, 2, 3]);
    }

    #[test]
    fn redirects_only_when_taken() {
        let taken = DynInst::new(0, 0, OpClass::CondBr).with_ctrl(CtrlKind::Cond, true, 0x40);
        let not = DynInst::new(1, 4, OpClass::CondBr).with_ctrl(CtrlKind::Cond, false, 0x40);
        let plain = DynInst::new(2, 8, OpClass::IntAlu);
        assert!(taken.redirects_fetch());
        assert!(!not.redirects_fetch());
        assert!(!plain.redirects_fetch());
    }

    #[test]
    fn mem_and_ctrl_round_trip() {
        let ld = DynInst::new(0, 0, OpClass::Load).with_mem(0xdead_beef_0000, 8);
        assert_eq!(
            ld.mem(),
            Some(MemAccess {
                addr: 0xdead_beef_0000,
                size: 8
            })
        );
        assert_eq!(ld.ctrl(), None);
        assert!(!ld.redirects_fetch());
        for kind in [
            CtrlKind::Call,
            CtrlKind::Ret,
            CtrlKind::Jump,
            CtrlKind::IndirectJump,
            CtrlKind::Cond,
        ] {
            for taken in [false, true] {
                let br = DynInst::new(1, 4, OpClass::CondBr).with_ctrl(kind, taken, u64::MAX - 3);
                assert_eq!(
                    br.ctrl(),
                    Some(CtrlInfo {
                        kind,
                        taken,
                        target: u64::MAX - 3
                    })
                );
                assert_eq!(br.mem(), None);
                assert_eq!(br.redirects_fetch(), taken);
            }
        }
        let plain = DynInst::new(2, 8, OpClass::IntAlu);
        assert_eq!((plain.mem(), plain.ctrl()), (None, None));
        assert_eq!(plain, DynInst::new(2, 8, OpClass::IntAlu));
    }

    #[test]
    fn relocating_a_target_keeps_kind_and_direction() {
        let mut j = DynInst::new(0, 0, OpClass::Jump).with_ctrl(CtrlKind::Cond, false, 0x40);
        j.set_ctrl_target(0x22);
        assert_eq!(
            j.ctrl(),
            Some(CtrlInfo {
                kind: CtrlKind::Cond,
                taken: false,
                target: 0x22
            })
        );
        assert_eq!(
            j,
            DynInst::new(0, 0, OpClass::Jump).with_ctrl(CtrlKind::Cond, false, 0x22)
        );
    }

    #[test]
    #[should_panic(expected = "only a control transfer")]
    fn retargeting_a_load_panics() {
        DynInst::new(0, 0, OpClass::Load)
            .with_mem(0x10, 4)
            .set_ctrl_target(0x40);
    }

    #[test]
    #[should_panic(expected = "not both a memory access and a control transfer")]
    fn memory_access_with_control_panics() {
        let _ = DynInst::new(0, 0, OpClass::Load)
            .with_mem(0x10, 4)
            .with_ctrl(CtrlKind::Jump, true, 0x40);
    }

    #[test]
    #[should_panic(expected = "not both a memory access and a control transfer")]
    fn control_with_memory_access_panics() {
        let _ = DynInst::new(0, 0, OpClass::Jump)
            .with_ctrl(CtrlKind::Jump, true, 0x40)
            .with_mem(0x10, 4);
    }

    #[test]
    fn debug_prints_mem_and_ctrl() {
        let st = DynInst::new(3, 0x1000, OpClass::Store)
            .with_srcs(&[1])
            .with_mem(0x2000, 4);
        assert_eq!(
            format!("{st:?}"),
            "DynInst { seq: 3, pc: 4096, size: 4, class: Store, srcs: [1, 18446744073709551615], \
             dst: None, mem: Some(MemAccess { addr: 8192, size: 4 }), ctrl: None }"
        );
    }

    #[test]
    fn ctrl_kind_indirection() {
        assert!(CtrlKind::Ret.is_indirect());
        assert!(CtrlKind::IndirectJump.is_indirect());
        assert!(!CtrlKind::Call.is_indirect());
        assert!(!CtrlKind::Cond.is_indirect());
    }

    #[test]
    fn dst_tag_hand_accessor() {
        assert_eq!(DstTag::Hand(2).hand(), Some(2));
        assert_eq!(DstTag::Reg(5).hand(), None);
        assert_eq!(DstTag::RingSlot.hand(), None);
    }
}
