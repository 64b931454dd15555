//! The one transfer function, the frontend trait each ISA implements,
//! and the shared operand-read checks.
//!
//! `transfer` is written once over [`Inst`]: it knows which operands
//! each instruction reads and in what use, what it writes, and how
//! calls, returns, loads and stores act on the frame. A `Frontend`
//! supplies only what the ISA's operand naming decides: where a source
//! lives in the `State`, what a write and a call do to it, and the
//! convention checked at a return.

use crate::cfg::Func;
use crate::domain::{join_frames, Av, Frame, Kind, Marks, Origin, ENTRY_SITE};
use crate::engine::{AbsState, Sink};
use ch_common::exec::AluOp;
use ch_common::isa::{Inst, Operands, Program};
use std::fmt::Display;

/// An abstract register file: one [`Av`] per slot the ISA can name (a
/// frontend lays its operands out in `slots`), plus the symbolic frame.
#[derive(Debug)]
pub(crate) struct State {
    /// The frontend's operand slots.
    pub(crate) slots: Vec<Av>,
    /// The tracked frame.
    pub(crate) frame: Frame,
}

impl State {
    /// A state whose slots are `slots` and whose frame is empty.
    pub(crate) fn new(slots: Vec<Av>) -> State {
        State {
            slots,
            frame: Frame::new(),
        }
    }

    /// Marks every writer of every live value used (the values escape
    /// into a callee, or the function ends).
    pub(crate) fn mark_all(&self, marks: &mut Marks) {
        for av in self.slots.iter().chain(self.frame.values()) {
            mark_av(av, marks);
        }
    }

    /// Shifts `window` by one write: `av` becomes its youngest slot and
    /// the oldest drops out.
    pub(crate) fn shift(window: &mut [Av], av: Av) {
        window.copy_within(..window.len() - 1, 1);
        window[0] = av;
    }
}

impl Clone for State {
    fn clone(&self) -> Self {
        State {
            slots: self.slots.clone(),
            frame: self.frame.clone(),
        }
    }

    /// Reuses `self`'s slot buffer: the engine refills one scratch state
    /// per block visit.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.frame.clone_from(&source.frame);
    }
}

impl AbsState for State {
    fn join_with(&mut self, other: &Self, marks: &mut Marks) -> bool {
        let mut changed = false;
        for (av, oav) in self.slots.iter_mut().zip(&other.slots) {
            changed |= av.join_with(oav, marks);
        }
        changed |= join_frames(&mut self.frame, &other.frame, marks);
        changed
    }
}

/// What one ISA's operand naming decides in the analysis.
pub(crate) trait Frontend: Operands {
    /// The ISA's name in a [`crate::Report`].
    const ISA: &'static str;

    /// The state at machine reset.
    fn machine_entry() -> State;

    /// The state at the entry of a called function.
    fn convention_entry() -> State;

    /// The slot a valid source reads, or `None` for the zero register.
    fn slot(src: Self::Src) -> Option<usize>;

    /// The `E-DIST` message for a source [`Operands::is_valid`] refuses.
    fn range_error(src: Self::Src) -> String;

    /// The operand text and `E-DIST` message for a destination
    /// [`Operands::is_valid_dst`] refuses.
    fn dst_range_error(dst: Self::Dst) -> (String, String) {
        (format!("{dst:?}"), "destination out of range".to_string())
    }

    /// The convention role of an entry token.
    fn entry_kind(tok: u16) -> EntryKind;

    /// An entry token, for messages.
    fn describe(tok: u16) -> String;

    /// Writes `av` to `dst`.
    fn write(st: &mut State, dst: Self::Dst, av: Av);

    /// What instruction `i`, which writes no destination, does to the
    /// operand slots: nothing, unless every instruction takes a slot.
    fn without_dst(_st: &mut State, _i: u32) {}

    /// The effect of the call at `i`, which writes its return address
    /// to `dst`; `block_start` starts its basic block.
    fn call(
        st: &mut State,
        prog: &Program<Inst<Self>>,
        block_start: u32,
        i: u32,
        dst: Self::Dst,
        marks: &mut Marks,
    );

    /// Checks the calling convention at the return at `i`.
    fn check_return(st: &State, i: u32, sink: &mut Sink);

    /// The effect of `spaddi imm` at `i`.
    fn sp_addi(st: &mut State, i: u32, imm: i32, isa: Self::SpAddi, marks: &mut Marks);
}

/// Resolves one source operand of instruction `i`, checking the read.
#[allow(clippy::too_many_arguments)]
fn read<O: Frontend>(
    st: &State,
    src: O::Src,
    i: u32,
    cx: UseCx,
    opts: &Options,
    sink: &mut Sink,
    marks: &mut Marks,
) -> Av {
    if !O::is_valid(src) {
        sink.error(
            "E-DIST",
            Some(i),
            Some(src.to_string()),
            O::range_error(src),
        );
        return Av::inst(i);
    }
    let Some(slot) = O::slot(src) else {
        return Av::zero();
    };
    let av = st.slots[slot];
    mark_av(&av, marks);
    check_read(&av, i, &src, cx, opts, sink, &O::entry_kind, &O::describe);
    av
}

/// Whether the ISA has destination `dst`; reports `E-DIST` at `i` if
/// not.
fn check_dst<O: Frontend>(dst: O::Dst, i: u32, sink: &mut Sink) -> bool {
    let valid = O::is_valid_dst(dst);
    if !valid {
        let (operand, message) = O::dst_range_error(dst);
        sink.error("E-DIST", Some(i), Some(operand), message);
    }
    valid
}

/// Writes `av` to `dst` for instruction `i`, unless the ISA has no such
/// destination.
fn write<O: Frontend>(st: &mut State, dst: O::Dst, av: Av, i: u32, sink: &mut Sink) {
    if check_dst::<O>(dst, i, sink) {
        O::write(st, dst, av);
    }
}

/// Runs block `b` of `func` over `st`, leaving the block's out-state
/// there. Returns `false` where the block returns or halts, so that no
/// state flows out of it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn transfer<O: Frontend>(
    prog: &Program<Inst<O>>,
    func: &Func,
    b: usize,
    st: &mut State,
    marks: &mut Marks,
    sink: &mut Sink,
    opts: &Options,
) -> bool {
    let block = &func.blocks[b];
    for i in block.start..block.end {
        let mut read = |st: &State, src, cx| read::<O>(st, src, i, cx, opts, sink, marks);
        match prog.insts[i as usize] {
            Inst::Alu {
                dst, src1, src2, ..
            } => {
                read(st, src1, UseCx::Alu);
                read(st, src2, UseCx::Alu);
                write::<O>(st, dst, Av::inst(i), i, sink);
            }
            Inst::AluImm { op, dst, src1, imm } => {
                let a = read(st, src1, UseCx::Alu);
                let r = if op == AluOp::Add {
                    addi_result(i, &a, imm as i64)
                } else {
                    Av::inst(i)
                };
                write::<O>(st, dst, r, i, sink);
            }
            Inst::Li { dst, imm } => write::<O>(st, dst, Av::cst(i, imm), i, sink),
            Inst::Load {
                dst, base, offset, ..
            } => {
                let ba = read(st, base, UseCx::Base);
                let v = load_result(i, &st.frame, &ba, offset, marks);
                write::<O>(st, dst, v, i, sink);
            }
            Inst::Store {
                value,
                base,
                offset,
                ..
            } => {
                let va = read(st, value, UseCx::StoreValue);
                let ba = read(st, base, UseCx::Base);
                store_effect(&mut st.frame, &ba, offset, va);
                O::without_dst(st, i);
            }
            Inst::Branch { src1, src2, .. } => {
                read(st, src1, UseCx::Branch);
                read(st, src2, UseCx::Branch);
                O::without_dst(st, i);
            }
            Inst::Jump { .. } | Inst::Nop => O::without_dst(st, i),
            Inst::Call { dst, .. } => {
                check_dst::<O>(dst, i, sink);
                O::call(st, prog, block.start, i, dst, marks);
            }
            Inst::CallReg { dst, src, .. } => {
                read(st, src, UseCx::CallTarget);
                check_dst::<O>(dst, i, sink);
                O::call(st, prog, block.start, i, dst, marks);
            }
            Inst::SpAddi { imm, isa } => {
                O::sp_addi(st, i, imm, isa, marks);
                O::without_dst(st, i);
            }
            Inst::Mv { dst, src } => {
                let a = read(st, src, UseCx::Mv);
                write::<O>(st, dst, a.relayed_by(i), i, sink);
            }
            Inst::JumpReg { src } => {
                read(st, src, UseCx::JrTarget);
                if opts.conventions && !func.is_machine_entry {
                    O::check_return(st, i, sink);
                }
                st.mark_all(marks);
                return false;
            }
            Inst::Halt { src } => {
                read(st, src, UseCx::Halt);
                st.mark_all(marks);
                return false;
            }
        }
    }
    true
}

/// How a read operand is being used; some uses legalise or forbid value
/// kinds (a return address may be spilled or relayed, never computed
/// on; an unwritten callee-saved register may only be saved).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UseCx {
    /// ALU input.
    Alu,
    /// The value operand of a store (spills/saves are legal here).
    StoreValue,
    /// The base-address operand of a load or store.
    Base,
    /// Branch comparison input.
    Branch,
    /// The target of an indirect jump (a return).
    JrTarget,
    /// The target of an indirect call.
    CallTarget,
    /// Source of a register move (relays are legal for any kind).
    Mv,
    /// The exit-value operand of `halt`.
    Halt,
}

/// Convention role of an entry token (a register slot holding a
/// caller-provided value at function entry).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Caller-owned argument or leftover: freely readable as data.
    Plain,
    /// Callee-saved: may only be saved (stored) or relayed (mv).
    CalleeSaved,
    /// The return address.
    RetAddr,
}

/// Per-analysis options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Check calling-convention rules (callee-saved preservation, stack
    /// balance, return-address discipline) in addition to pure dataflow.
    pub conventions: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options { conventions: true }
    }
}

/// Marks every writer of `av` as used (the value was read or escaped).
pub fn mark_av(av: &Av, marks: &mut Marks) {
    for w in av.writers.iter() {
        marks.mark(w);
    }
}

/// Checks one operand read, reporting findings to `sink`.
///
/// `entry_kind` classifies entry tokens by convention role (plain
/// argument, callee-saved, return address); `describe_entry` renders an
/// entry token for messages. `operand` is rendered only when a finding
/// is reported.
#[allow(clippy::too_many_arguments)]
pub fn check_read(
    av: &Av,
    inst: u32,
    operand: &dyn Display,
    cx: UseCx,
    opts: &Options,
    sink: &mut Sink,
    entry_kind: &dyn Fn(u16) -> EntryKind,
    describe_entry: &dyn Fn(u16) -> String,
) {
    let op = || Some(operand.to_string());
    if let Some(origins) = av.origins.get() {
        let mut entry_toks: Vec<u16> = Vec::new();
        for o in origins {
            match *o {
                Origin::Uninit => sink.error(
                    "E-UNINIT",
                    Some(inst),
                    op(),
                    "reads a slot never written on some incoming path".to_string(),
                ),
                Origin::Hole(site) => sink.error(
                    "E-HOLE",
                    Some(inst),
                    op(),
                    format!("reads the value-less result slot of instruction {site}"),
                ),
                Origin::Opaque(site) if site == ENTRY_SITE => sink.error(
                    "E-CLOBBER",
                    Some(inst),
                    op(),
                    "reads a caller-owned slot with no defined value at function entry".to_string(),
                ),
                Origin::Opaque(site) => sink.error(
                    "E-CLOBBER",
                    Some(inst),
                    op(),
                    format!("reads a value that did not survive the call at instruction {site}"),
                ),
                Origin::Entry(t) => entry_toks.push(t),
                Origin::Inst(_) | Origin::Retval(_) => {}
            }
        }
        // A read that resolves to different *plain* caller values on
        // different paths is legal dataflow — a phi of relayed
        // arguments (`x = p1; loop { use x; x = p0; }` merges two
        // argument relays at the loop join). The return address and
        // callee-saved slots, though, are only ever moved positionally
        // by prologue/epilogue machinery, so a read mixing their
        // identities across paths means some path misplaced a
        // distance.
        if entry_toks.len() > 1
            && entry_toks
                .iter()
                .any(|t| entry_kind(*t) != EntryKind::Plain)
        {
            let named: Vec<String> = entry_toks.iter().map(|t| describe_entry(*t)).collect();
            sink.error(
                "E-PATH",
                Some(inst),
                op(),
                format!(
                    "operand distance is path-inconsistent: resolves to {} depending on the \
                     incoming path",
                    named.join(" or ")
                ),
            );
        }
        // A callee-saved entry value may be *saved* (store) or *relayed*
        // (mv — the register equivalent of a save/restore pair, used by
        // the clobber-only epilogues to re-establish the window from the
        // ring). Any data use is still flagged here: origins follow the
        // value through relays, so the E-CSREAD fires at the consuming
        // read instead.
        if opts.conventions && cx != UseCx::StoreValue && cx != UseCx::Mv {
            for t in &entry_toks {
                if entry_kind(*t) == EntryKind::CalleeSaved {
                    sink.error(
                        "E-CSREAD",
                        Some(inst),
                        op(),
                        format!(
                            "reads callee-saved {} before this function has written it \
                             (only saving or relaying it is allowed)",
                            describe_entry(*t)
                        ),
                    );
                }
            }
        }
    }
    if opts.conventions {
        let is_ra = av.kind == Kind::RetAddr;
        match cx {
            UseCx::Alu | UseCx::Base | UseCx::Branch | UseCx::Halt if is_ra => sink.error(
                "E-RAKIND",
                Some(inst),
                op(),
                "a return address is used as data (allowed: spill, relay, jr)".to_string(),
            ),
            UseCx::JrTarget if !is_ra => sink.error(
                "E-RETADDR",
                Some(inst),
                op(),
                "indirect jump target is not a return address".to_string(),
            ),
            _ => {}
        }
    }
}

/// The abstract result of `addi dst, src, imm` (also used for `spaddi`):
/// constants fold, pointers shift, and a single-origin plain value
/// becomes a pointer anchored at that origin (this is how the symbolic
/// frame tracking follows `sp = caller_sp - frame`).
pub fn addi_result(i: u32, src: &Av, imm: i64) -> Av {
    let kind = match (src.kind, src.origins.get()) {
        (Kind::Cst(c), _) => Kind::Cst(c.wrapping_add(imm)),
        (Kind::Ptr { base, off }, _) => Kind::Ptr {
            base,
            off: off.wrapping_add(imm),
        },
        (Kind::Val, Some(&[o])) => match o {
            Origin::Uninit | Origin::Hole(_) | Origin::Opaque(_) => Kind::Val,
            base => Kind::Ptr { base, off: imm },
        },
        _ => Kind::Val,
    };
    Av {
        kind,
        ..Av::inst(i)
    }
}

/// The abstract result of a load at `i` through `base_av + offset`:
/// a tracked frame slot's value if the address is symbolic and known,
/// else a fresh opaque-but-defined value (untracked memory is assumed
/// initialized — the interpreters zero-fill, so this can never be a
/// false positive).
pub fn load_result(i: u32, frame: &Frame, base_av: &Av, offset: i32, marks: &mut Marks) -> Av {
    if let Kind::Ptr { base, off } = base_av.kind {
        if let Some(v) = frame.get(&(base, off.wrapping_add(offset as i64))) {
            mark_av(v, marks);
            return v.relayed_by(i);
        }
    }
    Av::inst(i)
}

/// Records a store of `value` through `base_av + offset` into the
/// symbolic frame, when the address is tracked. Stores through unknown
/// addresses are dropped (see [`crate::domain::Frame`]).
pub fn store_effect(frame: &mut Frame, base_av: &Av, offset: i32, value: Av) {
    if let Kind::Ptr { base, off } = base_av.kind {
        frame.insert((base, off.wrapping_add(offset as i64)), value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tokens >= 100 are callee-saved, token 1 is the return address.
    fn classify(t: u16) -> EntryKind {
        match t {
            1 => EntryKind::RetAddr,
            t if t >= 100 => EntryKind::CalleeSaved,
            _ => EntryKind::Plain,
        }
    }

    fn run_check(av: &Av, cx: UseCx) -> Vec<&'static str> {
        let mut sink = Sink::new("f");
        let opts = Options::default();
        check_read(av, 0, &"x", cx, &opts, &mut sink, &classify, &|t| {
            format!("tok{t}")
        });
        sink.into_diags().iter().map(|d| d.code).collect()
    }

    #[test]
    fn uninit_and_clobber_reads_flagged() {
        assert_eq!(run_check(&Av::uninit(), UseCx::Alu), vec!["E-UNINIT"]);
        assert_eq!(run_check(&Av::opaque(7), UseCx::Alu), vec!["E-CLOBBER"]);
        assert_eq!(run_check(&Av::hole(3), UseCx::Alu), vec!["E-HOLE"]);
        assert!(run_check(&Av::inst(1), UseCx::Alu).is_empty());
    }

    #[test]
    fn mixed_entry_anchors_are_path_inconsistent() {
        // Return address on one path, an argument on the other: no
        // legal program produces this — a distance was misplaced.
        let mut marks = Marks::new(4);
        let mut av = Av::entry(1);
        av.join_with(&Av::entry(2), &mut marks);
        assert_eq!(run_check(&av, UseCx::Alu), vec!["E-PATH"]);
        // Callee-saved mixed with an argument: likewise flagged (the
        // data read also trips E-CSREAD).
        let mut av = Av::entry(100);
        av.join_with(&Av::entry(2), &mut marks);
        assert_eq!(run_check(&av, UseCx::Alu), vec!["E-CSREAD", "E-PATH"]);
    }

    #[test]
    fn mixed_plain_arguments_are_a_legal_phi() {
        // fuzz seed 777 case 2336: `x = p1; loop { use x; x = p0; }`
        // merges relays of two different arguments at the loop join —
        // legal dataflow, not a misplaced distance.
        let mut marks = Marks::new(4);
        let mut av = Av::entry(2);
        av.join_with(&Av::entry(3), &mut marks);
        assert!(run_check(&av, UseCx::Alu).is_empty());
    }

    #[test]
    fn callee_saved_read_is_only_legal_as_a_save_or_relay() {
        let av = Av::entry(100);
        assert_eq!(run_check(&av, UseCx::Alu), vec!["E-CSREAD"]);
        assert_eq!(run_check(&av, UseCx::Branch), vec!["E-CSREAD"]);
        assert!(run_check(&av, UseCx::StoreValue).is_empty());
        // Relays are the register analogue of a save/restore: origins
        // follow the value, so any data use is still flagged there.
        assert!(run_check(&av, UseCx::Mv).is_empty());
    }

    #[test]
    fn return_address_discipline() {
        let ra = Av {
            kind: Kind::RetAddr,
            ..Av::entry(1)
        };
        assert_eq!(run_check(&ra, UseCx::Alu), vec!["E-RAKIND"]);
        assert!(run_check(&ra, UseCx::StoreValue).is_empty());
        assert!(run_check(&ra, UseCx::Mv).is_empty());
        assert!(run_check(&ra, UseCx::JrTarget).is_empty());
        assert_eq!(run_check(&Av::inst(1), UseCx::JrTarget), vec!["E-RETADDR"]);
    }

    #[test]
    fn addi_tracks_pointers_and_constants() {
        let sp = Av {
            kind: Kind::Ptr {
                base: Origin::Entry(9),
                off: -32,
            },
            ..Av::inst(0)
        };
        let r = addi_result(1, &sp, 32);
        assert!(r.is_entry_value(9));
        let c = addi_result(1, &Av::cst(0, 5), 3);
        assert_eq!(c.kind, Kind::Cst(8));
        // A single-origin plain value becomes a pointer anchored there.
        let a = addi_result(1, &Av::entry(4), -16);
        assert_eq!(
            a.kind,
            Kind::Ptr {
                base: Origin::Entry(4),
                off: -16
            }
        );
    }

    #[test]
    fn frame_roundtrip_preserves_identity() {
        let mut marks = Marks::new(8);
        let mut frame = Frame::new();
        let sp = addi_result(0, &Av::entry(9), -16);
        store_effect(&mut frame, &sp, 8, Av::entry(42));
        let back = load_result(5, &frame, &sp, 8, &mut marks);
        assert!(back.is_entry_value(42));
        // Untracked load: fresh defined value, not an error.
        let fresh = load_result(6, &frame, &Av::inst(1), 0, &mut marks);
        assert_eq!(fresh.origins.get(), Some(&[Origin::Inst(6)][..]));
    }
}
