//! The Clockhands frontend: abstract state, transfer function, and
//! convention model for [`verify_clockhands`].
//!
//! The abstract state is the youngest 16 writes of each hand (exactly
//! the window a `(hand, distance)` source can name) plus the symbolic
//! frame. A write shifts its hand's window by one — which is the whole
//! point: a spurious or missing write on one path shifts that path's
//! window relative to the other, and the join then exposes the
//! misalignment when a shifted *entry-anchored* value is read (E-PATH)
//! or an uninitialized tail slot scrolls into reach (E-UNINIT).
//!
//! Convention model (mirrors `ch-compiler`'s Clockhands backend): a
//! called function sees its caller's `s` hand — `s[0]` holds the return
//! address, deeper slots the arguments and caller stack pointer — and
//! owns `v[0..8)` as callee-saved: each must hold its entry value again
//! at every `jr` (E-CALLEE), and may be read before being written only
//! to save it (E-CSREAD). `t`/`u` entry slots hold caller leftovers
//! with no defined meaning, so reading them is an error (E-CLOBBER).

use crate::cfg::{build_funcs, Flow, Func};
use crate::check::{
    addi_result, check_read, load_result, mark_av, store_effect, EntryKind, Options, UseCx,
};
use crate::domain::{join_frames, Av, Frame, Kind, Marks, ENTRY_SITE};
use crate::engine::{fixpoint, AbsState, Sink};
use crate::{lint_function, lint_unreachable, FnSummary, LintClass, Report};
use ch_common::exec::AluOp;
use clockhands::hand::{Hand, MAX_DISTANCE, NUM_HANDS};
use clockhands::inst::{Inst, Src};
use clockhands::program::Program;

const DEPTH: usize = MAX_DISTANCE as usize;
/// Callee-saved window on the `v` hand: the backend saves/restores
/// exactly `v[0..8)` around any function that writes `v`.
const V_SAVED: usize = 8;

/// Entry token for `hand[d]` at function entry.
fn tok(hand: Hand, d: usize) -> u16 {
    (hand.index() * DEPTH + d) as u16
}

fn describe(t: u16) -> String {
    let hand = Hand::from_index(t as usize / DEPTH);
    format!("entry {}[{}]", hand, t as usize % DEPTH)
}

fn entry_kind(t: u16) -> EntryKind {
    let (h, d) = (t as usize / DEPTH, t as usize % DEPTH);
    if h == Hand::V.index() && d < V_SAVED {
        EntryKind::CalleeSaved
    } else if h == Hand::S.index() && d == 0 {
        EntryKind::RetAddr
    } else {
        EntryKind::Plain
    }
}

/// Per-hand write windows (index 0 = most recent write) plus the frame.
#[derive(Clone)]
struct ChState {
    hands: [Vec<Av>; NUM_HANDS],
    frame: Frame,
}

impl ChState {
    fn write(&mut self, hand: Hand, av: Av) {
        let ring = &mut self.hands[hand.index()];
        ring.insert(0, av);
        ring.truncate(DEPTH);
    }

    fn mark_all(&self, marks: &mut Marks) {
        for ring in &self.hands {
            for av in ring {
                mark_av(av, marks);
            }
        }
        for av in self.frame.values() {
            mark_av(av, marks);
        }
    }

    /// State at the entry of a called function.
    fn convention_entry() -> ChState {
        let mut hands: [Vec<Av>; NUM_HANDS] =
            std::array::from_fn(|_| vec![Av::opaque(ENTRY_SITE); DEPTH]);
        for (d, slot) in hands[Hand::V.index()].iter_mut().enumerate().take(V_SAVED) {
            *slot = Av::entry(tok(Hand::V, d));
        }
        // s[0] is the return address; deeper s slots are the caller's
        // arguments and stack pointer (the deepest encodable, s[14], is
        // still caller-meaningful; s[15] is unreachable anyway).
        let s = &mut hands[Hand::S.index()];
        s[0] = Av {
            kind: Kind::RetAddr,
            ..Av::entry(tok(Hand::S, 0))
        };
        for (d, slot) in s.iter_mut().enumerate().take(DEPTH - 1).skip(1) {
            *slot = Av::entry(tok(Hand::S, d));
        }
        ChState {
            hands,
            frame: Frame::new(),
        }
    }

    /// State at machine reset: everything unwritten except the reset
    /// stack pointer in `s[0]`.
    fn machine_entry() -> ChState {
        let mut hands: [Vec<Av>; NUM_HANDS] = std::array::from_fn(|_| vec![Av::uninit(); DEPTH]);
        hands[Hand::S.index()][0] = Av::reset();
        ChState {
            hands,
            frame: Frame::new(),
        }
    }
}

impl AbsState for ChState {
    fn join_with(&mut self, other: &Self, marks: &mut Marks) -> bool {
        let mut changed = false;
        for (ring, oring) in self.hands.iter_mut().zip(&other.hands) {
            for (av, oav) in ring.iter_mut().zip(oring) {
                changed |= av.join_with(oav, marks);
            }
        }
        changed |= join_frames(&mut self.frame, &other.frame, marks);
        changed
    }
}

fn flow_of(inst: &Inst) -> Flow {
    match *inst {
        Inst::Branch { target, .. } => Flow::Branch(target),
        Inst::Jump { target } => Flow::Jump(target),
        Inst::Call { target, .. } => Flow::Call(target),
        Inst::CallReg { .. } => Flow::CallInd,
        Inst::JumpReg { .. } => Flow::Ret,
        Inst::Halt { .. } => Flow::Halt,
        _ => Flow::Fall,
    }
}

/// Resolves one source operand, checking the read.
#[allow(clippy::too_many_arguments)]
fn read_src(
    st: &ChState,
    src: Src,
    i: u32,
    cx: UseCx,
    opts: &Options,
    sink: &mut Sink,
    marks: &mut Marks,
) -> Av {
    match src {
        Src::Zero => Av::zero(),
        Src::Hand(h, d) => {
            if !src.is_encodable() {
                sink.error(
                    "E-DIST",
                    Some(i),
                    Some(src.to_string()),
                    format!(
                        "distance {d} is not encodable on hand {h} (max {})",
                        h.max_src_distance()
                    ),
                );
                return Av::inst(i);
            }
            let av = st.hands[h.index()][d as usize];
            mark_av(&av, marks);
            check_read(&av, i, &src, cx, opts, sink, &entry_kind, &describe);
            av
        }
    }
}

/// Number of `mv`s into `s` immediately preceding `i` within the block:
/// the backend's argument pushes, used to locate the caller's stack
/// pointer (`s[nargs]` just before the call).
fn args_pushed(prog: &Program, block_start: u32, i: u32) -> usize {
    let mut n = 0usize;
    let mut j = i;
    while j > block_start {
        j -= 1;
        match prog.insts[j as usize] {
            Inst::Mv { dst: Hand::S, .. } => n += 1,
            _ => break,
        }
    }
    n.min(DEPTH - 1)
}

/// Effect of a call at `i`: the callee may write anything to `t`/`u`
/// and deep `s`, preserves `v[0..8)` by convention, and returns with
/// `s[0]` = the caller's stack pointer and `s[1]` = the return value.
fn apply_call(st: &mut ChState, prog: &Program, block_start: u32, i: u32, marks: &mut Marks) {
    // Everything live escapes into the callee (it can be reached via
    // the s hand or memory), so all current writers count as used.
    st.mark_all(marks);
    let nargs = args_pushed(prog, block_start, i);
    let sp = st.hands[Hand::S.index()][nargs];
    st.hands[Hand::T.index()] = vec![Av::opaque(i); DEPTH];
    st.hands[Hand::U.index()] = vec![Av::opaque(i); DEPTH];
    let mut s = vec![Av::opaque(i); DEPTH];
    s[0] = sp;
    s[1] = Av::retval(i);
    st.hands[Hand::S.index()] = s;
    // v[0..8) survives by the callee-saved convention; deeper v slots
    // were already caller-owned junk. The frame survives: the callee
    // operates below our stack pointer.
}

#[allow(clippy::too_many_arguments)]
fn transfer(
    prog: &Program,
    func: &Func,
    b: usize,
    mut st: ChState,
    marks: &mut Marks,
    sink: &mut Sink,
    opts: &Options,
) -> Option<ChState> {
    let block = &func.blocks[b];
    for i in block.start..block.end {
        let inst = &prog.insts[i as usize];
        match *inst {
            Inst::Alu {
                dst, src1, src2, ..
            } => {
                read_src(&st, src1, i, UseCx::Alu, opts, sink, marks);
                read_src(&st, src2, i, UseCx::Alu, opts, sink, marks);
                st.write(dst, Av::inst(i));
            }
            Inst::AluImm { op, dst, src1, imm } => {
                let a = read_src(&st, src1, i, UseCx::Alu, opts, sink, marks);
                let r = if op == AluOp::Add {
                    addi_result(i, &a, imm as i64)
                } else {
                    Av::inst(i)
                };
                st.write(dst, r);
            }
            Inst::Li { dst, imm } => st.write(dst, Av::cst(i, imm)),
            Inst::Load {
                dst, base, offset, ..
            } => {
                let ba = read_src(&st, base, i, UseCx::Base, opts, sink, marks);
                let v = load_result(i, &st.frame, &ba, offset, marks);
                st.write(dst, v);
            }
            Inst::Store {
                value,
                base,
                offset,
                ..
            } => {
                let va = read_src(&st, value, i, UseCx::StoreValue, opts, sink, marks);
                let ba = read_src(&st, base, i, UseCx::Base, opts, sink, marks);
                store_effect(&mut st.frame, &ba, offset, va);
            }
            Inst::Branch { src1, src2, .. } => {
                read_src(&st, src1, i, UseCx::Branch, opts, sink, marks);
                read_src(&st, src2, i, UseCx::Branch, opts, sink, marks);
            }
            Inst::Jump { .. } | Inst::Nop => {}
            Inst::Call { .. } => {
                apply_call(&mut st, prog, block.start, i, marks);
            }
            Inst::CallReg { src, .. } => {
                read_src(&st, src, i, UseCx::CallTarget, opts, sink, marks);
                apply_call(&mut st, prog, block.start, i, marks);
            }
            Inst::Mv { dst, src } => {
                let a = read_src(&st, src, i, UseCx::Mv, opts, sink, marks);
                st.write(dst, a.relayed_by(i));
            }
            Inst::JumpReg { src } => {
                read_src(&st, src, i, UseCx::JrTarget, opts, sink, marks);
                if opts.conventions && !func.is_machine_entry {
                    check_return_conventions(&st, i, sink);
                }
                st.mark_all(marks);
                return None;
            }
            Inst::Halt { src } => {
                read_src(&st, src, i, UseCx::Halt, opts, sink, marks);
                st.mark_all(marks);
                return None;
            }
            Inst::SpAddi { isa, .. } => match isa {},
        }
    }
    Some(st)
}

/// At a return: `s[0]` must again be the caller's stack pointer, and
/// each callee-saved `v[j]` must hold its entry value.
fn check_return_conventions(st: &ChState, i: u32, sink: &mut Sink) {
    let s0 = &st.hands[Hand::S.index()][0];
    let sp_ok = s0.origins.is_top() || (0..DEPTH).any(|d| s0.is_entry_value(tok(Hand::S, d)));
    if !sp_ok {
        sink.error(
            "E-SP",
            Some(i),
            Some("s[0]".to_string()),
            "returns without the caller's stack pointer in s[0] \
             (stack not rebalanced)"
                .to_string(),
        );
    }
    for j in 0..V_SAVED {
        let av = &st.hands[Hand::V.index()][j];
        if !av.origins.is_top() && !av.is_entry_value(tok(Hand::V, j)) {
            sink.error(
                "E-CALLEE",
                Some(i),
                Some(format!("v[{j}]")),
                format!("callee-saved v[{j}] does not hold its entry value at return"),
            );
        }
    }
}

/// Verifies an assembled Clockhands program. See the crate docs for the
/// property proved and the diagnostic codes.
pub fn verify_clockhands(prog: &Program, opts: &Options) -> Report {
    let len = prog.insts.len() as u32;
    let flow = |i: u32| flow_of(&prog.insts[i as usize]);
    let (funcs, issues) = build_funcs(len, prog.entry, &prog.labels, &flow);
    let mut diags = Vec::new();
    {
        let mut cfg_sink = Sink::new("<cfg>");
        for (at, msg) in issues {
            cfg_sink.error("E-CFG", Some(at), None, msg);
        }
        diags.extend(cfg_sink.into_diags());
    }
    let mut marks = Marks::new(len as usize);
    let mut covered = vec![false; len as usize];
    let mut functions = Vec::new();
    let mut fn_sinks = Vec::new();
    for func in &funcs {
        for b in &func.blocks {
            for i in b.start..b.end {
                covered[i as usize] = true;
            }
        }
        let entry_state = if func.is_machine_entry {
            ChState::machine_entry()
        } else {
            ChState::convention_entry()
        };
        let mut sink = Sink::new(&func.name);
        fixpoint(
            func,
            entry_state,
            &mut marks,
            &mut sink,
            |b, st, marks, sink| transfer(prog, func, b, st, marks, sink, opts),
        );
        fn_sinks.push(sink);
    }
    // Lints run after all fixpoints: a value written in one function can
    // only be marked used from that same function's analysis, but the
    // escape marking at calls/returns is global and must be complete.
    for (func, mut sink) in funcs.iter().zip(fn_sinks) {
        let classify = |i: u32| match prog.insts[i as usize] {
            Inst::Mv { .. } => Some(LintClass::Relay),
            Inst::Li { .. } => Some(LintClass::Fix),
            _ => None,
        };
        let (dead_relays, redundant_fixes) = lint_function(func, &marks, &mut sink, &classify);
        functions.push(FnSummary {
            name: func.name.clone(),
            entry: func.entry,
            insts: func.inst_count(),
            dead_relays,
            redundant_fixes,
        });
        diags.extend(sink.into_diags());
    }
    let unreachable = lint_unreachable(&covered, &mut diags);
    Report {
        isa: "clockhands",
        diags,
        functions,
        unreachable,
        covered,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockhands::asm::assemble;

    fn verify_src(src: &str) -> Report {
        let prog = assemble(src).expect("test program assembles");
        verify_clockhands(&prog, &Options::default())
    }

    #[test]
    fn straight_line_program_is_clean() {
        let r = verify_src(
            "li t, 1
             li t, 2
             add t, t[0], t[1]
             halt t[0]",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn uninitialized_read_is_flagged() {
        let r = verify_src(
            "add t, u[0], u[1]
             halt t[0]",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-UNINIT"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn path_shift_of_entry_value_is_flagged() {
        // One arm pushes one `s` write, the other two: at the join,
        // `s[2]` is the argument on one path but the return address on
        // the other — reading it is path-inconsistent (E-PATH).
        let r = verify_src(
            "_start:
             li t, 5
             mv s, t[0]
             call s, f
             halt s[1]
             f:
             bne s[1], zero, .two
             mv s, s[1]
             j .join
             .two:
             mv s, s[1]
             mv s, s[2]
             .join:
             mv t, s[2]
             halt t[0]",
        );
        assert!(r.diags.iter().any(|d| d.code == "E-PATH"), "{}", r.render());
    }

    #[test]
    fn balanced_diamond_is_clean() {
        // Leaf callee, one argument: entry s = [ra, arg, caller-sp].
        // Returns with s = [sp, retval, ...] and jumps through the ra.
        let r = verify_src(
            "_start:
             li t, 5
             mv s, t[0]
             call s, f
             halt s[1]
             f:
             mv t, s[1]
             bne t[0], zero, .two
             li t, 10
             j .join
             .two:
             li t, 20
             .join:
             mv s, t[0]
             mv s, s[3]
             jr s[2]",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn clobbered_v_at_return_is_flagged() {
        let r = verify_src(
            "_start:
             call s, f
             halt s[1]
             f:
             li v, 7
             mv s, v[0]
             mv s, s[2]
             jr s[2]",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-CALLEE"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn call_clobbers_t_values() {
        // A t value computed before a call is unreachable after it.
        let r = verify_src(
            "_start:
             call s, f
             halt s[1]
             f:
             li t, 1
             mv s, s[0]
             call s, g
             mv s, t[0]
             mv s, s[1]
             jr s[1]
             g:
             mv s, s[1]
             mv s, s[2]
             jr s[2]",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-CLOBBER"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn distance_boundary_for_every_hand() {
        // The assembler already rejects over-limit distances, so build
        // raw programs: a read at exactly `max_src_distance` is clean, a
        // read one past it is E-DIST — for all four hands.
        use clockhands::inst::Inst;
        use clockhands::program::Program;
        for hand in Hand::ALL {
            let limit = hand.max_src_distance();
            for (d, want_dist_err) in [(limit, false), (limit + 1, true)] {
                let mut prog = Program::new();
                for k in 0..=i64::from(limit) {
                    prog.insts.push(Inst::Li { dst: hand, imm: k });
                }
                prog.insts.push(Inst::Halt {
                    src: Src::Hand(hand, d),
                });
                let r = verify_clockhands(&prog, &Options::default());
                let has_dist = r.diags.iter().any(|dg| dg.code == "E-DIST");
                assert_eq!(
                    has_dist,
                    want_dist_err,
                    "{hand}[{d}] (limit {limit}):\n{}",
                    r.render()
                );
                if !want_dist_err {
                    assert!(r.is_clean(), "{hand}[{d}]:\n{}", r.render());
                }
            }
        }
    }
}
