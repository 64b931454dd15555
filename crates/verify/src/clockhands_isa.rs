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

use crate::check::{EntryKind, Frontend, Options, State};
use crate::domain::{Av, Kind, Marks, ENTRY_SITE};
use crate::engine::Sink;
use crate::Report;
use clockhands::hand::{Hand, MAX_DISTANCE, NUM_HANDS};
use clockhands::inst::{Clockhands, Inst, Src};
use clockhands::program::Program;

const DEPTH: usize = MAX_DISTANCE as usize;
/// Callee-saved window on the `v` hand: the backend saves/restores
/// exactly `v[0..8)` around any function that writes `v`.
const V_SAVED: usize = 8;

/// Entry token for `hand[d]` at function entry; also its slot in the
/// state, where each hand's window (index 0 = most recent write) takes
/// `DEPTH` slots.
fn tok(hand: Hand, d: usize) -> u16 {
    (hand.index() * DEPTH + d) as u16
}

/// The slots of `hand`'s write window.
fn window(st: &mut State, hand: Hand) -> &mut [Av] {
    let start = hand.index() * DEPTH;
    &mut st.slots[start..start + DEPTH]
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

impl Frontend for Clockhands {
    const ISA: &'static str = "clockhands";

    /// Everything unwritten except the reset stack pointer in `s[0]`.
    fn machine_entry() -> State {
        let mut slots = vec![Av::uninit(); NUM_HANDS * DEPTH];
        slots[tok(Hand::S, 0) as usize] = Av::reset();
        State::new(slots)
    }

    fn convention_entry() -> State {
        let mut st = State::new(vec![Av::opaque(ENTRY_SITE); NUM_HANDS * DEPTH]);
        for (d, slot) in window(&mut st, Hand::V)
            .iter_mut()
            .enumerate()
            .take(V_SAVED)
        {
            *slot = Av::entry(tok(Hand::V, d));
        }
        // s[0] is the return address; deeper s slots are the caller's
        // arguments and stack pointer (the deepest encodable, s[14], is
        // still caller-meaningful; s[15] is unreachable anyway).
        let s = window(&mut st, Hand::S);
        s[0] = Av {
            kind: Kind::RetAddr,
            ..Av::entry(tok(Hand::S, 0))
        };
        for (d, slot) in s.iter_mut().enumerate().take(DEPTH - 1).skip(1) {
            *slot = Av::entry(tok(Hand::S, d));
        }
        st
    }

    fn slot(src: Src) -> Option<usize> {
        match src {
            Src::Hand(h, d) => Some(tok(h, d as usize) as usize),
            Src::Zero => None,
        }
    }

    fn range_error(src: Src) -> String {
        let Src::Hand(h, d) = src else {
            unreachable!("zero is always valid")
        };
        format!(
            "distance {d} is not encodable on hand {h} (max {})",
            h.max_src_distance()
        )
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

    fn describe(t: u16) -> String {
        let hand = Hand::from_index(t as usize / DEPTH);
        format!("entry {}[{}]", hand, t as usize % DEPTH)
    }

    fn write(st: &mut State, hand: Hand, av: Av) {
        State::shift(window(st, hand), av);
    }

    /// The callee may write anything to `t`/`u` and deep `s`, preserves
    /// `v[0..8)` by convention, and returns with `s[0]` = the caller's
    /// stack pointer and `s[1]` = the return value. The return address
    /// the call writes is gone by then.
    fn call(st: &mut State, prog: &Program, block_start: u32, i: u32, _: Hand, marks: &mut Marks) {
        // Everything live escapes into the callee (it can be reached via
        // the s hand or memory), so all current writers count as used.
        st.mark_all(marks);
        let nargs = args_pushed(prog, block_start, i);
        let sp = st.slots[tok(Hand::S, nargs) as usize];
        for hand in [Hand::T, Hand::U, Hand::S] {
            window(st, hand).fill(Av::opaque(i));
        }
        let s = window(st, Hand::S);
        s[0] = sp;
        s[1] = Av::retval(i);
        // v[0..8) survives by the callee-saved convention; deeper v slots
        // were already caller-owned junk. The frame survives: the callee
        // operates below our stack pointer.
    }

    /// `s[0]` must again be the caller's stack pointer, and each
    /// callee-saved `v[j]` must hold its entry value.
    fn check_return(st: &State, i: u32, sink: &mut Sink) {
        let s0 = &st.slots[tok(Hand::S, 0) as usize];
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
            let av = &st.slots[tok(Hand::V, j) as usize];
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

    fn sp_addi(_: &mut State, _: u32, _: i32, isa: Self::SpAddi, _: &mut Marks) {
        match isa {}
    }
}

/// Verifies an assembled Clockhands program. See the crate docs for the
/// property proved and the diagnostic codes.
pub fn verify_clockhands(prog: &Program, opts: &Options) -> Report {
    crate::verify(prog, opts)
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
