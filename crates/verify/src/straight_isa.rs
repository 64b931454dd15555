//! The STRAIGHT frontend for [`verify_straight`].
//!
//! STRAIGHT has a single ring: *every* instruction occupies the next
//! slot (Section 2 of the paper — this is why its compiler must pad
//! convergence points until distances agree), but only value-producing
//! instructions put a meaningful result there. The abstract state is
//! the youngest 127 slots — value-less slots carry a *hole* so that a
//! distance landing on a `store`/`nop`/`spaddi` slot is a definite
//! error (E-HOLE), not a silent garbage read. The join at convergence
//! points is exactly the paper's static-reach rule: if two paths place
//! the same entry-anchored value at different distances, the joined
//! slot mixes entry anchors and any read reports E-PATH.
//!
//! Convention model (mirrors `ch-compiler`'s STRAIGHT backend): a
//! called function sees the call's return address at distance 1 and
//! its arguments at the next distances; the special `sp` register must
//! be restored (`spaddi +frame`) before every return. STRAIGHT has no
//! callee-saved ring slots — everything is positional.

use crate::check::{addi_result, mark_av, EntryKind, Frontend, Options, State};
use crate::domain::{Av, Kind, Marks, ENTRY_SITE};
use crate::engine::Sink;
use crate::Report;
use ch_baselines::straight::{StProgram, StSrc, Straight, MAX_ARGS, MAX_DISTANCE};

const DEPTH: usize = MAX_DISTANCE as usize;
/// The slot of the special SP register, after the ring window (index 0
/// = distance 1).
const SP: usize = DEPTH;
/// Entry token of the special SP register (ring tokens are `1..=127`).
const SP_TOK: u16 = 256;
/// How many entry distances are modeled as caller-meaningful (return
/// address at 1, arguments after it); deeper slots are caller leftovers.
const ARG_DEPTH: u16 = MAX_ARGS as u16 + 1;

impl Frontend for Straight {
    const ISA: &'static str = "straight";

    fn machine_entry() -> State {
        let mut slots = vec![Av::uninit(); DEPTH + 1];
        slots[SP] = Av::reset();
        State::new(slots)
    }

    fn convention_entry() -> State {
        let mut slots = vec![Av::opaque(ENTRY_SITE); DEPTH + 1];
        slots[0] = Av {
            kind: Kind::RetAddr,
            ..Av::entry(1)
        };
        for d in 2..=ARG_DEPTH {
            slots[d as usize - 1] = Av::entry(d);
        }
        slots[SP] = Av::entry(SP_TOK);
        State::new(slots)
    }

    fn slot(src: StSrc) -> Option<usize> {
        match src {
            StSrc::Dist(d) => Some(d as usize - 1),
            StSrc::Sp => Some(SP),
            StSrc::Zero => None,
        }
    }

    fn range_error(src: StSrc) -> String {
        let StSrc::Dist(d) = src else {
            unreachable!("sp and zero are always valid")
        };
        format!("distance {d} is outside the encodable range 1..={MAX_DISTANCE}")
    }

    fn entry_kind(t: u16) -> EntryKind {
        if t == 1 {
            EntryKind::RetAddr
        } else {
            EntryKind::Plain
        }
    }

    fn describe(t: u16) -> String {
        match t {
            1 => "the entry return address [1]".to_string(),
            SP_TOK => "the entry sp".to_string(),
            d => format!("entry [{d}]"),
        }
    }

    fn write(st: &mut State, (): (), av: Av) {
        State::shift(&mut st.slots[..DEPTH], av);
    }

    /// Every instruction takes a ring slot; one without a destination
    /// leaves a hole there.
    fn without_dst(st: &mut State, i: u32) {
        State::shift(&mut st.slots[..DEPTH], Av::hole(i));
    }

    /// Everything live escapes into the callee; afterwards the resume
    /// point sees the callee's epilogue in the ring: its `jr` slot (a
    /// hole) at distance 1 and the return value at distance 2. SP and
    /// the frame survive.
    fn call(st: &mut State, _: &StProgram, _: u32, i: u32, (): (), marks: &mut Marks) {
        st.mark_all(marks);
        let ring = &mut st.slots[..DEPTH];
        ring.fill(Av::opaque(i));
        ring[0] = Av::hole(i);
        ring[1] = Av::retval(i);
    }

    fn check_return(st: &State, i: u32, sink: &mut Sink) {
        let sp = &st.slots[SP];
        if !sp.origins.is_top() && !sp.is_entry_value(SP_TOK) {
            sink.error(
                "E-SP",
                Some(i),
                Some("sp".to_string()),
                "returns without restoring sp to its entry value \
                 (missing spaddi +frame)"
                    .to_string(),
            );
        }
    }

    fn sp_addi(st: &mut State, i: u32, imm: i32, (): (), marks: &mut Marks) {
        mark_av(&st.slots[SP], marks);
        st.slots[SP] = addi_result(i, &st.slots[SP], imm as i64);
    }
}

/// Verifies an assembled STRAIGHT program. See the crate docs for the
/// property proved and the diagnostic codes.
pub fn verify_straight(prog: &StProgram, opts: &Options) -> Report {
    crate::verify(prog, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_baselines::straight::asm::assemble;

    fn verify_src(src: &str) -> Report {
        let prog = assemble(src).expect("test program assembles");
        verify_straight(&prog, &Options::default())
    }

    #[test]
    fn straight_line_program_is_clean() {
        let r = verify_src(
            "li 1
             li 2
             add [1], [2]
             halt [1]",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn hole_read_is_flagged() {
        // [1] right after a nop names the nop's value-less slot.
        let r = verify_src(
            "li 1
             nop
             halt [1]",
        );
        assert!(r.diags.iter().any(|d| d.code == "E-HOLE"), "{}", r.render());
    }

    #[test]
    fn unbalanced_convergence_distances_are_flagged() {
        // The taken arm produces one value, the fall-through arm two:
        // at the join, [1] resolves differently per path — the exact
        // static-reach violation STRAIGHT compilers must pad away.
        let r = verify_src(
            "_start:
             call f
             halt [2]
             f:
             bne [2], zero, .two
             mv [2]
             j .join
             .two:
             mv [3]
             mv [3]
             .join:
             mv [2]
             halt [1]",
        );
        assert!(r.diags.iter().any(|d| d.code == "E-PATH"), "{}", r.render());
    }

    #[test]
    fn missing_sp_restore_is_flagged() {
        let r = verify_src(
            "_start:
             call f
             halt [2]
             f:
             spaddi -16
             mv zero
             ret [2]",
        );
        assert!(r.diags.iter().any(|d| d.code == "E-SP"), "{}", r.render());
    }

    #[test]
    fn balanced_call_and_frame_roundtrip_is_clean() {
        // A callee that spills its return address, rebalances sp, and
        // returns through the reloaded value.
        let r = verify_src(
            "_start:
             call f
             halt [2]
             f:
             spaddi -16
             sd [2], 0(sp)
             li 7
             ld 0(sp)
             spaddi 16
             mv [3]
             ret [3]",
        );
        assert!(r.is_clean(), "{}", r.render());
    }
}
