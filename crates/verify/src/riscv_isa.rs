//! The RISC frontend for [`verify_riscv`].
//!
//! Registers are named, so there is no distance arithmetic to verify —
//! the properties here are def-before-use and the ABI obligations the
//! compiler's register allocator relies on. The abstract state is one
//! [`Av`] per logical register plus the symbolic frame.
//!
//! Convention model (mirrors `ch-compiler`'s RISC backend): `ra` holds
//! the return address, `sp` the caller's stack pointer (restored at
//! return, E-SP), the `a`/`fa` registers hold arguments; the ABI
//! callee-saved set (`s0`–`s11`, `fs0`/`fs1`, `fs2`–`fs11`) must hold
//! its entry values at every return (E-CALLEE) and may be read before
//! being written only to save it (E-CSREAD). The backend treats `gp`,
//! `tp`, and the `t` registers as plain caller-saved temporaries, so
//! they are *uninitialized* at entry — the interpreter zero-fills
//! them, which is exactly the silent-default gap this verifier closes.

use crate::check::{EntryKind, Frontend, Options, State};
use crate::domain::{Av, Kind, Marks};
use crate::engine::Sink;
use crate::Report;
use ch_baselines::riscv::{Reg, Riscv, RvProgram, NUM_REGS};
use ch_common::isa::Operands;

/// The ABI callee-saved registers: `s0`–`s11` plus the fp `fs` set.
const CALLEE_SAVED: [u8; 24] = [
    8, 9, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, // s0-s11
    40, 41, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, // fs0-fs11
];

/// Registers at entry that hold caller-meaningful values: `ra`, `sp`,
/// the argument registers, and the callee-saved set. Everything else
/// (temporaries, `gp`/`tp`, scratch) is uninitialized.
fn entry_value(r: u8) -> Option<Av> {
    match r {
        1 => Some(Av {
            kind: Kind::RetAddr,
            ..Av::entry(1)
        }),
        2 => Some(Av::entry(2)),
        10..=17 | 42..=49 => Some(Av::entry(r as u16)),
        _ if CALLEE_SAVED.contains(&r) => Some(Av::entry(r as u16)),
        _ => None,
    }
}

/// One slot per logical register.
impl Frontend for Riscv {
    const ISA: &'static str = "riscv";

    fn machine_entry() -> State {
        let mut slots = vec![Av::uninit(); NUM_REGS as usize];
        slots[Reg::SP.0 as usize] = Av::reset();
        State::new(slots)
    }

    fn convention_entry() -> State {
        State::new(
            (0..NUM_REGS)
                .map(|r| entry_value(r).unwrap_or_else(Av::uninit))
                .collect(),
        )
    }

    fn slot(r: Reg) -> Option<usize> {
        (!r.is_zero()).then_some(r.0 as usize)
    }

    fn range_error(r: Reg) -> String {
        format!("register number {} out of range", r.0)
    }

    fn dst_range_error(rd: Reg) -> (String, String) {
        (rd.to_string(), Self::range_error(rd))
    }

    fn entry_kind(t: u16) -> EntryKind {
        if t == 1 {
            EntryKind::RetAddr
        } else if t < NUM_REGS as u16 && CALLEE_SAVED.contains(&(t as u8)) {
            EntryKind::CalleeSaved
        } else {
            EntryKind::Plain
        }
    }

    fn describe(t: u16) -> String {
        format!("entry {}", Reg(t as u8))
    }

    /// Writes to `x0`, and to a register past the file, are dropped.
    fn write(st: &mut State, rd: Reg, av: Av) {
        if !rd.is_zero() && Riscv::is_valid_dst(rd) {
            st.slots[rd.0 as usize] = av;
        }
    }

    /// Every caller-saved register is clobbered, the return-value
    /// registers hold the result, `rd` the return address, and `sp`, the
    /// callee-saved set and the frame survive.
    fn call(st: &mut State, _: &RvProgram, _: u32, i: u32, rd: Reg, marks: &mut Marks) {
        st.mark_all(marks);
        for r in 1..NUM_REGS {
            if r == Reg::SP.0 || CALLEE_SAVED.contains(&r) {
                continue;
            }
            st.slots[r as usize] = Av::opaque(i);
        }
        st.slots[10] = Av::retval(i); // a0
        st.slots[42] = Av::retval(i); // fa0
        let ra = Av {
            kind: Kind::RetAddr,
            ..Av::inst(i)
        };
        Self::write(st, rd, ra);
    }

    /// `sp` must hold the caller's stack pointer again, and every
    /// callee-saved register must hold its entry value.
    fn check_return(st: &State, i: u32, sink: &mut Sink) {
        let sp = &st.slots[Reg::SP.0 as usize];
        if !sp.origins.is_top() && !sp.is_entry_value(Reg::SP.0 as u16) {
            sink.error(
                "E-SP",
                Some(i),
                Some("x2".to_string()),
                "returns without restoring sp to its entry value (stack not rebalanced)"
                    .to_string(),
            );
        }
        for &r in &CALLEE_SAVED {
            let av = &st.slots[r as usize];
            if !av.origins.is_top() && !av.is_entry_value(r as u16) {
                sink.error(
                    "E-CALLEE",
                    Some(i),
                    Some(Reg(r).to_string()),
                    format!(
                        "callee-saved {} does not hold its entry value at return",
                        Reg(r)
                    ),
                );
            }
        }
    }

    fn sp_addi(_: &mut State, _: u32, _: i32, isa: Self::SpAddi, _: &mut Marks) {
        match isa {}
    }
}

/// Verifies an assembled RISC program. See the crate docs for the
/// property proved and the diagnostic codes.
pub fn verify_riscv(prog: &RvProgram, opts: &Options) -> Report {
    crate::verify(prog, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ch_baselines::riscv::asm::assemble;

    fn verify_src(src: &str) -> Report {
        let prog = assemble(src).expect("test program assembles");
        verify_riscv(&prog, &Options::default())
    }

    #[test]
    fn straight_line_program_is_clean() {
        let r = verify_src(
            "li t0, 1
             addi t1, t0, 2
             add a0, t0, t1
             halt a0",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn use_before_def_is_flagged() {
        let r = verify_src(
            "add a0, t0, t1
             halt a0",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-UNINIT"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn clobbered_callee_saved_is_flagged() {
        let r = verify_src(
            "_start:
             call ra, f
             halt a0
             f:
             li s0, 3
             mv a0, s0
             ret ra",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-CALLEE"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn save_restore_of_callee_saved_is_clean() {
        let r = verify_src(
            "_start:
             call ra, f
             halt a0
             f:
             addi sp, sp, -16
             sd s0, 0(sp)
             li s0, 3
             mv a0, s0
             ld s0, 0(sp)
             addi sp, sp, 16
             ret ra",
        );
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn write_past_the_register_file_is_a_distance_error() {
        // No assembler spells register 70, so the program is built
        // directly; `Program::validate` refuses the same destination.
        use ch_baselines::riscv::{Reg, RvInst};
        let mut prog = RvProgram::new();
        prog.insts.extend([
            RvInst::Li {
                dst: Reg::A0,
                imm: 1,
            },
            RvInst::Li {
                dst: Reg(70),
                imm: 2,
            },
            RvInst::Halt { src: Reg::A0 },
        ]);
        let r = verify_riscv(&prog, &Options::default());
        let e = r
            .errors()
            .next()
            .unwrap_or_else(|| panic!("{}", r.render()));
        assert_eq!(
            (e.code, e.inst, e.operand.as_deref(), e.message.as_str()),
            (
                "E-DIST",
                Some(1),
                Some("<reg70>"),
                "register number 70 out of range"
            ),
            "{}",
            r.render()
        );
        assert!(prog.validate().is_err());
    }

    #[test]
    fn caller_saved_value_does_not_survive_calls() {
        let r = verify_src(
            "_start:
             call ra, f
             halt a0
             f:
             addi sp, sp, -16
             sd ra, 0(sp)
             li t0, 1
             call ra, g
             mv a0, t0
             ld ra, 0(sp)
             addi sp, sp, 16
             ret ra
             g:
             li a0, 2
             ret ra",
        );
        assert!(
            r.diags.iter().any(|d| d.code == "E-CLOBBER"),
            "{}",
            r.render()
        );
    }
}
