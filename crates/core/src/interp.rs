//! Functional interpreter for Clockhands programs: the shared
//! [`ch_common::interp::Interpreter`] over the [`HandFile`].
//!
//! Executes a validated [`crate::Program`] yielding one
//! [`ch_common::inst::DynInst`] per committed instruction with the
//! register dataflow resolved to producer sequence numbers. The timing
//! simulator and the trace analyses consume that stream. This module
//! supplies only the operand file: hand reads, producers and writes.

use crate::hand::Hand;
use crate::inst::{Clockhands, Src};
use crate::state::{DistanceError, HandFile};
use ch_common::inst::{DstTag, NO_PRODUCER};
use ch_common::interp::OperandFile;
use ch_common::isa::Absent;

pub use ch_common::interp::STACK_TOP;

/// A runtime error raised during interpretation.
pub type InterpError = ch_common::interp::InterpError<DistanceError>;

/// Functional Clockhands interpreter.
///
/// # Examples
///
/// ```
/// use ch_common::exec::Machine;
/// use clockhands::asm::assemble;
/// use clockhands::interp::Interpreter;
///
/// let prog = assemble(
///     "li t, 6
///      li t, 7
///      mul t, t[0], t[1]
///      halt t[0]",
/// )?;
/// let mut interp = Interpreter::new(prog)?;
/// let result = interp.run(1_000)?;
/// assert_eq!(result.exit_value, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Interpreter = ch_common::interp::Interpreter<Clockhands>;

/// The stack pointer is seeded into the `s` hand, so `s[0]` reads it at
/// entry, per the calling convention.
impl OperandFile<Clockhands> for HandFile {
    type Error = DistanceError;

    fn at_entry(sp: u64) -> Self {
        let mut file = HandFile::new();
        file.write(Hand::S, sp, NO_PRODUCER);
        file
    }

    #[inline]
    fn read(&self, src: Src, _seq: u64) -> Result<u64, DistanceError> {
        match src {
            Src::Hand(h, d) => self.read(h, d),
            Src::Zero => Ok(0),
        }
    }

    #[inline]
    fn producer(&self, src: Src, _seq: u64) -> Result<u64, DistanceError> {
        match src {
            Src::Hand(h, d) => self.producer(h, d),
            Src::Zero => Ok(NO_PRODUCER),
        }
    }

    #[inline]
    fn write(&mut self, out: Option<(Hand, u64)>, seq: u64) -> Option<DstTag> {
        let (h, v) = out?;
        self.write(h, v, seq);
        Some(DstTag::Hand(h.index() as u8))
    }

    fn sp_addi(&mut self, _imm: i32, isa: Absent) {
        match isa {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use ch_common::exec::Machine;
    use ch_common::op::OpClass;

    fn run_src(src: &str) -> ch_common::exec::RunResult {
        let prog = assemble(src).expect("assembles");
        Interpreter::new(prog)
            .expect("valid")
            .run(1_000_000)
            .expect("runs")
    }

    #[test]
    fn limit_boundary_is_uniform() {
        // Regression (cross-ISA fuzz finding): exhausting the step budget
        // on an already-halted machine must report Ok, and a fresh
        // zero-budget run must report LimitReached — the same rule the
        // STRAIGHT and RISC-V interpreters follow.
        let prog = assemble("li t, 7\nhalt t[0]").expect("assembles");
        let mut it = Interpreter::new(prog.clone()).expect("valid");
        assert!(matches!(it.run(0), Err(InterpError::LimitReached)));
        assert_eq!(it.run(100).expect("halts").exit_value, 7);
        // Re-running a halted machine, even with a zero budget, stays Ok.
        assert_eq!(it.run(0).expect("still halted").exit_value, 7);
        let mut it = Interpreter::new(prog).expect("valid");
        assert!(matches!(it.trace(1), Err(InterpError::LimitReached)));
        // Resuming after the budget ran out only replays what's left —
        // here just the (record-free) halt step.
        let (rest, res) = it.trace(100).expect("halts");
        assert_eq!(res.exit_value, 7);
        assert!(rest.is_empty());
    }

    #[test]
    fn paper_fig6_loop() {
        // The loop of Fig. 6: store 42 into p[0..10], counting iterations.
        let r = run_src(
            "li t, 4096       # p
             li t, 0          # i
             li v, 10         # N (loop constant, v hand)
             li v, 42         # value 42 (loop constant)
             mv u, t[1]       # running p in u
             j .entry
         .loop:
             sw v[0], 0(u[0])
             addi u, u[0], 4
             addi t, t[0], 1
         .entry:
             bne t[0], v[1], .loop
             halt t[0]",
        );
        assert_eq!(r.exit_value, 10);
    }

    #[test]
    fn loop_constant_stays_reachable() {
        // v is written once before the loop; hundreds of t writes later it
        // is still v[0] — the distance does not change (Section 3.3).
        let r = run_src(
            "li v, 7
             li t, 0
             li t, 0          # i
         .loop:
             addi t, t[0], 1
             blt t[0], v[0], .loop
             halt t[0]",
        );
        assert_eq!(r.exit_value, 7);
    }

    #[test]
    fn memory_roundtrip_and_exit() {
        let r = run_src(
            "li t, 8192
             li t, 12345
             sd t[0], 8(t[1])
             ld u, 8(t[1])
             halt u[0]",
        );
        assert_eq!(r.exit_value, 12345);
    }

    #[test]
    fn call_and_return_convention() {
        // Compute f(5) where f doubles its argument. Args via s hand:
        // caller writes arg then calls (s[0]=ret addr, s[1]=arg inside f).
        // This leaf function allocates no frame, so it skips the SP
        // restore and the return value sits at s[0] after the return.
        let r = run_src(
            "li s, 5          # first argument
             call s, .f
             halt s[0]        # return value
         .f:
             add t, s[1], s[1]
             mv s, t[0]       # return value written to s
             jr s[1]          # s[1] is now the return address
            ",
        );
        assert_eq!(r.exit_value, 10);
    }

    #[test]
    fn dataflow_producers_resolved() {
        let prog = assemble(
            "li t, 1
             li t, 2
             add t, t[0], t[1]
             halt t[0]",
        )
        .unwrap();
        let (trace, _) = Interpreter::new(prog).unwrap().trace(100).unwrap();
        assert_eq!(trace.len(), 3);
        let add = &trace[2];
        assert_eq!(add.class, OpClass::IntAlu);
        assert_eq!(add.srcs, [1, 0]); // t[0] made by seq 1, t[1] by seq 0
    }

    #[test]
    fn sp_is_seeded() {
        let r = run_src("halt s[0]");
        assert_eq!(r.exit_value, STACK_TOP);
    }

    #[test]
    fn limit_reached_reported() {
        let prog = assemble(".spin: j .spin").unwrap();
        let err = Interpreter::new(prog).unwrap().run(100).unwrap_err();
        assert_eq!(err, InterpError::LimitReached);
    }

    #[test]
    fn running_off_the_end_is_an_error() {
        let prog = assemble("li t, 1").unwrap();
        let err = Interpreter::new(prog).unwrap().run(10).unwrap_err();
        assert!(matches!(err, InterpError::PcOffEnd { .. }));
    }

    #[test]
    fn iterator_streams_until_halt() {
        let prog = assemble(
            "li t, 1
             li t, 2
             add t, t[0], t[1]
             halt t[0]",
        )
        .unwrap();
        let mut it = Interpreter::new(prog).unwrap();
        let mut records = it.records();
        let n = records.by_ref().count();
        assert_eq!(n, 3);
        assert!(records.error().is_none());
        assert_eq!(it.exit_value(), Some(3));
    }
}
