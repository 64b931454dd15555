//! Functional interpreter for the RISC baseline: the shared
//! [`ch_common::interp::Interpreter`] over the [`RegFile`].

use super::{Reg, Riscv, NUM_REGS};
use ch_common::inst::{DstTag, NO_PRODUCER};
use ch_common::interp::OperandFile;
use ch_common::isa::Absent;

pub use ch_common::interp::STACK_TOP;

/// A runtime error raised during interpretation (no operand read
/// faults, so never [`ch_common::interp::InterpError::Operand`]).
pub type InterpError = ch_common::interp::InterpError<Absent>;

/// Functional RISC interpreter.
///
/// # Examples
///
/// ```
/// use ch_baselines::riscv::asm::assemble;
/// use ch_common::exec::Machine;
/// use ch_baselines::riscv::interp::Interpreter;
///
/// let prog = assemble(
///     "li a0, 6
///      li a1, 7
///      mul a0, a0, a1
///      halt a0",
/// )?;
/// let mut cpu = Interpreter::new(prog)?;
/// assert_eq!(cpu.run(1000)?.exit_value, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Interpreter = ch_common::interp::Interpreter<Riscv>;

/// The logical register file, with each register's producer.
#[derive(Debug, Clone)]
pub struct RegFile {
    regs: [u64; NUM_REGS as usize],
    producers: [u64; NUM_REGS as usize],
}

impl OperandFile<Riscv> for RegFile {
    type Error = Absent;

    fn at_entry(sp: u64) -> Self {
        let mut regs = [0; NUM_REGS as usize];
        regs[Reg::SP.0 as usize] = sp;
        RegFile {
            regs,
            producers: [NO_PRODUCER; NUM_REGS as usize],
        }
    }

    #[inline]
    fn read(&self, r: Reg, _seq: u64) -> Result<u64, Absent> {
        Ok(self.regs[r.0 as usize])
    }

    #[inline]
    fn producer(&self, r: Reg, _seq: u64) -> Result<u64, Absent> {
        Ok(if r.is_zero() {
            NO_PRODUCER
        } else {
            self.producers[r.0 as usize]
        })
    }

    /// `out` never names `x0`: [`Riscv`] reports no destination for it.
    #[inline]
    fn write(&mut self, out: Option<(Reg, u64)>, seq: u64) -> Option<DstTag> {
        let (r, v) = out?;
        self.regs[r.0 as usize] = v;
        self.producers[r.0 as usize] = seq;
        Some(DstTag::Reg(r.0))
    }

    fn sp_addi(&mut self, _imm: i32, isa: Absent) {
        match isa {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::riscv::asm::assemble;
    use ch_common::exec::Machine;

    fn run_src(src: &str) -> ch_common::exec::RunResult {
        let prog = assemble(src).expect("assembles");
        Interpreter::new(prog)
            .expect("valid")
            .run(1_000_000)
            .expect("runs")
    }

    #[test]
    fn limit_boundary_is_uniform() {
        // Regression (cross-ISA fuzz finding): the three interpreters must
        // agree on limit-boundary behaviour — Ok iff halted once the step
        // budget is spent, LimitReached otherwise.
        let prog = assemble("li a0, 7\nhalt a0").expect("assembles");
        let mut it = Interpreter::new(prog.clone()).expect("valid");
        assert!(matches!(it.run(0), Err(InterpError::LimitReached)));
        assert_eq!(it.run(100).expect("halts").exit_value, 7);
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
    fn iota_loop_matches_fig1() {
        // Fig. 1(b) shape: arr[i] = i for i in 0..N, then checksum.
        let r = run_src(
            "li a0, 4096      # arr
             li a1, 10        # N
             li a5, 0         # i
         .L3:
             sw a5, 0(a0)
             addiw a5, a5, 1
             addi a0, a0, 4
             bne a1, a5, .L3
             lw a2, -4(a0)    # arr[9]
             halt a2",
        );
        assert_eq!(r.exit_value, 9);
    }

    #[test]
    fn call_return_with_ra() {
        let r = run_src(
            "li a0, 21
             call ra, .double
             halt a0
         .double:
             add a0, a0, a0
             jr ra",
        );
        assert_eq!(r.exit_value, 42);
    }

    #[test]
    fn x0_reads_zero_even_after_write() {
        let r = run_src(
            "addi x0, x0, 99
             mv a0, x0
             halt a0",
        );
        assert_eq!(r.exit_value, 0);
    }

    #[test]
    fn sp_seeded() {
        let r = run_src("halt sp");
        assert_eq!(r.exit_value, STACK_TOP);
    }

    #[test]
    fn dataflow_producers() {
        let prog = assemble(
            "li a0, 1
             li a1, 2
             add a2, a0, a1
             halt a2",
        )
        .unwrap();
        let (trace, _) = Interpreter::new(prog).unwrap().trace(100).unwrap();
        assert_eq!(trace[2].srcs, [0, 1]);
    }

    #[test]
    fn fp_roundtrip() {
        let r = run_src(
            "li a0, 3
             fcvt.d.l f0, a0, x0
             fadd f1, f0, f0
             fcvt.l.d a1, f1, x0
             halt a1",
        );
        assert_eq!(r.exit_value, 6);
    }
}
