//! Functional interpreter for STRAIGHT: the shared
//! [`ch_common::interp::Interpreter`] over the [`RingFile`].

use super::{StSrc, Straight, MAX_DISTANCE};
use ch_common::inst::{DstTag, NO_PRODUCER};
use ch_common::interp::OperandFile;

pub use ch_common::interp::STACK_TOP;

/// Ring capacity for the functional model (≥ MAX_DISTANCE+1, power of 2).
const RING: usize = 256;

/// A source referenced further back than instructions executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadBeforeWrite;

impl std::fmt::Display for ReadBeforeWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("reads a slot older than the program")
    }
}

/// A runtime error raised during interpretation.
pub type InterpError = ch_common::interp::InterpError<ReadBeforeWrite>;

/// Functional STRAIGHT interpreter.
///
/// # Examples
///
/// ```
/// use ch_baselines::straight::asm::assemble;
/// use ch_common::exec::Machine;
/// use ch_baselines::straight::interp::Interpreter;
///
/// let prog = assemble(
///     "li 6
///      li 7
///      mul [2], [1]
///      halt [1]",
/// )?;
/// let mut cpu = Interpreter::new(prog)?;
/// assert_eq!(cpu.run(1000)?.exit_value, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type Interpreter = ch_common::interp::Interpreter<Straight>;

/// The STRAIGHT operand state: the single ring of results, indexed by
/// sequence number, and the SP special register.
#[derive(Debug, Clone)]
pub struct RingFile {
    ring: [u64; RING],
    producers: [u64; RING],
    sp: u64,
}

impl RingFile {
    /// Current SP special-register value.
    pub fn sp(&self) -> u64 {
        self.sp
    }
}

impl OperandFile<Straight> for RingFile {
    type Error = ReadBeforeWrite;

    fn at_entry(sp: u64) -> Self {
        RingFile {
            ring: [0; RING],
            producers: [NO_PRODUCER; RING],
            sp,
        }
    }

    #[inline]
    fn read(&self, src: StSrc, seq: u64) -> Result<u64, ReadBeforeWrite> {
        match src {
            StSrc::Dist(d) => {
                debug_assert!((1..=MAX_DISTANCE).contains(&d));
                if (d as u64) > seq {
                    return Err(ReadBeforeWrite);
                }
                Ok(self.ring[(seq - d as u64) as usize & (RING - 1)])
            }
            StSrc::Sp => Ok(self.sp),
            StSrc::Zero => Ok(0),
        }
    }

    #[inline]
    fn producer(&self, src: StSrc, seq: u64) -> Result<u64, ReadBeforeWrite> {
        Ok(match src {
            StSrc::Dist(d) if (d as u64) <= seq => {
                self.producers[(seq - d as u64) as usize & (RING - 1)]
            }
            _ => NO_PRODUCER,
        })
    }

    /// Every instruction occupies the next ring slot, value or not (this
    /// is what couples distance with execution and forces the relay
    /// instructions).
    #[inline]
    fn write(&mut self, out: Option<((), u64)>, seq: u64) -> Option<DstTag> {
        let slot = (seq as usize) & (RING - 1);
        let (value, producer) = out.map_or((0, NO_PRODUCER), |((), v)| (v, seq));
        self.ring[slot] = value;
        self.producers[slot] = producer;
        out.map(|_| DstTag::RingSlot)
    }

    fn sp_addi(&mut self, imm: i32, (): ()) {
        self.sp = self.sp.wrapping_add(imm as i64 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::straight::asm::assemble;
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
        let prog = assemble("li 7\nhalt [1]").expect("assembles");
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
    fn distances_count_all_instructions() {
        // The store between producer and consumer still occupies a slot,
        // so the add must reach back over it.
        let r = run_src(
            "li 5            # slot 0
             li 4096         # slot 1
             sd [2], 0([1])  # slot 2 (no value)
             add [3], [3]    # [3] = slot 0 = 5 -> 10
             halt [1]",
        );
        assert_eq!(r.exit_value, 10);
    }

    #[test]
    fn loop_needs_relay_mv() {
        // Fig. 2(a): a loop constant must be relayed every iteration so
        // its distance stays the same at the loop head, and the pre-loop
        // code needs a nop so first-entry distances match the steady
        // state. Sum 1..=3 = 6.
        let r = run_src(
            "li 3            # N    (slot 0)
             li 0            # i    (slot 1)
             li 0            # sum  (slot 2)
             nop             # distance adjust (slot 3)
         .loop:
             mv [4]          # relay N
             addi [4], 1     # i+1
             add [4], [1]    # sum + (i+1)
             bne [2], [3], .loop
             halt [2]",
        );
        assert_eq!(r.exit_value, 6);
    }

    #[test]
    fn spaddi_and_sp_loads() {
        let r = run_src(
            "spaddi -16
             li 77
             sd [1], 8(sp)
             ld 8(sp)
             spaddi 16
             halt [2]",
        );
        assert_eq!(r.exit_value, 77);
    }

    #[test]
    fn call_and_ret_by_distance() {
        let r = run_src(
            "li 21           # arg        slot 0
             call .f         # ret addr   slot 1
             halt [2]        # mv result two slots back (ret occupies [1])
         .f:
             add [2], [2]    # arg+arg    slot 2
             mv [1]          # result     slot 3
             ret [3]         # ret addr at distance 3 (call was slot 1)
            ",
        );
        // halt executes after ret (slot 4), so the mv result sits at [2].
        assert_eq!(r.exit_value, 42);
    }

    #[test]
    fn read_before_write_detected() {
        let prog = assemble("mv [5]\nhalt zero").unwrap();
        let err = Interpreter::new(prog).unwrap().run(10).unwrap_err();
        assert_eq!(
            err,
            InterpError::Operand {
                at: 0,
                error: ReadBeforeWrite
            }
        );
    }

    #[test]
    fn dataflow_skips_valueless_slots() {
        let prog = assemble(
            "li 1
             nop
             mv [2]
             halt [1]",
        )
        .unwrap();
        let (trace, _) = Interpreter::new(prog).unwrap().trace(100).unwrap();
        // mv reads slot of `li` (distance 2): producer is seq 0.
        assert_eq!(trace[2].srcs[0], 0);
        // nop produced nothing: its slot has no producer.
        assert_eq!(trace[1].dst, None);
    }
}
