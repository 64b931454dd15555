//! The differential executor: one Kern source, three ISAs, one answer.
//!
//! For a given source the executor
//!
//! 1. compiles through all three backends,
//! 2. runs the three functional interpreters to completion,
//! 3. asserts the three exit checksums are identical,
//! 4. asserts the bytes of every *global* (same addresses in all three
//!    backends, from the shared IR) are identical — stack layouts are
//!    ISA-specific and legitimately differ, so only globals compare,
//! 5. feeds each interpreter's committed trace to the timing simulator
//!    and asserts the simulator retires exactly that stream, in order,
//!    at nondecreasing cycles ([`ch_sim::CommitLog`]).
//!
//! Any violation comes back as a [`HarnessError`] naming the ISA and
//! stage; [`crate::shrink()`] minimizes the offending source.

use ch_common::config::{MachineConfig, WidthClass};
use ch_common::error::{HarnessError, Stage};
use ch_common::inst::DynInst;
use ch_common::IsaKind;
use ch_compiler::{build_ir, compile, ExecError};
use ch_sim::{CommitLog, Simulator};

/// Result of one clean differential run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiffOutcome {
    /// The agreed exit checksum.
    pub exit_value: u64,
    /// Committed instruction counts per ISA, in `IsaKind::ALL` order.
    pub committed: [u64; 3],
}

/// Why a case was skipped rather than judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skip {
    /// At least one interpreter hit the step budget; the case proves
    /// nothing either way (counts differ per ISA by design).
    LimitReached(IsaKind),
}

/// Outcome of [`run_differential`]: a judgement or an explicit skip.
pub type DiffResult = Result<Result<DiffOutcome, Skip>, HarnessError>;

struct IsaRun {
    trace: Vec<DynInst>,
    exit_value: u64,
    committed: u64,
    globals: Vec<u8>,
}

/// Runs `src` through the full differential pipeline.
///
/// `ctx` names the case in errors (e.g. `"fuzz case 17"`); `limit` is
/// the per-ISA instruction budget.
///
/// The outer `Result` is the judgement (compile/execute/mismatch
/// failures); the inner one distinguishes a clean agreement from an
/// explicit [`Skip`].
pub fn run_differential(ctx: &str, src: &str, limit: u64) -> DiffResult {
    // The shared IR fixes every global's address for all three backends;
    // those ranges are the memory-effect observables.
    let module =
        build_ir(src).map_err(|e| HarnessError::new(ctx, Stage::Compile, e.to_string()))?;
    let global_ranges: Vec<(u64, u64)> = module.globals.iter().map(|g| (g.addr, g.size)).collect();
    let set = compile(src).map_err(|e| HarnessError::new(ctx, Stage::Compile, e.to_string()))?;
    // Static reach oracle: the STRAIGHT backend's relay-mv placement must
    // leave every distance encodable before we even execute.
    crate::oracle::check_straight_reach(&set.straight)
        .map_err(|e| HarnessError::new(ctx, Stage::Validate, e).on_isa("straight"))?;
    // Verifier-clean oracle: every compiled program must pass the
    // path-sensitive dataflow verifier before the interpreters run, so a
    // backend bug that happens to execute benignly still fails the case.
    verify_set(ctx, &set)?;

    let mut runs: Vec<IsaRun> = Vec::with_capacity(3);
    for isa in IsaKind::ALL {
        let fail = |stage, detail: String| HarnessError::new(ctx, stage, detail).on_isa(isa.name());
        let run = match set.program(isa).execute(limit, true) {
            Ok(run) => run,
            Err(ExecError::LimitReached) => return Ok(Err(Skip::LimitReached(isa))),
            Err(e) => return Err(fail(e.stage(), e.to_string())),
        };
        runs.push(IsaRun {
            globals: read_globals(&run.mem, &global_ranges),
            trace: run.trace,
            exit_value: run.result.exit_value,
            committed: run.result.committed,
        });
    }

    // Interpreter-vs-interpreter: exit checksums and global memory.
    let base = &runs[0];
    for (i, isa) in IsaKind::ALL.iter().enumerate().skip(1) {
        if runs[i].exit_value != base.exit_value {
            return Err(HarnessError::new(
                ctx,
                Stage::Mismatch,
                format!(
                    "exit checksum {:#x} != riscv {:#x}",
                    runs[i].exit_value, base.exit_value
                ),
            )
            .on_isa(isa.name()));
        }
        if runs[i].globals != base.globals {
            let at = runs[i]
                .globals
                .iter()
                .zip(&base.globals)
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            return Err(HarnessError::new(
                ctx,
                Stage::Mismatch,
                format!("global memory differs from riscv at byte offset {at}"),
            )
            .on_isa(isa.name()));
        }
    }

    // Interpreter-vs-simulator: the timing model must retire exactly the
    // interpreter's committed stream, in order.
    for (i, isa) in IsaKind::ALL.iter().enumerate() {
        let cfg = MachineConfig::preset(WidthClass::W8, *isa);
        let mut sim = Simulator::with_tracer(cfg, CommitLog::new());
        let counters = sim.run(runs[i].trace.iter().cloned());
        let log = sim.into_tracer();
        let fail =
            |detail: String| HarnessError::new(ctx, Stage::Mismatch, detail).on_isa(isa.name());
        if counters.committed != runs[i].trace.len() as u64 {
            return Err(fail(format!(
                "simulator committed {} of {} trace instructions",
                counters.committed,
                runs[i].trace.len()
            )));
        }
        if log.entries().len() as u64 != counters.committed {
            return Err(fail(format!(
                "commit log has {} entries for {} commits",
                log.entries().len(),
                counters.committed
            )));
        }
        if !log.is_in_commit_order() {
            return Err(fail("commit stream out of order".to_string()));
        }
        for (entry, inst) in log.entries().iter().zip(&runs[i].trace) {
            if entry.seq != inst.seq || entry.pc != inst.pc {
                return Err(fail(format!(
                    "commit stream diverges at seq {} (pc {:#x}): trace seq {} (pc {:#x})",
                    entry.seq, entry.pc, inst.seq, inst.pc
                )));
            }
        }
    }

    Ok(Ok(DiffOutcome {
        exit_value: base.exit_value,
        committed: [runs[0].committed, runs[1].committed, runs[2].committed],
    }))
}

/// Runs `ch-verify` over all three programs of a compiled set, mapping
/// the first unclean report to a [`Stage::Validate`] harness error on
/// the offending ISA. Lints are allowed; errors are fatal.
fn verify_set(ctx: &str, set: &ch_compiler::CompiledSet) -> Result<(), HarnessError> {
    match ch_compiler::verify_set(set) {
        Ok(()) => Ok(()),
        Err(ch_compiler::CompileError::Verify { isa, detail }) => {
            Err(HarnessError::new(ctx, Stage::Validate, detail).on_isa(isa))
        }
        Err(e) => Err(HarnessError::new(ctx, Stage::Validate, e.to_string())),
    }
}

fn read_globals(mem: &ch_common::Memory, ranges: &[(u64, u64)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(addr, size) in ranges {
        out.extend(mem.read_bytes(addr, size as usize));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_case_agrees() {
        let src = "global g0: int;
            fn main() -> int {
                var a: int = 100;
                var b: int = 0;
                g0 = (a / b) + (a % b) + (1 << 65) + ((0 - 1) >> 63);
                return g0 & 0xffffffff;
            }";
        let out = run_differential("directed", src, 1_000_000)
            .expect("no divergence")
            .expect("no skip");
        // a/0 = -1, a%0 = 100, 1<<65 = 2, -1>>63 = -1 → 100 + 2 - 2 = 100.
        assert_eq!(out.exit_value, 100);
    }

    #[test]
    fn limit_exhaustion_is_a_skip_not_a_failure() {
        let src = "fn main() -> int {
                var s: int = 0;
                for (var i: int = 0; i < 10000; i += 1) { s += i; }
                return s & 0xffffffff;
            }";
        match run_differential("skip", src, 100) {
            Ok(Err(Skip::LimitReached(_))) => {}
            other => panic!("expected skip, got {other:?}"),
        }
    }
}
