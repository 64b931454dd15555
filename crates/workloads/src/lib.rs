#![warn(missing_docs)]

//! Benchmark kernels for the Clockhands reproduction.
//!
//! The paper evaluates CoreMark plus four SPEC CPU benchmarks (401.bzip2,
//! 605.mcf_s, 619.lbm_s, 657.xz_s). SPEC sources and inputs are licensed,
//! so this crate provides Kern kernels that reproduce each benchmark's
//! *dominant behaviour* (see DESIGN.md for the substitution argument):
//!
//! * [`Workload::Coremark`] — linked-list traversal, a small integer
//!   matrix multiply, and a state machine with CRC accumulation.
//! * [`Workload::Bzip2`] — run-length + move-to-front coding with
//!   frequency counting over pseudo-random bytes (branchy byte work).
//! * [`Workload::Mcf`] — arc-relaxation over a sparse graph with helper
//!   functions called inside the hot loop (pointer chasing + calls).
//! * [`Workload::Lbm`] — a floating-point stencil streaming over a grid
//!   (long-lived FP values).
//! * [`Workload::Xz`] — an LZ77-style hash-chain match finder that
//!   saturates the integer units.
//!
//! Every kernel generates its input with an in-kernel LCG, returns a
//! checksum, and has a bit-exact Rust [`reference`](Workload::reference)
//! used to validate all three compiled ISAs.

mod kernels;

use ch_common::error::{HarnessError, Stage};
use ch_common::inst::DynInst;
use ch_common::IsaKind;
use ch_compiler::{
    build_ir, compile, compile_isa, compile_verified, CompileError, CompiledSet, IsaProgram,
};
use std::sync::atomic::{AtomicBool, Ordering};

/// Whether [`Workload::compile`] and [`Workload::compile_for`] (and so
/// every run and trace) statically verify the emitted programs
/// (`ch-verify`). On by default — verification has caught real
/// backend distance bugs and costs little at these program sizes.
static VERIFY: AtomicBool = AtomicBool::new(true);

/// Enables or disables post-compile static verification process-wide
/// (the `--no-verify` escape hatch of the experiment drivers).
pub fn set_verify(on: bool) {
    VERIFY.store(on, Ordering::Relaxed);
}

/// Whether post-compile static verification is currently enabled.
pub fn verify_enabled() -> bool {
    VERIFY.load(Ordering::Relaxed)
}

/// Benchmark selection (paper naming in [`Workload::paper_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Workload {
    /// CoreMark analogue.
    Coremark,
    /// 401.bzip2 analogue.
    Bzip2,
    /// 605.mcf_s analogue.
    Mcf,
    /// 619.lbm_s analogue.
    Lbm,
    /// 657.xz_s analogue.
    Xz,
}

/// Problem size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scale {
    /// Tiny: suitable for unit tests (≈10⁴–10⁵ instructions).
    Test,
    /// Small: for quick simulations (≈10⁶ instructions).
    Small,
    /// Full: for the headline figures (≈10⁷ instructions).
    Full,
}

impl Scale {
    /// Short identifier (used in error context and file names).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// The inverse of [`name`](Self::name), case-insensitively (used by
    /// the sweep service and CLIs to parse scale identifiers).
    pub fn from_name(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "test" => Some(Scale::Test),
            "small" => Some(Scale::Small),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }
}

/// Architectural outcome of functionally executing a workload: the
/// checksum it halted with (already validated against
/// [`Workload::reference`] by the APIs that return this) and how many
/// instructions committed.
pub use ch_common::exec::RunResult as RunOutcome;

impl Workload {
    /// All workloads in the paper's figure order.
    pub const ALL: [Workload; 5] = [
        Workload::Coremark,
        Workload::Bzip2,
        Workload::Mcf,
        Workload::Lbm,
        Workload::Xz,
    ];

    /// Short identifier (used in file names and tables).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Coremark => "coremark",
            Workload::Bzip2 => "bzip2",
            Workload::Mcf => "mcf",
            Workload::Lbm => "lbm",
            Workload::Xz => "xz",
        }
    }

    /// The inverse of [`name`](Self::name), case-insensitively (used by
    /// the sweep service and CLIs to parse workload identifiers).
    pub fn from_name(s: &str) -> Option<Workload> {
        let t = s.to_ascii_lowercase();
        Workload::ALL.into_iter().find(|w| w.name() == t)
    }

    /// The benchmark name used in the paper's figures.
    pub fn paper_name(self) -> &'static str {
        match self {
            Workload::Coremark => "CoreMark",
            Workload::Bzip2 => "401.bzip2",
            Workload::Mcf => "605.mcf_s",
            Workload::Lbm => "619.lbm_s",
            Workload::Xz => "657.xz_s",
        }
    }

    /// The Kern source of the kernel at the given scale.
    pub fn source(self, scale: Scale) -> String {
        match self {
            Workload::Coremark => kernels::coremark::source(scale),
            Workload::Bzip2 => kernels::bzip2::source(scale),
            Workload::Mcf => kernels::mcf::source(scale),
            Workload::Lbm => kernels::lbm::source(scale),
            Workload::Xz => kernels::xz::source(scale),
        }
    }

    /// Bit-exact Rust reference checksum for validation.
    pub fn reference(self, scale: Scale) -> u64 {
        match self {
            Workload::Coremark => kernels::coremark::reference(scale),
            Workload::Bzip2 => kernels::bzip2::reference(scale),
            Workload::Mcf => kernels::mcf::reference(scale),
            Workload::Lbm => kernels::lbm::reference(scale),
            Workload::Xz => kernels::xz::reference(scale),
        }
    }

    /// Compiles the kernel for all three ISAs.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`CompileError`] (a kernel that fails to
    /// compile is a bug in this crate).
    pub fn compile(self, scale: Scale) -> Result<CompiledSet, CompileError> {
        if verify_enabled() {
            compile_verified(&self.source(scale))
        } else {
            compile(&self.source(scale))
        }
    }

    /// Compiles the kernel for `isa` alone: the shared front end, then
    /// only that ISA's backend and, when [`verify_enabled`], only its
    /// static verifier (see [`ch_compiler::compile_isa`]).
    ///
    /// # Errors
    ///
    /// Returns the underlying [`CompileError`], which concerns `isa`'s
    /// program (no other ISA is compiled).
    pub fn compile_for(self, scale: Scale, isa: IsaKind) -> Result<IsaProgram, CompileError> {
        compile_isa(&build_ir(&self.source(scale))?, isa, verify_enabled())
    }

    /// Functionally executes the kernel on `isa` and validates the
    /// checksum against [`Workload::reference`].
    ///
    /// # Errors
    ///
    /// A [`HarnessError`] naming the workload, scale, and ISA, at stage
    /// [`Stage::Compile`], [`Stage::Validate`] (bad program),
    /// [`Stage::Execute`] (interpreter error / limit), or
    /// [`Stage::Mismatch`] (wrong checksum).
    pub fn run_on(
        self,
        scale: Scale,
        isa: IsaKind,
        limit: u64,
    ) -> Result<RunOutcome, HarnessError> {
        self.execute(scale, isa, limit, false).map(|(_, r)| r)
    }

    /// As [`Workload::run_on`], but also returns the full committed
    /// [`DynInst`] trace (the stream the timing simulator consumes).
    ///
    /// The first call sets the process's heap policy
    /// ([`ch_common::heap`]): trace buffers come from the heap and reuse
    /// the pages of dropped ones, so the peak resident size does not
    /// depend on the order in which traces are built.
    pub fn trace_on(
        self,
        scale: Scale,
        isa: IsaKind,
        limit: u64,
    ) -> Result<(Vec<DynInst>, RunOutcome), HarnessError> {
        ch_common::heap::keep_large_blocks_on_heap();
        self.execute(scale, isa, limit, true)
    }

    /// Compiles the kernel for `isa` alone, interprets it (keeping the
    /// committed trace only when `keep_trace` is set; otherwise the
    /// returned trace is empty), and validates the checksum.
    fn execute(
        self,
        scale: Scale,
        isa: IsaKind,
        limit: u64,
        keep_trace: bool,
    ) -> Result<(Vec<DynInst>, RunOutcome), HarnessError> {
        let fail = |stage, detail: String| {
            let ctx = format!("{}/{}", self.name(), scale.name());
            HarnessError::new(ctx, stage, detail).on_isa(isa.name())
        };
        let prog = self
            .compile_for(scale, isa)
            .map_err(|e| fail(Stage::Compile, e.to_string()))?;
        let run = prog
            .execute(limit, keep_trace)
            .map_err(|e| fail(e.stage(), e.to_string()))?;
        let exit_value = run.result.exit_value;
        let expect = self.reference(scale);
        if exit_value != expect {
            return Err(fail(
                Stage::Mismatch,
                format!("checksum {exit_value:#x} != reference {expect:#x}"),
            ));
        }
        Ok((run.trace, run.result))
    }

    /// Runs the kernel on all three ISAs, validating every checksum.
    ///
    /// # Errors
    ///
    /// The first failing ISA's [`HarnessError`] (ISAs are tried in
    /// paper order R, S, C).
    pub fn verify(self, scale: Scale, limit: u64) -> Result<[RunOutcome; 3], HarnessError> {
        let mut out = [RunOutcome {
            exit_value: 0,
            committed: 0,
        }; 3];
        for (slot, isa) in out.iter_mut().zip(IsaKind::ALL) {
            *slot = self.run_on(scale, isa, limit)?;
        }
        Ok(out)
    }
}

impl std::fmt::Display for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.paper_name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Instruction budget generous enough for Test scale on every ISA.
    const LIMIT: u64 = 80_000_000;

    #[test]
    fn all_kernels_agree_across_isas_and_reference() {
        for w in Workload::ALL {
            // verify() checks every ISA's checksum against the reference
            // and names the failing workload/scale/ISA on error.
            let [rv, st, _ch] = w
                .verify(Scale::Test, LIMIT)
                .unwrap_or_else(|e| panic!("{e}"));

            // The paper's Fig. 15 ordering: STRAIGHT executes the most
            // instructions.
            assert!(
                st.committed > rv.committed,
                "{w}: STRAIGHT should execute more instructions ({} vs {})",
                st.committed,
                rv.committed
            );
        }
    }

    #[test]
    fn scales_are_ordered() {
        let w = Workload::Coremark;
        let t = w.run_on(Scale::Test, IsaKind::Riscv, LIMIT).unwrap();
        let s = w.run_on(Scale::Small, IsaKind::Riscv, LIMIT).unwrap();
        assert!(s.committed > t.committed);
    }

    #[test]
    fn harness_error_names_the_failing_run() {
        // An absurdly small step budget must surface as an Execute-stage
        // HarnessError naming the workload, scale, and ISA — not a panic.
        let e = Workload::Coremark
            .run_on(Scale::Test, IsaKind::Clockhands, 10)
            .unwrap_err();
        assert_eq!(e.stage, Stage::Execute);
        assert_eq!(
            e.to_string(),
            "coremark/test [clockhands] failed at execute: instruction limit reached before halt"
        );
    }

    #[test]
    fn paper_names() {
        assert_eq!(Workload::Mcf.paper_name(), "605.mcf_s");
        assert_eq!(Workload::Coremark.to_string(), "CoreMark");
    }
}
