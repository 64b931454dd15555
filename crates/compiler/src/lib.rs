#![warn(missing_docs)]

//! # Kern compiler — one source, three instruction sets
//!
//! The paper's compiler (Fig. 10) shares the front end and instruction
//! selection across RISC-V, STRAIGHT, and Clockhands and differs only in
//! the register-assignment phase. This crate mirrors that structure for
//! **Kern**, a C-like kernel language:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — the shared front end,
//! * [`lower`] — typed lowering to a CFG IR ([`ir`]),
//! * [`passes`] — target-independent clean-up,
//! * [`mod@cfg`] — liveness and loop analyses used by all backends,
//! * [`backend`] — the three register-assignment strategies:
//!   * `riscv`: linear-scan allocation onto 31+32 logical registers,
//!   * `straight`: edge-relay distance fixing with a single ring and the
//!     `SPADDi` special stack pointer,
//!   * `clockhands`: hand assignment (Section 6.2) followed by per-hand
//!     distance fixing;
//!
//!   the last two share one ring-position core for the distance fixing
//!   and keep only their conventions, hand assignment and spill policy.
//!
//! ## Quick start
//!
//! ```
//! use ch_compiler::compile;
//!
//! let src = "fn main() -> int {
//!     var s: int = 0;
//!     for (var i: int = 1; i <= 10; i += 1) { s += i; }
//!     return s;
//! }";
//! let out = compile(src)?;
//! // The same program, three ways.
//! assert!(!out.riscv.is_empty() && !out.straight.is_empty() && !out.clockhands.is_empty());
//! # Ok::<(), ch_compiler::CompileError>(())
//! ```

pub mod ast;
pub mod backend;
pub mod cfg;
pub mod ir;
pub mod lexer;
pub mod lower;
pub mod parser;
pub mod passes;

use ch_baselines::riscv::RvProgram;
use ch_baselines::straight::StProgram;
use ch_common::exec::{Machine, RunResult};
use ch_common::inst::DynInst;
use ch_common::{EncodingVariant, IsaKind, Memory, Stage};
use clockhands::Program as ChProgram;
use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide backend-optimization toggle (default on). See
/// [`set_optimize`].
static OPTIMIZE: AtomicBool = AtomicBool::new(true);

/// Enables or disables the rotating-register backend optimizations
/// (distance-aware scheduling, measured-lifetime hand assignment,
/// demand-driven relays, clobber-only callee saves) process-wide.
///
/// The `figures --no-opt` escape hatch uses this for A/B comparisons;
/// tests that need an explicit configuration should instead call the
/// backends' `compile_with` with an [`backend::opt::OptConfig`].
pub fn set_optimize(on: bool) {
    OPTIMIZE.store(on, Ordering::Relaxed);
}

/// Whether backend optimizations are enabled (see [`set_optimize`]).
pub fn optimize_enabled() -> bool {
    OPTIMIZE.load(Ordering::Relaxed)
}

/// Any error produced along the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Front-end (lex/parse) failure.
    Parse(parser::ParseError),
    /// Type/lowering failure.
    Lower(lower::LowerError),
    /// Back-end failure (e.g. an unsatisfiable distance constraint).
    Backend(String),
    /// The emitted program failed post-backend static verification
    /// (see the `ch-verify` crate); `detail` holds the rendered errors.
    Verify {
        /// Which backend's output failed ("clockhands", "straight", "riscv").
        isa: &'static str,
        /// Rendered verifier error diagnostics.
        detail: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "parse error: {e}"),
            CompileError::Lower(e) => write!(f, "lowering error: {e}"),
            CompileError::Backend(e) => write!(f, "backend error: {e}"),
            CompileError::Verify { isa, detail } => {
                write!(f, "static verification failed for {isa} output:\n{detail}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<parser::ParseError> for CompileError {
    fn from(e: parser::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<lower::LowerError> for CompileError {
    fn from(e: lower::LowerError) -> Self {
        CompileError::Lower(e)
    }
}

/// The same Kern program compiled for all three ISAs.
#[derive(Debug, Clone)]
pub struct CompiledSet {
    /// RISC-V-like binary.
    pub riscv: RvProgram,
    /// STRAIGHT binary.
    pub straight: StProgram,
    /// Clockhands binary.
    pub clockhands: ChProgram,
}

impl CompiledSet {
    /// The program of one ISA.
    pub fn program(&self, isa: IsaKind) -> IsaProgram {
        match isa {
            IsaKind::Riscv => IsaProgram::Riscv(self.riscv.clone()),
            IsaKind::Straight => IsaProgram::Straight(self.straight.clone()),
            IsaKind::Clockhands => IsaProgram::Clockhands(self.clockhands.clone()),
        }
    }
}

/// Builds the optimised IR module for a source text.
///
/// # Errors
///
/// Returns [`CompileError`] on front-end or lowering failure.
pub fn build_ir(src: &str) -> Result<ir::Module, CompileError> {
    let unit = parser::parse(src)?;
    let mut module = lower::lower(&unit)?;
    passes::optimize(&mut module);
    Ok(module)
}

/// One ISA's compiled program, as [`compile_isa`] returns it.
#[derive(Debug, Clone, PartialEq)]
pub enum IsaProgram {
    /// RISC-V-like binary.
    Riscv(RvProgram),
    /// STRAIGHT binary.
    Straight(StProgram),
    /// Clockhands binary.
    Clockhands(ChProgram),
}

impl IsaProgram {
    /// The `ch-verify` report on this program, under default options.
    pub fn verify(&self) -> ch_verify::Report {
        let opts = ch_verify::Options::default();
        match self {
            IsaProgram::Riscv(p) => ch_verify::verify_riscv(p, &opts),
            IsaProgram::Straight(p) => ch_verify::verify_straight(p, &opts),
            IsaProgram::Clockhands(p) => ch_verify::verify_clockhands(p, &opts),
        }
    }

    /// Builds this program's interpreter and runs it to a halt within
    /// `limit` steps, keeping the committed trace when `keep_trace` is
    /// set (otherwise [`Execution::trace`] is empty). The ISA is matched
    /// once per run; the loop itself is the interpreter's own
    /// [`Machine`] instance.
    ///
    /// # Errors
    ///
    /// [`ExecError`]: the interpreter rejected the program, the budget
    /// ran out, or execution faulted.
    pub fn execute(self, limit: u64, keep_trace: bool) -> Result<Execution, ExecError> {
        match self {
            IsaProgram::Riscv(p) => drive(
                ch_baselines::riscv::interp::Interpreter::new(p).map_err(invalid)?,
                limit,
                keep_trace,
            ),
            IsaProgram::Straight(p) => drive(
                ch_baselines::straight::interp::Interpreter::new(p).map_err(invalid)?,
                limit,
                keep_trace,
            ),
            IsaProgram::Clockhands(p) => drive(
                clockhands::interp::Interpreter::new(p).map_err(invalid)?,
                limit,
                keep_trace,
            ),
        }
    }
}

/// One halted run of an [`IsaProgram`].
#[derive(Debug, Clone)]
pub struct Execution {
    /// The committed trace (empty unless it was asked for).
    pub trace: Vec<DynInst>,
    /// The exit value and committed count.
    pub result: RunResult,
    /// The machine's memory at the halt.
    pub mem: Memory,
}

/// Why [`IsaProgram::execute`] did not reach a halt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The interpreter rejected the program; the text is its error.
    Invalid(String),
    /// The step budget was spent before the program halted.
    LimitReached,
    /// The interpreter faulted; the text is its error.
    Fault(String),
}

impl ExecError {
    /// The harness stage the error belongs to: [`Stage::Validate`] for a
    /// rejected program, [`Stage::Execute`] otherwise.
    pub fn stage(&self) -> Stage {
        match self {
            ExecError::Invalid(_) => Stage::Validate,
            ExecError::LimitReached | ExecError::Fault(_) => Stage::Execute,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Invalid(e) | ExecError::Fault(e) => f.write_str(e),
            ExecError::LimitReached => f.write_str("instruction limit reached before halt"),
        }
    }
}

impl std::error::Error for ExecError {}

fn invalid(e: impl std::fmt::Display) -> ExecError {
    ExecError::Invalid(e.to_string())
}

fn drive<M>(mut cpu: M, limit: u64, keep_trace: bool) -> Result<Execution, ExecError>
where
    M: Machine,
    M::Error: std::fmt::Display + PartialEq,
{
    let ran = if keep_trace {
        cpu.trace(limit)
    } else {
        cpu.run(limit).map(|r| (Vec::new(), r))
    };
    match ran {
        Ok((trace, result)) => Ok(Execution {
            trace,
            result,
            mem: cpu.into_mem(),
        }),
        Err(e) if e == M::LIMIT_REACHED => Err(ExecError::LimitReached),
        Err(e) => Err(ExecError::Fault(e.to_string())),
    }
}

/// Turns a verifier report into a result. Lint warnings are tolerated;
/// an error-severity finding becomes [`CompileError::Verify`] naming the
/// report's ISA.
fn check(report: ch_verify::Report) -> Result<(), CompileError> {
    if report.is_clean() {
        return Ok(());
    }
    let detail = report
        .errors()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n");
    Err(CompileError::Verify {
        isa: report.isa,
        detail,
    })
}

/// Compiles an IR module (from [`build_ir`]) for one ISA only: that
/// ISA's backend and, when `verify` is set, its `ch-verify` pass. The
/// result equals the matching field of [`compile`]'s set; callers that
/// run one ISA skip the other two backends and verifiers.
///
/// # Errors
///
/// Returns [`CompileError::Backend`] or [`CompileError::Verify`]; either
/// is about `isa`'s program, since no other ISA is compiled.
pub fn compile_isa(
    module: &ir::Module,
    isa: IsaKind,
    verify: bool,
) -> Result<IsaProgram, CompileError> {
    let prog = match isa {
        IsaKind::Riscv => backend::riscv::compile(module).map(IsaProgram::Riscv),
        IsaKind::Straight => backend::straight::compile(module).map(IsaProgram::Straight),
        IsaKind::Clockhands => backend::clockhands::compile(module).map(IsaProgram::Clockhands),
    }
    .map_err(CompileError::Backend)?;
    if verify {
        verify_program(&prog)?;
    }
    Ok(prog)
}

/// Statically verifies one ISA's program, as [`compile_isa`] does when
/// asked to.
///
/// # Errors
///
/// Returns [`CompileError::Verify`] naming the program's ISA.
pub fn verify_program(prog: &IsaProgram) -> Result<(), CompileError> {
    check(prog.verify())
}

/// Compiles a Kern source for all three ISAs.
///
/// # Errors
///
/// Returns [`CompileError`] for front-end, lowering, or backend failures.
pub fn compile(src: &str) -> Result<CompiledSet, CompileError> {
    let module = build_ir(src)?;
    Ok(CompiledSet {
        riscv: backend::riscv::compile(&module).map_err(CompileError::Backend)?,
        straight: backend::straight::compile(&module).map_err(CompileError::Backend)?,
        clockhands: backend::clockhands::compile(&module).map_err(CompileError::Backend)?,
    })
}

/// Runs the `ch-verify` static verifier over an already-compiled set.
///
/// Lint warnings are tolerated; any error-severity finding means the
/// backends emitted a program whose dataflow or calling conventions are
/// provably broken on some path.
///
/// # Errors
///
/// Returns [`CompileError::Verify`] naming the first failing ISA, in the
/// order Clockhands, STRAIGHT, RISC-V.
pub fn verify_set(set: &CompiledSet) -> Result<(), CompileError> {
    let opts = ch_verify::Options::default();
    check(ch_verify::verify_clockhands(&set.clockhands, &opts))?;
    check(ch_verify::verify_straight(&set.straight, &opts))?;
    check(ch_verify::verify_riscv(&set.riscv, &opts))
}

/// Compiles a Kern source for all three ISAs and statically verifies
/// each emitted program with [`verify_set`].
///
/// # Errors
///
/// Returns [`CompileError`] for front-end, lowering, backend, or
/// verification failures.
pub fn compile_verified(src: &str) -> Result<CompiledSet, CompileError> {
    let set = compile(src)?;
    verify_set(&set)?;
    Ok(set)
}

/// A [`CompiledSet`] run through the `ch-encode` layout pass: real code
/// bytes, literal pools, and byte PCs for each ISA under one
/// [`EncodingVariant`].
#[derive(Debug, Clone)]
pub struct EncodedSet {
    /// Which binary encoding variant the set was laid out under.
    pub variant: EncodingVariant,
    /// RISC-V-like binary, encoded.
    pub riscv: ch_encode::EncodedProgram,
    /// STRAIGHT binary, encoded.
    pub straight: ch_encode::EncodedProgram,
    /// Clockhands binary, encoded.
    pub clockhands: ch_encode::EncodedProgram,
}

impl EncodedSet {
    /// The encoded program of one ISA.
    pub fn program(&self, isa: IsaKind) -> &ch_encode::EncodedProgram {
        match isa {
            IsaKind::Riscv => &self.riscv,
            IsaKind::Straight => &self.straight,
            IsaKind::Clockhands => &self.clockhands,
        }
    }
}

/// Lays out a compiled set as real code bytes under `variant`.
///
/// The backends only emit encodable programs (registers below 64, hand
/// distances inside the ring, targets inside the program), so a failure
/// here means a backend bug, reported as a structured
/// [`ch_encode::EncodeError`] rather than a panic.
///
/// # Errors
///
/// Returns the first [`ch_encode::EncodeError`] across the three ISAs.
pub fn encode_set(
    set: &CompiledSet,
    variant: EncodingVariant,
) -> Result<EncodedSet, ch_encode::EncodeError> {
    Ok(EncodedSet {
        variant,
        riscv: ch_encode::encode_riscv(&set.riscv.insts, variant)?,
        straight: ch_encode::encode_straight(&set.straight.insts, variant)?,
        clockhands: ch_encode::encode_clockhands(&set.clockhands.insts, variant)?,
    })
}
