#![deny(missing_docs)]
//! `ch-verify`: a path-sensitive static dataflow verifier for Clockhands,
//! STRAIGHT, and RISC assembly.
//!
//! All three ISAs of this repository share a failure mode that register
//! names hide: a *distance* operand (`t[3]`, `[17]`) names "the value
//! written N writes ago", so one extra or missing write anywhere on a
//! path silently shifts every later operand to a different value. The
//! interpreters cannot catch this — a wrong distance still reads *some*
//! register (or silently reads zero past the write count). This crate
//! closes the gap statically: it rebuilds the control-flow graph of an
//! assembled program, runs a meet-over-all-paths abstract interpretation
//! of every function, and proves that each source operand resolves to a
//! unique, initialized definition on every incoming path — plus the
//! calling-convention obligations (callee-saved `v` restoration, stack
//! balance, return-address discipline) that the backends rely on.
//!
//! The same engine powers a lint layer: relay `mv`s and edge-fix writes
//! whose value is provably never read are reported as warnings with
//! per-function counts (see [`FnSummary`]).
//!
//! Entry points: [`verify_clockhands`], [`verify_straight`],
//! [`verify_riscv`] — each takes an assembled program and returns a
//! [`Report`].

pub mod cfg;
pub mod check;
mod clockhands_isa;
pub mod domain;
pub mod engine;
mod riscv_isa;
mod straight_isa;

pub use check::Options;
pub use clockhands_isa::verify_clockhands;
pub use riscv_isa::verify_riscv;
pub use straight_isa::verify_straight;

use cfg::{build_funcs, Flow, Func};
use ch_common::error::{Diagnostic, Severity};
use ch_common::isa::{Inst, Operands, Program};
use check::Frontend;
use domain::Marks;
use engine::{fixpoint, Sink};

/// Per-function verification summary (instruction count + lint counts).
#[derive(Debug, Clone)]
pub struct FnSummary {
    /// Function name (label at its entry, or `fn@<index>`).
    pub name: String,
    /// Entry instruction index.
    pub entry: u32,
    /// Number of instructions in the function body.
    pub insts: usize,
    /// Relay moves whose value is never read on any path.
    pub dead_relays: usize,
    /// Edge-fix writes (`li` fillers and the like) never read.
    pub redundant_fixes: usize,
}

/// The result of verifying one program.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which ISA was verified (`"clockhands"`, `"straight"`, `"riscv"`).
    pub isa: &'static str,
    /// All findings, errors and warnings, in function/instruction order.
    pub diags: Vec<Diagnostic>,
    /// Per-function summaries.
    pub functions: Vec<FnSummary>,
    /// Instructions reachable from no function (dead code).
    pub unreachable: usize,
    /// Per-instruction reachability: `covered[i]` is true when
    /// instruction `i` belongs to some function's CFG and was therefore
    /// analyzed. The planted-mutation fuzz mode uses this to avoid
    /// planting corruptions in dead code.
    pub covered: Vec<bool>,
}

impl Report {
    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether the program verified with no errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Total dead relays across all functions.
    pub fn dead_relays(&self) -> usize {
        self.functions.iter().map(|f| f.dead_relays).sum()
    }

    /// Total redundant edge fixes across all functions.
    pub fn redundant_fixes(&self) -> usize {
        self.functions.iter().map(|f| f.redundant_fixes).sum()
    }

    /// Renders every finding, one per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out
    }
}

/// How an instruction transfers control.
fn flow_of<O: Operands>(inst: &Inst<O>) -> Flow {
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

/// Verifies a program of the ISA `O`: builds its functions, runs each
/// one's fixpoint, then the lints (see the crate docs).
pub(crate) fn verify<O: Frontend>(prog: &Program<Inst<O>>, opts: &Options) -> Report {
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
            O::machine_entry()
        } else {
            O::convention_entry()
        };
        let mut sink = Sink::new(&func.name);
        fixpoint(
            func,
            entry_state,
            &mut marks,
            &mut sink,
            |b, st, marks, sink| check::transfer(prog, func, b, st, marks, sink, opts),
        );
        fn_sinks.push(sink);
    }
    // Lints run after all fixpoints: a value written in one function can
    // only be marked used from that same function's analysis, but the
    // escape marking at calls/returns is global and must be complete.
    for (func, mut sink) in funcs.iter().zip(fn_sinks) {
        let (dead_relays, redundant_fixes) = lint_function(func, &marks, &mut sink, &prog.insts);
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
        isa: O::ISA,
        diags,
        functions,
        unreachable,
        covered,
    }
}

/// Counts never-read relay moves (`mv`) and fix writes (`li`) in
/// `func`, emitting one per-function warning per lint class.
fn lint_function<O: Operands>(
    func: &Func,
    marks: &Marks,
    sink: &mut Sink,
    insts: &[Inst<O>],
) -> (usize, usize) {
    let mut dead_relays = 0usize;
    let mut redundant_fixes = 0usize;
    let mut first: [Option<u32>; 2] = [None, None];
    for b in &func.blocks {
        for i in b.start..b.end {
            if marks.is_used(i) {
                continue;
            }
            match insts[i as usize] {
                Inst::Mv { .. } => {
                    dead_relays += 1;
                    first[0].get_or_insert(i);
                }
                Inst::Li { .. } => {
                    redundant_fixes += 1;
                    first[1].get_or_insert(i);
                }
                _ => {}
            }
        }
    }
    if dead_relays > 0 {
        sink.warning(
            "W-DEAD-RELAY",
            first[0],
            None,
            format!("{dead_relays} relay move(s) whose value is never read on any path"),
        );
    }
    if redundant_fixes > 0 {
        sink.warning(
            "W-REDUNDANT-FIX",
            first[1],
            None,
            format!("{redundant_fixes} edge-fix write(s) whose value is never read on any path"),
        );
    }
    (dead_relays, redundant_fixes)
}

/// Emits the program-level unreachable-code warning and returns the
/// count. `covered` must hold one flag per instruction.
fn lint_unreachable(covered: &[bool], diags: &mut Vec<Diagnostic>) -> usize {
    let unreachable = covered.iter().filter(|c| !**c).count();
    if unreachable > 0 {
        let first = covered.iter().position(|c| !*c).unwrap_or(0) as u32;
        diags.push(Diagnostic {
            severity: Severity::Warning,
            code: "W-UNREACH",
            function: "<program>".to_string(),
            inst: Some(first),
            operand: None,
            message: format!("{unreachable} instruction(s) reachable from no function"),
        });
    }
    unreachable
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_partitions_by_severity() {
        let mk = |severity, code: &'static str| Diagnostic {
            severity,
            code,
            function: "f".into(),
            inst: None,
            operand: None,
            message: "m".into(),
        };
        let r = Report {
            isa: "clockhands",
            diags: vec![
                mk(Severity::Error, "E-UNINIT"),
                mk(Severity::Warning, "W-DEAD-RELAY"),
            ],
            functions: vec![FnSummary {
                name: "f".into(),
                entry: 0,
                insts: 3,
                dead_relays: 1,
                redundant_fixes: 0,
            }],
            unreachable: 0,
            covered: vec![true; 3],
        };
        assert_eq!(r.errors().count(), 1);
        assert_eq!(r.warnings().count(), 1);
        assert!(!r.is_clean());
        assert_eq!(r.dead_relays(), 1);
        assert!(r.render().contains("error[E-UNINIT]"));
    }
}
