//! The one-ISA compile path against the three-ISA one.
//!
//! `Workload::trace_on` and `Workload::run_on` compile only the ISA they
//! interpret (`ch_compiler::compile_isa`). These tests pin that path to
//! the full `compile`/`compile_verified` set it replaced: the same
//! program for every ISA, a byte-identical committed trace, and
//! compile errors that concern only the ISA whose program failed.

use ch_common::inst::DynInst;
use ch_common::IsaKind;
use ch_compiler::{
    build_ir, compile, compile_isa, compile_verified, verify_program, CompileError, CompiledSet,
    IsaProgram,
};
use ch_fuzz::planted::{corrupt_clockhands, corrupt_straight};
use ch_fuzz::Model;
use ch_workloads::{Scale, Workload};
use proptest::TestRng;

/// Instruction budget generous enough for Test scale on every ISA.
const LIMIT: u64 = 80_000_000;

/// Fixed corpus seed and size for the generated-program equivalence.
const SEED: u64 = 0x15a_c0de;
const CASES: u32 = 200;

/// The field of `set` that `compile_isa` must reproduce for `isa`.
fn field(set: &CompiledSet, isa: IsaKind) -> IsaProgram {
    match isa {
        IsaKind::Riscv => IsaProgram::Riscv(set.riscv.clone()),
        IsaKind::Straight => IsaProgram::Straight(set.straight.clone()),
        IsaKind::Clockhands => IsaProgram::Clockhands(set.clockhands.clone()),
    }
}

/// Interprets one program to completion, keeping the committed trace.
fn interpret(prog: IsaProgram) -> (Vec<DynInst>, u64, u64) {
    match prog {
        IsaProgram::Riscv(p) => {
            let (t, r) = ch_baselines::riscv::interp::Interpreter::new(p)
                .unwrap()
                .trace(LIMIT)
                .unwrap();
            (t, r.exit_value, r.committed)
        }
        IsaProgram::Straight(p) => {
            let (t, r) = ch_baselines::straight::interp::Interpreter::new(p)
                .unwrap()
                .trace(LIMIT)
                .unwrap();
            (t, r.exit_value, r.committed)
        }
        IsaProgram::Clockhands(p) => {
            let (t, r) = clockhands::interp::Interpreter::new(p)
                .unwrap()
                .trace(LIMIT)
                .unwrap();
            (t, r.exit_value, r.committed)
        }
    }
}

#[test]
fn workload_programs_and_traces_match_the_full_set() {
    for w in Workload::ALL {
        let src = w.source(Scale::Test);
        let set = compile_verified(&src).unwrap_or_else(|e| panic!("{w}: {e}"));
        let module = build_ir(&src).unwrap();
        for isa in IsaKind::ALL {
            let ctx = format!("{w} {}", isa.name());
            let want = field(&set, isa);
            let one = compile_isa(&module, isa, true).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(one, want, "{ctx}: compile_isa differs from compile");
            assert_eq!(
                w.compile_for(Scale::Test, isa).unwrap(),
                want,
                "{ctx}: compile_for differs from compile"
            );

            let (trace, outcome) = w.trace_on(Scale::Test, isa, LIMIT).unwrap();
            let (want_trace, exit_value, committed) = interpret(want);
            assert_eq!(outcome.exit_value, exit_value, "{ctx}");
            assert_eq!(outcome.committed, committed, "{ctx}");
            assert!(
                trace == want_trace,
                "{ctx}: trace_on differs from interpreting compile_verified's program"
            );
        }
    }
}

#[test]
fn run_on_agrees_with_trace_on() {
    for w in Workload::ALL {
        for isa in IsaKind::ALL {
            let run = w.run_on(Scale::Test, isa, LIMIT).unwrap();
            let (trace, traced) = w.trace_on(Scale::Test, isa, LIMIT).unwrap();
            assert_eq!(run, traced, "{w} {}", isa.name());
            assert_eq!(trace.len() as u64, run.committed, "{w} {}", isa.name());
        }
    }
}

#[test]
fn generated_programs_compile_identically_per_isa() {
    let mut rng = TestRng::from_seed(SEED);
    let mut compared = 0;
    for i in 0..CASES {
        let src = ch_fuzz::render(&ch_fuzz::gen_program(&mut rng));
        let module = build_ir(&src).unwrap_or_else(|e| panic!("case {i}: front end: {e}"));
        let set = compile(&src);
        let one: Vec<_> = IsaKind::ALL
            .into_iter()
            .map(|isa| compile_isa(&module, isa, false))
            .collect();
        match &set {
            Ok(set) => {
                for (isa, one) in IsaKind::ALL.into_iter().zip(&one) {
                    assert_eq!(
                        one.as_ref().ok(),
                        Some(&field(set, isa)),
                        "case {i} {isa:?}"
                    );
                    compared += 1;
                }
            }
            // compile() runs the backends in `IsaKind::ALL` order and
            // stops at the first failure; the per-ISA path reports that
            // same failure for that ISA.
            Err(e) => assert_eq!(
                one.iter().find_map(|r| r.as_ref().err()),
                Some(e),
                "case {i}"
            ),
        }
        if let Ok(set) = &set {
            // The verifying path agrees with verify_set on each program.
            for isa in IsaKind::ALL {
                let verified = compile_isa(&module, isa, true);
                assert_eq!(
                    verified.is_ok(),
                    verify_program(&field(set, isa)).is_ok(),
                    "case {i} {isa:?}"
                );
            }
        }
    }
    assert!(
        compared >= 3 * 180,
        "only {compared} ISA programs compared; the corpus barely compiles"
    );
}

#[test]
fn per_isa_verify_errors_name_the_failing_isa() {
    let mut rng = TestRng::from_seed(SEED ^ 0x51ed);
    let (mut straight_caught, mut clockhands_caught) = (0, 0);
    for i in 0..40 {
        let src = ch_fuzz::render(&ch_fuzz::gen_program(&mut rng));
        let Ok(set) = compile_verified(&src) else {
            continue;
        };
        // Plant a window-escaping distance corruption (the backend-bug
        // signature) in one distance-addressed ISA's program.
        let (mutated, isa) = if i % 2 == 0 {
            let mut p = set.straight.clone();
            let Some(_) = corrupt_straight(&mut rng, &mut p, Model::Escape) else {
                continue;
            };
            (IsaProgram::Straight(p), IsaKind::Straight)
        } else {
            let mut p = set.clockhands.clone();
            let Some(_) = corrupt_clockhands(&mut rng, &mut p, Model::Escape) else {
                continue;
            };
            (IsaProgram::Clockhands(p), IsaKind::Clockhands)
        };
        match verify_program(&mutated) {
            Err(CompileError::Verify { isa: named, detail }) => {
                assert_eq!(named, isa.name(), "case {i}: error names the wrong ISA");
                assert!(!detail.is_empty(), "case {i}: empty diagnostics");
                if isa == IsaKind::Straight {
                    straight_caught += 1;
                } else {
                    clockhands_caught += 1;
                }
            }
            Err(e) => panic!("case {i}: unexpected error kind: {e}"),
            // A rare escaping corruption the verifier cannot see; the
            // planted-mutation calibration accounts for those.
            Ok(()) => {}
        }
        // The other ISAs' programs are untouched, and verify clean.
        for other in IsaKind::ALL.into_iter().filter(|&k| k != isa) {
            assert_eq!(
                verify_program(&field(&set, other)),
                Ok(()),
                "case {i} {other:?}"
            );
        }
    }
    assert!(
        straight_caught >= 5 && clockhands_caught >= 5,
        "too few planted corruptions caught: straight {straight_caught}, \
         clockhands {clockhands_caught}"
    );
}

#[test]
fn a_backend_failure_is_reported_for_its_own_isa_only() {
    // Nine integer arguments: more than the RISC-V calling convention's
    // eight argument registers, so only that backend refuses the call.
    let src = "
        fn f(a: int, b: int, c: int, d: int, e: int, g: int, h: int, i: int, j: int) -> int {
            return a + b + c + d + e + g + h + i + j;
        }
        fn main() -> int {
            return f(1, 2, 3, 4, 5, 6, 7, 8, 9);
        }";
    let module = build_ir(src).unwrap();
    let err = compile(src).unwrap_err();
    assert!(matches!(err, CompileError::Backend(_)), "{err}");
    assert_eq!(compile_isa(&module, IsaKind::Riscv, true), Err(err));
    for isa in [IsaKind::Straight, IsaKind::Clockhands] {
        let prog = compile_isa(&module, isa, true).unwrap_or_else(|e| panic!("{isa:?}: {e}"));
        let (_, exit_value, _) = interpret(prog);
        assert_eq!(exit_value, 45, "{isa:?}");
    }
}
