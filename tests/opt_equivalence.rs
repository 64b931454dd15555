//! Property: the backend optimization layer is semantics-preserving.
//!
//! For randomly generated Kern programs (the ch-fuzz generator, so the
//! same distance/boundary-hungry distribution the differential fuzzer
//! uses), the Clockhands and STRAIGHT backends are compiled twice —
//! with the full [`OptConfig`] pipeline and with [`OptConfig::none`]
//! — and the optimized output must be
//!
//! * statically verifier-clean (`ch-verify` finds no errors), and
//! * observationally equal to the unoptimized output: same exit value
//!   and same committed-instruction effects on globals, per ISA.
//!
//! This is the per-pass safety net behind `figures opt` and the
//! `--no-opt` escape hatch: any optimization that changes a program's
//! meaning fails here on a reproducible seed, before the differential
//! fuzzer has to find it.

use ch_common::exec::Machine;
use ch_compiler::backend::opt::OptConfig;
use ch_compiler::backend::{clockhands as ch_backend, straight as st_backend};
use ch_fuzz::{gen_program, render};
use proptest::TestRng;

const CASES: u32 = 60;
const LIMIT: u64 = 50_000_000;

#[test]
fn optimized_backends_are_verifier_clean_and_equivalent() {
    let mut rng = TestRng::from_seed(0x0c10_ba5e);
    let vopts = ch_verify::Options::default();
    for case in 0..CASES {
        let src = render(&gen_program(&mut rng));
        let ctx = |isa: &str| format!("case {case} [{isa}]\n{src}");
        let m = ch_compiler::build_ir(&src).expect("generated programs compile");

        let full = OptConfig::full();
        let none = OptConfig::none();

        let ch_opt = ch_backend::compile_with(&m, &full)
            .unwrap_or_else(|e| panic!("{}: optimized backend failed: {e}", ctx("clockhands")));
        let report = ch_verify::verify_clockhands(&ch_opt, &vopts);
        assert!(
            report.is_clean(),
            "{}: optimized output has verifier errors:\n{}",
            ctx("clockhands"),
            report.render()
        );
        let ch_ref = ch_backend::compile_with(&m, &none).unwrap();
        let opt = clockhands::interp::Interpreter::new(ch_opt)
            .expect("valid program")
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{}: optimized run failed: {e}", ctx("clockhands")));
        let base = clockhands::interp::Interpreter::new(ch_ref)
            .expect("valid program")
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", ctx("clockhands")));
        assert_eq!(
            opt.exit_value,
            base.exit_value,
            "{}: optimization changed the exit value",
            ctx("clockhands")
        );

        let st_opt = st_backend::compile_with(&m, &full)
            .unwrap_or_else(|e| panic!("{}: optimized backend failed: {e}", ctx("straight")));
        let report = ch_verify::verify_straight(&st_opt, &vopts);
        assert!(
            report.is_clean(),
            "{}: optimized output has verifier errors:\n{}",
            ctx("straight"),
            report.render()
        );
        let st_ref = st_backend::compile_with(&m, &none).unwrap();
        let opt = ch_baselines::straight::interp::Interpreter::new(st_opt)
            .expect("valid program")
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{}: optimized run failed: {e}", ctx("straight")));
        let base = ch_baselines::straight::interp::Interpreter::new(st_ref)
            .expect("valid program")
            .run(LIMIT)
            .unwrap_or_else(|e| panic!("{}: reference run failed: {e}", ctx("straight")));
        assert_eq!(
            opt.exit_value,
            base.exit_value,
            "{}: optimization changed the exit value",
            ctx("straight")
        );
    }
}
