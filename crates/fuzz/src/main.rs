//! `ch-fuzz`: the cross-ISA differential fuzzing CLI.
//!
//! Runs, in order: the register-machinery invariant oracles, the
//! per-ISA assembler round-trip batch, and the Kern differential batch
//! (three interpreters + simulator commit-stream check per case).
//!
//! ```text
//! ch-fuzz [--cases N] [--seed S] [--limit L] [--out DIR] [--planted]
//! ```
//!
//! `--planted` switches to the planted-mutation mode instead: each case
//! corrupts one source-operand distance in freshly compiled Clockhands
//! or STRAIGHT output and the batch fails unless the static verifier
//! (`ch-verify`) catches at least 95% of the corruptions before
//! execution.
//!
//! `PROPTEST_SEED` overrides `--seed`, matching the rest of the
//! workspace's property tests. On a divergence the failing program is
//! minimized and written to `tests/regressions/` (or `--out`), the
//! reproducing `PROPTEST_SEED` is printed, and the exit code is 1.

use std::process::ExitCode;

struct Args {
    cases: u32,
    seed: u64,
    limit: u64,
    out: String,
    planted: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        cases: 500,
        seed: 0xC10C,
        limit: ch_fuzz::DEFAULT_LIMIT,
        out: "tests/regressions".to_string(),
        planted: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--cases" => {
                args.cases = val("--cases")?
                    .parse()
                    .map_err(|e| format!("--cases: {e}"))?
            }
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--limit" => {
                args.limit = val("--limit")?
                    .parse()
                    .map_err(|e| format!("--limit: {e}"))?
            }
            "--out" => args.out = val("--out")?,
            "--planted" => args.planted = true,
            "--help" | "-h" => {
                return Err(
                    "usage: ch-fuzz [--cases N] [--seed S] [--limit L] [--out DIR] [--planted]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if let Ok(s) = std::env::var("PROPTEST_SEED") {
        args.seed = s.parse().map_err(|e| format!("PROPTEST_SEED {s:?}: {e}"))?;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "ch-fuzz: seed {} ({} cases, limit {} insts/ISA)",
        args.seed, args.cases, args.limit
    );

    if args.planted {
        // The gated model: window-escaping corruptions, the class the
        // verifier guarantees to catch (the backend-bug signature).
        let escape =
            ch_fuzz::planted_batch(args.seed, args.cases, args.limit, ch_fuzz::Model::Escape);
        println!("planted (escape model):  {}", escape.summary());
        for line in &escape.escapes {
            println!("  {line}");
        }
        // Informational: uniform in-range corruption, which includes
        // in-window value swaps no sound static analysis can reject.
        let uniform =
            ch_fuzz::planted_batch(args.seed, args.cases, args.limit, ch_fuzz::Model::Uniform);
        println!("planted (uniform model): {}", uniform.summary());
        println!(
            "digest (FNV-1a 64): escape {:016x}, uniform {:016x}",
            escape.digest, uniform.digest
        );
        if escape.static_rate() < 0.95 {
            eprintln!("escape-model static catch rate below the 95% target");
            eprintln!("PROPTEST_SEED={}", args.seed);
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if let Err(e) = ch_fuzz::oracle_batch(args.seed, 4000) {
        eprintln!("oracle violation: {e}");
        eprintln!("PROPTEST_SEED={}", args.seed);
        return ExitCode::FAILURE;
    }
    println!("oracles: ring-file wrap/saturation, stall rule, renamer conservation — ok");

    let asm_digest = match ch_fuzz::asm_roundtrip_batch(args.seed, args.cases) {
        Ok(digest) => digest,
        Err(e) => {
            eprintln!("assembler round-trip failure: {e}");
            eprintln!("PROPTEST_SEED={}", args.seed);
            return ExitCode::FAILURE;
        }
    };
    println!("asm round-trip: {} programs x 3 ISAs — ok", args.cases);

    match ch_fuzz::differential_batch(args.seed, args.cases, args.limit) {
        Ok(stats) => {
            println!(
                "differential: {} passed, {} skipped (limit), {} instructions committed — ok",
                stats.passed, stats.skipped, stats.committed
            );
            println!(
                "digest (FNV-1a 64): asm round-trip {asm_digest:016x}, differential {:016x}",
                stats.digest
            );
            ExitCode::SUCCESS
        }
        Err(f) => {
            eprintln!("divergence at case {}: {}", f.case_index, f.error);
            eprintln!("--- original ---\n{}", f.source);
            eprintln!("--- minimized ---\n{}", f.minimized);
            let dir = args.out.trim_end_matches('/');
            let path = format!("{dir}/fuzz_seed{}_case{}.kern", f.seed, f.case_index);
            eprintln!("PROPTEST_SEED={}", f.seed);
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, &f.minimized)) {
                Ok(()) => eprintln!("minimized reproducer written to {path}"),
                Err(e) => eprintln!("could not write reproducer to {path}: {e}"),
            }
            ExitCode::FAILURE
        }
    }
}
