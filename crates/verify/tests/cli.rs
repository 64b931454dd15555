//! End-to-end tests of the `ch-verify` binary: exit 0 on clean
//! programs, 1 on programs with errors, 2 on input it cannot assemble.

use ch_workloads::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::process::Output;

/// Writes `text` to a file named `name` in the test scratch directory.
fn write(name: &str, text: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, text).expect("write test input");
    path
}

fn ch_verify(isa: &str, file: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_ch-verify"))
        .args(["--isa", isa])
        .arg(file)
        .output()
        .expect("run ch-verify")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn compiled_workload_disassembly_verifies_clean_on_each_isa() {
    let set = Workload::ALL[0]
        .compile(Scale::Test)
        .expect("workload compiles");
    for (isa, listing) in [
        ("riscv", ch_baselines::riscv::asm::disassemble(&set.riscv)),
        (
            "straight",
            ch_baselines::straight::asm::disassemble(&set.straight),
        ),
        ("clockhands", clockhands::asm::disassemble(&set.clockhands)),
    ] {
        let out = ch_verify(isa, &write(&format!("workload_{isa}.s"), &listing));
        let stdout = text(&out.stdout);
        assert_eq!(
            out.status.code(),
            Some(0),
            "{isa}: {stdout}{}",
            text(&out.stderr)
        );
        assert!(stdout.contains(" 0 error(s)"), "{isa}: {stdout}");
    }
}

#[test]
fn corpus_error_exits_one() {
    let file = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/verify_corpus/ch_uninit.s");
    let out = ch_verify("clockhands", &file);
    assert_eq!(out.status.code(), Some(1), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("error[E-UNINIT]"));
}

#[test]
fn malformed_text_exits_two_without_panicking() {
    for (i, (isa, src)) in [
        ("clockhands", "li t, 1\nmv t, \u{e9}[1]\nhalt t[0]\n"),
        ("clockhands", "li t, 1\nmv t,\nhalt t[0]\n"),
        ("straight", "li 1\nld ()\nhalt [1]\n"),
        ("riscv", "li a0, 1\nmv a0, ft250\nhalt a0\n"),
    ]
    .into_iter()
    .enumerate()
    {
        let out = ch_verify(isa, &write(&format!("malformed_{i}.s"), src));
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{isa} {src:?}: {stderr}");
        assert!(stderr.starts_with("line 2: "), "{isa} {src:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{isa} {src:?}: {stderr}");
    }
}
