//! Pins every program the rotating-register backends emit.
//!
//! Each row hashes (64-bit FNV-1a, [`ch_fuzz::Digest`]) the disassembly
//! — labels and data included — and the entry point of the Clockhands
//! or STRAIGHT program compiled from one source set, with the full
//! optimization pipeline and with [`OptConfig::none`]. The sources are
//! the five workloads at every scale, and 200 fixed-seed generated
//! programs hashed into one digest per ISA and configuration. A backend
//! refactor that is meant to keep the output byte-identical must leave
//! every digest unchanged; on a mismatch the failure prints the whole
//! new table.

use ch_compiler::backend::opt::OptConfig;
use ch_compiler::backend::{clockhands as ch_backend, straight as st_backend};
use ch_compiler::ir::Module;
use ch_fuzz::Digest;
use ch_workloads::{Scale, Workload};
use proptest::TestRng;

/// Generated-program corpus seed and size.
const SEED: u64 = 0x60_1d_e5;
const CASES: u32 = 200;

/// `(row, digest)` at the reference backend output.
const EXPECTED: &[(&str, u64)] = &[
    ("CoreMark test opt clockhands", 0x34655c672caf3f79),
    ("CoreMark test opt straight", 0x05c1b1fef9accc0e),
    ("CoreMark test none clockhands", 0x8cb30bf567b2a3a2),
    ("CoreMark test none straight", 0x05c1b1fef9accc0e),
    ("CoreMark small opt clockhands", 0x90ae5fef192a87e3),
    ("CoreMark small opt straight", 0xd1308cc487cf9dcb),
    ("CoreMark small none clockhands", 0x22ce7383743e1112),
    ("CoreMark small none straight", 0xd1308cc487cf9dcb),
    ("CoreMark full opt clockhands", 0xfb16e30dc9f5b3b3),
    ("CoreMark full opt straight", 0xa02dd469a3796db9),
    ("CoreMark full none clockhands", 0xb755ea9c94e770a8),
    ("CoreMark full none straight", 0xa02dd469a3796db9),
    ("401.bzip2 test opt clockhands", 0xefa6f0cc597624a1),
    ("401.bzip2 test opt straight", 0xed8f52b1c5db4712),
    ("401.bzip2 test none clockhands", 0x6dcd1e07bc4cf268),
    ("401.bzip2 test none straight", 0xed8f52b1c5db4712),
    ("401.bzip2 small opt clockhands", 0xcf15661e6ba199f2),
    ("401.bzip2 small opt straight", 0x3a32d5eae106924f),
    ("401.bzip2 small none clockhands", 0x98987c551ee56fc1),
    ("401.bzip2 small none straight", 0x3a32d5eae106924f),
    ("401.bzip2 full opt clockhands", 0x9d15e5f73abf089e),
    ("401.bzip2 full opt straight", 0x7f760283b8f57895),
    ("401.bzip2 full none clockhands", 0x424c60820fbe1745),
    ("401.bzip2 full none straight", 0x7f760283b8f57895),
    ("605.mcf_s test opt clockhands", 0x2a85a81363c7dce9),
    ("605.mcf_s test opt straight", 0x2c992a3aed130ade),
    ("605.mcf_s test none clockhands", 0x6fa36717ca3ec7d1),
    ("605.mcf_s test none straight", 0x1bad714c5d275830),
    ("605.mcf_s small opt clockhands", 0x7ac7a1c175d8077a),
    ("605.mcf_s small opt straight", 0xb35d7b6cacf0ffd6),
    ("605.mcf_s small none clockhands", 0x28da677147ca061c),
    ("605.mcf_s small none straight", 0x027e81a2cc3a7d10),
    ("605.mcf_s full opt clockhands", 0xe93f9cbe2e4ee87e),
    ("605.mcf_s full opt straight", 0x172b0d821cb52e0e),
    ("605.mcf_s full none clockhands", 0xb18ae4ff5dd1aca6),
    ("605.mcf_s full none straight", 0x79b198bd369238cc),
    ("619.lbm_s test opt clockhands", 0xc32ee905035539ca),
    ("619.lbm_s test opt straight", 0x6bfe08668c825de0),
    ("619.lbm_s test none clockhands", 0x163beda8b5543ac8),
    ("619.lbm_s test none straight", 0x8bff5ccb89277e3b),
    ("619.lbm_s small opt clockhands", 0x918187ea5217d99b),
    ("619.lbm_s small opt straight", 0x9b943780cd352bd1),
    ("619.lbm_s small none clockhands", 0xf7bc4218cf1f81c5),
    ("619.lbm_s small none straight", 0xb0ca05dd2344a9ae),
    ("619.lbm_s full opt clockhands", 0xab1a3399c6b92694),
    ("619.lbm_s full opt straight", 0x3cad56883b99db3e),
    ("619.lbm_s full none clockhands", 0xacf43afd2ccf6eb2),
    ("619.lbm_s full none straight", 0x72f141a621762505),
    ("657.xz_s test opt clockhands", 0x8d4feaf0cfa751cb),
    ("657.xz_s test opt straight", 0x78bf5e61c1822536),
    ("657.xz_s test none clockhands", 0x097c1447bbfea1aa),
    ("657.xz_s test none straight", 0x78bf5e61c1822536),
    ("657.xz_s small opt clockhands", 0x54f29b04e87bb9a3),
    ("657.xz_s small opt straight", 0x4a0d54ddb90482b4),
    ("657.xz_s small none clockhands", 0x4944739c95c67b02),
    ("657.xz_s small none straight", 0x4a0d54ddb90482b4),
    ("657.xz_s full opt clockhands", 0xd8c8370bb317763e),
    ("657.xz_s full opt straight", 0x358d5ab577118c03),
    ("657.xz_s full none clockhands", 0x53ce56d378adddef),
    ("657.xz_s full none straight", 0x358d5ab577118c03),
    ("gen200 opt clockhands", 0x2e2edc7fb7599eaf),
    ("gen200 opt straight", 0x8ffd2fbf9cd7435c),
    ("gen200 none clockhands", 0xd5cefecbdd4d93a2),
    ("gen200 none straight", 0x032bcfd1a3719759),
];

/// Hashes one module's output of both rotating-register backends under
/// `opt` into `ch` and `st`. A compile error hashes as a fixed marker.
fn hash_module(m: &Module, opt: &OptConfig, ch: &mut Digest, st: &mut Digest) {
    match ch_backend::compile_with(m, opt) {
        Ok(p) => {
            ch.text(&clockhands::asm::disassemble(&p));
            ch.bytes(&p.entry.to_le_bytes());
        }
        Err(_) => ch.text("compile error"),
    }
    match st_backend::compile_with(m, opt) {
        Ok(p) => {
            st.text(&ch_baselines::straight::asm::disassemble(&p));
            st.bytes(&p.entry.to_le_bytes());
        }
        Err(_) => st.text("compile error"),
    }
}

fn table() -> Vec<(String, u64)> {
    let opts = [("opt", OptConfig::full()), ("none", OptConfig::none())];
    let mut rows = Vec::new();
    for w in Workload::ALL {
        for scale in [Scale::Test, Scale::Small, Scale::Full] {
            let m = ch_compiler::build_ir(&w.source(scale)).unwrap();
            for (name, opt) in &opts {
                let (mut ch, mut st) = (Digest::default(), Digest::default());
                hash_module(&m, opt, &mut ch, &mut st);
                let row = format!("{w} {} {name}", scale.name());
                rows.push((format!("{row} clockhands"), ch.value()));
                rows.push((format!("{row} straight"), st.value()));
            }
        }
    }
    for (name, opt) in &opts {
        let (mut ch, mut st) = (Digest::default(), Digest::default());
        let mut rng = TestRng::from_seed(SEED);
        for _ in 0..CASES {
            let src = ch_fuzz::render(&ch_fuzz::gen_program(&mut rng));
            let m = ch_compiler::build_ir(&src).unwrap();
            hash_module(&m, opt, &mut ch, &mut st);
        }
        rows.push((format!("gen{CASES} {name} clockhands"), ch.value()));
        rows.push((format!("gen{CASES} {name} straight"), st.value()));
    }
    rows
}

#[test]
fn rotating_backend_output_is_pinned() {
    let got = table();
    let same = got.len() == EXPECTED.len()
        && got
            .iter()
            .zip(EXPECTED)
            .all(|((r, d), (er, ed))| r == er && d == ed);
    if !same {
        let mut text = String::new();
        for (row, d) in &got {
            text.push_str(&format!("    (\"{row}\", 0x{d:016x}),\n"));
        }
        panic!("backend output changed; the new table is:\n{text}");
    }
}
