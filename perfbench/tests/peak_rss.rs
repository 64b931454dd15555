//! `peak_rss_mb` is per workload: a small workload measured after a
//! large one reports its own, small peak, even when the large one leaves
//! its heap resident, as the real workloads do. `--workload all` gets
//! this by running each workload in a child process of its own through
//! `perfbench::child`; a `clear_refs` reset inside one process would
//! not, since it only lowers the mark to the current RSS, leftover heap
//! included.
//!
//! The children here are this test binary run again with [`CHILD_MB`]
//! set, which makes `touch_child` run one synthetic workload and print
//! its summary line.

use ch_common::json::Json;
use perfbench::harness::{run, Bench, Ctx, RunOpts};
use perfbench::metrics::{Metrics, END_TO_END};
use perfbench::{child, host};
use std::process::Command;

/// Megabytes the child's workload touches.
const CHILD_MB: &str = "PERFBENCH_TEST_TOUCH_MB";

/// Touches `mb` megabytes in small heap blocks, then frees them below a
/// live allocation, so the allocator keeps the pages resident.
struct Touch {
    mb: usize,
    /// One small allocation per round, made after the blocks.
    pins: Vec<Vec<u8>>,
}

impl Bench for Touch {
    fn setup(_seed: u64) -> Result<Self, String> {
        let mb = std::env::var(CHILD_MB)
            .map_err(|e| format!("{CHILD_MB}: {e}"))?
            .parse()
            .map_err(|e| format!("{CHILD_MB}: {e}"))?;
        Ok(Touch {
            mb,
            pins: Vec::new(),
        })
    }

    fn round(&mut self, cx: &mut Ctx) {
        let (mb, pins) = (self.mb, &mut self.pins);
        cx.op(|_| {
            let blocks: Vec<Vec<u8>> = (0..mb * 256).map(|_| vec![1u8; 4096]).collect();
            pins.push(vec![0; 64]);
            std::hint::black_box(&blocks);
        });
    }

    fn finish(&mut self, _cx: &mut Ctx, _out: &mut Metrics) {}
}

/// Runs `Touch` when started as a child; does nothing otherwise.
#[test]
fn touch_child() {
    let Ok(mb) = std::env::var(CHILD_MB) else {
        return;
    };
    // A traced run needs no latency percentiles, so a few ops suffice.
    let opts = RunOpts {
        seed: 1,
        seconds: 0.0,
        trace: true,
        min_ops: 1,
        setups: 1,
    };
    let o = run::<Touch>(&opts).expect("synthetic workload runs");
    let mb: f64 = mb.parse().expect("size in MB");
    // What stays resident is what a reset inside one process would
    // carry into the next workload's peak.
    let rss = host::rss_mb().expect("VmRSS");
    assert!(
        rss >= 0.5 * mb,
        "freed heap went back to the OS (RSS {rss} MB after touching {mb} MB)"
    );
    let metrics = o.metrics.catalogue_json(END_TO_END, "");
    println!(
        "\n{}",
        child::summary(o.attempted, o.failed, metrics).render()
    );
}

/// Runs `Touch` over `mb` megabytes in a child and returns its peak.
fn child_peak(mb: usize) -> f64 {
    let mut cmd = Command::new(std::env::current_exe().expect("test binary path"));
    cmd.args(["touch_child", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_MB, mb.to_string());
    let run = child::run(cmd).expect("child prints a summary");
    assert!(run.success, "child failed: {:?}", run.lines);
    run.summary
        .get("metrics")
        .and_then(|m| m.get("peak_rss_mb"))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .expect("peak_rss_mb reported")
}

#[test]
fn small_workload_after_large_reports_its_own_peak() {
    let large = child_peak(160);
    let small = child_peak(1);
    assert!(large >= 160.0, "large workload peak {large} MB");
    assert!(
        small < 64.0,
        "small workload reported {small} MB after a {large} MB one"
    );
}
