//! The measurement loop counts failed checks instead of panicking, and
//! treats exact per-round counts that change between rounds as failures.

use perfbench::harness::{run, Bench, Ctx, RunOpts};
use perfbench::metrics::Metrics;

/// One op per round; round 2 fails a check, and every round after the
/// first changes its exact count.
struct Flaky {
    round: u32,
}

impl Bench for Flaky {
    fn setup(_seed: u64) -> Result<Self, String> {
        Ok(Flaky { round: 0 })
    }

    fn round(&mut self, cx: &mut Ctx) {
        self.round += 1;
        let r = self.round;
        cx.op(|cx| {
            cx.span("sim.timing", || std::hint::black_box(r));
            cx.count("sim.timing.sim_insts", u64::from(r));
            cx.check(r != 2, || format!("round {r} failed"));
        });
    }

    fn finish(&mut self, cx: &mut Ctx, out: &mut Metrics) {
        out.set("sim.reference.minst_per_s", 1.0);
        cx.check(true, String::new);
    }
}

/// Ten ops per round, all passing.
struct Clean;

impl Bench for Clean {
    fn setup(_seed: u64) -> Result<Self, String> {
        Ok(Clean)
    }

    fn round(&mut self, cx: &mut Ctx) {
        for i in 0..10u64 {
            cx.op(|cx| {
                cx.span("compiler.compile", || std::hint::black_box(i));
                cx.count("compiler.static_insts", i);
            });
        }
    }

    fn finish(&mut self, _cx: &mut Ctx, _out: &mut Metrics) {}
}

fn opts(trace: bool, min_ops: usize) -> RunOpts {
    RunOpts {
        seed: 3,
        seconds: 0.0,
        trace,
        min_ops,
        setups: 3,
    }
}

#[test]
fn failures_are_counted_not_panicked() {
    let o = run::<Flaky>(&opts(true, 1)).expect("runs");
    assert_eq!(o.rounds, 3, "a traced round between two untraced ones");
    assert_eq!(o.attempted, 3);
    // Round 2's check, and the exact counts of rounds 2 and 3 that differ
    // from round 1's.
    assert_eq!(o.failed, 3, "{:?}", o.failures);
    assert_eq!(o.metrics.get("error_rate"), Some(1.0));
    assert_eq!(o.metrics.get("sim.timing.sim_insts"), Some(1.0));
    assert_eq!(o.metrics.get("sim.reference.minst_per_s"), Some(1.0));
}

#[test]
fn untraced_runs_report_end_to_end_metrics() {
    let o = run::<Clean>(&opts(false, 100)).expect("runs");
    assert_eq!(o.failed, 0, "{:?}", o.failures);
    assert_eq!(o.attempted, 100, "runs whole rounds until 100 ops");
    assert!(o.spans.is_empty(), "untraced runs record no spans");
    for m in ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms"] {
        assert!(o.metrics.get(m).is_some_and(|v| v > 0.0), "{m}");
    }
    assert_eq!(o.metrics.get("compiler.static_insts"), Some(45.0));
}

#[test]
fn too_few_ops_for_p90_is_an_error() {
    let e = run::<Clean>(&opts(false, 10)).expect_err("10 ops cannot give a p90");
    assert!(e.contains("op_p50_ms") || e.contains("op_p90_ms"), "{e}");
}

#[test]
fn traced_runs_split_wall_time_by_layer() {
    let o = run::<Clean>(&opts(true, 1)).expect("runs");
    assert_eq!(o.rounds, 3);
    // Only the traced (second) round records spans: 10 ops, each an op
    // span and one layer span.
    assert_eq!(o.spans.len(), 20);
    let m = &o.metrics;
    assert_eq!(m.get("compiler.compile.calls"), Some(10.0));
    let wall = m.get("wall_s").expect("wall_s");
    let layers = m.get("compiler.compile.busy_s").expect("busy_s");
    let residue = m.get("residue_s").expect("residue_s");
    assert!((layers + residue - wall).abs() < 1e-9);
    assert!(m.get("trace.overhead").is_some_and(|v| v > 0.0));
    assert!(m.get("host.probe_ms").is_some_and(|v| v > 0.0));
}
