//! The measurement loop shared by every workload.
//!
//! A run goes: reset the peak-RSS mark, probe the host, set the
//! workload up several times (at least seven, and at least 50 ms in
//! all; the median is `setup_s`), then run whole
//! rounds until `--seconds` have passed, then check a correctness
//! sample outside the timed phase and probe the host again.
//!
//! `peak_rss_mb` is the peak up to the end of the first round: the
//! memory a fresh process needs for one cold pass, which is what a
//! `figures` run pays. Later rounds add only allocator fragmentation
//! left by earlier rounds, which varies from run to run by tens of MB;
//! the peak over the whole run is kept as `host.peak_rss_run_mb`.
//!
//! A round is a fixed, seed-determined batch of ops, so every run does
//! the same mix of work; only the number of rounds depends on time. An
//! untraced run records per-op latency only. A traced run interleaves
//! untraced and traced rounds, so that both see the same host regimes:
//! the traced rounds give the per-layer split, and the ratio of the two
//! throughputs after the first round is `trace.overhead`.

use crate::host;
use crate::metrics::Metrics;
use crate::span::{LayerTimes, Recorder, Span, OP};
use crate::summary::{median, percentile};
use std::collections::BTreeMap;
use std::time::Instant;

/// Problem size every workload runs at.
pub const SCALE: ch_workloads::Scale = ch_workloads::Scale::Test;

/// Interpreter instruction budget (far above any test-scale kernel).
pub const LIMIT: u64 = 2_000_000_000;

/// Set-up time per run at least: cheap set-ups are repeated, up to
/// [`MAX_SETUPS`], until together they take this long, so that a set-up
/// of microseconds is still the median of many.
const SETUP_FLOOR_S: f64 = 0.05;

/// Most set-ups timed in one run.
const MAX_SETUPS: usize = 100_000;

/// Failure messages kept for the report (all failures are counted).
const KEPT_FAILURES: usize = 20;

/// Per-op state handed to a workload's round: latency, spans, checks.
pub struct Ctx {
    spans: Recorder,
    lat_ms: Vec<f64>,
    failed: u64,
    failures: Vec<String>,
    items: BTreeMap<&'static str, u64>,
    round_counts: BTreeMap<&'static str, u64>,
}

impl Ctx {
    fn new() -> Ctx {
        Ctx {
            spans: Recorder::new(),
            lat_ms: Vec::new(),
            failed: 0,
            failures: Vec::new(),
            items: BTreeMap::new(),
            round_counts: BTreeMap::new(),
        }
    }

    /// Runs one op: times it, and groups the spans it opens under an
    /// [`OP`] span.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Ctx) -> R) -> R {
        self.spans.set_op(self.lat_ms.len() as u64);
        let t0 = Instant::now();
        let tok = self.spans.open(OP);
        let r = f(self);
        self.spans.close(tok);
        self.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// Runs several concurrent requests as one unit under a span named
    /// `name`: `f` returns its result and each request's latency in
    /// milliseconds, and each request counts as one op.
    pub fn ops_group<R>(&mut self, name: &'static str, f: impl FnOnce() -> (R, Vec<f64>)) -> R {
        self.spans.set_op(self.lat_ms.len() as u64);
        let op = self.spans.open(OP);
        let tok = self.spans.open(name);
        let (r, lats) = f();
        self.spans.close(tok);
        self.spans.close(op);
        self.lat_ms.extend(lats);
        r
    }

    /// Runs `f` inside a span named `<layer>.<fn>`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let tok = self.spans.open(name);
        let r = f();
        self.spans.close(tok);
        r
    }

    /// Notes `n` items (instructions, records) processed by the calls
    /// of span `name`; kept only while tracing, to give its rate.
    pub fn items(&mut self, name: &'static str, n: u64) {
        if self.spans.enabled() {
            *self.items.entry(name).or_default() += n;
        }
    }

    /// Adds to an exact per-round count. Every round must produce the
    /// same counts; a mismatch is a correctness failure.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.round_counts.entry(name).or_default() += n;
    }

    /// Records a correctness check; a failed check counts against
    /// `error_rate`. Returns `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            self.failed += 1;
            if self.failures.len() < KEPT_FAILURES {
                self.failures.push(what());
            }
        }
        ok
    }

    /// Records a failed op or check.
    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.check(false, || what.to_string());
    }
}

/// One workload of the benchmark.
pub trait Bench: Sized {
    /// One-time process warm-up before the set-ups; untimed. It may
    /// only fill state that the program itself caches for the life of
    /// the process.
    fn prewarm(_seed: u64) -> Result<(), String> {
        Ok(())
    }

    /// Builds the workload's inputs from the seed. Called several times
    /// per run; each call must do the same work.
    fn setup(seed: u64) -> Result<Self, String>;

    /// Runs one round: a fixed, seed-determined batch of ops.
    fn round(&mut self, cx: &mut Ctx);

    /// Checks a correctness sample outside the timed phase and adds any
    /// workload-specific metrics.
    fn finish(&mut self, cx: &mut Ctx, out: &mut Metrics);
}

/// How one run is measured.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed.
    pub seed: u64,
    /// Minimum length of the timed phase.
    pub seconds: f64,
    /// Record spans (interleave untraced and traced rounds).
    pub trace: bool,
    /// Minimum ops of an untraced run, so that p90 has at least ten
    /// samples beyond it.
    pub min_ops: usize,
    /// Set-ups timed per run at least; `setup_s` is their median.
    pub setups: usize,
}

impl RunOpts {
    /// The settings the benchmark command uses.
    pub fn new(seed: u64, seconds: f64, trace: bool) -> RunOpts {
        RunOpts {
            seed,
            seconds,
            trace,
            min_ops: 100,
            setups: 7,
        }
    }
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Every metric computed (end-to-end ones in untraced runs, layer
    /// ones in traced runs, plus diagnostics in both).
    pub metrics: Metrics,
    /// Ops attempted in the timed phase.
    pub attempted: u64,
    /// Failed ops and failed correctness checks.
    pub failed: u64,
    /// The first failure messages.
    pub failures: Vec<String>,
    /// Recorded spans (traced runs only).
    pub spans: Vec<Span>,
    /// Rounds run.
    pub rounds: u64,
    /// Metrics that could not be computed, with the reason.
    pub refused: Vec<String>,
}

/// Runs one workload once.
///
/// # Errors
///
/// A set-up failure, or a run too short to report its percentiles.
pub fn run<B: Bench>(opts: &RunOpts) -> Result<Outcome, String> {
    let mut refused = Vec::new();
    if let Err(e) = host::reset_peak_rss() {
        refused.push(format!(
            "peak RSS not reset ({e}); peak_rss_mb is process-wide"
        ));
    }
    let probe_start = median(&[host::probe_ms(), host::probe_ms(), host::probe_ms()]);

    B::prewarm(opts.seed)?;
    let mut setup_s = Vec::with_capacity(opts.setups);
    let mut bench = None;
    let mut total = 0.0;
    while setup_s.len() < opts.setups.max(1)
        || (total < SETUP_FLOOR_S && setup_s.len() < MAX_SETUPS)
    {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(B::setup(opts.seed)?);
        let s = t0.elapsed().as_secs_f64();
        setup_s.push(s);
        total += s;
    }
    let mut bench = bench.expect("at least one set-up ran");

    let mut cx = Ctx::new();
    let mut first_counts: Option<BTreeMap<&'static str, u64>> = None;
    // [untraced, traced] wall seconds and ops, without the first round,
    // which also pays for first-touch page faults and cold caches.
    let mut wall = [0.0f64; 2];
    let mut ops = [0usize; 2];
    let mut rounds = 0u64;
    let mut first_round_peak = None;
    let start = Instant::now();
    loop {
        // Rounds 1, 4, 5, 8, 9, ... are traced: every pair of rounds has
        // one of each, and each kind falls on odd and even rounds alike,
        // so allocator state that alternates between rounds biases
        // neither.
        let traced = opts.trace && matches!(rounds % 4, 0 | 1) && rounds > 0;
        cx.spans.set_enabled(traced);
        cx.round_counts.clear();
        let ops0 = cx.lat_ms.len();
        let t0 = Instant::now();
        bench.round(&mut cx);
        if rounds > 0 {
            wall[traced as usize] += t0.elapsed().as_secs_f64();
            ops[traced as usize] += cx.lat_ms.len() - ops0;
        }
        rounds += 1;
        if rounds == 1 {
            first_round_peak = host::peak_rss_mb();
        }
        let counts = std::mem::take(&mut cx.round_counts);
        match &first_counts {
            None => first_counts = Some(counts),
            Some(first) => {
                let same = *first == counts;
                cx.check(same, || {
                    format!("round {rounds}: exact counts {counts:?} differ from round 1 {first:?}")
                });
            }
        }
        let enough = if opts.trace {
            rounds >= 3
        } else {
            cx.lat_ms.len() >= opts.min_ops
        };
        if enough && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    cx.spans.set_enabled(false);

    let mut m = Metrics::default();
    bench.finish(&mut cx, &mut m);
    let probe_end = median(&[host::probe_ms(), host::probe_ms(), host::probe_ms()]);
    let attempted = cx.lat_ms.len() as u64;

    m.set("setup_s", median(&setup_s));
    m.set("host.probe_ms", probe_start);
    m.set("host.probe_end_ms", probe_end);
    m.set("error_rate", cx.failed as f64 / attempted.max(1) as f64);
    match (first_round_peak, host::peak_rss_mb()) {
        (Some(cold), Some(run)) => {
            m.set("peak_rss_mb", cold);
            m.set("host.peak_rss_run_mb", run);
        }
        _ => refused.push("peak_rss_mb: /proc/self/status unreadable".into()),
    }
    for (name, n) in first_counts.iter().flatten() {
        m.set(*name, *n as f64);
    }
    if opts.trace {
        layer_metrics(&cx, wall, ops, &mut m);
    } else {
        m.set("ops_per_s", attempted as f64 / timed_s);
        for (name, p) in [("op_p50_ms", 0.50), ("op_p90_ms", 0.90)] {
            match percentile(&cx.lat_ms, p) {
                Some(v) => m.set(name, v),
                None => {
                    return Err(format!(
                        "{name}: {attempted} ops leave fewer than 10 samples beyond it"
                    ))
                }
            }
        }
    }
    Ok(Outcome {
        metrics: m,
        attempted,
        failed: cx.failed,
        failures: cx.failures,
        spans: cx.spans.spans().to_vec(),
        rounds,
        refused,
    })
}

/// The per-layer split of the traced rounds.
fn layer_metrics(cx: &Ctx, wall: [f64; 2], ops: [usize; 2], m: &mut Metrics) {
    let spans = cx.spans.spans();
    let lt = LayerTimes::of(spans);
    let traced_wall = wall[1];
    for (name, (busy, calls)) in &lt.by_fn {
        m.set(format!("{name}.busy_s"), *busy);
        m.set(format!("{name}.calls"), *calls as f64);
        if let Some(&n) = cx.items.get(name) {
            m.set(format!("{name}.minst_per_s"), n as f64 / busy / 1e6);
        }
    }
    let (mut analysis_items, mut analysis_busy) = (0u64, 0.0);
    for (name, n) in &cx.items {
        if name.starts_with("analysis.") {
            analysis_items += n;
            analysis_busy += lt.by_fn.get(name).map_or(0.0, |e| e.0);
        }
    }
    if analysis_items > 0 {
        m.set(
            "analysis.minst_per_s",
            analysis_items as f64 / analysis_busy / 1e6,
        );
    }
    for (layer, busy) in &lt.by_layer {
        m.set(format!("{layer}.share"), busy / traced_wall);
    }
    let residue = lt.residue_s(traced_wall);
    m.set("wall_s", traced_wall);
    m.set("residue_s", residue);
    m.set("residue.share", residue / traced_wall);
    m.set(
        "trace.overhead",
        (ops[0] as f64 / wall[0]) / (ops[1] as f64 / traced_wall),
    );
    m.set("trace.spans", spans.len() as f64);
}
