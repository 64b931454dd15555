//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start, end, parent span and the op it belongs
//! to. Span names are `<layer>.<fn>` (`sim.timing`, `compiler.compile`,
//! ...), named after the crate the call enters; the benchmark's own
//! per-op grouping span is [`OP`] and belongs to no layer. Spans are
//! kept in memory while the workload runs and written out as JSONL when
//! it ends.
//!
//! A span's *self time* is its duration minus the time its child spans
//! cover. Summing self time over every layer span and subtracting it
//! from wall time leaves the residue: time spent in the benchmark itself
//! or between calls, which no layer accounts for.

use ch_common::json::Json;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Name of the grouping span opened around each op.
pub const OP: &str = "op";

/// One finished span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<fn>`, or [`OP`].
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span is charged to (`None` for [`OP`] spans).
    pub fn layer(&self) -> Option<&'static str> {
        if self.name == OP {
            None
        } else {
            self.name.split('.').next()
        }
    }
}

/// Records properly nested spans from one thread. When disabled,
/// [`open`](Recorder::open) and [`close`](Recorder::close) do nothing
/// but test a flag.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A disabled recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Turns recording on or off (between spans only).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.enabled = on;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the op id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; pass the token to
    /// [`close`](Recorder::close).
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes the innermost open span.
    pub fn close(&mut self, token: Option<usize>) {
        if let Some(idx) = token {
            let top = self.stack.pop();
            assert_eq!(top, Some(idx), "spans closed out of order");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self time summed by span name and by layer.
#[derive(Debug, Default)]
pub struct LayerTimes {
    /// `<layer>.<fn>` → (self seconds, calls).
    pub by_fn: BTreeMap<&'static str, (f64, u64)>,
    /// `<layer>` → self seconds.
    pub by_layer: BTreeMap<&'static str, f64>,
    /// Self seconds summed over every layer span.
    pub total_s: f64,
}

impl LayerTimes {
    /// Sums the self time of every layer span ([`OP`] spans excluded).
    pub fn of(spans: &[Span]) -> LayerTimes {
        let mut out = LayerTimes::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            let Some(layer) = s.layer() else { continue };
            let secs = own as f64 * 1e-9;
            let e = out.by_fn.entry(s.name).or_default();
            e.0 += secs;
            e.1 += 1;
            *out.by_layer.entry(layer).or_default() += secs;
            out.total_s += secs;
        }
        out
    }

    /// Wall time no layer accounts for.
    pub fn residue_s(&self, wall_s: f64) -> f64 {
        wall_s - self.total_s
    }
}

/// Writes `spans` as JSON lines: one object per span with its index,
/// name, microsecond start/end, parent index and op id.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let line = Json::Obj(vec![
            ("id".into(), Json::Int(i as i64)),
            ("name".into(), Json::Str(s.name.into())),
            ("start_us".into(), Json::Num(s.start_ns as f64 / 1e3)),
            ("end_us".into(), Json::Num(s.end_ns as f64 / 1e3)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("op".into(), Json::Int(s.op as i64)),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    /// op [0,100) ⊃ workloads.trace_on [10,50) ⊃ compiler.compile
    /// [20,30); op ⊃ sim.timing [60,90) ⊃ sim.soa_decode [70,75).
    fn tree() -> Vec<Span> {
        vec![
            span(OP, 0, 100, None),
            span("workloads.trace_on", 10, 50, Some(0)),
            span("compiler.compile", 20, 30, Some(1)),
            span("sim.timing", 60, 90, Some(0)),
            span("sim.soa_decode", 70, 75, Some(3)),
        ]
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_times(&tree()), vec![100 - 40 - 30, 30, 10, 25, 5]);
    }

    #[test]
    fn layer_times_group_by_name_and_layer() {
        let lt = LayerTimes::of(&tree());
        let near = |a: f64, b: f64| (a - b).abs() < 1e-18;
        let (busy, calls) = lt.by_fn["workloads.trace_on"];
        assert!(near(busy, 30e-9) && calls == 1);
        let (busy, calls) = lt.by_fn["sim.timing"];
        assert!(near(busy, 25e-9) && calls == 1);
        assert!(!lt.by_fn.contains_key(OP));
        assert!(near(lt.by_layer["sim"], 30e-9));
        assert!(near(lt.total_s, 70e-9));
    }

    #[test]
    fn wall_is_self_time_plus_residue() {
        // Wall covers the op plus 20 ns outside it.
        let wall_s = 120e-9;
        let lt = LayerTimes::of(&tree());
        let residue = lt.residue_s(wall_s);
        // The residue is the op span's own time plus the time outside it.
        assert!((residue - (30e-9 + 20e-9)).abs() < 1e-18);
        let sum: f64 = lt.by_layer.values().sum::<f64>() + residue;
        assert!((sum - wall_s).abs() < 1e-18);
        // The identity holds span by span: total self time is the root's
        // duration.
        let own: u64 = self_times(&tree()).iter().sum();
        assert_eq!(own, 100);
    }

    #[test]
    fn recorder_nests_and_disabled_records_nothing() {
        let mut r = Recorder::new();
        let t = r.open("sim.timing");
        r.close(t);
        assert!(r.spans().is_empty());
        r.set_enabled(true);
        r.set_op(7);
        let a = r.open(OP);
        let b = r.open("sim.timing");
        r.close(b);
        r.close(a);
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].op, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
