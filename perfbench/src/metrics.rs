//! The benchmark's metric catalogue and its JSON rendering.
//!
//! End-to-end metrics come from untraced runs; per-layer metrics from
//! traced runs. Every workload reports every metric of the set it runs
//! under; a layer a workload does not exercise reports 0.

use ch_common::json::Json;
use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.timing.busy_s", "s"),
    ("sim.timing.calls", "count"),
    ("sim.timing.minst_per_s", "Minst/s"),
    ("sim.timing.sim_insts", "count"),
    ("sim.timing.cycles", "count"),
    ("sim.soa_decode.busy_s", "s"),
    ("sim.soa_decode.calls", "count"),
    ("sim.soa_decode.minst_per_s", "Minst/s"),
    ("sim.branch_profile.busy_s", "s"),
    ("sim.branch_profile.calls", "count"),
    ("sim.reference.minst_per_s", "Minst/s"),
    ("sim.fast_over_reference", "ratio"),
    ("workloads.trace_on.busy_s", "s"),
    ("workloads.trace_on.calls", "count"),
    ("workloads.trace_on.minst_per_s", "Minst/s"),
    ("workloads.trace_on.insts", "count"),
    ("analysis.straight_increase.busy_s", "s"),
    ("analysis.straight_increase.calls", "count"),
    ("analysis.hands_sweep.busy_s", "s"),
    ("analysis.hands_sweep.calls", "count"),
    ("analysis.lifetimes.busy_s", "s"),
    ("analysis.lifetimes.calls", "count"),
    ("analysis.instruction_mix.busy_s", "s"),
    ("analysis.instruction_mix.calls", "count"),
    ("analysis.hand_usage.busy_s", "s"),
    ("analysis.hand_usage.calls", "count"),
    ("analysis.minst_per_s", "Minst/s"),
    ("encode.encode_set.busy_s", "s"),
    ("encode.encode_set.calls", "count"),
    ("encode.relocate.busy_s", "s"),
    ("encode.relocate.calls", "count"),
    ("encode.decode.busy_s", "s"),
    ("encode.decode.calls", "count"),
    ("encode.bytes", "B"),
    ("compiler.compile.busy_s", "s"),
    ("compiler.compile.calls", "count"),
    ("compiler.static_insts", "count"),
    ("verify.verify_set.busy_s", "s"),
    ("verify.verify_set.calls", "count"),
    ("serve.ping.busy_s", "s"),
    ("serve.ping.calls", "count"),
    ("serve.sim_hit.busy_s", "s"),
    ("serve.sim_hit.calls", "count"),
    ("serve.sim_miss.busy_s", "s"),
    ("serve.sim_miss.calls", "count"),
    ("serve.sweep.busy_s", "s"),
    ("serve.sweep.calls", "count"),
    ("serve.stats.busy_s", "s"),
    ("serve.stats.calls", "count"),
    ("serve.ping.rtt_p50_ms", "ms"),
    ("serve.sim_hit.rtt_p50_ms", "ms"),
    ("serve.sim_hit.rtt_p90_ms", "ms"),
    ("serve.sim_miss.rtt_p50_ms", "ms"),
    ("serve.sweep.records_per_s", "1/s"),
    ("serve.stats.cache_hits", "count"),
    ("serve.stats.inflight_joins", "count"),
    ("serve.stats.computed", "count"),
    ("serve.stats.rejected", "count"),
    ("serve.stats.server_p50_ms", "ms"),
    ("serve.dedup_ratio", "ratio"),
    ("workloads.share", "ratio"),
    ("compiler.share", "ratio"),
    ("verify.share", "ratio"),
    ("encode.share", "ratio"),
    ("sim.share", "ratio"),
    ("analysis.share", "ratio"),
    ("serve.share", "ratio"),
    ("wall_s", "s"),
    ("residue_s", "s"),
    ("residue.share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.spans", "count"),
    ("host.probe_ms", "ms"),
    ("host.probe_end_ms", "ms"),
    ("host.peak_rss_run_mb", "MB"),
    ("error_rate", "ratio"),
];

/// Every metric a run computed, by name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets `name` (a non-finite value is stored as 0).
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.0
            .insert(name.into(), if value.is_finite() { value } else { 0.0 });
    }

    /// The value of `name`, if computed.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Every computed metric in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The catalogue entries as a `{"name": {"value": v, "unit": u}}`
    /// object; a metric not computed reports 0.
    pub fn catalogue_json(&self, catalogue: &[(&str, &str)], prefix: &str) -> Vec<(String, Json)> {
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                (
                    format!("{prefix}{name}"),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(v)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && !unit.is_empty());
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn missing_metrics_render_as_zero() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("ops_per_s", f64::NAN);
        let obj = Json::Obj(m.catalogue_json(END_TO_END, ""));
        let text = obj.render();
        assert!(text.starts_with(r#"{"setup_s":{"value":0.5,"unit":"s"},"ops_per_s":{"value":0,"#));
        assert!(text.contains(r#""peak_rss_mb":{"value":0,"unit":"MB"}"#));
    }
}
