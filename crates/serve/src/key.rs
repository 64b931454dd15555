//! Sweep requests expanded into canonical configuration keys.
//!
//! [`ConfigKey`] and [`Engine`] are the pipeline's own key and live in
//! `ch-bench` ([`ch_bench::key`]); they are re-exported here so the
//! service's paths (`ch_serve::key::ConfigKey`, `ch_serve::ConfigKey`)
//! stay valid. The server normalizes every request to one key before
//! touching the job registry, so all spellings of the same
//! configuration dedupe to one job.

pub use ch_bench::key::{ConfigKey, Engine};
use ch_common::config::WidthClass;
use ch_common::{EncodingVariant, IsaKind};
use ch_workloads::{Scale, Workload};

/// Expands a sweep request's (possibly empty = "all") name lists into
/// the configuration cross product, already normalized and in the
/// cache-friendly order: workload-major, then ISA, then width.
///
/// The order is the batching strategy: all widths of one `(workload,
/// isa)` are adjacent in the queue, so the workers that pick them up
/// share one committed trace, one SoA conversion, and one
/// branch-predictor replay through `ch-bench`'s process-wide caches —
/// only the width-dependent pipeline model runs per job.
pub fn expand_sweep(
    workloads: &[String],
    isas: &[String],
    widths: &[String],
    scale: &str,
    encoding: &str,
    engine: &str,
) -> Result<Vec<ConfigKey>, String> {
    let scale = Scale::from_name(scale)
        .ok_or_else(|| format!("unknown scale `{scale}` (test|small|full)"))?;
    let encoding = EncodingVariant::from_name(encoding)
        .ok_or_else(|| format!("unknown encoding `{encoding}` (fixed|compressed)"))?;
    let engine = Engine::from_name(engine)
        .ok_or_else(|| format!("unknown engine `{engine}` (fast|reference|poison)"))?;
    let workloads: Vec<Workload> = if workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        workloads
            .iter()
            .map(|n| Workload::from_name(n).ok_or_else(|| format!("unknown workload `{n}`")))
            .collect::<Result<_, _>>()?
    };
    let isas: Vec<IsaKind> = if isas.is_empty() {
        IsaKind::ALL.to_vec()
    } else {
        isas.iter()
            .map(|n| IsaKind::from_name(n).ok_or_else(|| format!("unknown isa `{n}`")))
            .collect::<Result<_, _>>()?
    };
    let widths: Vec<WidthClass> = if widths.is_empty() {
        WidthClass::ALL.to_vec()
    } else {
        widths
            .iter()
            .map(|n| WidthClass::from_label(n).ok_or_else(|| format!("unknown width `{n}`")))
            .collect::<Result<_, _>>()?
    };
    let mut keys = Vec::with_capacity(workloads.len() * isas.len() * widths.len());
    for &workload in &workloads {
        for &isa in &isas {
            for &width in &widths {
                keys.push(ConfigKey {
                    workload,
                    isa,
                    width,
                    scale,
                    encoding,
                    engine,
                });
            }
        }
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_expansion_is_width_minor() {
        let keys = expand_sweep(&[], &[], &[], "test", "fixed", "fast").unwrap();
        assert_eq!(keys.len(), 75);
        // All widths of one (workload, isa) are adjacent.
        assert_eq!(keys[0].workload, keys[4].workload);
        assert_eq!(keys[0].isa, keys[4].isa);
        assert_ne!(keys[0].width, keys[1].width);
        assert_ne!(keys[4].isa, keys[5].isa);
        let filtered = expand_sweep(
            &["xz".into(), "mcf".into()],
            &["ch".into()],
            &["4f".into(), "16f".into()],
            "small",
            "fixed",
            "reference",
        )
        .unwrap();
        assert_eq!(filtered.len(), 4);
        assert_eq!(
            filtered[0].canonical(),
            "xz/clockhands/4f/small/fixed/reference"
        );
    }

    #[test]
    fn sweep_expansion_rejects_unknown_names() {
        assert!(expand_sweep(&["nope".into()], &[], &[], "test", "fixed", "fast").is_err());
        assert!(expand_sweep(&[], &[], &[], "huge", "fixed", "fast").is_err());
        assert!(expand_sweep(&[], &[], &[], "test", "huffman", "fast").is_err());
        assert!(expand_sweep(&[], &[], &[], "test", "fixed", "warp").is_err());
    }
}
