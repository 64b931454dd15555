//! Order statistics over measured samples.
//!
//! Percentiles use the nearest-rank definition: the `p`-quantile of `n`
//! sorted samples is the sample at rank `ceil(p * n)` (1-based). A
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! strictly above its rank; with fewer, a "p99" is really the maximum
//! and moves with a single outlier, so it is refused instead.

/// Samples that must lie beyond a percentile's rank for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of the `p`-quantile among `n` samples
/// (`0 < p <= 1`, `n >= 1`).
fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0 && p > 0.0 && p <= 1.0, "rank of p={p} over n={n}");
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-quantile of `samples`, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let rank = nearest_rank(samples.len(), p);
    if samples.len() - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The plain median of a small sample set (the mean of the two middle
/// values for an even count), used for repeated set-ups and host
/// probes where the percentile refusal rule does not apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_p50_and_p90() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), Some(50.0));
        assert_eq!(percentile(&xs, 0.90), Some(90.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.90), Some(90.0));
        // Ranks round up: p50 of 21 samples is the 11th.
        let odd: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&odd, 0.50), Some(11.0));
    }

    #[test]
    fn refuses_percentiles_without_ten_samples_beyond() {
        // p90 of 100 samples has exactly 10 beyond it: reported.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&xs, 0.90).is_some());
        // p90 of 99 samples has only 9 beyond it: refused.
        assert_eq!(percentile(&xs[..99], 0.90), None);
        // A p99 over 500 samples is really a top-5 sample: refused.
        let many: Vec<f64> = (1..=500).map(f64::from).collect();
        assert_eq!(percentile(&many, 0.99), None);
        assert_eq!(percentile(&many, 0.98), Some(490.0));
        // The median needs 20 samples (10 beyond rank 10).
        assert_eq!(percentile(&xs[..19], 0.50), None);
        assert_eq!(percentile(&xs[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.50), None);
    }

    #[test]
    fn small_sample_median() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
