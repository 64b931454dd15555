//! Reusable sweep engine: deduplicated, order-preserving parallel
//! fan-out over experiment keys.
//!
//! Every table/figure in this crate reduces to "evaluate `f` over a
//! list of config keys, where many keys repeat" (Fig. 13 and Fig. 14
//! share all 75 simulations; per-workload rows re-ask for the same
//! baseline run). The first-generation drivers handled that with
//! hand-rolled warm-up passes ([`crate::par_map`] plus a process-wide
//! keyed cache). This module generalises the pattern: [`sweep`] dedupes the key list, evaluates each **distinct** key
//! exactly once on the worker pool, and returns results **in input
//! order** (repeats are clones of the single computation). It is
//! deterministic at any `--jobs` setting: output order is the input key
//! order, never completion order.

use crate::par_map;
use std::collections::HashMap;
use std::hash::Hash;

/// Evaluates `f` once per **distinct** key and returns one result per
/// input key, in input order.
///
/// Repeated keys cost one computation plus a clone. The distinct keys
/// are fanned out over the process worker pool ([`crate::jobs`]).
///
/// # Examples
///
/// ```
/// let keys = ["a", "b", "a", "a", "c"];
/// let calls = std::sync::atomic::AtomicUsize::new(0);
/// let out = ch_bench::sweep(&keys, |k| {
///     calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
///     k.to_uppercase()
/// });
/// assert_eq!(out, ["A", "B", "A", "A", "C"]);
/// assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 3);
/// ```
pub fn sweep<K, V>(keys: &[K], f: impl Fn(&K) -> V + Sync) -> Vec<V>
where
    K: Eq + Hash + Clone + Sync,
    V: Clone + Send,
{
    let mut unique: Vec<K> = Vec::new();
    let mut index: HashMap<K, usize> = HashMap::with_capacity(keys.len());
    for k in keys {
        index.entry(k.clone()).or_insert_with(|| {
            unique.push(k.clone());
            unique.len() - 1
        });
    }
    let results = par_map(&unique, f);
    keys.iter().map(|k| results[index[k]].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_jobs;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sweep_dedupes_and_preserves_order() {
        set_jobs(4);
        let keys: Vec<u32> = (0..40).map(|i| i % 7).collect();
        let calls = AtomicUsize::new(0);
        let out = sweep(&keys, |&k| {
            calls.fetch_add(1, Ordering::Relaxed);
            k * 10
        });
        set_jobs(0);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            7,
            "one call per distinct key"
        );
        assert_eq!(out, keys.iter().map(|k| k * 10).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_handles_empty_input() {
        assert_eq!(sweep::<u32, u32>(&[], |&k| k), Vec::<u32>::new());
    }
}
