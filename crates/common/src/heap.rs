//! The process heap policy for trace-sized buffers.
//!
//! A committed-instruction trace is megabytes to hundreds of megabytes
//! (2–50 MB at test scale), and a trace consumer allocates and frees
//! several buffers of that size per trace. Under glibc's default policy
//! such a block is served with `mmap` and unmapped on `free`, but every
//! `free` of a mapped block under 32 MiB also raises the *dynamic* mmap
//! threshold to that block's size, and the heap trim threshold to twice
//! that. From then on, trace-sized blocks below the new threshold come
//! from the brk heap, the larger ones are still mapped, and how many
//! freed heap pages stay resident depends on the order of the earlier
//! allocations and frees. A process's peak resident size then depends
//! on which traces it happened to build first: over the 15 test-scale
//! traces, 103–150 MB by order.
//!
//! [`keep_large_blocks_on_heap`] turns both the mapping of large blocks
//! and heap trimming off. Every block then comes from a heap (glibc
//! still maps one too large for a thread arena's 64 MiB heap), a freed
//! trace's pages are reused by the next one instead of being unmapped
//! and faulted in again, and since a trace consumer frees nearly all it
//! allocated before the next trace, the heap's extent is set by the
//! largest trace alone: 103.5 MB for every order of the test-scale
//! traces. The price is that the process keeps its peak resident size
//! until it exits.

use std::sync::OnceLock;

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `mallopt` parameters and values from glibc's `<malloc.h>` and
/// `mallopt(3)`.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    /// The top-of-heap free size that triggers trimming.
    pub const M_TRIM_THRESHOLD: i32 = -1;
    /// The most blocks served with `mmap` at once.
    pub const M_MMAP_MAX: i32 = -4;
    /// The `M_TRIM_THRESHOLD` value that disables trimming.
    pub const NEVER_TRIM: i32 = -1;
}

/// Serves every allocation of the process from the heap and never trims
/// it (see the module docs), once; later calls do nothing.
///
/// Returns whether the policy is in force: `false` on other C
/// libraries, whose allocators have no such switches.
pub fn keep_large_blocks_on_heap() -> bool {
    static SET: OnceLock<bool> = OnceLock::new();
    *SET.get_or_init(|| {
        #[cfg(all(target_os = "linux", target_env = "gnu"))]
        {
            // SAFETY: `mallopt` takes two integers and takes the
            // allocator's own lock; both values are documented ones.
            unsafe {
                mallopt(glibc::M_MMAP_MAX, 0) == 1
                    && mallopt(glibc::M_TRIM_THRESHOLD, glibc::NEVER_TRIM) == 1
            }
        }
        #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
        {
            false
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_is_set_once_on_glibc() {
        let first = keep_large_blocks_on_heap();
        assert_eq!(first, cfg!(all(target_os = "linux", target_env = "gnu")));
        assert_eq!(keep_large_blocks_on_heap(), first);
        // A block larger than a thread arena's whole heap (64 MiB), which
        // glibc then maps after all, still allocates and frees.
        let block = vec![1u8; 65 << 20];
        assert_eq!(block.iter().map(|&b| u64::from(b)).sum::<u64>(), 65 << 20);
    }
}
