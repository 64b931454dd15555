//! Host-side measurements: peak resident memory and a drift probe.

use std::hint::black_box;
use std::time::Instant;

/// Reads a `kB` field (`VmHWM`, `VmRSS`) of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line[field.len()..]
        .trim_start_matches(':')
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set size (`VmHWM`) since start or the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> Option<f64> {
    status_mb("VmHWM")
}

/// Resident set size now (`VmRSS`), in MB.
pub fn rss_mb() -> Option<f64> {
    status_mb("VmRSS")
}

/// Resets `VmHWM` to the current RSS (Linux `clear_refs` value 5), so
/// that the next [`peak_rss_mb`] covers only what runs after this call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Iterations of the calibration loop (about 10–20 ms on current x86
/// hosts).
const PROBE_ITERS: u64 = 20_000_000;

/// Times one run of a fixed integer calibration loop, in milliseconds.
///
/// The loop touches no memory, so its time moves only with how fast
/// the host runs this thread right now. It is reported next to the
/// results so that drift between runs can be seen; it is never used to
/// normalise them.
pub fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..black_box(PROBE_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// A Linux `cpu_set_t`: a bit mask of 1024 CPUs.
#[cfg(target_os = "linux")]
#[repr(C)]
struct CpuSet([u64; 16]);

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread, and every thread it spawns later, to the
/// highest-numbered CPU it may run on, and returns that CPU.
///
/// The serving workload's closed loop wakes a server thread and then
/// the client for every request. Spread over two vCPUs, each wake-up
/// crosses CPUs, and the time that takes varied by tens of percent from
/// one run to the next; on one CPU it is steady. The highest-numbered
/// CPU is chosen because interrupts default to CPU 0.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed = CpuSet([0; 16]);
    // SAFETY: `allowed` is a writable, properly aligned buffer of `size`
    // bytes, the layout glibc's `cpu_set_t` has; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| allowed.0[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable, properly aligned `cpu_set_t`-sized
    // buffer that lives across the call; pid 0 is this thread.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Pinning is only implemented on Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    Err(std::io::Error::other("CPU pinning needs Linux"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_memory_fields() {
        let rss = rss_mb().expect("VmRSS");
        let peak = peak_rss_mb().expect("VmHWM");
        assert!(rss > 0.0 && peak >= rss);
    }

    #[test]
    fn probe_takes_measurable_time() {
        assert!(probe_ms() > 0.0);
    }
}
