//! Host facts recorded with every result: CPUs, cache sizes, the
//! measured STREAM-triad ceiling, the selected kernel ISA, and resident
//! memory.

use spmv_bench::roofline::{measure_stream_bandwidth_with, StreamOpts, TRIAD_BYTES_PER_ELEM};

/// Threads the benchmark ever runs at once in a kernel or service pool,
/// and client threads it ever starts.
pub const THREADS: usize = 2;

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Size in KiB of the unified (or data) cache at `level` seen by CPU 0,
/// from sysfs; `None` where sysfs does not say.
pub fn cache_kib(level: u32) -> Option<u64> {
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(lvl) = read("level") else { break };
        let kind = read("type").unwrap_or_default();
        if lvl.trim() == level.to_string() && kind.trim() != "Instruction" {
            let size = read("size")?;
            let size = size.trim();
            return match size.strip_suffix('K') {
                Some(k) => k.parse().ok(),
                None => {
                    size.strip_suffix('M').and_then(|m| m.parse::<u64>().ok()).map(|m| m * 1024)
                }
            };
        }
    }
    None
}

/// Resident set size in MiB from `/proc/self/status`.
pub fn rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// `(steal, total)` CPU ticks of all CPUs from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings: host contention the run could not see.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}

/// The STREAM-triad ceiling and the array size it was measured with.
#[derive(Debug, Clone, Copy)]
pub struct Triad {
    pub gbs: f64,
    /// `f64` elements per array per thread.
    pub elems_per_thread: usize,
    pub threads: usize,
}

impl Triad {
    /// Bytes the three arrays occupy across all threads.
    pub fn total_bytes(&self) -> usize {
        self.elems_per_thread * self.threads * TRIAD_BYTES_PER_ELEM
    }
}

/// Measures the triad at [`THREADS`] threads with `elems_per_thread`
/// elements per array.
pub fn triad(elems_per_thread: usize) -> Triad {
    let opts = StreamOpts { elems_per_thread, reps: 5, threads: THREADS };
    Triad { gbs: measure_stream_bandwidth_with(&opts), elems_per_thread, threads: THREADS }
}
