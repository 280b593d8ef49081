//! What the kernel says about this process: peak resident memory and
//! time spent runnable but not running.

use std::fs;

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` does not offer it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Nanoseconds this process's main thread has waited on a run queue
/// (second field of `/proc/self/schedstat`), or `None` where the kernel
/// does not account it.
pub fn runq_wait_ns() -> Option<u64> {
    let stat = fs::read_to_string("/proc/self/schedstat").ok()?;
    stat.split_whitespace().nth(1)?.parse().ok()
}
