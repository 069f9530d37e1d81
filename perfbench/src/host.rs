//! Host probes: core count, process CPU time, peak resident memory, build
//! profile and source revision. Linux `/proc` only; std-only.

use std::fs;
use std::path::Path;

/// Worker threads the benchmark may use: `available_parallelism`, which
/// honours CPU affinity and cgroup quotas (what `nproc` reports).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Clock ticks per second of `/proc/self/stat` CPU fields. Linux fixes
/// `USER_HZ` at 100 on every architecture it exposes to user space.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process, including threads that have already exited. Resolution is one
/// clock tick (10 ms).
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable on Linux");
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after the name.
    let rest = &stat[stat.rfind(')').expect("stat line has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 {
        fields[i]
            .parse::<u64>()
            .expect("stat CPU field is an integer") as f64
    };
    (ticks(11) + ticks(12)) / USER_HZ
}

/// The process's high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM line in /proc/self/status");
    kb as f64 / 1024.0
}

/// `"release"` or `"debug"`, as this binary was built.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The commit checked out in `root`, read from `.git` without spawning
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_return_plausible_values() {
        assert!(nproc() >= 1);
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
