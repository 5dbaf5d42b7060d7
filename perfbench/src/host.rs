//! Host facts every output records: core and thread counts, memory and
//! CPU-time readings from `/proc`, and the commit under test.

use std::path::Path;
use std::process::{Command, Stdio};

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process (`VmHWM`), MB; 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `[user, system]` CPU seconds of this process plus its reaped children
/// (`utime + cutime`, `stime + cstime` of `/proc/self/stat`, at Linux's
/// fixed 100 ticks/s).
pub fn cpu_s() -> [f64; 2] {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return [0.0; 2];
    };
    // Fields after the parenthesised command name start at field 3.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return [0.0; 2];
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    [
        (ticks(11) + ticks(13)) / 100.0,
        (ticks(12) + ticks(14)) / 100.0,
    ]
}

/// CPU seconds the hypervisor took from the host's CPUs (the `steal`
/// column of `/proc/stat`, summed over CPUs); 0 if unreadable.
pub fn steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |t| t / 100.0)
}

/// Commit of the checkout the benchmark was built from, or `unknown`
/// when the checkout is not a git repository.
pub fn git_commit() -> String {
    let git_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    Command::new("git")
        .arg("--git-dir")
        .arg(&git_dir)
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}
