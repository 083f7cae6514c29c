//! Host-side measurements: process CPU time, peak memory, and the
//! provenance a run record carries (nproc, git commit, rustc version).

use std::path::Path;
use std::process::Command;

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime`
/// (Linux `USER_HZ`, 100 on every mainstream configuration).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds this process has used so far, across all
/// of its threads (finished worker threads included).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok(tick(11)? + tick(12)?)
}

/// CPU seconds the calling thread has run so far, to the nanosecond
/// (`/proc/thread-self/schedstat`; `cpu_seconds` counts 10 ms ticks).
pub fn thread_cpu_seconds() -> Result<f64, String> {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| "reading /proc/thread-self/schedstat".to_string())
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Worker count for closed-loop execution: one per available core.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the tree is a git checkout.
pub fn git_commit(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(root.join(".git").join(r))
            .map(|c| c.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the repository's cargo configuration builds for the host
/// CPU (`-C target-cpu=native`), which the run record notes because
/// host timings depend on it.
pub fn target_cpu_note(root: &Path) -> String {
    match std::fs::read_to_string(root.join(".cargo/config.toml")) {
        Ok(cfg) if cfg.contains("target-cpu=native") => {
            "built with -C target-cpu=native (.cargo/config.toml)".into()
        }
        _ => "portable target (no target-cpu=native in .cargo/config.toml)".into(),
    }
}
