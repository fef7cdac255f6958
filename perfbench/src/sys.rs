//! Facts about the running process and host, read from `/proc` and the
//! environment.

use std::path::PathBuf;
use std::process::Command;

/// Hardware threads available, as `nproc` reports them.
pub fn cpus() -> usize {
    Command::new("nproc")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The checked-out commit, or `unknown` outside a git checkout.
pub fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time (user + system) this process has used, all threads, in
/// seconds. Clock-tick resolution (10 ms at the usual 100 Hz).
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the full line, i.e. 12 and 13 after `)`.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Scratch directory for stores and traces: `perfbench-run` beside the
/// build's `release` directory, so everything stays inside the build
/// tree of the checkout.
pub fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running benchmark binary");
    let target = exe
        .parent()
        .and_then(|release| release.parent())
        .expect("benchmark binary lives in <target>/<profile>/");
    target.join("perfbench-run")
}
