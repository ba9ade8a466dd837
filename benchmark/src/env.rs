//! The machine and build a result was measured on.

use chronolog_obs::Json;
use std::process::Command;

/// Logical processors available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Engine threads of the multi-threaded passes: `min(nproc, 4)`.
pub fn mt_threads() -> usize {
    nproc().min(4)
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1e3)
        })
        .unwrap_or(0.0)
}

/// Whether this is an optimized build; a debug build's numbers are not
/// worth keeping.
pub fn is_release() -> bool {
    !cfg!(debug_assertions)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The `environment` section of a results file.
pub fn describe() -> Json {
    let mut env = Json::object();
    env.set("nproc", nproc());
    env.set("engine_threads", 1u64);
    env.set("engine_threads_mt", mt_threads());
    env.set("client_threads", 1u64);
    env.set("rustc", command_line("rustc", &["--version"]));
    env.set(
        "commit",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    );
    env.set("profile", if is_release() { "release" } else { "debug" });
    env
}
