//! Process-level measurements and the environment stamp, std only.

use std::path::Path;

/// `struct rusage` on Linux: two `timeval`s then fourteen `long`s.
#[repr(C)]
struct Rusage {
    utime_s: i64,
    utime_us: i64,
    stime_s: i64,
    stime_us: i64,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// User plus system CPU time of the whole process (every thread), in
/// seconds.
pub fn cpu_seconds() -> f64 {
    let mut u = Rusage {
        utime_s: 0,
        utime_us: 0,
        stime_s: 0,
        stime_us: 0,
        rest: [0; 14],
    };
    // SAFETY: `u` is a valid, writable `struct rusage`; 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut u) };
    if rc != 0 {
        return 0.0;
    }
    (u.utime_s + u.stime_s) as f64 + (u.utime_us + u.stime_us) as f64 / 1e6
}

/// CPU time the hypervisor gave to other guests while this host's CPUs
/// wanted to run (the `steal` column of `/proc/stat`), in seconds summed
/// over CPUs; 0 where the kernel does not report it.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        // USER_HZ is 100 on every Linux architecture this runs on.
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set size (`VmHWM`) in MiB.
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

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out git revision, read from `.git` without spawning git.
/// `"unknown"` outside a git work tree (e.g. an exported source tree).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}
