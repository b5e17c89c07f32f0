//! Process resource usage and the machine fingerprint printed with every
//! result.

use std::process::Command;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("hostbench reads `struct rusage` with its 64-bit Linux layout");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen `long`s
/// of which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// Whole-process resource usage at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User plus system CPU seconds over every thread so far.
    pub cpu_s: f64,
    /// Peak resident set size so far, in MB (10⁶ bytes).
    pub peak_rss_mb: f64,
}

/// This process's CPU time and peak resident set, read with `getrusage`
/// (no file outside the working directory is opened).
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `getrusage` writes exactly one `struct rusage` through the
    // pointer; `Rusage` has that struct's 64-bit Linux layout (checked by
    // the `compile_error!` gate above) and points at a live local.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) fails only on a bad pointer");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        peak_rss_mb: ru.maxrss as f64 * 1024.0 / 1e6,
    }
}

/// One line describing the machine and build a result was measured on:
/// core count, compiler, enabled features and the commit (read from
/// `.git` in the working directory, `unknown` outside a git checkout).
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let features: Vec<&str> = [("simd", cfg!(feature = "simd"))]
        .iter()
        .filter(|(_, on)| *on)
        .map(|(name, _)| *name)
        .collect();
    format!(
        "fingerprint nproc={nproc} rustc=\"{rustc}\" features=[{}] commit={}",
        features.join(","),
        git_commit().unwrap_or_else(|| "unknown".to_string())
    )
}

fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
