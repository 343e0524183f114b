//! What the benchmark reads from the host: peak memory, CPU time, and
//! the provenance a result needs to be compared against another.

use serde_json::Value;
use std::process::Command;

/// Resets the kernel's peak-resident-set mark of this process to what
/// is resident now (`echo 5 > /proc/self/clear_refs`), so the next
/// [`peak_rss_mb`] is the peak since this call. Where the file cannot
/// be written the mark stays, and the peak is the process's so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds consumed by every thread of this process
/// so far, exited worker threads included (which the per-task files
/// under `/proc` would miss).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the
    // pointer, and `Timespec` has that struct's layout on 64-bit
    // Linux (two 64-bit signed fields); the pointer is to a live local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// Where a result came from. `git_sha` is what `--git-sha` passed in,
/// else `git rev-parse HEAD`, else "unknown" (the driver's checkout is
/// not a git repository).
pub fn provenance(git_sha: Option<&str>, seed: u64, seconds: f64) -> Value {
    let sha = git_sha
        .map(str::to_string)
        .or_else(|| command_line("git", &["rev-parse", "HEAD"]))
        .unwrap_or_else(|| "unknown".into());
    Value::Object(vec![
        ("git_sha".into(), Value::Str(sha)),
        ("seed".into(), Value::U64(seed)),
        ("seconds_per_run".into(), Value::F64(seconds)),
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("cpu_model".into(), Value::Str(cpu_model())),
        (
            "rustc".into(),
            Value::Str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
    ])
}
