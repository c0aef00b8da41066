//! Subprocess control for the measured `agatha` binary: a scrubbed
//! environment, wall time, the child's own CPU time from `wait4(2)`
//! (declared here; the workspace has no `libc` crate) and its peak RSS from
//! `/proc/<pid>/status`.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child rusage through the 64-bit Linux wait4 ABI");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs the
/// benchmark does not read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChildUsage {
    /// Spawn to exit, as the parent saw it.
    pub wall_s: f64,
    /// User + system CPU seconds of the child and the descendants it waited
    /// for.
    pub cpu_s: f64,
    /// Whether the child exited with status 0.
    pub success: bool,
}

/// Names of every `AGATHA_*` variable in this process's environment. The
/// benchmark measures one resolved configuration, so it refuses to start
/// when this is non-empty and removes them from children regardless.
pub fn agatha_env_vars() -> Vec<String> {
    let mut names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("AGATHA_"))
        .collect();
    names.sort();
    names
}

/// A command for the measured binary with every `AGATHA_*` variable removed.
pub fn agatha_command(binary: &Path, args: &[String]) -> Command {
    let mut cmd = Command::new(binary);
    cmd.args(args);
    for name in agatha_env_vars() {
        cmd.env_remove(name);
    }
    cmd
}

/// A spawned child whose exit is collected with [`RunningChild::finish`].
pub struct RunningChild {
    child: Child,
    started: Instant,
}

impl RunningChild {
    pub fn spawn(cmd: &mut Command) -> Result<RunningChild, String> {
        let started = Instant::now();
        let child = cmd.spawn().map_err(|e| format!("spawn {:?}: {e}", cmd.get_program()))?;
        Ok(RunningChild { child, started })
    }

    pub fn child_mut(&mut self) -> &mut Child {
        &mut self.child
    }

    fn pid(&self) -> Result<i32, String> {
        i32::try_from(self.child.id()).map_err(|_| "child pid exceeds i32".to_string())
    }

    /// The child's own high-water RSS so far (`VmHWM`) in megabytes, or
    /// `None` once it has exited. This, not `ru_maxrss`, is the child's peak:
    /// a child spawned with `vfork` shares its parent's memory until `exec`,
    /// so its `ru_maxrss` is at least the *parent's* peak and measures the
    /// benchmark instead of the program.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid().ok()?)).ok()?;
        let kb: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()?;
        Some(kb / 1024.0)
    }

    /// Block until the child exits and return what it cost. Reaps the child
    /// itself, so the `Child` handle must not be waited on afterwards — it
    /// is consumed here.
    pub fn finish(self) -> Result<ChildUsage, String> {
        self.wait()
    }

    /// [`RunningChild::finish`] that also samples the child's high-water RSS
    /// every few milliseconds while it runs. The mark only grows, so the
    /// last sample before the exit is the peak. Timed runs use the plain
    /// [`RunningChild::finish`]: nothing polls beside them.
    pub fn finish_sampling_rss(self) -> Result<(ChildUsage, f64), String> {
        let exited = AtomicBool::new(false);
        let (usage, peak) = std::thread::scope(|scope| {
            let sampler = scope.spawn(|| {
                let mut peak = None;
                while !exited.load(Ordering::Acquire) {
                    peak = self.peak_rss_mb().or(peak);
                    std::thread::sleep(Duration::from_millis(10));
                }
                peak
            });
            let usage = self.wait();
            exited.store(true, Ordering::Release);
            (usage, sampler.join().expect("RSS sampler panicked"))
        });
        let peak = peak.ok_or("child exited before its RSS could be read")?;
        Ok((usage?, peak))
    }

    /// Reap the child. Private and called exactly once, from the two
    /// consuming methods above.
    fn wait(&self) -> Result<ChildUsage, String> {
        let pid = self.pid()?;
        let mut status = 0i32;
        let mut usage = RUsage::default();
        // SAFETY: `status` and `usage` are live, writable and laid out as the
        // 64-bit Linux ABI declares (checked by `rusage_layout` below); `pid`
        // is a child of this process that nothing has reaped: std never
        // waited on `self.child`, and both callers consume `self`.
        let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        let wall_s = self.started.elapsed().as_secs_f64();
        if reaped != pid {
            return Err(format!("wait4({pid}) returned {reaped}"));
        }
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Ok(ChildUsage {
            wall_s,
            cpu_s: secs(usage.utime) + secs(usage.stime),
            // WIFEXITED && WEXITSTATUS == 0.
            success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        })
    }
}

/// Run `cmd` to completion with its output discarded.
pub fn run_to_exit(cmd: &mut Command) -> Result<ChildUsage, String> {
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(Stdio::null());
    RunningChild::spawn(cmd)?.finish()
}

/// Run `cmd` to completion and return its standard output too.
pub fn run_capture(cmd: &mut Command) -> Result<(ChildUsage, String), String> {
    use std::io::Read;
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
    let mut running = RunningChild::spawn(cmd)?;
    let mut out = String::new();
    running
        .child_mut()
        .stdout
        .take()
        .expect("stdout was piped")
        .read_to_string(&mut out)
        .map_err(|e| format!("read child stdout: {e}"))?;
    Ok((running.finish()?, out))
}

/// Cargo's target directory as this process sees it: `CARGO_TARGET_DIR`
/// (relative to the working directory, as cargo resolves it) or `target`.
pub fn target_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
}

/// Build the measured binary from the repository in the working directory —
/// the vectorised build CI tracks — and return its path.
pub fn build_agatha() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").is_file() {
        return Err("run from the repository root: crates/cli/Cargo.toml not found".to_string());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--features", "simd", "-p", "agatha-cli"])
        .stdin(Stdio::null())
        // The benchmark's last stdout line is its result; cargo's own
        // chatter belongs on stderr.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p agatha-cli --features simd failed ({status})"));
    }
    let binary = target_dir().join("release").join("agatha");
    if !binary.is_file() {
        return Err(format!("{} missing after a successful build", binary.display()));
    }
    Ok(binary)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_layout() {
        assert_eq!(std::mem::size_of::<Timeval>(), 16);
        assert_eq!(std::mem::size_of::<RUsage>(), 144);
    }

    #[test]
    fn usage_of_a_real_child() {
        let (usage, out) = run_capture(Command::new("sh").args(["-c", "echo hi"])).unwrap();
        assert!(usage.success);
        assert_eq!(out, "hi\n");
        assert!(usage.wall_s > 0.0);
        let failed = run_to_exit(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert!(!failed.success);
    }

    #[test]
    fn peak_rss_is_the_childs_own_not_the_parents() {
        // Make this process much larger than the child will ever be.
        let ballast = vec![1u8; 256 << 20];
        let mut cmd = Command::new("sleep");
        cmd.arg("0.1").stdout(Stdio::null());
        let (usage, peak_mb) =
            RunningChild::spawn(&mut cmd).unwrap().finish_sampling_rss().unwrap();
        assert!(usage.success);
        assert!(peak_mb > 0.0 && peak_mb < 64.0, "sleep(1) reported {peak_mb} MB");
        assert_eq!(std::hint::black_box(&ballast).len(), 256 << 20);
    }
}
