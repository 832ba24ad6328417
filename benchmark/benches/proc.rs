//! Child processes under test: building the `smash` binary, launching a
//! program so that its peak RSS and CPU time can be read, and a fixed
//! CPU loop that flags a noisy machine.

use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child resource usage through 64-bit Linux wait4/getrusage");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// Peak resident set size in KiB.
    maxrss: i64,
    rest: [i64; 13],
}

impl Rusage {
    fn cpu_s(&self) -> f64 {
        (self.utime.sec + self.stime.sec) as f64 + (self.utime.usec + self.stime.usec) as f64 / 1e6
    }
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
}

/// What a reaped child used.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Exit code 0.
    pub success: bool,
    /// Seconds from just before the spawn to the exit.
    pub wall_s: f64,
    /// Peak resident set in MB (10⁶ bytes).
    pub peak_rss_mb: f64,
    /// User + system CPU seconds.
    pub cpu_s: f64,
}

/// Waits for the child `pid` to exit and returns its exit status, peak
/// RSS and CPU time, which `Child::wait` cannot report.
///
/// On Linux the `ru_maxrss` of a child starts at the peak RSS of the
/// process that spawned it (the spawner's high-water mark is carried
/// across `exec`), so only a small spawner sees the child's own peak:
/// this is called by the launcher below and by nothing else.
fn reap(pid: u32) -> io::Result<(bool, f64, f64)> {
    let pid = i32::try_from(pid).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, writable, properly
        // aligned locals that outlive the call; `Rusage` matches the
        // kernel's 64-bit `struct rusage` layout (144 bytes, checked by
        // the test below). `pid` is our own un-reaped child: its `Child`
        // handle is owned by the launcher's watcher thread, which only
        // ever calls `kill` on it, so nobody else reaps the pid and it
        // cannot be recycled before this call returns.
        let got = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if got == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED && WEXITSTATUS == 0.
    let success = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((success, usage.maxrss as f64 * 1024.0 / 1e6, usage.cpu_s()))
}

/// User + system CPU seconds this process has used so far.
pub fn self_cpu_s() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a valid, writable local of the kernel's
    // `struct rusage` layout; RUSAGE_SELF is always a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc == 0 {
        usage.cpu_s()
    } else {
        0.0
    }
}

/// The hidden first argument that makes the runner a launcher.
pub const LAUNCH_FLAG: &str = "--child-launch";

/// The launcher: `--child-launch <usage file> <program> [args…]`.
///
/// Every program under test is spawned by a launcher, never by the
/// runner itself: a fresh launcher's own peak RSS is a few MB, so the
/// `ru_maxrss` it reads for its child is the child's, however much
/// memory the runner used generating inputs (see [`reap`]). It spawns
/// the program with its own stdout and stderr, waits for it, and writes
/// `<wall s> <cpu s> <peak rss MB> <success>` to the usage file.
///
/// Its stdin is the runner's hold on the program: when it reaches end of
/// file — the runner dropped its [`Launched`], or died — the program is
/// killed, so no process outlives the benchmark.
pub fn launcher(args: &[String]) -> io::Result<()> {
    let [usage_file, program, rest @ ..] = args else {
        return Err(io::Error::other(
            "the launcher takes <usage file> <program> [args]",
        ));
    };
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(rest)
        .stdin(Stdio::null())
        .spawn()?;
    let pid = child.id();
    // Never joined: it sits in `read` until the runner lets go, and ends
    // with the process. A kill that lands between the reap below and the
    // exit a few lines later finds no process: pids are handed out in a
    // cycle and cannot come round again in that time.
    std::thread::spawn(move || {
        let _ = io::stdin().read_to_end(&mut Vec::new());
        let _ = child.kill();
    });
    let (success, peak_rss_mb, cpu_s) = reap(pid)?;
    let wall_s = start.elapsed().as_secs_f64();
    std::fs::write(
        usage_file,
        format!("{wall_s:?} {cpu_s:?} {peak_rss_mb:?} {success}\n"),
    )
}

/// A program under test, running under a launcher.
pub struct Launched {
    launcher: Child,
    /// The launcher's stdin: closing it kills the program.
    hold: Option<ChildStdin>,
    usage_file: PathBuf,
}

impl Launched {
    /// Starts `cmd` (program and arguments; its stdin is null) under a
    /// launcher. `stdout` is where the program's stdout goes; the usage
    /// file is made in `dir`, which must exist.
    pub fn spawn(dir: &Path, cmd: &Command, stdout: Stdio) -> io::Result<Launched> {
        static LAUNCHES: AtomicU64 = AtomicU64::new(0);
        let n = LAUNCHES.fetch_add(1, Ordering::Relaxed);
        let usage_file = dir.join(format!("launch-{}-{n}.usage", std::process::id()));
        let mut launcher = Command::new(std::env::current_exe()?)
            .arg(LAUNCH_FLAG)
            .arg(&usage_file)
            .arg(cmd.get_program())
            .args(cmd.get_args())
            .stdin(Stdio::piped())
            .stdout(stdout)
            .spawn()?;
        // Taken out of the `Child` so that `Child::wait` does not close it.
        let hold = launcher.stdin.take();
        Ok(Launched {
            launcher,
            hold,
            usage_file,
        })
    }

    /// The program's stdout, when it was spawned with `Stdio::piped()`.
    pub fn stdout(&mut self) -> Option<ChildStdout> {
        self.launcher.stdout.take()
    }

    /// Waits for the program to exit by itself and returns what it used.
    pub fn finish(mut self) -> io::Result<Usage> {
        let status = self.launcher.wait()?;
        if !status.success() {
            // It said why on stderr, which it shares with the runner.
            return Err(io::Error::other(format!(
                "the launcher ended with {status}"
            )));
        }
        let text = std::fs::read_to_string(&self.usage_file)?;
        let fields: Vec<&str> = text.split_whitespace().collect();
        let bad = || io::Error::other(format!("the launcher wrote `{}`", text.trim()));
        let [wall_s, cpu_s, peak_rss_mb, success] = fields[..] else {
            return Err(bad());
        };
        let num = |s: &str| s.parse::<f64>().map_err(|_| bad());
        Ok(Usage {
            success: success == "true",
            wall_s: num(wall_s)?,
            peak_rss_mb: num(peak_rss_mb)?,
            cpu_s: num(cpu_s)?,
        })
    }
}

impl Drop for Launched {
    /// Lets go of the program — killed if it is still running — and waits
    /// for the launcher, so no error path leaves a process behind.
    fn drop(&mut self) {
        drop(self.hold.take());
        let _ = self.launcher.wait();
        let _ = std::fs::remove_file(&self.usage_file);
    }
}

/// Runs `cmd` to completion under a launcher, stdout discarded.
pub fn run_timed(dir: &Path, cmd: &Command) -> io::Result<Usage> {
    Launched::spawn(dir, cmd, Stdio::null())?.finish()
}

/// The repository root: the directory holding `benchmark/`.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits inside the repository")
        .to_path_buf()
}

/// Builds the release `smash` binary from the repository's sources and
/// returns its path. A no-op after the first build.
///
/// # Errors
///
/// When the repository's sources are absent or do not compile.
pub fn build_smash() -> io::Result<PathBuf> {
    let root = repo_root();
    // A relative CARGO_TARGET_DIR means "relative to where the
    // benchmark was started"; pin it before changing directory.
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()?.join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "smash",
        ])
        .arg("--target-dir")
        .arg(&target)
        .current_dir(&root)
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "cargo build of the smash binary failed in {}",
            root.display()
        )));
    }
    Ok(target.join("release").join("smash"))
}

/// Milliseconds a fixed, single-threaded CPU loop takes. Run before and
/// after a workload: a value far from the usual one flags a noisy
/// neighbour or a throttled machine; it measures nothing of SMASH.
pub fn spin_ms() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_has_the_kernel_layout() {
        assert_eq!(std::mem::size_of::<Rusage>(), 144);
    }

    #[test]
    fn reaping_reports_exit_status_and_usage() {
        let spawn = |program: &str| Command::new(program).spawn().expect("spawn").id();
        let (success, peak_rss_mb, _) = reap(spawn("true")).expect("wait");
        assert!(success);
        assert!(peak_rss_mb > 0.0);
        let (success, _, _) = reap(spawn("false")).expect("wait");
        assert!(!success);
    }

    #[test]
    fn own_cpu_time_advances() {
        let before = self_cpu_s();
        spin_ms();
        assert!(self_cpu_s() > before);
    }
}
