//! The launcher reports the peak RSS of the program it runs, not of the
//! process that asked for it.
//!
//! On Linux a child's `ru_maxrss` starts at the peak RSS of the process
//! that spawned it, so a runner that has generated a few hundred MB of
//! inputs would read its own size back for every small child. The
//! launcher (`smash-benchmark --child-launch`) is a fresh, small process
//! that does the spawn and the `wait4`; this test spawns `true` through it
//! from a parent holding a large allocation.

use std::process::{Command, Stdio};

/// What the test process holds while it launches: far above anything
/// `true` could use.
const BALLAST: usize = 300 << 20;

#[test]
fn a_large_parent_does_not_show_in_the_childs_peak_rss() {
    // Written, so resident.
    let ballast = vec![1u8; BALLAST];
    std::hint::black_box(&ballast);

    let dir = std::env::temp_dir().join(format!("smash-benchmark-launch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let usage_file = dir.join("usage");
    let mut launcher = Command::new(env!("CARGO_BIN_EXE_smash-benchmark"))
        .arg("--child-launch")
        .arg(&usage_file)
        .arg("true")
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn the launcher");
    // The launcher kills its program when its stdin closes: hold it open
    // until the launcher has exited (`wait` would close it first).
    let hold = launcher.stdin.take();
    assert!(launcher.wait().expect("wait").success());
    drop(hold);

    let text = std::fs::read_to_string(&usage_file).expect("the launcher wrote the usage file");
    let fields: Vec<&str> = text.split_whitespace().collect();
    let [wall_s, cpu_s, peak_rss_mb, success] = fields[..] else {
        panic!("unexpected usage line `{text}`");
    };
    assert_eq!(success, "true");
    assert!(wall_s.parse::<f64>().expect("wall seconds") > 0.0);
    assert!(cpu_s.parse::<f64>().expect("cpu seconds") >= 0.0);
    let peak_rss_mb: f64 = peak_rss_mb.parse().expect("peak RSS");
    assert!(
        peak_rss_mb > 0.0 && peak_rss_mb < 50.0,
        "`true` reported {peak_rss_mb} MB under a parent holding {} MB",
        BALLAST >> 20
    );
    drop(ballast);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closing_the_launchers_stdin_kills_the_program() {
    let dir = std::env::temp_dir().join(format!("smash-benchmark-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create tmp dir");
    let usage_file = dir.join("usage");
    let mut launcher = Command::new(env!("CARGO_BIN_EXE_smash-benchmark"))
        .arg("--child-launch")
        .arg(&usage_file)
        .args(["sleep", "600"])
        .stdin(Stdio::piped())
        .spawn()
        .expect("spawn the launcher");
    drop(launcher.stdin.take());
    // Returns at once, not after ten minutes: the sleep was killed.
    assert!(launcher.wait().expect("wait").success());
    let text = std::fs::read_to_string(&usage_file).expect("the launcher wrote the usage file");
    assert!(text.trim_end().ends_with("false"), "usage line `{text}`");
    let _ = std::fs::remove_dir_all(&dir);
}
