//! A day file is read a section at a time: loading it holds the arena
//! it decodes plus one section's frame, never the arena plus the whole
//! file. A test binary of its own, and the load itself in a child
//! process (this binary re-run with [`CHILD`] set), so the peak RSS
//! measured is the load's alone.

use smash_trace::{load_day, save_day, HttpRecord, TraceDataset};
use std::path::Path;
use std::process::Command;

/// Set to a day file's path, the test only loads it and reports.
const CHILD: &str = "SMASH_DAY_LOAD_MEMORY_CHILD";

/// What a load may hold beyond the arena and its largest frame: the
/// decode's small tables, thread stacks, allocator slack.
const SLACK: u64 = 2 << 20;

/// The process's peak resident set so far, in bytes.
fn peak_rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("a VmHWM line");
    let kib: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM in kB");
    kib << 10
}

/// A day whose bytes are nearly all record columns: 300 000 requests
/// over a few thousand clients, servers and files.
fn dataset() -> TraceDataset {
    TraceDataset::from_records((0..300_000u64).map(|i| {
        let site = i % 3001;
        let host = format!("h{}.site{site}.com", i % 7);
        let ip = format!("10.0.{}.{}", site / 256, site % 256);
        let uri = format!("/p{}/f{}.php?a={}", i % 13, i % 4001, i % 3);
        let rec = HttpRecord::new(i, &format!("c{}", i % 5003), &host, &ip, &uri)
            .with_status(if i % 9 == 0 { 404 } else { 200 });
        match i % 4 {
            0 => rec.with_referrer(&format!("r{}.com", i % 101)),
            _ => rec,
        }
    }))
}

/// The lengths of a day file's frames, found by their headers (magic,
/// version, stage length, stage, payload length, checksum).
fn frame_lens(day: &[u8]) -> Vec<u64> {
    let mut lens = Vec::new();
    let mut at = 0;
    while at < day.len() {
        let stage = u16::from_le_bytes(day[at + 12..at + 14].try_into().unwrap()) as usize;
        let len_at = at + 14 + stage;
        let payload = u64::from_le_bytes(day[len_at..len_at + 8].try_into().unwrap()) as usize;
        let frame = 30 + stage + payload;
        lens.push(frame as u64);
        at += frame;
    }
    lens
}

#[test]
#[cfg(target_os = "linux")]
fn a_day_load_holds_the_arena_and_one_frame_not_the_file() {
    if let Some(path) = std::env::var_os(CHILD) {
        let before = peak_rss();
        let ds = load_day(Path::new(&path)).expect("the saved day loads");
        let grown = peak_rss().saturating_sub(before);
        println!("day-load: grown={grown} fingerprint={}", ds.fingerprint());
        return;
    }
    let dir = std::env::temp_dir().join(format!("smash-day-load-memory-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("day.smshcols");
    let ds = dataset();
    save_day(&path, &ds).unwrap();
    let day = std::fs::read(&path).unwrap();
    let largest = frame_lens(&day).into_iter().max().unwrap();
    // Else the bound below could not tell holding the file from holding
    // a frame, or either from the slack.
    assert!(
        day.len() as u64 >= 4 * SLACK.max(largest),
        "a {} B day whose largest frame is {largest} B",
        day.len()
    );
    let child = Command::new(std::env::current_exe().unwrap())
        .args([
            "a_day_load_holds_the_arena_and_one_frame_not_the_file",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD, &path)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&child.stdout);
    assert!(
        child.status.success(),
        "the loading child failed: {child:?}"
    );
    let report = stdout
        .lines()
        .find_map(|l| Some(l.split_once("day-load: ")?.1))
        .unwrap_or_else(|| panic!("no report from the child: {stdout}"));
    assert!(
        report.ends_with(&format!("fingerprint={}", ds.fingerprint())),
        "{report}"
    );
    eprintln!(
        "a {} B day with a {} B arena and a {largest} B largest frame: {report}",
        day.len(),
        ds.heap_bytes()
    );
    let grown: u64 = report
        .strip_prefix("grown=")
        .and_then(|r| r.split(' ').next())
        .and_then(|g| g.parse().ok())
        .unwrap();
    let bound = ds.heap_bytes() + largest + SLACK;
    assert!(
        grown <= bound,
        "loading a {} B day grew the peak RSS by {grown} B, past the arena ({} B) \
         + the largest frame ({largest} B) + {SLACK} B",
        day.len(),
        ds.heap_bytes()
    );
}
