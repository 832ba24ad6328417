//! `io::MAX_LINE_BYTES` bounds what the reader holds of a
//! line, not just what it decodes: a line far past the cap is counted
//! `oversized` and read through without ever being resident. A test
//! binary of its own, so the process's peak RSS is this test's alone.

use smash_trace::io::{read_jsonl_lenient, write_jsonl};
use smash_trace::{HttpRecord, IngestOptions};
use std::io::{self, Read};

/// One line of `left` bytes of `x`, made up as it is read, then `tail`.
struct HugeLine {
    left: usize,
    tail: io::Cursor<Vec<u8>>,
}

impl Read for HugeLine {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        static BLOCK: [u8; 1 << 16] = [b'x'; 1 << 16];
        let n = buf.len().min(self.left).min(BLOCK.len());
        if n == 0 {
            return self.tail.read(buf);
        }
        buf[..n].copy_from_slice(&BLOCK[..n]);
        self.left -= n;
        Ok(n)
    }
}

/// The process's peak resident set so far, in KiB.
fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("a VmHWM line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM in kB")
}

#[test]
fn a_512_mib_line_is_counted_oversized_without_being_held() {
    let good = HttpRecord::new(1, "c", "ok.com", "1.1.1.1", "/a.php");
    let mut tail = b"\n".to_vec();
    write_jsonl(&mut tail, std::slice::from_ref(&good)).unwrap();
    let before = peak_rss_kib();
    let input = HugeLine {
        left: 512 << 20,
        tail: io::Cursor::new(tail),
    };
    let opts = IngestOptions::default().with_error_budget(1.0);
    let (records, report) = read_jsonl_lenient(input, &opts).unwrap();
    let grown_kib = peak_rss_kib().saturating_sub(before);
    assert_eq!(records, [good]);
    assert_eq!((report.lines, report.oversized, report.records), (2, 1, 1));
    assert!(
        grown_kib < 64 << 10,
        "peak RSS grew by {grown_kib} KiB reading one oversized line"
    );
}
