//! Crash-safe value snapshots: versioned, checksummed, atomic.
//!
//! A snapshot is the workspace's shared checksummed frame
//! ([`crate::envelope`]) under the magic `SMSHCKPT`; the payload is the
//! binary wire encoding of the framed value. Two files of the always-on
//! service are snapshots: each sealed epoch of the write-ahead log and
//! the published campaign snapshot (DESIGN.md §9, §13.4). A snapshot
//! renamed to the wrong stage — or rewritten by a different format
//! version — fails validation exactly like a bit flip. Writes go through
//! a temp file in the same directory followed by `rename`, so a crash
//! mid-write leaves either the old file or none, never a torn one.
//!
//! The module also owns the workspace's FNV-1a hash ([`Fnv1a`],
//! [`fnv1a`], [`fingerprint_string`]).
//!
//! Every failure is an [`CkptError`] value; nothing in this module
//! panics on untrusted bytes.

use crate::envelope::{self, EnvelopeError};
use crate::retry::write_atomic_retrying;
use crate::wire::{self, FromWire, ToWire};
use std::fmt;
use std::fs;
use std::io::{self, BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"SMSHCKPT";

/// Current snapshot format version. Bump on any envelope change; old
/// snapshots then fail validation and are recomputed. (3 is the
/// word-wise envelope checksum; `smash-trace::day::VERSION` moved with
/// it, because it is the one checksum of the one envelope.)
pub const FORMAT_VERSION: u32 = 3;

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a hasher (the workspace's canonical fingerprint hash;
/// file integrity is [`crate::envelope`]'s checksum, not this).
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(FNV_BASIS)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` (little-endian) into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash value accumulated so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// Renders a hash in the workspace's fingerprint notation
/// (`fnv1a:<16 hex digits>`).
pub fn fingerprint_string(hash: u64) -> String {
    format!("fnv1a:{hash:016x}")
}

/// Why a snapshot could not be used. For a regenerable file (the serve
/// snapshot) every variant is a *degradation* signal — the caller
/// recomputes and warns. A carrier whose files are not regenerable (the
/// serve layer's WAL) tells [`CkptError::Version`] — another build's
/// intact file — from damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The file is missing or the OS refused the read/write.
    Io(String),
    /// The bytes are not a valid snapshot: bad magic, truncated header,
    /// short payload, or checksum mismatch.
    Corrupt(String),
    /// The snapshot is well-formed but for a different stage.
    Mismatch(String),
    /// The snapshot opens like one but carries this format version, not
    /// [`FORMAT_VERSION`]: another build wrote it.
    Version(u32),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(m) => write!(f, "snapshot io error: {m}"),
            CkptError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            CkptError::Mismatch(m) => write!(f, "stale snapshot: {m}"),
            CkptError::Version(v) => write!(
                f,
                "stale snapshot: format version {v}, expected {FORMAT_VERSION}"
            ),
        }
    }
}

impl std::error::Error for CkptError {}

/// Validates snapshot bytes for `expected_stage` and returns the
/// payload, borrowed from `bytes` (validation order and guarantees:
/// [`crate::envelope::parse`]).
///
/// # Errors
///
/// [`CkptError::Corrupt`] on any framing/checksum violation,
/// [`CkptError::Version`] / [`CkptError::Mismatch`] when the snapshot
/// is for another format version or stage.
// lint:allow(index): lifetime-annotated slice types, not an indexing site
pub fn parse_snapshot<'a>(bytes: &'a [u8], expected_stage: &str) -> Result<&'a [u8], CkptError> {
    envelope::parse(bytes, MAGIC, FORMAT_VERSION, expected_stage).map_err(|e| match e {
        EnvelopeError::Corrupt(m) => CkptError::Corrupt(m),
        EnvelopeError::Version(v) => CkptError::Version(v),
        EnvelopeError::Stage(s) => CkptError::Mismatch(format!(
            "snapshot is for stage `{s}`, expected `{expected_stage}`"
        )),
    })
}

/// [`write_atomic_with`] of bytes a caller already holds: every
/// snapshot and WAL epoch.
///
/// # Errors
///
/// [`CkptError::Io`] if any filesystem step fails.
pub fn write_atomic(path: &Path, contents: &[u8]) -> Result<(), CkptError> {
    write_atomic_with(path, |out| out.write_all(contents)).map_err(|e| CkptError::Io(e.to_string()))
}

/// Streams what `write` puts through the buffered writer it is handed
/// into a sibling temp file, flushes it, then `rename`s it into place.
/// On *any* failure — `write`'s own, the flush, the rename — the temp
/// file is removed and a file already at `path` is left as it was.
///
/// No fsync: rename gives atomicity against process crash (the case
/// `tests/checkpoint.rs` and `tests/serve.rs` exercise), and a file torn
/// by power loss fails its envelope checksum when read back: a serve
/// snapshot is then rebuilt from the WAL, a WAL epoch is skipped and
/// counted (DESIGN.md §13.4).
///
/// # Errors
///
/// The first failing step's error, naming the step and the temp file.
pub fn write_atomic_with(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    let tmp = tmp_path(path);
    let failed = |step: &str, e: io::Error| {
        io::Error::new(e.kind(), format!("{step} {}: {e}", tmp.display()))
    };
    let file = fs::File::create(&tmp).map_err(|e| failed("create", e))?;
    let written = {
        let mut out = BufWriter::new(file);
        write(&mut out).and_then(|()| out.flush())
    };
    let placed = written
        .map_err(|e| failed("write", e))
        .and_then(|()| fs::rename(&tmp, path).map_err(|e| failed("rename", e)));
    if placed.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    placed
}

fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_owned()).unwrap_or_default();
    name.push(format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// Serializes `value` in the binary wire format ([`crate::wire`]) and
/// writes its snapshot, retrying transient I/O failures
/// ([`write_atomic_retrying`]). Returns `(payload_bytes, retries)` so
/// the caller can account its retries.
///
/// # Errors
///
/// [`CkptError::Io`] if the temp write or rename fails past the retry
/// budget, [`CkptError::Corrupt`] if the stage name cannot be framed.
pub fn write_value_snapshot<T: ToWire + ?Sized>(
    path: &Path,
    stage: &str,
    value: &T,
) -> Result<(u64, u32), CkptError> {
    let framed = envelope::frame_with(MAGIC, FORMAT_VERSION, stage, |out| value.wire(out))
        .map_err(|e| CkptError::Corrupt(e.to_string()))?;
    let retries = write_atomic_retrying(path, &framed)?;
    let payload_bytes = framed.len() - envelope::HEADER_BYTES - stage.len();
    Ok((payload_bytes as u64, retries))
}

/// Reads, validates, and deserializes a snapshot.
///
/// # Errors
///
/// [`CkptError::Io`] when the file cannot be read, then as
/// [`parse_snapshot`]; additionally [`CkptError::Corrupt`] when the
/// payload is valid bytes but not a valid wire encoding of `T`.
pub fn read_value_snapshot<T: FromWire>(path: &Path, stage: &str) -> Result<T, CkptError> {
    let bytes =
        fs::read(path).map_err(|e| CkptError::Io(format!("read {}: {e}", path.display())))?;
    wire::decode(parse_snapshot(&bytes, stage)?)
        .map_err(|e| CkptError::Corrupt(format!("payload does not decode: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failpoint;

    /// The `ckpt/write` failpoint is process-global: the tests that arm
    /// it, and the one asserting a fault-free retrying write, take turns.
    static WRITE_FAILPOINT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("smash-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create test temp dir");
        dir
    }

    #[test]
    fn fnv1a_matches_known_vector() {
        // FNV-1a("") = offset basis; FNV-1a("a") from the reference tables.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv1a::new();
        h.write(b"ab");
        h.write(b"c");
        assert_eq!(h.finish(), fnv1a(b"abc"));
    }

    // Truncation, bit flips, length lies and hostile bytes: the shared
    // suite in `crate::envelope`. Here, only what this layer adds.

    #[test]
    fn wrong_stage_version_and_foreign_magic_are_typed() {
        let dir = tmp_dir("mismatch");
        let path = dir.join("s.ckpt");
        let framed = envelope::frame(MAGIC, FORMAT_VERSION, "preprocess", b"").expect("frame");
        write_atomic(&path, &framed).expect("write");
        match read_value_snapshot::<Vec<u64>>(&path, "correlate") {
            Err(CkptError::Mismatch(m)) => {
                assert!(m.contains("preprocess") && m.contains("correlate"), "{m}")
            }
            other => panic!("expected stage mismatch, got {other:?}"),
        }
        for other in [FORMAT_VERSION - 1, FORMAT_VERSION + 1] {
            let foreign = envelope::frame(MAGIC, other, "s", b"").expect("frame");
            let err = parse_snapshot(&foreign, "s").expect_err("another version");
            assert_eq!(err, CkptError::Version(other));
            let said = err.to_string();
            assert!(
                said.contains(&format!("version {other}, expected {FORMAT_VERSION}")),
                "{said}"
            );
        }
        // Another format's file (a day, say) is not a stale snapshot —
        // it is not a snapshot at all.
        let foreign = envelope::frame(b"SMSHCOLS", FORMAT_VERSION, "s", b"").expect("frame");
        assert!(matches!(
            parse_snapshot(&foreign, "s"),
            Err(CkptError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = tmp_dir("atomic");
        let path = dir.join("s.ckpt");
        write_atomic(&path, b"x").expect("write");
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["s.ckpt"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_write_that_fails_midway_leaves_no_temp_file_and_the_old_target() {
        let dir = tmp_dir("midway");
        let path = dir.join("s.ckpt");
        write_atomic(&path, b"old").expect("write");
        let err = write_atomic_with(&path, |out| {
            // More than the writer buffers, so some of it reaches the
            // temp file before the failure.
            out.write_all(&vec![7u8; 64 << 10])?;
            Err(io::Error::other("disk full"))
        });
        assert!(matches!(err, Err(e) if e.to_string().contains("disk full")));
        let names: Vec<String> = fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["s.ckpt"]);
        assert_eq!(fs::read(&path).expect("read"), b"old");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn value_snapshot_round_trips() {
        let _turn = WRITE_FAILPOINT.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("value");
        let path = dir.join("v.ckpt");
        let value: Vec<u64> = vec![1, 2, 3];
        let (bytes, retries) = write_value_snapshot(&path, "v", &value).expect("write");
        assert!(bytes > 0);
        assert_eq!(retries, 0, "no fault injected, no retries spent");
        let back: Vec<u64> = read_value_snapshot(&path, "v").expect("read");
        assert_eq!(back, value);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_write_faults_are_retried_away() {
        let _turn = WRITE_FAILPOINT.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("retry");
        let path = dir.join("r.ckpt");
        failpoint::arm("ckpt/write", failpoint::Action::ErrorTimes(2));
        let (bytes, retries) =
            write_value_snapshot(&path, "r", &vec![9u64]).expect("retries must absorb 2 faults");
        failpoint::disarm("ckpt/write");
        assert!(bytes > 0);
        assert_eq!(retries, 2);
        let back: Vec<u64> = read_value_snapshot(&path, "r").expect("read");
        assert_eq!(back, vec![9]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn persistent_write_faults_exhaust_the_retry_budget() {
        let _turn = WRITE_FAILPOINT.lock().unwrap_or_else(|e| e.into_inner());
        let dir = tmp_dir("retry-exhaust");
        let path = dir.join("r.ckpt");
        failpoint::arm("ckpt/write", failpoint::Action::Error);
        let err = write_value_snapshot(&path, "r", &vec![9u64]);
        failpoint::disarm("ckpt/write");
        assert!(matches!(err, Err(CkptError::Io(_))), "got: {err:?}");
        assert!(!path.exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
