//! `SMSHCOLS`: the on-disk day format (DESIGN.md §12.4).
//!
//! A *day file* is one preprocessed [`TraceDataset`] — symbol tables,
//! column arena, and postings — as a wire payload inside the
//! workspace's shared checksummed envelope
//! ([`smash_support::envelope`]) under its own magic and version. This
//! module owns only the payload codec and the dataset invariants.
//!
//! Write once with [`save_day`] (`smash preprocess`), re-mine as often
//! as thresholds change with [`load_day`] — ingest, interning, and
//! posting construction are never repeated. Every load path is total:
//! corrupt, truncated, or adversarial bytes produce a [`DayError`],
//! never a panic, and a payload that checksums clean is still run
//! through [`TraceDataset::validate`] before it is handed to the miner.
//!
//! Version policy: readers accept exactly [`VERSION`]; any other is
//! [`DayError::Version`] carrying the number the file held, never a
//! best-effort parse. Layout changes bump the version (v1 was a
//! hand-rolled frame with a trailing checksum, v2 the shared envelope
//! under a byte-serial checksum; v3 is v2's payload, byte for byte,
//! under the envelope's word-wise checksum) and same-version additions
//! are forbidden (the wire codec rejects trailing bytes). A day file is
//! a regenerable cache: an older one is refused by number and
//! `smash preprocess` writes it again.

use crate::dataset::TraceDataset;
use smash_support::ckpt;
use smash_support::envelope::{self, EnvelopeError};
use smash_support::wire::{self, ToWire};
use std::fmt;
use std::path::Path;

/// Magic prefix of every day file.
pub const MAGIC: &[u8; 8] = b"SMSHCOLS";

/// Current (and only) layout version this reader/writer speaks.
pub const VERSION: u32 = 3;

/// The envelope stage name of a day payload.
pub const STAGE: &str = "day";

/// Why a day file could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DayError {
    /// Filesystem failure reading or writing the file.
    Io(String),
    /// Not a day file, or one whose envelope or payload does not
    /// verify (bad magic, truncation, checksum mismatch, undecodable).
    Corrupt(String),
    /// The file's version field is one this reader does not speak.
    Version(u32),
    /// The payload decoded but violates a dataset invariant.
    Invalid(String),
}

impl fmt::Display for DayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DayError::Io(e) => write!(f, "day file io error: {e}"),
            DayError::Corrupt(e) => write!(f, "day file corrupt: {e}"),
            DayError::Version(v) => write!(
                f,
                "day file version {v} not supported (this build reads {VERSION})"
            ),
            DayError::Invalid(e) => write!(f, "day file invalid: {e}"),
        }
    }
}

impl std::error::Error for DayError {}

/// Frames a dataset into `SMSHCOLS` envelope bytes, serializing it
/// straight into the frame.
pub fn frame_day(ds: &TraceDataset) -> Vec<u8> {
    envelope::frame_with(MAGIC, VERSION, STAGE, |out| ds.wire(out))
        .expect("the constant stage name always frames")
}

/// Parses `SMSHCOLS` envelope bytes back into a dataset, verifying the
/// envelope (magic, version, checksum) and every dataset invariant.
pub fn parse_day(bytes: &[u8]) -> Result<TraceDataset, DayError> {
    let payload = envelope::parse(bytes, MAGIC, VERSION, STAGE).map_err(|e| match e {
        EnvelopeError::Version(v) => DayError::Version(v),
        other => DayError::Corrupt(other.to_string()),
    })?;
    let ds: TraceDataset =
        wire::decode(payload).map_err(|e| DayError::Corrupt(format!("payload: {}", e.0)))?;
    ds.validate().map_err(DayError::Invalid)?;
    Ok(ds)
}

/// Writes a preprocessed day to `path` atomically (tmp + rename, like
/// the serve WAL and snapshot), so a crash mid-write never leaves a torn
/// file.
pub fn save_day(path: &Path, ds: &TraceDataset) -> Result<(), DayError> {
    ckpt::write_atomic(path, &frame_day(ds)).map_err(|e| DayError::Io(e.to_string()))
}

/// Loads a day written by [`save_day`], rejecting anything corrupt.
pub fn load_day(path: &Path) -> Result<TraceDataset, DayError> {
    let bytes =
        std::fs::read(path).map_err(|e| DayError::Io(format!("{}: {e}", path.display())))?;
    parse_day(&bytes)
}

/// Sniffs whether `bytes` begin with the `SMSHCOLS` magic — lets the
/// CLI's loader tell a day file from a JSONL trace by content.
pub fn is_day_file(bytes: &[u8]) -> bool {
    envelope::has_magic(bytes, MAGIC)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HttpRecord;

    fn dataset() -> TraceDataset {
        TraceDataset::from_records(vec![
            HttpRecord::new(0, "c1", "a.x.com", "1.1.1.1", "/f.php?k=1").with_referrer("r.com"),
            HttpRecord::new(9, "c2", "1.2.3.4", "1.2.3.4", "/dir/").with_status(404),
            HttpRecord::new(11, "c2", "b.x.com", "1.1.1.2", "/g.gif").with_redirect_to("z.com"),
        ])
    }

    #[test]
    fn frame_parse_round_trip() {
        let ds = dataset();
        let back = parse_day(&frame_day(&ds)).unwrap();
        assert_eq!(back.fingerprint(), ds.fingerprint());
        assert_eq!(back.record_count(), ds.record_count());
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("smash_day_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("day.smshcols");
        let ds = dataset();
        save_day(&path, &ds).unwrap();
        let back = load_day(&path).unwrap();
        assert_eq!(back.fingerprint(), ds.fingerprint());
        std::fs::remove_file(&path).ok();
    }

    // Truncation, bit flips and length lies: the shared suite in
    // `smash_support::envelope`. These pin how its verdicts surface.

    #[test]
    fn v1_files_fail_closed_with_their_version() {
        // v1 (the pre-envelope layout: magic, version, payload,
        // trailing checksum) kept its version at the same offset, so an
        // old cache is refused by number, not misparsed. v2 and future
        // versions: `tests/day_remine.rs`.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&wire::encode(&dataset()));
        v1.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(parse_day(&v1).unwrap_err(), DayError::Version(1));
    }

    #[test]
    fn foreign_and_damaged_envelopes_are_corrupt() {
        // A serve snapshot is a valid envelope of another format.
        let snapshot = envelope::frame(ckpt::MAGIC, ckpt::FORMAT_VERSION, STAGE, b"x").unwrap();
        assert!(matches!(parse_day(&snapshot), Err(DayError::Corrupt(_))));
        let bytes = frame_day(&dataset());
        assert!(matches!(
            parse_day(&bytes[..bytes.len() - 1]),
            Err(DayError::Corrupt(_))
        ));
        assert!(matches!(parse_day(b""), Err(DayError::Corrupt(_))));
    }

    #[test]
    fn valid_envelope_invalid_payload_rejected() {
        // Checksums clean, but the payload has a trailing byte the wire
        // codec refuses.
        let mut payload = wire::encode(&dataset());
        payload.push(0xAB);
        let bytes = envelope::frame(MAGIC, VERSION, STAGE, &payload).unwrap();
        assert!(matches!(parse_day(&bytes), Err(DayError::Corrupt(_))));
    }

    #[test]
    fn structurally_lying_payload_is_invalid() {
        // Checksums clean and decodes clean, but the last posting cell
        // (b.com's referrer, a.com = id 0) points past the server
        // table: `validate` is the last line of defence.
        let ds = TraceDataset::from_records(vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/").with_referrer("b.com"),
            HttpRecord::new(1, "c", "b.com", "1.1.1.2", "/").with_referrer("a.com"),
        ]);
        let mut payload = wire::encode(&ds);
        let last = payload.len() - 4;
        payload[last..].copy_from_slice(&u32::MAX.to_le_bytes());
        let bytes = envelope::frame(MAGIC, VERSION, STAGE, &payload).unwrap();
        assert!(matches!(parse_day(&bytes), Err(DayError::Invalid(_))));
    }

    #[test]
    fn sniffer_detects_day_files() {
        assert!(is_day_file(&frame_day(&dataset())));
        assert!(!is_day_file(b"{\"timestamp\":0}"));
        assert!(!is_day_file(b"SMSH"));
    }
}
