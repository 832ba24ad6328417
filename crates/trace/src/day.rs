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
//! A load keeps two threads busy ([`smash_support::par`]; DESIGN.md
//! §12.4): [`read_day`] reads the file's two halves side by side, and
//! [`parse_day`] decodes the payload's record columns on the calling
//! thread while its other sections and the envelope checksum run beside
//! them. Neither changes a verdict: every bad file is refused with the
//! error the one-thread path gives.
//!
//! Version policy: readers accept exactly [`VERSION`]; any other is
//! [`DayError::Version`] carrying the number the file held, never a
//! best-effort parse. Layout changes bump the version (v1 was a
//! hand-rolled frame with a trailing checksum, v2 the shared envelope
//! under a byte-serial checksum, v3 v2's payload, byte for byte, under
//! the envelope's word-wise checksum; v4 drops v3's raw-host table and
//! column and its server keys, which are derived from the server names)
//! and same-version additions are forbidden (the wire codec rejects
//! trailing bytes). A day file is a regenerable cache: an older one is
//! refused by number and `smash preprocess` writes it again.

use crate::dataset::TraceDataset;
use smash_support::ckpt;
use smash_support::envelope::{self, EnvelopeError};
use smash_support::par;
use smash_support::wire::ToWire;
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

/// Magic prefix of every day file.
pub const MAGIC: &[u8; 8] = b"SMSHCOLS";

/// Current (and only) layout version this reader/writer speaks.
pub const VERSION: u32 = 4;

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
/// envelope (magic, version, checksum) and every dataset invariant. The
/// payload decodes beside its checksum
/// ([`envelope::parse_with`]); a checksum mismatch is the verdict even
/// when the payload would not have decoded either.
pub fn parse_day(bytes: &[u8]) -> Result<TraceDataset, DayError> {
    let decoded = envelope::parse_with(bytes, MAGIC, VERSION, STAGE, TraceDataset::from_payload)
        .map_err(|e| match e {
            EnvelopeError::Version(v) => DayError::Version(v),
            other => DayError::Corrupt(other.to_string()),
        })?;
    let ds = decoded.map_err(|e| DayError::Corrupt(format!("payload: {}", e.0)))?;
    ds.validate().map_err(DayError::Invalid)?;
    Ok(ds)
}

/// Writes a preprocessed day to `path` atomically (tmp + rename, like
/// the serve WAL and snapshot), so a crash mid-write never leaves a torn
/// file.
pub fn save_day(path: &Path, ds: &TraceDataset) -> Result<(), DayError> {
    ckpt::write_atomic(path, &frame_day(ds)).map_err(|e| DayError::Io(e.to_string()))
}

/// Loads a day written by [`save_day`], rejecting anything corrupt:
/// [`read_day`] then [`parse_day`].
pub fn load_day(path: &Path) -> Result<TraceDataset, DayError> {
    parse_day(&read_day(path)?)
}

/// Reads a day file's bytes — what `std::fs::read` returns, read as two
/// halves side by side ([`par::join`]), each through a `File` of its
/// own, into one zeroed buffer whose pages fault on both threads. A
/// file that is not the length its metadata said by the time it is read
/// gets exactly `std::fs::read`'s bytes. Anything but a regular file
/// (a pipe has no length and cannot seek) is read in one piece.
pub fn read_day(path: &Path) -> Result<Vec<u8>, DayError> {
    let read = || -> io::Result<Vec<u8>> {
        let mut file = File::open(path)?;
        let meta = file.metadata()?;
        match usize::try_from(meta.len()) {
            Ok(len) if meta.is_file() => read_halves(file, path, len),
            _ => {
                let mut bytes = Vec::new();
                file.read_to_end(&mut bytes)?;
                Ok(bytes)
            }
        }
    };
    read().map_err(|e| DayError::Io(format!("{}: {e}", path.display())))
}

/// [`read_day`]'s split read of a file opened as `head` and expected to
/// be `len` bytes long.
fn read_halves(mut head: File, path: &Path, len: usize) -> io::Result<Vec<u8>> {
    // `vec!` aborts on a length the allocator refuses, where `fs::read`
    // returns the error: ask first.
    Vec::<u8>::new().try_reserve_exact(len)?;
    let mut bytes = vec![0u8; len];
    let half = len / 2;
    let (front, back) = bytes.split_at_mut(half);
    let (front_read, back_read) = par::join(
        || head.read_exact(front),
        || -> io::Result<Vec<u8>> {
            let mut tail = File::open(path)?;
            tail.seek(SeekFrom::Start(half as u64))?;
            tail.read_exact(back)?;
            // Whatever follows the expected end: the file grew.
            let mut grown = Vec::new();
            tail.read_to_end(&mut grown)?;
            Ok(grown)
        },
    );
    match front_read.and(back_read) {
        Ok(grown) => {
            bytes.extend_from_slice(&grown);
            Ok(bytes)
        }
        // The file shrank under the read: take what is there now.
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => std::fs::read(path),
        Err(e) => Err(e),
    }
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
    use smash_support::wire;

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

    #[test]
    fn a_split_read_returns_what_fs_read_does_whatever_the_length_said() {
        let dir = std::env::temp_dir().join(format!("smash_day_split_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bytes");
        for len in [0usize, 1, 2, 7, 4096, 100_001] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            std::fs::write(&path, &bytes).unwrap();
            // Told the truth, and told the file is shorter or longer
            // than it is — it grew or shrank after its metadata was read.
            for said in [len, len.saturating_sub(3), len + 5, len / 2] {
                let file = File::open(&path).unwrap();
                let read = read_halves(file, &path, said).unwrap();
                assert!(read == bytes, "{len}-byte file read as if {said}");
            }
        }
        assert_eq!(read_day(&path).unwrap().len(), 100_001);
        // A length no allocation can back is an error, as from
        // `fs::read`, not an abort.
        let file = File::open(&path).unwrap();
        assert!(read_halves(file, &path, usize::MAX).is_err());
        let missing = read_day(&dir.join("missing")).unwrap_err();
        assert!(matches!(missing, DayError::Io(m) if m.contains("missing")));
        std::fs::remove_dir_all(&dir).ok();
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
