//! `SMSHCOLS`: the on-disk day format (DESIGN.md §12.4).
//!
//! A *day file* is one preprocessed [`TraceDataset`] — its symbol
//! tables and column arena — as its 19 wire sections, each in its own
//! frame of the workspace's checksummed envelope
//! ([`smash_support::envelope`]) under the day magic and version and
//! the section's stage name ([`STAGES`]), back to back. Concatenated,
//! the payloads are the dataset's wire form. The postings are not
//! stored: they are a function of the columns, and every load builds
//! them the way every append does. This module owns only the order of
//! the frames and of the verdicts.
//!
//! Write once with [`save_day`] (`smash preprocess`), re-mine as often
//! as thresholds change with [`load_day`]. One frame writer serves
//! [`save_day`] and [`frame_day`], one frame reader [`load_day`] and
//! [`parse_day`], a section at a time: a save or a load holds the arena
//! plus one frame, never the arena plus the whole file. Every load is
//! total: bad bytes produce a [`DayError`], never a panic or an
//! allocation on a header's say-so; each section decodes beside its
//! checksum, whose verdict comes first; the first failing frame in file
//! order is the file's verdict; and a day whose frames all verify still
//! passes [`TraceDataset::validate`] before its postings are built and
//! the miner sees it.
//!
//! Version policy: readers accept exactly [`VERSION`]; any other is
//! [`DayError::Version`] carrying the number the file held, never a
//! best-effort parse. Layout changes bump the version (v1 was a
//! hand-rolled frame with a trailing checksum, v2 the shared envelope
//! under a byte-serial checksum, v3 v2's payload under the envelope's
//! word-wise checksum, v4 v3 less the raw hosts and the server keys,
//! v5 v4's payload framed a section at a time, v6 v5 less the five
//! posting tables) and same-version
//! additions are forbidden (the wire codec rejects trailing bytes). A
//! day file is a regenerable cache: an older one is refused by number
//! and `smash preprocess` writes it again.

use crate::dataset::{assemble, TraceDataset, SECTIONS};
use smash_support::ckpt;
use smash_support::envelope::{self, EnvelopeError};
use std::fmt;
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::Path;

/// Magic prefix of every frame of a day file.
pub const MAGIC: &[u8; 8] = b"SMSHCOLS";

/// Current (and only) layout version this reader/writer speaks.
pub const VERSION: u32 = 6;

/// The envelope stage name of each section's frame, in file (= wire)
/// order: the seven symbol tables, the twelve record columns. A frame
/// in another section's place is refused by it.
#[rustfmt::skip]
pub const STAGES: [&str; 19] = [
    "clients", "servers", "ips", "files", "paths", "params", "agents",
    "col/time", "col/client", "col/server", "col/ip", "col/file", "col/path",
    "col/param", "col/agent", "col/referrer", "col/status", "col/size", "col/redirect",
];

/// Why a day file could not be written or loaded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DayError {
    /// Filesystem failure reading or writing the file.
    Io(String),
    /// Not a day file, or one whose frames or sections do not verify
    /// (bad magic, truncation, checksum mismatch, undecodable).
    Corrupt(String),
    /// The file's version field is one this reader does not speak.
    Version(u32),
    /// The sections decoded but violate a dataset invariant.
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

/// The frames of a day file, one section at a time: each section
/// serialized straight into its own frame.
fn frames(ds: &TraceDataset) -> impl Iterator<Item = Vec<u8>> + '_ {
    ds.wire_sections().zip(STAGES).map(|(section, stage)| {
        envelope::frame_with(MAGIC, VERSION, stage, |out| section.wire(out))
            .expect("the constant stage names always frame")
    })
}

/// Frames a dataset into `SMSHCOLS` bytes: its sections' frames, back
/// to back.
pub fn frame_day(ds: &TraceDataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    for frame in frames(ds) {
        bytes.extend_from_slice(&frame);
    }
    bytes
}

/// Parses `SMSHCOLS` bytes back into a dataset, verifying every frame
/// (magic, version, stage, length, checksum) and every dataset
/// invariant: the frame reader over the slice.
pub fn parse_day(bytes: &[u8]) -> Result<TraceDataset, DayError> {
    read_frames(bytes, bytes.len() as u64)
}

/// Writes a preprocessed day to `path` atomically (tmp + rename, like
/// the serve WAL and snapshot), so a crash mid-write never leaves a torn
/// file. The frames stream into the temp file one section at a time.
pub fn save_day(path: &Path, ds: &TraceDataset) -> Result<(), DayError> {
    ckpt::write_atomic_with(path, |out| {
        frames(ds).try_for_each(|frame| out.write_all(&frame))
    })
    .map_err(|e| DayError::Io(e.to_string()))
}

/// Loads a day written by [`save_day`], rejecting anything corrupt: the
/// frame reader over the file, bounded by the length its metadata gives
/// — or, for what has none (a pipe), by what it holds.
pub fn load_day(path: &Path) -> Result<TraceDataset, DayError> {
    let at_path = |e: String| DayError::Io(format!("{}: {e}", path.display()));
    let file = File::open(path).map_err(|e| at_path(e.to_string()))?;
    let meta = file.metadata().map_err(|e| at_path(e.to_string()))?;
    let len = if meta.is_file() { meta.len() } else { u64::MAX };
    read_frames(file, len).map_err(|e| match e {
        DayError::Io(e) => at_path(e),
        other => other,
    })
}

/// The frame reader: the 19 sections from `input`, which holds `left`
/// more bytes, each read into one reused buffer and decoded beside its
/// checksum; then the column-length check, trailing bytes, and
/// [`TraceDataset::validate`]; then the postings, built from the
/// columns that passed. Nothing is returned before every check has
/// passed, and the first failure in file order is the verdict.
fn read_frames(mut input: impl Read, mut left: u64) -> Result<TraceDataset, DayError> {
    let mut frame = Vec::new();
    let mut sections = Vec::with_capacity(SECTIONS.len());
    for (section, stage) in SECTIONS.into_iter().zip(STAGES) {
        read_frame(&mut input, &mut left, stage, &mut frame)?;
        let decoded =
            envelope::parse_with(&frame, MAGIC, VERSION, stage, |p| section.decode_all(p))
                .map_err(|e| refused(stage, e))?
                .map_err(|e| corrupt(stage, e.0))?;
        sections.push(decoded);
    }
    drop(frame);
    let mut ds = assemble(sections.into_iter().map(Ok)).map_err(|e| DayError::Corrupt(e.0))?;
    let trailing =
        io::copy(&mut input, &mut io::sink()).map_err(|e| DayError::Io(e.to_string()))?;
    if trailing > 0 {
        return Err(DayError::Corrupt(format!(
            "{trailing} trailing byte(s) after the last section"
        )));
    }
    ds.validate().map_err(DayError::Invalid)?;
    ds.build_postings();
    Ok(ds)
}

/// Reads the next frame, `stage`'s, into `frame`: first its header, then
/// — once the header is this section's and the payload length it
/// declares fits in the `left` bytes — the payload. A header that is
/// not this section's (another magic, version or stage) or is cut short
/// gets the envelope's verdict on it, before anything is allocated on
/// its say-so.
fn read_frame(
    input: &mut impl Read,
    left: &mut u64,
    stage: &str,
    frame: &mut Vec<u8>,
) -> Result<(), DayError> {
    // The header of an empty payload: every frame of this section opens
    // with its magic, version and stage, then the length and checksum
    // fields (DESIGN.md §9.1).
    let empty = envelope::frame(MAGIC, VERSION, stage, b"").map_err(|e| refused(stage, e))?;
    let opening = empty.len() - 16;
    frame.clear();
    fill(input, left, empty.len() as u64, frame)?;
    let declared = frame
        .strip_prefix(empty.get(..opening).unwrap_or_default())
        .and_then(<[u8]>::first_chunk)
        .map(|len| u64::from_le_bytes(*len));
    match declared {
        Some(declared) if declared <= *left => fill(input, left, declared, frame),
        Some(declared) => Err(corrupt(
            stage,
            format!("header declares {declared} payload byte(s), {left} follow"),
        )),
        None => Err(match envelope::parse(frame, MAGIC, VERSION, stage) {
            Err(e) => refused(stage, e),
            Ok(_) => corrupt(stage, "unreadable header".to_owned()),
        }),
    }
}

/// Appends up to `n` more bytes of `input` to `frame` — fewer where the
/// input ends first — and counts them off `left`.
fn fill(
    input: &mut impl Read,
    left: &mut u64,
    n: u64,
    frame: &mut Vec<u8>,
) -> Result<(), DayError> {
    let room = usize::try_from(n).unwrap_or(usize::MAX);
    frame
        .try_reserve_exact(room)
        .map_err(|e| DayError::Io(e.to_string()))?;
    let got = input.by_ref().take(n).read_to_end(frame);
    let got = got.map_err(|e| DayError::Io(e.to_string()))?;
    *left = left.saturating_sub(got as u64);
    Ok(())
}

/// A frame the envelope refused: another version by its number,
/// anything else as corruption of `stage`.
fn refused(stage: &str, e: EnvelopeError) -> DayError {
    match e {
        EnvelopeError::Version(v) => DayError::Version(v),
        other => corrupt(stage, other.to_string()),
    }
}

fn corrupt(stage: &str, message: String) -> DayError {
    DayError::Corrupt(format!("{stage}: {message}"))
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

    /// `ds`'s day file with the payload of section `at` rewritten by
    /// `patch` and framed under a fresh (valid) checksum.
    fn with_section(ds: &TraceDataset, at: usize, patch: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut patch = Some(patch);
        let mut bytes = Vec::new();
        for (i, (section, stage)) in ds.wire_sections().zip(STAGES).enumerate() {
            let mut payload = wire::encode(section);
            if i == at {
                (patch.take().unwrap())(&mut payload);
            }
            bytes.extend(envelope::frame(MAGIC, VERSION, stage, &payload).unwrap());
        }
        bytes
    }

    #[test]
    fn frame_parse_round_trip() {
        let ds = dataset();
        let back = parse_day(&frame_day(&ds)).unwrap();
        assert_eq!(back.fingerprint(), ds.fingerprint());
        assert_eq!(back.record_count(), ds.record_count());
    }

    #[test]
    fn the_sections_are_the_wire_form_one_frame_each() {
        let ds = dataset();
        let mut payloads = Vec::new();
        for section in ds.wire_sections() {
            section.wire(&mut payloads);
        }
        assert_eq!(payloads, wire::encode(&ds));
        assert_eq!(ds.wire_sections().count(), STAGES.len());
        assert_eq!(with_section(&ds, STAGES.len(), |_| ()), frame_day(&ds));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join("smash_day_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("day.smshcols");
        let ds = dataset();
        save_day(&path, &ds).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), frame_day(&ds));
        let back = load_day(&path).unwrap();
        assert_eq!(back.fingerprint(), ds.fingerprint());
        std::fs::remove_file(&path).ok();
        let missing = load_day(&dir.join("missing")).unwrap_err();
        assert!(matches!(missing, DayError::Io(m) if m.contains("missing")));
    }

    #[test]
    #[cfg(unix)]
    fn a_day_loads_from_a_pipe_which_has_no_length() {
        let dir = std::env::temp_dir().join(format!("smash_day_pipe_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fifo = dir.join("day.fifo");
        let made = std::process::Command::new("mkfifo").arg(&fifo).status();
        if !made.is_ok_and(|s| s.success()) {
            return; // no `mkfifo` to make one with
        }
        let ds = dataset();
        let bytes = frame_day(&ds);
        let writer = {
            let fifo = fifo.clone();
            std::thread::spawn(move || std::fs::write(fifo, bytes))
        };
        assert_eq!(load_day(&fifo).unwrap().fingerprint(), ds.fingerprint());
        writer.join().unwrap().unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    // Truncation, bit flips and length lies within a frame: the shared
    // suite in `smash_support::envelope`. These pin how its verdicts
    // surface, and what the frame reader adds.

    #[test]
    fn v1_files_fail_closed_with_their_version() {
        // v1 (the pre-envelope layout: magic, version, payload,
        // trailing checksum) kept its version at the same offset, so an
        // old cache is refused by number, not misparsed. v2, v4, v5 and
        // future versions: `tests/day_remine.rs`.
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&wire::encode(&dataset()));
        v1.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(parse_day(&v1).unwrap_err(), DayError::Version(1));
    }

    #[test]
    fn foreign_and_damaged_envelopes_are_corrupt() {
        // A serve snapshot is a valid envelope of another format.
        let snapshot = envelope::frame(ckpt::MAGIC, ckpt::FORMAT_VERSION, STAGES[0], b"x").unwrap();
        assert!(matches!(parse_day(&snapshot), Err(DayError::Corrupt(_))));
        let bytes = frame_day(&dataset());
        assert!(matches!(
            parse_day(&bytes[..bytes.len() - 1]),
            Err(DayError::Corrupt(_))
        ));
        assert!(matches!(parse_day(b""), Err(DayError::Corrupt(_))));
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            parse_day(&padded).unwrap_err(),
            DayError::Corrupt("1 trailing byte(s) after the last section".to_owned())
        );
        // Two sections' frames swapped: refused by the first one's name.
        let len_at = 8 + 4 + 2 + STAGES[0].len();
        let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap());
        let first = envelope::HEADER_BYTES + STAGES[0].len() + len as usize;
        let refused = parse_day(&[&bytes[first..], &bytes[..first]].concat()).unwrap_err();
        assert!(matches!(refused, DayError::Corrupt(m) if m.contains("frame is for stage")));
    }

    #[test]
    fn valid_envelope_invalid_payload_rejected() {
        // The checksum is clean, but the last section's payload has a
        // trailing byte its decoder refuses.
        let bytes = with_section(&dataset(), STAGES.len() - 1, |p| p.push(0xAB));
        assert_eq!(
            parse_day(&bytes).unwrap_err(),
            DayError::Corrupt("col/redirect: 1 trailing byte(s)".to_owned())
        );
    }

    #[test]
    fn structurally_lying_payload_is_invalid() {
        // Checksums clean and decodes clean, but the last record's
        // redirect target points past the two-server table: `validate`
        // is the last line of defence.
        let ds = TraceDataset::from_records(vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/").with_referrer("b.com"),
            HttpRecord::new(1, "c", "b.com", "1.1.1.2", "/").with_referrer("a.com"),
        ]);
        let bytes = with_section(&ds, STAGES.len() - 1, |p| {
            let last = p.len() - 4;
            p[last..].copy_from_slice(&2u32.to_le_bytes());
        });
        assert_eq!(
            parse_day(&bytes).unwrap_err(),
            DayError::Invalid("record 1 has an out-of-range interned id".to_owned())
        );
    }

    #[test]
    fn sniffer_detects_day_files() {
        assert!(is_day_file(&frame_day(&dataset())));
        assert!(!is_day_file(b"{\"timestamp\":0}"));
        assert!(!is_day_file(b"SMSH"));
    }
}
