//! The one checksummed envelope behind every binary file SMASH writes
//! (DESIGN.md §9.1).
//!
//! Checkpoint snapshots, the serve layer's epoch WAL and published
//! snapshot (`SMSHCKPT`, through [`crate::ckpt`]) and preprocessed days
//! (`SMSHCOLS`, through `smash-trace::day`) are the same frame around
//! different payloads. The magic and the version are arguments; the
//! layout, the validation order, and the fail-closed stance live here:
//!
//! ```text
//! offset  size  field
//! 0       8     magic
//! 8       4     format version, u32 LE
//! 12      2     stage-name length, u16 LE
//! 14      n     stage name, UTF-8
//! 14+n    8     payload length, u64 LE
//! 22+n    8     FNV-1a checksum, u64 LE  (over version ‖ stage ‖ payload)
//! 30+n    …     payload bytes
//! ```
//!
//! The checksum covers the version and stage name too, so a file
//! renamed to the wrong stage — or rewritten by a different format
//! version — fails exactly like a bit flip. [`parse`] checks, in order:
//! magic, version (so a reader can always say *which* writer produced a
//! file it refuses), stage name, declared payload length against the
//! bytes present, checksum. Nothing panics on untrusted bytes or is
//! parsed best-effort: the payload comes back (borrowed, never copied)
//! only when every check passed.

use crate::ckpt::Fnv1a;
use crate::wire::Reader;
use std::fmt;

/// Why bytes were refused as an envelope. Carriers map this onto their
/// own error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Wrong magic, truncated header, a payload length that disagrees
    /// with the bytes present, or a checksum mismatch.
    Corrupt(String),
    /// The magic matched but the file carries this format version, not
    /// the one the reader speaks.
    Version(u32),
    /// A well-formed frame for another stage (the name it carries).
    Stage(String),
}

impl fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnvelopeError::Corrupt(m) => f.write_str(m),
            EnvelopeError::Version(v) => write!(f, "format version {v}"),
            EnvelopeError::Stage(s) => write!(f, "frame is for stage `{s}`"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

fn checksum(version: u32, stage: &[u8], payload: &[u8]) -> u64 {
    let mut sum = Fnv1a::new();
    sum.write(&version.to_le_bytes());
    sum.write(stage);
    sum.write(payload);
    sum.finish()
}

/// Frames `payload` for `stage` under the given magic and version.
///
/// # Errors
///
/// [`EnvelopeError::Corrupt`] if the stage name cannot be framed
/// (longer than `u16::MAX` bytes).
pub fn frame(
    magic: &[u8; 8],
    version: u32,
    stage: &str,
    payload: &[u8],
) -> Result<Vec<u8>, EnvelopeError> {
    let stage_len = u16::try_from(stage.len())
        .map_err(|_| EnvelopeError::Corrupt(format!("stage name `{stage}` too long to frame")))?;
    let mut buf = Vec::with_capacity(30 + stage.len() + payload.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&stage_len.to_le_bytes());
    buf.extend_from_slice(stage.as_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(&checksum(version, stage.as_bytes(), payload).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Validates `bytes` as a `magic`/`version` envelope for `stage` and
/// returns the payload, borrowed from `bytes`.
///
/// # Errors
///
/// [`EnvelopeError::Corrupt`] on any framing or checksum violation,
/// [`EnvelopeError::Version`] / [`EnvelopeError::Stage`] when the frame
/// is for another format version or stage.
pub fn parse<'a>(
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    stage: &str,
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
) -> Result<&'a [u8], EnvelopeError> {
    let rest = bytes
        .strip_prefix(magic.as_slice())
        .ok_or_else(|| EnvelopeError::Corrupt("bad magic (not this kind of file)".to_owned()))?;
    let mut r = Reader::new(rest);
    let truncated = |what: &str| EnvelopeError::Corrupt(format!("truncated header ({what})"));
    let found = u32::from_le_bytes(r.array().map_err(|_| truncated("version"))?);
    if found != version {
        return Err(EnvelopeError::Version(found));
    }
    let stage_len = u16::from_le_bytes(r.array().map_err(|_| truncated("stage length"))?);
    let stage_bytes = r
        .take(usize::from(stage_len))
        .map_err(|_| truncated("stage name"))?;
    let found_stage = std::str::from_utf8(stage_bytes)
        .map_err(|_| EnvelopeError::Corrupt("stage name is not UTF-8".to_owned()))?;
    if found_stage != stage {
        return Err(EnvelopeError::Stage(found_stage.to_owned()));
    }
    let declared_len = u64::from_le_bytes(r.array().map_err(|_| truncated("payload length"))?);
    let declared_sum = u64::from_le_bytes(r.array().map_err(|_| truncated("checksum"))?);
    let payload = r.take(r.remaining()).map_err(|_| truncated("payload"))?;
    if payload.len() as u64 != declared_len {
        return Err(EnvelopeError::Corrupt(format!(
            "payload is {} bytes, header declares {declared_len}",
            payload.len()
        )));
    }
    if checksum(version, stage_bytes, payload) != declared_sum {
        return Err(EnvelopeError::Corrupt("checksum mismatch".to_owned()));
    }
    Ok(payload)
}

/// Whether `bytes` open with `magic` — lets a loader tell one format
/// from another by content before committing to a full [`parse`].
pub fn has_magic(bytes: &[u8], magic: &[u8; 8]) -> bool {
    bytes.starts_with(magic)
}

#[cfg(test)]
mod tests {
    //! The workspace's one envelope fuzz suite: every format framed
    //! through this module inherits these guarantees, so `ckpt`, `day`,
    //! and the serve layer test only what is specific to them.

    use super::*;
    use crate::check::{cases, Gen, Shrink};

    const MAGIC: &[u8; 8] = b"SMSHTEST";
    const VERSION: u32 = 7;
    const PAYLOAD: &[u8] = b"payload-bytes-under-test";

    fn good() -> Vec<u8> {
        frame(MAGIC, VERSION, "s/1", PAYLOAD).expect("frame")
    }

    #[test]
    fn round_trip_borrows_the_payload() {
        let bytes = good();
        let payload = parse(&bytes, MAGIC, VERSION, "s/1").expect("parse");
        assert_eq!(payload, PAYLOAD);
        let tail = &bytes[bytes.len() - PAYLOAD.len()..];
        assert!(std::ptr::eq(payload, tail), "payload was copied");
        let empty = frame(MAGIC, VERSION, "", b"").expect("frame");
        assert_eq!(parse(&empty, MAGIC, VERSION, ""), Ok(&b""[..]));
        assert!(has_magic(&bytes, MAGIC) && !has_magic(&bytes, b"SMSHELSE"));
        assert!(!has_magic(b"SMSH", MAGIC));
    }

    #[test]
    fn every_truncation_and_flipped_bit_is_rejected() {
        let bytes = good();
        for len in 0..bytes.len() {
            assert!(
                parse(&bytes[..len], MAGIC, VERSION, "s/1").is_err(),
                "truncation to {len} accepted"
            );
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[len] ^= 1 << bit;
                assert!(
                    parse(&bad, MAGIC, VERSION, "s/1").is_err(),
                    "flip of bit {bit} at byte {len} went undetected"
                );
            }
        }
    }

    #[test]
    fn wrong_magic_version_and_stage_are_typed() {
        let bytes = good();
        assert!(matches!(
            parse(&bytes, b"SMSHELSE", VERSION, "s/1"),
            Err(EnvelopeError::Corrupt(m)) if m.contains("magic")
        ));
        assert!(parse(b"", MAGIC, VERSION, "s/1").is_err());
        // A frame valid in every other respect — checksummed for the
        // version it carries — is refused with that version, older or
        // newer, before anything behind the version field is trusted.
        for other in [VERSION - 1, VERSION + 1] {
            let foreign = frame(MAGIC, other, "s/1", PAYLOAD).expect("frame");
            assert_eq!(
                parse(&foreign, MAGIC, VERSION, "s/1"),
                Err(EnvelopeError::Version(other))
            );
        }
        assert_eq!(
            parse(&bytes, MAGIC, VERSION, "s/2"),
            Err(EnvelopeError::Stage("s/1".to_owned()))
        );
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        assert!(matches!(
            frame(MAGIC, VERSION, &long, b""),
            Err(EnvelopeError::Corrupt(_))
        ));
    }

    #[test]
    fn length_lies_are_rejected() {
        // Trailing bytes after a valid frame, and a header that
        // declares more or fewer bytes than follow it.
        let mut padded = good();
        padded.push(0);
        assert!(parse(&padded, MAGIC, VERSION, "s/1").is_err());
        let len_at = 8 + 4 + 2 + "s/1".len();
        let len = PAYLOAD.len() as u64;
        for lie in [0, len - 1, len + 1, u64::MAX] {
            let mut bad = good();
            bad[len_at..len_at + 8].copy_from_slice(&lie.to_le_bytes());
            assert!(matches!(
                parse(&bad, MAGIC, VERSION, "s/1"),
                Err(EnvelopeError::Corrupt(m)) if m.contains("declares")
            ));
        }
    }

    /// Arbitrary bytes fed straight to the parser. No shrinking: every
    /// case is cheap and the seed replays it exactly.
    #[derive(Debug, Clone)]
    struct Hostile(Vec<u8>);
    impl Shrink for Hostile {}

    #[test]
    fn arbitrary_bytes_never_panic_and_never_parse() {
        cases(512).run(
            |g: &mut Gen| {
                let len = g.range(0..512usize);
                let mut bytes = g.vec(len..=len, |g| g.range(0..=255u32) as u8);
                // Half the cases get a valid magic (and some of those a
                // valid version) so the parser reaches the stage,
                // length, and checksum layers instead of bailing at
                // byte 0.
                if g.bool(0.5) {
                    let mut head = MAGIC.to_vec();
                    if g.bool(0.5) {
                        head.extend_from_slice(&VERSION.to_le_bytes());
                    }
                    for (slot, b) in bytes.iter_mut().zip(head) {
                        *slot = b;
                    }
                }
                Hostile(bytes)
            },
            |case: &Hostile| {
                assert!(parse(&case.0, MAGIC, VERSION, "s/1").is_err());
            },
        );
    }
}
