//! The one checksummed envelope behind every binary file SMASH writes
//! (DESIGN.md §9.1).
//!
//! The serve layer's epoch WAL and published snapshot (`SMSHCKPT`,
//! through [`crate::ckpt`]) and preprocessed days
//! (`SMSHCOLS`, through `smash-trace::day`) are the same frame around
//! different payloads. The magic and the version are arguments; the
//! layout, the checksum, the validation order, and the fail-closed
//! stance live here:
//!
//! ```text
//! offset  size  field
//! 0       8     magic
//! 8       4     format version, u32 LE
//! 12      2     stage-name length, u16 LE
//! 14      n     stage name, UTF-8
//! 14+n    8     payload length, u64 LE
//! 22+n    8     checksum, u64 LE  (of version ‖ stage ‖ length ‖ payload)
//! 30+n    …     payload bytes
//! ```
//!
//! # The checksum
//!
//! One step folds a 64-bit word `w` into a state `h`:
//! `step(h, w) = rotl((h ^ w) · P, 31)` with `P` odd — a bijection of
//! `h` for a fixed `w` and of `w` for a fixed `h`. The payload is read
//! as little-endian words dealt round-robin to four independent
//! states, so the multiplies of one 32-byte block overlap instead of
//! waiting on each other (a byte-serial FNV-1a is one multiply per
//! *byte*, ≈ 0.75 GB/s; this runs at memory speed):
//!
//! ```text
//! seed    = FNV-1a(version ‖ stage ‖ payload length)
//! lane[i] = step(seed, i + 1)                  i in 0..4
//! lane[k mod 4] = step(lane[k mod 4], word k)  every whole word, in order
//! sum     = seed;  sum = step(sum, lane[i])    i in 0..4, in order
//! sum     = step(sum, tail)                    the < 8 last bytes, zero-padded
//! ```
//!
//! What that detects *by construction*: any change confined to one word
//! (every single-bit flip included) changes that word's lane at its
//! step, every later step of the lane is a bijection of the state, and
//! the fold is a bijection of each lane — so the sum differs. The
//! payload length is in the seed and the header, so no truncation or
//! extension can verify, and zero-padding the tail is unambiguous. A
//! file renamed to the wrong stage or rewritten under another version
//! starts from another seed. Changes spanning several words (two words
//! swapped, within a lane or across lanes) are caught because the lanes
//! start from different states and a step does not commute with
//! another — with the 2⁻⁶⁴ odds of any 64-bit sum, not a guarantee; the
//! test suite checks every swap over every payload length to 130. The
//! checksum detects rot and mix-ups, not adversaries: it is unkeyed, so
//! decoders behind it stay total ([`crate::wire`]).
//!
//! [`parse_with`] checks, in order: magic, version (so a reader can
//! always say *which* writer produced a file it refuses), stage name,
//! declared payload length against the bytes present, checksum. The
//! caller's decode of the payload runs on the caller's thread beside the
//! checksum ([`par::join`]), so a large payload costs the longer of the
//! two rather than their sum; the checksum's verdict still comes first,
//! and a decode result is handed back only when every check passed. The
//! decoders behind it are total, so decoding bytes a moment before they
//! verify can neither panic nor over-allocate. [`parse`] is the same
//! entry with an identity decode: the payload comes back borrowed,
//! never copied. Nothing panics on untrusted bytes or is parsed
//! best-effort. [`frame_with`] is the one writer: the caller serializes
//! straight into the frame, so a payload is never held twice.

use crate::ckpt::Fnv1a;
use crate::par;
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

/// Independent checksum states; a block is `LANES` words.
const LANES: usize = 4;

/// Bytes of a frame before the stage name and the payload: magic,
/// version, stage length, payload length, checksum.
pub const HEADER_BYTES: usize = 8 + 4 + 2 + 8 + 8;

fn step(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

/// The envelope checksum (module docs: definition and what it detects).
fn checksum(version: u32, stage: &[u8], payload: &[u8]) -> u64 {
    let mut seed = Fnv1a::new();
    seed.write(&version.to_le_bytes());
    seed.write(stage);
    seed.write_u64(payload.len() as u64);
    let seed = seed.finish();
    let mut lanes: [u64; LANES] = std::array::from_fn(|i| step(seed, i as u64 + 1));
    let (blocks, rest) = payload.as_chunks::<{ 8 * LANES }>();
    for block in blocks {
        for (lane, word) in lanes.iter_mut().zip(block.as_chunks().0) {
            *lane = step(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, tail_bytes) = rest.as_chunks();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = step(*lane, u64::from_le_bytes(*word));
    }
    let mut tail = [0u8; 8];
    for (slot, &byte) in tail.iter_mut().zip(tail_bytes) {
        *slot = byte;
    }
    let sum = lanes.into_iter().fold(seed, step);
    step(sum, u64::from_le_bytes(tail))
}

/// Frames whatever `write_payload` appends to the buffer it is handed:
/// the header goes in first with its length and checksum fields blank,
/// the caller serializes straight behind it, and the two fields are
/// patched once the payload is there — one buffer, one copy of the
/// payload, ever. `write_payload` must only append.
///
/// # Errors
///
/// [`EnvelopeError::Corrupt`] if the stage name cannot be framed
/// (longer than `u16::MAX` bytes).
pub fn frame_with(
    magic: &[u8; 8],
    version: u32,
    stage: &str,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Result<Vec<u8>, EnvelopeError> {
    let stage_len = u16::try_from(stage.len())
        .map_err(|_| EnvelopeError::Corrupt(format!("stage name `{stage}` too long to frame")))?;
    let mut buf = Vec::with_capacity(HEADER_BYTES + stage.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.extend_from_slice(&stage_len.to_le_bytes());
    buf.extend_from_slice(stage.as_bytes());
    let fields_at = buf.len();
    buf.extend_from_slice(&[0u8; 16]);
    write_payload(&mut buf);
    let (header, payload) = buf.split_at_mut(fields_at + 16);
    let sum = checksum(version, stage.as_bytes(), payload);
    let (_, fields) = header.split_at_mut(fields_at);
    let (len_field, sum_field) = fields.split_at_mut(8);
    len_field.copy_from_slice(&(payload.len() as u64).to_le_bytes());
    sum_field.copy_from_slice(&sum.to_le_bytes());
    Ok(buf)
}

/// Frames an already-serialized `payload` ([`frame_with`] for callers
/// that hold the bytes anyway).
///
/// # Errors
///
/// As [`frame_with`].
pub fn frame(
    magic: &[u8; 8],
    version: u32,
    stage: &str,
    payload: &[u8],
) -> Result<Vec<u8>, EnvelopeError> {
    frame_with(magic, version, stage, |out| out.extend_from_slice(payload))
}

/// Validates `bytes` as a `magic`/`version` envelope for `stage` and
/// returns the payload, borrowed from `bytes` ([`parse_with`] with an
/// identity decode).
///
/// # Errors
///
/// As [`parse_with`].
pub fn parse<'a>(
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    stage: &str,
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
) -> Result<&'a [u8], EnvelopeError> {
    parse_with(bytes, magic, version, stage, |payload| payload)
}

/// Validates `bytes` as a `magic`/`version` envelope for `stage` and
/// returns `decode` of its payload, run on the caller's thread while
/// the checksum runs beside it. `decode` sees the payload once the
/// header checks have passed and before the checksum has: it must be
/// total on arbitrary bytes. Its result is dropped unless the checksum
/// verifies.
///
/// # Errors
///
/// [`EnvelopeError::Corrupt`] on any framing or checksum violation,
/// [`EnvelopeError::Version`] / [`EnvelopeError::Stage`] when the frame
/// is for another format version or stage.
pub fn parse_with<'a, T>(
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    bytes: &'a [u8],
    magic: &[u8; 8],
    version: u32,
    stage: &str,
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    decode: impl FnOnce(&'a [u8]) -> T,
) -> Result<T, EnvelopeError> {
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
    // The decode on the caller's thread, where its allocations belong;
    // the checksum allocates nothing.
    let (decoded, sum) = par::join(
        || decode(payload),
        || checksum(version, stage_bytes, payload),
    );
    if sum != declared_sum {
        return Err(EnvelopeError::Corrupt("checksum mismatch".to_owned()));
    }
    Ok(decoded)
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

    /// A payload of `len` bytes, no two 8-byte words alike.
    fn payload_of(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 151 + i / 8 * 7 + 3) as u8).collect()
    }

    #[test]
    fn every_truncation_and_flipped_bit_is_rejected() {
        // Payload lengths 0..=130 cross every lane, block and tail
        // boundary of the checksum (8-byte words, 32-byte blocks).
        for payload_len in 0..=130 {
            let payload = payload_of(payload_len);
            let bytes = frame(MAGIC, VERSION, "s/1", &payload).expect("frame");
            assert_eq!(parse(&bytes, MAGIC, VERSION, "s/1"), Ok(&payload[..]));
            for len in 0..bytes.len() {
                assert!(
                    parse(&bytes[..len], MAGIC, VERSION, "s/1").is_err(),
                    "payload {payload_len}: truncation to {len} accepted"
                );
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[len] ^= 1 << bit;
                    assert!(
                        parse(&bad, MAGIC, VERSION, "s/1").is_err(),
                        "payload {payload_len}: flip of bit {bit} at byte {len} went undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn swapping_any_two_words_is_detected() {
        // Within a lane, across lanes, across blocks, into the ragged
        // last block: a step does not commute with another and the
        // lanes start apart, so no reordering of words verifies.
        for payload_len in 16..=130 {
            let bytes = frame(MAGIC, VERSION, "s/1", &payload_of(payload_len)).expect("frame");
            let at = bytes.len() - payload_len;
            let words = payload_len / 8;
            for a in 0..words {
                for b in a + 1..words {
                    let mut bad = bytes.clone();
                    for k in 0..8 {
                        bad.swap(at + a * 8 + k, at + b * 8 + k);
                    }
                    assert_ne!(bad, bytes, "payload_of repeats a word");
                    assert!(
                        parse(&bad, MAGIC, VERSION, "s/1").is_err(),
                        "payload {payload_len}: words {a} and {b} swapped undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn parse_with_hands_back_the_decode_only_under_a_good_checksum() {
        let decode = |payload: &[u8]| payload.len();
        assert_eq!(
            parse_with(&good(), MAGIC, VERSION, "s/1", decode),
            Ok(PAYLOAD.len())
        );
        // The decode runs, but a stale checksum is the verdict …
        let mut stale = good();
        let last = stale.len() - 1;
        stale[last] ^= 1;
        let ran = std::sync::atomic::AtomicBool::new(false);
        let verdict = parse_with(&stale, MAGIC, VERSION, "s/1", |payload| {
            ran.store(true, std::sync::atomic::Ordering::SeqCst);
            payload.len()
        });
        assert_eq!(
            verdict,
            Err(EnvelopeError::Corrupt("checksum mismatch".to_owned()))
        );
        assert!(ran.into_inner());
        // … and a header that fails never reaches it.
        let never = |_: &[u8]| -> usize { panic!("decoded a frame whose header failed") };
        assert!(parse_with(&stale[..20], MAGIC, VERSION, "s/1", never).is_err());
        assert_eq!(
            parse_with(&good(), MAGIC, VERSION, "s/2", never),
            Err(EnvelopeError::Stage("s/1".to_owned()))
        );
    }

    #[test]
    fn in_place_framing_is_the_same_frame() {
        let written = frame_with(MAGIC, VERSION, "s/1", |out| {
            out.extend_from_slice(&PAYLOAD[..5]);
            out.extend_from_slice(&PAYLOAD[5..]);
        });
        assert_eq!(written, Ok(good()));
        assert_eq!(good().len(), HEADER_BYTES + "s/1".len() + PAYLOAD.len());
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
