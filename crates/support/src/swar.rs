//! Word-at-a-time byte search in safe code: eight bytes are loaded as
//! one little-endian `u64` and tested together with carry arithmetic
//! ("SIMD within a register"). The JSONL reader frames lines with it,
//! and the JSON parser finds where a string's plain run ends with it
//! (DESIGN.md §12.1).
//!
//! # Example
//!
//! ```
//! use smash_support::swar;
//!
//! let line = b"{\"host\":\"evil.com\"}\n{\"host\":";
//! assert_eq!(swar::position(line, |w| swar::equal(w, b'\n')), Some(19));
//! assert_eq!(swar::position(b"no newline", |w| swar::equal(w, b'\n')), None);
//! ```

/// `0x01` in every byte of a word.
const ONES: u64 = u64::from_le_bytes([0x01; 8]);

/// `0x80` in every byte of a word.
const HIGH: u64 = ONES << 7;

/// Flags the bytes of `word` that are below `n` (at most `0x80`) by
/// setting their high bit. The lowest flag is exact; the borrow out of
/// a flagged byte may flag bytes above it that are not below `n`, never
/// one below it — all a search for the first match needs.
pub fn below(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES * u64::from(n)) & !word & HIGH
}

/// Flags the bytes of `word` equal to `b`, with [`below`]'s guarantee:
/// the lowest flag is exact.
pub fn equal(word: u64, b: u8) -> u64 {
    below(word ^ (ONES * u64::from(b)), 1)
}

/// Where the first byte of `bytes` that `flags` flags is, eight bytes a
/// step. `flags` is handed little-endian words and must flag the first
/// match exactly, as [`below`] and [`equal`] (and any `|` of them) do.
/// The last word is zero-padded and its flags above the input's end are
/// dropped: borrows only run upward, so the padding cannot move a flag
/// inside the input.
pub fn position(bytes: &[u8], flags: impl Fn(u64) -> u64) -> Option<usize> {
    let first = |flagged: u64| flagged.trailing_zeros() as usize / 8;
    let mut words = bytes.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let flagged = flags(u64::from_le_bytes(word.try_into().unwrap_or_default()));
        if flagged != 0 {
            return Some(at + first(flagged));
        }
        at += 8;
    }
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last.get_mut(..tail.len())?.copy_from_slice(tail);
    // The tail is under eight bytes, so the shift is under 64.
    let live = (1u64 << (8 * tail.len())) - 1;
    let flagged = flags(u64::from_le_bytes(last)) & live;
    (flagged != 0).then(|| at + first(flagged))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{cases, Gen};

    /// Bytes drawn to put every kind of byte at every offset mod 8:
    /// the needles, bytes just above and below the control range, and
    /// bytes ≥ 0x80.
    fn bytes(g: &mut Gen) -> Vec<u8> {
        const MIX: &[u8] = b"\n\r\"\\\x00\x1f\x20\x21\x7f\x80\xff\xc3\xa9ab";
        g.vec(0..=40usize, |g| *g.pick(MIX))
    }

    #[test]
    fn equal_finds_what_a_bytewise_scan_finds() {
        cases(512).run(bytes, |input: &Vec<u8>| {
            for needle in [b'\n', b'"', b'\\', 0x00, 0x80, 0xff] {
                assert_eq!(
                    position(input, |w| equal(w, needle)),
                    input.iter().position(|&b| b == needle),
                    "needle {needle:#04x}"
                );
            }
        });
    }

    #[test]
    fn below_finds_what_a_bytewise_scan_finds() {
        cases(512).run(bytes, |input: &Vec<u8>| {
            for n in [1u8, 0x20, 0x21, 0x80] {
                assert_eq!(
                    position(input, |w| below(w, n)),
                    input.iter().position(|&b| b < n),
                    "below {n:#04x}"
                );
            }
        });
    }
}
