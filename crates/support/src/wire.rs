//! Compact binary serialization for envelope payloads: the preprocessed
//! day (`smash-trace::day`), the serve WAL and the serve snapshot.
//!
//! A minimal little-endian wire format for the handful of types those
//! files store: fixed-width integers, length-prefixed strings and
//! vectors, nothing self-describing. The envelope
//! around a payload ([`crate::envelope`]) carries the format version
//! and a checksum, so decoders here only ever see bytes that already
//! checksummed clean — but the checksum is not keyed, so a crafted file
//! can hand them anything: every decode is bounds-checked, returns
//! [`WireError`] rather than panicking, and never allocates more than
//! the bytes it was given could encode.
//!
//! Layout rules:
//! - `u16`/`u32`/`u64`: fixed-width little-endian.
//! - `usize`: encoded as `u64`.
//! - `String`: `u64` byte length, then UTF-8 bytes.
//! - `Vec<T>`: `u64` element count, then each element in order. The
//!   elements go through [`ToWire::wire_all`] / [`FromWire::read_all`],
//!   which `u16`/`u32`/`u64` override to move the whole run as one
//!   little-endian slab — same bytes, one bounds check.

use std::fmt;

/// A decode failure: truncated input, an invalid value, or trailing
/// bytes. Carriers map it to their own corruption error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

/// Serializes a value into `out` (infallible — encoding only appends).
pub trait ToWire {
    /// Appends the wire form of `self` to `out`.
    fn wire(&self, out: &mut Vec<u8>);

    /// Appends the wire forms of `items` back to back (no count) — what
    /// a slice writes after its length. Override only to write the
    /// same bytes faster.
    fn wire_all(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.wire(out);
        }
    }
}

/// Deserializes a value from a [`Reader`].
pub trait FromWire: Sized {
    /// Reads one value; must consume exactly its own bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or an invalid encoding.
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Reads `len` values back to back — what a vector reads after its
    /// length. The declared `len` is untrusted: the first allocation is
    /// capped by what the remaining bytes could encode
    /// ([`Reader::capacity_for`]). Override only to read the same bytes
    /// faster.
    ///
    /// # Errors
    ///
    /// [`WireError`] as soon as one element fails to decode.
    fn read_all(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(r.capacity_for::<Self>(len));
        for _ in 0..len {
            out.push(Self::from_wire(r)?);
        }
        Ok(out)
    }
}

/// Encodes a value to a fresh byte vector.
pub fn encode<T: ToWire + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.wire(&mut out);
    out
}

/// Decodes a value, requiring that `bytes` is consumed exactly.
///
/// # Errors
///
/// [`WireError`] on truncation, invalid encodings, or trailing bytes.
pub fn decode<T: FromWire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(bytes);
    let value = T::from_wire(&mut r)?;
    if !r.is_empty() {
        return Err(WireError(format!("{} trailing byte(s)", r.remaining())));
    }
    Ok(value)
}

/// Elements [`wire_pieces`] serializes per piece.
const PIECE: usize = 4096;

/// Hands `sink` the bytes `items.wire(out)` would append — the count,
/// then the elements 4 096 at a time through `buf` — for a consumer
/// (a fingerprint hash) that must not hold the whole wire form.
pub fn wire_pieces<T: ToWire>(items: &[T], buf: &mut Vec<u8>, sink: &mut impl FnMut(&[u8])) {
    buf.clear();
    items.len().wire(buf);
    sink(buf);
    for piece in items.chunks(PIECE) {
        buf.clear();
        T::wire_all(piece, buf);
        sink(buf);
    }
}

/// A bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice for decoding.
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len()
    }

    /// `true` once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Consumes `n` bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] when fewer than `n` bytes remain.
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.bytes.len() < n {
            return Err(WireError(format!(
                "need {n} byte(s), {} remain",
                self.bytes.len()
            )));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    /// Consumes a fixed-size array.
    ///
    /// # Errors
    ///
    /// [`WireError`] when fewer than `N` bytes remain.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let head = self.take(N)?;
        let mut arr = [0u8; N];
        arr.copy_from_slice(head);
        Ok(arr)
    }

    /// Reads a `u64` length prefix, rejecting any value that could not
    /// possibly fit in the remaining bytes (each counted element
    /// consumes at least one byte). That bounds the *count*; what may
    /// be allocated for it up front is [`Reader::capacity_for`]'s call.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or an impossible length.
    pub fn length(&mut self) -> Result<usize, WireError> {
        let len = u64::from_le_bytes(self.array::<8>()?);
        let len = usize::try_from(len).map_err(|_| WireError(format!("length {len} overflows")))?;
        if len > self.bytes.len() {
            return Err(WireError(format!(
                "declared length {len} exceeds {} remaining byte(s)",
                self.bytes.len()
            )));
        }
        Ok(len)
    }

    /// How many `T` to allocate for before reading `len` of them: never
    /// more memory than the bytes still unread, whatever the count
    /// claims. An in-memory `T` can be wider than its shortest wire
    /// form (a `Vec` header is 24 bytes, an empty vector on the wire
    /// 8), so a count that passes [`Reader::length`] could otherwise
    /// reserve a multiple of the payload; an honest vector that
    /// outgrows the cap just grows as it is read.
    pub fn capacity_for<T>(&self, len: usize) -> usize {
        len.min(self.bytes.len() / std::mem::size_of::<T>().max(1))
    }

    /// Consumes `len` cells of `width` bytes as one slab, checking
    /// `len × width` against the remaining bytes before anything is
    /// allocated for them.
    ///
    /// # Errors
    ///
    /// [`WireError`] when the slab would overrun the input.
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub fn slab(&mut self, len: usize, width: usize) -> Result<&'a [u8], WireError> {
        match len.checked_mul(width) {
            Some(bytes) if bytes <= self.bytes.len() => self.take(bytes),
            _ => Err(WireError(format!(
                "{len} cells of {width} bytes exceed {} remaining byte(s)",
                self.bytes.len()
            ))),
        }
    }
}

/// Fixed-width integers: a scalar is its little-endian bytes, a run of
/// them one slab — sized, bounds-checked and allocated once, the cells
/// copied in a loop the compiler turns into a block move.
macro_rules! impl_wire_int {
    ($($int:ty),+) => {$(
        impl ToWire for $int {
            fn wire(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn wire_all(items: &[Self], out: &mut Vec<u8>) {
                const WIDTH: usize = std::mem::size_of::<$int>();
                let start = out.len();
                out.resize(start + items.len() * WIDTH, 0);
                let (_, slab) = out.split_at_mut(start);
                for (cell, item) in slab.chunks_exact_mut(WIDTH).zip(items) {
                    cell.copy_from_slice(&item.to_le_bytes());
                }
            }
        }

        impl FromWire for $int {
            fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$int>::from_le_bytes(r.array()?))
            }

            fn read_all(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
                const WIDTH: usize = std::mem::size_of::<$int>();
                let cells = r.slab(len, WIDTH)?.chunks_exact(WIDTH);
                Ok(cells
                    .map(|cell| {
                        <$int>::from_le_bytes(
                            cell.try_into()
                                .expect("chunks_exact(WIDTH) yields WIDTH-byte cells"),
                        )
                    })
                    .collect())
            }
        }
    )+};
}

impl_wire_int!(u16, u32, u64);

impl ToWire for usize {
    fn wire(&self, out: &mut Vec<u8>) {
        (*self as u64).wire(out);
    }
}

impl FromWire for usize {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::from_wire(r)?;
        usize::try_from(v).map_err(|_| WireError(format!("usize value {v} overflows")))
    }
}

impl ToWire for str {
    fn wire(&self, out: &mut Vec<u8>) {
        (self.len() as u64).wire(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl ToWire for String {
    fn wire(&self, out: &mut Vec<u8>) {
        self.as_str().wire(out);
    }
}

impl FromWire for String {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.length()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError("string is not UTF-8".to_owned()))
    }
}

impl<T: ToWire> ToWire for Vec<T> {
    fn wire(&self, out: &mut Vec<u8>) {
        self.as_slice().wire(out);
    }
}

// lint:allow(index): unsized slice impl header, not an indexing site
impl<T: ToWire> ToWire for [T] {
    fn wire(&self, out: &mut Vec<u8>) {
        (self.len() as u64).wire(out);
        T::wire_all(self, out);
    }
}

impl<T: FromWire> FromWire for Vec<T> {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.length()?;
        T::read_all(r, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{cases, Gen, Shrink};

    /// One run of each slab-encoded width.
    #[derive(Debug, Clone)]
    struct Runs(Vec<u16>, Vec<u32>, Vec<u64>);
    impl Shrink for Runs {}

    /// The provided `wire_all`: what every element type but the slab
    /// integers runs, and the definition the slabs must reproduce.
    fn element_wise<T: ToWire>(items: &[T]) -> Vec<u8> {
        let mut out = encode(&items.len());
        for item in items {
            item.wire(&mut out);
        }
        out
    }

    fn slab_matches_elements_and_rejects_truncation<T>(items: &Vec<T>)
    where
        T: ToWire + FromWire + PartialEq + std::fmt::Debug,
    {
        let bytes = encode(items);
        assert_eq!(bytes, element_wise(items));
        assert_eq!(&decode::<Vec<T>>(&bytes).unwrap(), items);
        for cut in 0..bytes.len() {
            let short = bytes.get(..cut).unwrap_or_default();
            assert!(decode::<Vec<T>>(short).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn slab_encoding_is_the_element_wise_encoding() {
        cases(128).run(
            |g: &mut Gen| {
                Runs(
                    g.vec(0..=40usize, |g| g.range(0..=u32::from(u16::MAX)) as u16),
                    g.vec(0..=40usize, |g| g.range(0..=u32::MAX)),
                    g.vec(0..=40usize, Gen::u64),
                )
            },
            |Runs(a, b, c): &Runs| {
                slab_matches_elements_and_rejects_truncation(a);
                slab_matches_elements_and_rejects_truncation(b);
                slab_matches_elements_and_rejects_truncation(c);
            },
        );
    }

    #[test]
    fn pieces_concatenate_to_the_wire_form() {
        for len in [0, 1, PIECE - 1, PIECE, 2 * PIECE + 3] {
            let items: Vec<u32> = (0..len as u32).collect();
            let (mut buf, mut seen) = (Vec::new(), Vec::new());
            wire_pieces(&items, &mut buf, &mut |piece| {
                assert!(piece.len() <= 4 * PIECE, "piece of {} bytes", piece.len());
                seen.extend_from_slice(piece);
            });
            assert_eq!(seen, encode(&items));
        }
    }

    #[test]
    fn a_declared_count_never_reserves_more_than_the_input() {
        // 64 bytes follow the count. As cells they are 8 `u64`s, so a
        // count of 64 (which `length()` lets through: one byte each) is
        // refused on its size, before a 512-byte vector is allocated…
        let mut bytes = encode(&64usize);
        bytes.extend_from_slice(&[0u8; 64]);
        let err = decode::<Vec<u64>>(&bytes).unwrap_err();
        assert!(err.0.contains("64 cells of 8 bytes exceed 64"), "{err}");
        // …and as 24-byte `Vec` headers they are room for two, however
        // many empty vectors (8 wire bytes each) the count promises.
        let mut r = Reader::new(&bytes);
        assert_eq!(r.length(), Ok(64));
        assert_eq!(r.capacity_for::<Vec<u32>>(64), 2);
        assert_eq!(r.capacity_for::<Vec<u32>>(1), 1);
        assert_eq!(r.capacity_for::<u8>(64), 64);
        // The cap is a first allocation, not a limit: eight honest
        // empty vectors still decode, the ninth is what is missing.
        assert!(decode::<Vec<Vec<u32>>>(&bytes).is_err());
        let eight: Vec<Vec<u32>> = vec![Vec::new(); 8];
        assert_eq!(decode::<Vec<Vec<u32>>>(&encode(&eight)), Ok(eight));
    }

    #[test]
    fn scalars_round_trip() {
        assert_eq!(decode::<u16>(&encode(&513u16)).unwrap(), 513);
        assert_eq!(decode::<u16>(&encode(&u16::MAX)).unwrap(), u16::MAX);
        assert_eq!(decode::<u32>(&encode(&7u32)).unwrap(), 7);
        assert_eq!(decode::<u64>(&encode(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(decode::<usize>(&encode(&42usize)).unwrap(), 42);
    }

    #[test]
    fn containers_round_trip() {
        let s = "héllo".to_owned();
        assert_eq!(decode::<String>(&encode(&s)).unwrap(), s);
        let v = vec![vec![1u32, 2], vec![], vec![3]];
        assert_eq!(decode::<Vec<Vec<u32>>>(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            assert!(
                decode::<Vec<u64>>(bytes.get(..cut).unwrap_or_default()).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&5u32);
        bytes.push(0);
        assert!(decode::<u32>(&bytes).is_err());
    }

    #[test]
    fn huge_declared_length_is_rejected_before_allocating() {
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.push(0);
        assert!(decode::<Vec<u64>>(&bytes).is_err());
        assert!(decode::<String>(&bytes).is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode::<String>(&bytes).is_err());
    }
}
