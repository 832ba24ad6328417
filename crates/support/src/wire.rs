//! Compact binary serialization for checkpoint snapshot payloads.
//!
//! The JSON used for reports is the wrong tool for snapshots: a medium
//! run's dimension graphs serialize to ~700 KB of JSON whose encode and
//! parse alone cost more than half the pipeline's wall time, where
//! checkpointing now costs ≈ 3 % (DESIGN.md §9.4). This module is a
//! minimal little-endian wire format for the handful of types the
//! checkpoint layer stores: fixed-width integers and floats, length-
//! prefixed strings and vectors, nothing self-describing. The envelope
//! around a payload ([`crate::ckpt`]) carries the format version and an
//! FNV-1a checksum, so decoders here only ever see bytes that already
//! checksummed clean — but every decode is still bounds-checked and
//! returns [`WireError`] rather than panicking, because corruption
//! tests (and FNV collisions, in principle) can hand them anything.
//!
//! Layout rules:
//! - `u16`/`u32`/`u64`/`f64` (via `to_bits`): fixed-width little-endian.
//! - `usize`: encoded as `u64`.
//! - `bool`: one byte, `0` or `1`; anything else is an error.
//! - `String`: `u64` byte length, then UTF-8 bytes.
//! - `Vec<T>`: `u64` element count, then each element in order.

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
}

/// Deserializes a value from a [`Reader`].
pub trait FromWire: Sized {
    /// Reads one value; must consume exactly its own bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncation or an invalid encoding.
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError>;
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
    /// consumes at least one byte) — so a corrupted length can never
    /// drive a huge allocation.
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
}

impl ToWire for u16 {
    fn wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromWire for u16 {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u16::from_le_bytes(r.array::<2>()?))
    }
}

impl ToWire for u32 {
    fn wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromWire for u32 {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u32::from_le_bytes(r.array::<4>()?))
    }
}

impl ToWire for u64 {
    fn wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
}

impl FromWire for u64 {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(u64::from_le_bytes(r.array::<8>()?))
    }
}

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

impl ToWire for f64 {
    fn wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl FromWire for f64 {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(r.array::<8>()?)))
    }
}

impl ToWire for bool {
    fn wire(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl FromWire for bool {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.array::<1>()? {
            [0] => Ok(false),
            [1] => Ok(true),
            [b] => Err(WireError(format!("bool byte {b:#04x}"))),
        }
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
        for item in self {
            item.wire(out);
        }
    }
}

impl<T: FromWire> FromWire for Vec<T> {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.length()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::from_wire(r)?);
        }
        Ok(out)
    }
}

/// Implements [`ToWire`]/[`FromWire`] for a struct by encoding its
/// fields in declaration order — the wire twin of `impl_json_struct!`,
/// for types whose fields are all wire-encodable source data (no
/// derived state).
#[macro_export]
macro_rules! impl_wire_struct {
    ($name:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::wire::ToWire for $name {
            fn wire(&self, out: &mut Vec<u8>) {
                $( $crate::wire::ToWire::wire(&self.$field, out); )+
            }
        }
        impl $crate::wire::FromWire for $name {
            fn from_wire(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::WireError> {
                Ok($name {
                    $( $field: $crate::wire::FromWire::from_wire(r)?, )+
                })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        assert_eq!(decode::<u16>(&encode(&513u16)).unwrap(), 513);
        assert_eq!(decode::<u16>(&encode(&u16::MAX)).unwrap(), u16::MAX);
        assert_eq!(decode::<u32>(&encode(&7u32)).unwrap(), 7);
        assert_eq!(decode::<u64>(&encode(&u64::MAX)).unwrap(), u64::MAX);
        assert_eq!(decode::<usize>(&encode(&42usize)).unwrap(), 42);
        assert!(decode::<bool>(&encode(&true)).unwrap());
        let x = -0.125f64;
        assert_eq!(decode::<f64>(&encode(&x)).unwrap().to_bits(), x.to_bits());
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
    fn invalid_bool_and_utf8_are_errors() {
        assert!(decode::<bool>(&[2]).is_err());
        let mut bytes = 2u64.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert!(decode::<String>(&bytes).is_err());
    }

    struct Pair {
        a: u32,
        b: String,
    }
    impl_wire_struct!(Pair { a, b });

    #[test]
    fn struct_macro_round_trips() {
        let p = Pair {
            a: 9,
            b: "x".to_owned(),
        };
        let back: Pair = decode(&encode(&p)).unwrap();
        assert_eq!(back.a, 9);
        assert_eq!(back.b, "x");
    }
}
