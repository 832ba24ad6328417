//! String interning: map strings to dense `u32` ids and back.

use smash_support::wire::{FromWire, Reader, ToWire, WireError};
use std::collections::HashMap;

/// A bidirectional string ↔ dense-id table.
///
/// Interning keeps the dataset columnar and lets the pipeline operate on
/// `u32` ids (which the graph substrate requires) instead of strings.
///
/// # Example
///
/// ```
/// use smash_trace::Interner;
///
/// let mut i = Interner::new();
/// let a = i.intern("evil.com");
/// let b = i.intern("evil.com");
/// assert_eq!(a, b);
/// assert_eq!(i.resolve(a), "evil.com");
/// assert_eq!(i.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Interner {
    map: HashMap<String, u32>,
    strings: Vec<String>,
}

/// Wire form: the id-ordered string table only; the reverse map is
/// rebuilt on read.
/// Decoding rejects duplicate strings — a table where two ids resolve to
/// the same string cannot have come from an interner.
impl ToWire for Interner {
    fn wire(&self, out: &mut Vec<u8>) {
        self.strings.wire(out);
    }
}

impl FromWire for Interner {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let strings = Vec::<String>::from_wire(r)?;
        if strings.len() > u32::MAX as usize {
            return Err(WireError("interner table exceeds u32 id space".to_owned()));
        }
        let map: HashMap<String, u32> = strings
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
        if map.len() != strings.len() {
            return Err(WireError("duplicate string in interner table".to_owned()));
        }
        Ok(Self { map, strings })
    }
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its id (allocating a new id if unseen).
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct strings are interned.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = u32::try_from(self.strings.len()).expect("interner overflow");
        self.map.insert(s.to_owned(), id);
        self.strings.push(s.to_owned());
        id
    }

    /// Looks up the id of `s` without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.map.get(s).copied()
    }

    /// Resolves an id back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never issued by this interner.
    pub fn resolve(&self, id: u32) -> &str {
        self.resolve_checked(id)
            .expect("id was never issued by this interner")
    }

    /// Resolves an id back to its string, or `None` for an id this
    /// interner never issued.
    pub fn resolve_checked(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// Total bytes of string payload in the id table (one copy; the
    /// reverse map holds a second).
    pub fn string_bytes(&self) -> u64 {
        self.strings.iter().map(|s| s.len() as u64).sum()
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_dense_and_stable() {
        let mut i = Interner::new();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("x"), None);
        i.intern("x");
        assert_eq!(i.get("x"), Some(0));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let id = i.intern("login.php");
        assert_eq!(i.resolve(id), "login.php");
    }

    #[test]
    fn iter_in_id_order() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let v: Vec<_> = i.iter().collect();
        assert_eq!(v, vec![(0, "b"), (1, "a")]);
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn resolve_checked_rejects_rogue_ids() {
        let mut i = Interner::new();
        i.intern("a");
        assert_eq!(i.resolve_checked(0), Some("a"));
        assert_eq!(i.resolve_checked(1), None);
        assert_eq!(i.string_bytes(), 1);
    }

    #[test]
    fn wire_round_trips_and_rebuilds_map() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let bytes = smash_support::wire::encode(&i);
        let back: Interner = smash_support::wire::decode(&bytes).unwrap();
        assert_eq!(back.get("b"), Some(0));
        assert_eq!(back.get("a"), Some(1));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn wire_rejects_duplicate_strings() {
        let dupes = vec!["x".to_owned(), "x".to_owned()];
        let bytes = smash_support::wire::encode(&dupes);
        assert!(smash_support::wire::decode::<Interner>(&bytes).is_err());
    }
}
