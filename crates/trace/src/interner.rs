//! String interning: map strings to dense `u32` ids and back
//! (DESIGN.md §12.1).

use smash_support::wire::{FromWire, Reader, ToWire, WireError};
use std::hash::{BuildHasher, RandomState};

/// The id of a vacant slot. Never issued to a string (it is also
/// `columns::NO_ID`), so an id column can use it for "no value".
const VACANT: u32 = u32::MAX;

/// A slot no string occupies.
const VACANT_SLOT: Slot = Slot { tag: 0, id: VACANT };

/// One cell of the open-addressing table: the string's id and the 32
/// hash bits it was placed by.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

/// A bidirectional string ↔ dense-id table.
///
/// Interning keeps the dataset columnar and lets the pipeline operate on
/// `u32` ids (which the graph substrate requires) instead of strings.
///
/// Every string is resident once: the id table is one `String` slab of
/// all strings in id order plus a `u32` end offset each, and the
/// string → id direction is a linear-probing table of `(hash tag, id)`
/// slots that compares a candidate against the slab instead of holding
/// a key of its own. A hit allocates nothing; a miss is one `push_str`.
/// The probe hash is keyed per table (`RandomState`): the strings come
/// from untrusted traces, and an unkeyed hash would let one crafted
/// file turn every probe into a scan. The keys reach no output — ids
/// are insertion-ordered — so runs stay byte-identical.
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
    /// Every interned string, concatenated in id order.
    slab: String,
    /// `ends[id]`: where string `id` ends in `slab` (it starts where
    /// its predecessor ends).
    ends: Vec<u32>,
    /// Power-of-two table, `slots_for(len)` long, at most ¾ full.
    slots: Vec<Slot>,
    keys: RandomState,
}

/// Table size for `strings` entries: a power of two at least 4⁄3 of
/// them, so there is always a vacant slot to stop a probe. A function
/// of the count alone — an interner grown one `intern` at a time and
/// one decoded from a day file account the same [`Interner::heap_bytes`].
fn slots_for(strings: usize) -> usize {
    match strings {
        0 => 0,
        n => (n + n / 3 + 1).next_power_of_two().max(8),
    }
}

/// `held == s`, lengths first, and bytes only when there are any. A
/// zero-length `memcmp` is not free when one side is an empty string's
/// dangling pointer (an empty literal's, or a slab that never
/// allocated): it costs ≈ 50× the compare of two valid pointers
/// (DESIGN.md §12.1), and every URI without `?` interns `""`.
fn same(held: &str, s: &str) -> bool {
    held.len() == s.len() && (s.is_empty() || held == s)
}

/// Wire form: the id-ordered string table only (a count, then each
/// string length-prefixed); offsets and slots are rebuilt on read.
/// Decoding rejects duplicate strings — a table where two ids resolve to
/// the same string cannot have come from an interner — by the same
/// probe that interns them.
impl ToWire for Interner {
    fn wire(&self, out: &mut Vec<u8>) {
        self.len().wire(out);
        for (_, s) in self.iter() {
            s.wire(out);
        }
    }
}

impl Interner {
    /// The wire form handed to `sink` one string at a time through
    /// `buf` (see [`smash_support::wire::wire_pieces`]).
    pub(crate) fn wire_pieces(&self, buf: &mut Vec<u8>, sink: &mut impl FnMut(&[u8])) {
        buf.clear();
        self.len().wire(buf);
        sink(buf);
        for (_, s) in self.iter() {
            buf.clear();
            s.wire(buf);
            sink(buf);
        }
    }
}

impl FromWire for Interner {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.length()?;
        let mut out = Interner::default();
        // A string is at least its 8-byte length on the wire.
        out.ends.reserve_exact(r.capacity_for::<u64>(count));
        // The probe table goes in at its final size, so no slot is
        // placed twice — when the unread bytes could hold it. A count
        // the bytes cannot back grows the table as interning does.
        let slots = slots_for(count);
        if r.capacity_for::<Slot>(slots) == slots {
            out.slots = vec![VACANT_SLOT; slots];
        }
        for _ in 0..count {
            let len = r.length()?;
            let s = std::str::from_utf8(r.take(len)?)
                .map_err(|_| WireError("string is not UTF-8".to_owned()))?;
            let tag = out.tag(s);
            if out.find(s, tag).is_some() {
                return Err(WireError("duplicate string in interner table".to_owned()));
            }
            out.push_new(s, tag).map_err(|e| WireError(e.to_owned()))?;
        }
        Ok(out)
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
    /// Panics if more than `u32::MAX` distinct strings, or more than
    /// 4 GiB of them, are interned.
    pub fn intern(&mut self, s: &str) -> u32 {
        let tag = self.tag(s);
        match self.find(s, tag) {
            Some(id) => id,
            None => self.push_new(s, tag).expect("interner overflow"),
        }
    }

    /// Forgets every string but keeps the allocations, table size
    /// included — for scratch tables refilled over and over (a reader's
    /// chunk-local tables), whose [`heap_bytes`](Self::heap_bytes) is
    /// then no longer a function of the count alone.
    pub(crate) fn clear(&mut self) {
        self.slab.clear();
        self.ends.clear();
        self.slots.fill(VACANT_SLOT);
    }

    /// Looks up the id of `s` without interning it.
    pub fn get(&self, s: &str) -> Option<u32> {
        self.find(s, self.tag(s))
    }

    /// The hash bits `s` is placed and recognised by.
    fn tag(&self, s: &str) -> u32 {
        (self.keys.hash_one(s) >> 32) as u32
    }

    /// Probes for `s` from its home slot to the first vacant one.
    fn find(&self, s: &str, tag: u32) -> Option<u32> {
        let mask = self.slots.len().checked_sub(1)?;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots.get(at)?;
            if slot.id == VACANT {
                return None;
            }
            if slot.tag == tag
                && self
                    .resolve_checked(slot.id)
                    .is_some_and(|held| same(held, s))
            {
                return Some(slot.id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Appends a string [`find`](Self::find) did not find and issues
    /// its id, or says which bound it would pass.
    fn push_new(&mut self, s: &str, tag: u32) -> Result<u32, &'static str> {
        let id = u32::try_from(self.ends.len())
            .ok()
            .filter(|&id| id != VACANT)
            .ok_or("interner table exceeds u32 id space")?;
        let end = u32::try_from(self.slab.len() + s.len())
            .map_err(|_| "interner strings exceed 4 GiB")?;
        let slots = slots_for(self.ends.len() + 1);
        if slots > self.slots.len() {
            for slot in std::mem::replace(&mut self.slots, vec![VACANT_SLOT; slots]) {
                if slot.id != VACANT {
                    self.place(slot);
                }
            }
        }
        self.slab.push_str(s);
        self.ends.push(end);
        self.place(Slot { tag, id });
        Ok(id)
    }

    /// Puts `slot` in the first vacant cell from its home (there is
    /// one: the table is never full).
    fn place(&mut self, slot: Slot) {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = slot.tag as usize & mask;
        while let Some(cell) = self.slots.get_mut(at) {
            if cell.id == VACANT {
                *cell = slot;
                return;
            }
            at = (at + 1) & mask;
        }
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
        let id = id as usize;
        let end = *self.ends.get(id)? as usize;
        let start = match id.checked_sub(1) {
            Some(before) => *self.ends.get(before)? as usize,
            None => 0,
        };
        self.slab.get(start..end)
    }

    /// Bytes the table holds: every string once, 4 per end offset and
    /// 8 per probe slot. Exact for this layout and a function of the
    /// interned strings alone (allocator slack is not modeled).
    pub fn heap_bytes(&self) -> u64 {
        (self.slab.len() + 4 * self.ends.len() + 8 * self.slots.len()) as u64
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Iterates over `(id, string)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(id, &end)| {
            let s = self.slab.get(start..end as usize).unwrap_or_default();
            start = end as usize;
            (id as u32, s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_support::check::{cases, Gen, Shrink};
    use smash_support::wire::{self, Reader};
    use std::collections::HashMap;

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
        assert_eq!(i.heap_bytes(), 0);
    }

    #[test]
    fn resolve_checked_rejects_rogue_ids() {
        let mut i = Interner::new();
        i.intern("a");
        assert_eq!(i.resolve_checked(0), Some("a"));
        assert_eq!(i.resolve_checked(1), None);
        assert_eq!(i.resolve_checked(VACANT), None);
    }

    #[test]
    fn heap_bytes_counts_each_string_once() {
        let mut i = Interner::new();
        i.intern("abc");
        i.intern("");
        i.intern("de");
        i.intern("abc");
        // 5 string bytes, 3 offsets, the 8-slot starting table.
        assert_eq!(i.heap_bytes(), 5 + 3 * 4 + 8 * 8);
        // The table is sized by the count alone, however it got there.
        let back: Interner = wire::decode(&wire::encode(&i)).unwrap();
        assert_eq!(back.heap_bytes(), i.heap_bytes());
        for n in 1..200 {
            assert!(slots_for(n).is_power_of_two() && slots_for(n) * 3 >= n * 4);
        }
    }

    #[test]
    fn a_decoded_table_is_sized_once_unless_its_bytes_cannot_back_it() {
        let mut grown = Interner::new();
        for k in 0..1000 {
            grown.intern(&format!("client-{k}"));
        }
        // Enough bytes behind the count: the table is allocated at its
        // final size before the first string is placed.
        let bytes = wire::encode(&grown);
        let mut r = Reader::new(&bytes);
        let decoded = Interner::from_wire(&mut r).unwrap();
        assert_eq!(decoded.slots.capacity(), slots_for(1000));
        assert_eq!(decoded.heap_bytes(), grown.heap_bytes());
        // Three one-byte strings are 27 wire bytes, too few to back the
        // 64-byte table their count asks for: it grows as they arrive
        // and ends the same size.
        let small: Vec<String> = ["a", "b", "c"].map(str::to_owned).to_vec();
        let bytes = wire::encode(&small);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.length(), Ok(3));
        assert!(r.capacity_for::<Slot>(slots_for(3)) < slots_for(3));
        let decoded: Interner = wire::decode(&bytes).unwrap();
        assert_eq!(decoded.slots.len(), slots_for(3));
        assert_eq!(decoded.get("c"), Some(2));
    }

    #[test]
    fn wire_round_trips_and_rebuilds_map() {
        let mut i = Interner::new();
        i.intern("b");
        i.intern("a");
        let bytes = wire::encode(&i);
        assert_eq!(bytes, wire::encode(&vec!["b".to_owned(), "a".to_owned()]));
        let (mut buf, mut pieces) = (Vec::new(), Vec::new());
        i.wire_pieces(&mut buf, &mut |piece| pieces.extend_from_slice(piece));
        assert_eq!(pieces, bytes);
        let back: Interner = wire::decode(&bytes).unwrap();
        assert_eq!(back.get("b"), Some(0));
        assert_eq!(back.get("a"), Some(1));
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn wire_rejects_duplicate_strings() {
        let dupes = vec!["x".to_owned(), "x".to_owned()];
        let bytes = wire::encode(&dupes);
        assert!(wire::decode::<Interner>(&bytes).is_err());
        let empties = vec![String::new(), "y".to_owned(), String::new()];
        assert!(wire::decode::<Interner>(&wire::encode(&empties)).is_err());
    }

    #[test]
    fn wire_rejects_non_utf8_and_impossible_counts() {
        // Each string alone is checked, so a multi-byte character split
        // across two entries does not slip through as valid slab bytes.
        let mut split = wire::encode(&2usize);
        for half in ["é".as_bytes().split_at(1).0, "é".as_bytes().split_at(1).1] {
            split.extend_from_slice(&wire::encode(&half.len()));
            split.extend_from_slice(half);
        }
        let err = wire::decode::<Interner>(&split).unwrap_err();
        assert!(err.0.contains("UTF-8"), "{err}");
        // 16 bytes follow: two empty strings, not the sixteen declared
        // (and the second is a duplicate before the third is missing).
        let mut lie = wire::encode(&16usize);
        lie.extend_from_slice(&[0u8; 16]);
        assert!(wire::decode::<Interner>(&lie).is_err());
    }

    /// One step of a script: intern a string, look one up, or empty
    /// the table with [`Interner::clear`].
    #[derive(Debug, Clone)]
    enum Step {
        Intern(String),
        Get(String),
        Clear,
    }

    /// A script of steps over strings drawn from a small pool, so hits
    /// are as common as misses, with the empty string one step in ten:
    /// it meets slabs that never allocated (a fresh table, or a decoded
    /// one holding only `""`), slabs holding other strings, and slabs
    /// emptied by `clear`.
    #[derive(Debug, Clone)]
    struct Script(Vec<Step>);
    impl Shrink for Script {}

    #[test]
    fn behaves_like_a_hash_map_through_growth_and_round_trips() {
        cases(64).run(
            |g: &mut Gen| {
                let mut pool = g.vec(1..=600usize, |g| g.string(0..=12usize, "abé漢.-/0🦀"));
                pool.push(String::new());
                // Half the scripts open on `""`, into a table whose slab
                // has never allocated.
                let lead = if g.bool(0.5) { g.range(1..=3usize) } else { 0 };
                let mut script: Vec<Step> =
                    (0..lead).map(|_| Step::Intern(String::new())).collect();
                let steps = g.range(0..=1500usize);
                script.extend(g.vec(steps..=steps, |g| {
                    let s = if g.bool(0.1) {
                        String::new()
                    } else {
                        g.pick(&pool).clone()
                    };
                    match g.range(0..1000u32) {
                        0..=2 => Step::Clear,
                        3..=702 => Step::Intern(s),
                        _ => Step::Get(s),
                    }
                }));
                Script(script)
            },
            |Script(steps): &Script| {
                let mut model: HashMap<String, u32> = HashMap::new();
                let mut order: Vec<&str> = Vec::new();
                let mut table = Interner::new();
                for (k, step) in steps.iter().enumerate() {
                    match step {
                        Step::Intern(s) => {
                            let next = model.len() as u32;
                            let want = *model.entry(s.clone()).or_insert(next);
                            if want == next {
                                order.push(s);
                            }
                            assert_eq!(table.intern(s), want);
                        }
                        Step::Get(s) => assert_eq!(table.get(s), model.get(s).copied()),
                        Step::Clear => {
                            model.clear();
                            order.clear();
                            table.clear();
                        }
                    }
                    assert_eq!(table.len(), model.len());
                    // The empty string as a literal, whose pointer is
                    // dangling, finds what the model holds.
                    assert_eq!(table.get(""), model.get("").copied());
                    // Now and then the table goes through the wire and
                    // the script carries on with what came back.
                    if k % 97 == 96 {
                        table = wire::decode(&wire::encode(&table)).expect("round trip");
                    }
                }
                let listed: Vec<(u32, &str)> = table.iter().collect();
                let wanted: Vec<(u32, &str)> = (0..).zip(order.iter().copied()).collect();
                assert_eq!(listed, wanted);
                for (id, s) in wanted {
                    assert_eq!(table.resolve_checked(id), Some(s));
                    assert_eq!(table.get(s), Some(id));
                }
                assert_eq!(table.resolve_checked(model.len() as u32), None);
            },
        );
    }
}
