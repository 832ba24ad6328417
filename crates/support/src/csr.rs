//! Compressed sparse rows, built by the workspace's one counting sort
//! ([`Csr::group`]): the arena's server → feature postings and the
//! miner's feature → node index (DESIGN.md §5, §12.3).

use crate::wire::{FromWire, Reader, ToWire, WireError};

/// Rows of `u32` ids: row `i` is `ids[offsets[i]..offsets[i + 1]]`.
/// On the wire it is the `Vec<Vec<u32>>` of its rows.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Csr {
    /// One run start per row, then `ids.len()` (empty with no rows).
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl Csr {
    /// Groups `pairs` into `keys` rows by a stable two-pass counting
    /// sort: row `k` holds the ids paired with `k`, in pair order. A
    /// pair whose key is not below `keys` is skipped by both passes.
    /// `None` when the ids outnumber what `u32` offsets can address.
    pub fn group<P: Iterator<Item = (u32, u32)> + Clone>(keys: usize, pairs: P) -> Option<Self> {
        let pairs = pairs.filter(move |&(key, _)| (key as usize) < keys);
        // Count each key's ids, turn the counts into run starts, then
        // deal the ids out, advancing the key's start as its cursor.
        let mut offsets = vec![0u32; keys + 1];
        for (key, _) in pairs.clone() {
            if let Some(count) = offsets.get_mut(key as usize) {
                *count = count.checked_add(1)?;
            }
        }
        let mut total = 0u32;
        for slot in &mut offsets {
            (*slot, total) = (total, total.checked_add(*slot)?);
        }
        let mut ids = vec![0; total as usize];
        for (key, id) in pairs {
            if let Some(cursor) = offsets.get_mut(key as usize) {
                if let Some(slot) = ids.get_mut(*cursor as usize) {
                    *slot = id;
                }
                *cursor += 1;
            }
        }
        // Every cursor ended on the next run's start: shift them up one.
        offsets.rotate_right(1);
        if let Some(first) = offsets.first_mut() {
            *first = 0;
        }
        Some(Self { offsets, ids })
    }

    /// Sorts every row and drops its repeats, compacting the ids in
    /// place and giving back the memory freed.
    pub fn dedup_rows(&mut self) {
        let mut from = 0;
        for &to in self.offsets.iter().skip(1) {
            let row = self.ids.get_mut(from..to as usize).unwrap_or_default();
            row.sort_unstable();
            from = to as usize;
        }
        // Keep each row's first copy of an id; a row's end becomes the
        // count kept through it.
        let mut ends = self.offsets.iter_mut().skip(1).peekable();
        let (mut seen, mut kept, mut last) = (0, 0, None);
        self.ids.retain(|&id| {
            while let Some(end) = ends.next_if(|end| **end == seen) {
                (*end, last) = (kept, None);
            }
            let keep = last != Some(id);
            (seen, kept, last) = (seen + 1, kept + u32::from(keep), Some(id));
            keep
        });
        ends.for_each(|end| *end = kept);
        self.ids.shrink_to_fit();
    }

    /// Row `i`, or the empty slice past the last row.
    pub fn row(&self, i: usize) -> &[u32] {
        match self.offsets.get(i..i + 2) {
            Some(&[lo, hi]) => self.ids.get(lo as usize..hi as usize),
            _ => None,
        }
        .unwrap_or_default()
    }

    /// Every row, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// `true` when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of ids across all rows.
    pub fn incidences(&self) -> usize {
        self.ids.len()
    }
}

impl ToWire for Csr {
    fn wire(&self, out: &mut Vec<u8>) {
        self.len().wire(out);
        self.rows().for_each(|row| row.wire(out));
    }
}

/// Makes `Vec<Vec<u32>>`'s [`Reader`] calls in its order, so the same
/// bytes fail with the same error, and copies the rows' cells into an
/// id array allocated once, at its final size.
impl FromWire for Csr {
    fn from_wire(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rows = r.length()?;
        let mut slabs = Vec::with_capacity(r.capacity_for::<Vec<u32>>(rows));
        let mut offsets = Vec::with_capacity(slabs.capacity() + 1);
        offsets.push(0u32);
        for _ in 0..rows {
            let len = r.length()?;
            slabs.push(r.slab(len, 4)?);
            let end = offsets
                .last()
                .and_then(|&at| at.checked_add(u32::try_from(len).ok()?));
            offsets.push(end.ok_or_else(|| WireError("ids overflow u32 offsets".to_owned()))?);
        }
        let mut ids = Vec::with_capacity(offsets.last().map_or(0, |&n| n as usize));
        for slab in slabs {
            let cells = slab
                .chunks_exact(4)
                .map(|cell| cell.try_into().map_or(0, u32::from_le_bytes));
            ids.extend(cells);
        }
        Ok(Self { offsets, ids })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{cases, Gen};
    use crate::wire::{decode, encode};

    fn rows_of(csr: &Csr) -> Vec<Vec<u32>> {
        csr.rows().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn group_is_stable() {
        let pairs = [(2, 9), (0, 4), (2, 1), (0, 4), (2, 5), (0, 0)];
        let csr = Csr::group(4, pairs.iter().copied()).unwrap();
        assert_eq!(
            rows_of(&csr),
            vec![vec![4, 4, 0], vec![], vec![9, 1, 5], vec![]]
        );
        assert_eq!(csr.len(), 4);
        assert_eq!(csr.incidences(), 6);
        let none = Csr::group(0, std::iter::empty()).unwrap();
        assert_eq!((none.len(), Csr::default().len()), (0, 0));
        assert_eq!(encode(&none), encode(&Csr::default()));
    }

    #[test]
    fn keys_out_of_range_are_skipped_and_not_counted() {
        // Key 2 == `keys` and key 7 > `keys`: neither is dealt nor
        // counted, in either pass.
        let pairs = [(0, 1), (2, 8), (1, 3), (7, 9), (0, 2)];
        let csr = Csr::group(2, pairs.iter().copied()).unwrap();
        assert_eq!(rows_of(&csr), vec![vec![1, 2], vec![3]]);
        assert_eq!(csr.incidences(), 3);
        assert_eq!(csr.row(2), &[] as &[u32]);
        assert_eq!(csr.row(usize::from(u16::MAX)), &[] as &[u32]);
    }

    #[test]
    fn dedup_rows_sorts_and_compacts_each_row() {
        // Equal ids at a row boundary stay one per row; empty rows,
        // leading and trailing, keep their place.
        let pairs = [(1, 5), (1, 3), (1, 5), (2, 5), (2, 5), (4, 0), (1, 3)];
        let mut csr = Csr::group(6, pairs.iter().copied()).unwrap();
        csr.dedup_rows();
        assert_eq!(
            rows_of(&csr),
            vec![vec![], vec![3, 5], vec![5], vec![], vec![0], vec![]]
        );
        assert_eq!(csr.incidences(), 4);
        let mut empty = Csr::group(3, std::iter::empty()).unwrap();
        empty.dedup_rows();
        assert_eq!(rows_of(&empty), vec![Vec::<u32>::new(); 3]);
    }

    #[test]
    fn wire_form_is_the_nested_vectors_and_so_is_every_verdict() {
        cases(128).run(
            |g: &mut Gen| {
                g.vec(0..=12usize, |g| {
                    g.vec(0..=6usize, |g| g.range(0..=u32::MAX))
                })
            },
            |rows: &Vec<Vec<u32>>| {
                let pairs = (0u32..)
                    .zip(rows)
                    .flat_map(|(k, row)| row.iter().map(move |&id| (k, id)));
                let csr = Csr::group(rows.len(), pairs).unwrap();
                let bytes = encode(&csr);
                assert_eq!(bytes, encode(rows));
                assert_eq!(decode::<Csr>(&bytes), Ok(csr));
                for cut in 0..bytes.len() {
                    let short = bytes.get(..cut).unwrap_or_default();
                    assert_eq!(
                        decode::<Csr>(short).map(|csr| rows_of(&csr)),
                        decode::<Vec<Vec<u32>>>(short),
                        "cut at {cut}"
                    );
                }
                let mut long = bytes.clone();
                long.push(0);
                assert_eq!(
                    decode::<Csr>(&long).map(|csr| rows_of(&csr)),
                    decode::<Vec<Vec<u32>>>(&long)
                );
            },
        );
    }
}
