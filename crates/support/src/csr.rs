//! Compressed sparse rows, built by the workspace's one counting sort
//! ([`Csr::group`]): the arena's server → feature postings and the
//! miner's feature → node index (DESIGN.md §5, §12.3).

/// Rows of `u32` ids: row `i` is `ids[offsets[i]..offsets[i + 1]]`.
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

    /// Drops every row's repeats and sorts what it keeps, compacting the
    /// ids in place and giving back the memory freed. `range` is the
    /// length of the table the ids index: a marker per id below it drops
    /// a repeat before the sort sees it, so each row sorts only its
    /// distinct ids. An id at or past `range` has no marker and is kept
    /// every time it occurs.
    pub fn dedup_rows(&mut self, range: usize) {
        // An id's marker is the number of the last row that kept it.
        let mut kept_by = vec![0u32; range];
        let (mut from, mut kept) = (0, 0);
        for (row, end) in (1u32..).zip(self.offsets.iter_mut().skip(1)) {
            let (start, to) = (kept, *end as usize);
            for at in from..to {
                let id = self.ids.get(at).copied().unwrap_or_default();
                let marker = kept_by.get_mut(id as usize);
                if marker.is_some_and(|m| std::mem::replace(m, row) == row) {
                    continue;
                }
                if let Some(slot) = self.ids.get_mut(kept) {
                    *slot = id;
                }
                kept += 1;
            }
            self.ids
                .get_mut(start..kept)
                .unwrap_or_default()
                .sort_unstable();
            (from, *end) = (to, kept as u32);
        }
        self.ids.truncate(kept);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{cases, Gen};

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
        csr.dedup_rows(6);
        assert_eq!(
            rows_of(&csr),
            vec![vec![], vec![3, 5], vec![5], vec![], vec![0], vec![]]
        );
        assert_eq!(csr.incidences(), 4);
        let mut empty = Csr::group(3, std::iter::empty()).unwrap();
        empty.dedup_rows(0);
        assert_eq!(rows_of(&empty), vec![Vec::<u32>::new(); 3]);
        // Against sorting each row and dropping its repeats — but an id
        // at or past the range, which has no marker, is kept each time.
        cases(256).run(
            |g: &mut Gen| {
                let range = g.range(0..=24usize);
                let rows = g.vec(0..=12usize, |g| {
                    g.vec(0..=16usize, |g| g.range(0..range as u32 + 3))
                });
                (range, rows)
            },
            |(range, rows): &(usize, Vec<Vec<u32>>)| {
                let pairs = (0u32..)
                    .zip(rows)
                    .flat_map(|(k, row)| row.iter().map(move |&id| (k, id)));
                let mut csr = Csr::group(rows.len(), pairs).unwrap();
                csr.dedup_rows(*range);
                let expected: Vec<Vec<u32>> = rows
                    .iter()
                    .map(|row| {
                        let mut row = row.clone();
                        row.sort_unstable();
                        row.dedup_by(|a, b| a == b && (*a as usize) < *range);
                        row
                    })
                    .collect();
                assert_eq!(rows_of(&csr), expected);
                assert_eq!(csr.incidences(), expected.concat().len());
            },
        );
    }
}
