//! The feature × node incidence matrix, transposed once (DESIGN.md §5).
//!
//! Every set similarity in the paper is a function of how many features
//! two servers share — eq. 8 is by its own words "the same form as
//! eq. 1" — and §VI's scalability remark is that those counts are the
//! sparse product `A·Aᵀ` of the incidence matrix `A`. [`FeatureIndex`]
//! is `Aᵀ`, a [`Csr`] built by the workspace's one counting sort
//! ([`Csr::group`], which also builds the arena's postings); its
//! [`count_shared`](FeatureIndex::count_shared) is one row of the
//! product, the one shared-count kernel. The client dimension (eq. 1)
//! and the co-occurrence dimensions scan every node's row against it —
//! a node's partners are whoever shares a feature with it, so there is
//! no candidate layer — and the URI-file dimension's row scan reads a
//! row's short postings from one as its LSH rare path.
//!
//! Features enter as ranks. [`distinct`] ranks keys that are not ids at
//! all (strings, size buckets); [`IdIndex`] takes sets of numeric ids
//! and decides whether they need ranking: dense ids are their own
//! ranks.

use crate::candidates::FeatureId;
use smash_support::csr::Csr;
use std::ops::Deref;

/// Feature → nodes: every node's feature row transposed, row `f` the
/// nodes feature `f` was seen on, ascending. (Not the arena's
/// "postings", DESIGN.md §12.3: those are server → features, the rows
/// of `A`.)
#[derive(Debug)]
pub(crate) struct FeatureIndex(Csr);

impl Deref for FeatureIndex {
    type Target = Csr;

    fn deref(&self) -> &Csr {
        &self.0
    }
}

impl FeatureIndex {
    /// Transposes `rows` — one per node from 0 up, each a
    /// duplicate-free run of feature ranks; a rank not below `features`
    /// is dropped — by grouping the `(rank, node)` pairs, so each
    /// feature's nodes come out in node order. `None` when the
    /// incidences outnumber what the `u32` offsets can address.
    pub(crate) fn transpose<R: IntoIterator<Item = u32, IntoIter: Clone>>(
        features: usize,
        rows: impl Iterator<Item = R> + Clone,
    ) -> Option<Self> {
        let pairs = (0u32..)
            .zip(rows)
            .flat_map(|(node, row)| row.into_iter().map(move |feature| (feature, node)));
        Csr::group(features, pairs).map(Self)
    }

    /// The first and last node any feature was seen on: every row
    /// ascends, so they are a row's first and a row's last.
    pub(crate) fn window(&self) -> (u32, u32) {
        let lo = self.rows().filter_map(<[u32]>::first).min();
        let hi = self.rows().filter_map(<[u32]>::last).max();
        (lo.map_or(0, |&lo| lo), hi.map_or(0, |&hi| hi))
    }

    /// The shared-count kernel: one row of `A·Aᵀ` (Gustavson's row
    /// scan) over the window of nodes `first..=last`. Each feature of
    /// `row` bumps `shared[v - first]` for every node `v` inside the
    /// window it was also seen on, so afterwards a node's slot is how
    /// many of `row`'s features it shares; `fresh(v)` is told of each
    /// node's first bump. Returns the increments made: the work is what
    /// the window shares with the row, not the lengths of the sets
    /// involved. `shared` must span the window and start zeroed.
    pub(crate) fn count_shared(
        &self,
        row: impl IntoIterator<Item = u32>,
        (first, last): (u32, u32),
        // lint:allow(index): a slice type, not an indexing site
        shared: &mut [u32],
        mut fresh: impl FnMut(u32),
    ) -> u64 {
        let mut steps = 0;
        for feature in row {
            let nodes = self.row(feature as usize);
            let from = nodes.partition_point(|&v| v < first);
            let inside = nodes.iter().skip(from).take_while(|&&v| v <= last);
            for &v in inside {
                if let Some(count) = shared.get_mut((v - first) as usize) {
                    if *count == 0 {
                        fresh(v);
                    }
                    *count += 1;
                }
                steps += 1;
            }
        }
        steps
    }
}

/// A [`FeatureIndex`] over sets of feature *ids*. Dense ids are their
/// own ranks: the index is one counting sort over the borrowed sets, its
/// offsets table as long as the ids' range. Ids sparser than that — the
/// URI-file dimension's `u64` charset keys — are ranked first, so
/// the table is as long as the distinct ids and their keys ride along.
/// Whichever table is smaller in the worst case (every id distinct) is
/// the one built.
#[derive(Debug)]
pub(crate) struct IdIndex<F> {
    /// The distinct ids, ascending, when they were ranked.
    keys: Option<Vec<F>>,
    pub(crate) index: FeatureIndex,
}

impl<F: FeatureId> IdIndex<F> {
    /// The most bytes ranking `incidences` ids takes: an offset and a
    /// key per distinct id.
    fn ranked_bytes(incidences: u64) -> u64 {
        incidences * (4 + std::mem::size_of::<F>() as u64)
    }

    /// The most bytes the index over `incidences` ids below `bound` can
    /// hold — its node runs and the smaller table — known from slice
    /// lengths before it is built, and monotone in both.
    pub(crate) fn max_bytes(incidences: u64, bound: u64) -> u64 {
        4 * (incidences + 1) + Self::ranked_bytes(incidences).min(bound.saturating_mul(4))
    }

    /// The index over `sets` — one per node from 0 up, each
    /// duplicate-free, so every posting comes out sorted and unique.
    pub(crate) fn over<S: AsRef<[F]>>(sets: &[S]) -> Option<Self> {
        let ids = || sets.iter().flat_map(|set| set.as_ref().iter().copied());
        let incidences: u64 = sets.iter().map(|set| set.as_ref().len() as u64).sum();
        let widest = ids().map(F::widen).max();
        let bound = widest.map_or(0, |max| max.saturating_add(1));
        let ranked = Self::ranked_bytes(incidences) < bound.saturating_mul(4);
        let keys = ranked.then(|| distinct(ids()));
        let features = keys.as_ref().map_or(bound as usize, Vec::len);
        let rank = |&id: &F| rank_in(&keys, id).unwrap_or(u32::MAX);
        let rows = sets.iter().map(|set| set.as_ref().iter().map(rank));
        let index = FeatureIndex::transpose(features, rows)?;
        Some(Self { keys, index })
    }

    /// The rank `id` is indexed under; `None` for a ranked id the sets
    /// never held (a dense one past them ranks, onto an empty posting).
    pub(crate) fn rank(&self, id: F) -> Option<u32> {
        rank_in(&self.keys, id)
    }
}

fn rank_in<F: FeatureId>(keys: &Option<Vec<F>>, id: F) -> Option<u32> {
    match keys {
        Some(keys) => keys.binary_search(&id).ok().map(|rank| rank as u32),
        None => u32::try_from(id.widen()).ok(),
    }
}

/// The ranking helper for features that are not dense ids (`u64` charset
/// keys, size buckets, namespaced strings): the distinct keys, ascending.
/// A key's rank is its position (`binary_search`), so rank order *is*
/// key order and whatever breaks ties by rank breaks them by key.
pub(crate) fn distinct<K: Ord>(keys: impl Iterator<Item = K>) -> Vec<K> {
    let mut keys: Vec<K> = keys.collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index_of(features: usize, rows: &[Vec<u32>]) -> FeatureIndex {
        FeatureIndex::transpose(features, rows.iter().map(|row| row.iter().copied()))
            .expect("a handful of incidences")
    }

    #[test]
    fn transpose_deals_nodes_out_ascending() {
        // Rows need not ascend; the nodes of a feature do, because
        // nodes are dealt in node order.
        let index = index_of(4, &[vec![3, 0], vec![], vec![0, 2], vec![0]]);
        let rows: Vec<&[u32]> = index.rows().collect();
        let expected: [&[u32]; 4] = [&[0, 2, 3], &[], &[2], &[0]];
        assert_eq!(rows, expected);
        assert_eq!(index.incidences(), 5);
        assert_eq!(index.window(), (0, 3));
        assert_eq!(index_of(2, &[vec![], vec![1], vec![]]).window(), (1, 1));
        assert_eq!(index.row(4), &[] as &[u32], "past the last rank");
        assert_eq!(index_of(0, &[]).rows().count(), 0);
        // A rank not below `features` is neither dealt nor counted.
        let clipped = index_of(2, &[vec![0, 2], vec![5, 1]]);
        assert_eq!(
            clipped.rows().collect::<Vec<_>>(),
            [&[0u32] as &[u32], &[1]]
        );
        assert_eq!(clipped.incidences(), 2);
    }

    #[test]
    fn kernel_counts_inside_the_window_only() {
        // Features 0 and 1 on nodes {0, 1, 2, 4} and {1, 4}.
        let index = index_of(2, &[vec![0], vec![0, 1], vec![0], vec![], vec![0, 1]]);
        let mut shared = [0u32; 3];
        let mut fresh = Vec::new();
        let steps = index.count_shared([0, 1], (1, 3), &mut shared, |v| fresh.push(v));
        assert_eq!(shared, [2, 1, 0], "nodes 1..=3; node 4 is outside");
        assert_eq!(fresh, vec![1, 2], "each node once, at its first bump");
        assert_eq!(steps, 3);
        // An empty window (first > last: the last node's later nodes).
        assert_eq!(index.count_shared([0, 1], (5, 4), &mut [], |_| {}), 0);
    }

    #[test]
    fn ids_are_their_own_ranks_until_they_are_sparse() {
        // Six incidences of ids below 5: a 5-slot offsets table beats
        // ranking, and an id the sets never held still has a (empty)
        // posting.
        let sets: [&[u32]; 3] = [&[0, 4], &[1, 4], &[0, 4]];
        let dense = IdIndex::over(&sets).expect("6 incidences");
        assert_eq!(dense.rank(4), Some(4));
        assert_eq!(dense.index.row(4), &[0, 1, 2]);
        assert_eq!(dense.index.window(), (0, 2));
        assert_eq!(
            dense.rank(3).map(|r| dense.index.row(r as usize).len()),
            Some(0)
        );
        assert_eq!(IdIndex::<u32>::max_bytes(6, 5), 4 * (6 + 5 + 1));
        // The same shape over ids up to 4 000: ranked, three postings,
        // and an absent id has no rank at all.
        let sets: [&[u32]; 3] = [&[0, 4_000], &[100, 4_000], &[0, 4_000]];
        let ranked = IdIndex::over(&sets).expect("6 incidences");
        assert_eq!(ranked.index.len(), 3);
        assert_eq!(ranked.rank(4_000), Some(2));
        assert_eq!(ranked.index.row(2), &[0, 1, 2]);
        assert_eq!(ranked.index.row(1), &[1]);
        assert_eq!(ranked.rank(3), None);
        // Sized for the worst case: every id distinct, a key and an
        // offset each.
        assert_eq!(IdIndex::<u32>::max_bytes(6, 4_001), 4 * (6 + 1) + 6 * 8);
        assert_eq!(IdIndex::<u64>::max_bytes(6, 4_001), 4 * (6 + 1) + 6 * 12);
    }

    #[test]
    fn distinct_keys_ascend() {
        let keys = distinct(["n:b", "a:z", "n:b", "e:q"].into_iter());
        assert_eq!(keys, vec!["a:z", "e:q", "n:b"]);
    }
}
