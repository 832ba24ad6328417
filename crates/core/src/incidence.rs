//! The feature × node incidence matrix, transposed once (DESIGN.md §5).
//!
//! Every set similarity in the paper is a function of how many features
//! two servers share — eq. 8 is by its own words "the same form as
//! eq. 1" — and §VI's scalability remark is that those counts are the
//! sparse product `A·Aᵀ` of the incidence matrix `A`. [`FeatureIndex`]
//! is `Aᵀ`, built by the one transposition routine; its
//! [`count_shared`](FeatureIndex::count_shared) is one row of the
//! product, the one shared-count kernel. The LSH rare path walks the
//! index's short postings, the client dimension scores each candidate
//! row against it, the co-occurrence dimensions every row: who proposes
//! the partners differs, the counting does not.

/// Feature → nodes in CSR form: every node's feature row transposed,
/// each feature's nodes ascending. (Not the arena's "postings",
/// DESIGN.md §12.3: those are server → features, the rows of `A`.)
#[derive(Debug)]
pub(crate) struct FeatureIndex {
    /// Feature `f`'s nodes are `nodes[offsets[f]..offsets[f + 1]]`.
    offsets: Vec<u32>,
    nodes: Vec<u32>,
}

impl FeatureIndex {
    /// Transposes `rows` — one per node, node id = position, each a
    /// duplicate-free run of feature ranks below `features` — by
    /// counting sort. `None` when the incidences outnumber what the
    /// `u32` offsets can address.
    pub(crate) fn transpose<R: IntoIterator<Item = u32>>(
        features: usize,
        rows: impl Iterator<Item = R> + Clone,
    ) -> Option<Self> {
        // Count each feature's nodes, turn the counts into run starts,
        // then deal the nodes out in node order — so each run ascends —
        // advancing the feature's start as its cursor.
        let mut offsets = vec![0u32; features + 1];
        for feature in rows.clone().flatten() {
            if let Some(count) = offsets.get_mut(feature as usize) {
                *count = count.checked_add(1)?;
            }
        }
        let mut start = 0u32;
        for slot in &mut offsets {
            let count = *slot;
            *slot = start;
            start = start.checked_add(count)?;
        }
        let mut nodes = vec![0u32; start as usize];
        for (node, row) in (0u32..).zip(rows) {
            for feature in row {
                let Some(cursor) = offsets.get_mut(feature as usize) else {
                    continue;
                };
                if let Some(slot) = nodes.get_mut(*cursor as usize) {
                    *slot = node;
                }
                *cursor += 1;
            }
        }
        // Every cursor ended on its run's end, which is the next run's
        // start: shift them up one feature and the table is whole again.
        offsets.rotate_right(1);
        if let Some(first) = offsets.first_mut() {
            *first = 0;
        }
        Some(Self { offsets, nodes })
    }

    /// The (feature, node) incidences held.
    pub(crate) fn incidences(&self) -> usize {
        self.nodes.len()
    }

    /// The nodes `feature` was seen on, ascending.
    pub(crate) fn nodes_of(&self, feature: u32) -> &[u32] {
        let at = feature as usize;
        match self.offsets.get(at..at + 2) {
            Some(&[lo, hi]) => self.nodes.get(lo as usize..hi as usize),
            _ => None,
        }
        .unwrap_or_default()
    }

    /// Every feature with its nodes, in rank order.
    pub(crate) fn postings(&self) -> impl Iterator<Item = (u32, &[u32])> {
        let features = self.offsets.len().saturating_sub(1);
        (0u32..).take(features).map(|f| (f, self.nodes_of(f)))
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
            let nodes = self.nodes_of(feature);
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
        // Rows need not ascend; the runs do, because nodes are dealt
        // in node order.
        let index = index_of(4, &[vec![3, 0], vec![], vec![0, 2], vec![0]]);
        let postings: Vec<(u32, &[u32])> = index.postings().collect();
        let expected: [(u32, &[u32]); 4] = [(0, &[0, 2, 3]), (1, &[]), (2, &[2]), (3, &[0])];
        assert_eq!(postings, expected);
        assert_eq!(index.incidences(), 5);
        assert_eq!(index.nodes_of(4), &[] as &[u32], "past the last rank");
        assert_eq!(index_of(0, &[]).postings().count(), 0);
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
    fn distinct_keys_ascend() {
        let keys = distinct(["n:b", "a:z", "n:b", "e:q"].into_iter());
        assert_eq!(keys, vec!["a:z", "e:q", "n:b"]);
    }
}
