//! Weighted undirected graphs with compact node ids.

/// Compact node identifier used throughout the graph substrate.
///
/// Callers map their own entities (server ids, domains, …) to dense
/// `NodeId`s before building a graph.
pub type NodeId = u32;

/// A weighted, undirected graph stored as an adjacency list.
///
/// Self-loops are allowed (they matter for Louvain's aggregated graphs);
/// parallel edges are merged at build time by summing their weights.
///
/// # Example
///
/// ```
/// use smash_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new();
/// b.add_edge(0, 1, 2.0);
/// b.add_edge(1, 2, 0.5);
/// let g = b.build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// assert!((g.degree(1) - 2.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Graph {
    /// adj[u] = sorted list of (neighbor, weight); self-loop stored once.
    adj: Vec<Vec<(NodeId, f64)>>,
    /// Weighted degree per node (self-loop counted twice, the Louvain convention).
    degree: Vec<f64>,
    /// Sum of all edge weights (each undirected edge once; self-loops once).
    total_weight: f64,
    edge_count: usize,
}

impl Graph {
    /// Number of nodes (including isolated ones).
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct undirected edges (self-loops count as one).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sum of all edge weights, counting each undirected edge once.
    ///
    /// This is the `m` in the modularity formula.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Weighted degree of `u`: sum of incident edge weights, with
    /// self-loops counted twice (the convention modularity expects).
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: NodeId) -> f64 {
        self.degree[u as usize] // lint:allow(index): documented `# Panics` contract for out-of-range ids
    }

    /// Neighbors of `u` with edge weights, in ascending neighbor order.
    ///
    /// A self-loop at `u` appears once as `(u, w)`; an out-of-range `u`
    /// has no neighbors.
    pub fn neighbors(&self, u: NodeId) -> &[(NodeId, f64)] {
        self.adj.get(u as usize).map_or(&[], Vec::as_slice)
    }

    /// Weight of the edge `(u, v)`, or `None` if absent.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let row = self.adj.get(u as usize)?;
        row.binary_search_by_key(&v, |&(n, _)| n)
            .ok()
            .and_then(|i| row.get(i))
            .map(|&(_, w)| w)
    }

    /// Iterates over every undirected edge once as `(u, v, w)` with `u <= v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, row)| {
            let u = u as NodeId;
            row.iter()
                .filter(move |&&(v, _)| v >= u)
                .map(move |&(v, w)| (u, v, w))
        })
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }
}

/// Incremental builder for [`Graph`].
///
/// Nodes are created implicitly by the largest id mentioned; use
/// [`GraphBuilder::ensure_node`] to add isolated nodes. Duplicate edges are
/// merged by summing weights in the order they were added.
///
/// Edges accumulate in a plain list. A producer that appends them in
/// strictly ascending `(min, max)` order — the dimension builders'
/// candidate frame — pays no sorting and no
/// hashing at all; any other arrival order is stable-sorted and merged
/// once, when the builder is first read.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    /// `((u, v), w)` with `u <= v`.
    edges: Vec<((NodeId, NodeId), f64)>,
    /// Whether `edges` is strictly ascending by key (sorted, no
    /// duplicates) — true of every normalized list and of ascending
    /// appends to one.
    ascending: bool,
    max_node: Option<NodeId>,
}

impl Default for GraphBuilder {
    fn default() -> Self {
        Self {
            edges: Vec::new(),
            ascending: true,
            max_node: None,
        }
    }
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder pre-sized for `n` nodes (ids `0..n`).
    pub fn with_nodes(n: usize) -> Self {
        let mut b = Self::new();
        if n > 0 {
            b.ensure_node((n - 1) as NodeId);
        }
        b
    }

    /// Ensures node `u` exists even if it ends up with no edges.
    pub fn ensure_node(&mut self, u: NodeId) -> &mut Self {
        self.max_node = Some(self.max_node.map_or(u, |m| m.max(u)));
        self
    }

    /// Adds (or accumulates onto) the undirected edge `(u, v)`.
    ///
    /// `u == v` creates a self-loop. Weights must be finite.
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not finite.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, weight: f64) -> &mut Self {
        assert!(
            weight.is_finite(),
            "edge weight must be finite, got {weight}"
        );
        self.ensure_node(u);
        self.ensure_node(v);
        let key = if u <= v { (u, v) } else { (v, u) };
        self.ascending &= self.edges.last().is_none_or(|&(last, _)| last < key);
        self.edges.push((key, weight));
        self
    }

    /// Brings the edge list to its canonical form: ascending by key,
    /// one entry per distinct edge. The sort is stable and duplicates
    /// are summed front to back, so a merged weight is the sum of its
    /// parts **in insertion order** — float addition is not
    /// associative, and Louvain's aggregated graphs feed these sums
    /// into `degree`/`total_weight` and from there into tie-breaks.
    fn normalize(&mut self) {
        if self.ascending {
            return;
        }
        self.edges.sort_by_key(|&(key, _)| key);
        self.edges.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        self.ascending = true;
    }

    /// Number of distinct edges added so far (pending duplicates are
    /// merged first).
    pub fn edge_count(&mut self) -> usize {
        self.normalize();
        self.edges.len()
    }

    /// Finalizes the graph.
    pub fn build(&mut self) -> Graph {
        self.normalize();
        let n = self.max_node.map_or(0, |m| m as usize + 1);
        // Counting pass: every row is allocated once at its final size.
        // `u <= v <= max_node < n` by construction, so the lookups here
        // and below cannot miss.
        let mut row_len = vec![0usize; n];
        let mut count = |x: NodeId| {
            if let Some(len) = row_len.get_mut(x as usize) {
                *len += 1;
            }
        };
        for &((u, v), _) in &self.edges {
            count(u);
            if u != v {
                count(v);
            }
        }
        let mut adj: Vec<Vec<(NodeId, f64)>> =
            row_len.into_iter().map(Vec::with_capacity).collect();
        let mut degree = vec![0.0; n];
        let mut total = 0.0;
        // One directed half of an edge: append `(to, w)` to `from`'s row
        // and add `dw` to `from`'s weighted degree.
        let mut add_half = |from: NodeId, to: NodeId, w: f64, dw: f64| {
            if let Some(row) = adj.get_mut(from as usize) {
                row.push((to, w));
            }
            if let Some(d) = degree.get_mut(from as usize) {
                *d += dw;
            }
        };
        // Filling in key order fixes the float accumulation order of
        // `degree`/`total` and leaves every row ascending: row `x` first
        // receives its smaller neighbors (keys `(u, x)`, `u` ascending),
        // then `x` itself and its larger ones (keys `(x, v)`, `v`
        // ascending).
        for &((u, v), w) in &self.edges {
            if u == v {
                add_half(u, v, w, 2.0 * w);
            } else {
                add_half(u, v, w, w);
                add_half(v, u, w, w);
            }
            total += w;
        }
        Graph {
            adj,
            degree,
            total_weight: total,
            edge_count: self.edges.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    fn duplicate_edges_accumulate() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 0, 2.0);
        let g = b.build();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(3.0));
        assert_eq!(g.edge_weight(1, 0), Some(3.0));
    }

    #[test]
    fn self_loop_degree_counts_twice() {
        let mut b = GraphBuilder::new();
        b.add_edge(2, 2, 1.5);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.degree(2), 3.0);
        assert_eq!(g.total_weight(), 1.5);
        assert_eq!(g.neighbors(2), &[(2, 1.5)]);
    }

    #[test]
    fn isolated_nodes_exist() {
        let mut b = GraphBuilder::new();
        b.ensure_node(4);
        let g = b.build();
        assert_eq!(g.node_count(), 5);
        assert!(g.neighbors(4).is_empty());
        assert_eq!(g.degree(4), 0.0);
    }

    #[test]
    fn edges_iterator_visits_each_once() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 2, 0.5);
        let g = b.build();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(edges, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 2, 0.5)]);
        let sum: f64 = edges.iter().map(|e| e.2).sum();
        assert!((sum - g.total_weight()).abs() < 1e-12);
    }

    #[test]
    fn neighbors_sorted() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 5, 1.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 9, 1.0);
        let g = b.build();
        let ns: Vec<NodeId> = g.neighbors(0).iter().map(|&(v, _)| v).collect();
        assert_eq!(ns, vec![2, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weight() {
        GraphBuilder::new().add_edge(0, 1, f64::NAN);
    }
}
