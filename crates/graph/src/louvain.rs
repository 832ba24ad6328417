//! Louvain community detection (Blondel et al. 2008).
//!
//! This is the clustering algorithm the SMASH paper uses to extract
//! Associated Server Herds from each per-dimension similarity graph:
//! it greedily maximizes [modularity](mod@crate::modularity) through repeated
//! local-move passes followed by graph aggregation.

use crate::graph::{Graph, GraphBuilder, NodeId};
use crate::modularity::modularity;
use crate::partition::Partition;
use smash_support::governor::CancelToken;
use smash_support::rng::{DetRng, SeedableRng, SliceRandom};
use std::collections::HashMap;

/// How many local moves run between cancellation polls: frequent enough
/// that a deadline stops a huge level promptly, rare enough that the
/// atomic load never shows up in a profile.
const CANCEL_POLL_STRIDE: usize = 1024;

/// Configurable Louvain runner.
///
/// Deterministic for a fixed seed: node visit order inside each local-move
/// pass is shuffled by a seeded SplitMix64 RNG.
///
/// # Example
///
/// ```
/// use smash_graph::{GraphBuilder, Louvain, modularity};
///
/// let mut b = GraphBuilder::new();
/// for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
///     b.add_edge(u, v, 1.0);
/// }
/// b.add_edge(2, 3, 0.05);
/// let g = b.build();
/// let p = Louvain::new().with_seed(7).run(&g);
/// assert_eq!(p.community_count(), 2);
/// assert!(modularity(&g, &p) > 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct Louvain {
    seed: u64,
    min_gain: f64,
    max_levels: usize,
    max_passes: usize,
    cancel: Option<CancelToken>,
}

impl Default for Louvain {
    fn default() -> Self {
        Self {
            seed: 0,
            min_gain: 1e-9,
            max_levels: 32,
            max_passes: 64,
            cancel: None,
        }
    }
}

impl Louvain {
    /// Creates a runner with default parameters (seed 0, gain ε = 1e-9).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the RNG seed controlling node visit order.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the minimum modularity gain required to keep iterating.
    ///
    /// # Panics
    ///
    /// Panics if `min_gain` is negative or not finite.
    pub fn with_min_gain(mut self, min_gain: f64) -> Self {
        assert!(
            min_gain.is_finite() && min_gain >= 0.0,
            "min_gain must be a non-negative finite value"
        );
        self.min_gain = min_gain;
        self
    }

    /// Caps the number of aggregation levels (default 32).
    pub fn with_max_levels(mut self, max_levels: usize) -> Self {
        self.max_levels = max_levels.max(1);
        self
    }

    /// Attaches a cooperative cancellation token: the runner polls it at
    /// every aggregation level, every local-move pass, and every
    /// `CANCEL_POLL_STRIDE` node moves, and unwinds (via
    /// [`CancelToken::bail`]) once it is cancelled — so a deadline set by
    /// the resource governor stops mining mid-level instead of after it.
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Runs Louvain on `graph` and returns the final partition over the
    /// *original* nodes.
    pub fn run(&self, graph: &Graph) -> Partition {
        self.run_with_stats(graph).0
    }

    /// [`run`](Self::run), also reporting how hard the optimization
    /// worked: aggregation levels, total local-move passes, and the final
    /// partition's modularity — the numbers behind the pipeline's
    /// per-dimension `louvain/*` metrics.
    pub fn run_with_stats(&self, graph: &Graph) -> (Partition, LouvainStats) {
        let n = graph.node_count();
        if n == 0 {
            return (
                Partition::from_assignment(vec![]),
                LouvainStats {
                    levels: 0,
                    passes: 0,
                    modularity: 0.0,
                },
            );
        }
        let mut rng = DetRng::seed_from_u64(self.seed);
        // node -> community over original nodes, refined level by level.
        let mut membership: Vec<u32> = (0..n as u32).collect();
        // Level 0 runs on the caller's graph; only aggregated levels
        // are owned.
        let mut aggregated: Option<Graph> = None;
        let mut stats = LouvainStats {
            levels: 0,
            passes: 0,
            modularity: 0.0,
        };
        for _level in 0..self.max_levels {
            if let Some(t) = &self.cancel {
                t.bail();
            }
            let level_graph = aggregated.as_ref().unwrap_or(graph);
            let (local, improved, passes) = self.one_level(level_graph, &mut rng);
            stats.passes += passes;
            if !improved {
                break;
            }
            stats.levels += 1;
            let local = Partition::from_assignment(local);
            // Compose: original node -> old level community -> new community.
            for m in membership.iter_mut() {
                *m = local.community_of(*m);
            }
            if local.community_count() == level_graph.node_count() {
                break;
            }
            aggregated = Some(aggregate(level_graph, &local));
        }
        let partition = Partition::from_assignment(membership);
        stats.modularity = modularity(graph, &partition);
        (partition, stats)
    }

    /// One level of local moves. Returns the raw assignment, whether any
    /// node changed community, and how many passes ran.
    fn one_level(&self, g: &Graph, rng: &mut DetRng) -> (Vec<u32>, bool, u32) {
        let n = g.node_count();
        let two_m = 2.0 * g.total_weight();
        let mut community: Vec<u32> = (0..n as u32).collect();
        if two_m <= 0.0 {
            return (community, false, 0);
        }
        // tot[c]: sum of degrees of nodes in community c.
        let mut tot: Vec<f64> = (0..n).map(|u| g.degree(u as NodeId)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let mut improved_any = false;
        // Scratch: weight from the current node to each neighboring community.
        let mut neigh_weight: Vec<f64> = vec![0.0; n];
        let mut neigh_comms: Vec<u32> = Vec::new();
        let mut passes = 0u32;
        let mut moves_since_poll = 0usize;
        // All community ids stay < n (they start as node ids and only ever
        // take values of existing communities), so every `[..]` below is in
        // bounds by construction; the allows record that invariant.
        for _pass in 0..self.max_passes {
            passes += 1;
            if let Some(t) = &self.cancel {
                t.bail();
            }
            let mut moved = 0usize;
            for &u in &order {
                if let Some(t) = &self.cancel {
                    moves_since_poll += 1;
                    if moves_since_poll >= CANCEL_POLL_STRIDE {
                        moves_since_poll = 0;
                        t.bail();
                    }
                }
                let cu = community[u]; // lint:allow(index): u < n from `order`
                let ku = g.degree(u as NodeId);
                // Collect weights to neighboring communities; self-loops do
                // not affect move gain and are skipped.
                neigh_comms.clear();
                for &(v, w) in g.neighbors(u as NodeId) {
                    if v as usize == u {
                        continue;
                    }
                    let cv = community[v as usize]; // lint:allow(index): graph neighbor ids are < n
                    if neigh_weight[cv as usize] == 0.0 {
                        // lint:allow(index): community ids are < n
                        neigh_comms.push(cv);
                    }
                    neigh_weight[cv as usize] += w; // lint:allow(index): community ids are < n
                }
                // Remove u from its community.
                tot[cu as usize] -= ku; // lint:allow(index): community ids are < n
                let w_to_own = neigh_weight[cu as usize]; // lint:allow(index): community ids are < n
                                                          // Gain of joining community c: w(u,c) - ku * tot_c / 2m.
                let mut best_c = cu;
                let mut best_gain = w_to_own - ku * tot[cu as usize] / two_m; // lint:allow(index): community ids are < n
                for &c in &neigh_comms {
                    if c == cu {
                        continue;
                    }
                    let gain = neigh_weight[c as usize] - ku * tot[c as usize] / two_m; // lint:allow(index): community ids are < n
                                                                                        // Deterministic tie-break: prefer the smaller community id.
                    let better = gain > best_gain + self.min_gain
                        || ((gain - best_gain).abs() <= self.min_gain && c < best_c);
                    if better {
                        best_gain = best_gain.max(gain);
                        best_c = c;
                    }
                }
                tot[best_c as usize] += ku; // lint:allow(index): community ids are < n
                if best_c != cu {
                    community[u] = best_c; // lint:allow(index): u < n from `order`
                    moved += 1;
                    improved_any = true;
                }
                for &c in &neigh_comms {
                    neigh_weight[c as usize] = 0.0; // lint:allow(index): community ids are < n
                }
            }
            if moved == 0 {
                break;
            }
        }
        (community, improved_any, passes)
    }
}

/// How hard one [`Louvain`] run worked, from
/// [`run_with_stats`](Louvain::run_with_stats).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LouvainStats {
    /// Aggregation levels that improved the partition.
    pub levels: u32,
    /// Total local-move passes across all levels.
    pub passes: u32,
    /// Modularity of the final partition over the original graph.
    pub modularity: f64,
}

/// Builds the aggregated graph of a partition: one node per community,
/// intra-community weight becomes a self-loop, inter-community weights sum
/// into single edges.
///
/// Each community pair's weight is summed in [`Graph::edges`] order —
/// the order a [`GraphBuilder`] fed every edge would sum it in, so the
/// floats are the same — and only the distinct pairs, ascending, reach
/// the builder: a level of 300 000 edges that collapses to a dozen
/// sorts a dozen.
fn aggregate(g: &Graph, p: &Partition) -> Graph {
    let mut slot_of: HashMap<(NodeId, NodeId), usize> = HashMap::new();
    let mut pairs: Vec<((NodeId, NodeId), f64)> = Vec::new();
    for (u, v, w) in g.edges() {
        let (cu, cv) = (p.community_of(u), p.community_of(v));
        let key = (cu.min(cv), cu.max(cv));
        match slot_of.get(&key).and_then(|&slot| pairs.get_mut(slot)) {
            Some((_, sum)) => *sum += w,
            None => {
                slot_of.insert(key, pairs.len());
                pairs.push((key, w));
            }
        }
    }
    pairs.sort_unstable_by_key(|&(key, _)| key);
    let mut b = GraphBuilder::with_nodes(p.community_count());
    for ((cu, cv), w) in pairs {
        b.add_edge(cu, cv, w);
    }
    b.build()
}

/// Convenience: runs Louvain with default parameters and returns both the
/// partition and its modularity.
pub fn louvain_with_quality(graph: &Graph) -> (Partition, f64) {
    let p = Louvain::new().run(graph);
    let q = modularity(graph, &p);
    (p, q)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clique_chain(cliques: usize, size: usize, bridge_w: f64) -> Graph {
        let mut b = GraphBuilder::new();
        for c in 0..cliques {
            let base = (c * size) as NodeId;
            for i in 0..size {
                for j in (i + 1)..size {
                    b.add_edge(base + i as NodeId, base + j as NodeId, 1.0);
                }
            }
            if c + 1 < cliques {
                b.add_edge(base + (size - 1) as NodeId, base + size as NodeId, bridge_w);
            }
        }
        b.build()
    }

    #[test]
    fn finds_cliques() {
        let g = clique_chain(4, 5, 0.1);
        let p = Louvain::new().run(&g);
        assert_eq!(p.community_count(), 4);
        for c in 0..4u32 {
            let base = c * 5;
            for i in 1..5 {
                assert_eq!(p.community_of(base), p.community_of(base + i));
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new().build();
        let p = Louvain::new().run(&g);
        assert_eq!(p.community_count(), 0);
    }

    #[test]
    fn no_edges_all_singletons() {
        let mut b = GraphBuilder::new();
        b.ensure_node(4);
        let g = b.build();
        let p = Louvain::new().run(&g);
        assert_eq!(p.community_count(), 5);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = clique_chain(3, 4, 0.2);
        let p1 = Louvain::new().with_seed(42).run(&g);
        let p2 = Louvain::new().with_seed(42).run(&g);
        assert_eq!(p1, p2);
    }

    #[test]
    fn improves_over_singletons() {
        let g = clique_chain(3, 6, 0.1);
        let (p, q) = louvain_with_quality(&g);
        let q0 = modularity(&g, &Partition::singletons(g.node_count()));
        assert!(q > q0, "q = {q}, q0 = {q0}");
        assert!(p.community_count() < g.node_count());
    }

    #[test]
    fn single_edge_pair_merges() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        let g = b.build();
        let p = Louvain::new().run(&g);
        assert_eq!(p.community_of(0), p.community_of(1));
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(2, 3, 1.0);
        let g = b.build();
        let p = Louvain::new().run(&g);
        assert_ne!(p.community_of(0), p.community_of(2));
        assert_eq!(p.community_count(), 2);
    }

    #[test]
    fn aggregation_preserves_total_weight() {
        let g = clique_chain(2, 4, 0.5);
        let p = Partition::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let agg = aggregate(&g, &p);
        assert!((agg.total_weight() - g.total_weight()).abs() < 1e-9);
        assert_eq!(agg.node_count(), 2);
    }

    /// The route `aggregate` replaced: every level edge into one
    /// builder, which stable-sorts them and sums duplicates front to
    /// back.
    fn aggregate_through_the_builder(g: &Graph, p: &Partition) -> Graph {
        let mut b = GraphBuilder::with_nodes(p.community_count());
        for (u, v, w) in g.edges() {
            b.add_edge(p.community_of(u), p.community_of(v), w);
        }
        b.build()
    }

    #[test]
    fn aggregate_is_the_builder_route_bit_for_bit() {
        use smash_support::check::{check, Gen};
        check(
            |g: &mut Gen| {
                let n = g.range(1..40u32);
                let edges = g.vec(0..150usize, |g| {
                    (g.range(0..n), g.range(0..n), g.range(0.001f64..3.0))
                });
                let communities = g.range(1..=n);
                let labels = g.vec(n as usize..=n as usize, |g| g.range(0..communities));
                (n, edges, labels)
            },
            |(n, edges, labels)| {
                let mut b = GraphBuilder::new();
                b.ensure_node(n - 1);
                for &(u, v, w) in edges {
                    b.add_edge(u, v, w);
                }
                let g = b.build();
                let p = Partition::from_assignment(labels.clone());
                let (got, want) = (aggregate(&g, &p), aggregate_through_the_builder(&g, &p));
                let bits = |g: &Graph| {
                    let rows: Vec<Vec<(NodeId, u64)>> = (0..g.node_count() as NodeId)
                        .map(|u| {
                            g.neighbors(u)
                                .iter()
                                .map(|&(v, w)| (v, w.to_bits()))
                                .collect()
                        })
                        .collect();
                    let degrees: Vec<u64> = (0..g.node_count() as NodeId)
                        .map(|u| g.degree(u).to_bits())
                        .collect();
                    (rows, degrees, g.total_weight().to_bits(), g.edge_count())
                };
                assert_eq!(bits(&got), bits(&want));
            },
        );
    }

    #[test]
    fn cancelled_token_unwinds_out_of_the_run() {
        let g = clique_chain(6, 6, 0.2);
        let token = CancelToken::new();
        token.cancel("governor: test cancellation");
        let runner = Louvain::new().with_cancel(&token);
        let err = smash_support::par::run_isolated(|| runner.run(&g)).unwrap_err();
        assert!(err.contains("governor: test cancellation"), "got: {err}");
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let g = clique_chain(4, 5, 0.1);
        let token = CancelToken::new();
        let p1 = Louvain::new().with_seed(3).run(&g);
        let p2 = Louvain::new().with_seed(3).with_cancel(&token).run(&g);
        assert_eq!(p1, p2);
    }

    #[test]
    fn star_graph_collapses() {
        let mut b = GraphBuilder::new();
        for leaf in 1..=6 {
            b.add_edge(0, leaf, 1.0);
        }
        let g = b.build();
        let p = Louvain::new().run(&g);
        // A star has no modularity-positive split that isolates the hub's
        // leaves individually; every leaf ends with the hub or a sibling.
        assert!(p.community_count() < 7);
    }
}
