//! ASH mining: Louvain community detection per dimension (paper §III-B3).

use crate::ash::{Ash, MinedDimension};
use crate::dimensions::DimensionKind;
use smash_graph::{Graph, Louvain};
use smash_support::governor::CancelToken;
use smash_support::metrics::Registry;
use smash_trace::ServerId;
use std::collections::HashMap;

/// Extracts the Associated Server Herds of one dimension graph.
///
/// Communities come from Louvain; only communities of at least two
/// *connected* servers become herds (singletons cannot be "associated").
/// `nodes[i]` is the server behind graph node `i`.
pub fn mine(kind: DimensionKind, graph: Graph, nodes: &[ServerId], seed: u64) -> MinedDimension {
    mine_with_metrics(kind, graph, nodes, seed, &Registry::new())
}

/// [`mine`], also recording how hard Louvain worked into `metrics`:
/// `louvain/<kind>/levels` and `louvain/<kind>/passes` counters plus a
/// `louvain/<kind>/modularity` gauge (see DESIGN.md §7).
pub fn mine_with_metrics(
    kind: DimensionKind,
    graph: Graph,
    nodes: &[ServerId],
    seed: u64,
    metrics: &Registry,
) -> MinedDimension {
    mine_governed(kind, graph, nodes, seed, metrics, None)
}

/// [`mine_with_metrics`] under governor control: when `cancel` is given,
/// Louvain polls it between local moves, so a deadline or a cancel
/// unwinds out of mining instead of letting a huge level run to the end.
pub fn mine_governed(
    kind: DimensionKind,
    graph: Graph,
    nodes: &[ServerId],
    seed: u64,
    metrics: &Registry,
    cancel: Option<&CancelToken>,
) -> MinedDimension {
    assert_eq!(
        graph.node_count(),
        nodes.len(),
        "graph nodes ({}) must match server list ({})",
        graph.node_count(),
        nodes.len()
    );
    let mut louvain = Louvain::new().with_seed(seed);
    if let Some(t) = cancel {
        louvain = louvain.with_cancel(t);
    }
    let (partition, stats) = louvain.run_with_stats(&graph);
    metrics
        .counter(&format!("louvain/{kind}/levels"))
        .add(stats.levels as u64);
    metrics
        .counter(&format!("louvain/{kind}/passes"))
        .add(stats.passes as u64);
    metrics
        .gauge(&format!("louvain/{kind}/modularity"))
        .set(stats.modularity);
    // Every community's internal edges (self-loops excluded), counted in
    // one pass over the graph: `smash_graph::density`'s numerator for all
    // herds at once, as the same integers.
    let assignment = partition.assignment();
    let mut internal = vec![0usize; partition.community_count()];
    for (u, v, _) in graph.edges() {
        let (cu, cv) = (assignment.get(u as usize), assignment.get(v as usize));
        if u != v && cu == cv {
            if let Some(count) = cu.and_then(|&c| internal.get_mut(c as usize)) {
                *count += 1;
            }
        }
    }
    let mut ashes = Vec::new();
    let mut membership = HashMap::new();
    for (community, &edges) in partition.communities().iter().zip(&internal) {
        // Keep only members with at least one edge inside the community —
        // Louvain can only group connected nodes, but guard anyway.
        let d = density_of(community.len(), edges);
        if d <= 0.0 {
            continue;
        }
        let members: Vec<ServerId> = {
            let mut m: Vec<ServerId> = community
                .iter()
                .filter_map(|&n| nodes.get(n as usize).copied())
                .collect();
            m.sort_unstable();
            m
        };
        let idx = ashes.len();
        for &s in &members {
            membership.insert(s, idx);
        }
        ashes.push(Ash {
            members,
            density: d,
        });
    }
    MinedDimension {
        kind,
        graph,
        partition,
        ashes,
        membership,
    }
}

/// [`smash_graph::density`] of a group of `nodes` with `edges` edges
/// inside it: `2·|e| / (|v|·(|v|−1))`, the same float expression, and
/// `0` below two nodes.
fn density_of(nodes: usize, edges: usize) -> f64 {
    if nodes < 2 {
        return 0.0;
    }
    (2.0 * edges as f64) / (nodes as f64 * (nodes as f64 - 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_graph::GraphBuilder;

    #[test]
    fn two_cliques_two_herds() {
        let mut b = GraphBuilder::new();
        for &(u, v) in &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)] {
            b.add_edge(u, v, 1.0);
        }
        b.ensure_node(6); // isolated
        let nodes: Vec<u32> = (100..107).collect();
        let md = mine(DimensionKind::Client, b.build(), &nodes, 0);
        assert_eq!(md.ash_count(), 2);
        assert_eq!(md.herded_server_count(), 6);
        // Server ids are translated through `nodes`.
        assert!(md.ash_of(100).is_some());
        assert!(md.ash_of(106).is_none());
        assert_eq!(md.ash_of(100).unwrap().members, vec![100, 101, 102]);
    }

    #[test]
    fn densities_are_recorded() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 2, 1.0);
        let nodes = vec![0, 1, 2];
        let md = mine(DimensionKind::UriFile, b.build(), &nodes, 0);
        assert_eq!(md.ash_count(), 1);
        // Path of 3 nodes: 2 edges of 3 possible → density 2/3.
        assert!((md.ashes[0].density - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn herd_densities_are_the_reference_density_bit_for_bit() {
        use smash_support::check::{check, Gen};
        check(
            |g: &mut Gen| {
                let n = g.range(1..40u32);
                let edges = g.vec(0..120usize, |g| {
                    (g.range(0..n), g.range(0..n), g.range(0.01f64..2.0))
                });
                (n, edges, g.range(0..1000u64))
            },
            |(n, edges, seed)| {
                let mut b = GraphBuilder::new();
                b.ensure_node(n - 1);
                for &(u, v, w) in edges {
                    b.add_edge(u, v, w);
                }
                let graph = b.build();
                let nodes: Vec<u32> = (0..*n).collect();
                let md = mine(DimensionKind::Client, graph.clone(), &nodes, *seed);
                let herds: Vec<_> = md
                    .partition
                    .communities_min_size(2)
                    .into_iter()
                    .map(|c| (c.clone(), smash_graph::density(&graph, &c)))
                    .filter(|&(_, d)| d > 0.0)
                    .collect();
                assert_eq!(md.ashes.len(), herds.len());
                for (ash, (members, d)) in md.ashes.iter().zip(&herds) {
                    assert_eq!(&ash.members, members);
                    assert_eq!(ash.density.to_bits(), d.to_bits());
                }
            },
        );
    }

    #[test]
    fn empty_graph_no_herds() {
        let md = mine(DimensionKind::IpSet, GraphBuilder::new().build(), &[], 0);
        assert_eq!(md.ash_count(), 0);
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn node_list_mismatch_panics() {
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1, 1.0);
        mine(DimensionKind::Client, b.build(), &[9], 0);
    }
}
