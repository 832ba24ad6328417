//! Property-based tests for the graph substrate invariants.

use smash_graph::{
    connected_components, density, modularity, Graph, GraphBuilder, Louvain, Partition, UnionFind,
};
use smash_support::check::{check, Gen};
use std::collections::HashMap;

/// Generator: a random small edge list over up to `n` nodes.
fn edges(g: &mut Gen, n: u32, max_edges: usize) -> Vec<(u32, u32, f64)> {
    g.vec(0..max_edges, |g| {
        (g.range(0..n), g.range(0..n), g.range(0.01f64..10.0))
    })
}

#[test]
fn louvain_partition_covers_all_nodes() {
    check(
        |g| (edges(g, 30, 60), g.range(0u64..1000)),
        |(es, seed)| {
            let mut b = GraphBuilder::new();
            b.ensure_node(29);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Louvain::new().with_seed(*seed).run(&g);
            assert_eq!(p.node_count(), g.node_count());
            // Every community id is within range and every community non-empty.
            let comms = p.communities();
            assert_eq!(comms.len(), p.community_count());
            assert!(comms.iter().all(|c| !c.is_empty()));
            let total: usize = comms.iter().map(|c| c.len()).sum();
            assert_eq!(total, g.node_count());
        },
    );
}

#[test]
fn louvain_never_beaten_by_singletons() {
    check(
        |g| edges(g, 25, 50),
        |es| {
            let mut b = GraphBuilder::new();
            b.ensure_node(24);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Louvain::new().run(&g);
            let q = modularity(&g, &p);
            let q0 = modularity(&g, &Partition::singletons(g.node_count()));
            assert!(q >= q0 - 1e-9, "louvain q={q} < singleton q={q0}");
        },
    );
}

#[test]
fn louvain_communities_are_connected_subsets_of_components() {
    check(
        |g| edges(g, 20, 40),
        |es| {
            let mut b = GraphBuilder::new();
            b.ensure_node(19);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Louvain::new().run(&g);
            let cc = connected_components(&g);
            // No Louvain community may straddle two connected components.
            for comm in p.communities() {
                let first = cc.community_of(comm[0]);
                for &node in &comm {
                    assert_eq!(cc.community_of(node), first);
                }
            }
        },
    );
}

#[test]
fn modularity_in_range() {
    check(
        |g| (edges(g, 20, 50), g.vec(20..=20, |g| g.range(0u32..5))),
        |(es, labels)| {
            let mut b = GraphBuilder::new();
            b.ensure_node(19);
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let p = Partition::from_assignment(labels.clone());
            let q = modularity(&g, &p);
            assert!((-1.0..=1.0).contains(&q), "q = {q}");
        },
    );
}

#[test]
fn density_in_unit_range() {
    check(
        |g| (edges(g, 15, 30), g.vec(0..10, |g| g.range(0u32..15))),
        |(es, members)| {
            let mut b = GraphBuilder::new();
            b.ensure_node(14);
            for (u, v, w) in es {
                if u != v {
                    b.add_edge(*u, *v, *w);
                }
            }
            let g = b.build();
            let mut m = members.clone();
            m.sort_unstable();
            m.dedup();
            let d = density(&g, &m);
            assert!((0.0..=1.0).contains(&d), "d = {d}");
        },
    );
}

#[test]
fn union_find_equivalence_is_transitive() {
    check(
        |g| g.vec(0..30, |g| (g.range(0usize..20), g.range(0usize..20))),
        |pairs| {
            let mut uf = UnionFind::new(20);
            for (a, b) in pairs {
                uf.union(*a, *b);
            }
            let groups = uf.clone().into_groups();
            let total: usize = groups.iter().map(|g| g.len()).sum();
            assert_eq!(total, 20);
            assert_eq!(groups.len(), uf.set_count());
            // Each member of a group agrees on its representative.
            for g in &groups {
                for &x in g {
                    assert!(uf.same(g[0], x));
                }
            }
        },
    );
}

#[test]
fn graph_total_weight_is_edge_sum() {
    check(
        |g| edges(g, 15, 30),
        |es| {
            let mut b = GraphBuilder::new();
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            let sum: f64 = g.edges().map(|(_, _, w)| w).sum();
            assert!((sum - g.total_weight()).abs() < 1e-9);
        },
    );
}

#[test]
fn graph_degree_symmetry() {
    check(
        |g| edges(g, 15, 30),
        |es| {
            let mut b = GraphBuilder::new();
            for (u, v, w) in es {
                b.add_edge(*u, *v, *w);
            }
            let g = b.build();
            // Sum of degrees equals 2 * total weight (handshake lemma,
            // self-loops counted twice).
            let deg_sum: f64 = (0..g.node_count()).map(|u| g.degree(u as u32)).sum();
            assert!((deg_sum - 2.0 * g.total_weight()).abs() < 1e-9);
        },
    );
}

/// The `HashMap`-backed builder `GraphBuilder` replaced, kept as its
/// reference model: duplicates accumulate in the map in insertion
/// order, `build` sorts the map's entries by key and then every
/// adjacency row by neighbor.
#[derive(Default)]
struct ModelBuilder {
    edges: HashMap<(u32, u32), f64>,
    max_node: Option<u32>,
}

struct ModelGraph {
    adj: Vec<Vec<(u32, f64)>>,
    degree: Vec<f64>,
    total_weight: f64,
}

impl ModelBuilder {
    fn ensure_node(&mut self, u: u32) {
        self.max_node = Some(self.max_node.map_or(u, |m| m.max(u)));
    }

    fn add_edge(&mut self, u: u32, v: u32, weight: f64) {
        self.ensure_node(u);
        self.ensure_node(v);
        *self.edges.entry((u.min(v), u.max(v))).or_insert(0.0) += weight;
    }

    fn build(&self) -> ModelGraph {
        let n = self.max_node.map_or(0, |m| m as usize + 1);
        let mut g = ModelGraph {
            adj: vec![Vec::new(); n],
            degree: vec![0.0; n],
            total_weight: 0.0,
        };
        let mut edges: Vec<((u32, u32), f64)> = self.edges.iter().map(|(&k, &w)| (k, w)).collect();
        edges.sort_unstable_by_key(|e| e.0);
        for ((u, v), w) in edges {
            if u == v {
                g.adj[u as usize].push((v, w));
                g.degree[u as usize] += 2.0 * w;
            } else {
                g.adj[u as usize].push((v, w));
                g.degree[u as usize] += w;
                g.adj[v as usize].push((u, w));
                g.degree[v as usize] += w;
            }
            g.total_weight += w;
        }
        for row in &mut g.adj {
            row.sort_unstable_by_key(|&(v, _)| v);
        }
        g
    }
}

/// Bit-for-bit equality of a built graph with the reference model's.
fn assert_same_bits(g: &Graph, model: &ModelGraph) {
    assert_eq!(g.node_count(), model.adj.len());
    let bits = |row: &[(u32, f64)]| -> Vec<(u32, u64)> {
        row.iter().map(|&(v, w)| (v, w.to_bits())).collect()
    };
    for (u, row) in model.adj.iter().enumerate() {
        assert_eq!(bits(g.neighbors(u as u32)), bits(row), "row {u}");
        assert_eq!(
            g.degree(u as u32).to_bits(),
            model.degree[u].to_bits(),
            "degree of {u}"
        );
    }
    assert_eq!(g.total_weight().to_bits(), model.total_weight.to_bits());
    let model_edges: usize = model
        .adj
        .iter()
        .enumerate()
        .map(|(u, row)| row.iter().filter(|&&(v, _)| v as usize >= u).count())
        .sum();
    assert_eq!(g.edge_count(), model_edges);
}

/// Generator: an edge stream over few nodes (so duplicates, both
/// orientations and self-loops are common) with few distinct weights
/// (so thinning meets ties), arriving as drawn, sorted by key with its
/// duplicates, or strictly ascending — the arrival the builder's
/// no-sort path recognizes.
fn edge_stream(g: &mut Gen) -> Vec<(u32, u32, f64)> {
    let mut es = g.vec(0..80, |g| {
        let w = *g.pick(&[0.1, 0.25, 0.5, 1.0, 1.0 / 3.0, 2.0, 7.5]);
        (g.range(0u32..12), g.range(0u32..12), w)
    });
    let key = |&(u, v, _): &(u32, u32, f64)| (u.min(v), u.max(v));
    match g.range(0u8..3) {
        0 => {}
        1 => es.sort_by_key(key),
        _ => {
            es.sort_by_key(key);
            es.dedup_by_key(|e| key(e));
        }
    }
    es
}

#[test]
fn builder_matches_the_hashmap_reference_model_to_the_bit() {
    check(
        |g| (edge_stream(g), g.range(0u32..16)),
        |(es, isolated)| {
            let mut b = GraphBuilder::new();
            let mut model = ModelBuilder::default();
            b.ensure_node(*isolated);
            model.ensure_node(*isolated);
            for &(u, v, w) in es {
                b.add_edge(u, v, w);
                model.add_edge(u, v, w);
            }
            assert_eq!(b.edge_count(), model.edges.len());
            assert_same_bits(&b.build(), &model.build());
        },
    );
}
