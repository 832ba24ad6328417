//! The main dimension: client-set similarity (paper eq. 1).
//!
//! `Client(Si, Sj) = (|Ci∩Cj| / |Ci|) · (|Ci∩Cj| / |Cj|)` — two servers
//! are similar when their common clients matter to *both* of them.
//! Malicious servers of one campaign are contacted by the same small set
//! of infected clients; benign servers serve diverse crowds.
//!
//! There is no candidate layer: a pair with no client in common scores
//! 0, and the pairs that have one are exactly what an inverted index
//! enumerates — §VI's sparse product `A·Aᵀ`, eq. 8's frame
//! (`super::scan_rows`). One client → nodes index over the arena's
//! borrowed `clients_of` slices, one scan per node over the nodes behind
//! it, eq. 1 on every touched pair: work is `Σ_c C(deg(c), 2)`
//! accumulator increments (`dim/client/scan_steps`) plus the incidences
//! walked, and the graph is the exact one by construction.
//!
//! The index is the stage's one charge, sized by `IdIndex::max_bytes`
//! from slice lengths before it is allocated.

use super::DimensionKind;
use super::{instrumented_builder, overlap_product, scan_rows, Dimension, DimensionContext};
use crate::incidence::IdIndex;
use smash_graph::Graph;

/// Builder of the client-similarity graph.
#[derive(Debug, Clone, Default)]
pub struct ClientDimension;

impl Dimension for ClientDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::Client
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            // Per-node rows: the server's client ids, borrowed straight
            // from the arena's postings (sorted, so a row's widest id is
            // its last).
            //
            // Servers visited by exactly one client get an empty row: the
            // paper handles them in a separate per-client pass (Appendix C),
            // and letting them into the general graph glues each bot's
            // private long-tail browsing onto campaign herds, diluting herd
            // density. The pipeline adds their per-client herds after mining.
            let rows: Vec<&[u32]> = (ctx.nodes.iter())
                .map(|&server| ctx.dataset.clients_of(server))
                .map(|clients| if clients.len() < 2 { &[] } else { clients })
                .collect();
            // Exact eq. 1 from a pair's shared-client count and set sizes.
            let score = |u: u32, v: u32, shared: u32| {
                let (cu, cv) = (rows.get(u as usize)?, rows.get(v as usize)?);
                let sim = overlap_product(shared as usize, cu.len(), cv.len());
                (sim >= ctx.config.client_edge_min).then_some(sim)
            };

            // Dense ids are their own ranks, so the index holds one
            // posting per id up to the widest the rows see.
            let widest = rows.iter().filter_map(|row| row.last()).max();
            funnel.postings = widest.map_or(0, |&widest| u64::from(widest) + 1);

            // Every row is scanned against the one client → nodes index
            // of all rows, charged while it lives.
            scope.tick();
            let incidences = rows.iter().map(|row| row.len() as u64).sum();
            let bytes = IdIndex::<u32>::max_bytes(incidences, funnel.postings);
            scope.charge(bytes);
            if let Some(ids) = IdIndex::over(&rows) {
                let row_of = |u: u32| {
                    let row = rows.get(u as usize).copied().unwrap_or_default();
                    row.iter().filter_map(|&client| ids.rank(client))
                };
                scan_rows(scope, builder, funnel, &ids.index, row_of, |_| true, score);
            }
            scope.release(bytes);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::build_with;
    use super::*;
    use crate::config::SmashConfig;
    use smash_trace::{HttpRecord, TraceDataset};
    use smash_whois::WhoisRegistry;

    fn ctx_parts(records: Vec<HttpRecord>) -> (TraceDataset, WhoisRegistry, SmashConfig) {
        (
            TraceDataset::from_records(records),
            WhoisRegistry::new(),
            SmashConfig::default(),
        )
    }

    fn build(ds: &TraceDataset, whois: &WhoisRegistry, config: &SmashConfig) -> Graph {
        build_with(&ClientDimension, ds, whois, config)
    }

    #[test]
    fn identical_client_sets_weight_one() {
        let (ds, w, c) = ctx_parts(vec![
            HttpRecord::new(0, "b1", "a.com", "1.1.1.1", "/x"),
            HttpRecord::new(1, "b2", "a.com", "1.1.1.1", "/x"),
            HttpRecord::new(2, "b1", "b.com", "1.1.1.2", "/y"),
            HttpRecord::new(3, "b2", "b.com", "1.1.1.2", "/y"),
        ]);
        let g = build(&ds, &w, &c);
        let u = ds.server_id("a.com").unwrap();
        let v = ds.server_id("b.com").unwrap();
        let nodes: Vec<u32> = ds.server_ids().collect();
        let nu = nodes.iter().position(|&s| s == u).unwrap() as u32;
        let nv = nodes.iter().position(|&s| s == v).unwrap() as u32;
        assert_eq!(g.edge_weight(nu, nv), Some(1.0));
    }

    #[test]
    fn disjoint_clients_no_edge() {
        let (ds, w, c) = ctx_parts(vec![
            HttpRecord::new(0, "c1", "a.com", "1.1.1.1", "/x"),
            HttpRecord::new(1, "c2", "b.com", "1.1.1.2", "/y"),
        ]);
        let g = build(&ds, &w, &c);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn weak_overlap_is_thresholded() {
        // a.com has 10 clients, b.com has 10, sharing exactly one:
        // sim = 0.1 * 0.1 = 0.01 < default 0.3.
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(HttpRecord::new(
                0,
                &format!("a{i}"),
                "a.com",
                "1.1.1.1",
                "/x",
            ));
            records.push(HttpRecord::new(
                0,
                &format!("b{i}"),
                "b.com",
                "1.1.1.2",
                "/y",
            ));
        }
        records.push(HttpRecord::new(0, "a0", "b.com", "1.1.1.2", "/y"));
        let (ds, w, c) = ctx_parts(records);
        let g = build(&ds, &w, &c);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn partial_overlap_weight_matches_formula() {
        // a.com clients {x, y}; b.com clients {x, y, z}: sim = 1 * (2/3)²?
        // No: shared=2, |Ca|=2, |Cb|=3 → (2/2)·(2/3) = 2/3.
        let (ds, w, c) = ctx_parts(vec![
            HttpRecord::new(0, "x", "a.com", "1.1.1.1", "/"),
            HttpRecord::new(0, "y", "a.com", "1.1.1.1", "/"),
            HttpRecord::new(0, "x", "b.com", "1.1.1.2", "/"),
            HttpRecord::new(0, "y", "b.com", "1.1.1.2", "/"),
            HttpRecord::new(0, "z", "b.com", "1.1.1.2", "/"),
        ]);
        let g = build(&ds, &w, &c);
        let weight = g.edges().next().unwrap().2;
        assert!((weight - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn graph_covers_all_nodes() {
        let (ds, w, c) = ctx_parts(vec![HttpRecord::new(0, "c1", "only.com", "1.1.1.1", "/")]);
        let g = build(&ds, &w, &c);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn exact_mode_matches_lsh_on_small_graphs() {
        // The dimension has one mode and it is the exact one: 6 servers
        // with assorted client overlaps must get eq. 1 of every pair of
        // them.
        let mut records = Vec::new();
        for s in 0..6u32 {
            for k in 0..4u32 {
                let client = format!("c{}", (s * 2 + k) % 8);
                records.push(HttpRecord::new(
                    0,
                    &client,
                    &format!("s{s}.com"),
                    &format!("1.1.1.{s}"),
                    "/x",
                ));
            }
        }
        let (ds, w, config) = ctx_parts(records);
        let mut expected = Vec::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                let (cu, cv) = (ds.clients_of(u), ds.clients_of(v));
                let shared = cu.iter().filter(|c| cv.contains(c)).count();
                let sim = overlap_product(shared, cu.len(), cv.len());
                if sim >= config.client_edge_min {
                    expected.push((u, v, sim));
                }
            }
        }
        assert!(!expected.is_empty(), "overlapping servers must connect");
        let whole = build(&ds, &w, &config);
        assert_eq!(whole.edges().collect::<Vec<_>>(), expected);
    }
}
