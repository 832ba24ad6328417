//! The main dimension: client-set similarity (paper eq. 1).
//!
//! `Client(Si, Sj) = (|Ci∩Cj| / |Ci|) · (|Ci∩Cj| / |Cj|)` — two servers
//! are similar when their common clients matter to *both* of them.
//! Malicious servers of one campaign are contacted by the same small set
//! of infected clients; benign servers serve diverse crowds.
//!
//! Candidate pairs come from the MinHash/LSH layer over per-server
//! client-ID sets (DESIGN.md §10); each candidate is then scored
//! **exactly** by eq. 1 over the full sorted client lists, so LSH only
//! prunes the pair universe, never changes a weight. Setting
//! `SmashConfig::exact_candidates` scores every pair instead (the
//! recall oracle).

use super::{
    instrumented_builder, overlap_product, score_candidates, sorted_intersection_len, Dimension,
    DimensionContext, DimensionKind,
};
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
            // Per-node feature sets: the server's client ids.
            //
            // Servers visited by exactly one client get an empty set: the
            // paper handles them in a separate per-client pass (Appendix C),
            // and letting them into the general graph glues each bot's
            // private long-tail browsing onto campaign herds, diluting herd
            // density. The pipeline adds their per-client herds after mining.
            // Borrowed straight from the arena's postings — no widening
            // copy; the LSH layer hashes the `u32` ids directly.
            let feature_sets: Vec<&[u32]> = ctx
                .nodes
                .iter()
                .map(|&server| {
                    let clients = ctx.dataset.clients_of(server);
                    if clients.len() < 2 {
                        [].as_slice()
                    } else {
                        clients
                    }
                })
                .collect();

            // Exact eq. 1 score of one node pair; `None` below threshold
            // or when either side is ineligible.
            let score = |u: u32, v: u32| -> Option<f64> {
                let (su, sv) = (ctx.server_at(u)?, ctx.server_at(v)?);
                let (cu, cv) = (ctx.dataset.clients_of(su), ctx.dataset.clients_of(sv));
                if cu.len() < 2 || cv.len() < 2 {
                    return None;
                }
                let shared = sorted_intersection_len(cu, cv);
                let sim = overlap_product(shared, cu.len(), cv.len());
                (sim >= ctx.config.client_edge_min).then_some(sim)
            };
            score_candidates(ctx, scope, builder, funnel, &feature_sets, score);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SmashConfig;
    use smash_trace::{HttpRecord, TraceDataset};
    use smash_whois::WhoisRegistry;
    use std::collections::HashMap;

    fn ctx_parts(records: Vec<HttpRecord>) -> (TraceDataset, WhoisRegistry, SmashConfig) {
        (
            TraceDataset::from_records(records),
            WhoisRegistry::new(),
            SmashConfig::default(),
        )
    }

    fn build(ds: &TraceDataset, whois: &WhoisRegistry, config: &SmashConfig) -> Graph {
        let nodes: Vec<u32> = ds.server_ids().collect();
        let node_of: HashMap<u32, u32> = nodes
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        ClientDimension.build_graph(&DimensionContext {
            dataset: ds,
            whois,
            config,
            nodes: &nodes,
            node_of: &node_of,
            metrics: &smash_support::metrics::Registry::new(),
            governor: smash_support::governor::Governor::unlimited(),
        })
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
        // sim = 0.1 * 0.1 = 0.01 < default 0.04.
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
        // 6 servers with assorted client overlaps: both candidate modes
        // must build the identical graph.
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
        let (ds, w, lsh_cfg) = ctx_parts(records);
        let exact_cfg = lsh_cfg.clone().with_exact_candidates(true);
        let g_lsh = build(&ds, &w, &lsh_cfg);
        let g_exact = build(&ds, &w, &exact_cfg);
        let edges = |g: &Graph| g.edges().collect::<Vec<_>>();
        assert_eq!(edges(&g_lsh), edges(&g_exact));
        assert!(g_lsh.edge_count() > 0, "overlapping servers must connect");
    }
}
