//! The main dimension: client-set similarity (paper eq. 1).
//!
//! `Client(Si, Sj) = (|Ci∩Cj| / |Ci|) · (|Ci∩Cj| / |Cj|)` — two servers
//! are similar when their common clients matter to *both* of them.
//! Malicious servers of one campaign are contacted by the same small set
//! of infected clients; benign servers serve diverse crowds.
//!
//! Candidate pairs come from the MinHash/LSH layer over per-server
//! client-ID sets (DESIGN.md §10); each candidate is then scored
//! **exactly** by eq. 1 over the full client sets, so LSH only prunes
//! the pair universe, never changes a weight. Setting
//! `SmashConfig::exact_candidates` scores every pair instead (the
//! recall oracle).
//!
//! The shared-client counts come from the row-wise sparse product of
//! `crate::incidence`: one walk over a client → nodes index per
//! candidate *row*, costing what the row's window shares, instead of one
//! sorted merge per candidate *pair*, costing both sets' lengths
//! whatever they share. The merge remains as the path taken when the
//! index does not fit the memory budget.

use super::{
    instrumented_builder, overlap_product, score_candidates, sorted_intersection_len, Dimension,
    DimensionContext, DimensionKind, TaskScore,
};
use crate::incidence::FeatureIndex;
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
            let clients_at =
                |node: u32| feature_sets.get(node as usize).copied().unwrap_or_default();

            // Exact eq. 1 from a pair's shared-client count and set
            // sizes; `None` below threshold or when either side is
            // ineligible.
            let client_edge_min = ctx.config.client_edge_min;
            let edge = |shared: usize, len_u: usize, len_v: usize| -> Option<f64> {
                if len_u < 2 || len_v < 2 {
                    return None;
                }
                let sim = overlap_product(shared, len_u, len_v);
                (sim >= client_edge_min).then_some(sim)
            };

            let mut index_bytes = 0;
            score_candidates(ctx, scope, builder, funnel, &feature_sets, || {
                // The client → nodes index is taken if its `4 B ×
                // (incidences + clients + 1)`, known from the slice
                // lengths alone, fit under the stage's soft budget beside
                // what the account already carries (always, with no
                // budget). Not fitting is not a ladder rung: the stage
                // merges pair by pair instead — slower, same recall.
                let clients = ctx.dataset.client_count();
                let incidences: usize = feature_sets.iter().map(|set| set.len()).sum();
                let bytes = 4 * (incidences as u64 + clients as u64 + 1);
                let soft = scope.soft_bytes();
                let index = if soft == 0 || scope.tracked_bytes() + bytes <= soft {
                    scope.charge(bytes);
                    index_bytes = bytes;
                    let rows = feature_sets.iter().map(|set| set.iter().copied());
                    FeatureIndex::transpose(clients, rows)
                } else {
                    None
                };
                move |u: u32, partners: &[u32]| {
                    let cu = clients_at(u);
                    let (Some(index), Some(&first), Some(&last)) =
                        (&index, partners.first(), partners.last())
                    else {
                        return TaskScore::pairwise(u, partners, |_, v| {
                            let cv = clients_at(v);
                            edge(sorted_intersection_len(cu, cv), cu.len(), cv.len())
                        });
                    };
                    // One pass over `u`'s clients fills a window-sized
                    // accumulator — not a node-count sized one: a task is
                    // at most 256 partners, and zeroing a slot per kept
                    // server per task would dwarf the scan — after which
                    // a partner's `|Cu ∩ Cv|` is one read.
                    let mut shared = vec![0u32; (last - first) as usize + 1];
                    let row = cu.iter().copied();
                    let scan_steps = index.count_shared(row, (first, last), &mut shared, |_| {});
                    let scored = partners.iter().filter_map(|&v| {
                        let count = *shared.get((v - first) as usize)?;
                        edge(count as usize, cu.len(), clients_at(v).len()).map(|sim| (v, sim))
                    });
                    TaskScore {
                        edges: scored.collect(),
                        scan_steps,
                    }
                }
            });
            scope.release(index_bytes);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::build_governed;
    use super::*;
    use crate::config::SmashConfig;
    use smash_support::governor::Governor;
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
        build_governed(&ClientDimension, ds, whois, config, &Governor::unlimited())
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
