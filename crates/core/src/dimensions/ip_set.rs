//! Secondary dimension: IP-address-set similarity (paper eq. 8).
//!
//! Fast-fluxed / fluxed domains resolve to overlapping IP pools; benign
//! servers rarely share addresses. Same product form as eq. 1 over the
//! servers' IP sets.

use super::{
    instrumented_builder, overlap_product, score_cooccurring, Dimension, DimensionContext,
    DimensionKind,
};
use smash_graph::Graph;

/// Builder of the IP-set-similarity graph.
#[derive(Debug, Clone, Default)]
pub struct IpSetDimension;

impl Dimension for IpSetDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::IpSet
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            // Per-node IP-id sets, borrowed from the arena.
            let node_ips: Vec<&[u32]> = ctx
                .nodes
                .iter()
                .map(|&server| {
                    scope.tick();
                    ctx.dataset.ips_of(server)
                })
                .collect();
            // Hot IPs (large shared hosters / NATs) carry no herd signal.
            score_cooccurring(scope, builder, funnel, &node_ips, 200, |u, v, shared| {
                let iu = node_ips.get(u as usize)?.len();
                let iv = node_ips.get(v as usize)?.len();
                let sim = overlap_product(shared as usize, iu, iv);
                (sim >= ctx.config.ip_edge_min).then_some(sim)
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::build_unbudgeted;
    use super::*;
    use smash_trace::{HttpRecord, TraceDataset};
    use smash_whois::WhoisRegistry;

    fn build(records: Vec<HttpRecord>) -> (TraceDataset, Graph) {
        let ds = TraceDataset::from_records(records);
        let g = build_unbudgeted(&IpSetDimension, &ds, &WhoisRegistry::new());
        (ds, g)
    }

    #[test]
    fn same_single_ip_weight_one() {
        let (_, g) = build(vec![
            HttpRecord::new(0, "c", "a.com", "9.9.9.9", "/"),
            HttpRecord::new(0, "c", "b.com", "9.9.9.9", "/"),
        ]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges().next().unwrap().2, 1.0);
    }

    #[test]
    fn distinct_ips_no_edge() {
        let (_, g) = build(vec![
            HttpRecord::new(0, "c", "a.com", "9.9.9.9", "/"),
            HttpRecord::new(0, "c", "b.com", "8.8.8.8", "/"),
        ]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn partial_pool_overlap() {
        // a.com on {1,2}; b.com on {2}: (1/2)·(1/1) = 0.5.
        let (_, g) = build(vec![
            HttpRecord::new(0, "c", "a.com", "10.0.0.1", "/"),
            HttpRecord::new(1, "c", "a.com", "10.0.0.2", "/"),
            HttpRecord::new(2, "c", "b.com", "10.0.0.2", "/"),
        ]);
        assert!((g.edges().next().unwrap().2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn below_threshold_dropped() {
        // a.com on {1..5}; b.com on {1, 6..9}: (1/5)·(1/5) = 0.04 < 0.1.
        let mut records = Vec::new();
        for i in 1..=5 {
            records.push(HttpRecord::new(
                0,
                "c",
                "a.com",
                &format!("10.0.0.{i}"),
                "/",
            ));
        }
        records.push(HttpRecord::new(0, "c", "b.com", "10.0.0.1", "/"));
        for i in 6..=9 {
            records.push(HttpRecord::new(
                0,
                "c",
                "b.com",
                &format!("10.0.0.{i}"),
                "/",
            ));
        }
        let (_, g) = build(records);
        assert_eq!(g.edge_count(), 0);
    }
}
