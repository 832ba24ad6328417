//! Extension dimension (paper §VI): URI parameter-pattern similarity.
//!
//! The paper's false-negative analysis (§V-A2) found 40 malicious servers
//! (Cycbot, FakeAV, Tidserv) missed because they shared *only* their URI
//! parameter pattern. This dimension — proposed by the paper as future
//! work — treats the ordered, value-blanked query-string keys (e.g.
//! `p=[]&id=[]&e=[]`) the way the file dimension treats URI files.

use super::{
    instrumented_builder, overlap_product, score_cooccurring, Dimension, DimensionContext,
    DimensionKind,
};
use crate::incidence;
use smash_graph::Graph;

/// Builder of the parameter-pattern-similarity graph.
#[derive(Debug, Clone, Default)]
pub struct ParamPatternDimension;

impl Dimension for ParamPatternDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::ParamPattern
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            let empty = ctx.dataset.param_pattern_id("");
            // Per-node sets of distinct non-empty parameter patterns.
            let patterns: Vec<Vec<u32>> = ctx
                .nodes
                .iter()
                .map(|&server| {
                    scope.tick();
                    let patterns = ctx.dataset.records_of(server).map(|r| r.param_pattern);
                    incidence::distinct(patterns.filter(|&p| Some(p) != empty))
                })
                .collect();
            let cap = ctx.config.file_posting_cap;
            score_cooccurring(scope, builder, funnel, &patterns, cap, |u, v, shared| {
                let pu = patterns.get(u as usize)?.len();
                let pv = patterns.get(v as usize)?.len();
                let sim = overlap_product(shared as usize, pu, pv);
                (sim >= ctx.config.file_edge_min).then_some(sim)
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

    fn build(records: Vec<HttpRecord>) -> Graph {
        let ds = TraceDataset::from_records(records);
        build_unbudgeted(&ParamPatternDimension, &ds, &WhoisRegistry::new())
    }

    #[test]
    fn same_pattern_different_files_match() {
        // The Cycbot case: different URI files, same parameter pattern.
        let g = build(vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/one.php?v=1&tq=abc"),
            HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/two.php?v=9&tq=xyz"),
        ]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges().next().unwrap().2, 1.0);
    }

    #[test]
    fn different_key_order_does_not_match() {
        let g = build(vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/x.php?a=1&b=2"),
            HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/x.php?b=2&a=1"),
        ]);
        // Patterns differ (a=[]&b=[] vs b=[]&a=[]): only the file matches
        // in the *file* dimension; here, no edge.
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn queryless_servers_are_isolated() {
        let g = build(vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/x.php"),
            HttpRecord::new(0, "c", "b.com", "1.1.1.2", "/y.php"),
        ]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn diluted_by_pattern_diversity() {
        // a.com uses 2 patterns, one shared with b.com's single pattern:
        // (1/2)·(1/1) = 0.5.
        let g = build(vec![
            HttpRecord::new(0, "c", "a.com", "1.1.1.1", "/x.php?k=1"),
            HttpRecord::new(1, "c", "a.com", "1.1.1.1", "/x.php?q=2&r=3"),
            HttpRecord::new(2, "c", "b.com", "1.1.1.2", "/y.php?k=9"),
        ]);
        assert!((g.edges().next().unwrap().2 - 0.5).abs() < 1e-12);
    }
}
