//! Extension dimension (paper §VI): payload similarity.
//!
//! "We can also add payload similarity to characterize downloading
//! similarity among servers" — bots fetching the *same binary* from a
//! pool of download servers receive responses of (nearly) identical size,
//! while benign pages vary wildly. Without body captures, response size
//! is the payload fingerprint available at the flow level; sizes are
//! compared exactly after masking the low bits (minor header/padding
//! variation).

use super::{
    instrumented_builder, overlap_product, score_cooccurring, Dimension, DimensionContext,
    DimensionKind,
};
use crate::incidence;
use smash_graph::Graph;

/// Low bits masked off a size before comparison (64-byte granularity).
const SIZE_MASK: u32 = !63;

/// Sizes below this are ignored — tiny responses (errors, redirects,
/// beacons) are too common to discriminate.
const MIN_SIZE: u32 = 1024;

/// Builder of the payload-size-similarity graph.
#[derive(Debug, Clone, Default)]
pub struct PayloadDimension;

impl Dimension for PayloadDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::Payload
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            // Per-node sets of masked payload sizes.
            let node_sizes: Vec<Vec<u32>> = ctx
                .nodes
                .iter()
                .map(|&server| {
                    scope.tick();
                    let sizes = ctx.dataset.records_of(server).map(|r| r.resp_bytes);
                    incidence::distinct(sizes.filter(|&b| b >= MIN_SIZE).map(|b| b & SIZE_MASK))
                })
                .collect();
            let cap = ctx.config.file_posting_cap;
            score_cooccurring(scope, builder, funnel, &node_sizes, cap, |u, v, shared| {
                let su = node_sizes.get(u as usize)?.len();
                let sv = node_sizes.get(v as usize)?.len();
                let sim = overlap_product(shared as usize, su, sv);
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
        build_unbudgeted(&PayloadDimension, &ds, &WhoisRegistry::new())
    }

    fn rec(host: &str, uri: &str, bytes: u32) -> HttpRecord {
        HttpRecord::new(0, "bot", host, "1.1.1.1", uri).with_resp_bytes(bytes)
    }

    #[test]
    fn same_payload_size_matches() {
        // The same malware binary served from two mirrors.
        let g = build(vec![
            rec("dl1.com", "/a.gif", 48_213),
            rec("dl2.com", "/b.gif", 48_219), // within the 64-byte mask
        ]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.edges().next().unwrap().2, 1.0);
    }

    #[test]
    fn different_sizes_do_not_match() {
        let g = build(vec![
            rec("dl1.com", "/a.gif", 48_000),
            rec("dl2.com", "/b.gif", 90_000),
        ]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn tiny_responses_are_ignored() {
        let g = build(vec![rec("a.com", "/x", 512), rec("b.com", "/y", 512)]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn unknown_sizes_are_ignored() {
        let g = build(vec![rec("a.com", "/x", 0), rec("b.com", "/y", 0)]);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn diverse_servers_dilute() {
        // a.com serves 4 distinct sizes, one shared: (1/4)·(1/1) = 0.25.
        let g = build(vec![
            rec("a.com", "/1", 10_000),
            rec("a.com", "/2", 20_000),
            rec("a.com", "/3", 30_000),
            rec("a.com", "/4", 40_000),
            rec("b.com", "/x", 10_016),
        ]);
        assert_eq!(g.edge_count(), 1);
        assert!((g.edges().next().unwrap().2 - 0.25).abs() < 1e-12);
    }
}
