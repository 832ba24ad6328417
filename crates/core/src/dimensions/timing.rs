//! Extension dimension (paper §VI): time-based similarity.
//!
//! The paper proposes adding "time based dimensions \[19\] to characterize
//! the relationship among servers": bots of one campaign check in during
//! the same bursts (polling intervals, scan sweeps), so sibling servers
//! share an activity *shape* over the day even when every other feature
//! has been randomized.
//!
//! Each server gets an L2-normalized activity histogram over fixed time
//! buckets; two servers are similar when the cosine of their histograms
//! is high. Only *bursty* servers participate — always-on servers have
//! flat histograms that would trivially match each other.

use super::{instrumented_builder, score_cooccurring, Dimension, DimensionContext, DimensionKind};
use smash_graph::Graph;

/// Number of activity buckets (30-minute windows over a day).
pub const DEFAULT_BUCKETS: usize = 48;

/// A server qualifies as *bursty* when at most this fraction of its
/// buckets are active.
const BURSTY_FRACTION: f64 = 0.25;

/// Builder of the timing-similarity graph.
#[derive(Debug, Clone)]
pub struct TimingDimension {
    /// Number of time buckets.
    pub buckets: usize,
    /// Seconds covered by the histogram (requests beyond it wrap).
    pub span_seconds: u64,
}

impl Default for TimingDimension {
    fn default() -> Self {
        Self {
            buckets: DEFAULT_BUCKETS,
            span_seconds: 86_400,
        }
    }
}

impl Dimension for TimingDimension {
    fn kind(&self) -> DimensionKind {
        DimensionKind::Timing
    }

    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph {
        instrumented_builder(ctx, self.kind(), |builder, funnel, scope| {
            let buckets = self.buckets.max(2);
            let bucket_len = (self.span_seconds / buckets as u64).max(1);
            // Per-node histograms and active buckets; only bursty nodes participate.
            let mut histograms: Vec<Option<Vec<f64>>> = Vec::with_capacity(ctx.nodes.len());
            let mut node_buckets: Vec<Vec<usize>> = Vec::with_capacity(ctx.nodes.len());
            for &server in ctx.nodes {
                scope.tick();
                let mut h = vec![0.0f64; buckets];
                let mut total = 0usize;
                for r in ctx.dataset.records_of(server) {
                    let bucket = ((r.timestamp / bucket_len) as usize) % buckets;
                    if let Some(slot) = h.get_mut(bucket) {
                        *slot += 1.0;
                    }
                    total += 1;
                }
                let active: Vec<usize> = h
                    .iter()
                    .enumerate()
                    .filter(|(_, &x)| x > 0.0)
                    .map(|(i, _)| i)
                    .collect();
                let bursty = total >= 2
                    && !active.is_empty()
                    && (active.len() as f64) <= BURSTY_FRACTION * buckets as f64;
                if !bursty {
                    histograms.push(None);
                    node_buckets.push(Vec::new());
                    continue;
                }
                let norm = h.iter().map(|x| x * x).sum::<f64>().sqrt();
                for x in h.iter_mut() {
                    *x /= norm;
                }
                histograms.push(Some(h));
                node_buckets.push(active);
            }
            // Candidate pairs: bursty servers active in a common bucket.
            score_cooccurring(scope, builder, funnel, &node_buckets, 200, |u, v, _| {
                let hu = histograms.get(u as usize)?.as_ref()?;
                let hv = histograms.get(v as usize)?.as_ref()?;
                let cos: f64 = hu.iter().zip(hv.iter()).map(|(a, b)| a * b).sum();
                (cos >= ctx.config.timing_edge_min).then_some(cos)
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
        let g = build_unbudgeted(&TimingDimension::default(), &ds, &WhoisRegistry::new());
        (ds, g)
    }

    /// `n` requests to `host` at timestamps spread within one burst.
    fn burst(host: &str, start: u64, n: usize) -> Vec<HttpRecord> {
        (0..n)
            .map(|i| HttpRecord::new(start + (i as u64 * 60), "bot", host, "1.1.1.1", "/x.php"))
            .collect()
    }

    #[test]
    fn synchronized_bursts_match() {
        let mut records = burst("a.com", 10_000, 6);
        records.extend(burst("b.com", 10_000, 6));
        let (_, g) = build(records);
        assert_eq!(g.edge_count(), 1);
        assert!(g.edges().next().unwrap().2 > 0.9);
    }

    #[test]
    fn disjoint_bursts_do_not_match() {
        let mut records = burst("a.com", 10_000, 6);
        records.extend(burst("b.com", 60_000, 6));
        let (_, g) = build(records);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn always_on_servers_are_excluded() {
        // Two servers active in most buckets — flat histograms match
        // trivially, so they must not participate at all.
        let mut records = Vec::new();
        for host in ["flat1.com", "flat2.com"] {
            for b in 0..40u64 {
                records.push(HttpRecord::new(b * 1800 + 10, "c", host, "2.2.2.2", "/x"));
            }
        }
        let (_, g) = build(records);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn single_request_servers_are_excluded() {
        let records = vec![
            HttpRecord::new(100, "c", "one.com", "1.1.1.1", "/a"),
            HttpRecord::new(100, "c", "two.com", "1.1.1.2", "/b"),
        ];
        let (_, g) = build(records);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn partial_overlap_scores_between_zero_and_one() {
        let mut records = burst("a.com", 10_000, 6);
        records.extend(burst("b.com", 10_000, 3));
        records.extend(burst("b.com", 50_000, 3));
        let (_, g) = build(records);
        let first = g.edges().next();
        if let Some((_, _, w)) = first {
            assert!(w < 0.95 && w > 0.0, "w = {w}");
        }
    }
}
