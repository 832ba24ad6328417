//! Per-dimension similarity graphs (paper §III-B).
//!
//! Every dimension builds a weighted graph over the *same* node space —
//! the servers that survived preprocessing — so that herds from different
//! dimensions can be intersected directly during correlation.
//!
//! Candidate pairs are never enumerated quadratically, and two frames
//! over `crate::incidence` find them. The co-occurrence frame needs no
//! proposer: every node's row is scanned against a feature → nodes
//! index (`scan_rows`), so a node's partners are whoever shares a
//! feature with it. The client dimension (eq. 1) runs there over the
//! arena's client ids, the IP-set, Whois and the three opt-in
//! dimensions through `score_cooccurring`, which ranks their keys and
//! governs the index first. The URI-file dimension matches *different*
//! long names by charset cosine, which no exact-match index
//! enumerates: it routes through `score_candidates`, a scan of the
//! MinHash/LSH layer's resident buckets ([`crate::candidates`],
//! DESIGN.md §10; one bucket of every node when
//! `SmashConfig::exact_candidates` is set) that scores each pair where
//! it finds it.

pub mod client;
pub mod ip_set;
pub mod param_pattern;
pub mod payload;
pub mod timing;
pub mod uri_file;
pub mod whois;

use crate::candidates::{self, CandidateScan, FeatureId};
use crate::config::SmashConfig;
use crate::incidence::{self, FeatureIndex};
use smash_graph::{Graph, GraphBuilder};
use smash_support::governor::{Governor, Rung, StageScope};
use smash_support::impl_json_enum;
use smash_support::metrics::Registry;
use smash_support::par;
use smash_trace::{ServerId, TraceDataset};
use smash_whois::WhoisRegistry;
use std::cmp::Reverse;
use std::collections::HashMap;
use std::fmt;

pub use client::ClientDimension;
pub use ip_set::IpSetDimension;
pub use param_pattern::ParamPatternDimension;
pub use payload::PayloadDimension;
pub use timing::TimingDimension;
pub use uri_file::UriFileDimension;
pub use whois::WhoisDimension;

/// Which similarity dimension a graph or herd came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DimensionKind {
    /// Main dimension: client-set similarity (eq. 1).
    Client,
    /// Secondary: URI-file similarity (eqs. 2–7).
    UriFile,
    /// Secondary: IP-address-set similarity (eq. 8).
    IpSet,
    /// Secondary: Whois field overlap.
    Whois,
    /// Extension (paper §VI): URI parameter-pattern similarity.
    ParamPattern,
    /// Extension (paper §VI): time-based (burst-synchronization)
    /// similarity.
    Timing,
    /// Extension (paper §VI): payload (response-size) similarity.
    Payload,
}

impl_json_enum!(DimensionKind {
    Client,
    UriFile,
    IpSet,
    Whois,
    ParamPattern,
    Timing,
    Payload,
});

impl DimensionKind {
    /// The roster: every dimension, in pipeline order — the main
    /// (client) dimension first, then the secondaries in the order their
    /// stages, health records and summaries are reported. The pipeline
    /// runs the ones [`SmashConfig::enables`] turns on.
    pub const ALL: [DimensionKind; 7] = [
        DimensionKind::Client,
        DimensionKind::UriFile,
        DimensionKind::IpSet,
        DimensionKind::Whois,
        DimensionKind::ParamPattern,
        DimensionKind::Timing,
        DimensionKind::Payload,
    ];

    /// `true` for the main (client) dimension.
    pub fn is_main(self) -> bool {
        self == DimensionKind::Client
    }

    /// The builder of this dimension's graph.
    pub fn dimension(self) -> &'static dyn Dimension {
        match self {
            DimensionKind::Client => &ClientDimension,
            DimensionKind::UriFile => &UriFileDimension,
            DimensionKind::IpSet => &IpSetDimension,
            DimensionKind::Whois => &WhoisDimension,
            DimensionKind::ParamPattern => &ParamPatternDimension,
            DimensionKind::Timing => &TimingDimension,
            DimensionKind::Payload => &PayloadDimension,
        }
    }
}

impl fmt::Display for DimensionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DimensionKind::Client => "client",
            DimensionKind::UriFile => "uri-file",
            DimensionKind::IpSet => "ip-set",
            DimensionKind::Whois => "whois",
            DimensionKind::ParamPattern => "param-pattern",
            DimensionKind::Timing => "timing",
            DimensionKind::Payload => "payload",
        };
        f.write_str(s)
    }
}

/// Everything a dimension needs to build its graph.
pub struct DimensionContext<'a> {
    /// The interned trace.
    pub dataset: &'a TraceDataset,
    /// The Whois registry (only the Whois dimension reads it).
    pub whois: &'a WhoisRegistry,
    /// Pipeline configuration.
    pub config: &'a SmashConfig,
    /// Kept servers; node `i` of every dimension graph is `nodes[i]`.
    // lint:allow(index): lifetime-annotated slice type, not an indexing site
    pub nodes: &'a [ServerId],
    /// Reverse map server → node index.
    pub node_of: &'a HashMap<ServerId, u32>,
    /// Metrics sink: builders report postings processed, pairs scored
    /// and pruned, and edges emitted under `dim/<kind>/*` (see
    /// DESIGN.md §7). Pass a throwaway [`Registry`] when observability
    /// is not needed.
    pub metrics: &'a Registry,
    /// Resource governor (DESIGN.md §11): each builder runs under the
    /// `dimension/<kind>` stage scope it hands out. Pass
    /// [`Governor::unlimited`] when no budgets apply — polls and
    /// charges are then two relaxed atomic ops.
    pub governor: Governor,
}

/// Charges `index`'s `4 B` per incidence to the stage account and, on a
/// soft-budget breach, sheds the most popular postings — longest first,
/// smallest key breaking ties (`keys` are the features by rank, and rank
/// order is key order) — until the account is back under the soft
/// budget. Every shed feature is recorded on the scope. Sheds are a
/// prefix of that order, so the last one, returned as `(Reverse(len),
/// feature)`, names them all: a posting was shed iff it does not sort
/// after it. Without a budget, just the charge.
fn govern_postings<K: fmt::Display>(
    scope: &StageScope,
    index: &FeatureIndex,
    keys: &[K],
) -> Option<(Reverse<usize>, u32)> {
    scope.charge(index.incidences() as u64 * 4);
    let mut shed = None;
    if !scope.soft_exceeded() {
        return shed;
    }
    let keyed = index.postings().zip(keys);
    let mut order: Vec<(Reverse<usize>, u32, &K)> = keyed
        .map(|((feature, nodes), key)| (Reverse(nodes.len()), feature, key))
        .collect();
    order.sort_unstable_by_key(|&(len, feature, _)| (len, feature));
    for (Reverse(len), feature, key) in order {
        if !scope.soft_exceeded() {
            break;
        }
        shed = Some((Reverse(len), feature));
        scope.release(len as u64 * 4);
        scope.record(Rung::Shed, format!("shed posting feature={key} len={len}"));
    }
    shed
}

/// Rows one parallel task of [`scan_rows`] scans: the task owns one
/// accumulator as wide as the partner nodes behind its first row, so the
/// zeroing is paid once per this many rows, not once per row.
const ROWS_PER_TASK: usize = 256;

/// Accumulator increments below which [`scan_rows`] scans every row in
/// one task, on the calling thread: forking for less costs more than the
/// scan (with 0 increments to spend, the benchmark's ip-set and whois
/// stages went from 0.1 to 0.5–3 ms a mine, +1.4 MB daemon RSS).
const PAR_MIN_SCAN_STEPS: u64 = 4096;

/// The scan of the co-occurrence frame. `index` holds the partner
/// nodes, `lo..=hi` being its window; the row of every node `u < hi` —
/// `row_of(u)`, its feature ranks in that index, less the postings
/// `live` rejects — is counted against it, and every pair `(u, v)`,
/// `u < v`, sharing `shared` ≥ 1 live features is offered to `score`;
/// `Some(weight)` becomes an edge. Rows are scanned in parallel (unless
/// the live postings promise fewer than [`PAR_MIN_SCAN_STEPS`]
/// increments), the stage token cancels between tasks, and the edges
/// reach the builder in ascending `(u, v)` order. The counts live in a
/// per-task accumulator reset through the nodes it touched, so the work
/// is the incidences walked plus the co-occurring pairs and there is no
/// pair table whose size is only known once it exists.
pub(crate) fn scan_rows<R: Iterator<Item = u32>>(
    scope: &StageScope,
    builder: &mut GraphBuilder,
    funnel: &mut BuilderFunnel,
    index: &FeatureIndex,
    row_of: impl Fn(u32) -> R + Sync,
    live: impl Fn(&u32) -> bool + Sync,
    score: impl Fn(u32, u32, u32) -> Option<f64> + Sync,
) {
    // `u`'s partners are the indexed nodes behind it: the pair belongs
    // to its smaller end.
    let (lo, hi) = index.window();
    let first_of = |u: u32| (u + 1).max(lo);
    // The scan's cost is known before it runs: a live posting of `len`
    // nodes is walked for at most C(len, 2) increments.
    let walk = |(f, nodes): (u32, &[u32])| live(&f).then(|| candidates::pair_universe(nodes.len()));
    let steps: u64 = index.postings().filter_map(walk).sum();
    let whole = usize::from(steps < PAR_MIN_SCAN_STEPS) * hi as usize;
    let per_task = ROWS_PER_TASK.max(whole);
    let tasks: Vec<u32> = (0..hi).step_by(per_task).collect();
    let scored = par::par_map_cancellable(&tasks, scope.token(), |&start| {
        let (mut edges, mut pairs, mut scan_steps) = (Vec::new(), 0, 0);
        let mut shared = vec![0u32; (hi - first_of(start)) as usize + 1];
        let mut touched: Vec<u32> = Vec::new();
        for u in (start..hi).take(per_task) {
            let first = first_of(u);
            let row = row_of(u).filter(&live);
            scan_steps += index.count_shared(row, (first, hi), &mut shared, |v| touched.push(v));
            touched.sort_unstable();
            pairs += touched.len() as u64;
            for v in touched.drain(..) {
                let Some(count) = shared.get_mut((v - first) as usize) else {
                    continue;
                };
                if let Some(weight) = score(u, v, *count) {
                    edges.push((u, v, weight));
                }
                *count = 0;
            }
        }
        (edges, pairs, scan_steps)
    });
    for (edges, pairs, scan_steps) in scored {
        funnel.pairs_scored += pairs;
        funnel.scan_steps += scan_steps;
        for (u, v, weight) in edges {
            builder.add_edge(u, v, weight);
            funnel.edges += 1;
        }
    }
}

/// The co-occurrence frame for features that are not dense ids:
/// `feature_sets` (one per node; repeats within a set count once) are
/// ranked and transposed into a feature → nodes index, which is
/// governed — the only allocation charged, for the life of the stage —
/// and scanned by [`scan_rows`]; postings longer than `posting_cap`
/// carry no herd signal and are skipped.
pub(crate) fn score_cooccurring<K, S>(
    scope: &StageScope,
    builder: &mut GraphBuilder,
    funnel: &mut BuilderFunnel,
    feature_sets: &[S],
    posting_cap: usize,
    score: impl Fn(u32, u32, u32) -> Option<f64> + Sync,
) where
    K: Ord + fmt::Display,
    S: AsRef<[K]>,
{
    let keys = incidence::distinct(feature_sets.iter().flat_map(|set| set.as_ref()));
    funnel.postings = keys.len() as u64;
    let rank = |key: &K| keys.binary_search(&key).ok().map(|rank| rank as u32);
    let rows: Vec<Vec<u32>> = (feature_sets.iter())
        .map(|set| incidence::distinct(set.as_ref().iter().filter_map(rank)))
        .collect();
    let ranked = rows.iter().map(|row| row.iter().copied());
    let Some(index) = FeatureIndex::transpose(keys.len(), 0, ranked) else {
        return;
    };
    let shed = govern_postings(scope, &index, &keys);
    let live = |&feature: &u32| {
        let len = index.nodes_of(feature).len();
        len <= posting_cap && Some((Reverse(len), feature)) > shed
    };
    let row_of = |u: u32| rows.get(u as usize).into_iter().flatten().copied();
    scan_rows(scope, builder, funnel, &index, row_of, live, score);
}

/// The candidate frame of the URI-file dimension: scans node pairs of
/// `feature_sets` (one per node; empty = ineligible) — the MinHash/LSH
/// layer's band tables and rare postings, or with
/// `SmashConfig::exact_candidates` one bucket of every eligible node,
/// the recall oracle — and scores each distinct pair exactly where the
/// scan finds it: `score(u, v)` returning `Some(weight)` becomes an
/// edge, and the edges reach the builder in ascending `(u, v)` order.
/// The scan's resident state, charged by the generator, is released
/// here before the edge charge lands, so the two don't stack.
pub(crate) fn score_candidates<F: FeatureId, S: AsRef<[F]> + Sync>(
    ctx: &DimensionContext<'_>,
    scope: &StageScope,
    builder: &mut GraphBuilder,
    funnel: &mut BuilderFunnel,
    feature_sets: &[S],
    score: impl Fn(u32, u32) -> Option<f64> + Sync,
) {
    let scan = if ctx.config.exact_candidates {
        CandidateScan::exact(feature_sets)
    } else {
        CandidateScan::lsh(feature_sets, &ctx.config.lsh, scope)
    };
    let stats = scan.run(scope.token(), score, |u, v, sim| {
        builder.add_edge(u, v, sim);
        funnel.edges += 1;
    });
    scope.release(scan.charged_bytes());
    funnel.postings = stats.features;
    funnel.pairs_considered = candidates::pair_universe(scan.eligible());
    funnel.pairs_proposed = stats.proposed;
    funnel.pairs_bucketed = stats.pairs;
    funnel.pairs_scored = stats.pairs;
}

/// Reports one builder's standard `dim/<kind>/*` metrics in a single
/// batch (one registry lock per name, after the hot loops).
pub(crate) fn record_dimension_metrics(
    ctx: &DimensionContext<'_>,
    kind: DimensionKind,
    funnel: &BuilderFunnel,
) {
    let m = ctx.metrics;
    m.counter(&format!("dim/{kind}/postings"))
        .add(funnel.postings);
    m.counter(&format!("dim/{kind}/pairs_considered"))
        .add(funnel.pairs_considered);
    m.counter(&format!("dim/{kind}/pairs_proposed"))
        .add(funnel.pairs_proposed);
    m.counter(&format!("dim/{kind}/pairs_bucketed"))
        .add(funnel.pairs_bucketed);
    m.counter(&format!("dim/{kind}/pairs_scored"))
        .add(funnel.pairs_scored);
    m.counter(&format!("dim/{kind}/scan_steps"))
        .add(funnel.scan_steps);
    m.counter(&format!("dim/{kind}/pairs_pruned"))
        .add(funnel.pairs_scored - funnel.edges);
    m.counter(&format!("dim/{kind}/edges")).add(funnel.edges);
    m.gauge(&format!("dim/{kind}/nodes"))
        .set(ctx.nodes.len() as f64);
}

/// The funnel counters every builder reports: how many inverted-index
/// postings it processed, the candidate funnel from the all-pairs
/// universe through LSH bucketing down to the pairs actually scored,
/// and how many edges survived the similarity threshold. For the
/// [`score_candidates`] dimension (URI-file) the funnel reconciles:
/// `pairs_considered ≥ pairs_bucketed ≥ pairs_scored = pairs_pruned +
/// edges` and `pairs_proposed ≥ pairs_bucketed` (`tests/metrics.rs`).
/// The [`scan_rows`] dimensions — every other one — have no proposer and
/// leave the LSH stages (`pairs_considered`, `pairs_proposed`,
/// `pairs_bucketed`) at zero.
#[derive(Debug, Default)]
pub(crate) struct BuilderFunnel {
    /// Inverted-index postings (distinct features) processed; for the
    /// client dimension, whose dense ids are their own ranks, the id
    /// range its index spans — the same however many windows it took.
    pub postings: u64,
    /// Size of the brute-force pair universe over nodes with features.
    pub pairs_considered: u64,
    /// Clique entries the rare path and every LSH band proposed,
    /// duplicates included — the bucket and posting tails the URI-file
    /// scan walks: `pairs_proposed ÷ pairs_bucketed` is how often the
    /// layer proposed each pair it kept.
    pub pairs_proposed: u64,
    /// Distinct candidate pairs the scan found.
    pub pairs_bucketed: u64,
    /// Candidate pairs scored.
    pub pairs_scored: u64,
    /// Accumulator increments [`scan_rows`] spent: one per (feature,
    /// unordered pair of nodes it was seen on) — for the client
    /// dimension `Σ_c C(deg(c), 2)`, however many windows it took. 0 for
    /// URI-file, which has no accumulator: the tails its scan walks are
    /// `pairs_proposed`.
    pub scan_steps: u64,
    /// Edges that survived the threshold.
    pub edges: u64,
}

/// The one canonical instrumentation frame around every dimension
/// builder: the deterministic failpoint site `dimension/<kind>`, the
/// `dim/<kind>/build` duration span, and the `dim/<kind>/*` funnel
/// counters — in that order, so fault-injection tests observe the site
/// before any work happens.
///
/// `smash-lint`'s `dim-coverage` rule checks that every `Dimension`
/// impl routes through this helper (and that the helper itself keeps
/// its failpoint and span); add instrumentation here, not in the
/// builders.
pub(crate) fn instrumented_builder<F>(
    ctx: &DimensionContext<'_>,
    kind: DimensionKind,
    body: F,
) -> Graph
where
    F: FnOnce(&mut GraphBuilder, &mut BuilderFunnel, &StageScope),
{
    smash_support::failpoint::fire(&format!("dimension/{kind}"));
    let _span = ctx.metrics.span(&format!("dim/{kind}/build"));
    // The stage scope starts the per-dimension wall-clock budget and
    // carries the byte account the builder's inner loops charge.
    let scope = ctx
        .governor
        .stage(&format!("dimension/{kind}"), ctx.config.dimension_budget_ms);
    let mut builder = GraphBuilder::with_nodes(ctx.nodes.len());
    let mut funnel = BuilderFunnel::default();
    body(&mut builder, &mut funnel, &scope);
    // Graph edges are the allocation that outlives the builder
    // (`EDGE_BYTES` each). If that charge would not fit under the soft
    // budget, thin the graph to its heaviest edges first — campaign
    // herds score near 1.0 while coincidental overlaps sit just above
    // the edge threshold, so the lightest edges go first and the stage
    // completes degraded instead of cancelling on its own output.
    if scope.soft_bytes() > 0 {
        let headroom = scope.soft_bytes().saturating_sub(scope.tracked_bytes());
        let keep = (headroom / candidates::EDGE_BYTES) as usize;
        if builder.edge_count() > keep {
            let dropped = builder.thin_to(keep);
            funnel.edges = builder.edge_count() as u64;
            scope.record(
                Rung::Thinned,
                format!(
                    "graph thinned: {dropped} lightest edges dropped, {} kept",
                    builder.edge_count()
                ),
            );
        }
    }
    scope.charge(funnel.edges * candidates::EDGE_BYTES);
    record_dimension_metrics(ctx, kind, &funnel);
    builder.build()
}

/// A similarity dimension: builds one weighted graph over the shared node
/// space.
///
/// The trait is object-safe so new dimensions (payload similarity, timing)
/// can be plugged into the pipeline, as the paper's §VI envisions; it is
/// `Send + Sync` so the pipeline can build all dimension graphs in
/// parallel (the paper's §VI overhead remedy).
pub trait Dimension: Send + Sync {
    /// The dimension's identity.
    fn kind(&self) -> DimensionKind;

    /// Builds the similarity graph. Node `i` corresponds to
    /// `ctx.nodes[i]`; the graph must contain all nodes (isolated ones
    /// included).
    fn build_graph(&self, ctx: &DimensionContext<'_>) -> Graph;
}

/// Size of the intersection of two sorted, deduplicated slices — the
/// exact-match count of eqs. 2/7. Index-based two-pointer merge: this
/// runs once per scored candidate pair, so it stays branch-light instead
/// of juggling peekable iterators.
pub(crate) fn sorted_intersection_len(a: &[u32], b: &[u32]) -> usize {
    let mut shared = 0;
    let (mut i, mut j) = (0, 0);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        shared += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    shared
}

/// Jaccard-style set products used by eqs. 1 and 8:
/// `(|A∩B| / |A|) · (|A∩B| / |B|)`.
pub(crate) fn overlap_product(shared: usize, len_a: usize, len_b: usize) -> f64 {
    if len_a == 0 || len_b == 0 {
        return 0.0;
    }
    (shared as f64 / len_a as f64) * (shared as f64 / len_b as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smash_support::governor::GovernorOptions;

    /// `dimension`'s graph over every server of `dataset` (node `i` is
    /// server `i`).
    pub(super) fn build_governed(
        dimension: &dyn Dimension,
        dataset: &TraceDataset,
        whois: &WhoisRegistry,
        config: &SmashConfig,
        governor: &Governor,
    ) -> Graph {
        let nodes: Vec<ServerId> = dataset.server_ids().collect();
        dimension.build_graph(&DimensionContext {
            dataset,
            whois,
            config,
            nodes: &nodes,
            node_of: &nodes.iter().copied().zip(0..).collect(),
            metrics: &Registry::new(),
            governor: governor.clone(),
        })
    }

    /// [`build_governed`] with no budget, under the default configuration.
    pub(super) fn build_unbudgeted(
        dimension: &dyn Dimension,
        dataset: &TraceDataset,
        whois: &WhoisRegistry,
    ) -> Graph {
        let (config, governor) = (SmashConfig::default(), Governor::unlimited());
        build_governed(dimension, dataset, whois, &config, &governor)
    }

    #[test]
    fn sorted_intersection_counts() {
        assert_eq!(sorted_intersection_len(&[1, 3, 5], &[2, 3, 5, 9]), 2);
        assert_eq!(sorted_intersection_len(&[], &[1]), 0);
        assert_eq!(sorted_intersection_len(&[7], &[7]), 1);
    }

    #[test]
    fn overlap_product_basics() {
        assert_eq!(overlap_product(2, 2, 2), 1.0);
        assert_eq!(overlap_product(0, 5, 5), 0.0);
        assert_eq!(overlap_product(1, 0, 5), 0.0);
        assert!((overlap_product(1, 2, 4) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn govern_postings_sheds_longest_first_until_under_soft() {
        // 100-byte hard budget, 80 soft; the index charges 4 bytes per
        // posting entry = 96 bytes, so the longest posting (and only
        // it) must go.
        let governor = Governor::new(&GovernorOptions::unlimited().with_memory_budget_bytes(100));
        let scope = governor.stage("dimension/ip-set", 0);
        let keys = [7u32, 8, 9];
        // Keys 7, 8, 9 on the first 12, 8, 4 nodes.
        let rows = (0..12u32).map(|node| (0..3u32).filter(move |rank| node < 12 - 4 * rank));
        let index = FeatureIndex::transpose(keys.len(), 0, rows).expect("24 incidences");
        let shed = govern_postings(&scope, &index, &keys);
        let live = |&((f, n), _): &((u32, &[u32]), u32)| Some((Reverse(n.len()), f)) > shed;
        let kept = index.postings().zip(keys).filter(live).map(|(_, key)| key);
        assert_eq!(kept.collect::<Vec<u32>>(), vec![8, 9]);
        assert_eq!(scope.tracked_bytes(), 48);
        let summary = governor.stage_summaries().remove(0);
        assert_eq!(summary.events, vec!["shed posting feature=7 len=12"]);
        assert_eq!(summary.rungs.get(&Rung::Shed), Some(&1));
    }

    #[test]
    fn a_crowd_on_one_ip_is_thinned_not_cancelled() {
        // 150 servers on one address: a 600-byte index and 11 175
        // pairs, every one an eq. 8 edge of weight 1.0. Only the graph
        // grows with the pairs, and its rung is thinning: what the index
        // leaves of the 80 000-byte soft budget keeps 3 308 edges. (A
        // 178 800-byte pair table, charged once it existed, used to
        // cross the hard budget here with no rung in front.)
        let records = (0..150)
            .map(|s| smash_trace::HttpRecord::new(0, "c", &format!("s{s}.com"), "9.9.9.9", "/"));
        let dataset = TraceDataset::from_records(records);
        let budget = GovernorOptions::unlimited().with_memory_budget_bytes(100_000);
        let governor = Governor::new(&budget);
        let (whois, config) = (WhoisRegistry::new(), SmashConfig::default());
        let graph = build_governed(&IpSetDimension, &dataset, &whois, &config, &governor);
        let summary = governor.stage_summaries().remove(0);
        assert!(!summary.cancelled, "events: {:?}", summary.events);
        assert_eq!(summary.events.len(), 1, "events: {:?}", summary.events);
        assert_eq!(summary.rungs, [(Rung::Thinned, 1)].into_iter().collect());
        let fits = (80_000 - 600) / candidates::EDGE_BYTES;
        assert_eq!(graph.edge_count() as u64, fits);
        assert!(graph.edges().all(|(_, _, weight)| weight == 1.0));
    }

    #[test]
    fn kind_display_and_main_flag() {
        assert!(DimensionKind::Client.is_main());
        assert!(!DimensionKind::Whois.is_main());
        assert_eq!(DimensionKind::UriFile.to_string(), "uri-file");
    }
}
