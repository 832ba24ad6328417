//! LSH candidate-generation recall against the brute-force oracle
//! (DESIGN.md §10). Only the URI-file dimension has a candidate layer:
//! on the medium scenario every above-threshold pair its exact all-pairs
//! scoring finds must also be proposed by MinHash/LSH (recall ≥ 0.99),
//! and the final campaign report must be identical in both modes. The
//! client dimension enumerates its pairs from an inverted index, so
//! `--exact` must not move it at all — and on the flat-popularity stream,
//! the regime the benchmark's `remine_wide` measures, its graph must be
//! eq. 1 of every pair of the universe, computed here pair by pair.

use smash::core::dimensions::{ClientDimension, Dimension, DimensionContext, UriFileDimension};
use smash::core::preprocess::filter_popular;
use smash::core::{Smash, SmashConfig, SmashReport};
use smash::graph::Graph;
use smash::support::metrics::Registry;
use smash::synth::stream::StreamScenario;
use smash::synth::Scenario;
use smash::trace::TraceDataset;
use smash::whois::WhoisRegistry;
use std::collections::{BTreeSet, HashMap};

/// Builds one dimension graph over the kept-server node space.
fn build_dimension(
    dim: &dyn Dimension,
    dataset: &TraceDataset,
    whois: &WhoisRegistry,
    config: &SmashConfig,
) -> (Vec<u32>, Graph) {
    let pre = filter_popular(dataset, config.idf_threshold);
    let node_of: HashMap<u32, u32> = pre
        .kept
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let metrics = Registry::new();
    let g = dim.build_graph(&DimensionContext {
        dataset,
        whois,
        config,
        nodes: &pre.kept,
        node_of: &node_of,
        metrics: &metrics,
        governor: smash::support::governor::Governor::unlimited(),
    });
    (pre.kept, g)
}

/// Weighted edge set as a sorted map for set algebra.
fn edge_set(g: &Graph) -> BTreeSet<(u32, u32)> {
    g.edges().map(|(u, v, _)| (u, v)).collect()
}

/// Every edge with its weight's bits, in edge order.
fn weighted_edges(g: &Graph) -> Vec<(u32, u32, u64)> {
    g.edges().map(|(u, v, w)| (u, v, w.to_bits())).collect()
}

/// Asserts LSH recall ≥ `floor` for one dimension and prints any
/// missed pair with its exact similarity.
fn assert_recall(name: &str, exact: &Graph, lsh: &Graph, floor: f64) {
    let exact_edges: Vec<(u32, u32, f64)> = exact.edges().collect();
    let lsh_set = edge_set(lsh);
    let mut missed = Vec::new();
    for &(u, v, w) in &exact_edges {
        if !lsh_set.contains(&(u, v)) {
            missed.push((u, v, w));
        }
    }
    for &(u, v, w) in &missed {
        eprintln!("{name}: LSH missed pair ({u}, {v}) with exact similarity {w:.4}");
    }
    let recall = if exact_edges.is_empty() {
        1.0
    } else {
        1.0 - missed.len() as f64 / exact_edges.len() as f64
    };
    eprintln!(
        "{name}: {} exact edges, {} missed, recall {recall:.4}",
        exact_edges.len(),
        missed.len()
    );
    assert!(
        recall >= floor,
        "{name}: recall {recall:.4} below {floor} ({} of {} pairs missed)",
        missed.len(),
        exact_edges.len()
    );
}

/// Canonical view of the campaign assignment for identity comparison.
fn campaign_assignment(report: &SmashReport) -> BTreeSet<Vec<String>> {
    report
        .campaigns
        .iter()
        .map(|c| {
            let mut servers = c.servers.clone();
            servers.sort();
            servers
        })
        .collect()
}

#[test]
fn medium_scenario_lsh_recall_and_report_identity() {
    let data = Scenario::data2011_day(7).generate();
    let lsh_cfg = SmashConfig::default();
    let exact_cfg = SmashConfig::default().with_exact_candidates(true);

    // The client dimension proposes nothing: the mode cannot show.
    let (_, client_exact) =
        build_dimension(&ClientDimension, &data.dataset, &data.whois, &exact_cfg);
    let (_, client_lsh) = build_dimension(&ClientDimension, &data.dataset, &data.whois, &lsh_cfg);
    assert!(client_exact.edge_count() > 0);
    assert_eq!(weighted_edges(&client_lsh), weighted_edges(&client_exact));

    // Pair-level recall of the dimension LSH does propose for.
    let (_, file_exact) =
        build_dimension(&UriFileDimension, &data.dataset, &data.whois, &exact_cfg);
    let (_, file_lsh) = build_dimension(&UriFileDimension, &data.dataset, &data.whois, &lsh_cfg);
    assert_recall("uri-file", &file_exact, &file_lsh, 0.99);

    // End-to-end: the final campaign assignment must be identical.
    let report_lsh = Smash::new(lsh_cfg).run(&data.dataset, &data.whois);
    let report_exact = Smash::new(exact_cfg).run(&data.dataset, &data.whois);
    assert!(
        !report_lsh.campaigns.is_empty(),
        "medium scenario must yield campaigns"
    );
    assert_eq!(
        campaign_assignment(&report_lsh),
        campaign_assignment(&report_exact),
        "LSH and exact candidate generation must infer the same campaigns"
    );
}

#[test]
fn flat_popularity_client_edges_equal_the_exact_oracle() {
    // The benchmark's wide shape (Zipf 0.5: no server towers over the
    // rest, so hundreds keep 70–200 clients under the IDF cut and most
    // pairs share a client or two) at a tenth of its size. The Zipf-1
    // presets above never enter this regime: a third of the universe
    // co-occurs and a fraction of a percent of it is an edge. The
    // oracle is eq. 1 of every pair of kept servers with at least two
    // clients each, shared clients counted by `contains`.
    let scenario = StreamScenario {
        clients: 5_000,
        benign_servers: 300,
        zipf_exponent: 0.5,
        ..StreamScenario::quick(7)
    };
    let (dataset, whois) = (scenario.dataset(), WhoisRegistry::new());
    let config = SmashConfig::default();
    let (kept, built) = build_dimension(&ClientDimension, &dataset, &whois, &config);
    assert!(kept.len() >= 200, "only {} servers kept", kept.len());
    let mut oracle = Vec::new();
    for (u, cu) in (0u32..).zip(kept.iter().map(|&s| dataset.clients_of(s))) {
        for (v, cv) in (0u32..).zip(kept.iter().map(|&s| dataset.clients_of(s))) {
            if u < v && cu.len() >= 2 && cv.len() >= 2 {
                let shared = cu.iter().filter(|c| cv.contains(c)).count() as f64;
                let sim = (shared / cu.len() as f64) * (shared / cv.len() as f64);
                if sim >= config.client_edge_min {
                    oracle.push((u, v, sim.to_bits()));
                }
            }
        }
    }
    assert!(!oracle.is_empty());
    assert_eq!(weighted_edges(&built), oracle);
    let exact_cfg = config.with_exact_candidates(true);
    let (_, exact) = build_dimension(&ClientDimension, &dataset, &whois, &exact_cfg);
    assert_eq!(
        weighted_edges(&exact),
        oracle,
        "--exact moved the client graph"
    );
}

#[test]
fn small_scenario_reports_are_identical() {
    // The cheap variant: exact-vs-LSH report identity on the small
    // scenario (URI-file is the dimension the mode reaches). ci.sh
    // runs the same comparison through the CLI as a smoke (step 16).
    let data = Scenario::small_day(7).generate();
    let report_lsh = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    let report_exact = Smash::new(SmashConfig::default().with_exact_candidates(true))
        .run(&data.dataset, &data.whois);
    assert!(!report_lsh.campaigns.is_empty());
    assert_eq!(
        campaign_assignment(&report_lsh),
        campaign_assignment(&report_exact)
    );
}
