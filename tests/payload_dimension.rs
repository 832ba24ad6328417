//! Integration: the §VI payload-similarity extension links download
//! mirrors serving the same binary, and behaves as a pure addition.

use smash::core::dimensions::{Dimension, DimensionContext, DimensionKind, PayloadDimension};
use smash::core::preprocess::filter_popular;
use smash::core::{Smash, SmashConfig};
use smash::synth::builder::ScenarioBuilder;
use smash::synth::campaigns::{bagle, CampaignSeeds};
use smash::synth::config::DetectionCoverage;
use smash::synth::Scenario;
use smash::trace::TraceDataset;
use std::collections::HashMap;

#[test]
fn bagle_downloads_share_payload_sizes() {
    let mut b = ScenarioBuilder::new(60, 86_400);
    let servers = bagle::generate(
        &mut b,
        "bagle-payload",
        8,
        10,
        3,
        DetectionCoverage::typical(),
        CampaignSeeds::fixed(5),
    );
    let ds = TraceDataset::from_records(b.finish().records);
    let config = SmashConfig::default();
    let pre = filter_popular(&ds, config.idf_threshold);
    let node_of: HashMap<u32, u32> = pre
        .kept
        .iter()
        .enumerate()
        .map(|(i, &s)| (s, i as u32))
        .collect();
    let whois = smash::whois::WhoisRegistry::new();
    let graph = PayloadDimension.build_graph(&DimensionContext {
        dataset: &ds,
        whois: &whois,
        config: &config,
        nodes: &pre.kept,
        node_of: &node_of,
        metrics: &smash::support::metrics::Registry::new(),
        governor: smash::support::governor::Governor::unlimited(),
    });
    // Every pair of download servers (first 8 names) shares the payload
    // size; the C&C servers' small command responses are below the
    // dimension's size floor.
    let node = |name: &str| node_of[&ds.server_id(name).unwrap()];
    let mut linked = 0;
    for i in 0..8 {
        for j in (i + 1)..8 {
            if graph
                .edge_weight(node(&servers[i]), node(&servers[j]))
                .is_some()
            {
                linked += 1;
            }
        }
    }
    assert_eq!(linked, 28, "all download pairs must share the payload size");
    assert_eq!(
        graph.edge_weight(node(&servers[8]), node(&servers[9])),
        None,
        "C&C command responses are too small to fingerprint"
    );
}

#[test]
fn payload_dimension_is_a_pure_addition() {
    let data = Scenario::data2011_day(5).generate();
    let base = Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois);
    let ext = Smash::new(SmashConfig::default().with_payload_dimension(true))
        .run(&data.dataset, &data.whois);
    assert!(
        ext.inferred_server_count() >= base.inferred_server_count(),
        "payload dimension must not lose servers: {} -> {}",
        base.inferred_server_count(),
        ext.inferred_server_count()
    );
    // And the dimension actually contributes on the Bagle/Sality herds.
    let payload_touched = ext
        .campaigns
        .iter()
        .flat_map(|c| c.dimensions.iter())
        .any(|dims| dims.contains(&DimensionKind::Payload));
    assert!(payload_touched, "payload dimension never contributed");
}

/// `smash generate` writes `raw_records()`: re-ingesting them must keep
/// the response sizes the payload dimension reads.
#[test]
fn raw_records_keep_a_generated_scenarios_response_sizes() {
    let data = Scenario::small_day(7).generate();
    let sizes = data.dataset.columns().resp_bytes();
    assert!(sizes.iter().any(|&b| b > 0), "the scenario carries sizes");
    let again = TraceDataset::from_records(data.dataset.raw_records());
    let kept = again.columns().resp_bytes();
    let lost = sizes.iter().zip(kept).filter(|(a, b)| a != b).count();
    assert_eq!(
        (kept.len(), lost),
        (sizes.len(), 0),
        "sizes lost on re-ingest"
    );
}
