//! Determinism regression: the pipeline must produce byte-identical
//! reports across runs and across thread counts. Every stage is seeded
//! (synthesis, Louvain) and the parallel dimension fan-out is
//! order-preserving, so nothing may depend on scheduling.

use smash::core::{Smash, SmashConfig, SmashReport};
use smash::support::json::{self, ToJson};
use smash::synth::Scenario;

/// The report's serializable surface, as one canonical JSON string.
fn fingerprint(report: &SmashReport) -> String {
    let mut root = std::collections::BTreeMap::new();
    root.insert("campaigns".to_string(), report.campaigns.to_json());
    root.insert("kept_servers".to_string(), report.kept_servers.to_json());
    root.insert(
        "dropped_popular".to_string(),
        report.dropped_popular.to_json(),
    );
    root.insert(
        "dimension_summaries".to_string(),
        report.dimension_summaries.to_json(),
    );
    json::to_string_pretty(&root.to_json())
}

#[test]
fn pipeline_output_is_byte_identical_across_runs_and_thread_counts() {
    let data = Scenario::small_day(42).generate();
    // The default four dimensions, and all seven: the three opt-in ones
    // are built from per-record scans nothing else compares across
    // thread counts.
    let all_seven = SmashConfig::default()
        .with_param_pattern_dimension(true)
        .with_timing_dimension(true)
        .with_payload_dimension(true);
    for config in [SmashConfig::default(), all_seven] {
        let run = || fingerprint(&Smash::new(config.clone()).run(&data.dataset, &data.whois));
        let first = run();
        assert_eq!(first, run(), "two identical runs diverged");

        // Force the parallel dimension fan-out down to a single thread
        // and up to four: the report must not change with the degree of
        // parallelism.
        for threads in [1, 4] {
            smash::support::par::set_thread_count(threads);
            let pinned = run();
            smash::support::par::set_thread_count(0); // restore the default
            assert_eq!(first, pinned, "{threads} thread(s) changed the report");
        }

        // The report is substantial, not vacuously equal.
        assert!(first.len() > 100, "suspiciously small report: {first}");
    }
}

#[test]
fn regenerated_scenario_yields_the_same_report() {
    // Synthesis itself is a pure function of the seed, so regenerating
    // the scenario end-to-end must reproduce the exact report too.
    let a = Scenario::small_day(42).generate();
    let b = Scenario::small_day(42).generate();
    let ra = fingerprint(&Smash::new(SmashConfig::default()).run(&a.dataset, &a.whois));
    let rb = fingerprint(&Smash::new(SmashConfig::default()).run(&b.dataset, &b.whois));
    assert_eq!(ra, rb);
}
