//! The SMSHCOLS on-disk day contract (DESIGN.md §12.4), from both
//! ends: behind the shared envelope, the payload codec must never
//! panic on hostile bytes and must reject every structural lie, and a
//! dataset mined after a save/load round trip
//! must produce a byte-identical campaign report — the guarantee that
//! lets `smash preprocess` + `--load-day` replace re-ingesting.

use smash::core::{Smash, SmashConfig, SmashReport};
use smash::support::check::{cases, Gen, Shrink};
use smash::support::envelope;
use smash::support::json::{self, ToJson};
use smash::synth::Scenario;
use smash::trace::day::{frame_day, parse_day, MAGIC, STAGE, VERSION};
use smash::trace::{load_day, save_day, DayError, TraceDataset};

/// The report's serializable surface, as one canonical JSON string
/// (the determinism suite's fingerprint).
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

/// Arbitrary bytes handed to the day decoder as a *payload*. No
/// shrinking: every case is cheap and the seed replays it exactly.
#[derive(Debug, Clone)]
struct Hostile(Vec<u8>);
impl Shrink for Hostile {}

#[test]
fn hostile_payload_in_a_valid_envelope_never_panics_or_parses() {
    // The shared envelope's own suite (`smash_support::envelope`)
    // covers hostile *frames*; what is specific to days is the layer
    // behind a clean checksum — the wire decoder and `validate` — so
    // the garbage here is framed correctly and must be refused there.
    cases(512).run(
        |g: &mut Gen| {
            let len = g.range(0..4096usize);
            Hostile(g.vec(len..=len, |g| g.range(0..=255u32) as u8))
        },
        |case: &Hostile| {
            let framed = envelope::frame(MAGIC, VERSION, STAGE, &case.0).expect("frame");
            assert!(matches!(
                parse_day(&framed),
                Err(DayError::Corrupt(_) | DayError::Invalid(_))
            ));
        },
    );
}

#[test]
fn other_versions_are_rejected_with_the_version_they_carried() {
    let data = Scenario::small_day(11).generate();
    let mut bytes = frame_day(&data.dataset);
    assert!(parse_day(&bytes).is_ok(), "pristine frame must parse");
    // Patch the version field: readers fail closed with the version
    // they saw (DESIGN.md §12.4), before even checking the checksum —
    // the error must tell an operator *which* writer produced the file.
    for other in [VERSION + 1, VERSION - 1] {
        bytes[8..12].copy_from_slice(&other.to_le_bytes());
        match parse_day(&bytes) {
            Err(DayError::Version(v)) => assert_eq!(v, other),
            other => panic!("patched version must not parse: {other:?}"),
        }
    }
}

#[test]
fn remined_day_report_is_byte_identical() {
    let data = Scenario::small_day(42).generate();
    let direct = fingerprint(&Smash::new(SmashConfig::default()).run(&data.dataset, &data.whois));

    let path = std::env::temp_dir().join(format!("smash-day-remine-{}.day", std::process::id()));
    save_day(&path, &data.dataset).expect("save day");
    let loaded: TraceDataset = load_day(&path).expect("load day");
    std::fs::remove_file(&path).ok();

    let remined = fingerprint(&Smash::new(SmashConfig::default()).run(&loaded, &data.whois));
    assert_eq!(
        direct, remined,
        "re-mining a saved day diverged from the ingest path"
    );
    assert!(direct.len() > 100, "suspiciously small report: {direct}");
}
