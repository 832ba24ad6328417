//! The observability layer, end to end: an in-process run must time
//! every pipeline stage exactly once, and the CLI's `--metrics` dump
//! must round-trip through `smash::support::json` with the same stage
//! coverage (DESIGN.md §7).

use smash::core::preprocess::filter_popular;
use smash::core::{Smash, SmashConfig};
use smash::support::metrics::{MetricsSnapshot, Registry};
use smash::synth::Scenario;
use std::path::PathBuf;
use std::process::Command;

/// Every stage a default-config in-process run must record (the CLI adds
/// `stage/ingest` on top; param-pattern/timing/payload are disabled by
/// default so they must NOT appear).
const PIPELINE_STAGES: &[&str] = &[
    "stage/preprocess",
    "stage/dimension/client",
    "stage/dimension/uri-file",
    "stage/dimension/ip-set",
    "stage/dimension/whois",
    "stage/correlate",
    "stage/prune",
    "stage/infer",
    "stage/assemble",
];

fn assert_stages_once(snapshot: &MetricsSnapshot, expected: &[&str]) {
    let stages = snapshot.stage_names();
    for want in expected {
        let h = snapshot
            .histograms
            .get(*want)
            .unwrap_or_else(|| panic!("stage {want} missing; got {stages:?}"));
        assert_eq!(h.count, 1, "stage {want} must run exactly once");
    }
    assert_eq!(
        stages.len(),
        expected.len(),
        "unexpected extra stages: {stages:?}"
    );
}

#[test]
fn pipeline_times_every_stage_exactly_once() {
    let data = Scenario::small_day(3).generate();
    let metrics = Registry::new();
    let report =
        Smash::new(SmashConfig::default()).run_with_metrics(&data.dataset, &data.whois, &metrics);
    let snapshot = metrics.snapshot();
    assert_stages_once(&snapshot, PIPELINE_STAGES);

    // The funnel counters landed too.
    for counter in [
        "preprocess/records",
        "preprocess/servers_kept",
        "correlate/candidate_herds",
        "dim/client/postings",
        "louvain/client/passes",
    ] {
        assert!(
            snapshot.counters.contains_key(counter),
            "counter {counter} missing; got {:?}",
            snapshot.counters.keys().collect::<Vec<_>>()
        );
    }
    assert_eq!(
        snapshot.counters["preprocess/records"],
        data.dataset.record_count() as u64
    );

    // The report's perf section is distilled from the same registry.
    assert_eq!(report.perf.stages.len(), PIPELINE_STAGES.len());
    assert_eq!(report.perf.records, data.dataset.record_count() as u64);
    assert!(report.perf.total_wall_ms > 0.0);
    assert!(report.perf.peak_graph_nodes > 0);
    // Stages come back in pipeline order, preprocess first.
    assert_eq!(report.perf.stages[0].stage, "preprocess");
    assert_eq!(report.perf.stages.last().unwrap().stage, "assemble");
}

/// The candidate funnel must reconcile for both LSH-routed dimensions,
/// in both candidate modes: every stage is a subset of the one before,
/// every scored pair is either pruned or an edge, and the layer proposed
/// each pair it kept at least once (exactly once in exact mode).
///
/// `scan_steps` names the scorer that ran: never the row-wise scan for
/// uri-file, always for client on an unbudgeted run (a client dimension
/// silently stuck on its pairwise fallback would pass every identity
/// test) — and over the whole pair universe the scan spends exactly one
/// increment per (client, unordered pair of eligible kept servers it
/// visited), counted here straight from `clients_of`.
#[test]
fn candidate_funnel_reconciles_in_lsh_and_exact_mode() {
    let data = Scenario::small_day(3).generate();
    let kept = filter_popular(&data.dataset, SmashConfig::default().idf_threshold).kept;
    let mut degree = vec![0u64; data.dataset.client_count()];
    for clients in kept.iter().map(|&server| data.dataset.clients_of(server)) {
        if clients.len() >= 2 {
            for &client in clients {
                degree[client as usize] += 1;
            }
        }
    }
    let universe_steps: u64 = degree.iter().map(|d| d * d.saturating_sub(1) / 2).sum();
    for exact in [false, true] {
        let metrics = Registry::new();
        let config = SmashConfig::default().with_exact_candidates(exact);
        Smash::new(config).run_with_metrics(&data.dataset, &data.whois, &metrics);
        let counters = metrics.snapshot().counters;
        let get = |kind: &str, name: &str| counters[&format!("dim/{kind}/{name}")];
        let funnel = |kind: &str| {
            let stages = ["considered", "proposed", "bucketed", "scored", "pruned"];
            let [considered, proposed, bucketed, scored, pruned] =
                stages.map(|stage| get(kind, &format!("pairs_{stage}")));
            let edges = get(kind, "edges");
            let line = format!(
                "{kind} exact={exact}: considered {considered} proposed {proposed} \
                 bucketed {bucketed} scored {scored} pruned {pruned} edges {edges}"
            );
            assert_eq!(scored, pruned + edges, "{line}");
            assert!(edges > 0, "{line}");
            ([considered, proposed, bucketed, scored], line)
        };
        // URI-file goes through the candidate layer, whichever mode
        // proposes: the funnel narrows stage by stage, and the oracle
        // proposes each pair once. The counts are pinned so that no
        // rewrite of the candidate layer can drift one. `scan_steps` stays 0:
        // URI-file has no accumulator, and the tails its scan walks are
        // `pairs_proposed`.
        let ([considered, proposed, bucketed, scored], line) = funnel("uri-file");
        assert!(considered >= bucketed, "{line}");
        assert!(proposed >= bucketed, "{line}");
        assert!(!exact || proposed == bucketed, "{line}");
        assert!(bucketed >= scored, "{line}");
        assert_eq!(get("uri-file", "scan_steps"), 0, "exact={exact}");
        let pinned = if exact {
            [8_646, 8_646, 8_646, 8_646, 392]
        } else {
            [8_646, 7_671, 434, 434, 390]
        };
        let edges = get("uri-file", "edges");
        assert_eq!(
            [considered, proposed, bucketed, scored, edges],
            pinned,
            "{line}"
        );
        // The client dimension has no proposer in either mode, like the
        // other co-occurrence dimensions: it scores the pairs that share
        // a client, at one increment per client they share.
        let ([considered, proposed, bucketed, scored], line) = funnel("client");
        assert_eq!([considered, proposed, bucketed], [0; 3], "{line}");
        let steps = get("client", "scan_steps");
        assert_eq!(steps, universe_steps, "exact={exact}: Σ_c C(deg(c), 2)");
        assert!(scored <= steps, "{line}: a scored pair shares a client");
    }
}

#[test]
fn enabling_a_dimension_adds_its_stage() {
    let data = Scenario::small_day(3).generate();
    let metrics = Registry::new();
    let config = SmashConfig::default().with_param_pattern_dimension(true);
    Smash::new(config).run_with_metrics(&data.dataset, &data.whois, &metrics);
    let snapshot = metrics.snapshot();
    assert!(snapshot
        .histograms
        .contains_key("stage/dimension/param-pattern"));
    assert_eq!(snapshot.stage_names().len(), PIPELINE_STAGES.len() + 1);
}

#[test]
fn cli_metrics_dump_parses_and_names_every_stage() {
    let dir = std::env::temp_dir().join(format!("smash-metrics-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace: PathBuf = dir.join("trace.jsonl");
    let metrics_out: PathBuf = dir.join("metrics.json");

    let smash = env!("CARGO_BIN_EXE_smash");
    let gen = Command::new(smash)
        .args(["generate", "small", trace.to_str().unwrap(), "--seed", "5"])
        .output()
        .unwrap();
    assert!(gen.status.success(), "generate failed: {gen:?}");

    let analyze = Command::new(smash)
        .args([
            "analyze",
            trace.to_str().unwrap(),
            "--metrics",
            metrics_out.to_str().unwrap(),
            "--profile",
        ])
        .output()
        .unwrap();
    assert!(analyze.status.success(), "analyze failed: {analyze:?}");
    // --profile prints the human table with a stage column.
    let stdout = String::from_utf8_lossy(&analyze.stdout);
    assert!(stdout.contains("stage/dimension/client"), "{stdout}");

    let raw = std::fs::read_to_string(&metrics_out).unwrap();
    let snapshot: MetricsSnapshot = smash::support::json::from_str(&raw).unwrap();
    // The CLI path adds the ingest stage, and inside it the reader's
    // ordered merge and the appender's posting build timed on their
    // own, in front of the pipeline's own.
    let mut expected = vec![
        "stage/ingest",
        "stage/ingest/merge",
        "stage/ingest/postings",
    ];
    expected.extend_from_slice(PIPELINE_STAGES);
    assert_stages_once(&snapshot, &expected);
    assert!(snapshot.counters["ingest/records"] > 0);
    assert!(snapshot.counters["ingest/chunks"] > 0);
    assert!(
        snapshot.histograms["stage/ingest/merge"].sum_ns
            + snapshot.histograms["stage/ingest/postings"].sum_ns
            <= snapshot.histograms["stage/ingest"].sum_ns
    );
    assert_eq!(snapshot.counters["ingest/quarantined"], 0);
    // The bytes ingested are the trace file's, and with them the
    // profile's ingest row carries its throughput.
    assert_eq!(
        snapshot.counters["ingest/bytes"],
        std::fs::metadata(&trace).unwrap().len()
    );
    let ingest_row = stdout
        .lines()
        .find(|l| l.starts_with("stage/ingest"))
        .expect("an ingest row");
    assert!(
        ingest_row.contains(" MB/s") && ingest_row.contains(" records/s"),
        "{ingest_row}"
    );

    // A preprocessed day loads instead of ingesting: `stage/load_day`,
    // one span, since the read, the checksums and the decode interleave
    // section by section.
    let day: PathBuf = dir.join("trace.day");
    let day_metrics: PathBuf = dir.join("day-metrics.json");
    let preprocess = Command::new(smash)
        .args(["preprocess", trace.to_str().unwrap(), day.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        preprocess.status.success(),
        "preprocess failed: {preprocess:?}"
    );
    let analyze_day = Command::new(smash)
        .args([
            "analyze",
            day.to_str().unwrap(),
            "--metrics",
            day_metrics.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        analyze_day.status.success(),
        "analyze failed: {analyze_day:?}"
    );
    let raw = std::fs::read_to_string(&day_metrics).unwrap();
    let snapshot: MetricsSnapshot = smash::support::json::from_str(&raw).unwrap();
    let mut expected = vec!["stage/load_day"];
    expected.extend_from_slice(PIPELINE_STAGES);
    assert_stages_once(&snapshot, &expected);
    assert!(snapshot.histograms["stage/load_day"].sum_ns > 0);

    std::fs::remove_dir_all(&dir).ok();
}
