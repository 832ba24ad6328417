//! Run-governor suite (DESIGN.md §11): cancellation and the
//! tracked-bytes ledger.
//!
//! Six promises of the governed pipeline:
//!
//! 1. **No deadline hit, no change** — a governed run whose deadline
//!    never comes is byte-identical to the plain run, its tracked peaks
//!    included.
//! 2. **A cancelled run degrades, never panics** — a parent token
//!    cancelled before the run cancels the main dimension, and the
//!    report says so (`Cancelled` status, a governor line, a counter).
//! 3. **A deadline abort is never published** — a daemon mine whose
//!    client dimension the mine deadline cancelled fails its epoch
//!    instead of making an empty campaign list durable, and a restart
//!    without the deadline serves the unconstrained daemon's report.
//! 4. **A run deadline drops only what it catches** — a secondary
//!    stalled past the deadline is dropped and scores renormalized; the
//!    client's herds are still found.
//! 5. **Degradation is monotone** — as the deadline shrinks across
//!    nested injected delays, planted campaigns may be lost, never
//!    gained.
//! 6. **The main dimension is exact and charged once** — one client
//!    index over every row, its stage peak the index's (or the graph's)
//!    bytes.
//!
//! And `smash analyze --deadline-ms` is one clock: ingest and mining
//! share it.

mod common;

use common::{flux_lines, flux_recovered, flux_trace, flux_whois, locked, reply, scratch};
use smash::core::report::DimensionStatus;
use smash::core::{DimensionKind, Smash, SmashConfig, SmashReport};
use smash::serve::{CampaignService, ServeOptions};
use smash::support::failpoint;
use smash::support::governor::{CancelToken, GovernorOptions};
use smash::support::json::{self, Json};
use smash::support::metrics::Registry;
use smash::synth::stream::StreamScenario;
use smash::whois::WhoisRegistry;
use std::sync::Mutex;

/// The failpoint registry is process-global; serialize the tests that
/// could observe an armed spec.
static LOCK: Mutex<()> = Mutex::new(());

/// The flux world under `resources`, with its metrics.
fn run(resources: Option<&GovernorOptions>) -> (SmashReport, Registry) {
    let metrics = Registry::new();
    let report = Smash::new(SmashConfig::default()).run_governed(
        &flux_trace(),
        &flux_whois(),
        &metrics,
        resources,
    );
    (report, metrics)
}

/// Every stage's tracked peak, then the run's.
fn tracked_peaks(report: &SmashReport) -> (Vec<(String, u64)>, u64) {
    let stages = report.perf.stages.iter();
    let stages = stages.map(|s| (s.stage.clone(), s.peak_tracked_bytes));
    (stages.collect(), report.perf.peak_tracked_bytes)
}

#[test]
fn ungoverned_and_unbudgeted_runs_are_byte_identical_to_plain() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let metrics = Registry::new();
    let plain =
        Smash::new(SmashConfig::default()).run_with_metrics(&flux_trace(), &flux_whois(), &metrics);

    let (ungoverned, _) = run(None);
    let (unlimited, _) = run(Some(&GovernorOptions::unlimited()));
    // An hour on the run token and on its parent: both clocks run, and
    // neither fires.
    let hour = 3_600_000;
    let far = GovernorOptions::unlimited()
        .with_deadline_ms(hour)
        .with_cancel(CancelToken::with_deadline_ms(hour));
    let (governed, _) = run(Some(&far));

    for (what, report) in [
        ("run_governed without resources", &ungoverned),
        ("an unlimited governor", &unlimited),
        ("a far deadline", &governed),
    ] {
        assert_eq!(
            report.canonical_json(),
            plain.canonical_json(),
            "{what} changed the report"
        );
        assert_eq!(
            tracked_peaks(report),
            tracked_peaks(&plain),
            "{what} changed the tracked peaks"
        );
        assert!(report.health.governor.is_empty(), "{what}: governor lines");
    }
    assert!(plain.perf.peak_tracked_bytes > 0, "nothing was charged");
}

#[test]
fn impossible_memory_budget_cancels_through_the_ladder() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    // A parent token cancelled before the run starts: the first poll of
    // the main dimension bails, and the run returns a degraded-but-valid
    // report instead of unwinding.
    let parent = CancelToken::new();
    let why = "governor: cancelled before the run";
    assert!(parent.cancel(why));
    let (report, metrics) = run(Some(&GovernorOptions::unlimited().with_cancel(parent)));

    assert!(report.campaigns.is_empty());
    match report.health.status_of(DimensionKind::Client) {
        Some(DimensionStatus::Cancelled { reason }) => assert_eq!(reason, why),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    let line = "dimension/client: stage cancelled by governor";
    assert!(
        report.health.governor.iter().any(|e| e == line),
        "governor lines miss the cancellation: {:?}",
        report.health.governor
    );
    assert!(metrics.counter("governor/cancelled").get() >= 1);
}

/// One daemon life on `dir`, with `spec` armed while it runs and each
/// mine under `mine_deadline_ms`: the flux lines ingested and sealed as
/// epoch 1. Returns the `WAIT` reply, the `REPORT` and the service's
/// `(sealed, published, failed)`.
fn daemon_epoch(
    dir: &std::path::Path,
    mine_deadline_ms: u64,
    spec: &str,
) -> (String, String, (u64, u64, u64)) {
    let mut opts = ServeOptions::new(dir);
    opts.mine_deadline_ms = mine_deadline_ms;
    failpoint::disarm_all();
    failpoint::arm_spec(spec).expect("failpoint spec parses");
    let svc = CampaignService::start(opts).expect("start");
    let mut conn = svc.connection();
    for line in flux_lines() {
        assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
    }
    assert!(reply(&mut conn, "SEAL").starts_with("OK epoch=1 "));
    let wait = reply(&mut conn, "WAIT");
    let report = reply(&mut conn, "REPORT");
    let epochs = svc.epochs();
    assert_eq!(
        svc.counter("serve/mine/failed"),
        u64::from(epochs.2 > 0),
        "a failed epoch is counted once"
    );
    svc.shutdown();
    failpoint::disarm_all();
    (wait, report, epochs)
}

#[test]
fn resume_after_governor_abort_reproduces_the_unconstrained_report() {
    let _g = locked(&LOCK);
    let clean = scratch("smash-governor-test", "daemon-unconstrained");
    let (wait, unconstrained, epochs) = daemon_epoch(&clean, 0, "");
    assert_eq!(wait, "OK epoch=1");
    assert_eq!(epochs, (1, 1, 0));
    assert_ne!(
        unconstrained, "[]",
        "the unconstrained daemon found nothing"
    );

    // The client stalls 300 ms against a 50 ms mine deadline, so the
    // deadline cancels it. The empty report that mine returns is no
    // answer: the epoch fails, and nothing is made durable in its name.
    let dir = scratch("smash-governor-test", "daemon-abort");
    let (wait, report, epochs) = daemon_epoch(&dir, 50, "dimension/client=delay:300");
    assert_eq!(wait, "ERR mine-failed epoch=1");
    assert_eq!(report, "[]", "the cold snapshot keeps serving");
    assert_eq!(epochs, (1, 0, 1));
    assert!(
        !dir.join(smash::serve::snapshot::SNAPSHOT_FILE).exists(),
        "a deadline-aborted mine was published"
    );

    // Restart without the deadline: the WAL replays, the epoch is mined
    // again, and the answer is the unconstrained daemon's.
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("restart");
    let mut conn = svc.connection();
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=1");
    assert_eq!(reply(&mut conn, "REPORT"), unconstrained);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&clean);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn soft_budget_engages_the_ladder_but_still_completes() {
    let _g = locked(&LOCK);
    // Whois stalls 200 ms at every node it visits — seconds, left alone
    // — and the run deadline of 1 s catches it mid-stall. The client,
    // URI-file and IP-set dimensions finish this tiny trace long before.
    failpoint::disarm_all();
    failpoint::arm_spec("dimension/whois/tick=delay:200").expect("failpoint spec parses");
    let deadline = GovernorOptions::unlimited().with_deadline_ms(1_000);
    let (report, metrics) = run(Some(&deadline));
    failpoint::disarm_all();

    assert!(flux_recovered(&report), "campaigns: {:?}", report.campaigns);
    for kind in [
        DimensionKind::Client,
        DimensionKind::UriFile,
        DimensionKind::IpSet,
    ] {
        let status = report.health.status_of(kind);
        assert!(
            status.is_some_and(DimensionStatus::is_ok),
            "{kind}: {status:?}"
        );
    }
    match report.health.status_of(DimensionKind::Whois) {
        Some(DimensionStatus::Cancelled { reason }) => assert!(
            reason.starts_with("governor: run deadline exceeded: elapsed "),
            "{reason}"
        ),
        other => panic!("expected Whois Cancelled, got {other:?}"),
    }
    // Three secondaries planned, two finished.
    assert_eq!(report.health.score_renormalization, 1.5);
    let line = "dimension/whois: stage cancelled by governor";
    assert_eq!(report.health.governor, vec![line]);
    assert_eq!(metrics.counter("governor/cancelled").get(), 1);
}

#[test]
fn degradation_is_monotone_as_the_budget_halves() {
    let _g = locked(&LOCK);
    let scenario = StreamScenario::quick(7);
    let dataset = scenario.dataset();
    let whois = WhoisRegistry::new();
    let smash = Smash::new(SmashConfig::default());
    // Planted campaigns recovered, and the dimensions that finished.
    let run = |deadline_ms: u64| {
        let opts = GovernorOptions::unlimited().with_deadline_ms(deadline_ms);
        let report = smash.run_governed(&dataset, &whois, &Registry::new(), Some(&opts));
        let recovered = scenario.recovered_campaigns(&report.campaign_server_names());
        let finished: Vec<DimensionKind> = (report.health.dimensions.iter())
            .filter(|d| d.status.is_ok())
            .map(|d| d.kind)
            .collect();
        (recovered, finished)
    };

    // IP-set stalls 1.5 s before it starts, beside URI-file's build: a
    // shorter deadline catches a superset of the stages a longer one
    // did — the stalled secondary, then whatever is still running, then
    // the client itself.
    failpoint::disarm_all();
    failpoint::arm_spec("dimension/ip-set=delay:1500").expect("failpoint spec parses");
    let mut curve = Vec::new();
    let mut wider: Option<(usize, Vec<DimensionKind>)> = None;
    for deadline_ms in [0, 60_000, 1_000, 1] {
        let (recovered, finished) = run(deadline_ms);
        if let Some((more, kept)) = &wider {
            assert!(
                recovered <= *more,
                "{deadline_ms} ms: recovered {recovered} > {more} under a longer deadline"
            );
            assert!(
                finished.iter().all(|kind| kept.contains(kind)),
                "{deadline_ms} ms: {finished:?} finished, only {kept:?} under a longer deadline"
            );
        }
        curve.push((deadline_ms, recovered));
        wider = Some((recovered, finished));
    }
    failpoint::disarm_all();
    eprintln!("campaigns recovered as the deadline shrinks: {curve:?}");
    // The sweep reaches both ends: every campaign with no deadline and
    // with one that never comes, nothing once the client is cancelled.
    let all = scenario.campaigns;
    assert_eq!(curve.get(..2), Some(&[(0, all), (60_000, all)][..]));
    assert_eq!(wider, Some((0, Vec::new())), "{curve:?}");
}

#[test]
fn client_index_over_budget_is_windowed_not_cancelled() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    // `quick`'s client index over all its rows: 154 167 incidences and
    // 40 000 clients, 4 B × (154 167 + 1) of node runs beside the
    // smaller of a 4 B offset per client and a key and an offset per
    // incidence — 776 672 B, built once.
    const INDEX_BYTES: f64 = 776_672.0;
    let scenario = StreamScenario::quick(7);
    let dataset = scenario.dataset();
    let metrics = Registry::new();
    let report = Smash::new(SmashConfig::default()).run_with_metrics(
        &dataset,
        &WhoisRegistry::new(),
        &metrics,
    );
    let status = report.health.status_of(DimensionKind::Client);
    assert!(status.is_some_and(DimensionStatus::is_ok), "{status:?}");
    assert!(
        report.health.governor.is_empty(),
        "{:?}",
        report.health.governor
    );
    let graph_bytes = 24.0 * metrics.counter("dim/client/edges").get() as f64;
    let peak = metrics.gauge("governor/dimension/client/peak_bytes").get();
    assert_eq!(peak, INDEX_BYTES.max(graph_bytes), "client stage peak");
    // One pass spends the whole universe's mass, and nothing reports
    // windows any more.
    assert_eq!(metrics.counter("dim/client/scan_steps").get(), 321_159);
    let names = metrics.snapshot().gauges;
    assert!(!names.contains_key("dim/client/windows"));
    let recovered = scenario.recovered_campaigns(&report.campaign_server_names());
    assert_eq!(recovered, scenario.campaigns);
}

#[test]
fn run_deadline_spans_ingest_and_mining_on_one_clock() {
    let _g = locked(&LOCK);
    let dir = scratch("smash-governor-test", "one-clock");
    let smash = env!("CARGO_BIN_EXE_smash");
    let trace = dir.join("small.jsonl");
    let generate = std::process::Command::new(smash)
        .args(["generate", "small"])
        .arg(&trace)
        .args(["--seed", "42"])
        .output()
        .expect("smash generate runs");
    assert!(generate.status.success(), "{generate:?}");

    // Ingest stalls 300 ms and the client 300 ms: neither alone passes
    // a 500 ms deadline, both on one clock do.
    let json = dir.join("report.json");
    let out = std::process::Command::new(smash)
        .arg("analyze")
        .arg(&trace)
        .args(["--deadline-ms", "500", "--json"])
        .arg(&json)
        .env(
            "SMASH_FAILPOINTS",
            "ingest/jsonl=delay:300,dimension/client=delay:300",
        )
        .output()
        .expect("smash analyze runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let line = "governor: dimension/client: stage cancelled by governor";
    assert!(stderr.lines().any(|l| l == line), "{stderr}");

    let doc = json::parse(&std::fs::read_to_string(&json).expect("report written"))
        .expect("report parses");
    let field = |v: &Json, name: &str| -> Json {
        let obj = v.as_obj().unwrap_or(&[]);
        let found = obj.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone());
        found.unwrap_or_else(|| panic!("no `{name}` in {v:?}"))
    };
    assert_eq!(field(&doc, "campaigns"), Json::Arr(Vec::new()));
    let health = field(&doc, "health");
    let client = match field(&health, "dimensions") {
        Json::Arr(dims) => dims.first().cloned().expect("client health"),
        other => panic!("dimensions: {other:?}"),
    };
    assert_eq!(field(&client, "kind"), Json::Str("Client".to_owned()));
    let status = field(&client, "status");
    assert_eq!(field(&status, "status"), Json::Str("cancelled".to_owned()));
    match field(&status, "reason") {
        Json::Str(reason) => assert!(
            reason.starts_with("governor: run deadline exceeded: elapsed "),
            "{reason}"
        ),
        other => panic!("reason: {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
