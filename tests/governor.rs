//! Resource-governor suite (DESIGN.md §11).
//!
//! Five promises of the governed pipeline:
//!
//! 1. **No budgets, no change** — `run_governed` without resources is
//!    byte-identical to the plain run; the governor's accounting alone
//!    never perturbs the report.
//! 2. **A hard budget degrades, never corrupts** — an impossible memory
//!    budget cancels the offending dimension through the degradation
//!    ladder and the report says so (`Cancelled` status, ladder events
//!    in `RunHealth`), instead of panicking or lying.
//! 3. **A governor abort is never published** — a daemon mine whose
//!    client dimension the budget cancelled fails its epoch instead of
//!    making an empty campaign list durable, and a restart with the
//!    budget lifted serves the unconstrained daemon's report.
//! 4. **Degradation is monotone** — halving the budget may lose planted
//!    campaigns, never find more, and never loses everything while the
//!    input still fits.
//! 5. **The main dimension trades time, not recall** — a client index
//!    larger than the whole budget is built a window at a time and the
//!    client graph is the unconstrained one.

mod common;

use common::{flux_lines, flux_trace, flux_whois, locked, reply, scratch};
use smash::core::{Smash, SmashConfig, SmashReport};
use smash::serve::{CampaignService, ServeOptions};
use smash::support::failpoint;
use smash::support::governor::GovernorOptions;
use smash::support::metrics::Registry;
use smash::synth::stream::StreamScenario;
use smash::whois::WhoisRegistry;
use std::sync::Mutex;

/// The failpoint registry is process-global; serialize the tests that
/// could observe an armed spec.
static LOCK: Mutex<()> = Mutex::new(());

fn run(resources: Option<&GovernorOptions>) -> SmashReport {
    let metrics = Registry::new();
    Smash::new(SmashConfig::default()).run_governed(
        &flux_trace(),
        &flux_whois(),
        &metrics,
        resources,
    )
}

#[test]
fn ungoverned_and_unbudgeted_runs_are_byte_identical_to_plain() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let metrics = Registry::new();
    let plain =
        Smash::new(SmashConfig::default()).run_with_metrics(&flux_trace(), &flux_whois(), &metrics);

    let ungoverned = run(None);
    let unlimited = GovernorOptions::unlimited();
    let unbudgeted = run(Some(&unlimited));

    assert_eq!(
        ungoverned.canonical_json(),
        plain.canonical_json(),
        "run_governed without resources changed the report"
    );
    assert_eq!(
        unbudgeted.canonical_json(),
        plain.canonical_json(),
        "an unlimited governor changed the report"
    );
    assert!(
        plain.health.governor.is_empty() && unbudgeted.health.governor.is_empty(),
        "unbudgeted runs must not record ladder events"
    );
}

#[test]
fn impossible_memory_budget_cancels_through_the_ladder() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let tight = GovernorOptions::unlimited().with_memory_budget_bytes(1);
    let metrics = Registry::new();
    let report = Smash::new(SmashConfig::default()).run_governed(
        &flux_trace(),
        &flux_whois(),
        &metrics,
        Some(&tight),
    );

    // The first byte charged blows the hard budget: the main dimension
    // is cancelled, the run aborts into a degraded-but-valid report.
    assert!(report.campaigns.is_empty());
    let client = report
        .health
        .dimensions
        .iter()
        .find(|d| d.kind.to_string() == "client")
        .expect("client dimension health present");
    match &client.status {
        smash::core::report::DimensionStatus::Cancelled { reason } => {
            assert!(
                reason.contains("memory hard budget exceeded"),
                "unexpected cancel reason: {reason}"
            );
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    assert!(
        report
            .health
            .governor
            .iter()
            .any(|e| e.contains("cancelled by governor")),
        "ladder events missing the cancellation: {:?}",
        report.health.governor
    );
    assert!(metrics.counter("governor/cancelled").get() >= 1);
}

/// One daemon life on `dir` with the given per-mine memory budget:
/// the flux lines ingested and sealed as epoch 1. Returns the `WAIT`
/// reply, the `REPORT` and the service's `(sealed, published, failed)`.
fn daemon_epoch(
    dir: &std::path::Path,
    mine_memory_budget_bytes: u64,
) -> (String, String, (u64, u64, u64)) {
    let mut opts = ServeOptions::new(dir);
    opts.mine_memory_budget_bytes = mine_memory_budget_bytes;
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
    (wait, report, epochs)
}

#[test]
fn resume_after_governor_abort_reproduces_the_unconstrained_report() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let clean = scratch("smash-governor-test", "daemon-unbudgeted");
    let (wait, unconstrained, epochs) = daemon_epoch(&clean, 0);
    assert_eq!(wait, "OK epoch=1");
    assert_eq!(epochs, (1, 1, 0));
    assert_ne!(unconstrained, "[]", "the unbudgeted daemon found nothing");

    // A 1-byte budget cancels the client dimension. The empty report
    // that mine returns is no answer: the epoch fails, and nothing is
    // made durable in its name.
    let dir = scratch("smash-governor-test", "daemon-abort");
    let (wait, report, epochs) = daemon_epoch(&dir, 1);
    assert_eq!(wait, "ERR mine-failed epoch=1");
    assert_eq!(report, "[]", "the cold snapshot keeps serving");
    assert_eq!(epochs, (1, 0, 1));
    assert!(
        !dir.join(smash::serve::snapshot::SNAPSHOT_FILE).exists(),
        "a budget-aborted mine was published"
    );

    // Restart with the budget lifted: the WAL replays, the epoch is
    // mined again, and the answer is the unconstrained daemon's.
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
    failpoint::disarm_all();
    // Size the budget off the unconstrained run's biggest stage: a hard
    // budget just above that peak puts the soft threshold (80%) below
    // it, so the ladder must engage without ever reaching hard.
    let unconstrained = run(None);
    let biggest = unconstrained
        .perf
        .stages
        .iter()
        .map(|s| s.peak_tracked_bytes)
        .max()
        .unwrap_or(0);
    assert!(biggest > 0, "no stage charged any bytes");

    let snug = GovernorOptions::unlimited().with_memory_budget_bytes(biggest + biggest / 8);
    let report = run(Some(&snug));
    assert!(
        report.health.dimensions.iter().all(|d| !matches!(
            d.status,
            smash::core::report::DimensionStatus::Cancelled { .. }
        )),
        "a budget above the observed peak must not cancel: {:?}",
        report.health.dimensions
    );
    assert!(
        !report.health.governor.is_empty(),
        "soft breach left no ladder events"
    );
}

/// Replays `scenario` unconstrained, then under the unconstrained peak
/// halved six times, asserting the three monotonicity promises at each
/// budget and printing the sweep (`--nocapture` shows it; DESIGN.md
/// §11.4's table is this output on the `huge` scenario).
fn assert_degradation_is_monotone(scenario: &StreamScenario) {
    use smash::core::report::DimensionStatus;
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dataset = scenario.dataset();
    let whois = WhoisRegistry::new();
    let smash = Smash::new(SmashConfig::default());
    // The report and the URI-file stage's distinct candidate pairs and
    // kept edges: their shares of the unconstrained run's are the
    // stage's pair recall (a budget only drops bands, caps buckets and
    // skips the rare path, so its candidates are a subset) and what
    // survived thinning.
    let run = |resources: Option<&GovernorOptions>| {
        let metrics = Registry::new();
        let report = smash.run_governed(&dataset, &whois, &metrics, resources);
        let count = |name: &str| metrics.counter(&format!("dim/uri-file/{name}")).get();
        (report, count("pairs_bucketed"), count("edges"))
    };
    let share = |part: u64, whole: u64| 100.0 * part as f64 / whole.max(1) as f64;

    let (unconstrained, all_pairs, all_edges) = run(None);
    let peak = unconstrained.perf.peak_tracked_bytes;
    assert!(peak > 0, "the unconstrained run charged no bytes");
    let mut wider = scenario.recovered_campaigns(&unconstrained.campaign_server_names());
    assert_eq!(
        wider, scenario.campaigns,
        "unconstrained run lost campaigns"
    );
    eprintln!(
        "{} records, {} servers ({} kept): unconstrained peak {peak} tracked bytes, {wider}/{} campaigns, uri-file {all_pairs} pairs and {all_edges} edges",
        dataset.record_count(),
        dataset.server_count(),
        unconstrained.kept_servers,
        scenario.campaigns
    );

    let mut curve = vec![wider];
    for divisor in [2u64, 4, 8, 16, 32, 64] {
        let budget = peak / divisor;
        let opts = GovernorOptions::unlimited().with_memory_budget_bytes(budget);
        let (report, pairs, edges) = run(Some(&opts));
        let recovered = scenario.recovered_campaigns(&report.campaign_server_names());
        let events = &report.health.governor;
        let client = report
            .health
            .dimensions
            .iter()
            .find(|d| d.kind.to_string() == "client")
            .expect("client dimension health present");
        eprintln!(
            "budget peak/{divisor} = {budget} bytes -> peak {} bytes, {} governor event(s), {recovered}/{} campaigns, uri-file pair recall {:.1} %, edges kept {:.1} %",
            report.perf.peak_tracked_bytes,
            events.len(),
            scenario.campaigns,
            share(pairs, all_pairs),
            share(edges, all_edges)
        );
        for event in events.iter().take(12) {
            eprintln!("  {event}");
        }

        // (a) A tighter budget never finds more.
        assert!(
            recovered <= wider,
            "peak/{divisor}: recovered {recovered} > {wider} at twice the budget; {events:?}"
        );
        // (b) While one LSH band's build is guaranteed to fit under the
        // hard budget — its keys beside its order and bucket bits (≈ 12⅛
        // bytes per kept server), and the scan needs no room for pairs
        // beside the table it leaves — the URI-file secondary can band,
        // and the main dimension needs far less (one node's window: 12
        // bytes per client of its widest row): it must complete and
        // something must be found.
        if 14 * report.kept_servers as u64 <= budget {
            assert!(
                !matches!(client.status, DimensionStatus::Cancelled { .. }),
                "peak/{divisor}: client cancelled though a band's keys fit: {:?}; {events:?}",
                client.status
            );
            assert!(
                recovered >= 1,
                "peak/{divisor}: degraded silently to nothing; {events:?}"
            );
        }
        // (c) Whatever was given up is accounted for — by a rung that
        // gives something up: a `windowed` line says the client index
        // took more passes, which costs no recall and explains no loss.
        let explained = events
            .iter()
            .any(|event| !event.contains(": client index built over "));
        let degraded = report.campaign_server_names() != unconstrained.campaign_server_names()
            || report
                .health
                .dimensions
                .iter()
                .any(|d| !matches!(d.status, DimensionStatus::Ok | DimensionStatus::Disabled));
        assert!(
            !degraded || explained,
            "peak/{divisor}: the report changed but no ladder event says why"
        );
        wider = recovered;
        curve.push(recovered);
    }
    eprintln!("campaigns recovered as the budget halves: {curve:?}");
}

#[test]
fn client_index_over_budget_is_windowed_not_cancelled() {
    use smash::core::report::DimensionStatus;
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    // The `quick` sweep's peak/32: the client index alone (776 672 B:
    // 154 167 incidences and 40 000 clients) is half as large again as
    // the hard budget. Charged whole it cancels the main dimension and
    // every campaign with it; cut into windows it costs two more passes
    // over the rows and the stage's peak stays under soft.
    let scenario = StreamScenario::quick(7);
    let dataset = scenario.dataset();
    let budget = GovernorOptions::unlimited().with_memory_budget_bytes(523_554);
    let metrics = Registry::new();
    let report = Smash::new(SmashConfig::default()).run_governed(
        &dataset,
        &WhoisRegistry::new(),
        &metrics,
        Some(&budget),
    );
    let client = report.health.dimensions.iter().find(|d| d.kind.is_main());
    let status = &client.expect("client dimension health present").status;
    assert!(matches!(status, DimensionStatus::Ok), "{status:?}");
    let windowed = "dimension/client: client index built over 3 windows of partner nodes";
    let events = &report.health.governor;
    assert!(events.iter().any(|e| e == windowed), "{events:?}");
    assert_eq!(metrics.counter("governor/windowed").get(), 1);
    assert_eq!(metrics.gauge("dim/client/windows").get(), 3.0);
    let peak = metrics.gauge("governor/dimension/client/peak_bytes").get();
    assert!(
        peak <= 523_554.0 / 5.0 * 4.0,
        "client stage peaked at {peak} B"
    );
    // Windows give up nothing: the scan spent the whole universe's
    // mass, and all eight planted campaigns are found.
    assert_eq!(metrics.counter("dim/client/scan_steps").get(), 321_159);
    let recovered = scenario.recovered_campaigns(&report.campaign_server_names());
    assert_eq!(recovered, scenario.campaigns, "{events:?}");
}

#[test]
fn degradation_is_monotone_as_the_budget_halves() {
    assert_degradation_is_monotone(&StreamScenario::quick(7));
}

/// The same sweep at ISP scale (12 M records; ≈ 60 s and ≈ 1.1 GB in release): how
/// DESIGN.md §11.4's degradation table is re-recorded.
///
/// ```text
/// cargo test --release --offline --test governor -- --ignored --nocapture
/// ```
#[test]
#[ignore = "12 M records, ~60 s and ~1.1 GB in release; re-records the DESIGN.md §11.4 table"]
fn degradation_is_monotone_at_isp_scale() {
    assert_degradation_is_monotone(&StreamScenario::huge(7));
}
