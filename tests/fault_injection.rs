//! Fault-injection resilience suite: with any single secondary dimension
//! killed through a failpoint, `Smash::run` must still complete, still
//! recover the planted flux campaign, and name the casualty in
//! [`RunHealth`]. Run it with faults pre-armed from the environment too:
//!
//! ```text
//! SMASH_FAILPOINTS=dimension/whois=panic cargo test --test fault_injection
//! ```
//!
//! Every test tolerates (and several exploit) an env-armed spec: each
//! begins by clearing the process-global failpoint registry and arming
//! exactly what it needs.

mod common;

use common::{flux_recovered, flux_trace, flux_whois, locked};
use smash::core::{DimensionKind, DimensionStatus, Smash, SmashConfig, SmashReport};
use smash::support::failpoint;
use smash::trace::{io, HttpRecord, IngestError, IngestOptions, TraceDataset};
use smash::whois::WhoisRegistry;
use std::sync::Mutex;

/// The failpoint registry is process-global; serialize the tests that
/// arm it so they cannot observe each other's faults.
static LOCK: Mutex<()> = Mutex::new(());

/// Runs the pipeline under `cfg` with exactly the failpoint `spec`
/// armed, and leaves the registry empty again.
fn run_armed(
    spec: &str,
    cfg: SmashConfig,
    ds: &TraceDataset,
    whois: &WhoisRegistry,
) -> SmashReport {
    failpoint::disarm_all();
    failpoint::arm_spec(spec).expect("failpoint spec parses");
    let report = Smash::new(cfg).run(ds, whois);
    failpoint::disarm_all();
    report
}

#[test]
fn killing_any_single_secondary_dimension_still_recovers_the_campaign() {
    let _g = locked(&LOCK);
    let ds = flux_trace();
    // Deliberately an empty registry: whois carries no signal even when
    // it survives, so killing uri-file or ip-set leaves the campaign to
    // one informative secondary.
    let whois = WhoisRegistry::new();
    for (site, kind) in [
        ("dimension/uri-file", DimensionKind::UriFile),
        ("dimension/ip-set", DimensionKind::IpSet),
        ("dimension/whois", DimensionKind::Whois),
    ] {
        let spec = format!("{site}=panic");
        let report = run_armed(&spec, SmashConfig::default(), &ds, &whois);

        assert!(
            flux_recovered(&report),
            "flux campaign lost after killing {site}: {:?}",
            report.campaigns
        );
        match report.health.status_of(kind) {
            Some(DimensionStatus::Failed { reason }) => {
                assert!(
                    reason.contains("failpoint") && reason.contains(site),
                    "reason does not name the failpoint: {reason}"
                );
            }
            other => panic!("expected {kind} Failed, got {other:?}"),
        }
        assert_eq!(report.health.degraded_dimensions(), vec![kind]);
        // Three enabled secondaries, two completed.
        assert!((report.health.score_renormalization - 1.5).abs() < 1e-9);
    }
}

#[test]
fn killing_any_pair_of_secondary_dimensions_still_recovers_the_campaign() {
    let _g = locked(&LOCK);
    let ds = flux_trace();
    let whois = flux_whois();
    let sites = [
        ("dimension/uri-file", DimensionKind::UriFile),
        ("dimension/ip-set", DimensionKind::IpSet),
        ("dimension/whois", DimensionKind::Whois),
    ];
    for i in 0..sites.len() {
        for j in (i + 1)..sites.len() {
            let ((site_a, kind_a), (site_b, kind_b)) = (sites[i], sites[j]);
            let spec = format!("{site_a}=panic,{site_b}=panic");
            let report = run_armed(&spec, SmashConfig::default(), &ds, &whois);

            // With two of three secondaries dead, precision degrades (a
            // benign server may tag along at ×3 renormalization) but the
            // whole C&C herd must still land in one campaign.
            assert!(
                report
                    .campaigns
                    .iter()
                    .any(|c| (0..8).all(|d| c.contains_server(&format!("cc{d}.evil")))),
                "flux campaign lost after killing {site_a} + {site_b}: {:?}",
                report.campaigns
            );
            for (kind, site) in [(kind_a, site_a), (kind_b, site_b)] {
                match report.health.status_of(kind) {
                    Some(DimensionStatus::Failed { reason }) => {
                        assert!(
                            reason.contains(site),
                            "reason does not name {site}: {reason}"
                        );
                    }
                    other => panic!("expected {kind} Failed, got {other:?}"),
                }
            }
            let mut degraded = report.health.degraded_dimensions();
            degraded.sort();
            let mut expected = vec![kind_a, kind_b];
            expected.sort();
            assert_eq!(degraded, expected);
            // Three enabled secondaries, one completed: eq. 9 scores are
            // renormalized by 3/1.
            assert!((report.health.score_renormalization - 3.0).abs() < 1e-9);
        }
    }
}

#[test]
fn env_armed_spec_degrades_the_run_but_not_the_result() {
    let _g = locked(&LOCK);
    // The CI smoke step runs this binary with
    // `SMASH_FAILPOINTS=dimension/whois=panic`. The registry may already
    // have consumed (and a previous test cleared) the env spec, so
    // re-arm from the variable explicitly — same grammar, same effect.
    failpoint::disarm_all();
    let spec = std::env::var("SMASH_FAILPOINTS").unwrap_or_default();
    if !spec.trim().is_empty() {
        failpoint::arm_spec(&spec).expect("env spec must parse");
    }
    let report = Smash::new(SmashConfig::default()).run(&flux_trace(), &WhoisRegistry::new());
    failpoint::disarm_all();
    assert!(flux_recovered(&report), "campaigns: {:?}", report.campaigns);
    if spec.contains("dimension/") {
        assert!(
            !report.health.fully_healthy(),
            "env-armed dimension fault left the run fully healthy"
        );
    } else {
        assert!(report.health.fully_healthy());
        assert_eq!(report.health.score_renormalization, 1.0);
    }
}

#[test]
fn stalled_dimension_times_out_under_budget_and_is_dropped() {
    let _g = locked(&LOCK);
    // Whois stalls 200 ms against a 50 ms budget; the other dimensions
    // finish this tiny trace well inside it.
    let cfg = SmashConfig::default().with_dimension_budget_ms(50);
    let spec = "dimension/whois=delay:200";
    let report = run_armed(spec, cfg, &flux_trace(), &WhoisRegistry::new());

    assert!(flux_recovered(&report), "campaigns: {:?}", report.campaigns);
    match report.health.status_of(DimensionKind::Whois) {
        Some(DimensionStatus::TimedOut {
            elapsed_ms,
            budget_ms,
        }) => {
            assert!(*elapsed_ms >= 200, "elapsed {elapsed_ms} < injected delay");
            assert_eq!(*budget_ms, 50);
        }
        other => panic!("expected Whois TimedOut, got {other:?}"),
    }
    for kind in [
        DimensionKind::Client,
        DimensionKind::UriFile,
        DimensionKind::IpSet,
    ] {
        assert!(
            report
                .health
                .status_of(kind)
                .is_some_and(DimensionStatus::is_ok),
            "{kind} should have completed inside the budget"
        );
    }
}

/// Cooperative enforcement (DESIGN.md §11): the wall budget interrupts
/// a dimension *mid-stall*, it does not wait for the stage to finish
/// and then tut-tut post hoc. The whois builder's per-node tick is
/// stalled 50 ms a step — left alone it would burn seconds — and the
/// stage must stop within 2× its 200 ms budget.
#[test]
fn stalled_dimension_stops_within_twice_its_budget() {
    let _g = locked(&LOCK);
    let budget_ms = 200;
    let cfg = SmashConfig::default().with_dimension_budget_ms(budget_ms);
    let (ds, whois) = (flux_trace(), flux_whois());
    let started = std::time::Instant::now();
    let report = run_armed("dimension/whois/tick=delay:50", cfg, &ds, &whois);
    let run_wall_ms = started.elapsed().as_millis() as u64;

    assert!(flux_recovered(&report), "campaigns: {:?}", report.campaigns);
    match report.health.status_of(DimensionKind::Whois) {
        Some(DimensionStatus::TimedOut {
            elapsed_ms,
            budget_ms: b,
        }) => {
            assert_eq!(*b, budget_ms);
            assert!(
                *elapsed_ms >= budget_ms,
                "timed out before the budget: {elapsed_ms} ms"
            );
            assert!(
                *elapsed_ms <= 2 * budget_ms,
                "cooperative cancellation too slow: {elapsed_ms} ms > 2x {budget_ms} ms budget"
            );
        }
        other => panic!("expected Whois TimedOut, got {other:?}"),
    }
    // The stall never ran to completion: the whole run (all dimensions,
    // mining, correlation) finished far below the ~2 s a full per-node
    // stall would have cost.
    assert!(
        run_wall_ms < 1500,
        "run wall time {run_wall_ms} ms suggests the stall ran to completion"
    );
}

#[test]
fn main_dimension_failure_yields_an_empty_report_not_a_panic() {
    let _g = locked(&LOCK);
    let spec = "dimension/client=panic";
    let report = run_armed(
        spec,
        SmashConfig::default(),
        &flux_trace(),
        &WhoisRegistry::new(),
    );

    assert!(report.campaigns.is_empty());
    assert!(report.kept_servers > 0, "preprocessing still ran");
    match report.health.status_of(DimensionKind::Client) {
        Some(DimensionStatus::Failed { reason }) => {
            assert!(reason.contains("failpoint"), "reason: {reason}");
        }
        other => panic!("expected Client Failed, got {other:?}"),
    }
    // Every secondary is accounted for as not-run.
    assert_eq!(report.health.degraded_dimensions().len(), 7);
}

/// `RunHealth` lists the whole roster, in pipeline order, whichever way
/// the run went: a default run, a run with the three §VI extensions on,
/// and a run whose main dimension died.
#[test]
fn health_lists_every_dimension_in_roster_order() {
    use DimensionKind::*;
    use DimensionStatus::{Disabled, Failed, Ok};
    let _g = locked(&LOCK);
    let (ds, whois) = (flux_trace(), flux_whois());
    let statuses = |report: SmashReport| -> Vec<(DimensionKind, DimensionStatus)> {
        let health = report.health.dimensions.into_iter();
        health.map(|d| (d.kind, d.status)).collect()
    };

    let default = run_armed("", SmashConfig::default(), &ds, &whois);
    let base = vec![(Client, Ok), (UriFile, Ok), (IpSet, Ok), (Whois, Ok)];
    let off = [
        (ParamPattern, Disabled),
        (Timing, Disabled),
        (Payload, Disabled),
    ];
    assert_eq!(statuses(default), [base.clone(), off.to_vec()].concat());

    let extended = SmashConfig::default()
        .with_param_pattern_dimension(true)
        .with_timing_dimension(true)
        .with_payload_dimension(true);
    let extended = run_armed("", extended, &ds, &whois);
    let on = [(ParamPattern, Ok), (Timing, Ok), (Payload, Ok)];
    assert_eq!(statuses(extended), [base, on.to_vec()].concat());

    // Disabled dimensions are reported as not run too.
    let aborted = run_armed(
        "dimension/client=panic",
        SmashConfig::default(),
        &ds,
        &whois,
    );
    let reason = "failpoint `dimension/client` triggered: injected panic".to_owned();
    let mut expected = vec![(Client, Failed { reason })];
    for kind in [UriFile, IpSet, Whois, ParamPattern, Timing, Payload] {
        let reason = "not run: main dimension failed".to_owned();
        expected.push((kind, Failed { reason }));
    }
    assert_eq!(statuses(aborted), expected);
}

#[test]
fn ingest_failpoint_surfaces_as_an_io_error() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    failpoint::arm("ingest/jsonl", failpoint::Action::Error);
    let err = io::read_jsonl_lenient(&b"{}\n"[..], &IngestOptions::default()).unwrap_err();
    failpoint::disarm_all();
    match err {
        IngestError::Io(e) => assert!(e.to_string().contains("ingest/jsonl")),
        other => panic!("expected Io error, got {other}"),
    }
}

#[test]
fn dirty_trace_within_budget_analyzes_with_quarantine_counts() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    // 3 garbage lines over 200 good ones: well under the 5% default.
    let mut buf = Vec::new();
    let mut records = Vec::new();
    for i in 0..200 {
        records.push(HttpRecord::new(
            i,
            &format!("c{}", i % 9),
            &format!("srv{}.com", i % 37),
            "10.0.0.1",
            "/a.php",
        ));
    }
    io::write_jsonl(&mut buf, &records).unwrap();
    buf.extend_from_slice(b"{broken\n\xff\xfe\n{\"server_ip\":\"999.1.2.3\"}\n");
    let (recs, report) = io::read_jsonl_lenient(&buf[..], &IngestOptions::default()).unwrap();
    assert_eq!(recs.len(), 200);
    assert_eq!(report.bad_lines(), 3);
    assert!(report.bad_fraction() < 0.05);

    // The same garbage dominating the stream blows the budget: a
    // structured "wrong file?" error, not a panic and not a best-effort
    // sliver of a dataset.
    let dirty: Vec<u8> = b"{broken\n".repeat(50);
    let err = io::read_jsonl_lenient(&dirty[..], &IngestOptions::default()).unwrap_err();
    match err {
        IngestError::BudgetExceeded { report, budget } => {
            assert_eq!(report.bad_json, 50);
            assert!((budget - 0.05).abs() < 1e-9);
        }
        other => panic!("expected BudgetExceeded, got {other}"),
    }
}
