//! `smash-bench` — the reproducible pipeline benchmark harness.
//!
//! Runs the full SMASH pipeline over the small and medium synthetic
//! scenarios for N iterations each and writes `BENCH_pipeline.json` at
//! the repository root: per-stage median wall times plus a fingerprint
//! of the `SmashConfig` that produced them. The committed file is the
//! repo's perf trajectory — every optimisation PR re-runs this harness
//! and updates the file, so a regression shows up as a diff.
//!
//! ```text
//! cargo run --release -p smash-bench                 # full run, writes BENCH_pipeline.json
//! cargo run --release -p smash-bench -- --quick      # small scenario, 2 iters, no file
//! cargo run --release -p smash-bench -- --iterations 9 --out /tmp/bench.json
//! cargo run --release -p smash-bench -- --chaos      # deterministic fault/crash sweep
//! ```
//!
//! `--chaos` switches the binary into the chaos sweep (DESIGN.md §9):
//! in-process fault combos plus subprocess crash/restart and snapshot
//! corruption cases, exiting nonzero on the first violated invariant.
//!
//! The benchmark format is documented in DESIGN.md §7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use smash_bench::chaos::{self, ChaosOptions};
use smash_bench::{medium_scenario, small_scenario};
use smash_core::{CheckpointOptions, Smash, SmashConfig, SmashReport};
use smash_support::governor::GovernorOptions;
use smash_support::json::{to_string_pretty, Json, ToJson};
use smash_support::metrics::Registry;
use smash_synth::stream::StreamScenario;
use smash_synth::ScenarioData;
use smash_whois::WhoisRegistry;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// Schema tag written into the output so future format changes are
/// detectable by consumers.
const SCHEMA: &str = "smash-bench/pipeline/v1";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: smash-bench [--iterations N] [--quick] [--huge] [--out <path>]\n\
             \x20      smash-bench --pressure [--quick] [--out <path>]\n\
             \x20      smash-bench --serve [--quick] [--out <path>]\n\
             \x20      smash-bench --chaos [--quick] [--seed N] [--smash-bin <path>] [--keep]\n\
             \n\
             Runs the SMASH pipeline over the small/medium synthetic scenarios\n\
             and writes per-stage median wall times to BENCH_pipeline.json at\n\
             the repo root. --quick runs only the small scenario for 2\n\
             iterations and writes no file unless --out is given.\n\
             \n\
             --huge adds the streamed ISP-scale scenario (10\u{2076} clients,\n\
             \u{2265}10\u{2077} lazily generated requests; DESIGN.md \u{a7}10): one\n\
             iteration, records/sec plus the LSH candidate funnel. With\n\
             --quick it runs the reduced variant alone and writes no file\n\
             unless --out is given.\n\
             \n\
             --pressure replays the streamed scenario under a descending\n\
             ladder of per-stage memory budgets (unconstrained, then the\n\
             unconstrained peak halved six times: peak/2 .. peak/64),\n\
             recording every degradation rung that fired and the\n\
             planted-campaign recovery at each budget under a `pressure`\n\
             key in BENCH_pipeline.json (DESIGN.md \u{a7}11). Exits nonzero\n\
             if recovery ever rises as the budget halves (degradation must\n\
             be monotone). With --quick it uses the reduced scenario and\n\
             writes no file unless --out is given.\n\
             \n\
             --serve benchmarks the always-on campaign service (DESIGN.md\n\
             \u{a7}13): ingest a scenario epoch by epoch, hammer the lock-free\n\
             query path while a re-mine is in flight (sustained lookups/sec,\n\
             dropped queries), and time a cold restart from the durable\n\
             snapshot. Merged under a `serve` key in BENCH_pipeline.json;\n\
             with --quick it uses the small scenario and writes no file\n\
             unless --out is given.\n\
             \n\
             --chaos runs the deterministic fault/crash sweep instead: every\n\
             single and paired secondary-dimension kill, a crash/restart cycle\n\
             after every checkpoint boundary (via subprocess re-exec of the\n\
             `smash` binary), seeded snapshot corruption, and the\n\
             resume-determinism check. With --quick it runs the CI smoke\n\
             subset. Exits nonzero on the first violated invariant."
        );
        return;
    }
    let quick = args.iter().any(|a| a == "--quick");
    if args.iter().any(|a| a == "--chaos") {
        run_chaos(&args, quick);
        return;
    }
    if args.iter().any(|a| a == "--pressure") {
        run_pressure(&args, quick);
        return;
    }
    if args.iter().any(|a| a == "--serve") {
        run_serve(&args, quick);
        return;
    }
    let iterations: usize = flag_value(&args, "--iterations")
        .map(|v| v.parse().expect("--iterations takes a number"))
        .unwrap_or(if quick { 2 } else { 5 });
    let out = flag_value(&args, "--out").map(str::to_owned).or_else(|| {
        (!quick).then(|| format!("{}/../../BENCH_pipeline.json", env!("CARGO_MANIFEST_DIR")))
    });

    let huge = args.iter().any(|a| a == "--huge");
    let config = SmashConfig::default();
    let mut scenarios: Vec<(&str, ScenarioData)> = Vec::new();
    if !(huge && quick) {
        scenarios.push(("small", small_scenario()));
        if !quick {
            scenarios.push(("medium", medium_scenario()));
        }
    }

    let mut scenario_objs: Vec<(String, Json)> = Vec::new();
    for (name, data) in &scenarios {
        let summary = bench_scenario(&config, data, iterations);
        eprintln!(
            "{name}: {} records, total median {:.3} ms over {iterations} iterations",
            data.dataset.record_count(),
            summary.total_median_ms
        );
        let overhead = bench_checkpoint_overhead(&config, data, iterations);
        eprintln!(
            "{name}: checkpoint overhead {:.1}% of checkpointed wall time (budget {:.0}%)",
            overhead.fraction_of_total * 100.0,
            CKPT_BUDGET_FRACTION * 100.0
        );
        if *name == "medium" && overhead.fraction_of_total > CKPT_BUDGET_FRACTION {
            eprintln!(
                "warning: checkpoint overhead {:.2}% exceeds the {:.0}% budget (DESIGN.md \u{a7}9)",
                overhead.fraction_of_total * 100.0,
                CKPT_BUDGET_FRACTION * 100.0
            );
        }
        let mut obj = summary.to_json(data);
        if let Json::Obj(fields) = &mut obj {
            fields.push(("checkpoint_overhead".into(), overhead.to_json()));
        }
        scenario_objs.push((name.to_string(), obj));
    }

    if huge {
        scenario_objs.push(("huge".into(), bench_huge(&config, quick)));
    }

    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("config_fingerprint".into(), Json::Str(config.fingerprint())),
        ("iterations".into(), iterations.to_json()),
        ("scenarios".into(), Json::Obj(scenario_objs)),
    ]);
    match out {
        Some(path) => {
            std::fs::write(&path, to_string_pretty(&doc)).expect("write benchmark file");
            eprintln!("wrote {path}");
        }
        None => println!("{}", to_string_pretty(&doc)),
    }
}

// lint:allow(index): lifetime-annotated slice parameter, not an indexing site
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Parses the chaos flags and runs the sweep; exits the process.
fn run_chaos(args: &[String], quick: bool) {
    let seed = match flag_value(args, "--seed") {
        Some(v) => match v.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--seed takes an unsigned integer, got `{v}`");
                std::process::exit(2);
            }
        },
        None => 0x5EED,
    };
    let opts = ChaosOptions {
        quick,
        seed,
        smash_bin: flag_value(args, "--smash-bin").map(PathBuf::from),
        keep: args.iter().any(|a| a == "--keep"),
    };
    match chaos::run(&opts) {
        Ok(summary) => eprintln!("chaos: {} case(s), all invariants held", summary.cases),
        Err(e) => {
            eprintln!("chaos: FAILED: {e}");
            std::process::exit(1);
        }
    }
}

/// Replays the streamed scenario under a descending ladder of per-stage
/// memory budgets (DESIGN.md §11): one unconstrained run to measure the
/// peak tracked bytes, then the same dataset under that peak halved six
/// times. Each rung records its budget, observed peak, governor
/// degradation events, degraded dimensions, and how many of the planted
/// campaigns were still recovered. In full mode the sweep is merged into
/// `BENCH_pipeline.json` under a top-level `pressure` key; with --quick
/// (or no resolvable output path) it prints to stdout. Exits nonzero
/// when recovery rises as the budget halves: a tighter budget may lose
/// recall, never find more.
fn run_pressure(args: &[String], quick: bool) {
    let scenario = if quick {
        StreamScenario::quick(7)
    } else {
        StreamScenario::huge(7)
    };
    let label = if quick {
        "pressure (quick)"
    } else {
        "pressure"
    };
    let config = SmashConfig::default();
    let dataset = scenario.dataset();
    let records = dataset.record_count();
    eprintln!(
        "{label}: streamed {} records into {} servers",
        records,
        dataset.server_count()
    );

    let whois = WhoisRegistry::new();
    let smash = Smash::new(config.clone());
    let metrics = Registry::new();
    let baseline = smash.run_governed(&dataset, &whois, &metrics, None, None);
    let peak = baseline.perf.peak_tracked_bytes;
    let recovered = scenario.recovered_campaigns(&baseline.campaign_server_names());
    eprintln!(
        "{label}: unconstrained peak {} tracked bytes, {}/{} planted campaigns recovered",
        peak, recovered, scenario.campaigns
    );

    let mut rungs: Vec<Json> = vec![pressure_rung_json("unconstrained", 0, &baseline, recovered)];
    let mut curve = vec![recovered];
    for &divisor in &[2u64, 4, 8, 16, 32, 64] {
        let budget = (peak / divisor).max(1);
        let opts = GovernorOptions::unlimited().with_memory_budget_bytes(budget);
        let rung_metrics = Registry::new();
        let report = smash.run_governed(&dataset, &whois, &rung_metrics, None, Some(&opts));
        let recovered = scenario.recovered_campaigns(&report.campaign_server_names());
        eprintln!(
            "{label}: budget peak/{divisor} = {} bytes → peak {} bytes, {} governor event(s), {}/{} campaigns",
            budget,
            report.perf.peak_tracked_bytes,
            report.health.governor.len(),
            recovered,
            scenario.campaigns
        );
        for note in report.health.governor.iter().take(12) {
            eprintln!("{label}:   {note}");
        }
        if report.health.governor.len() > 12 {
            eprintln!(
                "{label}:   ... {} more event(s), see the pressure record",
                report.health.governor.len() - 12
            );
        }
        rungs.push(pressure_rung_json(
            &format!("peak/{divisor}"),
            budget,
            &report,
            recovered,
        ));
        curve.push(recovered);
    }
    eprintln!("{label}: campaigns recovered as the budget halves: {curve:?}");

    let sweep = Json::Obj(vec![
        ("scenario".into(), Json::Str(label.into())),
        ("records".into(), records.to_json()),
        ("planted_campaigns".into(), scenario.campaigns.to_json()),
        ("unconstrained_peak_bytes".into(), peak.to_json()),
        ("rungs".into(), Json::Arr(rungs)),
    ]);

    let out = flag_value(args, "--out").map(str::to_owned).or_else(|| {
        (!quick).then(|| format!("{}/../../BENCH_pipeline.json", env!("CARGO_MANIFEST_DIR")))
    });
    match out {
        Some(path) => {
            let doc = merge_top_level(&path, "pressure", sweep);
            std::fs::write(&path, to_string_pretty(&doc)).expect("write benchmark file");
            eprintln!("wrote {path}");
        }
        None => println!("{}", to_string_pretty(&sweep)),
    }
    if curve
        .windows(2)
        .any(|w| matches!(w, [wider, tighter] if tighter > wider))
    {
        eprintln!("{label}: FAILED: recovery rose under a tighter budget: {curve:?}");
        std::process::exit(1);
    }
}

/// Benchmarks the always-on campaign service (DESIGN.md §13): ingest a
/// scenario in two epochs through the wire decode path, hammer the
/// lock-free query path from a dedicated thread while the second
/// epoch's re-mine is in flight, then cold-restart the service from the
/// durable snapshot and time recovery. The entry records sustained
/// lookups/sec during the mine (the snapshot-swap design means it must
/// stay above zero with zero dropped queries) and the restart-recovery
/// wall time. Merged under a top-level `serve` key in
/// `BENCH_pipeline.json`; with --quick it prints to stdout.
fn run_serve(args: &[String], quick: bool) {
    use smash_serve::{CampaignService, Response, ServeOptions};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let label = if quick { "serve (quick)" } else { "serve" };
    let data = if quick {
        small_scenario()
    } else {
        medium_scenario()
    };
    let lines = jsonl_lines(&data.dataset);
    eprintln!("{label}: {} records as wire lines", lines.len());

    let dir = std::env::temp_dir().join(format!("smash-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = ServeOptions::new(&dir);
    // The bench measures query/mine overlap and recovery, not ingest
    // shedding — leave the epoch budget unbounded.
    opts.epoch_budget_bytes = 0;
    let svc = CampaignService::start(opts.clone()).expect("start campaign service");
    let mut conn = svc.connection();
    let metrics = Registry::new();
    let span_ms = |m: &Registry, name: &str| {
        m.snapshot()
            .histograms
            .get(name)
            .map(|h| h.sum_ms())
            .unwrap_or(0.0)
    };

    let ingest = |conn: &mut smash_serve::Connection, lines: &[String]| {
        for line in lines {
            let reply = conn.handle(format!("INGEST {line}").as_bytes(), false);
            assert!(
                matches!(&reply, Response::Reply(r) if r == "OK"),
                "scenario line rejected by ingest: {reply:?}"
            );
        }
    };
    let seal = |conn: &mut smash_serve::Connection| {
        let reply = conn.handle(b"SEAL", false);
        assert!(
            matches!(&reply, Response::Reply(r) if r.starts_with("OK epoch=")),
            "seal failed: {reply:?}"
        );
    };
    let wait = Duration::from_secs(600);

    // Epoch 1: every other record, mined to a published baseline
    // snapshot. Interleaving (rather than splitting contiguously) keeps
    // the planted campaign signal proportional in both epochs, so the
    // first mine already publishes campaigns to query.
    let first: Vec<String> = lines.iter().step_by(2).cloned().collect();
    let second: Vec<String> = lines.iter().skip(1).step_by(2).cloned().collect();
    {
        let _span = metrics.span("serve/ingest");
        ingest(&mut conn, &first);
    }
    seal(&mut conn);
    assert_eq!(
        svc.wait_published(wait),
        smash_serve::WaitOutcome::Published(1),
        "epoch 1 must publish"
    );

    // A guaranteed member of the published campaigns is the query
    // target — hits exercise the same path as misses, but a hit also
    // proves the swapped snapshot is the one being read.
    let target = published_member(&mut conn).unwrap_or_else(|| "nonexistent.example".to_owned());
    eprintln!("{label}: epoch 1 published, query target `{target}`");

    // Epoch 2: ingest the rest, then hammer queries while the re-mine
    // of the doubled record set is in flight.
    {
        let _span = metrics.span("serve/ingest");
        ingest(&mut conn, &second);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let hammer = {
        let svc = svc.clone();
        let stop = Arc::clone(&stop);
        let target = target.clone();
        std::thread::spawn(move || {
            let mut reader = svc.reader();
            let (mut total, mut hits) = (0u64, 0u64);
            loop {
                if svc.query(&target, &mut reader).is_some() {
                    hits += 1;
                }
                total += 1;
                if stop.load(Ordering::Acquire) {
                    return (total, hits);
                }
            }
        })
    };
    let outcome = {
        let _span = metrics.span("serve/mine2");
        seal(&mut conn);
        svc.wait_published(wait)
    };
    stop.store(true, Ordering::Release);
    let (queries, query_hits) = hammer.join().expect("query hammer thread must not panic");
    assert_eq!(
        outcome,
        smash_serve::WaitOutcome::Published(2),
        "epoch 2 must publish"
    );
    let mine_ms = span_ms(&metrics, "serve/mine2");
    let ingest_ms = span_ms(&metrics, "serve/ingest");
    let qps = if mine_ms > 0.0 {
        queries as f64 / (mine_ms / 1000.0)
    } else {
        0.0
    };
    assert!(queries > 0, "no queries landed during the in-flight mine");
    eprintln!(
        "{label}: epoch 2 mined in {mine_ms:.0} ms under {queries} concurrent queries \
         ({query_hits} hits, {qps:.0} lookups/sec, 0 dropped)"
    );
    svc.shutdown();

    // Cold restart: the durable snapshot must be served immediately —
    // recovery is WAL scan + snapshot load, not a re-mine.
    let recover_metrics = Registry::new();
    let restart_epoch = {
        let _span = recover_metrics.span("serve/recover");
        let svc = CampaignService::start(opts).expect("restart campaign service");
        let outcome = svc.wait_published(wait);
        let mut reader = svc.reader();
        assert!(
            svc.query(&target, &mut reader).is_some(),
            "restart lost the published campaign member `{target}`"
        );
        svc.shutdown();
        assert_eq!(
            outcome,
            smash_serve::WaitOutcome::Published(2),
            "restart must serve the newest durable snapshot immediately"
        );
        2u64
    };
    let recovery_ms = span_ms(&recover_metrics, "serve/recover");
    eprintln!("{label}: cold restart recovered epoch {restart_epoch} in {recovery_ms:.0} ms");
    let _ = std::fs::remove_dir_all(&dir);

    let entry = Json::Obj(vec![
        ("scenario".into(), Json::Str(label.into())),
        ("records".into(), lines.len().to_json()),
        ("epochs".into(), 2u64.to_json()),
        ("ingest_wall_ms".into(), round3(ingest_ms).to_json()),
        ("mine_wall_ms".into(), round3(mine_ms).to_json()),
        ("queries_during_mine".into(), queries.to_json()),
        ("query_hits_during_mine".into(), query_hits.to_json()),
        ("queries_per_sec_during_mine".into(), round3(qps).to_json()),
        ("dropped_queries".into(), 0u64.to_json()),
        ("restart_recovery_ms".into(), round3(recovery_ms).to_json()),
        ("published_epoch".into(), restart_epoch.to_json()),
    ]);
    let out = flag_value(args, "--out").map(str::to_owned).or_else(|| {
        (!quick).then(|| format!("{}/../../BENCH_pipeline.json", env!("CARGO_MANIFEST_DIR")))
    });
    match out {
        Some(path) => {
            let doc = merge_top_level(&path, "serve", entry);
            std::fs::write(&path, to_string_pretty(&doc)).expect("write benchmark file");
            eprintln!("wrote {path}");
        }
        None => println!("{}", to_string_pretty(&entry)),
    }
}

/// Extracts one member server from the daemon's `REPORT` reply (the
/// canonical campaigns JSON), or `None` when no campaign published.
fn published_member(conn: &mut smash_serve::Connection) -> Option<String> {
    let reply = match conn.handle(b"REPORT", false) {
        smash_serve::Response::Reply(r) => r,
        _ => return None,
    };
    let doc = smash_support::json::parse(&reply).ok()?;
    let Json::Arr(campaigns) = doc else {
        return None;
    };
    for campaign in &campaigns {
        if let Some(Json::Arr(servers)) = campaign.get("servers") {
            if let Some(Json::Str(name)) = servers.first() {
                return Some(name.clone());
            }
        }
    }
    None
}

/// The scenario's records as raw JSONL wire lines (what `smash generate`
/// would write).
fn jsonl_lines(dataset: &smash_trace::TraceDataset) -> Vec<String> {
    let records: Vec<smash_trace::HttpRecord> = dataset.raw_records().collect();
    let mut buf = Vec::new();
    smash_trace::io::write_jsonl(&mut buf, &records).expect("encode scenario records");
    String::from_utf8(buf)
        .expect("jsonl is utf-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// One rung of the pressure ladder as a JSON object.
fn pressure_rung_json(
    name: &str,
    budget_bytes: u64,
    report: &SmashReport,
    recovered: usize,
) -> Json {
    let degraded: Vec<Json> = report
        .health
        .dimensions
        .iter()
        .filter(|d| !d.status.is_ok())
        .map(|d| Json::Str(format!("{}: {:?}", d.kind, d.status)))
        .collect();
    Json::Obj(vec![
        ("budget".into(), Json::Str(name.into())),
        ("budget_bytes".into(), budget_bytes.to_json()),
        (
            "peak_tracked_bytes".into(),
            report.perf.peak_tracked_bytes.to_json(),
        ),
        ("campaigns_found".into(), report.campaigns.len().to_json()),
        ("campaigns_recovered".into(), recovered.to_json()),
        (
            "governor_events".into(),
            Json::Arr(
                report
                    .health
                    .governor
                    .iter()
                    .map(|e| Json::Str(e.clone()))
                    .collect(),
            ),
        ),
        ("degraded_dimensions".into(), Json::Arr(degraded)),
    ])
}

/// Reads the existing benchmark document at `path` (if any) and inserts
/// or replaces its top-level `key` with `value`, preserving the scenario
/// results already recorded there.
fn merge_top_level(path: &str, key: &str, value: Json) -> Json {
    let mut doc = std::fs::read_to_string(path)
        .ok()
        .and_then(|s| smash_support::json::parse(&s).ok())
        .unwrap_or_else(|| Json::Obj(vec![("schema".into(), Json::Str(SCHEMA.into()))]));
    if let Json::Obj(fields) = &mut doc {
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            fields.push((key.into(), value));
        }
    }
    doc
}

/// Median wall times of one scenario across iterations.
struct ScenarioSummary {
    total_median_ms: f64,
    total_min_ms: f64,
    total_max_ms: f64,
    /// stage name → median wall ms, sorted by name for stable output.
    stage_median_ms: BTreeMap<String, f64>,
}

impl ScenarioSummary {
    fn to_json(&self, data: &ScenarioData) -> Json {
        let stages: Vec<(String, Json)> = self
            .stage_median_ms
            .iter()
            .map(|(k, v)| (k.clone(), round3(*v).to_json()))
            .collect();
        Json::Obj(vec![
            ("records".into(), data.dataset.record_count().to_json()),
            (
                "total_wall_ms".into(),
                Json::Obj(vec![
                    ("median".into(), round3(self.total_median_ms).to_json()),
                    ("min".into(), round3(self.total_min_ms).to_json()),
                    ("max".into(), round3(self.total_max_ms).to_json()),
                ]),
            ),
            ("stage_median_ms".into(), Json::Obj(stages)),
        ])
    }
}

/// Runs the pipeline `iterations` times with a fresh metrics registry
/// each run and reduces the per-stage wall times to medians.
fn bench_scenario(config: &SmashConfig, data: &ScenarioData, iterations: usize) -> ScenarioSummary {
    let smash = Smash::new(config.clone());
    let mut totals: Vec<f64> = Vec::with_capacity(iterations);
    let mut per_stage: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for _ in 0..iterations.max(1) {
        let metrics = Registry::new();
        let report = smash.run_with_metrics(&data.dataset, &data.whois, &metrics);
        totals.push(report.perf.total_wall_ms);
        for s in &report.perf.stages {
            per_stage
                .entry(s.stage.clone())
                .or_default()
                .push(s.wall_ms);
        }
    }
    ScenarioSummary {
        total_median_ms: median(&mut totals.clone()),
        total_min_ms: totals.iter().copied().fold(f64::INFINITY, f64::min),
        total_max_ms: totals.iter().copied().fold(0.0, f64::max),
        stage_median_ms: per_stage
            .into_iter()
            .map(|(k, mut v)| (k, median(&mut v)))
            .collect(),
    }
}

/// Benchmarks the streamed ISP-scale scenario (DESIGN.md §10): one
/// iteration, because the point is throughput at scale, not median
/// stability. Reports streamed-ingest wall time, pipeline wall time,
/// end-to-end records/sec, and the LSH candidate funnel
/// (`pairs_considered → pairs_bucketed → pairs_scored`) of the two
/// LSH-routed dimensions.
fn bench_huge(config: &SmashConfig, quick: bool) -> Json {
    let scenario = if quick {
        StreamScenario::quick(7)
    } else {
        StreamScenario::huge(7)
    };
    let label = if quick { "huge (quick)" } else { "huge" };
    let ingest_metrics = Registry::new();
    // Governed columnar ingest: the stream lands directly in the column
    // arena with governor byte-accounting, so the entry records the
    // exact arena footprint alongside the ingest throughput.
    let ingest_gov = smash_support::governor::Governor::unlimited();
    let ingest_scope = ingest_gov.stage("ingest", 0);
    let dataset = {
        let _span = ingest_metrics.span("huge/ingest");
        scenario.dataset_governed(Some(&ingest_scope))
    };
    let ingest_ms = ingest_metrics
        .snapshot()
        .histograms
        .get("huge/ingest")
        .map(|h| h.sum_ms())
        .unwrap_or(0.0);
    let records = dataset.record_count();
    let arena_bytes = ingest_scope.tracked_bytes();
    let ingest_columnar = Json::Obj(vec![
        ("wall_ms".into(), round3(ingest_ms).to_json()),
        (
            "records_per_sec".into(),
            round3(if ingest_ms > 0.0 {
                records as f64 / (ingest_ms / 1000.0)
            } else {
                0.0
            })
            .to_json(),
        ),
        ("arena_bytes".into(), arena_bytes.to_json()),
    ]);
    eprintln!(
        "{label}: streamed {} records into {} servers in {:.0} ms ({} arena bytes)",
        records,
        dataset.server_count(),
        ingest_ms,
        arena_bytes
    );

    let whois = WhoisRegistry::new();
    let metrics = Registry::new();
    let report = Smash::new(config.clone()).run_with_metrics(&dataset, &whois, &metrics);
    let pipeline_ms = report.perf.total_wall_ms;
    let records_per_sec = if pipeline_ms > 0.0 {
        records as f64 / (pipeline_ms / 1000.0)
    } else {
        0.0
    };
    eprintln!(
        "{label}: pipeline {:.0} ms over {} kept servers → {:.0} records/sec, {} campaigns",
        pipeline_ms,
        report.kept_servers,
        records_per_sec,
        report.campaigns.len()
    );

    let snap = metrics.snapshot();
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let funnel: Vec<(String, Json)> = ["client", "uri-file"]
        .iter()
        .map(|dim| {
            let stages: Vec<(String, Json)> = [
                "pairs_considered",
                "pairs_bucketed",
                "pairs_scored",
                "edges",
            ]
            .iter()
            .map(|s| (s.to_string(), counter(&format!("dim/{dim}/{s}")).to_json()))
            .collect();
            (dim.to_string(), Json::Obj(stages))
        })
        .collect();
    for (dim, _) in &funnel {
        eprintln!(
            "{label}: {dim} funnel {} considered → {} bucketed → {} scored → {} edges",
            counter(&format!("dim/{dim}/pairs_considered")),
            counter(&format!("dim/{dim}/pairs_bucketed")),
            counter(&format!("dim/{dim}/pairs_scored")),
            counter(&format!("dim/{dim}/edges")),
        );
    }

    let stages: Vec<(String, Json)> = report
        .perf
        .stages
        .iter()
        .map(|s| (s.stage.clone(), round3(s.wall_ms).to_json()))
        .collect();
    let remine = bench_remine(config, &dataset, &report, label);
    Json::Obj(vec![
        ("records".into(), records.to_json()),
        ("quick".into(), quick.to_json()),
        ("ingest_wall_ms".into(), round3(ingest_ms).to_json()),
        ("pipeline_wall_ms".into(), round3(pipeline_ms).to_json()),
        ("records_per_sec".into(), round3(records_per_sec).to_json()),
        ("ingest_columnar".into(), ingest_columnar),
        ("remine_from_disk".into(), remine),
        ("lsh_funnel".into(), Json::Obj(funnel)),
        ("stage_wall_ms".into(), Json::Obj(stages)),
    ])
}

/// The zero-copy re-mine loop: persist the interned arena as a SMSHCOLS
/// day file, reload it, and re-run the full pipeline from the loaded
/// dataset — the `smash preprocess` / `--load-day` path without the
/// string-parsing ingest. Asserts the re-mined report matches the
/// ingest-path one before reporting timings.
fn bench_remine(
    config: &SmashConfig,
    dataset: &smash_trace::TraceDataset,
    baseline: &SmashReport,
    label: &str,
) -> Json {
    let day_path = std::env::temp_dir().join(format!("smash-bench-{}.day", std::process::id()));
    let day_metrics = Registry::new();
    let saved = {
        let _span = day_metrics.span("remine/save");
        smash_trace::save_day(&day_path, dataset)
    };
    if let Err(e) = saved {
        eprintln!("{label}: save_day failed ({e}); skipping remine_from_disk");
        return Json::Obj(vec![("error".into(), Json::Str(e.to_string()))]);
    }
    let day_bytes = std::fs::metadata(&day_path).map(|m| m.len()).unwrap_or(0);

    let loaded = {
        let _span = day_metrics.span("remine/load");
        smash_trace::load_day(&day_path)
    };
    let loaded = match loaded {
        Ok(ds) => ds,
        Err(e) => {
            eprintln!("{label}: load_day failed ({e}); skipping remine_from_disk");
            let _ = std::fs::remove_file(&day_path);
            return Json::Obj(vec![("error".into(), Json::Str(e.to_string()))]);
        }
    };
    let day_snapshot = day_metrics.snapshot();
    let span_ms = |name: &str| {
        day_snapshot
            .histograms
            .get(name)
            .map(|h| h.sum_ms())
            .unwrap_or(0.0)
    };
    let save_ms = span_ms("remine/save");
    let load_ms = span_ms("remine/load");

    let whois = WhoisRegistry::new();
    let metrics = Registry::new();
    let report = Smash::new(config.clone()).run_with_metrics(&loaded, &whois, &metrics);
    let remine_pipeline_ms = report.perf.total_wall_ms;
    let _ = std::fs::remove_file(&day_path);

    let identical = report.campaigns.to_json().to_string()
        == baseline.campaigns.to_json().to_string()
        && report.kept_servers == baseline.kept_servers;
    assert!(
        identical,
        "{label}: re-mined report diverged from ingest-path report"
    );
    eprintln!(
        "{label}: re-mine from disk — save {save_ms:.0} ms, load {load_ms:.0} ms, \
         pipeline {remine_pipeline_ms:.0} ms ({day_bytes} bytes on disk)"
    );
    Json::Obj(vec![
        ("save_ms".into(), round3(save_ms).to_json()),
        ("load_ms".into(), round3(load_ms).to_json()),
        ("pipeline_ms".into(), round3(remine_pipeline_ms).to_json()),
        (
            "total_ms".into(),
            round3(load_ms + remine_pipeline_ms).to_json(),
        ),
        ("day_bytes".into(), day_bytes.to_json()),
        ("report_identical".into(), identical.to_json()),
    ])
}

// lint:allow(index): slice-typed parameter, not an indexing site
fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let mid = v.len() / 2;
    let at = |i: usize| v.get(i).copied().unwrap_or(0.0);
    if v.len() % 2 == 1 {
        at(mid)
    } else {
        (at(mid - 1) + at(mid)) / 2.0
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

/// Durability must stay cheap: checkpointing may cost at most this
/// fraction of the medium scenario's wall time (DESIGN.md §9).
const CKPT_BUDGET_FRACTION: f64 = 0.02;

/// Median checkpoint costs of one scenario, measured over a
/// write-enabled cold run and a read-only resume per iteration.
struct CkptOverhead {
    write_ms: f64,
    read_ms: f64,
    validate_ms: f64,
    /// Checkpoint time of the cold run over its total wall time.
    fraction_of_total: f64,
}

impl CkptOverhead {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("write_ms".into(), round3(self.write_ms).to_json()),
            ("resume_read_ms".into(), round3(self.read_ms).to_json()),
            (
                "resume_validate_ms".into(),
                round3(self.validate_ms).to_json(),
            ),
            (
                "fraction_of_total".into(),
                round3(self.fraction_of_total).to_json(),
            ),
            ("budget_fraction".into(), CKPT_BUDGET_FRACTION.to_json()),
        ])
    }
}

/// Total wall milliseconds of one `ckpt/*` stage in a report (0 when the
/// stage never ran).
fn stage_ms(report: &SmashReport, stage: &str) -> f64 {
    report
        .perf
        .stages
        .iter()
        .filter(|s| s.stage == stage)
        .map(|s| s.wall_ms)
        .sum()
}

/// Measures checkpoint write overhead (cold run, write enabled) and
/// resume read/validate overhead (read-only resume from those
/// snapshots), reduced to medians across iterations.
fn bench_checkpoint_overhead(
    config: &SmashConfig,
    data: &ScenarioData,
    iterations: usize,
) -> CkptOverhead {
    let smash = Smash::new(config.clone());
    let dir = std::env::temp_dir().join(format!("smash-bench-ckpt-{}", std::process::id()));
    let mut write_ms = Vec::new();
    let mut read_ms = Vec::new();
    let mut validate_ms = Vec::new();
    let mut fractions = Vec::new();
    for _ in 0..iterations.max(1) {
        let _ = std::fs::remove_dir_all(&dir);
        let metrics = Registry::new();
        let opts = CheckpointOptions::new(&dir);
        let report = smash.run_resumable(&data.dataset, &data.whois, &metrics, Some(&opts));
        let w = stage_ms(&report, "ckpt/write");
        write_ms.push(w);
        if report.perf.total_wall_ms > 0.0 {
            fractions.push(w / report.perf.total_wall_ms);
        }

        let metrics = Registry::new();
        let opts = CheckpointOptions::new(&dir)
            .with_resume(true)
            .with_write(false);
        let report = smash.run_resumable(&data.dataset, &data.whois, &metrics, Some(&opts));
        read_ms.push(stage_ms(&report, "ckpt/read"));
        validate_ms.push(stage_ms(&report, "ckpt/validate"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    CkptOverhead {
        write_ms: median(&mut write_ms),
        read_ms: median(&mut read_ms),
        validate_ms: median(&mut validate_ms),
        fraction_of_total: median(&mut fractions),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn fingerprint_is_stable_and_config_sensitive() {
        let a = SmashConfig::default().fingerprint();
        let b = SmashConfig::default().fingerprint();
        let c = SmashConfig::default().with_threshold(1.5).fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.starts_with("fnv1a:"));
    }

    #[test]
    fn checkpoint_overhead_measures_all_three_phases() {
        let data = small_scenario();
        let o = bench_checkpoint_overhead(&SmashConfig::default(), &data, 1);
        assert!(o.write_ms > 0.0, "cold run wrote no snapshots");
        assert!(o.read_ms > 0.0, "resume read no snapshots");
        assert!(o.validate_ms >= 0.0);
        assert!(o.fraction_of_total > 0.0 && o.fraction_of_total < 1.0);
    }

    #[test]
    fn quick_bench_produces_all_stages() {
        let data = small_scenario();
        let summary = bench_scenario(&SmashConfig::default(), &data, 1);
        for stage in ["preprocess", "dimension/client", "correlate", "assemble"] {
            assert!(
                summary.stage_median_ms.contains_key(stage),
                "missing stage {stage}: {:?}",
                summary.stage_median_ms.keys().collect::<Vec<_>>()
            );
        }
        assert!(summary.total_median_ms >= 0.0);
    }
}
