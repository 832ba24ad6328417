//! `smash` — run the pipeline over your own HTTP traces.
//!
//! ```text
//! smash generate small out.jsonl --seed 7     # emit a synthetic trace (+ .whois.json)
//! smash stats out.jsonl                       # Table-I style statistics
//! smash analyze out.jsonl                     # infer campaigns (text report)
//! smash analyze out.jsonl --whois out.whois.json --threshold 1.0 --json report.json
//! smash analyze dirty.jsonl --lenient --error-budget 0.05   # quarantining ingest
//! smash preprocess out.jsonl day.smshcols     # intern + index once, save the day
//! smash analyze day.smshcols --threshold 1.0  # re-mine without re-ingesting
//! smash baseline out.jsonl --top 15           # per-server reputation scores
//! ```
//!
//! Traces are JSONL, one `HttpRecord` per line (see `smash::trace::io`),
//! or a preprocessed `SMSHCOLS` day (written by `smash preprocess` or
//! `--save-day`; detected by content, any file name works). JSONL is
//! streamed line by line straight into the interned arena — no row
//! buffer — by one reader: strict by default (the first malformed line
//! fails the run), and with `--lenient` malformed lines are counted per
//! error class (and spilled to `<trace>.quarantine`) instead, as long
//! as they stay under the error budget.
//! `SMASH_FAILPOINTS` injects deterministic faults for resilience
//! testing (see `smash::support::failpoint`).

use smash::core::baseline::ReputationBaseline;
use smash::core::{DimensionStatus, Smash, SmashConfig};
use smash::support::ckpt::write_atomic_with;
use smash::support::governor::{CancelToken, GovernorOptions};
use smash::support::json::to_string_pretty;
use smash::support::metrics::Registry;
use smash::synth::Scenario;
use smash::trace::{io, IngestOptions, IngestReport, TraceDataset, TraceStats};
use smash::whois::WhoisRegistry;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

const HELP: &str = "\
smash — mine malware campaigns from HTTP traces (SMASH, ICDCS 2015)

usage:
  smash generate <small|day2011|day2012> <out> [--seed N]
  smash stats <trace> [ingest flags]
  smash analyze <trace> [ingest flags] [analyze flags]
  smash preprocess <trace> <out.smshcols> [ingest flags]
  smash baseline <trace> [ingest flags] [--top N]
  smash serve --data-dir <dir> [--addr HOST:PORT | --stdio] [serve flags]

ingest flags (any command that loads a trace):
  --whois <path>         Whois registry JSON to join against
  --lenient              quarantine malformed lines instead of aborting
  --error-budget <frac>  max quarantined fraction before failing (default 0.05)
  --quarantine <path>    quarantine sidecar path (default <trace>.quarantine)
  --save-day <path>      after ingest, save the interned dataset as a
                         SMSHCOLS day file (see DESIGN.md §12)
  --load-day <path>      load a SMSHCOLS day instead of a raw trace
                         (the positional <trace> may be omitted); a day
                         file given as <trace> is detected automatically

analyze flags:
  --threshold <t>        eq. 9 acceptance threshold
  --idf <n>              popularity (IDF) filter threshold
  --param-dimension      enable the URI parameter-pattern dimension
  --exact                URI-file dimension only: brute-force candidate
                         pairs instead of MinHash/LSH (the recall
                         oracle; see DESIGN.md §10 — slow on large
                         traces)
  --dimension-budget-ms <ms>  per-dimension wall-clock budget (0 = off)
  --deadline-ms <ms>     whole-run wall-clock deadline, one clock from
                         before the trace is read, polled cooperatively
                         by ingest, builders, and mining (0 = off; see
                         DESIGN.md §11)
  --json <path>          write the campaign/health/perf report as JSON
  --dot <path>           write the client-similarity graph as Graphviz DOT
  --metrics <path>       dump the full metrics registry snapshot as JSON
  --profile              print a per-stage wall-time table to stdout

serve flags (the always-on campaign daemon; see DESIGN.md §13):
  --data-dir <dir>       epoch WAL + snapshot directory (required)
  --addr <host:port>     TCP listen address (default 127.0.0.1:0; the
                         bound address is printed as `LISTENING <addr>`)
  --stdio                serve stdin/stdout instead of TCP (EOF drains)
  --epoch-budget-mb <mb> open-epoch buffer budget; ingest answers BUSY
                         to a line that would pass it (default 64,
                         0 = off)
  --threshold / --idf / --param-dimension / --exact
                         pipeline knobs, as for analyze
  --dimension-budget-ms / --deadline-ms
                         per-mine wall-clock budgets, as for analyze

  protocol: one request per line — PING, INGEST <json>, SEAL, WAIT,
  QUERY <server>, STATS, REPORT, SHUTDOWN. Example session:
    INGEST {\"timestamp\":0,\"client\":\"bot1\",\"host\":\"cc0.evil\",...}
    SEAL            -> OK epoch=1 records=1
    WAIT            -> OK epoch=1
    QUERY cc0.evil  -> HIT campaign=0 size=8 score=1.000000 since=1

environment:
  SMASH_FAILPOINTS       deterministic fault injection, e.g.
                         `dimension/whois=panic,ingest/jsonl=delay:50`
                         (actions: panic | error | abort | delay:<ms>;
                         see tests/README.md)
  SMASH_CHECK_CASES, SMASH_CHECK_SEED
                         property-test harness controls (test builds only)

benchmarking (the standalone benchmark/ package; see benchmark/README.md):
  cargo run --release --manifest-path benchmark/Cargo.toml -- --workload batch_jsonl

linting:
  cargo run -p smash-lint -- --help         # in-tree invariant linter
                                            # (panic-freedom, determinism,
                                            # coverage; ratcheted in ci.sh)
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    let Some((cmd, rest)) = args.split_first() else {
        // A missing subcommand is a usage error: help text belongs on
        // stderr so stdout stays clean for scripted consumers.
        eprint!("{HELP}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "generate" => cmd_generate(rest),
        "stats" => cmd_stats(rest),
        "analyze" => cmd_analyze(rest),
        "preprocess" => cmd_preprocess(rest),
        "baseline" => cmd_baseline(rest),
        "serve" => cmd_serve(rest),
        first if first.starts_with('-') => {
            eprintln!("error: unknown flag `{first}` (see smash --help)");
            return ExitCode::from(2);
        }
        _ => {
            eprintln!(
                "usage: smash <generate|stats|analyze|preprocess|baseline|serve> ... (see smash --help)"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.downcast_ref::<UsageError>().is_some() => {
            eprintln!("error: {e} (see smash --help)");
            ExitCode::from(2)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// A command-line mistake (unknown flag, missing value) — exits with
/// code 2 and points at `--help`, unlike runtime failures which exit 1.
#[derive(Debug)]
struct UsageError(String);

impl std::fmt::Display for UsageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// A known flag: its name and whether it consumes a value argument.
type FlagSpec = (&'static str, bool);

/// Flags shared by every command that loads a trace.
const LOAD_FLAGS: &[FlagSpec] = &[
    ("--whois", true),
    ("--lenient", false),
    ("--error-budget", true),
    ("--quarantine", true),
    ("--save-day", true),
    ("--load-day", true),
];

/// Rejects any `--flag` not in `allowed` — silently ignoring a typo like
/// `--threshhold` would analyze with defaults and report wrong results.
fn check_flags(args: &[String], allowed: &[&[FlagSpec]]) -> Result<(), UsageError> {
    let mut i = 0;
    while let Some(a) = args.get(i) {
        if a.starts_with("--") {
            match allowed
                .iter()
                .flat_map(|set| set.iter())
                .find(|(name, _)| name == a)
            {
                None => {
                    let known: Vec<&str> = allowed
                        .iter()
                        .flat_map(|set| set.iter())
                        .map(|(name, _)| *name)
                        .collect();
                    return Err(UsageError(format!(
                        "unknown flag `{a}` (known flags: {})",
                        known.join(", ")
                    )));
                }
                Some((_, takes_value)) => {
                    if *takes_value {
                        if i + 1 >= args.len() {
                            return Err(UsageError(format!("flag `{a}` needs a value")));
                        }
                        i += 1; // skip the value
                    }
                }
            }
        }
        i += 1;
    }
    Ok(())
}

// lint:allow(index): lifetime-annotated slice parameter, not an indexing site
fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn cmd_generate(args: &[String]) -> CliResult {
    check_flags(args, &[&[("--seed", true)]])?;
    let preset = args.first().map(String::as_str).unwrap_or("small");
    let out = args.get(1).map(String::as_str).unwrap_or("trace.jsonl");
    let seed: u64 = flag_value(args, "--seed").unwrap_or("7").parse()?;
    let scenario = match preset {
        "small" => Scenario::small_day(seed),
        "day2011" => Scenario::data2011_day(seed),
        "day2012" => Scenario::data2012_day(seed),
        other => return Err(format!("unknown preset `{other}` (small|day2011|day2012)").into()),
    };
    let data = scenario.generate();
    let records: Vec<smash::trace::HttpRecord> = data.dataset.raw_records().collect();
    io::write_jsonl_file(out, &records)?;
    let whois_path = format!("{out}.whois.json");
    std::fs::write(&whois_path, to_string_pretty(&data.whois))?;
    println!(
        "wrote {} records to {out} and the Whois registry to {whois_path} (seed {seed})",
        records.len()
    );
    Ok(())
}

/// Loads the trace (strict by default, quarantining with `--lenient`)
/// plus the optional Whois registry. The third element is the ingest
/// report when lenient mode ran. A JSONL read polls `cancel` once per
/// chunk and aborts once it is cancelled. Records `stage/ingest`,
/// `stage/ingest/merge` and `stage/ingest/postings` timings plus
/// `ingest/bytes` / `ingest/chunks` / `ingest/records` /
/// `ingest/quarantined` counters into `metrics` — or, for a day file,
/// `stage/load_day`.
fn load(
    args: &[String],
    metrics: &Registry,
    cancel: Option<&CancelToken>,
) -> Result<(TraceDataset, WhoisRegistry, Option<IngestReport>), Box<dyn std::error::Error>> {
    let whois = || -> Result<WhoisRegistry, Box<dyn std::error::Error>> {
        Ok(match flag_value(args, "--whois") {
            Some(p) => smash::support::json::from_str(&std::fs::read_to_string(p)?)?,
            None => WhoisRegistry::new(),
        })
    };
    let positional = args.first().filter(|a| !a.starts_with("--"));
    // A preprocessed day skips parsing and interning: the arena and
    // symbol tables come back exactly as `preprocess` built them, and
    // the postings are rebuilt from them as ingest builds them.
    let day_path = flag_value(args, "--load-day").or_else(|| {
        positional.map(String::as_str).filter(|p| {
            let mut head = [0u8; 8];
            std::fs::File::open(p)
                .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut head))
                .is_ok()
                && smash::trace::day::is_day_file(&head)
        })
    });
    let (dataset, ingest) = if let Some(day) = day_path {
        let _span = metrics.span("stage/load_day");
        (smash::trace::load_day(Path::new(day))?, None)
    } else {
        let path = positional.ok_or("missing trace path")?;
        let _span = metrics.span("stage/ingest");
        // One reader for both modes: strict is an error budget of zero
        // and no quarantine sidecar.
        let lenient = args.iter().any(|a| a == "--lenient");
        let mut opts = IngestOptions::default();
        if lenient {
            opts = opts.with_quarantine(
                flag_value(args, "--quarantine").unwrap_or(&format!("{path}.quarantine")),
            );
            if let Some(b) = flag_value(args, "--error-budget") {
                opts = opts.with_error_budget(b.parse()?);
            }
        } else {
            opts = opts.with_error_budget(0.0);
        }
        if let Some(token) = cancel {
            opts = opts.with_cancel(token.clone());
        }
        let mut dataset = TraceDataset::default();
        let file = std::fs::File::open(path)?;
        metrics.counter("ingest/bytes").add(file.metadata()?.len());
        let mut arena = dataset.appender();
        let report = io::read_jsonl_into(file, &opts, &mut arena, metrics)?;
        // The appender's drop builds the five posting tables from the
        // columns (DESIGN.md §12.3), the one ingest step past the merge.
        let postings = metrics.span("stage/ingest/postings");
        drop(arena);
        drop(postings);
        if report.bad_lines() > 0 {
            eprintln!(
                "note: quarantined {} of {} lines ({} oversized, {} bad JSON, {} bad IP, {} bad field)",
                report.bad_lines(),
                report.lines,
                report.oversized,
                report.bad_json,
                report.bad_ip,
                report.bad_field
            );
        }
        metrics
            .counter("ingest/quarantined")
            .add(report.bad_lines() as u64);
        (dataset, lenient.then_some(report))
    };
    metrics
        .counter("ingest/records")
        .add(dataset.record_count() as u64);
    metrics
        .counter("ingest/arena_bytes")
        .add(dataset.heap_bytes());
    if let Some(out) = flag_value(args, "--save-day") {
        smash::trace::day::save_day(Path::new(out), &dataset)?;
        eprintln!("note: saved preprocessed day to {out}");
    }
    Ok((dataset, whois()?, ingest))
}

fn cmd_preprocess(args: &[String]) -> CliResult {
    check_flags(args, &[LOAD_FLAGS])?;
    let out = args
        .get(1)
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .ok_or("missing output path (smash preprocess <trace> <out.smshcols>)")?;
    let metrics = Registry::new();
    let (dataset, _, _) = load(args, &metrics, None)?;
    smash::trace::day::save_day(Path::new(out), &dataset)?;
    println!(
        "preprocessed {} records ({} servers, {} clients, {} arena bytes) to {out}",
        dataset.record_count(),
        dataset.server_count(),
        dataset.client_count(),
        dataset.heap_bytes()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    check_flags(args, &[LOAD_FLAGS])?;
    let (dataset, _, _) = load(args, &Registry::new(), None)?;
    println!("{}", TraceStats::compute(&dataset));
    Ok(())
}

const ANALYZE_FLAGS: &[FlagSpec] = &[
    ("--threshold", true),
    ("--idf", true),
    ("--param-dimension", false),
    ("--exact", false),
    ("--dimension-budget-ms", true),
    ("--deadline-ms", true),
    ("--json", true),
    ("--dot", true),
    ("--metrics", true),
    ("--profile", false),
];

/// The pipeline knobs `analyze` and `serve` share.
fn pipeline_config(args: &[String]) -> Result<SmashConfig, Box<dyn std::error::Error>> {
    let mut config = SmashConfig::default();
    if let Some(t) = flag_value(args, "--threshold") {
        config = config.with_threshold(t.parse()?);
    }
    if let Some(t) = flag_value(args, "--idf") {
        config = config.with_idf_threshold(t.parse()?);
    }
    if args.iter().any(|a| a == "--param-dimension") {
        config = config.with_param_pattern_dimension(true);
    }
    if args.iter().any(|a| a == "--exact") {
        config = config.with_exact_candidates(true);
    }
    if let Some(ms) = flag_value(args, "--dimension-budget-ms") {
        config = config.with_dimension_budget_ms(ms.parse()?);
    }
    Ok(config)
}

fn cmd_analyze(args: &[String]) -> CliResult {
    check_flags(args, &[LOAD_FLAGS, ANALYZE_FLAGS])?;
    let metrics = Registry::new();
    // One run deadline, started before the trace is read: ingest polls
    // it, and the governor's run token is its child, so ingest and
    // mining share one clock.
    let deadline_ms: u64 = flag_value(args, "--deadline-ms").unwrap_or("0").parse()?;
    let deadline = (deadline_ms > 0).then(|| CancelToken::with_deadline_ms(deadline_ms));
    let (dataset, whois, ingest) = load(args, &metrics, deadline.as_ref())?;
    let config = pipeline_config(args)?;
    let resources = deadline.map(|token| GovernorOptions::unlimited().with_cancel(token));
    let smash = Smash::new(config);
    let mut report = smash.run_governed(&dataset, &whois, &metrics, resources.as_ref());
    report.health.ingest = ingest;
    for note in &report.health.governor {
        eprintln!("governor: {note}");
    }
    if !report.health.fully_healthy() {
        for kind in report.health.degraded_dimensions() {
            let why = match report.health.status_of(kind) {
                Some(DimensionStatus::Failed { reason }) => reason.clone(),
                Some(DimensionStatus::TimedOut {
                    elapsed_ms,
                    budget_ms,
                }) => format!("over budget ({elapsed_ms} ms > {budget_ms} ms)"),
                Some(DimensionStatus::Cancelled { reason }) => format!("cancelled: {reason}"),
                _ => continue,
            };
            eprintln!("warning: dimension {kind} dropped: {why}");
        }
        if report.health.score_renormalization != 1.0 {
            eprintln!(
                "warning: degraded run — scores renormalized by {:.2}",
                report.health.score_renormalization
            );
        }
    }
    println!(
        "kept {} servers ({} filtered as popular); {} campaigns inferred",
        report.kept_servers,
        report.dropped_popular,
        report.campaigns.len()
    );
    for (i, c) in report.campaigns.iter().enumerate() {
        println!(
            "\ncampaign #{i}: {} servers, {} client(s), dimensions {:?}",
            c.server_count(),
            c.client_count,
            c.dimension_set()
        );
        for (s, score) in c.servers.iter().zip(&c.scores) {
            println!("  {s}  (score {score:.2})");
        }
    }
    if let Some(out) = flag_value(args, "--json") {
        use smash::support::json::{Json, ToJson};
        let doc = Json::Obj(vec![
            ("campaigns".into(), report.campaigns.to_json()),
            ("health".into(), report.health.to_json()),
            ("perf".into(), report.perf.to_json()),
        ]);
        write_atomic_with(Path::new(out), |w| {
            w.write_all(to_string_pretty(&doc).as_bytes())
        })?;
        println!("\nwrote JSON report to {out}");
    }
    if let Some(out) = flag_value(args, "--metrics") {
        let snap = metrics.snapshot();
        write_atomic_with(Path::new(out), |w| {
            w.write_all(to_string_pretty(&snap).as_bytes())
        })?;
        println!("\nwrote metrics snapshot to {out}");
    }
    if args.iter().any(|a| a == "--profile") {
        println!("\n{}", metrics.snapshot().render_table());
        if report.perf.peak_tracked_bytes > 0 {
            println!(
                "peak tracked bytes: {} across {} governed stage(s)",
                report.perf.peak_tracked_bytes,
                report
                    .perf
                    .stages
                    .iter()
                    .filter(|s| s.peak_tracked_bytes > 0)
                    .count()
            );
        }
    }
    if let Some(out) = flag_value(args, "--dot") {
        // The main (client-similarity) graph, colored by herd — the
        // paper's Fig. 3 view. Node i of the graph is the i-th kept
        // server; resolve labels through the run's preprocessing order.
        let pre = smash::core::preprocess::filter_popular(&dataset, smash.config().idf_threshold);
        let label = |u: u32| {
            pre.kept
                .get(u as usize)
                .map(|&sid| dataset.server_name(sid).to_string())
                .unwrap_or_else(|| u.to_string())
        };
        let opts = smash::graph::dot::DotOptions {
            label: Some(&label),
            partition: Some(&report.main.partition),
            skip_isolated: true,
        };
        let dot = smash::graph::dot::to_dot(&report.main.graph, &opts);
        write_atomic_with(Path::new(out), |w| w.write_all(dot.as_bytes()))?;
        println!("wrote client-similarity DOT graph to {out}");
    }
    Ok(())
}

fn cmd_baseline(args: &[String]) -> CliResult {
    check_flags(args, &[LOAD_FLAGS, &[("--top", true)]])?;
    let (dataset, _, _) = load(args, &Registry::new(), None)?;
    let top: usize = flag_value(args, "--top").unwrap_or("20").parse()?;
    let baseline = ReputationBaseline::default();
    println!("top {top} servers by per-server reputation score (herd-blind comparator):");
    for (sid, score) in baseline.score_all(&dataset).into_iter().take(top) {
        println!("  {:5.2}  {}", score, dataset.server_name(sid));
    }
    Ok(())
}

const SERVE_FLAGS: &[FlagSpec] = &[
    ("--data-dir", true),
    ("--addr", true),
    ("--stdio", false),
    ("--epoch-budget-mb", true),
    ("--threshold", true),
    ("--idf", true),
    ("--param-dimension", false),
    ("--exact", false),
    ("--dimension-budget-ms", true),
    ("--deadline-ms", true),
];

fn cmd_serve(args: &[String]) -> CliResult {
    check_flags(args, &[SERVE_FLAGS])?;
    let data_dir = flag_value(args, "--data-dir")
        .ok_or_else(|| UsageError("`smash serve` needs `--data-dir <dir>`".to_owned()))?;
    let stdio = args.iter().any(|a| a == "--stdio");
    let addr = flag_value(args, "--addr").map(str::to_owned);
    if stdio && addr.is_some() {
        return Err(UsageError("`--stdio` and `--addr` are mutually exclusive".to_owned()).into());
    }
    let mut serve = smash::serve::ServeOptions::new(data_dir);
    serve.config = pipeline_config(args)?;
    if let Some(mb) = flag_value(args, "--epoch-budget-mb") {
        serve.epoch_budget_bytes = mb.parse::<u64>()? << 20;
    }
    if let Some(ms) = flag_value(args, "--deadline-ms") {
        serve.mine_deadline_ms = ms.parse()?;
    }
    smash::serve::run(smash::serve::RunOptions { serve, addr, stdio })
        .map_err(|e| -> Box<dyn std::error::Error> { e.into() })
}
