//! `batch_jsonl` and `remine_wide`: the `smash analyze` CLI over a
//! JSONL trace and over a preprocessed day.

use super::layers;
use super::{
    finish_end_to_end, finish_traced, timed_setups, traced_loop, Checks, Deadline, Options,
    ITERATION, PROBE,
};
use crate::inputs::{self, InputFile, Shape};
use crate::metrics::{RunResult, Samples};
use crate::proc;
use crate::trace::{self, Tracer};
use smash_core::report::canonical_report_json;
use smash_core::{Smash, SmashConfig};
use smash_support::json;
use smash_trace::io::{decode_record_line, read_jsonl_file};
use smash_trace::TraceDataset;
use smash_whois::WhoisRegistry;
use std::fs;
use std::io;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Which of the two batch workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `batch_jsonl`: the narrow trace as JSONL.
    Jsonl,
    /// `remine_wide`: the wide trace as a `SMSHCOLS` day.
    Day,
}

impl Kind {
    fn shape(self) -> Shape {
        match self {
            Kind::Jsonl => Shape::Narrow,
            Kind::Day => Shape::Wide,
        }
    }
}

/// Writes the workload's input file; for a day also returns the
/// in-memory dataset that produced it.
fn make_input(
    opts: &Options,
    kind: Kind,
    reuse: bool,
) -> io::Result<(InputFile, Option<TraceDataset>)> {
    let dir = opts.out_dir.join("inputs");
    let scenario = opts.scenario(kind.shape());
    match kind {
        Kind::Jsonl => Ok((
            inputs::jsonl_file(&dir, kind.shape(), &scenario, reuse)?,
            None,
        )),
        Kind::Day => {
            let (file, ds) = inputs::day_file(&dir, kind.shape(), &scenario, reuse)?;
            Ok((file, Some(ds)))
        }
    }
}

/// The end-to-end pass: `smash analyze <input> --json <out>` in a closed
/// loop of one caller, one warm-up first.
pub fn end_to_end(opts: &Options, kind: Kind) -> io::Result<RunResult> {
    let smash = proc::build_smash()?;
    let mut samples = Samples::default();
    let mut checks = Checks::default();

    let (input, dataset) = timed_setups(opts, &mut samples, |_| {
        let start = Instant::now();
        let made = make_input(opts, kind, false)?;
        Ok((made, start.elapsed().as_secs_f64()))
    })?;
    // The day's report must be the one mining the in-memory dataset
    // gives; the JSONL report is only compared across iterations.
    let reference = dataset.map(|ds| {
        Smash::new(SmashConfig::default())
            .run(&ds, &WhoisRegistry::new())
            .canonical_json()
    });

    let work = opts.scratch("e2e")?;
    let analyze = |out: &Path| {
        let mut cmd = Command::new(&smash);
        cmd.arg("analyze").arg(&input.path).arg("--json").arg(out);
        proc::run_timed(&work, &cmd)
    };
    analyze(&work.join("warm-up.json"))?;

    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<String> = None;
    let deadline = Deadline::start(opts.seconds, opts.min_iterations());
    while deadline.more(attempted as usize) {
        let out = work.join(format!("report-{attempted}.json"));
        let usage = analyze(&out)?;
        attempted += 1;
        let canonical = fs::read_to_string(&out)
            .ok()
            .filter(|_| usage.success)
            .and_then(|text| canonical_report_json(&text).ok());
        let Some(canonical) = canonical else {
            failed += 1;
            continue;
        };
        samples.push("result_s", usage.wall_s);
        samples.push("records_per_s", input.records as f64 / usage.wall_s);
        samples.push("cpu_s", usage.cpu_s);
        samples.push("peak_rss_mb", usage.peak_rss_mb);
        match &first {
            None => first = Some(canonical),
            Some(f) => checks.expect(*f == canonical, || {
                format!("report of iteration {attempted} differs from the first")
            }),
        }
    }

    let mut notes = vec![format!(
        "{} records, {} input bytes, {} timed iterations",
        input.records,
        input.bytes,
        attempted - failed
    )];
    if let Some(first) = &first {
        if let Some(reference) = &reference {
            checks.expect(first == reference, || {
                "CLI report differs from Smash::run on the dataset that produced the day".into()
            });
        }
        let doc = json::parse(first).map_err(io::Error::other)?;
        let planted = inputs::planted_servers(&opts.scenario(kind.shape()));
        let recall =
            layers::planted_recall(&layers::campaign_lists(doc.get("campaigns")), &planted);
        notes.push(format!("planted_recall {recall}"));
        checks.expect(recall == 1.0, || {
            format!("planted_recall is {recall}, not 1")
        });
    }
    let _ = fs::remove_dir_all(&work);
    Ok(finish_end_to_end(
        &samples, checks, attempted, failed, notes,
    ))
}

/// The traced pass: the CLI's steps called in-process, in CLI order.
pub fn traced(opts: &Options, kind: Kind) -> io::Result<RunResult> {
    let mut samples = Samples::default();
    samples.push("bench_env.spin_ms_before", proc::spin_ms());
    let (input, _) = make_input(opts, kind, true)?;
    let planted = inputs::planted_servers(&opts.scenario(kind.shape()));
    let mut checks = Checks::default();

    // The same lines, for the per-line decoder (serve's ingest path).
    let raw = match kind {
        Kind::Jsonl => fs::read(&input.path)?,
        Kind::Day => Vec::new(),
    };
    let lines: Vec<&[u8]> = raw
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .collect();

    let pass = |tracer: &Tracer, iter: u32, samples: &mut Samples| -> io::Result<String> {
        let report = tracer
            .iteration(iter)
            .span(ITERATION, |ctx| -> io::Result<_> {
                let ds = match kind {
                    Kind::Jsonl => {
                        let records =
                            ctx.span("trace_io.read_parse", |_| read_jsonl_file(&input.path))?;
                        samples.push("trace_io.records", records.len() as f64);
                        ctx.span("trace_dataset.intern", |_| {
                            TraceDataset::from_records(records)
                        })
                    }
                    Kind::Day => {
                        let bytes = ctx.span("trace_day.read", |_| fs::read(&input.path))?;
                        samples.push("trace_day.bytes", bytes.len() as f64);
                        ctx.span("trace_day.parse", |_| smash_trace::day::parse_day(&bytes))
                            .map_err(io::Error::other)?
                    }
                };
                layers::push_dataset_gauges(&ds, samples);
                if kind == Kind::Day {
                    samples.push(
                        "trace_day.bytes_per_record",
                        input.bytes as f64 / ds.record_count().max(1) as f64,
                    );
                }
                Ok(layers::trace_pipeline(ctx, &ds, &planted, samples))
            })?;
        tracer.iteration(iter).span(PROBE, |ctx| {
            if !lines.is_empty() {
                ctx.span("trace_io.decode_line", |_| {
                    for line in &lines {
                        std::hint::black_box(decode_record_line(line).is_ok());
                    }
                });
            }
        });
        Ok(report.canonical_json())
    };

    let min_pairs = opts.min_iterations().min(3);
    let looped = traced_loop(opts, min_pairs, &mut samples, &mut checks, pass)?;
    let spans = looped.spans;
    layers::derive_pipeline_metrics(&spans, &mut samples);
    let secs = |name: &str| trace::seconds_per_iteration(&spans, name);
    let mb = input.bytes as f64 / 1e6;
    match kind {
        Kind::Jsonl => {
            for s in secs("trace_io.read_parse").values() {
                samples.push("trace_io.mb_per_s", mb / s);
            }
            for s in secs("trace_io.decode_line").values() {
                samples.push(
                    "trace_io.decode_line_us",
                    s * 1e6 / lines.len().max(1) as f64,
                );
            }
            for s in secs("trace_dataset.intern").values() {
                samples.push("trace_dataset.records_per_s", input.records as f64 / s);
            }
        }
        Kind::Day => {
            let parse = secs("trace_day.parse");
            for (iter, read_s) in secs("trace_day.read") {
                let load_s = read_s + parse.get(&iter).copied().unwrap_or(0.0);
                samples.push("trace_day.load_s", load_s);
                samples.push("trace_day.load_mb_per_s", mb / load_s);
            }
        }
    }
    let notes = vec![format!("{} records", input.records), looped.note];
    finish_traced(opts, samples, &spans, checks, notes)
}
