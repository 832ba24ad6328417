//! The four workloads. Each has an end-to-end pass (tracing off, the
//! real program as a child process) and a traced pass (each layer's
//! public functions called in-process, inside spans).

pub mod batch;
pub mod day;
pub mod layers;
pub mod serve;

use crate::inputs::Shape;
use crate::metrics::{self, RunResult, Samples};
use crate::proc;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Span, Tracer};
use smash_synth::stream::StreamScenario;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What one run was asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name, one of [`crate::spec::WORKLOADS`].
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// `true` for the traced, per-layer pass.
    pub trace: bool,
    /// `--smoke`: shapes at 1/20 size, two timed iterations, one set-up.
    pub smoke: bool,
    /// The work dir, inside the benchmark's own directory.
    pub out_dir: PathBuf,
}

impl Options {
    /// What the input shapes are divided by.
    pub fn divisor(&self) -> usize {
        if self.smoke {
            20
        } else {
            1
        }
    }

    /// The scenario of `shape` at this run's seed and size.
    pub fn scenario(&self, shape: Shape) -> StreamScenario {
        shape.scenario(self.seed, self.divisor())
    }

    /// Timed iterations a loop makes even when the time is already up:
    /// seven at full size (medians need them), two for a smoke run.
    pub fn min_iterations(&self) -> usize {
        if self.smoke {
            2
        } else {
            7
        }
    }

    /// A scratch directory of this run, emptied first.
    pub fn scratch(&self, tag: &str) -> std::io::Result<PathBuf> {
        let dir = self
            .out_dir
            .join(format!("{}-{tag}-{}", self.workload, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

/// Repeats set-up and records each repetition's seconds as `setup_s`
/// (the median is reported); the last repetition's product is what the
/// run goes on to use. `setup` returns its product and how long
/// the part of it that counts took. Five repetitions at least, and a
/// quick set-up — a fraction of a second is mostly noise — is repeated
/// until 3 s have gone into it, twenty-five times at most; a smoke run
/// sets up once.
pub fn timed_setups<T>(
    opts: &Options,
    samples: &mut Samples,
    mut setup: impl FnMut(usize) -> std::io::Result<(T, f64)>,
) -> std::io::Result<T> {
    let (mut spent_s, mut done) = (0.0, 0);
    loop {
        let (product, seconds) = setup(done)?;
        samples.push("setup_s", seconds);
        spent_s += seconds;
        done += 1;
        let enough = opts.smoke || (done >= 5 && (spent_s >= 3.0 || done >= 25));
        if enough {
            return Ok(product);
        }
    }
}

/// A closed loop's stop rule: keep going until `seconds` have passed
/// and at least `min` iterations are done.
pub struct Deadline {
    start: Instant,
    budget: Duration,
    min: usize,
}

impl Deadline {
    /// Starts the clock.
    pub fn start(seconds: f64, min: usize) -> Self {
        Self {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds.max(0.0)),
            min,
        }
    }

    /// `true` while iteration number `done` (0-based count of finished
    /// iterations) should still run.
    pub fn more(&self, done: usize) -> bool {
        done < self.min || self.start.elapsed() < self.budget
    }
}

/// Output checks of a run: each failed check is one mismatch, named.
#[derive(Debug, Default)]
pub struct Checks {
    /// Descriptions of the checks that failed.
    pub failed: Vec<String>,
}

impl Checks {
    /// Records `what` as a mismatch unless `ok`.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed.push(what());
        }
    }
}

/// Name of the top-level span that holds one iteration's layer calls;
/// layers probed on their own hang under [`PROBE`] instead.
pub const ITERATION: &str = "iter";
/// Name of the top-level span for layers probed outside the iteration.
pub const PROBE: &str = "probe";

/// `true` when span `i` is, or descends from, a top-level span `root`.
fn in_tree(spans: &[Span], mut i: usize, root: &str) -> bool {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    spans[i].name == root
}

/// Closes an end-to-end pass: resolves the five end-to-end metrics.
pub fn finish_end_to_end(
    samples: &Samples,
    checks: Checks,
    attempted: u64,
    failed: u64,
    mut notes: Vec<String>,
) -> RunResult {
    for name in ["setup_s", "result_s", "cpu_s", "peak_rss_mb"] {
        let v = samples.get(name).unwrap_or_default();
        notes.push(format!(
            "{name} over {} samples: min {:.4} p25 {:.4} median {:.4} max {:.4}",
            v.len(),
            stats::percentile(v, 0.0),
            stats::percentile(v, 25.0),
            stats::median(v),
            stats::percentile(v, 100.0)
        ));
    }
    notes.extend(checks.failed.iter().map(|c| format!("MISMATCH: {c}")));
    RunResult {
        correct: checks.failed.is_empty() && failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics: metrics::resolve(&END_TO_END, samples, &[]),
        notes,
    }
}

/// What [`traced_loop`] hands back.
pub struct TracedLoop {
    /// The spans of the traced passes.
    pub spans: Vec<Span>,
    /// How many pairs ran and the two medians, for the notes.
    pub note: String,
    /// The output digest every pass agreed on.
    pub digest: String,
}

/// Runs the traced loop every workload shares: one warm-up pass, then
/// pairs of passes — tracer off, tracer on — until the time is up (at
/// least `min_pairs`). The medians of the two kinds differ by the tracing
/// overhead, reported as `bench_env.trace_overhead_frac`. `pass` returns a digest
/// of its output; every pass must return the same one.
pub fn traced_loop(
    opts: &Options,
    min_pairs: usize,
    samples: &mut Samples,
    checks: &mut Checks,
    mut pass: impl FnMut(&Tracer, u32, &mut Samples) -> std::io::Result<String>,
) -> std::io::Result<TracedLoop> {
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let mut discarded = Samples::default();
    let reference = pass(&off, 0, &mut discarded)?;
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let deadline = Deadline::start(opts.seconds, min_pairs);
    while deadline.more(traced_s.len()) {
        let start = Instant::now();
        let plain = pass(&off, 0, &mut discarded)?;
        untraced_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let traced = pass(&on, traced_s.len() as u32 + 1, samples)?;
        traced_s.push(start.elapsed().as_secs_f64());
        checks.expect(plain == reference && traced == reference, || {
            "passes over the same input disagree on the output".into()
        });
    }
    let (plain, traced) = (stats::median(&untraced_s), stats::median(&traced_s));
    samples.push("bench_env.trace_overhead_frac", (traced - plain) / plain);
    let note = format!(
        "{} pairs of passes: median untraced {plain:.3} s, median traced {traced:.3} s",
        traced_s.len()
    );
    Ok(TracedLoop {
        spans: on.spans(),
        note,
        digest: reference,
    })
}

/// Closes a traced pass: adds the environment metrics, writes the
/// trace file, and resolves every per-layer metric.
pub fn finish_traced(
    opts: &Options,
    mut samples: Samples,
    spans: &[Span],
    mut checks: Checks,
    mut notes: Vec<String>,
) -> std::io::Result<RunResult> {
    samples.push(
        "bench_env.threads",
        std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
    );
    samples.push("bench_env.spin_ms_after", proc::spin_ms());

    // Coverage: the share of each iteration's `iter` span that lies
    // inside a leaf layer span. Time in `iter` or in a grouping span but
    // in none of its children is unattributed.
    let selfs = trace::self_times_ns(spans);
    let mut has_child = vec![false; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            has_child[p] = true;
        }
    }
    let iterations: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == ITERATION)
        .collect();
    for root in &iterations {
        let unattributed: u64 = (0..spans.len())
            .filter(|&i| has_child[i] && spans[i].iter == root.iter && in_tree(spans, i, ITERATION))
            .map(|i| selfs[i])
            .sum();
        samples.push(
            "bench_env.span_coverage",
            1.0 - unattributed as f64 / root.duration_ns().max(1) as f64,
        );
    }
    samples.push("bench_env.iterations", iterations.len() as f64);
    checks.expect(spans.iter().all(|s| spec::valid_name(&s.name)), || {
        "a span name breaks the [A-Za-z0-9_.-]+ rule".into()
    });

    let path = opts.out_dir.join(format!("trace-{}.jsonl", opts.workload));
    trace::write_jsonl(&path, spans)?;
    notes.push(format!(
        "{} spans written to {}",
        spans.len(),
        path.display()
    ));
    notes.extend(checks.failed.iter().map(|c| format!("MISMATCH: {c}")));
    Ok(RunResult {
        correct: checks.failed.is_empty(),
        attempted: iterations.len().max(1) as u64,
        failed: 0,
        metrics: metrics::resolve(&PER_LAYER, &samples, spans),
        notes,
    })
}

/// Runs the workload `opts` names.
///
/// # Errors
///
/// Set-up or I/O failures; a failed operation of the program under test
/// is counted, not returned.
pub fn run(opts: &Options) -> std::io::Result<RunResult> {
    match (opts.workload.as_str(), opts.trace) {
        ("batch_jsonl", false) => batch::end_to_end(opts, batch::Kind::Jsonl),
        ("batch_jsonl", true) => batch::traced(opts, batch::Kind::Jsonl),
        ("remine_wide", false) => batch::end_to_end(opts, batch::Kind::Day),
        ("remine_wide", true) => batch::traced(opts, batch::Kind::Day),
        ("day_roundtrip", false) => day::end_to_end(opts),
        ("day_roundtrip", true) => day::traced(opts),
        ("serve_epochs", false) => serve::end_to_end(opts),
        ("serve_epochs", true) => serve::traced(opts),
        (other, _) => Err(std::io::Error::other(format!("unknown workload `{other}`"))),
    }
}
