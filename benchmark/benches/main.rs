//! The reference benchmark's runner. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! smash-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                                  one run of one workload; the last
//!                                  stdout line is the result as JSON
//! smash-benchmark [--seed <n>] [--seconds <s>]
//!                                  all four workloads, both passes
//! smash-benchmark --smoke          the same at 1/20 scale, 2 iterations
//! smash-benchmark --repeat 2       two full sets, compared against the
//!                                  end-to-end bounds
//! ```

mod inputs;
mod metrics;
mod proc;
mod spec;
mod stats;
mod trace;
mod workloads;

use smash_support::json::{self, Json};
use spec::{END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::Options;

const USAGE: &str = "usage: smash-benchmark [--workload <name> --trace <0|1>] [--seed <n>] \
[--seconds <s>] [--smoke] [--repeat <n>]";

/// Default seed and run length of the all-workloads modes.
const DEFAULT_SEED: u64 = 7;
const DEFAULT_SECONDS: f64 = 20.0;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
    }
}

/// The work dir: `out/` inside the benchmark's own directory. The run
/// contract forbids writing outside the checkout, so there is no tmpfs
/// default; warm-ups absorb the disk's first-touch cost instead.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(workloads::day::CHILD_FLAG) => day_child(&args),
        Some(proc::LAUNCH_FLAG) => proc::launcher(&args[1..])
            .map(|()| true)
            .map_err(|e| e.to_string()),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ if flag(&args, "--workload").is_some() => one_run(&args),
        _ => all_workloads(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("smash-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn day_child(args: &[String]) -> Result<bool, String> {
    let [_, day, work, seconds, min] = args else {
        return Err(
            "the round-trip child takes <day> <work dir> <seconds> <min iterations>".into(),
        );
    };
    let seconds: f64 = seconds.parse().map_err(|_| "bad seconds".to_owned())?;
    let min: usize = min.parse().map_err(|_| "bad iteration count".to_owned())?;
    workloads::day::child(Path::new(day), Path::new(work), seconds, min)
        .map(|()| true)
        .map_err(|e| e.to_string())
}

/// Driver mode: one workload, one pass; human-readable lines, then the
/// result object as the last line.
fn one_run(args: &[String]) -> Result<bool, String> {
    let workload = flag(args, "--workload").unwrap_or_default();
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload `{workload}` (known: {})",
            known.join(", ")
        ));
    }
    let opts = Options {
        workload: workload.to_owned(),
        seed: parsed(args, "--seed", DEFAULT_SEED)?,
        seconds: parsed(args, "--seconds", DEFAULT_SECONDS)?,
        trace: parsed::<u8>(args, "--trace", 0)? != 0,
        smoke: args.iter().any(|a| a == "--smoke"),
        out_dir: out_dir(),
    };
    let result = workloads::run(&opts).map_err(|e| format!("{workload}: {e}"))?;
    print!("{}", result.table());
    println!("{}", result.json_line());
    // A run that measured is a run that exits 0; `correct` carries the
    // verdict on the outputs.
    Ok(true)
}

/// What a child run reported, parsed back from its last line.
struct Reported {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<(String, f64)>,
}

/// Runs this binary again as `--workload <w> --trace <t>`, echoing its
/// table, and parses the result line.
fn spawn_run(workload: &str, trace: bool, args: &[String]) -> Result<Reported, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    for name in ["--seed", "--seconds"] {
        if let Some(v) = flag(args, name) {
            cmd.args([name, v]);
        }
    }
    if args.iter().any(|a| a == "--smoke") {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (table, last) = text
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", text.trim_end()));
    println!("{table}");
    if !out.status.success() {
        return Err(format!("{workload}: run exited with {}", out.status));
    }
    let doc = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let num = |v: &Json| match v {
        Json::Float(f) => Some(*f),
        Json::UInt(u) => Some(*u as f64),
        Json::Int(i) => Some(*i as f64),
        _ => None,
    };
    let count = |key: &str| doc.get(key).and_then(num).unwrap_or(0.0) as u64;
    Ok(Reported {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted"),
        failed: count("failed"),
        values: doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value").and_then(num)?)))
            .collect(),
    })
}

/// The end-to-end values of one full set: per workload, name and value.
type SetValues = Vec<Vec<(String, f64)>>;

/// One full set: every workload, end-to-end pass then traced pass, each
/// in a process of its own. Returns the end-to-end values per workload
/// and whether every run was correct.
fn one_set(args: &[String]) -> Result<(SetValues, bool), String> {
    let mut all = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            println!("== {} --trace {} == {}", w.name, u8::from(trace), w.why);
            let r = spawn_run(w.name, trace, args)?;
            println!(
                "{}: correct={} attempted={} failed={} failed_ops_frac={}",
                w.name,
                r.correct,
                r.attempted,
                r.failed,
                r.failed as f64 / r.attempted.max(1) as f64
            );
            ok &= r.correct && r.failed == 0;
            if !trace {
                all.push(r.values);
            }
        }
    }
    Ok((all, ok))
}

fn all_workloads(args: &[String]) -> Result<bool, String> {
    let known = ["--seed", "--seconds", "--repeat", "--smoke"];
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        return Err(format!("unknown flag `{bad}`"));
    }
    let mut args = args.to_vec();
    if args.iter().any(|a| a == "--smoke") {
        // No time budget: the minimum of two timed iterations.
        args.extend(["--seconds", "0"].map(String::from));
    }
    let repeat: usize = parsed(&args, "--repeat", 1)?;
    let start = Instant::now();
    let mut sets = Vec::new();
    let mut ok = true;
    for set in 0..repeat.max(1) {
        if repeat > 1 {
            println!("==== set {} of {repeat} ====", set + 1);
        }
        let (values, set_ok) = one_set(&args)?;
        sets.push(values);
        ok &= set_ok;
    }
    if sets.len() >= 2 {
        ok &= compare_sets(&sets);
    }
    println!(
        "{} in {:.1} s",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        start.elapsed().as_secs_f64()
    );
    Ok(ok)
}

/// Prints, per workload and end-to-end metric, the median over all sets,
/// their quartile spread, and how far the first half of the sets and the
/// second half disagree — median against median, the larger of the two
/// one-way worsenings — against the metric's bound. With two sets that is
/// run against run, which one slow phase of the machine can fail; more
/// sets make it the comparison the driver makes. `false` when any pair
/// of halves disagrees by more than its bound.
fn compare_sets(sets: &[SetValues]) -> bool {
    println!("==== sets compared ====");
    let mut agree = true;
    for (i, w) in WORKLOADS.iter().enumerate() {
        for spec in &END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .map(|set| {
                    set[i]
                        .iter()
                        .find(|(n, _)| n == spec.name)
                        .map_or(0.0, |(_, v)| *v)
                })
                .collect();
            let (first, second) = values.split_at(values.len().div_ceil(2));
            let (x, y) = (stats::median(first), stats::median(second));
            let diff = stats::worsening(x, y, spec.higher_is_better).max(stats::worsening(
                y,
                x,
                spec.higher_is_better,
            ));
            let within = diff <= spec.bound;
            agree &= within;
            println!(
                "{:<14} {:<14} median {:>14.4} {:<5} spread {:>6.2}% halves differ {:>6.2}% bound {:>5.1}% {}",
                w.name,
                spec.name,
                stats::median(&values),
                spec.unit,
                stats::quartile_spread(&values) * 100.0,
                diff * 100.0,
                spec.bound * 100.0,
                if within { "ok" } else { "DISAGREE" }
            );
        }
    }
    agree
}
