//! Checkpoint/resume durability suite (DESIGN.md §9).
//!
//! Three layers of evidence that stage-boundary checkpointing is safe:
//!
//! 1. **Clean resume is exact** — a resumed run's canonical report is
//!    byte-identical to the cold run that wrote the snapshots (and to a
//!    checkpoint-free run).
//! 2. **A crash at any stage boundary is survivable** — the CLI is
//!    killed (`abort`, uncatchable) after every checkpoint stage in
//!    turn via subprocess re-exec (an in-process harness cannot survive
//!    `std::process::abort`), then resumed to the same report — both
//!    writing the missing snapshots and read-only from the completed
//!    directory.
//! 3. **No corruption can poison a resume** — a property test flips or
//!    truncates one seeded byte of one seeded snapshot; the pipeline
//!    must recompute-and-warn, never panic and never change the result,
//!    and the CLI must surface the warning in its `--json` report.

mod common;

use common::{flux_records, flux_recovered, flux_trace, flux_whois, locked, scratch};
use smash::core::checkpoint::default_stages;
use smash::core::report::canonical_report_json;
use smash::core::{CheckpointOptions, Smash, SmashConfig, SmashReport};
use smash::support::check::cases;
use smash::support::failpoint;
use smash::support::json::{self, Json};
use smash::support::metrics::Registry;
use smash::trace::io;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The failpoint registry is process-global; serialize the tests that
/// could observe an armed spec.
static LOCK: Mutex<()> = Mutex::new(());

/// Prefix of this suite's scratch directories.
const SCRATCH: &str = "smash-ckpt-test";

fn run_resumable(ckpt: Option<&CheckpointOptions>) -> (SmashReport, Registry) {
    let metrics = Registry::new();
    let report = Smash::new(SmashConfig::default()).run_resumable(
        &flux_trace(),
        &flux_whois(),
        &metrics,
        ckpt,
    );
    (report, metrics)
}

#[test]
fn clean_resume_is_byte_identical_to_cold_and_plain_runs() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "clean");

    let (plain, _) = run_resumable(None);
    let (cold, _) = run_resumable(Some(&CheckpointOptions::new(&dir)));
    let (warm, metrics) = run_resumable(Some(
        &CheckpointOptions::new(&dir)
            .with_resume(true)
            .with_write(false),
    ));

    assert!(flux_recovered(&plain), "campaigns: {:?}", plain.campaigns);
    assert_eq!(
        warm.canonical_json(),
        cold.canonical_json(),
        "resumed report diverged from the cold run that wrote the snapshots"
    );
    assert_eq!(
        warm.canonical_json(),
        plain.canonical_json(),
        "checkpointing changed the analysis result"
    );
    assert!(
        warm.health.checkpoint_warnings.is_empty(),
        "clean resume warned: {:?}",
        warm.health.checkpoint_warnings
    );
    // Every default stage resumed from its snapshot, none rejected.
    assert_eq!(
        metrics.counter("ckpt/loaded").get(),
        default_stages().len() as u64
    );
    assert_eq!(metrics.counter("ckpt/rejected").get(), 0);
    // DESIGN.md §9.4 reads the cost of checkpointing from these rows of
    // `--profile`; they must not silently vanish.
    let stage_ms = |report: &SmashReport, stage: &str| {
        report
            .perf
            .stages
            .iter()
            .find(|s| s.stage == stage)
            .map(|s| s.wall_ms)
    };
    assert!(
        stage_ms(&cold, "ckpt/write").is_some_and(|ms| ms > 0.0),
        "cold run timed no snapshot writes: {:?}",
        cold.perf.stages
    );
    for stage in ["ckpt/read", "ckpt/validate"] {
        assert!(
            stage_ms(&warm, stage).is_some(),
            "resume has no `{stage}` row: {:?}",
            warm.perf.stages
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill the CLI with `abort` (uncatchable — no unwinding, no report)
/// after each checkpoint stage in turn, then resume the same directory
/// — first writing the snapshots the crash never reached, then read-only
/// from the completed directory — and require the same canonical report
/// as an uninterrupted run (which also means: no checkpoint warnings).
#[test]
fn crash_at_every_stage_boundary_resumes_to_the_cold_report() {
    let _g = locked(&LOCK);
    let root = scratch(SCRATCH, "crash");
    let trace = root.join("trace.jsonl");
    write_trace_files(&trace);
    let cold_json = root.join("cold.json");
    let out = run_cli(&trace, &cold_json, &[], None);
    assert!(out.status.success(), "cold run failed: {:?}", out);
    let cold = canonical_file(&cold_json);
    assert!(cold.contains("cc0.evil"), "cold run lost the flux campaign");

    for stage in default_stages() {
        let dir = root.join(format!("ck-{}", stage.replace('/', "_")));
        let dir_s = dir.to_string_lossy().into_owned();
        let crash_json = root.join("crashed.json");
        let out = run_cli(
            &trace,
            &crash_json,
            &["--checkpoint-dir", &dir_s],
            Some(&format!("ckpt/after/{stage}=abort")),
        );
        assert!(
            !out.status.success(),
            "abort after {stage} should kill the process"
        );
        assert!(
            !crash_json.exists(),
            "a killed run must not leave a report behind ({stage})"
        );

        for resume in [&["--resume"][..], &["--resume", "--no-checkpoint"]] {
            let resumed_json = root.join("resumed.json");
            let flags = [&["--checkpoint-dir", &dir_s], resume].concat();
            let out = run_cli(&trace, &resumed_json, &flags, None);
            assert!(
                out.status.success(),
                "{resume:?} after {stage} crash failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(
                canonical_file(&resumed_json),
                cold,
                "{resume:?} after {stage} crash diverged from the cold report"
            );
            let _ = std::fs::remove_file(&resumed_json);
        }
    }

    let _ = std::fs::remove_dir_all(&root);
}

/// Corrupting any single byte of any snapshot — bit flip or truncation,
/// position chosen by the property harness — must degrade that stage to
/// recompute-with-warning and leave the campaigns untouched; and the
/// binary must put that warning in front of the operator.
#[test]
fn corrupted_snapshot_always_recomputes_never_panics_or_lies() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let pristine = scratch(SCRATCH, "corrupt-src");
    let (reference, _) = run_resumable(Some(&CheckpointOptions::new(&pristine)));
    let reference_campaigns = json::to_string(&reference.campaigns);

    // Load the pristine directory once; each case replays it into a
    // fresh dir with one seeded corruption.
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&pristine)
        .expect("read pristine dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read snapshot");
            (name, bytes)
        })
        .collect();
    files.sort();
    let snapshots: Vec<usize> = files
        .iter()
        .enumerate()
        .filter(|(_, (name, _))| name.ends_with(".ckpt"))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(snapshots.len(), default_stages().len());

    static CASE: AtomicUsize = AtomicUsize::new(0);
    cases(48).run(
        |g| {
            let which = *g.pick(&snapshots);
            let len = files[which].1.len();
            let offset = g.range(0..len);
            let truncate = g.bool(0.25);
            let mask = 1u8 << g.range(0..8u32);
            (which, offset, truncate, mask)
        },
        |&(which, offset, truncate, mask)| {
            let dir = std::env::temp_dir().join(format!(
                "smash-ckpt-test-{}-case-{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&dir).expect("create case dir");
            for (i, (name, bytes)) in files.iter().enumerate() {
                if i == which {
                    let mut b = bytes.clone();
                    if truncate {
                        b.truncate(offset);
                    } else {
                        b[offset] ^= mask.max(1);
                    }
                    std::fs::write(dir.join(name), b).expect("write corrupted");
                } else {
                    std::fs::write(dir.join(name), bytes).expect("write snapshot");
                }
            }

            let metrics = Registry::new();
            let report = Smash::new(SmashConfig::default()).run_resumable(
                &flux_trace(),
                &flux_whois(),
                &metrics,
                Some(
                    &CheckpointOptions::new(&dir)
                        .with_resume(true)
                        .with_write(false),
                ),
            );
            let _ = std::fs::remove_dir_all(&dir);

            assert_eq!(
                json::to_string(&report.campaigns),
                reference_campaigns,
                "corruption changed the campaigns"
            );
            assert!(
                !report.health.checkpoint_warnings.is_empty(),
                "corruption of snapshot {which} at {offset} went unnoticed"
            );
            assert!(metrics.counter("ckpt/rejected").get() >= 1);
        },
    );

    let _ = std::fs::remove_dir_all(&pristine);

    // The same through the CLI: one flipped byte in one snapshot of a
    // directory the binary wrote itself. `--resume` must exit 0, name
    // the stage in `health.checkpoint_warnings`, and otherwise report
    // exactly what the run that wrote the snapshots reported.
    let root = scratch(SCRATCH, "corrupt-cli");
    let trace = root.join("trace.jsonl");
    write_trace_files(&trace);
    let dir = root.join("ck");
    let dir_s = dir.to_string_lossy().into_owned();
    let cold_json = root.join("cold.json");
    let out = run_cli(&trace, &cold_json, &["--checkpoint-dir", &dir_s], None);
    assert!(out.status.success(), "checkpointed run failed: {out:?}");
    let (cold, cold_warnings) = split_warnings(&cold_json);
    assert_eq!(cold_warnings, Vec::<String>::new());

    let victim = &default_stages()[1];
    let path = dir.join(smash::support::ckpt::snapshot_file_name(victim));
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, bytes).expect("write corrupted snapshot");

    let resumed_json = root.join("resumed.json");
    let flags = ["--checkpoint-dir", &dir_s, "--resume"];
    let out = run_cli(&trace, &resumed_json, &flags, None);
    assert!(
        out.status.success(),
        "resume past a corrupted snapshot failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (resumed, warnings) = split_warnings(&resumed_json);
    assert!(
        warnings.iter().any(|w| w.contains(victim.as_str())),
        "--json does not warn about the corrupted `{victim}` snapshot: {warnings:?}"
    );
    assert_eq!(resumed, cold, "corruption changed the CLI's report");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_flags_without_a_directory_are_usage_errors() {
    let root = scratch(SCRATCH, "usage");
    let trace = root.join("trace.jsonl");
    write_trace_files(&trace);
    for flag in ["--resume", "--no-checkpoint"] {
        let out = run_cli(&trace, &root.join("out.json"), &[flag], None);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} without --checkpoint-dir must be a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--checkpoint-dir"),
            "{flag} error must name the missing flag, got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn write_trace_files(trace: &Path) {
    let mut buf = Vec::new();
    io::write_jsonl(&mut buf, &flux_records()).expect("serialize trace");
    std::fs::write(trace, &buf).expect("write trace");
    std::fs::write(
        trace.with_extension("whois.json"),
        json::to_string_pretty(&flux_whois()),
    )
    .expect("write whois");
}

fn run_cli(
    trace: &Path,
    out_json: &Path,
    extra: &[&str],
    failpoints: Option<&str>,
) -> std::process::Output {
    let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_smash"));
    cmd.arg("analyze")
        .arg(trace)
        .arg("--whois")
        .arg(trace.with_extension("whois.json"))
        .arg("--json")
        .arg(out_json)
        .args(extra)
        .env_remove("SMASH_FAILPOINTS");
    if let Some(spec) = failpoints {
        cmd.env("SMASH_FAILPOINTS", spec);
    }
    cmd.output().expect("spawn smash binary")
}

fn canonical_file(path: &Path) -> String {
    let text = std::fs::read_to_string(path).expect("read report json");
    canonical_report_json(&text).expect("canonicalize report")
}

/// A written report's canonical JSON without `health.checkpoint_warnings`
/// — the one sanctioned difference between a cold run and a resume past
/// a corrupted snapshot — and the warnings it carried.
fn split_warnings(path: &Path) -> (String, Vec<String>) {
    let mut doc = json::parse(&canonical_file(path)).expect("parse canonical report");
    let mut warnings = Vec::new();
    if let Json::Obj(fields) = &mut doc {
        if let Some((_, Json::Obj(health))) = fields.iter_mut().find(|(k, _)| k == "health") {
            if let Some(at) = health.iter().position(|(k, _)| k == "checkpoint_warnings") {
                let (_, list) = health.remove(at);
                let items = list.as_arr().unwrap_or_default();
                warnings.extend(items.iter().filter_map(Json::as_str).map(str::to_owned));
            }
        }
    }
    (json::to_string(&doc), warnings)
}
