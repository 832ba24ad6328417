//! Durability suite for the daemon's on-disk state (DESIGN.md §9,
//! §13.4): the epoch WAL and the published `snapshot.ckpt`.
//!
//! Four promises, each beyond what `tests/serve.rs` checks:
//!
//! 1. **A restart is invisible** — after several uneven epochs and a
//!    clean shutdown, a restart on the intact data dir and a WAL-only
//!    rebuild (snapshot deleted) both answer `REPORT` byte for byte as
//!    before, and that answer is the batch pipeline's over every sealed
//!    line.
//! 2. **A crash in a later epoch is survivable** — with epoch 1
//!    published and durable, the daemon is killed (`abort`, uncatchable)
//!    at every serve failpoint while it takes in epoch 2; the restart
//!    answers `QUERY` (first-seen epochs included) and `REPORT` exactly
//!    as a run that never crashed.
//! 3. **No corruption can poison a restart** — a property test flips or
//!    truncates one seeded byte of the snapshot or of one WAL file: the
//!    daemon never panics, recomputes a damaged snapshot from the WAL,
//!    skips a damaged WAL without reusing its epoch number, and refuses
//!    to start over a WAL that now names another format version.
//! 4. **Durability has no switch to forget** — `smash serve` without a
//!    data dir, and `smash analyze` with a batch resume flag, are usage
//!    errors.

mod common;

use common::{
    batch_membership, flux_lines, jsonl_line, locked, membership, reply, run_daemon, scratch,
};
use smash::serve::epoch::wal_path;
use smash::serve::snapshot::SNAPSHOT_FILE;
use smash::serve::{CampaignService, ServeOptions};
use smash::support::check::cases;
use smash::support::failpoint;
use smash::trace::HttpRecord;
use std::path::Path;
use std::sync::Mutex;

/// The failpoint registry is process-global; serialize the tests that
/// run an in-process mine.
static LOCK: Mutex<()> = Mutex::new(());

/// Prefix of this suite's scratch directories.
const SCRATCH: &str = "smash-durability-test";

/// A second epoch's lines: every bot reaches one more gate server on
/// the herd's IP, so the herd grows by a member first seen in epoch 2.
fn late_lines() -> Vec<String> {
    ["bot1", "bot2", "bot3"]
        .iter()
        .map(|bot| {
            jsonl_line(
                &HttpRecord::new(1, bot, "late.evil", "66.6.6.6", "/gate/login.php?p=1")
                    .with_user_agent("BotAgent"),
            )
        })
        .collect()
}

/// Ingests `lines`, seals them, and waits for their epoch to publish.
fn seal_epoch(conn: &mut smash::serve::Connection, lines: &[String], epoch: u64) {
    for line in lines {
        assert_eq!(reply(conn, &format!("INGEST {line}")), "OK");
    }
    assert!(reply(conn, "SEAL").starts_with(&format!("OK epoch={epoch} ")));
    assert_eq!(reply(conn, "WAIT"), format!("OK epoch={epoch}"));
}

/// A restarted daemon's `REPORT` once it has caught up to `epoch`.
fn report_after_restart(dir: &Path, epoch: u64) -> String {
    let svc = CampaignService::start(ServeOptions::new(dir)).expect("restart");
    let mut conn = svc.connection();
    assert_eq!(reply(&mut conn, "WAIT"), format!("OK epoch={epoch}"));
    let report = reply(&mut conn, "REPORT");
    svc.shutdown();
    report
}

#[test]
fn clean_resume_is_byte_identical_to_cold_and_plain_runs() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "clean");
    let mut lines = flux_lines();
    lines.extend(late_lines());

    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("start");
    let mut conn = svc.connection();
    let cuts = [0, 7, 80, lines.len()];
    for (epoch, window) in cuts.windows(2).enumerate() {
        seal_epoch(&mut conn, &lines[window[0]..window[1]], epoch as u64 + 1);
    }
    let live = reply(&mut conn, "REPORT");
    svc.shutdown();
    assert_eq!(membership(&live), batch_membership(&lines));
    assert!(
        membership(&live).iter().any(|c| c.len() == 9),
        "the herd with its late member is missing: {live}"
    );

    // The intact data dir: the durable snapshot answers.
    assert_eq!(report_after_restart(&dir, 3), live);
    // The WAL alone: three epochs replayed in one absorb, mined once.
    std::fs::remove_file(dir.join(SNAPSHOT_FILE)).expect("delete snapshot");
    assert_eq!(report_after_restart(&dir, 3), live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `lines` as `INGEST` requests, then `SEAL`, `WAIT` and `SHUTDOWN`.
fn epoch_script(lines: &[String]) -> String {
    let mut script: String = lines.iter().map(|l| format!("INGEST {l}\n")).collect();
    script.push_str("SEAL\nWAIT\nSHUTDOWN\n");
    script
}

/// What a restarted daemon is asked once it has caught up.
const PROBE: &str = "WAIT\nQUERY cc0.evil\nQUERY late.evil\nREPORT\nSHUTDOWN\n";

/// Kill the daemon with `abort` (uncatchable — no unwinding, no flush)
/// at each serve failpoint while epoch 2 goes in over a durable epoch
/// 1, restart it, and require the answers of a daemon that never
/// crashed.
#[test]
fn crash_at_every_stage_boundary_resumes_to_the_cold_report() {
    let epoch1 = epoch_script(&flux_lines());
    let epoch2 = epoch_script(&late_lines());
    let two_lives = |dir: &Path, failpoints: &str| {
        let (lines, clean) = run_daemon(dir, &epoch1, "");
        assert!(clean, "epoch 1 life failed: {lines:?}");
        assert_eq!(lines.last().map(String::as_str), Some("OK"));
        run_daemon(dir, &epoch2, failpoints)
    };

    let golden_dir = scratch(SCRATCH, "crash-golden");
    let (lines, clean) = two_lives(&golden_dir, "");
    assert!(clean, "epoch 2 life failed: {lines:?}");
    let (golden, clean) = run_daemon(&golden_dir, PROBE, "");
    assert!(clean, "golden probe failed: {golden:?}");
    assert_eq!(golden.first().map(String::as_str), Some("OK epoch=2"));
    let hits: Vec<&String> = golden.iter().filter(|l| l.starts_with("HIT ")).collect();
    assert_eq!(hits.len(), 2, "golden: {golden:?}");
    assert!(hits[0].contains("since=1"), "golden: {golden:?}");
    assert!(hits[1].contains("since=2"), "golden: {golden:?}");
    let _ = std::fs::remove_dir_all(&golden_dir);

    for site in ["serve/after/seal", "serve/mine", "serve/after/publish"] {
        let dir = scratch(SCRATCH, &format!("crash-{}", site.replace('/', "-")));
        let (_lines, clean) = two_lives(&dir, &format!("{site}=abort"));
        assert!(!clean, "{site}=abort did not kill the daemon");
        let (probe, clean) = run_daemon(&dir, PROBE, "");
        assert!(clean, "restart after a {site} crash failed: {probe:?}");
        assert_eq!(probe, golden, "diverged after a {site} crash in epoch 2");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Damage one byte — flip a bit, or cut the file there — of the
/// snapshot or of one WAL file of a two-epoch data dir, then restart.
#[test]
fn corrupted_snapshot_always_recomputes_never_panics_or_lies() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let pristine = scratch(SCRATCH, "corrupt-src");
    let svc = CampaignService::start(ServeOptions::new(&pristine)).expect("start");
    let mut conn = svc.connection();
    seal_epoch(&mut conn, &flux_lines(), 1);
    seal_epoch(&mut conn, &late_lines(), 2);
    let reference = reply(&mut conn, "REPORT");
    svc.shutdown();

    let files: Vec<(String, Vec<u8>)> = [
        pristine.join(SNAPSHOT_FILE),
        wal_path(&pristine, 1),
        wal_path(&pristine, 2),
    ]
    .iter()
    .map(|path| {
        let name = path.file_name().expect("file name");
        let bytes = std::fs::read(path).expect("read pristine file");
        (name.to_string_lossy().into_owned(), bytes)
    })
    .collect();
    let late = jsonl_line(&HttpRecord::new(
        2,
        "bot2",
        "later.evil",
        "66.6.6.6",
        "/gate/login.php?p=1",
    ));

    cases(48).run(
        |g| {
            let which = g.range(0..files.len());
            let offset = g.range(0..files[which].1.len());
            let truncate = g.bool(0.25);
            let mask = 1u8 << g.range(0..8u32);
            (which, offset, truncate, mask)
        },
        |&(which, offset, truncate, mask)| {
            let dir = scratch(SCRATCH, "corrupt-case");
            for (i, (name, bytes)) in files.iter().enumerate() {
                let mut bytes = bytes.clone();
                if i == which {
                    if truncate {
                        bytes.truncate(offset);
                    } else {
                        bytes[offset] ^= mask;
                    }
                }
                std::fs::write(dir.join(name), bytes).expect("write case file");
            }
            let (name, _) = &files[which];
            let started = CampaignService::start(ServeOptions::new(&dir));
            if name.ends_with(".wal") && !truncate && (8..12).contains(&offset) {
                // The flip left an intact-looking envelope of another
                // format version: acknowledged epochs are not dropped
                // with a warning, so the start-up fails closed.
                let err = started.expect_err("started over a foreign-version WAL");
                assert!(err.to_string().contains("format version"), "{err}");
                let _ = std::fs::remove_dir_all(&dir);
                return;
            }
            let svc = started.expect("a damaged file never stops the start-up");
            let mut conn = svc.connection();
            if name == SNAPSHOT_FILE {
                // Rebuilt from the WAL: the same campaigns, re-mined.
                assert_eq!(svc.counter("serve/recovery/snapshot_invalid"), 1);
                assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=2");
                assert_eq!(reply(&mut conn, "REPORT"), reference);
            } else {
                // The snapshot still answers; the next seal mints a
                // number no published epoch has had.
                assert_eq!(svc.counter("serve/recovery/wal_skipped"), 1);
                assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=2");
                assert_eq!(reply(&mut conn, "REPORT"), reference);
                assert_eq!(reply(&mut conn, &format!("INGEST {late}")), "OK");
                assert_eq!(reply(&mut conn, "SEAL"), "OK epoch=3 records=1");
                assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=3");
            }
            svc.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        },
    );
    let _ = std::fs::remove_dir_all(&pristine);
}

#[test]
fn resume_flags_without_a_directory_are_usage_errors() {
    let smash = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_smash"))
            .args(args)
            .env_remove("SMASH_FAILPOINTS")
            .output()
            .expect("spawn smash binary")
    };
    let out = smash(&["serve", "--stdio"]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "serve without a data dir: {out:?}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--data-dir"), "got: {stderr}");

    // Batch analyze keeps no durable state: a script that still asks
    // for it fails loudly instead of running unprotected.
    let root = scratch(SCRATCH, "usage");
    let trace = root.join("trace.jsonl");
    std::fs::write(&trace, flux_lines().join("\n")).expect("write trace");
    let trace = trace.to_string_lossy().into_owned();
    let dir = root.to_string_lossy().into_owned();
    for flags in [
        &["--checkpoint-dir", dir.as_str()][..],
        &["--resume"],
        &["--no-checkpoint"],
    ] {
        let out = smash(&[&["analyze", trace.as_str()][..], flags].concat());
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{}`", flags[0])),
            "{flags:?} got: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}
