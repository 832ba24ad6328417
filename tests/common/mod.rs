//! Fixtures shared by the root suites that plant the same C&C flux herd
//! (`checkpoint.rs`, `fault_injection.rs`, `governor.rs`, `serve.rs`),
//! and the daemon drivers the three `smash serve` suites share. Each
//! suite compiles this module on its own and uses a subset.
#![allow(dead_code)]

use smash::core::{Smash, SmashConfig, SmashReport};
use smash::serve::{Connection, Response};
use smash::support::json::{self, ToJson};
use smash::trace::io::{self, decode_record_line};
use smash::trace::{HttpRecord, TraceDataset};
use smash::whois::{WhoisRecord, WhoisRegistry};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Takes a suite's `LOCK`. The failpoint registry is process-global, so
/// each suite serializes the tests that arm it or could observe an armed
/// spec; a test that panicked while holding the lock must not fail the
/// rest of its suite.
pub fn locked(lock: &'static Mutex<()>) -> MutexGuard<'static, ()> {
    lock.lock().unwrap_or_else(|e| e.into_inner())
}

/// A fresh `<prefix>-<pid>-<tag>-<n>` directory under the system tempdir,
/// unique per call so parallel tests never share state.
pub fn scratch(prefix: &str, tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("{prefix}-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The planted C&C flux herd: 3 bots hammering 8 `.evil` domains that
/// share an IP and a gate script, over benign background traffic —
/// strong in every secondary dimension, so losing any one (or two)
/// still leaves enough signal to recover it.
pub fn flux_records() -> Vec<HttpRecord> {
    let mut records = Vec::new();
    let bots = ["bot1", "bot2", "bot3"];
    for bot in bots {
        for d in 0..8 {
            records.push(
                HttpRecord::new(
                    0,
                    bot,
                    &format!("cc{d}.evil"),
                    "66.6.6.6",
                    "/gate/login.php?p=1",
                )
                .with_user_agent("BotAgent"),
            );
        }
    }
    for s in 0..30 {
        for c in 0..6 {
            records.push(HttpRecord::new(
                0,
                &format!("user{}", (s * 3 + c) % 40),
                &format!("site{s}.com"),
                &format!("23.0.0.{s}"),
                &format!("/page{c}.html"),
            ));
        }
    }
    for bot in bots {
        for s in 0..5 {
            records.push(HttpRecord::new(
                0,
                bot,
                &format!("site{s}.com"),
                &format!("23.0.0.{s}"),
                "/index.html",
            ));
        }
    }
    records
}

/// [`flux_records`], interned.
pub fn flux_trace() -> TraceDataset {
    TraceDataset::from_records(flux_records())
}

/// Whois twin of the flux trace: the 8 C&C domains share one registrant
/// identity (one nameserver, one email), each benign site has its own —
/// so the whois dimension alone can still tie the herd together when
/// both other secondaries are dead.
pub fn flux_whois() -> WhoisRegistry {
    let mut reg = WhoisRegistry::new();
    for d in 0..8 {
        reg.insert(
            &format!("cc{d}.evil"),
            WhoisRecord::new()
                .with_registrant("Evil Holdings")
                .with_email("ops@evil.example")
                .with_phone("666")
                .with_name_server("ns1.evil.example"),
        );
    }
    for s in 0..30 {
        reg.insert(
            &format!("site{s}.com"),
            WhoisRecord::new()
                .with_registrant(&format!("Site {s} LLC"))
                .with_email(&format!("admin@site{s}.com"))
                .with_name_server(&format!("ns{s}.hosting.example")),
        );
    }
    reg
}

/// `true` when the 8-server `.evil` flux campaign was recovered intact.
pub fn flux_recovered(report: &SmashReport) -> bool {
    report.campaigns.iter().any(|c| {
        c.contains_server("cc0.evil")
            && c.server_count() == 8
            && c.servers.iter().all(|s| s.ends_with(".evil"))
    })
}

/// The planted flux herd as raw JSONL lines.
pub fn flux_lines() -> Vec<String> {
    let mut buf = Vec::new();
    io::write_jsonl(&mut buf, &flux_records()).expect("encode flux records");
    String::from_utf8(buf)
        .expect("jsonl is utf-8")
        .lines()
        .map(str::to_owned)
        .collect()
}

/// One record as its JSONL wire line.
pub fn jsonl_line(record: &HttpRecord) -> String {
    let mut buf = Vec::new();
    io::write_jsonl(&mut buf, std::slice::from_ref(record)).expect("encode");
    String::from_utf8(buf).expect("utf-8").trim_end().to_owned()
}

/// The reply an in-process connection gives to one request line.
pub fn reply(conn: &mut Connection, line: &str) -> String {
    match conn.handle(line.as_bytes(), false) {
        Response::Reply(r) | Response::Shutdown(r) => r.into_owned(),
        Response::Quiet => String::new(),
    }
}

/// Sorted member lists of a campaign list: what "the same campaigns"
/// means when the daemon's `REPORT` is held against the batch pipeline.
pub fn membership(campaigns_json: &str) -> Vec<Vec<String>> {
    let parsed = json::parse(campaigns_json).expect("campaign list parses");
    let mut out: Vec<Vec<String>> = parsed
        .as_arr()
        .expect("campaign list is an array")
        .iter()
        .map(|campaign| {
            let servers = campaign.get("servers").and_then(json::Json::as_arr);
            let mut names: Vec<String> = servers
                .expect("campaign has a server list")
                .iter()
                .map(|s| s.as_str().expect("server name is a string").to_owned())
                .collect();
            names.sort();
            names
        })
        .collect();
    out.sort();
    out
}

/// The sequential reference: campaign membership from the batch
/// pipeline over one-shot interning of every accepted line.
pub fn batch_membership(lines: &[String]) -> Vec<Vec<String>> {
    let records = lines
        .iter()
        .map(|l| decode_record_line(l.as_bytes()).expect("accepted line decodes"));
    let batch = Smash::new(SmashConfig::default())
        .run(&TraceDataset::from_records(records), &WhoisRegistry::new());
    membership(&json::to_string(&batch.campaigns.to_json()))
}

/// Runs `smash serve --stdio` as a subprocess over `script`, with
/// `failpoints` armed in its environment, and returns
/// `(reply lines, clean exit)`.
pub fn run_daemon(data_dir: &Path, script: &str, failpoints: &str) -> (Vec<String>, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smash"));
    cmd.args(["serve", "--stdio", "--data-dir"])
        .arg(data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if failpoints.is_empty() {
        cmd.env_remove("SMASH_FAILPOINTS");
    } else {
        cmd.env("SMASH_FAILPOINTS", failpoints);
    }
    let mut child = cmd.spawn().expect("spawn smash serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_bytes())
        .expect("write script");
    let out = child.wait_with_output().expect("daemon exit");
    let lines = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_owned)
        .collect();
    (lines, out.status.success())
}
