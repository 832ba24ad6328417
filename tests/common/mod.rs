//! Fixtures shared by the root suites that plant the same C&C flux herd
//! (`checkpoint.rs`, `fault_injection.rs`, `governor.rs`, `serve.rs`).
//! Each suite compiles this module on its own and uses a subset.
#![allow(dead_code)]

use smash::core::SmashReport;
use smash::trace::{HttpRecord, TraceDataset};
use smash::whois::{WhoisRecord, WhoisRegistry};
use std::path::PathBuf;
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
