//! The `smash serve` robustness suite (DESIGN.md §13): the wire
//! protocol must survive arbitrary hostile bytes, hostile `INGEST`
//! payloads must be rejected-and-quarantined without wedging the mine
//! worker, backpressure must shed load past the epoch budget, and
//! — the chaos gate — a SIGKILL at *every* registered serve failpoint
//! followed by a restart must serve a valid snapshot that converges to
//! the no-crash answers.

mod common;

use common::{
    batch_membership, flux_lines, jsonl_line, locked, membership, reply, run_daemon, scratch,
};
use smash::serve::{CampaignService, Response, ServeOptions};
use smash::support::check::{cases, Gen, Shrink};
use smash::support::failpoint;
use smash::support::json::{self, FromJson};
use smash::trace::HttpRecord;
use std::io::Write as _;
use std::process::{Command, Stdio};
use std::sync::Mutex;

/// The failpoint registry is process-global; serialize every test that
/// arms it or runs a mine that could observe another test's fault.
static LOCK: Mutex<()> = Mutex::new(());

/// Prefix of this suite's scratch directories.
const SCRATCH: &str = "smash-serve";

/// Arbitrary bytes fed straight to the protocol parser. No shrinking:
/// every case is cheap and the seed replays it exactly.
#[derive(Debug, Clone)]
struct Hostile(Vec<u8>);
impl Shrink for Hostile {}

#[test]
fn protocol_parser_never_panics_on_arbitrary_bytes() {
    cases(512).run(
        |g: &mut Gen| {
            let len = g.range(0..2048usize);
            let mut bytes = g.vec(len..=len, |g| g.range(0..=255u32) as u8);
            // Half the cases get a valid verb prefix so the parser
            // reaches the argument layers instead of bailing on the
            // command word.
            if g.bool(0.5) {
                const VERBS: [&[u8]; 4] = [b"INGEST ", b"QUERY ", b"SEAL", b"STATS"];
                let verb = *g.pick(&VERBS);
                for (i, b) in verb.iter().enumerate() {
                    if let Some(slot) = bytes.get_mut(i) {
                        *slot = *b;
                    }
                }
            }
            Hostile(bytes)
        },
        |case: &Hostile| {
            // Any outcome but a panic is acceptable.
            let _ = smash::serve::protocol::parse_line(&case.0);
        },
    );
}

#[test]
fn hostile_ingest_is_rejected_quarantined_and_never_wedges_the_miner() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "hostile");
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("start");
    let mut conn = svc.connection();

    // Hostile payloads: truncated JSON, binary garbage, an invalid IP,
    // a record missing required fields. Each maps to a classed ERR.
    assert_eq!(reply(&mut conn, "INGEST {broken"), "ERR bad-json");
    assert_eq!(
        reply(&mut conn, "INGEST {\"server_ip\":\"999.1.2.3\"}"),
        "ERR bad-ip"
    );
    assert_eq!(reply(&mut conn, "INGEST {\"host\":\"x\"}"), "ERR bad-field");
    // 60 KB of `[`: under the 64 KiB wire cap, deeper than any stack.
    // Before the parser capped nesting this aborted the whole daemon.
    let deep = "[".repeat(60_000);
    assert_eq!(reply(&mut conn, &format!("INGEST {deep}")), "ERR bad-json");
    assert_eq!(reply(&mut conn, "PING"), "PONG");
    match conn.handle(b"INGEST \xff\xfe{\"host\"", false) {
        Response::Reply(r) => assert!(r.starts_with("ERR"), "binary garbage got: {r}"),
        other => panic!("binary garbage got: {other:?}"),
    }
    // Unknown verbs and missing arguments are classed too, not fatal.
    assert_eq!(reply(&mut conn, "FROBNICATE now"), "ERR unknown-command");
    assert_eq!(reply(&mut conn, "QUERY"), "ERR missing-arg server");
    // An oversized line (flagged by the bounded reader) is shed.
    match conn.handle(b"INGEST {}", true) {
        Response::Reply(r) => assert_eq!(r, "ERR oversized"),
        other => panic!("oversized got: {other:?}"),
    }
    // So is an over-cap line handed over whole: the protocol layer is
    // the one line cap, before any INGEST payload exists.
    let over_cap = format!(
        "INGEST {}",
        "x".repeat(smash::serve::protocol::MAX_LINE_BYTES)
    );
    assert_eq!(reply(&mut conn, &over_cap), "ERR oversized");
    // Every hostile payload landed in the quarantine sidecar.
    // Bytes, not a String: the binary-garbage line is in there too.
    let sidecar_bytes = std::fs::read(dir.join("quarantine.jsonl")).expect("sidecar");
    let sidecar = String::from_utf8_lossy(&sidecar_bytes);
    assert!(sidecar.contains("{broken"), "sidecar: {sidecar}");
    assert!(sidecar.contains("999.1.2.3"), "sidecar: {sidecar}");
    assert!(sidecar.contains(&deep), "the deep-nesting line is missing");
    assert!(svc.counter("serve/ingest/quarantined") >= 4);

    // The daemon is not wedged: a full valid epoch still ingests,
    // seals, mines, and answers queries.
    for line in flux_lines() {
        assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
    }
    let seal = reply(&mut conn, "SEAL");
    assert!(seal.starts_with("OK epoch=1"), "seal: {seal}");
    let wait = reply(&mut conn, "WAIT");
    assert_eq!(wait, "OK epoch=1");
    let hit = reply(&mut conn, "QUERY cc0.evil");
    assert!(hit.starts_with("HIT campaign="), "query: {hit}");
    assert!(hit.contains("size=8"), "flux herd size: {hit}");
    assert!(hit.contains("since=1"), "first-seen epoch: {hit}");
    assert_eq!(reply(&mut conn, "QUERY site0.com"), "MISS");

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_backpressure_sheds_with_busy_past_the_soft_budget() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "busy");
    let mut opts = ServeOptions::new(&dir);
    // A deliberately tiny epoch budget, held to the byte: a line is
    // refused exactly when it would carry the accepted payloads past it.
    const BUDGET: usize = 4096;
    opts.epoch_budget_bytes = BUDGET as u64;
    let svc = CampaignService::start(opts).expect("start");
    let mut conn = svc.connection();

    let lines = flux_lines();
    let (mut held, mut accepted, mut shed) = (0usize, 0usize, 0usize);
    let mut first_busy = None;
    for line in &lines {
        match reply(&mut conn, &format!("INGEST {line}")).as_str() {
            "OK" => {
                held += line.len();
                accepted += 1;
            }
            "BUSY" => {
                first_busy.get_or_insert((held, line.len()));
                shed += 1;
            }
            other => panic!("unexpected ingest reply: {other}"),
        }
    }
    assert!(accepted > 0, "nothing fit under a 4 KiB budget?");
    assert!(shed > 0, "nothing shed over a 4 KiB budget?");
    assert!(held <= BUDGET, "accepted {held} B over a {BUDGET} B budget");
    let (before, refused) = first_busy.expect("a BUSY line");
    assert!(
        before + refused > BUDGET,
        "BUSY at {before} B for a {refused} B line that fit the {BUDGET} B budget"
    );
    assert_eq!(svc.counter("serve/ingest/busy"), shed as u64);

    // Sealing frees the whole budget: lines up to the last that fits
    // are all accepted again.
    assert!(reply(&mut conn, "SEAL").starts_with("OK epoch=1"));
    let mut refill = 0usize;
    for line in lines.iter().cycle() {
        if refill + line.len() > BUDGET {
            break;
        }
        assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
        refill += line.len();
    }

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_mine_marks_the_epoch_failed_then_recovers() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "minefail");
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("start");
    let mut conn = svc.connection();

    // Every mine attempt dies at the failpoint: supervision retries,
    // exhausts, and marks the epoch failed — the daemon stays up.
    failpoint::arm("serve/mine", failpoint::Action::Error);
    for line in flux_lines() {
        assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
    }
    assert!(reply(&mut conn, "SEAL").starts_with("OK epoch=1"));
    let wait = reply(&mut conn, "WAIT");
    assert_eq!(wait, "ERR mine-failed epoch=1");
    assert_eq!(reply(&mut conn, "QUERY cc0.evil"), "MISS");
    assert!(svc.counter("serve/mine/restarts") >= 2, "retries consumed");

    // Self-healing: with the fault gone, the next sealed epoch mines
    // the full cumulative record set and publishes.
    failpoint::disarm_all();
    let late = HttpRecord::new(1, "bot1", "late.evil", "66.6.6.6", "/gate/login.php?p=1");
    let line = jsonl_line(&late);
    assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
    assert!(reply(&mut conn, "SEAL").starts_with("OK epoch=2"));
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=2");
    let hit = reply(&mut conn, "QUERY cc0.evil");
    assert!(hit.starts_with("HIT"), "post-recovery query: {hit}");

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// One daemon life on `dir`: the flux herd ingested, sealed as epoch 1,
/// mined and published, then a clean shutdown. Returns its `REPORT`.
fn one_published_epoch(dir: &std::path::Path) -> String {
    let svc = CampaignService::start(ServeOptions::new(dir)).expect("start");
    let mut conn = svc.connection();
    for line in flux_lines() {
        assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
    }
    assert!(reply(&mut conn, "SEAL").starts_with("OK epoch=1"));
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=1");
    let report_json = reply(&mut conn, "REPORT");
    svc.shutdown();
    report_json
}

#[test]
fn durable_snapshot_is_served_immediately_on_restart() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "restart");
    let report_json = one_published_epoch(&dir);
    // A clean restart serves the durable snapshot without re-mining:
    // the published epoch equals the sealed epoch from the start.
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("restart");
    let (sealed, published, failed) = svc.epochs();
    assert_eq!((sealed, published, failed), (1, 1, 0));
    let mut conn = svc.connection();
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=1");
    assert_eq!(reply(&mut conn, "REPORT"), report_json);
    let hit = reply(&mut conn, "QUERY cc0.evil");
    assert!(
        hit.contains("since=1"),
        "first-seen must survive restart: {hit}"
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_on_another_builds_files_recomputes_a_snapshot_but_refuses_a_wal() {
    use smash::serve::epoch::{wal_path, wal_stage};
    use smash::serve::snapshot::{SNAPSHOT_FILE, SNAPSHOT_STAGE};
    use smash::support::{ckpt, envelope};
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "foreign-version");
    let report_json = one_published_epoch(&dir);
    // The same file as the previous envelope version would carry it:
    // intact, checksummed for the version it names.
    let previous = ckpt::FORMAT_VERSION - 1;
    let reframe = |path: &std::path::Path, stage: &str| {
        let bytes = std::fs::read(path).expect("read");
        let payload = ckpt::parse_snapshot(&bytes, stage).expect("own file");
        let older = envelope::frame(ckpt::MAGIC, previous, stage, payload).expect("frame");
        std::fs::write(path, older).expect("rewrite");
    };

    // A snapshot is regenerable: refused by number, rebuilt from the WAL.
    reframe(&dir.join(SNAPSHOT_FILE), SNAPSHOT_STAGE);
    {
        let svc = CampaignService::start(ServeOptions::new(&dir)).expect("restart");
        let mut conn = svc.connection();
        assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=1");
        assert_eq!(reply(&mut conn, "REPORT"), report_json);
        svc.shutdown();
    }

    // A WAL is not: it is the only copy of an acknowledged epoch, so the
    // daemon says whose file it is and does not start — and does not
    // touch the file.
    let wal = wal_path(&dir, 1);
    reframe(&wal, &wal_stage(1));
    let before = std::fs::read(&wal).expect("read");
    let err = match CampaignService::start(ServeOptions::new(&dir)) {
        Ok(_) => panic!("started over a WAL of envelope version {previous}"),
        Err(e) => e.to_string(),
    };
    assert!(
        err.contains(&format!("format version {previous}"))
            && err.contains(&format!("reads version {}", ckpt::FORMAT_VERSION)),
        "{err}"
    );
    assert_eq!(std::fs::read(&wal).expect("read"), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `STATS`' `serve/arena/records` and `serve/arena/bytes` gauges.
fn arena_gauges(conn: &mut smash::serve::Connection) -> (f64, f64) {
    let stats = json::parse(&reply(conn, "STATS")).expect("STATS is JSON");
    let gauge = |name: &str| {
        stats
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(|v| f64::from_json(v).ok())
            .unwrap_or_else(|| panic!("gauge {name} missing: {stats:?}"))
    };
    (gauge("serve/arena/records"), gauge("serve/arena/bytes"))
}

#[test]
fn uneven_epochs_converge_on_the_sequential_batch_reference() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "reference");
    let mut lines = flux_lines();
    let reference = batch_membership(&lines);
    assert!(
        reference.iter().any(|c| c.len() == 8),
        "reference lost the planted herd: {reference:?}"
    );

    // The same lines as four uneven epochs. Epochs 2 and 3 are sealed
    // with no WAIT between them, and epoch 3's seal is held back until
    // epoch 2's mine is in flight (stalled at its failpoint), so that
    // mine is superseded mid-flight while the worker keeps appending
    // to the one arena.
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("start");
    let mut conn = svc.connection();
    let cuts = [0, 5, 60, 61, lines.len()];
    for (epoch, window) in cuts.windows(2).enumerate() {
        for line in &lines[window[0]..window[1]] {
            assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
        }
        if epoch == 1 {
            failpoint::arm("serve/mine", failpoint::Action::Delay(150));
        }
        let seal = reply(&mut conn, "SEAL");
        assert!(
            seal.starts_with(&format!("OK epoch={} ", epoch + 1)),
            "seal: {seal}"
        );
        if epoch == 1 {
            let patience = std::time::Instant::now();
            while svc.counter("serve/mine/started") < 2 {
                assert!(patience.elapsed().as_secs() < 60, "epoch 2 never mined");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        } else {
            failpoint::disarm_all();
            assert_eq!(reply(&mut conn, "WAIT"), format!("OK epoch={}", epoch + 1));
        }
    }
    assert_eq!(svc.counter("serve/mine/superseded"), 1);
    let live_report = reply(&mut conn, "REPORT");
    assert_eq!(membership(&live_report), reference);
    // The operator still sees the cumulative trace: the arena gauges
    // count every sealed record, absorbed exactly once.
    let live_arena = arena_gauges(&mut conn);
    assert_eq!(live_arena.0, lines.len() as f64);
    svc.shutdown();

    // Restart on the same data dir: the recovered snapshot answers at
    // once, byte for byte, and replay — one absorb of the whole WAL —
    // builds the arena the four live absorbs built.
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("restart");
    let mut conn = svc.connection();
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=4");
    assert_eq!(reply(&mut conn, "REPORT"), live_report);
    let patience = std::time::Instant::now();
    while svc.counter("serve/recovery/records_replayed") < lines.len() as u64 {
        assert!(patience.elapsed().as_secs() < 60, "the WAL never replayed");
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert_eq!(arena_gauges(&mut conn), live_arena);
    // One more epoch, mined over the replayed arena, still matches the
    // batch pipeline over everything.
    let late = HttpRecord::new(1, "bot1", "late.evil", "66.6.6.6", "/gate/login.php?p=1");
    lines.push(jsonl_line(&late));
    assert_eq!(
        reply(&mut conn, &format!("INGEST {}", lines[lines.len() - 1])),
        "OK"
    );
    assert!(reply(&mut conn, "SEAL").starts_with("OK epoch=5 "));
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=5");
    assert_eq!(
        membership(&reply(&mut conn, "REPORT")),
        batch_membership(&lines)
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_seal_after_a_skipped_wal_never_reuses_a_published_epoch() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "skipped-wal");
    one_published_epoch(&dir);
    // Disk rot in the newest WAL: replay skips it, but the snapshot
    // still serves epoch 1.
    let wal = smash::serve::epoch::wal_path(&dir, 1);
    let mut bytes = std::fs::read(&wal).expect("read WAL");
    *bytes.last_mut().expect("non-empty WAL") ^= 0x01;
    std::fs::write(&wal, bytes).expect("rot WAL");

    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("restart");
    assert_eq!(svc.counter("serve/recovery/wal_skipped"), 1);
    let mut conn = svc.connection();
    let late = HttpRecord::new(1, "bot1", "late.evil", "66.6.6.6", "/gate/login.php?p=1");
    assert_eq!(
        reply(&mut conn, &format!("INGEST {}", jsonl_line(&late))),
        "OK"
    );
    // A fresh number, so a real mine runs and WAIT waits for it.
    assert_eq!(reply(&mut conn, "SEAL"), "OK epoch=2 records=1");
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=2");
    assert_eq!(svc.counter("serve/mine/started"), 1);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_seals_mint_distinct_wal_epochs() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "seal-race");
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("start");
    let lines = flux_lines();

    // Hammer SEAL from many connections at once: epoch numbers are
    // minted under the state lock, so every acknowledged seal must land
    // in its own WAL file — a duplicate would silently overwrite an
    // acknowledged epoch and break replay.
    const THREADS: usize = 8;
    const ROUNDS: usize = 4;
    let minted: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let svc = svc.clone();
                let line = lines[t % lines.len()].clone();
                scope.spawn(move || {
                    let mut conn = svc.connection();
                    let mut seqs = Vec::new();
                    for _ in 0..ROUNDS {
                        assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
                        let seal = reply(&mut conn, "SEAL");
                        if let Some(rest) = seal.strip_prefix("OK epoch=") {
                            let seq = rest
                                .split_whitespace()
                                .next()
                                .and_then(|s| s.parse::<u64>().ok())
                                .unwrap_or_else(|| panic!("unparseable seal reply: {seal}"));
                            seqs.push(seq);
                        } else {
                            // Another thread's seal drained this one's
                            // ingest first; that line is sealed anyway.
                            assert_eq!(seal, "ERR empty-epoch", "seal: {seal}");
                        }
                    }
                    seqs
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("seal thread"))
            .collect()
    });

    // Distinct, gapless epoch numbers...
    let mut sorted = minted.clone();
    sorted.sort_unstable();
    let expect: Vec<u64> = (1..=minted.len() as u64).collect();
    assert_eq!(sorted, expect, "duplicate or skipped epoch numbers");
    // ...and the WAL holds every ingested line across those epochs: no
    // acknowledged epoch was overwritten by a racing seal.
    let replay = smash::serve::epoch::replay(&dir).expect("replay");
    assert!(replay.skipped.is_empty(), "skipped: {:?}", replay.skipped);
    let seqs: Vec<u64> = replay.epochs.iter().map(|e| e.seq).collect();
    assert_eq!(seqs, expect, "WAL files diverge from acknowledged seals");
    let total: usize = replay.epochs.iter().map(|e| e.lines.len()).sum();
    assert_eq!(total, THREADS * ROUNDS, "ingested lines lost from the WAL");

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wait_after_shutdown_answers_immediately() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "wait-shutdown");
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("start");
    svc.shutdown();
    // A draining service must answer parked-or-new WAITs right away
    // (never sit out the 120 s protocol timeout while the transport
    // waits to join the connection's thread).
    let mut conn = svc.connection();
    let start = std::time::Instant::now();
    assert_eq!(reply(&mut conn, "WAIT"), "ERR shutdown");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "WAIT blocked on a shut-down service"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_reports_query_and_mine_latency() {
    let _g = locked(&LOCK);
    failpoint::disarm_all();
    let dir = scratch(SCRATCH, "latency");
    let svc = CampaignService::start(ServeOptions::new(&dir)).expect("start");
    let mut conn = svc.connection();
    for line in flux_lines() {
        assert_eq!(reply(&mut conn, &format!("INGEST {line}")), "OK");
    }
    assert!(reply(&mut conn, "SEAL").starts_with("OK epoch=1 "));
    assert_eq!(reply(&mut conn, "WAIT"), "OK epoch=1");
    const QUERIES: u64 = 37;
    for i in 0..QUERIES {
        let server = if i % 2 == 0 { "cc0.evil" } else { "site0.com" };
        reply(&mut conn, &format!("QUERY {server}"));
    }
    let stats = json::parse(&reply(&mut conn, "STATS")).expect("STATS is JSON");
    let field = |kind: &str, name: &str| {
        stats
            .get("latency")
            .and_then(|l| l.get(kind))
            .and_then(|h| h.get(name))
            .and_then(|v| f64::from_json(v).ok())
            .unwrap_or_else(|| panic!("latency.{kind}.{name} missing: {stats:?}"))
    };
    assert_eq!(field("query", "count"), QUERIES as f64);
    assert!(field("query", "p50_us") > 0.0);
    assert!(field("query", "p50_us") <= field("query", "p99_us"));
    // One seal, one publish that made it visible.
    assert_eq!(field("mine", "count"), 1.0);
    assert!(field("mine", "p50_us") <= field("mine", "p99_us"));
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Spawns `smash serve` on an ephemeral TCP port with `failpoints`
/// armed in its environment; returns the child and the bound address.
fn spawn_tcp_daemon(data_dir: &std::path::Path, failpoints: &str) -> (std::process::Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_smash"));
    cmd.args(["serve", "--addr", "127.0.0.1:0", "--data-dir"])
        .arg(data_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
    if failpoints.is_empty() {
        cmd.env_remove("SMASH_FAILPOINTS");
    } else {
        cmd.env("SMASH_FAILPOINTS", failpoints);
    }
    let mut child = cmd.spawn().expect("spawn smash serve");
    let mut stdout = child.stdout.take().expect("stdout piped");
    let addr = {
        use std::io::Read as _;
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while stdout.read(&mut byte).expect("read LISTENING") == 1 && byte[0] != b'\n' {
            line.push(byte[0]);
        }
        String::from_utf8(line)
            .expect("LISTENING line utf-8")
            .strip_prefix("LISTENING ")
            .expect("LISTENING prefix")
            .trim()
            .to_owned()
    };
    (child, addr)
}

#[test]
fn pipelined_tcp_replies_arrive_before_a_parked_wait_and_in_order() {
    use std::io::BufRead as _;
    let dir = scratch(SCRATCH, "tcp-coalesce");
    // Every mine attempt sleeps first, so WAIT stays parked for seconds.
    let (mut child, addr) = spawn_tcp_daemon(&dir, "serve/mine=delay:2000");
    let lines = flux_lines();
    let mut script = String::new();
    for line in &lines {
        script.push_str(&format!("INGEST {line}\n"));
    }
    script.push_str("SEAL\nWAIT\nQUERY cc0.evil\n");

    let mut client = std::net::TcpStream::connect(&addr).expect("connect");
    client
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .expect("read timeout");
    client
        .write_all(script.as_bytes())
        .expect("one pipelined write");
    let mut replies = std::io::BufReader::new(client.try_clone().expect("clone"));
    let mut next = || {
        let mut reply = String::new();
        replies.read_line(&mut reply).expect("reply line");
        reply.trim_end().to_owned()
    };
    // The k INGEST acks and the SEAL ack must not wait behind WAIT...
    for _ in &lines {
        assert_eq!(next(), "OK");
    }
    let seal = next();
    assert!(seal.starts_with("OK epoch=1 records="), "seal: {seal}");
    // ...which is provably still parked: nothing is published yet.
    let mut probe = std::net::TcpStream::connect(&addr).expect("probe connect");
    probe.write_all(b"STATS\n").expect("send STATS");
    let mut stats = String::new();
    std::io::BufReader::new(&probe)
        .read_line(&mut stats)
        .expect("STATS reply");
    let stats = json::parse(&stats).expect("STATS is JSON");
    let published = stats.get("published").and_then(|v| u64::from_json(v).ok());
    assert_eq!(published, Some(0), "mine finished before the acks arrived");
    // Then exactly one reply per remaining request, in request order.
    assert_eq!(next(), "OK epoch=1");
    let hit = next();
    assert!(hit.starts_with("HIT campaign="), "query: {hit}");
    client.write_all(b"SHUTDOWN\n").expect("send SHUTDOWN");
    assert_eq!(next(), "OK");
    assert_eq!(next(), "", "a reply beyond the requests sent");
    let status = child.wait().expect("daemon exit");
    assert!(status.success(), "daemon exited uncleanly: {status:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tcp_shutdown_exits_despite_idle_connected_client() {
    let dir = scratch(SCRATCH, "tcp-idle");
    let (mut child, addr) = spawn_tcp_daemon(&dir, "");

    // This client connects and then never sends a byte: its connection
    // thread must not park the daemon's exit in a blocking read.
    let idle = std::net::TcpStream::connect(&addr).expect("idle connect");
    let mut driver = std::net::TcpStream::connect(&addr).expect("driver connect");
    driver.write_all(b"SHUTDOWN\n").expect("send SHUTDOWN");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "daemon exited uncleanly: {status:?}");
            break;
        }
        if std::time::Instant::now() >= deadline {
            let _ = child.kill();
            panic!("daemon did not exit while an idle client stayed connected");
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    drop(idle);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Chaos gate: SIGKILL at every serve failpoint, then restart.
// ---------------------------------------------------------------------

/// The full golden script: ingest the flux day, seal, wait for the
/// publish, query a planted member, dump the report.
fn golden_script() -> String {
    let mut script = String::new();
    for line in flux_lines() {
        script.push_str("INGEST ");
        script.push_str(&line);
        script.push('\n');
    }
    script.push_str("SEAL\nWAIT\nQUERY cc0.evil\nREPORT\nSHUTDOWN\n");
    script
}

/// The post-crash probe: wait for recovery mining (a no-op when the
/// snapshot is already durable), then ask the same questions.
const PROBE: &str = "WAIT\nQUERY cc0.evil\nREPORT\nSHUTDOWN\n";

fn answers(lines: &[String]) -> (String, String) {
    let hit = lines
        .iter()
        .find(|l| l.starts_with("HIT "))
        .unwrap_or_else(|| panic!("no HIT in replies: {lines:?}"))
        .clone();
    let report = lines
        .iter()
        .find(|l| l.starts_with('['))
        .unwrap_or_else(|| panic!("no REPORT in replies: {lines:?}"))
        .clone();
    (hit, report)
}

#[test]
fn sigkill_at_every_failpoint_recovers_to_the_no_crash_answers() {
    // The no-crash run is the golden truth.
    let golden_dir = scratch(SCRATCH, "chaos-golden");
    let (golden_lines, clean) = run_daemon(&golden_dir, &golden_script(), "");
    assert!(clean, "golden run must exit cleanly: {golden_lines:?}");
    let (golden_hit, golden_report) = answers(&golden_lines);
    assert!(golden_hit.contains("size=8"), "golden: {golden_hit}");
    let _ = std::fs::remove_dir_all(&golden_dir);

    // Abort (the SIGKILL stand-in: no destructors, no flushes) at each
    // registered failpoint boundary in turn.
    for site in ["serve/after/seal", "serve/mine", "serve/after/publish"] {
        let dir = scratch(SCRATCH, &format!("chaos-{}", site.replace('/', "-")));
        let (_lines, clean) = run_daemon(&dir, &golden_script(), &format!("{site}=abort"));
        assert!(!clean, "{site}=abort did not kill the daemon");

        // Restart with no faults: the WAL replays, the miner converges,
        // and the answers are byte-identical to the no-crash run.
        let (lines, clean) = run_daemon(&dir, PROBE, "");
        assert!(clean, "restart after {site} crash failed: {lines:?}");
        let (hit, report) = answers(&lines);
        assert_eq!(hit, golden_hit, "diverged after {site} crash");
        assert_eq!(report, golden_report, "diverged after {site} crash");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
