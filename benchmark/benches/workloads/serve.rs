//! `serve_epochs`: the daemon's whole life over TCP.
//!
//! Connection A is a closed loop — `INGEST` in windows of 128 lines in
//! flight, then `SEAL`, `WAIT`, ten times. Connection B is an open
//! loop — 1 000 `QUERY`/s for planted servers from the first publish to
//! the last, each query timed from the moment it was *due*, so a stall
//! is charged to every query queued behind it. Then `SHUTDOWN`, and
//! three restarts timed from process start to the first `HIT`.

use super::layers;
use super::{
    finish_end_to_end, finish_traced, timed_setups, traced_loop, Checks, Deadline, Options,
    ITERATION, PROBE,
};
use crate::inputs::{self, Shape};
use crate::metrics::{RunResult, Samples};
use crate::proc::{self, Launched, Usage};
use crate::stats;
use crate::trace::{self, Tracer};
use smash_core::{Smash, SmashConfig};
use smash_serve::{epoch, protocol, CampaignService, ServeOptions, ServeSnapshot, WaitOutcome};
use smash_support::json;
use smash_synth::stream::StreamScenario;
use smash_trace::io::decode_record_line;
use smash_trace::{HttpRecord, TraceDataset};
use smash_whois::WhoisRegistry;
use std::fs;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Epochs per daemon life.
const EPOCHS: usize = 10;
/// `INGEST` lines in flight on connection A.
const WINDOW: usize = 128;
/// Open-loop query rate on connection B.
const QUERY_RATE_HZ: f64 = 1_000.0;
/// Restarts timed after the last life.
const RECOVERIES: usize = 3;
/// In-process lookups timed per iteration of the traced pass.
const LOOKUPS: usize = 200_000;

/// The open loop's schedule: request `k` is due at `origin + k·period`,
/// whatever happened to the requests before it.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    origin: Instant,
    period: Duration,
}

impl OpenLoop {
    /// A schedule of `rate_hz` requests per second starting at `origin`.
    pub fn new(origin: Instant, rate_hz: f64) -> Self {
        Self {
            origin,
            period: Duration::from_secs_f64(1.0 / rate_hz),
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: u64) -> Instant {
        // From the origin, not from the previous request: a late request
        // must not push the rest of the schedule back.
        self.origin + self.period.mul_f64(k as f64)
    }
}

/// Latency (due → reply) and generator lateness (due → sent), in µs.
pub fn open_loop_timing(due: Instant, sent: Instant, replied: Instant) -> (f64, f64) {
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    (
        us(replied.saturating_duration_since(due)),
        us(sent.saturating_duration_since(due)),
    )
}

/// Operations attempted and failed on the wire.
#[derive(Debug, Default, Clone, Copy)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A running `smash serve` (under a launcher) and the address it
/// listens on. Dropped without [`Daemon::shutdown`] (an error path), it
/// is killed and reaped: the benchmark never leaves a process behind.
struct Daemon {
    process: Launched,
    addr: String,
    // Held so the daemon's stdout stays open for its whole life.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Spawns the daemon with default flags on `dir` and waits for its
    /// `LISTENING <addr>` line.
    fn start(smash: &Path, dir: &Path) -> io::Result<Daemon> {
        let mut cmd = Command::new(smash);
        cmd.arg("serve")
            .arg("--data-dir")
            .arg(dir)
            .args(["--addr", "127.0.0.1:0"]);
        // The usage file goes beside the data directory, not into it.
        let beside = dir.parent().unwrap_or(dir);
        let mut process = Launched::spawn(beside, &cmd, Stdio::piped())?;
        let mut stdout = BufReader::new(process.stdout().expect("daemon stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("LISTENING ") {
            Some(addr) => Ok(Daemon {
                process,
                addr: addr.to_owned(),
                _stdout: stdout,
            }),
            None => Err(io::Error::other(format!(
                "daemon said `{}` instead of LISTENING",
                line.trim()
            ))),
        }
    }

    /// Sends `SHUTDOWN` over `conn` and reaps the daemon.
    fn shutdown(self, conn: &mut Client, ops: &mut Ops) -> io::Result<Usage> {
        let reply = conn.request("SHUTDOWN")?;
        ops.record(reply == "OK");
        self.process.finish()
    }
}

/// One protocol connection: a request line out, a reply line back.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    reply: String,
}

impl Client {
    fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // Longer than the daemon's own 120 s WAIT timeout: a stuck
        // daemon fails the run instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(150)))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            reply: String::new(),
        })
    }

    fn read_reply(&mut self) -> io::Result<&str> {
        self.reply.clear();
        if self.reader.read_line(&mut self.reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(self.reply.trim_end())
    }

    fn request(&mut self, line: &str) -> io::Result<&str> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.read_reply()
    }

    /// `INGEST`s `lines` with up to [`WINDOW`] requests in flight.
    fn ingest(&mut self, lines: &[String], ops: &mut Ops) -> io::Result<()> {
        let mut batch = Vec::with_capacity(WINDOW * 256);
        for window in lines.chunks(WINDOW) {
            batch.clear();
            for line in window {
                batch.extend_from_slice(b"INGEST ");
                batch.extend_from_slice(line.as_bytes());
                batch.push(b'\n');
            }
            self.writer.write_all(&batch)?;
            for _ in window {
                let ok = self.read_reply()? == "OK";
                ops.record(ok);
            }
        }
        Ok(())
    }
}

/// What connection B measured.
#[derive(Debug, Default)]
struct QueryLog {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    ops: Ops,
}

/// The open-loop query generator: waits for `go`, then queries the
/// current `targets` round-robin on schedule until `stop`.
fn query_loop(
    addr: &str,
    targets: &Mutex<Vec<String>>,
    go: &AtomicBool,
    stop: &AtomicBool,
) -> io::Result<QueryLog> {
    let mut conn = Client::connect(addr)?;
    let mut log = QueryLog::default();
    while !go.load(Ordering::Acquire) {
        if stop.load(Ordering::Acquire) {
            return Ok(log);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let schedule = OpenLoop::new(Instant::now(), QUERY_RATE_HZ);
    for k in 0u64.. {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let due = schedule.due(k);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let target = {
            let targets = targets.lock().expect("target list not poisoned");
            targets[k as usize % targets.len()].clone()
        };
        let sent = Instant::now();
        // A reply that never comes (read timeout) is a failed query.
        let hit = conn
            .request(&format!("QUERY {target}"))
            .is_ok_and(|reply| reply.starts_with("HIT "));
        let (latency, late) = open_loop_timing(due, sent, Instant::now());
        log.latency_us.push(latency);
        log.late_us.push(late);
        log.ops.record(hit);
    }
    Ok(log)
}

/// Server lists of the campaigns in a `REPORT` reply.
fn report_campaigns(reply: &str) -> Vec<Vec<String>> {
    layers::campaign_lists(json::parse(reply).ok().as_ref())
}

/// Campaign membership with order taken out: sorted lists, sorted.
fn membership(mut campaigns: Vec<Vec<String>>) -> Vec<Vec<String>> {
    for c in &mut campaigns {
        c.sort();
    }
    campaigns.sort();
    campaigns
}

/// What one daemon life measured.
struct Life {
    /// Per epoch: first `INGEST` sent → last `OK` read.
    ingest_s: Vec<f64>,
    /// Per epoch: `SEAL` sent → `WAIT` answered.
    seal_publish_s: Vec<f64>,
    queries: QueryLog,
    daemon: Usage,
    ops: Ops,
    campaigns: Vec<Vec<String>>,
    /// A planted server and the `HIT` line it got before `SHUTDOWN`.
    hit: Option<(String, String)>,
}

/// Runs one daemon life on the fresh directory `dir`.
fn life(smash: &Path, dir: &Path, lines: &[String], planted: &[Vec<String>]) -> io::Result<Life> {
    let daemon = Daemon::start(smash, dir)?;
    let mut conn = Client::connect(&daemon.addr)?;
    let mut ops = Ops::default();
    let targets = Mutex::new(Vec::<String>::new());
    let (go, stop) = (AtomicBool::new(false), AtomicBool::new(false));
    let per_epoch = lines.len().div_ceil(EPOCHS);

    let mut ingest_s = Vec::with_capacity(EPOCHS);
    let mut seal_publish_s = Vec::with_capacity(EPOCHS);
    let mut campaigns = Vec::new();
    let queries = std::thread::scope(|scope| -> io::Result<_> {
        let generator = scope.spawn(|| query_loop(&daemon.addr, &targets, &go, &stop));
        let run = (|| -> io::Result<()> {
            for (e, epoch_lines) in lines.chunks(per_epoch).enumerate() {
                let ingest_start = Instant::now();
                conn.ingest(epoch_lines, &mut ops)?;
                ingest_s.push(ingest_start.elapsed().as_secs_f64());

                let sealed = Instant::now();
                let ok = conn.request("SEAL")?.starts_with("OK epoch=");
                ops.record(ok);
                let ok = conn.request("WAIT")? == format!("OK epoch={}", e + 1);
                ops.record(ok);
                seal_publish_s.push(sealed.elapsed().as_secs_f64());

                // Outside the timed window: which planted servers are
                // published now? Those are what connection B may ask for.
                let reply = conn.request("REPORT")?;
                ops.record(reply.starts_with('['));
                campaigns = report_campaigns(reply);
                let published: Vec<String> = planted
                    .iter()
                    .flatten()
                    .filter(|s| campaigns.iter().any(|c| c.contains(s)))
                    .cloned()
                    .collect();
                if !published.is_empty() {
                    *targets.lock().expect("target list not poisoned") = published;
                    go.store(true, Ordering::Release);
                }
            }
            Ok(())
        })();
        stop.store(true, Ordering::Release);
        let queries = generator
            .join()
            .map_err(|_| io::Error::other("query generator panicked"))??;
        run.map(|()| queries)
    })?;

    let target = targets
        .lock()
        .expect("target list not poisoned")
        .first()
        .cloned();
    let hit = match target {
        Some(server) => {
            let reply = conn.request(&format!("QUERY {server}"))?.to_owned();
            ops.record(reply.starts_with("HIT "));
            Some((server, reply))
        }
        None => None,
    };
    let usage = daemon.shutdown(&mut conn, &mut ops)?;
    ops.record(usage.success);
    Ok(Life {
        ingest_s,
        seal_publish_s,
        queries,
        daemon: usage,
        ops,
        campaigns,
        hit,
    })
}

/// Restarts the daemon on `dir` and times process start → first `HIT`
/// on a fresh connection; the line must be the pre-shutdown one.
fn recover(
    smash: &Path,
    dir: &Path,
    hit: &(String, String),
    ops: &mut Ops,
    checks: &mut Checks,
) -> io::Result<f64> {
    let start = Instant::now();
    let daemon = Daemon::start(smash, dir)?;
    let mut conn = Client::connect(&daemon.addr)?;
    let reply = conn.request(&format!("QUERY {}", hit.0))?.to_owned();
    let recovery_s = start.elapsed().as_secs_f64();
    ops.record(reply.starts_with("HIT "));
    checks.expect(reply == hit.1, || {
        format!("after restart `{reply}`, before shutdown `{}`", hit.1)
    });
    let usage = daemon.shutdown(&mut conn, ops)?;
    ops.record(usage.success);
    Ok(recovery_s)
}

/// The daemon's scenario: the narrow shape at half the clients and
/// servers, so that a daemon life takes ≈5 s and several fit in a run.
fn scenario(opts: &Options) -> StreamScenario {
    Shape::Narrow.scenario(opts.seed, opts.divisor() * 2)
}

/// The scenario's trace as wire lines.
fn wire_lines(opts: &Options) -> io::Result<Vec<String>> {
    let records: Vec<HttpRecord> = scenario(opts).records().collect();
    let bytes = inputs::jsonl_bytes(&records)?;
    let text = String::from_utf8(bytes).map_err(io::Error::other)?;
    Ok(text.lines().map(str::to_owned).collect())
}

/// What the batch pipeline makes of the same lines: the reference for
/// the daemon's final `REPORT`.
fn batch_reference(lines: &[String]) -> (Vec<HttpRecord>, Vec<Vec<String>>) {
    let records: Vec<HttpRecord> = lines
        .iter()
        .filter_map(|l| decode_record_line(l.as_bytes()).ok())
        .collect();
    let ds = TraceDataset::from_records(records.clone());
    let report = Smash::new(SmashConfig::default()).run(&ds, &WhoisRegistry::new());
    (records, layers::campaign_names(&report.campaigns))
}

/// The `serve_tcp.*` metrics, in print order.
const WIRE_METRICS: [&str; 8] = [
    "serve_tcp.ingest_lines_per_s",
    "serve_tcp.seal_publish_s_mean",
    "serve_tcp.query_us_p50",
    "serve_tcp.query_us_p99",
    "serve_tcp.query_us_p999",
    "serve_tcp.query_late_us_p99",
    "serve_tcp.queries",
    "serve_tcp.recovery_s",
];

/// What a client of the daemon saw over one life, as one sample of each
/// `serve_tcp.*` metric (recovery is timed apart, by [`recover`]).
fn push_wire_samples(life: &Life, lines: usize, samples: &mut Samples) {
    samples.push(
        "serve_tcp.ingest_lines_per_s",
        lines as f64 / life.ingest_s.iter().sum::<f64>(),
    );
    samples.push(
        "serve_tcp.seal_publish_s_mean",
        stats::mean(&life.seal_publish_s),
    );
    let q = &life.queries;
    samples.push("serve_tcp.query_us_p50", stats::median(&q.latency_us));
    samples.push(
        "serve_tcp.query_us_p99",
        stats::percentile(&q.latency_us, 99.0),
    );
    samples.push(
        "serve_tcp.query_us_p999",
        stats::percentile(&q.latency_us, 99.9),
    );
    samples.push(
        "serve_tcp.query_late_us_p99",
        stats::percentile(&q.late_us, 99.0),
    );
    samples.push("serve_tcp.queries", q.latency_us.len() as f64);
}

/// One note line per `serve_tcp.*` metric: median and sample count.
fn wire_notes(samples: &Samples) -> Vec<String> {
    WIRE_METRICS
        .iter()
        .map(|name| {
            let v = samples.get(name).unwrap_or_default();
            format!(
                "{name} median {:.4} over {} samples",
                stats::median(v),
                v.len()
            )
        })
        .collect()
}

/// Which tail percentile the queries of one life support.
fn tail_note(q: &QueryLog) -> String {
    match stats::highest_supported_percentile(q.latency_us.len()) {
        Some(p) => format!(
            "{} queries in a life support up to p{p}: {:.1} us",
            q.latency_us.len(),
            stats::percentile(&q.latency_us, p)
        ),
        None => format!(
            "{} queries in a life support no tail percentile",
            q.latency_us.len()
        ),
    }
}

/// Checks a finished life against the batch reference and the planted
/// campaigns.
fn check_life(
    life: &Life,
    reference: &[Vec<String>],
    planted: &[Vec<String>],
    checks: &mut Checks,
) {
    checks.expect(
        membership(life.campaigns.clone()) == membership(reference.to_vec()),
        || "daemon REPORT membership after the last epoch differs from the batch report".into(),
    );
    let recall = layers::planted_recall(&life.campaigns, planted);
    checks.expect(recall == 1.0, || {
        format!("planted_recall is {recall}, not 1")
    });
    checks.expect(life.hit.is_some(), || {
        "no planted server was ever published".into()
    });
    checks.expect(life.seal_publish_s.len() == EPOCHS, || {
        format!(
            "{} epochs published, not {EPOCHS}",
            life.seal_publish_s.len()
        )
    });
}

/// The end-to-end pass: daemon lives back to back until the time is up,
/// each a sample of every metric, then the recoveries on the last life's
/// data directory.
pub fn end_to_end(opts: &Options) -> io::Result<RunResult> {
    let smash = proc::build_smash()?;
    let mut samples = Samples::default();
    let mut checks = Checks::default();
    let mut ops = Ops::default();
    let planted = inputs::planted_servers(&scenario(opts));

    // Set-up: the wire lines and a listening daemon with a connection.
    let lines = timed_setups(opts, &mut samples, |i| {
        let dir = opts.scratch(&format!("setup{i}"))?;
        let start = Instant::now();
        let lines = wire_lines(opts)?;
        let daemon = Daemon::start(&smash, &dir)?;
        let mut conn = Client::connect(&daemon.addr)?;
        let seconds = start.elapsed().as_secs_f64();
        daemon.shutdown(&mut conn, &mut Ops::default())?;
        let _ = fs::remove_dir_all(&dir);
        Ok((lines, seconds))
    })?;
    let (_, reference) = batch_reference(&lines);

    // What connection B and the restarts measure is per-layer
    // (`serve_tcp.*`, traced pass); this pass prints it in its notes.
    let mut wire = Samples::default();
    let mut lives = 0;
    let mut notes = Vec::new();
    let deadline = Deadline::start(opts.seconds, 1);
    loop {
        let dir = opts.scratch(&format!("life{lives}"))?;
        let life = life(&smash, &dir, &lines, &planted)?;
        lives += 1;
        let publish_s: f64 = life.seal_publish_s.iter().sum();
        let ingest_s: f64 = life.ingest_s.iter().sum();
        samples.push("result_s", stats::mean(&life.seal_publish_s));
        samples.push("records_per_s", lines.len() as f64 / (ingest_s + publish_s));
        samples.push("cpu_s", life.daemon.cpu_s);
        samples.push("peak_rss_mb", life.daemon.peak_rss_mb);
        push_wire_samples(&life, lines.len(), &mut wire);
        ops.add(life.ops);
        ops.add(life.queries.ops);
        check_life(&life, &reference, &planted, &mut checks);
        let last = !deadline.more(lives);
        if last {
            if let Some(hit) = &life.hit {
                for _ in 0..RECOVERIES {
                    let s = recover(&smash, &dir, hit, &mut ops, &mut checks)?;
                    wire.push("serve_tcp.recovery_s", s);
                }
            }
            notes.push(tail_note(&life.queries));
        }
        let _ = fs::remove_dir_all(&dir);
        if last {
            break;
        }
    }
    notes.push(format!(
        "{} lines in {EPOCHS} epochs, {lives} daemon lives",
        lines.len()
    ));
    notes.extend(wire_notes(&wire));
    Ok(finish_end_to_end(
        &samples,
        checks,
        ops.attempted,
        ops.failed,
        notes,
    ))
}

/// What the in-process passes work on, prepared once outside any span.
struct InProcess<'a> {
    /// The wire lines.
    lines: &'a [String],
    /// `INGEST <line>` for every line, as the transport would hand it over.
    requests: &'a [Vec<u8>],
    /// The lines, decoded.
    records: &'a [HttpRecord],
    planted: &'a [Vec<String>],
    /// A planted server the TCP life saw published.
    target: &'a str,
}

/// One in-process daemon life under `tracer`: every `INGEST`, `SEAL`
/// and publish goes through `Connection::handle` / `wait_published`.
fn inproc_life(
    tracer: &Tracer,
    iter: u32,
    dir: &Path,
    input: &InProcess<'_>,
    samples: &mut Samples,
) -> io::Result<()> {
    let InProcess {
        requests, target, ..
    } = *input;
    let per_epoch = requests.len().div_ceil(EPOCHS);
    tracer
        .iteration(iter)
        .span(ITERATION, |ctx| -> io::Result<()> {
            let svc = ctx.span("serve_service.start", |_| {
                CampaignService::start(ServeOptions::new(dir))
            })?;
            let mut conn = svc.connection();
            let mut handle_us = Vec::with_capacity(requests.len());
            for (e, epoch_requests) in requests.chunks(per_epoch).enumerate() {
                ctx.span("serve_service.ingest", |_| {
                    for request in epoch_requests {
                        let start = Instant::now();
                        std::hint::black_box(conn.handle(request, false));
                        handle_us.push(start.elapsed().as_secs_f64() * 1e6);
                    }
                });
                let sealed = Instant::now();
                ctx.span("serve_service.seal_ack", |_| conn.handle(b"SEAL", false));
                samples.push(
                    "serve_service.seal_ack_ms_p50",
                    sealed.elapsed().as_secs_f64() * 1e3,
                );
                let outcome = ctx.span("serve_service.remine", |_| {
                    svc.wait_published(Duration::from_secs(120))
                });
                if outcome != WaitOutcome::Published(e as u64 + 1) {
                    return Err(io::Error::other(format!("epoch {}: {outcome:?}", e + 1)));
                }
                let seal_publish_s = sealed.elapsed().as_secs_f64();
                if e == 0 {
                    samples.push("serve_service.seal_publish_s_e1", seal_publish_s);
                } else if e + 1 == EPOCHS {
                    samples.push("serve_service.seal_publish_s_e10", seal_publish_s);
                }
            }
            samples.push(
                "serve_service.ingest_handle_us_p50",
                stats::median(&handle_us),
            );
            let mut reader = svc.reader();
            let start = Instant::now();
            ctx.span("serve_service.query", |_| {
                for _ in 0..LOOKUPS {
                    std::hint::black_box(svc.query(target, &mut reader));
                }
            });
            samples.push(
                "serve_service.query_inproc_ns",
                start.elapsed().as_secs_f64() * 1e9 / LOOKUPS as f64,
            );
            samples.push(
                "serve_service.busy_replies",
                svc.counter("serve/ingest/busy") as f64,
            );
            samples.push(
                "serve_service.err_replies",
                svc.counter("serve/ingest/rejected") as f64,
            );
            ctx.span("serve_service.shutdown", |_| svc.shutdown());
            Ok(())
        })
}

/// The layers below the service, each on its own: protocol parse, line
/// decode, WAL write and replay, the epoch-10 re-intern and re-mine,
/// snapshot build / save / load / lookup.
fn probes(
    tracer: &Tracer,
    iter: u32,
    wal_dir: &Path,
    scratch: &Path,
    input: &InProcess<'_>,
    samples: &mut Samples,
) -> io::Result<String> {
    let InProcess {
        lines,
        requests,
        records,
        planted,
        ..
    } = *input;
    tracer
        .iteration(iter)
        .span(PROBE, |ctx| -> io::Result<String> {
            ctx.span("serve_protocol.parse_line", |_| {
                for request in requests {
                    std::hint::black_box(protocol::parse_line(request).is_ok());
                }
            });
            ctx.span("trace_io.decode_line", |_| {
                for line in lines {
                    std::hint::black_box(decode_record_line(line.as_bytes()).is_ok());
                }
            });

            let first_epoch = &lines[..lines.len().div_ceil(EPOCHS)];
            ctx.span("serve_epoch.wal_write", |_| {
                epoch::write_epoch(scratch, 1, first_epoch)
            })
            .map_err(io::Error::other)?;
            let wal_bytes = fs::metadata(epoch::wal_path(scratch, 1))?.len();
            samples.push(
                "serve_epoch.wal_bytes_per_line",
                wal_bytes as f64 / first_epoch.len() as f64,
            );
            let replayed = ctx.span("serve_epoch.replay", |_| epoch::replay(wal_dir))?;
            if replayed.epochs.len() != EPOCHS {
                return Err(io::Error::other(format!(
                    "replay found {} epochs",
                    replayed.epochs.len()
                )));
            }
            drop(replayed);

            // What the miner does for the last epoch: clone every record
            // ever ingested, re-intern, mine.
            let ds = ctx.span("trace_dataset.intern", |_| {
                TraceDataset::from_records(records.to_vec())
            });
            layers::push_dataset_gauges(&ds, samples);
            let report = layers::trace_pipeline(ctx, &ds, planted, samples);

            let snap = ctx.span("serve_snapshot.build", |_| {
                ServeSnapshot::from_report(EPOCHS as u64, &report, &ServeSnapshot::empty())
            });
            let path = scratch.join("snapshot.ckpt");
            ctx.span("serve_snapshot.save", |_| snap.save(&path))
                .map_err(io::Error::other)?;
            let loaded = ctx
                .span("serve_snapshot.load", |_| ServeSnapshot::load(&path))
                .map_err(io::Error::other)?;
            let hit = planted
                .first()
                .and_then(|c| c.first())
                .cloned()
                .unwrap_or_default();
            for (name, server) in [("hit", hit.as_str()), ("miss", "absent.example")] {
                let start = Instant::now();
                for _ in 0..LOOKUPS {
                    std::hint::black_box(loaded.lookup(std::hint::black_box(server)));
                }
                samples.push(
                    &format!("serve_snapshot.lookup_{name}_ns"),
                    start.elapsed().as_secs_f64() * 1e9 / LOOKUPS as f64,
                );
            }
            Ok(report.canonical_json())
        })
}

/// The traced pass: daemon lives over TCP for the wire-level numbers,
/// then in-process lives inside spans.
pub fn traced(opts: &Options) -> io::Result<RunResult> {
    let smash = proc::build_smash()?;
    let mut samples = Samples::default();
    samples.push("bench_env.spin_ms_before", proc::spin_ms());
    let mut checks = Checks::default();
    let planted = inputs::planted_servers(&scenario(opts));
    let lines = wire_lines(opts)?;
    let (records, reference) = batch_reference(&lines);
    let mut notes = Vec::new();

    // Over TCP, untraced: what a client of the daemon sees. Lives for
    // two fifths of the time, each followed by its restarts.
    let mut ops = Ops::default();
    let target;
    let mut lives = 0;
    let deadline = Deadline::start(opts.seconds * 0.4, opts.min_iterations().min(2));
    loop {
        let dir = opts.scratch("tcp")?;
        let tcp = life(&smash, &dir, &lines, &planted)?;
        lives += 1;
        check_life(&tcp, &reference, &planted, &mut checks);
        ops.add(tcp.ops);
        ops.add(tcp.queries.ops);
        push_wire_samples(&tcp, lines.len(), &mut samples);
        if let Some(hit) = &tcp.hit {
            for _ in 0..RECOVERIES {
                let s = recover(&smash, &dir, hit, &mut ops, &mut checks)?;
                samples.push("serve_tcp.recovery_s", s);
            }
        }
        let _ = fs::remove_dir_all(&dir);
        if !deadline.more(lives) {
            notes.push(tail_note(&tcp.queries));
            target = tcp.hit.map(|(server, _)| server).unwrap_or_default();
            break;
        }
    }
    notes.push(format!("{lives} daemon lives over TCP"));
    checks.expect(ops.failed == 0, || {
        format!("{} of {} wire operations failed", ops.failed, ops.attempted)
    });

    // In process, inside spans.
    let requests: Vec<Vec<u8>> = lines
        .iter()
        .map(|l| format!("INGEST {l}").into_bytes())
        .collect();
    let input = InProcess {
        lines: &lines,
        requests: &requests,
        records: &records,
        planted: &planted,
        target: &target,
    };
    let scratch = opts.scratch("probe")?;
    let pass = |tracer: &Tracer, iter: u32, samples: &mut Samples| -> io::Result<String> {
        let dir = opts.scratch("inproc")?;
        inproc_life(tracer, iter, &dir, &input, samples)?;
        let digest = probes(tracer, iter, &dir, &scratch, &input, samples)?;
        let _ = fs::remove_dir_all(&dir);
        Ok(digest)
    };
    // The lives over TCP took two fifths of the time; these get the rest.
    let rest = Options {
        seconds: opts.seconds * 0.6,
        ..opts.clone()
    };
    let looped = traced_loop(
        &rest,
        opts.min_iterations().min(2),
        &mut samples,
        &mut checks,
        pass,
    )?;
    let _ = fs::remove_dir_all(&scratch);
    let spans = looped.spans;
    layers::derive_pipeline_metrics(&spans, &mut samples);
    let secs = |name: &str| trace::seconds_per_iteration(&spans, name);
    let per_line = 1e6 / lines.len().max(1) as f64;
    for s in secs("serve_protocol.parse_line").values() {
        samples.push("serve_protocol.parse_line_us", s * per_line);
    }
    for s in secs("trace_io.decode_line").values() {
        samples.push("trace_io.decode_line_us", s * per_line);
    }
    for s in secs("trace_dataset.intern").values() {
        samples.push("trace_dataset.records_per_s", records.len() as f64 / s);
    }
    notes.push(looped.note);
    finish_traced(opts, samples, &spans, checks, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_come_from_the_origin_not_from_the_previous_request() {
        let origin = Instant::now();
        let schedule = OpenLoop::new(origin, 1_000.0);
        assert_eq!(schedule.due(0), origin);
        assert_eq!(schedule.due(250) - origin, Duration::from_millis(250));
        // However late request 3 was sent, request 4 is due 1 ms after
        // request 3 was due.
        assert_eq!(schedule.due(4) - schedule.due(3), Duration::from_millis(1));
    }

    #[test]
    fn latency_counts_from_the_due_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(3); // the generator ran late
        let replied = sent + Duration::from_millis(1);
        let (latency_us, late_us) = open_loop_timing(due, sent, replied);
        assert!((latency_us - 4_000.0).abs() < 1e-6);
        assert!((late_us - 3_000.0).abs() < 1e-6);
        // Sent early (never happens, but must not underflow): zero late.
        let (_, early) = open_loop_timing(due, due - Duration::from_millis(1), replied);
        assert_eq!(early, 0.0);
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        // Request 0 stalls for 5 ms at 1 kHz: requests 1..=4 were due
        // during the stall and go out the moment it ends, so each is
        // charged the part of the stall that fell after its due time.
        let origin = Instant::now();
        let schedule = OpenLoop::new(origin, 1_000.0);
        let stall_ends = origin + Duration::from_millis(5);
        for k in 1..=4u64 {
            let (latency_us, late_us) = open_loop_timing(schedule.due(k), stall_ends, stall_ends);
            assert!((late_us - (5 - k) as f64 * 1_000.0).abs() < 1e-6);
            assert_eq!(latency_us, late_us);
        }
    }

    #[test]
    fn membership_ignores_order() {
        let a = vec![vec!["b".to_owned(), "a".to_owned()], vec!["c".to_owned()]];
        let b = vec![vec!["c".to_owned()], vec!["a".to_owned(), "b".to_owned()]];
        assert_eq!(membership(a), membership(b));
    }
}
