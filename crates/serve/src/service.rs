//! The campaign service: supervised epochs over the batch pipeline.
//!
//! [`CampaignService`] owns the daemon's whole lifecycle (DESIGN.md
//! §13):
//!
//! * **Ingest** — `INGEST` lines are validated by the same lenient
//!   per-line core as file ingest ([`decode_fields`]), and only the line
//!   itself is kept: it is the daemon's one record form. Rejects get an
//!   `ERR` class and a quarantine sidecar entry. The service counts the
//!   open epoch's bytes and answers `BUSY` (sheds load) to a line that
//!   would carry them past the epoch budget, instead of growing without
//!   bound.
//! * **Seal** — the buffer becomes epoch *N*: WAL first
//!   ([`crate::epoch`]), acknowledgment second, and the very lines the
//!   WAL holds are moved to the miner third. A seal also cancels any
//!   in-flight mine through its [`CancelToken`] — the stale mine's
//!   result would cover a strict prefix of the data.
//! * **Mine** — one background worker owns the cumulative trace as an
//!   interned arena ([`TraceDataset`]) and feeds it through one
//!   `absorb(lines)`: the replayed WAL at start-up, then each wake's
//!   newly sealed lines, so replay cannot diverge from live ingest. The
//!   mine borrows the arena — nothing is cloned or re-interned, and a
//!   failed mine cannot leave it half-updated. Mines are panic-isolated
//!   via [`par::run_isolated`] and supervised by the shared [`retry`]
//!   backoff schedule; one that survives neither, or whose client
//!   dimension did not complete, marks the epoch failed (visible to
//!   `WAIT`) without taking the daemon down, and the previous snapshot
//!   keeps serving.
//! * **Hand-off** — one mutex and one condvar (`Progress`) carry every
//!   signal between seals, `WAIT`s, shutdown and the miner: epoch
//!   numbers, the shutdown flag, and the in-flight mine's token, which
//!   the worker installs in the same critical section that picks its
//!   target — so no seal or shutdown can slip between the two.
//! * **Publish** — durable snapshot write, then the lock-free
//!   [`SnapshotCell`] swap ([`crate::snapshot`]).
//!
//! Chaos failpoints cover each boundary: `serve/after/seal` (WAL
//! durable, not yet acknowledged), `serve/mine` (mine attempt about to
//! start), `serve/after/publish` (snapshot durable, not yet swapped
//! in). `tests/serve.rs` SIGKILLs at every one and asserts the restart
//! converges to the no-crash answers.

use crate::epoch;
use crate::protocol::{self, ParseError, Request};
use crate::snapshot::{ServeSnapshot, SnapshotCell, SnapshotReader, SNAPSHOT_FILE};
use smash_core::config::SmashConfig;
use smash_core::{DimensionKind, DimensionStatus, Smash};
use smash_support::ckpt;
use smash_support::governor::{self, CancelToken, GovernorOptions};
use smash_support::json::{self, ToJson};
use smash_support::metrics::{Counter, Histogram, HistogramSnapshot, Registry, Span};
use smash_support::retry;
use smash_support::{failpoint, par};
use smash_trace::io::decode_fields;
use smash_trace::TraceDataset;
use smash_whois::WhoisRegistry;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Directory holding the epoch WAL, the durable snapshot, and the
    /// quarantine sidecar. Created if absent.
    pub data_dir: PathBuf,
    /// Pipeline configuration used by every mine.
    pub config: SmashConfig,
    /// Byte cap for the open epoch's accepted payloads (0 = no
    /// backpressure). Ingest answers `BUSY` to a line that would carry
    /// the open epoch past it; a `SEAL` frees it all.
    pub epoch_budget_bytes: u64,
    /// Wall-clock deadline handed to each mine (0 = none).
    pub mine_deadline_ms: u64,
}

impl ServeOptions {
    /// Defaults for `data_dir`: default pipeline config, 64 MiB epoch
    /// budget, no mine deadline.
    pub fn new<P: Into<PathBuf>>(data_dir: P) -> Self {
        Self {
            data_dir: data_dir.into(),
            config: SmashConfig::default(),
            epoch_budget_bytes: 64 << 20,
            mine_deadline_ms: 0,
        }
    }
}

/// Ingest buffer and seal hand-off state (one mutex, taken by ingest,
/// seal, and the miner's drain).
#[derive(Default)]
struct State {
    /// Accepted lines of the open epoch (the future WAL payload).
    buffer: Vec<String>,
    /// Payload bytes of the open buffer, held against
    /// [`ServeOptions::epoch_budget_bytes`].
    buffer_bytes: u64,
    /// Sealed epochs' lines the mine worker has not yet absorbed into
    /// its arena (where the cumulative trace lives), in seal order.
    unabsorbed: Vec<Vec<String>>,
    /// Highest epoch number ever allocated to a seal. Epoch numbers are
    /// minted under this (the state) lock — held from allocation through
    /// the WAL write — so two concurrent `SEAL`s can never observe the
    /// same value and overwrite each other's durable WAL file.
    sealed_seq: u64,
}

/// Epoch progress and the seal → miner hand-off (separate mutex so
/// `WAIT` and the worker never contend with bulk ingest; its one
/// condvar is notified on every change). Lock order: `State` before
/// `Progress`.
#[derive(Default)]
struct Progress {
    /// Highest sealed (WAL-durable) epoch.
    sealed: u64,
    /// Highest published epoch.
    published: u64,
    /// Highest epoch whose mine exhausted supervision.
    failed: u64,
    /// Runs from the first seal not yet visible to queries until the
    /// publish that makes every sealed epoch visible (what `WAIT`
    /// waits for); recorded into `serve/latency/mine` when dropped.
    unpublished_since: Option<Span>,
    /// Set once by shutdown: no further publishes will happen.
    shutdown: bool,
    /// The in-flight mine's token, installed with its target and
    /// cleared when it returns; a seal or shutdown cancels it.
    mine: Option<CancelToken>,
}

impl Progress {
    /// Cancels the in-flight mine, if any; whether this call did it.
    fn cancel_mine(&self, reason: &str) -> bool {
        let Some(token) = &self.mine else {
            return false;
        };
        token.cancel(&format!("{}{reason}", governor::CANCEL_PREFIX))
    }
}

/// Histogram of `QUERY` handling time on the protocol path.
const QUERY_LATENCY: &str = "serve/latency/query";
/// Histogram of seal → publish time (see [`Progress::unpublished_since`]).
const MINE_LATENCY: &str = "serve/latency/mine";
/// `STATS`' `latency` keys and the histograms behind them.
const LATENCIES: [(&str, &str); 2] = [("query", QUERY_LATENCY), ("mine", MINE_LATENCY)];

/// A registry counter the request path bumps once per line: resolved
/// on first use, then reached without the registry lock or a name
/// allocation. First use rather than start, so `STATS` lists a counter
/// only once it has been touched — exactly as a per-call lookup did.
struct HotCounter {
    name: &'static str,
    cell: OnceLock<Arc<Counter>>,
}

impl HotCounter {
    const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: OnceLock::new(),
        }
    }

    fn of(&self, metrics: &Registry) -> &Counter {
        self.cell.get_or_init(|| metrics.counter(self.name))
    }
}

/// The counters the `INGEST`, `QUERY` and protocol-reject paths bump.
struct HotCounters {
    ingest_ok: HotCounter,
    ingest_busy: HotCounter,
    ingest_rejected: HotCounter,
    query: HotCounter,
    query_hit: HotCounter,
    proto_rejected: HotCounter,
    proto_oversized: HotCounter,
}

impl HotCounters {
    const fn new() -> Self {
        Self {
            ingest_ok: HotCounter::new("serve/ingest/ok"),
            ingest_busy: HotCounter::new("serve/ingest/busy"),
            ingest_rejected: HotCounter::new("serve/ingest/rejected"),
            query: HotCounter::new("serve/query"),
            query_hit: HotCounter::new("serve/query_hit"),
            proto_rejected: HotCounter::new("serve/proto/rejected"),
            proto_oversized: HotCounter::new("serve/proto/oversized"),
        }
    }
}

struct Inner {
    opts: ServeOptions,
    smash: Smash,
    whois: WhoisRegistry,
    metrics: Registry,
    hot: HotCounters,
    query_latency: Arc<Histogram>,
    mine_latency: Arc<Histogram>,
    state: Mutex<State>,
    progress: Mutex<Progress>,
    progress_cv: Condvar,
    cell: SnapshotCell,
}

/// What [`Connection::handle`] tells the transport to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Write this reply line.
    Reply(Cow<'static, str>),
    /// Blank input: write nothing.
    Quiet,
    /// Write this reply line, then drain and stop the daemon.
    Shutdown(Cow<'static, str>),
}

/// The outcome of a `WAIT`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Every sealed epoch is published; the value is the epoch served.
    Published(u64),
    /// Mining this epoch exhausted supervision; the old snapshot is
    /// still served.
    MineFailed(u64),
    /// The timeout elapsed first.
    TimedOut,
    /// The service is shutting down; no further publishes will happen.
    ShuttingDown,
}

/// A long-running campaign service over one data directory.
///
/// Cheap to clone (all state is shared); drop every clone or call
/// [`CampaignService::shutdown`] to stop the mine worker.
#[derive(Clone)]
pub struct CampaignService {
    inner: Arc<Inner>,
    worker: Arc<Mutex<Option<JoinHandle<()>>>>,
}

impl CampaignService {
    /// Starts the service: recovers the durable snapshot, reads back
    /// the epoch WAL, and spawns the supervised mine worker, which
    /// rebuilds its arena from it (the recovered snapshot answers
    /// meanwhile) and re-mines if the WAL is ahead of the snapshot.
    ///
    /// # Errors
    ///
    /// Real I/O errors creating or scanning the data directory, and a
    /// WAL file written under another envelope version
    /// ([`epoch::replay`]: acknowledged epochs are never dropped with a
    /// warning). Corrupt snapshot or WAL files — and a snapshot of
    /// another version, which the WAL regenerates — degrade to
    /// recompute with a warning, never to a failed start.
    pub fn start(opts: ServeOptions) -> io::Result<CampaignService> {
        fs::create_dir_all(&opts.data_dir)?;
        let metrics = Registry::new();

        // 1. Last durable snapshot, if any survives validation.
        let snap_path = opts.data_dir.join(SNAPSHOT_FILE);
        let initial = if snap_path.exists() {
            match ServeSnapshot::load(&snap_path) {
                Ok(snap) => snap,
                Err(e) => {
                    eprintln!("serve: ignoring invalid snapshot ({e}); rebuilding from WAL");
                    metrics.counter("serve/recovery/snapshot_invalid").inc();
                    ServeSnapshot::empty()
                }
            }
        } else {
            ServeSnapshot::empty()
        };
        let published = initial.epoch;

        // 2. Replay the WAL: sealed epochs are the durable truth.
        let replay = epoch::replay(&opts.data_dir)?;
        for (path, reason) in &replay.skipped {
            eprintln!(
                "serve: skipping invalid WAL file {}: {reason}",
                path.display()
            );
            metrics.counter("serve/recovery/wal_skipped").inc();
        }
        // Never below the snapshot's epoch: a skipped (corrupt) newest
        // WAL must not let the next seal reuse a published number.
        let replayed = replay.epochs.iter().map(|ep| ep.seq).max().unwrap_or(0);
        let sealed = replayed.max(published);
        let state = State {
            sealed_seq: sealed,
            ..State::default()
        };
        metrics
            .counter("serve/recovery/epochs_replayed")
            .add(replay.epochs.len() as u64);

        let inner = Arc::new(Inner {
            smash: Smash::new(opts.config.clone()),
            whois: WhoisRegistry::new(),
            opts,
            hot: HotCounters::new(),
            query_latency: metrics.histogram(QUERY_LATENCY),
            mine_latency: metrics.histogram(MINE_LATENCY),
            metrics,
            state: Mutex::new(state),
            progress: Mutex::new(Progress {
                sealed,
                published,
                ..Progress::default()
            }),
            progress_cv: Condvar::new(),
            cell: SnapshotCell::new(Arc::new(initial)),
        });
        let worker = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("smash-serve-miner".to_owned())
                .spawn(move || mine_worker(&inner, replay.epochs))
                .map_err(io::Error::other)?
        };
        Ok(CampaignService {
            inner,
            worker: Arc::new(Mutex::new(Some(worker))),
        })
    }

    /// A per-connection handler (owns its snapshot cache).
    pub fn connection(&self) -> Connection {
        Connection {
            svc: self.clone(),
            reader: self.inner.cell.reader(),
        }
    }

    /// A fresh snapshot reader cache for [`CampaignService::query`]
    /// (each querying thread should own one).
    pub fn reader(&self) -> SnapshotReader {
        self.inner.cell.reader()
    }

    /// Looks `server` up in the published snapshot through a reader
    /// cache (the hot path the bench hammers during an in-flight mine).
    pub fn query(
        &self,
        server: &str,
        reader: &mut SnapshotReader,
    ) -> Option<crate::snapshot::QueryHit> {
        let inner = &*self.inner;
        inner.hot.query.of(&inner.metrics).inc();
        let snap = inner.cell.read(reader);
        let hit = snap.lookup(server);
        if hit.is_some() {
            inner.hot.query_hit.of(&inner.metrics).inc();
        }
        hit
    }

    /// Blocks until every sealed epoch is published, the newest epoch's
    /// mine fails, shutdown begins, or `timeout` elapses.
    pub fn wait_published(&self, timeout: Duration) -> WaitOutcome {
        let deadline = std::time::Instant::now() + timeout; // lint:allow(wallclock): WAIT is a wall-clock protocol primitive
        let mut progress = self
            .inner
            .progress
            .lock()
            .expect("progress mutex not poisoned");
        loop {
            // Shutdown first: a draining daemon answers every waiter
            // immediately instead of parking them for up to the WAIT
            // timeout while the transport tries to join their threads.
            // The flag lives under this mutex, so the check and the
            // condvar wait below cannot race with the notification.
            if progress.shutdown {
                return WaitOutcome::ShuttingDown;
            }
            if progress.published >= progress.sealed {
                return WaitOutcome::Published(progress.published);
            }
            if progress.failed >= progress.sealed {
                return WaitOutcome::MineFailed(progress.failed);
            }
            // lint:allow(wallclock): WAIT is a wall-clock protocol primitive
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return WaitOutcome::TimedOut;
            }
            let (guard, _res) = self
                .inner
                .progress_cv
                .wait_timeout(progress, left)
                .expect("progress mutex not poisoned");
            progress = guard;
        }
    }

    /// The highest sealed / published / failed epochs.
    pub fn epochs(&self) -> (u64, u64, u64) {
        let p = self
            .inner
            .progress
            .lock()
            .expect("progress mutex not poisoned");
        (p.sealed, p.published, p.failed)
    }

    /// Signals shutdown without joining: flags the service, cancels any
    /// in-flight mine, and wakes every `WAIT`-blocked thread (which
    /// answers [`WaitOutcome::ShuttingDown`]). Idempotent; the
    /// transport calls this on `SHUTDOWN` so parked connections unblock
    /// before their threads are joined.
    ///
    /// The flag lives under the progress mutex: a waiter is either
    /// about to check it (and sees it) or already parked on the condvar
    /// (and receives the notify), so no wake-up is lost and the mine
    /// worker cannot sleep through shutdown — nor start a mine whose
    /// token this section could not reach.
    pub(crate) fn begin_shutdown(&self) {
        let inner = &*self.inner;
        let mut progress = inner.progress.lock().expect("progress mutex not poisoned");
        progress.shutdown = true;
        progress.cancel_mine("service shutdown");
        inner.progress_cv.notify_all();
    }

    /// Stops the mine worker: cancels any in-flight mine, wakes every
    /// waiter, and joins. Idempotent.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let handle = self
            .worker
            .lock()
            .expect("worker handle mutex not poisoned")
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// One service counter (testing and stats).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.metrics.counter(name).get()
    }

    /// Validates one payload and keeps the line itself — the WAL's and
    /// the miner's one record form; the protocol layer has already
    /// refused lines over [`protocol::MAX_LINE_BYTES`].
    fn ingest(&self, payload: &str) -> Response {
        let inner = &*self.inner;
        let mut state = inner.state.lock().expect("state mutex not poisoned");
        let bytes = payload.len() as u64;
        let budget = inner.opts.epoch_budget_bytes;
        if budget > 0 && state.buffer_bytes + bytes > budget {
            // Load shedding: the line would carry the open epoch past
            // its budget; the client must SEAL (or back off) first.
            inner.hot.ingest_busy.of(&inner.metrics).inc();
            return Response::Reply("BUSY".into());
        }
        match decode_fields(payload.as_bytes()) {
            Ok(_) => {
                state.buffer_bytes += bytes;
                state.buffer.push(payload.to_owned());
                inner.hot.ingest_ok.of(&inner.metrics).inc();
                Response::Reply("OK".into())
            }
            Err(e) => {
                drop(state);
                inner.hot.ingest_rejected.of(&inner.metrics).inc();
                inner
                    .metrics
                    .counter(&format!("serve/ingest/{}", e.class()))
                    .inc();
                self.quarantine_line(payload.as_bytes());
                Response::Reply(format!("ERR {}", e.class()).into())
            }
        }
    }

    /// Appends a rejected raw line to the quarantine sidecar through
    /// the shared retry policy — mirroring file ingest, so hostile
    /// wire bytes and hostile trace bytes land in the same place.
    ///
    /// Each call opens its own append-mode handle and writes the line
    /// (terminator included) in one `write_all`: O_APPEND keeps
    /// concurrent lines whole, and no service-wide lock is held across
    /// the retry backoff — a persistently failing sidecar (full disk)
    /// slows only the connection that hit it, never every rejecting
    /// connection at once.
    fn quarantine_line(&self, raw: &[u8]) {
        let inner = &*self.inner;
        let path = inner.opts.data_dir.join("quarantine.jsonl");
        let mut entry = Vec::with_capacity(raw.len() + 1);
        entry.extend_from_slice(raw);
        entry.push(b'\n');
        let seed = ckpt::fnv1a(path.as_os_str().as_encoded_bytes());
        let (res, _retries) = retry::retry_transient(seed, || -> io::Result<()> {
            failpoint::check("ingest/quarantine").map_err(io::Error::other)?;
            let mut file = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)?;
            use std::io::Write as _;
            file.write_all(&entry)?;
            Ok(())
        });
        match res {
            Ok(()) => inner.metrics.counter("serve/ingest/quarantined").inc(),
            Err(e) => {
                eprintln!("serve: quarantine write failed: {e}");
                inner
                    .metrics
                    .counter("serve/ingest/quarantine_failed")
                    .inc();
            }
        }
    }

    fn seal(&self) -> Response {
        let inner = &*self.inner;
        let mut state = inner.state.lock().expect("state mutex not poisoned");
        if state.buffer.is_empty() {
            inner.metrics.counter("serve/seal/empty").inc();
            return Response::Reply("ERR empty-epoch".into());
        }
        // The epoch number is allocated *and committed* under the state
        // lock, which is held across the WAL write: a concurrent SEAL
        // blocks on the lock and mints the next number, so no two seals
        // can ever target the same `epoch-<seq>.wal` (an overwrite
        // would silently drop an acknowledged epoch from replay).
        let seq = state.sealed_seq + 1;
        // WAL first: the epoch is durable before it is acknowledged or
        // mined. A crash past this point replays identically.
        if let Err(e) = epoch::write_epoch(&inner.opts.data_dir, seq, &state.buffer) {
            eprintln!("serve: epoch {seq} WAL write failed: {e}");
            inner.metrics.counter("serve/seal/wal_failed").inc();
            return Response::Reply("ERR wal-write".into());
        }
        state.sealed_seq = seq;
        failpoint::fire("serve/after/seal");
        // The miner gets the very lines the WAL now holds — moved.
        let lines = std::mem::take(&mut state.buffer);
        let records = lines.len();
        state.unabsorbed.push(lines);
        state.buffer_bytes = 0;
        drop(state);
        let mut progress = inner.progress.lock().expect("progress mutex not poisoned");
        // `max`, not assignment: two seals that raced past the state
        // lock may reach this update out of order.
        progress.sealed = progress.sealed.max(seq);
        // A fresh epoch supersedes any in-flight mine: cancel it so the
        // worker converges on the newest data instead of finishing a
        // stale pass.
        if progress.cancel_mine(&format!("superseded by epoch {seq}")) {
            inner.metrics.counter("serve/mine/superseded").inc();
        }
        progress
            .unpublished_since
            .get_or_insert_with(|| inner.mine_latency.span());
        inner.progress_cv.notify_all();
        drop(progress);
        inner.metrics.counter("serve/seal/ok").inc();
        Response::Reply(format!("OK epoch={seq} records={records}").into())
    }

    fn stats_json(&self) -> String {
        let inner = &*self.inner;
        let (sealed, published, failed) = self.epochs();
        let (buffer_records, buffer_bytes) = {
            let state = inner.state.lock().expect("state mutex not poisoned");
            (state.buffer.len(), state.buffer_bytes)
        };
        let retry = retry::counters();
        // The service's own (`serve/…`) slice of one metric family.
        fn own<V: ToJson>(family: BTreeMap<String, V>) -> json::Json {
            let own = family.into_iter().filter(|(n, _)| n.starts_with("serve/"));
            json::Json::Obj(own.map(|(n, v)| (n, v.to_json())).collect())
        }
        let snapshot = inner.metrics.snapshot();
        let mut root: BTreeMap<String, json::Json> = BTreeMap::new();
        root.insert("sealed".to_owned(), sealed.to_json());
        root.insert("published".to_owned(), published.to_json());
        root.insert("failed".to_owned(), failed.to_json());
        root.insert("buffer_records".to_owned(), buffer_records.to_json());
        root.insert("buffer_bytes".to_owned(), buffer_bytes.to_json());
        root.insert(
            "snapshot_epoch".to_owned(),
            self.inner.cell.peek().epoch.to_json(),
        );
        let mut latency: BTreeMap<String, json::Json> = BTreeMap::new();
        for (key, name) in LATENCIES {
            if let Some(histogram) = snapshot.histograms.get(name) {
                latency.insert(key.to_owned(), latency_json(histogram));
            }
        }
        root.insert("latency".to_owned(), latency.to_json());
        root.insert("counters".to_owned(), own(snapshot.counters));
        root.insert("gauges".to_owned(), own(snapshot.gauges));
        let mut retry_obj: BTreeMap<String, json::Json> = BTreeMap::new();
        retry_obj.insert("ops".to_owned(), retry.ops.to_json());
        retry_obj.insert("backoffs".to_owned(), retry.backoffs.to_json());
        retry_obj.insert("exhausted".to_owned(), retry.exhausted.to_json());
        root.insert("retry".to_owned(), retry_obj.to_json());
        json::to_string(&root.to_json())
    }
}

/// `{count, p50_us, p99_us}` of one latency histogram (quantiles are
/// bucket upper bounds, [`HistogramSnapshot::quantile_ns`]).
fn latency_json(histogram: &HistogramSnapshot) -> json::Json {
    let us = |q: f64| histogram.quantile_ns(q) as f64 / 1e3;
    let mut obj: BTreeMap<String, json::Json> = BTreeMap::new();
    obj.insert("count".to_owned(), histogram.count.to_json());
    obj.insert("p50_us".to_owned(), us(0.5).to_json());
    obj.insert("p99_us".to_owned(), us(0.99).to_json());
    obj.to_json()
}

/// One protocol connection: a service handle plus its snapshot cache.
pub struct Connection {
    svc: CampaignService,
    reader: SnapshotReader,
}

impl Connection {
    /// Handles one raw request line (`oversized` from the bounded
    /// reader). Total: every input maps to a [`Response`]; nothing
    /// panics and nothing wedges the daemon.
    pub fn handle(&mut self, raw: &[u8], oversized: bool) -> Response {
        match self.parse(raw, oversized) {
            Ok(Some(request)) => self.respond(request),
            Ok(None) => Response::Quiet,
            Err(rejected) => rejected,
        }
    }

    /// The request on one raw line: `Ok(None)` for a blank line, `Err`
    /// with the `ERR` reply (already counted, binary garbage already
    /// quarantined) for a rejected one.
    pub(crate) fn parse<'a>(
        &self,
        raw: &'a [u8], // lint:allow(index): a lifetime-annotated slice type, not an index
        oversized: bool,
    ) -> Result<Option<Request<'a>>, Response> {
        let inner = &*self.svc.inner;
        if oversized {
            inner.hot.proto_oversized.of(&inner.metrics).inc();
            return Err(Response::Reply("ERR oversized".into()));
        }
        protocol::parse_line(raw).map_err(|e| {
            inner.hot.proto_rejected.of(&inner.metrics).inc();
            if matches!(e, ParseError::BadUtf8) {
                // Binary garbage aimed at INGEST still deserves a
                // quarantine entry for offline inspection.
                self.svc.quarantine_line(raw);
            }
            Response::Reply(e.reply().into())
        })
    }

    /// Carries out one parsed request.
    pub(crate) fn respond(&mut self, request: Request<'_>) -> Response {
        match request {
            Request::Ping => Response::Reply("PONG".into()),
            Request::Ingest(payload) => self.svc.ingest(payload),
            Request::Seal => self.svc.seal(),
            Request::Wait => match self.svc.wait_published(Duration::from_secs(120)) {
                WaitOutcome::Published(epoch) => {
                    Response::Reply(format!("OK epoch={epoch}").into())
                }
                WaitOutcome::MineFailed(epoch) => {
                    Response::Reply(format!("ERR mine-failed epoch={epoch}").into())
                }
                WaitOutcome::TimedOut => Response::Reply("ERR timeout".into()),
                WaitOutcome::ShuttingDown => Response::Reply("ERR shutdown".into()),
            },
            Request::Query(server) => {
                let _timer = self.svc.inner.query_latency.span();
                match self.svc.query(server, &mut self.reader) {
                    Some(hit) => Response::Reply(hit.reply().into()),
                    None => Response::Reply("MISS".into()),
                }
            }
            Request::Stats => Response::Reply(self.svc.stats_json().into()),
            Request::Report => {
                let snap = self.svc.inner.cell.read(&mut self.reader);
                Response::Reply(snap.campaigns_canonical_json().into())
            }
            Request::Shutdown => Response::Shutdown("OK".into()),
        }
    }
}

/// Waits for work and claims it: returns the target epoch with the
/// token the new mine runs under — installed in the same critical
/// section that picked the target, so a seal or shutdown landing just
/// after the pick still cancels it — or `None` on shutdown.
fn next_target(inner: &Inner) -> Option<(u64, CancelToken)> {
    let mut progress: MutexGuard<Progress> =
        inner.progress.lock().expect("progress mutex not poisoned");
    loop {
        if progress.shutdown {
            return None;
        }
        if progress.sealed > progress.published.max(progress.failed) {
            let token = CancelToken::new();
            progress.mine = Some(token.clone());
            return Some((progress.sealed, token));
        }
        progress = inner
            .progress_cv
            .wait(progress)
            .expect("progress mutex not poisoned");
    }
}

/// The one way lines enter the worker's arena, for the replayed WAL and
/// every live epoch alike: [`decode_fields`] then
/// [`Appender::push_fields`](smash_trace::Appender::push_fields).
/// Publishes the arena's new size (`serve/arena/*`), so `STATS` shows
/// the cumulative trace.
fn absorb(inner: &Inner, dataset: &mut TraceDataset, lines: impl IntoIterator<Item = String>) {
    let mut appender = dataset.appender();
    for line in lines {
        match decode_fields(line.as_bytes()) {
            Ok(fields) => appender.push_fields(&fields),
            // Lines were validated at ingest; only disk rot inside a
            // checksummed envelope fails here.
            Err(_) => inner
                .metrics
                .counter("serve/recovery/bad_replay_line")
                .inc(),
        }
    }
    drop(appender);
    let gauge = |name: &str, value: u64| inner.metrics.gauge(name).set(value as f64);
    gauge("serve/arena/records", dataset.record_count() as u64);
    gauge("serve/arena/bytes", dataset.heap_bytes());
}

/// The supervised background miner (one per service), owner of the
/// arena: built here once per process by absorbing the replayed WAL,
/// then each newly sealed epoch, and only ever borrowed by a mine.
fn mine_worker(inner: &Inner, replayed: Vec<epoch::ReplayedEpoch>) {
    let mut dataset = TraceDataset::default();
    absorb(
        inner,
        &mut dataset,
        replayed.into_iter().flat_map(|ep| ep.lines),
    );
    inner
        .metrics
        .counter("serve/recovery/records_replayed")
        .add(dataset.record_count() as u64);
    while let Some((target, token)) = next_target(inner) {
        let fresh = {
            let mut state = inner.state.lock().expect("state mutex not poisoned");
            std::mem::take(&mut state.unabsorbed)
        };
        absorb(inner, &mut dataset, fresh.into_iter().flatten());
        inner.metrics.counter("serve/mine/started").inc();
        let gov = GovernorOptions {
            deadline_ms: inner.opts.mine_deadline_ms,
            cancel: Some(token.clone()),
        };
        // Supervision: panic isolation inside, the shared deterministic
        // backoff schedule outside. A mine that dies (injected fault,
        // real bug) is retried up to the retry budget; exhaustion marks
        // the epoch failed and keeps serving the previous snapshot.
        let seed = ckpt::fnv1a(format!("serve/mine/{target}").as_bytes());
        let (result, retries) = retry::retry_transient(seed, || {
            failpoint::check("serve/mine")?;
            if token.is_cancelled() {
                // Don't burn retry attempts re-running a superseded or
                // shutting-down mine; the outer loop re-targets.
                return Err("mine cancelled".to_owned());
            }
            par::run_isolated(|| {
                inner
                    .smash
                    .run_governed(&dataset, &inner.whois, &inner.metrics, Some(&gov))
            })
        });
        if retries > 0 {
            inner
                .metrics
                .counter("serve/mine/restarts")
                .add(u64::from(retries));
        }
        // Only shutdown and newer seals cancel the token (a deadline
        // cancels the run's child token), and both act in this mutex:
        // past this section nothing can cancel the finished mine.
        let superseded = {
            let mut progress = inner.progress.lock().expect("progress mutex not poisoned");
            progress.mine = None;
            if progress.shutdown {
                return;
            }
            progress.sealed > target
        };
        if superseded {
            // A newer epoch sealed while this mine ran: its result
            // covers a strict prefix; loop and mine the new target.
            continue;
        }
        // A mine whose main dimension did not complete (the mine
        // deadline cancelled it, or it panicked) found nothing to
        // correlate: its empty report is no answer for the epoch.
        let result =
            result.and_then(
                |report| match report.health.status_of(DimensionKind::Client) {
                    Some(DimensionStatus::Ok) => Ok(report),
                    status => Err(format!("client dimension did not complete: {status:?}")),
                },
            );
        match result {
            Ok(report) => {
                let prev = inner.cell.peek();
                let snap = ServeSnapshot::from_report(target, &report, &prev);
                let path = inner.opts.data_dir.join(SNAPSHOT_FILE);
                match snap.save(&path) {
                    Ok(()) => {
                        failpoint::fire("serve/after/publish");
                        inner.cell.publish(Arc::new(snap));
                        let mut progress =
                            inner.progress.lock().expect("progress mutex not poisoned");
                        progress.published = progress.published.max(target);
                        // Every sealed epoch is visible: stop (and so
                        // record) the seal → publish clock.
                        let caught_up = (progress.published >= progress.sealed)
                            .then(|| progress.unpublished_since.take());
                        inner.progress_cv.notify_all();
                        drop(progress);
                        drop(caught_up);
                        inner.metrics.counter("serve/publish/ok").inc();
                    }
                    Err(e) => {
                        eprintln!("serve: snapshot publish for epoch {target} failed: {e}");
                        inner.metrics.counter("serve/publish/failed").inc();
                        mark_failed(inner, target);
                    }
                }
            }
            Err(msg) => {
                eprintln!("serve: mine for epoch {target} failed: {msg}");
                inner.metrics.counter("serve/mine/failed").inc();
                mark_failed(inner, target);
            }
        }
    }
}

fn mark_failed(inner: &Inner, target: u64) {
    let mut progress = inner.progress.lock().expect("progress mutex not poisoned");
    progress.failed = progress.failed.max(target);
    inner.progress_cv.notify_all();
}

impl std::fmt::Debug for CampaignService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (sealed, published, failed) = self.epochs();
        f.debug_struct("CampaignService")
            .field("data_dir", &self.inner.opts.data_dir)
            .field("sealed", &sealed)
            .field("published", &published)
            .field("failed", &failed)
            .finish()
    }
}
