//! JSONL import/export of raw HTTP records.
//!
//! The paper's input is PCAP; our portable interchange format is one JSON
//! object per line, which is trivially produced from any flow log.
//!
//! There is one reader. It cuts the byte stream into chunks of
//! [`CHUNK_BYTES`], each ending at its last `\n`, and worker threads
//! decode the chunks side by side: each line into borrowed fields
//! ([`decode_fields`] — no JSON tree, no owned strings), bad lines
//! counted per error class in an [`IngestReport`], good ones built into
//! a per-chunk form — a chunk-local interned arena for
//! [`read_jsonl_into`] (the CLI's path), owned rows for
//! [`read_jsonl_lenient`]. One ordered merge folds the chunks into the
//! caller in input order, spilling bad lines to an optional quarantine
//! sidecar, and an *error budget* tells a dirty trace (ingest what you
//! can) from the wrong file entirely ([`IngestError::BudgetExceeded`]).
//! Dirty edge-of-ISP flow logs want the default 5%; files we wrote
//! ourselves want *strict* — the same reader at budget 0, failing on the
//! first malformed line ([`read_jsonl`], [`read_jsonl_file`]).

use crate::dataset::{Appender, ChunkArena};
use crate::record::{HttpRecord, RecordFields};
use smash_support::ckpt;
use smash_support::failpoint;
use smash_support::governor::CancelToken;
use smash_support::impl_json_struct;
use smash_support::json::{self, Scalar};
use smash_support::metrics::Registry;
use smash_support::par;
use smash_support::retry;
use smash_support::swar;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::net::Ipv4Addr;
use std::panic;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Mutex, PoisonError};

/// Per-error-class counts from one ingest.
///
/// `lines` counts every non-blank input line; `records` counts the ones
/// that decoded. The difference is broken down by error class, so an
/// operator can tell "5% of lines had a mangled IP field" from "this is
/// not JSONL at all".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Non-blank lines seen.
    pub lines: usize,
    /// Records successfully decoded.
    pub records: usize,
    /// Lines longer than [`MAX_LINE_BYTES`].
    pub oversized: usize,
    /// Lines that were not valid UTF-8 JSON.
    pub bad_json: usize,
    /// Well-formed JSON whose `server_ip` was not an IPv4 literal.
    pub bad_ip: usize,
    /// Well-formed JSON with another missing or mistyped field.
    pub bad_field: usize,
    /// Bad lines spilled to the quarantine sidecar.
    pub quarantined: usize,
}

impl_json_struct!(IngestReport {
    lines,
    records,
    oversized,
    bad_json,
    bad_ip,
    bad_field,
    quarantined,
});

impl IngestReport {
    /// Total rejected lines across all error classes.
    pub fn bad_lines(&self) -> usize {
        self.oversized + self.bad_json + self.bad_ip + self.bad_field
    }

    /// Adds another part of the same ingest's tally.
    fn add(&mut self, part: &IngestReport) {
        self.lines += part.lines;
        self.records += part.records;
        self.oversized += part.oversized;
        self.bad_json += part.bad_json;
        self.bad_ip += part.bad_ip;
        self.bad_field += part.bad_field;
        self.quarantined += part.quarantined;
    }

    /// Fraction of input lines rejected (0 for an empty input).
    pub fn bad_fraction(&self) -> f64 {
        if self.lines == 0 {
            0.0
        } else {
            self.bad_lines() as f64 / self.lines as f64
        }
    }
}

/// Tuning knobs for ingest.
#[derive(Debug, Clone)]
pub struct IngestOptions {
    /// Maximum tolerated [`IngestReport::bad_fraction`]; exceeding it
    /// fails the whole ingest with [`IngestError::BudgetExceeded`].
    /// Default 0.05 — the "dirty trace vs. wrong file" line; 0 is
    /// strict mode.
    pub error_budget: f64,
    /// When set, raw rejected lines are appended to this sidecar file
    /// for offline inspection.
    pub quarantine: Option<PathBuf>,
    /// When set, the reader polls this token once per chunk it reads,
    /// before cutting it, and aborts with [`IngestError::Cancelled`]
    /// once it fires — so nothing read after the firing is merged
    /// (governor deadlines and run-level cancellation reach ingest
    /// through here).
    pub cancel: Option<CancelToken>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            error_budget: 0.05,
            quarantine: None,
            cancel: None,
        }
    }
}

impl IngestOptions {
    /// Sets the error budget (fraction of bad lines tolerated).
    pub fn with_error_budget(mut self, budget: f64) -> Self {
        self.error_budget = budget;
        self
    }

    /// Sets the quarantine sidecar path.
    pub fn with_quarantine<P: Into<PathBuf>>(mut self, path: P) -> Self {
        self.quarantine = Some(path.into());
        self
    }

    /// Sets the cooperative cancellation token polled during ingest.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Bytes the reader takes in one read: each chunk is the partial line
/// the last one left over plus the next `CHUNK_BYTES` of input, cut at
/// its last `\n`. Big enough that a chunk's strings repeat (a chunk of
/// a generated day holds about a thousand records) and the cancellation
/// poll and per-chunk hand-off never show in a profile; small enough
/// that the chunks in flight cost a few MiB. A constant, not an option.
pub const CHUNK_BYTES: usize = 256 << 10;

/// Lines longer than this are rejected without being held: the reader
/// keeps at most this many bytes plus one chunk of any line and reads
/// the rest through to its `\n`, streaming it to the quarantine sidecar
/// if there is one. The one exception is a line that is still all
/// whitespace past the cap while a sidecar is set: it is held until it
/// proves blank (skipped) or not (spilled). A constant, not an option.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Chunks cut but not yet merged, per worker thread: enough that a
/// worker finding its next chunk never waits on the merge, few enough
/// that memory stays a handful of chunks.
const IN_FLIGHT_PER_WORKER: usize = 2;

/// Returns [`IngestError::Cancelled`] if the optional token has fired.
fn check_cancel(cancel: Option<&CancelToken>) -> Result<(), IngestError> {
    match cancel {
        Some(t) if t.is_cancelled() => Err(IngestError::Cancelled(
            t.reason()
                .unwrap_or_else(|| "governor: cancelled".to_owned()),
        )),
        _ => Ok(()),
    }
}

/// An ingest that could not produce a usable dataset.
#[derive(Debug)]
pub enum IngestError {
    /// Underlying I/O failure (including quarantine-sidecar writes).
    Io(io::Error),
    /// More lines were bad than the error budget allows.
    BudgetExceeded {
        /// Rejected lines, by class.
        report: IngestReport,
        /// The budget that was exceeded.
        budget: f64,
    },
    /// The [`IngestOptions::cancel`] token fired (deadline or explicit
    /// cancellation); the payload is the cancellation reason.
    Cancelled(String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest failed: {e}"),
            IngestError::BudgetExceeded { report, budget } => write!(
                f,
                "ingest error budget exceeded: {}/{} lines bad ({:.1}% > {:.1}% budget; \
                 {} oversized, {} bad json, {} bad ip, {} bad field) — is this the right file?",
                report.bad_lines(),
                report.lines,
                report.bad_fraction() * 100.0,
                budget * 100.0,
                report.oversized,
                report.bad_json,
                report.bad_ip,
                report.bad_field,
            ),
            IngestError::Cancelled(reason) => write!(f, "ingest cancelled: {reason}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        IngestError::Io(e)
    }
}

/// Lazily-opened quarantine sidecar: bad lines only, created on first
/// spill so a clean ingest leaves no empty sidecar behind.
struct Quarantine<'a> {
    path: Option<&'a Path>,
    file: Option<BufWriter<File>>,
}

impl<'a> Quarantine<'a> {
    fn new(path: Option<&'a Path>) -> Self {
        Self { path, file: None }
    }

    /// Whether bad lines are kept at all.
    fn is_on(&self) -> bool {
        self.path.is_some()
    }

    /// Appends bad-line bytes, retrying transient I/O errors with the
    /// same bounded deterministic backoff the serve WAL uses (the
    /// jitter seed is a function of the sidecar path). A flaky
    /// filesystem costs a retry, not the quarantined evidence.
    fn write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let Some(path) = self.path.filter(|_| !bytes.is_empty()) else {
            return Ok(());
        };
        let file = &mut self.file;
        let (res, _retries) = retry::retry_transient(
            ckpt::fnv1a(path.as_os_str().as_encoded_bytes()),
            || -> io::Result<()> {
                failpoint::check("ingest/quarantine").map_err(io::Error::other)?;
                if file.is_none() {
                    *file = Some(BufWriter::new(File::create(path)?));
                }
                let f = file.as_mut().expect("just created");
                f.write_all(bytes)
            },
        );
        res
    }

    fn finish(self) -> io::Result<()> {
        match self.file {
            Some(mut f) => f.flush(),
            None => Ok(()),
        }
    }
}

/// Why one record line failed to decode, mirroring the
/// [`IngestReport`] error classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineError {
    /// Not valid UTF-8 JSON.
    BadJson,
    /// Well-formed JSON whose `server_ip` was not an IPv4 literal.
    BadIp,
    /// Well-formed JSON with another missing or mistyped field.
    BadField,
}

impl LineError {
    /// The error-class slug used in protocol `ERR` replies and reports.
    pub fn class(self) -> &'static str {
        match self {
            LineError::BadJson => "bad-json",
            LineError::BadIp => "bad-ip",
            LineError::BadField => "bad-field",
        }
    }
}

/// One field's decode state: `None` until its key is seen, then
/// `Some(None)` for a mistyped value or `Some(Some(v))` for a decoded
/// one.
type Slot<T> = Option<Option<T>>;

/// Fills `slot` unless an earlier occurrence of the key already did:
/// the first of duplicate members wins.
fn fill<T>(slot: &mut Slot<T>, v: Option<T>) {
    if slot.is_none() {
        *slot = Some(v);
    }
}

/// An integer member, by the rules of the unsigned `FromJson` impls
/// ([`Scalar::as_u64`]): an integral float counts, a negative or
/// out-of-range value does not. Straight from the scalar: no `Json`
/// is built and dropped.
fn number<T: TryFrom<u64>>(v: Option<Scalar<'_>>) -> Option<T> {
    T::try_from(v?.as_u64()?).ok()
}

/// A string member.
fn text(v: Option<Scalar<'_>>) -> Option<Cow<'_, str>> {
    match v? {
        Scalar::Str(s) => Some(s),
        _ => None,
    }
}

/// A string-or-`null` member.
fn optional_text(v: Option<Scalar<'_>>) -> Option<Option<Cow<'_, str>>> {
    match v? {
        Scalar::Null => Some(None),
        Scalar::Str(s) => Some(Some(s)),
        _ => None,
    }
}

/// Decodes one JSONL record line into borrowed fields: the reader's
/// per-line core, shared with the serve layer's wire protocol so a
/// hostile `INGEST` line is classified exactly like a hostile trace
/// line. No JSON tree is built and nothing is allocated unless a
/// string carries an escape: the line is validated as UTF-8 once and
/// each member goes from its bytes straight into its typed field.
///
/// `resp_bytes` defaults to 0 when absent; `referrer` and `redirect_to`
/// must be present (`null` or a string); members with other names are
/// validated and ignored.
///
/// # Errors
///
/// A [`LineError`] naming the failing class — for syntactically valid
/// JSON, an unparseable or mistyped `server_ip` is its own class and
/// any other missing or mistyped field is `BadField`; never panics,
/// whatever the bytes.
pub fn decode_fields(raw: &[u8]) -> Result<RecordFields<'_>, LineError> {
    let line = std::str::from_utf8(raw).map_err(|_| LineError::BadJson)?;
    let mut timestamp: Slot<u64> = None;
    let mut client = None;
    let mut host = None;
    let mut server_ip: Slot<Ipv4Addr> = None;
    let mut method = None;
    let mut uri = None;
    let mut user_agent = None;
    let mut referrer = None;
    let mut status: Slot<u16> = None;
    let mut resp_bytes: Slot<u32> = None;
    let mut redirect_to = None;
    json::visit_members(line, |key, v| match key {
        "timestamp" => fill(&mut timestamp, number(v)),
        "client" => fill(&mut client, text(v)),
        "host" => fill(&mut host, text(v)),
        "server_ip" => fill(&mut server_ip, text(v).and_then(|ip| ip.parse().ok())),
        "method" => fill(&mut method, text(v)),
        "uri" => fill(&mut uri, text(v)),
        "user_agent" => fill(&mut user_agent, text(v)),
        "referrer" => fill(&mut referrer, optional_text(v)),
        "status" => fill(&mut status, number(v)),
        "resp_bytes" => fill(&mut resp_bytes, number(v)),
        "redirect_to" => fill(&mut redirect_to, optional_text(v)),
        _ => {}
    })
    .map_err(|_| LineError::BadJson)?;
    // Whichever field failed, a `server_ip` that is present but not an
    // IPv4 string names the class.
    let class = if matches!(server_ip, Some(None)) {
        LineError::BadIp
    } else {
        LineError::BadField
    };
    let (
        Some(timestamp),
        Some(client),
        Some(host),
        Some(server_ip),
        Some(method),
        Some(uri),
        Some(user_agent),
        Some(referrer),
        Some(status),
        Some(resp_bytes),
        Some(redirect_to),
    ) = (
        timestamp.flatten(),
        client.flatten(),
        host.flatten(),
        server_ip.flatten(),
        method.flatten(),
        uri.flatten(),
        user_agent.flatten(),
        referrer.flatten(),
        status.flatten(),
        resp_bytes.unwrap_or(Some(0)),
        redirect_to.flatten(),
    )
    else {
        return Err(class);
    };
    Ok(RecordFields {
        timestamp,
        client,
        host,
        server_ip,
        method,
        uri,
        user_agent,
        referrer,
        status,
        resp_bytes,
        redirect_to,
    })
}

/// [`decode_fields`] into an owned record.
///
/// # Errors
///
/// See [`decode_fields`].
pub fn decode_record_line(raw: &[u8]) -> Result<HttpRecord, LineError> {
    decode_fields(raw).map(RecordFields::into_record)
}

/// A line without its trailing `\r`s (the `\n` is already cut).
fn trim_line(line: &[u8]) -> &[u8] {
    let end = line.iter().rposition(|&b| b != b'\r').map_or(0, |i| i + 1);
    line.get(..end).unwrap_or_default()
}

/// Blank lines (nothing but ASCII whitespace) are skipped, not counted.
fn is_blank(line: &[u8]) -> bool {
    line.iter().all(u8::is_ascii_whitespace)
}

/// `bytes.split(|&b| b == b'\n')`, a word at a time
/// ([`swar::position`]): every line without its `\n`, and after a
/// final `\n` one empty line.
fn lines(bytes: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut rest = Some(bytes);
    std::iter::from_fn(move || {
        let now = rest?;
        let Some(at) = swar::position(now, |w| swar::equal(w, b'\n')) else {
            rest = None;
            return Some(now);
        };
        rest = now.get(at + 1..);
        now.get(..at)
    })
}

/// The per-chunk form a reader builds good records into: filled on a
/// worker, merged in input order, then handed back to be emptied and
/// filled again, so each chunk's tables and rows reuse the last one's
/// allocations.
trait Chunk: Default + Send {
    /// Adds one decoded record.
    fn push(&mut self, fields: RecordFields<'_>);
    /// Empties the chunk, keeping its allocations.
    fn clear(&mut self);
}

/// [`read_jsonl_into`]'s chunks: interned on the worker.
impl Chunk for ChunkArena {
    fn push(&mut self, fields: RecordFields<'_>) {
        ChunkArena::push(self, &fields);
    }

    fn clear(&mut self) {
        ChunkArena::clear(self);
    }
}

/// [`read_jsonl_lenient`]'s chunks: owned rows.
impl Chunk for Vec<HttpRecord> {
    fn push(&mut self, fields: RecordFields<'_>) {
        Vec::push(self, fields.into_record());
    }

    fn clear(&mut self) {
        Vec::clear(self);
    }
}

/// One chunk, decoded: its good records in the caller's per-chunk form,
/// its tally, and — when a sidecar wants them — its bad lines, each
/// followed by `\n`.
struct Decoded<T> {
    out: T,
    report: IngestReport,
    bad: Vec<u8>,
    /// The chunk's bytes, handed back for the reader to refill.
    bytes: Vec<u8>,
}

/// The per-chunk half of the reader, run on a worker: frames the chunk
/// into lines, classifies each, and pushes the good ones into `out`.
/// Strict mode stops at the chunk's first bad line, so the tally counts
/// up to and including it. Lines over `max_line_bytes` are oversized.
fn decode_chunk<T: Chunk>(
    bytes: Vec<u8>,
    mut out: T,
    opts: &IngestOptions,
    max_line_bytes: usize,
) -> Decoded<T> {
    let lenient = opts.error_budget > 0.0;
    let keep_bad = opts.quarantine.is_some();
    out.clear();
    let mut report = IngestReport::default();
    let mut bad = Vec::new();
    for line in lines(&bytes) {
        if !lenient && report.bad_lines() > 0 {
            break;
        }
        // Byte-oriented framing: invalid UTF-8 must be a counted error
        // class, not an abort.
        let raw = trim_line(line);
        if is_blank(raw) {
            continue;
        }
        report.lines += 1;
        let class = if raw.len() > max_line_bytes {
            &mut report.oversized
        } else {
            match decode_fields(raw) {
                Ok(fields) => {
                    report.records += 1;
                    out.push(fields);
                    continue;
                }
                Err(LineError::BadJson) => &mut report.bad_json,
                Err(LineError::BadIp) => &mut report.bad_ip,
                Err(LineError::BadField) => &mut report.bad_field,
            }
        };
        *class += 1;
        if keep_bad {
            bad.extend_from_slice(raw);
            bad.push(b'\n');
            report.quarantined += 1;
        }
    }
    Decoded {
        out,
        report,
        bad,
        bytes,
    }
}

/// A chunk on its way to a worker, with the spent chunk form to refill
/// and the slot its result comes back in.
struct Job<T> {
    bytes: Vec<u8>,
    out: T,
    done: mpsc::SyncSender<Decoded<T>>,
}

/// The worker pool's end of the reader: the job queue and, in cut
/// order, the result slots of the chunks in flight.
struct Pool<T> {
    jobs: mpsc::Sender<Job<T>>,
    in_flight: VecDeque<mpsc::Receiver<Decoded<T>>>,
    depth: usize,
}

/// The reader's in-order half: cut chunks go in through
/// [`submit`](Self::submit) and come out of [`absorb`](Self::absorb)
/// in the order they were cut — decoded on the spot with one thread,
/// by the pool otherwise — their bad lines spilled, their tallies
/// summed and their records handed to `merge`.
struct Pipeline<'o, T, M> {
    opts: &'o IngestOptions,
    max_line_bytes: usize,
    merge: M,
    pool: Option<Pool<T>>,
    report: IngestReport,
    quarantine: Quarantine<'o>,
    /// Buffers of merged chunks, for the reader to refill.
    spare: Vec<Vec<u8>>,
    /// Chunk forms already merged, to be filled again.
    spent: Vec<T>,
}

impl<T: Chunk, M: FnMut(&mut T)> Pipeline<'_, T, M> {
    /// `false` once strict mode has met its bad line: nothing after it
    /// is read.
    fn going(&self) -> bool {
        self.report.bad_lines() == 0 || self.opts.error_budget > 0.0
    }

    /// Hands one cut chunk on: to the pool, merging the oldest chunk
    /// once `depth` are in flight, or straight through with no pool.
    fn submit(&mut self, bytes: Vec<u8>) -> Result<(), IngestError> {
        let out = self.spent.pop().unwrap_or_default();
        let Some(pool) = &mut self.pool else {
            let decoded = decode_chunk(bytes, out, self.opts, self.max_line_bytes);
            return self.absorb(decoded);
        };
        let (done, result) = mpsc::sync_channel(1);
        if pool.jobs.send(Job { bytes, out, done }).is_err() {
            return Err(worker_lost());
        }
        pool.in_flight.push_back(result);
        if pool.in_flight.len() >= pool.depth {
            self.absorb_oldest()?;
        }
        Ok(())
    }

    /// Merges every chunk in flight, oldest first, stopping early only
    /// where strict mode stops.
    fn drain(&mut self) -> Result<(), IngestError> {
        while self.going() && self.pool.as_ref().is_some_and(|p| !p.in_flight.is_empty()) {
            self.absorb_oldest()?;
        }
        Ok(())
    }

    /// Waits for the oldest chunk in flight and merges it.
    fn absorb_oldest(&mut self) -> Result<(), IngestError> {
        let Some(result) = self.pool.as_mut().and_then(|p| p.in_flight.pop_front()) else {
            return Ok(());
        };
        let decoded = result.recv().map_err(|_| worker_lost())?;
        self.absorb(decoded)
    }

    /// Merges one decoded chunk; past strict mode's stop, drops it.
    fn absorb(&mut self, mut d: Decoded<T>) -> Result<(), IngestError> {
        if self.going() {
            self.quarantine.write(&d.bad)?;
            self.report.add(&d.report);
            (self.merge)(&mut d.out);
        }
        self.spare.push(d.bytes);
        self.spent.push(d.out);
        Ok(())
    }
}

/// A worker that died mid-chunk: its panic is re-raised when the pool
/// is joined, so this error never reaches the caller.
fn worker_lost() -> IngestError {
    IngestError::Io(io::Error::other("ingest worker exited"))
}

/// Appends up to `n` more bytes of `r` to `buf`; `true` when the input
/// ended first.
fn read_more(r: &mut impl Read, buf: &mut Vec<u8>, n: usize) -> io::Result<bool> {
    buf.reserve(n);
    let got = r.by_ref().take(n as u64).read_to_end(buf)?;
    Ok(got < n)
}

/// The reader's front: reads `r` a chunk at a time, cuts each at its
/// last `\n` and submits it, carrying the partial line into the next
/// read. A partial line past the cap goes to [`long_line`].
fn cut<R: Read, T: Chunk, M: FnMut(&mut T)>(
    r: &mut R,
    chunk_bytes: usize,
    p: &mut Pipeline<'_, T, M>,
) -> Result<(), IngestError> {
    let opts = p.opts;
    let mut buf = Vec::new();
    // `buf[..clear]` is known to hold no `\n`.
    let mut clear = 0;
    while p.going() {
        let eof = read_more(r, &mut buf, chunk_bytes)?;
        // The one cancellation poll per chunk, before it is cut: no
        // chunk holding a byte read after the token fired is merged.
        check_cancel(opts.cancel.as_ref())?;
        if eof {
            // What is left, a last line without `\n` included.
            if !buf.is_empty() {
                p.submit(buf)?;
            }
            break;
        }
        let unscanned = buf.get(clear..).unwrap_or_default();
        match unscanned.iter().rposition(|&b| b == b'\n') {
            Some(at) => {
                let end = clear + at + 1;
                let mut next = p.spare.pop().unwrap_or_default();
                next.clear();
                next.extend_from_slice(buf.get(end..).unwrap_or_default());
                buf.truncate(end);
                p.submit(std::mem::replace(&mut buf, next))?;
            }
            None if buf.len() > p.max_line_bytes => {
                // The line reaches the sidecar, if at all, after every
                // line before it.
                p.drain()?;
                if p.going() {
                    long_line(r, chunk_bytes, &mut buf, p)?;
                }
                // What followed the long line is unscanned.
                clear = 0;
                continue;
            }
            None => {}
        }
        clear = buf.len();
    }
    p.drain()
}

/// How a line too long to hold is being read.
#[derive(Debug, Default, PartialEq, Eq)]
enum Keep {
    /// Every byte so far is in `head`: the line may yet fit under the
    /// cap (trailing `\r`s are trimmed) or prove blank.
    #[default]
    Hold,
    /// Oversized, and the sidecar has its bytes so far.
    Spill,
    /// Oversized or blank, with no sidecar: only counted.
    Count,
}

/// A line read through without being held: its trimmed length, whether
/// it is blank, and its first bytes while they may still be needed.
#[derive(Debug, Default)]
struct LongLine {
    head: Vec<u8>,
    len: usize,
    /// Trailing `\r`s seen but not yet part of the line: they are
    /// trimmed unless a later byte follows them.
    crs: usize,
    nonblank: bool,
    keep: Keep,
}

impl LongLine {
    /// Takes the next bytes of the line (none of them `\n`).
    fn feed(&mut self, piece: &[u8], max: usize, q: &mut Quarantine<'_>) -> io::Result<()> {
        const CRS: [u8; 4096] = [b'\r'; 4096];
        let Some(last) = piece.iter().rposition(|&b| b != b'\r') else {
            self.crs += piece.len();
            return Ok(());
        };
        while self.crs > 0 {
            let n = self.crs.min(CRS.len());
            self.crs -= n;
            self.push(CRS.get(..n).unwrap_or_default(), max, q)?;
        }
        self.push(piece.get(..=last).unwrap_or_default(), max, q)?;
        self.crs = piece.len() - last - 1;
        Ok(())
    }

    /// Appends bytes that are part of the line for good.
    fn push(&mut self, bytes: &[u8], max: usize, q: &mut Quarantine<'_>) -> io::Result<()> {
        if !self.nonblank {
            self.nonblank = !is_blank(bytes);
        }
        self.len += bytes.len();
        match self.keep {
            Keep::Hold => {
                self.head.extend_from_slice(bytes);
                if self.len > max && !q.is_on() {
                    self.head = Vec::new();
                    self.keep = Keep::Count;
                } else if self.len > max && self.nonblank {
                    // Oversized for good: a line only grows.
                    q.write(&self.head)?;
                    self.head = Vec::new();
                    self.keep = Keep::Spill;
                }
                Ok(())
            }
            Keep::Spill => q.write(bytes),
            Keep::Count => Ok(()),
        }
    }
}

/// Reads a line that outgrew the cap before its `\n` through
/// to the end, holding at most the cap plus one read of it: `buf` holds
/// its start on entry and whatever follows its `\n` on return. A line
/// that trims back under the cap is submitted as a chunk of its own; an
/// oversized one is counted here, its bytes already streamed to the
/// sidecar piece by piece.
fn long_line<R: Read, T: Chunk, M: FnMut(&mut T)>(
    r: &mut R,
    chunk_bytes: usize,
    buf: &mut Vec<u8>,
    p: &mut Pipeline<'_, T, M>,
) -> Result<(), IngestError> {
    let max = p.max_line_bytes;
    let mut line = LongLine::default();
    line.feed(buf, max, &mut p.quarantine)?;
    loop {
        buf.clear();
        let eof = read_more(r, buf, chunk_bytes)?;
        check_cancel(p.opts.cancel.as_ref())?;
        if let Some(at) = buf.iter().position(|&b| b == b'\n') {
            line.feed(buf.get(..at).unwrap_or_default(), max, &mut p.quarantine)?;
            buf.drain(..=at);
            break;
        }
        line.feed(buf, max, &mut p.quarantine)?;
        if eof {
            buf.clear();
            break;
        }
    }
    if !line.nonblank {
        return Ok(());
    }
    if line.len <= max {
        return p.submit(line.head);
    }
    p.report.lines += 1;
    p.report.oversized += 1;
    if line.keep == Keep::Spill {
        p.quarantine.write(b"\n")?;
        p.report.quarantined += 1;
    }
    Ok(())
}

/// The one JSONL reader, in chunks of `chunk_bytes` and with lines
/// capped at `max_line_bytes` (the public readers pass [`CHUNK_BYTES`]
/// and [`MAX_LINE_BYTES`]; tests pass small ones): cuts the stream,
/// decodes each chunk into a `T` on [`par::current_num_threads`]
/// workers (inline on one), and hands the `T`s to `merge` in input
/// order, counting (and optionally quarantining) malformed lines
/// instead of aborting. Blank lines are skipped. A zero error budget
/// cannot recover from a bad line, so strict mode stops at the first
/// one rather than reading on.
///
/// # Errors
///
/// Returns [`IngestError::Io`] on I/O failure,
/// [`IngestError::Cancelled`] when [`IngestOptions::cancel`] fires, and
/// [`IngestError::BudgetExceeded`] when more than
/// [`IngestOptions::error_budget`] of the lines were bad. `merge` may
/// already have received chunks by then; the caller discards them.
fn ingest<R: Read, T: Chunk>(
    mut r: R,
    opts: &IngestOptions,
    chunk_bytes: usize,
    max_line_bytes: usize,
    merge: impl FnMut(&mut T),
) -> Result<IngestReport, IngestError> {
    failpoint::check("ingest/jsonl").map_err(io::Error::other)?;
    check_cancel(opts.cancel.as_ref())?;
    let chunk_bytes = chunk_bytes.max(1);
    let mut p = Pipeline {
        opts,
        max_line_bytes,
        merge,
        pool: None,
        report: IngestReport::default(),
        quarantine: Quarantine::new(opts.quarantine.as_deref()),
        spare: Vec::new(),
        spent: Vec::new(),
    };
    let workers = par::current_num_threads();
    if workers <= 1 {
        cut(&mut r, chunk_bytes, &mut p)?;
    } else {
        let (jobs, queue) = mpsc::channel::<Job<T>>();
        let queue = Mutex::new(queue);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| loop {
                        // The guard is a temporary: released as soon as
                        // a job (or the closed queue) comes out. Nothing
                        // panics while holding it, and a receiver has no
                        // state to leave half-updated.
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).recv();
                        let Ok(Job { bytes, out, done }) = next else {
                            break;
                        };
                        // A reader that has stopped listening no longer
                        // wants the chunk.
                        let _ = done.send(decode_chunk(bytes, out, opts, max_line_bytes));
                    })
                })
                .collect();
            p.pool = Some(Pool {
                jobs,
                in_flight: VecDeque::new(),
                depth: workers * IN_FLIGHT_PER_WORKER,
            });
            let res = cut(&mut r, chunk_bytes, &mut p);
            // Closing the queue lets each worker finish its chunk and
            // exit; a worker's own panic reaches the caller intact.
            p.pool = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panic::resume_unwind(payload);
                }
            }
            res
        })?;
    }
    let Pipeline {
        report, quarantine, ..
    } = p;
    quarantine.finish()?;
    if report.bad_fraction() > opts.error_budget {
        return Err(IngestError::BudgetExceeded {
            report,
            budget: opts.error_budget,
        });
    }
    Ok(report)
}

/// Reads a JSONL trace into the arena behind `arena`: each chunk is
/// decoded and interned on its own (a chunk-local arena, built on a
/// worker) and merged into the arena in input order — the same ids,
/// postings and bytes as pushing every record through
/// [`Appender::push_fields`]. Counts the chunks in `ingest/chunks` and
/// times the ordered merge, the reader's one serial step, as
/// `stage/ingest/merge` (one observation per call).
///
/// # Errors
///
/// See [`read_jsonl_lenient`]; records of a failed ingest may already be
/// in the arena, and the caller discards it.
pub fn read_jsonl_into<R: Read>(
    r: R,
    opts: &IngestOptions,
    arena: &mut Appender<'_>,
    metrics: &Registry,
) -> Result<IngestReport, IngestError> {
    let chunks = metrics.counter("ingest/chunks");
    let mut merge = metrics.stopwatch("stage/ingest/merge");
    ingest(
        r,
        opts,
        CHUNK_BYTES,
        MAX_LINE_BYTES,
        |chunk: &mut ChunkArena| {
            chunks.inc();
            merge.time(|| arena.merge_chunk(chunk));
        },
    )
}

/// Reads JSONL records into a row vector, counting (and optionally
/// quarantining) malformed lines instead of aborting. Blank lines are
/// skipped. A zero error budget cannot recover from a bad line, so
/// strict mode stops at the first one rather than reading on.
///
/// # Errors
///
/// Returns [`IngestError::Io`] on I/O failure,
/// [`IngestError::Cancelled`] when [`IngestOptions::cancel`] fires, and
/// [`IngestError::BudgetExceeded`] when more than
/// [`IngestOptions::error_budget`] of the lines were bad.
pub fn read_jsonl_lenient<R: Read>(
    r: R,
    opts: &IngestOptions,
) -> Result<(Vec<HttpRecord>, IngestReport), IngestError> {
    let mut out = Vec::new();
    let report = ingest(
        r,
        opts,
        CHUNK_BYTES,
        MAX_LINE_BYTES,
        |rows: &mut Vec<HttpRecord>| {
            out.append(rows);
        },
    )?;
    Ok((out, report))
}

/// Writes records as JSONL to `w`.
///
/// A `&mut` writer may be passed since `Write` is implemented for mutable
/// references.
///
/// # Errors
///
/// Returns any underlying I/O or serialization error.
pub fn write_jsonl<W: Write>(mut w: W, records: &[HttpRecord]) -> io::Result<()> {
    for r in records {
        let line = smash_support::json::to_string(r);
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
    }
    Ok(())
}

/// Reads JSONL records from `r` strictly: [`read_jsonl_lenient`] with
/// an error budget of 0 and no quarantine. Blank lines are skipped.
///
/// A `&mut` reader may be passed since `Read` is implemented for mutable
/// references.
///
/// # Errors
///
/// Returns an error on I/O failure or at the first malformed line.
pub fn read_jsonl<R: Read>(r: R) -> io::Result<Vec<HttpRecord>> {
    read_jsonl_lenient(r, &IngestOptions::default().with_error_budget(0.0))
        .map(|(records, _)| records)
        .map_err(io::Error::other)
}

/// Writes records to the file at `path`, creating or truncating it.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_jsonl_file<P: AsRef<Path>>(path: P, records: &[HttpRecord]) -> io::Result<()> {
    write_jsonl(BufWriter::new(File::create(path)?), records)
}

/// Reads records from the file at `path`.
///
/// # Errors
///
/// Returns any underlying I/O error or malformed JSON.
pub fn read_jsonl_file<P: AsRef<Path>>(path: P) -> io::Result<Vec<HttpRecord>> {
    read_jsonl(File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceDataset;
    use smash_support::wire;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn lines_split_at_every_newline_as_split_does() {
        // Random bytes: newlines, `\r\n`, bytes ≥ 0x80, tails shorter
        // than a word, and the empty input.
        smash_support::check::cases(512).run(
            |g| g.vec(0..=40usize, |g| *g.pick(b"\n\n\ra{\"\x80\xff\xc3\xa9 ")),
            |bytes: &Vec<u8>| {
                let want: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
                assert_eq!(lines(bytes).collect::<Vec<_>>(), want);
            },
        );
        // A newline at every offset mod 8, alone, as `\r\n` and beside
        // another, in inputs of every length up to three words.
        for len in 0..=24 {
            for at in 0..len {
                for end in [&b"\n"[..], b"\r\n", b"\n\n"] {
                    let mut bytes = vec![b'x'; len];
                    bytes.splice(at..at, end.iter().copied());
                    let want: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
                    assert_eq!(lines(&bytes).collect::<Vec<_>>(), want, "{bytes:?}");
                }
            }
        }
    }

    /// A fresh directory per call: the process id plus a counter keep
    /// parallel test invocations (and parallel `cargo test` processes)
    /// from racing on a shared fixed path.
    fn unique_test_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "smash-trace-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The `ingest/quarantine` failpoint is process-global: the tests
    /// that arm it, and the one that must see an unfaulted sidecar,
    /// take turns. (`ingest/jsonl` is armed only from the root
    /// `tests/fault_injection.rs`, a process of its own.)
    static QUARANTINE_FAILPOINT: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn sample() -> Vec<HttpRecord> {
        vec![
            HttpRecord::new(0, "c1", "x.com", "1.1.1.1", "/a.php?k=1").with_user_agent("UA"),
            HttpRecord::new(9, "c2", "1.2.3.4", "1.2.3.4", "/b").with_status(404),
        ]
    }

    #[test]
    fn round_trip_via_buffer() {
        let recs = sample();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &recs).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(recs, back);
    }

    #[test]
    fn blank_lines_skipped() {
        let recs = sample();
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &recs).unwrap();
        buf.extend_from_slice(b"\n\n");
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(read_jsonl(&b"{not json}\n"[..]).is_err());
    }

    #[test]
    fn strict_is_the_lenient_loop_with_a_zero_budget() {
        // Fails at the first bad line, without reading (or counting)
        // what follows it, and enforces the same line cap.
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(b"{not json}\n{not json either}\n");
        let strict = IngestOptions::default().with_error_budget(0.0);
        match read_jsonl_lenient(&buf[..], &strict) {
            Err(IngestError::BudgetExceeded { report, .. }) => {
                assert_eq!((report.lines, report.records, report.bad_json), (3, 2, 1));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        let mut long = vec![b' '; MAX_LINE_BYTES];
        long.extend_from_slice(b"{}\n");
        assert!(read_jsonl(&long[..]).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = unique_test_dir("io");
        let path = dir.join("trace.jsonl");
        let recs = sample();
        write_jsonl_file(&path, &recs).unwrap();
        let back = read_jsonl_file(&path).unwrap();
        assert_eq!(recs, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The reader's meaning, one line at a time — what cutting the
    /// input into chunks must never change: the arena, the tally (strict
    /// mode stops after its first bad line) and the sidecar bytes.
    fn per_line_oracle(
        input: &[u8],
        opts: &IngestOptions,
        max_line_bytes: usize,
    ) -> (TraceDataset, IngestReport, Vec<u8>) {
        let mut ds = TraceDataset::default();
        let mut report = IngestReport::default();
        let mut sidecar = Vec::new();
        let mut arena = ds.appender();
        for line in input.split(|&b| b == b'\n') {
            if report.bad_lines() > 0 && opts.error_budget <= 0.0 {
                break;
            }
            let end = line.iter().rposition(|&b| b != b'\r').map_or(0, |i| i + 1);
            let raw = &line[..end];
            if raw.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            report.lines += 1;
            match (raw.len() > max_line_bytes, decode_fields(raw)) {
                (true, _) => report.oversized += 1,
                (false, Ok(fields)) => {
                    report.records += 1;
                    arena.push_fields(&fields);
                    continue;
                }
                (false, Err(LineError::BadJson)) => report.bad_json += 1,
                (false, Err(LineError::BadIp)) => report.bad_ip += 1,
                (false, Err(LineError::BadField)) => report.bad_field += 1,
            }
            sidecar.extend_from_slice(raw);
            sidecar.push(b'\n');
            report.quarantined += 1;
        }
        drop(arena);
        (ds, report, sidecar)
    }

    /// The chunked reader into an arena, at one chunk size and line
    /// cap: the arena, the tally (from the error, for a blown budget)
    /// and the sidecar.
    fn chunked(
        input: &[u8],
        opts: &IngestOptions,
        chunk_bytes: usize,
        max_line_bytes: usize,
    ) -> (TraceDataset, IngestReport, Vec<u8>) {
        let sidecar = opts.quarantine.as_deref().unwrap();
        std::fs::remove_file(sidecar).ok();
        let mut ds = TraceDataset::default();
        let mut arena = ds.appender();
        let res = ingest(
            input,
            opts,
            chunk_bytes,
            max_line_bytes,
            |chunk: &mut ChunkArena| arena.merge_chunk(chunk),
        );
        drop(arena);
        let report = match res {
            Ok(report) | Err(IngestError::BudgetExceeded { report, .. }) => report,
            Err(e) => panic!("chunk {chunk_bytes}: {e}"),
        };
        (ds, report, std::fs::read(sidecar).unwrap_or_default())
    }

    #[test]
    fn streamed_fields_build_the_same_arena_as_owned_records() {
        // Hosts the appender's memo must not conflate or split — one
        // server's spellings, a multi-label suffix, IP literals, hosts
        // seen only as referrer or redirect target, every `?` shape —
        // and every framing case a chunk edge can land in: CRLF, blank
        // and whitespace-only lines, a bare `\r` line, bad lines of each
        // class, and a last line without `\n`.
        let records = vec![
            HttpRecord::new(0, "c1", "WWW.Shop.COM", "9.9.9.9", "/buy.php?id=4&q=x"),
            HttpRecord::new(1, "c2", "shop.com.", "9.9.9.8", "/buy.php?"),
            HttpRecord::new(2, "c1", "img.shop.com", "9.9.9.9", "/logo.png")
                .with_referrer("Shop.com"),
            HttpRecord::new(3, "c3", "a.b.co.uk", "8.8.8.8", "/dir/")
                .with_referrer("only-ref.org."),
            HttpRecord::new(4, "c3", "x.b.co.uk", "8.8.8.8", "/")
                .with_redirect_to("ONLY-TARGET.net"),
            HttpRecord::new(5, "c2", "1.2.3.4", "1.2.3.4", "/?k").with_referrer("1.2.3.4"),
            HttpRecord::new(6, "c4", "5.6.7.8", "1.2.3.4", "/a\"b\\é.php")
                .with_redirect_to("5.6.7.8"),
            HttpRecord::new(7, "c4", "www.shop.com", "9.9.9.9", "/buy.php?id=5&q=y")
                .with_referrer("a.b.co.uk"),
        ];
        let mut jsonl = Vec::new();
        write_jsonl(&mut jsonl, &records).unwrap();
        let owned = TraceDataset::from_records(read_jsonl(&jsonl[..]).unwrap());
        let names: Vec<&str> = owned.server_ids().map(|s| owned.server_name(s)).collect();
        assert_eq!(
            names,
            [
                "shop.com",
                "b.co.uk",
                "only-ref.org",
                "only-target.net",
                "1.2.3.4",
                "5.6.7.8"
            ]
        );
        let params: Vec<&str> = owned
            .records()
            .map(|r| owned.param_pattern_name(r.param_pattern))
            .collect();
        assert_eq!(
            params,
            ["id=[]&q=[]", "", "", "", "", "k=[]", "", "id=[]&q=[]"]
        );

        let mut clean = Vec::new();
        for (i, line) in jsonl.split_inclusive(|&b| b == b'\n').enumerate() {
            let line = line.strip_suffix(b"\n").unwrap();
            clean.extend_from_slice(line);
            clean.extend_from_slice(if i % 2 == 0 { b"\r\n" } else { b"\n" });
            clean.extend_from_slice([&b""[..], b"\n", b" \t\r\n", b"\r\r\n"][i % 4]);
        }
        let mut dirty = clean.clone();
        dirty.extend_from_slice(&dirty_buffer(4, 3));
        // Lines that outgrow a 100-byte cap before their `\n`: one that
        // trims back under it, one that is blank, one whose whitespace
        // run ends in a record, and one with a `\r` run inside.
        let cr = |n| b"\r".repeat(n);
        dirty.extend_from_slice(&[&b"{}"[..], &cr(300), b"\n"].concat());
        dirty.extend_from_slice(&[&b" \t".repeat(150)[..], &cr(3), b"\n"].concat());
        dirty.extend_from_slice(&[&b" ".repeat(150)[..], &jsonl].concat());
        dirty.extend_from_slice(&[&b"{\"a\":"[..], &cr(200), b"1}", &cr(2), b"\n"].concat());
        dirty.extend_from_slice(&clean);
        let mut hostile = dirty.clone();
        hostile.extend_from_slice(&b"[".repeat(200_000));
        hostile.extend_from_slice(b"\r\n");
        hostile.extend_from_slice(&clean);
        hostile.extend_from_slice(&b"{".repeat(300));
        // …and the last line of each input has no `\n`.
        for input in [&mut clean, &mut dirty, &mut hostile] {
            input.extend_from_slice(jsonl.split(|&b| b == b'\n').next().unwrap());
        }

        let dir = unique_test_dir("chunk-oracle");
        let sidecar = dir.join("oracle.quarantine");
        let lenient = IngestOptions::default()
            .with_error_budget(1.0)
            .with_quarantine(&sidecar);
        let strict = lenient.clone().with_error_budget(0.0);
        let cases: [(&[u8], Vec<usize>); 3] = [
            (&clean, (1..=48).chain([CHUNK_BYTES]).collect()),
            (&dirty, vec![1, 2, 5, 13, 64, 333, CHUNK_BYTES]),
            (&hostile, vec![7, 4096, CHUNK_BYTES]),
        ];
        for threads in [1, 2, 4] {
            smash_support::par::set_thread_count(threads);
            for (input, chunk_sizes) in &cases {
                // The lenient reader also runs under a 100-byte line cap.
                for (opts, max) in [
                    (&lenient, MAX_LINE_BYTES),
                    (&strict, MAX_LINE_BYTES),
                    (&lenient, 100),
                ] {
                    let (want, want_report, want_sidecar) = per_line_oracle(input, opts, max);
                    for &chunk_bytes in chunk_sizes {
                        let at = format!("{threads} threads, {chunk_bytes} B chunks, {max} B cap");
                        let (got, report, spilled) = chunked(input, opts, chunk_bytes, max);
                        assert_eq!(report, want_report, "{at}");
                        assert_eq!(spilled, want_sidecar, "{at}");
                        assert_eq!(got.validate(), Ok(()), "{at}");
                        assert_eq!(wire::encode(&got), wire::encode(&want), "{at}");
                        assert_eq!(
                            crate::day::frame_day(&got),
                            crate::day::frame_day(&want),
                            "{at}"
                        );
                        assert_eq!(got.fingerprint(), want.fingerprint(), "{at}");
                    }
                }
            }
            // The owned rows of the other chunk form build the same arena.
            let (rows, _) = read_jsonl_lenient(&hostile[..], &lenient).unwrap();
            let want = per_line_oracle(&hostile, &lenient, MAX_LINE_BYTES).0;
            assert_eq!(
                TraceDataset::from_records(rows).fingerprint(),
                want.fingerprint()
            );
        }
        smash_support::par::set_thread_count(0);
        let (clean_ds, ..) = per_line_oracle(&clean, &strict, MAX_LINE_BYTES);
        assert_eq!(clean_ds.record_count(), records.len() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Reads through to `inner`, firing `token` once `after` bytes have
    /// gone by; remembers how much had been read before the read that
    /// fired it.
    struct FiresAfter<'a> {
        inner: &'a [u8],
        read: usize,
        after: usize,
        token: CancelToken,
        before_firing: Option<usize>,
    }

    impl Read for FiresAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            if self.before_firing.is_none() && self.read + n >= self.after {
                self.before_firing = Some(self.read);
                self.token.cancel("governor: run deadline exceeded");
            }
            self.read += n;
            Ok(n)
        }
    }

    #[test]
    fn cancellation_merges_no_chunk_cut_after_the_firing() {
        let records: Vec<HttpRecord> = (0..3000)
            .map(|i| HttpRecord::new(i, &format!("c{}", i % 50), "ok.com", "1.1.1.1", "/"))
            .collect();
        let mut input = Vec::new();
        write_jsonl(&mut input, &records).unwrap();
        for threads in [1, 2, 4] {
            smash_support::par::set_thread_count(threads);
            for after in [1, 5000, 70_000, input.len() - 1] {
                let token = CancelToken::new();
                let mut reader = FiresAfter {
                    inner: &input,
                    read: 0,
                    after,
                    token: token.clone(),
                    before_firing: None,
                };
                let opts = IngestOptions::default().with_cancel(token);
                let mut merged = 0;
                let res = ingest(
                    &mut reader,
                    &opts,
                    4096,
                    MAX_LINE_BYTES,
                    |rows: &mut Vec<HttpRecord>| merged += rows.len(),
                );
                assert!(matches!(res, Err(IngestError::Cancelled(_))), "{res:?}");
                // Every record merged ended before the read that fired.
                let before = reader.before_firing.unwrap();
                let complete = input[..before].iter().filter(|&&b| b == b'\n').count();
                assert!(
                    merged <= complete,
                    "{threads} threads: {merged} > {complete}"
                );
            }
        }
        smash_support::par::set_thread_count(0);
    }

    /// A buffer of `good` valid lines with `bad` malformed ones mixed in.
    fn dirty_buffer(good: usize, bad: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()[..1.min(good)]).unwrap();
        for i in 1..good {
            write_jsonl(
                &mut buf,
                &[HttpRecord::new(i as u64, "c", "ok.com", "1.1.1.1", "/")],
            )
            .unwrap();
        }
        for i in 0..bad {
            match i % 3 {
                0 => buf.extend_from_slice(b"{not json at all\n"),
                1 => buf.extend_from_slice(
                    br#"{"timestamp":0,"client":"c","host":"h","server_ip":"999.1.2.3","method":"GET","uri":"/","user_agent":"","referrer":null,"status":200,"redirect_to":null}
"#,
                ),
                _ => buf.extend_from_slice(b"\xff\xfe garbage bytes\n"),
            }
        }
        buf
    }

    #[test]
    fn lenient_within_budget_counts_error_classes() {
        let buf = dirty_buffer(97, 3);
        let (recs, report) = read_jsonl_lenient(&buf[..], &IngestOptions::default()).unwrap();
        assert_eq!(recs.len(), 97);
        assert_eq!(report.records, 97);
        assert_eq!(report.lines, 100);
        assert_eq!(report.bad_lines(), 3);
        assert_eq!(report.bad_json, 2); // `{not json` + invalid UTF-8
        assert_eq!(report.bad_ip, 1);
        assert_eq!(report.quarantined, 0); // no sidecar requested
    }

    #[test]
    fn lenient_over_budget_fails_fast_with_structured_error() {
        let buf = dirty_buffer(90, 10);
        let err = read_jsonl_lenient(&buf[..], &IngestOptions::default()).unwrap_err();
        match &err {
            IngestError::BudgetExceeded { report, budget } => {
                assert_eq!(report.bad_lines(), 10);
                assert_eq!(report.lines, 100);
                assert_eq!(*budget, 0.05);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        assert!(err.to_string().contains("right file"), "got: {err}");
        // A budget of 1.0 accepts anything.
        let (recs, _) =
            read_jsonl_lenient(&buf[..], &IngestOptions::default().with_error_budget(1.0)).unwrap();
        assert_eq!(recs.len(), 90);
    }

    #[test]
    fn lenient_quarantines_bad_lines_to_sidecar() {
        let _turn = QUARANTINE_FAILPOINT
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = unique_test_dir("quarantine");
        let sidecar = dir.join("trace.quarantine");
        let buf = dirty_buffer(97, 3);
        let opts = IngestOptions::default().with_quarantine(&sidecar);
        let (_, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(report.quarantined, 3);
        let spilled = std::fs::read(&sidecar).unwrap();
        assert_eq!(spilled.iter().filter(|&&b| b == b'\n').count(), 3);
        assert!(spilled.windows(8).any(|w| w == b"not json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_clean_ingest_leaves_no_sidecar() {
        let dir = unique_test_dir("no-sidecar");
        let sidecar = dir.join("clean.quarantine");
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        let opts = IngestOptions::default().with_quarantine(&sidecar);
        let (recs, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(report.bad_lines(), 0);
        assert!(!sidecar.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lenient_oversized_lines_rejected_unread() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(&vec![b'x'; 600]);
        buf.push(b'\n');
        let opts = IngestOptions::default().with_error_budget(1.0);
        let mut recs = Vec::new();
        let report = ingest(&buf[..], &opts, CHUNK_BYTES, 512, |rows: &mut Vec<_>| {
            recs.append(rows)
        })
        .unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(report.oversized, 1);
    }

    #[test]
    fn lenient_empty_input_is_clean() {
        let (recs, report) = read_jsonl_lenient(&b""[..], &IngestOptions::default()).unwrap();
        assert!(recs.is_empty());
        assert_eq!(report.bad_fraction(), 0.0);
    }

    #[test]
    fn cancelled_token_aborts_lenient_ingest() {
        let token = CancelToken::new();
        token.cancel("governor: run deadline exceeded: elapsed 9 ms > budget 1 ms");
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        let opts = IngestOptions::default().with_cancel(token);
        match read_jsonl_lenient(&buf[..], &opts) {
            Err(IngestError::Cancelled(reason)) => assert!(reason.contains("run deadline")),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn uncancelled_token_changes_nothing() {
        let mut buf = Vec::new();
        write_jsonl(&mut buf, &sample()).unwrap();
        let opts = IngestOptions::default().with_cancel(CancelToken::new());
        let (recs, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(report.bad_lines(), 0);
    }

    #[test]
    fn quarantine_spill_retries_transient_write_errors() {
        let _turn = QUARANTINE_FAILPOINT
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = unique_test_dir("quarantine-retry");
        let sidecar = dir.join("trace.quarantine");
        let buf = dirty_buffer(97, 3);
        let opts = IngestOptions::default().with_quarantine(&sidecar);
        // Two transient failures: the first spill succeeds on attempt 3.
        smash_support::failpoint::arm(
            "ingest/quarantine",
            smash_support::failpoint::Action::ErrorTimes(2),
        );
        let res = read_jsonl_lenient(&buf[..], &opts);
        smash_support::failpoint::disarm("ingest/quarantine");
        let (_, report) = res.unwrap();
        assert_eq!(report.quarantined, 3);
        let spilled = std::fs::read(&sidecar).unwrap();
        assert_eq!(spilled.iter().filter(|&&b| b == b'\n').count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_spill_gives_up_after_bounded_retries() {
        let _turn = QUARANTINE_FAILPOINT
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = unique_test_dir("quarantine-persistent");
        let sidecar = dir.join("trace.quarantine");
        let buf = dirty_buffer(97, 3);
        let opts = IngestOptions::default().with_quarantine(&sidecar);
        // More consecutive failures than the retry budget: a persistent
        // error must surface, not loop forever.
        smash_support::failpoint::arm(
            "ingest/quarantine",
            smash_support::failpoint::Action::ErrorTimes(99),
        );
        let res = read_jsonl_lenient(&buf[..], &opts);
        smash_support::failpoint::disarm("ingest/quarantine");
        assert!(matches!(res, Err(IngestError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }
}
