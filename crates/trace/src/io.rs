//! JSONL import/export of raw HTTP records.
//!
//! The paper's input is PCAP; our portable interchange format is one JSON
//! object per line, which is trivially produced from any flow log.
//!
//! There is one reader, [`ingest_jsonl`]: it decodes each line into
//! borrowed fields ([`decode_fields`] — no JSON tree, no owned strings)
//! and streams them into a sink (the CLI's is the arena's appender — no
//! row buffer), counts bad lines per error class in an [`IngestReport`]
//! (optionally spilling them to a quarantine sidecar), and lets an
//! *error budget* tell a dirty trace (ingest what you can) from the
//! wrong file entirely ([`IngestError::BudgetExceeded`]). Dirty
//! edge-of-ISP flow logs want the default 5%; files we wrote ourselves
//! want *strict* — the same loop at budget 0, failing on the first
//! malformed line ([`read_jsonl`], [`read_jsonl_file`]).

use crate::record::{HttpRecord, RecordFields};
use smash_support::ckpt;
use smash_support::failpoint;
use smash_support::governor::CancelToken;
use smash_support::impl_json_struct;
use smash_support::json::{self, FromJson, Json, Scalar};
use smash_support::retry;
use std::borrow::Cow;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

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
    /// Lines longer than [`IngestOptions::max_line_bytes`].
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
    /// Lines longer than this are rejected unread (guards against
    /// pathological inputs blowing up memory). Default 1 MiB.
    pub max_line_bytes: usize,
    /// Maximum tolerated [`IngestReport::bad_fraction`]; exceeding it
    /// fails the whole ingest with [`IngestError::BudgetExceeded`].
    /// Default 0.05 — the "dirty trace vs. wrong file" line; 0 is
    /// strict mode.
    pub error_budget: f64,
    /// When set, raw rejected lines are appended to this sidecar file
    /// for offline inspection.
    pub quarantine: Option<PathBuf>,
    /// When set, the reader polls this token every
    /// [`CANCEL_POLL_LINES`] lines and aborts with
    /// [`IngestError::Cancelled`] once it fires (governor deadlines and
    /// run-level cancellation reach ingest through here).
    pub cancel: Option<CancelToken>,
}

impl Default for IngestOptions {
    fn default() -> Self {
        Self {
            max_line_bytes: 1 << 20,
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

    /// Sets the per-line size cap.
    pub fn with_max_line_bytes(mut self, n: usize) -> Self {
        self.max_line_bytes = n;
        self
    }

    /// Sets the cooperative cancellation token polled during ingest.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }
}

/// Lines between cancellation-token polls: frequent
/// enough that a cancelled ingest stops within milliseconds, rare enough
/// that the poll never shows up in a profile.
pub const CANCEL_POLL_LINES: usize = 4096;

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

    /// Appends one bad line, retrying transient I/O errors with the
    /// same bounded deterministic backoff the serve WAL uses
    /// (the jitter seed is a function of the sidecar path). A flaky
    /// filesystem costs a retry, not the quarantined evidence.
    fn spill(&mut self, raw: &[u8], report: &mut IngestReport) -> io::Result<()> {
        let Some(path) = self.path else {
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
                f.write_all(raw)?;
                f.write_all(b"\n")?;
                Ok(())
            },
        );
        res?;
        report.quarantined += 1;
        Ok(())
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

/// An integer member, by the rules of the `FromJson` integer impls: an
/// integral float counts, a negative or out-of-range value does not.
fn number<T: FromJson>(v: Option<Scalar<'_>>) -> Option<T> {
    match v? {
        Scalar::Str(_) => None,
        n => T::from_json(&Json::from(n)).ok(),
    }
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

/// The one JSONL reader: streams every decodable record of `r` into
/// `sink`, counting (and optionally quarantining) malformed lines
/// instead of aborting. Blank lines are skipped. A zero error budget
/// cannot recover from a bad line, so strict mode stops at the first
/// one rather than reading on.
///
/// # Errors
///
/// Returns [`IngestError::Io`] on I/O failure,
/// [`IngestError::Cancelled`] when [`IngestOptions::cancel`] fires, and
/// [`IngestError::BudgetExceeded`] when more than
/// [`IngestOptions::error_budget`] of the lines were bad. `sink` may
/// already have received records by then; the caller discards them.
pub fn ingest_jsonl<R: Read>(
    r: R,
    opts: &IngestOptions,
    mut sink: impl FnMut(&RecordFields<'_>),
) -> Result<IngestReport, IngestError> {
    failpoint::check("ingest/jsonl").map_err(io::Error::other)?;
    check_cancel(opts.cancel.as_ref())?;
    let mut report = IngestReport::default();
    let mut quarantine = Quarantine::new(opts.quarantine.as_deref());
    let mut reader = BufReader::new(r);
    let mut raw: Vec<u8> = Vec::new();
    // Strict mode: the first bad line has already blown a zero budget.
    while report.bad_lines() == 0 || opts.error_budget > 0.0 {
        raw.clear();
        // Byte-oriented reading: invalid UTF-8 must be a counted error
        // class, not an abort (BufRead::lines would error out).
        if reader.read_until(b'\n', &mut raw)? == 0 {
            break;
        }
        while raw.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
            raw.pop();
        }
        if raw.iter().all(|b| b.is_ascii_whitespace()) {
            continue;
        }
        report.lines += 1;
        if report.lines % CANCEL_POLL_LINES == 0 {
            check_cancel(opts.cancel.as_ref())?;
        }
        if raw.len() > opts.max_line_bytes {
            report.oversized += 1;
            quarantine.spill(&raw, &mut report)?;
            continue;
        }
        match decode_fields(&raw) {
            Ok(fields) => {
                report.records += 1;
                sink(&fields);
            }
            Err(e) => {
                match e {
                    LineError::BadJson => report.bad_json += 1,
                    LineError::BadIp => report.bad_ip += 1,
                    LineError::BadField => report.bad_field += 1,
                }
                quarantine.spill(&raw, &mut report)?;
            }
        }
    }
    quarantine.finish()?;
    if report.bad_fraction() > opts.error_budget {
        return Err(IngestError::BudgetExceeded {
            report,
            budget: opts.error_budget,
        });
    }
    Ok(report)
}

/// [`ingest_jsonl`] into a row vector.
///
/// # Errors
///
/// See [`ingest_jsonl`].
pub fn read_jsonl_lenient<R: Read>(
    r: R,
    opts: &IngestOptions,
) -> Result<(Vec<HttpRecord>, IngestReport), IngestError> {
    let mut out = Vec::new();
    let report = ingest_jsonl(r, opts, |f| out.push(f.clone().into_record()))?;
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
    use std::sync::atomic::{AtomicU32, Ordering};

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
        let mut long = vec![b' '; strict.max_line_bytes];
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
        let opts = IngestOptions::default()
            .with_max_line_bytes(512)
            .with_error_budget(1.0);
        let (recs, report) = read_jsonl_lenient(&buf[..], &opts).unwrap();
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
