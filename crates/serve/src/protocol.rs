//! The `smash serve` line protocol: parse-hostile by construction.
//!
//! One request per line, one reply per line, UTF-8 text over TCP or
//! stdin. The parser is the daemon's outermost trust boundary: whatever
//! bytes arrive — binary garbage, an unterminated line cut by a
//! disconnect, a line megabytes long — the worst outcome is an `ERR`
//! reply (or a quarantine entry for `INGEST` payloads), never a panic
//! and never a wedged worker (property-fuzzed in `tests/serve.rs`).
//!
//! ```text
//! PING                     -> PONG
//! INGEST {"timestamp":..}  -> OK | BUSY | ERR <class>
//! SEAL                     -> OK epoch=<seq> records=<n> | ERR <class>
//! WAIT                     -> OK epoch=<seq> | ERR <class>
//! QUERY <server>           -> HIT campaign=<id> size=<n> score=<s> since=<epoch> | MISS
//! STATS                    -> one JSON object
//! REPORT                   -> the published campaign list, canonical JSON
//! SHUTDOWN                 -> OK (then the daemon drains and exits)
//! ```

use std::io::{self, BufRead};

/// Longest accepted request line. Longer lines are consumed (so the
/// stream stays in sync) but answered with `ERR oversized` — the guard
/// that keeps a hostile client from ballooning daemon memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// A parsed request line, borrowing its argument from the raw line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request<'a> {
    /// Liveness probe.
    Ping,
    /// One raw JSONL record for the open epoch (payload kept verbatim —
    /// it becomes the WAL line on seal).
    Ingest(&'a str),
    /// Seal the open epoch: persist its WAL and hand it to the miner.
    Seal,
    /// Block until every sealed epoch is published (or mining failed).
    Wait,
    /// Look a server up in the published snapshot.
    Query(&'a str),
    /// Service counters as one JSON line.
    Stats,
    /// The published campaign list as canonical JSON.
    Report,
    /// Graceful drain and exit.
    Shutdown,
}

impl Request<'_> {
    /// Whether the reply may wait in the connection's write buffer
    /// behind later replies. Only the streaming requests coalesce;
    /// every other request is answered only after all earlier replies
    /// are on the wire, so a client never waits on a `SEAL`, `WAIT`,
    /// `STATS`, `REPORT` or `SHUTDOWN` reply stuck behind unsent ones.
    pub fn coalesces(&self) -> bool {
        matches!(self, Request::Ping | Request::Ingest(_) | Request::Query(_))
    }
}

/// Why a request line was rejected. Every variant maps to an `ERR`
/// reply; none of them disturbs connection or daemon state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The line was not valid UTF-8.
    BadUtf8,
    /// The line exceeded [`MAX_LINE_BYTES`] (already consumed).
    Oversized(usize),
    /// The leading word was not a known command.
    UnknownCommand(String),
    /// The command requires an argument that was missing.
    MissingArg(&'static str),
}

impl ParseError {
    /// The error-class slug used in the `ERR` reply.
    pub fn class(&self) -> &'static str {
        match self {
            ParseError::BadUtf8 => "bad-utf8",
            ParseError::Oversized(_) => "oversized",
            ParseError::UnknownCommand(_) => "unknown-command",
            ParseError::MissingArg(_) => "missing-arg",
        }
    }

    /// The full `ERR` reply line for this rejection.
    pub fn reply(&self) -> String {
        match self {
            ParseError::MissingArg(name) => format!("ERR {} {name}", self.class()),
            _ => format!("ERR {}", self.class()),
        }
    }
}

/// Parses one request line (terminator already stripped). `None` means
/// the line was blank and deserves no reply at all.
///
/// # Errors
///
/// A [`ParseError`] naming the rejection class; never panics, whatever
/// the bytes.
pub fn parse_line(raw: &[u8]) -> Result<Option<Request<'_>>, ParseError> {
    if raw.len() > MAX_LINE_BYTES {
        return Err(ParseError::Oversized(raw.len()));
    }
    let text = std::str::from_utf8(raw).map_err(|_| ParseError::BadUtf8)?;
    let text = text.trim_matches(|c: char| c == '\r' || c == '\n');
    let trimmed = text.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    let (word, rest) = match trimmed.find(char::is_whitespace) {
        Some(i) => {
            let (w, r) = trimmed.split_at(i);
            (w, r.trim_start())
        }
        None => (trimmed, ""),
    };
    let req = match word {
        "PING" => Request::Ping,
        "INGEST" => {
            if rest.is_empty() {
                return Err(ParseError::MissingArg("record"));
            }
            Request::Ingest(rest)
        }
        "SEAL" => Request::Seal,
        "WAIT" => Request::Wait,
        "QUERY" => {
            if rest.is_empty() {
                return Err(ParseError::MissingArg("server"));
            }
            Request::Query(rest)
        }
        "STATS" => Request::Stats,
        "REPORT" => Request::Report,
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(ParseError::UnknownCommand(other.to_owned())),
    };
    Ok(Some(req))
}

/// One raw line off the wire, read with a hard size cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawLine {
    /// The line's bytes, terminator stripped, truncated at the cap.
    pub bytes: Vec<u8>,
    /// Whether the line blew past [`MAX_LINE_BYTES`]. The excess was
    /// consumed and discarded, so the stream stays line-synchronized.
    pub oversized: bool,
}

/// Partial-line state carried across [`read_bounded_line`] calls.
///
/// Lets a transport read with a socket timeout: a `WouldBlock` /
/// `TimedOut` error surfaces to the caller (to re-check its stop flag)
/// while whatever prefix of the line already arrived stays buffered
/// here, so the retry resumes mid-line instead of corrupting the
/// stream.
#[derive(Debug, Default)]
pub struct LineAccumulator {
    bytes: Vec<u8>,
    oversized: bool,
    saw_any: bool,
}

impl LineAccumulator {
    /// An empty accumulator (no partial line pending).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drains the accumulated line and resets for the next one.
    fn take(&mut self) -> RawLine {
        let line = RawLine {
            bytes: std::mem::take(&mut self.bytes),
            oversized: self.oversized,
        };
        *self = Self::default();
        line
    }
}

/// Reads one `\n`-terminated line, never buffering more than
/// `max_bytes`. An oversized line is drained to its newline and flagged
/// rather than returned whole. `Ok(None)` is clean EOF; a final
/// unterminated fragment (mid-record disconnect) is returned as a
/// normal line for the caller to reject or parse.
///
/// Partial-line state is the caller's `acc`: on a timeout-class error
/// (`WouldBlock`/`TimedOut` from a socket read deadline) the bytes
/// consumed so far stay in it, and calling again with the same `acc`
/// resumes the same line. Any returned line resets `acc` for the next
/// one.
///
/// # Errors
///
/// I/O errors from the underlying reader; timeout-class errors are
/// resumable, anything else should end the connection.
pub fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    acc: &mut LineAccumulator,
) -> io::Result<Option<RawLine>> {
    loop {
        let buf = match reader.fill_buf() {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if buf.is_empty() {
            // EOF: a partial fragment is still a line (the disconnect
            // case); nothing buffered means clean end of stream.
            if acc.saw_any {
                return Ok(Some(acc.take()));
            }
            return Ok(None);
        }
        acc.saw_any = true;
        let (content_len, consume_len, done) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i, i + 1, true),
            None => (buf.len(), buf.len(), false),
        };
        if !acc.oversized {
            let room = max_bytes.saturating_sub(acc.bytes.len());
            acc.oversized = content_len > room;
            if let Some(keep) = buf.get(..content_len.min(room)) {
                acc.bytes.extend_from_slice(keep);
            }
        }
        reader.consume(consume_len);
        if done {
            let mut line = acc.take();
            while line.bytes.last().is_some_and(|&b| b == b'\n' || b == b'\r') {
                line.bytes.pop();
            }
            return Ok(Some(line));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn commands_parse() {
        assert_eq!(parse_line(b"PING"), Ok(Some(Request::Ping)));
        assert_eq!(parse_line(b"  \r\n"), Ok(None));
        assert_eq!(
            parse_line(b"QUERY cc0.evil"),
            Ok(Some(Request::Query("cc0.evil")))
        );
        assert_eq!(
            parse_line(b"INGEST {\"x\":1}"),
            Ok(Some(Request::Ingest("{\"x\":1}")))
        );
        assert_eq!(parse_line(b"QUERY"), Err(ParseError::MissingArg("server")));
        assert_eq!(parse_line(&[0xff, 0xfe]), Err(ParseError::BadUtf8));
        assert!(matches!(
            parse_line(b"FROB x"),
            Err(ParseError::UnknownCommand(_))
        ));
        let coalescing: Vec<bool> = ["PING", "INGEST {}", "QUERY x", "SEAL", "WAIT", "STATS"]
            .iter()
            .filter_map(|line| parse_line(line.as_bytes()).ok().flatten())
            .map(|req| req.coalesces())
            .collect();
        assert_eq!(coalescing, [true, true, true, false, false, false]);
    }

    #[test]
    fn bounded_reader_drains_oversized_lines() {
        let long = vec![b'a'; MAX_LINE_BYTES + 100];
        let mut input = long.clone();
        input.push(b'\n');
        input.extend_from_slice(b"PING\n");
        let mut r = BufReader::with_capacity(64, &input[..]);
        let first = read_bounded_line(&mut r, MAX_LINE_BYTES, &mut LineAccumulator::new())
            .expect("read")
            .expect("line");
        assert!(first.oversized);
        assert!(first.bytes.len() <= MAX_LINE_BYTES);
        let second = read_bounded_line(&mut r, MAX_LINE_BYTES, &mut LineAccumulator::new())
            .expect("read")
            .expect("line");
        assert!(!second.oversized);
        assert_eq!(second.bytes, b"PING");
        assert!(
            read_bounded_line(&mut r, MAX_LINE_BYTES, &mut LineAccumulator::new())
                .expect("read")
                .is_none()
        );
    }

    #[test]
    fn unterminated_fragment_is_returned_at_eof() {
        let mut r = BufReader::new(&b"QUERY partial"[..]);
        let line = read_bounded_line(&mut r, MAX_LINE_BYTES, &mut LineAccumulator::new())
            .expect("read")
            .expect("fragment");
        assert_eq!(line.bytes, b"QUERY partial");
    }

    /// Yields one byte per `fill_buf`, failing every other call with
    /// `WouldBlock` — the shape of a socket read deadline firing
    /// mid-line.
    struct TimeoutEveryOtherRead<'a> {
        data: &'a [u8],
        pos: usize,
        tick: bool,
    }

    impl std::io::Read for TimeoutEveryOtherRead<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let buf = self.fill_buf()?;
            let n = buf.len().min(out.len());
            out[..n].copy_from_slice(&buf[..n]);
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for TimeoutEveryOtherRead<'_> {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.tick = !self.tick;
            if self.tick {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "read deadline"));
            }
            let end = (self.pos + 1).min(self.data.len());
            Ok(&self.data[self.pos..end])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
        }
    }

    #[test]
    fn resumable_reader_preserves_partial_lines_across_timeouts() {
        let mut r = TimeoutEveryOtherRead {
            data: b"QUERY cc0.evil\nPING\n",
            pos: 0,
            tick: false,
        };
        let mut acc = LineAccumulator::new();
        let mut lines = Vec::new();
        let mut timeouts = 0u32;
        loop {
            match read_bounded_line(&mut r, MAX_LINE_BYTES, &mut acc) {
                Ok(Some(line)) => {
                    assert!(!line.oversized);
                    lines.push(line.bytes);
                }
                Ok(None) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(lines, vec![b"QUERY cc0.evil".to_vec(), b"PING".to_vec()]);
        assert!(timeouts > 0, "the flaky reader never timed out?");
    }
}
