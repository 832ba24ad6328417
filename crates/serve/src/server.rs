//! Transports for the campaign service: TCP and stdio.
//!
//! Both run the same connection loop (`serve_connection`) over the
//! same [`Connection`](crate::service::Connection) handler; the
//! transport only moves bytes. TCP serves one thread per client off a
//! non-blocking accept loop (so `SHUTDOWN` can stop it); stdio binds
//! the daemon to its parent's pipes — the mode CI and the chaos tests
//! script, where EOF is a graceful drain.
//!
//! Replies are coalesced: they collect in a per-connection write
//! buffer that is flushed when the read buffer holds no further
//! complete line (before any read that could block) and before every
//! request that does not [coalesce](crate::protocol::Request::coalesces).
//! A pipelined burst of `INGEST`s is answered in one `write`, not one
//! per reply, and a `WAIT` never parks with earlier replies unsent.
//! A reply is buffered only after its effect is durable (an `INGEST`
//! is in the open epoch, a `SEAL` is in the WAL — the WAL still comes
//! before the ack), so a crash can lose an ack, never an acknowledged
//! effect.

use crate::protocol::{self, LineAccumulator};
use crate::service::{CampaignService, Response, ServeOptions};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How to run the daemon.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Service construction knobs.
    pub serve: ServeOptions,
    /// TCP listen address (`host:port`; port 0 picks a free port).
    pub addr: Option<String>,
    /// Serve stdin/stdout instead of TCP.
    pub stdio: bool,
}

/// Runs the daemon until `SHUTDOWN` (or EOF in stdio mode). Prints
/// `LISTENING <addr>` on stdout once a TCP listener is bound — the
/// line tests and scripts parse to find the picked port.
///
/// # Errors
///
/// A human-readable message when the service cannot start or the
/// listener cannot bind.
pub fn run(opts: RunOptions) -> Result<(), String> {
    let service = CampaignService::start(opts.serve.clone())
        .map_err(|e| format!("serve: cannot start service: {e}"))?;
    let result = if opts.stdio {
        run_stdio(&service)
    } else {
        let addr = opts.addr.as_deref().unwrap_or("127.0.0.1:0");
        run_tcp(&service, addr)
    };
    service.shutdown();
    result
}

fn run_stdio(service: &CampaignService) -> Result<(), String> {
    let mut reader = BufReader::new(io::stdin().lock());
    // Nothing else stops a stdio daemon: it ends on SHUTDOWN or EOF.
    let never = AtomicBool::new(false);
    serve_connection(service, &mut reader, io::stdout().lock(), &never)
        .map_err(|e| format!("serve: stdio: {e}"))
}

fn run_tcp(service: &CampaignService, addr: &str) -> Result<(), String> {
    let listener =
        TcpListener::bind(addr).map_err(|e| format!("serve: cannot bind {addr}: {e}"))?;
    let local = listener
        .local_addr()
        .map_err(|e| format!("serve: no local addr: {e}"))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("serve: cannot set nonblocking: {e}"))?;
    {
        let stdout = io::stdout();
        let mut out = stdout.lock();
        writeln!(out, "LISTENING {local}").map_err(|e| format!("serve: stdout: {e}"))?;
        out.flush().map_err(|e| format!("serve: stdout: {e}"))?;
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let service = service.clone();
                let stop = Arc::clone(&stop);
                let handle = std::thread::Builder::new()
                    .name("smash-serve-conn".to_owned())
                    .spawn(move || serve_client(&service, stream, &stop))
                    .map_err(|e| format!("serve: cannot spawn connection thread: {e}"))?;
                handles.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("serve: accept failed: {e}")),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
    Ok(())
}

/// How long a connection blocks in `read` before re-checking the stop
/// flag. Bounds how long an idle (or mid-line) client can delay the
/// accept loop's thread joins after `SHUTDOWN`.
const STOP_POLL: Duration = Duration::from_millis(100);

/// One client connection; any I/O error just drops the client — a
/// mid-record disconnect must never wedge the daemon.
///
/// Reads run under [`STOP_POLL`] socket timeouts, so a
/// connected-but-idle client never parks this thread in `read()` past
/// shutdown. A `WAIT`-parked connection is unblocked by `SHUTDOWN`
/// flagging the service first ([`CampaignService::begin_shutdown`]),
/// which wakes every waiter with `ERR shutdown`.
fn serve_client(service: &CampaignService, stream: TcpStream, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(STOP_POLL)).is_err() {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let _ = serve_connection(service, &mut BufReader::new(stream), writer, stop);
}

/// The connection loop both transports run: read a line, handle it,
/// buffer its reply; flush per the module-level rule. Returns on EOF,
/// on `SHUTDOWN` (after flagging the service and setting `stop`), or
/// once `stop` is seen between lines. A timeout-class read error just
/// re-checks `stop`: the partial line waits in a [`LineAccumulator`]
/// and the retry resumes it intact.
///
/// # Errors
///
/// Any other read or write error; the caller drops the connection.
fn serve_connection<R: Read, W: Write>(
    service: &CampaignService,
    reader: &mut BufReader<R>,
    writer: W,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    let mut conn = service.connection();
    let mut acc = LineAccumulator::new();
    loop {
        if stop.load(Ordering::Acquire) {
            return out.flush();
        }
        if !reader.buffer().contains(&b'\n') {
            out.flush()?;
        }
        let line = match protocol::read_bounded_line(reader, protocol::MAX_LINE_BYTES, &mut acc) {
            Ok(Some(line)) => line,
            Ok(None) => return out.flush(),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(e) => return Err(e),
        };
        let response = match conn.parse(&line.bytes, line.oversized) {
            Ok(Some(request)) => {
                if !request.coalesces() {
                    out.flush()?;
                }
                conn.respond(request)
            }
            Ok(None) => Response::Quiet,
            Err(rejected) => rejected,
        };
        match response {
            Response::Quiet => {}
            Response::Reply(reply) => write_line(&mut out, &reply)?,
            Response::Shutdown(reply) => {
                let _ = write_line(&mut out, &reply).and_then(|()| out.flush());
                // Flag the service before the transport stop flag:
                // WAIT-blocked connection threads wake immediately and
                // notice `stop`, instead of keeping the accept loop's
                // joins hostage for up to the WAIT timeout.
                service.begin_shutdown();
                stop.store(true, Ordering::Release);
                return Ok(());
            }
        }
    }
}

fn write_line<W: Write>(out: &mut W, reply: &str) -> io::Result<()> {
    out.write_all(reply.as_bytes())?;
    out.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smash-serve-conn-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Records every underlying `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Runs the connection loop over `script` and returns the writer.
    fn serve_script(tag: &str, script: &[u8]) -> CountingWriter {
        let dir = tmp_dir(tag);
        let service = CampaignService::start(ServeOptions::new(&dir)).expect("start");
        let mut out = CountingWriter::default();
        let never = AtomicBool::new(false);
        serve_connection(&service, &mut BufReader::new(script), &mut out, &never)
            .expect("in-memory connection");
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    #[test]
    fn pipelined_replies_coalesce_into_one_write() {
        let out = serve_script("ping", "PING\n".repeat(128).as_bytes());
        assert_eq!(out.bytes, "PONG\n".repeat(128).into_bytes());
        assert!(out.writes <= 2, "{} writes for 128 replies", out.writes);
    }

    #[test]
    fn non_streaming_requests_flush_what_came_before() {
        // Three flushes with replies behind them: before STATS, before
        // SHUTDOWN, and SHUTDOWN's own reply. The blank line gets none.
        let out = serve_script("flush", b"PING\nPING\n\nSTATS\nPING\nSHUTDOWN\nPING\n");
        let text = String::from_utf8(out.bytes).expect("utf-8 replies");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "{lines:?}");
        assert_eq!(lines.first(), Some(&"PONG"));
        assert!(
            lines.get(2).is_some_and(|l| l.starts_with('{')),
            "{lines:?}"
        );
        assert_eq!(lines.get(3..), Some(&["PONG", "OK"][..]));
        assert_eq!(out.writes, 3);
    }
}
