//! Line-oriented TCP front for the in-process server.
//!
//! The protocol is deliberately tiny — one request per connection, plain
//! `std::net`, no dependencies:
//!
//! ```text
//! client → server:   GET <stage>[ deadline_ms=<n>]\n
//! server → client:   OK <byte-len>\n<body bytes>
//!                or  ERR <code>[ <detail>]\n
//! ```
//!
//! Error codes mirror [`ServeError`] variants one-to-one
//! (`unknown-stage`, `overloaded <retry-ms>`, `draining`, `deadline`,
//! `panicked <msg>`, `failed <msg>`), so a client can distinguish "back
//! off and retry" from "this request is wrong" from "the server is going
//! away" — the typed-rejection half of the overload contract survives
//! the wire.
//!
//! The server reads at most [`MAX_REQUEST_LINE`] bytes of a request line.
//! A longer line gets `ERR failed request line too long` and the
//! connection closes, so a peer cannot make a connection thread buffer
//! without bound.
//!
//! [`serve_tcp`] blocks in `accept`, so a connection is taken the moment
//! it arrives. A scoped watcher thread polls the shutdown flag; once it
//! flips, the watcher connects to the listener's own address (loopback
//! for `0.0.0.0` or `[::]`) until the accept loop has seen the flag and
//! exited, so a flip stops admission promptly without a sleep on the
//! request path. Each connection is handled on its own thread, and every
//! connection thread is joined before [`serve_tcp`] returns — in-flight
//! responses are delivered through a drain, never truncated.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::server::{ServeError, ServerHandle};

/// Per-connection socket read/write timeout. Generous: it only bounds a
/// stalled peer, not request latency (the server's deadline does that).
const SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// How often the shutdown watcher reads the flag, and how long each of
/// its wake-up connects may take. It bounds how long a flip takes to stop
/// admission; no request waits on it.
const SHUTDOWN_POLL: Duration = Duration::from_millis(5);

/// Longest request line the server reads, newline included. The longest
/// valid line, `GET ext_correlation deadline_ms=<u64::MAX>`, is under 64
/// bytes.
pub const MAX_REQUEST_LINE: usize = 1024;

/// One wire request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Analysis stage name (see [`ndt_analysis::ANALYSIS_STAGES`]).
    pub stage: String,
    /// Optional per-request deadline; `None` uses the server default.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request for `stage` with the server's default deadline.
    pub fn new(stage: impl Into<String>) -> Self {
        Request { stage: stage.into(), deadline_ms: None }
    }

    /// Renders the request line (without the trailing newline).
    pub fn to_line(&self) -> String {
        match self.deadline_ms {
            Some(ms) => format!("GET {} deadline_ms={ms}", self.stage),
            None => format!("GET {}", self.stage),
        }
    }

    /// Parses a request line; `None` on malformed input.
    pub fn parse(line: &str) -> Option<Request> {
        let mut parts = line.trim_end().split(' ');
        if parts.next() != Some("GET") {
            return None;
        }
        let stage = parts.next()?.to_string();
        if stage.is_empty() {
            return None;
        }
        let mut deadline_ms = None;
        for extra in parts {
            let ms = extra.strip_prefix("deadline_ms=")?;
            deadline_ms = Some(ms.parse().ok()?);
        }
        Some(Request { stage, deadline_ms })
    }
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The report fragment.
    Ok(String),
    /// A typed rejection or failure.
    Err(ServeError),
}

fn flatten(msg: &str) -> String {
    msg.replace(['\n', '\r'], " ")
}

/// Encodes the error half of the protocol (`ERR ...` line, no newline).
fn encode_error(err: &ServeError) -> String {
    match err {
        ServeError::UnknownStage(s) => format!("ERR unknown-stage {}", flatten(s)),
        ServeError::Overloaded { retry_after } => {
            format!("ERR overloaded {}", retry_after.as_millis())
        }
        ServeError::Draining => "ERR draining".to_string(),
        ServeError::DeadlineExceeded => "ERR deadline".to_string(),
        ServeError::Panicked(msg) => format!("ERR panicked {}", flatten(msg)),
        ServeError::Failed(msg) => format!("ERR failed {}", flatten(msg)),
    }
}

/// Decodes an `ERR ...` line back into a [`ServeError`].
fn decode_error(line: &str) -> Option<ServeError> {
    let rest = line.strip_prefix("ERR ")?.trim_end();
    let (code, detail) = match rest.split_once(' ') {
        Some((c, d)) => (c, d),
        None => (rest, ""),
    };
    Some(match code {
        "unknown-stage" => ServeError::UnknownStage(detail.to_string()),
        "overloaded" => ServeError::Overloaded {
            retry_after: Duration::from_millis(detail.parse().ok()?),
        },
        "draining" => ServeError::Draining,
        "deadline" => ServeError::DeadlineExceeded,
        "panicked" => ServeError::Panicked(detail.to_string()),
        "failed" => ServeError::Failed(detail.to_string()),
        _ => return None,
    })
}

fn handle_conn(stream: TcpStream, handle: &ServerHandle) -> io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    (&mut reader).take(MAX_REQUEST_LINE as u64).read_until(b'\n', &mut line)?;
    let mut stream = reader.into_inner();
    if line.len() == MAX_REQUEST_LINE && line.last() != Some(&b'\n') {
        stream.write_all(b"ERR failed request line too long\n")?;
        return Ok(());
    }
    let Some(req) = std::str::from_utf8(&line).ok().and_then(Request::parse) else {
        stream.write_all(b"ERR failed malformed request line\n")?;
        return Ok(());
    };
    let deadline = req.deadline_ms.map(Duration::from_millis);
    match handle.submit(&req.stage, deadline) {
        Ok(body) => {
            stream.write_all(format!("OK {}\n", body.len()).as_bytes())?;
            stream.write_all(body.as_bytes())?;
        }
        Err(e) => {
            stream.write_all(encode_error(&e).as_bytes())?;
            stream.write_all(b"\n")?;
        }
    }
    stream.flush()
}

/// Serves requests from `listener` until `shutdown` flips true, then
/// joins every in-flight connection thread (their responses are
/// delivered) and returns. An accept error ends the loop the same way and
/// is returned. Pair with [`crate::Server::drain`]: flip the flag, drain
/// the server, join the `serve_tcp` thread.
pub fn serve_tcp(
    listener: TcpListener,
    handle: ServerHandle,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(false)?;
    let wake = wake_addr(listener.local_addr()?);
    let exited = AtomicBool::new(false);
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    let res = std::thread::scope(|s| {
        std::thread::Builder::new()
            .name("serve-wake".to_string())
            .spawn_scoped(s, || wake_on_shutdown(&shutdown, &exited, wake))?;
        let res = accept_until_shutdown(&listener, &handle, &shutdown, &mut conns);
        exited.store(true, Ordering::SeqCst);
        res
    });
    for c in conns {
        let _ = c.join();
    }
    res
}

/// Accepts and hands each connection to its own thread until a connection
/// arrives after `shutdown` flipped, which it drops: the watcher's wake-up,
/// or a client that lost the race with shutdown.
fn accept_until_shutdown(
    listener: &TcpListener,
    handle: &ServerHandle,
    shutdown: &AtomicBool,
    conns: &mut Vec<JoinHandle<()>>,
) -> io::Result<()> {
    loop {
        let (stream, _peer) = listener.accept()?;
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let handle = handle.clone();
        let t = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || {
                // Socket errors fail one connection, never the
                // accept loop.
                let _ = handle_conn(stream, &handle);
            })?;
        conns.push(t);
        conns.retain(|c| !c.is_finished());
    }
}

/// Waits for `shutdown`, then connects to `wake` every [`SHUTDOWN_POLL`]
/// until the accept loop has `exited`: the connection wakes a blocked
/// `accept`, which then reads the flag. If the loop exits first, on an
/// accept error, the watcher stops within one poll.
fn wake_on_shutdown(shutdown: &AtomicBool, exited: &AtomicBool, wake: SocketAddr) {
    while !exited.load(Ordering::SeqCst) {
        if shutdown.load(Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&wake, SHUTDOWN_POLL);
        }
        std::thread::sleep(SHUTDOWN_POLL);
    }
}

/// The address that reaches a listener bound to `local`: itself, with an
/// unspecified IP replaced by the loopback address of its family.
fn wake_addr(mut local: SocketAddr) -> SocketAddr {
    match local.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => local.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => local.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    local
}

/// Client side: one request over a fresh connection. Transport failures
/// surface as `io::Error`; server-side rejections come back as
/// [`Reply::Err`].
pub fn fetch(addr: &str, req: &Request, timeout: Duration) -> io::Result<Reply> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let mut stream = stream;
    stream.write_all(req.to_line().as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    if let Some(len) = status.strip_prefix("OK ") {
        let len: usize = len.trim_end().parse().map_err(|_| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad OK length: {status:?}"))
        })?;
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Reply::Ok(body))
    } else if status.starts_with("ERR ") || status.trim_end() == "ERR" {
        decode_error(&status)
            .map(Reply::Err)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidData, format!("bad ERR line: {status:?}"))
            })
    } else {
        Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unrecognised status line: {status:?}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_lines_round_trip() {
        for req in [
            Request::new("fig2"),
            Request { stage: "table1".into(), deadline_ms: Some(250) },
        ] {
            assert_eq!(Request::parse(&req.to_line()), Some(req.clone()));
        }
        assert_eq!(Request::parse("PUT fig2"), None);
        assert_eq!(Request::parse("GET"), None);
        assert_eq!(Request::parse("GET fig2 deadline_ms=abc"), None);
    }

    #[test]
    fn error_codes_round_trip() {
        let errors = [
            ServeError::UnknownStage("nope".into()),
            ServeError::Overloaded { retry_after: Duration::from_millis(100) },
            ServeError::Draining,
            ServeError::DeadlineExceeded,
            ServeError::Panicked("boom with spaces".into()),
            ServeError::Failed("degenerate input: empty window".into()),
        ];
        for err in errors {
            let line = encode_error(&err);
            assert_eq!(decode_error(&line), Some(err.clone()), "{line}");
        }
        assert_eq!(decode_error("ERR gibberish"), None);
    }

    /// Pieces a request line is assembled from: the protocol's tokens,
    /// numbers at the `u64` edge, and the whitespace `trim_end` strips.
    const PIECES: &[&str] = &[
        "GET",
        " ",
        "deadline_ms=",
        "fig2",
        "ext_correlation",
        "0",
        "42",
        "+7",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "=",
        "\t",
        "\r",
        "\n",
        "\u{85}",
        "\u{3000}",
        "é",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Arbitrary lines never panic the parser, and every line it
        /// accepts renders back (`to_line`) to a line that parses to the
        /// same request.
        #[test]
        fn parse_never_panics_and_accepted_requests_round_trip(
            get in 0u8..2,
            pieces in prop::collection::vec(0usize..PIECES.len(), 0..10),
            bytes in prop::collection::vec(0u8..=255, 0..8),
        ) {
            let mut line = if get == 1 { "GET ".to_string() } else { String::new() };
            line.extend(pieces.iter().map(|&i| PIECES[i]));
            line.push_str(&String::from_utf8_lossy(&bytes));
            if let Some(req) = Request::parse(&line) {
                let back = Request::parse(&req.to_line());
                prop_assert_eq!(back, Some(req.clone()), "{:?} parsed to {:?}", line, req);
            }
        }
    }

    #[test]
    fn panic_messages_with_newlines_stay_single_line() {
        let line = encode_error(&ServeError::Panicked("line one\nline two".into()));
        assert!(!line.contains('\n'), "{line:?}");
        assert_eq!(
            decode_error(&line),
            Some(ServeError::Panicked("line one line two".into()))
        );
    }
}
