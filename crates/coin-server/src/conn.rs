//! Per-connection state for the reactor: the server's one HTTP/1.1
//! request parser, incremental over an owned byte buffer, plus the
//! framing/keep-alive/timeout state machine the event loop drives.
//!
//! The reactor cannot block, so parsing is a pure function of the bytes
//! received so far — called again whenever more bytes arrive.

use std::collections::BTreeMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::http::{encode_response, HttpRequest, HttpResponse};

/// Cap on one request head line (request line or a single header).
const MAX_HEAD_LINE: usize = 8 * 1024;
/// Cap on the whole request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Why a request could not be parsed. Each answer closes the connection.
#[derive(Debug)]
pub(crate) enum RequestError {
    /// Framing violation: `400`.
    Malformed(String),
    /// Request line or headers larger than the caps: `431`.
    HeadTooLarge(String),
    /// Body larger than the configured cap: `413`.
    TooLarge(String),
}

/// Outcome of one incremental parse attempt.
pub(crate) enum ParseStatus {
    /// Not enough bytes yet; call again after the next read.
    Incomplete,
    /// One complete request, consuming this many buffer bytes.
    Complete(Box<HttpRequest>, usize),
}

/// Try to parse one complete request from the front of `buf`.
///
/// Pure and restartable: returns [`ParseStatus::Incomplete`] until the
/// head terminator and the full `Content-Length` body have arrived, and
/// enforces the head-line/head-size/body-size caps — a byte-dripping
/// peer is bounded by the caps here and by the reactor's read deadline.
pub(crate) fn try_parse_request(
    buf: &[u8],
    max_body_bytes: usize,
) -> Result<ParseStatus, RequestError> {
    // Tolerate blank line(s) between pipelined requests (RFC 9112 §2.2).
    let mut start = 0;
    while start < buf.len() && (buf[start] == b'\r' || buf[start] == b'\n') {
        start += 1;
        if start > 8 {
            return Err(RequestError::Malformed("blank request".into()));
        }
    }
    let head = &buf[start..];

    // Find the end of the head: the first empty line.
    let mut head_end = None; // offset past the terminating blank line
    let mut line_start = 0;
    for (i, &b) in head.iter().enumerate() {
        if b != b'\n' {
            continue;
        }
        let line = &head[line_start..i];
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if i - line_start + 1 > MAX_HEAD_LINE {
            return Err(RequestError::HeadTooLarge("head line too long".into()));
        }
        if line.is_empty() {
            head_end = Some(i + 1);
            break;
        }
        line_start = i + 1;
    }
    let Some(head_end) = head_end else {
        // Head still arriving: bound the line in progress and the total.
        if head.len() - line_start > MAX_HEAD_LINE {
            return Err(RequestError::HeadTooLarge("head line too long".into()));
        }
        if head.len() > MAX_HEAD_BYTES {
            return Err(RequestError::HeadTooLarge("request head too large".into()));
        }
        return Ok(ParseStatus::Incomplete);
    };
    if head_end > MAX_HEAD_BYTES {
        return Err(RequestError::HeadTooLarge("request head too large".into()));
    }

    let head_text = String::from_utf8_lossy(&head[..head_end]);
    let mut lines = head_text.lines();
    let request_line = lines.next().unwrap_or_default();
    if request_line.trim().is_empty() {
        return Err(RequestError::Malformed("blank request".into()));
    }
    let (method, path, query, version) = parse_request_line(request_line)?;
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        insert_header_line(&mut headers, line);
    }

    let body_len = content_length(&headers, max_body_bytes)?;
    let total = start + head_end + body_len;
    if buf.len() < total {
        return Ok(ParseStatus::Incomplete);
    }
    let body = buf[start + head_end..total].to_vec();
    Ok(ParseStatus::Complete(
        Box::new(HttpRequest {
            method,
            path,
            query,
            headers,
            body,
            version,
        }),
        total,
    ))
}

/// Parse a request line into (method, path, decoded query, version).
fn parse_request_line(
    request_line: &str,
) -> Result<(String, String, BTreeMap<String, String>, String), RequestError> {
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing method".into()))?
        .to_owned();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("missing path".into()))?
        .to_owned();
    let version = match parts.next() {
        None => "HTTP/1.0".to_owned(), // HTTP/0.9-style simple request
        Some(v) if v.starts_with("HTTP/") => v.to_owned(),
        Some(v) => {
            return Err(RequestError::Malformed(format!("bad version {v:?}")));
        }
    };
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), Some(q.to_owned())),
        None => (target, None),
    };
    let mut query = BTreeMap::new();
    if let Some(q) = query_str {
        for pair in q.split('&').filter(|p| !p.is_empty()) {
            match pair.split_once('=') {
                Some((k, v)) => {
                    query.insert(
                        coin_wrapper::web::url_decode(k),
                        coin_wrapper::web::url_decode(v),
                    );
                }
                None => {
                    query.insert(coin_wrapper::web::url_decode(pair), String::new());
                }
            }
        }
    }
    Ok((method, path, query, version))
}

/// Fold one `Name: value` line into the (lower-cased) header map.
fn insert_header_line(headers: &mut BTreeMap<String, String>, line: &str) {
    if let Some((k, v)) = line.split_once(':') {
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
    }
}

/// Decode and bound the `Content-Length` header.
fn content_length(
    headers: &BTreeMap<String, String>,
    max_body_bytes: usize,
) -> Result<usize, RequestError> {
    let len: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|_| RequestError::Malformed(format!("bad content-length {v:?}")))?,
    };
    if len > max_body_bytes {
        return Err(RequestError::TooLarge(format!(
            "body of {len} bytes exceeds the {max_body_bytes}-byte limit"
        )));
    }
    Ok(len)
}

/// Where a reactor connection is in its request/response cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Waiting for (more of) the next request.
    Reading,
    /// A complete request is with the worker pool; no further reads until
    /// its response is written (pipelined successors wait in `buf`).
    InFlight {
        /// Whether the connection persists after this response.
        keep: bool,
    },
    /// A chunked response is in progress: the owning worker pumps body
    /// chunks through [`Conn::body_stream`], the reactor frames and writes
    /// them as the socket drains, and watches the socket for a peer
    /// disconnect (which cancels the producer).
    Streaming {
        /// Whether the connection persists after a *clean* stream end.
        keep: bool,
    },
    /// Final response queued (or none); flush `out`, then close.
    Closing,
}

/// One message from the producing worker to the reactor on a streaming
/// response. The channel is bounded, so a worker outrunning the socket
/// blocks on `send` — backpressure that keeps the reactor-side buffer
/// bounded no matter how large the result is.
pub(crate) enum StreamMsg {
    /// Raw body bytes (unframed; the reactor applies chunk framing).
    Chunk(Vec<u8>),
    /// The producer finished. `clean` = write the terminal chunk and
    /// resume keep-alive; otherwise close without it so the peer detects
    /// the truncation.
    End { clean: bool },
}

/// Reactor-side handle to an in-progress streamed response.
pub(crate) struct StreamHandle {
    /// Body chunks from the producing worker.
    pub(crate) rx: mpsc::Receiver<StreamMsg>,
    /// Flipped by the reactor when the peer disconnects mid-stream; the
    /// producer polls it (via its `CancelToken`) and aborts the plan.
    pub(crate) cancel: Arc<AtomicBool>,
}

/// One nonblocking connection, exclusively owned by the reactor shard
/// it was assigned to at accept time: only that shard's event loop
/// reads, writes, times out, or closes it (workers see connection *ids*,
/// never sockets), so no per-connection locking exists anywhere.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Received-but-unparsed bytes (may hold pipelined requests).
    pub(crate) buf: Vec<u8>,
    /// Encoded response bytes not yet accepted by the socket.
    out: Vec<u8>,
    out_pos: usize,
    pub(crate) state: ConnState,
    /// Requests served (or dispatched) on this connection so far.
    pub(crate) served: usize,
    /// Deadline for completing the partially-received request in `buf`
    /// (set when the first byte arrives, cleared per parsed request).
    pub(crate) read_deadline: Option<Instant>,
    /// Deadline for draining `out` (a peer that stops reading cannot pin
    /// a response buffer forever).
    pub(crate) write_deadline: Option<Instant>,
    /// Start of the current idle period (no buffered bytes, nothing in
    /// flight) — the idle-timeout clock.
    pub(crate) idle_since: Instant,
    /// The peer sent FIN: no more request bytes will ever arrive, but a
    /// half-closing client may still be owed (and read) responses.
    pub(crate) peer_eof: bool,
    /// Live streamed response, present exactly while `state` is
    /// [`ConnState::Streaming`].
    pub(crate) body_stream: Option<StreamHandle>,
}

/// How long a queued response may wait for the peer to read it.
const WRITE_DEADLINE: Duration = Duration::from_secs(10);

impl Conn {
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Conn {
        let _ = stream.set_nodelay(true);
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            state: ConnState::Reading,
            served: 0,
            read_deadline: None,
            write_deadline: None,
            idle_since: now,
            peer_eof: false,
            body_stream: None,
        }
    }

    /// Should the reactor poll this connection for readability? During a
    /// stream the socket is watched too — not for requests, but so a
    /// peer's FIN is observed promptly and cancels the running plan.
    pub(crate) fn wants_read(&self) -> bool {
        (self.state == ConnState::Reading || matches!(self.state, ConnState::Streaming { .. }))
            && !self.peer_eof
    }

    /// Should the reactor poll this connection for writability?
    pub(crate) fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The `(read, write)` readiness interest the owning shard should
    /// register with its poller. Derived entirely from connection state,
    /// so re-submitting it after every state change is always correct —
    /// the poller skips the syscall when nothing changed.
    pub(crate) fn interest(&self) -> (bool, bool) {
        (self.wants_read(), self.wants_write())
    }

    /// Queue an encoded response behind any bytes already pending.
    pub(crate) fn queue_response(&mut self, resp: &HttpResponse, keep_alive: bool, now: Instant) {
        self.queue_bytes(&encode_response(resp, keep_alive), now);
    }

    /// Queue raw pre-encoded bytes (a chunked-response head or chunk
    /// frame) behind any bytes already pending.
    pub(crate) fn queue_bytes(&mut self, bytes: &[u8], now: Instant) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        self.out.extend_from_slice(bytes);
        // Armed only when output *first* becomes pending (try_write
        // clears it on drain): a peer that keeps triggering responses
        // without ever reading them must not keep pushing the deadline
        // out, or its buffer would grow for as long as it floods.
        if self.write_deadline.is_none() {
            self.write_deadline = Some(now + WRITE_DEADLINE);
        }
    }

    /// Bytes queued but not yet accepted by the socket — the reactor
    /// stops refilling from a stream channel past a watermark so its
    /// buffer stays bounded (backpressure then falls on the producer).
    pub(crate) fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Push pending output into the socket. `Ok(true)` = fully drained,
    /// `Ok(false)` = the socket would block; any error means the
    /// connection is dead.
    pub(crate) fn try_write(&mut self) -> std::io::Result<bool> {
        while self.out_pos < self.out.len() {
            match (&self.stream).write(&self.out[self.out_pos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.out_pos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.out.clear();
        self.out_pos = 0;
        self.write_deadline = None;
        Ok(true)
    }

    /// Drain the socket into `buf`. `Ok(true)` = the peer closed its end;
    /// any error (other than would-block) means the connection is dead.
    pub(crate) fn read_available(&mut self) -> std::io::Result<bool> {
        let mut chunk = [0u8; 8 * 1024];
        loop {
            match (&self.stream).read(&mut chunk) {
                Ok(0) => return Ok(true),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Close the socket for good (best effort).
    pub(crate) fn shutdown(&self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(input: &[u8]) -> ParseStatus {
        try_parse_request(input, 1024 * 1024).unwrap()
    }

    #[test]
    fn incremental_parse_waits_for_the_full_head_and_body() {
        let full = b"POST /query?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nbody";
        for cut in 0..full.len() {
            assert!(
                matches!(parse_ok(&full[..cut]), ParseStatus::Incomplete),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        match parse_ok(full) {
            ParseStatus::Complete(req, consumed) => {
                assert_eq!(consumed, full.len());
                assert_eq!(req.method, "POST");
                assert_eq!(req.path, "/query");
                assert_eq!(req.query.get("x").map(String::as_str), Some("1"));
                assert_eq!(req.version, "HTTP/1.1");
                assert_eq!(req.body, b"body");
            }
            ParseStatus::Incomplete => panic!("full request must parse"),
        }
    }

    #[test]
    fn pipelined_requests_are_consumed_one_at_a_time() {
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec();
        let ParseStatus::Complete(first, consumed) = parse_ok(&two) else {
            panic!("first request must parse");
        };
        assert_eq!(first.path, "/a");
        let ParseStatus::Complete(second, rest) = parse_ok(&two[consumed..]) else {
            panic!("second request must parse");
        };
        assert_eq!(second.path, "/b");
        assert_eq!(consumed + rest, two.len());
    }

    #[test]
    fn bare_lf_line_endings_are_accepted() {
        match parse_ok(b"GET /x HTTP/1.1\nHost: h\n\n") {
            ParseStatus::Complete(req, _) => assert_eq!(req.path, "/x"),
            ParseStatus::Incomplete => panic!("LF-only head must parse"),
        }
    }

    #[test]
    fn leading_blank_lines_are_tolerated_but_bounded() {
        match parse_ok(b"\r\n\r\nGET /x HTTP/1.1\r\n\r\n") {
            ParseStatus::Complete(req, consumed) => {
                assert_eq!(req.path, "/x");
                assert_eq!(consumed, b"\r\n\r\nGET /x HTTP/1.1\r\n\r\n".len());
            }
            ParseStatus::Incomplete => panic!("blank-prefixed request must parse"),
        }
        let flood = b"\n\n\n\n\n\n\n\n\n\nGET /x HTTP/1.1\r\n\r\n";
        assert!(matches!(
            try_parse_request(flood, 1024),
            Err(RequestError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_pieces_fail_with_the_right_error() {
        let long_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_HEAD_LINE));
        assert!(matches!(
            try_parse_request(long_line.as_bytes(), 1024),
            Err(RequestError::HeadTooLarge(_))
        ));
        // An unterminated head growing past the line cap fails early,
        // before any terminator arrives.
        let drip = vec![b'a'; MAX_HEAD_LINE + 2];
        assert!(matches!(
            try_parse_request(&drip, 1024),
            Err(RequestError::HeadTooLarge(_))
        ));
        assert!(matches!(
            try_parse_request(b"POST /q HTTP/1.1\r\nContent-Length: 4096\r\n\r\n", 1024),
            Err(RequestError::TooLarge(_))
        ));
        assert!(matches!(
            try_parse_request(b"POST /q HTTP/1.1\r\nContent-Length: pear\r\n\r\n", 1024),
            Err(RequestError::Malformed(_))
        ));
    }
}
