//! HTTP/1.1 server and client over `std::net`.
//!
//! "The protocol supporting this API is currently tunneled in the HyperText
//! Transfer Protocol (HTTP) of the World Wide Web. The API can be used
//! within any application with basic capabilities for Internet socket based
//! communication." (paper §2)
//!
//! The transport is built for sustained multi-client traffic rather than
//! one connection per request:
//!
//! * **Keep-alive**: connections are persistent by default (HTTP/1.1
//!   semantics; `Connection: close` and HTTP/1.0 are honored), serving
//!   pipelined sequential requests until the peer closes, an idle timeout
//!   elapses, or the per-connection request cap is reached.
//! * **Event-driven**: reactor shards multiplex every nonblocking
//!   connection on a readiness loop (`epoll(7)` or `poll(2)`, see
//!   [`ReactorBackend`]) and hand only *complete* requests to the worker
//!   pool, so idle or slow connections cost no thread.
//! * **Bounded backpressure**: admitted work enters a bounded queue under
//!   a connection budget; overflow is shed immediately with `503 Service
//!   Unavailable` + `Retry-After` instead of queueing unboundedly.
//! * **Fault isolation**: malformed requests get a `400`, oversized heads
//!   a `431`, oversized bodies a `413`, stalled requests a `408` — and
//!   the server lives on to serve the next connection.
//!
//! The client side offers the blocking one-shot `get`/`post` helpers plus
//! [`HttpClient`], a persistent connection that reuses one socket across
//! requests and transparently reconnects when the pooled socket went
//! stale.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// Decoded query parameters.
    pub query: BTreeMap<String, String>,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
    /// Protocol version from the request line (`HTTP/1.1`, `HTTP/1.0`).
    pub version: String,
}

impl HttpRequest {
    pub fn body_str(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A streaming response body: the transport pulls chunks from the
/// producer and frames them as `Transfer-Encoding: chunked` while the
/// producer is still computing later rows — nothing is materialized.
///
/// The producer returns `Ok(Some(bytes))` per chunk, `Ok(None)` at the
/// end (the transport writes the terminal chunk; keep-alive resumes),
/// and `Err` on a mid-stream failure — the transport then closes the
/// connection *without* the terminal chunk, so the peer detects
/// truncation instead of trusting a half response.
///
/// The transport flips [`StreamBody::cancel_flag`] when the peer
/// disconnects mid-stream; producers that wire the flag into a
/// [`coin_rel::CancelToken`] abort their query pipeline instead of
/// computing rows nobody will read.
pub struct StreamBody {
    cancel: Arc<AtomicBool>,
    next: Box<dyn FnMut() -> Result<Option<Vec<u8>>, String> + Send>,
}

impl StreamBody {
    /// Wrap a chunk producer. `cancel` is the flag the transport flips on
    /// peer disconnect — pass the same flag the producer polls.
    pub fn new(
        cancel: Arc<AtomicBool>,
        next: impl FnMut() -> Result<Option<Vec<u8>>, String> + Send + 'static,
    ) -> StreamBody {
        StreamBody {
            cancel,
            next: Box::new(next),
        }
    }

    /// The disconnect flag shared with the producer.
    pub fn cancel_flag(&self) -> &Arc<AtomicBool> {
        &self.cancel
    }

    /// Pull the next chunk, containing producer panics as errors.
    pub(crate) fn pull(&mut self) -> Result<Option<Vec<u8>>, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(&mut self.next))
            .unwrap_or_else(|_| Err("stream producer panicked".into()))
    }
}

impl std::fmt::Debug for StreamBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamBody")
            .field("cancelled", &self.cancel.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// An HTTP response under construction.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    pub content_type: String,
    pub body: Vec<u8>,
    /// Emitted as a `Retry-After` header (seconds) when set — load-shed
    /// responses tell well-behaved clients when to come back.
    pub retry_after: Option<u64>,
    /// When set, `body` is ignored and the response is sent
    /// `Transfer-Encoding: chunked`, pulled from the producer as the
    /// socket drains (see [`StreamBody`]).
    pub stream: Option<StreamBody>,
}

impl HttpResponse {
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> HttpResponse {
        HttpResponse {
            status: 200,
            content_type: content_type.into(),
            body: body.into(),
            retry_after: None,
            stream: None,
        }
    }

    /// A `200` whose body streams from `stream` as a chunked response.
    pub fn streamed(content_type: &str, stream: StreamBody) -> HttpResponse {
        HttpResponse {
            stream: Some(stream),
            ..HttpResponse::ok(content_type, Vec::new())
        }
    }

    pub fn json(body: &crate::json::Json) -> HttpResponse {
        HttpResponse::ok("application/json", body.to_string())
    }

    pub fn html(body: &str) -> HttpResponse {
        HttpResponse::ok("text/html; charset=utf-8", body)
    }

    pub fn error(status: u16, message: &str) -> HttpResponse {
        HttpResponse {
            status,
            content_type: "text/plain; charset=utf-8".into(),
            body: message.as_bytes().to_vec(),
            retry_after: None,
            stream: None,
        }
    }

    /// The load-shedding response: `503` with a `Retry-After` hint.
    pub fn unavailable(retry_after_secs: u64) -> HttpResponse {
        HttpResponse {
            retry_after: Some(retry_after_secs),
            ..HttpResponse::error(503, "server overloaded; retry later")
        }
    }

    fn status_text(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

/// HTTP-layer errors.
#[derive(Debug)]
pub enum HttpError {
    Io(std::io::Error),
    Malformed(String),
    Status(u16, String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "io: {e}"),
            HttpError::Malformed(m) => write!(f, "malformed http: {m}"),
            HttpError::Status(code, body) => write!(f, "http {code}: {body}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// The request handler type.
pub type Handler = Arc<dyn Fn(&HttpRequest) -> HttpResponse + Send + Sync>;

/// Which OS readiness primitive each reactor shard multiplexes with.
///
/// Both backends drive identical connection state machines; they differ
/// only in where the interest set lives. `poll(2)` rebuilds its whole
/// fd array on every wakeup — O(open connections) per loop iteration —
/// while `epoll(7)` keeps a persistent kernel-side interest set updated
/// only when a connection's interest actually changes, so a wakeup
/// costs O(ready). [`ServerMetricsSnapshot::interest_ops`] exposes the
/// difference as a counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReactorBackend {
    /// Pick the best primitive available: `epoll(7)` on Linux,
    /// `poll(2)` elsewhere.
    #[default]
    Auto,
    /// The portable `poll(2)` loop.
    Poll,
    /// Linux `epoll(7)` with a persistent interest set. On hosts
    /// without epoll this silently falls back to `poll(2)` — the
    /// contract is identical, only the syscall shape differs.
    Epoll,
}

/// Transport tuning knobs for [`serve_with`].
///
/// Reactor threads own every connection and drive the per-connection
/// framing/keep-alive/timeout state machines; workers only ever see
/// *complete* requests. N idle or slow connections cost zero worker
/// threads, so the open-connection count is decoupled from the pool
/// size. Connections are sharded round-robin across
/// [`ServerConfig::reactor_shards`] reactor threads, each multiplexing
/// with the [`ReactorBackend`] of choice.
///
/// ```
/// use coin_server::http::ServerConfig;
/// use std::time::Duration;
///
/// let cfg = ServerConfig {
///     workers: 8,
///     idle_timeout: Duration::from_secs(30),
///     ..ServerConfig::default()
/// };
/// assert!(cfg.keep_alive);
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler threads: bounds concurrently *executing* requests — open
    /// connections can far exceed it.
    pub workers: usize,
    /// Bounded queue of parsed requests waiting for a worker. Overflow is
    /// shed with `503 + Retry-After`.
    pub queue_depth: usize,
    /// Budget on open connections. `0` derives
    /// `max(workers + queue_depth, 1024)` (idle connections are cheap).
    /// Excess connections are shed with `503`.
    pub max_connections: usize,
    /// Persistent connections (`false` forces `Connection: close` on
    /// every response).
    pub keep_alive: bool,
    /// Close a keep-alive connection after this long with no new request.
    pub idle_timeout: Duration,
    /// Close a connection after serving this many requests (0 = no cap).
    pub max_requests_per_connection: usize,
    /// Largest accepted request body; larger gets `413` and a close.
    pub max_body_bytes: usize,
    /// `Retry-After` seconds advertised on shed responses.
    pub retry_after_secs: u64,
    /// Deadline for reading one request once its first byte arrived
    /// (slow-loris defense: overrunning it gets `408` and a close).
    pub read_timeout: Duration,
    /// Reactor event-loop threads; accepted connections are handed off
    /// round-robin, so each shard owns `1/N` of the fleet. `0` derives
    /// one shard per available core (capped at 8).
    pub reactor_shards: usize,
    /// Readiness primitive for the reactor shards; see
    /// [`ReactorBackend`].
    pub reactor_backend: ReactorBackend,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            max_connections: 0,
            keep_alive: true,
            idle_timeout: Duration::from_secs(5),
            max_requests_per_connection: 0,
            max_body_bytes: 1024 * 1024,
            retry_after_secs: 1,
            read_timeout: Duration::from_secs(10),
            reactor_shards: 0,
            reactor_backend: ReactorBackend::default(),
        }
    }
}

impl ServerConfig {
    /// The connection budget actually enforced.
    pub(crate) fn budget(&self) -> usize {
        if self.max_connections != 0 {
            return self.max_connections;
        }
        // Idle connections cost no thread, so the derived default does
        // not tie fleet size to pool size.
        (self.workers.max(1) + self.queue_depth.max(1)).max(1024)
    }
}

/// Cumulative transport counters, readable while the server runs.
#[derive(Default)]
pub(crate) struct ServerMetrics {
    pub(crate) accepted: AtomicU64,
    pub(crate) shed: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) keepalive_reuses: AtomicU64,
    pub(crate) malformed: AtomicU64,
    pub(crate) timeouts: AtomicU64,
    /// Gauge: connections currently admitted and not yet closed.
    pub(crate) open: AtomicU64,
    /// Reactor readiness-loop iterations, summed over shards.
    pub(crate) wakeups: AtomicU64,
    /// Chunked (streaming) responses started.
    pub(crate) streams: AtomicU64,
    /// Streaming responses that ended without the terminal chunk: peer
    /// disconnect, producer error, or producer panic.
    pub(crate) streams_aborted: AtomicU64,
    /// Per-shard reactor gauges.
    pub(crate) shards: Vec<ShardMetrics>,
}

/// Per-shard reactor gauges; the global counters above aggregate them.
#[derive(Default)]
pub(crate) struct ShardMetrics {
    /// Connections currently owned by this shard (the acceptor
    /// increments at handoff; the shard decrements on close).
    pub(crate) open: AtomicU64,
    /// Readiness-loop iterations on this shard.
    pub(crate) wakeups: AtomicU64,
    /// Cumulative interest-set syscall traffic on this shard: pollfd
    /// slots submitted per wait (poll backend) or `epoll_ctl` calls
    /// (epoll backend). See [`ServerMetricsSnapshot::interest_ops`].
    pub(crate) interest_ops: AtomicU64,
}

impl ServerMetrics {
    /// Metrics for a server with `n` reactor shards.
    pub(crate) fn with_shards(n: usize) -> ServerMetrics {
        ServerMetrics {
            shards: (0..n).map(|_| ShardMetrics::default()).collect(),
            ..ServerMetrics::default()
        }
    }

    fn snapshot(&self) -> ServerMetricsSnapshot {
        ServerMetricsSnapshot {
            connections_accepted: self.accepted.load(Ordering::Relaxed),
            connections_shed: self.shed.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            keepalive_reuses: self.keepalive_reuses.load(Ordering::Relaxed),
            malformed_requests: self.malformed.load(Ordering::Relaxed),
            request_timeouts: self.timeouts.load(Ordering::Relaxed),
            open_connections: self.open.load(Ordering::SeqCst),
            reactor_wakeups: self.wakeups.load(Ordering::Relaxed),
            streams: self.streams.load(Ordering::Relaxed),
            streams_aborted: self.streams_aborted.load(Ordering::Relaxed),
            open_per_shard: self
                .shards
                .iter()
                .map(|s| s.open.load(Ordering::SeqCst))
                .collect(),
            wakeups_per_shard: self
                .shards
                .iter()
                .map(|s| s.wakeups.load(Ordering::Relaxed))
                .collect(),
            interest_ops: self
                .shards
                .iter()
                .map(|s| s.interest_ops.load(Ordering::Relaxed))
                .sum(),
        }
    }
}

/// Point-in-time copy of the server's transport counters (see
/// [`ServerHandle::metrics`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerMetricsSnapshot {
    /// Connections the accept loop took off the listener.
    pub connections_accepted: u64,
    /// Admissions refused with `503 + Retry-After`: whole connections
    /// (budget exceeded), plus individual requests shed off open
    /// connections when the work queue is full.
    pub connections_shed: u64,
    /// Requests handed to handlers.
    pub requests: u64,
    /// Requests served on an already-used connection (keep-alive wins).
    pub keepalive_reuses: u64,
    /// Requests rejected as malformed or oversized (4xx, connection
    /// closed, worker survives).
    pub malformed_requests: u64,
    /// Requests that started but did not finish arriving within
    /// `read_timeout` (answered `408`, connection closed).
    pub request_timeouts: u64,
    /// Gauge: connections currently open (admitted and not yet closed).
    /// This can far exceed `workers` — the point of the readiness loop.
    pub open_connections: u64,
    /// Gauge of reactor activity: readiness-loop iterations so far
    /// (wait-syscall returns, summed over shards).
    pub reactor_wakeups: u64,
    /// Chunked (streaming) responses started.
    pub streams: u64,
    /// Streaming responses that ended without the terminal chunk — the
    /// peer disconnected mid-stream (the running plan was cancelled), the
    /// producer failed, or it panicked.
    pub streams_aborted: u64,
    /// Per-shard gauge of open connections. The acceptor's round-robin
    /// handoff keeps these balanced: connection `i` lands on shard
    /// `i % N`.
    pub open_per_shard: Vec<u64>,
    /// Per-shard readiness-loop iterations; sums to
    /// [`Self::reactor_wakeups`].
    pub wakeups_per_shard: Vec<u64>,
    /// Cumulative interest-set syscall traffic across all shards:
    /// pollfd slots submitted per wait under [`ReactorBackend::Poll`]
    /// (so it grows by O(open connections) on *every* wakeup), or
    /// `epoll_ctl` calls under [`ReactorBackend::Epoll`] (so it grows
    /// only when a connection's interest actually changes, independent
    /// of how many idle connections are parked). The syscall-shape
    /// signal that the epoll interest set really is persistent.
    pub interest_ops: u64,
}

/// A running HTTP server; dropping it (or calling [`ServerHandle::stop`])
/// shuts the listener down.
pub struct ServerHandle {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    metrics: Arc<ServerMetrics>,
    /// Kicks the acceptor and every shard out of their wait syscall so
    /// they notice the stop flag promptly.
    waker: Box<dyn Fn() + Send + Sync>,
}

impl ServerHandle {
    /// Signal shutdown and join the event loop and workers.
    pub fn stop(mut self) {
        self.shutdown();
    }

    /// Cumulative transport counters so far.
    ///
    /// Counters are updated with relaxed atomics while the server runs;
    /// a snapshot taken during live traffic is internally consistent
    /// enough for monitoring, and exact once traffic quiesces.
    pub fn metrics(&self) -> ServerMetricsSnapshot {
        self.metrics.snapshot()
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        (self.waker)();
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }

    /// Assemble a handle from the reactor's parts.
    pub(crate) fn from_parts(
        addr: SocketAddr,
        stop: Arc<AtomicBool>,
        accept_thread: std::thread::JoinHandle<()>,
        workers: Vec<std::thread::JoinHandle<()>>,
        metrics: Arc<ServerMetrics>,
        waker: Box<dyn Fn() + Send + Sync>,
    ) -> ServerHandle {
        ServerHandle {
            addr,
            stop,
            accept_thread: Some(accept_thread),
            workers,
            metrics,
            waker,
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown();
        }
    }
}

/// Start a server on `addr` (use port 0 for an ephemeral port) with
/// `workers` handler threads and default transport settings.
pub fn serve(addr: &str, workers: usize, handler: Handler) -> Result<ServerHandle, HttpError> {
    serve_with(
        addr,
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
        handler,
    )
}

/// Start a server with explicit transport settings.
///
/// The listener binds immediately (use port `0` for an ephemeral port,
/// read back from [`ServerHandle::addr`]); the returned handle owns the
/// transport threads and shuts them down on [`ServerHandle::stop`] or
/// drop.
///
/// # Load-shedding contract
///
/// Admission is bounded, never queued unboundedly. A connection beyond
/// [`ServerConfig::max_connections`] is answered `503 Service
/// Unavailable` with a `Retry-After: {retry_after_secs}` header and
/// closed. A *request* arriving while the work queue is full gets the
/// same `503 + Retry-After`, but on a keep-alive connection the socket
/// stays open — a well-behaved client backs off and retries without
/// reconnecting. Shed admissions are counted in
/// [`ServerMetricsSnapshot::connections_shed`].
pub fn serve_with(
    addr: &str,
    cfg: ServerConfig,
    handler: Handler,
) -> Result<ServerHandle, HttpError> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    crate::reactor::serve(listener, cfg, handler)
}

/// Does this connection survive past the current request?
pub(crate) fn connection_persists(
    request: &HttpRequest,
    cfg: &ServerConfig,
    served: usize,
) -> bool {
    if !cfg.keep_alive {
        return false;
    }
    if cfg.max_requests_per_connection != 0 && served >= cfg.max_requests_per_connection {
        return false;
    }
    match request.headers.get("connection") {
        Some(c) if c.eq_ignore_ascii_case("close") => false,
        Some(c) if c.eq_ignore_ascii_case("keep-alive") => true,
        _ => request.version == "HTTP/1.1",
    }
}

/// The terminal chunk of a chunked body: its presence is what tells the
/// peer the stream ended cleanly rather than being cut off.
pub(crate) const CHUNK_TERMINATOR: &[u8] = b"0\r\n\r\n";

/// Frame one chunk of body bytes for `Transfer-Encoding: chunked`.
/// Never called with an empty chunk (that would encode the terminator).
pub(crate) fn encode_chunk(bytes: &[u8]) -> Vec<u8> {
    debug_assert!(!bytes.is_empty());
    let mut out = format!("{:x}\r\n", bytes.len()).into_bytes();
    out.extend_from_slice(bytes);
    out.extend_from_slice(b"\r\n");
    out
}

/// Serialize the head of a streamed (chunked) response. The body follows
/// as chunk frames; there is no `Content-Length`.
pub(crate) fn encode_stream_head(resp: &HttpResponse, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nTransfer-Encoding: chunked\r\n",
        resp.status,
        resp.status_text(),
        resp.content_type,
    );
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    head.into_bytes()
}

/// Serialize a response (head + body) into wire bytes. Responses are
/// always length-framed so keep-alive peers can find the next response.
pub(crate) fn encode_response(resp: &HttpResponse, keep_alive: bool) -> Vec<u8> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        resp.status_text(),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    head.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&resp.body);
    bytes
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// The peer dropped the connection (as opposed to timing out or failing
/// some other way) — the only error a pooled client socket may retry on.
fn is_disconnect(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// A decoded response: status, headers (lower-cased names), body.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    pub status: u16,
    pub headers: BTreeMap<String, String>,
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// The body, mapping any non-2xx status to [`HttpError::Status`].
    pub fn into_body(self) -> Result<Vec<u8>, HttpError> {
        if (200..300).contains(&self.status) {
            Ok(self.body)
        } else {
            Err(HttpError::Status(
                self.status,
                String::from_utf8_lossy(&self.body).into_owned(),
            ))
        }
    }
}

/// Read one response off `reader`. Returns the response plus whether the
/// connection must be treated as closed afterwards.
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<(ClientResponse, bool), HttpError> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(HttpError::Io(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before status line",
        )));
    }
    let mut parts = status_line.split_whitespace();
    let version = parts.next().unwrap_or_default().to_owned();
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed(format!("bad status line {status_line:?}")))?;

    let mut headers = BTreeMap::new();
    loop {
        let mut hline = String::new();
        reader.read_line(&mut hline)?;
        let trimmed = hline.trim_end();
        if trimmed.is_empty() {
            break;
        }
        if let Some((k, v)) = trimmed.split_once(':') {
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_owned());
        }
    }

    let content_length: Option<usize> = headers.get("content-length").and_then(|v| v.parse().ok());
    let chunked = headers
        .get("transfer-encoding")
        .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
    let mut body = Vec::new();
    let mut close = match headers.get("connection") {
        Some(c) if c.eq_ignore_ascii_case("close") => true,
        Some(c) if c.eq_ignore_ascii_case("keep-alive") => false,
        _ => version != "HTTP/1.1",
    };
    if chunked {
        // Chunked framing: EOF before the terminal chunk surfaces as an
        // error — a truncated stream must never pass for a complete body.
        read_chunked_body(reader, &mut body)?;
    } else {
        match content_length {
            Some(n) => {
                body.resize(n, 0);
                reader.read_exact(&mut body)?;
            }
            None => {
                // No framing: the body runs to EOF and the socket is spent.
                reader.read_to_end(&mut body)?;
                close = true;
            }
        }
    }
    Ok((
        ClientResponse {
            status,
            headers,
            body,
        },
        close,
    ))
}

/// Decode a `Transfer-Encoding: chunked` body into `body`, consuming the
/// terminal chunk and any trailer section. An EOF anywhere before the
/// terminal chunk is an [`HttpError::Io`] (truncated stream).
fn read_chunked_body(
    reader: &mut BufReader<TcpStream>,
    body: &mut Vec<u8>,
) -> Result<(), HttpError> {
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            return Err(HttpError::Io(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "stream truncated before the terminal chunk",
            )));
        }
        // Chunk extensions (after ';') are tolerated and ignored.
        let size_str = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_str, 16)
            .map_err(|_| HttpError::Malformed(format!("bad chunk size {size_line:?}")))?;
        if size == 0 {
            break;
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
        if &crlf != b"\r\n" {
            return Err(HttpError::Malformed("chunk missing CRLF".into()));
        }
    }
    // Trailer section: lines until the blank terminator (ignored).
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 || line.trim_end().is_empty() {
            break;
        }
    }
    Ok(())
}

/// A persistent HTTP/1.1 client: one socket reused across requests, with
/// a transparent one-shot reconnect when the pooled socket went stale
/// (e.g. the server's idle timeout closed it between requests).
///
/// # Retry policy
///
/// [`HttpClient::send`] retries **exactly once**, and **only** when both
/// hold:
///
/// 1. the failure is the stale-pooled-socket signature — a *reused*
///    connection that the peer closed before any response bytes
///    arrived (never a read timeout: the server may still be executing
///    the request, and re-sending would double the work);
/// 2. the method is **idempotent** (`GET` / `HEAD`). A `POST` is never
///    retried implicitly: the server may have received and acted on it
///    before the connection died, and replaying a non-idempotent
///    request would repeat its effect.
///
/// Callers that *know* a specific `POST` is safe to replay (the
/// mediation protocol's `POST /query` is read-only) opt in per call with
/// [`HttpClient::send_assuming_idempotent`] — the opt-in is an assertion
/// about the endpoint, made where that knowledge lives, instead of a
/// blanket client-wide gamble.
///
/// ```
/// use coin_server::http::{serve, HttpClient, HttpResponse};
/// use std::sync::Arc;
///
/// let server = serve("127.0.0.1:0", 2, Arc::new(|_req| {
///     HttpResponse::ok("text/plain", "pong")
/// })).unwrap();
///
/// let mut client = HttpClient::new(server.addr);
/// for _ in 0..3 {
///     assert_eq!(client.request("GET", "/ping", None, &[]).unwrap(), b"pong");
/// }
/// // All three requests reused one TCP connection.
/// assert_eq!(client.connects(), 1);
/// server.stop();
/// ```
#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
    connects: u64,
    requests: u64,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            stream: None,
            connects: 0,
            requests: 0,
        }
    }

    /// TCP connections opened so far (1 for an all-keep-alive exchange).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Requests sent so far.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Drop the pooled socket (the next request reconnects).
    pub fn disconnect(&mut self) {
        self.stream = None;
    }

    /// Issue a request and decode the full response. Non-2xx statuses are
    /// returned as responses, not errors — use [`ClientResponse::into_body`]
    /// or [`HttpClient::request`] for status-checked calls.
    ///
    /// Reconnects transparently (once) when a *reused* pooled socket
    /// turns out to be disconnected before any response bytes arrive —
    /// but only for idempotent methods (`GET` / `HEAD`); see the
    /// [type-level retry policy](HttpClient#retry-policy). For read-only
    /// `POST` endpoints use [`HttpClient::send_assuming_idempotent`].
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<ClientResponse, HttpError> {
        let idempotent = method.eq_ignore_ascii_case("GET") || method.eq_ignore_ascii_case("HEAD");
        self.send_with_retry(method, path, content_type, body, idempotent)
    }

    /// [`HttpClient::send`], with the caller asserting the request is
    /// safe to replay regardless of method — use for endpoints known to
    /// be read-only (e.g. the mediation protocol's `POST /query`), where
    /// the stale-pooled-socket reconnect is as safe as for a `GET`.
    pub fn send_assuming_idempotent(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<ClientResponse, HttpError> {
        self.send_with_retry(method, path, content_type, body, true)
    }

    fn send_with_retry(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
        may_retry: bool,
    ) -> Result<ClientResponse, HttpError> {
        let mut retried = false;
        loop {
            let reused = self.stream.is_some();
            match self.try_send(method, path, content_type, body) {
                Ok(response) => return Ok(response),
                // Retry only the stale-pooled-socket signature: the peer
                // closed the connection (e.g. its idle timeout fired)
                // before any response bytes arrived. A read *timeout* is
                // explicitly not retried — the server has the request and
                // may still be executing it; re-sending would double the
                // work. Non-idempotent requests are never retried here.
                Err(HttpError::Io(e)) if may_retry && reused && !retried && is_disconnect(&e) => {
                    self.stream = None;
                    retried = true;
                }
                Err(e) => {
                    self.stream = None;
                    return Err(e);
                }
            }
        }
    }

    /// [`HttpClient::send`] with non-2xx statuses mapped to
    /// [`HttpError::Status`].
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<Vec<u8>, HttpError> {
        self.send(method, path, content_type, body)?.into_body()
    }

    fn try_send(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> Result<ClientResponse, HttpError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            let _ = stream.set_nodelay(true);
            self.connects += 1;
            self.stream = Some(BufReader::new(stream));
        }
        let reader = self.stream.as_mut().expect("just connected");
        {
            let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr);
            if let Some(ct) = content_type {
                head.push_str(&format!("Content-Type: {ct}\r\n"));
            }
            head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
            let mut stream = reader.get_ref();
            stream.write_all(head.as_bytes())?;
            stream.write_all(body)?;
            stream.flush()?;
        }
        self.requests += 1;
        let (response, close) = read_response(reader)?;
        if close {
            self.stream = None;
        }
        Ok(response)
    }
}

/// Issue a one-shot request to `addr` (e.g. `127.0.0.1:4321`) on a fresh
/// connection with `Connection: close`. Returns status+body; a non-2xx
/// status is an [`HttpError::Status`].
pub fn request(
    addr: &SocketAddr,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> Result<Vec<u8>, HttpError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let (response, _close) = read_response(&mut reader)?;
    response.into_body()
}

/// GET helper.
pub fn get(addr: &SocketAddr, path: &str) -> Result<Vec<u8>, HttpError> {
    request(addr, "GET", path, None, &[])
}

/// POST helper.
pub fn post(
    addr: &SocketAddr,
    path: &str,
    content_type: &str,
    body: &[u8],
) -> Result<Vec<u8>, HttpError> {
    request(addr, "POST", path, Some(content_type), body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Mutex};

    fn echo_handler() -> Handler {
        Arc::new(
            |req: &HttpRequest| match (req.method.as_str(), req.path.as_str()) {
                ("GET", "/hello") => HttpResponse::ok(
                    "text/plain",
                    format!("hi {}", req.query.get("name").map_or("?", String::as_str)),
                ),
                ("POST", "/echo") => HttpResponse::ok("application/octet-stream", req.body.clone()),
                _ => HttpResponse::error(404, "nope"),
            },
        )
    }

    fn echo_server() -> ServerHandle {
        serve("127.0.0.1:0", 2, echo_handler()).unwrap()
    }

    #[test]
    fn get_roundtrip() {
        let server = echo_server();
        let body = get(&server.addr, "/hello?name=coin").unwrap();
        assert_eq!(body, b"hi coin");
        server.stop();
    }

    #[test]
    fn post_roundtrip_binary() {
        let server = echo_server();
        let payload: Vec<u8> = (0u8..100).collect();
        let body = post(&server.addr, "/echo", "application/octet-stream", &payload).unwrap();
        assert_eq!(body, payload);
        server.stop();
    }

    #[test]
    fn not_found_is_status_error() {
        let server = echo_server();
        match get(&server.addr, "/nope") {
            Err(HttpError::Status(404, _)) => {}
            other => panic!("{other:?}"),
        }
        server.stop();
    }

    #[test]
    fn concurrent_requests() {
        let server = echo_server();
        let addr = server.addr;
        let threads: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    let body = get(&addr, &format!("/hello?name=t{i}")).unwrap();
                    assert_eq!(body, format!("hi t{i}").into_bytes());
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn query_decoding() {
        let server = serve(
            "127.0.0.1:0",
            1,
            Arc::new(|req: &HttpRequest| HttpResponse::ok("text/plain", req.query["q"].clone())),
        )
        .unwrap();
        let body = get(&server.addr, "/x?q=a+b%3Dc").unwrap();
        assert_eq!(body, b"a b=c");
        server.stop();
    }

    #[test]
    fn keep_alive_reuses_one_socket() {
        let server = echo_server();
        let mut client = HttpClient::new(server.addr);
        for i in 0..10 {
            let body = client
                .request("GET", &format!("/hello?name=k{i}"), None, &[])
                .unwrap();
            assert_eq!(body, format!("hi k{i}").into_bytes());
        }
        assert_eq!(client.connects(), 1, "all requests on one connection");
        assert_eq!(client.requests(), 10);
        let m = server.metrics();
        assert_eq!(m.requests, 10);
        assert!(m.keepalive_reuses >= 9, "{m:?}");
        server.stop();
    }

    #[test]
    fn connection_close_is_honored() {
        let server = echo_server();
        // The one-shot helpers send `Connection: close`; each request must
        // land on a fresh accepted connection.
        get(&server.addr, "/hello?name=a").unwrap();
        get(&server.addr, "/hello?name=b").unwrap();
        let m = server.metrics();
        assert_eq!(m.connections_accepted, 2);
        assert_eq!(m.keepalive_reuses, 0);
        server.stop();
    }

    #[test]
    fn overload_sheds_with_503() {
        // One worker, queue of one, two connections: a slow in-service
        // request + a queued one on a second connection exhaust the
        // budget; the third connection is shed.
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let server = serve_with(
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                queue_depth: 1,
                max_connections: 2,
                ..ServerConfig::default()
            },
            Arc::new(move |_req: &HttpRequest| {
                let _ = entered_tx.send(());
                let _ = release_rx.lock().unwrap().recv();
                HttpResponse::ok("text/plain", "slow")
            }),
        )
        .unwrap();
        let addr = server.addr;
        let t1 = std::thread::spawn(move || get(&addr, "/a"));
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("first request reaches the worker");
        let t2 = std::thread::spawn(move || get(&addr, "/b"));
        // Wait until the second request is admitted (it parks in the
        // queue: the only worker is blocked inside the handler).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while server.metrics().open_connections < 2 || server.metrics().requests < 2 {
            assert!(std::time::Instant::now() < deadline, "admissions stalled");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut probe = HttpClient::new(addr);
        let resp = probe.send("GET", "/c", None, &[]).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("1")
        );
        assert!(server.metrics().connections_shed >= 1);
        // Release both slow requests; the server drains and recovers.
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        t1.join().unwrap().unwrap();
        t2.join().unwrap().unwrap();
        // A fresh request (with its own release) succeeds: recovered.
        release_tx.send(()).unwrap();
        let body = get(&addr, "/done");
        assert!(body.is_ok(), "{body:?}");
        server.stop();
    }

    #[test]
    fn malformed_request_gets_400_and_worker_survives() {
        let server = serve("127.0.0.1:0", 1, echo_handler()).unwrap();
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.write_all(b"NONSENSE\r\n\r\n").unwrap();
        raw.flush().unwrap();
        let mut resp = String::new();
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut reader = BufReader::new(raw);
        reader.read_line(&mut resp).unwrap();
        assert!(resp.contains("400"), "{resp}");
        drop(reader);
        // The single worker must still serve the next connection.
        let body = get(&server.addr, "/hello?name=alive").unwrap();
        assert_eq!(body, b"hi alive");
        assert_eq!(server.metrics().malformed_requests, 1);
        server.stop();
    }
}
