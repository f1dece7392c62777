//! The server's transport: an event-driven reactor (Unix only), sharded
//! across N event-loop threads.
//!
//! A dedicated **acceptor** thread owns the nonblocking listener. Every
//! accepted connection is either shed (`503 + Retry-After` when the
//! fleet is over budget) or handed off **round-robin** to one of N
//! **shard** threads: connection `i` lands on shard `i % N`, so the
//! fleet stays balanced and tests can place connections deterministically.
//! Each shard owns its slice of the fleet outright — sockets never
//! migrate — and multiplexes it with a [`crate::poller::Poller`]
//! (`epoll(7)` with a persistent interest set on Linux, portable
//! `poll(2)` elsewhere; see [`crate::http::ReactorBackend`]). Per shard,
//! the loop:
//!
//! 1. **admits** connections the acceptor queued on its intake,
//! 2. **reads** whatever bytes are ready and runs the incremental parser
//!    ([`crate::conn`]) until a *complete* request emerges,
//! 3. **dispatches** complete requests to the bounded worker queue
//!    (shedding overflow with `503` — the connection stays open),
//! 4. **writes** finished responses back as sockets accept them, and
//! 5. **reaps** deadline violations: stalled requests (`408`), idle
//!    keep-alive connections (silent close), and peers that stop reading
//!    their responses.
//!
//! Workers never see a socket: they take [`Job`]s (shard, connection id,
//! request), run the handler (panics contained to a `500`), and hand
//! the encoded response back through the owning shard's completion
//! queue, waking that shard through its self-wake socket pair (one pipe
//! per shard, so a completion never wakes an uninvolved shard). Idle or
//! slow connections therefore cost no thread, which is what decouples
//! the open-connection count from the pool size — and under epoll they
//! cost no per-wakeup syscall traffic either, which is what decouples
//! wakeup cost from fleet size (the property the `c10k` bench gates).

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use crate::conn::{
    try_parse_request, Conn, ConnState, ParseStatus, RequestError, StreamHandle, StreamMsg,
};
use crate::http::{
    connection_persists, encode_chunk, encode_response, encode_stream_head, Handler, HttpError,
    HttpRequest, HttpResponse, ReactorBackend, ServerConfig, ServerHandle, ServerMetrics,
    CHUNK_TERMINATOR,
};
use crate::poller::{poll_wait, Backend, Event, PollFd, Poller, POLLIN, WAKE_TOKEN};

/// How many reactor shards a config resolves to (`0` = one per
/// available core, capped at 8 — more shards than cores buys nothing).
fn resolved_shards(cfg: &ServerConfig) -> usize {
    if cfg.reactor_shards != 0 {
        return cfg.reactor_shards;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .clamp(1, 8)
}

/// Map the user-facing backend choice onto what this host can run.
fn resolved_backend(cfg: &ServerConfig) -> Backend {
    match cfg.reactor_backend {
        #[cfg(target_os = "linux")]
        ReactorBackend::Auto | ReactorBackend::Epoll => Backend::Epoll,
        // Hosts without epoll run the identical contract on poll(2).
        #[cfg(not(target_os = "linux"))]
        ReactorBackend::Auto | ReactorBackend::Epoll => Backend::Poll,
        ReactorBackend::Poll => Backend::Poll,
    }
}

/// One parsed request in flight from a shard to the worker pool.
struct Job {
    /// The shard that owns the connection (routes the completion back).
    shard: usize,
    /// Shard-local connection id.
    conn: u64,
    request: HttpRequest,
}

/// What a worker hands back through a shard's completion queue.
enum Completion {
    /// A buffered response for this connection (`None` = the handler
    /// panicked; the shard answers `500` and closes).
    Response(u64, Option<HttpResponse>),
    /// The handler returned a streaming body: the worker is now pumping
    /// chunks through `rx` and the shard should write the chunked head
    /// and start framing. `cancel` is the producer's abort flag — the
    /// shard flips it when the peer disconnects mid-stream.
    StreamStart {
        id: u64,
        status: u16,
        content_type: String,
        rx: mpsc::Receiver<StreamMsg>,
        cancel: Arc<AtomicBool>,
    },
}

/// Bound on body chunks in flight between a producing worker and the
/// owning shard: a worker outrunning the socket blocks on `send`, which
/// is the backpressure that keeps streamed responses bounded-memory.
const STREAM_CHANNEL_DEPTH: usize = 2;

/// Stop refilling a connection's output buffer from its stream channel
/// once this many bytes are already pending on the socket.
const STREAM_OUT_WATERMARK: usize = 256 * 1024;

/// Start the sharded reactor transport on an already-bound nonblocking
/// listener.
pub(crate) fn serve(
    listener: TcpListener,
    cfg: ServerConfig,
    handler: Handler,
) -> Result<ServerHandle, HttpError> {
    let local = listener.local_addr()?;
    let nshards = resolved_shards(&cfg);
    let backend = resolved_backend(&cfg);
    let stop = Arc::new(AtomicBool::new(false));
    let metrics = Arc::new(ServerMetrics::with_shards(nshards));

    // Per-shard plumbing: a self-wake pipe (workers, the acceptor, and
    // the handle write one byte to kick the shard out of its wait), an
    // intake queue the acceptor pushes accepted sockets onto, and a
    // completion queue the workers push finished responses onto.
    let mut shard_wake_rx = Vec::with_capacity(nshards);
    let mut shard_wake_tx = Vec::with_capacity(nshards);
    for _ in 0..nshards {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        shard_wake_rx.push(rx);
        shard_wake_tx.push(tx);
    }
    let intakes: Vec<Arc<Mutex<Vec<TcpStream>>>> = (0..nshards)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let completions: Vec<Arc<Mutex<Vec<Completion>>>> = (0..nshards)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();

    let (accept_wake_rx, accept_wake_tx) = UnixStream::pair()?;
    accept_wake_rx.set_nonblocking(true)?;
    accept_wake_tx.set_nonblocking(true)?;

    let (job_tx, job_rx) = mpsc::sync_channel::<Job>(cfg.queue_depth.max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));

    let mut worker_threads = Vec::with_capacity(cfg.workers.max(1));
    for _ in 0..cfg.workers.max(1) {
        let job_rx = Arc::clone(&job_rx);
        let handler = Arc::clone(&handler);
        let completions: Vec<_> = completions.iter().map(Arc::clone).collect();
        let wakes = shard_wake_tx
            .iter()
            .map(UnixStream::try_clone)
            .collect::<std::io::Result<Vec<_>>>()?;
        worker_threads.push(std::thread::spawn(move || loop {
            let next = job_rx
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .recv();
            let Ok(Job {
                shard,
                conn: conn_id,
                request,
            }) = next
            else {
                break; // shards gone: queue drained, pool winds down
            };
            let response =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| handler(&request))).ok();
            let push = |c: Completion| {
                completions[shard]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(c);
                // A full (or closed) wake pipe is fine: the shard drains
                // it whole and checks the completion queue on every
                // wakeup.
                let _ = (&wakes[shard]).write(&[1]);
            };
            match response {
                Some(mut resp) if resp.stream.is_some() => {
                    // Streamed response: this worker stays on it, pulling
                    // body chunks and pushing them through a bounded
                    // channel; the owning shard owns the socket and
                    // frames them. The worker is pinned for the stream's
                    // lifetime — the price of never materializing.
                    let mut body = resp.stream.take().expect("checked is_some");
                    let (tx, rx) = mpsc::sync_channel::<StreamMsg>(STREAM_CHANNEL_DEPTH);
                    push(Completion::StreamStart {
                        id: conn_id,
                        status: resp.status,
                        content_type: resp.content_type.clone(),
                        rx,
                        cancel: Arc::clone(body.cancel_flag()),
                    });
                    loop {
                        // Flipped by the shard on peer disconnect; the
                        // producer's own pipeline also observes it (via
                        // its CancelToken) and aborts between rows.
                        if body.cancel_flag().load(Ordering::SeqCst) {
                            break;
                        }
                        match body.pull() {
                            Ok(Some(chunk)) => {
                                if chunk.is_empty() {
                                    continue;
                                }
                                // A dropped receiver = the connection
                                // died; stop producing.
                                if tx.send(StreamMsg::Chunk(chunk)).is_err() {
                                    break;
                                }
                                let _ = (&wakes[shard]).write(&[1]);
                            }
                            Ok(None) => {
                                let _ = tx.send(StreamMsg::End { clean: true });
                                let _ = (&wakes[shard]).write(&[1]);
                                break;
                            }
                            Err(_) => {
                                let _ = tx.send(StreamMsg::End { clean: false });
                                let _ = (&wakes[shard]).write(&[1]);
                                break;
                            }
                        }
                    }
                }
                other => push(Completion::Response(conn_id, other)),
            }
        }));
    }

    let mut shard_threads = Vec::with_capacity(nshards);
    for (idx, wake_rx) in shard_wake_rx.into_iter().enumerate() {
        // Created here (not in the thread) so backend setup failures
        // surface as a serve() error instead of a dead shard.
        let poller = Poller::new(backend)?;
        let shard = Shard {
            idx,
            cfg: cfg.clone(),
            metrics: Arc::clone(&metrics),
            stop: Arc::clone(&stop),
            wake_rx,
            intake: Arc::clone(&intakes[idx]),
            job_tx: job_tx.clone(),
            completions: Arc::clone(&completions[idx]),
            poller,
            conns: HashMap::new(),
            next_id: 1,
            dirty: Vec::new(),
        };
        shard_threads.push(std::thread::spawn(move || shard.run()));
    }
    // Only the shards hold job senders now: when they exit, the worker
    // pool drains the queue and winds down.
    drop(job_tx);

    let acceptor = Acceptor {
        listener,
        cfg,
        metrics: Arc::clone(&metrics),
        stop: Arc::clone(&stop),
        wake_rx: accept_wake_rx,
        shards: intakes
            .into_iter()
            .zip(
                shard_wake_tx
                    .iter()
                    .map(UnixStream::try_clone)
                    .collect::<std::io::Result<Vec<_>>>()?,
            )
            .map(|(queue, wake)| ShardIntake { queue, wake })
            .collect(),
        next_shard: 0,
    };
    let accept_thread = std::thread::spawn(move || acceptor.run());

    // Shard threads precede worker threads so shutdown joins them (and
    // drops their job senders) before waiting on the pool.
    let mut transport_threads = shard_threads;
    transport_threads.extend(worker_threads);

    Ok(ServerHandle::from_parts(
        local,
        stop,
        accept_thread,
        transport_threads,
        metrics,
        Box::new(move || {
            let _ = (&accept_wake_tx).write(&[1]);
            for wake in &shard_wake_tx {
                let _ = (&*wake).write(&[1]);
            }
        }),
    ))
}

/// Refuse a connection with the load-shedding response.
fn shed(stream: TcpStream, retry_after_secs: u64, metrics: &ServerMetrics) {
    metrics.shed.fetch_add(1, Ordering::Relaxed);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = (&stream).write_all(&encode_response(
        &HttpResponse::unavailable(retry_after_secs),
        false,
    ));
    let _ = stream.shutdown(Shutdown::Both);
}

/// The acceptor's handle to one shard: where to queue a socket and how
/// to wake the shard so it notices.
struct ShardIntake {
    queue: Arc<Mutex<Vec<TcpStream>>>,
    wake: UnixStream,
}

/// The accept loop: polls the listener (and its own wake pipe), sheds
/// over-budget connections, and deals admitted sockets round-robin.
struct Acceptor {
    listener: TcpListener,
    cfg: ServerConfig,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    wake_rx: UnixStream,
    shards: Vec<ShardIntake>,
    next_shard: usize,
}

impl Acceptor {
    fn run(mut self) {
        let mut fds = [
            PollFd {
                fd: self.wake_rx.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
            PollFd {
                fd: self.listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            },
        ];
        while !self.stop.load(Ordering::SeqCst) {
            fds[0].revents = 0;
            fds[1].revents = 0;
            if poll_wait(&mut fds, None).is_err() {
                break;
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            if fds[0].revents & POLLIN != 0 {
                let mut sink = [0u8; 64];
                while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
            }
            if fds[1].revents & POLLIN != 0 {
                self.accept_ready();
            }
        }
    }

    fn accept_ready(&mut self) {
        let budget = self.cfg.budget();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
                    // The global open gauge is the budget's source of
                    // truth: shards decrement it as they close, so
                    // freed budget is visible here as soon as the
                    // owning shard processes the close. (A connect that
                    // races a still-unprocessed close may be shed; the
                    // budget is a bound, not a reservation system.)
                    if self.metrics.open.load(Ordering::SeqCst) as usize >= budget {
                        // Shedding writes a tiny fixed response; do it
                        // blocking (with a short timeout) for simplicity.
                        let _ = stream.set_nonblocking(false);
                        shed(stream, self.cfg.retry_after_secs, &self.metrics);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    // Round-robin over *admitted* connections only, so
                    // placement stays deterministic: connection i lands
                    // on shard i % N regardless of shed traffic.
                    let shard = self.next_shard;
                    self.next_shard = (self.next_shard + 1) % self.shards.len();
                    self.metrics.open.fetch_add(1, Ordering::SeqCst);
                    self.metrics.shards[shard]
                        .open
                        .fetch_add(1, Ordering::SeqCst);
                    let target = &self.shards[shard];
                    target
                        .queue
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push(stream);
                    let _ = (&target.wake).write(&[1]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                // Transient accept failures (ECONNABORTED, EMFILE):
                // leave the listener registered and retry next wakeup.
                Err(_) => break,
            }
        }
    }
}

/// One reactor shard: exclusive owner of its slice of the connection
/// fleet, its poller, and its wake pipe.
struct Shard {
    idx: usize,
    cfg: ServerConfig,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    wake_rx: UnixStream,
    /// Sockets the acceptor assigned to this shard, not yet admitted
    /// into `conns`.
    intake: Arc<Mutex<Vec<TcpStream>>>,
    job_tx: mpsc::SyncSender<Job>,
    completions: Arc<Mutex<Vec<Completion>>>,
    poller: Poller,
    conns: HashMap<u64, Conn>,
    next_id: u64,
    /// Connection ids whose interest may have changed since the last
    /// [`Shard::sync_interest`]. Duplicates are fine (an unchanged
    /// interest re-submission is a poller no-op); ids of connections
    /// closed in the meantime are skipped.
    dirty: Vec<u64>,
}

impl Shard {
    fn run(mut self) {
        if self
            .poller
            .register(WAKE_TOKEN, self.wake_rx.as_raw_fd(), true, false)
            .is_err()
        {
            self.teardown();
            return;
        }
        let mut events: Vec<Event> = Vec::new();
        while !self.stop.load(Ordering::SeqCst) {
            let timeout = self.next_deadline_ms();
            if self.poller.wait(timeout, &mut events).is_err() {
                break; // unrecoverable backend failure; shut the shard
            }
            self.metrics.wakeups.fetch_add(1, Ordering::Relaxed);
            let per_shard = &self.metrics.shards[self.idx];
            per_shard.wakeups.fetch_add(1, Ordering::Relaxed);
            per_shard
                .interest_ops
                .store(self.poller.interest_ops(), Ordering::Relaxed);
            if self.stop.load(Ordering::SeqCst) {
                break;
            }

            let now = Instant::now();
            for ev in events.drain(..) {
                if ev.token == WAKE_TOKEN {
                    if ev.readable {
                        self.drain_wake_pipe();
                    }
                    continue;
                }
                self.service_conn(ev, now);
            }
            // Completions are drained every wakeup, whatever woke us:
            // a missed wake byte can never strand a finished response.
            self.apply_completions(now);
            // Streaming workers signal new chunks with a wake byte only;
            // pump every live stream on every wakeup so none strands.
            self.pump_streams(now);
            self.admit_intake(now);
            self.expire_deadlines(now);
            self.sync_interest();
        }
        self.teardown();
    }

    /// Drain open connections and hand their budget back, one by one —
    /// sibling shards may still be mid-drain, so no global reset.
    fn teardown(&mut self) {
        for (_, conn) in self.conns.drain() {
            if let Some(handle) = &conn.body_stream {
                // Unpin the producing worker: flag the plan cancelled;
                // the receiver drop below unblocks a parked `send`.
                handle.cancel.store(true, Ordering::SeqCst);
            }
            conn.shutdown();
            self.metrics.open.fetch_sub(1, Ordering::SeqCst);
            self.metrics.shards[self.idx]
                .open
                .fetch_sub(1, Ordering::SeqCst);
        }
        // Sockets handed off but never admitted still hold budget the
        // acceptor charged at handoff: release them too.
        let stranded: Vec<TcpStream> = std::mem::take(
            &mut *self
                .intake
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for stream in stranded {
            let _ = stream.shutdown(std::net::Shutdown::Both);
            self.metrics.open.fetch_sub(1, Ordering::SeqCst);
            self.metrics.shards[self.idx]
                .open
                .fetch_sub(1, Ordering::SeqCst);
        }
        // Dropping `job_tx` (with the other shards) lets the worker
        // pool drain the queue and exit.
    }

    /// Milliseconds until the soonest connection deadline (`None` = no
    /// deadline pending; sleep until an fd is ready or a wake byte).
    fn next_deadline_ms(&self) -> Option<i32> {
        let now = Instant::now();
        let mut soonest: Option<Instant> = None;
        let mut fold = |d: Option<Instant>| {
            if let Some(d) = d {
                soonest = Some(soonest.map_or(d, |s| s.min(d)));
            }
        };
        for conn in self.conns.values() {
            fold(conn.write_deadline);
            match conn.state {
                ConnState::Reading => {
                    if conn.buf.is_empty() && conn.read_deadline.is_none() {
                        fold(Some(conn.idle_since + self.cfg.idle_timeout));
                    } else {
                        fold(conn.read_deadline);
                    }
                }
                // Streaming has no idle clock: the write deadline above
                // already bounds a peer that stops draining chunks.
                ConnState::InFlight { .. } | ConnState::Streaming { .. } | ConnState::Closing => {}
            }
        }
        soonest.map(|s| {
            let ms = s.saturating_duration_since(now).as_millis() as i64;
            // +1 rounds up so we never spin on a not-quite-due deadline.
            (ms + 1).min(i32::MAX as i64) as i32
        })
    }

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Take ownership of sockets the acceptor queued for this shard.
    fn admit_intake(&mut self, now: Instant) {
        let fresh: Vec<TcpStream> = std::mem::take(
            &mut *self
                .intake
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for stream in fresh {
            let id = self.next_id;
            self.next_id += 1;
            let conn = Conn::new(stream, now);
            let (read, write) = conn.interest();
            if self
                .poller
                .register(id, conn.stream.as_raw_fd(), read, write)
                .is_err()
            {
                // Registration failure (fd pressure): a failed
                // admission, not a poisoned shard.
                conn.shutdown();
                self.metrics.open.fetch_sub(1, Ordering::SeqCst);
                self.metrics.shards[self.idx]
                    .open
                    .fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            self.conns.insert(id, conn);
        }
    }

    /// Re-submit the interest of every connection touched this
    /// iteration. Under epoll only actual changes cost a syscall; under
    /// poll this just updates the user-space slot table.
    fn sync_interest(&mut self) {
        while let Some(id) = self.dirty.pop() {
            if let Some(conn) = self.conns.get(&id) {
                let (read, write) = conn.interest();
                self.poller.set_interest(id, read, write);
            }
        }
    }

    /// React to readiness events on one connection.
    fn service_conn(&mut self, ev: Event, now: Instant) {
        let id = ev.token;
        self.dirty.push(id);
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let streaming = conn.body_stream.is_some();
        // During a stream, a hangup means the peer is gone: further
        // chunks are wasted work, so abort immediately (close() flips
        // the producer's cancel flag) instead of waiting for a write to
        // fail.
        if ev.error || (streaming && ev.hangup) {
            self.close(id);
            return;
        }
        if ev.writable && conn.wants_write() {
            match conn.try_write() {
                Ok(true) => {
                    if conn.state == ConnState::Closing {
                        self.close(id);
                        return;
                    }
                    if conn.body_stream.is_some() {
                        // Output drained mid-stream: refill from the
                        // producer's channel.
                        self.pump_stream(id, now);
                        return;
                    }
                    // Response flushed on a persistent connection: a
                    // pipelined successor may already be buffered.
                    self.process_input(id, now);
                    return;
                }
                Ok(false) => {}
                Err(_) => {
                    self.close(id);
                    return;
                }
            }
        }
        if ev.readable && conn.wants_read() {
            match conn.read_available() {
                Ok(peer_closed) => {
                    if peer_closed {
                        conn.peer_eof = true;
                    }
                    if peer_closed && streaming {
                        // The peer's FIN mid-stream is treated as a
                        // disconnect: the response in progress has no
                        // reader, so cancel the plan and close. (A
                        // half-closing streaming client loses the rest
                        // of its response; ordinary clients keep the
                        // socket open until the terminal chunk.)
                        self.close(id);
                        return;
                    }
                    // A half-closing peer may still be owed response
                    // bytes (`wants_write`); only a FIN with nothing
                    // buffered in either direction is a clean close.
                    if peer_closed && conn.buf.is_empty() && !conn.wants_write() {
                        self.close(id);
                        return;
                    }
                    self.process_input(id, now);
                }
                Err(_) => self.close(id),
            }
        } else if ev.hangup && !conn.wants_write() {
            // Peer hung up while we owe it nothing (e.g. mid-handler):
            // drop now; the eventual completion is discarded harmlessly.
            self.close(id);
        }
    }

    /// Parse and dispatch as many buffered requests as the connection's
    /// state allows, then push any queued response bytes.
    fn process_input(&mut self, id: u64, now: Instant) {
        loop {
            let Some(conn) = self.conns.get_mut(&id) else {
                return;
            };
            if conn.state != ConnState::Reading {
                break;
            }
            match try_parse_request(&conn.buf, self.cfg.max_body_bytes) {
                Ok(ParseStatus::Incomplete) => {
                    if conn.peer_eof {
                        // No more bytes will ever arrive: whatever did
                        // not parse into a request never will. Flush
                        // anything still owed, then close.
                        conn.state = ConnState::Closing;
                        break;
                    }
                    if conn.buf.is_empty() {
                        conn.read_deadline = None;
                        conn.idle_since = now;
                    } else if conn.read_deadline.is_none() {
                        conn.read_deadline = Some(now + self.cfg.read_timeout);
                    }
                    break;
                }
                Ok(ParseStatus::Complete(request, consumed)) => {
                    conn.buf.drain(..consumed);
                    conn.read_deadline = None;
                    // Persistence if this request is served (it consumes
                    // a cap slot) vs shed (it does not).
                    let keep_served = connection_persists(&request, &self.cfg, conn.served + 1);
                    let keep_shed = connection_persists(&request, &self.cfg, conn.served);
                    let job = Job {
                        shard: self.idx,
                        conn: id,
                        request: *request,
                    };
                    match self.job_tx.try_send(job) {
                        Ok(()) => {
                            conn.served += 1;
                            conn.state = ConnState::InFlight { keep: keep_served };
                            self.metrics.requests.fetch_add(1, Ordering::Relaxed);
                            if conn.served > 1 {
                                self.metrics
                                    .keepalive_reuses
                                    .fetch_add(1, Ordering::Relaxed);
                            }
                            break; // parked until the response lands
                        }
                        Err(mpsc::TrySendError::Full(_)) => {
                            // Work queue saturated: shed *this request*,
                            // keep the connection when the peer would.
                            // Shed work is counted in `shed` only — not
                            // in `requests`, not against the
                            // per-connection request cap.
                            self.metrics.shed.fetch_add(1, Ordering::Relaxed);
                            conn.state = if keep_shed {
                                ConnState::Reading
                            } else {
                                ConnState::Closing
                            };
                            conn.queue_response(
                                &HttpResponse::unavailable(self.cfg.retry_after_secs),
                                keep_shed,
                                now,
                            );
                            if !keep_shed {
                                break;
                            }
                        }
                        Err(mpsc::TrySendError::Disconnected(_)) => {
                            conn.state = ConnState::Closing;
                            break;
                        }
                    }
                }
                Err(e) => {
                    let response = match e {
                        RequestError::Malformed(m) => {
                            HttpResponse::error(400, &format!("bad request: {m}"))
                        }
                        RequestError::HeadTooLarge(m) => HttpResponse::error(431, &m),
                        RequestError::TooLarge(m) => HttpResponse::error(413, &m),
                    };
                    self.metrics.malformed.fetch_add(1, Ordering::Relaxed);
                    conn.state = ConnState::Closing;
                    conn.queue_response(&response, false, now);
                    break;
                }
            }
        }
        self.flush(id);
    }

    /// Hand finished responses back to their connections.
    fn apply_completions(&mut self, now: Instant) {
        let done: Vec<Completion> = std::mem::take(
            &mut *self
                .completions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for completion in done {
            match completion {
                Completion::Response(id, response) => {
                    self.dirty.push(id);
                    self.apply_response(id, response, now);
                }
                Completion::StreamStart {
                    id,
                    status,
                    content_type,
                    rx,
                    cancel,
                } => {
                    self.dirty.push(id);
                    self.start_stream(id, status, &content_type, rx, cancel, now);
                }
            }
        }
    }

    fn apply_response(&mut self, id: u64, response: Option<HttpResponse>, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return; // connection died while the handler ran
        };
        let ConnState::InFlight { keep } = conn.state else {
            return;
        };
        match response {
            Some(resp) => {
                conn.state = if keep {
                    ConnState::Reading
                } else {
                    ConnState::Closing
                };
                conn.idle_since = now;
                conn.queue_response(&resp, keep, now);
                if keep {
                    // Write, then look for a pipelined successor.
                    self.process_input(id, now);
                    return;
                }
            }
            None => {
                // Handler panicked: contained to this connection.
                conn.state = ConnState::Closing;
                conn.queue_response(&HttpResponse::error(500, "handler panicked"), false, now);
            }
        }
        self.flush(id);
    }

    /// A worker began a streamed response: write the chunked head and
    /// switch the connection to [`ConnState::Streaming`].
    fn start_stream(
        &mut self,
        id: u64,
        status: u16,
        content_type: &str,
        rx: mpsc::Receiver<StreamMsg>,
        cancel: Arc<AtomicBool>,
        now: Instant,
    ) {
        let Some(conn) = self.conns.get_mut(&id) else {
            // Connection died while the handler ran: aborting the
            // producer (flag + dropped receiver) is all that is left.
            cancel.store(true, Ordering::SeqCst);
            return;
        };
        let ConnState::InFlight { keep } = conn.state else {
            cancel.store(true, Ordering::SeqCst);
            return;
        };
        self.metrics.streams.fetch_add(1, Ordering::Relaxed);
        let head = HttpResponse {
            status,
            ..HttpResponse::ok(content_type, Vec::new())
        };
        conn.state = ConnState::Streaming { keep };
        conn.body_stream = Some(StreamHandle { rx, cancel });
        conn.queue_bytes(&encode_stream_head(&head, keep), now);
        self.pump_stream(id, now);
    }

    /// Pump every live stream: move producer chunks into connection
    /// output buffers (bounded by the watermark) and flush.
    fn pump_streams(&mut self, now: Instant) {
        let streaming: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.body_stream.is_some())
            .map(|(&id, _)| id)
            .collect();
        for id in streaming {
            self.dirty.push(id);
            self.pump_stream(id, now);
        }
    }

    /// Refill one connection's output from its stream channel and flush.
    /// Ends the stream on an `End` message: terminal chunk + keep-alive
    /// resume when clean, abort (no terminal chunk, close) otherwise.
    fn pump_stream(&mut self, id: u64, now: Instant) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let mut resume_keepalive = false;
        while let Some(handle) = &conn.body_stream {
            if conn.pending_out() >= STREAM_OUT_WATERMARK {
                break; // backpressure: the producer blocks on its channel
            }
            match handle.rx.try_recv() {
                Ok(StreamMsg::Chunk(bytes)) => {
                    conn.queue_bytes(&encode_chunk(&bytes), now);
                }
                Ok(StreamMsg::End { clean: true }) => {
                    conn.queue_bytes(CHUNK_TERMINATOR, now);
                    let keep = matches!(conn.state, ConnState::Streaming { keep: true });
                    conn.body_stream = None;
                    conn.state = if keep {
                        ConnState::Reading
                    } else {
                        ConnState::Closing
                    };
                    conn.idle_since = now;
                    resume_keepalive = keep;
                    break;
                }
                Ok(StreamMsg::End { clean: false }) => {
                    // Producer failed mid-stream: close WITHOUT the
                    // terminal chunk (already-queued chunks may still
                    // drain) so the peer sees a truncated stream.
                    self.metrics.streams_aborted.fetch_add(1, Ordering::Relaxed);
                    conn.body_stream = None;
                    conn.state = ConnState::Closing;
                    break;
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    // Worker vanished without an End (poisoned/killed):
                    // indistinguishable from a failure.
                    self.metrics.streams_aborted.fetch_add(1, Ordering::Relaxed);
                    conn.body_stream = None;
                    conn.state = ConnState::Closing;
                    break;
                }
            }
        }
        self.dirty.push(id);
        if resume_keepalive {
            // The stream ended cleanly on a persistent connection: a
            // pipelined successor may already be buffered.
            self.process_input(id, now);
        } else {
            self.flush(id);
        }
    }

    /// Enforce read/idle/write deadlines.
    fn expire_deadlines(&mut self, now: Instant) {
        let mut stalled = Vec::new();
        let mut dead = Vec::new();
        for (&id, conn) in &self.conns {
            if conn.write_deadline.is_some_and(|d| now >= d) {
                dead.push(id); // peer stopped reading its response
            } else if conn.state == ConnState::Reading {
                if conn.read_deadline.is_some_and(|d| now >= d) {
                    stalled.push(id); // mid-request overrun: 408
                } else if conn.buf.is_empty()
                    && conn.read_deadline.is_none()
                    && !conn.wants_write()
                    && now >= conn.idle_since + self.cfg.idle_timeout
                {
                    dead.push(id); // idle keep-alive: silent close
                }
            }
        }
        for id in dead {
            self.close(id);
        }
        for id in stalled {
            self.metrics.timeouts.fetch_add(1, Ordering::Relaxed);
            if let Some(conn) = self.conns.get_mut(&id) {
                conn.state = ConnState::Closing;
                conn.read_deadline = None;
                conn.queue_response(
                    &HttpResponse::error(408, "request not completed in time"),
                    false,
                    now,
                );
                self.dirty.push(id);
                self.flush(id);
            }
        }
    }

    /// Opportunistically drain a connection's output; close when done if
    /// the state machine says so.
    fn flush(&mut self, id: u64) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        if !conn.wants_write() {
            if conn.state == ConnState::Closing {
                self.close(id);
            }
            return;
        }
        match conn.try_write() {
            Ok(true) if conn.state == ConnState::Closing => self.close(id),
            Ok(_) => {} // drained or would-block; poller handles the rest
            Err(_) => self.close(id),
        }
    }

    fn close(&mut self, id: u64) {
        if let Some(conn) = self.conns.remove(&id) {
            if let Some(handle) = &conn.body_stream {
                // A stream handle still present means the response never
                // finished: tell the producer its reader is gone. The
                // dropped receiver below unblocks a worker parked in
                // `send`, and the flag stops the plan at its next check.
                handle.cancel.store(true, Ordering::SeqCst);
                self.metrics.streams_aborted.fetch_add(1, Ordering::Relaxed);
            }
            self.poller.deregister(id);
            conn.shutdown();
            self.metrics.open.fetch_sub(1, Ordering::SeqCst);
            self.metrics.shards[self.idx]
                .open
                .fetch_sub(1, Ordering::SeqCst);
        }
    }
}
