//! Running a workload: set-up, the measured closed loop with tracing off,
//! and the separate one-client traced run that yields the per-layer numbers.

use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coin_server::http::{serve_with, ServerConfig, ServerHandle};
use coin_server::start_server_shared;

use crate::alloc;
use crate::deploy::{self, Decoration, FetchCounters};
use crate::http::{Client, Reply};
use crate::metrics::Values;
use crate::scan::{read_answer, Cache};
use crate::stats::{highest_supported, median, percentile};
use crate::trace::{self_times, Name, Span, Tracer, NO_SPAN};
use crate::traced::{
    canned_handler, compile_probe, traced_handler, CannedReply, CompileStages, HandlerCounters,
};
use crate::workload::{self, Class, Deployment, Expect, Kind, Op, OpStream};

/// Receivers are ODBC-style callers that wait for each reply: a closed loop,
/// one thread and one keep-alive connection per client. Two clients, the
/// core count of the sandbox the bounds were measured on.
pub const CLIENTS: usize = 2;

/// The transport under test: the default reactor transport and backend,
/// with the pool and shard count pinned so results do not follow the host.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        reactor_shards: 1,
        ..ServerConfig::default()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// 1 s windows' companion: tables at 1/50 of their size.
    pub smoke: bool,
}

/// Set-ups per run (the median is `setup_s`), each followed by a slice of
/// the measured window; cheap set-ups repeat more.
fn setup_reps(kind: Kind) -> usize {
    match kind {
        Kind::Fig2Warm => 15,
        Kind::CompileChurn => 9,
        Kind::ScanStream | Kind::JoinAgg | Kind::SlowSources => 7,
    }
}

/// Operations each client issues, after every fixed query ran once, before
/// set-up counts as done: enough for `compile_churn` to fill the plan cache.
fn warmup_ops(kind: Kind) -> usize {
    match kind {
        Kind::Fig2Warm => 200,
        Kind::CompileChurn => 300,
        Kind::SlowSources => 10,
        Kind::ScanStream | Kind::JoinAgg => 2,
    }
}

/// Requests of the traced phase at the reference window of
/// [`REFERENCE_SECONDS`]: a fixed count, so its counters repeat exactly.
fn traced_requests(kind: Kind) -> usize {
    match kind {
        Kind::Fig2Warm | Kind::CompileChurn => 2000,
        Kind::SlowSources => 200,
        Kind::ScanStream => 40,
        Kind::JoinAgg => 30,
    }
}

pub const REFERENCE_SECONDS: f64 = 15.0;

/// What one client saw.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub rows: u64,
    pub body_bytes: u64,
    pub remote_queries: u64,
    /// Latency and time to first body byte of every verified reply, ns.
    pub latency: Vec<u64>,
    pub ttfb: Vec<u64>,
    /// Latency of verified replies that reported `cache: miss`.
    pub miss_latency: Vec<u64>,
    pub fixed: u64,
    pub fixed_hits: u64,
    pub replaces: u64,
    pub invalidated: u64,
    pub last_done: Option<Instant>,
    pub first_failure: Option<String>,
}

impl Tally {
    fn with_capacity(samples: usize) -> Tally {
        Tally {
            latency: Vec::with_capacity(samples),
            ttfb: Vec::with_capacity(samples),
            miss_latency: Vec::with_capacity(samples),
            ..Tally::default()
        }
    }

    fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rows += other.rows;
        self.body_bytes += other.body_bytes;
        self.remote_queries += other.remote_queries;
        self.latency.extend(other.latency);
        self.ttfb.extend(other.ttfb);
        self.miss_latency.extend(other.miss_latency);
        self.fixed += other.fixed;
        self.fixed_hits += other.fixed_hits;
        self.replaces += other.replaces;
        self.invalidated += other.invalidated;
        self.last_done = self.last_done.max(other.last_done);
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Replies recorded for the transport probe.
#[derive(Default)]
struct Capture {
    /// Request bytes of the first captured queries, in order.
    sequence: Vec<Vec<u8>>,
    /// JSON request body → the reply's chunks.
    replies: HashMap<Vec<u8>, CannedReply>,
    /// SQL texts of the same queries, for the compile probe.
    texts: Vec<String>,
    limit: usize,
}

/// One client: its connection, its request sequence, what it has seen.
struct Caller {
    client: Client,
    stream: OpStream,
    tally: Tally,
    tracer: Option<Arc<Tracer>>,
    capture: Option<Capture>,
    /// Id of the next traced request (0 marks warm-up).
    next_request: u32,
}

impl Caller {
    /// Perform this client's next operation against `d`. Returns whether it
    /// was a query (administration rides along and is not a request).
    fn step(&mut self, d: &Deployment) -> bool {
        self.tally.attempted += 1;
        match self.stream.next(d) {
            Op::Query {
                sql,
                request,
                expect,
                class,
            } => {
                let root = self.tracer.as_ref().map(|t| {
                    let open = t.begin_request(self.next_request);
                    if self.next_request > 0 {
                        self.next_request += 1;
                    }
                    open
                });
                let sent = self.client.send(request);
                if let (Some(t), Some(root)) = (&self.tracer, root) {
                    let now = Instant::now();
                    let (from, to) = sent.as_ref().map_or((now, now), |r| (r.sent, r.last_byte));
                    t.end_request(root, from, to);
                }
                match sent {
                    Err(e) => self.tally.fail(|| format!("{sql}: {e}")),
                    Ok(reply) => {
                        if let Some(c) = &mut self.capture {
                            c.record(sql, request, &self.client);
                        }
                        check(
                            &mut self.tally,
                            &self.client.body,
                            &reply,
                            sql,
                            expect,
                            class,
                        );
                    }
                }
                true
            }
            Op::ReplaceConversion { to_b } => {
                let relation = if to_b { "rates_b" } else { "rates" };
                let evicted = administer(
                    d,
                    self.tracer.as_deref(),
                    Name::CoreReplaceConversion,
                    |sys| sys.replace_conversion("currency", deploy::currency_lookup(relation)),
                );
                match evicted {
                    Ok(n) => {
                        self.tally.replaces += 1;
                        self.tally.invalidated += n;
                    }
                    Err(e) => self.tally.fail(|| format!("replace_conversion: {e}")),
                }
                false
            }
            Op::AddContext { serial } => {
                match administer(d, self.tracer.as_deref(), Name::CoreAddContext, |sys| {
                    sys.add_context(deploy::unrelated_context(serial))
                }) {
                    // A context no plan read must evict no plan.
                    Ok(0) => {}
                    Ok(n) => self
                        .tally
                        .fail(|| format!("add_context evicted {n} cached plans")),
                    Err(e) => self.tally.fail(|| format!("add_context: {e}")),
                }
                false
            }
        }
    }

    /// Issue `queries` requests (administration in between not counted).
    fn run_queries(&mut self, d: &Deployment, queries: usize) {
        let mut done = 0;
        while done < queries {
            done += usize::from(self.step(d));
        }
    }

    fn run_until(&mut self, d: &Deployment, deadline: Instant) {
        while Instant::now() < deadline {
            self.step(d);
        }
    }
}

impl Capture {
    fn record(&mut self, sql: &str, request: &[u8], client: &Client) {
        if self.sequence.len() >= self.limit {
            return;
        }
        let body_at = request
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map_or(0, |p| p + 4);
        self.sequence.push(request.to_vec());
        self.texts.push(sql.to_owned());
        self.replies
            .entry(request[body_at..].to_vec())
            .or_insert_with(|| {
                let mut chunks = Vec::new();
                let mut at = 0;
                for size in client.chunk_sizes() {
                    chunks.push(client.body[at..at + size].to_vec());
                    at += size;
                }
                Arc::new(chunks)
            });
    }
}

/// Administration under the shared system's write lock; returns how many
/// cached plans it invalidated.
fn administer(
    d: &Deployment,
    tracer: Option<&Tracer>,
    name: Name,
    change: impl FnOnce(&mut coin_core::CoinSystem) -> Result<(), coin_core::CoinError>,
) -> Result<u64, String> {
    let open = tracer.map(|t| t.begin(name));
    let result = {
        let mut sys = d
            .system
            .write()
            .expect("no request panics while holding the read lock");
        let before = sys.cache_stats().invalidations;
        change(&mut sys).map(|()| sys.cache_stats().invalidations - before)
    };
    if let (Some(t), Some(open)) = (tracer, open) {
        t.end(open, None);
    }
    result.map_err(|e| e.to_string())
}

/// Verify one reply and account for it. A `200` carrying the protocol's
/// `{"error": …}` shape, a wrong answer, any other status (a `503`
/// included), a malformed body, or a chunked body without its terminal
/// chunk is a failed request.
fn check(tally: &mut Tally, body: &[u8], reply: &Reply, sql: &str, expect: &Expect, class: Class) {
    if reply.status != 200 {
        return tally.fail(|| format!("{sql}: status {}", reply.status));
    }
    if !reply.complete {
        return tally.fail(|| format!("{sql}: body ended early"));
    }
    let answer = match read_answer(body) {
        Ok(a) => a,
        Err(e) => return tally.fail(|| format!("{sql}: malformed body: {e:?}")),
    };
    if !expect.matches(&answer) {
        return tally.fail(|| format!("{sql}: want {expect:?}, got {answer:?}"));
    }
    let latency = (reply.last_byte - reply.sent).as_nanos() as u64;
    tally.latency.push(latency);
    tally
        .ttfb
        .push((reply.first_byte - reply.sent).as_nanos() as u64);
    tally.rows += answer.rows;
    tally.body_bytes += body.len() as u64;
    tally.remote_queries += answer.remote_queries;
    if answer.cache == Cache::Miss {
        tally.miss_latency.push(latency);
    }
    if class != Class::Fresh {
        tally.fixed += 1;
        tally.fixed_hits += u64::from(answer.cache == Cache::Hit);
    }
    tally.last_done = Some(reply.last_byte);
}

/// Which handler answers, over which sources.
enum Serving {
    /// `start_server_shared`: the program's own protocol handler over the
    /// workload's plain sources.
    Real,
    /// The benchmark's instrumented re-statement of it, over sources that
    /// span and count every `execute_select`.
    Traced {
        tracer: Arc<Tracer>,
        handler: Arc<HandlerCounters>,
        fetches: Arc<FetchCounters>,
    },
}

/// A deployment being served, with its clients connected and warmed.
struct Rig {
    deployment: Deployment,
    server: ServerHandle,
    callers: Vec<Caller>,
}

/// Build the deployment, start the server, connect the clients and warm up:
/// every fixed query once, then [`warmup_ops`] operations per client. The
/// time all of that takes is one `setup_s` sample.
fn set_up(
    opts: &Options,
    clients: usize,
    rep: usize,
    window: f64,
    serving: &Serving,
) -> Result<(Rig, f64), String> {
    let start = Instant::now();
    let (decoration, tracer) = match serving {
        Serving::Real => (Decoration::default(), None),
        Serving::Traced {
            tracer, fetches, ..
        } => (
            Decoration {
                delay: Duration::ZERO,
                trace: Some((Arc::clone(tracer), Arc::clone(fetches))),
            },
            Some(tracer),
        ),
    };
    let deployment = workload::build(opts.kind, opts.seed, opts.smoke, &decoration);
    let system = Arc::clone(&deployment.system);
    let server = match serving {
        Serving::Real => start_server_shared(system, "127.0.0.1:0", server_config()),
        Serving::Traced {
            tracer, handler, ..
        } => serve_with(
            "127.0.0.1:0",
            server_config(),
            traced_handler(system, Arc::clone(tracer), Arc::clone(handler)),
        ),
    }
    .map_err(|e| format!("server did not start: {e}"))?;

    // Room for every sample of `window` seconds without growing (and
    // transiently doubling) mid-measurement.
    let capacity = (window * 25_000.0) as usize + 1024;
    let mut callers: Vec<Caller> = (0..clients)
        .map(|c| Caller {
            client: Client::new(server.addr),
            stream: OpStream::new(opts.kind, opts.seed, c, clients, rep),
            tally: Tally::with_capacity(capacity),
            tracer: tracer.cloned(),
            capture: None,
            next_request: 0,
        })
        .collect();

    let mut warm = Tally::default();
    for q in &deployment.fixed {
        warm.attempted += 1;
        match callers[0].client.send(&q.request) {
            Err(e) => warm.fail(|| format!("{}: {e}", q.sql)),
            Ok(reply) => check(
                &mut warm,
                &callers[0].client.body,
                &reply,
                &q.sql,
                &q.expect,
                Class::Warm,
            ),
        }
    }
    for caller in &mut callers {
        for _ in 0..warmup_ops(opts.kind) {
            caller.step(&deployment);
        }
        warm.merge(std::mem::replace(
            &mut caller.tally,
            Tally::with_capacity(capacity),
        ));
    }
    if let Some(why) = warm.first_failure {
        return Err(format!(
            "{} warm-up requests failed, first: {why}",
            warm.failed
        ));
    }
    let took = start.elapsed().as_secs_f64();
    Ok((
        Rig {
            deployment,
            server,
            callers,
        },
        took,
    ))
}

/// The result of one run, as the driver wants it.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub values: Values,
    /// Order-insensitive digest of the first operations of every client.
    pub ops_checksum: u64,
    /// Lines for the reader: sample counts, the stage table.
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mib(bytes: i64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn pct(sorted: &[u64], p: f64, what: &str) -> Result<f64, String> {
    percentile(sorted, p).map(ms).map_err(|e| {
        format!(
            "{what}: {} samples leave {} beyond it; lengthen the window",
            e.samples, e.beyond
        )
    })
}

/// One measured slice: a deployment set up afresh, then a share of the
/// window. Its latency and first-byte samples are sorted.
struct Slice {
    tally: Tally,
    elapsed: f64,
    peak_bytes: i64,
}

/// A percentile of the run: the median of the slices' own percentiles when
/// every slice has the samples for it (one disturbed slice then moves
/// nothing), otherwise the percentile of all samples pooled.
fn run_percentile(
    slices: &[Slice],
    pick: fn(&Tally) -> &Vec<u64>,
    p: f64,
    what: &str,
) -> Result<f64, String> {
    let per_slice: Result<Vec<f64>, _> = slices
        .iter()
        .map(|s| percentile(pick(&s.tally), p).map(ms))
        .collect();
    match per_slice {
        Ok(values) => Ok(median(&values)),
        Err(_) => {
            let pooled: Vec<u64> = slices
                .iter()
                .flat_map(|s| pick(&s.tally).iter().copied())
                .collect();
            pct(&sorted(pooled), p, what)
        }
    }
}

/// The end-to-end run: tracing off, [`CLIENTS`] closed-loop clients. The
/// window of `opts.seconds` is split into as many slices as there are
/// set-ups, each measured on a freshly started deployment: where the
/// operating system happens to place one server's threads then shifts one
/// slice, not the whole run.
pub fn run_end_to_end(opts: &Options) -> Result<Outcome, String> {
    let reps = setup_reps(opts.kind);
    let slice_len = Duration::from_secs_f64(opts.seconds / reps as f64);
    let mut setups = Vec::with_capacity(reps);
    let mut slices = Vec::with_capacity(reps);
    let (mut digest, mut digested) = (0u64, 0u64);
    let mut transport = coin_server::ServerMetricsSnapshot::default();
    for rep in 0..reps {
        let (rig, took) = set_up(opts, CLIENTS, rep, slice_len.as_secs_f64(), &Serving::Real)?;
        setups.push(took);
        let Rig {
            deployment,
            server,
            mut callers,
        } = rig;
        alloc::reset_peak();
        let start = Instant::now();
        let deadline = start + slice_len;
        std::thread::scope(|scope| {
            for caller in &mut callers {
                let deployment = &deployment;
                scope.spawn(move || caller.run_until(deployment, deadline));
            }
        });
        let peak_bytes = alloc::peak_bytes();
        let seen = server.metrics();
        transport.requests += seen.requests;
        transport.connections_shed += seen.connections_shed;
        transport.streams_aborted += seen.streams_aborted;
        let mut tally = Tally::default();
        for caller in callers {
            let (d, n) = caller.stream.checksum();
            digest = digest.wrapping_add(d);
            digested += n;
            tally.merge(caller.tally);
        }
        tally.latency.sort_unstable();
        tally.ttfb.sort_unstable();
        let elapsed = tally
            .last_done
            .map_or(slice_len, |t| t - start)
            .as_secs_f64();
        slices.push(Slice {
            tally,
            elapsed,
            peak_bytes,
        });
    }

    let elapsed: f64 = slices.iter().map(|s| s.elapsed).sum();
    let verified: usize = slices.iter().map(|s| s.tally.latency.len()).sum();
    let rows: u64 = slices.iter().map(|s| s.tally.rows).sum();
    let peaks: Vec<f64> = slices.iter().map(|s| mib(s.peak_bytes)).collect();

    let mut values = Values::default();
    values.set(
        "query_p50_ms",
        run_percentile(&slices, |t| &t.latency, 0.50, "query_p50_ms")?,
    );
    values.set(
        "query_p95_ms",
        run_percentile(&slices, |t| &t.latency, 0.95, "query_p95_ms")?,
    );
    // Rates over the whole window: a slice of a slow workload holds too few
    // requests for its own rate to be steady.
    values.set("queries_per_s", verified as f64 / elapsed);
    values.set("rows_per_s", rows as f64 / elapsed);
    values.set(
        "ttfb_p50_ms",
        run_percentile(&slices, |t| &t.ttfb, 0.50, "ttfb_p50_ms")?,
    );
    values.set("peak_heap_mib", median(&peaks));
    values.set("setup_s", median(&setups));

    let slice_p50s: Vec<String> = slices
        .iter()
        .map(|s| percentile(&s.tally.latency, 0.5).map_or("-".into(), |v| format!("{:.4}", ms(v))))
        .collect();
    let mut total = Tally::default();
    for s in slices {
        total.merge(s.tally);
    }
    let notes = vec![
        format!(
            "{CLIENTS} closed-loop keep-alive clients over loopback; {reps} set-ups, each followed by a {:.3} s slice of the window; {verified} verified replies in {elapsed:.3} s",
            slice_len.as_secs_f64(),
        ),
        format!("ops_checksum = {digest:016x} (first {digested} operations, order-insensitive)"),
        format!("p50 of each slice, ms: {}", slice_p50s.join(" ")),
        format!(
            "server: {} requests, {} shed, {} streams aborted; administration: {} replace_conversion invalidating {} plans",
            transport.requests,
            transport.connections_shed,
            transport.streams_aborted,
            total.replaces,
            total.invalidated
        ),
    ];
    Ok(Outcome {
        attempted: total.attempted,
        failed: total.failed,
        first_failure: total.first_failure,
        values,
        ops_checksum: digest,
        notes,
        spans: Vec::new(),
    })
}

/// What the phases of a traced run add up to.
#[derive(Default)]
struct Report {
    values: Values,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
}

impl Report {
    fn absorb(&mut self, tally: &mut Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        if self.first_failure.is_none() {
            self.first_failure = tally.first_failure.take();
        }
    }
}

fn read_system(d: &Deployment) -> std::sync::RwLockReadGuard<'_, coin_core::CoinSystem> {
    d.system
        .read()
        .expect("no administration panics while holding the write lock")
}

/// Phase A — one client against the program's own handler for `window`
/// seconds: the reference for tracing overhead, and where memory and the
/// transport's counters are read. Returns the median latency, ms.
fn untraced_phase(opts: &Options, window: f64, report: &mut Report) -> Result<f64, String> {
    let (rig, _) = set_up(opts, 1, 0, window, &Serving::Real)?;
    let Rig {
        deployment,
        server,
        mut callers,
    } = rig;
    let mut caller = callers.pop().expect("one caller");
    let before = server.metrics();
    let allocs = alloc::allocations();
    let baseline = alloc::reset_peak();
    caller.run_until(
        &deployment,
        Instant::now() + Duration::from_secs_f64(window),
    );
    let peak = alloc::peak_bytes();
    let allocs = alloc::allocations() - allocs;
    let after = server.metrics();

    let mut tally = caller.tally;
    report.absorb(&mut tally);
    let n = tally.latency.len();
    let requests = (after.requests - before.requests).max(1) as f64;
    let latency = sorted(tally.latency);
    let misses = sorted(tally.miss_latency);
    let p50 = pct(&latency, 0.5, "client.untraced_p50_ms")?;
    let tail = highest_supported(n, 0.99).expect("a median was supported");

    let values = &mut report.values;
    values.set("client.untraced_p50_ms", p50);
    values.set("client.tail_ms", pct(&latency, tail, "client.tail_ms")?);
    values.set(
        "client.miss_p50_ms",
        percentile(&misses, 0.5).map_or(0.0, ms),
    );
    values.set("mem.peak_heap_mib", mib(peak - baseline));
    values.set("mem.allocs_per_query", allocs as f64 / requests);
    values.set(
        "server.wakeups_per_req",
        (after.reactor_wakeups - before.reactor_wakeups) as f64 / requests,
    );
    values.set(
        "server.interest_ops_per_req",
        (after.interest_ops - before.interest_ops) as f64 / requests,
    );
    values.set(
        "server.shed",
        (after.connections_shed - before.connections_shed) as f64,
    );
    values.set(
        "server.streams_aborted",
        (after.streams_aborted - before.streams_aborted) as f64,
    );
    report.notes.push(format!(
        "untraced phase: 1 client, {n} verified replies, client.tail_ms is p{:.2}, {} cache misses",
        tail * 100.0,
        misses.len()
    ));
    Ok(p50)
}

/// What phase B leaves for the probes and the span arithmetic.
struct Traced {
    deployment: Deployment,
    capture: Capture,
    /// The spans of warm-up (request 0) and of the traced requests.
    spans: Vec<Span>,
    requests: usize,
    fetch_rows: u64,
    p50_ms: f64,
    ops_checksum: u64,
}

/// Phase B — a fixed number of requests from one client against the traced
/// handler over decorated sources. Fixed, so that its counters repeat
/// exactly under one seed.
fn traced_phase(
    opts: &Options,
    window: f64,
    tracer: &Arc<Tracer>,
    report: &mut Report,
) -> Result<Traced, String> {
    let fetches = Arc::new(FetchCounters::default());
    let handler = Arc::new(HandlerCounters::default());
    let serving = Serving::Traced {
        tracer: Arc::clone(tracer),
        handler: Arc::clone(&handler),
        fetches: Arc::clone(&fetches),
    };
    let (rig, _) = set_up(opts, 1, 0, window, &serving)?;
    let Rig {
        deployment,
        server,
        mut callers,
    } = rig;
    let mut caller = callers.pop().expect("one caller");
    let requests =
        ((traced_requests(opts.kind) as f64 * opts.seconds / REFERENCE_SECONDS) as usize).max(25);
    caller.capture = Some(Capture {
        // Streamed megabytes are kept whole: a few of them are enough.
        limit: if opts.kind == Kind::ScanStream { 4 } else { 64 },
        ..Capture::default()
    });
    caller.next_request = 1;

    // Set-up warmed through the same handler: count from here.
    let cache_before = read_system(&deployment).cache_stats();
    let fetch_before = (fetches.calls.load(Relaxed), fetches.rows.load(Relaxed));
    let handler_before = (
        handler.rows_out.load(Relaxed),
        handler.spill_bytes.load(Relaxed),
        handler.stream_wait_ns.load(Relaxed),
    );
    caller.run_queries(&deployment, requests);
    let cache_after = read_system(&deployment).cache_stats();
    let aborted = server.metrics().streams_aborted;
    drop(server);
    let spans = tracer.snapshot();

    let (ops_checksum, digested) = caller.stream.checksum();
    report.notes.push(format!(
        "traced phase: {requests} requests; ops_checksum = {ops_checksum:016x} (first {digested} operations)"
    ));
    let mut tally = caller.tally;
    report.absorb(&mut tally);
    report.failed += aborted;
    let n = requests as f64;
    let p50_ms = pct(&sorted(tally.latency), 0.5, "client.traced_p50_ms")?;
    let fetch_rows = fetches.rows.load(Relaxed) - fetch_before.1;

    let values = &mut report.values;
    values.set("client.traced_p50_ms", p50_ms);
    values.set(
        "core.cache_hit_rate",
        tally.fixed_hits as f64 / tally.fixed.max(1) as f64,
    );
    values.set(
        "core.cache_compiles",
        (cache_after.compiles - cache_before.compiles) as f64,
    );
    values.set(
        "core.cache_evictions",
        (cache_after.evictions - cache_before.evictions) as f64,
    );
    values.set(
        "core.invalidated_per_admin",
        tally.invalidated as f64 / tally.replaces.max(1) as f64,
    );
    values.set(
        "wrapper.fetch_calls",
        (fetches.calls.load(Relaxed) - fetch_before.0) as f64,
    );
    values.set("wrapper.fetch_rows", fetch_rows as f64);
    values.set(
        "planner.remote_queries_per_query",
        tally.remote_queries as f64 / n,
    );
    values.set(
        "rel.rows_out",
        (handler.rows_out.load(Relaxed) - handler_before.0) as f64,
    );
    values.set(
        "rel.spill_bytes",
        (handler.spill_bytes.load(Relaxed) - handler_before.1) as f64,
    );
    values.set(
        "server.stream_wait_us",
        (handler.stream_wait_ns.load(Relaxed) - handler_before.2) as f64 / 1e3 / n,
    );
    values.set("server.body_bytes", tally.body_bytes as f64);

    Ok(Traced {
        deployment,
        capture: caller.capture.take().expect("set above"),
        spans,
        requests,
        fetch_rows,
        p50_ms,
        ops_checksum,
    })
}

/// Phase C — the recorded request and reply bytes against a canned handler:
/// what the transport alone costs for this workload's traffic.
fn transport_probe(capture: &Capture, rounds: usize, report: &mut Report) -> Result<(), String> {
    let server = serve_with(
        "127.0.0.1:0",
        server_config(),
        canned_handler(capture.replies.clone()),
    )
    .map_err(|e| format!("canned server did not start: {e}"))?;
    let mut client = Client::new(server.addr);
    let mut trips = Vec::with_capacity(rounds * capture.sequence.len());
    // Round 0 warms the connection and the handler.
    for round in 0..=rounds {
        for request in &capture.sequence {
            report.attempted += 1;
            match client.send(request) {
                Ok(r) if r.status == 200 && r.complete => {
                    if round > 0 {
                        trips.push((r.last_byte - r.sent).as_nanos() as u64);
                    }
                }
                other => {
                    report.failed += 1;
                    if report.first_failure.is_none() {
                        report.first_failure = Some(format!("canned round trip: {other:?}"));
                    }
                }
            }
        }
    }
    let trips = sorted(trips);
    report.values.set(
        "server.transport_us",
        pct(&trips, 0.5, "server.transport_us")? * 1e3,
    );
    report.notes.push(format!(
        "transport probe: {} round trips over {} recorded replies",
        trips.len(),
        capture.replies.len()
    ));
    Ok(())
}

/// Phase D — the compile pipeline's stages, timed one by one over the
/// distinct texts of the recorded requests; medians over the texts.
fn compile_phase(traced: &Traced, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let mut texts = traced.capture.texts.clone();
    texts.sort();
    texts.dedup();
    let sys = read_system(&traced.deployment);
    // Once unrecorded, so lazy set-up is not billed to the first text.
    compile_probe(&sys, &texts[0], deploy::RECEIVER, &Tracer::new())?;
    let stages = texts
        .iter()
        .map(|sql| compile_probe(&sys, sql, deploy::RECEIVER, tracer))
        .collect::<Result<Vec<_>, _>>()?;
    let col = |f: fn(&CompileStages) -> f64| median(&stages.iter().map(f).collect::<Vec<_>>());
    let values = &mut report.values;
    values.set("sql.parse_us", col(|s| s.parse_us));
    values.set("core.mediate_us", col(|s| s.mediate_us));
    values.set("planner.plan_us", col(|s| s.plan_us));
    values.set("core.compile_us", col(|s| s.compile_us));
    values.set(
        "core.branches_per_query",
        stages.iter().map(|s| s.branches as f64).sum::<f64>() / stages.len() as f64,
    );
    report.notes.push(format!(
        "compile probe: {} distinct query texts",
        texts.len()
    ));
    Ok(())
}

/// Per span name: how many, their summed duration and summed self time.
#[derive(Debug, Default, Clone, Copy)]
struct NameTotals {
    count: u64,
    duration_ns: u64,
    self_ns: u64,
}

/// The metrics that come out of the spans, and the stage table.
fn span_metrics(traced: &Traced, report: &mut Report) {
    // Warm-up ran as request 0; administration spans are roots of their own
    // and belong to no request's latency.
    let selfs = self_times(&traced.spans);
    let mut totals: HashMap<Name, NameTotals> = HashMap::new();
    let (mut explained_ns, mut traced_ns) = (0u64, 0u64);
    for (s, self_ns) in traced.spans.iter().zip(&selfs) {
        if s.request == 0 {
            continue;
        }
        let t = totals.entry(s.name).or_default();
        t.count += 1;
        t.duration_ns += s.duration_ns();
        t.self_ns += self_ns;
        if s.name == Name::ClientRequest {
            traced_ns += s.duration_ns();
        } else if s.parent != NO_SPAN {
            explained_ns += self_ns;
        }
    }
    let n = traced.requests as f64;
    let of = |name| totals.get(&name).copied().unwrap_or_default();
    let mean_us = |t: NameTotals| t.duration_ns as f64 / 1e3 / t.count.max(1) as f64;
    let per_request_us = |ns: u64| ns as f64 / 1e3 / n;
    let drain_ns = of(Name::RelDrain).duration_ns;

    let values = &mut report.values;
    values.set("core.prepare_hit_us", mean_us(of(Name::CorePrepareHit)));
    values.set("core.prepare_miss_us", mean_us(of(Name::CorePrepareMiss)));
    values.set(
        "core.admin_write_us",
        mean_us(of(Name::CoreReplaceConversion)),
    );
    values.set(
        "wrapper.fetch_busy_us",
        per_request_us(of(Name::WrapperFetch).duration_ns),
    );
    values.set(
        "planner.stage_self_us",
        per_request_us(of(Name::PlannerExecuteStream).self_ns),
    );
    values.set("rel.drain_us", per_request_us(drain_ns));
    // Per row entering the local pipeline: a join under an aggregate pulls
    // a hundred thousand rows through `next()` to hand one out.
    values.set(
        "rel.ns_per_row",
        drain_ns as f64 / traced.fetch_rows.max(1) as f64,
    );
    values.set(
        "server.serialize_us",
        per_request_us(of(Name::ServerSerialize).duration_ns),
    );
    values.set(
        "server.tail_us",
        per_request_us(of(Name::ServerTail).duration_ns),
    );
    values.set(
        "server.glue_us",
        per_request_us(
            of(Name::ServerHandle).self_ns
                + of(Name::ServerParseRequest).self_ns
                + of(Name::ServerChunk).self_ns,
        ),
    );
    values.set(
        "trace.coverage",
        explained_ns as f64 / traced_ns.max(1) as f64,
    );

    // The stage table: where a traced request's time went, by self time.
    let mut table: Vec<(Name, NameTotals)> = totals
        .into_iter()
        .filter(|(name, _)| !matches!(name, Name::CoreReplaceConversion | Name::CoreAddContext))
        .collect();
    table.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    report.notes.push(format!(
        "stage table (self time per traced request, share of the {:.1} us mean traced latency):",
        per_request_us(traced_ns)
    ));
    for (name, t) in table {
        let label = if name == Name::ClientRequest {
            "(unexplained: transport, queueing, hand-off)"
        } else {
            name.as_str()
        };
        report.notes.push(format!(
            "  {label:<46} {:>12.1} us  {:>5.1} %  ({} spans)",
            per_request_us(t.self_ns),
            100.0 * t.self_ns as f64 / traced_ns.max(1) as f64,
            t.count
        ));
    }
}

/// The traced run: one client, four phases (see each).
pub fn run_traced(opts: &Options) -> Result<Outcome, String> {
    let mut report = Report::default();
    let window = opts.seconds * 0.3;
    let untraced_p50 = untraced_phase(opts, window, &mut report)?;

    let tracer = Arc::new(Tracer::new());
    let traced = traced_phase(opts, window, &tracer, &mut report)?;
    report.values.set(
        "trace.overhead_pct",
        (traced.p50_ms / untraced_p50 - 1.0) * 100.0,
    );
    let rounds = if opts.kind == Kind::ScanStream { 5 } else { 20 };
    transport_probe(&traced.capture, rounds, &mut report)?;
    compile_phase(&traced, &tracer, &mut report)?;
    span_metrics(&traced, &mut report);

    Ok(Outcome {
        attempted: report.attempted,
        failed: report.failed,
        first_failure: report.first_failure,
        values: report.values,
        ops_checksum: traced.ops_checksum,
        notes: report.notes,
        // With the probes' spans after the requests'.
        spans: tracer.snapshot(),
    })
}
