//! The handlers the traced run puts behind `http::serve_with`.
//!
//! [`traced_handler`] answers a mediated `POST /query` with the same calls
//! into the layers' public functions, in the same order and with the same
//! bytes, as `coin_server::protocol`'s own handler — each call inside a
//! span. [`canned_handler`] replays recorded reply bytes with no mediator
//! behind it, which prices the transport alone. [`compile_probe`] times the
//! compile pipeline's stages one by one.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coin_core::{CacheStatus, CoinSystem, MediatedRows};
use coin_planner::Planner;
use coin_rel::{CancelToken, Row};
use coin_server::http::{Handler, HttpRequest, HttpResponse, StreamBody};
use coin_server::protocol::write_value;
use coin_server::{parse_json, Json, JsonBuf, SharedSystem};

use crate::trace::{Name, Tracer};

/// Rows per chunk, as in `coin_server::protocol`'s streamed writer.
const STREAM_BATCH_ROWS: usize = 256;
/// Rows pulled, then written, between two clock reads.
const SUB_BATCH_ROWS: usize = 8;

/// Counts the traced handler keeps beside its spans.
#[derive(Debug, Default)]
pub struct HandlerCounters {
    pub rows_out: AtomicU64,
    pub spill_bytes: AtomicU64,
    /// Time the streaming worker spent between body pulls: waiting for the
    /// transport to take the previous chunk (back-pressure and hand-off).
    pub stream_wait_ns: AtomicU64,
}

fn read_lock(system: &SharedSystem) -> std::sync::RwLockReadGuard<'_, CoinSystem> {
    system
        .read()
        .expect("no administration panics while holding the write lock")
}

/// The instrumented `/query` handler over a shared system.
pub fn traced_handler(
    system: SharedSystem,
    tracer: Arc<Tracer>,
    counters: Arc<HandlerCounters>,
) -> Handler {
    Arc::new(move |req: &HttpRequest| {
        let handle = tracer.begin(Name::ServerHandle);
        // As in `protocol_handler_shared`: the read lock spans the handler
        // call, not the streaming that follows it.
        let guard = read_lock(&system);
        let response = respond(&guard, req, &tracer, &counters)
            .unwrap_or_else(|msg| HttpResponse::json(&Json::obj([("error", Json::Str(msg))])));
        drop(guard);
        tracer.end(handle, None);
        response
    })
}

fn respond(
    system: &CoinSystem,
    req: &HttpRequest,
    tracer: &Arc<Tracer>,
    counters: &Arc<HandlerCounters>,
) -> Result<HttpResponse, String> {
    if (req.method.as_str(), req.path.as_str()) != ("POST", "/query") {
        return Ok(HttpResponse::error(
            404,
            "the traced handler serves POST /query",
        ));
    }
    let doc = tracer
        .span(Name::ServerParseRequest, || parse_json(&req.body_str()))
        .map_err(|e| format!("bad request body: {e}"))?;
    let sql = doc
        .get("sql")
        .and_then(Json::as_str)
        .ok_or("missing \"sql\" field")?;
    let context = doc
        .get("context")
        .and_then(Json::as_str)
        .ok_or("missing \"context\" field")?;

    let open = tracer.begin(Name::CorePrepareMiss);
    let prepared = system.prepare_with_status(sql, context);
    let hit = matches!(&prepared, Ok((_, CacheStatus::Hit)));
    tracer.end(open, hit.then_some(Name::CorePrepareHit));
    let (prepared, status) = prepared.map_err(|e| e.to_string())?;

    let flag = Arc::new(AtomicBool::new(false));
    let cancel = CancelToken::from_shared(Arc::clone(&flag));
    let rows = tracer
        .span(Name::PlannerExecuteStream, || {
            prepared.execute_stream(system, Some(cancel))
        })
        .map_err(|e| e.to_string())?;

    let mut stream = TracedStream {
        rows,
        status,
        buf: JsonBuf::new(),
        batch: Vec::with_capacity(SUB_BATCH_ROWS),
        started: false,
        done: false,
        last_return: Instant::now(),
        tracer: Arc::clone(tracer),
        counters: Arc::clone(counters),
    };
    Ok(HttpResponse::streamed(
        "application/json",
        StreamBody::new(flag, move || stream.next_chunk()),
    ))
}

/// The streamed body: one batch of rows per pull, its drain time and its
/// serialize time booked as separate spans, the document closed by the tail
/// fields.
struct TracedStream {
    rows: MediatedRows,
    status: CacheStatus,
    buf: JsonBuf,
    batch: Vec<Row>,
    started: bool,
    done: bool,
    last_return: Instant,
    tracer: Arc<Tracer>,
    counters: Arc<HandlerCounters>,
}

impl TracedStream {
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.done {
            return Ok(None);
        }
        self.counters
            .stream_wait_ns
            .fetch_add(self.last_return.elapsed().as_nanos() as u64, Relaxed);
        let chunk = self.tracer.begin(Name::ServerChunk);
        let produced = self.produce();
        self.tracer.end(chunk, None);
        self.last_return = Instant::now();
        produced.map(Some)
    }

    fn produce(&mut self) -> Result<Vec<u8>, String> {
        let tracer = Arc::clone(&self.tracer);
        let began = Instant::now();
        if !self.started {
            self.started = true;
            self.buf.begin_obj();
            self.buf.key("columns").begin_arr();
            for c in &self.rows.schema().columns {
                self.buf.begin_obj();
                self.buf.key("name").str_val(&c.name);
                self.buf.key("type").str_val(c.ty.name());
                self.buf.end_obj();
            }
            self.buf.end_arr();
            self.buf.key("rows").begin_arr();
        }
        let mut serialize = began.elapsed();
        let mut drain = Duration::ZERO;

        // The program's own writer pulls a row, writes it, drops it. Timing
        // each row would cost more than the row; pulling the whole batch
        // first would change what the allocator sees (256 live rows instead
        // of one). So: a few rows at a time, two clock reads per handful,
        // the sums booked as one drain and one serialize span per chunk.
        let mut pulled = 0;
        let mut exhausted = false;
        while pulled < STREAM_BATCH_ROWS && !exhausted {
            let t0 = Instant::now();
            self.batch.clear();
            while self.batch.len() < SUB_BATCH_ROWS && pulled + self.batch.len() < STREAM_BATCH_ROWS
            {
                match self.rows.next().map_err(|e| e.to_string())? {
                    Some(row) => self.batch.push(row),
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            }
            let t1 = Instant::now();
            for row in &self.batch {
                self.buf.begin_arr();
                for v in row {
                    write_value(v, &mut self.buf);
                }
                self.buf.end_arr();
            }
            pulled += self.batch.len();
            drain += t1 - t0;
            serialize += t1.elapsed();
        }
        tracer.record(Name::RelDrain, began, drain);
        tracer.record(Name::ServerSerialize, began + drain, serialize);
        self.counters.rows_out.fetch_add(pulled as u64, Relaxed);

        if exhausted {
            tracer.span(Name::ServerTail, || {
                let stats = *self.rows.stats();
                self.buf.end_arr();
                self.buf
                    .key("mediated_sql")
                    .str_val(&self.rows.mediated().query.to_string());
                self.buf
                    .key("explanation")
                    .str_val(&self.rows.mediated().explain());
                self.buf
                    .key("remote_queries")
                    .num(stats.remote_queries as f64);
                self.buf.key("cache").str_val(self.status.as_str());
                self.buf.key("epoch").num(stats.plan_epoch as f64);
                self.buf.key("cache_hits").num(stats.cache_hits as f64);
                self.buf.key("cache_misses").num(stats.cache_misses as f64);
                self.buf.end_obj();
                self.counters
                    .spill_bytes
                    .fetch_add(stats.spill_bytes, Relaxed);
            });
            self.done = true;
        }
        Ok(self.buf.take().into_bytes())
    }
}

/// A reply recorded off the wire: the body as the chunk payloads it came in.
pub type CannedReply = Arc<Vec<Vec<u8>>>;

/// A handler with no mediator behind it: it looks the request body up among
/// recorded replies and streams the recorded chunks back through
/// `StreamBody`, as the real reply was. What a round trip to it costs is
/// the transport's share of a request.
pub fn canned_handler(replies: HashMap<Vec<u8>, CannedReply>) -> Handler {
    Arc::new(move |req: &HttpRequest| match replies.get(&req.body) {
        None => HttpResponse::error(404, "no recorded reply for this request"),
        Some(reply) => {
            let reply = Arc::clone(reply);
            let mut next = 0;
            HttpResponse::streamed(
                "application/json",
                StreamBody::new(Arc::new(AtomicBool::new(false)), move || {
                    let chunk = reply.get(next).cloned();
                    next += 1;
                    Ok(chunk)
                }),
            )
        }
    })
}

/// Stage times of one compile, microseconds.
#[derive(Debug, Clone, Copy)]
pub struct CompileStages {
    pub parse_us: f64,
    pub mediate_us: f64,
    pub plan_us: f64,
    pub compile_us: f64,
    pub branches: usize,
}

/// Time the compile pipeline's stages for `sql`, each through the public
/// function that enters its layer: `parse_query`, `CoinSystem::mediate`
/// (which parses again, then rewrites), `Planner::plan_query` over the
/// mediated query, and `prepare_uncached` for the whole compile.
pub fn compile_probe(
    system: &CoinSystem,
    sql: &str,
    context: &str,
    tracer: &Tracer,
) -> Result<CompileStages, String> {
    let us = |t: Instant| t.elapsed().as_secs_f64() * 1e6;
    // A planner over the same dictionary and the default configuration the
    // deployments run with.
    let planner = Planner::new(system.dictionary().clone());

    let t = Instant::now();
    tracer
        .span(Name::SqlParse, || coin_sql::parse_query(sql))
        .map_err(|e| e.to_string())?;
    let parse_us = us(t);

    let t = Instant::now();
    let mediated = tracer
        .span(Name::CoreMediate, || system.mediate(sql, context))
        .map_err(|e| e.to_string())?;
    let mediate_us = us(t);

    let t = Instant::now();
    tracer
        .span(Name::PlannerPlan, || planner.plan_query(&mediated.query))
        .map_err(|e| e.to_string())?;
    let plan_us = us(t);

    let t = Instant::now();
    tracer
        .span(Name::CoreCompile, || system.prepare_uncached(sql, context))
        .map_err(|e| e.to_string())?;
    let compile_us = us(t);

    Ok(CompileStages {
        parse_us,
        mediate_us,
        plan_us,
        compile_us,
        branches: mediated.branches.len(),
    })
}
