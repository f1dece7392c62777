//! The mediation service protocol.
//!
//! The receiver-side API of the prototype, tunneled in HTTP (paper §2,
//! Figure 1). Endpoints:
//!
//! * `GET /dictionary` — schema information for all registered sources
//!   (the dictionary service);
//! * `POST /query` — `{"sql": …, "context": …, "mode": "mediated"|"naive"}`
//!   → columns, rows, the mediated SQL, the mediation explanation and
//!   execution statistics; mediated responses also report whether the
//!   prepared-query cache served the compile side (`"cache":
//!   "hit"|"miss"`), the model `"epoch"`, and the cumulative
//!   `"cache_hits"`/`"cache_misses"` counters. Result rows stream from
//!   the operator pipeline as a chunked response by default; `"stream":
//!   false` drains the same writer into one `Content-Length` body, so the
//!   bytes are identical either way. `"max_rows"`/`"max_bytes"` cap the
//!   result and set `"truncated": true` when rows were dropped;
//! * `GET /stats` — cumulative prepared-query cache counters and the
//!   current model epoch;
//! * `GET /qbe`, `POST /qbe` — the HTML Query-By-Example interface
//!   ([`crate::qbe`]).
//!
//! Values travel as tagged JSON arrays so 64-bit integers survive:
//! `null`, `["b",true]`, `["i","42"]`, `["f",2.5]`, `["s","text"]`. JSON
//! has no number for the floats a web page or an overflow can produce, so
//! those travel by name: `["f","inf"]`, `["f","-inf"]`, `["f","NaN"]`.

use std::sync::atomic::AtomicBool;
use std::sync::{Arc, RwLock};

use coin_core::{CoinSystem, MediatedRows, PlanRows};
use coin_rel::{CancelToken, Schema, Table, Value};

use crate::http::{
    serve_with, Handler, HttpError, HttpRequest, HttpResponse, ServerConfig, ServerHandle,
    StreamBody,
};
use crate::json::{parse, Json, JsonBuf};

/// A mediation system shared between the server and administrative
/// writers: queries take the read lock for the whole request, `add_*`
/// mutations take the write lock, so a response is always computed — and
/// its `plan_epoch` reported — against one coherent model state.
pub type SharedSystem = Arc<RwLock<CoinSystem>>;

/// Encode a value for the wire.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Arr(vec![Json::str("b"), Json::Bool(*b)]),
        Value::Int(i) => Json::Arr(vec![Json::str("i"), Json::Str(i.to_string())]),
        Value::Float(f) => Json::Arr(vec![
            Json::str("f"),
            non_finite_name(*f).map_or(Json::Num(*f), Json::str),
        ]),
        Value::Str(s) => Json::Arr(vec![Json::str("s"), Json::str(s)]),
    }
}

/// The wire name of a float JSON has no number for.
fn non_finite_name(f: f64) -> Option<&'static str> {
    if f.is_finite() {
        None
    } else if f.is_nan() {
        Some("NaN")
    } else if f > 0.0 {
        Some("inf")
    } else {
        Some("-inf")
    }
}

/// A tagged float's payload: a number, or the name of a non-finite one.
fn float_from_json(j: &Json) -> Option<f64> {
    match j.as_str() {
        None => j.as_f64(),
        Some("inf") => Some(f64::INFINITY),
        Some("-inf") => Some(f64::NEG_INFINITY),
        Some("NaN") => Some(f64::NAN),
        Some(_) => None,
    }
}

/// Decode a wire value.
pub fn json_to_value(j: &Json) -> Option<Value> {
    match j {
        Json::Null => Some(Value::Null),
        Json::Arr(items) => {
            let tag = items.first()?.as_str()?;
            match tag {
                "b" => Some(Value::Bool(items.get(1)?.as_bool()?)),
                "i" => Some(Value::Int(items.get(1)?.as_str()?.parse().ok()?)),
                "f" => Some(Value::Float(float_from_json(items.get(1)?)?)),
                "s" => Some(Value::str(items.get(1)?.as_str()?)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Serialize a value straight into an output buffer in the tagged wire
/// format — the allocation-lean counterpart of [`value_to_json`] used on
/// the `/query` hot path (no `Json` nodes, no intermediate strings).
pub fn write_value(v: &Value, out: &mut JsonBuf) {
    match v {
        Value::Null => out.null(),
        Value::Bool(b) => out.begin_arr().str_val("b").bool_val(*b).end_arr(),
        Value::Int(i) => out.begin_arr().str_val("i").int_str(*i).end_arr(),
        Value::Float(f) => {
            out.begin_arr().str_val("f");
            match non_finite_name(*f) {
                None => out.num(*f),
                Some(name) => out.str_val(name),
            }
            .end_arr()
        }
        Value::Str(s) => out.begin_arr().str_val("s").str_val(s).end_arr(),
    };
}

/// Serialize one result row as a JSON array of tagged values: the row
/// loop of the `/query` response writer.
#[inline]
pub fn write_row(row: &[Value], out: &mut JsonBuf) {
    out.begin_arr();
    for v in row {
        write_value(v, out);
    }
    out.end_arr();
}

/// Write the `"columns"` field and *open* the `"rows"` array on `out`
/// (the caller appends row arrays and closes it).
fn write_columns_open_rows(schema: &Schema, out: &mut JsonBuf) {
    out.key("columns").begin_arr();
    for c in &schema.columns {
        out.begin_obj();
        out.key("name").str_val(&c.name);
        out.key("type").str_val(c.ty.name());
        out.end_obj();
    }
    out.end_arr();
    out.key("rows").begin_arr();
}

/// Encode a result table.
pub fn table_to_json(t: &Table) -> Json {
    Json::obj([
        (
            "columns",
            Json::Arr(
                t.schema
                    .columns
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(&c.name)),
                            ("type", Json::str(c.ty.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "rows",
            Json::Arr(
                t.rows
                    .iter()
                    .map(|r| Json::Arr(r.iter().map(value_to_json).collect()))
                    .collect(),
            ),
        ),
    ])
}

/// Rows per emitted chunk on the streamed `/query` path: small enough to
/// keep the transport pipeline busy, large enough that framing overhead
/// (hex length lines, channel messages) is noise.
const STREAM_BATCH_ROWS: usize = 256;

/// Row/byte caps for one `/query` response, taken from the request's
/// optional `"max_rows"` / `"max_bytes"` fields (0 or absent = unlimited).
struct Limits {
    max_rows: u64,
    max_bytes: u64,
}

impl Limits {
    fn from_doc(doc: &Json) -> Result<Limits, String> {
        let field = |key: &str| -> Result<u64, String> {
            match doc.get(key) {
                None => Ok(0),
                Some(j) => {
                    let n = j
                        .as_f64()
                        .ok_or_else(|| format!("{key:?} must be a number"))?;
                    if n < 0.0 || n.fract() != 0.0 {
                        return Err(format!("{key:?} must be a non-negative integer"));
                    }
                    Ok(n as u64)
                }
            }
        };
        Ok(Limits {
            max_rows: field("max_rows")?,
            max_bytes: field("max_bytes")?,
        })
    }
}

/// The row pipeline behind one `/query` response.
enum RowSource {
    Naive(PlanRows),
    Mediated(Box<MediatedRows>),
}

impl RowSource {
    fn schema(&self) -> &Schema {
        match self {
            RowSource::Naive(rows) => rows.schema(),
            RowSource::Mediated(rows) => rows.schema(),
        }
    }

    fn next(&mut self) -> Result<Option<coin_rel::Row>, String> {
        match self {
            RowSource::Naive(rows) => rows.next().map_err(|e| e.to_string()),
            RowSource::Mediated(rows) => rows.next().map_err(|e| e.to_string()),
        }
    }
}

/// Incremental `/query` response writer: pulls rows from a live operator
/// pipeline and emits the response document one row batch at a time.
///
/// The only writer of a `/query` result document: a chunked response and
/// a drained `"stream": false` body carry the same bytes. Rows never exist
/// in memory all at once: peak memory is one batch plus whatever the
/// operators themselves hold (plus, when drained, the body itself).
struct QueryStream {
    source: RowSource,
    buf: JsonBuf,
    limits: Limits,
    /// Body bytes already handed to the transport.
    emitted: u64,
    rows_out: u64,
    truncated: bool,
    started: bool,
    done: bool,
}

impl QueryStream {
    fn new(source: RowSource, limits: Limits) -> QueryStream {
        QueryStream {
            source,
            buf: JsonBuf::new(),
            limits,
            emitted: 0,
            rows_out: 0,
            truncated: false,
            started: false,
            done: false,
        }
    }

    /// Produce the next batch of body bytes (`None` once the document is
    /// complete). An `Err` means the pipeline failed mid-stream; the
    /// transport closes the connection without the terminal chunk so the
    /// client can detect the truncation.
    fn next_chunk(&mut self) -> Result<Option<Vec<u8>>, String> {
        if self.done {
            return Ok(None);
        }
        if !self.started {
            self.started = true;
            self.buf.begin_obj();
            write_columns_open_rows(self.source.schema(), &mut self.buf);
        }
        for _ in 0..STREAM_BATCH_ROWS {
            if self.limits.max_rows > 0 && self.rows_out >= self.limits.max_rows {
                // Only report truncation if a row was actually dropped.
                self.truncated = self.source.next()?.is_some();
                return self.finish();
            }
            let Some(row) = self.source.next()? else {
                return self.finish();
            };
            write_row(&row, &mut self.buf);
            self.rows_out += 1;
            // Row-granular soft cap: the body may overshoot `max_bytes`
            // by at most one row plus the fixed tail.
            if self.limits.max_bytes > 0
                && self.emitted + self.buf.as_str().len() as u64 >= self.limits.max_bytes
            {
                self.truncated = self.source.next()?.is_some();
                return self.finish();
            }
        }
        Ok(Some(self.take_bytes()))
    }

    /// Close the rows array, append the tail fields, emit the remainder.
    fn finish(&mut self) -> Result<Option<Vec<u8>>, String> {
        self.buf.end_arr();
        match &self.source {
            RowSource::Naive(rows) => {
                self.buf
                    .key("remote_queries")
                    .num(rows.stats().remote_queries as f64);
            }
            RowSource::Mediated(rows) => {
                self.buf
                    .key("mediated_sql")
                    .str_val(rows.mediated().sql_text());
                self.buf
                    .key("explanation")
                    .str_val(rows.mediated().explanation());
                self.buf
                    .key("remote_queries")
                    .num(rows.stats().remote_queries as f64);
                self.buf.key("cache").str_val(rows.cache_status().as_str());
                self.buf.key("epoch").num(rows.stats().plan_epoch as f64);
                self.buf
                    .key("cache_hits")
                    .num(rows.stats().cache_hits as f64);
                self.buf
                    .key("cache_misses")
                    .num(rows.stats().cache_misses as f64);
            }
        }
        if self.truncated {
            self.buf.key("truncated").bool_val(true);
        }
        self.buf.end_obj();
        self.done = true;
        Ok(Some(self.take_bytes()))
    }

    /// The whole document in one buffer.
    fn drain(mut self) -> Result<Vec<u8>, String> {
        let mut body = Vec::new();
        while let Some(chunk) = self.next_chunk()? {
            body.extend_from_slice(&chunk);
        }
        Ok(body)
    }

    fn take_bytes(&mut self) -> Vec<u8> {
        let chunk = self.buf.take();
        self.emitted += chunk.len() as u64;
        chunk.into_bytes()
    }
}

/// Package a [`QueryStream`] as either a chunked streaming response or
/// (when the client opted out with `"stream": false`) the same chunks
/// drained into one `Content-Length` body.
fn query_stream_response(
    mut qs: QueryStream,
    stream: bool,
    cancel: Arc<AtomicBool>,
) -> Result<HttpResponse, String> {
    if stream {
        Ok(HttpResponse::streamed(
            "application/json",
            StreamBody::new(cancel, move || qs.next_chunk()),
        ))
    } else {
        Ok(HttpResponse::ok("application/json", qs.drain()?))
    }
}

/// Build the protocol handler over a shared system.
pub fn protocol_handler(system: Arc<CoinSystem>) -> Handler {
    Arc::new(move |req: &HttpRequest| dispatch(&system, req))
}

/// Build the protocol handler over a [`SharedSystem`]: each request runs
/// under the read lock, serializing against administrative writes.
pub fn protocol_handler_shared(system: SharedSystem) -> Handler {
    Arc::new(move |req: &HttpRequest| {
        let guard = system.read().unwrap_or_else(|e| e.into_inner());
        dispatch(&guard, req)
    })
}

/// Start the mediation server with default transport settings.
pub fn start_server(system: Arc<CoinSystem>, addr: &str) -> Result<ServerHandle, HttpError> {
    start_server_with(system, addr, ServerConfig::default())
}

/// Start the mediation server with explicit transport settings
/// (keep-alive, worker pool, queue bound, shedding — see
/// [`ServerConfig`]).
pub fn start_server_with(
    system: Arc<CoinSystem>,
    addr: &str,
    config: ServerConfig,
) -> Result<ServerHandle, HttpError> {
    serve_with(addr, config, protocol_handler(system))
}

/// Start the mediation server over a mutable [`SharedSystem`], so
/// administration (`add_source`, `add_context`, …) can interleave with
/// live query traffic through the write lock.
pub fn start_server_shared(
    system: SharedSystem,
    addr: &str,
    config: ServerConfig,
) -> Result<ServerHandle, HttpError> {
    serve_with(addr, config, protocol_handler_shared(system))
}

fn dispatch(system: &CoinSystem, req: &HttpRequest) -> HttpResponse {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/dictionary") => dictionary_response(system),
        ("GET", "/stats") => stats_response(system),
        ("POST", "/query") => match query_response(system, &req.body_str()) {
            Ok(r) => r,
            Err(msg) => HttpResponse::json(&Json::obj([("error", Json::Str(msg))])),
        },
        ("GET", "/qbe") => HttpResponse::html(&crate::qbe::render_form(system)),
        ("POST", "/qbe") => crate::qbe::handle_submission(system, &req.body_str()),
        _ => HttpResponse::error(404, "unknown endpoint"),
    }
}

fn dictionary_response(system: &CoinSystem) -> HttpResponse {
    let listing = system.dictionary().listing();
    let entries: Vec<Json> = listing
        .iter()
        .map(|(source, table, schema)| {
            Json::obj([
                ("source", Json::str(source)),
                ("table", Json::str(table)),
                (
                    "columns",
                    Json::Arr(
                        schema
                            .columns
                            .iter()
                            .map(|c| {
                                let base =
                                    c.name.rsplit_once('.').map_or(c.name.as_str(), |(_, b)| b);
                                Json::obj([
                                    ("name", Json::str(base)),
                                    ("type", Json::str(c.ty.name())),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    HttpResponse::json(&Json::obj([("tables", Json::Arr(entries))]))
}

fn stats_response(system: &CoinSystem) -> HttpResponse {
    let cache = system.cache_stats();
    // Per-part model versions: the invalidation granule behind the scalar
    // epoch (which stays a monotone summary for wire compatibility).
    let versions: Vec<(String, Json)> = system
        .versions()
        .iter()
        .map(|(part, v)| (part.to_string(), Json::Num(v as f64)))
        .collect();
    let model_versions = Json::Obj(versions);
    // What the fetch scheduler has measured of each source: the time one of
    // its fetches waits, which decides whether fetches overlap.
    let dictionary = system.dictionary();
    let waits = (dictionary.source_names().into_iter())
        .filter_map(|name| Some((name, dictionary.observed_wait(name)?)))
        .map(|(name, wait)| (name.to_owned(), Json::Num(wait.as_micros() as f64)))
        .collect();
    HttpResponse::json(&Json::obj([
        ("epoch", Json::Num(system.epoch() as f64)),
        ("cache_hits", Json::Num(cache.hits as f64)),
        ("cache_misses", Json::Num(cache.misses as f64)),
        ("cache_compiles", Json::Num(cache.compiles as f64)),
        ("cache_invalidations", Json::Num(cache.invalidations as f64)),
        ("cache_evictions", Json::Num(cache.evictions as f64)),
        ("cache_entries", Json::Num(cache.entries as f64)),
        ("cache_capacity", Json::Num(cache.capacity as f64)),
        ("axioms", Json::Num(system.axiom_count() as f64)),
        ("model_versions", model_versions),
        ("source_wait_us", Json::Obj(waits)),
    ]))
}

fn query_response(system: &CoinSystem, body: &str) -> Result<HttpResponse, String> {
    let doc = parse(body).map_err(|e| format!("bad request body: {e}"))?;
    let sql = doc
        .get("sql")
        .and_then(Json::as_str)
        .ok_or("missing \"sql\" field")?;
    let mode = doc.get("mode").and_then(Json::as_str).unwrap_or("mediated");
    let stream = doc.get("stream").and_then(Json::as_bool).unwrap_or(true);
    let limits = Limits::from_doc(&doc)?;
    match mode {
        "naive" => {
            let flag = Arc::new(AtomicBool::new(false));
            let cancel = CancelToken::from_shared(Arc::clone(&flag));
            let rows = system
                .query_naive_stream(sql, Some(cancel))
                .map_err(|e| e.to_string())?;
            let source = RowSource::Naive(rows);
            query_stream_response(QueryStream::new(source, limits), stream, flag)
        }
        "mediated" | "explain" => {
            let context = doc
                .get("context")
                .and_then(Json::as_str)
                .ok_or("missing \"context\" field")?;
            if mode == "explain" {
                let mediated = system.mediate(sql, context).map_err(|e| e.to_string())?;
                return Ok(HttpResponse::json(&Json::obj([
                    ("mediated_sql", Json::Str(mediated.query.to_string())),
                    ("explanation", Json::Str(mediated.explain())),
                    ("branches", Json::Num(mediated.branches.len() as f64)),
                ])));
            }
            let flag = Arc::new(AtomicBool::new(false));
            let cancel = CancelToken::from_shared(Arc::clone(&flag));
            let rows = system
                .query_stream(sql, context, Some(cancel))
                .map_err(|e| e.to_string())?;
            let source = RowSource::Mediated(Box::new(rows));
            query_stream_response(QueryStream::new(source, limits), stream, flag)
        }
        other => Err(format!("unknown mode {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_wire_roundtrip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Int(i64::MAX),
            Value::Int(-7),
            Value::Float(0.0096),
            Value::str("NTT 日本"),
        ] {
            let j = value_to_json(&v);
            let text = j.to_string();
            let back = json_to_value(&parse(&text).unwrap()).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn large_int_survives() {
        // 2^60 + 1 would lose precision as a JSON double.
        let v = Value::Int((1 << 60) + 1);
        let back = json_to_value(&parse(&value_to_json(&v).to_string()).unwrap()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn direct_serialization_matches_json_tree() {
        // The `/query` writer, drained over a plain row source, must carry
        // the columns and rows of the tree-built document for every value
        // kind: strings needing escapes, large integers, non-finite floats,
        // across more than one row batch.
        let schema = Schema::of(&[
            ("n", coin_rel::ColumnType::Any),
            ("s", coin_rel::ColumnType::Any),
        ]);
        let mut rows = vec![
            vec![Value::Null, Value::str("plain")],
            vec![Value::Bool(false), Value::str("esc\"ape\n通貨")],
            vec![Value::Int((1 << 60) + 1), Value::Float(0.0096)],
            vec![Value::Float(f64::NEG_INFINITY), Value::Float(f64::NAN)],
            vec![Value::Float(2.0), Value::str("")],
        ];
        rows.extend((0..2 * STREAM_BATCH_ROWS as i64).map(|i| vec![Value::Int(i), Value::Null]));
        let t = Table::from_rows("x", schema.clone(), rows);
        let scan = coin_rel::exec::ValuesScan::new(schema.clone(), t.rows.clone());
        let mut rows = PlanRows::from_parts(schema, Box::new(scan));
        rows.stats_mut().remote_queries = 3;
        let source = RowSource::Naive(rows);
        let limits = Limits {
            max_rows: 0,
            max_bytes: 0,
        };
        let body = QueryStream::new(source, limits).drain().unwrap();
        let doc = parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let tree = table_to_json(&t);
        for field in ["columns", "rows"] {
            assert_eq!(doc.get(field), tree.get(field), "{field}");
        }
        assert_eq!(doc.get("remote_queries").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn table_encoding_shape() {
        let t = Table::from_rows(
            "x",
            coin_rel::Schema::of(&[("a", coin_rel::ColumnType::Int)]),
            vec![vec![Value::Int(1)], vec![Value::Int(2)]],
        );
        let j = table_to_json(&t);
        assert_eq!(j.get("rows").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            j.get("columns").unwrap().as_array().unwrap()[0]
                .get("name")
                .unwrap()
                .as_str()
                .unwrap(),
            "a"
        );
    }
}
