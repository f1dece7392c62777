//! The ODBC-family client API.
//!
//! "On the receiver's side we have implemented an Application Programming
//! Interface (API) of the family of the Object DataBase Connectivity (ODBC)
//! protocol … we have developed … an ODBC driver which gives access to the
//! mediation services to any … ODBC compliant applications" (paper §2).
//!
//! [`Connection`] plays the role of the ODBC data source (bound to a
//! receiver context), [`Statement`] prepares and executes SQL, and
//! [`ResultSet`] exposes columns/rows plus the mediation provenance.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, PoisonError};

use coin_rel::{Column, ColumnType, Schema, Value};

use crate::http::{HttpClient, HttpError};
use crate::json::{parse, Json, JsonError};
use crate::protocol::json_to_value;

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    Http(HttpError),
    Json(JsonError),
    Server(String),
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Http(e) => write!(f, "{e}"),
            ClientError::Json(e) => write!(f, "{e}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<HttpError> for ClientError {
    fn from(e: HttpError) -> Self {
        ClientError::Http(e)
    }
}
impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Json(e)
    }
}

/// Table metadata from the dictionary endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    pub source: String,
    pub table: String,
    pub columns: Vec<(String, String)>,
}

/// A connection to a mediation server, bound to a receiver context.
///
/// The connection holds one pooled keep-alive socket ([`HttpClient`]):
/// sequential requests reuse it instead of opening a TCP connection per
/// call, and a socket the server idle-timed-out is transparently
/// re-opened. [`HttpClient`]'s retry policy replays a request only on
/// disconnect-before-response, never on a timeout, and only for
/// idempotent methods — `POST /query` is read-only despite its method,
/// so this connection opts it in explicitly
/// ([`HttpClient::send_assuming_idempotent`]). Clones share the pooled
/// socket (requests serialize over it, as in ODBC connections).
///
/// ```
/// use coin_core::fixtures::figure2_system;
/// use coin_server::{start_server, Connection};
/// use std::sync::Arc;
///
/// let server = start_server(Arc::new(figure2_system()), "127.0.0.1:0").unwrap();
/// let conn = Connection::open(server.addr, "c_recv");
///
/// let rs = conn
///     .statement()
///     .execute(
///         "SELECT r1.cname, r1.revenue FROM r1, r2 \
///          WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses",
///     )
///     .unwrap();
/// assert_eq!(rs.len(), 1); // <'NTT', 9_600_000> in the receiver context
///
/// let stats = conn.server_stats().unwrap();
/// assert_eq!(stats.cache_misses, 1); // first compile was a cold miss
/// server.stop();
/// ```
#[derive(Debug, Clone)]
pub struct Connection {
    addr: SocketAddr,
    context: String,
    http: Arc<Mutex<HttpClient>>,
}

impl Connection {
    /// Open a connection (lazy: the socket is opened on first use).
    pub fn open(addr: SocketAddr, context: &str) -> Connection {
        Connection {
            addr,
            context: context.to_owned(),
            http: Arc::new(Mutex::new(HttpClient::new(addr))),
        }
    }

    /// The receiver context this connection is bound to.
    pub fn context(&self) -> &str {
        &self.context
    }

    /// The server address this connection targets.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// TCP connections opened so far (1 for an all-keep-alive exchange).
    pub fn transport_connects(&self) -> u64 {
        self.http().connects()
    }

    fn http(&self) -> std::sync::MutexGuard<'_, HttpClient> {
        self.http.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn get(&self, path: &str) -> Result<Vec<u8>, HttpError> {
        self.http().request("GET", path, None, &[])
    }

    fn post_json(&self, path: &str, payload: &Json) -> Result<Vec<u8>, HttpError> {
        // Every endpoint this client POSTs to is read-only (queries,
        // explain), so opt in to the stale-socket replay the transport
        // otherwise reserves for GET/HEAD.
        self.http()
            .send_assuming_idempotent(
                "POST",
                path,
                Some("application/json"),
                payload.to_string().as_bytes(),
            )?
            .into_body()
    }

    /// Fetch the schema dictionary.
    pub fn dictionary(&self) -> Result<Vec<TableInfo>, ClientError> {
        let body = self.get("/dictionary")?;
        let doc = parse(&String::from_utf8_lossy(&body))?;
        let tables = doc
            .get("tables")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("missing tables".into()))?;
        tables
            .iter()
            .map(|t| {
                let source = t
                    .get("source")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ClientError::Protocol("missing source".into()))?
                    .to_owned();
                let table = t
                    .get("table")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ClientError::Protocol("missing table".into()))?
                    .to_owned();
                let columns = t
                    .get("columns")
                    .and_then(Json::as_array)
                    .ok_or_else(|| ClientError::Protocol("missing columns".into()))?
                    .iter()
                    .map(|c| {
                        Ok((
                            c.get("name")
                                .and_then(Json::as_str)
                                .ok_or_else(|| ClientError::Protocol("missing column name".into()))?
                                .to_owned(),
                            c.get("type")
                                .and_then(Json::as_str)
                                .unwrap_or("ANY")
                                .to_owned(),
                        ))
                    })
                    .collect::<Result<_, ClientError>>()?;
                Ok(TableInfo {
                    source,
                    table,
                    columns,
                })
            })
            .collect()
    }

    /// Create a statement.
    pub fn statement(&self) -> Statement<'_> {
        Statement {
            conn: self,
            mediated: true,
            max_rows: 0,
            max_bytes: 0,
        }
    }

    /// A statement that bypasses mediation (the naive baseline).
    pub fn naive_statement(&self) -> Statement<'_> {
        Statement {
            conn: self,
            mediated: false,
            max_rows: 0,
            max_bytes: 0,
        }
    }

    /// Fetch the server's cumulative mediation statistics (`GET /stats`).
    pub fn server_stats(&self) -> Result<ServerStats, ClientError> {
        let body = self.get("/stats")?;
        let doc = parse(&String::from_utf8_lossy(&body))?;
        let num = |k: &str| doc.get(k).and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let tracked_model_parts = match doc.get("model_versions") {
            Some(Json::Obj(parts)) => parts.len() as u64,
            _ => 0,
        };
        let source_wait_us = match doc.get("source_wait_us") {
            Some(Json::Obj(waits)) => (waits.iter())
                .map(|(source, us)| (source.clone(), us.as_f64().unwrap_or(0.0) as u64))
                .collect(),
            _ => BTreeMap::new(),
        };
        Ok(ServerStats {
            epoch: num("epoch"),
            cache_hits: num("cache_hits"),
            cache_misses: num("cache_misses"),
            cache_compiles: num("cache_compiles"),
            cache_invalidations: num("cache_invalidations"),
            cache_evictions: num("cache_evictions"),
            cache_entries: num("cache_entries"),
            cache_capacity: num("cache_capacity"),
            axioms: num("axioms"),
            tracked_model_parts,
            source_wait_us,
        })
    }

    /// Ask the mediator for the rewriting only.
    pub fn explain(&self, sql: &str) -> Result<(String, String), ClientError> {
        let payload = Json::obj([
            ("sql", Json::str(sql)),
            ("context", Json::str(&self.context)),
            ("mode", Json::str("explain")),
        ]);
        let body = self.post_json("/query", &payload)?;
        let doc = parse(&String::from_utf8_lossy(&body))?;
        if let Some(err) = doc.get("error").and_then(Json::as_str) {
            return Err(ClientError::Server(err.to_owned()));
        }
        Ok((
            doc.get("mediated_sql")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
            doc.get("explanation")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_owned(),
        ))
    }
}

/// A prepared statement.
#[derive(Debug)]
pub struct Statement<'c> {
    conn: &'c Connection,
    mediated: bool,
    max_rows: u64,
    max_bytes: u64,
}

impl Statement<'_> {
    /// Cap the result at `n` rows (0 = unlimited). A capped result that
    /// actually dropped rows comes back with [`ResultSet::truncated`]
    /// set.
    pub fn max_rows(mut self, n: u64) -> Self {
        self.max_rows = n;
        self
    }

    /// Cap the response body at roughly `n` bytes (0 = unlimited; the
    /// server stops emitting rows at the first row past the cap).
    pub fn max_bytes(mut self, n: u64) -> Self {
        self.max_bytes = n;
        self
    }

    /// Execute SQL and fetch the full result set.
    pub fn execute(&self, sql: &str) -> Result<ResultSet, ClientError> {
        let mode = if self.mediated { "mediated" } else { "naive" };
        let mut fields = vec![
            ("sql".to_owned(), Json::str(sql)),
            ("context".to_owned(), Json::str(&self.conn.context)),
            ("mode".to_owned(), Json::str(mode)),
        ];
        if self.max_rows > 0 {
            fields.push(("max_rows".to_owned(), Json::Num(self.max_rows as f64)));
        }
        if self.max_bytes > 0 {
            fields.push(("max_bytes".to_owned(), Json::Num(self.max_bytes as f64)));
        }
        let payload = Json::Obj(fields);
        let body = self.conn.post_json("/query", &payload)?;
        let doc = parse(&String::from_utf8_lossy(&body))?;
        if let Some(err) = doc.get("error").and_then(Json::as_str) {
            return Err(ClientError::Server(err.to_owned()));
        }
        decode_result(&doc)
    }
}

fn decode_result(doc: &Json) -> Result<ResultSet, ClientError> {
    let columns = doc
        .get("columns")
        .and_then(Json::as_array)
        .ok_or_else(|| ClientError::Protocol("missing columns".into()))?
        .iter()
        .map(|c| {
            let name = c
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| ClientError::Protocol("missing column name".into()))?;
            let ty = match c.get("type").and_then(Json::as_str).unwrap_or("ANY") {
                "INT" => ColumnType::Int,
                "FLOAT" => ColumnType::Float,
                "STR" => ColumnType::Str,
                "BOOL" => ColumnType::Bool,
                _ => ColumnType::Any,
            };
            Ok(Column::new(name, ty))
        })
        .collect::<Result<Vec<_>, ClientError>>()?;
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .ok_or_else(|| ClientError::Protocol("missing rows".into()))?
        .iter()
        .map(|r| {
            r.as_array()
                .ok_or_else(|| ClientError::Protocol("row is not an array".into()))?
                .iter()
                .map(|v| {
                    json_to_value(v).ok_or_else(|| ClientError::Protocol(format!("bad value {v}")))
                })
                .collect::<Result<Vec<Value>, _>>()
        })
        .collect::<Result<Vec<_>, ClientError>>()?;
    Ok(ResultSet {
        schema: Schema::new(columns),
        rows,
        mediated_sql: doc
            .get("mediated_sql")
            .and_then(Json::as_str)
            .map(str::to_owned),
        explanation: doc
            .get("explanation")
            .and_then(Json::as_str)
            .map(str::to_owned),
        cache: doc.get("cache").and_then(Json::as_str).map(str::to_owned),
        plan_epoch: doc.get("epoch").and_then(Json::as_f64).map(|e| e as u64),
        truncated: doc
            .get("truncated")
            .and_then(Json::as_bool)
            .unwrap_or(false),
    })
}

/// Cumulative server-side mediation statistics (`GET /stats`). Servers
/// that predate the endpoint simply fail the request; all fields decode
/// leniently to 0 when absent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub epoch: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Fresh compiles performed through the cache path; under the
    /// single-flight guard a stampede on one key adds exactly 1.
    pub cache_compiles: u64,
    /// Entries dropped because a model mutation touched one of their
    /// recorded dependencies (plus explicit purges).
    pub cache_invalidations: u64,
    pub cache_evictions: u64,
    pub cache_entries: u64,
    pub cache_capacity: u64,
    pub axioms: u64,
    /// Number of model parts with an explicit version stamp in the
    /// server's `model_versions` map (0 from older servers that only
    /// report the scalar epoch).
    pub tracked_model_parts: u64,
    /// Per source, the microseconds one fetch from it has lately been seen
    /// to wait — the measured communication cost behind the server's
    /// decision to overlap fetches (empty from older servers).
    pub source_wait_us: BTreeMap<String, u64>,
}

/// A fetched result set.
#[derive(Debug, Clone)]
pub struct ResultSet {
    pub schema: Schema,
    pub rows: Vec<Vec<Value>>,
    /// The mediated SQL the server executed (mediated mode only).
    pub mediated_sql: Option<String>,
    /// The mediation explanation.
    pub explanation: Option<String>,
    /// `"hit"` or `"miss"`: whether the server's prepared-query cache
    /// served the compile side. `None` when talking to an older server
    /// that does not send the field (old clients likewise simply ignore
    /// it).
    pub cache: Option<String>,
    /// The model epoch the server's plan was compiled at (mediated mode;
    /// `None` from older servers). Together with the dependency-guarded
    /// cache this certifies which model state produced the rows.
    pub plan_epoch: Option<u64>,
    /// The server dropped rows to honor a [`Statement::max_rows`] /
    /// [`Statement::max_bytes`] cap.
    pub truncated: bool,
}

impl ResultSet {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}
