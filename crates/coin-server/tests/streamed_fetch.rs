//! `/query` over a fetch streamed into the pipeline. A source that fails
//! after its first rows fails the request as the fetch-failure contract
//! has it: a chunked body ends without its terminal chunk, a whole body and
//! `CoinSystem::query` carry the error, and the server answers the next
//! request. A drained answer reports the remote queries that staging the
//! fetch whole reports.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use coin_core::fixtures::figure2_system;
use coin_core::{CoinSystem, Elevation};
use coin_rel::{BoxOp, Catalog, ColumnType, ExecError, Operator, Row, Schema, Table, Value};
use coin_server::{http, parse_json, start_server_with, Json, ServerConfig};
use coin_sql::Select;
use coin_wrapper::{Capabilities, RelationalSource, Source, SourceError};

#[path = "support/transport.rs"]
mod support;

use support::{matrix, EPHEMERAL};

/// Rows the flaky source ships before it fails: more than one response
/// batch, so a chunked body is under way when the failure comes.
const BEFORE_FAILING: usize = 600;
const FAILURE: &str = "flaky source lost its connection";
const FLAKY_SQL: &str = "SELECT f.id FROM flaky f";

/// A source over a 2,000-row table whose row stream fails after
/// [`BEFORE_FAILING`] rows; a whole-table fetch fails outright.
struct Flaky {
    inner: RelationalSource,
}

impl Flaky {
    fn new() -> Flaky {
        let table = Table::from_rows(
            "flaky",
            Schema::of(&[("id", ColumnType::Int)]),
            (0..2_000).map(|i| vec![Value::Int(i)]).collect(),
        );
        Flaky {
            inner: RelationalSource::new("flaky_db", Catalog::new().with_table(table)),
        }
    }
}

impl Source for Flaky {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<(String, Schema)> {
        self.inner.tables()
    }

    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }

    fn execute_select(&self, _select: &Select) -> Result<Table, SourceError> {
        Err(SourceError::Unsupported(FAILURE.into()))
    }

    fn execute_stream(&self, select: &Select) -> Result<(Schema, BoxOp), SourceError> {
        let (schema, rows) = self.inner.execute_stream(select)?;
        Ok((
            schema,
            Box::new(FailsAfter {
                rows,
                left: BEFORE_FAILING,
            }),
        ))
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn estimated_cardinality(&self, table: &str) -> Option<usize> {
        self.inner.estimated_cardinality(table)
    }
}

struct FailsAfter {
    rows: BoxOp,
    left: usize,
}

impl Operator for FailsAfter {
    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.left == 0 {
            return Err(ExecError::Other(FAILURE.into()));
        }
        self.left -= 1;
        self.rows.next()
    }
}

fn flaky_system() -> CoinSystem {
    let mut sys = figure2_system();
    sys.add_source(Flaky::new()).unwrap();
    sys.add_elevation(Elevation::new("flaky", "c_recv").column("id", "companyName"))
        .unwrap();
    sys
}

fn query_body(sql: &str, stream: bool) -> String {
    Json::obj([
        ("sql", Json::str(sql)),
        ("context", Json::str("c_recv")),
        ("stream", Json::Bool(stream)),
    ])
    .to_string()
}

/// POST a `/query` on a new connection and read until the server closes
/// it: the raw response bytes.
fn raw_query(addr: SocketAddr, body: &str) -> Vec<u8> {
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(
        raw,
        "POST /query HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap();
    reply
}

fn post(addr: SocketAddr, body: &str) -> Json {
    let reply = http::post(&addr, "/query", "application/json", body.as_bytes()).unwrap();
    let reply = String::from_utf8(reply).unwrap();
    parse_json(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"))
}

#[test]
fn in_process_a_fetch_failing_mid_stream_fails_the_query() {
    let sys = flaky_system();
    let err = sys.query(FLAKY_SQL, "c_recv").unwrap_err();
    assert!(err.to_string().contains(FAILURE), "{err}");

    let mut rows = sys.query_stream(FLAKY_SQL, "c_recv", None).unwrap();
    for i in 0..BEFORE_FAILING {
        assert_eq!(rows.next().unwrap(), Some(vec![Value::Int(i as i64)]));
    }
    let err = rows.next().unwrap_err();
    assert!(err.to_string().contains(FAILURE), "{err}");
    assert!(!rows.finished());
}

#[test]
fn over_http_a_fetch_failing_mid_stream_truncates_or_errors_and_the_server_goes_on() {
    for case in matrix() {
        let server = start_server_with(
            Arc::new(flaky_system()),
            EPHEMERAL,
            case.apply(ServerConfig::default()),
        )
        .unwrap();

        // Chunked: rows went out, then the connection closed without the
        // terminal chunk, so the client can tell the body is cut short.
        let reply = raw_query(server.addr, &query_body(FLAKY_SQL, true));
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.starts_with("HTTP/1.1 200"),
            "[{}] {text:.200}",
            case.name
        );
        assert!(
            text.to_ascii_lowercase()
                .contains("transfer-encoding: chunked"),
            "[{}] {text:.200}",
            case.name
        );
        // Two whole batches of 256 rows left before row 600 failed.
        assert!(
            text.contains(r#"[["i","511"]]"#),
            "[{}] {text:.400}",
            case.name
        );
        assert!(
            !text.contains(r#"["i","600"]"#),
            "[{}] a row past the failure",
            case.name
        );
        assert!(
            !text.ends_with("0\r\n\r\n"),
            "[{}] {}",
            case.name,
            &text[text.len() - 40..]
        );
        assert!(
            !text.contains("remote_queries"),
            "[{}] a complete document",
            case.name
        );

        // Whole: the error, and no rows.
        let doc = post(server.addr, &query_body(FLAKY_SQL, false));
        let error = doc.get("error").and_then(Json::as_str).unwrap_or_default();
        assert!(error.contains(FAILURE), "[{}] {doc}", case.name);
        assert!(doc.get("rows").is_none(), "[{}] {doc}", case.name);

        // The next request, on a new connection, is answered.
        let doc = post(server.addr, &query_body("SELECT r2.cname FROM r2", true));
        let rows = doc.get("rows").and_then(Json::as_array).map(<[Json]>::len);
        assert_eq!(rows, Some(2), "[{}] {doc}", case.name);
        server.stop();
    }
}

/// A mediated answer over a large source: whichever way it travels, the
/// drained answer reports the remote queries the in-process one does.
#[test]
fn every_path_reports_the_same_remote_queries() {
    let mut sys = figure2_system();
    let bulk = Table::from_rows(
        "bulk",
        Schema::of(&[("id", ColumnType::Int)]),
        (0..20_000).map(|i| vec![Value::Int(i)]).collect(),
    );
    sys.add_source(RelationalSource::new(
        "bulk_db",
        Catalog::new().with_table(bulk),
    ))
    .unwrap();
    sys.add_elevation(Elevation::new("bulk", "c_recv").column("id", "companyName"))
        .unwrap();
    let sql = "SELECT b.id, r1.cname, r1.revenue FROM bulk b, r1 WHERE b.id < 3";
    let answer = sys.query(sql, "c_recv").unwrap();
    let expected = answer.stats.remote_queries;
    assert_eq!(answer.table.rows.len(), 6);
    let mut streamed = sys.query_stream(sql, "c_recv", None).unwrap();
    while streamed.next().unwrap().is_some() {}
    assert_eq!(streamed.stats().remote_queries, expected);
    assert_eq!(streamed.stats().rows_shipped, answer.stats.rows_shipped);

    let server = start_server_with(Arc::new(sys), EPHEMERAL, ServerConfig::default()).unwrap();
    for stream in [true, false] {
        let doc = post(server.addr, &query_body(sql, stream));
        let rows = doc.get("rows").and_then(Json::as_array).map(<[Json]>::len);
        assert_eq!(rows, Some(6), "{doc}");
        let sent = doc.get("remote_queries").and_then(Json::as_f64);
        assert_eq!(sent, Some(expected as f64), "stream {stream}: {doc}");
    }
    server.stop();
}
