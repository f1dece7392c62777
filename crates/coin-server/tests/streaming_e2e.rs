//! Streaming `/query` e2e: chunked responses sourced straight from the
//! operator pipeline — the same bytes as the `"stream": false` body that
//! drains the same writer, the same columns and rows as the in-process
//! answer, capped by row/byte limits, and aborted (plan cancelled, worker
//! freed) when the client disconnects mid-stream.
//!
//! The byte-identity and mid-stream-abort contracts run over the
//! transport conformance matrix, every reactor backend × shard count
//! (see `support/transport.rs`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coin_core::fixtures::figure2_system;
use coin_core::CoinSystem;
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_server::http::HttpClient;
use coin_server::{
    parse_json, start_server_with, table_to_json, Connection, Json, ServerConfig, ServerHandle,
};
use coin_wrapper::RelationalSource;

#[path = "support/transport.rs"]
mod support;

use support::{matrix, EPHEMERAL};

const BULK_SQL: &str = "SELECT big.id, big.payload FROM big";

/// Figure 2 plus one synthetic table of `rows` ~70-byte rows, so results
/// can be made far larger than any socket buffer.
fn bulk_system(rows: usize) -> CoinSystem {
    let mut sys = figure2_system();
    let payload = Value::str(&"x".repeat(48));
    let table = Table::from_rows(
        "big",
        Schema::of(&[("id", ColumnType::Int), ("payload", ColumnType::Str)]),
        (0..rows)
            .map(|i| vec![Value::Int(i as i64), payload.clone()])
            .collect(),
    );
    sys.add_source(RelationalSource::new(
        "bulk",
        Catalog::new().with_table(table),
    ))
    .unwrap();
    sys
}

fn start_bulk(rows: usize, config: ServerConfig) -> ServerHandle {
    start_server_with(Arc::new(bulk_system(rows)), EPHEMERAL, config).unwrap()
}

/// Parse a `/query` body.
fn doc(body: &[u8]) -> Json {
    parse_json(std::str::from_utf8(body).unwrap()).unwrap()
}

/// A `/query` body carries the `columns` and `rows` of the tree-built
/// document of the in-process answer `oracle`.
fn assert_answers(body: &[u8], oracle: &Table) {
    let (doc, tree) = (doc(body), table_to_json(oracle));
    for field in ["columns", "rows"] {
        assert_eq!(doc.get(field), tree.get(field), "{field}");
    }
}

#[test]
fn chunked_and_whole_naive_bodies_are_byte_identical() {
    // Byte identity is a cross-transport contract: the chunked document
    // must not vary with the loop driving it (poll or epoll, any shard
    // count).
    let (oracle, _) = bulk_system(5_000).query_naive(BULK_SQL).unwrap();
    for case in matrix() {
        let server = start_bulk(5_000, case.apply(ServerConfig::default()));
        let mut client = HttpClient::new(server.addr);
        let streamed = client
            .send(
                "POST",
                "/query",
                Some("application/json"),
                format!("{{\"sql\":\"{BULK_SQL}\",\"mode\":\"naive\"}}").as_bytes(),
            )
            .unwrap();
        assert_eq!(streamed.status, 200);
        assert_eq!(
            streamed
                .headers
                .get("transfer-encoding")
                .map(String::as_str),
            Some("chunked"),
            "[{}]",
            case.name
        );
        let whole = client
            .send(
                "POST",
                "/query",
                Some("application/json"),
                format!("{{\"sql\":\"{BULK_SQL}\",\"mode\":\"naive\",\"stream\":false}}")
                    .as_bytes(),
            )
            .unwrap();
        assert_eq!(whole.status, 200);
        assert!(whole.headers.contains_key("content-length"));
        // Chunked and `Content-Length` framing carry the same document
        // byte for byte, and it holds the in-process answer.
        assert_eq!(streamed.body, whole.body, "[{}]", case.name);
        assert_answers(&whole.body, &oracle);
        server.stop();
    }
}

#[test]
fn expression_heavy_streamed_body_is_byte_identical() {
    // CASE, LIKE, BETWEEN, NOT IN and arithmetic all ride the register-VM
    // hot path; the chunked body must still carry exactly the bytes of the
    // whole one and the in-process answer (float rendering, -0.0, NULLs
    // included).
    const SQL: &str = "SELECT big.id * 2 + 1, big.id / -4.0, \
         CASE WHEN big.id < 100 THEN 'lo' ELSE big.payload END \
         FROM big \
         WHERE big.payload LIKE 'x%' AND big.id BETWEEN 3 AND 4800 \
         AND big.id + 1 NOT IN (7, 9)";
    let server = start_bulk(5_000, ServerConfig::default());
    let mut client = HttpClient::new(server.addr);
    let body =
        |stream: bool| format!("{{\"sql\":\"{SQL}\",\"mode\":\"naive\",\"stream\":{stream}}}");
    let streamed = client
        .send(
            "POST",
            "/query",
            Some("application/json"),
            body(true).as_bytes(),
        )
        .unwrap();
    assert_eq!(streamed.status, 200);
    let whole = client
        .send(
            "POST",
            "/query",
            Some("application/json"),
            body(false).as_bytes(),
        )
        .unwrap();
    assert_eq!(whole.status, 200);
    assert_eq!(streamed.body, whole.body);
    let (oracle, _) = bulk_system(5_000).query_naive(SQL).unwrap();
    assert_answers(&whole.body, &oracle);
    // Sanity: the predicate actually filtered (4798 survivors minus the
    // NOT IN exclusions).
    let text = String::from_utf8(streamed.body).unwrap();
    assert!(text.contains("\"lo\""), "CASE low arm missing: {text}");
    assert!(text.contains("-0.75"), "float division missing: {text}");
    server.stop();
}

#[test]
fn chunked_and_whole_mediated_bodies_are_byte_identical() {
    // Mediated responses carry monotonic cache counters, so the two
    // requests must hit two fresh (identical) systems.
    let q = "SELECT r1.cname, r1.revenue FROM r1, r2 \
             WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";
    let body = |stream: bool| {
        format!(
            "{{\"sql\":\"{q}\",\"context\":\"c_recv\",\"mode\":\"mediated\",\"stream\":{stream}}}"
        )
    };
    let fetch = |stream: bool| {
        let server = start_server_with(
            Arc::new(figure2_system()),
            EPHEMERAL,
            ServerConfig::default(),
        )
        .unwrap();
        let resp = HttpClient::new(server.addr)
            .send(
                "POST",
                "/query",
                Some("application/json"),
                body(stream).as_bytes(),
            )
            .unwrap();
        server.stop();
        assert_eq!(resp.status, 200);
        resp.body
    };
    let streamed = fetch(true);
    let whole = fetch(false);
    assert!(String::from_utf8_lossy(&streamed).contains("NTT"));
    assert_eq!(streamed, whole);
    let oracle = figure2_system().query(q, "c_recv").unwrap().table;
    assert_answers(&whole, &oracle);
}

#[test]
fn whole_body_with_max_rows_is_the_streamed_body() {
    let server = start_bulk(1_000, ServerConfig::default());
    let mut client = HttpClient::new(server.addr);
    let mut fetch = |stream: bool| {
        let body = format!(
            "{{\"sql\":\"{BULK_SQL}\",\"mode\":\"naive\",\"max_rows\":10,\"stream\":{stream}}}"
        );
        let resp = client
            .send("POST", "/query", Some("application/json"), body.as_bytes())
            .unwrap();
        assert_eq!(resp.status, 200);
        resp
    };
    let streamed = fetch(true);
    let whole = fetch(false);
    assert!(whole.headers.contains_key("content-length"));
    assert_eq!(streamed.body, whole.body);
    assert_eq!(
        doc(&whole.body).get("truncated").and_then(Json::as_bool),
        Some(true)
    );
    let (mut oracle, _) = bulk_system(1_000).query_naive(BULK_SQL).unwrap();
    oracle.rows.truncate(10);
    assert_answers(&whole.body, &oracle);
    server.stop();
}

#[test]
fn streamed_result_matches_in_process_reference() {
    let rows = 10_000;
    let server = start_bulk(rows, ServerConfig::default());
    let conn = Connection::open(server.addr, "c_recv");
    let rs = conn.naive_statement().execute(BULK_SQL).unwrap();
    assert_eq!(rs.len(), rows);
    assert!(!rs.truncated);
    let (reference, _) = bulk_system(rows).query_naive(BULK_SQL).unwrap();
    assert_eq!(rs.schema, reference.schema);
    assert_eq!(rs.rows, reference.rows);
    server.stop();
}

#[test]
fn max_rows_caps_the_result_and_flags_truncation() {
    let server = start_bulk(1_000, ServerConfig::default());
    let conn = Connection::open(server.addr, "c_recv");
    let rs = conn
        .naive_statement()
        .max_rows(10)
        .execute(BULK_SQL)
        .unwrap();
    assert_eq!(rs.len(), 10);
    assert!(rs.truncated, "dropped 990 rows");
    // A cap the result fits under exactly is not a truncation.
    let rs = conn
        .naive_statement()
        .max_rows(1_000)
        .execute(BULK_SQL)
        .unwrap();
    assert_eq!(rs.len(), 1_000);
    assert!(!rs.truncated);
    server.stop();
}

#[test]
fn max_bytes_caps_the_result_and_flags_truncation() {
    let server = start_bulk(1_000, ServerConfig::default());
    let conn = Connection::open(server.addr, "c_recv");
    let rs = conn
        .naive_statement()
        .max_bytes(4_096)
        .execute(BULK_SQL)
        .unwrap();
    assert!(
        !rs.is_empty(),
        "the cap is row-granular, not all-or-nothing"
    );
    assert!(
        rs.len() < 1_000,
        "the cap dropped most of 1000 ~70-byte rows"
    );
    assert!(rs.truncated);
    server.stop();
}

#[test]
fn mid_stream_disconnect_aborts_the_plan_and_frees_the_worker() {
    // One worker: if the disconnected stream's plan kept running (or its
    // producer stayed parked on the channel), the follow-up request could
    // never be served. Every reactor backend × shard count must observe
    // the disconnect the same way.
    for case in matrix() {
        let server = start_bulk(
            200_000,
            case.apply(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            }),
        );
        let body = format!("{{\"sql\":\"{BULK_SQL}\",\"mode\":\"naive\"}}");
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(
            format!(
                "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
        .unwrap();
        raw.flush().unwrap();

        // Read far enough to prove the stream is in flight (the ~14 MB
        // body cannot have completed into socket buffers), then vanish.
        let mut got = 0usize;
        let mut buf = [0u8; 8192];
        while got < 64 * 1024 {
            let n = raw.read(&mut buf).unwrap();
            assert!(n > 0, "server closed the stream before the disconnect");
            got += n;
        }
        drop(raw);

        // The owning shard observes the disconnect, cancels the plan,
        // and counts the abort.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.metrics().streams_aborted == 0 {
            assert!(
                Instant::now() < deadline,
                "[{}] abort never observed: {:?}",
                case.name,
                server.metrics()
            );
            std::thread::sleep(Duration::from_millis(10));
        }

        // The lone worker is free again: a fresh request completes.
        let stats = HttpClient::new(server.addr)
            .request("GET", "/stats", None, &[])
            .unwrap();
        assert!(String::from_utf8_lossy(&stats).contains("cache_hits"));
        let m = server.metrics();
        assert_eq!(m.streams, 1, "[{}] {m:?}", case.name);
        assert_eq!(m.streams_aborted, 1, "[{}] {m:?}", case.name);
        server.stop();
    }
}
