//! EX-ARCH / EX-ACC: the full Figure 1 stack over real sockets — client →
//! HTTP → mediation services → planner → wrappers → sources.

use std::sync::Arc;

use coin_core::fixtures::figure2_system;
use coin_rel::Value;
use coin_server::{http, start_server, Connection};

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

fn start() -> (coin_server::ServerHandle, Connection) {
    let system = Arc::new(figure2_system());
    let server = start_server(system, "127.0.0.1:0").unwrap();
    let conn = Connection::open(server.addr, "c_recv");
    (server, conn)
}

#[test]
fn dictionary_over_http() {
    let (server, conn) = start();
    let tables = conn.dictionary().unwrap();
    let names: Vec<&str> = tables.iter().map(|t| t.table.as_str()).collect();
    assert!(names.contains(&"r1"));
    assert!(names.contains(&"r2"));
    assert!(names.contains(&"r3"));
    let r1 = tables.iter().find(|t| t.table == "r1").unwrap();
    assert_eq!(r1.columns.len(), 3);
    server.stop();
}

#[test]
fn mediated_query_over_odbc_style_api() {
    let (server, conn) = start();
    let rs = conn.statement().execute(Q1).unwrap();
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0][0], Value::str("NTT"));
    assert_eq!(rs.rows[0][1], Value::Float(9_600_000.0));
    let mediated = rs.mediated_sql.expect("mediated SQL travels back");
    assert!(mediated.contains("UNION"));
    server.stop();
}

#[test]
fn naive_query_returns_empty() {
    let (server, conn) = start();
    let rs = conn.naive_statement().execute(Q1).unwrap();
    assert!(rs.is_empty());
    server.stop();
}

#[test]
fn explain_mode() {
    let (server, conn) = start();
    let (mediated_sql, explanation) = conn.explain(Q1).unwrap();
    assert!(mediated_sql.contains("UNION"));
    assert!(explanation.contains("case 1"));
    server.stop();
}

#[test]
fn server_reports_sql_errors() {
    let (server, conn) = start();
    let err = conn.statement().execute("SELECT FROM nothing").unwrap_err();
    assert!(matches!(err, coin_server::ClientError::Server(_)), "{err}");
    server.stop();
}

#[test]
fn qbe_form_over_http() {
    let (server, _conn) = start();
    let body = http::get(&server.addr, "/qbe").unwrap();
    let html = String::from_utf8_lossy(&body);
    assert!(html.contains("Query-By-Example"));
    assert!(html.contains("r1"));
    // Submit the form.
    let resp = http::post(
        &server.addr,
        "/qbe",
        "application/x-www-form-urlencoded",
        b"table=r1&context=c_recv&show_cname=on&show_revenue=on",
    )
    .unwrap();
    let html = String::from_utf8_lossy(&resp);
    assert!(html.contains("IBM"), "{html}");
    assert!(html.contains("9600000"), "{html}");
    server.stop();
}

#[test]
fn accessibility_three_paths_agree() {
    // EX-ACC: the same query through (a) the in-process API, (b) the
    // ODBC-style HTTP API, and (c) QBE yields the same mediated SQL and
    // answer.
    let system = Arc::new(figure2_system());
    let in_process = system
        .query("SELECT r1.cname, r1.revenue FROM r1", "c_recv")
        .unwrap();

    let server = start_server(Arc::clone(&system), "127.0.0.1:0").unwrap();
    let conn = Connection::open(server.addr, "c_recv");
    let over_http = conn
        .statement()
        .execute("SELECT r1.cname, r1.revenue FROM r1")
        .unwrap();

    assert_eq!(
        over_http.mediated_sql.as_deref(),
        Some(in_process.mediated.query.to_string().as_str())
    );
    assert_eq!(over_http.rows.len(), in_process.table.rows.len());

    let qbe_resp = http::post(
        &server.addr,
        "/qbe",
        "application/x-www-form-urlencoded",
        b"table=r1&context=c_recv&show_cname=on&show_revenue=on",
    )
    .unwrap();
    let qbe_html = String::from_utf8_lossy(&qbe_resp);
    for row in &in_process.table.rows {
        let name = row[0].render();
        assert!(qbe_html.contains(&name), "QBE answer missing {name}");
    }
    server.stop();
}

#[test]
fn concurrent_clients() {
    let (server, _) = start();
    let addr = server.addr;
    let threads: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let conn = Connection::open(addr, "c_recv");
                let rs = conn.statement().execute(Q1).unwrap();
                assert_eq!(rs.len(), 1);
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    server.stop();
}

#[test]
fn query_cache_status_travels_over_http() {
    let (server, conn) = start();
    let cold = conn.statement().execute(Q1).unwrap();
    assert_eq!(cold.cache.as_deref(), Some("miss"));
    let warm = conn.statement().execute(Q1).unwrap();
    assert_eq!(warm.cache.as_deref(), Some("hit"));
    assert_eq!(warm.rows, cold.rows, "cache must not change answers");
    // Naive mode bypasses mediation entirely — no cache field.
    let naive = conn.naive_statement().execute(Q1).unwrap();
    assert_eq!(naive.cache, None);
    server.stop();
}

#[test]
fn stats_endpoint_reports_cumulative_counters() {
    let (server, conn) = start();
    let before = conn.server_stats().unwrap();
    assert_eq!(before.cache_hits, 0);
    assert_eq!(before.cache_misses, 0);
    assert!(before.cache_capacity > 0);
    assert!(before.epoch > 0, "figure-2 administration bumped the epoch");
    // Every registered source has a measured wait, zero before any fetch.
    let sources: Vec<&str> = before.source_wait_us.keys().map(String::as_str).collect();
    assert_eq!(sources, ["disclosure", "forex", "worldscope"]);
    assert!(before.source_wait_us.values().all(|us| *us == 0));

    conn.statement().execute(Q1).unwrap(); // miss
    conn.statement().execute(Q1).unwrap(); // hit
    conn.statement().execute(Q1).unwrap(); // hit

    let after = conn.server_stats().unwrap();
    assert_eq!(after.cache_misses, 1);
    assert_eq!(after.cache_hits, 2);
    assert_eq!(after.cache_entries, 1);
    assert_eq!(
        after.epoch, before.epoch,
        "queries must not mutate the model"
    );
    // In-process sources answer in microseconds: nothing worth overlapping.
    assert_eq!(after.source_wait_us.len(), 3);
    assert!(after.source_wait_us.values().all(|us| *us < 500));
    server.stop();
}
