//! Hostile request bytes fail or finish one request and cannot take the
//! server down. The SQL parser bounds how deep expressions nest and how
//! tall their trees grow, and the JSON parser how deep its input nests, so
//! no request can overflow a worker's stack, which would abort the whole
//! process rather than fail one request. Long but flat requests (a long
//! JSON string, a long `UNION`, a long `IN` list) cost time linear in their
//! length.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use coin_core::fixtures::figure2_system;
use coin_server::{http, parse_json, start_server, Json};

fn query(sql: &str, mode: &str) -> String {
    Json::obj([
        ("sql", Json::str(sql)),
        ("mode", Json::str(mode)),
        ("context", Json::str("c_recv")),
    ])
    .to_string()
}

/// POST `body` to `/query` on a new connection and parse the reply.
fn post(addr: &std::net::SocketAddr, body: &str) -> Json {
    let reply = http::post(addr, "/query", "application/json", body.as_bytes())
        .unwrap_or_else(|e| panic!("no reply: {e}"));
    let reply = String::from_utf8(reply).unwrap();
    parse_json(&reply).unwrap_or_else(|e| panic!("{e}: {reply}"))
}

/// The two tests run one at a time, so neither's requests slow the
/// other's timed ones.
static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn deeply_nested_requests_get_an_error_and_the_server_answers_the_next() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(Arc::new(figure2_system()), "127.0.0.1:0").unwrap();
    let addr = server.addr;
    let parens = format!(
        "SELECT r1.cname FROM r1 WHERE {}1 = 1{}",
        "(".repeat(1_000),
        ")".repeat(1_000)
    );
    let nots = format!(
        "SELECT r1.cname FROM r1 WHERE {}1 = 1",
        "NOT ".repeat(5_000)
    );
    let deep_json = format!(
        "{{\"ignored\":{}{},\"sql\":\"SELECT r1.cname FROM r1\",\"mode\":\"naive\"}}",
        "[".repeat(20_000),
        "]".repeat(20_000)
    );
    // Flat chains nest nothing, but make trees as tall as they are long.
    let and_chain = format!(
        "SELECT r1.cname FROM r1 WHERE {}",
        vec!["1 = 1"; 5_000].join(" AND ")
    );
    let plus_chain = format!(
        "SELECT r1.cname FROM r1 WHERE r1.revenue > {}",
        vec!["1"; 4_000].join(" + ")
    );
    // Nested about 15 deep, but the planner rebuilds it as one chain of
    // 16,384 conjuncts.
    let balanced = format!("SELECT r1.cname FROM r1 WHERE {}", balanced(16_384));
    let bodies = [
        (query(&parens, "naive"), "nested deeper than"),
        (query(&parens, "mediated"), "nested deeper than"),
        (query(&nots, "naive"), "nested deeper than"),
        (query(&nots, "mediated"), "nested deeper than"),
        (deep_json, "nested deeper than"),
        (query(&and_chain, "naive"), "levels tall"),
        (query(&and_chain, "mediated"), "levels tall"),
        (query(&plus_chain, "naive"), "levels tall"),
        (query(&plus_chain, "mediated"), "levels tall"),
        (query(&balanced, "naive"), "levels tall"),
        (query(&balanced, "mediated"), "levels tall"),
        // 900 KB, printed for the plan-cache key before mediation rejects
        // it: neither printing nor dropping it may recurse per branch.
        (
            query(&long_union(30_000), "mediated"),
            "single SELECT blocks",
        ),
    ];
    for (body, expected) in &bodies {
        let reply = post(&addr, body);
        let error = reply.get("error").and_then(Json::as_str);
        assert!(error.is_some_and(|e| e.contains(expected)), "{reply}");
        assert_healthy(&addr);
    }
    server.stop();
}

/// A conjunction of `n` column predicates, parenthesised as a balanced tree.
fn balanced(n: usize) -> String {
    match n {
        1 => "r1.revenue > 0".into(),
        _ => format!("({} AND {})", balanced(n / 2), balanced(n - n / 2)),
    }
}

/// `n` `UNION` branches, 30 bytes each.
fn long_union(n: usize) -> String {
    vec!["SELECT r1.cname FROM r1"; n].join(" UNION ")
}

/// A healthy request on a new connection gets its two rows.
fn assert_healthy(addr: &std::net::SocketAddr) {
    let next = post(addr, &query("SELECT r1.cname FROM r1", "naive"));
    assert_eq!(
        next.get("rows").and_then(Json::as_array).map(<[Json]>::len),
        Some(2),
        "{next}"
    );
}

/// Each long, flat request below is answered in well under this, even in
/// an unoptimised build; parsing the first in time quadratic in its length
/// took seconds.
const FLAT_BOUND: Duration = Duration::from_secs(2);

#[test]
fn long_flat_requests_are_answered_in_bounded_time() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let server = start_server(Arc::new(figure2_system()), "127.0.0.1:0").unwrap();
    let addr = server.addr;
    // 100,000 `IN` items, the last of them NTT's revenue.
    let items: Vec<String> = (0..100_000)
        .chain([1_000_000])
        .map(|i| i.to_string())
        .collect();
    let in_list = format!(
        "SELECT r1.cname FROM r1 WHERE r1.revenue IN ({})",
        items.join(", ")
    );
    for (sql, rows) in [(long_union(10_000), 2), (in_list, 1)] {
        let start = Instant::now();
        let reply = post(&addr, &query(&sql, "naive"));
        let took = start.elapsed();
        assert_eq!(
            reply
                .get("rows")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(rows),
            "{reply}"
        );
        assert!(took < FLAT_BOUND, "{} bytes took {took:?}", sql.len());
        assert_healthy(&addr);
    }
    server.stop();
}
