//! Deeply nested request bytes get an error reply and cannot abort the
//! server. The SQL parser and the JSON parser bound how deep their input
//! may nest, so neither can overflow a worker's stack, which would abort
//! the whole process rather than fail one request.

use std::sync::Arc;

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

#[test]
fn deeply_nested_requests_get_an_error_and_the_server_answers_the_next() {
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
    let bodies = [
        query(&parens, "naive"),
        query(&parens, "mediated"),
        query(&nots, "naive"),
        query(&nots, "mediated"),
        deep_json,
    ];
    let healthy = query("SELECT r1.cname FROM r1", "naive");
    for body in &bodies {
        let reply = post(&addr, body);
        let error = reply.get("error").and_then(Json::as_str);
        assert!(
            error.is_some_and(|e| e.contains("nested deeper than")),
            "{reply}"
        );
        let next = post(&addr, &healthy);
        assert_eq!(
            next.get("rows").and_then(Json::as_array).map(<[Json]>::len),
            Some(2),
            "{next}"
        );
    }
    server.stop();
}
