//! A non-ASCII string literal in a query's SQL reaches the sources as the
//! same text: mediation prints it unchanged, and it matches source data on
//! the naive and mediated paths, in process and over `/query` whether the
//! body is streamed or not.

use std::sync::Arc;

use coin_core::fixtures::figure2_system_with;
use coin_core::CoinSystem;
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_server::{http, parse_json, start_server, table_to_json, Json};
use coin_wrapper::{RelationalSource, SourceRef};

const NAME: &str = "Zürich Rück 日本";

/// Figure 2 with one more company in `r1`, reported in USD so no
/// conversion applies to it.
fn system() -> CoinSystem {
    figure2_system_with(|source: SourceRef| -> SourceRef {
        if source.name() != "worldscope" {
            return source;
        }
        let r1 = Table::from_rows(
            "r1",
            Schema::of(&[
                ("cname", ColumnType::Str),
                ("revenue", ColumnType::Int),
                ("currency", ColumnType::Str),
            ]),
            vec![
                vec![
                    Value::str("IBM"),
                    Value::Int(100_000_000),
                    Value::str("USD"),
                ],
                vec![Value::str(NAME), Value::Int(300), Value::str("USD")],
            ],
        );
        Arc::new(RelationalSource::new(
            "worldscope",
            Catalog::new().with_table(r1),
        ))
    })
}

fn sql() -> String {
    format!("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.cname = '{NAME}'")
}

/// POST `request` to `/query` and return the parsed body.
fn post(addr: &std::net::SocketAddr, request: &Json) -> Json {
    let body = http::post(
        addr,
        "/query",
        "application/json",
        request.to_string().as_bytes(),
    )
    .unwrap();
    let body = String::from_utf8(body).unwrap();
    parse_json(&body).unwrap_or_else(|e| panic!("{e}: {body}"))
}

#[test]
fn mediated_sql_keeps_the_literal() {
    let mediated = system().mediate(&sql(), "c_recv").unwrap();
    let text = mediated.sql_text();
    assert!(text.contains(&format!("'{NAME}'")), "{text}");
}

#[test]
fn the_literal_matches_source_data_on_every_path() {
    let sys = system();
    let (naive, _) = sys.query_naive(&sql()).unwrap();
    assert_eq!(naive.rows, vec![vec![Value::str(NAME), Value::Int(300)]]);
    let mediated = sys.query(&sql(), "c_recv").unwrap().table;
    assert_eq!(mediated.rows.len(), 1, "{:?}", mediated.rows);
    assert_eq!(mediated.rows[0][0], Value::str(NAME));

    let server = start_server(Arc::new(sys), "127.0.0.1:0").unwrap();
    for (mode, oracle) in [("naive", &naive), ("mediated", &mediated)] {
        let oracle = table_to_json(oracle);
        for stream in [true, false] {
            let doc = post(
                &server.addr,
                &Json::obj([
                    ("sql", Json::str(&sql())),
                    ("context", Json::str("c_recv")),
                    ("mode", Json::str(mode)),
                    ("stream", Json::Bool(stream)),
                ]),
            );
            for field in ["columns", "rows"] {
                assert_eq!(doc.get(field), oracle.get(field), "{mode} stream={stream}");
            }
        }
    }
    server.stop();
}
