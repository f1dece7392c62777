//! Floats JSON has no number for — an `inf` a web page prints, a product
//! that overflows — travel by name (`["f","inf"]`, `["f","-inf"]`,
//! `["f","NaN"]`) on every path: the `Json` tree, the materialised body and
//! the streamed one. A body is always parseable JSON, and decodes back to
//! the values the engine produced.

use std::sync::Arc;

use coin_core::fixtures::figure2_system;
use coin_core::CoinSystem;
use coin_rel::Value;
use coin_server::protocol::json_to_value;
use coin_server::{http, parse_json, start_server, table_to_json, value_to_json, Connection, Json};
use coin_wrapper::{SimWeb, WebSource, WrapperSpec};

/// Values compared by their debug text, so NaN matches NaN.
fn shown(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter().map(|r| format!("{r:?}")).collect()
}

fn decoded_rows(doc: &Json) -> Vec<Vec<Value>> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .expect("a rows field");
    (rows.iter())
        .map(|r| {
            (r.as_array().unwrap().iter())
                .map(|v| json_to_value(v).unwrap())
                .collect()
        })
        .collect()
}

/// Run naive `sql` on `system` over every path and check each answers
/// parseable JSON holding exactly `want`.
fn every_path_answers(system: CoinSystem, sql: &str, want: &[Vec<Value>]) {
    let (table, _) = system.query_naive(sql).unwrap();
    assert_eq!(shown(&table.rows), shown(want), "engine answer");

    let tree = table_to_json(&table).to_string();
    let doc = parse_json(&tree).unwrap_or_else(|e| panic!("{e}: {tree}"));
    assert_eq!(shown(&decoded_rows(&doc)), shown(want), "{tree}");

    let server = start_server(Arc::new(system), "127.0.0.1:0").unwrap();
    for stream in [false, true] {
        let request = Json::obj([
            ("sql", Json::str(sql)),
            ("mode", Json::str("naive")),
            ("stream", Json::Bool(stream)),
        ]);
        let body = http::post(
            &server.addr,
            "/query",
            "application/json",
            request.to_string().as_bytes(),
        )
        .unwrap();
        let body = String::from_utf8(body).unwrap();
        let doc = parse_json(&body).unwrap_or_else(|e| panic!("stream={stream}: {e}: {body}"));
        assert_eq!(
            shown(&decoded_rows(&doc)),
            shown(want),
            "stream={stream}: {body}"
        );
    }
    let client = Connection::open(server.addr, "c_recv");
    let rs = client.naive_statement().execute(sql).unwrap();
    assert_eq!(shown(&rs.rows), shown(want), "client");
    server.stop();
}

#[test]
fn non_finite_cells_of_a_web_page_reach_the_client() {
    // The wrapper parses a FLOAT cell with `str::parse`, which reads `inf`
    // and `NaN` as the page prints them.
    let web = SimWeb::new();
    web.mount_static(
        "http://quotes.example/all",
        "<table><tr><td>ONE</td><td>1.5</td></tr><tr><td>INF</td><td>inf</td></tr>\
         <tr><td>NEG</td><td>-inf</td></tr><tr><td>NAN</td><td>NaN</td></tr></table>",
    );
    let spec = WrapperSpec::parse(
        r#"
EXPORT quotes(sym STR, px FLOAT)
START all "http://quotes.example/all"
PAGE all MATCH MANY "<tr><td>(?P<sym>\w+)</td><td>(?P<px>[^<]+)</td></tr>"
"#,
    )
    .unwrap();
    let mut system = figure2_system();
    system
        .add_source(WebSource::new("quotes", spec, web))
        .unwrap();
    let row = |sym: &str, px: f64| vec![Value::str(sym), Value::Float(px)];
    every_path_answers(
        system,
        "SELECT q.sym, q.px FROM quotes q",
        &[
            row("ONE", 1.5),
            row("INF", f64::INFINITY),
            row("NEG", f64::NEG_INFINITY),
            row("NAN", f64::NAN),
        ],
    );
}

#[test]
fn an_overflowing_product_reaches_the_client() {
    // Float `*` overflows to infinity; infinity minus itself is NaN.
    let huge = "r1.revenue * 1e300 * 1e300";
    let sql = format!(
        "SELECT r1.cname, {huge}, 0 - {huge}, {huge} - {huge} FROM r1 WHERE r1.cname = 'NTT'"
    );
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    every_path_answers(
        figure2_system(),
        &sql,
        &[vec![
            Value::str("NTT"),
            Value::Float(inf),
            Value::Float(-inf),
            Value::Float(nan),
        ]],
    );
}

#[test]
fn non_finite_floats_have_stable_wire_names() {
    for (value, golden) in [
        (f64::INFINITY, r#"["f","inf"]"#),
        (f64::NEG_INFINITY, r#"["f","-inf"]"#),
        (f64::NAN, r#"["f","NaN"]"#),
    ] {
        assert_eq!(value_to_json(&Value::Float(value)).to_string(), golden);
        let back = json_to_value(&parse_json(golden).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{:?}", Value::Float(value)));
    }
    // Any other name is not a float.
    assert_eq!(
        json_to_value(&parse_json(r#"["f","infinity"]"#).unwrap()),
        None
    );
    // A bare number JSON cannot carry prints as null.
    for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        assert_eq!(Json::Num(n).to_string(), "null");
        assert_eq!(Json::Arr(vec![Json::Num(n)]).to_string(), "[null]");
    }
}
