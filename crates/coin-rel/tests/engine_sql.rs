//! End-to-end SQL tests for the per-source engine, including the paper's
//! Figure 2 fixtures executed naively (which must return the "incorrect"
//! empty answer — the motivation for mediation).

use std::sync::Arc;

use coin_rel::exec::{ValuesScan, CANCEL_CHECK_INTERVAL};
use coin_rel::{
    build_select_pipeline, drain, execute_sql, BoxOp, CancelToken, Catalog, ColumnType,
    EngineError, ExecError, Feeds, Schema, Table, Value, ValueError,
};
use coin_sql::Query;

/// The Figure 2 fixtures: r1 (mixed currencies), r2 (USD), r3 (rates).
fn figure2_catalog() -> Catalog {
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
            vec![Value::str("NTT"), Value::Int(1_000_000), Value::str("JPY")],
        ],
    );
    let r2 = Table::from_rows(
        "r2",
        Schema::of(&[("cname", ColumnType::Str), ("expenses", ColumnType::Int)]),
        vec![
            vec![Value::str("IBM"), Value::Int(1_500_000_000)],
            vec![Value::str("NTT"), Value::Int(5_000_000)],
        ],
    );
    let r3 = Table::from_rows(
        "r3",
        Schema::of(&[
            ("fromCur", ColumnType::Str),
            ("toCur", ColumnType::Str),
            ("rate", ColumnType::Float),
        ]),
        vec![
            vec![Value::str("JPY"), Value::str("USD"), Value::Float(0.0096)],
            vec![Value::str("USD"), Value::str("JPY"), Value::Float(104.0)],
        ],
    );
    Catalog::new().with_table(r1).with_table(r2).with_table(r3)
}

#[test]
fn naive_query_returns_empty_answer() {
    // Paper §3: executing Q1 without mediation yields the empty answer,
    // because NTT's revenue (1,000,000 in thousands of JPY) compares below
    // its expenses (5,000,000 USD) numerically.
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT r1.cname, r1.revenue FROM r1, r2 \
         WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses",
        &cat,
    )
    .unwrap();
    assert!(out.rows.is_empty());
}

#[test]
fn mediated_union_returns_correct_answer() {
    // Executing the paper's hand-written mediated query yields <NTT, 9.6M>.
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT r1.cname, r1.revenue FROM r1, r2 \
         WHERE r1.currency = 'USD' AND r1.cname = r2.cname AND r1.revenue > r2.expenses \
         UNION \
         SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3 \
         WHERE r1.currency = 'JPY' AND r1.cname = r2.cname \
           AND r3.fromCur = r1.currency AND r3.toCur = 'USD' \
           AND r1.revenue * 1000 * r3.rate > r2.expenses \
         UNION \
         SELECT r1.cname, r1.revenue * r3.rate FROM r1, r2, r3 \
         WHERE r1.currency <> 'USD' AND r1.currency <> 'JPY' \
           AND r3.fromCur = r1.currency AND r3.toCur = 'USD' \
           AND r1.cname = r2.cname AND r1.revenue * r3.rate > r2.expenses",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::str("NTT"));
    assert_eq!(out.rows[0][1], Value::Float(9_600_000.0));
}

#[test]
fn projection_and_alias() {
    let cat = figure2_catalog();
    let out = execute_sql("SELECT cname AS company FROM r2 ORDER BY cname", &cat).unwrap();
    assert_eq!(out.schema.names(), vec!["company"]);
    assert_eq!(out.rows[0][0], Value::str("IBM"));
}

#[test]
fn wildcard_expansion() {
    let cat = figure2_catalog();
    let out = execute_sql("SELECT * FROM r3", &cat).unwrap();
    assert_eq!(out.schema.len(), 3);
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn hash_join_path() {
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT r1.cname, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn cross_product_when_no_join_pred() {
    let cat = figure2_catalog();
    let out = execute_sql("SELECT r1.cname, r2.cname FROM r1, r2", &cat).unwrap();
    assert_eq!(out.rows.len(), 4);
}

#[test]
fn three_way_join_with_computed_predicate() {
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT r1.cname FROM r1, r2, r3 \
         WHERE r1.cname = r2.cname AND r3.fromCur = r1.currency AND r3.toCur = 'USD'",
        &cat,
    )
    .unwrap();
    // Only NTT's JPY row has a JPY→USD rate; IBM's USD row has none
    // (r3 has USD→JPY, not USD→USD).
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0][0], Value::str("NTT"));
}

#[test]
fn group_by_aggregates() {
    let mut cat = figure2_catalog();
    let sales = Table::from_rows(
        "sales",
        Schema::of(&[("region", ColumnType::Str), ("amount", ColumnType::Int)]),
        vec![
            vec![Value::str("east"), Value::Int(10)],
            vec![Value::str("west"), Value::Int(5)],
            vec![Value::str("east"), Value::Int(7)],
        ],
    );
    cat.add_table(sales);
    let out = execute_sql(
        "SELECT region, COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) \
         FROM sales GROUP BY region ORDER BY region",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows.len(), 2);
    assert_eq!(
        out.rows[0],
        vec![
            Value::str("east"),
            Value::Int(2),
            Value::Int(17),
            Value::Float(8.5),
            Value::Int(7),
            Value::Int(10)
        ]
    );
}

#[test]
fn having_filters_groups() {
    let mut cat = Catalog::new();
    cat.add_table(Table::from_rows(
        "sales",
        Schema::of(&[("region", ColumnType::Str), ("amount", ColumnType::Int)]),
        vec![
            vec![Value::str("east"), Value::Int(10)],
            vec![Value::str("west"), Value::Int(5)],
            vec![Value::str("east"), Value::Int(7)],
        ],
    ));
    let out = execute_sql(
        "SELECT region FROM sales GROUP BY region HAVING SUM(amount) > 10",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("east")]]);
}

#[test]
fn expression_over_aggregate() {
    let mut cat = Catalog::new();
    cat.add_table(Table::from_rows(
        "t",
        Schema::of(&[("g", ColumnType::Str), ("x", ColumnType::Int)]),
        vec![
            vec![Value::str("a"), Value::Int(2)],
            vec![Value::str("a"), Value::Int(4)],
        ],
    ));
    let out = execute_sql("SELECT g, SUM(x) * 10 FROM t GROUP BY g", &cat).unwrap();
    assert_eq!(out.rows[0][1], Value::Int(60));
}

#[test]
fn global_aggregate_without_group() {
    let cat = figure2_catalog();
    let out = execute_sql("SELECT COUNT(*), MAX(expenses) FROM r2", &cat).unwrap();
    assert_eq!(
        out.rows,
        vec![vec![Value::Int(2), Value::Int(1_500_000_000)]]
    );
}

#[test]
fn non_grouped_column_rejected() {
    let cat = figure2_catalog();
    let err = execute_sql("SELECT cname, SUM(expenses) FROM r2", &cat);
    assert!(err.is_err());
}

#[test]
fn distinct_on_projection() {
    let cat = figure2_catalog();
    let out = execute_sql("SELECT DISTINCT toCur FROM r3 ORDER BY toCur", &cat).unwrap();
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn union_dedups_union_all_keeps() {
    let cat = figure2_catalog();
    let dedup = execute_sql("SELECT cname FROM r2 UNION SELECT cname FROM r2", &cat).unwrap();
    assert_eq!(dedup.rows.len(), 2);
    let all = execute_sql("SELECT cname FROM r2 UNION ALL SELECT cname FROM r2", &cat).unwrap();
    assert_eq!(all.rows.len(), 4);
}

#[test]
fn order_by_desc_with_limit() {
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT cname, expenses FROM r2 ORDER BY expenses DESC LIMIT 1",
        &cat,
    )
    .unwrap();
    assert_eq!(
        out.rows,
        vec![vec![Value::str("IBM"), Value::Int(1_500_000_000)]]
    );
}

#[test]
fn self_join_with_aliases() {
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT a.fromCur, b.fromCur FROM r3 a, r3 b WHERE a.toCur = b.fromCur",
        &cat,
    )
    .unwrap();
    // JPY→USD joins USD→JPY and vice versa.
    assert_eq!(out.rows.len(), 2);
}

#[test]
fn case_in_projection() {
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT cname, CASE WHEN currency = 'JPY' THEN revenue * 1000 ELSE revenue END \
         FROM r1 ORDER BY cname",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows[0][1], Value::Int(100_000_000)); // IBM USD unscaled
    assert_eq!(out.rows[1][1], Value::Int(1_000_000_000)); // NTT JPY scaled
}

#[test]
fn unknown_table_is_error() {
    let cat = figure2_catalog();
    assert!(execute_sql("SELECT * FROM nothere", &cat).is_err());
}

#[test]
fn division_by_zero_is_runtime_error() {
    let cat = figure2_catalog();
    assert!(execute_sql("SELECT revenue / 0 FROM r1", &cat).is_err());
}

#[test]
fn in_and_between_filters() {
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT cname FROM r1 WHERE currency IN ('JPY', 'EUR') \
         AND revenue BETWEEN 1 AND 2000000",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("NTT")]]);
}

#[test]
fn like_filter() {
    let cat = figure2_catalog();
    let out = execute_sql("SELECT cname FROM r1 WHERE cname LIKE 'I%'", &cat).unwrap();
    assert_eq!(out.rows, vec![vec![Value::str("IBM")]]);
}

#[test]
fn join_on_syntax_equivalent_to_comma() {
    let cat = figure2_catalog();
    let a = execute_sql(
        "SELECT r1.cname FROM r1 JOIN r2 ON r1.cname = r2.cname",
        &cat,
    )
    .unwrap();
    let b = execute_sql(
        "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname",
        &cat,
    )
    .unwrap();
    assert_eq!(a.rows, b.rows);
}

#[test]
fn order_by_select_alias() {
    // ORDER BY on a projected alias (including computed expressions) sorts
    // after projection.
    let cat = figure2_catalog();
    let out = execute_sql(
        "SELECT cname, expenses / 1000 AS k_usd FROM r2 ORDER BY k_usd DESC",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows[0][0], Value::str("IBM"));
    assert_eq!(out.rows[1][0], Value::str("NTT"));
}

#[test]
fn order_by_unknown_name_is_error() {
    let cat = figure2_catalog();
    assert!(execute_sql("SELECT cname FROM r2 ORDER BY nonexistent", &cat).is_err());
}

fn int_table(name: &str, columns: &[&str], rows: &[&[i64]]) -> Table {
    let schema: Vec<(&str, ColumnType)> = columns.iter().map(|c| (*c, ColumnType::Int)).collect();
    let rows = (rows.iter())
        .map(|r| r.iter().map(|&i| Value::Int(i)).collect())
        .collect();
    Table::from_rows(name, Schema::of(&schema), rows)
}

#[test]
fn join_that_keeps_no_column_still_counts_its_pairs() {
    // Nothing above the join reads a column, so it emits empty rows.
    let cat = Catalog::new()
        .with_table(int_table("a", &["k"], &[&[1], &[1], &[2], &[3]]))
        .with_table(int_table("b", &["k"], &[&[1], &[2], &[2], &[4]]));
    let out = execute_sql("SELECT COUNT(*) FROM a, b WHERE a.k = b.k", &cat).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(4)]]);
    let out = execute_sql("SELECT COUNT(*) FROM a, b WHERE a.k < b.k", &cat).unwrap();
    assert_eq!(out.rows, vec![vec![Value::Int(8)]]);
}

#[test]
fn order_by_across_a_join_resolves_as_over_full_rows() {
    let cat = figure2_catalog();
    // An alias sorts after projection.
    let out = execute_sql(
        "SELECT r1.cname, r1.revenue * 2 AS dbl FROM r1, r2 \
         WHERE r1.cname = r2.cname ORDER BY dbl DESC",
        &cat,
    )
    .unwrap();
    assert_eq!(out.rows[0][0], Value::str("IBM"));
    assert_eq!(out.rows[1][0], Value::str("NTT"));
    // A source column nothing projects sorts before projection.
    let out = execute_sql(
        "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname ORDER BY r2.expenses",
        &cat,
    )
    .unwrap();
    assert_eq!(
        out.rows,
        vec![vec![Value::str("NTT")], vec![Value::str("IBM")]]
    );
    // A bare name that one source column answers to sorts by that column,
    // as it would over full-width rows, even though only the ORDER BY reads
    // it: `x` is `a.x` here, not the alias of `b.y`.
    let cat = Catalog::new()
        .with_table(int_table("a", &["k", "x"], &[&[1, 20], &[2, 10]]))
        .with_table(int_table("b", &["k", "y"], &[&[1, 1], &[2, 2]]));
    let out = execute_sql(
        "SELECT a.k, b.y AS x FROM a, b WHERE a.k = b.k ORDER BY x",
        &cat,
    )
    .unwrap();
    let want = vec![
        vec![Value::Int(2), Value::Int(2)],
        vec![Value::Int(1), Value::Int(1)],
    ];
    assert_eq!(out.rows, want);
}

#[test]
fn self_join_over_a_fed_table() {
    let schema = Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]);
    // The catalog entry only carries the fed table's schema.
    let catalog = Catalog::new().with_table(Table::new("t", schema.clone()));
    let rows = (1..=3).map(|i| vec![Value::Int(i), Value::Int(10 * i)]);
    let mut feeds = Feeds::new();
    let feed = ValuesScan::new(schema, rows.collect());
    feeds.insert("t".into(), Box::new(feed) as BoxOp);
    let Query::Select(s) =
        coin_sql::parse_query("SELECT a.y, b.x FROM t a, t b WHERE a.x < b.x").unwrap()
    else {
        unreachable!()
    };
    let (schema, op) = build_select_pipeline(&s, &catalog, feeds, None).unwrap();
    assert_eq!(schema.len(), 2);
    let mut got = drain(op).unwrap();
    got.sort_by_key(|r| format!("{r:?}"));
    let want: Vec<Vec<Value>> = [(10, 2), (10, 3), (20, 3)]
        .iter()
        .map(|&(y, x)| vec![Value::Int(y), Value::Int(x)])
        .collect();
    assert_eq!(got, want);
}

/// A feed that counts the rows pulled from it.
struct Pulled {
    rows: BoxOp,
    pulled: Arc<std::sync::atomic::AtomicUsize>,
}

impl coin_rel::Operator for Pulled {
    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn next(&mut self) -> Result<Option<coin_rel::Row>, ExecError> {
        let row = self.rows.next()?;
        self.pulled.fetch_add(
            usize::from(row.is_some()),
            std::sync::atomic::Ordering::SeqCst,
        );
        Ok(row)
    }
}

/// A one-row staged table joined to a 10,000-row feed, by a nested loop
/// and by a hash join, on either side: the join holds the staged row and
/// streams the feed, so the first result needs one row of the feed.
#[test]
fn a_join_holds_the_staged_side_and_streams_the_feed() {
    const FED: i64 = 10_000;
    let schema = Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]);
    let fed = Schema::of(&[
        ("k", ColumnType::Int),
        ("v", ColumnType::Int),
        ("z", ColumnType::Int),
    ]);
    let one = Table::from_rows("one", schema, vec![vec![Value::Int(0), Value::Int(-1)]]);
    let catalog = Catalog::new()
        .with_table(one)
        .with_table(Table::new("fed", fed.clone()));
    for sql in [
        "SELECT fed.k, one.v FROM one, fed WHERE one.v < fed.v",
        "SELECT fed.k, one.v FROM fed, one WHERE one.v < fed.v",
        "SELECT fed.k, one.v FROM one, fed WHERE one.k = fed.z",
        "SELECT fed.k, one.v FROM fed, one WHERE fed.z = one.k AND one.v < fed.v",
    ] {
        let pulled = Arc::default();
        let rows = (0..FED).map(|i| vec![Value::Int(i), Value::Int(i), Value::Int(0)]);
        let feed = Pulled {
            rows: Box::new(ValuesScan::new(fed.clone(), rows.collect())),
            pulled: Arc::clone(&pulled),
        };
        let mut feeds = Feeds::new();
        feeds.insert("fed".into(), Box::new(feed) as BoxOp);
        let Query::Select(s) = coin_sql::parse_query(sql).unwrap() else {
            unreachable!()
        };
        let (_, mut op) = build_select_pipeline(&s, &catalog, feeds, None).unwrap();
        let first = op.next().unwrap().expect("a first row");
        assert_eq!(first, vec![Value::Int(0), Value::Int(-1)], "{sql}");
        let seen = pulled.load(std::sync::atomic::Ordering::SeqCst);
        assert_eq!(seen, 1, "{sql}: {seen} feed rows pulled for the first row");
        assert_eq!(drain(op).unwrap().len() as i64, FED - 1, "{sql}");
        assert_eq!(pulled.load(std::sync::atomic::Ordering::SeqCst) as i64, FED);
    }
}

#[test]
fn join_predicate_runs_in_the_first_join_that_binds_its_tables() {
    let cat = figure2_catalog();
    // The division fails on every pair it sees. It reads r1 and r2, so it
    // runs in the join that brings in r2 and fails there, although no r3
    // row would have survived to a later step.
    let divides = "r1.revenue / (r2.expenses - r2.expenses) > 0";
    let sql = format!(
        "SELECT r1.cname FROM r1, r2, r3 \
         WHERE r1.cname = r2.cname AND {divides} AND r3.fromCur = 'none'"
    );
    match execute_sql(&sql, &cat) {
        Err(EngineError::Exec(ExecError::Value(ValueError::DivisionByZero))) => {}
        other => panic!("expected a division by zero, got {other:?}"),
    }
    // The same in a nested-loop join, with no equi-join conjunct.
    let sql = format!(
        "SELECT r1.cname FROM r1, r2, r3 \
         WHERE r1.cname <> r2.cname AND {divides} AND r3.fromCur = 'none'"
    );
    assert!(execute_sql(&sql, &cat).is_err());
    // A join that sees no pair evaluates nothing.
    let sql = format!(
        "SELECT r1.cname FROM r1, r2, r3 \
         WHERE r1.cname = r2.cname AND {divides} AND r2.cname = 'none'"
    );
    assert!(execute_sql(&sql, &cat).unwrap().rows.is_empty());
}

/// A one-row rate lookup and a `rows`-row table `a`, the shape of a mediated
/// scan: `FROM rates, a` with no equi-join between them.
fn rates_and_a(rows: i64) -> (Arc<Table>, Arc<Table>) {
    let rates = Table::from_rows(
        "rates",
        Schema::of(&[("rate", ColumnType::Float)]),
        vec![vec![Value::Float(0.5)]],
    );
    let a = Table::from_rows(
        "a",
        Schema::of(&[("cname", ColumnType::Str), ("amount", ColumnType::Int)]),
        (0..rows)
            .map(|i| vec![Value::str(&format!("c{i}")), Value::Int(i)])
            .collect(),
    );
    (Arc::new(rates), Arc::new(a))
}

fn catalog_of(tables: &[&Arc<Table>]) -> Catalog {
    let mut catalog = Catalog::new();
    for t in tables {
        catalog.add_shared(Arc::clone(t));
    }
    catalog
}

fn pipeline(sql: &str, catalog: &Catalog, cancel: Option<CancelToken>) -> BoxOp {
    let Query::Select(s) = coin_sql::parse_query(sql).unwrap() else {
        panic!("not a SELECT: {sql}");
    };
    build_select_pipeline(&s, catalog, Feeds::new(), cancel)
        .unwrap()
        .1
}

const CONVERT: &str = "SELECT a.cname, a.amount * rates.rate FROM rates, a";

#[test]
fn first_row_leaves_before_the_big_input_is_drained() {
    let (rates, a) = rates_and_a(100_000);
    let mut op = pipeline(CONVERT, &catalog_of(&[&rates, &a]), None);
    let first = op.next().unwrap().unwrap();
    assert_eq!(first, vec![Value::str("c0"), Value::Float(0.0)]);
    // The nested loop held the one-row side: it drained `rates` and dropped
    // that scan, while the scan of `a` is still open after one row (a held
    // `a` would have been drained, its scan dropped and every row copied).
    assert_eq!(Arc::strong_count(&rates), 1);
    assert_eq!(Arc::strong_count(&a), 2);
    let mut rows = 1;
    while op.next().unwrap().is_some() {
        rows += 1;
    }
    assert_eq!(rows, 100_000);
    assert_eq!(a.rows.len(), 100_000, "a shared table is cloned, not moved");
}

#[test]
fn cancel_after_the_first_row_stops_within_one_check_interval() {
    let (rates, a) = rates_and_a(100_000);
    let catalog = catalog_of(&[&rates, &a]);
    // The streamed side of the nested loop, and a pruned scan.
    for (sql, width) in [(CONVERT, 2), ("SELECT amount, cname, amount FROM a", 3)] {
        let token = CancelToken::new();
        let mut op = pipeline(sql, &catalog, Some(token.clone()));
        assert_eq!(op.schema().len(), width);
        assert!(op.next().unwrap().is_some());
        token.cancel();
        let mut after = 0;
        let err = loop {
            match op.next() {
                Ok(Some(_)) => after += 1,
                Ok(None) => panic!("{sql}: drained {after} rows after the cancel"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, ExecError::Cancelled), "{sql}: {err}");
        assert!(after <= CANCEL_CHECK_INTERVAL as usize, "{sql}: {after}");
    }
}
