//! Capability-record behaviour: sources that cannot evaluate predicates
//! remotely, restricted relational sources, and plan explanations.

use coin_planner::{Dictionary, FetchStep, Planner};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_wrapper::{Capabilities, CostParams, RelationalSource};

fn orders_table(n: i64) -> Table {
    Table::from_rows(
        "orders",
        Schema::of(&[("oid", ColumnType::Int), ("amount", ColumnType::Int)]),
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect(),
    )
}

/// A source modelled as unable to evaluate WHERE clauses (a bare file
/// dump, say): the planner must fetch everything and filter locally.
fn no_pushdown_source(n: i64) -> RelationalSource {
    RelationalSource::new("dump", Catalog::new().with_table(orders_table(n))).with_capabilities(
        Capabilities {
            pushdown_select: false,
            pushdown_join: false,
            bound_columns: Default::default(),
            cost: CostParams {
                latency: 5.0,
                per_tuple: 1.0,
            },
        },
    )
}

#[test]
fn non_pushdown_source_gets_bare_fetch() {
    let mut dict = Dictionary::new();
    dict.register_source(no_pushdown_source(50)).unwrap();
    let planner = Planner::new(dict);
    let q = coin_sql::parse_query("SELECT o.oid FROM orders o WHERE o.amount > 400").unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    match &plan.steps[0] {
        FetchStep::Independent { remote, .. } => {
            assert!(
                remote.where_clause.is_none(),
                "predicate must not be pushed to an incapable source: {remote}"
            );
        }
        other => panic!("{other:?}"),
    }
    // The filter still applies — locally.
    let (t, stats) = planner
        .run_sql("SELECT o.oid FROM orders o WHERE o.amount > 400")
        .unwrap();
    assert_eq!(t.rows.len(), 9); // amounts 410..490
    assert_eq!(stats.rows_shipped, 50, "all rows shipped, filtered locally");
}

#[test]
fn capable_source_receives_predicate() {
    let mut dict = Dictionary::new();
    dict.register_source(RelationalSource::new(
        "db",
        Catalog::new().with_table(orders_table(50)),
    ))
    .unwrap();
    let planner = Planner::new(dict);
    let (t, stats) = planner
        .run_sql("SELECT o.oid FROM orders o WHERE o.amount > 400")
        .unwrap();
    assert_eq!(t.rows.len(), 9);
    assert_eq!(stats.rows_shipped, 9, "only matching rows shipped");
}

#[test]
fn plan_explain_names_every_step() {
    let mut dict = Dictionary::new();
    dict.register_source(no_pushdown_source(10)).unwrap();
    dict.register_source(RelationalSource::new(
        "db",
        Catalog::new().with_table(Table::from_rows(
            "lookup",
            Schema::of(&[("oid", ColumnType::Int), ("tag", ColumnType::Str)]),
            vec![vec![Value::Int(1), Value::str("x")]],
        )),
    ))
    .unwrap();
    let planner = Planner::new(dict);
    let q =
        coin_sql::parse_query("SELECT o.oid, l.tag FROM orders o, lookup l WHERE o.oid = l.oid")
            .unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    let text = plan.explain();
    assert!(text.contains("dump"), "{text}");
    assert!(text.contains("db"), "{text}");
    assert!(text.contains("estimated cost"), "{text}");
    assert!(text.contains("local:"), "{text}");
}

#[test]
fn query_counts_tracked_per_source() {
    let mut dict = Dictionary::new();
    dict.register_source(RelationalSource::new(
        "db",
        Catalog::new().with_table(orders_table(5)),
    ))
    .unwrap();
    let planner = Planner::new(dict);
    planner.run_sql("SELECT o.oid FROM orders o").unwrap();
    planner.run_sql("SELECT o.oid FROM orders o").unwrap();
    let src = planner.dictionary.source("db").unwrap();
    assert_eq!(src.query_count(), 2);
}
