//! Plan-time constant folding of WHERE conjuncts.
//!
//! Tautological conjuncts (`1 = 1`) disappear from the plan; blocks whose
//! WHERE clause is provably FALSE/NULL become *const-empty* plans that
//! stage empty tables and issue **zero** remote queries. Mixed
//! constant/columned predicates are left alone — a columned conjunct may
//! error per row, so the block must still evaluate row by row.

use coin_planner::{Dictionary, FetchStep, Planner};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_wrapper::RelationalSource;

fn dict_with_orders(n: i64) -> Dictionary {
    let orders = Table::from_rows(
        "orders",
        Schema::of(&[("oid", ColumnType::Int), ("amount", ColumnType::Int)]),
        (0..n)
            .map(|i| vec![Value::Int(i), Value::Int(i * 10)])
            .collect(),
    );
    let mut dict = Dictionary::new();
    dict.register_source(RelationalSource::new(
        "db",
        Catalog::new().with_table(orders),
    ))
    .unwrap();
    dict
}

#[test]
fn tautological_conjunct_vanishes_from_the_plan() {
    let planner = Planner::new(dict_with_orders(10));
    let q =
        coin_sql::parse_query("SELECT o.oid FROM orders o WHERE 1 = 1 AND o.amount > 40").unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    assert!(!plan.const_empty);
    let local = plan.local.to_string();
    assert!(
        !local.contains("1 = 1"),
        "TRUE conjunct must be folded away: {local}"
    );
    assert!(local.contains("amount"), "real predicate survives: {local}");
    // Same answer as without the tautology.
    let (t, _) = planner
        .run_sql("SELECT o.oid FROM orders o WHERE 1 = 1 AND o.amount > 40")
        .unwrap();
    assert_eq!(t.rows.len(), 5); // amounts 50..90
}

#[test]
fn where_only_tautologies_drops_the_whole_clause() {
    let planner = Planner::new(dict_with_orders(4));
    let q = coin_sql::parse_query("SELECT o.oid FROM orders o WHERE 1 = 1 AND 2 > 1").unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    assert!(!plan.const_empty);
    assert!(
        plan.local.where_clause.is_none(),
        "all-TRUE WHERE must vanish: {}",
        plan.local
    );
    let (t, _) = planner
        .run_sql("SELECT o.oid FROM orders o WHERE 1 = 1 AND 2 > 1")
        .unwrap();
    assert_eq!(t.rows.len(), 4);
}

#[test]
fn false_where_is_const_empty_and_fetches_nothing() {
    let planner = Planner::new(dict_with_orders(100));
    let q = coin_sql::parse_query("SELECT o.oid FROM orders o WHERE 1 = 0").unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    assert!(plan.const_empty, "1 = 0 must mark the plan const-empty");
    assert!(
        plan.explain().contains("const-empty"),
        "EXPLAIN advertises the short-circuit:\n{}",
        plan.explain()
    );
    let (t, stats) = planner
        .run_sql("SELECT o.oid FROM orders o WHERE 1 = 0")
        .unwrap();
    assert!(t.rows.is_empty());
    assert_eq!(stats.remote_queries, 0, "no source may be contacted");
    assert_eq!(stats.rows_shipped, 0);
    // The result still carries the projected schema.
    assert_eq!(t.schema.columns.len(), 1);
}

#[test]
fn null_comparison_where_is_const_empty() {
    // NULL = 1 folds to NULL, which fails the filter on every row.
    let planner = Planner::new(dict_with_orders(10));
    let q = coin_sql::parse_query("SELECT o.oid FROM orders o WHERE NULL = 1").unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    assert!(plan.const_empty);
    let (t, stats) = planner
        .run_sql("SELECT o.oid FROM orders o WHERE NULL = 1")
        .unwrap();
    assert!(t.rows.is_empty());
    assert_eq!(stats.remote_queries, 0);
}

#[test]
fn mixed_false_and_columned_conjuncts_stay_row_by_row() {
    // 1 = 0 AND amount > 40: conservative — the columned conjunct could
    // error per row, so the plan is NOT const-empty and the fetch happens.
    let planner = Planner::new(dict_with_orders(10));
    let q =
        coin_sql::parse_query("SELECT o.oid FROM orders o WHERE 1 = 0 AND o.amount > 40").unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    assert!(!plan.const_empty, "columned conjunct blocks const-empty");
    let (t, stats) = planner
        .run_sql("SELECT o.oid FROM orders o WHERE 1 = 0 AND o.amount > 40")
        .unwrap();
    assert!(t.rows.is_empty());
    assert!(stats.remote_queries > 0, "fetches still run");
}

#[test]
fn const_empty_join_stages_all_bindings_empty() {
    // Two tables, constant-FALSE WHERE: both fetch steps are skipped and
    // the join runs (trivially) over empty staged tables.
    let customers = Table::from_rows(
        "customers",
        Schema::of(&[("cid", ColumnType::Int), ("name", ColumnType::Str)]),
        vec![vec![Value::Int(1), Value::str("ada")]],
    );
    let mut dict = dict_with_orders(10);
    dict.register_source(RelationalSource::new(
        "crm",
        Catalog::new().with_table(customers),
    ))
    .unwrap();
    let planner = Planner::new(dict);
    let sql = "SELECT o.oid, c.name FROM orders o, customers c WHERE 2 < 1";
    let q = coin_sql::parse_query(sql).unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    assert!(plan.const_empty);
    assert_eq!(plan.steps.len(), 2);
    let (t, stats) = planner.run_sql(sql).unwrap();
    assert!(t.rows.is_empty());
    assert_eq!(stats.remote_queries, 0);
    assert_eq!(t.schema.columns.len(), 2);
}

#[test]
fn first_execution_fills_the_plan_expression_program_cache() {
    // Planning lowers nothing; the first execution compiles the local
    // pipeline's predicate/projection programs into the plan-held cache,
    // and later executions reuse them: each expression is lowered once per
    // plan.
    let planner = Planner::new(dict_with_orders(10));
    let q =
        coin_sql::parse_query("SELECT o.oid + 1 FROM orders o WHERE o.amount > 40 AND o.oid < 9")
            .unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    assert_eq!(plan.programs.len(), 0, "planning lowered expressions");
    let (t, _) = coin_planner::execute_plan(&plan, &planner.dictionary).unwrap();
    assert_eq!(t.rows.len(), 4); // amounts 50..80 with oid < 9
    let lowered = plan.programs.len();
    assert!(lowered > 0, "the first execution cached no programs");
    // A second execution must not add entries — everything was lowered.
    let (t, _) = coin_planner::execute_plan(&plan, &planner.dictionary).unwrap();
    assert_eq!(t.rows.len(), 4);
    assert_eq!(
        plan.programs.len(),
        lowered,
        "a second execution recompiled expressions the plan had cached"
    );
}

#[test]
fn fetch_steps_unaffected_by_folding() {
    // Folding rewrites only the WHERE clause; pushdown and decomposition
    // still see the remaining conjuncts.
    let planner = Planner::new(dict_with_orders(10));
    let q =
        coin_sql::parse_query("SELECT o.oid FROM orders o WHERE 1 = 1 AND o.amount = 30").unwrap();
    let plan = planner.plan_select(q.branches()[0]).unwrap();
    match &plan.steps[0] {
        FetchStep::Independent { remote, .. } => {
            let r = remote.to_string();
            assert!(r.contains("amount"), "pushdown survives folding: {r}");
            assert!(!r.contains("1 = 1"), "tautology must not be pushed: {r}");
        }
        other => panic!("{other:?}"),
    }
}
