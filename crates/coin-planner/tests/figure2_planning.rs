//! Planning and executing over the paper's Figure-2 sources: decomposition,
//! pushdown, binding-pattern dependent access, fetch ordering.

mod support;

use std::sync::Arc;

use coin_planner::{execute_plan, FetchStep, PlanError, Planner};
use coin_rel::Value;
use coin_wrapper::Capabilities;

use support::{figure2_dictionary, Injected, Latency};

#[test]
fn cross_source_join() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let (t, stats) = p
        .run_sql("SELECT r1.cname, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname")
        .unwrap();
    assert_eq!(t.rows.len(), 2);
    assert_eq!(stats.remote_queries, 2);
}

#[test]
fn plan_explain_structure() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let q = coin_sql::parse_query(
        "SELECT r1.cname FROM r1, r2 WHERE r1.cname = r2.cname AND r1.currency = 'JPY'",
    )
    .unwrap();
    let plan = p.plan_select(q.branches()[0]).unwrap();
    let explain = plan.explain();
    assert!(explain.contains("worldscope"));
    assert!(explain.contains("disclosure"));
    assert!(explain.contains("currency = 'JPY'"), "{explain}");
}

#[test]
fn dependent_fetch_on_web_source() {
    // r3 requires fromCur/toCur bound; fromCur comes from r1.currency.
    let p = Planner::new(figure2_dictionary(|source| source));
    let (t, stats) = p
        .run_sql(
            "SELECT r1.cname, r3.rate FROM r1, r3 \
             WHERE r3.fromCur = r1.currency AND r3.toCur = 'USD'",
        )
        .unwrap();
    // IBM: USD→USD has no rate page (not mounted) → only NTT row.
    assert_eq!(t.rows.len(), 1);
    assert_eq!(t.rows[0][0], Value::str("NTT"));
    assert_eq!(t.rows[0][1], Value::Float(0.0096));
    // 1 fetch for r1 + 2 dependent fetches (USD, JPY distinct values).
    assert_eq!(stats.remote_queries, 3);
}

#[test]
fn unbound_web_parameter_is_planning_error() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let e = p.run_sql("SELECT r3.rate FROM r3").unwrap_err();
    assert!(matches!(e, PlanError::UnboundParameter { .. }));
}

#[test]
fn literal_bound_web_lookup_is_independent() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let q = coin_sql::parse_query(
        "SELECT r3.rate FROM r3 WHERE r3.fromCur = 'JPY' AND r3.toCur = 'USD'",
    )
    .unwrap();
    let plan = p.plan_select(q.branches()[0]).unwrap();
    assert!(matches!(plan.steps[0], FetchStep::Independent { .. }));
    let (t, _) = execute_plan(&plan, &p.dictionary).unwrap();
    assert_eq!(t.rows, vec![vec![Value::Float(0.0096)]]);
}

#[test]
fn mediated_union_executes_across_sources() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let (t, _) = p
        .run_sql(
            "SELECT r1.cname, r1.revenue FROM r1, r2 \
             WHERE r1.currency = 'USD' AND r1.cname = r2.cname AND r1.revenue > r2.expenses \
             UNION \
             SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3 \
             WHERE r1.currency = 'JPY' AND r1.cname = r2.cname \
             AND r3.fromCur = r1.currency AND r3.toCur = 'USD' \
             AND r1.revenue * 1000 * r3.rate > r2.expenses",
        )
        .unwrap();
    assert_eq!(t.rows.len(), 1);
    assert_eq!(t.rows[0][0], Value::str("NTT"));
    assert_eq!(t.rows[0][1], Value::Float(9_600_000.0));
}

#[test]
fn pushdown_reduces_shipped_rows() {
    let sql = "SELECT r1.cname FROM r1 WHERE r1.currency = 'JPY'";
    let with = Planner::new(figure2_dictionary(|source| source));
    let (_, s1) = with.run_sql(sql).unwrap();
    // The same sources, none of them able to evaluate a predicate.
    let without = Planner::new(figure2_dictionary(|source| {
        let caps = Capabilities {
            pushdown_select: false,
            ..source.capabilities().clone()
        };
        Arc::new(Injected::new(source, Latency::None).with_capabilities(caps))
    }));
    let (_, s2) = without.run_sql(sql).unwrap();
    assert!(s1.rows_shipped < s2.rows_shipped, "{s1:?} vs {s2:?}");
}

#[test]
fn reorder_puts_cheap_source_first() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let q = coin_sql::parse_query("SELECT r2.cname FROM r2, r1 WHERE r1.cname = r2.cname").unwrap();
    let plan = p.plan_select(q.branches()[0]).unwrap();
    // worldscope (latency 10) is cheaper than disclosure (latency 20):
    // the optimizer fetches r1 first even though the query lists r2.
    assert_eq!(plan.steps[0].source(), "worldscope");
}

#[test]
fn aggregation_over_multi_source_join() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let (t, _) = p
        .run_sql("SELECT COUNT(*), MAX(r2.expenses) FROM r1, r2 WHERE r1.cname = r2.cname")
        .unwrap();
    assert_eq!(t.rows, vec![vec![Value::Int(2), Value::Int(1_500_000_000)]]);
}

#[test]
fn projection_pushdown_narrow_fetch() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let q = coin_sql::parse_query("SELECT r1.cname FROM r1").unwrap();
    let plan = p.plan_select(q.branches()[0]).unwrap();
    match &plan.steps[0] {
        FetchStep::Independent { remote, .. } => {
            assert_eq!(remote.to_string(), "SELECT cname FROM r1");
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn source_qualified_tables() {
    let p = Planner::new(figure2_dictionary(|source| source));
    let (t, _) = p
        .run_sql("SELECT x.cname FROM worldscope.r1 x WHERE x.currency = 'USD'")
        .unwrap();
    assert_eq!(t.rows, vec![vec![Value::str("IBM")]]);
}

#[test]
fn a_rate_lookup_the_query_fixes_is_fetched_independently_and_explained() {
    // r1.currency = 'JPY' and r3.fromCur = r1.currency fix fromCur too: the
    // rate page is fetched once, without waiting for r1, and explain says
    // where the binding came from.
    let p = Planner::new(figure2_dictionary(|source| source));
    let sql = "SELECT r1.cname, r3.rate FROM r1, r3 \
               WHERE r1.currency = 'JPY' AND r3.fromCur = r1.currency AND r3.toCur = 'USD'";
    let q = coin_sql::parse_query(sql).unwrap();
    let plan = p.plan_select(q.branches()[0]).unwrap();
    let explain = plan.explain();
    assert!(
        explain.contains("\n  derived: r3.fromCur = 'JPY' (via r1.currency)\n"),
        "{explain}"
    );
    let r3 = plan.steps.iter().find(|s| s.binding() == "r3").unwrap();
    assert!(matches!(r3, FetchStep::Independent { .. }), "{explain}");
    assert_eq!(
        r3.remote().to_string(),
        "SELECT fromCur, rate, toCur FROM r3 WHERE toCur = 'USD' AND fromCur = 'JPY'"
    );
    // The local query is the query as written.
    assert!(!plan.local.to_string().contains("r3.fromCur = 'JPY'"));
    let (t, stats) = execute_plan(&plan, &p.dictionary).unwrap();
    assert_eq!(t.rows, vec![vec![Value::str("NTT"), Value::Float(0.0096)]]);
    assert_eq!(stats.remote_queries, 2);
    assert_eq!(stats.rows_shipped, 2);
}
