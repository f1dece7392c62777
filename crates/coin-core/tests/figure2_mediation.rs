//! EX-F2: the paper's §3 worked example, end to end.
//!
//! Verifies the *shape* of the mediated query (three conflict-resolution
//! sub-queries with the paper's conditions and conversion expressions) and
//! the exact answer ⟨'NTT', 9 600 000⟩.

use coin_core::fixtures::figure2_system;
use coin_rel::Value;

const Q1: &str = "SELECT rl.cname, rl.revenue FROM r1 rl, r2 \
                  WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses";

#[test]
fn naive_answer_is_empty() {
    let sys = figure2_system();
    let (t, _) = sys.query_naive(Q1).unwrap();
    assert!(
        t.rows.is_empty(),
        "paper §3: the unmediated answer is empty"
    );
}

#[test]
fn mediated_query_has_three_branches() {
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    assert_eq!(
        mediated.query.branches().len(),
        3,
        "expected the paper's 3-way union, got:\n{}",
        mediated.query
    );
}

#[test]
fn branch_conditions_match_paper() {
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    let sql = mediated.query.to_string();

    // Branch with currency = 'JPY' must scale by 1000 and join the rate
    // source on fromCur/toCur.
    assert!(sql.contains("rl.currency = 'JPY'"), "{sql}");
    assert!(sql.contains("* 1000"), "{sql}");
    // Branch with currency = 'USD' is the no-conflict case.
    assert!(sql.contains("rl.currency = 'USD'"), "{sql}");
    // The catch-all branch has both disequalities.
    assert!(sql.contains("rl.currency <> 'JPY'"), "{sql}");
    assert!(sql.contains("rl.currency <> 'USD'"), "{sql}");
    // Currency conversion joins the ancillary relation.
    assert!(sql.contains("r3.toCur = 'USD'"), "{sql}");
    assert!(sql.contains("r3.fromCur"), "{sql}");
    assert!(sql.contains("r3.rate"), "{sql}");
}

#[test]
fn usd_branch_has_no_spurious_conversion() {
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    // Find the USD (no-conflict) branch: it must select bare rl.revenue and
    // not join r3.
    let usd_branch = mediated
        .branches
        .iter()
        .find(|b| b.select.to_string().contains("rl.currency = 'USD'"))
        .expect("USD branch present");
    let printed = usd_branch.select.to_string();
    assert!(
        !printed.contains("r3"),
        "no rate join in the identity case: {printed}"
    );
    assert!(
        !printed.contains("* 1000"),
        "no scaling in the identity case: {printed}"
    );
    // Implied disequality was simplified away (paper branch 1 shows only
    // currency = 'USD').
    assert!(
        !printed.contains("rl.currency <> 'JPY'"),
        "equality subsumes the disequality: {printed}"
    );
}

#[test]
fn jpy_branch_composition() {
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    let jpy = mediated
        .branches
        .iter()
        .find(|b| b.select.to_string().contains("rl.currency = 'JPY'"))
        .expect("JPY branch present");
    let printed = jpy.select.to_string();
    // Composition: scale then currency — revenue * 1000 * rate.
    assert!(
        printed.contains("rl.revenue * 1000 * r3.rate"),
        "conversion expression shape: {printed}"
    );
    // The comparison is also mediated.
    assert!(
        printed.contains("rl.revenue * 1000 * r3.rate > r2.expenses"),
        "mediated comparison: {printed}"
    );
}

#[test]
fn mediated_answer_is_ntt_9_6m() {
    let sys = figure2_system();
    let answer = sys.query(Q1, "c_recv").unwrap();
    assert_eq!(answer.table.rows.len(), 1, "exactly one tuple");
    assert_eq!(answer.table.rows[0][0], Value::str("NTT"));
    assert_eq!(answer.table.rows[0][1], Value::Float(9_600_000.0));
}

#[test]
fn mediated_query_roundtrips_through_parser() {
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    let printed = mediated.query.to_string();
    let reparsed = coin_sql::parse_query(&printed).unwrap();
    assert_eq!(reparsed, mediated.query);
}

#[test]
fn explanation_names_conflicts() {
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    let report = mediated.explain();
    assert!(report.contains("case 1"), "{report}");
    assert!(report.contains("currency"), "{report}");
}

#[test]
fn receiver_in_source2_context_gets_identity_for_r2() {
    // A receiver in source 2's own context (USD/1): r2 values need no
    // conversion, r1 still case-splits.
    let sys = figure2_system();
    let mediated = sys
        .mediate("SELECT r2.cname, r2.expenses FROM r2", "c_src2")
        .unwrap();
    assert_eq!(mediated.query.branches().len(), 1);
    assert_eq!(
        mediated.query.to_string(),
        "SELECT r2.cname, r2.expenses FROM r2"
    );
}

#[test]
fn selecting_r1_revenue_alone_yields_three_way_union() {
    let sys = figure2_system();
    let mediated = sys
        .mediate("SELECT r1.cname, r1.revenue FROM r1", "c_recv")
        .unwrap();
    assert_eq!(mediated.query.branches().len(), 3);
    let answer = sys
        .query("SELECT r1.cname, r1.revenue FROM r1", "c_recv")
        .unwrap();
    // IBM 100M USD (identity) + NTT 9.6M (converted).
    assert_eq!(answer.table.rows.len(), 2);
    let mut values: Vec<(String, f64)> = answer
        .table
        .rows
        .iter()
        .map(|r| {
            (
                match &r[0] {
                    Value::Str(s) => s.as_ref().to_owned(),
                    other => panic!("{other:?}"),
                },
                r[1].as_f64().unwrap(),
            )
        })
        .collect();
    values.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(values[0], ("IBM".into(), 100_000_000.0));
    assert_eq!(values[1], ("NTT".into(), 9_600_000.0));
}

#[test]
fn receiver_wanting_jpy_converts_the_other_way() {
    // Accessibility: a different receiver context (JPY, scale 1) over the
    // same sources — IBM's USD revenue must be multiplied by the USD→JPY
    // rate (104.0).
    let mut sys = figure2_system();
    sys.add_context(
        coin_core::ContextTheory::new("c_recv_jpy")
            .set(
                "companyFinancials",
                "currency",
                coin_core::ModifierSpec::constant("JPY"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                coin_core::ModifierSpec::constant(1i64),
            ),
    )
    .unwrap();
    let answer = sys
        .query("SELECT r1.cname, r1.revenue FROM r1", "c_recv_jpy")
        .unwrap();
    let mut rows = answer.table.rows.clone();
    rows.sort_by(|a, b| a[0].total_cmp(&b[0]));
    assert_eq!(rows[0][0], Value::str("IBM"));
    assert_eq!(rows[0][1].as_f64().unwrap(), 100_000_000.0 * 104.0);
    // NTT: JPY source data, scale 1000 → 1, currency already JPY.
    assert_eq!(rows[1][0], Value::str("NTT"));
    assert_eq!(rows[1][1].as_f64().unwrap(), 1_000_000_000.0);
}

#[test]
fn aggregation_above_mediated_core() {
    // Outer aggregation applies over receiver-context values.
    let sys = figure2_system();
    let answer = sys
        .query("SELECT SUM(r1.revenue) FROM r1", "c_recv")
        .unwrap();
    assert_eq!(answer.table.rows.len(), 1);
    assert_eq!(
        answer.table.rows[0][0].as_f64().unwrap(),
        100_000_000.0 + 9_600_000.0
    );
}

#[test]
fn order_and_limit_above_mediated_core() {
    let sys = figure2_system();
    let answer = sys
        .query(
            "SELECT r1.cname, r1.revenue FROM r1 ORDER BY r1.revenue DESC LIMIT 1",
            "c_recv",
        )
        .unwrap();
    assert_eq!(answer.table.rows.len(), 1);
    assert_eq!(answer.table.rows[0][0], Value::str("IBM"));
}

#[test]
fn unknown_receiver_context_is_error() {
    let sys = figure2_system();
    assert!(sys.mediate(Q1, "c_nonexistent").is_err());
}

#[test]
fn unregistered_relation_is_error() {
    let sys = figure2_system();
    assert!(sys
        .mediate("SELECT z.x FROM unknown_rel z WHERE z.x > 1", "c_recv")
        .is_err());
}

#[test]
fn disjunction_is_rejected_with_clear_error() {
    let sys = figure2_system();
    let e = sys
        .mediate(
            "SELECT r1.cname FROM r1 WHERE r1.currency = 'USD' OR r1.currency = 'JPY'",
            "c_recv",
        )
        .unwrap_err();
    assert!(e.to_string().contains("disjunction"), "{e}");
}

#[test]
fn statements_counted() {
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    assert!(
        mediated.statements > 5,
        "program statements: {}",
        mediated.statements
    );
    assert!(sys
        .mediation_program(Q1, "c_recv")
        .unwrap()
        .contains("mod_val"));
}
