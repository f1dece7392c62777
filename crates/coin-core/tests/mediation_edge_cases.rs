//! Mediation edge cases beyond the Figure 2 scenario: self-joins,
//! desugared predicates, error paths, and conversion corner cases.

use coin_core::fixtures::figure2_system;
use coin_core::system::CoinSystem;
use coin_core::{ContextTheory, Conversion, Elevation, ModifierSpec};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_wrapper::RelationalSource;

#[test]
fn self_join_case_splits_each_binding_independently() {
    let sys = figure2_system();
    // Each binding of r1 gets its own symbolic column terms, so only the
    // binding whose financials are referenced case-splits.
    let mediated = sys
        .mediate(
            "SELECT a.revenue FROM r1 a, r1 b WHERE a.cname = b.cname",
            "c_recv",
        )
        .unwrap();
    assert_eq!(mediated.query.branches().len(), 3);
    let sql = mediated.query.to_string();
    assert!(sql.contains("a.currency"), "{sql}");
    assert!(!sql.contains("b.currency"), "b.revenue unused: {sql}");
}

#[test]
fn self_join_comparing_both_sides_splits_both() {
    let sys = figure2_system();
    let mediated = sys
        .mediate(
            "SELECT a.cname FROM r1 a, r1 b WHERE a.revenue > b.revenue",
            "c_recv",
        )
        .unwrap();
    // 3 cases for a × 3 cases for b = 9 branches.
    assert_eq!(mediated.query.branches().len(), 9);
}

#[test]
fn between_desugars_and_converts() {
    let sys = figure2_system();
    let mediated = sys
        .mediate(
            "SELECT r1.cname FROM r1 WHERE r1.revenue BETWEEN 1000000 AND 200000000",
            "c_recv",
        )
        .unwrap();
    let sql = mediated.query.to_string();
    // The JPY branch must apply the conversion to both bound comparisons.
    assert!(
        sql.contains("r1.revenue * 1000 * r3.rate >= 1000000"),
        "{sql}"
    );
    assert!(
        sql.contains("r1.revenue * 1000 * r3.rate <= 200000000"),
        "{sql}"
    );

    let answer = sys
        .query(
            "SELECT r1.cname FROM r1 WHERE r1.revenue BETWEEN 1000000 AND 200000000",
            "c_recv",
        )
        .unwrap();
    // IBM 100M ✓; NTT 9.6M ✓ — both within [1M, 200M] in receiver units.
    assert_eq!(answer.table.rows.len(), 2);
}

#[test]
fn literal_only_predicates_pass_through() {
    let sys = figure2_system();
    let answer = sys
        .query("SELECT r2.cname FROM r2 WHERE 1 < 2", "c_recv")
        .unwrap();
    assert_eq!(answer.table.rows.len(), 2);
    let none = sys
        .query("SELECT r2.cname FROM r2 WHERE 2 < 1", "c_recv")
        .unwrap();
    assert!(none.table.rows.is_empty());
}

#[test]
fn arithmetic_on_converted_columns_in_where() {
    // revenue / 2 > expenses: the conversion must wrap the column inside
    // the receiver's arithmetic.
    let sys = figure2_system();
    let mediated = sys
        .mediate(
            "SELECT r1.cname FROM r1, r2 \
             WHERE r1.cname = r2.cname AND r1.revenue / 2 > r2.expenses",
            "c_recv",
        )
        .unwrap();
    let sql = mediated.query.to_string();
    assert!(
        sql.contains("r1.revenue * 1000 * r3.rate / 2 > r2.expenses"),
        "{sql}"
    );
}

#[test]
fn missing_conversion_function_is_model_error() {
    // A system with a modifier but no registered conversion.
    let mut dm = coin_core::DomainModel::new();
    dm.add_type("weight", &["unit"]).unwrap();
    let mut sys = CoinSystem::new(dm);
    let t = Table::from_rows(
        "parts",
        Schema::of(&[("pid", ColumnType::Int), ("w", ColumnType::Int)]),
        vec![vec![Value::Int(1), Value::Int(10)]],
    );
    sys.add_source(RelationalSource::new("db", Catalog::new().with_table(t)))
        .unwrap();
    sys.add_context(ContextTheory::new("c_src").set(
        "weight",
        "unit",
        ModifierSpec::constant("kg"),
    ))
    .unwrap();
    sys.add_context(ContextTheory::new("c_recv").set(
        "weight",
        "unit",
        ModifierSpec::constant("lb"),
    ))
    .unwrap();
    sys.add_elevation(Elevation::new("parts", "c_src").column("w", "weight"))
        .unwrap();
    let err = sys
        .mediate("SELECT p.w FROM parts p", "c_recv")
        .unwrap_err();
    assert!(err.to_string().contains("conversion"), "{err}");
}

#[test]
fn ratio_conversion_between_constant_units() {
    // Same system, but with a ratio conversion registered and numeric
    // scale-like units.
    let mut dm = coin_core::DomainModel::new();
    dm.add_type("weight", &["unitFactor"]).unwrap();
    let mut sys = CoinSystem::new(dm);
    sys.add_conversion("unitFactor", Conversion::Ratio).unwrap();
    let t = Table::from_rows(
        "parts",
        Schema::of(&[("pid", ColumnType::Int), ("w", ColumnType::Int)]),
        vec![vec![Value::Int(1), Value::Int(10)]],
    );
    sys.add_source(RelationalSource::new("db", Catalog::new().with_table(t)))
        .unwrap();
    // Source reports in grams (factor 1), receiver wants kilograms
    // (factor 1000): value × 1/1000.
    sys.add_context(ContextTheory::new("c_src").set(
        "weight",
        "unitFactor",
        ModifierSpec::constant(1i64),
    ))
    .unwrap();
    sys.add_context(ContextTheory::new("c_recv").set(
        "weight",
        "unitFactor",
        ModifierSpec::constant(1000i64),
    ))
    .unwrap();
    sys.add_elevation(Elevation::new("parts", "c_src").column("w", "weight"))
        .unwrap();
    let answer = sys.query("SELECT p.w FROM parts p", "c_recv").unwrap();
    assert_eq!(answer.table.rows[0][0], Value::Float(0.01));
}

#[test]
fn projection_of_plain_columns_is_identity_single_branch() {
    let sys = figure2_system();
    let mediated = sys
        .mediate("SELECT r1.cname, r1.currency FROM r1", "c_recv")
        .unwrap();
    // cname (companyName, no modifiers) and currency (currencyType, no
    // modifiers): nothing to mediate.
    assert_eq!(mediated.query.branches().len(), 1);
    assert_eq!(
        mediated.query.to_string(),
        "SELECT r1.cname, r1.currency FROM r1"
    );
}

#[test]
fn constants_in_select_list() {
    let sys = figure2_system();
    let answer = sys.query("SELECT r2.cname, 42 FROM r2", "c_recv").unwrap();
    assert_eq!(answer.table.rows.len(), 2);
    assert!(answer.table.rows.iter().all(|r| r[1] == Value::Int(42)));
}

#[test]
fn arithmetic_of_two_converted_columns_in_select() {
    // SELECT r1.revenue + r1.revenue — conversion applied once, shared
    // hypotheses (the same case split must not multiply branches).
    let sys = figure2_system();
    let mediated = sys
        .mediate("SELECT r1.revenue + r1.revenue FROM r1", "c_recv")
        .unwrap();
    assert_eq!(mediated.query.branches().len(), 3);
    let answer = sys
        .query("SELECT r1.cname, r1.revenue + r1.revenue FROM r1", "c_recv")
        .unwrap();
    let ntt = answer
        .table
        .rows
        .iter()
        .find(|r| r[0] == Value::str("NTT"))
        .unwrap();
    assert_eq!(ntt[1].as_f64().unwrap(), 2.0 * 9_600_000.0);
}

#[test]
fn unmediated_relation_mixed_with_mediated_one() {
    // r3 has elevation axioms in receiver context (identity): joining it
    // explicitly in the receiver query must still work.
    let sys = figure2_system();
    let answer = sys
        .query(
            "SELECT r3.rate FROM r3 WHERE r3.fromCur = 'JPY' AND r3.toCur = 'USD'",
            "c_recv",
        )
        .unwrap();
    assert_eq!(answer.table.rows, vec![vec![Value::Float(0.0096)]]);
}

#[test]
fn negated_between_rejected() {
    let sys = figure2_system();
    assert!(sys
        .mediate(
            "SELECT r1.cname FROM r1 WHERE r1.revenue NOT BETWEEN 1 AND 2",
            "c_recv"
        )
        .is_err());
}

#[test]
fn like_in_where_rejected_with_clear_error() {
    let sys = figure2_system();
    let err = sys
        .mediate("SELECT r1.cname FROM r1 WHERE r1.cname LIKE 'N%'", "c_recv")
        .unwrap_err();
    assert!(err.to_string().contains("LIKE"), "{err}");
}

/// `SELECT a0.revenue, …, a6.revenue FROM r1 a0, …, r1 a6`: each `r1`
/// instance splits into three cases, so the union needs 3^7 branches, past
/// the mediator's answer limit. The answer must be whole (128 rows, as
/// naive execution returns) or a typed error naming the limit — never the
/// 64 rows a silently cut union returned.
#[test]
fn a_self_join_past_the_answer_limit_is_whole_or_an_error() {
    let sys = figure2_system();
    let k = 7;
    let items: Vec<String> = (0..k).map(|i| format!("a{i}.revenue")).collect();
    let from: Vec<String> = (0..k).map(|i| format!("r1 a{i}")).collect();
    let sql = format!("SELECT {} FROM {}", items.join(", "), from.join(", "));
    let (naive, _) = sys.query_naive(&sql).unwrap();
    assert_eq!(naive.rows.len(), 128);
    match sys.query(&sql, "c_recv") {
        Ok(answer) => assert_eq!(answer.table.rows.len(), 128),
        Err(e) => {
            let message = e.to_string();
            assert!(
                matches!(
                    e,
                    coin_core::CoinError::Mediation(coin_core::MediationError::Truncated(
                        coin_logic::SolverLimit::Answers(512)
                    ))
                ),
                "{message}"
            );
            assert!(message.contains("max_answers limit of 512"), "{message}");
        }
    }
}

/// The receiver's `r1` rows in US dollars, converted by hand from naive
/// execution: JPY amounts are in thousands (Figure 2's scale factor) at the
/// `r3` rate of 0.0096, USD amounts stand as they are.
fn by_hand_in_usd(sys: &CoinSystem, sql: &str) -> Vec<f64> {
    let (naive, _) = sys.query_naive(sql).unwrap();
    let mut out: Vec<f64> = (naive.rows.iter())
        .map(|row| match (&row[0], &row[1]) {
            (Value::Int(revenue), Value::Str(c)) if &**c == "USD" => *revenue as f64,
            (Value::Int(revenue), Value::Str(c)) if &**c == "JPY" => {
                *revenue as f64 * 1000.0 * 0.0096
            }
            other => panic!("unexpected naive row {other:?}"),
        })
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

/// A cross join repeats each `r1` row once per `r2` row, and the
/// receiver's query keeps those duplicates: the mediated cases must not
/// merge them, whether or not a conversion applied.
#[test]
fn mediated_branches_keep_the_receivers_duplicates() {
    let sys = figure2_system();
    let expected = by_hand_in_usd(&sys, "SELECT a0.revenue, a0.currency FROM r1 a0, r2 b");
    assert_eq!(expected.len(), 4);

    let answer = sys
        .query("SELECT a0.revenue FROM r1 a0, r2 b", "c_recv")
        .unwrap();
    let mut got: Vec<f64> = (answer.table.rows.iter())
        .map(|row| row[0].as_f64().unwrap())
        .collect();
    got.sort_by(f64::total_cmp);
    assert_eq!(got.len(), expected.len(), "{got:?}");
    for (g, e) in got.iter().zip(&expected) {
        assert!((g - e).abs() < 1e-6, "{got:?} against {expected:?}");
    }

    let sum = sys
        .query("SELECT SUM(a0.revenue) FROM r1 a0, r2 b", "c_recv")
        .unwrap();
    let total = sum.table.rows[0][0].as_f64().unwrap();
    assert!((total - 219_200_000.0).abs() < 1e-3, "SUM = {total}");
}

/// Each Figure-2 case fixes `currency` to a different value or excludes
/// the others', so the mediated cases are combined with `UNION ALL`, and
/// the explanation has no set semantics to explain.
#[test]
fn figure2_cases_are_combined_with_union_all() {
    let sys = figure2_system();
    for sql in [
        "SELECT r1.cname, r1.revenue FROM r1",
        "SELECT a.cname FROM r1 a, r1 b WHERE a.revenue > b.revenue",
    ] {
        let mediated = sys.mediate(sql, "c_recv").unwrap();
        assert!(mediated.query.branches().len() > 1, "{sql}");
        assert!(mediated.query.keeps_duplicates(), "{}", mediated.query);
        let explanation = mediated.explain();
        assert!(!explanation.contains("set semantics"), "{explanation}");
    }
}
