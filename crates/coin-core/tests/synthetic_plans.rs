//! The plans of the benchmark's synthetic query shapes, pinned as text:
//! a converted scan (one source, one rate lookup), 2- and 3-source
//! threshold joins and the aggregate join. Their contexts are constant, so
//! each rate lookup carries its currency as a literal and no join equality
//! reaches a rate column: nothing is derived, and the plans are those the
//! planner printed before it derived literal bindings.

use coin_core::fixtures::synthetic_system;

fn explain(sql: &str) -> String {
    let system = synthetic_system(5, 4, 1);
    let prepared = system.prepare(sql, "c_recv").unwrap();
    prepared.plan().explain()
}

/// `lines`, each ended by a newline.
fn text(lines: &[&str]) -> String {
    lines.iter().map(|l| format!("{l}\n")).collect()
}

#[test]
fn converted_scan_plan_is_unchanged() {
    let sql = "SELECT a.cname, a.amount FROM fin1 a WHERE a.amount > 3.3137";
    assert_eq!(
        explain(sql),
        text(&[
            "PLAN (estimated cost 20.5)",
            "  step 0: fetch [rates] from source forex (est 1 rows, cost 10.1)",
            "    SELECT fromCur, rate, toCur FROM rates WHERE fromCur = 'JPY' AND toCur = 'USD'",
            "  step 1: fetch [a] from source src1 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin1",
            "  local: SELECT a.cname, a.amount * 1000 * rates.rate FROM rates, a WHERE rates.fromCur = 'JPY' AND rates.toCur = 'USD' AND a.amount * 1000 * rates.rate > 3.3137",
        ])
    );
}

#[test]
fn two_source_threshold_join_plan_is_unchanged() {
    let sql = "SELECT a.cname, a.amount, b.amount FROM fin2 a, fin0 b WHERE a.cname = b.cname AND a.amount > 70.3137";
    assert_eq!(
        explain(sql),
        text(&[
            "PLAN (estimated cost 30.9)",
            "  step 0: fetch [rates] from source forex (est 1 rows, cost 10.1)",
            "    SELECT fromCur, rate, toCur FROM rates WHERE fromCur = 'EUR' AND toCur = 'USD'",
            "  step 1: fetch [a] from source src2 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin2",
            "  step 2: fetch [b] from source src0 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin0",
            "  local: SELECT a.cname, a.amount * 1000000 * rates.rate, b.amount FROM rates, a, b WHERE a.cname = b.cname AND rates.fromCur = 'EUR' AND rates.toCur = 'USD' AND a.amount * 1000000 * rates.rate > 70.3137",
        ])
    );
}

#[test]
fn three_source_threshold_join_plan_is_unchanged() {
    let sql = "SELECT a.cname, a.amount, b.amount, c.amount FROM fin3 a, fin4 b, fin1 c WHERE a.cname = b.cname AND b.cname = c.cname AND a.amount > 65.3137";
    assert_eq!(
        explain(sql),
        text(&[
            "PLAN (estimated cost 61.5)",
            "  step 0: fetch [rates] from source forex (est 1 rows, cost 10.1)",
            "    SELECT fromCur, rate, toCur FROM rates WHERE fromCur = 'GBP' AND toCur = 'USD'",
            "  step 1: fetch [rates_2] from source forex (est 1 rows, cost 10.1)",
            "    SELECT fromCur, rate, toCur FROM rates WHERE fromCur = 'SGD' AND toCur = 'USD'",
            "  step 2: fetch [rates_3] from source forex (est 1 rows, cost 10.1)",
            "    SELECT fromCur, rate, toCur FROM rates WHERE fromCur = 'JPY' AND toCur = 'USD'",
            "  step 3: fetch [a] from source src3 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin3",
            "  step 4: fetch [b] from source src4 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin4",
            "  step 5: fetch [c] from source src1 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin1",
            "  local: SELECT a.cname, a.amount * rates.rate, b.amount * 1000 * rates_2.rate, c.amount * 1000 * rates_3.rate FROM rates, rates_2, rates_3, a, b, c WHERE a.cname = b.cname AND b.cname = c.cname AND rates.fromCur = 'GBP' AND rates.toCur = 'USD' AND rates_2.fromCur = 'SGD' AND rates_2.toCur = 'USD' AND rates_3.fromCur = 'JPY' AND rates_3.toCur = 'USD' AND a.amount * rates.rate > 65.3137",
        ])
    );
}

#[test]
fn aggregate_join_plan_is_unchanged() {
    let sql = "SELECT COUNT(*), SUM(a.amount) FROM fin1 a, fin2 b WHERE a.cname = b.cname AND a.amount < b.amount";
    assert_eq!(
        explain(sql),
        text(&[
            "PLAN (estimated cost 41.0)",
            "  step 0: fetch [rates] from source forex (est 1 rows, cost 10.1)",
            "    SELECT fromCur, rate, toCur FROM rates WHERE fromCur = 'JPY' AND toCur = 'USD'",
            "  step 1: fetch [rates_2] from source forex (est 1 rows, cost 10.1)",
            "    SELECT fromCur, rate, toCur FROM rates WHERE fromCur = 'EUR' AND toCur = 'USD'",
            "  step 2: fetch [a] from source src1 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin1",
            "  step 3: fetch [b] from source src2 (est 4 rows, cost 10.4)",
            "    SELECT amount, cname FROM fin2",
            "  local: SELECT a.amount * 1000 * rates.rate AS m0 FROM rates, rates_2, a, b WHERE a.cname = b.cname AND rates.fromCur = 'JPY' AND rates.toCur = 'USD' AND rates_2.fromCur = 'EUR' AND rates_2.toCur = 'USD' AND a.amount * 1000 * rates.rate < b.amount * 1000000 * rates_2.rate",
        ])
    );
}
