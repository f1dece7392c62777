//! A receiver's join across two sources that both need converting, under
//! an aggregate: the shape whose local pipeline joins the two fetches and
//! both conversion lookups (`rates` and `rates_2`). The mediated
//! answer must equal converting every source row by hand and joining the
//! results, on every execution path: materialized and streamed, with the
//! plan cache on and off.

use coin_core::fixtures::{synthetic_system, CURRENCIES};
use coin_core::{CacheStatus, CoinSystem};
use coin_rel::{Row, Value};

/// Source `1` of the synthetic fixture is JPY at scale 1000, source `3` is
/// GBP at scale 1: different currencies and scales, and close enough in
/// dollars that `a.amount < b.amount` keeps some pairs and drops others.
const A: usize = 1;
const B: usize = 3;

const SQL: &str = "SELECT COUNT(*), SUM(a.amount) FROM fin1 a, fin3 b \
                   WHERE a.cname = b.cname AND a.amount < b.amount";

/// Source `i`'s amount in the receiver's dollars, converted by hand.
fn to_usd(i: usize, amount: i64) -> f64 {
    let usd_rates = [1.0, 0.0096, 1.18, 1.64, 0.70];
    let scales = [1i64, 1000, 1_000_000];
    let currency = i % CURRENCIES.len();
    amount as f64 * scales[i % scales.len()] as f64 * usd_rates[currency]
}

/// Source `i`'s rows as stored, read without mediation.
fn raw(sys: &CoinSystem, i: usize) -> Vec<(String, i64)> {
    let (table, _) = sys
        .query_naive(&format!("SELECT f.cname, f.amount FROM fin{i} f"))
        .unwrap();
    (table.rows.iter())
        .map(|r| match (&r[0], &r[1]) {
            (Value::Str(name), Value::Int(amount)) => (name.as_ref().to_owned(), *amount),
            other => panic!("unexpected row {other:?}"),
        })
        .collect()
}

/// `(COUNT(*), SUM(a.amount))` computed by hand in dollars.
fn expected(sys: &CoinSystem) -> (i64, f64) {
    let (rows_a, rows_b) = (raw(sys, A), raw(sys, B));
    let (mut count, mut sum) = (0, 0.0);
    for (name_a, amount_a) in &rows_a {
        for (name_b, amount_b) in &rows_b {
            let (a, b) = (to_usd(A, *amount_a), to_usd(B, *amount_b));
            if name_a == name_b && a < b {
                count += 1;
                sum += a;
            }
        }
    }
    (count, sum)
}

fn assert_answer(rows: &[Row], (count, sum): (i64, f64), path: &str) {
    assert_eq!(rows.len(), 1, "{path}: {rows:?}");
    assert_eq!(rows[0][0], Value::Int(count), "{path}");
    let got = rows[0][1].as_f64().unwrap();
    assert!(
        (got - sum).abs() <= 1e-9 * sum.abs(),
        "{path}: {got} vs {sum}"
    );
}

#[test]
fn mediated_join_aggregate_equals_hand_conversion_on_every_path() {
    let sys = synthetic_system(4, 200, 17);
    let want = expected(&sys);
    assert!(
        want.0 > 0 && want.0 < 200,
        "the comparison must keep some pairs and drop others: {want:?}"
    );

    // Both sides are converted: each brings its own rate lookup.
    let mediated = sys.mediate(SQL, "c_recv").unwrap();
    assert_eq!(mediated.branches.len(), 1);
    let sql = mediated.sql_text();
    assert!(sql.contains("rates") && sql.contains("rates_2"), "{sql}");

    let first = sys.query(SQL, "c_recv").unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    assert_answer(&first.table.rows, want, "query (miss)");
    let second = sys.query(SQL, "c_recv").unwrap();
    assert_eq!(second.cache, CacheStatus::Hit);
    assert_answer(&second.table.rows, want, "query (hit)");

    let prepared = sys.prepare(SQL, "c_recv").unwrap();
    assert_answer(&prepared.execute(&sys).unwrap().table.rows, want, "execute");
    let streamed = prepared.execute_stream(&sys, None).unwrap().collect();
    assert_answer(&streamed.unwrap().table.rows, want, "execute_stream");
    let streamed = sys.query_stream(SQL, "c_recv", None).unwrap().collect();
    assert_answer(&streamed.unwrap().table.rows, want, "query_stream");

    sys.set_cache_capacity(0);
    let uncached = sys.query(SQL, "c_recv").unwrap();
    assert_eq!(uncached.cache, CacheStatus::Miss);
    assert_answer(&uncached.table.rows, want, "query (cache off)");
    let fresh = sys.prepare_uncached(SQL, "c_recv").unwrap();
    let streamed = fresh.execute_stream(&sys, None).unwrap().collect();
    assert_answer(
        &streamed.unwrap().table.rows,
        want,
        "execute_stream (cache off)",
    );
}
