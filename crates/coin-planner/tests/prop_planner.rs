//! Differential testing of the multi-database access engine: distributing
//! tables across sources must never change query semantics. Every generated
//! query is executed (a) through the planner over two autonomous sources
//! and (b) directly by the local engine over a merged catalog; results must
//! match as multisets.

use coin_planner::{Dictionary, Planner};
use coin_rel::tempstore::cmp_rows;
use coin_rel::{Catalog, ColumnType, Row, Schema, Table, Value};
use coin_wrapper::{Capabilities, RelationalSource};
use proptest::prelude::*;

fn table(name: &str, rows: &[(i64, i64)]) -> Table {
    Table::from_rows(
        name,
        Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        rows.iter()
            .map(|(k, v)| vec![Value::Int(*k), Value::Int(*v)])
            .collect(),
    )
}

/// Join keys: three that occur and one that may not; a literal may name it.
const KEYS: [&str; 4] = ["a", "b", "c", "z"];

/// `name(k STR, f BOOL, v INT)` from (key index, flag, v): key index 3 and
/// flag 2 stand for NULL.
fn keyed_table(name: &str, rows: &[(usize, u8, i64)]) -> Table {
    Table::from_rows(
        name,
        Schema::of(&[
            ("k", ColumnType::Str),
            ("f", ColumnType::Bool),
            ("v", ColumnType::Int),
        ]),
        rows.iter()
            .map(|&(k, f, v)| {
                vec![
                    if k < 3 {
                        Value::str(KEYS[k])
                    } else {
                        Value::Null
                    },
                    if f < 2 {
                        Value::Bool(f == 1)
                    } else {
                        Value::Null
                    },
                    Value::Int(v),
                ]
            })
            .collect(),
    )
}

fn key_rows() -> impl Strategy<Value = Vec<(usize, u8, i64)>> {
    prop::collection::vec((0usize..4, 0u8..3, -20i64..20), 0..10)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    let width = rows.first().map_or(0, Vec::len);
    let key: Vec<(usize, bool)> = (0..width).map(|i| (i, false)).collect();
    rows.sort_by(|a, b| cmp_rows(a, b, &key));
    rows
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        // CI determinism: never read or write regression files.
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Cross-source equi-join + filters == local execution, whether the
    /// sources evaluate pushed predicates or not.
    #[test]
    fn distributed_equals_local(
        ta in prop::collection::vec((0i64..8, -50i64..50), 0..14),
        tb in prop::collection::vec((0i64..8, -50i64..50), 0..14),
        threshold in -50i64..50,
        capable in any::<bool>(),
    ) {
        let t1 = table("t1", &ta);
        let t2 = table("t2", &tb);

        // Distributed: one table per source.
        let caps = Capabilities {
            pushdown_select: capable,
            ..Capabilities::default()
        };
        let mut dict = Dictionary::new();
        dict.register_source(
            RelationalSource::new("alpha", Catalog::new().with_table(t1.clone()))
                .with_capabilities(caps.clone()),
        ).unwrap();
        dict.register_source(
            RelationalSource::new("beta", Catalog::new().with_table(t2.clone()))
                .with_capabilities(caps),
        ).unwrap();
        let planner = Planner::new(dict);

        // Local: both tables in one catalog.
        let local = Catalog::new().with_table(t1).with_table(t2);

        for sql in [
            format!("SELECT a.k, a.v, b.v FROM t1 a, t2 b WHERE a.k = b.k AND a.v > {threshold}"),
            format!("SELECT a.v FROM t1 a WHERE a.v <= {threshold}"),
            "SELECT a.k, b.k FROM t1 a, t2 b WHERE a.v = b.v".to_string(),
            "SELECT COUNT(*), SUM(a.v) FROM t1 a, t2 b WHERE a.k = b.k".to_string(),
            format!("SELECT a.k FROM t1 a, t2 b WHERE a.k = b.k AND a.v > b.v AND b.v < {threshold}"),
            // No column of `a` is used: the fetch is `SELECT * FROM t1`.
            "SELECT COUNT(*) FROM t1 a".to_string(),
        ] {
            let (dist, _) = planner.run_sql(&sql).unwrap();
            let loc = coin_rel::execute_sql(&sql, &local).unwrap();
            prop_assert_eq!(
                sorted(dist.rows.clone()),
                sorted(loc.rows.clone()),
                "query {} (capable={})", sql, capable
            );
        }
    }

    /// Three-way joins across three sources.
    #[test]
    fn three_source_join_equals_local(
        ta in prop::collection::vec((0i64..5, 0i64..20), 1..8),
        tb in prop::collection::vec((0i64..5, 0i64..20), 1..8),
        tc in prop::collection::vec((0i64..5, 0i64..20), 1..8),
    ) {
        let t1 = table("t1", &ta);
        let t2 = table("t2", &tb);
        let t3 = table("t3", &tc);
        let mut dict = Dictionary::new();
        for (name, t) in [("s1", t1.clone()), ("s2", t2.clone()), ("s3", t3.clone())] {
            dict.register_source(RelationalSource::new(name, Catalog::new().with_table(t)))
                .unwrap();
        }
        let planner = Planner::new(dict);
        let local = Catalog::new().with_table(t1).with_table(t2).with_table(t3);
        let sql = "SELECT a.k, c.v FROM t1 a, t2 b, t3 c \
                   WHERE a.k = b.k AND b.k = c.k";
        let (dist, stats) = planner.run_sql(sql).unwrap();
        let loc = coin_rel::execute_sql(sql, &local).unwrap();
        prop_assert_eq!(sorted(dist.rows), sorted(loc.rows));
        prop_assert_eq!(stats.remote_queries, 3);
    }

    /// Literal bindings derived through string- and boolean-keyed join
    /// equalities never change an answer, whether the source they reach can
    /// evaluate predicates, cannot, or insists the column is bound.
    #[test]
    fn derived_literal_bindings_equal_local(
        rows in (key_rows(), key_rows(), key_rows()),
        literals in (0usize..4, 0usize..4, any::<bool>(), -20i64..20),
        capable in any::<bool>(),
    ) {
        let (ta, tb, tc) = rows;
        let (lit, other, flag, threshold) = literals;
        let (lit, other) = (KEYS[lit], KEYS[other]);
        let (t1, t2, t3) = (keyed_table("t1", &ta), keyed_table("t2", &tb), keyed_table("t3", &tc));
        let restricted = |bound: &[&str]| Capabilities {
            pushdown_select: capable,
            bound_columns: [("t3".to_owned(), bound.iter().map(|c| c.to_string()).collect())]
                .into_iter()
                .collect(),
            ..Capabilities::default()
        };
        let mut dict = Dictionary::new();
        dict.register_source(RelationalSource::new("alpha", Catalog::new().with_table(t1.clone())))
            .unwrap();
        dict.register_source(
            RelationalSource::new("beta", Catalog::new().with_table(t2.clone()))
                .with_capabilities(restricted(&[])),
        )
        .unwrap();
        // gamma answers only when t3.k is bound, by a literal or per value.
        dict.register_source(
            RelationalSource::new("gamma", Catalog::new().with_table(t3.clone()))
                .with_capabilities(restricted(&["k"])),
        )
        .unwrap();
        let planner = Planner::new(dict);
        let local = Catalog::new().with_table(t1).with_table(t2).with_table(t3);

        for sql in [
            format!("SELECT a.k, a.v, b.v FROM t1 a, t2 b WHERE a.k = b.k AND b.k = '{lit}'"),
            format!("SELECT a.v, c.v FROM t1 a, t3 c WHERE c.k = a.k AND a.k = '{lit}'"),
            format!("SELECT a.v, c.v FROM t1 a, t3 c WHERE '{lit}' = a.k AND a.k = c.k AND a.v > {threshold}"),
            format!(
                "SELECT a.k, b.v, c.v FROM t1 a, t2 b, t3 c \
                 WHERE a.k = b.k AND c.k = b.k AND a.k = '{lit}' AND b.v > {threshold}"
            ),
            format!(
                "SELECT a.k, b.k, c.v FROM t1 a, t2 b, t3 c \
                 WHERE a.k = '{lit}' AND b.k = a.k AND b.k = '{other}' AND c.k = b.k"
            ),
            format!(
                "SELECT a.k, c.v FROM t1 a, t3 c \
                 WHERE c.k = a.k AND (a.k = '{lit}' OR a.v > {threshold})"
            ),
            format!("SELECT a.v, b.v FROM t1 a, t2 b WHERE a.f = b.f AND b.f = {flag} AND a.k = b.k"),
            format!(
                "SELECT COUNT(*), SUM(c.v) FROM t1 a, t2 b, t3 c \
                 WHERE a.f = {flag} AND b.f = a.f AND c.k = a.k AND a.k = '{lit}'"
            ),
        ] {
            let (dist, _) = planner.run_sql(&sql).unwrap();
            let loc = coin_rel::execute_sql(&sql, &local).unwrap();
            prop_assert_eq!(
                sorted(dist.rows.clone()),
                sorted(loc.rows.clone()),
                "query {} (capable={})", sql, capable
            );
        }
    }
}
