//! Equivalence of the allocation-lean hot-path operators against their
//! pre-optimization baselines: the same seeded inputs flow through the new
//! hash-based join/aggregate/distinct and the legacy implementations
//! (nested loop, string-keyed hash join, BTreeMap aggregation, pure
//! external-sort distinct), and the results must be identical multisets —
//! in fact identical sequences wherever both sides define an output order.
//! The row-ownership choices of the pipeline are held to the same standard:
//! a nested loop holding either side, a pruned scan against scan + project,
//! and a scan that moves its rows against one that clones them.

use std::sync::Arc;

use coin_rel::exec::{
    drain, AggFn, AggSpec, Aggregate, Distinct, HashJoin, NestedLoopJoin, Project, TableScan,
    ValuesScan,
};
use coin_rel::expr::CExpr;
use coin_rel::reference::{BTreeAggregate, StringKeyHashJoin};
use coin_rel::tempstore::cmp_rows;
use coin_rel::{execute_sql, Catalog, ColumnType, Row, Schema, Table, Value};
use coin_sql::BinOp;
use proptest::prelude::*;

/// Values drawn to force collisions: overlapping ints and int-valued
/// floats (`Int(2)` must key-match `Float(2.0)`), NULLs, short strings.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-4i64..4).prop_map(Value::Int),
        (-4i32..4).prop_map(|i| Value::Float(f64::from(i))),
        (-2i32..2).prop_map(|i| Value::Float(f64::from(i) + 0.5)),
        prop_oneof![Just(""), Just("a"), Just("ab"), Just("b")].prop_map(Value::str),
    ]
}

fn arb_rows(width: usize, max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(prop::collection::vec(arb_value(), width..=width), 0..max)
}

/// Rows whose second column is NULL or numeric — valid SUM/AVG input.
fn arb_agg_rows(max: usize) -> impl Strategy<Value = Vec<Row>> {
    let measure = prop_oneof![
        Just(Value::Null),
        (-20i64..20).prop_map(Value::Int),
        (-4i32..4).prop_map(|i| Value::Float(f64::from(i) + 0.25)),
    ];
    prop::collection::vec((arb_value(), measure), 0..max)
        .prop_map(|pairs| pairs.into_iter().map(|(k, v)| vec![k, v]).collect())
}

fn scan(rows: Vec<Row>) -> coin_rel::BoxOp {
    let schema = Schema::of(&[("a", ColumnType::Any), ("b", ColumnType::Any)]);
    Box::new(ValuesScan::new(schema, rows))
}

fn table(rows: Vec<Row>) -> Arc<Table> {
    let schema = Schema::of(&[("a", ColumnType::Any), ("b", ColumnType::Any)]);
    Arc::new(Table::from_rows("t", schema, rows))
}

fn table_scan(t: &Arc<Table>) -> coin_rel::BoxOp {
    Box::new(TableScan::new(Arc::clone(t), t.schema.clone()))
}

fn pruned_schema(columns: &[usize]) -> Schema {
    let names: Vec<String> = (0..columns.len()).map(|i| format!("c{i}")).collect();
    let cols: Vec<(&str, ColumnType)> = names
        .iter()
        .map(|n| (n.as_str(), ColumnType::Any))
        .collect();
    Schema::of(&cols)
}

/// Rows in a canonical order that tells apart values the row order ties
/// (`Int(2)` and `Float(2.0)`): equal results compare equal as sequences.
fn multiset(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_cached_key(|r| format!("{r:?}"));
    rows
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    let width = rows.first().map_or(0, Vec::len);
    let key: Vec<(usize, bool)> = (0..width).map(|i| (i, false)).collect();
    rows.sort_by(|a, b| cmp_rows(a, b, &key));
    rows
}

fn count_sum_specs() -> Vec<AggSpec> {
    vec![
        AggSpec {
            f: AggFn::CountStar,
            arg: None,
        },
        AggSpec {
            f: AggFn::Sum,
            arg: Some(CExpr::Col(1)),
        },
        AggSpec {
            f: AggFn::Min,
            arg: Some(CExpr::Col(1)),
        },
        AggSpec {
            f: AggFn::Max,
            arg: Some(CExpr::Col(1)),
        },
    ]
}

fn agg_schema() -> Schema {
    Schema::of(&[
        ("k", ColumnType::Any),
        ("n", ColumnType::Int),
        ("s", ColumnType::Any),
        ("lo", ColumnType::Any),
        ("hi", ColumnType::Any),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        // CI determinism: never read or write regression files.
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Direct-hash join == string-keyed hash join == nested loop with an
    /// `=` predicate, as multisets.
    #[test]
    fn hash_join_equals_both_baselines(l in arb_rows(2, 14), r in arb_rows(2, 14)) {
        let hj = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], None);
        let new = sorted(drain(Box::new(hj)).unwrap());

        let legacy = StringKeyHashJoin::new(
            scan(l.clone()), scan(r.clone()), vec![0], vec![0], None);
        let old = sorted(drain(Box::new(legacy)).unwrap());
        prop_assert_eq!(&new, &old);

        let pred = CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2)));
        let nl = NestedLoopJoin::new(scan(l), scan(r), Some(pred));
        let nested = sorted(drain(Box::new(nl)).unwrap());
        prop_assert_eq!(&new, &nested);
    }

    /// A nested loop holding its left input == one holding its right input
    /// == hash join, as multisets, with and without a residual.
    #[test]
    fn nested_loop_holding_either_side_equals_hash_join(
        l in arb_rows(2, 14), r in arb_rows(2, 14)
    ) {
        let eq = || Some(CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2))));
        let hj = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], None);
        let hashed = multiset(drain(Box::new(hj)).unwrap());
        let right = NestedLoopJoin::new(scan(l.clone()), scan(r.clone()), eq());
        let left = NestedLoopJoin::new(scan(l.clone()), scan(r.clone()), eq()).holding_left();
        prop_assert_eq!(&multiset(drain(Box::new(right)).unwrap()), &hashed);
        prop_assert_eq!(&multiset(drain(Box::new(left)).unwrap()), &hashed);

        // A cross product keeps its row count and `left ++ right` columns.
        let right = drain(Box::new(NestedLoopJoin::new(scan(l.clone()), scan(r.clone()), None)));
        let left = NestedLoopJoin::new(scan(l.clone()), scan(r.clone()), None).holding_left();
        let (right, left) = (multiset(right.unwrap()), multiset(drain(Box::new(left)).unwrap()));
        prop_assert_eq!(right.len(), l.len() * r.len());
        prop_assert_eq!(right, left);
    }

    /// A pruned scan == a full scan under a projection of the same columns,
    /// row for row, including reordered and repeated columns.
    #[test]
    fn pruned_scan_equals_scan_and_project(
        rows in arb_rows(2, 20), columns in prop::collection::vec(0usize..2, 1..5)
    ) {
        let t = table(rows);
        let schema = pruned_schema(&columns);
        let exprs = columns.iter().map(|&i| CExpr::Col(i)).collect();
        let projected = Project::new(table_scan(&t), exprs, schema.clone());
        let expected = drain(Box::new(projected)).unwrap();
        let pruned = TableScan::pruned(Arc::clone(&t), columns.clone(), schema.clone());
        prop_assert_eq!(&drain(Box::new(pruned)).unwrap(), &expected);
        // The same over rows the scan moves out of a table nobody else holds.
        let sole = Arc::new(Table::clone(&t));
        prop_assert_eq!(&drain(Box::new(TableScan::pruned(sole, columns, schema))).unwrap(), &expected);
    }

    /// A scan that moves its rows out == one that clones them. While a
    /// second handle exists the scan clones, the table is left intact, and
    /// a second scan still sees every row.
    #[test]
    fn moved_scan_equals_cloned_scan(rows in arb_rows(2, 20)) {
        let shared = table(rows.clone());
        let cloned = drain(table_scan(&shared)).unwrap();
        prop_assert_eq!(&cloned, &rows);
        prop_assert_eq!(&shared.rows, &rows);
        prop_assert_eq!(&drain(table_scan(&shared)).unwrap(), &rows);
        let moved = drain(table_scan(&table(rows.clone()))).unwrap();
        prop_assert_eq!(moved, cloned);
    }

    /// Two-column keys and a residual predicate.
    #[test]
    fn multi_key_join_with_residual(l in arb_rows(2, 14), r in arb_rows(2, 14)) {
        // Residual over the combined row: b (col 1) < b' (col 3) — any
        // non-trivial predicate exercises the post-match path.
        let residual = || Some(CExpr::Cmp(
            Box::new(CExpr::Col(1)), BinOp::Lt, Box::new(CExpr::Col(3))));
        let hj = HashJoin::new(
            scan(l.clone()), scan(r.clone()), vec![0, 1], vec![0, 1], residual());
        let new = sorted(drain(Box::new(hj)).unwrap());
        let legacy = StringKeyHashJoin::new(
            scan(l), scan(r), vec![0, 1], vec![0, 1], residual());
        let old = sorted(drain(Box::new(legacy)).unwrap());
        prop_assert_eq!(new, old);
    }

    /// Hash aggregation == BTreeMap aggregation, including output order
    /// (both sort group keys).
    #[test]
    fn hash_aggregate_equals_btree(rows in arb_agg_rows(30)) {
        let agg = Aggregate::new(
            scan(rows.clone()), vec![CExpr::Col(0)], count_sum_specs(), agg_schema());
        let new = drain(Box::new(agg)).unwrap();
        let legacy = BTreeAggregate::new(
            scan(rows), vec![CExpr::Col(0)], count_sum_specs(), agg_schema());
        let old = drain(Box::new(legacy)).unwrap();
        prop_assert_eq!(new, old);
    }

    /// Multi-column grouping (NULL groups with NULL, Int(2) with
    /// Float(2.0)) and global aggregation over possibly-empty inputs.
    #[test]
    fn grouping_variants_agree(rows in arb_agg_rows(30)) {
        // Two-column key.
        let schema = Schema::of(&[
            ("k1", ColumnType::Any), ("k2", ColumnType::Any), ("n", ColumnType::Int)]);
        let specs = || vec![AggSpec { f: AggFn::Count, arg: Some(CExpr::Col(1)) }];
        let agg = Aggregate::new(
            scan(rows.clone()), vec![CExpr::Col(0), CExpr::Col(1)], specs(), schema.clone());
        let new = drain(Box::new(agg)).unwrap();
        let legacy = BTreeAggregate::new(
            scan(rows.clone()), vec![CExpr::Col(0), CExpr::Col(1)], specs(), schema);
        let old = drain(Box::new(legacy)).unwrap();
        prop_assert_eq!(new, old);

        // Global (no GROUP BY): one row even over the empty input.
        let gschema = Schema::of(&[("n", ColumnType::Int)]);
        let agg = Aggregate::new(scan(rows.clone()), vec![], specs(), gschema.clone());
        let new = drain(Box::new(agg)).unwrap();
        let legacy = BTreeAggregate::new(scan(rows), vec![], specs(), gschema);
        let old = drain(Box::new(legacy)).unwrap();
        prop_assert_eq!(&new, &old);
        prop_assert_eq!(new.len(), 1);
    }

    /// Hash distinct == forced-sort distinct (the pre-PR path), including
    /// output order; and a mid-stream spill threshold changes nothing.
    #[test]
    fn hash_distinct_equals_sort_distinct(rows in arb_rows(2, 30), threshold in 0usize..8) {
        let hash = Distinct::new(scan(rows.clone()));
        let new = drain(Box::new(hash)).unwrap();
        let sort = Distinct::new(scan(rows.clone())).with_spill_threshold(0);
        let old = drain(Box::new(sort)).unwrap();
        prop_assert_eq!(&new, &old);

        // Any threshold — including ones that flip to the sort path midway
        // through the input — must produce the identical result.
        let mid = Distinct::new(scan(rows)).with_spill_threshold(threshold);
        let via_threshold = drain(Box::new(mid)).unwrap();
        prop_assert_eq!(&new, &via_threshold);
    }
}

// ---------------------------------------------------------------------------
// Spill-threshold boundary tests for the hash-distinct fallback
// ---------------------------------------------------------------------------

/// `n` rows with exactly `distinct` distinct values in column 0.
fn rows_with_distinct(n: usize, distinct: usize) -> Vec<Row> {
    (0..n)
        .map(|i| vec![Value::Int((i % distinct) as i64), Value::Int(0)])
        .collect()
}

fn run_distinct(rows: Vec<Row>, threshold: usize) -> (Vec<Row>, bool) {
    let mut d = Distinct::new(scan(rows)).with_spill_threshold(threshold);
    let mut out = Vec::new();
    while let Some(r) = d.next().unwrap() {
        out.push(r);
    }
    (out, d.spilled())
}

use coin_rel::exec::Operator;

#[test]
fn distinct_set_exactly_at_threshold_stays_in_memory() {
    // 8 distinct rows, threshold 8: the 8th insert fills the set to the
    // bound but never exceeds it — no fallback.
    let (out, spilled) = run_distinct(rows_with_distinct(64, 8), 8);
    assert_eq!(out.len(), 8);
    assert!(!spilled, "at-threshold set must not spill");
}

#[test]
fn one_past_threshold_falls_back_to_sort() {
    // 9 distinct rows, threshold 8: the 9th *new* row trips the fallback.
    let (out, spilled) = run_distinct(rows_with_distinct(64, 9), 8);
    assert_eq!(out.len(), 9);
    assert!(spilled, "crossing the threshold must fall back");
    // Same answer as the pure in-memory path.
    let (want, _) = run_distinct(rows_with_distinct(64, 9), usize::MAX);
    assert_eq!(out, want);
}

#[test]
fn duplicates_never_count_toward_threshold() {
    // 1000 input rows but only 4 distinct: far under threshold, no spill.
    let (out, spilled) = run_distinct(rows_with_distinct(1000, 4), 8);
    assert_eq!(out.len(), 4);
    assert!(!spilled);
}

#[test]
fn threshold_zero_is_the_pure_sort_path() {
    let (out, spilled) = run_distinct(rows_with_distinct(16, 5), 0);
    assert_eq!(out.len(), 5);
    assert!(spilled);
}

#[test]
fn output_is_sorted_in_both_modes() {
    let key: Vec<(usize, bool)> = vec![(0, false), (1, false)];
    for threshold in [0usize, 3, usize::MAX] {
        let (out, _) = run_distinct(rows_with_distinct(40, 7), threshold);
        for w in out.windows(2) {
            assert_ne!(
                cmp_rows(&w[0], &w[1], &key),
                std::cmp::Ordering::Greater,
                "unsorted output at threshold {threshold}"
            );
        }
    }
}

#[test]
fn spill_fallback_does_not_respill_the_dedup_set() {
    // Regression: the fallback used to re-push the already-deduplicated
    // set through the external sorter, re-sorting it and writing it to
    // disk a second time — spill accounting double-counted rows the hash
    // phase had already paid for. The set is now handed over as one
    // pre-sorted in-memory run, so only the *tail* of the input can reach
    // disk.
    let threshold = 50;
    let run_capacity = 64;
    let n = 1001; // 50 distinct head rows, 951-row tail after the trip
    let distinct = 100;
    let rows = rows_with_distinct(n, distinct);
    let tail = (n - threshold) as u64;

    let before = coin_rel::thread_spill_stats();
    let mut d = Distinct::new(scan(rows))
        .with_spill_threshold(threshold)
        .with_run_capacity(run_capacity);
    let mut out = Vec::new();
    while let Some(r) = d.next().unwrap() {
        out.push(r);
    }
    let delta = coin_rel::thread_spill_stats().since(&before);

    assert!(d.spilled(), "fallback path must run");
    assert_eq!(out.len(), distinct);
    assert!(delta.rows_spilled > 0, "tail must exercise the disk path");
    // The dedup set never hits disk: with the old double-push the head
    // would be spilled too and this bound would be exceeded.
    assert!(
        delta.rows_spilled <= tail,
        "spilled {} rows but the tail is only {tail} — the dedup set was re-spilled",
        delta.rows_spilled
    );
    // Same answer as the pure hash path.
    let (want, _) = run_distinct(rows_with_distinct(n, distinct), usize::MAX);
    assert_eq!(out, want);
}

/// `SELECT b, a, a` runs as a pruned scan and answers what the same
/// projection over a filtered (so unpruned) scan answers.
#[test]
fn engine_pruned_projection_reorders_and_repeats() {
    let rows: Vec<Row> = (0..5)
        .map(|i| vec![Value::Int(i), Value::str(&format!("s{i}"))])
        .collect();
    let catalog = Catalog::new().with_table(Table::from_rows(
        "t",
        Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Str)]),
        rows.clone(),
    ));
    let pruned = execute_sql("SELECT b, a, a AS c FROM t", &catalog).unwrap();
    let filtered = execute_sql("SELECT b, a, a AS c FROM t WHERE a >= 0", &catalog).unwrap();
    let expected: Vec<Row> = (rows.iter())
        .map(|r| vec![r[1].clone(), r[0].clone(), r[0].clone()])
        .collect();
    assert_eq!(pruned.rows, expected);
    assert_eq!(filtered.rows, expected);
    assert_eq!(pruned.schema, filtered.schema);
    assert_eq!(
        catalog.get("t").unwrap().rows,
        rows,
        "the catalog's table is intact"
    );
}
