//! Equivalence of the allocation-lean hot-path operators against their
//! pre-optimization baselines: the same seeded inputs flow through the new
//! hash-based join/aggregate/distinct and the legacy implementations
//! (nested loop, string-keyed hash join, BTreeMap aggregation, pure
//! external-sort distinct), and the results must be identical multisets —
//! in fact identical sequences wherever both sides define an output order.
//! The row-ownership choices of the pipeline are held to the same standard:
//! a nested loop holding and a hash join building on either side, a pruned
//! scan against scan + project, and a scan that moves its rows against one
//! that clones them.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use coin_rel::exec::{
    drain, AggFn, AggSpec, Aggregate, Distinct, HashJoin, NestedLoopJoin, Project, TableScan,
    ValuesScan,
};
use coin_rel::expr::CExpr;
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

/// The pre-optimization hash join, kept as an oracle: a `HashMap` keyed by
/// a canonical string built for every build and probe row (numbers widened,
/// so `Int(2)` and `Float(2.0)` share a key), and the residual evaluated by
/// the tree walker over each concatenated pair.
fn string_key_hash_join(
    left: Vec<Row>,
    right: Vec<Row>,
    keys: (&[usize], &[usize]),
    residual: Option<CExpr>,
) -> Vec<Row> {
    fn string_key(row: &Row, keys: &[usize]) -> Option<String> {
        let mut s = String::new();
        for &i in keys {
            match &row[i] {
                Value::Null => return None,
                Value::Bool(b) => s.push_str(if *b { "\u{1}T" } else { "\u{1}F" }),
                v if v.is_number() => s.push_str(&format!("\u{1}#{:?}", v.as_f64().unwrap())),
                Value::Str(t) => s.push_str(&format!("\u{1}S{t}")),
                _ => unreachable!("every value is one of the above"),
            }
        }
        Some(s)
    }
    let mut built: HashMap<String, Vec<Row>> = HashMap::new();
    for row in right {
        if let Some(k) = string_key(&row, keys.1) {
            built.entry(k).or_default().push(row);
        }
    }
    let mut out = Vec::new();
    for l in left {
        let Some(matches) = string_key(&l, keys.0).and_then(|k| built.get(&k)) else {
            continue;
        };
        for r in matches {
            let mut combined = l.clone();
            combined.extend(r.iter().cloned());
            if residual
                .as_ref()
                .is_none_or(|p| p.matches(&combined).unwrap())
            {
                out.push(combined);
            }
        }
    }
    out
}

/// `Vec<Value>` in `Value::total_cmp` order, as a `BTreeMap` group key.
#[derive(PartialEq)]
struct GroupKey(Vec<Value>);

impl Eq for GroupKey {}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.0.iter().zip(&other.0))
            .map(|(a, b)| a.total_cmp(b))
            .find(|o| o.is_ne())
            .unwrap_or(self.0.len().cmp(&other.0.len()))
    }
}

/// The pre-optimization aggregation, kept as an oracle: rows grouped in a
/// `BTreeMap` by their key evaluated with the tree-walking `CExpr::eval`,
/// and every aggregate folded by hand over its group ([`fold_group`]), so that
/// nothing but the value type is shared with [`Aggregate`]; with no GROUP
/// BY, one row even over no input.
fn btree_aggregate(rows: Vec<Row>, group_exprs: &[CExpr], specs: &[AggSpec]) -> Vec<Row> {
    let mut groups: BTreeMap<GroupKey, Vec<Row>> = BTreeMap::new();
    for row in rows {
        let key = group_exprs.iter().map(|e| e.eval(&row).unwrap());
        groups.entry(GroupKey(key.collect())).or_default().push(row);
    }
    if groups.is_empty() && group_exprs.is_empty() {
        groups.insert(GroupKey(Vec::new()), Vec::new());
    }
    (groups.into_iter())
        .map(|(key, rows)| {
            let mut row = key.0;
            row.extend(specs.iter().map(|spec| fold_group(spec, &rows)));
            row
        })
        .collect()
}

/// One aggregate over one group, by its SQL definition: COUNT(*) counts
/// rows and every other aggregate skips NULL arguments; COUNT of none is 0
/// and the others NULL; SUM is an integer while every argument is one;
/// MIN and MAX keep the first of equal values.
fn fold_group(spec: &AggSpec, rows: &[Row]) -> Value {
    let args: Vec<Value> = match &spec.arg {
        None => Vec::new(),
        Some(e) => (rows.iter())
            .map(|row| e.eval(row).unwrap())
            .filter(|v| !v.is_null())
            .collect(),
    };
    let ints: Option<Vec<i64>> = (args.iter())
        .map(|v| match v {
            Value::Int(i) => Some(*i),
            _ => None,
        })
        .collect();
    let float_sum = || args.iter().fold(0.0, |s, v| s + v.as_f64().unwrap());
    let extreme = |keep: std::cmp::Ordering| {
        (args.iter().cloned())
            .reduce(|best, v| if v.total_cmp(&best) == keep { v } else { best })
            .unwrap_or(Value::Null)
    };
    match spec.f {
        AggFn::CountStar => Value::Int(rows.len() as i64),
        AggFn::Count => Value::Int(args.len() as i64),
        _ if args.is_empty() => Value::Null,
        AggFn::Sum => match ints {
            Some(ints) => Value::Int(ints.iter().sum()),
            None => Value::Float(float_sum()),
        },
        AggFn::Avg => Value::Float(float_sum() / args.len() as f64),
        AggFn::Min => extreme(std::cmp::Ordering::Less),
        AggFn::Max => extreme(std::cmp::Ordering::Greater),
    }
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

        let old = sorted(string_key_hash_join(l.clone(), r.clone(), (&[0], &[0]), None));
        prop_assert_eq!(&new, &old);

        let pred = CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2)));
        let nl = NestedLoopJoin::new(scan(l), scan(r), Some(pred));
        let nested = sorted(drain(Box::new(nl)).unwrap());
        prop_assert_eq!(&new, &nested);
    }

    /// A hash join building on its left input == one building on its right
    /// input, as multisets, with and without a residual.
    #[test]
    fn hash_join_building_either_side_agrees(l in arb_rows(2, 14), r in arb_rows(2, 14)) {
        let residual = || Some(CExpr::Cmp(
            Box::new(CExpr::Col(1)), BinOp::Lt, Box::new(CExpr::Col(3))));
        for pred in [None, residual()] {
            let right = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], pred.clone());
            let left = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], pred)
                .building_left();
            prop_assert_eq!(
                multiset(drain(Box::new(right)).unwrap()),
                multiset(drain(Box::new(left)).unwrap())
            );
        }
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
        let old = sorted(string_key_hash_join(l, r, (&[0, 1], &[0, 1]), residual()));
        prop_assert_eq!(new, old);
    }

    /// Hash aggregation == BTreeMap aggregation, including output order
    /// (both sort group keys).
    #[test]
    fn hash_aggregate_equals_btree(rows in arb_agg_rows(30)) {
        let agg = Aggregate::new(
            scan(rows.clone()), vec![CExpr::Col(0)], count_sum_specs(), agg_schema());
        let new = drain(Box::new(agg)).unwrap();
        let old = btree_aggregate(rows, &[CExpr::Col(0)], &count_sum_specs());
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
        let old = btree_aggregate(rows.clone(), &[CExpr::Col(0), CExpr::Col(1)], &specs());
        prop_assert_eq!(new, old);

        // Global (no GROUP BY): one row even over the empty input.
        let gschema = Schema::of(&[("n", ColumnType::Int)]);
        let agg = Aggregate::new(scan(rows.clone()), vec![], specs(), gschema.clone());
        let new = drain(Box::new(agg)).unwrap();
        let old = btree_aggregate(rows, &[], &specs());
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

// ---------------------------------------------------------------------------
// Multi-table SELECTs against a full-width oracle
// ---------------------------------------------------------------------------
//
// The engine places each conjunct on a scan or in the first join that binds
// its tables, and each join keeps only the columns read after it. The
// oracle does neither: it builds the cross product at full width, filters
// it with the whole WHERE through the tree-walking evaluator, and hands the
// survivors, as one table, to a single-table query for the projection or
// aggregate.

/// One conjunct over FROM positions `i`, `j`, `l`, with constant `c`.
#[derive(Debug, Clone)]
struct Conj {
    kind: u8,
    i: usize,
    j: usize,
    l: usize,
    c: i64,
}

#[derive(Debug, Clone)]
enum Shape {
    Project {
        /// (kind, i, j) per select item.
        items: Vec<(u8, usize, usize)>,
        /// Source columns (0 = `k`, 1 = `v`) to sort by, with DESC.
        order: Vec<(u8, usize, bool)>,
        /// Sort by this item's alias instead, with DESC.
        alias_order: Option<(usize, bool)>,
        distinct: bool,
    },
    Aggregate {
        group: Option<usize>,
        /// (kind, i) per aggregate.
        aggs: Vec<(u8, usize)>,
        having: bool,
    },
}

#[derive(Debug, Clone)]
struct JoinQuery {
    /// Base table of each FROM position (repeats are self-joins).
    tables: Vec<usize>,
    conjuncts: Vec<Conj>,
    shape: Shape,
}

/// Column `c` of FROM position `t`: `xt.c` to the engine, `xt_c` in the
/// oracle's one flat table.
fn col(t: usize, c: &str, flat: bool) -> String {
    if flat {
        format!("x{t}_{c}")
    } else {
        format!("x{t}.{c}")
    }
}

impl Conj {
    fn sql(&self, flat: bool) -> String {
        let (i, j, l, c) = (self.i, self.j, self.l, self.c);
        let at = |t, name| col(t, name, flat);
        match self.kind {
            0 => format!("{} = {}", at(i, "k"), at(j, "k")),
            1 => format!("{} = {}", at(i, "v"), at(j, "k")),
            2 => format!("{} < {}", at(i, "v"), at(j, "v")),
            3 => format!("{} + {} > {c}", at(i, "v"), at(j, "k")),
            4 => format!("{} <> {}", at(i, "s"), at(j, "s")),
            5 => format!("({} > {c} OR {} IS NULL)", at(i, "v"), at(j, "k")),
            6 => format!("{} >= {c}", at(i, "v")),
            7 => format!("{} = 'a'", at(i, "s")),
            8 => "1 = 1".into(),
            9 => format!("{c} > -2"),
            _ => format!("{} + {} < {} * 2", at(i, "v"), at(j, "v"), at(l, "k")),
        }
    }
}

fn item_sql((kind, i, j): (u8, usize, usize), flat: bool) -> String {
    match kind {
        0 => col(i, "k", flat),
        1 => format!("{} * 2", col(i, "v", flat)),
        2 => col(i, "s", flat),
        _ => format!("{} + {}", col(i, "v", flat), col(j, "v", flat)),
    }
}

fn agg_sql((kind, i): (u8, usize), flat: bool) -> String {
    match kind {
        0 => "COUNT(*)".into(),
        1 => format!("SUM({})", col(i, "v", flat)),
        2 => format!("MIN({})", col(i, "k", flat)),
        3 => format!("MAX({})", col(i, "v", flat)),
        4 => format!("COUNT({})", col(i, "s", flat)),
        _ => format!("AVG({})", col(i, "v", flat)),
    }
}

fn order_sql((c, t, desc): (u8, usize, bool), flat: bool) -> String {
    let name = col(t, if c == 0 { "k" } else { "v" }, flat);
    if desc {
        format!("{name} DESC")
    } else {
        name
    }
}

impl JoinQuery {
    /// The query for the engine, or (`flat`) the oracle's query over `j`,
    /// whose WHERE the oracle has already applied. `keyed` appends the
    /// source sort keys to the oracle's select list.
    fn sql(&self, flat: bool, keyed: bool) -> String {
        let mut sql = String::from("SELECT ");
        let mut tail = String::new();
        match &self.shape {
            Shape::Project {
                items,
                order,
                alias_order,
                distinct,
            } => {
                if *distinct {
                    sql.push_str("DISTINCT ");
                }
                let mut list: Vec<String> = (items.iter().enumerate())
                    .map(|(n, it)| format!("{} AS o{n}", item_sql(*it, flat)))
                    .collect();
                if keyed {
                    list.extend(
                        order
                            .iter()
                            .map(|&(c, t, _)| order_sql((c, t, false), flat)),
                    );
                }
                sql.push_str(&list.join(", "));
                if let Some((n, desc)) = alias_order {
                    let dir = if *desc { " DESC" } else { "" };
                    tail = format!(" ORDER BY o{}{dir}", n % items.len());
                } else if !order.is_empty() {
                    let keys: Vec<String> = order.iter().map(|o| order_sql(*o, flat)).collect();
                    tail = format!(" ORDER BY {}", keys.join(", "));
                }
            }
            Shape::Aggregate {
                group,
                aggs,
                having,
            } => {
                let mut list: Vec<String> = group.iter().map(|&g| col(g, "k", flat)).collect();
                list.extend(aggs.iter().map(|a| agg_sql(*a, flat)));
                sql.push_str(&list.join(", "));
                if let Some(g) = group {
                    tail = format!(" GROUP BY {}", col(*g, "k", flat));
                }
                if *having {
                    tail.push_str(" HAVING COUNT(*) > 1");
                }
            }
        }
        if flat {
            sql.push_str(" FROM j");
        } else {
            let from: Vec<String> = (self.tables.iter().enumerate())
                .map(|(t, b)| format!("t{b} x{t}"))
                .collect();
            sql.push_str(&format!(" FROM {}", from.join(", ")));
            if !self.conjuncts.is_empty() {
                let preds: Vec<String> = self.conjuncts.iter().map(|c| c.sql(false)).collect();
                sql.push_str(&format!(" WHERE {}", preds.join(" AND ")));
            }
        }
        sql + &tail
    }
}

fn arb_base_row() -> impl Strategy<Value = Row> {
    let k = prop_oneof![1 => Just(Value::Null), 5 => (-1i64..3).prop_map(Value::Int)];
    let v = prop_oneof![
        1 => Just(Value::Null),
        4 => (-3i64..4).prop_map(Value::Int),
        2 => (-2i32..2).prop_map(|i| Value::Float(f64::from(i) + 0.5)),
    ];
    let s = prop_oneof![Just(None), Just(Some("a")), Just(Some("b"))]
        .prop_map(|s| s.map_or(Value::Null, Value::str));
    (k, v, s).prop_map(|(k, v, s)| vec![k, v, s])
}

fn arb_join_query() -> impl Strategy<Value = JoinQuery> {
    // Positions are drawn below 4 and folded onto the `n` FROM entries;
    // kinds past the last one are more equi-joins on `k`.
    let conj =
        (0u8..14, 0usize..4, 0usize..4, 0usize..4, -2i64..3).prop_map(|(kind, i, j, l, c)| {
            let kind = if kind > 10 { 0 } else { kind };
            Conj { kind, i, j, l, c }
        });
    let project = (
        prop::collection::vec((0u8..4, 0usize..4, 0usize..4), 1..4),
        prop::collection::vec((0u8..2, 0usize..4, any::<bool>()), 0..3),
        prop::option::of((0usize..3, any::<bool>())),
        any::<bool>(),
    )
        .prop_map(|(items, order, alias_order, distinct)| Shape::Project {
            items,
            order,
            alias_order,
            distinct,
        });
    let aggregate = (
        prop::option::of(0usize..4),
        prop::collection::vec((0u8..6, 0usize..4), 1..4),
        any::<bool>(),
    )
        .prop_map(|(group, aggs, having)| Shape::Aggregate {
            group,
            aggs,
            having,
        });
    (
        2usize..5,
        prop::collection::vec(0usize..3, 4..=4),
        prop::collection::vec(conj, 0..6),
        prop_oneof![project, aggregate],
    )
        .prop_map(|(n, mut tables, mut conjuncts, mut shape)| {
            tables.truncate(n);
            for c in &mut conjuncts {
                (c.i, c.j, c.l) = (c.i % n, c.j % n, c.l % n);
            }
            match &mut shape {
                Shape::Project { items, order, .. } => {
                    for (_, i, j) in items {
                        (*i, *j) = (*i % n, *j % n);
                    }
                    for (_, t, _) in order {
                        *t %= n;
                    }
                }
                Shape::Aggregate { group, aggs, .. } => {
                    if let Some(g) = group {
                        *g %= n;
                    }
                    for (_, i) in aggs {
                        *i %= n;
                    }
                }
            }
            JoinQuery {
                tables,
                conjuncts,
                shape,
            }
        })
}

fn base_schema() -> Schema {
    Schema::of(&[
        ("k", ColumnType::Any),
        ("v", ColumnType::Any),
        ("s", ColumnType::Any),
    ])
}

/// The oracle's table `j`: the cross product of the FROM tables at full
/// width, filtered by the whole WHERE with the tree-walking evaluator.
fn oracle_table(q: &JoinQuery, bases: &[Vec<Row>]) -> Table {
    let mut names = Vec::new();
    for t in 0..q.tables.len() {
        for c in ["k", "v", "s"] {
            names.push(col(t, c, true));
        }
    }
    let cols: Vec<(&str, ColumnType)> = names
        .iter()
        .map(|n| (n.as_str(), ColumnType::Any))
        .collect();
    let schema = Schema::of(&cols);
    let mut product: Vec<Row> = vec![Vec::new()];
    for &b in &q.tables {
        product = (product.iter())
            .flat_map(|p| {
                bases[b]
                    .iter()
                    .map(move |r| p.iter().chain(r).cloned().collect())
            })
            .collect();
    }
    if !q.conjuncts.is_empty() {
        let preds: Vec<String> = q.conjuncts.iter().map(|c| c.sql(true)).collect();
        let pred = coin_sql::parse_expr(&preds.join(" AND ")).unwrap();
        let pred = coin_rel::compile(&pred, &schema).unwrap();
        product.retain(|row| pred.matches(row).unwrap());
    }
    Table::from_rows("j", schema, product)
}

/// `got` has `want`'s rows in `want`'s order, except that rows whose sort
/// keys tie may come in any order among themselves.
fn same_up_to_ties(got: &[Row], want: &[Row], keys: &[Row]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len());
    let width = keys.first().map_or(0, Vec::len);
    let all: Vec<(usize, bool)> = (0..width).map(|i| (i, false)).collect();
    let mut start = 0;
    while start < want.len() {
        let mut end = start + 1;
        while end < want.len() && cmp_rows(&keys[start], &keys[end], &all).is_eq() {
            end += 1;
        }
        prop_assert_eq!(
            multiset(got[start..end].to_vec()),
            multiset(want[start..end].to_vec()),
            "rows {}..{}",
            start,
            end
        );
        start = end;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Joins that place conjuncts early and keep only live columns answer
    /// what the full-width oracle answers: in its order where ORDER BY
    /// decides it, as a multiset elsewhere.
    #[test]
    fn multi_table_select_equals_full_width_oracle(
        q in arb_join_query(),
        bases in prop::collection::vec(prop::collection::vec(arb_base_row(), 0..6), 3..=3),
    ) {
        let mut catalog = Catalog::new();
        for (b, rows) in bases.iter().enumerate() {
            catalog.add_table(Table::from_rows(&format!("t{b}"), base_schema(), rows.clone()));
        }
        let sql = q.sql(false, false);
        let got = execute_sql(&sql, &catalog).unwrap().rows;

        let flat = Catalog::new().with_table(oracle_table(&q, &bases));
        let want = execute_sql(&q.sql(true, false), &flat).unwrap().rows;
        match &q.shape {
            Shape::Project { distinct: true, .. } => prop_assert_eq!(got, want, "{}", sql),
            Shape::Project { items, alias_order: Some((n, _)), .. } => {
                let at = n % items.len();
                let keys: Vec<Row> = want.iter().map(|r| vec![r[at].clone()]).collect();
                same_up_to_ties(&got, &want, &keys)?;
            }
            Shape::Project { items, order, .. } if !order.is_empty() => {
                let keyed = execute_sql(&q.sql(true, true), &flat).unwrap().rows;
                let (want, keys): (Vec<Row>, Vec<Row>) = (keyed.into_iter())
                    .map(|mut r| {
                        let keys = r.split_off(items.len());
                        (r, keys)
                    })
                    .unzip();
                same_up_to_ties(&got, &want, &keys)?;
            }
            _ => prop_assert_eq!(multiset(got), multiset(want), "{}", sql),
        }
    }
}
