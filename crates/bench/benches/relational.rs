//! Relational-engine micro-benchmarks: the local-operations substrate of
//! the multi-database access engine (joins across sources, temporaries on
//! the "local secondary storage"), timed one live operator at a time.
//!
//! * `relational_join`: the hash join on integer and on string keys, and
//!   the nested-loop join at a small size (it is quadratic);
//! * `relational_group_by`: the hash `Aggregate`;
//! * `relational_distinct`: hash `Distinct` against its external-sort path
//!   (`with_spill_threshold(0)`), both live: a distinct set too large for
//!   memory spills;
//! * `relational_serialize`: the server's row writer
//!   ([`coin_server::protocol::write_row`]) into a [`coin_server::JsonBuf`];
//! * `relational_sort`: external sort with forced disk runs against the
//!   in-memory path;
//! * `relational_sql`: parse, plan and run two small SQL pipelines.
//!
//! None of these is gated: a regression that matters shows in the
//! end-to-end `/query` benchmark (`benchmark/`), and the operators'
//! answers are pinned by `coin-rel`'s property tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use coin_rel::exec::{
    drain, AggFn, AggSpec, Aggregate, Distinct, HashJoin, NestedLoopJoin, Sort, ValuesScan,
};
use coin_rel::expr::CExpr;
use coin_rel::tempstore::{ExternalSorter, TempStore};
use coin_rel::{execute_sql, Catalog, ColumnType, Row, Schema, Table, Value};
use coin_sql::BinOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rows(n: usize, key_range: i64, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            vec![
                Value::Int(rng.random_range(0..key_range)),
                Value::Int(rng.random_range(0..1_000_000)),
            ]
        })
        .collect()
}

/// Rows keyed by short strings (the wrapper-shaped workload: company
/// names, currencies) — the case where key-string materialization hurt
/// most.
fn str_rows(n: usize, key_range: i64, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let k = rng.random_range(0..key_range);
            vec![
                Value::str(&format!("company-{k}")),
                Value::Int(rng.random_range(0..1_000_000)),
            ]
        })
        .collect()
}

fn scan(data: Vec<Row>) -> coin_rel::BoxOp {
    Box::new(ValuesScan::new(
        Schema::of(&[("k", ColumnType::Any), ("v", ColumnType::Int)]),
        data,
    ))
}

fn bench_joins(c: &mut Criterion) {
    let mut g = c.benchmark_group("relational_join");
    for n in [10_000usize, 100_000] {
        let left = rows(n, (n / 10) as i64, 1);
        let right = rows(n / 10, (n / 10) as i64, 2);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("hash_join", n), &n, |b, _| {
            b.iter(|| {
                let hj = HashJoin::new(
                    scan(left.clone()),
                    scan(right.clone()),
                    vec![0],
                    vec![0],
                    None,
                );
                black_box(drain(Box::new(hj)).unwrap().len())
            })
        });
    }
    // String-keyed join at 100k (shared-Arc<str> rows, direct hashing).
    {
        let n = 100_000usize;
        let left = str_rows(n, (n / 10) as i64, 5);
        let right = str_rows(n / 10, (n / 10) as i64, 6);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("hash_join_strkeys", n), &n, |b, _| {
            b.iter(|| {
                let hj = HashJoin::new(
                    scan(left.clone()),
                    scan(right.clone()),
                    vec![0],
                    vec![0],
                    None,
                );
                black_box(drain(Box::new(hj)).unwrap().len())
            })
        });
    }
    // Nested loop only at a small size (quadratic).
    {
        let n = 1_000usize;
        let left = rows(n, (n / 10) as i64, 1);
        let right = rows(n / 10, (n / 10) as i64, 2);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("nested_loop", n), &n, |b, _| {
            let pred = CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2)));
            b.iter(|| {
                let nl = NestedLoopJoin::new(
                    scan(left.clone()),
                    scan(right.clone()),
                    Some(pred.clone()),
                );
                black_box(drain(Box::new(nl)).unwrap().len())
            })
        });
    }
    g.finish();
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
    ]
}

fn agg_schema() -> Schema {
    Schema::of(&[
        ("k", ColumnType::Any),
        ("n", ColumnType::Int),
        ("s", ColumnType::Int),
    ])
}

fn run_hash_aggregate(data: &[Row]) -> usize {
    let agg = Aggregate::new(
        scan(data.to_vec()),
        vec![CExpr::Col(0)],
        count_sum_specs(),
        agg_schema(),
    );
    drain(Box::new(agg)).unwrap().len()
}

fn bench_group_by(c: &mut Criterion) {
    let mut g = c.benchmark_group("relational_group_by");
    for n in [10_000usize, 100_000] {
        let data = rows(n, (n / 10) as i64, 7);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("hash", n), &n, |b, _| {
            b.iter(|| black_box(run_hash_aggregate(&data)))
        });
    }
    g.finish();
}

fn run_hash_distinct(data: &[Row]) -> usize {
    let d = Distinct::new(scan(data.to_vec()));
    drain(Box::new(d)).unwrap().len()
}

fn run_sort_distinct(data: &[Row]) -> usize {
    let d = Distinct::new(scan(data.to_vec())).with_spill_threshold(0);
    drain(Box::new(d)).unwrap().len()
}

/// Duplicate-heavy rows for DISTINCT (the UNION-dedup workload: the same
/// entities arriving from several sources) — ~n/100 × 16 distinct
/// combinations, so the distinct set fits the in-memory hash set while
/// the spill path still external-sorts all `n` input rows.
fn dup_rows(n: usize, seed: u64) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (n as i64 / 100).max(16);
    (0..n)
        .map(|_| {
            vec![
                Value::Int(rng.random_range(0..keys)),
                Value::Int(rng.random_range(0..16)),
            ]
        })
        .collect()
}

fn bench_distinct(c: &mut Criterion) {
    let mut g = c.benchmark_group("relational_distinct");
    for n in [10_000usize, 100_000] {
        let data = dup_rows(n, 8);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("hash", n), &n, |b, _| {
            b.iter(|| black_box(run_hash_distinct(&data)))
        });
        // The spill path: external-sort everything, dedup adjacent.
        g.bench_with_input(BenchmarkId::new("sort", n), &n, |b, _| {
            b.iter(|| black_box(run_sort_distinct(&data)))
        });
    }
    g.finish();
}

fn bench_serialize(c: &mut Criterion) {
    use coin_server::protocol::write_row;
    use coin_server::JsonBuf;

    let n = 10_000usize;
    let mut rng = StdRng::seed_from_u64(9);
    let table = Table::from_rows(
        "t",
        Schema::of(&[
            ("name", ColumnType::Str),
            ("rev", ColumnType::Int),
            ("rate", ColumnType::Float),
        ]),
        (0..n)
            .map(|i| {
                vec![
                    Value::str(&format!("company-{}", i % 500)),
                    Value::Int(rng.random_range(0..1_000_000_000)),
                    Value::Float(f64::from(rng.random_range(1..10_000)) / 1e4),
                ]
            })
            .collect(),
    );

    let mut g = c.benchmark_group("relational_serialize");
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("direct_buffer", |b| {
        // The server's row loop into one JsonBuf cleared between rounds.
        let mut buf = JsonBuf::with_capacity(1 << 20);
        b.iter(|| {
            buf.clear();
            buf.begin_arr();
            for row in &table.rows {
                write_row(row, &mut buf);
            }
            buf.end_arr();
            black_box(buf.as_str().len())
        })
    });
    g.finish();
}

fn bench_sort_spill_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("relational_sort");
    let n = 50_000usize;
    let data = rows(n, 1_000_000, 3);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("in_memory", |b| {
        b.iter(|| {
            let s = Sort::new(scan(data.clone()), vec![(0, false)]);
            black_box(drain(Box::new(s)).unwrap().len())
        })
    });
    g.bench_function("spilling_4k_runs", |b| {
        b.iter(|| {
            let s = Sort::new(scan(data.clone()), vec![(0, false)]).with_run_capacity(4096);
            black_box(drain(Box::new(s)).unwrap().len())
        })
    });
    g.bench_function("external_sorter_direct", |b| {
        b.iter(|| {
            let mut sorter = ExternalSorter::new(TempStore::new(), vec![(0, false)], 4096);
            for r in data.clone() {
                sorter.push(r).unwrap();
            }
            black_box(sorter.finish().unwrap().len())
        })
    });
    g.finish();
}

fn bench_sql_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("relational_sql");
    let n = 20_000usize;
    let table = Table {
        name: "t".into(),
        schema: Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        rows: rows(n, 100, 4),
    };
    let catalog = Catalog::new().with_table(table);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("filter_project", |b| {
        b.iter(|| {
            let t = execute_sql(black_box("SELECT v FROM t WHERE v > 500000"), &catalog).unwrap();
            black_box(t.rows.len())
        })
    });
    g.bench_function("group_by_aggregate", |b| {
        b.iter(|| {
            let t = execute_sql(
                black_box("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k"),
                &catalog,
            )
            .unwrap();
            black_box(t.rows.len())
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_joins, bench_group_by, bench_distinct, bench_serialize,
        bench_sort_spill_ablation, bench_sql_pipeline
}
criterion_main!(benches);
