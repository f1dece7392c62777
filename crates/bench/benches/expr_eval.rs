//! Expression-evaluation benchmark: the register VM vs the tree walk.
//!
//! PR 7 replaced the per-row recursive [`CExpr::eval`] AST walk on the
//! streaming hot path with flat register-VM programs
//! ([`coin_rel::ExprProg`]): no `Box` pointer chasing, short-circuit jump
//! opcodes instead of recursion, and `LIKE` patterns compiled once instead
//! of re-parsed per row.
//!
//! `expr_eval` measures a filter+project pipeline over one million rows:
//!
//! * `interpreted/1000000` — [`coin_rel::reference::TreeFilter`] +
//!   [`TreeProject`], the quarantined pre-PR evaluators;
//! * `compiled/1000000` — [`Filter`]/[`Project`] running `ExprProg`s
//!   (compilation included in the measured time, as `/query` pays it).
//!
//! The same expression mix drives both sides: conjunctive comparisons,
//! arithmetic, `LIKE`, `BETWEEN`, `IN`, and a computed `CASE` projection.
//! The compiled/interpreted ratio floor lives in
//! `crates/bench/baseline.json`, checked by `bench_gate`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use coin_rel::exec::{drain, Filter, Project, TableScan};
use coin_rel::expr::CExpr;
use coin_rel::reference::{TreeFilter, TreeProject};
use coin_rel::{ArithOp, BoxOp, ColumnType, ExprProg, Schema, Table, Value};
use coin_sql::BinOp;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: usize = 1_000_000;

/// (k Int, v Int, name Str) — the wrapper-shaped row: numeric measures
/// plus a short entity string the LIKE predicate scans.
fn table(n: usize) -> Arc<Table> {
    let mut rng = StdRng::seed_from_u64(42);
    Arc::new(Table::from_rows(
        "t",
        Schema::of(&[
            ("k", ColumnType::Int),
            ("v", ColumnType::Int),
            ("name", ColumnType::Str),
        ]),
        (0..n)
            .map(|_| {
                vec![
                    Value::Int(rng.random_range(0..1000)),
                    Value::Int(rng.random_range(0..1_000_000)),
                    Value::str(&format!("company-{}", rng.random_range(0..500))),
                ]
            })
            .collect(),
    ))
}

fn b(e: CExpr) -> Box<CExpr> {
    Box::new(e)
}

fn cmp(l: CExpr, op: BinOp, r: CExpr) -> CExpr {
    CExpr::Cmp(b(l), op, b(r))
}

/// The filter: `(name LIKE 'company-1_9%' AND v * 2 + k > 400000)
/// OR (k BETWEEN 10 AND 13 AND k NOT IN (11, 12))`. The leading LIKE runs
/// on every row — the tree walk re-parses the pattern each time, the VM
/// matches a precompiled program.
fn predicate() -> CExpr {
    let arith = CExpr::Arith(
        b(CExpr::Arith(
            b(CExpr::Col(1)),
            ArithOp::Mul,
            b(CExpr::Const(Value::Int(2))),
        )),
        ArithOp::Add,
        b(CExpr::Col(0)),
    );
    let left = CExpr::And(
        b(CExpr::Like {
            expr: b(CExpr::Col(2)),
            pattern: "company-1_9%".into(),
            negated: false,
        }),
        b(cmp(arith, BinOp::Gt, CExpr::Const(Value::Int(400_000)))),
    );
    let right = CExpr::And(
        b(CExpr::Between {
            expr: b(CExpr::Col(0)),
            low: b(CExpr::Const(Value::Int(10))),
            high: b(CExpr::Const(Value::Int(13))),
            negated: false,
        }),
        b(CExpr::InList {
            expr: b(CExpr::Col(0)),
            list: vec![CExpr::Const(Value::Int(11)), CExpr::Const(Value::Int(12))],
            negated: true,
        }),
    );
    CExpr::Or(b(left), b(right))
}

/// The projection: `k + v / 4`, `CASE WHEN v < 500000 THEN 'lo' ELSE 'hi'
/// END`.
fn projections() -> Vec<CExpr> {
    vec![
        CExpr::Arith(
            b(CExpr::Col(0)),
            ArithOp::Add,
            b(CExpr::Arith(
                b(CExpr::Col(1)),
                ArithOp::Div,
                b(CExpr::Const(Value::Int(4))),
            )),
        ),
        CExpr::Case {
            operand: None,
            branches: vec![(
                cmp(CExpr::Col(1), BinOp::Lt, CExpr::Const(Value::Int(500_000))),
                CExpr::Const(Value::str("lo")),
            )],
            else_branch: Some(b(CExpr::Const(Value::str("hi")))),
        },
    ]
}

fn out_schema() -> Schema {
    Schema::of(&[("m", ColumnType::Any), ("band", ColumnType::Str)])
}

fn scan(t: &Arc<Table>) -> BoxOp {
    Box::new(TableScan::new(Arc::clone(t), t.schema.clone()))
}

fn run_interpreted(t: &Arc<Table>) -> usize {
    let f: BoxOp = Box::new(TreeFilter::new(scan(t), predicate()));
    let p = TreeProject::new(f, projections(), out_schema());
    drain(Box::new(p)).unwrap().len()
}

fn run_compiled(t: &Arc<Table>) -> usize {
    // Compilation is inside the measurement: the hot path pays it once per
    // pipeline build, exactly as production does.
    let pred = Arc::new(ExprProg::compile(&predicate()));
    let progs: Vec<Arc<ExprProg>> = projections()
        .iter()
        .map(|e| Arc::new(ExprProg::compile(e)))
        .collect();
    let f: BoxOp = Box::new(Filter::compiled(scan(t), pred));
    let p = Project::compiled(f, progs, out_schema());
    drain(Box::new(p)).unwrap().len()
}

fn bench_expr_eval(c: &mut Criterion) {
    let t = table(N);
    // Equivalence sanity before timing anything.
    assert_eq!(run_interpreted(&t), run_compiled(&t));

    let mut g = c.benchmark_group("expr_eval");
    g.throughput(Throughput::Elements(N as u64));
    g.bench_with_input(BenchmarkId::new("interpreted", N), &N, |bch, _| {
        bch.iter(|| black_box(run_interpreted(&t)))
    });
    g.bench_with_input(BenchmarkId::new("compiled", N), &N, |bch, _| {
        bch.iter(|| black_box(run_compiled(&t)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(3))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_expr_eval
}
criterion_main!(benches);
