//! Disk-spill accounting surfaced through [`coin_planner::ExecStats`]:
//! executing a plan whose local operations spill to the temp store must
//! report the runs/bytes written; an in-memory execution must report zero.

use coin_planner::{Dictionary, Planner};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_wrapper::RelationalSource;

fn planner_with_rows(n: usize) -> Planner {
    let rows = (0..n)
        // Deterministic shuffle so the sort actually works.
        .map(|i| vec![Value::Int(((i * 7919) % n) as i64), Value::Int(i as i64)])
        .collect();
    let t = Table::from_rows(
        "t",
        Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        rows,
    );
    let mut dict = Dictionary::new();
    dict.register_source(RelationalSource::new("src", Catalog::new().with_table(t)))
        .unwrap();
    Planner::new(dict)
}

#[test]
fn small_sort_reports_zero_spill() {
    let planner = planner_with_rows(1_000);
    let (out, stats) = planner.run_sql("SELECT k FROM t ORDER BY k").unwrap();
    assert_eq!(out.rows.len(), 1_000);
    assert_eq!(stats.spill_runs, 0);
    assert_eq!(stats.spill_bytes, 0);
}

#[test]
fn oversized_sort_reports_spill_runs_and_bytes() {
    // The engine's Sort flushes 64Ki-row runs as they fill; the final
    // in-memory tail merges from memory without a spill, so two runs on
    // disk need more than 128Ki input rows.
    let n = 140_000;
    let planner = planner_with_rows(n);
    let (out, stats) = planner.run_sql("SELECT k FROM t ORDER BY k").unwrap();
    assert_eq!(out.rows.len(), n);
    assert!(
        stats.spill_runs >= 2,
        "expected at least 2 runs, got {}",
        stats.spill_runs
    );
    assert!(stats.spill_bytes > 0);
    assert!(stats.spill_max_run_bytes > 0);
    assert!(stats.spill_max_run_bytes <= stats.spill_bytes);
}
