//! # coin-rel — the relational engine under the COIN mediator
//!
//! Every source in the COIN architecture answers SQL with relational tables
//! (paper §2): Oracle databases do so natively, web sites through wrappers.
//! This crate is the relational substrate used throughout the reproduction:
//!
//! * [`value`] — SQL values with three-valued comparison/arithmetic and
//!   `LIKE` matching;
//! * [`schema`] — columns, schemas, in-memory [`schema::Table`]s with type
//!   checking;
//! * [`expr`] — expressions compiled from `coin-sql` ASTs to positional form;
//! * [`prog`] — expressions lowered once more into flat register-VM
//!   programs with constant folding and precompiled `LIKE` matchers, the
//!   per-row evaluation form on the streaming hot path;
//! * [`exec`] — Volcano-style operators (scan, filter, project, nested-loop
//!   and hash joins, union, distinct, sort, aggregate, limit);
//! * [`tempstore`] — the "local secondary storage" of the prototype: spill
//!   files and an external merge sorter with bounded memory, with per-store
//!   and per-thread spill accounting;
//! * [`engine`] — a per-source SQL processor: parse → normalize → operator
//!   tree → result table, with filter pushdown and equi-join detection.
//!
//! ## Example
//!
//! ```
//! use coin_rel::{Catalog, ColumnType, Schema, Table, Value, execute_sql};
//!
//! let r2 = Table::from_rows(
//!     "r2",
//!     Schema::of(&[("cname", ColumnType::Str), ("expenses", ColumnType::Int)]),
//!     vec![
//!         vec![Value::str("IBM"), Value::Int(1_500_000)],
//!         vec![Value::str("NTT"), Value::Int(5_000_000)],
//!     ],
//! );
//! let catalog = Catalog::new().with_table(r2);
//! let out = execute_sql("SELECT cname FROM r2 WHERE expenses > 2000000", &catalog).unwrap();
//! assert_eq!(out.rows, vec![vec![Value::str("NTT")]]);
//! ```

pub mod engine;
pub mod exec;
pub mod expr;
pub mod prog;
pub mod schema;
pub mod tempstore;
pub mod value;

pub use engine::{
    build_query_pipeline, build_query_pipeline_cached, build_select_pipeline,
    build_select_pipeline_cached, execute_query, execute_select, execute_select_stream,
    execute_sql, Catalog, EngineError, Feeds,
};
pub use exec::{drain, BoxOp, CancelToken, ExecError, Operator};
pub use expr::{compile, CExpr, CompileError};
pub use prog::{fold, lower, ExprCache, ExprProg, LikeProg};
pub use schema::{Column, ColumnType, Row, Schema, Table, TableError};
pub use tempstore::{thread_spill_stats, ExternalSorter, MergeStream, SpillStats, TempStore};
pub use value::{sql_like, ArithOp, Value, ValueError};
