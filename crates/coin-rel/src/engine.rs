//! SQL execution engine over a catalog of in-memory tables.
//!
//! This is the per-source query processor: each wrapped source in the COIN
//! architecture exposes "a SQL interface … and deliver\[s\] answers to the
//! queries in a relational table format" (paper §2). The engine normalizes
//! a parsed query against the catalog, builds an operator tree (scans,
//! pushed-down filters, hash/nested-loop joins, aggregation, sort, limit)
//! and drains it into a result [`Table`].

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use coin_sql::normalize::SchemaLookup;
use coin_sql::{BinOp, ColumnRef, Expr, OrderItem, Query, Select, SelectItem, TableRef};

use crate::exec::{
    drain, AggFn, AggSpec, Aggregate, BoxOp, CancelGuard, CancelToken, Distinct, Filter, HashJoin,
    Limit, NestedLoopJoin, Project, Rebrand, Sort, TableScan, UnionAll,
};
use crate::expr::{compile, CExpr, CompileError};
use crate::prog::{fold, lower, ExprCache};
use crate::schema::{answers_to, Column, ColumnType, Schema, Table};

/// A named collection of tables (one source's database).
///
/// Tables are stored behind `Arc` so building a scan over one — and
/// cloning a catalog — shares the rows instead of copying them; tables are
/// immutable once added.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    pub fn add_table(&mut self, table: Table) {
        self.tables.insert(table.name.clone(), Arc::new(table));
    }

    /// Add an already-shared table without copying it.
    pub fn add_shared(&mut self, table: Arc<Table>) {
        self.tables.insert(table.name.clone(), table);
    }

    pub fn with_table(mut self, table: Table) -> Catalog {
        self.add_table(table);
        self
    }

    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// Shared handle to a table (what scans hold onto).
    pub fn get_shared(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.get(name).cloned()
    }

    pub fn table_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.tables.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }
}

impl SchemaLookup for Catalog {
    fn columns_of(&self, table: &str) -> Option<Cow<'_, [String]>> {
        self.tables.get(table).map(|t| {
            t.schema
                .columns
                .iter()
                .map(|c| {
                    c.name
                        .rsplit_once('.')
                        .map_or(c.name.clone(), |(_, b)| b.to_owned())
                })
                .collect()
        })
    }
}

/// Engine errors.
#[derive(Debug)]
pub enum EngineError {
    Sql(coin_sql::SqlError),
    Normalize(coin_sql::NormalizeError),
    Compile(CompileError),
    Exec(crate::exec::ExecError),
    UnknownTable(String),
    Unsupported(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Sql(e) => write!(f, "{e}"),
            EngineError::Normalize(e) => write!(f, "{e}"),
            EngineError::Compile(e) => write!(f, "{e}"),
            EngineError::Exec(e) => write!(f, "{e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table {t}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<coin_sql::SqlError> for EngineError {
    fn from(e: coin_sql::SqlError) -> Self {
        EngineError::Sql(e)
    }
}
impl From<coin_sql::NormalizeError> for EngineError {
    fn from(e: coin_sql::NormalizeError) -> Self {
        EngineError::Normalize(e)
    }
}
impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}
impl From<crate::exec::ExecError> for EngineError {
    fn from(e: crate::exec::ExecError) -> Self {
        EngineError::Exec(e)
    }
}

/// Execute SQL text against a catalog.
pub fn execute_sql(sql: &str, catalog: &Catalog) -> Result<Table, EngineError> {
    let q = coin_sql::parse_query(sql)?;
    execute_query(&q, catalog)
}

/// Execute a parsed query against a catalog.
pub fn execute_query(q: &Query, catalog: &Catalog) -> Result<Table, EngineError> {
    match q {
        Query::Select(s) => execute_select(s, catalog),
        Query::Union { .. } => {
            let (schema, op) = build_query_pipeline(q, catalog, None)?;
            let rows = drain(op)?;
            Ok(Table {
                name: "union".into(),
                schema,
                rows,
            })
        }
    }
}

/// Build a streaming pipeline for a full query (UNION branches re-branded
/// with the first branch's column names; `UNION` without `ALL` adds a
/// [`Distinct`], which emits in total row order).
pub fn build_query_pipeline(
    q: &Query,
    catalog: &Catalog,
    cancel: Option<CancelToken>,
) -> Result<(Schema, BoxOp), EngineError> {
    build_query_pipeline_cached(q, catalog, cancel, None)
}

/// [`build_query_pipeline`] with a per-plan expression-program cache, so
/// rebuilding the pipeline (one rebuild per execution of a prepared plan)
/// reuses the compiled programs instead of re-lowering every expression.
pub fn build_query_pipeline_cached(
    q: &Query,
    catalog: &Catalog,
    cancel: Option<CancelToken>,
    cache: Option<&ExprCache>,
) -> Result<(Schema, BoxOp), EngineError> {
    match q {
        Query::Select(s) => build_select_pipeline_cached(s, catalog, Feeds::new(), cancel, cache),
        Query::Union { .. } => {
            let mut ops: Vec<BoxOp> = Vec::new();
            let mut schema: Option<Schema> = None;
            for b in q.branches() {
                let (sch, op) =
                    build_select_pipeline_cached(b, catalog, Feeds::new(), cancel.clone(), cache)?;
                match &schema {
                    None => {
                        schema = Some(sch);
                        ops.push(op);
                    }
                    Some(first) => {
                        if sch.len() != first.len() {
                            return Err(EngineError::Unsupported(
                                "UNION branches with different arities".into(),
                            ));
                        }
                        ops.push(Box::new(Rebrand::new(op, first.clone())));
                    }
                }
            }
            let schema = schema.ok_or_else(|| EngineError::Unsupported("empty UNION".into()))?;
            let mut op: BoxOp = Box::new(UnionAll::new(ops));
            if !q.keeps_duplicates() {
                op = Box::new(Distinct::new(op));
            }
            Ok((schema, op))
        }
    }
}

/// Where a WHERE conjunct runs, decided once per pipeline build from the
/// FROM positions of the tables it reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// On the scan of FROM table `t`, the only table it reads.
    Scan(usize),
    /// In the join that brings in FROM table `t`: the first join where
    /// every table it reads is bound.
    Join(usize),
    /// After the joins: it reads no table.
    After,
}

fn place<'s>(e: &'s Expr, from: &[TableRef], cols: &mut Vec<&'s ColumnRef>) -> Place {
    cols.clear();
    e.columns(cols);
    let mut tables: Option<(usize, usize)> = None;
    for q in cols.iter().filter_map(|c| c.qualifier.as_deref()) {
        let Some(t) = from.iter().position(|f| f.binding() == q) else {
            // Not a table of this block: left for the final filter, which
            // reports it.
            return Place::After;
        };
        tables = Some(tables.map_or((t, t), |(lo, hi)| (lo.min(t), hi.max(t))));
    }
    match tables {
        None => Place::After,
        Some((lo, hi)) if lo == hi => Place::Scan(hi),
        Some((_, hi)) => Place::Join(hi),
    }
}

/// The columns of an `x.a = y.b` conjunct placed in the join that brings
/// in `binding`, the left input's column first; `None` for any other
/// conjunct.
fn equi_pair<'s>(e: &'s Expr, binding: &str) -> Option<(&'s ColumnRef, &'s ColumnRef)> {
    let Expr::Bin(l, BinOp::Eq, r) = e else {
        return None;
    };
    let (Expr::Column(cl), Expr::Column(cr)) = (l.as_ref(), r.as_ref()) else {
        return None;
    };
    match (cl.qualifier.as_deref()?, cr.qualifier.as_deref()?) {
        (ql, qr) if ql != binding && qr == binding => Some((cl, cr)),
        (ql, qr) if ql == binding && qr != binding => Some((cr, cl)),
        _ => None,
    }
}

/// For every column of every FROM table, numbered across the tables in FROM
/// order (`offsets[t]` is table `t`'s first), the last step that reads it:
/// step `t` is table `t`'s scan and the join that brings it in, step
/// `inputs.len()` everything after the joins. A column nothing reads gets 0.
///
/// A join at step `t` keeps exactly the columns whose last read is after
/// `t`. A bare reference (only an `ORDER BY` alias is left bare by
/// normalization) keeps every column it could name, so it resolves against
/// the narrowed rows exactly as it would against full-width ones.
fn last_reads<'s>(
    s: &'s Select,
    conjuncts: &[&'s Expr],
    places: &[Place],
    inputs: &[(BoxOp, Option<usize>)],
) -> (Vec<usize>, Vec<usize>) {
    let after = inputs.len();
    // Every column reference of every reader, and the step that reads it.
    let mut cols: Vec<&ColumnRef> = Vec::new();
    let mut steps: Vec<usize> = Vec::new();
    for (c, p) in conjuncts.iter().zip(places) {
        c.columns(&mut cols);
        let step = match *p {
            Place::Scan(t) | Place::Join(t) => t,
            Place::After => after,
        };
        steps.resize(cols.len(), step);
    }
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr.columns(&mut cols);
        }
    }
    let order = s.order_by.iter().map(|o| &o.expr);
    for e in s.group_by.iter().chain(&s.having).chain(order) {
        e.columns(&mut cols);
    }
    steps.resize(cols.len(), after);

    let mut offsets = Vec::with_capacity(after);
    let mut width = 0;
    for (scan, _) in inputs {
        offsets.push(width);
        width += scan.schema().len();
    }
    let mut last = vec![0; width];
    for (c, &step) in cols.iter().zip(&steps) {
        let mut mark = |t: usize, j: usize| {
            let at = &mut last[offsets[t] + j];
            *at = (*at).max(step);
        };
        match c.qualifier.as_deref() {
            Some(q) => {
                let t = s.from.iter().position(|f| f.binding() == q);
                let j = t.and_then(|t| inputs[t].0.schema().resolve(Some(q), &c.column));
                if let (Some(t), Some(j)) = (t, j) {
                    mark(t, j);
                }
            }
            None => {
                for (t, (scan, _)) in inputs.iter().enumerate() {
                    for (j, col) in scan.schema().columns.iter().enumerate() {
                        if answers_to(&col.name, &c.column) {
                            mark(t, j);
                        }
                    }
                }
            }
        }
    }
    (offsets, last)
}

/// Execute one SELECT block.
pub fn execute_select(s: &Select, catalog: &Catalog) -> Result<Table, EngineError> {
    let (schema, op) = build_select_pipeline(s, catalog, Feeds::new(), None)?;
    let rows = drain(op)?;
    Ok(Table {
        name: "result".into(),
        schema,
        rows,
    })
}

/// Build a streaming pipeline for one SELECT block without draining it —
/// the bounded-memory seam: callers pull rows one at a time and nothing
/// materializes the result.
pub fn execute_select_stream(
    s: &Select,
    catalog: &Catalog,
) -> Result<(Schema, BoxOp), EngineError> {
    build_select_pipeline(s, catalog, Feeds::new(), None)
}

/// Live row streams standing in for catalog tables, keyed by table name.
///
/// A feed is consumed by the first scan that references its table; the
/// catalog still needs a placeholder entry carrying the fed table's schema
/// so name normalization can resolve its columns. If a query references the
/// same fed table more than once (self-join), the feed is materialized once
/// and both scans share the copy.
pub type Feeds = HashMap<String, BoxOp>;

/// A scan over zero rows: what a constant-false predicate reduces its
/// input to. Constants cannot error per row, so no behavior is lost.
fn empty_scan(schema: Schema) -> BoxOp {
    Box::new(TableScan::new(
        Arc::new(Table {
            name: "const-false".into(),
            schema: schema.clone(),
            rows: Vec::new(),
        }),
        schema,
    ))
}

/// Wrap `op` in a [`Filter`] for the compiled predicate, constant-folding
/// first: an always-TRUE predicate drops the filter node entirely, and an
/// always-false (FALSE or NULL — both fail SQL filters) one replaces the
/// input with an empty scan.
fn apply_filter(op: BoxOp, pred: CExpr, cache: Option<&ExprCache>) -> BoxOp {
    match fold(&pred) {
        CExpr::Const(v) if v.is_true() => op,
        CExpr::Const(_) => empty_scan(op.schema().clone()),
        folded => Box::new(Filter::compiled(op, lower(&folded, cache))),
    }
}

/// Build one SELECT block's pipeline: scans (with per-table filter
/// pushdown), joins, aggregation or projection, ordering, distinct and
/// limit — returned unconsumed, with a [`CancelGuard`] above every scan
/// when a token is supplied.
///
/// Each WHERE conjunct runs once, as early as it can: on the scan of the
/// one table it reads, else in the first join where all of its tables are
/// bound (as that join's keys or as its predicate over each pair), else
/// after the joins. Each join emits only the columns some later step reads.
pub fn build_select_pipeline(
    s: &Select,
    catalog: &Catalog,
    feeds: Feeds,
    cancel: Option<CancelToken>,
) -> Result<(Schema, BoxOp), EngineError> {
    build_select_pipeline_cached(s, catalog, feeds, cancel, None)
}

/// [`build_select_pipeline`] with a per-plan expression-program cache: all
/// predicate/projection/aggregate-input expressions are lowered through
/// `cache`, so the per-row register programs are compiled once per plan and
/// shared across pipeline rebuilds (one per execution or stream).
pub fn build_select_pipeline_cached(
    s: &Select,
    catalog: &Catalog,
    mut feeds: Feeds,
    cancel: Option<CancelToken>,
    cache: Option<&ExprCache>,
) -> Result<(Schema, BoxOp), EngineError> {
    let s = coin_sql::normalize_select(s, catalog)?;

    // A feed can serve exactly one scan; a self-join over a fed table
    // materializes the stream once and scans the shared copy twice.
    let mut materialized: HashMap<String, Arc<Table>> = HashMap::new();
    for t in &s.from {
        if s.from.iter().filter(|u| u.table == t.table).count() > 1 {
            if let Some(feed) = feeds.remove(&t.table) {
                let schema = feed.schema().clone();
                let rows = drain(feed)?;
                materialized.insert(
                    t.table.clone(),
                    Arc::new(Table {
                        name: t.table.clone(),
                        schema,
                        rows,
                    }),
                );
            }
        }
    }

    // ---- where each conjunct runs ----------------------------------------
    let conjuncts: Vec<&Expr> = (s.where_clause.as_ref())
        .map(Expr::conjuncts)
        .unwrap_or_default();
    let mut cols = Vec::new();
    let places: Vec<Place> = (conjuncts.iter())
        .map(|c| place(c, &s.from, &mut cols))
        .collect();
    let placed = |at: Place| {
        (conjuncts.iter().zip(&places))
            .filter(move |(_, p)| **p == at)
            .map(|(c, _)| *c)
    };
    let needs_agg = !s.group_by.is_empty()
        || s.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            _ => false,
        })
        || s.having.as_ref().is_some_and(Expr::has_aggregate);
    // One table with nothing to filter, aggregate or sort: a projection of
    // bare columns becomes a pruned scan that copies only those columns.
    let prunable = s.from.len() == 1 && conjuncts.is_empty() && !needs_agg && s.order_by.is_empty();
    // Output schema of the pruned scan, when one was built.
    let mut pruned: Option<Schema> = None;

    // ---- scans with per-table filter pushdown --------------------------
    // Each scan with the number of rows it yields, unknown for a feed.
    let mut inputs: Vec<(BoxOp, Option<usize>)> = Vec::with_capacity(s.from.len());
    for (t, tref) in s.from.iter().enumerate() {
        let binding = tref.binding();
        let scan_rows;
        let mut scan: BoxOp = if let Some(feed) = feeds.remove(&tref.table) {
            scan_rows = None;
            let schema = feed.schema().qualified(binding);
            Box::new(Rebrand::new(feed, schema))
        } else {
            let table = materialized
                .get(&tref.table)
                .cloned()
                .or_else(|| catalog.get_shared(&tref.table))
                .ok_or_else(|| EngineError::UnknownTable(tref.table.clone()))?;
            scan_rows = Some(table.rows.len());
            let schema = table.schema.qualified(binding);
            let columns = if prunable {
                let (exprs, out) = project_items(&s.items, &schema)?;
                bare_columns(&exprs).map(|columns| (columns, out))
            } else {
                None
            };
            match columns {
                Some((columns, out)) => {
                    // As on the `Project` path: the operator gets the copy
                    // and the result keeps the original, so a fetch leaves
                    // the same allocations behind whichever path built it.
                    let scan = Box::new(TableScan::pruned(table, columns, out.clone()));
                    pruned = Some(out);
                    scan
                }
                None => Box::new(TableScan::new(table, schema)),
            }
        };
        if let Some(token) = &cancel {
            scan = Box::new(CancelGuard::new(scan, token.clone()));
        }
        if let Some(pred) = Expr::conjoin(placed(Place::Scan(t)).cloned().collect()) {
            let compiled = compile(&pred, scan.schema())?;
            scan = apply_filter(scan, compiled, cache);
        }
        inputs.push((scan, scan_rows));
    }

    // ---- joins, each keeping only the columns read after it --------------
    let (offsets, last) = if inputs.len() > 1 {
        last_reads(&s, &conjuncts, &places, &inputs)
    } else {
        Default::default()
    };
    let mut inputs = inputs.into_iter();
    let (mut op, mut op_rows) =
        (inputs.next()).ok_or_else(|| EngineError::Unsupported("empty FROM".into()))?;
    // The columns `op`'s rows carry, numbered as in `last`: at first the
    // first table's (none to track in a single-table block).
    let mut carried: Vec<usize> = offsets.get(1).map_or(Vec::new(), |&w| (0..w).collect());
    for (t, (scan, scan_rows)) in (1..).zip(inputs) {
        // Equi-join conjuncts between what's bound and the new table make
        // a hash join; the rest placed here run on each pair in place.
        let binding = s.from[t].binding();
        let (mut lkeys, mut rkeys, mut residual) = (Vec::new(), Vec::new(), Vec::new());
        for c in placed(Place::Join(t)) {
            let Some((lc, rc)) = equi_pair(c, binding) else {
                residual.push(c.clone());
                continue;
            };
            let li = (op.schema().resolve(lc.qualifier.as_deref(), &lc.column))
                .ok_or_else(|| EngineError::Unsupported(format!("join key {lc}")))?;
            let ri = (scan.schema().resolve(rc.qualifier.as_deref(), &rc.column))
                .ok_or_else(|| EngineError::Unsupported(format!("join key {rc}")))?;
            lkeys.push(li);
            rkeys.push(ri);
        }
        let pred = match Expr::conjoin(residual) {
            Some(p) => Some(lower(
                &compile(&p, &op.schema().join(scan.schema()))?,
                cache,
            )),
            None => None,
        };
        let keep_left: Vec<usize> = (0..carried.len())
            .filter(|&i| last[carried[i]] > t)
            .collect();
        let keep_right: Vec<usize> = (0..scan.schema().len())
            .filter(|&j| last[offsets[t] + j] > t)
            .collect();
        carried = (keep_left.iter().map(|&i| carried[i]))
            .chain(keep_right.iter().map(|&j| offsets[t] + j))
            .collect();
        // A feed, of unknown size, streams past a staged table; of two
        // staged inputs a nested loop holds the smaller.
        let hold_left = match (op_rows, scan_rows) {
            (Some(l), Some(r)) => lkeys.is_empty() && l < r,
            (l, r) => l.is_some() && r.is_none(),
        };
        op = if !lkeys.is_empty() {
            let join = HashJoin::compiled(op, scan, lkeys, rkeys, pred);
            let join = join.keeping(keep_left, keep_right);
            Box::new(if hold_left {
                join.building_left()
            } else {
                join
            })
        } else {
            let join = NestedLoopJoin::compiled(op, scan, pred).keeping(keep_left, keep_right);
            Box::new(if hold_left { join.holding_left() } else { join })
        };
        op_rows = op_rows.zip(scan_rows).map(|(l, r)| l.saturating_mul(r));
    }

    // ---- predicates that read no table ---------------------------------
    if let Some(pred) = Expr::conjoin(placed(Place::After).cloned().collect()) {
        let compiled = compile(&pred, op.schema())?;
        op = apply_filter(op, compiled, cache);
    }

    // ---- aggregation or plain projection --------------------------------
    let mut out_schema;
    if let Some(schema) = pruned {
        out_schema = schema;
    } else if needs_agg {
        let (agg_op, schema, having, order_keys) = build_aggregate(&s, op, cache)?;
        op = agg_op;
        out_schema = schema;
        if let Some(h) = having {
            op = apply_filter(op, h, cache);
        }
        if !order_keys.is_empty() {
            op = Box::new(Sort::new(op, order_keys));
        }
        // Final projection: keep only the select items (group/agg columns
        // may include extra order/having columns).
        let keep = s.items.len();
        let progs = (0..keep).map(|i| lower(&CExpr::Col(i), cache)).collect();
        let schema = Schema::new(out_schema.columns[..keep].to_vec());
        op = Box::new(Project::compiled(op, progs, schema.clone()));
        out_schema = schema;
    } else {
        // Plain projection. ORDER BY may reference non-projected source
        // columns, so sort first (over the input schema) when possible;
        // keys that only resolve against the output (aliases) sort after
        // projection instead.
        let mut pre_keys = Vec::new();
        let mut deferred: Vec<&OrderItem> = Vec::new();
        for o in &s.order_by {
            match compile(&o.expr, op.schema()) {
                Ok(crate::expr::CExpr::Col(i)) => pre_keys.push((i, o.desc)),
                Ok(_) | Err(_) => deferred.push(o),
            }
        }
        // Mixed pre/post sorting cannot preserve the combined key order;
        // sort entirely on one side.
        if !deferred.is_empty() {
            pre_keys.clear();
            deferred = s.order_by.iter().collect();
        }
        if !pre_keys.is_empty() {
            op = Box::new(Sort::new(op, pre_keys));
        }
        let exprs;
        (exprs, out_schema) = project_items(&s.items, op.schema())?;
        let progs = exprs.iter().map(|e| lower(e, cache)).collect();
        op = Box::new(Project::compiled(op, progs, out_schema.clone()));
        if !deferred.is_empty() {
            let mut post_keys = Vec::new();
            for o in deferred {
                match compile(&o.expr, &out_schema) {
                    Ok(crate::expr::CExpr::Col(i)) => post_keys.push((i, o.desc)),
                    _ => {
                        return Err(EngineError::Unsupported(format!(
                            "ORDER BY {} resolves against neither the sources \
                             nor the projected columns",
                            o.expr
                        )))
                    }
                }
            }
            op = Box::new(Sort::new(op, post_keys));
        }
    }

    if s.distinct {
        op = Box::new(Distinct::new(op));
    }
    if let Some(n) = s.limit {
        op = Box::new(Limit::new(op, n));
    }

    Ok((out_schema, op))
}

/// Compile the (wildcard-free) select items over `input`: one expression
/// and one output column per item.
fn project_items(
    items: &[SelectItem],
    input: &Schema,
) -> Result<(Vec<CExpr>, Schema), EngineError> {
    let mut exprs = Vec::new();
    let mut cols = Vec::new();
    for item in items {
        match item {
            SelectItem::Expr { expr, alias } => {
                let compiled = compile(expr, input)?;
                let name = alias.clone().unwrap_or_else(|| expr.to_string());
                let ty = match &compiled {
                    CExpr::Col(i) => input.columns[*i].ty,
                    _ => ColumnType::Any,
                };
                exprs.push(compiled);
                cols.push(Column::new(&name, ty));
            }
            _ => unreachable!("wildcards expanded by normalize"),
        }
    }
    Ok((exprs, Schema::new(cols)))
}

/// The input columns a projection copies when every expression is a bare
/// column; `None` when any computes something.
fn bare_columns(exprs: &[CExpr]) -> Option<Vec<usize>> {
    (exprs.iter())
        .map(|e| match e {
            CExpr::Col(i) => Some(*i),
            _ => None,
        })
        .collect()
}

/// Build the aggregation pipeline. Returns the operator (producing
/// select-items ++ extra having/order columns), its schema, the compiled
/// HAVING predicate and ORDER BY keys over that schema.
#[allow(clippy::type_complexity)]
fn build_aggregate(
    s: &Select,
    input: BoxOp,
    cache: Option<&ExprCache>,
) -> Result<
    (
        BoxOp,
        Schema,
        Option<crate::expr::CExpr>,
        Vec<(usize, bool)>,
    ),
    EngineError,
> {
    // Collect all aggregate calls appearing anywhere.
    let mut agg_calls: Vec<Expr> = Vec::new();
    let mut collect = |e: &Expr| collect_aggs(e, &mut agg_calls);
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            collect(expr);
        }
    }
    if let Some(h) = &s.having {
        collect_aggs(h, &mut agg_calls);
    }
    for o in &s.order_by {
        collect_aggs(&o.expr, &mut agg_calls);
    }

    // Internal schema produced by the Aggregate operator:
    // group exprs first, then aggregate results, named by printed text.
    let mut internal_cols: Vec<Column> = Vec::new();
    let mut group_compiled = Vec::new();
    for g in &s.group_by {
        group_compiled.push(compile(g, input.schema())?);
        internal_cols.push(Column::new(&g.to_string(), ColumnType::Any));
    }
    let mut specs = Vec::new();
    for a in &agg_calls {
        let Expr::Func(name, args) = a else {
            unreachable!()
        };
        let f = AggFn::parse(name, !args.is_empty())
            .ok_or_else(|| EngineError::Unsupported(format!("aggregate function {name}")))?;
        let arg = args
            .first()
            .map(|e| compile(e, input.schema()))
            .transpose()?;
        specs.push(AggSpec { f, arg });
        internal_cols.push(Column::new(&a.to_string(), ColumnType::Any));
    }
    let internal_schema = Schema::new(internal_cols);
    let agg = Aggregate::with_cache(input, group_compiled, specs, internal_schema.clone(), cache);

    // Rewrite outer expressions over the internal schema.
    let rewrite_ctx = RewriteCtx {
        group_by: &s.group_by,
        agg_calls: &agg_calls,
    };

    let mut out_exprs = Vec::new();
    let mut out_cols = Vec::new();
    for item in &s.items {
        let SelectItem::Expr { expr, alias } = item else {
            unreachable!()
        };
        let rewritten = rewrite_ctx.rewrite(expr)?;
        let compiled = compile(&rewritten, &internal_schema)?;
        let name = alias.clone().unwrap_or_else(|| expr.to_string());
        out_exprs.push(compiled);
        out_cols.push(Column::new(&name, ColumnType::Any));
    }
    // Extra columns needed by ORDER BY (appended after select items).
    let mut order_keys = Vec::new();
    for o in &s.order_by {
        let rewritten = rewrite_ctx.rewrite(&o.expr)?;
        let compiled = compile(&rewritten, &internal_schema)?;
        // Reuse an identical select item column if present.
        let pos = out_exprs
            .iter()
            .position(|e| *e == compiled)
            .unwrap_or_else(|| {
                out_exprs.push(compiled.clone());
                out_cols.push(Column::new(
                    &format!("__order{}", out_exprs.len()),
                    ColumnType::Any,
                ));
                out_exprs.len() - 1
            });
        order_keys.push((pos, o.desc));
    }
    let having = s
        .having
        .as_ref()
        .map(|h| {
            let rewritten = rewrite_ctx.rewrite(h)?;
            compile(&rewritten, &internal_schema).map_err(EngineError::from)
        })
        .transpose()?;

    // Pipeline: Aggregate -> [Filter(having)] -> Project(items + order cols).
    let mut inner: BoxOp = Box::new(agg);
    if let Some(h) = having {
        inner = apply_filter(inner, h, cache);
    }
    let out_schema = Schema::new(out_cols);
    let progs = out_exprs.iter().map(|e| lower(e, cache)).collect();
    let project: BoxOp = Box::new(Project::compiled(inner, progs, out_schema.clone()));
    Ok((project, out_schema, None, order_keys))
}

struct RewriteCtx<'a> {
    group_by: &'a [Expr],
    agg_calls: &'a [Expr],
}

impl RewriteCtx<'_> {
    /// Replace group-by expressions and aggregate calls with references to
    /// the internal aggregate output columns (named by printed text).
    fn rewrite(&self, e: &Expr) -> Result<Expr, EngineError> {
        if let Some(_g) = self.group_by.iter().find(|g| *g == e) {
            return Ok(Expr::Column(ColumnRef::bare(&e.to_string())));
        }
        if self.agg_calls.contains(e) {
            return Ok(Expr::Column(ColumnRef::bare(&e.to_string())));
        }
        Ok(match e {
            Expr::Column(c) => {
                return Err(EngineError::Unsupported(format!(
                    "column {c} must appear in GROUP BY or inside an aggregate"
                )))
            }
            Expr::Bin(l, op, r) => {
                Expr::Bin(Box::new(self.rewrite(l)?), *op, Box::new(self.rewrite(r)?))
            }
            Expr::Un(op, inner) => Expr::Un(*op, Box::new(self.rewrite(inner)?)),
            Expr::Func(name, args) => Expr::Func(
                name.clone(),
                args.iter()
                    .map(|a| self.rewrite(a))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: Box::new(self.rewrite(expr)?),
                low: Box::new(self.rewrite(low)?),
                high: Box::new(self.rewrite(high)?),
                negated: *negated,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: Box::new(self.rewrite(expr)?),
                list: list
                    .iter()
                    .map(|a| self.rewrite(a))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::Like {
                expr,
                pattern,
                negated,
            } => Expr::Like {
                expr: Box::new(self.rewrite(expr)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: Box::new(self.rewrite(expr)?),
                negated: *negated,
            },
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => Expr::Case {
                operand: operand
                    .as_ref()
                    .map(|o| self.rewrite(o).map(Box::new))
                    .transpose()?,
                branches: branches
                    .iter()
                    .map(|(c, v)| Ok((self.rewrite(c)?, self.rewrite(v)?)))
                    .collect::<Result<_, EngineError>>()?,
                else_branch: else_branch
                    .as_ref()
                    .map(|o| self.rewrite(o).map(Box::new))
                    .transpose()?,
            },
            leaf => leaf.clone(),
        })
    }
}

fn collect_aggs(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Func(name, args) if coin_sql::is_aggregate(name) => {
            if !out.contains(e) {
                out.push(e.clone());
            }
            // Aggregates cannot nest; arguments need no scan.
            let _ = args;
        }
        Expr::Bin(l, _, r) => {
            collect_aggs(l, out);
            collect_aggs(r, out);
        }
        Expr::Un(_, inner) => collect_aggs(inner, out),
        Expr::Func(_, args) => {
            for a in args {
                collect_aggs(a, out);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggs(expr, out);
            collect_aggs(low, out);
            collect_aggs(high, out);
        }
        Expr::InList { expr, list, .. } => {
            collect_aggs(expr, out);
            for e in list {
                collect_aggs(e, out);
            }
        }
        Expr::Like { expr, .. } | Expr::IsNull { expr, .. } => collect_aggs(expr, out),
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            if let Some(o) = operand {
                collect_aggs(o, out);
            }
            for (c, v) in branches {
                collect_aggs(c, out);
                collect_aggs(v, out);
            }
            if let Some(e) = else_branch {
                collect_aggs(e, out);
            }
        }
        _ => {}
    }
}
