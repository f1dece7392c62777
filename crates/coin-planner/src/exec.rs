//! Plan execution.
//!
//! Runs the fetch steps against their sources, stages the results in a
//! scratch [`Catalog`] (backed by the engine's local secondary storage for
//! large intermediates), and evaluates the local query — joins across
//! sources, residual predicates, aggregation, ordering — with `coin-rel`.
//!
//! All fetching, for a single block or for every branch of a UNION, goes
//! through one scheduler (`stage_branches`): it sends each distinct remote
//! query once, and overlaps the fetches of a wave when the sources have
//! been seen to keep a fetch waiting long enough for that to pay.

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use coin_rel::exec::{hash_row_key, hash_values, ChainIndex};
use coin_rel::{BoxOp, CancelToken, Catalog, Row, Schema, Table, Value};
use coin_sql::{BinOp, ColumnRef, Expr, Select};

use crate::dictionary::{Dictionary, Registered};
use crate::plan::{FetchStep, ParamBinding, Plan, PlanError};

/// Execution statistics (communication accounting for EX-PLAN).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Remote sub-queries actually issued: a query that several steps or
    /// branches need is sent, and counted, once.
    pub remote_queries: usize,
    /// Total rows shipped from sources.
    pub rows_shipped: usize,
    /// Simulated communication cost actually incurred
    /// (Σ latency + per_tuple × rows per access). What the sources cost in
    /// wall-clock is measured per source: [`Dictionary::observed_wait`].
    pub comm_cost: f64,
    /// Cumulative prepared-query cache hits on the serving system at the
    /// time this query completed (0 when executed outside a cache-aware
    /// pipeline).
    pub cache_hits: u64,
    /// Cumulative prepared-query cache misses (see [`ExecStats::cache_hits`]).
    pub cache_misses: u64,
    /// Model epoch the executed plan was compiled against.
    pub plan_epoch: u64,
    /// Temp-store run files written while executing this query (external
    /// sort / distinct spills on the "local secondary storage").
    pub spill_runs: u64,
    /// Bytes written to spill runs while executing this query.
    pub spill_bytes: u64,
    /// Upper bound on this query's largest spill run, in bytes: 0 when the
    /// query wrote no runs, never more than [`ExecStats::spill_bytes`]
    /// (see `SpillStats::since` in `coin-rel` for the exactness contract).
    pub spill_max_run_bytes: u64,
}

/// A streaming plan execution: the fetch steps have already run (their
/// communication stats are final), local rows are pulled on demand through
/// the `coin-rel` operator pipeline. Dropping it aborts the plan — staged
/// intermediates and spill files are freed.
pub struct PlanRows {
    schema: Schema,
    op: BoxOp,
}

impl PlanRows {
    pub fn from_parts(schema: Schema, op: BoxOp) -> PlanRows {
        PlanRows { schema, op }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The next result row; `None` when exhausted.
    ///
    /// Deliberately not `Iterator`: the signature is fallible
    /// (`Result<Option<Row>, _>`), matching `Operator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Row>, PlanError> {
        self.op
            .next()
            .map_err(|e| PlanError::from(coin_rel::EngineError::from(e)))
    }

    /// Decompose into the raw operator (for feeding a downstream pipeline).
    pub fn into_parts(self) -> (Schema, BoxOp) {
        (self.schema, self.op)
    }
}

/// Execute a plan, returning the result and execution statistics.
pub fn execute_plan(plan: &Plan, dict: &Dictionary) -> Result<(Table, ExecStats), PlanError> {
    collect(|| {
        let (mut rows, stats) = execute_branches(std::slice::from_ref(plan), dict, None)?;
        Ok((rows.pop().expect("one branch"), stats))
    })
}

/// Start a row stream with `start` and drain it into a table. Execution is
/// synchronous on this thread, so the thread-local spill counters, read
/// before the start and after the drain, bracket exactly this query's disk
/// activity.
pub(crate) fn collect(
    start: impl FnOnce() -> Result<(PlanRows, ExecStats), PlanError>,
) -> Result<(Table, ExecStats), PlanError> {
    let spill_before = coin_rel::thread_spill_stats();
    let (mut rows, mut stats) = start()?;
    let mut out = Vec::new();
    while let Some(r) = rows.next()? {
        out.push(r);
    }
    let spilled = coin_rel::thread_spill_stats().since(&spill_before);
    stats.spill_runs = spilled.runs_written;
    stats.spill_bytes = spilled.bytes_spilled;
    stats.spill_max_run_bytes = spilled.max_run_bytes;
    Ok((
        Table {
            name: "result".into(),
            schema: rows.schema,
            rows: out,
        },
        stats,
    ))
}

/// Fetch for all `branches` at once (see [`stage_branches`]) and build each
/// branch's local pipeline over what was staged for it.
pub(crate) fn execute_branches(
    branches: &[Plan],
    dict: &Dictionary,
    cancel: Option<CancelToken>,
) -> Result<(Vec<PlanRows>, ExecStats), PlanError> {
    let (staging, stats) = stage_branches(branches, dict, cancel.as_ref())?;
    let rows = branches
        .iter()
        .zip(&staging)
        .map(|(plan, staged)| {
            let (schema, op) = coin_rel::build_select_pipeline_cached(
                &plan.local,
                staged,
                coin_rel::Feeds::new(),
                cancel.clone(),
                Some(&plan.programs),
            )?;
            Ok(PlanRows { schema, op })
        })
        .collect::<Result<_, PlanError>>()?;
    Ok((rows, stats))
}

/// A wave overlaps its fetches when that should save more than this much
/// waiting — several times what spawning its threads costs. A constant, not
/// a setting: it weighs one machine cost (starting a thread) against
/// another (a thread blocked), neither of which a deployment changes, while
/// what does vary — how long each source keeps a fetch waiting — is
/// measured ([`Dictionary::observed_wait`]).
const FAN_OUT_GAIN_NS: u64 = 500_000;

/// Most threads one wave fetches on, the caller's included: the bound for a
/// dependent step with thousands of parameter values.
const MAX_FAN_OUT: usize = 16;

/// The fetch scheduler: run every fetch step of every branch and stage the
/// shipped results, one scratch catalog per branch.
///
/// Fetching proceeds in *waves*. A wave holds every remote query whose
/// inputs are staged, across all branches: an independent step's query, and
/// a dependent step's one query per distinct parameter combination as soon
/// as the bindings feeding it are staged. Queries that are structurally the
/// same — same source, same text, same parameter values — are sent once and
/// their table is staged for every step that asked, so the branches of one
/// mediated query see one snapshot of it. Waves repeat until nothing is
/// pending; a cancelled token ends the fetching between two waves.
///
/// Requests, jobs, staging, statistics and the choice of error all follow
/// plan order (branch, then step, then combination) whichever way a wave
/// ran.
fn stage_branches(
    branches: &[Plan],
    dict: &Dictionary,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<Catalog>, ExecStats), PlanError> {
    let mut staging: Vec<Catalog> = branches.iter().map(|_| Catalog::new()).collect();
    let mut stats = ExecStats::default();
    let mut pending: Vec<(usize, &FetchStep)> = Vec::new();
    for (b, plan) in branches.iter().enumerate() {
        for step in &plan.steps {
            if plan.const_empty {
                // The WHERE clause folded to a non-TRUE constant at plan
                // time: the block yields no rows, so stage empty tables and
                // issue zero remote queries.
                staging[b].add_table(empty_staged(step, dict));
            } else {
                pending.push((b, step));
            }
        }
    }

    while !pending.is_empty() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(coin_rel::EngineError::from(coin_rel::ExecError::Cancelled).into());
        }
        let mut wave = Wave::default();
        let mut waiting = Vec::new();
        for (b, step) in pending {
            match parameter_combos(&staging[b], step.params())? {
                Some(combos) => wave.request(b, step, combos, dict)?,
                None => waiting.push((b, step)),
            }
        }
        if wave.requests.is_empty() {
            return Err(PlanError::Unsupported(format!(
                "dependent fetch feeder {} not staged before use",
                waiting[0].1.dependencies().join(", ")
            )));
        }
        wave.run_and_stage(dict, &mut staging, &mut stats)?;
        pending = waiting;
    }
    Ok((staging, stats))
}

/// One remote query of a wave.
struct Job<'p> {
    from: &'p Registered,
    /// Index into [`Wave::shapes`].
    shape: usize,
    combo: Vec<Value>,
    select: Cow<'p, Select>,
    /// Staged name of the first step that asked; steps staging under the
    /// same name share the table instead of copying it.
    binding: &'p str,
    /// Steps that asked and have not staged it yet.
    users: usize,
}

/// The remote queries that can run now, and who asked for them.
#[derive(Default)]
struct Wave<'p> {
    /// One representative per [`FetchStep::same_remote`] class.
    shapes: Vec<&'p FetchStep>,
    /// Hash of (shape, parameter values) → jobs.
    index: ChainIndex,
    jobs: Vec<Job<'p>>,
    /// (branch, step, its jobs in combination order).
    requests: Vec<(usize, &'p FetchStep, Vec<usize>)>,
}

impl<'p> Wave<'p> {
    /// Add a ready step: a job for each of its combinations that no earlier
    /// request of this wave already asked for.
    fn request(
        &mut self,
        branch: usize,
        step: &'p FetchStep,
        combos: Vec<Vec<Value>>,
        dict: &'p Dictionary,
    ) -> Result<(), PlanError> {
        let from = dict.registered(step.source())?;
        let shape = match self.shapes.iter().position(|s| s.same_remote(step)) {
            Some(shape) => shape,
            None => {
                self.shapes.push(step);
                self.shapes.len() - 1
            }
        };
        let mut mine = Vec::with_capacity(combos.len());
        for combo in combos {
            let key = hash_values(&combo) ^ (shape as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let jobs = &mut self.jobs;
            let same = |j: usize| jobs[j].shape == shape && jobs[j].combo == combo;
            let j = self.index.find_or_add(key, same).unwrap_or_else(|| {
                jobs.push(Job {
                    from,
                    shape,
                    select: bound_select(step, &combo),
                    combo,
                    binding: step.binding(),
                    users: 0,
                });
                jobs.len() - 1
            });
            jobs[j].users += 1;
            mine.push(j);
        }
        self.requests.push((branch, step, mine));
        Ok(())
    }

    /// Run the wave's jobs, then stage for every request what it asked for.
    fn run_and_stage(
        self,
        dict: &Dictionary,
        staging: &mut [Catalog],
        stats: &mut ExecStats,
    ) -> Result<(), PlanError> {
        // Overlapping saves the waiting of every fetch but the longest.
        let waits = self.jobs.iter().map(|job| job.from.wait_ns());
        let (sum, max) = waits.fold((0, 0), |(sum, max): (u64, u64), w| (sum + w, max.max(w)));
        let tables = if sum - max > FAN_OUT_GAIN_NS {
            fetch_overlapped(&self.jobs)?
        } else {
            (self.jobs.iter())
                .map(|job| job.from.fetch(&job.select))
                .collect::<Result<Vec<_>, _>>()?
        };

        let mut shipped: Vec<(Option<Arc<Table>>, usize)> = Vec::with_capacity(tables.len());
        for (job, mut table) in self.jobs.iter().zip(tables) {
            stats.remote_queries += 1;
            stats.rows_shipped += table.rows.len();
            let cost = job.from.source.capabilities().cost;
            stats.comm_cost += cost.latency + cost.per_tuple * table.rows.len() as f64;
            table.name = job.binding.to_owned();
            shipped.push((Some(Arc::new(table)), job.users));
        }
        // A request's handle on a job's table: the only handle left when
        // the request is the job's last user, so that it can take the rows.
        let mut claim = |j: usize| {
            let (table, users) = &mut shipped[j];
            *users -= 1;
            let table = if *users == 0 {
                table.take()
            } else {
                table.clone()
            };
            table.expect("claimed once per user")
        };
        for (branch, step, mine) in self.requests {
            let table = match mine.split_first() {
                // No parameter values: an empty relation of the right shape.
                None => Arc::new(empty_staged(step, dict)),
                Some((&only, [])) => claim(only),
                Some((&first, rest)) => {
                    let mut merged = Arc::unwrap_or_clone(claim(first));
                    for &j in rest {
                        match Arc::try_unwrap(claim(j)) {
                            Ok(table) => merged.rows.extend(table.rows),
                            Err(shared) => merged.rows.extend(shared.rows.iter().cloned()),
                        }
                    }
                    Arc::new(merged)
                }
            };
            staging[branch].add_shared(if table.name == step.binding() {
                table
            } else {
                let mut table = Arc::unwrap_or_clone(table);
                table.name = step.binding().to_owned();
                Arc::new(table)
            });
        }
        Ok(())
    }
}

/// Run `jobs` on up to [`MAX_FAN_OUT`] threads — the caller's among them,
/// beginning with the first job — each taking the next unclaimed job until
/// none is left, and return their tables in job order. Every helper is
/// joined before this returns. When jobs fail, the error is that of the
/// first failing job in job order, as if they had run one after another: a
/// job is skipped only once an *earlier* one has failed. A panic on a
/// helper continues as the same panic on the calling thread.
fn fetch_overlapped(jobs: &[Job<'_>]) -> Result<Vec<Table>, PlanError> {
    // Relaxed: both only hand out and withdraw job numbers; the results
    // themselves come back through `join`.
    let next = AtomicUsize::new(1);
    let first_failed = AtomicUsize::new(usize::MAX);
    let work = |mut j: usize| {
        let mut done = Vec::new();
        while j < jobs.len() && j < first_failed.load(Relaxed) {
            let result = jobs[j].from.fetch(&jobs[j].select);
            if result.is_err() {
                first_failed.fetch_min(j, Relaxed);
            }
            done.push((j, result));
            j = next.fetch_add(1, Relaxed);
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..jobs.len().min(MAX_FAN_OUT))
            .map(|_| scope.spawn(|| work(next.fetch_add(1, Relaxed))))
            .collect();
        let mut done = work(0);
        let mut panic = None;
        for helper in helpers {
            match helper.join() {
                Ok(more) => done.extend(more),
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        done
    });
    done.sort_unstable_by_key(|(j, _)| *j);
    let tables: Result<Vec<Table>, _> = done.into_iter().map(|(_, result)| result).collect();
    Ok(tables?)
}

/// The remote query a step sends for one parameter combination: its own for
/// an independent step, its base plus one equality per parameter for a
/// dependent one.
fn bound_select<'p>(step: &'p FetchStep, combo: &[Value]) -> Cow<'p, Select> {
    let params = step.params();
    if params.is_empty() {
        return Cow::Borrowed(step.remote());
    }
    let mut remote = step.remote().clone();
    let mut preds: Vec<Expr> = remote
        .where_clause
        .take()
        .map(|w| w.conjuncts().into_iter().cloned().collect())
        .unwrap_or_default();
    for (p, v) in params.iter().zip(combo) {
        preds.push(Expr::Bin(
            Box::new(Expr::Column(ColumnRef::bare(&p.column))),
            BinOp::Eq,
            Box::new(value_to_expr(v)),
        ));
    }
    remote.where_clause = Expr::conjoin(preds);
    Cow::Owned(remote)
}

/// When a fetch never ran (const-empty plans, dependent fetches with no
/// parameter values), the staged table still needs the schema the remote
/// query would have produced.
fn empty_staged(step: &FetchStep, dict: &Dictionary) -> Table {
    let unknown = coin_rel::Schema::default();
    let schema = dict
        .schema_of(Some(step.source()), step.table())
        .unwrap_or(&unknown);
    Table::new(step.binding(), project_schema(schema, step.remote()))
}

/// The schema `remote` produces over a table of schema `base`.
fn project_schema(base: &coin_rel::Schema, remote: &Select) -> coin_rel::Schema {
    use coin_sql::SelectItem;
    let mut cols = Vec::new();
    for item in &remote.items {
        match item {
            SelectItem::Wildcard => return base.clone(),
            SelectItem::QualifiedWildcard(_) => return base.clone(),
            SelectItem::Expr {
                expr: Expr::Column(c),
                ..
            } => {
                if let Some(i) = base.resolve(None, &c.column) {
                    cols.push(base.columns[i].clone());
                }
            }
            SelectItem::Expr { expr, alias } => {
                let name = alias.clone().unwrap_or_else(|| expr.to_string());
                cols.push(coin_rel::Column::new(&name, coin_rel::ColumnType::Any));
            }
        }
    }
    coin_rel::Schema::new(cols)
}

/// Enumerate distinct value combinations for the parameter columns, in
/// first-seen order: one empty combination when there are no parameters,
/// `None` while a feeding binding is not staged yet.
fn parameter_combos(
    staging: &Catalog,
    params: &[ParamBinding],
) -> Result<Option<Vec<Vec<Value>>>, PlanError> {
    if params.is_empty() {
        return Ok(Some(vec![Vec::new()]));
    }
    // Group parameters by feeding binding: same-feeder params take value
    // tuples row-wise; distinct feeders cross-product their value sets.
    let mut per_feeder: Vec<(&str, Vec<usize>)> = Vec::new();
    for (i, p) in params.iter().enumerate() {
        match per_feeder.iter_mut().find(|(b, _)| *b == p.from_binding) {
            Some((_, idxs)) => idxs.push(i),
            None => per_feeder.push((&p.from_binding, vec![i])),
        }
    }
    let mut combos: Vec<Vec<(usize, Value)>> = vec![Vec::new()];
    for (feeder, idxs) in &per_feeder {
        let Some(table) = staging.get(feeder) else {
            return Ok(None);
        };
        // Row-wise tuples of this feeder's parameter columns.
        let col_positions: Vec<usize> = idxs
            .iter()
            .map(|&i| {
                table
                    .schema
                    .resolve(None, &params[i].from_column)
                    .ok_or_else(|| {
                        PlanError::Unsupported(format!(
                            "column {} missing from staged {feeder}",
                            params[i].from_column
                        ))
                    })
            })
            .collect::<Result<_, _>>()?;
        let mut values: Vec<Vec<Value>> = Vec::new();
        let mut seen = ChainIndex::default();
        for row in &table.rows {
            let tuple = col_positions.iter().map(|&c| &row[c]);
            if tuple.clone().any(Value::is_null) {
                continue; // NULL parameters can never produce matches
            }
            let same = |v: usize| tuple.clone().eq(&values[v]);
            if seen
                .find_or_add(hash_row_key(row, &col_positions), same)
                .is_none()
            {
                values.push(tuple.cloned().collect());
            }
        }
        let mut next = Vec::new();
        for base in &combos {
            for tuple in &values {
                let mut c = base.clone();
                for (&i, v) in idxs.iter().zip(tuple) {
                    c.push((i, v.clone()));
                }
                next.push(c);
            }
        }
        combos = next;
    }
    // Normalize each combo into parameter order.
    Ok(Some(
        combos
            .into_iter()
            .map(|mut c| {
                c.sort_by_key(|(i, _)| *i);
                c.into_iter().map(|(_, v)| v).collect()
            })
            .collect(),
    ))
}

fn value_to_expr(v: &Value) -> Expr {
    match v {
        Value::Null => Expr::Null,
        Value::Bool(b) => Expr::Bool(*b),
        Value::Int(i) => Expr::Int(*i),
        Value::Float(f) => Expr::Float(*f),
        Value::Str(s) => Expr::Str(s.as_ref().to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coin_rel::ColumnType;

    fn param(column: &str, from_binding: &str, from_column: &str) -> ParamBinding {
        ParamBinding {
            column: column.into(),
            from_binding: from_binding.into(),
            from_column: from_column.into(),
        }
    }

    fn feeder(name: &str, rows: Vec<Vec<Value>>) -> Table {
        let schema = Schema::of(&[("k", ColumnType::Any), ("v", ColumnType::Any)]);
        Table::from_rows(name, schema, rows)
    }

    #[test]
    fn combos_are_distinct_in_first_seen_order() {
        let (jpy, usd) = (Value::str("JPY"), Value::str("USD"));
        let a = feeder(
            "a",
            vec![
                vec![jpy.clone(), Value::Int(2)],
                vec![Value::Null, Value::Int(9)],
                vec![usd.clone(), Value::Int(1)],
                vec![jpy.clone(), Value::Int(2)],
                vec![jpy.clone(), Value::Int(1)],
                vec![usd.clone(), Value::Int(1)],
            ],
        );
        let b = feeder("b", vec![vec![Value::Int(7), Value::Null]; 2]);
        let staging = Catalog::new().with_table(a).with_table(b);

        let none = parameter_combos(&staging, &[]).unwrap();
        assert_eq!(none, Some(vec![vec![]]));
        let one = parameter_combos(&staging, &[param("c", "a", "k")]).unwrap();
        assert_eq!(one, Some(vec![vec![jpy.clone()], vec![usd.clone()]]));
        // Same feeder: row-wise tuples, NULLs skipped. Another feeder:
        // crossed, each combination in parameter order.
        let params = [
            param("x", "a", "v"),
            param("y", "b", "k"),
            param("z", "a", "k"),
        ];
        let crossed = parameter_combos(&staging, &params).unwrap().unwrap();
        let seven = Value::Int(7);
        assert_eq!(
            crossed,
            vec![
                vec![Value::Int(2), seven.clone(), jpy.clone()],
                vec![Value::Int(1), seven.clone(), usd],
                vec![Value::Int(1), seven, jpy],
            ]
        );
        // A feeder that is not staged yet: not ready, not an error.
        let early = parameter_combos(&staging, &[param("c", "later", "k")]).unwrap();
        assert_eq!(early, None);
    }

    #[test]
    fn distinct_values_of_a_large_feeder() {
        // 50 000 rows, 25 000 distinct values, each seen twice: comparing
        // every row against every value found so far would take minutes.
        let rows = (0..50_000).map(|i| vec![Value::Int(i % 25_000), Value::Null]);
        let staging = Catalog::new().with_table(feeder("a", rows.collect()));
        let combos = parameter_combos(&staging, &[param("c", "a", "k")]).unwrap();
        let expected: Vec<Vec<Value>> = (0..25_000).map(|i| vec![Value::Int(i)]).collect();
        assert_eq!(combos, Some(expected));
    }
}
