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
//! been seen to keep a fetch waiting long enough for that to pay. Each
//! branch may take one fetch as a stream instead of a staged table: its
//! source's rows then enter the local pipeline as they are pulled
//! ([`coin_wrapper::Source::execute_stream`]), and what that fetch shipped
//! is known only when its stream ends ([`PlanRows::stats`]).

use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

use coin_rel::exec::{hash_row_key, hash_values, ChainIndex};
use coin_rel::{
    BoxOp, CancelToken, Catalog, ExecError, Operator, Row, Schema, SpillStats, Table, Value,
};
use coin_sql::{BinOp, ColumnRef, Expr, Select};
use coin_wrapper::{CostParams, SourceError};

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

/// A streaming plan execution: the fetch steps have already run or been
/// opened, and local rows are pulled on demand through the `coin-rel`
/// operator pipeline. It owns the execution's [`ExecStats`]: the
/// remote-query count is final from the start, and what the streamed
/// fetches shipped and the spill counters are added when the last row has
/// been pulled ([`PlanRows::stats`]). Pull it on the thread that started
/// the execution — spill accounting reads the thread-local counters
/// ([`coin_rel::thread_spill_stats`]). Dropping it aborts the plan — staged
/// intermediates, open fetches and spill files are freed.
pub struct PlanRows {
    schema: Schema,
    op: BoxOp,
    stats: ExecStats,
    /// The streamed fetches the pipeline pulls from.
    shipments: Vec<Arc<Shipment>>,
    spill_before: SpillStats,
    done: bool,
}

impl PlanRows {
    /// Rows of `op` with no remote query behind them.
    pub fn from_parts(schema: Schema, op: BoxOp) -> PlanRows {
        PlanRows {
            schema,
            op,
            stats: ExecStats::default(),
            shipments: Vec::new(),
            spill_before: coin_rel::thread_spill_stats(),
            done: false,
        }
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Execution statistics. `remote_queries` is final from the start;
    /// `rows_shipped` and `comm_cost`, which count a streamed fetch's rows
    /// as the pipeline pulls them, and the spill fields settle once the
    /// stream has been drained ([`PlanRows::finished`]).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// For a caller that adds what it knows of the run (the plan epoch,
    /// cache counters) to [`PlanRows::stats`].
    pub fn stats_mut(&mut self) -> &mut ExecStats {
        &mut self.stats
    }

    /// Has the stream been drained to the end?
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Put a downstream pipeline over these rows: `build` takes their
    /// schema and operator and returns the pipeline's, and the result
    /// settles this execution's statistics when *its* last row is pulled.
    pub fn pipe<E>(
        self,
        build: impl FnOnce(Schema, BoxOp) -> Result<(Schema, BoxOp), E>,
    ) -> Result<PlanRows, E> {
        let (schema, op) = build(self.schema, self.op)?;
        Ok(PlanRows { schema, op, ..self })
    }

    /// The next result row; `None` (repeatedly) once exhausted, when the
    /// statistics are settled.
    ///
    /// Deliberately not `Iterator`: the signature is fallible
    /// (`Result<Option<Row>, _>`), matching `Operator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Row>, PlanError> {
        if self.done {
            return Ok(None);
        }
        let row = (self.op.next()).map_err(|e| PlanError::from(coin_rel::EngineError::from(e)))?;
        if row.is_none() {
            self.done = true;
            // What the streamed fetches shipped, and what it cost — as
            // staging adds a fetched table's when it arrives.
            for shipment in &self.shipments {
                let rows = shipment.rows.load(Relaxed);
                self.stats.rows_shipped += rows;
                self.stats.comm_cost +=
                    shipment.cost.latency + shipment.cost.per_tuple * rows as f64;
            }
            let spilled = coin_rel::thread_spill_stats().since(&self.spill_before);
            self.stats.spill_runs = spilled.runs_written;
            self.stats.spill_bytes = spilled.bytes_spilled;
            self.stats.spill_max_run_bytes = spilled.max_run_bytes;
        }
        Ok(row)
    }

    /// Drain the rest into a table, with the settled statistics.
    pub fn collect(mut self) -> Result<(Table, ExecStats), PlanError> {
        let mut out = Vec::new();
        while let Some(r) = self.next()? {
            out.push(r);
        }
        let table = Table {
            name: "result".into(),
            schema: self.schema,
            rows: out,
        };
        Ok((table, self.stats))
    }
}

/// One streamed fetch's row count, written only by its [`FetchFeed`]: its
/// `rows_shipped` and `comm_cost` are known only when its stream ends, and
/// its remote query is counted when it is opened.
struct Shipment {
    rows: AtomicUsize,
    cost: CostParams,
}

/// A streamed fetch entering the local pipeline in place of a staged
/// table: the source's rows, counted as they pass.
struct FetchFeed {
    rows: BoxOp,
    shipment: Arc<Shipment>,
}

impl Operator for FetchFeed {
    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        let row = self.rows.next()?;
        if row.is_some() {
            // The only writer: a plain load and store, no locked add.
            let shipped = self.shipment.rows.load(Relaxed);
            self.shipment.rows.store(shipped + 1, Relaxed);
        }
        Ok(row)
    }
}

/// Execute a plan, returning the result and execution statistics.
pub fn execute_plan(plan: &Plan, dict: &Dictionary) -> Result<(Table, ExecStats), PlanError> {
    execute_branches(std::slice::from_ref(plan), true, dict, None)?.collect()
}

/// Fetch for all `branches` at once (see [`stage_branches`]), build each
/// branch's local pipeline over what was staged for it, with its streamed
/// fetch, if any, fed in as a live input, and stream the union of the
/// branches — deduplicated unless `all`.
pub(crate) fn execute_branches(
    branches: &[Plan],
    all: bool,
    dict: &Dictionary,
    cancel: Option<CancelToken>,
) -> Result<PlanRows, PlanError> {
    use coin_rel::exec::{Distinct, Rebrand, UnionAll};

    let spill_before = coin_rel::thread_spill_stats();
    let (staging, stats) = stage_branches(branches, dict, cancel.as_ref())?;
    let mut shipments = Vec::new();
    let mut ops: Vec<BoxOp> = Vec::new();
    let mut schema: Option<Schema> = None;
    for (plan, staged) in branches.iter().zip(staging) {
        let mut feeds = coin_rel::Feeds::new();
        if let Some((binding, feed)) = staged.feed {
            shipments.push(Arc::clone(&feed.shipment));
            feeds.insert(binding, Box::new(feed));
        }
        let (sch, op) = coin_rel::build_select_pipeline_cached(
            &plan.local,
            &staged.catalog,
            feeds,
            cancel.clone(),
            Some(&plan.programs),
        )?;
        match &schema {
            None => {
                schema = Some(sch);
                ops.push(op);
            }
            Some(first) => {
                if sch.len() != first.len() {
                    return Err(PlanError::Unsupported(
                        "UNION branches with different arities".into(),
                    ));
                }
                // Re-brand with the first branch's column names so the
                // union presents one schema.
                ops.push(Box::new(Rebrand::new(op, first.clone())));
            }
        }
    }
    let schema = schema.ok_or_else(|| PlanError::Unsupported("empty union".into()))?;
    let mut op: BoxOp = match ops.len() {
        1 => ops.pop().expect("one branch"),
        _ => Box::new(UnionAll::new(ops)),
    };
    if !all {
        // Set semantics: the Distinct operator emits in total row
        // order — the same sorted, deduplicated sequence the
        // materialized sort+dedup produced.
        op = Box::new(Distinct::new(op));
    }
    Ok(PlanRows {
        schema,
        op,
        stats,
        shipments,
        spill_before,
        done: false,
    })
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

/// A fetch estimated to ship fewer rows than this is staged, not streamed.
/// A large fetch streams so that the first result row need not wait for
/// it; a small one fills its table in microseconds, and streaming it cost
/// more than it saved. What the threshold protects is `coin-e2e`
/// `fig2_warm`, the Figure-2 mix of small results, whose `queries_per_s`
/// and `query_p50_ms` should not move when large fetches stream: with every
/// eligible fetch streamed it served 8–10 % fewer queries per second in 5
/// of 6 alternating runs on a 2-vCPU machine (`query_p50_ms` +10–15 % in
/// 4 of 6), which stays inside the benchmark's 25 % bound but buys nothing
/// except 3 % of heap. A constant, like the fan-out ones: it weighs two
/// costs of this program, not of a deployment.
const STREAM_FROM_ROWS: f64 = 1024.0;

/// What the scheduler made of one branch's fetch steps: a scratch catalog
/// of staged tables, and at most one fetch opened as a stream instead,
/// under its binding (the catalog then holds only its schema).
#[derive(Default)]
struct Staged {
    catalog: Catalog,
    feed: Option<(String, FetchFeed)>,
}

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
/// In a wave that runs on the calling thread, one fetch per branch is
/// opened as a stream rather than staged: the independent step with the
/// largest row estimate, if it is at least [`STREAM_FROM_ROWS`], whose
/// query no other step shares and whose rows feed no dependent step. The
/// branch's pipeline pulls its rows from the source, so the first result
/// row need not wait for the whole fetch, and its rows are never held as a
/// table. A wave that fans out stages every fetch. That costs nothing
/// today: the sources that wait answer `execute_stream` through its
/// provided default, which does all its work at open anyway. What it keeps
/// still is the `coin-e2e` `slow_sources` `peak_heap_mib` reading, which
/// loses what a fan-out helper thread allocated when the thread exits
/// (ROADMAP 6(a)); the rule can go once that counter is fixed.
///
/// Requests, jobs, staging, statistics and the choice of error all follow
/// plan order (branch, then step, then combination) whichever way a wave
/// ran.
fn stage_branches(
    branches: &[Plan],
    dict: &Dictionary,
    cancel: Option<&CancelToken>,
) -> Result<(Vec<Staged>, ExecStats), PlanError> {
    let mut staging: Vec<Staged> = branches.iter().map(|_| Staged::default()).collect();
    let mut stats = ExecStats::default();
    let mut pending: Vec<(usize, &FetchStep)> = Vec::new();
    for (b, plan) in branches.iter().enumerate() {
        for step in &plan.steps {
            if plan.const_empty {
                // The WHERE clause folded to a non-TRUE constant at plan
                // time: the block yields no rows, so stage empty tables and
                // issue zero remote queries.
                staging[b].catalog.add_table(empty_staged(step, dict));
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
            match parameter_combos(&staging[b].catalog, step.params())? {
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
        wave.run_and_stage(dict, branches, &mut staging, &mut stats)?;
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
    /// Open it as a stream for its one user instead of fetching a table.
    stream: bool,
}

/// What a job brought back.
enum Fetched {
    Table(Table),
    Stream(Schema, BoxOp),
}

impl Job<'_> {
    /// Send the job's query: fetch its table, or open its stream.
    fn run(&self) -> Result<Fetched, SourceError> {
        if self.stream {
            let (schema, rows) = self.from.open(&self.select)?;
            Ok(Fetched::Stream(schema, rows))
        } else {
            self.from.fetch(&self.select).map(Fetched::Table)
        }
    }
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
                    stream: false,
                });
                jobs.len() - 1
            });
            jobs[j].users += 1;
            mine.push(j);
        }
        self.requests.push((branch, step, mine));
        Ok(())
    }

    /// Mark the job each branch streams: of the branch's independent
    /// steps estimated at [`STREAM_FROM_ROWS`] or more whose one job has no
    /// other user and whose binding no dependent step reads, the one
    /// estimated to ship the most rows (the first of equals). Every
    /// independent step is in the first wave, so a branch streams at most
    /// one fetch.
    fn choose_streams(&mut self, branches: &[Plan]) {
        let mut best: Vec<Option<(usize, f64)>> = vec![None; branches.len()];
        for (branch, step, mine) in &self.requests {
            let FetchStep::Independent { est_rows, .. } = step else {
                continue;
            };
            let &[j] = mine.as_slice() else {
                continue;
            };
            let feeds = |s: &FetchStep| s.params().iter().any(|p| p.from_binding == step.binding());
            if *est_rows < STREAM_FROM_ROWS
                || self.jobs[j].users > 1
                || branches[*branch].steps.iter().any(feeds)
            {
                continue;
            }
            if best[*branch].is_none_or(|(_, most)| *est_rows > most) {
                best[*branch] = Some((j, *est_rows));
            }
        }
        for (j, _) in best.into_iter().flatten() {
            self.jobs[j].stream = true;
        }
    }

    /// Run the wave's jobs, then stage for every request what it asked for,
    /// or feed it the stream opened for it.
    fn run_and_stage(
        mut self,
        dict: &Dictionary,
        branches: &[Plan],
        staging: &mut [Staged],
        stats: &mut ExecStats,
    ) -> Result<(), PlanError> {
        // Overlapping saves the waiting of every fetch but the longest.
        let waits = self.jobs.iter().map(|job| job.from.wait_ns());
        let (sum, max) = waits.fold((0, 0), |(sum, max): (u64, u64), w| (sum + w, max.max(w)));
        let fetched: Vec<Fetched> = if sum - max > FAN_OUT_GAIN_NS {
            let tables = fetch_overlapped(&self.jobs)?;
            tables.into_iter().map(Fetched::Table).collect()
        } else {
            self.choose_streams(branches);
            (self.jobs.iter()).map(Job::run).collect::<Result<_, _>>()?
        };

        let mut shipped: Vec<(Option<Arc<Table>>, usize)> = Vec::with_capacity(fetched.len());
        let mut streams: Vec<Option<(Schema, BoxOp)>> = Vec::with_capacity(fetched.len());
        for (job, fetched) in self.jobs.iter().zip(fetched) {
            // A streamed query is counted when it is opened; its rows and
            // their cost when its stream ends (`PlanRows::next`).
            stats.remote_queries += 1;
            match fetched {
                Fetched::Table(mut table) => {
                    stats.rows_shipped += table.rows.len();
                    let cost = job.from.source.capabilities().cost;
                    stats.comm_cost += cost.latency + cost.per_tuple * table.rows.len() as f64;
                    table.name = job.binding.to_owned();
                    shipped.push((Some(Arc::new(table)), job.users));
                    streams.push(None);
                }
                Fetched::Stream(schema, rows) => {
                    shipped.push((None, 0));
                    streams.push(Some((schema, rows)));
                }
            }
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
            let staged = &mut staging[branch];
            if let &[only] = mine.as_slice() {
                if let Some((schema, rows)) = streams[only].take() {
                    let shipment = Arc::new(Shipment {
                        rows: AtomicUsize::new(0),
                        cost: self.jobs[only].from.source.capabilities().cost,
                    });
                    // The catalog entry only lends the feed's schema to
                    // name resolution; the pipeline scans the feed.
                    staged.catalog.add_table(Table::new(step.binding(), schema));
                    let feed = FetchFeed { rows, shipment };
                    staged.feed = Some((step.binding().to_owned(), feed));
                    continue;
                }
            }
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
            staged.catalog.add_shared(if table.name == step.binding() {
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
