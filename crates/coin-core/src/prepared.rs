//! Compile-once / execute-many prepared queries.
//!
//! [`PreparedQuery`] captures the entire compile side of the mediation
//! pipeline as one immutable, shareable artifact:
//!
//! 1. the parsed receiver SQL, split into its conjunctive core and an
//!    optional outer aggregation/ordering block;
//! 2. the mediated UNION produced by the abductive rewriting
//!    ([`crate::mediate::Mediator::mediate_select`]);
//! 3. the optimized multi-source execution plan for every union branch
//!    ([`coin_planner::QueryPlan`]).
//!
//! Executing a prepared query therefore skips parsing, normalization, the
//! abductive solve and planning entirely — only the fetch/join/residual
//! work remains, which is the cheap part of the pipeline.
//!
//! # The dependency-invalidation contract
//!
//! A prepared query is only valid against the model state it actually
//! *read*. Compilation records that read set as a [`crate::PlanDeps`]
//! footprint — the receiver and source contexts consulted, the elevation
//! axioms applied, the conversion functions invoked, every relation the
//! mediated query or its plan stages. [`crate::CoinSystem`] maintains a
//! per-part vector clock ([`crate::ModelVersions`]): each mutation
//! (`add_context`, `add_elevation`, `add_conversion`/`replace_conversion`,
//! `add_source`) stamps exactly the parts it changed, and a semantically
//! no-op administration (replacing a conversion with an identical one)
//! stamps nothing.
//!
//! * The system's [`crate::cache::QueryCache`] drops exactly the entries
//!   whose footprint intersects a mutation's stamped parts
//!   ([`crate::cache::QueryCache::invalidate_dependents`]) — plans that
//!   never consulted the mutated part stay cached and keep hitting.
//! * [`PreparedQuery::execute`]/[`PreparedQuery::execute_stream`]
//!   re-validate every recorded dependency at execution time
//!   ([`crate::ModelVersions::plan_valid`]) and fail with
//!   [`crate::CoinError::StalePlan`] rather than silently returning
//!   answers mediated against an outdated model. Recover by calling
//!   [`crate::CoinSystem::prepare`] again: it hands back a plan compiled
//!   against the current model.
//!
//! The scalar **epoch** survives as a monotone summary: it advances once
//! per effective mutation, artifacts record the epoch they were compiled
//! at ([`PreparedQuery::epoch`]), and [`crate::CoinError::StalePlan`]
//! reports prepared/current epochs for wire compatibility — but staleness
//! itself is decided per dependency, never by comparing epochs.

use std::sync::Arc;

use coin_planner::{ExecStats, PlanError, PlanRows, QueryPlan};
use coin_rel::{CancelToken, Catalog, Row, Schema, Table};
use coin_sql::{Query, Select};

use crate::mediate::Mediated;
use crate::system::{split_outer, CoinError, CoinSystem, MediatedAnswer};
use crate::versions::{ModelPart, PlanDeps};

/// How a query's compile artifact was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the system's prepared-query cache.
    Hit,
    /// Compiled on demand (and cached for the next caller).
    Miss,
    /// Executed directly from a caller-held [`PreparedQuery`], bypassing
    /// the cache lookup.
    Prepared,
}

impl CacheStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Prepared => "prepared",
        }
    }
}

/// An immutable compile-side artifact: parsed SQL, mediated UNION, and
/// optimized plan, bound to the model parts its compilation read and the
/// epoch it was compiled at.
#[derive(Debug)]
pub struct PreparedQuery {
    sql: String,
    receiver: String,
    /// The instance id of the system this artifact was compiled on — a
    /// plan must never execute against a *different* system whose epoch
    /// coincidentally matches.
    system_id: u64,
    epoch: u64,
    /// Every model part compilation consulted — the artifact is valid
    /// exactly while none of these advanced past `epoch`.
    deps: PlanDeps,
    mediated: Arc<Mediated>,
    plan: QueryPlan,
    /// Outer aggregation/ordering block applied over the mediated result
    /// (None when the receiver query was already a conjunctive core).
    outer: Option<Select>,
    /// Register-VM programs for the outer block's expressions, compiled on
    /// the first execution and reused by every subsequent one (the branch
    /// plans carry their own caches, warmed at plan time).
    outer_programs: Arc<coin_rel::ExprCache>,
}

impl PreparedQuery {
    /// Compile the parsed `q` (spelled `sql`) posed in `receiver` context
    /// against the system's current model: split → mediate → plan, with
    /// nothing executed. The cache-aware path parses once to canonicalize
    /// its key, then hands the AST here so the text is never parsed twice.
    pub(crate) fn compile_parsed(
        system: &CoinSystem,
        q: Query,
        sql: &str,
        receiver: &str,
    ) -> Result<PreparedQuery, CoinError> {
        let Query::Select(s) = q else {
            return Err(CoinError::Unsupported(
                "receiver queries are single SELECT blocks".into(),
            ));
        };
        let (core, outer) = split_outer(&s, system.dictionary())?;
        let mediated = system
            .mediator()
            .mediate_select(&core, receiver, system.dictionary())?;
        let plan = system.planner.plan_query(&mediated.query)?;
        // The artifact's read footprint: everything mediation consulted,
        // every relation the plan stages (ancillary conversion tables
        // included).
        let mut deps = mediated.deps.clone();
        for table in plan.staged_relations() {
            deps.record(ModelPart::Relation(table.to_owned()));
        }
        Ok(PreparedQuery {
            sql: sql.to_owned(),
            receiver: receiver.to_owned(),
            system_id: system.instance_id(),
            epoch: system.epoch(),
            deps,
            mediated: Arc::new(mediated),
            plan,
            outer,
            outer_programs: Arc::new(coin_rel::ExprCache::new()),
        })
    }

    /// The receiver SQL this artifact was compiled from. Artifacts obtained
    /// through the cache-aware [`crate::CoinSystem::prepare`] path report
    /// the *canonical* printed form of the parsed query (the cache key);
    /// [`crate::CoinSystem::prepare_uncached`] keeps the caller's spelling.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The receiver context this artifact was compiled for.
    pub fn receiver(&self) -> &str {
        &self.receiver
    }

    /// The model epoch this artifact was compiled at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The model parts compilation consulted — the artifact's dependency
    /// footprint for invalidation (see the module docs).
    pub fn deps(&self) -> &PlanDeps {
        &self.deps
    }

    /// The mediated UNION (compile-side provenance).
    pub fn mediated(&self) -> &Arc<Mediated> {
        &self.mediated
    }

    /// The optimized execution plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Is this artifact still valid against this system's current model?
    /// `false` for a different [`CoinSystem`] instance (regardless of its
    /// versions) and after any mutation of a model part this artifact's
    /// compilation consulted; mutations of unrelated parts leave it
    /// current.
    pub fn is_current(&self, system: &CoinSystem) -> bool {
        self.system_id == system.instance_id()
            && system.versions().plan_valid(&self.deps, self.epoch)
    }

    /// Execute the captured plan against the system's sources.
    ///
    /// Fails with [`CoinError::StalePlan`] if any model part this plan's
    /// compilation consulted changed since (see the module docs for the
    /// dependency contract) — a stale plan could silently resolve
    /// conflicts against axioms that no longer hold, so execution refuses
    /// rather than guessing. Mutations of parts the plan never read do
    /// not stale it. Handing the plan to a *different* [`CoinSystem`]
    /// instance fails with [`CoinError::ForeignPlan`], even when the
    /// epochs coincide.
    pub fn execute(&self, system: &CoinSystem) -> Result<MediatedAnswer, CoinError> {
        self.execute_stream(system, None)?.collect()
    }

    /// Execute the captured plan as a row stream — the bounded-memory
    /// counterpart of [`PreparedQuery::execute`].
    ///
    /// The remote fetches run before this returns, except that each
    /// mediated branch may open its largest fetch as a stream the pipeline
    /// pulls from the source; so the remote-query count is final at once,
    /// and the rows shipped and their cost settle when the stream is
    /// drained ([`MediatedRows::stats`]). Every local operation — joins,
    /// residuals, the UNION merge, and the receiver's outer
    /// aggregation/ordering block — is a pull-based pipeline over the
    /// staged and streamed data: the mediated result is never
    /// materialized as a whole. The same dependency/instance checks as
    /// `execute` apply. A supplied [`CancelToken`] aborts the pipeline
    /// mid-pull (the transport layer flips it when the consumer
    /// disconnects).
    pub fn execute_stream(
        &self,
        system: &CoinSystem,
        cancel: Option<CancelToken>,
    ) -> Result<MediatedRows, CoinError> {
        if self.system_id != system.instance_id() {
            return Err(CoinError::ForeignPlan);
        }
        if !system.versions().plan_valid(&self.deps, self.epoch) {
            return Err(CoinError::StalePlan {
                prepared: self.epoch,
                current: system.epoch(),
            });
        }
        let rows = system
            .planner
            .execute_planned_stream(&self.plan, cancel.clone())?;
        let mut rows = match &self.outer {
            None => rows,
            Some(outer) => rows.pipe(|schema, op| {
                // Feed the mediated pipeline into the outer block as the
                // live `mediated` binding; the catalog entry is an empty
                // placeholder that only lends its schema to normalization.
                let placeholder = Table {
                    name: "mediated".into(),
                    schema,
                    rows: Vec::new(),
                };
                let catalog = Catalog::new().with_table(placeholder);
                let mut feeds = coin_rel::Feeds::new();
                feeds.insert("mediated".into(), op);
                coin_rel::build_select_pipeline_cached(
                    outer,
                    &catalog,
                    feeds,
                    cancel,
                    Some(&self.outer_programs),
                )
            })?,
        };
        let stats = rows.stats_mut();
        stats.plan_epoch = self.epoch;
        // Lock-free counter read: executions must not contend on the
        // cache mutex just to report statistics.
        let (hits, misses) = system.cache_counters();
        stats.cache_hits = hits;
        stats.cache_misses = misses;
        Ok(MediatedRows {
            rows,
            mediated: Arc::clone(&self.mediated),
            cache: CacheStatus::Prepared,
        })
    }
}

/// A streaming mediated answer: schema and provenance are available up
/// front, rows are pulled one at a time, and what the streamed fetches
/// shipped and the spill statistics are folded into
/// [`MediatedRows::stats`] when the stream is exhausted.
///
/// Pull the stream on the thread that created it — spill accounting uses
/// the thread-local counters ([`coin_rel::thread_spill_stats`]), so a
/// cross-thread drain would misattribute disk activity. Dropping the
/// stream early aborts the plan and frees staged intermediates.
pub struct MediatedRows {
    rows: PlanRows,
    mediated: Arc<Mediated>,
    cache: CacheStatus,
}

impl MediatedRows {
    /// The result schema (column names and types).
    pub fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    /// The mediation report (compile-side provenance).
    pub fn mediated(&self) -> &Arc<Mediated> {
        &self.mediated
    }

    /// How the compile artifact was obtained.
    pub fn cache_status(&self) -> CacheStatus {
        self.cache
    }

    pub(crate) fn set_cache_status(&mut self, status: CacheStatus) {
        self.cache = status;
    }

    /// Execution statistics. `remote_queries` is final from the start;
    /// `rows_shipped` and `comm_cost`, which count the rows of streamed
    /// fetches as the pipeline pulls them, and the spill fields settle
    /// once the stream has been fully drained ([`MediatedRows::finished`]).
    pub fn stats(&self) -> &ExecStats {
        self.rows.stats()
    }

    /// Has the stream been drained to the end?
    pub fn finished(&self) -> bool {
        self.rows.finished()
    }

    /// The next result row; `None` (repeatedly) once exhausted.
    ///
    /// Deliberately not `Iterator`: the signature is fallible
    /// (`Result<Option<Row>, _>`), matching `Operator::next`.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<Row>, CoinError> {
        self.rows.next().map_err(pipeline_error)
    }

    /// Drain the remaining rows into a materialized [`MediatedAnswer`].
    pub fn collect(self) -> Result<MediatedAnswer, CoinError> {
        let (table, stats) = self.rows.collect().map_err(pipeline_error)?;
        Ok(MediatedAnswer {
            table,
            mediated: self.mediated,
            stats,
            cache: self.cache,
        })
    }
}

/// Pulling rows can fail only in the engine: report it as such.
fn pipeline_error(e: PlanError) -> CoinError {
    match e {
        PlanError::Engine(e) => CoinError::Engine(e),
        e => CoinError::Plan(e),
    }
}
