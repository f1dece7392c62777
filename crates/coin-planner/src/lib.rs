//! # coin-planner — the multi-database access engine
//!
//! "The multi-database access engine constitutes a front-end of dictionary
//! and query services to the multiple wrapped sources. Its main functions
//! are: serving schema information …; planning and optimizing the
//! multi-source queries taking into account the sources capabilities as
//! well as the execution and communication costs; controlling the execution
//! of the resulting query execution plan and executing the necessary local
//! operations (e.g. joins across sources)." (paper §2)
//!
//! * [`dictionary::Dictionary`] — the schema/dictionary service;
//! * [`optimize::Planner`] — decomposition + cost-based optimization with
//!   capability awareness (selection/projection pushdown, binding-pattern
//!   dependent access, fetch ordering), with selection pushdown governed
//!   by each source's capability record;
//! * [`plan::Plan`] — the explainable execution plan;
//! * [`exec::execute_plan`] — plan execution: one fetch scheduler over all
//!   branches of a query, with communication accounting.

pub mod dictionary;
pub mod exec;
pub mod optimize;
pub mod plan;

pub use dictionary::{DictError, Dictionary};
pub use exec::{execute_plan, ExecStats, PlanRows};
pub use optimize::Planner;
pub use plan::{FetchStep, ParamBinding, Plan, PlanError, QueryPlan};

use coin_rel::Table;
use coin_sql::Query;

impl Planner {
    /// Compile a full query into a clonable [`QueryPlan`] artifact: each
    /// UNION branch is planned independently. The result captures every
    /// optimizer decision and can be executed many times with
    /// [`Planner::execute_planned`].
    pub fn plan_query(&self, q: &Query) -> Result<QueryPlan, PlanError> {
        let branches = q
            .branches()
            .iter()
            .map(|s| self.plan_select(s))
            .collect::<Result<Vec<_>, _>>()?;
        let all = q.keeps_duplicates();
        Ok(QueryPlan { branches, all })
    }

    /// Execute a previously compiled [`QueryPlan`] (results combined with
    /// set semantics unless the plan came from UNION ALL or a single
    /// SELECT).
    pub fn execute_planned(&self, plan: &QueryPlan) -> Result<(Table, ExecStats), PlanError> {
        self.execute_planned_stream(plan, None)?.collect()
    }

    /// Execute a compiled [`QueryPlan`] as a row stream: the fetch steps of
    /// all branches run under one scheduler — a remote query that several
    /// branches need is sent once, and fetches that wait on slow sources
    /// overlap — before the stream is returned, except that each branch
    /// may open its largest fetch as a stream that the pipeline pulls from
    /// the source. Local joins, residuals, the UNION merge and
    /// set-semantics deduplication all stream — nothing materializes the
    /// combined result. The rows carry their statistics
    /// ([`PlanRows::stats`]): every remote query from the start, what the
    /// streamed fetches shipped and the spill counters once drained.
    pub fn execute_planned_stream(
        &self,
        plan: &QueryPlan,
        cancel: Option<coin_rel::CancelToken>,
    ) -> Result<PlanRows, PlanError> {
        exec::execute_branches(&plan.branches, plan.all, &self.dictionary, cancel)
    }

    /// Plan and execute a full query — the compile-and-run convenience
    /// wrapper over [`Planner::plan_query`] + [`Planner::execute_planned`].
    pub fn execute_query(&self, q: &Query) -> Result<(Table, ExecStats), PlanError> {
        self.execute_planned(&self.plan_query(q)?)
    }

    /// Parse, plan and execute SQL text.
    pub fn run_sql(&self, sql: &str) -> Result<(Table, ExecStats), PlanError> {
        let q = coin_sql::parse_query(sql)?;
        self.execute_query(&q)
    }

    /// Parse, plan and execute SQL text as a row stream (the streaming
    /// counterpart of [`Planner::run_sql`]); its statistics are complete
    /// once it is drained ([`PlanRows::stats`]).
    pub fn run_sql_stream(
        &self,
        sql: &str,
        cancel: Option<coin_rel::CancelToken>,
    ) -> Result<PlanRows, PlanError> {
        let q = coin_sql::parse_query(sql)?;
        self.execute_planned_stream(&self.plan_query(&q)?, cancel)
    }
}
