//! Query plans for multi-source execution.
//!
//! A [`Plan`] is an ordered list of *fetch steps* (remote sub-queries sent
//! to sources, independent or parameter-dependent) followed by a *local
//! query* executed over the staged results — the "query execution plan"
//! whose execution the multi-database access engine controls, "executing
//! the necessary local operations (e.g. joins across sources)" (paper §2).

use coin_sql::{BinOp, ColumnRef, Expr, Select};

/// A parameter of a dependent fetch: the remote column that must be bound,
/// and where its values come from (a previously staged binding/column).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamBinding {
    pub column: String,
    pub from_binding: String,
    pub from_column: String,
}

/// A literal binding the planner derived through join equalities:
/// `column = literal` holds on every row the WHERE keeps, because the WHERE
/// equates `column` (directly or through a chain) with `via`, which one of
/// its conjuncts fixes to `literal`.
#[derive(Debug, Clone)]
pub struct DerivedLiteral {
    pub column: ColumnRef,
    pub literal: Expr,
    pub via: ColumnRef,
}

impl DerivedLiteral {
    /// The derived predicate, `column = literal`.
    pub fn predicate(&self) -> Expr {
        Expr::Bin(
            Box::new(Expr::Column(self.column.clone())),
            BinOp::Eq,
            Box::new(self.literal.clone()),
        )
    }
}

/// One remote access.
#[derive(Debug, Clone)]
pub enum FetchStep {
    /// A self-contained sub-query answered by one source.
    Independent {
        source: String,
        binding: String,
        table: String,
        remote: Select,
        est_rows: f64,
        est_cost: f64,
    },
    /// A parameterized sub-query executed once per distinct combination of
    /// values drawn from earlier staged results (index-nested-loop style
    /// access honouring the source's binding pattern).
    Dependent {
        source: String,
        binding: String,
        table: String,
        /// Remote query containing the literal predicates; parameter
        /// equalities are appended per fetch.
        remote_base: Select,
        params: Vec<ParamBinding>,
        est_fetches: f64,
        est_cost: f64,
    },
}

impl FetchStep {
    pub fn binding(&self) -> &str {
        match self {
            FetchStep::Independent { binding, .. } | FetchStep::Dependent { binding, .. } => {
                binding
            }
        }
    }

    pub fn source(&self) -> &str {
        match self {
            FetchStep::Independent { source, .. } | FetchStep::Dependent { source, .. } => source,
        }
    }

    /// The remote table this step reads.
    pub fn table(&self) -> &str {
        match self {
            FetchStep::Independent { table, .. } | FetchStep::Dependent { table, .. } => table,
        }
    }

    /// The remote query: complete for an independent step; for a dependent
    /// one the base that each fetch extends with its parameter equalities.
    pub fn remote(&self) -> &Select {
        match self {
            FetchStep::Independent { remote, .. } => remote,
            FetchStep::Dependent { remote_base, .. } => remote_base,
        }
    }

    /// The parameters each fetch of this step binds (none when independent).
    pub fn params(&self) -> &[ParamBinding] {
        match self {
            FetchStep::Independent { .. } => &[],
            FetchStep::Dependent { params, .. } => params,
        }
    }

    /// Do the two steps send the same remote queries whenever they bind
    /// the same parameter values? Such steps are answered by one fetch per
    /// distinct query, whichever branches they sit in.
    pub fn same_remote(&self, other: &FetchStep) -> bool {
        self.source() == other.source()
            && self.remote() == other.remote()
            && (self.params().iter().map(|p| &p.column))
                .eq(other.params().iter().map(|p| &p.column))
    }

    pub fn est_cost(&self) -> f64 {
        match self {
            FetchStep::Independent { est_cost, .. } | FetchStep::Dependent { est_cost, .. } => {
                *est_cost
            }
        }
    }

    /// Bindings this step depends on (must be staged earlier).
    pub fn dependencies(&self) -> Vec<&str> {
        match self {
            FetchStep::Independent { .. } => Vec::new(),
            FetchStep::Dependent { params, .. } => {
                let mut deps: Vec<&str> = params.iter().map(|p| p.from_binding.as_str()).collect();
                deps.sort_unstable();
                deps.dedup();
                deps
            }
        }
    }
}

/// A complete single-block plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Remote fetches, in execution order (dependencies first).
    pub steps: Vec<FetchStep>,
    /// The local query over staged tables (named by binding).
    pub local: Select,
    /// Total estimated cost in abstract cost units.
    pub est_cost: f64,
    /// Compiled expression programs for the local pipeline. Empty at plan
    /// time and filled by the first execution, so repeated executions of
    /// the same plan reuse the register-VM programs instead of re-lowering
    /// every predicate/projection per run.
    /// Cloning the plan shares the cache (it is append-only and keyed by
    /// structural expression equality).
    pub programs: std::sync::Arc<coin_rel::ExprCache>,
    /// The WHERE clause constant-folded to a non-TRUE constant: the branch
    /// provably yields no rows, so execution stages empty tables and issues
    /// zero remote queries.
    pub const_empty: bool,
    /// Literal bindings derived through join equalities. They bind and are
    /// pushed like written predicates; the local query does not carry them.
    pub derived: Vec<DerivedLiteral>,
}

impl Plan {
    /// Human-readable plan rendering (the prototype's EXPLAIN).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("PLAN (estimated cost {:.1})\n", self.est_cost));
        if self.const_empty {
            out.push_str("  const-empty: WHERE folds to FALSE/NULL — no remote fetches issued\n");
        }
        for d in &self.derived {
            out.push_str(&format!("  derived: {} (via {})\n", d.predicate(), d.via));
        }
        for (i, s) in self.steps.iter().enumerate() {
            match s {
                FetchStep::Independent {
                    source,
                    binding,
                    remote,
                    est_rows,
                    est_cost,
                    ..
                } => {
                    out.push_str(&format!(
                        "  step {i}: fetch [{binding}] from source {source} \
                         (est {est_rows:.0} rows, cost {est_cost:.1})\n    {remote}\n"
                    ));
                }
                FetchStep::Dependent {
                    source,
                    binding,
                    remote_base,
                    params,
                    est_fetches,
                    est_cost,
                    ..
                } => {
                    let plist: Vec<String> = params
                        .iter()
                        .map(|p| format!("{} := {}.{}", p.column, p.from_binding, p.from_column))
                        .collect();
                    out.push_str(&format!(
                        "  step {i}: dependent fetch [{binding}] from source {source} \
                         per ({}) (est {est_fetches:.0} fetches, cost {est_cost:.1})\n    {remote_base}\n",
                        plist.join(", ")
                    ));
                }
            }
        }
        out.push_str(&format!("  local: {}\n", self.local));
        out
    }
}

/// A full-query plan: one [`Plan`] per UNION branch plus the combination
/// semantics. This is the immutable compile-side artifact of the
/// prepare/execute split — it can be cloned, cached and executed many
/// times via [`crate::Planner::execute_planned`] without re-planning.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// One plan per UNION branch (a single SELECT has exactly one).
    pub branches: Vec<Plan>,
    /// `true` for UNION ALL (and for single SELECTs, which have nothing to
    /// deduplicate); `false` requests set semantics over the merged rows.
    pub all: bool,
}

impl QueryPlan {
    /// Total estimated cost across all branches.
    pub fn est_cost(&self) -> f64 {
        self.branches.iter().map(|p| p.est_cost).sum()
    }

    /// Every relation staged by any branch's fetch steps, deduplicated in
    /// first-staged order — the planner's contribution to a prepared
    /// query's read footprint (a plan is only as current as the
    /// resolvability of the tables it fetches).
    pub fn staged_relations(&self) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::new();
        for p in &self.branches {
            for step in &p.steps {
                let t = step.table();
                if !out.contains(&t) {
                    out.push(t);
                }
            }
        }
        out
    }

    /// Human-readable rendering of every branch plan.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.branches.iter().enumerate() {
            if self.branches.len() > 1 {
                out.push_str(&format!("branch {}:\n", i + 1));
            }
            out.push_str(&p.explain());
        }
        // Steps the fetch scheduler answers together (see `crate::exec`).
        let steps: Vec<(usize, usize, &FetchStep)> = self
            .branches
            .iter()
            .enumerate()
            .filter(|(_, p)| !p.const_empty)
            .flat_map(|(b, p)| p.steps.iter().enumerate().map(move |(i, s)| (b, i, s)))
            .collect();
        let mut noted = vec![false; steps.len()];
        for (at, &(_, _, first)) in steps.iter().enumerate() {
            if noted[at] {
                continue;
            }
            let mut users = Vec::new();
            for (k, (b, i, step)) in steps.iter().enumerate().skip(at) {
                if step.same_remote(first) {
                    noted[k] = true;
                    users.push(format!("branch {} step {i}", b + 1));
                }
            }
            if users.len() > 1 {
                let per = match first.params() {
                    [] => String::new(),
                    ps => {
                        let cols: Vec<&str> = ps.iter().map(|p| p.column.as_str()).collect();
                        format!(" per distinct ({})", cols.join(", "))
                    }
                };
                out.push_str(&format!(
                    "shared: source {} answers {} with one fetch{per}\n    {}\n",
                    first.source(),
                    users.join(", "),
                    first.remote()
                ));
            }
        }
        out
    }
}

/// Planner errors.
#[derive(Debug)]
pub enum PlanError {
    Dict(crate::dictionary::DictError),
    Sql(coin_sql::SqlError),
    Normalize(coin_sql::NormalizeError),
    Source(coin_wrapper::SourceError),
    Engine(coin_rel::EngineError),
    /// A binding-pattern column could not be bound by literals or by
    /// cross-binding equalities.
    UnboundParameter {
        binding: String,
        column: String,
    },
    /// Dependent fetches form a cycle (mutually parameter-dependent
    /// sources).
    CyclicDependency(Vec<String>),
    Unsupported(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Dict(e) => write!(f, "{e}"),
            PlanError::Sql(e) => write!(f, "{e}"),
            PlanError::Normalize(e) => write!(f, "{e}"),
            PlanError::Source(e) => write!(f, "{e}"),
            PlanError::Engine(e) => write!(f, "{e}"),
            PlanError::UnboundParameter { binding, column } => write!(
                f,
                "source of {binding} requires {column} to be bound by the query"
            ),
            PlanError::CyclicDependency(bs) => {
                write!(f, "cyclic parameter dependencies among: {}", bs.join(", "))
            }
            PlanError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<crate::dictionary::DictError> for PlanError {
    fn from(e: crate::dictionary::DictError) -> Self {
        PlanError::Dict(e)
    }
}
impl From<coin_sql::SqlError> for PlanError {
    fn from(e: coin_sql::SqlError) -> Self {
        PlanError::Sql(e)
    }
}
impl From<coin_sql::NormalizeError> for PlanError {
    fn from(e: coin_sql::NormalizeError) -> Self {
        PlanError::Normalize(e)
    }
}
impl From<coin_wrapper::SourceError> for PlanError {
    fn from(e: coin_wrapper::SourceError) -> Self {
        PlanError::Source(e)
    }
}
impl From<coin_rel::EngineError> for PlanError {
    fn from(e: coin_rel::EngineError) -> Self {
        PlanError::Engine(e)
    }
}
