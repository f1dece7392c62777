//! The assembled COIN system.
//!
//! [`CoinSystem`] is the deployment unit of Figure 1: a registry of
//! sources (behind wrappers), context theories, elevation axioms, the
//! shared domain model and conversion functions, a context mediator, and
//! the multi-database access engine. Receivers hand it SQL plus their
//! context name; it returns mediated, executed answers.

use std::collections::BTreeMap;
use std::sync::Arc;

use coin_planner::{Dictionary, Planner};
use coin_rel::Table;
use coin_sql::normalize::SchemaLookup;
use coin_sql::{ColumnRef, Expr, OrderItem, Query, Select, SelectItem, TableRef};

use crate::cache::{CacheStats, QueryCache};
use crate::mediate::{Mediated, MediationError, Mediator};
use crate::model::{
    ContextTheory, Conversion, ConversionRegistry, DomainModel, Elevation, ElevationRegistry,
    ModelError,
};
use crate::prepared::{CacheStatus, MediatedRows, PreparedQuery};
use crate::versions::{ModelPart, ModelVersions};

/// Unified error type for the system façade.
#[derive(Debug)]
pub enum CoinError {
    Model(ModelError),
    Mediation(MediationError),
    Plan(coin_planner::PlanError),
    Engine(coin_rel::EngineError),
    Dict(coin_planner::DictError),
    Sql(coin_sql::SqlError),
    Unsupported(String),
    /// A [`PreparedQuery`] was executed after one of its recorded model
    /// dependencies changed; recover by calling [`CoinSystem::prepare`]
    /// again, which hands back a plan compiled against the current model.
    /// The fields are the scalar epochs (compile-time and current) for
    /// wire compatibility; staleness itself is decided per-dependency.
    StalePlan {
        prepared: u64,
        current: u64,
    },
    /// A [`PreparedQuery`] compiled on a *different* [`CoinSystem`]
    /// instance was executed here; plans are bound to the system that
    /// compiled them.
    ForeignPlan,
}

impl std::fmt::Display for CoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoinError::Model(e) => write!(f, "{e}"),
            CoinError::Mediation(e) => write!(f, "{e}"),
            CoinError::Plan(e) => write!(f, "{e}"),
            CoinError::Engine(e) => write!(f, "{e}"),
            CoinError::Dict(e) => write!(f, "{e}"),
            CoinError::Sql(e) => write!(f, "{e}"),
            CoinError::Unsupported(m) => write!(f, "unsupported: {m}"),
            CoinError::StalePlan { prepared, current } => write!(
                f,
                "prepared query compiled at model epoch {prepared} is stale \
                 (current epoch {current}); re-prepare it"
            ),
            CoinError::ForeignPlan => write!(
                f,
                "prepared query was compiled on a different CoinSystem \
                 instance; prepare it on this system"
            ),
        }
    }
}

impl std::error::Error for CoinError {}

impl From<ModelError> for CoinError {
    fn from(e: ModelError) -> Self {
        CoinError::Model(e)
    }
}
impl From<MediationError> for CoinError {
    fn from(e: MediationError) -> Self {
        CoinError::Mediation(e)
    }
}
impl From<coin_planner::PlanError> for CoinError {
    fn from(e: coin_planner::PlanError) -> Self {
        CoinError::Plan(e)
    }
}
impl From<coin_rel::EngineError> for CoinError {
    fn from(e: coin_rel::EngineError) -> Self {
        CoinError::Engine(e)
    }
}
impl From<coin_planner::DictError> for CoinError {
    fn from(e: coin_planner::DictError) -> Self {
        CoinError::Dict(e)
    }
}
impl From<coin_sql::SqlError> for CoinError {
    fn from(e: coin_sql::SqlError) -> Self {
        CoinError::Sql(e)
    }
}
impl From<coin_sql::NormalizeError> for CoinError {
    fn from(e: coin_sql::NormalizeError) -> Self {
        CoinError::Mediation(MediationError::Normalize(e))
    }
}

/// The result of a mediated query: the answer plus full provenance.
#[derive(Debug)]
pub struct MediatedAnswer {
    pub table: Table,
    /// Compile-side provenance, shared with the cached [`PreparedQuery`]
    /// so the execute-many hot path never re-clones the mediation report.
    pub mediated: Arc<Mediated>,
    pub stats: coin_planner::ExecStats,
    /// Whether this answer's compile artifact came from the cache.
    pub cache: CacheStatus,
}

/// The assembled system.
///
/// The model state is deliberately not `pub`: every mutation must go
/// through the `add_*`/`replace_*` methods so the per-part model versions
/// advance in lockstep and cached prepared queries can never be served
/// stale. Read access is available through the accessor methods
/// ([`CoinSystem::domain`], [`CoinSystem::contexts`], …).
pub struct CoinSystem {
    pub(crate) domain: DomainModel,
    pub(crate) conversions: ConversionRegistry,
    pub(crate) contexts: BTreeMap<String, ContextTheory>,
    pub(crate) elevations: ElevationRegistry,
    pub(crate) planner: Planner,
    /// Per-part model versions (vector clock) plus the scalar epoch
    /// summary: every mutating administration call stamps exactly the
    /// parts it changed, and the prepared-query cache evicts only the
    /// plans whose footprint intersects them (see [`crate::versions`]).
    versions: ModelVersions,
    /// Process-unique instance id, so a [`PreparedQuery`] compiled on one
    /// system can never execute against a *different* system whose epoch
    /// happens to match.
    id: u64,
    /// Prepared-query cache keyed by `(receiver, canonical sql)` — see
    /// [`CoinSystem::prepare_with_status`] for the canonicalization.
    cache: QueryCache,
}

/// Source of process-unique [`CoinSystem`] instance ids.
static SYSTEM_IDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl CoinSystem {
    /// An empty system over a domain model.
    pub fn new(domain: DomainModel) -> CoinSystem {
        CoinSystem {
            domain,
            conversions: ConversionRegistry::new(),
            contexts: BTreeMap::new(),
            elevations: ElevationRegistry::new(),
            planner: Planner::new(Dictionary::new()),
            versions: ModelVersions::new(),
            id: SYSTEM_IDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            cache: QueryCache::default(),
        }
    }

    /// The scalar model epoch: the total number of model mutations
    /// administered so far (`add_source`, `add_context`, `add_elevation`,
    /// `add_conversion`, `replace_conversion`). Kept as a monotone summary for wire/stats
    /// compatibility; plan *validity* is decided per-dependency against
    /// [`CoinSystem::versions`].
    pub fn epoch(&self) -> u64 {
        self.versions.epoch()
    }

    /// The per-part model versions (the invalidation granule).
    pub fn versions(&self) -> &ModelVersions {
        &self.versions
    }

    /// Record a mutation to `parts`: advance the vector clock and evict
    /// exactly the cached plans whose read footprint intersects them.
    fn bump(&mut self, parts: Vec<ModelPart>) {
        self.versions.bump(parts.iter().cloned());
        self.cache.invalidate_dependents(&parts);
    }

    /// Register a source (its tables become queryable). Invalidate plans
    /// staging any table the new source exports: a duplicate table name
    /// flips unqualified resolution to ambiguous, which dependents must
    /// observe rather than keep executing the old binding.
    pub fn add_source<S: coin_wrapper::Source + 'static>(
        &mut self,
        source: S,
    ) -> Result<(), CoinError> {
        let name = source.name().to_owned();
        self.planner.dictionary.register_source(source)?;
        let tables = self
            .planner
            .dictionary
            .tables_of(&name)?
            .iter()
            .map(|t| ModelPart::Relation(t.clone()))
            .collect();
        self.bump(tables);
        Ok(())
    }

    /// Register a context theory. Adding a source+context is the *only*
    /// administration needed to join the system (extensibility claim) —
    /// and since a *new* context can't appear in any existing plan's
    /// footprint, administering source N+1 leaves every cached plan for
    /// sources 1..N live.
    pub fn add_context(&mut self, ctx: ContextTheory) -> Result<(), CoinError> {
        ctx.validate(&self.domain)?;
        if self.contexts.contains_key(&ctx.name) {
            return Err(ModelError::DuplicateContext(ctx.name).into());
        }
        let part = ModelPart::Context(ctx.name.clone());
        self.contexts.insert(ctx.name.clone(), ctx);
        self.bump(vec![part]);
        Ok(())
    }

    /// Register elevation axioms for a relation.
    pub fn add_elevation(&mut self, e: Elevation) -> Result<(), CoinError> {
        if !self.contexts.contains_key(&e.context) {
            return Err(ModelError::UnknownContext(e.context.clone()).into());
        }
        for (_, ty) in e.columns() {
            self.domain.get(ty)?;
        }
        let part = ModelPart::Elevation(e.relation.clone());
        self.elevations.add(e)?;
        self.bump(vec![part]);
        Ok(())
    }

    /// Register a conversion function for a modifier. Consistent with the
    /// other `add_*` calls: the modifier must be declared by some semantic
    /// type, a lookup conversion must name its relation and columns, and
    /// registering over an existing conversion is rejected — use
    /// [`CoinSystem::replace_conversion`] to change one deliberately.
    pub fn add_conversion(
        &mut self,
        modifier: &str,
        conversion: Conversion,
    ) -> Result<(), CoinError> {
        self.validate_conversion(modifier, &conversion)?;
        if self.conversions.get(modifier).is_ok() {
            return Err(ModelError::DuplicateConversion(modifier.to_owned()).into());
        }
        self.conversions.set(modifier, conversion);
        self.bump(vec![ModelPart::Conversion(modifier.to_owned())]);
        Ok(())
    }

    /// Replace the conversion function of an already-registered modifier.
    /// Replacing a conversion with an equal one is a no-op (no version
    /// bump, no plan invalidated); replacing an unregistered modifier's
    /// conversion is an error (use [`CoinSystem::add_conversion`]).
    pub fn replace_conversion(
        &mut self,
        modifier: &str,
        conversion: Conversion,
    ) -> Result<(), CoinError> {
        self.validate_conversion(modifier, &conversion)?;
        if *self.conversions.get(modifier)? == conversion {
            return Ok(());
        }
        self.conversions.set(modifier, conversion);
        self.bump(vec![ModelPart::Conversion(modifier.to_owned())]);
        Ok(())
    }

    /// Shared validation for conversion registration/replacement.
    fn validate_conversion(
        &self,
        modifier: &str,
        conversion: &Conversion,
    ) -> Result<(), CoinError> {
        if !self.domain.has_modifier(modifier) {
            return Err(ModelError::Invalid(format!(
                "no semantic type declares modifier {modifier}; a conversion \
                 for it could never be applied"
            ))
            .into());
        }
        if let Conversion::Lookup {
            relation,
            from_col,
            to_col,
            factor_col,
        } = conversion
        {
            if relation.is_empty()
                || from_col.is_empty()
                || to_col.is_empty()
                || factor_col.is_empty()
            {
                return Err(ModelError::Invalid(format!(
                    "lookup conversion for {modifier} must name a relation \
                     and from/to/factor columns"
                ))
                .into());
            }
        }
        Ok(())
    }

    /// The schema dictionary (receiver-visible).
    pub fn dictionary(&self) -> &Dictionary {
        &self.planner.dictionary
    }

    /// The shared domain model (read-only; the model is fixed at
    /// construction).
    pub fn domain(&self) -> &DomainModel {
        &self.domain
    }

    /// The registered context theories, by name (read-only; use
    /// [`CoinSystem::add_context`] to register).
    pub fn contexts(&self) -> &BTreeMap<String, ContextTheory> {
        &self.contexts
    }

    /// The registered conversion functions (read-only; use
    /// [`CoinSystem::add_conversion`] to register).
    pub fn conversions(&self) -> &ConversionRegistry {
        &self.conversions
    }

    /// The registered elevation axioms (read-only; use
    /// [`CoinSystem::add_elevation`] to register).
    pub fn elevations(&self) -> &ElevationRegistry {
        &self.elevations
    }

    /// Total number of context/elevation axioms administered in the system
    /// — the scalability metric (EX-SCALE): grows O(n) in the number of
    /// sources, vs O(n²) for pairwise a-priori integration.
    pub fn axiom_count(&self) -> usize {
        self.contexts
            .values()
            .map(ContextTheory::axiom_count)
            .sum::<usize>()
            + self
                .elevations
                .iter()
                .map(Elevation::axiom_count)
                .sum::<usize>()
    }

    pub(crate) fn mediator(&self) -> Mediator<'_> {
        Mediator::new(
            &self.domain,
            &self.conversions,
            &self.contexts,
            &self.elevations,
        )
    }

    /// Mediate SQL posed in `receiver` context without executing it.
    pub fn mediate(&self, sql: &str, receiver: &str) -> Result<Mediated, CoinError> {
        let core = self.mediated_core(sql)?;
        Ok(self
            .mediator()
            .mediate_select(&core, receiver, self.dictionary())?)
    }

    /// The conjunctive core of a single-SELECT `sql`: what mediation
    /// rewrites.
    fn mediated_core(&self, sql: &str) -> Result<Select, CoinError> {
        let q = coin_sql::parse_query(sql)?;
        let Query::Select(s) = q else {
            return Err(CoinError::Unsupported(
                "mediation input must be a single SELECT".into(),
            ));
        };
        Ok(split_outer(&s, self.dictionary())?.0)
    }

    /// The logic program mediating `sql` in `receiver` context, printed:
    /// the context axioms, elevation axioms and conversion functions the
    /// query involves, as clauses that [`coin_logic::Program::from_source`]
    /// loads back. Compiled on each call; neither [`CoinSystem::mediate`]
    /// nor the plan cache prints it.
    pub fn mediation_program(&self, sql: &str, receiver: &str) -> Result<String, CoinError> {
        let core = self.mediated_core(sql)?;
        let program = self
            .mediator()
            .program(&core, receiver, self.dictionary())?;
        Ok(crate::encode::program_text(&program))
    }

    /// Compile `sql` posed in `receiver` context into a shareable
    /// [`PreparedQuery`], consulting the prepared-query cache first. On a
    /// miss the freshly compiled artifact is cached for later callers.
    pub fn prepare(&self, sql: &str, receiver: &str) -> Result<Arc<PreparedQuery>, CoinError> {
        self.prepare_with_status(sql, receiver).map(|(p, _)| p)
    }

    /// [`CoinSystem::prepare`], also reporting whether the artifact came
    /// from the cache.
    ///
    /// The cache key is the **canonical printed form of the parsed AST**,
    /// not the raw SQL text: spelling variants of one query — whitespace,
    /// keyword case, redundant parentheses — normalize to the same key and
    /// share a single compiled plan (visible as extra
    /// [`crate::cache::CacheStats::hits`]). Variants that only parse-level
    /// normalization cannot unify (renamed table aliases, unqualified vs
    /// qualified columns) still compile separately. The text is parsed
    /// exactly once: the canonicalizing parse feeds the compile pipeline
    /// directly on a miss.
    ///
    /// Cold misses are **single-flight**: when N threads miss the same
    /// `(receiver, canonical sql)` key at once — even via different
    /// spellings — exactly one (the leader, reported as
    /// [`CacheStatus::Miss`]) runs the compile pipeline; the others park
    /// until it lands and share its artifact (reported as
    /// [`CacheStatus::Hit`]). A leader whose compile fails wakes the
    /// waiters so one of them can retry — an error never strands a
    /// stampede.
    pub fn prepare_with_status(
        &self,
        sql: &str,
        receiver: &str,
    ) -> Result<(Arc<PreparedQuery>, CacheStatus), CoinError> {
        let q = coin_sql::parse_query(sql)?;
        let canonical = q.to_string();
        match self.cache.begin(receiver, &canonical, &self.versions) {
            crate::cache::PrepareSlot::Cached(hit) => Ok((hit, CacheStatus::Hit)),
            crate::cache::PrepareSlot::Leader(permit) => {
                // On Err the permit drops here, aborting the flight.
                let prepared = Arc::new(PreparedQuery::compile_parsed(
                    self, q, &canonical, receiver,
                )?);
                permit.complete(Arc::clone(&prepared));
                Ok((prepared, CacheStatus::Miss))
            }
        }
    }

    /// Compile without touching the cache (the compile pipeline itself).
    pub fn prepare_uncached(&self, sql: &str, receiver: &str) -> Result<PreparedQuery, CoinError> {
        let q = coin_sql::parse_query(sql)?;
        PreparedQuery::compile_parsed(self, q, sql, receiver)
    }

    /// Cumulative prepared-query cache counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Lock-free `(hits, misses)` counter snapshot for hot-path reporting.
    pub(crate) fn cache_counters(&self) -> (u64, u64) {
        self.cache.counters()
    }

    /// Process-unique instance id (see the `id` field).
    pub(crate) fn instance_id(&self) -> u64 {
        self.id
    }

    /// Bound the prepared-query cache (entries beyond the bound are
    /// evicted least-recently-used first; 0 disables caching).
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// The full pipeline: mediate, plan, execute, and (if the receiver's
    /// query had aggregation/ordering above the conjunctive core) apply the
    /// outer operations over the mediated result.
    ///
    /// This is now a thin wrapper over [`CoinSystem::prepare`] +
    /// [`PreparedQuery::execute`]: repeated calls with the same `(sql,
    /// receiver)` pay the abductive rewrite and planning only once per
    /// model epoch.
    pub fn query(&self, sql: &str, receiver: &str) -> Result<MediatedAnswer, CoinError> {
        let (prepared, status) = self.prepare_with_status(sql, receiver)?;
        let mut answer = prepared.execute(self)?;
        answer.cache = status;
        Ok(answer)
    }

    /// The streaming counterpart of [`CoinSystem::query`]: same compile
    /// pipeline and cache behavior, but the answer comes back as a
    /// [`MediatedRows`] pull stream instead of a materialized table. A
    /// supplied [`coin_rel::CancelToken`] aborts the running plan mid-pull
    /// (the server flips it when the client disconnects).
    pub fn query_stream(
        &self,
        sql: &str,
        receiver: &str,
        cancel: Option<coin_rel::CancelToken>,
    ) -> Result<MediatedRows, CoinError> {
        let (prepared, status) = self.prepare_with_status(sql, receiver)?;
        let mut rows = prepared.execute_stream(self, cancel)?;
        rows.set_cache_status(status);
        Ok(rows)
    }

    /// Execute without mediation (the naive baseline of §3 that returns the
    /// "incorrect" answer).
    pub fn query_naive(&self, sql: &str) -> Result<(Table, coin_planner::ExecStats), CoinError> {
        Ok(self.planner.run_sql(sql)?)
    }

    /// Streaming counterpart of [`CoinSystem::query_naive`]; the rows'
    /// statistics are complete once they are drained
    /// ([`coin_planner::PlanRows::stats`]).
    pub fn query_naive_stream(
        &self,
        sql: &str,
        cancel: Option<coin_rel::CancelToken>,
    ) -> Result<coin_planner::PlanRows, CoinError> {
        Ok(self.planner.run_sql_stream(sql, cancel)?)
    }
}

/// Split a receiver query into its conjunctive core (to be mediated) and an
/// optional outer block (aggregation / ordering / distinct / limit) applied
/// over the mediated result.
///
/// The core projects every column referenced anywhere in the query, aliased
/// `m0, m1, …`; the outer block re-expresses the original items over those
/// aliases against the staged table `mediated`.
pub(crate) fn split_outer(
    s: &Select,
    schema: &dyn SchemaLookup,
) -> Result<(Select, Option<Select>), CoinError> {
    let needs_outer = !s.group_by.is_empty()
        || s.having.is_some()
        || !s.order_by.is_empty()
        || s.limit.is_some()
        || s.distinct
        || s.items.iter().any(|i| match i {
            SelectItem::Expr { expr, .. } => expr.has_aggregate(),
            _ => false,
        });
    if !needs_outer {
        return Ok((s.clone(), None));
    }

    // Normalize first so column references are qualified and unambiguous.
    let s = coin_sql::normalize_select(s, schema)?;

    // Columns referenced anywhere.
    let mut cols: Vec<&ColumnRef> = Vec::new();
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr.columns(&mut cols);
        }
    }
    for g in &s.group_by {
        g.columns(&mut cols);
    }
    if let Some(h) = &s.having {
        h.columns(&mut cols);
    }
    for o in &s.order_by {
        o.expr.columns(&mut cols);
    }
    let mut distinct_cols: Vec<ColumnRef> = Vec::new();
    for c in cols {
        if !distinct_cols.contains(c) {
            distinct_cols.push(c.clone());
        }
    }
    if distinct_cols.is_empty() {
        return Err(CoinError::Unsupported(
            "aggregation query references no columns".into(),
        ));
    }

    // Core: SELECT each referenced column AS m<i>, same FROM/WHERE.
    let core_items: Vec<SelectItem> = distinct_cols
        .iter()
        .enumerate()
        .map(|(i, c)| SelectItem::Expr {
            expr: Expr::Column(c.clone()),
            alias: Some(format!("m{i}")),
        })
        .collect();
    let core = Select {
        items: core_items,
        from: s.from.clone(),
        where_clause: s.where_clause.clone(),
        ..Default::default()
    };

    // Outer: original items/group/having/order with columns renamed to the
    // staged aliases, FROM the staged `mediated` table.
    let rename: BTreeMap<ColumnRef, ColumnRef> = distinct_cols
        .iter()
        .enumerate()
        .map(|(i, c)| (c.clone(), ColumnRef::bare(&format!("m{i}"))))
        .collect();
    let outer = Select {
        distinct: s.distinct,
        items: s
            .items
            .iter()
            .map(|item| match item {
                SelectItem::Expr { expr, alias } => {
                    // Keep the receiver-visible column name: a bare column
                    // item stays named after the original column, not the
                    // internal staging alias.
                    let alias = alias.clone().or_else(|| match expr {
                        Expr::Column(c) => Some(c.column.clone()),
                        _ => None,
                    });
                    SelectItem::Expr {
                        expr: rename_columns(expr, &rename),
                        alias,
                    }
                }
                other => other.clone(),
            })
            .collect(),
        from: vec![TableRef::new("mediated")],
        where_clause: None,
        group_by: s
            .group_by
            .iter()
            .map(|g| rename_columns(g, &rename))
            .collect(),
        having: s.having.as_ref().map(|h| rename_columns(h, &rename)),
        order_by: s
            .order_by
            .iter()
            .map(|o| OrderItem {
                expr: rename_columns(&o.expr, &rename),
                desc: o.desc,
            })
            .collect(),
        limit: s.limit,
    };
    Ok((core, Some(outer)))
}

/// Rename column references per the mapping (leaves other leaves intact).
fn rename_columns(e: &Expr, map: &BTreeMap<ColumnRef, ColumnRef>) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(map.get(c).cloned().unwrap_or_else(|| c.clone())),
        Expr::Bin(l, op, r) => Expr::Bin(
            Box::new(rename_columns(l, map)),
            *op,
            Box::new(rename_columns(r, map)),
        ),
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(rename_columns(inner, map))),
        Expr::Func(f, args) => Expr::Func(
            f.clone(),
            args.iter().map(|a| rename_columns(a, map)).collect(),
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(rename_columns(expr, map)),
            low: Box::new(rename_columns(low, map)),
            high: Box::new(rename_columns(high, map)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(rename_columns(expr, map)),
            list: list.iter().map(|a| rename_columns(a, map)).collect(),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(rename_columns(expr, map)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(rename_columns(expr, map)),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => Expr::Case {
            operand: operand.as_ref().map(|o| Box::new(rename_columns(o, map))),
            branches: branches
                .iter()
                .map(|(c, v)| (rename_columns(c, map), rename_columns(v, map)))
                .collect(),
            else_branch: else_branch
                .as_ref()
                .map(|o| Box::new(rename_columns(o, map))),
        },
        leaf => leaf.clone(),
    }
}
