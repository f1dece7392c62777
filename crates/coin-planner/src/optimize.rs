//! Query decomposition and cost-based optimization.
//!
//! "Planning and optimizing the multi-source queries taking into account
//! the sources capabilities as well as the execution and communication
//! costs" (paper §2). Concretely:
//!
//! * **decomposition** — each FROM binding becomes a remote sub-query
//!   against its owning source;
//! * **selection pushdown** — single-binding predicates are evaluated
//!   remotely when the source's capability record allows it;
//! * **projection pushdown** — only columns the query needs are fetched;
//! * **binding patterns** — sources requiring bound columns (web wrappers)
//!   are accessed *dependently*: per distinct value combination from
//!   already-staged results;
//! * **derived literal bindings** — the WHERE's top-level `col = col`
//!   conjuncts close into equivalence classes, and every column of a class
//!   that a conjunct fixes to a string or boolean literal is fixed to it
//!   too (`r1.currency = 'JPY' AND r3.fromCur = r1.currency` gives
//!   `r3.fromCur = 'JPY'`). A derived predicate binds and is pushed like a
//!   written one, so a lookup the query already fixes is fetched
//!   independently, in the first wave, rather than per value of another
//!   binding; the local WHERE keeps the written conjuncts only. Numeric
//!   literals are never propagated: `Int` and `Float` compare through
//!   `f64`, where `=` is not transitive (`Int(2^53) = Float(2^53) =
//!   Int(2^53 + 1)`, yet `Int(2^53) ≠ Int(2^53 + 1)`);
//! * **ordering** — steps run dependencies-first, cheapest-first, and the
//!   local join order follows ascending estimated cardinality.
//!
//! Every decision is individually switchable through [`PlannerConfig`], so
//! the planner tests can compare each one switched off against on.

use std::collections::{BTreeMap, BTreeSet};

use coin_sql::{BinOp, ColumnRef, Expr, Select, SelectItem, TableRef};

use crate::dictionary::Dictionary;
use crate::plan::{DerivedLiteral, FetchStep, ParamBinding, Plan, PlanError};

/// Optimizer switches (all on by default). `PartialEq` lets the system
/// detect a semantically-unchanged reconfiguration and skip plan
/// invalidation entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerConfig {
    /// Push single-binding predicates into capable sources.
    pub pushdown_select: bool,
    /// Fetch only referenced columns.
    pub pushdown_project: bool,
    /// Order fetches / local joins by estimated cardinality.
    pub reorder: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            pushdown_select: true,
            pushdown_project: true,
            reorder: true,
        }
    }
}

/// Per-binding information gathered during decomposition.
struct BindingInfo {
    binding: String,
    source: String,
    table: String,
    /// Single-binding predicates.
    local_preds: Vec<Expr>,
    /// Columns of this binding referenced anywhere in the query.
    used_columns: BTreeSet<String>,
    /// Required-bound columns (from the source's capability record).
    required_bound: Vec<String>,
    /// Base cardinality estimate.
    base_card: f64,
    /// Source cost parameters.
    cost: coin_wrapper::CostParams,
    /// Can the source evaluate predicates?
    can_push: bool,
}

/// Estimated selectivity of a predicate (classic System-R style constants).
fn selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Bin(_, BinOp::Eq, _) => 0.1,
        Expr::Bin(_, BinOp::Neq, _) => 0.9,
        Expr::Bin(_, op, _) if op.is_comparison() => 0.3,
        Expr::Between { .. } => 0.25,
        Expr::InList { list, .. } => (0.1 * list.len() as f64).min(1.0),
        Expr::Like { .. } => 0.25,
        Expr::IsNull { .. } => 0.05,
        _ => 0.5,
    }
}

/// Does this equality fix a column to a literal?
fn column_literal(e: &Expr) -> Option<(&ColumnRef, &Expr)> {
    let Expr::Bin(l, BinOp::Eq, r) = e else {
        return None;
    };
    match (l.as_ref(), r.as_ref()) {
        (Expr::Column(c), lit) if is_literal(lit) => Some((c, lit)),
        (lit, Expr::Column(c)) if is_literal(lit) => Some((c, lit)),
        _ => None,
    }
}

/// Does this equality bind `col` of `binding` to a literal?
fn literal_binding(e: &Expr, binding: &str) -> Option<(String, Expr)> {
    let (col, lit) = column_literal(e)?;
    if col.qualifier.as_deref() == Some(binding) {
        Some((col.column.clone(), lit.clone()))
    } else {
        None
    }
}

fn is_literal(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_)
    )
}

/// The literal bindings the top-level `conjuncts` imply but do not write:
/// `col = col` conjuncts join columns into equivalence classes, and a
/// string or boolean literal that a conjunct fixes one column of a class to
/// fixes every other column of that class. Equality on those literals is
/// transitive (`Value::sql_cmp` compares them only with their own kind), so
/// each derived predicate holds on every row the written ones keep.
fn derive_literals(conjuncts: &[Expr]) -> Vec<DerivedLiteral> {
    // The qualified columns met so far, and a union-find forest over them.
    let mut columns: Vec<&ColumnRef> = Vec::new();
    let mut class: Vec<usize> = Vec::new();
    fn id<'e>(c: &'e ColumnRef, columns: &mut Vec<&'e ColumnRef>, class: &mut Vec<usize>) -> usize {
        columns.iter().position(|k| *k == c).unwrap_or_else(|| {
            columns.push(c);
            class.push(class.len());
            class.len() - 1
        })
    }
    fn root(class: &[usize], mut i: usize) -> usize {
        while class[i] != i {
            i = class[i];
        }
        i
    }
    let mut fixed: Vec<(usize, &Expr)> = Vec::new();
    for c in conjuncts {
        if let Expr::Bin(l, BinOp::Eq, r) = c {
            if let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) {
                if a.qualifier.is_some() && b.qualifier.is_some() {
                    let (a, b) = (
                        id(a, &mut columns, &mut class),
                        id(b, &mut columns, &mut class),
                    );
                    let (a, b) = (root(&class, a), root(&class, b));
                    class[a] = b;
                }
                continue;
            }
        }
        if let Some((col, lit @ (Expr::Str(_) | Expr::Bool(_)))) = column_literal(c) {
            if col.qualifier.is_some() {
                fixed.push((id(col, &mut columns, &mut class), lit));
            }
        }
    }
    let mut derived: Vec<DerivedLiteral> = Vec::new();
    for &(from, literal) in &fixed {
        for (to, column) in columns.iter().enumerate() {
            let known = fixed.iter().any(|&(c, l)| c == to && l == literal)
                || (derived.iter()).any(|d| d.column == **column && d.literal == *literal);
            if to != from && !known && root(&class, to) == root(&class, from) {
                derived.push(DerivedLiteral {
                    column: (*column).clone(),
                    literal: literal.clone(),
                    via: columns[from].clone(),
                });
            }
        }
    }
    derived
}

/// Does this equality link `col` of `binding` to a column of another
/// binding? Returns (this column, other binding, other column).
fn cross_binding(e: &Expr, binding: &str) -> Option<(String, String, String)> {
    let Expr::Bin(l, BinOp::Eq, r) = e else {
        return None;
    };
    let (Expr::Column(a), Expr::Column(b)) = (l.as_ref(), r.as_ref()) else {
        return None;
    };
    let (qa, qb) = (a.qualifier.as_deref()?, b.qualifier.as_deref()?);
    if qa == binding && qb != binding {
        Some((a.column.clone(), qb.to_owned(), b.column.clone()))
    } else if qb == binding && qa != binding {
        Some((b.column.clone(), qa.to_owned(), a.column.clone()))
    } else {
        None
    }
}

/// The planner: dictionary + configuration.
pub struct Planner {
    pub dictionary: Dictionary,
    pub config: PlannerConfig,
}

impl Planner {
    pub fn new(dictionary: Dictionary) -> Planner {
        Planner {
            dictionary,
            config: PlannerConfig::default(),
        }
    }

    pub fn with_config(dictionary: Dictionary, config: PlannerConfig) -> Planner {
        Planner { dictionary, config }
    }

    /// Plan one SELECT block.
    pub fn plan_select(&self, select: &Select) -> Result<Plan, PlanError> {
        let mut s = coin_sql::normalize_select(select, &self.dictionary)?;
        let conjuncts: Vec<Expr> = s
            .where_clause
            .as_ref()
            .map(|w| w.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();

        // ---- constant-fold the WHERE conjuncts --------------------------
        // A conjunct without column references can be decided at plan time:
        // TRUE conjuncts vanish from the plan entirely, and when *every*
        // conjunct is constant with at least one non-TRUE among them the
        // block provably yields no rows (`const_empty`) — execution then
        // stages empty tables and issues zero remote queries. A mix of
        // constant-FALSE and columned conjuncts stays in place: columned
        // predicates may error per row and the evaluator visits conjuncts
        // in order, so short-circuiting the whole block would change
        // observable behaviour.
        let no_cols = coin_rel::Schema::new(Vec::new());
        let mut kept: Vec<Expr> = Vec::new();
        let mut all_const = !conjuncts.is_empty();
        let mut any_non_true = false;
        for c in conjuncts {
            match coin_rel::compile(&c, &no_cols).map(|ce| coin_rel::fold(&ce)) {
                Ok(coin_rel::CExpr::Const(v)) if v.is_true() => {} // drop
                Ok(coin_rel::CExpr::Const(_)) => {
                    any_non_true = true;
                    kept.push(c);
                }
                _ => {
                    all_const = false;
                    kept.push(c);
                }
            }
        }
        let const_empty = all_const && any_non_true;
        let conjuncts = kept;
        s.where_clause = Expr::conjoin(conjuncts.clone());

        // ---- gather per-binding info -----------------------------------
        let mut infos: Vec<BindingInfo> = Vec::new();
        for t in &s.from {
            let src = self
                .dictionary
                .resolve_table(t.source.as_deref(), &t.table)?;
            let caps = src.capabilities();
            let binding = t.binding().to_owned();
            let base_card = src
                .estimated_cardinality(&t.table)
                .map_or(1000.0, |n| n.max(1) as f64);
            infos.push(BindingInfo {
                binding,
                source: src.name().to_owned(),
                table: t.table.clone(),
                local_preds: Vec::new(),
                used_columns: BTreeSet::new(),
                required_bound: caps
                    .bound_columns
                    .get(&t.table)
                    .cloned()
                    .unwrap_or_default(),
                base_card,
                cost: caps.cost,
                can_push: caps.pushdown_select,
            });
        }

        // Used columns per binding (projection pushdown).
        let mut all_cols: Vec<&ColumnRef> = Vec::new();
        for item in &s.items {
            if let SelectItem::Expr { expr, .. } = item {
                expr.columns(&mut all_cols);
            }
        }
        for c in &conjuncts {
            c.columns(&mut all_cols);
        }
        for g in &s.group_by {
            g.columns(&mut all_cols);
        }
        if let Some(h) = &s.having {
            h.columns(&mut all_cols);
        }
        for o in &s.order_by {
            o.expr.columns(&mut all_cols);
        }
        for c in all_cols {
            if let Some(q) = &c.qualifier {
                if let Some(info) = infos.iter_mut().find(|i| i.binding == *q) {
                    info.used_columns.insert(c.column.clone());
                }
            }
        }

        // Single-binding predicates.
        for c in &conjuncts {
            let mut cols = Vec::new();
            c.columns(&mut cols);
            let quals: BTreeSet<&str> =
                cols.iter().filter_map(|c| c.qualifier.as_deref()).collect();
            if quals.len() == 1 {
                let q = *quals.iter().next().unwrap();
                if let Some(info) = infos.iter_mut().find(|i| i.binding == q) {
                    info.local_preds.push(c.clone());
                }
            }
        }
        // Literal bindings implied through join equalities bind and push
        // like written ones; the local WHERE stays as written.
        let derived = derive_literals(&conjuncts);
        for d in &derived {
            let q = d.column.qualifier.as_deref();
            if let Some(info) = infos.iter_mut().find(|i| Some(i.binding.as_str()) == q) {
                info.local_preds.push(d.predicate());
            }
        }

        // ---- build steps ------------------------------------------------
        let mut steps: Vec<FetchStep> = Vec::new();
        for info in &infos {
            // Literal bindings for required-bound columns.
            let mut bound_by_literal: BTreeMap<String, Expr> = BTreeMap::new();
            for p in &info.local_preds {
                if let Some((col, lit)) = literal_binding(p, &info.binding) {
                    bound_by_literal.insert(col, lit);
                }
            }
            // Cross-binding parameters for the rest.
            let mut params: Vec<ParamBinding> = Vec::new();
            for col in &info.required_bound {
                if bound_by_literal.contains_key(col) {
                    continue;
                }
                let mut found = false;
                for c in &conjuncts {
                    if let Some((this_col, other_b, other_c)) = cross_binding(c, &info.binding) {
                        if this_col == *col {
                            params.push(ParamBinding {
                                column: col.clone(),
                                from_binding: other_b,
                                from_column: other_c,
                            });
                            found = true;
                            break;
                        }
                    }
                }
                if !found {
                    return Err(PlanError::UnboundParameter {
                        binding: info.binding.clone(),
                        column: col.clone(),
                    });
                }
            }

            // Remote projection.
            let items: Vec<SelectItem> =
                if self.config.pushdown_project && !info.used_columns.is_empty() {
                    let mut cols: Vec<String> = info.used_columns.iter().cloned().collect();
                    // Parameter columns must flow back for the local join.
                    for p in &params {
                        if !cols.contains(&p.column) {
                            cols.push(p.column.clone());
                        }
                    }
                    cols.sort();
                    cols.iter()
                        .map(|c| SelectItem::Expr {
                            expr: Expr::Column(ColumnRef::bare(c)),
                            alias: None,
                        })
                        .collect()
                } else {
                    vec![SelectItem::Wildcard]
                };

            // Remote predicates: per capability (binding literals always go,
            // the wrapper needs them as parameters).
            let mut remote_preds: Vec<Expr> = Vec::new();
            let mut pushed_selectivity = 1.0;
            for p in &info.local_preds {
                let is_binding_literal = literal_binding(p, &info.binding)
                    .is_some_and(|(c, _)| info.required_bound.contains(&c));
                let push = is_binding_literal || (self.config.pushdown_select && info.can_push);
                if push {
                    pushed_selectivity *= selectivity(p);
                    remote_preds.push(strip_qualifier(p, &info.binding));
                }
            }

            let remote = Select {
                items: items.clone(),
                from: vec![TableRef::new(&info.table)],
                where_clause: Expr::conjoin(remote_preds),
                ..Default::default()
            };

            if params.is_empty() {
                let est_rows = (info.base_card * pushed_selectivity).max(1.0);
                let est_cost = info.cost.latency + info.cost.per_tuple * est_rows;
                steps.push(FetchStep::Independent {
                    source: info.source.clone(),
                    binding: info.binding.clone(),
                    table: info.table.clone(),
                    remote,
                    est_rows,
                    est_cost,
                });
            } else {
                // Distinct parameter combinations estimated from the feeding
                // binding's cardinality (capped: parameters often have few
                // distinct values, e.g. currencies).
                let feeder = params
                    .first()
                    .and_then(|p| infos.iter().find(|i| i.binding == p.from_binding));
                let est_fetches = feeder
                    .map(|f| {
                        let sel: f64 = f.local_preds.iter().map(selectivity).product();
                        (f.base_card * sel).clamp(1.0, 64.0)
                    })
                    .unwrap_or(8.0);
                let est_cost = est_fetches * (info.cost.latency + info.cost.per_tuple * 2.0);
                steps.push(FetchStep::Dependent {
                    source: info.source.clone(),
                    binding: info.binding.clone(),
                    table: info.table.clone(),
                    remote_base: remote,
                    params,
                    est_fetches,
                    est_cost,
                });
            }
        }

        // ---- order steps: dependencies first, then cheapest-first --------
        let ordered = order_steps(steps, self.config.reorder)?;

        // ---- local query over staged tables ------------------------------
        let mut local_from: Vec<TableRef> =
            ordered.iter().map(|s| TableRef::new(s.binding())).collect();
        if !self.config.reorder {
            // Preserve the query's FROM order locally.
            local_from = s.from.iter().map(|t| TableRef::new(t.binding())).collect();
        }
        let local = Select {
            distinct: s.distinct,
            items: s.items.clone(),
            from: local_from,
            where_clause: s.where_clause.clone(),
            group_by: s.group_by.clone(),
            having: s.having.clone(),
            order_by: s.order_by.clone(),
            limit: s.limit,
        };

        let est_cost: f64 = ordered.iter().map(FetchStep::est_cost).sum();

        // The plan's expression-program cache starts empty: the first
        // execution lowers the local pipeline's expressions into it (see
        // `crate::exec::execute_branches`) and later ones reuse them.
        let programs = std::sync::Arc::new(coin_rel::ExprCache::new());

        Ok(Plan {
            steps: ordered,
            local,
            est_cost,
            programs,
            const_empty,
            derived,
        })
    }
}

/// Order steps so dependencies come first; among available steps pick the
/// cheapest (when `reorder`) or keep query order.
fn order_steps(steps: Vec<FetchStep>, reorder: bool) -> Result<Vec<FetchStep>, PlanError> {
    let mut pending = steps;
    let mut done: Vec<FetchStep> = Vec::new();
    let mut staged: BTreeSet<String> = BTreeSet::new();
    while !pending.is_empty() {
        // Steps whose dependencies are all staged.
        let mut candidates: Vec<usize> = pending
            .iter()
            .enumerate()
            .filter(|(_, s)| s.dependencies().iter().all(|d| staged.contains(*d)))
            .map(|(i, _)| i)
            .collect();
        if candidates.is_empty() {
            return Err(PlanError::CyclicDependency(
                pending.iter().map(|s| s.binding().to_owned()).collect(),
            ));
        }
        let pick = if reorder {
            candidates
                .drain(..)
                .min_by(|&a, &b| {
                    pending[a]
                        .est_cost()
                        .partial_cmp(&pending[b].est_cost())
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap()
        } else {
            candidates[0]
        };
        let step = pending.remove(pick);
        staged.insert(step.binding().to_owned());
        done.push(step);
    }
    Ok(done)
}

/// Remove the binding qualifier from column references (remote queries see
/// their own table unqualified).
fn strip_qualifier(e: &Expr, binding: &str) -> Expr {
    match e {
        Expr::Column(c) if c.qualifier.as_deref() == Some(binding) => {
            Expr::Column(ColumnRef::bare(&c.column))
        }
        Expr::Bin(l, op, r) => Expr::Bin(
            Box::new(strip_qualifier(l, binding)),
            *op,
            Box::new(strip_qualifier(r, binding)),
        ),
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(strip_qualifier(inner, binding))),
        Expr::Func(f, args) => Expr::Func(
            f.clone(),
            args.iter().map(|a| strip_qualifier(a, binding)).collect(),
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(strip_qualifier(expr, binding)),
            low: Box::new(strip_qualifier(low, binding)),
            high: Box::new(strip_qualifier(high, binding)),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(strip_qualifier(expr, binding)),
            list: list.iter().map(|a| strip_qualifier(a, binding)).collect(),
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(strip_qualifier(expr, binding)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(strip_qualifier(expr, binding)),
            negated: *negated,
        },
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
    use coin_wrapper::{Capabilities, RelationalSource};

    /// Source `s<table>` holding `table(col)` with `rows`; when `bound`, the
    /// source insists that `col` is bound, as a web wrapper does.
    fn source(
        table: &str,
        col: &str,
        ty: ColumnType,
        rows: Vec<Value>,
        bound: bool,
    ) -> RelationalSource {
        let t = one_column(table, col, ty, rows);
        let mut source = RelationalSource::new(&format!("s{table}"), Catalog::new().with_table(t));
        if bound {
            let mut caps = Capabilities {
                pushdown_select: true,
                ..Capabilities::default()
            };
            caps.bound_columns
                .insert(table.to_owned(), vec![col.to_owned()]);
            source = source.with_capabilities(caps);
        }
        source
    }

    fn one_column(table: &str, col: &str, ty: ColumnType, rows: Vec<Value>) -> Table {
        Table::from_rows(
            table,
            Schema::of(&[(col, ty)]),
            rows.into_iter().map(|v| vec![v]).collect(),
        )
    }

    fn strs(values: &[&str]) -> Vec<Value> {
        values.iter().map(|v| Value::str(v)).collect()
    }

    fn plan(planner: &Planner, sql: &str) -> Plan {
        let q = coin_sql::parse_query(sql).unwrap();
        planner.plan_select(q.branches()[0]).unwrap()
    }

    fn remote_of(plan: &Plan, binding: &str) -> String {
        let step = plan.steps.iter().find(|s| s.binding() == binding).unwrap();
        step.remote().to_string()
    }

    fn derived(plan: &Plan) -> Vec<String> {
        (plan.derived.iter())
            .map(|d| format!("{} (via {})", d.predicate(), d.via))
            .collect()
    }

    #[test]
    fn a_chain_of_equalities_binds_every_column_to_the_literal() {
        let mut dict = Dictionary::new();
        dict.register_source(source("t1", "x", ColumnType::Str, strs(&["k", "m"]), true))
            .unwrap();
        dict.register_source(source("t2", "y", ColumnType::Str, strs(&["k", "n"]), true))
            .unwrap();
        dict.register_source(source("t3", "z", ColumnType::Str, strs(&["k", "m"]), false))
            .unwrap();
        let planner = Planner::new(dict);
        let sql = "SELECT a.x, b.y, c.z FROM t1 a, t2 b, t3 c \
                   WHERE a.x = b.y AND b.y = c.z AND c.z = 'k'";
        let plan = plan(&planner, sql);
        assert_eq!(
            derived(&plan),
            ["a.x = 'k' (via c.z)", "b.y = 'k' (via c.z)"]
        );
        // Both required-bound sources are bound by the derived literal: no
        // fetch waits for another.
        assert!(plan
            .steps
            .iter()
            .all(|s| matches!(s, FetchStep::Independent { .. })));
        assert_eq!(remote_of(&plan, "a"), "SELECT x FROM t1 WHERE x = 'k'");
        assert_eq!(remote_of(&plan, "b"), "SELECT y FROM t2 WHERE y = 'k'");
        assert_eq!(remote_of(&plan, "c"), "SELECT z FROM t3 WHERE z = 'k'");
        // The local query keeps the WHERE as written.
        assert_eq!(
            plan.local.where_clause.as_ref().unwrap().to_string(),
            "a.x = b.y AND b.y = c.z AND c.z = 'k'"
        );
        let (t, _) = crate::execute_plan(&plan, &planner.dictionary).unwrap();
        assert_eq!(t.rows, vec![strs(&["k", "k", "k"])]);
    }

    #[test]
    fn conflicting_literals_push_both_and_answer_empty() {
        let mut dict = Dictionary::new();
        dict.register_source(source(
            "t1",
            "x",
            ColumnType::Str,
            strs(&["JPY", "USD"]),
            false,
        ))
        .unwrap();
        dict.register_source(source(
            "t2",
            "y",
            ColumnType::Str,
            strs(&["JPY", "USD"]),
            true,
        ))
        .unwrap();
        let planner = Planner::new(dict);
        let plan = plan(
            &planner,
            "SELECT a.x FROM t1 a, t2 b WHERE a.x = 'JPY' AND b.y = a.x AND b.y = 'USD'",
        );
        assert_eq!(
            derived(&plan),
            ["b.y = 'JPY' (via a.x)", "a.x = 'USD' (via b.y)"]
        );
        assert_eq!(
            remote_of(&plan, "a"),
            "SELECT x FROM t1 WHERE x = 'JPY' AND x = 'USD'"
        );
        assert_eq!(
            remote_of(&plan, "b"),
            "SELECT y FROM t2 WHERE y = 'USD' AND y = 'JPY'"
        );
        let (t, stats) = crate::execute_plan(&plan, &planner.dictionary).unwrap();
        assert!(t.rows.is_empty());
        assert_eq!(stats.rows_shipped, 0);
    }

    #[test]
    fn an_equality_inside_or_derives_nothing() {
        let mut dict = Dictionary::new();
        dict.register_source(source("t1", "x", ColumnType::Str, strs(&["k", "m"]), false))
            .unwrap();
        dict.register_source(source("t2", "y", ColumnType::Str, strs(&["k", "m"]), false))
            .unwrap();
        let planner = Planner::new(dict);
        for sql in [
            "SELECT a.x FROM t1 a, t2 b WHERE (a.x = b.y OR a.x = 'm') AND b.y = 'k'",
            "SELECT a.x FROM t1 a, t2 b WHERE a.x = b.y AND (b.y = 'k' OR b.y = 'm')",
        ] {
            let plan = plan(&planner, sql);
            assert!(plan.derived.is_empty(), "{sql}: {:?}", derived(&plan));
            assert_eq!(remote_of(&plan, "a"), "SELECT x FROM t1", "{sql}");
            assert!(!plan.explain().contains("derived:"), "{sql}");
        }
    }

    #[test]
    fn numeric_literals_are_never_propagated() {
        // 2^53 as a float equals both 2^53 and 2^53 + 1 as integers, which
        // differ from each other: `=` across Int and Float is not transitive.
        let two_53 = 1_i64 << 53;
        let ns = vec![Value::Int(two_53), Value::Int(two_53 + 1)];
        let ms = vec![Value::Float(two_53 as f64), Value::Int(two_53 + 1)];
        let merged = Catalog::new()
            .with_table(one_column("t1", "n", ColumnType::Int, ns.clone()))
            .with_table(one_column("t2", "m", ColumnType::Any, ms.clone()));
        let mut dict = Dictionary::new();
        dict.register_source(source("t1", "n", ColumnType::Int, ns, false))
            .unwrap();
        dict.register_source(source("t2", "m", ColumnType::Any, ms, false))
            .unwrap();
        let planner = Planner::new(dict);
        for literal in [format!("{two_53}"), format!("{two_53}.0")] {
            let sql =
                format!("SELECT a.n, b.m FROM t1 a, t2 b WHERE a.n = b.m AND b.m = {literal}");
            let plan = plan(&planner, &sql);
            assert!(plan.derived.is_empty(), "{sql}: {:?}", derived(&plan));
            assert_eq!(remote_of(&plan, "a"), "SELECT n FROM t1", "{sql}");
            // `b.m = 2^53` keeps Float(2^53), which both a-rows equal; a
            // derived `a.n = 2^53` would drop a = 2^53 + 1.
            let (t, _) = crate::execute_plan(&plan, &planner.dictionary).unwrap();
            let local = coin_rel::execute_sql(&sql, &merged).unwrap();
            assert_eq!(t.rows, local.rows, "{sql}");
        }
    }
}
