//! The mediation procedure: SQL in, mediated SQL out.
//!
//! "The context mediator rewrites a query posed in a receiver's context
//! into a mediated query where all potential conflicts are explicitly
//! resolved. This rewriting, based on an abductive procedure, is
//! accomplished by determining what conflicts exist and how they may be
//! resolved by comparing relevant statements in the respective contexts."
//! (paper §1)
//!
//! The pipeline:
//!
//! 1. normalize the receiver's SQL (conjunctive SELECT-FROM-WHERE);
//! 2. compile domain model + context theories + elevation axioms +
//!    conversion functions into an abductive logic program ([`crate::encode`]),
//!    built as clauses the solver runs directly — the program's text is
//!    printed only when asked for ([`crate::CoinSystem::mediation_program`]);
//! 3. translate the query into goal literals over `rcv/2` (receiver-context
//!    values) with comparison predicates mapped to the abducible case
//!    predicates `eqc`/`neqc` and residual arithmetic comparisons;
//! 4. enumerate all abductive answers — each hypothesis set Δ (case
//!    assumptions + ancillary-source accesses) plus residual constraints is
//!    one *conflict resolution case*;
//! 5. decode every answer into one SQL sub-query: Δ's `eqc`/`neqc` become
//!    WHERE equalities, ancillary atoms become joins against the conversion
//!    source, residual constraints become comparisons, and the converted
//!    output terms become the SELECT list;
//! 6. the mediated query is the UNION of the sub-queries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use coin_logic::{CmpOp, Literal, Program, Solver, SolverConfig, SolverLimit, Sym, Term};
use coin_rel::Value;
use coin_sql::normalize::SchemaLookup;
use coin_sql::{BinOp, ColumnRef, Expr, Query, Select, SelectItem, TableRef};

use crate::encode::{col_term, value_term, Encoder};
use crate::model::{
    ContextTheory, Conversion, ConversionRegistry, DomainModel, ElevationRegistry, ModelError,
};
use crate::versions::{ModelPart, PlanDeps};

/// Mediation errors.
#[derive(Debug)]
pub enum MediationError {
    Model(ModelError),
    Sql(coin_sql::SqlError),
    Normalize(coin_sql::NormalizeError),
    /// The query uses constructs outside the conjunctive fragment the
    /// mediator rewrites (disjunction, aggregates inside mediation, …).
    Unsupported(String),
    /// Decoding an abductive answer back to SQL failed (internal).
    Decode(String),
    /// A solver limit cut the enumeration of cases short, so the mediated
    /// union would miss cases: an incomplete answer is refused, never
    /// returned.
    Truncated(SolverLimit),
}

impl std::fmt::Display for MediationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MediationError::Model(e) => write!(f, "{e}"),
            MediationError::Sql(e) => write!(f, "{e}"),
            MediationError::Normalize(e) => write!(f, "{e}"),
            MediationError::Unsupported(m) => write!(f, "mediation does not support: {m}"),
            MediationError::Decode(m) => write!(f, "internal decode error: {m}"),
            MediationError::Truncated(limit) => write!(
                f,
                "mediation stopped at the solver's {limit}; \
                 the mediated answer would be incomplete"
            ),
        }
    }
}

impl std::error::Error for MediationError {}

impl From<ModelError> for MediationError {
    fn from(e: ModelError) -> Self {
        MediationError::Model(e)
    }
}
impl From<coin_sql::SqlError> for MediationError {
    fn from(e: coin_sql::SqlError) -> Self {
        MediationError::Sql(e)
    }
}
impl From<coin_sql::NormalizeError> for MediationError {
    fn from(e: coin_sql::NormalizeError) -> Self {
        MediationError::Normalize(e)
    }
}

/// One mediated sub-query with its provenance.
#[derive(Debug, Clone)]
pub struct BranchReport {
    /// The case assumptions (Δ) this branch rests on, rendered.
    pub assumptions: Vec<String>,
    /// Residual comparison constraints, rendered.
    pub residuals: Vec<String>,
    /// The sub-query.
    pub select: Select,
}

/// The result of mediation.
#[derive(Debug, Clone)]
pub struct Mediated {
    /// The mediated query: a union of conflict-resolution sub-queries.
    pub query: Query,
    /// Per-branch provenance (the mediator's explanation).
    pub branches: Vec<BranchReport>,
    /// Number of logic statements compiled for this mediation (the program
    /// itself is rebuilt on demand by [`Mediator::program`]).
    pub statements: usize,
    /// The model parts this mediation consulted — the read footprint the
    /// prepared-query cache uses for dependency-exact invalidation:
    /// the receiver and source contexts, the staged relations'
    /// elevations, every applied conversion function, and every relation
    /// appearing in a mediated branch (ancillary joins included).
    pub deps: PlanDeps,
    /// `query` and [`Mediated::explain`] as text, rendered on first use so
    /// a cached plan prints them once however many replies carry them.
    /// Kept exactly sized: a cache holds one per plan for its lifetime.
    sql_text: OnceLock<Box<str>>,
    explanation: OnceLock<Box<str>>,
}

impl Mediated {
    /// The mediated query as SQL text, rendered once.
    pub fn sql_text(&self) -> &str {
        self.sql_text
            .get_or_init(|| self.query.to_string().into_boxed_str())
    }

    /// [`Mediated::explain`], rendered once.
    pub fn explanation(&self) -> &str {
        self.explanation
            .get_or_init(|| self.explain().into_boxed_str())
    }

    /// A human-readable mediation report.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "mediated into {} sub-quer{}:",
            self.branches.len(),
            if self.branches.len() == 1 { "y" } else { "ies" }
        )
        .unwrap();
        for (i, b) in self.branches.iter().enumerate() {
            writeln!(out, "case {}:", i + 1).unwrap();
            if b.assumptions.is_empty() {
                writeln!(out, "  assumptions: (none — contexts agree)").unwrap();
            } else {
                for a in &b.assumptions {
                    writeln!(out, "  assume {a}").unwrap();
                }
            }
            for r in &b.residuals {
                writeln!(out, "  check  {r}").unwrap();
            }
            writeln!(out, "  {}", b.select).unwrap();
        }
        out
    }
}

/// The context mediator.
pub struct Mediator<'a> {
    pub domain: &'a DomainModel,
    pub conversions: &'a ConversionRegistry,
    pub contexts: &'a BTreeMap<String, ContextTheory>,
    pub elevations: &'a ElevationRegistry,
    /// Solver bounds. An enumeration they cut short fails with
    /// [`MediationError::Truncated`] instead of returning fewer cases.
    pub solver_config: SolverConfig,
}

impl<'a> Mediator<'a> {
    pub fn new(
        domain: &'a DomainModel,
        conversions: &'a ConversionRegistry,
        contexts: &'a BTreeMap<String, ContextTheory>,
        elevations: &'a ElevationRegistry,
    ) -> Mediator<'a> {
        Mediator {
            domain,
            conversions,
            contexts,
            elevations,
            solver_config: SolverConfig {
                max_answers: 512,
                ..SolverConfig::default()
            },
        }
    }

    /// Mediate a conjunctive SELECT posed in `receiver` context.
    /// `schema` resolves bare column references (the dictionary).
    ///
    /// This is the compile phase of the prepare/execute split: the whole
    /// procedure is a pure function of the query and the registered model,
    /// so its result can be captured in a
    /// [`crate::prepared::PreparedQuery`] and reused until the model
    /// changes. It runs as a pipeline of staged helpers: analyze
    /// (`referenced_columns`) → `Mediator::compile_program` →
    /// `build_goals` → solve → `decode_branches`.
    pub fn mediate_select(
        &self,
        select: &Select,
        receiver: &str,
        schema: &dyn SchemaLookup,
    ) -> Result<Mediated, MediationError> {
        let Compiled {
            select: s,
            referenced,
            enc,
            mut deps,
        } = self.compile(select, receiver, schema)?;
        let statements = enc.statement_count();

        // ---- solve --------------------------------------------------------
        let goals = build_goals(&s, &referenced)?;
        let nvars = (referenced.len() + s.items.len()) as u32;
        let solver = Solver::with_config(enc.program(), self.solver_config);
        let answers = solver.all_answers(&goals, nvars);
        if let Some(limit) = solver.truncated_by() {
            return Err(MediationError::Truncated(limit));
        }
        if answers.is_empty() {
            // No consistent case exists — the query is provably empty
            // (e.g. a ground-false predicate, or contradictory context
            // assumptions). Mediate to a single unsatisfiable branch.
            let empty = Select {
                items: s.items.clone(),
                from: s.from.clone(),
                where_clause: Some(Expr::bin(Expr::Int(0), BinOp::Eq, Expr::Int(1))),
                ..Default::default()
            };
            return Ok(Mediated {
                query: Query::Select(Box::new(empty.clone())),
                branches: vec![BranchReport {
                    assumptions: vec!["no consistent conflict-resolution case exists; \
                         the answer is provably empty"
                        .into()],
                    residuals: Vec::new(),
                    select: empty,
                }],
                statements,
                deps,
                sql_text: OnceLock::new(),
                explanation: OnceLock::new(),
            });
        }

        let branches = decode_branches(&answers, &s, referenced.len(), &enc.ancillaries)?;

        // Ancillary lookups surface as extra FROM tables in the decoded
        // branches (e.g. the exchange-rate relation): stage them in the
        // footprint too, so a mutation affecting the conversion source's
        // resolvability recompiles dependents.
        for b in &branches {
            for t in &b.select.from {
                deps.record(ModelPart::Relation(t.table.clone()));
            }
        }

        let query = Query::union_of(branches.iter().map(|b| b.select.clone()).collect(), false);
        Ok(Mediated {
            query,
            branches,
            statements,
            deps,
            sql_text: OnceLock::new(),
            explanation: OnceLock::new(),
        })
    }

    /// The logic program [`Mediator::mediate_select`] solves for `select`:
    /// the explicit codification of the contexts the query involves, which
    /// [`crate::encode::program_text`] prints. Compiled afresh on each call.
    pub fn program(
        &self,
        select: &Select,
        receiver: &str,
        schema: &dyn SchemaLookup,
    ) -> Result<Program, MediationError> {
        Ok(self.compile(select, receiver, schema)?.enc.into_program())
    }

    /// The compile phases up to the logic program: normalize and check the
    /// query, collect its column references, and encode the program.
    fn compile(
        &self,
        select: &Select,
        receiver: &str,
        schema: &dyn SchemaLookup,
    ) -> Result<Compiled, MediationError> {
        let s = coin_sql::normalize_select(select, schema)?;
        check_conjunctive(&s)?;
        let referenced = referenced_columns(&s)?;

        // Normalization resolved the FROM tables through the dictionary:
        // their resolvability is part of the read footprint.
        let mut deps = PlanDeps::new();
        for t in &s.from {
            deps.record(ModelPart::Relation(t.table.clone()));
        }

        let enc = self.compile_program(&s, receiver, &referenced, &mut deps)?;
        Ok(Compiled {
            select: s,
            referenced,
            enc,
            deps,
        })
    }

    /// Compile phase 2: codify the domain model, the contexts relevant to
    /// the referenced columns, the elevation axioms and the conversion
    /// functions into an abductive logic program.
    fn compile_program(
        &self,
        s: &Select,
        receiver: &str,
        referenced: &[(String, String)],
        deps: &mut PlanDeps,
    ) -> Result<Encoder, MediationError> {
        let receiver_ctx = self
            .contexts
            .get(receiver)
            .ok_or_else(|| ModelError::UnknownContext(receiver.to_owned()))?;
        deps.record(ModelPart::Context(receiver.to_owned()));
        let mut enc = Encoder::new();
        enc.preamble();
        enc.conversions(self.conversions);
        for t in &s.from {
            let elevation = self.elevations.get(&t.table)?;
            deps.record(ModelPart::Elevation(t.table.clone()));
            let source_ctx = self
                .contexts
                .get(&elevation.context)
                .ok_or_else(|| ModelError::UnknownContext(elevation.context.clone()))?;
            deps.record(ModelPart::Context(elevation.context.clone()));
            let binding = t.binding();
            for (b, c) in referenced {
                if b == binding {
                    enc.elevated_column(
                        self.domain,
                        self.conversions,
                        source_ctx,
                        receiver_ctx,
                        elevation,
                        binding,
                        c,
                        deps,
                    )?;
                }
            }
        }
        Ok(enc)
    }
}

/// What [`Mediator::compile`] hands the solve and decode phases.
struct Compiled {
    /// The normalized query.
    select: Select,
    /// Its distinct `(binding, column)` references (see
    /// [`referenced_columns`]).
    referenced: Vec<(String, String)>,
    enc: Encoder,
    /// The read footprint gathered so far.
    deps: PlanDeps,
}

/// Compile phase 1: the distinct `(binding, column)` pairs referenced
/// anywhere in the normalized query, in first-reference order.
fn referenced_columns(s: &Select) -> Result<Vec<(String, String)>, MediationError> {
    let mut cols: Vec<&ColumnRef> = Vec::new();
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            expr.columns(&mut cols);
        }
    }
    if let Some(w) = &s.where_clause {
        w.columns(&mut cols);
    }
    let mut referenced: Vec<(String, String)> = Vec::new();
    for c in cols {
        let q = c.qualifier.clone().ok_or_else(|| {
            MediationError::Decode(format!("unqualified column {c} after normalize"))
        })?;
        let pair = (q, c.column.clone());
        if !referenced.contains(&pair) {
            referenced.push(pair);
        }
    }
    Ok(referenced)
}

/// Compile phase 3: translate the query into goals over `rcv/2` plus the
/// abducible case predicates. Variables are numbered as they first appear:
/// the referenced columns' receiver values `0..referenced.len()`, then one
/// output variable per select item.
fn build_goals(
    s: &Select,
    referenced: &[(String, String)],
) -> Result<Vec<Literal>, MediationError> {
    let rcv = Sym::intern("rcv");
    let mut goals = Vec::new();
    for (i, (b, c)) in (0..).zip(referenced) {
        goals.push(Literal::Pos(Term::Compound(
            rcv,
            vec![col_term(b, c), Term::var(i)],
        )));
    }
    if let Some(w) = &s.where_clause {
        for raw in w.conjuncts() {
            for conjunct in desugar_conjunct(raw) {
                goals.push(where_goal(&conjunct, referenced)?);
            }
        }
    }
    let first_out = referenced.len() as u32;
    for (j, item) in (first_out..).zip(&s.items) {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(MediationError::Unsupported("wildcard select item".into()));
        };
        let term = expr_to_goal_term(expr, referenced)?;
        let op = if is_arith_expr(expr) { "is" } else { "=" };
        goals.push(Literal::Pos(Term::compound(op, vec![Term::var(j), term])));
    }
    Ok(goals)
}

/// Compile phase 4: decode every abductive answer into one SQL sub-query,
/// dropping branches whose rendered SQL duplicates an earlier one.
fn decode_branches(
    answers: &[coin_logic::Answer],
    s: &Select,
    first_out: usize,
    ancillaries: &[(String, Conversion)],
) -> Result<Vec<BranchReport>, MediationError> {
    let mut branches: Vec<BranchReport> = Vec::new();
    let mut seen_sql: Vec<String> = Vec::new();
    for ans in answers {
        let branch = decode_answer(ans, s, first_out, ancillaries)?;
        let printed = branch.select.to_string();
        if !seen_sql.contains(&printed) {
            seen_sql.push(printed);
            branches.push(branch);
        }
    }
    Ok(branches)
}

/// Reject constructs outside the conjunctive SPJ fragment.
fn check_conjunctive(s: &Select) -> Result<(), MediationError> {
    if !s.group_by.is_empty() || s.having.is_some() {
        return Err(MediationError::Unsupported(
            "GROUP BY/HAVING (aggregate above the mediated core instead)".into(),
        ));
    }
    if !s.order_by.is_empty() || s.limit.is_some() || s.distinct {
        return Err(MediationError::Unsupported(
            "ORDER BY/LIMIT/DISTINCT (apply above the mediated core instead)".into(),
        ));
    }
    for item in &s.items {
        if let SelectItem::Expr { expr, .. } = item {
            if expr.has_aggregate() {
                return Err(MediationError::Unsupported("aggregates in SELECT".into()));
            }
        }
    }
    if let Some(w) = &s.where_clause {
        for c in w.conjuncts() {
            match c {
                Expr::Bin(_, op, _) if op.is_comparison() => {}
                // Non-negated BETWEEN desugars to two comparisons.
                Expr::Between { negated: false, .. } => {}
                Expr::Bin(_, BinOp::Or, _) => {
                    return Err(MediationError::Unsupported("disjunction in WHERE".into()))
                }
                other => {
                    return Err(MediationError::Unsupported(format!(
                        "WHERE predicate {other}"
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Desugar supported predicate forms into plain comparisons
/// (`x BETWEEN lo AND hi` → `x >= lo, x <= hi`).
fn desugar_conjunct(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Between {
            expr,
            low,
            high,
            negated: false,
        } => vec![
            Expr::Bin(expr.clone(), BinOp::Ge, low.clone()),
            Expr::Bin(expr.clone(), BinOp::Le, high.clone()),
        ],
        other => vec![other.clone()],
    }
}

/// Is the expression arithmetic (needs `is/2`) rather than a plain term?
fn is_arith_expr(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Bin(_, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div, _)
    )
}

/// Translate a scalar expression into a logic term over the column vars
/// (column `i` of `referenced` is variable `i`).
fn expr_to_goal_term(e: &Expr, referenced: &[(String, String)]) -> Result<Term, MediationError> {
    Ok(match e {
        Expr::Column(c) => {
            let q = c.qualifier.as_deref().unwrap_or_default();
            let i = referenced
                .iter()
                .position(|(b, col)| b == q && *col == c.column)
                .ok_or_else(|| MediationError::Decode(format!("no var for column {c}")))?;
            Term::var(i as u32)
        }
        Expr::Int(i) => Term::Int(*i),
        Expr::Float(f) => Term::float(*f),
        // A query literal is not interned: fresh literals must not grow
        // the process-wide symbol table.
        Expr::Str(s) => Term::Str(Arc::from(s.as_str())),
        Expr::Bool(b) => value_term(&Value::Bool(*b)),
        Expr::Bin(l, op, r) if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                _ => unreachable!(),
            };
            Term::compound(
                sym,
                vec![
                    expr_to_goal_term(l, referenced)?,
                    expr_to_goal_term(r, referenced)?,
                ],
            )
        }
        other => {
            return Err(MediationError::Unsupported(format!(
                "expression {other} in mediated query"
            )))
        }
    })
}

/// Translate a WHERE comparison into a goal.
fn where_goal(e: &Expr, referenced: &[(String, String)]) -> Result<Literal, MediationError> {
    let Expr::Bin(l, op, r) = e else {
        return Err(MediationError::Unsupported(format!("WHERE predicate {e}")));
    };
    let predicate = match op {
        BinOp::Eq => "eqc",
        BinOp::Neq => "neqc",
        BinOp::Lt => "<",
        BinOp::Le => "=<",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        other => {
            return Err(MediationError::Unsupported(format!(
                "comparison {} in WHERE",
                other.sql()
            )))
        }
    };
    let args = vec![
        expr_to_goal_term(l, referenced)?,
        expr_to_goal_term(r, referenced)?,
    ];
    Ok(Literal::Pos(Term::compound(predicate, args)))
}

// ---------------------------------------------------------------------------
// Decoding abductive answers into SQL branches
// ---------------------------------------------------------------------------

fn decode_answer(
    ans: &coin_logic::Answer,
    original: &Select,
    first_out: usize,
    ancillaries: &[(String, Conversion)],
) -> Result<BranchReport, MediationError> {
    // 1. Ancillary atoms introduce FROM aliases and map their rate variable.
    let mut from = original.from.clone();
    let mut used_bindings: Vec<String> = from.iter().map(|t| t.binding().to_owned()).collect();
    let mut var_columns: BTreeMap<u32, ColumnRef> = BTreeMap::new();
    let mut join_preds: Vec<Expr> = Vec::new();
    let mut assumptions: Vec<String> = Vec::new();

    for atom in &ans.delta {
        let Term::Compound(f, args) = atom else {
            return Err(MediationError::Decode(format!(
                "non-compound Δ atom {atom}"
            )));
        };
        let fname = f.as_str();
        if let Some(modifier) = fname.strip_prefix("anc_") {
            let Some((
                _,
                Conversion::Lookup {
                    relation,
                    from_col,
                    to_col,
                    factor_col,
                },
            )) = ancillaries.iter().find(|(m, _)| m == modifier)
            else {
                return Err(MediationError::Decode(format!(
                    "no ancillary registered for modifier {modifier}"
                )));
            };
            // Fresh alias for the conversion relation.
            let mut alias = relation.clone();
            let mut k = 1;
            while used_bindings.contains(&alias) {
                k += 1;
                alias = format!("{relation}_{k}");
            }
            used_bindings.push(alias.clone());
            from.push(TableRef {
                source: None,
                table: relation.clone(),
                alias: if alias == *relation {
                    None
                } else {
                    Some(alias.clone())
                },
            });
            // Join predicates from/to; factor variable maps to the column.
            let [fterm, tterm, rterm] = args.as_slice() else {
                return Err(MediationError::Decode(format!("bad ancillary atom {atom}")));
            };
            if let Term::Var(v) = rterm {
                var_columns.insert(v.0, ColumnRef::new(&alias, factor_col));
            }
            let fexpr = term_to_expr(fterm, &var_columns)?;
            let texpr = term_to_expr(tterm, &var_columns)?;
            join_preds.push(Expr::bin(
                Expr::Column(ColumnRef::new(&alias, from_col)),
                BinOp::Eq,
                fexpr,
            ));
            join_preds.push(Expr::bin(
                Expr::Column(ColumnRef::new(&alias, to_col)),
                BinOp::Eq,
                texpr,
            ));
            assumptions.push(format!("{modifier} conversion via {relation} ({atom})"));
        }
    }

    // 2. Case predicates become WHERE conjuncts.
    let mut case_preds: Vec<Expr> = Vec::new();
    for atom in &ans.delta {
        let Term::Compound(f, args) = atom else {
            continue;
        };
        match f.as_str() {
            "eqc" | "neqc" => {
                let op = if f.as_str() == "eqc" {
                    BinOp::Eq
                } else {
                    BinOp::Neq
                };
                let l = term_to_expr(&args[0], &var_columns)?;
                let r = term_to_expr(&args[1], &var_columns)?;
                case_preds.push(Expr::bin(l, op, r));
                assumptions.push(format!("{atom}"));
            }
            _ => {} // ancillaries handled above
        }
    }

    // 3. Residual constraints.
    let mut residual_preds: Vec<Expr> = Vec::new();
    let mut residuals: Vec<String> = Vec::new();
    for c in &ans.constraints {
        let op = match c.op {
            CmpOp::Lt => BinOp::Lt,
            CmpOp::Le => BinOp::Le,
            CmpOp::Gt => BinOp::Gt,
            CmpOp::Ge => BinOp::Ge,
            CmpOp::Neq => BinOp::Neq,
            CmpOp::Eq => BinOp::Eq,
        };
        let l = term_to_expr(&c.lhs, &var_columns)?;
        let r = term_to_expr(&c.rhs, &var_columns)?;
        residual_preds.push(Expr::bin(l, op, r));
        residuals.push(c.to_string());
    }

    // 4. SELECT list from the output variables.
    let mut items = Vec::new();
    for (j, item) in original.items.iter().enumerate() {
        let SelectItem::Expr { alias, .. } = item else {
            unreachable!()
        };
        let term = &ans.bindings[first_out + j];
        items.push(SelectItem::Expr {
            expr: term_to_expr(term, &var_columns)?,
            alias: alias.clone(),
        });
    }

    // 5. Assemble and simplify.
    let mut preds = Vec::new();
    preds.extend(case_preds);
    preds.extend(join_preds);
    preds.extend(residual_preds);
    let preds = simplify_conjuncts(preds);

    let select = Select {
        items,
        from,
        where_clause: Expr::conjoin(preds),
        ..Default::default()
    };
    Ok(BranchReport {
        assumptions,
        residuals,
        select,
    })
}

/// Convert a logic term back into a SQL expression.
fn term_to_expr(t: &Term, var_columns: &BTreeMap<u32, ColumnRef>) -> Result<Expr, MediationError> {
    Ok(match t {
        Term::Int(i) => Expr::Int(*i),
        Term::Float(f) => Expr::Float(f.0),
        Term::Str(s) => Expr::Str(s.to_string()),
        Term::Atom(a) => match a.as_str() {
            "true" => Expr::Bool(true),
            "false" => Expr::Bool(false),
            "null" => Expr::Null,
            other => Expr::Str(other.to_owned()),
        },
        Term::Var(v) => Expr::Column(
            var_columns
                .get(&v.0)
                .ok_or_else(|| {
                    MediationError::Decode(format!("unbound variable _V{} in answer", v.0))
                })?
                .clone(),
        ),
        Term::Compound(f, args) => match (f.as_str(), args.as_slice()) {
            ("col", [Term::Atom(b), Term::Atom(c)]) => {
                Expr::Column(ColumnRef::new(b.as_str(), c.as_str()))
            }
            (op @ ("+" | "-" | "*" | "/"), [l, r]) => {
                let lo = term_to_expr(l, var_columns)?;
                let ro = term_to_expr(r, var_columns)?;
                let bop = match op {
                    "+" => BinOp::Add,
                    "-" => BinOp::Sub,
                    "*" => BinOp::Mul,
                    "/" => BinOp::Div,
                    _ => unreachable!(),
                };
                Expr::bin(lo, bop, ro)
            }
            _ => {
                return Err(MediationError::Decode(format!(
                    "cannot render term {t} as SQL"
                )))
            }
        },
    })
}

/// Branch-level predicate cleanup:
/// * drop duplicates;
/// * drop `X <> c2` when `X = c1` (distinct constants) is present — the
///   equality subsumes the disequality, matching the paper's first branch
///   which shows only `currency = 'USD'`.
fn simplify_conjuncts(preds: Vec<Expr>) -> Vec<Expr> {
    let mut out: Vec<Expr> = Vec::new();
    // Collect equalities X = const.
    let equalities: Vec<(Expr, Expr)> = preds
        .iter()
        .filter_map(|p| match p {
            Expr::Bin(l, BinOp::Eq, r) if is_const(r) => {
                Some((l.as_ref().clone(), r.as_ref().clone()))
            }
            _ => None,
        })
        .collect();
    for p in preds {
        if out.contains(&p) {
            continue;
        }
        if let Expr::Bin(l, BinOp::Neq, r) = &p {
            if is_const(r) {
                let implied = equalities
                    .iter()
                    .any(|(el, er)| el == l.as_ref() && er != r.as_ref() && is_const(er));
                if implied {
                    continue;
                }
            }
        }
        out.push(p);
    }
    out
}

fn is_const(e: &Expr) -> bool {
    matches!(
        e,
        Expr::Int(_) | Expr::Float(_) | Expr::Str(_) | Expr::Bool(_)
    )
}
