//! Query normalization: alias resolution and scope checking.
//!
//! The mediator and the multi-database planner both want queries in a
//! *normalized* form where every column reference is qualified by the
//! binding name of its table. `SELECT cname FROM r1` becomes
//! `SELECT r1.cname FROM r1` once the schema dictionary tells us `cname`
//! belongs to `r1`.

use std::borrow::Cow;
use std::collections::HashMap;

use crate::ast::*;

/// Errors from normalization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NormalizeError {
    UnknownTable(String),
    UnknownColumn(String),
    AmbiguousColumn(String),
    DuplicateBinding(String),
}

impl std::fmt::Display for NormalizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NormalizeError::UnknownTable(t) => write!(f, "unknown table: {t}"),
            NormalizeError::UnknownColumn(c) => write!(f, "unknown column: {c}"),
            NormalizeError::AmbiguousColumn(c) => write!(f, "ambiguous column: {c}"),
            NormalizeError::DuplicateBinding(b) => {
                write!(f, "duplicate table binding: {b}")
            }
        }
    }
}

impl std::error::Error for NormalizeError {}

/// Schema information provider for normalization: given a table name,
/// return its column names (or `None` if unknown), borrowed where the
/// provider keeps them as such.
pub trait SchemaLookup {
    fn columns_of(&self, table: &str) -> Option<Cow<'_, [String]>>;
}

/// A trivial in-memory [`SchemaLookup`].
#[derive(Debug, Default, Clone)]
pub struct MapSchema {
    tables: HashMap<String, Vec<String>>,
}

impl MapSchema {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_table(mut self, name: &str, columns: &[&str]) -> Self {
        self.add_table(name, columns);
        self
    }

    pub fn add_table(&mut self, name: &str, columns: &[&str]) {
        self.tables.insert(
            name.to_owned(),
            columns.iter().map(|s| (*s).to_owned()).collect(),
        );
    }
}

impl SchemaLookup for MapSchema {
    fn columns_of(&self, table: &str) -> Option<Cow<'_, [String]>> {
        self.tables
            .get(table)
            .map(|cols| Cow::Borrowed(cols.as_slice()))
    }
}

/// The binding environment of one SELECT: binding name → (table, columns).
struct Scope<'s> {
    bindings: Vec<(String, String, Cow<'s, [String]>)>,
}

impl<'s> Scope<'s> {
    fn build(from: &[TableRef], schema: &'s dyn SchemaLookup) -> Result<Scope<'s>, NormalizeError> {
        let mut bindings = Vec::new();
        for t in from {
            let cols = schema
                .columns_of(&t.table)
                .ok_or_else(|| NormalizeError::UnknownTable(t.table.clone()))?;
            let b = t.binding().to_owned();
            if bindings.iter().any(|(name, _, _)| *name == b) {
                return Err(NormalizeError::DuplicateBinding(b));
            }
            bindings.push((b, t.table.clone(), cols));
        }
        Ok(Scope { bindings })
    }

    /// Resolve a column reference to its binding qualifier.
    fn resolve(&self, c: &ColumnRef) -> Result<ColumnRef, NormalizeError> {
        if let Some(q) = &c.qualifier {
            let Some((b, _, cols)) = self.bindings.iter().find(|(name, _, _)| name == q) else {
                return Err(NormalizeError::UnknownTable(q.clone()));
            };
            if !cols.contains(&c.column) {
                return Err(NormalizeError::UnknownColumn(format!("{q}.{}", c.column)));
            }
            return Ok(ColumnRef::new(b, &c.column));
        }
        let mut found: Option<&str> = None;
        for (b, _, cols) in &self.bindings {
            if cols.contains(&c.column) {
                if found.is_some() {
                    return Err(NormalizeError::AmbiguousColumn(c.column.clone()));
                }
                found = Some(b);
            }
        }
        match found {
            Some(b) => Ok(ColumnRef::new(b, &c.column)),
            None => Err(NormalizeError::UnknownColumn(c.column.clone())),
        }
    }
}

fn normalize_expr(e: &Expr, scope: &Scope) -> Result<Expr, NormalizeError> {
    Ok(match e {
        Expr::Column(c) => Expr::Column(scope.resolve(c)?),
        Expr::Bin(l, op, r) => Expr::Bin(
            Box::new(normalize_expr(l, scope)?),
            *op,
            Box::new(normalize_expr(r, scope)?),
        ),
        Expr::Un(op, inner) => Expr::Un(*op, Box::new(normalize_expr(inner, scope)?)),
        Expr::Func(name, args) => Expr::Func(
            name.clone(),
            args.iter()
                .map(|a| normalize_expr(a, scope))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: Box::new(normalize_expr(expr, scope)?),
            low: Box::new(normalize_expr(low, scope)?),
            high: Box::new(normalize_expr(high, scope)?),
            negated: *negated,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: Box::new(normalize_expr(expr, scope)?),
            list: list
                .iter()
                .map(|a| normalize_expr(a, scope))
                .collect::<Result<_, _>>()?,
            negated: *negated,
        },
        Expr::Like {
            expr,
            pattern,
            negated,
        } => Expr::Like {
            expr: Box::new(normalize_expr(expr, scope)?),
            pattern: pattern.clone(),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: Box::new(normalize_expr(expr, scope)?),
            negated: *negated,
        },
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => Expr::Case {
            operand: operand
                .as_ref()
                .map(|o| normalize_expr(o, scope).map(Box::new))
                .transpose()?,
            branches: branches
                .iter()
                .map(|(c, v)| Ok((normalize_expr(c, scope)?, normalize_expr(v, scope)?)))
                .collect::<Result<_, NormalizeError>>()?,
            else_branch: else_branch
                .as_ref()
                .map(|o| normalize_expr(o, scope).map(Box::new))
                .transpose()?,
        },
        leaf => leaf.clone(),
    })
}

/// Normalize one SELECT: qualify all column references, expand wildcards.
pub fn normalize_select(s: &Select, schema: &dyn SchemaLookup) -> Result<Select, NormalizeError> {
    let scope = Scope::build(&s.from, schema)?;
    let item_aliases: Vec<String> = s
        .items
        .iter()
        .filter_map(|it| match it {
            SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
            _ => None,
        })
        .collect();
    let mut items = Vec::new();
    for item in &s.items {
        match item {
            SelectItem::Wildcard => {
                for (b, _, cols) in &scope.bindings {
                    for c in cols.iter() {
                        items.push(SelectItem::Expr {
                            expr: Expr::Column(ColumnRef::new(b, c)),
                            alias: None,
                        });
                    }
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                let Some((b, _, cols)) = scope.bindings.iter().find(|(name, _, _)| name == q)
                else {
                    return Err(NormalizeError::UnknownTable(q.clone()));
                };
                for c in cols.iter() {
                    items.push(SelectItem::Expr {
                        expr: Expr::Column(ColumnRef::new(b, c)),
                        alias: None,
                    });
                }
            }
            SelectItem::Expr { expr, alias } => items.push(SelectItem::Expr {
                expr: normalize_expr(expr, &scope)?,
                alias: alias.clone(),
            }),
        }
    }
    Ok(Select {
        distinct: s.distinct,
        items,
        from: s.from.clone(),
        where_clause: s
            .where_clause
            .as_ref()
            .map(|w| normalize_expr(w, &scope))
            .transpose()?,
        group_by: s
            .group_by
            .iter()
            .map(|g| normalize_expr(g, &scope))
            .collect::<Result<_, _>>()?,
        having: s
            .having
            .as_ref()
            .map(|h| normalize_expr(h, &scope))
            .transpose()?,
        order_by: s
            .order_by
            .iter()
            .map(|o| {
                // `ORDER BY alias` refers to a projected column, not a
                // source column — leave it bare for the engine to resolve
                // against the output schema.
                if let Expr::Column(c) = &o.expr {
                    let is_alias = c.qualifier.is_none() && item_aliases.contains(&c.column);
                    if is_alias {
                        return Ok(OrderItem {
                            expr: o.expr.clone(),
                            desc: o.desc,
                        });
                    }
                }
                Ok(OrderItem {
                    expr: normalize_expr(&o.expr, &scope)?,
                    desc: o.desc,
                })
            })
            .collect::<Result<_, NormalizeError>>()?,
        limit: s.limit,
    })
}

/// Normalize every branch of a query.
pub fn normalize_query(q: &Query, schema: &dyn SchemaLookup) -> Result<Query, NormalizeError> {
    Ok(match q {
        Query::Select(s) => Query::Select(Box::new(normalize_select(s, schema)?)),
        Query::Union { first, rest } => Query::Union {
            first: Box::new(normalize_select(first, schema)?),
            rest: (rest.iter())
                .map(|(all, s)| Ok((*all, normalize_select(s, schema)?)))
                .collect::<Result<_, NormalizeError>>()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;

    fn schema() -> MapSchema {
        MapSchema::new()
            .with_table("r1", &["cname", "revenue", "currency"])
            .with_table("r2", &["cname", "expenses"])
    }

    fn norm(src: &str) -> Result<String, NormalizeError> {
        let q = parse_query(src).unwrap();
        normalize_query(&q, &schema()).map(|q| q.to_string())
    }

    #[test]
    fn qualifies_bare_columns() {
        assert_eq!(
            norm("SELECT revenue FROM r1").unwrap(),
            "SELECT r1.revenue FROM r1"
        );
    }

    #[test]
    fn ambiguous_bare_column_rejected() {
        assert_eq!(
            norm("SELECT cname FROM r1, r2"),
            Err(NormalizeError::AmbiguousColumn("cname".into()))
        );
    }

    #[test]
    fn expands_wildcard() {
        assert_eq!(
            norm("SELECT * FROM r2").unwrap(),
            "SELECT r2.cname, r2.expenses FROM r2"
        );
    }

    #[test]
    fn expands_qualified_wildcard() {
        assert_eq!(
            norm("SELECT a.* FROM r1 a, r2 b").unwrap(),
            "SELECT a.cname, a.revenue, a.currency FROM r1 a, r2 b"
        );
    }

    #[test]
    fn alias_scoping() {
        assert_eq!(
            norm("SELECT x.revenue FROM r1 x WHERE x.currency = 'USD'").unwrap(),
            "SELECT x.revenue FROM r1 x WHERE x.currency = 'USD'"
        );
    }

    #[test]
    fn unknown_column_rejected() {
        assert_eq!(
            norm("SELECT r1.bogus FROM r1"),
            Err(NormalizeError::UnknownColumn("r1.bogus".into()))
        );
    }

    #[test]
    fn unknown_table_rejected() {
        assert_eq!(
            norm("SELECT * FROM nope"),
            Err(NormalizeError::UnknownTable("nope".into()))
        );
    }

    #[test]
    fn unknown_qualifier_rejected() {
        assert_eq!(
            norm("SELECT z.revenue FROM r1"),
            Err(NormalizeError::UnknownTable("z".into()))
        );
    }

    #[test]
    fn duplicate_binding_rejected() {
        assert_eq!(
            norm("SELECT 1 FROM r1 a, r2 a"),
            Err(NormalizeError::DuplicateBinding("a".into()))
        );
    }

    #[test]
    fn self_join_with_aliases_ok() {
        assert!(norm("SELECT a.cname, b.cname FROM r1 a, r1 b").is_ok());
    }

    #[test]
    fn normalizes_nested_positions() {
        let out = norm(
            "SELECT CASE WHEN currency = 'JPY' THEN revenue * 1000 ELSE revenue END FROM r1 \
             WHERE revenue BETWEEN 1 AND 10 AND cname IN ('IBM') ORDER BY revenue",
        )
        .unwrap();
        assert!(out.contains("r1.currency = 'JPY'"));
        assert!(out.contains("r1.revenue BETWEEN 1 AND 10"));
        assert!(out.contains("ORDER BY r1.revenue"));
    }
}
