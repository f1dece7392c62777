//! The SQL abstract syntax tree.
//!
//! Covers the dialect the COIN prototype exposes to receivers and emits from
//! mediation: `SELECT [DISTINCT] … FROM … [WHERE …] [GROUP BY …] [HAVING …]
//! [ORDER BY …] [LIMIT n]`, chained with `UNION [ALL]`, plus `JOIN … ON`
//! sugar, scalar/aggregate functions, `BETWEEN`, `IN`, `LIKE`, `CASE` and
//! `IS [NOT] NULL`.
//!
//! `Display` implementations produce canonical SQL: the mediated queries
//! shown to users (paper §3) are printed through these.

/// A complete query: a select or a union chain.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Select(Box<Select>),
    /// `first UNION [ALL] s1 UNION [ALL] s2 …`: each further branch with
    /// the `ALL` flag of the `UNION` before it. A flat list, so no pass
    /// over a long chain (print, plan, drop) recurses once per branch.
    Union {
        first: Box<Select>,
        rest: Vec<(bool, Select)>,
    },
}

impl Query {
    /// The union chain's SELECT branches, left to right.
    pub fn branches(&self) -> Vec<&Select> {
        match self {
            Query::Select(s) => vec![s],
            Query::Union { first, rest } => std::iter::once(&**first)
                .chain(rest.iter().map(|(_, s)| s))
                .collect(),
        }
    }

    /// Whether the query's answer keeps duplicate rows: a single SELECT
    /// does, and a chain does when its last, outermost `UNION` is `ALL`.
    pub fn keeps_duplicates(&self) -> bool {
        match self {
            Query::Select(_) => true,
            Query::Union { rest, .. } => rest.last().is_none_or(|(all, _)| *all),
        }
    }

    /// Build a UNION chain from branches (panics on empty input).
    pub fn union_of(branches: Vec<Select>, all: bool) -> Query {
        let mut branches = branches.into_iter();
        let first = Box::new(branches.next().expect("union of zero branches"));
        let rest: Vec<(bool, Select)> = branches.map(|s| (all, s)).collect();
        if rest.is_empty() {
            Query::Select(first)
        } else {
            Query::Union { first, rest }
        }
    }
}

/// A single SELECT block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
    pub limit: Option<u64>,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// `expr [AS alias]`
    Expr { expr: Expr, alias: Option<String> },
}

/// A table in the FROM clause: `name [alias]`. `name` may be qualified with
/// a source (`source.table`) in the multi-database setting.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Optional source qualifier (`src1` in `src1.r1`).
    pub source: Option<String>,
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    pub fn new(table: &str) -> TableRef {
        TableRef {
            source: None,
            table: table.to_owned(),
            alias: None,
        }
    }

    /// The name this table binds in the query scope (alias if present).
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// An ORDER BY item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A column reference `[qualifier.]name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    pub qualifier: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn new(qualifier: &str, column: &str) -> ColumnRef {
        ColumnRef {
            qualifier: Some(qualifier.to_owned()),
            column: column.to_owned(),
        }
    }

    pub fn bare(column: &str) -> ColumnRef {
        ColumnRef {
            qualifier: None,
            column: column.to_owned(),
        }
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    /// String concatenation `||`.
    Concat,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::Neq => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Concat => "||",
        }
    }

    /// Precedence for printing (higher binds tighter).
    fn prec(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub | BinOp::Concat => 5,
            BinOp::Mul | BinOp::Div => 6,
        }
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }

    /// Logical negation of a comparison.
    pub fn negate(self) -> Option<BinOp> {
        Some(match self {
            BinOp::Eq => BinOp::Neq,
            BinOp::Neq => BinOp::Eq,
            BinOp::Lt => BinOp::Ge,
            BinOp::Ge => BinOp::Lt,
            BinOp::Gt => BinOp::Le,
            BinOp::Le => BinOp::Gt,
            _ => return None,
        })
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    Bin(Box<Expr>, BinOp, Box<Expr>),
    Un(UnOp, Box<Expr>),
    /// Function call (scalar or aggregate): `COUNT(*)` is
    /// `Func("COUNT", [Wildcard…])` represented as `Func("COUNT", [])`.
    Func(String, Vec<Expr>),
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: String,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Case {
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
}

impl Expr {
    pub fn col(qualifier: &str, column: &str) -> Expr {
        Expr::Column(ColumnRef::new(qualifier, column))
    }

    pub fn bin(l: Expr, op: BinOp, r: Expr) -> Expr {
        Expr::Bin(Box::new(l), op, Box::new(r))
    }

    pub fn and(l: Expr, r: Expr) -> Expr {
        Expr::bin(l, BinOp::And, r)
    }

    /// Conjoin a list of predicates (`None` for an empty list).
    pub fn conjoin(preds: Vec<Expr>) -> Option<Expr> {
        preds.into_iter().reduce(Expr::and)
    }

    /// Split an expression into its top-level AND-conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Bin(l, BinOp::And, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Collect every column reference in the expression.
    pub fn columns<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        match self {
            Expr::Column(c) => out.push(c),
            Expr::Bin(l, _, r) => {
                l.columns(out);
                r.columns(out);
            }
            Expr::Un(_, e) | Expr::IsNull { expr: e, .. } | Expr::Like { expr: e, .. } => {
                e.columns(out)
            }
            Expr::Func(_, args) => {
                for a in args {
                    a.columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.columns(out);
                low.columns(out);
                high.columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.columns(out);
                for e in list {
                    e.columns(out);
                }
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(o) = operand {
                    o.columns(out);
                }
                for (c, v) in branches {
                    c.columns(out);
                    v.columns(out);
                }
                if let Some(e) = else_branch {
                    e.columns(out);
                }
            }
            _ => {}
        }
    }

    /// Does the expression contain any aggregate function call?
    pub fn has_aggregate(&self) -> bool {
        match self {
            Expr::Func(name, args) => is_aggregate(name) || args.iter().any(Expr::has_aggregate),
            Expr::Bin(l, _, r) => l.has_aggregate() || r.has_aggregate(),
            Expr::Un(_, e) => e.has_aggregate(),
            Expr::Between {
                expr, low, high, ..
            } => expr.has_aggregate() || low.has_aggregate() || high.has_aggregate(),
            Expr::InList { expr, list, .. } => {
                expr.has_aggregate() || list.iter().any(Expr::has_aggregate)
            }
            Expr::IsNull { expr, .. } | Expr::Like { expr, .. } => expr.has_aggregate(),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref().is_some_and(Expr::has_aggregate)
                    || branches
                        .iter()
                        .any(|(c, v)| c.has_aggregate() || v.has_aggregate())
                    || else_branch.as_deref().is_some_and(Expr::has_aggregate)
            }
            _ => false,
        }
    }
}

/// Is `name` one of the supported aggregate functions?
pub fn is_aggregate(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX"
    )
}

// ---------------------------------------------------------------------------
// Printing (canonical SQL)
// ---------------------------------------------------------------------------

fn fmt_expr(e: &Expr, parent_prec: u8, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
    match e {
        Expr::Column(c) => write!(f, "{c}"),
        Expr::Int(i) => write!(f, "{i}"),
        Expr::Float(x) => {
            // Integral floats always print a fraction digit: the printed
            // form is the prepared-query cache's canonical key, so a float
            // literal must never be byte-identical to an int literal
            // (`1e16` would otherwise print exactly like its i64 twin and
            // two semantically different queries would share a plan).
            if x.fract() == 0.0 && x.is_finite() {
                write!(f, "{x:.1}")
            } else {
                write!(f, "{x}")
            }
        }
        Expr::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
        Expr::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        Expr::Null => f.write_str("NULL"),
        Expr::Bin(l, op, r) => {
            let prec = op.prec();
            let need_parens = prec < parent_prec;
            if need_parens {
                f.write_str("(")?;
            }
            // Comparisons are non-associative in the grammar: both operands
            // must bind tighter, so a nested comparison is parenthesized.
            let left_prec = if op.is_comparison() { prec + 1 } else { prec };
            fmt_expr(l, left_prec, f)?;
            write!(f, " {} ", op.sql())?;
            // Right side binds one tighter for left-associative printing.
            fmt_expr(r, prec + 1, f)?;
            if need_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::Un(UnOp::Not, inner) => {
            // NOT sits between AND (2) and the predicates (4) in the
            // grammar; its operand is parsed at predicate level.
            let need_parens = parent_prec > 3;
            if need_parens {
                f.write_str("(")?;
            }
            f.write_str("NOT ")?;
            fmt_expr(inner, 4, f)?;
            if need_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::Un(UnOp::Neg, inner) => {
            f.write_str("-")?;
            fmt_expr(inner, 7, f)
        }
        Expr::Func(name, args) => {
            if args.is_empty() && name.eq_ignore_ascii_case("count") {
                return f.write_str("COUNT(*)");
            }
            write!(f, "{name}(")?;
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(a, 0, f)?;
            }
            f.write_str(")")
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            // Predicate forms are non-associative like comparisons: they
            // parenthesize themselves under any tighter context, and print
            // their operands at comparison-operand level.
            let need_parens = parent_prec > 4;
            if need_parens {
                f.write_str("(")?;
            }
            fmt_expr(expr, 5, f)?;
            write!(f, " {}BETWEEN ", if *negated { "NOT " } else { "" })?;
            fmt_expr(low, 5, f)?;
            f.write_str(" AND ")?;
            fmt_expr(high, 5, f)?;
            if need_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let need_parens = parent_prec > 4;
            if need_parens {
                f.write_str("(")?;
            }
            fmt_expr(expr, 5, f)?;
            write!(f, " {}IN (", if *negated { "NOT " } else { "" })?;
            for (i, e) in list.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                fmt_expr(e, 0, f)?;
            }
            f.write_str(")")?;
            if need_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let need_parens = parent_prec > 4;
            if need_parens {
                f.write_str("(")?;
            }
            fmt_expr(expr, 5, f)?;
            write!(
                f,
                " {}LIKE '{}'",
                if *negated { "NOT " } else { "" },
                pattern.replace('\'', "''")
            )?;
            if need_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::IsNull { expr, negated } => {
            let need_parens = parent_prec > 4;
            if need_parens {
                f.write_str("(")?;
            }
            fmt_expr(expr, 5, f)?;
            write!(f, " IS {}NULL", if *negated { "NOT " } else { "" })?;
            if need_parens {
                f.write_str(")")?;
            }
            Ok(())
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            f.write_str("CASE")?;
            if let Some(o) = operand {
                f.write_str(" ")?;
                fmt_expr(o, 0, f)?;
            }
            for (cond, val) in branches {
                f.write_str(" WHEN ")?;
                fmt_expr(cond, 0, f)?;
                f.write_str(" THEN ")?;
                fmt_expr(val, 0, f)?;
            }
            if let Some(e) = else_branch {
                f.write_str(" ELSE ")?;
                fmt_expr(e, 0, f)?;
            }
            f.write_str(" END")
        }
    }
}

impl std::fmt::Display for Expr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fmt_expr(self, 0, f)
    }
}

impl std::fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

impl std::fmt::Display for TableRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(src) = &self.source {
            write!(f, "{src}.")?;
        }
        f.write_str(&self.table)?;
        if let Some(a) = &self.alias {
            write!(f, " {a}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for SelectItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::QualifiedWildcard(q) => write!(f, "{q}.*"),
            SelectItem::Expr { expr, alias } => {
                write!(f, "{expr}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::fmt::Display for Select {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SELECT ")?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        f.write_str(" FROM ")?;
        for (i, t) in self.from.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{t}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{}", o.expr)?;
                if o.desc {
                    f.write_str(" DESC")?;
                }
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (first, rest) = match self {
            Query::Select(s) => (&**s, &[][..]),
            Query::Union { first, rest } => (&**first, &rest[..]),
        };
        write!(f, "{first}")?;
        for (all, s) in rest {
            write!(f, " UNION {}{s}", if *all { "ALL " } else { "" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten() {
        let e = Expr::and(
            Expr::and(Expr::Bool(true), Expr::Bool(false)),
            Expr::bin(Expr::Int(1), BinOp::Lt, Expr::Int(2)),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn conjoin_inverse_of_conjuncts() {
        let parts = vec![
            Expr::bin(Expr::col("r1", "a"), BinOp::Eq, Expr::Int(1)),
            Expr::bin(Expr::col("r2", "b"), BinOp::Gt, Expr::Int(2)),
        ];
        let joined = Expr::conjoin(parts.clone()).unwrap();
        let back: Vec<Expr> = joined.conjuncts().into_iter().cloned().collect();
        assert_eq!(back, parts);
    }

    #[test]
    fn printing_precedence_parens() {
        // (a + b) * c needs parens; a + b * c does not.
        let e1 = Expr::bin(
            Expr::bin(Expr::col("t", "a"), BinOp::Add, Expr::col("t", "b")),
            BinOp::Mul,
            Expr::col("t", "c"),
        );
        assert_eq!(e1.to_string(), "(t.a + t.b) * t.c");
        let e2 = Expr::bin(
            Expr::col("t", "a"),
            BinOp::Add,
            Expr::bin(Expr::col("t", "b"), BinOp::Mul, Expr::col("t", "c")),
        );
        assert_eq!(e2.to_string(), "t.a + t.b * t.c");
    }

    #[test]
    fn or_under_and_parenthesized() {
        let e = Expr::bin(
            Expr::bin(Expr::col("t", "a"), BinOp::Or, Expr::col("t", "b")),
            BinOp::And,
            Expr::col("t", "c"),
        );
        assert_eq!(e.to_string(), "(t.a OR t.b) AND t.c");
    }

    #[test]
    fn string_literal_escaping() {
        assert_eq!(Expr::Str("O'Hare".into()).to_string(), "'O''Hare'");
    }

    #[test]
    fn union_branches_roundtrip() {
        let s1 = Select {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::new("a")],
            ..Default::default()
        };
        let s2 = Select {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::new("b")],
            ..Default::default()
        };
        let s3 = Select {
            items: vec![SelectItem::Wildcard],
            from: vec![TableRef::new("c")],
            ..Default::default()
        };
        let q = Query::union_of(vec![s1, s2, s3], false);
        assert_eq!(q.branches().len(), 3);
        assert_eq!(
            q.to_string(),
            "SELECT * FROM a UNION SELECT * FROM b UNION SELECT * FROM c"
        );
    }

    #[test]
    fn columns_collects_all() {
        let e = Expr::bin(
            Expr::bin(Expr::col("r1", "revenue"), BinOp::Mul, Expr::Int(1000)),
            BinOp::Gt,
            Expr::col("r2", "expenses"),
        );
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(cols.len(), 2);
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Func("SUM".into(), vec![Expr::col("t", "x")]);
        assert!(e.has_aggregate());
        let e2 = Expr::Func("UPPER".into(), vec![Expr::col("t", "x")]);
        assert!(!e2.has_aggregate());
    }

    #[test]
    fn negate_flip_ops() {
        assert_eq!(BinOp::Lt.negate(), Some(BinOp::Ge));
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::And.negate(), None);
    }

    #[test]
    fn case_printing() {
        let e = Expr::Case {
            operand: None,
            branches: vec![(
                Expr::bin(Expr::col("t", "c"), BinOp::Eq, Expr::Str("JPY".into())),
                Expr::Int(1000),
            )],
            else_branch: Some(Box::new(Expr::Int(1))),
        };
        assert_eq!(e.to_string(), "CASE WHEN t.c = 'JPY' THEN 1000 ELSE 1 END");
    }
}
