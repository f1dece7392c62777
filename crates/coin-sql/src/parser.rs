//! Recursive-descent SQL parser.
//!
//! Parses the COIN dialect into the [`crate::ast`] types. `JOIN … ON` is
//! accepted and desugared into the comma-join + WHERE form that the paper's
//! example queries use, so downstream components (mediator, planner) only
//! ever see one FROM representation.
//!
//! Expressions nest at most [`MAX_NESTING`] levels deep (parentheses,
//! function arguments, `CASE` parts, `NOT` and unary minus each add one),
//! so nesting in request bytes cannot drive the parser into a stack
//! overflow. A chain of binary operators is parsed by a loop, not by
//! recursion, and is not counted: it still builds a tree as deep as the
//! chain is long.

use crate::ast::*;
use crate::lexer::{lex, LexError, Spanned, Tok};

/// How deep expressions may nest before parsing fails with an [`SqlError`].
pub const MAX_NESTING: usize = 128;

/// Parse error with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct SqlError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl std::fmt::Display for SqlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SQL parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for SqlError {}

impl From<LexError> for SqlError {
    fn from(e: LexError) -> Self {
        SqlError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parse a SQL query (single SELECT or UNION chain, optional trailing `;`).
pub fn parse_query(src: &str) -> Result<Query, SqlError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let q = p.parse_query()?;
    p.eat_semi();
    if let Some(t) = p.peek() {
        return Err(p.err(format!("unexpected trailing token {:?}", t)));
    }
    Ok(q)
}

/// Parse a scalar expression (used by tests and the QBE form builder).
pub fn parse_expr(src: &str) -> Result<Expr, SqlError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let e = p.parse_expr()?;
    if let Some(t) = p.peek() {
        return Err(p.err(format!("unexpected trailing token {:?}", t)));
    }
    Ok(e)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Expression nesting levels open at `pos`.
    depth: usize,
}

impl Parser {
    fn err(&self, message: impl Into<String>) -> SqlError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|s| (s.line, s.col))
            .unwrap_or((1, 1));
        SqlError {
            message: message.into(),
            line,
            col,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn peek2(&self) -> Option<&Tok> {
        self.toks.get(self.pos + 1).map(|s| &s.tok)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.peek().cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Kw(k)) if k == kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected {kw}, found {:?}", self.peek())))
        }
    }

    fn expect(&mut self, tok: Tok, what: &str) -> Result<(), SqlError> {
        if self.peek() == Some(&tok) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn eat_semi(&mut self) {
        while self.peek() == Some(&Tok::Semi) {
            self.pos += 1;
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    // ---- query level ----------------------------------------------------

    fn parse_query(&mut self) -> Result<Query, SqlError> {
        let mut q = Query::Select(Box::new(self.parse_select()?));
        while self.eat_kw("UNION") {
            let all = self.eat_kw("ALL");
            let rhs = self.parse_select()?;
            q = Query::Union {
                left: Box::new(q),
                right: Box::new(Query::Select(Box::new(rhs))),
                all,
            };
        }
        Ok(q)
    }

    fn parse_select(&mut self) -> Result<Select, SqlError> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let mut items = vec![self.parse_select_item()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            items.push(self.parse_select_item()?);
        }
        self.expect_kw("FROM")?;
        let (from, join_preds) = self.parse_from()?;
        let mut where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        // Desugar JOIN … ON predicates into the WHERE clause.
        if let Some(jp) = Expr::conjoin(join_preds) {
            where_clause = Some(match where_clause {
                Some(w) => Expr::and(jp, w),
                None => jp,
            });
        }
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.parse_expr()?);
            while self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.bump() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as u64),
                other => return Err(self.err(format!("expected LIMIT count, found {other:?}"))),
            }
        } else {
            None
        };
        Ok(Select {
            distinct,
            items,
            from,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.peek() == Some(&Tok::Star) {
            self.pos += 1;
            return Ok(SelectItem::Wildcard);
        }
        // ident.* ?
        if let (Some(Tok::Ident(q)), Some(Tok::Dot)) = (self.peek(), self.peek2()) {
            if self.toks.get(self.pos + 2).map(|s| &s.tok) == Some(&Tok::Star) {
                let q = q.clone();
                self.pos += 3;
                return Ok(SelectItem::QualifiedWildcard(q));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Tok::Ident(_)) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    /// Parse the FROM clause; JOIN…ON predicates are returned separately for
    /// desugaring into WHERE.
    fn parse_from(&mut self) -> Result<(Vec<TableRef>, Vec<Expr>), SqlError> {
        let mut tables = vec![self.parse_table_ref()?];
        let mut preds = Vec::new();
        loop {
            if self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                tables.push(self.parse_table_ref()?);
            } else if self.at_kw("JOIN") || self.at_kw("INNER") || self.at_kw("CROSS") {
                let cross = self.eat_kw("CROSS");
                self.eat_kw("INNER");
                self.expect_kw("JOIN")?;
                tables.push(self.parse_table_ref()?);
                if !cross {
                    self.expect_kw("ON")?;
                    preds.push(self.parse_expr()?);
                }
            } else {
                break;
            }
        }
        Ok((tables, preds))
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, SqlError> {
        let first = self.ident()?;
        let (source, table) = if self.peek() == Some(&Tok::Dot) {
            self.pos += 1;
            let t = self.ident()?;
            (Some(first), t)
        } else {
            (None, first)
        };
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Some(Tok::Ident(_)) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef {
            source,
            table,
            alias,
        })
    }

    // ---- expressions ------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr, SqlError> {
        self.nested(Self::parse_or)
    }

    /// Run `parse` one nesting level deeper, failing past [`MAX_NESTING`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Expr, SqlError>) -> Result<Expr, SqlError> {
        if self.depth == MAX_NESTING {
            return Err(self.err(format!(
                "expression nested deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let e = parse(self);
        self.depth -= 1;
        e
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.parse_and()?;
        while self.eat_kw("OR") {
            let r = self.parse_and()?;
            e = Expr::bin(e, BinOp::Or, r);
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.parse_not()?;
        while self.eat_kw("AND") {
            let r = self.parse_not()?;
            e = Expr::bin(e, BinOp::And, r);
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::parse_not)?;
            return Ok(Expr::Un(UnOp::Not, Box::new(inner)));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr, SqlError> {
        let e = self.parse_additive()?;
        // Comparison?
        let op = match self.peek() {
            Some(Tok::Eq) => Some(BinOp::Eq),
            Some(Tok::Neq) => Some(BinOp::Neq),
            Some(Tok::Lt) => Some(BinOp::Lt),
            Some(Tok::Le) => Some(BinOp::Le),
            Some(Tok::Gt) => Some(BinOp::Gt),
            Some(Tok::Ge) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let r = self.parse_additive()?;
            return Ok(Expr::bin(e, op, r));
        }
        // NOT BETWEEN / NOT IN / NOT LIKE
        let negated = if self.at_kw("NOT")
            && matches!(self.peek2(), Some(Tok::Kw(k)) if k == "BETWEEN" || k == "IN" || k == "LIKE")
        {
            self.pos += 1;
            true
        } else {
            false
        };
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(e),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(Tok::LParen, "(")?;
            let mut list = vec![self.parse_expr()?];
            while self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                list.push(self.parse_expr()?);
            }
            self.expect(Tok::RParen, ")")?;
            return Ok(Expr::InList {
                expr: Box::new(e),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            match self.bump() {
                Some(Tok::Str(pattern)) => {
                    return Ok(Expr::Like {
                        expr: Box::new(e),
                        pattern,
                        negated,
                    })
                }
                other => {
                    return Err(self.err(format!("expected LIKE pattern string, found {other:?}")))
                }
            }
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(e),
                negated,
            });
        }
        Ok(e)
    }

    fn parse_additive(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                Some(Tok::Concat) => BinOp::Concat,
                _ => break,
            };
            self.pos += 1;
            let r = self.parse_multiplicative()?;
            e = Expr::bin(e, op, r);
        }
        Ok(e)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let r = self.parse_unary()?;
            e = Expr::bin(e, op, r);
        }
        Ok(e)
    }

    fn parse_unary(&mut self) -> Result<Expr, SqlError> {
        if self.peek() == Some(&Tok::Minus) {
            self.pos += 1;
            let inner = self.nested(Self::parse_unary)?;
            return Ok(match inner {
                Expr::Int(i) => Expr::Int(-i),
                Expr::Float(x) => Expr::Float(-x),
                other => Expr::Un(UnOp::Neg, Box::new(other)),
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Expr::Int(i)),
            Some(Tok::Float(x)) => Ok(Expr::Float(x)),
            Some(Tok::Str(s)) => Ok(Expr::Str(s)),
            Some(Tok::Kw(k)) if k == "NULL" => Ok(Expr::Null),
            Some(Tok::Kw(k)) if k == "TRUE" => Ok(Expr::Bool(true)),
            Some(Tok::Kw(k)) if k == "FALSE" => Ok(Expr::Bool(false)),
            Some(Tok::Kw(k)) if k == "CASE" => self.parse_case(),
            Some(Tok::LParen) => {
                let e = self.parse_expr()?;
                self.expect(Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => {
                // Function call?
                if self.peek() == Some(&Tok::LParen) {
                    self.pos += 1;
                    if self.peek() == Some(&Tok::Star) {
                        // COUNT(*)
                        self.pos += 1;
                        self.expect(Tok::RParen, ")")?;
                        if !name.eq_ignore_ascii_case("count") {
                            return Err(self.err(format!("{name}(*) is not valid")));
                        }
                        return Ok(Expr::Func("COUNT".into(), vec![]));
                    }
                    let mut args = Vec::new();
                    if self.peek() != Some(&Tok::RParen) {
                        args.push(self.parse_expr()?);
                        while self.peek() == Some(&Tok::Comma) {
                            self.pos += 1;
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect(Tok::RParen, ")")?;
                    let canonical = if is_aggregate(&name) {
                        name.to_ascii_uppercase()
                    } else {
                        name
                    };
                    return Ok(Expr::Func(canonical, args));
                }
                // Qualified column?
                if self.peek() == Some(&Tok::Dot) {
                    self.pos += 1;
                    let col = self.ident()?;
                    return Ok(Expr::Column(ColumnRef::new(&name, &col)));
                }
                Ok(Expr::Column(ColumnRef::bare(&name)))
            }
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }

    fn parse_case(&mut self) -> Result<Expr, SqlError> {
        let operand = if !self.at_kw("WHEN") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let val = self.parse_expr()?;
            branches.push((cond, val));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_kw("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            operand,
            branches,
            else_branch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse_query(src).unwrap().to_string()
    }

    #[test]
    fn parses_paper_query_q1() {
        let q = parse_query(
            "SELECT rl.cname, rl.revenue FROM rl, r2 \
             WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses;",
        )
        .unwrap();
        let branches = q.branches();
        assert_eq!(branches.len(), 1);
        let s = branches[0];
        assert_eq!(s.items.len(), 2);
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.where_clause.as_ref().unwrap().conjuncts().len(), 2);
    }

    #[test]
    fn parses_mediated_union() {
        let q = parse_query(
            "SELECT r1.cname, r1.revenue FROM r1, r2 WHERE r1.currency = 'USD' \
             UNION \
             SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3 \
             WHERE r1.currency = 'JPY' \
             UNION \
             SELECT r1.cname, r1.revenue * r3.rate FROM r1, r2, r3 \
             WHERE r1.currency <> 'USD' AND r1.currency <> 'JPY'",
        )
        .unwrap();
        assert_eq!(q.branches().len(), 3);
    }

    #[test]
    fn roundtrip_canonical() {
        let src = "SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r3 WHERE r1.currency = 'JPY' AND r1.revenue > 500";
        assert_eq!(roundtrip(src), src);
    }

    #[test]
    fn join_on_desugars() {
        let q = parse_query("SELECT a.x FROM t1 a JOIN t2 b ON a.id = b.id WHERE a.x > 3").unwrap();
        let s = &q.branches()[0];
        assert_eq!(s.from.len(), 2);
        let w = s.where_clause.as_ref().unwrap();
        assert_eq!(w.conjuncts().len(), 2);
        assert_eq!(w.to_string(), "a.id = b.id AND a.x > 3");
    }

    #[test]
    fn cross_join() {
        let q = parse_query("SELECT * FROM a CROSS JOIN b").unwrap();
        assert_eq!(q.branches()[0].from.len(), 2);
    }

    #[test]
    fn aliases_with_and_without_as() {
        let q = parse_query("SELECT t.x AS y, t.z w FROM tab AS t").unwrap();
        let s = &q.branches()[0];
        match &s.items[0] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("y")),
            _ => panic!(),
        }
        match &s.items[1] {
            SelectItem::Expr { alias, .. } => assert_eq!(alias.as_deref(), Some("w")),
            _ => panic!(),
        }
        assert_eq!(s.from[0].binding(), "t");
    }

    #[test]
    fn source_qualified_table() {
        let q = parse_query("SELECT * FROM src1.r1 x").unwrap();
        let t = &q.branches()[0].from[0];
        assert_eq!(t.source.as_deref(), Some("src1"));
        assert_eq!(t.table, "r1");
        assert_eq!(t.binding(), "x");
    }

    #[test]
    fn group_by_having_order_limit() {
        let q = parse_query(
            "SELECT t.c, SUM(t.x) FROM t GROUP BY t.c HAVING SUM(t.x) > 10 \
             ORDER BY t.c DESC LIMIT 5",
        )
        .unwrap();
        let s = &q.branches()[0];
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert!(s.order_by[0].desc);
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn count_star() {
        let q = parse_query("SELECT COUNT(*) FROM t").unwrap();
        match &q.branches()[0].items[0] {
            SelectItem::Expr {
                expr: Expr::Func(name, args),
                ..
            } => {
                assert_eq!(name, "COUNT");
                assert!(args.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn in_between_like_isnull() {
        let q = parse_query(
            "SELECT * FROM t WHERE t.a IN (1, 2, 3) AND t.b BETWEEN 1 AND 10 \
             AND t.c LIKE 'N%' AND t.d IS NOT NULL AND t.e NOT IN (4)",
        )
        .unwrap();
        let w = q.branches()[0].where_clause.clone().unwrap();
        assert_eq!(w.conjuncts().len(), 5);
    }

    #[test]
    fn operator_precedence() {
        let e = parse_expr("1 + 2 * 3 = 7 AND NOT 2 > 3 OR FALSE").unwrap();
        assert_eq!(e.to_string(), "1 + 2 * 3 = 7 AND NOT 2 > 3 OR FALSE");
        // Structure: OR(AND(=(+(1,*(2,3)),7), NOT(>(2,3))), FALSE)
        match e {
            Expr::Bin(_, BinOp::Or, _) => {}
            other => panic!("expected OR at top, got {other:?}"),
        }
    }

    #[test]
    fn unary_minus_folds_literals() {
        assert_eq!(parse_expr("-3").unwrap(), Expr::Int(-3));
        assert_eq!(parse_expr("-3.5").unwrap(), Expr::Float(-3.5));
        assert!(matches!(
            parse_expr("-t.x").unwrap(),
            Expr::Un(UnOp::Neg, _)
        ));
    }

    #[test]
    fn case_expression() {
        let e = parse_expr("CASE WHEN t.cur = 'JPY' THEN t.v * 1000 ELSE t.v END").unwrap();
        assert!(matches!(e, Expr::Case { .. }));
    }

    #[test]
    fn distinct_flag() {
        let q = parse_query("SELECT DISTINCT t.x FROM t").unwrap();
        assert!(q.branches()[0].distinct);
    }

    #[test]
    fn union_all_flag() {
        let q = parse_query("SELECT * FROM a UNION ALL SELECT * FROM b").unwrap();
        match q {
            Query::Union { all, .. } => assert!(all),
            _ => panic!(),
        }
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_query("SELECT FROM WHERE").is_err());
        assert!(parse_query("SELECT * FROM").is_err());
        assert!(parse_query("SELECT * FROM t WHERE").is_err());
        assert!(parse_query("SELECT * FROM t extra garbage here").is_err());
    }

    #[test]
    fn error_positions() {
        let e = parse_query("SELECT *\nFROM t WHERE ???").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn nesting_is_bounded() {
        let parens = |n: usize| {
            format!(
                "SELECT r1.cname FROM r1 WHERE {}1 = 1{}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        // The WHERE expression is one level; each parenthesis adds one.
        assert!(parse_query(&parens(MAX_NESTING - 1)).is_ok());
        let e = parse_query(&parens(MAX_NESTING)).unwrap_err();
        assert!(e.message.contains("nested deeper than 128"), "{e}");
        assert!(parse_query(&parens(1_000)).is_err());

        let nots = |n: usize| format!("SELECT r1.cname FROM r1 WHERE {}1 = 1", "NOT ".repeat(n));
        assert!(parse_query(&nots(MAX_NESTING - 1)).is_ok());
        assert!(parse_query(&nots(MAX_NESTING)).is_err());
        assert!(parse_query(&nots(5_000)).is_err());

        let minus = |n: usize| format!("SELECT {}1 FROM r1", "- ".repeat(n));
        assert!(parse_query(&minus(MAX_NESTING - 1)).is_ok());
        assert!(parse_query(&minus(MAX_NESTING)).is_err());

        let cases = |n: usize| {
            format!(
                "SELECT {}1{} FROM r1",
                "CASE WHEN TRUE THEN ".repeat(n),
                " END".repeat(n)
            )
        };
        assert!(parse_query(&cases(MAX_NESTING - 1)).is_ok());
        assert!(parse_query(&cases(MAX_NESTING)).is_err());

        // Long flat chains are loops, not nesting.
        let chain = vec!["1 = 1"; 1_000].join(" AND ");
        assert!(parse_query(&format!("SELECT r1.cname FROM r1 WHERE {chain}")).is_ok());
    }

    #[test]
    fn sum_star_rejected() {
        assert!(parse_query("SELECT SUM(*) FROM t").is_err());
    }
}
