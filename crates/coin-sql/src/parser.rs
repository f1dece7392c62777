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
//! overflow. A chain of binary operators is parsed by a loop, but each
//! further operand makes the tree one level taller, and every later pass
//! over the tree (normalise, mediate, lower, print, drop) recurses once per
//! level. The planner and the mediator also split a conjunction into its
//! conjuncts and chain them again, whatever its parentheses. So no
//! expression tree, counting each conjunction as that chain, grows taller
//! than [`MAX_HEIGHT`]: the parser fails before it builds the node that
//! would.

use crate::ast::*;
use crate::lexer::{lex, LexError, Spanned, Tok};

/// How deep expressions may nest before parsing fails with an [`SqlError`].
pub const MAX_NESTING: usize = 128;

/// How tall an expression tree may grow: parsing fails with an [`SqlError`]
/// before it builds one this tall. A leaf is one level, and every operator
/// node adds one over its tallest operand, so `a AND b AND c` is three
/// levels tall. A conjunction counts as the chain of its conjuncts, so
/// `(a AND b) AND (c AND d)` is four levels tall, and `x BETWEEN l AND h`
/// as `x >= l AND x <= h`, which mediation splits it into. On a 2 MiB
/// thread, a `/query` in every mode answers trees about 2,000 levels tall
/// in a release build and 396 in a debug build, and this bound keeps half
/// of the smaller.
pub const MAX_HEIGHT: usize = 192;

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
        height: 0,
        conjuncts: 0,
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
        height: 0,
        conjuncts: 0,
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
    /// The height of the expression tree parsed last, as
    /// [`Parser::and`] counts a conjunction.
    height: usize,
    /// How many conjuncts the expression parsed last splits into.
    conjuncts: usize,
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
        let first = Box::new(self.parse_select()?);
        let mut rest = Vec::new();
        while self.eat_kw("UNION") {
            let all = self.eat_kw("ALL");
            rest.push((all, self.parse_select()?));
        }
        Ok(if rest.is_empty() {
            Query::Select(first)
        } else {
            Query::Union { first, rest }
        })
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
        let (from, on) = self.parse_from()?;
        let on_shape = (self.height, self.conjuncts);
        let mut where_clause = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        // Desugar JOIN … ON predicates into the WHERE clause.
        if let Some(on) = on {
            where_clause = Some(match where_clause {
                Some(w) => self.and(on, on_shape, w)?,
                None => on,
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

    /// Parse the FROM clause; the conjunction of its JOIN…ON predicates is
    /// returned separately for desugaring into WHERE, and is the expression
    /// parsed last.
    fn parse_from(&mut self) -> Result<(Vec<TableRef>, Option<Expr>), SqlError> {
        let mut tables = vec![self.parse_table_ref()?];
        let mut on: Option<Expr> = None;
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
                    let shape = (self.height, self.conjuncts);
                    let pred = self.parse_expr()?;
                    on = Some(match on.take() {
                        Some(l) => self.and(l, shape, pred)?,
                        None => pred,
                    });
                }
            } else {
                break;
            }
        }
        Ok((tables, on))
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

    /// Account for a node built over operands whose tallest is `operands`
    /// levels tall, failing past [`MAX_HEIGHT`] before the node exists.
    fn node(&mut self, operands: usize) -> Result<(), SqlError> {
        if operands + 1 >= MAX_HEIGHT {
            return Err(self.err(format!("expression tree {MAX_HEIGHT} or more levels tall")));
        }
        self.height = operands + 1;
        self.conjuncts = 1;
        Ok(())
    }

    /// `l AND r`, where `l` is `lh` levels tall over `ln` conjuncts and `r`
    /// was parsed last. Later passes split a conjunction into its conjuncts
    /// and chain them again, so a conjunction is as tall as its tallest
    /// conjunct plus one level for each further conjunct, however it was
    /// grouped: `(a AND b) AND (c AND d)` is four levels tall.
    fn and(&mut self, l: Expr, (lh, ln): (usize, usize), r: Expr) -> Result<Expr, SqlError> {
        let conjuncts = ln + self.conjuncts;
        let tallest = (lh + 1 - ln).max(self.height + 1 - self.conjuncts);
        self.node(conjuncts + tallest - 2)?;
        self.conjuncts = conjuncts;
        Ok(Expr::and(l, r))
    }

    /// `l op r`, where `l` is `l_height` levels tall and `r` was parsed last.
    fn bin(&mut self, l: Expr, l_height: usize, op: BinOp, r: Expr) -> Result<Expr, SqlError> {
        self.node(l_height.max(self.height))?;
        Ok(Expr::bin(l, op, r))
    }

    fn parse_or(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.parse_and()?;
        while self.eat_kw("OR") {
            let h = self.height;
            let r = self.parse_and()?;
            e = self.bin(e, h, BinOp::Or, r)?;
        }
        Ok(e)
    }

    fn parse_and(&mut self) -> Result<Expr, SqlError> {
        let mut e = self.parse_not()?;
        while self.eat_kw("AND") {
            let l = (self.height, self.conjuncts);
            let r = self.parse_not()?;
            e = self.and(e, l, r)?;
        }
        Ok(e)
    }

    fn parse_not(&mut self) -> Result<Expr, SqlError> {
        if self.eat_kw("NOT") {
            let inner = self.nested(Self::parse_not)?;
            self.node(self.height)?;
            return Ok(Expr::Un(UnOp::Not, Box::new(inner)));
        }
        self.parse_predicate()
    }

    fn parse_predicate(&mut self) -> Result<Expr, SqlError> {
        let e = self.parse_additive()?;
        self.predicate_suffix(e)
    }

    /// The comparison, `BETWEEN`, `IN`, `LIKE` or `IS NULL` that follows
    /// `e`, the expression parsed last, if any. Kept out of
    /// `parse_predicate` because every nesting level pays for that
    /// function's stack frame.
    fn predicate_suffix(&mut self, e: Expr) -> Result<Expr, SqlError> {
        let h = self.height;
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
            return self.bin(e, h, op, r);
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
            let h = h.max(self.height);
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            // Mediation splits it into two comparisons, `e >= low AND
            // e <= high`, so it counts as that conjunction.
            self.node(h.max(self.height) + 1)?;
            self.conjuncts = 2;
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
            let mut h = h.max(self.height);
            while self.peek() == Some(&Tok::Comma) {
                self.pos += 1;
                list.push(self.parse_expr()?);
                h = h.max(self.height);
            }
            self.expect(Tok::RParen, ")")?;
            self.node(h)?;
            return Ok(Expr::InList {
                expr: Box::new(e),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            match self.bump() {
                Some(Tok::Str(pattern)) => {
                    self.node(h)?;
                    return Ok(Expr::Like {
                        expr: Box::new(e),
                        pattern,
                        negated,
                    });
                }
                other => {
                    return Err(self.err(format!("expected LIKE pattern string, found {other:?}")))
                }
            }
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            self.node(h)?;
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
            let h = self.height;
            let r = self.parse_multiplicative()?;
            e = self.bin(e, h, op, r)?;
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
            let h = self.height;
            let r = self.parse_unary()?;
            e = self.bin(e, h, op, r)?;
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
                other => {
                    self.node(self.height)?;
                    Expr::Un(UnOp::Neg, Box::new(other))
                }
            });
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr, SqlError> {
        // A leaf; parentheses, calls and `CASE` set their own height.
        self.height = 1;
        self.conjuncts = 1;
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
            Some(Tok::Ident(name)) => self.parse_name(name),
            other => Err(self.err(format!("unexpected token {other:?} in expression"))),
        }
    }

    /// A column reference or function call, after its first name. Kept out
    /// of `parse_primary` for the same reason as `predicate_suffix`.
    fn parse_name(&mut self, name: String) -> Result<Expr, SqlError> {
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
            let mut h = 0;
            if self.peek() != Some(&Tok::RParen) {
                args.push(self.parse_expr()?);
                h = self.height;
                while self.peek() == Some(&Tok::Comma) {
                    self.pos += 1;
                    args.push(self.parse_expr()?);
                    h = h.max(self.height);
                }
            }
            self.expect(Tok::RParen, ")")?;
            self.node(h)?;
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

    fn parse_case(&mut self) -> Result<Expr, SqlError> {
        let mut h = 0;
        let operand = if !self.at_kw("WHEN") {
            let operand = self.parse_expr()?;
            h = self.height;
            Some(Box::new(operand))
        } else {
            None
        };
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.parse_expr()?;
            h = h.max(self.height);
            self.expect_kw("THEN")?;
            let val = self.parse_expr()?;
            h = h.max(self.height);
            branches.push((cond, val));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN branch"));
        }
        let else_branch = if self.eat_kw("ELSE") {
            let e = self.parse_expr()?;
            h = h.max(self.height);
            Some(Box::new(e))
        } else {
            None
        };
        self.expect_kw("END")?;
        self.node(h)?;
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
            Query::Union { rest, .. } => assert!(rest[0].0),
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
    }

    #[test]
    fn height_is_bounded() {
        // `n` operands chained by `op` make a tree `n` levels tall.
        let chain = |op: &str, n: usize| vec!["1"; n].join(op);
        let and = |n: usize| format!("SELECT r1.cname FROM r1 WHERE {}", chain(" AND ", n));
        assert!(parse_query(&and(MAX_HEIGHT - 1)).is_ok());
        let e = parse_query(&and(MAX_HEIGHT)).unwrap_err();
        assert!(e.message.contains("192 or more levels tall"), "{e}");
        assert!(parse_query(&and(5_000)).is_err());

        let plus = |n: usize| format!("SELECT {} FROM r1", chain(" + ", n));
        assert!(parse_query(&plus(MAX_HEIGHT - 1)).is_ok());
        assert!(parse_query(&plus(MAX_HEIGHT)).is_err());

        // Nesting and chains add up: each `NOT` is one level over its chain.
        let nots = |k: usize, n: usize| {
            format!(
                "SELECT r1.cname FROM r1 WHERE {}{}",
                "NOT ".repeat(k),
                chain(" OR ", n)
            )
        };
        assert!(parse_query(&nots(100, MAX_HEIGHT - 101)).is_ok());
        assert!(parse_query(&nots(100, MAX_HEIGHT - 100)).is_err());

        // A chain of parenthesised chains is as tall as their sum.
        let group = format!("({})", chain(" * ", 100));
        let groups = |n: usize| format!("SELECT {} FROM r1", vec![group.as_str(); n].join(" - "));
        assert!(parse_query(&groups(MAX_HEIGHT - 100)).is_ok());
        assert!(parse_query(&groups(MAX_HEIGHT - 99)).is_err());

        // A conjunction is as tall as the chain of its conjuncts, however
        // it is parenthesised: later passes rebuild it as that chain.
        fn balanced(n: usize) -> String {
            match n {
                1 => "r1.x > 0".into(),
                _ => format!("({} AND {})", balanced(n / 2), balanced(n - n / 2)),
            }
        }
        let where_ = |e: String| format!("SELECT r1.cname FROM r1 WHERE {e}");
        assert!(parse_query(&where_(balanced(MAX_HEIGHT - 2))).is_ok());
        assert!(parse_query(&where_(balanced(MAX_HEIGHT - 1))).is_err());
        assert!(parse_query(&where_(balanced(16_384))).is_err());
        let nested = format!("({}) AND 1", balanced(MAX_HEIGHT - 2));
        assert!(parse_query(&where_(nested)).is_err());
        // ... and a `BETWEEN` as two conjuncts: 95 of them make 190
        // comparisons, a chain 191 levels tall.
        let between = vec!["r1.x BETWEEN 1 AND 2"; 95].join(" AND ");
        assert!(parse_query(&where_(between.clone())).is_ok());
        assert!(parse_query(&where_(format!("{between} AND 1"))).is_err());

        // `JOIN … ON` predicates are conjoined into the WHERE clause.
        let joins = |n: usize| format!("SELECT a.x FROM t a{} WHERE 1", " JOIN t b ON 1".repeat(n));
        assert!(parse_query(&joins(MAX_HEIGHT - 2)).is_ok());
        assert!(parse_query(&joins(MAX_HEIGHT - 1)).is_err());
    }

    #[test]
    fn sum_star_rejected() {
        assert!(parse_query("SELECT SUM(*) FROM t").is_err());
    }
}
