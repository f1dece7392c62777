//! Parser for the logic-program surface syntax.
//!
//! A Prolog-like notation used by tests, by `coin-core`'s axiom compiler and
//! by anyone writing context theories by hand:
//!
//! ```text
//! % facts and rules
//! rate('JPY', 'USD', 0.0096).
//! modval(c1, T, scaleFactor, 1000) :- eqc(col(T, currency), 'JPY').
//!
//! % directives
//! :- abducible(eqc/2, eq).
//!
//! % integrity constraints (denials): the body must never hold
//! ic :- eqc(X, V), eqc(X, W), V \== W.
//! ```
//!
//! Variables start with an uppercase letter or `_`; `_` alone is an
//! anonymous variable (fresh at each occurrence). Infix operators follow the
//! standard Prolog precedences: comparison/unification at 700 (`=`, `\=`,
//! `==`, `\==`, `<`, `>`, `=<`, `>=`, `is`), additive at 500 (`+`, `-`),
//! multiplicative at 400 (`*`, `/`). `%` starts a line comment.

use std::collections::HashMap;

use crate::clause::{Clause, Literal};
use crate::symbol::Sym;
use crate::term::{Term, Var};

/// A parse error with 1-based line/column information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// One item of a program: a clause or a `:- directive.`
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Clause(Clause),
    Directive(Term),
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Atom(String),
    Var(String),
    Int(i64),
    Float(f64),
    Str(String),
    LParen,
    RParen,
    Comma,
    Dot,
    /// `:-`
    Neck,
    /// An operator token such as `=`, `\==`, `=<`, `+`, `*`.
    Op(String),
    /// `\+` prefix negation.
    NafOp,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            message: msg.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn skip_ws(&mut self) {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'%') => {
                    while let Some(c) = self.bump() {
                        if c == b'\n' {
                            break;
                        }
                    }
                }
                _ => break,
            }
        }
    }

    fn next_tok(&mut self) -> Result<Option<(Tok, u32, u32)>, ParseError> {
        self.skip_ws();
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let tok = match c {
            b'(' => {
                self.bump();
                Tok::LParen
            }
            b')' => {
                self.bump();
                Tok::RParen
            }
            b',' => {
                self.bump();
                Tok::Comma
            }
            b'.' => {
                // A dot ends a clause unless followed by a digit (float part
                // never starts with bare '.') — we always treat '.' as Dot.
                self.bump();
                Tok::Dot
            }
            b':' if self.peek2() == Some(b'-') => {
                self.bump();
                self.bump();
                Tok::Neck
            }
            b'\\' => {
                self.bump();
                match self.peek() {
                    Some(b'+') => {
                        self.bump();
                        Tok::NafOp
                    }
                    Some(b'=') => {
                        self.bump();
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Tok::Op("\\==".into())
                        } else {
                            Tok::Op("\\=".into())
                        }
                    }
                    _ => return Err(self.err("expected \\+, \\= or \\==")),
                }
            }
            b'=' => {
                self.bump();
                match self.peek() {
                    Some(b'=') => {
                        self.bump();
                        Tok::Op("==".into())
                    }
                    Some(b'<') => {
                        self.bump();
                        Tok::Op("=<".into())
                    }
                    _ => Tok::Op("=".into()),
                }
            }
            b'<' => {
                self.bump();
                Tok::Op("<".into())
            }
            b'>' => {
                self.bump();
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Op(">=".into())
                } else {
                    Tok::Op(">".into())
                }
            }
            b'+' => {
                self.bump();
                Tok::Op("+".into())
            }
            b'-' => {
                self.bump();
                Tok::Op("-".into())
            }
            b'*' => {
                self.bump();
                Tok::Op("*".into())
            }
            b'/' => {
                self.bump();
                Tok::Op("/".into())
            }
            b'\'' => {
                self.bump();
                let mut s = Vec::new();
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated quoted atom")),
                        Some(b'\\') => match self.bump() {
                            Some(b'\'') => s.push(b'\''),
                            Some(b'\\') => s.push(b'\\'),
                            Some(b'n') => s.push(b'\n'),
                            Some(b't') => s.push(b'\t'),
                            other => return Err(self.err(format!("bad escape in atom: {other:?}"))),
                        },
                        Some(b'\'') => break,
                        Some(c) => s.push(c),
                    }
                }
                Tok::Atom(utf8(s))
            }
            b'"' => {
                self.bump();
                let mut s = Vec::new();
                loop {
                    match self.bump() {
                        None => return Err(self.err("unterminated string")),
                        Some(b'\\') => match self.bump() {
                            Some(b'"') => s.push(b'"'),
                            Some(b'\\') => s.push(b'\\'),
                            Some(b'n') => s.push(b'\n'),
                            Some(b't') => s.push(b'\t'),
                            other => {
                                return Err(self.err(format!("bad escape in string: {other:?}")))
                            }
                        },
                        Some(b'"') => break,
                        Some(c) => s.push(c),
                    }
                }
                Tok::Str(utf8(s))
            }
            c if c.is_ascii_digit() => {
                let start = self.pos;
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.bump();
                }
                let mut is_float = false;
                if self.peek() == Some(b'.') && self.peek2().is_some_and(|c| c.is_ascii_digit()) {
                    is_float = true;
                    self.bump();
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        self.bump();
                    }
                }
                if matches!(self.peek(), Some(b'e') | Some(b'E')) {
                    let save = self.pos;
                    self.bump();
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.bump();
                    }
                    if self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        is_float = true;
                        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                            self.bump();
                        }
                    } else {
                        self.pos = save;
                    }
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                if is_float {
                    let v: f64 = text
                        .parse()
                        .map_err(|e| self.err(format!("bad float {text}: {e}")))?;
                    if v.is_nan() {
                        return Err(self.err("NaN is not a valid constant"));
                    }
                    Tok::Float(v)
                } else {
                    let v: i64 = text
                        .parse()
                        .map_err(|e| self.err(format!("bad integer {text}: {e}")))?;
                    Tok::Int(v)
                }
            }
            c if c.is_ascii_uppercase() || c == b'_' => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                Tok::Var(text.to_owned())
            }
            c if c.is_ascii_lowercase() => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
                {
                    self.bump();
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
                Tok::Atom(text.to_owned())
            }
            other => return Err(self.err(format!("unexpected character {:?}", other as char))),
        };
        Ok(Some((tok, line, col)))
    }
}

/// The text of a quoted atom or string. The source is UTF-8 and quotes
/// and escapes are ASCII, so the bytes between the quotes are UTF-8 too.
fn utf8(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("a quoted token of UTF-8 source is UTF-8")
}

/// Binary operator table: (name, precedence). All are left-associative at
/// 400/500 (`yfx`) and non-associative at 700 (`xfx`).
fn op_prec(name: &str) -> Option<u32> {
    match name {
        "=" | "\\=" | "==" | "\\==" | "<" | ">" | "=<" | ">=" | "is" => Some(700),
        "+" | "-" => Some(500),
        "*" | "/" => Some(400),
        _ => None,
    }
}

struct Parser {
    toks: Vec<(Tok, u32, u32)>,
    pos: usize,
    vars: HashMap<String, u32>,
    next_var: u32,
}

impl Parser {
    fn err_at(&self, msg: impl Into<String>) -> ParseError {
        let (line, col) = self
            .toks
            .get(self.pos)
            .map(|&(_, l, c)| (l, c))
            .or_else(|| self.toks.last().map(|&(_, l, c)| (l, c)))
            .unwrap_or((1, 1));
        ParseError {
            message: msg.into(),
            line,
            col,
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _, _)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _, _)| t.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, want: &Tok, what: &str) -> Result<(), ParseError> {
        match self.peek() {
            Some(t) if t == want => {
                self.bump();
                Ok(())
            }
            other => Err(self.err_at(format!("expected {what}, found {other:?}"))),
        }
    }

    fn var_index(&mut self, name: &str) -> u32 {
        if name == "_" {
            let i = self.next_var;
            self.next_var += 1;
            return i;
        }
        if let Some(&i) = self.vars.get(name) {
            return i;
        }
        let i = self.next_var;
        self.next_var += 1;
        self.vars.insert(name.to_owned(), i);
        i
    }

    /// Operator-precedence term parser ("precedence climbing").
    fn parse_term(&mut self, max_prec: u32) -> Result<Term, ParseError> {
        let mut left = self.parse_primary()?;
        let mut left_prec = 0u32;
        loop {
            let op = match self.peek() {
                Some(Tok::Op(name)) => name.clone(),
                Some(Tok::Atom(name)) if op_prec(name).is_some() => name.clone(),
                _ => break,
            };
            let prec = op_prec(&op).unwrap();
            if prec > max_prec {
                break;
            }
            // xfx at 700: both sides strictly lower; yfx below: left <= prec.
            if prec == 700 && left_prec >= 700 {
                return Err(self.err_at(format!("operator {op} is non-associative")));
            }
            if prec < 700 && left_prec > prec {
                break;
            }
            self.bump();
            let right_max = prec - 1;
            let right = self.parse_term(right_max)?;
            left = Term::Compound(Sym::intern(&op), vec![left, right]);
            left_prec = prec;
        }
        Ok(left)
    }

    fn parse_primary(&mut self) -> Result<Term, ParseError> {
        match self.bump() {
            Some(Tok::Int(i)) => Ok(Term::Int(i)),
            Some(Tok::Float(f)) => Ok(Term::float(f)),
            Some(Tok::Str(s)) => Ok(Term::string(&s)),
            Some(Tok::Var(name)) => Ok(Term::Var(Var(self.var_index(&name)))),
            Some(Tok::Op(op)) if op == "-" => {
                // Unary minus: negative numeric literal or -(T).
                match self.peek() {
                    Some(Tok::Int(i)) => {
                        let i = *i;
                        self.bump();
                        Ok(Term::Int(-i))
                    }
                    Some(Tok::Float(f)) => {
                        let f = *f;
                        self.bump();
                        Ok(Term::float(-f))
                    }
                    _ => {
                        let inner = self.parse_term(200)?;
                        Ok(Term::Compound(Sym::intern("-"), vec![Term::Int(0), inner]))
                    }
                }
            }
            Some(Tok::LParen) => {
                let t = self.parse_term(1200)?;
                self.expect(&Tok::RParen, ")")?;
                Ok(t)
            }
            Some(Tok::Atom(name)) => {
                if self.peek() == Some(&Tok::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    loop {
                        args.push(self.parse_term(999)?);
                        match self.bump() {
                            Some(Tok::Comma) => continue,
                            Some(Tok::RParen) => break,
                            other => {
                                return Err(
                                    self.err_at(format!("expected , or ) in args, got {other:?}"))
                                )
                            }
                        }
                    }
                    Ok(Term::Compound(Sym::intern(&name), args))
                } else {
                    Ok(Term::Atom(Sym::intern(&name)))
                }
            }
            Some(Tok::NafOp) => {
                let inner = self.parse_term(900)?;
                Ok(Term::Compound(Sym::intern("\\+"), vec![inner]))
            }
            other => Err(self.err_at(format!("unexpected token {other:?} in term"))),
        }
    }

    fn term_to_literal(t: Term) -> Literal {
        match &t {
            Term::Compound(f, args) if f.as_str() == "\\+" && args.len() == 1 => {
                Literal::Neg(args[0].clone())
            }
            Term::Compound(f, args) if f.as_str() == "not" && args.len() == 1 => {
                Literal::Neg(args[0].clone())
            }
            _ => Literal::Pos(t),
        }
    }

    fn parse_body(&mut self) -> Result<Vec<Literal>, ParseError> {
        let mut body = Vec::new();
        loop {
            let t = self.parse_term(999)?;
            body.push(Self::term_to_literal(t));
            match self.peek() {
                Some(Tok::Comma) => {
                    self.bump();
                }
                _ => break,
            }
        }
        Ok(body)
    }

    fn parse_item(&mut self) -> Result<Item, ParseError> {
        self.vars.clear();
        self.next_var = 0;
        if self.peek() == Some(&Tok::Neck) {
            self.bump();
            let t = self.parse_term(1200)?;
            self.expect(&Tok::Dot, ".")?;
            return Ok(Item::Directive(t));
        }
        let head = self.parse_term(999)?;
        if head.functor().is_none() {
            return Err(self.err_at("clause head must be an atom or compound term"));
        }
        let item = if self.peek() == Some(&Tok::Neck) {
            self.bump();
            let body = self.parse_body()?;
            Item::Clause(Clause::rule(head, body))
        } else {
            Item::Clause(Clause::fact(head))
        };
        self.expect(&Tok::Dot, ".")?;
        Ok(item)
    }
}

fn tokenize(src: &str) -> Result<Vec<(Tok, u32, u32)>, ParseError> {
    let mut lx = Lexer::new(src);
    let mut out = Vec::new();
    while let Some(t) = lx.next_tok()? {
        out.push(t);
    }
    Ok(out)
}

/// Parse a whole program (clauses and directives).
pub fn parse_program(src: &str) -> Result<Vec<Item>, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        vars: HashMap::new(),
        next_var: 0,
    };
    let mut items = Vec::new();
    while p.peek().is_some() {
        items.push(p.parse_item()?);
    }
    Ok(items)
}

/// A parse result carrying the variable bookkeeping: the parsed item,
/// the number of distinct variables, and the name→index map for the
/// named variables.
pub type ParsedWithVars<T> = (T, u32, HashMap<String, u32>);

/// Parse a single term (no trailing dot). Returns the term, the number of
/// distinct variables, and the name→index map for the named variables.
pub fn parse_term_str(src: &str) -> Result<ParsedWithVars<Term>, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        vars: HashMap::new(),
        next_var: 0,
    };
    let t = p.parse_term(1200)?;
    if p.peek().is_some() {
        return Err(p.err_at("trailing tokens after term"));
    }
    Ok((t, p.next_var, p.vars))
}

/// Parse a comma-separated goal list (no trailing dot), e.g. a query body.
pub fn parse_goals(src: &str) -> Result<ParsedWithVars<Vec<Literal>>, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        vars: HashMap::new(),
        next_var: 0,
    };
    let body = p.parse_body()?;
    if p.peek().is_some() {
        return Err(p.err_at("trailing tokens after goals"));
    }
    Ok((body, p.next_var, p.vars))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_clause(src: &str) -> Clause {
        match parse_program(src).unwrap().pop().unwrap() {
            Item::Clause(c) => c,
            other => panic!("expected clause, got {other:?}"),
        }
    }

    #[test]
    fn parses_fact() {
        let c = one_clause("rate('JPY','USD', 0.0096).");
        assert_eq!(c.head.to_string(), "rate('JPY', 'USD', 0.0096)");
        assert!(c.body.is_empty());
    }

    #[test]
    fn parses_rule_with_vars() {
        let c = one_clause("p(X, Y) :- q(X), r(Y).");
        assert_eq!(c.nvars, 2);
        assert_eq!(c.body.len(), 2);
    }

    #[test]
    fn anonymous_vars_are_fresh() {
        let c = one_clause("p(_, _).");
        assert_eq!(c.nvars, 2);
        let Term::Compound(_, args) = &c.head else {
            panic!()
        };
        assert_ne!(args[0], args[1]);
    }

    #[test]
    fn named_vars_are_shared() {
        let c = one_clause("p(X, X).");
        assert_eq!(c.nvars, 1);
        let Term::Compound(_, args) = &c.head else {
            panic!()
        };
        assert_eq!(args[0], args[1]);
    }

    #[test]
    fn parses_infix_operators() {
        let c = one_clause("p(V) :- V is 2 + 3 * 4.");
        assert_eq!(c.body[0].term().to_string(), "is(_V0, +(2, *(3, 4)))");
    }

    #[test]
    fn left_assoc_multiplication() {
        let c = one_clause("p(V, R) :- V is 1000 * 2 * R.");
        // (1000 * 2) * R
        assert_eq!(c.body[0].term().to_string(), "is(_V0, *(*(1000, 2), _V1))");
    }

    #[test]
    fn parses_negation() {
        let c = one_clause("p(X) :- \\+ q(X), not(r(X)).");
        assert!(c.body[0].is_negative());
        assert!(c.body[1].is_negative());
    }

    #[test]
    fn parses_comparison_goals() {
        let c = one_clause("p(X, Y) :- X > Y, X \\== Y.");
        assert_eq!(c.body[0].term().to_string(), ">(_V0, _V1)");
        assert_eq!(c.body[1].term().to_string(), "\\==(_V0, _V1)");
    }

    #[test]
    fn parses_directive() {
        let items = parse_program(":- abducible(eqc/2, eq).").unwrap();
        match &items[0] {
            Item::Directive(t) => {
                assert_eq!(t.to_string(), "abducible(/(eqc, 2), eq)");
            }
            other => panic!("expected directive, got {other:?}"),
        }
    }

    #[test]
    fn parses_negative_numbers() {
        let c = one_clause("p(-3, -2.5).");
        assert_eq!(c.head.to_string(), "p(-3, -2.5)");
    }

    #[test]
    fn comments_are_skipped() {
        let items = parse_program("% hello\np(1). % trailing\nq(2).").unwrap();
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn strings_vs_atoms() {
        let c = one_clause("p(\"NTT\", ntt).");
        let Term::Compound(_, args) = &c.head else {
            panic!()
        };
        assert!(matches!(args[0], Term::Str(_)));
        assert!(matches!(args[1], Term::Atom(_)));
    }

    #[test]
    fn error_reports_position() {
        let e = parse_program("p(1)\nq(2).").unwrap_err();
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parse_goals_returns_var_names() {
        let (goals, nvars, names) = parse_goals("q(X, Y), X > 3").unwrap();
        assert_eq!(goals.len(), 2);
        assert_eq!(nvars, 2);
        assert!(names.contains_key("X") && names.contains_key("Y"));
    }

    #[test]
    fn nested_parens_in_expr() {
        let (t, _, _) = parse_term_str("(1 + 2) * 3").unwrap();
        assert_eq!(t.to_string(), "*(+(1, 2), 3)");
    }

    #[test]
    fn unterminated_atom_is_error() {
        assert!(parse_program("p('oops).").is_err());
    }

    #[test]
    fn escaped_quotes() {
        let c = one_clause("p('it\\'s', \"a \\\"b\\\"\").");
        let Term::Compound(_, args) = &c.head else {
            panic!()
        };
        assert_eq!(args[0], Term::atom("it's"));
        assert_eq!(args[1], Term::string("a \"b\""));
    }

    #[test]
    fn quoted_text_keeps_non_ascii() {
        let c = one_clause("p('通貨', \"Zürich\").");
        let Term::Compound(_, args) = &c.head else {
            panic!()
        };
        assert_eq!(args[0], Term::atom("通貨"));
        assert_eq!(args[1], Term::string("Zürich"));
    }
}
