//! Compiled expression programs: a flat register VM over [`Value`] cells.
//!
//! [`CExpr`] is a faithful tree interpreter, but on the
//! streaming hot path (PR 6's pull pipeline) the recursive walk is the
//! dominant per-row cost: every `Filter`/`Project`/residual-join predicate
//! re-dispatches through `Box<CExpr>` nodes, and `LIKE` re-parses its
//! pattern string on every row. This module lowers a `CExpr` once into an
//! [`ExprProg`] — a `Vec<Op>` of register-addressed opcodes evaluated in a
//! tight loop over a caller-owned, reusable register file — so per-row work
//! is a linear opcode scan with zero allocation on the common path.
//!
//! The lowering pipeline is:
//!
//! ```text
//!   CExpr --fold()--> simplified CExpr --Compiler--> ExprProg
//! ```
//!
//! * [`fold`] is a conservative compile-time constant-folding pass: any
//!   column-free subtree that evaluates without error becomes a `Const`,
//!   and the short-circuit identities the tree evaluator already guarantees
//!   (`FALSE AND x`, `TRUE OR x`, constant CASE arms) are applied. Folding
//!   never changes observable semantics — subtrees that would error per row
//!   (e.g. `1/0`) are left in place so the error still surfaces at the same
//!   point.
//! * The compiler performs stack-discipline register allocation (scratch
//!   registers above `dst` are reused across siblings) and lowers SQL
//!   three-valued short-circuiting into explicit jump opcodes, so `AND`,
//!   `OR`, `CASE`, and `IN (...)` skip exactly the sub-expressions the tree
//!   evaluator would have skipped — including their errors.
//! * `LIKE` patterns compile to a [`LikeProg`] (segment tokens with
//!   coalesced literals) held in the program's pattern pool; matching is
//!   allocation-free `str` slicing in O(text × pattern), instead of a
//!   per-row compile in [`sql_like`](crate::value::sql_like). `coin-pattern`'s Pike
//!   VM was considered and rejected here: it allocates thread lists and a
//!   decoded char buffer per match, which is exactly the per-row cost this
//!   pass removes; LIKE's two metacharacters don't need NFA generality.
//!
//! Equivalence with the tree walk (same `Result`, including error choice
//! and three-valued NULL behavior) is gated by the property suite in
//! `tests/prop_expr_vm.rs`; the tree evaluator remains the quarantined
//! reference implementation.

use std::sync::{Arc, Mutex};

use crate::expr::{CExpr, ScalarFn};
use crate::schema::Row;
use crate::value::{ArithOp, Value, ValueError};
use coin_sql::BinOp;

/// Register index into the program's register file.
pub type Reg = u16;

/// A register-VM opcode. Registers are indices into a `Vec<Value>` owned by
/// the caller and reused across rows; jump targets are absolute instruction
/// indices (forward-only, produced by the structured lowering).
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `regs[dst] = consts[idx]`
    Const { dst: Reg, idx: u32 },
    /// `regs[dst] = row[idx]`
    Col { dst: Reg, idx: u32 },
    /// `regs[dst] = regs[a] <op> regs[b]` (SQL arithmetic, NULL-propagating)
    Arith {
        dst: Reg,
        a: Reg,
        op: ArithOp,
        b: Reg,
    },
    /// `regs[dst] = regs[a] || regs[b]` (string concatenation)
    Concat { dst: Reg, a: Reg, b: Reg },
    /// Three-valued comparison (`=`, `<>`, `<`, `<=`, `>`, `>=`).
    Cmp { dst: Reg, a: Reg, op: BinOp, b: Reg },
    /// Combine the two evaluated operands of `AND` (the false short-circuit
    /// jumped past this op).
    And { dst: Reg, b: Reg },
    /// Combine the two evaluated operands of `OR` (the true short-circuit
    /// jumped past this op).
    Or { dst: Reg, b: Reg },
    /// Three-valued logical NOT (errors on non-boolean input).
    Not { dst: Reg },
    /// Numeric negation (errors on non-numeric input).
    Neg { dst: Reg },
    /// `regs[dst] = Bool((regs[dst] IS NULL) != negated)`
    IsNull { dst: Reg, negated: bool },
    /// `v BETWEEN lo AND hi` over already-evaluated registers.
    Between {
        dst: Reg,
        lo: Reg,
        hi: Reg,
        negated: bool,
    },
    /// One `IN`-list membership step: fold `regs[w]` into the tri-state
    /// accumulator `regs[acc]` (`FALSE` = no match yet, `NULL` = saw a NULL
    /// item, `TRUE` = matched).
    InStep { acc: Reg, v: Reg, w: Reg },
    /// Collapse the `IN` accumulator into the final three-valued result.
    InFinish { dst: Reg, acc: Reg, negated: bool },
    /// Match `regs[dst]` against the precompiled pattern `likes[idx]`.
    Like { dst: Reg, idx: u32, negated: bool },
    /// `regs[dst] = Bool(regs[v] = regs[w])` for CASE-operand dispatch
    /// (`sql_cmp == Equal`; NULL never matches).
    CaseEq { dst: Reg, v: Reg, w: Reg },
    /// Scalar function over `argc` consecutive registers starting at `first`.
    Scalar {
        dst: Reg,
        f: ScalarFn,
        first: Reg,
        argc: u16,
    },
    /// Unconditional jump.
    Jump { to: u32 },
    /// Jump when `regs[r] == Bool(false)` (AND short-circuit).
    JumpIfFalse { r: Reg, to: u32 },
    /// Jump when `regs[r] == Bool(true)` (OR / IN short-circuit).
    JumpIfTrue { r: Reg, to: u32 },
    /// Jump when `regs[r] != Bool(true)` (CASE branch dispatch).
    JumpIfNotTrue { r: Reg, to: u32 },
    /// Jump when `regs[r]` is NULL (IN-list NULL propagation).
    JumpIfNull { r: Reg, to: u32 },
}

/// A compiled SQL `LIKE` pattern: literal segments interleaved with
/// single-character (`_`) and any-run (`%`) wildcards. Matching slices the
/// haystack `&str` directly, with no per-row allocation. It is the only
/// `LIKE` matcher: [`sql_like`](crate::value::sql_like) compiles one per
/// call.
#[derive(Debug, Clone, PartialEq)]
pub struct LikeProg {
    toks: Vec<LikeTok>,
}

#[derive(Debug, Clone, PartialEq)]
enum LikeTok {
    /// A run of literal characters, matched with one `strip_prefix`.
    Lit(Box<str>),
    /// `_` — exactly one character.
    One,
    /// `%` — any run of characters (consecutive `%`s collapse to one).
    Many,
}

impl LikeProg {
    pub fn compile(pattern: &str) -> LikeProg {
        let mut toks: Vec<LikeTok> = Vec::new();
        let mut lit = String::new();
        for c in pattern.chars() {
            match c {
                '%' => {
                    if !lit.is_empty() {
                        toks.push(LikeTok::Lit(std::mem::take(&mut lit).into()));
                    }
                    if toks.last() != Some(&LikeTok::Many) {
                        toks.push(LikeTok::Many);
                    }
                }
                '_' => {
                    if !lit.is_empty() {
                        toks.push(LikeTok::Lit(std::mem::take(&mut lit).into()));
                    }
                    toks.push(LikeTok::One);
                }
                c => lit.push(c),
            }
        }
        if !lit.is_empty() {
            toks.push(LikeTok::Lit(lit.into()));
        }
        LikeProg { toks }
    }

    /// Does `text` match the pattern? Literal runs and `_` advance in
    /// step with the text; at a mismatch the match resumes one character
    /// past where the last `%` last resumed. A later `%` replaces that
    /// backtrack point, since what matched before it can stay as it is.
    /// So the cost is O(text × pattern), whatever the wildcards.
    pub fn matches(&self, text: &str) -> bool {
        let toks = &self.toks;
        let (mut i, mut t) = (0, text);
        // (token after the last `%`, text from where that `%` stops).
        let mut back: Option<(usize, &str)> = None;
        loop {
            match toks.get(i) {
                Some(LikeTok::Many) if i + 1 == toks.len() => return true,
                Some(LikeTok::Many) => {
                    i += 1;
                    back = Some((i, t));
                    continue;
                }
                Some(LikeTok::Lit(l)) => {
                    if let Some(rest) = t.strip_prefix(l.as_ref()) {
                        (i, t) = (i + 1, rest);
                        continue;
                    }
                }
                Some(LikeTok::One) => {
                    let mut cs = t.chars();
                    if cs.next().is_some() {
                        (i, t) = (i + 1, cs.as_str());
                        continue;
                    }
                }
                None if t.is_empty() => return true,
                None => {}
            }
            let Some((resume, swallowed)) = back else {
                return false;
            };
            let mut cs = swallowed.chars();
            if cs.next().is_none() {
                return false;
            }
            (i, t) = (resume, cs.as_str());
            back = Some((resume, t));
        }
    }
}

/// A compiled expression program. Compile once (per plan), evaluate per row
/// against a reusable register file.
#[derive(Debug, Clone, PartialEq)]
pub struct ExprProg {
    ops: Vec<Op>,
    consts: Vec<Value>,
    likes: Vec<LikeProg>,
    n_regs: usize,
}

impl ExprProg {
    /// Lower `e` (folding constants first) into a register program.
    pub fn compile(e: &CExpr) -> ExprProg {
        let folded = fold(e);
        let mut c = Compiler::default();
        c.emit(&folded, 0, 1);
        ExprProg {
            ops: c.ops,
            consts: c.consts,
            likes: c.likes,
            n_regs: c.n_regs.max(1),
        }
    }

    /// Number of opcodes (diagnostics / tests).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Registers the program needs; `eval` grows the supplied file to this.
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Evaluate against a row. Same contract as
    /// [`CExpr::eval`](crate::expr::CExpr::eval): `Bool`/`Null`
    /// three-valued results for predicates, identical error behavior.
    /// `regs` is grown on first use and reused verbatim across calls.
    ///
    /// The row is anything a column load can read from: one row, or a
    /// [`Joined`] pair that a join's predicate reads in place.
    pub fn eval<R: Columns>(&self, row: &R, regs: &mut Vec<Value>) -> Result<Value, ValueError> {
        if regs.len() < self.n_regs {
            regs.resize(self.n_regs, Value::Null);
        }
        let mut pc = 0usize;
        while pc < self.ops.len() {
            match &self.ops[pc] {
                Op::Const { dst, idx } => {
                    regs[*dst as usize] = self.consts[*idx as usize].clone();
                }
                Op::Col { dst, idx } => {
                    regs[*dst as usize] = row.column(*idx as usize).clone();
                }
                Op::Arith { dst, a, op, b } => {
                    let v = regs[*a as usize].arith(*op, &regs[*b as usize])?;
                    regs[*dst as usize] = v;
                }
                Op::Concat { dst, a, b } => {
                    let v = regs[*a as usize].concat(&regs[*b as usize]);
                    regs[*dst as usize] = v;
                }
                Op::Cmp { dst, a, op, b } => {
                    let (a, b) = (&regs[*a as usize], &regs[*b as usize]);
                    let v = if a.is_null() || b.is_null() {
                        Value::Null
                    } else {
                        match a.sql_cmp(b) {
                            Some(ord) => Value::Bool(match op {
                                BinOp::Eq => ord == std::cmp::Ordering::Equal,
                                BinOp::Neq => ord != std::cmp::Ordering::Equal,
                                BinOp::Lt => ord == std::cmp::Ordering::Less,
                                BinOp::Le => ord != std::cmp::Ordering::Greater,
                                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                                BinOp::Ge => ord != std::cmp::Ordering::Less,
                                _ => unreachable!("non-comparison in Cmp"),
                            }),
                            // Incomparable classes: equality is false,
                            // inequality true, ordering unknown.
                            None => match op {
                                BinOp::Eq => Value::Bool(false),
                                BinOp::Neq => Value::Bool(true),
                                _ => Value::Null,
                            },
                        }
                    };
                    regs[*dst as usize] = v;
                }
                Op::And { dst, b } => {
                    // The false short-circuit already jumped past us, so
                    // regs[dst] is TRUE, NULL, or a non-boolean.
                    let v = match (&regs[*dst as usize], &regs[*b as usize]) {
                        (Value::Bool(true), Value::Bool(true)) => Value::Bool(true),
                        (_, Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    };
                    regs[*dst as usize] = v;
                }
                Op::Or { dst, b } => {
                    let v = match (&regs[*dst as usize], &regs[*b as usize]) {
                        (_, Value::Bool(true)) => Value::Bool(true),
                        (Value::Bool(false), Value::Bool(false)) => Value::Bool(false),
                        _ => Value::Null,
                    };
                    regs[*dst as usize] = v;
                }
                Op::Not { dst } => {
                    let v = match &regs[*dst as usize] {
                        Value::Bool(b) => Value::Bool(!b),
                        Value::Null => Value::Null,
                        other => {
                            return Err(ValueError::TypeMismatch(format!(
                                "NOT on {}",
                                other.type_name()
                            )))
                        }
                    };
                    regs[*dst as usize] = v;
                }
                Op::Neg { dst } => {
                    let v = match &regs[*dst as usize] {
                        // i64::MIN widens to float, like overflowing +/-/*.
                        Value::Int(i) => i
                            .checked_neg()
                            .map_or_else(|| Value::Float(-(*i as f64)), Value::Int),
                        Value::Float(f) => Value::Float(-f),
                        Value::Null => Value::Null,
                        other => {
                            return Err(ValueError::TypeMismatch(format!(
                                "negation of {}",
                                other.type_name()
                            )))
                        }
                    };
                    regs[*dst as usize] = v;
                }
                Op::IsNull { dst, negated } => {
                    let v = Value::Bool(regs[*dst as usize].is_null() != *negated);
                    regs[*dst as usize] = v;
                }
                Op::Between {
                    dst,
                    lo,
                    hi,
                    negated,
                } => {
                    let (v, lo, hi) = (
                        &regs[*dst as usize],
                        &regs[*lo as usize],
                        &regs[*hi as usize],
                    );
                    let out = if v.is_null() || lo.is_null() || hi.is_null() {
                        Value::Null
                    } else {
                        match (v.sql_cmp(lo), v.sql_cmp(hi)) {
                            (Some(a), Some(b)) => {
                                let inside = a != std::cmp::Ordering::Less
                                    && b != std::cmp::Ordering::Greater;
                                Value::Bool(inside != *negated)
                            }
                            _ => Value::Null,
                        }
                    };
                    regs[*dst as usize] = out;
                }
                Op::InStep { acc, v, w } => {
                    let w = &regs[*w as usize];
                    if w.is_null() {
                        if regs[*acc as usize] == Value::Bool(false) {
                            regs[*acc as usize] = Value::Null;
                        }
                    } else if regs[*v as usize].sql_cmp(w) == Some(std::cmp::Ordering::Equal) {
                        regs[*acc as usize] = Value::Bool(true);
                    }
                }
                Op::InFinish { dst, acc, negated } => {
                    let v = match &regs[*acc as usize] {
                        Value::Bool(true) => Value::Bool(!*negated),
                        Value::Null => Value::Null,
                        _ => Value::Bool(*negated),
                    };
                    regs[*dst as usize] = v;
                }
                Op::Like { dst, idx, negated } => {
                    let v = match &regs[*dst as usize] {
                        Value::Null => Value::Null,
                        Value::Str(s) => {
                            Value::Bool(self.likes[*idx as usize].matches(s) != *negated)
                        }
                        other => {
                            return Err(ValueError::TypeMismatch(format!(
                                "LIKE on {}",
                                other.type_name()
                            )))
                        }
                    };
                    regs[*dst as usize] = v;
                }
                Op::CaseEq { dst, v, w } => {
                    let eq = regs[*v as usize].sql_cmp(&regs[*w as usize])
                        == Some(std::cmp::Ordering::Equal);
                    regs[*dst as usize] = Value::Bool(eq);
                }
                Op::Scalar {
                    dst,
                    f,
                    first,
                    argc,
                } => {
                    let args = &regs[*first as usize..(*first + *argc) as usize];
                    let v = if args.iter().any(Value::is_null) {
                        Value::Null
                    } else {
                        match (f, args) {
                            (ScalarFn::Upper, [Value::Str(s)]) => Value::from(s.to_uppercase()),
                            (ScalarFn::Lower, [Value::Str(s)]) => Value::from(s.to_lowercase()),
                            // i64::MIN widens to float, like overflowing
                            // arithmetic.
                            (ScalarFn::Abs, [Value::Int(i)]) => i
                                .checked_abs()
                                .map_or_else(|| Value::Float((*i as f64).abs()), Value::Int),
                            (ScalarFn::Abs, [Value::Float(x)]) => Value::Float(x.abs()),
                            (ScalarFn::Round, [Value::Float(x)]) => Value::Int(x.round() as i64),
                            (ScalarFn::Round, [Value::Int(i)]) => Value::Int(*i),
                            (ScalarFn::Length, [Value::Str(s)]) => {
                                Value::Int(s.chars().count() as i64)
                            }
                            (f, args) => {
                                return Err(ValueError::TypeMismatch(format!("{f:?} on {args:?}")))
                            }
                        }
                    };
                    regs[*dst as usize] = v;
                }
                Op::Jump { to } => {
                    pc = *to as usize;
                    continue;
                }
                Op::JumpIfFalse { r, to } => {
                    if regs[*r as usize] == Value::Bool(false) {
                        pc = *to as usize;
                        continue;
                    }
                }
                Op::JumpIfTrue { r, to } => {
                    if regs[*r as usize] == Value::Bool(true) {
                        pc = *to as usize;
                        continue;
                    }
                }
                Op::JumpIfNotTrue { r, to } => {
                    if regs[*r as usize] != Value::Bool(true) {
                        pc = *to as usize;
                        continue;
                    }
                }
                Op::JumpIfNull { r, to } => {
                    if regs[*r as usize].is_null() {
                        pc = *to as usize;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        Ok(std::mem::replace(&mut regs[0], Value::Null))
    }

    /// Evaluate as a filter predicate (SQL semantics: NULL fails).
    pub fn matches<R: Columns>(&self, row: &R, regs: &mut Vec<Value>) -> Result<bool, ValueError> {
        Ok(self.eval(row, regs)?.is_true())
    }
}

/// Where a program's column loads read from.
pub trait Columns {
    /// The value of column `i`.
    fn column(&self, i: usize) -> &Value;
}

impl Columns for Row {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        &self[i]
    }
}

/// Two rows read as the one row `left ++ right`, without building it: what
/// a join's predicate evaluates over, compiled against the concatenation of
/// its two input schemas.
#[derive(Debug, Clone, Copy)]
pub struct Joined<'a>(pub &'a [Value], pub &'a [Value]);

impl Columns for Joined<'_> {
    #[inline]
    fn column(&self, i: usize) -> &Value {
        match self.0.get(i) {
            Some(v) => v,
            None => &self.1[i - self.0.len()],
        }
    }
}

/// Lower a `CExpr`, sharing through `cache` when one is supplied (the
/// per-plan compile-once seam) and compiling standalone otherwise.
pub fn lower(e: &CExpr, cache: Option<&ExprCache>) -> Arc<ExprProg> {
    match cache {
        Some(c) => c.lower(e),
        None => Arc::new(ExprProg::compile(e)),
    }
}

/// A per-plan program cache: lowering the same `CExpr` twice (e.g. across
/// re-executions of a prepared plan, or pipeline rebuilds per stream)
/// returns the same shared [`ExprProg`]. Entry counts are tiny (one per
/// expression position in a plan), so lookup is a linear structural scan.
#[derive(Debug, Default)]
pub struct ExprCache {
    entries: Mutex<Vec<(CExpr, Arc<ExprProg>)>>,
}

impl ExprCache {
    pub fn new() -> ExprCache {
        ExprCache::default()
    }

    /// Return the cached program for `e`, compiling and caching on miss.
    pub fn lower(&self, e: &CExpr) -> Arc<ExprProg> {
        let mut entries = self.entries.lock().unwrap();
        if let Some((_, p)) = entries.iter().find(|(k, _)| k == e) {
            return Arc::clone(p);
        }
        let p = Arc::new(ExprProg::compile(e));
        entries.push((e.clone(), Arc::clone(&p)));
        p
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Conservative compile-time constant folding / identity simplification.
///
/// Guarantees `fold(e).eval(row) == e.eval(row)` for every row, including
/// the error case: a column-free subtree is replaced by its value only when
/// evaluation *succeeds* (so `1/0` still raises per row), and the only
/// short-circuit identities applied are the ones the tree evaluator already
/// performs (`FALSE AND x` and `TRUE OR x` never evaluate `x`; a constant
/// non-matching CASE arm never evaluates its result). The unsound-looking
/// duals (`x AND FALSE` → `FALSE`, `x AND TRUE` → `x`) are deliberately NOT
/// applied: the left side may error, and non-boolean `x` yields NULL under
/// `AND` but its own value alone.
pub fn fold(e: &CExpr) -> CExpr {
    let folded = match e {
        CExpr::Const(_) | CExpr::Col(_) => e.clone(),
        CExpr::Arith(l, op, r) => CExpr::Arith(Box::new(fold(l)), *op, Box::new(fold(r))),
        CExpr::Concat(l, r) => CExpr::Concat(Box::new(fold(l)), Box::new(fold(r))),
        CExpr::Cmp(l, op, r) => CExpr::Cmp(Box::new(fold(l)), *op, Box::new(fold(r))),
        CExpr::And(l, r) => {
            let l = fold(l);
            if l == CExpr::Const(Value::Bool(false)) {
                return l; // tree eval short-circuits before touching r
            }
            CExpr::And(Box::new(l), Box::new(fold(r)))
        }
        CExpr::Or(l, r) => {
            let l = fold(l);
            if l == CExpr::Const(Value::Bool(true)) {
                return l;
            }
            CExpr::Or(Box::new(l), Box::new(fold(r)))
        }
        CExpr::Not(inner) => CExpr::Not(Box::new(fold(inner))),
        CExpr::Neg(inner) => CExpr::Neg(Box::new(fold(inner))),
        CExpr::Between {
            expr,
            low,
            high,
            negated,
        } => CExpr::Between {
            expr: Box::new(fold(expr)),
            low: Box::new(fold(low)),
            high: Box::new(fold(high)),
            negated: *negated,
        },
        CExpr::InList {
            expr,
            list,
            negated,
        } => CExpr::InList {
            expr: Box::new(fold(expr)),
            list: list.iter().map(fold).collect(),
            negated: *negated,
        },
        CExpr::Like {
            expr,
            pattern,
            negated,
        } => CExpr::Like {
            expr: Box::new(fold(expr)),
            pattern: pattern.clone(),
            negated: *negated,
        },
        CExpr::IsNull { expr, negated } => CExpr::IsNull {
            expr: Box::new(fold(expr)),
            negated: *negated,
        },
        CExpr::Case {
            operand,
            branches,
            else_branch,
        } => fold_case(
            operand.as_deref().map(fold),
            branches.iter().map(|(c, v)| (fold(c), fold(v))),
            else_branch.as_deref().map(fold),
        ),
        CExpr::Scalar(f, args) => CExpr::Scalar(*f, args.iter().map(fold).collect()),
    };
    // General rule: a column-free expression evaluates identically on every
    // row — precompute it, but only when evaluation succeeds (otherwise the
    // node stays and errors per row exactly like the tree walk).
    if !matches!(folded, CExpr::Const(_)) && !contains_col(&folded) {
        if let Ok(v) = folded.eval(&Vec::new()) {
            return CExpr::Const(v);
        }
    }
    folded
}

/// CASE folding over already-folded pieces. Constant conditions are
/// evaluable without error, so dropping a never-matching arm (or committing
/// to an always-matching one) preserves semantics exactly.
fn fold_case(
    operand: Option<CExpr>,
    branches: impl Iterator<Item = (CExpr, CExpr)>,
    else_branch: Option<CExpr>,
) -> CExpr {
    let mut kept: Vec<(CExpr, CExpr)> = Vec::new();
    let mut else_branch = else_branch;
    let const_operand = match &operand {
        Some(CExpr::Const(v)) => Some(v.clone()),
        _ => None,
    };
    for (c, out) in branches {
        let verdict = match (&c, &operand, &const_operand) {
            // Searched CASE: WHEN <const> dispatches on truthiness.
            (CExpr::Const(v), None, _) => Some(v.is_true()),
            // CASE <const operand> WHEN <const>: dispatch on equality.
            (CExpr::Const(w), Some(_), Some(v)) => {
                Some(v.sql_cmp(w) == Some(std::cmp::Ordering::Equal))
            }
            // Unknown operand, but a NULL arm never equals anything.
            (CExpr::Const(Value::Null), Some(_), None) => Some(false),
            _ => None,
        };
        match verdict {
            Some(false) => continue, // constant non-matching arm: drop
            Some(true) => {
                // Constant matching arm: everything after it is dead.
                else_branch = Some(out);
                break;
            }
            None => kept.push((c, out)),
        }
    }
    if kept.is_empty() {
        // All arms resolved at compile time; the operand (if any) is either
        // constant or irrelevant, so the whole CASE is its ELSE.
        return else_branch.unwrap_or(CExpr::Const(Value::Null));
    }
    CExpr::Case {
        operand: operand.map(Box::new),
        branches: kept,
        else_branch: else_branch.map(Box::new),
    }
}

fn contains_col(e: &CExpr) -> bool {
    match e {
        CExpr::Col(_) => true,
        CExpr::Const(_) => false,
        CExpr::Arith(l, _, r) | CExpr::Concat(l, r) | CExpr::Cmp(l, _, r) => {
            contains_col(l) || contains_col(r)
        }
        CExpr::And(l, r) | CExpr::Or(l, r) => contains_col(l) || contains_col(r),
        CExpr::Not(i) | CExpr::Neg(i) => contains_col(i),
        CExpr::Between {
            expr, low, high, ..
        } => contains_col(expr) || contains_col(low) || contains_col(high),
        CExpr::InList { expr, list, .. } => contains_col(expr) || list.iter().any(contains_col),
        CExpr::Like { expr, .. } => contains_col(expr),
        CExpr::IsNull { expr, .. } => contains_col(expr),
        CExpr::Case {
            operand,
            branches,
            else_branch,
        } => {
            operand.as_deref().is_some_and(contains_col)
                || branches
                    .iter()
                    .any(|(c, v)| contains_col(c) || contains_col(v))
                || else_branch.as_deref().is_some_and(contains_col)
        }
        CExpr::Scalar(_, args) => args.iter().any(contains_col),
    }
}

/// The structured lowerer: stack-discipline register allocation (each node
/// receives a destination register and the first scratch register its
/// temporaries may use), forward jump patching for short-circuit control
/// flow.
#[derive(Default)]
struct Compiler {
    ops: Vec<Op>,
    consts: Vec<Value>,
    likes: Vec<LikeProg>,
    n_regs: usize,
}

impl Compiler {
    fn touch(&mut self, r: Reg) {
        self.n_regs = self.n_regs.max(r as usize + 1);
    }

    fn const_idx(&mut self, v: &Value) -> u32 {
        match self.consts.iter().position(|c| c == v) {
            Some(i) => i as u32,
            None => {
                self.consts.push(v.clone());
                (self.consts.len() - 1) as u32
            }
        }
    }

    fn push(&mut self, op: Op) -> usize {
        self.ops.push(op);
        self.ops.len() - 1
    }

    /// Point a previously pushed jump at the *next* instruction.
    fn patch_here(&mut self, at: usize) {
        let to = self.ops.len() as u32;
        match &mut self.ops[at] {
            Op::Jump { to: t }
            | Op::JumpIfFalse { to: t, .. }
            | Op::JumpIfTrue { to: t, .. }
            | Op::JumpIfNotTrue { to: t, .. }
            | Op::JumpIfNull { to: t, .. } => *t = to,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    /// Emit code leaving `e`'s value in `dst`; registers `>= scratch` are
    /// free for temporaries (always `scratch > dst`).
    fn emit(&mut self, e: &CExpr, dst: Reg, scratch: Reg) {
        self.touch(dst);
        match e {
            CExpr::Const(v) => {
                let idx = self.const_idx(v);
                self.push(Op::Const { dst, idx });
            }
            CExpr::Col(i) => {
                self.push(Op::Col {
                    dst,
                    idx: *i as u32,
                });
            }
            CExpr::Arith(l, op, r) => {
                self.emit(l, dst, scratch);
                self.emit(r, scratch, scratch + 1);
                self.push(Op::Arith {
                    dst,
                    a: dst,
                    op: *op,
                    b: scratch,
                });
            }
            CExpr::Concat(l, r) => {
                self.emit(l, dst, scratch);
                self.emit(r, scratch, scratch + 1);
                self.push(Op::Concat {
                    dst,
                    a: dst,
                    b: scratch,
                });
            }
            CExpr::Cmp(l, op, r) => {
                self.emit(l, dst, scratch);
                self.emit(r, scratch, scratch + 1);
                self.push(Op::Cmp {
                    dst,
                    a: dst,
                    op: *op,
                    b: scratch,
                });
            }
            CExpr::And(l, r) => {
                self.emit(l, dst, scratch);
                // FALSE short-circuits with dst already holding the result;
                // the right side (and its errors) is skipped entirely.
                let j = self.push(Op::JumpIfFalse { r: dst, to: 0 });
                self.emit(r, scratch, scratch + 1);
                self.push(Op::And { dst, b: scratch });
                self.patch_here(j);
            }
            CExpr::Or(l, r) => {
                self.emit(l, dst, scratch);
                let j = self.push(Op::JumpIfTrue { r: dst, to: 0 });
                self.emit(r, scratch, scratch + 1);
                self.push(Op::Or { dst, b: scratch });
                self.patch_here(j);
            }
            CExpr::Not(inner) => {
                self.emit(inner, dst, scratch);
                self.push(Op::Not { dst });
            }
            CExpr::Neg(inner) => {
                self.emit(inner, dst, scratch);
                self.push(Op::Neg { dst });
            }
            CExpr::IsNull { expr, negated } => {
                self.emit(expr, dst, scratch);
                self.push(Op::IsNull {
                    dst,
                    negated: *negated,
                });
            }
            CExpr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                self.touch(scratch + 1);
                self.emit(expr, dst, scratch);
                self.emit(low, scratch, scratch + 2);
                self.emit(high, scratch + 1, scratch + 2);
                self.push(Op::Between {
                    dst,
                    lo: scratch,
                    hi: scratch + 1,
                    negated: *negated,
                });
            }
            CExpr::InList {
                expr,
                list,
                negated,
            } => {
                self.touch(scratch + 1);
                self.emit(expr, dst, scratch);
                // NULL subject: dst already holds the NULL result.
                let skip = self.push(Op::JumpIfNull { r: dst, to: 0 });
                let acc = scratch;
                let f = self.const_idx(&Value::Bool(false));
                self.push(Op::Const { dst: acc, idx: f });
                let mut shorts = Vec::with_capacity(list.len());
                for item in list {
                    self.emit(item, scratch + 1, scratch + 2);
                    self.push(Op::InStep {
                        acc,
                        v: dst,
                        w: scratch + 1,
                    });
                    // A match settles the list; later items (and their
                    // errors) are skipped, matching the tree's `break`.
                    shorts.push(self.push(Op::JumpIfTrue { r: acc, to: 0 }));
                }
                for s in shorts {
                    self.patch_here(s);
                }
                self.push(Op::InFinish {
                    dst,
                    acc,
                    negated: *negated,
                });
                self.patch_here(skip);
            }
            CExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                self.emit(expr, dst, scratch);
                let idx = self.likes.len() as u32;
                self.likes.push(LikeProg::compile(pattern));
                self.push(Op::Like {
                    dst,
                    idx,
                    negated: *negated,
                });
            }
            CExpr::Case {
                operand,
                branches,
                else_branch,
            } => {
                let mut ends = Vec::with_capacity(branches.len());
                match operand {
                    Some(op) => {
                        // Operand lives in `scratch` across all arms;
                        // conditions evaluate into scratch+1.
                        self.touch(scratch + 1);
                        self.emit(op, scratch, scratch + 1);
                        for (c, out) in branches {
                            self.emit(c, scratch + 1, scratch + 2);
                            self.push(Op::CaseEq {
                                dst: scratch + 1,
                                v: scratch,
                                w: scratch + 1,
                            });
                            let next = self.push(Op::JumpIfNotTrue {
                                r: scratch + 1,
                                to: 0,
                            });
                            self.emit(out, dst, scratch);
                            ends.push(self.push(Op::Jump { to: 0 }));
                            self.patch_here(next);
                        }
                    }
                    None => {
                        for (c, out) in branches {
                            self.emit(c, scratch, scratch + 1);
                            let next = self.push(Op::JumpIfNotTrue { r: scratch, to: 0 });
                            self.emit(out, dst, scratch);
                            ends.push(self.push(Op::Jump { to: 0 }));
                            self.patch_here(next);
                        }
                    }
                }
                match else_branch {
                    Some(e) => self.emit(e, dst, scratch),
                    None => {
                        let idx = self.const_idx(&Value::Null);
                        self.push(Op::Const { dst, idx });
                    }
                }
                for end in ends {
                    self.patch_here(end);
                }
            }
            CExpr::Scalar(f, args) => {
                let argc = args.len() as u16;
                let temps = scratch + argc;
                for (i, a) in args.iter().enumerate() {
                    self.emit(a, scratch + i as u16, temps);
                }
                if argc > 0 {
                    self.touch(scratch + argc - 1);
                }
                self.push(Op::Scalar {
                    dst,
                    f: *f,
                    first: scratch,
                    argc,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnType, Schema};
    use crate::value::sql_like;
    use coin_sql::parse_expr;

    fn schema() -> Schema {
        Schema::of(&[
            ("r1.cname", ColumnType::Str),
            ("r1.revenue", ColumnType::Int),
            ("r1.currency", ColumnType::Str),
        ])
    }

    fn cexpr(src: &str) -> CExpr {
        let e = parse_expr(src).unwrap();
        crate::expr::compile(&e, &schema()).unwrap()
    }

    /// Assert VM result == tree-walk result (including errors) on `row`.
    fn check(src: &str, row: &[Value]) {
        let c = cexpr(src);
        let prog = ExprProg::compile(&c);
        let mut regs = Vec::new();
        let row = row.to_vec();
        assert_eq!(prog.eval(&row, &mut regs), c.eval(&row), "expr: {src}");
        // And again with the (dirty) reused register file.
        assert_eq!(prog.eval(&row, &mut regs), c.eval(&row), "rerun: {src}");
    }

    fn row() -> Vec<Value> {
        vec![Value::str("NTT"), Value::Int(1_000_000), Value::str("JPY")]
    }

    fn null_row() -> Vec<Value> {
        vec![Value::Null, Value::Null, Value::Null]
    }

    #[test]
    fn vm_matches_tree_on_battery() {
        let exprs = [
            "r1.cname",
            "revenue * 1000 * 0.0096",
            "revenue > 500 AND currency = 'JPY'",
            "revenue > 500 OR currency = 'USD'",
            "NOT (revenue > 500)",
            "-revenue + 7",
            "revenue BETWEEN 1 AND 2000000",
            "revenue NOT BETWEEN 1 AND 10",
            "currency IN ('USD', 'JPY', cname)",
            "currency NOT IN ('USD')",
            "5 IN (1, NULL)",
            "cname LIKE 'N%'",
            "cname LIKE '%T_'",
            "cname NOT LIKE '%zz%'",
            "cname IS NULL",
            "revenue IS NOT NULL",
            "CASE WHEN currency = 'JPY' THEN revenue * 1000 ELSE revenue END",
            "CASE currency WHEN 'JPY' THEN 1000 WHEN 'USD' THEN 1 END",
            "UPPER(currency) || '-' || LOWER(cname)",
            "LENGTH(cname) + ABS(-5) + ROUND(2.6)",
            "revenue = 'JPY'",
            "cname <> 5",
            "revenue / 0",
            "NOT revenue",
            "revenue + currency",
            "CASE WHEN 1 THEN 2 END",
        ];
        for src in exprs {
            check(src, &row());
            check(src, &null_row());
        }
    }

    #[test]
    fn short_circuit_skips_errors_like_tree() {
        // All of these error on one side; the tree walk skips the error via
        // short-circuit, and so must the VM.
        check("FALSE AND (1/0 = 1)", &row());
        check("TRUE OR (1/0 = 1)", &row());
        check("currency = 'JPY' OR (revenue / 0) = 1", &row());
        check("'JPY' IN ('JPY', 'x' + 1)", &row());
        check(
            "CASE WHEN currency = 'JPY' THEN 1 WHEN 1/0 = 1 THEN 2 END",
            &row(),
        );
        // ...and these must still error, identically.
        check("TRUE AND (1/0 = 1)", &row());
        check("currency = 'USD' OR (revenue / 0) = 1", &row());
    }

    #[test]
    fn registers_reused_across_rows() {
        let c = cexpr("revenue * 2 + LENGTH(cname)");
        let prog = ExprProg::compile(&c);
        let mut regs = Vec::new();
        for i in 0..10 {
            let r = vec![Value::str("abc"), Value::Int(i), Value::str("JPY")];
            assert_eq!(
                prog.eval(&r, &mut regs).unwrap(),
                Value::Int(i * 2 + 3),
                "row {i}"
            );
        }
        assert_eq!(regs.len(), prog.register_count());
    }

    #[test]
    fn like_prog_matches_fixed_cases() {
        let cases = [
            ("NTT", "N%", true),
            ("NTT", "%T", true),
            ("NTT", "N_T", true),
            ("NTT", "N_", false),
            ("", "%", true),
            ("", "_", false),
            ("", "", true),
            ("abc", "abc", true),
            ("a%c", "a%c", true),
            ("International Business Machines", "%Business%", true),
            ("aaab", "%aab", true),
            ("aaab", "a%a%b", true),
            ("aaab", "a%a%a%a%b", false),
            ("banana", "%an%an%", true),
            ("banana", "%ana%ana%", false),
            ("xyz", "%%%", true),
            ("xyz", "___", true),
            ("xyz", "____", false),
            ("xyz", "%y", false),
            ("日本電信電話", "日%話", true),
            ("日本電信電話", "_本%", true),
            ("日本電信電話", "%電_", true),
        ];
        for (text, pat, expected) in cases {
            assert_eq!(
                LikeProg::compile(pat).matches(text),
                expected,
                "text={text:?} pat={pat:?}"
            );
            assert_eq!(sql_like(text, pat), expected, "text={text:?} pat={pat:?}");
        }
    }

    /// k = 20 `%_` pairs against 200 characters that never match: a matcher
    /// that tries every suffix at each `%` needs about 3^k steps here. The
    /// match runs on its own thread so that such a matcher fails the test
    /// instead of hanging it.
    #[test]
    fn like_with_many_wildcards_answers_in_linear_time() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let prog = LikeProg::compile(&format!("{}Z", "%_".repeat(20)));
            let text = "International Business Machines ".repeat(7)[..200].to_owned();
            let best = (0..5)
                .map(|_| {
                    let t0 = std::time::Instant::now();
                    assert!(!prog.matches(&text));
                    t0.elapsed()
                })
                .min()
                .unwrap();
            tx.send(best).unwrap();
        });
        let best = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("LIKE with 20 wildcard pairs took more than 10 s");
        assert!(best < std::time::Duration::from_millis(1), "took {best:?}");
    }

    #[test]
    fn fold_precomputes_column_free_subtrees() {
        assert_eq!(fold(&cexpr("1 + 2 * 3")), CExpr::Const(Value::Int(7)));
        assert_eq!(fold(&cexpr("'a' || 'b'")), CExpr::Const(Value::str("ab")));
        assert_eq!(fold(&cexpr("1 = 1")), CExpr::Const(Value::Bool(true)));
        // Column-dependent parts survive with folded constants inside.
        assert_eq!(
            fold(&cexpr("revenue > 2 + 3")),
            CExpr::Cmp(
                Box::new(CExpr::Col(1)),
                BinOp::Gt,
                Box::new(CExpr::Const(Value::Int(5)))
            )
        );
    }

    #[test]
    fn fold_preserves_runtime_errors() {
        // 1/0 must NOT fold away — it errors per evaluation.
        let e = cexpr("1 / 0");
        assert!(matches!(fold(&e), CExpr::Arith(..)));
        assert_eq!(fold(&e).eval(&Vec::new()), Err(ValueError::DivisionByZero));
        // But a short-circuit that hides the error folds to the constant.
        assert_eq!(
            fold(&cexpr("FALSE AND (1/0 = 1)")),
            CExpr::Const(Value::Bool(false))
        );
        assert_eq!(
            fold(&cexpr("TRUE OR (1/0 = 1)")),
            CExpr::Const(Value::Bool(true))
        );
        // The dual is unsound and must stay unfolded.
        assert!(matches!(
            fold(&cexpr("(1/0 = 1) AND FALSE")),
            CExpr::And(..)
        ));
    }

    #[test]
    fn fold_short_circuits_against_columns() {
        // FALSE AND <col expr> folds even though the right side has columns.
        assert_eq!(
            fold(&cexpr("1 = 2 AND revenue > 5")),
            CExpr::Const(Value::Bool(false))
        );
        assert_eq!(
            fold(&cexpr("1 = 1 OR revenue > 5")),
            CExpr::Const(Value::Bool(true))
        );
        // 1=1 AND x simplifies to And(Const(true), x) — kept (dropping the
        // left would change non-bool x semantics); the VM's jump makes the
        // remaining overhead one comparison.
        let folded = fold(&cexpr("1 = 1 AND revenue > 5"));
        assert!(matches!(folded, CExpr::And(..)));
    }

    #[test]
    fn fold_prunes_constant_case_arms() {
        assert_eq!(
            fold(&cexpr(
                "CASE WHEN 1 = 2 THEN 'a' WHEN 1 = 1 THEN 'b' ELSE cname END"
            )),
            CExpr::Const(Value::str("b"))
        );
        // Arm after a kept unknown arm still drops when constant-false.
        let folded = fold(&cexpr(
            "CASE WHEN revenue > 5 THEN 'a' WHEN 1 = 2 THEN 'b' ELSE 'c' END",
        ));
        match folded {
            CExpr::Case { branches, .. } => assert_eq!(branches.len(), 1),
            other => panic!("{other:?}"),
        }
        // CASE <const> WHEN <const> resolves fully.
        assert_eq!(
            fold(&cexpr("CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END")),
            CExpr::Const(Value::str("b"))
        );
        // NULL arm can never match any operand.
        let folded = fold(&cexpr("CASE revenue WHEN NULL THEN 'a' ELSE 'b' END"));
        assert_eq!(folded, CExpr::Const(Value::str("b")));
    }

    #[test]
    fn fold_equivalence_on_rows() {
        for src in [
            "CASE WHEN 1 = 1 THEN revenue ELSE 1/0 END",
            "revenue IN (1000000, 1 + 2)",
            "NOT (1 = 2) AND revenue > 0",
        ] {
            let e = cexpr(src);
            let f = fold(&e);
            for r in [row(), null_row()] {
                assert_eq!(e.eval(&r), f.eval(&r), "expr: {src}");
            }
        }
    }

    #[test]
    fn const_pool_dedupes() {
        let prog = ExprProg::compile(&cexpr("currency IN ('JPY', 'JPY', 'JPY')"));
        // 'JPY' appears once in the pool (plus the IN accumulator FALSE).
        assert_eq!(
            prog.consts
                .iter()
                .filter(|v| **v == Value::str("JPY"))
                .count(),
            1
        );
    }

    #[test]
    fn cache_shares_programs() {
        let cache = ExprCache::new();
        let e = cexpr("revenue > 500");
        let p1 = cache.lower(&e);
        let p2 = cache.lower(&e);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 1);
        let q = cache.lower(&cexpr("revenue > 501"));
        assert!(!Arc::ptr_eq(&p1, &q));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn whole_program_folds_to_single_const() {
        let prog = ExprProg::compile(&cexpr("1 + 2 = 3"));
        assert_eq!(prog.len(), 1);
        let mut regs = Vec::new();
        assert_eq!(
            prog.eval(&Vec::new(), &mut regs).unwrap(),
            Value::Bool(true)
        );
    }
}
