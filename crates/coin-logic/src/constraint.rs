//! The residual constraint store.
//!
//! During mediation, predicates that cannot be decided at rewrite time —
//! comparisons over symbolic column references, disequalities coming from
//! `dif/2` — are *residualized*: recorded in the constraint store attached to
//! the derivation. Each abductive answer then carries its residual
//! constraints, which `coin-core` renders into the WHERE clause of the
//! corresponding mediated sub-query.
//!
//! The store performs *sound but incomplete* consistency checking: it
//! detects ground violations and direct syntactic contradictions
//! (`x < y` with `y < x`, `dif(t, t)`, equal bounds conflicts), which is
//! exactly what the COIN mediation encoding needs to prune impossible case
//! combinations early. Undetected inconsistencies merely yield an empty
//! sub-query at execution time — correctness is unaffected.

use crate::bindings::Bindings;
use crate::term::Term;

/// The relational operator of a residual constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Neq,
    Eq,
}

impl CmpOp {
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Eq => CmpOp::Eq,
        }
    }

    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Eq => CmpOp::Neq,
        }
    }

    pub fn eval(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
            CmpOp::Neq => ord != Equal,
            CmpOp::Eq => ord == Equal,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "=<",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Neq => "\\=",
            CmpOp::Eq => "=",
        }
    }
}

/// A residual constraint `lhs op rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub op: CmpOp,
    pub lhs: Term,
    pub rhs: Term,
}

impl std::fmt::Display for Constraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op.symbol(), self.rhs)
    }
}

/// Result of trying to add a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// Constraint was decided true from ground values — nothing stored.
    DecidedTrue,
    /// Constraint is ground-false or contradicts the store.
    Inconsistent,
    /// Constraint is residual and was stored.
    Stored,
}

/// The store itself. Backtracking uses [`ConstraintStore::len`] +
/// [`ConstraintStore::truncate`] from the solver's choicepoints.
#[derive(Debug, Default, Clone)]
pub struct ConstraintStore {
    items: Vec<Constraint>,
}

/// Compare two ground data constants, mirroring SQL comparison semantics:
/// numbers compare numerically, strings/atoms lexicographically; mixed
/// type classes are unordered (`None`).
pub fn ground_cmp(a: &Term, b: &Term) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Term::Int(x), Term::Int(y)) => Some(x.cmp(y)),
        _ if a.is_number() && b.is_number() => a.as_f64()?.partial_cmp(&b.as_f64()?),
        (Term::Atom(x), Term::Atom(y)) => Some(x.as_str().cmp(y.as_str())),
        (Term::Str(x), Term::Str(y)) => Some(x.cmp(y)),
        // Atom/Str cross comparison: both are "textual" data; compare text.
        (Term::Atom(x), Term::Str(y)) => Some(x.as_str().cmp(y)),
        (Term::Str(x), Term::Atom(y)) => Some((**x).cmp(y.as_str())),
        _ => None,
    }
}

/// Is the term a data constant (not symbolic, not a variable)?
pub fn is_data_constant(t: &Term) -> bool {
    matches!(
        t,
        Term::Atom(_) | Term::Int(_) | Term::Float(_) | Term::Str(_)
    )
}

impl ConstraintStore {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Roll back to a previous length (backtracking).
    pub fn truncate(&mut self, len: usize) {
        self.items.truncate(len);
    }

    pub fn iter(&self) -> impl Iterator<Item = &Constraint> {
        self.items.iter()
    }

    /// Resolve all stored constraints under `bindings` (for answer export).
    pub fn resolved(&self, bindings: &Bindings) -> Vec<Constraint> {
        self.items
            .iter()
            .map(|c| Constraint {
                op: c.op,
                lhs: bindings.resolve(&c.lhs),
                rhs: bindings.resolve(&c.rhs),
            })
            .collect()
    }

    /// Try to add `lhs op rhs` under `bindings`.
    pub fn add(&mut self, op: CmpOp, lhs: &Term, rhs: &Term, bindings: &Bindings) -> AddOutcome {
        let l = bindings.resolve(lhs);
        let r = bindings.resolve(rhs);
        // Ground decision.
        if is_data_constant(&l) && is_data_constant(&r) {
            return match ground_cmp(&l, &r) {
                Some(ord) if op.eval(ord) => AddOutcome::DecidedTrue,
                Some(_) => AddOutcome::Inconsistent,
                // Unordered (mixed types): equality is false, disequality true.
                None => match op {
                    CmpOp::Neq => AddOutcome::DecidedTrue,
                    _ => AddOutcome::Inconsistent,
                },
            };
        }
        // Syntactic decisions on identical terms.
        if l == r {
            return match op {
                CmpOp::Eq | CmpOp::Le | CmpOp::Ge => AddOutcome::DecidedTrue,
                CmpOp::Lt | CmpOp::Gt | CmpOp::Neq => AddOutcome::Inconsistent,
            };
        }
        let cand = Constraint { op, lhs: l, rhs: r };
        if self.contradicts(&cand, bindings) {
            return AddOutcome::Inconsistent;
        }
        // Avoid storing duplicates (keeps mediated WHERE clauses minimal).
        if !self.items.iter().any(|c| {
            let cl = bindings.resolve(&c.lhs);
            let cr = bindings.resolve(&c.rhs);
            c.op == cand.op && cl == cand.lhs && cr == cand.rhs
        }) {
            self.items.push(cand);
        }
        AddOutcome::Stored
    }

    /// Does `cand` directly contradict a stored constraint?
    fn contradicts(&self, cand: &Constraint, bindings: &Bindings) -> bool {
        for c in &self.items {
            let cl = bindings.resolve(&c.lhs);
            let cr = bindings.resolve(&c.rhs);
            let same = cl == cand.lhs && cr == cand.rhs;
            let flipped = cl == cand.rhs && cr == cand.lhs;
            if !same && !flipped {
                continue;
            }
            let stored_op = if same { c.op } else { c.op.flip() };
            if direct_conflict(stored_op, cand.op) {
                return true;
            }
        }
        false
    }

    /// Re-check every stored constraint under current bindings; used after
    /// new bindings may have grounded previously-residual constraints.
    pub fn still_consistent(&self, bindings: &Bindings) -> bool {
        for c in &self.items {
            let l = bindings.resolve(&c.lhs);
            let r = bindings.resolve(&c.rhs);
            if is_data_constant(&l) && is_data_constant(&r) {
                match ground_cmp(&l, &r) {
                    Some(ord) if !c.op.eval(ord) => return false,
                    None if c.op != CmpOp::Neq => return false,
                    _ => {}
                }
            }
        }
        true
    }
}

/// Conflict table between two ops on the *same* (lhs, rhs) pair.
fn direct_conflict(a: CmpOp, b: CmpOp) -> bool {
    use CmpOp::*;
    matches!(
        (a, b),
        (Lt, Gt)
            | (Gt, Lt)
            | (Lt, Ge)
            | (Ge, Lt)
            | (Le, Gt)
            | (Gt, Le)
            | (Lt, Eq)
            | (Eq, Lt)
            | (Gt, Eq)
            | (Eq, Gt)
            | (Neq, Eq)
            | (Eq, Neq)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(t: &str, c: &str) -> Term {
        Term::compound("col", vec![Term::atom(t), Term::atom(c)])
    }

    #[test]
    fn ground_true_not_stored() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        assert_eq!(
            s.add(CmpOp::Lt, &Term::int(1), &Term::int(2), &b),
            AddOutcome::DecidedTrue
        );
        assert!(s.is_empty());
    }

    #[test]
    fn ground_false_inconsistent() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        assert_eq!(
            s.add(CmpOp::Gt, &Term::int(1), &Term::int(2), &b),
            AddOutcome::Inconsistent
        );
    }

    #[test]
    fn symbolic_is_stored() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        assert_eq!(
            s.add(CmpOp::Gt, &col("t1", "revenue"), &col("t2", "expenses"), &b),
            AddOutcome::Stored
        );
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn identical_terms_neq_inconsistent() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        assert_eq!(
            s.add(CmpOp::Neq, &col("t1", "c"), &col("t1", "c"), &b),
            AddOutcome::Inconsistent
        );
    }

    #[test]
    fn identical_terms_le_true() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        assert_eq!(
            s.add(CmpOp::Le, &col("t1", "c"), &col("t1", "c"), &b),
            AddOutcome::DecidedTrue
        );
    }

    #[test]
    fn direct_contradiction_detected() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        let (x, y) = (col("t1", "a"), col("t2", "b"));
        assert_eq!(s.add(CmpOp::Lt, &x, &y, &b), AddOutcome::Stored);
        assert_eq!(s.add(CmpOp::Gt, &x, &y, &b), AddOutcome::Inconsistent);
        // Also via the flipped orientation.
        assert_eq!(s.add(CmpOp::Lt, &y, &x, &b), AddOutcome::Inconsistent);
    }

    #[test]
    fn eq_neq_contradiction() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        let x = col("t1", "currency");
        let usd = Term::atom("USD");
        assert_eq!(s.add(CmpOp::Eq, &x, &usd, &b), AddOutcome::Stored);
        assert_eq!(s.add(CmpOp::Neq, &x, &usd, &b), AddOutcome::Inconsistent);
    }

    #[test]
    fn duplicates_not_stored_twice() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        let (x, y) = (col("t1", "a"), Term::int(5));
        s.add(CmpOp::Gt, &x, &y, &b);
        s.add(CmpOp::Gt, &x, &y, &b);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn truncate_rolls_back() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        s.add(CmpOp::Gt, &col("t", "a"), &Term::int(1), &b);
        let mark = s.len();
        s.add(CmpOp::Lt, &col("t", "b"), &Term::int(2), &b);
        s.truncate(mark);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn mixed_type_equality_is_false() {
        let mut s = ConstraintStore::new();
        let b = Bindings::new();
        assert_eq!(
            s.add(CmpOp::Eq, &Term::int(1), &Term::atom("USD"), &b),
            AddOutcome::Inconsistent
        );
        assert_eq!(
            s.add(CmpOp::Neq, &Term::int(1), &Term::atom("USD"), &b),
            AddOutcome::DecidedTrue
        );
    }

    #[test]
    fn still_consistent_detects_grounded_violation() {
        let mut s = ConstraintStore::new();
        let mut b = Bindings::new();
        b.fresh(1);
        let x = Term::var(0);
        assert_eq!(s.add(CmpOp::Lt, &x, &Term::int(10), &b), AddOutcome::Stored);
        assert!(s.still_consistent(&b));
        assert!(b.unify(&x, &Term::int(20)));
        assert!(!s.still_consistent(&b));
    }

    #[test]
    fn atom_str_compare_textually() {
        assert_eq!(
            ground_cmp(&Term::atom("USD"), &Term::string("USD")),
            Some(std::cmp::Ordering::Equal)
        );
    }
}
