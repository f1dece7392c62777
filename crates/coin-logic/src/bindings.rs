//! Variable bindings and unification.
//!
//! [`Bindings`] is a classic WAM-style binding store: a growable slot array
//! indexed by variable number plus an undo *trail* so the solver can
//! backtrack in O(bindings-since-mark). Unification uses the occurs check
//! (mediation programs are small; soundness beats the minor cost).

use std::borrow::Cow;

use crate::term::{Term, Var};

/// The binding environment for a resolution derivation.
#[derive(Debug, Default, Clone)]
pub struct Bindings {
    slots: Vec<Option<Term>>,
    trail: Vec<u32>,
}

/// A point in the trail to which bindings can be undone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark(usize);

impl Bindings {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate `n` fresh variables, returning the index of the first.
    pub fn fresh(&mut self, n: u32) -> u32 {
        let base = self.slots.len() as u32;
        self.slots
            .extend(std::iter::repeat_with(|| None).take(n as usize));
        base
    }

    /// Number of variable slots allocated.
    pub fn len(&self) -> u32 {
        self.slots.len() as u32
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    fn ensure(&mut self, v: Var) {
        if v.0 as usize >= self.slots.len() {
            self.slots.resize(v.0 as usize + 1, None);
        }
    }

    /// Follow variable chains one level at a time until reaching either an
    /// unbound variable or a non-variable term. Does not descend into
    /// compound arguments.
    pub fn walk<'a>(&'a self, t: &'a Term) -> &'a Term {
        let mut cur = t;
        loop {
            match cur {
                Term::Var(v) => match self.slots.get(v.0 as usize).and_then(|s| s.as_ref()) {
                    Some(next) => cur = next,
                    None => return cur,
                },
                _ => return cur,
            }
        }
    }

    /// Fully substitute bindings into `t`, producing a term where every bound
    /// variable has been replaced by its (recursively resolved) value.
    pub fn resolve(&self, t: &Term) -> Term {
        let w = self.walk(t);
        match w {
            Term::Compound(f, args) => {
                Term::Compound(*f, args.iter().map(|a| self.resolve(a)).collect())
            }
            other => other.clone(),
        }
    }

    /// Record the current trail position for later [`Bindings::undo_to`].
    pub fn mark(&self) -> Mark {
        Mark(self.trail.len())
    }

    /// Undo all bindings made since `mark`.
    pub fn undo_to(&mut self, mark: Mark) {
        while self.trail.len() > mark.0 {
            let v = self.trail.pop().unwrap();
            self.slots[v as usize] = None;
        }
    }

    fn bind(&mut self, v: Var, t: Term) {
        self.ensure(v);
        debug_assert!(self.slots[v.0 as usize].is_none(), "double-binding {v:?}");
        self.slots[v.0 as usize] = Some(t);
        self.trail.push(v.0);
    }

    /// Does `v` occur in `t` (after walking)? Used for the occurs check.
    fn occurs(&self, v: Var, t: &Term) -> bool {
        let w = self.walk(t);
        match w {
            Term::Var(u) => *u == v,
            Term::Compound(_, args) => args.iter().any(|a| self.occurs(v, a)),
            _ => false,
        }
    }

    /// Unify `a` and `b` under the current bindings, extending them on
    /// success. On failure the caller is responsible for undoing to a mark
    /// (failed unification may leave partial bindings on the trail).
    pub fn unify(&mut self, a: &Term, b: &Term) -> bool {
        let wa = self.walked(a);
        let wb = self.walked(b);
        match (&*wa, &*wb) {
            (Term::Var(va), Term::Var(vb)) if va == vb => true,
            (Term::Var(v), t) => {
                if self.occurs(*v, t) {
                    false
                } else {
                    self.bind(*v, t.clone());
                    true
                }
            }
            (t, Term::Var(v)) => {
                if self.occurs(*v, t) {
                    false
                } else {
                    self.bind(*v, t.clone());
                    true
                }
            }
            (Term::Atom(x), Term::Atom(y)) => x == y,
            (Term::Int(x), Term::Int(y)) => x == y,
            (Term::Float(x), Term::Float(y)) => x == y,
            (Term::Str(x), Term::Str(y)) => x == y,
            (Term::Compound(f, xs), Term::Compound(g, ys)) => {
                if f != g || xs.len() != ys.len() {
                    return false;
                }
                xs.iter().zip(ys.iter()).all(|(x, y)| self.unify(x, y))
            }
            _ => false,
        }
    }

    /// [`Bindings::walk`], owned only where the walk followed a binding: a
    /// term that is not a variable is its own walk, and unification may
    /// bind variables while it holds it.
    fn walked<'t>(&self, t: &'t Term) -> Cow<'t, Term> {
        match t {
            Term::Var(_) => Cow::Owned(self.walk(t).clone()),
            _ => Cow::Borrowed(t),
        }
    }

    /// Unify with automatic rollback on failure.
    pub fn unify_or_undo(&mut self, a: &Term, b: &Term) -> bool {
        let m = self.mark();
        if self.unify(a, b) {
            true
        } else {
            self.undo_to(m);
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::var(i)
    }

    #[test]
    fn unify_var_with_const_binds() {
        let mut b = Bindings::new();
        b.fresh(1);
        assert!(b.unify(&v(0), &Term::int(42)));
        assert_eq!(b.resolve(&v(0)), Term::int(42));
    }

    #[test]
    fn unify_compound_recurses() {
        let mut b = Bindings::new();
        b.fresh(2);
        let t1 = Term::compound("f", vec![v(0), Term::atom("a")]);
        let t2 = Term::compound("f", vec![Term::int(1), v(1)]);
        assert!(b.unify(&t1, &t2));
        assert_eq!(b.resolve(&v(0)), Term::int(1));
        assert_eq!(b.resolve(&v(1)), Term::atom("a"));
    }

    #[test]
    fn unify_fails_on_functor_mismatch() {
        let mut b = Bindings::new();
        let t1 = Term::compound("f", vec![Term::int(1)]);
        let t2 = Term::compound("g", vec![Term::int(1)]);
        assert!(!b.unify_or_undo(&t1, &t2));
    }

    #[test]
    fn occurs_check_rejects_cyclic() {
        let mut b = Bindings::new();
        b.fresh(1);
        let t = Term::compound("f", vec![v(0)]);
        assert!(!b.unify_or_undo(&v(0), &t));
    }

    #[test]
    fn undo_restores_state() {
        let mut b = Bindings::new();
        b.fresh(2);
        let m = b.mark();
        assert!(b.unify(&v(0), &Term::int(1)));
        assert!(b.unify(&v(1), &Term::int(2)));
        b.undo_to(m);
        assert_eq!(b.resolve(&v(0)), v(0));
        assert_eq!(b.resolve(&v(1)), v(1));
    }

    #[test]
    fn walk_follows_chains() {
        let mut b = Bindings::new();
        b.fresh(3);
        assert!(b.unify(&v(0), &v(1)));
        assert!(b.unify(&v(1), &v(2)));
        assert!(b.unify(&v(2), &Term::atom("end")));
        assert_eq!(b.walk(&v(0)), &Term::atom("end"));
    }

    #[test]
    fn atom_and_str_do_not_unify() {
        let mut b = Bindings::new();
        assert!(!b.unify_or_undo(&Term::atom("x"), &Term::string("x")));
    }

    #[test]
    fn int_and_float_do_not_unify() {
        let mut b = Bindings::new();
        assert!(!b.unify_or_undo(&Term::int(1), &Term::float(1.0)));
    }

    #[test]
    fn failed_unify_or_undo_leaves_no_bindings() {
        let mut b = Bindings::new();
        b.fresh(1);
        let t1 = Term::compound("f", vec![v(0), Term::int(1)]);
        let t2 = Term::compound("f", vec![Term::int(9), Term::int(2)]);
        assert!(!b.unify_or_undo(&t1, &t2));
        assert_eq!(b.resolve(&v(0)), v(0));
    }
}
