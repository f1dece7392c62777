//! First-order terms.
//!
//! The term language of the COIN logic engine, in the F-logic/Datalog family
//! used by \[GBMS96\]: variables, atoms (symbolic constants), integers, floats,
//! string constants, and compound terms `f(t1, …, tn)`.
//!
//! Floats are stored as raw bit patterns through [`Term::Float`]'s ordered
//! wrapper so that terms are `Eq`/`Hash`/`Ord` (needed for indexing and for
//! the constraint store). NaN is not a meaningful constant in this system and
//! is rejected by the parser.

use std::sync::Arc;

use crate::symbol::Sym;

/// A logic variable, identified by index into the current frame's bindings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl std::fmt::Display for Var {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "_V{}", self.0)
    }
}

/// A float with total ordering by IEEE bits, so `Term` can be `Eq + Hash`.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.to_bits() == other.0.to_bits()
    }
}
impl Eq for OrderedF64 {}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A first-order term.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A logic variable.
    Var(Var),
    /// A symbolic constant, e.g. `usd`, `'JPY'`.
    Atom(Sym),
    /// An integer constant.
    Int(i64),
    /// A float constant.
    Float(OrderedF64),
    /// A string constant, e.g. `"NTT"`. Distinct from atoms so that the SQL
    /// layer can round-trip string literals faithfully. Held by value rather
    /// than interned: query literals are unbounded, and an interned string
    /// lives as long as the process.
    Str(Arc<str>),
    /// A compound term `f(t1, …, tn)` with `n >= 1`.
    Compound(Sym, Vec<Term>),
}

impl Term {
    /// Convenience: an atom from a string.
    pub fn atom(s: &str) -> Term {
        Term::Atom(Sym::intern(s))
    }

    /// Convenience: a string constant.
    pub fn string(s: &str) -> Term {
        Term::Str(Arc::from(s))
    }

    /// Convenience: an integer constant.
    pub fn int(i: i64) -> Term {
        Term::Int(i)
    }

    /// Convenience: a float constant.
    pub fn float(f: f64) -> Term {
        Term::Float(OrderedF64(f))
    }

    /// Convenience: a compound term.
    pub fn compound(f: &str, args: Vec<Term>) -> Term {
        assert!(
            !args.is_empty(),
            "compound terms need at least one argument"
        );
        Term::Compound(Sym::intern(f), args)
    }

    /// Convenience: a variable.
    pub fn var(i: u32) -> Term {
        Term::Var(Var(i))
    }

    /// The functor symbol and arity of this term viewed as a predicate.
    /// Atoms are 0-ary predicates.
    pub fn functor(&self) -> Option<(Sym, usize)> {
        match self {
            Term::Atom(s) => Some((*s, 0)),
            Term::Compound(s, args) => Some((*s, args.len())),
            _ => None,
        }
    }

    /// True if the term contains no variables.
    pub fn is_ground(&self) -> bool {
        match self {
            Term::Var(_) => false,
            Term::Atom(_) | Term::Int(_) | Term::Float(_) | Term::Str(_) => true,
            Term::Compound(_, args) => args.iter().all(Term::is_ground),
        }
    }

    /// True if the term is a numeric constant.
    pub fn is_number(&self) -> bool {
        matches!(self, Term::Int(_) | Term::Float(_))
    }

    /// Numeric value if the term is a numeric constant.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Int(i) => Some(*i as f64),
            Term::Float(f) => Some(f.0),
            _ => None,
        }
    }

    /// Collect all variables in the term (in first-occurrence order).
    pub fn variables(&self, out: &mut Vec<Var>) {
        match self {
            Term::Var(v) if !out.contains(v) => {
                out.push(*v);
            }
            Term::Compound(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
            _ => {}
        }
    }

    /// The highest variable index occurring in the term, if any.
    pub fn max_var(&self) -> Option<u32> {
        match self {
            Term::Var(v) => Some(v.0),
            Term::Compound(_, args) => args.iter().filter_map(Term::max_var).max(),
            _ => None,
        }
    }

    /// Renames every variable by adding `offset` to its index. Used to make
    /// clause instances fresh before resolution.
    pub fn offset_vars(&self, offset: u32) -> Term {
        match self {
            Term::Var(v) => Term::Var(Var(v.0 + offset)),
            Term::Compound(f, args) => {
                Term::Compound(*f, args.iter().map(|a| a.offset_vars(offset)).collect())
            }
            other => other.clone(),
        }
    }

    /// Structural size of the term (number of nodes). Used by subsumption
    /// heuristics and depth limits.
    pub fn size(&self) -> usize {
        match self {
            Term::Compound(_, args) => 1 + args.iter().map(Term::size).sum::<usize>(),
            _ => 1,
        }
    }
}

impl std::fmt::Display for Term {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Atom(s) => write_atom(f, s.as_str()),
            Term::Int(i) => write!(f, "{i}"),
            Term::Float(x) => {
                if x.0.fract() == 0.0 && x.0.abs() < 1e15 {
                    write!(f, "{:.1}", x.0)
                } else {
                    write!(f, "{}", x.0)
                }
            }
            Term::Str(s) => write!(f, "\"{}\"", s.replace('"', "\\\"")),
            Term::Compound(g, args) => {
                write!(f, "{}(", Term::Atom(*g))?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
        }
    }
}

/// Write `name` as an atom prints: bare when it reads back as that atom,
/// single-quoted otherwise.
pub fn write_atom(out: &mut impl std::fmt::Write, name: &str) -> std::fmt::Result {
    if needs_quotes(name) {
        write!(out, "'{}'", name.replace('\'', "\\'"))
    } else {
        out.write_str(name)
    }
}

/// Does an atom name need single quotes to round-trip through the parser?
fn needs_quotes(name: &str) -> bool {
    // Operator names print bare: `*(a, b)` reads better than `'*'(a, b)` in
    // mediation traces and the parser accepts both.
    if matches!(
        name,
        "+" | "-"
            | "*"
            | "/"
            | "="
            | "\\="
            | "=="
            | "\\=="
            | "<"
            | ">"
            | "=<"
            | ">="
            | "is"
            | "dif"
            | "\\+"
    ) {
        return false;
    }
    let mut chars = name.chars();
    match chars.next() {
        None => true,
        Some(c) if c.is_ascii_lowercase() => !chars.all(|c| c.is_ascii_alphanumeric() || c == '_'),
        Some(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_detection() {
        let t = Term::compound("f", vec![Term::int(1), Term::atom("a")]);
        assert!(t.is_ground());
        let t2 = Term::compound("f", vec![Term::var(0)]);
        assert!(!t2.is_ground());
    }

    #[test]
    fn display_round_trippable_atoms() {
        assert_eq!(Term::atom("usd").to_string(), "usd");
        assert_eq!(Term::atom("USD").to_string(), "'USD'");
        assert_eq!(Term::atom("has space").to_string(), "'has space'");
    }

    #[test]
    fn display_compound() {
        let t = Term::compound("col", vec![Term::atom("t1"), Term::atom("revenue")]);
        assert_eq!(t.to_string(), "col(t1, revenue)");
    }

    #[test]
    fn variables_collected_in_order() {
        let t = Term::compound(
            "f",
            vec![
                Term::var(3),
                Term::compound("g", vec![Term::var(1), Term::var(3)]),
            ],
        );
        let mut vars = Vec::new();
        t.variables(&mut vars);
        assert_eq!(vars, vec![Var(3), Var(1)]);
    }

    #[test]
    fn offset_vars_shifts_all() {
        let t = Term::compound("f", vec![Term::var(0), Term::var(2)]);
        let s = t.offset_vars(10);
        let mut vars = Vec::new();
        s.variables(&mut vars);
        assert_eq!(vars, vec![Var(10), Var(12)]);
    }

    #[test]
    fn float_equality_by_bits() {
        assert_eq!(Term::float(1.5), Term::float(1.5));
        assert_ne!(Term::float(0.0), Term::float(-0.0));
    }

    #[test]
    fn functor_of_atom_and_compound() {
        assert_eq!(Term::atom("p").functor(), Some((Sym::intern("p"), 0)));
        assert_eq!(
            Term::compound("f", vec![Term::int(1)]).functor(),
            Some((Sym::intern("f"), 1))
        );
        assert_eq!(Term::int(3).functor(), None);
    }

    #[test]
    fn term_size() {
        let t = Term::compound(
            "f",
            vec![Term::int(1), Term::compound("g", vec![Term::int(2)])],
        );
        assert_eq!(t.size(), 4);
    }
}
