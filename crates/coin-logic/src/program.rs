//! Abductive logic programs.
//!
//! A [`Program`] packages a [`KnowledgeBase`] together with the two extra
//! ingredients of abductive logic programming (\[KK93\]):
//!
//! * **abducible predicates** — atoms the solver may *assume* (collecting
//!   them into the hypothesis set Δ) instead of proving them; and
//! * **integrity constraints** — denials `ic :- body.` whose body must never
//!   become provable from KB ∪ Δ.
//!
//! In the COIN encoding, abducibles are the data-dependent case predicates
//! (`eqc/2`, `neqc/2` over symbolic column references) and accesses to
//! ancillary conversion sources (`rate/3`); integrity constraints state that
//! a column cannot simultaneously equal two distinct constants, etc.

use std::collections::HashMap;

use crate::clause::{Clause, KnowledgeBase};
use crate::parser::{parse_program, Item, ParseError};
use crate::symbol::Sym;
use crate::term::Term;

/// Built-in ground-decision semantics for an abducible.
///
/// When every argument of a goal for the abducible is a *data constant*
/// (never a symbolic compound like `col(t1, currency)`), the solver decides
/// the goal directly instead of abducing it. This keeps hypothesis sets
/// minimal: `eqc('JPY', 'USD')` simply fails rather than being assumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroundSemantics {
    /// No ground shortcut; always abduce.
    None,
    /// Binary equality over data constants.
    Eq,
    /// Binary disequality over data constants.
    Neq,
}

/// Declaration of one abducible predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbducibleSpec {
    pub ground: GroundSemantics,
}

/// Errors raised while assembling a program.
#[derive(Debug, Clone, PartialEq)]
pub enum ProgramError {
    Parse(ParseError),
    BadDirective(String),
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::Parse(e) => write!(f, "{e}"),
            ProgramError::BadDirective(m) => write!(f, "bad directive: {m}"),
        }
    }
}

impl std::error::Error for ProgramError {}

impl From<ParseError> for ProgramError {
    fn from(e: ParseError) -> Self {
        ProgramError::Parse(e)
    }
}

/// An abductive logic program: clauses, abducible declarations, and
/// integrity constraints.
#[derive(Debug, Default, Clone)]
pub struct Program {
    pub kb: KnowledgeBase,
    abducibles: HashMap<(Sym, usize), AbducibleSpec>,
    /// Integrity constraints, stored as their bodies (denials).
    ics: Vec<Clause>,
}

impl Program {
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare `name/arity` abducible.
    pub fn declare_abducible(&mut self, name: &str, arity: usize, ground: GroundSemantics) {
        self.abducibles
            .insert((Sym::intern(name), arity), AbducibleSpec { ground });
    }

    pub fn abducible_spec(&self, key: (Sym, usize)) -> Option<AbducibleSpec> {
        self.abducibles.get(&key).copied()
    }

    /// Every declared abducible with its ground semantics, in no
    /// particular order.
    pub fn abducibles(&self) -> impl Iterator<Item = ((Sym, usize), AbducibleSpec)> + '_ {
        self.abducibles.iter().map(|(&key, &spec)| (key, spec))
    }

    pub fn is_abducible(&self, key: (Sym, usize)) -> bool {
        self.abducibles.contains_key(&key)
    }

    /// Add an integrity constraint (a clause whose body must never hold).
    pub fn add_ic(&mut self, ic: Clause) {
        self.ics.push(ic);
    }

    pub fn ics(&self) -> &[Clause] {
        &self.ics
    }

    pub fn add_clause(&mut self, c: Clause) {
        if c.head == Term::atom("ic") {
            self.ics.push(c);
        } else {
            self.kb.add(c);
        }
    }

    /// Load program text. Clauses with head `ic` become integrity
    /// constraints; `:- abducible(f/N [, eq|ne]).` directives declare
    /// abducibles.
    pub fn load(&mut self, src: &str) -> Result<(), ProgramError> {
        for item in parse_program(src)? {
            match item {
                Item::Clause(c) => self.add_clause(c),
                Item::Directive(d) => self.apply_directive(&d)?,
            }
        }
        Ok(())
    }

    /// Build a program from text.
    pub fn from_source(src: &str) -> Result<Self, ProgramError> {
        let mut p = Program::new();
        p.load(src)?;
        Ok(p)
    }

    fn apply_directive(&mut self, d: &Term) -> Result<(), ProgramError> {
        match d {
            Term::Compound(f, args) if f.as_str() == "abducible" => {
                let (name, arity) = parse_functor_spec(&args[0])
                    .ok_or_else(|| ProgramError::BadDirective(format!("{d}")))?;
                let ground = match args.get(1) {
                    None => GroundSemantics::None,
                    Some(Term::Atom(s)) if s.as_str() == "eq" => GroundSemantics::Eq,
                    Some(Term::Atom(s)) if s.as_str() == "ne" => GroundSemantics::Neq,
                    Some(other) => {
                        return Err(ProgramError::BadDirective(format!(
                            "unknown ground semantics {other}"
                        )))
                    }
                };
                self.abducibles
                    .insert((Sym::intern(name), arity), AbducibleSpec { ground });
                Ok(())
            }
            _ => Err(ProgramError::BadDirective(format!("{d}"))),
        }
    }

    /// Total statement count: clauses + integrity constraints. This is the
    /// "administration size" metric of the scalability experiment (EX-SCALE).
    pub fn statement_count(&self) -> usize {
        self.kb.len() + self.ics.len()
    }
}

/// Parse `f/2`-style functor specs (the parser produces `/(f, 2)`).
fn parse_functor_spec(t: &Term) -> Option<(&'static str, usize)> {
    match t {
        Term::Compound(slash, args) if slash.as_str() == "/" && args.len() == 2 => {
            match (&args[0], &args[1]) {
                (Term::Atom(name), Term::Int(a)) if *a >= 0 => Some((name.as_str(), *a as usize)),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_separates_ics() {
        let p = Program::from_source(
            "p(1).\n\
             ic :- eqc(X, V), eqc(X, W), V \\== W.\n\
             :- abducible(eqc/2, eq).",
        )
        .unwrap();
        assert_eq!(p.kb.len(), 1);
        assert_eq!(p.ics().len(), 1);
        assert!(p.is_abducible((Sym::intern("eqc"), 2)));
        assert_eq!(
            p.abducible_spec((Sym::intern("eqc"), 2)).unwrap().ground,
            GroundSemantics::Eq
        );
    }

    #[test]
    fn abducible_without_semantics() {
        let p = Program::from_source(":- abducible(rate/3).").unwrap();
        assert_eq!(
            p.abducible_spec((Sym::intern("rate"), 3)).unwrap().ground,
            GroundSemantics::None
        );
    }

    #[test]
    fn bad_directive_rejected() {
        assert!(Program::from_source(":- frobnicate(1).").is_err());
        assert!(Program::from_source(":- abducible(foo).").is_err());
        assert!(Program::from_source(":- abducible(eqc/2, maybe).").is_err());
    }

    #[test]
    fn statement_count_sums() {
        let p = Program::from_source("p(1). q(2). ic :- p(X), q(X).").unwrap();
        assert_eq!(p.statement_count(), 3);
    }
}
