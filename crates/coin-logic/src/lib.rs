//! # coin-logic — the abductive logic engine of the COIN mediator
//!
//! The Context Interchange mediator rewrites queries by *abductive
//! inference* over context theories (\[KK93\], \[GBMS96\]). The original MIT
//! prototype implemented this on top of the ECLiPSe Prolog system; this
//! crate is a from-scratch Rust equivalent providing exactly the machinery
//! mediation needs:
//!
//! * first-order [`term::Term`]s with interned symbols ([`symbol::Sym`]);
//! * unification with occurs check and a backtrackable binding trail
//!   ([`bindings::Bindings`]);
//! * definite clauses with negation as failure ([`clause`]), indexed in a
//!   [`clause::KnowledgeBase`];
//! * a Prolog-like surface syntax ([`parser`]);
//! * partial evaluation of arithmetic over *symbolic* values ([`eval`]) —
//!   the mechanism by which conversion expressions like
//!   `revenue * 1000 * rate` are built up during rewriting;
//! * a residual [`constraint::ConstraintStore`] for comparisons that can
//!   only be decided at query-execution time;
//! * the abductive SLDNF [`solver::Solver`] enumerating hypothesis sets Δ
//!   subject to integrity constraints ([`program::Program`]).
//!
//! ## Example
//!
//! ```
//! use coin_logic::{Program, Solver};
//!
//! let program = Program::from_source(
//!     ":- abducible(eqc/2, eq).\n\
//!      :- abducible(neqc/2, ne).\n\
//!      ic :- eqc(X, V), eqc(X, W), V \\== W.\n\
//!      ic :- eqc(X, V), neqc(X, V).\n\
//!      scale(T, 1000) :- eqc(col(T, currency), 'JPY').\n\
//!      scale(T, 1)    :- neqc(col(T, currency), 'JPY').",
//! ).unwrap();
//! let solver = Solver::new(&program);
//! // Two abductive answers: one assuming currency = 'JPY', one assuming
//! // currency ≠ 'JPY' — these become the branches of a mediated UNION.
//! let answers = solver.query("scale(t1, S)").unwrap();
//! assert_eq!(answers.len(), 2);
//! ```

pub mod bindings;
pub mod clause;
pub mod constraint;
pub mod eval;
pub mod parser;
pub mod program;
pub mod solver;
pub mod symbol;
pub mod term;

pub use bindings::Bindings;
pub use clause::{Clause, KnowledgeBase, Literal};
pub use constraint::{CmpOp, Constraint, ConstraintStore};
pub use parser::{parse_goals, parse_program, parse_term_str, Item, ParseError};
pub use program::{GroundSemantics, Program, ProgramError};
pub use solver::{Answer, NamedAnswer, SolveError, Solver, SolverConfig, SolverLimit};
pub use symbol::Sym;
pub use term::{Term, Var};
