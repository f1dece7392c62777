//! The abductive SLDNF solver.
//!
//! A depth-first resolution engine in the style of the abductive proof
//! procedure of Kakas–Kowalski–Toni \[KK93\], specialized to what COIN
//! mediation needs:
//!
//! * SLD resolution over the knowledge base, with negation as failure;
//! * built-in predicates (`=`, `\=`, `==`, `\==`, `is`, comparisons, `dif`,
//!   type tests) with **partial evaluation**: comparisons over symbolic
//!   terms residualize into the [`ConstraintStore`] instead of failing;
//! * **abduction**: goals on declared abducible predicates are first matched
//!   against the current hypothesis set Δ (reuse), then assumed as new
//!   hypotheses, subject to the program's integrity constraints;
//! * enumeration of *all* abductive answers — each answer (bindings + Δ +
//!   residual constraints) becomes one sub-query of the mediated union.
//!
//! The solver is bounded: depth, abduction and answer limits cut runaway
//! enumerations short, and every cut records which [`SolverLimit`] it hit
//! ([`Solver::truncated_by`]), so a caller never mistakes a cut
//! enumeration for a complete one.

use std::borrow::Cow;
use std::cell::Cell;
use std::collections::HashMap;

use crate::bindings::Bindings;
use crate::clause::Literal;
use crate::constraint::{AddOutcome, CmpOp, Constraint, ConstraintStore};
use crate::eval::partial_eval;
use crate::parser::{parse_goals, ParseError};
use crate::program::{GroundSemantics, Program};
use crate::symbol::Sym;
use crate::term::Term;

/// Tuning knobs for the solver.
#[derive(Debug, Clone, Copy)]
pub struct SolverConfig {
    /// Maximum resolution depth before a branch is abandoned.
    pub max_depth: usize,
    /// Maximum number of answers to enumerate.
    pub max_answers: usize,
    /// Maximum size of the hypothesis set Δ on any branch.
    pub max_abductions: usize,
}

/// The [`SolverConfig`] bound that cut an enumeration short, with its
/// value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverLimit {
    /// A branch passed [`SolverConfig::max_depth`].
    Depth(usize),
    /// [`SolverConfig::max_answers`] answers were found and more remained.
    Answers(usize),
    /// A branch needed more than [`SolverConfig::max_abductions`]
    /// hypotheses.
    Abductions(usize),
}

impl std::fmt::Display for SolverLimit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverLimit::Depth(n) => write!(f, "max_depth limit of {n}"),
            SolverLimit::Answers(n) => write!(f, "max_answers limit of {n}"),
            SolverLimit::Abductions(n) => write!(f, "max_abductions limit of {n}"),
        }
    }
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            max_depth: 512,
            max_answers: 10_000,
            max_abductions: 64,
        }
    }
}

/// Mutable derivation state threaded through resolution.
#[derive(Debug, Default)]
pub struct State {
    pub bindings: Bindings,
    pub constraints: ConstraintStore,
    /// The hypothesis set Δ: abduced atoms (with live variables).
    pub delta: Vec<Term>,
    /// Atoms assumed *not* to hold (from NAF over abducibles).
    pub neg_delta: Vec<Term>,
}

#[derive(Debug, Clone, Copy)]
struct Checkpoint {
    bind: crate::bindings::Mark,
    cons: usize,
    delta: usize,
    neg: usize,
}

impl State {
    fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            bind: self.bindings.mark(),
            cons: self.constraints.len(),
            delta: self.delta.len(),
            neg: self.neg_delta.len(),
        }
    }

    fn rollback(&mut self, cp: Checkpoint) {
        self.bindings.undo_to(cp.bind);
        self.constraints.truncate(cp.cons);
        self.delta.truncate(cp.delta);
        self.neg_delta.truncate(cp.neg);
    }
}

/// One abductive answer to a query.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Resolved terms for the query variables `0..nvars`.
    pub bindings: Vec<Term>,
    /// Resolved hypothesis set Δ.
    pub delta: Vec<Term>,
    /// Resolved residual constraints.
    pub constraints: Vec<Constraint>,
}

impl Answer {
    /// Canonicalize: rename remaining free variables to 0,1,2,… in order of
    /// first appearance across bindings, Δ and constraints. Two answers that
    /// differ only in variable identity become equal, enabling answer-set
    /// deduplication.
    pub fn canonical(&self) -> Answer {
        let mut map: HashMap<u32, u32> = HashMap::new();
        let mut rename = |t: &Term| canon_term(t, &mut map);
        let bindings = self.bindings.iter().map(&mut rename).collect();
        let delta = self.delta.iter().map(&mut rename).collect();
        let constraints = self
            .constraints
            .iter()
            .map(|c| Constraint {
                op: c.op,
                lhs: rename(&c.lhs),
                rhs: rename(&c.rhs),
            })
            .collect();
        Answer {
            bindings,
            delta,
            constraints,
        }
    }
}

fn canon_term(t: &Term, map: &mut HashMap<u32, u32>) -> Term {
    match t {
        Term::Var(v) => {
            let n = map.len() as u32;
            let id = *map.entry(v.0).or_insert(n);
            Term::var(id)
        }
        Term::Compound(f, args) => {
            Term::Compound(*f, args.iter().map(|a| canon_term(a, map)).collect())
        }
        other => other.clone(),
    }
}

/// An answer with variables keyed by their source-text names.
#[derive(Debug, Clone, PartialEq)]
pub struct NamedAnswer {
    pub vars: HashMap<String, Term>,
    pub delta: Vec<Term>,
    pub constraints: Vec<Constraint>,
}

/// Errors surfaced by the query API.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    Parse(ParseError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SolveError {}

/// The goals left to prove, as a chain of frames on the solver's stack:
/// `lits`, with every variable shifted by `offset` (a clause body taken
/// as written, renamed apart only as each goal is reached), then the goals
/// of the frame below. Resolving a goal pushes the clause body as a new
/// frame over the rest instead of copying the rest behind it.
#[derive(Clone, Copy)]
struct Goals<'a> {
    lits: &'a [Literal],
    offset: u32,
    rest: Option<&'a Goals<'a>>,
}

impl<'a> Goals<'a> {
    /// Goals taken as they stand, with nothing after them.
    fn new(lits: &'a [Literal]) -> Goals<'a> {
        Goals {
            lits,
            offset: 0,
            rest: None,
        }
    }

    /// The first goal left, renamed apart, and the goals after it; `None`
    /// once every frame is exhausted.
    fn split_first(self) -> Option<(Cow<'a, Literal>, Goals<'a>)> {
        let mut frame = self;
        loop {
            if let Some((first, lits)) = frame.lits.split_first() {
                let first = if frame.offset == 0 {
                    Cow::Borrowed(first)
                } else {
                    Cow::Owned(first.offset_vars(frame.offset))
                };
                return Some((first, Goals { lits, ..frame }));
            }
            frame = *frame.rest?;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ctl {
    Continue,
    Stop,
}

#[derive(Debug, Clone, Copy)]
struct Mode {
    /// May this (sub)derivation extend Δ? False inside NAF and IC checks.
    allow_abduce: bool,
}

/// The solver, borrowing a program.
pub struct Solver<'p> {
    program: &'p Program,
    config: SolverConfig,
    truncated: Cell<Option<SolverLimit>>,
}

impl<'p> Solver<'p> {
    pub fn new(program: &'p Program) -> Self {
        Solver {
            program,
            config: SolverConfig::default(),
            truncated: Cell::new(None),
        }
    }

    pub fn with_config(program: &'p Program, config: SolverConfig) -> Self {
        Solver {
            program,
            config,
            truncated: Cell::new(None),
        }
    }

    /// The limit that cut an enumeration short, if any did: a derivation
    /// that passed the depth or abduction limit, or an answer found past
    /// `max_answers`.
    pub fn truncated_by(&self) -> Option<SolverLimit> {
        self.truncated.get()
    }

    fn cut(&self, limit: SolverLimit) {
        self.truncated.set(Some(limit));
    }

    /// Enumerate all abductive answers to `goals` (deduplicated up to
    /// variable renaming), where the first `nvars` variables are the query's.
    pub fn all_answers(&self, goals: &[Literal], nvars: u32) -> Vec<Answer> {
        let mut state = State::default();
        state.bindings.fresh(nvars);
        let mut seen: Vec<Answer> = Vec::new();
        let mut out: Vec<Answer> = Vec::new();
        let max = self.config.max_answers;
        self.solve(
            Goals::new(goals),
            &mut state,
            0,
            Mode { allow_abduce: true },
            &mut |st| {
                let ans = Answer {
                    bindings: (0..nvars)
                        .map(|i| st.bindings.resolve(&Term::var(i)))
                        .collect(),
                    delta: st.delta.iter().map(|d| st.bindings.resolve(d)).collect(),
                    constraints: st.constraints.resolved(&st.bindings),
                };
                let canon = ans.canonical();
                if seen.contains(&canon) {
                    return Ctl::Continue;
                }
                if out.len() == max {
                    // A distinct answer past the limit: the enumeration is
                    // incomplete, not merely full.
                    self.cut(SolverLimit::Answers(max));
                    return Ctl::Stop;
                }
                seen.push(canon);
                out.push(ans);
                Ctl::Continue
            },
        );
        out
    }

    /// First answer, if any.
    pub fn first_answer(&self, goals: &[Literal], nvars: u32) -> Option<Answer> {
        let mut state = State::default();
        state.bindings.fresh(nvars);
        let mut out = None;
        self.solve(
            Goals::new(goals),
            &mut state,
            0,
            Mode { allow_abduce: true },
            &mut |st| {
                out = Some(Answer {
                    bindings: (0..nvars)
                        .map(|i| st.bindings.resolve(&Term::var(i)))
                        .collect(),
                    delta: st.delta.iter().map(|d| st.bindings.resolve(d)).collect(),
                    constraints: st.constraints.resolved(&st.bindings),
                });
                Ctl::Stop
            },
        );
        out
    }

    /// Is the goal list provable (possibly with abduction)?
    pub fn provable(&self, goals: &[Literal]) -> bool {
        let nvars = goals
            .iter()
            .filter_map(|l| l.term().max_var())
            .max()
            .map_or(0, |m| m + 1);
        self.first_answer(goals, nvars).is_some()
    }

    /// Parse and run a textual query such as `"p(X), X > 3"`.
    pub fn query(&self, src: &str) -> Result<Vec<NamedAnswer>, SolveError> {
        let (goals, nvars, names) = parse_goals(src).map_err(SolveError::Parse)?;
        let answers = self.all_answers(&goals, nvars);
        Ok(answers
            .into_iter()
            .map(|a| NamedAnswer {
                vars: names
                    .iter()
                    .map(|(n, &i)| (n.clone(), a.bindings[i as usize].clone()))
                    .collect(),
                delta: a.delta,
                constraints: a.constraints,
            })
            .collect())
    }

    // ---- resolution core ----------------------------------------------

    fn solve(
        &self,
        goals: Goals<'_>,
        state: &mut State,
        depth: usize,
        mode: Mode,
        emit: &mut dyn FnMut(&mut State) -> Ctl,
    ) -> Ctl {
        if depth > self.config.max_depth {
            self.cut(SolverLimit::Depth(self.config.max_depth));
            return Ctl::Continue;
        }
        let Some((first, rest)) = goals.split_first() else {
            // All goals solved; final consistency check over constraints
            // that later bindings may have grounded.
            if state.constraints.still_consistent(&state.bindings) {
                return emit(state);
            }
            return Ctl::Continue;
        };
        match &*first {
            Literal::Pos(goal) => self.solve_pos(goal, rest, state, depth, mode, emit),
            Literal::Neg(goal) => {
                // Negation as failure. The subproof may not abduce; if the
                // goal's predicate is abducible, record the assumption in
                // neg_delta so later abductions cannot contradict it.
                let cp = state.checkpoint();
                let mut found = false;
                self.solve(
                    Goals::new(&[Literal::Pos(goal.clone())]),
                    state,
                    depth + 1,
                    Mode {
                        allow_abduce: false,
                    },
                    &mut |_| {
                        found = true;
                        Ctl::Stop
                    },
                );
                state.rollback(cp);
                if found {
                    return Ctl::Continue;
                }
                let resolved = state.bindings.resolve(goal);
                let is_abducible = resolved
                    .functor()
                    .is_some_and(|k| self.program.is_abducible(k));
                if is_abducible {
                    state.neg_delta.push(resolved);
                }
                let ctl = self.solve(rest, state, depth + 1, mode, emit);
                if is_abducible {
                    state.neg_delta.pop();
                }
                ctl
            }
        }
    }

    fn solve_pos(
        &self,
        goal: &Term,
        rest: Goals<'_>,
        state: &mut State,
        depth: usize,
        mode: Mode,
        emit: &mut dyn FnMut(&mut State) -> Ctl,
    ) -> Ctl {
        // Only a variable goal can walk to something else; any other goal
        // is used as it stands.
        let walked = match goal {
            Term::Var(_) => Cow::Owned(state.bindings.walk(goal).clone()),
            _ => Cow::Borrowed(goal),
        };
        let Some(key) = walked.functor() else {
            // A variable or number in goal position: not callable — fail.
            return Ctl::Continue;
        };

        // Built-ins first.
        if let Some(ctl) = self.try_builtin(&walked, key, rest, state, depth, mode, emit) {
            return ctl;
        }

        // Abducibles.
        if let Some(spec) = self.program.abducible_spec(key) {
            return self.solve_abducible(&walked, spec.ground, rest, state, depth, mode, emit);
        }

        // Knowledge-base resolution: the clause body goes in front of the
        // remaining goals by reference, instantiated as each goal is reached.
        let clauses = self.program.kb.clauses_for(key);
        for clause in clauses {
            let cp = state.checkpoint();
            let base = state.bindings.fresh(clause.nvars);
            let head = clause.head.offset_vars(base);
            if state.bindings.unify(&walked, &head) {
                let goals = Goals {
                    lits: &clause.body,
                    offset: base,
                    rest: Some(&rest),
                };
                if self.solve(goals, state, depth + 1, mode, emit) == Ctl::Stop {
                    return Ctl::Stop;
                }
            }
            state.rollback(cp);
        }
        Ctl::Continue
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_abducible(
        &self,
        goal: &Term,
        ground: GroundSemantics,
        rest: Goals<'_>,
        state: &mut State,
        depth: usize,
        mode: Mode,
        emit: &mut dyn FnMut(&mut State) -> Ctl,
    ) -> Ctl {
        use crate::constraint::is_data_constant;

        // Ground shortcut: decide data-constant instances directly.
        if let Term::Compound(_, args) = goal {
            if args.len() == 2 && ground != GroundSemantics::None {
                let a = state.bindings.resolve(&args[0]);
                let b = state.bindings.resolve(&args[1]);
                if is_data_constant(&a) && is_data_constant(&b) {
                    let eq =
                        crate::constraint::ground_cmp(&a, &b) == Some(std::cmp::Ordering::Equal);
                    let holds = match ground {
                        GroundSemantics::Eq => eq,
                        GroundSemantics::Neq => !eq,
                        GroundSemantics::None => unreachable!(),
                    };
                    if holds {
                        return self.solve(rest, state, depth + 1, mode, emit);
                    }
                    return Ctl::Continue;
                }
            }
        }

        // Reuse: unify with existing hypotheses.
        let mut reused_exact = false;
        for i in 0..state.delta.len() {
            let cp = state.checkpoint();
            let hyp = state.delta[i].clone();
            if state.bindings.unify(goal, &hyp) {
                if state.bindings.resolve(goal) == state.bindings.resolve(&hyp) {
                    reused_exact = true;
                }
                if self.solve(rest, state, depth + 1, mode, emit) == Ctl::Stop {
                    return Ctl::Stop;
                }
            }
            state.rollback(cp);
        }

        if !mode.allow_abduce || reused_exact {
            // Inside NAF/IC checks Δ may not grow; an exact reuse also makes
            // a fresh α-variant hypothesis redundant.
            return Ctl::Continue;
        }
        if state.delta.len() >= self.config.max_abductions {
            self.cut(SolverLimit::Abductions(self.config.max_abductions));
            return Ctl::Continue;
        }

        // Fresh abduction.
        let cp = state.checkpoint();
        let resolved = state.bindings.resolve(goal);
        // The new hypothesis must not contradict a NAF assumption.
        for nd in &state.neg_delta {
            let mut probe = state.bindings.clone();
            if probe.unify(&resolved, nd) {
                state.rollback(cp);
                return Ctl::Continue;
            }
        }
        state.delta.push(resolved);
        if self.integrity_ok(state, depth)
            && self.solve(rest, state, depth + 1, mode, emit) == Ctl::Stop
        {
            return Ctl::Stop;
        }
        state.rollback(cp);
        Ctl::Continue
    }

    /// Check all integrity constraints against KB ∪ Δ. Called after every
    /// extension of Δ; only ICs mentioning the newly added predicate can
    /// newly fire, but re-checking all keeps the logic simple and the IC
    /// sets in mediation programs are tiny.
    fn integrity_ok(&self, state: &mut State, depth: usize) -> bool {
        for ic in self.program.ics() {
            let cp = state.checkpoint();
            let base = state.bindings.fresh(ic.nvars);
            let body = Goals {
                lits: &ic.body,
                offset: base,
                rest: None,
            };
            let mut violated = false;
            self.solve(
                body,
                state,
                depth + 1,
                Mode {
                    allow_abduce: false,
                },
                &mut |_| {
                    violated = true;
                    Ctl::Stop
                },
            );
            state.rollback(cp);
            if violated {
                return false;
            }
        }
        true
    }

    // ---- builtins -------------------------------------------------------

    /// Attempt builtin dispatch; `None` means "not a builtin".
    #[allow(clippy::too_many_arguments)]
    fn try_builtin(
        &self,
        goal: &Term,
        key: (Sym, usize),
        rest: Goals<'_>,
        state: &mut State,
        depth: usize,
        mode: Mode,
        emit: &mut dyn FnMut(&mut State) -> Ctl,
    ) -> Option<Ctl> {
        let name = key.0.as_str();
        let cont = |state: &mut State, emit: &mut dyn FnMut(&mut State) -> Ctl| -> Ctl {
            self.solve(rest, state, depth + 1, mode, emit)
        };
        let args = match goal {
            Term::Compound(_, a) => a.as_slice(),
            _ => &[],
        };
        let ctl = match (name, key.1) {
            ("true", 0) => cont(state, emit),
            ("fail", 0) | ("false", 0) => Ctl::Continue,
            ("call", 1) => {
                let inner = [Literal::Pos(args[0].clone())];
                let goals = Goals {
                    lits: &inner,
                    offset: 0,
                    rest: Some(&rest),
                };
                self.solve(goals, state, depth + 1, mode, emit)
            }
            ("=", 2) => {
                let cp = state.checkpoint();
                let ctl = if state.bindings.unify(&args[0], &args[1]) {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                };
                if ctl == Ctl::Continue {
                    state.rollback(cp);
                }
                ctl
            }
            ("\\=", 2) => {
                let m = state.bindings.mark();
                let unifies = state.bindings.unify(&args[0], &args[1]);
                state.bindings.undo_to(m);
                if unifies {
                    Ctl::Continue
                } else {
                    cont(state, emit)
                }
            }
            ("==", 2) => {
                if state.bindings.resolve(&args[0]) == state.bindings.resolve(&args[1]) {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                }
            }
            ("\\==", 2) => {
                if state.bindings.resolve(&args[0]) != state.bindings.resolve(&args[1]) {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                }
            }
            ("is", 2) => {
                let Ok(ev) = partial_eval(&args[1], &state.bindings) else {
                    return Some(Ctl::Continue); // arithmetic error: branch fails
                };
                let result = ev.term();
                let cp = state.checkpoint();
                let ctl = if state.bindings.unify(&args[0], &result) {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                };
                if ctl == Ctl::Continue {
                    state.rollback(cp);
                }
                ctl
            }
            ("<", 2) | (">", 2) | ("=<", 2) | (">=", 2) => {
                let op = match name {
                    "<" => CmpOp::Lt,
                    ">" => CmpOp::Gt,
                    "=<" => CmpOp::Le,
                    ">=" => CmpOp::Ge,
                    _ => unreachable!(),
                };
                self.residual_compare(op, &args[0], &args[1], rest, state, depth, mode, emit)
            }
            ("dif", 2) => self.residual_compare(
                CmpOp::Neq,
                &args[0],
                &args[1],
                rest,
                state,
                depth,
                mode,
                emit,
            ),
            ("ground", 1) => {
                if state.bindings.resolve(&args[0]).is_ground() {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                }
            }
            ("var", 1) => {
                if matches!(state.bindings.walk(&args[0]), Term::Var(_)) {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                }
            }
            ("nonvar", 1) => {
                if matches!(state.bindings.walk(&args[0]), Term::Var(_)) {
                    Ctl::Continue
                } else {
                    cont(state, emit)
                }
            }
            ("number", 1) => {
                if state.bindings.walk(&args[0]).is_number() {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                }
            }
            ("integer", 1) => {
                if matches!(state.bindings.walk(&args[0]), Term::Int(_)) {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                }
            }
            ("atom", 1) => {
                if matches!(state.bindings.walk(&args[0]), Term::Atom(_)) {
                    cont(state, emit)
                } else {
                    Ctl::Continue
                }
            }
            _ => return None,
        };
        Some(ctl)
    }

    /// Shared logic for `<`, `>`, `=<`, `>=` and `dif`: decide when ground,
    /// residualize into the constraint store otherwise.
    #[allow(clippy::too_many_arguments)]
    fn residual_compare(
        &self,
        op: CmpOp,
        lhs: &Term,
        rhs: &Term,
        rest: Goals<'_>,
        state: &mut State,
        depth: usize,
        mode: Mode,
        emit: &mut dyn FnMut(&mut State) -> Ctl,
    ) -> Ctl {
        // Partial-evaluate both sides so `1000 * 2 > 1500` decides and
        // `col(t1,revenue) * 1000 > col(t2,expenses)` residualizes in
        // simplified form.
        let l = match partial_eval(lhs, &state.bindings) {
            Ok(e) => e,
            Err(_) => return Ctl::Continue,
        };
        let r = match partial_eval(rhs, &state.bindings) {
            Ok(e) => e,
            Err(_) => return Ctl::Continue,
        };
        let (lt, rt) = (l.term(), r.term());
        let cp = state.checkpoint();
        match state.constraints.add(op, &lt, &rt, &state.bindings) {
            AddOutcome::DecidedTrue | AddOutcome::Stored => {
                let ctl = self.solve(rest, state, depth + 1, mode, emit);
                if ctl == Ctl::Stop {
                    return Ctl::Stop;
                }
                state.rollback(cp);
                Ctl::Continue
            }
            AddOutcome::Inconsistent => {
                state.rollback(cp);
                Ctl::Continue
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn solve_all(src: &str, query: &str) -> Vec<NamedAnswer> {
        let p = Program::from_source(src).unwrap();
        let s = Solver::new(&p);
        s.query(query).unwrap()
    }

    #[test]
    fn facts_enumerate() {
        let a = solve_all("p(1). p(2). p(3).", "p(X)");
        assert_eq!(a.len(), 3);
        let xs: Vec<i64> = a
            .iter()
            .map(|ans| match ans.vars["X"] {
                Term::Int(i) => i,
                _ => panic!(),
            })
            .collect();
        assert_eq!(xs, vec![1, 2, 3]);
    }

    #[test]
    fn conjunction_joins() {
        let a = solve_all("p(1). p(2). q(2). q(3).", "p(X), q(X)");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].vars["X"], Term::Int(2));
    }

    #[test]
    fn rules_chain() {
        let a = solve_all(
            "parent(a, b). parent(b, c).\n\
             anc(X, Y) :- parent(X, Y).\n\
             anc(X, Y) :- parent(X, Z), anc(Z, Y).",
            "anc(a, X)",
        );
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn negation_as_failure() {
        let a = solve_all("p(1). p(2). q(1).", "p(X), \\+ q(X)");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].vars["X"], Term::Int(2));
    }

    #[test]
    fn arithmetic_is() {
        let a = solve_all("", "X is 2 + 3 * 4");
        assert_eq!(a[0].vars["X"], Term::Int(14));
    }

    #[test]
    fn ground_comparison() {
        assert_eq!(solve_all("p(1). p(5).", "p(X), X > 3").len(), 1);
    }

    #[test]
    fn symbolic_comparison_residualizes() {
        let a = solve_all("v(col(t1, revenue)).", "v(X), X > 100");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].constraints.len(), 1);
        assert_eq!(a[0].constraints[0].to_string(), "col(t1, revenue) > 100");
    }

    #[test]
    fn abduction_basic() {
        let a = solve_all(
            ":- abducible(rate/3).\n\
             convert(V, W) :- rate('JPY', 'USD', R), W is V * R.",
            "convert(100, W)",
        );
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].delta.len(), 1);
        // W is residual: 100 * R with R the abduced rate variable.
        assert!(matches!(a[0].vars["W"], Term::Compound(_, _)));
    }

    #[test]
    fn abduction_reuse_no_duplicate_hypotheses() {
        let a = solve_all(
            ":- abducible(rate/3).\n\
             c(V, W) :- rate('JPY', 'USD', R), W is V * R.\n\
             two(W1, W2) :- c(1, W1), c(2, W2).",
            "two(A, B)",
        );
        // Reuse makes the second conversion share the first hypothesis; the
        // α-variant duplicate answer is pruned by canonical dedup.
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].delta.len(), 1);
    }

    #[test]
    fn abduction_case_split() {
        // The COIN pattern: scale factor depends on an unknown column value.
        let a = solve_all(
            ":- abducible(eqc/2, eq).\n\
             :- abducible(neqc/2, ne).\n\
             ic :- eqc(X, V), eqc(X, W), V \\== W.\n\
             ic :- eqc(X, V), neqc(X, V).\n\
             scale(T, 1000) :- eqc(col(T, currency), 'JPY').\n\
             scale(T, 1) :- neqc(col(T, currency), 'JPY').",
            "scale(t1, S)",
        );
        assert_eq!(a.len(), 2);
        let deltas: Vec<String> = a
            .iter()
            .map(|x| {
                x.delta
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .collect();
        assert_eq!(deltas[0], "eqc(col(t1, currency), 'JPY')");
        assert_eq!(deltas[1], "neqc(col(t1, currency), 'JPY')");
    }

    #[test]
    fn integrity_constraint_prunes() {
        // Forcing both JPY and USD on the same column is inconsistent.
        let a = solve_all(
            ":- abducible(eqc/2, eq).\n\
             ic :- eqc(X, V), eqc(X, W), V \\== W.\n\
             both(T) :- eqc(col(T, c), 'JPY'), eqc(col(T, c), 'USD').",
            "both(t1)",
        );
        assert!(a.is_empty());
    }

    #[test]
    fn ground_semantics_shortcut() {
        let a = solve_all(
            ":- abducible(eqc/2, eq).\n\
             p :- eqc('USD', 'USD').\n\
             q :- eqc('USD', 'JPY').",
            "p",
        );
        assert_eq!(a.len(), 1);
        assert!(a[0].delta.is_empty(), "ground equality must not be abduced");
        assert!(solve_all(":- abducible(eqc/2, eq).\n q :- eqc('USD', 'JPY').", "q").is_empty());
    }

    #[test]
    fn naf_blocks_later_abduction() {
        let a = solve_all(
            ":- abducible(ab/1).\n\
             p :- \\+ ab(x), ab(x).",
            "p",
        );
        assert!(a.is_empty());
    }

    #[test]
    fn depth_limit_truncates() {
        let p = Program::from_source("loop(X) :- loop(X).").unwrap();
        let s = Solver::with_config(
            &p,
            SolverConfig {
                max_depth: 50,
                ..SolverConfig::default()
            },
        );
        assert!(s.query("loop(1)").unwrap().is_empty());
        assert_eq!(s.truncated_by(), Some(SolverLimit::Depth(50)));
    }

    #[test]
    fn depth_counts_one_per_resolution_step() {
        // a -> b -> c -> fact: the empty goal list is reached at depth 3.
        let p = Program::from_source("a :- b. b :- c. c.").unwrap();
        for (max_depth, provable) in [(3, true), (2, false)] {
            let s = Solver::with_config(
                &p,
                SolverConfig {
                    max_depth,
                    ..SolverConfig::default()
                },
            );
            assert_eq!(s.query("a").unwrap().len(), usize::from(provable));
            assert_eq!(s.truncated_by().is_some(), !provable);
        }
    }

    #[test]
    fn unification_builtin() {
        let a = solve_all("", "X = f(Y), Y = 3");
        assert_eq!(a[0].vars["X"].to_string(), "f(3)");
    }

    #[test]
    fn structural_inequality() {
        assert_eq!(solve_all("", "f(1) \\== f(2)").len(), 1);
        assert!(solve_all("", "f(1) \\== f(1)").is_empty());
    }

    #[test]
    fn dif_ground_and_residual() {
        assert_eq!(solve_all("", "dif(1, 2)").len(), 1);
        assert!(solve_all("", "dif(1, 1)").is_empty());
        let a = solve_all("v(col(t, c)).", "v(X), dif(X, 'USD')");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].constraints[0].op, CmpOp::Neq);
    }

    #[test]
    fn grounding_after_residual_is_checked() {
        // The constraint X > 10 is residual when stored, then X grounds to 5
        // via q — the answer must be rejected at emission.
        let a = solve_all("q(5).", "X > 10, q(X)");
        assert!(a.is_empty());
        let b = solve_all("q(50).", "X > 10, q(X)");
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn type_test_builtins() {
        assert_eq!(solve_all("", "atom(foo)").len(), 1);
        assert!(solve_all("", "atom(1)").is_empty());
        assert_eq!(solve_all("", "number(1.5)").len(), 1);
        assert_eq!(solve_all("", "integer(2)").len(), 1);
        assert!(solve_all("", "integer(2.0)").is_empty());
        assert_eq!(solve_all("", "var(X)").len(), 1);
        assert_eq!(solve_all("", "X = 1, nonvar(X)").len(), 1);
        assert_eq!(solve_all("", "ground(f(1, 2))").len(), 1);
        assert!(solve_all("", "ground(f(1, X))").is_empty());
    }

    #[test]
    fn call_metapredicate() {
        let a = solve_all("p(7).", "G = p(X), call(G)");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].vars["X"], Term::Int(7));
    }

    #[test]
    fn max_answers_respected() {
        let p = Program::from_source("nat(0). nat(1). nat(2). nat(3). nat(4).").unwrap();
        let s = Solver::with_config(
            &p,
            SolverConfig {
                max_answers: 2,
                ..SolverConfig::default()
            },
        );
        assert_eq!(s.query("nat(X)").unwrap().len(), 2);
        assert_eq!(s.truncated_by(), Some(SolverLimit::Answers(2)));
    }

    #[test]
    fn max_answers_reached_exactly_is_not_a_cut() {
        let p = Program::from_source("nat(0). nat(1). nat(1).").unwrap();
        let s = Solver::with_config(
            &p,
            SolverConfig {
                max_answers: 2,
                ..SolverConfig::default()
            },
        );
        // Two distinct answers (the duplicate is deduplicated, not counted).
        assert_eq!(s.query("nat(X)").unwrap().len(), 2);
        assert_eq!(s.truncated_by(), None);
    }
}
