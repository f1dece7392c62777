//! Compiling the COIN model into an abductive logic program.
//!
//! The mediation procedure works by abductive inference over a logic
//! program assembled from the domain model, the context theories, the
//! elevation axioms and the conversion functions (\[GBMS96\], \[KK93\]). This
//! module performs that assembly. The generated program uses:
//!
//! * `col('r1', revenue)` — symbolic reference to a column of a FROM
//!   binding (a ground term standing for a per-tuple value);
//! * `mod_val(Ctx, Col, Modifier, V)` — the value of a modifier for the
//!   semantic object `Col` in context `Ctx`;
//! * `cvt_<modifier>(Vin, From, To, Vout)` — conversion functions;
//! * abducibles `eqc/2` (semantic equality), `neqc/2` (semantic
//!   disequality) and `anc_<modifier>/3` (ancillary-source access, e.g. an
//!   exchange-rate lookup), with integrity constraints making hypothesis
//!   sets consistent;
//! * `rcv(Col, V)` — the column's value converted into the receiver's
//!   context: the predicate the query translation drives.
//!
//! The [`Encoder`] builds these as [`Clause`]s and abducible declarations
//! straight into a [`Program`] the solver runs, with each clause's
//! variables numbered in order of first appearance — the numbering the
//! logic parser gives the clause's text, so abduced variables keep the
//! numbers explanations print (`_V32`). Nothing is printed on the compile
//! path: [`program_text`] prints a program on demand, as text that
//! [`Program::from_source`] loads back into the same clauses.

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use coin_logic::{Clause, GroundSemantics, Literal, Program, Sym, Term};
use coin_rel::Value;

use crate::model::{
    ContextTheory, Conversion, ConversionRegistry, DomainModel, Elevation, ModelError, ModifierSpec,
};
use crate::versions::{ModelPart, PlanDeps};

/// The fixed symbols the encoder builds with, interned once per process.
struct Syms {
    col: Sym,
    mod_val: Sym,
    rcv: Sym,
    eqc: Sym,
    neqc: Sym,
    is: Sym,
    mul: Sym,
    div: Sym,
    not_identical: Sym,
}

fn syms() -> &'static Syms {
    static SYMS: OnceLock<Syms> = OnceLock::new();
    SYMS.get_or_init(|| Syms {
        col: Sym::intern("col"),
        mod_val: Sym::intern("mod_val"),
        rcv: Sym::intern("rcv"),
        eqc: Sym::intern("eqc"),
        neqc: Sym::intern("neqc"),
        is: Sym::intern("is"),
        mul: Sym::intern("*"),
        div: Sym::intern("/"),
        not_identical: Sym::intern("\\=="),
    })
}

/// A data constant as a logic term. Strings become logic string constants
/// (sharing the value's text); atoms are reserved for structural names,
/// apart from the booleans and `null`.
pub fn value_term(v: &Value) -> Term {
    match v {
        Value::Null => Term::atom("null"),
        Value::Bool(b) => Term::atom(if *b { "true" } else { "false" }),
        Value::Int(i) => Term::Int(*i),
        Value::Float(f) => Term::float(*f),
        Value::Str(s) => Term::Str(Arc::clone(s)),
    }
}

/// The column term `col(binding, column)`. The binding is a logic string,
/// not an atom: table aliases come from the receiver's SQL, and interned
/// atoms are never freed.
pub fn col_term(binding: &str, column: &str) -> Term {
    Term::Compound(
        syms().col,
        vec![Term::Str(Arc::from(binding)), Term::atom(column)],
    )
}

fn pos(functor: Sym, args: Vec<Term>) -> Literal {
    Literal::Pos(Term::Compound(functor, args))
}

/// Variables of the integrity constraints, numbered in order of first
/// appearance (the numbering a parser gives the written clause).
const IC_VARS: [&str; 3] = ["X", "V", "W"];
/// Variables of the conversion clauses `cvt_<modifier>(V, F, T, W)`: value
/// in, modifier value from, modifier value to, value out, and the rate `R`
/// of a lookup.
const CVT_VARS: [&str; 5] = ["V", "F", "T", "W", "R"];

fn cvt_symbol(modifier: &str) -> Sym {
    Sym::intern(&format!("cvt_{modifier}"))
}

/// The encoder builds the mediation program as clauses and abducible
/// declarations, ready for the solver. [`program_text`] prints it as the
/// mediator's "explicit codification of the implicit semantics".
#[derive(Debug, Default)]
pub struct Encoder {
    program: Program,
    statements: usize,
    /// (modifier, lookup conversion) pairs that introduced ancillary
    /// predicates, for decoding Δ atoms back into SQL joins.
    pub ancillaries: Vec<(String, Conversion)>,
}

impl Encoder {
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The program built so far.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The finished program.
    pub fn into_program(self) -> Program {
        self.program
    }

    fn clause(&mut self, clause: Clause) {
        self.program.kb.add(clause);
        self.statements += 1;
    }

    fn abducible(&mut self, name: &str, arity: usize, ground: GroundSemantics) {
        self.program.declare_abducible(name, arity, ground);
        self.statements += 1;
    }

    /// Emit the fixed preamble: abducible declarations and integrity
    /// constraints over the case predicates.
    pub fn preamble(&mut self) {
        let s = syms();
        self.abducible("eqc", 2, GroundSemantics::Eq);
        self.abducible("neqc", 2, GroundSemantics::Neq);
        let [x, v, w] = [0, 1, 2].map(Term::var);
        // ic :- eqc(X, V), eqc(X, W), V \== W.
        self.program.add_ic(Clause::rule(
            Term::atom("ic"),
            vec![
                pos(s.eqc, vec![x.clone(), v.clone()]),
                pos(s.eqc, vec![x.clone(), w.clone()]),
                pos(s.not_identical, vec![v.clone(), w]),
            ],
        ));
        // ic :- eqc(X, V), neqc(X, V).
        self.program.add_ic(Clause::rule(
            Term::atom("ic"),
            vec![
                pos(s.eqc, vec![x.clone(), v.clone()]),
                pos(s.neqc, vec![x, v]),
            ],
        ));
        self.statements += 2;
    }

    /// Emit conversion clauses for every registered modifier conversion.
    pub fn conversions(&mut self, registry: &ConversionRegistry) {
        let s = syms();
        let [v, f, t, w, r] = [0, 1, 2, 3, 4].map(Term::var);
        for (modifier, conv) in registry.iter() {
            let cvt = cvt_symbol(modifier);
            // Identity when modifier values coincide:
            // cvt(V, F, T, V) :- eqc(F, T).
            self.clause(Clause::rule(
                Term::Compound(cvt, vec![v.clone(), f.clone(), t.clone(), v.clone()]),
                vec![pos(s.eqc, vec![f.clone(), t.clone()])],
            ));
            let head = Term::Compound(cvt, vec![v.clone(), f.clone(), t.clone(), w.clone()]);
            let differ = pos(s.neqc, vec![f.clone(), t.clone()]);
            match conv {
                Conversion::Ratio => {
                    // cvt(V, F, T, W) :- neqc(F, T), W is V * F / T.
                    let ratio = Term::Compound(
                        s.div,
                        vec![Term::Compound(s.mul, vec![v.clone(), f.clone()]), t.clone()],
                    );
                    self.clause(Clause::rule(
                        head,
                        vec![differ, pos(s.is, vec![w.clone(), ratio])],
                    ));
                }
                Conversion::Lookup { .. } => {
                    // cvt(V, F, T, W) :- neqc(F, T), anc(F, T, R), W is V * R.
                    let anc = format!("anc_{modifier}");
                    let product = Term::Compound(s.mul, vec![v.clone(), r.clone()]);
                    self.clause(Clause::rule(
                        head,
                        vec![
                            differ,
                            pos(Sym::intern(&anc), vec![f.clone(), t.clone(), r.clone()]),
                            pos(s.is, vec![w.clone(), product]),
                        ],
                    ));
                    self.abducible(&anc, 3, GroundSemantics::None);
                    self.ancillaries.push((modifier.to_owned(), conv.clone()));
                }
            }
        }
    }

    /// Emit the `mod_val` axioms of one context for one column of one
    /// binding. `spec` comes from the context theory of the elevation's
    /// context.
    fn modifier_axioms(
        &mut self,
        context: &str,
        binding: &str,
        column: &str,
        modifier: &str,
        spec: &ModifierSpec,
    ) {
        let s = syms();
        let head = |value: Term| {
            Term::Compound(
                s.mod_val,
                vec![
                    Term::atom(context),
                    col_term(binding, column),
                    Term::atom(modifier),
                    value,
                ],
            )
        };
        match spec {
            ModifierSpec::Constant(v) => self.clause(Clause::fact(head(value_term(v)))),
            ModifierSpec::FromAttribute(attr) => {
                self.clause(Clause::fact(head(col_term(binding, attr))))
            }
            ModifierSpec::Conditional { cases, default } => {
                for case in cases {
                    let cond = pos(
                        s.eqc,
                        vec![col_term(binding, &case.attribute), value_term(&case.equals)],
                    );
                    let result = self.spec_leaf(binding, &case.then);
                    self.clause(Clause::rule(head(result), vec![cond]));
                }
                // Default: the negation of every case condition.
                let negs = cases
                    .iter()
                    .map(|c| {
                        pos(
                            s.neqc,
                            vec![col_term(binding, &c.attribute), value_term(&c.equals)],
                        )
                    })
                    .collect();
                let result = self.spec_leaf(binding, default);
                self.clause(Clause::rule(head(result), negs));
            }
        }
    }

    /// Leaf spec to a term (constants and attribute references only —
    /// nested conditionals are normalized away at model validation).
    fn spec_leaf(&self, binding: &str, spec: &ModifierSpec) -> Term {
        match spec {
            ModifierSpec::Constant(v) => value_term(v),
            ModifierSpec::FromAttribute(a) => col_term(binding, a),
            ModifierSpec::Conditional { .. } => {
                // Guarded against by validation; degrade gracefully.
                Term::atom("null")
            }
        }
    }

    /// Emit the full per-column pipeline for one FROM binding: modifier
    /// axioms in the source context plus the `rcv/2` clause converting into
    /// the receiver context.
    ///
    /// Every conversion function actually applied is recorded into `deps`
    /// — the plan's read footprint — so later mutations to *unconsulted*
    /// conversions cannot invalidate the resulting plan.
    #[allow(clippy::too_many_arguments)]
    pub fn elevated_column(
        &mut self,
        domain: &DomainModel,
        conversions: &ConversionRegistry,
        source_ctx: &ContextTheory,
        receiver_ctx: &ContextTheory,
        elevation: &Elevation,
        binding: &str,
        column: &str,
        deps: &mut PlanDeps,
    ) -> Result<(), ModelError> {
        let s = syms();
        let col = col_term(binding, column);
        let identity = |col: Term| Clause::fact(Term::Compound(s.rcv, vec![col.clone(), col]));
        let Some(sem_type) = elevation.type_of(column) else {
            // Plain column: identity in every context.
            self.clause(identity(col));
            return Ok(());
        };
        let modifiers = domain.modifiers_of(sem_type)?;
        if modifiers.is_empty() {
            self.clause(identity(col));
            return Ok(());
        }

        // Modifier axioms in the source context + receiver constants:
        // rcv(Col, Vn) :- mod_val(Ctx, Col, M0, F0), cvt_M0(Col, F0, To0, V0),
        //                 mod_val(Ctx, Col, M1, F1), cvt_M1(V0, F1, To1, V1), …
        // numbered as written: Vn first (it is in the head), then F0, V0, F1, ….
        let n = modifiers.len() as u32;
        let from_var = |i: u32| Term::var(1 + 2 * i);
        let out_var = |i: u32| Term::var(if i + 1 == n { 0 } else { 2 + 2 * i });
        let mut body = Vec::with_capacity(2 * modifiers.len());
        let mut current = col.clone();
        for (i, m) in (0..n).zip(&modifiers) {
            conversions.get(m)?; // must have a conversion function
            deps.record(ModelPart::Conversion(m.clone()));
            let spec = source_ctx.get(sem_type, m).ok_or_else(|| {
                ModelError::Invalid(format!(
                    "context {} does not assign {sem_type}.{m}",
                    source_ctx.name
                ))
            })?;
            self.modifier_axioms(&source_ctx.name, binding, column, m, spec);

            let target = receiver_ctx.get(sem_type, m).ok_or_else(|| {
                ModelError::Invalid(format!(
                    "receiver context {} does not assign {sem_type}.{m}",
                    receiver_ctx.name
                ))
            })?;
            let ModifierSpec::Constant(target_v) = target else {
                return Err(ModelError::Invalid(format!(
                    "receiver context {} must assign constants ({sem_type}.{m})",
                    receiver_ctx.name
                )));
            };

            body.push(pos(
                s.mod_val,
                vec![
                    Term::atom(&source_ctx.name),
                    col.clone(),
                    Term::atom(m),
                    from_var(i),
                ],
            ));
            let next = out_var(i);
            body.push(pos(
                cvt_symbol(m),
                vec![current, from_var(i), value_term(target_v), next.clone()],
            ));
            current = next;
        }
        self.clause(Clause::rule(
            Term::Compound(s.rcv, vec![col, current]),
            body,
        ));
        Ok(())
    }

    /// Count of emitted statements — clauses, integrity constraints and
    /// abducible declarations (the statement metric used by EX-SCALE).
    pub fn statement_count(&self) -> usize {
        self.statements
    }
}

/// The name a clause's variable `v` is written with: the encoder's own
/// names for the clauses it builds, `_G<v>` for any other clause.
fn var_name(head: &Term, nvars: u32, v: u32) -> String {
    let fixed = |names: &[&str]| names.get(v as usize).map(|n| (*n).to_owned());
    let name = match head.functor() {
        Some((f, 0)) if f.as_str() == "ic" => fixed(&IC_VARS),
        Some((f, 4)) if f.as_str().starts_with("cvt_") => fixed(&CVT_VARS),
        // rcv(Col, Vn) :- … as numbered by `elevated_column`.
        Some((f, 2)) if f == syms().rcv => Some(match v {
            0 => format!("V{}", nvars / 2 - 1),
            v if v % 2 == 1 => format!("F{}", v / 2),
            v => format!("V{}", v / 2 - 1),
        }),
        _ => None,
    };
    name.unwrap_or_else(|| format!("_G{v}"))
}

/// Print a mediation program as text that [`Program::from_source`] loads
/// back into the same clauses: the abducible declarations, the integrity
/// constraints, then every predicate's clauses in the order they were
/// added, predicates by name. Atoms in argument position are quoted and
/// variables carry the encoder's names, so the text reads like the axioms
/// as written (`mod_val('c_src1', col('r1', 'revenue'), 'currency', …)`).
pub fn program_text(program: &Program) -> String {
    let mut out = String::new();
    let mut abducibles: Vec<_> = program.abducibles().collect();
    abducibles.sort_by_key(|&((name, arity), _)| (name.as_str(), arity));
    for ((name, arity), spec) in abducibles {
        let ground = match spec.ground {
            GroundSemantics::None => "",
            GroundSemantics::Eq => ", eq",
            GroundSemantics::Neq => ", ne",
        };
        out.push_str(":- abducible(");
        write_functor(&mut out, name);
        writeln!(out, "/{arity}{ground}).").expect(STRING_WRITE);
    }
    let mut clauses: Vec<&Clause> = program.kb.iter().collect();
    // Stable: a predicate's clauses keep the order they were added in.
    clauses.sort_by_key(|c| {
        let (name, arity) = c.key();
        (name.as_str(), arity)
    });
    for clause in program.ics().iter().chain(clauses) {
        let names = |v: u32| var_name(&clause.head, clause.nvars, v);
        write_goal(&mut out, &clause.head, &names);
        for (i, literal) in clause.body.iter().enumerate() {
            out.push_str(if i == 0 { " :- " } else { ", " });
            if literal.is_negative() {
                out.push_str("\\+ ");
            }
            write_goal(&mut out, literal.term(), &names);
        }
        out.push_str(".\n");
    }
    out
}

const STRING_WRITE: &str = "writing to a String cannot fail";

/// The precedence of an infix operator as the parser reads it: `L op R`,
/// non-associative at 700, left-associative below. 0 for any other term.
fn precedence(t: &Term) -> u32 {
    match t {
        Term::Compound(f, args) if args.len() == 2 => match f.as_str() {
            "is" | "=" | "\\=" | "==" | "\\==" | "<" | ">" | "=<" | ">=" => 700,
            "+" | "-" => 500,
            "*" | "/" => 400,
            _ => 0,
        },
        _ => 0,
    }
}

/// A predicate or functor name: bare when it reads back as an atom.
fn write_functor(out: &mut String, name: Sym) {
    let name = name.as_str();
    let mut chars = name.chars();
    let bare = chars.next().is_some_and(|c| c.is_ascii_lowercase())
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_');
    if bare {
        out.push_str(name);
    } else {
        write_quoted(out, name, '\'');
    }
}

fn write_quoted(out: &mut String, text: &str, quote: char) {
    out.push(quote);
    for c in text.chars() {
        if c == quote || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push(quote);
}

/// A clause head or body goal: a 0-ary predicate prints as its bare name.
fn write_goal(out: &mut String, t: &Term, names: &dyn Fn(u32) -> String) {
    match t {
        Term::Atom(name) => write_functor(out, *name),
        _ => write_term(out, t, names),
    }
}

fn write_term(out: &mut String, t: &Term, names: &dyn Fn(u32) -> String) {
    match t {
        Term::Var(v) => out.push_str(&names(v.0)),
        Term::Atom(a) => write_quoted(out, a.as_str(), '\''),
        Term::Int(i) => write!(out, "{i}").expect(STRING_WRITE),
        Term::Float(f) => {
            // Always with a decimal part or an exponent, so it reads back
            // as a float.
            if f.0.fract() == 0.0 && f.0.abs() < 1e15 {
                write!(out, "{:.1}", f.0).expect(STRING_WRITE)
            } else {
                write!(out, "{:?}", f.0).expect(STRING_WRITE)
            }
        }
        Term::Str(s) => write_quoted(out, s, '"'),
        Term::Compound(f, args) if precedence(t) > 0 => {
            let prec = precedence(t);
            // A left operand may share a left-associative operator's
            // precedence; anything else binds tighter or is parenthesized.
            let left_max = if prec == 700 { prec - 1 } else { prec };
            for (i, (arg, max)) in args.iter().zip([left_max, prec - 1]).enumerate() {
                if i == 1 {
                    write!(out, " {} ", f.as_str()).expect(STRING_WRITE);
                }
                let parens = precedence(arg) > max;
                if parens {
                    out.push('(');
                }
                write_term(out, arg, names);
                if parens {
                    out.push(')');
                }
            }
        }
        Term::Compound(f, args) => {
            write_functor(out, *f);
            out.push('(');
            for (i, arg) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_term(out, arg, names);
            }
            out.push(')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::figure2_domain;
    use crate::versions::PlanDeps;
    use coin_logic::{Program, Solver};

    fn source1_context() -> ContextTheory {
        ContextTheory::new("c_src1")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::from_attribute("currency"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::if_attr_eq(
                    "currency",
                    "JPY",
                    ModifierSpec::constant(1000i64),
                    ModifierSpec::constant(1i64),
                ),
            )
    }

    fn receiver_context() -> ContextTheory {
        ContextTheory::new("c_recv")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant("USD"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(1i64),
            )
    }

    fn encode_figure2_column() -> Encoder {
        let (dm, conv) = figure2_domain();
        let elevation = Elevation::new("r1", "c_src1")
            .column("cname", "companyName")
            .column("revenue", "companyFinancials");
        let mut enc = Encoder::new();
        enc.preamble();
        enc.conversions(&conv);
        enc.elevated_column(
            &dm,
            &conv,
            &source1_context(),
            &receiver_context(),
            &elevation,
            "r1",
            "revenue",
            &mut PlanDeps::new(),
        )
        .unwrap();
        enc
    }

    /// `a` and `b` hold the same clauses, integrity constraints and
    /// abducible declarations.
    fn assert_same_program(a: &Program, b: &Program) {
        let mut keys: Vec<_> = a.kb.iter().map(Clause::key).collect();
        keys.dedup();
        assert_eq!(a.kb.len(), b.kb.len());
        for key in keys {
            assert_eq!(a.kb.clauses_for(key), b.kb.clauses_for(key), "{key:?}");
        }
        assert_eq!(a.ics(), b.ics());
        let abducibles = |p: &Program| {
            let mut v: Vec<_> = p
                .abducibles()
                .map(|((name, arity), spec)| (name.as_str(), arity, spec.ground))
                .collect();
            v.sort_by_key(|&(name, arity, _)| (name, arity));
            v
        };
        assert_eq!(abducibles(a), abducibles(b));
    }

    #[test]
    fn generated_program_parses() {
        let enc = encode_figure2_column();
        let text = program_text(enc.program());
        let parsed = Program::from_source(&text)
            .unwrap_or_else(|e| panic!("printed program failed to parse: {e}\n{text}"));
        assert_same_program(enc.program(), &parsed);
        assert!(text.contains(":- abducible(eqc/2, eq)."), "{text}");
        assert!(
            text.contains("ic :- eqc(X, V), eqc(X, W), V \\== W."),
            "{text}"
        );
        assert!(
            text.contains(
                "mod_val('c_src1', col(\"r1\", 'revenue'), 'currency', col(\"r1\", 'currency'))."
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "cvt_currency(V, F, T, W) :- neqc(F, T), anc_currency(F, T, R), W is V * R."
            ),
            "{text}"
        );
        assert!(
            text.contains("cvt_scaleFactor(V, F, T, W) :- neqc(F, T), W is V * F / T."),
            "{text}"
        );
        assert!(text.contains("rcv(col(\"r1\", 'revenue'), V1) :- mod_val('c_src1', col(\"r1\", 'revenue'), 'scaleFactor', F0), cvt_scaleFactor(col(\"r1\", 'revenue'), F0, 1, V0), mod_val('c_src1', col(\"r1\", 'revenue'), 'currency', F1), cvt_currency(V0, F1, \"USD\", V1)."), "{text}");
    }

    #[test]
    fn value_terms_roundtrip_via_parser() {
        // Each constant builds the term its written form parses into.
        for (v, text) in [
            (Value::Int(-42), "-42"),
            (Value::Float(0.0096), "0.0096"),
            (Value::Float(1000.0), "1000.0"),
            (Value::str("JPY"), "\"JPY\""),
            (Value::str("it's"), "\"it's\""),
            (Value::Bool(true), "'true'"),
            (Value::Null, "null"),
        ] {
            let (parsed, _, _) =
                coin_logic::parse_term_str(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(value_term(&v), parsed, "{text}");
        }
    }

    #[test]
    fn rcv_enumerates_three_cases() {
        // The heart of Figure 2: converting r1.revenue into the receiver
        // context yields exactly three abductive answers (JPY with rate,
        // USD identity, other with rate).
        let enc = encode_figure2_column();
        let solver = Solver::new(enc.program());
        let answers = solver.query("rcv(col(\"r1\", 'revenue'), W)").unwrap();
        assert_eq!(
            answers.len(),
            3,
            "program:\n{}",
            program_text(enc.program())
        );
        let rendered: Vec<String> = answers.iter().map(|a| a.vars["W"].to_string()).collect();
        // JPY case: revenue * 1000 * rate (rate abduced, still a variable).
        assert!(rendered[0].contains("1000"), "{rendered:?}");
        // USD case: identity.
        assert_eq!(rendered[1], "col(\"r1\", revenue)");
        // Other: revenue * rate.
        assert!(rendered[2].starts_with("*("), "{rendered:?}");
    }

    #[test]
    fn constant_context_single_case() {
        // Source 2 reports USD/1: no case analysis, identity conversion.
        let (dm, conv) = figure2_domain();
        let src2 = ContextTheory::new("c_src2")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant("USD"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(1i64),
            );
        let elevation = Elevation::new("r2", "c_src2").column("expenses", "companyFinancials");
        let mut enc = Encoder::new();
        enc.preamble();
        enc.conversions(&conv);
        enc.elevated_column(
            &dm,
            &conv,
            &src2,
            &receiver_context(),
            &elevation,
            "r2",
            "expenses",
            &mut PlanDeps::new(),
        )
        .unwrap();
        let solver = Solver::new(enc.program());
        let answers = solver.query("rcv(col(\"r2\", 'expenses'), W)").unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].vars["W"].to_string(), "col(\"r2\", expenses)");
        assert!(answers[0].delta.is_empty(), "no hypotheses needed");
    }

    #[test]
    fn plain_column_is_identity() {
        let (dm, conv) = figure2_domain();
        let elevation = Elevation::new("r1", "c_src1").column("cname", "companyName");
        let mut enc = Encoder::new();
        enc.preamble();
        enc.elevated_column(
            &dm,
            &conv,
            &source1_context(),
            &receiver_context(),
            &elevation,
            "r1",
            "cname",
            &mut PlanDeps::new(),
        )
        .unwrap();
        assert!(program_text(enc.program())
            .contains("rcv(col(\"r1\", 'cname'), col(\"r1\", 'cname'))."));
    }

    #[test]
    fn missing_context_assignment_is_error() {
        let (dm, conv) = figure2_domain();
        let incomplete = ContextTheory::new("c_bad"); // no assignments
        let elevation = Elevation::new("r1", "c_bad").column("revenue", "companyFinancials");
        let mut enc = Encoder::new();
        let e = enc
            .elevated_column(
                &dm,
                &conv,
                &incomplete,
                &receiver_context(),
                &elevation,
                "r1",
                "revenue",
                &mut PlanDeps::new(),
            )
            .unwrap_err();
        assert!(matches!(e, ModelError::Invalid(_)));
    }

    #[test]
    fn non_constant_receiver_rejected() {
        let (dm, conv) = figure2_domain();
        let recv = ContextTheory::new("c_recv")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::from_attribute("currency"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(1i64),
            );
        let elevation = Elevation::new("r1", "c_src1").column("revenue", "companyFinancials");
        let mut enc = Encoder::new();
        let e = enc
            .elevated_column(
                &dm,
                &conv,
                &source1_context(),
                &recv,
                &elevation,
                "r1",
                "revenue",
                &mut PlanDeps::new(),
            )
            .unwrap_err();
        assert!(matches!(e, ModelError::Invalid(_)));
    }
}
