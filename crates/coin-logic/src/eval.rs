//! Partial evaluation of arithmetic expressions.
//!
//! Mediation manipulates *symbolic* values: a term like
//! `*(col(t1, revenue), 1000)` stands for the SQL expression
//! `r1.revenue * 1000`. The `is/2` builtin therefore performs **partial**
//! evaluation: fully numeric subexpressions are folded to constants, while
//! subexpressions containing symbolic constants (or unbound variables, e.g.
//! a not-yet-fetched exchange rate) are rebuilt and carried through the
//! derivation. The mediated SQL printer later renders residual expressions
//! back into SQL arithmetic.

use crate::bindings::Bindings;
use crate::symbol::Sym;
use crate::term::Term;

/// Outcome of partially evaluating an arithmetic expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Evaled {
    /// Fully reduced to a numeric constant.
    Num(Term),
    /// Contains symbolic parts; the term is the simplified residual.
    Residual(Term),
}

impl Evaled {
    pub fn term(self) -> Term {
        match self {
            Evaled::Num(t) | Evaled::Residual(t) => t,
        }
    }
}

/// Errors from arithmetic evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    DivisionByZero,
    /// Operator applied to a non-numeric *data* constant (e.g. `1 + 'USD'`).
    TypeMismatch(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::DivisionByZero => f.write_str("division by zero"),
            EvalError::TypeMismatch(m) => write!(f, "type mismatch in arithmetic: {m}"),
        }
    }
}

fn is_arith_op(f: Sym, arity: usize) -> bool {
    arity == 2 && matches!(f.as_str(), "+" | "-" | "*" | "/" | "min" | "max")
}

fn apply(op: &str, a: &Term, b: &Term) -> Result<Term, EvalError> {
    match (a, b) {
        (Term::Int(x), Term::Int(y)) => {
            let r = match op {
                "+" => x.checked_add(*y),
                "-" => x.checked_sub(*y),
                "*" => x.checked_mul(*y),
                "/" => {
                    if *y == 0 {
                        return Err(EvalError::DivisionByZero);
                    }
                    // Integer division that is exact stays integral;
                    // otherwise fall through to float division, matching
                    // SQL numeric behaviour.
                    if x % y == 0 {
                        Some(x / y)
                    } else {
                        return Ok(Term::float(*x as f64 / *y as f64));
                    }
                }
                "min" => Some(*x.min(y)),
                "max" => Some(*x.max(y)),
                _ => unreachable!(),
            };
            match r {
                Some(v) => Ok(Term::Int(v)),
                None => Ok(Term::float(apply_f(op, *x as f64, *y as f64)?)),
            }
        }
        _ => {
            let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) else {
                return Err(EvalError::TypeMismatch(format!("{op}({a}, {b})")));
            };
            Ok(Term::float(apply_f(op, x, y)?))
        }
    }
}

fn apply_f(op: &str, x: f64, y: f64) -> Result<f64, EvalError> {
    Ok(match op {
        "+" => x + y,
        "-" => x - y,
        "*" => x * y,
        "/" => {
            if y == 0.0 {
                return Err(EvalError::DivisionByZero);
            }
            x / y
        }
        "min" => x.min(y),
        "max" => x.max(y),
        _ => unreachable!(),
    })
}

/// Partially evaluate `t` under `bindings`.
///
/// * numeric constants evaluate to themselves;
/// * arithmetic operators with two numeric operands fold;
/// * `*1`, `1*`, `+0`, `0+`, `-0`, `/1` identities are simplified away (this
///   keeps mediated SQL readable — converting with scale-factor 1 must not
///   emit `revenue * 1`);
/// * anything else (symbolic constants such as `col(t1, revenue)`, unbound
///   variables, non-arithmetic compounds) residualizes.
pub fn partial_eval(t: &Term, bindings: &Bindings) -> Result<Evaled, EvalError> {
    let w = bindings.walk(t).clone();
    match &w {
        Term::Int(_) | Term::Float(_) => Ok(Evaled::Num(w)),
        Term::Compound(f, args) if is_arith_op(*f, args.len()) => {
            let a = partial_eval(&args[0], bindings)?;
            let b = partial_eval(&args[1], bindings)?;
            match (&a, &b) {
                (Evaled::Num(x), Evaled::Num(y)) => Ok(Evaled::Num(apply(f.as_str(), x, y)?)),
                _ => {
                    let (x, y) = (a.term(), b.term());
                    // Algebraic identities on the residual.
                    let op = f.as_str();
                    let one = |t: &Term| matches!(t, Term::Int(1)) || *t == Term::float(1.0);
                    let zero = |t: &Term| matches!(t, Term::Int(0)) || *t == Term::float(0.0);
                    let simplified = match op {
                        "*" if one(&x) => y,
                        "*" if one(&y) => x,
                        "+" if zero(&x) => y,
                        "+" if zero(&y) => x,
                        "-" if zero(&y) => x,
                        "/" if one(&y) => x,
                        _ => Term::Compound(*f, vec![x, y]),
                    };
                    Ok(Evaled::Residual(simplified))
                }
            }
        }
        // Symbolic constants, variables and other compounds residualize.
        other => Ok(Evaled::Residual(other.clone())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_term_str;

    fn eval(src: &str) -> Evaled {
        let (t, nvars, _) = parse_term_str(src).unwrap();
        let mut b = Bindings::new();
        b.fresh(nvars);
        partial_eval(&t, &b).unwrap()
    }

    #[test]
    fn folds_ground_arithmetic() {
        assert_eq!(eval("2 + 3 * 4"), Evaled::Num(Term::Int(14)));
    }

    #[test]
    fn integer_division_exact_stays_int() {
        assert_eq!(eval("10 / 2"), Evaled::Num(Term::Int(5)));
    }

    #[test]
    fn integer_division_inexact_floats() {
        assert_eq!(eval("10 / 4"), Evaled::Num(Term::float(2.5)));
    }

    #[test]
    fn division_by_zero_errors() {
        let (t, _, _) = parse_term_str("1 / 0").unwrap();
        let b = Bindings::new();
        assert_eq!(partial_eval(&t, &b), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn mixed_int_float_promotes() {
        assert_eq!(eval("1 + 2.5"), Evaled::Num(Term::float(3.5)));
    }

    #[test]
    fn symbolic_residualizes() {
        let r = eval("col(t1, revenue) * 1000");
        assert_eq!(
            r,
            Evaled::Residual(Term::compound(
                "*",
                vec![
                    Term::compound("col", vec![Term::atom("t1"), Term::atom("revenue")]),
                    Term::Int(1000)
                ]
            ))
        );
    }

    #[test]
    fn constant_subtree_folds_inside_residual() {
        let r = eval("col(t1, revenue) * (10 * 100)");
        assert_eq!(r.term().to_string(), "*(col(t1, revenue), 1000)");
    }

    #[test]
    fn multiply_by_one_simplifies() {
        assert_eq!(
            eval("col(t1, revenue) * 1").term().to_string(),
            "col(t1, revenue)"
        );
        assert_eq!(
            eval("1 * col(t1, revenue)").term().to_string(),
            "col(t1, revenue)"
        );
    }

    #[test]
    fn add_zero_simplifies() {
        assert_eq!(eval("col(t1, x) + 0").term().to_string(), "col(t1, x)");
        assert_eq!(eval("0 + col(t1, x)").term().to_string(), "col(t1, x)");
    }

    #[test]
    fn divide_by_one_simplifies() {
        assert_eq!(eval("col(t1, x) / 1").term().to_string(), "col(t1, x)");
    }

    #[test]
    fn unbound_var_residualizes() {
        let (t, n, _) = parse_term_str("X * 2").unwrap();
        let mut b = Bindings::new();
        b.fresh(n);
        let r = partial_eval(&t, &b).unwrap();
        assert!(matches!(r, Evaled::Residual(_)));
    }

    #[test]
    fn atom_operand_residualizes() {
        // Atoms may stand for symbolic values, so `1 + 'USD'` residualizes
        // rather than erroring; nonsensical arithmetic surfaces when the
        // mediated SQL is executed.
        let (t, _, _) = parse_term_str("1 + 'USD'").unwrap();
        let b = Bindings::new();
        assert!(matches!(partial_eval(&t, &b), Ok(Evaled::Residual(_))));
    }

    #[test]
    fn overflow_promotes_to_float() {
        let (t, _, _) = parse_term_str(&format!("{} * 2", i64::MAX)).unwrap();
        let b = Bindings::new();
        let r = partial_eval(&t, &b).unwrap();
        match r {
            Evaled::Num(Term::Float(f)) => assert!(f.0 > 1e18),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn min_max() {
        assert_eq!(eval("min(3, 5)"), Evaled::Num(Term::Int(3)));
        assert_eq!(eval("max(3, 5)"), Evaled::Num(Term::Int(5)));
    }
}
