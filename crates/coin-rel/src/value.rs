//! Runtime values and SQL-style semantics.
//!
//! The value domain of the relational engine: `NULL`, booleans, 64-bit
//! integers, doubles and strings. Comparison and arithmetic follow SQL
//! conventions — any operation touching `NULL` yields `NULL`, numeric types
//! promote, and predicates treat non-TRUE as filter failure (three-valued
//! logic collapsed at the filter boundary).
//!
//! Strings are shared (`Arc<str>`): cloning a `Value::Str` — and therefore
//! cloning a `Row` — is a reference-count bump, not a heap copy. Joins
//! clone the probe row once per match and column projections clone cell
//! values per row, so this is the difference between O(matches) pointer
//! bumps and O(matches × string bytes) allocations on the execution hot
//! path.

use std::sync::Arc;

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    /// A shared immutable string; cloning bumps a refcount.
    Str(Arc<str>),
}

impl Value {
    pub fn str(s: &str) -> Value {
        Value::Str(Arc::from(s))
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    /// SQL truthiness for predicate evaluation: only TRUE passes a filter.
    pub fn is_true(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// SQL comparison: `None` when either side is NULL or the types are
    /// incomparable (mixed non-numeric classes).
    pub fn sql_cmp(&self, other: &Value) -> Option<std::cmp::Ordering> {
        use Value::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (a, b) if a.is_number() && b.is_number() => {
                a.as_f64().unwrap().partial_cmp(&b.as_f64().unwrap())
            }
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used for ORDER BY / DISTINCT / sort-merge: NULL sorts
    /// first, then booleans, numbers, strings; cross-class by class rank.
    pub fn total_cmp(&self, other: &Value) -> std::cmp::Ordering {
        use std::cmp::Ordering;
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (a, b) if a.is_number() && b.is_number() => {
                a.as_f64().unwrap().total_cmp(&b.as_f64().unwrap())
            }
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => rank(self).cmp(&rank(other)),
        }
    }

    /// Equality for grouping/DISTINCT (NULL equals NULL here, per SQL
    /// GROUP BY semantics).
    pub fn group_eq(&self, other: &Value) -> bool {
        self.total_cmp(other) == std::cmp::Ordering::Equal
    }

    /// SQL arithmetic; NULL-propagating.
    pub fn arith(&self, op: ArithOp, other: &Value) -> Result<Value, ValueError> {
        use Value::*;
        if self.is_null() || other.is_null() {
            return Ok(Null);
        }
        match (self, other) {
            (Int(a), Int(b)) => match op {
                ArithOp::Add => Ok(a
                    .checked_add(*b)
                    .map_or_else(|| Float(*a as f64 + *b as f64), Int)),
                ArithOp::Sub => Ok(a
                    .checked_sub(*b)
                    .map_or_else(|| Float(*a as f64 - *b as f64), Int)),
                ArithOp::Mul => Ok(a
                    .checked_mul(*b)
                    .map_or_else(|| Float(*a as f64 * *b as f64), Int)),
                ArithOp::Div => {
                    if *b == 0 {
                        Err(ValueError::DivisionByZero)
                    } else if a % b == 0 {
                        Ok(Int(a / b))
                    } else {
                        Ok(Float(*a as f64 / *b as f64))
                    }
                }
            },
            (a, b) if a.is_number() && b.is_number() => {
                let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                match op {
                    ArithOp::Add => Ok(Float(x + y)),
                    ArithOp::Sub => Ok(Float(x - y)),
                    ArithOp::Mul => Ok(Float(x * y)),
                    ArithOp::Div => {
                        if y == 0.0 {
                            Err(ValueError::DivisionByZero)
                        } else {
                            Ok(Float(x / y))
                        }
                    }
                }
            }
            (a, b) => Err(ValueError::TypeMismatch(format!(
                "{op:?} on {} and {}",
                a.type_name(),
                b.type_name()
            ))),
        }
    }

    /// String concatenation (`||`); NULL-propagating, coercing scalars.
    pub fn concat(&self, other: &Value) -> Value {
        if self.is_null() || other.is_null() {
            return Value::Null;
        }
        Value::Str(Arc::from(format!("{}{}", self.render(), other.render())))
    }

    /// Plain rendering without quotes (for concatenation and CSV-ish dumps).
    pub fn render(&self) -> String {
        match self {
            Value::Null => "NULL".into(),
            Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.into(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{f:.0}")
                } else {
                    f.to_string()
                }
            }
            Value::Str(s) => s.as_ref().to_owned(),
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "str",
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            other => f.write_str(&other.render()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v))
    }
}
impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Value-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueError {
    DivisionByZero,
    TypeMismatch(String),
}

impl std::fmt::Display for ValueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValueError::DivisionByZero => f.write_str("division by zero"),
            ValueError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
        }
    }
}

impl std::error::Error for ValueError {}

/// SQL `LIKE` pattern matching: `%` matches any run, `_` one character.
/// Compiles the pattern on every call; a per-row caller holds a
/// [`LikeProg`](crate::prog::LikeProg) instead.
pub fn sql_like(text: &str, pattern: &str) -> bool {
    crate::prog::LikeProg::compile(pattern).matches(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;

    #[test]
    fn null_comparisons_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn numeric_promotion_compare() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn string_compare() {
        assert_eq!(
            Value::str("IBM").sql_cmp(&Value::str("NTT")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn mixed_classes_incomparable() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::str("1")), None);
    }

    #[test]
    fn arithmetic_null_propagates() {
        assert_eq!(
            Value::Null.arith(ArithOp::Add, &Value::Int(1)).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn int_division_exactness() {
        assert_eq!(
            Value::Int(10).arith(ArithOp::Div, &Value::Int(2)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            Value::Int(10).arith(ArithOp::Div, &Value::Int(4)).unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(
            Value::Int(1).arith(ArithOp::Div, &Value::Int(0)),
            Err(ValueError::DivisionByZero)
        );
        assert_eq!(
            Value::Float(1.0).arith(ArithOp::Div, &Value::Float(0.0)),
            Err(ValueError::DivisionByZero)
        );
    }

    #[test]
    fn overflow_promotes() {
        let big = Value::Int(i64::MAX);
        match big.arith(ArithOp::Mul, &Value::Int(2)).unwrap() {
            Value::Float(f) => assert!(f > 1e18),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn type_mismatch_arith() {
        assert!(Value::str("x").arith(ArithOp::Add, &Value::Int(1)).is_err());
    }

    #[test]
    fn total_order_null_first() {
        let mut vals = [
            Value::str("a"),
            Value::Int(3),
            Value::Null,
            Value::Float(1.5),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Float(1.5));
        assert_eq!(vals[2], Value::Int(3));
        assert_eq!(vals[3], Value::str("a"));
    }

    #[test]
    fn group_eq_nulls_equal() {
        assert!(Value::Null.group_eq(&Value::Null));
        assert!(Value::Int(2).group_eq(&Value::Float(2.0)));
    }

    #[test]
    fn like_patterns() {
        assert!(sql_like("NTT", "N%"));
        assert!(sql_like("NTT", "%T"));
        assert!(sql_like("NTT", "N_T"));
        assert!(!sql_like("NTT", "N_"));
        assert!(sql_like("", "%"));
        assert!(!sql_like("", "_"));
        assert!(sql_like("abc", "abc"));
        assert!(sql_like("a%c", "a%c"));
        assert!(sql_like("International Business Machines", "%Business%"));
    }

    #[test]
    fn concat_renders() {
        assert_eq!(Value::str("a").concat(&Value::Int(1)), Value::str("a1"));
        assert_eq!(Value::Null.concat(&Value::str("x")), Value::Null);
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::str("O'Hare").to_string(), "'O''Hare'");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(2.0).to_string(), "2");
    }
}
