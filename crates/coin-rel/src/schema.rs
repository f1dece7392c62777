//! Schemas and tables.

use crate::value::Value;

/// Declared column type. `Any` admits every value (used for computed
/// columns in mediated queries whose type depends on the branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Str,
    Bool,
    Any,
}

impl ColumnType {
    pub fn admits(self, v: &Value) -> bool {
        match (self, v) {
            (_, Value::Null) => true,
            (ColumnType::Any, _) => true,
            (ColumnType::Int, Value::Int(_)) => true,
            // Floats admit ints (numeric widening on load).
            (ColumnType::Float, Value::Int(_) | Value::Float(_)) => true,
            (ColumnType::Str, Value::Str(_)) => true,
            (ColumnType::Bool, Value::Bool(_)) => true,
            _ => false,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            ColumnType::Int => "INT",
            ColumnType::Float => "FLOAT",
            ColumnType::Str => "STR",
            ColumnType::Bool => "BOOL",
            ColumnType::Any => "ANY",
        }
    }
}

/// One column: a name (optionally qualified by table binding) and a type.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub ty: ColumnType,
}

impl Column {
    pub fn new(name: &str, ty: ColumnType) -> Column {
        Column {
            name: name.to_owned(),
            ty,
        }
    }
}

/// An ordered list of columns.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    pub columns: Vec<Column>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// Build from `(name, type)` pairs.
    pub fn of(cols: &[(&str, ColumnType)]) -> Schema {
        Schema {
            columns: cols.iter().map(|(n, t)| Column::new(n, *t)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Resolve a possibly-qualified reference against possibly-qualified
    /// column names: `q.c` matches exactly; bare `c` matches a unique column
    /// whose name is `c` or ends in `.c`.
    pub fn resolve(&self, qualifier: Option<&str>, column: &str) -> Option<usize> {
        match qualifier {
            Some(q) => self.columns.iter().position(|c| {
                c.name.strip_prefix(q).and_then(|r| r.strip_prefix('.')) == Some(column)
            }),
            None => {
                let mut found = None;
                for (i, c) in self.columns.iter().enumerate() {
                    if answers_to(&c.name, column) {
                        if found.is_some() {
                            return None; // ambiguous
                        }
                        found = Some(i);
                    }
                }
                found
            }
        }
    }

    /// A copy of this schema with every column name prefixed `binding.`
    /// (stripping any previous qualifier).
    pub fn qualified(&self, binding: &str) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let base = c.name.rsplit_once('.').map_or(c.name.as_str(), |(_, b)| b);
                    Column::new(&format!("{binding}.{base}"), c.ty)
                })
                .collect(),
        }
    }

    /// Concatenate two schemas (for joins).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Schema { columns }
    }

    /// Column names.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }
}

/// Whether a column named `name` answers to the bare reference `column`:
/// its name is `column` or ends in `.column`.
pub(crate) fn answers_to(name: &str, column: &str) -> bool {
    name == column
        || name
            .rsplit_once('.')
            .is_some_and(|(_, last)| last == column)
}

/// A row of values.
pub type Row = Vec<Value>;

/// Errors from table construction.
#[derive(Debug, Clone, PartialEq)]
pub enum TableError {
    ArityMismatch { expected: usize, got: usize },
    TypeMismatch { column: String, value: String },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::ArityMismatch { expected, got } => {
                write!(f, "row arity {got} does not match schema arity {expected}")
            }
            TableError::TypeMismatch { column, value } => {
                write!(f, "value {value} not admitted by column {column}")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// An in-memory table: a named schema plus rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    pub name: String,
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl Table {
    pub fn new(name: &str, schema: Schema) -> Table {
        Table {
            name: name.to_owned(),
            schema,
            rows: Vec::new(),
        }
    }

    /// Append a row, validating arity and types.
    pub fn push(&mut self, row: Row) -> Result<(), TableError> {
        if row.len() != self.schema.len() {
            return Err(TableError::ArityMismatch {
                expected: self.schema.len(),
                got: row.len(),
            });
        }
        for (v, c) in row.iter().zip(&self.schema.columns) {
            if !c.ty.admits(v) {
                return Err(TableError::TypeMismatch {
                    column: c.name.clone(),
                    value: v.to_string(),
                });
            }
        }
        self.rows.push(row);
        Ok(())
    }

    /// Build a table from literal rows, panicking on schema violations
    /// (test/fixture convenience).
    pub fn from_rows(name: &str, schema: Schema, rows: Vec<Row>) -> Table {
        let mut t = Table::new(name, schema);
        for r in rows {
            t.push(r).expect("fixture row violates schema");
        }
        t
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as an aligned text table (for examples and demos).
    pub fn render(&self) -> String {
        let names = self.schema.names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        for (i, n) in names.iter().enumerate() {
            out.push_str(&format!("{:w$}  ", n, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in names.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!("{:w$}  ", cell, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::of(&[
            ("cname", ColumnType::Str),
            ("revenue", ColumnType::Int),
            ("currency", ColumnType::Str),
        ])
    }

    #[test]
    fn push_validates_arity() {
        let mut t = Table::new("r1", schema());
        assert!(matches!(
            t.push(vec![Value::str("IBM")]),
            Err(TableError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn push_validates_types() {
        let mut t = Table::new("r1", schema());
        assert!(matches!(
            t.push(vec![Value::Int(1), Value::Int(2), Value::str("USD")]),
            Err(TableError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn nulls_always_admitted() {
        let mut t = Table::new("r1", schema());
        t.push(vec![Value::Null, Value::Null, Value::Null]).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn float_column_admits_int() {
        let s = Schema::of(&[("rate", ColumnType::Float)]);
        let mut t = Table::new("rates", s);
        t.push(vec![Value::Int(1)]).unwrap();
    }

    #[test]
    fn resolve_qualified_and_bare() {
        let s = schema().qualified("r1");
        assert_eq!(s.resolve(Some("r1"), "revenue"), Some(1));
        assert_eq!(s.resolve(None, "revenue"), Some(1));
        assert_eq!(s.resolve(Some("r2"), "revenue"), None);
        assert_eq!(s.resolve(None, "bogus"), None);
    }

    #[test]
    fn resolve_ambiguous_is_none() {
        let s = schema().qualified("a").join(&schema().qualified("b"));
        assert_eq!(s.resolve(None, "cname"), None);
        assert_eq!(s.resolve(Some("b"), "cname"), Some(3));
    }

    #[test]
    fn qualified_strips_old_prefix() {
        let s = schema().qualified("x").qualified("y");
        assert_eq!(s.columns[0].name, "y.cname");
    }

    #[test]
    fn join_concatenates() {
        let s = schema().join(&Schema::of(&[("expenses", ColumnType::Int)]));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn render_aligns() {
        let t = Table::from_rows(
            "r",
            Schema::of(&[("a", ColumnType::Str), ("b", ColumnType::Int)]),
            vec![vec![Value::str("x"), Value::Int(100)]],
        );
        let out = t.render();
        assert!(out.contains('a') && out.contains("100"));
    }
}
