//! The uniform source interface.
//!
//! "Wrappers provide a uniform protocol for accessing corresponding sources
//! … they also provide a SQL interface to any source including the
//! Web-sites and deliver answers to the queries in a relational table
//! format" (paper §2). [`Source`] is that protocol: the multi-database
//! access engine talks only to this trait, whether the source is a
//! relational database ([`RelationalSource`]) or a wrapped web service
//! ([`WebSource`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use coin_rel::exec::ValuesScan;
use coin_rel::{BoxOp, Catalog, Schema, Table};
use coin_sql::{BinOp, Expr, Select};

use crate::exec::{WrapError, WrapperExec};
use crate::spec::WrapperSpec;
use crate::web::SimWeb;

/// Cost parameters for a source, used by the planner's cost model:
/// `cost(query) = latency + per_tuple * |result|` (abstract units).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostParams {
    /// Fixed per-query cost (connection + round trip).
    pub latency: f64,
    /// Per-result-tuple transfer cost.
    pub per_tuple: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams {
            latency: 10.0,
            per_tuple: 0.1,
        }
    }
}

/// What a source can do remotely.
#[derive(Debug, Clone, Default)]
pub struct Capabilities {
    /// Can the source evaluate WHERE predicates?
    pub pushdown_select: bool,
    /// Can the source join its own tables in one query?
    pub pushdown_join: bool,
    /// Per-table columns that MUST be bound by equality before the source
    /// can be queried (web binding patterns). Empty vec = no requirement.
    pub bound_columns: BTreeMap<String, Vec<String>>,
    /// Cost parameters.
    pub cost: CostParams,
}

/// Source errors.
#[derive(Debug)]
pub enum SourceError {
    UnknownTable { source: String, table: String },
    MissingBindings { table: String, columns: Vec<String> },
    Wrap(WrapError),
    Engine(coin_rel::EngineError),
    Unsupported(String),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::UnknownTable { source, table } => {
                write!(f, "source {source} has no table {table}")
            }
            SourceError::MissingBindings { table, columns } => {
                write!(
                    f,
                    "table {table} requires bound columns: {}",
                    columns.join(", ")
                )
            }
            SourceError::Wrap(e) => write!(f, "{e}"),
            SourceError::Engine(e) => write!(f, "{e}"),
            SourceError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<WrapError> for SourceError {
    fn from(e: WrapError) -> Self {
        match e {
            WrapError::MissingBindings(columns) => SourceError::MissingBindings {
                table: String::new(),
                columns,
            },
            other => SourceError::Wrap(other),
        }
    }
}

impl From<coin_rel::EngineError> for SourceError {
    fn from(e: coin_rel::EngineError) -> Self {
        SourceError::Engine(e)
    }
}

/// A queryable source with a SQL facade.
pub trait Source: Send + Sync {
    /// The source's registered name.
    fn name(&self) -> &str;

    /// Exported tables with their schemas. The listing is fixed for the
    /// source's lifetime: the dictionary reads it once, when the source is
    /// registered, and answers every later table lookup from that reading.
    fn tables(&self) -> Vec<(String, Schema)>;

    /// Capability record for the planner.
    fn capabilities(&self) -> &Capabilities;

    /// Execute a SELECT whose FROM references only this source's tables.
    fn execute_select(&self, select: &Select) -> Result<Table, SourceError>;

    /// Execute a SELECT as a row stream: the answer's schema and an
    /// operator that yields its rows as they are pulled. The default runs
    /// [`Source::execute_select`] and scans its table, so every source
    /// still answers "in a relational table format" (paper §2); a source
    /// that can produce rows one at a time overrides it.
    ///
    /// Failure contract: an error while opening the stream is returned
    /// here, before any row exists, and fails the whole query as a failed
    /// [`Source::execute_select`] does. An error after the first row is
    /// the operator's `next` returning `Err`; the query's row stream then
    /// fails with it at that point. Rows already pulled may have been
    /// delivered: a materialising caller (`CoinSystem::query`, a `/query`
    /// with `"stream": false`) returns the error and no rows, and a
    /// chunked `/query` response ends without its terminal chunk, so the
    /// client sees a truncated body rather than a short answer.
    fn execute_stream(&self, select: &Select) -> Result<(Schema, BoxOp), SourceError> {
        let table = self.execute_select(select)?;
        let scan = ValuesScan::new(table.schema.clone(), table.rows);
        Ok((table.schema, Box::new(scan)))
    }

    /// Number of queries served so far (communication metric).
    fn query_count(&self) -> usize;

    /// Estimated base cardinality of a table, if the source can tell
    /// (dictionary statistic used by the planner's cost model).
    fn estimated_cardinality(&self, _table: &str) -> Option<usize> {
        None
    }
}

/// Shared handle to a source.
pub type SourceRef = Arc<dyn Source>;

/// A shared handle is itself a source, so a decorator can wrap a
/// [`SourceRef`] and a wrapped or bare handle registers like any source.
impl<S: Source + ?Sized> Source for Arc<S> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn tables(&self) -> Vec<(String, Schema)> {
        (**self).tables()
    }

    fn capabilities(&self) -> &Capabilities {
        (**self).capabilities()
    }

    fn execute_select(&self, select: &Select) -> Result<Table, SourceError> {
        (**self).execute_select(select)
    }

    fn execute_stream(&self, select: &Select) -> Result<(Schema, BoxOp), SourceError> {
        (**self).execute_stream(select)
    }

    fn query_count(&self) -> usize {
        (**self).query_count()
    }

    fn estimated_cardinality(&self, table: &str) -> Option<usize> {
        (**self).estimated_cardinality(table)
    }
}

// ---------------------------------------------------------------------------

/// A relational source: a wrapped database (the prototype's Oracle sources).
pub struct RelationalSource {
    name: String,
    catalog: Catalog,
    caps: Capabilities,
    queries: std::sync::atomic::AtomicUsize,
}

impl RelationalSource {
    pub fn new(name: &str, catalog: Catalog) -> RelationalSource {
        RelationalSource {
            name: name.to_owned(),
            catalog,
            caps: Capabilities {
                pushdown_select: true,
                pushdown_join: true,
                bound_columns: BTreeMap::new(),
                cost: CostParams::default(),
            },
            queries: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    pub fn with_cost(mut self, cost: CostParams) -> RelationalSource {
        self.caps.cost = cost;
        self
    }

    /// Restrict capabilities (the planner tests use it to model a source that
    /// cannot evaluate predicates remotely).
    pub fn with_capabilities(mut self, caps: Capabilities) -> RelationalSource {
        self.caps = caps;
        self
    }
}

impl Source for RelationalSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn tables(&self) -> Vec<(String, Schema)> {
        self.catalog
            .table_names()
            .into_iter()
            .map(|n| (n.to_owned(), self.catalog.get(n).unwrap().schema.clone()))
            .collect()
    }

    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute_select(&self, select: &Select) -> Result<Table, SourceError> {
        self.queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(coin_rel::execute_select(select, &self.catalog)?)
    }

    /// The engine's pipeline over the source's own tables, returned
    /// unpulled: rows are produced as the consumer asks for them.
    fn execute_stream(&self, select: &Select) -> Result<(Schema, BoxOp), SourceError> {
        self.queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Ok(coin_rel::execute_select_stream(select, &self.catalog)?)
    }

    fn query_count(&self) -> usize {
        self.queries.load(std::sync::atomic::Ordering::Relaxed)
    }

    fn estimated_cardinality(&self, table: &str) -> Option<usize> {
        self.catalog.get(table).map(Table::len)
    }
}

// ---------------------------------------------------------------------------

/// A web source: a wrapper specification over the (simulated) web.
pub struct WebSource {
    name: String,
    spec: WrapperSpec,
    web: SimWeb,
    caps: Capabilities,
    queries: std::sync::atomic::AtomicUsize,
}

impl WebSource {
    pub fn new(name: &str, spec: WrapperSpec, web: SimWeb) -> WebSource {
        let mut bound = BTreeMap::new();
        bound.insert(
            spec.relation.clone(),
            spec.bound_columns()
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
        );
        WebSource {
            name: name.to_owned(),
            spec,
            web,
            caps: Capabilities {
                // Web sources answer only parameterized lookups; all other
                // predicates are evaluated by the wrapper locally.
                pushdown_select: false,
                pushdown_join: false,
                bound_columns: bound,
                // Web access is slow: order-of-magnitude above a database.
                cost: CostParams {
                    latency: 100.0,
                    per_tuple: 1.0,
                },
            },
            queries: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    pub fn with_cost(mut self, cost: CostParams) -> WebSource {
        self.caps.cost = cost;
        self
    }

    /// The underlying web (to inspect fetch counts in tests/benches).
    pub fn web(&self) -> &SimWeb {
        &self.web
    }
}

/// Pull `col = 'literal'` bindings out of a WHERE clause for the wrapper.
/// Accepts both bare and table-qualified column references.
fn extract_bindings(select: &Select) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    let Some(w) = &select.where_clause else {
        return out;
    };
    for c in w.conjuncts() {
        if let Expr::Bin(l, BinOp::Eq, r) = c {
            let (col, lit) = match (l.as_ref(), r.as_ref()) {
                (Expr::Column(c), lit) => (c, lit),
                (lit, Expr::Column(c)) => (c, lit),
                _ => continue,
            };
            let text = match lit {
                Expr::Str(s) => s.clone(),
                Expr::Int(i) => i.to_string(),
                Expr::Float(x) => x.to_string(),
                Expr::Bool(b) => b.to_string(),
                _ => continue,
            };
            out.insert(col.column.clone(), text);
        }
    }
    out
}

impl Source for WebSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn tables(&self) -> Vec<(String, Schema)> {
        vec![(self.spec.relation.clone(), self.spec.schema())]
    }

    fn capabilities(&self) -> &Capabilities {
        &self.caps
    }

    fn execute_select(&self, select: &Select) -> Result<Table, SourceError> {
        self.queries
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // The FROM must reference exactly our relation.
        let [table_ref] = select.from.as_slice() else {
            return Err(SourceError::Unsupported(
                "web source answers single-table queries only".into(),
            ));
        };
        if table_ref.table != self.spec.relation {
            return Err(SourceError::UnknownTable {
                source: self.name.clone(),
                table: table_ref.table.clone(),
            });
        }

        let bindings = extract_bindings(select);
        let table = {
            let exec = WrapperExec::new(&self.spec, &self.web);
            exec.run(&bindings).map_err(|e| match e {
                WrapError::MissingBindings(columns) => SourceError::MissingBindings {
                    table: self.spec.relation.clone(),
                    columns,
                },
                other => SourceError::Wrap(other),
            })?
        };

        // Evaluate the full SELECT (projection + any residual predicates)
        // locally over the extracted rows.
        let catalog = Catalog::new().with_table(Table {
            name: self.spec.relation.clone(),
            schema: table.schema.clone(),
            rows: table.rows,
        });
        Ok(coin_rel::execute_select(select, &catalog)?)
    }

    fn query_count(&self) -> usize {
        self.queries.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Build the Figure 2 ancillary exchange-rate source (`r3`) as a WebSource.
pub fn figure2_rates_source(web: &SimWeb) -> WebSource {
    crate::web::mount_exchange_service(
        web,
        "http://forex.example/rate",
        &[
            ("JPY", "USD", 0.0096),
            ("USD", "JPY", 104.0),
            ("EUR", "USD", 1.18),
            ("USD", "EUR", 0.85),
            ("GBP", "USD", 1.64),
            ("SGD", "USD", 0.70),
        ],
    );
    let spec = WrapperSpec::parse(
        r#"
EXPORT r3(fromCur STR BOUND, toCur STR BOUND, rate FLOAT)
START quote "http://forex.example/rate?from=$fromCur&to=$toCur"
PAGE quote MATCH ONE "<td class=\"rate\">(?P<rate>[0-9.eE+-]+)</td>"
"#,
    )
    .expect("figure2 rates spec is valid");
    WebSource::new("forex", spec, web.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use coin_rel::{ColumnType, Value};

    fn parse_select(sql: &str) -> Select {
        match coin_sql::parse_query(sql).unwrap() {
            coin_sql::Query::Select(s) => *s,
            _ => panic!("expected single select"),
        }
    }

    fn r2_source() -> RelationalSource {
        let r2 = Table::from_rows(
            "r2",
            Schema::of(&[("cname", ColumnType::Str), ("expenses", ColumnType::Int)]),
            vec![
                vec![Value::str("IBM"), Value::Int(1_500_000_000)],
                vec![Value::str("NTT"), Value::Int(5_000_000)],
            ],
        );
        RelationalSource::new("disclosure", Catalog::new().with_table(r2))
    }

    #[test]
    fn relational_source_executes() {
        let src = r2_source();
        let t = src
            .execute_select(&parse_select(
                "SELECT cname FROM r2 WHERE expenses > 1000000000",
            ))
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::str("IBM")]]);
        assert_eq!(src.query_count(), 1);
    }

    #[test]
    fn relational_source_lists_tables() {
        let src = r2_source();
        let tables = src.tables();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].0, "r2");
        assert!(src.capabilities().pushdown_select);
    }

    #[test]
    fn web_source_parameterized_lookup() {
        let web = SimWeb::new();
        let src = figure2_rates_source(&web);
        let t = src
            .execute_select(&parse_select(
                "SELECT rate FROM r3 WHERE fromCur = 'JPY' AND toCur = 'USD'",
            ))
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::Float(0.0096)]]);
    }

    #[test]
    fn web_source_requires_bindings() {
        let web = SimWeb::new();
        let src = figure2_rates_source(&web);
        let e = src
            .execute_select(&parse_select("SELECT rate FROM r3"))
            .unwrap_err();
        match e {
            SourceError::MissingBindings { columns, .. } => {
                assert_eq!(columns, vec!["fromCur".to_owned(), "toCur".to_owned()]);
            }
            other => panic!("{other}"),
        }
    }

    #[test]
    fn web_source_applies_residual_predicates() {
        let web = SimWeb::new();
        let src = figure2_rates_source(&web);
        let t = src
            .execute_select(&parse_select(
                "SELECT rate FROM r3 WHERE fromCur = 'JPY' AND toCur = 'USD' AND rate > 1",
            ))
            .unwrap();
        assert!(
            t.rows.is_empty(),
            "rate 0.0096 fails the residual predicate"
        );
    }

    #[test]
    fn web_source_reports_capabilities() {
        let web = SimWeb::new();
        let src = figure2_rates_source(&web);
        let caps = src.capabilities();
        assert!(!caps.pushdown_select);
        assert_eq!(caps.bound_columns["r3"], vec!["fromCur", "toCur"]);
    }

    #[test]
    fn web_source_rejects_foreign_table() {
        let web = SimWeb::new();
        let src = figure2_rates_source(&web);
        assert!(matches!(
            src.execute_select(&parse_select("SELECT x FROM other WHERE x = 1")),
            Err(SourceError::UnknownTable { .. })
        ));
    }

    #[test]
    fn qualified_bindings_extracted() {
        let web = SimWeb::new();
        let src = figure2_rates_source(&web);
        let t = src
            .execute_select(&parse_select(
                "SELECT a.rate FROM r3 a WHERE a.fromCur = 'EUR' AND a.toCur = 'USD'",
            ))
            .unwrap();
        assert_eq!(t.rows, vec![vec![Value::Float(1.18)]]);
    }
}
