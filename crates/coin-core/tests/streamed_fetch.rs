//! A branch's largest fetch streamed into the pipeline: the first mediated
//! row leaves while the source has shipped almost nothing, and once the
//! answer is drained its communication statistics are the ones staging the
//! fetch whole gives — counted here, never timed.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;

use coin_core::fixtures::figure2_system_with;
use coin_core::CoinSystem;
use coin_planner::ExecStats;
use coin_rel::exec::ValuesScan;
use coin_rel::{BoxOp, Catalog, ColumnType, ExecError, Operator, Row, Schema, Table, Value};
use coin_sql::Select;
use coin_wrapper::{Capabilities, RelationalSource, Source, SourceError, SourceRef};

const BIG: usize = 50_000;
const SQL: &str = "SELECT r1.cname, r1.revenue FROM r1";

/// What one source was asked and shipped.
#[derive(Default)]
struct Counts {
    calls: AtomicUsize,
    rows: AtomicUsize,
}

/// A source decorator that counts queries and the rows that leave the
/// source: all at once for a whole table, one by one for a stream. With
/// `stream` off it answers a stream from a whole table, as a source that
/// implements only `execute_select` does.
struct Counted {
    inner: SourceRef,
    stream: bool,
    counts: Arc<Counts>,
}

impl Source for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<(String, Schema)> {
        self.inner.tables()
    }

    fn capabilities(&self) -> &Capabilities {
        self.inner.capabilities()
    }

    fn execute_select(&self, select: &Select) -> Result<Table, SourceError> {
        let table = self.inner.execute_select(select)?;
        self.counts.calls.fetch_add(1, SeqCst);
        self.counts.rows.fetch_add(table.rows.len(), SeqCst);
        Ok(table)
    }

    fn execute_stream(&self, select: &Select) -> Result<(Schema, BoxOp), SourceError> {
        if !self.stream {
            let table = self.execute_select(select)?;
            let scan = ValuesScan::new(table.schema.clone(), table.rows);
            return Ok((table.schema, Box::new(scan)));
        }
        let (schema, rows) = self.inner.execute_stream(select)?;
        self.counts.calls.fetch_add(1, SeqCst);
        let counts = Arc::clone(&self.counts);
        Ok((schema, Box::new(Counting { rows, counts })))
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn estimated_cardinality(&self, table: &str) -> Option<usize> {
        self.inner.estimated_cardinality(table)
    }
}

struct Counting {
    rows: BoxOp,
    counts: Arc<Counts>,
}

impl Operator for Counting {
    fn schema(&self) -> &Schema {
        self.rows.schema()
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        let row = self.rows.next()?;
        if row.is_some() {
            self.counts.rows.fetch_add(1, SeqCst);
        }
        Ok(row)
    }
}

/// Figure 2 with `r1` grown to [`BIG`] companies reporting in yen, so the
/// JPY case joins a 50k-row fetch to a one-row rate lookup; every source
/// behind a [`Counted`].
fn big_figure2(stream: bool) -> (CoinSystem, Vec<(String, Arc<Counts>)>) {
    let r1 = Table::from_rows(
        "r1",
        Schema::of(&[
            ("cname", ColumnType::Str),
            ("revenue", ColumnType::Int),
            ("currency", ColumnType::Str),
        ]),
        (0..BIG)
            .map(|i| {
                vec![
                    Value::str(&format!("c{i}")),
                    Value::Int(i as i64),
                    Value::str("JPY"),
                ]
            })
            .collect(),
    );
    let big: SourceRef = Arc::new(RelationalSource::new(
        "worldscope",
        Catalog::new().with_table(r1),
    ));
    let mut counts = Vec::new();
    let sys = figure2_system_with(|source| {
        let inner = if source.name() == "worldscope" {
            Arc::clone(&big)
        } else {
            source
        };
        let counted = Counted {
            inner,
            stream,
            counts: Arc::default(),
        };
        counts.push((counted.name().to_owned(), Arc::clone(&counted.counts)));
        counted
    });
    (sys, counts)
}

/// The statistics the counted sources imply since `before`: one remote
/// query per call, every row that left a source, and the cost model's
/// latency per query plus per-tuple charge per row.
fn counted_stats(
    sys: &CoinSystem,
    counts: &[(String, Arc<Counts>)],
    before: &[(usize, usize)],
) -> ExecStats {
    let mut stats = ExecStats::default();
    for ((name, c), (calls0, rows0)) in counts.iter().zip(before) {
        let cost = sys.dictionary().source(name).unwrap().capabilities().cost;
        let calls = c.calls.load(SeqCst) - calls0;
        let rows = c.rows.load(SeqCst) - rows0;
        stats.remote_queries += calls;
        stats.rows_shipped += rows;
        stats.comm_cost += calls as f64 * cost.latency + rows as f64 * cost.per_tuple;
    }
    stats
}

fn snapshot(counts: &[(String, Arc<Counts>)]) -> Vec<(usize, usize)> {
    (counts.iter())
        .map(|(_, c)| (c.calls.load(SeqCst), c.rows.load(SeqCst)))
        .collect()
}

fn assert_same_communication(got: &ExecStats, expected: &ExecStats, what: &str) {
    assert_eq!(got.remote_queries, expected.remote_queries, "{what}");
    assert_eq!(got.rows_shipped, expected.rows_shipped, "{what}");
    let gap = (got.comm_cost - expected.comm_cost).abs();
    assert!(
        gap < 1e-6 * expected.comm_cost,
        "{what}: {got:?} against {expected:?}"
    );
}

#[test]
fn the_first_row_leaves_before_the_big_fetch_is_shipped() {
    let (sys, counts) = big_figure2(true);
    let worldscope = &counts.iter().find(|(n, _)| n == "worldscope").unwrap().1;
    let mut rows = sys.query_stream(SQL, "c_recv", None).unwrap();
    let first = rows.next().unwrap().expect("a first row");
    assert_eq!(first[0], Value::str("c0"));
    let shipped = worldscope.rows.load(SeqCst);
    assert!(
        shipped < BIG / 100,
        "{shipped} of {BIG} rows shipped before the first row left"
    );
    // Only the remote queries are counted while the stream is open.
    assert!(rows.stats().rows_shipped < BIG, "{:?}", rows.stats());

    let mut n = 1;
    while rows.next().unwrap().is_some() {
        n += 1;
    }
    assert_eq!(n, BIG);
    assert_eq!(worldscope.rows.load(SeqCst), BIG);
    assert!(rows.stats().rows_shipped > BIG, "{:?}", rows.stats());
}

/// `query` and a drained `query_stream` report what the sources were asked
/// and shipped, whether the big fetch was streamed or arrived whole.
#[test]
fn drained_statistics_equal_the_staged_fetchs() {
    let mut reports = Vec::new();
    for stream in [true, false] {
        let (sys, counts) = big_figure2(stream);
        let before = snapshot(&counts);
        let answer = sys.query(SQL, "c_recv").unwrap();
        assert_eq!(answer.table.rows.len(), BIG);
        let expected = counted_stats(&sys, &counts, &before);
        assert_same_communication(&answer.stats, &expected, "query");

        let before = snapshot(&counts);
        let mut rows = sys.query_stream(SQL, "c_recv", None).unwrap();
        while rows.next().unwrap().is_some() {}
        assert!(rows.finished());
        let expected = counted_stats(&sys, &counts, &before);
        assert_same_communication(rows.stats(), &expected, "query_stream");
        reports.push(answer.stats);
    }
    assert_same_communication(&reports[0], &reports[1], "streamed against staged");
}
