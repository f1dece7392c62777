//! The deployments the workloads query, built from the program's public
//! constructors out of rows this file generates from the seed — so the
//! oracle in `workload.rs` knows every raw value without asking the
//! mediator — with every source optionally behind a [`Decorated`] wrapper.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use coin_core::{CoinSystem, ContextTheory, Conversion, Elevation, ModifierSpec};
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_sql::Select;
use coin_wrapper::{
    figure2_rates_source, Capabilities, RelationalSource, SimWeb, Source, SourceError,
};

use crate::trace::{Name, Tracer};

/// splitmix64: the benchmark's own generator, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`: clients and tables each
    /// draw from their own.
    pub fn lane(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Counters a decorator keeps for the traced run.
#[derive(Debug, Default)]
pub struct FetchCounters {
    pub calls: AtomicU64,
    pub rows: AtomicU64,
}

/// How sources are wrapped in a deployment.
#[derive(Clone, Default)]
pub struct Decoration {
    /// Sleep this long in every `execute_select`, making the planner's
    /// simulated `comm_cost` wall-clock.
    pub delay: Duration,
    /// Record a span and counts per `execute_select`.
    pub trace: Option<(Arc<Tracer>, Arc<FetchCounters>)>,
}

impl Decoration {
    fn is_noop(&self) -> bool {
        self.delay.is_zero() && self.trace.is_none()
    }
}

/// A `Source` decorator: same name, tables, capabilities and answers as the
/// source it wraps; adds a fixed delay and/or a span around each query.
pub struct Decorated {
    inner: Box<dyn Source>,
    decoration: Decoration,
}

impl Source for Decorated {
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
        let open = self
            .decoration
            .trace
            .as_ref()
            .map(|(tracer, _)| tracer.begin(Name::WrapperFetch));
        if !self.decoration.delay.is_zero() {
            std::thread::sleep(self.decoration.delay);
        }
        let result = self.inner.execute_select(select);
        if let (Some(open), Some((tracer, counters))) = (open, &self.decoration.trace) {
            tracer.end(open, None);
            counters.calls.fetch_add(1, Relaxed);
            if let Ok(t) = &result {
                counters.rows.fetch_add(t.rows.len() as u64, Relaxed);
            }
        }
        result
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn estimated_cardinality(&self, table: &str) -> Option<usize> {
        self.inner.estimated_cardinality(table)
    }
}

fn add_source(sys: &mut CoinSystem, source: impl Source + 'static, decoration: &Decoration) {
    let added = if decoration.is_noop() {
        sys.add_source(source)
    } else {
        sys.add_source(Decorated {
            inner: Box::new(source),
            decoration: decoration.clone(),
        })
    };
    added.expect("deployment sources have unique names");
}

fn context(name: &str, currency: ModifierSpec, scale: ModifierSpec) -> ContextTheory {
    ContextTheory::new(name)
        .set("companyFinancials", "currency", currency)
        .set("companyFinancials", "scaleFactor", scale)
}

/// The receiver's context in every deployment: US dollars, scale factor 1.
pub const RECEIVER: &str = "c_recv";

/// The paper's Figure-2 deployment, assembled exactly as
/// `coin_core::fixtures::figure2_system` assembles it but through public
/// constructors, so its sources can sit behind a [`Decorated`] wrapper
/// (`figure2_matches_the_fixture` in the tests holds the two together).
pub fn figure2(decoration: &Decoration) -> CoinSystem {
    let (domain, conversions) = coin_core::model::figure2_domain();
    let mut sys = CoinSystem::new(domain);
    for (modifier, conversion) in conversions.iter() {
        sys.add_conversion(modifier, conversion.clone())
            .expect("figure-2 conversions are valid");
    }
    let r1 = Table::from_rows(
        "r1",
        Schema::of(&[
            ("cname", ColumnType::Str),
            ("revenue", ColumnType::Int),
            ("currency", ColumnType::Str),
        ]),
        vec![
            vec![
                Value::str("IBM"),
                Value::Int(100_000_000),
                Value::str("USD"),
            ],
            vec![Value::str("NTT"), Value::Int(1_000_000), Value::str("JPY")],
        ],
    );
    let r2 = Table::from_rows(
        "r2",
        Schema::of(&[("cname", ColumnType::Str), ("expenses", ColumnType::Int)]),
        vec![
            vec![Value::str("IBM"), Value::Int(1_500_000_000)],
            vec![Value::str("NTT"), Value::Int(5_000_000)],
        ],
    );
    add_source(
        &mut sys,
        RelationalSource::new("worldscope", Catalog::new().with_table(r1)),
        decoration,
    );
    add_source(
        &mut sys,
        RelationalSource::new("disclosure", Catalog::new().with_table(r2)),
        decoration,
    );
    add_source(&mut sys, figure2_rates_source(&SimWeb::new()), decoration);

    let contexts = [
        context(
            "c_src1",
            ModifierSpec::from_attribute("currency"),
            ModifierSpec::if_attr_eq(
                "currency",
                "JPY",
                ModifierSpec::constant(1000i64),
                ModifierSpec::constant(1i64),
            ),
        ),
        context(
            "c_src2",
            ModifierSpec::constant("USD"),
            ModifierSpec::constant(1i64),
        ),
        context(
            RECEIVER,
            ModifierSpec::constant("USD"),
            ModifierSpec::constant(1i64),
        ),
    ];
    for ctx in contexts {
        sys.add_context(ctx).expect("figure-2 contexts are valid");
    }
    let elevations = [
        Elevation::new("r1", "c_src1")
            .column("cname", "companyName")
            .column("revenue", "companyFinancials")
            .column("currency", "currencyType"),
        Elevation::new("r2", "c_src2")
            .column("cname", "companyName")
            .column("expenses", "companyFinancials"),
        Elevation::new("r3", RECEIVER)
            .column("fromCur", "currencyType")
            .column("toCur", "currencyType")
            .column("rate", "exchangeRate"),
    ];
    for e in elevations {
        sys.add_elevation(e).expect("figure-2 elevations are valid");
    }
    sys
}

/// Currency and US-dollar rate of synthetic source `i` (cycling).
const CURRENCIES: [(&str, f64); 5] = [
    ("USD", 1.0),
    ("JPY", 0.0096),
    ("EUR", 1.18),
    ("GBP", 1.64),
    ("SGD", 0.70),
];
const SCALES: [i64; 3] = [1, 1000, 1_000_000];
/// Raw amounts are drawn uniformly from `1..=MAX_AMOUNT`.
pub const MAX_AMOUNT: u64 = 1_000_000;

/// What the benchmark knows about one synthetic source `src<i>` exporting
/// `fin<i>(cname, amount)`: its context and every raw amount. Row `r` of
/// every source is company `company<r>`.
#[derive(Debug, Clone)]
pub struct SourceFacts {
    pub currency: &'static str,
    /// Receiver units per source unit of `currency`.
    pub usd_rate: f64,
    pub scale: i64,
    pub amounts: Vec<i64>,
}

impl SourceFacts {
    /// The amount of row `r` in the receiver's context, converted by hand:
    /// raw × scale factor × exchange rate into dollars.
    pub fn converted(&self, r: usize) -> f64 {
        self.amounts[r] as f64 * self.scale as f64 * self.usd_rate
    }
}

/// A synthetic deployment and the facts its oracle needs.
pub struct Synthetic {
    pub system: CoinSystem,
    pub sources: Vec<SourceFacts>,
}

fn rates_table(name: &str) -> Table {
    let mut t = Table::new(
        name,
        Schema::of(&[
            ("fromCur", ColumnType::Str),
            ("toCur", ColumnType::Str),
            ("rate", ColumnType::Float),
        ]),
    );
    for (cur, rate) in CURRENCIES.iter().skip(1) {
        t.push(vec![
            Value::str(cur),
            Value::str("USD"),
            Value::Float(*rate),
        ])
        .expect("row matches schema");
        t.push(vec![
            Value::str("USD"),
            Value::str(cur),
            Value::Float(1.0 / rate),
        ])
        .expect("row matches schema");
    }
    t
}

fn rates_elevation(relation: &str) -> Elevation {
    Elevation::new(relation, RECEIVER)
        .column("fromCur", "currencyType")
        .column("toCur", "currencyType")
        .column("rate", "exchangeRate")
}

/// The currency conversion looking rates up in `relation`.
pub fn currency_lookup(relation: &str) -> Conversion {
    Conversion::Lookup {
        relation: relation.into(),
        from_col: "fromCur".into(),
        to_col: "toCur".into(),
        factor_col: "rate".into(),
    }
}

/// `n_sources` financial databases of `rows_per` rows each, every one in a
/// context of its own (currency and scale factor cycle with the index, as
/// in `coin_core::fixtures::synthetic_system`), a rates relation `rates`
/// and — when `second_rates` — an identical `rates_b` for the
/// answer-preserving `replace_conversion` of `compile_churn`.
pub fn synthetic(
    n_sources: usize,
    rows_per: usize,
    seed: u64,
    second_rates: bool,
    decoration: &Decoration,
) -> Synthetic {
    let (domain, _) = coin_core::model::figure2_domain();
    let mut sys = CoinSystem::new(domain);
    sys.add_conversion("scaleFactor", Conversion::Ratio)
        .expect("fresh conversion");
    sys.add_conversion("currency", currency_lookup("rates"))
        .expect("fresh conversion");
    sys.add_context(context(
        RECEIVER,
        ModifierSpec::constant("USD"),
        ModifierSpec::constant(1i64),
    ))
    .expect("fresh context");

    add_source(
        &mut sys,
        RelationalSource::new("forex", Catalog::new().with_table(rates_table("rates"))),
        decoration,
    );
    sys.add_elevation(rates_elevation("rates"))
        .expect("fresh elevation");
    if second_rates {
        add_source(
            &mut sys,
            RelationalSource::new("forex_b", Catalog::new().with_table(rates_table("rates_b"))),
            decoration,
        );
        sys.add_elevation(rates_elevation("rates_b"))
            .expect("fresh elevation");
    }

    let mut sources = Vec::with_capacity(n_sources);
    for i in 0..n_sources {
        let (currency, usd_rate) = CURRENCIES[i % CURRENCIES.len()];
        let scale = SCALES[i % SCALES.len()];
        let mut rng = Rng::lane(seed, i as u64);
        let amounts: Vec<i64> = (0..rows_per)
            .map(|_| 1 + rng.below(MAX_AMOUNT) as i64)
            .collect();

        let table = format!("fin{i}");
        // Every table owns its strings, as every real source would: shared
        // `Arc<str>` names would have two concurrent queries over different
        // tables fight for the same reference counts.
        let rows = amounts
            .iter()
            .enumerate()
            .map(|(r, a)| vec![Value::str(&format!("company{r}")), Value::Int(*a)])
            .collect();
        let t = Table::from_rows(
            &table,
            Schema::of(&[("cname", ColumnType::Str), ("amount", ColumnType::Int)]),
            rows,
        );
        add_source(
            &mut sys,
            RelationalSource::new(&format!("src{i}"), Catalog::new().with_table(t)),
            decoration,
        );
        let ctx = format!("c_src{i}");
        sys.add_context(context(
            &ctx,
            ModifierSpec::constant(currency),
            ModifierSpec::constant(scale),
        ))
        .expect("fresh context");
        sys.add_elevation(
            Elevation::new(&table, &ctx)
                .column("cname", "companyName")
                .column("amount", "companyFinancials"),
        )
        .expect("fresh elevation");
        sources.push(SourceFacts {
            currency,
            usd_rate,
            scale,
            amounts,
        });
    }
    Synthetic {
        system: sys,
        sources,
    }
}

/// A context no query mentions, for `compile_churn`'s `add_context`
/// administration: registering it must evict no cached plan.
pub fn unrelated_context(serial: u64) -> ContextTheory {
    context(
        &format!("c_extra{serial}"),
        ModifierSpec::constant("EUR"),
        ModifierSpec::constant(1000i64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_and_seed_sensitive() {
        let a = synthetic(3, 50, 11, false, &Decoration::default());
        let b = synthetic(3, 50, 11, false, &Decoration::default());
        let c = synthetic(3, 50, 12, false, &Decoration::default());
        for i in 0..3 {
            assert_eq!(a.sources[i].amounts, b.sources[i].amounts);
            assert_ne!(a.sources[i].amounts, c.sources[i].amounts);
            assert!(a.sources[i]
                .amounts
                .iter()
                .all(|v| (1..=MAX_AMOUNT as i64).contains(v)));
        }
        // Sources draw from independent lanes.
        assert_ne!(a.sources[0].amounts, a.sources[1].amounts);
        assert_eq!((a.sources[1].currency, a.sources[1].scale), ("JPY", 1000));
        assert_eq!(
            a.sources[1].converted(0),
            a.sources[1].amounts[0] as f64 * 9.6
        );
    }

    #[test]
    fn figure2_matches_the_fixture() {
        let mine = figure2(&Decoration::default());
        let theirs = coin_core::fixtures::figure2_system();
        assert_eq!(mine.dictionary().listing(), theirs.dictionary().listing());
        assert_eq!(mine.axiom_count(), theirs.axiom_count());
        for sql in crate::workload::FIGURE2_MIX {
            let (a, b) = (
                mine.query(sql, RECEIVER).unwrap(),
                theirs.query(sql, RECEIVER).unwrap(),
            );
            assert_eq!(a.mediated.query.to_string(), b.mediated.query.to_string());
            assert_eq!(a.table.rows, b.table.rows);
            assert_eq!(a.stats.remote_queries, b.stats.remote_queries);
        }
    }

    #[test]
    fn decorated_source_answers_like_the_source_it_wraps() {
        let counters = Arc::new(FetchCounters::default());
        let tracer = Arc::new(Tracer::new());
        let plain = figure2(&Decoration::default());
        let wrapped = figure2(&Decoration {
            delay: Duration::from_micros(50),
            trace: Some((Arc::clone(&tracer), Arc::clone(&counters))),
        });
        let q1 = crate::workload::FIGURE2_MIX[3];
        let (a, b) = (
            plain.query(q1, RECEIVER).unwrap(),
            wrapped.query(q1, RECEIVER).unwrap(),
        );
        assert_eq!(a.table.rows, b.table.rows);
        assert_eq!(
            a.mediated.query.to_string(),
            b.mediated.query.to_string(),
            "decoration must not change planning inputs"
        );
        assert_eq!(counters.calls.load(Relaxed), b.stats.remote_queries as u64);
        assert_eq!(counters.rows.load(Relaxed), b.stats.rows_shipped as u64);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), b.stats.remote_queries);
        assert!(spans
            .iter()
            .all(|s| s.name == Name::WrapperFetch && s.duration_ns() >= 50_000));
    }
}
