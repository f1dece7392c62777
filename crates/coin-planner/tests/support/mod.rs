//! Test-only support for the fetch-stage suites: a [`Source`] decorator
//! that injects latency and faults and records what the scheduler did to
//! it, and the paper's Figure-2 sources behind it. Not public API.
#![allow(dead_code)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use coin_planner::Dictionary;
use coin_rel::{CancelToken, Catalog, ColumnType, Schema, Table, Value};
use coin_sql::Select;
use coin_wrapper::{
    figure2_rates_source, Capabilities, CostParams, RelationalSource, SimWeb, Source, SourceError,
    SourceRef,
};

/// How an [`Injected`] source spends time before answering.
#[derive(Clone, Copy)]
pub enum Latency {
    /// Answer at once.
    None,
    /// Block off the CPU, as a remote source does.
    Sleep(Duration),
    /// Burn CPU, as an in-process source over a large table does.
    Spin(Duration),
}

/// What a test sees of, and does to, one [`Injected`] source.
#[derive(Default)]
pub struct Probe {
    /// Fail every query with `SourceError::Unsupported("<name> injected")`.
    pub fail: AtomicBool,
    /// Panic in every query with `"<name> injected panic"`.
    pub panic: AtomicBool,
    /// Queries begun.
    pub calls: AtomicUsize,
    /// Queries begun and not yet returned or unwound.
    pub in_flight: AtomicUsize,
    threads: Mutex<Vec<ThreadId>>,
}

impl Probe {
    /// The thread each query ran on, in start order.
    pub fn threads(&self) -> Vec<ThreadId> {
        self.threads.lock().unwrap().clone()
    }
}

/// A `Source` decorator: same name, tables, capabilities and answers as the
/// source it wraps, with latency and faults injected around each query.
/// The capabilities can be replaced too.
pub struct Injected {
    inner: SourceRef,
    latency: Latency,
    cancel: Option<CancelToken>,
    caps: Option<Capabilities>,
    probe: Arc<Probe>,
}

impl Injected {
    pub fn new(inner: SourceRef, latency: Latency) -> Injected {
        Injected {
            inner,
            latency,
            cancel: None,
            caps: None,
            probe: Arc::default(),
        }
    }

    pub fn latency(mut self, latency: Latency) -> Injected {
        self.latency = latency;
        self
    }

    /// Cancel `token` whenever this source is queried.
    pub fn cancelling(mut self, token: CancelToken) -> Injected {
        self.cancel = Some(token);
        self
    }

    /// Report `caps` instead of the wrapped source's capability record.
    pub fn with_capabilities(mut self, caps: Capabilities) -> Injected {
        self.caps = Some(caps);
        self
    }

    pub fn probe(&self) -> Arc<Probe> {
        Arc::clone(&self.probe)
    }
}

/// Decrements on return *and* on unwind.
struct InFlight<'a>(&'a AtomicUsize);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, SeqCst);
    }
}

impl Source for Injected {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tables(&self) -> Vec<(String, Schema)> {
        self.inner.tables()
    }

    fn capabilities(&self) -> &Capabilities {
        self.caps
            .as_ref()
            .unwrap_or_else(|| self.inner.capabilities())
    }

    fn execute_select(&self, select: &Select) -> Result<Table, SourceError> {
        let probe = &*self.probe;
        probe.calls.fetch_add(1, SeqCst);
        probe.in_flight.fetch_add(1, SeqCst);
        let _in_flight = InFlight(&probe.in_flight);
        probe
            .threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        if let Some(token) = &self.cancel {
            token.cancel();
        }
        match self.latency {
            Latency::None => {}
            Latency::Sleep(d) => std::thread::sleep(d),
            Latency::Spin(d) => {
                let until = Instant::now() + d;
                while Instant::now() < until {
                    std::hint::spin_loop();
                }
            }
        }
        if probe.panic.load(SeqCst) {
            panic!("{} injected panic", self.name());
        }
        if probe.fail.load(SeqCst) {
            return Err(SourceError::Unsupported(format!(
                "{} injected",
                self.name()
            )));
        }
        self.inner.execute_select(select)
    }

    fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    fn estimated_cardinality(&self, table: &str) -> Option<usize> {
        self.inner.estimated_cardinality(table)
    }
}

/// The Figure 2 setting as three autonomous sources — the databases
/// `worldscope` (`r1`) and `disclosure` (`r2`) and the ancillary
/// exchange-rate web service `forex` (`r3`) — each passed through
/// `decorate` before it is registered.
pub fn figure2_dictionary(mut decorate: impl FnMut(SourceRef) -> SourceRef) -> Dictionary {
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
    let sources: [SourceRef; 3] = [
        Arc::new(RelationalSource::new(
            "worldscope",
            Catalog::new().with_table(r1),
        )),
        Arc::new(
            RelationalSource::new("disclosure", Catalog::new().with_table(r2)).with_cost(
                CostParams {
                    latency: 20.0,
                    per_tuple: 0.2,
                },
            ),
        ),
        Arc::new(figure2_rates_source(&SimWeb::new())),
    ];
    let mut dict = Dictionary::new();
    for source in sources {
        dict.register(decorate(source)).unwrap();
    }
    dict
}

/// [`figure2_dictionary`] with every source behind an [`Injected`] of the
/// given latency; the probes are keyed by source name.
pub fn injected_figure2(latency: Latency) -> (Dictionary, Probes) {
    injected_figure2_with(latency, |injected| injected)
}

/// [`injected_figure2`], each decorator passed through `adjust` first.
pub fn injected_figure2_with(
    latency: Latency,
    adjust: impl Fn(Injected) -> Injected,
) -> (Dictionary, Probes) {
    let mut probes = Probes::default();
    let dict = figure2_dictionary(|source| {
        let injected = adjust(Injected::new(source, latency));
        probes.watch(&injected);
        Arc::new(injected)
    });
    (dict, probes)
}

/// The probes of a deployment's decorators, by source name.
#[derive(Default)]
pub struct Probes(Vec<(String, Arc<Probe>)>);

impl Probes {
    pub fn watch(&mut self, injected: &Injected) {
        self.0.push((injected.name().to_owned(), injected.probe()));
    }

    pub fn of(&self, source: &str) -> &Probe {
        let (_, probe) = (self.0.iter())
            .find(|(name, _)| name == source)
            .expect("a watched source");
        probe
    }

    pub fn all(&self) -> impl Iterator<Item = &Probe> {
        self.0.iter().map(|(_, probe)| &**probe)
    }
}

/// The mediated Figure-2 Q1 — what `coin-core` rewrites
/// `SELECT r1.cname, r1.revenue FROM r1, r2 WHERE r1.cname = r2.cname AND
/// r1.revenue > r2.expenses` into for a USD, scale-factor-1 receiver: one
/// branch per way `r1`'s context can differ from the receiver's. All three
/// read the same `r2` projection; two look rates up in `r3`, one of them
/// for no currency at all.
pub const MEDIATED_Q1: &str = "\
    SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r2, r3 \
    WHERE r1.currency = 'JPY' AND r1.cname = r2.cname \
    AND r3.fromCur = r1.currency AND r3.toCur = 'USD' \
    AND r1.revenue * 1000 * r3.rate > r2.expenses \
    UNION \
    SELECT r1.cname, r1.revenue FROM r1, r2 \
    WHERE r1.currency = 'USD' AND r1.cname = r2.cname AND r1.revenue > r2.expenses \
    UNION \
    SELECT r1.cname, r1.revenue * r3.rate FROM r1, r2, r3 \
    WHERE r1.currency <> 'JPY' AND r1.currency <> 'USD' AND r1.cname = r2.cname \
    AND r3.fromCur = r1.currency AND r3.toCur = 'USD' \
    AND r1.revenue * r3.rate > r2.expenses";
