//! The schema dictionary.
//!
//! The multi-database access engine is "a front-end of dictionary and query
//! services to the multiple wrapped sources", whose first function is
//! "serving schema information such as names and attribute types of the
//! table\[s\] located in the various sources" (paper §2). The [`Dictionary`]
//! is that service: it registers sources, resolves table names (optionally
//! source-qualified, `src1.r1`) and serves schemas to the normalizer, the
//! mediator and clients.
//!
//! A source's table listing is fixed for its lifetime (see
//! [`Source::tables`]), so registration reads it once into an index by
//! table name; every later lookup is a hash probe that costs the same
//! however many sources are registered.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coin_rel::{BoxOp, Schema, Table};
use coin_sql::normalize::SchemaLookup;
use coin_sql::Select;
use coin_wrapper::{Source, SourceError, SourceRef};

/// Dictionary errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DictError {
    DuplicateSource(String),
    AmbiguousTable(String),
    UnknownTable(String),
    UnknownSource(String),
}

impl std::fmt::Display for DictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DictError::DuplicateSource(s) => write!(f, "source {s} already registered"),
            DictError::AmbiguousTable(t) => {
                write!(
                    f,
                    "table {t} exists in multiple sources; qualify as source.table"
                )
            }
            DictError::UnknownTable(t) => write!(f, "no source exports table {t}"),
            DictError::UnknownSource(s) => write!(f, "unknown source {s}"),
        }
    }
}

impl std::error::Error for DictError {}

/// A source whose fetches take at least this long on average has the
/// fetching thread's CPU clock read around each of them, so that waiting is
/// told apart from computing. Reading it takes system calls; faster
/// sources never pay them (their wait is at most their wall time, which is
/// then too small to matter to the scheduler in `crate::exec`).
const MEASURE_FROM_NS: u64 = 125_000;

/// A registered source and what its fetches have been observed to cost.
/// Clones of a [`Dictionary`] share the observations.
#[derive(Clone)]
pub(crate) struct Registered {
    pub(crate) source: SourceRef,
    /// The tables the source exports, in the order it lists them.
    tables: Arc<[String]>,
    timing: Arc<FetchTiming>,
}

/// What a source's fetches have cost lately, in nanoseconds. Updated with
/// plain loads and stores: concurrent fetches may lose a sample, which an
/// estimate can afford.
#[derive(Default)]
struct FetchTiming {
    /// Wall time of a fetch: a decayed mean.
    wall_ns: AtomicU64,
    /// The part of it the fetching thread spent off the CPU: a decayed
    /// *floor*, which drops to a lower sample at once and creeps up to
    /// higher ones. A source that answers over a network keeps every fetch
    /// waiting; a computing one is only kept off the CPU when the machine
    /// is busy, which is exactly when overlapping it would hurt.
    wait_ns: AtomicU64,
}

impl FetchTiming {
    fn record(&self, wall: u64, wait: u64) {
        let mean = self.wall_ns.load(Relaxed);
        self.wall_ns.store(mean - mean / 4 + wall / 4, Relaxed);
        let floor = self.wait_ns.load(Relaxed);
        let risen = floor + wait.saturating_sub(floor) / 16;
        self.wait_ns.store(wait.min(risen), Relaxed);
    }
}

impl Registered {
    /// Run one remote query, recording how long it took and how much of
    /// that was waiting.
    pub(crate) fn fetch(&self, select: &Select) -> Result<Table, SourceError> {
        self.timed(|| self.source.execute_select(select))
    }

    /// Open one remote query as a row stream ([`Source::execute_stream`]),
    /// timed as [`Registered::fetch`] is: what the source does before its
    /// first row is what a fetch from it waits for.
    pub(crate) fn open(&self, select: &Select) -> Result<(Schema, BoxOp), SourceError> {
        self.timed(|| self.source.execute_stream(select))
    }

    /// Run `call`, recording how long it took and how much of that was
    /// waiting.
    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let timing = &*self.timing;
        let before = (timing.wall_ns.load(Relaxed) >= MEASURE_FROM_NS).then(ThreadUsage::now);
        let started = Instant::now();
        let result = call();
        let wall = started.elapsed().as_nanos() as u64;
        let wait = match before {
            Some(before) => before.waited(wall),
            // Unmeasured: worth at most what turns measuring on.
            None => wall.min(MEASURE_FROM_NS),
        };
        timing.record(wall, wait);
        result
    }

    /// The time a fetch from this source can be expected to wait.
    pub(crate) fn wait_ns(&self) -> u64 {
        self.timing.wait_ns.load(Relaxed)
    }
}

/// A reading of the calling thread's CPU clock and of how often it has
/// given the CPU up of its own accord (to sleep, or to block on I/O or a
/// lock).
struct ThreadUsage {
    cpu_ns: u64,
    blocks: u64,
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
impl ThreadUsage {
    /// Two system calls, bound straight from libc like the pollers in
    /// `coin-server`: `clock_gettime` because `getrusage` reports CPU time
    /// only as of the last scheduler tick, `getrusage` for the switch count.
    fn now() -> ThreadUsage {
        use std::os::raw::{c_int, c_long};

        /// `struct timespec` / `struct timeval`: two 64-bit longs here.
        #[repr(C)]
        #[derive(Default)]
        struct TimePair {
            secs: c_long,
            frac: c_long,
        }
        /// `struct rusage` (Linux).
        #[repr(C)]
        #[derive(Default)]
        struct Rusage {
            ru_utime: TimePair,
            ru_stime: TimePair,
            /// `ru_maxrss` … `ru_nsignals`.
            unused: [c_long; 12],
            ru_nvcsw: c_long,
            ru_nivcsw: c_long,
        }
        const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
        const RUSAGE_THREAD: c_int = 1;
        extern "C" {
            fn clock_gettime(clock: c_int, time: *mut TimePair) -> c_int;
            fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
        }

        let mut cpu = TimePair::default();
        let mut usage = Rusage::default();
        // SAFETY: both are valid, exclusively borrowed structs of the
        // layouts the calls expect, which only write into them; a failing
        // call leaves its struct zeroed.
        unsafe {
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut cpu);
            getrusage(RUSAGE_THREAD, &mut usage);
        }
        ThreadUsage {
            cpu_ns: cpu.secs as u64 * 1_000_000_000 + cpu.frac as u64,
            blocks: usage.ru_nvcsw as u64,
        }
    }

    /// Of the `wall` nanoseconds since this reading, those the thread spent
    /// waiting: none if it never blocked — then whatever kept it off the
    /// CPU was other work on a busy machine, not the source — otherwise
    /// all that it did not compute.
    fn waited(&self, wall: u64) -> u64 {
        let now = ThreadUsage::now();
        if now.blocks == self.blocks {
            return 0;
        }
        wall.saturating_sub(now.cpu_ns.saturating_sub(self.cpu_ns))
    }
}

/// Without per-thread accounting all of a fetch's wall time counts as
/// waiting.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
impl ThreadUsage {
    fn now() -> ThreadUsage {
        ThreadUsage {
            cpu_ns: 0,
            blocks: 0,
        }
    }

    fn waited(&self, wall: u64) -> u64 {
        wall
    }
}

/// One table as one source exports it, read at registration. Cheap to
/// clone, for a dictionary clone that registers a source of its own.
#[derive(Clone)]
struct Export {
    source: SourceRef,
    schema: Arc<Schema>,
    /// The column names without any `binding.` prefix, as the normalizer
    /// resolves them.
    columns: Arc<[String]>,
}

/// The registry of sources and their exported tables.
#[derive(Clone, Default)]
pub struct Dictionary {
    sources: BTreeMap<String, Registered>,
    /// Table name → every source exporting it, in registration order.
    /// Shared by clones until one of them registers a source.
    tables: Arc<HashMap<String, Vec<Export>>>,
}

impl Dictionary {
    pub fn new() -> Dictionary {
        Dictionary::default()
    }

    /// Register a source. Its name must be unique.
    pub fn register(&mut self, source: SourceRef) -> Result<(), DictError> {
        let name = source.name().to_owned();
        if self.sources.contains_key(&name) {
            return Err(DictError::DuplicateSource(name));
        }
        let index = Arc::make_mut(&mut self.tables);
        let mut tables = Vec::new();
        for (table, schema) in source.tables() {
            let columns = schema
                .columns
                .iter()
                .map(|c| {
                    c.name
                        .rsplit_once('.')
                        .map_or(c.name.clone(), |(_, b)| b.to_owned())
                })
                .collect();
            tables.push(table.clone());
            index.entry(table).or_default().push(Export {
                source: Arc::clone(&source),
                schema: Arc::new(schema),
                columns,
            });
        }
        let registered = Registered {
            source,
            tables: tables.into(),
            timing: Arc::default(),
        };
        self.sources.insert(name, registered);
        Ok(())
    }

    /// Convenience: register a concrete source type.
    pub fn register_source<S: Source + 'static>(&mut self, source: S) -> Result<(), DictError> {
        self.register(Arc::new(source))
    }

    pub fn source(&self, name: &str) -> Result<&SourceRef, DictError> {
        self.registered(name).map(|r| &r.source)
    }

    pub(crate) fn registered(&self, name: &str) -> Result<&Registered, DictError> {
        self.sources
            .get(name)
            .ok_or_else(|| DictError::UnknownSource(name.to_owned()))
    }

    /// How long a fetch from this source waits (as opposed to computes): a
    /// decayed floor over the fetches executed through this dictionary or a
    /// clone of it. This is the measured communication cost that decides
    /// whether a wave of fetches overlaps (see `crate::exec`). `None` for
    /// an unknown source; zero until the source has been fetched from.
    pub fn observed_wait(&self, name: &str) -> Option<Duration> {
        let registered = self.sources.get(name)?;
        Some(Duration::from_nanos(registered.wait_ns()))
    }

    pub fn sources(&self) -> impl Iterator<Item = &SourceRef> {
        self.sources.values().map(|r| &r.source)
    }

    pub fn source_names(&self) -> Vec<&str> {
        self.sources.keys().map(String::as_str).collect()
    }

    /// Resolve a table to its owning source. If `source_hint` is given it
    /// must match; otherwise the table name must be unambiguous across
    /// sources.
    pub fn resolve_table(
        &self,
        source_hint: Option<&str>,
        table: &str,
    ) -> Result<&SourceRef, DictError> {
        self.export(source_hint, table).map(|e| &e.source)
    }

    /// Schema of a table (unambiguous or source-qualified).
    pub fn schema_of(&self, source_hint: Option<&str>, table: &str) -> Result<&Schema, DictError> {
        self.export(source_hint, table).map(|e| &*e.schema)
    }

    fn export(&self, source_hint: Option<&str>, table: &str) -> Result<&Export, DictError> {
        let exports = self.tables.get(table).map_or(&[][..], Vec::as_slice);
        if let Some(hint) = source_hint {
            self.registered(hint)?;
            return exports
                .iter()
                .find(|e| e.source.name() == hint)
                .ok_or_else(|| DictError::UnknownTable(format!("{hint}.{table}")));
        }
        match exports {
            [only] => Ok(only),
            [] => Err(DictError::UnknownTable(table.to_owned())),
            _ => Err(DictError::AmbiguousTable(table.to_owned())),
        }
    }

    /// The tables a source exports, in the order it lists them.
    pub fn tables_of(&self, source: &str) -> Result<&[String], DictError> {
        self.registered(source).map(|r| &*r.tables)
    }

    /// Every (source, table, schema) triple — the dictionary listing the
    /// prototype's clients see.
    pub fn listing(&self) -> Vec<(String, String, Schema)> {
        let mut out = Vec::new();
        for (name, registered) in &self.sources {
            for table in registered.tables.iter() {
                let schema = self
                    .schema_of(Some(name), table)
                    .expect("a registered table is indexed");
                out.push((name.clone(), table.clone(), schema.clone()));
            }
        }
        out
    }
}

impl SchemaLookup for Dictionary {
    fn columns_of(&self, table: &str) -> Option<Cow<'_, [String]>> {
        // Accept `source.table` qualified names too.
        let (hint, bare) = match table.split_once('.') {
            Some((s, t)) => (Some(s), t),
            None => (None, table),
        };
        let export = self.export(hint, bare).ok()?;
        Some(Cow::Borrowed(&export.columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coin_rel::{Catalog, ColumnType, Table, Value};
    use coin_wrapper::RelationalSource;

    fn source_with(name: &str, table: &str) -> RelationalSource {
        let t = Table::from_rows(
            table,
            Schema::of(&[("x", ColumnType::Int)]),
            vec![vec![Value::Int(1)]],
        );
        RelationalSource::new(name, Catalog::new().with_table(t))
    }

    #[test]
    fn register_and_resolve() {
        let mut d = Dictionary::new();
        d.register_source(source_with("s1", "t1")).unwrap();
        d.register_source(source_with("s2", "t2")).unwrap();
        assert_eq!(d.resolve_table(None, "t1").unwrap().name(), "s1");
        assert_eq!(d.resolve_table(Some("s2"), "t2").unwrap().name(), "s2");
        assert_eq!(d.source_names(), vec!["s1", "s2"]);
    }

    #[test]
    fn duplicate_source_rejected() {
        let mut d = Dictionary::new();
        d.register_source(source_with("s1", "t1")).unwrap();
        assert_eq!(
            d.register_source(source_with("s1", "t9")).err().unwrap(),
            DictError::DuplicateSource("s1".into())
        );
    }

    #[test]
    fn ambiguous_table_needs_qualifier() {
        let mut d = Dictionary::new();
        d.register_source(source_with("s1", "shared")).unwrap();
        d.register_source(source_with("s2", "shared")).unwrap();
        assert_eq!(
            d.resolve_table(None, "shared").err().unwrap(),
            DictError::AmbiguousTable("shared".into())
        );
        assert_eq!(d.resolve_table(Some("s2"), "shared").unwrap().name(), "s2");
    }

    #[test]
    fn unknown_table_and_source() {
        let d = Dictionary::new();
        assert!(matches!(
            d.resolve_table(None, "zz"),
            Err(DictError::UnknownTable(_))
        ));
        assert!(matches!(d.source("zz"), Err(DictError::UnknownSource(_))));
    }

    #[test]
    fn listing_enumerates_all() {
        let mut d = Dictionary::new();
        d.register_source(source_with("s1", "t1")).unwrap();
        d.register_source(source_with("s2", "t2")).unwrap();
        let l = d.listing();
        assert_eq!(l.len(), 2);
        assert_eq!(l[0].0, "s1");
    }

    #[test]
    fn schema_lookup_for_normalizer() {
        let mut d = Dictionary::new();
        d.register_source(source_with("s1", "t1")).unwrap();
        assert_eq!(d.columns_of("t1").as_deref(), Some(&["x".to_owned()][..]));
        assert_eq!(
            d.columns_of("s1.t1").as_deref(),
            Some(&["x".to_owned()][..])
        );
        assert_eq!(d.columns_of("zz"), None);
    }
}
