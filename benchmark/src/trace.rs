//! Spans recorded from the benchmark's own files, around the calls into each
//! layer's public functions. Nothing inside the program is instrumented.
//!
//! A span is (name, start, end, parent, request). Spans are kept in memory
//! and written as JSON-lines when the run ends. A span's *self time* is its
//! duration minus the part of that interval its direct children cover.

use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span names: `<layer>.<call>`, the layer being the crate the call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Name {
    /// Client side: request written → last body byte read. The root.
    ClientRequest,
    /// The handler call behind `serve_with`, up to the returned response.
    ServerHandle,
    /// Parsing the request's JSON body.
    ServerParseRequest,
    /// `CoinSystem::prepare_with_status` that hit the plan cache.
    CorePrepareHit,
    /// `CoinSystem::prepare_with_status` that compiled.
    CorePrepareMiss,
    /// `PreparedQuery::execute_stream`: staging the fetches and building
    /// the local pipeline.
    PlannerExecuteStream,
    /// `Source::execute_select`, seen by the decorator.
    WrapperFetch,
    /// One pull of the streamed body: a batch of rows, serialized.
    ServerChunk,
    /// `MediatedRows::next` over one batch (summed over its sub-batches).
    RelDrain,
    /// `protocol::write_value` over one batch, into a `JsonBuf` (likewise).
    ServerSerialize,
    /// `mediated_sql` + `explanation` + statistics closing the document.
    ServerTail,
    /// Write lock + `replace_conversion`, which evicts the dependent plans.
    CoreReplaceConversion,
    /// Write lock + `add_context` of a context no plan read.
    CoreAddContext,
    /// Compile probe: `coin_sql::parse_query`.
    SqlParse,
    /// Compile probe: `CoinSystem::mediate` (parses, then rewrites).
    CoreMediate,
    /// Compile probe: `Planner::plan_query` over the mediated query.
    PlannerPlan,
    /// Compile probe: `CoinSystem::prepare_uncached`, the whole compile.
    CoreCompile,
}

impl Name {
    pub fn as_str(self) -> &'static str {
        match self {
            Name::ClientRequest => "client.request",
            Name::ServerHandle => "server.handle",
            Name::ServerParseRequest => "server.parse_request",
            Name::CorePrepareHit => "core.prepare_hit",
            Name::CorePrepareMiss => "core.prepare_miss",
            Name::PlannerExecuteStream => "planner.execute_stream",
            Name::WrapperFetch => "wrapper.fetch",
            Name::ServerChunk => "server.chunk",
            Name::RelDrain => "rel.drain",
            Name::ServerSerialize => "server.serialize",
            Name::ServerTail => "server.tail",
            Name::CoreReplaceConversion => "core.replace_conversion",
            Name::CoreAddContext => "core.add_context",
            Name::SqlParse => "sql.parse",
            Name::CoreMediate => "core.mediate",
            Name::PlannerPlan => "planner.plan",
            Name::CoreCompile => "core.compile",
        }
    }
}

/// Index of a span in its tracer; `NO_SPAN` marks a root.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from every thread of one traced run.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The traced run has one client, so at most one request is in flight:
    /// its id and root span, set by the client before it sends, are how the
    /// server-side threads know what they are working for.
    request: AtomicU32,
    root: AtomicU32,
}

/// A span that has begun; [`Tracer::end`] closes it.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: SpanId,
}

thread_local! {
    /// The innermost open span on this thread, parent of the next one.
    static CURRENT: std::cell::Cell<SpanId> = const { std::cell::Cell::new(NO_SPAN) };
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
            request: AtomicU32::new(0),
            root: AtomicU32::new(NO_SPAN),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span recorder panics while holding the lock")
    }

    /// Open a span under this thread's innermost open span, or, when the
    /// thread has none, under the in-flight request's root.
    pub fn begin(&self, name: Name) -> Open {
        let parent = match CURRENT.get() {
            NO_SPAN => self.root.load(Ordering::SeqCst),
            inner => inner,
        };
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request: self.request.load(Ordering::SeqCst),
        };
        let mut spans = self.lock();
        let id = spans.len() as SpanId;
        spans.push(span);
        drop(spans);
        CURRENT.set(id);
        Open { id }
    }

    /// Close a span opened on this thread; optionally settle its name (a
    /// prepare is known to be a hit or a miss only once it returns).
    pub fn end(&self, open: Open, rename: Option<Name>) {
        let end = self.now_ns();
        let mut spans = self.lock();
        let span = &mut spans[open.id as usize];
        span.end_ns = end;
        if let Some(name) = rename {
            span.name = name;
        }
        let parent = span.parent;
        drop(spans);
        // Back to the enclosing span, unless that is another thread's root.
        CURRENT.set(if parent == self.root.load(Ordering::SeqCst) {
            NO_SPAN
        } else {
            parent
        });
    }

    /// Record an already-measured interval as a child of this thread's
    /// innermost open span. For work too fine-grained for a span of its own
    /// (a handful of rows): the caller sums the time of many small pieces
    /// and books the sum once, laid out from `start`.
    pub fn record(&self, name: Name, start: Instant, duration: std::time::Duration) {
        let start_ns = start.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            name,
            start_ns,
            end_ns: start_ns + duration.as_nanos() as u64,
            parent: CURRENT.get(),
            request: self.request.load(Ordering::SeqCst),
        };
        self.lock().push(span);
    }

    /// Run `f` inside a span.
    pub fn span<T>(&self, name: Name, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open, None);
        out
    }

    /// Client side: open the root span of request `request`. Everything the
    /// server-side threads record until [`Tracer::end_request`] hangs off it.
    pub fn begin_request(&self, request: u32) -> Open {
        self.request.store(request, Ordering::SeqCst);
        self.root.store(NO_SPAN, Ordering::SeqCst);
        let open = self.begin(Name::ClientRequest);
        // The root is not "current" on the client thread: the client opens
        // no child spans, and admin spans between requests are roots.
        CURRENT.set(NO_SPAN);
        self.root.store(open.id, Ordering::SeqCst);
        open
    }

    /// Client side: close the root with the client's own timestamps, so the
    /// root is exactly the latency the client reports.
    pub fn end_request(&self, open: Open, sent: Instant, last_byte: Instant) {
        let mut spans = self.lock();
        let span = &mut spans[open.id as usize];
        span.start_ns = sent.saturating_duration_since(self.origin).as_nanos() as u64;
        span.end_ns = last_byte.saturating_duration_since(self.origin).as_nanos() as u64;
        drop(spans);
        self.root.store(NO_SPAN, Ordering::SeqCst);
    }

    /// All spans recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals (clipped to the span). Children on other threads may
/// overlap each other; the union counts covered time once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_SPAN {
            let p = &spans[s.parent as usize];
            let (a, b) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if a < b {
                children[s.parent as usize].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Write spans as JSON-lines: one object per span, times in nanoseconds
/// since the tracer's origin, `parent` −1 for a root.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    let selfs = self_times(spans);
    for (id, (s, self_ns)) in spans.iter().zip(&selfs).enumerate() {
        let parent = if s.parent == NO_SPAN {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
            s.name.as_str(),
            s.start_ns,
            s.end_ns,
            s.request
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start: u64, end: u64, parent: SpanId) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(Name::ClientRequest, 0, 100, NO_SPAN),  // 0
            span(Name::ServerHandle, 10, 40, 0),         // 1
            span(Name::CorePrepareHit, 12, 20, 1),       // 2
            span(Name::PlannerExecuteStream, 20, 38, 1), // 3
            span(Name::WrapperFetch, 22, 30, 3),         // 4
            span(Name::WrapperFetch, 30, 36, 3),         // 5
            // Two chunk pulls on another thread, overlapping each other and
            // sticking out of the root at the end.
            span(Name::ServerChunk, 35, 60, 0),  // 6
            span(Name::ServerChunk, 50, 120, 0), // 7
        ];
        let selfs = self_times(&spans);
        // Root: 100 − |[10,40) ∪ [35,60) ∪ [50,100)| = 100 − 90.
        assert_eq!(selfs[0], 10);
        assert_eq!(selfs[1], 30 - 8 - 18);
        assert_eq!(selfs[2], 8);
        assert_eq!(selfs[3], 18 - 8 - 6);
        assert_eq!(selfs[4], 8);
        assert_eq!(selfs[6], 25);
        assert_eq!(selfs[7], 70);
        // Sequential, properly nested spans: self times add up to the root.
        let nested = &spans[..6];
        let total: u64 = self_times(nested).iter().skip(1).sum();
        assert_eq!(total, 30);
    }

    #[test]
    fn recorded_sums_become_children_of_the_open_span() {
        let t = Tracer::new();
        let chunk = t.begin(Name::ServerChunk);
        let began = Instant::now();
        let (drain, write) = (
            std::time::Duration::from_nanos(700),
            std::time::Duration::from_nanos(200),
        );
        t.record(Name::RelDrain, began, drain);
        t.record(Name::ServerSerialize, began + drain, write);
        std::thread::sleep(std::time::Duration::from_micros(50));
        t.end(chunk, None);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (0, 0));
        assert_eq!((spans[1].duration_ns(), spans[2].duration_ns()), (700, 200));
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        // Booked back to back inside the chunk: its self time is the rest.
        assert_eq!(self_times(&spans)[0], spans[0].duration_ns() - 900);
    }

    #[test]
    fn tracer_links_spans_across_threads_to_the_request_root() {
        let t = std::sync::Arc::new(Tracer::new());
        let root = t.begin_request(7);
        let worker = {
            let t = std::sync::Arc::clone(&t);
            std::thread::spawn(move || {
                t.span(Name::ServerHandle, || {
                    let p = t.begin(Name::CorePrepareMiss);
                    t.end(p, Some(Name::CorePrepareHit));
                });
                // A later pull on the same thread is again a child of the root.
                t.span(Name::ServerChunk, || {});
            })
        };
        worker.join().unwrap();
        let now = Instant::now();
        t.end_request(root, now - std::time::Duration::from_millis(1), now);
        let spans = t.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_SPAN);
        assert_eq!((spans[1].name, spans[1].parent), (Name::ServerHandle, 0));
        assert_eq!((spans[2].name, spans[2].parent), (Name::CorePrepareHit, 1));
        assert_eq!((spans[3].name, spans[3].parent), (Name::ServerChunk, 0));
        assert!(spans
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        // Between requests a span is a root of its own.
        t.span(Name::CoreAddContext, || {});
        assert_eq!(t.snapshot()[4].parent, NO_SPAN);

        let mut out = Vec::new();
        write_jsonl(&t.snapshot(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text
            .lines()
            .next()
            .unwrap()
            .contains("\"name\":\"client.request\""));
        assert!(text.lines().next().unwrap().contains("\"parent\":-1"));
    }
}
