//! Streaming `/query` memory behavior: a large scan→filter→project
//! result served over HTTP, streamed (chunked, the default) vs whole
//! (`"stream": false`: the same writer drained into one
//! `Content-Length` body).
//!
//! The criterion pair times both paths end-to-end over a loopback socket
//! with a discarding reader (`STREAM_ROWS` rows, default 1,000,000 —
//! override for quick local runs). After the timings, a one-shot
//! comparison measures the process's **peak live heap delta** for one
//! request on each path via a counting global allocator, and asserts the
//! memory cliff stays fixed: the streamed path's peak must be under half
//! the whole path's. The whole path holds the full serialized body at
//! once; the streamed path holds one row batch and the transport's
//! bounded output buffer, so the margin is wide in practice — a factor-2
//! floor just keeps the gate machine-independent.
//!
//! The raw-socket reader is deliberate: the pooled [`HttpClient`] would
//! reassemble the chunked body into one client-side `Vec` inside this
//! same process and mask the server-side difference being measured.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use coin_core::fixtures::figure2_system;
use coin_core::CoinSystem;
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_server::{start_server_with, ServerConfig, ServerHandle};
use coin_wrapper::RelationalSource;

/// Counting allocator: live bytes and the high-water mark since the last
/// reset. Approximate under concurrency, which is fine — the two phases
/// being compared differ by tens of megabytes.
struct CountingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let live = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Peak live-heap growth over `f`, relative to the live bytes at entry.
fn peak_delta(f: impl FnOnce()) -> usize {
    let start = CURRENT.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst).saturating_sub(start)
}

const SQL: &str = "SELECT big.id, big.payload FROM big WHERE big.id >= 0";

fn rows() -> usize {
    std::env::var("STREAM_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_000_000)
}

fn bulk_system(rows: usize) -> CoinSystem {
    let mut sys = figure2_system();
    // The payload is one shared `Arc<str>`: staging a fetched copy of
    // the table is cheap per row, while the serialized JSON body pays
    // the full 128 bytes per row. That keeps the comparison honest —
    // both paths stage the scanned table (the wrapper fetch model
    // materializes pushed-down scans), and what the streamed path saves
    // is exactly the serialized body the whole path must hold at once.
    let payload = Value::str(&"x".repeat(128));
    let table = Table::from_rows(
        "big",
        Schema::of(&[("id", ColumnType::Int), ("payload", ColumnType::Str)]),
        (0..rows)
            .map(|i| vec![Value::Int(i as i64), payload.clone()])
            .collect(),
    );
    sys.add_source(RelationalSource::new(
        "bulk",
        Catalog::new().with_table(table),
    ))
    .unwrap();
    sys
}

/// Issue one `/query` on a fresh `Connection: close` socket and discard
/// the response through a fixed 64 KiB buffer. Returns bytes read.
fn drive(addr: SocketAddr, stream: bool) -> usize {
    let body = format!("{{\"sql\":\"{SQL}\",\"mode\":\"naive\",\"stream\":{stream}}}");
    let mut sock = TcpStream::connect(addr).unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    sock.write_all(
        format!(
            "POST /query HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    sock.flush().unwrap();
    let mut buf = [0u8; 64 * 1024];
    let mut total = 0usize;
    loop {
        match sock.read(&mut buf).unwrap() {
            0 => return total,
            n => total += n,
        }
    }
}

fn bench_streaming_query(c: &mut Criterion) {
    let n = rows();
    let server: ServerHandle = start_server_with(
        Arc::new(bulk_system(n)),
        "127.0.0.1:0",
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr;

    let mut g = c.benchmark_group("streaming_query");
    g.throughput(Throughput::Elements(n as u64));
    g.sample_size(10);
    g.bench_function(format!("streamed/{n}"), |b| {
        b.iter(|| black_box(drive(addr, true)))
    });
    g.bench_function(format!("whole/{n}"), |b| {
        b.iter(|| black_box(drive(addr, false)))
    });
    g.finish();

    // The memory-cliff gate: one request per path, peak live-heap delta
    // for the whole process (server worker + discarding reader).
    let streamed_peak = peak_delta(|| {
        black_box(drive(addr, true));
    });
    let whole_peak = peak_delta(|| {
        black_box(drive(addr, false));
    });
    println!(
        "streaming_query/peak_memory: streamed {:.1} MiB vs whole {:.1} MiB \
         ({:.1}x, {n} rows)",
        streamed_peak as f64 / (1 << 20) as f64,
        whole_peak as f64 / (1 << 20) as f64,
        whole_peak as f64 / streamed_peak.max(1) as f64,
    );
    assert!(
        streamed_peak.saturating_mul(2) <= whole_peak,
        "streamed /query peak heap ({streamed_peak} B) must stay under half the \
         whole path's ({whole_peak} B): the memory cliff is back"
    );
    server.stop();
}

criterion_group!(benches, bench_streaming_query);
criterion_main!(benches);
