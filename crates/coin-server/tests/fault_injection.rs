//! Fault injection across shards: peers that vanish mid-handshake,
//! mid-headers, or mid-chunked-stream. The contract: the owning shard
//! notices, cancels any in-flight plan, and returns its
//! `open_connections` slice to zero — and a dying connection on one
//! shard never stalls traffic on another.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use coin_core::fixtures::figure2_system;
use coin_core::CoinSystem;
use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_server::http::HttpClient;
use coin_server::{start_server_with, ServerConfig, ServerHandle};
use coin_wrapper::RelationalSource;

#[path = "support/transport.rs"]
mod support;

use support::{matrix, wait_until, TransportCase, EPHEMERAL};

const BULK_SQL: &str = "SELECT big.id, big.payload FROM big";

/// Figure 2 plus a synthetic table large enough that a streamed result
/// can never complete into socket buffers before the peer disconnects.
fn bulk_system(rows: usize) -> CoinSystem {
    let mut sys = figure2_system();
    let payload = Value::str(&"x".repeat(48));
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

fn start(case: TransportCase, config: ServerConfig) -> ServerHandle {
    start_server_with(Arc::new(figure2_system()), EPHEMERAL, case.apply(config)).unwrap()
}

/// Open a streaming `/query` against `addr`, read `floor` bytes to prove
/// the chunked body is in flight, and hand the socket back to the caller
/// (who will drop it to inject the fault).
fn streaming_conn(addr: std::net::SocketAddr, floor: usize) -> TcpStream {
    let body = format!("{{\"sql\":\"{BULK_SQL}\",\"mode\":\"naive\"}}");
    let mut raw = TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    raw.write_all(
        format!(
            "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
    .unwrap();
    raw.flush().unwrap();
    let mut got = 0usize;
    let mut buf = [0u8; 8192];
    while got < floor {
        let n = raw.read(&mut buf).unwrap();
        assert!(n > 0, "server closed the stream before the disconnect");
        got += n;
    }
    raw
}

#[test]
fn disconnect_mid_handshake_leaves_no_residue_on_any_shard() {
    // Peers that connect and vanish before sending a single byte: two
    // per shard, admitted (the gauge counts them), then gone. No request
    // ever existed, so no counter but the gauge may move.
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 2,
                idle_timeout: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        );
        let fleet_size = 2 * case.shards;
        let fleet: Vec<TcpStream> = (0..fleet_size)
            .map(|_| TcpStream::connect(server.addr).unwrap())
            .collect();
        wait_until("the silent fleet is admitted", || {
            server.metrics().open_connections == fleet_size as u64
        });
        let m = server.metrics();
        assert!(
            m.open_per_shard.iter().all(|&open| open == 2),
            "[{}] round-robin put two silent conns on each shard: {m:?}",
            case.name
        );

        drop(fleet); // every peer FINs mid-handshake
        wait_until("every shard to reap its dead peers", || {
            let m = server.metrics();
            m.open_connections == 0 && m.open_per_shard.iter().all(|&open| open == 0)
        });
        let m = server.metrics();
        assert_eq!(m.connections_accepted, fleet_size as u64);
        assert_eq!(m.requests, 0, "[{}] no request existed: {m:?}", case.name);
        assert_eq!(m.malformed_requests, 0, "[{}] {m:?}", case.name);
        server.stop();
    }
}

#[test]
fn disconnect_mid_headers_is_a_silent_close_not_an_error() {
    // A peer that dies halfway through its request line is neither a
    // malformed request (it might have finished) nor a timeout (it
    // didn't stall — it vanished). One per shard.
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 2,
                read_timeout: Duration::from_secs(60), // never the trigger here
                ..ServerConfig::default()
            },
        );
        let fleet: Vec<TcpStream> = (0..case.shards)
            .map(|_| {
                let mut s = TcpStream::connect(server.addr).unwrap();
                s.write_all(b"GET /stats HT").unwrap(); // half a request line
                s.flush().unwrap();
                s
            })
            .collect();
        wait_until("the half-spoken fleet is admitted", || {
            server.metrics().open_connections == case.shards as u64
        });

        drop(fleet); // FIN with a partial request buffered
        wait_until("every shard to close its half-spoken peer", || {
            let m = server.metrics();
            m.open_connections == 0 && m.open_per_shard.iter().all(|&open| open == 0)
        });
        let m = server.metrics();
        assert_eq!(m.requests, 0, "[{}] {m:?}", case.name);
        assert_eq!(m.malformed_requests, 0, "[{}] not a 400: {m:?}", case.name);
        assert_eq!(m.request_timeouts, 0, "[{}] not a 408: {m:?}", case.name);
        server.stop();
    }
}

#[test]
fn disconnect_mid_stream_on_every_shard_cancels_every_plan() {
    // One in-flight chunked stream per shard, all four peers vanish:
    // each shard must cancel its plan (worker unpinned) and zero its
    // gauge — and the server keeps serving afterwards.
    let case = support::EPOLL4; // resolves to poll off-Linux: same contract
    let server = start_server_with(
        Arc::new(bulk_system(200_000)),
        EPHEMERAL,
        case.apply(ServerConfig {
            workers: 4, // one potential pin per shard
            ..ServerConfig::default()
        }),
    )
    .unwrap();

    // Connections round-robin in admission order: streams land on shards
    // 0, 1, 2, 3.
    let streams: Vec<TcpStream> = (0..4)
        .map(|_| streaming_conn(server.addr, 64 * 1024))
        .collect();
    let m = server.metrics();
    assert_eq!(m.streams, 4, "all four streams in flight: {m:?}");
    assert_eq!(m.open_per_shard, vec![1, 1, 1, 1], "{m:?}");

    drop(streams);
    wait_until("every shard to cancel its stream", || {
        server.metrics().streams_aborted == 4
    });
    wait_until("every shard's gauge to fall", || {
        let m = server.metrics();
        m.open_connections == 0 && m.open_per_shard.iter().all(|&open| open == 0)
    });

    // All four workers are free again: a fresh request completes.
    let stats = HttpClient::new(server.addr)
        .request("GET", "/stats", None, &[])
        .unwrap();
    assert!(String::from_utf8_lossy(&stats).contains("cache_hits"));
    server.stop();
}

#[test]
fn a_dying_stream_on_one_shard_never_stalls_another() {
    // Shard 0 hosts a stream whose peer stops reading (output backed up,
    // worker parked on the stream channel); shard 1 must keep serving at
    // full speed, unaffected, and the eventual disconnect is shard 0's
    // problem alone.
    let case = TransportCase {
        shards: 2,
        ..support::EPOLL4
    };
    let server = start_server_with(
        Arc::new(bulk_system(200_000)),
        EPHEMERAL,
        case.apply(ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        }),
    )
    .unwrap();

    // First connection → shard 0: a stream we read just far enough to
    // start, then stop draining.
    let stalled = streaming_conn(server.addr, 64 * 1024);
    // Second connection → shard 1: a fast keep-alive client.
    let mut fast = HttpClient::new(server.addr);
    let t0 = Instant::now();
    for i in 0..20 {
        let resp = fast.send("GET", "/stats", None, &[]).unwrap();
        assert_eq!(resp.status, 200, "fast request {i}");
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "shard 1 was stalled by shard 0's dying stream: 20 requests took {:?}",
        t0.elapsed()
    );
    assert_eq!(fast.connects(), 1, "the fast client never lost its socket");

    drop(stalled);
    wait_until("shard 0 to cancel the abandoned stream", || {
        server.metrics().streams_aborted == 1
    });
    let m = server.metrics();
    assert_eq!(m.streams, 1, "{m:?}");
    server.stop();
}
