//! Reactor-transport e2e: the properties that distinguish the
//! event-driven loop from thread-per-connection — open connections far
//! exceeding the worker pool, idle-timeout reaping across a whole fleet,
//! slow-loris clients that never starve fast ones, request-level load
//! shedding that keeps the connection, and panic containment — plus the
//! `open_connections`/`reactor_wakeups` gauges that make those states
//! observable.
//!
//! Every test runs over the full reactor conformance matrix (poll/epoll
//! × 1/4 shards, see `support/transport.rs`): these are contract
//! properties of the transport, not of one backend.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use coin_core::fixtures::figure2_system;
use coin_server::http::{serve_with, Handler, HttpClient, HttpRequest, HttpResponse};
use coin_server::{start_server_with, ServerConfig, ServerHandle};

#[path = "support/load.rs"]
#[allow(dead_code)]
mod load;
#[path = "support/transport.rs"]
mod support;

use load::IdleFleet;
use support::{matrix, wait_until, TransportCase, EPHEMERAL};

fn start(case: TransportCase, config: ServerConfig) -> ServerHandle {
    start_server_with(Arc::new(figure2_system()), EPHEMERAL, case.apply(config)).unwrap()
}

/// Poll `metrics()` until `pred` holds on the open-connection gauge.
fn wait_for(server: &ServerHandle, pred: impl Fn(u64) -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if pred(server.metrics().open_connections) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; metrics: {:?}",
            server.metrics()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The acceptance scenario: 8× more concurrently-open keep-alive
/// connections than worker threads, every request completing, and the
/// `open_connections` gauge agreeing with the fleet size.
#[test]
fn idle_fleet_outnumbers_workers_and_all_requests_complete() {
    const WORKERS: usize = 2;
    const FLEET: usize = 8 * WORKERS; // ≥ 4× is the acceptance floor
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: WORKERS,
                idle_timeout: Duration::from_secs(30),
                ..ServerConfig::default()
            },
        );

        let mut fleet = IdleFleet::open(server.addr, FLEET);
        let m = server.metrics();
        assert_eq!(
            m.open_connections, FLEET as u64,
            "[{}] gauge must count the whole fleet: {m:?}",
            case.name
        );
        assert!(
            m.reactor_wakeups > 0,
            "[{}] the readiness loop ran: {m:?}",
            case.name
        );
        // Round-robin handoff: connection i lives on shard i % N, so
        // the per-shard gauges split the fleet exactly evenly.
        assert_eq!(m.open_per_shard.len(), case.shards);
        for (shard, &open) in m.open_per_shard.iter().enumerate() {
            assert_eq!(
                open,
                (FLEET / case.shards) as u64,
                "[{}] shard {shard} unbalanced: {m:?}",
                case.name
            );
        }

        // Every held connection still answers — no worker was pinned by
        // the other 15 open sockets (a thread-per-connection pool of 2
        // would strand 14 of them).
        assert_eq!(fleet.ping_all(), 0, "[{}] idle socket dropped", case.name);
        let m = server.metrics();
        assert_eq!(m.open_connections, FLEET as u64);
        assert_eq!(m.requests, 2 * FLEET as u64);
        assert_eq!(m.connections_accepted, FLEET as u64);
        assert_eq!(m.connections_shed, 0, "[{}] nothing shed: {m:?}", case.name);
        server.stop();
    }
}

#[test]
fn idle_timeout_reaps_a_whole_fleet_under_the_reactor() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 2,
                idle_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        );
        let fleet = IdleFleet::open(server.addr, 6);
        assert_eq!(server.metrics().open_connections, 6);
        // No further traffic: every shard must reap its slice on its own.
        wait_for(&server, |open| open == 0, "idle fleet to be reaped");
        let m = server.metrics();
        assert!(
            m.open_per_shard.iter().all(|&open| open == 0),
            "[{}] a shard leaked its reaped connections: {m:?}",
            case.name
        );
        drop(fleet);
        server.stop();
    }
}

#[test]
fn slow_loris_clients_never_starve_the_event_loop() {
    // One worker and several byte-dripping peers: under a blocking
    // transport each loris would pin a worker; under the reactor they
    // only hold buffer state, and the fast client stays fast.
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 1,
                read_timeout: Duration::from_millis(600),
                ..ServerConfig::default()
            },
        );
        let mut loris: Vec<TcpStream> = (0..4)
            .map(|_| {
                let mut s = TcpStream::connect(server.addr).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                s.write_all(b"GET /stats HT").unwrap(); // never finishes
                s.flush().unwrap();
                s
            })
            .collect();

        // The fast client completes a burst while the loris sockets stall.
        let mut fast = HttpClient::new(server.addr);
        let t0 = Instant::now();
        for _ in 0..10 {
            let resp = fast.send("GET", "/stats", None, &[]).unwrap();
            assert_eq!(resp.status, 200);
        }
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "[{}] fast client was starved: 10 requests took {:?}",
            case.name,
            t0.elapsed()
        );

        // Each loris is eventually answered 408 and closed.
        for s in &mut loris {
            let mut reply = Vec::new();
            s.read_to_end(&mut reply).unwrap();
            let text = String::from_utf8_lossy(&reply);
            assert!(text.contains("408"), "[{}] {text}", case.name);
        }
        assert_eq!(server.metrics().request_timeouts, 4);
        server.stop();
    }
}

/// A handler that signals entry and then blocks until released.
fn gated_handler(entered_tx: mpsc::Sender<()>, release_rx: mpsc::Receiver<()>) -> Handler {
    let release_rx = Mutex::new(release_rx);
    Arc::new(move |_req: &HttpRequest| {
        let _ = entered_tx.send(());
        let _ = release_rx.lock().unwrap().recv();
        HttpResponse::ok("text/plain", "done")
    })
}

#[test]
fn full_queue_sheds_the_request_but_keeps_the_connection() {
    // Distinct from connection-level shedding: when the *work queue* is
    // full, the reactor answers 503 on the open connection and keeps it
    // usable — the client retries on the same socket, no reconnect.
    for case in matrix() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let server = serve_with(
            EPHEMERAL,
            case.apply(ServerConfig {
                workers: 1,
                queue_depth: 1,
                max_connections: 64, // plenty: only the queue is scarce
                retry_after_secs: 2,
                ..ServerConfig::default()
            }),
            gated_handler(entered_tx, release_rx),
        )
        .unwrap();
        let addr = server.addr;

        // Occupy the single worker…
        let busy = std::thread::spawn(move || {
            let mut c = HttpClient::new(addr);
            c.request("GET", "/busy", None, &[]).unwrap()
        });
        entered_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("request reaches the worker");
        // …and fill the depth-1 queue. `requests` counts dispatches, so
        // 2 means the second request really is parked in the queue (the
        // readiness signal; a fixed sleep here was a flake).
        let queued = std::thread::spawn(move || {
            let mut c = HttpClient::new(addr);
            c.request("GET", "/queued", None, &[]).unwrap()
        });
        wait_until("the queue holds the second request", || {
            server.metrics().requests == 2
        });

        let mut probe = HttpClient::new(addr);
        let resp = probe.send("GET", "/overflow", None, &[]).unwrap();
        assert_eq!(resp.status, 503, "[{}] overflow must be shed", case.name);
        assert_eq!(
            resp.headers.get("retry-after").map(String::as_str),
            Some("2")
        );
        assert!(server.metrics().connections_shed >= 1);

        // Release the two admitted requests, plus one for the retry below.
        for _ in 0..3 {
            release_tx.send(()).unwrap();
        }
        assert_eq!(busy.join().unwrap(), b"done");
        assert_eq!(queued.join().unwrap(), b"done");

        // The shed client's *same socket* now succeeds: the 503 did not
        // cost the connection.
        assert_eq!(probe.request("GET", "/retry", None, &[]).unwrap(), b"done");
        assert_eq!(probe.connects(), 1, "[{}] socket was lost", case.name);
        // Shed work is accounted in `connections_shed` only: `requests`
        // counts the three that reached the handler, not the 503.
        let m = server.metrics();
        assert_eq!(m.requests, 3, "[{}] {m:?}", case.name);
        assert_eq!(m.connections_shed, 1, "[{}] {m:?}", case.name);
        server.stop();
    }
}

#[test]
fn half_closing_client_still_receives_its_full_response() {
    // A peer that sends its request and immediately FINs its write half
    // is still owed the complete response — the reactor must not treat
    // the early EOF as an abandonment.
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /dictionary HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        raw.flush().unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap(); // FIN before the response
        let mut reply = Vec::new();
        let mut reader = BufReader::new(raw);
        reader.read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("HTTP/1.1 200"), "[{}] {text}", case.name);
        let framed: usize = text
            .lines()
            .find_map(|l| {
                l.to_ascii_lowercase()
                    .strip_prefix("content-length:")
                    .map(str::to_owned)
            })
            .expect("length-framed response")
            .trim()
            .parse()
            .unwrap();
        let body = &reply[reply.windows(4).position(|w| w == b"\r\n\r\n").unwrap() + 4..];
        assert_eq!(body.len(), framed, "[{}] body truncated: {text}", case.name);
        assert!(text.contains("tables"), "[{}] {text}", case.name);
        server.stop();
    }
}

#[test]
fn handler_panic_is_contained_to_a_500_and_the_server_survives() {
    for case in matrix() {
        let server = serve_with(
            EPHEMERAL,
            case.apply(ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            }),
            Arc::new(|req: &HttpRequest| {
                if req.path == "/boom" {
                    panic!("handler exploded");
                }
                HttpResponse::ok("text/plain", "fine")
            }),
        )
        .unwrap();
        let mut client = HttpClient::new(server.addr);
        let resp = client.send("GET", "/boom", None, &[]).unwrap();
        assert_eq!(resp.status, 500);
        // The connection was closed, but the single worker and the
        // reactor both survive to serve the next request.
        assert_eq!(client.request("GET", "/ok", None, &[]).unwrap(), b"fine");
        assert_eq!(
            client.connects(),
            2,
            "[{}] panic closes the conn",
            case.name
        );
        server.stop();
    }
}

#[test]
fn pipelined_burst_completes_in_order_with_a_tiny_pool() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut burst = String::new();
        for _ in 0..5 {
            burst.push_str("GET /stats HTTP/1.1\r\nHost: x\r\n\r\n");
        }
        raw.write_all(burst.as_bytes()).unwrap();
        raw.flush().unwrap();

        let mut reader = BufReader::new(raw);
        for i in 0..5 {
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            assert!(
                status.contains("200"),
                "[{}] response {i}: {status}",
                case.name
            );
            let mut len = 0usize;
            loop {
                let mut hline = String::new();
                reader.read_line(&mut hline).unwrap();
                if hline.trim_end().is_empty() {
                    break;
                }
                if let Some((k, v)) = hline.trim_end().split_once(':') {
                    if k.eq_ignore_ascii_case("content-length") {
                        len = v.trim().parse().unwrap();
                    }
                }
            }
            let mut body = vec![0u8; len];
            reader.read_exact(&mut body).unwrap();
            assert!(String::from_utf8_lossy(&body).contains("cache_hits"));
        }
        let m = server.metrics();
        assert_eq!(m.connections_accepted, 1);
        assert_eq!(m.requests, 5);
        assert_eq!(m.keepalive_reuses, 4);
        server.stop();
    }
}

#[test]
fn open_connections_gauge_rises_and_falls() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        );
        assert_eq!(server.metrics().open_connections, 0);
        let fleet = IdleFleet::open(server.addr, 3);
        assert_eq!(server.metrics().open_connections, 3);
        drop(fleet); // clients close their sockets…
        wait_for(&server, |open| open == 0, "gauge to fall after closes");
        // …and the cumulative counters are untouched by the closes.
        let m = server.metrics();
        assert_eq!(m.connections_accepted, 3);
        assert_eq!(m.requests, 3);
        // The per-shard gauges agree with the global one at both ends.
        assert!(
            m.open_per_shard.iter().all(|&open| open == 0),
            "[{}] {m:?}",
            case.name
        );
        server.stop();
    }
}

/// Sharding is observable end-to-end: every shard's event loop runs, and
/// the per-shard wakeup counters sum to the global gauge.
#[test]
fn every_shard_runs_its_own_event_loop() {
    let case = support::EPOLL4; // resolves to poll on non-Linux: same contract
    let server = start(
        case,
        ServerConfig {
            workers: 2,
            idle_timeout: Duration::from_secs(30),
            ..ServerConfig::default()
        },
    );
    // 8 connections round-robin onto 4 shards: 2 each, and each shard's
    // loop must have iterated to admit + serve its slice.
    let fleet = IdleFleet::open(server.addr, 8);
    let m = server.metrics();
    assert_eq!(m.open_per_shard, vec![2, 2, 2, 2], "{m:?}");
    assert_eq!(m.wakeups_per_shard.len(), 4);
    assert!(
        m.wakeups_per_shard.iter().all(|&w| w > 0),
        "a shard never woke: {m:?}"
    );
    assert_eq!(
        m.wakeups_per_shard.iter().sum::<u64>(),
        m.reactor_wakeups,
        "{m:?}"
    );
    drop(fleet);
    server.stop();
}

/// The persistent-interest-set property itself, asserted on syscall
/// shape: `interest_ops` counts pollfd slots submitted per wakeup under
/// poll (so it scales with fleet size) and `epoll_ctl` calls under epoll
/// (so it does not). Linux-only: elsewhere the epoll case *is* poll.
#[cfg(target_os = "linux")]
#[test]
fn epoll_interest_set_does_not_rescale_with_the_idle_fleet() {
    use coin_server::ReactorBackend;

    // Interest-set syscall traffic generated by 20 hot keep-alive
    // requests while `fleet_size` idle connections sit parked.
    let measure = |backend: ReactorBackend, fleet_size: usize| -> u64 {
        let server = start(
            TransportCase {
                name: "shape",
                backend,
                shards: 1,
            },
            ServerConfig {
                workers: 2,
                idle_timeout: Duration::from_secs(300),
                ..ServerConfig::default()
            },
        );
        let fleet = IdleFleet::open(server.addr, fleet_size);
        let mut hot = HttpClient::new(server.addr);
        hot.request("GET", "/stats", None, &[]).unwrap(); // warm the socket up
        let before = server.metrics().interest_ops;
        for _ in 0..20 {
            hot.request("GET", "/stats", None, &[]).unwrap();
        }
        let delta = server.metrics().interest_ops - before;
        drop(fleet);
        server.stop();
        delta
    };

    let epoll_small = measure(ReactorBackend::Epoll, 8);
    let epoll_large = measure(ReactorBackend::Epoll, 64);
    // Persistent interest set: the idle fleet was registered once, so
    // the traffic for 20 hot requests is independent of its size (wide
    // slack — scheduling noise varies the per-request MOD count, but
    // nothing here may scale by the 8× fleet growth).
    assert!(
        epoll_large <= epoll_small * 3 + 64,
        "epoll interest traffic scaled with idle fleet size: \
         {epoll_small} ops @ 8 conns vs {epoll_large} ops @ 64 conns"
    );

    let poll_large = measure(ReactorBackend::Poll, 64);
    // poll(2) re-submits every slot on every wakeup: 20 requests over a
    // 64-connection fleet must cross the syscall boundary thousands of
    // times — an order of magnitude past epoll on the same workload.
    assert!(
        poll_large >= 64 * 10,
        "poll rebuild traffic implausibly low: {poll_large} ops"
    );
    assert!(
        poll_large > epoll_large * 4,
        "epoll ({epoll_large} ops) shows no structural advantage over \
         poll ({poll_large} ops) at 64 idle connections"
    );
}
