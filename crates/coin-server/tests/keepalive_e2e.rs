//! Keep-alive transport e2e: one connection serving many sequential
//! mediation requests, exact framing (`Content-Length` or chunked),
//! pipelining, idle timeout, `Connection: close`, and fault isolation
//! for malformed or oversized requests.
//!
//! The whole suite runs over the transport conformance matrix
//! (poll/epoll × 1/4 shards): the keep-alive dialect is a wire contract
//! and must not vary with the backend or shard count behind it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use coin_core::fixtures::figure2_system;
use coin_server::http::{HttpClient, HttpError};
use coin_server::{start_server_with, Connection, ServerConfig, ServerHandle};

#[path = "support/transport.rs"]
mod support;

use support::{matrix, wait_until, TransportCase, EPHEMERAL};

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

fn start(case: TransportCase, config: ServerConfig) -> ServerHandle {
    start_server_with(Arc::new(figure2_system()), EPHEMERAL, case.apply(config)).unwrap()
}

fn query_body(sql: &str) -> String {
    format!("{{\"sql\":\"{sql}\",\"context\":\"c_recv\",\"mode\":\"mediated\"}}")
}

#[test]
fn one_connection_serves_many_query_and_stats_requests() {
    for case in matrix() {
        let server = start(case, ServerConfig::default());
        let mut client = HttpClient::new(server.addr);
        for round in 0..10 {
            let body = client
                .request(
                    "POST",
                    "/query",
                    Some("application/json"),
                    query_body(Q1).as_bytes(),
                )
                .unwrap();
            let text = String::from_utf8_lossy(&body);
            assert!(
                text.contains("NTT"),
                "[{}] round {round}: {text}",
                case.name
            );
            let stats = client.request("GET", "/stats", None, &[]).unwrap();
            assert!(String::from_utf8_lossy(&stats).contains("cache_hits"));
        }
        assert_eq!(client.connects(), 1, "[{}] one TCP connection", case.name);
        assert_eq!(client.requests(), 20);
        let m = server.metrics();
        assert_eq!(m.connections_accepted, 1, "[{}] {m:?}", case.name);
        assert_eq!(m.requests, 20);
        assert_eq!(m.keepalive_reuses, 19);
        server.stop();
    }
}

#[test]
fn odbc_connection_reuses_its_socket() {
    for case in matrix() {
        let server = start(case, ServerConfig::default());
        let conn = Connection::open(server.addr, "c_recv");
        for _ in 0..5 {
            let rs = conn.statement().execute(Q1).unwrap();
            assert_eq!(rs.len(), 1);
            conn.server_stats().unwrap();
        }
        assert_eq!(conn.transport_connects(), 1, "[{}]", case.name);
        assert_eq!(server.metrics().connections_accepted, 1);
        server.stop();
    }
}

#[test]
fn responses_carry_exact_framing() {
    // Keep-alive requires self-delimiting responses: streamed `/query`
    // answers are `Transfer-Encoding: chunked`, everything else carries
    // an exact `Content-Length`. Both kinds interleave on one socket.
    for case in matrix() {
        let server = start(case, ServerConfig::default());
        let mut client = HttpClient::new(server.addr);
        for _ in 0..3 {
            let resp = client
                .send(
                    "POST",
                    "/query",
                    Some("application/json"),
                    query_body(Q1).as_bytes(),
                )
                .unwrap();
            assert_eq!(resp.status, 200);
            assert_eq!(
                resp.headers.get("transfer-encoding").map(String::as_str),
                Some("chunked"),
                "[{}] streamed /query responses are chunk-framed",
                case.name
            );
            assert!(!resp.headers.contains_key("content-length"));
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );

            let resp = client.send("GET", "/stats", None, &[]).unwrap();
            assert_eq!(resp.status, 200);
            let framed: usize = resp
                .headers
                .get("content-length")
                .expect("non-streamed responses must be length-framed")
                .parse()
                .unwrap();
            assert_eq!(framed, resp.body.len());
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some("keep-alive")
            );
        }
        assert_eq!(client.connects(), 1, "[{}] one socket", case.name);
        server.stop();
    }
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    for case in matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // Two requests written back-to-back before reading anything.
        let pipelined = "GET /stats HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n\
                         GET /dictionary HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n";
        raw.write_all(pipelined.as_bytes()).unwrap();
        raw.flush().unwrap();

        let mut reader = BufReader::new(raw);
        let mut bodies = Vec::new();
        for _ in 0..2 {
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            assert!(status.contains("200"), "[{}] {status}", case.name);
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
            bodies.push(String::from_utf8_lossy(&body).into_owned());
        }
        assert!(bodies[0].contains("cache_hits"), "first answer is /stats");
        assert!(bodies[1].contains("tables"), "second answer is /dictionary");
        assert_eq!(server.metrics().connections_accepted, 1);
        server.stop();
    }
}

#[test]
fn idle_timeout_closes_the_connection_and_client_reconnects() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        );
        let mut client = HttpClient::new(server.addr);
        client.request("GET", "/stats", None, &[]).unwrap();
        assert_eq!(client.connects(), 1);
        // Outlive the server's idle timeout — the open-connection gauge
        // falling to zero is the signal that the server reaped the
        // socket (a fixed sleep here was a flake under load).
        wait_until("the idle socket is reaped", || {
            server.metrics().open_connections == 0
        });
        // The pooled socket is stale; the next request transparently
        // reconnects.
        client.request("GET", "/stats", None, &[]).unwrap();
        assert_eq!(client.connects(), 2, "[{}] socket replaced", case.name);
        assert_eq!(server.metrics().connections_accepted, 2);
        server.stop();
    }
}

#[test]
fn stale_socket_replay_is_method_aware() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        );
        // A POST through the default policy must NOT be replayed on the
        // stale-socket signature: the disconnect surfaces as an error.
        let mut client = HttpClient::new(server.addr);
        client
            .request(
                "POST",
                "/query",
                Some("application/json"),
                query_body(Q1).as_bytes(),
            )
            .unwrap();
        wait_until("the idle socket is reaped", || {
            server.metrics().open_connections == 0
        });
        let second = client.send(
            "POST",
            "/query",
            Some("application/json"),
            query_body(Q1).as_bytes(),
        );
        assert!(
            matches!(second, Err(HttpError::Io(_))),
            "[{}] non-idempotent request must not be replayed: {second:?}",
            case.name
        );

        // The same POST with the caller vouching for idempotency is
        // transparently replayed on a fresh socket (as `Connection` does
        // for the read-only /query endpoint).
        let mut client = HttpClient::new(server.addr);
        client
            .request(
                "POST",
                "/query",
                Some("application/json"),
                query_body(Q1).as_bytes(),
            )
            .unwrap();
        wait_until("the idle socket is reaped again", || {
            server.metrics().open_connections == 0
        });
        let resp = client
            .send_assuming_idempotent(
                "POST",
                "/query",
                Some("application/json"),
                query_body(Q1).as_bytes(),
            )
            .unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(client.connects(), 2, "[{}] replay reconnected", case.name);
        server.stop();
    }
}

#[test]
fn connection_close_header_is_honored() {
    for case in matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /stats HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        let mut reader = BufReader::new(raw);
        // The server must answer and then close: read_to_end terminates.
        reader.read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.starts_with("HTTP/1.1 200"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        server.stop();
    }
}

#[test]
fn http_10_defaults_to_close() {
    for case in matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /stats HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("200"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        server.stop();
    }
}

#[test]
fn max_requests_per_connection_is_enforced() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                max_requests_per_connection: 3,
                ..ServerConfig::default()
            },
        );
        let mut client = HttpClient::new(server.addr);
        for _ in 0..6 {
            client.request("GET", "/stats", None, &[]).unwrap();
        }
        assert_eq!(client.connects(), 2, "[{}] recycled after 3", case.name);
        server.stop();
    }
}

#[test]
fn malformed_framing_gets_4xx_without_killing_the_worker() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        for garbage in [
            "NONSENSE\r\n\r\n",
            "GET\r\n\r\n",
            "GET /stats JUNK/9\r\n\r\n",
            "POST /query HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
        ] {
            let mut raw = TcpStream::connect(server.addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            raw.write_all(garbage.as_bytes()).unwrap();
            raw.flush().unwrap();
            let mut status = String::new();
            BufReader::new(raw).read_line(&mut status).unwrap();
            assert!(
                status.contains("400"),
                "[{}] {garbage:?} -> {status}",
                case.name
            );
        }
        // The single worker survived all four bad connections.
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        assert_eq!(server.metrics().malformed_requests, 4, "[{}]", case.name);
        server.stop();
    }
}

#[test]
fn stalled_request_gets_408_within_the_read_deadline() {
    // Slow-loris defense: a request that starts but never finishes must
    // be answered 408 once `read_timeout` elapses, not held forever.
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                read_timeout: Duration::from_millis(150),
                ..ServerConfig::default()
            },
        );
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"GET /stats HT").unwrap(); // partial request line
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("408"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        assert_eq!(server.metrics().request_timeouts, 1, "[{}]", case.name);
        // The worker is free again.
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        server.stop();
    }
}

#[test]
fn oversized_header_gets_431() {
    for case in matrix() {
        let server = start(case, ServerConfig::default());
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // One header line just past the 8 KiB line cap (small enough to
        // fit in the socket buffer, so the write never races the
        // server's close).
        let pad = "x".repeat(10 * 1024);
        raw.write_all(format!("GET /stats HTTP/1.1\r\nHost: x\r\nX-Pad: {pad}\r\n\r\n").as_bytes())
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("431"), "[{}] {text}", case.name);
        server.stop();
    }
}

#[test]
fn oversized_body_gets_413_and_connection_close() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                workers: 1,
                max_body_bytes: 1024,
                ..ServerConfig::default()
            },
        );
        let mut raw = TcpStream::connect(server.addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        raw.write_all(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 10000\r\n\r\n")
            .unwrap();
        raw.flush().unwrap();
        let mut reply = Vec::new();
        BufReader::new(raw).read_to_end(&mut reply).unwrap();
        let text = String::from_utf8_lossy(&reply);
        assert!(text.contains("413"), "[{}] {text}", case.name);
        assert!(text.to_ascii_lowercase().contains("connection: close"));
        // Worker lives on.
        let conn = Connection::open(server.addr, "c_recv");
        assert_eq!(conn.statement().execute(Q1).unwrap().len(), 1);
        server.stop();
    }
}

#[test]
fn keep_alive_can_be_disabled_server_side() {
    for case in matrix() {
        let server = start(
            case,
            ServerConfig {
                keep_alive: false,
                ..ServerConfig::default()
            },
        );
        let mut client = HttpClient::new(server.addr);
        for _ in 0..3 {
            let resp = client.send("GET", "/stats", None, &[]).unwrap();
            assert_eq!(
                resp.headers.get("connection").map(String::as_str),
                Some("close")
            );
        }
        assert_eq!(client.connects(), 3, "[{}] fresh conn each", case.name);
        server.stop();
    }
}

#[test]
#[should_panic(expected = "COIN_TEST_TRANSPORT=threaded names no transport case")]
fn the_removed_threaded_case_is_rejected_by_name() {
    // A CI job or shell still narrowing to the removed transport must
    // fail, not pass by running nothing.
    support::select(Some("threaded"));
}
