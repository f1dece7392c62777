//! # coin-server — the receiver-side access layer
//!
//! Figure 1's client/server slice: the mediation services exposed over
//! HTTP, with two ready-to-use interfaces exactly as in the prototype —
//! an ODBC-family client API and an HTML Query-By-Example form (paper §2).
//!
//! * [`json`] — self-contained JSON codec for the wire protocol;
//! * [`http`] — HTTP/1.1 keep-alive server (sharded event-driven
//!   reactor over a bounded worker pool, with load shedding) and
//!   blocking clients (one-shot helpers plus the persistent
//!   [`http::HttpClient`]);
//! * [`protocol`] — the mediation endpoints (`/dictionary`, `/query`,
//!   `/stats`, `/qbe`) over a shared [`coin_core::CoinSystem`] (or a
//!   [`protocol::SharedSystem`] when administration interleaves with
//!   traffic);
//! * [`client`] — [`client::Connection`] / [`client::Statement`] /
//!   [`client::ResultSet`], the ODBC-style API (connection-reusing);
//! * [`qbe`] — QBE form rendering and submission handling.
//!
//! The server multiplexes connections with `epoll(7)` or `poll(2)`, so
//! the crate builds on Unix hosts only.

#[cfg(not(unix))]
compile_error!("coin-server's reactor needs poll(2): build on a Unix host");

pub mod client;
mod conn;
pub mod http;
pub mod json;
mod poller;
pub mod protocol;
pub mod qbe;
mod reactor;

pub use client::{ClientError, Connection, ResultSet, ServerStats, Statement, TableInfo};
pub use http::{
    HttpClient, HttpError, HttpRequest, HttpResponse, ReactorBackend, ServerConfig, ServerHandle,
    ServerMetricsSnapshot, StreamBody,
};
pub use json::{parse as parse_json, Json, JsonBuf, JsonError};
pub use protocol::{
    start_server, start_server_shared, start_server_with, table_to_json, value_to_json,
    SharedSystem,
};
