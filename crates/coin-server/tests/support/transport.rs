//! The transport conformance matrix: every server contract suite
//! (`keepalive_e2e`, `backpressure`, `reactor_e2e`, `streaming_e2e`,
//! `fault_injection`) parameterizes over these cases so the
//! shedding / keep-alive / timeout / mid-stream-abort contract is
//! asserted once per (backend × shard-count) combination, not just on
//! the default.
//!
//! `COIN_TEST_TRANSPORT` narrows a run to one case (values: `poll1`,
//! `poll4`, `epoll1`, `epoll4`, `default`) — CI uses it for the epoll
//! smoke job; locally it isolates a failing combination.
//!
//! Also home to the two flake-hardening primitives every suite routes
//! through: [`EPHEMERAL`] (the single ephemeral-port bind address, so no
//! test can ever hard-code a port and race another) and [`wait_until`]
//! (metric polling with a deadline, replacing fixed sleeps).

#![allow(dead_code)] // shared via #[path]; each test target uses a subset

use std::time::{Duration, Instant};

use coin_server::{ReactorBackend, ServerConfig};

/// The one bind address test listeners use: loopback, kernel-assigned
/// ephemeral port (read back from `ServerHandle::addr`), so concurrent
/// test processes can never collide on a port.
pub const EPHEMERAL: &str = "127.0.0.1:0";

/// One cell of the conformance matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportCase {
    pub name: &'static str,
    pub backend: ReactorBackend,
    pub shards: usize,
}

impl TransportCase {
    /// Overlay this case's transport settings on a base config.
    pub fn apply(self, mut cfg: ServerConfig) -> ServerConfig {
        cfg.reactor_backend = self.backend;
        cfg.reactor_shards = self.shards;
        cfg
    }
}

pub const POLL1: TransportCase = TransportCase {
    name: "poll1",
    backend: ReactorBackend::Poll,
    shards: 1,
};
pub const POLL4: TransportCase = TransportCase {
    name: "poll4",
    backend: ReactorBackend::Poll,
    shards: 4,
};
pub const EPOLL1: TransportCase = TransportCase {
    name: "epoll1",
    backend: ReactorBackend::Epoll,
    shards: 1,
};
pub const EPOLL4: TransportCase = TransportCase {
    name: "epoll4",
    backend: ReactorBackend::Epoll,
    shards: 4,
};
/// Every contract-bearing combination (backend × shard count), narrowed
/// by `COIN_TEST_TRANSPORT` when it is set.
pub fn matrix() -> Vec<TransportCase> {
    select(std::env::var("COIN_TEST_TRANSPORT").ok().as_deref())
}

/// The matrix narrowed to the case named `wanted` (all of it when
/// `None`). Unknown names — including the removed `threaded` — fail
/// loudly rather than silently running nothing.
pub fn select(wanted: Option<&str>) -> Vec<TransportCase> {
    let cases = vec![POLL1, POLL4, EPOLL1, EPOLL4];
    let Some(wanted) = wanted else {
        return cases;
    };
    assert!(
        wanted == "default" || cases.iter().any(|c| c.name == wanted),
        "COIN_TEST_TRANSPORT={wanted} names no transport case \
         (valid: poll1, poll4, epoll1, epoll4, default)"
    );
    // `default` empties every matrix loop, leaving only the tests that
    // run on `ServerConfig::default()`.
    cases.into_iter().filter(|c| c.name == wanted).collect()
}

/// Poll `pred` until it holds, failing after 10 s — the readiness
/// signal that replaces fixed sleeps in the server test suites.
pub fn wait_until(what: &str, mut pred: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !pred() {
        assert!(Instant::now() < deadline, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}
