//! The C10k-shaped acceptance bench: a large idle keep-alive fleet
//! parked on the server while a small hot fleet drives the `/stats`
//! workload — connection count far beyond the worker pool, with almost
//! all connections demanding no work.
//!
//! Two configurations of the same reactor transport race on identical
//! traffic:
//!
//! * `single_reactor` — one shard, poll(2) backend: every wakeup
//!   re-submits the entire interest set, so each hot request pays a
//!   syscall cost proportional to the *idle* fleet size.
//! * `sharded_epoll` — four shards, epoll backend (falls back to poll
//!   off-Linux): the idle fleet is registered once in per-shard
//!   persistent interest sets and costs nothing per wakeup.
//!
//! `C10K_IDLE_CONNS` (default 256 — safe under a 1024 fd ulimit, since
//! both socket ends live in this process; the CI bench job raises the
//! limit and runs 4096), `C10K_CLIENTS` (default 4) and `C10K_REQUESTS`
//! (default 50) scale the scenario. After the criterion timings a direct
//! requests/sec comparison is printed together with each configuration's
//! `reactor_wakeups` and `interest_ops` counters — the syscall-shape
//! evidence. Setting `SHARD_GATE_MIN_RATIO` (CI: 2.0) turns the
//! throughput ratio into a hard failure. The poll disadvantage grows linearly
//! with the fleet (measured on the development box: 1.4x at 256 idle
//! conns, 2.8x at 1024, 6.2x at 4096), so the 2x CI floor holds plenty
//! of slack at CI scale.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use coin_core::fixtures::figure2_system;
use coin_server::{start_server_with, ReactorBackend, ServerConfig, ServerHandle};

#[path = "../../coin-server/tests/support/load.rs"]
mod load;

use load::{run_load, IdleFleet, LoadConfig, LoadReport, Workload};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Case {
    name: &'static str,
    backend: ReactorBackend,
    shards: usize,
}

const SINGLE_REACTOR: Case = Case {
    name: "single_reactor",
    backend: ReactorBackend::Poll,
    shards: 1,
};
const SHARDED_EPOLL: Case = Case {
    name: "sharded_epoll",
    backend: ReactorBackend::Epoll,
    shards: 4,
};

fn start(case: &Case, clients: usize, idle_conns: usize) -> ServerHandle {
    start_server_with(
        Arc::new(figure2_system()),
        "127.0.0.1:0",
        ServerConfig {
            workers: clients,
            queue_depth: clients * 2,
            reactor_backend: case.backend,
            reactor_shards: case.shards,
            // Room for the parked fleet, the hot clients, and slack —
            // nothing in this scenario may be connection-shed.
            max_connections: idle_conns + clients + 64,
            // The idle fleet must outlive the whole criterion run.
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

fn hot_config(clients: usize, requests_per_client: usize) -> LoadConfig {
    LoadConfig {
        clients,
        requests_per_client,
        keep_alive: true,
        workload: Workload::Stats,
        seed: 42,
        skew: 0,
        time_limit: Duration::from_secs(60),
    }
}

/// Best requests/sec over `rounds` runs — the direct comparison is about
/// capability, so scheduling noise must not pick the winner.
fn best_rps(addr: std::net::SocketAddr, cfg: &LoadConfig, rounds: usize) -> f64 {
    (0..rounds)
        .map(|_| {
            let report = run_load(addr, cfg);
            assert_eq!(report.errors, 0, "{report:?}");
            assert_eq!(report.shed, 0, "{report:?}");
            report.requests_per_sec()
        })
        .fold(0.0, f64::max)
}

fn bench_c10k(c: &mut Criterion) {
    let idle_conns = env_usize("C10K_IDLE_CONNS", 256);
    let clients = env_usize("C10K_CLIENTS", 4);
    let requests_per_client = env_usize("C10K_REQUESTS", 50);
    let cfg = hot_config(clients, requests_per_client);

    let mut g = c.benchmark_group("c10k");
    g.throughput(Throughput::Elements((clients * requests_per_client) as u64));
    g.sample_size(10);

    // (name, best req/s, wakeups, interest_ops) per case, for the
    // summary and the in-bench gate below.
    let mut outcomes = Vec::new();
    for case in [SINGLE_REACTOR, SHARDED_EPOLL] {
        let server = start(&case, clients, idle_conns);
        let addr = server.addr;
        let fleet = IdleFleet::open(addr, idle_conns);
        g.bench_function(case.name, |b| {
            b.iter(|| {
                let report: LoadReport = run_load(addr, &cfg);
                assert_eq!(report.errors, 0, "{}: {report:?}", case.name);
                assert_eq!(report.shed, 0, "{}: {report:?}", case.name);
                black_box(report.ok)
            })
        });
        let rps = best_rps(addr, &cfg, 3);
        let m = server.metrics();
        assert!(
            m.open_connections >= idle_conns as u64,
            "{}: idle fleet must stay open through the run: {m:?}",
            case.name
        );
        outcomes.push((case.name, rps, m.reactor_wakeups, m.interest_ops));
        drop(fleet);
        server.stop();
    }
    g.finish();

    // The syscall-shape summary and the sharded-vs-single gate. Poll's
    // interest_ops count pollfd slots submitted (O(idle fleet) per
    // wakeup); epoll's count epoll_ctl calls (independent of the fleet).
    for (name, rps, wakeups, interest_ops) in &outcomes {
        println!(
            "c10k/{name}: {rps:.0} req/s over {idle_conns} idle conns \
             ({wakeups} wakeups, {interest_ops} interest ops, \
             {:.1} interest ops/wakeup)",
            *interest_ops as f64 / (*wakeups).max(1) as f64
        );
    }
    let single = outcomes[0].1;
    let sharded = outcomes[1].1;
    let ratio = sharded / single.max(1e-9);
    println!(
        "c10k: sharded_epoll/single_reactor throughput ratio {ratio:.2}x \
         ({clients} clients x {requests_per_client} requests)"
    );
    if let Some(min) = std::env::var("SHARD_GATE_MIN_RATIO")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
    {
        assert!(
            ratio >= min,
            "sharded epoll throughput ratio {ratio:.2}x fell below the gated \
             {min}x floor over a {idle_conns}-connection idle fleet"
        );
    }
}

criterion_group!(benches, bench_c10k);
criterion_main!(benches);
