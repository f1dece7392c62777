//! A source that fails or panics mid-plan must not spoil the prepared
//! query it was executing: the cached artifact answers again, without a
//! recompile, once the fault clears.

#[path = "../../coin-planner/tests/support/mod.rs"]
mod support;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::SeqCst;
use std::time::Duration;

use coin_core::fixtures::figure2_system_with;
use coin_core::{CacheStatus, CoinError};
use coin_planner::PlanError;
use coin_rel::Value;
use coin_wrapper::SourceError;

use support::{Injected, Latency, Probes};

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

#[test]
fn a_source_fault_does_not_poison_the_cached_plan() {
    let mut probes = Probes::default();
    // Slow enough that Q1's first wave runs on several threads.
    let sys = figure2_system_with(|source| {
        let injected = Injected::new(source, Latency::Sleep(Duration::from_millis(5)));
        probes.watch(&injected);
        injected
    });
    let probe = |source: &str| probes.of(source);
    let ntt = vec![vec![Value::str("NTT"), Value::Float(9_600_000.0)]];
    for _ in 0..4 {
        assert_eq!(sys.query(Q1, "c_recv").unwrap().table.rows, ntt);
    }
    let wait = sys.dictionary().observed_wait("worldscope").unwrap();
    assert!(wait > Duration::from_millis(1), "{wait:?}");

    probe("disclosure").fail.store(true, SeqCst);
    match sys.query(Q1, "c_recv") {
        Err(CoinError::Plan(PlanError::Source(SourceError::Unsupported(m)))) => {
            assert_eq!(m, "disclosure injected")
        }
        other => panic!("{:?}", other.map(|a| a.table)),
    }
    probe("disclosure").fail.store(false, SeqCst);
    probe("disclosure").panic.store(true, SeqCst);
    let unwound = catch_unwind(AssertUnwindSafe(|| sys.query(Q1, "c_recv")));
    assert!(unwound.is_err(), "the source's panic reaches the caller");
    assert!(probes.all().all(|p| p.in_flight.load(SeqCst) == 0));

    probe("disclosure").panic.store(false, SeqCst);
    let answer = sys.query(Q1, "c_recv").unwrap();
    assert_eq!(answer.table.rows, ntt);
    assert_eq!(answer.cache, CacheStatus::Hit);
    assert_eq!(answer.stats.remote_queries, 5);
    assert_eq!(sys.cache_stats().compiles, 1);
}
