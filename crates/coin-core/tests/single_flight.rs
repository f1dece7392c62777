//! Concurrency tests for the single-flight prepare guard: N threads
//! cold-missing the same `(receiver, sql)` key must trigger exactly one
//! compile, share one artifact, and agree on the answer — and a failing
//! leader must never strand the waiters.

use std::sync::{Arc, Barrier};

use coin_core::fixtures::figure2_system;
use coin_core::{CacheStatus, CoinSystem};

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

const STAMPEDE: usize = 32;

/// Run `threads` concurrent `prepare_with_status` calls on one key,
/// returning each thread's `(artifact, status)`.
fn stampede(
    sys: &Arc<CoinSystem>,
    threads: usize,
    sql: &'static str,
) -> Vec<(Arc<coin_core::PreparedQuery>, CacheStatus)> {
    let barrier = Arc::new(Barrier::new(threads));
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let sys = Arc::clone(sys);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                sys.prepare_with_status(sql, "c_recv").unwrap()
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn cold_miss_stampede_compiles_exactly_once() {
    let sys = Arc::new(figure2_system());
    let results = stampede(&sys, STAMPEDE, Q1);

    let stats = sys.cache_stats();
    assert_eq!(stats.compiles, 1, "stampede must compile exactly once");
    assert_eq!(stats.entries, 1);

    // Exactly one leader reported a miss; everyone else was served.
    let misses = results
        .iter()
        .filter(|(_, s)| *s == CacheStatus::Miss)
        .count();
    assert_eq!(misses, 1, "exactly one thread leads the flight");
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, (STAMPEDE - 1) as u64);

    // Every thread holds the *same* artifact (pointer-identical).
    let (first, _) = &results[0];
    for (artifact, _) in &results {
        assert!(Arc::ptr_eq(first, artifact), "artifact must be shared");
    }
}

#[test]
fn stampede_threads_agree_on_the_answer() {
    let sys = Arc::new(figure2_system());
    let results = stampede(&sys, 8, Q1);
    let expected = sys.prepare(Q1, "c_recv").unwrap().execute(&sys).unwrap();
    for (artifact, _) in results {
        let answer = artifact.execute(&sys).unwrap();
        assert_eq!(answer.table.rows, expected.table.rows);
        assert_eq!(
            answer.mediated.query.to_string(),
            expected.mediated.query.to_string()
        );
    }
}

#[test]
fn overlapping_misses_coalesce_even_with_cache_disabled() {
    // Capacity 0 drops inserts, but waiters parked on an open flight are
    // handed the leader's artifact directly. Driven through the cache API
    // so the flight deterministically stays open while waiters arrive.
    use coin_core::{PrepareSlot, QueryCache};

    let sys = figure2_system();
    let artifact = Arc::new(sys.prepare_uncached(Q1, "c_recv").unwrap());
    let cache = Arc::new(QueryCache::with_capacity(0));
    let versions = Arc::new(sys.versions().clone());

    let permit = match cache.begin("c_recv", Q1, &versions) {
        PrepareSlot::Leader(p) => p,
        PrepareSlot::Cached(_) => panic!("first caller must lead"),
    };
    let (entering_tx, entering_rx) = std::sync::mpsc::channel::<()>();
    let waiters: Vec<_> = (0..4)
        .map(|_| {
            let cache = Arc::clone(&cache);
            let versions = Arc::clone(&versions);
            let entering_tx = entering_tx.clone();
            std::thread::spawn(move || {
                entering_tx.send(()).unwrap();
                match cache.begin("c_recv", Q1, &versions) {
                    PrepareSlot::Cached(p) => Some(p),
                    // A waiter descheduled past the leader's completion
                    // misses the coalescing window and is elected leader
                    // of a fresh flight; abort it (never complete) so the
                    // compile counter below stays exact.
                    PrepareSlot::Leader(permit) => {
                        drop(permit);
                        None
                    }
                }
            })
        })
        .collect();
    for _ in 0..4 {
        entering_rx.recv().unwrap();
    }
    // The flight entry exists until `complete`, so everyone who called
    // `begin` by now joins it; the pause covers the signal→begin gap.
    std::thread::sleep(std::time::Duration::from_millis(100));
    permit.complete(Arc::clone(&artifact));

    let served: Vec<_> = waiters
        .into_iter()
        .filter_map(|w| w.join().unwrap())
        .collect();
    assert!(
        !served.is_empty(),
        "at least one waiter overlapped the flight"
    );
    for p in &served {
        assert!(Arc::ptr_eq(p, &artifact), "leader's artifact shared");
    }
    let stats = cache.stats();
    assert_eq!(stats.compiles, 1, "only the main-thread permit completed");
    assert_eq!(stats.entries, 0, "disabled cache stores nothing");
    assert_eq!(
        stats.hits,
        served.len() as u64,
        "each coalesced waiter counts as a hit"
    );
}

#[test]
fn failing_leader_never_strands_waiters() {
    // Every thread races on SQL that fails to compile: each in turn
    // becomes leader, fails, and aborts its flight. Nobody deadlocks,
    // everybody sees the error, and nothing was compiled or cached.
    let sys = Arc::new(figure2_system());
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let sys = Arc::clone(&sys);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                sys.prepare_with_status("SELECT nope FROM nowhere", "c_recv")
            })
        })
        .collect();
    for h in handles {
        assert!(h.join().unwrap().is_err(), "bad SQL must fail everywhere");
    }
    let stats = sys.cache_stats();
    assert_eq!(stats.compiles, 0, "no successful compile happened");
    assert_eq!(stats.entries, 0);
}

#[test]
fn distinct_keys_do_not_coalesce() {
    // Single-flight is per key: different SQL (or receivers) compile
    // independently and each gets its own artifact.
    let sys = Arc::new(figure2_system());
    let a = stampede(&sys, 4, "SELECT r1.cname FROM r1");
    let b = stampede(&sys, 4, "SELECT r2.cname FROM r2");
    assert_eq!(sys.cache_stats().compiles, 2);
    assert!(!Arc::ptr_eq(&a[0].0, &b[0].0));
}

#[test]
fn compile_counter_tracks_sequential_recompiles() {
    let mut sys = figure2_system();
    sys.prepare(Q1, "c_recv").unwrap(); // compile 1
    sys.prepare(Q1, "c_recv").unwrap(); // hit — no compile
    assert_eq!(sys.cache_stats().compiles, 1);
    // Q1 converts currencies: replacing that conversion invalidates it.
    sys.replace_conversion(
        "currency",
        coin_core::Conversion::Lookup {
            relation: "r3".into(),
            from_col: "toCur".into(),
            to_col: "fromCur".into(),
            factor_col: "rate".into(),
        },
    )
    .unwrap();
    sys.prepare(Q1, "c_recv").unwrap(); // invalidated — compile 2
    assert_eq!(sys.cache_stats().compiles, 2);
}
