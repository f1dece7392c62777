//! The fetch scheduler's contract (`coin_planner::exec`): identical remote
//! queries run once per execution, fetches that wait overlap and fetches
//! that do not stay on the calling thread, cancellation is seen between
//! waves, and a failing or panicking source neither leaks a thread nor
//! spoils the plan.

mod support;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::SeqCst;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use coin_planner::{execute_plan, Dictionary, PlanError, Planner, QueryPlan};
use coin_rel::{CancelToken, Catalog, ColumnType, EngineError, ExecError, Schema, Table, Value};
use coin_wrapper::{RelationalSource, Source, SourceError};

use support::{injected_figure2, Latency, Probes, MEDIATED_Q1};

/// Several tests here assert on elapsed time or on where a fetch ran, and a
/// thread kept off a busy CPU looks like a thread that waits: one at a time.
fn one_at_a_time() -> MutexGuard<'static, ()> {
    static QUIET: Mutex<()> = Mutex::new(());
    QUIET
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn q1(latency: Latency) -> (Planner, QueryPlan, Probes) {
    let (dict, probes) = injected_figure2(latency);
    let planner = Planner::new(dict);
    let plan = planner
        .plan_query(&coin_sql::parse_query(MEDIATED_Q1).unwrap())
        .unwrap();
    assert_eq!(plan.branches.len(), 3);
    (planner, plan, probes)
}

fn ntt() -> Vec<Vec<Value>> {
    vec![vec![Value::str("NTT"), Value::Float(9_600_000.0)]]
}

#[test]
fn q1_sends_each_distinct_remote_query_once() {
    let _quiet = one_at_a_time();
    let (planner, plan, probes) = q1(Latency::None);
    // Seven fetch requests, five distinct queries: the three branches ask
    // `disclosure` for the same projection of r2, and the rate lookup of the
    // branch for other currencies has no currency to look up.
    for execution in 1..=3 {
        let (table, stats) = planner.execute_planned(&plan).unwrap();
        assert_eq!(table.rows, ntt());
        assert_eq!(stats.remote_queries, 5);
        assert_eq!(stats.rows_shipped, 5);
        assert_eq!(probes.of("disclosure").calls.load(SeqCst), execution);
        assert_eq!(probes.of("worldscope").calls.load(SeqCst), 3 * execution);
        assert_eq!(probes.of("forex").calls.load(SeqCst), execution);
        let disclosure = planner.dictionary.source("disclosure").unwrap();
        assert_eq!(disclosure.query_count(), execution);
    }
}

#[test]
fn explain_names_the_shared_fetches() {
    let _quiet = one_at_a_time();
    let (_, plan, _) = q1(Latency::None);
    let explain = plan.explain();
    assert!(
        explain.contains(
            "shared: source disclosure answers branch 1 step 1, branch 2 step 1, \
             branch 3 step 1 with one fetch\n    SELECT cname, expenses FROM r2"
        ),
        "{explain}"
    );
    // Branch 1 fixes r1.currency to 'JPY', so its rate lookup is bound by
    // that literal and fetched on its own; branch 3's still waits for r1.
    // The two no longer send the same query, so forex shares nothing.
    assert!(
        explain.contains("derived: r3.fromCur = 'JPY' (via r1.currency)"),
        "{explain}"
    );
    assert!(
        explain.contains(
            "fetch [r3] from source forex (est 10 rows, cost 110.0)\n    \
             SELECT fromCur, rate, toCur FROM r3 WHERE toCur = 'USD' AND fromCur = 'JPY'"
        ),
        "{explain}"
    );
    assert!(
        explain.contains("dependent fetch [r3] from source forex per (fromCur := r1.currency)"),
        "{explain}"
    );
    assert!(!explain.contains("shared: source forex"), "{explain}");
    // The three r1 fetches differ in their pushed-down predicate.
    assert!(!explain.contains("shared: source worldscope"), "{explain}");
}

#[test]
fn answers_are_those_of_the_branches_run_alone() {
    let _quiet = one_at_a_time();
    let (planner, mut plan, _) = q1(Latency::None);
    // Under UNION ALL the merged rows are the branches' rows in order.
    plan.all = true;
    let mut alone = Vec::new();
    for branch in &plan.branches {
        alone.extend(execute_plan(branch, &planner.dictionary).unwrap().0.rows);
    }
    let (together, _) = planner.execute_planned(&plan).unwrap();
    assert_eq!(together.rows, alone);
    assert_eq!(together.rows, ntt());
}

#[test]
fn a_fetch_staged_for_several_branches_is_copied_not_moved() {
    let _quiet = one_at_a_time();
    // A scan takes a staged table's rows by move only when it holds the
    // last handle. Q1's r2 fetch is staged for all three branches, so each
    // branch's scan copies it and every branch still sees all of r2.
    let (planner, mut plan, probes) = q1(Latency::None);
    plan.all = true;
    let alone: Vec<Vec<Vec<Value>>> = (plan.branches.iter())
        .map(|branch| execute_plan(branch, &planner.dictionary).unwrap().0.rows)
        .collect();
    let (together, stats) = planner.execute_planned(&plan).unwrap();
    assert_eq!(together.rows, alone.concat());
    assert_eq!(stats.remote_queries, 5);

    // Three branches that each read the whole shared fetch.
    let r2 = "SELECT cname, expenses FROM r2";
    let thrice = format!("{r2} UNION ALL {r2} UNION ALL {r2}");
    let plan = planner
        .plan_query(&coin_sql::parse_query(&thrice).unwrap())
        .unwrap();
    assert_eq!(plan.branches.len(), 3);
    let rows = vec![
        vec![Value::str("IBM"), Value::Int(1_500_000_000)],
        vec![Value::str("NTT"), Value::Int(5_000_000)],
    ];
    let calls = probes.of("disclosure").calls.load(SeqCst);
    for execution in 1..=2 {
        let (table, stats) = planner.execute_planned(&plan).unwrap();
        assert_eq!(table.rows, [&rows[..], &rows, &rows].concat());
        assert_eq!(stats.remote_queries, 1);
        let sent = probes.of("disclosure").calls.load(SeqCst) - calls;
        assert_eq!(sent, execution);
    }
}

#[test]
fn waiting_sources_overlap_after_one_warm_up() {
    let _quiet = one_at_a_time();
    const LATENCY: Duration = Duration::from_millis(20);
    let (planner, plan, probes) = q1(Latency::Sleep(LATENCY));
    // Nothing is known about the sources yet: five fetches in a row.
    let started = Instant::now();
    planner.execute_planned(&plan).unwrap();
    assert!(started.elapsed() >= 5 * LATENCY);
    let wait = planner.dictionary.observed_wait("worldscope").unwrap();
    assert!(wait > Duration::from_millis(1), "{wait:?}");

    // Now the sources are known to wait, so wave {r1 ×3, r2, r3[JPY]}
    // overlaps: the query already fixes the rate lookup of branch 1, so
    // forex is asked in wave 0 too, and the wave after it (branch 3's
    // lookup, for no currency) sends nothing. One latency, where one fetch
    // after another takes five and one branch after another took seven.
    let started = Instant::now();
    let (table, stats) = planner.execute_planned(&plan).unwrap();
    let took = started.elapsed();
    assert_eq!(table.rows, ntt());
    assert_eq!(stats.remote_queries, 5);
    assert!(took >= LATENCY, "{took:?}");
    assert!(took < 2 * LATENCY, "{took:?}");
    let here = std::thread::current().id();
    assert!(probes.all().any(|p| p.threads().iter().any(|t| *t != here)));
    assert!(probes.all().all(|p| p.in_flight.load(SeqCst) == 0));
}

/// A branch's one large independent fetch is opened as a stream: its
/// query is counted at once, its rows when the stream ends, and the
/// source's wait before its first row is measured as a staged fetch's is,
/// so `observed_wait` moves and later waves can overlap it. A fetch too
/// small to stream is staged and counted at once.
#[test]
fn a_streamed_fetch_is_counted_when_drained_and_timed_on_opening() {
    let _quiet = one_at_a_time();
    const LATENCY: Duration = Duration::from_millis(20);
    const ROWS: usize = 2_000;
    let big = Table::from_rows(
        "big",
        Schema::of(&[("id", ColumnType::Int)]),
        (0..ROWS as i64).map(|i| vec![Value::Int(i)]).collect(),
    );
    let source = RelationalSource::new("bulk", Catalog::new().with_table(big));
    let sleepy = support::Injected::new(Arc::new(source), Latency::Sleep(LATENCY));
    let probe = sleepy.probe();
    let mut dict = Dictionary::new();
    dict.register_source(sleepy).unwrap();
    let planner = Planner::new(dict);
    let plan = |sql| {
        planner
            .plan_query(&coin_sql::parse_query(sql).unwrap())
            .unwrap()
    };
    let (whole, few) = (
        plan("SELECT big.id FROM big"),
        plan("SELECT big.id FROM big WHERE big.id = 7"),
    );
    for _ in 0..2 {
        let mut rows = planner.execute_planned_stream(&whole, None).unwrap();
        let stats = rows.stats();
        assert_eq!((stats.remote_queries, stats.rows_shipped), (1, 0));
        let mut n = 0;
        while rows.next().unwrap().is_some() {
            n += 1;
        }
        // Settled once, at the end: pulling past it adds nothing.
        assert!(rows.next().unwrap().is_none());
        let stats = rows.stats();
        assert_eq!(
            (n, stats.remote_queries, stats.rows_shipped),
            (ROWS, 1, ROWS)
        );
    }
    let rows = planner.execute_planned_stream(&few, None).unwrap();
    let stats = rows.stats();
    assert_eq!((stats.remote_queries, stats.rows_shipped), (1, 1));
    assert_eq!(probe.calls.load(SeqCst), 3);
    // The first fetch is timed unmeasured (at most 125 µs of wait), the
    // second measured: only a recorded 20 ms wait lifts the floor past 1 ms.
    let wait = planner.dictionary.observed_wait("bulk").unwrap();
    assert!(wait > Duration::from_millis(1), "{wait:?}");
}

#[test]
fn fast_sources_are_fetched_on_the_calling_thread() {
    let _quiet = one_at_a_time();
    let (planner, plan, probes) = q1(Latency::None);
    for _ in 0..50 {
        planner.execute_planned(&plan).unwrap();
    }
    let here = std::thread::current().id();
    for probe in probes.all() {
        assert!(probe.threads().iter().all(|t| *t == here));
    }
}

#[test]
fn cpu_busy_sources_never_fan_out() {
    let _quiet = one_at_a_time();
    // As slow as a source that would be worth overlapping, but computing,
    // not waiting: a second thread would only compete for the processor.
    let (planner, plan, probes) = q1(Latency::Spin(Duration::from_millis(2)));
    for _ in 0..12 {
        planner.execute_planned(&plan).unwrap();
    }
    let here = std::thread::current().id();
    for probe in probes.all() {
        assert!(probe.threads().iter().all(|t| *t == here));
    }
    let wait = planner.dictionary.observed_wait("worldscope").unwrap();
    assert!(wait < Duration::from_micros(500), "{wait:?}");
}

#[test]
fn cancellation_is_seen_between_waves() {
    let _quiet = one_at_a_time();
    let token = CancelToken::new();
    // The wave-0 fetch of r1 cancels; `forex` is only asked in wave 1, per
    // currency r1 ships.
    let (dict, probes) =
        support::injected_figure2_with(Latency::None, |injected| match injected.name() {
            "forex" => injected,
            _ => injected.cancelling(token.clone()),
        });
    let planner = Planner::new(dict);
    let plan = planner
        .plan_query(&coin_sql::parse_query(DEPENDENT_RATES).unwrap())
        .unwrap();
    let calls =
        || ["worldscope", "disclosure", "forex"].map(|source| probes.of(source).calls.load(SeqCst));
    let result = planner.execute_planned_stream(&plan, Some(token.clone()));
    assert!(matches!(
        result.err(),
        Some(PlanError::Engine(EngineError::Exec(ExecError::Cancelled)))
    ));
    // worldscope ran; the rate lookups were never sent.
    assert_eq!(calls(), [1, 0, 0]);

    // A token cancelled beforehand sends nothing at all.
    let result = planner.execute_planned_stream(&plan, Some(token));
    assert!(result.is_err());
    assert_eq!(calls(), [1, 0, 0]);
}

/// A rate lookup that nothing but r1's rows can bind: a real second wave.
const DEPENDENT_RATES: &str = "SELECT r1.cname, r3.rate FROM r1, r3 \
    WHERE r3.fromCur = r1.currency AND r3.toCur = 'USD'";

/// Q1 over sources 5 ms away — but for `disclosure`, which answers (or
/// fails) at once — executed often enough that its first wave fans out.
fn q1_fanning_out() -> (Planner, QueryPlan, Probes) {
    let slow = Latency::Sleep(Duration::from_millis(5));
    let (dict, probes) = support::injected_figure2_with(slow, |injected| match injected.name() {
        "disclosure" => injected.latency(Latency::None),
        _ => injected,
    });
    let planner = Planner::new(dict);
    let plan = planner
        .plan_query(&coin_sql::parse_query(MEDIATED_Q1).unwrap())
        .unwrap();
    for _ in 0..3 {
        planner.execute_planned(&plan).unwrap();
    }
    let here = std::thread::current().id();
    let before = probes.of("disclosure").threads().len();
    planner.execute_planned(&plan).unwrap();
    // disclosure's fetch is the wave's second job: a helper's.
    assert_ne!(probes.of("disclosure").threads()[before], here);
    (planner, plan, probes)
}

#[test]
fn the_first_failure_in_plan_order_is_reported_and_nothing_is_left_running() {
    let _quiet = one_at_a_time();
    let (planner, plan, probes) = q1_fanning_out();
    // Wave 0 is {r1[JPY], r2, r3[JPY], r1[USD], r1[other]}. disclosure
    // fails at once, on a helper, 5 ms before worldscope's first fetch fails
    // on the caller: the later failure is the first in plan order, and the
    // one reported — as if the jobs had run one after another.
    probes.of("worldscope").fail.store(true, SeqCst);
    probes.of("disclosure").fail.store(true, SeqCst);
    let forex_before = probes.of("forex").calls.load(SeqCst);
    match planner.execute_planned(&plan) {
        Err(PlanError::Source(SourceError::Unsupported(m))) => assert_eq!(m, "worldscope injected"),
        other => panic!("{other:?}"),
    }
    assert!(probes.all().all(|p| p.in_flight.load(SeqCst) == 0));
    // The rate lookup is job 2: a helper may have begun it before
    // disclosure's failure was seen, and nothing sends it again.
    assert!(probes.of("forex").calls.load(SeqCst) - forex_before <= 1);

    // Only the later job fails: that is the error.
    probes.of("worldscope").fail.store(false, SeqCst);
    match planner.execute_planned(&plan) {
        Err(PlanError::Source(SourceError::Unsupported(m))) => assert_eq!(m, "disclosure injected"),
        other => panic!("{other:?}"),
    }
    assert!(probes.all().all(|p| p.in_flight.load(SeqCst) == 0));
    // The fault clears: the same plan answers again.
    probes.of("disclosure").fail.store(false, SeqCst);
    assert_eq!(planner.execute_planned(&plan).unwrap().0.rows, ntt());
}

#[test]
fn a_panic_on_a_helper_thread_continues_on_the_caller() {
    let _quiet = one_at_a_time();
    let (planner, plan, probes) = q1_fanning_out();
    probes.of("disclosure").panic.store(true, SeqCst);
    let unwound = catch_unwind(AssertUnwindSafe(|| planner.execute_planned(&plan)));
    let payload = unwound.expect_err("the source's panic reaches the caller");
    let message = payload.downcast_ref::<String>().expect("a formatted panic");
    assert_eq!(message, "disclosure injected panic");
    assert!(probes.all().all(|p| p.in_flight.load(SeqCst) == 0));

    probes.of("disclosure").panic.store(false, SeqCst);
    assert_eq!(planner.execute_planned(&plan).unwrap().0.rows, ntt());
}

/// Two branches that each look a rate up per currency of their r1 rows:
/// one shared dependent fetch in wave 1, one remote query per distinct
/// currency across both branches.
const SHARED_RATES: &str = "\
    SELECT r1.cname, r3.rate FROM r1, r3 \
    WHERE r1.cname = 'IBM' AND r3.fromCur = r1.currency AND r3.toCur = 'USD' \
    UNION \
    SELECT r1.cname, r3.rate FROM r1, r3 \
    WHERE r1.revenue > 0 AND r3.fromCur = r1.currency AND r3.toCur = 'USD'";

#[test]
fn dependent_fetches_of_two_branches_share_one_fetch_per_distinct_value() {
    let _quiet = one_at_a_time();
    let (dict, probes) = injected_figure2(Latency::None);
    let planner = Planner::new(dict);
    let plan = planner
        .plan_query(&coin_sql::parse_query(SHARED_RATES).unwrap())
        .unwrap();
    let explain = plan.explain();
    assert!(
        explain.contains(
            "shared: source forex answers branch 1 step 1, branch 2 step 1 \
             with one fetch per distinct (fromCur)\n    \
             SELECT fromCur, rate, toCur FROM r3 WHERE toCur = 'USD'"
        ),
        "{explain}"
    );
    assert!(!explain.contains("derived:"), "{explain}");
    // Branch 1 asks for USD, branch 2 for USD and JPY: two rate lookups,
    // not three. forex knows no USD-to-USD rate, so only NTT answers.
    for execution in 1..=2 {
        let (table, stats) = planner.execute_planned(&plan).unwrap();
        assert_eq!(
            table.rows,
            vec![vec![Value::str("NTT"), Value::Float(0.0096)]]
        );
        assert_eq!(stats.remote_queries, 4);
        assert_eq!(probes.of("worldscope").calls.load(SeqCst), 2 * execution);
        assert_eq!(probes.of("forex").calls.load(SeqCst), 2 * execution);
    }
}

/// Wave 0 is {r1, r2}; wave 1 looks a rate up per currency of r1's rows.
const RATES_OF_DISCLOSED: &str = "SELECT r1.cname, r3.rate FROM r1, r2, r3 \
    WHERE r1.cname = r2.cname AND r3.fromCur = r1.currency AND r3.toCur = 'USD'";

#[test]
fn a_failing_wave_sends_nothing_after_it() {
    let _quiet = one_at_a_time();
    let slow = Latency::Sleep(Duration::from_millis(5));
    let (dict, probes) = injected_figure2(slow);
    let planner = Planner::new(dict);
    let plan = planner
        .plan_query(&coin_sql::parse_query(RATES_OF_DISCLOSED).unwrap())
        .unwrap();
    let forex = probes.of("forex");
    // When disclosure fails, r1's currencies are in hand and could feed
    // wave 1 all the same: not one rate lookup may be sent.
    let each_fails = || {
        for source in ["worldscope", "disclosure"] {
            probes.of(source).fail.store(true, SeqCst);
            let before = forex.calls.load(SeqCst);
            match planner.execute_planned(&plan) {
                Err(PlanError::Source(SourceError::Unsupported(m))) => {
                    assert_eq!(m, format!("{source} injected"))
                }
                other => panic!("{other:?}"),
            }
            assert!(probes.all().all(|p| p.in_flight.load(SeqCst) == 0));
            assert_eq!(forex.calls.load(SeqCst), before, "{source}");
            probes.of(source).fail.store(false, SeqCst);
        }
    };
    // Nothing is known about the sources yet: one fetch after another.
    each_fails();
    // Once they are known to wait, wave 0's two fetches overlap.
    for _ in 0..3 {
        planner.execute_planned(&plan).unwrap();
    }
    let here = std::thread::current().id();
    assert!(probes.all().any(|p| p.threads().iter().any(|t| *t != here)));
    each_fails();
    assert_eq!(
        planner.execute_planned(&plan).unwrap().0.rows,
        [[Value::str("NTT"), Value::Float(0.0096)]]
    );
}
