//! Query literals must not grow the process-wide symbol table: interned
//! strings are never freed, so a server compiling fresh literals would grow
//! without bound while its plan cache stays at capacity. This test is alone
//! in its binary because the symbol count is process-wide.

use coin_core::fixtures::figure2_system;
use coin_logic::Sym;

/// A fresh 200-byte string literal per query.
fn query(i: usize) -> String {
    let literal = format!("{i:0>200}");
    format!("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.cname = '{literal}'")
}

#[test]
fn fresh_string_literals_do_not_grow_the_symbol_table() {
    let sys = figure2_system();
    let compile = |i: usize| {
        let (prepared, status) = sys.prepare_with_status(&query(i), "c_recv").unwrap();
        assert_eq!(status, coin_core::CacheStatus::Miss);
        assert_eq!(prepared.mediated().branches.len(), 3);
    };
    for i in 0..100 {
        compile(i);
    }
    let warmed = Sym::interned_count();
    for i in 100..10_000 {
        compile(i);
    }
    assert_eq!(Sym::interned_count(), warmed);
    assert_eq!(sys.cache_stats().misses, 10_000);
}
