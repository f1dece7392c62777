//! Query literals and table aliases must not grow the process-wide symbol
//! table: interned strings are never freed, so a server compiling fresh
//! ones would grow without bound while its plan cache stays at capacity.
//! The tests run one after the other in one test, because the symbol count
//! is process-wide.

use coin_core::fixtures::figure2_system;
use coin_logic::Sym;

/// A fresh 200-byte string literal per query.
fn fresh_literal(i: usize) -> String {
    let literal = format!("{i:0>200}");
    format!("SELECT r1.cname, r1.revenue FROM r1 WHERE r1.cname = '{literal}'")
}

/// A fresh alias for each of the query's two tables.
fn fresh_aliases(i: usize) -> String {
    format!(
        "SELECT a{i}.cname, a{i}.revenue FROM r1 a{i}, r2 b{i} \
         WHERE a{i}.cname = b{i}.cname AND a{i}.revenue > b{i}.expenses"
    )
}

/// Compile 10,000 queries `sql(0..10_000)`, each one a cache miss, and
/// check that none after the first 100 interned a symbol.
fn symbol_count_stays_flat(sql: impl Fn(usize) -> String) {
    let sys = figure2_system();
    let compile = |i: usize| {
        let (prepared, status) = sys.prepare_with_status(&sql(i), "c_recv").unwrap();
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
    assert_eq!(Sym::interned_count(), warmed, "{}", sql(0));
    assert_eq!(sys.cache_stats().misses, 10_000);
}

#[test]
fn fresh_literals_and_aliases_do_not_grow_the_symbol_table() {
    symbol_count_stays_flat(fresh_literal);
    symbol_count_stays_flat(fresh_aliases);
}
