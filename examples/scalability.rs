//! EX-SCALE: the scalability and extensibility claims, quantified.
//!
//! "The approach is scalable because the complexity of creating and
//! administering the interoperation services do not increase exponentially
//! with the number of participating sources … It is extensible because
//! changes within any system can be effected by corresponding changes in
//! local elevation axioms or context theory and do not have adverse effects
//! on other parts of the larger system." (paper §1)
//!
//! This binary prints the administration-size table — COIN context axioms
//! (O(n)) versus a-priori pairwise integration rules (O(n²)) — then the
//! same claim in time: what compiling a query the plan cache has not seen
//! costs as the federation grows (it should not grow with it), and
//! demonstrates extensibility: adding source n+1 touches a constant number
//! of statements and leaves existing mediations byte-identical.
//!
//! Run with: `cargo run --release --example scalability`

use std::time::{Duration, Instant};

use coin::core::baseline::PairwiseIntegration;
use coin::core::fixtures::{add_synthetic_source, synthetic_system, Rng};
use coin::core::{CacheStatus, CoinSystem};

/// Threshold queries over 1, 2 and 3 sources' tables, as the benchmark's
/// synthetic workloads pose them; `{}` takes a fresh literal per query.
const MISS_SHAPES: [&str; 3] = [
    "SELECT a.cname, a.amount FROM fin1 a WHERE a.amount > {}",
    "SELECT a.cname, a.amount, b.amount FROM fin2 a, fin0 b \
     WHERE a.cname = b.cname AND a.amount > {}",
    "SELECT a.cname, a.amount, b.amount, c.amount FROM fin3 a, fin2 b, fin1 c \
     WHERE a.cname = b.cname AND b.cname = c.cname AND a.amount > {}",
];

/// Wall times of `n` plan-cache misses on `shape`, each with a literal no
/// earlier query used.
fn misses(sys: &CoinSystem, shape: &str, n: usize, next_literal: &mut u64) -> Vec<Duration> {
    (0..n)
        .map(|_| {
            *next_literal += 1;
            let sql = shape.replace("{}", &format!("{}.5", *next_literal));
            let started = Instant::now();
            let (_, status) = sys.prepare_with_status(&sql, "c_recv").unwrap();
            let took = started.elapsed();
            assert_eq!(status, CacheStatus::Miss);
            took
        })
        .collect()
}

fn main() {
    println!("=== Administration cost: COIN contexts vs pairwise integration ===\n");
    println!(
        "{:>8} {:>14} {:>16} {:>10}",
        "sources", "COIN axioms", "pairwise rules", "ratio"
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let sys = synthetic_system(n, 1, 7);
        let coin_axioms = sys.axiom_count();
        let pairwise =
            PairwiseIntegration::derive(sys.domain(), sys.contexts(), "companyFinancials").unwrap();
        let pw = pairwise.statement_count();
        println!(
            "{:>8} {:>14} {:>16} {:>9.1}x",
            n,
            coin_axioms,
            pw,
            pw as f64 / coin_axioms as f64
        );
    }

    println!("\n=== Compile cost of a plan-cache miss (median µs) ===\n");
    println!(
        "{:>8} {:>14} {:>14} {:>14}",
        "sources", "1 table", "2 tables", "3 tables"
    );
    let sizes = [4usize, 32, 128, 512];
    let systems = sizes.map(|n| synthetic_system(n, 1, 7));
    let mut literal = 0u64;
    // The sizes take turns, 20 misses per shape at a time, so a stretch of
    // host noise lands on all of them alike. Round 0 warms up: the first
    // compiles also fill process-wide tables.
    let mut samples: [[Vec<Duration>; 3]; 4] = Default::default();
    for round in 0..=10 {
        for (sys, cells) in systems.iter().zip(&mut samples) {
            for (shape, cell) in MISS_SHAPES.iter().zip(cells.iter_mut()) {
                let taken = misses(sys, shape, 20, &mut literal);
                if round > 0 {
                    cell.extend(taken);
                }
            }
        }
    }
    let median = |times: &[Duration]| {
        let mut times = times.to_vec();
        times.sort_unstable();
        times[times.len() / 2].as_secs_f64()
    };
    for (n, cells) in sizes.iter().zip(&samples) {
        let cell = |i: usize| {
            let cost = median(&cells[i]);
            let ratio = cost / median(&samples[0][i]);
            format!("{:.0} ({ratio:.2}x)", cost * 1e6)
        };
        println!("{:>8} {:>14} {:>14} {:>14}", n, cell(0), cell(1), cell(2));
    }
    println!("(each cell: the median miss, and its ratio to the miss at 4 sources)");

    println!("\n=== Extensibility: adding source n+1 ===\n");
    let mut sys = synthetic_system(8, 4, 7);
    let q = "SELECT f.cname, f.amount FROM fin3 f WHERE f.amount > 1000";
    let before_axioms = sys.axiom_count();
    let before_sql = sys.mediate(q, "c_recv").unwrap().query.to_string();

    let mut rng = Rng::new(99);
    add_synthetic_source(&mut sys, 8, 4, &mut rng);
    let after_axioms = sys.axiom_count();
    let after_sql = sys.mediate(q, "c_recv").unwrap().query.to_string();

    println!("axioms before: {before_axioms}");
    println!(
        "axioms after : {after_axioms}  (+{} for the new source)",
        after_axioms - before_axioms
    );
    println!(
        "existing mediation unchanged: {}",
        if before_sql == after_sql {
            "yes (byte-identical)"
        } else {
            "NO — regression!"
        }
    );
    assert_eq!(before_sql, after_sql);

    // The new source is immediately queryable.
    let answer = sys
        .query("SELECT f.cname, f.amount FROM fin8 f", "c_recv")
        .unwrap();
    println!(
        "new source immediately queryable: {} rows through mediation",
        answer.table.rows.len()
    );

    println!("\nOK: scalability and extensibility demonstrated.");
}
