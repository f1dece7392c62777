//! Quickstart: the paper's §3 worked example, end to end.
//!
//! Reproduces Figure 2 exactly: two company-financials sources with
//! conflicting contexts, the ancillary exchange-rate web source, the naive
//! (wrong, empty) answer, the mediated 3-way union, and the correct answer
//! ⟨'NTT', 9 600 000⟩.
//!
//! Run with: `cargo run --example quickstart`

use coin::core::fixtures::figure2_system;

fn main() {
    let sys = figure2_system();

    println!("=== The COntext INterchange Mediator Prototype (SIGMOD '97) ===\n");
    println!("Sources registered with the mediation services:");
    for (source, table, schema) in sys.dictionary().listing() {
        let cols: Vec<String> = schema
            .columns
            .iter()
            .map(|c| {
                format!(
                    "{} {}",
                    c.name.rsplit_once('.').map_or(c.name.as_str(), |(_, b)| b),
                    c.ty.name()
                )
            })
            .collect();
        println!("  {source}.{table}({})", cols.join(", "));
    }

    println!("\nSource contents (Figure 2):");
    for table in ["r1", "r2"] {
        let (t, _) = sys.query_naive(&format!("SELECT * FROM {table}")).unwrap();
        println!("-- {table} --\n{}", t.render());
    }

    // The receiver's query, posed under the assumption that there are no
    // conflicts between sources whatsoever (paper §1).
    let q1 = "SELECT r1.cname, r1.revenue FROM r1, r2 \
              WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";
    println!("Receiver query Q1 (context c_recv — USD, scale 1):\n  {q1}\n");

    // Naive execution: the (empty) answer "is clearly not a correct answer
    // since the revenue of NTT … is numerically larger than the expenses
    // reported in r2" (paper §3).
    let (naive, _) = sys.query_naive(q1).unwrap();
    println!("Naive execution (no mediation): {} rows", naive.rows.len());

    // Context mediation: detect and resolve the conflicts.
    let answer = sys.query(q1, "c_recv").unwrap();
    println!("\nThe context mediator rewrote Q1 into:");
    let union = if answer.mediated.query.keeps_duplicates() {
        "UNION ALL"
    } else {
        "UNION"
    };
    for (i, branch) in answer.mediated.query.branches().iter().enumerate() {
        if i > 0 {
            println!("{union}");
        }
        println!("  {branch}");
    }
    println!("\nMediation explanation:\n{}", answer.mediated.explain());

    println!("Mediated answer:\n{}", answer.table.render());
    println!(
        "NTT's revenue is reported as {} (= 1,000,000 × 1,000 × 0.0096) in the \
         receiver's context,\nexactly as in the paper.",
        answer.table.rows[0][1].render()
    );

    assert_eq!(answer.table.rows.len(), 1);
    assert_eq!(answer.table.rows[0][0], coin::rel::Value::str("NTT"));
    assert_eq!(
        answer.table.rows[0][1],
        coin::rel::Value::Float(9_600_000.0)
    );
    println!("\nOK: answer matches the paper.");
}
