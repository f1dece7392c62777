//! EX-ARCH: cross-crate integration of the Figure 1 architecture through
//! the umbrella crate — receiver API → mediation → planning → wrappers →
//! sources, plus communication accounting.

use coin::core::fixtures::figure2_system;
use coin::rel::Value;

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

#[test]
fn all_layers_cooperate_on_q1() {
    let sys = figure2_system();
    let answer = sys.query(Q1, "c_recv").unwrap();

    // Mediation produced the union; the planner decomposed each branch and
    // issued remote sub-queries; the web wrapper served the rate lookups.
    // Seven fetch requests, five distinct: all three branches read the same
    // `r2` projection, which the fetch scheduler sends once.
    assert_eq!(answer.mediated.query.branches().len(), 3);
    assert_eq!(answer.stats.remote_queries, 5, "stats: {:?}", answer.stats);
    assert_eq!(
        answer.table.rows,
        vec![vec![Value::str("NTT"), Value::Float(9_600_000.0)]]
    );
}

#[test]
fn mediated_sql_executes_identically_via_planner_and_single_engine() {
    // The mediated query executed through the distributed planner must
    // agree with executing the same SQL against a single local database
    // holding all three relations (the planner adds distribution, not
    // semantics).
    let sys = figure2_system();
    let mediated = sys.mediate(Q1, "c_recv").unwrap();
    let sql = mediated.query.to_string();

    let (via_planner, _) = sys.query_naive(&sql).unwrap();

    let mut catalog = coin::rel::Catalog::new();
    for table in ["r1", "r2"] {
        let (t, _) = sys.query_naive(&format!("SELECT * FROM {table}")).unwrap();
        catalog.add_table(coin::rel::Table {
            name: table.into(),
            schema: strip_qualifiers(&t.schema),
            rows: t.rows,
        });
    }
    // The rates relation lives behind the web wrapper; fetch the pairs the
    // query could need.
    let mut rates = coin::rel::Table::new(
        "r3",
        coin::rel::Schema::of(&[
            ("fromCur", coin::rel::ColumnType::Str),
            ("toCur", coin::rel::ColumnType::Str),
            ("rate", coin::rel::ColumnType::Float),
        ]),
    );
    for from in ["JPY", "EUR", "GBP", "SGD"] {
        let (t, _) = sys
            .query_naive(&format!(
                "SELECT * FROM r3 WHERE fromCur = '{from}' AND toCur = 'USD'"
            ))
            .unwrap();
        for row in t.rows {
            rates.push(row).unwrap();
        }
    }
    catalog.add_table(rates);
    let local = coin::rel::execute_sql(&sql, &catalog).unwrap();

    assert_eq!(via_planner.rows, local.rows);
}

fn strip_qualifiers(s: &coin::rel::Schema) -> coin::rel::Schema {
    coin::rel::Schema::new(
        s.columns
            .iter()
            .map(|c| {
                let base = c.name.rsplit_once('.').map_or(c.name.as_str(), |(_, b)| b);
                coin::rel::Column::new(base, c.ty)
            })
            .collect(),
    )
}

#[test]
fn planner_stats_show_dependent_web_access() {
    let sys = figure2_system();
    let answer = sys
        .query("SELECT r1.cname, r1.revenue FROM r1", "c_recv")
        .unwrap();
    // Branches referencing r3 fetch it dependently per distinct currency.
    assert!(answer.stats.remote_queries > 2);
    assert!(answer.stats.comm_cost > 0.0);
}

#[test]
fn logic_layer_visible_in_program_text() {
    // The generated logic program — the "explicit codification of the
    // implicit semantics" — prints on demand for any mediated query and
    // must contain the context axioms of both sources.
    let sys = figure2_system();
    let program = &sys.mediation_program(Q1, "c_recv").unwrap();
    assert!(program.contains("mod_val('c_src1'"), "{program}");
    assert!(program.contains("mod_val('c_src2'"), "{program}");
    assert!(program.contains(":- abducible(eqc/2, eq)."), "{program}");
    assert!(program.contains("ic :- eqc(X, V), eqc(X, W)"), "{program}");
    // And it stays loadable by the logic engine.
    coin::logic::Program::from_source(program).unwrap();
}

#[test]
fn pattern_layer_drives_wrapper_extraction() {
    // The regex engine is what actually pulls the rate out of the page.
    let sys = figure2_system();
    let (t, _) = sys
        .query_naive("SELECT rate FROM r3 WHERE fromCur = 'JPY' AND toCur = 'USD'")
        .unwrap();
    assert_eq!(t.rows, vec![vec![Value::Float(0.0096)]]);
}

#[test]
fn sql_layer_roundtrips_every_mediated_query() {
    let sys = figure2_system();
    for sql in [
        Q1,
        "SELECT r1.cname, r1.revenue FROM r1",
        "SELECT r2.cname, r2.expenses FROM r2 WHERE r2.expenses > 1000",
        "SELECT r1.revenue, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname",
    ] {
        let mediated = sys.mediate(sql, "c_recv").unwrap();
        let printed = mediated.query.to_string();
        let reparsed = coin::sql::parse_query(&printed).unwrap();
        assert_eq!(reparsed, mediated.query, "roundtrip of {printed}");
    }
}
