//! Mediation output pinned byte for byte: the Figure-2 queries (the
//! paper's Q1, a literal filter, a plain converted projection, an
//! arithmetic projection under BETWEEN) and the benchmark's synthetic 1-,
//! 2- and 3-table threshold shapes. Each case's mediated SQL, explanation
//! (abduced variable numbers included) and statement count are the text the
//! mediator printed when it still assembled its logic program as text and
//! parsed it back; the printed program loads back into the very clauses the
//! mediator solved. The one change since: cases that a column tells apart
//! are combined with `UNION ALL`, which keeps the receiver's duplicates.

use coin_core::fixtures::{figure2_system, synthetic_system};
use coin_core::{CoinSystem, Mediator};
use coin_logic::{Clause, Program};
use coin_sql::Query;

struct Case {
    sql: &'static str,
    sql_text: &'static str,
    explanation: &'static str,
    statements: usize,
}

const FIGURE2: &[Case] = &[
    Case {
        sql: "SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.cname = r2.cname AND rl.revenue > r2.expenses",
        sql_text: "SELECT rl.cname, rl.revenue * 1000 * r3.rate FROM r1 rl, r2, r3 WHERE rl.currency = 'JPY' AND rl.cname = r2.cname AND r3.fromCur = rl.currency AND r3.toCur = 'USD' AND rl.revenue * 1000 * r3.rate > r2.expenses UNION ALL SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.currency = 'USD' AND rl.cname = r2.cname AND rl.revenue > r2.expenses UNION ALL SELECT rl.cname, rl.revenue * r3.rate FROM r1 rl, r2, r3 WHERE rl.currency <> 'JPY' AND rl.currency <> 'USD' AND rl.cname = r2.cname AND r3.fromCur = rl.currency AND r3.toCur = 'USD' AND rl.revenue * r3.rate > r2.expenses",
        explanation: "mediated into 3 sub-queries:\ncase 1:\n  assume currency conversion via r3 (anc_currency(col(rl, currency), \"USD\", _V32))\n  assume eqc(col(rl, currency), \"JPY\")\n  assume neqc(col(rl, currency), \"USD\")\n  assume eqc(col(rl, cname), col(r2, cname))\n  check  *(*(col(rl, revenue), 1000), _V32) > col(r2, expenses)\n  SELECT rl.cname, rl.revenue * 1000 * r3.rate FROM r1 rl, r2, r3 WHERE rl.currency = 'JPY' AND rl.cname = r2.cname AND r3.fromCur = rl.currency AND r3.toCur = 'USD' AND rl.revenue * 1000 * r3.rate > r2.expenses\ncase 2:\n  assume neqc(col(rl, currency), \"JPY\")\n  assume eqc(col(rl, currency), \"USD\")\n  assume eqc(col(rl, cname), col(r2, cname))\n  check  col(rl, revenue) > col(r2, expenses)\n  SELECT rl.cname, rl.revenue FROM r1 rl, r2 WHERE rl.currency = 'USD' AND rl.cname = r2.cname AND rl.revenue > r2.expenses\ncase 3:\n  assume currency conversion via r3 (anc_currency(col(rl, currency), \"USD\", _V135))\n  assume neqc(col(rl, currency), \"JPY\")\n  assume neqc(col(rl, currency), \"USD\")\n  assume eqc(col(rl, cname), col(r2, cname))\n  check  *(col(rl, revenue), _V135) > col(r2, expenses)\n  SELECT rl.cname, rl.revenue * r3.rate FROM r1 rl, r2, r3 WHERE rl.currency <> 'JPY' AND rl.currency <> 'USD' AND rl.cname = r2.cname AND r3.fromCur = rl.currency AND r3.toCur = 'USD' AND rl.revenue * r3.rate > r2.expenses\n",
        statements: 18,
    },
    Case {
        sql: "SELECT r1.cname, r1.revenue FROM r1 WHERE r1.currency = 'JPY'",
        sql_text: "SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r3 WHERE r1.currency = 'JPY' AND r3.fromCur = r1.currency AND r3.toCur = 'USD'",
        explanation: "mediated into 1 sub-query:\ncase 1:\n  assume currency conversion via r3 (anc_currency(col(r1, currency), \"USD\", _V31))\n  assume eqc(col(r1, currency), \"JPY\")\n  assume neqc(col(r1, currency), \"USD\")\n  SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r3 WHERE r1.currency = 'JPY' AND r3.fromCur = r1.currency AND r3.toCur = 'USD'\n",
        statements: 15,
    },
    Case {
        sql: "SELECT r1.cname, r1.revenue FROM r1",
        sql_text: "SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r3 WHERE r1.currency = 'JPY' AND r3.fromCur = r1.currency AND r3.toCur = 'USD' UNION ALL SELECT r1.cname, r1.revenue FROM r1 WHERE r1.currency = 'USD' UNION ALL SELECT r1.cname, r1.revenue * r3.rate FROM r1, r3 WHERE r1.currency <> 'JPY' AND r1.currency <> 'USD' AND r3.fromCur = r1.currency AND r3.toCur = 'USD'",
        explanation: "mediated into 3 sub-queries:\ncase 1:\n  assume currency conversion via r3 (anc_currency(col(r1, currency), \"USD\", _V30))\n  assume eqc(col(r1, currency), \"JPY\")\n  assume neqc(col(r1, currency), \"USD\")\n  SELECT r1.cname, r1.revenue * 1000 * r3.rate FROM r1, r3 WHERE r1.currency = 'JPY' AND r3.fromCur = r1.currency AND r3.toCur = 'USD'\ncase 2:\n  assume neqc(col(r1, currency), \"JPY\")\n  assume eqc(col(r1, currency), \"USD\")\n  SELECT r1.cname, r1.revenue FROM r1 WHERE r1.currency = 'USD'\ncase 3:\n  assume currency conversion via r3 (anc_currency(col(r1, currency), \"USD\", _V61))\n  assume neqc(col(r1, currency), \"JPY\")\n  assume neqc(col(r1, currency), \"USD\")\n  SELECT r1.cname, r1.revenue * r3.rate FROM r1, r3 WHERE r1.currency <> 'JPY' AND r1.currency <> 'USD' AND r3.fromCur = r1.currency AND r3.toCur = 'USD'\n",
        statements: 14,
    },
    Case {
        sql: "SELECT r2.cname, r2.expenses * 2 FROM r2 WHERE r2.expenses BETWEEN 1000 AND 5000000",
        sql_text: "SELECT r2.cname, r2.expenses * 2 FROM r2 WHERE r2.expenses >= 1000 AND r2.expenses <= 5000000",
        explanation: "mediated into 1 sub-query:\ncase 1:\n  assumptions: (none — contexts agree)\n  check  col(r2, expenses) >= 1000\n  check  col(r2, expenses) =< 5000000\n  SELECT r2.cname, r2.expenses * 2 FROM r2 WHERE r2.expenses >= 1000 AND r2.expenses <= 5000000\n",
        statements: 13,
    },
];

const SYNTHETIC: &[Case] = &[
    Case {
        sql: "SELECT a.cname, a.amount FROM fin1 a WHERE a.amount > 3.3137",
        sql_text: "SELECT a.cname, a.amount * 1000 * rates.rate FROM fin1 a, rates WHERE rates.fromCur = 'JPY' AND rates.toCur = 'USD' AND a.amount * 1000 * rates.rate > 3.3137",
        explanation: "mediated into 1 sub-query:\ncase 1:\n  assume currency conversion via rates (anc_currency(\"JPY\", \"USD\", _V22))\n  check  *(*(col(a, amount), 1000), _V22) > 3.3137\n  SELECT a.cname, a.amount * 1000 * rates.rate FROM fin1 a, rates WHERE rates.fromCur = 'JPY' AND rates.toCur = 'USD' AND a.amount * 1000 * rates.rate > 3.3137\n",
        statements: 13,
    },
    Case {
        sql: "SELECT a.cname, a.amount, b.amount FROM fin2 a, fin0 b WHERE a.cname = b.cname AND a.amount > 70.3137",
        sql_text: "SELECT a.cname, a.amount * 1000000 * rates.rate, b.amount FROM fin2 a, fin0 b, rates WHERE a.cname = b.cname AND rates.fromCur = 'EUR' AND rates.toCur = 'USD' AND a.amount * 1000000 * rates.rate > 70.3137",
        explanation: "mediated into 1 sub-query:\ncase 1:\n  assume currency conversion via rates (anc_currency(\"EUR\", \"USD\", _V25))\n  assume eqc(col(a, cname), col(b, cname))\n  check  *(*(col(a, amount), 1000000), _V25) > 70.3137\n  SELECT a.cname, a.amount * 1000000 * rates.rate, b.amount FROM fin2 a, fin0 b, rates WHERE a.cname = b.cname AND rates.fromCur = 'EUR' AND rates.toCur = 'USD' AND a.amount * 1000000 * rates.rate > 70.3137\n",
        statements: 17,
    },
    Case {
        sql: "SELECT a.cname, a.amount, b.amount, c.amount FROM fin3 a, fin4 b, fin1 c WHERE a.cname = b.cname AND b.cname = c.cname AND a.amount > 65.3137",
        sql_text: "SELECT a.cname, a.amount * rates.rate, b.amount * 1000 * rates_2.rate, c.amount * 1000 * rates_3.rate FROM fin3 a, fin4 b, fin1 c, rates, rates rates_2, rates rates_3 WHERE a.cname = b.cname AND b.cname = c.cname AND rates.fromCur = 'GBP' AND rates.toCur = 'USD' AND rates_2.fromCur = 'SGD' AND rates_2.toCur = 'USD' AND rates_3.fromCur = 'JPY' AND rates_3.toCur = 'USD' AND a.amount * rates.rate > 65.3137",
        explanation: "mediated into 1 sub-query:\ncase 1:\n  assume currency conversion via rates (anc_currency(\"GBP\", \"USD\", _V24))\n  assume currency conversion via rates (anc_currency(\"SGD\", \"USD\", _V52))\n  assume currency conversion via rates (anc_currency(\"JPY\", \"USD\", _V84))\n  assume eqc(col(a, cname), col(b, cname))\n  assume eqc(col(b, cname), col(c, cname))\n  check  *(col(a, amount), _V24) > 65.3137\n  SELECT a.cname, a.amount * rates.rate, b.amount * 1000 * rates_2.rate, c.amount * 1000 * rates_3.rate FROM fin3 a, fin4 b, fin1 c, rates, rates rates_2, rates rates_3 WHERE a.cname = b.cname AND b.cname = c.cname AND rates.fromCur = 'GBP' AND rates.toCur = 'USD' AND rates_2.fromCur = 'SGD' AND rates_2.toCur = 'USD' AND rates_3.fromCur = 'JPY' AND rates_3.toCur = 'USD' AND a.amount * rates.rate > 65.3137\n",
        statements: 21,
    },
];

fn systems() -> [(CoinSystem, &'static [Case]); 2] {
    [
        (figure2_system(), FIGURE2),
        (synthetic_system(5, 4, 1), SYNTHETIC),
    ]
}

#[test]
fn mediation_output_is_unchanged() {
    for (sys, cases) in systems() {
        for case in cases {
            let prepared = sys.prepare(case.sql, "c_recv").unwrap();
            let mediated = prepared.mediated();
            assert_eq!(mediated.sql_text(), case.sql_text, "{}", case.sql);
            assert_eq!(mediated.explanation(), case.explanation, "{}", case.sql);
            assert_eq!(mediated.statements, case.statements, "{}", case.sql);
        }
    }
}

/// `a` and `b` hold the same clauses, integrity constraints and abducible
/// declarations.
fn assert_same_program(a: &Program, b: &Program, sql: &str) {
    let mut keys: Vec<_> = a.kb.iter().map(Clause::key).collect();
    keys.sort_by_key(|&(name, arity)| (name.as_str(), arity));
    keys.dedup();
    assert_eq!(a.kb.len(), b.kb.len(), "{sql}");
    for key in keys {
        assert_eq!(a.kb.clauses_for(key), b.kb.clauses_for(key), "{sql}");
    }
    assert_eq!(a.ics(), b.ics(), "{sql}");
    let abducibles = |p: &Program| {
        let mut v: Vec<_> = p
            .abducibles()
            .map(|((name, arity), spec)| (name.as_str(), arity, spec.ground))
            .collect();
        v.sort_by_key(|&(name, arity, _)| (name, arity));
        v
    };
    assert_eq!(abducibles(a), abducibles(b), "{sql}");
}

#[test]
fn printed_program_loads_back_into_the_clauses_mediation_solves() {
    for (sys, cases) in systems() {
        let mediator = Mediator::new(
            sys.domain(),
            sys.conversions(),
            sys.contexts(),
            sys.elevations(),
        );
        for case in cases {
            let Query::Select(select) = coin_sql::parse_query(case.sql).unwrap() else {
                panic!("{} is a single SELECT", case.sql);
            };
            let built = mediator
                .program(&select, "c_recv", sys.dictionary())
                .unwrap();
            let text = sys.mediation_program(case.sql, "c_recv").unwrap();
            let parsed = Program::from_source(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_same_program(&built, &parsed, case.sql);
            let abducibles = built.abducibles().count();
            assert_eq!(
                built.statement_count() + abducibles,
                case.statements,
                "{}",
                case.sql
            );
        }
    }
}
