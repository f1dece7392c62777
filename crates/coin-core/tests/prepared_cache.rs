//! Correctness of the prepared-query pipeline and its dependency-tracked
//! plan cache: cached answers must be indistinguishable from freshly
//! mediated ones, every model mutation must invalidate *exactly* the
//! plans that read the mutated part (dependents always recompile,
//! non-dependents keep hitting), eviction must be LRU at the capacity
//! bound, and no interleaving of prepares and mutations may ever serve a
//! stale plan.

use coin_core::fixtures::figure2_system;
use coin_core::{
    CacheStatus, CoinError, ContextTheory, Conversion, Elevation, ModelPart, ModifierSpec, PlanDeps,
};
use coin_rel::Value;
use proptest::prelude::*;

const Q1: &str = "SELECT r1.cname, r1.revenue FROM r1, r2 \
                  WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses";

/// The figure-2 query variants exercised throughout this suite.
const QUERIES: &[&str] = &[
    Q1,
    "SELECT r1.cname, r1.revenue FROM r1",
    "SELECT r1.cname FROM r1 WHERE r1.revenue > 50",
    "SELECT r2.cname, r2.expenses FROM r2",
    "SELECT MAX(r2.expenses) FROM r1, r2 WHERE r1.cname = r2.cname",
];

#[test]
fn cached_answers_match_uncached_across_figure2_fixtures() {
    let cached = figure2_system();
    let uncached = figure2_system();
    uncached.set_cache_capacity(0); // cache disabled: every call recompiles
    for sql in QUERIES {
        // Twice each, so the second cached round is a genuine warm hit.
        for round in 0..2 {
            let a = cached.query(sql, "c_recv").unwrap();
            let b = uncached.query(sql, "c_recv").unwrap();
            assert_eq!(a.table.rows, b.table.rows, "{sql} (round {round})");
            assert_eq!(a.table.schema.len(), b.table.schema.len(), "{sql}");
            assert_eq!(
                a.mediated.query.to_string(),
                b.mediated.query.to_string(),
                "{sql}"
            );
            assert_eq!(b.cache, CacheStatus::Miss, "disabled cache never hits");
        }
    }
    // Warm rounds hit; the disabled cache recorded misses only.
    assert_eq!(cached.cache_stats().hits, QUERIES.len() as u64);
    assert_eq!(uncached.cache_stats().hits, 0);
    assert_eq!(uncached.cache_stats().entries, 0);
}

#[test]
fn query_reports_hit_and_miss_status() {
    let sys = figure2_system();
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Miss);
    let warm = sys.query(Q1, "c_recv").unwrap();
    assert_eq!(warm.cache, CacheStatus::Hit);
    assert_eq!(warm.stats.plan_epoch, sys.epoch());
    assert_eq!(warm.stats.cache_hits, 1);
    assert_eq!(warm.stats.cache_misses, 1);
    // The answer itself is still the paper's corrected answer.
    assert_eq!(warm.table.rows.len(), 1);
    assert_eq!(warm.table.rows[0][0], Value::str("NTT"));
}

/// Every mutating call must bump the epoch and invalidate exactly the
/// plans that depend on the mutated part — administration of parts no
/// cached plan ever read must leave the whole cache hot (the behavior the
/// old whole-cache "epoch hammer" got wrong).
#[test]
fn mutations_invalidate_exactly_dependent_plans() {
    let mut sys = figure2_system();
    // Q1 reads r1+r2+r3, both source contexts, and the currency/
    // scaleFactor conversions. Q_R2 projects only r2's company *name* — a
    // semantic type with no modifiers, so no conversion is ever consulted
    // (any companyFinancials column would consult both conversions even
    // in agreeing contexts: the abductive encoding cites their clauses).
    const Q_R2: &str = "SELECT r2.cname FROM r2";
    sys.query(Q1, "c_recv").unwrap();
    sys.query(Q_R2, "c_recv").unwrap();
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.query(Q_R2, "c_recv").unwrap().cache, CacheStatus::Hit);

    // add_context of a context neither plan consults: epoch advances,
    // nothing invalidated.
    let before = sys.epoch();
    sys.add_context(ContextTheory::new("c_other").set(
        "companyFinancials",
        "currency",
        ModifierSpec::constant("EUR"),
    ))
    .unwrap();
    assert_eq!(sys.epoch(), before + 1);
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.query(Q_R2, "c_recv").unwrap().cache, CacheStatus::Hit);

    // add_source exporting an unrelated table: still nothing invalidated.
    let t = coin_rel::Table::from_rows(
        "extra",
        coin_rel::Schema::of(&[("x", coin_rel::ColumnType::Int)]),
        vec![vec![Value::Int(1)]],
    );
    sys.add_source(coin_wrapper::RelationalSource::new(
        "extra_src",
        coin_rel::Catalog::new().with_table(t),
    ))
    .unwrap();
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.query(Q_R2, "c_recv").unwrap().cache, CacheStatus::Hit);

    // add_elevation of the new relation into the new context: unrelated.
    sys.add_elevation(Elevation::new("extra", "c_other").column("x", "companyFinancials"))
        .unwrap();
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.query(Q_R2, "c_recv").unwrap().cache, CacheStatus::Hit);

    // A rejected mutation must neither bump nor invalidate.
    let before = sys.epoch();
    sys.add_elevation(Elevation::new("r2", "c_other").column("cname", "companyName"))
        .unwrap_err(); // r2 already has an elevation
    assert_eq!(sys.epoch(), before);
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.query(Q_R2, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.cache_stats().invalidations, 0);

    // replace_conversion of the currency lookup: Q1 consulted it, Q_R2
    // never did — exactly one plan recompiles.
    let before = sys.epoch();
    sys.replace_conversion(
        "currency",
        Conversion::Lookup {
            relation: "r3".into(),
            from_col: "toCur".into(), // swapped orientation: a real change
            to_col: "fromCur".into(),
            factor_col: "rate".into(),
        },
    )
    .unwrap();
    assert_eq!(sys.epoch(), before + 1);
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Miss);
    assert_eq!(sys.query(Q_R2, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.cache_stats().invalidations, 1);
}

/// A caller-held `PreparedQuery` refuses to execute after one of its
/// *dependencies* changes rather than serving answers mediated against
/// outdated axioms — while mutations of parts it never read leave it
/// executable.
#[test]
fn stale_prepared_query_refuses_to_execute() {
    let mut sys = figure2_system();
    let prepared = sys.prepare(Q1, "c_recv").unwrap();
    assert!(prepared.is_current(&sys));
    assert_eq!(prepared.execute(&sys).unwrap().table.rows.len(), 1);

    // A part this plan never read: still current, still executable.
    sys.add_context(ContextTheory::new("c_unrelated").set(
        "companyFinancials",
        "currency",
        ModifierSpec::constant("EUR"),
    ))
    .unwrap();
    assert!(prepared.is_current(&sys));
    assert_eq!(prepared.execute(&sys).unwrap().table.rows.len(), 1);

    // The currency conversion is a dependency of this plan.
    sys.replace_conversion("currency", currency_lookup(true))
        .unwrap();
    assert!(!prepared.is_current(&sys));
    match prepared.execute(&sys) {
        Err(CoinError::StalePlan {
            prepared: p,
            current,
        }) => {
            assert!(p < current);
        }
        other => panic!("expected StalePlan, got {other:?}"),
    }
    // Restoring the conversion is a further change, not an undo: the old
    // plan stays stale, and re-preparing recovers.
    sys.replace_conversion("currency", currency_lookup(false))
        .unwrap();
    assert!(matches!(
        prepared.execute(&sys),
        Err(CoinError::StalePlan { .. })
    ));
    let fresh = sys.prepare(Q1, "c_recv").unwrap();
    assert!(fresh.is_current(&sys));
    let answer = fresh.execute(&sys).unwrap();
    assert_eq!(answer.table.rows.len(), 1);
    assert_eq!(answer.table.rows[0][0], Value::str("NTT"));
}

/// Satellite regression: semantically-unchanged administration is a
/// no-op — no epoch bump, no invalidation, cached plans stay live.
#[test]
fn noop_administration_leaves_cached_plans_live() {
    let mut sys = figure2_system();
    sys.query(Q1, "c_recv").unwrap();
    let epoch = sys.epoch();

    // Replacing a conversion with an identical one.
    sys.replace_conversion(
        "currency",
        Conversion::Lookup {
            relation: "r3".into(),
            from_col: "fromCur".into(),
            to_col: "toCur".into(),
            factor_col: "rate".into(),
        },
    )
    .unwrap();
    assert_eq!(sys.epoch(), epoch);
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(sys.cache_stats().invalidations, 0);
}

/// The `add_conversion`/`replace_conversion` split: registering over an
/// existing conversion is rejected (no silent overwrite), replacing an
/// unregistered one is rejected, and neither rejection touches the model
/// or the cache.
#[test]
fn conversion_registration_rejects_silent_overwrite() {
    let mut sys = figure2_system();
    sys.query(Q1, "c_recv").unwrap();
    let epoch = sys.epoch();

    // Already registered: must go through replace_conversion.
    assert!(sys
        .add_conversion("scaleFactor", Conversion::Ratio)
        .is_err());
    // Unknown modifier: no semantic type declares it.
    assert!(sys.add_conversion("flavour", Conversion::Ratio).is_err());
    // Replace of a modifier that has no conversion yet.
    assert!(sys.replace_conversion("nope", Conversion::Ratio).is_err());
    // Lookup conversions must name their relation and columns.
    assert!(sys
        .replace_conversion(
            "currency",
            Conversion::Lookup {
                relation: String::new(),
                from_col: "a".into(),
                to_col: "b".into(),
                factor_col: "c".into(),
            },
        )
        .is_err());

    // None of the rejections changed anything.
    assert_eq!(sys.epoch(), epoch);
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Hit);
}

/// A plan compiled on one system must not execute against a *different*
/// system, even when the two epochs coincide (same administration count).
#[test]
fn prepared_query_is_bound_to_its_system_instance() {
    let sys_a = figure2_system();
    let sys_b = figure2_system();
    assert_eq!(sys_a.epoch(), sys_b.epoch(), "identically administered");
    let prepared = sys_a.prepare(Q1, "c_recv").unwrap();
    assert!(prepared.is_current(&sys_a));
    assert!(!prepared.is_current(&sys_b));
    assert!(matches!(
        prepared.execute(&sys_b),
        Err(CoinError::ForeignPlan)
    ));
}

#[test]
fn lru_eviction_at_capacity() {
    let sys = figure2_system();
    sys.set_cache_capacity(2);
    let (a, b, c) = (QUERIES[0], QUERIES[1], QUERIES[2]);

    sys.prepare(a, "c_recv").unwrap(); // miss {a}
    sys.prepare(b, "c_recv").unwrap(); // miss {a,b}
    sys.prepare(a, "c_recv").unwrap(); // hit — a is now most recent
    sys.prepare(c, "c_recv").unwrap(); // miss — evicts LRU = b
    assert_eq!(sys.cache_stats().entries, 2);
    assert_eq!(sys.cache_stats().evictions, 1);

    // a survived (recently used), b was evicted, c is resident.
    assert_eq!(
        sys.query(a, "c_recv").unwrap().cache,
        CacheStatus::Hit,
        "recently-used entry must survive eviction"
    );
    assert_eq!(sys.query(c, "c_recv").unwrap().cache, CacheStatus::Hit);
    assert_eq!(
        sys.query(b, "c_recv").unwrap().cache,
        CacheStatus::Miss,
        "LRU entry must have been evicted"
    );
}

#[test]
fn shrinking_capacity_evicts_down() {
    let sys = figure2_system();
    for sql in QUERIES {
        sys.prepare(sql, "c_recv").unwrap();
    }
    assert_eq!(sys.cache_stats().entries, QUERIES.len());
    sys.set_cache_capacity(1);
    assert_eq!(sys.cache_stats().entries, 1);
    // The survivor is the most recently used: the last prepared query.
    assert_eq!(
        sys.query(QUERIES[QUERIES.len() - 1], "c_recv")
            .unwrap()
            .cache,
        CacheStatus::Hit
    );
}

/// Mutations that target a receiver context the cached query *uses* must
/// change the mediated SQL, not just the epoch — end-to-end proof that
/// invalidation forces a genuine re-mediation.
#[test]
fn invalidation_remediates_against_new_axioms() {
    let mut sys = figure2_system();
    let before = sys.query(Q1, "c_recv").unwrap();
    // Replace the currency conversion with a blunt Ratio conversion: the
    // re-mediated query must no longer join the rates relation.
    assert!(before.mediated.query.to_string().contains("r3"));
    sys.replace_conversion("currency", Conversion::Ratio)
        .unwrap();
    let (prepared, status) = sys.prepare_with_status(Q1, "c_recv").unwrap();
    assert_eq!(status, CacheStatus::Miss);
    assert_ne!(
        before.mediated.query.to_string(),
        prepared.mediated().query.to_string(),
        "mutation must force a different rewriting"
    );
    assert!(
        !prepared.mediated().query.to_string().contains("r3"),
        "re-mediation must reflect the new conversion axioms"
    );
}

/// The currency lookup in its two orientations — flip-flopping between
/// them makes every `replace_conversion` a real change while keeping the
/// system executable (r3 carries rates in both directions).
fn currency_lookup(swapped: bool) -> Conversion {
    let (from, to) = if swapped {
        ("toCur", "fromCur")
    } else {
        ("fromCur", "toCur")
    };
    Conversion::Lookup {
        relation: "r3".into(),
        from_col: from.into(),
        to_col: to.into(),
        factor_col: "rate".into(),
    }
}

/// Drop the prediction for every resident plan whose recorded footprint
/// intersects the mutated parts — the test-side oracle mirror of
/// `QueryCache::invalidate_dependents`.
fn predict_invalidation(resident: &mut [Option<PlanDeps>], parts: &[ModelPart]) {
    for slot in resident.iter_mut() {
        if slot
            .as_ref()
            .is_some_and(|deps| parts.iter().any(|p| deps.contains(p)))
        {
            *slot = None;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// Interleave prepares and random admin mutations arbitrarily: a
    /// mutation must invalidate *exactly* the dependent plans — every
    /// dependent recompiles (never serves stale), every non-dependent
    /// keeps hitting — and every served answer must equal the one from an
    /// oracle that recompiles from scratch, uncached, on each access.
    #[test]
    fn interleaved_prepares_and_mutations_never_serve_stale_plans(
        ops in prop::collection::vec((0usize..QUERIES.len(), 0usize..7), 1..16),
    ) {
        let mut sys = figure2_system();
        // Capacity above the working set, so every predicted miss is an
        // invalidation effect and never an LRU eviction.
        sys.set_cache_capacity(64);
        // Per-query prediction: Some(recorded footprint) while a live
        // entry must be resident, None when the next access must compile.
        let mut resident: Vec<Option<PlanDeps>> = vec![None; QUERIES.len()];
        let mut fresh_names = 0usize;
        let mut swapped = false;
        for (qi, action) in ops {
            match action {
                // A fresh context: no existing plan can depend on it.
                0 => {
                    fresh_names += 1;
                    let name = format!("c_mut{fresh_names}");
                    sys.add_context(ContextTheory::new(&name).set(
                        "companyFinancials",
                        "currency",
                        ModifierSpec::constant("EUR"),
                    ))
                    .unwrap();
                    predict_invalidation(&mut resident, &[ModelPart::Context(name)]);
                }
                // A fresh source exporting a fresh table: same.
                1 => {
                    fresh_names += 1;
                    let table = format!("aux{fresh_names}");
                    let t = coin_rel::Table::from_rows(
                        &table,
                        coin_rel::Schema::of(&[("x", coin_rel::ColumnType::Int)]),
                        vec![vec![Value::Int(1)]],
                    );
                    sys.add_source(coin_wrapper::RelationalSource::new(
                        &format!("aux_src{fresh_names}"),
                        coin_rel::Catalog::new().with_table(t),
                    ))
                    .unwrap();
                    predict_invalidation(&mut resident, &[ModelPart::Relation(table)]);
                }
                // Flip the currency lookup's orientation: a real change —
                // exactly the plans that consulted the conversion recompile.
                2 => {
                    swapped = !swapped;
                    sys.replace_conversion("currency", currency_lookup(swapped)).unwrap();
                    predict_invalidation(
                        &mut resident,
                        &[ModelPart::Conversion("currency".into())],
                    );
                }
                // Re-register the identical conversion: semantically
                // unchanged, must invalidate nothing.
                3 => {
                    sys.replace_conversion("currency", currency_lookup(swapped)).unwrap();
                }
                // Prepare through the cache, check the hit/miss outcome
                // against the prediction, and cross-check the answer
                // against the recompile-everything oracle.
                _ => {
                    let sql = QUERIES[qi];
                    let expected = match &resident[qi] {
                        Some(_) => CacheStatus::Hit,
                        None => CacheStatus::Miss,
                    };
                    let (prepared, status) = sys.prepare_with_status(sql, "c_recv").unwrap();
                    prop_assert_eq!(
                        status,
                        expected,
                        "wrong invalidation granule for {}", sql
                    );
                    prop_assert!(prepared.is_current(&sys), "cache served a stale plan");
                    resident[qi] = Some(prepared.deps().clone());
                    let via_cache = prepared.execute(&sys).unwrap();
                    let oracle = sys.prepare_uncached(sql, "c_recv").unwrap();
                    let direct = oracle.execute(&sys).unwrap();
                    prop_assert_eq!(&via_cache.table.rows, &direct.table.rows, "{}", sql);
                    prop_assert_eq!(
                        via_cache.mediated.query.to_string(),
                        direct.mediated.query.to_string()
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical cache keys: spelling variants of one query share a plan
// ---------------------------------------------------------------------------

#[test]
fn whitespace_and_case_variants_share_one_cache_entry() {
    let sys = figure2_system();
    // Four spellings of Q1: extra whitespace, lower-cased keywords, and
    // redundant parentheses around the conjuncts.
    let variants = [
        Q1.to_owned(),
        Q1.replace(' ', "  "),
        "select r1.cname, r1.revenue from r1, r2 \
         where r1.cname = r2.cname and r1.revenue > r2.expenses"
            .to_owned(),
        "SELECT r1.cname, r1.revenue FROM r1, r2 \
         WHERE (r1.cname = r2.cname) AND (r1.revenue > r2.expenses)"
            .to_owned(),
    ];
    let first = sys.query(&variants[0], "c_recv").unwrap();
    assert_eq!(first.cache, CacheStatus::Miss);
    for v in &variants[1..] {
        let a = sys.query(v, "c_recv").unwrap();
        assert_eq!(a.cache, CacheStatus::Hit, "variant did not share: {v}");
        assert_eq!(a.table.rows, first.table.rows);
    }
    let stats = sys.cache_stats();
    assert_eq!(stats.entries, 1, "one canonical entry for all spellings");
    assert_eq!(stats.compiles, 1, "compiled exactly once");
    assert_eq!(stats.hits, (variants.len() - 1) as u64);
}

#[test]
fn canonical_key_still_separates_distinct_queries() {
    let sys = figure2_system();
    assert_eq!(sys.query(Q1, "c_recv").unwrap().cache, CacheStatus::Miss);
    // Genuinely different queries must not collide.
    assert_eq!(
        sys.query("SELECT r1.cname, r1.revenue FROM r1", "c_recv")
            .unwrap()
            .cache,
        CacheStatus::Miss
    );
    assert_eq!(sys.cache_stats().entries, 2);
}

#[test]
fn int_and_float_literals_never_share_a_canonical_key() {
    // 1e16 is integral, and f64 Display prints it without a fraction —
    // byte-identical to the i64 literal. The canonical printer must keep
    // the two distinguishable or an int-comparand query would execute a
    // float-comparand plan from the cache.
    let sys = figure2_system();
    let int_q = "SELECT r1.cname FROM r1 WHERE r1.revenue = 10000000000000000";
    let float_q = "SELECT r1.cname FROM r1 WHERE r1.revenue = 10000000000000000.0";
    assert_ne!(
        coin_sql::parse_query(int_q).unwrap().to_string(),
        coin_sql::parse_query(float_q).unwrap().to_string()
    );
    assert_eq!(sys.query(int_q, "c_recv").unwrap().cache, CacheStatus::Miss);
    assert_eq!(
        sys.query(float_q, "c_recv").unwrap().cache,
        CacheStatus::Miss,
        "float-literal variant must compile its own plan"
    );
    assert_eq!(sys.cache_stats().entries, 2);
}

#[test]
fn prepared_sql_reports_canonical_text() {
    let sys = figure2_system();
    let sloppy = "select   r1.cname from r1  where r1.revenue > 50";
    let prepared = sys.prepare(sloppy, "c_recv").unwrap();
    // The artifact's identity is the canonical printed AST, not the
    // caller's spelling.
    assert_eq!(
        prepared.sql(),
        coin_sql::parse_query(sloppy).unwrap().to_string()
    );
    assert_ne!(prepared.sql(), sloppy);
}
