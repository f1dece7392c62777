//! Ready-made COIN deployments used by tests, examples and benchmarks.
//!
//! * [`figure2_system`] — the exact scenario of paper §3 / Figure 2;
//! * [`synthetic_system`] — a parameterized n-source deployment for the
//!   scalability/extensibility experiments (EX-SCALE, EX-EXT).

use std::sync::Arc;

use coin_rel::{Catalog, ColumnType, Schema, Table, Value};
use coin_wrapper::{figure2_rates_source, RelationalSource, SimWeb, Source, SourceRef};

use crate::model::{ContextTheory, Conversion, Elevation, ModifierSpec};
use crate::system::CoinSystem;

/// The Figure 2 deployment: two company-financials databases with
/// conflicting contexts, the ancillary exchange-rate web source, and a
/// receiver context using USD with scale-factor 1.
///
/// * Source 1 (`r1`): financials in the currency shown in the `currency`
///   column; scale-factor 1000 when that currency is JPY, 1 otherwise.
/// * Source 2 (`r2`): financials in USD, scale-factor 1.
/// * `r3` (web): exchange rates.
/// * Receiver context `c_recv`: USD, scale-factor 1.
pub fn figure2_system() -> CoinSystem {
    figure2_system_with(|source| source)
}

/// [`figure2_system`] with every source passed through `decorate` before it
/// is registered — the hook for latency- and fault-injecting decorators.
pub fn figure2_system_with<S: Source + 'static>(
    mut decorate: impl FnMut(SourceRef) -> S,
) -> CoinSystem {
    let (domain, conversions) = crate::model::figure2_domain();
    let mut sys = CoinSystem::new(domain);
    for (m, c) in conversions.iter() {
        sys.add_conversion(m, c.clone())
            .expect("fixture conversions are fresh and valid");
    }

    // ---- sources ---------------------------------------------------------
    let r1 = Table::from_rows(
        "r1",
        Schema::of(&[
            ("cname", ColumnType::Str),
            ("revenue", ColumnType::Int),
            ("currency", ColumnType::Str),
        ]),
        vec![
            vec![
                Value::str("IBM"),
                Value::Int(100_000_000),
                Value::str("USD"),
            ],
            vec![Value::str("NTT"), Value::Int(1_000_000), Value::str("JPY")],
        ],
    );
    let r2 = Table::from_rows(
        "r2",
        Schema::of(&[("cname", ColumnType::Str), ("expenses", ColumnType::Int)]),
        vec![
            vec![Value::str("IBM"), Value::Int(1_500_000_000)],
            vec![Value::str("NTT"), Value::Int(5_000_000)],
        ],
    );
    let sources: [SourceRef; 3] = [
        Arc::new(RelationalSource::new(
            "worldscope",
            Catalog::new().with_table(r1),
        )),
        Arc::new(RelationalSource::new(
            "disclosure",
            Catalog::new().with_table(r2),
        )),
        Arc::new(figure2_rates_source(&SimWeb::new())),
    ];
    for source in sources {
        sys.add_source(decorate(source)).unwrap();
    }

    // ---- contexts ----------------------------------------------------------
    sys.add_context(
        ContextTheory::new("c_src1")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::from_attribute("currency"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::if_attr_eq(
                    "currency",
                    "JPY",
                    ModifierSpec::constant(1000i64),
                    ModifierSpec::constant(1i64),
                ),
            ),
    )
    .unwrap();
    sys.add_context(
        ContextTheory::new("c_src2")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant("USD"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(1i64),
            ),
    )
    .unwrap();
    sys.add_context(
        ContextTheory::new("c_recv")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant("USD"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(1i64),
            ),
    )
    .unwrap();

    // ---- elevation axioms ---------------------------------------------------
    sys.add_elevation(
        Elevation::new("r1", "c_src1")
            .column("cname", "companyName")
            .column("revenue", "companyFinancials")
            .column("currency", "currencyType"),
    )
    .unwrap();
    sys.add_elevation(
        Elevation::new("r2", "c_src2")
            .column("cname", "companyName")
            .column("expenses", "companyFinancials"),
    )
    .unwrap();
    sys.add_elevation(
        Elevation::new("r3", "c_recv")
            .column("fromCur", "currencyType")
            .column("toCur", "currencyType")
            .column("rate", "exchangeRate"),
    )
    .unwrap();

    sys
}

/// Deterministic pseudo-random generator (xorshift) for fixture data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Currencies used by synthetic deployments.
pub const CURRENCIES: &[&str] = &["USD", "JPY", "EUR", "GBP", "SGD"];

/// Build a synthetic COIN deployment with `n_sources` financial databases,
/// each in its own context (currency + scale factor drawn deterministically
/// from the seed), one shared rates source, and a USD/1 receiver context.
///
/// Each source `src<i>` exports `fin<i>(cname, amount)` with `rows_per`
/// rows. Contexts cycle through currencies and scale factors {1, 1000,
/// 1000000}. Used by EX-SCALE and EX-EXT.
pub fn synthetic_system(n_sources: usize, rows_per: usize, seed: u64) -> CoinSystem {
    let (domain, conversions) = crate::model::figure2_domain();
    let mut sys = CoinSystem::new(domain);
    for (m, c) in conversions.iter() {
        match c {
            Conversion::Lookup {
                from_col,
                to_col,
                factor_col,
                ..
            } => sys.add_conversion(
                m,
                Conversion::Lookup {
                    relation: "rates".into(),
                    from_col: from_col.clone(),
                    to_col: to_col.clone(),
                    factor_col: factor_col.clone(),
                },
            ),
            other => sys.add_conversion(m, other.clone()),
        }
        .expect("fixture conversions are fresh and valid");
    }
    let mut rng = Rng::new(seed);

    // Receiver context.
    sys.add_context(
        ContextTheory::new("c_recv")
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant("USD"),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(1i64),
            ),
    )
    .unwrap();

    // Shared rate table (relational stand-in for the web source, so large
    // sweeps don't pay page-parsing costs in unrelated benchmarks).
    let mut rates = Table::new(
        "rates",
        Schema::of(&[
            ("fromCur", ColumnType::Str),
            ("toCur", ColumnType::Str),
            ("rate", ColumnType::Float),
        ]),
    );
    let usd_rates = [1.0, 0.0096, 1.18, 1.64, 0.70];
    for (i, c) in CURRENCIES.iter().enumerate() {
        if *c != "USD" {
            rates
                .push(vec![
                    Value::str(c),
                    Value::str("USD"),
                    Value::Float(usd_rates[i]),
                ])
                .unwrap();
            rates
                .push(vec![
                    Value::str("USD"),
                    Value::str(c),
                    Value::Float(1.0 / usd_rates[i]),
                ])
                .unwrap();
        }
    }
    sys.add_source(RelationalSource::new(
        "forex",
        Catalog::new().with_table(rates),
    ))
    .unwrap();
    sys.add_elevation(
        Elevation::new("rates", "c_recv")
            .column("fromCur", "currencyType")
            .column("toCur", "currencyType")
            .column("rate", "exchangeRate"),
    )
    .unwrap();

    for i in 0..n_sources {
        add_synthetic_source(&mut sys, i, rows_per, &mut rng);
    }
    sys
}

/// Add one more synthetic source to an existing deployment (EX-EXT measures
/// exactly the administration this function performs).
pub fn add_synthetic_source(sys: &mut CoinSystem, index: usize, rows_per: usize, rng: &mut Rng) {
    let scale_choices: [i64; 3] = [1, 1000, 1_000_000];
    let currency = CURRENCIES[index % CURRENCIES.len()];
    let scale = scale_choices[index % scale_choices.len()];

    let table_name = format!("fin{index}");
    let mut t = Table::new(
        &table_name,
        Schema::of(&[("cname", ColumnType::Str), ("amount", ColumnType::Int)]),
    );
    for r in 0..rows_per {
        t.push(vec![
            Value::str(&format!("company{r}")),
            Value::Int((rng.below(1_000_000) + 1) as i64),
        ])
        .unwrap();
    }
    let src_name = format!("src{index}");
    sys.add_source(RelationalSource::new(
        &src_name,
        Catalog::new().with_table(t),
    ))
    .unwrap();

    let ctx_name = format!("c_src{index}");
    sys.add_context(
        ContextTheory::new(&ctx_name)
            .set(
                "companyFinancials",
                "currency",
                ModifierSpec::constant(currency),
            )
            .set(
                "companyFinancials",
                "scaleFactor",
                ModifierSpec::constant(scale),
            ),
    )
    .unwrap();
    sys.add_elevation(
        Elevation::new(&table_name, &ctx_name)
            .column("cname", "companyName")
            .column("amount", "companyFinancials"),
    )
    .unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_system_assembles() {
        let sys = figure2_system();
        assert_eq!(sys.contexts.len(), 3);
        assert!(sys.axiom_count() > 0);
        let listing = sys.dictionary().listing();
        assert_eq!(listing.len(), 3); // r1, r2, r3
    }

    #[test]
    fn synthetic_system_scales() {
        let sys = synthetic_system(5, 10, 42);
        // 5 sources + forex.
        assert_eq!(sys.dictionary().source_names().len(), 6);
        // Axioms grow linearly: each source adds a constant-size context
        // (2 assignments) + elevation (1 + 2 columns).
        let sys10 = synthetic_system(10, 10, 42);
        let per_source = (sys10.axiom_count() - sys.axiom_count()) as f64 / 5.0;
        assert!(per_source > 0.0 && per_source < 10.0, "{per_source}");
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
