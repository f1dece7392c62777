//! The pairwise a-priori integration baseline.
//!
//! The paper claims the COIN strategy "is scalable because the complexity
//! of creating and administering (maintaining) the interoperation services
//! do not increase exponentially with the number of participating sources
//! and receivers, since the addition of new sources or receivers requires
//! only incremental instantiation of a new context" (§1).
//!
//! The strategy it contrasts with is the classic tightly-coupled approach
//! (\[SL90\]) where semantic conflicts are identified **a priori**: for every
//! *ordered pair* of participants and every shared semantic type, an
//! explicit conversion rule is authored. This module implements that
//! baseline so that administration size can be compared, O(n²) against
//! O(n): `examples/scalability.rs` prints both.

use std::collections::BTreeMap;

use coin_rel::Value;

use crate::model::{ContextTheory, DomainModel, ModelError, ModifierSpec};

/// One a-priori authored conversion rule between two contexts for one
/// semantic type: "to read `type` data of context `from` as context `to`,
/// multiply by `factor`" (or consult the rate table when currencies
/// differ). The baseline must enumerate these for every ordered pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRule {
    pub from: String,
    pub to: String,
    pub semantic_type: String,
    /// Constant scale ratio between the contexts (from-scale / to-scale),
    /// when both contexts use constant scale factors.
    pub scale_ratio: Option<f64>,
    /// (from-currency, to-currency) when both are constants and differ.
    pub currency_pair: Option<(String, String)>,
    /// Number of statements this rule costs to author. Data-dependent
    /// contexts need one statement per case combination.
    pub statements: usize,
}

/// The pairwise integration registry.
#[derive(Debug, Default)]
pub struct PairwiseIntegration {
    pub rules: Vec<PairRule>,
}

impl PairwiseIntegration {
    /// Author the full rule set for the given contexts, as a tightly-coupled
    /// integrator would have to. Returns an error when a context cannot be
    /// expressed (data-dependent modifiers make constant pairwise rules
    /// impossible — exactly the situation COIN handles and the baseline
    /// cannot, so those pairs cost case-enumeration statements instead).
    pub fn derive(
        domain: &DomainModel,
        contexts: &BTreeMap<String, ContextTheory>,
        semantic_type: &str,
    ) -> Result<PairwiseIntegration, ModelError> {
        let modifiers = domain.modifiers_of(semantic_type)?;
        let mut rules = Vec::new();
        for (a_name, a) in contexts {
            for (b_name, b) in contexts {
                if a_name == b_name {
                    continue;
                }
                let mut statements = 0usize;
                let mut scale_ratio = Some(1.0);
                let mut currency_pair = None;
                for m in &modifiers {
                    let (sa, sb) = match (a.get(semantic_type, m), b.get(semantic_type, m)) {
                        (Some(x), Some(y)) => (x, y),
                        _ => continue,
                    };
                    statements += sa.axiom_count() * sb.axiom_count();
                    match (sa, sb) {
                        (ModifierSpec::Constant(va), ModifierSpec::Constant(vb)) => {
                            match (va, vb) {
                                (Value::Int(x), Value::Int(y)) if m == "scaleFactor" => {
                                    scale_ratio =
                                        scale_ratio.map(|r| r * (*x as f64) / (*y as f64));
                                }
                                (Value::Str(x), Value::Str(y)) if m == "currency" && x != y => {
                                    currency_pair =
                                        Some((x.as_ref().to_owned(), y.as_ref().to_owned()));
                                }
                                _ => {}
                            }
                        }
                        _ => {
                            // Data-dependent context: no constant rule
                            // exists; the integrator authors per-case rules
                            // (already counted in `statements`) and the
                            // translator must fall back to case logic.
                            scale_ratio = None;
                        }
                    }
                }
                rules.push(PairRule {
                    from: a_name.clone(),
                    to: b_name.clone(),
                    semantic_type: semantic_type.to_owned(),
                    scale_ratio,
                    currency_pair,
                    statements,
                });
            }
        }
        Ok(PairwiseIntegration { rules })
    }

    /// Total authored statements — the O(n²) administration metric.
    pub fn statement_count(&self) -> usize {
        self.rules.iter().map(|r| r.statements).sum()
    }

    /// Number of ordered pairs covered.
    pub fn pair_count(&self) -> usize {
        self.rules.len()
    }

    /// Find the rule for an ordered context pair.
    pub fn rule(&self, from: &str, to: &str) -> Option<&PairRule> {
        self.rules.iter().find(|r| r.from == from && r.to == to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::synthetic_system;

    #[test]
    fn pair_count_is_quadratic() {
        for n in [2usize, 4, 8] {
            let sys = synthetic_system(n, 1, 1);
            let pw = PairwiseIntegration::derive(&sys.domain, &sys.contexts, "companyFinancials")
                .unwrap();
            // n source contexts + 1 receiver context.
            let total = n + 1;
            assert_eq!(pw.pair_count(), total * (total - 1));
        }
    }

    #[test]
    fn coin_axioms_grow_linearly_pairwise_quadratically() {
        let n1 = 4usize;
        let n2 = 8usize;
        let sys1 = synthetic_system(n1, 1, 1);
        let sys2 = synthetic_system(n2, 1, 1);
        let coin1 = sys1.axiom_count();
        let coin2 = sys2.axiom_count();
        let pw1 = PairwiseIntegration::derive(&sys1.domain, &sys1.contexts, "companyFinancials")
            .unwrap()
            .statement_count();
        let pw2 = PairwiseIntegration::derive(&sys2.domain, &sys2.contexts, "companyFinancials")
            .unwrap()
            .statement_count();
        // COIN roughly doubles; pairwise roughly quadruples.
        let coin_growth = coin2 as f64 / coin1 as f64;
        let pw_growth = pw2 as f64 / pw1 as f64;
        assert!(coin_growth < 2.5, "COIN growth {coin_growth}");
        assert!(pw_growth > 3.0, "pairwise growth {pw_growth}");
    }

    #[test]
    fn constant_contexts_get_ratio_rules() {
        let sys = synthetic_system(3, 1, 1);
        let pw =
            PairwiseIntegration::derive(&sys.domain, &sys.contexts, "companyFinancials").unwrap();
        // Context 1 uses scale 1000 (index 1), receiver uses 1.
        let rule = pw.rule("c_src1", "c_recv").unwrap();
        assert_eq!(rule.scale_ratio, Some(1000.0));
    }

    #[test]
    fn data_dependent_context_breaks_constant_rules() {
        let sys = crate::fixtures::figure2_system();
        let pw =
            PairwiseIntegration::derive(&sys.domain, &sys.contexts, "companyFinancials").unwrap();
        let rule = pw.rule("c_src1", "c_recv").unwrap();
        assert_eq!(rule.scale_ratio, None, "src1's scale depends on data");
        assert!(rule.statements >= 2);
    }
}
