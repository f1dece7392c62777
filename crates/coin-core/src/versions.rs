//! Fine-grained model versioning: the invalidation granule behind the
//! prepared-query cache.
//!
//! The original design guarded cached plans with a single **model epoch**:
//! every administrative mutation bumped one global counter and purged the
//! whole cache. That is correct but grossly over-invalidating — adding
//! source N+1 throws away every compiled plan for sources 1..N, defeating
//! the paper's extensibility claim that a source joins the federation by
//! administering only its *own* axioms.
//!
//! This module replaces the single number with a **vector clock over model
//! parts**:
//!
//! * [`ModelPart`] names one independently versioned piece of the model —
//!   a context theory, a relation's elevation axioms, a modifier's
//!   conversion function, or a relation (its resolvability through the
//!   dictionary);
//! * [`ModelVersions`] maps each part to the epoch of its last change and
//!   keeps the scalar epoch as a monotone summary (wire/stats
//!   compatibility: `/stats` still reports one number);
//! * [`PlanDeps`] is the **read footprint** a compilation records — every
//!   part the mediator, encoder and planner actually consulted. A plan is
//!   valid iff none of its dependencies changed after it was compiled
//!   ([`ModelVersions::plan_valid`]).
//!
//! Parts never consulted during a compile cannot affect its output (the
//! mediation procedure is a pure function of the consulted state), so
//! mutations to them must not invalidate the plan — that one observation
//! converts a steady-admin workload from 100% recompiles to recompiles
//! only for genuinely affected receivers.

use std::collections::{BTreeMap, BTreeSet};

/// One independently versioned part of the shared model. The variants
/// mirror the administration surface of [`crate::CoinSystem`]: each
/// `add_*`/`replace_*` mutation bumps exactly the parts it semantically
/// changes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelPart {
    /// A context theory, by context name. Consulted for the receiver and
    /// for every source context of a staged relation.
    Context(String),
    /// Elevation axioms, by relation name.
    Elevation(String),
    /// A conversion function, by modifier name. Recorded only for
    /// modifiers the encoder actually applied (declared on a semantic
    /// type some referenced column elevates to).
    Conversion(String),
    /// A relation, by bare table name: its resolvability and schema
    /// through the dictionary. `add_source` bumps every table the new
    /// source exports — a second source exporting an existing name flips
    /// unqualified resolution to ambiguous, so plans staging that table
    /// must recompile (and surface the ambiguity) rather than silently
    /// keep the old binding.
    Relation(String),
}

impl std::fmt::Display for ModelPart {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelPart::Context(n) => write!(f, "context:{n}"),
            ModelPart::Elevation(n) => write!(f, "elevation:{n}"),
            ModelPart::Conversion(n) => write!(f, "conversion:{n}"),
            ModelPart::Relation(n) => write!(f, "relation:{n}"),
        }
    }
}

/// Per-part version counters plus the scalar epoch summary.
///
/// Every mutation advances the epoch by one and stamps the mutated parts
/// with the new epoch; a part never mutated has implicit version 0. The
/// scalar epoch therefore keeps its old meaning — "number of mutations so
/// far", monotone, comparable across snapshots — while validity checks
/// use the per-part stamps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelVersions {
    epoch: u64,
    parts: BTreeMap<ModelPart, u64>,
}

impl ModelVersions {
    pub fn new() -> ModelVersions {
        ModelVersions::default()
    }

    /// The scalar summary: total number of mutations administered.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record one administrative mutation touching `parts`: the epoch
    /// advances once and every listed part is stamped with the new epoch.
    /// Returns the new epoch. (An empty part list still advances the
    /// epoch — callers gate no-op administration *before* bumping.)
    pub fn bump<I: IntoIterator<Item = ModelPart>>(&mut self, parts: I) -> u64 {
        self.epoch += 1;
        for p in parts {
            self.parts.insert(p, self.epoch);
        }
        self.epoch
    }

    /// The epoch at which `part` last changed (0 if never mutated —
    /// state present since construction predates every plan).
    pub fn version_of(&self, part: &ModelPart) -> u64 {
        self.parts.get(part).copied().unwrap_or(0)
    }

    /// Is a plan compiled at `plan_epoch` with read footprint `deps`
    /// still valid? True iff no dependency changed after compilation.
    pub fn plan_valid(&self, deps: &PlanDeps, plan_epoch: u64) -> bool {
        deps.iter().all(|p| self.version_of(p) <= plan_epoch)
    }

    /// Every explicitly stamped part with its last-change epoch.
    pub fn iter(&self) -> impl Iterator<Item = (&ModelPart, u64)> {
        self.parts.iter().map(|(p, v)| (p, *v))
    }
}

/// The read footprint of one compilation: every [`ModelPart`] the
/// mediate/plan pipeline consulted. Deduplicated and ordered, so reports
/// are deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanDeps {
    parts: BTreeSet<ModelPart>,
}

impl PlanDeps {
    pub fn new() -> PlanDeps {
        PlanDeps::default()
    }

    /// Record one consulted part (idempotent).
    pub fn record(&mut self, part: ModelPart) {
        self.parts.insert(part);
    }

    /// Does the footprint include `part`? This is the cache's eviction
    /// predicate: a mutation to `part` invalidates exactly the entries
    /// answering `true`.
    pub fn contains(&self, part: &ModelPart) -> bool {
        self.parts.contains(part)
    }

    pub fn iter(&self) -> impl Iterator<Item = &ModelPart> {
        self.parts.iter()
    }

    pub fn len(&self) -> usize {
        self.parts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(n: &str) -> ModelPart {
        ModelPart::Context(n.to_owned())
    }

    #[test]
    fn bump_stamps_parts_and_advances_epoch() {
        let mut v = ModelVersions::new();
        assert_eq!(v.epoch(), 0);
        assert_eq!(v.version_of(&ctx("a")), 0);
        let e = v.bump([ctx("a")]);
        assert_eq!(e, 1);
        assert_eq!(v.version_of(&ctx("a")), 1);
        assert_eq!(v.version_of(&ctx("b")), 0);
        let rel = ModelPart::Relation("r1".into());
        v.bump([ctx("b"), rel.clone()]);
        assert_eq!(v.epoch(), 2);
        assert_eq!(v.version_of(&ctx("b")), 2);
        assert_eq!(v.version_of(&rel), 2);
        assert_eq!(v.version_of(&ctx("a")), 1, "untouched parts keep stamps");
    }

    #[test]
    fn plan_validity_is_per_dependency() {
        let mut v = ModelVersions::new();
        v.bump([ctx("a")]); // epoch 1
        let mut deps = PlanDeps::new();
        deps.record(ctx("a"));
        let plan_epoch = v.epoch();
        assert!(v.plan_valid(&deps, plan_epoch));

        // Mutating an *unrelated* part leaves the plan valid…
        v.bump([ctx("b")]);
        assert!(v.plan_valid(&deps, plan_epoch));
        // …mutating a dependency does not.
        v.bump([ctx("a")]);
        assert!(!v.plan_valid(&deps, plan_epoch));
    }

    #[test]
    fn unknown_dependencies_are_version_zero() {
        let v = ModelVersions::new();
        let mut deps = PlanDeps::new();
        deps.record(ModelPart::Relation("r9".into()));
        // Never-mutated parts predate every plan: valid at epoch 0.
        assert!(v.plan_valid(&deps, 0));
    }

    #[test]
    fn deps_deduplicate_and_order() {
        let mut deps = PlanDeps::new();
        deps.record(ctx("b"));
        deps.record(ctx("a"));
        deps.record(ctx("b"));
        assert_eq!(deps.len(), 2);
        let names: Vec<String> = deps.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["context:a", "context:b"]);
        assert!(deps.contains(&ctx("a")));
        assert!(!deps.contains(&ctx("z")));
    }

    #[test]
    fn part_display_is_stable() {
        assert_eq!(
            ModelPart::Elevation("r1".into()).to_string(),
            "elevation:r1"
        );
        assert_eq!(
            ModelPart::Conversion("currency".into()).to_string(),
            "conversion:currency"
        );
        assert_eq!(ModelPart::Relation("r1".into()).to_string(), "relation:r1");
    }
}
