//! The COIN data model: domain model, context theories, elevation axioms
//! and conversion functions.
//!
//! Following \[GBMS96\], the framework has four ingredients:
//!
//! * a **domain model** — "a collection of 'rich' types, or semantic-types"
//!   shared by all contexts, each carrying *modifiers* (meta-attributes
//!   such as `currency` or `scaleFactor`) whose values vary by context;
//! * **context theories** — per-context assignments of modifier values:
//!   constants, values drawn from sibling attributes, or conditional rules
//!   ("scale-factor is 1000 when the currency is JPY, else 1");
//! * **elevation axioms** — "identify the elements of the source schema
//!   with the types in the domain model": each relation column is elevated
//!   to a semantic type, and each relation is placed in a context;
//! * **conversion functions** — per-modifier recipes for translating a
//!   value between modifier values, possibly via an *ancillary relation*
//!   (the exchange-rate web source of Figure 2).

use std::collections::BTreeMap;

use coin_rel::Value;

/// Errors raised while assembling or validating the model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    DuplicateType(String),
    UnknownType(String),
    UnknownModifier {
        semantic_type: String,
        modifier: String,
    },
    DuplicateContext(String),
    UnknownContext(String),
    DuplicateElevation(String),
    UnknownRelation(String),
    MissingConversion(String),
    DuplicateConversion(String),
    Invalid(String),
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::DuplicateType(t) => write!(f, "semantic type {t} already defined"),
            ModelError::UnknownType(t) => write!(f, "unknown semantic type {t}"),
            ModelError::UnknownModifier {
                semantic_type,
                modifier,
            } => {
                write!(
                    f,
                    "semantic type {semantic_type} has no modifier {modifier}"
                )
            }
            ModelError::DuplicateContext(c) => write!(f, "context {c} already defined"),
            ModelError::UnknownContext(c) => write!(f, "unknown context {c}"),
            ModelError::DuplicateElevation(r) => {
                write!(f, "relation {r} already has elevation axioms")
            }
            ModelError::UnknownRelation(r) => write!(f, "no elevation axioms for {r}"),
            ModelError::MissingConversion(m) => {
                write!(f, "no conversion function registered for modifier {m}")
            }
            ModelError::DuplicateConversion(m) => {
                write!(
                    f,
                    "modifier {m} already has a conversion function; use \
                     replace_conversion to change it"
                )
            }
            ModelError::Invalid(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ModelError {}

// ---------------------------------------------------------------------------
// Domain model
// ---------------------------------------------------------------------------

/// A semantic type: a named "rich" type with ordered modifiers.
/// Modifier order is the conversion application order.
#[derive(Debug, Clone, PartialEq)]
pub struct SemanticType {
    pub name: String,
    pub modifiers: Vec<String>,
    /// Optional supertype; its modifiers are inherited (prepended).
    pub parent: Option<String>,
}

/// The shared vocabulary of semantic types.
#[derive(Debug, Clone, Default)]
pub struct DomainModel {
    types: BTreeMap<String, SemanticType>,
}

impl DomainModel {
    pub fn new() -> DomainModel {
        DomainModel::default()
    }

    /// Define a semantic type with its own modifiers.
    pub fn add_type(&mut self, name: &str, modifiers: &[&str]) -> Result<(), ModelError> {
        self.add_subtype(name, modifiers, None)
    }

    /// Define a semantic type inheriting a parent's modifiers.
    pub fn add_subtype(
        &mut self,
        name: &str,
        modifiers: &[&str],
        parent: Option<&str>,
    ) -> Result<(), ModelError> {
        if self.types.contains_key(name) {
            return Err(ModelError::DuplicateType(name.to_owned()));
        }
        if let Some(p) = parent {
            if !self.types.contains_key(p) {
                return Err(ModelError::UnknownType(p.to_owned()));
            }
        }
        self.types.insert(
            name.to_owned(),
            SemanticType {
                name: name.to_owned(),
                modifiers: modifiers.iter().map(|m| (*m).to_owned()).collect(),
                parent: parent.map(str::to_owned),
            },
        );
        Ok(())
    }

    pub fn get(&self, name: &str) -> Result<&SemanticType, ModelError> {
        self.types
            .get(name)
            .ok_or_else(|| ModelError::UnknownType(name.to_owned()))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.types.contains_key(name)
    }

    /// All modifiers of a type, inherited first, in application order.
    pub fn modifiers_of(&self, name: &str) -> Result<Vec<String>, ModelError> {
        let t = self.get(name)?;
        let mut out = match &t.parent {
            Some(p) => self.modifiers_of(p)?,
            None => Vec::new(),
        };
        for m in &t.modifiers {
            if !out.contains(m) {
                out.push(m.clone());
            }
        }
        Ok(out)
    }

    /// Is `modifier` declared by any semantic type? Used to validate
    /// conversion registrations: a conversion for a modifier no type
    /// declares could never be applied.
    pub fn has_modifier(&self, modifier: &str) -> bool {
        self.types
            .values()
            .any(|t| t.modifiers.iter().any(|m| m == modifier))
    }

    pub fn len(&self) -> usize {
        self.types.len()
    }

    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Context theories
// ---------------------------------------------------------------------------

/// The value a modifier takes in some context (the right-hand sides of the
/// context theory's axioms).
#[derive(Debug, Clone, PartialEq)]
pub enum ModifierSpec {
    /// A constant, e.g. `currency = 'USD'`.
    Constant(Value),
    /// The value of a sibling attribute of the same relation, e.g.
    /// "financials are reported in the currency shown in the `currency`
    /// column".
    FromAttribute(String),
    /// Data-dependent rules: "scale-factor is 1000 when currency = 'JPY',
    /// else 1". Cases are tested in order; `default` applies when none do.
    Conditional {
        cases: Vec<CondCase>,
        default: Box<ModifierSpec>,
    },
}

/// One conditional case: `if attribute = value then spec`.
#[derive(Debug, Clone, PartialEq)]
pub struct CondCase {
    pub attribute: String,
    pub equals: Value,
    pub then: Box<ModifierSpec>,
}

impl ModifierSpec {
    pub fn constant(v: impl Into<Value>) -> ModifierSpec {
        ModifierSpec::Constant(v.into())
    }

    pub fn from_attribute(a: &str) -> ModifierSpec {
        ModifierSpec::FromAttribute(a.to_owned())
    }

    /// Convenience for the common one-case conditional.
    pub fn if_attr_eq(
        attribute: &str,
        equals: impl Into<Value>,
        then: ModifierSpec,
        default: ModifierSpec,
    ) -> ModifierSpec {
        ModifierSpec::Conditional {
            cases: vec![CondCase {
                attribute: attribute.to_owned(),
                equals: equals.into(),
                then: Box::new(then),
            }],
            default: Box::new(default),
        }
    }

    /// A flat multi-case conditional: `(attribute, equals, then)` triples
    /// tried in order, with a default. Cases and default must be leaves
    /// (constants or attribute references) — conditionals do not nest.
    pub fn cases(cases: Vec<(&str, Value, ModifierSpec)>, default: ModifierSpec) -> ModifierSpec {
        ModifierSpec::Conditional {
            cases: cases
                .into_iter()
                .map(|(attribute, equals, then)| CondCase {
                    attribute: attribute.to_owned(),
                    equals,
                    then: Box::new(then),
                })
                .collect(),
            default: Box::new(default),
        }
    }

    /// Is this spec a leaf (usable inside a conditional)?
    pub fn is_leaf(&self) -> bool {
        !matches!(self, ModifierSpec::Conditional { .. })
    }

    /// Number of axioms this spec compiles to (administration metric).
    pub fn axiom_count(&self) -> usize {
        match self {
            ModifierSpec::Constant(_) | ModifierSpec::FromAttribute(_) => 1,
            ModifierSpec::Conditional { cases, .. } => cases.len() + 1,
        }
    }
}

/// A context theory: per (semantic type, modifier) value specifications.
/// "The statements in a context theory provide an explicit codification of
/// the implicit semantics of data in the corresponding context" (paper §1).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContextTheory {
    pub name: String,
    assignments: BTreeMap<(String, String), ModifierSpec>,
}

impl ContextTheory {
    pub fn new(name: &str) -> ContextTheory {
        ContextTheory {
            name: name.to_owned(),
            assignments: BTreeMap::new(),
        }
    }

    /// Assign a modifier value for a semantic type in this context.
    pub fn set(mut self, semantic_type: &str, modifier: &str, spec: ModifierSpec) -> Self {
        self.assignments
            .insert((semantic_type.to_owned(), modifier.to_owned()), spec);
        self
    }

    pub fn get(&self, semantic_type: &str, modifier: &str) -> Option<&ModifierSpec> {
        self.assignments
            .get(&(semantic_type.to_owned(), modifier.to_owned()))
    }

    pub fn assignments(&self) -> impl Iterator<Item = (&(String, String), &ModifierSpec)> {
        self.assignments.iter()
    }

    /// Total number of axioms in this theory (EX-SCALE metric).
    pub fn axiom_count(&self) -> usize {
        self.assignments
            .values()
            .map(ModifierSpec::axiom_count)
            .sum()
    }

    /// Validate against a domain model: every assignment must reference a
    /// known type and one of its modifiers, and conditionals must not nest
    /// (case results and defaults are leaves).
    pub fn validate(&self, domain: &DomainModel) -> Result<(), ModelError> {
        for ((ty, m), spec) in &self.assignments {
            let mods = domain.modifiers_of(ty)?;
            if !mods.contains(m) {
                return Err(ModelError::UnknownModifier {
                    semantic_type: ty.clone(),
                    modifier: m.clone(),
                });
            }
            if let ModifierSpec::Conditional { cases, default } = spec {
                if !default.is_leaf() || cases.iter().any(|c| !c.then.is_leaf()) {
                    return Err(ModelError::Invalid(format!(
                        "context {}: conditional for {ty}.{m} nests another \
                         conditional; use ModifierSpec::cases with a flat list",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Elevation axioms
// ---------------------------------------------------------------------------

/// Elevation axioms for one relation: which context its data lives in and
/// the semantic type of each column. Columns without an entry are *plain*
/// (no semantic type → no conflicts possible, e.g. key strings).
#[derive(Debug, Clone, PartialEq)]
pub struct Elevation {
    pub relation: String,
    pub context: String,
    columns: BTreeMap<String, String>,
}

impl Elevation {
    pub fn new(relation: &str, context: &str) -> Elevation {
        Elevation {
            relation: relation.to_owned(),
            context: context.to_owned(),
            columns: BTreeMap::new(),
        }
    }

    /// Elevate a column to a semantic type.
    pub fn column(mut self, column: &str, semantic_type: &str) -> Self {
        self.columns
            .insert(column.to_owned(), semantic_type.to_owned());
        self
    }

    pub fn type_of(&self, column: &str) -> Option<&str> {
        self.columns.get(column).map(String::as_str)
    }

    pub fn columns(&self) -> impl Iterator<Item = (&str, &str)> {
        self.columns.iter().map(|(c, t)| (c.as_str(), t.as_str()))
    }

    /// Number of elevation axioms (1 per relation-context placement + 1 per
    /// elevated column).
    pub fn axiom_count(&self) -> usize {
        1 + self.columns.len()
    }
}

/// All registered elevations, keyed by relation name.
#[derive(Debug, Clone, Default)]
pub struct ElevationRegistry {
    by_relation: BTreeMap<String, Elevation>,
}

impl ElevationRegistry {
    pub fn new() -> ElevationRegistry {
        ElevationRegistry::default()
    }

    pub fn add(&mut self, e: Elevation) -> Result<(), ModelError> {
        if self.by_relation.contains_key(&e.relation) {
            return Err(ModelError::DuplicateElevation(e.relation));
        }
        self.by_relation.insert(e.relation.clone(), e);
        Ok(())
    }

    pub fn get(&self, relation: &str) -> Result<&Elevation, ModelError> {
        self.by_relation
            .get(relation)
            .ok_or_else(|| ModelError::UnknownRelation(relation.to_owned()))
    }

    pub fn contains(&self, relation: &str) -> bool {
        self.by_relation.contains_key(relation)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Elevation> {
        self.by_relation.values()
    }
}

// ---------------------------------------------------------------------------
// Conversion functions
// ---------------------------------------------------------------------------

/// How to convert a value between two values of one modifier.
#[derive(Debug, Clone, PartialEq)]
pub enum Conversion {
    /// `value * from / to` — e.g. scale factors: reported in thousands
    /// (1000), wanted in units (1) → multiply by 1000.
    Ratio,
    /// Multiply by a factor obtained from an ancillary relation
    /// (`relation(from_col, to_col, factor_col)`) — e.g. currency
    /// conversion via the exchange-rate web source.
    Lookup {
        relation: String,
        from_col: String,
        to_col: String,
        factor_col: String,
    },
}

/// Registered conversions, keyed by modifier name.
#[derive(Debug, Clone, Default)]
pub struct ConversionRegistry {
    by_modifier: BTreeMap<String, Conversion>,
}

impl ConversionRegistry {
    pub fn new() -> ConversionRegistry {
        ConversionRegistry::default()
    }

    pub fn set(&mut self, modifier: &str, conversion: Conversion) {
        self.by_modifier.insert(modifier.to_owned(), conversion);
    }

    pub fn get(&self, modifier: &str) -> Result<&Conversion, ModelError> {
        self.by_modifier
            .get(modifier)
            .ok_or_else(|| ModelError::MissingConversion(modifier.to_owned()))
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Conversion)> {
        self.by_modifier.iter().map(|(m, c)| (m.as_str(), c))
    }
}

/// The Figure 2 / §3 model: `companyFinancials` with `scaleFactor` and
/// `currency` modifiers, ratio and rate-lookup conversions.
pub fn figure2_domain() -> (DomainModel, ConversionRegistry) {
    let mut dm = DomainModel::new();
    dm.add_type("companyName", &[]).unwrap();
    dm.add_type("companyFinancials", &["scaleFactor", "currency"])
        .unwrap();
    dm.add_type("currencyType", &[]).unwrap();
    dm.add_type("exchangeRate", &[]).unwrap();
    let mut conv = ConversionRegistry::new();
    conv.set("scaleFactor", Conversion::Ratio);
    conv.set(
        "currency",
        Conversion::Lookup {
            relation: "r3".into(),
            from_col: "fromCur".into(),
            to_col: "toCur".into(),
            factor_col: "rate".into(),
        },
    );
    (dm, conv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domain_model_modifiers() {
        let (dm, _) = figure2_domain();
        assert_eq!(
            dm.modifiers_of("companyFinancials").unwrap(),
            vec!["scaleFactor", "currency"]
        );
        assert!(dm.modifiers_of("companyName").unwrap().is_empty());
        assert!(dm.modifiers_of("nope").is_err());
    }

    #[test]
    fn subtype_inherits_modifiers() {
        let mut dm = DomainModel::new();
        dm.add_type("moneyAmount", &["currency"]).unwrap();
        dm.add_subtype("stockPrice", &["lotSize"], Some("moneyAmount"))
            .unwrap();
        assert_eq!(
            dm.modifiers_of("stockPrice").unwrap(),
            vec!["currency", "lotSize"]
        );
    }

    #[test]
    fn duplicate_type_rejected() {
        let mut dm = DomainModel::new();
        dm.add_type("t", &[]).unwrap();
        assert_eq!(
            dm.add_type("t", &[]),
            Err(ModelError::DuplicateType("t".into()))
        );
    }

    #[test]
    fn unknown_parent_rejected() {
        let mut dm = DomainModel::new();
        assert!(dm.add_subtype("x", &[], Some("ghost")).is_err());
    }

    #[test]
    fn context_theory_assignment_and_count() {
        let c = ContextTheory::new("c_src1")
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
            );
        assert_eq!(c.axiom_count(), 1 + 2);
        assert!(c.get("companyFinancials", "currency").is_some());
        assert!(c.get("companyFinancials", "zzz").is_none());
    }

    #[test]
    fn context_validation_against_domain() {
        let (dm, _) = figure2_domain();
        let good = ContextTheory::new("ok").set(
            "companyFinancials",
            "currency",
            ModifierSpec::constant("USD"),
        );
        assert!(good.validate(&dm).is_ok());
        let bad = ContextTheory::new("bad").set(
            "companyFinancials",
            "flavour",
            ModifierSpec::constant("sweet"),
        );
        assert!(matches!(
            bad.validate(&dm),
            Err(ModelError::UnknownModifier { .. })
        ));
    }

    #[test]
    fn elevation_axioms() {
        let e = Elevation::new("r1", "c_src1")
            .column("cname", "companyName")
            .column("revenue", "companyFinancials")
            .column("currency", "currencyType");
        assert_eq!(e.type_of("revenue"), Some("companyFinancials"));
        assert_eq!(e.type_of("nope"), None);
        assert_eq!(e.axiom_count(), 4);
    }

    #[test]
    fn elevation_registry_uniqueness() {
        let mut reg = ElevationRegistry::new();
        reg.add(Elevation::new("r1", "c1")).unwrap();
        assert!(matches!(
            reg.add(Elevation::new("r1", "c2")),
            Err(ModelError::DuplicateElevation(_))
        ));
        assert!(reg.get("r1").is_ok());
        assert!(reg.get("r9").is_err());
    }

    #[test]
    fn conversion_registry() {
        let (_, conv) = figure2_domain();
        assert_eq!(conv.get("scaleFactor").unwrap(), &Conversion::Ratio);
        assert!(matches!(
            conv.get("currency").unwrap(),
            Conversion::Lookup { .. }
        ));
        assert!(conv.get("nope").is_err());
    }
}
