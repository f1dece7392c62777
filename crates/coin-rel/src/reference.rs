//! Pre-optimization reference operators, kept as test oracles.
//!
//! These are the execution-hot-path implementations that shipped before the
//! allocation-lean rework of [`crate::exec`]: a hash join keyed by
//! materialized key *strings* and a BTreeMap-based aggregation performing
//! O(log n) full-key-vector comparisons per input row. Nothing in the
//! production pipeline constructs them. Their one use is equivalence
//! testing: `tests/prop_equivalence.rs` drives the same seeded inputs
//! through the new and old operators and asserts identical results.
//!
//! The sort-based `DISTINCT` needs no copy here:
//! `Distinct::with_spill_threshold(0)` forces the external-sort path, which
//! is live code. The tree-walk expression evaluator needs none either:
//! [`crate::expr::CExpr::eval`] is the reference semantics the register VM
//! is property-tested against.

use std::collections::{BTreeMap, HashMap};

use crate::exec::{drain, AggSpec, BoxOp, ExecError, Operator};
use crate::expr::CExpr;
use crate::schema::{Row, Schema};
use crate::value::Value;

/// Hash key for a set of values: a canonical string encoding (the pre-PR
/// strategy). Numeric values are widened so `Int(2)` and `Float(2.0)` hash
/// identically.
fn string_key(row: &Row, keys: &[usize]) -> String {
    let mut s = String::new();
    for &i in keys {
        match &row[i] {
            Value::Null => s.push_str("\u{1}N"),
            Value::Bool(b) => s.push_str(if *b { "\u{1}T" } else { "\u{1}F" }),
            v if v.is_number() => {
                s.push_str("\u{1}#");
                s.push_str(&format!("{:?}", v.as_f64().unwrap()));
            }
            Value::Str(t) => {
                s.push_str("\u{1}S");
                s.push_str(t);
            }
            _ => unreachable!(),
        }
    }
    s
}

/// The pre-PR hash join: builds a `HashMap<String, Vec<Row>>` over the right
/// input, materializing a fresh key `String` per build *and* probe row.
pub struct StringKeyHashJoin {
    left: BoxOp,
    build: Option<BoxOp>,
    table: HashMap<String, Vec<Row>>,
    built: bool,
    left_keys: Vec<usize>,
    right_keys: Vec<usize>,
    residual: Option<CExpr>,
    schema: Schema,
    current_left: Option<Row>,
    matches: Vec<Row>,
    match_pos: usize,
}

impl StringKeyHashJoin {
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<CExpr>,
    ) -> StringKeyHashJoin {
        assert_eq!(left_keys.len(), right_keys.len());
        assert!(!left_keys.is_empty());
        let schema = left.schema().join(right.schema());
        StringKeyHashJoin {
            left,
            build: Some(right),
            table: HashMap::new(),
            built: false,
            left_keys,
            right_keys,
            residual,
            schema,
            current_left: None,
            matches: Vec::new(),
            match_pos: 0,
        }
    }
}

impl Operator for StringKeyHashJoin {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if !self.built {
            let src = self.build.take().expect("build side present");
            for row in drain(src)? {
                if self.right_keys.iter().any(|&i| row[i].is_null()) {
                    continue;
                }
                let k = string_key(&row, &self.right_keys);
                self.table.entry(k).or_default().push(row);
            }
            self.built = true;
        }
        loop {
            if self.match_pos < self.matches.len() {
                let l = self.current_left.as_ref().unwrap();
                let r = &self.matches[self.match_pos];
                self.match_pos += 1;
                let mut combined = l.clone();
                combined.extend(r.iter().cloned());
                match &self.residual {
                    Some(p) if !p.matches(&combined)? => continue,
                    _ => return Ok(Some(combined)),
                }
            }
            match self.left.next()? {
                None => return Ok(None),
                Some(l) => {
                    if l.is_empty() || self.left_keys.iter().any(|&i| l[i].is_null()) {
                        self.matches.clear();
                        self.match_pos = 0;
                        self.current_left = Some(l);
                        continue;
                    }
                    let k = string_key(&l, &self.left_keys);
                    self.matches = self.table.get(&k).cloned().unwrap_or_default();
                    self.match_pos = 0;
                    self.current_left = Some(l);
                }
            }
        }
    }
}

/// Wrapper giving `Vec<Value>` a total order for use as a BTreeMap group key.
#[derive(Debug, Clone, PartialEq)]
struct GroupKey(Vec<Value>);

impl Eq for GroupKey {}

impl PartialOrd for GroupKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GroupKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        for (a, b) in self.0.iter().zip(&other.0) {
            let ord = a.total_cmp(b);
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

/// The pre-PR aggregation: routes every input row through a
/// `BTreeMap<GroupKey, Vec<Acc>>`, paying an O(log n) full-key-vector
/// comparison chain per row. Output order (sorted keys) is identical to
/// [`crate::exec::Aggregate`]'s finish-time sort.
pub struct BTreeAggregate {
    input: Option<BoxOp>,
    group_exprs: Vec<CExpr>,
    aggs: Vec<AggSpec>,
    schema: Schema,
    out: Option<std::vec::IntoIter<Row>>,
    global: bool,
}

impl BTreeAggregate {
    pub fn new(
        input: BoxOp,
        group_exprs: Vec<CExpr>,
        aggs: Vec<AggSpec>,
        schema: Schema,
    ) -> BTreeAggregate {
        let global = group_exprs.is_empty();
        BTreeAggregate {
            input: Some(input),
            group_exprs,
            aggs,
            schema,
            out: None,
            global,
        }
    }
}

impl Operator for BTreeAggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.out.is_none() {
            let mut src = self.input.take().expect("input present");
            let mut groups: BTreeMap<GroupKey, Vec<crate::exec::Acc>> = BTreeMap::new();
            while let Some(row) = src.next()? {
                let key = GroupKey(
                    self.group_exprs
                        .iter()
                        .map(|e| e.eval(&row))
                        .collect::<Result<_, _>>()?,
                );
                let accs = groups.entry(key).or_insert_with(|| {
                    self.aggs
                        .iter()
                        .map(|a| crate::exec::Acc::new(a.f))
                        .collect()
                });
                for (acc, spec) in accs.iter_mut().zip(&self.aggs) {
                    match &spec.arg {
                        None => acc.update(None)?,
                        Some(e) => {
                            let v = e.eval(&row)?;
                            acc.update(Some(&v))?;
                        }
                    }
                }
            }
            if groups.is_empty() && self.global {
                groups.insert(
                    GroupKey(Vec::new()),
                    self.aggs
                        .iter()
                        .map(|a| crate::exec::Acc::new(a.f))
                        .collect(),
                );
            }
            let rows: Vec<Row> = groups
                .into_iter()
                .map(|(k, accs)| {
                    let mut row = k.0;
                    row.extend(accs.into_iter().map(crate::exec::Acc::finish));
                    row
                })
                .collect();
            self.out = Some(rows.into_iter());
        }
        Ok(self.out.as_mut().unwrap().next())
    }
}
