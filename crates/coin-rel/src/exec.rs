//! Volcano-style physical operators.
//!
//! Every operator implements [`Operator`]: a pull-based `next()` returning
//! one row at a time. These are the "necessary local operations (e.g. joins
//! across sources)" the multi-database access engine executes locally
//! (paper §2); the planner composes them over remote sub-query results.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

use crate::expr::CExpr;
use crate::prog::{lower, ExprCache, ExprProg, Joined};
use crate::schema::{Row, Schema, Table};
use crate::tempstore::{cmp_rows, ExternalSorter, MergeStream, SortKey, TempStore};
use crate::value::{Value, ValueError};

/// Execution errors.
#[derive(Debug)]
pub enum ExecError {
    Value(ValueError),
    Io(std::io::Error),
    /// The pipeline's [`CancelToken`] was flipped — the consumer went away
    /// and the plan aborted mid-stream.
    Cancelled,
    Other(String),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Value(e) => write!(f, "{e}"),
            ExecError::Io(e) => write!(f, "io error: {e}"),
            ExecError::Cancelled => f.write_str("query cancelled"),
            ExecError::Other(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<ValueError> for ExecError {
    fn from(e: ValueError) -> Self {
        ExecError::Value(e)
    }
}

impl From<std::io::Error> for ExecError {
    fn from(e: std::io::Error) -> Self {
        ExecError::Io(e)
    }
}

/// A pull-based physical operator.
pub trait Operator {
    fn schema(&self) -> &Schema;
    fn next(&mut self) -> Result<Option<Row>, ExecError>;
}

/// Boxed operator, the composition unit. `Send` so a built pipeline can
/// be handed to the transport thread that drains it (streaming `/query`
/// responses are pulled by a server worker, not the thread that planned).
pub type BoxOp = Box<dyn Operator + Send>;

/// Drain an operator into a row vector.
pub fn drain(mut op: BoxOp) -> Result<Vec<Row>, ExecError> {
    let mut out = Vec::new();
    while let Some(row) = op.next()? {
        out.push(row);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------

/// Scan over materialized rows.
pub struct ValuesScan {
    schema: Schema,
    rows: std::vec::IntoIter<Row>,
}

impl ValuesScan {
    pub fn new(schema: Schema, rows: Vec<Row>) -> ValuesScan {
        ValuesScan {
            schema,
            rows: rows.into_iter(),
        }
    }
}

impl Operator for ValuesScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        Ok(self.rows.next())
    }
}

/// Scan over a shared table, optionally pruned to a list of columns.
///
/// A `TableScan` holds its table through an `Arc`, so building one copies
/// nothing. On its first pull it checks whether it holds the only handle
/// left: a staged fetch whose catalog has been dropped usually is. Then it
/// takes the rows by move and yields them without copying. A table that is
/// still shared (a source's own catalog, a fetch staged for several
/// branches, both sides of a self-join) is left intact and each row is
/// cloned as it is pulled; that clone is cheap, since values are scalars or
/// `Arc<str>`.
///
/// A pruned scan ([`TableScan::pruned`]) yields only the listed columns, in
/// order, copying just those: a bare-column projection needs no `Project`.
pub struct TableScan {
    table: Arc<Table>,
    schema: Schema,
    /// Table columns each output row is made of; `None` for whole rows.
    columns: Option<Vec<usize>>,
    /// The rows, once taken by move on the first pull.
    owned: Option<std::vec::IntoIter<Row>>,
    started: bool,
    pos: usize,
}

impl TableScan {
    /// Scan `table` announcing `schema` (usually the table's schema
    /// qualified by a FROM binding; arities must match).
    pub fn new(table: Arc<Table>, schema: Schema) -> TableScan {
        debug_assert_eq!(table.schema.len(), schema.len());
        TableScan::build(table, None, schema)
    }

    /// Scan only `columns` of `table` (in that order, repeats allowed),
    /// announcing `schema`, which has one column per entry.
    pub fn pruned(table: Arc<Table>, columns: Vec<usize>, schema: Schema) -> TableScan {
        debug_assert_eq!(columns.len(), schema.len());
        debug_assert!(columns.iter().all(|&i| i < table.schema.len()));
        TableScan::build(table, Some(columns), schema)
    }

    fn build(table: Arc<Table>, columns: Option<Vec<usize>>, schema: Schema) -> TableScan {
        TableScan {
            table,
            schema,
            columns,
            owned: None,
            started: false,
            pos: 0,
        }
    }
}

impl Operator for TableScan {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if !self.started {
            self.started = true;
            if let Some(table) = Arc::get_mut(&mut self.table) {
                self.owned = Some(std::mem::take(&mut table.rows).into_iter());
            }
        }
        let pick =
            |row: &Row, cols: &[usize]| -> Row { cols.iter().map(|&i| row[i].clone()).collect() };
        Ok(match (&mut self.owned, &self.columns) {
            (Some(rows), None) => rows.next(),
            (Some(rows), Some(cols)) => rows.next().map(|row| pick(&row, cols)),
            (None, columns) => {
                let row = self.table.rows.get(self.pos);
                self.pos += row.is_some() as usize;
                row.map(|row| match columns {
                    None => row.clone(),
                    Some(cols) => pick(row, cols),
                })
            }
        })
    }
}

/// Pass rows through unchanged under a replacement schema (re-qualified
/// column names for a FROM binding, or a UNION branch re-branded with the
/// first branch's column names).
pub struct Rebrand {
    input: BoxOp,
    schema: Schema,
}

impl Rebrand {
    pub fn new(input: BoxOp, schema: Schema) -> Rebrand {
        debug_assert_eq!(input.schema().len(), schema.len());
        Rebrand { input, schema }
    }
}

impl Operator for Rebrand {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        self.input.next()
    }
}

/// A shared cancellation signal for a running pipeline.
///
/// Cloning the token shares the flag; any holder may [`CancelToken::cancel`]
/// and every [`CancelGuard`] in the pipeline then surfaces
/// [`ExecError::Cancelled`] within [`CANCEL_CHECK_INTERVAL`] rows. The flag
/// can also be built around an externally owned `Arc<AtomicBool>`
/// ([`CancelToken::from_shared`]) so a transport layer can flip it without
/// depending on this crate's types.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Wrap an existing shared flag (`true` means cancelled).
    pub fn from_shared(flag: Arc<AtomicBool>) -> CancelToken {
        CancelToken(flag)
    }

    /// The underlying shared flag.
    pub fn shared(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.0)
    }

    /// Request cancellation. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, AtomicOrdering::Relaxed);
    }

    pub fn is_cancelled(&self) -> bool {
        self.0.load(AtomicOrdering::Relaxed)
    }
}

/// How many rows a [`CancelGuard`] lets through between cancellation
/// checks. Blocking operators (sort, aggregate, join build sides) drain
/// their inputs through the guards below them, so a flipped token stops
/// even a pipeline that has not emitted a single output row yet.
pub const CANCEL_CHECK_INTERVAL: u32 = 256;

/// Propagates cancellation into a pipeline: checks the token every
/// [`CANCEL_CHECK_INTERVAL`] rows and fails with [`ExecError::Cancelled`].
/// The engine inserts one guard above every scan, which bounds the work any
/// operator can do after cancellation to one check interval per input.
pub struct CancelGuard {
    input: BoxOp,
    token: CancelToken,
    countdown: u32,
}

impl CancelGuard {
    pub fn new(input: BoxOp, token: CancelToken) -> CancelGuard {
        CancelGuard {
            input,
            token,
            countdown: 0,
        }
    }
}

impl Operator for CancelGuard {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.countdown == 0 {
            if self.token.is_cancelled() {
                return Err(ExecError::Cancelled);
            }
            self.countdown = CANCEL_CHECK_INTERVAL;
        }
        self.countdown -= 1;
        self.input.next()
    }
}

/// Filter by a compiled predicate program.
pub struct Filter {
    input: BoxOp,
    prog: Arc<ExprProg>,
    regs: Vec<Value>,
}

impl Filter {
    pub fn new(input: BoxOp, predicate: CExpr) -> Filter {
        Filter::compiled(input, Arc::new(ExprProg::compile(&predicate)))
    }

    /// Build from an already-lowered program (the plan-cache path: compile
    /// once per plan, share across executions).
    pub fn compiled(input: BoxOp, prog: Arc<ExprProg>) -> Filter {
        Filter {
            input,
            prog,
            regs: Vec::new(),
        }
    }
}

impl Operator for Filter {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        while let Some(row) = self.input.next()? {
            if self.prog.matches(&row, &mut self.regs)? {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }
}

/// Projection: compute a new row from compiled expression programs.
pub struct Project {
    input: BoxOp,
    progs: Vec<Arc<ExprProg>>,
    regs: Vec<Value>,
    schema: Schema,
}

impl Project {
    pub fn new(input: BoxOp, exprs: Vec<CExpr>, schema: Schema) -> Project {
        let progs = exprs
            .iter()
            .map(|e| Arc::new(ExprProg::compile(e)))
            .collect();
        Project::compiled(input, progs, schema)
    }

    /// Build from already-lowered programs (the plan-cache path).
    pub fn compiled(input: BoxOp, progs: Vec<Arc<ExprProg>>, schema: Schema) -> Project {
        assert_eq!(progs.len(), schema.len());
        Project {
            input,
            progs,
            regs: Vec::new(),
            schema,
        }
    }
}

impl Operator for Project {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        match self.input.next()? {
            Some(row) => {
                let mut out = Vec::with_capacity(self.progs.len());
                for p in &self.progs {
                    out.push(p.eval(&row, &mut self.regs)?);
                }
                Ok(Some(out))
            }
            None => Ok(None),
        }
    }
}

/// What a join emits of each matching pair: the listed columns of the left
/// row, then the listed columns of the right row. A new join keeps every
/// column (`left ++ right`); [`JoinOutput::keep`] narrows it to the columns
/// something above the join still reads.
struct JoinOutput {
    left: Vec<usize>,
    right: Vec<usize>,
    schema: Schema,
}

impl JoinOutput {
    fn full(left: &Schema, right: &Schema) -> JoinOutput {
        JoinOutput {
            left: (0..left.len()).collect(),
            right: (0..right.len()).collect(),
            schema: left.join(right),
        }
    }

    /// Keep only `left` of the left input's columns and `right` of the
    /// right input's, each list in output order.
    fn keep(&mut self, left: Vec<usize>, right: Vec<usize>) {
        let (l, r) = self.schema.columns.split_at(self.left.len());
        debug_assert_eq!(r.len(), self.right.len(), "narrowed once, from full width");
        let columns = (left.iter().map(|&i| l[i].clone()))
            .chain(right.iter().map(|&j| r[j].clone()))
            .collect();
        *self = JoinOutput {
            left,
            right,
            schema: Schema::new(columns),
        };
    }

    /// The output row of a matching pair, built in one allocation of exact
    /// size.
    fn row(&self, l: &[Value], r: &[Value]) -> Row {
        let mut row = Vec::with_capacity(self.left.len() + self.right.len());
        row.extend(self.left.iter().map(|&i| l[i].clone()));
        row.extend(self.right.iter().map(|&j| r[j].clone()));
        row
    }
}

/// Nested-loop join with an optional predicate, evaluated over each pair of
/// input rows in place (a [`Joined`] view, compiled against the left
/// schema followed by the right one); only a pair that passes is built into
/// an output row.
///
/// One input is held in memory, loaded on the first pull; the other is
/// streamed past it, so the first joined row leaves after one row of the
/// streamed input. The right input is held unless
/// [`NestedLoopJoin::holding_left`] chose the left one (the engine does when
/// the left input is known to be the smaller). Output rows are `left ++
/// right`, or the columns [`NestedLoopJoin::keeping`] lists; only their
/// order depends on which side is held.
pub struct NestedLoopJoin {
    /// The input streamed past the held rows.
    streamed: BoxOp,
    /// The held input, until it is loaded into `held_rows`.
    held: Option<BoxOp>,
    held_rows: Vec<Row>,
    hold_left: bool,
    predicate: Option<Arc<ExprProg>>,
    regs: Vec<Value>,
    out: JoinOutput,
    current: Option<Row>,
    held_pos: usize,
}

impl NestedLoopJoin {
    pub fn new(left: BoxOp, right: BoxOp, predicate: Option<CExpr>) -> NestedLoopJoin {
        let predicate = predicate.map(|p| Arc::new(ExprProg::compile(&p)));
        NestedLoopJoin::compiled(left, right, predicate)
    }

    /// Build from an already-lowered predicate program (the plan-cache path).
    pub fn compiled(left: BoxOp, right: BoxOp, predicate: Option<Arc<ExprProg>>) -> NestedLoopJoin {
        let out = JoinOutput::full(left.schema(), right.schema());
        NestedLoopJoin {
            streamed: left,
            held: Some(right),
            held_rows: Vec::new(),
            hold_left: false,
            predicate,
            regs: Vec::new(),
            out,
            current: None,
            held_pos: 0,
        }
    }

    /// Hold the left input in memory and stream the right one instead.
    pub fn holding_left(mut self) -> NestedLoopJoin {
        if !self.hold_left {
            let right = self.held.take().expect("built, not yet pulled");
            self.held = Some(std::mem::replace(&mut self.streamed, right));
            self.hold_left = true;
        }
        self
    }

    /// Emit only `left` of the left input's columns followed by `right` of
    /// the right input's (indices into each input's schema).
    pub fn keeping(mut self, left: Vec<usize>, right: Vec<usize>) -> NestedLoopJoin {
        self.out.keep(left, right);
        self
    }
}

impl Operator for NestedLoopJoin {
    fn schema(&self) -> &Schema {
        &self.out.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if let Some(held) = self.held.take() {
            self.held_rows = drain(held)?;
        }
        loop {
            if self.current.is_none() {
                self.current = self.streamed.next()?;
                self.held_pos = 0;
                if self.current.is_none() {
                    return Ok(None);
                }
            }
            let s = self.current.as_ref().unwrap();
            while self.held_pos < self.held_rows.len() {
                let h = &self.held_rows[self.held_pos];
                self.held_pos += 1;
                let (l, r) = if self.hold_left { (h, s) } else { (s, h) };
                match &self.predicate {
                    Some(p) if !p.matches(&Joined(l, r), &mut self.regs)? => continue,
                    _ => return Ok(Some(self.out.row(l, r))),
                }
            }
            self.current = None;
        }
    }
}

// ---------------------------------------------------------------------------
// Key hashing
// ---------------------------------------------------------------------------

/// A fast multiplicative word hasher (the FxHash construction from
/// rustc/Firefox: `state = (state.rotl(5) ^ word) * K` per 8-byte word).
/// Key hashing runs once per input row on the join/group/distinct hot
/// paths and the buckets it feeds are always re-verified with real value
/// equality, so a cheap non-cryptographic hash is the right trade: ~5× less
/// per-row hashing work than SipHash with no correctness exposure beyond
/// bucket collisions.
#[derive(Default)]
pub struct KeyHasher(u64);

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl KeyHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for KeyHasher {
    /// Murmur3 `fmix64` finalizer. The multiplicative state mixes its
    /// entropy toward the *high* bits, while the bucket maps behind
    /// [`Prehashed`] index by the *low* bits — without this final
    /// avalanche, near-sequential integer keys cluster into a few
    /// buckets and probe chains grow linear.
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(tail));
        }
        // Length word: keeps `"a"` + `"b\0..."`-style boundary ambiguities
        // across multi-column keys distinct.
        self.add_word(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.add_word(u64::from(b));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_word(n);
    }
}

/// An identity hasher for maps keyed by an **already-hashed** `u64` (the
/// output of [`hash_row_key`]/[`hash_values`]). The standard `HashMap`
/// would otherwise SipHash the 64-bit key on every probe — measurable on
/// a per-input-row hot path.
#[derive(Default)]
pub struct Prehashed(u64);

impl Hasher for Prehashed {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("Prehashed maps take u64 keys only")
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

/// Marks the end of a chain in [`ChainIndex`].
const CHAIN_END: u32 = u32::MAX;

/// Members `0, 1, 2, …` of an arena bucketed by a precomputed 64-bit key
/// hash ([`hash_row_key`]/[`hash_values`]): one chain head per distinct
/// hash, and one `next` link per member in a single array. However many
/// keys it holds, the index is two allocations, where a vector per key
/// would be one per key. Shared by the join build table, the aggregation
/// group index, the distinct set and the planner's fetch deduplication.
///
/// Chains say which members *may* share a key; callers confirm with their
/// own equality, since a 64-bit hash can collide.
#[derive(Default)]
pub struct ChainIndex {
    heads: HashMap<u64, u32, BuildHasherDefault<Prehashed>>,
    next: Vec<u32>,
}

impl ChainIndex {
    /// Index members `0..hashes.len()` whose key hashes are `hashes`. Chains
    /// are linked back to front, so each lists its members in ascending
    /// order: a join probe meets build rows in arrival order.
    pub fn from_hashes(hashes: &[u64]) -> ChainIndex {
        let mut index = ChainIndex {
            heads: HashMap::with_capacity_and_hasher(hashes.len(), Default::default()),
            next: vec![CHAIN_END; hashes.len()],
        };
        for (m, &h) in hashes.iter().enumerate().rev() {
            index.next[m] = index.heads.insert(h, m as u32).unwrap_or(CHAIN_END);
        }
        index
    }

    /// The first member of `h`'s chain.
    #[inline]
    pub fn first(&self, h: u64) -> Option<usize> {
        self.heads.get(&h).map(|&m| m as usize)
    }

    /// The member after `m` in its chain.
    #[inline]
    pub fn after(&self, m: usize) -> Option<usize> {
        Some(self.next[m])
            .filter(|&n| n != CHAIN_END)
            .map(|n| n as usize)
    }

    /// The member of `h`'s chain for which `same` holds. When there is none,
    /// the next member number (how many members were added before) joins
    /// the head of the chain and `None` is returned: the caller appends
    /// that member to its arena.
    pub fn find_or_add(&mut self, h: u64, mut same: impl FnMut(usize) -> bool) -> Option<usize> {
        let new = self.next.len() as u32;
        let head = self.heads.entry(h).or_insert(CHAIN_END);
        let mut m = *head;
        while m != CHAIN_END {
            if same(m as usize) {
                return Some(m as usize);
            }
            m = self.next[m as usize];
        }
        self.next.push(*head);
        *head = new;
        None
    }
}

/// Feed one value into a hasher with a type discriminant, widening numerics
/// so `Int(2)` and `Float(2.0)` hash identically (they compare equal both
/// under SQL `=` and under the grouping order). `-0.0` is collapsed onto
/// `0.0` before hashing: SQL equality (`sql_cmp`, used by join keys) treats
/// them as equal, so they must share a bucket; grouping (`total_cmp`)
/// distinguishes them, which stays correct because bucket membership is
/// always re-verified with the operator's own equality.
pub fn hash_value(v: &Value, h: &mut impl Hasher) {
    match v {
        Value::Null => h.write_u8(0),
        Value::Bool(b) => {
            h.write_u8(1);
            h.write_u8(u8::from(*b));
        }
        v if v.is_number() => {
            h.write_u8(2);
            let x = v.as_f64().unwrap();
            let x = if x == 0.0 { 0.0 } else { x };
            h.write_u64(x.to_bits());
        }
        Value::Str(s) => {
            h.write_u8(3);
            // `write` appends a length word, keeping multi-column keys
            // unambiguous without a sentinel byte.
            h.write(s.as_bytes());
        }
        _ => unreachable!(),
    }
}

/// Hash the `keys` columns of a row directly into a 64-bit key — no string
/// materialization, no allocation. Callers bucket rows by this value and
/// must confirm candidate equality themselves (a 64-bit hash can collide).
pub fn hash_row_key(row: &Row, keys: &[usize]) -> u64 {
    let mut h = KeyHasher::default();
    for &i in keys {
        hash_value(&row[i], &mut h);
    }
    h.finish()
}

/// Hash a contiguous slice of values (an evaluated group key).
pub fn hash_values(vals: &[Value]) -> u64 {
    let mut h = KeyHasher::default();
    for v in vals {
        hash_value(v, &mut h);
    }
    h.finish()
}

/// Hash (equi-)join: `left.keyL = right.keyR` column pairs, with an optional
/// residual predicate evaluated over each key-matching pair in place (a
/// [`Joined`] view, compiled against the left schema followed by the right
/// one). Builds a [`ChainIndex`] over one input — the right one unless
/// [`HashJoin::building_left`] chose the left — bucketed by
/// [`hash_row_key`], and streams the other past it; every probe candidate
/// is confirmed with SQL equality on the key columns, so hash collisions
/// can never manufacture a match. A probe row meets its matches in the
/// built input's arrival order. Output rows are `left ++ right`, or the
/// columns [`HashJoin::keeping`] lists; only their order depends on which
/// side is built.
pub struct HashJoin {
    probe: BoxOp,
    build: Option<BoxOp>,
    /// Build rows in arrival order; the index numbers them.
    build_rows: Vec<Row>,
    table: ChainIndex,
    probe_keys: Vec<usize>,
    build_keys: Vec<usize>,
    build_left: bool,
    residual: Option<Arc<ExprProg>>,
    regs: Vec<Value>,
    out: JoinOutput,
    current: Option<Row>,
    /// The next build row to try against `current`.
    candidate: Option<usize>,
}

impl HashJoin {
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<CExpr>,
    ) -> HashJoin {
        let residual = residual.map(|p| Arc::new(ExprProg::compile(&p)));
        HashJoin::compiled(left, right, left_keys, right_keys, residual)
    }

    /// Build from an already-lowered residual program (the plan-cache path).
    pub fn compiled(
        left: BoxOp,
        right: BoxOp,
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        residual: Option<Arc<ExprProg>>,
    ) -> HashJoin {
        assert_eq!(left_keys.len(), right_keys.len());
        assert!(!left_keys.is_empty());
        let out = JoinOutput::full(left.schema(), right.schema());
        HashJoin {
            probe: left,
            build: Some(right),
            build_rows: Vec::new(),
            table: ChainIndex::default(),
            probe_keys: left_keys,
            build_keys: right_keys,
            build_left: false,
            residual,
            regs: Vec::new(),
            out,
            current: None,
            candidate: None,
        }
    }

    /// Build the index over the left input and stream the right one past
    /// it instead.
    pub fn building_left(mut self) -> HashJoin {
        if !self.build_left {
            let right = self.build.take().expect("built, not yet pulled");
            self.build = Some(std::mem::replace(&mut self.probe, right));
            std::mem::swap(&mut self.probe_keys, &mut self.build_keys);
            self.build_left = true;
        }
        self
    }

    /// Emit only `left` of the left input's columns followed by `right` of
    /// the right input's (indices into each input's schema).
    pub fn keeping(mut self, left: Vec<usize>, right: Vec<usize>) -> HashJoin {
        self.out.keep(left, right);
        self
    }

    /// Load the build side and index it. Rows with a NULL key never join
    /// and are not kept.
    fn build(&mut self, mut src: BoxOp) -> Result<(), ExecError> {
        let mut hashes = Vec::new();
        while let Some(row) = src.next()? {
            if self.build_keys.iter().any(|&i| row[i].is_null()) {
                continue;
            }
            hashes.push(hash_row_key(&row, &self.build_keys));
            self.build_rows.push(row);
        }
        // A scan that moved its rows out still holds their old buffer.
        drop(src);
        self.table = ChainIndex::from_hashes(&hashes);
        Ok(())
    }

    /// SQL `=` over the key columns of a probe/build row pair.
    fn keys_equal(&self, p: &Row, b: &Row) -> bool {
        self.probe_keys
            .iter()
            .zip(&self.build_keys)
            .all(|(&pi, &bi)| p[pi].sql_cmp(&b[bi]) == Some(std::cmp::Ordering::Equal))
    }
}

impl Operator for HashJoin {
    fn schema(&self) -> &Schema {
        &self.out.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if let Some(src) = self.build.take() {
            self.build(src)?;
        }
        loop {
            if let Some(p) = &self.current {
                while let Some(m) = self.candidate {
                    self.candidate = self.table.after(m);
                    let b = &self.build_rows[m];
                    if !self.keys_equal(p, b) {
                        continue;
                    }
                    let (l, r) = if self.build_left { (b, p) } else { (p, b) };
                    match &self.residual {
                        Some(pred) if !pred.matches(&Joined(l, r), &mut self.regs)? => continue,
                        _ => return Ok(Some(self.out.row(l, r))),
                    }
                }
                self.current = None;
            }
            match self.probe.next()? {
                None => return Ok(None),
                Some(p) => {
                    if self.probe_keys.iter().any(|&i| p[i].is_null()) {
                        continue;
                    }
                    self.candidate = self.table.first(hash_row_key(&p, &self.probe_keys));
                    self.current = Some(p);
                }
            }
        }
    }
}

/// Concatenation of several inputs with identical arity (UNION ALL).
pub struct UnionAll {
    inputs: Vec<BoxOp>,
    pos: usize,
    schema: Schema,
}

impl UnionAll {
    pub fn new(inputs: Vec<BoxOp>) -> UnionAll {
        assert!(!inputs.is_empty());
        let schema = inputs[0].schema().clone();
        for i in &inputs[1..] {
            assert_eq!(
                i.schema().len(),
                schema.len(),
                "UNION branches must have equal arity"
            );
        }
        UnionAll {
            inputs,
            pos: 0,
            schema,
        }
    }
}

impl Operator for UnionAll {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        while self.pos < self.inputs.len() {
            if let Some(row) = self.inputs[self.pos].next()? {
                return Ok(Some(row));
            }
            self.pos += 1;
        }
        Ok(None)
    }
}

/// Default number of distinct rows [`Distinct`] holds in memory before
/// falling back to the external sorter.
pub const DISTINCT_SPILL_THRESHOLD: usize = 64 * 1024;

/// Duplicate elimination.
///
/// Deduplicates through an in-memory hash set of rows (bucketed by
/// [`hash_row_key`] over all columns, candidates confirmed with the total
/// row order, so NULLs deduplicate and hash collisions stay harmless).
/// When the *distinct* set outgrows `spill_threshold` rows the operator
/// falls back to the pre-hash strategy — external sort of everything seen
/// plus the remaining input, then adjacent-duplicate suppression — keeping
/// memory bounded for arbitrarily large inputs.
///
/// Output is emitted in the total row order in both modes (the in-memory
/// set is sorted once at the end), so results are deterministic and
/// identical to the sort-based implementation's. The spill path emits
/// incrementally from the k-way merge — the deduplicated result is never
/// materialized as a whole.
pub struct Distinct {
    input: Option<BoxOp>,
    schema: Schema,
    sorted: Option<std::vec::IntoIter<Row>>,
    /// Spill path: merge of the pre-sorted dedup set and the sorted tail,
    /// deduplicated on the fly against `last`.
    merge: Option<MergeStream>,
    last: Option<Row>,
    store: TempStore,
    run_capacity: usize,
    spill_threshold: usize,
    /// Whether the fallback path ran (observability for tests/benches).
    spilled: bool,
}

impl Distinct {
    pub fn new(input: BoxOp) -> Distinct {
        let schema = input.schema().clone();
        Distinct {
            input: Some(input),
            schema,
            sorted: None,
            merge: None,
            last: None,
            store: TempStore::new(),
            run_capacity: 64 * 1024,
            spill_threshold: DISTINCT_SPILL_THRESHOLD,
            spilled: false,
        }
    }

    /// Lower the distinct-set size at which the operator abandons hashing
    /// for the external sorter (0 forces the sort path — the pre-hash
    /// behaviour, used as the equivalence baseline in tests and benches).
    pub fn with_spill_threshold(mut self, threshold: usize) -> Distinct {
        self.spill_threshold = threshold;
        self
    }

    /// Lower the fallback sorter's in-memory run size (exercises the disk
    /// spill path in tests without a 64Ki-row input).
    pub fn with_run_capacity(mut self, cap: usize) -> Distinct {
        self.run_capacity = cap;
        self
    }

    /// Did this operator fall back to the external-sort path?
    pub fn spilled(&self) -> bool {
        self.spilled
    }

    fn full_key(&self) -> SortKey {
        (0..self.schema.len()).map(|i| (i, false)).collect()
    }

    /// Consume the input and park the result either as an in-memory sorted
    /// vector (`sorted`) or as a spill-backed merge stream (`merge`).
    fn build(&mut self) -> Result<(), ExecError> {
        let mut src = self.input.take().expect("input present");
        let key = self.full_key();
        let all_cols: Vec<usize> = (0..self.schema.len()).collect();

        // Phase 1: hash dedup while the distinct set fits the threshold.
        let mut seen: Vec<Row> = Vec::new();
        let mut table = ChainIndex::default();
        while let Some(row) = src.next()? {
            let h = hash_row_key(&row, &all_cols);
            let same = |i| cmp_rows(&seen[i], &row, &key) == std::cmp::Ordering::Equal;
            if table.find_or_add(h, same).is_some() {
                continue;
            }
            if seen.len() >= self.spill_threshold {
                // Phase 2: the distinct set no longer fits. It is already
                // duplicate-free, so one in-memory sort turns it into a
                // ready-made merge run — only the *tail* of the input goes
                // through the external sorter's spill machinery. (Re-pushing
                // the dedup set would re-sort it and write it to disk,
                // double-counting it in the spill stats for no benefit.)
                self.spilled = true;
                drop(table);
                let mut sorter =
                    ExternalSorter::new(self.store.clone(), key.clone(), self.run_capacity);
                seen.sort_unstable_by(|a, b| cmp_rows(a, b, &key));
                sorter.add_sorted_run(std::mem::take(&mut seen));
                sorter.push(row)?;
                while let Some(r) = src.next()? {
                    sorter.push(r)?;
                }
                // Adjacent duplicates are suppressed while pulling from the
                // merge (see `next`), so the distinct result streams out
                // without ever being materialized.
                self.merge = Some(sorter.into_merge()?);
                return Ok(());
            }
            seen.push(row);
        }
        // Everything fit: one in-memory sort of the distinct set keeps the
        // output order identical to the sort-based implementation.
        seen.sort_unstable_by(|a, b| cmp_rows(a, b, &key));
        self.sorted = Some(seen.into_iter());
        Ok(())
    }
}

impl Operator for Distinct {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.sorted.is_none() && self.merge.is_none() {
            self.build()?;
        }
        if let Some(merge) = &mut self.merge {
            while let Some(row) = merge.next_row()? {
                let dup = self.last.as_ref().is_some_and(|l| {
                    l.iter()
                        .zip(&row)
                        .all(|(a, b)| a.total_cmp(b) == std::cmp::Ordering::Equal)
                });
                if dup {
                    continue;
                }
                self.last = Some(row.clone());
                return Ok(Some(row));
            }
            return Ok(None);
        }
        Ok(self.sorted.as_mut().unwrap().next())
    }
}

/// ORDER BY via the external sorter.
///
/// Blocking on the input side (everything must be seen before the first
/// row can come out), but the *output* side streams from the k-way merge:
/// after the runs are built the operator holds one in-memory run plus one
/// row per disk run, never the whole sorted result.
pub struct Sort {
    input: Option<BoxOp>,
    schema: Schema,
    key: SortKey,
    merge: Option<MergeStream>,
    store: TempStore,
    run_capacity: usize,
}

impl Sort {
    pub fn new(input: BoxOp, key: SortKey) -> Sort {
        let schema = input.schema().clone();
        Sort {
            input: Some(input),
            schema,
            key,
            merge: None,
            store: TempStore::new(),
            run_capacity: 64 * 1024,
        }
    }

    /// Lower the in-memory run size (exercises the spill path in tests and
    /// the spill ablation bench).
    pub fn with_run_capacity(mut self, cap: usize) -> Sort {
        self.run_capacity = cap;
        self
    }
}

impl Operator for Sort {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.merge.is_none() {
            let mut src = self.input.take().expect("input present");
            let mut sorter =
                ExternalSorter::new(self.store.clone(), self.key.clone(), self.run_capacity);
            while let Some(row) = src.next()? {
                sorter.push(row)?;
            }
            self.merge = Some(sorter.into_merge()?);
        }
        Ok(self.merge.as_mut().unwrap().next_row()?)
    }
}

/// LIMIT n.
pub struct Limit {
    input: BoxOp,
    remaining: u64,
}

impl Limit {
    pub fn new(input: BoxOp, n: u64) -> Limit {
        Limit {
            input,
            remaining: n,
        }
    }
}

impl Operator for Limit {
    fn schema(&self) -> &Schema {
        self.input.schema()
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        self.input.next()
    }
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFn {
    pub fn parse(name: &str, has_arg: bool) -> Option<AggFn> {
        // Case-insensitive match without the per-call uppercase allocation.
        let is = |kw: &str| name.eq_ignore_ascii_case(kw);
        Some(match has_arg {
            false if is("COUNT") => AggFn::CountStar,
            true if is("COUNT") => AggFn::Count,
            true if is("SUM") => AggFn::Sum,
            true if is("AVG") => AggFn::Avg,
            true if is("MIN") => AggFn::Min,
            true if is("MAX") => AggFn::Max,
            _ => return None,
        })
    }
}

/// Accumulator for one aggregate over one group.
#[derive(Debug, Clone)]
enum Acc {
    Count(i64),
    Sum {
        sum: f64,
        all_int: bool,
        int_sum: i64,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    MinMax {
        best: Option<Value>,
        max: bool,
    },
}

impl Acc {
    fn new(f: AggFn) -> Acc {
        match f {
            AggFn::CountStar | AggFn::Count => Acc::Count(0),
            AggFn::Sum => Acc::Sum {
                sum: 0.0,
                all_int: true,
                int_sum: 0,
                seen: false,
            },
            AggFn::Avg => Acc::Avg { sum: 0.0, n: 0 },
            AggFn::Min => Acc::MinMax {
                best: None,
                max: false,
            },
            AggFn::Max => Acc::MinMax {
                best: None,
                max: true,
            },
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<(), ExecError> {
        match self {
            Acc::Count(n) => match v {
                // COUNT(*) gets None; COUNT(e) skips NULLs.
                None => *n += 1,
                Some(val) if !val.is_null() => *n += 1,
                _ => {}
            },
            Acc::Sum {
                sum,
                all_int,
                int_sum,
                seen,
            } => {
                if let Some(val) = v {
                    if val.is_null() {
                        return Ok(());
                    }
                    let Some(x) = val.as_f64() else {
                        return Err(ExecError::Value(ValueError::TypeMismatch(format!(
                            "SUM over {}",
                            val.type_name()
                        ))));
                    };
                    *seen = true;
                    *sum += x;
                    match val {
                        Value::Int(i) => {
                            *int_sum = int_sum.wrapping_add(*i);
                        }
                        _ => *all_int = false,
                    }
                }
            }
            Acc::Avg { sum, n } => {
                if let Some(val) = v {
                    if val.is_null() {
                        return Ok(());
                    }
                    let Some(x) = val.as_f64() else {
                        return Err(ExecError::Value(ValueError::TypeMismatch(format!(
                            "AVG over {}",
                            val.type_name()
                        ))));
                    };
                    *sum += x;
                    *n += 1;
                }
            }
            Acc::MinMax { best, max } => {
                if let Some(val) = v {
                    if val.is_null() {
                        return Ok(());
                    }
                    let replace = match best {
                        None => true,
                        Some(b) => {
                            let ord = val.total_cmp(b);
                            if *max {
                                ord == std::cmp::Ordering::Greater
                            } else {
                                ord == std::cmp::Ordering::Less
                            }
                        }
                    };
                    if replace {
                        *best = Some(val.clone());
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int(n),
            Acc::Sum {
                sum,
                all_int,
                int_sum,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if all_int {
                    Value::Int(int_sum)
                } else {
                    Value::Float(sum)
                }
            }
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            Acc::MinMax { best, .. } => best.unwrap_or(Value::Null),
        }
    }
}

/// Lexicographic total order over group keys (then length, for safety) —
/// the output order of [`Aggregate`], kept identical to the retired
/// BTreeMap-based implementation's key order.
pub(crate) fn cmp_keys(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let ord = x.total_cmp(y);
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.len().cmp(&b.len())
}

/// One aggregate specification: the function and its compiled argument
/// (`None` for `COUNT(*)`).
pub struct AggSpec {
    pub f: AggFn,
    pub arg: Option<CExpr>,
}

/// Hash aggregation: groups by `group_exprs`, computes `aggs`; output
/// row = group values ++ aggregate values.
///
/// Groups live in an arrival-order arena bucketed by [`hash_values`] over
/// the evaluated key (candidates confirmed with `group_eq`, so NULL groups
/// with NULL and hash collisions stay harmless). Each input row costs one
/// hash + one bucket probe instead of the O(log n) full-key-vector
/// comparisons of the previous BTreeMap; determinism is recovered by a
/// single finish-time sort of the group keys, so the output order is
/// byte-identical to the tree-based implementation's.
pub struct Aggregate {
    input: Option<BoxOp>,
    group_progs: Vec<Arc<ExprProg>>,
    /// When every group expression is a plain column reference (`GROUP BY
    /// k`, the common shape), the key is hashed and compared directly
    /// against the input row — no per-row key evaluation or clone.
    group_cols: Option<Vec<usize>>,
    aggs: Vec<AggSpec>,
    /// Lowered `AggSpec::arg` programs, index-aligned with `aggs`.
    arg_progs: Vec<Option<Arc<ExprProg>>>,
    regs: Vec<Value>,
    schema: Schema,
    out: Option<std::vec::IntoIter<Row>>,
    /// With no GROUP BY and no input rows, SQL still produces one row of
    /// aggregates over the empty set.
    global: bool,
}

impl Aggregate {
    pub fn new(
        input: BoxOp,
        group_exprs: Vec<CExpr>,
        aggs: Vec<AggSpec>,
        schema: Schema,
    ) -> Aggregate {
        Aggregate::with_cache(input, group_exprs, aggs, schema, None)
    }

    /// [`Aggregate::new`], lowering key and argument expressions through a
    /// per-plan [`ExprCache`] so re-executions share the compiled programs.
    pub fn with_cache(
        input: BoxOp,
        group_exprs: Vec<CExpr>,
        aggs: Vec<AggSpec>,
        schema: Schema,
        cache: Option<&ExprCache>,
    ) -> Aggregate {
        let global = group_exprs.is_empty();
        let group_cols = group_exprs
            .iter()
            .map(|e| match e {
                CExpr::Col(i) => Some(*i),
                _ => None,
            })
            .collect::<Option<Vec<usize>>>()
            .filter(|c| !c.is_empty());
        let group_progs = group_exprs.iter().map(|e| lower(e, cache)).collect();
        let arg_progs = aggs
            .iter()
            .map(|a| a.arg.as_ref().map(|e| lower(e, cache)))
            .collect();
        Aggregate {
            input: Some(input),
            group_progs,
            group_cols,
            aggs,
            arg_progs,
            regs: Vec::new(),
            schema,
            out: None,
            global,
        }
    }
}

impl Operator for Aggregate {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn next(&mut self) -> Result<Option<Row>, ExecError> {
        if self.out.is_none() {
            let mut src = self.input.take().expect("input present");
            // (key, accumulators) in arrival order; `index` buckets arena
            // positions by key hash.
            let mut groups: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
            let mut index = ChainIndex::default();
            let mut keybuf: Vec<Value> = Vec::with_capacity(self.group_progs.len());
            while let Some(row) = src.next()? {
                // Column-only keys hash/compare straight off the row; the
                // key values are only cloned when a new group is created.
                let gi = if let Some(cols) = &self.group_cols {
                    let h = hash_row_key(&row, cols);
                    let same = |g: usize| {
                        let key = &groups[g].0;
                        key.iter().zip(cols).all(|(a, &c)| a.group_eq(&row[c]))
                    };
                    match index.find_or_add(h, same) {
                        Some(g) => g,
                        None => {
                            groups.push((
                                cols.iter().map(|&c| row[c].clone()).collect(),
                                self.aggs.iter().map(|a| Acc::new(a.f)).collect(),
                            ));
                            groups.len() - 1
                        }
                    }
                } else {
                    keybuf.clear();
                    for p in &self.group_progs {
                        keybuf.push(p.eval(&row, &mut self.regs)?);
                    }
                    let h = hash_values(&keybuf);
                    let same = |g: usize| {
                        let key = &groups[g].0;
                        key.len() == keybuf.len()
                            && key.iter().zip(&keybuf).all(|(a, b)| a.group_eq(b))
                    };
                    match index.find_or_add(h, same) {
                        Some(g) => g,
                        None => {
                            groups.push((
                                std::mem::replace(
                                    &mut keybuf,
                                    Vec::with_capacity(self.group_progs.len()),
                                ),
                                self.aggs.iter().map(|a| Acc::new(a.f)).collect(),
                            ));
                            groups.len() - 1
                        }
                    }
                };
                let accs = &mut groups[gi].1;
                for (acc, arg) in accs.iter_mut().zip(&self.arg_progs) {
                    match arg {
                        None => acc.update(None)?,
                        Some(p) => {
                            let v = p.eval(&row, &mut self.regs)?;
                            acc.update(Some(&v))?;
                        }
                    }
                }
            }
            if groups.is_empty() && self.global {
                groups.push((
                    Vec::new(),
                    self.aggs.iter().map(|a| Acc::new(a.f)).collect(),
                ));
            }
            // Deterministic output: one finish-time sort of the group keys
            // replaces the per-row tree comparisons.
            groups.sort_unstable_by(|(a, _), (b, _)| cmp_keys(a, b));
            let rows: Vec<Row> = groups
                .into_iter()
                .map(|(mut key, accs)| {
                    key.extend(accs.into_iter().map(Acc::finish));
                    key
                })
                .collect();
            self.out = Some(rows.into_iter());
        }
        Ok(self.out.as_mut().unwrap().next())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnType;
    use coin_sql::BinOp;

    fn scan(rows: Vec<Row>) -> BoxOp {
        let width = rows.first().map_or(2, Vec::len);
        let cols: Vec<(String, ColumnType)> = (0..width)
            .map(|i| (format!("c{i}"), ColumnType::Any))
            .collect();
        let schema = Schema::new(
            cols.iter()
                .map(|(n, t)| crate::schema::Column::new(n, *t))
                .collect(),
        );
        Box::new(ValuesScan::new(schema, rows))
    }

    fn ints(ns: &[i64]) -> Vec<Row> {
        ns.iter()
            .map(|&n| vec![Value::Int(n), Value::Int(n * 10)])
            .collect()
    }

    #[test]
    fn filter_keeps_matching() {
        let pred = CExpr::Cmp(
            Box::new(CExpr::Col(0)),
            BinOp::Gt,
            Box::new(CExpr::Const(Value::Int(2))),
        );
        let out = drain(Box::new(Filter::new(scan(ints(&[1, 2, 3, 4])), pred))).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn project_computes() {
        let exprs = vec![CExpr::Arith(
            Box::new(CExpr::Col(0)),
            crate::value::ArithOp::Mul,
            Box::new(CExpr::Const(Value::Int(1000))),
        )];
        let schema = Schema::of(&[("x", ColumnType::Int)]);
        let out = drain(Box::new(Project::new(scan(ints(&[1, 2])), exprs, schema))).unwrap();
        assert_eq!(out, vec![vec![Value::Int(1000)], vec![Value::Int(2000)]]);
    }

    #[test]
    fn nested_loop_cross_product() {
        let j = NestedLoopJoin::new(scan(ints(&[1, 2])), scan(ints(&[3, 4, 5])), None);
        let out = drain(Box::new(j)).unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(out[0].len(), 4);
    }

    #[test]
    fn nested_loop_with_predicate() {
        // join on c0 (left) = c0 (right), i.e. columns 0 and 2 of combined.
        let pred = CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2)));
        let j = NestedLoopJoin::new(scan(ints(&[1, 2, 3])), scan(ints(&[2, 3, 4])), Some(pred));
        let out = drain(Box::new(j)).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let l = ints(&[1, 2, 3, 2]);
        let r = ints(&[2, 3, 4]);
        let hj = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], None);
        let mut got = drain(Box::new(hj)).unwrap();
        let pred = CExpr::Cmp(Box::new(CExpr::Col(0)), BinOp::Eq, Box::new(CExpr::Col(2)));
        let nl = NestedLoopJoin::new(scan(l), scan(r), Some(pred));
        let mut want = drain(Box::new(nl)).unwrap();
        let key: SortKey = (0..4).map(|i| (i, false)).collect();
        got.sort_by(|a, b| cmp_rows(a, b, &key));
        want.sort_by(|a, b| cmp_rows(a, b, &key));
        assert_eq!(got, want);
    }

    #[test]
    fn hash_join_null_keys_never_match() {
        let l = vec![vec![Value::Null, Value::Int(1)]];
        let r = vec![vec![Value::Null, Value::Int(2)]];
        let hj = HashJoin::new(scan(l), scan(r), vec![0], vec![0], None);
        assert!(drain(Box::new(hj)).unwrap().is_empty());
    }

    #[test]
    fn hash_join_int_float_key_equality() {
        let l = vec![vec![Value::Int(2), Value::Int(0)]];
        let r = vec![vec![Value::Float(2.0), Value::Int(0)]];
        let hj = HashJoin::new(scan(l), scan(r), vec![0], vec![0], None);
        assert_eq!(drain(Box::new(hj)).unwrap().len(), 1);
    }

    fn pairs(ps: &[(i64, i64)]) -> Vec<Row> {
        ps.iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)])
            .collect()
    }

    #[test]
    fn hash_join_emits_duplicate_build_keys_in_arrival_order() {
        let l = pairs(&[(2, 0), (1, 0)]);
        let r = pairs(&[(1, 10), (2, 20), (1, 11), (3, 30), (1, 12), (2, 21)]);
        let hj = HashJoin::new(scan(l), scan(r), vec![0], vec![0], None).keeping(vec![0], vec![1]);
        let out = drain(Box::new(hj)).unwrap();
        assert_eq!(out, pairs(&[(2, 20), (2, 21), (1, 10), (1, 11), (1, 12)]));
    }

    #[test]
    fn joins_can_keep_no_column() {
        let l = pairs(&[(1, 0), (2, 0), (1, 5)]);
        let r = pairs(&[(1, 1), (1, 2), (2, 3)]);
        let hj = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], None)
            .keeping(vec![], vec![]);
        assert!(hj.schema().is_empty());
        assert_eq!(drain(Box::new(hj)).unwrap(), vec![Vec::<Value>::new(); 5]);
        let nl = NestedLoopJoin::new(scan(l), scan(r), None).keeping(vec![], vec![]);
        assert!(nl.schema().is_empty());
        assert_eq!(drain(Box::new(nl)).unwrap().len(), 9);
    }

    #[test]
    fn join_predicates_read_both_inputs_in_place() {
        // c1 (left) < c1 (right): column 3 of the pair read as one row.
        let pred = || {
            Some(CExpr::Cmp(
                Box::new(CExpr::Col(1)),
                BinOp::Lt,
                Box::new(CExpr::Col(3)),
            ))
        };
        let l = pairs(&[(1, 5), (2, 0), (1, 1)]);
        let r = pairs(&[(1, 3), (2, 1), (1, 0)]);
        let hj = HashJoin::new(scan(l.clone()), scan(r.clone()), vec![0], vec![0], pred())
            .keeping(vec![1], vec![1, 0]);
        let want = vec![
            vec![Value::Int(0), Value::Int(1), Value::Int(2)],
            vec![Value::Int(1), Value::Int(3), Value::Int(1)],
        ];
        assert_eq!(drain(Box::new(hj)).unwrap(), want);
        for held_left in [false, true] {
            let nl = NestedLoopJoin::new(scan(l.clone()), scan(r.clone()), pred());
            let nl = if held_left { nl.holding_left() } else { nl };
            let out = drain(Box::new(nl.keeping(vec![1], vec![1]))).unwrap();
            assert_eq!(out.len(), 3, "held left: {held_left}");
            assert!(out
                .iter()
                .all(|row| row[0].sql_cmp(&row[1]) == Some(std::cmp::Ordering::Less)));
        }
    }

    #[test]
    fn chain_index_lists_members_in_order() {
        let index = ChainIndex::from_hashes(&[7, 9, 7, 7, 9]);
        let chain = |h| {
            let mut out = Vec::new();
            let mut m = index.first(h);
            while let Some(at) = m {
                out.push(at);
                m = index.after(at);
            }
            out
        };
        assert_eq!(chain(7), vec![0, 2, 3]);
        assert_eq!(chain(9), vec![1, 4]);
        assert_eq!(chain(8), Vec::<usize>::new());

        let mut index = ChainIndex::default();
        let keys = ["a", "b", "a", "c", "b"];
        let mut arena: Vec<&str> = Vec::new();
        for k in keys {
            // Every key hashes alike: the chain itself must tell them apart.
            if index.find_or_add(0, |m| arena[m] == k).is_none() {
                arena.push(k);
            }
        }
        assert_eq!(arena, vec!["a", "b", "c"]);
    }

    #[test]
    fn union_all_concatenates() {
        let u = UnionAll::new(vec![scan(ints(&[1])), scan(ints(&[2, 3]))]);
        assert_eq!(drain(Box::new(u)).unwrap().len(), 3);
    }

    #[test]
    fn distinct_dedups() {
        let d = Distinct::new(scan(ints(&[3, 1, 3, 2, 1])));
        let out = drain(Box::new(d)).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn sort_orders() {
        let s = Sort::new(scan(ints(&[3, 1, 2])), vec![(0, true)]);
        let out = drain(Box::new(s)).unwrap();
        assert_eq!(out[0][0], Value::Int(3));
        assert_eq!(out[2][0], Value::Int(1));
    }

    #[test]
    fn limit_truncates() {
        let l = Limit::new(scan(ints(&[1, 2, 3, 4])), 2);
        assert_eq!(drain(Box::new(l)).unwrap().len(), 2);
    }

    #[test]
    fn limit_zero() {
        let l = Limit::new(scan(ints(&[1, 2])), 0);
        assert!(drain(Box::new(l)).unwrap().is_empty());
    }

    #[test]
    fn aggregate_group_by() {
        // Group by c0 % 2 … simplified: group by c0, count rows.
        let rows = vec![
            vec![Value::str("a"), Value::Int(1)],
            vec![Value::str("b"), Value::Int(2)],
            vec![Value::str("a"), Value::Int(3)],
        ];
        let agg = Aggregate::new(
            scan(rows),
            vec![CExpr::Col(0)],
            vec![
                AggSpec {
                    f: AggFn::CountStar,
                    arg: None,
                },
                AggSpec {
                    f: AggFn::Sum,
                    arg: Some(CExpr::Col(1)),
                },
            ],
            Schema::of(&[
                ("k", ColumnType::Str),
                ("n", ColumnType::Int),
                ("s", ColumnType::Int),
            ]),
        );
        let out = drain(Box::new(agg)).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::str("a"), Value::Int(2), Value::Int(4)]);
        assert_eq!(out[1], vec![Value::str("b"), Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn aggregate_global_empty_input() {
        let agg = Aggregate::new(
            scan(Vec::new()),
            vec![],
            vec![
                AggSpec {
                    f: AggFn::CountStar,
                    arg: None,
                },
                AggSpec {
                    f: AggFn::Sum,
                    arg: Some(CExpr::Col(0)),
                },
                AggSpec {
                    f: AggFn::Min,
                    arg: Some(CExpr::Col(0)),
                },
            ],
            Schema::of(&[
                ("n", ColumnType::Int),
                ("s", ColumnType::Any),
                ("m", ColumnType::Any),
            ]),
        );
        let out = drain(Box::new(agg)).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
    }

    #[test]
    fn aggregate_nulls_skipped() {
        let rows = vec![
            vec![Value::str("a"), Value::Int(1)],
            vec![Value::str("a"), Value::Null],
        ];
        let agg = Aggregate::new(
            scan(rows),
            vec![CExpr::Col(0)],
            vec![
                AggSpec {
                    f: AggFn::Count,
                    arg: Some(CExpr::Col(1)),
                },
                AggSpec {
                    f: AggFn::Avg,
                    arg: Some(CExpr::Col(1)),
                },
            ],
            Schema::of(&[
                ("k", ColumnType::Str),
                ("n", ColumnType::Int),
                ("a", ColumnType::Float),
            ]),
        );
        let out = drain(Box::new(agg)).unwrap();
        assert_eq!(out[0][1], Value::Int(1));
        assert_eq!(out[0][2], Value::Float(1.0));
    }

    #[test]
    fn min_max_strings() {
        let rows = vec![
            vec![Value::str("IBM"), Value::Int(0)],
            vec![Value::str("NTT"), Value::Int(0)],
        ];
        let agg = Aggregate::new(
            scan(rows),
            vec![],
            vec![
                AggSpec {
                    f: AggFn::Min,
                    arg: Some(CExpr::Col(0)),
                },
                AggSpec {
                    f: AggFn::Max,
                    arg: Some(CExpr::Col(0)),
                },
            ],
            Schema::of(&[("lo", ColumnType::Str), ("hi", ColumnType::Str)]),
        );
        let out = drain(Box::new(agg)).unwrap();
        assert_eq!(out[0], vec![Value::str("IBM"), Value::str("NTT")]);
    }

    #[test]
    fn sum_int_stays_int_mixed_goes_float() {
        let rows = vec![
            vec![Value::Int(1), Value::Int(0)],
            vec![Value::Float(2.5), Value::Int(0)],
        ];
        let agg = Aggregate::new(
            scan(rows),
            vec![],
            vec![AggSpec {
                f: AggFn::Sum,
                arg: Some(CExpr::Col(0)),
            }],
            Schema::of(&[("s", ColumnType::Any)]),
        );
        let out = drain(Box::new(agg)).unwrap();
        assert_eq!(out[0][0], Value::Float(3.5));
    }
}
