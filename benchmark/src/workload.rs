//! The five workloads: what each deploys, the requests it issues from the
//! seed, and — computed here by hand from the raw rows, never by asking the
//! mediator — the answer every request must get.

use std::sync::{Arc, RwLock};
use std::time::Duration;

use coin_server::SharedSystem;

use crate::deploy::{self, Decoration, Rng, SourceFacts, RECEIVER};
use crate::http::query_request;
use crate::scan::{fnv1a, Answer, MAX_COLS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig2Warm,
    CompileChurn,
    ScanStream,
    JoinAgg,
    SlowSources,
}

/// Name, kind, and why the workload exists (the `why` of `BENCHMARK.json`).
pub const ALL: [(&str, Kind, &str); 5] = [
    (
        "fig2_warm",
        Kind::Fig2Warm,
        "the paper's Figure-2 scenario at steady state: plan cache warm, tiny results, so transport, protocol and the response tail do most of the work",
    ),
    (
        "compile_churn",
        Kind::CompileChurn,
        "fresh-literal queries that always miss the plan cache beside a hot set and model administration, so parse, mediation, planning and invalidation dominate",
    ),
    (
        "scan_stream",
        Kind::ScanStream,
        "50k converted rows (2-3 MB) streamed per query, so fetch materialisation, the row pipeline, serialisation and socket writes dominate; compile is nil",
    ),
    (
        "join_agg",
        Kind::JoinAgg,
        "a 50k x 50k hash join with per-row conversion under an aggregate and a one-row answer, so the local pipeline dominates; the control for transport changes",
    ),
    (
        "slow_sources",
        Kind::SlowSources,
        "the Figure-2 mix with every source 2 ms away, so remote fetches are nearly all of the latency; paired with fig2_warm it exposes fetch concurrency or batching",
    ),
];

/// The four queries of `coin-server/tests/support/load.rs`' `QUERY_MIX`,
/// cheap to join-heavy; the last is the paper's Q1.
pub const FIGURE2_MIX: [&str; 4] = [
    "SELECT r1.cname, r1.revenue FROM r1",
    "SELECT r2.cname, r2.expenses FROM r2",
    "SELECT r1.cname FROM r1 WHERE r1.revenue > 50",
    "SELECT r1.cname, r1.revenue FROM r1, r2 \
     WHERE r1.cname = r2.cname AND r1.revenue > r2.expenses",
];

/// The answer a request must get.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expect {
    pub rows: u64,
    pub col_sums: [f64; MAX_COLS],
    /// Absolute slack per column sum, for the rare rows on which the answer
    /// hangs on the order of two multiplications (see [`join_query`]).
    pub col_slack: [f64; MAX_COLS],
    pub str_hash: u64,
}

impl Expect {
    /// Row count and string digest exact; numeric sums within a relative
    /// 1e-9 (the mediator may multiply in another order than the oracle)
    /// plus the column's slack.
    pub fn matches(&self, got: &Answer) -> bool {
        !got.error
            && got.rows == self.rows
            && got.str_hash == self.str_hash
            && self
                .col_sums
                .iter()
                .zip(&got.col_sums)
                .zip(&self.col_slack)
                .all(|((want, got), slack)| {
                    (want - got).abs() <= 1e-9 * want.abs().max(1.0) + slack
                })
    }
}

/// A request whose SQL text is fixed for the run, so its plan is cacheable.
#[derive(Debug, Clone)]
pub struct FixedQuery {
    pub sql: String,
    pub request: Vec<u8>,
    pub expect: Expect,
}

impl FixedQuery {
    fn new(sql: String, expect: Expect) -> FixedQuery {
        let mut request = Vec::new();
        query_request(&sql, RECEIVER, &mut request);
        FixedQuery {
            sql,
            request,
            expect,
        }
    }
}

/// Hand-derived answers to [`FIGURE2_MIX`] in the receiver's context (US
/// dollars, scale 1). NTT reports 1,000,000 in thousands of yen at 0.0096
/// dollars a yen: 9,600,000 dollars, which exceeds its 5,000,000 expenses;
/// IBM's 100,000,000 does not exceed 1,500,000,000. Q1's answer is
/// therefore exactly the paper's `<NTT, 9600000>`.
fn figure2_queries() -> Vec<FixedQuery> {
    let both = fnv1a(b"IBM").wrapping_add(fnv1a(b"NTT"));
    let expects = [
        Expect {
            rows: 2,
            col_sums: [0.0, 100_000_000.0 + 9_600_000.0, 0.0, 0.0],
            str_hash: both,
            ..Expect::default()
        },
        Expect {
            rows: 2,
            col_sums: [0.0, 1_500_000_000.0 + 5_000_000.0, 0.0, 0.0],
            str_hash: both,
            ..Expect::default()
        },
        Expect {
            rows: 2,
            str_hash: both,
            ..Expect::default()
        },
        Expect {
            rows: 1,
            col_sums: [0.0, 9_600_000.0, 0.0, 0.0],
            str_hash: fnv1a(b"NTT"),
            ..Expect::default()
        },
    ];
    FIGURE2_MIX
        .iter()
        .zip(expects)
        .map(|(sql, e)| FixedQuery::new((*sql).to_owned(), e))
        .collect()
}

/// Fraction appended to every generated integer threshold. Converted
/// amounts are raw × scale × rate with rates 1, 0.0096, 1.18, 1.64, 0.70,
/// so ten thousand times any of them is an even integer: a threshold ending
/// in .3137 can never tie with one, and `>` has one answer whatever the
/// order of multiplication.
const LITERAL_FRACTION: &str = ".3137";
const LITERAL_FRACTION_VALUE: f64 = 0.3137;

/// Hash of `company<r>`, the name of row `r` in every synthetic source.
fn company_hashes(rows: usize) -> Vec<u64> {
    (0..rows)
        .map(|r| fnv1a(format!("company{r}").as_bytes()))
        .collect()
}

/// `SELECT x.cname, x.amount[, y.amount[, z.amount]]` over 1–3 sources
/// joined on `cname`, keeping rows whose first amount — in the receiver's
/// context — exceeds `k`.3137. Writes the SQL into `sql` and returns the
/// expected answer computed from the raw rows.
fn threshold_query(
    sources: &[SourceFacts],
    names: &[u64],
    tables: &[usize],
    k: u64,
    sql: &mut String,
) -> Expect {
    use std::fmt::Write;
    const ALIAS: [char; 3] = ['a', 'b', 'c'];
    sql.clear();
    sql.push_str("SELECT a.cname");
    for alias in &ALIAS[..tables.len()] {
        write!(sql, ", {alias}.amount").expect("writing to a String");
    }
    sql.push_str(" FROM ");
    for (n, (alias, table)) in ALIAS.iter().zip(tables).enumerate() {
        let sep = if n == 0 { "" } else { ", " };
        write!(sql, "{sep}fin{table} {alias}").expect("writing to a String");
    }
    sql.push_str(" WHERE ");
    for pair in ALIAS[..tables.len()].windows(2) {
        write!(sql, "{}.cname = {}.cname AND ", pair[0], pair[1]).expect("writing to a String");
    }
    write!(sql, "a.amount > {k}{LITERAL_FRACTION}").expect("writing to a String");

    let threshold = k as f64 + LITERAL_FRACTION_VALUE;
    let mut expect = Expect::default();
    for (r, name) in names.iter().enumerate() {
        if sources[tables[0]].converted(r) > threshold {
            expect.rows += 1;
            expect.str_hash = expect.str_hash.wrapping_add(*name);
            for (col, t) in tables.iter().enumerate() {
                expect.col_sums[col + 1] += sources[*t].converted(r);
            }
        }
    }
    expect
}

/// `COUNT(*), SUM(a.amount)` over the join of two sources on `cname` where
/// a's amount is below b's, both in the receiver's context. Where two
/// converted amounts of one company are so close that the comparison could
/// go either way with the order of multiplication, the row goes into the
/// slack instead of the sums.
fn join_query(sources: &[SourceFacts], i: usize, j: usize) -> FixedQuery {
    let (a, b) = (&sources[i], &sources[j]);
    let mut expect = Expect {
        rows: 1,
        ..Expect::default()
    };
    for r in 0..a.amounts.len() {
        let (ca, cb) = (a.converted(r), b.converted(r));
        if (ca - cb).abs() <= 1e-9 * ca.max(cb) {
            expect.col_slack[0] += 1.0;
            expect.col_slack[1] += ca;
        } else if ca < cb {
            expect.col_sums[0] += 1.0;
            expect.col_sums[1] += ca;
        }
    }
    let sql = format!(
        "SELECT COUNT(*), SUM(a.amount) FROM fin{i} a, fin{j} b \
         WHERE a.cname = b.cname AND a.amount < b.amount"
    );
    FixedQuery::new(sql, expect)
}

/// Rows of each source of the deployment `scan_stream` and `join_agg` share;
/// `smoke` shrinks them to 1/50 so the whole suite runs in seconds.
fn big_rows(smoke: bool) -> usize {
    if smoke {
        1_000
    } else {
        50_000
    }
}

/// `compile_churn`'s deployment: 32 sources of 16 rows.
const CHURN_SOURCES: usize = 32;
const CHURN_ROWS: usize = 16;
/// Its hot set fits the 256-entry plan cache beside the fresh queries that
/// pass through it.
pub const HOT_SET: usize = 64;
/// Share of `compile_churn` requests drawn from the hot set, in percent.
/// Hot requests nearly always hit, fresh ones always miss, and a hit costs
/// half a miss: at 50/50 the median would sit on the gap between the two
/// modes and flip from run to run. At 40/60 it is a miss — the cost this
/// workload exists to gate — and the 95th percentile a three-table miss.
pub const HOT_PERCENT: u64 = 40;
/// Client 0 replaces the currency conversion before every request whose
/// index is a multiple of this, and adds a context half-way between. The
/// replacement evicts every cached plan; it has to be rarer than the ~190
/// fresh plans that fill the cache, or capacity eviction never happens and
/// the hot set is never hot.
pub const ADMIN_EVERY: u64 = 1000;
/// Sources of the deployment `scan_stream` and `join_agg` share.
const BIG_SOURCES: usize = 8;
/// The pairs `join_agg` joins. Every pair differs in currency and in scale
/// factor, neither side is a dollar source (four remote queries each), and
/// the first side's unit is the smaller one in dollars, so most rows pass
/// `a.amount < b.amount` (70 % to 100 %) and reach the aggregate. Pairs of
/// unlike cost would make the latency distribution multi-modal and leave
/// the median on a gap between modes. The list is fixed so that the work
/// does not change with the seed; the rows do.
const JOIN_PAIRS: [(usize, usize); 6] = [(6, 3), (3, 1), (1, 4), (4, 7), (7, 2), (6, 2)];
/// Delay of every `execute_select` under `slow_sources`.
pub const SLOW_DELAY: Duration = Duration::from_millis(2);

/// One built deployment with the requests that go with it.
pub struct Deployment {
    pub system: SharedSystem,
    /// The cacheable requests: the query mix, or `compile_churn`'s hot set.
    pub fixed: Vec<FixedQuery>,
    /// Raw facts for generating fresh queries (`compile_churn` only).
    facts: Vec<SourceFacts>,
    names: Vec<u64>,
}

/// Build `kind`'s deployment from the seed. `decoration` is what the caller
/// wants around the sources (spans, in a traced run); `slow_sources` adds
/// its delay on top.
pub fn build(kind: Kind, seed: u64, smoke: bool, decoration: &Decoration) -> Deployment {
    let share = |system| Arc::new(RwLock::new(system));
    match kind {
        Kind::Fig2Warm => Deployment {
            system: share(deploy::figure2(decoration)),
            fixed: figure2_queries(),
            facts: Vec::new(),
            names: Vec::new(),
        },
        Kind::SlowSources => {
            let slow = Decoration {
                delay: SLOW_DELAY,
                trace: decoration.trace.clone(),
            };
            Deployment {
                system: share(deploy::figure2(&slow)),
                fixed: figure2_queries(),
                facts: Vec::new(),
                names: Vec::new(),
            }
        }
        Kind::CompileChurn => {
            let syn = deploy::synthetic(CHURN_SOURCES, CHURN_ROWS, seed, true, decoration);
            let names = company_hashes(CHURN_ROWS);
            // The hot set: thresholds 0..HOT_SET over seeded templates.
            // Fresh queries take thresholds from HOT_SET upwards, so the two
            // never share a text.
            let mut rng = Rng::lane(seed, 1000);
            let mut sql = String::new();
            let fixed = (0..HOT_SET as u64)
                .map(|k| {
                    let tables = pick_tables(&mut rng, k);
                    let expect = threshold_query(&syn.sources, &names, &tables, k, &mut sql);
                    FixedQuery::new(sql.clone(), expect)
                })
                .collect();
            Deployment {
                system: share(syn.system),
                fixed,
                facts: syn.sources,
                names,
            }
        }
        Kind::ScanStream | Kind::JoinAgg => {
            let rows = big_rows(smoke);
            let syn = deploy::synthetic(BIG_SOURCES, rows, seed, false, decoration);
            let names = company_hashes(rows);
            let mut rng = Rng::lane(seed, 2000);
            let mut sql = String::new();
            let fixed = if kind == Kind::ScanStream {
                // Every non-dollar source once, so every row is converted and
                // the mix of contexts is the same under every seed; the seed
                // picks the (small) thresholds.
                (0..BIG_SOURCES)
                    .filter(|i| syn.sources[*i].currency != "USD")
                    .map(|i| {
                        let k = rng.below(10);
                        let e = threshold_query(&syn.sources, &names, &[i], k, &mut sql);
                        FixedQuery::new(sql.clone(), e)
                    })
                    .collect()
            } else {
                JOIN_PAIRS
                    .iter()
                    .map(|(i, j)| join_query(&syn.sources, *i, *j))
                    .collect()
            };
            Deployment {
                system: share(syn.system),
                fixed,
                facts: Vec::new(),
                names: Vec::new(),
            }
        }
    }
}

/// 1-, 2- and 3-table templates in equal thirds (by `serial`), over seeded
/// distinct sources.
fn pick_tables(rng: &mut Rng, serial: u64) -> Vec<usize> {
    let n = 1 + (serial % 3) as usize;
    let mut tables: Vec<usize> = Vec::with_capacity(n);
    while tables.len() < n {
        let t = rng.below(CHURN_SOURCES as u64) as usize;
        if !tables.contains(&t) {
            tables.push(t);
        }
    }
    tables
}

/// How a request relates to the plan cache; decides which latency
/// distribution a sample joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A fixed query of a workload whose every plan stays cached.
    Warm,
    /// `compile_churn`: drawn from the hot set (cached unless an
    /// administration just evicted it).
    Hot,
    /// `compile_churn`: a text never sent before — always a miss.
    Fresh,
}

/// What a client does next.
pub enum Op<'a> {
    Query {
        sql: &'a str,
        request: &'a [u8],
        expect: &'a Expect,
        class: Class,
    },
    /// Swap the currency conversion between `rates` and `rates_b`.
    ReplaceConversion { to_b: bool },
    /// Register a context no query mentions.
    AddContext { serial: u64 },
}

/// One client's request sequence: a pure function of (seed, client index).
pub struct OpStream {
    kind: Kind,
    client: u64,
    clients: u64,
    rng: Rng,
    /// Queries issued so far.
    issued: u64,
    /// Fresh queries generated so far.
    fresh: u64,
    admin_done_at: Option<u64>,
    replaced: u64,
    sql: String,
    request: Vec<u8>,
    expect: Expect,
    /// Order-insensitive digest of the first [`CHECKSUM_OPS`] operations.
    checksum: u64,
    digested: u64,
}

/// Operations per client (and slice) covered by the ops checksum. A measured
/// slice ends on the clock, so only a prefix of the sequence can repeat, and
/// only one that every slice of every workload reaches: a `--smoke` slice of
/// `slow_sources` is 15 requests long.
pub const CHECKSUM_OPS: u64 = 8;

impl OpStream {
    /// `rep` tells the slices of one run apart: each continues with other
    /// picks instead of replaying the first slice's.
    pub fn new(kind: Kind, seed: u64, client: usize, clients: usize, rep: usize) -> OpStream {
        OpStream {
            kind,
            client: client as u64,
            clients: clients as u64,
            rng: Rng::lane(seed, 3000 + client as u64 + 16 * rep as u64),
            issued: 0,
            fresh: 0,
            admin_done_at: None,
            replaced: 0,
            sql: String::new(),
            request: Vec::new(),
            expect: Expect::default(),
            checksum: 0,
            digested: 0,
        }
    }

    fn digest(&mut self, bytes: &[u8]) {
        if self.digested < CHECKSUM_OPS {
            self.digested += 1;
            let h = fnv1a(bytes) ^ self.client.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            self.checksum = self.checksum.wrapping_add(h);
        }
    }

    /// (digest, operations it covers).
    pub fn checksum(&self) -> (u64, u64) {
        (self.checksum, self.digested)
    }

    pub fn next<'a>(&'a mut self, d: &'a Deployment) -> Op<'a> {
        if self.kind == Kind::CompileChurn && self.client == 0 {
            let due = self.issued > 0
                && self.issued.is_multiple_of(ADMIN_EVERY / 2)
                && self.admin_done_at != Some(self.issued);
            if due {
                self.admin_done_at = Some(self.issued);
                if self.issued.is_multiple_of(ADMIN_EVERY) {
                    self.replaced += 1;
                    self.digest(b"replace_conversion");
                    return Op::ReplaceConversion {
                        to_b: self.replaced % 2 == 1,
                    };
                }
                self.digest(b"add_context");
                return Op::AddContext {
                    serial: self.issued / ADMIN_EVERY,
                };
            }
        }
        self.issued += 1;
        if self.kind == Kind::CompileChurn && self.rng.below(100) >= HOT_PERCENT {
            // Thresholds are unique across clients and never in the hot set.
            let k = HOT_SET as u64 + self.fresh * self.clients + self.client;
            let tables = pick_tables(&mut self.rng, self.fresh);
            self.fresh += 1;
            self.expect = threshold_query(&d.facts, &d.names, &tables, k, &mut self.sql);
            query_request(&self.sql, RECEIVER, &mut self.request);
            let sql = std::mem::take(&mut self.sql);
            self.digest(sql.as_bytes());
            self.sql = sql;
            return Op::Query {
                sql: &self.sql,
                request: &self.request,
                expect: &self.expect,
                class: Class::Fresh,
            };
        }
        let q = &d.fixed[self.rng.below(d.fixed.len() as u64) as usize];
        self.digest(q.sql.as_bytes());
        Op::Query {
            sql: &q.sql,
            request: &q.request,
            expect: &q.expect,
            class: if self.kind == Kind::CompileChurn {
                Class::Hot
            } else {
                Class::Warm
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::read_answer;
    use coin_rel::Value;

    /// Serialize a mediated answer the way the wire does, by hand, so the
    /// oracle is checked against the mediator through the same reader the
    /// clients use.
    fn as_answer(table: &coin_rel::Table) -> Answer {
        let mut body = String::from("{\"rows\":[");
        for (n, row) in table.rows.iter().enumerate() {
            body.push_str(if n == 0 { "[" } else { ",[" });
            for (c, v) in row.iter().enumerate() {
                if c > 0 {
                    body.push(',');
                }
                match v {
                    Value::Null => body.push_str("null"),
                    Value::Int(i) => body.push_str(&format!("[\"i\",\"{i}\"]")),
                    Value::Float(f) => body.push_str(&format!("[\"f\",{f:e}]")),
                    Value::Str(s) => body.push_str(&format!("[\"s\",\"{s}\"]")),
                    Value::Bool(b) => body.push_str(&format!("[\"b\",{b}]")),
                }
            }
            body.push(']');
        }
        body.push_str("]}");
        read_answer(body.as_bytes()).unwrap()
    }

    fn check_fixed(d: &Deployment) {
        let sys = d.system.read().unwrap();
        for q in &d.fixed {
            let got = sys.query(&q.sql, RECEIVER).unwrap();
            let answer = as_answer(&got.table);
            assert!(
                q.expect.matches(&answer),
                "{}: want {:?}, got {answer:?}",
                q.sql,
                q.expect
            );
        }
    }

    #[test]
    fn oracle_agrees_with_the_mediator_on_every_fixed_query() {
        let smoke = true;
        for (_, kind, _) in ALL {
            let d = build(kind, 5, smoke, &Decoration::default());
            assert!(!d.fixed.is_empty());
            check_fixed(&d);
        }
    }

    #[test]
    fn figure2_q1_is_exactly_ntt_9600000() {
        let q1 = &figure2_queries()[3];
        assert_eq!(q1.expect.rows, 1);
        assert_eq!(q1.expect.col_sums[1], 9_600_000.0);
        assert_eq!(q1.expect.str_hash, fnv1a(b"NTT"));
        // A wrong amount, a wrong company, an extra row or an error body fail.
        let good = Answer {
            rows: 1,
            col_sums: [0.0, 9_600_000.0, 0.0, 0.0],
            str_hash: fnv1a(b"NTT"),
            ..Answer::default()
        };
        assert!(q1.expect.matches(&good));
        for bad in [
            Answer {
                col_sums: [0.0, 9_600.0, 0.0, 0.0],
                ..good.clone()
            },
            Answer {
                str_hash: fnv1a(b"IBM"),
                ..good.clone()
            },
            Answer {
                rows: 2,
                ..good.clone()
            },
            Answer {
                error: true,
                ..good.clone()
            },
        ] {
            assert!(!q1.expect.matches(&bad));
        }
    }

    #[test]
    fn fresh_queries_are_unique_verified_and_repeatable() {
        let d = build(Kind::CompileChurn, 9, true, &Decoration::default());
        let mut seen = std::collections::BTreeSet::new();
        let mut streams: Vec<OpStream> = (0..2)
            .map(|c| OpStream::new(Kind::CompileChurn, 9, c, 2, 0))
            .collect();
        let (mut fresh, mut hot, mut replaces, mut contexts) = (0, 0, 0, 0);
        for step in 0..5010 {
            let s = &mut streams[step % 2];
            match s.next(&d) {
                Op::Query {
                    sql,
                    request,
                    expect,
                    class,
                } => {
                    assert!(String::from_utf8_lossy(request).contains(sql));
                    match class {
                        Class::Fresh => {
                            fresh += 1;
                            assert!(seen.insert(sql.to_owned()), "repeated fresh text {sql}");
                            assert!(d.fixed.iter().all(|f| f.sql != sql));
                            if fresh <= 300 {
                                let got = d.system.read().unwrap().query(sql, RECEIVER).unwrap();
                                assert!(expect.matches(&as_answer(&got.table)), "{sql}");
                            }
                        }
                        Class::Hot => hot += 1,
                        Class::Warm => panic!("compile_churn has no warm class"),
                    }
                }
                Op::ReplaceConversion { .. } => replaces += 1,
                Op::AddContext { .. } => contexts += 1,
            }
        }
        assert!(fresh > 2700 && hot > 1800, "{fresh} fresh, {hot} hot");
        // Client 0 issued 2500 queries in its 2505 steps: a replacement
        // before #1000 and #2000, a context before #500, #1500 and #2500.
        assert_eq!((replaces, contexts), (2, 3));

        // Same seed, same sequence; another seed, another sequence.
        let digest = |seed| {
            let d = build(Kind::CompileChurn, seed, true, &Decoration::default());
            let mut s = OpStream::new(Kind::CompileChurn, seed, 0, 2, 0);
            for _ in 0..150 {
                s.next(&d);
            }
            s.checksum()
        };
        assert_eq!(digest(9), digest(9));
        assert_ne!(digest(9).0, digest(10).0);
        assert_eq!(digest(9).1, CHECKSUM_OPS);
    }

    #[test]
    fn replacing_the_conversion_preserves_answers_and_a_new_context_evicts_nothing() {
        let d = build(Kind::CompileChurn, 3, true, &Decoration::default());
        check_fixed(&d);
        let before = d.system.read().unwrap().cache_stats();
        d.system
            .write()
            .unwrap()
            .add_context(deploy::unrelated_context(1))
            .unwrap();
        let after = d.system.read().unwrap().cache_stats();
        assert_eq!(after.invalidations, before.invalidations);
        d.system
            .write()
            .unwrap()
            .replace_conversion("currency", deploy::currency_lookup("rates_b"))
            .unwrap();
        let swapped = d.system.read().unwrap().cache_stats();
        assert!(swapped.invalidations > after.invalidations);
        check_fixed(&d);
    }
}
