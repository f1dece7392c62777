//! Bounded LRU cache of prepared queries, keyed by `(receiver, canonical
//! SQL)` — the printed form of the parsed AST, so spelling variants of one
//! query share an entry — and guarded by **dependency-tracked model
//! versions**.
//!
//! The mediation procedure is expensive relative to execution (the
//! abductive rewrite dominates the hot path), so [`crate::CoinSystem`]
//! caches the compile side — the [`crate::prepared::PreparedQuery`]
//! artifact — and reuses it across calls. Correctness is enforced by the
//! per-part vector clock of [`crate::versions`]: each artifact records
//! the model parts its compilation consulted
//! ([`PreparedQuery::deps`]), each mutation stamps exactly the parts it
//! changed, and a lookup returns an entry only while *none of its
//! dependencies* changed after it was compiled
//! ([`crate::versions::ModelVersions::plan_valid`]). Mutations evict
//! eagerly through [`QueryCache::invalidate_dependents`] — only entries
//! whose footprint intersects the mutated parts are dropped, so
//! administering one source leaves every other source's plans hot. A
//! cached plan is therefore served exactly as long as re-mediating would
//! produce the same result, and never after the consulted model state
//! changes.
//!
//! # Single-flight compilation
//!
//! N threads cold-missing the same key at once must not each pay the
//! ~280 µs compile: [`QueryCache::begin`] elects exactly one **leader**
//! per in-flight `(receiver, sql)` key (the returned
//! [`PrepareSlot::Leader`] permit) and parks every other caller on the
//! flight's condvar. When the leader [`FlightPermit::complete`]s, the
//! waiters receive the shared artifact directly — even when the cache is
//! disabled (capacity 0) a stampede performs exactly one compile. A
//! leader that fails (compile error or panic) aborts the flight on drop;
//! waiters then retry, so an error never strands them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::prepared::PreparedQuery;
use crate::versions::{ModelPart, ModelVersions};

/// Default maximum number of cached prepared queries.
pub const DEFAULT_CACHE_CAPACITY: usize = 256;

/// Cumulative cache counters plus a point-in-time occupancy snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (including stampede waiters served
    /// the in-flight leader's artifact).
    pub hits: u64,
    /// Lookups that had to compile (absent, stale, or cache disabled).
    pub misses: u64,
    /// Fresh compiles actually performed through the cache path — with the
    /// single-flight guard this stays at 1 for any number of concurrent
    /// cold misses on one key.
    pub compiles: u64,
    /// Entries dropped because a model mutation touched one of their
    /// recorded dependencies.
    pub invalidations: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Current number of cached entries.
    pub entries: usize,
    /// Capacity bound (0 disables caching).
    pub capacity: usize,
}

#[derive(Default)]
struct Inner {
    /// receiver → sql → (prepared artifact, last-use tick). Two nested
    /// string maps (rather than one keyed by a `(String, String)` pair)
    /// so lookups borrow `&str` at both levels and the warm hot path
    /// never allocates; the tick orders entries for least-recently-used
    /// eviction.
    map: HashMap<String, HashMap<String, (Arc<PreparedQuery>, u64)>>,
    /// Total entries across all receivers (maintained so capacity checks
    /// don't rescan the nested maps).
    len: usize,
    tick: u64,
    invalidations: u64,
    evictions: u64,
    capacity: usize,
}

/// Plans taken out of the cache under its lock. A plan can own hundreds of
/// allocations, so callers let the lock go before dropping these.
type Victims = Vec<Arc<PreparedQuery>>;

impl Inner {
    /// Take an entry out, handing its plan back to be dropped after the
    /// lock is released.
    fn remove(&mut self, receiver: &str, sql: &str) -> Option<Arc<PreparedQuery>> {
        let per_receiver = self.map.get_mut(receiver)?;
        let removed = per_receiver.remove(sql).map(|(prepared, _)| prepared);
        if removed.is_some() {
            self.len -= 1;
        }
        if per_receiver.is_empty() {
            self.map.remove(receiver);
        }
        removed
    }
}

/// One in-flight compilation: waiters park on the condvar until the
/// leader lands a state other than `Pending`.
enum FlightState {
    Pending,
    Done(Arc<PreparedQuery>),
    Aborted,
}

struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }
}

/// Outcome of [`QueryCache::begin`]: either a ready artifact or the duty
/// (and exclusive right, per key) to compile one.
pub enum PrepareSlot<'a> {
    /// A still-valid artifact was already cached, or an in-flight leader
    /// finished compiling one while we waited.
    Cached(Arc<PreparedQuery>),
    /// This caller is the single-flight leader for the key: compile, then
    /// [`FlightPermit::complete`]. Dropping the permit without completing
    /// (compile error, panic) aborts the flight and wakes the waiters so
    /// they can retry.
    Leader(FlightPermit<'a>),
}

/// The leader's obligation token for one in-flight key (see
/// [`PrepareSlot::Leader`]).
pub struct FlightPermit<'a> {
    cache: &'a QueryCache,
    /// `Some` until the flight lands; taken by `complete`/`Drop`.
    key: Option<(String, String)>,
    flight: Arc<Flight>,
}

impl FlightPermit<'_> {
    /// Publish the freshly compiled artifact: insert it into the cache,
    /// count the compile, and hand it to every parked waiter.
    pub fn complete(mut self, prepared: Arc<PreparedQuery>) {
        let key = self.key.take().expect("flight already landed");
        self.cache.compiles.fetch_add(1, Ordering::Relaxed);
        // Cache first, then retire the flight: a caller arriving in
        // between finds the entry via the cache, never a gap.
        self.cache.insert(&key.0, &key.1, Arc::clone(&prepared));
        self.cache
            .land(&key, &self.flight, FlightState::Done(prepared));
    }
}

impl Drop for FlightPermit<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.cache.land(&key, &self.flight, FlightState::Aborted);
        }
    }
}

/// A bounded, dependency-validated LRU cache of [`PreparedQuery`]
/// artifacts with a per-key single-flight guard for cold misses.
///
/// Interior mutability (mutexes plus atomics for the counters) lets a
/// shared `&CoinSystem` serve cached lookups from many threads at once.
pub struct QueryCache {
    inner: Mutex<Inner>,
    /// In-flight compilations by `(receiver, sql)`. Lock order: `inflight`
    /// before `inner`; nothing acquires `inflight` while holding `inner`.
    inflight: Mutex<HashMap<(String, String), Arc<Flight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::with_capacity(DEFAULT_CACHE_CAPACITY)
    }
}

impl QueryCache {
    pub fn with_capacity(capacity: usize) -> QueryCache {
        QueryCache {
            inner: Mutex::new(Inner {
                capacity,
                ..Inner::default()
            }),
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the lock cannot leave the map in an
        // inconsistent state (all updates are single operations), so
        // recover from poisoning instead of propagating it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Counter-free lookup: a present but stale entry (one of its
    /// dependencies changed after compilation) is removed and counted as
    /// an invalidation; hit/miss attribution is the caller's. Mutations
    /// evict eagerly via [`QueryCache::invalidate_dependents`], so this
    /// validity check is defense in depth, not the primary mechanism.
    fn lookup(
        &self,
        receiver: &str,
        sql: &str,
        versions: &ModelVersions,
    ) -> Option<Arc<PreparedQuery>> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let stale = match inner.map.get_mut(receiver).and_then(|m| m.get_mut(sql)) {
            Some((prepared, last_used))
                if versions.plan_valid(prepared.deps(), prepared.epoch()) =>
            {
                *last_used = tick;
                return Some(Arc::clone(prepared));
            }
            Some(_) => {
                inner.invalidations += 1;
                inner.remove(receiver, sql)
            }
            None => None,
        };
        drop(inner);
        drop(stale);
        None
    }

    /// Single-flight entry point: return a cached artifact, or elect this
    /// caller leader for the key, or park until the current leader lands
    /// and serve its artifact. Only a leader election counts as a miss;
    /// both cache hits and coalesced waits count as hits.
    pub fn begin(&self, receiver: &str, sql: &str, versions: &ModelVersions) -> PrepareSlot<'_> {
        loop {
            let flight = {
                // `inflight` is held across the cache lookup so a leader
                // completing in between cannot slip past both checks.
                let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
                if let Some(hit) = self.lookup(receiver, sql, versions) {
                    drop(inflight);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return PrepareSlot::Cached(hit);
                }
                let key = (receiver.to_owned(), sql.to_owned());
                match inflight.get(&key) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::new());
                        inflight.insert(key.clone(), Arc::clone(&flight));
                        drop(inflight);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return PrepareSlot::Leader(FlightPermit {
                            cache: self,
                            key: Some(key),
                            flight,
                        });
                    }
                }
            };
            // Park outside the map lock until the leader lands.
            let mut state = flight.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                match &*state {
                    FlightState::Pending => {
                        state = flight
                            .cv
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    FlightState::Done(prepared)
                        if versions.plan_valid(prepared.deps(), prepared.epoch()) =>
                    {
                        let out = Arc::clone(prepared);
                        drop(state);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return PrepareSlot::Cached(out);
                    }
                    // Leader failed, or its artifact was obsoleted by a
                    // mutation while we waited: go around (possibly
                    // becoming leader).
                    FlightState::Done(_) | FlightState::Aborted => break,
                }
            }
        }
    }

    /// Retire a flight: remove it from the in-flight map (only if it is
    /// still the registered one for the key) and wake every waiter with
    /// the final state.
    fn land(&self, key: &(String, String), flight: &Arc<Flight>, state: FlightState) {
        {
            let mut inflight = self.inflight.lock().unwrap_or_else(PoisonError::into_inner);
            if inflight.get(key).is_some_and(|f| Arc::ptr_eq(f, flight)) {
                inflight.remove(key);
            }
        }
        *flight.state.lock().unwrap_or_else(PoisonError::into_inner) = state;
        flight.cv.notify_all();
    }

    /// Insert a freshly compiled artifact, evicting the least-recently-used
    /// entry if the cache is full. With capacity 0 the cache is disabled
    /// and the insert is dropped.
    pub fn insert(&self, receiver: &str, sql: &str, prepared: Arc<PreparedQuery>) {
        drop(self.insert_evicting(receiver, sql, prepared));
    }

    /// [`QueryCache::insert`], handing back what it displaced (a replaced
    /// entry, evicted ones) to be dropped once the lock is released.
    fn insert_evicting(&self, receiver: &str, sql: &str, prepared: Arc<PreparedQuery>) -> Victims {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return vec![prepared];
        }
        inner.tick += 1;
        let tick = inner.tick;
        let replaced = inner
            .map
            .entry(receiver.to_owned())
            .or_default()
            .insert(sql.to_owned(), (prepared, tick));
        if replaced.is_none() {
            inner.len += 1;
        }
        let mut victims = evict_down_to_capacity(&mut inner);
        victims.extend(replaced.map(|(prepared, _)| prepared));
        victims
    }

    /// Drop every entry whose recorded dependency footprint intersects
    /// `parts` — the eager half of dependency-tracked invalidation,
    /// called by [`crate::CoinSystem`] on every model mutation so stale
    /// plans never linger even unread, while plans over untouched parts
    /// stay hot. Returns the number of entries dropped.
    pub fn invalidate_dependents(&self, parts: &[ModelPart]) -> u64 {
        let victims = self.take_dependents(parts);
        victims.len() as u64
    }

    /// The work of [`QueryCache::invalidate_dependents`] under the lock,
    /// handing the dropped plans back to be freed after it.
    fn take_dependents(&self, parts: &[ModelPart]) -> Victims {
        let mut inner = self.lock();
        let mut victims = Vec::new();
        inner.map.retain(|_, per| {
            per.retain(|_, (prepared, _)| {
                let stale = parts.iter().any(|p| prepared.deps().contains(p));
                if stale {
                    victims.push(Arc::clone(prepared));
                }
                !stale
            });
            !per.is_empty()
        });
        inner.len -= victims.len();
        inner.invalidations += victims.len() as u64;
        victims
    }

    /// Change the capacity bound, evicting LRU entries down to the new
    /// bound if necessary. Capacity 0 disables caching.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        let victims = evict_down_to_capacity(&mut inner);
        drop(inner);
        drop(victims);
    }

    /// Lock-free snapshot of the cumulative `(hits, misses)` counters —
    /// safe on the execute-many hot path (no mutex, just two atomic
    /// loads).
    pub fn counters(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Cumulative counters plus a point-in-time occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            invalidations: inner.invalidations,
            evictions: inner.evictions,
            entries: inner.len,
            capacity: inner.capacity,
        }
    }
}

/// Evict least-recently-used entries until the map fits the capacity
/// bound (shared by insert and capacity changes). One selection pass
/// finds the k oldest entries, so bulk shrinks (`set_capacity` far below
/// the current occupancy) stay O(n) instead of O(n²). Hands the evicted
/// plans back, to be dropped after the lock is released.
fn evict_down_to_capacity(inner: &mut Inner) -> Victims {
    if inner.len <= inner.capacity {
        return Vec::new();
    }
    let excess = inner.len - inner.capacity;
    if excess == 1 {
        // Hot path (one insert past full): min-scan by tick, cloning only
        // the single victim's keys instead of the whole key set.
        let victim = inner
            .map
            .iter()
            .flat_map(|(r, per)| per.iter().map(move |(s, (_, tick))| (*tick, r, s)))
            .min_by_key(|(tick, _, _)| *tick)
            .map(|(_, r, s)| (r.clone(), s.clone()));
        let Some((receiver, sql)) = victim else {
            return Vec::new();
        };
        inner.evictions += 1;
        return inner.remove(&receiver, &sql).into_iter().collect();
    }
    let mut entries: Vec<(u64, String, String)> = inner
        .map
        .iter()
        .flat_map(|(r, per)| {
            per.iter()
                .map(move |(s, (_, tick))| (*tick, r.clone(), s.clone()))
        })
        .collect();
    entries.select_nth_unstable_by_key(excess - 1, |(tick, _, _)| *tick);
    inner.evictions += excess as u64;
    entries
        .into_iter()
        .take(excess)
        .filter_map(|(_, receiver, sql)| inner.remove(&receiver, &sql))
        .collect()
}

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("QueryCache")
            .field("entries", &s.entries)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::figure2_system;

    const SQL: [&str; 3] = [
        "SELECT r1.cname FROM r1",
        "SELECT r2.cname FROM r2",
        "SELECT r1.cname, r2.expenses FROM r1, r2 WHERE r1.cname = r2.cname",
    ];

    #[test]
    fn displaced_plans_are_handed_back_to_drop_after_the_lock() {
        let sys = figure2_system();
        let plans: Vec<Arc<PreparedQuery>> = SQL
            .iter()
            .map(|sql| Arc::new(sys.prepare_uncached(sql, "c_recv").unwrap()))
            .collect();
        let cache = QueryCache::with_capacity(2);
        for (sql, plan) in SQL.iter().zip(&plans).take(2) {
            assert!(cache
                .insert_evicting("c_recv", sql, Arc::clone(plan))
                .is_empty());
        }

        // One insert past capacity hands back exactly the least recently
        // used plan.
        let victims = cache.insert_evicting("c_recv", SQL[2], Arc::clone(&plans[2]));
        assert_eq!(victims.len(), 1);
        assert!(Arc::ptr_eq(&victims[0], &plans[0]));
        let stats = cache.stats();
        assert_eq!(
            (stats.evictions, stats.invalidations, stats.entries),
            (1, 0, 2)
        );

        // An invalidation hands back every dependent plan.
        let victims = cache.take_dependents(&[ModelPart::Relation("r2".into())]);
        assert_eq!(victims.len(), 2);
        for plan in &plans[1..] {
            assert!(victims.iter().any(|v| Arc::ptr_eq(v, plan)));
        }
        let stats = cache.stats();
        assert_eq!(
            (stats.evictions, stats.invalidations, stats.entries),
            (1, 2, 0)
        );
    }
}
