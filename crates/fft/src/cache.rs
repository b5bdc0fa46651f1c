//! Plan caching.
//!
//! Plans are expensive to build (O(n) trig for the twiddle tables;
//! Bluestein also FFTs its kernel) and cheap to share (`Plan` execution is
//! `&self`). Applications that transform many sizes — the SOI pipeline
//! builds `F_L` and `F_{M'}` plans, plus Bluestein's inner plans — go
//! through a [`PlanCache`] so repeated sizes are planned once. One global
//! cache exists per precision ([`shared_plan`] for `f64`,
//! [`shared_plan_f32`] for the half-payload path); the caches are
//! independent because an `f32` table is not a truncation of a shared
//! `f64` table entry-by-entry — it is built (and demoted) per precision at
//! construction.
//!
//! The cache is **bounded**: auto-tuners probe many candidate geometries
//! (each with its own `L`, `M'` and Bluestein inner sizes), and an
//! unbounded map would grow with every probed shape for the life of the
//! process. Past [`DEFAULT_PLAN_CACHE_CAPACITY`] distinct sizes the
//! least-recently-used entry is evicted — outstanding `Arc`s stay valid
//! (eviction only drops the cache's own reference), so eviction can never
//! invalidate a running transform. Hit/miss/eviction counters are exposed
//! through [`PlanCache::stats`] and, for the global caches,
//! [`shared_plan_stats`]; the SOI pipeline republishes them per superstep
//! into `CommStats` so `RunProfile` can show whether a workload is
//! replanning.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;

use soifft_num::Real;

use crate::plan::{Plan, PlanError};

/// Default capacity (distinct sizes) of a [`PlanCache`]. Sized for the
/// steady state of a tuning sweep: a handful of live geometries × the 3–4
/// plan sizes each SOI shape needs, with headroom — small enough that a
/// runaway candidate enumeration cannot hold hundreds of twiddle tables.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// The process-wide shared `f64` cache behind [`shared_plan`].
static GLOBAL: OnceLock<PlanCache> = OnceLock::new();

/// The process-wide shared `f32` cache behind [`shared_plan_f32`].
static GLOBAL_F32: OnceLock<PlanCache<f32>> = OnceLock::new();

/// Returns the plan for `n` from the process-wide [`PlanCache`], building
/// it on first use. All SOI and Cooley–Tukey pipelines plan through this
/// entry point, so constructing many transforms of the same geometry
/// (ranks of a simulated cluster, iterated benchmark plans) shares one
/// twiddle table per size instead of rebuilding it per instance.
pub fn shared_plan(n: usize) -> Arc<Plan> {
    GLOBAL.get_or_init(PlanCache::new).get(n)
}

/// Returns the single-precision plan for `n` from the process-wide `f32`
/// cache, building it on first use (the `f32` data path's counterpart of
/// [`shared_plan`]).
pub fn shared_plan_f32(n: usize) -> Arc<Plan<f32>> {
    GLOBAL_F32.get_or_init(PlanCache::new).get(n)
}

/// Snapshot of the `f64` global cache's counters (see
/// [`PlanCache::stats`]).
pub fn shared_plan_stats() -> PlanCacheStats {
    GLOBAL.get_or_init(PlanCache::new).stats()
}

/// Snapshot of the `f32` global cache's counters.
pub fn shared_plan_stats_f32() -> PlanCacheStats {
    GLOBAL_F32.get_or_init(PlanCache::new).stats()
}

/// Combined counters of both global caches — what the SOI pipeline
/// publishes into its per-rank ledger each superstep.
pub fn global_plan_cache_stats() -> PlanCacheStats {
    let a = shared_plan_stats();
    let b = shared_plan_stats_f32();
    PlanCacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        len: a.len + b.len,
        capacity: a.capacity + b.capacity,
    }
}

/// Counter snapshot of one [`PlanCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
    /// Distinct sizes currently cached.
    pub len: usize,
    /// Capacity bound (entries).
    pub capacity: usize,
}

/// One cached plan plus its recency stamp for LRU eviction.
struct Slot<T: Real> {
    plan: Arc<Plan<T>>,
    last_use: u64,
}

/// Map + logical clock; guarded by one mutex so recency updates are
/// atomic with lookups.
struct Inner<T: Real> {
    slots: HashMap<usize, Slot<T>>,
    tick: u64,
}

/// A thread-safe, capacity-bounded LRU cache of [`Plan`]s keyed by
/// transform length, generic over the precision parameter.
pub struct PlanCache<T: Real = f64> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<T: Real> Default for PlanCache<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Real> PlanCache<T> {
    /// An empty cache with the default capacity bound.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// An empty cache bounded to `capacity` distinct sizes (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        PlanCache {
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Returns the plan for `n`, building it on first use.
    ///
    /// # Panics
    /// Panics if `n == 0` (via [`Plan::new`]); use [`PlanCache::try_get`]
    /// for sizes derived from untrusted input.
    pub fn get(&self, n: usize) -> Arc<Plan<T>> {
        match self.try_get(n) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Returns the plan for `n`, building it on first use; a zero length
    /// is reported as a typed [`PlanError`] instead of a panic.
    pub fn try_get(&self, n: usize) -> Result<Arc<Plan<T>>, PlanError> {
        // Fast path: already present — refresh recency under the lock.
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.get_mut(&n) {
                slot.last_use = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(&slot.plan));
            }
        }
        // Build outside the lock (planning can take milliseconds), then
        // race benignly: first writer wins.
        let built = Arc::new(Plan::try_new(n)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let plan = Arc::clone(
            &inner
                .slots
                .entry(n)
                .or_insert(Slot {
                    plan: built,
                    last_use: tick,
                })
                .plan,
        );
        // Enforce the bound, never evicting the entry just returned.
        while inner.slots.len() > self.capacity {
            let victim = inner
                .slots
                .iter()
                .filter(|(&k, _)| k != n)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(&k, _)| k);
            match victim {
                Some(k) => {
                    inner.slots.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                None => break, // capacity 1 holding only `n`
            }
        }
        Ok(plan)
    }

    /// Number of distinct sizes cached.
    pub fn len(&self) -> usize {
        self.inner.lock().slots.len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().slots.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of the hit/miss/eviction counters and occupancy.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Drops all cached plans (they stay alive while callers hold `Arc`s).
    /// Counters are preserved — `clear` is a capacity reset, not a ledger
    /// reset.
    pub fn clear(&self) {
        self.inner.lock().slots.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soifft_num::{c32, c64};

    #[test]
    fn caches_and_reuses() {
        let cache = PlanCache::<f64>::new();
        assert!(cache.is_empty());
        let a = cache.get(256);
        let b = cache.get(256);
        assert!(Arc::ptr_eq(&a, &b), "same size must share one plan");
        assert_eq!(cache.len(), 1);
        let c = cache.get(360);
        assert_eq!(c.len(), 360);
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 2, 0));
    }

    #[test]
    fn cached_plans_work() {
        let cache = PlanCache::<f64>::new();
        let plan = cache.get(64);
        let mut d = vec![c64::ZERO; 64];
        d[0] = c64::ONE;
        plan.forward(&mut d);
        assert!(d.iter().all(|v| (*v - c64::ONE).abs() < 1e-12));
    }

    #[test]
    fn f32_cache_is_independent_and_works() {
        let plan = shared_plan_f32(64);
        let again = shared_plan_f32(64);
        assert!(Arc::ptr_eq(&plan, &again));
        let mut d = vec![c32::ZERO; 64];
        d[0] = c32::ONE;
        plan.forward(&mut d);
        assert!(d.iter().all(|v| (*v - c32::ONE).abs() < 1e-4));
    }

    #[test]
    fn try_get_reports_zero_length() {
        let cache = PlanCache::<f64>::new();
        assert_eq!(cache.try_get(0).unwrap_err(), PlanError::ZeroLength);
        assert!(cache.is_empty(), "failed build must not populate the cache");
    }

    #[test]
    fn clear_keeps_outstanding_arcs_valid() {
        let cache = PlanCache::<f64>::new();
        let p = cache.get(128);
        cache.clear();
        assert!(cache.is_empty());
        let mut d = vec![c64::ONE; 128];
        p.forward(&mut d); // still usable
        assert!((d[0].re - 128.0).abs() < 1e-9);
    }

    #[test]
    fn lru_evicts_coldest_and_counts() {
        let cache = PlanCache::<f64>::with_capacity(2);
        assert_eq!(cache.capacity(), 2);
        let p8 = cache.get(8); // miss
        let _p16 = cache.get(16); // miss
        let _ = cache.get(8); // hit — refreshes 8, making 16 the LRU
        let _p32 = cache.get(32); // miss → evicts 16
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.hits, 1);
        // 8 survived (it was refreshed), 16 did not.
        let before = cache.stats().misses;
        let _ = cache.get(8);
        assert_eq!(cache.stats().misses, before, "8 must still be cached");
        let _ = cache.get(16);
        assert_eq!(
            cache.stats().misses,
            before + 1,
            "16 must have been evicted"
        );
        // Evicted plans held by callers keep working.
        let mut d = vec![c64::ONE; 8];
        p8.forward(&mut d);
        assert!((d[0].re - 8.0).abs() < 1e-12);
    }

    #[test]
    fn capacity_one_always_serves_the_requested_plan() {
        let cache = PlanCache::<f64>::with_capacity(1);
        for n in [8usize, 16, 32, 8, 16] {
            assert_eq!(cache.get(n).len(), n);
            assert_eq!(cache.len(), 1);
        }
        assert_eq!(cache.stats().evictions, 4); // every switch evicts
    }

    #[test]
    fn with_capacity_zero_clamps_to_one() {
        let cache = PlanCache::<f64>::with_capacity(0);
        assert_eq!(cache.capacity(), 1);
        assert_eq!(cache.get(8).len(), 8);
    }

    #[test]
    fn global_stats_combine_both_precisions() {
        let _ = shared_plan(48);
        let _ = shared_plan_f32(48);
        let g = global_plan_cache_stats();
        assert!(g.misses >= 2);
        assert_eq!(g.capacity, 2 * DEFAULT_PLAN_CACHE_CAPACITY);
    }

    #[test]
    fn concurrent_access_yields_consistent_plans() {
        let cache = Arc::new(PlanCache::<f64>::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&cache);
            handles.push(std::thread::spawn(move || {
                let p = c.get(512);
                p.len()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 512);
        }
        assert_eq!(cache.len(), 1);
    }
}
