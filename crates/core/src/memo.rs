//! Memoization of whole γ-searches, shareable across threads.
//!
//! The analytical sweeps repeat identical γ-searches
//! ([`TandemPath::delay_bound`]): the EDF fixed point starts from the
//! FIFO bound at the same moment parameters a FIFO column computed
//! moments earlier, and the s-search's refinement revisits grid points.
//! With a cache enabled, a γ-search — keyed bit-exactly on every input
//! of [`TandemPath::delay_bound`] — runs once per scenario run.
//!
//! The cache is **off by default**: [`SolverCache::new`] creates one and
//! [`SolverCache::enable`] installs it on the current thread until the
//! returned guard drops, so one-shot library callers pay nothing. The
//! handle can be cloned to other threads, so a parallel sweep shares
//! one memo across all its workers ([`current_solver_cache`]).
//!
//! Hit/miss counts go to the `nc-telemetry` counters
//! `core_solver_cache_hits_total` / `core_solver_cache_misses_total`
//! and to the handle ([`SolverCache::stats`]).
//!
//! Keys are the *bit patterns* of the inputs, so a hit can only occur
//! for byte-identical parameters and returns a byte-identical result —
//! enabling or sharing the cache never perturbs any output. Two
//! threads racing on the same missed key at worst both compute the
//! (deterministic, bit-identical) value; whichever insert lands last
//! wins without changing what any caller observed.
//!
//! [`TandemPath::delay_bound`]: crate::TandemPath::delay_bound

use crate::e2e::E2eDelayBound;
use nc_telemetry as tel;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bit-exact cache key: capacity, hops, through EBB `(M, ρ, α)`, cross
/// EBB `(M, ρ, α)`, scheduler constant Δ, ε.
pub(crate) type SolverKey = [u64; 10];

struct CacheInner {
    map: Mutex<HashMap<SolverKey, Option<E2eDelayBound>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// A thread-safe γ-search memo. Cloning the handle is cheap and shares
/// the underlying store; entries are freed when the last handle drops.
///
/// Install it on a thread with [`SolverCache::enable`]; a parallel
/// sweep clones the handle into each worker so all workers populate
/// and probe one shared memo.
#[derive(Clone)]
pub struct SolverCache {
    inner: Arc<CacheInner>,
}

impl std::fmt::Debug for SolverCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SolverCache")
            .field("entries", &self.len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl Default for SolverCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SolverCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SolverCache {
            inner: Arc::new(CacheInner {
                map: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
            }),
        }
    }

    /// Installs this cache on the current thread until the returned
    /// guard drops. Guards nest and stack: lookups go to the most
    /// recently enabled cache.
    pub fn enable(&self) -> SolverCacheGuard {
        STACK.with(|s| s.borrow_mut().push(self.clone()));
        SolverCacheGuard { _not_send: std::marker::PhantomData }
    }

    /// Cumulative hit/miss counts across every thread that used this
    /// handle (or a clone of it).
    pub fn stats(&self) -> SolverCacheStats {
        SolverCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }

    /// Number of memoized γ-searches.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<SolverKey, Option<E2eDelayBound>>> {
        self.inner.map.lock().expect("solver cache poisoned")
    }
}

thread_local! {
    /// Caches installed on this thread, innermost last.
    static STACK: RefCell<Vec<SolverCache>> = const { RefCell::new(Vec::new()) };
}

/// Cumulative hit/miss counts of a solver cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the γ-search (while enabled).
    pub misses: u64,
}

/// RAII guard holding a solver memo cache open on the current thread;
/// see [`SolverCache::enable`].
#[derive(Debug)]
pub struct SolverCacheGuard {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for SolverCacheGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// The cache currently installed on this thread, if any. A parallel
/// engine captures this before spawning workers so every worker can
/// [`SolverCache::enable`] the same store.
pub fn current_solver_cache() -> Option<SolverCache> {
    STACK.with(|s| s.borrow().last().cloned())
}

/// Looks up `key`, or computes, records, and returns the value. With no
/// cache installed, simply runs `compute`.
pub(crate) fn solve_cached(
    key: SolverKey,
    compute: impl FnOnce() -> Option<E2eDelayBound>,
) -> Option<E2eDelayBound> {
    let Some(cache) = current_solver_cache() else {
        return compute();
    };
    let hit = cache.map().get(&key).cloned();
    if let Some(v) = hit {
        cache.inner.hits.fetch_add(1, Ordering::Relaxed);
        tel::counter("core_solver_cache_hits_total", 1);
        return v;
    }
    cache.inner.misses.fetch_add(1, Ordering::Relaxed);
    tel::counter("core_solver_cache_misses_total", 1);
    // No lock is held around `compute`, so a slow search never blocks
    // other threads' probes.
    let v = compute();
    cache.map().insert(key, v.clone());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::PathScheduler;
    use crate::TandemPath;
    use nc_traffic::Mmoo;

    fn path(sched: PathScheduler) -> TandemPath {
        let src = Mmoo::paper_source();
        TandemPath::new(100.0, 5, src.ebb(0.05, 100), src.ebb(0.05, 100), sched)
    }

    #[test]
    fn cache_returns_identical_bounds() {
        let p = path(PathScheduler::Fifo);
        let plain = p.delay_bound(1e-9).unwrap();
        let cache = SolverCache::new();
        let (cached_cold, cached_warm) = {
            let _guard = cache.enable();
            (p.delay_bound(1e-9).unwrap(), p.delay_bound(1e-9).unwrap())
        };
        assert_eq!(plain, cached_cold, "cold cache must not change the result");
        assert_eq!(plain, cached_warm, "warm cache must not change the result");
    }

    #[test]
    fn repeat_evaluation_hits() {
        let p = path(PathScheduler::Fifo);
        let cache = SolverCache::new();
        let _guard = cache.enable();
        let _ = p.delay_bound(1e-9);
        assert_eq!(cache.stats(), SolverCacheStats { hits: 0, misses: 1 });
        let _ = p.delay_bound(1e-9);
        assert_eq!(
            cache.stats(),
            SolverCacheStats { hits: 1, misses: 1 },
            "a second identical γ-search must be answered from the cache"
        );
    }

    #[test]
    fn disabled_cache_records_nothing() {
        let cache = SolverCache::new();
        drop(cache.enable());
        let _ = path(PathScheduler::Bmux).delay_bound(1e-6);
        assert_eq!(cache.stats(), SolverCacheStats::default());
        assert!(cache.is_empty());
    }

    #[test]
    fn explicit_handle_is_observable_and_shared() {
        let cache = SolverCache::new();
        let p = path(PathScheduler::Fifo);
        {
            let _guard = cache.enable();
            let _ = p.delay_bound(1e-9);
        }
        let after_first = cache.stats();
        assert!(after_first.misses > 0, "first run must miss into the handle");
        assert!(!cache.is_empty(), "entries survive guard drop while the handle lives");
        {
            // Re-enabling the same handle starts warm.
            let _guard = cache.enable();
            let _ = p.delay_bound(1e-9);
        }
        let after_second = cache.stats();
        assert_eq!(
            after_second.misses, after_first.misses,
            "second run must not add misses: {after_second:?}"
        );
        assert!(after_second.hits > after_first.hits);
    }

    #[test]
    fn current_cache_reflects_innermost_guard() {
        assert!(current_solver_cache().is_none());
        let outer = SolverCache::new();
        let _og = outer.enable();
        let got = current_solver_cache().expect("enabled cache must be current");
        assert!(Arc::ptr_eq(&got.inner, &outer.inner));
        {
            let inner = SolverCache::new();
            let _ig = inner.enable();
            let got = current_solver_cache().expect("inner cache must shadow");
            assert!(Arc::ptr_eq(&got.inner, &inner.inner));
        }
        let got = current_solver_cache().expect("outer cache must be restored");
        assert!(Arc::ptr_eq(&got.inner, &outer.inner));
    }

    /// Hammer the shared cache from many threads on overlapping keys:
    /// counters must be consistent and every value bit-exact to serial.
    #[test]
    fn shared_cache_is_consistent_under_concurrency() {
        let schedulers = [PathScheduler::Fifo, PathScheduler::Bmux, PathScheduler::Delta(2.0)];
        let epsilons = [1e-6, 1e-9];
        // Serial reference, no cache.
        let mut reference = Vec::new();
        for sched in schedulers {
            for eps in epsilons {
                reference.push(path(sched).delay_bound(eps));
            }
        }
        let cache = SolverCache::new();
        let results: Vec<Vec<Option<E2eDelayBound>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = cache.clone();
                    scope.spawn(move || {
                        let _guard = cache.enable();
                        let mut out = Vec::new();
                        for _round in 0..3 {
                            out.clear();
                            for sched in schedulers {
                                for eps in epsilons {
                                    out.push(path(sched).delay_bound(eps));
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker must not panic")).collect()
        });
        for (w, got) in results.iter().enumerate() {
            for (i, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g, r, "worker {w} instance {i} diverged from serial");
            }
        }
        let stats = cache.stats();
        assert_eq!(cache.len(), reference.len(), "one entry per distinct γ-search");
        assert_eq!(stats.hits + stats.misses, 8 * 3 * reference.len() as u64, "{stats:?}");
        assert!(stats.hits > 0, "overlapping keys must produce hits: {stats:?}");
        assert!(stats.misses >= cache.len() as u64, "every entry was a miss once: {stats:?}");
    }
}
