//! Intra-node parallel substrate.
//!
//! The paper uses a hybrid parallelization: MPI across nodes, OpenMP within
//! a node (§2). This crate is the OpenMP stand-in: a small, explicit
//! parallel-for layer with a *deterministic thread count*, which the
//! fine-grain-parallelization ablation (Fig 10) and the convolution
//! thread-level parallelization (Fig 7 `loop_a`) both need. It offers:
//!
//! * [`Pool`] — a parallelism context with a fixed thread count,
//!   * [`Pool::par_chunks_mut`] — statically partitioned parallel loop over
//!     disjoint mutable chunks (the common FFT batch pattern),
//!   * [`Pool::par_ranges`] — dynamically (atomically) chunked parallel loop
//!     over an index range for irregular work,
//!   * [`Pool::join`] — two-way fork-join.
//!
//! All borrowed-data parallelism uses `std::thread::scope`, so the crate is
//! 100 % safe Rust. When the pool has one thread (the default on a
//! single-core host) every primitive degrades to inline execution with zero
//! spawn overhead, which keeps micro-benchmarks honest.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Busy/idle accounting for an instrumented [`Pool`].
///
/// Workers add the wall time of every task closure they run (`busy`)
/// and count the tasks; idle time is whatever remains of
/// `threads × region wall time`. Shared through an `Arc`, so clones of
/// an instrumented pool (e.g. one per rank thread) report into the same
/// counters. Reading is racy-but-monotonic: totals only grow.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    busy_ns: AtomicU64,
    tasks: AtomicU64,
}

impl PoolMetrics {
    /// Total wall-clock seconds workers spent inside task closures.
    pub fn busy_seconds(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Total task closures executed.
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    fn note(&self, elapsed: Duration) {
        let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }
}

/// A parallelism context with a fixed number of worker threads.
///
/// `Pool` does not keep threads alive between calls; each parallel region
/// spawns scoped threads (and runs inline when `threads == 1`). On an HPC
/// node the spawn cost (~10 µs) is negligible against the multi-millisecond
/// kernels this workspace runs under it.
///
/// # Example
///
/// ```
/// use soifft_par::Pool;
///
/// let pool = Pool::new(4);
/// let mut data = vec![0u64; 1024];
/// pool.par_chunks_mut(&mut data, 16, |_piece, offset, chunk| {
///     for (i, v) in chunk.iter_mut().enumerate() {
///         *v = (offset + i) as u64;
///     }
/// });
/// assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
/// ```
#[derive(Clone, Debug)]
pub struct Pool {
    threads: usize,
    /// Busy accounting, shared by clones; `None` (the default) keeps
    /// every primitive's hot path free of timer calls.
    metrics: Option<Arc<PoolMetrics>>,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(default_parallelism())
    }
}

/// The host's available parallelism (1 if it cannot be determined).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Pool {
    /// Creates a pool that will use exactly `threads` workers
    /// (`threads >= 1`).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one thread");
        Pool {
            threads,
            metrics: None,
        }
    }

    /// A single-threaded pool (all primitives run inline).
    pub fn serial() -> Self {
        Pool::new(1)
    }

    /// Creates a pool with busy/task accounting attached; read the
    /// counters through [`Pool::metrics`]. Clones share the counters.
    pub fn instrumented(threads: usize) -> Self {
        let mut pool = Pool::new(threads);
        pool.metrics = Some(Arc::default());
        pool
    }

    /// The busy-accounting handle, when this pool is instrumented.
    pub fn metrics(&self) -> Option<&Arc<PoolMetrics>> {
        self.metrics.as_ref()
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f`, folding its wall time into the metrics when the pool is
    /// instrumented. The uninstrumented path is one `Option` branch.
    fn timed<R>(&self, f: impl FnOnce() -> R) -> R {
        match &self.metrics {
            None => f(),
            Some(m) => {
                let t = Instant::now();
                let out = f();
                m.note(t.elapsed());
                out
            }
        }
    }

    /// Runs `a` and `b` in parallel and returns both results.
    pub fn join<RA, RB>(
        &self,
        a: impl FnOnce() -> RA + Send,
        b: impl FnOnce() -> RB + Send,
    ) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
    {
        if self.threads == 1 {
            return (self.timed(a), self.timed(b));
        }
        std::thread::scope(|s| {
            let hb = s.spawn(move || self.timed(b));
            let ra = self.timed(a);
            (ra, hb.join().expect("joined task panicked"))
        })
    }

    /// Splits `data` into up to `threads` contiguous pieces (each a multiple
    /// of `granule` except possibly the last) and runs
    /// `f(piece_index, offset, piece)` on each in parallel.
    ///
    /// This is the static-partition loop used for batches of independent
    /// FFTs and for the interchange-parallelized convolution, where uniform
    /// work makes dynamic scheduling pointless.
    ///
    /// # Panics
    /// Panics if `granule == 0` or `data.len()` is not a multiple of
    /// `granule`.
    pub fn par_chunks_mut<T, F>(&self, data: &mut [T], granule: usize, f: F)
    where
        T: Send,
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        assert!(granule > 0, "granule must be positive");
        assert_eq!(
            data.len() % granule,
            0,
            "data length {} is not a multiple of granule {}",
            data.len(),
            granule
        );
        let granules = data.len() / granule;
        let pieces = self.threads.min(granules.max(1));
        if pieces <= 1 {
            self.timed(|| f(0, 0, data));
            return;
        }
        // Ceil-divide granules over pieces, convert back to elements.
        let per = granules.div_ceil(pieces) * granule;
        std::thread::scope(|s| {
            let f = &f;
            let mut rest = data;
            let mut offset = 0;
            let mut idx = 0;
            while !rest.is_empty() {
                let take = per.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let this_offset = offset;
                let this_idx = idx;
                s.spawn(move || self.timed(|| f(this_idx, this_offset, head)));
                offset += take;
                idx += 1;
            }
        });
    }

    /// [`Pool::par_chunks_mut`] with one mutable scratch slot per piece:
    /// runs `f(piece_index, offset, piece, scratch_slot)` where
    /// `scratch_slot` is `&mut scratch[piece_index]`. Because pieces and
    /// slots are split from the same parent slices, no worker ever
    /// allocates its own scratch — the caller plans `scratch` once (one
    /// element per potential worker) and every parallel region reuses it.
    /// This is the primitive behind the steady-state zero-allocation FFT
    /// batches and convolution passes.
    ///
    /// # Panics
    /// Panics if `granule == 0`, `data.len()` is not a multiple of
    /// `granule`, or `scratch` has fewer than
    /// `min(threads, data.len() / granule)` elements.
    pub fn par_chunks_mut_scratch<T, S, F>(
        &self,
        data: &mut [T],
        granule: usize,
        scratch: &mut [S],
        f: F,
    ) where
        T: Send,
        S: Send,
        F: Fn(usize, usize, &mut [T], &mut S) + Sync,
    {
        assert!(granule > 0, "granule must be positive");
        assert_eq!(
            data.len() % granule,
            0,
            "data length {} is not a multiple of granule {}",
            data.len(),
            granule
        );
        let granules = data.len() / granule;
        let pieces = self.threads.min(granules.max(1));
        assert!(
            scratch.len() >= pieces,
            "need {} scratch slots, got {}",
            pieces,
            scratch.len()
        );
        if pieces <= 1 {
            self.timed(|| f(0, 0, data, &mut scratch[0]));
            return;
        }
        let per = granules.div_ceil(pieces) * granule;
        std::thread::scope(|s| {
            let f = &f;
            let mut rest = data;
            let mut slots = scratch;
            let mut offset = 0;
            let mut idx = 0;
            while !rest.is_empty() {
                let take = per.min(rest.len());
                let (head, tail) = rest.split_at_mut(take);
                rest = tail;
                let (slot, slot_tail) = slots.split_at_mut(1);
                slots = slot_tail;
                let slot = &mut slot[0];
                let this_offset = offset;
                let this_idx = idx;
                s.spawn(move || self.timed(|| f(this_idx, this_offset, head, slot)));
                offset += take;
                idx += 1;
            }
        });
    }

    /// Runs `f` over sub-ranges of `range`, dynamically handing out chunks
    /// of `grain` indices from a shared atomic cursor. Use for irregular
    /// work; captures of `f` must be `Sync` (shared state goes through
    /// interior mutability or atomics).
    pub fn par_ranges<F>(&self, range: Range<usize>, grain: usize, f: F)
    where
        F: Fn(Range<usize>) + Sync,
    {
        assert!(grain > 0, "grain must be positive");
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return;
        }
        if self.threads == 1 || len <= grain {
            self.timed(|| f(range));
            return;
        }
        let cursor = AtomicUsize::new(range.start);
        let end = range.end;
        let workers = self.threads.min(len.div_ceil(grain));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let lo = cursor.fetch_add(grain, Ordering::Relaxed);
                    if lo >= end {
                        break;
                    }
                    let hi = (lo + grain).min(end);
                    self.timed(|| f(lo..hi));
                });
            }
        });
    }

    /// Convenience: parallel loop over every index in `range` with dynamic
    /// chunking.
    pub fn par_for_each<F>(&self, range: Range<usize>, grain: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        self.par_ranges(range, grain, |r| {
            for i in r {
                f(i)
            }
        });
    }

    /// Parallel map-reduce over an index range: `map` produces one value
    /// per sub-range, `reduce` folds them (must be associative;
    /// commutativity is NOT required — partials are folded in range
    /// order). Used for norms and error reductions over large vectors.
    pub fn par_reduce<T, M, R>(
        &self,
        range: Range<usize>,
        grain: usize,
        identity: T,
        map: M,
        reduce: R,
    ) -> T
    where
        T: Send + Clone,
        M: Fn(Range<usize>) -> T + Sync,
        R: Fn(T, T) -> T,
    {
        assert!(grain > 0, "grain must be positive");
        let len = range.end.saturating_sub(range.start);
        if len == 0 {
            return identity;
        }
        if self.threads == 1 || len <= grain {
            return reduce(identity, self.timed(|| map(range)));
        }
        // Static partition into ordered pieces so the fold order is
        // deterministic regardless of which thread finishes first.
        let pieces = self.threads.min(len.div_ceil(grain));
        let per = len.div_ceil(pieces);
        let mut partials: Vec<Option<T>> = vec![None; pieces];
        std::thread::scope(|s| {
            let map = &map;
            for (idx, slot) in partials.iter_mut().enumerate() {
                let lo = range.start + idx * per;
                let hi = (lo + per).min(range.end);
                s.spawn(move || {
                    if lo < hi {
                        *slot = Some(self.timed(|| map(lo..hi)));
                    }
                });
            }
        });
        partials.into_iter().flatten().fold(identity, reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn join_returns_both_results() {
        for threads in [1, 2, 4] {
            let pool = Pool::new(threads);
            let (a, b) = pool.join(|| 6 * 7, || "ok");
            assert_eq!(a, 42);
            assert_eq!(b, "ok");
        }
    }

    #[test]
    fn par_chunks_mut_touches_every_element_exactly_once() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let mut data = vec![0u32; 240];
            pool.par_chunks_mut(&mut data, 8, |_idx, offset, chunk| {
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v += (offset + i) as u32 + 1;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u32 + 1, "threads={threads} i={i}");
            }
        }
    }

    #[test]
    fn par_chunks_mut_offsets_are_consistent() {
        let pool = Pool::new(4);
        let mut data: Vec<usize> = (0..96).collect();
        pool.par_chunks_mut(&mut data, 4, |_idx, offset, chunk| {
            // Element values equal their global index.
            for (i, &v) in chunk.iter().enumerate() {
                assert_eq!(v, offset + i);
            }
        });
    }

    #[test]
    fn par_chunks_mut_respects_granule_boundaries() {
        let pool = Pool::new(3);
        let mut data = vec![0u8; 7 * 5];
        pool.par_chunks_mut(&mut data, 7, |_, offset, chunk| {
            assert_eq!(offset % 7, 0);
            assert_eq!(chunk.len() % 7, 0);
        });
    }

    #[test]
    #[should_panic(expected = "not a multiple of granule")]
    fn par_chunks_mut_rejects_ragged_input() {
        let pool = Pool::new(2);
        let mut data = vec![0u8; 10];
        pool.par_chunks_mut(&mut data, 3, |_, _, _| {});
    }

    #[test]
    fn par_chunks_mut_scratch_gives_each_piece_its_own_slot() {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let mut data = vec![0u32; 240];
            // One reusable accumulator per potential worker.
            let mut scratch = vec![Vec::<u32>::new(); threads];
            pool.par_chunks_mut_scratch(&mut data, 8, &mut scratch, |idx, offset, chunk, acc| {
                acc.push(idx as u32);
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (offset + i) as u32 + 1;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, i as u32 + 1, "threads={threads} i={i}");
            }
            // Every piece wrote only to its own slot.
            for (slot_idx, acc) in scratch.iter().enumerate() {
                assert!(
                    acc.iter().all(|&idx| idx as usize == slot_idx),
                    "threads={threads} slot={slot_idx}: {acc:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch slots")]
    fn par_chunks_mut_scratch_rejects_short_scratch() {
        let pool = Pool::new(4);
        let mut data = vec![0u8; 16];
        let mut scratch: Vec<u8> = vec![0; 1];
        pool.par_chunks_mut_scratch(&mut data, 4, &mut scratch, |_, _, _, _| {});
    }

    #[test]
    fn par_ranges_covers_range_exactly() {
        for threads in [1, 2, 5] {
            let pool = Pool::new(threads);
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            pool.par_ranges(3..97, 7, |r| {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            });
            for (i, h) in hits.iter().enumerate() {
                let expect = u64::from((3..97).contains(&i));
                assert_eq!(h.load(Ordering::Relaxed), expect, "threads={threads} i={i}");
            }
        }
    }

    #[test]
    fn par_ranges_empty_range_is_noop() {
        let pool = Pool::new(4);
        pool.par_ranges(5..5, 1, |_| panic!("must not be called"));
    }

    #[test]
    fn par_for_each_sums_correctly() {
        let pool = Pool::new(4);
        let sum = AtomicU64::new(0);
        pool.par_for_each(0..1000, 32, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn par_reduce_sums_deterministically() {
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let total = pool.par_reduce(
                0..10_000,
                64,
                0u64,
                |r| r.map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
            );
            assert_eq!(total, 9_999 * 10_000 / 2, "threads={threads}");
        }
    }

    #[test]
    fn par_reduce_ordered_fold_for_non_commutative_ops() {
        // String concatenation is associative but not commutative: the
        // result must be in range order for any thread count.
        let expect: String = (0..40).map(|i| format!("{i},")).collect();
        for threads in [1, 3, 8] {
            let pool = Pool::new(threads);
            let got = pool.par_reduce(
                0..40,
                4,
                String::new(),
                |r| r.map(|i| format!("{i},")).collect::<String>(),
                |a, b| a + &b,
            );
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn par_reduce_empty_range_returns_identity() {
        let pool = Pool::new(4);
        let v = pool.par_reduce(3..3, 1, 42u32, |_| panic!("no work"), |a, _| a);
        assert_eq!(v, 42);
    }

    #[test]
    fn pool_accessors() {
        assert_eq!(Pool::serial().threads(), 1);
        assert_eq!(Pool::new(7).threads(), 7);
        assert!(default_parallelism() >= 1);
        assert!(Pool::default().threads() >= 1);
        assert!(Pool::new(2).metrics().is_none());
    }

    #[test]
    fn instrumented_pool_counts_busy_time_and_tasks() {
        for threads in [1, 3] {
            let pool = Pool::instrumented(threads);
            let mut data = vec![0u64; 96];
            pool.par_chunks_mut(&mut data, 8, |_, offset, chunk| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                for (i, v) in chunk.iter_mut().enumerate() {
                    *v = (offset + i) as u64;
                }
            });
            pool.par_for_each(0..10, 2, |_| {});
            let (a, b) = pool.join(|| 1, || 2);
            assert_eq!((a, b), (1, 2));
            let m = pool.metrics().expect("instrumented");
            // par_chunks_mut ran at least one timed piece (2 ms sleep
            // each), par_ranges some chunks, join exactly two closures.
            assert!(m.tasks() >= 1 + 1 + 2, "threads={threads}: {}", m.tasks());
            assert!(
                m.busy_seconds() >= 0.002,
                "threads={threads}: {}",
                m.busy_seconds()
            );
            // Clones share the counters.
            let before = pool.metrics().unwrap().tasks();
            let clone = pool.clone();
            clone.par_for_each(0..4, 1, |_| {});
            assert!(pool.metrics().unwrap().tasks() > before);
        }
    }

    #[test]
    fn uninstrumented_pool_results_match_instrumented() {
        let plain = Pool::new(3);
        let inst = Pool::instrumented(3);
        let sum = |p: &Pool| {
            p.par_reduce(
                0..1000,
                16,
                0u64,
                |r| r.map(|i| i as u64).sum::<u64>(),
                |a, b| a + b,
            )
        };
        assert_eq!(sum(&plain), sum(&inst));
        assert!(inst.metrics().unwrap().tasks() > 0);
    }
}
