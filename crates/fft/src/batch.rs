//! Batched transforms: many independent same-length FFTs.
//!
//! The SOI convolution stage ends with `M'` independent `L`-point FFTs per
//! node (`I_{M'} ⊗ F_L` realized as `I_P ⊗ (I_{M'/P} ⊗ F_L)`, paper §2), and
//! CT's `n2` stage is the same shape. Every row loop here goes through
//! [`Plan::forward_batch_with`], which transforms four rows at a time with
//! one row per vector lane — the paper's "vectorize across the batch"
//! (Fig 4(b) step 2) — and gives each row the bits a lone
//! [`Plan::forward_with_scratch`] would. Batches are embarrassingly
//! parallel; the paper assigns them to OpenMP threads, here they go to a
//! [`soifft_par::Pool`] with one scratch buffer per worker piece (no
//! allocation inside the loop).

use soifft_num::{Complex, Real};
use soifft_par::Pool;

use crate::plan::Plan;

/// Forward-transforms every contiguous `plan.len()`-row of `data` in place,
/// serially. `data.len()` must be a multiple of the plan length.
pub fn forward_rows<T: Real>(plan: &Plan<T>, data: &mut [Complex<T>]) {
    let mut scratch = plan.make_batch_scratch();
    forward_rows_with(plan, data, &mut scratch);
}

/// [`forward_rows`] against caller-owned plan scratch (no allocation
/// inside the call). Scratch from [`Plan::make_batch_scratch`] runs the
/// batched kernel; a shorter one from [`Plan::make_scratch`] still works,
/// one row at a time.
pub fn forward_rows_with<T: Real>(
    plan: &Plan<T>,
    data: &mut [Complex<T>],
    scratch: &mut [Complex<T>],
) {
    let n = plan.len();
    assert_eq!(data.len() % n, 0, "data is not a whole number of rows");
    plan.forward_batch_with(data, n, data.len() / n, scratch, |_, _| {});
}

/// One batch scratch buffer per pool worker, for
/// [`forward_rows_parallel_with`].
pub fn make_worker_scratch<T: Real>(plan: &Plan<T>, pool: &Pool) -> Vec<Vec<Complex<T>>> {
    (0..pool.threads())
        .map(|_| plan.make_batch_scratch())
        .collect()
}

/// Forward-transforms every row in place, with rows statically partitioned
/// over the pool's threads, against caller-owned per-worker scratch
/// (`workers.len() >= pool.threads()`): no allocation inside the call.
pub fn forward_rows_parallel_with<T: Real>(
    plan: &Plan<T>,
    pool: &Pool,
    data: &mut [Complex<T>],
    workers: &mut [Vec<Complex<T>>],
) {
    let n = plan.len();
    assert_eq!(data.len() % n, 0, "data is not a whole number of rows");
    if data.is_empty() {
        return;
    }
    pool.par_chunks_mut_scratch(data, n, workers, |_, _, piece, scratch| {
        forward_rows_with(plan, piece, scratch);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;
    use soifft_num::c64;
    use soifft_num::error::rel_linf;

    fn rows_signal(rows: usize, n: usize) -> Vec<c64> {
        (0..rows * n)
            .map(|i| c64::new((0.17 * i as f64).sin(), (0.05 * i as f64).cos()))
            .collect()
    }

    #[test]
    fn rows_match_individual_transforms() {
        let (rows, n) = (7, 24);
        let plan = Plan::new(n);
        let src = rows_signal(rows, n);
        let mut batch = src.clone();
        forward_rows(&plan, &mut batch);
        for r in 0..rows {
            let want = dft(&src[r * n..(r + 1) * n]);
            assert!(
                rel_linf(&batch[r * n..(r + 1) * n], &want) < 1e-11,
                "row {r}"
            );
        }
    }

    #[test]
    fn parallel_matches_serial_for_all_thread_counts() {
        let (rows, n) = (16, 32);
        let plan = Plan::new(n);
        let src = rows_signal(rows, n);
        let mut serial = src.clone();
        forward_rows(&plan, &mut serial);
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let mut workers = make_worker_scratch(&plan, &pool);
            let mut par = src.clone();
            forward_rows_parallel_with(&plan, &pool, &mut par, &mut workers);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let plan = Plan::<f64>::new(8);
        let mut nothing: Vec<c64> = vec![];
        forward_rows(&plan, &mut nothing);
        let pool = Pool::new(4);
        let mut workers = make_worker_scratch(&plan, &pool);
        forward_rows_parallel_with(&plan, &pool, &mut nothing, &mut workers);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn ragged_batch_panics() {
        let plan = Plan::new(8);
        let mut data = vec![c64::ZERO; 12];
        forward_rows(&plan, &mut data);
    }
}
