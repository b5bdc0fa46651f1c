//! Bailey's 6-step algorithm for large node-local 1D FFTs (paper §5.2).
//!
//! A length-`N = n1·n2` transform is computed on the data viewed as an
//! `n1 × n2` row-major matrix `A[a][b] = x[a·n2 + b]`:
//!
//! ```text
//! y[c + d·n1] = Σ_b W_{n2}^{bd} · W_N^{bc} · (Σ_a W_{n1}^{ac} A[a][b])
//! ```
//!
//! i.e. column FFTs, twiddle by `W_N^{bc}`, then row FFTs, with the output
//! landing in transposed order. The paper's Fig 4 gives two realizations —
//! the naive one with three explicit transposes (13 memory sweeps) and the
//! loop-fused one (4 sweeps) — and §5.2.3 adds architecture-aware rungs.
//! [`SixStepVariant`] exposes the same ladder, which `soifft-bench`'s
//! `fig10` reproduces:
//!
//! | rung | paper | here |
//! |---|---|---|
//! | 1 | `6-step-naïve` (13 sweeps) | [`SixStepVariant::Naive`] |
//! | 2 | `6-step-opt` (fused, 4 sweeps) | [`SixStepVariant::Fused`]: column groups and row bands of about 1 MiB per worker, each moved by one staged transpose |
//! | 3 | `latency-hiding` (prefetch + SMT pipelining) | [`SixStepVariant::FusedDynamic`]: the same groups and bands with dynamic-block twiddle tables (`O(√N)` working set) — the portable subset of the same bandwidth/locality mechanisms |
//! | 4 | `fine-grain` parallelization | [`SixStepVariant::FusedParallel`]: the rung-3 walk on a threaded pool |
//!
//! Every fused rung runs one walk on the plan's [`Pool`]. Each column
//! group splits its gather, FFTs and twiddles by columns of the group
//! buffer and its write-back by destination rows; each row band splits its
//! FFTs by rows and its transpose-out by destination rows. Every worker
//! writes one contiguous range and reads the source shared, so the
//! threaded walk is safe Rust and its bits equal the serial walk's.
//!
//! §5.2.4's "Saving Bandwidth by Fusing Demodulation and FFT" is
//! [`SixStepFft::forward_scaled`]: a caller-supplied diagonal is applied
//! inside the final write-back transpose, to each run just written,
//! instead of as a separate sweep — the SOI pipeline passes its
//! demodulation window `W⁻¹` here.

use soifft_num::c64;
use soifft_num::factor::{balanced_split, padded_stride};
use soifft_num::transpose::{stage_len, transpose_strided, TILE};
use soifft_par::Pool;

use crate::batch::forward_rows_with;
use crate::plan::Plan;
use crate::twiddle::{DynamicBlock, Twiddles};

/// Bytes of one worker's share of a column group or row band of the fused
/// variants: half of a 2 MiB L2, so a share's gather, FFTs, twiddles and
/// write-back all run in cache.
const GROUP_BYTES: usize = 1 << 20;

/// How many vectors of `len` elements fit `threads` × [`GROUP_BYTES`],
/// rounded down to a multiple of [`TILE`] with a floor of one [`TILE`].
fn group_of(len: usize, threads: usize) -> usize {
    let fit = threads * GROUP_BYTES / (len.max(1) * std::mem::size_of::<c64>());
    (fit / TILE * TILE).max(TILE)
}

/// Which rung of the Fig 10 optimization ladder to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SixStepVariant {
    /// Fig 4(a): explicit transposes and a separate twiddle pass —
    /// 13 memory sweeps, full-size twiddle table.
    Naive,
    /// Fig 4(b): loops fused through a contiguous buffer of column
    /// groups, row bands written back by one transpose each —
    /// 4 memory sweeps, still a full-size twiddle table. Only Fig 10's
    /// `6-step-opt` rung and tests run it; SOI's `F_{M'}` runs
    /// `FusedDynamic`.
    Fused,
    /// Fused with dynamic-block twiddle tables (√N working set) in place
    /// of the full table.
    FusedDynamic,
    /// Fig 10's `+fine-grain` rung: the `FusedDynamic` walk, which Fig 10
    /// runs on a threaded pool. Its bits equal `FusedDynamic`'s on any
    /// pool.
    FusedParallel,
}

impl SixStepVariant {
    /// All rungs in ladder order (used by benches).
    pub const LADDER: [SixStepVariant; 4] = [
        SixStepVariant::Naive,
        SixStepVariant::Fused,
        SixStepVariant::FusedDynamic,
        SixStepVariant::FusedParallel,
    ];

    /// Display label matching the paper's Fig 10 x-axis.
    pub fn label(self) -> &'static str {
        match self {
            SixStepVariant::Naive => "6-step-naive",
            SixStepVariant::Fused => "6-step-opt",
            SixStepVariant::FusedDynamic => "+locality",
            SixStepVariant::FusedParallel => "+fine-grain",
        }
    }

    /// Number of full-array memory sweeps this variant performs
    /// (the quantity Fig 4 counts): 13 naive, 4 for every fused rung.
    pub fn memory_sweeps(self) -> usize {
        match self {
            SixStepVariant::Naive => 13,
            _ => 4,
        }
    }
}

#[derive(Clone)]
enum TwiddleStore {
    Full(Twiddles),
    Dynamic(DynamicBlock),
}

impl TwiddleStore {
    /// Multiplies `row[c] *= w^{b·c}` for all `c` without a division or
    /// modulo per element — the twiddle pass is bandwidth-critical and a
    /// per-element `u128` modulo would dominate it. The full table steps
    /// its index incrementally (`t += b` with a conditional subtract); the
    /// dynamic-block tables keep their two indices the same way
    /// ([`DynamicBlock::mul_powers`]).
    fn scale_row(&self, row: &mut [c64], b: usize, n: usize) {
        match self {
            TwiddleStore::Full(tw) => {
                let step = b % n;
                let mut t = 0usize;
                for v in row.iter_mut() {
                    *v *= tw.get(t);
                    t += step;
                    if t >= n {
                        t -= n;
                    }
                }
            }
            TwiddleStore::Dynamic(tw) => tw.mul_powers(row, b),
        }
    }
}

/// A large-FFT plan: 2D decomposition, component plans, twiddles, variant.
#[derive(Clone)]
pub struct SixStepFft {
    n: usize,
    n1: usize,
    n2: usize,
    plan1: std::sync::Arc<Plan>,
    plan2: std::sync::Arc<Plan>,
    tw: TwiddleStore,
    variant: SixStepVariant,
    pool: Pool,
}

/// One pool worker's scratch: component-plan batch scratch and a
/// transpose stage.
#[derive(Clone, Debug)]
struct WorkerScratch {
    s1: Vec<c64>,
    s2: Vec<c64>,
    stage: Vec<c64>,
}

/// Reusable scratch for one [`SixStepFft`] plan: the column-group buffer
/// and one slot of component-plan scratch and transpose stage per pool
/// worker. Build it once with [`SixStepFft::make_scratch`] and pass it to
/// [`SixStepFft::forward_with`] / [`SixStepFft::forward_scaled_with`] —
/// repeated transforms then run with no heap allocation at all, which is
/// what the steady-state SOI pipeline needs (the twiddle pass is
/// bandwidth-bound, so allocator traffic is pure overhead).
#[derive(Clone, Debug)]
pub struct SixStepScratch {
    buf: Vec<c64>,
    workers: Vec<WorkerScratch>,
}

impl SixStepFft {
    /// Builds a plan for length `n` with a balanced `n1 × n2` split and a
    /// serial pool.
    pub fn new(n: usize, variant: SixStepVariant) -> Self {
        Self::with_pool(n, variant, Pool::serial())
    }

    /// Builds a plan whose fused walk splits each column group and row
    /// band over `pool`'s threads (the naive rung runs serially).
    pub fn with_pool(n: usize, variant: SixStepVariant, pool: Pool) -> Self {
        let (n1, n2) = balanced_split(n);
        Self::with_split(n, n1, n2, variant, pool)
    }

    /// Builds a plan with an explicit `n1 × n2` decomposition
    /// (`n1 * n2 == n`).
    pub fn with_split(n: usize, n1: usize, n2: usize, variant: SixStepVariant, pool: Pool) -> Self {
        assert!(n >= 1 && n1 * n2 == n, "n1*n2 must equal n");
        let tw = match variant {
            SixStepVariant::Naive | SixStepVariant::Fused => TwiddleStore::Full(Twiddles::new(n)),
            SixStepVariant::FusedDynamic | SixStepVariant::FusedParallel => {
                TwiddleStore::Dynamic(DynamicBlock::new(n))
            }
        };
        SixStepFft {
            n,
            n1,
            n2,
            // Component plans come from the process-wide cache: simulated
            // ranks all build the same geometry, and `n1 == n2` on even
            // log₂ sizes shares one table within a single plan too.
            plan1: crate::cache::shared_plan(n1),
            plan2: crate::cache::shared_plan(n2),
            tw,
            variant,
            pool,
        }
    }

    /// Transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false; API symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The decomposition `(n1, n2)`.
    pub fn split(&self) -> (usize, usize) {
        (self.n1, self.n2)
    }

    /// The variant this plan runs.
    pub fn variant(&self) -> SixStepVariant {
        self.variant
    }

    /// Builds the reusable scratch this plan's variant needs. Sized once
    /// here so every later [`SixStepFft::forward_with`] call is
    /// allocation-free.
    pub fn make_scratch(&self) -> SixStepScratch {
        let buf = match self.variant {
            SixStepVariant::Naive => Vec::new(),
            _ => vec![c64::ZERO; self.column_group() * padded_stride(self.n1, 4)],
        };
        let workers = (0..self.pool.threads())
            .map(|_| self.worker_scratch())
            .collect();
        SixStepScratch { buf, workers }
    }

    fn worker_scratch(&self) -> WorkerScratch {
        WorkerScratch {
            s1: self.plan1.make_batch_scratch(),
            s2: self.plan2.make_batch_scratch(),
            stage: vec![c64::ZERO; self.stage_len()],
        }
    }

    /// Stage elements one worker's transposes need: the largest
    /// [`stage_len`] over the blocks this variant moves.
    fn stage_len(&self) -> usize {
        let (n1, n2) = (self.n1, self.n2);
        match self.variant {
            SixStepVariant::Naive => stage_len(n1, n2).max(stage_len(n2, n1)),
            _ => {
                let g = self.column_group().min(n2);
                let band = group_of(n2, self.pool.threads()).min(n1);
                let gather = stage_len(n1, g).max(stage_len(g, n1));
                gather.max(stage_len(band, n2))
            }
        }
    }

    /// Forward transform of `data` in place. `aux` is caller-provided
    /// scratch of the same length (ping-pong buffer).
    pub fn forward(&self, data: &mut [c64], aux: &mut [c64]) {
        let mut scratch = self.make_scratch();
        self.forward_impl(data, aux, None, &mut scratch);
    }

    /// [`SixStepFft::forward`] against caller-owned scratch: no heap
    /// allocation happens inside the call.
    pub fn forward_with(&self, data: &mut [c64], aux: &mut [c64], scratch: &mut SixStepScratch) {
        self.forward_impl(data, aux, None, scratch);
    }

    /// Forward transform with a diagonal `scale` fused into the final
    /// write-back: `out[k] = y_k · scale[k]` without an extra memory sweep
    /// (§5.2.4 fused demodulation). `scale.len() == n`.
    pub fn forward_scaled(&self, data: &mut [c64], aux: &mut [c64], scale: &[c64]) {
        assert_eq!(scale.len(), self.n, "scale length != n");
        let mut scratch = self.make_scratch();
        self.forward_impl(data, aux, Some(scale), &mut scratch);
    }

    /// [`SixStepFft::forward_scaled`] against caller-owned scratch.
    pub fn forward_scaled_with(
        &self,
        data: &mut [c64],
        aux: &mut [c64],
        scale: &[c64],
        scratch: &mut SixStepScratch,
    ) {
        assert_eq!(scale.len(), self.n, "scale length != n");
        self.forward_impl(data, aux, Some(scale), scratch);
    }

    /// Inverse transform (normalized by `1/n`), via conjugation around the
    /// forward kernel.
    pub fn inverse(&self, data: &mut [c64], aux: &mut [c64]) {
        let mut scratch = self.make_scratch();
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.forward_impl(data, aux, None, &mut scratch);
        let s = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.conj() * s;
        }
    }

    /// Runs the variant's walk, first topping up a scratch built for
    /// another plan: a slot per pool worker, each with a long enough stage.
    fn forward_impl(
        &self,
        data: &mut [c64],
        aux: &mut [c64],
        scale: Option<&[c64]>,
        scratch: &mut SixStepScratch,
    ) {
        assert_eq!(data.len(), self.n, "data length != n");
        assert_eq!(aux.len(), self.n, "aux length != n");
        let workers = &mut scratch.workers;
        if workers.len() < self.pool.threads() {
            workers.resize_with(self.pool.threads(), || self.worker_scratch());
        }
        let need = self.stage_len();
        for w in workers.iter_mut().filter(|w| w.stage.len() < need) {
            w.stage.resize(need, c64::ZERO);
        }
        match self.variant {
            SixStepVariant::Naive => self.forward_naive(data, aux, scale, &mut workers[0]),
            _ => self.forward_fused(data, aux, scale, scratch),
        }
    }

    /// Fig 4(a): six explicit steps, 13 memory sweeps.
    fn forward_naive(
        &self,
        data: &mut [c64],
        aux: &mut [c64],
        scale: Option<&[c64]>,
        scratch: &mut WorkerScratch,
    ) {
        let (n1, n2) = (self.n1, self.n2);
        let stage = &mut scratch.stage;
        // Step 1: transpose n1×n2 → n2×n1 (aux[b][a]).
        transpose_strided(data, n2, aux, n1, (n1, n2), None, stage);
        // Step 2: n2 rows of n1-point FFTs.
        forward_rows_with(&self.plan1, aux, &mut scratch.s1);
        // Step 3: twiddle B[b][c] *= W_N^{bc} (a separate full sweep).
        for (b, row) in aux.chunks_exact_mut(n1).enumerate() {
            self.tw.scale_row(row, b, self.n);
        }
        // Step 4: transpose back n2×n1 → n1×n2 (data[c][b]).
        transpose_strided(aux, n1, data, n2, (n2, n1), None, stage);
        // Step 5: n1 rows of n2-point FFTs.
        forward_rows_with(&self.plan2, data, &mut scratch.s2);
        // Step 6: transpose n1×n2 → n2×n1 with the scale; output natural
        // order is d-major.
        transpose_strided(data, n2, aux, n1, (n1, n2), scale, stage);
        data.copy_from_slice(aux);
    }

    /// Fig 4(b): loop-fused, 4 memory sweeps, on the plan's pool. `aux`
    /// holds the intermediate C matrix in c-major (`aux[c·n2 + b]`). Each
    /// parallel region hands every worker one contiguous piece of its
    /// destination and a scratch slot; a serial pool runs each region as
    /// one call on the whole destination.
    fn forward_fused(
        &self,
        data: &mut [c64],
        aux: &mut [c64],
        scale: Option<&[c64]>,
        scratch: &mut SixStepScratch,
    ) {
        let (n1, n2, pool) = (self.n1, self.n2, &self.pool);
        // Column stride padded past power-of-two alignments so the
        // gathered columns do not alias the same cache sets (§5.2.3).
        let cs = padded_stride(n1, 4);
        let group = self.column_group();
        let SixStepScratch { buf, workers } = scratch;
        if buf.len() < group * cs {
            buf.resize(group * cs, c64::ZERO);
        }

        // loop_a over column groups: gather → FFT → twiddle → permuted
        // write-back, all while the group lives in the contiguous buffer.
        // A group is as wide as the budget allows, so each page of `data`
        // and `aux` the two transposes touch gives up `g` elements per
        // visit.
        let mut b0 = 0;
        while b0 < n2 {
            let g = group.min(n2 - b0);
            let cols = &mut buf[..g * cs];
            // Each worker gathers its columns b..b+width of the group,
            // piece[gg·cs + a] = data[a·n2 + b+gg], then FFTs them four at
            // a time and twiddles each in-cache (steps 2+3 fused).
            let src: &[c64] = data;
            pool.par_chunks_mut_scratch(cols, cs, workers, |_, off, piece, w| {
                let (b, width) = (b0 + off / cs, piece.len() / cs);
                transpose_strided(&src[b..], n2, piece, cs, (n1, width), None, &mut w.stage);
                self.plan1
                    .forward_batch_with(piece, cs, width, &mut w.s1, |gg, col| {
                        self.tw.scale_row(col, b + gg, self.n)
                    });
            });
            // Permuted write-back into the c-major intermediate, each
            // worker owning rows c..c+rows: aux[c·n2 + b0+gg] = buf[gg·cs + c].
            let cols: &[c64] = cols;
            pool.par_chunks_mut_scratch(aux, n2, workers, |_, off, piece, w| {
                let (c, rows) = (off / n2, piece.len() / n2);
                let dst = &mut piece[b0..];
                transpose_strided(&cols[c..], cs, dst, n2, (g, rows), None, &mut w.stage);
            });
            b0 += g;
        }

        // loop_b over row bands of the same budget: FFT the band's rows in
        // place, then write the band into natural (d-major) order with one
        // transpose that applies the fused demodulation as it writes.
        let band = group_of(n2, pool.threads());
        let mut c0 = 0;
        while c0 < n1 {
            let rows = band.min(n1 - c0);
            let band_rows = &mut aux[c0 * n2..(c0 + rows) * n2];
            pool.par_chunks_mut_scratch(band_rows, n2, workers, |_, _, piece, w| {
                forward_rows_with(&self.plan2, piece, &mut w.s2)
            });
            // data[d·n1 + c] = aux[c·n2 + d] (· scale[d·n1 + c]), each
            // worker owning destination rows d..d+width.
            let src = &aux[c0 * n2..];
            pool.par_chunks_mut_scratch(data, n1, workers, |_, off, piece, w| {
                let (d, width) = (off / n1, piece.len() / n1);
                let (dst, s) = (&mut piece[c0..], scale.map(|s| &s[off + c0..]));
                transpose_strided(&src[d..], n2, dst, n1, (rows, width), s, &mut w.stage);
            });
            c0 += rows;
        }
    }

    /// Columns per `loop_a` group of the fused variants: [`group_of`] the
    /// padded column for the pool's threads, capped at the matrix (`n2`
    /// rounded up to [`TILE`]) so a small transform does not hold a buffer
    /// it cannot fill.
    fn column_group(&self) -> usize {
        let cs = padded_stride(self.n1, 4);
        group_of(cs, self.pool.threads()).min(self.n2.next_multiple_of(TILE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;
    use soifft_num::error::rel_linf;

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| c64::new((0.19 * i as f64).sin() + 0.1, (0.07 * i as f64).cos()))
            .collect()
    }

    fn check(n: usize, variant: SixStepVariant, pool: Pool, tol: f64) {
        let x = signal(n);
        let plan = SixStepFft::with_pool(n, variant, pool);
        let mut got = x.clone();
        let mut aux = vec![c64::ZERO; n];
        plan.forward(&mut got, &mut aux);
        let want = dft(&x);
        let err = rel_linf(&got, &want);
        assert!(err < tol, "n={n} {variant:?}: err={err:.3e}");
    }

    #[test]
    fn all_variants_match_direct_dft_pow2() {
        for variant in SixStepVariant::LADDER {
            for n in [16, 64, 256, 1024] {
                check(n, variant, Pool::serial(), 1e-11);
            }
        }
    }

    #[test]
    fn all_variants_match_direct_dft_nonpow2() {
        for variant in SixStepVariant::LADDER {
            for n in [36, 100, 240, 720] {
                check(n, variant, Pool::serial(), 1e-11);
            }
        }
    }

    #[test]
    fn ragged_splits_work() {
        // Explicit unbalanced splits exercise partial tiles on both axes;
        // four threads outnumber the columns at 3x5, 5x7 and 1x32, so some
        // regions run fewer pieces than workers. Threaded bits equal the
        // serial plan's.
        for &(n1, n2) in &[(3, 64), (64, 3), (5, 7), (3, 5), (12, 20), (1, 32), (32, 1)] {
            let n = n1 * n2;
            let x = signal(n);
            let want = dft(&x);
            for variant in SixStepVariant::LADDER {
                let mut serial = None;
                for threads in [1, 2, 4] {
                    let plan = SixStepFft::with_split(n, n1, n2, variant, Pool::new(threads));
                    let mut got = x.clone();
                    let mut aux = vec![c64::ZERO; n];
                    plan.forward(&mut got, &mut aux);
                    assert!(rel_linf(&got, &want) < 1e-11, "{n1}x{n2} {variant:?}");
                    let serial = serial.get_or_insert_with(|| got.clone());
                    assert_eq!(&got, serial, "{n1}x{n2} {variant:?} on {threads} threads");
                }
            }
        }
    }

    #[test]
    fn variants_agree_with_each_other_on_larger_size() {
        let n = 1 << 12;
        let x = signal(n);
        let mut reference: Option<Vec<c64>> = None;
        for variant in SixStepVariant::LADDER {
            let plan = SixStepFft::with_pool(n, variant, Pool::new(2));
            let mut got = x.clone();
            let mut aux = vec![c64::ZERO; n];
            plan.forward(&mut got, &mut aux);
            match &reference {
                None => reference = Some(got),
                Some(r) => {
                    assert!(rel_linf(&got, r) < 1e-12, "{variant:?} diverges")
                }
            }
        }
    }

    #[test]
    fn forward_scaled_equals_forward_then_multiply() {
        let n = 256;
        let x = signal(n);
        let scale: Vec<c64> = (0..n)
            .map(|k| c64::new(1.0 / (1.0 + k as f64), 0.002 * k as f64))
            .collect();
        for variant in SixStepVariant::LADDER {
            let plan = SixStepFft::with_pool(n, variant, Pool::new(2));
            let mut fused = x.clone();
            let mut aux = vec![c64::ZERO; n];
            plan.forward_scaled(&mut fused, &mut aux, &scale);

            let mut separate = x.clone();
            plan.forward(&mut separate, &mut aux);
            for (v, &m) in separate.iter_mut().zip(&scale) {
                *v *= m;
            }
            assert!(rel_linf(&fused, &separate) < 1e-12, "{variant:?}");
        }
    }

    #[test]
    fn inverse_round_trips() {
        let n = 400;
        let x = signal(n);
        for variant in [SixStepVariant::Fused, SixStepVariant::FusedParallel] {
            let plan = SixStepFft::with_pool(n, variant, Pool::new(2));
            let mut d = x.clone();
            let mut aux = vec![c64::ZERO; n];
            plan.forward(&mut d, &mut aux);
            plan.inverse(&mut d, &mut aux);
            assert!(rel_linf(&d, &x) < 1e-11, "{variant:?}");
        }
    }

    #[test]
    fn conflict_padded_split_is_exercised() {
        // n1 = 512 triggers the §5.2.3 padded column stride in the fused
        // variant; the result must be unaffected.
        let n = 512 * 8;
        let x = signal(n);
        let plan = SixStepFft::with_split(n, 512, 8, SixStepVariant::Fused, Pool::serial());
        let mut got = x.clone();
        let mut aux = vec![c64::ZERO; n];
        plan.forward(&mut got, &mut aux);
        let mut want = x;
        crate::plan::Plan::new(n).forward(&mut want);
        assert!(rel_linf(&got, &want) < 1e-11);
    }

    #[test]
    fn group_scratch_is_capped_at_the_matrix_and_the_budget() {
        let splits = [
            (40, 64),
            (3, 5),
            (1, 32),
            (320, 512),
            (512, 300),
            (1024, 200),
            (8, 4096),
            (1 << 14, 16),
        ];
        let fused = [
            SixStepVariant::Fused,
            SixStepVariant::FusedDynamic,
            SixStepVariant::FusedParallel,
        ];
        for (n1, n2) in splits {
            let cs = padded_stride(n1, 4);
            for (variant, threads) in fused.into_iter().flat_map(|v| [(v, 1), (v, 2)]) {
                let pool = Pool::new(threads);
                let plan = SixStepFft::with_split(n1 * n2, n1, n2, variant, pool);
                let buf = plan.make_scratch().buf.len();
                assert!(
                    buf <= TILE.max(n2.next_multiple_of(TILE)) * cs,
                    "{n1}x{n2} {variant:?}/{threads}: {buf} elements exceed the matrix"
                );
                assert!(
                    buf * std::mem::size_of::<c64>()
                        <= threads * GROUP_BYTES + TILE * cs * std::mem::size_of::<c64>(),
                    "{n1}x{n2} {variant:?}/{threads}: {buf} elements exceed the budget"
                );
            }
        }
    }

    #[test]
    fn serial_scratch_holds_one_group_one_slot_and_one_stage() {
        // A serial plan's scratch is what the single-threaded walk always
        // held: one group of `GROUP_BYTES` (floor one tile, cap the
        // matrix), one pair of batch scratches, one stage sized by the
        // group and the band.
        let fit = |len: usize| (GROUP_BYTES / (len * 16) / TILE * TILE).max(TILE);
        for (n1, n2) in [
            (40usize, 64usize),
            (512, 300),
            (1024, 200),
            (320, 512),
            (1 << 14, 16),
        ] {
            let cs = padded_stride(n1, 4);
            let group = fit(cs).min(n2.next_multiple_of(TILE));
            let g = group.min(n2);
            let band = fit(n2).min(n1);
            let stage = stage_len(n1, g)
                .max(stage_len(g, n1))
                .max(stage_len(band, n2));
            for variant in [SixStepVariant::Fused, SixStepVariant::FusedDynamic] {
                let plan = SixStepFft::with_split(n1 * n2, n1, n2, variant, Pool::serial());
                let scratch = plan.make_scratch();
                assert_eq!(scratch.buf.len(), group * cs, "{n1}x{n2} {variant:?}");
                assert_eq!(scratch.workers.len(), 1, "{n1}x{n2} {variant:?}");
                let w = &scratch.workers[0];
                assert_eq!(w.s1.len(), plan.plan1.batch_scratch_len());
                assert_eq!(w.s2.len(), plan.plan2.batch_scratch_len());
                assert_eq!(w.stage.len(), stage, "{n1}x{n2} {variant:?}");
            }
        }
    }

    #[test]
    fn threaded_plan_holds_a_slot_per_worker_and_tops_up_a_serial_scratch() {
        let (n1, n2) = (512, 300);
        let n = n1 * n2;
        let variant = SixStepVariant::FusedParallel;
        let threaded = SixStepFft::with_split(n, n1, n2, variant, Pool::new(2));
        let scratch = threaded.make_scratch();
        assert_eq!(scratch.workers.len(), 2);
        let cs = padded_stride(n1, 4);
        assert!(scratch.buf.len() <= 2 * GROUP_BYTES / 16 + TILE * cs);

        let serial = SixStepFft::with_split(n, n1, n2, variant, Pool::serial());
        let mut scratch = serial.make_scratch();
        let x = signal(n);
        let mut want = x.clone();
        let mut aux = vec![c64::ZERO; n];
        serial.forward_with(&mut want, &mut aux, &mut scratch);
        let mut got = x;
        threaded.forward_with(&mut got, &mut aux, &mut scratch);
        assert_eq!(got, want);
        assert_eq!(scratch.workers.len(), 2);
        assert!(scratch
            .workers
            .iter()
            .all(|w| w.stage.len() >= threaded.stage_len()));
    }

    #[test]
    fn stage_is_sized_by_the_plan_shapes() {
        // The serve engine's segment FFT (M' = 320 at N = 4096, P = 2,
        // eight segments per rank) holds a stage no larger than itself;
        // `soi_large`'s (M' = 5·2^15) one stage block at most.
        use soifft_num::transpose::{STAGE_COLS, STAGE_ROWS};
        for (n, cap) in [(320, 320), (5 << 15, STAGE_ROWS * STAGE_COLS)] {
            for variant in SixStepVariant::LADDER {
                for threads in [1, 2] {
                    let plan = SixStepFft::with_pool(n, variant, Pool::new(threads));
                    for w in plan.make_scratch().workers {
                        let stage = w.stage.len();
                        assert!(stage > 0, "n={n} {variant:?}/{threads}: no stage");
                        assert!(
                            stage <= cap,
                            "n={n} {variant:?}/{threads}: stage of {stage}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ragged_multi_group_split_matches_plan() {
        // 512 columns pad to 516: groups of 120 columns (120+120+60) and
        // bands of 216 rows (216+216+80), both with a ragged last one.
        let (n1, n2) = (512, 300);
        let n = n1 * n2;
        let x = signal(n);
        let mut want = x.clone();
        Plan::new(n).forward(&mut want);
        for variant in [SixStepVariant::Fused, SixStepVariant::FusedDynamic] {
            let plan = SixStepFft::with_split(n, n1, n2, variant, Pool::serial());
            let group = plan.column_group();
            assert!(group < n2 && n2 % group != 0, "one group or not ragged");
            let band = group_of(n2, 1);
            assert!(band < n1 && n1 % band != 0, "one band or not ragged");
            let mut got = x.clone();
            let mut aux = vec![c64::ZERO; n];
            plan.forward(&mut got, &mut aux);
            assert!(rel_linf(&got, &want) < 1e-11, "{variant:?}");
        }
    }

    #[test]
    fn length_one_transform() {
        let plan = SixStepFft::new(1, SixStepVariant::Fused);
        let mut d = vec![c64::new(3.0, 4.0)];
        let mut aux = vec![c64::ZERO; 1];
        plan.forward(&mut d, &mut aux);
        assert_eq!(d[0], c64::new(3.0, 4.0));
    }

    #[test]
    fn incremental_twiddle_stepping_matches_direct() {
        // scale_row steps its indices with conditional subtracts; verify
        // both stores against direct modular products across wrap-arounds.
        let n = 96;
        let stores = [
            TwiddleStore::Full(crate::twiddle::Twiddles::new(n)),
            TwiddleStore::Dynamic(DynamicBlock::new(n)),
        ];
        for tw in &stores {
            for b in [0usize, 1, 7, 48, 95, 96, 100] {
                let mut row = vec![c64::ONE; 33];
                tw.scale_row(&mut row, b, n);
                for (c, v) in row.iter().enumerate() {
                    let want = c64::root_of_unity(n, (b * c) as i64);
                    assert!((*v - want).abs() < 1e-12, "b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn metadata_accessors() {
        let plan = SixStepFft::new(1 << 10, SixStepVariant::Fused);
        assert_eq!(plan.len(), 1 << 10);
        assert_eq!(plan.split(), (32, 32));
        assert_eq!(plan.variant(), SixStepVariant::Fused);
        assert!(!plan.is_empty());
        assert_eq!(SixStepVariant::Naive.memory_sweeps(), 13);
        for variant in &SixStepVariant::LADDER[1..] {
            assert_eq!(variant.memory_sweeps(), 4, "{variant:?}");
        }
        assert_eq!(SixStepVariant::Naive.label(), "6-step-naive");
        assert_eq!(SixStepVariant::LADDER.len(), 4);
    }
}
