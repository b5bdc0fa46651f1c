//! Convolution-and-oversampling: `u = W x` (paper §5.3).
//!
//! Per rank, the structured sparse multiply produces `M'/P` blocks of `L`
//! elements; block `m = c·n_µ + j` is
//!
//! ```text
//! u_m[p] = Σ_{b<B} w(bL + p − jσ) · x[(c·d_µ + b)·L + p],   σ = d_µL/n_µ
//! ```
//!
//! reading a `B·L`-sample input window that advances by `d_µ·L` per chunk
//! (`n_µ` blocks). The paper counts this as `8BµN` flops — the extra
//! arithmetic SOI pays for removing two all-to-alls. Because the window is
//! a real envelope on a carrier of period `2L` ([`Window`]), each tap is
//! `(−1)^b·φ(j,p)·env`, so what actually runs is
//!
//! ```text
//! u_m[p] = φ(j,p) · Σ_{b<B} ±env(bL + p − jσ) · x[(c·d_µ + b)·L + p]
//! ```
//!
//! — `4BµN` real×complex multiply-add flops plus one complex multiply
//! per output. All of it happens in one micro-kernel,
//! [`soifft_num::simd::conv_panel_c64`]: a panel of 4 columns (one cache
//! line) of one chunk, the `B` input lines loaded once each and fed to
//! all `n_µ` phases' register accumulators, results stored straight into
//! block-major `out`.
//!
//! A [`ConvStrategy`] is therefore only the order in which the (chunk,
//! panel) units run — the paper's Fig 11 ladder reduced to its loop nests:
//!
//! * [`ConvStrategy::RowMajor`] — chunk-outer, panel-inner (Fig 6(a)):
//!   each chunk walks all `n_µ·B·L` taps, a working set that grows with
//!   the segment count (∝ nodes) and leaves L1 first, then L2.
//! * [`ConvStrategy::Interchanged`] — panel-outer, chunk-inner (Fig
//!   6(b)/Fig 7): one panel's `n_µ·B` tap lines (23 KB at µ = 5/4,
//!   B = 72) stay L1-resident for the whole sweep, *independent of
//!   scale*. The `B` live input lines of a panel (4.6 KB) stay in cache
//!   between consecutive chunks, which is what the paper's circular
//!   buffer (Fig 11's third rung, "buffering") staged by hand, so that
//!   rung is this same loop nest and has no variant of its own.
//!
//! Every output element is the same operation sequence whatever the
//! order, the thread count or the ISA, so all strategies agree bit for
//! bit.

use soifft_num::c64;
use soifft_num::simd::{conv_panel_c64, CONV_PANEL};
use soifft_par::Pool;

use crate::params::SoiParams;
use crate::window::Window;

/// Which convolution loop order to run (the Fig 11 ladder).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConvStrategy {
    /// Chunk-outer / panel-inner (baseline).
    RowMajor,
    /// Panel-outer / chunk-inner (tap working set independent of P); the
    /// panel kernel keeps the live input lines cached without explicit
    /// staging, so this is also the paper's "buffering" rung.
    Interchanged,
}

impl ConvStrategy {
    /// Both loop orders, in Fig 11 order.
    pub const ALL: [ConvStrategy; 2] = [ConvStrategy::RowMajor, ConvStrategy::Interchanged];

    /// Label matching the paper's Fig 11 legend.
    pub fn label(self) -> &'static str {
        match self {
            ConvStrategy::RowMajor => "baseline",
            ConvStrategy::Interchanged => "interchange",
        }
    }
}

/// Reusable scratch for the convolution stage: one `F_L` plan scratch per
/// pool worker, for the fused conv+FFT front end (the unfused orders need
/// none — the kernel writes `out` directly). Plan it once
/// ([`ConvScratch::new`]); steady-state calls then perform zero heap
/// allocations.
#[derive(Clone, Debug)]
pub struct ConvScratch {
    fft: Vec<Vec<c64>>,
}

impl ConvScratch {
    /// One `plan_l` scratch per thread of `pool`.
    pub fn new(_params: &SoiParams, plan_l: &soifft_fft::Plan, pool: &Pool) -> Self {
        ConvScratch {
            fft: (0..pool.threads()).map(|_| plan_l.make_scratch()).collect(),
        }
    }
}

/// The convolution's shape and operands, shared by every loop order.
struct Sweep<'a> {
    window: &'a Window,
    input_ext: &'a [c64],
    l: usize,
    n_mu: usize,
    d_mu: usize,
}

impl<'a> Sweep<'a> {
    /// Checks the buffer lengths against `params`.
    fn new(params: &SoiParams, window: &'a Window, input_ext: &'a [c64], out: &[c64]) -> Self {
        let l = params.total_segments();
        assert_eq!(
            input_ext.len(),
            params.per_rank() + params.ghost_len(),
            "input must include the ghost region"
        );
        assert_eq!(
            out.len(),
            params.blocks_per_rank() * l,
            "output must hold blocks_per_rank · L"
        );
        assert_eq!(
            (window.segments(), window.conv_width(), window.mu_parts()),
            (l, params.conv_width, (params.mu.num(), params.mu.den())),
            "window was built for another shape"
        );
        Sweep {
            window,
            input_ext,
            l,
            n_mu: params.mu.num(),
            d_mu: params.mu.den(),
        }
    }

    /// Output elements per chunk (`n_µ` blocks of `L`).
    fn chunk_len(&self) -> usize {
        self.n_mu * self.l
    }

    /// Every panel of chunk `c`, in order.
    fn chunk(&self, c: usize, chunk_out: &mut [c64]) {
        for panel in 0..self.window.panels() {
            self.unit(c, panel, chunk_out);
        }
    }

    /// One kernel call: panel `panel` of chunk `c` into that chunk's
    /// `n_µ·L` outputs.
    fn unit(&self, c: usize, panel: usize, chunk_out: &mut [c64]) {
        let p0 = panel * CONV_PANEL;
        conv_panel_c64(
            self.window.panel_taps(panel),
            self.window.panel_phases(panel),
            self.n_mu,
            &self.input_ext[c * self.d_mu * self.l + p0..],
            self.l,
            CONV_PANEL.min(self.l - p0),
            &mut chunk_out[p0..],
        );
    }
}

/// Runs the convolution for one rank.
///
/// * `input_ext` — this rank's `N/P` input elements followed by the
///   `(B−d_µ)·L` ghost elements from its successor,
/// * `out` — `blocks_per_rank · L` output elements (block-major),
/// * `pool` — intra-node parallelism: each thread takes a contiguous range
///   of chunks (the paper's `loop_a` thread-level parallelization) and
///   runs `strategy`'s loop order inside it.
pub fn convolve(
    params: &SoiParams,
    window: &Window,
    strategy: ConvStrategy,
    input_ext: &[c64],
    out: &mut [c64],
    pool: &Pool,
) {
    let sweep = Sweep::new(params, window, input_ext, out);
    let chunk_len = sweep.chunk_len();
    pool.par_chunks_mut(out, chunk_len, |_, offset, piece| {
        let c0 = offset / chunk_len;
        match strategy {
            ConvStrategy::RowMajor => {
                for (ci, chunk_out) in piece.chunks_exact_mut(chunk_len).enumerate() {
                    sweep.chunk(c0 + ci, chunk_out);
                }
            }
            ConvStrategy::Interchanged => {
                for panel in 0..window.panels() {
                    for (ci, chunk_out) in piece.chunks_exact_mut(chunk_len).enumerate() {
                        sweep.unit(c0 + ci, panel, chunk_out);
                    }
                }
            }
        }
    });
}

/// [`convolve`] with the signature of the scratch-planned front ends. The
/// unfused loop orders need no scratch (and never allocate), so `_scratch`
/// is untouched; it is accepted so a caller plans one [`ConvScratch`] for
/// whichever front end its plan selects.
#[allow(clippy::too_many_arguments)]
pub fn convolve_with_scratch(
    params: &SoiParams,
    window: &Window,
    strategy: ConvStrategy,
    input_ext: &[c64],
    out: &mut [c64],
    pool: &Pool,
    _scratch: &mut ConvScratch,
) {
    convolve(params, window, strategy, input_ext, out, pool);
}

/// Chunk-outer convolution with the block DFTs (`I ⊗ F_L`) fused in: as
/// soon as a chunk's `n_µ` blocks are produced they are transformed while
/// still in cache, saving one full memory sweep (paper §5.3: "once P rows
/// are available, we can immediately start a P-point FFT ... This can be
/// viewed as a loop fusion optimization").
///
/// The paper notes this fusion *cannot* be applied to the panel-outer
/// (interchanged) order, whose first block only completes on the last
/// panel's pass. This function exists to make that trade measurable
/// (`benches/convolution.rs`).
///
/// Output blocks are the *transformed* `v_m = F_L(u_m)`, i.e. the input to
/// the all-to-all.
pub fn convolve_fused_fft(
    params: &SoiParams,
    window: &Window,
    input_ext: &[c64],
    out: &mut [c64],
    plan_l: &soifft_fft::Plan,
    pool: &Pool,
) {
    let mut scratch = ConvScratch::new(params, plan_l, pool);
    convolve_fused_fft_with_scratch(params, window, input_ext, out, plan_l, pool, &mut scratch);
}

/// [`convolve_fused_fft`] against caller-owned [`ConvScratch`] (per-worker
/// `F_L` scratch is grown on first use if the scratch was planned for a
/// different `plan_l`; steady-state calls never allocate).
#[allow(clippy::too_many_arguments)]
pub fn convolve_fused_fft_with_scratch(
    params: &SoiParams,
    window: &Window,
    input_ext: &[c64],
    out: &mut [c64],
    plan_l: &soifft_fft::Plan,
    pool: &Pool,
    scratch: &mut ConvScratch,
) {
    let sweep = Sweep::new(params, window, input_ext, out);
    assert_eq!(plan_l.len(), sweep.l, "plan length must be L");
    let chunk_len = sweep.chunk_len();
    pool.par_chunks_mut_scratch(out, chunk_len, &mut scratch.fft, |_, offset, piece, fft| {
        let c0 = offset / chunk_len;
        if fft.len() < plan_l.scratch_len() {
            fft.resize(plan_l.scratch_len(), c64::ZERO);
        }
        for (ci, chunk_out) in piece.chunks_exact_mut(chunk_len).enumerate() {
            sweep.chunk(c0 + ci, chunk_out);
            // The chunk is hot in cache: transform its blocks now instead
            // of in a later full sweep.
            for block in chunk_out.chunks_exact_mut(sweep.l) {
                plan_l.forward_with_scratch(block, fft);
            }
        }
    });
}

/// Reference implementation straight from the definition (complex taps
/// from [`Window::taps_row`], per-row inner products, no blocking, no
/// parallelism). Used by tests and kept public for external validation.
pub fn convolve_reference(params: &SoiParams, window: &Window, input_ext: &[c64], out: &mut [c64]) {
    let l = params.total_segments();
    let n_mu = params.mu.num();
    let d_mu = params.mu.den();
    let b = params.conv_width;
    for j in 0..n_mu {
        let taps = window.taps_row(j);
        for c in 0..params.chunks_per_rank() {
            let m = c * n_mu + j;
            for p in 0..l {
                let mut acc = c64::ZERO;
                for bb in 0..b {
                    acc += taps[bb * l + p] * input_ext[c * d_mu * l + bb * l + p];
                }
                out[m * l + p] = acc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Rational, SoiParams};
    use crate::window::WindowKind;
    use soifft_num::error::rel_linf;

    fn params() -> SoiParams {
        SoiParams {
            n: 1 << 10,
            procs: 1,
            segments_per_proc: 8,
            mu: Rational::new(2, 1),
            conv_width: 16,
        }
    }

    fn input_ext(p: &SoiParams) -> Vec<c64> {
        let n = p.per_rank() + p.ghost_len();
        (0..n)
            .map(|i| c64::new((0.37 * i as f64).sin(), (0.23 * i as f64).cos()))
            .collect()
    }

    /// Shapes that reach every kernel path: per-rank blocks and ghost
    /// regions at P = 4, the ledger's design point
    /// (5 phases, full panels), a phase-group split (n_µ = 8), 2-column
    /// tails (L = 6, 10) and a 3-column tail (L = 7), the last three with
    /// odd B.
    fn shapes() -> Vec<SoiParams> {
        let shape = |n, procs, s, (num, den), b| SoiParams {
            n,
            procs,
            segments_per_proc: s,
            mu: Rational::new(num, den),
            conv_width: b,
        };
        let all = vec![
            params(),
            shape(1 << 12, 4, 2, (2, 1), 12),
            shape(1 << 14, 2, 8, (5, 4), 72),
            shape(16 * 224, 2, 8, (8, 7), 24),
            shape(6 * 192, 3, 2, (2, 1), 13),
            shape(10 << 7, 2, 5, (5, 4), 21),
            shape(7 << 6, 1, 7, (2, 1), 11),
        ];
        for p in &all {
            p.validate().unwrap();
        }
        all
    }

    #[test]
    fn all_strategies_match_reference_and_each_other_bitwise() {
        for p in shapes() {
            let w = Window::new(WindowKind::GaussianSinc, &p);
            let x = input_ext(&p);
            let mut reference = vec![c64::ZERO; p.blocks_per_rank() * p.total_segments()];
            convolve_reference(&p, &w, &x, &mut reference);
            let mut first: Option<Vec<c64>> = None;
            for strategy in ConvStrategy::ALL {
                for threads in [1, 2, 3] {
                    let pool = Pool::new(threads);
                    let mut got = vec![c64::ZERO; reference.len()];
                    convolve(&p, &w, strategy, &x, &mut got, &pool);
                    let err = rel_linf(&got, &reference);
                    assert!(
                        err < 1e-13,
                        "{p:?} {strategy:?} threads={threads}: err={err:.3e}"
                    );
                    let first = first.get_or_insert_with(|| got.clone());
                    assert!(
                        got == *first,
                        "{p:?} {strategy:?} threads={threads}: bits differ"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_fft_equals_separate_conv_then_fft() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let x = input_ext(&p);
        let l = p.total_segments();
        let plan = soifft_fft::Plan::new(l);

        // Separate: convolve, then batch-FFT each block.
        let mut separate = vec![c64::ZERO; p.blocks_per_rank() * l];
        convolve(
            &p,
            &w,
            ConvStrategy::RowMajor,
            &x,
            &mut separate,
            &Pool::serial(),
        );
        soifft_fft::batch::forward_rows(&plan, &mut separate);

        // Fused.
        for threads in [1, 3] {
            let mut fused = vec![c64::ZERO; separate.len()];
            convolve_fused_fft(&p, &w, &x, &mut fused, &plan, &Pool::new(threads));
            assert!(fused == separate, "threads={threads}");
        }
    }

    #[test]
    fn kaiser_window_convolution_consistent() {
        let p = params();
        let w = Window::new(WindowKind::KaiserSinc, &p);
        let x = input_ext(&p);
        let mut a = vec![c64::ZERO; p.blocks_per_rank() * p.total_segments()];
        let mut bfr = a.clone();
        convolve(&p, &w, ConvStrategy::RowMajor, &x, &mut a, &Pool::serial());
        convolve(
            &p,
            &w,
            ConvStrategy::Interchanged,
            &x,
            &mut bfr,
            &Pool::serial(),
        );
        assert!(a == bfr);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let x = vec![c64::ZERO; p.per_rank() + p.ghost_len()];
        for strategy in ConvStrategy::ALL {
            let mut got = vec![c64::real(9.9); p.blocks_per_rank() * p.total_segments()];
            convolve(&p, &w, strategy, &x, &mut got, &Pool::serial());
            assert!(got.iter().all(|v| v.abs() == 0.0), "{strategy:?}");
        }
    }

    #[test]
    fn convolution_is_linear() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let x = input_ext(&p);
        let y: Vec<c64> = x.iter().map(|&v| v * c64::new(0.5, -1.0)).collect();
        let sum: Vec<c64> = x.iter().zip(&y).map(|(&a, &b)| a + b).collect();
        let run = |inp: &[c64]| {
            let mut o = vec![c64::ZERO; p.blocks_per_rank() * p.total_segments()];
            convolve(
                &p,
                &w,
                ConvStrategy::Interchanged,
                inp,
                &mut o,
                &Pool::serial(),
            );
            o
        };
        let lhs = run(&sum);
        let rhs: Vec<c64> = run(&x).iter().zip(run(&y)).map(|(&a, b)| a + b).collect();
        assert!(rel_linf(&lhs, &rhs) < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ghost region")]
    fn missing_ghost_panics() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let x = vec![c64::ZERO; p.per_rank()]; // no ghost
        let mut out = vec![c64::ZERO; p.blocks_per_rank() * p.total_segments()];
        convolve(
            &p,
            &w,
            ConvStrategy::RowMajor,
            &x,
            &mut out,
            &Pool::serial(),
        );
    }

    #[test]
    fn strategy_labels() {
        assert_eq!(ConvStrategy::RowMajor.label(), "baseline");
        assert_eq!(ConvStrategy::Interchanged.label(), "interchange");
        assert_eq!(ConvStrategy::ALL.len(), 2);
    }
}
