//! Node-local FFT library, built from scratch.
//!
//! The SOI algorithm (and the Cooley–Tukey baseline) needs three node-local
//! pieces, all implemented here rather than borrowed from an external FFT
//! crate — the local FFT is one of the things the paper optimizes (§5.2),
//! so it is part of what this reproduction builds:
//!
//! * **One transform** ([`Plan`]): recursive decimation-in-time
//!   Cooley–Tukey for smooth sizes (radix-2/3/4/5/8 butterflies and a
//!   generic small-prime butterfly), and Bluestein's chirp-z algorithm
//!   ([`bluestein`]) for the rest. Every other piece runs its leaves
//!   through it, and the `F_L` segment transforms, whose size is the
//!   total segment count and thus arbitrary, need the fallback.
//! * **Batched transforms** ([`batch`]): many independent same-size FFTs —
//!   the `I_{M'} ⊗ F_L` stage runs `M'` of them per node, and CT's
//!   `n1`/`n2` stages are the same shape; the paper vectorizes 8 at a time
//!   across the batch (Fig 4(b) step 2).
//! * **Large 1D transforms** ([`SixStepFft`]): Bailey's 6-step algorithm
//!   for the `F_{M'}` stage, in the paper's two forms — the naive 13-memory-
//!   sweep variant of Fig 4(a) and the fused 4-sweep variant of Fig 4(b) —
//!   plus the architecture-aware rungs of the Fig 10 ladder (dynamic-block
//!   twiddle tables, tiled transposed write-back, fine-grain
//!   parallelization) and the fused-demodulation hook of §5.2.4.
//!
//! Around them: the process-wide plan cache ([`cache`]), the twiddle
//! tables ([`twiddle`]) and the `O(n²)` reference transforms every fast
//! path is tested against ([`dft`]).
//!
//! Conventions: forward transform is `y_k = Σ_n x_n e^{−2πi nk/N}`
//! (unnormalized, FFTW/MKL-compatible); the inverse is normalized by `1/N`
//! so `inverse(forward(x)) == x`. Flop counts everywhere use the paper's
//! `5 N log₂ N` convention.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bluestein;
pub mod cache;
pub mod dft;
pub mod plan;
pub mod sixstep;
pub mod twiddle;

pub use cache::{
    global_plan_cache_stats, shared_plan, shared_plan_f32, shared_plan_stats,
    shared_plan_stats_f32, PlanCache, PlanCacheStats, DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use plan::{Plan, PlanError};
pub use sixstep::{SixStepFft, SixStepScratch, SixStepVariant};

/// Flops of an `n`-point complex FFT under the paper's `5 n log₂ n`
/// convention (used consistently for GFLOPS reporting so that rates are
/// comparable with the paper's).
pub fn fft_flops(n: usize) -> f64 {
    let n = n as f64;
    5.0 * n * n.log2()
}
