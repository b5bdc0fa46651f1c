//! Segment-of-Interest (SOI) low-communication 1D FFT — the paper's primary
//! contribution.
//!
//! SOI replaces the top level of a distributed Cooley–Tukey factorization
//! (3 all-to-all exchanges, Fig 1) with an oversampled filter-bank
//! decomposition needing **one** all-to-all plus a tiny nearest-neighbour
//! ghost exchange (Fig 2). For `y = F_N x` with `N = M·L` and `L = S·P`
//! segments over `P` ranks (paper Eq. 1):
//!
//! ```text
//! y = I_L ⊗ (W⁻¹ · Proj_{M'→M} · F_{M'}) · Perm_{L,N'} · (I_{M'} ⊗ F_L) · W x
//! ```
//!
//! * `W x` — convolution-and-oversampling with a window `w` whose Fourier
//!   transform is ≈1 on one segment of the spectrum and ≈0 at all alias
//!   offsets `±µr/L` ([`conv`], [`window`]),
//! * `I_{M'} ⊗ F_L` — an `L`-point FFT per output block
//!   ([`soifft_fft::batch`]),
//! * `Perm_{L,N'}` — the single all-to-all ([`soifft_cluster`]),
//! * `F_{M'}` then projection + demodulation `W⁻¹` — per segment
//!   ([`soifft_fft::sixstep`] with the fused-scale hook).
//!
//! The oversampling factor `µ = n_µ/d_µ > 1` (typically ≤ 5/4) buys the
//! spectral guard band that makes the factorization accurate; the
//! convolution costs `8BµN` extra flops (B = window width in blocks,
//! typically 72), the trade the whole paper is about.
//!
//! Entry points: [`SoiFft`] for distributed transforms over a
//! [`soifft_cluster::Cluster`], and [`SoiFftLocal`], the whole-vector API
//! that runs that same pipeline on one rank (a single node is Eq. 1's
//! `P = 1` case, not a second implementation). Both are validated against
//! the direct DFT in tests; accuracy as a function of `(B, µ)` is
//! characterized by [`accuracy::alias_bound`] and the accuracy bench.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod conv;
pub mod params;
pub mod pipeline;
pub mod procrun;
pub mod report;
pub mod single;
pub mod tcprun;
pub mod verify;
pub mod window;
pub mod wisdom;

pub use conv::ConvStrategy;
pub use params::{Rational, SoiError, SoiParams};
pub use pipeline::{
    CancelGate, ExchangePlan, Precision, SimSpec, SoiFft, SoiRunError, SoiWorkspace,
};
pub use report::{PlanReport, PredictedBreakdown};
pub use single::SoiFftLocal;
pub use verify::ValidationPolicy;
pub use window::{DemodMode, Window, WindowKind};
pub use wisdom::{TunedExec, WisdomKey};
