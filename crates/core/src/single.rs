//! Single-address-space SOI FFT: [`SoiFft`] on one rank.
//!
//! A single node is the `P = 1` case of Eq. 1, not a second algorithm:
//! [`SoiFftLocal`] plans one [`SoiFft`] with `procs = 1` and runs every
//! call through [`Cluster::run`]`(1, …)`, so the ghost wraps to the rank's
//! own start and the all-to-all is a self-send. It is the correctness
//! anchor (tested against the direct DFT and the plain FFT library) and
//! the quickstart entry point, with a whole-vector API.

use std::sync::Arc;

use soifft_cluster::{Cluster, Comm};
use soifft_num::c64;
use soifft_par::Pool;

use crate::conv::ConvStrategy;
use crate::params::{Rational, SoiError, SoiParams};
use crate::pipeline::SoiFft;
use crate::window::{Window, WindowKind};

/// A planned single-node SOI transform.
///
/// # Example
///
/// ```
/// use soifft_core::{Rational, SoiFftLocal};
/// use soifft_num::c64;
///
/// // 4096 points, 8 segments, µ = 2, width-16 window.
/// let soi = SoiFftLocal::new(4096, 8, Rational::new(2, 1), 16).unwrap();
/// let x: Vec<c64> = (0..4096)
///     .map(|i| c64::new((0.01 * i as f64).sin(), 0.0))
///     .collect();
/// let spectrum = soi.forward(&x);
/// // Round-trip through the inverse:
/// let back = soi.inverse(&spectrum);
/// let err = soifft_num::error::rel_l2(&back, &x);
/// assert!(err < 1e-6);
/// ```
pub struct SoiFftLocal(SoiFft);

impl SoiFftLocal {
    /// Plans a transform of length `n` split into `l` segments, with
    /// oversampling `mu` and convolution width `b`, using the default
    /// Gaussian-sinc window and interchanged convolution.
    pub fn new(n: usize, l: usize, mu: Rational, b: usize) -> Result<Self, SoiError> {
        let params = SoiParams {
            n,
            procs: 1,
            segments_per_proc: l,
            mu,
            conv_width: b,
        };
        Self::from_params(params, WindowKind::GaussianSinc)
    }

    /// Plans from explicit parameters (must have `procs == 1`; use
    /// [`SoiFft`] for the distributed case).
    pub fn from_params(params: SoiParams, kind: WindowKind) -> Result<Self, SoiError> {
        assert_eq!(params.procs, 1, "SoiFftLocal is single-rank; use SoiFft");
        Ok(SoiFftLocal(SoiFft::with_window(params, kind)?))
    }

    /// Selects the convolution strategy (default: interchanged).
    pub fn with_strategy(self, strategy: ConvStrategy) -> Self {
        SoiFftLocal(self.0.with_strategy(strategy))
    }

    /// Selects the intra-node pool (default: serial).
    pub fn with_pool(self, pool: Pool) -> Self {
        SoiFftLocal(self.0.with_pool(pool))
    }

    /// The planned parameters.
    pub fn params(&self) -> &SoiParams {
        self.0.params()
    }

    /// The planned window (shared; e.g. for accuracy estimation).
    pub fn window(&self) -> &Arc<Window> {
        self.0.window()
    }

    /// Computes `y = F_N x` (forward DFT, unnormalized) via the SOI
    /// factorization. `input.len() == n`.
    pub fn forward(&self, input: &[c64]) -> Vec<c64> {
        self.on_one_rank(|fft, comm| fft.forward(comm, input))
    }

    /// Computes only the requested *segments of interest* — the capability
    /// the algorithm is named for: each segment's recovery (`F_{M'}` +
    /// demodulation) is independent, so a band analysis that needs `k` of
    /// the `L` segments pays the convolution once plus only `k/L` of the
    /// recovery work. Returns `(segment_id, bins)` pairs in request order,
    /// where `bins` are the `M` spectrum values `y[s·M .. (s+1)·M)`.
    ///
    /// # Panics
    /// Panics if a segment id is out of range or repeated.
    pub fn forward_segments(&self, input: &[c64], segments: &[usize]) -> Vec<(usize, Vec<c64>)> {
        // `SoiFft` returns ascending ids; restore the request order.
        let mut found = self.on_one_rank(|fft, comm| fft.forward_segments(comm, input, segments));
        found.sort_by_key(|&(s, _)| segments.iter().position(|&w| w == s));
        found
    }

    /// Computes `x = F_N⁻¹ y` (normalized by `1/N`) via conjugation around
    /// the forward SOI transform, so `inverse(forward(x)) ≈ x` to the
    /// window's accuracy.
    pub fn inverse(&self, input: &[c64]) -> Vec<c64> {
        self.on_one_rank(|fft, comm| fft.inverse(comm, input))
    }

    fn on_one_rank<T: Send>(&self, body: impl Fn(&SoiFft, &mut Comm) -> T + Sync) -> T {
        let mut out = Cluster::run(1, |comm| body(&self.0, comm));
        out.pop().expect("one rank")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soifft_fft::Plan;
    use soifft_num::error::{rel_l2, rel_linf};

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64::new(
                    (0.05 * t).sin() + 0.5 * (0.31 * t).cos(),
                    0.3 * (0.11 * t).sin() - 0.2,
                )
            })
            .collect()
    }

    fn reference_fft(x: &[c64]) -> Vec<c64> {
        let plan = Plan::new(x.len());
        let mut y = x.to_vec();
        plan.forward(&mut y);
        y
    }

    #[test]
    fn matches_fft_with_strong_window() {
        // µ = 2, B = 24: stopband ≈ e^{−27} ⇒ near machine precision.
        let n = 1 << 10;
        let soi = SoiFftLocal::new(n, 8, Rational::new(2, 1), 24).unwrap();
        let x = signal(n);
        let got = soi.forward(&x);
        let want = reference_fft(&x);
        let err = rel_l2(&got, &want);
        assert!(err < 1e-9, "err={err:.3e}");
    }

    #[test]
    fn moderate_window_moderate_error() {
        // µ = 2, B = 16 ⇒ ~1e−7 scale error.
        let n = 1 << 11;
        let soi = SoiFftLocal::new(n, 16, Rational::new(2, 1), 16).unwrap();
        let x = signal(n);
        let err = rel_l2(&soi.forward(&x), &reference_fft(&x));
        assert!(err < 1e-5, "err={err:.3e}");
    }

    #[test]
    fn paper_mu_eight_sevenths() {
        // The evaluation's µ = 8/7 with a width-72 window on N = 7·2^9·8.
        let l = 8;
        let m = 7 * (1 << 9);
        let n = l * m;
        let soi = SoiFftLocal::new(n, l, Rational::new(8, 7), 72).unwrap();
        let x = signal(n);
        let err = rel_l2(&soi.forward(&x), &reference_fft(&x));
        // Our Gaussian-sinc design reaches ~1e−5 at these parameters
        // (DESIGN.md §2); the paper's custom windows do better in absolute
        // terms but the algorithmic structure is identical.
        assert!(err < 1e-4, "err={err:.3e}");
    }

    #[test]
    fn mu_five_fourths_is_much_more_accurate() {
        let l = 8;
        let m = 4 * (1 << 7);
        let n = l * m; // 4096
        let soi = SoiFftLocal::new(n, l, Rational::new(5, 4), 72).unwrap();
        let x = signal(n);
        let err = rel_l2(&soi.forward(&x), &reference_fft(&x));
        assert!(err < 1e-8, "err={err:.3e}");
    }

    #[test]
    fn impulse_and_tone_inputs() {
        let n = 1 << 10;
        let soi = SoiFftLocal::new(n, 8, Rational::new(2, 1), 24).unwrap();
        // Impulse → flat spectrum.
        let mut x = vec![c64::ZERO; n];
        x[17] = c64::ONE;
        let got = soi.forward(&x);
        let want = reference_fft(&x);
        assert!(rel_linf(&got, &want) < 1e-8);
        // Pure tone → single bin (tests segment boundaries: bin in the
        // middle of segment 5).
        let k = 5 * (n / 8) + n / 16;
        let x: Vec<c64> = (0..n)
            .map(|i| c64::root_of_unity(n, -((i * k) as i64)))
            .collect();
        let got = soi.forward(&x);
        assert!(
            (got[k].re - n as f64).abs() < 1e-5 * n as f64,
            "{:?}",
            got[k]
        );
        let off_energy: f64 = got
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != k)
            .map(|(_, v)| v.norm_sqr())
            .sum();
        assert!(off_energy.sqrt() < 1e-5 * n as f64, "{off_energy}");
    }

    #[test]
    fn strategies_give_same_transform() {
        let n = 1 << 10;
        let x = signal(n);
        let base = SoiFftLocal::new(n, 8, Rational::new(2, 1), 16)
            .unwrap()
            .forward(&x);
        for strategy in ConvStrategy::ALL {
            let soi = SoiFftLocal::new(n, 8, Rational::new(2, 1), 16)
                .unwrap()
                .with_strategy(strategy);
            let got = soi.forward(&x);
            assert!(rel_linf(&got, &base) < 1e-12, "{strategy:?}");
        }
    }

    #[test]
    fn pool_does_not_change_results() {
        let n = 1 << 10;
        let x = signal(n);
        let serial = SoiFftLocal::new(n, 8, Rational::new(2, 1), 16)
            .unwrap()
            .forward(&x);
        let parallel = SoiFftLocal::new(n, 8, Rational::new(2, 1), 16)
            .unwrap()
            .with_pool(Pool::new(3))
            .forward(&x);
        assert!(rel_linf(&parallel, &serial) < 1e-13);
    }

    #[test]
    fn prolate_window_recovers_mkl_class_accuracy_at_paper_params() {
        // µ = 8/7, B = 72 (the paper's evaluation setting): the Gaussian
        // design reaches ~1e−5 relative error, the prolate (optimal
        // concentration) design should be ~1e−9 or better — comparable to
        // what the paper reports for its custom windows.
        let l = 8;
        let m = 7 * (1 << 9);
        let n = l * m;
        let params = SoiParams {
            n,
            procs: 1,
            segments_per_proc: l,
            mu: Rational::new(8, 7),
            conv_width: 72,
        };
        let x = signal(n);
        let want = reference_fft(&x);
        let gauss = SoiFftLocal::from_params(params, WindowKind::GaussianSinc)
            .unwrap()
            .forward(&x);
        let prolate = SoiFftLocal::from_params(params, WindowKind::ProlateSinc)
            .unwrap()
            .forward(&x);
        let e_gauss = rel_l2(&gauss, &want);
        let e_prolate = rel_l2(&prolate, &want);
        assert!(
            e_prolate < e_gauss / 100.0,
            "prolate {e_prolate:.3e} vs gaussian {e_gauss:.3e}"
        );
        assert!(e_prolate < 1e-8, "prolate end-to-end error {e_prolate:.3e}");
    }

    #[test]
    fn kaiser_window_works_end_to_end() {
        let n = 1 << 10;
        let params = SoiParams {
            n,
            procs: 1,
            segments_per_proc: 8,
            mu: Rational::new(2, 1),
            conv_width: 20,
        };
        let soi = SoiFftLocal::from_params(params, WindowKind::KaiserSinc).unwrap();
        let x = signal(n);
        let err = rel_l2(&soi.forward(&x), &reference_fft(&x));
        assert!(err < 1e-6, "err={err:.3e}");
    }

    #[test]
    fn forward_segments_matches_full_transform() {
        let n = 1 << 10;
        let soi = SoiFftLocal::new(n, 8, Rational::new(2, 1), 20).unwrap();
        let x = signal(n);
        let full = soi.forward(&x);
        let m = n / 8;
        for wanted in [vec![0usize], vec![3, 5], vec![7, 0, 4], (0..8).collect()] {
            let partial = soi.forward_segments(&x, &wanted);
            let ids: Vec<usize> = partial.iter().map(|&(s, _)| s).collect();
            assert_eq!(ids, wanted, "request order");
            for (s, bins) in &partial {
                assert_eq!(bins.len(), m);
                assert!(
                    rel_linf(bins, &full[s * m..(s + 1) * m]) < 1e-12,
                    "segment {s}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn forward_segments_rejects_bad_ids() {
        let n = 1 << 10;
        let soi = SoiFftLocal::new(n, 8, Rational::new(2, 1), 16).unwrap();
        let x = signal(n);
        soi.forward_segments(&x, &[8]);
    }

    #[test]
    fn inverse_round_trips_through_forward() {
        let n = 1 << 10;
        let soi = SoiFftLocal::new(n, 8, Rational::new(2, 1), 24).unwrap();
        let x = signal(n);
        let y = soi.forward(&x);
        let back = soi.inverse(&y);
        let err = rel_l2(&back, &x);
        assert!(err < 1e-8, "round trip err={err:.3e}");
        // And inverse alone matches the reference inverse DFT.
        let mut want = x.clone();
        let plan = Plan::new(n);
        plan.inverse(&mut want);
        let got = soi.inverse(&x);
        assert!(rel_l2(&got, &want) < 1e-8);
    }

    #[test]
    fn invalid_params_are_rejected() {
        // L does not divide N.
        assert!(SoiFftLocal::new(1000, 7, Rational::new(2, 1), 8).is_err());
        // µ ≤ 1.
        assert!(SoiFftLocal::new(1024, 8, Rational::new(1, 1), 8).is_err());
    }

    #[test]
    fn accessors() {
        let soi = SoiFftLocal::new(1 << 10, 8, Rational::new(2, 1), 16).unwrap();
        assert_eq!(soi.params().n, 1 << 10);
        assert_eq!(soi.window().segments(), 8);
    }
}
