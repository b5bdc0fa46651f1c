//! A-priori accuracy estimation for an SOI plan.
//!
//! From the exact alias expansion (see [`crate::window`]), the relative
//! error of bin `sM + l` is bounded by
//!
//! ```text
//! Σ_{r≠0} |ŵ(µr/L − l/N)| / |ŵ(−l/N)|
//! ```
//!
//! times a signal-dependent factor of order 1 (it is exactly 1 for a flat
//! spectrum). [`alias_bound`] evaluates this with the window's numeric
//! spectrum on a sample grid of `l`; tests and the accuracy bench check
//! measured transform errors against it.

use crate::params::SoiParams;
use crate::window::Window;
use soifft_num::c64;

/// Signal-to-noise ratio of `got` against the oracle `want`, in decibels:
/// `10·log₁₀(Σ|want|² / Σ|got − want|²)`.
///
/// The metric the mixed-precision accuracy gates are written in (see
/// `tests/snr_accuracy.rs` and DESIGN.md §1j): an exact match returns
/// `f64::INFINITY`; a double-precision SOI run lands above ~250 dB, a
/// [`crate::Precision::Split`] run above ~130 dB, and a
/// [`crate::Precision::F32`] run above ~100 dB on well-conditioned
/// parameters.
///
/// # Panics
/// Panics if the lengths differ or `want` has zero energy.
pub fn snr_db(got: &[c64], want: &[c64]) -> f64 {
    assert_eq!(got.len(), want.len(), "length mismatch");
    let signal: f64 = want.iter().map(|v| v.norm_sqr()).sum();
    assert!(signal > 0.0, "oracle has zero energy; SNR undefined");
    let noise: f64 = got
        .iter()
        .zip(want)
        .map(|(g, w)| (*g - *w).norm_sqr())
        .sum();
    if noise == 0.0 {
        return f64::INFINITY;
    }
    10.0 * (signal / noise).log10()
}

/// Estimated worst-case relative leakage of the plan: the alias-to-passband
/// ratio maximized over a grid of `samples` output positions, summing alias
/// orders `|r| ≤ r_max` (2 is plenty; higher orders are negligible).
pub fn alias_bound(window: &Window, params: &SoiParams, samples: usize, r_max: i32) -> f64 {
    assert!(samples >= 1 && r_max >= 1);
    let l_total = params.total_segments() as f64;
    let mu = params.mu.as_f64();
    let n = params.n as f64;
    let m = params.m();
    let mut worst: f64 = 0.0;
    for i in 0..samples {
        // Spread sample points over [0, M), always including both edges.
        let l = if samples == 1 {
            0
        } else {
            (i * (m - 1)) / (samples - 1)
        };
        let f_pass = -(l as f64) / n;
        let pass = window.spectrum_numeric(f_pass).abs();
        let mut leak = 0.0;
        for r in 1..=r_max {
            for sign in [-1.0, 1.0] {
                let f = sign * mu * r as f64 / l_total + f_pass;
                leak += window.spectrum_numeric(f).abs();
            }
        }
        worst = worst.max(leak / pass);
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Rational, SoiParams};
    use crate::single::SoiFftLocal;
    use crate::window::WindowKind;
    use soifft_fft::Plan;
    use soifft_num::c64;
    use soifft_num::error::rel_l2;

    fn params(b: usize) -> SoiParams {
        SoiParams {
            n: 1 << 10,
            procs: 1,
            segments_per_proc: 8,
            mu: Rational::new(2, 1),
            conv_width: b,
        }
    }

    #[test]
    fn bound_shrinks_with_wider_windows() {
        let bounds: Vec<f64> = [8, 12, 16, 24]
            .into_iter()
            .map(|b| {
                let p = params(b);
                let w = Window::new(WindowKind::GaussianSinc, &p);
                alias_bound(&w, &p, 9, 2)
            })
            .collect();
        for pair in bounds.windows(2) {
            assert!(pair[1] < pair[0] * 0.5, "bound did not shrink: {bounds:?}");
        }
        assert!(bounds[3] < 1e-7, "{bounds:?}");
    }

    #[test]
    fn measured_error_is_within_an_order_of_the_bound() {
        for b in [12, 16, 20] {
            let p = params(b);
            let w = Window::new(WindowKind::GaussianSinc, &p);
            let bound = alias_bound(&w, &p, 9, 2);

            let soi = SoiFftLocal::from_params(p, WindowKind::GaussianSinc).unwrap();
            let x: Vec<c64> = (0..p.n)
                .map(|i| c64::new((0.21 * i as f64).sin(), (0.13 * i as f64).cos()))
                .collect();
            let got = soi.forward(&x);
            let plan = Plan::new(p.n);
            let mut want = x.clone();
            plan.forward(&mut want);
            let measured = rel_l2(&got, &want);
            assert!(
                measured < bound * 30.0 + 1e-13,
                "B={b}: measured {measured:.3e} vs bound {bound:.3e}"
            );
        }
    }

    #[test]
    fn single_sample_grid_works() {
        let p = params(16);
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let b1 = alias_bound(&w, &p, 1, 1);
        assert!(b1.is_finite() && b1 > 0.0);
    }
}
