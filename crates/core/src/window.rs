//! SOI window design: the convolution kernel `w` and its spectrum.
//!
//! The whole accuracy story of SOI lives here. The algebra (see the crate
//! docs and DESIGN.md §2) shows the pipeline computes, exactly,
//!
//! ```text
//! ζ_s[l] = (1/σ)·Σ_r  ŵ(µr/L − l/N) · y[(sM + l − rM') mod N],   σ = L/µ
//! ```
//!
//! so the transform is recovered from the `r = 0` term by dividing by
//! `(1/σ)·ŵ(−l/N)` (demodulation `W⁻¹`), and the `r ≠ 0` terms — leakage
//! from the other segments, attenuated by the window's stopband — are the
//! algorithm's error. A good `w` therefore needs:
//!
//! * passband: `|ŵ|` ≈ flat (well away from 0) on `[−1/L, 0]` so
//!   demodulation is well-conditioned,
//! * stopband: `|ŵ|` ≈ 0 at every alias offset `±µr/L` from the passband —
//!   the guard band bought by oversampling is `(µ−1)/L` wide on each side,
//! * compact support: `w` must fit in `(B − d_µ)·L` samples so that every
//!   modulated copy `w(i − jσ)`, `j < n_µ`, stays inside the `B·L`-sample
//!   read window of one convolution chunk.
//!
//! The default design is a **modulated Gaussian-tapered sinc**: the ideal
//! band-pass (sinc) gives the flat passband, the Gaussian taper gives
//! `exp(−π·T_h·Δ)`-deep stopbands with the truncation and transition errors
//! balanced (`T_h` = half-support, `Δ` = transition width). Its spectrum
//! has the closed form `½[erf(α(ν+f_c)) − erf(α(ν−f_c))]`, so demodulation
//! constants cost `O(M)` — no large-transform precomputation. A
//! Kaiser-tapered variant (slightly better attenuation per unit
//! time-bandwidth, no closed-form spectrum) is selectable; its demodulation
//! constants are computed numerically, which is also available for the
//! Gaussian as a cross-check.

use std::f64::consts::PI;

use soifft_num::c64;
use soifft_num::simd::CONV_PANEL;
use soifft_num::special::{bessel_i0, erf, sinc};

use crate::params::{SoiError, SoiParams};

/// Taper family for the modulated-sinc window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WindowKind {
    /// Gaussian taper; spectrum in closed form (erf), `O(M)` demodulation
    /// setup. The default.
    GaussianSinc,
    /// Kaiser (I₀) taper; marginally better stopband for the same support,
    /// demodulation constants computed by numerical transform of the taps
    /// (`L` length-`M` FFTs at setup).
    KaiserSinc,
    /// Discrete-prolate (Slepian/DPSS) taper — the *optimal* concentration
    /// for the time-bandwidth budget, several orders of magnitude deeper
    /// stopbands than Gaussian/Kaiser at the paper's `(B, µ)` design
    /// points. The SC'12 SOI framework paper's specially-designed windows
    /// play this role; see DESIGN.md §6.4. Demodulation is numeric.
    ProlateSinc,
}

/// How the demodulation constants `ŵ(−l/N)` are obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemodMode {
    /// Closed-form spectrum (Gaussian taper only).
    Analytic,
    /// Numerical transform of the actual taps (any taper), as `L`
    /// length-`M` FFTs; uses the truncated window's true spectrum, so it
    /// is the more exact choice when that setup work is affordable.
    Numeric,
    /// `Numeric` when `M·B·L ≤ 2³⁰`, else `Analytic`.
    Auto,
}

/// Fraction of the `(µ−1)/L` guard band spent widening the flat passband
/// (the rest is transition width). Tuned empirically: smaller sharpens the
/// passband edge conditioning, larger deepens the stopband.
const PASSBAND_MARGIN: f64 = 0.25;

/// A fully built SOI window: the convolution kernel's tap tables plus the
/// demodulation diagonal.
///
/// `w(t) = cis(2πf₀τ)·env(τ)` with `env` real and `f₀ = −1/(2L)`, so a
/// tap's phase advances by exactly `π` per `L` samples and every tap
/// factors as
///
/// ```text
/// w(bL + p − jσ) = (−1)^b · φ(j,p) · env(bL + p − jσ)
/// ```
///
/// with one unit phase `φ` per output column `p` and modulation index
/// `j`. The convolution therefore accumulates real × complex products and
/// applies `φ` once per output; only the real, sign-folded envelope and
/// the `φ` table are stored.
#[derive(Clone, Debug)]
pub struct Window {
    kind: WindowKind,
    l: usize,
    b: usize,
    n_mu: usize,
    d_mu: usize,
    /// Window support `[0, t_support]` in samples, `(B − d_µ)·L`.
    t_support: f64,
    /// Modulation centre frequency `f₀ = −1/(2L)`.
    f0: f64,
    /// Passband half-width `f_c`.
    fc: f64,
    /// Gaussian σ_t (GaussianSinc) — also used to pick Kaiser β.
    sigma_t: f64,
    /// Kaiser β (KaiserSinc only).
    beta: f64,
    /// DPSS taper samples on the grid `t = g/n_µ`, `g ∈ [0, n_µ·T]`
    /// (ProlateSinc only) — every tap argument `i − jσ` lands exactly on
    /// this grid.
    prolate_grid: Option<Vec<f64>>,
    /// Real taps `(−1)^b·env(bL + p − jσ)` in the order
    /// [`soifft_num::simd::conv_panel_c64`] reads them: `[panel][b][j]`
    /// then the panel's `CONV_PANEL` columns, each value twice (the `re`
    /// and `im` lanes it multiplies). Columns past `L` in the last panel
    /// are zero.
    env: Vec<f64>,
    /// Unit phases `φ(j,p)`, `[panel][j][column]`.
    phi: Vec<c64>,
    /// `demod[l] = σ / ŵ(−l/N)` for `l < M`.
    demod: Vec<c64>,
}

impl Window {
    /// Builds the window for `params` with [`DemodMode::Auto`].
    pub fn new(kind: WindowKind, params: &SoiParams) -> Self {
        Self::with_demod_mode(kind, params, DemodMode::Auto)
    }

    /// Builds the window with an explicit demodulation strategy.
    ///
    /// # Panics
    /// Panics if `DemodMode::Analytic` is requested for a Kaiser window
    /// (no closed-form spectrum), or if `params` are invalid. Use
    /// [`Window::try_with_demod_mode`] when the parameters come from
    /// untrusted input and a typed [`SoiError`] is wanted instead.
    pub fn with_demod_mode(kind: WindowKind, params: &SoiParams, mode: DemodMode) -> Self {
        match Self::try_with_demod_mode(kind, params, mode) {
            Ok(w) => w,
            Err(e) => panic!("invalid SOI parameters: {e}"),
        }
    }

    /// Fallible twin of [`Window::with_demod_mode`]: invalid parameters
    /// surface as the typed [`SoiError`] from
    /// [`SoiParams::validate`](crate::params::SoiParams::validate) instead
    /// of a panic. The `Analytic`-for-a-non-Gaussian-taper combination
    /// still asserts — that is a caller bug (the mode is a compile-time
    /// choice), not bad input data.
    pub fn try_with_demod_mode(
        kind: WindowKind,
        params: &SoiParams,
        mode: DemodMode,
    ) -> Result<Self, SoiError> {
        params.validate()?;
        let l = params.total_segments();
        let b = params.conv_width;
        let n_mu = params.mu.num();
        let d_mu = params.mu.den();
        let m = params.m();
        let n = params.n;
        let mu = params.mu.as_f64();

        // Geometry: support, modulation, passband, taper.
        let t_support = ((b - d_mu) * l) as f64;
        let t_half = t_support / 2.0;
        let f0 = -1.0 / (2.0 * l as f64);
        let guard = (mu - 1.0) / l as f64;
        let fc = 1.0 / (2.0 * l as f64) + PASSBAND_MARGIN * guard;
        let transition = (1.0 - PASSBAND_MARGIN) * guard;
        // Balanced Gaussian: truncation depth == stopband depth
        // (exponent π·T_h·Δ each; see module docs).
        let sigma_t = (t_half / (2.0 * PI * transition)).sqrt();
        // Kaiser β from the standard attenuation fit for the same
        // time-bandwidth product.
        let atten_db = 2.285 * 2.0 * PI * transition * t_support + 8.0;
        let beta = if atten_db > 50.0 {
            0.1102 * (atten_db - 8.7)
        } else if atten_db >= 21.0 {
            0.5842 * (atten_db - 21.0).powf(0.4) + 0.078_86 * (atten_db - 21.0)
        } else {
            0.0
        };

        // DPSS taper, sampled on the 1/n_µ grid every tap argument uses.
        // The upsampled sequence of length `n_µ·T + 1` at half-bandwidth
        // `W_t/n_µ` approximates the continuous prolate with bandwidth
        // `W_t = transition` (the time-bandwidth budget goes entirely to
        // the transition, which is what makes prolate windows win).
        let prolate_grid = if kind == WindowKind::ProlateSinc {
            let grid_len = n_mu * (t_support as usize) + 1;
            let w_up = (transition / n_mu as f64).min(0.49);
            let mut taper = soifft_num::dpss::dpss0(grid_len, w_up);
            let peak = taper.iter().cloned().fold(0.0f64, f64::max);
            for v in taper.iter_mut() {
                *v /= peak;
            }
            Some(taper)
        } else {
            None
        };

        let mut w = Window {
            kind,
            l,
            b,
            n_mu,
            d_mu,
            t_support,
            f0,
            fc,
            sigma_t,
            beta,
            prolate_grid,
            env: Vec::new(),
            phi: Vec::new(),
            demod: Vec::new(),
        };

        // Tap tables in panel order.
        let panels = l.div_ceil(CONV_PANEL);
        let hop = w.hop();
        let mut env = vec![0.0; panels * b * n_mu * 2 * CONV_PANEL];
        let mut phi = vec![c64::ZERO; panels * n_mu * CONV_PANEL];
        for p in 0..l {
            let (panel, q) = (p / CONV_PANEL, p % CONV_PANEL);
            for j in 0..n_mu {
                let shift = j as f64 * hop;
                phi[(panel * n_mu + j) * CONV_PANEL + q] = w.phase(p as f64 - shift);
                for bb in 0..b {
                    let sign = if bb % 2 == 0 { 1.0 } else { -1.0 };
                    let e = sign * w.envelope((bb * l + p) as f64 - shift);
                    let at = ((panel * b + bb) * n_mu + j) * 2 * CONV_PANEL + 2 * q;
                    env[at] = e;
                    env[at + 1] = e;
                }
            }
        }
        w.env = env;
        w.phi = phi;

        // Demodulation diagonal `σ / ŵ(−l/N)`.
        let has_closed_form = kind == WindowKind::GaussianSinc;
        let numeric = match mode {
            DemodMode::Numeric => true,
            DemodMode::Analytic => {
                assert!(
                    has_closed_form,
                    "only Gaussian windows have a closed-form spectrum (no closed-form \
                     spectrum for Kaiser/prolate); use Numeric/Auto"
                );
                false
            }
            DemodMode::Auto => !has_closed_form || (m as u128) * ((b * l) as u128) <= 1u128 << 30,
        };
        let spectrum = if numeric {
            w.passband_spectrum_numeric(m)
        } else {
            (0..m)
                .map(|ll| w.spectrum_analytic(-(ll as f64) / n as f64))
                .collect()
        };
        w.demod = spectrum
            .into_iter()
            .map(|what| c64::real(hop) / what)
            .collect();
        Ok(w)
    }

    /// The hop `σ = d_µ·L/n_µ` between consecutive modulation indices.
    fn hop(&self) -> f64 {
        (self.d_mu * self.l) as f64 / self.n_mu as f64
    }

    /// `ŵ(−l/N)` for `l < M` from the actual taps. With `t = Lq + r` and
    /// `N = ML`,
    ///
    /// ```text
    /// ŵ(−l/N) = Σ_{r<L} e^{2πi·lr/N} · Σ_{q<B} w(Lq + r)·e^{2πi·lq/M}
    /// ```
    ///
    /// — `L` unnormalized inverse DFTs of length `M` (each a forward
    /// transform of the conjugate), combined by Horner's rule in the
    /// twiddle `e^{2πi·l/N}`: `O(N log M)` instead of the `M·B·L` of
    /// summing every bin directly.
    fn passband_spectrum_numeric(&self, m: usize) -> Vec<c64> {
        let plan = soifft_fft::shared_plan(m);
        let mut scratch = plan.make_scratch();
        let n = (m * self.l) as f64;
        let twiddle: Vec<c64> = (0..m)
            .map(|ll| c64::cis(2.0 * PI * ll as f64 / n))
            .collect();
        let mut acc = vec![c64::ZERO; m];
        let mut g = vec![c64::ZERO; m];
        for r in (0..self.l).rev() {
            g.fill(c64::ZERO);
            for q in 0..self.b {
                g[q % m] += self.eval_time((q * self.l + r) as f64).conj();
            }
            plan.forward_with_scratch(&mut g, &mut scratch);
            for ((a, &tw), gv) in acc.iter_mut().zip(&twiddle).zip(&g) {
                *a = *a * tw + gv.conj();
            }
        }
        acc
    }

    /// Evaluates the continuous window at (possibly fractional) sample
    /// position `t`; zero outside `[0, t_support]`.
    pub fn eval_time(&self, t: f64) -> c64 {
        if !(0.0..=self.t_support).contains(&t) {
            return c64::ZERO;
        }
        self.phase(t) * self.envelope(t)
    }

    /// The real envelope `env` at sample position `t` (band-pass sinc ×
    /// taper); zero outside `[0, t_support]`.
    fn envelope(&self, t: f64) -> f64 {
        if !(0.0..=self.t_support).contains(&t) {
            return 0.0;
        }
        let tau = t - self.t_support / 2.0;
        2.0 * self.fc * sinc(2.0 * self.fc * tau) * self.taper(tau)
    }

    /// The modulation `cis(2πf₀τ) = cis(−πτ/L)` at sample position `t`
    /// (any `t`). `τ` is reduced modulo the period `2L` first — exactly,
    /// in floating point — so the angle's rounding error does not grow
    /// with `|τ|` and `phase(t + L) = −phase(t)` holds to an ulp.
    fn phase(&self, t: f64) -> c64 {
        let tau = t - self.t_support / 2.0;
        let period = 2.0 * self.l as f64;
        let r = tau - period * (tau / period).round();
        c64::cis(-PI * (r / self.l as f64))
    }

    fn taper(&self, tau: f64) -> f64 {
        let t_half = self.t_support / 2.0;
        match self.kind {
            WindowKind::GaussianSinc => (-tau * tau / (2.0 * self.sigma_t * self.sigma_t)).exp(),
            WindowKind::KaiserSinc => {
                let x = 1.0 - (tau / t_half) * (tau / t_half);
                if x <= 0.0 {
                    0.0
                } else {
                    bessel_i0(self.beta * x.sqrt()) / bessel_i0(self.beta)
                }
            }
            WindowKind::ProlateSinc => {
                let grid = self.prolate_grid.as_ref().expect("built in constructor");
                // Grid position: every tap argument is an exact multiple of
                // 1/n_µ; linear interpolation keeps eval_time total for
                // arbitrary arguments.
                let pos = (tau + t_half) * self.n_mu as f64;
                if pos <= 0.0 {
                    return grid[0];
                }
                let g = pos.floor() as usize;
                if g + 1 >= grid.len() {
                    return *grid.last().expect("non-empty");
                }
                let frac = pos - g as f64;
                grid[g] * (1.0 - frac) + grid[g + 1] * frac
            }
        }
    }

    /// Closed-form spectrum (Gaussian taper, untruncated):
    /// `ŵ(f) = e^{−2πi f t₀} · ½[erf(α(ν+f_c)) − erf(α(ν−f_c))]`,
    /// `ν = f − f₀`, `α = √2·π·σ_t`.
    pub fn spectrum_analytic(&self, f: f64) -> c64 {
        assert!(
            self.kind == WindowKind::GaussianSinc,
            "closed-form spectrum exists only for the Gaussian taper"
        );
        let nu = f - self.f0;
        let alpha = std::f64::consts::SQRT_2 * PI * self.sigma_t;
        let mag = 0.5 * (erf(alpha * (nu + self.fc)) - erf(alpha * (nu - self.fc)));
        let t0 = self.t_support / 2.0;
        c64::cis(-2.0 * PI * f * t0) * mag
    }

    /// Numerical spectrum of the actual (truncated, sampled) taps:
    /// `Σ_t w(t) e^{−2πi f t}` over the `j = 0` tap row.
    pub fn spectrum_numeric(&self, f: f64) -> c64 {
        let step = c64::cis(-2.0 * PI * f);
        let mut phase = c64::ONE;
        let mut acc = c64::ZERO;
        for i in 0..self.b * self.l {
            acc += self.eval_time(i as f64) * phase;
            phase *= step;
        }
        acc
    }

    /// The taps for modulation index `j` (`j < n_µ`), length `B·L`:
    /// `w(i − jσ)`, evaluated on demand (reference implementations and
    /// tests; the convolution reads [`Window::panel_taps`]).
    pub fn taps_row(&self, j: usize) -> Vec<c64> {
        assert!(j < self.n_mu, "modulation index out of range");
        let shift = j as f64 * self.hop();
        (0..self.b * self.l)
            .map(|i| self.eval_time(i as f64 - shift))
            .collect()
    }

    /// Number of `CONV_PANEL`-column panels covering the `L` columns.
    pub fn panels(&self) -> usize {
        self.l.div_ceil(CONV_PANEL)
    }

    /// The real taps of one panel, `[b][j][lane]` as
    /// [`soifft_num::simd::conv_panel_c64`] takes them:
    /// `(−1)^b·env(bL + p − jσ)` for the panel's columns `p`, each twice.
    pub fn panel_taps(&self, panel: usize) -> &[f64] {
        let stride = self.b * self.n_mu * 2 * CONV_PANEL;
        &self.env[panel * stride..(panel + 1) * stride]
    }

    /// The unit phases `φ(j,p)` of one panel, `[j][column]`.
    pub fn panel_phases(&self, panel: usize) -> &[c64] {
        let stride = self.n_mu * CONV_PANEL;
        &self.phi[panel * stride..(panel + 1) * stride]
    }

    /// The demodulation diagonal `D[l] = σ/ŵ(−l/N)`, length `M`.
    pub fn demod(&self) -> &[c64] {
        &self.demod
    }

    /// The taper family.
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// Number of distinct taps stored (`n_µ·B·L`, the paper's count).
    pub fn distinct_taps(&self) -> usize {
        self.n_mu * self.b * self.l
    }

    /// Passband half-width `f_c`.
    pub fn passband_halfwidth(&self) -> f64 {
        self.fc
    }

    /// Modulation centre `f₀ = −1/(2L)`.
    pub fn center_frequency(&self) -> f64 {
        self.f0
    }

    /// Segment count `L` this window was designed for.
    pub fn segments(&self) -> usize {
        self.l
    }

    /// Convolution width `B`.
    pub fn conv_width(&self) -> usize {
        self.b
    }

    /// `(n_µ, d_µ)`.
    pub fn mu_parts(&self) -> (usize, usize) {
        (self.n_mu, self.d_mu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Rational, SoiParams};

    /// Test parameters chosen so the window is *good*: accuracy scales as
    /// `exp(−π(B−d_µ)(1−ρ)(µ−1)/2)`, so small tests need a generous
    /// oversampling factor. µ = 2, B = 16 gives ≈ 2e−8 stopbands.
    fn params() -> SoiParams {
        SoiParams {
            n: 1 << 10,
            procs: 4,
            segments_per_proc: 2,
            mu: Rational::new(2, 1),
            conv_width: 16,
        }
    }

    #[test]
    fn taps_have_compact_support_within_read_window() {
        let w = Window::new(WindowKind::GaussianSinc, &params());
        let bl = w.conv_width() * w.segments();
        for j in 0..w.mu_parts().0 {
            let row = w.taps_row(j);
            assert_eq!(row.len(), bl);
            // Support [jσ, jσ + T] ⊂ [0, BL): endpoints outside are zero.
            let sigma = (w.mu_parts().1 * w.segments()) as f64 / w.mu_parts().0 as f64;
            let lo = (j as f64 * sigma).floor() as usize;
            for (i, v) in row.iter().enumerate() {
                if i + 1 < lo {
                    assert_eq!(v.abs(), 0.0, "j={j} i={i} below support");
                }
            }
        }
    }

    /// Worst `|(−1)^b·φ(j,p)·env − w(bL + p − jσ)| / |w|` over every tap
    /// the panel tables hold.
    fn worst_factorisation_error(kind: WindowKind, p: &SoiParams) -> f64 {
        p.validate().unwrap();
        let w = Window::new(kind, p);
        let (n_mu, _) = w.mu_parts();
        let (l, b) = (w.segments(), w.conv_width());
        let mut worst: f64 = 0.0;
        for j in 0..n_mu {
            let row = w.taps_row(j);
            for col in 0..l {
                let (panel, q) = (col / CONV_PANEL, col % CONV_PANEL);
                let phi = w.panel_phases(panel)[j * CONV_PANEL + q];
                assert!((phi.abs() - 1.0).abs() < 4.0 * f64::EPSILON);
                for bb in 0..b {
                    let at = (bb * n_mu + j) * 2 * CONV_PANEL + 2 * q;
                    let env = &w.panel_taps(panel)[at..at + 2];
                    assert_eq!(env[0], env[1], "lanes are duplicated");
                    let want = row[bb * l + col];
                    let err = (phi * env[0] - want).abs();
                    if want.abs() > 0.0 {
                        worst = worst.max(err / want.abs());
                    } else {
                        assert_eq!(err, 0.0, "j={j} p={col} b={bb}");
                    }
                }
            }
        }
        worst
    }

    #[test]
    fn panel_tables_factor_the_taps() {
        // µ = 5/4 with L = 20 (σ = 16) and µ = 8/7 with L = 16 (σ = 14):
        // every tap argument is exactly representable, so `eval_time` and
        // the factored form differ by their own roundings only.
        let exact = [
            SoiParams {
                n: 20 * 288,
                procs: 4,
                segments_per_proc: 5,
                mu: Rational::new(5, 4),
                conv_width: 72,
            },
            SoiParams {
                n: 16 * 224,
                procs: 2,
                segments_per_proc: 8,
                mu: Rational::new(8, 7),
                conv_width: 72,
            },
        ];
        // The ledger's design point: σ = 12.8 is not representable, so the
        // argument `bL + p − jσ` itself carries up to ulp(BL)/2 ≈ 1e-13 of
        // rounding that the `b = 0` phase does not see.
        let ledger = SoiParams {
            n: 1 << 14,
            procs: 2,
            segments_per_proc: 8,
            mu: Rational::new(5, 4),
            conv_width: 72,
        };
        for kind in [
            WindowKind::GaussianSinc,
            WindowKind::KaiserSinc,
            WindowKind::ProlateSinc,
        ] {
            for p in &exact {
                let err = worst_factorisation_error(kind, p);
                assert!(err <= 1e-15, "{kind:?} µ={:?}: {err:.3e}", p.mu);
            }
            let err = worst_factorisation_error(kind, &ledger);
            assert!(err <= 1e-13, "{kind:?} ledger point: {err:.3e}");
        }
    }

    #[test]
    fn last_panel_is_zero_padded() {
        // L = 6: one full panel and a 2-column tail.
        let p = SoiParams {
            n: 6 * 192,
            procs: 3,
            segments_per_proc: 2,
            mu: Rational::new(2, 1),
            conv_width: 12,
        };
        p.validate().unwrap();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        assert_eq!(w.panels(), 2);
        for lanes in w.panel_taps(1).chunks_exact(2 * CONV_PANEL) {
            assert!(lanes[4..].iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn analytic_and_numeric_spectra_agree_in_passband() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let l = w.segments();
        // Sample the passband and near transition.
        for k in 0..10 {
            let f = w.center_frequency() + (k as f64 - 5.0) / (10.0 * l as f64);
            let a = w.spectrum_analytic(f);
            let n = w.spectrum_numeric(f);
            assert!(
                (a - n).abs() < 1e-3 * (1.0 + n.abs()),
                "f={f}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn passband_is_flat_and_well_conditioned() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let n = p.n;
        let m = p.m();
        // |ŵ(−l/N)| must stay well away from zero across the passband.
        let mut min_mag = f64::INFINITY;
        let mut max_mag: f64 = 0.0;
        for l in (0..m).step_by(m / 50 + 1) {
            let mag = w.spectrum_numeric(-(l as f64) / n as f64).abs();
            min_mag = min_mag.min(mag);
            max_mag = max_mag.max(mag);
        }
        assert!(min_mag > 0.3 * max_mag, "min {min_mag} vs max {max_mag}");
    }

    #[test]
    fn stopband_is_deep_at_alias_offsets() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let l = p.total_segments();
        let mu = p.mu.as_f64();
        let pass = w.spectrum_numeric(w.center_frequency()).abs();
        for r in [1i32, -1, 2, -2] {
            // Worst case within the alias image of the passband.
            let mut worst: f64 = 0.0;
            for ll in 0..8 {
                let f = mu * r as f64 / l as f64 - (ll as f64 * p.m() as f64 / 8.0) / p.n as f64;
                worst = worst.max(w.spectrum_numeric(f).abs());
            }
            assert!(
                worst < 1e-4 * pass,
                "alias r={r}: leakage {worst:.3e} vs passband {pass:.3e}"
            );
        }
    }

    #[test]
    fn prolate_taps_lie_on_the_grid_exactly() {
        let p = params();
        let w = Window::new(WindowKind::ProlateSinc, &p);
        // Tap arguments i − jσ are multiples of 1/n_µ, so linear
        // interpolation in the taper never actually interpolates: the taps
        // must be symmetric like the underlying DPSS.
        let row = w.taps_row(0);
        let bl = w.conv_width() * w.segments();
        let t_support = ((w.conv_width() - w.mu_parts().1) * w.segments()) as f64;
        for i in 0..bl {
            let mirror = t_support - i as f64;
            if mirror >= 0.0 && mirror.fract() == 0.0 && (mirror as usize) < bl {
                let a = row[i].abs();
                let b = row[mirror as usize].abs();
                assert!((a - b).abs() < 1e-9 * (1.0 + a), "i={i}");
            }
        }
    }

    #[test]
    fn prolate_fractional_hop_grid_alignment() {
        // µ = 8/7 ⇒ σ = 7L/8: tap arguments i − jσ land on the 1/8 grid.
        // The j-th row must equal the j=0 row's continuous window shifted
        // by exactly jσ — check by comparing overlapping samples through
        // eval_time (which for ProlateSinc reads the shared 1/n_µ grid).
        let p = SoiParams {
            n: 7 * (1 << 7) * 8,
            procs: 1,
            segments_per_proc: 8,
            mu: Rational::new(8, 7),
            conv_width: 24,
        };
        p.validate().unwrap();
        let w = Window::new(WindowKind::ProlateSinc, &p);
        let l = p.total_segments();
        let sigma = 7.0 * l as f64 / 8.0;
        for j in [1usize, 3, 7] {
            let row = w.taps_row(j);
            for i in (0..p.conv_width * l).step_by(13) {
                let expect = w.eval_time(i as f64 - j as f64 * sigma);
                assert!(
                    (row[i] - expect).abs() < 1e-12,
                    "j={j} i={i}: {:?} vs {:?}",
                    row[i],
                    expect
                );
            }
        }
    }

    #[test]
    fn prolate_beats_gaussian_stopband_at_paper_params() {
        // µ = 8/7, B = 72 — the paper's evaluation design point, where the
        // Gaussian window is the weakest. The prolate taper must be at
        // least 100× better at the first alias.
        let p = SoiParams {
            n: 7 * (1 << 9) * 8,
            procs: 1,
            segments_per_proc: 8,
            mu: Rational::new(8, 7),
            conv_width: 72,
        };
        p.validate().unwrap();
        let l = p.total_segments();
        let mu = p.mu.as_f64();
        let leak = |kind: WindowKind| {
            let w = Window::new(kind, &p);
            let pass = w.spectrum_numeric(w.center_frequency()).abs();
            let mut worst: f64 = 0.0;
            for ll in 0..8 {
                let f = mu / l as f64 - (ll as f64 * p.m() as f64 / 8.0) / p.n as f64;
                worst = worst.max(w.spectrum_numeric(f).abs());
            }
            worst / pass
        };
        let gauss = leak(WindowKind::GaussianSinc);
        let prolate = leak(WindowKind::ProlateSinc);
        assert!(
            prolate < gauss / 100.0,
            "prolate {prolate:.3e} vs gaussian {gauss:.3e}"
        );
        assert!(prolate < 1e-9, "prolate leak {prolate:.3e}");
    }

    #[test]
    fn kaiser_window_also_has_deep_stopband() {
        let p = params();
        let w = Window::new(WindowKind::KaiserSinc, &p);
        let l = p.total_segments();
        let mu = p.mu.as_f64();
        let pass = w.spectrum_numeric(w.center_frequency()).abs();
        let alias = w.spectrum_numeric(mu / l as f64 - 0.5 / l as f64).abs();
        assert!(alias < 1e-4 * pass, "alias {alias:.3e} vs pass {pass:.3e}");
    }

    #[test]
    fn demod_matches_spectrum_inverse() {
        // The FFT-assembled diagonal against the bin-by-bin sum, at a
        // power-of-two `M` and at `M = 7·2⁵` (Kaiser: numeric demod only).
        let odd = SoiParams {
            n: 16 * 224,
            procs: 2,
            segments_per_proc: 8,
            mu: Rational::new(8, 7),
            conv_width: 24,
        };
        odd.validate().unwrap();
        for (kind, p) in [
            (WindowKind::GaussianSinc, params()),
            (WindowKind::KaiserSinc, odd),
        ] {
            let w = Window::with_demod_mode(kind, &p, DemodMode::Numeric);
            let sigma = p.total_segments() as f64 / p.mu.as_f64();
            let d = w.demod();
            assert_eq!(d.len(), p.m());
            for l in [0usize, 3, p.m() / 2, p.m() - 1] {
                let f = -(l as f64) / p.n as f64;
                let what = w.spectrum_numeric(f);
                let expect = c64::real(sigma) / what;
                assert!(
                    (d[l] - expect).abs() < 1e-9 * expect.abs(),
                    "{kind:?} l={l}: {:?} vs {:?}",
                    d[l],
                    expect
                );
            }
        }
    }

    #[test]
    fn demod_modes_agree_to_truncation_level() {
        let p = params();
        let a = Window::with_demod_mode(WindowKind::GaussianSinc, &p, DemodMode::Analytic);
        let n = Window::with_demod_mode(WindowKind::GaussianSinc, &p, DemodMode::Numeric);
        for l in (0..p.m()).step_by(97) {
            let rel = (a.demod()[l] - n.demod()[l]).abs() / n.demod()[l].abs();
            assert!(rel < 1e-3, "l={l}: rel {rel:.3e}");
        }
    }

    #[test]
    #[should_panic(expected = "no closed-form spectrum")]
    fn kaiser_analytic_demod_rejected() {
        let p = params();
        let _ = Window::with_demod_mode(WindowKind::KaiserSinc, &p, DemodMode::Analytic);
    }

    #[test]
    fn metadata() {
        let p = params();
        let w = Window::new(WindowKind::GaussianSinc, &p);
        assert_eq!(w.kind(), WindowKind::GaussianSinc);
        assert_eq!(w.distinct_taps(), 2 * 16 * 8);
        assert_eq!(w.segments(), 8);
        assert_eq!(w.conv_width(), 16);
        assert_eq!(w.mu_parts(), (2, 1));
        assert!(w.passband_halfwidth() > 0.0);
        assert!(w.center_frequency() < 0.0);
    }
}
