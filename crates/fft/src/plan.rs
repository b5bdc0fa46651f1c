//! FFT plans: the general node-local transform front-end.
//!
//! A [`Plan`] is built once for a given length and reused (plans own their
//! twiddle tables, so construction is `O(n)` trig and execution is
//! allocation-free when the caller supplies scratch). Plans are generic
//! over the precision parameter ([`soifft_num::Real`], default `f64`); the
//! butterfly constants are computed in `f64` and demoted once at
//! construction. Dispatch:
//!
//! * `n == 1` — identity,
//! * `n` smooth (largest prime factor ≤ [`MAX_RADIX`]) — recursive
//!   decimation-in-time Cooley–Tukey with specialized radix-2/3/4/5
//!   butterflies and a generic small-prime butterfly,
//! * anything else — Bluestein's chirp-z algorithm
//!   ([`crate::bluestein`]).
//!
//! The recursion reads the (conceptually strided) input depth-first and
//! writes contiguous output, which keeps each combine pass within the
//! subarray produced by its children — the cache-oblivious layout that the
//! 6-step algorithm then scales past LLC sizes.

use std::fmt;

use soifft_num::factor::factorize;
use soifft_num::{Complex, Real};

use crate::bluestein::BluesteinPlan;
use crate::twiddle::Twiddles;

/// Largest prime handled by the generic Cooley–Tukey butterfly; larger
/// prime factors route the whole transform to Bluestein.
pub const MAX_RADIX: usize = 31;

/// Error from fallible plan construction ([`Plan::try_new`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The requested transform length was zero; transforms need `n ≥ 1`.
    ZeroLength,
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::ZeroLength => write!(f, "transform length must be at least 1"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A reusable FFT plan for a fixed transform length.
///
/// # Example
///
/// ```
/// use soifft_fft::Plan;
/// use soifft_num::c64;
///
/// let plan = Plan::new(240); // 2^4·3·5 — mixed radix
/// let mut data = vec![c64::ZERO; 240];
/// data[1] = c64::ONE;
/// plan.forward(&mut data);
/// // The DFT of a shifted impulse is a complex exponential:
/// assert!((data[10] - c64::root_of_unity(240, 10)).abs() < 1e-12);
/// plan.inverse(&mut data);
/// assert!((data[1] - c64::ONE).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct Plan<T: Real = f64> {
    n: usize,
    kind: Kind<T>,
}

#[derive(Clone, Debug)]
enum Kind<T: Real> {
    Identity,
    CooleyTukey {
        factors: Vec<usize>,
        tw: Twiddles<T>,
    },
    Bluestein(Box<BluesteinPlan<T>>),
}

impl<T: Real> Plan<T> {
    /// Builds a plan for `n`-point transforms (`n ≥ 1`).
    ///
    /// # Panics
    /// Panics if `n == 0`; use [`Plan::try_new`] where a zero length can
    /// come from untrusted input.
    pub fn new(n: usize) -> Self {
        match Self::try_new(n) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible plan construction: returns a typed error for a zero
    /// length instead of panicking.
    pub fn try_new(n: usize) -> Result<Self, PlanError> {
        if n == 0 {
            return Err(PlanError::ZeroLength);
        }
        if n == 1 {
            return Ok(Plan {
                n,
                kind: Kind::Identity,
            });
        }
        let fac = factorize(n);
        if fac.iter().all(|&(p, _)| p <= MAX_RADIX) {
            // Radix schedule: fold the power-of-two part into radix-8
            // stages (the paper's §5.2.4 register-blocking choice: "we use
            // radix 8 and 16, case by case"), topping up with a 4 and/or a
            // 2; other primes appear with their multiplicity.
            let mut factors = Vec::new();
            for (p, mult) in fac {
                if p == 2 {
                    let mut e = mult;
                    while e >= 3 {
                        factors.push(8);
                        e -= 3;
                    }
                    if e == 2 {
                        factors.push(4);
                    } else if e == 1 {
                        factors.push(2);
                    }
                } else {
                    for _ in 0..mult {
                        factors.push(p);
                    }
                }
            }
            Ok(Plan {
                n,
                kind: Kind::CooleyTukey {
                    factors,
                    tw: Twiddles::new(n),
                },
            })
        } else {
            Ok(Plan {
                n,
                kind: Kind::Bluestein(Box::new(BluesteinPlan::new(n))),
            })
        }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True for the trivial length-1 plan.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True when this plan fell back to Bluestein (useful for tests and for
    /// planning reports).
    pub fn is_bluestein(&self) -> bool {
        matches!(self.kind, Kind::Bluestein(_))
    }

    /// Scratch length needed by [`Plan::forward_with_scratch`] /
    /// [`Plan::inverse_with_scratch`].
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            Kind::Identity => 0,
            Kind::CooleyTukey { .. } => self.n,
            Kind::Bluestein(b) => b.scratch_len(),
        }
    }

    /// Allocates a scratch buffer of the right size.
    pub fn make_scratch(&self) -> Vec<Complex<T>> {
        vec![Complex::<T>::ZERO; self.scratch_len()]
    }

    /// Forward transform, in place. Allocates scratch internally; hot loops
    /// should use [`Plan::forward_with_scratch`].
    pub fn forward(&self, data: &mut [Complex<T>]) {
        let mut scratch = self.make_scratch();
        self.forward_with_scratch(data, &mut scratch);
    }

    /// Forward transform, in place, with caller-provided scratch
    /// (`scratch.len() >= self.scratch_len()`).
    pub fn forward_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        assert_eq!(data.len(), self.n, "data length != plan length");
        match &self.kind {
            Kind::Identity => {}
            Kind::CooleyTukey { factors, tw } => {
                let (src, _) = scratch.split_at_mut(self.n);
                src.copy_from_slice(data);
                ct_recursive(src, 0, 1, data, self.n, factors, tw, self.n);
            }
            Kind::Bluestein(b) => b.forward(data, scratch),
        }
    }

    /// Inverse transform, in place, normalized by `1/n` so that
    /// `inverse(forward(x)) == x`.
    pub fn inverse(&self, data: &mut [Complex<T>]) {
        let mut scratch = self.make_scratch();
        self.inverse_with_scratch(data, &mut scratch);
    }

    /// Inverse transform with caller-provided scratch.
    ///
    /// Implemented by conjugation around the forward kernel
    /// (`ifft(x) = conj(fft(conj(x)))/n`), so every fast path is exercised
    /// by both directions.
    pub fn inverse_with_scratch(&self, data: &mut [Complex<T>], scratch: &mut [Complex<T>]) {
        for z in data.iter_mut() {
            *z = z.conj();
        }
        self.forward_with_scratch(data, scratch);
        let inv_n = T::from_f64(1.0 / self.n as f64);
        for z in data.iter_mut() {
            *z = z.conj().scale(inv_n);
        }
    }
}

/// Recursive decimation-in-time step: computes the `n`-point DFT of the
/// virtual sequence `src[src_off + i·stride]` into `dst[0..n]`.
///
/// `factors` is the radix schedule for this level downward; `tw` is the
/// shared full-size table for `big_n` (the root length), indexed with
/// stride `big_n / n` at this level.
#[allow(clippy::too_many_arguments)]
fn ct_recursive<T: Real>(
    src: &[Complex<T>],
    src_off: usize,
    stride: usize,
    dst: &mut [Complex<T>],
    n: usize,
    factors: &[usize],
    tw: &Twiddles<T>,
    big_n: usize,
) {
    if n == 1 {
        dst[0] = src[src_off];
        return;
    }
    // Unrolled leaves (§5.2.4 "we unroll the leaf of the FFT recursion"):
    // computing the 2- and 4-point DFTs directly from the strided input
    // skips two levels of call overhead per leaf.
    if n == 2 {
        let a = src[src_off];
        let b = src[src_off + stride];
        dst[0] = a + b;
        dst[1] = a - b;
        return;
    }
    if n == 4 {
        let a = src[src_off];
        let b = src[src_off + stride];
        let c = src[src_off + 2 * stride];
        let d = src[src_off + 3 * stride];
        let s0 = a + c;
        let s1 = a - c;
        let s2 = b + d;
        let s3 = (b - d).mul_neg_i();
        dst[0] = s0 + s2;
        dst[1] = s1 + s3;
        dst[2] = s0 - s2;
        dst[3] = s1 - s3;
        return;
    }
    let r = factors[0];
    let m = n / r;
    debug_assert_eq!(r * m, n, "factor schedule does not divide n");

    // Children: r interleaved sub-sequences, each of length m.
    for j in 0..r {
        ct_recursive(
            src,
            src_off + j * stride,
            stride * r,
            &mut dst[j * m..(j + 1) * m],
            m,
            &factors[1..],
            tw,
            big_n,
        );
    }

    // Combine: for every k, gather the r children's k-th outputs, apply
    // level twiddles w_n^{jk}, and run an r-point DFT across them.
    let tw_stride = big_n / n;
    match r {
        2 => combine_radix2(dst, m, tw, tw_stride),
        3 => combine_radix3(dst, m, tw, tw_stride),
        4 => combine_radix4(dst, m, tw, tw_stride),
        5 => combine_radix5(dst, m, tw, tw_stride),
        8 => combine_radix8(dst, m, tw, tw_stride),
        _ => combine_generic(dst, r, m, tw, tw_stride, n),
    }
}

/// Radix-8 DIT butterfly, built from two radix-4 halves joined by
/// `w_8 = (1−i)/√2` rotations — 8 outputs per column with all constants in
/// registers (the unrolled-leaf / register-blocking style of §5.2.4).
#[inline]
fn combine_radix8<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &Twiddles<T>, ts: usize) {
    let inv_sqrt2 = T::from_f64(std::f64::consts::FRAC_1_SQRT_2);
    let n_tw = tw.len();
    for k in 0..m {
        // Gather twiddled children.
        let mut a = [Complex::<T>::ZERO; 8];
        a[0] = dst[k];
        for (j, slot) in a.iter_mut().enumerate().skip(1) {
            *slot = tw.get(j * k * ts % n_tw) * dst[j * m + k];
        }
        // Even half: radix-4 over a0,a2,a4,a6.
        let e0 = a[0] + a[4];
        let e1 = a[0] - a[4];
        let e2 = a[2] + a[6];
        let e3 = (a[2] - a[6]).mul_neg_i();
        let x0 = e0 + e2;
        let x1 = e1 + e3;
        let x2 = e0 - e2;
        let x3 = e1 - e3;
        // Odd half: radix-4 over a1,a3,a5,a7.
        let o0 = a[1] + a[5];
        let o1 = a[1] - a[5];
        let o2 = a[3] + a[7];
        let o3 = (a[3] - a[7]).mul_neg_i();
        let y0 = o0 + o2;
        let y1 = o1 + o3;
        let y2 = o0 - o2;
        let y3 = o1 - o3;
        // Join with w8^l rotations: w8 = (1−i)/√2, w8² = −i, w8³ = −(1+i)/√2.
        let r1 = Complex::new((y1.re + y1.im) * inv_sqrt2, (y1.im - y1.re) * inv_sqrt2);
        let r2 = y2.mul_neg_i();
        let r3 = Complex::new((y3.im - y3.re) * inv_sqrt2, -(y3.re + y3.im) * inv_sqrt2);
        dst[k] = x0 + y0;
        dst[m + k] = x1 + r1;
        dst[2 * m + k] = x2 + r2;
        dst[3 * m + k] = x3 + r3;
        dst[4 * m + k] = x0 - y0;
        dst[5 * m + k] = x1 - r1;
        dst[6 * m + k] = x2 - r2;
        dst[7 * m + k] = x3 - r3;
    }
}

#[inline]
fn combine_radix2<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &Twiddles<T>, ts: usize) {
    let (e, o) = dst.split_at_mut(m);
    for k in 0..m {
        let t = tw.get(k * ts) * o[k];
        let a = e[k];
        e[k] = a + t;
        o[k] = a - t;
    }
}

#[inline]
fn combine_radix4<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &Twiddles<T>, ts: usize) {
    // Split into the four children's output rows.
    let (q01, q23) = dst.split_at_mut(2 * m);
    let (q0, q1) = q01.split_at_mut(m);
    let (q2, q3) = q23.split_at_mut(m);
    for k in 0..m {
        let a = q0[k];
        let b = tw.get(k * ts) * q1[k];
        let c = tw.get(2 * k * ts % tw.len()) * q2[k];
        let d = tw.get(3 * k * ts % tw.len()) * q3[k];
        // Radix-4 DIT butterfly (forward sign: w_4 = −i).
        let s0 = a + c;
        let s1 = a - c;
        let s2 = b + d;
        let s3 = (b - d).mul_neg_i();
        q0[k] = s0 + s2;
        q1[k] = s1 + s3;
        q2[k] = s0 - s2;
        q3[k] = s1 - s3;
    }
}

#[inline]
fn combine_radix3<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &Twiddles<T>, ts: usize) {
    // w_3 = e^{−2πi/3}: re = −1/2, im = −√3/2.
    let c_3 = T::from_f64(-0.5);
    let s_3 = T::from_f64(-0.866_025_403_784_438_6);
    let (q0, q12) = dst.split_at_mut(m);
    let (q1, q2) = q12.split_at_mut(m);
    for k in 0..m {
        let a = q0[k];
        let b = tw.get(k * ts) * q1[k];
        let c = tw.get(2 * k * ts % tw.len()) * q2[k];
        let sum = b + c;
        let diff = b - c;
        // X0 = a + b + c
        // X1 = a + w b + w² c = a + C·sum + i·S·diff
        // X2 = conj-pattern with −S.
        let re_part = a + sum * c_3;
        let im_part = Complex::new(-diff.im * s_3, diff.re * s_3);
        q0[k] = a + sum;
        q1[k] = re_part + im_part;
        q2[k] = re_part - im_part;
    }
}

#[inline]
fn combine_radix5<T: Real>(dst: &mut [Complex<T>], m: usize, tw: &Twiddles<T>, ts: usize) {
    // w_5^k constants (forward sign).
    let c1 = T::from_f64(0.309_016_994_374_947_45); // cos(2π/5)
    let s1 = T::from_f64(-0.951_056_516_295_153_5); // −sin(2π/5)
    let c2 = T::from_f64(-0.809_016_994_374_947_4); // cos(4π/5)
    let s2 = T::from_f64(-0.587_785_252_292_473_1); // −sin(4π/5)
    let n_tw = tw.len();
    let (q0, rest) = dst.split_at_mut(m);
    let (q1, rest) = rest.split_at_mut(m);
    let (q2, rest) = rest.split_at_mut(m);
    let (q3, q4) = rest.split_at_mut(m);
    for k in 0..m {
        let a0 = q0[k];
        let a1 = tw.get(k * ts) * q1[k];
        let a2 = tw.get(2 * k * ts % n_tw) * q2[k];
        let a3 = tw.get(3 * k * ts % n_tw) * q3[k];
        let a4 = tw.get(4 * k * ts % n_tw) * q4[k];
        let t1 = a1 + a4;
        let t2 = a2 + a3;
        let t3 = a1 - a4;
        let t4 = a2 - a3;
        q0[k] = a0 + t1 + t2;
        // X1 = a0 + C1·t1 + C2·t2 + i(S1·t3 + S2·t4), X4 its mirror.
        let r1 = a0 + t1 * c1 + t2 * c2;
        let i1 = Complex::new(-(t3.im * s1 + t4.im * s2), t3.re * s1 + t4.re * s2);
        // X2 = a0 + C2·t1 + C1·t2 + i(S2·t3 − S1·t4), X3 its mirror.
        let r2 = a0 + t1 * c2 + t2 * c1;
        let i2 = Complex::new(-(t3.im * s2 - t4.im * s1), t3.re * s2 - t4.re * s1);
        q1[k] = r1 + i1;
        q4[k] = r1 - i1;
        q2[k] = r2 + i2;
        q3[k] = r2 - i2;
    }
}

/// Generic small-prime butterfly: an explicit r-point DFT per output
/// column. O(r²) per column — acceptable for the r ≤ 31 primes this plan
/// admits.
fn combine_generic<T: Real>(
    dst: &mut [Complex<T>],
    r: usize,
    m: usize,
    tw: &Twiddles<T>,
    ts: usize,
    n: usize,
) {
    let n_tw = tw.len();
    let mut col_storage = [Complex::<T>::ZERO; MAX_RADIX + 1];
    let col = &mut col_storage[..r];
    for k in 0..m {
        for (j, c) in col.iter_mut().enumerate() {
            *c = tw.get(j * k * ts % n_tw) * dst[j * m + k];
        }
        for l in 0..r {
            // w_n^{(n/r)·jl} = w_r^{jl}; reuse the shared table.
            let mut acc = col[0];
            for (j, &c) in col.iter().enumerate().skip(1) {
                acc += tw.get(j * l * (n / r) * ts % n_tw) * c;
            }
            dst[l * m + k] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::{dft, idft};
    use soifft_num::c32;
    use soifft_num::c64;
    use soifft_num::error::rel_linf;

    fn signal(n: usize) -> Vec<c64> {
        (0..n)
            .map(|i| {
                let t = i as f64;
                c64::new((0.37 * t).sin() + 0.2, (0.11 * t).cos() - 0.05 * t.sqrt())
            })
            .collect()
    }

    fn check_forward(n: usize, tol: f64) {
        let x = signal(n);
        let plan = Plan::new(n);
        let mut got = x.clone();
        plan.forward(&mut got);
        let want = dft(&x);
        let err = rel_linf(&got, &want);
        assert!(err < tol, "n={n}: err={err:.3e}");
    }

    #[test]
    fn identity_plan() {
        let plan = Plan::new(1);
        let mut d = vec![c64::new(2.0, 3.0)];
        plan.forward(&mut d);
        assert_eq!(d[0], c64::new(2.0, 3.0));
        plan.inverse(&mut d);
        assert_eq!(d[0], c64::new(2.0, 3.0));
        assert_eq!(plan.scratch_len(), 0);
    }

    #[test]
    fn try_new_reports_zero_length() {
        assert_eq!(Plan::<f64>::try_new(0).unwrap_err(), PlanError::ZeroLength);
        assert!(Plan::<f64>::try_new(1).is_ok());
        assert_eq!(
            PlanError::ZeroLength.to_string(),
            "transform length must be at least 1"
        );
    }

    #[test]
    #[should_panic(expected = "transform length must be at least 1")]
    fn zero_length_panics() {
        let _ = Plan::<f64>::new(0);
    }

    #[test]
    fn powers_of_two_match_direct_dft() {
        for n in [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            check_forward(n, 1e-11);
        }
    }

    #[test]
    fn odd_radices_match_direct_dft() {
        for n in [3, 9, 27, 5, 25, 15, 45, 7, 21, 35, 11, 13, 33] {
            check_forward(n, 1e-11);
        }
    }

    #[test]
    fn mixed_sizes_match_direct_dft() {
        for n in [
            6,
            12,
            24,
            48,
            60,
            120,
            360,
            960,
            1000,
            1 << 10,
            3 * (1 << 8),
        ] {
            check_forward(n, 1e-11);
        }
    }

    #[test]
    fn f32_plan_tracks_f64_oracle() {
        // Single-precision transforms over the same dispatch paths: the
        // error floor scales with f32 epsilon, not with a broken butterfly.
        for n in [8usize, 12, 27, 48, 100, 256, 257, 1009] {
            let x = signal(n);
            let x32: Vec<c32> = x.iter().map(|&z| c32::from_c64(z)).collect();
            let plan32 = Plan::<f32>::new(n);
            let mut got32 = x32.clone();
            plan32.forward(&mut got32);
            let want = dft(&x);
            let got: Vec<c64> = got32.iter().map(|z| z.to_c64()).collect();
            let err = rel_linf(&got, &want);
            assert!(err < 1e-3, "n={n}: err={err:.3e}");
            // And round-trip.
            plan32.inverse(&mut got32);
            let back: Vec<c64> = got32.iter().map(|z| z.to_c64()).collect();
            let xq: Vec<c64> = x32.iter().map(|z| z.to_c64()).collect();
            assert!(rel_linf(&back, &xq) < 1e-4, "n={n}");
        }
    }

    #[test]
    fn prime_sizes_use_bluestein_and_match() {
        for n in [37, 101, 257, 1009] {
            let plan = Plan::<f64>::new(n);
            assert!(plan.is_bluestein(), "n={n} should be Bluestein");
            check_forward(n, 1e-10);
        }
        // 31 is the largest direct radix.
        assert!(!Plan::<f64>::new(31).is_bluestein());
        assert!(!Plan::<f64>::new(62).is_bluestein());
        assert!(Plan::<f64>::new(74).is_bluestein()); // 2 · 37
    }

    #[test]
    fn inverse_round_trips() {
        for n in [8, 12, 27, 100, 256, 1009] {
            let x = signal(n);
            let plan = Plan::new(n);
            let mut d = x.clone();
            plan.forward(&mut d);
            plan.inverse(&mut d);
            assert!(rel_linf(&d, &x) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn inverse_matches_direct_idft() {
        let n = 48;
        let x = signal(n);
        let plan = Plan::new(n);
        let mut d = x.clone();
        plan.inverse(&mut d);
        let want = idft(&x);
        assert!(rel_linf(&d, &want) < 1e-11);
    }

    #[test]
    fn large_pow2_transform_accuracy() {
        // 2^16: accuracy should stay near machine precision relative to a
        // double-checked smaller reference property — use Parseval.
        let n = 1 << 16;
        let x = signal(n);
        let plan = Plan::new(n);
        let mut y = x.clone();
        plan.forward(&mut y);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!((ex - ey).abs() / ex < 1e-12);
        // And invert back.
        plan.inverse(&mut y);
        assert!(rel_linf(&y, &x) < 1e-11);
    }

    #[test]
    fn impulse_response_is_flat() {
        let n = 64;
        let mut d = vec![c64::ZERO; n];
        d[0] = c64::ONE;
        Plan::new(n).forward(&mut d);
        for &v in &d {
            assert!((v - c64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn shift_theorem() {
        // x delayed by s ⇒ spectrum multiplied by w^{ks}.
        let n = 40;
        let x = signal(n);
        let mut shifted = vec![c64::ZERO; n];
        for i in 0..n {
            shifted[(i + 3) % n] = x[i];
        }
        let plan = Plan::new(n);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fs = shifted;
        plan.forward(&mut fs);
        for k in 0..n {
            let want = fx[k] * c64::root_of_unity(n, 3 * k as i64);
            assert!((fs[k] - want).abs() < 1e-10 * (1.0 + want.abs()), "k={k}");
        }
    }

    #[test]
    fn scratch_reuse_gives_identical_results() {
        let n = 360;
        let plan = Plan::new(n);
        let x = signal(n);
        let mut a = x.clone();
        plan.forward(&mut a);
        let mut b = x.clone();
        let mut scratch = plan.make_scratch();
        plan.forward_with_scratch(&mut b, &mut scratch);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "data length != plan length")]
    fn wrong_length_panics() {
        let plan = Plan::new(8);
        let mut d = vec![c64::ZERO; 7];
        plan.forward(&mut d);
    }
}
