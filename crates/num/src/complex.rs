//! Complex arithmetic, generic over the precision parameter.
//!
//! The workspace computes on [`Complex<T>`] values where `T` is a
//! [`Real`] scalar: [`c64`] (16 bytes, matching the paper's
//! "double-precision complex numbers, i.e. 16 bytes per element") is the
//! default everywhere, and [`c32`] (8 bytes) is the half-payload path.
//! The type is deliberately minimal and `#[repr(C)]` so that a slice of
//! `Complex<T>` is bit-compatible with the interleaved (AoS) layout used
//! at MPI boundaries.
//!
//! Trig-derived values ([`Complex::cis`], [`Complex::root_of_unity`]) are
//! evaluated in `f64` and demoted once, so `c32` tables carry ≤ ½ ulp of
//! demotion error instead of compounded single-precision trig error.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use crate::real::Real;

/// A complex number `re + i·im` over the precision parameter `T`.
///
/// The lower-case aliases [`c64`] and [`c32`] mirror common HPC style (by
/// analogy with `f64`/`f32`). All arithmetic is implemented inline; a
/// complex multiply is the usual 4 multiplies + 2 adds (6 flops), an
/// addition 2 flops — the counts the paper's `8B` convolution flop model
/// assumes.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Complex<T> {
    /// Real part.
    pub re: T,
    /// Imaginary part.
    pub im: T,
}

/// Double-precision complex number (the workspace default).
#[allow(non_camel_case_types)]
pub type c64 = Complex<f64>;

/// Single-precision complex number (the half-payload path).
#[allow(non_camel_case_types)]
pub type c32 = Complex<f32>;

impl<T: Real> Complex<T> {
    /// Zero.
    pub const ZERO: Self = Complex {
        re: T::ZERO,
        im: T::ZERO,
    };
    /// Multiplicative identity.
    pub const ONE: Self = Complex {
        re: T::ONE,
        im: T::ZERO,
    };
    /// The imaginary unit.
    pub const I: Self = Complex {
        re: T::ZERO,
        im: T::ONE,
    };

    /// Creates `re + i·im`.
    #[inline(always)]
    pub const fn new(re: T, im: T) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real value.
    #[inline(always)]
    pub const fn real(re: T) -> Self {
        Complex { re, im: T::ZERO }
    }

    /// `e^{iθ} = cos θ + i sin θ`. The angle is always an `f64`; the
    /// result is demoted to `T` after the trig evaluation.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex {
            re: T::from_f64(c),
            im: T::from_f64(s),
        }
    }

    /// The primitive root of unity `e^{-2πi k / n}` used by the forward DFT
    /// (negative-exponent convention, matching FFTW/MKL).
    ///
    /// `k` is reduced modulo `n` before the argument is formed so that large
    /// indices do not lose precision in the multiply; the trig runs in
    /// `f64` regardless of `T`.
    #[inline]
    pub fn root_of_unity(n: usize, k: i64) -> Self {
        let n_i = n as i64;
        let k = ((k % n_i) + n_i) % n_i;
        Self::cis(-2.0 * std::f64::consts::PI * (k as f64) / (n as f64))
    }

    /// Demotes (or passes through) a double-precision value to `T`
    /// component-wise.
    #[inline(always)]
    pub fn from_c64(z: Complex<f64>) -> Self {
        Complex {
            re: T::from_f64(z.re),
            im: T::from_f64(z.im),
        }
    }

    /// Promotes (or passes through) to double precision component-wise.
    #[inline(always)]
    pub fn to_c64(self) -> Complex<f64> {
        Complex {
            re: self.re.to_f64(),
            im: self.im.to_f64(),
        }
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> T {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|` (hypot, safe against overflow).
    #[inline]
    pub fn abs(self) -> T {
        self.re.hypot(self.im)
    }

    /// Argument (phase) in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> T {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[inline(always)]
    pub fn scale(self, s: T) -> Self {
        Complex {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Fused multiply-accumulate `self + a*b` written so the optimizer can
    /// emit FMA instructions where available (paper §5.2.4 notes ~12 % of
    /// Xeon Phi FFT operations become FMAs).
    #[inline(always)]
    pub fn mul_add(self, a: Self, b: Self) -> Self {
        Complex {
            re: a.re.mul_add(b.re, (-a.im).mul_add(b.im, self.re)),
            im: a.re.mul_add(b.im, a.im.mul_add(b.re, self.im)),
        }
    }

    /// Multiplication by `-i`.
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        Complex {
            re: self.im,
            im: -self.re,
        }
    }

    /// True when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl<T: Real> Add for Complex<T> {
    type Output = Complex<T>;
    #[inline(always)]
    fn add(self, rhs: Complex<T>) -> Complex<T> {
        Complex {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl<T: Real> Sub for Complex<T> {
    type Output = Complex<T>;
    #[inline(always)]
    fn sub(self, rhs: Complex<T>) -> Complex<T> {
        Complex {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl<T: Real> Mul for Complex<T> {
    type Output = Complex<T>;
    #[inline(always)]
    fn mul(self, rhs: Complex<T>) -> Complex<T> {
        Complex {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl<T: Real> Div for Complex<T> {
    type Output = Complex<T>;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ is the definition
    fn div(self, rhs: Complex<T>) -> Complex<T> {
        self * rhs.inv()
    }
}

impl<T: Real> Neg for Complex<T> {
    type Output = Complex<T>;
    #[inline(always)]
    fn neg(self) -> Complex<T> {
        Complex {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl<T: Real> Mul<T> for Complex<T> {
    type Output = Complex<T>;
    #[inline(always)]
    fn mul(self, rhs: T) -> Complex<T> {
        self.scale(rhs)
    }
}

// `scalar * complex` cannot be written generically (the scalar would be an
// uncovered type parameter), so each precision gets a concrete impl.
impl Mul<Complex<f64>> for f64 {
    type Output = Complex<f64>;
    #[inline(always)]
    fn mul(self, rhs: Complex<f64>) -> Complex<f64> {
        rhs.scale(self)
    }
}

impl Mul<Complex<f32>> for f32 {
    type Output = Complex<f32>;
    #[inline(always)]
    fn mul(self, rhs: Complex<f32>) -> Complex<f32> {
        rhs.scale(self)
    }
}

impl<T: Real> Div<T> for Complex<T> {
    type Output = Complex<T>;
    #[inline(always)]
    fn div(self, rhs: T) -> Complex<T> {
        self.scale(T::ONE / rhs)
    }
}

impl<T: Real> AddAssign for Complex<T> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex<T>) {
        *self = *self + rhs;
    }
}

impl<T: Real> SubAssign for Complex<T> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex<T>) {
        *self = *self - rhs;
    }
}

impl<T: Real> MulAssign for Complex<T> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex<T>) {
        *self = *self * rhs;
    }
}

impl<T: Real> DivAssign for Complex<T> {
    #[inline]
    fn div_assign(&mut self, rhs: Complex<T>) {
        *self = *self / rhs;
    }
}

impl<T: Real> Sum for Complex<T> {
    fn sum<I: Iterator<Item = Complex<T>>>(iter: I) -> Complex<T> {
        iter.fold(Complex::ZERO, |a, b| a + b)
    }
}

impl<T: Real> From<T> for Complex<T> {
    #[inline]
    fn from(re: T) -> Complex<T> {
        Complex::real(re)
    }
}

impl<T: Real> From<(T, T)> for Complex<T> {
    #[inline]
    fn from((re, im): (T, T)) -> Complex<T> {
        Complex::new(re, im)
    }
}

impl<T: Real> fmt::Debug for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= T::ZERO {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl<T: Real> fmt::Display for Complex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn close(a: c64, b: c64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn construction_and_constants() {
        assert_eq!(c64::new(1.0, 2.0).re, 1.0);
        assert_eq!(c64::new(1.0, 2.0).im, 2.0);
        assert_eq!(c64::ZERO + c64::ONE, c64::ONE);
        assert_eq!(c64::I * c64::I, -c64::ONE);
        assert_eq!(c64::from(3.0), c64::new(3.0, 0.0));
        assert_eq!(c64::from((3.0, 4.0)), c64::new(3.0, 4.0));
    }

    #[test]
    fn field_arithmetic() {
        let a = c64::new(1.0, 2.0);
        let b = c64::new(-3.0, 0.5);
        assert_eq!(a + b, c64::new(-2.0, 2.5));
        assert_eq!(a - b, c64::new(4.0, 1.5));
        assert_eq!(
            a * b,
            c64::new(1.0 * -3.0 - 2.0 * 0.5, 1.0 * 0.5 + 2.0 * -3.0)
        );
        assert!(close(a / b * b, a));
        assert!(close(a * a.inv(), c64::ONE));
        assert_eq!(-a, c64::new(-1.0, -2.0));
    }

    #[test]
    fn assign_ops_match_binary_ops() {
        let a = c64::new(0.3, -0.7);
        let b = c64::new(1.5, 2.5);
        let mut x = a;
        x += b;
        assert_eq!(x, a + b);
        x = a;
        x -= b;
        assert_eq!(x, a - b);
        x = a;
        x *= b;
        assert_eq!(x, a * b);
        x = a;
        x /= b;
        assert_eq!(x, a / b);
    }

    #[test]
    fn scalar_ops() {
        let a = c64::new(2.0, -4.0);
        assert_eq!(a * 0.5, c64::new(1.0, -2.0));
        assert_eq!(0.5 * a, c64::new(1.0, -2.0));
        assert_eq!(a / 2.0, c64::new(1.0, -2.0));
        assert_eq!(a.scale(0.0), c64::ZERO);
    }

    #[test]
    fn conj_abs_arg() {
        let a = c64::new(3.0, 4.0);
        assert_eq!(a.conj(), c64::new(3.0, -4.0));
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert!((c64::I.arg() - PI / 2.0).abs() < 1e-15);
        assert!((a * a.conj()).im == 0.0);
    }

    #[test]
    fn cis_and_roots_of_unity() {
        assert!(close(c64::cis(0.0), c64::ONE));
        assert!(close(c64::cis(PI), -c64::ONE));
        // Forward-DFT convention: root_of_unity(4, 1) = e^{-iπ/2} = -i.
        assert!(close(c64::root_of_unity(4, 1), -c64::I));
        // k is reduced mod n, including negative k.
        assert!(close(c64::root_of_unity(8, 9), c64::root_of_unity(8, 1)));
        assert!(close(c64::root_of_unity(8, -1), c64::root_of_unity(8, 7)));
        // n-th root to the n-th power is 1.
        let w = c64::root_of_unity(7, 1);
        let mut p = c64::ONE;
        for _ in 0..7 {
            p *= w;
        }
        assert!(close(p, c64::ONE));
    }

    #[test]
    fn mul_neg_i_shortcut() {
        let a = c64::new(1.25, -2.5);
        assert_eq!(a.mul_neg_i(), a * -c64::I);
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let acc = c64::new(0.1, 0.2);
        let a = c64::new(-1.0, 3.0);
        let b = c64::new(2.0, -0.5);
        let fused = acc.mul_add(a, b);
        let plain = acc + a * b;
        assert!((fused - plain).abs() < 1e-14);
    }

    #[test]
    fn sum_iterator() {
        let v = [c64::new(1.0, 1.0); 10];
        let s: c64 = v.iter().copied().sum();
        assert_eq!(s, c64::new(10.0, 10.0));
    }

    #[test]
    fn nan_and_finite() {
        assert!(c64::new(f64::NAN, 0.0).is_nan());
        assert!(!c64::ONE.is_nan());
        assert!(c64::ONE.is_finite());
        assert!(!c64::new(f64::INFINITY, 0.0).is_finite());
    }

    #[test]
    fn c32_arithmetic_mirrors_c64() {
        let a = c32::new(1.5, -2.25);
        let b = c32::new(-0.5, 4.0);
        let (wa, wb) = (a.to_c64(), b.to_c64());
        // Exactly-representable operands: single-precision arithmetic on
        // them agrees with demoted double-precision arithmetic.
        assert_eq!((a + b).to_c64(), wa + wb);
        assert_eq!((a * b).to_c64(), wa * wb);
        assert_eq!(a.conj().to_c64(), wa.conj());
        assert_eq!(c32::from_c64(wa), a);
    }

    #[test]
    fn demotion_is_round_to_nearest() {
        // π is not representable in f32; from_c64 must round, not
        // truncate, so the table-demotion contract (≤ ½ ulp) holds.
        let z = c32::from_c64(c64::new(PI, -PI));
        assert_eq!(z.re, std::f64::consts::PI as f32);
        assert_eq!(z.im, -(std::f64::consts::PI as f32));
        let w = c32::root_of_unity(3, 1);
        let exact = c64::root_of_unity(3, 1);
        assert!((w.re as f64 - exact.re).abs() <= f32::EPSILON as f64);
        assert!((w.im as f64 - exact.im).abs() <= f32::EPSILON as f64);
    }
}
