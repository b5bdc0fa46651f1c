//! Vectorizable complex micro-kernels.
//!
//! The inner loops of the convolution (length-B inner products, paper
//! §5.3), demodulation (pointwise multiply, §5.2.4) and twiddle passes are
//! all instances of four primitives. Centralizing them keeps every hot
//! loop behind one API: the public functions here are generic over the
//! precision parameter [`Real`] and dispatch per-type to the explicit
//! AVX2 kernels in [`crate::simd`] when the host supports them, falling
//! back to the scalar reference implementations below (which are also
//! exported, as `*_scalar`, so the parity suite can compare both paths in
//! one process).
//!
//! The `*_split` kernels are the third precision mode: `f32` operands
//! (half the memory traffic of the tap and signal arrays) accumulated in
//! `f64` (products of widened singles are exact in double, so only the
//! accumulation rounds).

use crate::complex::{c32, c64, Complex};
use crate::real::Real;
use crate::simd;

/// `acc[i] += t[i] * x[i]` (the convolution's tap-block AXPY).
#[inline]
pub fn axpy_pointwise<T: Real>(acc: &mut [Complex<T>], t: &[Complex<T>], x: &[Complex<T>]) {
    assert_eq!(acc.len(), t.len(), "length mismatch");
    assert_eq!(acc.len(), x.len(), "length mismatch");
    T::kaxpy_pointwise(acc, t, x);
}

/// Scalar reference for [`axpy_pointwise`] (element-wise, so SIMD lane
/// order cannot change results; bit-identical to the AVX2 kernel by
/// construction).
#[inline]
pub fn axpy_pointwise_scalar<T: Real>(acc: &mut [Complex<T>], t: &[Complex<T>], x: &[Complex<T>]) {
    assert_eq!(acc.len(), t.len(), "length mismatch");
    assert_eq!(acc.len(), x.len(), "length mismatch");
    for ((a, &tv), &xv) in acc.iter_mut().zip(t).zip(x) {
        *a += tv * xv;
    }
}

/// Complex inner product `Σ t[i]·x[i]` (no conjugation — the convolution's
/// row form).
#[inline]
pub fn dot<T: Real>(t: &[Complex<T>], x: &[Complex<T>]) -> Complex<T> {
    assert_eq!(t.len(), x.len(), "length mismatch");
    T::kdot(t, x)
}

/// Scalar reference for the `f64` [`dot`]: two independent accumulators
/// break the add-latency chain, and match the two complex lanes of a
/// `__m256d` so the AVX2 kernel reproduces it bit-for-bit.
#[inline]
pub fn dot_scalar<T: Real>(t: &[Complex<T>], x: &[Complex<T>]) -> Complex<T> {
    assert_eq!(t.len(), x.len(), "length mismatch");
    let mut acc0 = Complex::<T>::ZERO;
    let mut acc1 = Complex::<T>::ZERO;
    let mut it = t.chunks_exact(2).zip(x.chunks_exact(2));
    for (tp, xp) in &mut it {
        acc0 += tp[0] * xp[0];
        acc1 += tp[1] * xp[1];
    }
    if t.len() % 2 == 1 {
        acc0 += t[t.len() - 1] * x[x.len() - 1];
    }
    acc0 + acc1
}

/// `data[i] *= scale[i]` (demodulation / twiddle application).
#[inline]
pub fn mul_pointwise<T: Real>(data: &mut [Complex<T>], scale: &[Complex<T>]) {
    assert_eq!(data.len(), scale.len(), "length mismatch");
    T::kmul_pointwise(data, scale);
}

/// Scalar reference for [`mul_pointwise`].
#[inline]
pub fn mul_pointwise_scalar<T: Real>(data: &mut [Complex<T>], scale: &[Complex<T>]) {
    assert_eq!(data.len(), scale.len(), "length mismatch");
    for (d, &s) in data.iter_mut().zip(scale) {
        *d *= s;
    }
}

// ---------------------------------------------------------------------------
// Split precision: f32 operands, f64 accumulation.
// ---------------------------------------------------------------------------

/// Split-precision inner product: `f32` operands widened to `f64` before
/// any arithmetic, accumulated in `f64`. Products are exact (24-bit
/// significands multiply into 53 bits), so the result carries only
/// accumulation rounding plus the input quantization.
#[inline]
pub fn dot_split(t: &[c32], x: &[c32]) -> c64 {
    simd::dot_split(t, x)
}

/// Split-precision AXPY: `f64` accumulator, `f32` operands.
#[inline]
pub fn axpy_split(acc: &mut [c64], t: &[c32], x: &[c32]) {
    simd::axpy_split(acc, t, x);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: usize, k: f64) -> Vec<c64> {
        (0..n)
            .map(|i| c64::new(i as f64 * k, k - i as f64))
            .collect()
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        let t = v(13, 0.5);
        let x = v(13, -1.5);
        let mut acc = v(13, 2.0);
        let mut expect = acc.clone();
        axpy_pointwise(&mut acc, &t, &x);
        for i in 0..13 {
            expect[i] += t[i] * x[i];
        }
        assert_eq!(acc, expect);
    }

    #[test]
    fn dot_matches_naive_for_even_and_odd_lengths() {
        for n in [0usize, 1, 2, 7, 8, 33] {
            let t = v(n, 0.3);
            let x = v(n, -0.7);
            let naive: c64 = t.iter().zip(&x).map(|(&a, &b)| a * b).sum();
            let got = dot(&t, &x);
            assert!((got - naive).abs() < 1e-10 * (1.0 + naive.abs()), "n={n}");
        }
    }

    #[test]
    fn pointwise_multiply() {
        let mut d = v(6, 1.0);
        let s = v(6, -2.0);
        let expect: Vec<c64> = d.iter().zip(&s).map(|(&a, &b)| a * b).collect();
        mul_pointwise(&mut d, &s);
        assert_eq!(d, expect);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut a = v(3, 1.0);
        axpy_pointwise(&mut a, &v(4, 1.0), &v(3, 1.0));
    }

    #[test]
    fn f32_kernels_mirror_f64() {
        let t64 = v(11, 0.4);
        let x64 = v(11, -0.9);
        let t32: Vec<c32> = t64.iter().map(|&z| c32::from_c64(z)).collect();
        let x32: Vec<c32> = x64.iter().map(|&z| c32::from_c64(z)).collect();
        let got = dot(&t32, &x32).to_c64();
        let want = dot(&t64, &x64);
        assert!((got - want).abs() < 1e-4 * (1.0 + want.abs()));
    }

    #[test]
    fn split_dot_is_more_accurate_than_f32_dot() {
        // With f64 accumulation the only error is input quantization; a
        // pure-f32 dot also rounds every product and partial sum.
        let n = 4096;
        let t64 = v(n, 1e-3);
        let x64 = v(n, -7e-4);
        let t32: Vec<c32> = t64.iter().map(|&z| c32::from_c64(z)).collect();
        let x32: Vec<c32> = x64.iter().map(|&z| c32::from_c64(z)).collect();
        // Oracle: widened-f32 inputs, exact (Kahan-free f64 is plenty here).
        let oracle: c64 = t32
            .iter()
            .zip(&x32)
            .map(|(&a, &b)| a.to_c64() * b.to_c64())
            .sum();
        let split_err = (dot_split(&t32, &x32) - oracle).abs();
        let f32_err = (dot(&t32, &x32).to_c64() - oracle).abs();
        assert!(split_err <= f32_err, "split {split_err} vs f32 {f32_err}");
    }

    #[test]
    fn axpy_split_accumulates_in_f64() {
        let t32: Vec<c32> = v(7, 0.5).iter().map(|&z| c32::from_c64(z)).collect();
        let x32: Vec<c32> = v(7, -0.3).iter().map(|&z| c32::from_c64(z)).collect();
        let mut acc = v(7, 2.0);
        let mut expect = acc.clone();
        axpy_split(&mut acc, &t32, &x32);
        for i in 0..7 {
            expect[i] += t32[i].to_c64() * x32[i].to_c64();
        }
        assert_eq!(acc, expect);
    }
}
