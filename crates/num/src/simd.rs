//! Explicit AVX2 kernels with runtime detection and bit-identical scalar
//! fallbacks.
//!
//! This is the **only** module in the workspace that contains `unsafe`
//! code (the crate root is `#![deny(unsafe_code)]`; this module opts back
//! in via `#[allow(unsafe_code)]` on its declaration). The unsafe surface
//! is kept auditable by construction:
//!
//! * every `unsafe fn` is a leaf `#[target_feature(enable = "avx2,fma")]`
//!   kernel that only dereferences pointers derived from the slices it was
//!   handed, with bounds established by the safe dispatcher above it;
//! * loads and stores are unaligned (`loadu`/`storeu`), so no alignment
//!   precondition exists beyond the slice's own;
//! * `Complex<T>` is `#[repr(C)]` with exactly two `T` fields, so a
//!   `&[Complex<f64>]` reinterpreted as `*const f64` is a plain
//!   interleaved scalar view.
//!
//! **Bit parity.** Each SIMD kernel is bit-identical to its scalar
//! fallback on the same inputs (property-tested in
//! `tests/simd_parity.rs`): the vector lanes apply exactly the scalar
//! formula's operations (the complex multiply is built from `mul` +
//! `addsub`, never a fused contraction the scalar path lacks — where a
//! kernel does fuse, as the convolution panel's `fmadd` does, its scalar
//! mirror is written with `f64::mul_add`, which rounds once too), the
//! accumulator *count* of the scalar fallback matches the vector lane
//! count (2 complex lanes for `c64`, 4 for `c32`), and the final
//! cross-lane combine is the same sequential expression in both paths.
//! The split-precision kernels widen `f32` operands to `f64` before any
//! arithmetic; products of widened `f32` values are exact in `f64`, so
//! there too every rounding happens at the same point in both paths.
//!
//! **Dispatch.** [`simd_active`] caches `is_x86_feature_detected!("avx2")
//! && ("fma")` once per process; setting `SOIFFT_FORCE_SCALAR=1` in the
//! environment pins the scalar fallback (used by the CI fallback job and
//! for A/B debugging). On non-x86_64 targets the dispatchers always take
//! the scalar path and no intrinsics are compiled at all.

use std::sync::OnceLock;

use crate::complex::{c32, c64};
use crate::kernels;

/// True when the process dispatches to the AVX2 kernels: x86_64 with
/// AVX2+FMA detected at runtime and `SOIFFT_FORCE_SCALAR` unset (≠ "1").
/// Decided once per process and cached.
pub fn simd_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if std::env::var_os("SOIFFT_FORCE_SCALAR").is_some_and(|v| v == "1") {
            return false;
        }
        detect()
    })
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

/// Human-readable name of the active kernel set (for bench metadata).
pub fn kernel_backend() -> &'static str {
    if simd_active() {
        "avx2"
    } else {
        "scalar"
    }
}

// ---------------------------------------------------------------------------
// Safe dispatchers. Each pairs one AVX2 kernel with its bit-identical
// scalar fallback; slice-length preconditions are asserted here, before
// any unsafe code runs.
// ---------------------------------------------------------------------------

/// `Σ t[i]·x[i]` over `c64` (two accumulator lanes).
#[inline]
pub fn dot_c64(t: &[c64], x: &[c64]) -> c64 {
    assert_eq!(t.len(), x.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        return unsafe { avx2::dot_c64(t, x) };
    }
    kernels::dot_scalar(t, x)
}

/// `Σ t[i]·x[i]` over `c32` (four accumulator lanes).
#[inline]
pub fn dot_c32(t: &[c32], x: &[c32]) -> c32 {
    assert_eq!(t.len(), x.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        return unsafe { avx2::dot_c32(t, x) };
    }
    dot_c32_scalar(t, x)
}

/// Split-precision inner product: `f32` operands, `f64` accumulation.
/// Operands are widened before any arithmetic, so the products are exact
/// and only the accumulation rounds.
#[inline]
pub fn dot_split(t: &[c32], x: &[c32]) -> c64 {
    assert_eq!(t.len(), x.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        return unsafe { avx2::dot_split(t, x) };
    }
    dot_split_scalar(t, x)
}

/// `acc[i] += t[i]·x[i]` over `c64`.
#[inline]
pub fn axpy_pointwise_c64(acc: &mut [c64], t: &[c64], x: &[c64]) {
    assert_eq!(acc.len(), t.len(), "length mismatch");
    assert_eq!(acc.len(), x.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        unsafe { avx2::axpy_c64(acc, t, x) };
        return;
    }
    kernels::axpy_pointwise_scalar(acc, t, x);
}

/// `acc[i] += t[i]·x[i]` over `c32`.
#[inline]
pub fn axpy_pointwise_c32(acc: &mut [c32], t: &[c32], x: &[c32]) {
    assert_eq!(acc.len(), t.len(), "length mismatch");
    assert_eq!(acc.len(), x.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        unsafe { avx2::axpy_c32(acc, t, x) };
        return;
    }
    kernels::axpy_pointwise_scalar(acc, t, x);
}

/// Split-precision AXPY: `f64` accumulator, `f32` operands.
#[inline]
pub fn axpy_split(acc: &mut [c64], t: &[c32], x: &[c32]) {
    assert_eq!(acc.len(), t.len(), "length mismatch");
    assert_eq!(acc.len(), x.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        unsafe { avx2::axpy_split(acc, t, x) };
        return;
    }
    axpy_split_scalar(acc, t, x);
}

/// `data[i] *= scale[i]` over `c64`.
#[inline]
pub fn mul_pointwise_c64(data: &mut [c64], scale: &[c64]) {
    assert_eq!(data.len(), scale.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        unsafe { avx2::mul_c64(data, scale) };
        return;
    }
    kernels::mul_pointwise_scalar(data, scale);
}

/// `data[i] *= scale[i]` over `c32`.
#[inline]
pub fn mul_pointwise_c32(data: &mut [c32], scale: &[c32]) {
    assert_eq!(data.len(), scale.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        unsafe { avx2::mul_c32(data, scale) };
        return;
    }
    kernels::mul_pointwise_scalar(data, scale);
}

/// Planar (SoA) pointwise multiply: `(a_re, a_im) *= (b_re, b_im)`
/// element-wise, operating on split real/imaginary arrays. The planar
/// layout needs no shuffles at all — each vector op is 4 (f64) or 8
/// (f32) independent lanes — which is why [`crate::soa::SoaComplex`]
/// exists.
#[inline]
pub fn mul_pointwise_planar_f64(are: &mut [f64], aim: &mut [f64], bre: &[f64], bim: &[f64]) {
    let n = are.len();
    assert!(
        aim.len() == n && bre.len() == n && bim.len() == n,
        "length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        unsafe { avx2::mul_planar_f64(are, aim, bre, bim) };
        return;
    }
    mul_pointwise_planar_scalar(are, aim, bre, bim);
}

/// Scalar reference for [`mul_pointwise_planar_f64`] (public for parity
/// tests).
pub fn mul_pointwise_planar_scalar(are: &mut [f64], aim: &mut [f64], bre: &[f64], bim: &[f64]) {
    for i in 0..are.len() {
        let re = are[i] * bre[i] - aim[i] * bim[i];
        let im = are[i] * bim[i] + aim[i] * bre[i];
        are[i] = re;
        aim[i] = im;
    }
}

/// Columns per convolution panel: one 64-byte cache line of `c64`, two
/// AVX2 vectors.
pub const CONV_PANEL: usize = 4;

/// Output phases accumulated per pass over the taps: `5 × 2` accumulator
/// vectors plus the panel's two input vectors fit the 16 YMM registers.
const CONV_PHASES_PER_PASS: usize = 5;

/// One (chunk, panel) unit of the SOI convolution with real taps and one
/// unit phase per output: for `j < n_mu` and column `q < width`,
///
/// ```text
/// out[j·l + q] = phi[j·4 + q] · Σ_b taps[(b·n_mu + j)·8 + 2q] · x[b·l + q]
/// ```
///
/// `taps` is `[b][j][lane]` with each column's real tap stored twice (the
/// `re` and `im` lanes of the vector it multiplies), so `B =
/// taps.len() / (8·n_mu)`; `x` and `out` are rows of stride `l` starting
/// at the panel's first column. Each tap row loads the panel's inputs
/// once and feeds every phase's accumulator with one real×complex FMA per
/// vector; the finished sums are rotated by `phi` and stored once.
///
/// Every output is the same operation sequence (`B` fused multiply-adds
/// per component in `b` order, then one complex multiply) whatever
/// `width`, `n_mu` grouping or ISA, so results are bit-identical to
/// [`conv_panel_c64_scalar`].
#[inline]
pub fn conv_panel_c64(
    taps: &[f64],
    phi: &[c64],
    n_mu: usize,
    x: &[c64],
    l: usize,
    width: usize,
    out: &mut [c64],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        let b = conv_panel_check(taps, phi, n_mu, x, l, width, out);
        // SAFETY: avx2+fma verified by `simd_active`; `conv_panel_check`
        // established every bound the kernel's doc lists.
        unsafe { avx2::conv_panel_c64(taps, phi, n_mu, b, x, l, width, out) };
        return;
    }
    conv_panel_c64_scalar(taps, phi, n_mu, x, l, width, out);
}

/// Scalar reference for [`conv_panel_c64`], built on `f64::mul_add` so it
/// rounds exactly where the FMA kernel does.
pub fn conv_panel_c64_scalar(
    taps: &[f64],
    phi: &[c64],
    n_mu: usize,
    x: &[c64],
    l: usize,
    width: usize,
    out: &mut [c64],
) {
    let b = conv_panel_check(taps, phi, n_mu, x, l, width, out);
    for q in 0..width {
        conv_column_scalar(taps, phi, n_mu, b, x, l, q, out);
    }
}

/// Shape checks shared by both convolution-panel paths; returns the tap
/// count `B`. After it, `taps` is `B × n_mu × 8`, `phi` is `n_mu × 4`,
/// and rows `b < B` of `x` / `j < n_mu` of `out` hold `width` columns.
fn conv_panel_check(
    taps: &[f64],
    phi: &[c64],
    n_mu: usize,
    x: &[c64],
    l: usize,
    width: usize,
    out: &[c64],
) -> usize {
    assert!(n_mu > 0 && !taps.is_empty(), "empty tap table");
    assert_eq!(taps.len() % (2 * CONV_PANEL * n_mu), 0, "ragged tap table");
    assert_eq!(phi.len(), CONV_PANEL * n_mu, "phase table length");
    assert!(
        (1..=CONV_PANEL).contains(&width) && width <= l,
        "panel width"
    );
    let b = taps.len() / (2 * CONV_PANEL * n_mu);
    assert!(x.len() >= (b - 1) * l + width, "input too short");
    assert!(out.len() >= (n_mu - 1) * l + width, "output too short");
    b
}

/// Column `q` of one convolution panel, all `n_mu` phases.
#[allow(clippy::too_many_arguments)]
fn conv_column_scalar(
    taps: &[f64],
    phi: &[c64],
    n_mu: usize,
    b: usize,
    x: &[c64],
    l: usize,
    q: usize,
    out: &mut [c64],
) {
    for j in 0..n_mu {
        let mut acc = c64::ZERO;
        for bb in 0..b {
            let e = taps[(bb * n_mu + j) * 2 * CONV_PANEL + 2 * q];
            let v = x[bb * l + q];
            acc = c64::new(e.mul_add(v.re, acc.re), e.mul_add(v.im, acc.im));
        }
        out[j * l + q] = acc * phi[j * CONV_PANEL + q];
    }
}

/// Tile transpose over `c64` (≤ 8×8, explicit strides).
#[inline]
pub fn transpose_tile_c64(
    src: &[c64],
    src_stride: usize,
    dst: &mut [c64],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() && rows >= 2 && cols >= 2 {
        // SAFETY: avx2+fma verified by `simd_active`; index bounds are
        // identical to the scalar path's (checked slice indexing is used
        // for edge elements, vector spans are subsets of those bounds,
        // re-checked inside the kernel).
        unsafe { avx2::transpose_tile_c64(src, src_stride, dst, dst_stride, rows, cols) };
        return;
    }
    crate::transpose::transpose_tile_scalar(src, src_stride, dst, dst_stride, rows, cols);
}

/// Tile transpose over `c32` (≤ 8×8, explicit strides).
#[inline]
pub fn transpose_tile_c32(
    src: &[c32],
    src_stride: usize,
    dst: &mut [c32],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() && rows >= 4 && cols >= 4 {
        // SAFETY: as for `transpose_tile_c64`.
        unsafe { avx2::transpose_tile_c32(src, src_stride, dst, dst_stride, rows, cols) };
        return;
    }
    crate::transpose::transpose_tile_scalar(src, src_stride, dst, dst_stride, rows, cols);
}

/// Element-wise promotion `c32` → `c64` (`dst.len() == src.len()`).
/// Widening is exact, so SIMD/scalar bit-parity is trivial; the vector
/// path exists for bandwidth (the mixed-precision pipeline promotes the
/// whole received frontier).
#[inline]
pub fn promote_c32_c64(src: &[c32], dst: &mut [c64]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        unsafe { avx2::promote_c32_c64(src, dst) };
        return;
    }
    promote_c32_c64_scalar(src, dst);
}

/// Unpacks half-width wire data: each `c64` carries two bit-packed `c32`
/// (one per `f64` field, high 32 bits = real). Fills all of `dst`,
/// dropping the pad `c32` of the final element when `dst.len()` is odd;
/// requires `src.len() == dst.len().div_ceil(2)`. Pure bit movement —
/// SIMD and scalar are identical by construction.
#[inline]
pub fn unpack_c32_pairs(src: &[c64], dst: &mut [c32]) {
    assert_eq!(src.len(), dst.len().div_ceil(2), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; lengths above.
        unsafe { avx2::unpack_c32_pairs(src, dst) };
        return;
    }
    unpack_c32_pairs_scalar(src, dst);
}

// ---------------------------------------------------------------------------
// Scalar fallbacks whose accumulator structure mirrors the vector lanes
// (the generic fallbacks in `kernels` cover the order-insensitive
// element-wise kernels). Public so the parity suite can pin SIMD == scalar
// without toggling process-global dispatch state.
// ---------------------------------------------------------------------------

/// Scalar reference for [`promote_c32_c64`].
pub fn promote_c32_c64_scalar(src: &[c32], dst: &mut [c64]) {
    assert_eq!(src.len(), dst.len(), "length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d = s.to_c64();
    }
}

/// Scalar reference for [`unpack_c32_pairs`].
pub fn unpack_c32_pairs_scalar(src: &[c64], dst: &mut [c32]) {
    assert_eq!(src.len(), dst.len().div_ceil(2), "length mismatch");
    for (pair, v) in dst.chunks_mut(2).zip(src) {
        let re = v.re.to_bits();
        pair[0] = c32::new(f32::from_bits((re >> 32) as u32), f32::from_bits(re as u32));
        if let Some(slot) = pair.get_mut(1) {
            let im = v.im.to_bits();
            *slot = c32::new(f32::from_bits((im >> 32) as u32), f32::from_bits(im as u32));
        }
    }
}

/// Scalar `c32` dot with the four-lane accumulator structure of the AVX2
/// kernel (a `__m256` holds 4 complex singles).
pub fn dot_c32_scalar(t: &[c32], x: &[c32]) -> c32 {
    assert_eq!(t.len(), x.len(), "length mismatch");
    let mut acc = [c32::ZERO; 4];
    let n4 = t.len() / 4 * 4;
    let mut i = 0;
    while i < n4 {
        acc[0] += t[i] * x[i];
        acc[1] += t[i + 1] * x[i + 1];
        acc[2] += t[i + 2] * x[i + 2];
        acc[3] += t[i + 3] * x[i + 3];
        i += 4;
    }
    for (lane, j) in (n4..t.len()).enumerate() {
        acc[lane] += t[j] * x[j];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3])
}

/// Scalar split-precision dot with the two-lane accumulator structure of
/// the AVX2 kernel (a `__m256d` holds 2 complex doubles).
pub fn dot_split_scalar(t: &[c32], x: &[c32]) -> c64 {
    assert_eq!(t.len(), x.len(), "length mismatch");
    let mut acc0 = c64::ZERO;
    let mut acc1 = c64::ZERO;
    let n2 = t.len() / 2 * 2;
    let mut i = 0;
    while i < n2 {
        acc0 += t[i].to_c64() * x[i].to_c64();
        acc1 += t[i + 1].to_c64() * x[i + 1].to_c64();
        i += 2;
    }
    if t.len() % 2 == 1 {
        let j = t.len() - 1;
        acc0 += t[j].to_c64() * x[j].to_c64();
    }
    acc0 + acc1
}

/// Scalar split-precision AXPY (element-wise, order-insensitive).
pub fn axpy_split_scalar(acc: &mut [c64], t: &[c32], x: &[c32]) {
    assert_eq!(acc.len(), t.len(), "length mismatch");
    assert_eq!(acc.len(), x.len(), "length mismatch");
    for ((a, &tv), &xv) in acc.iter_mut().zip(t).zip(x) {
        *a += tv.to_c64() * xv.to_c64();
    }
}

// ---------------------------------------------------------------------------
// The AVX2 kernels themselves.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Interleaved complex multiply, two `c64` per vector. Bit-identical
    /// to the scalar formula `(a.re·b.re − a.im·b.im, a.re·b.im +
    /// a.im·b.re)`: products commute bitwise, `addsub` performs the same
    /// subtract/add, and FP addition commutes bitwise.
    #[inline(always)]
    unsafe fn cmul_pd(a: __m256d, b: __m256d) -> __m256d {
        let b_re = _mm256_movedup_pd(b); // [b.re, b.re]×2
        let b_im = _mm256_permute_pd(b, 0xF); // [b.im, b.im]×2
        let t1 = _mm256_mul_pd(a, b_re); // [a.re·b.re, a.im·b.re]
        let a_sw = _mm256_permute_pd(a, 0x5); // [a.im, a.re]×2
        let t2 = _mm256_mul_pd(a_sw, b_im); // [a.im·b.im, a.re·b.im]
        _mm256_addsub_pd(t1, t2)
    }

    /// Interleaved complex multiply, four `c32` per vector.
    #[inline(always)]
    unsafe fn cmul_ps(a: __m256, b: __m256) -> __m256 {
        let b_re = _mm256_moveldup_ps(b);
        let b_im = _mm256_movehdup_ps(b);
        let t1 = _mm256_mul_ps(a, b_re);
        let a_sw = _mm256_permute_ps(a, 0xB1);
        let t2 = _mm256_mul_ps(a_sw, b_im);
        _mm256_addsub_ps(t1, t2)
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_c64(t: &[c64], x: &[c64]) -> c64 {
        let n = t.len();
        let n2 = n / 2 * 2;
        let tp = t.as_ptr() as *const f64;
        let xp = x.as_ptr() as *const f64;
        let mut vacc = _mm256_setzero_pd();
        let mut i = 0;
        while i < n2 {
            let a = _mm256_loadu_pd(tp.add(2 * i));
            let b = _mm256_loadu_pd(xp.add(2 * i));
            vacc = _mm256_add_pd(vacc, cmul_pd(a, b));
            i += 2;
        }
        let mut acc = [c64::ZERO; 2];
        _mm256_storeu_pd(acc.as_mut_ptr() as *mut f64, vacc);
        if n % 2 == 1 {
            acc[0] += t[n - 1] * x[n - 1];
        }
        acc[0] + acc[1]
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_c32(t: &[c32], x: &[c32]) -> c32 {
        let n = t.len();
        let n4 = n / 4 * 4;
        let tp = t.as_ptr() as *const f32;
        let xp = x.as_ptr() as *const f32;
        let mut vacc = _mm256_setzero_ps();
        let mut i = 0;
        while i < n4 {
            let a = _mm256_loadu_ps(tp.add(2 * i));
            let b = _mm256_loadu_ps(xp.add(2 * i));
            vacc = _mm256_add_ps(vacc, cmul_ps(a, b));
            i += 4;
        }
        let mut acc = [c32::ZERO; 4];
        _mm256_storeu_ps(acc.as_mut_ptr() as *mut f32, vacc);
        for (lane, j) in (n4..n).enumerate() {
            acc[lane] += t[j] * x[j];
        }
        (acc[0] + acc[1]) + (acc[2] + acc[3])
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot_split(t: &[c32], x: &[c32]) -> c64 {
        let n = t.len();
        let n2 = n / 2 * 2;
        let tp = t.as_ptr() as *const f32;
        let xp = x.as_ptr() as *const f32;
        let mut vacc = _mm256_setzero_pd();
        let mut i = 0;
        while i < n2 {
            // Two c32 = one __m128 of f32, widened to a __m256d of f64.
            let a = _mm256_cvtps_pd(_mm_loadu_ps(tp.add(2 * i)));
            let b = _mm256_cvtps_pd(_mm_loadu_ps(xp.add(2 * i)));
            vacc = _mm256_add_pd(vacc, cmul_pd(a, b));
            i += 2;
        }
        let mut acc = [c64::ZERO; 2];
        _mm256_storeu_pd(acc.as_mut_ptr() as *mut f64, vacc);
        if n % 2 == 1 {
            acc[0] += t[n - 1].to_c64() * x[n - 1].to_c64();
        }
        acc[0] + acc[1]
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_c64(acc: &mut [c64], t: &[c64], x: &[c64]) {
        let n = acc.len();
        let n2 = n / 2 * 2;
        let ap = acc.as_mut_ptr() as *mut f64;
        let tp = t.as_ptr() as *const f64;
        let xp = x.as_ptr() as *const f64;
        let mut i = 0;
        while i < n2 {
            let a = _mm256_loadu_pd(tp.add(2 * i));
            let b = _mm256_loadu_pd(xp.add(2 * i));
            let c = _mm256_loadu_pd(ap.add(2 * i));
            _mm256_storeu_pd(ap.add(2 * i), _mm256_add_pd(c, cmul_pd(a, b)));
            i += 2;
        }
        if n % 2 == 1 {
            acc[n - 1] += t[n - 1] * x[n - 1];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_c32(acc: &mut [c32], t: &[c32], x: &[c32]) {
        let n = acc.len();
        let n4 = n / 4 * 4;
        let ap = acc.as_mut_ptr() as *mut f32;
        let tp = t.as_ptr() as *const f32;
        let xp = x.as_ptr() as *const f32;
        let mut i = 0;
        while i < n4 {
            let a = _mm256_loadu_ps(tp.add(2 * i));
            let b = _mm256_loadu_ps(xp.add(2 * i));
            let c = _mm256_loadu_ps(ap.add(2 * i));
            _mm256_storeu_ps(ap.add(2 * i), _mm256_add_ps(c, cmul_ps(a, b)));
            i += 4;
        }
        for j in n4..n {
            acc[j] += t[j] * x[j];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn axpy_split(acc: &mut [c64], t: &[c32], x: &[c32]) {
        let n = acc.len();
        let n2 = n / 2 * 2;
        let ap = acc.as_mut_ptr() as *mut f64;
        let tp = t.as_ptr() as *const f32;
        let xp = x.as_ptr() as *const f32;
        let mut i = 0;
        while i < n2 {
            let a = _mm256_cvtps_pd(_mm_loadu_ps(tp.add(2 * i)));
            let b = _mm256_cvtps_pd(_mm_loadu_ps(xp.add(2 * i)));
            let c = _mm256_loadu_pd(ap.add(2 * i));
            _mm256_storeu_pd(ap.add(2 * i), _mm256_add_pd(c, cmul_pd(a, b)));
            i += 2;
        }
        if n % 2 == 1 {
            acc[n - 1] += t[n - 1].to_c64() * x[n - 1].to_c64();
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mul_c64(data: &mut [c64], scale: &[c64]) {
        let n = data.len();
        let n2 = n / 2 * 2;
        let dp = data.as_mut_ptr() as *mut f64;
        let sp = scale.as_ptr() as *const f64;
        let mut i = 0;
        while i < n2 {
            let d = _mm256_loadu_pd(dp.add(2 * i));
            let s = _mm256_loadu_pd(sp.add(2 * i));
            _mm256_storeu_pd(dp.add(2 * i), cmul_pd(d, s));
            i += 2;
        }
        if n % 2 == 1 {
            data[n - 1] *= scale[n - 1];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mul_c32(data: &mut [c32], scale: &[c32]) {
        let n = data.len();
        let n4 = n / 4 * 4;
        let dp = data.as_mut_ptr() as *mut f32;
        let sp = scale.as_ptr() as *const f32;
        let mut i = 0;
        while i < n4 {
            let d = _mm256_loadu_ps(dp.add(2 * i));
            let s = _mm256_loadu_ps(sp.add(2 * i));
            _mm256_storeu_ps(dp.add(2 * i), cmul_ps(d, s));
            i += 4;
        }
        for j in n4..n {
            data[j] *= scale[j];
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn mul_planar_f64(
        are: &mut [f64],
        aim: &mut [f64],
        bre: &[f64],
        bim: &[f64],
    ) {
        let n = are.len();
        let n4 = n / 4 * 4;
        let arp = are.as_mut_ptr();
        let aip = aim.as_mut_ptr();
        let brp = bre.as_ptr();
        let bip = bim.as_ptr();
        let mut i = 0;
        while i < n4 {
            let ar = _mm256_loadu_pd(arp.add(i));
            let ai = _mm256_loadu_pd(aip.add(i));
            let br = _mm256_loadu_pd(brp.add(i));
            let bi = _mm256_loadu_pd(bip.add(i));
            // Same op sequence as the scalar path: two products, one
            // subtract / one add — no contraction.
            let re = _mm256_sub_pd(_mm256_mul_pd(ar, br), _mm256_mul_pd(ai, bi));
            let im = _mm256_add_pd(_mm256_mul_pd(ar, bi), _mm256_mul_pd(ai, br));
            _mm256_storeu_pd(arp.add(i), re);
            _mm256_storeu_pd(aip.add(i), im);
            i += 4;
        }
        for j in n4..n {
            let re = are[j] * bre[j] - aim[j] * bim[j];
            let im = are[j] * bim[j] + aim[j] * bre[j];
            are[j] = re;
            aim[j] = im;
        }
    }

    /// `NJ` phases × `NV` vectors (2 columns each) of one convolution
    /// panel: `NJ·NV` accumulators live in registers across the tap loop.
    ///
    /// # Safety
    /// Requires avx2+fma. For `b < taps_b`: `taps + b·tap_stride` must
    /// point at `NJ` rows of 8 doubles and `x + 2·b·l` at `4·NV` doubles;
    /// `phi` at `NJ` rows of 8 doubles; `out + 2·j·l` at `4·NV` writable
    /// doubles for `j < NJ`.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn conv_group<const NJ: usize, const NV: usize>(
        taps: *const f64,
        tap_stride: usize,
        taps_b: usize,
        phi: *const f64,
        x: *const f64,
        l: usize,
        out: *mut f64,
    ) {
        let mut acc = [[_mm256_setzero_pd(); NV]; NJ];
        for b in 0..taps_b {
            let row = x.add(2 * b * l);
            let mut xv = [_mm256_setzero_pd(); NV];
            for (v, slot) in xv.iter_mut().enumerate() {
                *slot = _mm256_loadu_pd(row.add(4 * v));
            }
            let t = taps.add(b * tap_stride);
            for (j, acc_j) in acc.iter_mut().enumerate() {
                for (v, a) in acc_j.iter_mut().enumerate() {
                    *a = _mm256_fmadd_pd(_mm256_loadu_pd(t.add(8 * j + 4 * v)), xv[v], *a);
                }
            }
        }
        for (j, acc_j) in acc.iter().enumerate() {
            for (v, &a) in acc_j.iter().enumerate() {
                let ph = _mm256_loadu_pd(phi.add(8 * j + 4 * v));
                _mm256_storeu_pd(out.add(2 * j * l + 4 * v), cmul_pd(a, ph));
            }
        }
    }

    /// # Safety
    /// Requires avx2+fma and the shapes `conv_panel_check` establishes
    /// with `b` the tap count it returned.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn conv_panel_c64(
        taps: &[f64],
        phi: &[c64],
        n_mu: usize,
        b: usize,
        x: &[c64],
        l: usize,
        width: usize,
        out: &mut [c64],
    ) {
        let nv = width / 2;
        let stride = 2 * CONV_PANEL * n_mu;
        let xp = x.as_ptr() as *const f64;
        let op = out.as_mut_ptr() as *mut f64;
        let mut j0 = 0;
        while nv > 0 && j0 < n_mu {
            let nj = (n_mu - j0).min(CONV_PHASES_PER_PASS);
            let t = taps.as_ptr().add(8 * j0);
            let ph = (phi.as_ptr() as *const f64).add(8 * j0);
            let o = op.add(2 * j0 * l);
            // Vector columns are `q < 2·nv ≤ width`, phases `j0..j0+nj ≤
            // n_mu`: inside the checked rows of every slice.
            macro_rules! pass {
                ($($nj:literal)*) => {
                    match (nj, nv) {
                        $(($nj, 2) => conv_group::<$nj, 2>(t, stride, b, ph, xp, l, o),
                          ($nj, _) => conv_group::<$nj, 1>(t, stride, b, ph, xp, l, o),)*
                        _ => unreachable!("at most CONV_PHASES_PER_PASS phases per pass"),
                    }
                };
            }
            pass!(1 2 3 4 5);
            j0 += nj;
        }
        // An odd trailing column has no vector to ride in.
        for q in 2 * nv..width {
            conv_column_scalar(taps, phi, n_mu, b, x, l, q, out);
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn transpose_tile_c64(
        src: &[c64],
        src_stride: usize,
        dst: &mut [c64],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        debug_assert!(rows <= crate::transpose::TILE && cols <= crate::transpose::TILE);
        let r2 = rows / 2 * 2;
        let c2 = cols / 2 * 2;
        let sp = src.as_ptr() as *const f64;
        let dp = dst.as_mut_ptr() as *mut f64;
        // Bounds: the scalar reference reads src[r*ss + c] and writes
        // dst[c*ds + r] for r < rows, c < cols; assert the extreme
        // indices once so the raw pointer arithmetic below stays inside
        // the same envelope.
        if rows > 0 && cols > 0 {
            assert!((rows - 1) * src_stride + cols <= src.len(), "src too short");
            assert!((cols - 1) * dst_stride + rows <= dst.len(), "dst too short");
        }
        let mut r = 0;
        while r < r2 {
            let mut c = 0;
            while c < c2 {
                // 2×2 complex tile: pure 128-bit lane moves, bit-exact.
                let v0 = _mm256_loadu_pd(sp.add(2 * (r * src_stride + c)));
                let v1 = _mm256_loadu_pd(sp.add(2 * ((r + 1) * src_stride + c)));
                let lo = _mm256_permute2f128_pd(v0, v1, 0x20);
                let hi = _mm256_permute2f128_pd(v0, v1, 0x31);
                _mm256_storeu_pd(dp.add(2 * (c * dst_stride + r)), lo);
                _mm256_storeu_pd(dp.add(2 * ((c + 1) * dst_stride + r)), hi);
                c += 2;
            }
            for c in c2..cols {
                dst[c * dst_stride + r] = src[r * src_stride + c];
                dst[c * dst_stride + r + 1] = src[(r + 1) * src_stride + c];
            }
            r += 2;
        }
        for r in r2..rows {
            for c in 0..cols {
                dst[c * dst_stride + r] = src[r * src_stride + c];
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn transpose_tile_c32(
        src: &[c32],
        src_stride: usize,
        dst: &mut [c32],
        dst_stride: usize,
        rows: usize,
        cols: usize,
    ) {
        debug_assert!(rows <= crate::transpose::TILE && cols <= crate::transpose::TILE);
        let r4 = rows / 4 * 4;
        let c4 = cols / 4 * 4;
        // One c32 is 8 bytes — exactly one f64 lane — so a 4×4 complex
        // tile transposes with the classic 4×4 __m256d shuffle network
        // (pure moves, never arithmetic on the reinterpreted bits).
        let sp = src.as_ptr() as *const f64;
        let dp = dst.as_mut_ptr() as *mut f64;
        if rows > 0 && cols > 0 {
            assert!((rows - 1) * src_stride + cols <= src.len(), "src too short");
            assert!((cols - 1) * dst_stride + rows <= dst.len(), "dst too short");
        }
        let mut r = 0;
        while r < r4 {
            let mut c = 0;
            while c < c4 {
                let r0 = _mm256_loadu_pd(sp.add(r * src_stride + c));
                let r1 = _mm256_loadu_pd(sp.add((r + 1) * src_stride + c));
                let r2 = _mm256_loadu_pd(sp.add((r + 2) * src_stride + c));
                let r3 = _mm256_loadu_pd(sp.add((r + 3) * src_stride + c));
                let t0 = _mm256_unpacklo_pd(r0, r1);
                let t1 = _mm256_unpackhi_pd(r0, r1);
                let t2 = _mm256_unpacklo_pd(r2, r3);
                let t3 = _mm256_unpackhi_pd(r2, r3);
                let o0 = _mm256_permute2f128_pd(t0, t2, 0x20);
                let o1 = _mm256_permute2f128_pd(t1, t3, 0x20);
                let o2 = _mm256_permute2f128_pd(t0, t2, 0x31);
                let o3 = _mm256_permute2f128_pd(t1, t3, 0x31);
                _mm256_storeu_pd(dp.add(c * dst_stride + r), o0);
                _mm256_storeu_pd(dp.add((c + 1) * dst_stride + r), o1);
                _mm256_storeu_pd(dp.add((c + 2) * dst_stride + r), o2);
                _mm256_storeu_pd(dp.add((c + 3) * dst_stride + r), o3);
                c += 4;
            }
            for c in c4..cols {
                for dr in 0..4 {
                    dst[c * dst_stride + r + dr] = src[(r + dr) * src_stride + c];
                }
            }
            r += 4;
        }
        for r in r4..rows {
            for c in 0..cols {
                dst[c * dst_stride + r] = src[r * src_stride + c];
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn promote_c32_c64(src: &[c32], dst: &mut [c64]) {
        let n = src.len();
        let n4 = n / 4 * 4;
        let sp = src.as_ptr() as *const f32;
        let dp = dst.as_mut_ptr() as *mut f64;
        let mut i = 0;
        while i < n4 {
            // 4 c32 = 8 f32 = one __m256; widen each 128-bit half.
            let v = _mm256_loadu_ps(sp.add(2 * i));
            let lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
            let hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
            _mm256_storeu_pd(dp.add(2 * i), lo);
            _mm256_storeu_pd(dp.add(2 * i + 4), hi);
            i += 4;
        }
        for j in n4..n {
            dst[j] = src[j].to_c64();
        }
    }

    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn unpack_c32_pairs(src: &[c64], dst: &mut [c32]) {
        // Wire layout: each u64 field holds (re_bits << 32) | im_bits,
        // so little-endian memory reads [im, re] per u32 pair — one
        // adjacent-u32 swap per 64-bit lane recovers c32 order. Two wire
        // c64 (32 bytes) become four dst c32 (32 bytes): a straight
        // shuffled copy, no arithmetic on the reinterpreted bits.
        let whole = dst.len() / 4 * 2; // wire elems the vector loop consumes
        let mut w = 0;
        while w < whole {
            let v = _mm256_loadu_si256(src.as_ptr().add(w) as *const __m256i);
            let s = _mm256_shuffle_epi32(v, 0b10_11_00_01);
            _mm256_storeu_si256(dst.as_mut_ptr().add(2 * w) as *mut __m256i, s);
            w += 2;
        }
        let mut d = 2 * whole;
        while d < dst.len() {
            let bits = if d.is_multiple_of(2) {
                src[d / 2].re.to_bits()
            } else {
                src[d / 2].im.to_bits()
            };
            dst[d] = c32::new(
                f32::from_bits((bits >> 32) as u32),
                f32::from_bits(bits as u32),
            );
            d += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v64(n: usize, k: f64) -> Vec<c64> {
        (0..n)
            .map(|i| c64::new((i as f64 * 0.37 + k).sin(), (i as f64 * 0.11 - k).cos()))
            .collect()
    }

    fn v32(n: usize, k: f64) -> Vec<c32> {
        v64(n, k).iter().map(|&z| c32::from_c64(z)).collect()
    }

    #[test]
    fn dispatch_matches_scalar_bitwise_c64() {
        for n in [0usize, 1, 2, 3, 7, 8, 17, 64, 129] {
            let t = v64(n, 0.3);
            let x = v64(n, 1.7);
            assert_eq!(dot_c64(&t, &x), kernels::dot_scalar(&t, &x), "dot n={n}");

            let mut a = v64(n, 2.1);
            let mut b = a.clone();
            axpy_pointwise_c64(&mut a, &t, &x);
            kernels::axpy_pointwise_scalar(&mut b, &t, &x);
            assert_eq!(a, b, "axpy n={n}");

            let mut a = v64(n, 0.9);
            let mut b = a.clone();
            mul_pointwise_c64(&mut a, &x);
            kernels::mul_pointwise_scalar(&mut b, &x);
            assert_eq!(a, b, "mul n={n}");
        }
    }

    #[test]
    fn conversion_kernels_match_scalar_bitwise() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 19, 64, 131] {
            let s = v32(n, 0.7);
            let mut a = vec![c64::ZERO; n];
            let mut b = a.clone();
            promote_c32_c64(&s, &mut a);
            promote_c32_c64_scalar(&s, &mut b);
            assert_eq!(a, b, "promote n={n}");

            // Wire elements bit-pack two c32 each (pad on odd counts).
            let vals = v32(n, 1.3);
            let wire: Vec<c64> = vals
                .chunks(2)
                .map(|pair| {
                    let lo = pair[0];
                    let hi = pair.get(1).copied().unwrap_or(c32::ZERO);
                    let re = ((lo.re.to_bits() as u64) << 32) | lo.im.to_bits() as u64;
                    let im = ((hi.re.to_bits() as u64) << 32) | hi.im.to_bits() as u64;
                    c64::new(f64::from_bits(re), f64::from_bits(im))
                })
                .collect();
            let mut a = vec![c32::ZERO; n];
            let mut b = a.clone();
            unpack_c32_pairs(&wire, &mut a);
            unpack_c32_pairs_scalar(&wire, &mut b);
            assert_eq!(a, b, "unpack n={n}");
            assert_eq!(a, vals, "unpack round-trip n={n}");
        }
    }

    #[test]
    fn dispatch_matches_scalar_bitwise_c32() {
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 19, 64, 131] {
            let t = v32(n, 0.3);
            let x = v32(n, 1.7);
            assert_eq!(dot_c32(&t, &x), dot_c32_scalar(&t, &x), "dot n={n}");
            assert_eq!(dot_split(&t, &x), dot_split_scalar(&t, &x), "split n={n}");

            let mut a = v32(n, 2.1);
            let mut b = a.clone();
            axpy_pointwise_c32(&mut a, &t, &x);
            kernels::axpy_pointwise_scalar(&mut b, &t, &x);
            assert_eq!(a, b, "axpy n={n}");

            let mut a = v64(n, 2.1);
            let mut b = a.clone();
            axpy_split(&mut a, &t, &x);
            axpy_split_scalar(&mut b, &t, &x);
            assert_eq!(a, b, "axpy_split n={n}");

            let mut a = v32(n, 0.9);
            let mut b = a.clone();
            mul_pointwise_c32(&mut a, &x);
            kernels::mul_pointwise_scalar(&mut b, &x);
            assert_eq!(a, b, "mul n={n}");
        }
    }

    #[test]
    fn transpose_tiles_match_scalar() {
        for &(rows, cols) in &[
            (1, 1),
            (2, 2),
            (3, 5),
            (4, 4),
            (5, 4),
            (8, 8),
            (7, 8),
            (8, 3),
        ] {
            let ss = cols + 3;
            let ds = rows + 2;
            let src64: Vec<c64> = (0..ss * rows)
                .map(|i| c64::new(i as f64, -(i as f64)))
                .collect();
            let mut d1 = vec![c64::ZERO; ds * cols];
            let mut d2 = d1.clone();
            transpose_tile_c64(&src64, ss, &mut d1, ds, rows, cols);
            crate::transpose::transpose_tile_scalar(&src64, ss, &mut d2, ds, rows, cols);
            assert_eq!(d1, d2, "c64 {rows}x{cols}");

            let src32: Vec<c32> = src64.iter().map(|&z| c32::from_c64(z)).collect();
            let mut d1 = vec![c32::ZERO; ds * cols];
            let mut d2 = d1.clone();
            transpose_tile_c32(&src32, ss, &mut d1, ds, rows, cols);
            crate::transpose::transpose_tile_scalar(&src32, ss, &mut d2, ds, rows, cols);
            assert_eq!(d1, d2, "c32 {rows}x{cols}");
        }
    }

    #[test]
    fn planar_mul_matches_scalar() {
        for n in [0usize, 1, 3, 4, 5, 16, 33] {
            let bre: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let bim: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
            let mut ar1: Vec<f64> = (0..n).map(|i| i as f64 + 0.5).collect();
            let mut ai1: Vec<f64> = (0..n).map(|i| -(i as f64) * 0.2).collect();
            let mut ar2 = ar1.clone();
            let mut ai2 = ai1.clone();
            mul_pointwise_planar_f64(&mut ar1, &mut ai1, &bre, &bim);
            mul_pointwise_planar_scalar(&mut ar2, &mut ai2, &bre, &bim);
            assert_eq!(ar1, ar2, "re n={n}");
            assert_eq!(ai1, ai2, "im n={n}");
        }
    }

    #[test]
    fn split_products_are_exact() {
        // f32 × f32 widened to f64 is exact: the split dot of conjugate
        // pairs equals the sum of exact norm-squares.
        let t = v32(9, 0.0);
        let conj: Vec<c32> = t.iter().map(|z| z.conj()).collect();
        let got = dot_split(&t, &conj);
        let want: f64 = t
            .iter()
            .map(|z| {
                let w = z.to_c64();
                w.re * w.re + w.im * w.im
            })
            .sum();
        assert!((got.re - want).abs() < 1e-12 * want.abs());
    }

    #[test]
    fn backend_name_is_consistent() {
        let name = kernel_backend();
        assert!(name == "avx2" || name == "scalar");
        assert_eq!(name == "avx2", simd_active());
    }
}
