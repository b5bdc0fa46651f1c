//! Explicit AVX2 kernels with runtime detection and bit-identical scalar
//! fallbacks.
//!
//! The kernels are the ones a transform runs: the convolution panel,
//! pointwise multiply (`c64` and `c32` demodulation), transpose tiles, the
//! `c32` wire unpack and promotion, and the batched FFT ([`fft4_c64`]),
//! which runs `soifft_fft::Plan`'s recursion on four rows at once, one row
//! per `f64` lane, and whose scalar mirror is `Plan` itself, row by row.
//! [`dot_c64`] is the exception: no
//! transform calls it, and it stays only for the benchmark's
//! `num.dot_c64_gflops` metric.
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
//! count (2 complex lanes for `c64`), and the final cross-lane combine is
//! the same sequential expression in both paths. The batched FFT has no
//! cross-lane arithmetic at all: each lane is one row, and every multiply
//! and add is rounded on its own, as `Plan`'s scalar code rounds it.
//!
//! **Dispatch.** [`simd_active`] caches `is_x86_feature_detected!("avx2")
//! && ("fma")` once per process; setting `SOIFFT_FORCE_SCALAR=1` in the
//! environment pins the scalar fallback (used by the CI fallback job and
//! for A/B debugging). On non-x86_64 targets the dispatchers always take
//! the scalar path and no intrinsics are compiled at all.

use std::sync::OnceLock;

use crate::complex::{c32, c64, Complex};
use crate::real::Real;

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
///
/// No transform runs this kernel: the convolution runs
/// [`conv_panel_c64`]. It stays, with its scalar mirror
/// [`dot_c64_scalar`], because the benchmark's `num.dot_c64_gflops`
/// metric times it; it goes when that metric is retired.
#[inline]
pub fn dot_c64(t: &[c64], x: &[c64]) -> c64 {
    assert_eq!(t.len(), x.len(), "length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: avx2+fma verified by `simd_active`; equal lengths above.
        return unsafe { avx2::dot_c64(t, x) };
    }
    dot_c64_scalar(t, x)
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
    mul_pointwise_scalar(data, scale);
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
    mul_pointwise_scalar(data, scale);
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

/// Rows the batched FFT kernel transforms at once: one row per `f64`
/// lane of a `__m256d`.
pub const FFT_LANES: usize = 4;

/// One level of a decimation-in-time factor tree, as the batched FFT
/// kernel reads it. A level of length `n = r·m` has radix `r` and the
/// twiddles its combine reads in reading order,
/// `twiddles()[k·(r−1) + j−1] = w^{j·k}` for `k < m`, `1 ≤ j < r`. The
/// levels run from the root down to the first leaf of length 1, 2 or 4,
/// which needs none.
pub trait DitLevel<T> {
    /// The level's radix.
    fn radix(&self) -> usize;
    /// The level's twiddles, in the order its combine reads them.
    fn twiddles(&self) -> &[Complex<T>];
}

/// Forward `n`-point DFT of the [`FFT_LANES`] rows `rows[i·stride..][..n]`
/// in place, one row per vector lane, through the factor tree `levels`.
///
/// The kernel runs the scalar recursion of `soifft_fft::Plan` on all rows
/// at once: the same unrolled 1/2/4-point leaves, the same radix-2/3/4/5/8
/// combines and the same per-level twiddles, with every multiply and add
/// rounded on its own (no FMA). Each lane therefore computes the bits the
/// scalar recursion computes for its row. `buf` holds two lane-major
/// buffers ([`fft4_scratch_len`] elements): the rows de-interleaved in
/// registers on the way in, and the recursion's output, re-interleaved
/// into the rows on the way out.
///
/// Returns `false`, touching nothing, when the kernel does not run: no
/// AVX2, `SOIFFT_FORCE_SCALAR=1`, or a tree with a radix outside
/// {2, 3, 4, 5, 8}. The caller then runs its scalar path row by row.
///
/// # Panics
/// Panics if `stride < n`, if `rows` is shorter than
/// `(FFT_LANES − 1)·stride + n`, or if `buf` is shorter than
/// [`fft4_scratch_len`]`(n)`.
pub fn fft4_c64<L: DitLevel<f64>>(
    levels: &[L],
    rows: &mut [c64],
    stride: usize,
    n: usize,
    buf: &mut [c64],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd_active() && dit_tree_fits(levels, n) {
        assert!(stride >= n, "rows overlap");
        assert!(rows.len() >= (FFT_LANES - 1) * stride + n, "rows too short");
        assert!(buf.len() >= fft4_scratch_len(n), "lane buffers too short");
        // SAFETY: avx2+fma verified by `simd_active`; the recursion
        // asserts at every level that the radix divides its length and
        // the level holds exactly its `(r−1)·m` twiddles, so it touches
        // row elements `< n` and buffer elements `< fft4_scratch_len(n)`,
        // both asserted above.
        unsafe { avx2::fft4_c64(levels, rows, stride, n, buf) };
        return true;
    }
    let _ = (levels, rows, stride, n, buf);
    false
}

/// Scratch elements [`fft4_c64`] needs for `n`-point rows: two lane-major
/// buffers of [`FFT_LANES`] rows.
pub fn fft4_scratch_len(n: usize) -> usize {
    2 * FFT_LANES * n
}

/// True when `levels` is a factor tree for `n` the batched kernel runs:
/// each level down to the first 1/2/4-point leaf has a radix in
/// {2, 3, 4, 5, 8} that divides its length, and exactly `(r−1)·m`
/// twiddles.
fn dit_tree_fits<L: DitLevel<f64>>(levels: &[L], n: usize) -> bool {
    let mut n = n;
    let mut levels = levels.iter();
    while !matches!(n, 1 | 2 | 4) {
        let Some(level) = levels.next() else {
            return false;
        };
        let r = level.radix();
        if !matches!(r, 2 | 3 | 4 | 5 | 8)
            || !n.is_multiple_of(r)
            || level.twiddles().len() != (r - 1) * (n / r)
        {
            return false;
        }
        n /= r;
    }
    true
}

// ---------------------------------------------------------------------------
// Scalar fallbacks, with the accumulator structure of the vector lanes
// where the kernel reduces. Public so the parity suite can pin SIMD ==
// scalar without toggling process-global dispatch state.
// ---------------------------------------------------------------------------

/// Scalar reference for [`dot_c64`]: two independent accumulators match
/// the two complex lanes of a `__m256d`, so the AVX2 kernel reproduces it
/// bit-for-bit.
pub fn dot_c64_scalar(t: &[c64], x: &[c64]) -> c64 {
    assert_eq!(t.len(), x.len(), "length mismatch");
    let mut acc0 = c64::ZERO;
    let mut acc1 = c64::ZERO;
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

/// Scalar reference for [`mul_pointwise_c64`] and [`mul_pointwise_c32`]
/// (element-wise, so lane order cannot change the result).
pub fn mul_pointwise_scalar<T: Real>(data: &mut [Complex<T>], scale: &[Complex<T>]) {
    assert_eq!(data.len(), scale.len(), "length mismatch");
    for (d, &s) in data.iter_mut().zip(scale) {
        *d *= s;
    }
}

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

    /// One transform element of [`FFT_LANES`] rows: lane `i` holds row
    /// `i`'s real and imaginary part.
    #[derive(Clone, Copy)]
    struct V4 {
        re: __m256d,
        im: __m256d,
    }

    #[inline(always)]
    unsafe fn add4(a: V4, b: V4) -> V4 {
        V4 {
            re: _mm256_add_pd(a.re, b.re),
            im: _mm256_add_pd(a.im, b.im),
        }
    }

    #[inline(always)]
    unsafe fn sub4(a: V4, b: V4) -> V4 {
        V4 {
            re: _mm256_sub_pd(a.re, b.re),
            im: _mm256_sub_pd(a.im, b.im),
        }
    }

    /// `-x`: a sign flip, exactly as scalar negation.
    #[inline(always)]
    unsafe fn neg(x: __m256d) -> __m256d {
        _mm256_xor_pd(x, _mm256_set1_pd(-0.0))
    }

    /// `Complex::mul_neg_i`: `(re, im) → (im, −re)`.
    #[inline(always)]
    unsafe fn mul_neg_i4(a: V4) -> V4 {
        V4 {
            re: a.im,
            im: neg(a.re),
        }
    }

    /// The radix-4 DIT butterfly of `Plan`'s 4-point leaf and radix-4
    /// combine, which the radix-8 combine runs on each half (forward
    /// sign, `w_4 = −i`).
    #[inline(always)]
    unsafe fn bfly4(a: V4, b: V4, c: V4, d: V4) -> [V4; 4] {
        let s0 = add4(a, c);
        let s1 = sub4(a, c);
        let s2 = add4(b, d);
        let s3 = mul_neg_i4(sub4(b, d));
        [add4(s0, s2), add4(s1, s3), sub4(s0, s2), sub4(s1, s3)]
    }

    /// `w · x` for one twiddle shared by all lanes, in the scalar
    /// formula's order: `(w.re·x.re − w.im·x.im, w.re·x.im + w.im·x.re)`.
    #[inline(always)]
    unsafe fn cmul4(w: c64, x: V4) -> V4 {
        let wr = _mm256_set1_pd(w.re);
        let wi = _mm256_set1_pd(w.im);
        V4 {
            re: _mm256_sub_pd(_mm256_mul_pd(wr, x.re), _mm256_mul_pd(wi, x.im)),
            im: _mm256_add_pd(_mm256_mul_pd(wr, x.im), _mm256_mul_pd(wi, x.re)),
        }
    }

    /// `Complex::scale`: both parts times one real constant.
    #[inline(always)]
    unsafe fn scale4(a: V4, s: __m256d) -> V4 {
        V4 {
            re: _mm256_mul_pd(a.re, s),
            im: _mm256_mul_pd(a.im, s),
        }
    }

    /// Element `i` of a lane-major buffer (8 doubles per element).
    #[inline(always)]
    unsafe fn ld4(p: *const f64, i: usize) -> V4 {
        V4 {
            re: _mm256_loadu_pd(p.add(8 * i)),
            im: _mm256_loadu_pd(p.add(8 * i + 4)),
        }
    }

    #[inline(always)]
    unsafe fn st4(p: *mut f64, i: usize, v: V4) {
        _mm256_storeu_pd(p.add(8 * i), v.re);
        _mm256_storeu_pd(p.add(8 * i + 4), v.im);
    }

    /// Element `e` of the four interleaved rows at `src`, `rs` doubles
    /// apart, de-interleaved into lanes in registers.
    #[inline(always)]
    unsafe fn ld_rows(src: *const f64, rs: usize, e: usize) -> V4 {
        let p = src.add(2 * e);
        let x0 = _mm_loadu_pd(p);
        let x1 = _mm_loadu_pd(p.add(rs));
        let x2 = _mm_loadu_pd(p.add(2 * rs));
        let x3 = _mm_loadu_pd(p.add(3 * rs));
        // [r0, i0, r2, i2] and [r1, i1, r3, i3].
        let lo = _mm256_insertf128_pd(_mm256_castpd128_pd256(x0), x2, 1);
        let hi = _mm256_insertf128_pd(_mm256_castpd128_pd256(x1), x3, 1);
        V4 {
            re: _mm256_unpacklo_pd(lo, hi),
            im: _mm256_unpackhi_pd(lo, hi),
        }
    }

    /// # Safety
    /// Requires avx2+fma, `stride >= n`, and `rows` / `buf` at least as
    /// long as the dispatcher asserts.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn fft4_c64<L: DitLevel<f64>>(
        levels: &[L],
        rows: &mut [c64],
        stride: usize,
        n: usize,
        buf: &mut [c64],
    ) {
        let rp = rows.as_mut_ptr() as *mut f64;
        let ap = buf.as_mut_ptr() as *mut f64;
        let bp = ap.add(8 * n);
        let rs = 2 * stride;
        // De-interleave the rows into lane-major `a` two elements at a
        // time. The leaves then read one 64-byte element where they would
        // read four rows: at a power-of-two stride those four would share
        // one L1 set with every other element of the leaf.
        let n2 = n / 2 * 2;
        let mut e = 0;
        while e < n2 {
            let p = rp.add(2 * e);
            let r0 = _mm256_loadu_pd(p);
            let r1 = _mm256_loadu_pd(p.add(rs));
            let r2 = _mm256_loadu_pd(p.add(2 * rs));
            let r3 = _mm256_loadu_pd(p.add(3 * rs));
            let re01 = _mm256_unpacklo_pd(r0, r1);
            let im01 = _mm256_unpackhi_pd(r0, r1);
            let re23 = _mm256_unpacklo_pd(r2, r3);
            let im23 = _mm256_unpackhi_pd(r2, r3);
            let first = V4 {
                re: _mm256_permute2f128_pd(re01, re23, 0x20),
                im: _mm256_permute2f128_pd(im01, im23, 0x20),
            };
            let second = V4 {
                re: _mm256_permute2f128_pd(re01, re23, 0x31),
                im: _mm256_permute2f128_pd(im01, im23, 0x31),
            };
            st4(ap, e, first);
            st4(ap, e + 1, second);
            e += 2;
        }
        if n2 < n {
            st4(ap, n2, ld_rows(rp, rs, n2));
        }
        dit4(ap, 0, 1, bp, n, levels);
        // Re-interleave two elements at a time: lanes 0/2 and 1/3 pair up
        // in 128-bit halves, which one cross-half permute sends to rows.
        let mut e = 0;
        while e < n2 {
            let a = ld4(bp, e);
            let b = ld4(bp, e + 1);
            let a02 = _mm256_unpacklo_pd(a.re, a.im);
            let a13 = _mm256_unpackhi_pd(a.re, a.im);
            let b02 = _mm256_unpacklo_pd(b.re, b.im);
            let b13 = _mm256_unpackhi_pd(b.re, b.im);
            let p = rp.add(2 * e);
            _mm256_storeu_pd(p, _mm256_permute2f128_pd(a02, b02, 0x20));
            _mm256_storeu_pd(p.add(rs), _mm256_permute2f128_pd(a13, b13, 0x20));
            _mm256_storeu_pd(p.add(2 * rs), _mm256_permute2f128_pd(a02, b02, 0x31));
            _mm256_storeu_pd(p.add(3 * rs), _mm256_permute2f128_pd(a13, b13, 0x31));
            e += 2;
        }
        if n2 < n {
            let a = ld4(bp, n2);
            let a02 = _mm256_unpacklo_pd(a.re, a.im);
            let a13 = _mm256_unpackhi_pd(a.re, a.im);
            let p = rp.add(2 * n2);
            _mm_storeu_pd(p, _mm256_castpd256_pd128(a02));
            _mm_storeu_pd(p.add(rs), _mm256_castpd256_pd128(a13));
            _mm_storeu_pd(p.add(2 * rs), _mm256_extractf128_pd(a02, 1));
            _mm_storeu_pd(p.add(3 * rs), _mm256_extractf128_pd(a13, 1));
        }
    }

    /// `soifft_fft::Plan`'s recursive decimation-in-time step on four
    /// rows: the `n`-point DFT of lane-major `src[off + i·stride]` into
    /// lane-major `dst[0..n]`.
    ///
    /// # Safety
    /// Requires avx2+fma; the elements `src[off + i·stride]` for `i < n`
    /// and `dst[0..n]` are in bounds. The factor tree is checked level by
    /// level on the way down (a misfit panics).
    #[target_feature(enable = "avx2,fma")]
    unsafe fn dit4<L: DitLevel<f64>>(
        src: *const f64,
        off: usize,
        stride: usize,
        dst: *mut f64,
        n: usize,
        levels: &[L],
    ) {
        match n {
            1 => st4(dst, 0, ld4(src, off)),
            2 => {
                let a = ld4(src, off);
                let b = ld4(src, off + stride);
                st4(dst, 0, add4(a, b));
                st4(dst, 1, sub4(a, b));
            }
            4 => {
                let x = bfly4(
                    ld4(src, off),
                    ld4(src, off + stride),
                    ld4(src, off + 2 * stride),
                    ld4(src, off + 3 * stride),
                );
                for (i, v) in x.into_iter().enumerate() {
                    st4(dst, i, v);
                }
            }
            _ => {
                let (level, below) = levels.split_first().expect("a level per non-leaf");
                // Re-checked here, not only in `dit_tree_fits`: every
                // index below rests on `r·m == n` and the table length,
                // and a `DitLevel` is free to answer differently twice.
                let (r, tw) = (level.radix(), level.twiddles());
                let m = n / r.max(1);
                assert!(
                    matches!(r, 2 | 3 | 4 | 5 | 8) && r * m == n && tw.len() == (r - 1) * m,
                    "factor tree does not fit its length"
                );
                for j in 0..r {
                    dit4(
                        src,
                        off + j * stride,
                        stride * r,
                        dst.add(8 * j * m),
                        m,
                        below,
                    );
                }
                match r {
                    2 => combine2(dst, m, tw),
                    3 => combine3(dst, m, tw),
                    4 => combine4(dst, m, tw),
                    5 => combine5(dst, m, tw),
                    _ => combine8(dst, m, tw),
                }
            }
        }
    }

    // The combines mirror `plan.rs`'s `combine_radix*` expression for
    // expression, with the same constants.

    #[target_feature(enable = "avx2,fma")]
    unsafe fn combine2(dst: *mut f64, m: usize, tw: &[c64]) {
        for (k, &w) in tw.iter().enumerate() {
            let t = cmul4(w, ld4(dst, m + k));
            let a = ld4(dst, k);
            st4(dst, k, add4(a, t));
            st4(dst, m + k, sub4(a, t));
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn combine3(dst: *mut f64, m: usize, tw: &[c64]) {
        let c_3 = _mm256_set1_pd(-0.5);
        let s_3 = _mm256_set1_pd(-0.866_025_403_784_438_6);
        for (k, w) in tw.chunks_exact(2).enumerate() {
            let a = ld4(dst, k);
            let b = cmul4(w[0], ld4(dst, m + k));
            let c = cmul4(w[1], ld4(dst, 2 * m + k));
            let sum = add4(b, c);
            let diff = sub4(b, c);
            let re_part = add4(a, scale4(sum, c_3));
            let im_part = V4 {
                re: _mm256_mul_pd(neg(diff.im), s_3),
                im: _mm256_mul_pd(diff.re, s_3),
            };
            st4(dst, k, add4(a, sum));
            st4(dst, m + k, add4(re_part, im_part));
            st4(dst, 2 * m + k, sub4(re_part, im_part));
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn combine4(dst: *mut f64, m: usize, tw: &[c64]) {
        for (k, w) in tw.chunks_exact(3).enumerate() {
            let x = bfly4(
                ld4(dst, k),
                cmul4(w[0], ld4(dst, m + k)),
                cmul4(w[1], ld4(dst, 2 * m + k)),
                cmul4(w[2], ld4(dst, 3 * m + k)),
            );
            for (q, v) in x.into_iter().enumerate() {
                st4(dst, q * m + k, v);
            }
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn combine5(dst: *mut f64, m: usize, tw: &[c64]) {
        let c1 = _mm256_set1_pd(0.309_016_994_374_947_45);
        let s1 = _mm256_set1_pd(-0.951_056_516_295_153_5);
        let c2 = _mm256_set1_pd(-0.809_016_994_374_947_4);
        let s2 = _mm256_set1_pd(-0.587_785_252_292_473_1);
        for (k, w) in tw.chunks_exact(4).enumerate() {
            let a0 = ld4(dst, k);
            let a1 = cmul4(w[0], ld4(dst, m + k));
            let a2 = cmul4(w[1], ld4(dst, 2 * m + k));
            let a3 = cmul4(w[2], ld4(dst, 3 * m + k));
            let a4 = cmul4(w[3], ld4(dst, 4 * m + k));
            let t1 = add4(a1, a4);
            let t2 = add4(a2, a3);
            let t3 = sub4(a1, a4);
            let t4 = sub4(a2, a3);
            st4(dst, k, add4(add4(a0, t1), t2));
            let r1 = add4(add4(a0, scale4(t1, c1)), scale4(t2, c2));
            let i1 = V4 {
                re: neg(_mm256_add_pd(
                    _mm256_mul_pd(t3.im, s1),
                    _mm256_mul_pd(t4.im, s2),
                )),
                im: _mm256_add_pd(_mm256_mul_pd(t3.re, s1), _mm256_mul_pd(t4.re, s2)),
            };
            let r2 = add4(add4(a0, scale4(t1, c2)), scale4(t2, c1));
            let i2 = V4 {
                re: neg(_mm256_sub_pd(
                    _mm256_mul_pd(t3.im, s2),
                    _mm256_mul_pd(t4.im, s1),
                )),
                im: _mm256_sub_pd(_mm256_mul_pd(t3.re, s2), _mm256_mul_pd(t4.re, s1)),
            };
            st4(dst, m + k, add4(r1, i1));
            st4(dst, 4 * m + k, sub4(r1, i1));
            st4(dst, 2 * m + k, add4(r2, i2));
            st4(dst, 3 * m + k, sub4(r2, i2));
        }
    }

    #[target_feature(enable = "avx2,fma")]
    unsafe fn combine8(dst: *mut f64, m: usize, tw: &[c64]) {
        let h = _mm256_set1_pd(std::f64::consts::FRAC_1_SQRT_2);
        for (k, w) in tw.chunks_exact(7).enumerate() {
            let mut a = [ld4(dst, k); 8];
            for (j, slot) in a.iter_mut().enumerate().skip(1) {
                *slot = cmul4(w[j - 1], ld4(dst, j * m + k));
            }
            let x = bfly4(a[0], a[2], a[4], a[6]);
            let [y0, y1, y2, y3] = bfly4(a[1], a[3], a[5], a[7]);
            let r1 = V4 {
                re: _mm256_mul_pd(_mm256_add_pd(y1.re, y1.im), h),
                im: _mm256_mul_pd(_mm256_sub_pd(y1.im, y1.re), h),
            };
            let r2 = mul_neg_i4(y2);
            let r3 = V4 {
                re: _mm256_mul_pd(_mm256_sub_pd(y3.im, y3.re), h),
                im: _mm256_mul_pd(neg(_mm256_add_pd(y3.re, y3.im)), h),
            };
            for (q, r) in [y0, r1, r2, r3].into_iter().enumerate() {
                st4(dst, q * m + k, add4(x[q], r));
                st4(dst, (q + 4) * m + k, sub4(x[q], r));
            }
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
            assert_eq!(dot_c64(&t, &x), dot_c64_scalar(&t, &x), "dot n={n}");

            let mut a = v64(n, 0.9);
            let mut b = a.clone();
            mul_pointwise_c64(&mut a, &x);
            mul_pointwise_scalar(&mut b, &x);
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
            let x = v32(n, 1.7);
            let mut a = v32(n, 0.9);
            let mut b = a.clone();
            mul_pointwise_c32(&mut a, &x);
            mul_pointwise_scalar(&mut b, &x);
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
    fn backend_name_is_consistent() {
        let name = kernel_backend();
        assert!(name == "avx2" || name == "scalar");
        assert_eq!(name == "avx2", simd_active());
    }
}
