//! Strided gather/scatter copies.
//!
//! Long-stride access is the recurring villain of the paper (§5.2.1: "the
//! memory accesses will be in larger strides, sometimes greater than a page
//! size"; §5.3: "conflict misses from long-stride access to input"). The
//! standard cure, used by the 6-step FFT, is to *stage* strided data
//! through a small contiguous buffer and run the compute kernel on the
//! buffer. These helpers are those staging copies,
//! generic over the precision parameter [`Real`].

use crate::complex::Complex;
use crate::real::Real;

/// Gathers `count` elements from `src` starting at `offset` with the given
/// `stride` into the contiguous `dst`.
///
/// `dst.len()` must be at least `count`.
pub fn gather<T: Real>(
    src: &[Complex<T>],
    offset: usize,
    stride: usize,
    count: usize,
    dst: &mut [Complex<T>],
) {
    assert!(stride >= 1, "stride must be >= 1");
    assert!(dst.len() >= count, "dst too small");
    let mut idx = offset;
    for d in dst.iter_mut().take(count) {
        *d = src[idx];
        idx += stride;
    }
}

/// Scatters the first `count` elements of the contiguous `src` into `dst`
/// starting at `offset` with the given `stride`.
pub fn scatter<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    offset: usize,
    stride: usize,
    count: usize,
) {
    assert!(stride >= 1, "stride must be >= 1");
    assert!(src.len() >= count, "src too small");
    let mut idx = offset;
    for s in src.iter().take(count) {
        dst[idx] = *s;
        idx += stride;
    }
}

/// Gathers a `rows × cols` sub-matrix laid out with `row_stride` in `src`
/// into a dense row-major `dst` (the "copy P × 8 columns to a contiguous
/// buffer" move from Fig 4(b) step 1).
pub fn gather_matrix<T: Real>(
    src: &[Complex<T>],
    base: usize,
    row_stride: usize,
    rows: usize,
    cols: usize,
    dst: &mut [Complex<T>],
) {
    assert!(dst.len() >= rows * cols, "dst too small");
    for r in 0..rows {
        let row = base + r * row_stride;
        dst[r * cols..r * cols + cols].copy_from_slice(&src[row..row + cols]);
    }
}

/// Scatters a dense row-major `rows × cols` matrix from `src` back into a
/// strided region of `dst` (Fig 4(b) step 4 "permute and write back").
pub fn scatter_matrix<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    base: usize,
    row_stride: usize,
    rows: usize,
    cols: usize,
) {
    assert!(src.len() >= rows * cols, "src too small");
    for r in 0..rows {
        let row = base + r * row_stride;
        dst[row..row + cols].copy_from_slice(&src[r * cols..r * cols + cols]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::c64;

    fn data(n: usize) -> Vec<c64> {
        (0..n).map(|i| c64::new(i as f64, 0.0)).collect()
    }

    #[test]
    fn gather_then_scatter_round_trips() {
        let src = data(64);
        let mut buf = vec![c64::ZERO; 8];
        gather(&src, 3, 7, 8, &mut buf);
        for (k, &b) in buf.iter().enumerate() {
            assert_eq!(b, src[3 + 7 * k]);
        }
        let mut dst = vec![c64::ZERO; 64];
        scatter(&buf, &mut dst, 3, 7, 8);
        for k in 0..8 {
            assert_eq!(dst[3 + 7 * k], src[3 + 7 * k]);
        }
    }

    #[test]
    fn gather_unit_stride_is_memcpy() {
        let src = data(16);
        let mut buf = vec![c64::ZERO; 16];
        gather(&src, 0, 1, 16, &mut buf);
        assert_eq!(buf, src);
    }

    #[test]
    fn matrix_gather_scatter_round_trip() {
        let stride = 13;
        let src = data(stride * 6);
        let mut dense = vec![c64::ZERO; 4 * 5];
        gather_matrix(&src, 2, stride, 4, 5, &mut dense);
        for r in 0..4 {
            for c in 0..5 {
                assert_eq!(dense[r * 5 + c], src[2 + r * stride + c]);
            }
        }
        let mut dst = vec![c64::ZERO; stride * 6];
        scatter_matrix(&dense, &mut dst, 2, stride, 4, 5);
        for r in 0..4 {
            for c in 0..5 {
                assert_eq!(dst[2 + r * stride + c], dense[r * 5 + c]);
            }
        }
    }
}
