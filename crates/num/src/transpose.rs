//! Cache-blocked matrix transposition.
//!
//! The 6-step local FFT (paper §5.2.2, Fig 4) is built around explicit
//! transposes of the data viewed as a `rows × cols` matrix: steps 1, 4 and 6
//! of the naive variant are full transposes, and the optimized variant still
//! permutes 8×8 tiles when writing results back (§5.2.4 "Step 6 performs
//! global permutation ... transpositions of 8×8 arrays"). The paper reduces
//! the per-tile memory-instruction count with Xeon Phi cross-lane
//! loads/stores; here the same trick is applied with AVX2 in-register
//! shuffles (see [`crate::simd`]) in [`transpose_tile`], with a scalar tile
//! kernel as the bit-identical fallback.
//!
//! The tile kernel is not what limits a large transpose; the order the
//! tiles are visited in is. Walking one 8-row band at a time across all
//! columns writes 128 B into each of `cols` destination rows — a different
//! 4 KiB page each time — before the band moves on, so every destination
//! page is entered `rows / 8` times, cold once the matrix outgrows the
//! caches and the TLB. [`transpose_strided`], the one out-of-place walk in
//! this crate, instead takes the source in bands of one page's worth of
//! rows (256 `c64`, 512 `c32`), so one visit writes a whole page of a
//! destination row; inside a band it
//! goes column tiles outer, row tiles inner, so the 8 destination rows
//! being filled stay hot while the walk moves down the band, and every
//! 128 B source segment it reads is consumed whole. On one core of a
//! 2-core AVX2 VM that took a 512×2048 `c64` transpose from ~6 to
//! ~11 GB/s (median). All entry points are generic over the precision
//! parameter [`Real`].

use crate::complex::Complex;
use crate::real::Real;

/// Tile edge used by the blocked kernels. 8 complex doubles = 128 B = two
/// cache lines per row of a tile, matching the paper's 8×8 transposition
/// unit (a 512-bit vector holds 8 doubles).
pub const TILE: usize = 8;

/// Bytes of one destination row segment written per band visit: a page.
const PAGE_BYTES: usize = 4096;

/// Source rows per band of [`transpose_strided`]: one page of destination
/// row per visit (256 for `c64`, 512 for `c32`).
const fn band_rows<T: Real>() -> usize {
    PAGE_BYTES / std::mem::size_of::<Complex<T>>()
}

/// Out-of-place transpose: `dst[c * rows + r] = src[r * cols + c]`.
///
/// `src` is `rows × cols` row-major; `dst` becomes `cols × rows` row-major.
/// The dense case of [`transpose_strided`].
///
/// # Panics
/// Panics if the slice lengths are not `rows * cols`.
pub fn transpose<T: Real>(src: &[Complex<T>], dst: &mut [Complex<T>], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "src shape mismatch");
    assert_eq!(dst.len(), rows * cols, "dst shape mismatch");
    transpose_strided(src, cols, dst, rows, rows, cols);
}

/// Strided out-of-place transpose of a `rows × cols` block:
/// `dst[c * dst_stride + r] = src[r * src_stride + c]` for `r < rows`,
/// `c < cols`; elements between the block's rows are not touched.
///
/// Page-blocked walk (see the module docs): bands of one page's worth of
/// source rows; inside a band, [`TILE`]-column tiles outer, [`TILE`]-row tiles
/// inner, each tile through [`transpose_tile`].
///
/// # Panics
/// Panics if a stride is narrower than the block or a slice is too short
/// to hold it.
pub fn transpose_strided<T: Real>(
    src: &[Complex<T>],
    src_stride: usize,
    dst: &mut [Complex<T>],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(src_stride >= cols, "src stride narrower than the block");
    assert!(dst_stride >= rows, "dst stride narrower than the block");
    assert!((rows - 1) * src_stride + cols <= src.len(), "src too short");
    assert!((cols - 1) * dst_stride + rows <= dst.len(), "dst too short");
    let band = band_rows::<T>();
    for rb in (0..rows).step_by(band) {
        let re = (rb + band).min(rows);
        for cb in (0..cols).step_by(TILE) {
            let tc = TILE.min(cols - cb);
            for r0 in (rb..re).step_by(TILE) {
                let tr = TILE.min(re - r0);
                let (s, d) = (r0 * src_stride + cb, cb * dst_stride + r0);
                transpose_tile(&src[s..], src_stride, &mut dst[d..], dst_stride, tr, tc);
            }
        }
    }
}

/// Naive (unblocked) transpose; kept as the reference implementation for
/// tests and as the "no locality optimization" point in ablation benches.
pub fn transpose_naive<T: Real>(
    src: &[Complex<T>],
    dst: &mut [Complex<T>],
    rows: usize,
    cols: usize,
) {
    assert_eq!(src.len(), rows * cols, "src shape mismatch");
    assert_eq!(dst.len(), rows * cols, "dst shape mismatch");
    for r in 0..rows {
        for c in 0..cols {
            dst[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Transposes one `TILE × TILE` tile between two buffers with explicit
/// source/destination strides. This is the portable stand-in for the paper's
/// cross-lane 8×8 transposition kernel; the 6-step FFT's write-back
/// permutation is assembled from calls to this. Dispatches to the AVX2
/// in-register shuffle kernel when the host supports it (bit-identical to
/// the scalar path — a transpose is pure data movement).
///
/// Copies `min(TILE, rows_left) × min(TILE, cols_left)` elements.
#[inline]
pub fn transpose_tile<T: Real>(
    src: &[Complex<T>],
    src_stride: usize,
    dst: &mut [Complex<T>],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    T::ktranspose_tile(src, src_stride, dst, dst_stride, rows, cols);
}

/// Scalar reference tile kernel (public so the parity suite and the
/// SIMD module's edge handling can share it).
#[inline]
pub fn transpose_tile_scalar<T: Real>(
    src: &[Complex<T>],
    src_stride: usize,
    dst: &mut [Complex<T>],
    dst_stride: usize,
    rows: usize,
    cols: usize,
) {
    debug_assert!(rows <= TILE && cols <= TILE);
    for r in 0..rows {
        for c in 0..cols {
            dst[c * dst_stride + r] = src[r * src_stride + c];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::{c32, c64};

    fn mat(rows: usize, cols: usize) -> Vec<c64> {
        (0..rows * cols)
            .map(|i| c64::new(i as f64, (i * i % 97) as f64))
            .collect()
    }

    #[test]
    fn blocked_matches_naive_various_shapes() {
        for &(r, c) in &[
            (1, 1),
            (1, 17),
            (17, 1),
            (8, 8),
            (16, 32),
            (13, 7),
            (40, 24),
            (9, 64),
            (300, 21),
            (5, 530),
        ] {
            let src = mat(r, c);
            let mut a = vec![c64::ZERO; r * c];
            let mut b = vec![c64::ZERO; r * c];
            transpose(&src, &mut a, r, c);
            transpose_naive(&src, &mut b, r, c);
            assert_eq!(a, b, "shape {r}x{c}");
        }
    }

    #[test]
    fn blocked_matches_naive_f32() {
        for &(r, c) in &[(1, 1), (8, 8), (16, 32), (13, 7), (9, 64)] {
            let src: Vec<c32> = mat(r, c).iter().map(|&z| c32::from_c64(z)).collect();
            let mut a = vec![c32::ZERO; r * c];
            let mut b = vec![c32::ZERO; r * c];
            transpose(&src, &mut a, r, c);
            transpose_naive(&src, &mut b, r, c);
            assert_eq!(a, b, "shape {r}x{c}");
        }
    }

    #[test]
    fn strided_block_spans_bands_and_leaves_padding_alone() {
        // 600 rows = two full c64 bands plus a ragged one; both strides
        // pad past the block.
        let (rows, cols, ss, ds) = (600, 13, 17, 605);
        assert!(rows > 2 * band_rows::<f64>());
        let src = mat(rows, ss);
        let sentinel = c64::new(-1.0, -1.0);
        let mut dst = vec![sentinel; cols * ds];
        transpose_strided(&src, ss, &mut dst, ds, rows, cols);
        for c in 0..cols {
            for r in 0..ds {
                let want = if r < rows { src[r * ss + c] } else { sentinel };
                assert_eq!(dst[c * ds + r], want, "({r}, {c})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "dst too short")]
    fn strided_checks_the_destination_extent() {
        let src = mat(4, 4);
        let mut dst = vec![c64::ZERO; 3 * 5 + 3];
        transpose_strided(&src, 4, &mut dst, 5, 4, 4);
    }

    #[test]
    fn transpose_is_involution() {
        let (r, c) = (12, 20);
        let src = mat(r, c);
        let mut t = vec![c64::ZERO; r * c];
        let mut back = vec![c64::ZERO; r * c];
        transpose(&src, &mut t, r, c);
        transpose(&t, &mut back, c, r);
        assert_eq!(back, src);
    }

    #[test]
    fn tile_kernel_moves_correct_elements() {
        let src = mat(TILE, TILE);
        let mut dst = vec![c64::ZERO; TILE * TILE];
        transpose_tile(&src, TILE, &mut dst, TILE, TILE, TILE);
        let mut expect = vec![c64::ZERO; TILE * TILE];
        transpose_naive(&src, &mut expect, TILE, TILE);
        assert_eq!(dst, expect);
    }

    #[test]
    fn tile_kernel_partial_tile() {
        // 3×5 corner of a larger matrix, strides differ from tile size.
        let rows = 3;
        let cols = 5;
        let src_stride = 11;
        let dst_stride = 9;
        let src: Vec<c64> = (0..src_stride * rows)
            .map(|i| c64::real(i as f64))
            .collect();
        let mut dst = vec![c64::ZERO; dst_stride * cols];
        transpose_tile(&src, src_stride, &mut dst, dst_stride, rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(dst[c * dst_stride + r], src[r * src_stride + c]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let src = mat(4, 4);
        let mut dst = vec![c64::ZERO; 15];
        transpose(&src, &mut dst, 4, 4);
    }
}
