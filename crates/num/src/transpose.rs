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
//! The tile kernel is not what limits a large transpose; the addresses the
//! walk reads are. A tile reads 128 B from each of 8 source rows, and the
//! Cooley–Tukey exchange hands over parts whose rows sit 16 KiB apart
//! (1024 `c64`): every row of a band lands in the same L1 set and on its
//! own page, so no prefetcher follows the walk and each 128 B segment is
//! a fresh miss. The earlier page-blocked walk (8-row tiles straight from
//! the source, one page of destination row per band) moved two 512×1024
//! `c64` parts into stride 1024 in 9.6–11.9 ms on one core of a 2-core
//! AVX2 VM, against 3.1–4.0 ms for a plain copy of the same 16 MB (median
//! of 9 per run, six runs).
//!
//! [`transpose_strided`], the one out-of-place walk in this crate, stages
//! instead: for each block of [`STAGE_ROWS`] source rows × [`STAGE_COLS`]
//! source columns it copies the block's contiguous row runs (1 KiB of
//! `c64`) into a caller-owned stage, then transposes the stage out tile by
//! tile, column tiles outer, so each destination row receives one
//! [`STAGE_ROWS`]-element run (a 4 KiB page of `c64`) front to back. The
//! same parts then take 5.8–6.5 ms, in the same runs. The walk can also
//! multiply by a destination-order diagonal while the runs it just wrote
//! are in L1 (§5.2.4's fused demodulation), with the same `v * m` a
//! separate pass would do.
//!
//! Large allocations start 16 B past a cache line, so half of the 32 B
//! tile stores into such a destination would straddle two lines. When
//! every destination row shares one misalignment (`dst_stride` elements
//! span whole [`STORE_ALIGN`] units), the walk first writes the source
//! rows up to the destination's first [`STORE_ALIGN`] boundary (at most
//! one `c64` row, three `c32` rows) as a leading strip, a block of its
//! own, so every row block after it starts aligned. Blocks of fewer than
//! three tile rows skip it: there the extra partial tiles cost more than
//! the aligned stores save.
//!
//! The stage rows are not padded: a tile reads 128 B from 8 of them,
//! 1 KiB apart, which take two lines in each of 8 of the L1's 64 sets
//! (12 ways), and each segment is consumed whole. A 64 + 4 stride timed the same. Blocks that already sit
//! in cache pay the stage copy without the gain: the 6-step's column
//! groups at M' = 5·2^15 time the same as before, and a 320-point 6-step
//! (one 16×20 block per transpose) pays about 0.16 µs per transpose. All
//! entry points are generic over the precision parameter [`Real`].

use crate::complex::Complex;
use crate::real::Real;

/// Tile edge used by the blocked kernels. 8 complex doubles = 128 B = two
/// cache lines per row of a tile, matching the paper's 8×8 transposition
/// unit (a 512-bit vector holds 8 doubles).
pub const TILE: usize = 8;

/// Source rows per block of [`transpose_strided`]: each destination row
/// takes a run this long per block, one 4 KiB page of `c64`.
pub const STAGE_ROWS: usize = 256;

/// Source columns per block of [`transpose_strided`]: each source row
/// gives up one contiguous run this long per block, 1 KiB of `c64`.
pub const STAGE_COLS: usize = 64;

/// Width in bytes of one tile store (an AVX2 vector). Large allocations
/// start 16 B past a cache line, so a destination row that starts there
/// would split every other 32 B store across two lines.
pub const STORE_ALIGN: usize = 32;

/// Stage elements [`transpose_strided`] needs for blocks of up to
/// `rows × cols`: the first [`STAGE_ROWS`] × [`STAGE_COLS`] of it, so
/// never more than the block itself. A caller that moves several shapes
/// through one stage sizes it by the largest of these.
pub fn stage_len(rows: usize, cols: usize) -> usize {
    rows.min(STAGE_ROWS) * cols.min(STAGE_COLS)
}

/// Out-of-place transpose: `dst[c * rows + r] = src[r * cols + c]`.
///
/// `src` is `rows × cols` row-major; `dst` becomes `cols × rows` row-major.
/// The dense, unscaled case of [`transpose_strided`], with a stage
/// allocated per call.
///
/// # Panics
/// Panics if the slice lengths are not `rows * cols`.
pub fn transpose<T: Real>(src: &[Complex<T>], dst: &mut [Complex<T>], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "src shape mismatch");
    assert_eq!(dst.len(), rows * cols, "dst shape mismatch");
    let mut stage = vec![Complex::<T>::ZERO; stage_len(rows, cols)];
    transpose_strided(src, cols, dst, rows, (rows, cols), None, &mut stage);
}

/// Strided out-of-place transpose of a `rows × cols` block, optionally
/// scaled in destination order:
/// `dst[c * dst_stride + r] = src[r * src_stride + c]`, times
/// `scale[c * dst_stride + r]` when `scale` is given, for `r < rows`,
/// `c < cols`; elements between the block's rows are not touched.
///
/// Staged walk (see the module docs): blocks of [`STAGE_ROWS`] ×
/// [`STAGE_COLS`], each copied run by run into `stage` and transposed out
/// through [`transpose_tile`]. The scale multiplies each group of
/// [`TILE`] destination runs right after it is written, through the
/// pointwise multiply kernel ([`crate::simd::mul_pointwise_c64`], bitwise
/// `*v *= m`), so the result is bit for bit a transpose followed by that
/// multiply.
///
/// # Panics
/// Panics if a stride is narrower than the block, a slice is too short to
/// hold it, or `stage` is shorter than [`stage_len`]`(rows, cols)`.
pub fn transpose_strided<T: Real>(
    src: &[Complex<T>],
    src_stride: usize,
    dst: &mut [Complex<T>],
    dst_stride: usize,
    (rows, cols): (usize, usize),
    scale: Option<&[Complex<T>]>,
    stage: &mut [Complex<T>],
) {
    if rows == 0 || cols == 0 {
        return;
    }
    assert!(src_stride >= cols, "src stride narrower than the block");
    assert!(dst_stride >= rows, "dst stride narrower than the block");
    let dst_extent = (cols - 1) * dst_stride + rows;
    assert!((rows - 1) * src_stride + cols <= src.len(), "src too short");
    assert!(dst_extent <= dst.len(), "dst too short");
    assert!(
        scale.is_none_or(|s| dst_extent <= s.len()),
        "scale too short"
    );
    assert!(stage.len() >= stage_len(rows, cols), "stage too short");
    let sw = cols.min(STAGE_COLS);
    let lead = leading_strip(dst, dst_stride, rows);
    for cb in (0..cols).step_by(STAGE_COLS) {
        let bc = STAGE_COLS.min(cols - cb);
        let strip = (lead > 0).then_some((0, lead));
        let blocks = (lead..rows).step_by(STAGE_ROWS);
        for (rb, br) in strip
            .into_iter()
            .chain(blocks.map(|rb| (rb, STAGE_ROWS.min(rows - rb))))
        {
            for (r, run) in stage.chunks_exact_mut(sw).take(br).enumerate() {
                let s = (rb + r) * src_stride + cb;
                run[..bc].copy_from_slice(&src[s..s + bc]);
            }
            for c0 in (0..bc).step_by(TILE) {
                let tc = TILE.min(bc - c0);
                let d0 = (cb + c0) * dst_stride + rb;
                for r0 in (0..br).step_by(TILE) {
                    let tr = TILE.min(br - r0);
                    let (s, d) = (r0 * sw + c0, d0 + r0);
                    transpose_tile(&stage[s..], sw, &mut dst[d..], dst_stride, tr, tc);
                }
                if let Some(scale) = scale {
                    for at in (d0..).step_by(dst_stride).take(tc) {
                        T::kmul_pointwise(&mut dst[at..at + br], &scale[at..at + br]);
                    }
                }
            }
        }
    }
}

/// Source rows [`transpose_strided`] writes as a leading strip before
/// its row blocks, so every tile store after it starts on a
/// [`STORE_ALIGN`] boundary: the elements from `dst` to the first aligned
/// address, when every destination row shares that misalignment
/// (`dst_stride` elements span whole [`STORE_ALIGN`] units) and the block
/// has at least three tile rows; else 0. The strip is one more partial
/// tile per column tile, which a shorter block does not earn back: with
/// it on every block, the transposes of a 16 × 20 6-step ran 9–25 %
/// slower, those of 32 × 40 up to 320 × 512 10–23 % faster.
fn leading_strip<T: Real>(dst: &[Complex<T>], dst_stride: usize, rows: usize) -> usize {
    let unit = std::mem::size_of::<Complex<T>>();
    if rows < 3 * TILE || !(dst_stride * unit).is_multiple_of(STORE_ALIGN) {
        return 0;
    }
    let lead = dst.as_ptr().align_offset(STORE_ALIGN);
    if lead < rows {
        lead
    } else {
        0
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
    fn strided_block_spans_stages_and_leaves_padding_alone() {
        // 600 rows × 150 columns = two full stage blocks plus a ragged one
        // on each axis; both strides pad past the block.
        let (rows, cols, ss, ds) = (600, 150, 157, 605);
        assert!(rows > 2 * STAGE_ROWS && cols > 2 * STAGE_COLS);
        let src = mat(rows, ss);
        let sentinel = c64::new(-1.0, -1.0);
        let mut dst = vec![sentinel; cols * ds];
        let mut stage = vec![c64::ZERO; stage_len(rows, cols)];
        transpose_strided(&src, ss, &mut dst, ds, (rows, cols), None, &mut stage);
        for c in 0..cols {
            for r in 0..ds {
                let want = if r < rows { src[r * ss + c] } else { sentinel };
                assert_eq!(dst[c * ds + r], want, "({r}, {c})");
            }
        }
    }

    /// `transpose_strided` into `buf[off..]` (so the leading strip sees
    /// every misalignment `off` gives) against a naive transpose placed
    /// at the same offset and then `*v *= m`, bit for bit.
    fn strided_matches_naive_at<T: Real>(
        conv: fn(c64) -> Complex<T>,
        off: usize,
        (rows, cols, ss, ds): (usize, usize, usize, usize),
        scaled: bool,
    ) {
        let dense: Vec<Complex<T>> = mat(rows, cols).into_iter().map(conv).collect();
        let mut src = vec![Complex::<T>::ZERO; (rows - 1) * ss + cols];
        for (r, row) in dense.chunks_exact(cols).enumerate() {
            src[r * ss..r * ss + cols].copy_from_slice(row);
        }
        let len = off + (cols - 1) * ds + rows;
        let scale: Vec<Complex<T>> = (0..len)
            .map(|i| conv(c64::new(1.0 + (i % 7) as f64 / 3.0, (i % 5) as f64 / 7.0)))
            .collect();
        let sentinel = conv(c64::new(-1.0, -1.0));
        let mut t = vec![Complex::<T>::ZERO; rows * cols];
        transpose_naive(&dense, &mut t, rows, cols);
        let mut want = vec![sentinel; len];
        for (c, run) in t.chunks_exact(rows).enumerate() {
            let at = off + c * ds;
            want[at..at + rows].copy_from_slice(run);
            if scaled {
                for (v, &m) in want[at..at + rows].iter_mut().zip(&scale[at..]) {
                    *v *= m;
                }
            }
        }
        let mut got = vec![sentinel; len];
        let mut stage = vec![Complex::<T>::ZERO; stage_len(rows, cols)];
        let sc = scaled.then_some(&scale[off..]);
        transpose_strided(&src, ss, &mut got[off..], ds, (rows, cols), sc, &mut stage);
        let bits = |v: &[Complex<T>]| -> Vec<(u64, u64)> {
            let b = |x: T| x.to_f64().to_bits();
            v.iter().map(|z| (b(z.re), b(z.im))).collect()
        };
        assert!(
            bits(&got) == bits(&want),
            "off {off}, {rows}x{cols}, strides {ss}/{ds}, scaled {scaled}"
        );
    }

    #[test]
    fn strided_leading_strip_matches_naive_at_every_offset() {
        // (rows, cols, src stride, dst stride): ragged blocks past a
        // stage in both axes, blocks at and past the strip's three tile
        // rows, 1-row and 1-column blocks, and destination strides that
        // do (x·4 c64 / x·8 c32) and do not keep one misalignment across
        // rows.
        let shapes = [
            (300, 70, 77, 304),
            (300, 70, 70, 301),
            (24, 9, 9, 28),
            (33, 17, 20, 36),
            (40, 1, 1, 40),
            (1, 9, 9, 8),
            (1, 9, 11, 3),
            (2, 5, 5, 8),
            (13, 1, 1, 16),
            (16, 20, 20, 16),
            (20, 16, 16, 24),
            (9, 64, 64, 12),
            (8, 8, 8, 10),
        ];
        for &shape in &shapes {
            for scaled in [false, true] {
                for off in 0..4 {
                    strided_matches_naive_at::<f64>(|z| z, off, shape, scaled);
                }
                for off in 0..8 {
                    strided_matches_naive_at::<f32>(c32::from_c64, off, shape, scaled);
                }
            }
        }
    }

    #[test]
    fn leading_strip_aligns_the_row_blocks() {
        let buf = vec![c64::ZERO; 64];
        let base = buf.as_ptr().align_offset(STORE_ALIGN);
        for off in 0..4 {
            let dst = &buf[base + off..];
            // Strided by whole 32 B units: the strip reaches the next one.
            let lead = leading_strip(dst, 8, 40);
            assert_eq!(lead, (2 - off % 2) % 2, "off {off}");
            assert_eq!((dst[lead..].as_ptr() as usize) % STORE_ALIGN, 0);
            // Rows alternate misalignment, or the block is short: none.
            assert_eq!(leading_strip(dst, 9, 40), 0);
            assert_eq!(leading_strip(dst, 8, 3 * TILE - 1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "dst too short")]
    fn strided_checks_the_destination_extent() {
        let src = mat(4, 4);
        let mut dst = vec![c64::ZERO; 3 * 5 + 3];
        let mut stage = vec![c64::ZERO; stage_len(4, 4)];
        transpose_strided(&src, 4, &mut dst, 5, (4, 4), None, &mut stage);
    }

    #[test]
    #[should_panic(expected = "stage too short")]
    fn strided_checks_the_stage() {
        let src = mat(4, 4);
        let mut dst = vec![c64::ZERO; 16];
        let mut stage = vec![c64::ZERO; 15];
        transpose_strided(&src, 4, &mut dst, 4, (4, 4), None, &mut stage);
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
