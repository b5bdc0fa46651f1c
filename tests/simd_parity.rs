//! Scalar ↔ SIMD bit-parity for the hot kernels in `soifft_num::simd`.
//!
//! The dispatchers promise that the AVX2 path is **bit-identical** to the
//! scalar fallback on the same inputs (the scalar references mirror the
//! vector accumulator-lane structure, so even the reduction order
//! matches). These properties pin that promise across random lengths —
//! including the ragged tails the vector kernels handle specially — and
//! random finite values.
//!
//! On hosts without AVX2+FMA (or with `SOIFFT_FORCE_SCALAR=1`) the
//! dispatchers take the scalar path and every property holds trivially;
//! the CI matrix runs both configurations.

use proptest::prelude::*;
use soifft::num::kernels;
use soifft::num::simd;
use soifft::num::{c32, c64, Complex, Real};

/// Deterministic finite values in [-1, 1); same xorshift as the bench
/// signal generator so failures reproduce from `(len, seed)` alone.
fn stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }
}

fn vec_c64(len: usize, seed: u64) -> Vec<c64> {
    let mut next = stream(seed);
    (0..len).map(|_| c64::new(next(), next())).collect()
}

fn vec_c32(len: usize, seed: u64) -> Vec<c32> {
    let mut next = stream(seed);
    (0..len)
        .map(|_| c32::new(next() as f32, next() as f32))
        .collect()
}

fn bits64(v: &[c64]) -> Vec<(u64, u64)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

fn bits32(v: &[c32]) -> Vec<(u32, u32)> {
    v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `dot` (c64): dispatcher == two-lane scalar reference, bitwise.
    #[test]
    fn dot_c64_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t = vec_c64(len, seed);
        let x = vec_c64(len, seed ^ 0xABCD);
        let got = simd::dot_c64(&t, &x);
        let want = kernels::dot_scalar(&t, &x);
        prop_assert_eq!(got.re.to_bits(), want.re.to_bits());
        prop_assert_eq!(got.im.to_bits(), want.im.to_bits());
    }

    /// `dot` (c32): dispatcher == four-lane scalar reference, bitwise.
    #[test]
    fn dot_c32_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t = vec_c32(len, seed);
        let x = vec_c32(len, seed ^ 0xABCD);
        let got = simd::dot_c32(&t, &x);
        let want = simd::dot_c32_scalar(&t, &x);
        prop_assert_eq!(got.re.to_bits(), want.re.to_bits());
        prop_assert_eq!(got.im.to_bits(), want.im.to_bits());
    }

    /// Split dot (f32 operands, f64 accumulate): widening makes every
    /// product exact, so SIMD and scalar agree bitwise too.
    #[test]
    fn dot_split_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t = vec_c32(len, seed);
        let x = vec_c32(len, seed ^ 0xABCD);
        let got = simd::dot_split(&t, &x);
        let want = simd::dot_split_scalar(&t, &x);
        prop_assert_eq!(got.re.to_bits(), want.re.to_bits());
        prop_assert_eq!(got.im.to_bits(), want.im.to_bits());
    }

    /// Pointwise multiply, both widths (element-wise: no reduction order
    /// to worry about, but FMA contraction must round identically).
    #[test]
    fn mul_pointwise_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let scale64 = vec_c64(len, seed ^ 0x5A5A);
        let mut a64 = vec_c64(len, seed);
        let mut b64 = a64.clone();
        simd::mul_pointwise_c64(&mut a64, &scale64);
        kernels::mul_pointwise_scalar(&mut b64, &scale64);
        prop_assert_eq!(bits64(&a64), bits64(&b64));

        let scale32 = vec_c32(len, seed ^ 0x5A5A);
        let mut a32 = vec_c32(len, seed);
        let mut b32 = a32.clone();
        simd::mul_pointwise_c32(&mut a32, &scale32);
        kernels::mul_pointwise_scalar(&mut b32, &scale32);
        prop_assert_eq!(bits32(&a32), bits32(&b32));
    }

    /// Planar (SoA) pointwise multiply over split re/im arrays.
    #[test]
    fn mul_pointwise_planar_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let mut next = stream(seed);
        let mut are: Vec<f64> = (0..len).map(|_| next()).collect();
        let mut aim: Vec<f64> = (0..len).map(|_| next()).collect();
        let bre: Vec<f64> = (0..len).map(|_| next()).collect();
        let bim: Vec<f64> = (0..len).map(|_| next()).collect();
        let mut sre = are.clone();
        let mut sim_ = aim.clone();
        simd::mul_pointwise_planar_f64(&mut are, &mut aim, &bre, &bim);
        simd::mul_pointwise_planar_scalar(&mut sre, &mut sim_, &bre, &bim);
        let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(b(&are), b(&sre));
        prop_assert_eq!(b(&aim), b(&sim_));
    }

    /// Accumulating pointwise multiply (`acc += t·x`), all three widths.
    #[test]
    fn axpy_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let t64 = vec_c64(len, seed ^ 1);
        let x64 = vec_c64(len, seed ^ 2);
        let mut a = vec_c64(len, seed);
        let mut b = a.clone();
        simd::axpy_pointwise_c64(&mut a, &t64, &x64);
        kernels::axpy_pointwise_scalar(&mut b, &t64, &x64);
        prop_assert_eq!(bits64(&a), bits64(&b));

        let t32 = vec_c32(len, seed ^ 1);
        let x32 = vec_c32(len, seed ^ 2);
        let mut a32 = vec_c32(len, seed);
        let mut b32 = a32.clone();
        simd::axpy_pointwise_c32(&mut a32, &t32, &x32);
        kernels::axpy_pointwise_scalar(&mut b32, &t32, &x32);
        prop_assert_eq!(bits32(&a32), bits32(&b32));

        let mut acc_a = vec_c64(len, seed);
        let mut acc_b = acc_a.clone();
        simd::axpy_split(&mut acc_a, &t32, &x32);
        simd::axpy_split_scalar(&mut acc_b, &t32, &x32);
        prop_assert_eq!(bits64(&acc_a), bits64(&acc_b));
    }

    /// Convolution panel kernel: every phase count that splits the
    /// register groups differently (2; 5; 5+3; 5+4), odd tap counts, and
    /// row widths whose last panel is full (16, 20) or a 2-column tail
    /// (6, 10) — plus 1- and 3-column tails via `l − 1`. Outputs past the
    /// panel's width must stay untouched in both paths.
    #[test]
    fn conv_panel_parity(
        n_mu in prop::sample::select(vec![2usize, 5, 8, 9]),
        half_b in 0usize..13,
        l in prop::sample::select(vec![5usize, 6, 7, 10, 16, 20]),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let b = 2 * half_b + 1;
        let lanes = 2 * simd::CONV_PANEL;
        let mut next = stream(seed);
        let x = vec_c64(b * l, seed ^ 0x11);
        for p0 in (0..l).step_by(simd::CONV_PANEL) {
            let width = simd::CONV_PANEL.min(l - p0);
            let mut taps = vec![0.0; b * n_mu * lanes];
            for pair in taps.chunks_exact_mut(2) {
                pair.fill(next());
            }
            let phi = vec_c64(n_mu * simd::CONV_PANEL, seed ^ p0 as u64);
            let untouched = vec_c64(n_mu * l - p0, seed ^ 0x22);
            let mut a = untouched.clone();
            let mut want = a.clone();
            simd::conv_panel_c64(&taps, &phi, n_mu, &x[p0..], l, width, &mut a);
            simd::conv_panel_c64_scalar(&taps, &phi, n_mu, &x[p0..], l, width, &mut want);
            prop_assert_eq!(bits64(&a), bits64(&want));
            for (i, (got, before)) in a.iter().zip(&untouched).enumerate() {
                if !(p0..p0 + width).contains(&((p0 + i) % l)) {
                    prop_assert_eq!(got, before);
                }
            }
            // The mirror really is the definition, to rounding.
            for j in 0..n_mu {
                for q in 0..width {
                    let sum = (0..b).fold(c64::ZERO, |acc, bb| {
                        acc + x[p0 + bb * l + q] * taps[(bb * n_mu + j) * lanes + 2 * q]
                    });
                    let expect = sum * phi[j * simd::CONV_PANEL + q];
                    prop_assert!((a[j * l + q] - expect).abs() < 1e-12);
                }
            }
        }
    }

    /// Precision-conversion kernels: exact widening and pure bit
    /// movement, so SIMD must equal scalar on every length (odd tails
    /// exercise the pad-dropping path).
    #[test]
    fn conversion_parity(len in 0usize..70, seed in proptest::prelude::any::<u64>()) {
        let s = vec_c32(len, seed);
        let mut a = vec![c64::ZERO; len];
        let mut b = a.clone();
        simd::promote_c32_c64(&s, &mut a);
        simd::promote_c32_c64_scalar(&s, &mut b);
        prop_assert_eq!(bits64(&a), bits64(&b));

        let wire = vec_c64(len.div_ceil(2), seed ^ 0x77);
        let mut a32 = vec![c32::ZERO; len];
        let mut b32 = a32.clone();
        simd::unpack_c32_pairs(&wire, &mut a32);
        simd::unpack_c32_pairs_scalar(&wire, &mut b32);
        prop_assert_eq!(bits32(&a32), bits32(&b32));
    }

    /// Cache-blocked transpose tile: pure data movement, so parity means
    /// the vector gather/scatter visits exactly the scalar's elements —
    /// ragged edge tiles included. Tiles are ≤ TILE×TILE (8×8) by the
    /// kernel's contract.
    #[test]
    fn transpose_tile_parity(
        rows in 1usize..9,
        cols in 1usize..9,
        seed in proptest::prelude::any::<u64>(),
    ) {
        // Strides ≥ the tile so tiles embed in a larger matrix.
        let src_stride = cols + (seed % 3) as usize;
        let dst_stride = rows + (seed % 5) as usize;

        let src64 = vec_c64(rows * src_stride, seed);
        let mut a = vec![c64::ZERO; cols * dst_stride];
        let mut b = a.clone();
        simd::transpose_tile_c64(&src64, src_stride, &mut a, dst_stride, rows, cols);
        soifft::num::transpose::transpose_tile_scalar(
            &src64, src_stride, &mut b, dst_stride, rows, cols,
        );
        prop_assert_eq!(bits64(&a), bits64(&b));

        let src32 = vec_c32(rows * src_stride, seed);
        let mut a32 = vec![c32::ZERO; cols * dst_stride];
        let mut b32 = a32.clone();
        simd::transpose_tile_c32(&src32, src_stride, &mut a32, dst_stride, rows, cols);
        soifft::num::transpose::transpose_tile_scalar(
            &src32, src_stride, &mut b32, dst_stride, rows, cols,
        );
        prop_assert_eq!(bits32(&a32), bits32(&b32));
    }

    /// The page-blocked transpose walk (`transpose_strided`, and
    /// `transpose` as its dense case) == `transpose_naive`, both widths:
    /// ragged sides, blocks taller than one band (256 `c64` / 512 `c32`
    /// rows), strides wider than the block, and padding left untouched.
    #[test]
    fn transpose_walk_matches_naive(
        tall in prop::sample::select(vec![false, true]),
        short_rows in 1usize..40,
        tall_rows in 250usize..1100,
        cols in 1usize..30,
        src_pad in 0usize..4,
        dst_pad in 0usize..4,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let rows = if tall { tall_rows } else { short_rows };
        let (ss, ds) = (cols + src_pad, rows + dst_pad);
        let (shape, len) = ((rows, cols, ss, ds), rows * ss + cols * ds);
        let [(a, b), (c, d)] = walk_vs_naive(shape, vec_c64(len, seed));
        prop_assert_eq!(bits64(&a), bits64(&b));
        prop_assert_eq!(bits64(&c), bits64(&d));
        let [(a, b), (c, d)] = walk_vs_naive(shape, vec_c32(len, seed));
        prop_assert_eq!(bits32(&a), bits32(&b));
        prop_assert_eq!(bits32(&c), bits32(&d));
    }
}

/// A walk's output and its reference.
type GotWant<T> = (Vec<Complex<T>>, Vec<Complex<T>>);

/// `[(strided, naive), (dense, naive)]` for one `rows × cols` block
/// embedded at strides `(ss, ds)`, source then destination filled from
/// `pool` (`rows·ss + cols·ds` distinct values). The strided
/// reference is `transpose_naive` of the extracted block, written back
/// row by row over the same padded destination.
fn walk_vs_naive<T: Real>(
    (rows, cols, ss, ds): (usize, usize, usize, usize),
    pool: Vec<Complex<T>>,
) -> [GotWant<T>; 2] {
    use soifft::num::transpose::{transpose, transpose_naive, transpose_strided};
    let (src, fill) = pool.split_at(rows * ss);
    let fill = fill.to_vec();
    let mut strided = fill.clone();
    transpose_strided(src, ss, &mut strided, ds, rows, cols);

    let block: Vec<_> = src.chunks(ss).flat_map(|r| &r[..cols]).copied().collect();
    let mut t = block.clone();
    transpose_naive(&block, &mut t, rows, cols);
    let mut want = fill;
    for (dst_row, t_row) in want.chunks_mut(ds).zip(t.chunks_exact(rows)) {
        dst_row[..rows].copy_from_slice(t_row);
    }

    let mut dense = block.clone();
    transpose(&block, &mut dense, rows, cols);
    [(strided, want), (dense, t)]
}

/// The generic hot-kernel entry points (`kernels::dot`, `::mul_pointwise`,
/// `::axpy_pointwise`) route through the same dispatchers — spot-check the
/// chain end to end so a future refactor can't silently fork the paths.
#[test]
fn generic_entry_points_route_through_dispatchers() {
    let t = vec_c64(37, 7);
    let x = vec_c64(37, 11);
    let d = kernels::dot(&t, &x);
    let s = simd::dot_c64(&t, &x);
    assert_eq!(
        (d.re.to_bits(), d.im.to_bits()),
        (s.re.to_bits(), s.im.to_bits())
    );

    let mut a = vec_c64(37, 13);
    let mut b = a.clone();
    kernels::mul_pointwise(&mut a, &t);
    simd::mul_pointwise_c64(&mut b, &t);
    assert_eq!(bits64(&a), bits64(&b));
}
