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
        let want = simd::dot_c64_scalar(&t, &x);
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
        simd::mul_pointwise_scalar(&mut b64, &scale64);
        prop_assert_eq!(bits64(&a64), bits64(&b64));

        let scale32 = vec_c32(len, seed ^ 0x5A5A);
        let mut a32 = vec_c32(len, seed);
        let mut b32 = a32.clone();
        simd::mul_pointwise_c32(&mut a32, &scale32);
        simd::mul_pointwise_scalar(&mut b32, &scale32);
        prop_assert_eq!(bits32(&a32), bits32(&b32));
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

    /// The staged transpose walk (`transpose_strided`, and `transpose` as
    /// its dense case) == `transpose_naive`, both widths. Blocks cross
    /// several 256 × 64 stage blocks on both axes, with ragged last ones;
    /// strides are padded past the block or a power of two (512, 1024,
    /// 2048: the layouts the Cooley–Tukey parts and the 6-step hand over);
    /// padding is left untouched. The scaled walk is bitwise the unscaled
    /// one followed by `*=` in destination order.
    #[test]
    fn transpose_walk_matches_naive(
        tall in prop::sample::select(vec![false, true]),
        wide in prop::sample::select(vec![false, true]),
        short_rows in 1usize..40,
        tall_rows in 250usize..1100,
        narrow_cols in 1usize..30,
        wide_cols in 60usize..300,
        pads in (0usize..4, 0usize..4),
        pow2 in prop::sample::select(vec![0usize, 512, 1024, 2048]),
        seed in proptest::prelude::any::<u64>(),
    ) {
        let rows = if tall { tall_rows } else { short_rows };
        let cols = if wide { wide_cols } else { narrow_cols };
        // A power-of-two stride replaces the padded one wherever it holds
        // the block.
        let ss = if pow2 >= cols { pow2 } else { cols + pads.0 };
        let ds = if pow2 >= rows { pow2 } else { rows + pads.1 };
        let (shape, len) = ((rows, cols, ss, ds), rows * ss + 2 * cols * ds);
        let [(a, b), (c, d), (e, f)] = walk_vs_naive(shape, vec_c64(len, seed));
        prop_assert_eq!(bits64(&a), bits64(&b));
        prop_assert_eq!(bits64(&c), bits64(&d));
        prop_assert_eq!(bits64(&e), bits64(&f));
        let [(a, b), (c, d), (e, f)] = walk_vs_naive(shape, vec_c32(len, seed));
        prop_assert_eq!(bits32(&a), bits32(&b));
        prop_assert_eq!(bits32(&c), bits32(&d));
        prop_assert_eq!(bits32(&e), bits32(&f));
    }
}

/// A walk's output and its reference.
type GotWant<T> = (Vec<Complex<T>>, Vec<Complex<T>>);

/// `[(strided, naive), (dense, naive), (scaled, strided then *=)]` for
/// one `rows × cols` block embedded at strides `(ss, ds)`: source,
/// destination fill and scale are consecutive stretches of `pool`
/// (`rows·ss + 2·cols·ds` values). The strided reference is
/// `transpose_naive` of the extracted block, written back row by row over
/// the same padded destination.
fn walk_vs_naive<T: Real>(
    (rows, cols, ss, ds): (usize, usize, usize, usize),
    pool: Vec<Complex<T>>,
) -> [GotWant<T>; 3] {
    use soifft::num::transpose::{stage_len, transpose, transpose_naive, transpose_strided};
    let (src, rest) = pool.split_at(rows * ss);
    let (fill, scale) = rest.split_at(cols * ds);
    let mut stage = vec![Complex::<T>::ZERO; stage_len(rows, cols)];
    let mut strided = fill.to_vec();
    transpose_strided(src, ss, &mut strided, ds, (rows, cols), None, &mut stage);

    let block: Vec<_> = src.chunks(ss).flat_map(|r| &r[..cols]).copied().collect();
    let mut t = block.clone();
    transpose_naive(&block, &mut t, rows, cols);
    let mut want = fill.to_vec();
    for (dst_row, t_row) in want.chunks_mut(ds).zip(t.chunks_exact(rows)) {
        dst_row[..rows].copy_from_slice(t_row);
    }

    let mut dense = block.clone();
    transpose(&block, &mut dense, rows, cols);

    let mut scaled = fill.to_vec();
    transpose_strided(
        src,
        ss,
        &mut scaled,
        ds,
        (rows, cols),
        Some(scale),
        &mut stage,
    );
    let mut then_scaled = strided.clone();
    for (row, s_row) in then_scaled.chunks_mut(ds).zip(scale.chunks(ds)) {
        for (v, &m) in row[..rows].iter_mut().zip(s_row) {
            *v *= m;
        }
    }
    [(strided, want), (dense, t), (scaled, then_scaled)]
}

/// The precision-generic entry point (`transpose::transpose_tile`, which
/// every transpose walk calls through `Real::ktranspose_tile`) routes
/// through the same per-width dispatchers — spot-check the chain end to
/// end so a future refactor can't silently fork the paths.
#[test]
fn generic_entry_points_route_through_dispatchers() {
    use soifft::num::transpose::{transpose_tile, TILE};
    let (rows, cols, ss, ds) = (TILE, TILE - 1, TILE + 3, TILE + 1);
    let src = vec_c64(rows * ss, 7);
    let mut a = vec_c64(cols * ds, 11);
    let mut b = a.clone();
    transpose_tile(&src, ss, &mut a, ds, rows, cols);
    simd::transpose_tile_c64(&src, ss, &mut b, ds, rows, cols);
    assert_eq!(bits64(&a), bits64(&b));

    let src = vec_c32(rows * ss, 13);
    let mut a = vec_c32(cols * ds, 17);
    let mut b = a.clone();
    transpose_tile(&src, ss, &mut a, ds, rows, cols);
    simd::transpose_tile_c32(&src, ss, &mut b, ds, rows, cols);
    assert_eq!(bits32(&a), bits32(&b));
}

/// `Plan::forward_batch_with` over `count` rows at `stride` against
/// `Plan::forward_with_scratch` row by row: every row bit-identical, and
/// the padding between rows untouched.
fn batch_matches_per_row(n: usize, count: usize, stride: usize, seed: u64) {
    use soifft::fft::Plan;
    let plan = Plan::<f64>::new(n);
    let len = if count == 0 {
        0
    } else {
        (count - 1) * stride + n
    };
    let x = vec_c64(len, seed);
    let mut got = x.clone();
    let mut scratch = plan.make_batch_scratch();
    let mut seen = Vec::new();
    plan.forward_batch_with(&mut got, stride, count, &mut scratch, |i, row| {
        assert_eq!(row.len(), n);
        seen.push(i);
    });
    assert_eq!(
        seen,
        (0..count).collect::<Vec<_>>(),
        "n={n}: rows handed out"
    );
    let mut want = x.clone();
    let mut s = plan.make_scratch();
    for i in 0..count {
        plan.forward_with_scratch(&mut want[i * stride..i * stride + n], &mut s);
    }
    assert_eq!(
        bits64(&got),
        bits64(&want),
        "n={n} count={count} stride={stride}"
    );
}

/// The batched entry equals per-row `Plan` bitwise on every length the
/// pipelines run (`M'` carries µ's numerator 5, `F_L` and the 6-step
/// columns take radix 3 and 5), for every ragged tail of 0–9 rows, on
/// contiguous rows and on `loop_a`'s padded column stride.
#[test]
fn batched_rows_match_per_row_plan_bitwise() {
    for n in [1, 2, 4, 8, 12, 16, 20, 40, 48, 320, 512, 1024, 1280, 2048] {
        let padded = soifft::num::factor::padded_stride(n, 4);
        for count in 0..=9 {
            batch_matches_per_row(n, count, n, n as u64 ^ count as u64);
            batch_matches_per_row(n, count, padded.max(n + 3), 7 * n as u64 + count as u64);
        }
    }
}

/// Plans the batched kernel has no combine for run row by row through the
/// same entry: Bluestein (a prime past `MAX_RADIX`), a generic radix-7
/// stage, and single precision.
#[test]
fn unbatched_plans_take_the_per_row_path() {
    use soifft::fft::Plan;
    assert!(Plan::<f64>::new(37).is_bluestein());
    for n in [37, 7 * 16] {
        for count in [3, 4, 9] {
            batch_matches_per_row(n, count, n + 1, 31 + n as u64);
        }
    }
    let plan = Plan::<f32>::new(64);
    let x = vec_c32(5 * 64, 3);
    let mut got = x.clone();
    let mut scratch = plan.make_batch_scratch();
    plan.forward_batch_with(&mut got, 64, 5, &mut scratch, |_, _| {});
    let mut want = x;
    let mut s = plan.make_scratch();
    for row in want.chunks_exact_mut(64) {
        plan.forward_with_scratch(row, &mut s);
    }
    assert_eq!(bits32(&got), bits32(&want));
}

/// One level of a hand-built factor tree, laid out as `Plan` lays its own.
struct Level {
    radix: usize,
    tw: Vec<c64>,
}

impl simd::DitLevel<f64> for Level {
    fn radix(&self) -> usize {
        self.radix
    }
    fn twiddles(&self) -> &[c64] {
        &self.tw
    }
}

/// `Plan`'s level tables for `factors` at root length `big_n`.
fn tree(big_n: usize, factors: &[usize]) -> Vec<Level> {
    let mut n = big_n;
    let mut levels = Vec::new();
    for &r in factors {
        if matches!(n, 1 | 2 | 4) {
            break;
        }
        let m = n / r;
        let ts = big_n / n;
        let tw = (0..m)
            .flat_map(|k| (1..r).map(move |j| c64::root_of_unity(big_n, (j * k * ts) as i64)))
            .collect();
        levels.push(Level { radix: r, tw });
        n = m;
    }
    levels
}

/// The kernel itself engages wherever the dispatcher says SIMD is active
/// (so the parity above is not vacuous on an AVX2 host), refuses a tree
/// with a radix it has no combine for, and lands on `Plan`'s bits.
#[test]
fn batched_kernel_runs_exactly_where_simd_is_active() {
    use soifft::fft::Plan;
    let n = 1280;
    let levels = tree(n, &[8, 8, 4, 5]);
    let stride = n + 2;
    let x = vec_c64(3 * stride + n, 5);
    let mut got = x.clone();
    let mut buf = vec![c64::ZERO; simd::fft4_scratch_len(n)];
    let ran = simd::fft4_c64(&levels, &mut got, stride, n, &mut buf);
    assert_eq!(ran, simd::simd_active());
    if ran {
        let plan = Plan::<f64>::new(n);
        let mut want = x.clone();
        for i in 0..simd::FFT_LANES {
            plan.forward(&mut want[i * stride..i * stride + n]);
        }
        assert_eq!(bits64(&got), bits64(&want));
    }
    let seven = tree(56, &[8, 7]);
    let mut rows = vec_c64(4 * 56, 9);
    let before = rows.clone();
    assert!(!simd::fft4_c64(&seven, &mut rows, 56, 56, &mut buf));
    assert_eq!(bits64(&rows), bits64(&before));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Smooth lengths `2^a·3^b·5^c`, any row count and padding: batched
    /// == per-row `Plan`, bitwise.
    #[test]
    fn batched_rows_match_per_row_plan_on_smooth_lengths(
        a in 0u32..11,
        b in 0u32..3,
        c in 0u32..3,
        count in 0usize..10,
        pad in 0usize..5,
        seed in proptest::prelude::any::<u64>(),
    ) {
        let n = 2usize.pow(a) * 3usize.pow(b) * 5usize.pow(c);
        prop_assume!(n <= 4096);
        batch_matches_per_row(n, count, n + pad, seed);
    }
}
