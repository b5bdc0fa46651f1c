//! Property-based tests (proptest) on the core numerical invariants.

use proptest::prelude::*;
use soifft::fft::{dft, Plan, SixStepFft, SixStepVariant};
use soifft::num::c64;
use soifft::num::error::{rel_l2, rel_linf};
use soifft::num::transpose::transpose;
use soifft::soi::{Rational, SoiFftLocal};

fn complex_vec(n: usize) -> impl Strategy<Value = Vec<c64>> {
    prop::collection::vec(
        (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(r, i)| c64::new(r, i)),
        n,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// fft(x) matches the O(n²) direct DFT for arbitrary data and sizes,
    /// including primes (Bluestein) and mixed composites.
    #[test]
    fn fft_matches_direct_dft(
        n in prop::sample::select(vec![2usize, 3, 7, 16, 24, 31, 37, 60, 128, 210, 251]),
        seed in 0u64..1000,
    ) {
        let x = seeded(n, seed);
        let mut got = x.clone();
        Plan::new(n).forward(&mut got);
        let want = dft::dft(&x);
        prop_assert!(rel_linf(&got, &want) < 1e-9);
    }

    /// inverse(forward(x)) == x for arbitrary data.
    #[test]
    fn fft_round_trip(
        n in prop::sample::select(vec![4usize, 12, 27, 64, 100, 241]),
        x in complex_vec(64),
    ) {
        let x = &x[..64.min(x.len())];
        // Resize deterministically to n.
        let data: Vec<c64> = (0..n).map(|i| x[i % x.len()]).collect();
        let plan = Plan::new(n);
        let mut d = data.clone();
        plan.forward(&mut d);
        plan.inverse(&mut d);
        prop_assert!(rel_linf(&d, &data) < 1e-10);
    }

    /// Parseval: energy preserved (scaled by n) for every plan kind.
    #[test]
    fn fft_parseval(
        n in prop::sample::select(vec![8usize, 30, 61, 256]),
        seed in 0u64..1000,
    ) {
        let x = seeded(n, seed);
        let mut y = x.clone();
        Plan::new(n).forward(&mut y);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((ex - ey).abs() <= 1e-10 * ex.max(1.0));
    }

    /// FFT is linear: fft(a·x + y) == a·fft(x) + fft(y).
    #[test]
    fn fft_linearity(
        seed in 0u64..1000,
        scale_re in -2.0f64..2.0,
        scale_im in -2.0f64..2.0,
    ) {
        let n = 96;
        let a = c64::new(scale_re, scale_im);
        let x = seeded(n, seed);
        let y = seeded(n, seed + 1);
        let plan = Plan::new(n);
        let mix: Vec<c64> = x.iter().zip(&y).map(|(&u, &v)| a * u + v).collect();
        let mut lhs = mix;
        plan.forward(&mut lhs);
        let mut fx = x;
        plan.forward(&mut fx);
        let mut fy = y;
        plan.forward(&mut fy);
        let rhs: Vec<c64> = fx.iter().zip(&fy).map(|(&u, &v)| a * u + v).collect();
        prop_assert!(rel_l2(&lhs, &rhs) < 1e-11);
    }

    /// Every 6-step variant equals the plain plan on arbitrary data.
    #[test]
    fn sixstep_variants_equal_plan(
        seed in 0u64..500,
        variant_idx in 0usize..4,
    ) {
        let n = 1 << 9;
        let x = seeded(n, seed);
        let variant = SixStepVariant::LADDER[variant_idx];
        let six = SixStepFft::new(n, variant);
        let mut got = x.clone();
        let mut aux = vec![c64::ZERO; n];
        six.forward(&mut got, &mut aux);
        let mut want = x;
        Plan::new(n).forward(&mut want);
        prop_assert!(rel_linf(&got, &want) < 1e-11);
    }

    /// Transpose is an involution for arbitrary shapes.
    #[test]
    fn transpose_involution(
        rows in 1usize..24,
        cols in 1usize..24,
        seed in 0u64..100,
    ) {
        let m = seeded(rows * cols, seed);
        let mut t = vec![c64::ZERO; rows * cols];
        let mut back = vec![c64::ZERO; rows * cols];
        transpose(&m, &mut t, rows, cols);
        transpose(&t, &mut back, cols, rows);
        prop_assert_eq!(back, m);
    }

    /// SOI is linear (it is a composition of linear operators) and its
    /// deviation from the true DFT stays within the design bound across
    /// random inputs.
    #[test]
    fn soi_linear_and_accurate(seed in 0u64..200) {
        let n = 1 << 10;
        let soi = SoiFftLocal::new(n, 8, Rational::new(2, 1), 20).unwrap();
        let x = seeded(n, seed);
        let y = seeded(n, seed + 7);
        let sum: Vec<c64> = x.iter().zip(&y).map(|(&u, &v)| u + v).collect();
        let fs = soi.forward(&sum);
        let fx = soi.forward(&x);
        let fy = soi.forward(&y);
        let lin: Vec<c64> = fx.iter().zip(&fy).map(|(&u, &v)| u + v).collect();
        prop_assert!(rel_l2(&fs, &lin) < 1e-12);

        let mut want = x;
        Plan::new(n).forward(&mut want);
        prop_assert!(rel_l2(&fx, &want) < 1e-6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The dispatched kernels agree with naive loops on arbitrary data.
    #[test]
    fn kernels_match_naive(len in 0usize..64, seed in 0u64..300) {
        use soifft::num::simd::{dot_c64, mul_pointwise_c64};
        let t = seeded(len, seed);
        let x = seeded(len, seed + 1);
        let naive: c64 = t.iter().zip(&x).map(|(&a, &b)| a * b).sum();
        prop_assert!((dot_c64(&t, &x) - naive).abs() < 1e-10 * (1.0 + naive.abs()));

        let mut d = seeded(len, seed + 3);
        let expect: Vec<c64> = d.iter().zip(&t).map(|(&a, &b)| a * b).collect();
        mul_pointwise_c64(&mut d, &t);
        prop_assert!(rel_linf(&d, &expect) < 1e-13 || len == 0);
    }

}

/// Deterministic pseudo-random data parameterized by a seed (so proptest
/// shrinking stays meaningful).
fn seeded(n: usize, seed: u64) -> Vec<c64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| c64::new(next(), next())).collect()
}
