//! Property-based tests on the SOI-specific machinery: parameter algebra,
//! window structure, convolution strategy equivalence, and the distributed
//! pipeline, across randomly drawn configurations.

use proptest::prelude::*;
use soifft::cluster::Cluster;
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::{rel_l2, rel_linf};
use soifft::num::simd::CONV_PANEL;
use soifft::par::Pool;
use soifft::soi::conv::{convolve, convolve_reference};
use soifft::soi::pipeline::{gather_output, scatter_input};
use soifft::soi::{ConvStrategy, Rational, SoiFft, SoiParams, Window, WindowKind};

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

/// Strategy generating random *valid* SOI parameter sets.
fn valid_params() -> impl Strategy<Value = SoiParams> {
    (
        prop::sample::select(vec![(2usize, 1usize), (3, 2), (5, 4), (8, 7)]),
        prop::sample::select(vec![1usize, 2, 4]),    // procs
        prop::sample::select(vec![1usize, 2, 4]),    // segments/proc
        prop::sample::select(vec![10usize, 16, 24]), // B
        prop::sample::select(vec![64usize, 128, 256]), // M base (×d_µ)
    )
        .prop_map(|((n_mu, d_mu), procs, s, b, m_base)| {
            let l = procs * s;
            let m = d_mu * m_base;
            SoiParams {
                n: m * l,
                procs,
                segments_per_proc: s,
                mu: Rational::new(n_mu, d_mu),
                conv_width: b,
            }
        })
        .prop_filter("constraints", |p| p.validate().is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Derived-quantity algebra is internally consistent for every valid
    /// configuration.
    #[test]
    fn params_algebra_consistent(p in valid_params()) {
        prop_assert_eq!(p.m() * p.total_segments(), p.n);
        prop_assert_eq!(p.m_prime() * p.total_segments(), p.n_prime());
        prop_assert_eq!(p.blocks_per_rank() * p.procs, p.m_prime());
        prop_assert_eq!(
            p.chunks_per_rank() * p.mu.num(),
            p.blocks_per_rank()
        );
        // Hop σ = d_µL/n_µ times n_µ equals d_µL exactly.
        let (num, den) = p.hop();
        prop_assert_eq!(num, p.mu.den() * p.total_segments());
        prop_assert_eq!(den, p.mu.num());
        // Ghost fits one rank.
        prop_assert!(p.ghost_len() <= p.per_rank());
    }

    /// All three convolution strategies agree with the reference for every
    /// valid configuration and random data.
    #[test]
    fn conv_strategies_agree(p in valid_params(), seed in 0u64..1000) {
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let x = seeded(p.per_rank() + p.ghost_len(), seed);
        let mut reference = vec![c64::ZERO; p.blocks_per_rank() * p.total_segments()];
        convolve_reference(&p, &w, &x, &mut reference);
        for strategy in ConvStrategy::ALL {
            let mut got = vec![c64::ZERO; reference.len()];
            convolve(&p, &w, strategy, &x, &mut got, &Pool::new(2));
            prop_assert!(
                rel_linf(&got, &reference) < 1e-12,
                "{:?}", strategy
            );
        }
    }

    /// The window taps always live inside the chunk read window
    /// (support ⊂ [jσ, jσ + (B−d_µ)L] ⊂ [0, BL)) — the invariant that
    /// makes the ghost region sufficient.
    #[test]
    fn window_taps_within_read_window(p in valid_params()) {
        let w = Window::new(WindowKind::GaussianSinc, &p);
        let l = p.total_segments();
        let (n_mu, d_mu) = (p.mu.num(), p.mu.den());
        let sigma = (d_mu * l) as f64 / n_mu as f64;
        // Checked on the panel tables the convolution kernel reads.
        let lanes = 2 * CONV_PANEL;
        prop_assert_eq!(w.panels(), l.div_ceil(CONV_PANEL));
        for panel in 0..w.panels() {
            let taps = w.panel_taps(panel);
            prop_assert_eq!(taps.len(), p.conv_width * n_mu * lanes);
            for (at, v) in taps.iter().enumerate() {
                let (b, j, q) = (at / (n_mu * lanes), at / lanes % n_mu, at % lanes / 2);
                let col = panel * CONV_PANEL + q;
                let i = b * l + col;
                if col >= l || (i as f64) < (j as f64 * sigma).floor() - 1.0 {
                    prop_assert!(*v == 0.0, "j={} i={}", j, i);
                }
            }
        }
        // Demodulation constants all finite and nonzero.
        for d in w.demod() {
            prop_assert!(d.is_finite());
            prop_assert!(d.abs() > 0.0);
        }
    }

    /// The full distributed transform stays within a generous error bound
    /// tied to the design (B, µ) for random valid configurations.
    #[test]
    fn distributed_soi_accuracy(p in valid_params(), seed in 0u64..100) {
        // Only check configurations with a decent window (skip the
        // deliberately weak ones — their bound is checked elsewhere).
        let quality = (p.conv_width - p.mu.den()) as f64
            * (p.mu.as_f64() - 1.0);
        prop_assume!(quality >= 8.0);
        let x = seeded(p.n, seed);
        let inputs = scatter_input(&x, p.procs);
        let fft = SoiFft::new(p).unwrap();
        let out = gather_output(Cluster::run(p.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()])
        }));
        let mut want = x;
        Plan::new(p.n).forward(&mut want);
        let err = rel_l2(&out, &want);
        prop_assert!(err < 1e-3, "err={:.3e} at {:?}", err, p);
    }
}
