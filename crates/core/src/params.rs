//! SOI problem parameters and their validity constraints.
//!
//! Names mirror the paper's Table 1:
//!
//! | here | paper | meaning |
//! |---|---|---|
//! | `n` | `N` | number of input elements |
//! | `procs` | `P` | number of compute nodes (ranks) |
//! | `segments_per_proc` | — (§6.1) | segments per MPI process, `S` |
//! | `total_segments()` | — | `L = S·P`, the filter-bank size (the paper's Eq. 1 uses `P` directly because it assumes one segment per process) |
//! | `m()` | `M` | output elements per segment, `N/L` |
//! | `mu` | `µ = n_µ/d_µ` | oversampling factor |
//! | `m_prime()` | `M' = µM` | oversampled per-segment length |
//! | `conv_width` | `B` | convolution width in blocks (typical 72) |

use std::fmt;

/// An exact rational `num/den` in lowest terms, used for the oversampling
/// factor `µ = n_µ/d_µ`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Rational {
    num: usize,
    den: usize,
}

impl Rational {
    /// Creates `num/den`, reduced. Panics on zero denominator or numerator.
    pub fn new(num: usize, den: usize) -> Self {
        assert!(num > 0 && den > 0, "rational components must be positive");
        let g = soifft_num::factor::gcd(num, den);
        Rational {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator (`n_µ`).
    pub fn num(&self) -> usize {
        self.num
    }

    /// Denominator (`d_µ`).
    pub fn den(&self) -> usize {
        self.den
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// `self * x`, requiring the product to be an integer.
    pub fn scale_exact(&self, x: usize) -> Option<usize> {
        let t = x.checked_mul(self.num)?;
        (t % self.den == 0).then_some(t / self.den)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

/// Everything needed to plan an SOI transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SoiParams {
    /// Total input length `N`.
    pub n: usize,
    /// Number of ranks `P`.
    pub procs: usize,
    /// Segments per rank `S` (paper §6.1 uses 8 for ≤128 nodes, 2 for
    /// ≥512).
    pub segments_per_proc: usize,
    /// Oversampling factor `µ` (paper default 8/7 in the evaluation, 5/4 in
    /// the model).
    pub mu: Rational,
    /// Convolution width `B` in blocks (paper typical value 72).
    pub conv_width: usize,
}

/// Why a parameter set cannot be planned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SoiError {
    /// `L = S·P` must divide `N`.
    SegmentsDontDivide {
        /// Total segments `L`.
        l: usize,
        /// Input length `N`.
        n: usize,
    },
    /// `d_µ` must divide `M` so `M' = µM` is an integer.
    OversampleNotIntegral {
        /// Per-segment length `M`.
        m: usize,
        /// Oversampling factor.
        mu: Rational,
    },
    /// `P·n_µ` must divide `M'` so chunks do not straddle ranks.
    ChunksStraddleRanks {
        /// Oversampled length `M'`.
        m_prime: usize,
        /// Required divisor `P·n_µ`.
        divisor: usize,
    },
    /// The ghost region `(B − d_µ)·L` must fit in one successor's data.
    GhostTooLarge {
        /// Ghost length in elements.
        ghost: usize,
        /// Per-rank input length `N/P`.
        per_rank: usize,
    },
    /// `µ` must exceed 1 (oversampling, not undersampling).
    MuNotOversampling(
        /// The offending factor.
        Rational,
    ),
    /// `B` must exceed `d_µ` (the window must span more than one hop).
    ConvWidthTooSmall {
        /// Convolution width `B`.
        b: usize,
        /// Hop `d_µ`.
        d_mu: usize,
    },
    /// The window's spectral extent `(2µ−1)/L` must stay below the
    /// Nyquist interval: `L > 2µ − 1`, otherwise the integer-sampled
    /// window aliases its own spectrum and demodulation is meaningless.
    TooFewSegments {
        /// Total segments `L`.
        l: usize,
        /// Oversampling factor.
        mu: Rational,
    },
}

impl fmt::Display for SoiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoiError::SegmentsDontDivide { l, n } => {
                write!(f, "total segments L={l} must divide N={n}")
            }
            SoiError::OversampleNotIntegral { m, mu } => {
                write!(f, "d_mu={} must divide M={m} (mu={mu})", mu.den())
            }
            SoiError::ChunksStraddleRanks { m_prime, divisor } => {
                write!(f, "P*n_mu={divisor} must divide M'={m_prime}")
            }
            SoiError::GhostTooLarge { ghost, per_rank } => {
                write!(
                    f,
                    "ghost region ({ghost} elems) exceeds one rank's data ({per_rank}); \
                     increase N/P or decrease B"
                )
            }
            SoiError::MuNotOversampling(mu) => {
                write!(f, "mu={mu} must be > 1")
            }
            SoiError::ConvWidthTooSmall { b, d_mu } => {
                write!(f, "conv width B={b} must exceed d_mu={d_mu}")
            }
            SoiError::TooFewSegments { l, mu } => {
                write!(
                    f,
                    "total segments L={l} must exceed 2*mu-1 = {} (window \
                     spectrum must fit below Nyquist)",
                    2.0 * mu.as_f64() - 1.0
                )
            }
        }
    }
}

impl std::error::Error for SoiError {}

impl SoiParams {
    /// Convenience constructor with the paper's evaluation defaults
    /// (`µ = 8/7`, `B = 72`, one segment per rank).
    pub fn paper_defaults(n: usize, procs: usize) -> Self {
        SoiParams {
            n,
            procs,
            segments_per_proc: 1,
            mu: Rational::new(8, 7),
            conv_width: 72,
        }
    }

    /// Total segments `L = S·P` — the size of the block DFTs `F_L` and the
    /// number of subbands the spectrum is split into.
    pub fn total_segments(&self) -> usize {
        self.segments_per_proc * self.procs
    }

    /// Per-segment output length `M = N/L`.
    pub fn m(&self) -> usize {
        self.n / self.total_segments()
    }

    /// Oversampled per-segment length `M' = µM`.
    pub fn m_prime(&self) -> usize {
        self.mu
            .scale_exact(self.m())
            .expect("µ·M is exact for validated params (SoiParams::validate checks d_µ | M)")
    }

    /// `N' = µN`, the total convolution output length.
    pub fn n_prime(&self) -> usize {
        self.m_prime() * self.total_segments()
    }

    /// Input elements per rank, `N/P`.
    pub fn per_rank(&self) -> usize {
        self.n / self.procs
    }

    /// Output blocks per rank, `M'/P` (each of size `L`).
    pub fn blocks_per_rank(&self) -> usize {
        self.m_prime() / self.procs
    }

    /// Convolution chunks per rank (`n_µ` blocks per chunk).
    pub fn chunks_per_rank(&self) -> usize {
        self.blocks_per_rank() / self.mu.num()
    }

    /// Window hop in samples: `σ = d_µ·L/n_µ = L/µ`. Not necessarily an
    /// integer; returned as the exact pair `(d_µ·L, n_µ)`.
    pub fn hop(&self) -> (usize, usize) {
        (self.mu.den() * self.total_segments(), self.mu.num())
    }

    /// Ghost elements each rank needs from its successor:
    /// `(B − d_µ)·L`.
    pub fn ghost_len(&self) -> usize {
        (self.conv_width - self.mu.den()) * self.total_segments()
    }

    /// Window support in samples, `B·L`.
    pub fn window_len(&self) -> usize {
        self.conv_width * self.total_segments()
    }

    /// Validates every structural constraint, returning the first
    /// violation.
    pub fn validate(&self) -> Result<(), SoiError> {
        let l = self.total_segments();
        assert!(self.n > 0 && self.procs > 0 && self.segments_per_proc > 0);
        if self.mu.as_f64() <= 1.0 {
            return Err(SoiError::MuNotOversampling(self.mu));
        }
        if self.conv_width <= self.mu.den() {
            return Err(SoiError::ConvWidthTooSmall {
                b: self.conv_width,
                d_mu: self.mu.den(),
            });
        }
        // Spectral-extent constraint: passband (1/L) plus both transition
        // bands (2(µ−1)/L) must fit strictly inside one Nyquist interval.
        if l as f64 <= 2.0 * self.mu.as_f64() - 1.0 {
            return Err(SoiError::TooFewSegments { l, mu: self.mu });
        }
        if !self.n.is_multiple_of(l) {
            return Err(SoiError::SegmentsDontDivide { l, n: self.n });
        }
        let m = self.n / l;
        let m_prime = match self.mu.scale_exact(m) {
            Some(v) => v,
            None => return Err(SoiError::OversampleNotIntegral { m, mu: self.mu }),
        };
        let div = self.procs * self.mu.num();
        if m_prime % div != 0 {
            return Err(SoiError::ChunksStraddleRanks {
                m_prime,
                divisor: div,
            });
        }
        let ghost = (self.conv_width - self.mu.den()) * l;
        if ghost > self.n / self.procs {
            return Err(SoiError::GhostTooLarge {
                ghost,
                per_rank: self.n / self.procs,
            });
        }
        Ok(())
    }

    /// Finds valid parameters for `n` points on `procs` ranks near the
    /// paper's defaults, or `None` if no admissible configuration exists.
    ///
    /// Search order: prefer the requested `mu` (default 8/7), then easier
    /// factors (5/4, 4/3, 3/2, 2); prefer more segments per process (up to
    /// 8, the paper's small-cluster setting) since that enables overlap;
    /// shrink `B` from 72 only if the ghost constraint demands it.
    pub fn suggest(n: usize, procs: usize) -> Option<SoiParams> {
        let mus = [
            Rational::new(8, 7),
            Rational::new(5, 4),
            Rational::new(4, 3),
            Rational::new(3, 2),
            Rational::new(2, 1),
        ];
        for &s in &[8usize, 4, 2, 1] {
            for &mu in &mus {
                for &b in &[72usize, 48, 36, 24, 16, 12] {
                    let p = SoiParams {
                        n,
                        procs,
                        segments_per_proc: s,
                        mu,
                        conv_width: b,
                    };
                    if p.validate().is_ok() {
                        return Some(p);
                    }
                }
            }
        }
        None
    }

    /// Convolution flop count, the paper's nominal `8BµN` (one complex
    /// multiply-add per tap and output). Kept as the unit every rate in
    /// the cost model and the benchmarks is quoted in; the kernel itself
    /// executes `4BµN + 6µN` — real taps times complex data, then one
    /// complex multiply per output ([`crate::conv`]) — so a rate computed
    /// from this count reads about twice the arithmetic actually retired.
    pub fn conv_flops(&self) -> f64 {
        8.0 * self.conv_width as f64 * self.mu.as_f64() * self.n as f64
    }

    /// Total transform flops under the paper's `5N log₂ N` convention
    /// (used for GFLOPS reporting — intentionally the *standard* FFT count,
    /// not SOI's actual arithmetic, matching HPCC G-FFT accounting).
    pub fn reported_flops(&self) -> f64 {
        let n = self.n as f64;
        5.0 * n * n.log2()
    }

    /// Estimated extra flops **per rank** of one fully validated superstep
    /// (`ValidationPolicy::CheckOnly` on a fault-free run): two energy
    /// passes over the `µN/P` exchange frontier (3 flops per element for
    /// `|z|²`, before and after the block DFTs), one checksum sweep over
    /// the convolution output and one over the gathered segments (counted
    /// at 2 ops per element), and the linearity probe's three extra
    /// `L`-point FFTs. Linear in the frontier size — the basis of the
    /// pipeline's ≤5 % ABFT overhead budget, since the convolution alone
    /// costs `8Bµ` flops per element ([`SoiParams::conv_flops`]).
    /// `Recover` on a fault-free run adds only one frontier copy on top.
    pub fn validation_flops(&self) -> f64 {
        let frontier = (self.blocks_per_rank() * self.total_segments()) as f64;
        let energy_passes = 2.0 * 3.0 * frontier;
        let checksum_sweeps = 2.0 * 2.0 * frontier;
        let probe = 3.0 * soifft_fft::fft_flops(self.total_segments());
        energy_passes + checksum_sweeps + probe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> SoiParams {
        // N = 7·2^10, P = 4, S = 2, µ = 8/7, B = 9.
        SoiParams {
            n: 7 * (1 << 10),
            procs: 4,
            segments_per_proc: 2,
            mu: Rational::new(8, 7),
            conv_width: 9,
        }
    }

    #[test]
    fn rational_reduces() {
        let r = Rational::new(10, 8);
        assert_eq!((r.num(), r.den()), (5, 4));
        assert_eq!(r.as_f64(), 1.25);
        assert_eq!(r.to_string(), "5/4");
        assert_eq!(Rational::new(8, 7).scale_exact(14), Some(16));
        assert_eq!(Rational::new(8, 7).scale_exact(13), None);
    }

    #[test]
    fn derived_quantities() {
        let p = valid();
        p.validate().expect("should be valid");
        assert_eq!(p.total_segments(), 8);
        assert_eq!(p.m(), 7 * (1 << 10) / 8); // 896
        assert_eq!(p.m_prime(), 1024);
        assert_eq!(p.n_prime(), 8192);
        assert_eq!(p.per_rank(), 1792);
        assert_eq!(p.blocks_per_rank(), 256);
        assert_eq!(p.chunks_per_rank(), 32);
        assert_eq!(p.hop(), (7 * 8, 8)); // σ = 56/8 = 7 samples
    }

    #[test]
    fn ghost_and_window_lengths() {
        let p = valid();
        // ghost = (B − d_µ)·L = (9−7)·8 = 16; window = 9·8 = 72.
        assert_eq!(p.ghost_len(), 16);
        assert_eq!(p.window_len(), 72);
    }

    #[test]
    fn validation_catches_each_constraint() {
        let mut p = valid();
        p.mu = Rational::new(1, 1);
        assert!(matches!(p.validate(), Err(SoiError::MuNotOversampling(_))));

        let mut p = valid();
        p.conv_width = 7; // == d_mu
        assert!(matches!(
            p.validate(),
            Err(SoiError::ConvWidthTooSmall { .. })
        ));

        let mut p = valid();
        p.n = 7 * (1 << 10) + 8; // still divisible by L=8 but not by d_mu·L ⇒
                                 // M = 897 not divisible by 7.
        let r = p.validate();
        assert!(
            matches!(r, Err(SoiError::OversampleNotIntegral { .. })),
            "{r:?}"
        );

        let mut p = valid();
        p.n = 7 * (1 << 10) + 1; // not divisible by L
        assert!(matches!(
            p.validate(),
            Err(SoiError::SegmentsDontDivide { .. })
        ));

        let mut p = valid();
        p.conv_width = 300; // ghost (293·8) exceeds per-rank 1792
        assert!(matches!(p.validate(), Err(SoiError::GhostTooLarge { .. })));
    }

    #[test]
    fn chunk_straddle_detection() {
        // M' must be divisible by P·n_µ = 32·... use a case where it isn't:
        // N = 7·64, L = 8 (P=4,S=2) ⇒ M = 56, M' = 64, P·n_µ = 32; 64 % 32 == 0 ok.
        // Shrink to N = 7·32: M = 28, M' = 32, 32 % 32 == 0 ok.
        // Use P = 3: L = 6, N = 7·6·2 = 84 ⇒ M = 14, M' = 16, P·n_µ = 24 ∤ 16.
        let p = SoiParams {
            n: 84,
            procs: 3,
            segments_per_proc: 2,
            mu: Rational::new(8, 7),
            conv_width: 8,
        };
        assert!(matches!(
            p.validate(),
            Err(SoiError::ChunksStraddleRanks { .. }) | Err(SoiError::GhostTooLarge { .. })
        ));
    }

    #[test]
    fn paper_defaults_shape() {
        let p = SoiParams::paper_defaults(7 * (1 << 20), 8);
        assert_eq!(p.mu, Rational::new(8, 7));
        assert_eq!(p.conv_width, 72);
        assert_eq!(p.segments_per_proc, 1);
        p.validate().expect("paper defaults on a 7·2^20 input");
    }

    #[test]
    fn flop_accounting() {
        let p = valid();
        let n = p.n as f64;
        assert!((p.reported_flops() - 5.0 * n * n.log2()).abs() < 1.0);
        let expect = 8.0 * 9.0 * (8.0 / 7.0) * n;
        assert!((p.conv_flops() - expect).abs() < 1e-6);
    }

    #[test]
    fn too_few_segments_rejected() {
        // L = 1 aliases the window spectrum for any µ > 1; L = 3 with
        // µ = 2 sits exactly at 2µ−1 and is also rejected.
        let mut p = SoiParams {
            n: 1 << 10,
            procs: 1,
            segments_per_proc: 1,
            mu: Rational::new(2, 1),
            conv_width: 16,
        };
        assert!(matches!(p.validate(), Err(SoiError::TooFewSegments { .. })));
        p.segments_per_proc = 3; // L = 3 = 2µ−1: still rejected (strict).
        assert!(matches!(p.validate(), Err(SoiError::TooFewSegments { .. })));
        p.segments_per_proc = 4;
        p.validate().expect("L = 4 > 3 is fine");
        // µ = 8/7 admits L = 2.
        let p = SoiParams {
            n: 7 * (1 << 8),
            procs: 1,
            segments_per_proc: 2,
            mu: Rational::new(8, 7),
            conv_width: 10,
        };
        p.validate().expect("L = 2 > 9/7");
    }

    #[test]
    fn suggest_finds_paper_defaults_when_admissible() {
        // N = 7·2^20, P = 8: µ = 8/7 with B = 72 and S = 8 should validate.
        let p = SoiParams::suggest(7 * (1 << 20), 8).expect("suggestion");
        assert_eq!(p.mu, Rational::new(8, 7));
        assert_eq!(p.conv_width, 72);
        assert_eq!(p.segments_per_proc, 8);
        p.validate().unwrap();
    }

    #[test]
    fn suggest_falls_back_when_seven_does_not_divide() {
        // Pure power of two: d_µ = 7 can never divide M, so a different µ
        // must be chosen.
        let p = SoiParams::suggest(1 << 16, 4).expect("suggestion");
        assert_ne!(p.mu.den(), 7);
        p.validate().unwrap();
    }

    #[test]
    fn suggest_shrinks_b_for_tiny_problems() {
        let p = SoiParams::suggest(1 << 10, 4).expect("suggestion");
        assert!(p.conv_width < 72, "{p:?}");
        p.validate().unwrap();
    }

    #[test]
    fn suggest_rejects_impossible_shapes() {
        // 2 elements on 4 ranks: nothing can work.
        assert!(SoiParams::suggest(2, 4).is_none());
    }

    #[test]
    fn validation_overhead_is_a_small_fraction_of_the_convolution() {
        let p = SoiParams {
            n: 1 << 20,
            procs: 4,
            segments_per_proc: 2,
            mu: Rational::new(2, 1),
            conv_width: 40,
        };
        let per_rank_conv = p.conv_flops() / p.procs as f64;
        let ratio = p.validation_flops() / per_rank_conv;
        assert!(
            ratio > 0.0 && ratio < 0.05,
            "ABFT overhead ratio {ratio:.4}"
        );
    }

    #[test]
    fn error_messages_render() {
        let e = SoiError::SegmentsDontDivide { l: 8, n: 100 };
        assert!(e.to_string().contains("L=8"));
        let e = SoiError::GhostTooLarge {
            ghost: 10,
            per_rank: 5,
        };
        assert!(e.to_string().contains("ghost"));
    }
}
