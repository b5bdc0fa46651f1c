//! Phase-boundary invariants for algorithm-based fault tolerance (ABFT).
//!
//! The SOI pipeline moves data through four compute phases (convolution,
//! segment FFT, all-to-all, recovery FFT) whose intermediate buffers live in
//! memory for milliseconds to seconds — long enough for a particle strike or
//! a marginal DIMM to flip a bit that the link layer's wire checksums never
//! see, because the corruption happens *before* send-side framing or *after*
//! receive-side verification. This module supplies the cheap mathematical
//! invariants that catch such silent data corruption (SDC) at each phase
//! boundary:
//!
//! * **Energy balance** ([`parseval_ok`]) — an unnormalized `L`-point DFT
//!   multiplies total energy by exactly `L` (Parseval), so
//!   `E_out ≈ L·E_in` within [`energy_tolerance`] is a one-pass `O(n)`
//!   check over a phase that costs `O(n log n)`.
//! * **Spectral checksums** ([`encode_checksum`] / [`decode_checksum`]) —
//!   per-segment FNV-1a checksums ([`soifft_cluster::checksum`]) computed by
//!   the *sender* ride alongside payloads through the all-to-all as one
//!   extra complex element per segment, and are re-verified by the receiver
//!   after reassembly. This covers the window between the link layer's
//!   receive check and the consumer actually reading the buffer.
//! * **Linearity probe** ([`linearity_probe`]) — a seeded random-vector
//!   check that `F(x + αr) = F(x) + αF(r)`, which exercises the FFT
//!   machinery itself (twiddle tables, plan state) rather than one buffer.
//!
//! What to do on a failed invariant is the pipeline's decision, expressed
//! as a [`ValidationPolicy`]: `Off` skips the checks, `CheckOnly` surfaces
//! [`soifft_cluster::CommError::SilentCorruption`] immediately, and
//! `Recover` re-executes only the flagged segment or phase on the owning
//! rank (bounded by [`RETRY_BUDGET`]) before escalating.
//!
//! The energy balance, the retry budget, and the guard loop and
//! checkpoint hooks that apply them live in [`soifft_cluster::abft`],
//! shared with the Cooley–Tukey baseline; the invariants are re-exported
//! here.

use soifft_fft::Plan;
use soifft_num::c64;
use soifft_num::error::rel_l2;

pub use soifft_cluster::abft::{energy, energy_tolerance, parseval_ok, RETRY_BUDGET};
pub use soifft_cluster::ValidationPolicy;

/// Relative tolerance of the [`linearity_probe`]: the probe compares two
/// `O(ε·log n)`-accurate transforms of `O(1)`-magnitude data, so anything
/// below ~1e-9 that still clears roundoff by orders of magnitude works.
pub const PROBE_TOLERANCE: f64 = 1e-11;

/// Packs an FNV-1a checksum into a complex element so it can travel through
/// the all-to-all alongside the payload it covers. The bit pattern is
/// preserved exactly (`f64::from_bits`), never interpreted as a number —
/// the value may be NaN or subnormal, which is fine because nothing does
/// arithmetic on it.
pub fn encode_checksum(sum: u64) -> c64 {
    c64::new(f64::from_bits(sum), 0.0)
}

/// Recovers the checksum packed by [`encode_checksum`].
pub fn decode_checksum(tag: c64) -> u64 {
    tag.re.to_bits()
}

/// Verifies `F(x + αr) = F(x) + αF(r)` on seeded pseudo-random vectors —
/// true for any correctly functioning linear transform regardless of the
/// data the pipeline is actually processing. Unlike the buffer checks above
/// this exercises the FFT *machinery* (twiddle tables, plan dispatch), so a
/// corrupted plan constant is caught even when every payload checksum
/// matches. Returns `true` when the identity holds to [`PROBE_TOLERANCE`]
/// (or `tol`, if larger is needed for exotic lengths).
pub fn linearity_probe(plan: &Plan, seed: u64, tol: f64) -> bool {
    let n = plan.len();
    if n == 0 {
        return true;
    }
    let mut state = seed;
    let mut draw = || {
        let u = splitmix(&mut state);
        // Map the top 53 bits onto [-1, 1).
        (u >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let x: Vec<c64> = (0..n).map(|_| c64::new(draw(), draw())).collect();
    let r: Vec<c64> = (0..n).map(|_| c64::new(draw(), draw())).collect();
    // A fixed irrational, non-real α so the superposition exercises both
    // components and no term degenerates to zero.
    let alpha = c64::new(0.618_033_988_749_894_9, -0.381_966_011_250_105_2);

    let mut combined: Vec<c64> = x.iter().zip(&r).map(|(&a, &b)| a + alpha * b).collect();
    let mut fx = x;
    let mut fr = r;
    plan.forward(&mut combined);
    plan.forward(&mut fx);
    plan.forward(&mut fr);
    let superposed: Vec<c64> = fx.iter().zip(&fr).map(|(&a, &b)| a + alpha * b).collect();
    rel_l2(&combined, &superposed) <= tol
}

/// SplitMix64 step — tiny seeded generator for the probe vectors. Kept
/// local so the probe's stream can never entangle with the fault
/// injector's RNG streams.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soifft_cluster::checksum;

    #[test]
    fn parseval_accepts_a_healthy_fft() {
        let n = 1 << 9;
        let plan = Plan::new(n);
        let mut data: Vec<c64> = (0..n)
            .map(|i| c64::new((0.11 * i as f64).cos(), (0.07 * i as f64).sin()))
            .collect();
        let e_in = energy(&data);
        plan.forward(&mut data);
        assert!(parseval_ok(e_in, energy(&data), n, energy_tolerance(n)));
    }

    #[test]
    fn parseval_rejects_a_high_bit_flip() {
        let n = 1 << 9;
        let plan = Plan::new(n);
        let mut data: Vec<c64> = (0..n)
            .map(|i| c64::new((0.11 * i as f64).cos(), (0.07 * i as f64).sin()))
            .collect();
        let e_in = energy(&data);
        plan.forward(&mut data);
        // Flip the default injection bit (62: top exponent bit) in one word.
        data[n / 3].re = f64::from_bits(data[n / 3].re.to_bits() ^ (1u64 << 62));
        assert!(!parseval_ok(e_in, energy(&data), n, energy_tolerance(n)));
    }

    #[test]
    fn energy_tolerance_clears_the_roundoff_of_a_healthy_fft() {
        let n = 1 << 10;
        let plan = Plan::new(n);
        let mut data: Vec<c64> = (0..n)
            .map(|i| c64::new((0.31 * i as f64).sin(), (0.17 * i as f64).cos()))
            .collect();
        let e_in = energy(&data);
        plan.forward(&mut data);
        let drift = ((energy(&data) - e_in * n as f64) / (e_in * n as f64)).abs();
        assert!(drift < energy_tolerance(n) / 10.0, "drift {drift:.3e}");
    }

    #[test]
    fn checksum_tag_round_trips_any_bit_pattern() {
        for sum in [
            0u64,
            u64::MAX,
            0x7FF8_0000_0000_0001,
            checksum(&[c64::new(1.5, -2.5)]),
        ] {
            assert_eq!(decode_checksum(encode_checksum(sum)), sum);
        }
    }

    #[test]
    fn linearity_probe_passes_on_a_healthy_plan() {
        for n in [64, 384, 1 << 10] {
            let plan = Plan::new(n);
            assert!(linearity_probe(&plan, 0xDEC0DE, PROBE_TOLERANCE), "n={n}");
        }
    }

    #[test]
    fn linearity_probe_is_deterministic_per_seed() {
        // Same seed must draw the same vectors: run twice and compare the
        // derived energies via the public surface (probe outcome plus a
        // directly re-drawn stream).
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..64 {
            assert_eq!(splitmix(&mut a), splitmix(&mut b));
        }
    }

    #[test]
    fn validation_policy_reexport_is_usable() {
        assert!(!ValidationPolicy::Off.is_on());
        assert!(ValidationPolicy::CheckOnly.is_on());
        assert!(ValidationPolicy::Recover.recovers());
    }
}
