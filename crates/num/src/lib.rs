//! Numerics substrate for the `soifft` workspace.
//!
//! This crate hosts the building blocks that every other crate leans on:
//!
//! * [`Complex`] — a complex number generic over the precision parameter
//!   [`Real`], with the concrete aliases [`c64`] (double precision, the
//!   paper's native format, 16 bytes per element) and [`c32`] (single
//!   precision, 8 bytes per element — the half-payload data path),
//! * [`real`] — the sealed [`Real`] trait (`f64` and `f32`) that threads
//!   precision through every layer above,
//! * [`simd`] — runtime-detected AVX2 kernels for the loops a transform
//!   runs (the convolution panel, pointwise demodulation, transpose tiles,
//!   precision conversion), each with a bit-identical scalar fallback,
//!   plus `dot_c64`, which only the benchmark's `num.dot_c64_gflops`
//!   metric still times,
//! * [`special`] — the special functions needed by the SOI window design
//!   (`erf`, `erfc`, the modified Bessel function `I₀`, `sinc`),
//! * [`tridiag`] and [`dpss`] — the symmetric tridiagonal eigensolver and
//!   the discrete prolate spheroidal sequences the prolate window is
//!   built on,
//! * [`transpose`] — cache-blocked matrix transposition kernels (the
//!   workhorse of the 6-step local FFT and of the local permutation that
//!   precedes the all-to-all),
//! * [`factor`] — small integer factorization utilities used by FFT
//!   planning,
//! * [`error`] — error norms used by tests and the accuracy benches,
//! * [`fnv1a`] — the byte-wise FNV-1a hash behind the cluster wire
//!   codec's header checksum and the tuner's wisdom-file checksum.
//!
//! # Safety posture
//!
//! The crate is `#![deny(unsafe_code)]` with exactly one audited carve-out:
//! the [`simd`] module, which holds the `std::arch` AVX2 kernels behind
//! runtime feature detection. Every `unsafe` block in the workspace's
//! numerical core lives in that one file, each kernel is a leaf function
//! whose bounds are asserted by a safe dispatcher before it runs, and each
//! is property-tested bit-identical to the safe scalar fallback that the
//! same dispatcher uses on hosts without AVX2 (or when
//! `SOIFFT_FORCE_SCALAR=1`).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod dpss;
pub mod error;
pub mod factor;
pub mod real;
#[allow(unsafe_code)]
pub mod simd;
pub mod special;
pub mod transpose;
pub mod tridiag;

pub use complex::{c32, c64, Complex};
pub use real::Real;

/// 64-bit FNV-1a over `bytes`, one byte per step. The wire codec's frame
/// header checksum and the wisdom file's body checksum are this function,
/// so neither on-disk nor on-wire checksums depend on which crate computes
/// them. (The word-wise payload digest `soifft_cluster::checksum` is a
/// different hash.)
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const SEED: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;
    bytes
        .iter()
        .fold(SEED, |h, &b| (h ^ u64::from(b)).wrapping_mul(PRIME))
}

#[cfg(test)]
mod tests {
    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(super::fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(super::fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
