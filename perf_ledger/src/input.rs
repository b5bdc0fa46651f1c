//! Seeded benchmark inputs. The program under test sees only the vectors
//! generated here: the same seed gives the same inputs, bit for bit.

use soifft::num::c64;

/// Inputs per workload: operation `i` transforms `ring[i % RING]`, so
/// consecutive operations never reuse a cache-warm input.
pub const RING: usize = 4;

/// SplitMix64: decorrelates consecutive user seeds before they drive the
/// stream generator.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` complex samples, real and imaginary parts independently uniform
/// in `[-1, 1)` (xorshift64*, 53 random bits per part).
pub fn uniform(len: usize, seed: u64) -> Vec<c64> {
    let mut state = splitmix64(seed) | 1;
    let mut next = move || {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let bits = state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11;
        bits as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    };
    (0..len).map(|_| c64::new(next(), next())).collect()
}

/// The first `count` (at most [`RING`]) of the workload's ring of distinct
/// inputs of length `len`; entry `k` is the same whatever `count` is.
pub fn ring(len: usize, seed: u64, count: usize) -> Vec<Vec<c64>> {
    (0..count.min(RING) as u64)
        .map(|k| uniform(len, splitmix64(seed).wrapping_add(k)))
        .collect()
}
