//! Twiddle-factor tables.
//!
//! Two flavours are provided:
//!
//! * [`Twiddles`] — the full table `w^j = e^{−2πi j/N}` for `j < N`: the
//!   step-3 twiddle pass of the naive and fused 6-step rungs
//!   ([`crate::SixStepVariant::Naive`], [`crate::SixStepVariant::Fused`]).
//!   A [`crate::Plan`] holds no full table: each level of its factor tree
//!   keeps the slice of `w^j` its combine reads, in reading order;
//! * [`DynamicBlock`] — Bailey's *dynamic block scheme* (paper §5.2.2):
//!   two tables of roughly `√N` entries that reconstruct `w^t` as
//!   `w^{t_hi·S} · w^{t_lo}` with one extra complex multiply, trading a
//!   little compute for an `O(√N)` working set. The `+locality` 6-step
//!   rungs and the Cooley–Tukey baseline use this for their twiddle pass.
//!
//! [`Twiddles`] is generic over the precision parameter
//! ([`soifft_num::Real`]); entries are always *generated* in `f64`
//! (`sin_cos` then demote), so an `f32` table is correctly rounded rather
//! than carrying single-precision trig error.

use soifft_num::{c64, Complex, Real};

/// Full-size twiddle table for a transform of length `n`.
#[derive(Clone, Debug)]
pub struct Twiddles<T: Real = f64> {
    n: usize,
    table: Vec<Complex<T>>,
}

impl<T: Real> Twiddles<T> {
    /// Builds the table `w^j` for `j ∈ [0, n)`.
    ///
    /// Each entry is generated by a direct `sin_cos` call in `f64` (no
    /// recurrences) and then demoted to `T`, so table entries are accurate
    /// to ~1 ulp of the target precision even for huge `n`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0);
        let table = (0..n)
            .map(|j| Complex::root_of_unity(n, j as i64))
            .collect();
        Twiddles { n, table }
    }

    /// The transform length this table was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false (tables are non-empty); present for API completeness.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `w^j` with `j` already reduced into `[0, n)`.
    ///
    /// Callers on hot paths keep `j` reduced as they step it (a
    /// conditional subtract per step); the debug assertion catches a
    /// missing or wrong reduction at the call site with context instead
    /// of an opaque out-of-bounds panic deeper in release code.
    #[inline(always)]
    pub fn get(&self, j: usize) -> Complex<T> {
        debug_assert!(
            j < self.n,
            "twiddle index {j} not reduced into [0, {}) — caller must take j mod n",
            self.n
        );
        self.table[j]
    }
}

/// Dynamic-block twiddle tables: `w^t = hi[t / s] · lo[t % s]`.
///
/// Memory footprint is `s + ⌈n/s⌉` entries instead of `n`; with
/// `s ≈ √n` both tables stay cache-resident during the 6-step twiddle
/// pass, which is the point of the scheme.
#[derive(Clone, Debug)]
pub struct DynamicBlock {
    n: usize,
    s: usize,
    lo: Vec<c64>,
    hi: Vec<c64>,
}

impl DynamicBlock {
    /// Builds tables for transform length `n` with the default split
    /// `s = ⌈√n⌉`.
    pub fn new(n: usize) -> Self {
        let s = (n as f64).sqrt().ceil() as usize;
        Self::with_split(n, s.max(1))
    }

    /// Builds tables with an explicit low-table size `s`.
    pub fn with_split(n: usize, s: usize) -> Self {
        assert!(n > 0 && s > 0);
        let lo = (0..s).map(|j| c64::root_of_unity(n, j as i64)).collect();
        let hi_len = n.div_ceil(s);
        let hi = (0..hi_len)
            .map(|j| c64::root_of_unity(n, (j * s) as i64))
            .collect();
        DynamicBlock { n, s, lo, hi }
    }

    /// The transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the transform length is zero (never, for a valid plan).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total entries held (for working-set accounting in benches).
    pub fn table_entries(&self) -> usize {
        self.lo.len() + self.hi.len()
    }

    /// `w^{t mod n}` reconstructed from the two tables (one complex
    /// multiply).
    #[inline]
    pub fn get(&self, t: usize) -> c64 {
        let t = t % self.n;
        self.hi[t / self.s] * self.lo[t % self.s]
    }

    /// `row[c] *= w^{c·step mod n}` for every `c`: the twiddle pass over
    /// one row, bit-identical to multiplying by [`DynamicBlock::get`]
    /// (same table entries, same product) without its two divisions per
    /// element. The exponent `t` is kept as its table indices
    /// `(t / s, t % s)`: each step adds `(step / s, step % s)` with a
    /// carry, and a wrap past `n` subtracts `(n / s, n % s)` with a borrow.
    pub fn mul_powers(&self, row: &mut [c64], step: usize) {
        let (n, s) = (self.n, self.s);
        let step = step % n;
        let (step_hi, step_lo) = (step / s, step % s);
        let (n_hi, n_lo) = (n / s, n % s);
        let (mut hi, mut lo) = (0, 0);
        for v in row {
            *v *= self.hi[hi] * self.lo[lo];
            hi += step_hi;
            lo += step_lo;
            if lo >= s {
                lo -= s;
                hi += 1;
            }
            if (hi, lo) >= (n_hi, n_lo) {
                if lo < n_lo {
                    lo += s;
                    hi -= 1;
                }
                lo -= n_lo;
                hi -= n_hi;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use soifft_num::c32;

    #[test]
    fn full_table_matches_direct_roots() {
        let tw = Twiddles::<f64>::new(48);
        for j in 0..48 {
            let want = c64::root_of_unity(48, j as i64);
            assert!((tw.get(j) - want).abs() < 1e-15, "j={j}");
        }
        assert_eq!(tw.len(), 48);
        assert!(!tw.is_empty());
    }

    #[test]
    fn f32_table_is_demoted_from_f64() {
        let tw64 = Twiddles::<f64>::new(96);
        let tw32 = Twiddles::<f32>::new(96);
        for j in 0..96 {
            let want = c32::from_c64(tw64.get(j));
            assert_eq!(tw32.get(j), want, "j={j}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not reduced")]
    fn get_unreduced_index_panics_with_context_in_debug() {
        let tw = Twiddles::<f64>::new(8);
        let _ = tw.get(8);
    }

    #[test]
    fn dynamic_block_matches_full_table() {
        for n in [16usize, 100, 1024, 777] {
            let full = Twiddles::<f64>::new(n);
            let db = DynamicBlock::new(n);
            let mut max_err: f64 = 0.0;
            for t in 0..n {
                max_err = max_err.max((db.get(t) - full.get(t)).abs());
            }
            // One extra complex multiply costs at most a couple of ulps.
            assert!(max_err < 1e-14, "n={n}, err={max_err}");
        }
    }

    #[test]
    fn dynamic_block_is_smaller() {
        let db = DynamicBlock::new(1 << 16);
        assert!(db.table_entries() <= 2 * 256 + 2);
        assert_eq!(db.len(), 1 << 16);
    }

    #[test]
    fn dynamic_block_custom_split() {
        let db = DynamicBlock::with_split(1000, 10);
        let full = Twiddles::<f64>::new(1000);
        for t in (0..1000).step_by(37) {
            assert!((db.get(t) - full.get(t)).abs() < 1e-14);
        }
        assert_eq!(db.table_entries(), 10 + 100);
    }

    #[test]
    fn mul_powers_equals_get_bit_for_bit() {
        for n in [777usize, 5 << 15, 1 << 21] {
            let db = DynamicBlock::new(n);
            let s = db.s;
            let len = (2 * n).min(1 << 13);
            let row: Vec<c64> = (0..len)
                .map(|c| c64::new((0.37 * c as f64).sin(), (0.11 * c as f64).cos()))
                .collect();
            for step in [0, 1, s - 1, s, n - 1, n, n + 3, 3 * n + s] {
                let mut got = row.clone();
                db.mul_powers(&mut got, step);
                for (c, (g, x)) in got.iter().zip(&row).enumerate() {
                    let t = ((c as u128 * step as u128) % n as u128) as usize;
                    let want = *x * db.get(t);
                    let bits = |z: &c64| (z.re.to_bits(), z.im.to_bits());
                    assert_eq!(bits(g), bits(&want), "n={n} step={step} c={c}");
                }
            }
        }
    }

    #[test]
    fn mul_powers_handles_a_split_wider_than_n() {
        let db = DynamicBlock::with_split(10, 16);
        let mut got = vec![c64::ONE; 25];
        db.mul_powers(&mut got, 7);
        for (c, g) in got.iter().enumerate() {
            assert_eq!(*g, c64::ONE * db.get(7 * c), "c={c}");
        }
    }
}
