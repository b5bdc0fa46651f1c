//! Integer factorization utilities for FFT planning.
//!
//! FFT plans choose kernels by the factor structure of the transform length:
//! powers of two go to radix-8/4/2 ladders, smooth composites to mixed-radix
//! Cooley–Tukey, and everything else to Bluestein. The SOI plan additionally
//! validates divisibility constraints (`L | N`, `d_µ | M`, `n_µ·L | M'`).

/// Returns the prime factorization of `n` as `(prime, multiplicity)` pairs
/// in increasing prime order. `factorize(1)` is empty; `n = 0` panics.
pub fn factorize(mut n: usize) -> Vec<(usize, u32)> {
    assert!(n > 0, "cannot factorize zero");
    let mut out = Vec::new();
    let mut push = |p: usize, m: &mut u32| {
        if *m > 0 {
            out.push((p, *m));
            *m = 0;
        }
    };
    let mut m = 0u32;
    while n.is_multiple_of(2) {
        n /= 2;
        m += 1;
    }
    push(2, &mut m);
    let mut p = 3;
    while p * p <= n {
        while n.is_multiple_of(p) {
            n /= p;
            m += 1;
        }
        push(p, &mut m);
        p += 2;
    }
    if n > 1 {
        out.push((n, 1));
    }
    out
}

/// Smallest power of two ≥ `n`.
pub fn next_pow2(n: usize) -> usize {
    n.next_power_of_two()
}

/// Greatest common divisor.
pub fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// Pads a buffer stride to dodge cache-set conflicts (paper §5.2.3: "the
/// contiguous buffer is padded to avoid cache conflict misses").
///
/// Large power-of-two strides map successive rows onto the same cache
/// sets; adding one 64-byte line's worth of elements (`line_elems`)
/// de-aliases them. Strides that are not multiples of 512 elements are
/// returned unchanged.
pub fn padded_stride(len: usize, line_elems: usize) -> usize {
    assert!(line_elems > 0);
    if len >= 512 && len.is_multiple_of(512) {
        len + line_elems
    } else {
        len
    }
}

/// Splits `n` into `(a, b)` with `a * b == n` and `a` as close to `√n` as
/// possible (`a ≤ b`). Used by the 6-step FFT to pick its 2D decomposition.
pub fn balanced_split(n: usize) -> (usize, usize) {
    assert!(n > 0);
    let mut best = (1, n);
    let mut a = 1;
    while a * a <= n {
        if n.is_multiple_of(a) {
            best = (a, n / a);
        }
        a += 1;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorize_basics() {
        assert_eq!(factorize(1), vec![]);
        assert_eq!(factorize(2), vec![(2, 1)]);
        assert_eq!(factorize(360), vec![(2, 3), (3, 2), (5, 1)]);
        assert_eq!(factorize(97), vec![(97, 1)]);
        assert_eq!(factorize(1 << 20), vec![(2, 20)]);
    }

    #[test]
    fn factorize_reconstructs() {
        for n in 1..500usize {
            let prod: usize = factorize(n).iter().map(|&(p, m)| p.pow(m)).product();
            assert_eq!(prod, n);
        }
    }

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(1000), 1024);
        assert_eq!(next_pow2(1024), 1024);
    }

    #[test]
    fn gcd_values() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(7, 13), 1);
        assert_eq!(gcd(0, 5), 5);
    }

    #[test]
    fn padded_stride_behaviour() {
        // Small or odd strides untouched.
        assert_eq!(padded_stride(100, 4), 100);
        assert_eq!(padded_stride(511, 4), 511);
        assert_eq!(padded_stride(768, 4), 768); // multiple of 256, not 512
                                                // Conflict-prone strides padded by one line.
        assert_eq!(padded_stride(512, 4), 516);
        assert_eq!(padded_stride(1 << 15, 4), (1 << 15) + 4);
        assert_eq!(padded_stride(1024, 8), 1032);
    }

    #[test]
    fn balanced_split_properties() {
        for n in [1usize, 2, 12, 64, 97, 4096, 1 << 15, 360] {
            let (a, b) = balanced_split(n);
            assert_eq!(a * b, n);
            assert!(a <= b);
        }
        assert_eq!(balanced_split(1 << 14), (1 << 7, 1 << 7));
        assert_eq!(balanced_split(1 << 15), (128, 256));
        assert_eq!(balanced_split(97), (1, 97));
    }
}
