//! Direct O(n²) discrete Fourier transform.
//!
//! These are the *reference* implementations: every fast path in this crate
//! (and the SOI pipeline above it) is tested against them. They are also
//! used at plan-build time to evaluate window spectra exactly.

use soifft_num::c64;

/// Computes the forward DFT `y_k = Σ_n x_n e^{−2πi nk/n}` directly.
///
/// O(n²); intended for tests and tiny transforms only.
pub fn dft(input: &[c64]) -> Vec<c64> {
    let n = input.len();
    let mut out = vec![c64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = c64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            acc += x * c64::root_of_unity(n, (j as i64) * (k as i64));
        }
        *o = acc;
    }
    out
}

/// Computes the normalized inverse DFT `x_n = (1/n) Σ_k y_k e^{+2πi nk/n}`
/// directly. O(n²).
pub fn idft(input: &[c64]) -> Vec<c64> {
    let n = input.len();
    let mut out = vec![c64::ZERO; n];
    for (k, o) in out.iter_mut().enumerate() {
        let mut acc = c64::ZERO;
        for (j, &x) in input.iter().enumerate() {
            acc += x * c64::root_of_unity(n, -((j as i64) * (k as i64)));
        }
        *o = acc / n as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use soifft_num::error::rel_linf;

    fn impulse(n: usize, at: usize) -> Vec<c64> {
        let mut v = vec![c64::ZERO; n];
        v[at] = c64::ONE;
        v
    }

    #[test]
    fn dft_of_impulse_is_complex_exponential() {
        let n = 16;
        let y = dft(&impulse(n, 1));
        for (k, &v) in y.iter().enumerate() {
            let want = c64::root_of_unity(n, k as i64);
            assert!((v - want).abs() < 1e-12, "bin {k}");
        }
    }

    #[test]
    fn dft_of_constant_is_impulse() {
        let n = 8;
        let y = dft(&vec![c64::ONE; n]);
        assert!((y[0] - c64::real(n as f64)).abs() < 1e-12);
        for &v in &y[1..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn dft_linearity() {
        let a: Vec<c64> = (0..12).map(|i| c64::new(i as f64, 1.0)).collect();
        let b: Vec<c64> = (0..12).map(|i| c64::new(0.5, -(i as f64))).collect();
        let sum: Vec<c64> = a.iter().zip(&b).map(|(&x, &y)| x + y * 2.0).collect();
        let lhs = dft(&sum);
        let ya = dft(&a);
        let yb = dft(&b);
        let rhs: Vec<c64> = ya.iter().zip(&yb).map(|(&x, &y)| x + y * 2.0).collect();
        assert!(rel_linf(&lhs, &rhs) < 1e-13);
    }

    #[test]
    fn idft_inverts_dft() {
        let x: Vec<c64> = (0..20)
            .map(|i| c64::new((i as f64).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let back = idft(&dft(&x));
        assert!(rel_linf(&back, &x) < 1e-12);
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<c64> = (0..31).map(|i| c64::new(i as f64 * 0.1, -0.3)).collect();
        let y = dft(&x);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((ex - ey).abs() / ex < 1e-12);
    }
}
