//! FFT-accelerated FIR filtering (overlap–save) with the node-local FFT.
//!
//! ```sh
//! cargo run --release --example fir_filter
//! ```
//!
//! A classic downstream use of the node-local FFT library: filter a long
//! real signal with a 129-tap low-pass FIR by multiplying in the frequency
//! domain, block by block (overlap–save), and verify against direct
//! time-domain convolution. Each real block runs through a complex `Plan`
//! with a zero imaginary part, and the real part of the inverse is the
//! filtered block. Shows the O(N log N) vs O(N·taps) advantage.

use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::special::sinc;

/// Windowed-sinc low-pass FIR, cutoff in cycles/sample.
fn design_lowpass(taps: usize, cutoff: f64) -> Vec<f64> {
    assert!(taps % 2 == 1, "odd tap count keeps the filter symmetric");
    let mid = (taps / 2) as f64;
    (0..taps)
        .map(|i| {
            let t = i as f64 - mid;
            // Hann-windowed sinc.
            let w = 0.5 + 0.5 * (std::f64::consts::PI * t / (mid + 1.0)).cos();
            2.0 * cutoff * sinc(2.0 * cutoff * t) * w
        })
        .collect()
}

/// Direct O(N·taps) convolution ("valid" samples only) — the reference.
fn convolve_direct(x: &[f64], h: &[f64]) -> Vec<f64> {
    let n = x.len();
    let k = h.len();
    (0..n - k + 1)
        .map(|i| {
            h.iter()
                .enumerate()
                .map(|(j, &hj)| hj * x[i + k - 1 - j])
                .sum()
        })
        .collect()
}

/// Overlap–save fast convolution via the complex FFT.
fn convolve_fft(x: &[f64], h: &[f64], block: usize) -> Vec<f64> {
    let k = h.len();
    assert!(block.is_power_of_two() && block > 2 * k, "block too small");
    let step = block - (k - 1);
    let plan = Plan::new(block);
    let mut scratch = plan.make_scratch();

    // Frequency response of the zero-padded filter.
    let mut h_spec = vec![c64::ZERO; block];
    for (s, &hj) in h_spec.iter_mut().zip(h) {
        *s = c64::real(hj);
    }
    plan.forward_with_scratch(&mut h_spec, &mut scratch);

    let mut buf = vec![c64::ZERO; block];
    let mut out = Vec::with_capacity(x.len());
    let mut pos = 0;
    while pos + block <= x.len() {
        for (b, &v) in buf.iter_mut().zip(&x[pos..pos + block]) {
            *b = c64::real(v);
        }
        plan.forward_with_scratch(&mut buf, &mut scratch);
        for (b, &hs) in buf.iter_mut().zip(&h_spec) {
            *b *= hs;
        }
        plan.inverse_with_scratch(&mut buf, &mut scratch);
        // First k−1 samples of each block are circular garbage: discard.
        out.extend(buf[k - 1..k - 1 + step].iter().map(|z| z.re));
        pos += step;
    }
    out
}

fn main() {
    let n = 1 << 16;
    let taps = 129;
    let h = design_lowpass(taps, 0.05);

    // Signal: slow ramp + low tone (should pass) + high tone (should be
    // rejected).
    let x: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64;
            (2.0 * std::f64::consts::PI * 0.01 * t).sin()
                + 0.8 * (2.0 * std::f64::consts::PI * 0.25 * t).sin()
        })
        .collect();

    let t0 = std::time::Instant::now();
    let fast = convolve_fft(&x, &h, 1024);
    let t_fast = t0.elapsed().as_secs_f64();

    let t0 = std::time::Instant::now();
    let direct = convolve_direct(&x, &h);
    let t_direct = t0.elapsed().as_secs_f64();

    // Compare on the overlap of both outputs.
    let m = fast.len().min(direct.len());
    let max_err = fast[..m]
        .iter()
        .zip(&direct[..m])
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);

    // Measure rejection: RMS of the high tone before/after.
    let rms = |v: &[f64]| (v.iter().map(|x| x * x).sum::<f64>() / v.len() as f64).sqrt();
    let rms_in = rms(&x);
    let rms_out = rms(&fast[..m]);

    println!("overlap-save FIR filtering, N = {n}, taps = {taps}");
    println!("  fast (FFT)    : {t_fast:.4} s");
    println!(
        "  direct        : {t_direct:.4} s  ({:.1}x slower)",
        t_direct / t_fast
    );
    println!("  max |fast - direct| = {max_err:.3e}");
    println!("  RMS in {rms_in:.3} -> out {rms_out:.3} (high tone removed)");

    assert!(max_err < 1e-10, "fast convolution disagrees with direct");
    // Input RMS = √(0.5 + 0.32) ≈ 0.906; with the 0.25-cyc/sample tone
    // rejected, only the unit low tone remains: RMS ≈ 1/√2.
    assert!(
        (rms_out - std::f64::consts::FRAC_1_SQRT_2).abs() < 0.02,
        "low-pass output RMS {rms_out} != 0.707"
    );
    println!("ok.");
}
