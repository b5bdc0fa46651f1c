//! Order statistics for the harness: medians, nearest-rank percentiles
//! with their tail count, and the quartile spread the acceptance procedure
//! is written in.

/// Samples that must lie beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Sorts ascending (NaN-free inputs; `total_cmp` keeps it total anyway).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `v` (mean of the two middle samples for even counts).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `q` of the samples at or below it, and how many samples lie
/// strictly beyond its rank.
pub fn percentile(sorted: &[f64], q: f64) -> (f64, usize) {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted[rank - 1], sorted.len() - rank)
}

/// True when percentile `q` of `count` samples has at least [`MIN_TAIL`]
/// samples beyond it — the condition under which it may be reported.
pub fn tail_ok(count: usize, q: f64) -> bool {
    count > 0 && count - ((q * count as f64).ceil() as usize).clamp(1, count) >= MIN_TAIL
}

/// Fewest samples for which [`tail_ok`] holds at `q`.
pub fn min_count_for(q: f64) -> usize {
    (1..).find(|&n| tail_ok(n, q)).expect("some count suffices")
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let data = sorted(values.to_vec());
    let ld = data.len();
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the acceptance procedure bounds.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Most blocks a run's samples are split into; odd, so that the median
/// block statistic is one block's own value.
pub const MAX_BLOCKS: usize = 15;

/// Splits time-ordered samples into consecutive blocks of at least
/// `min_block` samples each — as many as fit, at most [`MAX_BLOCKS`], one
/// when there are fewer than `2 · min_block` samples. A run reports the
/// median over blocks of each block's statistic, so that a burst of
/// interference from the host, which spoils a few blocks, does not move
/// the reported value.
pub fn blocks(samples: &[f64], min_block: usize) -> Vec<&[f64]> {
    let count = (samples.len() / min_block.max(1)).clamp(1, MAX_BLOCKS);
    let size = samples.len() / count;
    (0..count)
        .map(|b| {
            let end = if b + 1 == count {
                samples.len()
            } else {
                (b + 1) * size
            };
            &samples[b * size..end]
        })
        .collect()
}
