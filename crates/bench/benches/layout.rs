//! Criterion bench behind §5.2.4's data movement: the cache-blocked
//! transpose vs the naive one.

use criterion::{criterion_group, criterion_main, Criterion};
use soifft_bench::signal;
use soifft_num::c64;
use soifft_num::transpose::{transpose, transpose_naive};

fn bench_transpose(c: &mut Criterion) {
    let (rows, cols) = (512usize, 512usize);
    let src = signal(rows * cols, 41);
    let mut dst = vec![c64::ZERO; rows * cols];
    let mut g = c.benchmark_group("transpose");
    g.sample_size(20);
    g.bench_function("naive", |b| {
        b.iter(|| transpose_naive(&src, &mut dst, rows, cols));
    });
    g.bench_function("blocked_8x8", |b| {
        b.iter(|| transpose(&src, &mut dst, rows, cols));
    });
    g.finish();
}

criterion_group!(benches, bench_transpose);
criterion_main!(benches);
