//! Criterion bench behind Fig 10: node-local FFT performance.
//!
//! Groups:
//! * `plan` — the general plan across size classes (pow2 / smooth /
//!   Bluestein),
//! * `sixstep_ladder` — the four Fig 10 rungs at a fixed large size,
//! * `fused_demod` — §5.2.4's fused demodulation vs a separate sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use soifft_bench::signal;
use soifft_fft::{fft_flops, Plan, SixStepFft, SixStepVariant};
use soifft_num::c64;
use soifft_par::Pool;

fn bench_plan(c: &mut Criterion) {
    let mut g = c.benchmark_group("plan");
    g.sample_size(10);
    for &n in &[1usize << 10, 1 << 14, 3 * (1 << 12), 1009 * 16] {
        let plan = Plan::new(n);
        let x = signal(n, 5);
        let mut data = x.clone();
        let mut scratch = plan.make_scratch();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                data.copy_from_slice(&x);
                plan.forward_with_scratch(&mut data, &mut scratch);
            });
        });
    }
    g.finish();
}

fn bench_sixstep_ladder(c: &mut Criterion) {
    let n = 1 << 18;
    let x = signal(n, 6);
    let mut g = c.benchmark_group("sixstep_ladder");
    g.sample_size(10);
    g.throughput(Throughput::Elements(n as u64));
    for variant in SixStepVariant::LADDER {
        let plan = SixStepFft::with_pool(n, variant, Pool::default());
        let mut data = x.clone();
        let mut aux = vec![c64::ZERO; n];
        g.bench_function(variant.label(), |b| {
            b.iter(|| {
                data.copy_from_slice(&x);
                plan.forward(&mut data, &mut aux);
            });
        });
    }
    g.finish();
    eprintln!(
        "(fig10 note: {} flops per transform at n = {n})",
        fft_flops(n)
    );
}

fn bench_fused_demod(c: &mut Criterion) {
    let n = 1 << 16;
    let x = signal(n, 8);
    let scale: Vec<c64> = (0..n)
        .map(|k| c64::new(1.0 / (1.0 + k as f64), 0.0))
        .collect();
    let plan = SixStepFft::new(n, SixStepVariant::FusedDynamic);
    let mut g = c.benchmark_group("fused_demod");
    g.sample_size(10);
    let mut data = x.clone();
    let mut aux = vec![c64::ZERO; n];
    g.bench_function("fused", |b| {
        b.iter(|| {
            data.copy_from_slice(&x);
            plan.forward_scaled(&mut data, &mut aux, &scale);
        });
    });
    g.bench_function("separate_sweep", |b| {
        b.iter(|| {
            data.copy_from_slice(&x);
            plan.forward(&mut data, &mut aux);
            for (v, &m) in data.iter_mut().zip(&scale) {
                *v *= m;
            }
        });
    });
    g.finish();
}

criterion_group!(benches, bench_plan, bench_sixstep_ladder, bench_fused_demod);
criterion_main!(benches);
