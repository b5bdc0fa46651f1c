//! Criterion bench behind Figs 8/9 (functional side): end-to-end SOI vs
//! Cooley–Tukey on the simulated cluster, plus the ablation of the §6.1
//! segment-overlap exchange plans.

use criterion::{criterion_group, criterion_main, Criterion};
use soifft_bench::signal;
use soifft_cluster::Cluster;
use soifft_core::pipeline::ExchangePlan;
use soifft_core::{Rational, SoiFft, SoiParams};
use soifft_ct::DistributedCtFft;
use soifft_num::c64;

const N: usize = 1 << 14;
const PROCS: usize = 4;

fn inputs() -> Vec<Vec<c64>> {
    let x = signal(N, 23);
    let per = N / PROCS;
    (0..PROCS)
        .map(|r| x[r * per..(r + 1) * per].to_vec())
        .collect()
}

fn params() -> SoiParams {
    SoiParams {
        n: N,
        procs: PROCS,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 24,
    }
}

fn bench_end_to_end(c: &mut Criterion) {
    let ins = inputs();
    let mut g = c.benchmark_group("distributed");
    g.sample_size(10);

    let soi = SoiFft::new(params()).expect("plannable");
    g.bench_function("soi", |b| {
        b.iter(|| Cluster::run(PROCS, |comm| soi.forward(comm, &ins[comm.rank()])));
    });

    let ct = DistributedCtFft::new(N, PROCS).expect("plannable");
    g.bench_function("cooley_tukey", |b| {
        b.iter(|| Cluster::run(PROCS, |comm| ct.forward(comm, &ins[comm.rank()])));
    });
    g.finish();
}

fn bench_exchange_plans(c: &mut Criterion) {
    let ins = inputs();
    let mut g = c.benchmark_group("exchange_plan");
    g.sample_size(10);
    for (label, plan) in [
        ("monolithic", ExchangePlan::Monolithic),
        ("overlapped", ExchangePlan::Overlapped),
    ] {
        let soi = SoiFft::new(params())
            .expect("plannable")
            .with_exchange(plan);
        g.bench_function(label, |b| {
            b.iter(|| Cluster::run(PROCS, |comm| soi.forward(comm, &ins[comm.rank()])));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_end_to_end, bench_exchange_plans);
criterion_main!(benches);
