//! Criterion bench of the all-to-all exchange (the `Perm_{L,N'}` step of
//! SOI, three of them in Cooley–Tukey): one allocating `all_to_all` per
//! launch against eight back-to-back `all_to_all_into` calls whose
//! payloads cycle through the rank's buffer pool.

use criterion::{criterion_group, criterion_main, Criterion};
use soifft_bench::signal;
use soifft_cluster::Cluster;
use soifft_num::c64;

fn make_outgoing(rank: usize, procs: usize, per_dest: usize) -> Vec<Vec<c64>> {
    (0..procs)
        .map(|d| signal(per_dest, (rank * procs + d) as u64 + 1))
        .collect()
}

fn bench_alltoall(c: &mut Criterion) {
    let procs = 4;
    let per_dest = 1 << 12;
    let mut g = c.benchmark_group("alltoall");
    g.sample_size(10);
    g.bench_function("blocking", |b| {
        b.iter(|| {
            Cluster::run(procs, |comm| {
                comm.all_to_all(make_outgoing(comm.rank(), procs, per_dest))
            })
        });
    });
    g.bench_function("into_x8", |b| {
        b.iter(|| {
            Cluster::run(procs, |comm| {
                let data = make_outgoing(comm.rank(), procs, per_dest);
                let mut outgoing = vec![Vec::new(); procs];
                let mut incoming = Vec::new();
                for _ in 0..8 {
                    for (slot, part) in outgoing.iter_mut().zip(&data) {
                        *slot = comm.acquire_buffer(per_dest);
                        slot.extend_from_slice(part);
                    }
                    comm.all_to_all_into(&mut outgoing, &mut incoming);
                }
            })
        });
    });
    g.finish();
}

criterion_group!(benches, bench_alltoall);
criterion_main!(benches);
