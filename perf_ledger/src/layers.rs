//! Isolated per-layer measurements: the benchmark timing calls into the
//! program's public functions at exactly the shapes a workload's plan
//! implies, with both rank threads running concurrently so that bandwidth
//! contention is as real as inside a transform.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use soifft::cluster::{tags, Comm};
use soifft::fft::{batch, fft_flops, Plan, SixStepFft, SixStepVariant};
use soifft::num::{c32, c64, simd, transpose};
use soifft::par::Pool;
use soifft::soi::conv::{convolve_fused_fft_with_scratch, convolve_with_scratch, ConvScratch};
use soifft::soi::{SoiFft, SoiParams};

use crate::dist::{launch, Fabric};
use crate::host::RANKS;
use crate::input::uniform;
use crate::stats::median;

/// Most rounds one measurement takes: enough for a median, and few enough
/// that repeated in-place FFTs stay far from overflow.
const MAX_ROUNDS: usize = 48;

/// Runs `op` on `threads` threads in lock-step rounds for about `budget_s`
/// seconds and returns the median round time, a round lasting as long as
/// its slowest thread. `prep` runs untimed before every round.
pub fn lockstep<S>(
    threads: usize,
    budget_s: f64,
    make: impl Fn(usize) -> S + Sync,
    prep: impl Fn(&mut S) + Sync,
    op: impl Fn(&mut S) + Sync,
) -> f64 {
    let barrier = Barrier::new(threads);
    let rounds = AtomicUsize::new(0);
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (barrier, rounds, make, prep, op) = (&barrier, &rounds, &make, &prep, &op);
                scope.spawn(move || {
                    let mut state = make(tid);
                    let timed_round = |state: &mut S| {
                        prep(state);
                        barrier.wait();
                        let t = Instant::now();
                        op(state);
                        t.elapsed().as_secs_f64()
                    };
                    let first = timed_round(&mut state);
                    if tid == 0 {
                        let fit = (budget_s / first.max(1e-9)) as usize;
                        rounds.store(fit.clamp(3, MAX_ROUNDS), Ordering::SeqCst);
                    }
                    barrier.wait();
                    let count = rounds.load(Ordering::SeqCst);
                    (0..count).map(|_| timed_round(&mut state)).collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("measurement thread"))
            .collect()
    });
    let slowest: Vec<f64> = (0..per_thread[0].len())
        .map(|i| per_thread.iter().map(|t| t[i]).fold(0.0, f64::max))
        .collect();
    median(&slowest)
}

/// STREAM-style ceilings: `(copy GB/s, triad GB/s)` over `threads` threads,
/// each array `array_bytes` in total (split between the threads). Copy
/// counts 2 bytes moved per byte copied, triad 3 arrays per pass.
pub fn host_bandwidth(threads: usize, array_bytes: usize, budget_s: f64) -> (f64, f64) {
    let len = array_bytes / 8 / threads;
    let make = |_| (vec![1.0f64; len], vec![2.0f64; len], vec![0.5f64; len]);
    let copy_s = lockstep(
        threads,
        budget_s,
        make,
        |_| {},
        |(a, b, _)| {
            a.copy_from_slice(std::hint::black_box(b));
        },
    );
    let triad_s = lockstep(
        threads,
        budget_s,
        make,
        |_| {},
        |(a, b, c)| {
            for ((a, b), c) in a.iter_mut().zip(b.iter()).zip(c.iter()) {
                *a = *b + 3.0 * *c;
            }
            std::hint::black_box(&a);
        },
    );
    let moved = |arrays: usize| (arrays * len * 8 * threads) as f64 * 1e-9;
    (moved(2) / copy_s, moved(3) / triad_s)
}

/// Rates of the `num` kernels at the plan's shapes, both threads busy.
pub struct NumRates {
    /// `simd::dot_c64` over convolution rows of `B` taps, GFlop/s.
    pub dot_c64_gflops: f64,
    /// `simd::mul_pointwise_c64` at `M'`, GB/s.
    pub mul_pointwise_c64_gbps: f64,
    /// `transpose::transpose` of one CT block, GB/s.
    pub transpose_gbps: f64,
    /// `simd::unpack_c32_pairs` at `M'`, GB/s.
    pub unpack_c32_pairs_gbps: f64,
    /// `simd::promote_c32_c64` at `M'`, GB/s.
    pub promote_c32_c64_gbps: f64,
}

/// Measures [`NumRates`] for `p`'s shapes; the CT block is `ct_rows ×
/// ct_cols`.
pub fn num_rates(p: &SoiParams, ct_rows: usize, ct_cols: usize, budget_s: f64) -> NumRates {
    let b = p.conv_width;
    let m_prime = p.m_prime();
    let t = RANKS as f64;
    let rows = p.per_rank() / b;
    let dot_s = lockstep(
        RANKS,
        budget_s,
        |tid| {
            (
                uniform(b, 1 + tid as u64),
                uniform(rows * b, 11 + tid as u64),
            )
        },
        |_| {},
        |(taps, x)| {
            let mut acc = c64::ZERO;
            for row in x.chunks_exact(b) {
                acc += simd::dot_c64(taps, row);
            }
            std::hint::black_box(acc);
        },
    );
    let unit: Vec<c64> = (0..m_prime).map(|i| c64::cis(i as f64)).collect();
    let mul_s = lockstep(
        RANKS,
        budget_s,
        |tid| uniform(m_prime, 21 + tid as u64),
        |_| {},
        |data| simd::mul_pointwise_c64(data, &unit),
    );
    let transpose_s = lockstep(
        RANKS,
        budget_s,
        |tid| {
            (
                uniform(ct_rows * ct_cols, 31 + tid as u64),
                vec![c64::ZERO; ct_rows * ct_cols],
            )
        },
        |_| {},
        |(src, dst)| transpose::transpose(src, dst, ct_rows, ct_cols),
    );
    let unpack_s = lockstep(
        RANKS,
        budget_s,
        |tid| {
            (
                uniform(m_prime.div_ceil(2), 41 + tid as u64),
                vec![c32::ZERO; m_prime],
            )
        },
        |_| {},
        |(src, dst)| simd::unpack_c32_pairs(src, dst),
    );
    let promote_s = lockstep(
        RANKS,
        budget_s,
        |tid| {
            let src: Vec<c32> = uniform(m_prime, 51 + tid as u64)
                .iter()
                .map(|&v| c32::from_c64(v))
                .collect();
            (src, vec![c64::ZERO; m_prime])
        },
        |_| {},
        |(src, dst)| simd::promote_c32_c64(src, dst),
    );
    NumRates {
        dot_c64_gflops: t * (8 * b * rows) as f64 * 1e-9 / dot_s,
        mul_pointwise_c64_gbps: t * (48 * m_prime) as f64 * 1e-9 / mul_s,
        transpose_gbps: t * (32 * ct_rows * ct_cols) as f64 * 1e-9 / transpose_s,
        unpack_c32_pairs_gbps: t * (16 * m_prime) as f64 * 1e-9 / unpack_s,
        promote_c32_c64_gbps: t * (24 * m_prime) as f64 * 1e-9 / promote_s,
    }
}

/// One fork-join of an empty two-thread `par_chunks_mut`, microseconds.
pub fn fork_join_us(budget_s: f64) -> f64 {
    const CALLS: usize = 64;
    let pool = Pool::new(RANKS);
    let round_s = lockstep(
        1,
        budget_s,
        |_| vec![0u8; RANKS],
        |_| {},
        |data| {
            for _ in 0..CALLS {
                pool.par_chunks_mut(data, 1, |_, _, piece| {
                    std::hint::black_box(piece);
                });
            }
        },
    );
    round_s / CALLS as f64 * 1e6
}

/// Rates of the node-local FFTs at the plan's shapes.
pub struct FftRates {
    /// `batch::forward_rows_with` over one rank's `L`-point blocks, both ranks busy.
    pub rows_l_gflops: f64,
    /// `Plan::forward_with_scratch` at `M'`, both ranks busy.
    pub plan_mprime_gflops: f64,
    /// The same in single precision.
    pub plan_mprime_f32_gflops: f64,
    /// `Plan` at the full `N`, one thread: the plain single-threaded baseline.
    pub plan_full_n_gflops: f64,
    /// Seconds of one such full-`N` transform.
    pub plan_full_n_s: f64,
    /// `SixStepFft` (parallel variant) at the full `N` on a two-thread pool.
    pub sixstep_full_n_gflops: f64,
    /// Cold `Plan::try_new(M')`, seconds.
    pub plan_build_mprime_s: f64,
    /// Seconds of one `M'` transform round (both ranks busy).
    pub plan_mprime_s: f64,
}

/// Measures [`FftRates`] for `p`'s shapes.
pub fn fft_rates(p: &SoiParams, budget_s: f64) -> FftRates {
    let (n, l, m_prime, blocks) = (p.n, p.total_segments(), p.m_prime(), p.blocks_per_rank());
    let t = RANKS as f64;
    let t_build = Instant::now();
    let plan_mp = Plan::<f64>::try_new(m_prime).expect("M' is positive");
    let plan_build_mprime_s = t_build.elapsed().as_secs_f64();

    let plan_l = Plan::<f64>::new(l);
    let rows_s = lockstep(
        RANKS,
        budget_s,
        |tid| (uniform(blocks * l, 61 + tid as u64), plan_l.make_scratch()),
        |_| {},
        |(data, scratch)| batch::forward_rows_with(&plan_l, data, scratch),
    );
    let mp_s = lockstep(
        RANKS,
        budget_s,
        |tid| (uniform(m_prime, 71 + tid as u64), plan_mp.make_scratch()),
        |_| {},
        |(data, scratch)| plan_mp.forward_with_scratch(data, scratch),
    );
    // Single precision overflows after a dozen unnormalized passes, so
    // every round starts again from the pristine input.
    let plan32 = Plan::<f32>::new(m_prime);
    let mp32_s = lockstep(
        RANKS,
        budget_s,
        |tid| {
            let pristine: Vec<c32> = uniform(m_prime, 81 + tid as u64)
                .iter()
                .map(|&v| c32::from_c64(v))
                .collect();
            (pristine.clone(), pristine, plan32.make_scratch())
        },
        |(data, pristine, _)| data.copy_from_slice(pristine),
        |(data, _, scratch)| plan32.forward_with_scratch(data, scratch),
    );
    let plan_n = Plan::<f64>::new(n);
    let full_s = lockstep(
        1,
        budget_s,
        |_| (uniform(n, 91), plan_n.make_scratch()),
        |_| {},
        |(data, scratch)| plan_n.forward_with_scratch(data, scratch),
    );
    let six = SixStepFft::with_pool(n, SixStepVariant::FusedParallel, Pool::new(RANKS));
    let six_s = lockstep(
        1,
        budget_s,
        |_| (uniform(n, 92), vec![c64::ZERO; n], six.make_scratch()),
        |_| {},
        |(data, aux, scratch)| six.forward_with(data, aux, scratch),
    );
    FftRates {
        rows_l_gflops: t * blocks as f64 * fft_flops(l) * 1e-9 / rows_s,
        plan_mprime_gflops: t * fft_flops(m_prime) * 1e-9 / mp_s,
        plan_mprime_f32_gflops: t * fft_flops(m_prime) * 1e-9 / mp32_s,
        plan_full_n_gflops: fft_flops(n) * 1e-9 / full_s,
        plan_full_n_s: full_s,
        sixstep_full_n_gflops: fft_flops(n) * 1e-9 / six_s,
        plan_build_mprime_s,
        plan_mprime_s: mp_s,
    }
}

/// Rates of the convolution in isolation, both ranks busy.
pub struct ConvRates {
    /// `conv::convolve_with_scratch` under the plan's strategy, GFlop/s.
    pub conv_gflops: f64,
    /// `conv::convolve_fused_fft_with_scratch` (convolution + `F_L`), GFlop/s.
    pub conv_fused_gflops: f64,
    /// Seconds of one unfused convolution round.
    pub conv_s: f64,
}

/// Measures [`ConvRates`] with `fft`'s window, strategy and shapes.
pub fn conv_rates(fft: &SoiFft, budget_s: f64) -> ConvRates {
    let p = fft.params();
    let plan_l = soifft::fft::shared_plan(p.total_segments());
    let pool = Pool::serial();
    let make = |tid: usize| {
        (
            uniform(p.per_rank() + p.ghost_len(), 101 + tid as u64),
            vec![c64::ZERO; p.blocks_per_rank() * p.total_segments()],
            ConvScratch::new(p, &plan_l, &pool),
        )
    };
    let conv_s = lockstep(
        RANKS,
        budget_s,
        make,
        |_| {},
        |(x, u, scratch)| {
            convolve_with_scratch(p, fft.window(), fft.strategy(), x, u, &pool, scratch);
        },
    );
    let fused_s = lockstep(
        RANKS,
        budget_s,
        make,
        |_| {},
        |(x, u, scratch)| {
            convolve_fused_fft_with_scratch(p, fft.window(), x, u, &plan_l, &pool, scratch);
        },
    );
    let seg_fft_flops = (p.procs * p.blocks_per_rank()) as f64 * fft_flops(p.total_segments());
    ConvRates {
        conv_gflops: p.conv_flops() * 1e-9 / conv_s,
        conv_fused_gflops: (p.conv_flops() + seg_fft_flops) * 1e-9 / fused_s,
        conv_s,
    }
}

/// Transport primitives on one fabric.
pub struct FabricRates {
    /// One-way latency of a one-element message (half a ping-pong), µs.
    pub pingpong_us: f64,
    /// One `barrier()`, µs.
    pub barrier_us: f64,
    /// `all_to_all_into` at `a2a_len` elements per destination: off-rank GB/s.
    pub a2a_gbps: f64,
    /// `all_to_all_into` at `a2a_small_len` elements per destination, µs.
    pub a2a_small_us: f64,
    /// `exchange_ghost` of `ghost_len` elements, µs.
    pub ghost_us: f64,
    /// Launch and join of an idle cluster, seconds.
    pub launch_s: f64,
}

/// `reps` timed repetitions of `op` on every rank, each after a barrier;
/// the median over repetitions of the slowest rank is taken by the caller
/// through `allreduce_max`.
fn timed_collective(comm: &mut Comm, reps: usize, mut op: impl FnMut(&mut Comm)) -> f64 {
    op(comm);
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        comm.barrier();
        let t = Instant::now();
        op(comm);
        let mine = t.elapsed().as_secs_f64();
        times.push(comm.allreduce_max(mine));
    }
    comm.stats_mut().clear_records();
    median(&times)
}

/// Measures [`FabricRates`] on `fabric`; `scale` shortens the repetition
/// counts for smoke runs.
pub fn fabric_rates(
    fabric: Fabric,
    a2a_len: usize,
    a2a_small_len: usize,
    ghost_len: usize,
    scale: f64,
) -> FabricRates {
    let reps = |base: usize| ((base as f64 * scale) as usize).max(3);
    let t_launch = Instant::now();
    launch(fabric, RANKS, |_| ());
    let launch_s = t_launch.elapsed().as_secs_f64();

    let a2a = |comm: &mut Comm, len: usize, reps: usize| {
        let mut outgoing: Vec<Vec<c64>> = vec![Vec::new(); RANKS];
        let mut incoming = Vec::with_capacity(RANKS);
        timed_collective(comm, reps, |comm| {
            for slot in outgoing.iter_mut() {
                let mut buf = comm.acquire_buffer(len);
                buf.resize(len, c64::ONE);
                *slot = buf;
            }
            comm.all_to_all_into(&mut outgoing, &mut incoming);
            for buf in incoming.drain(..) {
                comm.recycle_buffer(buf);
            }
        })
    };
    let per_rank = launch(fabric, RANKS, |comm| {
        let peer = (comm.rank() + 1) % RANKS;
        let rounds = reps(2000);
        let mut trip = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            comm.barrier();
            let t = Instant::now();
            if comm.rank() == 0 {
                comm.send(peer, tags::USER, vec![c64::ONE]);
                std::hint::black_box(comm.recv(peer, tags::USER));
            } else {
                let got = comm.recv(peer, tags::USER);
                comm.send(peer, tags::USER, got);
            }
            trip.push(t.elapsed().as_secs_f64());
        }
        let pingpong_us = median(&trip) * 0.5e6;
        let barrier_us = timed_collective(comm, reps(2000), |comm| comm.barrier()) * 1e6;
        let a2a_s = a2a(comm, a2a_len, reps(30));
        let a2a_small_us = a2a(comm, a2a_small_len, reps(1000)) * 1e6;
        let local = vec![c64::ONE; ghost_len];
        let ghost_us = timed_collective(comm, reps(2000), |comm| {
            let ghost = comm.exchange_ghost(&local, ghost_len);
            comm.recycle_buffer(ghost);
        }) * 1e6;
        FabricRates {
            pingpong_us,
            barrier_us,
            a2a_gbps: (RANKS * (RANKS - 1) * a2a_len * 16) as f64 * 1e-9 / a2a_s,
            a2a_small_us,
            ghost_us,
            launch_s,
        }
    });
    per_rank.into_iter().next().expect("rank 0")
}
