//! Steady-state allocation accounting for the workspace pipelines.
//!
//! A counting global allocator brackets a window of warm
//! [`SoiFft::forward_into`] calls and proves the default configuration's
//! hot path never touches the heap: every per-call buffer lives in the
//! planned [`soifft::soi::SoiWorkspace`] and every exchange payload cycles
//! through the communicator's buffer pool. The resilient path
//! ([`SoiFft::try_forward_into`]) is held to a *bounded* budget instead —
//! its consensus and retransmit staging legitimately allocate, but never
//! the pipeline's working set. A final sweep pins `forward_into` (and
//! `forward_many`) bit-identical to `forward` across every convolution
//! strategy × exchange plan, so the allocation-free path can never drift
//! numerically from the allocating one.
//!
//! The counter is a process-wide `#[global_allocator]` and libtest runs
//! the tests of one binary concurrently, so every test takes the
//! file-level `WINDOW` lock first: a fenced window then sees its own
//! cluster's threads and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use soifft::cluster::{tags, Cluster, ExchangePolicy};
use soifft::num::c64;
use soifft::soi::pipeline::{gather_output, scatter_input, ExchangePlan};
use soifft::soi::{ConvStrategy, Rational, SoiFft, SoiParams};

/// Process-wide allocation ledger: heap calls (`alloc` + `realloc`) and
/// bytes requested. Shared by every thread of the test binary, so a window
/// bracketed by cluster-wide barriers observes the allocations of *all*
/// ranks of its own cluster — and of every other test libtest happens to
/// be running beside it. Each test therefore holds [`WINDOW`] for its
/// whole body: one cluster at a time owns the ledger.
static HEAP_CALLS: AtomicU64 = AtomicU64::new(0);
static HEAP_BYTES: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests of this file. libtest runs them on parallel
/// threads; without the lock a fenced window counts its neighbours'
/// warm-up allocations.
static WINDOW: Mutex<()> = Mutex::new(());

/// Takes [`WINDOW`], tolerating poison: a failed neighbour must not turn
/// every later test into a `PoisonError` instead of its own verdict.
fn window() -> MutexGuard<'static, ()> {
    WINDOW.lock().unwrap_or_else(|e| e.into_inner())
}

/// [`System`] with a call/byte counter in front. Deallocation is
/// deliberately uncounted: recycling a buffer is fine, *acquiring* one in
/// the steady state is the regression this harness exists to catch.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        HEAP_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_CALLS.fetch_add(1, Ordering::Relaxed);
        HEAP_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn params() -> SoiParams {
    SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 20,
    }
}

fn signal(n: usize) -> Vec<c64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            c64::new((0.002 * t).sin() + 0.1, 0.3 * (0.017 * t).cos())
        })
        .collect()
}

/// Transforms measured inside the counting window.
const MEASURED: usize = 4;
/// Phase records a single superstep can close (generous; reserved before
/// the window so the ledger never regrows inside it).
const RECORDS_PER_CALL: usize = 64;

/// The tentpole claim: after warmup, the default configuration's
/// `forward_into` makes **zero** heap allocations — across *all* ranks,
/// since the ledger is process-global and the window is fenced by
/// cluster-wide barriers.
#[test]
fn forward_into_steady_state_allocates_nothing() {
    let _window = window();
    let params = params();
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let fft = SoiFft::new(params).expect("valid params");

    let deltas = Cluster::run(params.procs, |comm| {
        let me = &inputs[comm.rank()];
        let mut ws = fft.make_workspace();
        let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
        // Warm the workspace, the communicator's buffer pool, and the
        // pending-message map (two calls: the first grows everything, the
        // second settles the pool's acquire/recycle cycle).
        for _ in 0..3 {
            fft.forward_into(comm, me, &mut ws, &mut y);
        }
        // Push every inbox ring buffer to a depth no measured superstep
        // can reach (ranks drift at most one call apart, a dozen or so
        // queued messages): all ranks blast a burst at every destination,
        // fence, then drain — the inbox capacity high-water mark outlives
        // the flood, so scheduling jitter inside the window can never
        // force a queue regrow.
        const FLOOD: usize = 16;
        for _ in 0..FLOOD {
            for dst in 0..comm.size() {
                let mut burst = comm.acquire_buffer(16);
                burst.resize(16, c64::ZERO);
                comm.send(dst, tags::USER, burst);
            }
        }
        comm.barrier();
        for _ in 0..FLOOD {
            for src in 0..comm.size() {
                let drained = comm.recv(src, tags::USER);
                comm.recycle_buffer(drained);
            }
        }
        comm.stats_mut()
            .reserve_records(MEASURED * RECORDS_PER_CALL);
        comm.barrier();
        let calls_before = HEAP_CALLS.load(Ordering::SeqCst);
        for _ in 0..MEASURED {
            fft.forward_into(comm, me, &mut ws, &mut y);
        }
        let delta = HEAP_CALLS.load(Ordering::SeqCst) - calls_before;
        // Hold every rank until all have snapshotted: the launcher's
        // result-channel send (below) allocates and must not land inside
        // a slower rank's still-open window.
        comm.barrier();
        delta
    });

    for (rank, delta) in deltas.iter().enumerate() {
        assert_eq!(
            *delta, 0,
            "rank {rank} observed {delta} heap allocations across {MEASURED} \
             warm forward_into calls; the steady-state hot path must not \
             touch the allocator"
        );
    }
}

/// The half-width data path earns its bandwidth win without paying it
/// back in allocator traffic: a warm `forward_into` under
/// [`Precision::F32`] (c32 wire + f32 recovery FFT, extra `z32` /
/// `fft32_scratch` workspace fields) and [`Precision::Split`] is held to
/// the same **zero** standard as the f64 default.
#[test]
fn lowprec_forward_into_steady_state_allocates_nothing() {
    let _window = window();
    use soifft::soi::Precision;

    let params = params();
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);

    for precision in [Precision::F32, Precision::Split] {
        let fft = SoiFft::new(params)
            .expect("valid params")
            .with_precision(precision);

        let deltas = Cluster::run(params.procs, |comm| {
            let me = &inputs[comm.rank()];
            let mut ws = fft.make_workspace();
            let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
            for _ in 0..3 {
                fft.forward_into(comm, me, &mut ws, &mut y);
            }
            // Same inbox flood as the f64 test: pre-stretch every ring
            // buffer past what scheduling jitter can queue mid-window.
            const FLOOD: usize = 16;
            for _ in 0..FLOOD {
                for dst in 0..comm.size() {
                    let mut burst = comm.acquire_buffer(16);
                    burst.resize(16, c64::ZERO);
                    comm.send(dst, tags::USER, burst);
                }
            }
            comm.barrier();
            for _ in 0..FLOOD {
                for src in 0..comm.size() {
                    let drained = comm.recv(src, tags::USER);
                    comm.recycle_buffer(drained);
                }
            }
            comm.stats_mut()
                .reserve_records(MEASURED * RECORDS_PER_CALL);
            comm.barrier();
            let calls_before = HEAP_CALLS.load(Ordering::SeqCst);
            for _ in 0..MEASURED {
                fft.forward_into(comm, me, &mut ws, &mut y);
            }
            let delta = HEAP_CALLS.load(Ordering::SeqCst) - calls_before;
            comm.barrier();
            delta
        });

        for (rank, delta) in deltas.iter().enumerate() {
            assert_eq!(
                *delta, 0,
                "rank {rank} observed {delta} heap allocations across {MEASURED} \
                 warm {precision:?} forward_into calls; the half-width steady \
                 state must not touch the allocator"
            );
        }
    }
}

/// The fault-tolerant path may allocate (consensus votes, retransmit
/// staging, checksum framing) but stays *bounded*: far below the
/// pipeline's own working set, which a regression re-allocating workspace
/// buffers per call would immediately blow through. Held for the f64
/// default and for the half-width wire (same executor, same budget).
#[test]
fn try_forward_into_steady_state_allocations_are_bounded() {
    use soifft::soi::Precision;

    let _window = window();
    let params = params();
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let policy = ExchangePolicy::default();

    for precision in [Precision::F64, Precision::F32] {
        let fft = SoiFft::new(params)
            .expect("valid params")
            .with_precision(precision);
        let deltas = Cluster::run(params.procs, |comm| {
            let me = &inputs[comm.rank()];
            let mut ws = fft.make_workspace();
            let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
            for _ in 0..3 {
                fft.try_forward_into(comm, me, &policy, &mut ws, &mut y)
                    .expect("fault-free run");
            }
            comm.stats_mut()
                .reserve_records(MEASURED * RECORDS_PER_CALL);
            comm.barrier();
            let calls_before = HEAP_CALLS.load(Ordering::SeqCst);
            let bytes_before = HEAP_BYTES.load(Ordering::SeqCst);
            for _ in 0..MEASURED {
                fft.try_forward_into(comm, me, &policy, &mut ws, &mut y)
                    .expect("fault-free run");
            }
            let calls = HEAP_CALLS.load(Ordering::SeqCst) - calls_before;
            let bytes = HEAP_BYTES.load(Ordering::SeqCst) - bytes_before;
            comm.barrier();
            (calls, bytes)
        });
        // The ledger is global, so every rank saw the same window (modulo
        // barrier skew); judge the largest observation.
        let calls = deltas.iter().map(|d| d.0).max().unwrap();
        let bytes = deltas.iter().map(|d| d.1).max().unwrap();

        // Working set per rank per call is ~N/P complex doubles several
        // times over (> 100 KiB here). The resilient scaffolding across
        // ALL ranks must stay an order of magnitude below one rank's
        // working set.
        let per_call_calls = calls / MEASURED as u64;
        let per_call_bytes = bytes / MEASURED as u64;
        assert!(
            per_call_calls <= 512,
            "{precision:?}: resilient steady state made {per_call_calls} heap \
             calls per transform (cluster-wide); expected bounded scaffolding only"
        );
        assert!(
            per_call_bytes <= 64 * 1024,
            "{precision:?}: resilient steady state allocated {per_call_bytes} \
             bytes per transform (cluster-wide); expected bounded scaffolding only"
        );
    }
}

/// `forward_into` (and the batch driver over it) must be *bit-identical*
/// to `forward` — including on a warm, reused workspace — for every
/// convolution strategy × exchange plan. The zero-allocation path is an
/// optimization, never a numerical fork.
#[test]
fn forward_into_is_bit_identical_to_forward() {
    let _window = window();
    let params = params();
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let base = SoiFft::new(params).expect("valid params");

    let exchanges = [
        ExchangePlan::Monolithic,
        ExchangePlan::Chunked(97),
        ExchangePlan::PerSegment,
        ExchangePlan::Overlapped,
        ExchangePlan::Proxied(128),
    ];

    let mut checked = 0;
    for strategy in ConvStrategy::ALL {
        for exchange in exchanges {
            let fft = base.clone().with_strategy(strategy).with_exchange(exchange);
            let fresh = gather_output(Cluster::run(params.procs, |comm| {
                fft.forward(comm, &inputs[comm.rank()])
            }));
            let warm = gather_output(Cluster::run(params.procs, |comm| {
                let me = &inputs[comm.rank()];
                let mut ws = fft.make_workspace();
                let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
                // Twice through the same workspace: the compared output
                // comes from the *warm* call, where every buffer is reused.
                fft.forward_into(comm, me, &mut ws, &mut y);
                fft.forward_into(comm, me, &mut ws, &mut y);
                y
            }));
            assert_eq!(
                fresh, warm,
                "{strategy:?} × {exchange:?}: warm forward_into diverged \
                 bitwise from forward"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, ConvStrategy::ALL.len() * exchanges.len());
}

/// Throughput mode runs each batch element through one shared workspace;
/// its outputs must match per-call `forward` exactly, element for element.
#[test]
fn forward_many_matches_repeated_forward_bitwise() {
    let _window = window();
    let params = params();
    let fft = SoiFft::new(params).expect("valid params");
    let batch: Vec<Vec<c64>> = (0..3)
        .map(|b| {
            let mut x = signal(params.n);
            for v in &mut x {
                *v *= c64::new(1.0 + b as f64, 0.25 * b as f64);
            }
            x
        })
        .collect();
    let scattered: Vec<Vec<Vec<c64>>> = batch
        .iter()
        .map(|x| scatter_input(x, params.procs))
        .collect();

    let per_rank_batches = Cluster::run(params.procs, |comm| {
        let mine: Vec<Vec<c64>> = scattered.iter().map(|s| s[comm.rank()].clone()).collect();
        let many = fft.forward_many(comm, &mine);
        let singles: Vec<Vec<c64>> = mine.iter().map(|x| fft.forward(comm, x)).collect();
        (many, singles)
    });

    for (rank, (many, singles)) in per_rank_batches.into_iter().enumerate() {
        assert_eq!(
            many, singles,
            "rank {rank}: forward_many diverged bitwise from repeated forward"
        );
    }
}

/// The warm *serving* loop is held to the same bounded standard as the
/// resilient transform it wraps: submit → dispatch → execute → collect
/// recycles pooled job slots and pooled outputs, so per job the engine
/// adds nothing beyond the resilient collective's own bounded
/// scaffolding. A regression that copies inputs into fresh buffers,
/// regrows queues, or leaks per-job result storage blows the budget
/// immediately.
#[test]
fn serve_loop_steady_state_allocations_are_bounded() {
    let _window = window();
    use soifft::serve::{ServeConfig, ServeEngine};

    let params = params();
    let x = signal(params.n);
    let engine = ServeEngine::start(
        params,
        ServeConfig {
            tenants: 1,
            queue_capacity: 8,
            max_batch: 2,
            ..ServeConfig::default()
        },
    )
    .expect("valid params");

    // Warm every pool: job slots (input + per-rank parts), admission
    // queues, the batch board, the communicator pools behind
    // `try_forward`, and the collect buffer.
    let mut out = Vec::new();
    for _ in 0..6 {
        let ticket = engine.submit(0, &x, None).expect("admitted");
        ticket.wait_into(&mut out).expect("fault-free serve");
    }

    let calls_before = HEAP_CALLS.load(Ordering::SeqCst);
    let bytes_before = HEAP_BYTES.load(Ordering::SeqCst);
    for _ in 0..MEASURED {
        let ticket = engine.submit(0, &x, None).expect("admitted");
        ticket.wait_into(&mut out).expect("fault-free serve");
    }
    let calls = HEAP_CALLS.load(Ordering::SeqCst) - calls_before;
    let bytes = HEAP_BYTES.load(Ordering::SeqCst) - bytes_before;

    // Same per-transform budget as `try_forward_into` above: the serving
    // layer may not add unbounded per-job work on top of the resilient
    // collective's own scaffolding. (The window sees *all* engine
    // threads — dispatcher, ranks, and this client.)
    let per_job_calls = calls / MEASURED as u64;
    let per_job_bytes = bytes / MEASURED as u64;
    assert!(
        per_job_calls <= 512,
        "warm serve loop made {per_job_calls} heap calls per job \
         (cluster-wide); the submit/collect path must recycle its pools"
    );
    assert!(
        per_job_bytes <= 64 * 1024,
        "warm serve loop allocated {per_job_bytes} bytes per job \
         (cluster-wide); the submit/collect path must recycle its pools"
    );

    let report = engine.shutdown();
    assert_eq!(report.stats.completed, 6 + MEASURED as u64);
}
