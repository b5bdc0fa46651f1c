//! Mixed-precision SNR accuracy gate (DESIGN.md §1j).
//!
//! The f32 and split data paths trade exchange bandwidth for rounding
//! noise; this suite pins the trade to documented floors, measured as
//! SNR (dB) against the **f64 SOI run on identical inputs** — which
//! isolates precision noise from the window's alias leakage (shared by
//! all three precisions) — across the full ConvStrategy × ExchangePlan
//! grid. Floors are set ~15 dB below typical measurements at this size
//! so they gate precision regressions, not run-to-run jitter:
//!
//! * `Precision::F32`   ≥ 100 dB  (c32 wire + f32 recovery FFT)
//! * `Precision::Split` ≥ 120 dB  (c32 wire, f64 recovery accumulate)
//!
//! The same grid also re-checks the ladder ordering (split strictly more
//! accurate than f32) and that the f64 path is unaffected by the builder.

use soifft::cluster::Cluster;
use soifft::num::c64;
use soifft::soi::accuracy::snr_db;
use soifft::soi::pipeline::{gather_output, scatter_input};
use soifft::soi::{ConvStrategy, ExchangePlan, Precision, Rational, SoiFft, SoiParams};

const F32_FLOOR_DB: f64 = 100.0;
const SPLIT_FLOOR_DB: f64 = 120.0;

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
    let mut state = 0x9E37_79B9_7F4A_7C15u64 | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| c64::new(next(), next())).collect()
}

/// One distributed SOI run at the given configuration, gathered to the
/// natural output order.
fn run(strategy: ConvStrategy, exchange: ExchangePlan, precision: Precision) -> Vec<c64> {
    let p = params();
    let x = signal(p.n);
    let inputs = scatter_input(&x, p.procs);
    let fft = SoiFft::new(p)
        .expect("valid params")
        .with_strategy(strategy)
        .with_exchange(exchange)
        .with_precision(precision);
    let outputs = Cluster::run(p.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
    gather_output(outputs)
}

fn exchange_grid() -> [ExchangePlan; 2] {
    [ExchangePlan::Monolithic, ExchangePlan::Overlapped]
}

#[test]
fn f32_holds_snr_floor_across_strategy_exchange_grid() {
    for strategy in ConvStrategy::ALL {
        let oracle = run(strategy, ExchangePlan::Monolithic, Precision::F64);
        for exchange in exchange_grid() {
            let got = run(strategy, exchange, Precision::F32);
            let snr = snr_db(&got, &oracle);
            assert!(
                snr >= F32_FLOOR_DB,
                "{strategy:?} × {exchange:?}: f32 SNR {snr:.1} dB below floor {F32_FLOOR_DB} dB"
            );
        }
    }
}

#[test]
fn split_holds_snr_floor_across_strategy_exchange_grid() {
    for strategy in ConvStrategy::ALL {
        let oracle = run(strategy, ExchangePlan::Monolithic, Precision::F64);
        for exchange in exchange_grid() {
            let got = run(strategy, exchange, Precision::Split);
            let snr = snr_db(&got, &oracle);
            assert!(
                snr >= SPLIT_FLOOR_DB,
                "{strategy:?} × {exchange:?}: split SNR {snr:.1} dB below floor {SPLIT_FLOOR_DB} dB"
            );
        }
    }
}

#[test]
fn split_strictly_more_accurate_than_f32() {
    let oracle = run(
        ConvStrategy::Interchanged,
        ExchangePlan::Monolithic,
        Precision::F64,
    );
    let f32_out = run(
        ConvStrategy::Interchanged,
        ExchangePlan::Monolithic,
        Precision::F32,
    );
    let split_out = run(
        ConvStrategy::Interchanged,
        ExchangePlan::Monolithic,
        Precision::Split,
    );
    let snr32 = snr_db(&f32_out, &oracle);
    let snr_split = snr_db(&split_out, &oracle);
    assert!(
        snr_split > snr32,
        "ladder inverted: split {snr_split:.1} dB ≤ f32 {snr32:.1} dB"
    );
}

#[test]
fn exchange_plan_does_not_change_lowprec_bits() {
    // The exchange plans move the same half-width payloads in
    // different schedules; the recovered spectrum must be bit-identical
    // regardless of plan, for both reduced precisions.
    for precision in [Precision::F32, Precision::Split] {
        let baseline = run(
            ConvStrategy::Interchanged,
            ExchangePlan::Monolithic,
            precision,
        );
        for exchange in exchange_grid() {
            let got = run(ConvStrategy::Interchanged, exchange, precision);
            assert_eq!(baseline.len(), got.len());
            for (i, (a, b)) in baseline.iter().zip(&got).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "{precision:?} × {exchange:?}: bin {i} differs from Monolithic"
                );
            }
        }
    }
}

#[test]
fn resilient_and_recovered_runs_get_the_half_width_wire() {
    // Precision is the pack/recover stages' business only, so the
    // resilient, checkpointed and degraded paths must hold the same
    // floors, ship the same half-width all-to-all, and land on the bits
    // of the plain `forward_into` run at the same precision.
    use soifft::cluster::{
        ClusterConfig, CrashSite, ExchangePolicy, FaultPlan, RecoveryOutcome, RestartPolicy,
    };

    let p = params();
    let x = signal(p.n);
    let inputs = scatter_input(&x, p.procs);
    let policy = ExchangePolicy::default();
    let payload64 = (p.segments_per_proc * p.blocks_per_rank() * p.procs * 16) as u64;
    let strategy = ConvStrategy::Interchanged;
    let oracle = run(strategy, ExchangePlan::Monolithic, Precision::F64);

    // try_forward: spectrum plus each rank's all-to-all phase volume.
    let resilient = |precision: Precision| {
        let fft = SoiFft::new(p)
            .expect("valid params")
            .with_precision(precision);
        let runs = Cluster::run(p.procs, |comm| {
            let y = fft
                .try_forward(comm, &inputs[comm.rank()], &policy)
                .expect("healthy cluster");
            (y, comm.stats().bytes_in("all-to-all"))
        });
        let bytes: Vec<u64> = runs.iter().map(|(_, b)| *b).collect();
        (
            gather_output(runs.into_iter().map(|(y, _)| y).collect()),
            bytes,
        )
    };
    let (_, bytes64) = resilient(Precision::F64);

    for (precision, floor) in [
        (Precision::F32, F32_FLOOR_DB),
        (Precision::Split, SPLIT_FLOOR_DB),
    ] {
        let plain = run(strategy, ExchangePlan::Monolithic, precision);
        let (got, bytes) = resilient(precision);
        assert_eq!(got, plain, "{precision:?}: try_forward bits != forward");
        let snr = snr_db(&got, &oracle);
        assert!(snr >= floor, "{precision:?}: try_forward SNR {snr:.1} dB");
        let gate = soifft::soi::CancelGate::new();
        let fft = SoiFft::new(p)
            .expect("valid params")
            .with_precision(precision);
        let gated = gather_output(Cluster::run(p.procs, |comm| {
            let mut ws = fft.make_workspace();
            let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
            let me = &inputs[comm.rank()];
            fft.try_forward_into_cancellable(comm, me, &policy, &gate, &mut ws, &mut y)
                .expect("open gate");
            y
        }));
        assert_eq!(gated, plain, "{precision:?}: cancellable bits != forward");
        for (rank, (half, full)) in bytes.iter().zip(&bytes64).enumerate() {
            // Same consensus overhead, half the payload.
            assert_eq!(
                *half,
                full - payload64 / 2,
                "{precision:?}: rank {rank} all-to-all volume"
            );
        }

        for (what, plan, restart, degraded) in [
            ("clean", FaultPlan::new(71), RestartPolicy::default(), false),
            (
                "degraded",
                FaultPlan::new(72).crash(1, CrashSite::AllToAll),
                RestartPolicy::disabled(),
                true,
            ),
        ] {
            let run = fft
                .forward_recovered(ClusterConfig::with_faults(plan), restart, &policy, &inputs)
                .expect("supervised run completes");
            assert_eq!(
                matches!(run.recovery, RecoveryOutcome::Recovered { .. }),
                degraded,
                "{precision:?} {what}: {:?}",
                run.recovery
            );
            let got = gather_output(run.outputs);
            assert_eq!(got, plain, "{precision:?} {what}: bits != fault-free run");
            let snr = snr_db(&got, &oracle);
            assert!(snr >= floor, "{precision:?} {what}: SNR {snr:.1} dB");
        }
    }
}
