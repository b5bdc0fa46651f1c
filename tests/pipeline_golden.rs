//! Golden digests of the distributed SOI pipeline's output bits.
//!
//! Every public transform entry point, over the whole
//! `ConvStrategy` × `ExchangePlan` × `Precision` × {fused, unfused} grid,
//! is run on one seeded uniform-random input (P = 4, two segments per
//! rank, plus the heterogeneous 1/3/1/3 layout) and the
//! [`soifft::cluster::checksum`] of the gathered spectrum is compared
//! against the table at the bottom of this file. (The SIMD kernels'
//! scalar fallbacks are lane-for-lane mirrors of the vector code —
//! `tests/simd_parity.rs` — so the digests do not depend on the host's
//! instruction set; CI runs this file under `SOIFFT_FORCE_SCALAR=1` too.)
//!
//! Four structural facts are asserted alongside the digests:
//!
//! * the bits do not depend on the front end: every convolution loop
//!   order, fused or not, runs the same panel kernel, so each output
//!   element is one operation sequence and the table has one row per
//!   precision;
//! * the allocating forms (`forward`, `try_forward`, `forward_many`) and
//!   the workspace forms (`forward_into` on a *warm* workspace,
//!   `try_forward_into`) agree bitwise;
//! * for a fixed front end and precision the bits do not depend on the
//!   exchange plan (the all-to-all only moves data);
//! * every resilient / cancellable / recovered / degraded path at F64
//!   lands on the digest of the plain `forward_into` run.
//!
//! When a digest legitimately changes, the failure message prints the
//! whole freshly computed table in source form.

use std::collections::BTreeMap;

use soifft::cluster::{
    checksum, Cluster, ClusterConfig, CrashSite, ExchangePolicy, FaultPlan, RecoveryOutcome,
    RestartPolicy,
};
use soifft::num::c64;
use soifft::soi::pipeline::{gather_output, scatter_input, ExchangePlan};
use soifft::soi::{CancelGate, ConvStrategy, Precision, Rational, SoiFft, SoiParams};

fn params() -> SoiParams {
    SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 20,
    }
}

/// Uniform-random complex input in [-1, 1)², SplitMix64-seeded.
fn noise(n: usize) -> Vec<c64> {
    let mut state = 0x5EED_0F60_1DE5_u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    (0..n).map(|_| c64::new(next(), next())).collect()
}

const EXCHANGES: [(&str, ExchangePlan); 5] = [
    ("mono", ExchangePlan::Monolithic),
    ("chunked37", ExchangePlan::Chunked(37)),
    ("perseg", ExchangePlan::PerSegment),
    ("overlap", ExchangePlan::Overlapped),
    ("proxied96", ExchangePlan::Proxied(96)),
];

/// The four front ends: three unfused convolution strategies plus the
/// fused sweep (which forces `RowMajor`).
fn front_ends(base: &SoiFft) -> Vec<(&'static str, SoiFft)> {
    let mut v: Vec<(&'static str, SoiFft)> = ConvStrategy::ALL
        .iter()
        .map(|&s| (s.label(), base.clone().with_strategy(s)))
        .collect();
    v.push(("fused", base.clone().with_fused_segment_fft()));
    v
}

fn precision_label(p: Precision) -> &'static str {
    match p {
        Precision::F64 => "f64",
        Precision::F32 => "f32",
        Precision::Split => "split",
    }
}

/// `forward` and a warm `forward_into` must agree; returns their digest.
fn forward_digest(fft: &SoiFft, inputs: &[Vec<c64>], what: &str) -> u64 {
    let procs = fft.params().procs;
    let fresh = gather_output(Cluster::run(procs, |comm| {
        fft.forward(comm, &inputs[comm.rank()])
    }));
    let warm = gather_output(Cluster::run(procs, |comm| {
        let me = &inputs[comm.rank()];
        let mut ws = fft.make_workspace();
        let mut y = vec![c64::ZERO; fft.output_len(comm.rank())];
        fft.forward_into(comm, me, &mut ws, &mut y);
        fft.forward_into(comm, me, &mut ws, &mut y);
        y
    }));
    assert_eq!(fresh, warm, "{what}: warm forward_into != forward");
    checksum(&warm)
}

/// Everything this file computes, keyed by a stable label.
fn compute() -> BTreeMap<String, u64> {
    let p = params();
    let x = noise(p.n);
    let inputs = scatter_input(&x, p.procs);
    let base = SoiFft::new(p).expect("valid params");
    let policy = ExchangePolicy::default();
    let mut got = BTreeMap::new();

    // forward / forward_into over the full grid, uniform layout. Neither
    // the exchange plan nor the front end changes the bits, so one table
    // row per precision covers all twenty combinations.
    for precision in Precision::ALL {
        let mut row: Option<u64> = None;
        for (fe_label, fe) in front_ends(&base) {
            for (ex_label, exchange) in EXCHANGES {
                let fft = fe.clone().with_precision(precision).with_exchange(exchange);
                // `with_precision` may re-consult wisdom; re-pin the front end.
                let fft = if fe.fused_segment_fft() {
                    fft.with_fused_segment_fft()
                } else {
                    fft.with_strategy(fe.strategy())
                };
                let what = format!("{fe_label}/{}/{ex_label}", precision_label(precision));
                let d = forward_digest(&fft, &inputs, &what);
                assert_eq!(
                    *row.get_or_insert(d),
                    d,
                    "{what}: bits depend on the front end or the exchange plan"
                );
            }
        }
        got.insert(
            format!("forward/{}", precision_label(precision)),
            row.expect("twenty combinations ran"),
        );
    }

    // Heterogeneous layout (Proxied supports uniform layouts only).
    let hetero = base.clone().with_segment_counts(vec![1, 3, 1, 3]);
    for precision in Precision::ALL {
        let mut row: Option<u64> = None;
        for (ex_label, exchange) in EXCHANGES {
            if matches!(exchange, ExchangePlan::Proxied(_)) {
                continue;
            }
            let fft = hetero
                .clone()
                .with_precision(precision)
                .with_exchange(exchange);
            let what = format!("hetero/{}/{ex_label}", precision_label(precision));
            let d = forward_digest(&fft, &inputs, &what);
            assert_eq!(
                *row.get_or_insert(d),
                d,
                "{what}: bits depend on the exchange plan"
            );
        }
        got.insert(
            format!("forward-hetero/{}", precision_label(precision)),
            row.expect("four plans ran"),
        );
    }

    // forward_many == repeated forward.
    Cluster::run(p.procs, |comm| {
        let mine = vec![inputs[comm.rank()].clone(); 2];
        let many = base.forward_many(comm, &mine);
        let single = base.forward(comm, &mine[0]);
        assert_eq!(many[0], single);
        assert_eq!(many[1], single);
    });

    // The resilient family at F64: every front end through try_forward
    // (allocating and workspace forms agree), the default front end
    // through the cancellable form with an open gate and on the
    // heterogeneous layout.
    let mut row: Option<u64> = None;
    for (fe_label, fe) in front_ends(&base) {
        let a = gather_output(Cluster::run(p.procs, |comm| {
            fe.try_forward(comm, &inputs[comm.rank()], &policy)
                .expect("healthy cluster")
        }));
        let b = gather_output(Cluster::run(p.procs, |comm| {
            let me = &inputs[comm.rank()];
            let mut ws = fe.make_workspace();
            let mut y = vec![c64::ZERO; fe.output_len(comm.rank())];
            for _ in 0..2 {
                fe.try_forward_into(comm, me, &policy, &mut ws, &mut y)
                    .expect("healthy cluster");
            }
            y
        }));
        assert_eq!(a, b, "{fe_label}: try_forward_into != try_forward");
        let d = checksum(&a);
        assert_eq!(
            *row.get_or_insert(d),
            d,
            "{fe_label}: try_forward bits depend on the front end"
        );
    }
    got.insert("try_forward".into(), row.expect("four front ends ran"));
    let gate = CancelGate::new();
    let y = gather_output(Cluster::run(p.procs, |comm| {
        let mut ws = base.make_workspace();
        let mut y = vec![c64::ZERO; base.output_len(comm.rank())];
        base.try_forward_into_cancellable(
            comm,
            &inputs[comm.rank()],
            &policy,
            &gate,
            &mut ws,
            &mut y,
        )
        .expect("open gate");
        y
    }));
    got.insert("cancellable/open-gate".into(), checksum(&y));
    let y = gather_output(Cluster::run(p.procs, |comm| {
        hetero
            .try_forward(comm, &inputs[comm.rank()], &policy)
            .expect("healthy cluster")
    }));
    got.insert("try_forward-hetero".into(), checksum(&y));

    // Supervised runs: clean, one crash + respawn, and degraded mode from
    // snapshots (death at the all-to-all) and from the driver-held inputs
    // (death before any frontier snapshot exists).
    for (fe_label, fe) in [
        ("default", base.clone()),
        ("fused", base.clone().with_fused_segment_fft()),
    ] {
        let scenarios: [(&str, FaultPlan, RestartPolicy, RecoveryOutcome); 4] = [
            (
                "clean",
                FaultPlan::new(41),
                RestartPolicy::default(),
                RecoveryOutcome::None,
            ),
            (
                "respawn",
                FaultPlan::new(42).crash(2, CrashSite::AllToAll),
                RestartPolicy::default(),
                RecoveryOutcome::Recovered {
                    restarts: 1,
                    recomputed_segments: 0,
                },
            ),
            (
                "degraded-snapshots",
                FaultPlan::new(43).crash(1, CrashSite::AllToAll),
                RestartPolicy::disabled(),
                RecoveryOutcome::Recovered {
                    restarts: 0,
                    recomputed_segments: 8,
                },
            ),
            (
                "degraded-inputs",
                FaultPlan::new(44).crash(1, CrashSite::Phase("convolution")),
                RestartPolicy::disabled(),
                RecoveryOutcome::Recovered {
                    restarts: 0,
                    recomputed_segments: 8,
                },
            ),
        ];
        for (name, plan, restart, expect) in scenarios {
            let run = fe
                .forward_recovered(ClusterConfig::with_faults(plan), restart, &policy, &inputs)
                .expect("supervised run completes");
            assert_eq!(run.recovery, expect, "{fe_label}/{name}");
            got.insert(
                format!("recovered/{fe_label}/{name}"),
                checksum(&gather_output(run.outputs)),
            );
        }
    }

    // Segments of interest, uniform and heterogeneous.
    for (label, fft) in [("uniform", &base), ("hetero", &hetero)] {
        let wanted = [1usize, 4, 6];
        let per_rank = Cluster::run(p.procs, |comm| {
            fft.forward_segments(comm, &inputs[comm.rank()], &wanted)
        });
        let mut segs: Vec<(usize, Vec<c64>)> = per_rank.into_iter().flatten().collect();
        segs.sort_by_key(|(s, _)| *s);
        assert_eq!(
            segs.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            wanted.to_vec()
        );
        let flat: Vec<c64> = segs.into_iter().flat_map(|(_, bins)| bins).collect();
        got.insert(format!("segments/{label}"), checksum(&flat));
    }

    got
}

#[test]
fn pipeline_output_bits_match_the_recorded_digests() {
    let got = compute();

    // Cross-path identities at F64 (independent of the table's values).
    let plain = got["forward/f64"];
    assert_eq!(got["try_forward"], plain);
    assert_eq!(got["cancellable/open-gate"], plain);
    for fe in ["default", "fused"] {
        for name in ["clean", "respawn", "degraded-snapshots", "degraded-inputs"] {
            assert_eq!(got[&format!("recovered/{fe}/{name}")], plain, "{fe} {name}");
        }
    }
    assert_eq!(got["try_forward-hetero"], got["forward-hetero/f64"]);

    let want: BTreeMap<String, u64> = GOLDEN.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    if got != want {
        let mut table = String::new();
        for (k, v) in &got {
            table.push_str(&format!("    (\"{k}\", {v:#018x}),\n"));
        }
        panic!("pipeline digests changed; freshly computed table:\n{table}");
    }
}

/// Re-recorded with the real-envelope panel kernel: taps are applied as
/// `φ·Σ ±env·x` with fused multiply-adds, a reassociation of the former
/// complex `Σ w·x` (SNR against the oracle unchanged; the f32 row did not
/// move at all). Identical under AVX2 and `SOIFFT_FORCE_SCALAR=1`.
const GOLDEN: &[(&str, u64)] = &[
    ("cancellable/open-gate", 0x2c91cb514575a6f5),
    ("forward-hetero/f32", 0xbfc6dd7f17580b86),
    ("forward-hetero/f64", 0x2c91cb514575a6f5),
    ("forward-hetero/split", 0xf860c83c1e23cdfa),
    ("forward/f32", 0xbfc6dd7f17580b86),
    ("forward/f64", 0x2c91cb514575a6f5),
    ("forward/split", 0xf860c83c1e23cdfa),
    ("recovered/default/clean", 0x2c91cb514575a6f5),
    ("recovered/default/degraded-inputs", 0x2c91cb514575a6f5),
    ("recovered/default/degraded-snapshots", 0x2c91cb514575a6f5),
    ("recovered/default/respawn", 0x2c91cb514575a6f5),
    ("recovered/fused/clean", 0x2c91cb514575a6f5),
    ("recovered/fused/degraded-inputs", 0x2c91cb514575a6f5),
    ("recovered/fused/degraded-snapshots", 0x2c91cb514575a6f5),
    ("recovered/fused/respawn", 0x2c91cb514575a6f5),
    ("segments/hetero", 0xacbc063975b115de),
    ("segments/uniform", 0xacbc063975b115de),
    ("try_forward", 0x2c91cb514575a6f5),
    ("try_forward-hetero", 0x2c91cb514575a6f5),
];
