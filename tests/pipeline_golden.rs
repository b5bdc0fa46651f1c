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
//! The plain, overlapped and resilient runs are repeated over a loopback
//! TCP mesh (`TcpSupervisor`, same parameters) and must land on the
//! in-process digests: the exchange plans are schedules over one
//! transport-agnostic collective, so the transport cannot change the bits.
//!
//! Five structural facts are asserted alongside the digests:
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
//!   lands on the digest of the plain `forward_into` run;
//! * `SoiFftLocal::forward` lands on the one-rank `SoiFft::forward`
//!   digest (it is that pipeline on one rank).
//!
//! The Cooley–Tukey baseline gets its own rows on the same input: every
//! entry point (`forward`, a warm `forward_into`, `try_forward`,
//! `try_forward_recoverable` clean and after a crash + respawn, a
//! `Recover`-validated run, and a loopback TCP run) must land on one CT
//! digest.
//!
//! When a digest legitimately changes, the failure message prints the
//! whole freshly computed table in source form.

use std::collections::BTreeMap;

use soifft::cluster::transport::tcp::{TcpConfig, TcpSupervisor};
use soifft::cluster::{
    checksum, Cluster, ClusterConfig, Comm, CommError, CrashSite, ExchangePolicy, FaultPlan,
    RankOutcome, RecoveryOutcome, RestartPolicy, Supervisor, ValidationPolicy,
};
use soifft::ct::DistributedCtFft;
use soifft::fft::{Plan, SixStepFft, SixStepVariant};
use soifft::num::{c32, c64};
use soifft::par::Pool;
use soifft::soi::pipeline::{gather_output, scatter_input, ExchangePlan};
use soifft::soi::{
    CancelGate, ConvStrategy, Precision, Rational, SoiFft, SoiFftLocal, SoiParams, WindowKind,
};

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

const EXCHANGES: [(&str, ExchangePlan); 2] = [
    ("mono", ExchangePlan::Monolithic),
    ("overlap", ExchangePlan::Overlapped),
];

/// The front ends: every unfused convolution strategy plus the fused
/// sweep (which forces `RowMajor`).
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

/// The gathered spectrum of `rank_body` run on every rank of a fresh
/// loopback TCP mesh, as a digest. No respawns: a plan that fails over
/// TCP must fail here, not be papered over by a second epoch.
fn tcp_digest(
    procs: usize,
    rank_body: impl Fn(&mut Comm) -> Result<Vec<c64>, CommError> + Sync,
) -> u64 {
    let config = TcpConfig {
        restart: RestartPolicy::disabled(),
        ..TcpConfig::default()
    };
    let run = TcpSupervisor::new(config)
        .run(procs, |comm, _ctx| rank_body(comm))
        .expect("loopback mesh launches");
    let parts = run
        .outcomes
        .into_iter()
        .enumerate()
        .map(|(rank, outcome)| match outcome {
            RankOutcome::Ok(y) => y,
            other => panic!("TCP rank {rank}: {other:?}"),
        })
        .collect();
    checksum(&gather_output(parts))
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
    // row per precision covers every combination.
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
            row.expect("every combination ran"),
        );
    }

    // Heterogeneous layout.
    let hetero = base.clone().with_segment_counts(vec![1, 3, 1, 3]);
    for precision in Precision::ALL {
        let mut row: Option<u64> = None;
        for (ex_label, exchange) in EXCHANGES {
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
            row.expect("every plan ran"),
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
    got.insert("try_forward".into(), row.expect("every front end ran"));
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

    // Transport parity: the same plans, and the resilient path, over TCP.
    for (ex_label, exchange) in EXCHANGES {
        let fft = base.clone().with_exchange(exchange);
        let d = tcp_digest(p.procs, |comm| Ok(fft.forward(comm, &inputs[comm.rank()])));
        got.insert(format!("tcp/forward/{ex_label}"), d);
    }
    let d = tcp_digest(p.procs, |comm| {
        base.try_forward(comm, &inputs[comm.rank()], &policy)
            .map_err(|e| e.error)
    });
    got.insert("tcp/try_forward".into(), d);

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

    // The single-node entry point is the same pipeline on one rank.
    let one = SoiParams {
        procs: 1,
        segments_per_proc: p.total_segments(),
        ..p
    };
    let d = forward_digest(
        &SoiFft::new(one).expect("valid params"),
        std::slice::from_ref(&x),
        "p1",
    );
    got.insert("local/soifft-p1".into(), d);
    let local = SoiFftLocal::from_params(one, WindowKind::GaussianSinc).expect("valid params");
    got.insert("local/forward".into(), checksum(&local.forward(&x)));

    compute_ct(&inputs, &policy, &mut got);
    got
}

/// The Cooley–Tukey rows, on the SOI rows' input and rank count.
fn compute_ct(inputs: &[Vec<c64>], policy: &ExchangePolicy, got: &mut BTreeMap<String, u64>) {
    let procs = inputs.len();
    let n = procs * inputs[0].len();
    let ct = DistributedCtFft::new(n, procs).expect("P² divides N");

    let fresh = gather_output(Cluster::run(procs, |comm| {
        ct.forward(comm, &inputs[comm.rank()])
    }));
    let warm = gather_output(Cluster::run(procs, |comm| {
        let me = &inputs[comm.rank()];
        let mut ws = ct.make_workspace();
        let mut y = vec![c64::ZERO; me.len()];
        ct.forward_into(comm, me, &mut ws, &mut y);
        ct.forward_into(comm, me, &mut ws, &mut y);
        y
    }));
    assert_eq!(fresh, warm, "ct: warm forward_into != forward");
    got.insert("ct/forward".into(), checksum(&warm));

    let y = gather_output(Cluster::run(procs, |comm| {
        ct.try_forward(comm, &inputs[comm.rank()], policy)
            .expect("healthy cluster")
    }));
    got.insert("ct/try_forward".into(), checksum(&y));
    let recover = DistributedCtFft::new(n, procs)
        .expect("P² divides N")
        .with_validation(ValidationPolicy::Recover);
    let y = gather_output(Cluster::run(procs, |comm| {
        recover
            .try_forward(comm, &inputs[comm.rank()], policy)
            .expect("healthy cluster")
    }));
    got.insert("ct/try_forward/recover".into(), checksum(&y));

    // Supervised: clean, and rank 3 dying entering its n2-point FFTs.
    for (name, config, restarts) in [
        ("clean", ClusterConfig::default(), 0),
        (
            "respawn",
            ClusterConfig::with_faults(FaultPlan::new(52).crash(3, CrashSite::Phase("ct-fft-2"))),
            1,
        ),
    ] {
        let run = Supervisor::new(config, RestartPolicy::default()).run(procs, |comm, ctx| {
            ct.try_forward_recoverable(comm, &inputs[comm.rank()], policy, ctx)
        });
        assert_eq!(run.restarts, restarts, "ct/recoverable/{name}");
        let parts = run
            .outcomes
            .into_iter()
            .enumerate()
            .map(|(rank, outcome)| match outcome {
                RankOutcome::Ok(Ok(y)) => y,
                other => panic!("ct/recoverable/{name}: rank {rank}: {other:?}"),
            })
            .collect();
        got.insert(
            format!("ct/recoverable/{name}"),
            checksum(&gather_output(parts)),
        );
    }

    let d = tcp_digest(procs, |comm| Ok(ct.forward(comm, &inputs[comm.rank()])));
    got.insert("ct/tcp/forward".into(), d);
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
    for tcp in ["tcp/forward/mono", "tcp/forward/overlap", "tcp/try_forward"] {
        assert_eq!(got[tcp], plain, "{tcp}: TCP bits differ from in-process");
    }
    assert_eq!(
        got["local/forward"], got["local/soifft-p1"],
        "SoiFftLocal != one-rank SoiFft"
    );
    let ct = got["ct/forward"];
    for (k, v) in got.iter().filter(|(k, _)| k.starts_with("ct/")) {
        assert_eq!(*v, ct, "{k}: CT bits differ from ct/forward");
    }

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
/// The `ct/` rows were recorded against the Cooley–Tukey baseline's
/// three hand-written superstep bodies, before they became one executor.
/// The `local/` rows (added later, nothing re-recorded) are `SoiFftLocal`
/// and a one-rank `SoiFft` at the same `N`, `L`, `µ`, `B`; they land on
/// the P = 4 `forward/f64` bits.
const GOLDEN: &[(&str, u64)] = &[
    ("cancellable/open-gate", 0x2c91cb514575a6f5),
    ("ct/forward", 0xc2f6b9bc8fca5f43),
    ("ct/recoverable/clean", 0xc2f6b9bc8fca5f43),
    ("ct/recoverable/respawn", 0xc2f6b9bc8fca5f43),
    ("ct/tcp/forward", 0xc2f6b9bc8fca5f43),
    ("ct/try_forward", 0xc2f6b9bc8fca5f43),
    ("ct/try_forward/recover", 0xc2f6b9bc8fca5f43),
    ("forward-hetero/f32", 0xbfc6dd7f17580b86),
    ("forward-hetero/f64", 0x2c91cb514575a6f5),
    ("forward-hetero/split", 0xf860c83c1e23cdfa),
    ("forward/f32", 0xbfc6dd7f17580b86),
    ("forward/f64", 0x2c91cb514575a6f5),
    ("forward/split", 0xf860c83c1e23cdfa),
    ("local/forward", 0x2c91cb514575a6f5),
    ("local/soifft-p1", 0x2c91cb514575a6f5),
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
    ("tcp/forward/mono", 0x2c91cb514575a6f5),
    ("tcp/forward/overlap", 0x2c91cb514575a6f5),
    ("tcp/try_forward", 0x2c91cb514575a6f5),
    ("try_forward", 0x2c91cb514575a6f5),
    ("try_forward-hetero", 0x2c91cb514575a6f5),
];

/// Digests of the node-local transforms on their own, at shapes the
/// pipeline rows above never reach: `M' = 2048` there is a power of two
/// and one column group. Here `Plan` runs the radix-3/5/7/11/13 and
/// generic combines in both precisions, and the 6-step runs several
/// column groups and row bands with ragged last ones.
fn compute_local() -> BTreeMap<String, u64> {
    let mut got = BTreeMap::new();
    for n in [12usize, 20, 48, 1024, 1232, 1280, 2184, 5 << 14] {
        let x = noise(n);
        let mut y = x.clone();
        Plan::<f64>::new(n).forward(&mut y);
        got.insert(format!("plan/f64/{n}"), checksum(&y));
        let mut y32: Vec<c32> = x.iter().map(|&z| c32::from_c64(z)).collect();
        Plan::<f32>::new(n).forward(&mut y32);
        let y: Vec<c64> = y32.iter().map(|z| z.to_c64()).collect();
        got.insert(format!("plan/f32/{n}"), checksum(&y));
    }
    for (n1, n2) in [(1024usize, 200usize), (512, 300), (40, 64)] {
        let n = n1 * n2;
        let x = noise(n);
        let scale: Vec<c64> = (0..n)
            .map(|k| c64::new(1.0 / (1.0 + k as f64), 1e-3 * (k % 97) as f64))
            .collect();
        for variant in [
            SixStepVariant::Naive,
            SixStepVariant::Fused,
            SixStepVariant::FusedDynamic,
        ] {
            let fft = SixStepFft::with_split(n, n1, n2, variant, Pool::serial());
            let mut y = x.clone();
            let mut aux = vec![c64::ZERO; n];
            fft.forward_scaled(&mut y, &mut aux, &scale);
            got.insert(
                format!("sixstep/{}/{n1}x{n2}", variant.label()),
                checksum(&y),
            );
        }
    }
    got
}

#[test]
fn local_fft_bits_match_the_recorded_digests() {
    let got = compute_local();
    let want: BTreeMap<String, u64> = LOCAL_GOLDEN
        .iter()
        .map(|&(k, v)| (k.to_string(), v))
        .collect();
    if got != want {
        let mut table = String::new();
        for (k, v) in &got {
            table.push_str(&format!("    (\"{k}\", {v:#018x}),\n"));
        }
        panic!("local FFT digests changed; freshly computed table:\n{table}");
    }
}

/// Recorded against the `Plan` that indexed one full-size twiddle table
/// at stride `N/n` and the 6-step that gathered 8-column groups; the
/// per-stage tables and page-blocked groups must reproduce it exactly.
const LOCAL_GOLDEN: &[(&str, u64)] = &[
    ("plan/f32/1024", 0x7e0fb0a90dc79386),
    ("plan/f32/12", 0x1082b9aea5dd94ee),
    ("plan/f32/1232", 0xaa4d180ba0ba27a6),
    ("plan/f32/1280", 0x80424a637a17dd86),
    ("plan/f32/20", 0x46a38461860f891e),
    ("plan/f32/2184", 0xe6d05e41e8e36c96),
    ("plan/f32/48", 0x23afa527e5d7b266),
    ("plan/f32/81920", 0xdadfb4003ab1ab86),
    ("plan/f64/1024", 0x34ddcf623b067446),
    ("plan/f64/12", 0xdd8df3b19743d223),
    ("plan/f64/1232", 0x36bcb0521d8761e2),
    ("plan/f64/1280", 0xfc9abd7a0b8d1786),
    ("plan/f64/20", 0x04a0a36114510956),
    ("plan/f64/2184", 0xa9cbc590eb9a9000),
    ("plan/f64/48", 0x4d88597bcea45f96),
    ("plan/f64/81920", 0x60a14319264ed618),
    ("sixstep/+locality/1024x200", 0x573f3bf6334a20c5),
    ("sixstep/+locality/40x64", 0xceb23bdc2f182bda),
    ("sixstep/+locality/512x300", 0x4b4bfbe8a1afd184),
    ("sixstep/6-step-naive/1024x200", 0xf7a9f4892a0d4cca),
    ("sixstep/6-step-naive/40x64", 0xe61fbdc9fbcef7fe),
    ("sixstep/6-step-naive/512x300", 0xcc292f643d6fcd28),
    ("sixstep/6-step-opt/1024x200", 0xf7a9f4892a0d4cca),
    ("sixstep/6-step-opt/40x64", 0xe61fbdc9fbcef7fe),
    ("sixstep/6-step-opt/512x300", 0xcc292f643d6fcd28),
];
