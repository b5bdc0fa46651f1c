//! Cross-crate integration tests: the full distributed pipelines against
//! single-process references, across cluster shapes, window families,
//! exchange plans and accuracy regimes.

use soifft::cluster::Cluster;
use soifft::ct::DistributedCtFft;
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::rel_l2;
use soifft::soi::pipeline::{gather_output, scatter_input, ExchangePlan};
use soifft::soi::{ConvStrategy, Rational, SoiFft, SoiFftLocal, SoiParams, WindowKind};

fn signal(n: usize) -> Vec<c64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            c64::new(
                (0.0021 * t).sin() + 0.25 * (0.4 * t).cos(),
                (0.0013 * t).cos() - 0.1,
            )
        })
        .collect()
}

fn reference(x: &[c64]) -> Vec<c64> {
    let mut y = x.to_vec();
    Plan::new(x.len()).forward(&mut y);
    y
}

fn run_soi(params: SoiParams, kind: WindowKind, exchange: ExchangePlan) -> f64 {
    let x = signal(params.n);
    let want = reference(&x);
    let inputs = scatter_input(&x, params.procs);
    let fft = SoiFft::with_window(params, kind)
        .expect("valid params")
        .with_exchange(exchange);
    let outs = Cluster::run(params.procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
    rel_l2(&gather_output(outs), &want)
}

#[test]
fn soi_distributed_over_many_shapes() {
    for (procs, s) in [(2usize, 8usize), (4, 4), (8, 2), (16, 1)] {
        let params = SoiParams {
            n: 1 << 13,
            procs,
            segments_per_proc: s,
            mu: Rational::new(2, 1),
            conv_width: 20,
        };
        let err = run_soi(params, WindowKind::GaussianSinc, ExchangePlan::Monolithic);
        assert!(err < 1e-6, "P={procs} S={s}: {err:.3e}");
    }
}

#[test]
fn soi_kaiser_window_distributed() {
    let params = SoiParams {
        n: 1 << 13,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 20,
    };
    let err = run_soi(params, WindowKind::KaiserSinc, ExchangePlan::Monolithic);
    assert!(err < 1e-6, "{err:.3e}");
}

#[test]
fn soi_all_exchange_plans_agree() {
    let params = SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 4,
        mu: Rational::new(2, 1),
        conv_width: 16,
    };
    for plan in [ExchangePlan::Monolithic, ExchangePlan::Overlapped] {
        let err = run_soi(params, WindowKind::GaussianSinc, plan);
        assert!(err < 1e-5, "{plan:?}: {err:.3e}");
    }
}

#[test]
fn accuracy_improves_with_window_width() {
    // The knob a user actually turns: B. Error must drop monotonically
    // (by orders of magnitude) as B grows.
    let mut errors = Vec::new();
    for b in [8usize, 12, 16, 24] {
        let params = SoiParams {
            n: 1 << 12,
            procs: 4,
            segments_per_proc: 2,
            mu: Rational::new(2, 1),
            conv_width: b,
        };
        errors.push(run_soi(
            params,
            WindowKind::GaussianSinc,
            ExchangePlan::Monolithic,
        ));
    }
    for w in errors.windows(2) {
        assert!(w[1] < w[0] * 0.3, "errors not dropping: {errors:?}");
    }
    assert!(errors[3] < 1e-8, "{errors:?}");
}

#[test]
fn accuracy_improves_with_oversampling() {
    // Fixed B, growing µ: more guard band, less leakage.
    let mut errors = Vec::new();
    for (num, den) in [(8usize, 7usize), (5, 4), (3, 2), (2, 1)] {
        let params = SoiParams {
            n: 7 * (1 << 9) * 4, // M divisible by 7, 4, 2
            procs: 4,
            segments_per_proc: 1,
            mu: Rational::new(num, den),
            conv_width: 36,
        };
        params.validate().expect("valid");
        errors.push(run_soi(
            params,
            WindowKind::GaussianSinc,
            ExchangePlan::Monolithic,
        ));
    }
    for w in errors.windows(2) {
        assert!(w[1] < w[0], "errors not dropping with mu: {errors:?}");
    }
}

#[test]
fn ct_baseline_matches_reference() {
    for procs in [2usize, 4, 8] {
        let n = 1 << 12;
        let x = signal(n);
        let want = reference(&x);
        let inputs = scatter_input(&x, procs);
        let fft = DistributedCtFft::new(n, procs).expect("plannable");
        let outs = Cluster::run(procs, |comm| fft.forward(comm, &inputs[comm.rank()]));
        let err = rel_l2(&gather_output(outs), &want);
        assert!(err < 1e-11, "P={procs}: {err:.3e}");
    }
}

#[test]
fn soi_and_ct_communication_volumes() {
    // The headline structural claim, measured: CT ships 3·N elements per
    // all-to-all round-trip set, SOI ships µ·N once (plus a tiny ghost).
    let procs = 4;
    let n = 1 << 12;
    let x = signal(n);
    let inputs = scatter_input(&x, procs);

    let params = SoiParams {
        n,
        procs,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 16,
    };
    let soi = SoiFft::new(params).unwrap();
    let soi_stats = Cluster::run(procs, |comm| {
        soi.forward(comm, &inputs[comm.rank()]);
        comm.stats().clone()
    });

    let ct = DistributedCtFft::new(n, procs).unwrap();
    let ct_stats = Cluster::run(procs, |comm| {
        ct.forward(comm, &inputs[comm.rank()]);
        comm.stats().clone()
    });

    let per_rank_elems = (n / procs) as u64;
    for s in &soi_stats {
        // One exchange of µ·(N/P) elements.
        assert_eq!(s.bytes_in("all-to-all"), 2 * per_rank_elems * 16);
    }
    for s in &ct_stats {
        // Three exchanges of N/P elements each.
        assert_eq!(s.bytes_in("all-to-all"), 3 * per_rank_elems * 16);
    }
}

#[test]
fn local_and_distributed_soi_are_identical() {
    let params = SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 16,
    };
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let dist_fft = SoiFft::new(params).unwrap();
    let dist = gather_output(Cluster::run(params.procs, |comm| {
        dist_fft.forward(comm, &inputs[comm.rank()])
    }));
    let local = SoiFftLocal::new(
        params.n,
        params.total_segments(),
        params.mu,
        params.conv_width,
    )
    .unwrap()
    .forward(&x);
    assert!(rel_l2(&dist, &local) < 1e-11);
}

#[test]
fn conv_strategy_choice_does_not_change_distributed_result() {
    let params = SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 16,
    };
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let mut results = Vec::new();
    for strategy in ConvStrategy::ALL {
        let fft = SoiFft::new(params).unwrap().with_strategy(strategy);
        results.push(gather_output(Cluster::run(params.procs, |comm| {
            fft.forward(comm, &inputs[comm.rank()])
        })));
    }
    // One panel kernel under every loop order: the bits agree.
    for other in &results[1..] {
        assert_eq!(other, &results[0]);
    }
}

/// The panic message of `run`, or `"<no panic>"`.
fn panic_message<T>(run: std::thread::Result<T>) -> String {
    match run {
        Ok(_) => "<no panic>".into(),
        Err(payload) => payload.downcast::<String>().map(|s| *s).unwrap_or_default(),
    }
}

/// A repeated segment id is a caller error on both entry points: the
/// check lives in `SoiFft::forward_segments`, which `SoiFftLocal` runs on
/// one rank.
#[test]
fn repeated_segment_ids_panic_on_both_entry_points() {
    let params = SoiParams {
        n: 1 << 10,
        procs: 2,
        segments_per_proc: 4,
        mu: Rational::new(2, 1),
        conv_width: 16,
    };
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let wanted = [3usize, 5, 3];

    let fft = SoiFft::new(params).unwrap();
    let err = panic_message(std::panic::catch_unwind(|| {
        Cluster::run(params.procs, |comm| {
            fft.forward_segments(comm, &inputs[comm.rank()], &wanted)
        })
    }));
    assert!(err.contains("segment 3 requested twice"), "SoiFft: {err}");

    let local = SoiFftLocal::new(params.n, params.total_segments(), params.mu, 16).unwrap();
    let err = panic_message(std::panic::catch_unwind(|| {
        local.forward_segments(&x, &wanted)
    }));
    assert!(
        err.contains("segment 3 requested twice"),
        "SoiFftLocal: {err}"
    );
}
