//! Combinatorial integration matrix: every window family × convolution
//! strategy × exchange plan on the same problem, all verified against one
//! reference — the "no configuration left untested" sweep.

use soifft::cluster::Cluster;
use soifft::fft::Plan;
use soifft::num::c64;
use soifft::num::error::rel_l2;
use soifft::soi::pipeline::{gather_output, scatter_input, ExchangePlan};
use soifft::soi::{ConvStrategy, Rational, SoiFft, SoiParams, WindowKind};

fn signal(n: usize) -> Vec<c64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            c64::new((0.002 * t).sin() + 0.1, 0.3 * (0.017 * t).cos())
        })
        .collect()
}

#[test]
fn full_configuration_matrix() {
    let params = SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 20,
    };
    params.validate().unwrap();
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let mut want = x.clone();
    Plan::new(params.n).forward(&mut want);

    let windows = [
        WindowKind::GaussianSinc,
        WindowKind::KaiserSinc,
        WindowKind::ProlateSinc,
    ];
    let strategies = ConvStrategy::ALL;
    let exchanges = [ExchangePlan::Monolithic, ExchangePlan::Overlapped];

    let mut checked = 0;
    for kind in windows {
        // One plan per window (the expensive part), reconfigured per cell.
        let base = SoiFft::with_window(params, kind).expect("valid");
        for strategy in strategies {
            for exchange in exchanges {
                let fft = base.clone().with_strategy(strategy).with_exchange(exchange);
                let got = gather_output(Cluster::run(params.procs, |comm| {
                    fft.forward(comm, &inputs[comm.rank()])
                }));
                let err = rel_l2(&got, &want);
                assert!(
                    err < 1e-5,
                    "{kind:?} × {strategy:?} × {exchange:?}: err={err:.3e}"
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 3 * ConvStrategy::ALL.len() * exchanges.len());
}

/// The fused conv+FFT path across windows and exchanges (it pins the
/// strategy itself).
#[test]
fn fused_conv_matrix() {
    let params = SoiParams {
        n: 1 << 12,
        procs: 4,
        segments_per_proc: 2,
        mu: Rational::new(2, 1),
        conv_width: 16,
    };
    let x = signal(params.n);
    let inputs = scatter_input(&x, params.procs);
    let mut want = x.clone();
    Plan::new(params.n).forward(&mut want);

    for kind in [WindowKind::GaussianSinc, WindowKind::ProlateSinc] {
        for exchange in [ExchangePlan::Monolithic, ExchangePlan::Overlapped] {
            let fft = SoiFft::with_window(params, kind)
                .unwrap()
                .with_fused_segment_fft()
                .with_exchange(exchange);
            let got = gather_output(Cluster::run(params.procs, |comm| {
                fft.forward(comm, &inputs[comm.rank()])
            }));
            let err = rel_l2(&got, &want);
            assert!(err < 1e-5, "{kind:?} × {exchange:?}: err={err:.3e}");
        }
    }
}
