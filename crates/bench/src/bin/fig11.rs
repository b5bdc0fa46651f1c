//! Regenerates **Fig 11**: the impact of the §5.3 convolution loop orders
//! (baseline → loop interchange → "buffering") on
//! convolution-and-oversampling time as the node count grows.
//!
//! The scaling mechanism being tested: the baseline (chunk-outer) order
//! walks the whole `n_µ·B·L` tap table once per chunk, a working set that
//! grows with the total segment count `L` (∝ nodes) until it overflows
//! each cache level in turn; the interchanged (panel-outer) order keeps
//! one 4-column panel's `n_µ·B` tap lines resident regardless of scale.
//! All orders run the same panel micro-kernel, which already keeps a
//! panel's live input lines cached, so the paper's third rung
//! (circular-buffer staging of stride-`L` input walks) is the same loop
//! nest as the second here: the "buffering" column re-times
//! [`ConvStrategy::Interchanged`] and differs from its neighbour by noise
//! only.
//!
//! We run ONE rank's worth of convolution for simulated cluster sizes 4-64
//! at fixed per-rank input (weak scaling, like the paper's x-axis).

use soifft_bench::{best_of, env_usize, signal, Table};
use soifft_core::{conv, ConvStrategy, Rational, SoiParams, Window, WindowKind};
use soifft_num::c64;
use soifft_par::Pool;
use soifft_tune::{Candidate, TuneRequest, Tuner};

/// The paper's Fig 11 rungs and the loop order each one runs.
const RUNGS: [(&str, ConvStrategy); 3] = [
    ("baseline", ConvStrategy::RowMajor),
    ("interchange", ConvStrategy::Interchanged),
    ("buffering", ConvStrategy::Interchanged),
];

/// The strategy the tuner's Estimate tier would rank first for this
/// shape, holding everything but [`ConvStrategy`] fixed. Also the grid
/// drift check: the tuner's candidate space must cover exactly the
/// strategies this figure sweeps — if [`ConvStrategy::ALL`] grows a
/// variant the tuner's enumeration (or this figure) doesn't know, the
/// regenerator fails loudly instead of silently under-reporting.
fn tuner_pick(params: SoiParams) -> ConvStrategy {
    let tuner = Tuner::in_memory();
    let mut req = TuneRequest::new(params.n, params.procs);
    req.base = Some(params);
    req.explore_shapes = false;
    let candidates = tuner.enumerate(&req).expect("fig11 shape enumerates");
    let tuner_grid: std::collections::BTreeSet<&str> = candidates
        .iter()
        .filter(|c| !c.exec.fused)
        .map(|c| c.exec.strategy.label())
        .collect();
    let figure_grid: std::collections::BTreeSet<&str> =
        RUNGS.iter().map(|(_, s)| s.label()).collect();
    assert!(ConvStrategy::ALL
        .iter()
        .all(|s| figure_grid.contains(s.label())));
    assert_eq!(
        tuner_grid, figure_grid,
        "strategy grid drift: tuner enumerates {tuner_grid:?} but Fig 11 sweeps {figure_grid:?}"
    );
    let pick: &Candidate = candidates
        .iter()
        .filter(|c| !c.exec.fused)
        .min_by(|a, b| {
            let (sa, sb) = (
                tuner.prior_seconds(a).expect("prior"),
                tuner.prior_seconds(b).expect("prior"),
            );
            sa.total_cmp(&sb)
        })
        .expect("non-empty candidate space");
    pick.exec.strategy
}

fn main() {
    soifft_bench::check_cli(
        "Regenerates **Fig 11**: the impact of the §5.3 convolution optimizations",
        &[
            ("SOIFFT_B", "convolution width"),
            ("SOIFFT_FIG11_MAX_NODES", "largest node count swept"),
            ("SOIFFT_FIG11_PER_RANK", "points per rank"),
            ("SOIFFT_REPS", "best-of repetitions"),
        ],
    );
    // Default divisible by 7 so the paper's µ = 8/7 validates.
    let per_rank = env_usize("SOIFFT_FIG11_PER_RANK", 7 * (1 << 13));
    let reps = env_usize("SOIFFT_REPS", 3);
    let b = env_usize("SOIFFT_B", 72);

    println!("Fig 11: convolution optimization impact vs simulated node count");
    println!("(per-rank input = {per_rank} elements, B = {b}, mu = 8/7, 1 segment/rank)\n");
    let mut t = Table::new(&[
        "nodes",
        "baseline (ms)",
        "interchange (ms)",
        "buffering (ms)",
        "baseline WS",
        "interchange WS",
        "tuner pick",
        "measured best",
    ]);

    let max_nodes = env_usize("SOIFFT_FIG11_MAX_NODES", 64);
    for nodes in [4usize, 8, 16, 32, 64, 128, 256, 512] {
        if nodes > max_nodes {
            break;
        }
        // One segment per rank: L = nodes, the paper's Fig 11 setting.
        let params = SoiParams {
            n: per_rank * nodes,
            procs: nodes,
            segments_per_proc: 1,
            mu: Rational::new(8, 7),
            conv_width: b,
        };
        params
            .validate()
            .unwrap_or_else(|e| panic!("nodes={nodes}: {e} (adjust SOIFFT_FIG11_PER_RANK)"));
        let window = Window::new(WindowKind::GaussianSinc, &params);
        let input = signal(params.per_rank() + params.ghost_len(), nodes as u64);
        let mut out = vec![c64::ZERO; params.blocks_per_rank() * params.total_segments()];
        let pool = Pool::serial();
        let mut row = vec![nodes.to_string()];
        let mut measured: Vec<(f64, &str)> = Vec::new();
        for (rung, strategy) in RUNGS {
            let secs = best_of(reps, || {
                conv::convolve(&params, &window, strategy, &input, &mut out, &pool)
            });
            measured.push((secs, rung));
            row.push(format!("{:.3}", secs * 1e3));
        }
        // Tap working set: the paper's Fig 6 argument. Baseline walks all
        // n_µ·B·L taps every chunk; interchange one panel's n_µ·B lines
        // (4 columns × 16 bytes) for a whole sweep.
        let n_mu = params.mu.num();
        let ws_base = n_mu * b * params.total_segments() * 16;
        let ws_inter = n_mu * b * 64;
        row.push(format!("{} KB", ws_base / 1024));
        row.push(format!("{} KB", ws_inter.max(1024) / 1024));
        row.push(tuner_pick(params).label().to_string());
        row.push(
            measured
                .iter()
                .min_by(|a, b| a.0.total_cmp(&b.0))
                .expect("three rungs measured")
                .1
                .to_string(),
        );
        t.row(&row);
    }
    print!("{}", t.render());
    println!("\nShapes to compare with the paper's Fig 11:");
    println!("* baseline working set grows ∝ nodes and leaves L1, then L2");
    println!("  (on the paper's Phi: 512 KB private L2 ⇒ spill at ~8 nodes");
    println!("  with B=72); interchange's stays constant,");
    println!("* buffering is the interchange loop nest: the panel kernel reads");
    println!("  whole cache lines of input and keeps a panel's B live lines");
    println!("  cached, which is what the circular buffer staged by hand.");
    println!("All three produce bit-identical output.");
}
