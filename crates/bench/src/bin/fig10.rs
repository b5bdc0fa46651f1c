//! Regenerates **Fig 10**: the impact of the §5.2 bandwidth optimizations
//! on large local 1D FFT performance — the 4-rung ladder measured on this
//! host, with GFLOPS under the paper's `5N log₂N` convention.
//!
//! Rung mapping (see `soifft_fft::sixstep`): naive(13 sweeps) → fused
//! (4 sweeps) → +locality (dynamic-block twiddles) → +fine-grain (the
//! +locality walk on `SOIFFT_THREADS` threads; every other rung runs
//! serially). Each rung is timed through `forward_with` against one
//! scratch, so the group buffer is not allocated and faulted in per call.
//! The paper measures 16M points on a 61-core Phi; the default here is
//! 2²⁰ points (override with `SOIFFT_FIG10_N`), so compare *shapes*, not
//! absolute GFLOPS.

use soifft_bench::{best_of, env_usize, gflops, signal, Table};
use soifft_fft::{fft_flops, SixStepFft, SixStepVariant};
use soifft_num::c64;
use soifft_par::{default_parallelism, Pool};

fn main() {
    soifft_bench::check_cli(
        "Regenerates **Fig 10**: the impact of the §5.2 bandwidth optimizations",
        &[
            ("SOIFFT_FIG10_N", "transform size for the ladder"),
            ("SOIFFT_REPS", "best-of repetitions"),
            ("SOIFFT_THREADS", "local-FFT worker threads"),
        ],
    );
    let n = env_usize("SOIFFT_FIG10_N", 1 << 20);
    let reps = env_usize("SOIFFT_REPS", 3);
    let threads = env_usize("SOIFFT_THREADS", default_parallelism());
    let x = signal(n, 11);

    println!("Fig 10: local FFT optimization ladder, N = {n} ({reps} reps, best)");
    println!("(paper: 16M points on Xeon Phi reaching ~120 GFLOPS at 12% efficiency)\n");
    let mut t = Table::new(&["variant", "memory sweeps", "seconds", "GFLOPS"]);
    let mut baseline = None;
    for variant in SixStepVariant::LADDER {
        let pool = if variant == SixStepVariant::FusedParallel {
            Pool::new(threads)
        } else {
            Pool::serial()
        };
        let plan = SixStepFft::with_pool(n, variant, pool);
        let mut data = x.clone();
        let mut aux = vec![c64::ZERO; n];
        let mut scratch = plan.make_scratch();
        let secs = best_of(reps, || {
            plan.forward_with(&mut data, &mut aux, &mut scratch)
        });
        baseline.get_or_insert(secs);
        t.row(&[
            variant.label().into(),
            variant.memory_sweeps().to_string(),
            format!("{secs:.4}"),
            gflops(fft_flops(n), secs),
        ]);
    }
    print!("{}", t.render());
    println!("\nNote: +fine-grain runs the +locality walk with each column group");
    println!("and row band split over {threads} threads (sixstep module docs).");
}
